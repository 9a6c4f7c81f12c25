//! `paper_bench` rejects bad command lines with exit 2 before doing any
//! work: a flag with no value (`--out` used to fall back to `""` and write
//! into the cwd with exit 0), the figures retired with the CSV sweeps and
//! the bench silos, which are unknown figures now, and the options only
//! the sweeps read.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_bench")).args(args).output().expect("spawn");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_command_lines_exit_2() {
    let (code, stderr) = run(&["paperscale", "--quick", "--out"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("missing/invalid value for --out"), "{stderr}");
    for retired in [
        "serve",
        "live",
        "coldstart",
        "net",
        "obs",
        "rescore",
        "fig3",
        "fig12",
        "fig20",
        "ablation",
        "all",
    ] {
        let (code, stderr) = run(&[retired]);
        assert_eq!(code, Some(2), "{retired}: {stderr}");
        assert!(stderr.contains(&format!("unknown figure {retired}")), "{stderr}");
    }
    let (code, stderr) = run(&["paperscale", "--m", "5"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --m"), "{stderr}");
}
