//! `paper_bench` rejects bad command lines with exit 2 before doing any
//! work: a flag with no value (`--out` used to fall back to `""` and write
//! CSVs into the cwd with exit 0), and the subcommands retired with the
//! bench silos, which are unknown figures now.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_bench")).args(args).output().expect("spawn");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_command_lines_exit_2() {
    let (code, stderr) = run(&["fig3", "--quick", "--out"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("missing/invalid value for --out"), "{stderr}");
    for retired in ["serve", "live", "coldstart", "net", "obs", "rescore"] {
        let (code, stderr) = run(&[retired]);
        assert_eq!(code, Some(2), "{retired}: {stderr}");
        assert!(stderr.contains(&format!("unknown figure {retired}")), "{stderr}");
    }
}
