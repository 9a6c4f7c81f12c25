//! The one benchmark for chronorank. See `benchmark/README.md`.
//!
//! `--workload NAME` runs that workload in this process and prints, as its
//! last line, the result object `BENCHMARK.json`'s driver reads. Without
//! it, every workload runs in a child process of its own (a clean
//! `VmHWM` each) and a summary follows.

mod adapter;
mod catalog;
mod layers;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use adapter::{json, Json};
use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::Measured;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, Run};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed S] [--seconds T] \
[--trace 0|1 | --traced] [--quick] [--selfcheck [--spread N]] [--catalogue | --benchmark-json] \
[--lint]";

/// `--seconds` of a `--quick` run: everything twenty times smaller.
const QUICK_SECONDS: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: bool,
    spread: usize,
    catalogue: bool,
    benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: workloads::NOMINAL_SECONDS,
        traced: false,
        selfcheck: false,
        spread: 0,
        catalogue: false,
        benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => args.traced = true,
            "--quick" => args.seconds = QUICK_SECONDS,
            "--selfcheck" => args.selfcheck = true,
            "--spread" => args.spread = value()?.parse().map_err(|e| format!("--spread: {e}"))?,
            "--catalogue" => args.catalogue = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", args.seconds));
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Build output, scratch directories and trace files all live under the
/// cargo target directory, inside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target/benchmark".into(), PathBuf::from)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.catalogue {
        print_catalogue();
        Ok(true)
    } else if args.benchmark_json {
        print_benchmark_json();
        Ok(true)
    } else if args.selfcheck {
        selfcheck::run(&args)
    } else if let Some(workload) = args.workload.clone() {
        run_workload(&workload, &args)
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, this process
// ---------------------------------------------------------------------------

fn run_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let work_dir = target_dir().join(format!("work-{workload}-{}", std::process::id()));
    let run = Run { seed: args.seed, seconds: args.seconds, traced: args.traced, work_dir };
    std::fs::create_dir_all(&run.work_dir).map_err(|e| format!("create work dir: {e}"))?;
    let result = measure(workload, &run);
    std::fs::remove_dir_all(&run.work_dir).ok();
    let (outcome, layers) = result?;

    let failed = outcome.failed + outcome.wrong;
    let attempted = outcome.attempted.max(1);
    let mut metrics = outcome.metrics.clone();
    metrics.insert("failed_ops_share", Measured::single(failed as f64 / attempted as f64));

    println!(
        "== {workload}  seed {}  seconds {}  {}",
        args.seed,
        args.seconds,
        if args.traced {
            "traced slice (end-to-end numbers below are under tracing)"
        } else {
            "untraced"
        }
    );
    for (k, v) in &outcome.facts {
        println!("   {k} = {v}");
    }
    let mut missing = Vec::new();
    for m in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
        match metrics.get(m.name) {
            Some(v) => println!(
                "{:<26} {:>14.4} {:<6} n={} q1={:.4} q3={:.4} bound={}%",
                m.name,
                v.value,
                m.unit,
                v.n,
                v.q1,
                v.q3,
                m.bound * 100.0
            ),
            None => missing.push(m.name),
        }
    }
    if !missing.is_empty() {
        return Err(format!("{workload} did not report {}", missing.join(", ")));
    }
    if let Some(layers) = &layers {
        print_breakdown(workload, &outcome)?;
        println!("-- layer ladder (probe scale, independent of the workload)");
        for m in &PER_LAYER {
            let v = layers
                .0
                .get(m.name)
                .ok_or_else(|| format!("the ladder did not report {}", m.name))?;
            println!("{:<40} {:>16.4} {:<6} -> {}", m.name, v.value, m.unit, m.moves);
        }
    }
    println!(
        "   attempted {attempted}  failed {}  wrong {}  => {}",
        outcome.failed,
        outcome.wrong,
        if outcome.wrong == 0 { "answers correct" } else { "WRONG ANSWERS" }
    );

    // The detail line (every metric, with its evidence) is for the summary
    // and the self-check; the last line is the driver's.
    let detail = |unit: &str, v: &Measured| {
        obj([
            ("value", Json::Num(v.value)),
            ("unit", text(unit)),
            ("n", Json::Num(v.n as f64)),
            ("q1", Json::Num(v.q1)),
            ("q3", Json::Num(v.q3)),
        ])
    };
    let plain =
        |unit: &str, v: &Measured| obj([("value", Json::Num(v.value)), ("unit", text(unit))]);
    let e2e = END_TO_END.iter().filter(|m| m.applies_to(workload));
    let mut all: Vec<(String, Json)> =
        e2e.map(|m| (m.name.to_string(), detail(m.unit, &metrics[m.name]))).collect();
    let reported: Vec<(String, Json)> = match &layers {
        None => END_TO_END
            .iter()
            .filter(|m| m.declared)
            .map(|m| (m.name.to_string(), plain(m.unit, &metrics[m.name])))
            .collect(),
        Some(layers) => {
            let of = |m: &catalog::PerLayer| &layers.0[m.name];
            all.extend(PER_LAYER.iter().map(|m| (m.name.to_string(), detail(m.unit, of(m)))));
            PER_LAYER.iter().map(|m| (m.name.to_string(), plain(m.unit, of(m)))).collect()
        }
    };
    println!("#detail {}", json::encode(&Json::Obj(all)));
    let line = obj([
        ("correct", Json::Bool(outcome.wrong == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(reported)),
    ]);
    println!("{}", json::encode(&line));
    Ok(outcome.wrong == 0)
}

fn measure(workload: &str, run: &Run) -> Result<(Outcome, Option<layers::Layers>), String> {
    let pass = |run: &Run| match workload {
        "exact_cold" => workloads::exact_cold::run(run),
        "zipf_inproc" => workloads::zipf::run_inproc(run),
        "zipf_wire" => workloads::zipf::run_wire(run),
        "live_wire" => workloads::live_wire::run(run),
        "paper_build" => workloads::paper_build::run(run),
        other => Err(format!("unknown workload {other}")),
    };
    if !run.traced {
        return Ok((pass(run)?, None));
    }
    // The timings no bound can hold (`catalog::UNSTEADY`) ride along as
    // `diag.<name>`; an untraced pass measures them free of tracing.
    let untraced = pass(&Run { traced: false, ..run.clone() })?;
    let mut outcome = pass(run)?;
    let mut layers = layers::run(run)?;
    for name in catalog::UNSTEADY {
        let m = untraced.metrics.get(name).ok_or_else(|| format!("{workload} lacks {name}"))?;
        layers.0.insert(format!("diag.{name}"), *m);
    }
    outcome.attempted += untraced.attempted;
    outcome.failed += untraced.failed;
    outcome.wrong += untraced.wrong;
    Ok((outcome, Some(layers)))
}

/// Write `trace-<workload>.json` and print where the traced slice's
/// latency went.
fn print_breakdown(workload: &str, outcome: &Outcome) -> Result<(), String> {
    let path = target_dir().join(format!("trace-{workload}.json"));
    let doc = trace::trace_json(workload, &outcome.spans);
    std::fs::write(&path, json::encode(&doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let b = trace::breakdown(&outcome.spans);
    println!(
        "-- traced slice: {} operations, {} spans ({} lost to ring overwrite) -> {}",
        b.roots,
        outcome.spans.len(),
        adapter::spans_dropped(),
        path.display()
    );
    println!(
        "   {:<22} {:>9} {:>12} {:>16} {:>20} {:>10}",
        "span", "count", "self us/op", "blocking us/op", "in a typical op, us", "p50 us"
    );
    for (name, s) in &b.by_name {
        println!(
            "   {:<22} {:>9} {:>12.2} {:>16.2} {:>20.2} {:>10.1}",
            name, s.count, s.mean_self_us, s.mean_blocking_us, s.typical_blocking_us, s.p50_us
        );
    }
    println!(
        "   blocking times sum to {:.2} us/op (root mean {:.2}); those of a typical operation \
         (40th-60th percentile) sum to {:.2} us against a root p50 of {:.1} us ({:+.1}%)",
        b.blocking_sum_us(),
        b.root_mean_us,
        b.typical_sum_us(),
        b.root_p50_us,
        100.0 * (b.typical_sum_us() / b.root_p50_us.max(1e-9) - 1.0)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// All workloads, one child process each
// ---------------------------------------------------------------------------

/// What one child run reported.
pub struct ChildRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the `#detail` line: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

pub fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    match obj {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("result lacks {key}")),
        _ => Err(format!("result is not an object (looking for {key})")),
    }
}

pub fn num(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        other => Err(format!("{other:?} is not a number")),
    }
}

/// Run one workload in a child process, echoing its report.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut last = None;
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("#detail ") {
            detail = Some(d.to_string());
        } else if line.starts_with('{') {
            last = Some(line.to_string());
        } else {
            println!("{line}");
        }
    }
    let (detail, last) = match (detail, last) {
        (Some(d), Some(l)) => (d, l),
        _ => {
            return Err(format!(
                "{workload} (seed {seed}) printed no result; exit {}",
                output.status
            ))
        }
    };
    let line = json::parse(&last)?;
    let mut metrics = BTreeMap::new();
    if let Json::Obj(fields) = json::parse(&detail)? {
        for (name, m) in fields {
            let unit = match get(&m, "unit")? {
                Json::Str(u) => u.clone(),
                _ => String::new(),
            };
            metrics.insert(name, (num(get(&m, "value")?)?, unit));
        }
    }
    Ok(ChildRun {
        correct: get(&line, "correct")? == &Json::Bool(true) && output.status.success(),
        attempted: num(get(&line, "attempted")?)? as u64,
        failed: num(get(&line, "failed")?)? as u64,
        metrics,
    })
}

/// One full set: every workload once (and once more traced, if asked).
pub fn run_set(
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<BTreeMap<&'static str, ChildRun>, String> {
    let mut set = BTreeMap::new();
    for w in &WORKLOADS {
        let mut run = run_child(w.name, seed, seconds, false)?;
        if traced {
            let t = run_child(w.name, seed, seconds, true)?;
            run.correct &= t.correct;
            for m in &PER_LAYER {
                if let Some(v) = t.metrics.get(m.name) {
                    run.metrics.insert(m.name.to_string(), v.clone());
                }
            }
        }
        set.insert(w.name, run);
    }
    Ok(set)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let set = run_set(args.seed, args.seconds, args.traced)?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let run = &set[w.name];
            let metrics = run
                .metrics
                .iter()
                .map(|(name, (value, unit))| {
                    (name.clone(), obj([("value", Json::Num(*value)), ("unit", text(unit))]))
                })
                .collect();
            let fields = obj([
                ("correct", Json::Bool(run.correct)),
                ("attempted", Json::Num(run.attempted as f64)),
                ("failed", Json::Num(run.failed as f64)),
                ("metrics", Json::Obj(metrics)),
            ]);
            (w.name.to_string(), fields)
        })
        .collect();
    let summary = obj([
        ("benchmark", text("chronorank")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(workloads)),
        // The benchmark measures; it never claims a gain.
        ("claim", Json::Null),
    ]);
    println!("{}", json::encode(&summary));
    Ok(set.values().all(|r| r.correct))
}

// ---------------------------------------------------------------------------
// The catalogue as BENCHMARK.json and as markdown (the README's tables)
// ---------------------------------------------------------------------------

/// `BENCHMARK.json` as the catalogue declares it; `catalog::tests::schema`
/// fails when the committed file and this disagree.
fn print_benchmark_json() {
    let workloads = WORKLOADS.iter().map(|w| obj([("name", text(w.name)), ("why", text(w.why))]));
    let end_to_end = END_TO_END.iter().filter(|m| m.declared).map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj([("name", text(m.name)), ("unit", text(m.unit)), ("better", text(m.better.as_str()))])
    });
    let rows = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|i| format!("    {}", json::encode(i))).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    println!("{{");
    println!("  \"command\": [\"bash\", \"benchmark/run.sh\"],");
    println!("  \"paths\": [\"benchmark\"],");
    println!("  \"run_seconds\": {},", workloads::NOMINAL_SECONDS);
    println!("  \"workloads\": {},", rows(workloads.collect()));
    println!("  \"end_to_end\": {},", rows(end_to_end.collect()));
    println!("  \"per_layer\": {}", rows(per_layer.collect()));
    println!("}}");
}

fn print_catalogue() {
    println!("| workload | why |\n|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!("\n| end-to-end metric | unit | better | bound | reported by | declared in BENCHMARK.json | what |\n|---|---|---|---|---|---|---|");
    for m in &END_TO_END {
        let by = if m.only.is_empty() { "all five".to_string() } else { m.only.join(", ") };
        println!(
            "| `{}` | {} | {} | {}% | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            by,
            if m.declared { "yes" } else { "no" },
            m.what
        );
    }
    println!("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|");
    for m in &PER_LAYER {
        println!("| `{}` | {} | {} | {} |", m.name, m.unit, m.better.as_str(), m.moves);
    }
}
