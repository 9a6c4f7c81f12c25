//! `selfcheck.sh`: does the ruler agree with itself? Two full sets on one
//! seed must match within each declared metric's bound (exact counts must
//! be identical; the undeclared timings are listed, not held), a third set
//! on the next seed must pass every correctness check, and `--spread N` reports the seed-to-seed spread the driver's
//! acceptance rule is defined on. Output is markdown: the first run of
//! it is committed as `CALIBRATION.md`.

use crate::adapter::{json, Json};
use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;
use crate::{get, num, run_child, run_set, Args, ChildRun};
use std::collections::BTreeMap;

/// Bounds as `BENCHMARK.json` (in the working directory) declares them;
/// the catalogue's for metrics it does not declare.
fn bounds() -> Result<BTreeMap<&'static str, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let Json::Arr(declared) = get(&doc, "end_to_end")? else {
        return Err("BENCHMARK.json: end_to_end is not a list".into());
    };
    let mut out = BTreeMap::new();
    for m in &END_TO_END {
        let entry = declared.iter().find(|d| get(d, "name") == Ok(&Json::Str(m.name.to_string())));
        let bound = match entry {
            Some(d) => num(get(d, "bound")?)?,
            None if m.declared => {
                return Err(format!("BENCHMARK.json does not declare {}", m.name))
            }
            None => m.bound,
        };
        out.insert(m.name, bound);
    }
    Ok(out)
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!("host: nproc = {nproc}")
}

fn value(run: &ChildRun, m: &EndToEnd) -> Result<f64, String> {
    run.metrics.get(m.name).map(|v| v.0).ok_or_else(|| format!("a run did not report {}", m.name))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    if args.spread > 0 {
        return spread(args, &bounds);
    }
    println!("# Self-check: two sets on seed {}, one on seed {}\n", args.seed, args.seed + 1);
    println!("{}; `--seconds {}`\n", host_line(), args.seconds);
    let a = run_set(args.seed, args.seconds, false)?;
    let b = run_set(args.seed, args.seconds, false)?;
    let c = run_set(args.seed + 1, args.seconds, false)?;

    let mut ok = true;
    println!("\n| workload | metric | set 1 | set 2 | difference | bound | verdict |\n|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let (x, y) = (value(&a[w.name], m)?, value(&b[w.name], m)?);
            let exact = m.exact_on.contains(&w.name);
            let bound = if exact { 0.0 } else { bounds[m.name] };
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs().max(f64::MIN_POSITIVE) };
            // Held: what BENCHMARK.json declares, and every count.
            let held = m.declared || bound == 0.0;
            let pass = diff <= bound;
            ok &= pass || !held;
            println!(
                "| {} | {} | {x:.4} | {y:.4} | {:.2}% | {} | {} |",
                w.name,
                m.name,
                diff * 100.0,
                if exact { "identical".to_string() } else { format!("{}%", bound * 100.0) },
                match (pass, held) {
                    (true, _) => "ok",
                    (false, true) => "DISAGREE",
                    (false, false) => "unsteady (not held)",
                }
            );
        }
    }
    println!("\n| set | workload | correct | attempted | failed |\n|---|---|---|---|---|");
    for (label, set) in [("seed, 1st", &a), ("seed, 2nd", &b), ("seed + 1", &c)] {
        for w in &WORKLOADS {
            let r = &set[w.name];
            ok &= r.correct && r.failed == 0;
            println!("| {label} | {} | {} | {} | {} |", w.name, r.correct, r.attempted, r.failed);
        }
    }
    println!("\nself-check: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Ten (or `--spread N`) seeds per workload: interquartile range over the
/// median of every end-to-end metric, against a third of its bound.
fn spread(args: &Args, bounds: &BTreeMap<&'static str, f64>) -> Result<bool, String> {
    println!("# Spread over {} seeds\n", args.spread);
    println!("{}; `--seconds {}`\n", host_line(), args.seconds);
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for seed in 1..=args.spread as u64 {
            let r = run_child(w.name, seed, args.seconds, false)?;
            ok &= r.correct && r.failed == 0;
            runs.push(r);
        }
        for m in END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let values: Vec<f64> = runs.iter().map(|r| value(r, m)).collect::<Result<_, _>>()?;
            let (q1, med, q3) = stats::quartiles(&values);
            let s = stats::spread(&values);
            let bound = bounds[m.name];
            // The rule binds the metrics BENCHMARK.json declares, setup_s
            // excepted; the others are listed for the record.
            let verdict = if !m.declared {
                "not declared"
            } else if s <= bound / 3.0 {
                "steady"
            } else if s <= bound || m.name == "setup_s" {
                "within bound"
            } else {
                ok = false;
                "TOO NOISY"
            };
            let dir = if m.better == Better::Lower { "lower" } else { "higher" };
            rows.push(format!(
                "| {} | {} | {med:.4} | {q1:.4} | {q3:.4} | {:.2}% | {}% | {dir} | {verdict} |",
                w.name,
                m.name,
                s * 100.0,
                bound * 100.0
            ));
        }
    }
    println!("\n| workload | metric | median | q1 | q3 | spread (IQR/median) | bound | better | verdict |\n|---|---|---|---|---|---|---|---|---|");
    for row in rows {
        println!("{row}");
    }
    println!("\nspread check: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
