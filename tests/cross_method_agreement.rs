//! Cross-crate integration: every exact method must agree with brute force
//! (and hence with each other) on realistic generated datasets. The
//! approximate methods' guarantees are checked in `tests/paper_claims.rs`.

use chronorank::core::{
    AggKind, Exact1, Exact2, Exact3, IndexConfig, RankMethod, TemporalSet, TopK,
};
use chronorank::workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, QueryWorkload, QueryWorkloadConfig, TempConfig,
    TempGenerator,
};

fn assert_answers_match(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    for j in 0..want.len() {
        let (wid, ws) = want.rank(j);
        let (gid, gs) = got.rank(j);
        let scale = 1.0_f64.max(ws.abs());
        assert!((ws - gs).abs() <= 1e-7 * scale, "{ctx} rank {j}: {ws} vs {gs}");
        if wid != gid {
            // Ties may permute; the scores must then be equal.
            assert!(
                want.entries().iter().any(|&(id, s)| id == gid && (s - ws).abs() <= 1e-7 * scale),
                "{ctx} rank {j}: ids {wid}/{gid} differ without a tie"
            );
        }
    }
}

fn datasets() -> Vec<(&'static str, TemporalSet)> {
    vec![
        (
            "temp",
            TempGenerator::new(TempConfig {
                objects: 120,
                avg_segments: 60,
                seed: 31,
                dropout: 0.05,
            })
            .generate_set(),
        ),
        (
            "meme",
            MemeGenerator::new(MemeConfig {
                objects: 150,
                avg_segments: 30,
                span: 2000.0,
                seed: 32,
            })
            .generate_set(),
        ),
    ]
}

#[test]
fn exact_methods_agree_with_bruteforce_everywhere() {
    for (name, set) in datasets() {
        let e1 = Exact1::build(&set, IndexConfig::default()).unwrap();
        let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
        let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
        let queries = QueryWorkload::new(
            QueryWorkloadConfig {
                count: 12,
                span_fraction: 0.25,
                k: 10,
                seed: 5,
                ..Default::default()
            },
            set.t_min(),
            set.t_max(),
        )
        .generate();
        for q in queries {
            let want = set.top_k_bruteforce(q.t1, q.t2, q.k);
            for (m, label) in [
                (&e1 as &dyn RankMethod, "EXACT1"),
                (&e2 as &dyn RankMethod, "EXACT2"),
                (&e3 as &dyn RankMethod, "EXACT3"),
            ] {
                let got = m.top_k(q.t1, q.t2, q.k, AggKind::Sum).unwrap();
                assert_answers_match(&want, &got, &format!("{label} on {name}"));
            }
        }
    }
}
