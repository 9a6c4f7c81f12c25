//! BREAKPOINTS2 count-fit acceptance (ISSUE 12):
//!
//! (a) golden: `b2_with_eps(...).points()` bits on Temp / Stock / Meme
//!     (plus a negative-score random walk) × three ε × both constructions
//!     hash to the values recorded at the parent commit — the fit may pick
//!     a different ε, the sweep at a given ε may not move a bit;
//! (b) property test (`PROPTEST_CASES`-scaled): the fit is deterministic,
//!     stays under the sweep cap, and `Efficient ≡ Baseline` at the fitted
//!     ε with the gap property holding;
//! (c) the fit lands within the sweep cap at r ∈ {32, 128} on the three
//!     paper generators.

use chronorank::core::{B2Construction, Breakpoints, TemporalSet, B2_FIT_MAX_SWEEPS};
use chronorank::workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, RandomWalkConfig, RandomWalkGenerator,
    StockConfig, StockGenerator, TempConfig, TempGenerator,
};
use proptest::prelude::*;

const BOTH: [B2Construction; 2] = [B2Construction::Baseline, B2Construction::Efficient];

fn temp() -> TemporalSet {
    TempGenerator::new(TempConfig { objects: 300, avg_segments: 60, seed: 42, dropout: 0.02 })
        .generate_set()
}

fn stock() -> TemporalSet {
    StockGenerator::new(StockConfig { objects: 200, days: 12, readings_per_day: 8, seed: 42 })
        .generate_set()
}

fn meme() -> TemporalSet {
    MemeGenerator::new(MemeConfig { objects: 400, avg_segments: 40, span: 10_000.0, seed: 42 })
        .generate_set()
}

fn negative_walk() -> TemporalSet {
    RandomWalkGenerator::new(RandomWalkConfig {
        objects: 60,
        segments: 80,
        volatility: 1.0,
        allow_negative: true,
        seed: 42,
    })
    .generate_set()
}

/// FNV-1a over the count and every breakpoint's exact bits.
fn fnv(points: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(points.len() as u64);
    for p in points {
        eat(p.to_bits());
    }
    h
}

/// Recorded by running this test at the parent commit (PR 11). One hash
/// per (dataset, ε); Baseline and Efficient must both produce it.
const GOLDEN: [(&str, f64, u64); 12] = [
    ("temp", 0.002, 0x1785_fc30_6305_5a73),
    ("temp", 0.0005, 0x6ddf_de98_bb5b_0de4),
    ("temp", 0.00008, 0x4ee0_5489_035b_b697),
    ("stock", 0.05, 0x260c_83c3_e59d_2c63),
    ("stock", 0.004, 0x238f_501f_7889_cf09),
    ("stock", 0.0005, 0x51b9_5218_0fbc_2273),
    ("meme", 0.05, 0xa3fa_188a_699a_c29b),
    ("meme", 0.004, 0xeb31_45f3_fb9d_029b),
    ("meme", 0.0005, 0x2b25_3bf3_63ce_d135),
    ("negative_walk", 0.02, 0x7500_0b58_7d7f_1b47),
    ("negative_walk", 0.004, 0x3cab_101b_9e28_19f1),
    ("negative_walk", 0.0005, 0xcbeb_1e28_d695_422d),
];

#[test]
fn b2_with_eps_points_match_parent_commit_bit_for_bit() {
    let sets = [
        ("temp", temp()),
        ("stock", stock()),
        ("meme", meme()),
        ("negative_walk", negative_walk()),
    ];
    let mut mismatches = Vec::new();
    for (name, eps, want) in GOLDEN {
        let set = &sets.iter().find(|(n, _)| *n == name).expect("known dataset").1;
        for construction in BOTH {
            let bp = Breakpoints::b2_with_eps(set, eps, construction).unwrap();
            let got = fnv(bp.points());
            if got != want {
                mismatches.push(format!(
                    "(\"{name}\", {eps}, {got:#018x}) {construction:?} r={}",
                    bp.len()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "golden hashes moved:\n{}", mismatches.join("\n"));
}

/// Lemma 2's precondition: no object holds more than `τ = εM` between two
/// consecutive breakpoints.
fn assert_gap_property(set: &TemporalSet, bp: &Breakpoints) {
    let tau = bp.eps() * bp.mass();
    for w in bp.points().windows(2) {
        for o in set.objects() {
            let held = o.curve.abs_integral(w[0], w[1]);
            assert!(
                held <= tau * (1.0 + 1e-6),
                "gap [{}, {}]: object {} holds {held} > τ = {tau}",
                w[0],
                w[1],
                o.id
            );
        }
    }
}

fn points_bits(bp: &Breakpoints) -> Vec<u64> {
    bp.points().iter().map(|p| p.to_bits()).collect()
}

/// One of the four dataset shapes, small enough for a property case.
fn shaped_set(shape: usize, objects: usize, seed: u64) -> TemporalSet {
    match shape % 4 {
        0 => TempGenerator::new(TempConfig { objects, avg_segments: 30, seed, dropout: 0.02 })
            .generate_set(),
        1 => StockGenerator::new(StockConfig { objects, days: 6, readings_per_day: 6, seed })
            .generate_set(),
        2 => MemeGenerator::new(MemeConfig { objects, avg_segments: 30, span: 1_000.0, seed })
            .generate_set(),
        _ => RandomWalkGenerator::new(RandomWalkConfig {
            objects,
            segments: 30,
            volatility: 1.0,
            allow_negative: true,
            seed,
        })
        .generate_set(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (b) The fit is a pure function of `(set, r, construction)`, stays
    /// under the sweep cap, and what it returns is a genuine B2 set: the
    /// other construction reproduces it at the fitted ε and the gap
    /// property holds.
    #[test]
    fn fit_is_deterministic_capped_and_a_genuine_b2_set(
        shape in 0usize..4,
        objects in 1usize..60,
        seed in 0u64..1000,
        r in 2usize..200,
    ) {
        let set = shaped_set(shape, objects, seed);
        let (fit, stats) =
            Breakpoints::b2_with_count_stats(&set, r, B2Construction::Efficient).unwrap();
        let (again, stats_again) =
            Breakpoints::b2_with_count_stats(&set, r, B2Construction::Efficient).unwrap();
        prop_assert_eq!(fit.eps().to_bits(), again.eps().to_bits());
        prop_assert_eq!(points_bits(&fit), points_bits(&again));
        prop_assert_eq!(stats, stats_again);
        prop_assert!(stats.sweeps >= 1 && stats.sweeps <= B2_FIT_MAX_SWEEPS, "{:?}", stats);
        prop_assert!(stats.aborted < stats.sweeps, "{:?}", stats);
        prop_assert!(fit.eps() <= 1.0 / (r as f64 - 1.0), "ε above B1's at the same r");

        for construction in BOTH {
            let at_eps = Breakpoints::b2_with_eps(&set, fit.eps(), construction).unwrap();
            prop_assert_eq!(points_bits(&fit), points_bits(&at_eps), "{:?}", construction);
        }
        let (baseline, _) =
            Breakpoints::b2_with_count_stats(&set, r, B2Construction::Baseline).unwrap();
        prop_assert_eq!(points_bits(&fit), points_bits(&baseline));
        assert_gap_property(&set, &fit);
    }
}

/// (c) On the paper's three generators the fit reaches the band around
/// `r` well inside the sweep cap.
#[test]
fn fit_reaches_the_band_within_the_sweep_cap_on_the_paper_generators() {
    for (name, set) in [("temp", temp()), ("stock", stock()), ("meme", meme())] {
        for r in [32usize, 128] {
            for construction in BOTH {
                let (bp, stats) = Breakpoints::b2_with_count_stats(&set, r, construction).unwrap();
                let ctx = format!("{name} r={r} {construction:?}: len {} {stats:?}", bp.len());
                assert!(stats.sweeps <= B2_FIT_MAX_SWEEPS, "{ctx}");
                assert!(bp.len().abs_diff(r) <= (r / 64).max(1), "{ctx}");
                assert_gap_property(&set, &bp);
            }
        }
    }
}
