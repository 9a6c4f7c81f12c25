//! APPX2+ re-scoring from the packed prefix-sum file (ISSUE 13):
//!
//! (a) property test (`PROPTEST_CASES`-scaled): `PackedPrefix::score_one`
//!     equals `Exact2::score_one` bit for bit on random sets, over
//!     intervals before, after and straddling an object's domain and on
//!     shared segment endpoints;
//! (b) golden: APPX2+ `top_k` answers on Temp / Stock / Meme hash to the
//!     values recorded at the parent commit, where the re-scorer was the
//!     EXACT2 forest — the swap may not move a bit;
//! (c) a stream-built APPX2+ equals an in-memory-built one, file bytes
//!     and answers;
//! (d) the cost model's APPX2+ cold reads and size stay within 2× of the
//!     measured ones on Temp and Stock.

use chronorank::core::cost_model::{query_cost, size_cost, CostParams};
use chronorank::core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, Breakpoints, Exact2,
    IndexConfig, ObjectId, PackedPrefix, PackedPrefixBuilder, RankMethod, TemporalSet, TopK,
};
use chronorank::storage::{Env, StoreConfig};
use chronorank::workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, RandomWalkConfig, RandomWalkGenerator,
    StockConfig, StockGenerator, TempConfig, TempGenerator,
};
use proptest::prelude::*;

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

/// A 64-bit LCG in `[0, 1)`; every deterministic draw below comes from one.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deterministic query intervals over the domain widened by 10 % on both
/// sides, so some start before, end after, or lie wholly outside every
/// object's domain.
fn intervals(set: &TemporalSet, n: usize) -> Vec<(f64, f64)> {
    let (lo, span) = (set.t_min() - 0.1 * set.span(), 1.2 * set.span());
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            let (a, b) = (lo + span * rng.unit(), lo + span * rng.unit());
            (a.min(b), a.max(b))
        })
        .collect()
}

/// FNV-1a over every answer's length, ids and exact score bits.
fn fnv(answers: &[TopK]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for top in answers {
        eat(top.len() as u64);
        for &(id, s) in top.entries() {
            eat(id as u64);
            eat(s.to_bits());
        }
    }
    h
}

/// 64 queries per dataset: `k` cycles through 1..=32, every fourth is `avg`.
fn golden_answers(idx: &ApproxIndex, set: &TemporalSet) -> Vec<TopK> {
    intervals(set, 64)
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| {
            let agg = if i % 4 == 3 { AggKind::Avg } else { AggKind::Sum };
            idx.top_k(a, b, 1 + i % 32, agg).unwrap()
        })
        .collect()
}

fn golden_config() -> ApproxConfig {
    ApproxConfig { r: 64, kmax: 32, ..Default::default() }
}

/// Recorded by running `golden_answers` at the parent commit (PR 12),
/// where APPX2+ re-scored against the EXACT2 forest.
const GOLDEN: [(&str, u64); 3] = [
    ("temp", 0x3223_05d6_e668_6c2e),
    ("stock", 0xf57a_b79a_ce3c_a8f4),
    ("meme", 0xed02_f444_cdcb_5555),
];

#[test]
fn appx2plus_answers_match_the_parent_commit_bit_for_bit() {
    let sets = [("temp", temp()), ("stock", stock()), ("meme", meme())];
    let mut mismatches = Vec::new();
    for ((name, set), (golden_name, want)) in sets.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let idx = ApproxIndex::build(set, ApproxVariant::APPX2_PLUS, golden_config()).unwrap();
        let got = fnv(&golden_answers(&idx, set));
        if got != want {
            mismatches.push(format!("(\"{name}\", {got:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "golden hashes moved:\n{}", mismatches.join("\n"));
}

fn pages(packed: &PackedPrefix) -> Vec<Vec<u8>> {
    let file = packed.file();
    (0..file.num_blocks())
        .map(|id| {
            let mut page = vec![0u8; file.block_size()];
            file.read(id, &mut page).unwrap();
            page
        })
        .collect()
}

#[test]
fn streamed_appx2plus_equals_the_in_memory_build() {
    for set in [temp(), stock(), meme()] {
        let bp = Breakpoints::b2_with_count(&set, 64, B2Construction::Efficient).unwrap();
        let env = || Env::mem(golden_config().store);
        let mem = ApproxIndex::build_with_breakpoints(
            env(),
            &set,
            ApproxVariant::APPX2_PLUS,
            golden_config(),
            bp.clone(),
        )
        .unwrap();
        let streamed = ApproxIndex::build_streaming(
            env(),
            set.objects().iter().cloned(),
            ApproxVariant::APPX2_PLUS,
            golden_config(),
            bp,
        )
        .unwrap();
        assert_eq!(mem.size_bytes(), streamed.size_bytes());
        assert_eq!(
            pages(mem.rescorer().expect("plus")),
            pages(streamed.rescorer().expect("plus")),
            "prefix file bytes"
        );
        assert_eq!(fnv(&golden_answers(&mem, &set)), fnv(&golden_answers(&streamed, &set)));
    }
}

#[test]
fn cost_model_tracks_measured_appx2plus_reads_and_size() {
    let temp =
        TempGenerator::new(TempConfig { objects: 2000, avg_segments: 100, ..Default::default() })
            .generate_set();
    let stock =
        StockGenerator::new(StockConfig { objects: 500, days: 60, readings_per_day: 8, seed: 1 })
            .generate_set();
    let (k, queries) = (20, 40);
    for (name, set) in [("temp", temp), ("stock", stock)] {
        let cfg = ApproxConfig::default();
        let idx = ApproxIndex::build(&set, ApproxVariant::APPX2_PLUS, cfg).unwrap();
        let params = |overlap_frac| CostParams {
            m: set.num_objects() as u64,
            n_total: set.num_segments(),
            n_avg: set.num_segments() / set.num_objects() as u64,
            block: cfg.store.block_size as u64,
            r: idx.breakpoints().len() as u64,
            kmax: cfg.kmax as u64,
            k: k as u64,
            overlap_frac,
        };
        for frac in [0.02, 0.1, 0.25, 0.5, 0.9] {
            let mut reads = 0;
            for i in 0..queries {
                let a = set.t_min() + (1.0 - frac) * set.span() * (i as f64 / queries as f64);
                idx.drop_caches().unwrap();
                idx.reset_io();
                idx.top_k(a, a + frac * set.span(), k, AggKind::Sum).unwrap();
                reads += idx.io_stats().reads;
            }
            let measured = reads as f64 / queries as f64;
            let modelled = query_cost(&params(frac)).appx2_plus;
            assert!(
                measured <= 2.0 * modelled && modelled <= 2.0 * measured,
                "{name} at {frac} of the domain: measured {measured:.1} vs modelled {modelled:.1}"
            );
        }
        let measured = idx.size_bytes() as f64 / cfg.store.block_size as f64;
        let modelled = size_cost(&params(0.0)).appx2_plus;
        assert!(
            measured <= 2.0 * modelled && modelled <= 2.0 * measured,
            "{name} size: measured {measured:.0} vs modelled {modelled:.0} blocks"
        );
    }
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

    /// (a) Small blocks make runs span several pages, so the page search,
    /// the in-page search and the predecessor-on-the-previous-page case
    /// all run against the forest's answer.
    #[test]
    fn packed_score_one_equals_exact2_bit_for_bit(
        shape in 0usize..4,
        objects in 1usize..40,
        seed in 0u64..1000,
        block in 0usize..3,
        draws in 0u64..u64::MAX,
    ) {
        let set = shaped_set(shape, objects, seed);
        let oracle = Exact2::build(&set, IndexConfig::default()).unwrap();
        let store = StoreConfig { block_size: [96, 512, 4096][block], pool_capacity: 8 };
        let env = Env::mem(store);
        let mut packer = PackedPrefixBuilder::new(env.create_file("prefix").unwrap());
        for o in set.objects() {
            packer.push(o).unwrap();
        }
        let packed = packer.finish().unwrap();
        let mut scorer = packed.scorer();
        let mut rng = Lcg(draws);
        for o in set.objects() {
            let (start, end) = o.curve.domain();
            let times = o.curve.times();
            // Endpoints: shared segment boundaries, interior points, and
            // times before / after the object's own domain.
            let pick = |rng: &mut Lcg| match (rng.unit() * 5.0) as usize {
                0 => times[(rng.unit() * times.len() as f64) as usize],
                1 => start - 1.0 - 10.0 * rng.unit(),
                2 => end + 1.0 + 10.0 * rng.unit(),
                _ => start + (end - start) * rng.unit(),
            };
            for _ in 0..12 {
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                let (a, b) = (a.min(b), a.max(b));
                let want = oracle.score_one(o.id, a, b).unwrap();
                let got = scorer.score_one(o.id, a, b).unwrap();
                prop_assert_eq!(want.to_bits(), got.to_bits(), "object {} [{}, {}]", o.id, a, b);
            }
        }
        prop_assert!(packed.score_one(set.num_objects() as ObjectId, 0.0, 1.0).is_err());
    }
}
