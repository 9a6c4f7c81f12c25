//! Golden build outputs (ISSUE 14): every index file and every
//! BREAKPOINTS2 point list hashes to the value recorded at the parent
//! commit (PR 13), where each structure still had a resident constructor
//! beside its streaming one. After the two were folded into one stream
//! fill, a resident set and an owned object stream under a 16-record sort
//! budget must both still produce those bytes — under `Efficient` and
//! `Baseline` — on one Temp, one Meme and one negative-score set.

use chronorank::core::{
    b2_streaming, scan_stats, AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction,
    Breakpoints, Exact1, Exact3, IndexConfig, RankMethod, TemporalObject, TemporalSet,
};
use chronorank::storage::{Env, PagedFile, StoreConfig};
use chronorank::workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, RandomWalkConfig, RandomWalkGenerator, TempConfig,
    TempGenerator,
};
use std::path::{Path, PathBuf};

const STORE: StoreConfig = StoreConfig { block_size: 1024, pool_capacity: 32 };
/// Sixteen of the largest sort record: every streamed build merges
/// hundreds of runs.
const TINY_SORT_BYTES: u64 = 16 * 44;
const FIXED_EPS: [f64; 3] = [0.05, 0.01, 0.002];
const FIT_R: [usize; 2] = [16, 64];

fn sets() -> [(&'static str, TemporalSet); 3] {
    let temp =
        TempGenerator::new(TempConfig { objects: 300, avg_segments: 60, seed: 42, dropout: 0.02 });
    let meme =
        MemeGenerator::new(MemeConfig { objects: 400, avg_segments: 40, span: 10_000.0, seed: 42 });
    let negative = RandomWalkGenerator::new(RandomWalkConfig {
        objects: 60,
        segments: 80,
        volatility: 2.0,
        allow_negative: true,
        seed: 21,
    });
    [
        ("temp", temp.generate_set()),
        ("meme", meme.generate_set()),
        ("negative", negative.generate_set()),
    ]
}

/// FNV-1a, fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_pages(&mut self, file: &PagedFile) {
        let mut page = vec![0u8; file.block_size()];
        self.eat(&file.num_blocks().to_le_bytes());
        for id in 0..file.num_blocks() {
            file.read(id, &mut page).unwrap();
            self.eat(&page);
        }
    }
}

fn owned(set: &TemporalSet) -> impl Iterator<Item = TemporalObject> + '_ {
    set.objects().iter().cloned()
}

/// A flushed tree file page for page, then the index's side metadata.
fn tree_hash(file: &PagedFile, meta: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat_pages(file);
    h.eat(meta);
    h.0
}

fn exact1_hash(idx: &Exact1) -> u64 {
    idx.flush().unwrap();
    tree_hash(idx.tree_file(), &idx.meta_bytes())
}

fn exact3_hash(idx: &Exact3) -> u64 {
    idx.flush().unwrap();
    tree_hash(idx.tree_file(), &idx.meta_bytes())
}

/// Every fixed-ε sweep under both constructions, then every count fit —
/// the resident sweeper when `streamed` is false, else `b2_streaming` at
/// the same ε (for a fit: the ε the resident fit chose).
fn b2_hash(set: &TemporalSet, streamed: bool) -> u64 {
    let mut h = Fnv::new();
    let stats = scan_stats(owned(set));
    let sweep = |eps: f64, construction: B2Construction| {
        if !streamed {
            return Breakpoints::b2_with_eps(set, eps, construction).unwrap();
        }
        let env = Env::mem(STORE);
        b2_streaming(&env, owned(set), &stats, eps, construction, TINY_SORT_BYTES)
            .unwrap()
            .breakpoints
    };
    for construction in [B2Construction::Efficient, B2Construction::Baseline] {
        for eps in FIXED_EPS {
            h.eat(&sweep(eps, construction).to_bytes());
        }
        for r in FIT_R {
            let fitted = Breakpoints::b2_with_count(set, r, construction).unwrap();
            let bp = if streamed { sweep(fitted.eps(), construction) } else { fitted };
            h.eat(&bp.to_bytes());
        }
    }
    h.0
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("chronorank-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Names and bytes of every file an index left in `dir`, in name order.
fn dir_hash(dir: &Path) -> u64 {
    let mut names: Vec<_> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    names.sort();
    let mut h = Fnv::new();
    for name in names {
        h.eat(name.to_string_lossy().as_bytes());
        h.eat(&std::fs::read(dir.join(&name)).unwrap());
    }
    h.0
}

fn appx_hash(set: &TemporalSet, tag: &str, variant: ApproxVariant, streamed: bool) -> u64 {
    let cfg = ApproxConfig { r: 24, kmax: 16, store: STORE };
    let bp = match variant.breakpoints {
        chronorank::core::BreakpointsKind::B1 => Breakpoints::b1_with_count(set, cfg.r),
        chronorank::core::BreakpointsKind::B2 => {
            Breakpoints::b2_with_count(set, cfg.r, B2Construction::Efficient)
        }
    }
    .unwrap();
    let dir = tmpdir(&format!("{tag}-{}-{streamed}", variant.name()));
    let env = Env::dir(&dir, STORE).unwrap();
    let idx = if streamed {
        ApproxIndex::build_streaming(env, owned(set), variant, cfg, bp)
    } else {
        ApproxIndex::build_with_breakpoints(env, set, variant, cfg, bp)
    }
    .unwrap();
    idx.drop_caches().unwrap();
    let h = dir_hash(&dir);
    drop(idx);
    std::fs::remove_dir_all(&dir).ok();
    h
}

/// `(structure, resident hash, streamed hash)` for one dataset.
fn build_all(tag: &str, set: &TemporalSet) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let e1 = Exact1::build(set, IndexConfig { store: STORE }).unwrap();
    let e1s = Exact1::build_streaming(Env::mem(STORE), owned(set), TINY_SORT_BYTES).unwrap();
    out.push(("exact1".to_string(), exact1_hash(&e1), exact1_hash(&e1s)));
    let e3 = Exact3::build(set, IndexConfig { store: STORE }).unwrap();
    let e3s = Exact3::build_streaming(Env::mem(STORE), STORE, owned(set), TINY_SORT_BYTES).unwrap();
    out.push(("exact3".to_string(), exact3_hash(&e3), exact3_hash(&e3s)));
    out.push(("b2".to_string(), b2_hash(set, false), b2_hash(set, true)));
    for variant in ApproxVariant::ALL {
        out.push((
            variant.name().to_string(),
            appx_hash(set, tag, variant, false),
            appx_hash(set, tag, variant, true),
        ));
    }
    out
}

/// Recorded by running `build_all` at the parent commit (PR 13); resident
/// and streamed agreed there too. The `"exact3"` rows were re-recorded at
/// PR 18, whose change *is* the interval tree's leaf layout (`hi`-packed
/// runs) — temp and meme moved; negative did not, because a random walk's
/// shared tick grid makes `hi` order equal `lo` order. `meme/exact3` was
/// re-recorded again when the loader began sending outlier-long segments
/// to runs of their own length band; temp and negative have no outliers
/// and keep their bytes, which is what their rows guard. All three
/// `"exact3"` rows were re-recorded when the tree's leaves began packing
/// their rows (each lane stored as its XOR against the leaf's base, in as
/// few bytes as the leaf needs) and EXACT3's payload became
/// `v0 | v1 | prefix | obj`: every leaf and meta page changed format, and
/// resident and streamed builds still write the same bytes. `temp/exact3`
/// and `meme/exact3` were re-recorded when the loader began cutting each
/// entry once: a run counts its leaves at its stream's last entries per
/// leaf instead of by a `lo`-order cut, so runs close at other entries,
/// and a close writes every leaf its `hi` cut fills. `negative/exact3`
/// kept its bytes: where `hi` order is `lo` order, the leaf a close leaves
/// open holds the run's newest entries, which stay, as before. The fifteen APPX
/// rows were re-recorded when QUERY1 and QUERY2 began packing
/// `⌊B / (12·kmax)⌋` lists into each block of their lists files and QUERY1
/// replaced its per-left-endpoint sub-trees with one breakpoint directory:
/// the same lists hold the same entries in fewer blocks and files, and
/// `every_appx_answer_matches_the_recorded_answers_bit_for_bit` shows no
/// answer moved.
const GOLDEN: [(&str, [(&str, u64); 8]); 3] = [
    (
        "temp",
        [
            ("exact1", 0x5866_b428_0b27_f0fe),
            ("exact3", 0x2baa_530a_7971_c644),
            ("b2", 0x51e9_36ff_5130_c6df),
            ("APPX1-B", 0x7ff8_80b1_79f5_17e3),
            ("APPX2-B", 0x8c1d_8fe1_85dc_8352),
            ("APPX1", 0x8919_a7d0_ec71_01da),
            ("APPX2", 0x59c5_f0ca_d736_f330),
            ("APPX2+", 0x27cf_b03d_d6fe_1880),
        ],
    ),
    (
        "meme",
        [
            ("exact1", 0xcdb3_fa0e_aafa_0d7f),
            ("exact3", 0x6caf_0cde_c4d3_07de),
            ("b2", 0x3ff0_784c_1682_fe95),
            ("APPX1-B", 0x6c6b_242b_c126_a6fa),
            ("APPX2-B", 0x8ca7_23a4_9044_53df),
            ("APPX1", 0x6ea5_a47d_7b59_2b6d),
            ("APPX2", 0x6b84_ba9c_599c_6921),
            ("APPX2+", 0xc711_59ce_c1bb_6020),
        ],
    ),
    (
        "negative",
        [
            ("exact1", 0xd86d_c194_d4fa_e208),
            ("exact3", 0x919f_f1f9_d6ae_744a),
            ("b2", 0xde8e_7ac1_77d3_ef93),
            ("APPX1-B", 0xd017_6181_84c2_3642),
            ("APPX2-B", 0xb560_2819_da84_f6f9),
            ("APPX1", 0x9dd7_5bb1_b22a_d999),
            ("APPX2", 0xd8cf_159f_4bcf_43fa),
            ("APPX2+", 0x918a_6a71_7bdd_bbe0),
        ],
    ),
];

#[test]
fn every_build_output_matches_the_parent_commit_byte_for_byte() {
    let mut moved = Vec::new();
    for ((tag, set), (golden_tag, golden)) in sets().iter().zip(GOLDEN) {
        assert_eq!(*tag, golden_tag);
        if *tag == "negative" {
            assert!(set.has_negative(), "the fixture must actually cross zero");
        }
        for ((name, resident, streamed), (golden_name, want)) in
            build_all(tag, set).into_iter().zip(golden)
        {
            assert_eq!(name, golden_name);
            if resident != want || streamed != want {
                moved.push(format!(
                    "{tag}/{name}: resident {resident:#018x} streamed {streamed:#018x} golden {want:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "golden hashes moved:\n{}", moved.join("\n"));
}

/// Query endpoints: a fixed grid over the set's domain (both sides of it
/// included), every other breakpoint, and the midpoint after each of those.
fn query_points(set: &TemporalSet, bp: &Breakpoints) -> Vec<f64> {
    let (lo, span) = (set.t_min(), set.t_max() - set.t_min());
    let mut points: Vec<f64> =
        [-0.25, 0.0, 0.01, 0.1, 0.25, 0.333, 0.5, 0.62, 0.9, 0.999, 1.0, 1.5]
            .iter()
            .map(|f| lo + f * span)
            .collect();
    for w in bp.points().windows(2).step_by(2) {
        points.push(w[0]);
        points.push(0.5 * (w[0] + w[1]));
    }
    points.sort_by(f64::total_cmp);
    points
}

/// Every APPX variant's answers — ids and score bits — at
/// `k ∈ {1, kmax/2, kmax}` over every `t1 ≤ t2` pair of `query_points`.
fn appx_answers_hash(set: &TemporalSet, variant: ApproxVariant) -> u64 {
    let cfg = ApproxConfig { r: 24, kmax: 16, store: STORE };
    let idx = ApproxIndex::build(set, variant, cfg).unwrap();
    let points = query_points(set, idx.breakpoints());
    let mut h = Fnv::new();
    for k in [1, cfg.kmax / 2, cfg.kmax] {
        for (i, &t1) in points.iter().enumerate() {
            for &t2 in &points[i..] {
                let top = idx.top_k(t1, t2, k, AggKind::Sum).unwrap();
                h.eat(&(top.len() as u32).to_le_bytes());
                for &(id, score) in top.entries() {
                    h.eat(&id.to_le_bytes());
                    h.eat(&score.to_bits().to_le_bytes());
                }
            }
        }
    }
    h.0
}

/// Recorded at the commit before QUERY1 and QUERY2 packed several lists
/// into a block and QUERY1 gave up its per-left-endpoint sub-trees: a
/// change of file layout must not move a single answer.
const GOLDEN_ANSWERS: [(&str, [(&str, u64); 5]); 3] = [
    (
        "temp",
        [
            ("APPX1-B", 0x1537_2827_34d8_c475),
            ("APPX2-B", 0x1a4a_f858_2410_16a3),
            ("APPX1", 0x8eab_eb49_8e55_dab2),
            ("APPX2", 0xc9d3_d92f_f02e_74d4),
            ("APPX2+", 0x1155_79c0_d7c2_6bff),
        ],
    ),
    (
        "meme",
        [
            ("APPX1-B", 0x05fa_ce85_9c9b_9a0c),
            ("APPX2-B", 0x99a7_96f0_d33f_4909),
            ("APPX1", 0x73ea_35cf_afa2_b82b),
            ("APPX2", 0x2a71_37d8_fec1_996a),
            ("APPX2+", 0xbbad_ef56_5f15_2395),
        ],
    ),
    (
        "negative",
        [
            ("APPX1-B", 0x4b18_5389_4f6a_7368),
            ("APPX2-B", 0x55c6_bcdc_eaba_b38b),
            ("APPX1", 0x2f21_db1e_1ada_0e01),
            ("APPX2", 0x038e_6cc0_fa6e_a2eb),
            ("APPX2+", 0xeaf0_53e1_5d8e_fdac),
        ],
    ),
];

#[test]
fn every_appx_answer_matches_the_recorded_answers_bit_for_bit() {
    let mut moved = Vec::new();
    for ((tag, set), (golden_tag, golden)) in sets().iter().zip(GOLDEN_ANSWERS) {
        assert_eq!(*tag, golden_tag);
        for (variant, (golden_name, want)) in ApproxVariant::ALL.into_iter().zip(golden) {
            assert_eq!(variant.name(), golden_name);
            let got = appx_answers_hash(set, variant);
            if got != want {
                moved.push(format!("{tag}/{golden_name}: {got:#018x} golden {want:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "answer hashes moved:\n{}", moved.join("\n"));
}
