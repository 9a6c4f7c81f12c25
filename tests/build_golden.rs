//! Golden build outputs (ISSUE 14): every index file and every
//! BREAKPOINTS2 point list hashes to the value recorded at the parent
//! commit (PR 13), where each structure still had a resident constructor
//! beside its streaming one. After the two were folded into one stream
//! fill, a resident set and an owned object stream under a 16-record sort
//! budget must both still produce those bytes — under `Efficient` and
//! `Baseline` — on one Temp, one Meme and one negative-score set.

use chronorank::core::{
    b2_streaming, scan_stats, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction,
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
/// and keep their bytes, which is what their rows guard.
const GOLDEN: [(&str, [(&str, u64); 8]); 3] = [
    (
        "temp",
        [
            ("exact1", 0x5866_b428_0b27_f0fe),
            ("exact3", 0xc47c_0c2f_f6e9_4ca1),
            ("b2", 0x51e9_36ff_5130_c6df),
            ("APPX1-B", 0xf0ed_f67f_ec50_8b36),
            ("APPX2-B", 0xa45f_66e1_102d_4952),
            ("APPX1", 0xf258_4a73_1d7e_e790),
            ("APPX2", 0xaf92_d1ef_45db_8830),
            ("APPX2+", 0x5758_465d_2e8a_6d80),
        ],
    ),
    (
        "meme",
        [
            ("exact1", 0xcdb3_fa0e_aafa_0d7f),
            ("exact3", 0x58e9_3a54_0292_f58c),
            ("b2", 0x3ff0_784c_1682_fe95),
            ("APPX1-B", 0x8631_0634_7ebb_3971),
            ("APPX2-B", 0xdc03_519e_32f7_71df),
            ("APPX1", 0x568f_6ec3_d2a2_0fab),
            ("APPX2", 0xdb5d_0fa1_009e_e221),
            ("APPX2+", 0xc1de_0ad4_260e_9720),
        ],
    ),
    (
        "negative",
        [
            ("exact1", 0xd86d_c194_d4fa_e208),
            ("exact3", 0x7ee9_076c_e590_948e),
            ("b2", 0xde8e_7ac1_77d3_ef93),
            ("APPX1-B", 0x3d4c_a406_474c_dce4),
            ("APPX2-B", 0xa95e_f272_82b4_72f9),
            ("APPX1", 0x0c7c_1996_df0a_5177),
            ("APPX2", 0xa1ad_090f_1487_0dfa),
            ("APPX2+", 0x0226_f494_6787_65e0),
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
