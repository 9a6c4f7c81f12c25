//! Out-of-core BREAKPOINTS2 for paper-scale builds: the segment source that
//! lets [`crate::breakpoints`]' one sweep run without a resident dataset.
//!
//! At the paper's Meme scale (`m ≈ 1.5·10⁶` objects, `N ≈ 10⁸` segments)
//! the curves cannot stay in memory for the sweep, so:
//!
//! 1. [`scan_stats`] makes one pass over the generator to obtain the exact
//!    quantities [`crate::TemporalSet`] reports (`M`, `t_min`, `t_max`, …)
//!    — the set's are this scan over its own objects — so the threshold
//!    `τ = εM` matches the resident construction exactly;
//! 2. [`b2_streaming`] pushes every `|g_i|` segment through an
//!    [`ExternalSorter`] under an explicit byte budget and feeds the sorted
//!    run merge to `B2Sweeper::sweep` — the same sweep and `commit` a
//!    resident [`crate::TemporalSet`] goes through, so the same breakpoints
//!    bit for bit (the tests in this module and `tests/build_golden.rs`
//!    assert equality, mixed-sign inputs included).
//!
//! The sweep's own state is `O(m)`, 40 bytes of it the one segment it keeps
//! per object: whenever an object is re-based at a breakpoint `b`, every
//! segment consumed for it starts at or before `b` (segments arrive in `t0`
//! order and a breakpoint is only committed once the next segment starts
//! after it), and an object's segments tile its domain, so only the last
//! one consumed can still end after `b`. Beyond that state, memory is the
//! sorter's budgeted run and the sort file's pool — nothing grows with `N`.

use crate::breakpoints::{
    abs_curve, check_eps, B2Construction, B2Sweeper, Breakpoints, BreakpointsKind,
};
use crate::error::Result;
use crate::object::TemporalObject;
use chronorank_curve::Segment;
use chronorank_index::ExternalSorter;
use chronorank_storage::Env;
use std::borrow::Borrow;

/// Dataset statistics gathered by [`scan_stats`]. A [`crate::TemporalSet`]
/// holds the scan of its own objects, so thresholds derived from either
/// (`τ = εM`) are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Number of objects `m`.
    pub num_objects: usize,
    /// Total number of segments `N`.
    pub num_segments: u64,
    /// Left edge of the global time domain.
    pub t_min: f64,
    /// Right edge of the global time domain (`T`).
    pub t_max: f64,
    /// Total absolute mass `M = Σ_i ∫|g_i|`.
    pub total_mass: f64,
    /// Whether any curve dips below zero (§4 negative scores).
    pub has_negative: bool,
    /// Longest single segment duration (EXACT1's scan-back bound `Δmax`).
    pub max_segment_duration: f64,
}

/// One pass over an object stream, owned or borrowed, computing its
/// [`StreamStats`].
pub fn scan_stats<I>(objects: I) -> StreamStats
where
    I: IntoIterator,
    I::Item: Borrow<TemporalObject>,
{
    let mut s = StreamStats {
        num_objects: 0,
        num_segments: 0,
        t_min: f64::INFINITY,
        t_max: f64::NEG_INFINITY,
        total_mass: 0.0,
        has_negative: false,
        max_segment_duration: 0.0,
    };
    for o in objects {
        let c = &Borrow::<TemporalObject>::borrow(&o).curve;
        s.t_min = s.t_min.min(c.start());
        s.t_max = s.t_max.max(c.end());
        s.num_segments += c.num_segments() as u64;
        s.total_mass += c.total_abs();
        s.has_negative |= c.min_value() < 0.0;
        s.max_segment_duration = s.max_segment_duration.max(c.max_segment_duration());
        s.num_objects += 1;
    }
    s
}

/// Result of a streaming BREAKPOINTS2 construction.
#[derive(Debug)]
pub struct StreamedB2 {
    /// The constructed breakpoint set (same points as the in-memory sweep).
    pub breakpoints: Breakpoints,
    /// High-water mark of segments the sweep held: one per object that has
    /// consumed a segment not yet found ended by a re-base, so at most `m`.
    /// `paper_bench paperscale` gates that bound on every rung.
    pub peak_pending_segments: u64,
}

/// External-sort record: `t0 | obj | t1 | v0 | v1` (little-endian), keyed
/// by the segment's left endpoint — the order the paper's queue `Q`
/// consumes.
const B2_REC_LEN: usize = 8 + 4 + 8 + 8 + 8;

fn encode_b2(rec: &mut [u8; B2_REC_LEN], obj: u32, seg: &Segment) {
    rec[0..8].copy_from_slice(&seg.t0.to_le_bytes());
    rec[8..12].copy_from_slice(&obj.to_le_bytes());
    rec[12..20].copy_from_slice(&seg.t1.to_le_bytes());
    rec[20..28].copy_from_slice(&seg.v0.to_le_bytes());
    rec[28..36].copy_from_slice(&seg.v1.to_le_bytes());
}

fn decode_b2(rec: &[u8; B2_REC_LEN]) -> (u32, Segment) {
    let f = |at: usize| f64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
    let obj = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
    (obj, Segment::new(f(0), f(20), f(12), f(28)))
}

/// Streaming BREAKPOINTS2 (§3.1) over an object stream, owned or borrowed:
/// externally sorts all `|g_i|` segments by left endpoint in runs of
/// `sort_budget_bytes`, then runs the sweep over the merged runs, holding
/// one segment per object. Produces the same breakpoints as
/// [`Breakpoints::b2_with_eps`] on the materialized set (`stats` must come from [`scan_stats`] over the
/// same stream).
pub fn b2_streaming<I>(
    env: &Env,
    objects: I,
    stats: &StreamStats,
    eps: f64,
    construction: B2Construction,
    sort_budget_bytes: u64,
) -> Result<StreamedB2>
where
    I: IntoIterator,
    I::Item: Borrow<TemporalObject>,
{
    check_eps(eps)?;
    // Externally sort all |g| segments by t0 (the paper's queue Q). Pushed
    // object-major in id order, so equal-t0 ties merge back in the same
    // order the resident stable sort produces.
    let sort_file = env.create_scratch("b2_stream_sort")?;
    let mut sorter =
        ExternalSorter::with_byte_budget(sort_file, B2_REC_LEN, sort_budget_bytes, |rec| {
            f64::from_le_bytes(rec[..8].try_into().expect("8 bytes"))
        })?;
    let mut rec = [0u8; B2_REC_LEN];
    for o in objects {
        let o: &TemporalObject = o.borrow();
        // §4 negative scores: sweep |g| — same global rule as the resident
        // AbsCurves (all curves pass through abs_curve).
        let abs = if stats.has_negative { Some(abs_curve(&o.curve)?) } else { None };
        for seg in abs.as_ref().unwrap_or(&o.curve).segments() {
            encode_b2(&mut rec, o.id, &seg);
            sorter.push(&rec)?;
        }
    }
    let mut stream = sorter.finish()?;
    let segments = std::iter::from_fn(|| match stream.next_into(&mut rec) {
        Ok(true) => Some(Ok(decode_b2(&rec))),
        Ok(false) => None,
        Err(e) => Some(Err(e.into())),
    });

    let domain = (stats.t_min, stats.t_max);
    let tau = eps * stats.total_mass;
    let (sweep, peak_pending_segments) =
        B2Sweeper::sweep(stats.num_objects, construction, domain, tau, usize::MAX, segments)?;
    let points = sweep.done();
    Ok(StreamedB2 {
        breakpoints: Breakpoints::from_sweep(BreakpointsKind::B2, points, eps, stats.total_mass),
        peak_pending_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TemporalSet;
    use crate::test_support::{small_set, wavy_set};
    use chronorank_curve::PiecewiseLinear;
    use chronorank_storage::{Env, StoreConfig};

    fn stream_env() -> Env {
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 16 })
    }

    fn assert_streaming_matches(
        set: &TemporalSet,
        eps: f64,
        construction: B2Construction,
    ) -> StreamedB2 {
        let expect = Breakpoints::b2_with_eps(set, eps, construction).unwrap();
        let stats = scan_stats(set.objects().iter().cloned());
        let got = b2_streaming(
            &stream_env(),
            set.objects().iter().cloned(),
            &stats,
            eps,
            construction,
            // Tiny budget: force multi-run external merges.
            4 * B2_REC_LEN as u64 * 16,
        )
        .unwrap();
        assert_eq!(
            got.breakpoints.points(),
            expect.points(),
            "eps={eps} {construction:?}: streaming and in-memory sweeps diverged"
        );
        assert_eq!(got.breakpoints.eps(), expect.eps());
        assert_eq!(got.breakpoints.mass(), expect.mass());
        got
    }

    #[test]
    fn stats_match_materialized_set() {
        let set = small_set();
        let s = scan_stats(set.objects().iter().cloned());
        assert_eq!(s.num_objects, set.num_objects());
        assert_eq!(s.num_segments, set.num_segments());
        assert_eq!(s.t_min, set.t_min());
        assert_eq!(s.t_max, set.t_max());
        assert_eq!(s.total_mass.to_bits(), set.total_mass().to_bits(), "M must be bit-identical");
        assert_eq!(s.has_negative, set.has_negative());
        assert_eq!(s.max_segment_duration, set.max_segment_duration());
    }

    #[test]
    fn streaming_matches_in_memory_sweep() {
        let set = small_set();
        for &eps in &[0.5, 0.1, 0.03, 0.01, 0.003] {
            assert_streaming_matches(&set, eps, B2Construction::Efficient);
            assert_streaming_matches(&set, eps, B2Construction::Baseline);
        }
    }

    #[test]
    fn streaming_matches_on_negative_scores() {
        let c0 = PiecewiseLinear::from_points(&[(0.0, -4.0), (10.0, 4.0), (20.0, -4.0)]).unwrap();
        let c1 = PiecewiseLinear::from_points(&[(0.0, 1.0), (20.0, 1.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c0, c1]).unwrap();
        assert!(set.has_negative());
        for &eps in &[0.3, 0.1, 0.02] {
            assert_streaming_matches(&set, eps, B2Construction::Efficient);
        }
    }

    #[test]
    fn streaming_handles_multi_crossing_segments() {
        // One long flat segment the sweep must cut repeatedly from the
        // dangerous-object heap (pending window = a single segment).
        let c = PiecewiseLinear::from_points(&[(0.0, 10.0), (100.0, 10.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        assert_streaming_matches(&set, 0.1, B2Construction::Efficient);
    }

    #[test]
    fn streaming_degenerates_like_in_memory() {
        let c = PiecewiseLinear::from_points(&[(0.0, 0.0), (5.0, 0.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        assert_streaming_matches(&set, 0.1, B2Construction::Efficient);
    }

    #[test]
    fn streaming_matches_at_the_eps_a_count_fit_chooses() {
        let set = wavy_set(20, 25);
        for construction in [B2Construction::Efficient, B2Construction::Baseline] {
            for r in [6, 12, 30] {
                let fitted = Breakpoints::b2_with_count(&set, r, construction).unwrap();
                assert_streaming_matches(&set, fitted.eps(), construction);
            }
        }
    }

    /// Every file a build left in `dir`, by name.
    fn index_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .map(|name| (name.clone(), std::fs::read(dir.join(&name)).unwrap()))
            .collect()
    }

    /// Budget invariance: what a build writes depends neither on the sort
    /// run length nor on whether its objects arrive borrowed or owned.
    #[test]
    fn index_files_do_not_depend_on_the_budget_or_the_stream() {
        use crate::appx::{ApproxConfig, ApproxIndex, ApproxVariant};
        use crate::exact1::Exact1;
        use crate::exact3::Exact3;
        use crate::topk::RankMethod;

        let set = wavy_set(40, 30);
        let store = StoreConfig { block_size: 256, pool_capacity: 16 };
        let bp = Breakpoints::b2_with_eps(&set, 0.02, B2Construction::Efficient).unwrap();
        let cfg = ApproxConfig { kmax: 4, store, ..Default::default() };
        let root = std::env::temp_dir().join(format!("chronorank-budget-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        // One run holds all 1200 segments; sixteen 44-byte records make 75.
        let budgets = [("one-run", u64::MAX), ("tiny", 16 * 44)];
        let mut builds = Vec::new();
        for (tag, budget) in budgets {
            for owned in [false, true] {
                let dir = root.join(format!("{tag}-{owned}"));
                let env = |name: &str| Env::dir(dir.join(name), store).unwrap();
                let objs = || set.objects().iter().cloned();
                let flush = |m: &dyn RankMethod| m.drop_caches().unwrap();
                if owned {
                    flush(&Exact1::build_streaming(env("e1"), objs(), budget).unwrap());
                    flush(&Exact3::build_streaming(env("e3"), store, objs(), budget).unwrap());
                } else {
                    let objs = set.objects();
                    flush(&Exact1::build_streaming(env("e1"), objs, budget).unwrap());
                    flush(&Exact3::build_streaming(env("e3"), store, objs, budget).unwrap());
                }
                // QUERY1 lists, QUERY2 lists and the APPX2+ prefix file.
                for v in [ApproxVariant::APPX1, ApproxVariant::APPX2_PLUS] {
                    let (env, bp) = (env(v.name()), bp.clone());
                    let idx = if owned {
                        ApproxIndex::build_streaming(env, objs(), v, cfg, bp)
                    } else {
                        ApproxIndex::build_streaming(env, set.objects(), v, cfg, bp)
                    };
                    flush(&idx.unwrap());
                }
                let files: Vec<_> = ["e1", "e3", "APPX1", "APPX2+"]
                    .iter()
                    .map(|name| index_files(&dir.join(name)))
                    .collect();
                builds.push((format!("{tag}, owned = {owned}"), files));
            }
        }
        let (first, want) = &builds[0];
        assert!(want.iter().all(|files| !files.is_empty()));
        assert!(want[3].contains_key("appx_prefix") && want[2].contains_key("c0_q1_lists"));
        for (label, got) in &builds[1..] {
            assert!(got == want, "index files differ between ({first}) and ({label})");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// Sort scratch goes away with the sorted stream: a directory-backed
    /// build leaves its index files and nothing else.
    #[test]
    fn dir_builds_leave_no_sort_scratch_behind() {
        use crate::exact1::Exact1;
        use crate::exact3::Exact3;

        let set = wavy_set(12, 20);
        let store = StoreConfig { block_size: 256, pool_capacity: 16 };
        let root = std::env::temp_dir().join(format!("chronorank-unlink-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let names = |dir: &str| index_files(&root.join(dir)).into_keys().collect::<Vec<_>>();
        let env = |dir: &str| Env::dir(root.join(dir), store).unwrap();
        let budget = 16 * 44; // several runs each

        let e1 = Exact1::build_streaming(env("e1"), set.objects(), budget).unwrap();
        let e3 = Exact3::build_streaming(env("e3"), store, set.objects(), budget).unwrap();
        assert_eq!(names("e1"), ["exact1_tree"]);
        assert_eq!(names("e3"), ["exact3_tree_gen0"]);
        drop((e1, e3));

        let stats = scan_stats(set.objects());
        let b2 = env("b2");
        b2_streaming(&b2, set.objects(), &stats, 0.02, B2Construction::Efficient, budget).unwrap();
        assert_eq!(names("b2"), [] as [&str; 0]);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Short-lived objects with staggered lifespans, the shape of the Meme
    /// data: at any instant most of them have already ended.
    fn staggered_set(objects: usize) -> TemporalSet {
        let curve = |i: usize| {
            let (start, segments) = (3.0 * i as f64, 2 + i % 5);
            let point = |j: usize| (start + 1.5 * j as f64, 1.0 + ((i * 7 + j * 13) % 11) as f64);
            PiecewiseLinear::from_points(&(0..=segments).map(point).collect::<Vec<_>>()).unwrap()
        };
        TemporalSet::from_curves((0..objects).map(curve).collect()).unwrap()
    }

    #[test]
    fn sweep_holds_at_most_one_segment_per_object() {
        for set in [small_set(), wavy_set(40, 30), staggered_set(200)] {
            let m = set.num_objects() as u64;
            for construction in [B2Construction::Efficient, B2Construction::Baseline] {
                for eps in [0.2, 0.01, 0.0005] {
                    let peak =
                        assert_streaming_matches(&set, eps, construction).peak_pending_segments;
                    assert!(
                        0 < peak && peak <= m,
                        "eps={eps} {construction:?}: held {peak} segments for m = {m}"
                    );
                }
            }
        }
    }
}
