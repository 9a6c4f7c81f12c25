//! Tier-1 space gate: what one serve shard's indexes weigh per segment —
//! by default, which leaves APPX2+ out, and with APPX2+ opted in — and
//! that no index opens files in proportion to the object count — the
//! EXACT2 forest APPX2+ used to
//! re-score from did both (114 B/segment and `m` files on this shard), and
//! the EXACT1 B+-tree stored every segment a second time (36 B/segment)
//! until every exact query went to the EXACT3 tree.

use chronorank::core::{ApproxConfig, ApproxIndex, ApproxVariant, RankMethod, TemporalSet};
use chronorank::serve::{build_route_methods_with_handles, BuiltRoutes, MethodSet, Route};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};

fn temp(objects: usize) -> TemporalSet {
    TempGenerator::new(TempConfig { objects, avg_segments: 100, ..Default::default() })
        .generate_set()
}

fn shard(methods: MethodSet) -> (TemporalSet, BuiltRoutes) {
    let set = temp(2000);
    let built = build_route_methods_with_handles(
        &set,
        methods,
        ApproxConfig::default(),
        StoreConfig::default(),
    )
    .unwrap();
    (set, built)
}

fn per_segment(bytes: u64, set: &TemporalSet) -> f64 {
    bytes as f64 / set.num_segments() as f64
}

/// One shard of the benchmark's `exact_cold` engine: Temp, m = 2000,
/// n_avg = 100, every default. Two structures, each counted once: the
/// EXACT3 tree both exact routes name, and the QUERY2 structure APPX2
/// probes. The default builds no APPX2+, so no prefix file sits beside
/// them (74.6 B/segment with one).
#[test]
fn a_default_exact_cold_shard_stays_under_55_bytes_per_segment() {
    let (set, built) = shard(MethodSet::default());
    let routes = built.route_bytes();
    let total = per_segment(built.size_bytes, &set);
    assert!(total <= 55.0, "shard total {total:.1} B/segment; per route {routes:?}");
    let tree = built.exact3.size_bytes();
    assert_eq!(routes[Route::Exact1.idx()], tree);
    assert_eq!(routes[Route::Exact3.idx()], tree);
    assert_eq!(routes[Route::Appx2Plus.idx()], 0, "APPX2+ is opt-in");
    assert_eq!(built.size_bytes, tree + routes[Route::Appx2.idx()]);
}

/// The same shard with APPX2+ opted in: its route is the QUERY2 structure
/// APPX2 probes too, plus the prefix file, and the shard counts each once.
#[test]
fn an_exact_cold_shard_stays_under_80_bytes_per_segment() {
    let (set, built) = shard(MethodSet { appx2_plus: true, ..Default::default() });
    let routes = built.route_bytes();
    let appx2_plus = per_segment(routes[Route::Appx2Plus.idx()], &set);
    assert!(appx2_plus <= 35.0, "APPX2+ route {appx2_plus:.1} B/segment");
    let total = per_segment(built.size_bytes, &set);
    assert!(total <= 80.0, "shard total {total:.1} B/segment; per route {routes:?}");
    let tree = built.exact3.size_bytes();
    assert_eq!(built.size_bytes, tree + routes[Route::Appx2Plus.idx()]);
}

#[test]
fn appx2plus_opens_the_same_files_at_any_object_count() {
    let files = |objects| {
        ApproxIndex::build(&temp(objects), ApproxVariant::APPX2_PLUS, ApproxConfig::default())
            .unwrap()
            .num_files()
    };
    assert_eq!(files(50), 3, "QUERY2 lists + directory, one prefix file");
    assert_eq!(files(50), files(1000));
}
