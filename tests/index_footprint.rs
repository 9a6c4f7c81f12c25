//! Tier-1 space gate (ISSUE 13, tightened by ISSUE 15): what one serve
//! shard's indexes weigh per segment, and that no index opens files in
//! proportion to the object count — the EXACT2 forest APPX2+ used to
//! re-score from did both (114 B/segment and `m` files on this shard), and
//! the EXACT1 B+-tree stored every segment a second time (36 B/segment)
//! until every exact query went to the EXACT3 tree.

use chronorank::core::{ApproxConfig, ApproxIndex, ApproxVariant, RankMethod, TemporalSet};
use chronorank::serve::{build_route_methods_with_handles, MethodSet, Route};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};

fn temp(objects: usize) -> TemporalSet {
    TempGenerator::new(TempConfig { objects, avg_segments: 100, ..Default::default() })
        .generate_set()
}

/// One shard of the benchmark's `exact_cold` engine: Temp, m = 2000,
/// n_avg = 100, every default.
#[test]
fn an_exact_cold_shard_stays_under_80_bytes_per_segment() {
    let set = temp(2000);
    let built = build_route_methods_with_handles(
        &set,
        MethodSet::default(),
        ApproxConfig::default(),
        StoreConfig::default(),
    )
    .unwrap();
    let per_segment = |bytes: u64| bytes as f64 / set.num_segments() as f64;
    let routes = built.route_bytes();
    let total = per_segment(built.size_bytes);
    let appx2_plus = per_segment(routes[Route::Appx2Plus.idx()]);
    assert!(total <= 80.0, "shard total {total:.1} B/segment; per route {routes:?}");
    assert!(appx2_plus <= 35.0, "APPX2+ route {appx2_plus:.1} B/segment");
    // Three structures, each counted once: the EXACT3 tree both exact
    // routes name, and the APPX2+ route's two — the QUERY2 structure APPX2
    // probes too, and the prefix file.
    let tree = built.exact3.size_bytes();
    assert_eq!(routes[Route::Exact1.idx()], tree);
    assert_eq!(routes[Route::Exact3.idx()], tree);
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
