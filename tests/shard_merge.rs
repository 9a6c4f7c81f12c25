//! A shard build merges its curves once: EXACT3 loads from the merge and
//! records its object order, which the B2 count fit replays. Whether the
//! fit may replay it turns on `has_negative` — a set with negative values
//! sweeps its `|g_i|` curves, split at zero crossings, and merges those
//! itself — so both sides run through `build_route_methods` here, each
//! shard checked against constructors that run no shared merge: the
//! breakpoints against the resident count fit and the streamed sweep at
//! the fitted `ε`, the EXACT3 file against the streamed build.

use chronorank::core::{
    b2_streaming, scan_stats, ApproxConfig, B2Construction, Breakpoints, Exact3, TemporalSet,
};
use chronorank::serve::{build_route_methods, partition, MethodSet, PlusRescore};
use chronorank::storage::{Env, PagedFile, StoreConfig};
use chronorank::workloads::{
    DatasetGenerator, RandomWalkConfig, RandomWalkGenerator, TempConfig, TempGenerator,
};

const STORE: StoreConfig = StoreConfig { block_size: 1024, pool_capacity: 32 };
/// Sixteen B2 sort records (36 bytes each): the streamed sweep merges
/// hundreds of runs.
const B2_SORT_BYTES: u64 = 16 * 36;
/// Sixteen EXACT3 sort records (44 bytes each).
const EXACT3_SORT_BYTES: u64 = 16 * 44;

fn bits(points: &[f64]) -> Vec<u64> {
    points.iter().map(|p| p.to_bits()).collect()
}

/// A flushed file's pages, in order.
fn pages(file: &PagedFile) -> Vec<u8> {
    let mut page = vec![0u8; file.block_size()];
    let mut all = Vec::new();
    for id in 0..file.num_blocks() {
        file.read(id, &mut page).unwrap();
        all.extend_from_slice(&page);
    }
    all
}

#[test]
fn each_shard_replays_one_merge_on_both_sides_of_has_negative() {
    let plain: TemporalSet =
        TempGenerator::new(TempConfig { objects: 300, avg_segments: 60, seed: 42, dropout: 0.02 })
            .generate_set();
    let negative = RandomWalkGenerator::new(RandomWalkConfig {
        objects: 120,
        segments: 80,
        volatility: 2.0,
        allow_negative: true,
        seed: 21,
    })
    .generate_set();
    let approx = ApproxConfig { r: 32, ..ApproxConfig::default() };
    let efficient = B2Construction::Efficient;
    for (name, set, negative) in [("temp", plain, false), ("negative", negative, true)] {
        for (i, shard) in partition(&set, 2).iter().enumerate() {
            assert_eq!(shard.has_negative(), negative, "{name} shard {i}");
            let built = build_route_methods(
                shard,
                MethodSet::default(),
                approx,
                STORE,
                PlusRescore::Columns,
            )
            .unwrap();
            let bp = built.breakpoints.expect("the default methods fit breakpoints");
            let resident = Breakpoints::b2_with_count(shard, approx.r, efficient).unwrap();
            assert_eq!(bits(bp.points()), bits(resident.points()), "{name} shard {i}");
            assert_eq!(bp.eps().to_bits(), resident.eps().to_bits(), "{name} shard {i}");
            let env = Env::mem(STORE);
            let objects = shard.objects();
            let streamed = b2_streaming(
                &env,
                objects,
                &scan_stats(objects),
                bp.eps(),
                efficient,
                B2_SORT_BYTES,
            )
            .unwrap()
            .breakpoints;
            assert_eq!(bits(bp.points()), bits(streamed.points()), "{name} shard {i}");

            let exact3 =
                Exact3::build_streaming(Env::mem(STORE), STORE, objects, EXACT3_SORT_BYTES)
                    .unwrap();
            built.exact3.flush().unwrap();
            exact3.flush().unwrap();
            assert!(built.exact3.tree_file().num_blocks() > 1, "{name} shard {i}");
            assert!(
                pages(built.exact3.tree_file()) == pages(exact3.tree_file()),
                "{name} shard {i}"
            );
            assert_eq!(built.exact3.meta_bytes(), exact3.meta_bytes(), "{name} shard {i}");
        }
    }
}
