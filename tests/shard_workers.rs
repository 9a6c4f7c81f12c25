//! Tier-1 affinity pin for the serve worker pool: a shard's windows are
//! answered by its own worker and no other. Four caller threads each run
//! 100 windows through one pool of W = 4 fake shards that record the name
//! of every thread that probes them; each shard must have seen exactly one
//! thread, `chronorank-serve-{i}`.
//!
//! The count repeats exactly, so it is printed as a `pinned:` line before
//! it is asserted; `ci.sh`'s `tier1` stage echoes it into its summary.
//!
//! Shards answer in local ids and the pool's worker maps them to global
//! ones, so the partition and its id arithmetic must agree on every id:
//! the property test below checks `partition` against `to_local` /
//! `to_global` for W = 1..=8, and a pool of probes that answer their own
//! local ids against the global ids the gather returns.

use chronorank::core::{ObjectId, TemporalSet};
use chronorank::curve::PiecewiseLinear;
use chronorank::obs::{Registry, SpanSink};
use chronorank::serve::{
    partition, to_global, to_local, Route, ServeQuery, ShardAnswer, ShardProbe, WorkerPool,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const W: usize = 4;
const CALLERS: usize = 4;
const WINDOWS: usize = 100;

/// A shard that answers every query with an empty list and remembers who
/// asked.
#[derive(Default)]
struct NamedProbe {
    threads: Mutex<BTreeSet<String>>,
}

impl ShardProbe for NamedProbe {
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        let name = std::thread::current().name().unwrap_or("unnamed").to_string();
        self.threads.lock().unwrap().insert(name);
        window.iter().map(|_| (Ok(Vec::new()), None)).collect()
    }
}

#[test]
fn each_shard_is_probed_by_its_own_worker_only() {
    let pool = WorkerPool::boot(vec![(); W], &Registry::noop(), |_, ()| Ok(NamedProbe::default()))
        .unwrap();
    let window: Arc<[(ServeQuery, Route)]> =
        Arc::from([(ServeQuery::exact(0.0, 1.0, 3), Route::Exact3)]);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                for _ in 0..WINDOWS {
                    let tops = pool.scatter_gather(&window, None, &SpanSink::noop()).unwrap();
                    assert_eq!(tops.len(), 1);
                }
            });
        }
    });
    let seen: Vec<BTreeSet<String>> =
        pool.shards().iter().map(|s| s.threads.lock().unwrap().clone()).collect();
    let most = seen.iter().map(BTreeSet::len).max().unwrap_or(0);
    println!(
        "pinned: worker threads that probed each shard, W = {W}, {CALLERS} callers × \
         {WINDOWS} windows: {most}"
    );
    for (i, threads) in seen.iter().enumerate() {
        assert_eq!(threads, &BTreeSet::from([format!("chronorank-serve-{i}")]), "shard {i}");
    }
}

/// A shard that answers every query with all `m` of its local ids, each
/// scored by its own id (so the merge keeps every one).
struct LocalIds {
    m: u32,
}

impl ShardProbe for LocalIds {
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        let all: Vec<(ObjectId, f64)> = (0..self.m).rev().map(|id| (id, id as f64)).collect();
        window.iter().map(|_| (Ok(all.clone()), None)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn partition_and_the_id_helpers_agree_on_every_id(m in 1usize..60, lens in 2usize..6) {
        let curves: Vec<_> = (0..m)
            .map(|i| {
                let points: Vec<(f64, f64)> =
                    (0..lens + i % 3).map(|j| (j as f64, (i * 7 + j) as f64)).collect();
                PiecewiseLinear::from_points(&points).unwrap()
            })
            .collect();
        let set = TemporalSet::from_curves(curves).unwrap();
        for w in 1..=8usize.min(m) {
            let parts = partition(&set, w);
            prop_assert_eq!(parts.len(), w);
            let mut seen = vec![false; m];
            for (shard, part) in parts.iter().enumerate() {
                for o in part.objects() {
                    let global = to_global(shard, o.id, w);
                    prop_assert_eq!(to_local(global, w), (shard, o.id), "w {}", w);
                    prop_assert!(!seen[global as usize], "w {}: {} twice", w, global);
                    seen[global as usize] = true;
                    let original = &set.object(global).unwrap().curve;
                    prop_assert_eq!(&o.curve, original, "w {}: object {}", w, global);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "w {}: an object is in no part", w);
            // The pool maps each shard's local answers to exactly the
            // global ids the partition gave that shard.
            let ms: Vec<u32> = parts.iter().map(|p| p.num_objects() as u32).collect();
            let pool = WorkerPool::boot(ms, &Registry::noop(), |_, m| Ok(LocalIds { m })).unwrap();
            let window: Arc<[(ServeQuery, Route)]> =
                Arc::from([(ServeQuery::exact(0.0, 1.0, m), Route::Exact3)]);
            let top = pool.scatter_gather(&window, None, &SpanSink::noop()).unwrap().remove(0);
            let mut ids: Vec<ObjectId> = top.entries().iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..m as ObjectId).collect::<Vec<_>>(), "w {}", w);
            for &(id, score) in top.entries() {
                let (_, local) = to_local(id, w);
                prop_assert_eq!(score, local as f64, "w {}: {} answered as another id", w, id);
            }
        }
    }
}
