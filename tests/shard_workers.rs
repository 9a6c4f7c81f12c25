//! Tier-1 affinity pin for the serve worker pool: a shard's windows are
//! answered by its own worker and no other. Four caller threads each run
//! 100 windows through one pool of W = 4 fake shards that record the name
//! of every thread that probes them; each shard must have seen exactly one
//! thread, `chronorank-serve-{i}`.
//!
//! The count repeats exactly, so it is printed as a `pinned:` line before
//! it is asserted; `ci.sh`'s `tier1` stage echoes it into its summary.

use chronorank::obs::{Registry, SpanSink};
use chronorank::serve::{Route, ServeQuery, ShardAnswer, ShardProbe, WorkerPool};
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
