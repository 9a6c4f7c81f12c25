//! Live-engine configuration.

use chronorank_core::ApproxConfig;
use chronorank_serve::MethodSet;
use chronorank_storage::StoreConfig;
use std::path::PathBuf;

/// When a shard folds its mutable tail into a fresh index generation
/// (the paper's §4 amortized rebuild policy, extended with a tail-length
/// bound so rebuild work stays proportional to what accumulated).
#[derive(Debug, Clone, Copy)]
pub struct RebuildPolicy {
    /// Rebuild when the shard's live mass reaches `mass_factor ×` the mass
    /// its current generation was built over (§4 uses 2 — geometric
    /// mass doubling, amortizing construction to the stated per-segment
    /// bounds).
    pub mass_factor: f64,
    /// Rebuild when this many appended segments accumulated in the tail
    /// regardless of mass (keeps tail scans short under low-mass appends).
    pub max_tail_segments: usize,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self { mass_factor: 2.0, max_tail_segments: 512 }
    }
}

/// Configuration of an [`crate::IngestEngine`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Ingest/serve shard count `W`; clamped to `[1, m]`.
    pub workers: usize,
    /// Which methods every generation builds (EXACT3 always). The default
    /// is [`MethodSet::default`] with APPX2+ on.
    pub methods: MethodSet,
    /// Parameters of the generation-local approximate indexes.
    pub approx: ApproxConfig,
    /// Storage settings for all index structures and the WAL block size.
    pub store: StoreConfig,
    /// Entries per shard-local result cache; `0` disables caching.
    pub cache_capacity: usize,
    /// The amortized-rebuild trigger.
    pub rebuild: RebuildPolicy,
    /// Where the write-ahead log (and checkpoint snapshots) live. `None`
    /// keeps the WAL on an in-memory block device: durability accounting
    /// still works, crash recovery obviously does not.
    pub wal_dir: Option<PathBuf>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            // A generation's APPX2+ is a view over the QUERY2 structure
            // APPX2 builds anyway, re-scored from the shard's columns: no
            // prefix file, no index bytes and no reads of its own, so live
            // keeps the route serve shards leave out by default.
            methods: MethodSet { appx2_plus: true, ..MethodSet::default() },
            approx: ApproxConfig::default(),
            store: StoreConfig::default(),
            cache_capacity: 1024,
            rebuild: RebuildPolicy::default(),
            wal_dir: None,
        }
    }
}
