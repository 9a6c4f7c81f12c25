//! Engine configuration.

use crate::planner::MethodSet;
use chronorank_core::ApproxConfig;
use chronorank_storage::StoreConfig;

/// Configuration of a [`crate::ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker (shard) count `W`; clamped to `[1, m]`.
    pub workers: usize,
    /// Which methods every shard builds (EXACT3 always; see [`MethodSet`]).
    pub methods: MethodSet,
    /// Parameters of the shard-local approximate indexes (`r`, `kmax`,
    /// BREAKPOINTS2 construction). The `store` field inside is ignored —
    /// [`ServeConfig::store`] applies to every index the engine builds.
    pub approx: ApproxConfig,
    /// Storage settings (block size, per-file buffer-pool frames) for all
    /// shard-local indexes.
    pub store: StoreConfig,
    /// Entries per shard-local result cache; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            methods: MethodSet::default(),
            approx: ApproxConfig::default(),
            store: StoreConfig::default(),
            cache_capacity: 1024,
        }
    }
}
