//! Engine configuration.

use crate::planner::MethodSet;
use chronorank_core::ApproxConfig;
use chronorank_storage::{ScaleBudget, StoreConfig};

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

impl ServeConfig {
    /// Derive the storage settings from an explicit memory budget: the
    /// budget's pool share is split over the long-lived
    /// [`chronorank_storage::PagedFile`]s the engine keeps open,
    /// [`ServeConfig::files_per_shard`] `× workers` — none of which depends
    /// on the number of objects. Everything else in `self` is unchanged.
    pub fn with_scale_budget(mut self, budget: ScaleBudget) -> Self {
        self.store = budget.store_config(self.files_per_shard() * self.workers.max(1));
        self
    }

    /// Long-lived index files one shard holds under `self.methods`: the
    /// EXACT3 tree (the one time-ordered segment file); QUERY2's list and
    /// directory files (one structure behind APPX2 and APPX2+); the APPX2+
    /// prefix file; and QUERY1's list file, directory and `r − 1`
    /// sub-trees. Four under the default [`MethodSet`].
    pub fn files_per_shard(&self) -> usize {
        let m = self.methods;
        1 + 2 * (m.appx2 || m.appx2_plus) as usize
            + m.appx2_plus as usize
            + if m.appx1 { self.approx.r + 1 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_budget_sizes_pools_per_worker() {
        // 10 240 pool frames: divisible by 4 files × 4 workers.
        let budget = ScaleBudget::new(80 << 20);
        let one = ServeConfig { workers: 1, ..Default::default() }.with_scale_budget(budget);
        let four = ServeConfig { workers: 4, ..Default::default() }.with_scale_budget(budget);
        assert_eq!(one.store.block_size, budget.block_size());
        assert_eq!(one.store.pool_capacity, four.store.pool_capacity * 4);
        // Other settings survive the builder untouched.
        assert_eq!(one.workers, 1);
        assert_eq!(four.workers, 4);
    }

    #[test]
    fn files_per_shard_is_what_a_shard_build_opens() {
        use chronorank_core::{ApproxIndex, ApproxVariant};
        use chronorank_workloads::{DatasetGenerator, TempConfig, TempGenerator};
        let set =
            TempGenerator::new(TempConfig { objects: 60, avg_segments: 20, ..Default::default() })
                .generate_set();
        let cfg = ServeConfig::default();
        assert_eq!(cfg.files_per_shard(), 4);
        // The approximate side, counted by the environments that created
        // the files: QUERY2 (shared, 2) + the prefix file; all of QUERY1.
        let built = |v| ApproxIndex::build(&set, v, cfg.approx).unwrap().num_files();
        assert_eq!(built(ApproxVariant::APPX2_PLUS), 3);
        let with_appx1 = ServeConfig { methods: MethodSet { appx1: true, ..cfg.methods }, ..cfg };
        assert_eq!(with_appx1.files_per_shard(), 4 + built(ApproxVariant::APPX1));
    }
}
