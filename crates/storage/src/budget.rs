//! `ScaleBudget` — one explicit memory budget for paper-scale builds.
//!
//! The paper's Memetracker configuration (m ≈ 1.5·10⁶ objects, N ≈ 10⁸
//! segments) is far larger than RAM-resident construction allows, and TPIE
//! (the paper's substrate) is configured with exactly one number: how much
//! memory the external-memory algorithms may use. This type is the
//! equivalent knob for the Rust reproduction. Every memory consumer of a
//! large build derives its size from here instead of assuming "everything
//! fits":
//!
//! * **buffer pools** — [`ScaleBudget::store_config`] sizes
//!   [`StoreConfig::pool_capacity`] from the pool share divided by the
//!   number of concurrently live [`crate::PagedFile`]s;
//! * **sort runs** — [`ScaleBudget::sort_bytes`] is the byte budget every
//!   streaming constructor hands its `ExternalSorter`, which turns it into
//!   a run length for its own record width;
//! * **admission checks** — [`ScaleBudget::holds_dataset`] answers whether
//!   a dataset of the given size would fit entirely in the budget (the
//!   paperscale bench asserts this is *false*, i.e. the build really ran
//!   out-of-core).
//!
//! The split is static — half the budget to pools, half to sort runs —
//! because the two phases overlap: the sorted stream is consumed while the
//! bulk loader writes leaves through a pool.

use crate::pool::StoreConfig;
use crate::DEFAULT_BLOCK_SIZE;

/// A byte budget for one out-of-core build or serving tier (see module
/// docs). Copyable plain data; clone it freely into per-method configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleBudget {
    total_bytes: u64,
    block_size: usize,
}

impl Default for ScaleBudget {
    /// 256 MiB at the paper's 4 KB block size — small enough that every
    /// committed paperscale rung at `N ≥ 10⁷` is genuinely out-of-core,
    /// large enough that sort runs stay long.
    fn default() -> Self {
        Self::new(256 << 20)
    }
}

impl ScaleBudget {
    /// A budget of `total_bytes` at the default block size.
    pub fn new(total_bytes: u64) -> Self {
        Self::with_block_size(total_bytes, DEFAULT_BLOCK_SIZE)
    }

    /// A budget with an explicit block size (must be nonzero).
    pub fn with_block_size(total_bytes: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be nonzero");
        Self { total_bytes, block_size }
    }

    /// The whole budget in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Block size used to translate bytes into pool frames.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Bytes reserved for buffer pools (half the budget).
    pub fn pool_bytes(&self) -> u64 {
        self.total_bytes / 2
    }

    /// Bytes reserved for external-sort runs (the other half).
    pub fn sort_bytes(&self) -> u64 {
        self.total_bytes - self.pool_bytes()
    }

    /// A [`StoreConfig`] whose per-file pool is the pool share divided by
    /// `live_files` — the number of [`crate::PagedFile`]s the build keeps
    /// open at once (every file gets its own pool). Never below 4 frames,
    /// so even absurdly small budgets stay functional (the budget is then
    /// honest-best-effort, not a hard cap).
    pub fn store_config(&self, live_files: usize) -> StoreConfig {
        let files = live_files.max(1) as u64;
        let frames = self.pool_bytes() / files / self.block_size as u64;
        StoreConfig {
            block_size: self.block_size,
            pool_capacity: frames.clamp(4, usize::MAX as u64) as usize,
        }
    }

    /// Whether a dataset of `dataset_bytes` would fit wholly inside this
    /// budget. The paperscale bench requires this to be `false` at every
    /// committed rung: the headline I/O ordering must emerge from an
    /// out-of-core build, not a cached one.
    pub fn holds_dataset(&self, dataset_bytes: u64) -> bool {
        dataset_bytes <= self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_halves() {
        let b = ScaleBudget::default();
        assert_eq!(b.total_bytes(), 256 << 20);
        assert_eq!(b.pool_bytes() + b.sort_bytes(), b.total_bytes());
        assert_eq!(b.block_size(), DEFAULT_BLOCK_SIZE);
    }

    #[test]
    fn store_config_divides_pool_share() {
        let b = ScaleBudget::new(64 << 20);
        let one = b.store_config(1);
        let four = b.store_config(4);
        assert_eq!(one.block_size, DEFAULT_BLOCK_SIZE);
        assert_eq!(one.pool_capacity, (32 << 20) / DEFAULT_BLOCK_SIZE);
        assert_eq!(four.pool_capacity, one.pool_capacity / 4);
    }

    #[test]
    fn tiny_budgets_stay_functional() {
        let b = ScaleBudget::new(1024);
        assert!(b.store_config(100).pool_capacity >= 4);
    }

    #[test]
    fn holds_dataset_is_a_plain_comparison() {
        let b = ScaleBudget::new(1 << 20);
        assert!(b.holds_dataset(1 << 20));
        assert!(!b.holds_dataset((1 << 20) + 1));
    }
}
