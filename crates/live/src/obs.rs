//! Live-tier instrumentation: ingest-path histograms the engine bumps
//! around its durability points, plus the handles each shard carries for
//! the swap-pause / rebuild timings recorded at install.
//!
//! Handles are resolved once at engine construction (from the process
//! [`Registry::global`]); the append and query hot paths never touch the
//! registry itself.

use chronorank_obs::{Gauge, Histogram, Registry};

/// The ingest engine's observability handles (see module docs).
pub(crate) struct LiveObs {
    pub registry: Registry,
    /// One WAL record framed + written (pre-sync), µs.
    pub wal_append_us: Histogram,
    /// One group-commit sync, µs.
    pub wal_fsync_us: Histogram,
    /// Records per durable group-commit.
    pub batch_size: Histogram,
    /// One full checkpoint (image publish + truncate), µs.
    pub checkpoint_us: Histogram,
    /// Boot-time recovery (WAL open, image load, replay), µs.
    pub recovery_us: Gauge,
    /// Handles cloned into every shard.
    pub shard: ShardObs,
}

/// The per-shard slice of [`LiveObs`]: cheap `Arc` clones handed to each
/// shard at boot.
#[derive(Clone)]
pub(crate) struct ShardObs {
    /// Epoch-swap pause (the reader-visible cost of installing a rebuilt
    /// generation), µs.
    pub swap_pause_us: Histogram,
    /// Off-thread generation build duration, µs.
    pub rebuild_us: Histogram,
}

impl LiveObs {
    /// Resolve every handle against `registry`.
    pub fn attach(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            wal_append_us: registry.histogram(
                "chronorank_live_wal_append_us",
                "one WAL record framed and written (before the group-commit sync), microseconds",
            ),
            wal_fsync_us: registry.histogram(
                "chronorank_live_wal_fsync_us",
                "one durable group-commit sync, microseconds",
            ),
            batch_size: registry.histogram(
                "chronorank_live_batch_size",
                "records accepted per durable group-commit",
            ),
            checkpoint_us: registry.histogram(
                "chronorank_live_checkpoint_us",
                "one checkpoint: shard gather, image publish, WAL truncation, microseconds",
            ),
            recovery_us: registry.gauge(
                "chronorank_live_recovery_us",
                "boot-time recovery (WAL open, checkpoint image load, replay), microseconds",
            ),
            shard: ShardObs {
                swap_pause_us: registry.histogram(
                    "chronorank_live_swap_pause_us",
                    "epoch-swap pause installing a rebuilt generation, microseconds",
                ),
                rebuild_us: registry.histogram(
                    "chronorank_live_rebuild_us",
                    "off-thread generation build duration, microseconds",
                ),
            },
        }
    }
}
