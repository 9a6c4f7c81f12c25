//! IO accounting.
//!
//! Every transfer of a block between a buffer pool and its backing device is
//! counted here. The paper's evaluation reports exactly this quantity
//! ("I/Os") for every method, so the counters are designed to be *shared*:
//! an [`crate::Env`] hands the same counter to every file it creates, and an
//! index structure built from several files (EXACT2 uses `m` of them) still
//! reports one total.
//!
//! Counters are lock-free and cross-thread: an [`IoCounter`] is an `Arc` of
//! atomics, so any number of worker threads can charge IOs to one shared
//! budget without synchronizing, and a coordinator can snapshot totals at
//! any time. Relaxed ordering is enough — the counters are statistics, not
//! synchronization; publication of the *structures* that do the IO happens
//! through channels, `Arc`s and locks elsewhere.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Per-thread tally of block reads charged through ANY [`IoCounter`]
    /// on this thread. Lets a caller measure exactly the reads *its own*
    /// probe performed even while other threads charge the same shared
    /// counter (see [`IoCounter::thread_reads`]).
    static THREAD_READS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of IO activity.
///
/// Index traffic (`reads`/`writes`, moved by buffer pools) and write-ahead
///-log traffic (`wal_writes`/`wal_bytes`, appended by
/// [`crate::WriteAheadLog`]) are counted separately so a bench can
/// attribute cost to the query path vs the ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Blocks fetched from the device into a pool (cache misses).
    pub reads: u64,
    /// Blocks written back from a pool to the device (evictions + flushes).
    pub writes: u64,
    /// Blocks flushed by a write-ahead log (ingest-path durability).
    pub wal_writes: u64,
    /// Payload bytes appended to a write-ahead log (before block rounding).
    pub wal_bytes: u64,
}

impl IoStats {
    /// Total block transfers in either direction, WAL included.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.wal_writes
    }

    /// Component-wise difference, saturating at zero: `self - earlier`.
    pub fn since(&self, earlier: IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            wal_writes: self.wal_writes.saturating_sub(earlier.wal_writes),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            wal_writes: self.wal_writes + rhs.wal_writes,
            wal_bytes: self.wal_bytes + rhs.wal_bytes,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.wal_writes += rhs.wal_writes;
        self.wal_bytes += rhs.wal_bytes;
    }
}

impl std::iter::Sum for IoStats {
    fn sum<I: Iterator<Item = IoStats>>(iter: I) -> IoStats {
        iter.fold(IoStats::default(), |acc, s| acc + s)
    }
}

impl<'a> std::iter::Sum<&'a IoStats> for IoStats {
    fn sum<I: Iterator<Item = &'a IoStats>>(iter: I) -> IoStats {
        iter.copied().sum()
    }
}

/// The shared atomic cells behind an [`IoCounter`].
#[derive(Debug, Default)]
struct Cells {
    reads: AtomicU64,
    writes: AtomicU64,
    wal_writes: AtomicU64,
    wal_bytes: AtomicU64,
}

/// A cheaply clonable, shared, **thread-safe** IO counter
/// (`Arc`-of-atomics; adds are lock-free, `Relaxed`).
#[derive(Debug, Clone, Default)]
pub struct IoCounter {
    inner: Arc<Cells>,
}

impl IoCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` block reads.
    pub fn add_reads(&self, n: u64) {
        self.inner.reads.fetch_add(n, Ordering::Relaxed);
        THREAD_READS.with(|c| c.set(c.get() + n));
    }

    /// Block reads charged by the **current thread** (across all
    /// counters) since thread start. Shared counters make per-caller
    /// deltas ambiguous under concurrency; a synchronous caller can
    /// instead difference this around an operation to get exactly its
    /// own read count — deterministic no matter what other threads do.
    pub fn thread_reads() -> u64 {
        THREAD_READS.with(Cell::get)
    }

    /// Credit IO that was already counted — and, for reads, already
    /// tallied on its thread — through **another** counter: how an index
    /// attributes to itself what its queries did in a structure it shares
    /// with other indexes. Leaves [`IoCounter::thread_reads`] alone, so a
    /// caller differencing the thread tally around a probe never sees a
    /// read twice.
    pub fn credit(&self, io: IoStats) {
        self.inner.reads.fetch_add(io.reads, Ordering::Relaxed);
        self.inner.writes.fetch_add(io.writes, Ordering::Relaxed);
        self.inner.wal_writes.fetch_add(io.wal_writes, Ordering::Relaxed);
        self.inner.wal_bytes.fetch_add(io.wal_bytes, Ordering::Relaxed);
    }

    /// Record `n` block writes.
    pub fn add_writes(&self, n: u64) {
        self.inner.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one WAL block flush carrying `bytes` of fresh payload.
    pub fn add_wal_write(&self, bytes: u64) {
        self.inner.wal_writes.fetch_add(1, Ordering::Relaxed);
        self.inner.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current totals. Each field is read atomically; a snapshot taken
    /// while other threads are counting is a consistent point between
    /// whole increments per field, not across fields.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            wal_writes: self.inner.wal_writes.load(Ordering::Relaxed),
            wal_bytes: self.inner.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.inner.reads.store(0, Ordering::Relaxed);
        self.inner.writes.store(0, Ordering::Relaxed);
        self.inner.wal_writes.store(0, Ordering::Relaxed);
        self.inner.wal_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(reads: u64, writes: u64) -> IoStats {
        IoStats { reads, writes, ..Default::default() }
    }

    #[test]
    fn counters_are_shared_between_clones() {
        let a = IoCounter::new();
        let b = a.clone();
        a.add_reads(3);
        b.add_writes(2);
        assert_eq!(a.snapshot(), io(3, 2));
        assert_eq!(b.snapshot().total(), 5);
    }

    #[test]
    fn since_subtracts_and_saturates() {
        let early = io(5, 1);
        let late = io(9, 4);
        assert_eq!(late.since(early), io(4, 3));
        assert_eq!(early.since(late), IoStats::default());
    }

    #[test]
    fn since_saturates_across_a_counter_reset() {
        // Regression: a snapshot taken before a reset is "later" than one
        // taken after it. Differencing them must clamp to zero per
        // component — a raw subtraction would wrap to ~u64::MAX and any
        // consumer (report deltas, wire bodies) would publish garbage.
        let c = IoCounter::new();
        c.add_reads(10);
        c.add_writes(4);
        c.add_wal_write(64);
        let before = c.snapshot();
        c.reset();
        c.add_reads(2);
        let after = c.snapshot();
        assert_eq!(after.since(before), io(0, 0), "reset shrank every counter");
        assert_eq!(after.since(IoStats::default()), after);
    }

    #[test]
    fn reset_zeroes() {
        let c = IoCounter::new();
        c.add_reads(10);
        c.add_wal_write(100);
        c.reset();
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn add_combines() {
        let a = io(1, 2);
        let b = io(3, 4);
        assert_eq!(a + b, io(4, 6));
        let mut c = a;
        c += b;
        assert_eq!(c, io(4, 6));
    }

    #[test]
    fn sum_aggregates_shard_snapshots() {
        // The serve layer sums one snapshot per shard into a report total.
        let shards = [io(5, 1), IoStats::default(), io(2, 7)];
        let by_value: IoStats = shards.iter().copied().sum();
        let by_ref: IoStats = shards.iter().sum();
        assert_eq!(by_value, io(7, 8));
        assert_eq!(by_ref, by_value);
        assert_eq!(std::iter::empty::<IoStats>().sum::<IoStats>(), IoStats::default());
    }

    #[test]
    fn wal_traffic_is_counted_separately_from_index_traffic() {
        let c = IoCounter::new();
        c.add_reads(2);
        c.add_wal_write(48);
        c.add_wal_write(16);
        let s = c.snapshot();
        assert_eq!((s.reads, s.writes), (2, 0), "WAL flushes must not pollute index writes");
        assert_eq!((s.wal_writes, s.wal_bytes), (2, 64));
        assert_eq!(s.total(), 4);
        // The new fields ride through the arithmetic helpers.
        let twice = s + s;
        assert_eq!((twice.wal_writes, twice.wal_bytes), (4, 128));
        assert_eq!(twice.since(s), s);
        let summed: IoStats = [s, s, IoStats::default()].iter().sum();
        assert_eq!(summed, twice);
    }

    #[test]
    fn concurrent_adds_from_eight_threads_never_lose_increments() {
        let c = IoCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..5_000 {
                        c.add_reads(1);
                        c.add_writes(2);
                        c.add_wal_write(3);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.reads, 8 * 5_000);
        assert_eq!(s.writes, 2 * 8 * 5_000);
        assert_eq!(s.wal_writes, 8 * 5_000);
        assert_eq!(s.wal_bytes, 3 * 8 * 5_000);
    }

    #[test]
    fn thread_reads_attributes_exactly_to_the_calling_thread() {
        let shared = IoCounter::new();
        std::thread::scope(|scope| {
            for mine in [3u64, 7, 11] {
                let shared = shared.clone();
                scope.spawn(move || {
                    let before = IoCounter::thread_reads();
                    for _ in 0..mine {
                        shared.add_reads(1);
                    }
                    assert_eq!(IoCounter::thread_reads() - before, mine);
                });
            }
        });
        assert_eq!(shared.snapshot().reads, 3 + 7 + 11);
    }

    #[test]
    fn credit_moves_the_counter_but_not_the_thread_tally() {
        let (shared, own) = (IoCounter::new(), IoCounter::new());
        let before = IoCounter::thread_reads();
        shared.add_reads(4);
        own.credit(IoStats { reads: IoCounter::thread_reads() - before, ..Default::default() });
        own.credit(io(0, 3));
        assert_eq!(own.snapshot(), io(4, 3));
        assert_eq!(IoCounter::thread_reads() - before, 4, "credited reads are not re-tallied");
    }

    #[test]
    fn counter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoCounter>();
        assert_send_sync::<IoStats>();
    }
}
