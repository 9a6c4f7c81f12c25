//! Budget-spilled fence queues for bottom-up bulk loads.
//!
//! Both bulk loaders in this crate ([`crate::BulkLoader`] and
//! [`crate::IntervalBulkLoader`]) write their leaves at **fill rate 1.0**
//! as the sorted stream arrives and remember one small *fence* per sealed
//! leaf — `(separator key, page)` for the B+-tree, `(min lo, max hi, page)`
//! for the interval tree. When `finish` runs, the fences become the bottom
//! input of the `while level.len() > 1` stacking loop that writes the
//! inner levels.
//!
//! At bench scale the fence list is the *only* part of a bulk load whose
//! memory footprint grows with `N`: one 24-byte record per leaf, i.e.
//! `O(N/B)` — roughly 14 MB of fences for `N = 10⁸` segments in 4 KiB
//! blocks. [`FenceSpill`] caps that term. It keeps up to a configured
//! number of fences in memory and appends the overflow to a scratch
//! [`PagedFile`] in fixed 24-byte records, then replays the whole sequence
//! **in push order** so the first inner level can be streamed out chunk by
//! chunk. Every level above the first shrinks by the inner fanout
//! (dozens-to-hundreds ×), so upper levels always fit the same budget and
//! stay in memory.
//!
//! # Invariants
//!
//! * **Order-preserving**: [`FenceSpill::replay`] yields records in exactly
//!   the order they were pushed — the in-memory prefix first, then the
//!   spilled suffix. Bulk loaders push fences in leaf-allocation order, so
//!   replay order equals the order the old all-in-memory `Vec` had.
//! * **Bit-for-bit neutral**: the scratch file is a *separate* file from
//!   the tree under construction, so spilling never perturbs the tree
//!   file's allocation sequence. A budgeted bulk load writes a
//!   byte-identical tree file to an unbudgeted one (asserted by tests in
//!   this module and in `btree`/`interval`).
//! * The budget bounds the fence *queue* only; the loader's one-leaf write
//!   buffer and the per-level chunk buffer (≤ fanout records) are O(B).

use crate::error::{IndexError, Result};
use chronorank_storage::page::{get_f64, get_u64, put_f64, put_u64};
use chronorank_storage::{PageId, PagedFile};

/// Bytes per spilled fence record: two `f64` fields plus a page id.
const REC_LEN: usize = 8 + 8 + 8;

/// An append-only queue of `(a, b, page)` fence records that spills past a
/// memory budget to a scratch file. See the module docs for the contract;
/// the meaning of `a`/`b` is the caller's (the B+-tree loader stores its
/// separator key in `a` and leaves `b` zero, the interval loader stores
/// `(min_lo, max_hi)`).
pub struct FenceSpill {
    budget: usize,
    mem: Vec<(f64, f64, PageId)>,
    scratch: Option<PagedFile>,
    /// Scratch blocks in write order (contiguity is not assumed).
    blocks: Vec<PageId>,
    buf: Vec<u8>,
    buf_n: usize,
    spilled: u64,
}

impl FenceSpill {
    /// A queue that never spills — pure `Vec` semantics, no scratch file.
    pub fn unbounded() -> Self {
        Self {
            budget: usize::MAX,
            mem: Vec::new(),
            scratch: None,
            blocks: Vec::new(),
            buf: Vec::new(),
            buf_n: 0,
            spilled: 0,
        }
    }

    /// A queue that keeps at most `budget_entries` fences in memory and
    /// appends the rest to `scratch` (a freshly created file this queue
    /// owns; one from `Env::create_scratch` is unlinked when the replay
    /// drops). A zero budget is rounded up to one entry.
    pub fn budgeted(scratch: PagedFile, budget_entries: usize) -> Result<Self> {
        let block = scratch.block_size();
        if block < REC_LEN {
            return Err(IndexError::BadInput(format!(
                "{block}-byte blocks cannot hold a {REC_LEN}-byte fence record"
            )));
        }
        Ok(Self {
            budget: budget_entries.max(1),
            mem: Vec::new(),
            buf: vec![0u8; block],
            scratch: Some(scratch),
            blocks: Vec::new(),
            buf_n: 0,
            spilled: 0,
        })
    }

    /// Records pushed so far (in memory plus spilled).
    pub fn len(&self) -> u64 {
        self.mem.len() as u64 + self.spilled
    }

    /// True when nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently resident in the scratch file (telemetry).
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Append one fence record, spilling when the in-memory prefix is full.
    pub fn push(&mut self, a: f64, b: f64, page: PageId) -> Result<()> {
        if self.mem.len() < self.budget {
            self.mem.push((a, b, page));
            return Ok(());
        }
        let Some(scratch) = &self.scratch else {
            // `unbounded` has budget == usize::MAX; a full Vec would have
            // aborted on allocation long before this point.
            return Err(IndexError::BadInput("fence budget exhausted with no scratch file".into()));
        };
        let off = self.buf_n * REC_LEN;
        put_f64(&mut self.buf, off, a);
        put_f64(&mut self.buf, off + 8, b);
        put_u64(&mut self.buf, off + 16, page);
        self.buf_n += 1;
        self.spilled += 1;
        if (self.buf_n + 1) * REC_LEN > self.buf.len() {
            let id = scratch.allocate(1)?;
            scratch.write(id, &self.buf)?;
            self.blocks.push(id);
            self.buf.fill(0);
            self.buf_n = 0;
        }
        Ok(())
    }

    /// Flush any partial scratch block and return a pull cursor that yields
    /// every record in push order.
    pub fn replay(mut self) -> Result<FenceReplay> {
        if self.buf_n > 0 {
            let scratch = self.scratch.as_ref().expect("buffered records imply a scratch file");
            let id = scratch.allocate(1)?;
            scratch.write(id, &self.buf)?;
            self.blocks.push(id);
            self.buf_n = 0;
        }
        let epb = if self.scratch.is_some() { self.buf.len() / REC_LEN } else { 0 };
        Ok(FenceReplay {
            mem: self.mem.into_iter(),
            scratch: self.scratch,
            blocks: self.blocks.into_iter(),
            buf: self.buf,
            in_block: 0,
            block_n: 0,
            remaining: self.spilled,
            epb,
        })
    }
}

/// Pull cursor over a [`FenceSpill`], in push order. Created by
/// [`FenceSpill::replay`].
pub struct FenceReplay {
    mem: std::vec::IntoIter<(f64, f64, PageId)>,
    scratch: Option<PagedFile>,
    blocks: std::vec::IntoIter<PageId>,
    buf: Vec<u8>,
    in_block: usize,
    block_n: usize,
    remaining: u64,
    epb: usize,
}

impl FenceReplay {
    /// The next record, or `None` when the queue is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible next: Iterator would bury the Result
    pub fn next(&mut self) -> Result<Option<(f64, f64, PageId)>> {
        if let Some(rec) = self.mem.next() {
            return Ok(Some(rec));
        }
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.in_block == self.block_n {
            let id = self
                .blocks
                .next()
                .ok_or_else(|| IndexError::Corrupt("fence spill block list short".into()))?;
            let scratch = self.scratch.as_ref().expect("spilled records imply a scratch file");
            scratch.read(id, &mut self.buf)?;
            self.block_n = (self.epb as u64).min(self.remaining) as usize;
            self.in_block = 0;
        }
        let off = self.in_block * REC_LEN;
        let a = get_f64(&self.buf, off);
        let b = get_f64(&self.buf, off + 8);
        let page = get_u64(&self.buf, off + 16);
        self.in_block += 1;
        self.remaining -= 1;
        Ok(Some((a, b, page)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::{Env, StoreConfig};

    fn env() -> Env {
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 16 })
    }

    fn drain(mut r: FenceReplay) -> Vec<(f64, f64, PageId)> {
        let mut out = Vec::new();
        while let Some(rec) = r.next().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn unbounded_replays_in_push_order() {
        let mut q = FenceSpill::unbounded();
        for i in 0..100u64 {
            q.push(i as f64, -(i as f64), i * 3).unwrap();
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.spilled(), 0);
        let got = drain(q.replay().unwrap());
        for (i, &(a, b, p)) in got.iter().enumerate() {
            assert_eq!((a, b, p), (i as f64, -(i as f64), i as u64 * 3));
        }
    }

    #[test]
    fn budgeted_spills_and_preserves_order() {
        // 256-byte blocks hold 10 records; 1000 pushes with a 7-entry
        // budget crosses many block boundaries and ends mid-block.
        let e = env();
        let mut q = FenceSpill::budgeted(e.create_file("fences").unwrap(), 7).unwrap();
        for i in 0..1000u64 {
            q.push(i as f64 * 0.5, i as f64 * 0.5 + 1.0, i).unwrap();
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.spilled(), 993);
        let got = drain(q.replay().unwrap());
        assert_eq!(got.len(), 1000);
        for (i, &(a, b, p)) in got.iter().enumerate() {
            assert_eq!((a, b, p), (i as f64 * 0.5, i as f64 * 0.5 + 1.0, i as u64));
        }
    }

    #[test]
    fn budgeted_matches_unbounded_exactly() {
        let e = env();
        for n in [0u64, 1, 7, 8, 77, 500] {
            let mut a = FenceSpill::unbounded();
            let mut b = FenceSpill::budgeted(e.create_file(&format!("f{n}")).unwrap(), 3).unwrap();
            for i in 0..n {
                let (lo, hi) = ((i as f64).sqrt(), (i as f64).sqrt() + 2.0);
                a.push(lo, hi, i).unwrap();
                b.push(lo, hi, i).unwrap();
            }
            assert_eq!(drain(a.replay().unwrap()), drain(b.replay().unwrap()));
        }
    }
}
