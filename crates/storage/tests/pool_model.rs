//! Property test: a [`PagedFile`] under arbitrary read/write/flush/drop
//! sequences must behave exactly like a plain in-memory array of blocks,
//! its IO counters must never exceed the workload's worst case, and both
//! must come out the same whatever device sits under the pool: memory
//! (pages exchanged as handles), a wrapper with only the required
//! [`BlockDevice`] methods (the provided `load` / `store`), and a directory
//! — `Env`'s "IO counting is identical to disk".

use chronorank_storage::{
    BlockDevice, Env, IoCounter, IoStats, MemDevice, PageId, PagedFile, Result, StoreConfig,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write(u8, u8),
    Read(u8),
    Flush,
    DropCache,
}

fn arb_op(max_block: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_block, any::<u8>()).prop_map(|(b, v)| Op::Write(b, v)),
        (0..max_block).prop_map(Op::Read),
        Just(Op::Flush),
        Just(Op::DropCache),
    ]
}

const BLOCKS: usize = 12;
const BLOCK_SIZE: usize = 128;

/// A device that overrides nothing: every page the pool exchanges with it
/// goes through the trait's provided methods and plain `read` / `write`.
struct RequiredOnly(MemDevice);

impl BlockDevice for RequiredOnly {
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.0.read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        self.0.write(id, buf)
    }
    fn allocate(&mut self, n: u64) -> Result<PageId> {
        self.0.allocate(n)
    }
    fn sync(&mut self) -> Result<()> {
        self.0.sync()
    }
}

/// Run `ops`, then a cold read-back of every block. Returns what each read
/// saw, in order.
fn replay(file: &PagedFile, ops: &[Op]) -> Vec<Vec<u8>> {
    file.allocate(BLOCKS as u64).unwrap();
    let mut buf = vec![0u8; BLOCK_SIZE];
    let mut seen = Vec::new();
    for op in ops {
        match *op {
            Op::Write(b, v) => {
                buf.fill(v);
                file.write(b as u64, &buf).unwrap();
            }
            Op::Read(b) => {
                file.read(b as u64, &mut buf).unwrap();
                seen.push(buf.clone());
            }
            Op::Flush => file.flush().unwrap(),
            Op::DropCache => file.drop_cache().unwrap(),
        }
    }
    file.drop_cache().unwrap();
    for id in 0..BLOCKS as u64 {
        file.read(id, &mut buf).unwrap();
        seen.push(buf.clone());
    }
    seen
}

/// The same for the model: a flat array of blocks.
fn replay_model(ops: &[Op]) -> Vec<Vec<u8>> {
    let mut model = vec![vec![0u8; BLOCK_SIZE]; BLOCKS];
    let mut seen = Vec::new();
    for op in ops {
        match *op {
            Op::Write(b, v) => model[b as usize].fill(v),
            Op::Read(b) => seen.push(model[b as usize].clone()),
            Op::Flush | Op::DropCache => {}
        }
    }
    seen.extend(model);
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_matches_flat_array_model(
        ops in proptest::collection::vec(arb_op(BLOCKS as u8), 1..120),
        pool_frames in 1usize..6,
    ) {
        let config = StoreConfig { block_size: BLOCK_SIZE, pool_capacity: pool_frames };
        let want = replay_model(&ops);

        let mem = Env::mem(config);
        prop_assert_eq!(&replay(&mem.create_file("model").unwrap(), &ops), &want, "memory");
        let io: IoStats = mem.io_stats();

        let counter = IoCounter::new();
        let plain = PagedFile::new(
            Box::new(RequiredOnly(MemDevice::new(BLOCK_SIZE))),
            config,
            counter.clone(),
        );
        prop_assert_eq!(&replay(&plain, &ops), &want, "required methods only");
        prop_assert_eq!(counter.snapshot(), io, "provided load/store count differently");

        let path = std::env::temp_dir().join(format!("chronorank-model-{}", std::process::id()));
        let dir = Env::dir(&path, config).unwrap();
        let on_disk = replay(&dir.create_file("model").unwrap(), &ops);
        std::fs::remove_dir_all(&path).ok();
        prop_assert_eq!(&on_disk, &want, "directory");
        prop_assert_eq!(dir.io_stats(), io, "a directory counts differently from memory");

        // Sanity on the counters: reads can never exceed logical accesses
        // plus the final read-back; each flush/eviction writes each dirty
        // block at most once per dirtying.
        let logical_accesses =
            ops.iter().filter(|op| matches!(op, Op::Write(..) | Op::Read(_))).count() as u64;
        prop_assert!(io.reads <= logical_accesses + BLOCKS as u64);
        prop_assert!(io.writes <= logical_accesses + 1);
    }
}
