//! Disk persistence: the index substrates round-trip through real files
//! (the paper's structures are disk-resident; everything must survive a
//! flush + reopen through the file-backed environment).

use chronorank::index::{BPlusTree, BulkLoader, IntervalEntry, IntervalTree};
use chronorank::storage::{Env, FileDevice, PagedFile, StoreConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("chronorank-persist-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn btree_survives_reopen_from_disk() {
    let dir = tmpdir("btree");
    let cfg = StoreConfig { block_size: 512, pool_capacity: 16 };
    {
        let env = Env::dir(&dir, cfg).unwrap();
        let mut loader = BulkLoader::new(env.create_file("tree").unwrap(), 8).unwrap();
        for i in 0..5000u64 {
            loader.push(i as f64 * 0.5, &i.to_le_bytes()).unwrap();
        }
        let mut tree = loader.finish().unwrap();
        tree.insert(123.25, &999_999u64.to_le_bytes()).unwrap();
        tree.flush().unwrap();
    }
    // Reopen through a fresh device + pool.
    let device = FileDevice::open(&dir.join("tree"), 512).unwrap();
    let file = PagedFile::new(Box::new(device), cfg, Default::default());
    let tree = BPlusTree::open(file).unwrap();
    assert_eq!(tree.len(), 5001);
    let c = tree.seek(123.25).unwrap();
    assert!(c.valid());
    assert_eq!(c.key(), 123.25);
    // Scan a range across leaf boundaries.
    let mut c = tree.seek(1000.0).unwrap();
    let mut count = 0;
    while c.valid() && c.key() < 1010.0 {
        count += 1;
        c.advance().unwrap();
    }
    assert_eq!(count, 20, "20 half-step keys in [1000, 1010)");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interval_tree_survives_reopen_from_disk() {
    let dir = tmpdir("itree");
    let cfg = StoreConfig { block_size: 512, pool_capacity: 16 };
    {
        let env = Env::dir(&dir, cfg).unwrap();
        let entries: Vec<IntervalEntry> = (0..2000u32)
            .map(|i| IntervalEntry {
                lo: i as f64,
                hi: i as f64 + 10.0,
                payload: i.to_le_bytes().to_vec(),
            })
            .collect();
        let mut tree = IntervalTree::build(env.create_file("itree").unwrap(), 4, entries).unwrap();
        tree.append(2500.0, 2600.0, &7777u32.to_le_bytes()).unwrap();
        tree.flush().unwrap();
    }
    let device = FileDevice::open(&dir.join("itree"), 512).unwrap();
    let file = PagedFile::new(Box::new(device), cfg, Default::default());
    let tree = IntervalTree::open(file).unwrap();
    assert_eq!(tree.len(), 2001);
    let mut hits = Vec::new();
    tree.stab(1005.5, &mut |_, _, p| {
        hits.push(u32::from_le_bytes(p.try_into().unwrap()));
    })
    .unwrap();
    hits.sort();
    // Intervals [996,1006]..[1005,1015] contain 1005.5.
    assert_eq!(hits, (996..=1005).collect::<Vec<u32>>());
    let mut tail_hits = 0;
    tree.stab(2550.0, &mut |_, _, _| tail_hits += 1).unwrap();
    assert_eq!(tail_hits, 1, "appended tail entry visible after reopen");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_env_counts_ios_like_memory() {
    // IO accounting must be identical for MemDevice and FileDevice — the
    // benchmark numbers are device-independent.
    let dir = tmpdir("parity");
    let cfg = StoreConfig { block_size: 512, pool_capacity: 8 };
    let run = |env: Env| -> (u64, u64) {
        let f = env.create_file("data").unwrap();
        let first = f.allocate(64).unwrap();
        let buf = vec![0xAB; 512];
        for i in 0..64 {
            f.write(first + i, &buf).unwrap();
        }
        f.drop_cache().unwrap();
        let mut out = vec![0u8; 512];
        for i in (0..64).step_by(3) {
            f.read(first + i, &mut out).unwrap();
        }
        let s = env.io_stats();
        (s.reads, s.writes)
    };
    let mem = run(Env::mem(cfg));
    let file = run(Env::dir(&dir, cfg).unwrap());
    assert_eq!(mem, file, "identical workloads must count identical IOs");
    std::fs::remove_dir_all(&dir).ok();
}
