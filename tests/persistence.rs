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
    // Half-step keys, and one quarter-step key with its own payload.
    let mut model: Vec<(f64, u64)> = (0..5000u64).map(|i| (i as f64 * 0.5, i)).collect();
    model.insert(247, (123.25, 999_999));
    {
        let env = Env::dir(&dir, cfg).unwrap();
        let mut loader = BulkLoader::new(env.create_file("tree").unwrap(), 8).unwrap();
        for &(k, v) in &model {
            loader.push(k, &v.to_le_bytes()).unwrap();
        }
        loader.finish().unwrap().flush().unwrap();
    }
    // Reopen through a fresh device + pool.
    let device = FileDevice::open(&dir.join("tree"), 512).unwrap();
    let file = PagedFile::new(Box::new(device), cfg, Default::default());
    let tree = BPlusTree::open(file).unwrap();
    assert_eq!(tree.len(), 5001);
    let c = tree.seek(123.25).unwrap();
    assert!(c.valid());
    assert_eq!((c.key(), c.payload()), (123.25, &999_999u64.to_le_bytes()[..]));
    // Every entry comes back in key order, across leaf boundaries.
    let mut c = tree.cursor_first().unwrap();
    let mut scanned = Vec::new();
    while c.valid() {
        scanned.push((c.key(), u64::from_le_bytes(c.payload().try_into().unwrap())));
        c.advance().unwrap();
    }
    assert_eq!(scanned, model);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interval_tree_survives_reopen_from_disk() {
    let dir = tmpdir("itree");
    let cfg = StoreConfig { block_size: 512, pool_capacity: 16 };
    // 2,000 ten-wide intervals and one long one past them.
    let spans: Vec<(f64, f64)> =
        (0..2000).map(|i| (i as f64, i as f64 + 10.0)).chain([(2500.0, 2600.0)]).collect();
    {
        let env = Env::dir(&dir, cfg).unwrap();
        let entries: Vec<IntervalEntry> = (0u32..)
            .zip(&spans)
            .map(|(i, &(lo, hi))| IntervalEntry { lo, hi, payload: i.to_le_bytes().to_vec() })
            .collect();
        let tree = IntervalTree::build(env.create_file("itree").unwrap(), 4, entries).unwrap();
        tree.flush().unwrap();
    }
    let device = FileDevice::open(&dir.join("itree"), 512).unwrap();
    let file = PagedFile::new(Box::new(device), cfg, Default::default());
    let tree = IntervalTree::open(file).unwrap();
    assert_eq!(tree.len(), 2001);
    // Intervals [996,1006]..[1005,1015] contain 1005.5; only the long one
    // contains 2550.
    for (t, want) in [(1005.5, (996..=1005).collect::<Vec<u32>>()), (2550.0, vec![2000])] {
        let mut hits = Vec::new();
        tree.stab(t, &mut |_, _, p| hits.push(u32::from_le_bytes(p.try_into().unwrap()))).unwrap();
        hits.sort();
        assert_eq!(hits, want, "stab at {t}");
    }
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
