//! Storage environments: factories for [`PagedFile`]s that share one IO
//! counter and one configuration.
//!
//! An index structure in this workspace opens all of its files from a single
//! [`Env`]; the environment's counter then reports the structure's total IO,
//! mirroring how the paper charges all block transfers of a method to one
//! budget.
//!
//! `Env` is `Send + Sync`: the name registry sits behind a [`Mutex`] and the
//! child counter is atomic, so concurrent builders (parallel shard builds,
//! generation hosts) can open files and spawn sub-environments from one
//! shared environment without racing the namespace bookkeeping.

use crate::device::{FileDevice, MemDevice};
use crate::error::{Result, StorageError};
use crate::pool::{PagedFile, StoreConfig};
use crate::stats::{IoCounter, IoStats};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where an [`Env`] places its files.
#[derive(Debug, Clone)]
enum EnvBacking {
    /// Everything in RAM ([`MemDevice`]); IO counting is identical to disk.
    Memory,
    /// One OS file per logical file inside this directory.
    Directory(PathBuf),
}

/// A factory for [`PagedFile`]s sharing one [`IoCounter`].
pub struct Env {
    backing: EnvBacking,
    config: StoreConfig,
    counter: IoCounter,
    names: Mutex<HashSet<String>>,
    /// Name prefix (used by [`Env::child`] to give sub-environments their
    /// own namespace while sharing the counter).
    prefix: String,
    children: AtomicU32,
    /// Files created through this environment and every sub-environment
    /// spawned from it (see [`Env::num_files`]).
    files: Arc<AtomicUsize>,
}

impl Env {
    /// An in-memory environment (the default for tests and benchmarks).
    pub fn mem(config: StoreConfig) -> Self {
        Self {
            backing: EnvBacking::Memory,
            config,
            counter: IoCounter::new(),
            names: Mutex::new(HashSet::new()),
            prefix: String::new(),
            children: AtomicU32::new(0),
            files: Arc::default(),
        }
    }

    /// A directory-backed environment; the directory is created if missing.
    pub fn dir(path: impl Into<PathBuf>, config: StoreConfig) -> Result<Self> {
        let path = path.into();
        std::fs::create_dir_all(&path)?;
        Ok(Self {
            backing: EnvBacking::Directory(path),
            config,
            counter: IoCounter::new(),
            names: Mutex::new(HashSet::new()),
            prefix: String::new(),
            children: AtomicU32::new(0),
            files: Arc::default(),
        })
    }

    /// A sub-environment with its own file namespace but **sharing this
    /// environment's IO counter** — used by composite indexes (e.g. APPX1
    /// combines a directory tree, sub-trees and a list file and reports one
    /// IO total).
    /// Concurrent callers get distinct namespaces: the child ordinal is a
    /// single atomic increment.
    pub fn child(&self) -> Env {
        self.sub_env(self.counter.clone())
    }

    /// A sub-environment with its own file namespace **and its own IO
    /// counter** — for a structure several indexes share (APPX2 and APPX2+
    /// probe one QUERY2 index): each sharer credits the reads its own
    /// queries did there to itself ([`IoCounter::credit`]), so no read is
    /// charged to an index that did not ask for it.
    pub fn detached_child(&self) -> Env {
        self.sub_env(IoCounter::new())
    }

    fn sub_env(&self, counter: IoCounter) -> Env {
        let n = self.children.fetch_add(1, Ordering::Relaxed);
        Env {
            backing: self.backing.clone(),
            config: self.config,
            counter,
            names: Mutex::new(HashSet::new()),
            prefix: format!("{}c{n}_", self.prefix),
            children: AtomicU32::new(0),
            files: Arc::clone(&self.files),
        }
    }

    /// How many [`PagedFile`]s this environment and all of its
    /// sub-environments have created — each one holds a private buffer
    /// pool, so this is the number a memory budget divides its pool share
    /// by.
    pub fn num_files(&self) -> usize {
        self.files.load(Ordering::Relaxed)
    }

    /// The environment's block size.
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// The environment's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Create a new logical file. Names must be unique within the
    /// environment; the check-and-insert is atomic under the registry
    /// lock, so two threads racing on one name see exactly one winner.
    pub fn create_file(&self, name: &str) -> Result<PagedFile> {
        self.new_file(name, false)
    }

    /// [`Env::create_file`] for build-time scratch (external-sort runs,
    /// fence spills): a directory-backed environment removes the file when
    /// the returned [`PagedFile`] drops, so a finished — or failed — build
    /// leaves only its index files behind. In memory the two are the same.
    pub fn create_scratch(&self, name: &str) -> Result<PagedFile> {
        self.new_file(name, true)
    }

    fn new_file(&self, name: &str, scratch: bool) -> Result<PagedFile> {
        {
            let mut names = self.names.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !names.insert(name.to_string()) {
                return Err(StorageError::DuplicateFile(name.to_string()));
            }
        }
        let device: Box<dyn crate::BlockDevice> = match &self.backing {
            EnvBacking::Memory => Box::new(MemDevice::new(self.config.block_size)),
            EnvBacking::Directory(dir) => {
                let path = dir.join(sanitize(&format!("{}{name}", self.prefix)));
                let create = if scratch { FileDevice::create_scratch } else { FileDevice::create };
                Box::new(create(&path, self.config.block_size)?)
            }
        };
        self.files.fetch_add(1, Ordering::Relaxed);
        Ok(PagedFile::new(device, self.config, self.counter.clone()))
    }

    /// The shared counter.
    pub fn io(&self) -> IoCounter {
        self.counter.clone()
    }

    /// Snapshot of the shared counter.
    pub fn io_stats(&self) -> IoStats {
        self.counter.snapshot()
    }

    /// Zero the shared counter.
    pub fn reset_io(&self) {
        self.counter.reset()
    }
}

/// Keep file names filesystem-safe.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(
            |c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' { c } else { '_' },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_share_the_environment_counter() {
        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 2 });
        let a = env.create_file("a").unwrap();
        let b = env.create_file("b").unwrap();
        let ia = a.allocate(1).unwrap();
        let ib = b.allocate(1).unwrap();
        a.write(ia, &[1u8; 128]).unwrap();
        b.write(ib, &[2u8; 128]).unwrap();
        a.drop_cache().unwrap();
        b.drop_cache().unwrap();
        let mut buf = vec![0u8; 128];
        a.read(ia, &mut buf).unwrap();
        b.read(ib, &mut buf).unwrap();
        let s = env.io_stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let env = Env::mem(StoreConfig::default());
        env.create_file("x").unwrap();
        assert!(matches!(env.create_file("x"), Err(StorageError::DuplicateFile(_))));
    }

    #[test]
    fn dir_backed_env_round_trips() {
        let dir = std::env::temp_dir().join(format!("chronorank-env-{}", std::process::id()));
        let env = Env::dir(&dir, StoreConfig { block_size: 256, pool_capacity: 2 }).unwrap();
        let f = env.create_file("weird/name with spaces").unwrap();
        let id = f.allocate(1).unwrap();
        f.write(id, &vec![9u8; 256]).unwrap();
        f.flush().unwrap();
        let mut buf = vec![0u8; 256];
        f.drop_cache().unwrap();
        f.read(id, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_environments_count_files_together_and_detached_ones_count_io_apart() {
        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 2 });
        let (child, detached) = (env.child(), env.detached_child());
        for e in [&env, &child, &detached] {
            let f = e.create_file("f").unwrap();
            let id = f.allocate(1).unwrap();
            f.write(id, &[7u8; 128]).unwrap();
            f.flush().unwrap();
        }
        assert_eq!(env.num_files(), 3);
        assert_eq!(detached.num_files(), 3);
        assert_eq!(env.io_stats().writes, 2, "the child shares the counter");
        assert_eq!(detached.io_stats().writes, 1, "the detached child owns its counter");
    }

    #[test]
    fn reset_io_zeroes_shared_counter() {
        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 2 });
        let f = env.create_file("f").unwrap();
        let id = f.allocate(1).unwrap();
        f.write(id, &[0u8; 128]).unwrap();
        f.flush().unwrap();
        assert!(env.io_stats().writes > 0);
        env.reset_io();
        assert_eq!(env.io_stats(), IoStats::default());
    }

    #[test]
    fn env_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Env>();
    }

    #[test]
    fn concurrent_create_file_and_child_never_collide() {
        // Regression for the pre-refactor `RefCell<HashSet>` / `Cell<u32>`
        // bookkeeping: 8 threads hammer one shared Env with unique names,
        // one contended duplicate name, and child() spawns. Exactly one
        // thread may win the duplicate; child prefixes must all differ.
        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 2 });
        let dup_wins = std::sync::atomic::AtomicU32::new(0);
        let prefixes = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let env = &env;
                let dup_wins = &dup_wins;
                let prefixes = &prefixes;
                scope.spawn(move || {
                    for i in 0..50 {
                        env.create_file(&format!("t{t}_f{i}")).unwrap();
                        let child = env.child();
                        // Children share the counter but not the namespace.
                        child.create_file("same-name-every-child").unwrap();
                        assert!(prefixes.lock().unwrap().insert(child.prefix.clone()));
                    }
                    if env.create_file("contended").is_ok() {
                        dup_wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(dup_wins.load(Ordering::Relaxed), 1, "exactly one winner for a raced name");
        assert_eq!(prefixes.lock().unwrap().len(), 8 * 50);
        assert_eq!(env.children.load(Ordering::Relaxed), 8 * 50);
    }
}
