//! Tier-1 robustness gate over every decoder of bytes read back from a
//! file or a socket: wire frames and their bodies, append records,
//! breakpoint tables, columnar live sets, EXACT3 generation metadata, the
//! interval tree's and the B+-tree's meta pages and nodes, WAL devices,
//! generation images, and a live engine's image metadata.
//!
//! Each decoder gets one valid blob, then every truncation of it and every
//! single-byte flip: each byte with all its bits flipped, then with each
//! one bit flipped. For each, the decoder must return a value or an error:
//! a panic fails the test. Each decode is also weighed with the counting
//! allocator, the value it returns still held: the heap it holds at its
//! peak beyond what it held before must stay within 2× the bytes it was
//! handed plus 256 — a decoded count may size memory only for bytes that
//! back it. The live engine's metadata is the exception: it is read while
//! an engine boots, which allocates for the boot, so it is not weighed.
//! Its image's `live_set` stays intact, so every boot must succeed instead
//! (a damaged blob costs at most the index preload), and one past a
//! damaged `engine` stamp must reopen no shard from the image.
//!
//! The trees sit in 256-byte blocks, the sets are small (12 and 6 Temp
//! objects), and a damaged file shares every page but the damaged one
//! with the valid file, so the sweep stays a few seconds of a debug build.
//!
//! One test, so nothing else in the process allocates while it counts.
//! The counts are printed as `pinned:` lines before they are asserted;
//! `ci.sh`'s `tier1` stage echoes them into its summary.

use chronorank::core::{AggKind, B2Construction, Breakpoints, Exact3, IndexConfig, RankMethod};
use chronorank::core::{AppendRecord, TemporalSet, TopK};
use chronorank::curve::ColumnarTail;
use chronorank::index::{BPlusTree, BulkLoader};
use chronorank::live::{IngestEngine, LiveConfig};
use chronorank::net::frame::{decode_append_batch, encode_append_batch};
use chronorank::net::{
    AppendOk, ErrCode, ErrorBody, Frame, OpCode, StatsBody, TopKRequest, TopKResponse, TraceContext,
};
use chronorank::serve::{MethodSet, Route, ServeQuery};
use chronorank::storage::{
    BlockDevice, Env, GenerationImage, ImageWriter, IoCounter, MemDevice, Page, PagedFile,
    StoreConfig, WriteAheadLog,
};
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Heap a decode may hold at its peak, per byte it was handed, beyond
/// [`FIXED`].
const MAX_ALLOCATION_PER_BYTE: f64 = 2.0;

/// Heap a decode may hold whatever its input: an error's message, a
/// counter handle. No decoded count sizes it.
const FIXED: u64 = 256;

/// A flip of a byte: all of its bits, or any one.
const FLIPS: [u8; 9] = [0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80];

/// Blocks small enough that a tree has inner levels and every page of it
/// is a short sweep.
const STORE: StoreConfig = StoreConfig { block_size: 256, pool_capacity: 8 };

#[derive(Default)]
struct Sweep {
    decoders: usize,
    blobs: usize,
    panics: Vec<String>,
    /// Worst heap a decode held at its peak beyond [`FIXED`] ÷ its input,
    /// and where.
    worst: (f64, String),
    /// Damaged live images whose boot was refused, and the shards the
    /// boots past a damaged `engine` stamp reopened from the image.
    refused_boots: u64,
    preloaded_past_a_damaged_stamp: u64,
}

impl Sweep {
    /// A decoder that takes the blob as it is.
    fn bytes<T, E>(&mut self, name: &str, valid: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
        self.run(name, valid, true, |b| (b.to_vec(), b.len()), |b| decode(&b));
    }

    /// Decode every truncation and single-byte flip of `valid`. `place`
    /// puts a blob where its decoder reads it (a page of a file, a file)
    /// and says how many bytes the decoder is handed; `decode` is weighed
    /// unless `weigh` is false, while what it returns is still held.
    fn run<P, T, E>(
        &mut self,
        name: &str,
        valid: &[u8],
        weigh: bool,
        place: impl Fn(&[u8]) -> (P, usize),
        decode: impl Fn(P) -> Result<T, E>,
    ) {
        assert!(decode(place(valid).0).is_ok(), "{name}: the valid blob must decode");
        self.decoders += 1;
        let truncations =
            (0..valid.len()).map(|len| (format!("{len}-byte prefix"), valid[..len].to_vec()));
        let flips =
            (0..valid.len()).flat_map(|at| FLIPS.map(|mask| (at, mask))).map(|(at, mask)| {
                let mut blob = valid.to_vec();
                blob[at] ^= mask;
                (format!("byte {at} ^ {mask:#04x}"), blob)
            });
        for (what, blob) in truncations.chain(flips) {
            self.blobs += 1;
            let (placed, input) = place(&blob);
            let before = counting::live_bytes();
            counting::reset_peak();
            let decoded = catch_unwind(AssertUnwindSafe(|| decode(placed)));
            let peak = counting::peak_bytes();
            match decoded {
                Err(_) => self.panics.push(format!("{name}: {what}")),
                Ok(_) if weigh => {
                    let extra = peak.saturating_sub(before).saturating_sub(FIXED) as f64;
                    let ratio = extra / input.max(1) as f64;
                    if ratio > self.worst.0 {
                        self.worst = (ratio, format!("{name}: {what}"));
                    }
                }
                Ok(_) => {}
            }
        }
    }
}

fn temp_set(objects: usize, avg_segments: usize) -> TemporalSet {
    TempGenerator::new(TempConfig { objects, avg_segments, ..Default::default() }).generate_set()
}

/// This run's files, removed when the sweep ends.
fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("chronorank-malformed-{}", std::process::id()))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `bytes` as a fresh in-memory device's blocks, the last zero-filled.
fn device_of(bytes: &[u8], block: usize) -> MemDevice {
    let mut dev = MemDevice::new(block);
    for (id, chunk) in bytes.chunks(block).enumerate() {
        dev.allocate(1).unwrap();
        let mut page = vec![0u8; block];
        page[..chunk.len()].copy_from_slice(chunk);
        dev.write(id as u64, &page).unwrap();
    }
    dev
}

fn wire_decoders(sweep: &mut Sweep) {
    let q = ServeQuery::approx(10.0, 90.0, 5, 0.25);
    let ctx = TraceContext { trace_id: 0xC0FFEE, parent_span: 7 };
    let request = TopKRequest(q).encode_with(Some(ctx)).unwrap();
    let frame = Frame::new(OpCode::TopK, 42, request.clone()).encode();
    sweep.bytes("frame", &frame, Frame::decode);
    sweep.bytes("topk request", &request, TopKRequest::decode);
    let response = TopKResponse {
        topk: TopK::from_ranked(vec![(4, 9.5), (1, 2.0), (7, -0.0), (3, -1.25)]),
        route: Route::Appx2,
        eps_used: Some(0.25),
        appends_applied: 11,
    };
    let response = response.encode().unwrap();
    sweep.bytes("topk response", &response, TopKResponse::decode);
    let recs: Vec<AppendRecord> = (0..4)
        .map(|i| AppendRecord { object: i, t: 100.0 + i as f64, v: 0.5 * i as f64 })
        .collect();
    let batch = encode_append_batch(&recs, Some(ctx)).unwrap();
    sweep.bytes("append batch", &batch, decode_append_batch);
    sweep.bytes("append record", &recs[1].encode(), |b| AppendRecord::decode(b).ok_or(()));
    let ok = AppendOk { accepted: 4, total_appends: 40 }.encode();
    sweep.bytes("append ok", &ok, AppendOk::decode);
    let stats = StatsBody { workers: 2, queries: 9, t_max: 5.0, ..Default::default() }.encode();
    sweep.bytes("stats body", &stats, StatsBody::decode);
    let error = ErrorBody { code: ErrCode::Engine, message: "shard 1 failed".into() };
    sweep.bytes("error body", &error.encode().unwrap(), ErrorBody::decode);
}

fn index_decoders(sweep: &mut Sweep) {
    let set = temp_set(12, 20);
    let bp = Breakpoints::b2_with_count(&set, 8, B2Construction::Efficient).unwrap();
    sweep.bytes("breakpoint table", &bp.to_bytes(), Breakpoints::from_bytes);
    let columns = set.to_columnar().to_bytes();
    sweep.bytes("columnar live set", &columns, |b| ColumnarTail::from_bytes(b).ok_or(()));

    // EXACT3 as a checkpoint image boots it: the tree's pages beside its
    // metadata blob, each swept in place (a page's truncation zero-filled
    // to its block) and read by a query. A decode is handed the blob and
    // every page.
    let exact3 = Exact3::build(&set, IndexConfig { store: STORE }).unwrap();
    exact3.flush().unwrap();
    let (meta, pages) = (exact3.meta_bytes(), pages_of(exact3.tree_file()));
    let (t1, t2) = (set.t_min() + 0.3 * set.span(), set.t_min() + 0.6 * set.span());
    let query = |(file, meta): (PagedFile, Vec<u8>)| {
        Exact3::open_parts(Env::mem(STORE), STORE, file, &meta)
            .and_then(|index| index.top_k(t1, t2, 5, AggKind::Sum))
    };
    let input = pages.len() * STORE.block_size;
    let place = |b: &[u8]| ((file_of(&pages, None), b.to_vec()), input + b.len());
    sweep.run("EXACT3 metadata", &meta, true, place, query);
    // The meta page, then the root: an inner node, since a 256-byte leaf
    // holds a few dozen of the tree's entries.
    assert!(pages.len() > 8, "the tree needs inner levels");
    for (name, page) in [("interval-tree meta page", 0), ("interval-tree root", pages.len() - 1)] {
        let place =
            |b: &[u8]| ((file_of(&pages, Some((page, b))), meta.clone()), input + meta.len());
        sweep.run(name, &pages[page], true, place, query);
    }

    // A B+-tree over 8-byte payloads: its meta page, then its root and
    // first leaf, each read by a seek, a scan and a descent to its last
    // entry.
    let env = Env::mem(STORE);
    let mut loader = BulkLoader::new(env.create_file("btree").unwrap(), 8).unwrap();
    for i in 0..200u64 {
        loader.push(i as f64 * 0.5, &i.to_le_bytes()).unwrap();
    }
    let btree = loader.finish().unwrap();
    btree.flush().unwrap();
    let pages = pages_of(btree.file());
    let read = |file: PagedFile| {
        let read = || -> chronorank::index::Result<()> {
            let tree = BPlusTree::open(file)?;
            let mut cursor = tree.seek(20.0)?;
            for _ in 0..40 {
                if !cursor.advance()? {
                    break;
                }
            }
            tree.last_entry()?;
            Ok(())
        };
        read()
    };
    let input = pages.len() * STORE.block_size;
    let root = pages.len() - 1;
    for (name, page) in [("B+-tree meta page", 0), ("B+-tree root", root), ("B+-tree leaf", 1)] {
        sweep.run(name, &pages[page], true, |b| (file_of(&pages, Some((page, b))), input), read);
    }
}

/// Every page of `file`.
fn pages_of(file: &PagedFile) -> Vec<Page> {
    (0..file.num_blocks()).map(|id| file.page(id).unwrap()).collect()
}

/// A fresh file, none of it cached, sharing `pages` but page `at`, which
/// is `blob` zero-filled to its block.
fn file_of(pages: &[Page], with: Option<(usize, &[u8])>) -> PagedFile {
    let mut device = MemDevice::new(STORE.block_size);
    device.allocate(pages.len() as u64).unwrap();
    for (id, page) in pages.iter().enumerate() {
        match with.filter(|(at, _)| *at == id) {
            Some((_, blob)) => {
                device.write(id as u64, &[blob, &vec![0; page.len() - blob.len()]].concat())
            }
            None => device.store(id as u64, page),
        }
        .unwrap();
    }
    PagedFile::new(Box::new(device), STORE, IoCounter::new())
}

fn storage_decoders(sweep: &mut Sweep) {
    // A WAL's device: its header block and three records, one spanning
    // blocks.
    let dir = scratch_dir("wal");
    let path = dir.join("wal.blk");
    let block = 64;
    {
        let device = chronorank::storage::FileDevice::create(&path, block).unwrap();
        let mut wal = WriteAheadLog::create(Box::new(device), IoCounter::new()).unwrap();
        for payload in [&b"first"[..], &[7u8; 90], b"third"] {
            wal.append(payload).unwrap();
        }
        wal.sync().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let place = |b: &[u8]| (Box::new(device_of(b, block)), b.len().div_ceil(block) * block);
    sweep.run("WAL device", &bytes, true, place, |device| {
        WriteAheadLog::open(device, IoCounter::new()).and_then(|mut wal| wal.replay(|_, _| {}))
    });

    // A generation image: a blob and a two-block paged section.
    let dir = scratch_dir("image");
    let path = dir.join("gen.img");
    let config = StoreConfig { block_size: 64, pool_capacity: 2 };
    let env = Env::mem(config);
    let paged = env.create_file("pages").unwrap();
    paged.allocate(2).unwrap();
    paged.write(1, &[0xA5; 64]).unwrap();
    let mut writer = ImageWriter::create(&path).unwrap();
    writer.add_blob("meta", b"generation metadata").unwrap();
    writer.add_paged("tree", &paged).unwrap();
    writer.finish(3).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let flipped = dir.join("flipped.img");
    let place = |b: &[u8]| {
        std::fs::write(&flipped, b).unwrap();
        (&flipped, b.len())
    };
    sweep.run("generation image", &bytes, true, place, |path| {
        let read = || -> chronorank::storage::Result<()> {
            let mut img = GenerationImage::open(path)?;
            img.blob("meta")?;
            img.paged("tree", 2, IoCounter::new())?;
            Ok(())
        };
        read()
    });
}

/// Rewrite the image at `path` with blob `name` replaced by `blob`.
fn with_blob(path: &Path, name: &str, blob: &[u8]) {
    let mut img = GenerationImage::open(path).unwrap();
    let tmp = path.with_extension("rewrite");
    let mut writer = ImageWriter::create(&tmp).unwrap();
    for section in img.section_names().into_iter().map(str::to_string).collect::<Vec<_>>() {
        match img.blob(&section) {
            Ok(_) if section == name => writer.add_blob(&section, blob).unwrap(),
            Ok(bytes) => writer.add_blob(&section, &bytes).unwrap(),
            Err(_) => {
                let file = img.paged(&section, 4, IoCounter::new()).unwrap();
                writer.add_paged(&section, &file).unwrap();
            }
        }
    }
    writer.finish(img.epoch()).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

fn live_decoders(sweep: &mut Sweep) {
    let seed = temp_set(6, 12);
    let dir = scratch_dir("live");
    let methods = MethodSet { exact1: true, appx1: false, appx2: false, appx2_plus: false };
    let config = LiveConfig { methods, wal_dir: Some(dir.clone()), ..Default::default() };
    IngestEngine::new(&seed, config.clone()).unwrap().checkpoint().unwrap();
    let image = dir.join("generation.img");
    let valid = std::fs::read(&image).unwrap();
    let q = ServeQuery::exact(seed.t_min(), seed.t_max(), 3);
    // The `live_set` blob is intact, so every damaged image must boot; a
    // damaged `engine` stamp must forfeit the preload.
    let (refused, preloaded) = (Cell::new(0), Cell::new(0));
    for name in ["engine", "s0/meta"] {
        let blob = GenerationImage::open(&image).unwrap().blob(name).unwrap();
        let place = |b: &[u8]| {
            with_blob(&image, name, b);
            (b != blob.as_slice(), b.len())
        };
        sweep.run(&format!("live image {name}"), &blob, false, place, |damaged| {
            let booted = IngestEngine::new(&seed, config.clone());
            std::fs::write(&image, &valid).unwrap();
            let engine = booted
                .inspect_err(|_| refused.set(refused.get() + 1))
                .map_err(|e| e.to_string())?;
            if damaged && name == "engine" {
                preloaded.set(preloaded.get() + engine.report().preloaded_shards);
            }
            engine.query(q).map_err(|e| e.to_string())
        });
    }
    sweep.refused_boots = refused.get();
    sweep.preloaded_past_a_damaged_stamp = preloaded.get();
}

#[test]
fn every_truncation_and_byte_flip_of_a_container_decodes_or_is_refused() {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut sweep = Sweep::default();
    wire_decoders(&mut sweep);
    index_decoders(&mut sweep);
    storage_decoders(&mut sweep);
    live_decoders(&mut sweep);
    std::panic::set_hook(quiet);
    std::fs::remove_dir_all(scratch_root()).ok();
    let Sweep { decoders, blobs, panics, worst, refused_boots, preloaded_past_a_damaged_stamp } =
        sweep;
    println!("pinned: decoders of untrusted bytes swept: {decoders}");
    println!("pinned: truncated or flipped blobs they decoded: {blobs}");
    println!("pinned: panics over those blobs: {}", panics.len());
    println!("pinned: live image blobs that refuse a boot: {refused_boots}");
    println!("pinned: worst heap a decode held beyond {FIXED} bytes ÷ its input: {:.2}", worst.0);
    println!("measured: worst at {}", worst.1);
    assert!(panics.is_empty(), "{panics:?}");
    assert_eq!(refused_boots, 0, "a live image with an intact live set must boot");
    assert_eq!(preloaded_past_a_damaged_stamp, 0, "a damaged engine stamp forfeits the preload");
    assert!(worst.0 <= MAX_ALLOCATION_PER_BYTE, "{worst:?}");
}
