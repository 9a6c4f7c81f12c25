//! The ingest engine: durable appends in, fresh answers out.
//!
//! Appends take `&mut self` (there is exactly one WAL) and are applied to
//! the owning shards, which hold the data, before the call returns. The
//! query path is the engine body serve runs too — [`Engine::execute`] on
//! the [`Engine`] an [`IngestEngine`] owns (and derefs to), one window of
//! queries scattered as one job to each shard's own pool worker. It takes
//! `&self`: every call gathers on its own reply channel, so any number of
//! caller threads can query one engine concurrently — the network tier
//! wraps an `IngestEngine` in an `RwLock` and lets reads overlap while
//! appends serialize, and installs with them.

use crate::config::LiveConfig;
use crate::generation::{GenPart, GenParts};
use crate::obs::LiveObs;
use crate::report::{LiveReport, PauseHistogram};
use crate::shard::{live_curves, LiveShard, ShardStatus, Step};
use chronorank_core::{AppendRecord, CoreError, ObjectId, TemporalSet};
use chronorank_curve::{ColumnarTail, Segment};
use chronorank_obs::{elapsed_us, Registry};
use chronorank_serve::{to_local, Engine, MethodSet, ServeError, ShardGauges};
use chronorank_storage::{
    DecodeError, Env, FileDevice, GenerationImage, ImageWriter, IoCounter, Reader, StorageError,
    WriteAheadLog,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Errors surfaced by the live layer.
#[derive(Debug)]
pub enum LiveError {
    /// The serving side failed: a thread could not be spawned, a shard
    /// failed its bootstrap build, a query failed on some shard, or a pool
    /// worker died.
    Serve(ServeError),
    /// WAL / snapshot storage failure.
    Storage(StorageError),
    /// An append was rejected (unknown object, non-monotone time, …).
    Append(String),
    /// Snapshot IO failure during checkpoint or recovery.
    Snapshot(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Serve(e) => write!(f, "{e}"),
            LiveError::Storage(e) => write!(f, "wal: {e}"),
            LiveError::Append(e) => write!(f, "append rejected: {e}"),
            LiveError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<DecodeError> for LiveError {
    fn from(e: DecodeError) -> Self {
        LiveError::Snapshot(e.to_string())
    }
}

impl From<StorageError> for LiveError {
    fn from(e: StorageError) -> Self {
        LiveError::Storage(e)
    }
}

impl From<ServeError> for LiveError {
    fn from(e: ServeError) -> Self {
        LiveError::Serve(e)
    }
}

/// The WAL-backed live ingest/serving engine (see crate docs): the
/// write-ahead log, each object's right edge, and an [`Engine`] over the
/// `W` ingest shards — each pairing its partition's columns (the only copy
/// of the live data) with an epoch-swapped frozen generation — which
/// routes, answers and counts every query; the query methods are the
/// engine's, through `Deref`.
pub struct IngestEngine {
    /// Each object's last point `(t, v)`, by global id: the edge an append
    /// must extend and the left end of the segment it adds.
    last: Vec<(f64, f64)>,
    wal: WriteAheadLog,
    image_path: Option<PathBuf>,
    /// Its live mass grows with every appended segment, with exactly the
    /// arithmetic of [`TemporalSet::append_segment`].
    engine: Engine<LiveShard>,
    appends: u64,
    batches: u64,
    checkpoints: u64,
    /// What checkpoint images stamp (the preload gate).
    stamp: Stamp,
    /// Pre-resolved metric handles (process-global registry).
    obs: LiveObs,
}

/// The topology a checkpoint image's `engine` blob stamps, which a boot
/// must match to reopen its generations: worker count, block size and
/// kmax, then the bit-packed [`MethodSet`].
type Stamp = ([u64; 3], u8);

fn stamp(w: usize, config: &LiveConfig) -> Stamp {
    let m: MethodSet = config.methods;
    let flags = (m.exact1 as u8)
        | ((m.appx1 as u8) << 1)
        | ((m.appx2 as u8) << 2)
        | ((m.appx2_plus as u8) << 3);
    ([w, config.store.block_size, config.approx.kmax].map(|n| n as u64), flags)
}

fn read_stamp(meta: &[u8]) -> Result<Stamp, DecodeError> {
    let mut r = Reader::new(meta);
    let stamped = [r.u64("worker count")?, r.u64("block size")?, r.u64("kmax")?];
    let stamp = (stamped, r.u8("method flags")?);
    r.end("engine metadata")?;
    Ok(stamp)
}

impl IngestEngine {
    /// Boot the engine over `seed`, **recovering first** when the
    /// configured WAL directory already holds state: the base set is the
    /// latest checkpoint snapshot (or `seed` if none), every durable WAL
    /// record is replayed onto it, and the shards bootstrap from the
    /// recovered set — so answers after a crash equal answers before it.
    /// The recovered set is dropped once it is partitioned: from then on
    /// the shards' columns are the data.
    pub fn new(seed: &TemporalSet, config: LiveConfig) -> Result<Self, LiveError> {
        let obs = LiveObs::attach(Registry::global());
        let t_recover = Instant::now();
        let (wal, base, image_path, mut preloads) = Self::recover(seed, &config)?;
        obs.recovery_us.set_u64(elapsed_us(t_recover));
        let w = config.workers.clamp(1, base.num_objects());
        if preloads.len() != w {
            preloads = (0..w).map(|_| None).collect();
        }
        let last = base.objects().iter().map(|o| o.curve.point(o.curve.num_points() - 1)).collect();
        // Every shard boots (generation 0, or its reopen) on a thread of
        // its own, all at once.
        let plan = (config.store.block_size, config.approx.r);
        let engine =
            Engine::boot(&base, preloads, plan, &Registry::noop(), |shard, (subset, p)| {
                LiveShard::boot(shard, subset, config.clone(), p, obs.shard.clone())
            })?;
        drop(base);
        Ok(Self {
            last,
            wal,
            image_path,
            engine,
            appends: 0,
            batches: 0,
            checkpoints: 0,
            stamp: stamp(w, &config),
            obs,
        })
    }

    /// Recovery half of [`IngestEngine::new`] — resolves the WAL, the base
    /// set, and (when a checkpoint image exists and matches the config)
    /// the per-shard frozen generations to reopen instead of rebuilding.
    ///
    /// The WAL epoch decides what replays: a checkpoint stamps its image
    /// with `S = epoch + 1` *before* truncating the log (which bumps the
    /// epoch to exactly `S`). So `wal.epoch() >= S` means the log holds
    /// only post-checkpoint records — replay all of them; `< S` means the
    /// checkpoint crashed between image publish and truncation, and every
    /// logged record is already inside the image — skip the log entirely.
    #[allow(clippy::type_complexity)]
    fn recover(
        seed: &TemporalSet,
        config: &LiveConfig,
    ) -> Result<(WriteAheadLog, TemporalSet, Option<PathBuf>, Vec<Option<GenParts>>), LiveError>
    {
        let Some(dir) = &config.wal_dir else {
            return Ok((
                WriteAheadLog::mem(config.store.block_size),
                seed.clone(),
                None,
                Vec::new(),
            ));
        };
        std::fs::create_dir_all(dir).map_err(|e| LiveError::Snapshot(e.to_string()))?;
        let wal_path = dir.join("wal.blk");
        let device = if wal_path.exists() {
            FileDevice::open(&wal_path, config.store.block_size)?
        } else {
            FileDevice::create(&wal_path, config.store.block_size)?
        };
        let mut wal = WriteAheadLog::open_or_create(Box::new(device), IoCounter::new())?;
        let image_path = dir.join("generation.img");
        let (mut base, image_epoch, preloads) = if image_path.exists() {
            let (set, epoch, preloads) = Self::load_image(&image_path, config)?;
            (set, Some(epoch), preloads)
        } else {
            (seed.clone(), None, Vec::new())
        };
        if image_epoch.is_none_or(|s| wal.epoch() >= s) {
            // Replay stays idempotent as a second line of defense: a record
            // whose time does not extend its object is already part of the
            // image.
            let mut bad: Option<String> = None;
            wal.replay(|lsn, payload| {
                if bad.is_some() {
                    return;
                }
                match AppendRecord::decode(payload) {
                    Some(rec) => match base.object(rec.object) {
                        Ok(o) if rec.t > o.curve.end() => {
                            if let Err(e) = base.apply(rec) {
                                bad = Some(format!("replay lsn {lsn}: {e}"));
                            }
                        }
                        Ok(_) => {} // already absorbed by the checkpoint
                        Err(e) => bad = Some(format!("replay lsn {lsn}: {e}")),
                    },
                    None => bad = Some(format!("replay lsn {lsn}: undecodable record")),
                }
            })?;
            if let Some(e) = bad {
                return Err(LiveError::Snapshot(e));
            }
        }
        Ok((wal, base, Some(image_path), preloads))
    }

    /// Load a checkpoint image: the live set (always used — it IS the
    /// checkpoint) and, when the persisted topology matches the current
    /// config, the per-shard generation parts to reopen. A topology
    /// mismatch (worker count, block size, kmax, method set) only forfeits
    /// the index preload — the data still recovers from the image.
    fn load_image(
        path: &Path,
        config: &LiveConfig,
    ) -> Result<(TemporalSet, u64, Vec<Option<GenParts>>), LiveError> {
        let mut img = GenerationImage::open(path)?;
        let columns = ColumnarTail::from_bytes(&img.blob("live_set")?)
            .ok_or_else(|| LiveError::Snapshot("live_set: malformed columnar image".into()))?;
        let set = TemporalSet::from_columnar(&columns)
            .map_err(|e| LiveError::Snapshot(format!("live_set: {e}")))?;
        let epoch = img.epoch();
        let w = config.workers.clamp(1, set.num_objects());
        // A missing or unreadable stamp forfeits the preload as a
        // mismatched one does.
        let stamped = img.blob("engine").ok().and_then(|meta| read_stamp(&meta).ok());
        if stamped != Some(stamp(w, config)) {
            return Ok((set, epoch, Vec::new()));
        }
        let mut preloads = Vec::with_capacity(w);
        for shard in 0..w {
            // A missing or unreadable shard section falls back to a fresh
            // build for that shard only.
            preloads.push(Self::load_shard_parts(&mut img, shard, config).ok());
        }
        Ok((set, epoch, preloads))
    }

    /// Extract one shard's generation parts from an open image.
    fn load_shard_parts(
        img: &mut GenerationImage,
        shard: usize,
        config: &LiveConfig,
    ) -> Result<GenParts, LiveError> {
        let meta = img.blob(&format!("s{shard}/meta"))?;
        let mut r = Reader::new(&meta);
        let generation = r.u64("generation")?;
        // This byte said "an EXACT1 tree follows" in images written while
        // generations still built one; those sections are simply not read.
        r.u8("EXACT1 flag")?;
        let has_bp = r.u8("breakpoints flag")? != 0;
        let count = r.count("frozen edge count", 8)?;
        let frozen_end = r.f64s("frozen edges", count)?;
        r.end("shard metadata")?;
        let mut part = |name: &str| -> Result<GenPart, LiveError> {
            let env = Env::mem(config.store);
            let file =
                img.paged(&format!("s{shard}/{name}_pages"), config.store.pool_capacity, env.io())?;
            let meta = img.blob(&format!("s{shard}/{name}_meta"))?;
            Ok(GenPart { env, file, meta })
        };
        let exact3 = part("exact3")?;
        let breakpoints =
            if has_bp { Some(img.blob(&format!("s{shard}/breakpoints"))?) } else { None };
        Ok(GenParts { generation, frozen_end, exact3, breakpoints })
    }

    /// The live data (appends applied) as a row-form set, assembled from
    /// the shards' curves on every call: it shares the columns of every
    /// curve without an appended log and copies the others. The test and
    /// diagnostic surface (ground-truth assertions, segment counts);
    /// nothing on the append, query or STATS path calls it.
    pub fn live_set(&self) -> TemporalSet {
        TemporalSet::from_curves(live_curves(self.engine.shards())).expect("an engine has objects")
    }

    /// Records durably applied over the engine's lifetime (cheaper than
    /// assembling a full [`LiveReport`] when only this counter is needed).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Append one record durably (one WAL sync). Prefer
    /// [`IngestEngine::append_batch`] for throughput.
    pub fn append(&mut self, rec: AppendRecord) -> Result<(), LiveError> {
        self.append_batch(std::slice::from_ref(&rec))
    }

    /// Append a batch durably: the whole batch is validated against the
    /// objects' right edges **before the first WAL byte** (the checks mirror
    /// `PiecewiseLinear::append` exactly), so a rejected batch leaves no
    /// trace anywhere; then every record is written to the WAL,
    /// group-committed with **one** sync, and applied to the owning shards,
    /// before this returns. A WAL write or sync failure is returned with
    /// the records logged before it applied: the log and the shards never
    /// disagree about what was appended.
    /// An install point (see [`IngestEngine::finish_rebuilds`]): each shard
    /// installs a finished build before applying; a rejected batch does not.
    pub fn append_batch(&mut self, recs: &[AppendRecord]) -> Result<(), LiveError> {
        if recs.is_empty() {
            return Ok(());
        }
        self.validate(recs)?;
        let w = self.engine.workers();
        let mut per_shard: Vec<Vec<AppendRecord>> = vec![Vec::new(); w];
        let mut accepted = 0u64;
        let mut failed = None;
        for rec in recs {
            let t_append = Instant::now();
            if let Err(e) = self.wal.append(&rec.encode()) {
                failed = Some(LiveError::Storage(e));
                break;
            }
            self.obs.wal_append_us.record(elapsed_us(t_append));
            let (prev_t, prev_v) =
                std::mem::replace(&mut self.last[rec.object as usize], (rec.t, rec.v));
            let mass =
                Segment::new(prev_t, prev_v, rec.t, rec.v).abs_integral_clipped(prev_t, rec.t);
            self.engine.grow(mass, rec.t);
            accepted += 1;
            let (shard, object) = to_local(rec.object, w);
            per_shard[shard].push(AppendRecord { object, ..*rec });
        }
        if accepted > 0 {
            // Even if the sync fails the logged records reach the shards —
            // the caller learns about the failed sync.
            let t_sync = Instant::now();
            let synced = self.wal.sync();
            self.obs.wal_fsync_us.record(elapsed_us(t_sync));
            self.obs.batch_size.record(accepted);
            let steps =
                self.engine.shards().iter().zip(&per_shard).map(|(s, b)| s.apply(b)).collect();
            self.stepped(steps);
            self.appends += accepted;
            self.batches += 1;
            if let Err(e) = synced {
                failed.get_or_insert(LiveError::Storage(e));
            }
        }
        failed.map_or(Ok(()), Err)
    }

    /// Fold what a step left the shards with into what queries read.
    fn stepped(&mut self, steps: Vec<Step>) {
        let installed = steps.iter().any(|s| s.installed);
        self.engine.settle(installed, steps.iter().any(|s| s.pending));
    }

    /// Every shard installs a finished build (with `wait`, any pending one).
    fn install(&mut self, wait: bool) {
        let steps = self.engine.shards().iter().map(|s| s.install(wait)).collect();
        self.stepped(steps);
    }

    /// The install point for a quiet writer: wait for every pending build
    /// and install it. A build that finishes while no append arrives
    /// waits for this, a checkpoint or the next append; until then queries
    /// are answered as during any build.
    pub fn finish_rebuilds(&mut self) {
        self.install(true);
    }

    /// Every record must extend its object past the edge the records before
    /// it in the batch leave, with finite values.
    fn validate(&self, recs: &[AppendRecord]) -> Result<(), LiveError> {
        let mut batch_end: HashMap<ObjectId, f64> = HashMap::new();
        for rec in recs {
            let known = self.last.get(rec.object as usize).map(|&(t, _)| t);
            let Some(end) = batch_end.get(&rec.object).copied().or(known) else {
                return Err(LiveError::Append(CoreError::NoSuchObject(rec.object).to_string()));
            };
            if !rec.t.is_finite() || !rec.v.is_finite() || rec.t <= end {
                return Err(LiveError::Append(format!(
                    "record must extend object {} past t = {end} with finite values, \
                     got (t = {}, v = {})",
                    rec.object, rec.t, rec.v
                )));
            }
            batch_end.insert(rec.object, rec.t);
        }
        Ok(())
    }

    /// Checkpoint: publish a generation image next to the WAL — the live
    /// set, plus every shard's frozen generation captured page-for-page
    /// (an append is applied before it returns, so everything durable is
    /// already in the shards) — then truncate the WAL. The image is stamped
    /// `wal.epoch() + 1` and written tmp+rename *before* the truncation
    /// bumps the epoch to that stamp, so a crash anywhere in between
    /// recovers exactly (see [`IngestEngine::new`]'s recovery contract).
    /// An install point: finished builds are installed before the image
    /// (see [`IngestEngine::finish_rebuilds`]).
    pub fn checkpoint(&mut self) -> Result<(), LiveError> {
        let t0 = Instant::now();
        self.install(false);
        self.write_checkpoint_image()?;
        self.wal.truncate()?;
        self.checkpoints += 1;
        self.obs.checkpoint_us.record(elapsed_us(t0));
        Ok(())
    }

    /// Fault-injection hook: the first half of [`IngestEngine::checkpoint`]
    /// only — publishes the image but "crashes" before the WAL truncation.
    /// Recovery after this must produce the same answers as a completed
    /// checkpoint (the epoch gate skips the already-absorbed records).
    #[doc(hidden)]
    pub fn checkpoint_without_truncate(&mut self) -> Result<(), LiveError> {
        self.install(false);
        self.write_checkpoint_image()
    }

    /// Publish the checkpoint image: the live set plus every shard's
    /// installed generation.
    fn write_checkpoint_image(&mut self) -> Result<(), LiveError> {
        let Some(path) = &self.image_path else { return Ok(()) };
        let mut writer = ImageWriter::create(path)?;
        // The live set travels in columnar (PAX) form: one shared offset
        // table plus contiguous t/v columns, gathered from the shards'
        // curves.
        let shards = self.engine.shards();
        let live = ColumnarTail::from_curves(live_curves(shards));
        writer.add_blob("live_set", &live.to_bytes())?;
        let mut meta: Vec<u8> = self.stamp.0.iter().flat_map(|n| n.to_le_bytes()).collect();
        meta.push(self.stamp.1);
        writer.add_blob("engine", &meta)?;
        for (shard, live) in shards.iter().enumerate() {
            let (gen, frozen_end) = live.checkpoint();
            gen.add_to_image(&mut writer, &format!("s{shard}/"), &frozen_end)
                .map_err(|e| LiveError::Snapshot(e.to_string()))?;
        }
        writer.finish(self.wal.epoch() + 1)?;
        Ok(())
    }

    /// A snapshot of everything ingested and served so far, every shard's
    /// statistics read now (each under its shard's lock).
    pub fn report(&self) -> LiveReport {
        let statuses: Vec<ShardStatus> = self.engine.shards().iter().map(|s| s.status()).collect();
        let counters = self.engine.counters();
        let mut swap_pause = PauseHistogram::default();
        for s in statuses.iter() {
            swap_pause.merge(&s.counters.swap_pause);
        }
        LiveReport {
            workers: statuses.len(),
            appends: self.appends,
            batches: self.batches,
            queries: counters.queries,
            elapsed_secs: counters.elapsed_secs,
            wal: self.wal.io_stats(),
            index_io: statuses.iter().map(|s| s.io).sum(),
            rebuilds: statuses.iter().map(|s| s.counters.rebuilds).sum(),
            rebuilds_in_flight: statuses.iter().filter(|s| s.rebuild_in_flight).count() as u64,
            index_bytes: statuses.iter().map(|s| s.size_bytes).sum(),
            build_secs: statuses.iter().map(|s| s.counters.build_secs).sum(),
            build_stages: statuses.iter().map(|s| s.counters.build_stages).sum(),
            swap_pause,
            queries_during_rebuild: counters.queries_during_rebuild,
            cache_hits: statuses.iter().map(|s| s.cache.hits).sum(),
            cache_lookups: statuses.iter().map(|s| s.cache.lookups).sum(),
            cache_invalidations: statuses.iter().map(|s| s.cache.invalidations).sum(),
            tail_segments: statuses.iter().map(|s| s.tail_segments).sum(),
            tail_bytes: statuses.iter().map(|s| s.tail_bytes).sum(),
            tail_objects: statuses.iter().map(|s| s.tail_objects).sum(),
            built_mass: statuses.iter().map(|s| s.built_mass).sum(),
            live_mass: self.engine.routing_snapshot().1.live_mass,
            generations: statuses.iter().map(|s| s.generation).max().unwrap_or(0),
            checkpoints: self.checkpoints,
            preloaded_shards: statuses.iter().filter(|s| s.counters.reopened).count() as u64,
        }
    }

    /// Mirror the current [`LiveReport`] into the process metric
    /// [`Registry`] as gauges, so one scrape of the registry carries the
    /// live tier alongside the serve tier. `report()` stays the
    /// programmatic surface; these gauges are the same numbers under
    /// stable metric names.
    pub fn sync_obs(&self) {
        let registry = &self.obs.registry;
        if registry.is_noop() {
            return;
        }
        let r = self.report();
        let routes: Vec<_> = self.engine.shards().iter().map(|s| s.status().route_bytes).collect();
        ShardGauges {
            workers: r.workers,
            queries: r.queries,
            cache: (r.cache_hits, r.cache_lookups),
            index_bytes: r.index_bytes,
            build_stages: r.build_stages,
            route_bytes: std::array::from_fn(|i| routes.iter().map(|b| b[i]).sum()),
        }
        .sync(registry, "live", "rebuild");
        let g = |name: &str, help: &str, v: u64| registry.gauge(name, help).set_u64(v);
        g("chronorank_live_appends", "records appended (WAL-durable)", r.appends);
        g("chronorank_live_batches", "durable group-commits", r.batches);
        g("chronorank_live_rebuilds", "completed generation rebuilds", r.rebuilds);
        g(
            "chronorank_live_rebuilds_in_flight",
            "shards with a rebuild in flight",
            r.rebuilds_in_flight,
        );
        g("chronorank_live_tail_segments", "appended segments in mutable tails", r.tail_segments);
        g("chronorank_live_tail_bytes", "bytes held by the shards' columnar tails", r.tail_bytes);
        g("chronorank_live_tail_objects", "objects with a non-empty appended tail", r.tail_objects);
        g(
            "chronorank_live_queries_during_rebuild",
            "queries served while a rebuild was in flight",
            r.queries_during_rebuild,
        );
        g(
            "chronorank_live_cache_invalidations",
            "cache entries recomputed because appends made them stale",
            r.cache_invalidations,
        );
        g("chronorank_live_checkpoints", "checkpoints taken (WAL truncations)", r.checkpoints);
        g(
            "chronorank_live_preloaded_shards",
            "shards reopened page-for-page from the checkpoint image",
            r.preloaded_shards,
        );
        g("chronorank_live_generations", "highest generation published", r.generations);
        g("chronorank_live_wal_writes", "WAL block flushes", r.wal.wal_writes);
        g("chronorank_live_wal_bytes", "WAL payload bytes", r.wal.wal_bytes);
        g("chronorank_live_index_reads", "index block reads across generations", r.index_io.reads);
    }
}

impl std::ops::Deref for IngestEngine {
    type Target = Engine<LiveShard>;

    /// The query side: routing, answering and counting are the engine's.
    fn deref(&self) -> &Engine<LiveShard> {
        &self.engine
    }
}

impl Drop for IngestEngine {
    /// A build cannot be interrupted: wait for it, so no builder outlives us.
    fn drop(&mut self) {
        self.finish_rebuilds();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RebuildPolicy;
    use chronorank_workloads::{AppendStream, AppendStreamConfig, StockConfig, StockGenerator};
    use std::sync::Arc;

    /// What only the crate can see (the bounded wait is `tests/engine.rs`'s):
    /// a generation builder never owns a shard, not even mid-build (each is
    /// held by the pool and its own worker only), and once `drop` returns
    /// no pool worker does either.
    #[test]
    fn a_dropped_engine_leaves_no_thread_holding_a_shard() {
        let generator = StockGenerator::new(StockConfig {
            objects: 400,
            days: 8,
            readings_per_day: 6,
            seed: 17,
        });
        let stream = AppendStream::from_generator(
            &generator,
            AppendStreamConfig { base_fraction: 0.5, batch: 64, ..Default::default() },
        );
        let config = LiveConfig {
            workers: 2,
            rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 1 },
            ..Default::default()
        };
        let mut engine = IngestEngine::new(&stream.base_set(), config).unwrap();
        engine.append_batch(stream.batches().next().unwrap()).unwrap();
        assert!(engine.report().rebuilds_in_flight > 0, "the drop below must race a build");
        let held = |s: &Arc<LiveShard>| Arc::strong_count(s) == 2;
        assert!(engine.shards().iter().all(held), "a builder holds a shard");
        let shards: Vec<_> = engine.shards().iter().map(Arc::downgrade).collect();
        drop(engine);
        assert!(shards.iter().all(|s| s.strong_count() == 0), "a thread outlived the engine");
    }
}
