//! The ingest engine: durable appends in, fresh answers out.
//!
//! Appends take `&mut self` (there is exactly one WAL) and are applied to
//! the owning shards, which hold the data, before the call returns. The query
//! path — [`IngestEngine::execute`], one window of queries scattered as one
//! pool task per shard — takes `&self`: every call gathers on its own reply
//! channel, so any number of caller threads can query one engine
//! concurrently — the network tier wraps an `IngestEngine` in an `RwLock`
//! and lets reads overlap while appends serialize.

use crate::config::LiveConfig;
use crate::generation::{GenPart, GenParts};
use crate::obs::LiveObs;
use crate::report::{LiveReport, PauseHistogram};
use crate::shard::{live_columns, LiveShard, ShardStatus};
use chronorank_core::{AppendRecord, CoreError, MethodProfile, ObjectId, TemporalSet, TopK};
use chronorank_curve::{ColumnarTail, Segment};
use chronorank_obs::{elapsed_us, Registry, SpanId, SpanSink, TraceId};
use chronorank_serve::{
    merge_profiles, panic_message, partition, Answer, Freshness, MethodSet, Planner, PlannerParams,
    Route, ServeError, ServeQuery, WorkerPool,
};
use chronorank_storage::{
    Env, FileDevice, GenerationImage, ImageWriter, IoCounter, StorageError, WriteAheadLog,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Errors surfaced by the live layer.
#[derive(Debug)]
pub enum LiveError {
    /// A thread could not be spawned.
    Spawn(String),
    /// A shard failed its bootstrap build.
    Build {
        /// Which shard failed.
        shard: usize,
        /// The underlying build error.
        message: String,
    },
    /// A query failed on some shard.
    Query(String),
    /// A pool worker died (channel closed).
    WorkerGone,
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
            LiveError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            LiveError::Build { shard, message } => {
                write!(f, "shard {shard} failed to build: {message}")
            }
            LiveError::Query(e) => write!(f, "query failed: {e}"),
            LiveError::WorkerGone => write!(f, "a worker thread terminated unexpectedly"),
            LiveError::Storage(e) => write!(f, "wal: {e}"),
            LiveError::Append(e) => write!(f, "append rejected: {e}"),
            LiveError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<StorageError> for LiveError {
    fn from(e: StorageError) -> Self {
        LiveError::Storage(e)
    }
}

impl From<ServeError> for LiveError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Spawn(e) => LiveError::Spawn(e),
            ServeError::Build { shard, message } => LiveError::Build { shard, message },
            ServeError::Query(e) => LiveError::Query(e),
            ServeError::WorkerGone => LiveError::WorkerGone,
        }
    }
}

/// Query-path counters updated under one short lock (the query path is
/// `&self`, so plain fields will not do).
struct QueryCounters {
    queries: u64,
    elapsed_secs: f64,
}

/// The WAL-backed live ingest/serving engine (see crate docs).
///
/// Owns the write-ahead log, `W` ingest shards that each pair their
/// partition's columns (the only copy of the live data) with an
/// epoch-swapped frozen generation, the worker pool their query windows run
/// on, and what the §4 update model needs of the data as a whole: every
/// object's right edge, the live mass and the time domain.
pub struct IngestEngine {
    /// Each object's last point `(t, v)`, by global id: the edge an append
    /// must extend and the left end of the segment it adds.
    last: Vec<(f64, f64)>,
    /// `M` of the live data, advanced with exactly the arithmetic of
    /// [`TemporalSet::append_segment`]: the bits a bulk set would report.
    live_mass: f64,
    /// `(t_min, t_max)` of the live data.
    domain: (f64, f64),
    wal: WriteAheadLog,
    image_path: Option<PathBuf>,
    shards: Vec<Arc<LiveShard>>,
    pool: WorkerPool,
    params: PlannerParams,
    // --- accumulated statistics ---
    appends: u64,
    batches: u64,
    query_counters: Mutex<QueryCounters>,
    checkpoints: u64,
    /// Shards that reopened their frozen generation from the checkpoint
    /// image at boot instead of rebuilding it (cold-start observability).
    preloaded_shards: u64,
    /// Config facts stamped into checkpoint images (the preload gate).
    config_kmax: usize,
    config_flags: u8,
    /// Pre-resolved metric handles (process-global registry).
    obs: LiveObs,
}

/// Bit-packed [`MethodSet`] for the image's engine metadata.
fn method_flags(m: MethodSet) -> u8 {
    (m.exact1 as u8) | ((m.appx1 as u8) << 1) | ((m.appx2 as u8) << 2) | ((m.appx2_plus as u8) << 3)
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
        let preloaded_shards = preloads.iter().filter(|p| p.is_some()).count() as u64;
        let parts = partition(&base, w);
        let params = PlannerParams {
            shard_m: parts.iter().map(|(s, _)| s.num_objects() as u64).max().unwrap_or(0),
            shard_n: parts.iter().map(|(s, _)| s.num_segments()).max().unwrap_or(0),
            block: config.store.block_size as u64,
            r: config.approx.r as u64,
            span: base.span(),
        };
        let last = base.objects().iter().map(|o| o.curve.point(o.curve.num_points() - 1)).collect();
        let (live_mass, domain) = (base.total_mass(), (base.t_min(), base.t_max()));
        drop(base);
        // Every shard boots (generation 0, or its reopen) on a thread of
        // its own, all at once.
        let booted: Vec<Result<LiveShard, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .zip(preloads)
                .enumerate()
                .map(|(shard, ((subset, global_ids), preload))| {
                    let (config, obs) = (config.clone(), obs.shard.clone());
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            LiveShard::boot(shard, subset, global_ids, config, preload, obs)
                        }))
                        .unwrap_or_else(|p| Err(format!("build panicked: {}", panic_message(&*p))))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("boot threads do not panic")).collect()
        });
        let mut shards = Vec::with_capacity(w);
        for (shard, outcome) in booted.into_iter().enumerate() {
            match outcome {
                Ok(s) => shards.push(Arc::new(s)),
                Err(message) => return Err(LiveError::Build { shard, message }),
            }
        }
        Ok(Self {
            last,
            live_mass,
            domain,
            wal,
            image_path,
            pool: WorkerPool::new(w, &Registry::noop())?,
            shards,
            params,
            appends: 0,
            batches: 0,
            query_counters: Mutex::new(QueryCounters { queries: 0, elapsed_secs: 0.0 }),
            checkpoints: 0,
            preloaded_shards,
            config_kmax: config.approx.kmax,
            config_flags: method_flags(config.methods),
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
        let meta = img.blob("engine")?;
        if meta.len() != 25 {
            return Err(LiveError::Snapshot("corrupt engine metadata".into()));
        }
        let u64_at = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().expect("8"));
        let w = u64_at(0) as usize;
        let compatible = w == config.workers.clamp(1, set.num_objects())
            && u64_at(8) as usize == config.store.block_size
            && u64_at(16) as usize == config.approx.kmax
            && meta[24] == method_flags(config.methods);
        if !compatible {
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
        if meta.len() < 14 {
            return Err(LiveError::Snapshot("corrupt shard metadata".into()));
        }
        let generation = u64::from_le_bytes(meta[..8].try_into().expect("8"));
        // meta[8] said "an EXACT1 tree follows" in images written while
        // generations still built one; those sections are simply not read.
        let has_bp = meta[9] != 0;
        let count = u32::from_le_bytes(meta[10..14].try_into().expect("4")) as usize;
        if meta.len() != 14 + 8 * count {
            return Err(LiveError::Snapshot("corrupt shard metadata".into()));
        }
        let frozen_end: Vec<f64> = (0..count)
            .map(|i| {
                let at = 14 + 8 * i;
                f64::from_bits(u64::from_le_bytes(meta[at..at + 8].try_into().expect("8")))
            })
            .collect();
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

    /// Number of ingest shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The live data (appends applied) as a row-form set, assembled from
    /// the shards' columns on every call — a copy of the whole dataset. The
    /// test and diagnostic surface (ground-truth assertions, segment
    /// counts); nothing on the append, query or STATS path calls it.
    pub fn live_set(&self) -> TemporalSet {
        TemporalSet::from_columnar(&live_columns(&self.shards)).expect("columns hold valid curves")
    }

    /// `(t_min, t_max)` of the live data — what remote clients need to
    /// form meaningful query intervals.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// The freshness-aware routing decision for `q` (without executing).
    pub fn route_for(&self, q: &ServeQuery) -> Route {
        let (planner, fresh) = self.routing_snapshot();
        planner.route_with_freshness(q, Some(fresh))
    }

    /// Everything a routing decision reads, from what each shard published
    /// at its last install (never behind a probe): the router over the
    /// shards' *current* generation profiles (rebuilt on demand — epoch
    /// swaps change the profiles underneath) and the §4 freshness dimension
    /// those profiles are restated against — mass the serving generations
    /// were built over vs the live (appends-included) mass. One snapshot
    /// both admits a query and restates the ε its answer reports, so the
    /// two are the same number.
    pub fn routing_snapshot(&self) -> (Planner, Freshness) {
        let routing: Vec<_> = self.shards.iter().map(|s| s.routing()).collect();
        let profiles: Vec<_> = routing.iter().map(|r| r.profiles).collect();
        let built_mass: f64 = routing.iter().map(|r| r.built_mass).sum();
        (
            Planner::new(self.params, merge_profiles(&profiles)),
            Freshness { built_mass, live_mass: self.live_mass },
        )
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
    pub fn append_batch(&mut self, recs: &[AppendRecord]) -> Result<(), LiveError> {
        if recs.is_empty() {
            return Ok(());
        }
        self.validate(recs)?;
        let w = self.shards.len();
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
            self.live_mass +=
                Segment::new(prev_t, prev_v, rec.t, rec.v).abs_integral_clipped(prev_t, rec.t);
            self.domain.1 = self.domain.1.max(rec.t);
            accepted += 1;
            let shard = rec.object as usize % w;
            per_shard[shard].push(AppendRecord {
                object: rec.object / w as u32,
                t: rec.t,
                v: rec.v,
            });
        }
        if accepted > 0 {
            // Even if the sync fails the logged records reach the shards —
            // the caller learns about the failed sync.
            let t_sync = Instant::now();
            let synced = self.wal.sync();
            self.obs.wal_fsync_us.record(elapsed_us(t_sync));
            self.obs.batch_size.record(accepted);
            for (shard, batch) in self.shards.iter().zip(&per_shard) {
                shard.apply(batch);
            }
            self.appends += accepted;
            self.batches += 1;
            if let Err(e) = synced {
                failed.get_or_insert(LiveError::Storage(e));
            }
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
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

    /// Answer one window of queries — the engine's one query body. The
    /// window is routed against one [`IngestEngine::routing_snapshot`] and
    /// handed to the worker pool's [`WorkerPool::scatter_gather`] — the
    /// scatter–gather `chronorank-serve` runs: each shard gets it as
    /// **one** pool task, takes its lock, answers probe-identical queries
    /// (same snapped or raw interval, `k`, route and tolerance) with a
    /// single frozen probe and columnar rescore, and the per-shard lists
    /// are merged per query. Answers are bit-identical to executing every
    /// query in a window of its own (the window agreement suite pins this);
    /// each [`Answer`] carries the route it was planned onto and that
    /// route's ε restated against the same snapshot, so an epoch swap
    /// absorbed meanwhile cannot misattribute either.
    ///
    /// With a `trace` context `(trace, parent)`, every query gets an
    /// `engine.query` span under `parent` with one `shard.probe` child per
    /// shard carrying its reads, exactly as on the serve backend.
    pub fn execute(
        &self,
        window: &[ServeQuery],
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<Answer>, LiveError> {
        let t0 = Instant::now();
        let (planner, fresh) = self.routing_snapshot();
        let routed: Arc<[(ServeQuery, Route)]> =
            window.iter().map(|q| (*q, planner.route_with_freshness(q, Some(fresh)))).collect();
        let tops =
            self.pool.scatter_gather(&self.shards, std::slice::from_ref(&routed), trace, sink)?;
        let mut counters =
            self.query_counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.queries += tops.len() as u64;
        counters.elapsed_secs += t0.elapsed().as_secs_f64();
        drop(counters);
        let answer = |(topk, (_, route)): (TopK, &(ServeQuery, Route))| {
            let restated = |p: MethodProfile| p.revalidate(fresh.built_mass, fresh.live_mass).eps;
            Answer { topk, route: *route, eps_used: planner.profile(*route).and_then(restated) }
        };
        Ok(tops.into_iter().zip(routed.iter()).map(answer).collect())
    }

    /// Answer one query: a window of one.
    pub fn query(&self, q: ServeQuery) -> Result<TopK, LiveError> {
        let answers = self.execute(&[q], None, &SpanSink::noop())?;
        Ok(answers.into_iter().map(|a| a.topk).next().expect("one answer per query"))
    }

    /// Checkpoint: publish a generation image next to the WAL — the live
    /// set, plus every shard's frozen generation captured page-for-page
    /// (an append is applied before it returns, so everything durable is
    /// already in the shards) — then truncate the WAL. The image is stamped
    /// `wal.epoch() + 1` and written tmp+rename *before* the truncation
    /// bumps the epoch to that stamp, so a crash anywhere in between
    /// recovers exactly (see [`IngestEngine::new`]'s recovery contract).
    pub fn checkpoint(&mut self) -> Result<(), LiveError> {
        let t0 = Instant::now();
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
        self.write_checkpoint_image()
    }

    /// Publish the checkpoint image: the live set plus every shard's
    /// installed generation.
    fn write_checkpoint_image(&mut self) -> Result<(), LiveError> {
        let Some(path) = &self.image_path else { return Ok(()) };
        let mut writer = ImageWriter::create(path)?;
        // The live set travels in columnar (PAX) form: one shared offset
        // table plus contiguous t/v columns, gathered from the shards'.
        writer.add_blob("live_set", &live_columns(&self.shards).to_bytes())?;
        let mut meta = Vec::with_capacity(25);
        meta.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.params.block).to_le_bytes());
        meta.extend_from_slice(&(self.config_kmax as u64).to_le_bytes());
        meta.push(self.config_flags);
        writer.add_blob("engine", &meta)?;
        for (shard, live) in self.shards.iter().enumerate() {
            let (gen, frozen_end) = live.checkpoint();
            gen.add_to_image(&mut writer, &format!("s{shard}/"), &frozen_end)
                .map_err(|e| LiveError::Snapshot(e.to_string()))?;
        }
        writer.finish(self.wal.epoch() + 1)?;
        Ok(())
    }

    /// A snapshot of everything ingested and served so far.
    pub fn report(&self) -> LiveReport {
        self.report_of(&self.statuses())
    }

    /// Every shard's statistics, read now (each under its shard's lock).
    fn statuses(&self) -> Vec<ShardStatus> {
        self.shards.iter().map(|s| s.status()).collect()
    }

    fn report_of(&self, statuses: &[ShardStatus]) -> LiveReport {
        let counters =
            self.query_counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut swap_pause = PauseHistogram::default();
        for s in statuses.iter() {
            swap_pause.merge(&s.counters.swap_pause);
        }
        LiveReport {
            workers: self.shards.len(),
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
            queries_during_rebuild: statuses
                .iter()
                .map(|s| s.counters.queries_during_rebuild)
                .sum(),
            cache_hits: statuses.iter().map(|s| s.counters.cache_hits).sum(),
            cache_lookups: statuses.iter().map(|s| s.counters.cache_lookups).sum(),
            cache_invalidations: statuses.iter().map(|s| s.counters.cache_invalidations).sum(),
            tail_segments: statuses.iter().map(|s| s.tail_segments).sum(),
            tail_bytes: statuses.iter().map(|s| s.tail_bytes).sum(),
            tail_objects: statuses.iter().map(|s| s.tail_objects).sum(),
            built_mass: statuses.iter().map(|s| s.built_mass).sum(),
            live_mass: self.live_mass,
            generations: statuses.iter().map(|s| s.generation).max().unwrap_or(0),
            checkpoints: self.checkpoints,
            preloaded_shards: self.preloaded_shards,
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
        let statuses = self.statuses();
        let r = self.report_of(&statuses);
        let g = |name: &str, help: &str, v: u64| registry.gauge(name, help).set_u64(v);
        g("chronorank_live_workers", "ingest shard count", r.workers as u64);
        g("chronorank_live_appends", "records appended (WAL-durable)", r.appends);
        g("chronorank_live_batches", "durable group-commits", r.batches);
        g("chronorank_live_queries", "queries answered by the live engine", r.queries);
        g("chronorank_live_rebuilds", "completed generation rebuilds", r.rebuilds);
        g(
            "chronorank_live_rebuilds_in_flight",
            "shards with a rebuild in flight",
            r.rebuilds_in_flight,
        );
        for (stage, us) in r.build_stages.stage_us() {
            registry
                .gauge_with(
                    "chronorank_live_rebuild_stage_us",
                    "cumulative generation build time per stage, microseconds",
                    &[("stage", stage)],
                )
                .set_u64(us);
        }
        g(
            "chronorank_live_rebuild_b2_sweeps",
            "cumulative sweeps of the BREAKPOINTS2 count fit across generation builds",
            r.build_stages.b2_sweeps,
        );
        g("chronorank_live_index_bytes", "bytes across published generations", r.index_bytes);
        for route in Route::ALL {
            registry
                .gauge_with(
                    "chronorank_live_route_index_bytes",
                    "bytes of the files each route reads across published generations (a shared file counts for every route using it: EXACT1 is the EXACT3 tree)",
                    &[("route", route.name())],
                )
                .set_u64(statuses.iter().map(|s| s.route_bytes[route.idx()]).sum());
        }
        g("chronorank_live_tail_segments", "appended segments in mutable tails", r.tail_segments);
        self.obs.tail_bytes.set_u64(r.tail_bytes);
        self.obs.tail_objects.set_u64(r.tail_objects);
        g(
            "chronorank_live_queries_during_rebuild",
            "queries served while a rebuild was in flight",
            r.queries_during_rebuild,
        );
        g("chronorank_live_cache_hits", "staleness-audited cache hits", r.cache_hits);
        g("chronorank_live_cache_lookups", "staleness-audited cache lookups", r.cache_lookups);
        g(
            "chronorank_live_cache_invalidations",
            "cache entries dropped as eps-stale",
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

impl Drop for IngestEngine {
    /// A build in flight cannot be interrupted: wait for it, so that no
    /// thread outlives the engine holding a shard.
    fn drop(&mut self) {
        for handle in self.shards.iter().filter_map(|s| s.take_builder()) {
            handle.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RebuildPolicy;
    use chronorank_workloads::{AppendStream, AppendStreamConfig, StockConfig, StockGenerator};

    /// The half of the drop hazard only the crate can see (the bounded
    /// wait is `tests/engine.rs`'s): once `drop` returns, neither a
    /// generation builder nor a pool worker still owns a shard.
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
        let shards: Vec<_> = engine.shards.iter().map(Arc::downgrade).collect();
        drop(engine);
        assert!(shards.iter().all(|s| s.strong_count() == 0), "a thread outlived the engine");
    }
}
