//! The ingest engine: durable appends in, fresh answers out.
//!
//! Appends take `&mut self` (there is exactly one WAL and one master set),
//! but the query path — [`IngestEngine::execute`], one window of queries
//! scattered as one message per shard — takes `&self`: every call gathers
//! on its own reply channel, so any number of caller threads can query one
//! engine concurrently — the network tier wraps an `IngestEngine` in an
//! `RwLock` and lets reads overlap while appends serialize.

use crate::config::LiveConfig;
use crate::generation::{GenPart, GenParts};
use crate::obs::LiveObs;
use crate::report::{LiveReport, PauseHistogram};
use crate::shard::{shard_main, ShardChannels, ShardCheckpoint, ShardReply, ShardStatus, ToShard};
use chronorank_core::{AppendRecord, MethodProfile, TemporalSet, TopK};
use chronorank_curve::ColumnarTail;
use chronorank_obs::{elapsed_us, AttrValue, Registry, SpanId, SpanSink, TraceId};
use chronorank_serve::{
    merge_profiles, partition, Answer, Freshness, Gather, MethodSet, Planner, PlannerParams, Route,
    ServeQuery,
};
use chronorank_storage::{
    Env, FileDevice, GenerationImage, ImageWriter, IoCounter, StorageError, WriteAheadLog,
};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
    /// A shard thread died (channel closed).
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
            LiveError::WorkerGone => write!(f, "a shard thread terminated unexpectedly"),
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

struct Worker {
    tx: Sender<ToShard>,
    handle: Option<JoinHandle<()>>,
}

/// Query-path counters updated under one short lock (the query path is
/// `&self`, so plain fields will not do).
struct QueryCounters {
    queries: u64,
    elapsed_secs: f64,
}

/// The WAL-backed live ingest/serving engine (see crate docs).
///
/// Owns the write-ahead log, a master copy of the live [`TemporalSet`]
/// (the checkpoint/recovery source of truth), and `W` ingest shards that
/// each pair a mutable tail with an epoch-swapped frozen generation.
pub struct IngestEngine {
    master: TemporalSet,
    wal: WriteAheadLog,
    image_path: Option<PathBuf>,
    workers: Vec<Worker>,
    statuses: Mutex<Vec<ShardStatus>>,
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
        let (build_tx, build_rx) = channel();
        let mut workers = Vec::with_capacity(w);
        for (shard, (subset, global_ids)) in partition(&base, w).into_iter().enumerate() {
            let (tx, rx) = channel();
            let channels = ShardChannels { rx, self_tx: tx.clone(), build_tx: build_tx.clone() };
            let cfg = config.clone();
            let preload = preloads[shard].take();
            let shard_obs = obs.shard.clone();
            let handle = std::thread::Builder::new()
                .name(format!("chronorank-live-{shard}"))
                .spawn(move || {
                    shard_main(shard, subset, global_ids, cfg, channels, preload, shard_obs)
                })
                .map_err(|e| LiveError::Spawn(e.to_string()))?;
            workers.push(Worker { tx, handle: Some(handle) });
        }
        drop(build_tx);

        let (mut max_m, mut max_n) = (0u64, 0u64);
        let mut statuses = vec![None; w];
        for _ in 0..w {
            let outcome = build_rx.recv().map_err(|_| LiveError::WorkerGone)?;
            match outcome.result {
                Ok(info) => {
                    max_m = max_m.max(info.m);
                    max_n = max_n.max(info.n);
                    statuses[outcome.shard] = Some(info.status);
                }
                Err(message) => {
                    return Err(LiveError::Build { shard: outcome.shard, message });
                }
            }
        }
        let statuses: Vec<ShardStatus> =
            statuses.into_iter().map(|s| s.expect("every shard handshakes")).collect();
        let params = PlannerParams {
            shard_m: max_m,
            shard_n: max_n,
            block: config.store.block_size as u64,
            r: config.approx.r as u64,
            span: base.span(),
        };
        Ok(Self {
            master: base,
            wal,
            image_path,
            workers,
            statuses: Mutex::new(statuses),
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

    /// Load a checkpoint image: the master set (always used — it IS the
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
            // A missing shard section (e.g. a shard that had no installed
            // generation at checkpoint time) falls back to a fresh build
            // for that shard only.
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
        self.workers.len()
    }

    /// The engine's master copy of the live data (appends applied; the
    /// source of truth for checkpoints and ground-truth assertions).
    pub fn live_set(&self) -> &TemporalSet {
        &self.master
    }

    /// The freshness-aware routing decision for `q` (without executing).
    pub fn route_for(&self, q: &ServeQuery) -> Route {
        let (planner, fresh) = self.routing_snapshot();
        planner.route_with_freshness(q, Some(fresh))
    }

    /// Everything a routing decision reads, under **one** `statuses` lock:
    /// the router over the shards' *current* generation profiles (rebuilt
    /// on demand — epoch swaps change the profiles underneath) and the §4
    /// freshness dimension those profiles are restated against — mass the
    /// serving generations were built over vs the live (appends-included)
    /// mass. One snapshot both admits a query and restates the ε its
    /// answer reports, so the two are the same number.
    pub fn routing_snapshot(&self) -> (Planner, Freshness) {
        let statuses = self.statuses.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let profiles: Vec<_> = statuses.iter().map(|s| s.profiles).collect();
        let built_mass: f64 = statuses.iter().map(|s| s.built_mass).sum();
        (
            Planner::new(self.params, merge_profiles(&profiles)),
            Freshness { built_mass, live_mass: self.master.total_mass() },
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

    /// Append a batch durably: every record is validated against the
    /// master set, written to the WAL, group-committed with **one** sync,
    /// and only then shipped to the owning shards. A rejected record (or a
    /// WAL failure) fails the batch at that point — but every record
    /// accepted before it is still shipped, so the master set, the WAL,
    /// and the shards never diverge from each other.
    pub fn append_batch(&mut self, recs: &[AppendRecord]) -> Result<(), LiveError> {
        if recs.is_empty() {
            return Ok(());
        }
        let w = self.workers.len();
        let mut per_shard: Vec<Vec<AppendRecord>> = vec![Vec::new(); w];
        let mut accepted = 0u64;
        let mut failed = None;
        for rec in recs {
            // Validate BEFORE touching the WAL or the master set (the
            // checks mirror `PiecewiseLinear::append` exactly), so a
            // rejected record leaves no trace anywhere.
            let end = match self.master.object(rec.object) {
                Ok(o) => o.curve.end(),
                Err(e) => {
                    failed = Some(LiveError::Append(e.to_string()));
                    break;
                }
            };
            if !rec.t.is_finite() || !rec.v.is_finite() || rec.t <= end {
                failed = Some(LiveError::Append(format!(
                    "record must extend object {} past t = {end} with finite values, \
                     got (t = {}, v = {})",
                    rec.object, rec.t, rec.v
                )));
                break;
            }
            // Durability first; an IO failure stops the batch but the
            // records already logged still reach master and shards below.
            let t_append = Instant::now();
            if let Err(e) = self.wal.append(&rec.encode()) {
                failed = Some(LiveError::Storage(e));
                break;
            }
            self.obs.wal_append_us.record(elapsed_us(t_append));
            self.master.apply(*rec).expect("validated above");
            accepted += 1;
            let shard = rec.object as usize % w;
            per_shard[shard].push(AppendRecord {
                object: rec.object / w as u32,
                t: rec.t,
                v: rec.v,
            });
        }
        if accepted > 0 {
            // Even if the sync fails, ship what was applied to master —
            // consistency between master and shards outranks durability of
            // the tail (the caller learns about the failed sync).
            let t_sync = Instant::now();
            let synced = self.wal.sync();
            self.obs.wal_fsync_us.record(elapsed_us(t_sync));
            self.obs.batch_size.record(accepted);
            for (shard, batch) in per_shard.into_iter().enumerate() {
                if !batch.is_empty() {
                    self.workers[shard]
                        .tx
                        .send(ToShard::Apply(batch))
                        .map_err(|_| LiveError::WorkerGone)?;
                }
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

    /// Answer one window of queries — the engine's one query body. The
    /// window is routed against one [`IngestEngine::routing_snapshot`],
    /// each shard receives it as **one** message and answers
    /// probe-identical queries (same snapped or raw interval, `k`, route
    /// and tolerance) with a single frozen probe and columnar rescore, and
    /// the per-shard lists are merged per query. Answers are bit-identical
    /// to executing every query in a window of its own (the window
    /// agreement suite pins this); each [`Answer`] carries the route it
    /// was planned onto and that route's ε restated against the same
    /// snapshot, so an epoch swap absorbed meanwhile cannot misattribute
    /// either.
    ///
    /// With a `trace` context `(trace, parent)`, one `engine.query` span
    /// per query is emitted into `sink` as a child of `parent`. The live
    /// replies carry shard *status*, not probe timings, so there are no
    /// per-shard children; those are a serve-backend feature.
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
        let mut gather = Gather::new(self.workers.len());
        let (reply_tx, reply_rx) = channel();
        gather.register(window.iter().map(|q| q.k));
        if !routed.is_empty() {
            for worker in &self.workers {
                let msg = ToShard::Query { window: Arc::clone(&routed), reply: reply_tx.clone() };
                worker.tx.send(msg).map_err(|_| LiveError::WorkerGone)?;
            }
        }
        drop(reply_tx);
        while gather.owed() > 0 {
            self.absorb(&mut gather, reply_rx.recv().map_err(|_| LiveError::WorkerGone)?);
        }
        let tops = gather.finish().map_err(LiveError::Query)?;
        let elapsed = t0.elapsed();
        let mut counters =
            self.query_counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.queries += tops.len() as u64;
        counters.elapsed_secs += elapsed.as_secs_f64();
        drop(counters);
        let answer = |(topk, (q, route)): (TopK, &(ServeQuery, Route))| {
            if let Some((trace, parent)) = trace {
                sink.emit_measured(
                    trace,
                    (parent.0 != 0).then_some(parent),
                    "engine.query",
                    elapsed.as_micros() as u64,
                    [
                        ("route", AttrValue::Sym(route.name())),
                        ("k", AttrValue::U64(q.k as u64)),
                        ("shards", AttrValue::U64(self.workers.len() as u64)),
                    ],
                );
            }
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

    /// Fold one shard's reply to a window into `gather`, and its
    /// piggybacked status into the shard-status view. Replies from
    /// concurrent `&self` queries can arrive out of order; the shard stamps
    /// each status monotonically, so only a strictly newer view replaces
    /// the stored one (an older reply must never regress the planner's
    /// freshness to a superseded generation).
    fn absorb(&self, gather: &mut Gather, reply: ShardReply) {
        let mut statuses = self.statuses.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if reply.status.seq > statuses[reply.shard].seq {
            statuses[reply.shard] = reply.status;
        }
        drop(statuses);
        for (j, result) in reply.results.into_iter().enumerate() {
            gather.absorb(j, reply.shard, result);
        }
    }

    /// Checkpoint: barrier every shard (so everything durable is also
    /// applied), publish a generation image next to the WAL — the master
    /// set, plus every shard's frozen generation captured page-for-page —
    /// then truncate the WAL. The image is stamped `wal.epoch() + 1` and
    /// written tmp+rename *before* the truncation bumps the epoch to that
    /// stamp, so a crash anywhere in between recovers exactly (see
    /// [`IngestEngine::new`]'s recovery contract).
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

    /// Gather every shard's installed generation (the gather doubles as
    /// the apply barrier) and publish the checkpoint image.
    fn write_checkpoint_image(&mut self) -> Result<(), LiveError> {
        let (cp_tx, cp_rx) = channel();
        for worker in &self.workers {
            worker
                .tx
                .send(ToShard::Checkpoint(cp_tx.clone()))
                .map_err(|_| LiveError::WorkerGone)?;
        }
        drop(cp_tx);
        let w = self.workers.len();
        let mut shards: Vec<Option<ShardCheckpoint>> = (0..w).map(|_| None).collect();
        for _ in 0..w {
            let cp = cp_rx.recv().map_err(|_| LiveError::WorkerGone)?;
            let shard = cp.shard;
            shards[shard] = Some(cp);
        }
        let Some(path) = &self.image_path else { return Ok(()) };
        let mut writer = ImageWriter::create(path)?;
        // The master set travels in columnar (PAX) form: one shared offset
        // table plus contiguous t/v columns — the same layout the shards'
        // mutable tails live in, so recovery rehydrates without reshaping.
        writer.add_blob("live_set", &self.master.to_columnar().to_bytes())?;
        let mut meta = Vec::with_capacity(25);
        meta.extend_from_slice(&(w as u64).to_le_bytes());
        meta.extend_from_slice(&(self.params.block).to_le_bytes());
        meta.extend_from_slice(&(self.config_kmax as u64).to_le_bytes());
        meta.push(self.config_flags);
        writer.add_blob("engine", &meta)?;
        for cp in shards.into_iter().flatten() {
            if let Some(gen) = &cp.gen {
                gen.add_to_image(&mut writer, &format!("s{}/", cp.shard), &cp.frozen_end)
                    .map_err(|e| LiveError::Snapshot(e.to_string()))?;
            }
        }
        writer.finish(self.wal.epoch() + 1)?;
        Ok(())
    }

    /// A snapshot of everything ingested and served so far.
    pub fn report(&self) -> LiveReport {
        let statuses = self.statuses.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let counters =
            self.query_counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut swap_pause = PauseHistogram::default();
        for s in statuses.iter() {
            swap_pause.merge(&s.swap_pause);
        }
        LiveReport {
            workers: self.workers.len(),
            appends: self.appends,
            batches: self.batches,
            queries: counters.queries,
            elapsed_secs: counters.elapsed_secs,
            wal: self.wal.io_stats(),
            index_io: statuses.iter().map(|s| s.io).sum(),
            rebuilds: statuses.iter().map(|s| s.rebuilds).sum(),
            rebuilds_in_flight: statuses.iter().filter(|s| s.rebuild_in_flight).count() as u64,
            index_bytes: statuses.iter().map(|s| s.size_bytes).sum(),
            build_secs: statuses.iter().map(|s| s.build_secs).sum(),
            build_stages: statuses.iter().map(|s| s.build_stages).sum(),
            swap_pause,
            queries_during_rebuild: statuses.iter().map(|s| s.queries_during_rebuild).sum(),
            cache_hits: statuses.iter().map(|s| s.cache_hits).sum(),
            cache_lookups: statuses.iter().map(|s| s.cache_lookups).sum(),
            cache_invalidations: statuses.iter().map(|s| s.cache_invalidations).sum(),
            tail_segments: statuses.iter().map(|s| s.tail_segments).sum(),
            tail_bytes: statuses.iter().map(|s| s.tail_bytes).sum(),
            tail_objects: statuses.iter().map(|s| s.tail_objects).sum(),
            built_mass: statuses.iter().map(|s| s.built_mass).sum(),
            live_mass: self.master.total_mass(),
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
        let r = self.report();
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
        {
            let statuses = self.statuses.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for route in Route::ALL {
                registry
                    .gauge_with(
                        "chronorank_live_route_index_bytes",
                        "bytes of the files each route reads across published generations (a shared file counts for every route using it: EXACT1 is the EXACT3 tree)",
                        &[("route", route.name())],
                    )
                    .set_u64(statuses.iter().map(|s| s.route_bytes[route.idx()]).sum());
            }
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
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.tx.send(ToShard::Shutdown).ok();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                handle.join().ok();
            }
        }
    }
}
