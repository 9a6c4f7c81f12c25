//! Generations: the frozen, epoch-swapped index side of a shard.
//!
//! A generation is an **immutable snapshot**: EXACT3 (+ optional APPX1 /
//! APPX2 / APPX2+ sharing one breakpoint set) built over a copy of
//! the live data, plus the metadata the planner and the ε re-validation
//! need. Since the whole index stack is `Send + Sync`, the builder thread
//! simply constructs the generation, hands the finished
//! [`Arc<Generation>`] to its shard through the shard's own mailbox, and
//! **exits** — the shard probes the shared snapshot directly, in-thread.
//! (Before the storage layer became thread-safe this took a resident
//! "generation host" thread serving probes over channels; that machinery
//! is gone.)
//!
//! The shard never blocks on a build: it keeps answering from the old
//! generation while the new one constructs, and the swap itself is an
//! `Arc` replacement (measured in the swap-pause histogram).

use crate::shard::ToShard;
use chronorank_core::{ApproxConfig, Breakpoints, Exact3, GenerationProfile, TemporalSet};
use chronorank_serve::{panic_message, BuiltRoutes, MethodSet, Route};
use chronorank_storage::{Env, ImageWriter, PagedFile, StoreConfig};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// What a generation build constructs (one `Copy` bundle so spawn sites
/// stay tidy).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenBuildSpec {
    pub methods: MethodSet,
    pub approx: ApproxConfig,
    pub store: StoreConfig,
}

/// What a shard needs to know about a published generation beyond its
/// built routes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenMeta {
    /// Epoch counter (0 = the bootstrap build).
    pub generation: u64,
    /// Mass the snapshot carried — the denominator of ε re-validation.
    pub built_mass: f64,
    /// Largest `k` the approximate routes answer.
    pub kmax: usize,
    /// Off-thread wall time of the build.
    pub build_secs: f64,
}

/// One reopened index extracted from a generation image: its environment
/// (IO counter owner), the page-captured tree file, and the serialized
/// side metadata.
pub(crate) struct GenPart {
    pub env: Env,
    pub file: PagedFile,
    pub meta: Vec<u8>,
}

/// Everything a shard needs to reopen its frozen generation from a
/// checkpoint image: the EXACT3 tree (the only exact index), the
/// breakpoint table (APPX variants rebuild deterministically from it), and the
/// per-object frozen edges that reconstruct the build-time snapshot.
pub(crate) struct GenParts {
    pub generation: u64,
    pub frozen_end: Vec<f64>,
    pub exact3: GenPart,
    pub breakpoints: Option<Vec<u8>>,
}

/// A published, immutable generation: built routes + metadata, shared as
/// `Arc<Generation>` between the builder (briefly), the shard, and
/// whatever the shard is answering right now. The routes keep the concrete
/// EXACT3 handle so a checkpoint can capture the tree page-for-page.
pub(crate) struct Generation {
    pub meta: GenMeta,
    /// Probed in-thread, directly: breakpoints, sizes, IO and build
    /// stages are read off it too.
    pub built: BuiltRoutes,
}

impl Generation {
    fn build(
        snapshot: &TemporalSet,
        generation: u64,
        spec: GenBuildSpec,
        build_secs: impl FnOnce() -> f64,
    ) -> chronorank_core::Result<Self> {
        let GenBuildSpec { methods, approx, store } = spec;
        // The one construction path shared with serve shards: what a route
        // is backed by can never diverge between the two layers.
        let built =
            chronorank_serve::build_route_methods_with_handles(snapshot, methods, approx, store)?;
        let built_mass = snapshot.total_mass();
        let meta = GenMeta { generation, built_mass, kmax: approx.kmax, build_secs: build_secs() };
        Ok(Self { meta, built })
    }

    /// Reopen from the parts of a checkpoint image: the EXACT3 tree comes
    /// back page-for-page (no sort, no build), and the APPX variants are
    /// rebuilt deterministically from the persisted breakpoints over the
    /// reconstructed build-time snapshot.
    pub(crate) fn open(
        snapshot: &TemporalSet,
        parts: GenParts,
        spec: GenBuildSpec,
    ) -> chronorank_core::Result<Self> {
        let GenBuildSpec { methods, approx, store } = spec;
        let p3 = parts.exact3;
        let exact3 = Arc::new(Exact3::open_parts(p3.env, store, p3.file, &p3.meta)?);
        let breakpoints = match &parts.breakpoints {
            Some(bytes) => Some(Breakpoints::from_bytes(bytes)?),
            None => None,
        };
        if methods.any_approx() != breakpoints.is_some() {
            return Err(chronorank_core::CoreError::BadQuery(
                "generation image does not match the configured method set".into(),
            ));
        }
        let built = chronorank_serve::assemble_route_methods(
            snapshot,
            methods,
            approx,
            store,
            exact3,
            breakpoints,
        )?;
        let (generation, built_mass) = (parts.generation, snapshot.total_mass());
        let meta = GenMeta { generation, built_mass, kmax: approx.kmax, build_secs: 0.0 };
        Ok(Self { meta, built })
    }

    /// The generation-aware profile of `route`, if built.
    pub fn profile(&self, route: Route) -> Option<GenerationProfile> {
        self.built.profiles()[route.idx()].map(|profile| GenerationProfile {
            generation: self.meta.generation,
            built_mass: self.meta.built_mass,
            profile,
        })
    }

    /// Write this generation's persistent form under `prefix` in an image:
    /// the EXACT3 tree page-for-page, its side metadata, the breakpoint
    /// table, and the frozen edges that let a reopen reconstruct the
    /// build-time snapshot from the recovered live set.
    pub(crate) fn add_to_image(
        &self,
        w: &mut ImageWriter,
        prefix: &str,
        frozen_end: &[f64],
    ) -> chronorank_core::Result<()> {
        let mut meta = Vec::with_capacity(14 + 8 * frozen_end.len());
        meta.extend_from_slice(&self.meta.generation.to_le_bytes());
        meta.push(0); // was "has an EXACT1 tree" while generations built one
        meta.push(self.built.breakpoints.is_some() as u8);
        meta.extend_from_slice(&(frozen_end.len() as u32).to_le_bytes());
        for &e in frozen_end {
            meta.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        w.add_blob(&format!("{prefix}meta"), &meta)?;
        w.add_paged(&format!("{prefix}exact3_pages"), self.built.exact3.tree_file())?;
        w.add_blob(&format!("{prefix}exact3_meta"), &self.built.exact3.meta_bytes())?;
        if let Some(bp) = &self.built.breakpoints {
            w.add_blob(&format!("{prefix}breakpoints"), &bp.to_bytes())?;
        }
        Ok(())
    }
}

/// Thread body of one generation build: construct, hand the finished
/// `Arc` to the shard's mailbox, exit. No serving loop — the shard owns
/// the snapshot from here on.
pub(crate) fn generation_main(
    generation: u64,
    snapshot: TemporalSet,
    spec: GenBuildSpec,
    ready_tx: Sender<ToShard>,
) {
    let t0 = Instant::now();
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Generation::build(&snapshot, generation, spec, || t0.elapsed().as_secs_f64())
    }));
    let result = match built {
        Ok(Ok(generation)) => Ok(Arc::new(generation)),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("generation build panicked: {}", panic_message(&*payload))),
    };
    ready_tx.send(ToShard::GenReady { generation, result }).ok();
}
