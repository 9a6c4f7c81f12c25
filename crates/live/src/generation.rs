//! Generations: the frozen, epoch-swapped index side of a shard.
//!
//! A generation is an **immutable snapshot**: EXACT3 (+ optional APPX1 /
//! APPX2 / APPX2+ sharing one breakpoint set) built over a snapshot set
//! whose curves share their columns with the shard's live curves, plus the
//! metadata the planner and the ε re-validation need. The snapshot is
//! dropped once the build returns; only the indexes stay. APPX2+ keeps no packed prefix file here: its slot is a view over
//! the QUERY2 structure APPX2 shares, publishing APPX2+'s profile and
//! handing the shard QUERY2's whole candidate pool, which the shard
//! re-scores exactly from its columns as it does every route's candidates
//! ([`PlusRescore::Columns`]). The whole index stack is `Send + Sync`, so a builder thread
//! constructs it from its own snapshot and **returns** it, never touching
//! the shard; the engine installs it on a `&mut self` step, and the
//! shard's pool worker probes it directly from the next window on.
//!
//! A shard never blocks on a build: it keeps answering from the old
//! generation while the new one constructs, and the swap itself is an
//! `Arc` replacement under the lock (measured in the swap-pause
//! histogram).

use crate::config::LiveConfig;
use chronorank_core::{Breakpoints, Exact3, GenerationProfile, TemporalSet};
use chronorank_serve::{BuiltRoutes, PlusRescore, Route};
use chronorank_storage::{Env, ImageWriter, PagedFile};
use std::sync::Arc;
use std::time::Instant;

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
/// `Arc<Generation>` between the shard, a checkpoint in progress, and
/// whatever window is being answered right now. The routes keep the concrete
/// EXACT3 handle so a checkpoint can capture the tree page-for-page.
pub(crate) struct Generation {
    pub meta: GenMeta,
    /// Probed directly; breakpoints, sizes, IO and build stages are read
    /// off it too.
    pub built: BuiltRoutes,
}

impl Generation {
    pub(crate) fn build(
        snapshot: &TemporalSet,
        generation: u64,
        config: &LiveConfig,
    ) -> chronorank_core::Result<Self> {
        let t0 = Instant::now();
        let (methods, approx, store) = (config.methods, config.approx, config.store);
        // The one construction path shared with serve shards; only APPX2+
        // differs, re-scoring from the shard's columns, not a prefix file.
        let built = chronorank_serve::build_route_methods(
            snapshot,
            methods,
            approx,
            store,
            PlusRescore::Columns,
        )?;
        let built_mass = snapshot.total_mass();
        let build_secs = t0.elapsed().as_secs_f64();
        let meta = GenMeta { generation, built_mass, kmax: approx.kmax, build_secs };
        Ok(Self { meta, built })
    }

    /// Reopen from the parts of a checkpoint image: the EXACT3 tree comes
    /// back page-for-page (no sort, no build), and the APPX variants are
    /// rebuilt deterministically from the persisted breakpoints over the
    /// reconstructed build-time snapshot.
    pub(crate) fn open(
        snapshot: &TemporalSet,
        parts: GenParts,
        config: &LiveConfig,
    ) -> chronorank_core::Result<Self> {
        let (methods, approx, store) = (config.methods, config.approx, config.store);
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
            PlusRescore::Columns,
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
