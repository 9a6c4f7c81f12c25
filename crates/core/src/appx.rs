//! The combined approximate methods (paper §3.3): APPX1-B, APPX2-B, APPX1,
//! APPX2, and APPX2+.
//!
//! A variant is a choice of breakpoint construction × query structure
//! (Figure 7's grid), plus the optional `+` exact re-scoring:
//!
//! | Variant | Breakpoints | Query | Guarantee |
//! |---------|-------------|-------|-----------|
//! | APPX1-B | B1 | QUERY1 | `(ε, 1)` |
//! | APPX2-B | B1 | QUERY2 | `(ε, 2 log r)` |
//! | APPX1   | B2 | QUERY1 | `(ε, 1)`, much smaller ε at equal r |
//! | APPX2   | B2 | QUERY2 | `(ε, 2 log r)`, 〃 |
//! | APPX2+  | B2 | QUERY2 + exact re-scoring | near-exact in practice |
//!
//! The `+` re-scoring needs `σ_i(t1, t2)` for QUERY2's candidates only, so
//! it reads per-object prefix sums from one packed file
//! ([`crate::PackedPrefix`]) — the paper's Eq. (2) on the bits EXACT2
//! stores, without a tree per object. A caller that holds the curves
//! anyway builds the `+` variant as a view with no such file
//! ([`ApproxIndex::into_plus_view`]) and re-scores the candidate pool
//! ([`ApproxIndex::candidates`]) from its own copy.
//!
//! Updates follow the paper's §4 amortized policy: the structures are
//! built for a fixed threshold `τ = εM`; when the dataset's mass doubles,
//! [`ApproxIndex::maybe_rebuild`] rebuilds everything (amortizing to the
//! stated per-segment update bounds).

use crate::agg::AggKind;
use crate::breakpoints::{B2Construction, Breakpoints, BreakpointsKind};
use crate::error::{CoreError, Result};
use crate::object::{check_id, ObjectId, TemporalObject, TemporalSet};
use crate::packed::{PackedPrefix, PackedPrefixBuilder};
use crate::query1::Query1Index;
use crate::query2::Query2Index;
use crate::topk::{check_interval, top_k_from_scores, RankMethod, TopK};
use chronorank_storage::{Env, IoCounter, IoStats, StoreConfig};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Which query structure a variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Nested B+-trees over all breakpoint pairs (QUERY1).
    Q1,
    /// Dyadic-interval lists (QUERY2).
    Q2,
}

/// One of the paper's five named approximate methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxVariant {
    /// Breakpoint family.
    pub breakpoints: BreakpointsKind,
    /// Query structure.
    pub query: QueryKind,
    /// Exact candidate re-scoring (APPX2+).
    pub plus: bool,
}

impl ApproxVariant {
    /// BREAKPOINTS1 + QUERY1 — the basic `(ε,1)` method.
    pub const APPX1_B: Self =
        Self { breakpoints: BreakpointsKind::B1, query: QueryKind::Q1, plus: false };
    /// BREAKPOINTS1 + QUERY2 — the basic `(ε, 2 log r)` method.
    pub const APPX2_B: Self =
        Self { breakpoints: BreakpointsKind::B1, query: QueryKind::Q2, plus: false };
    /// BREAKPOINTS2 + QUERY1 — the improved `(ε,1)` method.
    pub const APPX1: Self =
        Self { breakpoints: BreakpointsKind::B2, query: QueryKind::Q1, plus: false };
    /// BREAKPOINTS2 + QUERY2 — the improved `(ε, 2 log r)` method.
    pub const APPX2: Self =
        Self { breakpoints: BreakpointsKind::B2, query: QueryKind::Q2, plus: false };
    /// APPX2 + exact re-scoring of the candidate set from prefix sums.
    pub const APPX2_PLUS: Self =
        Self { breakpoints: BreakpointsKind::B2, query: QueryKind::Q2, plus: true };

    /// All five variants in the paper's presentation order.
    pub const ALL: [Self; 5] =
        [Self::APPX1_B, Self::APPX2_B, Self::APPX1, Self::APPX2, Self::APPX2_PLUS];

    /// The paper's name for this variant.
    pub fn name(&self) -> &'static str {
        match (self.breakpoints, self.query, self.plus) {
            (BreakpointsKind::B1, QueryKind::Q1, false) => "APPX1-B",
            (BreakpointsKind::B1, QueryKind::Q2, false) => "APPX2-B",
            (BreakpointsKind::B2, QueryKind::Q1, false) => "APPX1",
            (BreakpointsKind::B2, QueryKind::Q2, false) => "APPX2",
            (BreakpointsKind::B2, QueryKind::Q2, true) => "APPX2+",
            (BreakpointsKind::B1, QueryKind::Q1, true) => "APPX1-B+",
            (BreakpointsKind::B1, QueryKind::Q2, true) => "APPX2-B+",
            (BreakpointsKind::B2, QueryKind::Q1, true) => "APPX1+",
        }
    }
}

/// Parameters for building an [`ApproxIndex`].
#[derive(Debug, Clone, Copy)]
pub struct ApproxConfig {
    /// Breakpoint budget `r` (the paper's experiments fix `r`, defaulting
    /// to 500 at full scale; scaled default here).
    pub r: usize,
    /// Explicit `ε` — overrides `r` when set.
    pub eps: Option<f64>,
    /// Largest `k` the index will answer (paper default 200).
    pub kmax: usize,
    /// Storage settings.
    pub store: StoreConfig,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        Self { r: 128, eps: None, kmax: 64, store: StoreConfig::default() }
    }
}

/// A built approximate index: breakpoints + query structure (+ optional
/// prefix-sum re-scorer). See module docs for the variant grid.
pub struct ApproxIndex {
    variant: ApproxVariant,
    config: ApproxConfig,
    /// Owner of this index's IO counter; the re-scorer's file lives here.
    env: Env,
    breakpoints: Breakpoints,
    q1: Option<Query1Index>,
    /// Counts IO on a counter of its own because a sibling variant over
    /// the same breakpoints may share it ([`ApproxIndex::build_with_query2`]);
    /// every probe's reads are credited to `env`.
    q2: Option<Arc<Query2Index>>,
    rescorer: Option<PackedPrefix>,
    /// `M` at build time: the §4 policy rebuilds when the live mass
    /// doubles.
    built_mass: f64,
}

impl ApproxConfig {
    /// The breakpoint set this configuration asks for over `set`: the
    /// explicit `ε` when given, else fitted to `r` (BREAKPOINTS2 by its
    /// efficient construction).
    fn breakpoints(&self, set: &TemporalSet, kind: BreakpointsKind) -> Result<Breakpoints> {
        let efficient = B2Construction::Efficient;
        match (kind, self.eps) {
            (BreakpointsKind::B1, Some(eps)) => Breakpoints::b1_with_eps(set, eps),
            (BreakpointsKind::B1, None) => Breakpoints::b1_with_count(set, self.r),
            (BreakpointsKind::B2, Some(eps)) => Breakpoints::b2_with_eps(set, eps, efficient),
            (BreakpointsKind::B2, None) => Breakpoints::b2_with_count(set, self.r, efficient),
        }
    }
}

impl ApproxIndex {
    /// Build the chosen variant over a resident set, in memory.
    pub fn build(set: &TemporalSet, variant: ApproxVariant, config: ApproxConfig) -> Result<Self> {
        let breakpoints = config.breakpoints(set, variant.breakpoints)?;
        let env = Env::mem(config.store);
        Self::build_streaming(env, set.objects(), variant, config, breakpoints)
    }

    /// Build over a resident set with precomputed breakpoints (lets the
    /// bench harness reuse one breakpoint set across several variants, as
    /// the paper does when comparing at equal `r`).
    pub fn build_with_breakpoints(
        env: Env,
        set: &TemporalSet,
        variant: ApproxVariant,
        config: ApproxConfig,
        breakpoints: Breakpoints,
    ) -> Result<Self> {
        Self::build_streaming(env, set.objects(), variant, config, breakpoints)
    }

    /// Build a QUERY2 variant over an **already built** QUERY2 structure —
    /// how APPX2 and APPX2+ over one breakpoint set share one index
    /// instead of building it twice. Breakpoints and `kmax` are the
    /// structure's; `config.kmax` is ignored. Each sharer's
    /// [`RankMethod::io_stats`] counts only the reads its own queries did.
    pub fn build_with_query2(
        env: Env,
        set: &TemporalSet,
        variant: ApproxVariant,
        config: ApproxConfig,
        q2: Arc<Query2Index>,
    ) -> Result<Self> {
        if variant.query != QueryKind::Q2 {
            return Err(CoreError::BadQuery(format!("{} is not a QUERY2 variant", variant.name())));
        }
        let config = ApproxConfig { kmax: q2.kmax(), ..config };
        Self::fill(env, set.objects(), variant, config, q2.breakpoints().clone(), Some(q2))
    }

    /// Assemble an approximate index from a precomputed (typically
    /// streamed, see [`crate::b2_streaming`]) breakpoint set plus an object
    /// stream, owned or borrowed, for the query-structure fill: no
    /// [`TemporalSet`] need ever materialize.
    pub fn build_streaming<I>(
        env: Env,
        objects: I,
        variant: ApproxVariant,
        config: ApproxConfig,
        breakpoints: Breakpoints,
    ) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        Self::fill(env, objects, variant, config, breakpoints, None)
    }

    /// One pass over `objects` fills the query structure (unless a built
    /// QUERY2 structure is `shared`) and, for a `+` variant, the re-scorer.
    fn fill<I>(
        env: Env,
        objects: I,
        variant: ApproxVariant,
        config: ApproxConfig,
        breakpoints: Breakpoints,
        shared: Option<Arc<Query2Index>>,
    ) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        let built_mass = breakpoints.mass();
        let mut packer = if variant.plus {
            Some(PackedPrefixBuilder::new(env.create_file(PREFIX_FILE)?))
        } else {
            None
        };
        // The packer checks each id as it packs; without one, this does.
        let mut failed = None;
        let objects = objects.into_iter().enumerate().map(|(position, o)| {
            let obj = Borrow::<TemporalObject>::borrow(&o);
            if failed.is_none() {
                failed = match &mut packer {
                    Some(p) => p.push(obj),
                    None => check_id(position, obj),
                }
                .err();
            }
            o
        });
        let (q1, q2) = match (variant.query, shared) {
            (QueryKind::Q1, _) => {
                let q1 = Query1Index::build(env.child(), objects, breakpoints.clone(), config.kmax);
                (Some(q1?), None)
            }
            (QueryKind::Q2, Some(q2)) => {
                if variant.plus {
                    objects.for_each(drop); // the packer's pass
                }
                (None, Some(q2))
            }
            (QueryKind::Q2, None) => {
                let child = env.detached_child();
                let q2 = Query2Index::build(child, objects, breakpoints.clone(), config.kmax)?;
                env.io().credit(q2.io_stats());
                (None, Some(Arc::new(q2)))
            }
        };
        if let Some(e) = failed {
            return Err(e);
        }
        let rescorer = packer.map(PackedPrefixBuilder::finish).transpose()?;
        Ok(Self { variant, config, env, breakpoints, q1, q2, rescorer, built_mass })
    }

    /// This QUERY2 index as its `+` variant **without** a prefix file: a
    /// view that publishes the `+` profile and answers
    /// [`ApproxIndex::candidates`], for a caller that holds the curves and
    /// re-scores the pool exactly itself. Its [`RankMethod::top_k`] refuses,
    /// since it has nothing to re-score from. It keeps this index's QUERY2
    /// structure (shared or not) and IO counter.
    pub fn into_plus_view(self) -> Result<Self> {
        if self.variant.query != QueryKind::Q2 || self.variant.plus {
            return Err(CoreError::BadQuery(format!(
                "{} is not a plain QUERY2 variant",
                self.variant.name()
            )));
        }
        let variant = ApproxVariant { plus: true, ..self.variant };
        Ok(Self { variant, ..self })
    }

    /// The variant built.
    pub fn variant(&self) -> ApproxVariant {
        self.variant
    }

    /// The breakpoints in use.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Maximum `k` answerable.
    pub fn kmax(&self) -> usize {
        self.config.kmax
    }

    /// The QUERY2 structure behind this index (`None` for QUERY1
    /// variants), for a sibling variant to share.
    pub fn query2(&self) -> Option<&Arc<Query2Index>> {
        self.q2.as_ref()
    }

    /// The prefix-sum file a `+` variant re-scores from.
    pub fn rescorer(&self) -> Option<&PackedPrefix> {
        self.rescorer.as_ref()
    }

    /// Files this index created (a shared QUERY2 structure counts for the
    /// index that built it).
    pub fn num_files(&self) -> usize {
        self.env.num_files()
    }

    /// QUERY2's candidate pool `K` for `top-k(t1, t2)`, ascending ids: every
    /// object some dyadic piece of the snapped interval lists in its top
    /// `k`, with the reads credited to this index. It is what a `+` variant
    /// re-scores exactly: from its prefix file in [`RankMethod::top_k`], or
    /// from the caller's curves on an [`ApproxIndex::into_plus_view`].
    pub fn candidates(&self, t1: f64, t2: f64, k: usize) -> Result<Vec<ObjectId>> {
        check_interval(t1, t2)?;
        self.check_k(k)?;
        if self.variant.query != QueryKind::Q2 {
            return Err(CoreError::BadQuery(format!("{} has no QUERY2 pool", self.variant.name())));
        }
        let pool = self.via_query2(|q2| q2.candidates(t1, t2, k))?;
        let mut ids: Vec<ObjectId> = pool.into_iter().flat_map(HashMap::into_keys).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn check_k(&self, k: usize) -> Result<()> {
        if k > self.config.kmax {
            return Err(CoreError::BadQuery(format!(
                "k = {k} exceeds kmax = {}",
                self.config.kmax
            )));
        }
        Ok(())
    }

    /// Probe the QUERY2 structure, crediting the block reads the probe did
    /// there to this index's counter.
    fn via_query2<T>(&self, probe: impl FnOnce(&Query2Index) -> Result<T>) -> Result<T> {
        let q2 = self.q2.as_ref().expect("QUERY2 variants hold the structure");
        let before = IoCounter::thread_reads();
        let out = probe(q2);
        let reads = IoCounter::thread_reads() - before;
        self.env.io().credit(IoStats { reads, ..IoStats::default() });
        out
    }

    /// The paper's §4 amortized update policy: breakpoints were built for a
    /// fixed threshold `τ = εM`; once the live mass reaches `2M`, rebuild
    /// everything. Returns whether a rebuild happened.
    pub fn maybe_rebuild(&mut self, set: &TemporalSet) -> Result<bool> {
        if set.total_mass() < 2.0 * self.built_mass {
            return Ok(false);
        }
        let rebuilt = Self::build(set, self.variant, self.config)?;
        *self = rebuilt;
        Ok(true)
    }
}

/// Name of the re-scorer's file inside an index's environment.
const PREFIX_FILE: &str = "appx_prefix";

impl RankMethod for ApproxIndex {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        if self.variant.plus {
            // APPX2+: candidates from QUERY2, exact scores from prefix sums.
            let Some(rescorer) = &self.rescorer else {
                return Err(CoreError::BadQuery(format!(
                    "{} without a prefix file: its caller re-scores `candidates`",
                    self.variant.name()
                )));
            };
            let cand = self.candidates(t1, t2, k)?;
            let mut scorer = rescorer.scorer();
            let mut scored = Vec::with_capacity(cand.len());
            for id in cand {
                scored.push((id, scorer.score_one(id, t1, t2)?));
            }
            let top = top_k_from_scores(scored.into_iter(), k);
            return Ok(match agg {
                AggKind::Avg if t2 > t1 => top.into_avg(t2 - t1),
                _ => top,
            });
        }
        check_interval(t1, t2)?;
        self.check_k(k)?;
        match self.variant.query {
            QueryKind::Q1 => self.q1.as_ref().expect("built").top_k(t1, t2, k, agg),
            QueryKind::Q2 => self.via_query2(|q2| q2.top_k(t1, t2, k, agg)),
        }
    }

    fn size_bytes(&self) -> u64 {
        let mut s = 0;
        if let Some(q1) = &self.q1 {
            s += q1.size_bytes();
        }
        if let Some(q2) = &self.q2 {
            s += q2.size_bytes();
        }
        if let Some(r) = &self.rescorer {
            s += r.size_bytes();
        }
        s
    }

    fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    fn reset_io(&self) {
        self.env.reset_io()
    }

    fn drop_caches(&self) -> Result<()> {
        if let Some(q1) = &self.q1 {
            q1.drop_caches()?;
        }
        if let Some(q2) = &self.q2 {
            q2.drop_caches()?;
        }
        if let Some(r) = &self.rescorer {
            r.file().drop_cache()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::test_support::small_set;

    fn cfg(r: usize, kmax: usize) -> ApproxConfig {
        ApproxConfig { r, kmax, ..Default::default() }
    }

    #[test]
    fn all_variants_build_and_answer() {
        let set = small_set();
        for v in ApproxVariant::ALL {
            let idx = ApproxIndex::build(&set, v, cfg(20, 6)).unwrap();
            assert_eq!(idx.name(), v.name());
            let top = idx.top_k(2.0, 18.0, 4, AggKind::Sum).unwrap();
            assert_eq!(top.len(), 4, "{}", v.name());
            assert!(idx.size_bytes() > 0);
        }
    }

    #[test]
    fn appx1_is_eps1_accurate() {
        let set = small_set();
        let idx = ApproxIndex::build(&set, ApproxVariant::APPX1, cfg(24, 6)).unwrap();
        let em = idx.breakpoints().eps() * idx.breakpoints().mass();
        for &(a, b) in &[(1.0, 9.0), (0.0, 20.0), (3.0, 17.0)] {
            let approx = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            let exact = set.top_k_bruteforce(a, b, 4);
            for j in 0..4 {
                let d = (approx.rank(j).1 - exact.rank(j).1).abs();
                assert!(d <= em + 1e-9, "[{a},{b}] rank {j}: |Δ| = {d} > εM = {em}");
            }
        }
    }

    #[test]
    fn appx2_plus_matches_exact_ranking_in_practice() {
        let set = small_set();
        let idx = ApproxIndex::build(&set, ApproxVariant::APPX2_PLUS, cfg(24, 6)).unwrap();
        for &(a, b) in &[(1.0, 9.0), (0.0, 20.0), (4.0, 16.0)] {
            let approx = idx.top_k(a, b, 3, AggKind::Sum).unwrap();
            let exact = set.top_k_bruteforce(a, b, 3);
            let pr = metrics::precision(&exact, &approx);
            assert!(pr >= 2.0 / 3.0, "[{a},{b}] precision {pr}");
            // Scores of returned candidates are *exact*.
            for &(id, s) in approx.entries() {
                let truth = set.score(id, a, b).unwrap();
                assert!((s - truth).abs() <= 1e-9 * (1.0 + truth.abs()));
            }
        }
    }

    #[test]
    fn a_plus_view_hands_out_the_pool_the_prefix_file_rescores() {
        use crate::method::TopKMethod;
        let set = small_set();
        let plus = ApproxIndex::build(&set, ApproxVariant::APPX2_PLUS, cfg(24, 6)).unwrap();
        let appx2 = ApproxIndex::build(&set, ApproxVariant::APPX2, cfg(24, 6)).unwrap();
        let q2_bytes = appx2.size_bytes();
        let view = appx2.into_plus_view().unwrap();
        assert_eq!(view.profile(), plus.profile(), "the view publishes APPX2+'s profile");
        assert_eq!(view.size_bytes(), q2_bytes, "no prefix file");
        assert!(view.top_k(1.0, 9.0, 3, AggKind::Sum).is_err(), "nothing to re-score from");
        for &(a, b) in &[(1.0, 9.0), (0.0, 20.0), (4.0, 16.0)] {
            let pool = view.candidates(a, b, 3).unwrap();
            assert_eq!(pool, plus.candidates(a, b, 3).unwrap());
            // Re-scoring the pool exactly is APPX2+'s answer.
            let rescored = top_k_from_scores(
                pool.iter().map(|&id| (id, plus.rescorer().unwrap().score_one(id, a, b).unwrap())),
                3,
            );
            assert_eq!(rescored, plus.top_k(a, b, 3, AggKind::Sum).unwrap());
        }
        assert!(view.candidates(1.0, 9.0, 7).is_err(), "k beyond kmax");
        let q1 = ApproxIndex::build(&set, ApproxVariant::APPX1, cfg(24, 6)).unwrap();
        assert!(q1.into_plus_view().is_err() && plus.into_plus_view().is_err());
    }

    #[test]
    fn variants_share_one_io_counter() {
        let set = small_set();
        let idx = ApproxIndex::build(&set, ApproxVariant::APPX2_PLUS, cfg(16, 4)).unwrap();
        idx.drop_caches().unwrap();
        idx.reset_io();
        idx.top_k(2.0, 18.0, 4, AggKind::Sum).unwrap();
        let io = idx.io_stats();
        assert!(io.reads > 0, "query IOs must be visible on the shared counter");
    }

    #[test]
    fn rebuild_policy_triggers_on_mass_doubling() {
        let mut set = small_set();
        let mut idx = ApproxIndex::build(&set, ApproxVariant::APPX2, cfg(16, 4)).unwrap();
        assert!(!idx.maybe_rebuild(&set).unwrap());
        // Append enough mass to double M.
        let need = set.total_mass();
        let end = set.object(0).unwrap().curve.end();
        let dt = 10.0;
        let v = 2.0 * need / dt; // triangle-ish mass ≥ need
        set.append_segment(0, end + dt, v).unwrap();
        assert!(idx.maybe_rebuild(&set).unwrap(), "mass doubled, must rebuild");
        let top = idx.top_k(end, end + dt, 1, AggKind::Sum).unwrap();
        assert_eq!(top.ids(), vec![0]);
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(ApproxVariant::APPX1_B.name(), "APPX1-B");
        assert_eq!(ApproxVariant::APPX2_B.name(), "APPX2-B");
        assert_eq!(ApproxVariant::APPX1.name(), "APPX1");
        assert_eq!(ApproxVariant::APPX2.name(), "APPX2");
        assert_eq!(ApproxVariant::APPX2_PLUS.name(), "APPX2+");
    }
}
