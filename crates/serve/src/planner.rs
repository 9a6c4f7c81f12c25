//! Cost-based query routing.
//!
//! The planner is the paper's Figure-3 cost table made operational: for
//! each query it instantiates [`chronorank_core::cost_model`] with the
//! shard's parameters and the query's `(t1, t2, k)`, then picks the
//! cheapest built method whose [`MethodProfile`] (reported by every shard
//! through the object-safe [`chronorank_core::TopKMethod`] trait and
//! merged worst-case across shards) satisfies the query's
//! [`crate::Tolerance`]:
//!
//! * no tolerance → exact: EXACT3's two stabs (`log_B N + m/B` each), the
//!   paper's default exact choice and since ISSUE 15 the only one — it
//!   measured cheaper than the EXACT1 B+-tree at every window width, so
//!   shards no longer build that tree;
//! * tolerance with `ε`-budget ≥ the shards' achieved ε → approximate:
//!   APPX1 (`k/B + log_B r`, `α = 1`), APPX2 (`k log r`, `α = 2 log r`),
//!   APPX2+ (`k log r log_B n`, re-scored) — filtered by each profile's
//!   `tight_ranks`/`max_k`, then cheapest-first;
//! * budget unsatisfiable (ε too small, or `k > kmax`) → exact fallback.

use crate::query::ServeQuery;
use chronorank_core::cost_model::{query_cost, CostParams};
use chronorank_core::{MethodProfile, TemporalSet};

/// The §4 freshness dimension every engine routes with: the indexes its
/// shards serve were built over `built_mass`, and right-edge appends have
/// grown the live mass to `live_mass ≥ built_mass` (one number where none
/// arrive). The planner restates every approximate profile against the
/// live mass ([`chronorank_core::MethodProfile::revalidate`]) before
/// admitting it: a built index's *absolute* bound `ε·M_built` is a smaller
/// fraction of a grown mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freshness {
    /// Total mass `M` the serving generations were built over.
    pub built_mass: f64,
    /// Current total mass, appends included.
    pub live_mass: f64,
}

/// The methods the engine can host, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// EXACT1 (§2). Serving shards build no B+-tree: this slot is a second
    /// handle to the EXACT3 index, kept so route indexes, metric labels and
    /// wire codes do not shift. The planner never routes here.
    Exact1,
    /// EXACT3 — interval tree, two stabbing queries (§2).
    Exact3,
    /// APPX1 — BREAKPOINTS2 + QUERY1, `(ε, 1)` (§3.2).
    Appx1,
    /// APPX2 — BREAKPOINTS2 + QUERY2, `(ε, 2 log r)` (§3.2).
    Appx2,
    /// APPX2+ — APPX2 + exact re-scoring (§3.3).
    Appx2Plus,
}

impl Route {
    /// All routes, display order.
    pub const ALL: [Route; 5] =
        [Route::Exact1, Route::Exact3, Route::Appx1, Route::Appx2, Route::Appx2Plus];

    /// Paper name of the routed method.
    pub fn name(self) -> &'static str {
        match self {
            Route::Exact1 => "EXACT1",
            Route::Exact3 => "EXACT3",
            Route::Appx1 => "APPX1",
            Route::Appx2 => "APPX2",
            Route::Appx2Plus => "APPX2+",
        }
    }

    /// True for the exact methods.
    pub fn is_exact(self) -> bool {
        matches!(self, Route::Exact1 | Route::Exact3)
    }

    /// Whether answers on this route are fully determined by the *snapped*
    /// breakpoint pair, so a probe and its result-cache entry are keyed on
    /// it ([`crate::ProbeKey::Snapped`]). True for APPX1 and APPX2 (both
    /// snap `[t1, t2]` to `[B(t1), B(t2)]` before touching any list).
    /// False for exact routes (answers depend on the raw interval) and for
    /// APPX2+ (its re-scoring integrates over the raw `[t1, t2]`): those
    /// are keyed, and cached, on the raw interval.
    pub fn cacheable(self) -> bool {
        matches!(self, Route::Appx1 | Route::Appx2)
    }

    /// Dense index into per-route tables such as
    /// [`crate::ServeReport::routes`] and [`RouteProfiles`]
    /// ([`Route::ALL`] order).
    pub fn idx(self) -> usize {
        match self {
            Route::Exact1 => 0,
            Route::Exact3 => 1,
            Route::Appx1 => 2,
            Route::Appx2 => 3,
            Route::Appx2Plus => 4,
        }
    }
}

/// Which methods each shard builds (and the planner may route to).
/// EXACT3 is mandatory: it is the engine's correctness anchor and the
/// fallback when a tolerance cannot be honoured.
///
/// The default builds APPX2 and leaves APPX2+ out. APPX2+'s packed prefix
/// file is a third of a default shard's index bytes, and it pays only for
/// tight-ranks traffic on Meme-shaped sets above about 30 k objects per
/// shard: below that, EXACT3 answers a tight-ranks query exactly in fewer
/// cold reads (on Meme at 1.5 k objects, 12.2 against 67.0; on a dense
/// shard, every object alive at every `t`, 48.95 against 54.05). A caller with such traffic sets
/// `appx2_plus: true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSet {
    /// Fill the [`Route::Exact1`] slot. Builds nothing: the slot holds the
    /// EXACT3 index every shard has anyway.
    pub exact1: bool,
    /// Build APPX1 (`(ε,1)`; `Θ(r² kmax/B)` space — off by default).
    pub appx1: bool,
    /// Build APPX2 (`(ε, 2 log r)`; the cheap approximate workhorse).
    pub appx2: bool,
    /// Build APPX2+ (APPX2 + exact re-scoring from a packed prefix-sum file;
    /// near-exact in practice — off by default).
    pub appx2_plus: bool,
}

impl Default for MethodSet {
    fn default() -> Self {
        Self { exact1: true, appx1: false, appx2: true, appx2_plus: false }
    }
}

impl MethodSet {
    /// True when `route` is part of the set (EXACT3 always is).
    pub fn contains(&self, route: Route) -> bool {
        match route {
            Route::Exact1 => self.exact1,
            Route::Exact3 => true,
            Route::Appx1 => self.appx1,
            Route::Appx2 => self.appx2,
            Route::Appx2Plus => self.appx2_plus,
        }
    }

    /// True when any approximate method is enabled.
    pub fn any_approx(&self) -> bool {
        self.appx1 || self.appx2 || self.appx2_plus
    }
}

/// One [`MethodProfile`] per route ([`Route::ALL`] order), `None` where the
/// method is not built. Each shard reports its built methods' profiles
/// (via [`chronorank_core::TopKMethod::profile`]); the engine merges them
/// worst-case with [`merge_profiles`] so one plan is valid everywhere.
pub type RouteProfiles = [Option<MethodProfile>; 5];

/// Worst-case merge of per-shard profiles: a route is available only when
/// every shard built it; `ε` is the largest achieved, `tight_ranks` must
/// hold on every shard, `max_k` is the smallest cap.
pub fn merge_profiles(shards: &[RouteProfiles]) -> RouteProfiles {
    let mut merged: RouteProfiles = [None; 5];
    for (i, slot) in merged.iter_mut().enumerate() {
        let mut acc: Option<MethodProfile> = None;
        for shard in shards {
            let Some(p) = shard[i] else {
                acc = None;
                break;
            };
            acc = Some(match acc {
                None => p,
                Some(a) => MethodProfile {
                    eps: match (a.eps, p.eps) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        (None, None) => None,
                        // Exact and approximate mixed on one route cannot
                        // happen; degrade to the approximate view.
                        (x, y) => x.or(y),
                    },
                    tight_ranks: a.tight_ranks && p.tight_ranks,
                    max_k: match (a.max_k, p.max_k) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        (x, y) => x.or(y),
                    },
                },
            });
        }
        *slot = acc;
    }
    merged
}

/// Per-shard parameters the planner instantiates the cost model with
/// (worst-case across shards, so one plan is valid engine-wide).
#[derive(Debug, Clone, Copy)]
pub struct PlannerParams {
    /// Objects in the largest shard.
    pub shard_m: u64,
    /// Segments in the largest shard.
    pub shard_n: u64,
    /// Block size in bytes.
    pub block: u64,
    /// Breakpoints per shard (`r`).
    pub r: u64,
    /// Global time-domain span `T` (for the overlap-fraction estimate).
    pub span: f64,
}

impl PlannerParams {
    /// The parameters of a `W`-way partition ([`crate::partition`]) — its
    /// largest shard, the block size and `r` — and the time domain
    /// `(t_min, t_max)` its parts cover together. Both engines plan with
    /// this.
    pub fn of_partition(parts: &[TemporalSet], block: usize, r: usize) -> (Self, (f64, f64)) {
        let t_min = parts.iter().map(TemporalSet::t_min).fold(f64::INFINITY, f64::min);
        let t_max = parts.iter().map(TemporalSet::t_max).fold(f64::NEG_INFINITY, f64::max);
        let params = Self {
            shard_m: parts.iter().map(|s| s.num_objects() as u64).max().unwrap_or(0),
            shard_n: parts.iter().map(TemporalSet::num_segments).max().unwrap_or(0),
            block: block as u64,
            r: r as u64,
            span: (t_max - t_min).max(0.0),
        };
        (params, (t_min, t_max))
    }
}

/// The engine-side router (one per engine, shared by all shards).
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    params: PlannerParams,
    profiles: RouteProfiles,
}

impl Planner {
    /// A planner for shards with the given parameters and (worst-case
    /// merged) built-method profiles. EXACT3 must be present — it is the
    /// unconditional fallback.
    pub fn new(params: PlannerParams, profiles: RouteProfiles) -> Self {
        Self { params, profiles }
    }

    /// The parameters in use.
    pub fn params(&self) -> PlannerParams {
        self.params
    }

    /// The merged profile dispatched through for `route`, if built.
    pub fn profile(&self, route: Route) -> Option<MethodProfile> {
        self.profiles[route.idx()]
    }

    /// Instantiate the cost model for one query.
    fn costs(&self, q: &ServeQuery) -> chronorank_core::cost_model::QueryCost {
        let p = self.params;
        // Fraction of all segments a range scan would touch: the interval's
        // share of the domain (uniform-density estimate, clamped).
        let overlap = if p.span > 0.0 { ((q.t2 - q.t1) / p.span).clamp(0.0, 1.0) } else { 1.0 };
        let kmax = Route::ALL
            .iter()
            .filter_map(|r| self.profiles[r.idx()].and_then(|p| p.max_k))
            .max()
            .unwrap_or(1);
        query_cost(&CostParams {
            m: p.shard_m.max(1),
            n_total: p.shard_n.max(1),
            n_avg: (p.shard_n / p.shard_m.max(1)).max(1),
            block: p.block.max(512),
            r: p.r.max(2),
            kmax: kmax as u64,
            k: q.k as u64,
            overlap_frac: overlap,
        })
    }

    /// Route one query: the cheapest built method whose profile satisfies
    /// the query's tolerance (exact fallback otherwise).
    pub fn route(&self, q: &ServeQuery) -> Route {
        self.route_with_freshness(q, None)
    }

    /// [`Planner::route`] with the live deployment's freshness dimension:
    /// every approximate profile is restated against the live mass before
    /// the ε-budget check (see [`Freshness`]). `None` reproduces the
    /// static behaviour exactly.
    pub fn route_with_freshness(&self, q: &ServeQuery, fresh: Option<Freshness>) -> Route {
        if let Some(tol) = q.tolerance {
            let c = self.costs(q);
            let mut best: Option<(Route, f64)> = None;
            for (route, cost) in
                [(Route::Appx1, c.appx1), (Route::Appx2, c.appx2), (Route::Appx2Plus, c.appx2_plus)]
            {
                let Some(mut profile) = self.profiles[route.idx()] else { continue };
                if let Some(f) = fresh {
                    profile = profile.revalidate(f.built_mass, f.live_mass);
                }
                let eps_ok = matches!(profile.eps, Some(e) if e <= tol.eps);
                let k_ok = profile.max_k.is_none_or(|kmax| q.k <= kmax);
                if !eps_ok || !k_ok || (tol.tight_ranks && !profile.tight_ranks) {
                    continue;
                }
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((route, cost));
                }
            }
            if let Some((route, _)) = best {
                return route;
            }
        }
        Route::Exact3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(eps: f64, tight: bool, kmax: usize) -> Option<MethodProfile> {
        Some(MethodProfile { eps: Some(eps), tight_ranks: tight, max_k: Some(kmax) })
    }

    /// EXACT1 + EXACT3 + APPX2 (the default `MethodSet`) + APPX2+ at ε = 1%.
    fn profiles() -> RouteProfiles {
        let mut p: RouteProfiles = [None; 5];
        p[Route::Exact1.idx()] = Some(MethodProfile::EXACT);
        p[Route::Exact3.idx()] = Some(MethodProfile::EXACT);
        p[Route::Appx2.idx()] = approx(0.01, false, 64);
        p[Route::Appx2Plus.idx()] = approx(0.01, true, 64);
        p
    }

    fn params() -> PlannerParams {
        PlannerParams { shard_m: 2_000, shard_n: 200_000, block: 4096, r: 64, span: 1000.0 }
    }

    #[test]
    fn exact_queries_go_to_exact3_at_every_interval_length() {
        let p = Planner::new(params(), profiles());
        assert_eq!(p.route(&ServeQuery::exact(10.0, 10.01, 20)), Route::Exact3);
        assert_eq!(p.route(&ServeQuery::exact(100.0, 400.0, 20)), Route::Exact3);
    }

    #[test]
    fn tolerance_routes_to_cheapest_admissible_approx() {
        let p = Planner::new(params(), profiles());
        // Loose ranks: APPX2 is the cheapest built approximate method.
        assert_eq!(p.route(&ServeQuery::approx(100.0, 400.0, 20, 0.05)), Route::Appx2);
        // Tight ranks with APPX1 not built: APPX2+ (re-scored).
        assert_eq!(p.route(&ServeQuery::approx_tight(100.0, 400.0, 20, 0.05)), Route::Appx2Plus);
        // Tight ranks with APPX1 built: APPX1 is cheaper than APPX2+.
        let mut pr = profiles();
        pr[Route::Appx1.idx()] = approx(0.01, true, 64);
        let with1 = Planner::new(params(), pr);
        assert_eq!(with1.route(&ServeQuery::approx_tight(100.0, 400.0, 20, 0.05)), Route::Appx1);
    }

    #[test]
    fn unsatisfiable_budgets_fall_back_to_exact() {
        let p = Planner::new(params(), profiles());
        // ε budget below the achieved ε of the built breakpoints.
        let q = ServeQuery::approx(100.0, 400.0, 20, 0.001);
        assert!(p.route(&q).is_exact());
        // k beyond kmax.
        let q = ServeQuery::approx(100.0, 400.0, 200, 0.05);
        assert!(p.route(&q).is_exact());
        // No approximate index built at all.
        let mut pr = profiles();
        pr[Route::Appx2.idx()] = None;
        pr[Route::Appx2Plus.idx()] = None;
        let none = Planner::new(params(), pr);
        assert!(none.route(&ServeQuery::approx(100.0, 400.0, 20, 0.05)).is_exact());
    }

    #[test]
    fn freshness_revalidates_eps_budgets() {
        let p = Planner::new(params(), profiles());
        // Budget 0.006 is below the built ε = 0.01 → exact fallback when
        // the data is static…
        let q = ServeQuery::approx(100.0, 400.0, 20, 0.006);
        assert!(p.route(&q).is_exact());
        // …but once appends have doubled the mass, the frozen generation's
        // absolute bound is ε_eff = 0.005 of the live mass: admissible.
        let fresh = Freshness { built_mass: 100.0, live_mass: 200.0 };
        assert_eq!(p.route_with_freshness(&q, Some(fresh)), Route::Appx2);
        // No growth → identical to the static route.
        let same = Freshness { built_mass: 100.0, live_mass: 100.0 };
        assert!(p.route_with_freshness(&q, Some(same)).is_exact());
        // Exact queries are unaffected by freshness.
        let e = ServeQuery::exact(100.0, 400.0, 20);
        assert_eq!(p.route_with_freshness(&e, Some(fresh)), p.route(&e));
    }

    #[test]
    fn merge_takes_the_worst_case_across_shards() {
        let mut a: RouteProfiles = [None; 5];
        a[Route::Exact3.idx()] = Some(MethodProfile::EXACT);
        a[Route::Appx2.idx()] = approx(0.01, false, 64);
        let mut b = a;
        b[Route::Appx2.idx()] = approx(0.03, false, 32);
        let merged = merge_profiles(&[a, b]);
        let m = merged[Route::Appx2.idx()].unwrap();
        assert_eq!(m.eps, Some(0.03), "largest ε wins");
        assert_eq!(m.max_k, Some(32), "smallest cap wins");
        assert_eq!(merged[Route::Exact3.idx()], Some(MethodProfile::EXACT));
        // A route missing on any shard is missing in the merge.
        b[Route::Appx2.idx()] = None;
        assert!(merge_profiles(&[a, b])[Route::Appx2.idx()].is_none());
        assert!(merge_profiles(&[])[Route::Exact3.idx()].is_none());
    }

    #[test]
    fn route_table_helpers() {
        assert_eq!(Route::ALL.len(), 5);
        for (i, r) in Route::ALL.iter().enumerate() {
            assert_eq!(r.idx(), i);
        }
        assert!(Route::Appx2.cacheable() && Route::Appx1.cacheable());
        assert!(!Route::Appx2Plus.cacheable() && !Route::Exact3.cacheable());
        assert_eq!(Route::Appx2Plus.name(), "APPX2+");
        assert!(MethodSet::default().contains(Route::Exact3));
        assert!(MethodSet::default().any_approx());
        let p = Planner::new(params(), profiles());
        assert!(p.profile(Route::Appx2).is_some());
        assert!(p.profile(Route::Appx1).is_none());
        assert!(p.params().span > 0.0);
    }
}
