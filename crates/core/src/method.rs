//! Object-safe unification of all ranking methods for dynamic dispatch.
//!
//! [`RankMethod`] gives every method the same *query* interface; a serving
//! layer additionally needs to know, per built index, **what it is allowed
//! to route there**: is the method exact, what `(ε, α)` guarantee does it
//! carry, and up to which `k` can it answer. [`TopKMethod`] adds exactly
//! that — a [`MethodProfile`] — so a cost-based planner can hold a
//! heterogeneous `Box<dyn TopKMethod>` collection (EXACT1..3, any
//! [`crate::ApproxVariant`]) and dispatch per query.

use crate::appx::{ApproxIndex, QueryKind};
use crate::exact1::Exact1;
use crate::exact2::Exact2;
use crate::exact3::Exact3;
use crate::topk::RankMethod;

/// What a built method guarantees, in the paper's `(ε, α)` vocabulary
/// (Definition 2): answers are within additive error `εM` of the true
/// scores, and the `j`-th returned object ranks among the true top
/// `j + α − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodProfile {
    /// `None` for exact methods; `Some(ε)` for `(ε, α)`-approximate ones
    /// (the *achieved* ε of the built breakpoints, not the requested one).
    pub eps: Option<f64>,
    /// True when every returned rank is individually `εM`-tight (`α = 1`):
    /// exact methods trivially, QUERY1-backed variants by Lemma 2, and the
    /// `+` variants through exact re-scoring (near-exact in practice,
    /// paper §3.3 / Fig. 12). Plain QUERY2 variants (`α = 2 log r`) are
    /// not.
    pub tight_ranks: bool,
    /// Largest answerable `k` (`None` = unbounded; approximate indexes are
    /// built for a fixed `kmax`).
    pub max_k: Option<usize>,
}

impl MethodProfile {
    /// Profile shared by all three exact methods.
    pub const EXACT: Self = Self { eps: None, tight_ranks: true, max_k: None };

    /// True for exact methods.
    pub fn is_exact(&self) -> bool {
        self.eps.is_none()
    }

    /// §4 ε re-validation: the breakpoints behind an approximate index were
    /// built for an *absolute* threshold `τ = ε·M_built`; once right-edge
    /// appends have grown the live mass to `M_live ≥ M_built`, that same
    /// absolute bound is the fraction `ε·M_built / M_live` of the current
    /// mass. Returns the profile restated against `live_mass`, which is
    /// what a planner must compare a client's ε-budget to. Exact profiles
    /// are unchanged; so is everything unless the live mass has grown past
    /// the built mass — at equal mass the profile comes back bit for bit
    /// (`ε·M/M` need not be `ε`), and a shrunk or non-positive mass would
    /// *loosen* the restated bound, while appends can only grow it.
    pub fn revalidate(self, built_mass: f64, live_mass: f64) -> Self {
        match self.eps {
            Some(eps) if built_mass > 0.0 && live_mass > built_mass => {
                Self { eps: Some(eps * built_mass / live_mass), ..self }
            }
            _ => self,
        }
    }
}

/// A [`MethodProfile`] pinned to one published index *generation* of a
/// live, append-receiving system: which epoch it belongs to and the total
/// mass `M` the structures were built over. [`GenerationProfile::current`]
/// restates the guarantee against the live mass (ε re-validation), which
/// is what makes cached approximate answers auditable between rebuilds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationProfile {
    /// Epoch counter: bumped on every epoch swap.
    pub generation: u64,
    /// `M` at build time (`TemporalSet::total_mass` of the snapshot).
    pub built_mass: f64,
    /// The built method's profile, stated against `built_mass`.
    pub profile: MethodProfile,
}

impl GenerationProfile {
    /// The profile restated against the current live mass (see
    /// [`MethodProfile::revalidate`]).
    pub fn current(&self, live_mass: f64) -> MethodProfile {
        self.profile.revalidate(self.built_mass, live_mass)
    }

    /// The absolute additive error bound `ε·M_built` carried by this
    /// generation's approximate answers (`0` for exact methods). Constant
    /// across appends — the quantity a staleness check adds appended mass
    /// on top of.
    pub fn eps_abs(&self) -> f64 {
        self.profile.eps.map_or(0.0, |e| e * self.built_mass)
    }
}

/// The object-safe interface a query planner dispatches through: the common
/// query surface of [`RankMethod`] plus the method's [`MethodProfile`].
///
/// Every built method in this workspace is `Send + Sync`, so serving
/// layers hold `Box<dyn TopKMethod + Send + Sync>` (or `Arc<dyn …>`) and
/// query one shared snapshot from many worker threads at once — the
/// storage layer underneath synchronizes block access and IO counting.
pub trait TopKMethod: RankMethod {
    /// The guarantee and limits of this built index.
    fn profile(&self) -> MethodProfile;
}

/// A heterogeneous, shareable built method — the unit serving layers
/// publish once and query from every worker.
pub type SharedMethod = Box<dyn TopKMethod + Send + Sync>;

// `Arc<M>` answers exactly like `M`, so a layer that keeps a concrete
// handle (e.g. for persistence) can publish `Box::new(Arc<M>)` as a
// [`SharedMethod`] without building the index twice.
impl<T: RankMethod + ?Sized> RankMethod for std::sync::Arc<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: crate::AggKind) -> crate::Result<crate::TopK> {
        (**self).top_k(t1, t2, k, agg)
    }
    fn size_bytes(&self) -> u64 {
        (**self).size_bytes()
    }
    fn io_stats(&self) -> chronorank_storage::IoStats {
        (**self).io_stats()
    }
    fn reset_io(&self) {
        (**self).reset_io()
    }
    fn drop_caches(&self) -> crate::Result<()> {
        (**self).drop_caches()
    }
}

impl<T: TopKMethod + ?Sized> TopKMethod for std::sync::Arc<T> {
    fn profile(&self) -> MethodProfile {
        (**self).profile()
    }
}

impl TopKMethod for Exact1 {
    fn profile(&self) -> MethodProfile {
        MethodProfile::EXACT
    }
}

impl TopKMethod for Exact2 {
    fn profile(&self) -> MethodProfile {
        MethodProfile::EXACT
    }
}

impl TopKMethod for Exact3 {
    fn profile(&self) -> MethodProfile {
        MethodProfile::EXACT
    }
}

impl TopKMethod for ApproxIndex {
    fn profile(&self) -> MethodProfile {
        let v = self.variant();
        MethodProfile {
            eps: Some(self.breakpoints().eps()),
            tight_ranks: v.query == QueryKind::Q1 || v.plus,
            max_k: Some(self.kmax()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_set;
    use crate::{AggKind, ApproxConfig, ApproxVariant, IndexConfig};

    #[test]
    fn all_built_methods_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Exact1>();
        assert_send_sync::<Exact2>();
        assert_send_sync::<Exact3>();
        assert_send_sync::<ApproxIndex>();
        assert_send_sync::<SharedMethod>();
    }

    #[test]
    fn one_shared_snapshot_answers_identically_from_eight_threads() {
        let set = small_set();
        let method: SharedMethod = Box::new(Exact3::build(&set, IndexConfig::default()).unwrap());
        let want = method.top_k(2.0, 12.0, 3, AggKind::Sum).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (method, want) = (&method, &want);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let got = method.top_k(2.0, 12.0, 3, AggKind::Sum).unwrap();
                        assert_eq!(got.ids(), want.ids());
                        for (a, b) in got.scores().iter().zip(want.scores()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical across threads");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn exact_methods_report_exact_profiles() {
        let set = small_set();
        let methods: Vec<Box<dyn TopKMethod>> = vec![
            Box::new(Exact1::build(&set, IndexConfig::default()).unwrap()),
            Box::new(Exact2::build(&set, IndexConfig::default()).unwrap()),
            Box::new(Exact3::build(&set, IndexConfig::default()).unwrap()),
        ];
        for m in &methods {
            let p = m.profile();
            assert!(p.is_exact(), "{}", m.name());
            assert!(p.tight_ranks && p.max_k.is_none(), "{}", m.name());
            // Dispatch through the trait object must keep answering.
            assert_eq!(m.top_k(2.0, 12.0, 2, AggKind::Sum).unwrap().len(), 2);
        }
    }

    #[test]
    fn revalidation_tightens_eps_as_mass_grows() {
        let p = MethodProfile { eps: Some(0.04), tight_ranks: false, max_k: Some(32) };
        // Mass doubled: the same absolute bound is half the fraction.
        let r = p.revalidate(100.0, 200.0);
        assert!((r.eps.unwrap() - 0.02).abs() < 1e-12);
        assert_eq!((r.tight_ranks, r.max_k), (false, Some(32)));
        // No growth → unchanged; degenerate masses → unchanged.
        assert_eq!(p.revalidate(100.0, 100.0), p);
        assert_eq!(p.revalidate(100.0, 50.0), p);
        assert_eq!(p.revalidate(0.0, 10.0), p);
        // Exact profiles are immune.
        assert_eq!(MethodProfile::EXACT.revalidate(1.0, 9.0), MethodProfile::EXACT);
    }

    #[test]
    fn revalidation_at_equal_mass_returns_the_profile_bit_for_bit() {
        // 0.1 · 3 / 3 rounds to 0.10000000000000002: restating at equal
        // mass would move the ε a static engine reports.
        let p = MethodProfile { eps: Some(0.1), tight_ranks: true, max_k: Some(8) };
        assert_ne!((0.1f64 * 3.0 / 3.0).to_bits(), 0.1f64.to_bits());
        assert_eq!(p.revalidate(3.0, 3.0).eps.map(f64::to_bits), Some(0.1f64.to_bits()));
        let grown = p.revalidate(3.0, 6.0).eps.unwrap();
        assert!((grown - 0.05).abs() < 1e-12, "a grown mass still tightens: {grown}");
    }

    #[test]
    fn generation_profiles_restate_against_live_mass() {
        let g = GenerationProfile {
            generation: 3,
            built_mass: 50.0,
            profile: MethodProfile { eps: Some(0.1), tight_ranks: true, max_k: Some(8) },
        };
        assert!((g.eps_abs() - 5.0).abs() < 1e-12);
        let now = g.current(100.0);
        assert!((now.eps.unwrap() - 0.05).abs() < 1e-12);
        let exact =
            GenerationProfile { generation: 0, built_mass: 50.0, profile: MethodProfile::EXACT };
        assert_eq!(exact.eps_abs(), 0.0);
        assert_eq!(exact.current(500.0), MethodProfile::EXACT);
    }

    #[test]
    fn approx_profiles_expose_eps_alpha_and_kmax() {
        let set = small_set();
        let cfg = ApproxConfig { r: 16, kmax: 4, ..Default::default() };
        for (v, tight) in [
            (ApproxVariant::APPX1, true),
            (ApproxVariant::APPX2, false),
            (ApproxVariant::APPX2_PLUS, true),
        ] {
            let idx = ApproxIndex::build(&set, v, cfg).unwrap();
            let p = idx.profile();
            assert!(!p.is_exact());
            assert!(p.eps.unwrap() > 0.0, "{}", v.name());
            assert_eq!(p.tight_ranks, tight, "{}", v.name());
            assert_eq!(p.max_k, Some(4));
        }
    }
}
