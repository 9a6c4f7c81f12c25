//! The shard-local result cache both engines' shards keep.
//!
//! A [`ResultCache`] maps a [`ProbeKey`] — snapped on the APPX1 / APPX2
//! routes, the raw interval on the rest — to the shard's ranked answer
//! (shard-local ids) in a small intrusive-list LRU, and keeps the §4
//! staleness account beside every entry. It is the one place that decides
//! a hit and the one place that counts hits, lookups and invalidations. A
//! serve shard's snapshot never grows, so nothing is ever charged to its
//! entries and every lookup that finds one hits. A live shard charges each
//! durable batch ([`ResultCache::charge`]): a snapped entry accrues the mass
//! appended inside its snapped interval and is served while its ε audit
//! holds; a raw entry is served only while no appended segment has started
//! before its `t2` (appends extend objects at their right edge only, so
//! nothing else can move an answer over `[t1, t2]`). When a new generation
//! is installed the approximate entries go, and the exact ones stay: an
//! exact answer does not depend on the generation
//! ([`ResultCache::retain_exact`]).

use crate::shard::{ProbeKey, ShardAnswer};
use chronorank_core::{Breakpoints, ObjectId};
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map; `get` and `insert` are
/// `O(1)`. Nothing removes an entry but eviction and `retain`, which
/// re-packs the survivors, so every node is live and eviction reuses the
/// victim's slot.
struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (`capacity ≥ 1`).
    fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Look up `key`, marking the entry most-recently-used on a hit.
    fn get(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.map.get(key).copied()?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&mut self.nodes[idx].value)
    }

    /// Insert (or replace) `key`, evicting the least-recently-used entry
    /// when full.
    fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let node = Node { key: key.clone(), value, prev: NIL, next: NIL };
        let idx = if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.nodes[victim] = node;
            victim
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Every entry, in no particular order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.nodes.iter_mut().map(|n| (&n.key, &mut n.value))
    }

    /// Keep only the entries `keep` accepts, in their recency order:
    /// re-inserted least-recently-used first.
    fn retain(&mut self, keep: impl Fn(&K) -> bool) {
        let mut lru_first = Vec::with_capacity(self.nodes.len());
        let mut idx = self.tail;
        while idx != NIL {
            lru_first.push(idx);
            idx = self.nodes[idx].prev;
        }
        let mut nodes: Vec<Option<Node<K, V>>> =
            std::mem::take(&mut self.nodes).into_iter().map(Some).collect();
        self.map.clear();
        (self.head, self.tail) = (NIL, NIL);
        for idx in lru_first {
            let node = nodes[idx].take().expect("a node is on the list once");
            if keep(&node.key) {
                self.insert(node.key, node.value);
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// What a [`ResultCache`] has counted since it was created (a
/// [`ResultCache::retain_exact`] keeps them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups, hits or not.
    pub lookups: u64,
    /// Lookups that found an entry charged past the query's budget (a raw
    /// entry: charged at all), which the recomputed answer then replaced.
    pub invalidations: u64,
}

/// A cached answer and the mass charged to it since it was computed
/// (`+∞` on a charged raw entry).
struct Entry {
    answer: Vec<(ObjectId, f64)>,
    stale: f64,
}

/// Shard answers with their §4 staleness account (see module docs).
pub struct ResultCache {
    lru: LruCache<ProbeKey, Entry>,
    counters: CacheCounters,
}

impl ResultCache {
    /// An empty cache of at most `capacity ≥ 1` answers.
    pub fn new(capacity: usize) -> Self {
        Self { lru: LruCache::new(capacity), counters: CacheCounters::default() }
    }

    /// The answer to `key`: the cached one while it is still good enough,
    /// else `probe`'s, which is then cached (an `Err` is not). An entry
    /// nothing was charged to is always good enough; a charged snapped one
    /// while `eps_abs + stale ≤ budget_abs` — the generation's absolute
    /// error bound `ε·M_built` plus the mass appended inside the snapped
    /// interval since, against the query's ε-budget on the live mass; a
    /// charged raw one never. A charged entry past that is invalidated. A
    /// serve shard, whose entries are never charged, passes zeros. The
    /// second return is `Some(hit)`: the cache was consulted.
    pub fn answer(
        &mut self,
        key: ProbeKey,
        eps_abs: f64,
        budget_abs: f64,
        probe: impl FnOnce() -> ShardAnswer,
    ) -> (ShardAnswer, Option<bool>) {
        self.counters.lookups += 1;
        if let Some(entry) = self.lru.get(&key) {
            let audited =
                matches!(key, ProbeKey::Snapped { .. }) && eps_abs + entry.stale <= budget_abs;
            if entry.stale <= 0.0 || audited {
                self.counters.hits += 1;
                return (Ok(entry.answer.clone()), Some(true));
            }
            self.counters.invalidations += 1;
        }
        // The recomputed answer replaces an invalidated entry.
        let res = probe();
        if let Ok(answer) = &res {
            self.lru.insert(key, Entry { answer: answer.clone(), stale: 0.0 });
        }
        (res, Some(false))
    }

    /// Charge a batch whose earliest appended segment starts at `from` and
    /// which added `mass`: `mass` to every snapped entry whose right edge
    /// (a point of `breakpoints`, the set its keys were snapped to) lies
    /// after `from`, and a stale mark to every raw entry whose `t2` does,
    /// whatever the mass — a zero-valued segment can still change which
    /// objects a probe rescores.
    pub fn charge(&mut self, breakpoints: Option<&Breakpoints>, from: f64, mass: f64) {
        for (key, entry) in self.lru.iter_mut() {
            match (*key, breakpoints) {
                (ProbeKey::Snapped { b2, .. }, Some(bp)) if bp.points()[b2 as usize] > from => {
                    entry.stale += mass;
                }
                (ProbeKey::Raw { t2, .. }, _) if f64::from_bits(t2) > from => {
                    entry.stale = f64::INFINITY;
                }
                _ => {}
            }
        }
    }

    /// Drop every approximate-route entry, which a new generation
    /// supersedes, and keep the exact ones: an exact answer is the live
    /// data's, whichever generation probed it. The counters are kept.
    pub fn retain_exact(&mut self) {
        self.lru.retain(|key| matches!(key, ProbeKey::Raw { route, .. } if route.is_exact()));
    }

    /// Hits, lookups and invalidations so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Route;
    use chronorank_core::B2Construction;
    use chronorank_workloads::{DatasetGenerator, TempConfig, TempGenerator};

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&mut 1)); // a is now MRU
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&mut 1));
        assert_eq!(c.get(&"c"), Some(&mut 3));
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn replace_updates_value_without_growth() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 9);
        assert_eq!(c.map.len(), 1);
        assert_eq!(c.get(&"a"), Some(&mut 9));
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(1u32, "one");
        c.insert(2u32, "two");
        assert_eq!(c.map.len(), 1);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&mut "two"));
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i % 13, i);
            let probe = (i * 7) % 13;
            if let Some(&mut v) = c.get(&probe) {
                assert_eq!(v % 13, probe % 13);
            }
            assert!(c.map.len() <= 8);
            assert_eq!(c.iter_mut().count(), c.map.len(), "every node is a live entry");
        }
    }

    fn key(b1: u32, b2: u32) -> ProbeKey {
        ProbeKey::Snapped { b1, b2, k: 5, route: Route::Appx2 }
    }

    /// Answers `answer` and counts its calls.
    fn probe<'a>(calls: &'a mut u32, answer: f64) -> impl FnOnce() -> ShardAnswer + 'a {
        move || {
            *calls += 1;
            Ok(vec![(7, answer)])
        }
    }

    fn breakpoints() -> Breakpoints {
        let set =
            TempGenerator::new(TempConfig { objects: 20, avg_segments: 20, ..Default::default() })
                .generate_set();
        Breakpoints::b2_with_count(&set, 16, B2Construction::Efficient).unwrap()
    }

    #[test]
    fn a_fresh_entry_hits() {
        let (mut cache, mut calls) = (ResultCache::new(4), 0);
        assert_eq!(cache.answer(key(0, 3), 0.0, 0.0, probe(&mut calls, 1.0)).1, Some(false));
        let (hit, outcome) = cache.answer(key(0, 3), 0.0, 0.0, probe(&mut calls, 2.0));
        assert_eq!((hit.unwrap(), outcome), (vec![(7, 1.0)], Some(true)));
        assert_eq!(calls, 1, "a hit does not probe");
        assert_eq!(
            cache.counters(),
            CacheCounters { hits: 1, lookups: 2, invalidations: 0 },
            "one miss, one hit"
        );
    }

    #[test]
    fn a_charged_entry_hits_up_to_its_budget_then_is_replaced() {
        let bp = breakpoints();
        let (mut cache, mut calls) = (ResultCache::new(4), 0);
        let last = (bp.len() - 1) as u32;
        cache.answer(key(0, last), 0.0, 0.0, probe(&mut calls, 1.0)).0.unwrap();
        // Appended before the entry's snapped right edge: charged.
        cache.charge(Some(&bp), bp.points()[0], 0.25);
        // Appended at or after it: not charged.
        cache.charge(Some(&bp), bp.points()[last as usize], 100.0);
        // eps_abs + stale == budget exactly: still good enough.
        let (hit, outcome) = cache.answer(key(0, last), 0.5, 0.75, probe(&mut calls, 2.0));
        assert_eq!((hit.unwrap(), outcome, calls), (vec![(7, 1.0)], Some(true), 1));
        // One ulp less budget: invalidated, recomputed, replaced.
        let tight = f64::from_bits(0.75f64.to_bits() - 1);
        let (fresh, outcome) = cache.answer(key(0, last), 0.5, tight, probe(&mut calls, 2.0));
        assert_eq!((fresh.unwrap(), outcome, calls), (vec![(7, 2.0)], Some(false), 2));
        // The replacement carries no charge: it hits under any budget.
        let (hit, outcome) = cache.answer(key(0, last), 0.5, 0.0, probe(&mut calls, 3.0));
        assert_eq!((hit.unwrap(), outcome, calls), (vec![(7, 2.0)], Some(true), 2));
        assert_eq!(cache.counters(), CacheCounters { hits: 2, lookups: 4, invalidations: 1 });
    }

    #[test]
    fn an_error_is_not_cached() {
        let mut cache = ResultCache::new(4);
        let (res, outcome) = cache.answer(key(0, 1), 0.0, 0.0, || Err("no".into()));
        assert_eq!((res, outcome), (Err("no".to_string()), Some(false)));
        assert_eq!(cache.answer(key(0, 1), 0.0, 0.0, || Ok(Vec::new())).1, Some(false));
    }

    #[test]
    fn retain_keeps_the_survivors_in_recency_order() {
        let mut c = LruCache::new(4);
        for i in 1..=4u32 {
            c.insert(i, i);
        }
        c.get(&1); // recency, most recent first: 1 4 3 2
        c.retain(|&k| k != 3);
        assert_eq!((c.map.len(), c.nodes.len()), (3, 3), "the survivors are re-packed");
        c.insert(5, 5); // room for one: nothing evicted
        c.insert(6, 6); // evicts 2, the least recently used survivor
        assert_eq!(c.get(&2), None);
        assert!([1, 4, 5, 6].iter().all(|k| c.get(k).copied() == Some(*k)));
    }

    fn raw(t1: f64, t2: f64, route: Route) -> ProbeKey {
        ProbeKey::Raw { t1: t1.to_bits(), t2: t2.to_bits(), k: 5, route }
    }

    #[test]
    fn a_raw_entry_is_invalidated_by_any_charge_that_starts_before_its_t2() {
        let (mut cache, mut calls) = (ResultCache::new(4), 0);
        let key = raw(1.0, 5.0, Route::Exact3);
        cache.answer(key, 0.0, 0.0, probe(&mut calls, 1.0)).0.unwrap();
        // A segment starting at t2 or later cannot change the answer.
        cache.charge(None, 5.0, 100.0);
        let (hit, outcome) = cache.answer(key, 0.0, 0.0, probe(&mut calls, 2.0));
        assert_eq!((hit.unwrap(), outcome, calls), (vec![(7, 1.0)], Some(true), 1));
        // One that starts before it can, even with no mass and any budget.
        cache.charge(None, 4.5, 0.0);
        let (fresh, outcome) = cache.answer(key, 0.0, f64::MAX, probe(&mut calls, 2.0));
        assert_eq!((fresh.unwrap(), outcome, calls), (vec![(7, 2.0)], Some(false), 2));
        assert_eq!(cache.counters(), CacheCounters { hits: 1, lookups: 3, invalidations: 1 });
    }

    #[test]
    fn retain_exact_drops_approximate_entries_and_keeps_counters() {
        let (mut cache, mut calls) = (ResultCache::new(4), 0);
        let keys = [raw(1.0, 5.0, Route::Exact3), raw(1.0, 5.0, Route::Appx2Plus), key(0, 1)];
        for key in keys {
            assert_eq!(cache.answer(key, 0.0, 0.0, probe(&mut calls, 1.0)).1, Some(false));
        }
        cache.retain_exact();
        assert_eq!(cache.lru.map.len(), 1);
        assert_eq!(cache.counters(), CacheCounters { hits: 0, lookups: 3, invalidations: 0 });
        let outcomes = keys.map(|key| cache.answer(key, 0.0, 0.0, probe(&mut calls, 2.0)).1);
        assert_eq!(outcomes, [Some(true), Some(false), Some(false)]);
        assert_eq!(calls, 5, "the dropped entries are probed again");
    }
}
