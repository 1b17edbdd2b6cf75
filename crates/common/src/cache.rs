//! One cross-query cache: version-fenced, byte-budgeted, LRU.
//!
//! The plan, shared-subplan and transpose caches are each a [`Cache`] under
//! a thin key adapter. A key is a *family* (what the entry is: a
//! fingerprint, a canonical subtree) plus a *version* (the snapshot it was
//! computed from: an epoch, table versions). The map holds one version per
//! family, so another version misses and installing it replaces the old
//! one: a write frees what it made stale instead of leaving it to LRU.
//!
//! Each entry is weighed once, by the function the cache was built with:
//! bytes against the budget (least recently used go first), units against
//! the optional [`CacheLedger`]. An entry over the whole budget, or one the
//! ledger refuses, is not cached; correctness never depends on residency.
//!
//! [`Cache::claim`] builds single-flight: the first caller to miss gets a
//! [`BuildGuard`], callers wanting the same key wait for it (bounded), then
//! hit or compute locally ([`Claim::Bypass`]). A builder only waits on
//! strictly smaller entries (a subtree on its subtrees), so waits cannot
//! form a cycle.

use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::FxHashMap;

/// How long a claim waits on an in-flight build before computing locally.
const BUILD_WAIT: Duration = Duration::from_millis(2000);

/// Memory accounting hook: the cache reserves an entry's units against an
/// external pool before retaining it and releases them when the entry
/// goes. A refusal means "do not cache", never "fail the query".
pub trait CacheLedger: Send + Sync {
    /// Try to reserve `units` of pool memory for an entry.
    fn try_reserve(&self, units: u64) -> bool;
    /// Return previously reserved units to the pool.
    fn release(&self, units: u64);
}

/// An entry's weight: bytes against the budget, units against the ledger.
pub type Weigh<T> = fn(&T) -> (usize, u64);

/// Counters plus a size snapshot, for `\cache` and `\stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    /// Claims answered "compute locally, do not cache", and entries not
    /// retained (over the whole budget or refused by the ledger).
    pub bypasses: u64,
    pub evictions: u64,
    /// Ledger units of the entries installed.
    pub built: u64,
    /// Ledger units served by hits.
    pub reused: u64,
    pub entries: usize,
    pub bytes: usize,
    pub budget: usize,
}

enum Slot<V, T> {
    /// A claimed build of this version is in flight.
    Building(V),
    Ready {
        version: V,
        value: T,
        bytes: usize,
        units: u64,
        last_used: u64,
    },
}

struct State<F, V, T> {
    map: FxHashMap<F, Slot<V, T>>,
    tick: u64,
    ledger: Option<Arc<dyn CacheLedger>>,
    /// `entries` is filled in by [`Cache::stats`]; the rest is live.
    stats: CacheStats,
}

impl<F: Hash + Eq + Clone, V: PartialEq, T: Clone> State<F, V, T> {
    /// The ready entry of `family` at `version`, bumping its recency.
    fn hit(&mut self, family: &F, version: &V) -> Option<T> {
        match self.map.get_mut(family)? {
            Slot::Ready { version: v, value, units, last_used, .. } if v == version => {
                self.tick += 1;
                *last_used = self.tick;
                self.stats.hits += 1;
                self.stats.reused += *units;
                Some(value.clone())
            }
            _ => None,
        }
    }

    /// Drop `family`'s slot if it is a build of `version`.
    fn unclaim(&mut self, family: &F, version: &V) {
        if matches!(self.map.get(family), Some(Slot::Building(v)) if v == version) {
            self.map.remove(family);
        }
    }

    /// Account for a slot leaving the map.
    fn release(&mut self, slot: Option<Slot<V, T>>) {
        if let Some(Slot::Ready { bytes, units, .. }) = slot {
            self.stats.bytes -= bytes;
            if let Some(l) = &self.ledger {
                l.release(units);
            }
        }
    }

    fn evict_to_budget(&mut self) {
        while self.stats.bytes > self.stats.budget {
            // O(n) min-scan: eviction runs only over budget, over at most a
            // few thousand entries.
            let victim = self.map.iter().filter_map(|(f, s)| match s {
                Slot::Ready { last_used, .. } => Some((*last_used, f)),
                Slot::Building(_) => None,
            });
            let Some(f) = victim.min_by_key(|(t, _)| *t).map(|(_, f)| f.clone()) else {
                break;
            };
            let slot = self.map.remove(&f);
            self.release(slot);
            self.stats.evictions += 1;
        }
    }
}

/// The cache. `Clone` shares the state; every method is thread-safe.
pub struct Cache<F, V, T> {
    state: Arc<Mutex<State<F, V, T>>>,
    /// Signalled whenever a build finishes or is abandoned.
    built: Arc<Condvar>,
    weigh: Weigh<T>,
}

impl<F, V, T> Clone for Cache<F, V, T> {
    fn clone(&self) -> Self {
        let (state, built) = (Arc::clone(&self.state), Arc::clone(&self.built));
        Cache { state, built, weigh: self.weigh }
    }
}

/// Outcome of [`Cache::claim`].
pub enum Claim<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> {
    /// The entry, ready to use.
    Hit(T),
    /// This caller owns the build: compute, then [`BuildGuard::finish`].
    Build(BuildGuard<F, V, T>),
    /// Another version is building, or the build took too long: compute
    /// locally and do not cache.
    Bypass,
}

impl<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> Cache<F, V, T> {
    /// A cache of `budget` bytes whose entries `weigh` weighs.
    pub fn new(budget: usize, weigh: Weigh<T>) -> Self {
        let stats = CacheStats { budget, ..CacheStats::default() };
        let state = State { map: FxHashMap::default(), tick: 0, ledger: None, stats };
        Cache { state: Arc::new(Mutex::new(state)), built: Arc::new(Condvar::new()), weigh }
    }

    /// The state, also after a panic under the lock: every update keeps the
    /// map valid, so the worst a poisoned lock hides is a skewed count.
    fn lock(&self) -> MutexGuard<'_, State<F, V, T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach the memory ledger. Entries cached before this are
    /// unaccounted; owners wire the ledger before serving.
    pub fn set_ledger(&self, ledger: Arc<dyn CacheLedger>) {
        self.lock().ledger = Some(ledger);
    }

    /// The entry of `family` at `version`, bumping its recency. Counts a
    /// hit or a miss.
    pub fn get(&self, family: &F, version: &V) -> Option<T> {
        let mut st = self.lock();
        let hit = st.hit(family, version);
        st.stats.misses += u64::from(hit.is_none());
        hit
    }

    /// Install `value` as `family`'s entry at `version`, replacing whatever
    /// version the family held, then evict down to the budget.
    pub fn insert(&self, family: F, version: V, value: T) {
        let (bytes, units) = (self.weigh)(&value);
        let mut st = self.lock();
        let kept =
            bytes <= st.stats.budget && st.ledger.as_ref().is_none_or(|l| l.try_reserve(units));
        if kept {
            st.tick += 1;
            let last_used = st.tick;
            let old = st.map.insert(
                family,
                Slot::Ready { version, value, bytes, units, last_used },
            );
            st.release(old);
            st.stats.bytes += bytes;
            st.stats.insertions += 1;
            st.stats.built += units;
            st.evict_to_budget();
        } else {
            st.unclaim(&family, &version);
            st.stats.bypasses += 1;
        }
        self.built.notify_all();
    }

    /// Single-flight lookup: a hit, the build of a missing entry (a stale
    /// version of the family is freed now), or a bypass. While this
    /// version is building elsewhere, wait (bounded) for it.
    pub fn claim(&self, family: &F, version: &V) -> Claim<F, V, T> {
        let deadline = Instant::now() + BUILD_WAIT;
        let mut st = self.lock();
        loop {
            if let Some(value) = st.hit(family, version) {
                return Claim::Hit(value);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match st.map.get(family) {
                Some(Slot::Building(v)) if v == version && !left.is_zero() => {}
                Some(Slot::Building(_)) => {
                    st.stats.bypasses += 1;
                    return Claim::Bypass;
                }
                _ => {
                    let stale = st
                        .map
                        .insert(family.clone(), Slot::Building(version.clone()));
                    st.release(stale);
                    st.stats.misses += 1;
                    let claim = Some((family.clone(), version.clone()));
                    return Claim::Build(BuildGuard { cache: self.clone(), claim });
                }
            }
            st = self
                .built
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Change the byte budget, evicting at once if it shrank (a budget of
    /// zero empties the cache).
    pub fn set_budget(&self, bytes: usize) {
        let mut st = self.lock();
        st.stats.budget = bytes;
        st.evict_to_budget();
    }

    pub fn stats(&self) -> CacheStats {
        let st = self.lock();
        CacheStats { entries: st.map.len(), ..st.stats }
    }
}

impl<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> fmt::Debug for Cache<F, V, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Single-flight claim on one family at one version: `finish` installs the
/// result, dropping the guard un-claims the slot so waiters stop blocking.
pub struct BuildGuard<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> {
    cache: Cache<F, V, T>,
    claim: Option<(F, V)>,
}

impl<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> BuildGuard<F, V, T> {
    pub fn finish(mut self, value: T) {
        if let Some((family, version)) = self.claim.take() {
            self.cache.insert(family, version, value);
        }
    }
}

impl<F: Hash + Eq + Clone, V: PartialEq + Clone, T: Clone> Drop for BuildGuard<F, V, T> {
    fn drop(&mut self) {
        if let Some((family, version)) = self.claim.take() {
            self.cache.lock().unclaim(&family, &version);
            self.cache.built.notify_all();
        }
    }
}
