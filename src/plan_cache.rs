//! The plan cache: pay the five-way cost race once per query shape.
//!
//! Keys are `(canonical fingerprint, catalog epoch, planning mode)`. The
//! fingerprint comes from [`decorr_core::fingerprint()`] over the
//! *parameterized* graph (literals already hoisted into a binding vector
//! by [`decorr_sql::parameterize`]), so queries differing only in
//! constants, aliases or arena layout share one entry. The epoch in the
//! key is the invalidation rule: `ANALYZE`, `\load` and DDL publish a new
//! `CatalogVersion` epoch, so every stale plan **misses by construction**
//! — the same fencing the columnar batch cache uses table versions for.
//! Entries from superseded epochs are purged on insert; within an epoch,
//! eviction is LRU under a byte budget.
//!
//! The cached value is the full [`PlanChoice`] of the race with the
//! winning plan kept as a *template* (it may contain `Expr::Param`
//! nodes). Serving a hit is: clone the template, `Qgm::bind_params` with
//! this request's binding vector, execute. `EXPLAIN COST` renders the
//! cached race table, which is exactly the race the executed plan won —
//! the cache is what makes EXPLAIN and execution tell one story.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use decorr_common::FxHashMap;
use decorr_qgm::{BoxKind, Expr, Qgm};

use crate::choose::PlanChoice;

/// `(fingerprint canonical form, catalog epoch, planning mode)`.
type Key = (String, u64, String);

/// One cached entry: the race outcome with a parameterized plan template.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The race outcome; `choice.plan` is the parameterized template.
    pub choice: PlanChoice,
    /// Arity of the binding vector the template expects.
    pub param_count: usize,
    /// Approximate retained size, charged against the byte budget.
    pub bytes: usize,
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

struct State {
    map: FxHashMap<Key, Entry>,
    tick: u64,
    bytes: usize,
    budget: usize,
}

/// Monotonic counters plus a size snapshot, for `\cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: usize,
    pub budget: usize,
}

/// Thread-safe, byte-budgeted, epoch-fenced LRU plan cache. `Clone`
/// shares the underlying state (one per `decorr_server::SharedCatalog`-style
/// owner).
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Inner>,
}

struct Inner {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Default byte budget: plans are small (a few KB of boxes and exprs), so
/// 8 MiB holds thousands of shapes.
pub const DEFAULT_PLAN_CACHE_BYTES: usize = 8 << 20;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_BYTES)
    }
}

impl PlanCache {
    pub fn new(budget_bytes: usize) -> Self {
        PlanCache {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    map: FxHashMap::default(),
                    tick: 0,
                    bytes: 0,
                    budget: budget_bytes,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                insertions: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Look a shape up, bumping its recency. A miss is counted here: the
    /// caller is now on the hook to race, insert and execute.
    pub fn get(&self, fingerprint: &str, epoch: u64, mode: &str) -> Option<Arc<CachedPlan>> {
        let mut st = self.inner.state.lock().ok()?;
        st.tick += 1;
        let tick = st.tick;
        let key = (fingerprint.to_string(), epoch, mode.to_string());
        match st.map.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.plan))
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly raced plan. Purges entries of the same
    /// `(fingerprint, mode)` from superseded epochs, then evicts LRU
    /// entries until the budget holds. An entry bigger than the whole
    /// budget is simply not cached.
    pub fn insert(&self, fingerprint: &str, epoch: u64, mode: &str, plan: Arc<CachedPlan>) {
        let Ok(mut st) = self.inner.state.lock() else {
            return;
        };
        if plan.bytes > st.budget {
            return;
        }
        let key: Key = (fingerprint.to_string(), epoch, mode.to_string());
        // Epochs are monotonic: an entry under the same shape+mode with a
        // different epoch is superseded (or the caller raced a writer; a
        // re-insert under the new epoch follows soon either way).
        let mut freed = 0usize;
        st.map.retain(|(f, e, m), entry| {
            let stale = f == &key.0 && m == &key.2 && *e != epoch;
            if stale {
                freed += entry.plan.bytes;
            }
            !stale
        });
        st.bytes -= freed;
        st.tick += 1;
        let tick = st.tick;
        if let Some(old) = st
            .map
            .insert(key, Entry { plan: Arc::clone(&plan), last_used: tick })
        {
            st.bytes -= old.plan.bytes;
        }
        st.bytes += plan.bytes;
        self.inner.insertions.fetch_add(1, Ordering::Relaxed);
        self.evict_to_budget(&mut st);
    }

    fn evict_to_budget(&self, st: &mut State) {
        while st.bytes > st.budget && !st.map.is_empty() {
            // O(n) min-scan: the map holds at most a few thousand shapes
            // and eviction only runs when the budget is exceeded.
            let victim = st
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            if let Some(e) = st.map.remove(&k) {
                st.bytes -= e.plan.bytes;
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Change the byte budget, evicting immediately if it shrank.
    pub fn set_budget(&self, bytes: usize) {
        if let Ok(mut st) = self.inner.state.lock() {
            st.budget = bytes;
            self.evict_to_budget(&mut st);
        }
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        if let Ok(mut st) = self.inner.state.lock() {
            st.map.clear();
            st.bytes = 0;
        }
    }

    pub fn stats(&self) -> PlanCacheStats {
        let (entries, bytes, budget) = self
            .inner
            .state
            .lock()
            .map(|st| (st.map.len(), st.bytes, st.budget))
            .unwrap_or((0, 0, 0));
        PlanCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            budget,
        }
    }
}

/// Approximate retained size of a plan graph, for budget accounting. Not
/// an allocator-exact figure — a consistent relative measure is all LRU
/// eviction needs.
pub fn plan_bytes(qgm: &Qgm) -> usize {
    let mut bytes = std::mem::size_of::<Qgm>();
    for b in qgm.live_boxes() {
        bytes += 96 + b.label.len();
        if let BoxKind::BaseTable { table, schema, .. } = &b.kind {
            bytes += table.len() + 32 * schema.arity();
        }
        bytes += 8 * b.quants.len();
        b.for_each_expr(|e| bytes += expr_bytes(e));
        for o in &b.outputs {
            bytes += 24 + o.name.len();
        }
    }
    for q in qgm.live_quants() {
        bytes += 48 + q.alias.len();
    }
    bytes
}

fn expr_bytes(e: &Expr) -> usize {
    let mut n = 0usize;
    count_nodes(e, &mut n);
    48 * n
}

fn count_nodes(e: &Expr, n: &mut usize) {
    *n += 1;
    match e {
        Expr::Col { .. } | Expr::Lit(_) | Expr::Param(_) => {}
        Expr::Binary { left, right, .. } => {
            count_nodes(left, n);
            count_nodes(right, n);
        }
        Expr::Unary { expr, .. } => count_nodes(expr, n),
        Expr::Func { args, .. } => {
            for a in args {
                count_nodes(a, n);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                count_nodes(a, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choose::choose_strategy;
    use decorr_common::{row, DataType, Schema};
    use decorr_storage::Database;

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
            .unwrap();
        for i in 1..=3 {
            t.insert(row![i]).unwrap();
        }
        db
    }

    fn entry(sql: &str) -> Arc<CachedPlan> {
        let db = db();
        let qgm = decorr_sql::parse_and_bind(sql, &db).unwrap();
        let choice = choose_strategy(&db, qgm).unwrap();
        let bytes = plan_bytes(&choice.plan);
        Arc::new(CachedPlan { choice, param_count: 0, bytes })
    }

    #[test]
    fn hit_after_insert_miss_on_other_epoch() {
        let cache = PlanCache::new(1 << 20);
        let p = entry("SELECT t.x FROM t");
        cache.insert("fp", 1, "auto", p);
        assert!(cache.get("fp", 1, "auto").is_some());
        assert!(cache.get("fp", 2, "auto").is_none(), "new epoch must miss");
        assert!(
            cache.get("fp", 1, "magic").is_none(),
            "mode is part of the key"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    }

    #[test]
    fn new_epoch_insert_purges_superseded_entry() {
        let cache = PlanCache::new(1 << 20);
        cache.insert("fp", 1, "auto", entry("SELECT t.x FROM t"));
        cache.insert("fp", 2, "auto", entry("SELECT t.x FROM t"));
        let s = cache.stats();
        assert_eq!(s.entries, 1, "superseded epoch must be purged on insert");
        assert!(cache.get("fp", 2, "auto").is_some());
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let one = entry("SELECT t.x FROM t");
        let budget = one.bytes * 2 + one.bytes / 2; // room for two entries
        let cache = PlanCache::new(budget);
        cache.insert("a", 1, "auto", Arc::clone(&one));
        cache.insert("b", 1, "auto", Arc::clone(&one));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a", 1, "auto").is_some());
        cache.insert("c", 1, "auto", Arc::clone(&one));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(
            cache.get("a", 1, "auto").is_some(),
            "recently used survives"
        );
        assert!(cache.get("b", 1, "auto").is_none(), "LRU entry evicted");
        assert!(cache.get("c", 1, "auto").is_some());
    }

    #[test]
    fn shrinking_budget_evicts_and_oversized_entries_skip() {
        let one = entry("SELECT t.x FROM t");
        let cache = PlanCache::new(one.bytes * 4);
        cache.insert("a", 1, "auto", Arc::clone(&one));
        cache.insert("b", 1, "auto", Arc::clone(&one));
        cache.set_budget(one.bytes); // only one fits now
        assert_eq!(cache.stats().entries, 1);
        cache.set_budget(one.bytes / 2); // none fit
        assert_eq!(cache.stats().entries, 0);
        cache.insert("c", 1, "auto", Arc::clone(&one)); // bigger than budget
        assert_eq!(cache.stats().entries, 0, "oversized entry is not cached");
    }

    #[test]
    fn plan_bytes_scales_with_plan_size() {
        let small = entry("SELECT t.x FROM t");
        let large = entry(
            "SELECT t.x FROM t WHERE t.x > 1 AND t.x < 5 AND \
             t.x IN (SELECT t2.x FROM t t2 WHERE t2.x = 2)",
        );
        assert!(large.bytes > small.bytes);
    }
}
