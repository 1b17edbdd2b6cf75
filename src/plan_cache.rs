//! The plan cache: pay the five-way cost race once per query shape, and
//! the front end once per statement shape.
//!
//! [`PlanCache`] is a [`decorr_common::Cache`] whose family is
//! `(fingerprint, planning mode)` and whose version is the catalog epoch.
//! The fingerprint ([`decorr_core::fingerprint()`]) is of the
//! *parameterized* graph, so queries differing only in constants, aliases
//! or arena layout share one entry. `ANALYZE`, `\load` and DDL publish a
//! new epoch, so every stale plan **misses by construction** and the plan
//! raced under the new epoch replaces it.
//!
//! The value is the race's full [`PlanChoice`], its winner kept as a
//! *template* (it may contain `Expr::Param` nodes): a hit clones it, binds
//! this request's literals and executes. `EXPLAIN COST` renders the cached
//! race, exactly the one the executed plan won.
//!
//! In front of it, [`ShapeCache`] maps a statement's literal-normalised
//! token stream ([`ShapeKey`]) at an epoch to its fingerprint and the
//! [`Slots`] its bindings are read from. A repeated statement shape thus
//! goes from the lexed text to [`PlanCache::get`] with no parse,
//! parameterize, bind, validate or fingerprint. Binding reads the schema,
//! so the shape cache is fenced by the epoch too; the planning mode is not
//! part of its key, because text → fingerprint does not depend on it.

use std::ops::Deref;
use std::sync::Arc;

use decorr_common::Cache;
use decorr_qgm::{BoxKind, Expr, Qgm};
use decorr_sql::shape::{ShapeKey, Slots};

use crate::choose::PlanChoice;

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

/// The process-wide plan cache; budget and stats are the underlying
/// [`Cache`]'s.
#[derive(Debug, Clone)]
pub struct PlanCache(Cache<(String, String), u64, Arc<CachedPlan>>);

/// Default byte budget: plans are small (a few KB of boxes and exprs), so
/// 8 MiB holds thousands of shapes.
pub const DEFAULT_PLAN_CACHE_BYTES: usize = 8 << 20;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_BYTES)
    }
}

impl Deref for PlanCache {
    type Target = Cache<(String, String), u64, Arc<CachedPlan>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl PlanCache {
    pub fn new(budget_bytes: usize) -> Self {
        PlanCache(Cache::new(budget_bytes, |p| (p.bytes, 0)))
    }

    /// Look a shape up, bumping its recency. A miss is counted here: the
    /// caller is now on the hook to race, insert and execute.
    pub fn get(&self, fingerprint: &str, epoch: u64, mode: &str) -> Option<Arc<CachedPlan>> {
        self.0.get(&(fingerprint.into(), mode.into()), &epoch)
    }

    /// Insert a freshly raced plan, replacing the shape's plan from any
    /// other epoch (or a caller that raced a writer: a re-insert under the
    /// new epoch follows soon either way).
    pub fn insert(&self, fingerprint: &str, epoch: u64, mode: &str, plan: Arc<CachedPlan>) {
        self.0
            .insert((fingerprint.into(), mode.into()), epoch, plan);
    }
}

/// What the front end derives from a statement's text apart from its
/// literal values: the fingerprint of its parameterized graph and where
/// its bindings come from.
#[derive(Debug)]
pub struct StatementShape {
    pub fingerprint: Arc<str>,
    pub slots: Slots,
    /// Approximate retained size, key included.
    pub bytes: usize,
}

impl StatementShape {
    pub fn new(key: &ShapeKey, fingerprint: Arc<str>, slots: Slots) -> Self {
        let bytes = key.bytes() + fingerprint.len() + slots.bytes() + 96;
        StatementShape { fingerprint, slots, bytes }
    }
}

/// The process-wide statement-shape cache: family the [`ShapeKey`],
/// version the catalog epoch. Its budget is fixed.
#[derive(Debug, Clone)]
pub struct ShapeCache(Cache<ShapeKey, u64, Arc<StatementShape>>);

/// Byte budget of the shape cache: an entry is about twice its statement's
/// text, so 4 MiB holds thousands of shapes.
pub const SHAPE_CACHE_BYTES: usize = 4 << 20;

impl Default for ShapeCache {
    fn default() -> Self {
        ShapeCache(Cache::new(SHAPE_CACHE_BYTES, |s| (s.bytes, 0)))
    }
}

impl Deref for ShapeCache {
    type Target = Cache<ShapeKey, u64, Arc<StatementShape>>;

    fn deref(&self) -> &Self::Target {
        &self.0
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
        b.for_each_expr(|e| bytes += 48 * nodes(e));
        for o in &b.outputs {
            bytes += 24 + o.name.len();
        }
    }
    for q in qgm.live_quants() {
        bytes += 48 + q.alias.len();
    }
    bytes
}

/// Nodes in an expression tree.
fn nodes(e: &Expr) -> usize {
    1 + match e {
        Expr::Col { .. } | Expr::Lit(_) | Expr::Param(_) => 0,
        Expr::Binary { left, right, .. } => nodes(left) + nodes(right),
        Expr::Unary { expr, .. } => nodes(expr),
        Expr::Func { args, .. } => args.iter().map(nodes).sum(),
        Expr::Agg { arg, .. } => arg.as_deref().map_or(0, nodes),
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
}
