//! The `ANALYZE` pass: per-column statistics over base tables.

use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

use decorr_common::{FxHashMap, Result, Value, ZoneMap};
use decorr_qgm::BinOp;
use decorr_storage::{Database, Table};

/// Number of equi-depth histogram buckets (fewer when the column has
/// fewer distinct values).
const HISTOGRAM_BUCKETS: usize = 64;
/// Maximum length of the most-common-values list.
const MCV_LIMIT: usize = 8;

/// An equi-depth histogram over the non-NULL values of one column.
///
/// `bounds` holds `buckets + 1` sorted boundary values; every bucket
/// contains (approximately) `total / buckets` values. Built from the full
/// sorted column, so boundaries are exact order statistics.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    bounds: Vec<Value>,
    /// Number of values the histogram summarizes (non-NULL count).
    total: u64,
}

impl Histogram {
    /// Build from the sorted non-NULL keys of a column.
    fn build<K>(sorted: &[K], to_value: impl Fn(&K) -> Value) -> Self {
        if sorted.is_empty() {
            return Histogram::default();
        }
        let buckets = HISTOGRAM_BUCKETS.min(sorted.len());
        let mut bounds = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            // Order statistic at fraction i/buckets (clamped to the ends).
            let pos = (i * (sorted.len() - 1)) / buckets;
            bounds.push(to_value(&sorted[pos]));
        }
        Histogram { bounds, total: sorted.len() as u64 }
    }

    pub fn buckets(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Estimated fraction of (non-NULL) values `< v` (or `<= v` when
    /// `inclusive`), interpolating linearly inside numeric buckets.
    pub fn fraction_below(&self, v: &Value, inclusive: bool) -> f64 {
        let nb = self.buckets();
        if nb == 0 {
            return 0.5;
        }
        if cmp_below(v, &self.bounds[0], inclusive) {
            return 0.0;
        }
        if !cmp_below(v, &self.bounds[nb], inclusive) {
            return 1.0;
        }
        // Find the bucket containing v: bounds[i] <= v < bounds[i+1].
        for i in 0..nb {
            if cmp_below(v, &self.bounds[i + 1], inclusive) {
                let lo = &self.bounds[i];
                let hi = &self.bounds[i + 1];
                let within = match (lo.as_double(), hi.as_double(), v.as_double()) {
                    (Ok(l), Ok(h), Ok(x)) if h > l => ((x - l) / (h - l)).clamp(0.0, 1.0),
                    _ => 0.5, // non-numeric or degenerate bucket
                };
                return (i as f64 + within) / nb as f64;
            }
        }
        1.0
    }
}

/// Is `v` strictly below `bound` (`inclusive` shifts `<` to `<=`)?
fn cmp_below(v: &Value, bound: &Value, inclusive: bool) -> bool {
    match v.total_cmp(bound) {
        Ordering::Less => true,
        Ordering::Equal => !inclusive,
        Ordering::Greater => false,
    }
}

/// Statistics of one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub name: String,
    /// Rows in the table (repeated here so a column stat is self-contained).
    pub row_count: u64,
    /// NULL values in this column.
    pub null_count: u64,
    /// Number of distinct non-NULL values.
    pub ndv: u64,
    /// Smallest / largest non-NULL value (total order).
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Most common values with their exact counts, most frequent first
    /// (ties broken by value order). Only values occurring at least twice.
    pub mcvs: Vec<(Value, u64)>,
    /// Equi-depth histogram over all non-NULL values.
    pub histogram: Histogram,
}

/// `Some` of every value's primitive when `pick` accepts them all.
fn all_as<'a, K>(values: &[&'a Value], pick: impl Fn(&'a Value) -> Option<K>) -> Option<Vec<K>> {
    values.iter().map(|v| pick(v)).collect()
}

impl ColumnStats {
    /// One sorted pass: borrow the non-NULL cells, sort them once, and read
    /// every statistic off the runs of equal keys. A column whose non-NULL
    /// values all share a primitive type sorts as a slice of that
    /// primitive; anything else (booleans, `Int`/`Double` mixes) sorts as
    /// borrowed values. Every comparison used agrees with
    /// [`Value::total_cmp`] on the values it stands for.
    fn analyze<'a>(name: &str, rows: u64, values: impl Iterator<Item = &'a Value>) -> Self {
        let mut null_count = 0u64;
        let mut non_null: Vec<&'a Value> = Vec::new();
        for v in values {
            if v.is_null() {
                null_count += 1;
            } else {
                non_null.push(v);
            }
        }
        let ints = |v: &Value| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        };
        let doubles = |v: &Value| match v {
            Value::Double(d) => Some(*d),
            _ => None,
        };
        let strs = |v: &'a Value| match v {
            Value::Str(s) => Some(&**s),
            _ => None,
        };
        let mut stats = if let Some(keys) = all_as(&non_null, ints) {
            Self::from_keys(keys, i64::cmp, |k| Value::Int(*k))
        } else if let Some(keys) = all_as(&non_null, doubles) {
            Self::from_keys(keys, f64::total_cmp, |k| Value::Double(*k))
        } else if let Some(keys) = all_as(&non_null, strs) {
            Self::from_keys(keys, |a, b| a.cmp(b), |k| Value::str(k))
        } else {
            Self::from_keys(non_null, |a, b| a.total_cmp(b), |v| (*v).clone())
        };
        stats.name = name.to_string();
        stats.row_count = rows;
        stats.null_count = null_count;
        stats
    }

    /// The statistics of the non-NULL `keys` of a column (name, row and
    /// NULL counts left for the caller to fill in).
    fn from_keys<K>(
        mut keys: Vec<K>,
        cmp: impl Fn(&K, &K) -> Ordering,
        to_value: impl Fn(&K) -> Value,
    ) -> Self {
        // Stable, so a run of keys that compare equal without being
        // identical (`Int(1)` / `Double(1.0)`) stays in row order and is
        // represented by its first row.
        keys.sort_by(&cmp);
        // Runs of equal keys: `ndv` counts them, the MCV candidates are
        // those of length >= 2, as (count, start of run).
        let mut ndv = 0u64;
        let mut repeated: Vec<(u64, usize)> = Vec::new();
        let mut start = 0;
        for run in keys.chunk_by(|a, b| cmp(a, b).is_eq()) {
            ndv += 1;
            if run.len() >= 2 {
                repeated.push((run.len() as u64, start));
            }
            start += run.len();
        }
        // Count descending; the stable sort keeps ties in run order, which
        // is value order.
        repeated.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        repeated.truncate(MCV_LIMIT);
        ColumnStats {
            name: String::new(),
            row_count: 0,
            null_count: 0,
            ndv,
            min: keys.first().map(&to_value),
            max: keys.last().map(&to_value),
            mcvs: repeated
                .into_iter()
                .map(|(count, at)| (to_value(&keys[at]), count))
                .collect(),
            histogram: Histogram::build(&keys, &to_value),
        }
    }

    /// Fraction of rows that are NULL in this column.
    pub fn null_fraction(&self) -> f64 {
        if self.row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / self.row_count as f64
        }
    }

    fn non_null_count(&self) -> u64 {
        self.row_count - self.null_count
    }

    /// Selectivity of `col = lit` over the whole table (NULL rows never
    /// qualify). MCV hits are exact; other in-range values share the
    /// non-MCV mass uniformly; out-of-range literals select nothing.
    pub fn eq_selectivity(&self, lit: &Value) -> f64 {
        if lit.is_null() || self.row_count == 0 || self.ndv == 0 {
            return 0.0;
        }
        if let Some(key) = lit.eq_key() {
            if let Some((_, c)) = self.mcvs.iter().find(|(v, _)| *v == key) {
                return *c as f64 / self.row_count as f64;
            }
            // Outside [min, max] nothing matches.
            if let (Some(min), Some(max)) = (&self.min, &self.max) {
                if key.total_cmp(min).is_lt() || key.total_cmp(max).is_gt() {
                    return 0.0;
                }
            }
        } else {
            return 0.0; // NaN equals nothing
        }
        let mcv_rows: u64 = self.mcvs.iter().map(|&(_, c)| c).sum();
        let rest_rows = self.non_null_count().saturating_sub(mcv_rows);
        let rest_ndv = self.ndv.saturating_sub(self.mcvs.len() as u64);
        if rest_ndv == 0 {
            // Every distinct value is an MCV and the literal missed them
            // all: it can only be a value we did not see at all.
            return 0.0;
        }
        (rest_rows as f64 / rest_ndv as f64) / self.row_count as f64
    }

    /// Selectivity of `col op lit` for a comparison against a literal.
    pub fn cmp_selectivity(&self, op: BinOp, lit: &Value) -> f64 {
        if lit.is_null() || self.row_count == 0 {
            return 0.0;
        }
        let non_null_frac = 1.0 - self.null_fraction();
        let f = match op {
            BinOp::Eq | BinOp::NullEq => return self.eq_selectivity(lit),
            BinOp::Ne => 1.0 - self.eq_selectivity(lit) / non_null_frac.max(f64::MIN_POSITIVE),
            BinOp::Lt => self.histogram.fraction_below(lit, false),
            BinOp::Le => self.histogram.fraction_below(lit, true),
            BinOp::Ge => 1.0 - self.histogram.fraction_below(lit, false),
            BinOp::Gt => 1.0 - self.histogram.fraction_below(lit, true),
            _ => 0.5,
        };
        (f * non_null_frac).clamp(0.0, 1.0)
    }
}

/// Statistics of one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub name: String,
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
    /// Column sets with a hash index (so the estimator can price indexed
    /// probes — Figure 7 drops an index and the cost must follow).
    pub indexed: Vec<Vec<usize>>,
    /// A paged table's zone maps, `zones[stripe][column]` (so the
    /// estimator can price a scan at the stripes it will actually read —
    /// it asks the same `ZoneMap::may_match` the executor prunes by).
    /// Empty for a resident table, which is always read whole.
    pub zones: Vec<Vec<ZoneMap>>,
}

impl TableStats {
    /// Analyze one table. Paged tables read through their buffer pool; a
    /// failed read is the caller's to handle — statistics are cached for
    /// as long as the table lives, so they are never made from rows that
    /// could not be read.
    pub fn try_analyze(table: &Table) -> Result<Self> {
        let rows = table.len() as u64;
        let mut io = decorr_storage::PageIo::default();
        let data = table.read_rows(&mut io)?;
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStats::analyze(&c.name, rows, data.iter().map(|r| &r[i])))
            .collect();
        Ok(TableStats {
            name: table.name().to_string(),
            rows,
            columns,
            indexed: Self::indexed_of(table),
            zones: Self::zones_of(table),
        })
    }

    /// [`try_analyze`](Self::try_analyze) for callers that only inspect or
    /// time the result: an unreadable table yields its row count and no
    /// column statistics. Nothing that keeps statistics goes through here.
    pub fn analyze(table: &Table) -> Self {
        Self::try_analyze(table).unwrap_or_else(|_| TableStats {
            name: table.name().to_string(),
            rows: table.len() as u64,
            columns: Vec::new(),
            indexed: Self::indexed_of(table),
            zones: Self::zones_of(table),
        })
    }

    fn indexed_of(table: &Table) -> Vec<Vec<usize>> {
        table
            .indexes()
            .iter()
            .map(|i| i.columns().to_vec())
            .collect()
    }

    fn zones_of(table: &Table) -> Vec<Vec<ZoneMap>> {
        let Some(stripes) = table.stripes() else {
            return Vec::new();
        };
        let arity = table.schema().arity();
        (0..stripes.count())
            .map(|page| {
                (0..arity)
                    .map(|col| stripes.zone(page, col).clone())
                    .collect()
            })
            .collect()
    }

    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }

    /// Is there an index usable for an equality probe on `col` (an index
    /// whose column set is exactly `[col]` or is covered by wider probes)?
    pub fn has_index_on(&self, col: usize) -> bool {
        self.indexed.iter().any(|cols| cols == &[col])
    }
}

/// The statistics of a whole database, keyed by normalized table name.
///
/// Each table's statistics are shared (`Arc`) and remembered together with
/// the [`Table::version`] they were collected from, so the statistics of a
/// changed database ([`refreshed`](Statistics::refreshed)) re-analyze only
/// the tables that actually changed.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    tables: FxHashMap<String, (u64, Arc<TableStats>)>,
    /// Analysis order, for deterministic rendering.
    order: Vec<String>,
}

impl Statistics {
    /// Run `ANALYZE` over every table of the database.
    pub fn analyze(db: &Database) -> Result<Self> {
        Statistics::default().refreshed(db)
    }

    /// The statistics of `db`: `self`'s entry, shared, for every table
    /// whose `(name, version)` `self` already covers — equal versions hold
    /// identical data — and a fresh analysis of the rest. Tables `self`
    /// knows but `db` lacks are dropped. Any failed read fails the whole
    /// refresh.
    pub fn refreshed(&self, db: &Database) -> Result<Self> {
        let mut out = Statistics::default();
        for t in db.tables() {
            let key = Self::norm(t.name());
            let stats = match self.tables.get(&key) {
                Some((version, stats)) if *version == t.version() => Arc::clone(stats),
                _ => Arc::new(TableStats::try_analyze(t)?),
            };
            out.tables.insert(key.clone(), (t.version(), stats));
            out.order.push(key);
        }
        Ok(out)
    }

    /// Re-key to `published`, the durable conversion of the database these
    /// statistics were collected from: the same rows under new table
    /// versions, without the hash indexes a resident table carried and
    /// with the zone maps its segment now has.
    pub fn rebind(&mut self, published: &Database) {
        for t in published.tables() {
            if let Some((version, stats)) = self.tables.get_mut(&Self::norm(t.name())) {
                *version = t.version();
                let (indexed, zones) = (TableStats::indexed_of(t), TableStats::zones_of(t));
                if stats.indexed != indexed || stats.zones != zones {
                    let stats = Arc::make_mut(stats);
                    stats.indexed = indexed;
                    stats.zones = zones;
                }
            }
        }
    }

    fn norm(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Statistics of a table, by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.shared_table(name).map(|stats| &**stats)
    }

    /// The shared handle behind [`table`](Statistics::table): pointer-equal
    /// across two `Statistics` exactly when the table was carried forward
    /// rather than re-analyzed.
    pub fn shared_table(&self, name: &str) -> Option<&Arc<TableStats>> {
        // A plan's table names are already normalized: try them as they are.
        match self.tables.get(name) {
            Some((_, stats)) => Some(stats),
            None => self.tables.get(&Self::norm(name)).map(|(_, stats)| stats),
        }
    }

    /// Tables in analysis order.
    pub fn tables(&self) -> impl Iterator<Item = &TableStats> {
        self.order.iter().map(|k| &*self.tables[k].1)
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The `ANALYZE` report: one line per column.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for t in self.tables() {
            writeln!(
                s,
                "table {} ({} rows, {} indexes)",
                t.name,
                t.rows,
                t.indexed.len()
            )
            .unwrap();
            writeln!(
                s,
                "  {:<16} {:>8} {:>8} {:>8} {:>12} {:>12}  mcvs",
                "column", "nulls", "ndv", "buckets", "min", "max"
            )
            .unwrap();
            for c in &t.columns {
                let fmt_v = |v: &Option<Value>| match v {
                    Some(v) => {
                        let s = v.to_string();
                        if s.len() > 12 {
                            format!("{}..", &s[..10])
                        } else {
                            s
                        }
                    }
                    None => "-".into(),
                };
                let mcvs = c
                    .mcvs
                    .iter()
                    .take(3)
                    .map(|(v, n)| format!("{v}x{n}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                writeln!(
                    s,
                    "  {:<16} {:>8} {:>8} {:>8} {:>12} {:>12}  {}",
                    c.name,
                    c.null_count,
                    c.ndv,
                    c.histogram.buckets(),
                    fmt_v(&c.min),
                    fmt_v(&c.max),
                    mcvs
                )
                .unwrap();
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{row, DataType, Schema};

    fn table_with(values: Vec<Value>) -> Table {
        let mut t = Table::new("t", Schema::from_pairs(&[("x", DataType::Int)]));
        for v in values {
            t.insert(decorr_common::Row::new(vec![v])).unwrap();
        }
        t
    }

    #[test]
    fn basic_column_stats() {
        let mut vals: Vec<Value> = (0..100).map(Value::Int).collect();
        vals.push(Value::Null);
        let t = table_with(vals);
        let ts = TableStats::analyze(&t);
        let c = ts.column(0).unwrap();
        assert_eq!(c.row_count, 101);
        assert_eq!(c.null_count, 1);
        assert_eq!(c.ndv, 100);
        assert_eq!(c.min, Some(Value::Int(0)));
        assert_eq!(c.max, Some(Value::Int(99)));
        assert!(c.mcvs.is_empty()); // all values unique: nothing occurs twice
    }

    #[test]
    fn mcvs_capture_skew() {
        // 90 copies of 7, ten singletons.
        let mut vals = vec![Value::Int(7); 90];
        vals.extend((100..110).map(Value::Int));
        let t = table_with(vals);
        let c = TableStats::analyze(&t).columns.remove(0);
        assert_eq!(c.mcvs.first(), Some(&(Value::Int(7), 90)));
        let sel = c.eq_selectivity(&Value::Int(7));
        assert!((sel - 0.9).abs() < 1e-9, "{sel}");
        // A non-MCV in-range value shares the rest uniformly: 1 row of 100.
        let sel = c.eq_selectivity(&Value::Int(105));
        assert!((sel - 0.01).abs() < 1e-9, "{sel}");
        // Out of range selects nothing.
        assert_eq!(c.eq_selectivity(&Value::Int(1000)), 0.0);
    }

    #[test]
    fn histogram_range_fractions() {
        let t = table_with((0..1000).map(Value::Int).collect());
        let c = TableStats::analyze(&t).columns.remove(0);
        let lt = c.cmp_selectivity(BinOp::Lt, &Value::Int(100));
        assert!((lt - 0.1).abs() < 0.02, "{lt}");
        let ge = c.cmp_selectivity(BinOp::Ge, &Value::Int(900));
        assert!((ge - 0.1).abs() < 0.02, "{ge}");
        assert_eq!(c.cmp_selectivity(BinOp::Lt, &Value::Int(-5)), 0.0);
        assert_eq!(c.cmp_selectivity(BinOp::Le, &Value::Int(2000)), 1.0);
    }

    #[test]
    fn all_null_column() {
        let t = table_with(vec![Value::Null; 10]);
        let c = TableStats::analyze(&t).columns.remove(0);
        assert_eq!(c.ndv, 0);
        assert_eq!(c.null_fraction(), 1.0);
        assert_eq!(c.eq_selectivity(&Value::Int(1)), 0.0);
        assert!(c.min.is_none() && c.max.is_none());
        assert!(c.histogram.is_empty());
    }

    #[test]
    fn empty_table() {
        let t = table_with(vec![]);
        let ts = TableStats::analyze(&t);
        assert_eq!(ts.rows, 0);
        let c = ts.column(0).unwrap();
        assert_eq!(c.eq_selectivity(&Value::Int(1)), 0.0);
        assert_eq!(c.cmp_selectivity(BinOp::Lt, &Value::Int(1)), 0.0);
    }

    #[test]
    fn statistics_over_database() {
        let mut db = Database::new();
        let t = db
            .create_table("Emp", Schema::from_pairs(&[("b", DataType::Int)]))
            .unwrap();
        t.insert(row![1]).unwrap();
        t.create_index(&["b"]).unwrap();
        let stats = Statistics::analyze(&db).unwrap();
        let ts = stats.table("emp").unwrap();
        assert_eq!(ts.rows, 1);
        assert!(ts.has_index_on(0));
        assert!(stats.render().contains("table Emp"));
    }

    /// The clone-count-sort `ANALYZE` this module ran before the sorted
    /// pass, kept as the reference the pass must reproduce field for field.
    fn reference(name: &str, rows: u64, values: impl Iterator<Item = Value>) -> ColumnStats {
        let mut non_null: Vec<Value> = Vec::new();
        let mut counts: FxHashMap<Value, u64> = FxHashMap::default();
        let mut null_count = 0u64;
        for v in values {
            if v.is_null() {
                null_count += 1;
            } else {
                *counts.entry(v.clone()).or_insert(0) += 1;
                non_null.push(v);
            }
        }
        non_null.sort();
        let ndv = counts.len() as u64;
        let mut mcvs: Vec<(Value, u64)> = counts.into_iter().filter(|&(_, c)| c >= 2).collect();
        mcvs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        mcvs.truncate(MCV_LIMIT);
        let mut histogram = Histogram::default();
        if !non_null.is_empty() {
            let buckets = HISTOGRAM_BUCKETS.min(non_null.len());
            histogram.total = non_null.len() as u64;
            histogram.bounds = (0..=buckets)
                .map(|i| non_null[(i * (non_null.len() - 1)) / buckets].clone())
                .collect();
        }
        ColumnStats {
            name: name.to_string(),
            row_count: rows,
            null_count,
            ndv,
            min: non_null.first().cloned(),
            max: non_null.last().cloned(),
            histogram,
            mcvs,
        }
    }

    /// `Debug` tells `Int(1)` from `Double(1.0)` and `-0.0` from `0.0`,
    /// which `Value`'s `==` does not: equal renderings mean equal fields.
    fn assert_matches_reference(what: &str, values: &[Value]) {
        let rows = values.len() as u64;
        let got = ColumnStats::analyze("c", rows, values.iter());
        let want = reference("c", rows, values.iter().cloned());
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    }

    #[test]
    fn sorted_pass_equals_the_reference_on_adversarial_columns() {
        // A small deterministic generator: the columns need repeats, ties
        // between MCV counts and more distinct values than buckets.
        let mut state = 7u64;
        let mut draw = move |n: u64| {
            state += 1;
            decorr_common::splitmix64(state) % n
        };
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("empty", vec![]),
            ("all null", vec![Value::Null; 9]),
            (
                "null-heavy ints",
                (0..500)
                    .map(|_| match draw(4) {
                        0 => Value::Int(draw(40) as i64 - 20),
                        _ => Value::Null,
                    })
                    .collect(),
            ),
            (
                "doubles with NaN and signed zeros",
                (0..400)
                    .map(|_| match draw(8) {
                        0 => Value::Double(f64::NAN),
                        1 => Value::Double(-0.0),
                        2 => Value::Double(0.0),
                        3 => Value::Double(f64::NEG_INFINITY),
                        4 => Value::Null,
                        _ => Value::Double(draw(30) as f64 * 0.25 - 3.0),
                    })
                    .collect(),
            ),
            (
                "mixed Int/Double twins, either first",
                (0..600)
                    .map(|_| {
                        let k = draw(90) as i64;
                        match draw(3) {
                            0 => Value::Int(k),
                            1 => Value::Double(k as f64),
                            _ => Value::Double(k as f64 + 0.5),
                        }
                    })
                    .collect(),
            ),
            (
                "mixed classes",
                (0..200)
                    .map(|_| match draw(5) {
                        0 => Value::Null,
                        1 => Value::Bool(draw(2) == 0),
                        2 => Value::Int(draw(5) as i64),
                        3 => Value::Double(draw(5) as f64),
                        _ => Value::str(["a", "b", "ä"][draw(3) as usize]),
                    })
                    .collect(),
            ),
            (
                "unicode strings",
                (0..300)
                    .map(|_| {
                        let words = [
                            "",
                            "a",
                            "Z",
                            "zebra",
                            "äpfel",
                            "éclair",
                            "日本",
                            "日本語",
                            "🦀",
                        ];
                        match draw(10) {
                            0 => Value::Null,
                            n => Value::str(words[n as usize - 1]),
                        }
                    })
                    .collect(),
            ),
            (
                "booleans",
                (0..50).map(|_| Value::Bool(draw(3) == 0)).collect(),
            ),
            ("all equal", vec![Value::Int(7); 130]),
            ("all distinct", (0..1000).rev().map(Value::Int).collect()),
            (
                "more tied MCVs than the list holds",
                (0..40).flat_map(|k| [Value::Int(k % 20); 1]).collect(),
            ),
            (
                "skewed ints",
                (0..5000)
                    .map(|_| Value::Int((draw(1000) * draw(1000) / 5000) as i64))
                    .collect(),
            ),
        ];
        for (what, values) in &cases {
            assert_matches_reference(what, values);
        }
    }

    #[test]
    fn render_is_byte_identical_to_the_reference_on_tpcd_and_empdept() {
        use decorr_tpcd::{empdept, generate, TpcdConfig};
        let mut db = generate(&TpcdConfig { scale: 0.02, seed: 42, with_indexes: true }).unwrap();
        for t in empdept::generate(&empdept::EmpDeptConfig::default())
            .unwrap()
            .tables()
        {
            db.add_table(t.clone()).unwrap();
        }
        let mut want = Statistics::default();
        for t in db.tables() {
            let rows = t.len() as u64;
            let columns = t
                .schema()
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| reference(&c.name, rows, t.rows().iter().map(|r| r[i].clone())))
                .collect();
            let stats = TableStats {
                name: t.name().into(),
                rows,
                columns,
                indexed: TableStats::indexed_of(t),
                zones: Vec::new(),
            };
            let key = Statistics::norm(t.name());
            want.tables
                .insert(key.clone(), (t.version(), Arc::new(stats)));
            want.order.push(key);
        }
        let got = Statistics::analyze(&db).unwrap();
        assert_eq!(got.render(), want.render());
        for (g, w) in got.tables().zip(want.tables()) {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "{}", g.name);
        }
    }

    #[test]
    fn refreshed_shares_unchanged_tables_and_reanalyzes_changed_ones() {
        let mut db = Database::new();
        for name in ["a", "b"] {
            let t = db
                .create_table(name, Schema::from_pairs(&[("x", DataType::Int)]))
                .unwrap();
            t.insert(row![1]).unwrap();
        }
        let before = Statistics::analyze(&db).unwrap();
        db.table_mut("b").unwrap().insert(row![2]).unwrap();
        let after = before.refreshed(&db).unwrap();
        assert!(Arc::ptr_eq(
            before.shared_table("a").unwrap(),
            after.shared_table("a").unwrap()
        ));
        assert_eq!(before.table("b").unwrap().rows, 1);
        assert_eq!(after.table("b").unwrap().rows, 2);
        db.drop_table("a").unwrap();
        assert!(after.refreshed(&db).unwrap().table("a").is_none());
    }

    /// The CI scaling gate (`cargo test --release -p decorr-stats --
    /// --ignored analyze_scales`): 10x the rows may cost 25x the time
    /// (n log n is ~13x). Minimum of several runs, so a scheduling hiccup
    /// does not fail it.
    #[test]
    #[ignore = "timing gate: run in release mode"]
    fn analyze_scales() {
        use decorr_tpcd::{generate, TpcdConfig};
        let time_at = |scale: f64| {
            let db = generate(&TpcdConfig { scale, seed: 42, with_indexes: false }).unwrap();
            let t = db.table("lineitem").unwrap();
            let best = (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(TableStats::try_analyze(t).unwrap());
                    t0.elapsed()
                })
                .min()
                .unwrap();
            (t.len(), best.as_secs_f64())
        };
        let (small_rows, small) = time_at(0.01);
        let (large_rows, large) = time_at(0.1);
        assert_eq!((small_rows, large_rows), (6_000, 60_000));
        assert!(
            large <= 25.0 * small,
            "ANALYZE lineitem: {large_rows} rows took {:.2} ms, {small_rows} rows {:.2} ms ({:.1}x)",
            large * 1e3,
            small * 1e3,
            large / small
        );
    }
}
