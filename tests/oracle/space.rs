//! The query space the oracle checks, and the worlds it runs in.
//!
//! A query ([`Query`], [`Sub`]) picks one value per axis — quantifier
//! kind, comparison, correlation, body shape, aggregate, local filter,
//! nesting, a second subquery — over the paper's DEPT/EMP schema, and
//! renders to SQL in one canonical form. Each value other than the
//! default costs one unit of [`Query::size`]; [`enumerate`] lists every
//! query up to a size, so the bounded space is exhaustive, not sampled.
//!
//! A [`World`] is a named [`Database`]: NULL-heavy, NaN / ±0.0 / mixed
//! Int-Double keyed, empty on either side, at the 512-row stripe
//! boundary, over [`MORSEL_ROWS`]. [`parse_case`] and [`print_case`] read
//! and write the corpus files of `tests/corpus`, whose `patch` line makes
//! a bound graph what SQL cannot say ([`patch`]).

#![allow(dead_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use decorr::common::{DataType, Row, Schema, Value, MORSEL_ROWS};
use decorr::qgm::{BinOp, BoxKind, Expr, Qgm};
use decorr::storage::{Database, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- the query AST -----------------------------------------------------------

/// The axes of one subquery, each a list of its values; value 0 is the
/// paper's COUNT-bug subquery. A [`Sub`] picks one value per axis.
pub const KINDS: [&str; 8] = [
    "scalar",
    "lateral",
    "EXISTS",
    "NOT EXISTS",
    "IN",
    "NOT IN",
    "ANY",
    "ALL",
];
pub const CMPS: [&str; 6] = [">", "<", "<=", ">=", "=", "<>"];
/// The correlation: `x.building = outer.building`, `<`, or `x.name =
/// outer.name` (on the outer table's key).
pub const CORRS: [&str; 3] = ["=", "<", "key"];
pub const SHAPES: [&str; 6] = [
    "plain",
    "GROUP BY",
    "GROUP BY no aggregate",
    "HAVING",
    "UNION",
    "UNION ALL",
];
/// `{}` stands for the argument.
pub const AGGS: [&str; 8] = [
    "COUNT(*)",
    "COUNT({})",
    "COUNT(DISTINCT {})",
    "SUM({})",
    "SUM(DISTINCT {})",
    "AVG({})",
    "MIN({})",
    "MAX({})",
];
/// The number of values of each axis: the lists above, and the filter.
const AXES: [usize; 6] = [8, 6, 3, 6, 8, 2];
const KIND: usize = 0;
const CMP: usize = 1;
const CORR: usize = 2;
const SHAPE: usize = 3;
const AGG: usize = 4;
const FILTER: usize = 5;

/// One correlated subquery: `lhs cmp (SELECT agg ...)`, a lateral
/// `FROM ..., l(c) AS (SELECT agg ...)`, or a set for EXISTS / IN / ANY /
/// ALL; its body plain, grouped (with or without an aggregate), under a
/// HAVING or with a second UNION [ALL] branch; with or without the local
/// conjunct `salary > 2`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sub {
    /// The value of each axis: kind, comparison, correlation, shape,
    /// aggregate, filter.
    pub axes: [usize; 6],
    /// A subquery in this one's WHERE (depth 2).
    pub nested: Option<Box<Sub>>,
    /// (Nested only.) Correlated to the outermost block, not its parent.
    pub to_root: bool,
}

/// `SELECT D.name FROM dept D WHERE [D.budget < 10000 AND] sub [AND sub]`;
/// the default is the paper's Section 2 query (the COUNT bug).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub filter: bool,
    /// `SELECT DISTINCT D.building` instead of `D.name`.
    pub distinct: bool,
    pub subs: Vec<Sub>,
}

impl Default for Query {
    fn default() -> Self {
        Query { filter: false, distinct: false, subs: vec![Sub::default()] }
    }
}

impl Sub {
    fn kind(&self) -> &'static str {
        KINDS[self.axes[KIND]]
    }

    fn shape(&self) -> &'static str {
        SHAPES[self.axes[SHAPE]]
    }

    /// Does the subquery yield one aggregate value (rather than a set)?
    fn scalar(&self) -> bool {
        matches!(self.kind(), "scalar" | "lateral")
    }

    fn uses_agg(&self) -> bool {
        self.scalar() || self.shape() == "GROUP BY"
    }

    /// Deviations from [`Sub::default`].
    pub fn size(&self) -> usize {
        let nested = self.nested.as_ref().map_or(0, |n| 1 + n.size());
        self.axes.iter().filter(|&&v| v != 0).count() + usize::from(self.to_root) + nested
    }

    pub fn depth(&self) -> usize {
        self.chain().count()
    }

    /// This subquery and the one nested in it, outermost first.
    fn chain(&self) -> impl Iterator<Item = &Sub> {
        std::iter::successors(Some(self), |s| s.nested.as_deref())
    }

    /// Every axis reverted on its own, and the depth lowered.
    fn simplifications(&self) -> Vec<Sub> {
        let mut out = vec![self.clone(); AXES.len()];
        out.iter_mut().enumerate().for_each(|(a, s)| s.axes[a] = 0);
        out.push(Sub { nested: None, ..self.clone() });
        if let Some(n) = &self.nested {
            // The nested subquery takes its parent's place.
            out.push(Sub { to_root: false, ..(**n).clone() });
            let deeper = n.simplifications().into_iter();
            out.extend(deeper.map(|n| Sub { nested: Some(Box::new(n)), ..self.clone() }));
        }
        out.retain(|s| s != self);
        out
    }

    fn valid(&self, depth: usize, first: bool) -> bool {
        let compares = matches!(self.kind(), "scalar" | "ANY" | "ALL");
        let nested = self.nested.as_ref();
        (!self.scalar() || !self.shape().starts_with("GROUP BY"))
            && (self.uses_agg() || self.axes[AGG] == 0)
            && (compares || self.axes[CMP] == 0)
            && (self.kind() != "lateral" || (depth == 1 && first))
            && (!self.to_root || depth == 2)
            && nested.is_none_or(|n| depth == 1 && n.valid(2, false))
    }
}

impl Query {
    pub fn size(&self) -> usize {
        let subs: usize = self.subs.iter().map(Sub::size).sum();
        usize::from(self.filter) + usize::from(self.distinct) + subs + self.subs.len() - 1
    }

    pub fn depth(&self) -> usize {
        self.subs.iter().map(Sub::depth).max().unwrap_or(0)
    }

    /// The subquery kinds, outermost first.
    pub fn kinds(&self) -> Vec<&'static str> {
        let subs = self.subs.iter().flat_map(Sub::chain);
        subs.map(Sub::kind).collect()
    }

    /// Is this the paper's template, `D.num_emps cmp (SELECT agg FROM emp
    /// E WHERE E.building = D.building)` with or without `D.budget <
    /// 10000`?
    pub fn template(&self) -> bool {
        let s = &self.subs[0];
        let plain = Sub { axes: [0, s.axes[CMP], 0, 0, s.axes[AGG], 0], ..Sub::default() };
        self.subs.len() == 1 && !self.distinct && *s == plain
    }

    /// Does some subquery aggregate with a COUNT?
    pub fn counts(&self) -> bool {
        let mut subs = self.subs.iter().flat_map(Sub::chain);
        subs.any(|s| s.uses_agg() && AGGS[s.axes[AGG]].starts_with("COUNT"))
    }

    /// The canonical SQL text.
    pub fn sql(&self) -> String {
        let mut r = Render { next: 0 };
        let mut preds = Vec::new();
        if self.filter {
            preds.push("D.budget < 10000".to_string());
        }
        let mut from = "dept D".to_string();
        let mut cols = ["D.name", "DISTINCT D.building"][usize::from(self.distinct)].to_string();
        for s in &self.subs {
            if s.kind() == "lateral" {
                write!(from, ", l(c) AS ({})", r.body(s, "D", "D")).unwrap();
                cols.push_str(", c");
            } else {
                preds.push(r.pred(s, "D", ("dept", "D"), "D"));
            }
        }
        let mut sql = format!("SELECT {cols} FROM {from}");
        if !preds.is_empty() {
            write!(sql, " WHERE {}", preds.join(" AND ")).unwrap();
        }
        sql
    }

    /// Smaller queries that keep most of this one, for the shrinker:
    /// every deviation reverted on its own, and every subquery dropped.
    pub fn simplifications(&self) -> Vec<Query> {
        let mut out = vec![
            Query { filter: false, ..self.clone() },
            Query { distinct: false, ..self.clone() },
        ];
        for i in 0..self.subs.len() {
            if self.subs.len() > 1 {
                let mut q = self.clone();
                q.subs.remove(i);
                out.push(q);
            }
            for s in self.subs[i].simplifications() {
                let mut q = self.clone();
                q.subs[i] = s;
                out.push(q);
            }
        }
        out.retain(|q| q.valid() && q != self);
        out
    }

    /// Is this query in canonical form (see [`enumerate`])?
    pub fn valid(&self) -> bool {
        let mut subs = self.subs.iter().enumerate();
        (1..=2).contains(&self.subs.len()) && subs.all(|(i, s)| s.valid(1, i == 0))
    }
}

/// Aliases in order of appearance.
struct Render {
    next: usize,
}

impl Render {
    /// The predicate `s` puts in the block aliased `parent` (of `table`),
    /// correlated to `to` — or to `root` when `s.to_root`.
    fn pred(&mut self, s: &Sub, root: &str, (table, parent): (&str, &str), to: &str) -> String {
        let to = if s.to_root { root } else { to };
        let num = format!(
            "{parent}.{}",
            if table == "dept" {
                "num_emps"
            } else {
                "salary"
            }
        );
        let (body, kind, cmp) = (self.body(s, root, to), s.kind(), CMPS[s.axes[CMP]]);
        match kind {
            "scalar" => format!("{num} {cmp} ({body})"),
            "ANY" | "ALL" => format!("{num} {cmp} {kind} ({body})"),
            "IN" | "NOT IN" => format!("{parent}.building {kind} ({body})"),
            _ => format!("{kind} ({body})"),
        }
    }

    fn body(&mut self, s: &Sub, root: &str, to: &str) -> String {
        self.next += 1;
        let x = format!("e{}", self.next);
        let corr = |x: &str| match CORRS[s.axes[CORR]] {
            "key" => format!("{x}.name = {to}.name"),
            op => format!("{x}.building {op} {to}.building"),
        };
        let mut conj = vec![corr(&x)];
        if s.axes[FILTER] == 1 {
            conj.push(format!("{x}.salary > 2"));
        }
        if let Some(n) = &s.nested {
            conj.push(self.pred(n, root, ("emp", &x), &x));
        }
        let from = format!("FROM emp {x} WHERE {}", conj.join(" AND "));
        // IN and NOT IN compare buildings; the others, salaries.
        let col = ["salary", "building"][usize::from(s.kind().ends_with("IN"))];
        let agg = AGGS[s.axes[AGG]].replace("{}", &format!("{x}.salary"));
        let union = |r: &mut Render| {
            r.next += 1;
            let y = format!("e{}", r.next);
            let second = format!("FROM emp {y} WHERE {} AND {y}.salary > 4", corr(&y));
            let shape = s.shape();
            format!("(SELECT {x}.{col} {from}) {shape} (SELECT {y}.{col} {second})")
        };
        let grouped = format!("SELECT {x}.{col} {from} GROUP BY {x}.{col}");
        match (s.scalar(), s.shape()) {
            (true, "UNION" | "UNION ALL") => {
                let u = union(self);
                format!(
                    "SELECT {} FROM u{}(v) AS ({u})",
                    AGGS[s.axes[AGG]].replace("{}", "v"),
                    self.next
                )
            }
            (true, "HAVING") => format!("SELECT {agg} {from} HAVING COUNT(*) > 1"),
            (true, _) => format!("SELECT {agg} {from}"),
            (false, "plain") => format!("SELECT {x}.{col} {from}"),
            (false, "GROUP BY") => format!("SELECT {agg} {from} GROUP BY {x}.building"),
            (false, "GROUP BY no aggregate") => grouped,
            (false, "HAVING") => format!("{grouped} HAVING COUNT(*) > 1"),
            _ => union(self),
        }
    }
}

/// Every canonical query of size at most `max`, smallest first. A second
/// subquery is never larger than the first (the pair in the other order
/// is the same query up to conjunct order).
pub fn enumerate(max: usize) -> Vec<Query> {
    let mut out = Vec::new();
    for (filter, distinct) in [(false, false), (true, false), (false, true), (true, true)] {
        let Some(left) = max.checked_sub(usize::from(filter) + usize::from(distinct)) else {
            continue;
        };
        for first in subs(left, 1, true) {
            out.push(Query { filter, distinct, subs: vec![first.clone()] });
            let Some(left) = (left - first.size()).checked_sub(1) else {
                continue;
            };
            let seconds = subs(left, 1, false)
                .into_iter()
                .filter(|s| s.size() <= first.size());
            out.extend(seconds.map(|second| Query {
                filter,
                distinct,
                subs: vec![first.clone(), second],
            }));
        }
    }
    out.retain(Query::valid);
    out.sort_by_key(Query::size);
    out
}

/// Every valid subquery of size at most `budget`.
fn subs(budget: usize, depth: usize, first: bool) -> Vec<Sub> {
    let mut out = Vec::new();
    for i in 0..AXES.iter().product() {
        // The `i`th axis vector, the first axis varying fastest.
        let mut rest: usize = i;
        let axes = AXES.map(|n| (rest % n, rest /= n).0);
        let s = Sub { axes, ..Sub::default() };
        if s.size() > budget || !s.valid(depth, first) {
            continue;
        }
        let nested =
            (depth == 1 && s.size() < budget).then(|| subs(budget - s.size() - 1, 2, false));
        for n in nested.into_iter().flatten() {
            for to_root in [false, true] {
                let s = Sub { nested: Some(Box::new(Sub { to_root, ..n.clone() })), ..s.clone() };
                if s.size() <= budget {
                    out.push(s);
                }
            }
        }
        out.push(s);
    }
    out
}

/// A seeded random query of at most depth 2, for fuzzing past the bound.
pub fn random_query(rng: &mut SmallRng) -> Query {
    let sub = |rng: &mut SmallRng, nested: bool| {
        let to_root = nested && rng.gen_bool(0.5);
        Sub { axes: AXES.map(|n| rng.gen_range(0..n)), nested: None, to_root }
    };
    // An invalid draw is drawn again.
    loop {
        let mut first = sub(rng, false);
        if rng.gen_bool(0.4) {
            first.nested = Some(Box::new(sub(rng, true)));
        }
        let mut subs = vec![first];
        if rng.gen_bool(0.4) {
            subs.push(sub(rng, false));
        }
        let q = Query { filter: rng.gen_bool(0.3), distinct: rng.gen_bool(0.2), subs };
        if q.valid() {
            return q;
        }
    }
}

// ---- worlds -------------------------------------------------------------------

/// A named database.
#[derive(Debug, Clone)]
pub struct World {
    pub name: String,
    pub db: Database,
}

impl World {
    pub fn new(name: &str, db: Database) -> World {
        World { name: name.into(), db }
    }

    pub fn rows(&self) -> usize {
        self.db.tables().map(Table::len).sum()
    }

    /// This world with the rows of table `t` replaced, or (`None`)
    /// without `t`.
    pub fn with_rows(&self, t: &str, rows: Option<&[Row]>) -> World {
        let mut db = Database::new();
        for table in self.db.tables().filter(|x| x.name() != t || rows.is_some()) {
            let rows = rows.filter(|_| table.name() == t).unwrap_or(table.rows());
            add(&mut db, &header(table), rows.iter().cloned());
        }
        World::new(&self.name, db)
    }
}

/// Create the table `header` describes — `name (col TYPE, ...)`, then any
/// `KEY (cols)` and `INDEX (cols)` — holding `rows`.
pub fn add(db: &mut Database, header: &str, rows: impl IntoIterator<Item = Row>) {
    let (name, rest) = header.split_once('(').expect("name (columns)");
    let (cols, mut tail) = rest.split_once(')').expect("a closing parenthesis");
    use DataType::{Bool, Double, Int, Str};
    let column = |c: &str| {
        let (n, ty) = c.trim().split_once(' ').expect("name TYPE");
        let types = [Bool, Int, Double, Str];
        let ty = types.into_iter().find(|t| t.to_string() == ty);
        (n.to_string(), ty.expect("a type"))
    };
    let columns: Vec<(String, DataType)> = cols.split(',').map(column).collect();
    let columns: Vec<(&str, DataType)> = columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&columns);
    let t = db.create_table(name.trim(), schema).expect("a fresh table");
    t.insert_all(rows).expect("rows fit their schema");
    while let Some((word, rest)) = tail.split_once('(') {
        let (cols, rest) = rest.split_once(')').expect("a closing parenthesis");
        let cols: Vec<&str> = cols.split(',').map(str::trim).collect();
        let made = if word.trim() == "KEY" {
            t.set_key(&cols)
        } else {
            t.create_index(&cols)
        };
        made.expect("key and index columns exist");
        tail = rest;
    }
}

/// The header [`add`] reads, of `t`.
fn header(t: &Table) -> String {
    let cols = t.schema().columns();
    let names = |ix: &[usize]| ix.iter().map(|&c| cols[c].name.clone()).collect::<Vec<_>>();
    let defs: Vec<String> = cols
        .iter()
        .map(|c| format!("{} {}", c.name, c.ty))
        .collect();
    let mut s = format!("{} ({})", t.name(), defs.join(", "));
    if let Some(k) = t.key() {
        write!(s, " KEY ({})", names(k).join(", ")).unwrap();
    }
    for ix in t.indexes() {
        write!(s, " INDEX ({})", names(ix.columns()).join(", ")).unwrap();
    }
    s
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// A DEPT/EMP world: `dept(name, budget, num_emps, building)` and
/// `emp(name, building, salary)` as the fixed worlds of `tests/corpus/
/// worlds` have them, `building` of type `ty`. Departments are `d0, d1,
/// ...` and so are employees, so a key correlation finds partners.
pub fn empdept(
    name: &str,
    ty: &str,
    depts: Vec<(f64, i64, Value)>,
    emps: Vec<(Value, Value)>,
) -> World {
    let name_of = |i: usize| Value::str(format!("d{i}"));
    let dept = depts.into_iter().enumerate();
    let dept =
        dept.map(|(i, (budget, n, b))| Row(vec![name_of(i), Value::Double(budget), int(n), b]));
    let emp = emps.into_iter().enumerate();
    let emp = emp.map(|(i, (b, s))| Row(vec![name_of(i), b, s]));
    let mut db = Database::new();
    let cols = format!("name STRING, budget DOUBLE, num_emps INT, building {ty}");
    add(&mut db, &format!("dept ({cols}) KEY (name)"), dept);
    let cols = format!("name STRING, building {ty}, salary INT");
    let header = format!("emp ({cols}) KEY (name) INDEX (building)");
    add(&mut db, &header, emp);
    World::new(name, db)
}

/// The repository's `tests/corpus`, seen from the root crate's tests or
/// from a member crate's (`crates/<name>/tests`).
pub fn corpus_dir() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = [here.join("tests/corpus"), here.join("../../tests/corpus")];
    dirs.into_iter()
        .find(|d| d.is_dir())
        .expect("the tests/corpus directory")
}

/// The world of `tests/corpus/worlds/<name>.tables`.
pub fn fixed(name: &str) -> World {
    let dir = corpus_dir().join("worlds");
    let text = std::fs::read_to_string(dir.join(format!("{name}.tables"))).expect("a world file");
    parse_case(name, &text, &dir).0
}

/// The paper world with the named table emptied.
pub fn emptied(table: &str) -> World {
    let mut w = fixed("paper").with_rows(table, Some(&[]));
    w.name = format!("empty {table}");
    w
}

/// `emp` of `n` rows — at the lattice's 512-row stripes, 511, 512 and 513
/// end one short of, on and one past a stripe boundary — whose last row is
/// the only employee of building 7.
pub fn stripe_world(n: i64) -> World {
    let building = [0, 1, 2, 3, 0, 7].map(int).into_iter().chain([Value::Null]);
    let depts = building
        .enumerate()
        .map(|(i, b)| (1000.0 * i as f64, i as i64 % 4, b))
        .collect();
    let building = |i: i64| match i {
        _ if i == n - 1 => int(7),
        _ if i % 37 == 5 => Value::Null,
        _ => int(i % 5),
    };
    let emps = (0..n).map(|i| (building(i), int(i % 10))).collect();
    empdept(&format!("stripes-{n}"), "INT", depts, emps)
}

/// An `emp` past [`MORSEL_ROWS`], so every operator over it fans out on
/// four threads.
pub fn big_world() -> World {
    let depts = (0..12).map(|i| (700.0 * i as f64, i % 9, int(i % 8)));
    let b = |i: i64| if i % 53 == 0 { Value::Null } else { int(i % 7) };
    let emps = (0..MORSEL_ROWS as i64 + 77).map(|i| (b(i), int(i % 10)));
    empdept("big", "INT", depts.collect(), emps.collect())
}

/// The fixed worlds every bounded query runs in.
pub fn worlds() -> Vec<World> {
    let mut w: Vec<World> = ["paper", "null-heavy", "odd-keys"].map(fixed).into();
    w.extend([emptied("dept"), emptied("emp")]);
    w.extend([511, 512, 513].map(stripe_world));
    w.push(big_world());
    w
}

/// A seeded random DEPT/EMP world: NULL buildings with probability
/// `nulls`, and with `mixed` keys DOUBLE, `-0.0` for 0 and NaN for 3.
pub fn random_world(seed: u64, nulls: f64, mixed: bool) -> World {
    let mut rng = SmallRng::seed_from_u64(seed);
    let key = |rng: &mut SmallRng| match rng.gen_range(0i64..5) {
        _ if rng.gen_bool(nulls) => Value::Null,
        0 if mixed => Value::Double(-0.0),
        3 if mixed => Value::Double(f64::NAN),
        k if mixed && k % 2 == 0 => Value::Double(k as f64),
        k => int(k),
    };
    let dept = |rng: &mut SmallRng| {
        let budget = rng.gen_range(0i64..20) as f64 * 1000.0;
        (budget, rng.gen_range(0i64..6), key(rng))
    };
    let depts = (0..rng.gen_range(0..12)).map(|_| dept(&mut rng)).collect();
    let salary = |rng: &mut SmallRng| match rng.gen_bool(0.1) {
        true => Value::Null,
        false => int(rng.gen_range(0..10)),
    };
    let emps = (0..rng.gen_range(0..16))
        .map(|_| (key(&mut rng), salary(&mut rng)))
        .collect();
    empdept(
        &format!("random-{seed}"),
        if mixed { "DOUBLE" } else { "INT" },
        depts,
        emps,
    )
}

/// `t`, `u` (unindexed) and the empty `e`, each `(k, v, s)`; `t` and `u`
/// cross the morsel threshold and `t` is indexed on `k`, so an unfiltered
/// scan of it is deferred with nothing to drive the index.
pub fn single_input_world() -> World {
    let s = |i: i64| Value::str(format!("s{}", i % 13));
    let rows = || (0..2 * MORSEL_ROWS as i64 + 77).map(|i| Row(vec![int(i), int(i % 7), s(i)]));
    let mut db = Database::new();
    add(&mut db, "t (k INT, v INT, s STRING) INDEX (k)", rows());
    add(&mut db, "u (k INT, v INT, s STRING)", rows());
    add(&mut db, "e (k INT, v INT, s STRING)", []);
    World::new("single-input", db)
}

/// `big` crosses two morsels and four 512-row stripes; `id` is its
/// insertion order, so zone maps prune on it. Its key column is a DOUBLE
/// that also holds Ints, NULL, NaN and both zeros; `small` holds one key
/// of each kind — with no, one and many partners in `big` — and is always
/// the smaller side. `none` is `big` without a row; `r511`, `r512` and
/// `r513` are its first rows, ending one short of, on and one past a
/// stripe, each with the key of `small`'s "one" in its last row.
pub fn scan_arms_world() -> World {
    let d = Value::Double;
    let row = |i: i64, last: i64| {
        let k = match i % 97 {
            _ if i == last => d(-1.5),
            0 => Value::Null,
            1 => d(f64::NAN),
            2 => d(-0.0),
            3 => d(0.0),
            4 => int(7),
            r => d(r as f64),
        };
        Row(vec![
            int(i),
            k,
            int(i % 7),
            Value::str(format!("s{}", i % 13)),
        ])
    };
    let mut db = Database::new();
    let table = |t: &str| format!("{t} (id INT, k DOUBLE, v INT, s STRING)");
    add(
        &mut db,
        &table("big"),
        (0..2 * MORSEL_ROWS as i64 + 77).map(|i| row(i, 1500)),
    );
    add(&mut db, &table("none"), []);
    for n in [511, 512, 513] {
        add(
            &mut db,
            &table(&format!("r{n}")),
            (0..n).map(|i| row(i, n - 1)),
        );
    }
    let small = [
        (Value::Null, "null"),
        (d(f64::NAN), "nan"),
        (d(0.0), "zero"),
        (d(-0.0), "minus zero"),
        (d(7.0), "many, stored as Int"),
        (d(-1.5), "one"),
        (d(1234.5), "none"),
    ];
    let small = small.map(|(k, t)| Row(vec![k, Value::str(t)]));
    add(&mut db, "small (k DOUBLE, tag STRING) KEY (tag)", small);
    World::new("scan-arms", db)
}

/// `l(a)`: INT 0, 1, 2, NULL; `r(b)`: DOUBLE 0.0, -0.0, 1.0, NaN, NULL,
/// 2.0, 2.0 and forty more past 100, indexed.
pub fn join_keys_world() -> World {
    let d = Value::Double;
    let r = [
        d(0.0),
        d(-0.0),
        d(1.0),
        d(f64::NAN),
        Value::Null,
        d(2.0),
        d(2.0),
    ];
    let r = r.into_iter().chain((100..140).map(|i| d(i as f64)));
    let mut db = Database::new();
    add(
        &mut db,
        "l (a INT)",
        [int(0), int(1), int(2), Value::Null].map(|v| Row(vec![v])),
    );
    add(&mut db, "r (b DOUBLE) INDEX (b)", r.map(|v| Row(vec![v])));
    World::new("join-keys", db)
}

/// The world a corpus file names with `world <name>`.
pub fn named(name: &str) -> World {
    match name {
        "single-input" => single_input_world(),
        "scan-arms" => scan_arms_world(),
        "join-keys" => join_keys_world(),
        fixed_world => fixed(fixed_world),
    }
}

// ---- cases, and plans SQL cannot say ---------------------------------------------

/// What a case runs.
#[derive(Debug, Clone)]
pub enum Text {
    /// A query of the space.
    Ast(Query),
    Sql(String),
}

/// A check a corpus file asks for beyond "the oracle's rows".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expect {
    /// Strategies (by name) that must refuse the query with a rewrite error.
    pub inapplicable: Vec<String>,
    /// Kim's method must lose a row to the COUNT bug.
    pub count_bug: bool,
    /// Nested iteration's logical subquery invocations.
    pub invocations: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub text: Text,
    /// What [`patch`] makes of the bound graph.
    pub patch: String,
    pub expect: Expect,
}

impl Case {
    pub fn new(name: &str, text: Text) -> Case {
        Case { name: name.into(), text, patch: String::new(), expect: Expect::default() }
    }

    pub fn ast(q: Query) -> Case {
        Case::new(&q.sql(), Text::Ast(q))
    }

    /// The SQL text.
    pub fn sql(&self) -> String {
        match &self.text {
            Text::Ast(q) => q.sql(),
            Text::Sql(s) => s.clone(),
        }
    }
}

/// Patch `g` into what SQL cannot say: for each word of `patch`, the
/// block that owns the quantifier `L` becomes an outer join
/// (`outer-join`), its `=` predicates `IS NOT DISTINCT FROM` (`null-eq`),
/// or each of its predicates `p AND TRUE`, which key extraction does not
/// see through, so the join runs as a nested loop (`opaque`).
pub fn patch(g: &mut Qgm, patch: &str) {
    if patch.is_empty() {
        return;
    }
    let l = g.live_quants().find(|q| q.alias.eq_ignore_ascii_case("L"));
    let bx = g.boxmut(l.expect("a patch needs a quantifier L").owner);
    for word in patch.split_whitespace() {
        for p in &mut bx.preds {
            match (word, &mut *p) {
                ("null-eq", Expr::Binary { op: op @ BinOp::Eq, .. }) => *op = BinOp::NullEq,
                ("opaque", p) => *p = Expr::bin(BinOp::And, p.clone(), Expr::lit(true)),
                _ => {}
            }
        }
        match word {
            "outer-join" => bx.kind = BoxKind::OuterJoin,
            "null-eq" | "opaque" => {}
            other => panic!("unknown patch {other}"),
        }
    }
}

// ---- the corpus format ----------------------------------------------------------

/// Parse a corpus file:
///
/// ```text
/// # a comment
/// table dept (name STRING, budget DOUBLE, num_emps INT, building INT) KEY (name)
/// 'toys', 5000.0, 3, 1
/// table emp (name STRING, building INT) KEY (name) INDEX (building)
/// 'ann', 1
/// tables other.tables            (the tables of another file of the directory)
/// world scan-arms                (a generated world, see `named`)
/// expect inapplicable Kim Dayal
/// expect count-bug
/// expect invocations 6
/// patch outer-join null-eq       (see `patch`)
/// query
/// SELECT ...
/// ```
///
/// Values are `NULL`, `NaN`, numbers (a `.` makes a DOUBLE), `TRUE`,
/// `FALSE` and `'strings'` (`''` escapes a quote). Everything after
/// `query` is the SQL text. A file that only borrows its tables
/// (`tables` or `world`) takes the borrowed name as its world's, so the
/// files sharing one world run in it together.
pub fn parse_case(name: &str, text: &str, dir: &Path) -> (World, Case) {
    let mut tables: Vec<(String, Vec<Row>)> = Vec::new();
    let (mut world_name, mut case) = (name, Case::new(name, Text::Sql(String::new())));
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        let expect = &mut case.expect;
        match word {
            _ if line.is_empty() || line.starts_with('#') => {}
            "table" => tables.push((rest.into(), Vec::new())),
            "tables" | "world" => {
                let read = || std::fs::read_to_string(dir.join(rest)).expect("a tables file");
                let borrowed = if word == "world" {
                    named(rest)
                } else {
                    parse_case(name, &read(), dir).0
                };
                tables.extend(borrowed.db.tables().map(|t| (header(t), t.rows().to_vec())));
                world_name = rest;
            }
            "patch" => case.patch = rest.into(),
            "expect" => match rest.split_once(' ').unwrap_or((rest, "")) {
                ("inapplicable", names) => {
                    expect.inapplicable = names.split(' ').map(String::from).collect()
                }
                ("count-bug", _) => expect.count_bug = true,
                ("invocations", n) => expect.invocations = Some(n.parse().expect("a count")),
                other => panic!("{name}: unknown expectation {other:?}"),
            },
            "query" => case.text = Text::Sql(lines.by_ref().collect::<Vec<_>>().join(" ")),
            _ => tables
                .last_mut()
                .expect("a table before its rows")
                .1
                .push(Row(parse_values(line))),
        }
    }
    if text.lines().any(|l| l.trim_start().starts_with("table ")) {
        world_name = name;
    }
    let mut db = Database::new();
    for (header, rows) in tables {
        add(&mut db, &header, rows);
    }
    (World::new(world_name, db), case)
}

/// One row: values separated by commas outside quotes.
fn parse_values(line: &str) -> Vec<Value> {
    let (mut out, mut word, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' if quoted && chars.next_if_eq(&'\'').is_some() => word.push(c),
            '\'' => {
                quoted = !quoted;
                word.push(c);
            }
            ',' if !quoted => out.push(parse_value(std::mem::take(&mut word).trim())),
            c => word.push(c),
        }
    }
    out.push(parse_value(word.trim()));
    out
}

fn parse_value(w: &str) -> Value {
    match w {
        "NULL" => Value::Null,
        "NaN" => Value::Double(f64::NAN),
        "TRUE" | "FALSE" => Value::Bool(w == "TRUE"),
        _ if w.starts_with('\'') => Value::str(&w[1..w.len() - 1]),
        _ if w.contains('.') => Value::Double(w.parse().expect("a DOUBLE")),
        _ => Value::Int(w.parse().expect("an INT")),
    }
}

fn print_value(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("{d:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        v => v.to_string().to_uppercase(),
    }
}

/// A corpus file for `case` over `world`.
pub fn print_case(world: &World, case: &Case, why: &str) -> String {
    let mut out: String = why.lines().map(|l| format!("# {l}\n")).collect();
    for t in world.db.tables() {
        writeln!(out, "table {}", header(t)).unwrap();
        for r in t.rows() {
            let values: Vec<String> = r.0.iter().map(print_value).collect();
            writeln!(out, "{}", values.join(", ")).unwrap();
        }
    }
    let e = &case.expect;
    if !case.patch.is_empty() {
        writeln!(out, "patch {}", case.patch).unwrap();
    }
    if !e.inapplicable.is_empty() {
        writeln!(out, "expect inapplicable {}", e.inapplicable.join(" ")).unwrap();
    }
    if e.count_bug {
        out.push_str("expect count-bug\n");
    }
    if let Some(n) = e.invocations {
        writeln!(out, "expect invocations {n}").unwrap();
    }
    out + "query\n" + &case.sql() + "\n"
}
