//! The reference interpreter: a query graph evaluated tuple at a time.
//!
//! It is written to be obviously right, not fast. Every table is copied
//! into a `Vec<Row>`; a Select box is nested loops over its quantifiers,
//! each predicate tested as soon as the quantifiers it reads are bound; a
//! correlated child is evaluated again for every binding, through an
//! explicit environment stack that maps each bound quantifier to its row.
//! There are no indexes, no options and no plans: the only inputs are the
//! catalog's rows and the graph.
//!
//! Comparison, arithmetic, grouping and aggregation are implemented here,
//! from the engine's documented definitions, and share no code with the
//! executor:
//!
//! * `=`, `<>`, `<`, ... compare numbers by value (`Int 1 = Double 1.0`),
//!   NULL compares to nothing (unknown), NaN compares to nothing, and
//!   `-0.0 = 0.0`.
//! * *Sameness* — `IS NOT DISTINCT FROM`, GROUP BY keys, DISTINCT, UNION
//!   and `COUNT(DISTINCT ..)` — is the engine's value identity: NULL is
//!   the same as NULL, NaN as NaN, `Int 1` as `Double 1.0`, and `-0.0` is
//!   *not* the same as `0.0`.
//! * MIN and MAX order numbers by value with NaN above every number and
//!   `-0.0` below `0.0`.
//! * A scalar subquery over no rows is NULL; over more than one it is an
//!   error. An aggregate over no rows is 0 for COUNT and NULL otherwise; a
//!   grand total over an empty input is still one row.
//! * Quantified subqueries use SQL three-valued logic: `x IN (..)` / `ANY`
//!   is true if some row makes its predicates true, unknown if none does
//!   but some row leaves them unknown, false otherwise (so false over an
//!   empty input); `NOT IN` / `ALL` is the dual (true over an empty
//!   input).
//!
//! Results compare as multisets ([`same_multiset`]), with NaN equal to NaN
//! and `-0.0` equal to `0.0`.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use decorr::common::{Row, Value};
use decorr::qgm::{AggFunc, BinOp, BoxId, BoxKind, Expr, Func, OutputCol, Qgm, QgmBox};
use decorr::qgm::{QuantId, QuantKind, UnOp};
use decorr::storage::{Database, Table};

/// What the interpreter can fail with: a message.
pub type Outcome<T> = Result<T, String>;

/// The rows `qgm` returns against `db`.
pub fn run(db: &Database, qgm: &Qgm) -> Outcome<Vec<Row>> {
    Interp::new(db, qgm, false).eval_top()
}

/// The rows Kim's method is known to return: `qgm` under the semantics
/// that a correlated scalar aggregate over an empty group yields no row at
/// all — the outer row it was computed for disappears, where SQL gives the
/// aggregate's empty value (0 for COUNT: the COUNT bug).
pub fn run_losing_empty_groups(db: &Database, qgm: &Qgm) -> Outcome<Vec<Row>> {
    Interp::new(db, qgm, true).eval_top()
}

type Rows = Rc<Vec<Row>>;

struct Interp<'q> {
    qgm: &'q Qgm,
    tables: HashMap<String, Rows>,
    /// The bound quantifiers, innermost last.
    env: Vec<(QuantId, Row)>,
    /// Per box: the quantifiers its subtree reads but does not own.
    free: HashMap<BoxId, Rc<Vec<QuantId>>>,
    /// Kim's semantics (see [`run_losing_empty_groups`]).
    lose_empty_groups: bool,
}

impl<'q> Interp<'q> {
    fn new(db: &Database, qgm: &'q Qgm, lose_empty_groups: bool) -> Self {
        let copy = |t: &Table| (t.name().to_ascii_lowercase(), Rc::new(t.rows().to_vec()));
        let (tables, env, free) = (db.tables().map(copy).collect(), Vec::new(), HashMap::new());
        Interp { qgm, tables, env, free, lose_empty_groups }
    }

    fn eval_top(&mut self) -> Outcome<Vec<Row>> {
        Ok(self.eval_box(self.qgm.top())?.as_ref().clone())
    }

    fn eval_box(&mut self, b: BoxId) -> Outcome<Rows> {
        let bx = self.qgm.boxref(b);
        let rows = match &bx.kind {
            BoxKind::BaseTable { table, .. } => {
                let rows = self.tables.get(&table.to_ascii_lowercase()).cloned();
                return rows.ok_or_else(|| format!("unknown table {table}"));
            }
            BoxKind::Select => self.eval_select(bx)?,
            BoxKind::Grouping { group_by } => self.eval_grouping(b, group_by)?,
            BoxKind::Union { all } => {
                // Branches line up by position: each row is projected as
                // if it came from the first.
                let mut out = Vec::new();
                for &q in &bx.quants {
                    for row in self.eval_box(self.qgm.quant(q).input)?.iter() {
                        let project = |me: &mut Self| me.project(&bx.outputs);
                        out.push(self.with(bx.quants[0], row.clone(), project)?);
                    }
                }
                return Ok(Rc::new(if *all { out } else { distinct(out) }));
            }
            BoxKind::OuterJoin => self.eval_outer_join(bx)?,
        };
        Ok(Rc::new(rows))
    }

    // ---- the environment ---------------------------------------------------

    fn lookup(&self, q: QuantId, col: usize) -> Outcome<Value> {
        let bound = self.env.iter().rev().find(|(bound, _)| *bound == q);
        let (_, row) = bound.ok_or_else(|| format!("unbound quantifier {q}"))?;
        let value = row.0.get(col).cloned();
        value.ok_or_else(|| format!("{q} has no column {col}"))
    }

    /// Evaluate `f`, then unbind what it bound.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let mark = self.env.len();
        let out = f(self);
        self.env.truncate(mark);
        out
    }

    /// Evaluate `f` with `q` bound to `row`.
    fn with<T>(&mut self, q: QuantId, row: Row, f: impl FnOnce(&mut Self) -> T) -> T {
        self.scoped(|me| {
            me.env.push((q, row));
            f(me)
        })
    }

    /// The quantifiers the subtree under `b` reads without owning them.
    fn free_quants(&mut self, b: BoxId) -> Rc<Vec<QuantId>> {
        if let Some(f) = self.free.get(&b) {
            return Rc::clone(f);
        }
        let (mut owned, mut read, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if !seen.contains(&x) {
                seen.push(x);
                let bx = self.qgm.boxref(x);
                owned.extend(bx.quants.iter().copied());
                bx.for_each_expr(|e| e.for_each_col(&mut |q, _| read.push(q)));
                stack.extend(bx.quants.iter().map(|&q| self.qgm.quant(q).input));
            }
        }
        read.retain(|q| !owned.contains(q));
        read.dedup();
        let free = Rc::new(read);
        self.free.insert(b, Rc::clone(&free));
        free
    }

    // ---- Select ------------------------------------------------------------

    fn eval_select(&mut self, bx: &QgmBox) -> Outcome<Vec<Row>> {
        let qgm = self.qgm;
        let foreach = |q: &QuantId| qgm.quant(*q).kind == QuantKind::Foreach;
        // The Foreach quantifiers in order, a child that reads another
        // quantifier of this box after it; the inputs of those that read
        // none, evaluated once.
        let (mut order, mut inputs, mut deps) = (Vec::new(), HashMap::new(), Vec::new());
        for &q in bx.quants.iter().filter(|q| foreach(q)) {
            let child = qgm.quant(q).input;
            let free = self.free_quants(child);
            let reads: Vec<QuantId> = free
                .iter()
                .copied()
                .filter(|r| bx.quants.contains(r))
                .collect();
            if reads.is_empty() {
                inputs.insert(q, self.eval_box(child)?);
            }
            deps.push((q, reads));
        }
        while !deps.is_empty() {
            let ready = deps
                .iter()
                .position(|(_, reads)| reads.iter().all(|r| order.contains(r)));
            order.push(deps.remove(ready.ok_or("cyclic lateral references")?).0);
        }
        // Each plain predicate at the first level that binds what it
        // reads; those over a subquery quantifier at the end.
        let mut at_level: Vec<Vec<&Expr>> = vec![Vec::new(); order.len() + 2];
        for p in &bx.preds {
            let mut level = 0;
            p.for_each_col(&mut |q, _| match order.iter().position(|o| *o == q) {
                Some(i) => level = level.max(i + 1),
                None if bx.quants.contains(&q) => level = usize::MAX,
                None => {}
            });
            at_level[level.min(order.len() + 1)].push(p);
        }
        let mut out = Vec::new();
        self.nest(bx, &order, &inputs, &at_level, &mut out)?;
        Ok(if bx.distinct { distinct(out) } else { out })
    }

    /// Bind the Foreach quantifiers `order` in turn; at the bottom, settle
    /// the subquery quantifiers and emit the projection.
    fn nest(
        &mut self,
        bx: &QgmBox,
        order: &[QuantId],
        inputs: &HashMap<QuantId, Rows>,
        at_level: &[Vec<&Expr>],
        out: &mut Vec<Row>,
    ) -> Outcome<()> {
        if all_true(self, &at_level[0])? != Some(true) {
            return Ok(());
        }
        let Some((&q, deeper)) = order.split_first() else {
            return self.scoped(|me| me.emit(bx, &at_level[1], out));
        };
        let rows = match inputs.get(&q) {
            Some(rows) => Rc::clone(rows),
            None => self.eval_box(self.qgm.quant(q).input)?,
        };
        for row in rows.iter() {
            let nest = |me: &mut Self| me.nest(bx, deeper, inputs, &at_level[1..], out);
            self.with(q, row.clone(), nest)?;
        }
        Ok(())
    }

    /// All Foreach quantifiers are bound: evaluate the scalar subqueries,
    /// test the remaining predicates — the quantified ones per subquery,
    /// in three-valued logic — and project.
    fn emit(&mut self, bx: &QgmBox, last: &[&Expr], out: &mut Vec<Row>) -> Outcome<()> {
        let mut quantified: Vec<(QuantId, Vec<&Expr>)> = Vec::new();
        for &q in &bx.quants {
            match self.qgm.quant(q).kind {
                QuantKind::Foreach => {}
                QuantKind::Scalar => match self.scalar(q)? {
                    Some(v) => self.env.push((q, Row(vec![v]))),
                    None => return Ok(()),
                },
                QuantKind::Existential | QuantKind::All => quantified.push((q, Vec::new())),
            }
        }
        let mut verdict = Some(true);
        for &p in last {
            let mut over: Vec<QuantId> = Vec::new();
            p.for_each_col(&mut |q, _| {
                if quantified.iter().any(|(s, _)| *s == q) && !over.contains(&q) {
                    over.push(q);
                }
            });
            match over[..] {
                [] => verdict = and3(verdict, self.truth(p)?),
                [q] => quantified
                    .iter_mut()
                    .filter(|(s, _)| *s == q)
                    .for_each(|(_, ps)| ps.push(p)),
                _ => return Err("a predicate reads two quantified subqueries".into()),
            }
        }
        for (q, preds) in &quantified {
            verdict = and3(verdict, self.quantified(*q, preds)?);
        }
        if verdict == Some(true) {
            out.push(self.project(&bx.outputs)?);
        }
        Ok(())
    }

    /// A scalar subquery's value; `None` when the candidate disappears
    /// instead (Kim's semantics over an empty correlated group).
    fn scalar(&mut self, q: QuantId) -> Outcome<Option<Value>> {
        let child = self.qgm.quant(q).input;
        let rows = self.eval_box(child)?;
        match rows.len() {
            0 if self.lose_empty_groups && !self.free_quants(child).is_empty() => Ok(None),
            0 => Ok(Some(Value::Null)),
            1 => Ok(rows[0].0.first().cloned()),
            n => Err(format!("scalar subquery returned {n} rows")),
        }
    }

    /// EXISTS / IN / ANY (Existential) or NOT IN / ALL (All) over `preds`.
    fn quantified(&mut self, q: QuantId, preds: &[&Expr]) -> Outcome<Option<bool>> {
        let all = self.qgm.quant(q).kind == QuantKind::All;
        let (mut verdict, fold) = (Some(all), if all { and3 } else { or3 });
        for row in self.eval_box(self.qgm.quant(q).input)?.iter() {
            let holds = self.with(q, row.clone(), |me| all_true(me, preds))?;
            verdict = fold(verdict, holds);
        }
        Ok(verdict)
    }

    // ---- Grouping, outer join ---------------------------------------------

    fn eval_grouping(&mut self, b: BoxId, group_by: &[Expr]) -> Outcome<Vec<Row>> {
        let bx = self.qgm.boxref(b);
        let q = bx.quants[0];
        let child = self.qgm.quant(q).input;
        let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
        for row in self.eval_box(child)?.iter() {
            let key = self.with(q, row.clone(), |me| me.eval_all(group_by.iter(), None))?;
            match groups.iter_mut().find(|(k, _)| same_values(k, &key)) {
                Some((_, rows)) => rows.push(row.clone()),
                None => groups.push((key, vec![row.clone()])),
            }
        }
        if groups.is_empty() && group_by.is_empty() {
            if self.lose_empty_groups && !self.free_quants(b).is_empty() {
                return Ok(Vec::new());
            }
            groups.push((Vec::new(), Vec::new()));
        }
        let nulls = Row(vec![Value::Null; self.qgm.output_arity(child)]);
        let mut out = Vec::with_capacity(groups.len());
        for (_, rows) in &groups {
            // What is not an aggregate reads the group's first row.
            let rep = rows.first().cloned().unwrap_or_else(|| nulls.clone());
            let outputs = bx.outputs.iter().map(|o| &o.expr);
            let group = Some((q, rows.as_slice()));
            out.push(Row(self.with(q, rep, |me| me.eval_all(outputs, group))?));
        }
        Ok(out)
    }

    fn eval_outer_join(&mut self, bx: &QgmBox) -> Outcome<Vec<Row>> {
        let (ql, qr) = (bx.quants[0], bx.quants[1]);
        let left = self.eval_box(self.qgm.quant(ql).input)?;
        let right_box = self.qgm.quant(qr).input;
        let right = self.eval_box(right_box)?;
        let nulls = Row(vec![Value::Null; self.qgm.output_arity(right_box)]);
        let preds: Vec<&Expr> = bx.preds.iter().collect();
        let mut out = Vec::new();
        for l in left.iter() {
            self.env.push((ql, l.clone()));
            let mut matched = false;
            for r in right.iter() {
                if self.with(qr, r.clone(), |me| all_true(me, &preds))? == Some(true) {
                    matched = true;
                    out.push(self.with(qr, r.clone(), |me| me.project(&bx.outputs))?);
                }
            }
            if !matched {
                out.push(self.with(qr, nulls.clone(), |me| me.project(&bx.outputs))?);
            }
            self.env.pop();
        }
        Ok(out)
    }

    fn project(&mut self, outputs: &[OutputCol]) -> Outcome<Row> {
        let row = self.eval_all(outputs.iter().map(|o| &o.expr), None);
        row.map(Row)
    }

    // ---- expressions -------------------------------------------------------

    fn truth(&mut self, e: &Expr) -> Outcome<Option<bool>> {
        truth_of(&self.eval(e, None)?)
    }

    fn eval_all<'e>(
        &mut self,
        es: impl Iterator<Item = &'e Expr>,
        group: Group,
    ) -> Outcome<Vec<Value>> {
        es.map(|e| self.eval(e, group)).collect()
    }

    /// Evaluate `e`; `group` is the group an aggregate folds over.
    fn eval(&mut self, e: &Expr, group: Group) -> Outcome<Value> {
        Ok(match e {
            Expr::Col { quant, col } => self.lookup(*quant, *col)?,
            Expr::Lit(v) => v.clone(),
            Expr::Param(i) => return Err(format!("unbound parameter ${i}")),
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
                // `false AND x` and `true OR x` do not evaluate `x`.
                let l = truth_of(&self.eval(left, group)?)?;
                let and = *op == BinOp::And;
                if l == Some(!and) {
                    return Ok(Value::Bool(!and));
                }
                let r = truth_of(&self.eval(right, group)?)?;
                from_truth(if and { and3(l, r) } else { or3(l, r) })
            }
            Expr::Binary { op, left, right } => {
                let (l, r) = (self.eval(left, group)?, self.eval(right, group)?);
                binary(*op, &l, &r)?
            }
            Expr::Unary { op, expr } => match (op, self.eval(expr, group)?) {
                (UnOp::Not, v) => from_truth(truth_of(&v)?.map(|b| !b)),
                (UnOp::Neg, Value::Int(i)) => Value::Int(i.checked_neg().ok_or("overflow in -")?),
                (UnOp::Neg, Value::Double(d)) => Value::Double(-d),
                (UnOp::Neg, Value::Null) => Value::Null,
                (UnOp::Neg, other) => return Err(format!("cannot negate {other}")),
                (UnOp::IsNull, v) => Value::Bool(matches!(v, Value::Null)),
                (UnOp::IsNotNull, v) => Value::Bool(!matches!(v, Value::Null)),
            },
            Expr::Func { func: Func::Coalesce, args } => {
                for a in args {
                    let v = self.eval(a, group)?;
                    if !matches!(v, Value::Null) {
                        return Ok(v);
                    }
                }
                Value::Null
            }
            Expr::Agg { func, arg, distinct } => {
                let (q, rows) = group.ok_or("an aggregate outside a Grouping box")?;
                let mut values = Vec::with_capacity(rows.len());
                for row in rows {
                    let v = match arg {
                        None => Value::Int(1),
                        Some(a) => self.with(q, row.clone(), |me| me.eval(a, None))?,
                    };
                    if !matches!(v, Value::Null) {
                        values.push(v);
                    }
                }
                let values = if *distinct {
                    dedup(values, same)
                } else {
                    values
                };
                aggregate(*func, values)?
            }
        })
    }
}

/// A Grouping's quantifier and the rows of the group being folded.
type Group<'g> = Option<(QuantId, &'g [Row])>;

/// The conjunction of `preds`, in three-valued logic.
fn all_true(me: &mut Interp<'_>, preds: &[&Expr]) -> Outcome<Option<bool>> {
    let mut holds = Some(true);
    for p in preds {
        holds = and3(holds, me.truth(p)?);
    }
    Ok(holds)
}

// ---- SQL semantics, value by value ----------------------------------------------

fn truth_of(v: &Value) -> Outcome<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(format!("predicate evaluated to {other}")),
    }
}

fn from_truth(t: Option<bool>) -> Value {
    t.map_or(Value::Null, Value::Bool)
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    and3(a.map(|x| !x), b.map(|x| !x)).map(|x| !x)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// Is `v` a number with its sign bit set (`-0.0` included)?
fn negative(v: &Value) -> bool {
    number(v).is_some_and(f64::is_sign_negative)
}

/// SQL comparison: `None` when either side is NULL or NaN.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    let unknown = |v: &Value| matches!(v, Value::Null) || number(v).is_some_and(f64::is_nan);
    (!unknown(a) && !unknown(b)).then(|| canonical_cmp(a, b))
}

/// The engine's value identity (`IS NOT DISTINCT FROM`, grouping,
/// DISTINCT): equal in [`canonical_cmp`], and `-0.0` apart from `0.0`.
fn same(a: &Value, b: &Value) -> bool {
    canonical_cmp(a, b).is_eq() && negative(a) == negative(b)
}

fn same_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

/// `items` without the ones `same` as an earlier one.
fn dedup<T>(items: Vec<T>, same: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for x in items {
        if !out.iter().any(|o| same(o, &x)) {
            out.push(x);
        }
    }
    out
}

fn distinct(rows: Vec<Row>) -> Vec<Row> {
    dedup(rows, |a, b| same_values(&a.0, &b.0))
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Outcome<Value> {
    let holds = |o: Ordering| match op {
        BinOp::Eq => o.is_eq(),
        BinOp::Ne => o.is_ne(),
        BinOp::Lt => o.is_lt(),
        BinOp::Le => o.is_le(),
        BinOp::Gt => o.is_gt(),
        _ => o.is_ge(),
    };
    Ok(match op {
        BinOp::NullEq => Value::Bool(same(l, r)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r)?,
        BinOp::And | BinOp::Or => unreachable!("evaluated with short circuits"),
        _ => from_truth(compare(l, r).map(holds)),
    })
}

/// `+ - * /`: NULL in, NULL out; two Ints stay an Int (overflow is an
/// error), except a quotient that is not exact; anything else is a Double.
/// Division by zero is an error.
fn arith(op: BinOp, l: &Value, r: &Value) -> Outcome<Value> {
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    if let (Value::Int(x), Value::Int(y)) = (l, r) {
        let (x, y) = (*x, *y);
        let exact = match op {
            BinOp::Add => x.checked_add(y),
            BinOp::Sub => x.checked_sub(y),
            BinOp::Mul => x.checked_mul(y),
            _ if y == 0 => return Err("integer division by zero".into()),
            _ if x % y == 0 => Some(x / y),
            _ => return Ok(Value::Double(x as f64 / y as f64)),
        };
        return exact
            .map(Value::Int)
            .ok_or(format!("integer overflow in {op}"));
    }
    let (Some(x), Some(y)) = (number(l), number(r)) else {
        return Err(format!("{l} {op} {r} is not arithmetic"));
    };
    Ok(Value::Double(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        _ if y == 0.0 => return Err("division by zero".into()),
        _ => x / y,
    }))
}

/// An aggregate over its non-NULL arguments, in input order. MIN and MAX
/// order by value, NaN above every number and `-0.0` below `0.0`.
fn aggregate(func: AggFunc, values: Vec<Value>) -> Outcome<Value> {
    let rank = |a: &Value, b: &Value| canonical_cmp(a, b).then(negative(b).cmp(&negative(a)));
    let n = values.len();
    let sum = || {
        values
            .iter()
            .skip(1)
            .try_fold(values[0].clone(), |acc, v| arith(BinOp::Add, &acc, v))
    };
    Ok(match func {
        AggFunc::Count => Value::Int(n as i64),
        _ if n == 0 => Value::Null,
        AggFunc::Sum => sum()?,
        AggFunc::Avg => Value::Double(number(&sum()?).ok_or("AVG over a non-number")? / n as f64),
        AggFunc::Min => values.into_iter().min_by(rank).unwrap_or(Value::Null),
        AggFunc::Max => values.into_iter().max_by(rank).unwrap_or(Value::Null),
    })
}

// ---- comparing results -------------------------------------------------------------

/// The order results are sorted in for comparison: NULL, then booleans,
/// then numbers by value (NaN last, `-0.0` equal to `0.0`), then strings.
pub fn canonical_cmp(a: &Value, b: &Value) -> Ordering {
    let class = |v: &Value| match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Double(_) => 2,
        Value::Str(_) => 3,
    };
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_ref().cmp(y.as_ref()),
        _ => match (number(a), number(b)) {
            (Some(x), Some(y)) => (x.is_nan(), x)
                .partial_cmp(&(y.is_nan(), y))
                .unwrap_or(Ordering::Equal),
            _ => class(a).cmp(&class(b)),
        },
    }
}

/// [`canonical_cmp`] over rows, column by column.
pub fn canonical_row_cmp(a: &Row, b: &Row) -> Ordering {
    let by_value = a.0.iter().zip(&b.0).map(|(x, y)| canonical_cmp(x, y));
    let first_difference = by_value.fold(Ordering::Equal, Ordering::then);
    first_difference.then(a.0.len().cmp(&b.0.len()))
}

/// Do `a` and `b` hold the same rows, as multisets?
pub fn same_multiset(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len() && minus(a, b).is_empty()
}

/// The multiset difference `a − b`, in canonical order.
pub fn minus(a: &[Row], b: &[Row]) -> Vec<Row> {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_by(canonical_row_cmp);
    b.sort_by(canonical_row_cmp);
    let mut b = b.iter().peekable();
    let mut out = Vec::new();
    for r in a {
        while b.next_if(|x| canonical_row_cmp(x, &r).is_lt()).is_some() {}
        if b.next_if(|x| canonical_row_cmp(x, &r).is_eq()).is_none() {
            out.push(r);
        }
    }
    out
}
