//! Parallel nested iteration (paper Section 6.1).
//!
//! "For each qualifying Dept tuple at each node, the building attribute is
//! sent to all nodes. Each processor computes a local count and returns it
//! to the requesting node. ... nested iteration can result in O(n²)
//! computation fragments."

use std::time::Instant;

use decorr_common::{Error, FaultPlane, Result, Row, Value, WorkerPool};
use decorr_core::baselines::match_agg_subquery;
use decorr_exec::{Env, ExecOptions, Executor, Layout};
use decorr_qgm::{AggFunc, BoxKind, Expr, Qgm, QuantKind};

use crate::cluster::Cluster;
use crate::stats::ParallelStats;

/// Execute a correlated aggregate query over the cluster with nested
/// iteration: every node iterates its outer partition and broadcasts each
/// correlation binding to all nodes.
///
/// Supports the linear shape of the paper's running example: a single
/// outer base table and one correlated scalar aggregate subquery
/// (COUNT / SUM / MIN / MAX — AVG partials do not compose).
pub fn run_nested_iteration(cluster: &Cluster, qgm: &Qgm) -> Result<(Vec<Row>, ParallelStats)> {
    run_nested_iteration_with(cluster, qgm, None)
}

/// [`run_nested_iteration`] under fault injection: every subquery fragment
/// is driven through [`Cluster::run_recoverable`], so injected node crashes
/// and transient errors are retried (and failed over to replicas when the
/// cluster has them). With faults active the per-node fan-out runs
/// serially, keeping the fault plane's per-node job counters — and therefore
/// the whole run — reproducible from the seed alone.
pub fn run_nested_iteration_with(
    cluster: &Cluster,
    qgm: &Qgm,
    faults: Option<&FaultPlane>,
) -> Result<(Vec<Row>, ParallelStats)> {
    let pat = match_agg_subquery(qgm)?;
    if pat.cur != qgm.top() {
        return Err(Error::rewrite(
            "parallel nested iteration expects the correlated block on top",
        ));
    }
    if pat.pass.is_some() {
        return Err(Error::rewrite(
            "projection-wrapped aggregates do not compose across nodes",
        ));
    }
    let cur = qgm.boxref(pat.cur);
    let outer: Vec<_> = cur
        .quants
        .iter()
        .copied()
        .filter(|&x| qgm.quant(x).kind == QuantKind::Foreach)
        .collect();
    if outer.len() != 1 {
        return Err(Error::rewrite(
            "parallel nested iteration expects a single-table outer block",
        ));
    }
    let oq = outer[0];
    let outer_input = qgm.quant(oq).input;
    let BoxKind::BaseTable { table: outer_table, schema, .. } = &qgm.boxref(outer_input).kind
    else {
        return Err(Error::rewrite("outer block must range over a base table"));
    };
    let outer_arity = schema.arity();

    let agg_func = match &qgm.boxref(pat.grouping).outputs[0].expr {
        Expr::Agg { func, .. } => *func,
        _ => return Err(Error::internal("aggregate box without aggregate output")),
    };
    if agg_func == AggFunc::Avg {
        return Err(Error::rewrite("AVG partials do not compose across nodes"));
    }

    // Split the outer block's predicates.
    let outer_preds: Vec<Expr> = cur
        .preds
        .iter()
        .filter(|p| !p.references(pat.q))
        .cloned()
        .collect();
    let scalar_preds: Vec<Expr> = cur
        .preds
        .iter()
        .filter(|p| p.references(pat.q))
        .cloned()
        .collect();

    // Pre-instantiate the subquery template (top re-pointed at the
    // aggregate box); per binding we substitute the correlation columns
    // with literals.
    let subquery_child = qgm.quant(pat.q).input;

    let n = cluster.nodes();
    let started = Instant::now();

    struct NodeOut {
        rows: Vec<Row>,
        messages: u64,
        fragments: u64,
        invocations: u64,
        /// Work this job charged to *each* node: node i's outer loop runs a
        /// subquery fragment on every node j, so the vector is dense. Jobs
        /// return their own vector (no shared mutable state); the caller
        /// sums them element-wise in job order.
        work: Vec<u64>,
    }

    // One fan-out job per node on the worker pool. Under fault injection
    // the pool is serial: the fault plane hands out events from per-node job
    // counters, and a deterministic replay needs those counters consumed in
    // one fixed order.
    let pat = &pat;
    let pool = WorkerPool::new(if faults.is_some() { 1 } else { n });
    let results: Vec<Result<NodeOut>> = pool.run_indexed(n, |i| {
        let mut out = NodeOut {
            rows: Vec::new(),
            messages: 0,
            fragments: 0,
            invocations: 0,
            work: vec![0; n],
        };
        let local = cluster.node(i);
        let table = local.table(outer_table)?;

        // Layout of a candidate row: the outer columns plus the
        // combined subquery value appended at the end.
        let mut layout = Layout::new();
        layout.push(oq, outer_arity);
        let mut ext_layout = layout.clone();
        ext_layout.push(pat.q, 1);

        'rows: for row in table.rows() {
            {
                let env = Env::new(&layout, row, None);
                for p in &outer_preds {
                    if !decorr_exec::eval::qualifies(p, &env)? {
                        continue 'rows;
                    }
                }
            }
            // Broadcast the bindings: every node runs a local
            // subquery fragment.
            out.invocations += 1;
            let bound = instantiate_subquery(qgm, subquery_child, &pat.corr, row);
            let mut combined: Value = agg_func.empty_value();
            for j in 0..n {
                out.fragments += 1;
                if j != i {
                    out.messages += 2; // request + partial result
                }
                let ((partial_rows, work), outcome) = cluster.run_recoverable(j, faults, |db| {
                    let mut ex = Executor::new(db, ExecOptions::default());
                    let rows = ex.run(&bound)?;
                    Ok((rows, ex.stats().total_work()))
                })?;
                out.work[outcome.served_by] += work;
                let partial = partial_rows
                    .first()
                    .map(|r| r[0].clone())
                    .unwrap_or(Value::Null);
                combined = combine(agg_func, combined, partial)?;
            }

            // Evaluate the comparison and the projection.
            let mut ext = row.clone();
            ext.0.push(combined);
            let env = Env::new(&ext_layout, &ext, None);
            for p in &scalar_preds {
                if !decorr_exec::eval::qualifies(p, &env)? {
                    continue 'rows;
                }
            }
            let mut projected = Row(Vec::new());
            for o in &qgm.boxref(pat.cur).outputs {
                projected
                    .0
                    .push(decorr_exec::eval::eval_expr(&o.expr, &env)?);
            }
            out.rows.push(projected);
        }
        Ok(out)
    });

    let mut rows = Vec::new();
    let mut stats = ParallelStats { nodes: n, per_node_work: vec![0; n], ..Default::default() };
    for r in results {
        let r = r?;
        for (total, w) in stats.per_node_work.iter_mut().zip(&r.work) {
            *total += w;
        }
        stats.per_node_rows.push(r.rows.len() as u64);
        rows.extend(r.rows);
        stats.messages += r.messages;
        stats.fragments += r.fragments;
        stats.subquery_invocations += r.invocations;
    }
    stats.absorb_faults(faults);
    stats.elapsed = started.elapsed();
    stats.result_rows = rows.len();
    Ok((rows, stats))
}

/// Clone the subquery with the correlation columns replaced by this
/// candidate row's values, ready to run standalone on any node.
fn instantiate_subquery(
    qgm: &Qgm,
    child: decorr_qgm::BoxId,
    corr: &[(usize, Expr, (decorr_qgm::QuantId, usize))],
    row: &Row,
) -> Qgm {
    let mut g = qgm.clone();
    for b in g.reachable_boxes(child) {
        g.boxmut(b).for_each_expr_mut(|e| {
            for (_, _, (oq, oc)) in corr {
                let v = row[*oc].clone();
                e.substitute(*oq, &mut |col| {
                    if col == *oc {
                        Expr::Lit(v.clone())
                    } else {
                        Expr::col(*oq, col)
                    }
                });
            }
        });
    }
    g.set_top(child);
    g
}

/// Fold a node's partial aggregate into the running value.
fn combine(func: AggFunc, acc: Value, partial: Value) -> Result<Value> {
    if partial.is_null() {
        return Ok(acc);
    }
    if acc.is_null() {
        return Ok(partial);
    }
    Ok(match func {
        AggFunc::Count | AggFunc::Sum => acc.add(&partial)?,
        AggFunc::Min => {
            if partial < acc {
                partial
            } else {
                acc
            }
        }
        AggFunc::Max => {
            if partial > acc {
                partial
            } else {
                acc
            }
        }
        // Rejected before the fan-out starts; fail closed if it slips by.
        AggFunc::Avg => return Err(Error::internal("AVG partials do not compose across nodes")),
    })
}
