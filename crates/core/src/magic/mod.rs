//! Magic decorrelation — the top-down rewrite driver.
//!
//! "The magic decorrelation rewrite rule is applied to the QGM in a
//! top-down fashion, transforming one box at a time. Whenever the rewrite
//! rule is applied to a box, its ancestors in the QGM have already been
//! processed." (Section 4.)
//!
//! The driver walks the graph from the top box. At each Select box it runs
//! the FEED stage ([`feed`]) for every correlated child quantifier in
//! iterator order; each FEED immediately ABSORBs ([`absorb`]) when the
//! child's encapsulator allows it, and leaves a consistent, partially
//! decorrelated graph otherwise. Finally the standard block-merge rules run
//! (merging CI boxes into their parents, removing identity DCO shells).

pub mod absorb;
pub mod encapsulator;
pub mod feed;

pub use encapsulator::{absorbability, analyze_uses, Absorbability, UseAnalysis};
pub use feed::FeedOutcome;

use decorr_common::{FxHashSet, Result};
use decorr_qgm::{BoxId, BoxKind, Qgm, QuantId, Traversal};

use crate::rules;
use crate::trace::RewriteTrace;

/// Which of the current box's Foreach quantifiers form the supplementary
/// table of a FEED.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuppScope {
    /// All Foreach quantifiers ahead of the subquery — the computation of
    /// the whole outer block, as in the paper's running example and its
    /// Query 1 measurements ("the supplementary table ... is the join of
    /// three relations").
    #[default]
    AllForeach,
    /// Only the quantifiers the correlation actually references — the
    /// placement the paper's optimizer chose for Query 2 (the subquery
    /// before the join between Parts and Lineitem).
    MinimalBinding,
}

/// Knobs of the magic decorrelation algorithm (the paper's Section 4.4:
/// "these decisions on whether and how to decorrelate act as knobs").
#[derive(Debug, Clone, Copy)]
pub struct MagicOptions {
    pub supp_scope: SuppScope,
    /// Eliminate the supplementary-table common subexpression when the
    /// correlation attributes form a key of the supplementary table
    /// ("OptMag", Section 5.1). Implies binding-minimal supplementary
    /// scope.
    pub eliminate_supp_cse: bool,
    /// Decorrelate existential/universal subqueries (EXISTS / IN / ANY /
    /// ALL), accepting the residual CI boxes. Off by default, as in systems
    /// without indexes on temporaries (Section 4.4).
    pub decorrelate_quantified: bool,
    /// Move outer-block predicates into the supplementary table (`true`,
    /// restricting the bindings — magic decorrelation proper). `false`
    /// reproduces Ganski/Wong's weaker temporary relation projected from
    /// the raw outer table.
    pub move_preds: bool,
    /// Run the block-merge / identity-removal cleanup afterwards.
    pub cleanup: bool,
}

impl Default for MagicOptions {
    fn default() -> Self {
        MagicOptions {
            supp_scope: SuppScope::AllForeach,
            eliminate_supp_cse: false,
            decorrelate_quantified: false,
            move_preds: true,
            cleanup: true,
        }
    }
}

/// What a decorrelation run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MagicReport {
    /// FEED stages executed (correlated children decoupled).
    pub feeds: usize,
    /// Children that fully absorbed their bindings.
    pub absorbs: usize,
    /// Children left partially decorrelated (NM boxes).
    pub partial: usize,
    /// DCO boxes converted to LOJ + COALESCE (COUNT-bug repairs).
    pub loj_repairs: usize,
    /// Scalar quantifiers converted to ordinary joins.
    pub scalar_to_join: usize,
    /// Supplementary-table common subexpressions eliminated (OptMag).
    pub supp_cse_eliminated: usize,
    /// Boxes merged/bypassed by the cleanup rules.
    pub cleanup_merges: usize,
}

impl MagicReport {
    /// Did the rewrite change the graph at all?
    pub fn changed(&self) -> bool {
        self.feeds > 0
    }
}

/// Apply magic decorrelation to the whole graph in place.
pub fn magic_decorrelate(qgm: &mut Qgm, opts: &MagicOptions) -> Result<MagicReport> {
    magic_decorrelate_inner(qgm, opts, None)
}

/// [`magic_decorrelate`] with a [`RewriteTrace`] logging every FEED,
/// ABSORB, LOJ repair, OptMag CSE elimination and cleanup merge with
/// before/after QGM snapshots.
pub fn magic_decorrelate_traced(
    qgm: &mut Qgm,
    opts: &MagicOptions,
) -> Result<(MagicReport, RewriteTrace)> {
    let mut trace = RewriteTrace::new();
    let rep = magic_decorrelate_inner(qgm, opts, Some(&mut trace))?;
    Ok((rep, trace))
}

pub(crate) fn magic_decorrelate_inner(
    qgm: &mut Qgm,
    opts: &MagicOptions,
    mut trace: Option<&mut RewriteTrace>,
) -> Result<MagicReport> {
    let mut opts = *opts;
    if opts.eliminate_supp_cse {
        // OptMag targets the minimal binding prefix (the magic table *is*
        // the supplementary table).
        opts.supp_scope = SuppScope::MinimalBinding;
    }
    let mut rep = MagicReport::default();
    let mut visited: FxHashSet<BoxId> = FxHashSet::default();
    let mut fed: FxHashSet<QuantId> = FxHashSet::default();
    process(
        qgm,
        qgm.top(),
        &opts,
        &mut rep,
        &mut visited,
        &mut fed,
        trace.as_deref_mut(),
    )?;
    if opts.cleanup {
        let (m, b) = rules::cleanup_traced(qgm, trace);
        rep.cleanup_merges = m + b;
    }
    qgm.gc();
    Ok(rep)
}

#[allow(clippy::too_many_arguments)]
fn process(
    qgm: &mut Qgm,
    cur: BoxId,
    opts: &MagicOptions,
    rep: &mut MagicReport,
    visited: &mut FxHashSet<BoxId>,
    fed: &mut FxHashSet<QuantId>,
    mut trace: Option<&mut RewriteTrace>,
) -> Result<()> {
    if !visited.insert(cur) {
        return Ok(());
    }

    if matches!(qgm.boxref(cur).kind, BoxKind::Select) {
        // FEED each correlated child in iterator order. Every successful
        // FEED restructures the box, so re-analyze after each one; one that
        // does not apply leaves the graph, and the analysis, as they were.
        loop {
            let candidates: Vec<_> = {
                let tr = Traversal::new(qgm);
                qgm.boxref(cur)
                    .quants
                    .iter()
                    .filter_map(|&q| {
                        let child = qgm.quant(q).input;
                        // Shared children are materialization points; leave
                        // them alone.
                        let feedable = !fed.contains(&q)
                            && tr.is_correlated(child)
                            && tr.consumers(child) == 1;
                        feedable.then(|| (q, tr.free_refs(child).collect()))
                    })
                    .collect()
            };
            let mut progressed = false;
            for (q, corr) in candidates {
                match feed::feed_and_absorb(qgm, cur, q, corr, opts, rep, trace.as_deref_mut())? {
                    FeedOutcome::NotApplicable => {}
                    FeedOutcome::Partial(dco_child_quant) => {
                        fed.insert(q);
                        fed.insert(dco_child_quant);
                        progressed = true;
                        break;
                    }
                    FeedOutcome::Full => {
                        fed.insert(q);
                        progressed = true;
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    // Recurse into (the possibly rewritten set of) children.
    let children: Vec<BoxId> = qgm
        .boxref(cur)
        .quants
        .iter()
        .map(|&q| qgm.quant(q).input)
        .collect();
    for c in children {
        process(qgm, c, opts, rep, visited, fed, trace.as_deref_mut())?;
    }
    Ok(())
}
