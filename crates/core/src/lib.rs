//! Query decorrelation rewrites — the paper's primary contribution.
//!
//! This crate implements **magic decorrelation** ([`magic`]) — the
//! top-down, box-at-a-time FEED/ABSORB rewrite of Sections 2.1 and 4 — and
//! the three baseline algorithms the paper compares against:
//!
//! * [`baselines::kim`] — Kim's method \[Kim82\]: converts an aggregate
//!   subquery into a GROUP BY table expression joined in the outer block.
//!   Implemented as published, including the **COUNT bug** it suffers from.
//! * [`baselines::dayal`] — Dayal's method \[Day87\]: merges the blocks
//!   with a left outer-join and groups the result.
//! * [`baselines::ganski`] — Ganski/Wong \[GW87\]: the special case of
//!   magic decorrelation for a single-table outer block.
//!
//! Supporting rewrite rules ([`rules`]) — SPJ box merging and redundant-box
//! elimination — are the "existing rewrite rules" the paper leans on to
//! simplify the graphs magic decorrelation produces (merging the CI box
//! into its parent, removing identity DCO boxes).
//!
//! Every rewrite leaves the graph consistent (checked by
//! `decorr_qgm::validate` in this crate's tests after each rule
//! application), preserving the incremental, interruptible character of
//! Starburst query rewrite that the paper emphasizes.

pub mod baselines;
pub mod fingerprint;
pub mod magic;
pub mod rules;
pub mod trace;

pub use fingerprint::{canonical_form, digest, fingerprint, shared_subplan_marks, SubplanMark};
pub use magic::{
    magic_decorrelate, magic_decorrelate_traced, MagicOptions, MagicReport, SuppScope,
};
pub use trace::{RewriteStep, RewriteTrace};

use decorr_common::Result;
use decorr_qgm::{print, Qgm};

/// The evaluation strategies compared in the paper's Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Execute the correlated graph directly (System R nested iteration).
    NestedIteration,
    /// Kim's method (may change results — the COUNT bug).
    Kim,
    /// Dayal's outer-join method.
    Dayal,
    /// Ganski/Wong's method.
    GanskiWong,
    /// Magic decorrelation ("Mag" in the figures).
    Magic,
    /// Magic decorrelation with the supplementary-table common
    /// subexpression eliminated when the correlation attributes form a key
    /// ("OptMag" in Figure 8).
    OptMag,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::NestedIteration => "NI",
            Strategy::Kim => "Kim",
            Strategy::Dayal => "Dayal",
            Strategy::GanskiWong => "Ganski",
            Strategy::Magic => "Mag",
            Strategy::OptMag => "OptMag",
        }
    }

    /// All strategies, in the order the paper's figures list them.
    pub fn all() -> [Strategy; 6] {
        [
            Strategy::NestedIteration,
            Strategy::Kim,
            Strategy::Dayal,
            Strategy::GanskiWong,
            Strategy::Magic,
            Strategy::OptMag,
        ]
    }
}

/// Rewrite a (cloned) graph according to the strategy, then run the
/// decorrelation-unrelated Starburst rules ([`rules::optimize`]) — the
/// paper: "All Starburst query transformations that were unrelated to
/// decorrelation were applied to all queries; i.e. we compared the
/// 'optimal' versions of each rewritten query." Errors with
/// [`decorr_common::Error::Rewrite`] when the strategy does not apply
/// (e.g. Kim/Dayal on the non-linear Query 3).
pub fn apply_strategy(qgm: &Qgm, strategy: Strategy) -> Result<Qgm> {
    rewrite(qgm, strategy, None)
}

/// [`apply_strategy`] with a [`RewriteTrace`] of every rewrite step.
///
/// Magic/OptMag record each FEED/ABSORB/repair/merge individually; the
/// baseline rewrites (which are single whole-graph transformations) record
/// one step each, with full before/after snapshots. The final
/// [`rules::optimize`] pass is recorded as one summarizing step.
pub fn apply_strategy_traced(qgm: &Qgm, strategy: Strategy) -> Result<(Qgm, RewriteTrace)> {
    let mut trace = RewriteTrace::new();
    let g = rewrite(qgm, strategy, Some(&mut trace))?;
    Ok((g, trace))
}

/// The one strategy dispatch behind both entry points: the same rewrite,
/// the same refusals, and with a `trace` the steps recorded.
fn rewrite(qgm: &Qgm, strategy: Strategy, mut trace: Option<&mut RewriteTrace>) -> Result<Qgm> {
    // Dayal and Ganski/Wong refuse on the borrowed graph: a race lane that
    // does not apply clones nothing.
    let dayal = match strategy {
        Strategy::Dayal => Some(baselines::dayal::check(qgm)?),
        Strategy::GanskiWong => {
            baselines::ganski::check(qgm)?;
            None
        }
        _ => None,
    };
    let mut g = qgm.clone();
    // A baseline is one whole-graph step.
    let baseline = matches!(
        strategy,
        Strategy::Kim | Strategy::Dayal | Strategy::GanskiWong
    );
    let before = (baseline && trace.is_some()).then(|| print::render(&g));
    match strategy {
        Strategy::NestedIteration => {}
        Strategy::Kim => baselines::kim::rewrite(&mut g)?,
        Strategy::Dayal | Strategy::GanskiWong => match dayal {
            Some(pat) => baselines::dayal::rewrite_checked(&mut g, pat)?,
            None => baselines::ganski::rewrite_checked(&mut g)?,
        },
        Strategy::Magic | Strategy::OptMag => {
            let opts = MagicOptions {
                eliminate_supp_cse: strategy == Strategy::OptMag,
                ..Default::default()
            };
            magic::magic_decorrelate_inner(&mut g, &opts, trace.as_deref_mut())?;
        }
    }
    if let (Some(trace), Some(before)) = (trace.as_deref_mut(), before) {
        trace.record(RewriteStep {
            rule: strategy.name().into(),
            target: g.top(),
            created: vec![],
            mutated: vec![g.top()],
            before,
            after: print::render(&g),
            note: "baseline whole-graph rewrite".into(),
        });
    }
    let before = trace.is_some().then(|| print::render(&g));
    let rep = rules::optimize(&mut g);
    if let (Some(trace), Some(before)) = (trace, before) {
        if rep != rules::OptimizeReport::default() {
            trace.record(RewriteStep {
                rule: "optimize".into(),
                target: g.top(),
                created: vec![],
                mutated: vec![],
                before,
                after: print::render(&g),
                note: format!(
                    "{} merges, {} bypasses, {} predicates pushed, {} columns pruned",
                    rep.merges, rep.bypasses, rep.pushed_predicates, rep.pruned_columns
                ),
            });
        }
    }
    Ok(g)
}
