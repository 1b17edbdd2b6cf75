//! Supporting rewrite rules.
//!
//! Starburst's rewrite engine applies many independent rules; magic
//! decorrelation relies on two of them to simplify its output (the paper:
//! "the redundant CI box is removed (by other rewrite rules)", "it is
//! possible to merge the CI box into the CurBox converting the correlation
//! predicate into an equi-join predicate — this is done by existing rewrite
//! rules that merge query blocks").

pub mod merge;
pub mod prune;
pub mod pushdown;

pub use merge::{
    bypass_identity_selects, bypass_one_identity_select, cleanup, cleanup_traced,
    merge_one_select_child, merge_select_children,
};
pub use prune::prune_outputs;
pub use pushdown::push_down_predicates;

use decorr_qgm::Qgm;

/// The full "unrelated Starburst transformations" pipeline the paper
/// applies to every strategy: block merging, identity removal, predicate
/// pushdown and projection pruning, to fixpoint.
pub fn optimize(qgm: &mut Qgm) -> OptimizeReport {
    let mut rep = OptimizeReport::default();
    // Each rule runs to its own fixpoint, so the rules take turns until all
    // three have run in a row without a change (a changing one is the 1st).
    let mut quiet = 0;
    for rule in (0..3).cycle() {
        let (m, b, p, d) = match rule {
            0 => {
                let (m, b) = merge::cleanup(qgm);
                (m, b, 0, 0)
            }
            1 => (0, 0, pushdown::push_down_predicates(qgm), 0),
            _ => (0, 0, 0, prune::prune_outputs(qgm)),
        };
        rep.merges += m;
        rep.bypasses += b;
        rep.pushed_predicates += p;
        rep.pruned_columns += d;
        quiet = if m + b + p + d == 0 { quiet + 1 } else { 1 };
        if quiet == 3 {
            break;
        }
    }
    qgm.gc();
    rep
}

/// What [`optimize`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    pub merges: usize,
    pub bypasses: usize,
    pub pushed_predicates: usize,
    pub pruned_columns: usize,
}
