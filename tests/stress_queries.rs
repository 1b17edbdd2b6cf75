//! The stress corpus (`tests/corpus/stress`): multiple subqueries per
//! block, subqueries inside derived tables, three-level nesting,
//! non-equality correlations, DISTINCT blocks, IN / NOT IN and arithmetic
//! over bindings, over one 30 × 80-row EMP/DEPT. Each lane must return the
//! reference interpreter's rows at every tier × budget point.

mod oracle;

use decorr::prelude::Strategy;
use oracle::Lane;

fn corpus(lanes: &[Lane]) {
    oracle::sweep(lanes).check_corpus("stress");
}

#[test]
fn corpus_magic_equals_nested_iteration() {
    corpus(&[
        Lane::AsBound,
        Lane::Is(Strategy::NestedIteration),
        Lane::Is(Strategy::Magic),
    ]);
}

#[test]
fn corpus_optmag_equals_nested_iteration() {
    corpus(&[Lane::Is(Strategy::OptMag)]);
}

#[test]
fn corpus_survives_chooser() {
    corpus(&[Lane::Auto]);
}

/// EXISTS / IN / ALL decorrelated too (the parallel-system setting of
/// Section 4.4).
#[test]
fn corpus_with_quantified_knob() {
    corpus(&[Lane::MagicQuantified]);
}
