//! The hand-written EMP/DEPT queries of Section 2, one corpus file each
//! under `tests/corpus/equivalence`: every strategy, at every tier ×
//! budget point, returns the reference interpreter's rows, and each file's
//! own expectations (strategies that refuse, Kim's COUNT bug, nested
//! iteration's invocations) hold. The checks are `tests/oracle/mod.rs`'s.

mod oracle;

oracle::corpus_tests!("equivalence":
    paper_example_magic_fixes_count_bug_kim_reproduces_it,
    min_aggregate_all_strategies_agree,
    avg_with_projection_shell,
    duplicates_in_correlation_column,
    union_subquery_only_magic_applies,
    multi_level_correlation_equivalence,
    two_subqueries_in_one_block,
    correlated_exists_with_knob,
    not_exists_decorrelates_via_count_desugaring,
    optmag_on_key_correlation,
    lateral_derived_table_equivalence,
    non_equality_correlation_still_works_under_magic,
    uncorrelated_subquery_unchanged_by_every_strategy,
    empty_outer_table,
    empty_inner_table,
);
