//! The paper's query template, `D.num_emps cmp (SELECT agg FROM emp E
//! WHERE E.building = D.building)` with or without `D.budget < 10000`, as
//! the bounded space enumerates it, in seeded random EMP/DEPT worlds:
//! every strategy returns the reference interpreter's rows (Kim's method
//! losing only empty-group rows, and only on COUNT), magic decorrelation
//! leaves no correlation behind. The checks are `tests/oracle/mod.rs`'s.

mod oracle;

use decorr::prelude::Strategy::{Dayal, Kim, Magic, OptMag};
use oracle::space::Query;
use oracle::Lane::{self, Is};

const MAG: [Lane; 2] = [Is(Magic), Is(OptMag)];
const KIM: [Lane; 1] = [Is(Kim)];

oracle::fuzz_tests! {
    magic_equals_nested_iteration: MAG, 0.1, false, Query::template;
    dayal_equals_nested_iteration: [Is(Dayal)], 0.1, false, Query::template;
    kim_equals_ni_for_null_yielding_aggregates: KIM, 0.1, false, |q| q.template() && !q.counts();
    kim_on_count_loses_only_empty_group_rows: KIM, 0.1, false, |q| q.template() && q.counts();
    null_heavy_correlation_bindings_agree: MAG, 0.5, false, Query::template;
    count_aggregates_keep_empty_groups: MAG, 0.5, false, |q| q.template() && q.counts();
    mixed_int_double_correlation_keys_agree: MAG, 0.1, true, Query::template;
    decorrelated_graph_has_no_residual_correlation: [Is(Magic)], 0.1, false, Query::template;
}
