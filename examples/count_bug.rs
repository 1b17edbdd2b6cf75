//! The COUNT bug, live (paper Section 2).
//!
//! Kim's method \[Kim82\] converts the aggregate subquery into a grouped
//! table expression joined back in the outer block — and silently loses
//! every outer row whose group is empty: those departments sit in
//! buildings with zero employees, their correlated COUNT(*) is 0, and a
//! grouped table expression can never produce that value. Dayal's
//! outer-join method and magic decorrelation (left outer join +
//! COALESCE(count, 0), the BugRemoval box) return nested iteration's rows.
//!
//! The same demonstration as `harness countbug`:
//!
//! ```text
//! cargo run --example count_bug
//! ```

fn main() -> decorr::prelude::Result<()> {
    print!("{}", decorr::figures::count_bug_table()?);
    Ok(())
}
