//! Section 6: why decorrelation is *crucial* on shared-nothing clusters.
//!
//! Nested iteration broadcasts every correlation binding to every node —
//! fragments grow as bindings × n and every binding costs 2(n−1) messages —
//! while the decorrelated plan repartitions once on the correlation
//! attribute, then runs one fragment per node completely locally.
//!
//! The same demonstration as `harness parallel --nodes 2,4,8,16`:
//!
//! ```text
//! cargo run --release --example parallel_speedup
//! ```

fn main() -> decorr::prelude::Result<()> {
    print!("{}", decorr::figures::parallel_table(&[2, 4, 8, 16], 42)?);
    Ok(())
}
