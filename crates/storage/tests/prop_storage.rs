//! Property tests for the storage layer: an index lookup must return
//! exactly the rows a full scan would, under any data distribution.

use decorr_common::{DataType, Row, Schema, Value};
use decorr_storage::Table;
use proptest::prelude::*;

/// Rows matching `value` on `col` via index; `None` if no usable index.
fn index_lookup<'t>(t: &'t Table, col: usize, value: &Value) -> Option<&'t [usize]> {
    t.index_on(&[col])
        .map(|i| i.lookup(std::slice::from_ref(value)))
}

fn rows() -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    prop::collection::vec(
        (prop::option::weighted(0.85, -5i64..5), any::<i64>()),
        0..200,
    )
}

fn build(data: &[(Option<i64>, i64)]) -> Table {
    let mut t = Table::new(
        "t",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    for (k, v) in data {
        t.insert(Row::new(vec![
            k.map(Value::Int).unwrap_or(Value::Null),
            Value::Int(*v),
        ]))
        .unwrap();
    }
    t
}

proptest! {
    #[test]
    fn index_lookup_equals_scan(data in rows(), probe in -6i64..6) {
        let mut t = build(&data);
        t.create_index(&["k"]).unwrap();
        let key = Value::Int(probe);
        let via_index: Vec<&Row> = index_lookup(&t, 0, &key)
            .unwrap()
            .iter()
            .map(|&p| &t.rows()[p])
            .collect();
        let via_scan: Vec<&Row> = t
            .rows()
            .iter()
            .filter(|r| r[0].sql_eq(&key) == Some(true))
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn null_keys_never_match(data in rows()) {
        let mut t = build(&data);
        t.create_index(&["k"]).unwrap();
        prop_assert!(index_lookup(&t, 0, &Value::Null).unwrap().is_empty());
    }

    #[test]
    fn incremental_index_equals_bulk_index(data in rows()) {
        // Index created before the inserts must equal one created after.
        let mut incremental = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        incremental.create_index(&["k"]).unwrap();
        for (k, v) in &data {
            incremental
                .insert(Row::new(vec![
                    k.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(*v),
                ]))
                .unwrap();
        }
        let mut bulk = build(&data);
        bulk.create_index(&["k"]).unwrap();
        for probe in -6i64..6 {
            let key = Value::Int(probe);
            prop_assert_eq!(
                index_lookup(&incremental, 0, &key).unwrap(),
                index_lookup(&bulk, 0, &key).unwrap()
            );
        }
    }
}
