//! Property tests: segment files are an exact, loss-free encoding.
//!
//! The round trip deliberately leans on the values that are easy to get
//! subtly wrong on disk: NULL-heavy columns (RLE), -0.0 and NaN payloads
//! (doubles travel as raw IEEE bits), low-cardinality strings (dictionary
//! pages) next to arbitrary unicode, and ints both tiny (bit-packed) and
//! full-range. Zone-map pruning is checked as a pure I/O optimization:
//! filtering the pruned scan must equal filtering the full scan, for every
//! operator and literal. The page codec is held to the same standard one
//! level down: a page decodes straight into a typed column, bit for bit,
//! and the pool is charged what that column really holds.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decorr_common::columnar::ColumnData;
use decorr_common::segcodec::{decode_column_page, encode_column_page};
use decorr_common::{CmpOp, DataType, Row, Schema, Value};
use decorr_storage::{
    write_segment, BufferPool, PageData, PageIo, PagedBacking, SegmentReader, Table,
};
use proptest::prelude::*;

static SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_seg() -> std::path::PathBuf {
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("decorr-segrt-{}-{n}.seg", std::process::id()))
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("d", DataType::Double),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ])
}

/// Bit-exact value equality: same variant, and doubles compared by their
/// IEEE bit pattern (so -0.0 vs 0.0 and NaN payloads are distinguished).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.values().len() == rb.values().len()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(x, y)| same_value(x, y))
        })
}

fn int_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
    ]
}

fn double_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Double(-0.0)),
        Just(Value::Double(0.0)),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        // A NaN with a random payload: doubles are stored as raw bits, so
        // the exact payload must survive the trip.
        any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b | 0x7ff8_0000_0000_0000))),
        any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
    ]
}

fn str_val() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        // A low-cardinality pool drives the dictionary encoding.
        (0usize..4).prop_map(|i| Value::str(["red", "green", "blue", ""][i])),
        "[a-z]{0,6}".prop_map(Value::str),
        Just(Value::str("naïve 🚀 with\nnewline\tand tab")),
    ]
}

fn bool_val() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)]
}

/// One column page's worth of values: each typed generator on its own,
/// `Int`s widening into a `DOUBLE` column, and pages without a value.
fn page_values() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        prop::collection::vec(int_val(), 0..300),
        prop::collection::vec(double_val(), 0..300),
        prop::collection::vec(str_val(), 0..300),
        prop::collection::vec(bool_val(), 0..300),
        prop::collection::vec(prop_oneof![int_val(), double_val()], 0..300),
        (0usize..300).prop_map(|n| vec![Value::Null; n]),
    ]
}

/// The representation a page of `values` must decode into: the typed
/// vector when the non-NULL values share one type (`Int` when there are
/// none), verbatim values only for a real mix.
fn expected_variant(values: &[Value]) -> &'static str {
    let mut kinds: Vec<&'static str> = values
        .iter()
        .filter_map(|v| match v {
            Value::Null => None,
            Value::Int(_) => Some("Int"),
            Value::Double(_) => Some("Double"),
            Value::Bool(_) => Some("Bool"),
            Value::Str(_) => Some("Str"),
        })
        .collect();
    kinds.dedup();
    match kinds[..] {
        [] => "Int",
        [one] => one,
        _ => "Mixed",
    }
}

/// The heap a decoded column holds, counted from the outside: its value
/// slots, one null bit per row, and each distinct string once.
fn heap_bytes_by_hand(data: &ColumnData, values: &[Value]) -> usize {
    let strings = |vals: &[Value], dedup: bool| -> usize {
        let mut seen: Vec<&str> = Vec::new();
        let mut bytes = 0;
        for v in vals {
            if let Value::Str(s) = v {
                if !dedup || !seen.contains(&&**s) {
                    seen.push(s);
                    bytes += 32 + s.len();
                }
            }
        }
        bytes
    };
    let slots = match data {
        ColumnData::Int(v) => v.len() * 8,
        ColumnData::Double(v) => v.len() * 8,
        ColumnData::Bool(v) => v.len(),
        ColumnData::Str { codes, .. } => codes.len() * 4 + strings(values, true),
        ColumnData::Mixed(v) => v.len() * 24 + strings(values, false),
    };
    slots + values.len().div_ceil(64) * 8
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((int_val(), double_val(), str_val(), bool_val()), 0..250).prop_map(
        |tuples| {
            tuples
                .into_iter()
                .map(|(i, d, s, b)| Row::new(vec![i, d, s, b]))
                .collect()
        },
    )
}

/// Write `rows` as a segment and reopen it as a paged table.
fn paged(rows: &[Row], page_rows: usize) -> (Table, std::path::PathBuf) {
    let path = tmp_seg();
    let env = decorr_common::RealEnv;
    write_segment(&env, &path, "t", &schema(), None, rows, page_rows).unwrap();
    let seg = Arc::new(SegmentReader::open(&env, &path).unwrap());
    let pool = BufferPool::new(1 << 20);
    let t = Table::paged(PagedBacking::new(seg, pool, "t.seg".into()));
    (t, path)
}

/// Row-level semantics of one `col op literal` bound, mirroring the
/// executor's predicate evaluation: `NullEq` is null-safe total-order
/// equality, everything else is three-valued (`NULL`/NaN never match).
fn row_matches(v: &Value, op: CmpOp, lit: &Value) -> bool {
    if op == CmpOp::NullEq {
        return match (v.is_null(), lit.is_null()) {
            (true, true) => true,
            (false, false) => v.total_cmp(lit) == CmpOrdering::Equal,
            _ => false,
        };
    }
    match v.sql_cmp(lit) {
        None => false,
        Some(o) => match op {
            CmpOp::Eq => o == CmpOrdering::Equal,
            CmpOp::Ne => o != CmpOrdering::Equal,
            CmpOp::Lt => o == CmpOrdering::Less,
            CmpOp::Le => o != CmpOrdering::Greater,
            CmpOp::Gt => o == CmpOrdering::Greater,
            CmpOp::Ge => o != CmpOrdering::Less,
            CmpOp::NullEq => unreachable!("handled above"),
        },
    }
}

const OPS: [CmpOp; 7] = [
    CmpOp::Eq,
    CmpOp::NullEq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn segment_round_trip_is_bit_exact(data in rows(), page_rows in 1usize..40) {
        let (t, path) = paged(&data, page_rows);
        prop_assert_eq!(t.len(), data.len());
        let mut io = PageIo::default();
        let back = t.read_rows(&mut io).unwrap().into_owned();
        prop_assert!(same_rows(&back, &data), "decoded rows differ from written rows");
        // A second scan is served from the pool, not the disk.
        let mut io2 = PageIo::default();
        let again = t.read_rows(&mut io2).unwrap().into_owned();
        prop_assert!(same_rows(&again, &data));
        prop_assert_eq!(io2.misses, 0, "warm scan must not fault");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn typed_decode_is_bit_exact_and_honestly_sized(values in page_values()) {
        let bytes = encode_column_page(&values);
        let col = decode_column_page(&bytes).unwrap();
        prop_assert_eq!(col.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert!(same_value(&col.value_at(i), v), "row {}: {:?} vs {:?}", i, col.value_at(i), v);
        }
        let variant = match col.data() {
            ColumnData::Int(_) => "Int",
            ColumnData::Double(_) => "Double",
            ColumnData::Bool(_) => "Bool",
            ColumnData::Str { .. } => "Str",
            ColumnData::Mixed(_) => "Mixed",
        };
        prop_assert_eq!(variant, expected_variant(&values));

        // The pool's charge against the heap counted by hand: within 2x
        // either way (past the fixed 32-byte frame overhead).
        let by_hand = heap_bytes_by_hand(col.data(), &values);
        let charged = PageData::Col(col).approx_bytes() - 32;
        prop_assert!(
            charged <= 2 * by_hand && by_hand <= 2 * charged,
            "{} rows of {}: charged {} for {} bytes", values.len(), variant, charged, by_hand
        );

        // Corruption stays a typed error (or, for a flip the format cannot
        // see, some other column): never a panic, never an abort.
        for cut in 0..bytes.len() {
            prop_assert!(decode_column_page(&bytes[..cut]).is_err(), "truncated at {}", cut);
        }
        for at in 0..bytes.len().min(48) {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let _ = decode_column_page(&flipped);
            }
        }
    }

    #[test]
    fn zone_pruning_never_changes_filtered_results(
        data in rows(),
        page_rows in 1usize..16,
        op_i in 0usize..7,
        int_lit in int_val(),
        op_s in 0usize..7,
        str_lit in str_val(),
    ) {
        let (t, path) = paged(&data, page_rows);
        let bounds = vec![(0, OPS[op_i], int_lit), (2, OPS[op_s], str_lit)];
        // What a pruned scan reads: every row of every stripe the zone
        // maps cannot refute.
        let mut io = PageIo::default();
        let stripes = t.stripes().unwrap();
        let mut survivors = Vec::new();
        for page in (0..stripes.count()).filter(|&p| stripes.may_match(p, &bounds)) {
            let rows = 0..stripes.rows(page) as u32;
            stripes
                .open(page)
                .gather(rows, &[0, 1, 2, 3], &mut survivors, &mut io)
                .unwrap();
        }
        let filter = |rows: &[Row]| -> Vec<Row> {
            rows.iter()
                .filter(|r| bounds.iter().all(|(c, op, lit)| row_matches(&r[*c], *op, lit)))
                .cloned()
                .collect()
        };
        let via_pruned = filter(&survivors);
        let mut io_full = PageIo::default();
        let via_full = filter(&t.read_rows(&mut io_full).unwrap());
        prop_assert!(
            same_rows(&via_pruned, &via_full),
            "pruning changed the result: {} vs {} rows", via_pruned.len(), via_full.len()
        );
        let _ = std::fs::remove_file(path);
    }
}

/// A directed case on top of the properties: an all-NULL column and a
/// constant column land on their cheapest encodings and still round-trip.
#[test]
fn null_heavy_and_constant_columns_round_trip() {
    let data: Vec<Row> = (0..10_000)
        .map(|i| {
            Row::new(vec![
                Value::Int(7),
                Value::Null,
                if i % 2 == 0 {
                    Value::str("tick")
                } else {
                    Value::str("tock")
                },
                Value::Null,
            ])
        })
        .collect();
    let (t, path) = paged(&data, 4096);
    let mut io = PageIo::default();
    let back = t.read_rows(&mut io).unwrap().into_owned();
    assert!(same_rows(&back, &data));
    // RLE + dict: the file must be far smaller than the naive encoding.
    let bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        bytes < 20_000,
        "constant/dict columns should compress: {bytes} bytes"
    );
    let _ = std::fs::remove_file(path);
}
