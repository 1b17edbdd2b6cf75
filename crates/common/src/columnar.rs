//! Columnar batches and vectorized kernels.
//!
//! The paper's argument is that decorrelation turns tuple-at-a-time nested
//! iteration into *set-oriented* evaluation; this module gives those sets a
//! set-oriented representation. A [`ColumnarBatch`] stores a batch of rows
//! transposed into typed [`Column`]s — `Int`/`Double`/`Bool` vectors, a
//! dictionary-encoded `Str` column with an interning pool, and a `Mixed`
//! fallback for the dynamically typed residue — each with a null bitmap.
//! Kernels then work a column at a time:
//!
//! * [`filter_kernel`] — evaluate one predicate over a selection vector,
//!   with fast paths for `Col cmp Lit` and `Col cmp Col`;
//! * [`hash_kernel`] — bulk `eq_key`-consistent hashing of join/DISTINCT
//!   keys (NULL/NaN excluded, `-0.0` folded for `=` keys; raw total-order
//!   semantics for `IS NOT DISTINCT FROM` keys);
//! * [`ColumnarBatch::gather`] / [`ColumnarBatch::project`] — materialize
//!   selected (projected) rows back at operator boundaries;
//! * [`count_kernel`] / [`sum_kernel`] / [`min_kernel`] / [`max_kernel`] —
//!   vectorized aggregate accumulation.
//!
//! Every kernel replicates the scalar semantics in [`crate::value`]
//! *exactly* — same three-valued comparisons, same NaN/-0.0 handling, same
//! overflow errors, same fold order for non-associative float sums — so the
//! executor's columnar path produces byte-identical rows and identical
//! `ExecStats` to its row-wise twin.

use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::hash::{FxHashMap, FxHasher};
use crate::row::{Row, RowBatch};
use crate::schema::Schema;
use crate::value::Value;

/// A selection vector: indices of surviving rows, in ascending order.
pub type SelVec = Vec<u32>;

// ---------------------------------------------------------------------------
// Null bitmap
// ---------------------------------------------------------------------------

/// A bitmap with one bit per row; a set bit marks the row NULL.
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    any: bool,
}

impl NullBitmap {
    /// An all-valid bitmap for `len` rows.
    pub fn new(len: usize) -> Self {
        NullBitmap { words: vec![0; len.div_ceil(64)], len, any: false }
    }

    /// The bitmap a column page stores: one byte per eight rows, bit
    /// `i & 7` of byte `i >> 3` set for a NULL row `i`. Bits past `len`
    /// are ignored.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(b);
        }
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1u64 << (len % 64)) - 1;
        }
        let any = words.iter().any(|&w| w != 0);
        NullBitmap { words, len, any }
    }

    /// Mark row `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
        self.any = true;
    }

    /// Append one row.
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if null {
            self.set_null(self.len - 1);
        }
    }

    /// Append `n` valid rows.
    pub fn push_valid(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.any && (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Does any row hold NULL?
    pub fn any_null(&self) -> bool {
        self.any
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------------
// String interning pool
// ---------------------------------------------------------------------------

/// Dictionary for a [`Column::Str`]: interns each distinct string once and
/// hands out dense `u32` codes. (A pool decoded from a stored page takes
/// the page's dictionary as it is, so kernels decide per dictionary entry
/// and never assume that equal strings share a code.)
#[derive(Debug, Clone, Default)]
pub struct StrPool {
    strings: Vec<Arc<str>>,
    index: FxHashMap<Arc<str>, u32>,
}

impl StrPool {
    /// A read-only pool over a page's stored dictionary: code `i` is
    /// `strings[i]`. No interning index is built — a decoded page is only
    /// ever read by code — so a page of distinct strings costs its strings
    /// and nothing more.
    pub fn from_dictionary(strings: Vec<Arc<str>>) -> Self {
        StrPool { strings, index: FxHashMap::default() }
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        debug_assert_eq!(self.index.len(), self.strings.len(), "pool has no index");
        if let Some(&c) = self.index.get(s.as_ref()) {
            return c;
        }
        let c = self.strings.len() as u32;
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), c);
        c
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------------

/// The typed storage behind a [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null values are `Int`.
    Int(Vec<i64>),
    /// All non-null values are `Double`.
    Double(Vec<f64>),
    /// All non-null values are `Bool`.
    Bool(Vec<bool>),
    /// All non-null values are strings, dictionary-encoded against `pool`.
    Str {
        /// Per-row dictionary codes (undefined where the null bit is set).
        codes: Vec<u32>,
        /// The interning pool the codes index into.
        pool: StrPool,
    },
    /// Dynamically typed fallback (e.g. a column mixing `Int` and `Double`
    /// mid-pipeline). Values are stored verbatim so reconstruction is exact.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of value slots (one per row, NULL rows included).
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column of a [`ColumnarBatch`]: typed data plus a null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: NullBitmap,
}

/// A borrowed view of one value in a column — the kernels' working currency.
/// Mirrors [`Value`] without owning (string views borrow the pool).
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Double.
    Double(f64),
    /// String slice borrowed from the column's pool (or a literal).
    Str(&'a str),
}

impl<'a> ValRef<'a> {
    /// View a [`Value`] without cloning.
    pub fn of(v: &'a Value) -> ValRef<'a> {
        match v {
            Value::Null => ValRef::Null,
            Value::Bool(b) => ValRef::Bool(*b),
            Value::Int(i) => ValRef::Int(*i),
            Value::Double(d) => ValRef::Double(*d),
            Value::Str(s) => ValRef::Str(s),
        }
    }

    /// Is this the NULL view?
    pub fn is_null(self) -> bool {
        matches!(self, ValRef::Null)
    }

    /// Three-valued SQL comparison — exactly [`Value::sql_cmp`].
    pub fn sql_cmp(self, other: ValRef<'_>) -> Option<Ordering> {
        use ValRef::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Double(b)) => (a as f64).partial_cmp(&b),
            (Double(a), Int(b)) => a.partial_cmp(&(b as f64)),
            (Double(a), Double(b)) => a.partial_cmp(&b),
            (a, b) => Some(a.total_cmp(b)),
        }
    }

    /// Total order — exactly [`Value::total_cmp`].
    pub fn total_cmp(self, other: ValRef<'_>) -> Ordering {
        use ValRef::*;
        fn class(v: ValRef<'_>) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Double(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Int(a), Double(b)) => (a as f64).total_cmp(&b),
            (Double(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Double(a), Double(b)) => a.total_cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// Standalone Fx hash of this value, consistent with `Value`'s
    /// `Hash`/`Eq` pair (total-order semantics: NULLs hash alike, numerics
    /// hash as f64 bits so `Int(1)` and `Double(1.0)` collide on purpose).
    pub fn fx_hash(self) -> u64 {
        let mut h = FxHasher::default();
        match self {
            ValRef::Null => h.write_u8(0),
            ValRef::Bool(b) => {
                h.write_u8(1);
                h.write_u8(b as u8);
            }
            ValRef::Int(i) => {
                h.write_u8(2);
                h.write_u64((i as f64).to_bits());
            }
            ValRef::Double(d) => {
                h.write_u8(2);
                h.write_u64(d.to_bits());
            }
            ValRef::Str(s) => {
                h.write_u8(3);
                h.write(s.as_bytes());
            }
        }
        h.finish()
    }

    /// Standalone hash of this value as an SQL `=` key: `None` for values
    /// an equality can never select (NULL, NaN), `-0.0` folded to `0.0` —
    /// exactly the normalization of [`Value::eq_key`].
    pub fn eq_key_hash(self) -> Option<u64> {
        match self {
            ValRef::Null => None,
            ValRef::Double(d) if d.is_nan() => None,
            // Fold -0.0 onto 0.0 so the two equal zeros share a hash.
            ValRef::Double(d) => Some(ValRef::Double(if d == 0.0 { 0.0 } else { d }).fx_hash()),
            v => Some(v.fx_hash()),
        }
    }

    /// Clone into an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValRef::Null => Value::Null,
            ValRef::Bool(b) => Value::Bool(b),
            ValRef::Int(i) => Value::Int(i),
            ValRef::Double(d) => Value::Double(d),
            ValRef::Str(s) => Value::str(s),
        }
    }
}

impl Column {
    /// Build a column from one value per row, sniffing the narrowest
    /// representation: a typed vector when all non-null values share one
    /// runtime type, the `Mixed` fallback otherwise (so reconstruction
    /// stays exact even for columns mixing `Int` and `Double`).
    pub fn from_values<'a, I>(values: I, len: usize) -> Column
    where
        I: Iterator<Item = &'a Value> + Clone,
    {
        #[derive(PartialEq, Clone, Copy)]
        enum Sniff {
            Empty,
            Int,
            Double,
            Bool,
            Str,
            Mixed,
        }
        let mut sniff = Sniff::Empty;
        for v in values.clone() {
            let t = match v {
                Value::Null => continue,
                Value::Int(_) => Sniff::Int,
                Value::Double(_) => Sniff::Double,
                Value::Bool(_) => Sniff::Bool,
                Value::Str(_) => Sniff::Str,
            };
            if sniff == Sniff::Empty {
                sniff = t;
            } else if sniff != t {
                sniff = Sniff::Mixed;
                break;
            }
        }
        let mut nulls = NullBitmap::new(len);
        let data = match sniff {
            Sniff::Empty | Sniff::Int => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.enumerate() {
                    match v {
                        Value::Int(x) => out.push(*x),
                        _ => {
                            nulls.set_null(i);
                            out.push(0);
                        }
                    }
                }
                ColumnData::Int(out)
            }
            Sniff::Double => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.enumerate() {
                    match v {
                        Value::Double(x) => out.push(*x),
                        _ => {
                            nulls.set_null(i);
                            out.push(0.0);
                        }
                    }
                }
                ColumnData::Double(out)
            }
            Sniff::Bool => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.enumerate() {
                    match v {
                        Value::Bool(x) => out.push(*x),
                        _ => {
                            nulls.set_null(i);
                            out.push(false);
                        }
                    }
                }
                ColumnData::Bool(out)
            }
            Sniff::Str => {
                let mut pool = StrPool::default();
                let mut codes = Vec::with_capacity(len);
                for (i, v) in values.enumerate() {
                    match v {
                        Value::Str(s) => codes.push(pool.intern(s)),
                        _ => {
                            nulls.set_null(i);
                            codes.push(0);
                        }
                    }
                }
                ColumnData::Str { codes, pool }
            }
            Sniff::Mixed => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.enumerate() {
                    if v.is_null() {
                        nulls.set_null(i);
                    }
                    out.push(v.clone());
                }
                ColumnData::Mixed(out)
            }
        };
        Column { data, nulls }
    }

    /// Assemble a column from typed storage and its null bitmap (the page
    /// decoder's constructor). `data` holds one slot per row, NULL rows
    /// included; what a NULL row's slot holds is never read.
    pub fn from_parts(data: ColumnData, nulls: NullBitmap) -> Column {
        debug_assert_eq!(data.len(), nulls.len());
        Column { data, nulls }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// True when the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes behind the column: its value slots, null bitmap and
    /// dictionary. Strings count their bytes plus the `Arc` header.
    pub fn heap_bytes(&self) -> usize {
        const ARC_HEADER: usize = 16;
        let str_bytes = |s: &Arc<str>| std::mem::size_of::<Arc<str>>() + ARC_HEADER + s.len();
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Double(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str { codes, pool } => {
                // An interning index, where there is one, holds a second
                // handle and the code per string.
                let indexed = pool.index.len() * (std::mem::size_of::<Arc<str>>() + 8);
                codes.len() * 4 + pool.strings.iter().map(str_bytes).sum::<usize>() + indexed
            }
            ColumnData::Mixed(v) => v
                .iter()
                .map(|v| {
                    std::mem::size_of::<Value>()
                        + match v {
                            Value::Str(s) => ARC_HEADER + s.len(),
                            _ => 0,
                        }
                })
                .sum(),
        };
        data + self.nulls.words.len() * 8
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Borrowed view of row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> ValRef<'_> {
        if self.nulls.is_null(i) {
            return ValRef::Null;
        }
        match &self.data {
            ColumnData::Int(v) => ValRef::Int(v[i]),
            ColumnData::Double(v) => ValRef::Double(v[i]),
            ColumnData::Bool(v) => ValRef::Bool(v[i]),
            ColumnData::Str { codes, pool } => ValRef::Str(pool.get(codes[i])),
            ColumnData::Mixed(v) => ValRef::of(&v[i]),
        }
    }

    /// Owned copy of row `i`. Strings come back as clones of the pool's
    /// `Arc`, so reconstruction is a refcount bump.
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str { codes, pool } => Value::Str(Arc::clone(pool.get(codes[i]))),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }
}

/// Copies selected rows of a sequence of column pages out into one
/// [`Column`], in push order — how a paged scan hands a join its key
/// column, or an aggregate its argument, without making rows.
///
/// The result stays a typed `Int`/`Double`/`Bool` vector while the pages
/// agree on one type (all-NULL stretches fit any) and falls back to
/// `Mixed` otherwise, strings included. Either way `value_at` of the
/// result is the pushed page's `value_at`, so every kernel computes from
/// it what it would from the gathered rows.
#[derive(Debug, Default)]
pub struct ColumnGather {
    /// `None` until a pushed row is not NULL.
    data: Option<ColumnData>,
    nulls: NullBitmap,
}

impl ColumnGather {
    /// An empty gather.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append rows `sel` of `page`.
    pub fn push(&mut self, page: &Column, sel: &[u32]) {
        let page_nulls = page.nulls.any_null();
        let all_null = page_nulls && sel.iter().all(|&i| page.is_null(i as usize));
        if !all_null {
            let fits = match (&self.data, &page.data) {
                (None, _) => {
                    let n = self.nulls.len();
                    self.data = Some(match &page.data {
                        ColumnData::Int(_) => ColumnData::Int(vec![0; n]),
                        ColumnData::Double(_) => ColumnData::Double(vec![0.0; n]),
                        ColumnData::Bool(_) => ColumnData::Bool(vec![false; n]),
                        _ => ColumnData::Mixed(vec![Value::Null; n]),
                    });
                    true
                }
                (Some(ColumnData::Int(_)), ColumnData::Int(_))
                | (Some(ColumnData::Double(_)), ColumnData::Double(_))
                | (Some(ColumnData::Bool(_)), ColumnData::Bool(_))
                | (Some(ColumnData::Mixed(_)), _) => true,
                _ => false,
            };
            if !fits {
                self.demote();
            }
        }
        let at = |i: &u32| *i as usize;
        match (&mut self.data, &page.data) {
            (None, _) => {}
            (Some(ColumnData::Mixed(out)), _) => {
                out.extend(sel.iter().map(|i| page.value_at(at(i))))
            }
            (Some(ColumnData::Int(out)), ColumnData::Int(v)) => {
                out.extend(sel.iter().map(|i| v[at(i)]))
            }
            (Some(ColumnData::Double(out)), ColumnData::Double(v)) => {
                out.extend(sel.iter().map(|i| v[at(i)]))
            }
            (Some(ColumnData::Bool(out)), ColumnData::Bool(v)) => {
                out.extend(sel.iter().map(|i| v[at(i)]))
            }
            // An all-NULL stretch of another type: the slots are never read.
            (Some(ColumnData::Int(out)), _) => out.resize(out.len() + sel.len(), 0),
            (Some(ColumnData::Double(out)), _) => out.resize(out.len() + sel.len(), 0.0),
            (Some(ColumnData::Bool(out)), _) => out.resize(out.len() + sel.len(), false),
            (Some(ColumnData::Str { .. }), _) => unreachable!("strings gather as Mixed"),
        }
        if page_nulls {
            for &i in sel {
                self.nulls.push(page.is_null(i as usize));
            }
        } else {
            self.nulls.push_valid(sel.len());
        }
    }

    /// Re-house what was gathered so far as verbatim values.
    fn demote(&mut self) {
        let nulls = &self.nulls;
        fn lift<T: Copy>(v: &[T], nulls: &NullBitmap, wrap: impl Fn(T) -> Value) -> Vec<Value> {
            v.iter()
                .enumerate()
                .map(|(i, &x)| {
                    if nulls.is_null(i) {
                        Value::Null
                    } else {
                        wrap(x)
                    }
                })
                .collect()
        }
        let values = match self.data.take() {
            Some(ColumnData::Int(v)) => lift(&v, nulls, Value::Int),
            Some(ColumnData::Double(v)) => lift(&v, nulls, Value::Double),
            Some(ColumnData::Bool(v)) => lift(&v, nulls, Value::Bool),
            Some(ColumnData::Mixed(v)) => v,
            Some(ColumnData::Str { .. }) => unreachable!("strings gather as Mixed"),
            None => vec![Value::Null; nulls.len()],
        };
        self.data = Some(ColumnData::Mixed(values));
    }

    /// The gathered column (an all-NULL `Int` column when no pushed row
    /// held a value, like [`Column::from_values`]).
    pub fn finish(self) -> Column {
        let data = self
            .data
            .unwrap_or_else(|| ColumnData::Int(vec![0; self.nulls.len()]));
        Column { data, nulls: self.nulls }
    }
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// A batch of rows stored column-wise: an optional schema, one [`Column`]
/// per attribute, and an optional selection vector naming the surviving
/// rows (absent means "all rows").
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    schema: Option<Schema>,
    columns: Vec<Column>,
    len: usize,
    sel: Option<SelVec>,
}

impl ColumnarBatch {
    /// Transpose a slice of rows. All rows must share the first row's arity.
    pub fn from_rows(rows: &[Row]) -> ColumnarBatch {
        let len = rows.len();
        let width = rows.first().map_or(0, Row::arity);
        let columns = (0..width)
            .map(|c| Column::from_values(rows.iter().map(move |r| &r[c]), len))
            .collect();
        ColumnarBatch { schema: None, columns, len, sel: None }
    }

    /// Transpose a shared [`RowBatch`].
    pub fn from_row_batch(rows: &RowBatch) -> ColumnarBatch {
        ColumnarBatch::from_rows(&rows[..])
    }

    /// Assemble a batch from already-built columns (all of length `len`).
    /// This is how the executor builds *narrow* batches holding only the
    /// columns a compiled predicate actually reads, skipping the transpose
    /// (and string-interning) cost of untouched attributes.
    pub fn from_columns(columns: Vec<Column>, len: usize) -> ColumnarBatch {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnarBatch { schema: None, columns, len, sel: None }
    }

    /// Attach the relation schema (known for base-table scans).
    pub fn with_schema(mut self, schema: Schema) -> ColumnarBatch {
        self.schema = Some(schema);
        self
    }

    /// Restrict the batch to `sel` (kept for shipping a filtered batch
    /// without materializing; [`ColumnarBatch::to_rows`] honors it).
    pub fn with_selection(mut self, sel: SelVec) -> ColumnarBatch {
        self.sel = Some(sel);
        self
    }

    /// The attached schema, if any.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// The current selection vector, if any.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Number of physical rows (ignoring any selection).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds zero physical rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// The identity selection (all physical rows).
    pub fn all(&self) -> SelVec {
        (0..self.len as u32).collect()
    }

    /// Materialize rows: the selected ones when a selection is attached,
    /// all rows otherwise. Round-trips [`ColumnarBatch::from_rows`] exactly
    /// (NaN payloads, signed zeros and `Int`/`Double` width included).
    pub fn to_rows(&self) -> Vec<Row> {
        match &self.sel {
            Some(sel) => self.gather(sel),
            None => (0..self.len)
                .map(|i| Row(self.columns.iter().map(|c| c.value_at(i)).collect()))
                .collect(),
        }
    }

    /// Materialize into a shared [`RowBatch`].
    pub fn to_row_batch(&self) -> RowBatch {
        self.to_rows().into()
    }

    /// Materialize the rows named by `sel`, in order.
    pub fn gather(&self, sel: &[u32]) -> Vec<Row> {
        sel.iter()
            .map(|&i| {
                Row(self
                    .columns
                    .iter()
                    .map(|c| c.value_at(i as usize))
                    .collect())
            })
            .collect()
    }

    /// Materialize `cols` (in that order) of the rows named by `sel` —
    /// gather and project fused into one pass.
    pub fn project(&self, cols: &[usize], sel: &[u32]) -> Vec<Row> {
        sel.iter()
            .map(|&i| {
                Row(cols
                    .iter()
                    .map(|&c| self.columns[c].value_at(i as usize))
                    .collect())
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Filter kernel
// ---------------------------------------------------------------------------

/// A comparison operator, detached from the plan IR so the kernel layer has
/// no dependency on the query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// SQL `=` (three-valued: NULL/NaN never qualify).
    Eq,
    /// `IS NOT DISTINCT FROM` — total equality, NULL matches NULL.
    NullEq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// The mirror-image operator: `lit op col` ≡ `col op.flip() lit`.
    /// Sound because both `sql_cmp` and `total_cmp` are antisymmetric.
    #[inline]
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::NullEq | CmpOp::Ne => self,
        }
    }

    /// Does an ordering outcome satisfy this operator?
    #[inline]
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq | CmpOp::NullEq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A predicate the filter kernel can evaluate vectorized: a column against
/// a literal, or a column against a column (both in the same batch). More
/// general predicates stay on the row-wise path.
#[derive(Debug, Clone)]
pub enum ColPredicate {
    /// `column <op> literal` (literal-first comparisons are pre-flipped by
    /// the caller via the operator's mirror image).
    ColLit {
        /// Column index in the batch.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// The literal (or correlation-constant) right-hand side.
        lit: Value,
    },
    /// `column <op> column`.
    ColCol {
        /// Left column index.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right column index.
        right: usize,
    },
    /// `column IN (literals)` — an `OR` of `column = literal`: a row
    /// qualifies when one of the comparisons is true, so a NULL row, a NULL
    /// literal and NaN never make it qualify.
    In {
        /// Column index in the batch.
        col: usize,
        /// The literals (or correlation constants), duplicates allowed.
        lits: Vec<Value>,
    },
}

/// Evaluate `pred` over the rows named by `sel`, returning the surviving
/// selection (order preserved). Semantics match the row-wise evaluator
/// exactly: `=`,`<`,… use [`Value::sql_cmp`] three-valued comparison (NULL
/// and NaN comparisons never qualify), `IS NOT DISTINCT FROM` uses
/// [`Value::total_cmp`] (NULL matches NULL, `-0.0` ≠ `0.0`).
pub fn filter_kernel(batch: &ColumnarBatch, pred: &ColPredicate, sel: &[u32]) -> SelVec {
    filter_columns(&|c| batch.column(c), pred, sel)
}

/// [`filter_kernel`] over columns that live wherever `column` finds them
/// (a batch, or the pinned pages of one stripe of a stored table).
pub fn filter_columns<'a>(
    column: &dyn Fn(usize) -> &'a Column,
    pred: &ColPredicate,
    sel: &[u32],
) -> SelVec {
    match pred {
        ColPredicate::ColLit { col, op, lit } => filter_col_lit(column(*col), *op, lit, sel),
        ColPredicate::ColCol { left, op, right } => {
            filter_col_col(column(*left), *op, column(*right), sel)
        }
        ColPredicate::In { col, lits } => filter_in(column(*col), lits, sel),
    }
}

fn filter_in(col: &Column, lits: &[Value], sel: &[u32]) -> SelVec {
    if let ColumnData::Str { codes, pool } = &col.data {
        // Decide once per distinct string; only a string literal can equal one.
        let hit = |p: &Arc<str>| lits.iter().any(|l| matches!(l, Value::Str(s) if s == p));
        let verdict: Vec<bool> = pool.strings.iter().map(hit).collect();
        let keep = |&i: &u32| !col.is_null(i as usize) && verdict[codes[i as usize] as usize];
        return sel.iter().copied().filter(keep).collect();
    }
    let lits: Vec<ValRef<'_>> = lits.iter().map(ValRef::of).collect();
    let eq = |v: ValRef<'_>| lits.iter().any(|&l| v.sql_cmp(l) == Some(Ordering::Equal));
    sel.iter()
        .copied()
        .filter(|&i| eq(col.get(i as usize)))
        .collect()
}

fn filter_col_lit(col: &Column, op: CmpOp, lit: &Value, sel: &[u32]) -> SelVec {
    let mut out = Vec::with_capacity(sel.len());
    if op == CmpOp::NullEq {
        // Total equality, NULL matches NULL; no fast path needed beyond the
        // dictionary (decided once per distinct string) for strings.
        if let (ColumnData::Str { codes, pool }, Value::Str(s)) = (&col.data, lit) {
            let verdict: Vec<bool> = pool.strings.iter().map(|p| p == s).collect();
            for &i in sel {
                let i_us = i as usize;
                if !col.is_null(i_us) && verdict[codes[i_us] as usize] {
                    out.push(i);
                }
            }
            return out;
        }
        let lit = ValRef::of(lit);
        for &i in sel {
            if col.get(i as usize).total_cmp(lit) == Ordering::Equal {
                out.push(i);
            }
        }
        return out;
    }
    match (&col.data, lit) {
        // Fast path: Int column vs Int literal — plain machine compares.
        (ColumnData::Int(v), Value::Int(b)) => {
            for &i in sel {
                let i_us = i as usize;
                if !col.is_null(i_us) && op.matches(v[i_us].cmp(b)) {
                    out.push(i);
                }
            }
        }
        // Fast path: Int column vs Double literal (compare as f64, like
        // `sql_cmp`; a NaN literal qualifies nothing).
        (ColumnData::Int(v), Value::Double(b)) => {
            for &i in sel {
                let i_us = i as usize;
                if col.is_null(i_us) {
                    continue;
                }
                if let Some(ord) = (v[i_us] as f64).partial_cmp(b) {
                    if op.matches(ord) {
                        out.push(i);
                    }
                }
            }
        }
        // Fast path: Double column vs numeric literal (NaN rows and NaN
        // literals never qualify, `-0.0 = 0.0` holds — IEEE compare).
        (ColumnData::Double(v), Value::Int(_) | Value::Double(_)) => {
            let b = match lit {
                Value::Int(b) => *b as f64,
                Value::Double(b) => *b,
                _ => unreachable!(),
            };
            for &i in sel {
                let i_us = i as usize;
                if col.is_null(i_us) {
                    continue;
                }
                if let Some(ord) = v[i_us].partial_cmp(&b) {
                    if op.matches(ord) {
                        out.push(i);
                    }
                }
            }
        }
        // Fast path: dictionary strings — decide once per distinct string,
        // then the row loop is a table lookup on the code.
        (ColumnData::Str { codes, pool }, Value::Str(s)) => {
            let verdict: Vec<bool> = pool
                .strings
                .iter()
                .map(|p| op.matches(p.as_ref().cmp(s.as_ref())))
                .collect();
            for &i in sel {
                let i_us = i as usize;
                if !col.is_null(i_us) && verdict[codes[i_us] as usize] {
                    out.push(i);
                }
            }
        }
        // General path (Bool columns, cross-class comparisons falling back
        // to the total order, Mixed columns, NULL literals).
        _ => {
            let lit = ValRef::of(lit);
            for &i in sel {
                if let Some(ord) = col.get(i as usize).sql_cmp(lit) {
                    if op.matches(ord) {
                        out.push(i);
                    }
                }
            }
        }
    }
    out
}

fn filter_col_col(left: &Column, op: CmpOp, right: &Column, sel: &[u32]) -> SelVec {
    let mut out = Vec::with_capacity(sel.len());
    if op == CmpOp::NullEq {
        for &i in sel {
            let i_us = i as usize;
            if left.get(i_us).total_cmp(right.get(i_us)) == Ordering::Equal {
                out.push(i);
            }
        }
        return out;
    }
    match (&left.data, &right.data) {
        // Fast path: Int = Int (the common join/filter shape).
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            for &i in sel {
                let i_us = i as usize;
                if !left.is_null(i_us) && !right.is_null(i_us) && op.matches(a[i_us].cmp(&b[i_us]))
                {
                    out.push(i);
                }
            }
        }
        // Fast path: Double vs Double (NaN never qualifies).
        (ColumnData::Double(a), ColumnData::Double(b)) => {
            for &i in sel {
                let i_us = i as usize;
                if left.is_null(i_us) || right.is_null(i_us) {
                    continue;
                }
                if let Some(ord) = a[i_us].partial_cmp(&b[i_us]) {
                    if op.matches(ord) {
                        out.push(i);
                    }
                }
            }
        }
        _ => {
            for &i in sel {
                let i_us = i as usize;
                if let Some(ord) = left.get(i_us).sql_cmp(right.get(i_us)) {
                    if op.matches(ord) {
                        out.push(i);
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Hash kernel
// ---------------------------------------------------------------------------

/// One key part for [`hash_kernel`]: the column and whether NULL/NaN may
/// participate (`true` for `IS NOT DISTINCT FROM` and DISTINCT keys, which
/// hash with raw total-order semantics; `false` for `=` keys, which apply
/// [`Value::eq_key`] normalization and exclude the row entirely).
pub type HashKeyPart<'a> = (&'a Column, bool);

/// Bulk-hash composite keys over the rows named by `sel`. Returns one entry
/// per selected row: `None` when any `=`-key part is NULL or NaN (the row
/// can never match and must be skipped, exactly like the row-wise
/// `eq_key` path), otherwise a 64-bit hash such that keys equal under the
/// respective equality hash identically — including `Int(1)`/`Double(1.0)`
/// and `-0.0`/`0.0` on normalized parts.
pub fn hash_kernel(parts: &[HashKeyPart<'_>], sel: &[u32]) -> Vec<Option<u64>> {
    // Standalone part hashes are combined the way an `FxHasher` combines a
    // sequence of u64 writes. The Fx round alone leaves a small-integer
    // key's low 36 bits constant; it is `FxHasher::finish` that mixes, so
    // one-part and multi-part keys alike come out with every bit
    // key-dependent. Dictionary columns hash each distinct string once.
    let memo: Vec<Option<Vec<u64>>> = parts
        .iter()
        .map(|(col, _)| match &col.data {
            ColumnData::Str { pool, .. } => Some(
                pool.strings
                    .iter()
                    .map(|s| ValRef::Str(s).fx_hash())
                    .collect(),
            ),
            _ => None,
        })
        .collect();
    sel.iter()
        .map(|&i| {
            let i_us = i as usize;
            let mut h = FxHasher::default();
            for (p, (col, null_ok)) in parts.iter().enumerate() {
                let part = if *null_ok {
                    match (&memo[p], &col.data) {
                        (Some(codes_memo), ColumnData::Str { codes, .. }) if !col.is_null(i_us) => {
                            codes_memo[codes[i_us] as usize]
                        }
                        _ => col.get(i_us).fx_hash(),
                    }
                } else {
                    let part = match (&memo[p], &col.data) {
                        (Some(codes_memo), ColumnData::Str { codes, .. }) if !col.is_null(i_us) => {
                            Some(codes_memo[codes[i_us] as usize])
                        }
                        _ => col.get(i_us).eq_key_hash(),
                    };
                    match part {
                        Some(part) => part,
                        None => return None,
                    }
                };
                h.write_u64(part);
            }
            Some(h.finish())
        })
        .collect()
}

/// Row-major companion of [`hash_kernel`] for composite keys that already
/// live as value vectors (computed key expressions, pre-normalized `=`
/// parts): each part hashes exactly as a kernel key part would, and parts
/// combine through the same `FxHasher` `u64` writes — so a key hashed here
/// and an equal key hashed by [`hash_kernel`] land in the same bucket.
/// `None` entries (excluded rows) stay `None`.
pub fn hash_keys(keys: &[Option<Vec<Value>>]) -> Vec<Option<u64>> {
    keys.iter()
        .map(|k| {
            k.as_ref().map(|parts| {
                let mut h = FxHasher::default();
                for v in parts {
                    h.write_u64(ValRef::of(v).fx_hash());
                }
                h.finish()
            })
        })
        .collect()
}

/// Bulk-hash whole rows with total-order semantics (NULLs equal, numerics
/// as f64 bits) — the DISTINCT/magic-table dedup hash. Rows equal under
/// `Row`'s `Eq` always hash identically.
pub fn hash_rows(rows: &[Row]) -> Vec<u64> {
    rows.iter()
        .map(|r| {
            let mut h = FxHasher::default();
            for v in r.values() {
                h.write_u64(ValRef::of(v).fx_hash());
            }
            h.finish()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregate kernels
// ---------------------------------------------------------------------------

/// Vectorized `COUNT(col)`: the number of non-null values.
pub fn count_kernel(col: &Column) -> i64 {
    let n = col.len();
    if !col.nulls.any_null() {
        return n as i64;
    }
    (0..n).filter(|&i| !col.is_null(i)).count() as i64
}

/// Vectorized `SUM(col)`: fold non-null values **in row order** (float sums
/// are not associative; the serial row-wise accumulator's order is the
/// contract). Returns `Value::Null` on an all-NULL or empty column and the
/// same overflow/type errors the scalar `Value::add` would raise.
pub fn sum_kernel(col: &Column) -> Result<Value> {
    match &col.data {
        ColumnData::Int(v) => {
            let mut acc: Option<i64> = None;
            for (i, &x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                acc = Some(match acc {
                    None => x,
                    Some(a) => a
                        .checked_add(x)
                        .ok_or_else(|| Error::eval("integer overflow in +"))?,
                });
            }
            Ok(acc.map_or(Value::Null, Value::Int))
        }
        ColumnData::Double(v) => {
            let mut acc: Option<f64> = None;
            for (i, &x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                acc = Some(match acc {
                    None => x,
                    Some(a) => a + x,
                });
            }
            Ok(acc.map_or(Value::Null, Value::Double))
        }
        // Mixed (and mistyped Bool/Str) columns fold through `Value::add`
        // so promotion order and error messages match the scalar path.
        _ => {
            let mut acc = Value::Null;
            for i in 0..col.len() {
                let v = col.value_at(i);
                if v.is_null() {
                    continue;
                }
                acc = if acc.is_null() { v } else { acc.add(&v)? };
            }
            Ok(acc)
        }
    }
}

/// Vectorized `MIN(col)` under the total order (first minimal value wins
/// ties, matching the serial fold). `Value::Null` when no non-null value.
pub fn min_kernel(col: &Column) -> Value {
    fold_extreme(col, Ordering::Less)
}

/// Vectorized `MAX(col)` under the total order.
pub fn max_kernel(col: &Column) -> Value {
    fold_extreme(col, Ordering::Greater)
}

fn fold_extreme(col: &Column, want: Ordering) -> Value {
    match &col.data {
        ColumnData::Int(v) => {
            let mut best: Option<i64> = None;
            for (i, &x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                best = Some(match best {
                    None => x,
                    Some(b) if x.cmp(&b) == want => x,
                    Some(b) => b,
                });
            }
            best.map_or(Value::Null, Value::Int)
        }
        ColumnData::Double(v) => {
            // Total order over doubles (NaN sorts by bit pattern, -0.0 <
            // 0.0) — the same order `Value::total_cmp` uses.
            let mut best: Option<f64> = None;
            for (i, &x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                best = Some(match best {
                    None => x,
                    Some(b) if x.total_cmp(&b) == want => x,
                    Some(b) => b,
                });
            }
            best.map_or(Value::Null, Value::Double)
        }
        _ => {
            let mut best = Value::Null;
            for i in 0..col.len() {
                let v = col.value_at(i);
                if v.is_null() {
                    continue;
                }
                if best.is_null() || v.total_cmp(&best) == want {
                    best = v;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn vals(vs: &[Value]) -> Column {
        Column::from_values(vs.iter(), vs.len())
    }

    #[test]
    fn round_trip_exact() {
        let rows = vec![
            row![1, "a", 2.5, true],
            Row(vec![
                Value::Null,
                Value::str("a"),
                Value::Double(-0.0),
                Value::Null,
            ]),
            Row(vec![
                Value::Int(i64::MAX),
                Value::Null,
                Value::Double(f64::NAN),
                Value::Bool(false),
            ]),
        ];
        let batch = ColumnarBatch::from_rows(&rows);
        let back = batch.to_rows();
        assert_eq!(rows.len(), back.len());
        for (a, b) in rows.iter().zip(&back) {
            // `Value`'s Eq is the total order, which distinguishes -0.0
            // from 0.0 and compares NaNs by bit pattern — exact enough.
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mixed_width_column_preserved() {
        let rows = vec![row![1], row![2.5], Row(vec![Value::Null])];
        let batch = ColumnarBatch::from_rows(&rows);
        assert!(matches!(batch.column(0).data(), ColumnData::Mixed(_)));
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn dictionary_interns_duplicates() {
        let rows: Vec<Row> = ["x", "y", "x", "x"].iter().map(|s| row![*s]).collect();
        let batch = ColumnarBatch::from_rows(&rows);
        match batch.column(0).data() {
            ColumnData::Str { pool, .. } => assert_eq!(pool.len(), 2),
            other => panic!("expected dictionary column, got {other:?}"),
        }
        assert_eq!(batch.to_rows(), rows);
    }

    /// Reference filter: the row-wise evaluator's semantics, straight off
    /// `Value::sql_cmp` / `Value::total_cmp`.
    fn reference_filter(vs: &[Value], op: CmpOp, lit: &Value) -> Vec<u32> {
        vs.iter()
            .enumerate()
            .filter(|(_, v)| match op {
                CmpOp::NullEq => v.total_cmp(lit) == Ordering::Equal,
                _ => v.sql_cmp(lit).is_some_and(|o| op.matches(o)),
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn filter_matches_scalar_semantics() {
        let interesting = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(1.0),
            Value::Double(f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("a"),
            Value::str("b"),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::NullEq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        // Homogeneous typed columns and the full mixed column, against
        // every interesting literal and operator.
        let columns: Vec<Vec<Value>> = vec![
            vec![Value::Int(-1), Value::Null, Value::Int(3), Value::Int(0)],
            vec![
                Value::Double(-0.0),
                Value::Double(f64::NAN),
                Value::Null,
                Value::Double(2.0),
            ],
            vec![
                Value::str("a"),
                Value::str("b"),
                Value::Null,
                Value::str("a"),
            ],
            vec![
                Value::Bool(true),
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
            ],
            interesting.to_vec(),
        ];
        for vs in &columns {
            let batch_rows: Vec<Row> = vs.iter().map(|v| Row(vec![v.clone()])).collect();
            let batch = ColumnarBatch::from_rows(&batch_rows);
            let sel = batch.all();
            for lit in &interesting {
                for &op in &ops {
                    let got = filter_kernel(
                        &batch,
                        &ColPredicate::ColLit { col: 0, op, lit: lit.clone() },
                        &sel,
                    );
                    let want = reference_filter(vs, op, lit);
                    assert_eq!(got, want, "col {vs:?} {op:?} lit {lit}");
                    // Also through the col-col kernel with a constant column.
                    let wide: Vec<Row> = vs
                        .iter()
                        .map(|v| Row(vec![v.clone(), lit.clone()]))
                        .collect();
                    let wide_batch = ColumnarBatch::from_rows(&wide);
                    let got2 = filter_kernel(
                        &wide_batch,
                        &ColPredicate::ColCol { left: 0, op, right: 1 },
                        &wide_batch.all(),
                    );
                    assert_eq!(got2, want, "colcol {vs:?} {op:?} lit {lit}");
                }
            }
        }
    }

    #[test]
    fn hash_kernel_matches_eq_key_semantics() {
        // Values equal under `=` must hash identically; NULL/NaN excluded.
        let vs = [
            Value::Int(1),
            Value::Double(1.0),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Int(0),
            Value::Null,
            Value::Double(f64::NAN),
        ];
        let col = vals(&vs);
        let sel: Vec<u32> = (0..vs.len() as u32).collect();
        let hs = hash_kernel(&[(&col, false)], &sel);
        assert_eq!(hs[0], hs[1], "Int(1) and Double(1.0)");
        assert_eq!(hs[2], hs[3], "-0.0 and 0.0");
        assert_eq!(hs[3], hs[4], "Double(0.0) and Int(0)");
        assert_eq!(hs[5], None, "NULL excluded");
        assert_eq!(hs[6], None, "NaN excluded");

        // Raw (IS NOT DISTINCT FROM / DISTINCT) semantics: NULL hashes,
        // -0.0 and 0.0 stay distinct, NaN hashes by bit pattern.
        let raw = hash_kernel(&[(&col, true)], &sel);
        assert!(raw.iter().all(Option::is_some));
        assert_ne!(raw[2], raw[3], "-0.0 vs 0.0 raw");
        assert_eq!(raw[0], raw[1], "Int(1) vs Double(1.0) raw (total-equal)");
    }

    #[test]
    fn hash_rows_consistent_with_row_eq() {
        let a = row![1, "x"];
        let b = Row(vec![Value::Double(1.0), Value::str("x")]);
        assert_eq!(a, b);
        let hs = hash_rows(&[a, b]);
        assert_eq!(hs[0], hs[1]);
    }

    #[test]
    fn aggregate_kernels_match_serial_folds() {
        let vs = [
            Value::Null,
            Value::Int(3),
            Value::Int(-1),
            Value::Null,
            Value::Int(7),
        ];
        let col = vals(&vs);
        assert_eq!(count_kernel(&col), 3);
        assert_eq!(sum_kernel(&col).unwrap(), Value::Int(9));
        assert_eq!(min_kernel(&col), Value::Int(-1));
        assert_eq!(max_kernel(&col), Value::Int(7));

        let dv = [
            Value::Double(0.1),
            Value::Double(0.2),
            Value::Double(0.3),
            Value::Null,
        ];
        let dcol = vals(&dv);
        // Fold order is row order: (0.1 + 0.2) + 0.3, not any reassociation.
        assert_eq!(sum_kernel(&dcol).unwrap(), Value::Double((0.1 + 0.2) + 0.3));
        assert_eq!(min_kernel(&dcol), Value::Double(0.1));

        let empty = vals(&[Value::Null, Value::Null]);
        assert_eq!(count_kernel(&empty), 0);
        assert!(sum_kernel(&empty).unwrap().is_null());
        assert!(min_kernel(&empty).is_null());
        assert!(max_kernel(&empty).is_null());

        let overflow = vals(&[Value::Int(i64::MAX), Value::Int(1)]);
        assert!(sum_kernel(&overflow).is_err());
    }

    #[test]
    fn column_gather_copies_pages_out_exactly() {
        let ints = vals(&[Value::Int(1), Value::Null, Value::Int(3)]);
        let nulls = vals(&[Value::Null, Value::Null]);
        let doubles = vals(&[Value::Double(-0.0), Value::Double(f64::NAN)]);
        let strs = vals(&[Value::str("a"), Value::Null]);
        let gathered = |pages: &[(&Column, &[u32])]| {
            let mut g = ColumnGather::new();
            let mut want = Vec::new();
            for (page, sel) in pages {
                g.push(page, sel);
                want.extend(sel.iter().map(|&i| page.value_at(i as usize)));
            }
            let col = g.finish();
            assert_eq!(col.len(), want.len());
            for (i, w) in want.iter().enumerate() {
                // `Debug` tells `Int` from `Double` and `-0.0` from `0.0`.
                assert_eq!(format!("{:?}", col.value_at(i)), format!("{w:?}"));
                assert_eq!(col.is_null(i), w.is_null());
            }
            col
        };
        // One type throughout, all-NULL stretches before and between: typed.
        let col = gathered(&[
            (&nulls, &[0, 1]),
            (&ints, &[2, 1, 0]),
            (&nulls, &[1]),
            (&ints, &[0]),
        ]);
        assert!(matches!(col.data(), ColumnData::Int(_)));
        assert_eq!(sum_kernel(&col).unwrap(), Value::Int(5));
        let col = gathered(&[(&doubles, &[0, 1]), (&ints, &[1])]);
        assert!(
            matches!(col.data(), ColumnData::Double(_)),
            "a NULL fits any type"
        );
        // A second type, or strings: verbatim values, nothing lost.
        let col = gathered(&[(&ints, &[0, 1]), (&doubles, &[0]), (&ints, &[2])]);
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        let col = gathered(&[(&nulls, &[0]), (&strs, &[0, 1, 0])]);
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        // Nothing but NULLs, and nothing at all: `Int`, like `from_values`.
        assert!(matches!(
            gathered(&[(&nulls, &[0, 1])]).data(),
            ColumnData::Int(_)
        ));
        assert!(matches!(gathered(&[]).data(), ColumnData::Int(_)));
    }

    #[test]
    fn null_bitmap_reads_a_page_bitmap() {
        // Rows 1, 9 and 66 of 70; the bits past row 69 are noise.
        let mut bytes = [0u8; 9];
        bytes[0] = 0b10;
        bytes[1] = 0b10;
        bytes[8] = 0b1100_0100;
        let nulls = NullBitmap::from_le_bytes(&bytes, 70);
        let set: Vec<usize> = (0..70).filter(|&i| nulls.is_null(i)).collect();
        assert_eq!(set, vec![1, 9, 66]);
        assert_eq!((nulls.null_count(), nulls.len()), (3, 70));
        assert!(!NullBitmap::from_le_bytes(&[0; 9], 70).any_null());
    }

    #[test]
    fn project_gathers_selected_columns() {
        let rows = vec![row![1, "a", 10], row![2, "b", 20], row![3, "c", 30]];
        let batch = ColumnarBatch::from_rows(&rows);
        let picked = batch.project(&[2, 0], &[0, 2]);
        assert_eq!(picked, vec![row![10, 1], row![30, 3]]);
    }

    #[test]
    fn selection_vector_respected_by_to_rows() {
        let rows = vec![row![1], row![2], row![3]];
        let batch = ColumnarBatch::from_rows(&rows).with_selection(vec![0, 2]);
        assert_eq!(batch.to_rows(), vec![row![1], row![3]]);
    }
}
