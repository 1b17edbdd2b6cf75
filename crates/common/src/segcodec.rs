//! The segment page codec: byte-exact columnar page encoding.
//!
//! This module is the pure, I/O-free half of the disk-backed storage layer:
//! it turns one page's worth of column values into bytes and back,
//! **losslessly**. The executor's equivalence gates compare rows
//! bit-for-bit, so the codec must round-trip every [`Value`] exactly —
//! NaN payloads and `-0.0` survive (doubles travel as raw IEEE bits),
//! `Int`s stored in a `DOUBLE` column stay `Int`s (numeric widening is a
//! schema property, not a storage one), and NULLs travel in a bitmap, never
//! as sentinel values.
//!
//! Encodings mirror the in-memory [`crate::columnar`] layouts:
//!
//! * `Int` pages — run-length encoding, frame-of-reference bit-packing or
//!   raw zigzag varints, whichever is smallest for the page;
//! * `Bool` pages — bit-packed;
//! * `Double` pages — raw little-endian IEEE-754 bits;
//! * `Str` pages — a first-appearance dictionary plus bit-packed codes,
//!   the on-disk twin of [`crate::columnar::StrPool`] dictionary encoding;
//! * mixed pages (e.g. `Int`s widening into a `DOUBLE` column) — tagged
//!   values, verbatim.
//!
//! Every page also carries a [`ZoneMap`] — min/max (total order), null
//! count — that scan paths and the estimator prune on without touching the
//! page bytes. Framing (length + CRC-32) is the storage layer's job;
//! [`crc32`] lives here so the write and read sides share one definition.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::columnar::{CmpOp, Column, ColumnData, NullBitmap, StrPool};
use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — shared by page frames, WAL records and
// manifests. Table-driven; no external dependencies.
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    })
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Zigzag-map a signed value so small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// A bounds-checked cursor over encoded bytes. Every decode error is a
/// typed [`Error`] (corruption must fail closed, never panic).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> Error {
    Error::internal("segment codec: truncated page payload")
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from the front.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self.buf.get(self.pos).ok_or_else(truncated)?;
            self.pos += 1;
            if shift >= 64 {
                return Err(Error::internal("segment codec: varint overflow"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn byte(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A varint-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let n = self.varint()? as usize;
        if n > self.remaining() {
            return Err(truncated());
        }
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| Error::internal("segment codec: invalid UTF-8 string"))
    }
}

/// Append a varint-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Tagged single-value codec (zone-map bounds, mixed pages, row pages)
// ---------------------------------------------------------------------------

const VT_NULL: u8 = 0;
const VT_FALSE: u8 = 1;
const VT_TRUE: u8 = 2;
const VT_INT: u8 = 3;
const VT_DOUBLE: u8 = 4;
const VT_STR: u8 = 5;

/// Append one tagged [`Value`]. Doubles are written as raw IEEE bits, so
/// NaN payloads and `-0.0` round-trip exactly.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VT_NULL),
        Value::Bool(false) => buf.push(VT_FALSE),
        Value::Bool(true) => buf.push(VT_TRUE),
        Value::Int(i) => {
            buf.push(VT_INT);
            put_varint(buf, zigzag(*i));
        }
        Value::Double(d) => {
            buf.push(VT_DOUBLE);
            buf.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(VT_STR);
            put_string(buf, s);
        }
    }
}

/// Read one tagged [`Value`].
pub fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match c.byte()? {
        VT_NULL => Value::Null,
        VT_FALSE => Value::Bool(false),
        VT_TRUE => Value::Bool(true),
        VT_INT => Value::Int(unzigzag(c.varint()?)),
        VT_DOUBLE => {
            let b: [u8; 8] = c.bytes(8)?.try_into().expect("8 bytes requested");
            Value::Double(f64::from_bits(u64::from_le_bytes(b)))
        }
        VT_STR => Value::Str(Arc::from(c.string()?.as_str())),
        t => return Err(Error::internal(format!("segment codec: bad value tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    cur: u64,
    used: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), cur: 0, used: 0 }
    }

    fn push(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 64);
        let mut v = if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        };
        let mut width = width;
        while width > 0 {
            let room = 64 - self.used;
            let take = width.min(room);
            self.cur |= (v & low_mask(take)) << self.used;
            self.used += take;
            v = if take == 64 { 0 } else { v >> take };
            width -= take;
            if self.used == 64 {
                self.out.extend_from_slice(&self.cur.to_le_bytes());
                self.cur = 0;
                self.used = 0;
            }
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            let bytes = self.used.div_ceil(8) as usize;
            self.out.extend_from_slice(&self.cur.to_le_bytes()[..bytes]);
        }
        self.out
    }
}

fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

struct BitReader<'a> {
    buf: &'a [u8],
    bit: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, bit: 0 }
    }

    fn read(&mut self, width: u32) -> Result<u64> {
        let mut v = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte_i = self.bit >> 3;
            let b = *self.buf.get(byte_i).ok_or_else(truncated)?;
            let off = (self.bit & 7) as u32;
            let avail = 8 - off;
            let take = (width - got).min(avail);
            let bits = ((b as u64) >> off) & low_mask(take);
            v |= bits << got;
            got += take;
            self.bit += take as usize;
        }
        Ok(v)
    }
}

fn width_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

// ---------------------------------------------------------------------------
// Column-page codec
// ---------------------------------------------------------------------------

/// The most rows one column page may hold (a thousand default pages).
/// The decoder sizes its vectors by a page's stated row count, so the
/// count is checked against this before anything is allocated.
pub const MAX_PAGE_ROWS: usize = 1 << 22;

const ENC_INT_RAW: u8 = 1;
const ENC_INT_RLE: u8 = 2;
const ENC_INT_PACK: u8 = 3;
const ENC_BOOL: u8 = 4;
const ENC_DOUBLE: u8 = 5;
const ENC_STR_DICT: u8 = 6;
const ENC_MIXED: u8 = 7;

/// Encode one column page. The page layout is:
///
/// ```text
/// varint row_count
/// varint null_count
/// [null bitmap, ceil(row_count/8) bytes]   only when 0 < nulls < rows
/// u8 encoding tag
/// <tag-specific payload over the non-null values, in row order>
/// ```
pub fn encode_column_page(values: &[Value]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, values.len() as u64);
    let null_count = values.iter().filter(|v| v.is_null()).count();
    put_varint(&mut buf, null_count as u64);
    if null_count > 0 && null_count < values.len() {
        let mut bitmap = vec![0u8; values.len().div_ceil(8)];
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                bitmap[i >> 3] |= 1 << (i & 7);
            }
        }
        buf.extend_from_slice(&bitmap);
    }
    let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    if present.is_empty() {
        buf.push(ENC_MIXED); // no payload: every row is NULL
        return buf;
    }
    if present.iter().all(|v| matches!(v, Value::Int(_))) {
        let ints: Vec<i64> = present
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                _ => unreachable!("filtered to Int"),
            })
            .collect();
        encode_ints(&mut buf, &ints);
    } else if present.iter().all(|v| matches!(v, Value::Double(_))) {
        buf.push(ENC_DOUBLE);
        for v in &present {
            if let Value::Double(d) = v {
                buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        }
    } else if present.iter().all(|v| matches!(v, Value::Bool(_))) {
        buf.push(ENC_BOOL);
        let mut w = BitWriter::new();
        for v in &present {
            if let Value::Bool(b) = v {
                w.push(*b as u64, 1);
            }
        }
        buf.extend_from_slice(&w.finish());
    } else if present.iter().all(|v| matches!(v, Value::Str(_))) {
        encode_strs(&mut buf, &present);
    } else {
        buf.push(ENC_MIXED);
        for v in &present {
            put_value(&mut buf, v);
        }
    }
    buf
}

/// Pick the smallest of raw-varint, RLE and frame-of-reference bit-packing.
fn encode_ints(buf: &mut Vec<u8>, ints: &[i64]) {
    let raw_cost: usize = ints.iter().map(|&i| varint_len(zigzag(i))).sum();

    let mut runs: Vec<(i64, u64)> = Vec::new();
    for &i in ints {
        match runs.last_mut() {
            Some((v, n)) if *v == i => *n += 1,
            _ => runs.push((i, 1)),
        }
    }
    let rle_cost: usize = varint_len(runs.len() as u64)
        + runs
            .iter()
            .map(|(v, n)| varint_len(zigzag(*v)) + varint_len(*n))
            .sum::<usize>();

    let min = *ints.iter().min().expect("non-empty");
    let max = *ints.iter().max().expect("non-empty");
    // The frame must fit in u64; a full-range page falls back to raw.
    let span = max.checked_sub(min).map(|s| s as u64);
    let pack = span.map(|s| {
        let width = width_for(s);
        (
            width,
            varint_len(zigzag(min)) + 1 + (ints.len() * width as usize).div_ceil(8),
        )
    });

    let pack_cost = pack.map(|(_, c)| c).unwrap_or(usize::MAX);
    if rle_cost <= raw_cost && rle_cost <= pack_cost {
        buf.push(ENC_INT_RLE);
        put_varint(buf, runs.len() as u64);
        for (v, n) in runs {
            put_varint(buf, zigzag(v));
            put_varint(buf, n);
        }
    } else if pack_cost < raw_cost {
        let (width, _) = pack.expect("cost computed");
        buf.push(ENC_INT_PACK);
        put_varint(buf, zigzag(min));
        buf.push(width as u8);
        let mut w = BitWriter::new();
        for &i in ints {
            w.push(i.wrapping_sub(min) as u64, width);
        }
        buf.extend_from_slice(&w.finish());
    } else {
        buf.push(ENC_INT_RAW);
        for &i in ints {
            put_varint(buf, zigzag(i));
        }
    }
}

/// Dictionary page: distinct strings in first-appearance order, then
/// bit-packed per-row codes — the on-disk mirror of [`crate::columnar::StrPool`].
fn encode_strs(buf: &mut Vec<u8>, present: &[&Value]) {
    let mut dict: Vec<&str> = Vec::new();
    let mut index: crate::hash::FxHashMap<&str, u32> = crate::hash::FxHashMap::default();
    let mut codes = Vec::with_capacity(present.len());
    for v in present {
        if let Value::Str(s) = v {
            let code = *index.entry(s.as_ref()).or_insert_with(|| {
                dict.push(s.as_ref());
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
    }
    buf.push(ENC_STR_DICT);
    put_varint(buf, dict.len() as u64);
    for s in &dict {
        put_string(buf, s);
    }
    let width = width_for(dict.len().saturating_sub(1) as u64);
    buf.push(width as u8);
    let mut w = BitWriter::new();
    for c in codes {
        w.push(c as u64, width);
    }
    buf.extend_from_slice(&w.finish());
}

/// Place the `dense` non-NULL values of a page at their row positions,
/// leaving `T::default()` in the slot of every NULL row.
fn spread<T: Copy + Default>(dense: Vec<T>, nulls: &NullBitmap) -> Vec<T> {
    if !nulls.any_null() {
        return dense;
    }
    let mut next = dense.into_iter();
    (0..nulls.len())
        .map(|i| if nulls.is_null(i) { None } else { next.next() }.unwrap_or_default())
        .collect()
}

/// Decode one column page straight into a typed [`Column`], one slot per
/// row: `Int`/`Double`/`Bool` vectors, the page's own dictionary for
/// strings, and verbatim values only for a page that really mixes types.
/// A page without a single value (every row NULL, or no rows) is an `Int`
/// column of NULLs, as [`Column::from_values`] would make it. Exact
/// inverse of [`encode_column_page`]: `value_at(i)` of the result is the
/// `i`-th encoded value, bit for bit.
pub fn decode_column_page(bytes: &[u8]) -> Result<Column> {
    let mut c = Cursor::new(bytes);
    let rows = c.varint()? as usize;
    let null_count = c.varint()? as usize;
    if null_count > rows {
        return Err(Error::internal(
            "segment codec: null count exceeds row count",
        ));
    }
    // Constant, run-length and all-NULL pages store nothing per row, so
    // the bytes at hand do not bound `rows`; the format does.
    if rows > MAX_PAGE_ROWS {
        return Err(Error::internal("segment codec: implausible page row count"));
    }
    let nulls = if null_count > 0 && null_count < rows {
        let nulls = NullBitmap::from_le_bytes(c.bytes(rows.div_ceil(8))?, rows);
        if nulls.null_count() != null_count {
            return Err(Error::internal(
                "segment codec: null bitmap disagrees with the null count",
            ));
        }
        nulls
    } else {
        let mut nulls = NullBitmap::new(rows);
        if null_count > 0 {
            (0..rows).for_each(|i| nulls.set_null(i));
        }
        nulls
    };
    let present = rows - null_count;
    let tag = c.byte()?;
    let data = match tag {
        ENC_INT_RAW => {
            let mut vals = Vec::with_capacity(present.min(c.remaining()));
            for _ in 0..present {
                vals.push(unzigzag(c.varint()?));
            }
            ColumnData::Int(spread(vals, &nulls))
        }
        ENC_INT_RLE => {
            let n_runs = c.varint()? as usize;
            let mut vals: Vec<i64> = Vec::with_capacity(present);
            for _ in 0..n_runs {
                let v = unzigzag(c.varint()?);
                let n = c.varint()? as usize;
                if n > present - vals.len() {
                    return Err(Error::internal("segment codec: RLE run overflow"));
                }
                vals.resize(vals.len() + n, v);
            }
            if vals.len() != present {
                return Err(Error::internal("segment codec: RLE run underflow"));
            }
            ColumnData::Int(spread(vals, &nulls))
        }
        ENC_INT_PACK => {
            let base = unzigzag(c.varint()?);
            let width = c.byte()? as u32;
            if width > 64 {
                return Err(Error::internal("segment codec: bad pack width"));
            }
            let mut r = BitReader::new(c.bytes((present * width as usize).div_ceil(8))?);
            let mut vals = Vec::with_capacity(present);
            for _ in 0..present {
                vals.push(base.wrapping_add(r.read(width)? as i64));
            }
            ColumnData::Int(spread(vals, &nulls))
        }
        ENC_BOOL => {
            let mut r = BitReader::new(c.bytes(present.div_ceil(8))?);
            let mut vals = Vec::with_capacity(present);
            for _ in 0..present {
                vals.push(r.read(1)? == 1);
            }
            ColumnData::Bool(spread(vals, &nulls))
        }
        ENC_DOUBLE => {
            let raw = c.bytes(present.checked_mul(8).ok_or_else(truncated)?)?;
            let vals = raw
                .chunks_exact(8)
                .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
                .collect();
            ColumnData::Double(spread(vals, &nulls))
        }
        ENC_STR_DICT => {
            let dict_len = c.varint()? as usize;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len.min(c.remaining()));
            for _ in 0..dict_len {
                dict.push(Arc::from(c.string()?.as_str()));
            }
            let width = c.byte()? as u32;
            if width > 32 {
                return Err(Error::internal("segment codec: bad dict code width"));
            }
            let mut r = BitReader::new(c.bytes((present * width as usize).div_ceil(8))?);
            let mut codes = Vec::with_capacity(present);
            for _ in 0..present {
                let code = r.read(width)? as u32;
                if code as usize >= dict.len() {
                    return Err(Error::internal("segment codec: dict code out of range"));
                }
                codes.push(code);
            }
            ColumnData::Str { codes: spread(codes, &nulls), pool: StrPool::from_dictionary(dict) }
        }
        ENC_MIXED if present == 0 => ColumnData::Int(vec![0; rows]),
        ENC_MIXED => {
            let mut vals = Vec::with_capacity(rows.min(c.remaining() + null_count));
            for i in 0..rows {
                vals.push(if nulls.is_null(i) {
                    Value::Null
                } else {
                    get_value(&mut c)?
                });
            }
            ColumnData::Mixed(vals)
        }
        t => return Err(Error::internal(format!("segment codec: bad page tag {t}"))),
    };
    Ok(Column::from_parts(data, nulls))
}

// ---------------------------------------------------------------------------
// Row pages (spill partitions, WAL payload helpers)
// ---------------------------------------------------------------------------

/// Encode a page of whole rows (row-major, tagged values). Used by spill
/// partitions, where rows of mixed provenance have no single schema.
pub fn encode_row_page(rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, rows.len() as u64);
    for r in rows {
        put_varint(&mut buf, r.values().len() as u64);
        for v in r.values() {
            put_value(&mut buf, v);
        }
    }
    buf
}

/// Decode a page of whole rows. Exact inverse of [`encode_row_page`].
pub fn decode_row_page(bytes: &[u8]) -> Result<Vec<Row>> {
    let mut c = Cursor::new(bytes);
    let n = c.varint()? as usize;
    let mut rows = Vec::with_capacity(n.min(c.remaining()));
    for _ in 0..n {
        let arity = c.varint()? as usize;
        if arity > c.remaining() {
            return Err(truncated());
        }
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(get_value(&mut c)?);
        }
        rows.push(Row::new(vals));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// Per-page column statistics: min/max in [`Value::total_cmp`] order over
/// the non-null values (NaN included — it sorts above every number), plus
/// the null count. `min`/`max` are [`Value::Null`] when the page holds no
/// non-null value.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value (total order); `Null` if none.
    pub min: Value,
    /// Largest non-null value (total order); `Null` if none.
    pub max: Value,
    /// Number of NULL rows in the page.
    pub null_count: u64,
    /// Total rows in the page.
    pub rows: u64,
}

impl ZoneMap {
    /// Compute the zone map of one page of values.
    pub fn build(values: &[Value]) -> ZoneMap {
        let mut min = Value::Null;
        let mut max = Value::Null;
        let mut null_count = 0u64;
        for v in values {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if min.is_null() || v.total_cmp(&min) == Ordering::Less {
                min = v.clone();
            }
            if max.is_null() || v.total_cmp(&max) == Ordering::Greater {
                max = v.clone();
            }
        }
        ZoneMap { min, max, null_count, rows: values.len() as u64 }
    }

    /// Could *any* row of this page satisfy `col op lit`? Conservative:
    /// `true` unless the zone map proves no row can match. Mirrors the
    /// row-wise predicate semantics exactly — `=`/`<`/… compare with
    /// [`Value::sql_cmp`] (NULL and NaN comparisons are unknown, so such
    /// rows never qualify), `IS NOT DISTINCT FROM` uses the total order.
    pub fn may_match(&self, op: CmpOp, lit: &Value) -> bool {
        if op == CmpOp::NullEq {
            if lit.is_null() {
                return self.null_count > 0;
            }
            if self.min.is_null() {
                return false; // all-NULL page, non-NULL literal
            }
            return self.min.total_cmp(lit) != Ordering::Greater
                && self.max.total_cmp(lit) != Ordering::Less;
        }
        if lit.is_null() {
            return false; // three-valued: NULL literal qualifies nothing
        }
        if self.min.is_null() {
            return false; // all-NULL page: sql_cmp is unknown on every row
        }
        // Prune only when both bound comparisons are defined; a NaN bound
        // or NaN literal makes sql_cmp unknown and the page is kept.
        let (c_min, c_max) = match (self.min.sql_cmp(lit), self.max.sql_cmp(lit)) {
            (Some(a), Some(b)) => (a, b),
            _ => return true,
        };
        match op {
            CmpOp::Eq => c_min != Ordering::Greater && c_max != Ordering::Less,
            CmpOp::Ne => !(c_min == Ordering::Equal && c_max == Ordering::Equal),
            CmpOp::Lt => c_min == Ordering::Less,
            CmpOp::Le => c_min != Ordering::Greater,
            CmpOp::Gt => c_max == Ordering::Greater,
            CmpOp::Ge => c_max != Ordering::Less,
            CmpOp::NullEq => unreachable!("handled above"),
        }
    }

    /// Serialize into `buf` (tagged bounds + varint counts).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_value(buf, &self.min);
        put_value(buf, &self.max);
        put_varint(buf, self.null_count);
        put_varint(buf, self.rows);
    }

    /// Deserialize from a cursor. Exact inverse of [`ZoneMap::encode`].
    pub fn decode(c: &mut Cursor<'_>) -> Result<ZoneMap> {
        Ok(ZoneMap {
            min: get_value(c)?,
            max: get_value(c)?,
            null_count: c.varint()?,
            rows: c.varint()?,
        })
    }

    /// Merge another page's zone map into this one (segment-level bounds).
    pub fn merge(&mut self, other: &ZoneMap) {
        if !other.min.is_null()
            && (self.min.is_null() || other.min.total_cmp(&self.min) == Ordering::Less)
        {
            self.min = other.min.clone();
        }
        if !other.max.is_null()
            && (self.max.is_null() || other.max.total_cmp(&self.max) == Ordering::Greater)
        {
            self.max = other.max.clone();
        }
        self.null_count += other.null_count;
        self.rows += other.rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(values: Vec<Value>) {
        let bytes = encode_column_page(&values);
        let back = decode_column_page(&bytes).unwrap();
        assert_eq!(values.len(), back.len());
        for (i, a) in values.iter().enumerate() {
            let b = &back.value_at(i);
            assert_eq!(a.total_cmp(b), Ordering::Equal, "{a:?} vs {b:?}");
            // total_cmp folds nothing, but double-check the bit patterns.
            if let (Value::Double(x), Value::Double(y)) = (a, b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "type must survive: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn int_pages_round_trip_under_every_encoding() {
        rt((0..100).map(Value::Int).collect()); // bit-packed
        rt(vec![Value::Int(7); 50]); // RLE
        rt(vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
        ]); // raw
        rt(vec![]);
    }

    #[test]
    fn doubles_keep_bit_patterns() {
        rt(vec![
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Double(f64::from_bits(0x7FF8_0000_0000_1234)), // NaN payload
            Value::Double(f64::NEG_INFINITY),
            Value::Null,
        ]);
    }

    #[test]
    fn widened_ints_stay_ints_in_double_columns() {
        rt(vec![Value::Int(1), Value::Double(2.5), Value::Null]);
    }

    #[test]
    fn strings_and_nulls() {
        rt(vec![
            Value::str("abc"),
            Value::Null,
            Value::str(""),
            Value::str("abc"),
            Value::str("日本語"),
        ]);
        rt(vec![Value::Null, Value::Null]);
        rt(vec![Value::Bool(true), Value::Null, Value::Bool(false)]);
    }

    #[test]
    fn corrupt_pages_error_instead_of_panicking() {
        let mut bytes = encode_column_page(&[Value::Int(1), Value::Int(2)]);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_column_page(&bytes).is_err());
        assert!(decode_column_page(&[]).is_err());
        assert!(decode_column_page(&[0x05, 0x00, 0xFF]).is_err());
    }

    #[test]
    fn row_pages_round_trip() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Null]),
            Row::new(vec![Value::Double(-0.0), Value::Bool(true), Value::Int(-5)]),
        ];
        let back = decode_row_page(&encode_row_page(&rows)).unwrap();
        assert_eq!(rows, back);
    }

    #[test]
    fn zone_map_pruning_is_conservative_and_sound() {
        let vals: Vec<Value> = (10..20).map(Value::Int).collect();
        let zm = ZoneMap::build(&vals);
        assert!(zm.may_match(CmpOp::Eq, &Value::Int(15)));
        assert!(!zm.may_match(CmpOp::Eq, &Value::Int(25)));
        assert!(!zm.may_match(CmpOp::Lt, &Value::Int(10)));
        assert!(zm.may_match(CmpOp::Le, &Value::Int(10)));
        assert!(!zm.may_match(CmpOp::Gt, &Value::Int(19)));
        assert!(zm.may_match(CmpOp::Ge, &Value::Int(19)));
        assert!(!zm.may_match(CmpOp::Eq, &Value::Null));
        // NaN literal: kept only where sql_cmp can be defined — numerics
        // compare unknown with NaN, so the page is pruned… conservatively
        // kept, because the bound comparison is undefined.
        assert!(zm.may_match(CmpOp::Eq, &Value::Double(f64::NAN)));
        // All-NULL page matches nothing except IS NOT DISTINCT FROM NULL.
        let nulls = ZoneMap::build(&[Value::Null, Value::Null]);
        assert!(!nulls.may_match(CmpOp::Eq, &Value::Int(1)));
        assert!(nulls.may_match(CmpOp::NullEq, &Value::Null));
        // Strings order lexicographically.
        let s = ZoneMap::build(&[Value::str("b"), Value::str("d")]);
        assert!(s.may_match(CmpOp::Eq, &Value::str("c")));
        assert!(!s.may_match(CmpOp::Gt, &Value::str("d")));
    }

    #[test]
    fn zone_maps_encode_and_merge() {
        let a = ZoneMap::build(&[Value::Int(1), Value::Null]);
        let b = ZoneMap::build(&[Value::Int(9)]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.min, Value::Int(1));
        assert_eq!(m.max, Value::Int(9));
        assert_eq!(m.null_count, 1);
        assert_eq!(m.rows, 3);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let back = ZoneMap::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
