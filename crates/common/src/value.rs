//! The dynamically typed SQL value.
//!
//! [`Value`] is the single runtime representation of data in the engine.
//! SQL semantics — in particular NULL and three-valued logic — live here:
//!
//! * [`Value::sql_eq`], [`Value::sql_cmp`] return `None` when either operand
//!   is NULL ("unknown"), mirroring SQL comparison semantics.
//! * [`Value`] nonetheless implements [`Ord`], [`Eq`] and [`Hash`] with a
//!   *total* order (NULL first, then by type tag, doubles via total bit
//!   order) so values can key hash tables and be sorted deterministically.
//!   Grouping and DISTINCT in SQL treat NULLs as equal to each other, which
//!   is exactly what the total order gives us.
//!
//! Strings are reference counted (`Arc<str>`) because rows are cloned
//! liberally during joins; cloning a string value is then a refcount bump.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (the absence of a value; compares as "unknown").
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. Also used for dates (days since epoch) and keys.
    Int(i64),
    /// 64-bit IEEE float (SQL DOUBLE / DECIMAL stand-in).
    Double(f64),
    /// UTF-8 string, cheaply cloneable.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Is this value SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, coercing from `Double` when lossless.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Double(d) if d.fract() == 0.0 => Ok(*d as i64),
            other => Err(Error::type_error(format!("expected INT, got {other}"))),
        }
    }

    /// Extract an `f64`, coercing from `Int`.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Double(d) => Ok(*d),
            other => Err(Error::type_error(format!("expected DOUBLE, got {other}"))),
        }
    }

    /// Extract a `bool`.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_error(format!("expected BOOL, got {other}"))),
        }
    }

    /// Extract a `&str`.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::type_error(format!("expected STRING, got {other}"))),
        }
    }

    /// SQL equality: `NULL = anything` is unknown (`None`).
    ///
    /// Numeric values of different width compare by value
    /// (`Int(1) = Double(1.0)` is true).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Normalize this value for use as an SQL-equality (`=`) hash or index
    /// key.
    ///
    /// `Value`'s `Eq`/`Hash` impls follow [`Value::total_cmp`], which
    /// diverges from SQL `=` ([`Value::sql_cmp`]) in exactly three places:
    /// NULL (total: NULL = NULL; SQL: unknown), NaN (total: NaN = NaN;
    /// SQL: NaN equals nothing) and signed zero (total: -0.0 < 0.0; SQL:
    /// -0.0 = 0.0). Returns `None` for values an equality can never select
    /// (NULL, NaN) — the row must be skipped — and otherwise the value
    /// with -0.0 mapped to 0.0, so that hash-table and index lookups agree
    /// exactly with tuple-at-a-time predicate evaluation. `IS NOT
    /// DISTINCT FROM` keys must *not* be normalized: their semantics are
    /// `total_cmp`'s, which already matches `Eq`/`Hash`.
    pub fn eq_key(&self) -> Option<Value> {
        match self {
            Value::Null => None,
            Value::Double(d) if d.is_nan() => None,
            Value::Double(d) if *d == 0.0 => Some(Value::Double(0.0)),
            v => Some(v.clone()),
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL,
    /// otherwise the ordering of the two (type-compatible) values.
    ///
    /// Comparing values of incompatible types (e.g. a string with an
    /// integer) is a query-compilation error upstream; at runtime we fall
    /// back to the total order so execution never panics.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Double(b)) => (*a as f64).partial_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Double(a), Value::Double(b)) => a.partial_cmp(b),
            (a, b) => Some(a.total_cmp(b)),
        }
    }

    /// Total order over all values: NULL < Bool < Int/Double (numerically,
    /// via a shared numeric class) < Str. Used for sorting and for grouping
    /// keys (where SQL wants NULLs to coincide).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Double(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Double(b)) => total_f64(*a as f64, *b),
            (Double(a), Int(b)) => total_f64(*a, *b as f64),
            (Double(a), Double(b)) => total_f64(*a, *b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// Add two numeric values, propagating NULL.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::checked_add, |a, b| a + b, "+")
    }

    /// Subtract, propagating NULL.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::checked_sub, |a, b| a - b, "-")
    }

    /// Multiply, propagating NULL.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::checked_mul, |a, b| a * b, "*")
    }

    /// Divide, propagating NULL. Integer division by zero is an error;
    /// results of `Int / Int` stay integral only when exact, matching the
    /// paper's use of expressions like `0.2 * avg(...)` which are floats.
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(Error::eval("integer division by zero"))
                } else if a % b == 0 {
                    Ok(Value::Int(a / b))
                } else {
                    Ok(Value::Double(*a as f64 / *b as f64))
                }
            }
            _ => {
                let (a, b) = (self.as_double()?, other.as_double()?);
                if b == 0.0 {
                    Err(Error::eval("division by zero"))
                } else {
                    Ok(Value::Double(a / b))
                }
            }
        }
    }

    /// Negate a numeric value, propagating NULL.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(Error::type_error(format!("cannot negate {other}"))),
        }
    }
}

/// Total order for doubles: NaN sorts last, `-0.0 == 0.0` is *not* collapsed
/// (total_cmp distinguishes them, which is fine for grouping determinism).
fn total_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> Option<i64>,
    dbl_op: fn(f64, f64) -> f64,
    name: &str,
) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| Error::eval(format!("integer overflow in {name}"))),
        _ => Ok(Value::Double(dbl_op(a.as_double()?, b.as_double()?))),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `total_cmp`: Int(1) and Double(1.0) compare equal,
        // so they must hash identically — hash all numerics as f64 bits
        // (exact for |i| < 2^53; larger keys are integral and exact too when
        // representable, and the executor only ever mixes widths through
        // arithmetic that stays in range for our workloads).
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Double(d) => {
                state.write_u8(2);
                state.write_u64(d.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_equality() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.0)), Some(true));
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(3.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_groups_nulls() {
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::str("a"));
    }

    #[test]
    fn hash_consistent_with_eq_across_numeric_widths() {
        assert_eq!(Value::Int(7), Value::Double(7.0));
        assert_eq!(h(&Value::Int(7)), h(&Value::Double(7.0)));
    }

    #[test]
    fn arithmetic_propagates_null() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Null.neg().unwrap().is_null());
    }

    #[test]
    fn arithmetic_numeric() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).mul(&Value::Double(1.5)).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Double(3.5)
        );
        assert_eq!(Value::Int(8).div(&Value::Int(2)).unwrap(), Value::Int(4));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Double(1.0).div(&Value::Double(0.0)).is_err());
    }

    #[test]
    fn overflow_detected() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn type_extraction_errors() {
        assert!(Value::str("x").as_int().is_err());
        assert!(Value::Int(1).as_str().is_err());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn display_round_trip_ish() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("abc").to_string(), "'abc'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }

    #[test]
    fn eq_key_matches_sql_equality_semantics() {
        // NULL and NaN can never satisfy `=`: excluded from keys entirely.
        assert_eq!(Value::Null.eq_key(), None);
        assert_eq!(Value::Double(f64::NAN).eq_key(), None);
        // Signed zeros are `=`-equal but total_cmp/Hash-distinct: both
        // normalize to the same key.
        let nz = Value::Double(-0.0).eq_key().unwrap();
        let pz = Value::Double(0.0).eq_key().unwrap();
        assert_eq!(nz, pz);
        assert_eq!(h(&nz), h(&pz));
        // Everything else passes through, preserving the Int/Double
        // cross-type hash equivalence.
        assert_eq!(Value::Int(7).eq_key(), Some(Value::Int(7)));
        let i = Value::Int(1).eq_key().unwrap();
        let d = Value::Double(1.0).eq_key().unwrap();
        assert_eq!(i, d);
        assert_eq!(h(&i), h(&d));
    }
}
