//! Runtime binding environments.
//!
//! During evaluation each box binds its quantifiers to positions of a
//! *combined row* described by a [`Layout`]. Correlated references resolve
//! through the chain of enclosing [`Env`]s — the runtime mirror of the
//! binder's scope stack.

use decorr_common::{FxHashMap, Row, Value};
use decorr_qgm::QuantId;

/// Maps quantifiers to the offset of their first column within a combined
/// row.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    offsets: FxHashMap<QuantId, usize>,
    width: usize,
}

impl Layout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `quant` with `arity` columns; returns its offset.
    pub fn push(&mut self, quant: QuantId, arity: usize) -> usize {
        let off = self.width;
        self.offsets.insert(quant, off);
        self.width += arity;
        off
    }

    /// Offset of a quantifier, if bound in this layout.
    pub fn offset_of(&self, quant: QuantId) -> Option<usize> {
        self.offsets.get(&quant).copied()
    }

    pub fn contains(&self, quant: QuantId) -> bool {
        self.offsets.contains_key(&quant)
    }

    /// Total width of combined rows under this layout.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// A binding frame: a combined row interpreted through a layout, linked to
/// the enclosing frame (for correlated references).
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub layout: &'a Layout,
    pub row: &'a Row,
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    pub fn new(layout: &'a Layout, row: &'a Row, parent: Option<&'a Env<'a>>) -> Self {
        Env { layout, row, parent }
    }

    /// Resolve `(quant, col)` against this frame or an ancestor.
    pub fn lookup(&self, quant: QuantId, col: usize) -> Option<&Value> {
        if let Some(off) = self.layout.offset_of(quant) {
            return Some(&self.row[off + col]);
        }
        self.parent.and_then(|p| p.lookup(quant, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::row;

    fn q(i: u32) -> QuantId {
        QuantId::from_index(i)
    }

    #[test]
    fn layout_offsets() {
        let mut l = Layout::new();
        assert_eq!(l.push(q(0), 2), 0);
        assert_eq!(l.push(q(1), 3), 2);
        assert_eq!(l.width(), 5);
        assert_eq!(l.offset_of(q(1)), Some(2));
        assert_eq!(l.offset_of(q(9)), None);
    }

    #[test]
    fn env_chain_lookup() {
        let mut outer_l = Layout::new();
        outer_l.push(q(0), 1);
        let outer_row = row![42];
        let outer = Env::new(&outer_l, &outer_row, None);

        let mut inner_l = Layout::new();
        inner_l.push(q(1), 2);
        let inner_row = row![1, 2];
        let inner = Env::new(&inner_l, &inner_row, Some(&outer));

        assert_eq!(inner.lookup(q(1), 1), Some(&Value::Int(2)));
        // correlated lookup falls through to the outer frame
        assert_eq!(inner.lookup(q(0), 0), Some(&Value::Int(42)));
        assert_eq!(inner.lookup(q(7), 0), None);
    }

    use decorr_common::Value;
}
