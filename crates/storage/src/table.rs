//! Base tables: resident (in-memory rows) or paged (disk-backed segments).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decorr_common::segcodec::ZoneMap;
use decorr_common::{CmpOp, Column, Error, Result, Row, Schema, Value};

use crate::index::HashIndex;
use crate::pager::{BufferPool, PageData, PageGuard, PageIo, PageKey, SegmentId};
use crate::segment::{SegmentMeta, SegmentReader};

/// Process-wide version counter: every table creation or mutation draws a
/// fresh, never-reused value. Versions therefore distinguish not just "has
/// this table changed" but "is this the *same* table" — a dropped and
/// recreated table under the same name gets a new version, which is what
/// lets long-lived caches key on `(name, version)` and never serve rows
/// from a stale snapshot.
static VERSIONS: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSIONS.fetch_add(1, Ordering::Relaxed)
}

/// The disk half of a paged table: an open segment file plus the buffer
/// pool its pages fault through. Cloning shares both (a paged table is an
/// immutable snapshot); when the last clone drops — the catalog moved on
/// and no reader holds the snapshot any more — the segment's pages leave
/// the pool with it.
#[derive(Debug, Clone)]
pub struct PagedBacking(Arc<Backing>);

#[derive(Debug)]
struct Backing {
    seg: Arc<SegmentReader>,
    pool: Arc<BufferPool>,
    seg_id: SegmentId,
    /// Store-relative segment file name, for WAL records and manifests.
    file: String,
}

impl Drop for Backing {
    fn drop(&mut self) {
        self.pool.forget_segment(self.seg_id);
    }
}

impl PagedBacking {
    /// Wire an open segment to a pool. `file` is the store-relative path
    /// recorded in WAL/manifest entries.
    pub fn new(seg: Arc<SegmentReader>, pool: Arc<BufferPool>, file: String) -> Self {
        let seg_id = pool.register_segment();
        PagedBacking(Arc::new(Backing { seg, pool, seg_id, file }))
    }

    fn meta(&self) -> &SegmentMeta {
        self.0.seg.meta()
    }
}

/// A `col op literal` bound a scan prunes stripes by.
pub type Bound = (usize, CmpOp, Value);

/// The row stripes of a paged table — the one way its data is read. A
/// stripe is one page of every column; its zone maps say whether a scan
/// needs it at all ([`Stripes::may_match`]), and an opened [`Stripe`] pins
/// a column's page on first use and gathers the rows asked for.
#[derive(Debug, Clone, Copy)]
pub struct Stripes<'t>(&'t Backing);

impl<'t> Stripes<'t> {
    /// Number of stripes.
    pub fn count(&self) -> usize {
        self.0.seg.meta().n_pages
    }

    /// Rows in stripe `page` (the last may be short).
    pub fn rows(&self, page: usize) -> usize {
        self.0.seg.meta().page_len(page)
    }

    /// The zone map of column `col` over stripe `page`.
    pub fn zone(&self, page: usize, col: usize) -> &'t ZoneMap {
        self.0.seg.meta().zone(page, col)
    }

    /// Could any row of stripe `page` satisfy every bound? `false` only
    /// when a zone map proves none can, so skipping the stripe never
    /// changes a filtered result — it only avoids touching its pages.
    pub fn may_match(&self, page: usize, bounds: &[Bound]) -> bool {
        bounds
            .iter()
            .all(|(col, op, lit)| self.zone(page, *col).may_match(*op, lit))
    }

    /// Open stripe `page`; nothing is pinned yet.
    pub fn open(&self, page: usize) -> Stripe<'t> {
        let n_cols = self.0.seg.meta().schema.arity();
        Stripe { backing: self.0, page, pins: (0..n_cols).map(|_| None).collect() }
    }
}

/// One stripe under scan. Each column page is pinned in the buffer pool
/// when first asked for and unpinned when the stripe drops.
pub struct Stripe<'t> {
    backing: &'t Backing,
    page: usize,
    pins: Vec<Option<PageGuard>>,
}

impl Stripe<'_> {
    /// Column `col` of the stripe, pinned now if it was not yet; the page
    /// I/O is recorded in `io`.
    pub fn pin(&mut self, col: usize, io: &mut PageIo) -> Result<&Column> {
        if self.pins[col].is_none() {
            let (b, page) = (self.backing, self.page);
            let key = PageKey { seg: b.seg_id, page: page as u32, col: col as u32 };
            self.pins[col] = Some(
                b.pool
                    .get_pinned(key, io, || Ok(PageData::Col(b.seg.read_page(page, col)?)))?,
            );
        }
        self.pinned(col)
    }

    /// The columns `cols`, in that order, each pinned now if it was not.
    pub fn pin_all(&mut self, cols: &[usize], io: &mut PageIo) -> Result<Vec<&Column>> {
        for &col in cols {
            self.pin(col, io)?;
        }
        cols.iter().map(|&col| self.pinned(col)).collect()
    }

    fn pinned(&self, col: usize) -> Result<&Column> {
        match &self.pins[col] {
            Some(guard) => guard.data().as_col(),
            None => Err(Error::internal("stripe: column read before it was pinned")),
        }
    }

    /// Make a row of each position in `sel` and append it to `out`,
    /// pinning whichever of `cols` were not pinned yet. A row has the
    /// table's full arity; a column not in `cols` (ascending) is left
    /// NULL and its page untouched — for a reader that knows it will
    /// never look there.
    pub fn gather(
        &mut self,
        sel: impl ExactSizeIterator<Item = u32>,
        cols: &[usize],
        out: &mut Vec<Row>,
        io: &mut PageIo,
    ) -> Result<()> {
        if sel.len() == 0 {
            return Ok(());
        }
        let arity = self.pins.len();
        let pinned = self.pin_all(cols, io)?;
        out.reserve(sel.len());
        for i in sel {
            let i = i as usize;
            out.push(Row::new(if cols.len() == arity {
                pinned.iter().map(|c| c.value_at(i)).collect()
            } else {
                let mut values = vec![Value::Null; arity];
                for (&col, page) in cols.iter().zip(&pinned) {
                    values[col] = page.value_at(i);
                }
                values
            }));
        }
        Ok(())
    }
}

/// A named, schema-checked table with optional primary key.
///
/// Two backings exist. A **resident** table owns its rows in memory and
/// supports mutation and hash indexes. A **paged** table is an immutable
/// snapshot backed by a columnar segment file; it is read stripe by
/// stripe through the buffer pool ([`Table::stripes`]: zone maps let a
/// scan skip whole stripes, columns are pinned as they are needed, and
/// rows are made only of the positions asked for — [`Table::read_rows`]
/// asks for all of them), and mutation or index DDL is a catalog error
/// (reload to change it).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// Column positions forming the primary key, if declared.
    key: Option<Vec<usize>>,
    indexes: Vec<HashIndex>,
    /// Snapshot identity for cache keying; see [`Table::version`].
    version: u64,
    /// Disk backing; `Some` makes this a paged table (and `rows` empty).
    paged: Option<PagedBacking>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            key: None,
            indexes: Vec::new(),
            version: next_version(),
            paged: None,
        }
    }

    /// Construct a paged table over an open segment. Name, schema, key and
    /// row count come from the segment footer; the table carries no hash
    /// indexes (index probes need resident row positions) and rejects
    /// mutation.
    pub fn paged(backing: PagedBacking) -> Table {
        let meta = backing.meta();
        Table {
            name: meta.name.clone(),
            schema: meta.schema.clone(),
            rows: Vec::new(),
            key: meta.key.clone(),
            indexes: Vec::new(),
            version: next_version(),
            paged: Some(backing),
        }
    }

    /// Is this table disk-backed?
    pub fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// The store-relative segment file backing this table, if paged.
    pub fn paged_file(&self) -> Option<&str> {
        self.paged.as_ref().map(|p| p.0.file.as_str())
    }

    fn immutable(&self) -> Error {
        Error::catalog(format!(
            "table '{}' is disk-backed and immutable; reload it to modify",
            self.name
        ))
    }

    /// The table's snapshot version: a process-unique value reassigned on
    /// every mutation (insert, index or key change). Two `Table` values
    /// with equal versions hold identical data; a version never comes back
    /// once the table changes, so `(name, version)` is a sound cache key
    /// across drops, reloads and re-`ANALYZE`s. Clones share the version —
    /// they hold the same snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mark the table mutated: reassign a fresh process-unique version.
    fn touch(&mut self) {
        self.version = next_version();
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The *resident* rows. Empty for a paged table — scan paths must use
    /// [`Table::read_rows`], which serves both backings, or read the
    /// [`Table::stripes`]. Index probe paths may keep using `rows()`
    /// because paged tables never carry indexes.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row count, resident or persisted.
    pub fn len(&self) -> usize {
        match &self.paged {
            Some(p) => p.meta().row_count,
            None => self.rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stripes of a paged table; `None` for a resident one.
    pub fn stripes(&self) -> Option<Stripes<'_>> {
        self.paged.as_ref().map(|p| Stripes(&p.0))
    }

    /// All rows of the table, through the buffer pool when paged. Resident
    /// tables borrow; paged tables gather every row of every stripe
    /// (pinning each stripe's column pages meanwhile) and record the page
    /// I/O in `io`.
    pub fn read_rows(&self, io: &mut PageIo) -> Result<Cow<'_, [Row]>> {
        let Some(stripes) = self.stripes() else {
            return Ok(Cow::Borrowed(&self.rows[..]));
        };
        let mut out = Vec::with_capacity(self.len());
        let all: Vec<usize> = (0..self.schema.arity()).collect();
        for page in 0..stripes.count() {
            let rows = 0..stripes.rows(page) as u32;
            stripes.open(page).gather(rows, &all, &mut out, io)?;
        }
        Ok(Cow::Owned(out))
    }

    /// Declare the primary key by column names. Purely metadata: it informs
    /// rewrites (Dayal's `GROUP BY key`, the `OptMag` supplementary-table
    /// elimination) but uniqueness is the loader's responsibility.
    pub fn set_key(&mut self, column_names: &[&str]) -> Result<()> {
        if self.is_paged() {
            return Err(self.immutable());
        }
        let mut cols = Vec::with_capacity(column_names.len());
        for n in column_names {
            cols.push(self.schema.resolve(n)?);
        }
        self.key = Some(cols);
        self.touch();
        Ok(())
    }

    /// The primary-key column positions, if declared.
    pub fn key(&self) -> Option<&[usize]> {
        self.key.as_deref()
    }

    /// Append a row, checking it against the schema and maintaining indexes.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if self.is_paged() {
            return Err(self.immutable());
        }
        self.schema.check_row(row.values())?;
        let pos = self.rows.len();
        for idx in &mut self.indexes {
            idx.insert(pos, &row);
        }
        self.rows.push(row);
        self.touch();
        Ok(())
    }

    /// Bulk-append rows.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Create a hash index on the named columns. Idempotent: re-creating an
    /// index over the same column set is a no-op.
    pub fn create_index(&mut self, column_names: &[&str]) -> Result<()> {
        if self.is_paged() {
            return Err(self.immutable());
        }
        let mut cols = Vec::with_capacity(column_names.len());
        for n in column_names {
            cols.push(self.schema.resolve(n)?);
        }
        if self.indexes.iter().any(|i| i.covers(&cols)) {
            return Ok(());
        }
        self.indexes.push(HashIndex::build(cols, &self.rows));
        self.touch();
        Ok(())
    }

    /// Drop the index on exactly the named columns (Figure 7 drops the
    /// `ps_suppkey` index). Errors if no such index exists.
    pub fn drop_index(&mut self, column_names: &[&str]) -> Result<()> {
        let mut cols = Vec::with_capacity(column_names.len());
        for n in column_names {
            cols.push(self.schema.resolve(n)?);
        }
        let before = self.indexes.len();
        self.indexes.retain(|i| !i.covers(&cols));
        if self.indexes.len() == before {
            return Err(Error::catalog(format!(
                "table '{}' has no index on {column_names:?}",
                self.name
            )));
        }
        self.touch();
        Ok(())
    }

    /// Drop all indexes.
    pub fn drop_all_indexes(&mut self) {
        self.indexes.clear();
        self.touch();
    }

    /// An index whose column set is a subset of `cols` (so an equality
    /// binding on all of `cols` can probe it), preferring the widest match.
    pub fn best_index_for(&self, cols: &[usize]) -> Option<&HashIndex> {
        self.indexes
            .iter()
            .filter(|i| i.columns().iter().all(|c| cols.contains(c)))
            .max_by_key(|i| i.columns().len())
    }

    /// The index covering exactly `cols`, if any.
    pub fn index_on(&self, cols: &[usize]) -> Option<&HashIndex> {
        self.indexes.iter().find(|i| i.covers(cols))
    }

    /// All indexes.
    pub fn indexes(&self) -> &[HashIndex] {
        &self.indexes
    }

    /// Rows matching `value` on `col` via index; `None` if no usable index.
    pub fn index_lookup(&self, col: usize, value: &Value) -> Option<&[usize]> {
        self.index_on(&[col])
            .map(|i| i.lookup(std::slice::from_ref(value)))
    }
}
