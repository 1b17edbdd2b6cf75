//! The buffer pool: a fixed-budget cache of decoded pages.
//!
//! Every disk-backed read — columnar segment pages and spill partition
//! pages alike — goes through one [`BufferPool`]. The pool caches pages in
//! *decoded* form ([`PageData`]), so a warm scan skips both the disk read
//! and the page decode; its budget bounds the bytes of decoded page state
//! resident at once, which is exactly the knob that lets a catalog far
//! larger than memory serve queries.
//!
//! Eviction is clock (second chance): each `get` sets the frame's
//! reference bit; the clock hand clears bits until it finds an
//! unreferenced, unpinned frame. Pinned frames ([`PageGuard`]) are never
//! evicted — a scan pins the column pages of the stripe it is reading, each
//! on first use, so a concurrent query cannot churn them mid-stripe.
//!
//! The pool keeps process-lifetime counters (for the `\pool` command);
//! per-query attribution goes through [`PageIo`], which the executor folds
//! into its `ExecStats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use decorr_common::{Column, Error, FxHashMap, Result, Row, Value};

/// Identifies one registered page source (a segment or spill file).
pub type SegmentId = u64;

/// Address of one cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Which file the page belongs to.
    pub seg: SegmentId,
    /// Page ordinal within the file.
    pub page: u32,
    /// Column ordinal (0 for row-major spill pages).
    pub col: u32,
}

/// One decoded page.
#[derive(Debug)]
pub enum PageData {
    /// A column segment page: one column's values for a stripe of rows,
    /// decoded into its typed vector.
    Col(Column),
    /// A spill page: whole rows.
    Rows(Vec<Row>),
}

impl PageData {
    /// Approximate resident bytes, for budget accounting: a column page's
    /// real heap size (8 bytes a row for an `Int` page, not a 24-byte
    /// `Value` each), a row page's values.
    pub fn approx_bytes(&self) -> usize {
        fn value_bytes(v: &Value) -> usize {
            std::mem::size_of::<Value>()
                + match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                }
        }
        match self {
            PageData::Col(col) => 32 + col.heap_bytes(),
            PageData::Rows(rows) => {
                32 + rows
                    .iter()
                    .map(|r| 24 + r.values().iter().map(value_bytes).sum::<usize>())
                    .sum::<usize>()
            }
        }
    }

    /// The column, or an error for a row page (shape mismatch is a
    /// storage-layer bug surfaced as a typed error, never a panic).
    pub fn as_col(&self) -> Result<&Column> {
        match self {
            PageData::Col(c) => Ok(c),
            PageData::Rows(_) => Err(Error::internal("buffer pool: expected a column page")),
        }
    }

    /// The row values, or an error for a column page.
    pub fn as_rows(&self) -> Result<&[Row]> {
        match self {
            PageData::Rows(r) => Ok(r),
            PageData::Col(_) => Err(Error::internal("buffer pool: expected a row page")),
        }
    }
}

struct Frame {
    data: Arc<PageData>,
    bytes: usize,
    referenced: bool,
    pins: u32,
}

#[derive(Default)]
struct Inner {
    frames: FxHashMap<PageKey, Frame>,
    /// Clock order: exactly the keys of `frames`.
    clock: Vec<PageKey>,
    hand: usize,
    resident: usize,
}

/// Per-query page I/O counters, folded into `ExecStats` by the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageIo {
    /// Pages served from the pool without touching disk.
    pub hits: u64,
    /// Pages faulted in (read + decoded) from disk.
    pub misses: u64,
    /// Pages materialized (hits + misses).
    pub pages_read: u64,
    /// Row stripes skipped entirely by zone-map pruning.
    pub pages_pruned: u64,
}

/// A point-in-time snapshot of pool counters, for `\pool`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub resident_pages: u64,
    pub budget_bytes: u64,
}

/// The process-wide page cache. See the module docs.
pub struct BufferPool {
    inner: Mutex<Inner>,
    budget: usize,
    next_seg: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

fn poisoned() -> Error {
    Error::internal("buffer pool lock poisoned: a loader panicked mid-fault")
}

/// A pinned page: the frame cannot be evicted while the guard lives.
/// Dropping the guard unpins (the data itself stays valid through the
/// `Arc` even if evicted afterwards).
pub struct PageGuard {
    pool: Arc<BufferPool>,
    key: PageKey,
    data: Arc<PageData>,
}

impl PageGuard {
    /// The pinned page's decoded data.
    pub fn data(&self) -> &PageData {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.pool.inner.lock() {
            if let Some(f) = inner.frames.get_mut(&self.key) {
                f.pins = f.pins.saturating_sub(1);
            }
        }
    }
}

impl BufferPool {
    /// A pool with the given decoded-byte budget.
    pub fn new(budget_bytes: usize) -> Arc<Self> {
        Arc::new(BufferPool {
            inner: Mutex::new(Inner::default()),
            budget: budget_bytes.max(1),
            next_seg: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Register a new page source (segment or spill file), returning its
    /// process-unique id. Ids are never reused, so stale cache entries of a
    /// deleted file can never be served to a new one.
    pub fn register_segment(&self) -> SegmentId {
        self.next_seg.fetch_add(1, Ordering::Relaxed)
    }

    /// Fetch a page, faulting it in with `load` on a miss, and pin it.
    /// `io` records the hit/miss for per-query stats.
    pub fn get_pinned(
        self: &Arc<Self>,
        key: PageKey,
        io: &mut PageIo,
        load: impl FnOnce() -> Result<PageData>,
    ) -> Result<PageGuard> {
        io.pages_read += 1;
        // Fast path: already resident.
        {
            let mut inner = self.inner.lock().map_err(|_| poisoned())?;
            if let Some(f) = inner.frames.get_mut(&key) {
                f.referenced = true;
                f.pins += 1;
                let data = Arc::clone(&f.data);
                drop(inner);
                io.hits += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PageGuard { pool: Arc::clone(self), key, data });
            }
        }
        // Miss: fault in *outside* the lock so concurrent faults of other
        // pages proceed. Two racers may both load; the second insert wins
        // the map slot and both serve identical data.
        io.misses += 1;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(load()?);
        let bytes = data.approx_bytes();
        let mut inner = self.inner.lock().map_err(|_| poisoned())?;
        match inner.frames.get_mut(&key) {
            Some(f) => {
                // Lost the race; pin the winner's frame.
                f.referenced = true;
                f.pins += 1;
                let data = Arc::clone(&f.data);
                drop(inner);
                return Ok(PageGuard { pool: Arc::clone(self), key, data });
            }
            None => {
                inner.frames.insert(
                    key,
                    Frame { data: Arc::clone(&data), bytes, referenced: true, pins: 1 },
                );
                inner.clock.push(key);
                inner.resident += bytes;
            }
        }
        self.evict_to_budget(&mut inner);
        drop(inner);
        Ok(PageGuard { pool: Arc::clone(self), key, data })
    }

    /// Clock sweep until the pool fits its budget (or everything left is
    /// pinned/referenced twice over — then we stop rather than spin).
    fn evict_to_budget(&self, inner: &mut Inner) {
        let mut sweeps = 0usize;
        let max_sweeps = inner.clock.len().saturating_mul(2) + 1;
        while inner.resident > self.budget && !inner.clock.is_empty() && sweeps < max_sweeps {
            if inner.hand >= inner.clock.len() {
                inner.hand = 0;
            }
            let key = inner.clock[inner.hand];
            let evict = match inner.frames.get_mut(&key) {
                Some(f) if f.pins > 0 => false,
                Some(f) if f.referenced => {
                    f.referenced = false;
                    false
                }
                Some(_) => true,
                None => {
                    // An entry without a frame breaks the invariant on
                    // `clock`; drop it rather than spin on it.
                    inner.clock.swap_remove(inner.hand);
                    sweeps += 1;
                    continue;
                }
            };
            if evict {
                if let Some(f) = inner.frames.remove(&key) {
                    inner.resident -= f.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                inner.clock.swap_remove(inner.hand);
            } else {
                inner.hand += 1;
            }
            sweeps += 1;
        }
    }

    /// Drop every cached page of `seg` (the file is going away), frames
    /// and clock entries alike: a pool that never goes over budget never
    /// sweeps, so nothing else would ever reclaim the entries. The hand
    /// keeps pointing at the entry it pointed at.
    pub fn forget_segment(&self, seg: SegmentId) {
        if let Ok(mut inner) = self.inner.lock() {
            let inner = &mut *inner;
            let (frames, resident) = (&mut inner.frames, &mut inner.resident);
            frames.retain(|k, f| {
                let keep = k.seg != seg;
                if !keep {
                    *resident -= f.bytes;
                }
                keep
            });
            let before_hand = inner.clock[..inner.hand.min(inner.clock.len())]
                .iter()
                .filter(|k| k.seg != seg)
                .count();
            inner.clock.retain(|k| k.seg != seg);
            inner.hand = before_hand;
        }
    }

    /// Entries on the clock. Always the resident page count: forgetting a
    /// segment takes its entries along, whether or not a sweep ever runs.
    pub fn clock_len(&self) -> usize {
        self.inner.lock().map_or(0, |inner| inner.clock.len())
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let (resident_bytes, resident_pages) = match self.inner.lock() {
            Ok(inner) => (inner.resident as u64, inner.frames.len() as u64),
            Err(_) => (0, 0),
        };
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            resident_pages,
            budget_bytes: self.budget as u64,
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufferPool {{ budget: {}, resident: {} pages / {} bytes, hits: {}, misses: {}, evictions: {} }}",
            self.budget, s.resident_pages, s.resident_bytes, s.hits, s.misses, s.evictions
        )
    }
}
