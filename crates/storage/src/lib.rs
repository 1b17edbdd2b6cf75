//! Relational storage: tables, indexes, catalog, and the disk subsystem.
//!
//! This crate is the storage substrate under the query engine. Base tables
//! carry declared schemas and optional primary keys (key information feeds
//! the `OptMag` supplementary-table optimization and Dayal's
//! `GROUP BY key` rewrite), plus **hash indexes** on arbitrary column sets,
//! because the paper's Figures 5–7 hinge on whether the correlated subquery
//! can use an index ("we dropped the index on the ps_suppkey column ...
//! increasing the work performed in each correlated invocation") — and the
//! ability to *drop* an index to reproduce Figure 7.
//!
//! On top of the in-memory tables sits a disk tier:
//!
//! * [`segment`] — immutable paged columnar segment files with per-page
//!   zone maps (RLE / frame-of-reference bit-packing for ints, dictionary
//!   pages for strings),
//! * [`pager`] — a fixed-budget buffer pool of decoded pages with clock
//!   eviction and pin/unpin guards,
//! * [`spill`] — disk-backed partition sets for over-budget hash joins and
//!   groupings, read back through the same pool,
//! * [`wal`] + [`manifest`] + [`persist`] — checksummed write-ahead logging
//!   of catalog epochs with checkpointing and fail-closed crash recovery.

pub mod catalog;
pub mod index;
pub mod manifest;
pub mod pager;
pub mod persist;
pub mod segment;
pub mod spill;
pub mod table;
pub mod wal;

pub use catalog::Database;
pub use index::HashIndex;
pub use pager::{BufferPool, PageData, PageIo, PageKey, PoolStats, SegmentId};
pub use persist::{Checkpoint, PersistentStore, Recovered, StoreOptions};
pub use segment::{write_segment, SegmentMeta, SegmentReader, DEFAULT_PAGE_ROWS};
pub use spill::{SpillManager, SpillSet};
pub use table::{Bound, PagedBacking, Stripe, Stripes, Table};
