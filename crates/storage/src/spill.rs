//! Spill partitions: disk-backed working state for over-budget operators.
//!
//! When a hash join's build side or a grouping's hash table would blow the
//! executor's memory budget, the operator partitions its input by key hash
//! and *spills* the partitions to disk, then processes one partition at a
//! time — the classic Grace scheme. A [`SpillSet`] is one operator's
//! partition file: rows are appended per partition, flushed as
//! CRC-framed row pages, and read back **through the buffer pool**, so
//! repeated partition passes hit cache and spill I/O shows up in the same
//! `\pool` counters as segment scans.
//!
//! Spill files are transient: dropping the [`SpillSet`] deletes the file
//! and invalidates its pool pages. Deletion failures are counted on the
//! manager ([`SpillManager::cleanup_failures`]) instead of being silently
//! swallowed — a leaking spill directory is an operational signal.
//!
//! All I/O goes through a [`StorageEnv`]: an injected ENOSPC surfaces
//! from [`SpillSet::push`]/[`SpillSet::finish`] as a typed
//! [`decorr_common::Error::StorageFull`], on which the executor runs the
//! operator in memory instead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decorr_common::env::{EnvFile, StorageEnv};
use decorr_common::segcodec::{self, crc32};
use decorr_common::{Error, Result, Row};

use crate::pager::{BufferPool, PageData, PageIo, PageKey, SegmentId};

/// Rows buffered per partition before a page is flushed.
const SPILL_PAGE_ROWS: usize = 2048;

fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(b)
}

/// Hands out spill files under one directory, all reading through one
/// buffer pool.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    env: Arc<dyn StorageEnv>,
    pool: Arc<BufferPool>,
    /// Spill files whose deletion failed on drop (leaked until the next
    /// store open sweeps the directory).
    cleanup_failures: Arc<AtomicU64>,
}

impl SpillManager {
    /// Create (or reuse) `dir` as the spill directory.
    pub fn new(
        dir: impl Into<PathBuf>,
        env: Arc<dyn StorageEnv>,
        pool: Arc<BufferPool>,
    ) -> Result<SpillManager> {
        let dir = dir.into();
        env.create_dir_all(&dir)?;
        Ok(SpillManager { dir, env, pool, cleanup_failures: Arc::new(AtomicU64::new(0)) })
    }

    /// The pool spill pages fault through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The environment spill files live on.
    pub fn env(&self) -> &Arc<dyn StorageEnv> {
        &self.env
    }

    /// Spill files that could not be deleted when their set was dropped.
    pub fn cleanup_failures(&self) -> u64 {
        self.cleanup_failures.load(Ordering::Relaxed)
    }

    /// Start a new partition set with `parts` partitions.
    pub fn partition_set(&self, parts: usize) -> Result<SpillSet> {
        // Process-wide, not per manager: two managers sharing a directory
        // must never hand out the same file name.
        static NEXT_SPILL_FILE: AtomicU64 = AtomicU64::new(1);
        let n = NEXT_SPILL_FILE.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("spill-{}-{}.tmp", std::process::id(), n));
        let file = self.env.create(&path)?;
        Ok(SpillSet {
            path,
            env: Arc::clone(&self.env),
            file,
            seg: self.pool.register_segment(),
            pool: Arc::clone(&self.pool),
            cleanup_failures: Arc::clone(&self.cleanup_failures),
            parts: vec![Partition::default(); parts.max(1)],
            bufs: vec![Vec::new(); parts.max(1)],
            offset: 0,
            next_page: 0,
        })
    }
}

#[derive(Debug, Clone, Default)]
struct Partition {
    /// `(file offset, global page ordinal, rows)` of each flushed page.
    pages: Vec<(u64, u32, u32)>,
    rows: usize,
}

/// One operator's spilled partitions. Write phase: [`SpillSet::push`] rows
/// into partitions, then [`SpillSet::finish`]. Read phase:
/// [`SpillSet::read_partition`] streams one partition's rows back in
/// exactly the order they were pushed.
#[derive(Debug)]
pub struct SpillSet {
    path: PathBuf,
    env: Arc<dyn StorageEnv>,
    file: Box<dyn EnvFile>,
    seg: SegmentId,
    pool: Arc<BufferPool>,
    cleanup_failures: Arc<AtomicU64>,
    parts: Vec<Partition>,
    bufs: Vec<Vec<Row>>,
    offset: u64,
    next_page: u32,
}

impl SpillSet {
    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The spill file backing this set.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows pushed into partition `part` so far.
    pub fn partition_rows(&self, part: usize) -> usize {
        self.parts[part].rows
    }

    /// Append one row to a partition, flushing a page when the buffer
    /// fills.
    pub fn push(&mut self, part: usize, row: Row) -> Result<()> {
        self.bufs[part].push(row);
        self.parts[part].rows += 1;
        if self.bufs[part].len() >= SPILL_PAGE_ROWS {
            self.flush_partition(part)?;
        }
        Ok(())
    }

    /// Flush every partial page. Call once, after the last `push`.
    pub fn finish(&mut self) -> Result<()> {
        for part in 0..self.bufs.len() {
            if !self.bufs[part].is_empty() {
                self.flush_partition(part)?;
            }
        }
        Ok(())
    }

    fn flush_partition(&mut self, part: usize) -> Result<()> {
        let rows = std::mem::take(&mut self.bufs[part]);
        let payload = segcodec::encode_row_page(&rows);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all_at(self.offset, &frame)?;
        self.parts[part]
            .pages
            .push((self.offset, self.next_page, rows.len() as u32));
        self.offset += frame.len() as u64;
        self.next_page += 1;
        Ok(())
    }

    /// Read one partition's rows back, page by page through the buffer
    /// pool, in push order.
    pub fn read_partition(&self, part: usize, io: &mut PageIo) -> Result<Vec<Row>> {
        let meta = &self.parts[part];
        let mut out = Vec::with_capacity(meta.rows);
        for &(offset, page, _) in &meta.pages {
            let key = PageKey { seg: self.seg, page, col: 0 };
            let guard = self.pool.get_pinned(key, io, || {
                let mut head = [0u8; 8];
                self.file.read_exact_at(offset, &mut head)?;
                let len = le_u32(&head[..4]) as usize;
                let crc = le_u32(&head[4..]);
                let mut payload = vec![0u8; len];
                self.file.read_exact_at(offset + 8, &mut payload)?;
                if crc32(&payload) != crc {
                    return Err(Error::internal(format!(
                        "spill {}: page checksum mismatch",
                        self.path.display()
                    )));
                }
                Ok(PageData::Rows(segcodec::decode_row_page(&payload)?))
            })?;
            out.extend_from_slice(guard.data().as_rows()?);
        }
        Ok(out)
    }
}

impl Drop for SpillSet {
    fn drop(&mut self) {
        self.pool.forget_segment(self.seg);
        if self.env.remove_file(&self.path).is_err() && self.env.exists(&self.path) {
            // Count the leak instead of swallowing it: `\pool` and the
            // chaos harness report this so a filling spill dir is visible.
            self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}
