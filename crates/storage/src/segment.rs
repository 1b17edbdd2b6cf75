//! Columnar segment files.
//!
//! One segment file persists one table snapshot, transposed into paged,
//! per-column runs using the [`decorr_common::segcodec`] page codec:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "DSEGv01\n"                                            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ page 0, column 0   [len u32][crc32 u32][encoded column page] │
//! │ page 0, column 1   [len][crc][payload]                       │
//! │ …                                                            │
//! │ page 1, column 0   …          (pages are stripes of rows)    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer [len][crc][name, schema, key, row/page counts,        │
//! │                   page directory, per-page zone maps]        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer: footer offset (u64 LE) + magic "DSEGEND\n"          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every frame is CRC-32 protected, so a torn or bit-flipped page is a
//! typed error, never garbage rows. The footer is written last: a crash
//! mid-write leaves a file without a valid trailer, which `open` rejects —
//! segment files are only ever referenced by the WAL *after* they have
//! been fully written and fsynced. All I/O goes through a
//! [`StorageEnv`], so segment writes face the same injected ENOSPC and
//! torn-write faults as the WAL.

use std::path::{Path, PathBuf};

use decorr_common::env::{EnvFile, StorageEnv};
use decorr_common::segcodec::{self, crc32, put_string, put_varint, Cursor, ZoneMap};
use decorr_common::{Column, ColumnDef, DataType, Error, Result, Row, Schema, Value};

/// Rows per page stripe. 4096 keeps pages in the tens-of-KB range for
/// typical TPC-D columns — large enough to amortize frame overhead, small
/// enough that zone-map pruning has real resolution.
pub const DEFAULT_PAGE_ROWS: usize = 4096;

const MAGIC: &[u8; 8] = b"DSEGv01\n";
const END_MAGIC: &[u8; 8] = b"DSEGEND\n";

fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(b)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

/// A buffered sequential writer over an [`EnvFile`] (the streaming role
/// `BufWriter<File>` used to play).
struct EnvWriter<'a> {
    file: &'a dyn EnvFile,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    base: u64,
}

const WRITER_BUF: usize = 256 * 1024;

impl<'a> EnvWriter<'a> {
    fn new(file: &'a dyn EnvFile) -> EnvWriter<'a> {
        EnvWriter { file, buf: Vec::with_capacity(WRITER_BUF), base: 0 }
    }

    fn offset(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= WRITER_BUF {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all_at(self.base, &self.buf)?;
            self.base += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Frame `payload` as `[len][crc][payload]` and append it to `w`.
fn write_frame(w: &mut EnvWriter<'_>, payload: &[u8]) -> Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Decoded footer of a segment file.
#[derive(Debug)]
pub struct SegmentMeta {
    pub name: String,
    pub schema: Schema,
    pub key: Option<Vec<usize>>,
    pub row_count: usize,
    pub page_rows: usize,
    pub n_pages: usize,
    /// `(offset, len)` of each page frame, indexed `page * n_cols + col`.
    pages: Vec<(u64, u32)>,
    /// Zone maps, indexed `page * n_cols + col`.
    zones: Vec<ZoneMap>,
}

impl SegmentMeta {
    fn slot(&self, page: usize, col: usize) -> usize {
        page * self.schema.arity() + col
    }

    /// The zone map of one (page, column) cell.
    pub fn zone(&self, page: usize, col: usize) -> &ZoneMap {
        &self.zones[self.slot(page, col)]
    }

    /// Column-level zone map: every page's merged.
    pub fn column_zone(&self, col: usize) -> ZoneMap {
        let mut z = ZoneMap { min: Value::Null, max: Value::Null, null_count: 0, rows: 0 };
        for page in 0..self.n_pages {
            z.merge(self.zone(page, col));
        }
        z
    }

    /// Number of rows in page `page` (the last page may be short).
    pub fn page_len(&self, page: usize) -> usize {
        if page + 1 < self.n_pages {
            self.page_rows
        } else {
            self.row_count - self.page_rows * (self.n_pages - 1)
        }
    }
}

/// Write `rows` (already schema-checked by the source table) as a segment
/// file at `path`, fsyncing before returning. Returns the on-disk size.
pub fn write_segment(
    env: &dyn StorageEnv,
    path: &Path,
    name: &str,
    schema: &Schema,
    key: Option<&[usize]>,
    rows: &[Row],
    page_rows: usize,
) -> Result<u64> {
    let page_rows = page_rows.clamp(1, segcodec::MAX_PAGE_ROWS);
    let file = env.create(path)?;
    let mut w = EnvWriter::new(file.as_ref());
    w.write_all(MAGIC)?;
    let n_cols = schema.arity();
    let n_pages = rows.len().div_ceil(page_rows);
    let mut pages = Vec::with_capacity(n_pages * n_cols);
    let mut zones = Vec::with_capacity(n_pages * n_cols);
    let mut colbuf: Vec<Value> = Vec::with_capacity(page_rows);
    for chunk in rows.chunks(page_rows) {
        for col in 0..n_cols {
            colbuf.clear();
            colbuf.extend(chunk.iter().map(|r| r[col].clone()));
            zones.push(ZoneMap::build(&colbuf));
            let payload = segcodec::encode_column_page(&colbuf);
            let offset = w.offset();
            write_frame(&mut w, &payload)?;
            pages.push((offset, payload.len() as u32));
        }
    }

    // Footer.
    let mut footer = Vec::new();
    put_string(&mut footer, name);
    put_varint(&mut footer, n_cols as u64);
    for c in schema.columns() {
        put_string(&mut footer, &c.name);
        footer.push(match c.ty {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Double => 2,
            DataType::Str => 3,
        });
    }
    match key {
        None => put_varint(&mut footer, 0),
        Some(cols) => {
            put_varint(&mut footer, 1);
            put_varint(&mut footer, cols.len() as u64);
            for &c in cols {
                put_varint(&mut footer, c as u64);
            }
        }
    }
    put_varint(&mut footer, rows.len() as u64);
    put_varint(&mut footer, page_rows as u64);
    put_varint(&mut footer, n_pages as u64);
    for (off, len) in &pages {
        put_varint(&mut footer, *off);
        put_varint(&mut footer, *len as u64);
    }
    for z in &zones {
        z.encode(&mut footer);
    }
    let footer_offset = w.offset();
    write_frame(&mut w, &footer)?;
    w.write_all(&footer_offset.to_le_bytes())?;
    w.write_all(END_MAGIC)?;
    w.flush()?;
    file.sync_all()?;
    file.len()
}

/// An open segment file: parsed footer plus a shareable read handle.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    file: Box<dyn EnvFile>,
    meta: SegmentMeta,
}

impl SegmentReader {
    /// Open and validate `path`: magic, trailer, footer CRC. A partially
    /// written or corrupted segment fails closed here.
    pub fn open(env: &dyn StorageEnv, path: &Path) -> Result<SegmentReader> {
        let file = env.open_read(path)?;
        let total = file.len()?;
        if total < (MAGIC.len() + 16 + 8) as u64 {
            return Err(Error::internal(format!(
                "segment {}: file too short",
                path.display()
            )));
        }
        let mut magic = [0u8; 8];
        file.read_exact_at(0, &mut magic)?;
        if &magic != MAGIC {
            return Err(Error::internal(format!(
                "segment {}: bad magic (not a segment file)",
                path.display()
            )));
        }
        let mut trailer = [0u8; 16];
        file.read_exact_at(total - 16, &mut trailer)?;
        if &trailer[8..] != END_MAGIC {
            return Err(Error::internal(format!(
                "segment {}: missing end marker (torn write?)",
                path.display()
            )));
        }
        let footer_offset = le_u64(&trailer[..8]);
        let footer = read_frame_at(file.as_ref(), path, footer_offset)?;
        let meta = parse_footer(&footer, path)?;
        Ok(SegmentReader { path: path.to_path_buf(), file, meta })
    }

    /// The parsed footer.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The file this reader is backed by.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read and decode one column page. CRC-checked.
    pub fn read_page(&self, page: usize, col: usize) -> Result<Column> {
        let (offset, _) = self.meta.pages[self.meta.slot(page, col)];
        let payload = read_frame_at(self.file.as_ref(), &self.path, offset)?;
        let values = segcodec::decode_column_page(&payload)?;
        if values.len() != self.meta.page_len(page) {
            return Err(Error::internal(format!(
                "segment {}: page {page} col {col} row count mismatch",
                self.path.display()
            )));
        }
        Ok(values)
    }
}

fn read_frame_at(file: &dyn EnvFile, path: &Path, offset: u64) -> Result<Vec<u8>> {
    let mut head = [0u8; 8];
    file.read_exact_at(offset, &mut head)?;
    let len = le_u32(&head[..4]) as usize;
    let crc = le_u32(&head[4..]);
    if len > (1 << 30) {
        return Err(Error::internal(format!(
            "segment {}: implausible frame length {len}",
            path.display()
        )));
    }
    let mut payload = vec![0u8; len];
    file.read_exact_at(offset + 8, &mut payload)?;
    if crc32(&payload) != crc {
        return Err(Error::internal(format!(
            "segment {}: frame checksum mismatch at offset {offset}",
            path.display()
        )));
    }
    Ok(payload)
}

fn parse_footer(footer: &[u8], path: &Path) -> Result<SegmentMeta> {
    let mut c = Cursor::new(footer);
    let name = c.string()?;
    let n_cols = c.varint()? as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let cname = c.string()?;
        let ty = match c.varint()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Double,
            3 => DataType::Str,
            t => {
                return Err(Error::internal(format!(
                    "segment {}: bad column type tag {t}",
                    path.display()
                )))
            }
        };
        cols.push(ColumnDef::new(cname, ty));
    }
    let schema = Schema::new(cols);
    let key = match c.varint()? {
        0 => None,
        _ => {
            let n = c.varint()? as usize;
            let mut k = Vec::with_capacity(n);
            for _ in 0..n {
                k.push(c.varint()? as usize);
            }
            Some(k)
        }
    };
    let row_count = c.varint()? as usize;
    let page_rows = (c.varint()? as usize).max(1);
    let n_pages = c.varint()? as usize;
    if n_pages != row_count.div_ceil(page_rows) {
        return Err(Error::internal(format!(
            "segment {}: inconsistent page count",
            path.display()
        )));
    }
    let mut pages = Vec::with_capacity(n_pages * n_cols);
    for _ in 0..n_pages * n_cols {
        let off = c.varint()?;
        let len = c.varint()? as u32;
        pages.push((off, len));
    }
    let mut zones = Vec::with_capacity(n_pages * n_cols);
    for _ in 0..n_pages * n_cols {
        zones.push(ZoneMap::decode(&mut c)?);
    }
    Ok(SegmentMeta { name, schema, key, row_count, page_rows, n_pages, pages, zones })
}
