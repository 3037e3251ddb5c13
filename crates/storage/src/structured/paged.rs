//! Paged checkpoint images behind the engine: B-tree table bases and the
//! merged base + overlay read path.
//!
//! A checkpoint image holds three B-trees per table (rows by row id,
//! primary keys, and one tree per secondary index), which makes it a
//! *random-access base*: [`super::engine::Database`] keeps each
//! table as a small in-memory **overlay** (rows written since the last
//! checkpoint, plus tombstones for deleted base rows) stacked on an
//! immutable [`TableBase`], and faults base pages through the image's
//! buffer pool on demand. Opening a database materializes no rows;
//! resident memory after `open` is bounded by the pool, not the corpus.
//!
//! Everything here is read-path plumbing shared by the live engine and
//! the MVCC [`super::view::TableView`]s, so both read worlds merge the
//! same way: overlay shadows base, tombstones hide base rows, row-id
//! order everywhere a heap scan used to be.
//!
//! The directory format is versioned: a `u64::MAX` sentinel, then the
//! version. The sentinel is impossible as the table count that opened the
//! retired v1 (heap-chain) directory, so a v1 image is recognized — and
//! refused — instead of being misread.

use crate::btree::{self, BTree, KeyOrder};
use crate::codec;
use crate::error::StorageError;
use crate::faultfs::StorageBackend;
use crate::page::NO_PAGE;
use crate::pager::{Pager, PoolStats};
use crate::value::Value;
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use super::index::SecondaryIndex;
use super::pmap::PMap;
use super::table::{Row, RowId, TableSchema};

/// First varint of a v2 directory. The retired v1 directory started with
/// its table count, which can never be `u64::MAX`.
const DIRECTORY_V2_SENTINEL: u64 = u64::MAX;
/// Directory format version written after the sentinel.
const DIRECTORY_V2_VERSION: u64 = 2;

/// One open checkpoint image: a paged file plus the buffer pool its
/// readers share. All tables of a checkpoint share one image (and one
/// pool), mirroring how they share the file.
pub(crate) struct CheckpointImage {
    /// The pager; a mutex because reads go through the LRU pool.
    pub(crate) pager: Mutex<Pager>,
}

impl std::fmt::Debug for CheckpointImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointImage").finish()
    }
}

impl CheckpointImage {
    /// Open the image at `path` with a bounded buffer pool.
    pub(crate) fn open(
        backend: &dyn StorageBackend,
        path: &Path,
        pool_pages: usize,
    ) -> Result<CheckpointImage> {
        Ok(CheckpointImage { pager: Mutex::new(Pager::open(backend, path, pool_pages)?) })
    }

    /// Buffer-pool counters (bench/diagnostics).
    pub(crate) fn pool_stats(&self) -> PoolStats {
        self.pager.lock().pool_stats()
    }

    /// Pages currently cached by the pool (bench/diagnostics).
    pub(crate) fn cached_pages(&self) -> usize {
        self.pager.lock().cached_pages()
    }
}

/// Tree roots and statistics of one secondary index inside an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexMeta {
    /// Root page of the `(value, row id)` tree.
    pub(crate) root: u32,
    /// Distinct indexed values at checkpoint time (planner estimate).
    pub(crate) distinct: u64,
}

/// Tree roots and counters of one table inside an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BaseMeta {
    /// Root of the row tree: `row id → encoded row`.
    pub(crate) row_root: u32,
    /// Root of the primary-key tree: `pk values → row id`.
    pub(crate) pk_root: u32,
    /// Live rows in the image.
    pub(crate) nrows: u64,
    /// Row-id allocator floor: fresh inserts start here.
    pub(crate) next_row: u64,
    /// Column name → secondary-index tree.
    pub(crate) indexes: HashMap<String, IndexMeta>,
}

/// One table's slice of a checkpoint image: the shared image handle plus
/// this table's tree roots. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub(crate) struct TableBase {
    pub(crate) image: Arc<CheckpointImage>,
    pub(crate) meta: Arc<BaseMeta>,
}

impl TableBase {
    /// Point lookup in the row tree.
    pub(crate) fn get_row(&self, id: RowId) -> Result<Option<Row>> {
        if self.meta.row_root == NO_PAGE {
            return Ok(None);
        }
        let mut pg = self.image.pager.lock();
        let tree = BTree::open(self.meta.row_root, KeyOrder::RowId);
        match tree.lookup(&mut pg, &btree::row_key(id.0))? {
            Some(bytes) => Ok(Some(decode_base_row(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Point lookup in the primary-key tree.
    pub(crate) fn lookup_pk(&self, key: &[Value]) -> Result<Option<RowId>> {
        if self.meta.pk_root == NO_PAGE {
            return Ok(None);
        }
        let mut pg = self.image.pager.lock();
        let tree = BTree::open(self.meta.pk_root, KeyOrder::PkValues);
        match tree.lookup(&mut pg, &btree::pk_key(key)?)? {
            Some(bytes) => Ok(Some(decode_row_id(&bytes)?)),
            None => Ok(None),
        }
    }
}

/// Encode a row as a row-tree value.
pub(crate) fn encode_base_row(row: &Row) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    codec::write_row(&mut out, row)?;
    Ok(out)
}

/// Decode a row-tree value, rejecting trailing bytes.
fn decode_base_row(bytes: &[u8]) -> Result<Row> {
    let pos = &mut 0usize;
    let row = codec::read_row(bytes, pos)?;
    if *pos != bytes.len() {
        return Err(StorageError::Corrupt("base row value has trailing bytes".into()));
    }
    Ok(row)
}

/// Decode a pk-tree value (a row id), rejecting trailing bytes.
fn decode_row_id(bytes: &[u8]) -> Result<RowId> {
    let pos = &mut 0usize;
    let id = codec::read_u64(bytes, pos)?;
    if *pos != bytes.len() {
        return Err(StorageError::Corrupt("pk value has trailing bytes".into()));
    }
    Ok(RowId(id))
}

fn page_id(v: u64, what: &str) -> Result<u32> {
    u32::try_from(v)
        .map_err(|_| StorageError::Corrupt(format!("{what} {v} overflows the page-id range")))
}

// ---------------------------------------------------------------------
// Directory v2
// ---------------------------------------------------------------------

/// One table's directory entry in a v2 image.
#[derive(Debug, Clone)]
pub(crate) struct DirectoryEntry {
    pub(crate) schema: TableSchema,
    pub(crate) meta: BaseMeta,
}

/// Encode a v2 directory (sentinel, version, then per-table schema +
/// tree roots). Index entries are written sorted by column name so the
/// byte stream is deterministic under the crash sweeps.
pub(crate) fn encode_directory_v2(entries: &[DirectoryEntry]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    codec::write_u64(&mut out, DIRECTORY_V2_SENTINEL)?;
    codec::write_u64(&mut out, DIRECTORY_V2_VERSION)?;
    codec::write_u64(&mut out, entries.len() as u64)?;
    for e in entries {
        codec::write_schema(&mut out, &e.schema)?;
        codec::write_u64(&mut out, u64::from(e.meta.row_root))?;
        codec::write_u64(&mut out, u64::from(e.meta.pk_root))?;
        codec::write_u64(&mut out, e.meta.nrows)?;
        codec::write_u64(&mut out, e.meta.next_row)?;
        let mut cols: Vec<&String> = e.meta.indexes.keys().collect();
        cols.sort();
        codec::write_u64(&mut out, cols.len() as u64)?;
        for col in cols {
            let im = &e.meta.indexes[col];
            codec::write_str(&mut out, col)?;
            codec::write_u64(&mut out, u64::from(im.root))?;
            codec::write_u64(&mut out, im.distinct)?;
        }
    }
    Ok(out)
}

/// Decode a v2 directory. Anything else is refused; bytes that open with
/// a plausible table count are named as the v1 (heap-chain) layout they
/// look like.
pub(crate) fn decode_directory_v2(dir: &[u8]) -> Result<Vec<DirectoryEntry>> {
    let pos = &mut 0usize;
    let first = codec::read_u64(dir, pos)?;
    if first != DIRECTORY_V2_SENTINEL {
        return Err(StorageError::Corrupt(format!(
            "checkpoint directory lacks the v2 sentinel: it looks like a v1 heap-chain \
             directory of {first} tables, which is no longer readable"
        )));
    }
    let version = codec::read_u64(dir, pos)?;
    if version != DIRECTORY_V2_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unknown checkpoint directory version {version}"
        )));
    }
    let ntables = codec::read_u64(dir, pos)? as usize;
    let mut entries = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let schema = codec::read_schema(dir, pos)?;
        let row_root = page_id(codec::read_u64(dir, pos)?, "row-tree root")?;
        let pk_root = page_id(codec::read_u64(dir, pos)?, "pk-tree root")?;
        let nrows = codec::read_u64(dir, pos)?;
        let next_row = codec::read_u64(dir, pos)?;
        let nindexes = codec::read_u64(dir, pos)? as usize;
        let mut indexes = HashMap::with_capacity(nindexes);
        for _ in 0..nindexes {
            let col = codec::read_str(dir, pos)?;
            let root = page_id(codec::read_u64(dir, pos)?, "index-tree root")?;
            let distinct = codec::read_u64(dir, pos)?;
            indexes.insert(col, IndexMeta { root, distinct });
        }
        entries.push(DirectoryEntry {
            schema,
            meta: BaseMeta { row_root, pk_root, nrows, next_row, indexes },
        });
    }
    if *pos != dir.len() {
        return Err(StorageError::Corrupt("checkpoint directory has trailing bytes".into()));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Merged reads
// ---------------------------------------------------------------------

/// Stream every live row in row-id order: the base image's row tree
/// merged with the overlay, which is already in that order. Overlay rows
/// shadow base rows with the same id; tombstoned base rows are skipped.
/// Base pages fault through the image's buffer pool, so peak memory is
/// one row plus the pool — never the table.
pub(crate) fn for_each_live_row(
    base: Option<&TableBase>,
    overlay: &PMap<RowId, Row>,
    tombstones: &PMap<RowId, ()>,
    f: &mut dyn FnMut(RowId, &Row) -> Result<()>,
) -> Result<()> {
    let mut overlay = overlay.iter().peekable();
    if let Some(b) = base {
        if b.meta.row_root != NO_PAGE {
            let mut pg = b.image.pager.lock();
            let tree = BTree::open(b.meta.row_root, KeyOrder::RowId);
            let mut cur = tree.cursor_first(&mut pg)?;
            while let Some((k, v)) = cur.next(&mut pg)? {
                let id = RowId(btree::decode_row_key(&k)?);
                while let Some((oid, row)) = overlay.next_if(|(oid, _)| **oid < id) {
                    f(*oid, row)?;
                }
                if let Some((_, row)) = overlay.next_if(|(oid, _)| **oid == id) {
                    f(id, row)?; // overlay shadows base
                    continue;
                }
                if tombstones.contains_key(&id) {
                    continue;
                }
                let row = decode_base_row(&v)?;
                f(id, &row)?;
            }
        }
    }
    overlay.try_for_each(|(id, row)| f(*id, row))
}

/// Candidate row ids for an index probe over `[lo, hi]` (inclusive,
/// either bound optional), merged from the base index tree and the
/// overlay index in **(value, row-id) order**. `shadowed` filters stale
/// base entries: a base row that was updated or deleted since the
/// checkpoint is represented by the overlay (or by nothing), never by
/// its old base index entry.
pub(crate) fn merged_index_ids(
    base: Option<&TableBase>,
    column: &str,
    overlay: &SecondaryIndex,
    shadowed: &dyn Fn(RowId) -> bool,
    lo: Option<&Value>,
    hi: Option<&Value>,
) -> Result<Vec<RowId>> {
    let mut over = overlay.range(lo, hi).peekable();
    let mut out = Vec::new();
    // Without a base tree for this column (in-memory table, or an index
    // created after the checkpoint and backfilled into the overlay) the
    // overlay is the whole answer.
    let base_ix = base.and_then(|b| b.meta.indexes.get(column).map(|m| (b, m)));
    if let Some((b, m)) = base_ix.filter(|(_, m)| m.root != NO_PAGE) {
        let mut pg = b.image.pager.lock();
        let tree = BTree::open(m.root, KeyOrder::ValueRowId);
        let mut cur = match lo {
            Some(v) => tree.cursor_seek(&mut pg, &btree::index_key(v, 0)?)?,
            None => tree.cursor_first(&mut pg)?,
        };
        while let Some((k, _)) = cur.next(&mut pg)? {
            let (val, rid) = btree::decode_index_key(&k)?;
            if hi.is_some_and(|hi| &val > hi) {
                break;
            }
            let id = RowId(rid);
            while let Some((_, oid)) = over.next_if(|(ov, oid)| (ov, *oid) < (&val, id)) {
                out.push(*oid);
            }
            if !shadowed(id) {
                out.push(id);
            }
        }
    }
    out.extend(over.map(|(_, id)| *id));
    Ok(out)
}

// ---------------------------------------------------------------------
// Image construction
// ---------------------------------------------------------------------

/// Build one table's trees inside the image under construction and
/// return their roots. Rows stream in row-id order from the merged
/// live-row iterator (so the row tree takes the append-optimized split
/// path), while pk and index keys arrive in row-id order — effectively
/// random key order — exercising real mid-node splits under the crash
/// sweeps. Distinct-value counts fall out of the index trees' group
/// accounting as they build.
pub(crate) fn build_table_trees(
    pager: &mut Pager,
    schema: &TableSchema,
    base: Option<&TableBase>,
    overlay: &PMap<RowId, Row>,
    tombstones: &PMap<RowId, ()>,
    next_row: u64,
) -> Result<BaseMeta> {
    let mut row_tree = BTree::create(pager, KeyOrder::RowId)?;
    let mut pk_tree = BTree::create(pager, KeyOrder::PkValues)?;
    let mut ix_cols: Vec<String> = schema.indexes.clone();
    ix_cols.sort();
    let mut ix_trees = Vec::with_capacity(ix_cols.len());
    for col in &ix_cols {
        let ci = schema.column_index(col).ok_or_else(|| {
            StorageError::Corrupt(format!("indexed column {col} missing from schema"))
        })?;
        ix_trees.push((col.clone(), ci, BTree::create(pager, KeyOrder::ValueRowId)?, 0u64));
    }
    let mut nrows = 0u64;
    let mut idbuf = Vec::new();
    for_each_live_row(base, overlay, tombstones, &mut |id, row| {
        row_tree.insert(pager, &btree::row_key(id.0), &encode_base_row(row)?)?;
        idbuf.clear();
        codec::write_u64(&mut idbuf, id.0)?;
        pk_tree.insert(pager, &btree::pk_key(&schema.key_of(row))?, &idbuf)?;
        for (col, ci, tree, distinct) in ix_trees.iter_mut() {
            let value = row.get(*ci).ok_or_else(|| {
                StorageError::Corrupt(format!("row {id:?} is missing indexed column {col}"))
            })?;
            let out = tree.insert(pager, &btree::index_key(value, id.0)?, &[])?;
            if out.new_group {
                *distinct += 1;
            }
        }
        nrows += 1;
        Ok(())
    })?;
    let indexes = ix_trees
        .into_iter()
        .map(|(col, _, tree, distinct)| (col, IndexMeta { root: tree.root(), distinct }))
        .collect();
    Ok(BaseMeta { row_root: row_tree.root(), pk_root: pk_tree.root(), nrows, next_row, indexes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::RealBackend;
    use crate::structured::table::Column;
    use crate::value::DataType;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-paged-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.qpg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![Column::new("k", DataType::Text), Column::new("n", DataType::Int)],
            &["k"],
            &["n"],
        )
        .unwrap()
    }

    #[test]
    fn directory_v2_round_trips_and_v1_is_refused() {
        let entries = vec![DirectoryEntry {
            schema: schema(),
            meta: BaseMeta {
                row_root: 3,
                pk_root: 7,
                nrows: 42,
                next_row: 50,
                indexes: HashMap::from([("n".to_string(), IndexMeta { root: 9, distinct: 12 })]),
            },
        }];
        let bytes = encode_directory_v2(&entries).unwrap();
        let back = decode_directory_v2(&bytes).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].meta, entries[0].meta);
        assert_eq!(back[0].schema.name, "t");

        // A v1 directory (plain table count first) is named and refused.
        let mut v1 = Vec::new();
        codec::write_u64(&mut v1, 1).unwrap();
        let err = decode_directory_v2(&v1).unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains("v1 heap-chain")), "{err}");
    }

    #[test]
    fn build_and_merge_round_trip() {
        let p = tmp("build");
        let sch = schema();
        let rows: Vec<(RowId, Row)> = (0..500u64)
            .map(|i| (RowId(i), vec![Value::Text(format!("k{i:04}")), Value::Int((i % 7) as i64)]))
            .collect();
        let mut heap = PMap::new();
        for (id, row) in &rows {
            heap.insert(*id, row.clone());
        }
        let meta = {
            let mut pager = Pager::create(&RealBackend, &p, 8).unwrap();
            let meta = build_table_trees(&mut pager, &sch, None, &heap, &PMap::new(), 500).unwrap();
            pager.flush().unwrap();
            meta
        };
        assert_eq!(meta.nrows, 500);
        assert_eq!(meta.indexes["n"].distinct, 7);

        let image = Arc::new(CheckpointImage::open(&RealBackend, &p, 8).unwrap());
        let base = TableBase { image, meta: Arc::new(meta) };
        // Point reads.
        assert_eq!(base.get_row(RowId(123)).unwrap().unwrap(), rows[123].1);
        assert!(base.get_row(RowId(999)).unwrap().is_none());
        assert_eq!(base.lookup_pk(&[Value::Text("k0042".into())]).unwrap(), Some(RowId(42)));
        assert_eq!(base.lookup_pk(&[Value::Text("nope".into())]).unwrap(), None);

        // Merged scan with an overlay shadowing one row, adding one, and a
        // tombstone deleting another.
        let shadow: Row = vec![Value::Text("k0010".into()), Value::Int(99)];
        let fresh: Row = vec![Value::Text("zz".into()), Value::Int(1)];
        let mut overlay = PMap::new();
        overlay.insert(RowId(700), fresh);
        overlay.insert(RowId(10), shadow);
        let mut tomb = PMap::new();
        tomb.insert(RowId(20), ());
        let mut seen = Vec::new();
        for_each_live_row(Some(&base), &overlay, &tomb, &mut |id, row| {
            seen.push((id, row.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 500); // 500 - 1 tombstone + 1 fresh
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "row-id order");
        assert!(!seen.iter().any(|(id, _)| *id == RowId(20)));
        assert_eq!(seen.iter().find(|(id, _)| *id == RowId(10)).unwrap().1[1], Value::Int(99));
        assert_eq!(seen.last().unwrap().0, RowId(700));

        // Merged index probe: base entries minus shadowed/tombstoned plus
        // overlay entries, in (value, row-id) order.
        let mut over_ix = SecondaryIndex::new();
        over_ix.insert(Value::Int(99), RowId(10));
        over_ix.insert(Value::Int(1), RowId(700));
        let shadowed = |id: RowId| id == RowId(10) || id == RowId(20);
        let ids = merged_index_ids(
            Some(&base),
            "n",
            &over_ix,
            &shadowed,
            Some(&Value::Int(1)),
            Some(&Value::Int(1)),
        )
        .unwrap();
        // Base rows with n == 1 are the ids ≡ 1 (mod 7), none of them
        // shadowed; plus overlay RowId(700).
        assert!(ids.contains(&RowId(1)) && ids.contains(&RowId(8)) && ids.contains(&RowId(700)));
        assert!(!ids.contains(&RowId(10)) && !ids.contains(&RowId(20)));
        assert_eq!(ids.len(), (0..500u64).filter(|i| i % 7 == 1).count() + 1);

        std::fs::remove_file(&p).unwrap();
    }
}
