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
//! The merges here are shared by the live engine, the MVCC
//! [`super::view::TableView`]s and the builder of the next image, so all
//! three see a table the same way: overlay shadows base, tombstones hide
//! base rows, row-id order everywhere a heap scan used to be.
//!
//! **Building an image is a sequence of sorted appends.**
//! [`build_table_trees`] fills one tree at a time, each from a stream in
//! that tree's own key order: the merges below already yield rows by id
//! and index entries by `(value, row id)`, and primary keys come from the
//! base image's pk tree merged with the overlay's keys, sorted once. Each
//! stream feeds a [`Builder`], which appends every entry to the page under
//! construction at its level's right edge and hands a page to the pool
//! once, full: nothing is searched or read back, each page is written
//! once, and the file is the one in-order `BTree::insert`s would leave. A
//! stream out of key order fails the build as `Corrupt`, before anything
//! is published.
//!
//! The directory format is versioned: a `u64::MAX` sentinel, then the
//! version. The sentinel is impossible as the table count that opened the
//! retired v1 (heap-chain) directory, so a v1 image is recognized — and
//! refused — instead of being misread.

use crate::btree::{self, BTree, Builder, Cursor, KeyOrder};
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

    /// `cursor`'s next entry, read under the pager lock for this one step
    /// only. A merge that hands each entry to a callback steps through
    /// here, so a checkpoint build pushing into (and writing out) the
    /// next image never keeps readers of this one waiting.
    fn step(&self, cursor: &mut Cursor) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        cursor.next(&mut self.pager.lock())
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

    /// Point lookup in the primary-key tree of a key encoded as by
    /// [`btree::pk_key`].
    pub(crate) fn lookup_pk(&self, key: &[u8]) -> Result<Option<RowId>> {
        if self.meta.pk_root == NO_PAGE {
            return Ok(None);
        }
        let mut pg = self.image.pager.lock();
        let tree = BTree::open(self.meta.pk_root, KeyOrder::PkValues);
        match tree.lookup(&mut pg, key)? {
            Some(bytes) => Ok(Some(decode_row_id(&bytes)?)),
            None => Ok(None),
        }
    }
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
    if let Some(b) = base.filter(|b| b.meta.row_root != NO_PAGE) {
        let tree = BTree::open(b.meta.row_root, KeyOrder::RowId);
        let mut cur = tree.cursor_first(&mut b.image.pager.lock())?;
        while let Some((k, v)) = b.image.step(&mut cur)? {
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
    overlay.try_for_each(|(id, row)| f(*id, row))
}

/// Stream the `(value, row id)` entries of the index on `column` whose
/// value lies in `[lo, hi]` (inclusive, either bound optional), merged
/// from the base index tree and the overlay index in **(value, row-id)
/// order**. `shadowed` filters stale base entries: a base row that was
/// updated or deleted since the checkpoint is represented by the overlay
/// (or by nothing), never by its old base index entry.
pub(crate) fn for_each_index_entry(
    base: Option<&TableBase>,
    column: &str,
    overlay: &SecondaryIndex,
    shadowed: &dyn Fn(RowId) -> bool,
    (lo, hi): (Option<&Value>, Option<&Value>),
    f: &mut dyn FnMut(&Value, RowId) -> Result<()>,
) -> Result<()> {
    let mut over = overlay.range(lo, hi).peekable();
    // Without a base tree for this column (in-memory table, or an index
    // created after the checkpoint and backfilled into the overlay) the
    // overlay is the whole answer.
    let base_ix = base.and_then(|b| b.meta.indexes.get(column).map(|m| (b, m)));
    if let Some((b, m)) = base_ix.filter(|(_, m)| m.root != NO_PAGE) {
        let tree = BTree::open(m.root, KeyOrder::ValueRowId);
        let mut cur = match lo {
            Some(v) => tree.cursor_seek(&mut b.image.pager.lock(), &btree::index_key(v, 0)?)?,
            None => tree.cursor_first(&mut b.image.pager.lock())?,
        };
        while let Some((k, _)) = b.image.step(&mut cur)? {
            let (val, rid) = btree::decode_index_key(&k)?;
            if hi.is_some_and(|hi| &val > hi) {
                break;
            }
            let id = RowId(rid);
            while let Some((ov, oid)) = over.next_if(|(ov, oid)| (ov, *oid) < (&val, id)) {
                f(ov, *oid)?;
            }
            if !shadowed(id) {
                f(&val, id)?;
            }
        }
    }
    over.try_for_each(|(ov, oid)| f(ov, *oid))
}

// ---------------------------------------------------------------------
// Image construction
// ---------------------------------------------------------------------

/// Build one table's trees inside the image under construction and
/// return their roots: the row tree, then the primary-key tree, then one
/// tree per secondary index (`indexes` are the overlay's, one per name in
/// `schema.indexes`), each streamed in its own key order through a
/// [`Builder`] before the next is begun (see the module doc).
/// Distinct-value counts are the groups the index trees' builders open.
pub(crate) fn build_table_trees(
    pager: &mut Pager,
    schema: &TableSchema,
    base: Option<&TableBase>,
    overlay: &PMap<RowId, Row>,
    tombstones: &PMap<RowId, ()>,
    indexes: &[SecondaryIndex],
    next_row: u64,
) -> Result<BaseMeta> {
    // Every key and value is encoded into these two, over and over.
    let (mut key, mut val) = (Vec::new(), Vec::new());

    let mut row_tree = Builder::new(pager, KeyOrder::RowId)?;
    let mut nrows = 0u64;
    for_each_live_row(base, overlay, tombstones, &mut |id, row| {
        btree::write_row_key(&mut key, id.0)?;
        val.clear();
        codec::write_row(&mut val, row)?;
        row_tree.push(pager, &key, &val)?;
        nrows += 1;
        Ok(())
    })?;
    let row_root = row_tree.finish(pager)?.root();

    let shadowed = |id: RowId| overlay.contains_key(&id) || tombstones.contains_key(&id);
    let pk_root = build_pk_tree(pager, schema, base, overlay, &shadowed, (&mut key, &mut val))?;

    let mut by_name: Vec<(&String, &SecondaryIndex)> = schema.indexes.iter().zip(indexes).collect();
    by_name.sort_by_key(|(column, _)| *column);
    let mut index_metas = HashMap::with_capacity(by_name.len());
    for (column, overlay_ix) in by_name {
        let mut tree = Builder::new(pager, KeyOrder::ValueRowId)?;
        let mut distinct = 0u64;
        let mut append = |value: &Value, id: RowId| {
            btree::write_index_key(&mut key, value, id.0)?;
            distinct += u64::from(tree.push(pager, &key, &[])?);
            Ok(())
        };
        for_each_index_entry(base, column, overlay_ix, &shadowed, (None, None), &mut append)?;
        let root = tree.finish(pager)?.root();
        index_metas.insert(column.clone(), IndexMeta { root, distinct });
    }
    Ok(BaseMeta { row_root, pk_root, nrows, next_row, indexes: index_metas })
}

/// The primary-key tree of [`build_table_trees`], filled in key order:
/// the base image's pk entries that `shadowed` lets through, merged with
/// the overlay rows' keys. Only references to the overlay rows are sorted
/// — by the `Value` order of their key columns, which is the tree's — and
/// each key is encoded when its turn comes.
fn build_pk_tree(
    pager: &mut Pager,
    schema: &TableSchema,
    base: Option<&TableBase>,
    overlay: &PMap<RowId, Row>,
    shadowed: &dyn Fn(RowId) -> bool,
    (key, val): (&mut Vec<u8>, &mut Vec<u8>),
) -> Result<u32> {
    let mut tree = Builder::new(pager, KeyOrder::PkValues)?;
    let mut fresh: Vec<(RowId, &Row)> = overlay.iter().map(|(id, row)| (*id, row)).collect();
    fresh.sort_unstable_by(|(_, a), (_, b)| {
        schema.key.iter().map(|&c| a.get(c)).cmp(schema.key.iter().map(|&c| b.get(c)))
    });
    let mut fresh = fresh.into_iter();
    // The next overlay row to place; `key` holds its encoded key.
    let mut advance = |key: &mut Vec<u8>| match fresh.next() {
        Some((id, row)) => btree::write_pk_key(key, row, &schema.key).map(|()| Some(id)),
        None => Ok(None),
    };
    let mut head = advance(key)?;

    let mut base_entries = match base.filter(|b| b.meta.pk_root != NO_PAGE) {
        Some(b) => {
            let tree = BTree::open(b.meta.pk_root, KeyOrder::PkValues);
            Some((&b.image, tree.cursor_first(&mut b.image.pager.lock())?))
        }
        None => None,
    };
    loop {
        // The next base entry still live, or `None` once the base is spent.
        let mut kept = None;
        if let Some((image, cursor)) = &mut base_entries {
            while let Some((k, v)) = image.step(cursor)? {
                if !shadowed(decode_row_id(&v)?) {
                    kept = Some((k, v));
                    break;
                }
            }
        }
        while let Some(id) = head {
            let before_base = match &kept {
                Some((k, _)) => KeyOrder::PkValues.compare(key, k)? == std::cmp::Ordering::Less,
                None => true,
            };
            if !before_base {
                break;
            }
            val.clear();
            codec::write_u64(val, id.0)?;
            tree.push(pager, key, val)?;
            head = advance(key)?;
        }
        let Some((k, v)) = kept else { break };
        tree.push(pager, &k, &v)?;
    }
    Ok(tree.finish(pager)?.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{FaultBackend, Op, RealBackend};
    use crate::page::{PageType, PAGE_CAPACITY, PAGE_SIZE};
    use crate::structured::overlay::Table;
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
            let mut by_n = SecondaryIndex::new();
            rows.iter().for_each(|(id, row)| by_n.insert(&row[1], *id));
            let meta = build_table_trees(&mut pager, &sch, None, &heap, &PMap::new(), &[by_n], 500)
                .unwrap();
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
        let pk = |k: &str| btree::pk_key(&[Value::Text(k.into())]).unwrap();
        assert_eq!(base.lookup_pk(&pk("k0042")).unwrap(), Some(RowId(42)));
        assert_eq!(base.lookup_pk(&pk("nope")).unwrap(), None);

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
        over_ix.insert(&Value::Int(99), RowId(10));
        over_ix.insert(&Value::Int(1), RowId(700));
        let shadowed = |id: RowId| id == RowId(10) || id == RowId(20);
        let mut ids = Vec::new();
        let one = Value::Int(1);
        for_each_index_entry(
            Some(&base),
            "n",
            &over_ix,
            &shadowed,
            (Some(&one), Some(&one)),
            &mut |value, id| {
                assert_eq!(value, &one);
                ids.push(id);
                Ok(())
            },
        )
        .unwrap();
        // Base rows with n == 1 are the ids ≡ 1 (mod 7), none of them
        // shadowed; plus overlay RowId(700).
        assert!(ids.contains(&RowId(1)) && ids.contains(&RowId(8)) && ids.contains(&RowId(700)));
        assert!(!ids.contains(&RowId(10)) && !ids.contains(&RowId(20)));
        assert_eq!(ids.len(), (0..500u64).filter(|i| i % 7 == 1).count() + 1);

        std::fs::remove_file(&p).unwrap();
    }

    /// `t(k Text PK, n Int indexed, s Text indexed)`: 5 000 values of `n`
    /// and 97 of `s`, both scattered over the row ids, and keys whose order
    /// is not the row ids' either.
    fn scattered_row(i: u64) -> Row {
        vec![
            Value::Text(format!("k{:07}", i.wrapping_mul(7_919) % 1_000_003)),
            Value::Int((i.wrapping_mul(31) % 5_000) as i64),
            Value::Text(format!("s{:02}", i.wrapping_mul(13) % 97)),
        ]
    }

    fn scattered_table(rows: u64) -> Table {
        let columns = vec![
            Column::new("k", DataType::Text),
            Column::new("n", DataType::Int),
            Column::new("s", DataType::Text),
        ];
        let schema = TableSchema::new("t", columns, &["k"], &["s", "n"]).unwrap();
        let mut t = Table::new(schema);
        (0..rows).for_each(|i| insert_scattered(&mut t, i));
        t
    }

    /// Insert row `i` of [`scattered_row`] under row id `i`.
    fn insert_scattered(t: &mut Table, i: u64) {
        let row = scattered_row(i);
        t.apply_insert(RowId(i), t.pk_hash(&row), row).unwrap();
    }

    /// Build `t`'s trees through a pool of `pool` pages, counting what the
    /// pool and the device saw, and check that the build was nothing but
    /// sorted appends: no page was read back, the pool served at most one
    /// hit a page (an insert-fed build makes one a tree level an entry),
    /// every page of the image (the meta page among them) was written
    /// exactly once, and every leaf but the last of each tree was left at
    /// least nine tenths full. If asked, check the image against the one
    /// `BTree::insert` builds from the same streams. The image is left at
    /// the returned path.
    fn build_counting(t: &Table, pool: usize, name: &str, oracle: bool) -> (PathBuf, BaseMeta) {
        let p = tmp(name);
        let device = FaultBackend::recording(RealBackend);
        let mut pager = Pager::create(&device, &p, pool).unwrap();
        let base = t.base.as_ref();
        let meta = build_table_trees(
            &mut pager,
            &t.schema,
            base,
            &t.heap,
            &t.tombstones,
            &t.indexes,
            t.next_row,
        )
        .unwrap();
        pager.flush().unwrap();
        let (stats, pages) = (pager.pool_stats(), pager.page_count() as usize);
        let page_writes = |op: &&Op| matches!(op, Op::Write { bytes, .. } if *bytes == PAGE_SIZE);
        let written = device.ops().iter().filter(page_writes).count();
        assert_eq!(stats.misses, 0, "pool of {pool}: a sorted append reads nothing back");
        assert!(stats.hits <= pages as u64, "pool of {pool}: {stats:?} for {pages} pages");
        assert_eq!(written, pages, "pool of {pool}: one write a page; {stats:?}");
        assert!(pages > 4 * pool, "the image must not fit the pool: {pages} pages");

        let mut roots = vec![meta.row_root, meta.pk_root];
        roots.extend(meta.indexes.values().map(|ix| ix.root));
        for root in roots {
            let mut id = root;
            let mut leaf = loop {
                let page = pager.read_page(id).unwrap();
                if page.ptype == PageType::BtreeLeaf {
                    break page;
                }
                id = codec::read_u64(page.payload(), &mut 0).unwrap() as u32;
            };
            let mut entries = 0u64;
            while leaf.next != NO_PAGE {
                let fill = usize::from(leaf.len);
                assert!(fill * 10 >= PAGE_CAPACITY * 9, "tree {root}: a leaf of {fill} bytes");
                entries += u64::from(leaf.count);
                leaf = pager.read_page(leaf.next).unwrap();
            }
            assert_eq!(entries + u64::from(leaf.count), meta.nrows, "tree {root}");
        }
        drop(pager);
        if oracle {
            assert_insert_fed_image(&p, &meta, pool);
        }
        (p, meta)
    }

    /// The image at `path` is byte for byte the file `BTree::insert` leaves
    /// fed the same streams: each tree's entries, read back in key order,
    /// inserted in the build's own order — rows, primary keys, then the
    /// indexes by name — into a fresh file under the same roots, with the
    /// same distinct-value counts.
    fn assert_insert_fed_image(path: &Path, meta: &BaseMeta, pool: usize) {
        let mut image = Pager::open(&RealBackend, path, pool).unwrap();
        let oracle_path = path.with_extension("inserted");
        let _ = std::fs::remove_file(&oracle_path);
        let mut oracle = Pager::create(&RealBackend, &oracle_path, pool).unwrap();
        let mut names: Vec<&String> = meta.indexes.keys().collect();
        names.sort();
        let mut trees = vec![(meta.row_root, KeyOrder::RowId), (meta.pk_root, KeyOrder::PkValues)];
        trees.extend(names.iter().map(|name| (meta.indexes[*name].root, KeyOrder::ValueRowId)));
        let mut groups = Vec::new();
        for (root, order) in trees {
            let mut tree = BTree::create(&mut oracle, order).unwrap();
            let mut cursor = BTree::open(root, order).cursor_first(&mut image).unwrap();
            let mut distinct = 0u64;
            while let Some((key, val)) = cursor.next(&mut image).unwrap() {
                distinct += u64::from(tree.insert(&mut oracle, &key, &val).unwrap().new_group);
            }
            assert_eq!(tree.root(), root, "{order:?} tree root");
            groups.push(distinct);
        }
        let indexed = names.iter().map(|name| meta.indexes[*name].distinct);
        assert!(groups.iter().skip(2).copied().eq(indexed), "distinct values {groups:?}");
        oracle.flush().unwrap();
        drop((image, oracle));
        let (built, inserted) =
            (std::fs::read(path).unwrap(), std::fs::read(&oracle_path).unwrap());
        std::fs::remove_file(&oracle_path).unwrap();
        assert_eq!(built.len(), inserted.len(), "image length");
        let page =
            built.chunks(PAGE_SIZE).zip(inserted.chunks(PAGE_SIZE)).position(|(a, b)| a != b);
        assert_eq!(page, None, "the first page on which the images differ");
    }

    /// A from-scratch image and, if asked for, its successor: a third of
    /// the base rows rewritten (moving their `n`), a seventh deleted, and as
    /// many again added, so all three merges run at size.
    fn generations(rows: u64, pool: usize, successor: bool) {
        generations_checked(rows, pool, successor, false);
    }

    /// [`generations`], each image also checked against its insert-fed
    /// build when `oracle`.
    fn generations_checked(rows: u64, pool: usize, successor: bool, oracle: bool) {
        let mut t = scattered_table(rows);
        let (first, meta) = build_counting(&t, pool, &format!("gen1-{rows}-{pool}"), oracle);
        assert_eq!((meta.nrows, meta.indexes["s"].distinct), (rows, 97));
        assert_eq!(meta.indexes["n"].distinct, 5_000);
        if !successor {
            return std::fs::remove_file(first).unwrap();
        }

        let image = Arc::new(CheckpointImage::open(&RealBackend, &first, pool).unwrap());
        t.reset_to_base(TableBase { image, meta: Arc::new(meta) });
        for i in (0..rows).step_by(3) {
            let mut row = scattered_row(i);
            row[1] = Value::Int(5_000 + (i % 11) as i64);
            t.apply_update(RowId(i), row).unwrap().unwrap();
        }
        (1..rows).step_by(7).for_each(|i| drop(t.apply_delete(RowId(i)).unwrap()));
        let live = t.live_rows;
        (rows..rows + rows / 7).for_each(|i| insert_scattered(&mut t, i));
        let (second, meta) = build_counting(&t, pool, &format!("gen2-{rows}-{pool}"), oracle);
        assert_eq!(meta.nrows, live + rows / 7);
        assert_eq!(meta.indexes["s"].distinct, 97);
        std::fs::remove_file(first).unwrap();
        std::fs::remove_file(second).unwrap();
    }

    #[test]
    fn a_build_is_sorted_appends_no_page_read_back_each_written_once() {
        generations(20_000, 8, true);
        generations(20_000, 64, false);
    }

    /// The builder's image is the one `BTree::insert` leaves fed the same
    /// streams, from scratch and as a successor over a base and an overlay
    /// (the insert-fed oracle costs seconds in a debug build, so this runs
    /// it on a smaller table).
    #[test]
    fn a_build_is_the_image_an_insert_fed_build_leaves() {
        generations_checked(6_000, 8, true, true);
    }

    /// The same counts at ten times the size, with a wall bound generous
    /// enough for any box: feeding a tree out of key order fails the counts
    /// at once, and would take minutes where this takes seconds. Release
    /// only (CI runs it with `--ignored`).
    #[test]
    #[ignore = "200 000 rows: run in release"]
    fn checkpoint_scales_as_sorted_appends_at_200k_rows() {
        let start = std::time::Instant::now();
        generations(200_000, 64, true);
        assert!(start.elapsed() < std::time::Duration::from_secs(120), "{:?}", start.elapsed());
    }
}
