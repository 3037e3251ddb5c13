//! A count, not a clock: how many heap allocations the B-tree makes per
//! operation, measured with a counting global allocator. Searching and
//! editing nodes where they lie means a lookup allocates its result and
//! nothing else, however many entries the nodes on its path hold; a node
//! decoded into owned entries would allocate once or twice per entry
//! (hundreds per inner page). Counts do not depend on the machine or its
//! load, so this can gate CI where a timing could not.
//!
//! A pool miss owes one allocation, its node's offset table: the page is
//! read into the allocation an unshared victim left behind.
//!
//! Reads that lend instead of copying owe nothing else: a lending lookup
//! (`BTree::lookup_with`) and a cursor step (`Cursor::advance`) on resident
//! nodes allocate nothing, and a window of base rows read through a table
//! view allocates per miss and not per row.
//!
//! Its own test binary because of the `#[global_allocator]`, and outside
//! the crate because the library forbids `unsafe`.

use quarry_storage::btree::{decode_row_key, row_key, Builder};
use quarry_storage::page::{Page, PageType};
use quarry_storage::{
    codec, BTree, Column, DataType, Database, KeyOrder, Pager, RealBackend, ScanAccess,
    StorageError, TableSchema, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: an allocation while the thread tears its locals down
        // is still served, just not counted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + size as u64));
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is bumping two thread-local
// `Cell<u64>`s that have no destructor and are never borrowed across the
// forwarded call, so counting can neither allocate nor re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` and `layout` describe a block this allocator — that
        // is, `System` — handed out, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; return its result with the allocations and bytes it requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    let out = f();
    (out, ALLOCATIONS.get() - before.0, ALLOCATED_BYTES.get() - before.1)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("quarry-btree-allocs");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.qpg", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Row ids this large take nine varint bytes, which keeps inner fan-out low
/// enough (~300) for a three-level tree of a couple of thousand rows.
const BASE: u64 = 1 << 62;
const ROWS: u64 = 2_400;
const POOL: usize = 1_024;

/// Levels from `root` down its leftmost spine.
fn height(pager: &mut Pager, root: u32) -> usize {
    let (mut id, mut levels) = (root, 1);
    loop {
        let page = pager.read_page(id).unwrap();
        if page.ptype == PageType::BtreeLeaf {
            return levels;
        }
        id = codec::read_u64(page.payload(), &mut 0).unwrap() as u32;
        levels += 1;
    }
}

#[test]
fn operations_on_resident_nodes_allocate_a_constant_and_a_miss_adds_its_table() {
    let path = tmp("resident");
    let mut pg = Pager::create(&RealBackend, &path, POOL).unwrap();
    let mut tree = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
    // Even ids, ascending, 1000-byte rows: four to a leaf with ~50 bytes to
    // spare, so the odd ids inserted below fit without a split.
    for i in 0..ROWS {
        tree.insert(&mut pg, &row_key(BASE + 2 * i), &[i as u8; 1_000]).unwrap();
    }
    assert!(height(&mut pg, tree.root()) >= 3, "the tree must have an inner level under its root");
    assert!((pg.page_count() as usize) < POOL, "every page stays resident");
    // Visit every node once, so that each has its offset table.
    for i in 0..ROWS {
        assert!(tree.lookup(&mut pg, &row_key(BASE + 2 * i)).unwrap().is_some());
    }
    let resident = pg.pool_stats().misses;

    for i in (0..ROWS).step_by(97) {
        let key = row_key(BASE + 2 * i);
        let (found, allocations, _) = counted(|| tree.lookup(&mut pg, &key).unwrap());
        assert_eq!(found, Some(vec![i as u8; 1_000]));
        assert!(allocations <= 1, "lookup: {allocations} allocations; only the value is owed");
        let absent = row_key(BASE + 2 * i + 1);
        let (missing, allocations, _) = counted(|| tree.lookup(&mut pg, &absent).unwrap());
        assert_eq!((missing, allocations), (None, 0), "a miss in the leaf allocates nothing");
    }

    // A scan across a few hundred leaves: key and value per entry, nothing
    // per leaf crossed.
    let start = row_key(BASE + 700);
    let (mut cursor, allocations, _) = counted(|| tree.cursor_seek(&mut pg, &start).unwrap());
    assert_eq!(allocations, 0, "cursor_seek");
    for i in 350..1_350 {
        let (entry, allocations, _) = counted(|| cursor.next(&mut pg).unwrap());
        assert_eq!(entry.map(|(k, _)| k), Some(row_key(BASE + 2 * i)));
        assert!(allocations <= 2, "Cursor::next: {allocations} allocations");
    }

    // Inserts that do not split: the descent path and the leaf's offset
    // table, shifted to match the edit (the entry itself is assembled on the
    // stack) — not a function of the ~300 separators in each inner node on
    // the way down. The one leaf the cursor above still stands on is edited
    // as a private copy, which adds its frame and payload.
    let (mut most, mut copied) = (0, 0);
    for i in (0..ROWS).step_by(5) {
        let key = row_key(BASE + 2 * i + 1);
        let pages = pg.page_count();
        let (out, allocations, _) = counted(|| tree.insert(&mut pg, &key, &[]).unwrap());
        assert!(out.new_group);
        assert_eq!(pg.page_count(), pages, "row {i}: the insert must not have split");
        most = most.max(allocations);
        copied += u32::from(allocations > 2);
    }
    assert!(most <= 4, "a non-splitting insert made {most} allocations");
    assert!(copied <= 1, "{copied} inserts allocated more than a path and a table");
    assert_eq!(pg.pool_stats().misses, resident, "nothing above went to the file");

    // Cold, through a pool the path does not fit in. A lookup holds no
    // node but the one it stands on, so every victim is unshared and clean:
    // each miss reads into the page an earlier eviction left spare, and
    // owes only its offset table.
    pg.set_root(tree.root());
    pg.flush().unwrap();
    drop(pg);
    let mut pg = Pager::open(&RealBackend, &path, 2).unwrap();
    let tree = BTree::open(pg.root(), KeyOrder::RowId);
    // The pool's map allocates on first use, and the first frames are new.
    tree.lookup(&mut pg, &row_key(BASE)).unwrap();
    for i in (1..ROWS).step_by(131) {
        let (before, key) = (pg.pool_stats().misses, row_key(BASE + 2 * i));
        let (found, allocations, _) = counted(|| tree.lookup(&mut pg, &key).unwrap());
        assert!(found.is_some());
        let misses = pg.pool_stats().misses - before;
        assert!(misses >= 1, "a two-frame pool cannot hold a three-level path");
        assert_eq!(
            allocations,
            1 + misses,
            "{allocations} allocations for {misses} misses: the value, then a table a miss"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// A node header may claim any `count`; the validating pass must refuse
/// one its payload cannot hold before it sizes anything by it.
#[test]
fn a_bogus_count_is_refused_before_anything_is_sized_by_it() {
    let path = tmp("bogus");
    let mut pg = Pager::create(&RealBackend, &path, 4).unwrap();
    let root = pg.allocate(PageType::BtreeLeaf).unwrap();
    let mut page = Page::new(PageType::BtreeLeaf);
    page.count = u16::MAX;
    page.push(&[0, 1, 5, 1, b'v']);
    pg.put_page(root, page).unwrap();
    let mut tree = BTree::open(root, KeyOrder::RowId);
    let key = row_key(5);
    for attempt in 0..2 {
        let (got, _, bytes) = counted(|| match attempt {
            0 => tree.lookup(&mut pg, &key).map(drop),
            _ => tree.insert(&mut pg, &key, b"w").map(drop),
        });
        assert!(matches!(got, Err(StorageError::Corrupt(_))), "{got:?}");
        assert!(bytes < 1_024, "{bytes} bytes allocated on the way to refusing the node");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A bulk build owes its pages, not its entries: each page it fills is one
/// allocation for the page and one for the frame the pool takes it in
/// (plus the pool's slab and map while they grow), and appending an entry
/// allocates nothing.
#[test]
fn a_build_allocates_per_page_and_nothing_per_entry() {
    let path = tmp("build");
    let mut pg = Pager::create(&RealBackend, &path, 8).unwrap();
    let mut builder = Builder::new(&mut pg, KeyOrder::RowId).unwrap();
    let entries = 10_000u64;
    let keys: Vec<Vec<u8>> = (0..entries).map(row_key).collect();
    // The last-key buffer's first allocation.
    builder.push(&mut pg, &keys[0], b"first").unwrap();
    let (tree, allocations, _) = counted(|| {
        for (i, key) in keys.iter().enumerate().skip(1) {
            builder.push(&mut pg, key, &[i as u8; 24]).unwrap();
        }
        builder.finish(&mut pg).unwrap()
    });
    let pages = u64::from(pg.page_count());
    assert!(height(&mut pg, tree.root()) >= 2 && pages > 50, "{pages} pages");
    assert!(
        allocations <= 2 * pages + 16,
        "{allocations} allocations building {entries} entries into {pages} pages"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Lending reads on resident nodes allocate nothing at all: a lookup whose
/// value is read where it lies, a lookup that misses in its leaf, and a
/// cursor stepping across a few hundred leaves. Cold, a lending lookup owes
/// exactly one offset table a miss.
#[test]
fn lending_reads_allocate_nothing_but_a_table_a_miss() {
    let path = tmp("lending");
    let mut pg = Pager::create(&RealBackend, &path, POOL).unwrap();
    let mut tree = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
    for i in 0..ROWS {
        tree.insert(&mut pg, &row_key(BASE + 2 * i), &[i as u8; 1_000]).unwrap();
    }
    for i in 0..ROWS {
        assert!(tree.lookup(&mut pg, &row_key(BASE + 2 * i)).unwrap().is_some());
    }
    let resident = pg.pool_stats().misses;
    let first_byte = |value: &[u8]| Ok((value.len(), value.first().copied()));
    for i in (0..ROWS).step_by(13) {
        let key = row_key(BASE + 2 * i);
        let (found, allocations, _) =
            counted(|| tree.lookup_with(&mut pg, &key, first_byte).unwrap());
        assert_eq!((found, allocations), (Some((1_000, Some(i as u8))), 0), "row {i}");
        let absent = row_key(BASE + 2 * i + 1);
        let (missing, allocations, _) =
            counted(|| tree.lookup_with(&mut pg, &absent, first_byte).unwrap());
        assert_eq!((missing, allocations), (None, 0), "row {i} + 1");
    }
    let mut cursor = tree.cursor_seek(&mut pg, &row_key(BASE + 700)).unwrap();
    for i in 350..1_350 {
        let (entry, allocations, _) = counted(|| {
            let entry = cursor.advance(&mut pg).unwrap();
            entry.map(|(key, value)| (decode_row_key(key).unwrap(), value.len()))
        });
        assert_eq!(allocations, 0, "Cursor::advance at row {i}");
        assert_eq!(entry, Some((BASE + 2 * i, 1_000)));
    }
    assert_eq!(pg.pool_stats().misses, resident, "nothing above went to the file");

    pg.set_root(tree.root());
    pg.flush().unwrap();
    drop((pg, cursor));
    let mut pg = Pager::open(&RealBackend, &path, 2).unwrap();
    let tree = BTree::open(pg.root(), KeyOrder::RowId);
    tree.lookup_with(&mut pg, &row_key(BASE), first_byte).unwrap();
    for i in (1..ROWS).step_by(131) {
        let (before, key) = (pg.pool_stats().misses, row_key(BASE + 2 * i));
        let (found, allocations, _) =
            counted(|| tree.lookup_with(&mut pg, &key, first_byte).unwrap());
        assert!(found.is_some());
        let misses = pg.pool_stats().misses - before;
        assert!(misses >= 1, "a two-frame pool cannot hold a three-level path");
        assert_eq!(allocations, misses, "{allocations} allocations for {misses} misses");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Rows of the reopened image below: far more pages than its pool holds.
const WINDOW_ROWS: i64 = 8_000;
/// Width of the value window read from it.
const WINDOW: i64 = 400;
/// What a window may allocate besides one offset table a miss, however
/// wide it is: the index probe's key, the doublings of the row-id list,
/// and the scratch row growing to fit the widest row (12 measured).
const WINDOW_BOUND: u64 = 24;

/// A `cold_range`-shaped read: a reopened checkpoint image many times its
/// buffer pool, a `readings` table indexed on `value`, and a 400-wide value
/// window read through `TableView::for_each_row` by index range. Every
/// base row is decoded into one scratch row straight from its leaf, so
/// the window allocates one offset table a miss and a constant besides:
/// ~100 allocations for ~90 misses. Materializing each row — its index
/// key copied off the cursor, its lookup key, its value copied out of the
/// leaf, the row and its two texts — made ~2 500.
#[test]
fn a_window_of_base_rows_allocates_per_miss_not_per_row() {
    let dir = std::env::temp_dir().join("quarry-btree-allocs");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join(format!("window-{}.wal", std::process::id()));
    let image = wal.with_extension("ckpt");
    let _ = (std::fs::remove_file(&wal), std::fs::remove_file(&image));
    {
        let db = Database::open(&wal).unwrap();
        let columns = vec![
            Column::new("id", DataType::Int),
            Column::new("station", DataType::Text),
            Column::new("value", DataType::Int),
            Column::new("note", DataType::Text),
        ];
        let schema = TableSchema::new("readings", columns, &["id"], &["value"]).unwrap();
        db.create_table(schema).unwrap();
        let rows = (0..WINDOW_ROWS).map(|id| {
            let station = format!("station-{}", id % 97);
            let note = format!("{id:>48}");
            vec![Value::Int(id), station.into(), Value::Int(id * 7_919 % WINDOW_ROWS), note.into()]
        });
        db.in_tx(|tx| db.insert_rows(tx, "readings", rows).map(drop)).unwrap();
        db.checkpoint().unwrap();
    }
    let db = Database::open(&wal).unwrap();
    let snapshot = db.snapshot();
    let view = snapshot.table("readings").unwrap();
    // The first window fills the pool, whose first frames and map are new;
    // the two after it read through a full one.
    for (lo, measured) in [(3_000, false), (1_000, true), (5_000, true)] {
        let (lo, hi) = (Value::Int(lo), Value::Int(lo + WINDOW - 1));
        let access = ScanAccess::Index { column: "value", lo: Some(&lo), hi: Some(&hi) };
        let mut notes = 0usize;
        let before = db.image_pool_stats().unwrap();
        let (read, allocations, _) = counted(|| {
            view.for_each_row(access, &mut |row| {
                notes += usize::from(matches!(&row[3], Value::Text(note) if note.len() == 48));
                Ok(())
            })
        });
        let after = db.image_pool_stats().unwrap();
        assert_eq!((read.unwrap(), notes), (WINDOW as usize, WINDOW as usize), "window at {lo}");
        let misses = after.misses - before.misses;
        assert!(misses > 50 && after.evictions > before.evictions, "a cold read: {after:?}");
        assert!(
            !measured || allocations <= misses + WINDOW_BOUND,
            "window at {lo}: {allocations} allocations for {misses} misses and {WINDOW} rows"
        );
    }
    drop((snapshot, db));
    std::fs::remove_file(&wal).unwrap();
    std::fs::remove_file(&image).unwrap();
}
