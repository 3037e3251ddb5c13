//! A count, not a clock: how many heap allocations a 100-row insert
//! transaction makes, measured with a counting global allocator. A row
//! moves from the caller into the overlay; its log record is written from
//! the borrowed row straight into the WAL's frame buffer; the primary key
//! is hashed once and probed as borrowed values; each index entry is one
//! descent. What is left to allocate is what the overlay keeps — a node
//! split now and then, and the undo list's doublings — not something per
//! row. Copying the row into an owned log record, encoding that record
//! into a fresh buffer, building a key to probe with and naming the table
//! in each undo entry cost about eleven allocations a row: done that way,
//! the transaction below makes 1 118 and its commit 3.
//!
//! Its own test binary because of the `#[global_allocator]`, and outside
//! the crate because the library forbids `unsafe`.

use quarry_storage::{Column, DataType, Database, TableSchema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is bumping a thread-local
// `Cell<u64>` that has no destructor and is never borrowed across the
// forwarded call, so counting can neither allocate nor re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// Run `f`; return its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

/// Rows the table holds before the measured transaction.
const SEEDED: i64 = 5_000;
/// Rows of the measured transaction.
const BATCH: i64 = 100;

fn row(id: i64) -> Vec<Value> {
    let value = id * 7_919 % 1_000;
    vec![Value::Int(id), format!("station-{}", id % 17).into(), Value::Int(value), "ok".into()]
}

#[test]
fn a_hundred_row_insert_allocates_what_the_overlay_keeps_and_no_more() {
    let dir = std::env::temp_dir().join("quarry-insert-allocs");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("insert-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);

    let db = Database::open(&p).unwrap();
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("station", DataType::Text),
        Column::new("value", DataType::Int),
        Column::new("note", DataType::Text),
    ];
    db.create_table(TableSchema::new("readings", columns, &["id"], &[]).unwrap()).unwrap();
    db.create_index("readings", "id").unwrap();
    db.create_index("readings", "value").unwrap();
    for chunk in 0..SEEDED / BATCH {
        let tx = db.begin();
        for id in chunk * BATCH..(chunk + 1) * BATCH {
            db.insert(tx, "readings", row(id)).unwrap();
        }
        db.commit(tx).unwrap();
    }
    assert_eq!(db.overlay_row_count("readings").unwrap(), SEEDED as usize);

    // Ids in scrambled order (37 is coprime to 100), built before counting:
    // the caller's rows are not the engine's allocations.
    let rows: Vec<Vec<Value>> = (0..BATCH).map(|i| row(SEEDED + i * 37 % BATCH)).collect();
    let (tx, allocations) = counted(|| {
        let tx = db.begin();
        for r in rows {
            db.insert(tx, "readings", r).unwrap();
        }
        tx
    });
    assert!(allocations <= 32, "a {BATCH}-row insert transaction made {allocations} allocations");
    let ((), allocations) = counted(|| db.commit(tx).unwrap());
    assert!(allocations <= 3, "its commit made {allocations} allocations");

    assert_eq!(db.row_count("readings").unwrap(), (SEEDED + BATCH) as usize);
    drop(db);
    let db = Database::open(&p).unwrap();
    assert_eq!(db.row_count("readings").unwrap(), (SEEDED + BATCH) as usize);
    drop(db);
    std::fs::remove_file(&p).unwrap();
}
