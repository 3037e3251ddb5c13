//! A count, not a clock: how many heap allocations a top-k sort and a
//! grouped `COUNT` make over a 2 000-wide value window on a 10 000-row
//! overlay, measured with a counting global allocator. The table access
//! lends each row to the operator above it: the top-k on the indexed
//! `value` walks that index in key order and clones only the k rows it
//! returns, and the grouped count clones a group key only when it opens a
//! group. What is left is per returned row and per group, on top of what
//! the same query makes over no rows. Cloning every passing row out of the
//! access, sorting all of them, and grouping rows through a cloned key per
//! row cost about three allocations per row in the window more: done that
//! way, the top-20 below made 687 allocations and the grouped count 1 022
//! (72 now, with 17 groups), for 199 rows. A top-k that walked the window
//! in row-id order and kept each row that could still make the top k made
//! 292, with 85 rows kept; in key order it makes 98. A point read is
//! counted whole, binding and planning included.
//!
//! Its own test binary because of the `#[global_allocator]`, and outside
//! the crate because the library forbids `unsafe`.

use quarry_query::engine::{AggFn, Predicate, Query, QueryResult};
use quarry_query::planner::{execute_snapshot_with, PlannerConfig};
use quarry_storage::{Column, DataType, Database, DbSnapshot, TableSchema, Value};
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

const ROWS: i64 = 10_000;
const VALUE_SPACE: i64 = 100_000;
const STATIONS: i64 = 17;
const LO: i64 = 40_000;
const HI: i64 = LO + 2_000 - 1;
const K: usize = 20;
/// Doublings of the vectors that grow with the rows: the index probe's
/// row-id list, the returned k, the group table and the result.
const GROWTH: u64 = 24;

/// Distinct values (7 919 is prime to 100 000), spread over the space.
fn value(id: i64) -> i64 {
    id * 7_919 % VALUE_SPACE
}

fn snapshot() -> DbSnapshot {
    let db = Database::in_memory();
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("station", DataType::Text),
        Column::new("value", DataType::Int),
        Column::new("note", DataType::Text),
    ];
    db.create_table(TableSchema::new("readings", columns, &["id"], &[]).unwrap()).unwrap();
    db.create_index("readings", "value").unwrap();
    let tx = db.begin();
    for id in 0..ROWS {
        let station = format!("station-{:02}", id % STATIONS);
        let note = format!("reading {id:06}: nominal");
        let row = vec![Value::Int(id), station.into(), Value::Int(value(id)), note.into()];
        db.insert(tx, "readings", row).unwrap();
    }
    db.commit(tx).unwrap();
    db.snapshot()
}

fn window(lo: i64, hi: i64) -> Query {
    Query::scan("readings").filter(vec![
        Predicate::Ge("value".into(), Value::Int(lo)),
        Predicate::Le("value".into(), Value::Int(hi)),
    ])
}

/// Run `shape` over the window, warmed up, and over an equally wide window
/// past every value: the result, its allocations, and the allocations of
/// the same query over no rows — validation, the plan, its trace.
fn measure(snap: &DbSnapshot, shape: impl Fn(Query) -> Query) -> (QueryResult, u64, u64) {
    let cfg = PlannerConfig::default();
    let run = |q: Query| {
        let _ = execute_snapshot_with(snap, &q, &cfg).unwrap();
        let ((result, _), allocations) = counted(|| execute_snapshot_with(snap, &q, &cfg).unwrap());
        (result, allocations)
    };
    let (_, empty) = run(shape(window(VALUE_SPACE, VALUE_SPACE + HI - LO)));
    let (result, allocations) = run(shape(window(LO, HI)));
    (result, allocations, empty)
}

/// Ids in the window, in row-id (insertion) order.
fn window_ids() -> Vec<i64> {
    (0..ROWS).filter(|&id| (LO..=HI).contains(&value(id))).collect()
}

/// A primary-key point read is bound, planned and run on borrowed names:
/// the binding walk reads the table's schema in place and turns each
/// column name into a position once, and the plan borrows the query's
/// names and predicates. What remains is the plan's nodes, the key probe,
/// the trace's labels, the result's column names and the one row cloned
/// out: 21 allocations. Checking the query against a cloned schema, then
/// lowering it again with cloned names, predicates and schema, and
/// resolving every name a third time in the executor made 54.
#[test]
fn a_point_read_allocates_for_its_row_its_column_names_and_its_trace() {
    let snap = snapshot();
    let cfg = PlannerConfig::default();
    let q = Query::scan("readings").filter(vec![Predicate::Eq("id".into(), Value::Int(4_321))]);
    let _ = execute_snapshot_with(&snap, &q, &cfg).unwrap();
    let ((result, trace), allocations) =
        counted(|| execute_snapshot_with(&snap, &q, &cfg).unwrap());
    assert_eq!(result.rows.len(), 1);
    assert_eq!(trace.total_scanned(), 1, "{}", trace.render());
    println!("point read: {allocations} allocations");
    assert!(allocations <= 24, "{allocations} allocations for a point read");
}

#[test]
fn a_top_k_allocates_for_the_rows_it_keeps_and_nothing_for_the_rest() {
    let (result, allocations, empty) = measure(&snapshot(), |w| w.sort("value", true, Some(K)));

    let ids = window_ids();
    let mut top: Vec<i64> = ids.iter().map(|&id| value(id)).collect();
    top.sort_unstable_by(|a, b| b.cmp(a));
    top.truncate(K);
    let got: Vec<Value> = result.rows.iter().map(|r| r[2].clone()).collect();
    assert_eq!(got, top.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>());
    // A returned row is three allocations: its vector and two texts.
    println!(
        "top-{K}: {allocations} allocations, {empty} over no rows; {} rows in the window",
        ids.len()
    );
    assert!(
        allocations <= empty + 3 * K as u64 + GROWTH,
        "{allocations} allocations ({empty} over no rows) for the top {K} of {} rows",
        ids.len()
    );
}

#[test]
fn a_grouped_count_allocates_per_group_not_per_row() {
    let (result, allocations, empty) =
        measure(&snapshot(), |w| w.aggregate(Some("station"), AggFn::Count, "id"));

    let ids = window_ids();
    let groups = result.rows.len() as u64;
    assert_eq!(groups, STATIONS as u64);
    let counted_rows: i64 =
        result.rows.iter().map(|r| if let Value::Int(n) = r[1] { n } else { 0 }).sum();
    assert_eq!(counted_rows, ids.len() as i64);
    // A group is its key's text and its output row.
    println!(
        "grouped COUNT: {allocations} allocations, {empty} over no rows; {} rows, {groups} groups",
        ids.len()
    );
    assert!(
        allocations <= empty + 2 * groups + GROWTH,
        "{allocations} allocations ({empty} over no rows) for {groups} groups of {} rows",
        ids.len()
    );
}
