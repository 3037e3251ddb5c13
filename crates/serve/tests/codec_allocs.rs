//! A count, not a clock: how many heap allocations the wire codec makes
//! for the 100-row `InsertRows` frame of `testdata/wire_frames.bin`,
//! measured with a counting global allocator. Encoding writes straight
//! into the frame's one buffer, so it allocates only as that buffer grows;
//! decoding reads straight into the request, so it allocates only for what
//! the request owns: each `Text`, each row, the table name, and the
//! doublings of the outer `Vec`. A codec that builds a JSON tree on either
//! side allocates for every value in it: the tree-building codec this one
//! replaced made 1 005 allocations encoding this frame and 1 304 decoding
//! it, where this one makes 7 and 207. Counts do not depend on the machine
//! or its load, so this can gate CI where a timing could not.
//!
//! Its own test binary because of the `#[global_allocator]`, and outside
//! the crate because the library forbids `unsafe`.

use quarry_serve::protocol::{decode_request, read_frame, write_request, DEFAULT_MAX_FRAME};
use quarry_serve::Request;
use quarry_storage::Value;
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
        // `try_with`: an allocation while the thread tears its locals down
        // is still served, just not counted.
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

#[test]
fn the_insert_frame_allocates_for_its_buffer_and_what_the_request_owns() {
    let mut golden: &[u8] = include_bytes!("../testdata/wire_frames.bin");
    let payload = (0..11).map(|_| read_frame(&mut golden, DEFAULT_MAX_FRAME).unwrap().1).last();
    let payload = payload.unwrap();

    let (req, decode_allocations) = counted(|| decode_request(&payload).unwrap());
    let Request::InsertRows { table, rows } = &req else { panic!("frame 10 is {req:?}") };
    let texts = rows.iter().flatten().filter(|v| matches!(v, Value::Text(_))).count();
    assert_eq!((table.as_str(), rows.len(), texts), ("cities", 100, 100));
    // One per `Text`, one per row, one for the table name, and the outer
    // `Vec` growing to 100 rows: 4, 8, 16, 32, 64, 128.
    let owned = texts + rows.len() + 1 + 6;
    assert!(
        decode_allocations <= owned as u64,
        "decoding the {}-byte insert made {decode_allocations} allocations; the request owns {owned}",
        payload.len()
    );

    let (result, encode_allocations) = counted(|| write_request(&mut std::io::sink(), 10, &req));
    result.unwrap();
    assert!(
        encode_allocations <= 16,
        "encoding the {}-byte insert made {encode_allocations} allocations; only its buffer grows",
        payload.len()
    );
}
