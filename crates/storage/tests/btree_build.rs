//! The bulk builder against its oracle. `btree::Builder` fed a stream in
//! strictly ascending key order must leave the very file `BTree::insert`
//! leaves fed the same stream — every page, byte for byte, under the same
//! page ids and root — and report the same `new_group` for every entry.
//! Streams cover each `KeyOrder`: ascending row ids with spilled values,
//! primary keys of mixed arity and types with spilled keys, wide keys that
//! grow the root more than once, index keys in long runs of one value, the
//! empty stream, one entry, and a leaf filled to its last byte. A key that
//! does not sort after the one before it is refused, and a build through a
//! small pool writes each page once and reads none back.

use proptest::prelude::*;
use quarry_storage::btree::{index_key, pk_key, row_key, Builder};
use quarry_storage::page::{PageType, PAGE_CAPACITY, PAGE_SIZE};
use quarry_storage::{codec, BTree, FaultBackend, KeyOrder, Op, Pager, RealBackend, StorageError};
use quarry_storage::{StorageBackend, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

type Entry = (Vec<u8>, Vec<u8>);

static FILES: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quarry-btree-build");
    std::fs::create_dir_all(&dir).unwrap();
    let n = FILES.fetch_add(1, Ordering::SeqCst);
    let p = dir.join(format!("{name}-{}-{n}.qpg", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// What one way of building left behind: the file, the root, and each
/// entry's `new_group`.
struct Built {
    file: Vec<u8>,
    root: u32,
    groups: Vec<bool>,
}

/// Build `entries` into a fresh file through a pool of `pool` pages, with
/// the builder or, when `insert`, through `BTree::insert`.
fn build(order: KeyOrder, entries: &[Entry], pool: usize, insert: bool) -> Built {
    let path = tmp(if insert { "insert" } else { "builder" });
    let mut pager = Pager::create(&RealBackend, &path, pool).unwrap();
    let (root, groups) = if insert {
        let mut tree = BTree::create(&mut pager, order).unwrap();
        let groups = entries.iter().map(|(k, v)| tree.insert(&mut pager, k, v).unwrap().new_group);
        let groups = groups.collect();
        (tree.root(), groups)
    } else {
        let mut builder = Builder::new(&mut pager, order).unwrap();
        let groups = entries.iter().map(|(k, v)| builder.push(&mut pager, k, v).unwrap()).collect();
        (builder.finish(&mut pager).unwrap().root(), groups)
    };
    pager.set_root(root);
    pager.flush().unwrap();
    drop(pager);
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    Built { file, root, groups }
}

/// The first page on which two files differ, for a failure message.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    a.chunks(PAGE_SIZE).zip(b.chunks(PAGE_SIZE)).position(|(a, b)| a != b)
}

/// Levels from `root` down its leftmost spine, and the entries the tree
/// yields in order.
fn read_back(file: &[u8], root: u32, order: KeyOrder) -> (usize, Vec<Entry>) {
    let path = tmp("read");
    std::fs::write(&path, file).unwrap();
    let mut pager = Pager::open(&RealBackend, &path, 4).unwrap();
    let (mut id, mut levels) = (root, 1);
    loop {
        let page = pager.read_page(id).unwrap();
        if page.ptype == PageType::BtreeLeaf {
            break;
        }
        id = codec::read_u64(page.payload(), &mut 0).unwrap() as u32;
        levels += 1;
    }
    let tree = BTree::open(root, order);
    let mut cursor = tree.cursor_first(&mut pager).unwrap();
    let mut entries = Vec::new();
    while let Some(entry) = cursor.next(&mut pager).unwrap() {
        entries.push(entry);
    }
    std::fs::remove_file(&path).unwrap();
    (levels, entries)
}

/// The builder's file, root and groups equal the insert-fed ones, and the
/// tree reads back as the stream. Returns the tree's height.
fn assert_same_file(what: &str, order: KeyOrder, entries: &[Entry]) -> usize {
    let built = build(order, entries, 8, false);
    let inserted = build(order, entries, 8, true);
    assert_eq!(built.root, inserted.root, "{what}: root");
    assert_eq!(built.groups, inserted.groups, "{what}: new_group sequence");
    assert_eq!(built.file.len(), inserted.file.len(), "{what}: file length");
    let page = first_difference(&built.file, &inserted.file);
    assert!(page.is_none(), "{what}: the files first differ on page {page:?}");
    let (height, back) = read_back(&built.file, built.root, order);
    assert!(back == entries, "{what}: the tree does not read back as its stream");
    height
}

/// Sort and deduplicate keys under `order`.
fn sorted(order: KeyOrder, mut entries: Vec<Entry>) -> Vec<Entry> {
    entries.sort_by(|a, b| order.compare(&a.0, &b.0).unwrap());
    entries.dedup_by(|a, b| order.compare(&a.0, &b.0).unwrap().is_eq());
    entries
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Ascending row ids, every 97th value over the 1 024-byte inline limit.
fn rows(n: u64) -> Vec<Entry> {
    let val = |i: u64| {
        let len =
            if i % 97 == 5 { 1_500 + (i as usize % 7) * 900 } else { 20 + (i as usize * 7) % 180 };
        vec![(i % 251) as u8; len]
    };
    (0..n).map(|i| (row_key(i), val(i))).collect()
}

#[test]
fn ascending_row_ids_with_spilled_values() {
    let entries = rows(3_000);
    let height = assert_same_file("rows", KeyOrder::RowId, &entries);
    assert!(height >= 2, "height {height}");
}

#[test]
fn primary_keys_of_mixed_arity_and_types_some_spilled() {
    let mut rng = Lcg(0xB11D);
    let mut keys = Vec::new();
    for n in 0..2_400u64 {
        let x = rng.next();
        let key = match x % 6 {
            0 => vec![Value::Int((x >> 8) as i64 % 9_000 - 4_000)],
            1 => vec![Value::Text(format!("k{:05}", x % 30_000)), Value::Int((x >> 20) as i64 % 7)],
            2 => vec![Value::Float((x % 1000) as f64 / 8.0), Value::Bool(x & 64 != 0)],
            3 => vec![Value::Text(format!("long-{n}-{}", "z".repeat(500 + (x % 700) as usize)))],
            4 => vec![Value::Null, Value::Int(n as i64)],
            _ => vec![Value::Text(format!("c{}", x % 400)), Value::Null, Value::Float(0.5)],
        };
        keys.push((pk_key(&key).unwrap(), row_key(n)));
    }
    let entries = sorted(KeyOrder::PkValues, keys);
    let spilled = entries.iter().filter(|(k, _)| k.len() > 512).count();
    assert!(spilled > 100, "{spilled} spilled keys");
    assert_same_file("pk", KeyOrder::PkValues, &entries);
}

#[test]
fn wide_keys_split_inner_levels_and_grow_the_root_more_than_once() {
    let key = |n: u64| pk_key(&[Value::Text(format!("{n:08}{}", "w".repeat(392)))]).unwrap();
    let entries: Vec<Entry> = (0..3_000).map(|n| (key(n), row_key(n))).collect();
    let height = assert_same_file("wide", KeyOrder::PkValues, &entries);
    assert!(height >= 4, "the root must have grown more than once: height {height}");
}

#[test]
fn index_keys_in_long_runs_of_one_value() {
    let mut entries = Vec::new();
    for row in 0..6_000u64 {
        let v = match row / 700 {
            3 => Value::Null,
            5 => Value::Text("one value".into()),
            run => Value::Int(run as i64 * 3 - 10),
        };
        entries.push((index_key(&v, row).unwrap(), Vec::new()));
    }
    let entries = sorted(KeyOrder::ValueRowId, entries);
    assert_same_file("index runs", KeyOrder::ValueRowId, &entries);
    let groups = build(KeyOrder::ValueRowId, &entries, 8, false).groups;
    assert_eq!(groups.iter().filter(|g| **g).count(), 9, "one group a run");
}

#[test]
fn the_empty_stream_one_entry_and_an_exactly_full_leaf() {
    for order in [KeyOrder::RowId, KeyOrder::PkValues, KeyOrder::ValueRowId] {
        assert_same_file("empty", order, &[]);
    }
    assert_same_file("one", KeyOrder::RowId, &[(row_key(7), b"seven".to_vec())]);
    let one = index_key(&Value::Int(1), 1).unwrap();
    assert_same_file("one index key", KeyOrder::ValueRowId, &[(one, Vec::new())]);

    // Four entries of 1 005 bytes (flags, key length, key, two-byte value
    // length, 1 000 bytes) and one of 60 fill a leaf to its last byte; the
    // sixth opens the next leaf.
    let mut entries: Vec<Entry> = (0..4).map(|i| (row_key(i), vec![i as u8; 1_000])).collect();
    entries.push((row_key(4), vec![4; 56]));
    assert_eq!(4 * 1_005 + 60, PAGE_CAPACITY);
    entries.push((row_key(5), vec![5; 10]));
    assert_same_file("exact fill", KeyOrder::RowId, &entries);
    let built = build(KeyOrder::RowId, &entries, 8, false);
    let leaf = &built.file[PAGE_SIZE..2 * PAGE_SIZE];
    let (len, count) =
        (u16::from_le_bytes([leaf[8], leaf[9]]), u16::from_le_bytes([leaf[6], leaf[7]]));
    assert_eq!((usize::from(len), count), (PAGE_CAPACITY, 5), "the first leaf is exactly full");
}

#[test]
fn keys_that_do_not_sort_after_the_last_are_corrupt() {
    let cases = [
        (KeyOrder::RowId, row_key(5), row_key(5)),
        (KeyOrder::RowId, row_key(5), row_key(4)),
        (KeyOrder::PkValues, pk_key(&["b".into()]).unwrap(), pk_key(&["b".into()]).unwrap()),
        (KeyOrder::PkValues, pk_key(&["b".into()]).unwrap(), pk_key(&["a".into()]).unwrap()),
        (
            KeyOrder::ValueRowId,
            index_key(&Value::Int(3), 9).unwrap(),
            index_key(&Value::Int(3), 9).unwrap(),
        ),
        (
            KeyOrder::ValueRowId,
            index_key(&Value::Int(3), 9).unwrap(),
            index_key(&Value::Int(3), 8).unwrap(),
        ),
        (
            KeyOrder::ValueRowId,
            index_key(&Value::Int(3), 9).unwrap(),
            index_key(&Value::Int(2), 10).unwrap(),
        ),
    ];
    for (order, first, second) in cases {
        let path = tmp("order");
        let mut pager = Pager::create(&RealBackend, &path, 4).unwrap();
        let mut builder = Builder::new(&mut pager, order).unwrap();
        builder.push(&mut pager, &first, b"v").unwrap();
        let got = builder.push(&mut pager, &second, b"v");
        assert!(matches!(got, Err(StorageError::Corrupt(_))), "{order:?}: {got:?}");
        std::fs::remove_file(&path).unwrap();
    }
}

/// Spilled keys and values on most entries, through an eight-page pool:
/// every overflow chain and node reaches the file in one write, and nothing
/// is read back.
#[test]
fn a_spill_heavy_build_writes_each_page_once_through_a_small_pool() {
    let device = FaultBackend::recording(RealBackend);
    let path = tmp("spill");
    let mut pager = Pager::create(&device, &path, 8).unwrap();
    let mut builder = Builder::new(&mut pager, KeyOrder::PkValues).unwrap();
    for n in 0..600u64 {
        let key =
            pk_key(&[Value::Text(format!("{n:06}{}", "k".repeat(300 + (n as usize % 3) * 400)))]);
        let val = vec![n as u8; 200 + (n as usize % 4) * 2_000];
        builder.push(&mut pager, &key.unwrap(), &val).unwrap();
    }
    let root = builder.finish(&mut pager).unwrap().root();
    pager.set_root(root);
    pager.flush().unwrap();
    let (stats, pages) = (pager.pool_stats(), pager.page_count() as usize);
    drop(pager);
    let writes = device
        .ops()
        .iter()
        .filter(|op| matches!(op, Op::Write { bytes, .. } if *bytes == PAGE_SIZE))
        .count();
    assert!(pages > 1_000, "{pages} pages");
    assert_eq!((stats.hits, stats.misses), (0, 0), "a build reads nothing: {stats:?}");
    assert_eq!(writes, pages, "one write a page: {stats:?}");
    device.remove_file(&path).unwrap();
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sorted stream of row ids or index keys, with values from empty to
    /// three pages long, builds the insert-fed file through any pool from two
    /// frames up.
    #[test]
    fn prop_any_sorted_stream_builds_the_insert_fed_file(
        steps in proptest::collection::vec((1u64..5, 0u64..4, 0usize..3_200), 0..400),
        pool in 2usize..=8,
    ) {
        let index = CASE.fetch_add(1, Ordering::SeqCst) % 2 == 1;
        let (mut row, mut entries) = (0u64, Vec::new());
        for &(gap, value, len) in &steps {
            row += gap;
            entries.push(if index {
                (index_key(&Value::Int(row as i64 / 50 + value as i64), row).unwrap(), Vec::new())
            } else {
                (row_key(row), vec![value as u8; len])
            });
        }
        let order = if index { KeyOrder::ValueRowId } else { KeyOrder::RowId };
        let entries = sorted(order, entries);
        let built = build(order, &entries, pool, false);
        let inserted = build(order, &entries, pool, true);
        prop_assert_eq!(built.file.len(), inserted.file.len());
        prop_assert_eq!(first_difference(&built.file, &inserted.file), None);
        prop_assert_eq!((built.root, built.groups), (inserted.root, inserted.groups));
    }
}
