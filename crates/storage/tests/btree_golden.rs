//! "No format change", as a test: a fixed workload over all three key
//! orders builds an image whose length and whole-file CRC-32 equal
//! constants captured from the B-tree as it was *before* nodes were
//! searched and edited in place (commit 6fb60b3, owned decode/encode
//! nodes). If either constant has to change, the on-disk format changed.

use quarry_storage::btree::{index_key, pk_key, row_key};
use quarry_storage::page::{PAGE_HEADER, PAGE_SIZE};
use quarry_storage::wal::crc32;
use quarry_storage::{BTree, KeyOrder, Pager, RealBackend, Value};

/// Image length at commit 6fb60b3.
const GOLDEN_LEN: usize = 1_056_768;
/// CRC-32 of the whole image at commit 6fb60b3.
const GOLDEN_CRC: u32 = 0x47AF_47B9;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn build(pager: &mut Pager) {
    let mut rng = Lcg(0x5EED_0017);

    // Row tree: ascending ids (right-edge splits, a root split), every
    // 97th value spilled to an overflow chain; then scattered ids (mid-node
    // splits) and a pass of same-length replacements.
    let mut rows = BTree::create(pager, KeyOrder::RowId).unwrap();
    let row_val = |i: u64| {
        let len =
            if i % 97 == 5 { 1500 + (i as usize % 7) * 900 } else { 20 + (i as usize * 7) % 180 };
        vec![(i % 251) as u8; len]
    };
    for i in 0..1500u64 {
        rows.insert(pager, &row_key(i), &row_val(i)).unwrap();
    }
    for _ in 0..700 {
        let i = 10_000 + rng.next() % 5_000;
        rows.insert(pager, &row_key(i), &row_val(i)).unwrap();
    }
    for i in (0..1500u64).step_by(13) {
        let mut v = row_val(i);
        v.fill(0xEE);
        assert!(!rows.insert(pager, &row_key(i), &v).unwrap().new_group);
    }

    // Primary-key tree: short keys in random order, mixed arity and types,
    // plus keys long enough to spill.
    let mut pk = BTree::create(pager, KeyOrder::PkValues).unwrap();
    for n in 0..1200u64 {
        let x = rng.next();
        let key = match x % 5 {
            0 => vec![Value::Int((x >> 8) as i64 % 900)],
            1 => vec![Value::Text(format!("k{:05}", x % 3000)), Value::Int((x >> 20) as i64 % 7)],
            2 => vec![Value::Float((x % 1000) as f64 / 8.0), Value::Bool(x & 64 != 0)],
            3 => vec![Value::Text(format!("city-{}", x % 400))],
            _ => vec![Value::Null, Value::Int(n as i64)],
        };
        pk.insert(pager, &pk_key(&key).unwrap(), &row_key(n)).unwrap();
    }
    for n in 0..6u64 {
        let key = vec![Value::Text("long".repeat(150 + 60 * n as usize)), Value::Int(n as i64)];
        pk.insert(pager, &pk_key(&key).unwrap(), &row_key(n)).unwrap();
    }

    // Wide keys (just under the inline limit): few entries per node, so
    // inner nodes split mid-node and at the right edge and the root splits
    // more than once.
    let mut wide = BTree::create(pager, KeyOrder::PkValues).unwrap();
    let wide_key = |n: u64| pk_key(&[Value::Text(format!("{n:08}{}", "w".repeat(400)))]).unwrap();
    for _ in 0..500 {
        let n = rng.next() % 50_000;
        wide.insert(pager, &wide_key(n), &row_key(n)).unwrap();
    }
    for n in 60_000..60_300u64 {
        wide.insert(pager, &wide_key(n), &row_key(n)).unwrap();
    }

    // Secondary-index tree: heavy duplication, every value type, no values.
    let mut ix = BTree::create(pager, KeyOrder::ValueRowId).unwrap();
    let mut groups = 0;
    for row in 0..2500u64 {
        let x = rng.next();
        let v = match x % 11 {
            0 => Value::Null,
            1 => Value::Bool(x & 32 != 0),
            2 => Value::Float((x % 64) as f64 / 4.0),
            3 => Value::Text(format!("s{}", x % 90)),
            _ => Value::Int((x % 200) as i64 - 40),
        };
        groups +=
            usize::from(ix.insert(pager, &index_key(&v, row).unwrap(), &[]).unwrap().new_group);
    }
    assert!(groups > 200, "{groups} groups");

    pager.set_root(rows.root());
}

#[test]
fn image_is_byte_identical_to_the_decoded_node_btree() {
    let dir = std::env::temp_dir().join("quarry-btree-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("golden-{}.qpg", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        // A pool far smaller than the image: frames are evicted, written
        // back and re-read throughout the build.
        let mut pager = Pager::create(&RealBackend, &path, 8).unwrap();
        build(&mut pager);
        pager.flush().unwrap();
    }
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    for (id, page) in image.chunks(PAGE_SIZE).enumerate() {
        let len = usize::from(u16::from_le_bytes([page[8], page[9]]));
        assert!(
            page[PAGE_HEADER + len..].iter().all(|b| *b == 0),
            "page {id}: bytes past len {len} must be zero"
        );
    }
    assert_eq!(
        (image.len(), crc32(&image)),
        (GOLDEN_LEN, GOLDEN_CRC),
        "image length / CRC-32 differ from the parent's (got {} / {:#010x})",
        image.len(),
        crc32(&image)
    );
}
