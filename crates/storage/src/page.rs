//! Fixed-size storage pages.
//!
//! Every paged file (checkpoint images today; see [`crate::pager`]) is an
//! array of [`PAGE_SIZE`]-byte pages. A page is self-verifying: its header
//! carries a CRC-32 over everything after the checksum field, so a torn
//! write, a zero-filled tail, or bit rot inside any single page is caught
//! at read time as [`StorageError::Corrupt`] rather than silently decoded.
//!
//! Header layout (16 bytes, little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  crc32 over bytes [4..4096]
//!      4     1  page type (Free / Meta / Directory / Heap)
//!      5     1  flags (reserved, must be 0)
//!      6     2  record count starting in this page (informational)
//!      8     2  payload length in bytes (0..=4080)
//!     10     4  next page id in the chain (0 = none)
//!     14     2  reserved (must be 0)
//! ```
//!
//! The remaining [`PAGE_CAPACITY`] bytes are payload. Records are *not*
//! constrained to a page: long records span a chain of pages linked by
//! `next`, and readers concatenate payloads before decoding (the
//! [`crate::codec`] framing is self-delimiting). An all-zero page never
//! verifies because the CRC of 4092 zero bytes is non-zero.
//!
//! Payload bytes past `len` are always zero, in memory and on disk:
//! [`Page::new`] starts zeroed, [`Page::push`] only appends, and
//! `Page::splice` — how a B-tree node is edited in place — zeroes
//! whatever a shrink vacates. An image therefore depends only on what its
//! pages hold, never on how they came to hold it.

use crate::error::StorageError;
use crate::wal::crc32;
use crate::Result;
use std::ops::Range;

/// Size of every page on disk, header included.
pub const PAGE_SIZE: usize = 4096;
/// Header bytes reserved at the start of each page.
pub const PAGE_HEADER: usize = 16;
/// Payload bytes available per page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER;
/// Page id `0` is the pager's meta page, so `0` doubles as "no page" in
/// chain links and the freelist.
pub const NO_PAGE: u32 = 0;

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// On the freelist, available for reuse.
    Free,
    /// The pager's metadata page (always page 0).
    Meta,
    /// Table directory: schemas plus chain heads / tree roots.
    Directory,
    /// Table heap: encoded `(row_id, row)` records.
    Heap,
    /// B-tree leaf: sorted key/value entries; `next` links the right
    /// sibling for range scans (see [`crate::btree`]).
    BtreeLeaf,
    /// B-tree interior node: child pointers separated by keys.
    BtreeInner,
    /// Overflow chain holding one oversized B-tree key or value.
    Overflow,
}

impl PageType {
    fn tag(self) -> u8 {
        match self {
            PageType::Free => 0,
            PageType::Meta => 1,
            PageType::Directory => 2,
            PageType::Heap => 3,
            PageType::BtreeLeaf => 4,
            PageType::BtreeInner => 5,
            PageType::Overflow => 6,
        }
    }

    fn from_tag(tag: u8) -> Result<PageType> {
        Ok(match tag {
            0 => PageType::Free,
            1 => PageType::Meta,
            2 => PageType::Directory,
            3 => PageType::Heap,
            4 => PageType::BtreeLeaf,
            5 => PageType::BtreeInner,
            6 => PageType::Overflow,
            other => {
                return Err(StorageError::Corrupt(format!("unknown page type {other}")));
            }
        })
    }
}

/// The `N` bytes at `at`, for the fixed-offset little-endian fields of page
/// and meta headers. Infallible: bytes past the end of `buf` read as zero,
/// so a caller that checked the length loses nothing by it and one that
/// did not cannot panic.
fn le_bytes<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(buf.iter().skip(at)) {
        *o = *b;
    }
    out
}

/// Little-endian `u16` at byte `at` of `buf`.
pub(crate) fn le_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(le_bytes(buf, at))
}

/// Little-endian `u32` at byte `at` of `buf`.
pub(crate) fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(le_bytes(buf, at))
}

/// An in-memory page image.
#[derive(Debug, Clone)]
pub struct Page {
    /// Page type.
    pub ptype: PageType,
    /// Records starting in this page (informational; chains may split one
    /// record across pages).
    pub count: u16,
    /// Used payload bytes.
    pub len: u16,
    /// Next page in this chain (heap chain, directory chain, or freelist);
    /// [`NO_PAGE`] terminates.
    pub next: u32,
    /// Payload, `PAGE_CAPACITY` bytes; only `len` of them are meaningful.
    pub data: Box<[u8; PAGE_CAPACITY]>,
}

impl Page {
    /// A fresh, empty page of the given type.
    pub fn new(ptype: PageType) -> Page {
        Page { ptype, count: 0, len: 0, next: NO_PAGE, data: Box::new([0u8; PAGE_CAPACITY]) }
    }

    /// Payload bytes currently in use.
    pub fn payload(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }

    /// Serialize into a `PAGE_SIZE` image, computing the checksum.
    pub fn encode(&self) -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        buf[4] = self.ptype.tag();
        // buf[5] (flags) stays 0.
        buf[6..8].copy_from_slice(&self.count.to_le_bytes());
        buf[8..10].copy_from_slice(&self.len.to_le_bytes());
        buf[10..14].copy_from_slice(&self.next.to_le_bytes());
        // buf[14..16] (reserved) stays 0.
        buf[PAGE_HEADER..].copy_from_slice(&self.data[..]);
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse and verify a `PAGE_SIZE` image.
    pub fn decode(buf: &[u8]) -> Result<Page> {
        if buf.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image is {} bytes, want {PAGE_SIZE}",
                buf.len()
            )));
        }
        let stored = le_u32(buf, 0);
        let actual = crc32(&buf[4..]);
        if stored != actual {
            return Err(StorageError::Corrupt(format!(
                "page checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let ptype = PageType::from_tag(buf[4])?;
        if buf[5] != 0 || buf[14] != 0 || buf[15] != 0 {
            return Err(StorageError::Corrupt("page reserved bytes are non-zero".into()));
        }
        let count = le_u16(buf, 6);
        let len = le_u16(buf, 8);
        if len as usize > PAGE_CAPACITY {
            return Err(StorageError::Corrupt(format!("page payload length {len} > capacity")));
        }
        let next = le_u32(buf, 10);
        // One copy into the frame's own allocation, with nothing zeroed
        // first: the payload is every byte after the header.
        let data = buf[PAGE_HEADER..].to_vec().into_boxed_slice().try_into().map_err(|_| {
            StorageError::Corrupt(format!("page payload is not {PAGE_CAPACITY} bytes"))
        })?;
        Ok(Page { ptype, count, len, next, data })
    }

    /// Append payload bytes; returns how many fit.
    pub fn push(&mut self, bytes: &[u8]) -> usize {
        let room = PAGE_CAPACITY - self.len as usize;
        let n = room.min(bytes.len());
        self.data[self.len as usize..self.len as usize + n].copy_from_slice(&bytes[..n]);
        self.len += n as u16;
        n
    }

    /// Replace payload bytes `range` with `bytes`, shifting what follows
    /// and zeroing whatever a shrink vacates. Returns `false`, leaving the
    /// page as it was, when `range` is not inside the payload or the
    /// result would not fit.
    pub(crate) fn splice(&mut self, range: Range<usize>, bytes: &[u8]) -> bool {
        let len = self.len as usize;
        if range.start > range.end || range.end > len {
            return false;
        }
        let new_len = len - range.len() + bytes.len();
        if new_len > PAGE_CAPACITY {
            return false;
        }
        let inserted_end = range.start + bytes.len();
        self.data.copy_within(range.end..len, inserted_end);
        self.data[range.start..inserted_end].copy_from_slice(bytes);
        if new_len < len {
            self.data[new_len..len].fill(0);
        }
        self.len = new_len as u16;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut p = Page::new(PageType::Heap);
        p.count = 3;
        p.next = 17;
        assert_eq!(p.push(b"hello page"), 10);
        let img = p.encode();
        let q = Page::decode(&img).unwrap();
        assert_eq!(q.ptype, PageType::Heap);
        assert_eq!(q.count, 3);
        assert_eq!(q.next, 17);
        assert_eq!(q.payload(), b"hello page");
    }

    #[test]
    fn push_spills_at_capacity() {
        let mut p = Page::new(PageType::Heap);
        let big = vec![0xAB; PAGE_CAPACITY + 100];
        assert_eq!(p.push(&big), PAGE_CAPACITY);
        assert_eq!(p.push(b"more"), 0);
        assert_eq!(p.len as usize, PAGE_CAPACITY);
    }

    #[test]
    fn splice_inserts_replaces_and_removes_in_place() {
        let mut p = Page::new(PageType::BtreeLeaf);
        p.push(b"aaaaDDDDzz");
        assert!(p.splice(4..4, b"bb")); // insert
        assert_eq!(p.payload(), b"aaaabbDDDDzz");
        assert!(p.splice(6..10, b"c")); // replace with something shorter
        assert_eq!(p.payload(), b"aaaabbczz");
        assert!(p.splice(0..4, b"")); // remove
        assert_eq!(p.payload(), b"bbczz");
        assert!(p.data[5..].iter().all(|b| *b == 0), "vacated bytes are zeroed");
        // Out-of-payload ranges and overflowing results change nothing.
        assert!(!p.splice(3..9, b"x"));
        assert!(!p.splice(5..5, &[1u8; PAGE_CAPACITY]));
        assert_eq!(p.payload(), b"bbczz");
        assert!(p.splice(5..5, &[1u8; PAGE_CAPACITY - 5]), "exactly full fits");
        assert_eq!(p.len as usize, PAGE_CAPACITY);
    }

    #[test]
    fn header_reads_are_infallible() {
        assert_eq!(le_u32(&[0x78, 0x56, 0x34, 0x12, 0xFF], 0), 0x1234_5678);
        assert_eq!(le_u16(&[0, 0xCD, 0xAB], 1), 0xABCD);
        assert_eq!(le_u32(&[1, 2], 1), 2, "bytes past the end read as zero");
        assert_eq!(le_u16(&[], 7), 0);
    }

    #[test]
    fn bad_crc_is_corrupt() {
        let img = Page::new(PageType::Directory).encode();
        let mut bad = img;
        bad[100] ^= 0x01; // flip one payload bit
        assert!(matches!(Page::decode(&bad), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn zero_filled_page_is_corrupt() {
        // A torn multi-page write can leave a tail of zero pages; they must
        // not verify (crc32 of the zero body is non-zero, so stored 0 != it).
        let zeros = [0u8; PAGE_SIZE];
        assert!(matches!(Page::decode(&zeros), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn wrong_size_and_bad_type_are_corrupt() {
        assert!(Page::decode(&[0u8; 100]).is_err());
        let mut p = Page::new(PageType::Heap).encode();
        p[4] = 9; // bogus type tag
        let crc = crate::wal::crc32(&p[4..]);
        p[0..4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(Page::decode(&p), Err(StorageError::Corrupt(_))));
    }
}
