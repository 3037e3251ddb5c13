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
//! pages hold, never on how they came to hold it. A read holds every page
//! to this too: one whose tail is not zero is `Corrupt`, however valid its
//! checksum, since a later shrink would write its stale bytes back.
//!
//! A [`Page`] has room for the whole on-disk image, header bytes included,
//! so the pager reads a page straight into the frame that will hold it and
//! verifies it there (`Page::load`); [`Page::decode`] does the same from
//! a buffer. Once verified, the header lives in the page's fields alone
//! and its bytes in the image are zero.

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
    /// Room for the whole page as it lies on disk, so that a read lands in
    /// it directly: [`PAGE_HEADER`] header bytes, then the payload, of
    /// which only `len` bytes are meaningful. The fields above are the
    /// header; the header bytes here hold a read only while `Page::load`
    /// verifies it, and are zero at every other time ([`Page::encode`]
    /// writes the fields into its copy).
    image: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A fresh, empty page of the given type.
    pub fn new(ptype: PageType) -> Page {
        Page { ptype, count: 0, len: 0, next: NO_PAGE, image: Box::new([0u8; PAGE_SIZE]) }
    }

    /// Payload bytes currently in use.
    pub fn payload(&self) -> &[u8] {
        // `len` never exceeds `PAGE_CAPACITY`: every writer keeps it, and
        // a read refuses an image that claims more.
        self.image.get(PAGE_HEADER..PAGE_HEADER + usize::from(self.len)).unwrap_or_default()
    }

    /// All [`PAGE_CAPACITY`] payload bytes, used or not.
    fn data_mut(&mut self) -> &mut [u8] {
        self.image.get_mut(PAGE_HEADER..).unwrap_or_default()
    }

    /// Serialize into a `PAGE_SIZE` image, computing the checksum.
    pub fn encode(&self) -> [u8; PAGE_SIZE] {
        // The image's header bytes are zero: only the fields are written.
        let mut buf = *self.image;
        buf[4] = self.ptype.tag();
        // buf[5] (flags) stays 0.
        buf[6..8].copy_from_slice(&self.count.to_le_bytes());
        buf[8..10].copy_from_slice(&self.len.to_le_bytes());
        buf[10..14].copy_from_slice(&self.next.to_le_bytes());
        // buf[14..16] (reserved) stays 0.
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse and verify a `PAGE_SIZE` image (see `Page::load` for what
    /// is checked).
    pub fn decode(buf: &[u8]) -> Result<Page> {
        if buf.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image is {} bytes, want {PAGE_SIZE}",
                buf.len()
            )));
        }
        let mut page = Page::new(PageType::Free);
        page.load(|image| {
            image.copy_from_slice(buf);
            Ok(())
        })?;
        Ok(page)
    }

    /// Fill this page's own bytes with `read`, which writes one whole
    /// `PAGE_SIZE` image or fails, and verify the image where it lies: the
    /// checksum, a known type, zero flags and reserved bytes, a `len`
    /// within [`PAGE_CAPACITY`], and zero payload bytes past `len` — the
    /// invariant every writer keeps, so an image that breaks it is damaged
    /// whatever its checksum says. A failed read is returned as it is
    /// ([`StorageError::Io`]), a failed check as
    /// [`StorageError::Corrupt`], and either leaves an empty `Free` page
    /// with every byte zero, as [`Page::new`] makes — never a page whose
    /// fields and bytes disagree.
    pub(crate) fn load(
        &mut self,
        read: impl FnOnce(&mut [u8]) -> std::io::Result<()>,
    ) -> Result<()> {
        let header = read(&mut self.image[..]).map_err(StorageError::from).and_then(|()| {
            let buf = &self.image[..];
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
            let len = le_u16(buf, 8);
            let Some(tail) = buf.get(PAGE_HEADER + len as usize..) else {
                return Err(StorageError::Corrupt(format!("page payload length {len} > capacity")));
            };
            // An OR over the tail, not a search for the first non-zero
            // byte: it vectorizes, and a valid page reads to the end anyway.
            if tail.iter().fold(0, |acc, b| acc | b) != 0 {
                return Err(StorageError::Corrupt(format!(
                    "page payload bytes past its length {len} are not zero"
                )));
            }
            Ok((ptype, le_u16(buf, 6), len, le_u32(buf, 10)))
        });
        match header {
            Ok(header) => {
                (self.ptype, self.count, self.len, self.next) = header;
                self.image.get_mut(..PAGE_HEADER).unwrap_or_default().fill(0);
                Ok(())
            }
            Err(e) => {
                (self.ptype, self.count, self.len, self.next) = (PageType::Free, 0, 0, NO_PAGE);
                self.image.fill(0);
                Err(e)
            }
        }
    }

    /// Append payload bytes; returns how many fit.
    pub fn push(&mut self, bytes: &[u8]) -> usize {
        let len = usize::from(self.len);
        let free = self.data_mut().get_mut(len..).unwrap_or_default();
        let n = free.len().min(bytes.len());
        if let Some((to, from)) = free.get_mut(..n).zip(bytes.get(..n)) {
            to.copy_from_slice(from);
        }
        self.len += n as u16;
        n
    }

    /// Could `n` more payload bytes be appended?
    pub(crate) fn has_room(&self, n: usize) -> bool {
        usize::from(self.len) + n <= PAGE_CAPACITY
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
        let data = self.data_mut();
        data.copy_within(range.end..len, inserted_end);
        // Both ranges lie inside the payload's capacity, checked above; a
        // growth vacates nothing, and `new_len..len` is then no range.
        if let Some(inserted) = data.get_mut(range.start..inserted_end) {
            inserted.copy_from_slice(bytes);
        }
        if let Some(vacated) = data.get_mut(new_len..len) {
            vacated.fill(0);
        }
        self.len = new_len as u16;
        true
    }
}

/// Writing appends to the payload, as [`Page::push`] does: a write takes
/// what fits, so `write_all` past [`PAGE_CAPACITY`] fails with
/// `WriteZero`.
impl std::io::Write for Page {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        Ok(self.push(bytes))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
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
        assert!(p.encode()[PAGE_HEADER + 5..].iter().all(|b| *b == 0), "vacated bytes are zeroed");
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

    /// A CRC catches every single-bit error, so each of a page image's
    /// 32 768 bits — the stored checksum's own included — flipped alone
    /// fails the load at the checksum, whatever computes it.
    #[test]
    fn every_single_bit_flip_is_corrupt() {
        let mut p = Page::new(PageType::BtreeLeaf);
        p.count = 5;
        p.next = 42;
        let payload: Vec<u8> =
            (0..3000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        p.push(&payload);
        let img = p.encode();
        let mut q = Page::new(PageType::Free);
        for bit in 0..PAGE_SIZE * 8 {
            let err = q.load(|image| {
                image.copy_from_slice(&img);
                image[bit / 8] ^= 1 << (bit % 8);
                Ok(())
            });
            assert!(
                matches!(&err, Err(StorageError::Corrupt(m)) if m.contains("checksum mismatch")),
                "bit {bit}: {err:?}"
            );
        }
        q.load(|image| {
            image.copy_from_slice(&img);
            Ok(())
        })
        .unwrap();
        assert_eq!(q.payload(), &payload[..]);
    }

    /// Payload bytes past `len` are zero on every page a writer makes, so
    /// a page whose tail is not is refused however valid its checksum: a
    /// later `splice` that shrank it would zero only what it vacated and
    /// write the rest back, and the image would depend on its history.
    #[test]
    fn bytes_past_the_payload_length_are_corrupt() {
        let mut p = Page::new(PageType::BtreeLeaf);
        p.push(b"0123456789");
        for at in [PAGE_HEADER + 10, PAGE_HEADER + 11, PAGE_SIZE - 1] {
            let mut img = p.encode();
            img[at] = 0xAB;
            let crc = crc32(&img[4..]);
            img[0..4].copy_from_slice(&crc.to_le_bytes());
            let err = Page::decode(&img).map(|q| q.len).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains("past its length 10")),
                "byte {at}: {err}"
            );
        }
        // The last payload byte of a full page is payload, not tail.
        let mut full = Page::new(PageType::Heap);
        full.push(&[0xAB; PAGE_CAPACITY]);
        assert_eq!(Page::decode(&full.encode()).unwrap().payload(), &[0xAB; PAGE_CAPACITY][..]);
    }

    /// A load leaves no second copy of the header: a verified one lives
    /// in the fields with the image's header bytes zero, and a failed
    /// read or check leaves the page empty, as `Page::new` makes it.
    #[test]
    fn a_load_leaves_the_header_in_the_fields_alone() {
        let mut p = Page::new(PageType::Heap);
        p.count = 2;
        p.next = 9;
        p.push(b"payload");
        let img = p.encode();
        let mut q = Page::new(PageType::Free);
        q.load(|image| {
            image.copy_from_slice(&img);
            Ok(())
        })
        .unwrap();
        assert_eq!((q.ptype, q.count, q.len, q.next), (PageType::Heap, 2, 7, 9));
        assert_eq!(q.image[..PAGE_HEADER], [0; PAGE_HEADER]);
        assert_eq!(q.encode(), img);

        let mut bad = img;
        bad[PAGE_HEADER] ^= 1;
        let err = q.load(|image| {
            image.copy_from_slice(&bad);
            Ok(())
        });
        assert!(matches!(err, Err(StorageError::Corrupt(_))), "{err:?}");
        let failed = q.load(|image| {
            image[..100].fill(0xAB);
            Err(std::io::ErrorKind::UnexpectedEof.into())
        });
        assert!(matches!(failed, Err(StorageError::Io(_))), "{failed:?}");
        assert_eq!((q.ptype, q.count, q.len, q.next), (PageType::Free, 0, 0, NO_PAGE));
        assert!(q.image.iter().all(|b| *b == 0), "a failed load leaves no bytes behind");
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
