//! On-disk B-trees over the pager: the page-native table and index
//! storage behind checkpoint images.
//!
//! A tree is a set of [`PageType::BtreeLeaf`] / [`PageType::BtreeInner`]
//! pages inside one paged file (see [`crate::page`] for the page format).
//! Leaves hold sorted `(key, value)` entries and link their right sibling
//! through the page header's `next` field, so a full or bounded range scan
//! walks the leaf level without touching interior nodes. Interior nodes
//! hold child page ids separated by keys; a separator is the smallest key
//! reachable through the child to its right, so descent takes the child
//! after the last separator `<=` the probe key.
//!
//! **A node is its page.** Nothing is decoded into an owned node: reads,
//! inserts and cursors all work through one borrowed view (`Node`) of
//! the pool's shared frame. The first visit of a resident page makes a
//! single validating pass over its payload — entry flags, every inline
//! run inside the page, every page id inside the id range, no trailing
//! bytes, and a `count` the payload could actually hold, checked before
//! anything is allocated for it — and leaves behind a table of `u16`
//! entry offsets, which the pager caches beside the frame (it is derived,
//! never persisted). Searches binary-search that table comparing key
//! bytes where they lie; an insert shifts bytes inside the page and hands
//! the pager the table shifted to match, so a resident node is validated
//! once however often it is edited; a split copies byte ranges into two
//! fresh pages at the cut `split_index` picks, which the next visit
//! validates like any other new image. A [`Cursor`] holds its leaf's frame, so the
//! pool may evict the page under it.
//!
//! Keys and values are ordinary [`crate::codec`] byte strings. Keys are
//! compared straight off the two encodings under a [`KeyOrder`], by the
//! documented [`Value`] total order (`codec::compare_values`), which keeps
//! the on-disk trees bit-consistent with the in-memory `SecondaryIndex`
//! ordering — no memcomparable encoding, no Int-vs-Float precision traps.
//!
//! Oversized keys/values spill into [`PageType::Overflow`] chains (one
//! chain per blob) so a leaf entry is never larger than ~1.5 KiB and a
//! page always holds at least two entries. Trees here are *build-once*:
//! a checkpoint builds each tree bottom-up from a sorted stream
//! ([`Builder`]) and nothing ever deletes, so overflow chains referenced
//! by both a leaf and a copied separator are safe to alias — nothing in an
//! image is ever freed until the whole file is replaced by the next
//! checkpoint.
//!
//! Inserting into a full node splits it. A split at the node's right edge
//! (the append path: keys arrive ascending) keeps everything but the new
//! entry in the left page, yielding ~full pages for sorted loads, while a
//! mid-node split picks the byte-balanced cut. Either way both halves are
//! guaranteed to fit, because the largest possible entry is far smaller
//! than half a page. [`Builder`] cuts its pages where right-edge splits
//! would, so its file is the one [`BTree::insert`] leaves fed the same
//! sorted stream, byte for byte; `insert` stays as that oracle and for
//! trees fed in any order.
//!
//! Node payloads (unchanged since the first B-tree image): a leaf is
//! `count` entries of `flags key value`; an inner node is a child id, then
//! `count` entries of `flags key child`. Page ids and inline lengths are
//! uvarints; a key or value is `len bytes` inline, or the head page id of
//! its overflow chain when the matching flag bit is set.

use crate::codec;
use crate::error::StorageError;
use crate::page::{Page, PageType, NO_PAGE, PAGE_CAPACITY};
use crate::pager::{read_chain, ChainWriter, Pager};
use crate::value::Value;
use crate::Result;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

/// Largest key stored inline in a node; longer keys spill to an overflow
/// chain.
const MAX_INLINE_KEY: usize = 512;
/// Largest value stored inline in a leaf; longer values spill.
const MAX_INLINE_VAL: usize = 1024;

/// Entry flag: the key lives in an overflow chain.
const FLAG_KEY_SPILLED: u8 = 0b01;
/// Leaf-entry flag: the value lives in an overflow chain.
const FLAG_VAL_SPILLED: u8 = 0b10;

/// Fewest bytes an entry can take: flags, then two one-byte uvarints.
const MIN_ENTRY: usize = 3;
/// Most bytes a uvarint takes.
const MAX_UVARINT: usize = 10;

/// A `Corrupt` error. Cold: the validating pass checks every byte of a
/// node it reads and refuses almost none, so its error paths stay out of
/// the loop.
#[cold]
fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt(what.into())
}

/// How a tree's keys decode and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOrder {
    /// One `codec` uvarint: a row id. Row trees.
    RowId,
    /// A `codec` row of primary-key values, compared lexicographically
    /// under the `Value` total order. Primary-key trees.
    PkValues,
    /// One `codec` value followed by a uvarint row id, compared as the
    /// pair. Secondary-index trees; entries sharing the value form one
    /// *group* (see [`BTree::insert`]'s `new_group`).
    ValueRowId,
}

/// Compare two `(value, row id)` keys: the order of the values, then of
/// the row ids.
fn compare_index_keys(a: &[u8], b: &[u8]) -> Result<(Ordering, Ordering)> {
    let (apos, bpos) = (&mut 0, &mut 0);
    let by_value = codec::compare_values(a, apos, b, bpos)?;
    Ok((by_value, codec::read_u64(a, apos)?.cmp(&codec::read_u64(b, bpos)?)))
}

impl KeyOrder {
    /// Compare two encoded keys under this order, without decoding either
    /// into owned values. A key that does not decode is
    /// [`StorageError::Corrupt`], whichever side it is on and wherever the
    /// order was decided.
    pub fn compare(self, a: &[u8], b: &[u8]) -> Result<Ordering> {
        match self {
            KeyOrder::RowId => Ok(decode_row_key(a)?.cmp(&decode_row_key(b)?)),
            KeyOrder::PkValues => codec::compare_rows(a, &mut 0, b, &mut 0),
            KeyOrder::ValueRowId => {
                let (by_value, by_row) = compare_index_keys(a, b)?;
                Ok(by_value.then(by_row))
            }
        }
    }

    /// Do two keys belong to the same group? Only `ValueRowId` has groups
    /// wider than exact equality (same indexed value, any row).
    fn same_group(self, a: &[u8], b: &[u8]) -> Result<bool> {
        match self {
            KeyOrder::ValueRowId => Ok(compare_index_keys(a, b)?.0 == Ordering::Equal),
            _ => Ok(self.compare(a, b)? == Ordering::Equal),
        }
    }
}

/// Encode a row-tree key.
pub fn row_key(row_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    let _ = write_row_key(&mut out, row_id); // Vec writes are infallible
    out
}

/// [`row_key`] into `out`, replacing what it held.
pub(crate) fn write_row_key(out: &mut Vec<u8>, row_id: u64) -> Result<()> {
    out.clear();
    codec::write_u64(out, row_id)
}

/// Decode a row-tree key.
pub fn decode_row_key(key: &[u8]) -> Result<u64> {
    codec::read_u64(key, &mut 0)
}

/// Encode a primary-key-tree key from the key column values.
pub fn pk_key(key: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    codec::write_row(&mut out, key)?;
    Ok(out)
}

/// [`pk_key`] of the values `row` holds in its `key_columns`, into `out`,
/// replacing what it held and cloning nothing.
pub(crate) fn write_pk_key(out: &mut Vec<u8>, row: &[Value], key_columns: &[usize]) -> Result<()> {
    out.clear();
    codec::write_columns(out, row, key_columns)
}

/// Encode a secondary-index-tree key: `(indexed value, row id)`.
pub fn index_key(value: &Value, row_id: u64) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_index_key(&mut out, value, row_id)?;
    Ok(out)
}

/// [`index_key`] into `out`, replacing what it held.
pub(crate) fn write_index_key(out: &mut Vec<u8>, value: &Value, row_id: u64) -> Result<()> {
    out.clear();
    codec::write_value(out, value)?;
    codec::write_u64(out, row_id)
}

/// Decode a secondary-index-tree key.
pub fn decode_index_key(key: &[u8]) -> Result<(Value, u64)> {
    let pos = &mut 0;
    let value = codec::read_value(key, pos)?;
    let row_id = codec::read_u64(key, pos)?;
    Ok((value, row_id))
}

/// A page id stored as a uvarint.
fn read_page_id(data: &[u8], pos: &mut usize, what: &str) -> Result<u32> {
    u32::try_from(codec::read_u64(data, pos)?)
        .map_err(|_| corrupt(format!("btree {what} exceeds the page-id range")))
}

/// A key or value where it lies in a node: the bytes themselves, or the
/// head page of the overflow chain that holds them.
#[derive(Debug, Clone, Copy)]
enum Stored<'a> {
    Inline(&'a [u8]),
    Spilled(u32),
}

impl<'a> Stored<'a> {
    /// Parse one at `pos`. An inline run must end inside `data`.
    fn read(data: &'a [u8], pos: &mut usize, spilled: bool) -> Result<Stored<'a>> {
        if spilled {
            return Ok(Stored::Spilled(read_page_id(data, pos, "overflow head")?));
        }
        let len = usize::try_from(codec::read_u64(data, pos)?).ok();
        let bytes = len
            .and_then(|len| pos.checked_add(len))
            .and_then(|end| data.get(*pos..end))
            .ok_or_else(|| corrupt("btree blob overruns its page"))?;
        *pos += bytes.len();
        Ok(Stored::Inline(bytes))
    }

    /// The bytes: borrowed from the page when inline, read from the
    /// overflow chain when spilled.
    fn bytes(self, pager: &mut Pager) -> Result<Cow<'a, [u8]>> {
        match self {
            Stored::Inline(bytes) => Ok(Cow::Borrowed(bytes)),
            Stored::Spilled(head) => read_chain(pager, head, PageType::Overflow).map(Cow::Owned),
        }
    }

    /// `bytes` as an entry stores them: inline, or — when longer than
    /// `max_inline` — in a fresh overflow chain, written here.
    fn spill(pager: &mut Pager, bytes: &'a [u8], max_inline: usize) -> Result<Stored<'a>> {
        if bytes.len() <= max_inline {
            return Ok(Stored::Inline(bytes));
        }
        let mut w = ChainWriter::new(pager, PageType::Overflow)?;
        w.push_record(pager, bytes)?;
        Ok(Stored::Spilled(w.finish(pager)?.0))
    }

    /// `flag` if spilled, else no flag.
    fn flag(self, flag: u8) -> u8 {
        match self {
            Stored::Inline(_) => 0,
            Stored::Spilled(_) => flag,
        }
    }

    /// Bytes [`Stored::write`] appends.
    fn len(self) -> usize {
        match self {
            Stored::Inline(bytes) => codec::u64_len(bytes.len() as u64) + bytes.len(),
            Stored::Spilled(head) => codec::u64_len(head.into()),
        }
    }

    /// Append it to an entry under construction: `len bytes`, or the
    /// chain's head page id.
    fn write(self, entry: &mut impl Write) -> Result<()> {
        match self {
            Stored::Inline(bytes) => {
                codec::write_u64(entry, bytes.len() as u64)?;
                Ok(entry.write_all(bytes)?)
            }
            Stored::Spilled(head) => codec::write_u64(entry, head.into()),
        }
    }
}

/// Append `bytes` to an entry under construction as [`Stored::spill`]
/// stores them. Returns whether they spilled.
fn write_stored(
    pager: &mut Pager,
    entry: &mut impl Write,
    bytes: &[u8],
    max_inline: usize,
) -> Result<bool> {
    let stored = Stored::spill(pager, bytes, max_inline)?;
    stored.write(entry)?;
    Ok(matches!(stored, Stored::Spilled(_)))
}

/// Parse the head of an entry — its flags byte and its key — at `pos`.
fn read_key<'a>(data: &'a [u8], pos: &mut usize) -> Result<(u8, Stored<'a>)> {
    let flags = *data.get(*pos).ok_or_else(|| corrupt("btree entry truncated"))?;
    *pos += 1;
    Ok((flags, Stored::read(data, pos, flags & FLAG_KEY_SPILLED != 0)?))
}

/// Split an entry after its key: `(flags + key as stored, what follows)` —
/// the value of a leaf entry, the child id of an inner one.
fn split_entry(entry: &[u8]) -> Result<(&[u8], &[u8])> {
    let mut key_end = 0;
    read_key(entry, &mut key_end)?;
    entry.split_at_checked(key_end).ok_or_else(|| corrupt("btree entry truncated"))
}

/// The validating pass: check everything about a node's payload that a
/// search or an edit will rely on, and return where its entries lie —
/// `count + 1` offsets, each entry's start and then the last one's end.
/// Runs at most once per pool residency ([`Pager::read_indexed`]), so once
/// per pool miss on a node: one pass that parses each entry once and
/// writes the table as it goes, into its one allocation, sized by `count`
/// only once `count` is known to fit the payload.
fn entry_offsets(page: &Page) -> Result<Arc<[u16]>> {
    let mut entries = Entries::of(page)?;
    let mut offsets = new_table(entries.count + 1);
    let (end, starts) = Arc::get_mut(&mut offsets)
        .and_then(|table| table.split_last_mut())
        .ok_or_else(|| corrupt("btree offset table is shared"))?;
    for start in starts {
        *start = entries.step()?;
    }
    *end = entries.end()?;
    Ok(offsets)
}

/// Is `offsets` the table [`entry_offsets`] builds for `page`? The same
/// pass, compared as it goes instead of written down, so that a debug
/// build, which asks after every edit, allocates what a release build
/// does.
fn is_entry_table(page: &Page, offsets: &[u16]) -> bool {
    let Ok(mut entries) = Entries::of(page) else {
        return false;
    };
    let Some((end, starts)) = offsets.split_last().filter(|(_, s)| s.len() == entries.count) else {
        return false;
    };
    starts.iter().all(|&start| entries.step().is_ok_and(|at| at == start))
        && entries.end().is_ok_and(|at| at == *end)
}

/// A zeroed offset table of exactly `len` entries, unshared, to be filled
/// in place: its one allocation, with no page-sized buffer cleared first.
/// (A repeated value has an exact length, so it collects straight into
/// the `Arc`.)
fn new_table(len: usize) -> Arc<[u16]> {
    std::iter::repeat_n(0, len).collect()
}

/// The validating pass over one node, entry by entry.
struct Entries<'p> {
    /// The payload.
    data: &'p [u8],
    /// The flags an entry may carry: a leaf's value may spill, an inner
    /// node's child id is never stored any other way.
    allowed: u8,
    leaf: bool,
    /// The header's `count`, one the payload can hold.
    count: usize,
    /// Where the next entry starts.
    pos: usize,
}

impl<'p> Entries<'p> {
    /// Check `page`'s type, bound its `count` by what its `len` bytes can
    /// hold before anything is sized by it, and step over an inner node's
    /// leading child.
    fn of(page: &'p Page) -> Result<Entries<'p>> {
        let leaf = match page.ptype {
            PageType::BtreeLeaf => true,
            PageType::BtreeInner => false,
            other => return Err(corrupt(format!("btree descent reached a {other:?} page"))),
        };
        let allowed = if leaf { FLAG_KEY_SPILLED | FLAG_VAL_SPILLED } else { FLAG_KEY_SPILLED };
        let (data, count) = (page.payload(), usize::from(page.count));
        if count * MIN_ENTRY > data.len() {
            let len = data.len();
            return Err(corrupt(format!("btree node claims {count} entries in {len} bytes")));
        }
        let mut pos = 0;
        if !leaf {
            read_page_id(data, &mut pos, "child id")?;
        }
        Ok(Entries { data, allowed, leaf, count, pos })
    }

    /// Step over the entry at `pos` — the flags, the key, then a leaf's
    /// value or an inner node's child id — checking that every inline run
    /// ends inside the payload, every page id is in the id range and no
    /// unknown flag is set. Returns where the entry starts.
    fn step(&mut self) -> Result<u16> {
        let (data, pos) = (self.data, &mut self.pos);
        let start = offset(*pos)?;
        let (flags, _) = read_key(data, pos)?;
        if flags & !self.allowed != 0 {
            return Err(corrupt(format!("unknown btree entry flags {flags:#04x}")));
        }
        if self.leaf {
            Stored::read(data, pos, flags & FLAG_VAL_SPILLED != 0)?;
        } else {
            read_page_id(data, pos, "child id")?;
        }
        Ok(start)
    }

    /// Where the last entry ends, once every entry was stepped over: the
    /// end of the payload, or the node has trailing bytes.
    fn end(&self) -> Result<u16> {
        if self.pos != self.data.len() {
            return Err(corrupt("btree node has trailing bytes"));
        }
        offset(self.pos)
    }
}

/// A payload position as an offset-table entry.
fn offset(pos: usize) -> Result<u16> {
    u16::try_from(pos).map_err(|_| corrupt("btree offset overflows"))
}

/// The offset table of a node once an entry of `entry_len` bytes lies at
/// index `pos` — in place of the entry there when `replace`, else before
/// it — worked out from `old`, the table before the edit: the entries up
/// to `pos` stay where they are and those after the edit move by the
/// difference in length. The entry is one this module has just built, so
/// the result equals what [`entry_offsets`] would validate the edited page
/// into, at the cost of copying a few hundred offsets.
fn shifted_offsets(old: &[u16], pos: usize, replace: bool, entry_len: usize) -> Result<Arc<[u16]>> {
    let out_of_range = || corrupt(format!("btree entry {pos} out of range"));
    let (head, tail) = (old.get(..=pos), old.get(pos + usize::from(replace)..));
    let (head, tail) = head.zip(tail).ok_or_else(out_of_range)?;
    let (start, old_end) = head.last().zip(tail.first()).ok_or_else(out_of_range)?;
    let new_end = usize::from(*start) + entry_len;
    let mut offsets = new_table(head.len() + tail.len());
    let (new_head, new_tail) = Arc::get_mut(&mut offsets)
        .ok_or_else(|| corrupt("btree offset table is shared"))?
        .split_at_mut(head.len());
    new_head.copy_from_slice(head);
    for (moved, at) in new_tail.iter_mut().zip(tail) {
        *moved = (usize::from(*at) + new_end)
            .checked_sub(usize::from(*old_end))
            .and_then(|at| u16::try_from(at).ok())
            .ok_or_else(|| corrupt("btree offset overflows"))?;
    }
    Ok(offsets)
}

/// One node, searched and edited where it lies: the pool's shared frame
/// plus the entry offsets [`entry_offsets`] validated it into. Cloning is
/// two reference-count bumps.
#[derive(Debug, Clone)]
struct Node {
    page: Arc<Page>,
    offsets: Arc<[u16]>,
}

impl Node {
    fn read(pager: &mut Pager, id: u32) -> Result<Node> {
        let (page, offsets) = pager.read_indexed(id, entry_offsets)?;
        Ok(Node { page, offsets })
    }

    fn is_leaf(&self) -> bool {
        self.page.ptype == PageType::BtreeLeaf
    }

    /// Entries in the node. An inner node has one more child than that.
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Payload range of entries `from..to`.
    fn span(&self, from: usize, to: usize) -> Result<Range<usize>> {
        match (self.offsets.get(from), self.offsets.get(to)) {
            (Some(&start), Some(&end)) if start <= end => Ok(start.into()..end.into()),
            _ => Err(corrupt(format!("btree entries {from}..{to} out of range"))),
        }
    }

    fn entry(&self, i: usize) -> Result<&[u8]> {
        let span = self.span(i, i + 1)?;
        self.page.payload().get(span).ok_or_else(|| corrupt("btree entry outside its page"))
    }

    fn key(&self, i: usize) -> Result<Stored<'_>> {
        Ok(read_key(self.entry(i)?, &mut 0)?.1)
    }

    /// Key and value of leaf entry `i`.
    fn key_val(&self, i: usize) -> Result<(Stored<'_>, Stored<'_>)> {
        let (entry, pos) = (self.entry(i)?, &mut 0);
        let (flags, key) = read_key(entry, pos)?;
        Ok((key, Stored::read(entry, pos, flags & FLAG_VAL_SPILLED != 0)?))
    }

    /// Child `i` of an inner node: the leading child id, or the one that
    /// closes entry `i - 1`.
    fn child(&self, i: usize) -> Result<u32> {
        match i.checked_sub(1) {
            None => read_page_id(self.page.payload(), &mut 0, "child id"),
            Some(entry) => read_page_id(split_entry(self.entry(entry)?)?.1, &mut 0, "child id"),
        }
    }
}

/// Did an insert open a new key group? (Exact for every order; only
/// interesting for [`KeyOrder::ValueRowId`], where it counts distinct
/// indexed values — as [`Builder::push`]'s answer does during a
/// checkpoint build.)
#[derive(Debug, Clone, Copy)]
pub struct InsertOutcome {
    /// No pre-existing entry shares the inserted key's group.
    pub new_group: bool,
}

/// One B-tree inside a paged file. The struct is just `(root, order)`;
/// all I/O goes through the `&mut Pager` passed to each call, mirroring
/// [`ChainWriter`].
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: u32,
    order: KeyOrder,
}

/// The inner nodes an insert descended through: `(page id, node, index
/// of the child taken)`, root first.
type Path = Vec<(u32, Node, usize)>;

impl BTree {
    /// Create an empty tree: one empty leaf as the root.
    pub fn create(pager: &mut Pager, order: KeyOrder) -> Result<BTree> {
        Ok(BTree { root: pager.allocate(PageType::BtreeLeaf)?, order })
    }

    /// Re-attach to a tree previously built in `pager`'s file.
    pub fn open(root: u32, order: KeyOrder) -> BTree {
        BTree { root, order }
    }

    /// Current root page id (changes when the root splits).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The key order this tree was opened with.
    pub fn order(&self) -> KeyOrder {
        self.order
    }

    /// Walk from page `id` down to a leaf, taking at each inner node the
    /// child `pick` chooses. Returns the leaf and its page id.
    fn descend(
        pager: &mut Pager,
        mut id: u32,
        mut pick: impl FnMut(&mut Pager, u32, &Node) -> Result<usize>,
    ) -> Result<(u32, Node)> {
        let mut depth = 0u64;
        loop {
            depth += 1;
            if depth > u64::from(pager.page_count()) {
                return Err(corrupt("btree descent cycles"));
            }
            let node = Node::read(pager, id)?;
            if node.is_leaf() {
                return Ok((id, node));
            }
            let child = pick(pager, id, &node)?;
            id = node.child(child)?;
        }
    }

    /// The leaf `key` belongs in.
    fn descend_to(&self, pager: &mut Pager, key: &[u8]) -> Result<Node> {
        Ok(Self::descend(pager, self.root, |pager, _, node| self.child_index(pager, node, key))?.1)
    }

    /// Index of the child to descend into: after the last separator
    /// `<= key`.
    fn child_index(&self, pager: &mut Pager, node: &Node, key: &[u8]) -> Result<usize> {
        let (mut lo, mut hi) = (0usize, node.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let sep = node.key(mid)?.bytes(pager)?;
            if self.order.compare(&sep, key)? == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(lo)
    }

    /// Position of `key` in a leaf: `(index, exact)` where `index` is the
    /// first entry `>= key`.
    fn leaf_pos(&self, pager: &mut Pager, leaf: &Node, key: &[u8]) -> Result<(usize, bool)> {
        let (mut lo, mut hi) = (0usize, leaf.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let probe = leaf.key(mid)?.bytes(pager)?;
            match self.order.compare(&probe, key)? {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok((mid, true)),
                Ordering::Greater => hi = mid,
            }
        }
        Ok((lo, false))
    }

    /// Point lookup: the value stored under `key`, if present.
    pub fn lookup(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let leaf = self.descend_to(pager, key)?;
        let (pos, exact) = self.leaf_pos(pager, &leaf, key)?;
        if !exact {
            return Ok(None);
        }
        Ok(Some(leaf.key_val(pos)?.1.bytes(pager)?.into_owned()))
    }

    /// Insert `key -> val`, splitting full nodes on the way back up.
    /// Inserting an existing key replaces its value. Returns whether the
    /// key opened a new group (see [`KeyOrder::ValueRowId`]).
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], val: &[u8]) -> Result<InsertOutcome> {
        let mut path = Path::new();
        let (id, leaf) = Self::descend(pager, self.root, |pager, id, node| {
            let child = self.child_index(pager, node, key)?;
            path.push((id, node.clone(), child));
            Ok(child)
        })?;
        let (pos, exact) = self.leaf_pos(pager, &leaf, key)?;
        let new_group = !exact && self.is_new_group(pager, &leaf, pos, key, &path)?;

        // The entry as it will lie in the leaf, assembled on the stack: no
        // entry is longer than its flags and two blobs at their inline
        // limits. An existing key keeps its stored form (build-once trees
        // never see one in practice, but replacing the value is the
        // well-defined behavior if one arrives).
        let mut buffer = [0u8; 1 + 2 * MAX_UVARINT + MAX_INLINE_KEY + MAX_INLINE_VAL];
        let mut entry = std::io::Cursor::new(&mut buffer[..]);
        let mut flags = 0u8;
        if exact {
            let stored = split_entry(leaf.entry(pos)?)?.0;
            flags |= stored.first().map_or(0, |flags| flags & FLAG_KEY_SPILLED);
            entry.write_all(stored)?;
        } else {
            entry.write_all(&[0])?;
            if write_stored(pager, &mut entry, key, MAX_INLINE_KEY)? {
                flags |= FLAG_KEY_SPILLED;
            }
        }
        if write_stored(pager, &mut entry, val, MAX_INLINE_VAL)? {
            flags |= FLAG_VAL_SPILLED;
        }
        let len = usize::try_from(entry.position()).unwrap_or(usize::MAX);
        if let Some(first) = buffer.first_mut() {
            *first = flags;
        }
        let entry = buffer.get(..len).ok_or_else(|| corrupt("btree entry overruns its buffer"))?;

        // Place it, then bubble separators up for as long as nodes split.
        let mut split = Self::place(pager, id, leaf, pos, exact, entry)?;
        while let Some((mut separator, right_id)) = split {
            let Some((parent_id, parent, child)) = path.pop() else {
                // The root itself split: grow the tree by one level.
                let mut root = Page::new(PageType::BtreeInner);
                codec::write_u64(&mut root, u64::from(self.root))?;
                append_child(&mut root, &separator, right_id)?;
                let new_root = pager.allocate(PageType::BtreeInner)?;
                pager.put_page(new_root, root)?;
                self.root = new_root;
                break;
            };
            codec::write_u64(&mut separator, u64::from(right_id))?;
            split = Self::place(pager, parent_id, parent, child, false, &separator)?;
        }
        Ok(InsertOutcome { new_group })
    }

    /// Put `entry` into node `id` — before entry `pos`, or in place of it
    /// when `replace` — by shifting bytes inside the page when the result
    /// fits, else by splitting the node.
    ///
    /// A split copies the entries' byte ranges into two fresh pages at the
    /// cut [`split_index`] picks. The left half keeps the page id, so parent
    /// links and the left sibling's `next` stay valid; the right half gets
    /// a new page. Returned for the parent: the separator — flags and key
    /// of an inner entry, still lacking its child id — and the right page.
    /// A leaf's separator is a copy of its right half's first key; an
    /// inner node's moves *up*, and the child it closed becomes the right
    /// half's leading child.
    fn place(
        pager: &mut Pager,
        id: u32,
        node: Node,
        pos: usize,
        replace: bool,
        entry: &[u8],
    ) -> Result<Option<(Vec<u8>, u32)>> {
        let old = node.span(pos, pos + usize::from(replace))?;
        let payload = node.page.payload();
        if (payload.len() + entry.len()).saturating_sub(old.len()) <= PAGE_CAPACITY {
            let offsets = shifted_offsets(&node.offsets, pos, replace, entry.len())?;
            let edit = pager.page_mut(id, node.page)?;
            if !edit.page.splice(old, entry) {
                return Err(corrupt("btree entry offsets lie outside their page"));
            }
            edit.page.count += u16::from(!replace);
            debug_assert!(
                is_entry_table(edit.page, &offsets),
                "the table carried across an edit is the one a fresh pass finds"
            );
            *edit.offsets = Some(offsets);
            return Ok(None);
        }

        let mut items: Vec<&[u8]> = Vec::with_capacity(node.len() + 1);
        for i in 0..node.len() {
            if i == pos {
                items.push(entry);
                if replace {
                    continue;
                }
            }
            items.push(node.entry(i)?);
        }
        if pos == node.len() {
            items.push(entry);
        }
        let cut = split_index(&items, pos + 1 == items.len());
        let (lefts, rights) =
            items.split_at_checked(cut).ok_or_else(|| corrupt("btree split cut out of range"))?;
        let (separator, first_child) = split_entry(
            rights.first().ok_or_else(|| corrupt("btree split leaves no right half"))?,
        )?;
        let mut separator = separator.to_vec();
        if let Some(flags) = separator.first_mut() {
            *flags &= FLAG_KEY_SPILLED;
        }

        let ptype = node.page.ptype;
        let right_id = pager.allocate(ptype)?;
        let (mut left, mut right) = (Page::new(ptype), Page::new(ptype));
        let rights = if node.is_leaf() {
            (left.next, right.next) = (right_id, node.page.next);
            rights
        } else {
            let leading_child = payload.get(..node.span(0, 0)?.start);
            fill(&mut left, &[leading_child.ok_or_else(|| corrupt("btree node lacks a child"))?])?;
            fill(&mut right, &[first_child])?;
            rights.get(1..).unwrap_or_default()
        };
        fill(&mut left, lefts)?;
        fill(&mut right, rights)?;
        (left.count, right.count) = (lefts.len() as u16, rights.len() as u16);
        pager.put_page(right_id, right)?;
        pager.put_page(id, left)?;
        Ok(Some((separator, right_id)))
    }

    /// Does the key at insert position `pos` start a new group? Groups are
    /// contiguous in key order, so it suffices to check the in-leaf
    /// neighbors — except at position 0, where the true predecessor is the
    /// rightmost entry of the subtree left of this leaf (found through the
    /// descent path).
    fn is_new_group(
        &self,
        pager: &mut Pager,
        leaf: &Node,
        pos: usize,
        key: &[u8],
        path: &Path,
    ) -> Result<bool> {
        if pos < leaf.len() {
            let succ = leaf.key(pos)?.bytes(pager)?;
            if self.order.same_group(&succ, key)? {
                return Ok(false);
            }
        }
        if let Some(before) = pos.checked_sub(1) {
            let pred = leaf.key(before)?.bytes(pager)?;
            return Ok(!self.order.same_group(&pred, key)?);
        }
        // Position 0: walk to the deepest ancestor where we branched right
        // of the leftmost child; the predecessor is the max of its left
        // neighbor subtree. No such ancestor ⇒ this is the tree's minimum.
        let Some((_, node, child)) = path.iter().rev().find(|(_, _, child)| *child > 0) else {
            return Ok(true);
        };
        let Some(pred) = self.subtree_max_key(pager, node.child(child - 1)?)? else {
            return Ok(true);
        };
        Ok(!self.order.same_group(&pred, key)?)
    }

    /// The largest key in the subtree rooted at `id` (`None` for an empty
    /// leaf, which only the root of an empty tree can be).
    fn subtree_max_key(&self, pager: &mut Pager, id: u32) -> Result<Option<Vec<u8>>> {
        let (_, leaf) = Self::descend(pager, id, |_, _, node| Ok(node.len()))?;
        match leaf.len().checked_sub(1) {
            Some(last) => Ok(Some(leaf.key(last)?.bytes(pager)?.into_owned())),
            None => Ok(None),
        }
    }

    /// Cursor over the whole tree, starting at the smallest key.
    pub fn cursor_first(&self, pager: &mut Pager) -> Result<Cursor> {
        let (_, node) = Self::descend(pager, self.root, |_, _, _| Ok(0))?;
        Ok(Cursor { node, pos: 0, hops: 0 })
    }

    /// Cursor positioned at the first entry `>= key`.
    pub fn cursor_seek(&self, pager: &mut Pager, key: &[u8]) -> Result<Cursor> {
        let node = self.descend_to(pager, key)?;
        let (pos, _) = self.leaf_pos(pager, &node, key)?;
        Ok(Cursor { node, pos, hops: 0 })
    }
}

/// A tree built bottom-up from entries in strictly ascending key order:
/// the file [`BTree::insert`] leaves behind fed the same stream, byte for
/// byte and page id for page id, without its descents, searches, offset
/// tables or page edits.
///
/// An in-order insert only ever lands at the tree's right edge, and a
/// right-edge split keeps every entry but the new one in the left page. So
/// the builder owns each level's right-edge page, leaf first, outside the
/// pool, and appends each entry's bytes to the leaf's once. When the next
/// entry does not fit, the full page goes to the pool — once, finished —
/// and the entry opens a page of its own, whose key is the separator
/// handed up, exactly as a split there would cut. Page ids, overflow chains
/// and new roots are taken in the order an insert takes them; ids come from
/// [`Pager::reserve`], so the pool never holds an empty stand-in for a page
/// still being filled, and a build writes each page once and reads none
/// back. A key that does not sort strictly after the one before it is
/// [`StorageError::Corrupt`].
#[derive(Debug)]
pub struct Builder {
    order: KeyOrder,
    /// The leaf under construction and its page id.
    leaf: (u32, Page),
    /// Each inner level's page under construction with its id, lowest
    /// first; the last is the root, if there is one.
    inner: Vec<(u32, Page)>,
    /// The last key pushed, once one was.
    last: Option<Vec<u8>>,
    /// The separator on its way up: flags and key as stored.
    separator: Vec<u8>,
}

impl Builder {
    /// Start an empty tree: its root leaf takes the next page id, as
    /// [`BTree::create`]'s does.
    pub fn new(pager: &mut Pager, order: KeyOrder) -> Result<Builder> {
        let leaf = (pager.reserve()?, Page::new(PageType::BtreeLeaf));
        Ok(Builder { order, leaf, inner: Vec::new(), last: None, separator: Vec::new() })
    }

    /// Append `key -> val`. Returns whether the key opened a new group,
    /// as [`BTree::insert`]'s `new_group` does.
    pub fn push(&mut self, pager: &mut Pager, key: &[u8], val: &[u8]) -> Result<bool> {
        let new_group = self.follow(key)?;
        let key = Stored::spill(pager, key, MAX_INLINE_KEY)?;
        let val = Stored::spill(pager, val, MAX_INLINE_VAL)?;
        let flags = key.flag(FLAG_KEY_SPILLED) | val.flag(FLAG_VAL_SPILLED);
        let (id, leaf) = &mut self.leaf;
        if !leaf.has_room(1 + key.len() + val.len()) {
            let right = pager.reserve()?;
            let left = std::mem::replace(id, right);
            let mut full = std::mem::replace(leaf, Page::new(PageType::BtreeLeaf));
            full.next = right;
            pager.put_page(left, full)?;
            self.separator.clear();
            self.separator.push(flags & FLAG_KEY_SPILLED);
            key.write(&mut self.separator)?;
            self.raise(pager, left, right)?;
        }
        let leaf = &mut self.leaf.1;
        leaf.write_all(&[flags])?;
        key.write(leaf)?;
        val.write(leaf)?;
        leaf.count += 1;
        Ok(new_group)
    }

    /// Check that `key` sorts strictly after the last key pushed and keep
    /// it as the last; return whether it opens a new group.
    fn follow(&mut self, key: &[u8]) -> Result<bool> {
        let Some(last) = &mut self.last else {
            self.last = Some(key.to_vec());
            return Ok(true);
        };
        let (order, new_group) = match self.order {
            KeyOrder::ValueRowId => {
                let (by_value, by_row) = compare_index_keys(last, key)?;
                (by_value.then(by_row), by_value != Ordering::Equal)
            }
            order => (order.compare(last, key)?, true),
        };
        if order != Ordering::Less {
            return Err(corrupt("btree build: a key does not sort after the key before it"));
        }
        last.clear();
        last.extend_from_slice(key);
        Ok(new_group)
    }

    /// Hand the level above the leaves `separator` and `right`, the page
    /// that now follows page `left`. A level with no room for them passes
    /// its full page to the pool and goes on in a fresh one, led by
    /// `right`, while the separator moves up a level; past the root they
    /// make a new root over `left` and `right`.
    fn raise(&mut self, pager: &mut Pager, mut left: u32, mut right: u32) -> Result<()> {
        let separator = &self.separator;
        for (id, page) in &mut self.inner {
            if page.has_room(separator.len() + codec::u64_len(right.into())) {
                return append_child(page, separator, right);
            }
            let fresh = pager.reserve()?;
            let mut led = Page::new(PageType::BtreeInner);
            codec::write_u64(&mut led, right.into())?;
            let full = std::mem::replace(page, led);
            (left, right) = (std::mem::replace(id, fresh), fresh);
            pager.put_page(left, full)?;
        }
        let mut root = Page::new(PageType::BtreeInner);
        codec::write_u64(&mut root, left.into())?;
        append_child(&mut root, separator, right)?;
        self.inner.push((pager.reserve()?, root));
        Ok(())
    }

    /// Hand every page still under construction to the pool and return
    /// the tree.
    pub fn finish(self, pager: &mut Pager) -> Result<BTree> {
        let root = self.inner.last().map_or(self.leaf.0, |(id, _)| *id);
        for (id, page) in std::iter::once(self.leaf).chain(self.inner) {
            pager.put_page(id, page)?;
        }
        Ok(BTree { root, order: self.order })
    }
}

/// Append an inner entry — a separator, then the child it leads to — to
/// the inner page under construction.
fn append_child(page: &mut Page, separator: &[u8], child: u32) -> Result<()> {
    page.write_all(separator)?;
    codec::write_u64(page, child.into())?;
    page.count += 1;
    Ok(())
}

/// Append each of `parts` to a page under construction.
fn fill(page: &mut Page, parts: &[&[u8]]) -> Result<()> {
    for part in parts {
        if page.push(part) != part.len() {
            return Err(corrupt("btree node overflows its page"));
        }
    }
    Ok(())
}

/// Pick a split index over contiguous items: the byte-balanced cut, or —
/// when the insert landed at the right edge — the cut that leaves only the
/// last item on the right (sorted bulk loads then fill pages almost
/// completely). Both sides are guaranteed to fit a page because every item
/// is far smaller than half of one.
fn split_index(items: &[&[u8]], at_end: bool) -> usize {
    if at_end && items.len() >= 2 {
        return items.len() - 1;
    }
    let total: usize = items.iter().map(|item| item.len()).sum();
    let mut acc = 0usize;
    for (i, item) in items.iter().enumerate() {
        acc += item.len();
        if acc * 2 >= total && i + 1 < items.len() {
            return i + 1;
        }
    }
    // Unreachable for >= 2 items; defensively cut before the last.
    items.len().saturating_sub(1).max(1)
}

/// Leaf-level iterator: yields `(key, value)` byte pairs in key order,
/// following sibling links across leaves. It holds the frame of the leaf
/// it stands on, so it keeps reading that image whatever the pool evicts
/// or an insert rewrites meanwhile.
#[derive(Debug)]
pub struct Cursor {
    node: Node,
    pos: usize,
    /// Sibling links followed so far; more than the file has pages is a
    /// cycle.
    hops: u64,
}

impl Cursor {
    /// The next entry, or `None` past the last.
    pub fn next(&mut self, pager: &mut Pager) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            if self.pos < self.node.len() {
                let (key, val) = self.node.key_val(self.pos)?;
                let entry = (key.bytes(pager)?.into_owned(), val.bytes(pager)?.into_owned());
                self.pos += 1;
                return Ok(Some(entry));
            }
            let next = self.node.page.next;
            if next == NO_PAGE {
                return Ok(None);
            }
            self.hops += 1;
            if self.hops > u64::from(pager.page_count()) {
                return Err(corrupt("btree leaf chain cycles"));
            }
            let node = Node::read(pager, next)?;
            if !node.is_leaf() {
                return Err(corrupt(format!(
                    "btree leaf chain reaches page {next}, which is a {:?} page",
                    node.page.ptype
                )));
            }
            (self.node, self.pos) = (node, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::RealBackend;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.qpg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn pager(name: &str, pool: usize) -> (PathBuf, Pager) {
        let p = tmp(name);
        let pager = Pager::create(&RealBackend, &p, pool).unwrap();
        (p, pager)
    }

    #[test]
    fn sequential_row_keys_split_and_read_back() {
        let (p, mut pg) = pager("seq", 8);
        let mut t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
        let n = 3000u64;
        for i in 0..n {
            let val = format!("row-{i}");
            t.insert(&mut pg, &row_key(i), val.as_bytes()).unwrap();
        }
        assert!(pg.page_count() > 10, "3000 rows must split across pages");
        for i in (0..n).step_by(97) {
            let got = t.lookup(&mut pg, &row_key(i)).unwrap().unwrap();
            assert_eq!(got, format!("row-{i}").into_bytes());
        }
        assert!(t.lookup(&mut pg, &row_key(n)).unwrap().is_none());
        // Full scan sees every key once, ascending.
        let mut cur = t.cursor_first(&mut pg).unwrap();
        let mut want = 0u64;
        while let Some((k, v)) = cur.next(&mut pg).unwrap() {
            assert_eq!(decode_row_key(&k).unwrap(), want);
            assert_eq!(v, format!("row-{want}").into_bytes());
            want += 1;
        }
        assert_eq!(want, n);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn random_order_inserts_match_btreemap_reference() {
        let (p, mut pg) = pager("random", 8);
        let mut t = BTree::create(&mut pg, KeyOrder::PkValues).unwrap();
        let mut reference = BTreeMap::new();
        // Deterministic pseudo-random insertion order (LCG).
        let mut x = 0x2545F491_4F6CDD1Du64;
        for _ in 0..1200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let kv = vec![Value::Text(format!("k{:05}", x % 2000)), Value::Int((x >> 32) as i64)];
            let key = pk_key(&kv).unwrap();
            let val = (x % 1000).to_string().into_bytes();
            t.insert(&mut pg, &key, &val).unwrap();
            reference.insert(kv, val);
        }
        // Iteration order and contents agree with the in-memory reference.
        let mut cur = t.cursor_first(&mut pg).unwrap();
        for (kv, val) in &reference {
            let (k, v) = cur.next(&mut pg).unwrap().expect("entry present");
            assert_eq!(&codec::read_row(&k, &mut 0).unwrap(), kv);
            assert_eq!(&v, val);
        }
        assert!(cur.next(&mut pg).unwrap().is_none());
        // Point lookups agree too.
        for (kv, val) in reference.iter().step_by(37) {
            let got = t.lookup(&mut pg, &pk_key(kv).unwrap()).unwrap().unwrap();
            assert_eq!(&got, val);
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn oversized_keys_and_values_spill_to_overflow_chains() {
        let (p, mut pg) = pager("overflow", 4);
        let mut t = BTree::create(&mut pg, KeyOrder::PkValues).unwrap();
        let long_key = vec![Value::Text("k".repeat(MAX_INLINE_KEY * 2))];
        let huge_val = vec![0xCD; PAGE_CAPACITY * 2 + 77];
        t.insert(&mut pg, &pk_key(&long_key).unwrap(), &huge_val).unwrap();
        t.insert(&mut pg, &pk_key(&[Value::Text("small".into())]).unwrap(), b"v").unwrap();
        assert_eq!(t.lookup(&mut pg, &pk_key(&long_key).unwrap()).unwrap().unwrap(), huge_val);
        // The cursor resolves spilled blobs too, in key order
        // ("k...k" sorts after "small"? no: 'k' < 's').
        let mut cur = t.cursor_first(&mut pg).unwrap();
        let (k1, v1) = cur.next(&mut pg).unwrap().unwrap();
        assert_eq!(codec::read_row(&k1, &mut 0).unwrap(), long_key);
        assert_eq!(v1, huge_val);
        let (_, v2) = cur.next(&mut pg).unwrap().unwrap();
        assert_eq!(v2, b"v");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn value_row_trees_count_groups_exactly() {
        let (p, mut pg) = pager("groups", 8);
        let mut t = BTree::create(&mut pg, KeyOrder::ValueRowId).unwrap();
        let mut distinct = 0usize;
        let mut seen = std::collections::HashSet::new();
        // Scrambled insertion order with heavy duplication: group
        // boundaries land on page boundaries too.
        let mut x = 7u64;
        for row in 0..2500u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let v = Value::Int((x % 200) as i64);
            let out = t.insert(&mut pg, &index_key(&v, row).unwrap(), &[]).unwrap();
            if out.new_group {
                distinct += 1;
            }
            seen.insert((x % 200) as i64);
        }
        assert_eq!(distinct, seen.len(), "new_group must count distinct values exactly");
        // Bounded range scan: all rows with value in [10, 12].
        let mut cur = t.cursor_seek(&mut pg, &index_key(&Value::Int(10), 0).unwrap()).unwrap();
        let mut in_range = 0usize;
        while let Some((k, _)) = cur.next(&mut pg).unwrap() {
            let (v, _) = decode_index_key(&k).unwrap();
            if v > Value::Int(12) {
                break;
            }
            assert!(v >= Value::Int(10));
            in_range += 1;
        }
        let mut cur = t.cursor_first(&mut pg).unwrap();
        let mut reference = 0usize;
        while let Some((k, _)) = cur.next(&mut pg).unwrap() {
            let (v, _) = decode_index_key(&k).unwrap();
            if (Value::Int(10)..=Value::Int(12)).contains(&v) {
                reference += 1;
            }
        }
        assert_eq!(in_range, reference);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn tree_survives_flush_and_cold_reopen() {
        let (p, mut pg) = pager("reopen", 4);
        let mut t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
        for i in 0..800u64 {
            t.insert(&mut pg, &row_key(i), format!("v{i}").as_bytes()).unwrap();
        }
        pg.set_root(t.root());
        pg.flush().unwrap();
        drop(pg);

        let mut pg = Pager::open(&RealBackend, &p, 4).unwrap();
        let t = BTree::open(pg.root(), KeyOrder::RowId);
        for i in [0u64, 1, 399, 799] {
            assert_eq!(
                t.lookup(&mut pg, &row_key(i)).unwrap().unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        let mut cur = t.cursor_seek(&mut pg, &row_key(700)).unwrap();
        let mut n = 0;
        while let Some((k, _)) = cur.next(&mut pg).unwrap() {
            assert!(decode_row_key(&k).unwrap() >= 700);
            n += 1;
        }
        assert_eq!(n, 100);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn empty_tree_behaves() {
        let (p, mut pg) = pager("empty", 4);
        let t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
        assert!(t.lookup(&mut pg, &row_key(0)).unwrap().is_none());
        let mut cur = t.cursor_first(&mut pg).unwrap();
        assert!(cur.next(&mut pg).unwrap().is_none());
        std::fs::remove_file(&p).unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeSet, HashMap};
        use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

        static CASE: AtomicU64 = AtomicU64::new(0);

        /// A cursor kept open across inserts, with what it still owes: every
        /// key that was in the tree at or after its start when it opened.
        struct Live {
            cursor: Cursor,
            owed: BTreeSet<u64>,
            last: Option<u64>,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Any batch of (key, value) pairs — duplicates included — reads
            /// back exactly like a `BTreeMap` with the same inserts applied,
            /// on a pool of two to four frames with two cursors held open
            /// across the inserts (so frames are evicted, and rewritten,
            /// under a cursor standing on them), and again after a cold
            /// reopen.
            #[test]
            fn prop_tree_matches_btreemap(
                pairs in proptest::collection::vec((0u64..400, any::<u8>(), 0usize..200), 1..80),
                pool in 2usize..=4,
            ) {
                let case = CASE.fetch_add(1, AtomicOrdering::SeqCst);
                let path = tmp(&format!("prop-{case}"));
                let mut pg = Pager::create(&RealBackend, &path, pool).unwrap();
                let mut t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
                let mut reference = BTreeMap::new();
                // Every value a key ever had: a cursor may yield a stale one.
                let mut history: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
                let mut live: [Option<Live>; 2] = [None, None];
                for (step, &(k, fill, len)) in pairs.iter().enumerate() {
                    let val = vec![fill; len];
                    let out = t.insert(&mut pg, &row_key(k), &val).unwrap();
                    prop_assert_eq!(out.new_group, !reference.contains_key(&k));
                    reference.insert(k, val.clone());
                    history.entry(k).or_default().push(val);

                    let probe = pairs[step / 2].0 + (step as u64 % 2);
                    let got = t.lookup(&mut pg, &row_key(probe)).unwrap();
                    prop_assert_eq!(got.as_ref(), reference.get(&probe));

                    // Step one of the two cursors; open it where this key
                    // points if it is not open.
                    let slot = &mut live[step % 2];
                    let Some(cur) = slot else {
                        let start = k / 2;
                        *slot = Some(Live {
                            cursor: t.cursor_seek(&mut pg, &row_key(start)).unwrap(),
                            owed: reference.range(start..).map(|(k, _)| *k).collect(),
                            last: None,
                        });
                        continue;
                    };
                    for _ in 0..=(fill % 3) {
                        let Some((got_k, got_v)) = cur.cursor.next(&mut pg).unwrap() else {
                            prop_assert!(cur.owed.is_empty(), "cursor ended owing {:?}", cur.owed);
                            *slot = None;
                            break;
                        };
                        let got_k = decode_row_key(&got_k).unwrap();
                        prop_assert!(cur.last < Some(got_k), "{got_k} after {:?}", cur.last);
                        prop_assert!(history[&got_k].contains(&got_v));
                        cur.owed.remove(&got_k);
                        prop_assert!(cur.owed.range(..got_k).next().is_none(), "skipped a key");
                        cur.last = Some(got_k);
                    }
                }
                pg.set_root(t.root());
                pg.flush().unwrap();
                drop((pg, live));

                let mut pg = Pager::open(&RealBackend, &path, pool).unwrap();
                let mut t = BTree::open(pg.root(), KeyOrder::RowId);
                for k in 0..=400u64 {
                    let got = t.cursor_seek(&mut pg, &row_key(k)).unwrap().next(&mut pg).unwrap();
                    let want = reference.range(k..).next();
                    prop_assert_eq!(got, want.map(|(k, v)| (row_key(*k), v.clone())));
                }
                for k in (0..400u64).step_by(7) {
                    let out = t.insert(&mut pg, &row_key(k), &[7]).unwrap();
                    prop_assert_eq!(out.new_group, reference.insert(k, vec![7]).is_none());
                }
                let mut cur = t.cursor_first(&mut pg).unwrap();
                for (k, val) in &reference {
                    let got = cur.next(&mut pg).unwrap();
                    prop_assert_eq!(got, Some((row_key(*k), val.clone())));
                    let got = t.lookup(&mut pg, &row_key(*k)).unwrap();
                    prop_assert_eq!(got.as_ref(), Some(val));
                }
                prop_assert!(cur.next(&mut pg).unwrap().is_none());
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// A hand-built page.
    fn page(ptype: PageType, count: u16, next: u32, payload: &[u8]) -> Page {
        let mut p = Page::new(ptype);
        (p.count, p.next) = (count, next);
        assert_eq!(p.push(payload), payload.len());
        p
    }

    /// A tree whose pages 1.. are `pages` (page 1 the root), written out and
    /// reopened cold on a two-frame pool: everything a test reads arrives
    /// from the file, through the page checksum.
    fn hand_built(name: &str, pages: Vec<Page>) -> (PathBuf, Pager, BTree) {
        let (p, mut pg) = pager(name, 2);
        for page in pages {
            let id = pg.allocate(page.ptype).unwrap();
            pg.put_page(id, page).unwrap();
        }
        pg.flush().unwrap();
        drop(pg);
        let pg = Pager::open(&RealBackend, &p, 2).unwrap();
        (p, pg, BTree::open(1, KeyOrder::RowId))
    }

    /// Leaf entry: no flags, key = row id 5, value "v".
    const ENTRY: &[u8] = &[0, 1, 5, 1, b'v'];

    fn assert_corrupt<T: std::fmt::Debug>(what: &str, got: Result<T>) {
        assert!(matches!(got, Err(StorageError::Corrupt(_))), "{what}: {got:?}");
    }

    /// Every way into a node — `lookup`, `cursor_seek`, a scan, `insert` —
    /// refuses a checksum-valid page whose payload is not a node.
    #[test]
    fn hostile_nodes_are_corrupt_never_a_panic() {
        use PageType::{BtreeInner, BtreeLeaf, Overflow};
        let mut wide_id = Vec::new();
        codec::write_u64(&mut wide_id, 1 << 40).unwrap();
        let cases: Vec<(&str, Vec<Page>)> = vec![
            ("truncated entry", vec![page(BtreeLeaf, 2, 0, &[ENTRY, &[0]].concat())]),
            ("unknown flags", vec![page(BtreeLeaf, 1, 0, &[0x04, 1, 5, 1, b'v'])]),
            ("value flag in an inner node", vec![page(BtreeInner, 1, 0, &[2, 0x02, 1, 5, 2])]),
            ("key overruns the page", vec![page(BtreeLeaf, 1, 0, &[0, 100, 5, 1, b'v'])]),
            ("value overruns the page", vec![page(BtreeLeaf, 1, 0, &[0, 1, 5, 100, b'v'])]),
            ("trailing bytes", vec![page(BtreeLeaf, 1, 0, &[ENTRY, &[0xFF]].concat())]),
            ("fewer entries than bytes", vec![page(BtreeLeaf, 1, 0, &[ENTRY, ENTRY].concat())]),
            ("count past what len could hold", vec![page(BtreeLeaf, u16::MAX, 0, ENTRY)]),
            ("count with no payload at all", vec![page(BtreeLeaf, 1, 0, &[])]),
            ("inner node without a child", vec![page(BtreeInner, 0, 0, &[])]),
            ("child id past the file", vec![page(BtreeInner, 0, 0, &[99])]),
            ("child id past the id range", vec![page(BtreeInner, 0, 0, &wide_id)]),
            ("overflow head past the id range", {
                let entry = [&[FLAG_KEY_SPILLED][..], &wide_id, &[1, b'v']].concat();
                vec![page(BtreeLeaf, 1, 0, &entry)]
            }),
            ("descent cycle", vec![page(BtreeInner, 0, 0, &[1])]),
            (
                "descent into an overflow page",
                vec![page(BtreeInner, 0, 0, &[2]), page(Overflow, 0, 0, b"xx")],
            ),
        ];
        for (what, pages) in cases {
            let (p, mut pg, mut t) = hand_built("hostile", pages);
            let key = row_key(5);
            assert_corrupt(what, t.lookup(&mut pg, &key));
            assert_corrupt(what, t.cursor_seek(&mut pg, &key));
            assert_corrupt(what, t.cursor_first(&mut pg).and_then(|mut c| c.next(&mut pg)));
            assert_corrupt(what, t.insert(&mut pg, &key, b"w"));
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// Sibling links are hostile too: a cursor refuses a link into anything
    /// but a leaf, and a chain that cycles — whether or not its leaves hold
    /// entries — ends in `Corrupt`, not in an endless scan.
    #[test]
    fn hostile_sibling_links_end_a_scan_with_corrupt() {
        use PageType::{BtreeInner, BtreeLeaf, Overflow};
        let other = [0, 1, 6, 1, b'w'];
        let cases: Vec<(&str, Vec<Page>)> = vec![
            ("empty leaf linked to itself", vec![page(BtreeLeaf, 0, 1, &[])]),
            (
                "two full leaves linked in a ring",
                vec![
                    page(BtreeInner, 1, 0, &[2, 0, 1, 6, 3]),
                    page(BtreeLeaf, 1, 3, ENTRY),
                    page(BtreeLeaf, 1, 2, &other),
                ],
            ),
            (
                "link into an inner node",
                vec![page(BtreeLeaf, 1, 2, ENTRY), page(BtreeInner, 0, 0, &[1])],
            ),
            (
                "link into an overflow page",
                vec![page(BtreeLeaf, 1, 2, ENTRY), page(Overflow, 0, 0, b"x")],
            ),
            ("link past the file", vec![page(BtreeLeaf, 1, 77, ENTRY)]),
        ];
        for (what, pages) in cases {
            let (p, mut pg, t) = hand_built("siblings", pages);
            let mut cur = t.cursor_first(&mut pg).unwrap();
            let mut outcome = Ok(None);
            for _ in 0..64 {
                outcome = cur.next(&mut pg);
                if !matches!(outcome, Ok(Some(_))) {
                    break;
                }
            }
            assert_corrupt(what, outcome);
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// Regression: a spilled key or value is read from `Overflow` pages
    /// only. A head, or a chain link, that points at any other page — all
    /// checksum-valid — used to be concatenated into the key or the row.
    #[test]
    fn overflow_chains_must_stay_in_overflow_pages() {
        use PageType::{BtreeLeaf, Free, Overflow};
        let spilled_val = [FLAG_VAL_SPILLED, 1, 5, 2];
        let spilled_key = [FLAG_KEY_SPILLED, 2, 1, b'v'];
        let cases: Vec<(&str, Vec<Page>, &str)> = vec![
            (
                "value head is a leaf",
                vec![page(BtreeLeaf, 1, 0, &spilled_val), page(BtreeLeaf, 1, 0, ENTRY)],
                "page 2, which is a BtreeLeaf page",
            ),
            (
                "key head is a free page",
                vec![page(BtreeLeaf, 1, 0, &spilled_key), page(Free, 0, 0, &[])],
                "page 2, which is a Free page",
            ),
            (
                "chain links into a leaf",
                vec![
                    page(BtreeLeaf, 1, 0, &spilled_val),
                    page(Overflow, 1, 3, b"half a val"),
                    page(BtreeLeaf, 1, 0, ENTRY),
                ],
                "page 3, which is a BtreeLeaf page",
            ),
        ];
        for (what, pages, names) in cases {
            let (p, mut pg, t) = hand_built("chains", pages);
            for got in [
                t.lookup(&mut pg, &row_key(5)).map(drop),
                t.cursor_first(&mut pg).and_then(|mut c| c.next(&mut pg)).map(drop),
            ] {
                assert!(
                    matches!(&got, Err(StorageError::Corrupt(m)) if m.contains(names)),
                    "{what}: {got:?}"
                );
            }
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// Replacing a value with one that no longer fits its leaf splits the
    /// leaf like any other insert (it used to fail the insert).
    #[test]
    fn replacing_a_value_may_split_the_leaf() {
        let (p, mut pg) = pager("replace-split", 4);
        let mut t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
        for i in 0..9u64 {
            t.insert(&mut pg, &row_key(i), &[i as u8; 400]).unwrap();
        }
        assert_eq!(pg.page_count(), 2, "nine 400-byte rows fill one leaf");
        for i in [4u64, 8, 0] {
            assert!(!t.insert(&mut pg, &row_key(i), &[0xAB; 1000]).unwrap().new_group);
        }
        assert!(pg.page_count() > 2);
        let mut cur = t.cursor_first(&mut pg).unwrap();
        for i in 0..9u64 {
            let want = if [4, 8, 0].contains(&i) { vec![0xAB; 1000] } else { vec![i as u8; 400] };
            assert_eq!(cur.next(&mut pg).unwrap(), Some((row_key(i), want)));
        }
        assert!(cur.next(&mut pg).unwrap().is_none());
        std::fs::remove_file(&p).unwrap();
    }

    /// An edit in place hands the pager the offset table of the bytes it
    /// leaves (`shifted_offsets`), and no validating pass follows while the
    /// page stays resident: so that table must be the one a fresh pass
    /// over the edited page would build. Checked on every node of every
    /// insert's path, over appends, scattered inserts, replacements by
    /// longer and shorter values, and spilled keys and values, under each
    /// key order, through a pool small enough to evict as it goes.
    #[test]
    fn offset_tables_carried_across_edits_equal_a_fresh_validating_pass() {
        for order in [KeyOrder::RowId, KeyOrder::PkValues, KeyOrder::ValueRowId] {
            let (p, mut pg) = pager("carried", 12);
            let mut t = BTree::create(&mut pg, order).unwrap();
            let mut x = 0x0FF5_E700u64;
            for step in 0..2500u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // The first 600 keys ascend; the rest scatter over a domain
                // small enough to hit keys that are already there.
                let n = if step < 600 { step } else { (x >> 24) % 900 };
                let key = match order {
                    KeyOrder::RowId => row_key(n),
                    KeyOrder::PkValues if n % 71 == 3 => {
                        pk_key(&[Value::Text(format!("{n:04}{}", "k".repeat(MAX_INLINE_KEY)))])
                            .unwrap()
                    }
                    KeyOrder::PkValues => pk_key(&[Value::Text(format!("{n:04}"))]).unwrap(),
                    KeyOrder::ValueRowId => index_key(&Value::Int((n % 40) as i64), n).unwrap(),
                };
                let len = if x % 59 == 7 { MAX_INLINE_VAL + 300 } else { (x >> 40) as usize % 60 };
                t.insert(&mut pg, &key, &vec![step as u8; len]).unwrap();

                let mut id = t.root();
                loop {
                    let node = Node::read(&mut pg, id).unwrap();
                    let fresh = entry_offsets(&node.page).unwrap();
                    assert_eq!(node.offsets, fresh, "{order:?}, insert {step}, page {id}");
                    if node.is_leaf() {
                        break;
                    }
                    let child = t.child_index(&mut pg, &node, &key).unwrap();
                    id = node.child(child).unwrap();
                }
            }
            assert!(pg.pool_stats().evictions > 0 && pg.page_count() > 30, "{order:?}");
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// Every order compares encoded keys exactly as the decoded keys
    /// compare, groups index keys by value alone, and refuses a key that
    /// does not decode — on either side, even where the other bytes
    /// already decide the order.
    #[test]
    fn key_orders_compare_like_their_decoded_keys() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(2.5),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(f64::NAN),
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text("ab".into()),
        ];
        for (x, row_x) in values.iter().zip([9u64, 1, 300].into_iter().cycle()) {
            for (y, row_y) in values.iter().zip([1u64, 300, 9, 70_000].into_iter().cycle()) {
                let (a, b) = (index_key(x, row_x).unwrap(), index_key(y, row_y).unwrap());
                let want = (x, row_x).cmp(&(y, row_y));
                assert_eq!(KeyOrder::ValueRowId.compare(&a, &b).unwrap(), want, "{x:?} {y:?}");
                assert_eq!(KeyOrder::ValueRowId.same_group(&a, &b).unwrap(), x == y);
                let (a, b) = (row_key(row_x), row_key(row_y));
                assert_eq!(KeyOrder::RowId.compare(&a, &b).unwrap(), row_x.cmp(&row_y));
                let (ka, kb) = (vec![x.clone(), y.clone()], vec![y.clone()]);
                let (a, b) = (pk_key(&ka).unwrap(), pk_key(&kb).unwrap());
                assert_eq!(KeyOrder::PkValues.compare(&a, &b).unwrap(), ka.cmp(&kb));
                assert_eq!(KeyOrder::PkValues.same_group(&a, &b).unwrap(), ka == kb);
            }
        }
        // A key cut short is corrupt on either side, under every order; the
        // last byte lost belongs to the row id, the text or the second value.
        let whole = [
            (KeyOrder::RowId, row_key(70_000), row_key(1)),
            (
                KeyOrder::ValueRowId,
                index_key(&Value::Int(1), 70_000).unwrap(),
                index_key(&Value::Null, 0).unwrap(),
            ),
            (
                KeyOrder::PkValues,
                pk_key(&["a".into(), "zz".into()]).unwrap(),
                pk_key(&["b".into()]).unwrap(),
            ),
        ];
        for (order, key, other) in whole {
            order.compare(&key, &other).unwrap();
            let cut = &key[..key.len() - 1];
            assert_corrupt("cut left", order.compare(cut, &other));
            assert_corrupt("cut right", order.compare(&other, cut));
            assert_corrupt("cut group", order.same_group(&other, cut));
        }
    }

    #[test]
    fn mixed_type_index_keys_follow_value_order() {
        let (p, mut pg) = pager("mixed", 8);
        let mut t = BTree::create(&mut pg, KeyOrder::ValueRowId).unwrap();
        let values = [
            Value::Text("zeta".into()),
            Value::Null,
            Value::Int(3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(f64::NAN),
            Value::Text("alpha".into()),
        ];
        for (row, v) in values.iter().enumerate() {
            t.insert(&mut pg, &index_key(v, row as u64).unwrap(), &[]).unwrap();
        }
        let mut cur = t.cursor_first(&mut pg).unwrap();
        let mut got = Vec::new();
        while let Some((k, _)) = cur.next(&mut pg).unwrap() {
            got.push(decode_index_key(&k).unwrap().0);
        }
        let mut want = values.to_vec();
        want.sort();
        // NaN == NaN is false; compare via the total order instead.
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.cmp(w), Ordering::Equal);
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// A cursor holds its leaf's frame, so the pool never reads another
    /// page into it: the leaf is evicted under the cursor, misses follow —
    /// each reading into the page some earlier victim left spare — and the
    /// cursor still reads the bytes of its own leaf to the end.
    #[test]
    fn a_cursor_reads_its_leaf_after_the_pool_recycles_frames_under_it() {
        let (p, mut pg) = pager("recycled", 3);
        let mut t = BTree::create(&mut pg, KeyOrder::RowId).unwrap();
        let val = |i: u64| vec![(i % 251) as u8; 200];
        for i in 0..400u64 {
            t.insert(&mut pg, &row_key(i), &val(i)).unwrap();
        }
        pg.set_root(t.root());
        pg.flush().unwrap();
        drop(pg);

        let mut pg = Pager::open(&RealBackend, &p, 3).unwrap();
        let t = BTree::open(pg.root(), KeyOrder::RowId);
        let mut cur = t.cursor_first(&mut pg).unwrap();
        assert_eq!(cur.next(&mut pg).unwrap(), Some((row_key(0), val(0))));
        let leaf = cur.node.page.payload().to_vec();
        let before = pg.pool_stats();
        // Lookups far to the right cycle every frame of the pool.
        for i in (200..400u64).step_by(20) {
            assert_eq!(t.lookup(&mut pg, &row_key(i)).unwrap(), Some(val(i)));
        }
        let after = pg.pool_stats();
        assert!(after.evictions - before.evictions >= 6, "{before:?} -> {after:?}");
        assert_eq!(Arc::strong_count(&cur.node.page), 1, "only the cursor holds its leaf");
        assert_eq!(cur.node.page.payload(), &leaf[..]);
        let mut i = 1;
        while cur.node.len() > cur.pos {
            assert_eq!(cur.next(&mut pg).unwrap(), Some((row_key(i), val(i))));
            i += 1;
        }
        // And on across the sibling link, which misses again.
        for i in i..i + 40 {
            assert_eq!(cur.next(&mut pg).unwrap(), Some((row_key(i), val(i))));
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// The validating pass against the one it replaced, which is kept here
    /// as the oracle: on every node of a real image, and on seeded damage
    /// to each, both return the same offsets or the same `Corrupt` text.
    mod validating_pass {
        use super::*;
        use crate::page::PAGE_SIZE;
        use crate::wal::crc32;

        /// The replaced pass, as it was: a stack buffer sized for any node,
        /// zeroed, filled by a loop over the entries, then copied out.
        fn oracle(page: &Page) -> Result<Vec<u16>> {
            let mut buffer = [0u16; PAGE_CAPACITY / MIN_ENTRY + 1];
            let leaf = match page.ptype {
                PageType::BtreeLeaf => true,
                PageType::BtreeInner => false,
                other => return Err(corrupt(format!("btree descent reached a {other:?} page"))),
            };
            let allowed = if leaf { FLAG_KEY_SPILLED | FLAG_VAL_SPILLED } else { FLAG_KEY_SPILLED };
            let data = page.payload();
            let count = usize::from(page.count);
            let offsets = match buffer.get_mut(..=count) {
                Some(offsets) if count * MIN_ENTRY <= data.len() => offsets,
                _ => {
                    let len = data.len();
                    return Err(corrupt(format!(
                        "btree node claims {count} entries in {len} bytes"
                    )));
                }
            };
            let offset =
                |pos: usize| u16::try_from(pos).map_err(|_| corrupt("btree offset overflows"));
            let pos = &mut 0usize;
            if !leaf {
                read_page_id(data, pos, "child id")?;
            }
            for start in offsets.iter_mut().take(count) {
                *start = offset(*pos)?;
                let (flags, _) = read_key(data, pos)?;
                if flags & !allowed != 0 {
                    return Err(corrupt(format!("unknown btree entry flags {flags:#04x}")));
                }
                if leaf {
                    Stored::read(data, pos, flags & FLAG_VAL_SPILLED != 0)?;
                } else {
                    read_page_id(data, pos, "child id")?;
                }
            }
            if *pos != data.len() {
                return Err(corrupt("btree node has trailing bytes"));
            }
            if let Some(end) = offsets.last_mut() {
                *end = offset(*pos)?;
            }
            Ok(offsets.to_vec())
        }

        /// `btree_golden`'s generator, for the copied recipe.
        struct Lcg(u64);

        impl Lcg {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                self.0 >> 16
            }
        }

        /// The image `tests/btree_golden.rs` builds, from the same recipe:
        /// its length and CRC-32 are checked against that test's constants,
        /// so it is byte for byte the same image. The recipe is a copy, not
        /// a shared helper: `btree_golden` is the format gate and is kept
        /// as it was written, and an integration test cannot reach the
        /// crate-private pass compared here. The length-and-CRC assert is
        /// what fails if the two ever drift apart.
        fn golden_image() -> Vec<u8> {
            let (path, mut pager) = pager("golden-nodes", 8);
            let pager = &mut pager;
            let mut rng = Lcg(0x5EED_0017);
            let mut rows = BTree::create(pager, KeyOrder::RowId).unwrap();
            let row_val = |i: u64| {
                let len = if i % 97 == 5 {
                    1500 + (i as usize % 7) * 900
                } else {
                    20 + (i as usize * 7) % 180
                };
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
                rows.insert(pager, &row_key(i), &v).unwrap();
            }
            let mut pk = BTree::create(pager, KeyOrder::PkValues).unwrap();
            for n in 0..1200u64 {
                let x = rng.next();
                let key = match x % 5 {
                    0 => vec![Value::Int((x >> 8) as i64 % 900)],
                    1 => vec![
                        Value::Text(format!("k{:05}", x % 3000)),
                        Value::Int((x >> 20) as i64 % 7),
                    ],
                    2 => vec![Value::Float((x % 1000) as f64 / 8.0), Value::Bool(x & 64 != 0)],
                    3 => vec![Value::Text(format!("city-{}", x % 400))],
                    _ => vec![Value::Null, Value::Int(n as i64)],
                };
                pk.insert(pager, &pk_key(&key).unwrap(), &row_key(n)).unwrap();
            }
            for n in 0..6u64 {
                let key =
                    vec![Value::Text("long".repeat(150 + 60 * n as usize)), Value::Int(n as i64)];
                pk.insert(pager, &pk_key(&key).unwrap(), &row_key(n)).unwrap();
            }
            let mut wide = BTree::create(pager, KeyOrder::PkValues).unwrap();
            let wide_key =
                |n: u64| pk_key(&[Value::Text(format!("{n:08}{}", "w".repeat(400)))]).unwrap();
            for _ in 0..500 {
                let n = rng.next() % 50_000;
                wide.insert(pager, &wide_key(n), &row_key(n)).unwrap();
            }
            for n in 60_000..60_300u64 {
                wide.insert(pager, &wide_key(n), &row_key(n)).unwrap();
            }
            let mut ix = BTree::create(pager, KeyOrder::ValueRowId).unwrap();
            for row in 0..2500u64 {
                let x = rng.next();
                let v = match x % 11 {
                    0 => Value::Null,
                    1 => Value::Bool(x & 32 != 0),
                    2 => Value::Float((x % 64) as f64 / 4.0),
                    3 => Value::Text(format!("s{}", x % 90)),
                    _ => Value::Int((x % 200) as i64 - 40),
                };
                ix.insert(pager, &index_key(&v, row).unwrap(), &[]).unwrap();
            }
            pager.set_root(rows.root());
            pager.flush().unwrap();
            let image = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(
                (image.len(), crc32(&image)),
                (1_056_768, 0x47AF_47B9),
                "not the golden image"
            );
            image
        }

        /// Both passes over `page`: the offsets, or the error's text.
        fn verdicts(page: &Page) -> [std::result::Result<Vec<u16>, String>; 2] {
            [entry_offsets(page).map(|o| o.to_vec()), oracle(page)]
                .map(|v| v.map_err(|e| e.to_string()))
        }

        /// Every leaf and inner node of the golden image, then for each:
        /// its `count` set to neighbours, extremes and random values; its
        /// payload truncated at every entry boundary, one byte either side
        /// and at random; each entry's flags byte set to every low flag
        /// combination, the high bit and random bytes; the varint bytes
        /// after each flags byte (a key's length or overflow head) and the
        /// leading child id set to one-byte, continuation and random
        /// values; whole varints too wide, too long or non-minimal swapped
        /// in for those; and random bytes anywhere. The table of every
        /// accepted node also passes `is_entry_table`, the check a debug
        /// build makes after each edit, and the table with its first
        /// offset moved does not.
        #[test]
        fn the_validating_pass_decides_every_node_like_the_pass_it_replaced() {
            let image = golden_image();
            let mut rng = Lcg(0x0FF5_E75E);
            let (mut nodes, mut cases, mut accepted) = (0, 0usize, 0usize);
            let mut refusals = std::collections::BTreeSet::new();
            let mut check = |page: &Page, what: &dyn Fn() -> String| {
                let [got, want] = verdicts(page);
                assert_eq!(got, want, "{}", what());
                cases += 1;
                match got {
                    Ok(mut offsets) => {
                        assert!(is_entry_table(page, &offsets), "{}: the debug check", what());
                        offsets[0] += 1;
                        assert!(!is_entry_table(page, &offsets), "{}: a wrong table", what());
                        accepted += 1;
                    }
                    Err(e) => {
                        refusals.insert(
                            e.split(|c: char| c.is_ascii_digit())
                                .next()
                                .unwrap_or_default()
                                .to_string(),
                        );
                    }
                }
            };
            for (id, bytes) in image.chunks(PAGE_SIZE).enumerate().skip(1) {
                let node = Page::decode(bytes).unwrap();
                if !matches!(node.ptype, PageType::BtreeLeaf | PageType::BtreeInner) {
                    continue;
                }
                nodes += 1;
                let offsets = entry_offsets(&node).unwrap();
                check(&node, &|| format!("page {id} as built"));
                let (ptype, count, next) = (node.ptype, node.count, node.next);
                let data = node.payload().to_vec();
                let with = |count: u16, payload: &[u8]| page(ptype, count, next, payload);

                let third = (data.len() / MIN_ENTRY) as u16;
                for c in [
                    0,
                    1,
                    count.saturating_sub(1),
                    count + 1,
                    count + 2,
                    third,
                    third + 1,
                    u16::MAX,
                ] {
                    check(&with(c, &data), &|| format!("page {id}, count {c}"));
                }
                for _ in 0..4 {
                    let c = (rng.next() % (u64::from(count) * 2 + 2)) as u16;
                    check(&with(c, &data), &|| format!("page {id}, count {c}"));
                }

                let mut cuts: Vec<usize> = Vec::new();
                for at in offsets.iter().map(|&at| usize::from(at)) {
                    cuts.extend([at.saturating_sub(1), at, at + 1]);
                }
                cuts.extend((0..4).map(|_| rng.next() as usize % (data.len() + 1)));
                for cut in cuts.into_iter().filter(|&cut| cut < data.len()) {
                    check(&with(count, &data[..cut]), &|| format!("page {id}, len {cut}"));
                    let fewer = count.saturating_sub(1);
                    check(&with(fewer, &data[..cut]), &|| {
                        format!("page {id}, len {cut}, count -1")
                    });
                }

                let mut damage = |at: usize, byte: u8, what: &str| {
                    if let Some(slot) = data.get(at) {
                        if *slot != byte {
                            let mut bad = data.clone();
                            bad[at] = byte;
                            check(&with(count, &bad), &|| {
                                format!("page {id}, {what} at {at} = {byte:#04x}")
                            });
                        }
                    }
                };
                let starts = &offsets[..offsets.len() - 1];
                for &start in starts.iter().step_by(3) {
                    let start = usize::from(start);
                    for byte in [0, 1, 2, 3, 4, 0x80, 0xFF, rng.next() as u8] {
                        damage(start, byte, "flags");
                    }
                    for byte in [0, 1, 0x7F, 0x80, 0xFF, rng.next() as u8, rng.next() as u8 | 0x80]
                    {
                        damage(start + 1, byte, "varint");
                    }
                }
                if ptype == PageType::BtreeInner {
                    for byte in [0, 0x7F, 0x80, 0xFF, rng.next() as u8] {
                        damage(0, byte, "leading child");
                    }
                }
                for _ in 0..8 {
                    let at = rng.next() as usize % data.len().max(1);
                    damage(at, rng.next() as u8, "random byte");
                }
                // Whole varints swapped in for the one after a flags byte
                // and for the leading child: too wide for a page id, past
                // 64 bits, longer than 10 bytes, and non-minimal.
                let mut wide = Vec::new();
                codec::write_u64(&mut wide, 1 << 40).unwrap();
                let overflow = [&[0xFF; 9][..], &[0x02]].concat();
                let varints: [&[u8]; 5] =
                    [&wide, &overflow, &[0x80; 11], &[0x80, 0x00], &[0x81, 0x80, 0x00]];
                let mut swap = |at: usize, what: &str| {
                    let mut end = at;
                    if at >= data.len() || codec::read_u64(&data, &mut end).is_err() {
                        return;
                    }
                    for varint in varints {
                        let bad = [&data[..at], varint, &data[end..]].concat();
                        if bad.len() <= PAGE_CAPACITY {
                            check(&with(count, &bad), &|| {
                                format!("page {id}, {what} at {at} = {varint:02x?}")
                            });
                        }
                    }
                };
                if ptype == PageType::BtreeInner {
                    swap(0, "leading child");
                }
                for &start in starts.iter().step_by(7) {
                    swap(usize::from(start) + 1, "key varint");
                }
            }
            assert!(nodes > 200, "{nodes} nodes");
            assert!(accepted > nodes && accepted * 2 < cases, "{accepted} of {cases} accepted");
            assert!(refusals.len() >= 10, "{refusals:?}");
        }
    }
}
