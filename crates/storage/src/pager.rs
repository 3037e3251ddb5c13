//! Page-file manager: meta page, freelist, LRU buffer pool, and record
//! chains.
//!
//! A `Pager` owns one paged file (see [`crate::page`] for the page format)
//! through a [`BackendFile`], so the `FaultBackend` crash sweeps cover
//! every page write. Layout follows the murodb-style layering — pager on
//! the bottom, an LRU page cache above it, a freelist for reuse:
//!
//! - **page 0** is the meta page: magic, format version, page size, page
//!   count, freelist head, and the root (directory chain head);
//! - **freelist**: freed pages are rewritten as `PageType::Free` whose
//!   `next` links the list; allocation pops the head before extending the
//!   file, so a steady-state file stops growing;
//! - **buffer pool**: a fixed-capacity LRU of **shared frames**. A page is
//!   read, checksummed and decoded once, when it enters the pool;
//!   [`Pager::read_page`] then hands out the frame itself (`Arc<Page>`),
//!   so a hit is one hash probe, a relink at the head of the recency list
//!   and a reference-count bump, never a copy. A miss is one positioned
//!   read straight into the bytes of the frame it lands in, and one
//!   checksum over them where they lie — no buffer between, no copy, and
//!   once the pool is full no allocation: the page a victim leaves behind,
//!   when no reader holds it, is kept as the pool's spare, and the next
//!   miss reads into it. (Not into the victim's own frame: a read that
//!   fails part-way would have destroyed a page the pool still holds.) The
//!   victim is the list's tail, found without a scan, and its slot is
//!   reused in place. Whoever holds a frame keeps it alive: evicting a
//!   page a B-tree cursor still stands on only drops the pool's reference,
//!   and that page is never the spare. Edits go through
//!   `Pager::page_mut`, which marks the frame dirty and works in place
//!   unless a reader still shares it (then that reader keeps the old
//!   image). Evicting a dirty frame writes it back, so peak memory during
//!   a checkpoint build is bounded by the pool, not the table size.
//!   [`Pager::flush`] writes remaining dirty pages in page-id order (a
//!   deterministic operation stream for the crash sweeps), then the meta
//!   page, then syncs.
//!
//! A frame can carry one piece of **derived** state: the offset table a
//! reader builds while validating the page (`Pager::read_indexed`; the
//! B-tree's entry offsets). It is cached beside the frame, never
//! persisted, and dropped whenever the page is replaced or evicted. An
//! edit in place drops it too, unless the editor hands back the table of
//! the bytes it leaves behind (`Pager::page_mut`), so it can never
//! describe bytes other than the frame's.
//!
//! Records larger than one page span *chains*: [`ChainWriter`] streams
//! encoded bytes across linked pages, and [`read_chain`] concatenates a
//! chain's payloads for decoding, refusing any page that is not of the
//! type the chain was written as.

use crate::error::StorageError;
use crate::faultfs::{BackendFile, StorageBackend};
use crate::page::{le_u32, Page, PageType, NO_PAGE, PAGE_CAPACITY, PAGE_SIZE};
use crate::Result;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Magic prefix of the meta page payload.
const MAGIC: &[u8; 4] = b"QPG1";
/// Paged-file format version.
const FORMAT_VERSION: u8 = 1;
/// Meta payload: magic(4) + version(1) + page_size(4) + page_count(4) +
/// free_head(4) + root(4).
const META_LEN: usize = 21;

/// Buffer-pool counters, exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page reads served from the pool.
    pub hits: u64,
    /// Page reads that went to the file.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Evictions that had to write a dirty page back first.
    pub dirty_writebacks: u64,
}

struct Frame {
    page: Arc<Page>,
    /// Offsets derived from `page` by a reader (see
    /// [`Pager::read_indexed`]) or handed back by its editor (see
    /// [`Pager::page_mut`]); `None` until then.
    offsets: Option<Arc<[u16]>>,
    dirty: bool,
}

/// A frame being edited in place (see [`Pager::page_mut`]).
pub(crate) struct FrameMut<'a> {
    /// The page's bytes, unshared.
    pub(crate) page: &'a mut Page,
    /// The frame's derived offsets: `None` on entry. Whatever is here when
    /// the edit ends must describe `page` as the edit left it.
    pub(crate) offsets: &'a mut Option<Arc<[u16]>>,
}

/// The end of the recency list.
const NIL: usize = usize::MAX;

/// One resident page: its frame and its neighbours in recency order.
struct Slot {
    id: u32,
    frame: Frame,
    /// The next more recently used slot; [`NIL`] at the head.
    newer: usize,
    /// The next less recently used slot; [`NIL`] at the tail.
    older: usize,
}

/// Fixed-capacity LRU cache of shared page frames with dirty tracking.
///
/// Recency is exact and kept as a list threaded through a slab of slots:
/// using a page relinks its slot at the head, and the victim is the tail.
/// Slots are never freed — a miss at capacity reuses the victim's slot in
/// place — and neither are pages no reader holds: an evicted page that
/// nobody shares becomes the pool's spare, which the next miss reads into.
/// So once the pool is full a miss allocates nothing.
struct BufferPool {
    capacity: usize,
    slots: Vec<Slot>,
    /// An unshared page no slot holds — the last victim's — for the next
    /// miss to read over.
    spare: Option<Arc<Page>>,
    /// Page id → its slot.
    index: HashMap<u32, usize>,
    /// The most recently used slot.
    head: usize,
    /// The least recently used slot: the next victim.
    tail: usize,
}

impl BufferPool {
    fn new(capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        let (slots, index) = (Vec::new(), HashMap::new());
        BufferPool { capacity, slots, spare: None, index, head: NIL, tail: NIL }
    }

    /// The resident frame of page `id`, untouched.
    fn get(&self, id: u32) -> Option<&Frame> {
        self.slots.get(*self.index.get(&id)?).map(|slot| &slot.frame)
    }

    /// The resident frame of page `id`, now the most recently used.
    fn touch(&mut self, id: u32) -> Option<&mut Frame> {
        let at = *self.index.get(&id)?;
        if at != self.head {
            self.unlink(at);
            self.link_at_head(at);
        }
        self.slots.get_mut(at).map(|slot| &mut slot.frame)
    }

    /// The frame a miss replaces once the pool is full — the least
    /// recently used — with its page id; `None` while there is room.
    fn victim(&mut self) -> Option<(u32, &mut Frame)> {
        if self.slots.len() < self.capacity {
            return None;
        }
        self.slots.get_mut(self.tail).map(|slot| (slot.id, &mut slot.frame))
    }

    /// Make `frame` page `id`'s, the most recently used: in a fresh slot
    /// while there is room, else in the victim's, whose page leaves the
    /// pool (written back first, if dirty, by the caller) and becomes the
    /// spare unless a reader still holds it. `id` must not be resident.
    fn admit(&mut self, id: u32, frame: Frame) -> Option<&mut Frame> {
        let at = if self.slots.len() < self.capacity {
            self.slots.push(Slot { id, frame, newer: NIL, older: NIL });
            self.slots.len() - 1
        } else {
            let at = self.tail;
            let slot = self.slots.get_mut(at)?;
            let evicted = std::mem::replace(&mut slot.id, id);
            let mut victim = std::mem::replace(&mut slot.frame, frame).page;
            if Arc::get_mut(&mut victim).is_some() {
                self.spare = Some(victim);
            }
            self.index.remove(&evicted);
            self.unlink(at);
            at
        };
        self.index.insert(id, at);
        self.link_at_head(at);
        self.slots.get_mut(at).map(|slot| &mut slot.frame)
    }

    /// Take slot `at` out of the recency list.
    fn unlink(&mut self, at: usize) {
        let Some(&Slot { newer, older, .. }) = self.slots.get(at) else { return };
        match self.slots.get_mut(newer) {
            Some(slot) => slot.older = older,
            None => self.head = older,
        }
        match self.slots.get_mut(older) {
            Some(slot) => slot.newer = newer,
            None => self.tail = newer,
        }
    }

    /// Put slot `at`, unlinked, at the head of the recency list.
    fn link_at_head(&mut self, at: usize) {
        let head = self.head;
        match self.slots.get_mut(head) {
            Some(slot) => slot.newer = at,
            None => self.tail = at,
        }
        if let Some(slot) = self.slots.get_mut(at) {
            (slot.newer, slot.older) = (NIL, head);
        }
        self.head = at;
    }
}

/// Manager of one paged file.
pub struct Pager {
    file: Box<dyn BackendFile>,
    pool: BufferPool,
    stats: PoolStats,
    page_count: u32,
    free_head: u32,
    root: u32,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_count", &self.page_count)
            .field("free_head", &self.free_head)
            .field("root", &self.root)
            .finish()
    }
}

fn write_page_image(file: &mut dyn BackendFile, id: u32, page: &Page) -> Result<()> {
    file.write_at(u64::from(id) * PAGE_SIZE as u64, &page.encode())?;
    Ok(())
}

impl Pager {
    /// Create a brand-new paged file (fails if `path` exists). The meta
    /// page is materialized on the first [`Pager::flush`].
    pub fn create(backend: &dyn StorageBackend, path: &Path, pool_pages: usize) -> Result<Pager> {
        let file = backend.create_new(path)?;
        Ok(Pager {
            file,
            pool: BufferPool::new(pool_pages),
            stats: PoolStats::default(),
            page_count: 1, // page 0 = meta
            free_head: NO_PAGE,
            root: NO_PAGE,
        })
    }

    /// Open an existing paged file, validating the meta page. A missing
    /// file surfaces as `Io(NotFound)`; a file that exists but is not a
    /// valid paged file is always [`StorageError::Corrupt`].
    pub fn open(backend: &dyn StorageBackend, path: &Path, pool_pages: usize) -> Result<Pager> {
        let mut file = backend.open_rw(path)?;
        let len = file.file_len()?;
        if len < PAGE_SIZE as u64 || len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "paged file is {len} bytes, not a positive multiple of {PAGE_SIZE}"
            )));
        }
        let mut buf = [0u8; PAGE_SIZE];
        file.read_at(0, &mut buf)?;
        let meta = Page::decode(&buf)?;
        if meta.ptype != PageType::Meta {
            return Err(StorageError::Corrupt("page 0 is not a meta page".into()));
        }
        let p = meta.payload();
        if p.len() < META_LEN || !p.starts_with(MAGIC) {
            return Err(StorageError::Corrupt("bad paged-file magic".into()));
        }
        if p[4] != FORMAT_VERSION {
            return Err(StorageError::Corrupt(format!("unknown paged-file version {}", p[4])));
        }
        let page_size = le_u32(p, 5);
        if page_size as usize != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!("paged file uses {page_size}-byte pages")));
        }
        let page_count = le_u32(p, 9);
        if u64::from(page_count) * PAGE_SIZE as u64 > len || page_count == 0 {
            return Err(StorageError::Corrupt(format!(
                "meta page claims {page_count} pages but the file holds {} bytes",
                len
            )));
        }
        let free_head = le_u32(p, 13);
        let root = le_u32(p, 17);
        // Page references in the meta page must resolve inside the file;
        // catching a corrupt head here beats a confusing failure on the
        // first allocate/read that chases it.
        for (what, id) in [("freelist head", free_head), ("root", root)] {
            if id != NO_PAGE && id >= page_count {
                return Err(StorageError::Corrupt(format!(
                    "meta page {what} {id} is out of range (file has {page_count} pages)"
                )));
            }
        }
        let (pool, stats) = (BufferPool::new(pool_pages), PoolStats::default());
        Ok(Pager { file, pool, stats, page_count, free_head, root })
    }

    /// Head of the root (directory) chain, [`NO_PAGE`] if unset.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Point the root at a chain head.
    pub fn set_root(&mut self, root: u32) {
        self.root = root;
    }

    /// Total pages in the file, meta page included.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats
    }

    /// Pages currently resident in the buffer pool (bounded by the pool
    /// capacity; benches use this to show open-time memory stays bounded).
    pub fn cached_pages(&self) -> usize {
        self.pool.index.len()
    }

    /// Bytes the file occupies on disk.
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.page_count) * PAGE_SIZE as u64
    }

    /// Allocate a page: pop the freelist head if any, else extend the file.
    /// The pool holds an empty page of type `ptype` under the new id until
    /// the caller replaces it.
    pub fn allocate(&mut self, ptype: PageType) -> Result<u32> {
        let id = self.reserve()?;
        self.put_page(id, Page::new(ptype))?;
        Ok(id)
    }

    /// Allocate a page id as [`Pager::allocate`] does, but install no
    /// image: the caller owns the page until it hands it over with
    /// [`Pager::put_page`], which it must do before the next flush. A
    /// writer that fills a page while others pass through the pool takes
    /// its ids here, so the pool never holds, nor writes back, an empty
    /// stand-in for a page still being filled.
    pub fn reserve(&mut self) -> Result<u32> {
        let id = if self.free_head != NO_PAGE {
            let id = self.free_head;
            let free_page = self.read_page(id)?;
            if free_page.ptype != PageType::Free {
                return Err(StorageError::Corrupt(format!(
                    "freelist head {id} is a {:?} page",
                    free_page.ptype
                )));
            }
            self.free_head = free_page.next;
            id
        } else {
            let id = self.page_count;
            self.page_count += 1;
            id
        };
        Ok(id)
    }

    /// Return a page to the freelist. Its payload is wiped.
    ///
    /// Freeing a page that is already free would thread it into the
    /// freelist twice: `allocate` would then hand the same page out to two
    /// owners (or loop on it forever), so the double-free is detected here
    /// and surfaced as [`StorageError::Corrupt`].
    pub fn free_page(&mut self, id: u32) -> Result<()> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corrupt(format!("cannot free page {id}")));
        }
        if self.read_page(id)?.ptype == PageType::Free {
            return Err(StorageError::Corrupt(format!("double free of page {id}")));
        }
        let mut p = Page::new(PageType::Free);
        p.next = self.free_head;
        self.put_page(id, p)?;
        self.free_head = id;
        Ok(())
    }

    fn check_id(&self, id: u32) -> Result<()> {
        if id == 0 || id >= self.page_count {
            return Err(StorageError::Corrupt(format!(
                "page id {id} out of range (file has {} pages)",
                self.page_count
            )));
        }
        Ok(())
    }

    /// Run `with` on page `id`'s frame, faulting the page in first (read
    /// and verify — once per residency) if the pool does not hold it.
    fn with_frame<T>(&mut self, id: u32, with: impl FnOnce(&mut Frame) -> Result<T>) -> Result<T> {
        self.check_id(id)?;
        if let Some(frame) = self.pool.touch(id) {
            self.stats.hits += 1;
            return with(frame);
        }
        self.stats.misses += 1;
        let page = self.load(id)?;
        with(self.admit(id, Frame { page, offsets: None, dirty: false })?)
    }

    /// Read page `id` from the file into a page of its own — the pool's
    /// spare if it has one, else a new allocation — and verify it where it
    /// lies. The pool is untouched: a read or a check that fails leaves
    /// the spare an empty page (see `Page::load`), which no slot holds.
    fn load(&mut self, id: u32) -> Result<Arc<Page>> {
        let mut page =
            self.pool.spare.take().unwrap_or_else(|| Arc::new(Page::new(PageType::Free)));
        let (file, offset) = (self.file.as_mut(), u64::from(id) * PAGE_SIZE as u64);
        // The spare is unshared, so this never clones.
        match Arc::make_mut(&mut page).load(|image| file.read_at(offset, image)) {
            Ok(()) => Ok(page),
            Err(e) => {
                self.pool.spare = Some(page);
                Err(match e {
                    StorageError::Corrupt(_) => StorageError::Corrupt(format!("page {id}: {e}")),
                    e => e,
                })
            }
        }
    }

    /// Read a page through the pool. The result *is* the pool's frame, not
    /// a copy of it; it stays readable after the pool evicts the page.
    pub fn read_page(&mut self, id: u32) -> Result<Arc<Page>> {
        self.with_frame(id, |frame| Ok(Arc::clone(&frame.page)))
    }

    /// Read a page together with the offset table `derive` builds from it.
    /// `derive` runs at most once per residency: its result is cached
    /// beside the frame and handed back until the page is evicted or an
    /// edit leaves no table behind, so it is the place to validate the
    /// page's contents. The cache does not remember who filled it: use one
    /// `derive` per kind of page.
    pub(crate) fn read_indexed(
        &mut self,
        id: u32,
        derive: fn(&Page) -> Result<Arc<[u16]>>,
    ) -> Result<(Arc<Page>, Arc<[u16]>)> {
        self.with_frame(id, |frame| {
            let offsets = match &frame.offsets {
                Some(offsets) => Arc::clone(offsets),
                None => Arc::clone(frame.offsets.insert(derive(&frame.page)?)),
            };
            Ok((Arc::clone(&frame.page), offsets))
        })
    }

    /// Install a (possibly new) page image in the pool, marked dirty.
    pub fn put_page(&mut self, id: u32, page: Page) -> Result<()> {
        self.check_id(id)?;
        self.install(id, Arc::new(page), true).map(drop)
    }

    /// Edit page `id` in place. `held` is the image the caller last read.
    /// While the page is resident `held` must be the pool's own frame: it
    /// is handed back, so the frame is unshared, and any other image is
    /// refused as `Corrupt` — the caller planned its edit on bytes the pool
    /// has since replaced. If the page was evicted in the meantime `held`
    /// is re-installed — an edit never reads the file. The frame is marked
    /// dirty and loses its derived offsets; an editor that knows the
    /// offsets of the bytes it leaves behind puts them into
    /// [`FrameMut::offsets`], sparing the next visit its validating pass.
    /// If some other reader still holds the frame, the pool edits a
    /// private copy and that reader keeps the image it read.
    pub(crate) fn page_mut(&mut self, id: u32, held: Arc<Page>) -> Result<FrameMut<'_>> {
        self.check_id(id)?;
        if self.pool.get(id).is_some_and(|frame| !Arc::ptr_eq(&frame.page, &held)) {
            return Err(StorageError::Corrupt(format!(
                "page {id} was replaced in the pool after the image being edited was read"
            )));
        }
        let frame = self.install(id, held, true)?;
        Ok(FrameMut { page: Arc::make_mut(&mut frame.page), offsets: &mut frame.offsets })
    }

    /// Make `page` the image of page `id`, evicting to make room if the
    /// page is not resident. (Handing a frame back, as `page_mut` does,
    /// leaves the pool holding the very same frame.) The frame becomes most
    /// recently used and loses its derived offsets.
    fn install(&mut self, id: u32, page: Arc<Page>, dirty: bool) -> Result<&mut Frame> {
        if !self.pool.index.contains_key(&id) {
            return self.admit(id, Frame { page, offsets: None, dirty });
        }
        let frame = self
            .pool
            .touch(id)
            .ok_or_else(|| StorageError::Corrupt(format!("page {id} left the pool mid-install")))?;
        frame.page = page;
        frame.offsets = None;
        frame.dirty |= dirty;
        Ok(frame)
    }

    /// Give page `id`, which is not resident, `frame` as the most recently
    /// used. A full pool first evicts its least recently used page, writing
    /// it back if dirty; the victim keeps its slot if that write fails.
    fn admit(&mut self, id: u32, frame: Frame) -> Result<&mut Frame> {
        if let Some((victim, old)) = self.pool.victim() {
            if old.dirty {
                write_page_image(self.file.as_mut(), victim, &old.page)?;
                self.stats.dirty_writebacks += 1;
            }
            self.stats.evictions += 1;
        }
        self.pool
            .admit(id, frame)
            .ok_or_else(|| StorageError::Corrupt(format!("page {id} found no slot in the pool")))
    }

    /// Write every dirty page (in page-id order, for a deterministic op
    /// stream), then the meta page, then sync the file.
    pub fn flush(&mut self) -> Result<()> {
        let mut dirty: Vec<(u32, &mut Frame)> = self
            .pool
            .slots
            .iter_mut()
            .filter(|slot| slot.frame.dirty)
            .map(|slot| (slot.id, &mut slot.frame))
            .collect();
        dirty.sort_unstable_by_key(|(id, _)| *id);
        for (id, frame) in dirty {
            write_page_image(self.file.as_mut(), id, &frame.page)?;
            frame.dirty = false;
        }
        let mut meta = Page::new(PageType::Meta);
        let mut payload = [0u8; META_LEN];
        payload[0..4].copy_from_slice(MAGIC);
        payload[4] = FORMAT_VERSION;
        payload[5..9].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        payload[9..13].copy_from_slice(&self.page_count.to_le_bytes());
        payload[13..17].copy_from_slice(&self.free_head.to_le_bytes());
        payload[17..21].copy_from_slice(&self.root.to_le_bytes());
        meta.push(&payload);
        write_page_image(self.file.as_mut(), 0, &meta)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Streams encoded record bytes across a chain of linked pages.
///
/// Records may span page boundaries; the reader reassembles the chain's
/// payload before decoding, so no per-record slotting is needed. Each
/// page reaches the pool once, when it is full or the chain finishes (its
/// id comes from [`Pager::reserve`]), so a chain is written page by page,
/// each page once; a writer dropped unfinished leaves its last page
/// unwritten.
pub struct ChainWriter {
    head: u32,
    current_id: u32,
    current: Page,
    ptype: PageType,
    records: u64,
}

impl ChainWriter {
    /// Start a chain with one freshly allocated page.
    pub fn new(pager: &mut Pager, ptype: PageType) -> Result<ChainWriter> {
        let head = pager.reserve()?;
        Ok(ChainWriter { head, current_id: head, current: Page::new(ptype), ptype, records: 0 })
    }

    /// Head page id of the chain.
    pub fn head(&self) -> u32 {
        self.head
    }

    /// Append one encoded record, spilling to new pages as needed.
    pub fn push_record(&mut self, pager: &mut Pager, mut bytes: &[u8]) -> Result<()> {
        self.records += 1;
        // If the current page is exactly full, the record's first byte lands
        // on the *next* page — spill first so the start-accounting below
        // charges the page the record actually begins in.
        if self.current.len as usize >= PAGE_CAPACITY {
            self.spill(pager)?;
        }
        self.current.count += 1; // record *starts* in this page
        loop {
            let n = self.current.push(bytes);
            bytes = &bytes[n..];
            if bytes.is_empty() {
                return Ok(());
            }
            self.spill(pager)?;
        }
    }

    /// Link a fresh page after the current one and make it current.
    fn spill(&mut self, pager: &mut Pager) -> Result<()> {
        let next_id = pager.reserve()?;
        self.current.next = next_id;
        let full = std::mem::replace(&mut self.current, Page::new(self.ptype));
        pager.put_page(self.current_id, full)?;
        self.current_id = next_id;
        Ok(())
    }

    /// Flush the tail page and return `(head, record_count)`.
    pub fn finish(self, pager: &mut Pager) -> Result<(u32, u64)> {
        pager.put_page(self.current_id, self.current)?;
        Ok((self.head, self.records))
    }
}

/// Concatenated payload of the chain of `ptype` pages starting at `head`.
/// A chain that wanders into a page of any other type — a link into a
/// B-tree node, a free page, another kind of chain — is
/// [`StorageError::Corrupt`], however valid that page's checksum.
pub fn read_chain(pager: &mut Pager, head: u32, ptype: PageType) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut id = head;
    let mut visited: u64 = 0;
    while id != NO_PAGE {
        visited += 1;
        if visited > u64::from(pager.page_count()) {
            return Err(StorageError::Corrupt(format!("page chain from {head} contains a cycle")));
        }
        let page = pager.read_page(id)?;
        if page.ptype != ptype {
            return Err(StorageError::Corrupt(format!(
                "{ptype:?} chain from page {head} reaches page {id}, which is a {:?} page",
                page.ptype
            )));
        }
        out.extend_from_slice(page.payload());
        id = page.next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{FaultBackend, Op, RealBackend};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-pager-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.qpg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn create_flush_reopen_round_trip() {
        let p = tmp("roundtrip");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 8).unwrap();
        let mut w = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
        w.push_record(&mut pager, b"alpha").unwrap();
        w.push_record(&mut pager, b"beta").unwrap();
        let (head, n) = w.finish(&mut pager).unwrap();
        assert_eq!(n, 2);
        pager.set_root(head);
        pager.flush().unwrap();
        drop(pager);

        let mut pager = Pager::open(&b, &p, 8).unwrap();
        assert_eq!(pager.root(), head);
        assert_eq!(read_chain(&mut pager, head, PageType::Heap).unwrap(), b"alphabeta");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn long_records_span_pages() {
        let p = tmp("span");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 4).unwrap();
        let big = vec![0x5A; PAGE_CAPACITY * 3 + 123];
        let mut w = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
        w.push_record(&mut pager, &big).unwrap();
        w.push_record(&mut pager, b"tail").unwrap();
        let (head, _) = w.finish(&mut pager).unwrap();
        pager.set_root(head);
        pager.flush().unwrap();
        drop(pager);

        let mut pager = Pager::open(&b, &p, 4).unwrap();
        let mut want = big.clone();
        want.extend_from_slice(b"tail");
        let root = pager.root();
        assert_eq!(read_chain(&mut pager, root, PageType::Heap).unwrap(), want);
        assert!(pager.page_count() >= 5, "meta + 4 chain pages");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn freelist_reuses_pages() {
        let p = tmp("freelist");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 8).unwrap();
        let a = pager.allocate(PageType::Heap).unwrap();
        let c = pager.allocate(PageType::Heap).unwrap();
        let count_before = pager.page_count();
        pager.free_page(a).unwrap();
        pager.free_page(c).unwrap();
        // LIFO reuse: last freed comes back first; the file must not grow.
        assert_eq!(pager.allocate(PageType::Directory).unwrap(), c);
        assert_eq!(pager.allocate(PageType::Directory).unwrap(), a);
        assert_eq!(pager.page_count(), count_before);
        // Freelist drained: the next allocation extends the file.
        assert_eq!(pager.allocate(PageType::Heap).unwrap(), count_before);
        // Persist and reopen: the freelist head survives via the meta page.
        let d = pager.allocate(PageType::Heap).unwrap();
        pager.free_page(d).unwrap();
        pager.flush().unwrap();
        drop(pager);
        let mut pager = Pager::open(&b, &p, 8).unwrap();
        assert_eq!(pager.allocate(PageType::Heap).unwrap(), d);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn lru_pool_evicts_and_writes_back_dirty_pages() {
        let p = tmp("lru");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 2).unwrap(); // tiny pool
        let ids: Vec<u32> = (0..6)
            .map(|i| {
                let id = pager.allocate(PageType::Heap).unwrap();
                let mut page = Page::new(PageType::Heap);
                page.push(format!("payload-{i}").as_bytes());
                pager.put_page(id, page).unwrap();
                id
            })
            .collect();
        let stats = pager.pool_stats();
        assert!(stats.evictions >= 4, "6 dirty pages through a 2-frame pool: {stats:?}");
        assert!(stats.dirty_writebacks >= 4, "{stats:?}");
        pager.flush().unwrap();
        drop(pager);

        let mut pager = Pager::open(&b, &p, 2).unwrap();
        for (i, id) in ids.iter().enumerate() {
            let page = pager.read_page(*id).unwrap();
            assert_eq!(page.payload(), format!("payload-{i}").as_bytes());
        }
        // Re-read a resident page: that's a hit even with 2 frames.
        let before = pager.pool_stats().hits;
        let _ = pager.read_page(*ids.last().unwrap()).unwrap();
        assert_eq!(pager.pool_stats().hits, before + 1);
        std::fs::remove_file(&p).unwrap();
    }

    /// The pool's victims, pinned: a scripted mix of reads, replacements
    /// and edits (one of them of an image held across its eviction) on a
    /// three-frame pool evicts exactly the least recently used page each
    /// time. The device log says how many pages each step wrote back and
    /// the file says which; the hit and miss counts say what stayed.
    #[test]
    fn the_pool_evicts_the_least_recently_used_page_and_writes_back_only_dirty_victims() {
        enum Step {
            Read(u32),
            Put(u32),
            Edit(u32),
            Hold(u32),
            EditHeld(u32),
        }
        use Step::*;
        let p = tmp("lru-order");
        let device = FaultBackend::recording(RealBackend);
        let mut pager = Pager::create(&device, &p, 3).unwrap();
        let ids: Vec<u32> = (0..6).map(|_| pager.allocate(PageType::Heap).unwrap()).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 6]);
        pager.flush().unwrap(); // 4, 5, 6 resident and clean, 6 the most recent
        let on_disk = || std::fs::read(&p).unwrap();
        let writes = || device.ops().iter().filter(|op| matches!(op, Op::Write { .. })).count();
        let start = pager.pool_stats();

        let script = [
            (Read(1), None),     // evicts 4
            (Put(2), None),      // evicts 5
            (Edit(6), None),     // a hit, then dirty
            (Read(3), None),     // evicts 1
            (Read(2), None),     // a hit: 2 is now newer than 6
            (Put(4), Some(6)),   // evicts 6, dirty
            (Hold(3), None),     // a hit
            (Read(5), Some(2)),  // evicts 2, dirty
            (Read(1), Some(4)),  // evicts 4, dirty
            (Read(6), None),     // evicts 3, whose image is still held
            (EditHeld(3), None), // re-installs that image without a read: evicts 5
            (Put(1), None),      // resident: replaced in place
            (Read(5), None),     // evicts 6
            (Edit(1), None),     // a hit
            (Read(2), Some(3)),  // evicts 3, dirty
            (Put(4), None),      // evicts 5
        ];
        let mut held = None;
        for (n, (step, written_back)) in script.into_iter().enumerate() {
            let (disk, ops) = (on_disk(), writes());
            let mark = format!("step {n}");
            let edited = match step {
                Read(id) => pager.read_page(id).map(|_| id).unwrap(),
                Put(id) => {
                    let mut page = Page::new(PageType::Heap);
                    page.push(mark.as_bytes());
                    pager.put_page(id, page).unwrap();
                    id
                }
                Edit(id) => {
                    let image = pager.read_page(id).unwrap();
                    pager.page_mut(id, image).unwrap().page.push(mark.as_bytes());
                    id
                }
                Hold(id) => {
                    held = Some(pager.read_page(id).unwrap());
                    id
                }
                EditHeld(id) => {
                    let image = held.take().unwrap();
                    pager.page_mut(id, image).unwrap().page.push(mark.as_bytes());
                    id
                }
            };
            let after = on_disk();
            let changed: Vec<u32> = (1..=6u32)
                .filter(|&page| {
                    let at = page as usize * PAGE_SIZE..(page as usize + 1) * PAGE_SIZE;
                    disk.get(at.clone()) != after.get(at)
                })
                .collect();
            assert_eq!(changed, Vec::from_iter(written_back), "{mark} (page {edited})");
            assert_eq!(writes() - ops, changed.len(), "{mark}: one write a write-back");
        }
        let stats = pager.pool_stats();
        let delta = (
            stats.hits - start.hits,
            stats.misses - start.misses,
            stats.evictions - start.evictions,
            stats.dirty_writebacks - start.dirty_writebacks,
        );
        assert_eq!(delta, (4, 7, 11, 4), "hits, misses, evictions, dirty write-backs");
        // 1, 2 and 4 are what is left: reading them goes nowhere near the file.
        for id in [4, 1, 2] {
            pager.read_page(id).unwrap();
        }
        assert_eq!(pager.pool_stats().misses, stats.misses);
        assert_eq!(pager.cached_pages(), 3);

        // Flushing writes the two dirty survivors, 1 and 4, and every edit
        // above is on disk in the end.
        pager.flush().unwrap();
        drop(pager);
        let mut pager = Pager::open(&RealBackend, &p, 3).unwrap();
        let payloads: Vec<Vec<u8>> =
            ids.iter().map(|id| pager.read_page(*id).unwrap().payload().to_vec()).collect();
        let want: [&[u8]; 6] =
            [b"step 11step 13", b"step 1", b"step 10", b"step 15", b"", b"step 2"];
        assert_eq!(payloads, want.map(<[u8]>::to_vec));
        std::fs::remove_file(&p).unwrap();
    }

    /// Derive function for `read_indexed` that counts its runs (this
    /// thread's; tests run on their own threads).
    fn counting_derive(page: &Page) -> Result<Arc<[u16]>> {
        DERIVED.with(|n| n.set(n.get() + 1));
        Ok(Arc::from([page.len]))
    }

    thread_local! {
        static DERIVED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn frames_are_shared_edited_in_place_and_outlive_eviction() {
        let p = tmp("frames");
        let mut pager = Pager::create(&RealBackend, &p, 2).unwrap();
        let ids: Vec<u32> = (0..3).map(|_| pager.allocate(PageType::Heap).unwrap()).collect();
        for id in &ids {
            let held = pager.read_page(*id).unwrap();
            pager.page_mut(*id, held).unwrap().page.push(format!("page {id}").as_bytes());
        }
        pager.flush().unwrap();

        // A hit hands out the pool's frame itself, not a copy of it.
        let a = pager.read_page(ids[2]).unwrap();
        let b = pager.read_page(ids[2]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        drop(b);

        // With no other holder the edit happens in that very frame ...
        let frame = Arc::as_ptr(&a);
        pager.page_mut(ids[2], a).unwrap().page.push(b", edited");
        let a = pager.read_page(ids[2]).unwrap();
        assert_eq!(Arc::as_ptr(&a), frame, "an unshared frame is edited where it lies");
        assert_eq!(a.payload(), b"page 3, edited");

        // ... and with one, the holder keeps the image it read.
        let held = pager.read_page(ids[2]).unwrap();
        pager.page_mut(ids[2], held).unwrap().page.push(b" twice");
        assert_eq!(a.payload(), b"page 3, edited");
        assert_eq!(pager.read_page(ids[2]).unwrap().payload(), b"page 3, edited twice");

        // Evicting a page does not take it from whoever holds its frame,
        // and an edit after the eviction re-installs the held image without
        // going back to the file.
        let held = pager.read_page(ids[2]).unwrap();
        let reads = pager.pool_stats();
        pager.read_page(ids[0]).unwrap();
        pager.read_page(ids[1]).unwrap();
        assert_eq!(pager.pool_stats().evictions, reads.evictions + 2, "page 3 was evicted");
        assert_eq!(held.payload(), b"page 3, edited twice");
        let misses = pager.pool_stats().misses;
        pager.page_mut(ids[2], held).unwrap().page.push(b", thrice");
        assert_eq!(pager.pool_stats().misses, misses, "an edit never reads the file");

        // An image the pool has replaced since it was read cannot be edited:
        // the newer (here dirty) frame stays, untouched.
        let stale = pager.read_page(ids[2]).unwrap();
        pager.put_page(ids[2], Page::clone(&stale)).unwrap();
        let current = pager.read_page(ids[2]).unwrap();
        let err = pager.page_mut(ids[2], stale).map(drop).unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains("replaced")), "{err}");
        pager.page_mut(ids[2], current).unwrap().page.push(b"!");
        pager.flush().unwrap();
        drop(pager);
        let mut pager = Pager::open(&RealBackend, &p, 2).unwrap();
        assert_eq!(pager.read_page(ids[2]).unwrap().payload(), b"page 3, edited twice, thrice!");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn derived_offsets_live_exactly_as_long_as_the_bytes_they_describe() {
        let p = tmp("derived");
        let mut pager = Pager::create(&RealBackend, &p, 2).unwrap();
        let ids: Vec<u32> = (0..3).map(|_| pager.allocate(PageType::Heap).unwrap()).collect();
        let derived = || DERIVED.with(|n| n.get());
        let read = |pager: &mut Pager, id: u32| pager.read_indexed(id, counting_derive).unwrap();

        // Once per residency, however often the page is read.
        let (_, first) = read(&mut pager, ids[0]);
        let (page, again) = read(&mut pager, ids[0]);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((derived(), &first[..]), (1, &[0u16][..]));
        // Dropped by an edit in place that leaves no table behind ...
        pager.page_mut(ids[0], page).unwrap().page.push(b"abc");
        let (page, rebuilt) = read(&mut pager, ids[0]);
        assert_eq!((&rebuilt[..], derived()), (&[3u16][..], 2));
        // ... and kept, without a second derivation, across one that does.
        let edit = pager.page_mut(ids[0], page).unwrap();
        edit.page.push(b"de");
        *edit.offsets = Some(Arc::from([5u16]));
        assert_eq!((&read(&mut pager, ids[0]).1[..], derived()), (&[5u16][..], 2));
        // Dropped by a replaced image ...
        pager.put_page(ids[0], Page::new(PageType::Heap)).unwrap();
        assert_eq!((&read(&mut pager, ids[0]).1[..], derived()), (&[0u16][..], 3));
        // ... and by eviction.
        read(&mut pager, ids[1]);
        read(&mut pager, ids[2]);
        assert_eq!(derived(), 5);
        read(&mut pager, ids[0]);
        assert_eq!(derived(), 6);
        // A derive that fails caches nothing and fails the read.
        fn refuse(_: &Page) -> Result<Arc<[u16]>> {
            Err(StorageError::Corrupt("not a node".into()))
        }
        assert!(matches!(pager.read_indexed(ids[1], refuse), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&p).unwrap();
    }

    /// A miss reads into the page an earlier victim left spare, never into
    /// a frame the pool still holds: a read that fails part-way — here a
    /// page cut short by a truncation under the open pager, so part of it
    /// lands before the error — and a page that fails its checksum leave
    /// every resident page as it is on disk, the victim included, and the
    /// next miss reads into the spare in full.
    #[test]
    fn a_failed_miss_leaves_no_frame_holding_bytes_other_than_its_pages() {
        let p = tmp("failed-miss");
        let mut pager = Pager::create(&RealBackend, &p, 2).unwrap();
        let ids: Vec<u32> = (0..5).map(|_| pager.allocate(PageType::Heap).unwrap()).collect();
        for &id in &ids {
            let mut page = Page::new(PageType::Heap);
            page.push(&vec![id as u8; 100 * id as usize]);
            pager.put_page(id, page).unwrap();
        }
        pager.flush().unwrap();
        drop(pager);
        let on_disk = |id: u32| {
            let image = std::fs::read(&p).unwrap();
            let at = id as usize * PAGE_SIZE;
            Page::decode(&image[at..at + PAGE_SIZE]).unwrap().payload().to_vec()
        };
        let want: Vec<Vec<u8>> = ids.iter().map(|&id| on_disk(id)).collect();

        let mut pager = Pager::open(&RealBackend, &p, 2).unwrap();
        for &id in &ids[..3] {
            pager.read_page(id).unwrap(); // 1 is evicted: its page is the spare
        }
        let last = *ids.last().unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        file.set_len(u64::from(last) * PAGE_SIZE as u64 + 1_000).unwrap();
        let stats = pager.pool_stats();
        let err = pager.read_page(last).unwrap_err();
        assert!(
            matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        assert_eq!(pager.pool_stats().evictions, stats.evictions, "a failed miss evicts nothing");

        // Page 4 fails its checksum on disk.
        let mut image = std::fs::read(&p).unwrap();
        image[4 * PAGE_SIZE + 40] ^= 0x10;
        std::fs::write(&p, &image).unwrap();
        let err = pager.read_page(4).unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.starts_with("page 4: ")), "{err}");

        // The victim, 2, and the page beside it are still resident, and 1
        // comes back through the spare the two failures read into.
        for id in [2, 3, 1] {
            let read = pager.read_page(id).unwrap();
            assert_eq!(read.payload(), &want[id as usize - 1][..], "page {id}");
        }
        let (hits, misses) = (pager.pool_stats().hits, pager.pool_stats().misses);
        assert_eq!((hits, misses), (stats.hits + 2, stats.misses + 3), "two failed misses, then 1");
        std::fs::remove_file(&p).unwrap();
    }

    /// Regression: a chain is read from pages of its own type only.
    #[test]
    fn read_chain_refuses_pages_of_another_type() {
        let p = tmp("chaintype");
        let mut pager = Pager::create(&RealBackend, &p, 4).unwrap();
        let mut w = ChainWriter::new(&mut pager, PageType::Overflow).unwrap();
        w.push_record(&mut pager, &vec![1u8; PAGE_CAPACITY + 1]).unwrap();
        let (head, _) = w.finish(&mut pager).unwrap();
        assert_eq!(
            read_chain(&mut pager, head, PageType::Overflow).unwrap().len(),
            PAGE_CAPACITY + 1
        );
        let err = read_chain(&mut pager, head, PageType::Directory).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("page 1, which is a Overflow page")),
            "{err}"
        );
        // The second page of the chain turns into a free page: the walk
        // stops there instead of appending its payload.
        pager.free_page(head + 1).unwrap();
        let err = read_chain(&mut pager, head, PageType::Overflow).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("page 2, which is a Free page")),
            "{err}"
        );
        std::fs::remove_file(&p).unwrap();
    }

    /// The meta page of the paged file `image` with the `u32` at payload
    /// offset `at` set to `value`, checksummed.
    fn with_meta_field(image: &[u8], at: usize, value: u32) -> [u8; PAGE_SIZE] {
        let mut payload = Page::decode(&image[..PAGE_SIZE]).unwrap().payload().to_vec();
        payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let mut meta = Page::new(PageType::Meta);
        meta.push(&payload);
        meta.encode()
    }

    /// Page-level corruption table mirroring `wal::frame_corruption_table`:
    /// a bad page CRC and a zero-filled tail must both surface as Corrupt.
    #[test]
    fn pager_corruption_table() {
        let p = tmp("corrupt");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 4).unwrap();
        let mut w = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
        w.push_record(&mut pager, &vec![7u8; PAGE_CAPACITY + 10]).unwrap();
        let (head, _) = w.finish(&mut pager).unwrap();
        pager.set_root(head);
        pager.flush().unwrap();
        drop(pager);
        let clean = std::fs::read(&p).unwrap();

        // Case 1: flip a payload bit in the chain's second page → bad CRC.
        let mut bad = clean.clone();
        bad[2 * PAGE_SIZE + 100] ^= 0x40;
        std::fs::write(&p, &bad).unwrap();
        let mut pager = Pager::open(&b, &p, 4).unwrap();
        let err = read_chain(&mut pager, head, PageType::Heap).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        drop(pager);

        // Case 2: zero-filled page tail (torn multi-page write model).
        let mut torn = clean.clone();
        let tail_start = torn.len() - PAGE_SIZE;
        torn[tail_start..].fill(0);
        std::fs::write(&p, &torn).unwrap();
        let mut pager = Pager::open(&b, &p, 4).unwrap();
        let err = read_chain(&mut pager, head, PageType::Heap).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        drop(pager);

        // Case 3: zeroed meta page → Corrupt at open.
        let mut nometa = clean.clone();
        nometa[..PAGE_SIZE].fill(0);
        std::fs::write(&p, &nometa).unwrap();
        let err = Pager::open(&b, &p, 4).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");

        // Case 4: a meta page whose root points past the file's last page
        // (valid CRC, bogus reference) → Corrupt at open, not at first use.
        let mut badroot = clean;
        let meta = with_meta_field(&badroot, 17, 0xFFFF_FFFF);
        badroot[..PAGE_SIZE].copy_from_slice(&meta);
        std::fs::write(&p, &badroot).unwrap();
        let err = Pager::open(&b, &p, 4).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    /// Regression: a record starting exactly at a page boundary must be
    /// counted in the page its first byte lands in. Before the fix, a
    /// record pushed while the current page was exactly full was counted in
    /// no page at all.
    #[test]
    fn chain_counts_records_starting_at_page_boundaries() {
        let p = tmp("boundary");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 8).unwrap();
        let mut w = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
        // Three page-exact records, then one spanning two pages (starts at
        // a boundary too), then a small tail record.
        for _ in 0..3 {
            w.push_record(&mut pager, &vec![0x11; PAGE_CAPACITY]).unwrap();
        }
        w.push_record(&mut pager, &vec![0x22; PAGE_CAPACITY * 2]).unwrap();
        w.push_record(&mut pager, b"tail").unwrap();
        let (head, n) = w.finish(&mut pager).unwrap();
        assert_eq!(n, 5);
        pager.set_root(head);
        pager.flush().unwrap();
        drop(pager);

        let mut pager = Pager::open(&b, &p, 8).unwrap();
        let mut counts = Vec::new();
        let mut id = head;
        while id != NO_PAGE {
            let page = pager.read_page(id).unwrap();
            counts.push(page.count);
            id = page.next;
        }
        // Pages 1..=3 hold one page-exact record each; page 4 starts the
        // two-page record; page 5 is its spill; page 6 starts the tail.
        assert_eq!(counts, vec![1, 1, 1, 1, 0, 1]);
        assert_eq!(counts.iter().map(|c| u64::from(*c)).sum::<u64>(), n);
        std::fs::remove_file(&p).unwrap();
    }

    /// A meta page whose freelist head or root points past the end of the
    /// file must fail at open, not on the first allocate/read.
    #[test]
    fn open_rejects_out_of_range_meta_references() {
        for field_off in [13usize, 17] {
            let p = tmp(&format!("metaref-{field_off}"));
            let b = RealBackend;
            let mut pager = Pager::create(&b, &p, 4).unwrap();
            let id = pager.allocate(PageType::Heap).unwrap();
            pager.set_root(id);
            pager.flush().unwrap();
            drop(pager);

            let mut bytes = std::fs::read(&p).unwrap();
            // Point free_head (offset 13) or root (offset 17) out of range.
            let meta = with_meta_field(&bytes, field_off, 9999);
            bytes[..PAGE_SIZE].copy_from_slice(&meta);
            std::fs::write(&p, &bytes).unwrap();

            let err = Pager::open(&b, &p, 4).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "offset {field_off}: {err}");
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// Freeing a page twice would thread it into the freelist as a cycle;
    /// the second free must surface as Corrupt instead.
    #[test]
    fn double_free_is_corrupt() {
        let p = tmp("doublefree");
        let b = RealBackend;
        let mut pager = Pager::create(&b, &p, 4).unwrap();
        let a = pager.allocate(PageType::Heap).unwrap();
        let c = pager.allocate(PageType::Heap).unwrap();
        pager.free_page(a).unwrap();
        let err = pager.free_page(a).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        // The freelist stays well-formed: both pages still allocate cleanly.
        pager.free_page(c).unwrap();
        assert_eq!(pager.allocate(PageType::Heap).unwrap(), c);
        assert_eq!(pager.allocate(PageType::Heap).unwrap(), a);
        // And the double-free check also holds across a flush + reopen.
        pager.free_page(c).unwrap();
        pager.flush().unwrap();
        drop(pager);
        let mut pager = Pager::open(&b, &p, 4).unwrap();
        assert!(matches!(pager.free_page(c), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&p).unwrap();
    }

    mod chain_props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);

        /// Raw record descriptors; the selector byte biases lengths toward
        /// page-boundary shapes (exact multiples, straddlers) in the test.
        fn record_lens() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
            proptest::collection::vec((0usize..600, any::<u8>(), any::<u8>()), 1..16)
        }

        fn shape(n: usize, sel: u8) -> usize {
            match sel % 8 {
                0 => PAGE_CAPACITY,
                1 => PAGE_CAPACITY * 2,
                2 => PAGE_CAPACITY - 1 + (n % 3), // straddles the boundary
                _ => n,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random record batches round-trip through ChainWriter /
            /// read_chain at every pool size, and a cold reopen reads each
            /// chain page from disk exactly once (miss count == chain pages,
            /// zero hits) regardless of pool capacity.
            #[test]
            fn prop_chain_round_trip_across_pool_sizes(lens in record_lens()) {
                let records: Vec<Vec<u8>> =
                    lens.iter().map(|(n, fill, sel)| vec![*fill; shape(*n, *sel)]).collect();
                let case = CASE.fetch_add(1, Ordering::Relaxed);
                for pool in [1usize, 2, 8] {
                    let p = tmp(&format!("prop-{case}-{pool}"));
                    let b = RealBackend;
                    let mut pager = Pager::create(&b, &p, pool).unwrap();
                    let mut w = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
                    for rec in &records {
                        w.push_record(&mut pager, rec).unwrap();
                    }
                    let (head, n) = w.finish(&mut pager).unwrap();
                    prop_assert_eq!(n, records.len() as u64);
                    pager.set_root(head);
                    pager.flush().unwrap();
                    let chain_pages = u64::from(pager.page_count()) - 1;
                    drop(pager);

                    let mut pager = Pager::open(&b, &p, pool).unwrap();
                    let root = pager.root();
                    let got = read_chain(&mut pager, root, PageType::Heap).unwrap();
                    let want: Vec<u8> = records.concat();
                    prop_assert_eq!(got, want);
                    let stats = pager.pool_stats();
                    prop_assert_eq!(stats.misses, chain_pages);
                    prop_assert_eq!(stats.hits, 0);
                    std::fs::remove_file(&p).unwrap();
                }
            }
        }
    }

    #[test]
    fn open_rejects_truncated_and_missing_files() {
        let p = tmp("short");
        let err = Pager::open(&RealBackend, &p, 4).unwrap_err();
        assert!(
            matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "missing file is NotFound, not Corrupt: {err}"
        );
        std::fs::write(&p, b"way too short").unwrap();
        let err = Pager::open(&RealBackend, &p, 4).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        std::fs::remove_file(&p).unwrap();
    }
}
