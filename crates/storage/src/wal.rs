//! Checksummed write-ahead log, and the one frame codec.
//!
//! Framing: every record is `[len: u32 LE][crc32: u32 LE][payload]`, where
//! the checksum covers the *length prefix and the payload* (see
//! [`frame_crc`]). Covering the length matters: `crc32(b"") == 0`, so a
//! payload-only checksum would let a zero-filled tail (pre-allocated or
//! partially-written blocks full of `\0`) replay as an endless run of valid
//! empty records.
//!
//! The log, the replication stream and the file store all carry this
//! frame, and only this module knows its layout: [`write_frame`] writes
//! one around a payload its caller writes in place ([`Wal::append_with`]
//! is how the engine logs a record straight from the row it is about to
//! store; [`Wal::append`] and [`encode_frame`] copy in an encoded one),
//! and [`decode_frame`] reads one and answers *complete*, *incomplete* or
//! *torn*. Callers keep policy only. [`Wal::replay_with`] stops at the
//! first frame that is not complete — the torn tail of a crashed write —
//! and reports where the clean prefix ends; [`FrameBuf`] (the replication
//! socket, and [`WalTail`]) waits on incomplete and fails on torn; the
//! file store surfaces a torn record once and goes on. The structured
//! store layers transaction semantics on top (see
//! [`crate::structured::recovery`]); this module knows only bytes.
//!
//! All file I/O goes through a [`StorageBackend`] (see [`crate::faultfs`]),
//! so tests can inject deterministic crashes; [`Wal::open`] and
//! [`Wal::replay`] default to the real filesystem.
//!
//! # Durability contract
//!
//! [`Wal::append`] only buffers: after it returns, the frame may live
//! entirely in the log's buffer and is lost on a crash.
//! [`Wal::sync`] is the durability boundary — it writes the buffer to the
//! file *and* calls `File::sync_data`, so once `sync` returns, every
//! previously appended frame survives both process death and OS/power
//! failure (to the extent the disk honors flush commands). `sync_data` is
//! deliberate: frame data must be on stable storage, but file metadata such
//! as the modification time need not be, and skipping the metadata journal
//! write makes the commit fsync cheaper. The structured engine syncs once
//! per commit/DDL record, never per operation. The checksum
//! framing makes a torn final frame detectable, so a crash *between*
//! `append` and `sync` never corrupts the clean prefix — replay simply
//! truncates the tail at the last record whose CRC verifies. A failed
//! write or sync stops the log instead (see [`Wal`]): it cuts the file
//! back to the last sync and takes no more writes, and the tail the log
//! makes for replication never reads past the last sync.

use crate::error::StorageError;
use crate::faultfs::{BackendFile, RealBackend, StorageBackend};
use crate::Result;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// CRC-32 (IEEE): the one checksum of pages, WAL frames and the wire
/// protocol, computed by `quarry-crc` — a carry-less-multiply (PCLMULQDQ)
/// folding kernel on x86_64 CPUs that have the instruction, for inputs of
/// 64 bytes or more; slicing-by-8 tables, in three lanes from 2 046
/// bytes, everywhere else. The choice is made per call from a cached CPU
/// check, and both give the same bits. The kernel's call is the
/// workspace's one `unsafe` block, inside that crate; this one forbids
/// `unsafe`.
pub fn crc32(data: &[u8]) -> u32 {
    quarry_crc::crc32(data)
}

/// Frame checksum: CRC-32 over the record's 4-byte LE length prefix
/// followed by the payload. Including the length makes a zero-filled region
/// fail verification (`crc32` of an empty payload alone is 0, which is
/// exactly what uninitialized blocks contain).
pub fn frame_crc(payload: &[u8]) -> u32 {
    let len = (payload.len() as u32).to_le_bytes();
    !quarry_crc::update(quarry_crc::update(0xFFFF_FFFF, &len), payload)
}

/// Bytes of a frame's header: the length prefix and the checksum.
pub const FRAME_HEADER: usize = 8;

/// Reserve a frame's header at the end of `out`, for a payload written
/// after it; returns where the frame starts, which [`seal_frame`] takes.
fn open_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    start
}

/// Patch the length and checksum of the frame [`open_frame`] started at
/// `start` into its header, over the payload that now stands behind it. A
/// payload too long for the length prefix is refused, never truncated.
fn seal_frame(out: &mut [u8], start: usize) -> Result<()> {
    let payload = out.get(start + FRAME_HEADER..).unwrap_or_default();
    let len = u32::try_from(payload.len()).map_err(|_| {
        StorageError::Corrupt(format!("record of {} bytes does not fit a frame", payload.len()))
    })?;
    let crc = frame_crc(payload);
    if let Some(header) = out.get_mut(start..start + FRAME_HEADER) {
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc.to_le_bytes());
    }
    Ok(())
}

/// Append to `out` the frame whose payload `fill` appends: the one place
/// the layout is written (`Frames` writes several with the same two
/// steps). The header is reserved first and its length and checksum
/// patched in once the payload stands behind it, so a payload is written
/// once, where the frame holds it. On any error `out` is left as it was.
pub fn write_frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
    let start = open_frame(out);
    let framed = fill(out).and_then(|()| seal_frame(out, start));
    if framed.is_err() {
        out.truncate(start);
    }
    framed
}

/// Append the frame for an already encoded `payload` to `out`.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    write_frame(out, |frame| {
        frame.extend_from_slice(payload);
        Ok(())
    })
}

/// Why no further bytes can make the front of a buffer a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Torn {
    /// The length prefix claims `len` payload bytes, over the caller's `cap`.
    Oversized { len: usize, cap: usize },
    /// All `frame` bytes of the frame are there and fail its checksum.
    Checksum { frame: usize },
}

impl From<Torn> for StorageError {
    fn from(torn: Torn) -> StorageError {
        StorageError::Corrupt(match torn {
            Torn::Oversized { len, cap } => format!("frame of {len} bytes exceeds limit {cap}"),
            Torn::Checksum { frame } => format!("frame of {frame} bytes fails its checksum"),
        })
    }
}

/// Decode the frame at the front of `buf`: the one place the layout is
/// parsed. `Ok(Some((payload, bytes consumed)))` is a whole frame whose
/// checksum verifies, the payload borrowed from `buf`; `Ok(None)` an
/// incomplete one, which more bytes may complete; `Err` a torn one. A
/// length prefix over `cap` is refused before the payload is looked for,
/// so a streaming caller never buffers towards a frame it would not take.
pub fn decode_frame(buf: &[u8], cap: usize) -> std::result::Result<Option<(&[u8], usize)>, Torn> {
    let word = |at: usize| Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?));
    let Some(len) = word(0).map(|len| len as usize) else { return Ok(None) };
    if len > cap {
        return Err(Torn::Oversized { len, cap });
    }
    let rest = || Some((word(4)?, buf.get(FRAME_HEADER..FRAME_HEADER.checked_add(len)?)?));
    let Some((crc, payload)) = rest() else { return Ok(None) };
    if frame_crc(payload) != crc {
        return Err(Torn::Checksum { frame: FRAME_HEADER + len });
    }
    Ok(Some((payload, FRAME_HEADER + len)))
}

/// Bytes of whole frames [`Wal`] buffers before it writes them to the file
/// (what a `BufWriter` holds by default).
const WRITE_BUF: usize = 8 * 1024;

/// An append-only log file.
///
/// It stops at its first failed write, sync or seal: what the file holds
/// past the last sync is cut off (so a reopen cannot find it either), and
/// every later write, sync or reset answers [`StorageError::LogFailed`]
/// until the log is opened again. The kernel may have dropped the pages a
/// failed sync was writing, so nothing after it can be trusted to be on
/// disk — the lesson PostgreSQL learned about fsync.
pub struct Wal {
    path: PathBuf,
    backend: Arc<dyn StorageBackend>,
    file: Box<dyn BackendFile>,
    /// Whole frames appended since the last write to the file; reused, so
    /// an append allocates nothing in steady state.
    buf: Vec<u8>,
    /// Log offset of `buf`'s first byte: the bytes the file holds.
    written: u64,
    /// Log offset the last sync made durable, shared with every
    /// [`Wal::tail`], which reads no further: stored (`Release`) only after
    /// the bytes below it are written and synced, loaded (`Acquire`) by a
    /// tail before it reads them.
    durable: Arc<AtomicU64>,
    /// What stopped the log, once something has.
    failed: Option<String>,
}

/// The log's buffer, lent to [`Wal::append_frames`] for a batch of frames
/// whose payloads are written piece by piece: [`Frames::open`] a frame,
/// write its payload into [`Frames::buf`], then [`Frames::seal`] it.
pub(crate) struct Frames<'a> {
    buf: &'a mut Vec<u8>,
    /// Set by a seal that failed: the log stops.
    seal_failed: bool,
}

impl Frames<'_> {
    /// Start a frame at the end of the buffer; returns where it starts.
    pub(crate) fn open(&mut self) -> usize {
        open_frame(self.buf)
    }

    /// The buffer the open frame's payload is appended to.
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    /// Payload bytes written so far behind the frame started at `start`.
    pub(crate) fn payload_len(&self, start: usize) -> usize {
        self.buf.len().saturating_sub(start + FRAME_HEADER)
    }

    /// Finish the frame started at `start`, whose payload is everything
    /// after its header.
    pub(crate) fn seal(&mut self, start: usize) -> Result<()> {
        let sealed = seal_frame(self.buf, start);
        self.seal_failed |= sealed.is_err();
        sealed
    }
}

impl Wal {
    /// Open (creating if needed) a log at `path`, positioned for appending
    /// after the last *clean* record. Any torn tail is truncated away.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Self::open_with(Arc::new(RealBackend), path)
    }

    /// [`Wal::open`] against an explicit storage backend.
    pub fn open_with(backend: Arc<dyn StorageBackend>, path: impl AsRef<Path>) -> Result<Wal> {
        let clean_end = Self::replay_with(&*backend, path.as_ref(), |_| Ok(()))?;
        Self::open_at(backend, path.as_ref(), clean_end)
    }

    /// Open the log for appending at `clean_end`, the end of the clean
    /// prefix a replay of it just reported: whoever has scanned the log
    /// already (recovery) opens it without a second scan.
    pub(crate) fn open_at(
        backend: Arc<dyn StorageBackend>,
        path: &Path,
        clean_end: u64,
    ) -> Result<Wal> {
        let file = backend.open_append(path, clean_end)?;
        Ok(Wal {
            path: path.to_path_buf(),
            backend,
            file,
            buf: Vec::new(),
            written: clean_end,
            durable: Arc::new(AtomicU64::new(clean_end)),
            failed: None,
        })
    }

    /// `Err` once the log has stopped (see [`Wal`]).
    pub(crate) fn check(&self) -> Result<()> {
        match &self.failed {
            Some(why) => Err(StorageError::LogFailed(why.clone())),
            None => Ok(()),
        }
    }

    /// Stop the log after `e`, a failed write, sync or seal: drop what is
    /// buffered, cut the file back to its durable end — best effort, and
    /// synced, so neither a reopen nor a tail finds what followed — and
    /// refuse every later write. Returns `e`.
    fn fail(&mut self, e: StorageError) -> StorageError {
        self.failed = Some(e.to_string());
        self.buf.clear();
        self.written = self.durable.load(Ordering::Acquire);
        let _ = self.file.truncate(self.written).and_then(|()| self.file.sync_data());
        e
    }

    /// Write the buffered frames to the file.
    fn write_out(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        match self.file.write_all(&self.buf).and_then(|()| self.file.flush()) {
            Ok(()) => {
                self.written += self.buf.len() as u64;
                self.buf.clear();
                Ok(())
            }
            Err(e) => Err(self.fail(e.into())),
        }
    }

    /// Write the buffer out once it holds [`WRITE_BUF`] bytes.
    fn write_out_full(&mut self) -> Result<()> {
        if self.buf.len() >= WRITE_BUF {
            self.write_out()?;
        }
        Ok(())
    }

    /// Append one record whose payload `fill` writes straight into the
    /// log's buffer ([`write_frame`]); returns its frame offset. A record
    /// `fill` fails to write appends nothing. Data is buffered — call
    /// [`Wal::sync`] to force it to the OS/file.
    pub fn append_with(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<u64> {
        self.check()?;
        let offset = self.len();
        write_frame(&mut self.buf, fill)?;
        self.write_out_full()?;
        Ok(offset)
    }

    /// Append one already encoded record; returns its frame offset.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        self.append_with(|frame| {
            frame.extend_from_slice(payload);
            Ok(())
        })
    }

    /// Append the frames `fill` writes through [`Frames`], all or none:
    /// the buffer is not written out while `fill` runs, and an error from
    /// it takes back every frame it wrote. A failed seal stops the log;
    /// any other error (a refused record) leaves it as it was.
    pub(crate) fn append_frames<T>(
        &mut self,
        fill: impl FnOnce(&mut Frames<'_>) -> Result<T>,
    ) -> Result<T> {
        self.check()?;
        let mark = self.buf.len();
        let mut frames = Frames { buf: &mut self.buf, seal_failed: false };
        let filled = fill(&mut frames);
        let seal_failed = frames.seal_failed;
        match filled {
            Ok(out) => {
                self.write_out_full()?;
                Ok(out)
            }
            Err(e) if seal_failed => Err(self.fail(e)),
            Err(e) => {
                self.buf.truncate(mark);
                Err(e)
            }
        }
    }

    /// Write buffered frames to the OS *without* an fsync: what a replica
    /// does with each shipped frame, so that the next [`Wal::sync`] (at
    /// promotion or a drain) is what makes them durable.
    pub fn flush(&mut self) -> Result<()> {
        self.check()?;
        self.write_out()
    }

    /// Write buffered frames and fsync the file: everything appended is
    /// durable, and visible to the log's replication tails, once this
    /// returns.
    pub fn sync(&mut self) -> Result<()> {
        self.check()?;
        self.write_out()?;
        if let Err(e) = self.file.sync_data() {
            return Err(self.fail(e.into()));
        }
        self.durable.store(self.written, Ordering::Release);
        Ok(())
    }

    /// Current append offset (= file length after sync).
    pub fn len(&self) -> u64 {
        self.written + self.buf.len() as u64
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every clean record of a log file, copied out (no `Wal` instance
    /// needed): [`Wal::replay_with`] for tools and tests.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>> {
        let mut records = Vec::new();
        Self::replay_with(&RealBackend, path, |payload| {
            records.push(payload.to_vec());
            Ok(())
        })?;
        Ok(records)
    }

    /// Read a log file once and hand `each` every clean record's payload,
    /// borrowed from the buffer the file was read into; returns the
    /// offset the clean prefix ends at. A missing file replays as empty.
    /// Damage mid-file ends the replay at the last clean record rather
    /// than erroring: that is exactly the crash-recovery contract. An
    /// error from `each` ends it too, and is returned.
    pub fn replay_with(
        backend: &dyn StorageBackend,
        path: impl AsRef<Path>,
        mut each: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<u64> {
        let data = match backend.read(path.as_ref()) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        let mut pos = 0usize;
        // No cap: the file's own length bounds what a prefix can claim.
        while let Ok(Some((payload, consumed))) =
            decode_frame(data.get(pos..).unwrap_or_default(), usize::MAX)
        {
            each(payload)?;
            pos += consumed;
        }
        Ok(pos as u64)
    }

    /// Truncate the log to zero length (e.g. after a checkpoint).
    pub fn reset(&mut self) -> Result<()> {
        self.check()?;
        self.buf.clear();
        if let Err(e) = self.file.truncate(0) {
            return Err(self.fail(e.into()));
        }
        self.written = 0;
        self.durable.store(0, Ordering::Release);
        Ok(())
    }

    /// The storage backend this log writes through.
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }

    /// A [`WalTail`] over this log from `start` (see [`WalTail::new`])
    /// that reads no further than the last sync: a frame is shipped only
    /// once it is durable, and a stopped log ships nothing more.
    pub(crate) fn tail(&self, start: u64, cap: usize) -> WalTail {
        let mut tail = WalTail::new(Arc::clone(&self.backend), &self.path, start, cap);
        tail.durable = Some(Arc::clone(&self.durable));
        tail
    }
}

impl Drop for Wal {
    /// Buffered frames reach the file when the log is closed, as a
    /// `BufWriter`'s do; a stopped log writes nothing more.
    fn drop(&mut self) {
        if self.failed.is_none() {
            let _ = self.write_out();
        }
    }
}

/// An incremental frame reader over a byte stream that arrives in pieces:
/// a socket, or a log file that is still growing. [`FrameBuf::fill`] takes
/// the next piece and [`FrameBuf::next_frame`] hands out the whole frames
/// so far; a partial frame stays buffered until the rest of it arrives.
/// A torn frame is an error and stays one — such a stream cannot be
/// resynchronised — and since an oversized length prefix is torn on
/// sight, a caller that stops there never holds more than one frame
/// under the cap plus one piece.
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Where the bytes not handed out yet start; what lies before is
    /// dropped by the next `fill`.
    head: usize,
    cap: usize,
}

impl FrameBuf {
    /// A reader that refuses any frame whose payload exceeds `cap` bytes.
    pub fn new(cap: usize) -> FrameBuf {
        FrameBuf { buf: Vec::new(), head: 0, cap }
    }

    /// Let `read` put up to `room` more bytes of the stream straight into
    /// the buffer; it returns how many it wrote.
    pub fn fill(
        &mut self,
        room: usize,
        read: impl FnOnce(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        self.buf.drain(..self.head);
        self.head = 0;
        let held = self.buf.len();
        self.buf.resize(held + room, 0);
        let got = read(self.buf.get_mut(held..).unwrap_or_default());
        self.buf.truncate(held + got.as_ref().map_or(0, |&n| n.min(room)));
        got
    }

    /// The next whole frame's payload, or `None` until more bytes arrive.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        let front = self.buf.get(self.head..).unwrap_or_default();
        let Some((payload, consumed)) = decode_frame(front, self.cap)? else { return Ok(None) };
        self.head += consumed;
        Ok(Some(payload))
    }
}

/// What one [`WalTail::poll`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailPoll<'a> {
    /// New whole frames past the cursor, as the bytes the log holds —
    /// which are the bytes the replication stream carries, so a shipper
    /// writes the run as it is. The cursor has advanced past it.
    Frames(&'a [u8]),
    /// Nothing new (no bytes, or only an incomplete trailing frame).
    Idle,
    /// The log file is shorter than the cursor. Either a checkpoint
    /// truncated it (the cursor position is from a dead epoch and the
    /// caller must renegotiate — [`WalTail::seek`]), or the cursor was
    /// placed at an append offset whose tail is still buffered in the
    /// writer. The caller disambiguates by checking the checkpoint
    /// epoch; the cursor itself is left untouched.
    Truncated,
}

/// A polling cursor over a live WAL file, used by replication to stream
/// committed frames to replicas.
///
/// The tail keeps one read handle on the log and reads only the bytes
/// between what it has read and the end of the file, so a poll costs what
/// is new — on an idle log, nothing — however long the log is. It reads
/// through the same [`StorageBackend`] as the writer, so under fault
/// injection it observes exactly the bytes a crash would leave behind —
/// and, because opening and reading are not crash points, the act of
/// tailing never perturbs the recorded operation stream. An incomplete
/// trailing frame (an append racing the poll, or a commit not yet
/// flushed) reads as [`TailPoll::Idle`] and is completed, not re-read, by
/// a later poll; a torn frame is an error.
pub struct WalTail {
    backend: Arc<dyn StorageBackend>,
    path: PathBuf,
    /// Opened by the first poll that finds the file.
    file: Option<Box<dyn BackendFile>>,
    /// Log offset of the next frame not handed out yet.
    offset: u64,
    /// The bytes read past `offset`: a frame the log holds part of.
    frames: FrameBuf,
    /// The writer's durable end, for a tail made by [`Wal::tail`]: no
    /// byte past it is read.
    durable: Option<Arc<AtomicU64>>,
}

impl WalTail {
    /// A tail over the log at `path`, starting at byte offset `start` and
    /// refusing any frame over `cap` payload bytes (what its consumer
    /// would refuse to receive).
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        path: impl AsRef<Path>,
        start: u64,
        cap: usize,
    ) -> WalTail {
        let path = path.as_ref().to_path_buf();
        WalTail {
            backend,
            path,
            file: None,
            offset: start,
            frames: FrameBuf::new(cap),
            durable: None,
        }
    }

    /// Current cursor position (byte offset of the next unread frame).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Move the cursor (after a truncation / epoch change).
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
        self.frames = FrameBuf::new(self.frames.cap);
    }

    /// Read any whole frames past the cursor. A missing file counts as
    /// empty (length 0): before the first commit the log may not exist.
    pub fn poll(&mut self) -> Result<TailPoll<'_>> {
        if self.file.is_none() {
            match self.backend.open_rw(&self.path) {
                Ok(file) => self.file = Some(file),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let len = self.file.as_mut().map_or(Ok(0), |file| file.file_len())?;
        let len = self.durable.as_ref().map_or(len, |end| len.min(end.load(Ordering::Acquire)));
        // What has been read: the frames handed out, and part of the next.
        let read_to = self.offset + (self.frames.buf.len() - self.frames.head) as u64;
        if len < read_to {
            return Ok(TailPoll::Truncated);
        }
        if let Some(file) = self.file.as_mut().filter(|_| len > read_to) {
            let read = |space: &mut [u8]| file.read_at(read_to, space).map(|()| space.len());
            match self.frames.fill((len - read_to) as usize, read) {
                Ok(_) => {}
                // The file shrank between the length and the read: a
                // reset under the cursor.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Ok(TailPoll::Truncated)
                }
                Err(e) => return Err(e.into()),
            }
        }
        // The run is every whole frame now at the front. A torn frame
        // ends it — or, with no whole frame before it, fails the poll.
        let mut run = 0;
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => run += FRAME_HEADER + payload.len(),
                Ok(None) => break,
                Err(e) if run == 0 => return Err(e),
                Err(_) => break,
            }
        }
        if run == 0 {
            return Ok(TailPoll::Idle);
        }
        self.offset += run as u64;
        let FrameBuf { buf, head, .. } = &self.frames;
        Ok(TailPoll::Frames(buf.get(head - run..*head).unwrap_or_default()))
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).field("offset", &self.len()).finish()
    }
}

/// Fail the build if we forget the error type grows non-Send.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<StorageError>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::faultfs::{FaultBackend, Op};
    use crate::filestore::FileStore;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The payloads of a validated run of frames (a [`TailPoll::Frames`]).
    pub(crate) fn payloads(run: &[u8]) -> Vec<&[u8]> {
        let (mut out, mut pos) = (Vec::new(), 0);
        while let Ok(Some((payload, consumed))) = decode_frame(&run[pos..], usize::MAX) {
            out.push(payload);
            pos += consumed;
        }
        assert_eq!(pos, run.len(), "a run is whole frames and nothing else");
        out
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // `frame_crc(b"")` is the CRC of its four zero length bytes.
        assert_eq!(frame_crc(b""), 0x2144_DF1C);
    }

    /// `frame_crc` feeds the length prefix and then the payload, from the
    /// state the prefix left: short and long payloads (the kernel's and the
    /// tables' side of `quarry-crc`'s threshold) alike.
    #[test]
    fn frame_crc_is_the_crc_of_the_length_prefix_then_the_payload() {
        let data: Vec<u8> =
            (0..11_255u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for len in [1, 37, 60, 63, 64, 65, 2046, 4092, 11_255] {
            let payload = &data[..len];
            let mut framed = (len as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(payload);
            assert_eq!(frame_crc(payload), crc32(&framed), "payload of {len}");
        }
    }

    #[test]
    fn append_sync_replay() {
        let p = tmp("basic");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(&recs[0][..], b"one");
        assert_eq!(&recs[1][..], b"two");
        std::fs::remove_file(&p).unwrap();
    }

    /// A payload written in place frames to the bytes of the same payload
    /// copied in, and a fill that fails leaves neither the buffer nor the
    /// log any different.
    #[test]
    fn a_frame_filled_in_place_is_the_frame_of_its_payload() {
        let mut out = b"before".to_vec();
        write_frame(&mut out, |w| {
            w.extend_from_slice(b"in place");
            Ok(())
        })
        .unwrap();
        assert_eq!(out, [b"before".as_slice(), &framed(b"in place")].concat());
        let refused = write_frame(&mut out, |w| {
            w.extend_from_slice(b"half a record");
            Err(StorageError::Corrupt("refused".into()))
        });
        assert!(refused.is_err());
        assert_eq!(out, [b"before".as_slice(), &framed(b"in place")].concat());

        let p = tmp("fill");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p).unwrap();
        wal.append(b"one").unwrap();
        let failed = wal.append_with(|w| {
            w.push(7);
            Err(StorageError::Corrupt("refused".into()))
        });
        assert!(failed.is_err());
        let offset = wal.append_with(|w| {
            w.extend_from_slice(b"two");
            Ok(())
        });
        assert_eq!(offset.unwrap(), (FRAME_HEADER + 3) as u64);
        wal.sync().unwrap();
        assert_eq!(Wal::replay(&p).unwrap(), [b"one".to_vec(), b"two".to_vec()]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        assert!(Wal::replay("/nonexistent/quarry.wal").unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_open() {
        let p = tmp("torn");
        let _ = std::fs::remove_file(&p);
        {
            let mut wal = Wal::open(&p).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a torn write: append a valid-looking frame header with a
        // bad checksum and half a payload.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&10u32.to_le_bytes()).unwrap();
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
            f.write_all(b"par").unwrap();
        }
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs.len(), 2, "torn tail must not produce a record");

        // Re-opening truncates and new appends go after the clean prefix.
        let mut wal = Wal::open(&p).unwrap();
        wal.append(b"gamma").unwrap();
        wal.sync().unwrap();
        let recs = Wal::replay(&p).unwrap();
        let payloads: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
        assert_eq!(payloads, [b"alpha".as_slice(), b"beta", b"gamma"]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupted_middle_record_stops_replay_there() {
        let p = tmp("midcorrupt");
        let _ = std::fs::remove_file(&p);
        {
            let mut wal = Wal::open(&p).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.append(b"third").unwrap();
            wal.sync().unwrap();
        }
        // Flip a byte in the middle record's payload.
        let mut data = std::fs::read(&p).unwrap();
        let second_payload_pos = (8 + 5) + 8; // after first frame + second header
        data[second_payload_pos] ^= 0xFF;
        std::fs::write(&p, &data).unwrap();
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0][..], b"first");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let p = tmp("reset");
        let _ = std::fs::remove_file(&p);
        let mut wal = Wal::open(&p).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.append(b"y").unwrap();
        wal.sync().unwrap();
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0][..], b"y");
        std::fs::remove_file(&p).unwrap();
    }

    /// The frame cap of the streaming readers in the tests below.
    const CAP: usize = 64;

    /// A payload one byte over [`CAP`].
    const OVER_CAP: &[u8] = &[7u8; CAP + 1];

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, payload).unwrap();
        frame
    }

    /// How a streaming reader's answer ends once it has every byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum End {
        /// Incomplete: it waits for more bytes.
        Waits,
        /// Torn: it fails, and keeps failing.
        Torn,
    }

    /// Push `pieces` through a [`FrameBuf`], draining it after each; the
    /// payloads it handed out and how it ended.
    fn through_frame_buf(pieces: &[&[u8]]) -> (Vec<Vec<u8>>, End) {
        let mut frames = FrameBuf::new(CAP);
        let mut got = Vec::new();
        for piece in pieces {
            for chunk in piece.chunks(16) {
                let copy = |space: &mut [u8]| {
                    space.copy_from_slice(chunk);
                    Ok(chunk.len())
                };
                frames.fill(chunk.len(), copy).unwrap();
                assert!(frames.buf.len() <= FRAME_HEADER + CAP + 16, "buffer above cap + a read");
                loop {
                    match frames.next_frame() {
                        Ok(Some(payload)) => got.push(payload.to_vec()),
                        Ok(None) => break,
                        Err(StorageError::Corrupt(_)) => {
                            assert!(frames.next_frame().is_err(), "torn is final");
                            return (got, End::Torn);
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }
        (got, End::Waits)
    }

    /// Write `pieces` to a log one after the other with a [`WalTail`]
    /// polling between them; the payloads it handed out, how it ended, and
    /// where its cursor stopped.
    fn through_wal_tail(p: &Path, pieces: &[&[u8]]) -> (Vec<Vec<u8>>, End, u64) {
        let _ = std::fs::remove_file(p);
        let mut tail = WalTail::new(Arc::new(RealBackend), p, 0, CAP);
        let mut got = Vec::new();
        for piece in pieces {
            let mut f = std::fs::OpenOptions::new().create(true).append(true).open(p).unwrap();
            f.write_all(piece).unwrap();
            loop {
                match tail.poll() {
                    Ok(TailPoll::Frames(run)) => {
                        got.extend(payloads(run).iter().map(|p| p.to_vec()))
                    }
                    Ok(TailPoll::Idle) => break,
                    Ok(TailPoll::Truncated) => panic!("nothing truncates this log"),
                    Err(StorageError::Corrupt(_)) => {
                        assert!(tail.poll().is_err(), "torn is final");
                        return (got, End::Torn, tail.offset());
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
        (got, End::Waits, tail.offset())
    }

    /// The one corruption table of the one decoder. Each case damages a
    /// three-record log (`alpha`, `beta`, `gamma`) and states what each of
    /// the three caller policies makes of the result:
    ///
    /// - **replay** ([`Wal::replay`], then [`Wal::open`]): which prefix of
    ///   records survives — and the log reopens truncated to exactly that
    ///   prefix and stays appendable;
    /// - **stream** ([`FrameBuf`] and [`WalTail`], fed the bytes whole and
    ///   cut in two at *every* offset, so every header is split across
    ///   two reads somewhere): how many frames come out, and whether the
    ///   reader then waits or fails;
    /// - **scan** (the file store): the records and errors, in order.
    #[test]
    fn frame_corruption_table() {
        struct Case {
            name: &'static str,
            // Given the clean log bytes and each frame's start offset,
            // produce the damaged bytes.
            mutate: fn(Vec<u8>, &[usize]) -> Vec<u8>,
            replay: &'static [&'static [u8]],
            // The reader hands out this many of `replay`'s records first.
            stream: (usize, End),
            // `None`: one `Corrupt` error.
            scan: &'static [Option<&'static [u8]>],
        }
        let cases: &[Case] = &[
            Case {
                name: "clean log",
                mutate: |data, _| data,
                replay: &[b"alpha", b"beta", b"gamma"],
                stream: (3, End::Waits),
                scan: &[Some(b"alpha"), Some(b"beta"), Some(b"gamma")],
            },
            Case {
                name: "truncated length prefix (2 of 4 length bytes)",
                mutate: |mut data, frames| {
                    data.truncate(frames[2] + 2);
                    data
                },
                replay: &[b"alpha", b"beta"],
                stream: (2, End::Waits),
                scan: &[Some(b"alpha"), Some(b"beta")],
            },
            Case {
                name: "truncated payload (header intact, payload cut short)",
                mutate: |mut data, frames| {
                    data.truncate(frames[2] + 8 + 2);
                    data
                },
                replay: &[b"alpha", b"beta"],
                stream: (2, End::Waits),
                scan: &[Some(b"alpha"), Some(b"beta")],
            },
            Case {
                name: "bad CRC mid-log stops replay at the damage",
                mutate: |mut data, frames| {
                    data[frames[1] + 8] ^= 0xFF;
                    data
                },
                replay: &[b"alpha"],
                stream: (1, End::Torn),
                scan: &[Some(b"alpha"), None, Some(b"gamma")],
            },
            Case {
                name: "valid records after a torn record are NOT recovered",
                mutate: |mut data, frames| {
                    // Tear record 1's payload byte without touching record 2:
                    // replay must not resynchronize past the damage.
                    data[frames[1] + 8] = data[frames[1] + 8].wrapping_add(1);
                    assert!(frames[2] < data.len(), "record 2 still present");
                    data
                },
                replay: &[b"alpha"],
                stream: (1, End::Torn),
                scan: &[Some(b"alpha"), None, Some(b"gamma")],
            },
            Case {
                name: "zero-filled tail parses as no records",
                mutate: |mut data, frames| {
                    data.truncate(frames[1]);
                    data.extend_from_slice(&[0u8; 64]);
                    data
                },
                replay: &[b"alpha"],
                stream: (1, End::Torn),
                // Every eight zero bytes are one empty record with a bad sum.
                scan: &[Some(b"alpha"), None, None, None, None, None, None, None, None],
            },
            Case {
                name: "entirely zero-filled log parses as empty",
                mutate: |_, _| vec![0u8; 32],
                replay: &[],
                stream: (0, End::Torn),
                scan: &[None, None, None, None],
            },
            Case {
                name: "len = u32::MAX",
                mutate: |mut data, frames| {
                    data.truncate(frames[2]);
                    data.extend_from_slice(&u32::MAX.to_le_bytes());
                    data.extend_from_slice(&[0u8; 12]);
                    data
                },
                replay: &[b"alpha", b"beta"],
                stream: (2, End::Torn),
                scan: &[Some(b"alpha"), Some(b"beta")],
            },
            Case {
                name: "len = cap + 1",
                mutate: |mut data, frames| {
                    data.truncate(frames[2]);
                    data.extend_from_slice(&framed(OVER_CAP));
                    data
                },
                // Whole and sound: only a reader with a cap refuses it.
                replay: &[b"alpha", b"beta", OVER_CAP],
                stream: (2, End::Torn),
                scan: &[Some(b"alpha"), Some(b"beta"), Some(OVER_CAP)],
            },
        ];

        for (i, case) in cases.iter().enumerate() {
            let name = case.name;
            let p = tmp(&format!("table{i}"));
            let _ = std::fs::remove_file(&p);
            let mut frames = Vec::new();
            {
                let mut wal = Wal::open(&p).unwrap();
                for payload in [b"alpha".as_slice(), b"beta", b"gamma"] {
                    frames.push(wal.append(payload).unwrap() as usize);
                }
                wal.sync().unwrap();
            }
            let clean = std::fs::read(&p).unwrap();
            let data = (case.mutate)(clean, &frames);

            // Policy 1: replay stops at the first frame that is not whole.
            std::fs::write(&p, &data).unwrap();
            let recs = Wal::replay(&p).unwrap();
            let got: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
            assert_eq!(got, case.replay, "replay, case: {name}");
            let offset: u64 = recs.iter().map(|r| (FRAME_HEADER + r.len()) as u64).sum();
            // Re-opening must agree: the log is truncated to the surviving
            // prefix and stays appendable.
            let mut wal = Wal::open(&p).unwrap();
            assert_eq!(wal.len(), offset, "clean end, case: {name}");
            wal.append(b"appended-after-recovery").unwrap();
            wal.sync().unwrap();
            drop(wal);
            let recs = Wal::replay(&p).unwrap();
            let got: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
            let mut want = case.replay.to_vec();
            want.push(b"appended-after-recovery");
            assert_eq!(got, want, "post-recovery append, case: {name}");

            // Policy 2: a streaming reader waits on an incomplete frame and
            // fails on a torn one, wherever the bytes are cut.
            let (count, end) = case.stream;
            let want: Vec<Vec<u8>> = case.replay[..count].iter().map(|p| p.to_vec()).collect();
            let passed: usize = want.iter().map(|p| FRAME_HEADER + p.len()).sum();
            for cut in 0..=data.len() {
                let pieces = [&data[..cut], &data[cut..]];
                assert_eq!(through_frame_buf(&pieces), (want.clone(), end), "{name}, cut {cut}");
                let tailed = through_wal_tail(&p, &pieces);
                // The incomplete or torn rest stays unconsumed.
                assert_eq!(tailed, (want.clone(), end, passed as u64), "{name}, cut {cut}");
            }

            // Policy 3: the file store surfaces a torn record once and
            // goes on behind it; an incomplete one ends the scan cleanly.
            let dir = p.with_extension("fs");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("seg-00000000.qfs"), &data).unwrap();
            let scanned: Vec<Option<Vec<u8>>> = FileStore::open(&dir)
                .unwrap()
                .scan()
                .unwrap()
                .map(|r| match r {
                    Ok(record) => Some(record),
                    Err(StorageError::Corrupt(_)) => None,
                    Err(e) => panic!("{name}: {e}"),
                })
                .collect();
            let want: Vec<Option<Vec<u8>>> =
                case.scan.iter().map(|r| r.map(<[u8]>::to_vec)).collect();
            assert_eq!(scanned, want, "scan, case: {name}");
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_file(&p).unwrap();
        }

        // An oversized length prefix is refused on its four bytes alone,
        // before a single byte of the payload it promises has arrived.
        assert_eq!(
            decode_frame(&u32::MAX.to_le_bytes(), CAP),
            Err(Torn::Oversized { len: u32::MAX as usize, cap: CAP })
        );
        assert_eq!(decode_frame(&(CAP as u32).to_le_bytes(), CAP), Ok(None));
    }

    #[test]
    fn frame_crc_differs_from_payload_crc_and_detects_zero_frames() {
        // A zero-length payload must NOT checksum to zero under frame_crc —
        // that is precisely what makes zero-filled tails detectable.
        assert_eq!(crc32(b""), 0);
        assert_ne!(frame_crc(b""), 0);
        // And the length prefix is covered: same payload, different frame
        // CRC than raw payload CRC.
        assert_ne!(frame_crc(b"abc"), crc32(b"abc"));
    }

    /// The real filesystem with every read counted (test-only:
    /// `FaultBackend` counts mutating operations, not reads).
    #[derive(Debug, Clone, Default)]
    struct ReadCounter {
        /// Whole-file `read` calls.
        whole_reads: Arc<AtomicU64>,
        /// Bytes read, by `read` and through `read_at` alike.
        bytes: Arc<AtomicU64>,
    }

    struct CountedFile(Box<dyn BackendFile>, Arc<AtomicU64>);

    impl Write for CountedFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    impl BackendFile for CountedFile {
        fn sync_data(&mut self) -> io::Result<()> {
            self.0.sync_data()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.0.truncate(len)
        }
        fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
            self.0.write_at(offset, buf)
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            self.1.fetch_add(buf.len() as u64, Ordering::Relaxed);
            self.0.read_at(offset, buf)
        }
        fn file_len(&mut self) -> io::Result<u64> {
            self.0.file_len()
        }
    }

    impl StorageBackend for ReadCounter {
        fn open_append(&self, path: &Path, to: u64) -> io::Result<Box<dyn BackendFile>> {
            RealBackend.open_append(path, to)
        }
        fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
            RealBackend.create_new(path)
        }
        fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
            Ok(Box::new(CountedFile(RealBackend.open_rw(path)?, Arc::clone(&self.bytes))))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let data = RealBackend.read(path)?;
            self.whole_reads.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
            Ok(data)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealBackend.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealBackend.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealBackend.create_dir_all(path)
        }
        fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
            RealBackend.list_dir(path)
        }
    }

    /// A poll costs what is new in the log — nothing, when nothing is —
    /// however long the log is; and the tail's other answers are as they
    /// were when every poll read the whole file.
    #[test]
    fn an_idle_tail_reads_nothing_and_new_frames_cost_their_own_bytes() {
        let p = tmp("tail");
        let _ = std::fs::remove_file(&p);
        let reads = ReadCounter::default();
        let bytes_read = || reads.bytes.load(Ordering::Relaxed);
        let mut tail = WalTail::new(Arc::new(reads.clone()), &p, 0, CAP);
        // Missing file reads as empty.
        assert_eq!(tail.poll().unwrap(), TailPoll::Idle);

        let mut wal = Wal::open(&p).unwrap();
        for i in 0..1000 {
            wal.append(format!("record {i:04}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        let mut drained = Vec::new();
        while let TailPoll::Frames(run) = tail.poll().unwrap() {
            drained.extend(payloads(run).iter().map(|p| p.to_vec()));
        }
        assert_eq!(drained.len(), 1000);
        assert_eq!(drained[999], b"record 0999");
        assert_eq!(tail.offset(), wal.len());
        assert_eq!(bytes_read(), wal.len(), "the drain read the log once");

        // Idle: a hundred polls of an unchanged log read not one byte.
        for _ in 0..100 {
            assert_eq!(tail.poll().unwrap(), TailPoll::Idle);
        }
        assert_eq!(bytes_read(), wal.len());

        // k new frames cost exactly their bytes, and arrive as one run.
        let before = (wal.len(), bytes_read());
        for payload in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(payload).unwrap();
        }
        // Appended-but-unflushed bytes are invisible; after a flush the
        // tail picks them up from its cursor.
        assert_eq!(tail.poll().unwrap(), TailPoll::Idle);
        wal.flush().unwrap();
        let TailPoll::Frames(run) = tail.poll().unwrap() else { panic!("expected frames") };
        assert_eq!(payloads(run), [b"alpha".as_slice(), b"beta", b"gamma"]);
        assert_eq!(run.len() as u64, wal.len() - before.0);
        assert_eq!(bytes_read() - before.1, wal.len() - before.0);
        assert_eq!(tail.offset(), wal.len());

        // Truncation (a checkpoint) leaves the cursor alone; the caller
        // renegotiates with seek.
        wal.reset().unwrap();
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        tail.seek(0);
        wal.append(b"delta").unwrap();
        wal.sync().unwrap();
        let TailPoll::Frames(run) = tail.poll().unwrap() else { panic!("expected frames") };
        assert_eq!(payloads(run), [b"delta".as_slice()]);
        drop(wal);

        // A half-flushed trailing frame is idle, is not read again while
        // it stays half, and completes without re-reading what came before.
        let frame = framed(b"epsilon, in two halves");
        let (first, second) = frame.split_at(11);
        let mut file = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        let before = bytes_read();
        file.write_all(first).unwrap();
        for _ in 0..3 {
            assert_eq!(tail.poll().unwrap(), TailPoll::Idle);
        }
        assert_eq!(bytes_read() - before, first.len() as u64);
        file.write_all(second).unwrap();
        let TailPoll::Frames(run) = tail.poll().unwrap() else { panic!("expected frames") };
        assert_eq!(payloads(run), [b"epsilon, in two halves".as_slice()]);
        assert_eq!(bytes_read() - before, frame.len() as u64);
        assert_eq!(reads.whole_reads.load(Ordering::Relaxed), 0, "a tail never reads a whole file");
        std::fs::remove_file(&p).unwrap();
    }

    /// Opening a database scans its log once — recovery hands the clean
    /// end it found to the `Wal` it opens — and still trims a torn tail
    /// with the one `open_append` it always made.
    #[test]
    fn database_open_reads_the_log_once_and_still_trims_a_torn_tail() {
        use crate::structured::{Column, Database, TableSchema};
        use crate::value::{DataType, Value};
        let p = tmp("open-once");
        let _ = std::fs::remove_file(&p);
        {
            let db = Database::open(&p).unwrap();
            let columns = vec![Column::new("id", DataType::Int)];
            db.create_table(TableSchema::new("t", columns, &["id"], &[]).unwrap()).unwrap();
            let tx = db.begin();
            for i in 0..997 {
                db.insert(tx, "t", vec![Value::Int(i)]).unwrap();
            }
            db.commit(tx).unwrap();
        }
        assert_eq!(Wal::replay(&p).unwrap().len(), 1000);
        let clean = std::fs::metadata(&p).unwrap().len();
        let mut file = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        file.write_all(&framed(b"a frame cut short")[..12]).unwrap();

        let reads = ReadCounter::default();
        let ops = FaultBackend::recording(reads.clone());
        let db = Database::open_with(Arc::new(ops.clone()), &p).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 997);
        assert_eq!(reads.whole_reads.load(Ordering::Relaxed), 1, "one scan of the log");
        assert_eq!(reads.bytes.load(Ordering::Relaxed), clean + 12);
        let trims: Vec<Op> =
            ops.ops().into_iter().filter(|op| matches!(op, Op::Truncate { .. })).collect();
        assert_eq!(trims, [Op::Truncate { path: p.clone(), len: clean }]);
        assert_eq!((db.wal_len(), std::fs::metadata(&p).unwrap().len()), (clean, clean));
        std::fs::remove_file(&p).unwrap();
    }

    proptest! {
        #[test]
        fn prop_replay_returns_exactly_what_was_appended(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..20)
        ) {
            let p = tmp("prop");
            let _ = std::fs::remove_file(&p);
            {
                let mut wal = Wal::open(&p).unwrap();
                for pl in &payloads {
                    wal.append(pl).unwrap();
                }
                wal.sync().unwrap();
            }
            let recs = Wal::replay(&p).unwrap();
            prop_assert_eq!(recs.len(), payloads.len());
            for (r, pl) in recs.iter().zip(&payloads) {
                prop_assert_eq!(r, pl);
            }
            std::fs::remove_file(&p).unwrap();
        }

        /// Frames cut at arbitrary boundaries come out of both streaming
        /// readers whole and in order; with one bit flipped anywhere, the
        /// frames before the damage come out and then the reader fails.
        #[test]
        fn prop_streaming_readers_yield_the_frames_or_the_clean_prefix_then_torn(
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..CAP), 1..12),
            cuts in proptest::collection::vec(0usize..1000, 0..6),
            flip in 0usize..100_000,
        ) {
            let stream: Vec<u8> = frames.iter().flat_map(|payload| framed(payload)).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.sort_unstable();
            let pieces = |bytes: &[u8]| -> Vec<Vec<u8>> {
                let mut bounds = vec![0];
                bounds.extend(&cuts);
                bounds.push(bytes.len());
                bounds.windows(2).map(|w| bytes[w[0]..w[1]].to_vec()).collect()
            };
            let p = tmp("prop-stream");

            let whole = pieces(&stream);
            let whole: Vec<&[u8]> = whole.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(through_frame_buf(&whole), (frames.clone(), End::Waits));
            prop_assert_eq!(through_wal_tail(&p, &whole), (frames.clone(), End::Waits, stream.len() as u64));

            // One flipped bit lies in exactly one frame, which every
            // frame before it precedes whole. (A flip in a length prefix
            // may also read as a frame that never completes: then the
            // reader waits instead — but never yields a damaged frame.)
            let mut damaged = stream.clone();
            let bit = flip % (stream.len() * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
            let mut end_of = 0;
            let clean = frames.iter().take_while(|payload| {
                end_of += FRAME_HEADER + payload.len();
                end_of <= bit / 8
            });
            let clean: Vec<Vec<u8>> = clean.cloned().collect();
            let torn = pieces(&damaged);
            let torn: Vec<&[u8]> = torn.iter().map(Vec::as_slice).collect();
            let (got, end) = through_frame_buf(&torn);
            prop_assert_eq!(&got, &clean);
            let in_prefix = bit / 8 - clean.iter().map(|p| FRAME_HEADER + p.len()).sum::<usize>() < 4;
            prop_assert!(end == End::Torn || in_prefix, "a damaged frame was waited on");
            let (got, tail_end, _) = through_wal_tail(&p, &torn);
            prop_assert_eq!(&got, &clean);
            prop_assert_eq!(tail_end, end);
            let _ = std::fs::remove_file(&p);
        }
    }
}
