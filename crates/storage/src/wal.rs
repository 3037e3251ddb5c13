//! Checksummed write-ahead log.
//!
//! Framing: every record is `[len: u32 LE][crc32: u32 LE][payload]`, where
//! the checksum covers the *length prefix and the payload* (see
//! [`frame_crc`]). Covering the length matters: `crc32(b"") == 0`, so a
//! payload-only checksum would let a zero-filled tail (pre-allocated or
//! partially-written blocks full of `\0`) replay as an endless run of valid
//! empty records. Replay stops at the first frame whose length runs past
//! EOF or whose checksum fails — the torn tail of a crashed write — and
//! reports how many clean records preceded it. The structured store layers
//! transaction semantics on top (see [`crate::structured::recovery`]); this
//! module knows only bytes.
//!
//! All file I/O goes through a [`StorageBackend`] (see [`crate::faultfs`]),
//! so tests can inject deterministic crashes; [`Wal::open`] and
//! [`Wal::replay`] default to the real filesystem.
//!
//! # Durability contract
//!
//! [`Wal::append`] only buffers: after it returns, the frame may live
//! entirely in the process's `BufWriter` and is lost on a crash.
//! [`Wal::sync`] is the durability boundary — it flushes the buffer to the
//! file *and* calls `File::sync_data`, so once `sync` returns, every
//! previously appended frame survives both process death and OS/power
//! failure (to the extent the disk honors flush commands). `sync_data` is
//! deliberate: frame data must be on stable storage, but file metadata such
//! as the modification time need not be, and skipping the metadata journal
//! write makes the commit fsync cheaper. The structured engine syncs once
//! per commit/DDL record, never per operation. The checksum
//! framing makes a torn final frame detectable, so a crash *between*
//! `append` and `sync` never corrupts the clean prefix — replay simply
//! truncates the tail at the last record whose CRC verifies.

use crate::error::StorageError;
use crate::faultfs::{BackendFile, RealBackend, StorageBackend};
use crate::Result;
use bytes::Bytes;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at compile
/// time: `CRC_TABLES[0]` is the classic byte-at-a-time table and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advance a raw (un-inverted) CRC state over `data`, eight bytes per step
/// and the last `len % 8` one at a time.
fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = w else { continue };
        let lo = state ^ u32::from_le_bytes([b0, b1, b2, b3]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b4 as usize]
            ^ t[2][b5 as usize]
            ^ t[1][b6 as usize]
            ^ t[0][b7 as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE), implemented from scratch: the one checksum routine of
/// the crate, shared by pages, WAL frames and the wire protocol.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_feed(0xFFFF_FFFF, data)
}

/// Frame checksum: CRC-32 over the record's 4-byte LE length prefix
/// followed by the payload. Including the length makes a zero-filled region
/// fail verification (`crc32` of an empty payload alone is 0, which is
/// exactly what uninitialized blocks contain).
pub fn frame_crc(payload: &[u8]) -> u32 {
    let len = (payload.len() as u32).to_le_bytes();
    !crc32_feed(crc32_feed(0xFFFF_FFFF, &len), payload)
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset of the record's frame in the log file.
    pub offset: u64,
    /// Record payload.
    pub payload: Bytes,
}

/// How much durability a commit buys before it returns. Mirrors the
/// classic FULL / NORMAL / DEFERRED ladder (see `docs/storage.md` for the
/// full contract table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Every commit flushes *and* fsyncs the log before returning.
    /// Survives OS/power failure.
    #[default]
    Full,
    /// Every commit flushes the log to the OS but skips the fsync.
    /// Survives process death; an OS/power failure may lose the tail.
    Normal,
    /// Commits only buffer in the process. Fastest; a crash may lose
    /// everything since the last explicit sync/checkpoint.
    Deferred,
}

/// An append-only log file.
pub struct Wal {
    path: PathBuf,
    backend: Arc<dyn StorageBackend>,
    writer: BufWriter<Box<dyn BackendFile>>,
    offset: u64,
    /// Reused frame-assembly buffer so `append` allocates nothing in
    /// steady state.
    scratch: Vec<u8>,
}

impl Wal {
    /// Open (creating if needed) a log at `path`, positioned for appending
    /// after the last *clean* record. Any torn tail is truncated away.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Self::open_with(Arc::new(RealBackend), path)
    }

    /// [`Wal::open`] against an explicit storage backend.
    pub fn open_with(backend: Arc<dyn StorageBackend>, path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let records = Self::replay_with(&*backend, &path)?;
        let clean_end = records.last().map(|r| r.offset + 8 + r.payload.len() as u64).unwrap_or(0);
        let file = backend.open_append(&path, clean_end)?;
        Ok(Wal {
            path,
            backend,
            writer: BufWriter::new(file),
            offset: clean_end,
            scratch: Vec::new(),
        })
    }

    /// Append one record; returns its frame offset. Data is buffered — call
    /// [`Wal::sync`] to force it to the OS/file.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let offset = self.offset;
        self.scratch.clear();
        self.scratch.reserve(8 + payload.len());
        self.scratch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch.extend_from_slice(&frame_crc(payload).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        self.writer.write_all(&self.scratch)?;
        self.offset += self.scratch.len() as u64;
        Ok(offset)
    }

    /// Flush buffered frames to the OS *without* an fsync (the
    /// [`DurabilityMode::Normal`] commit boundary).
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flush buffered frames and fsync the file.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_mut().sync_data()?;
        Ok(())
    }

    /// Current append offset (= file length after sync).
    pub fn len(&self) -> u64 {
        self.offset
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every clean record from a log file (no `Wal` instance needed).
    /// A missing file replays as empty. Corruption mid-file ends the replay
    /// at the last clean record rather than erroring: that is exactly the
    /// crash-recovery contract.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        Self::replay_with(&RealBackend, path)
    }

    /// [`Wal::replay`] against an explicit storage backend.
    pub fn replay_with(
        backend: &dyn StorageBackend,
        path: impl AsRef<Path>,
    ) -> Result<Vec<WalRecord>> {
        let data = match backend.read(path.as_ref()) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= data.len() {
            // quarry-audit: allow(QA101, reason = "try_into from a 4-byte slice into [u8; 4] cannot fail")
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            // quarry-audit: allow(QA101, reason = "try_into from a 4-byte slice into [u8; 4] cannot fail")
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = match start.checked_add(len) {
                Some(e) if e <= data.len() => e,
                _ => break, // torn length / truncated payload
            };
            let payload = &data[start..end];
            if frame_crc(payload) != crc {
                break; // torn or corrupted payload
            }
            records
                .push(WalRecord { offset: pos as u64, payload: Bytes::copy_from_slice(payload) });
            pos = end;
        }
        Ok(records)
    }

    /// Truncate the log to zero length (e.g. after a checkpoint).
    pub fn reset(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_mut().truncate(0)?;
        self.offset = 0;
        Ok(())
    }

    /// The storage backend this log writes through.
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }
}

/// Parse every *complete* frame out of `buf`, whose first byte sits at
/// absolute log offset `base`. Returns the parsed records plus the number
/// of bytes consumed; an incomplete or torn trailing frame is left
/// unconsumed so a streaming caller can retry once more bytes arrive.
/// Unlike [`Wal::replay_with`], a CRC mismatch is an *error* here — a
/// tail reader only ever sees bytes below the committed watermark, where
/// corruption means a damaged log, not an in-progress write.
pub fn parse_frames(buf: &[u8], base: u64) -> Result<(Vec<WalRecord>, usize)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= buf.len() {
        // quarry-audit: allow(QA101, reason = "try_into from a 4-byte slice into [u8; 4] cannot fail")
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        // quarry-audit: allow(QA101, reason = "try_into from a 4-byte slice into [u8; 4] cannot fail")
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= buf.len() => e,
            _ => break, // incomplete trailing frame: wait for more bytes
        };
        let payload = &buf[start..end];
        if frame_crc(payload) != crc {
            return Err(StorageError::Corrupt(format!(
                "wal frame at offset {} fails checksum",
                base + pos as u64
            )));
        }
        records.push(WalRecord {
            offset: base + pos as u64,
            payload: Bytes::copy_from_slice(payload),
        });
        pos = end;
    }
    Ok((records, pos))
}

/// What one [`WalTail::poll`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailPoll {
    /// New complete frames past the cursor; the cursor has advanced.
    Records(Vec<WalRecord>),
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
/// The tail reads through the same [`StorageBackend`] as the writer, so
/// under fault injection it observes exactly the bytes a crash would
/// leave behind — and, because backend *reads* are not crash points, the
/// act of tailing never perturbs the recorded operation stream. A torn
/// or incomplete trailing frame (an append racing the poll, or a commit
/// not yet flushed) simply reads as [`TailPoll::Idle`]; only complete
/// CRC-valid frames are handed out.
pub struct WalTail {
    backend: Arc<dyn StorageBackend>,
    path: PathBuf,
    offset: u64,
}

impl WalTail {
    /// A tail over the log at `path`, starting at byte offset `start`.
    pub fn new(backend: Arc<dyn StorageBackend>, path: impl AsRef<Path>, start: u64) -> WalTail {
        WalTail { backend, path: path.as_ref().to_path_buf(), offset: start }
    }

    /// Current cursor position (byte offset of the next unread frame).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Move the cursor (after a truncation / epoch change).
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Read any complete frames past the cursor. A missing file counts as
    /// empty (length 0): before the first commit the log may not exist.
    pub fn poll(&mut self) -> Result<TailPoll> {
        let data = match self.backend.read(&self.path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if (data.len() as u64) < self.offset {
            return Ok(TailPoll::Truncated);
        }
        let (records, consumed) = parse_frames(&data[self.offset as usize..], self.offset)?;
        if records.is_empty() {
            return Ok(TailPoll::Idle);
        }
        self.offset += consumed as u64;
        Ok(TailPoll::Records(records))
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).field("offset", &self.offset).finish()
    }
}

/// Fail the build if we forget the error type grows non-Send.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<StorageError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The bit-at-a-time definition of the checksum, with no table at all.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// Slicing-by-8 takes eight bytes a step and finishes the tail bytewise;
    /// every length around those boundaries, at every alignment of the
    /// slice's start, must equal the reference — as must whole pages.
    #[test]
    fn crc32_slicing_equals_the_bitwise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect()
        };
        let buf = noise(8 + 64);
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_reference(s), "offset {offset}, length {len}");
            }
        }
        for _ in 0..16 {
            let page = noise(4096);
            assert_eq!(crc32(&page), crc32_reference(&page));
            assert_eq!(crc32(&page[4..]), crc32_reference(&page[4..]));
        }
        // Feeding in two parts (as `frame_crc` does) equals feeding at once.
        let payload = noise(37);
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        assert_eq!(frame_crc(&payload), crc32_reference(&framed));
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
        assert_eq!(&recs[0].payload[..], b"one");
        assert_eq!(&recs[1].payload[..], b"two");
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
        let payloads: Vec<_> = recs.iter().map(|r| r.payload.clone()).collect();
        assert_eq!(payloads, vec![Bytes::from("alpha"), Bytes::from("beta"), Bytes::from("gamma")]);
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
        assert_eq!(&recs[0].payload[..], b"first");
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
        assert_eq!(&recs[0].payload[..], b"y");
        std::fs::remove_file(&p).unwrap();
    }

    /// Table-driven corruption suite: each case mutates a three-record log
    /// (`alpha`, `beta`, `gamma`) and states exactly which prefix of
    /// records must survive replay.
    #[test]
    fn replay_corruption_table() {
        struct Case {
            name: &'static str,
            // Given the clean log bytes and each frame's start offset,
            // produce the corrupted bytes.
            mutate: fn(Vec<u8>, &[usize]) -> Vec<u8>,
            surviving: &'static [&'static [u8]],
        }
        let cases: &[Case] = &[
            Case {
                name: "truncated length prefix (2 of 4 length bytes)",
                mutate: |mut data, frames| {
                    data.truncate(frames[2] + 2);
                    data
                },
                surviving: &[b"alpha", b"beta"],
            },
            Case {
                name: "truncated payload (header intact, payload cut short)",
                mutate: |mut data, frames| {
                    data.truncate(frames[2] + 8 + 2);
                    data
                },
                surviving: &[b"alpha", b"beta"],
            },
            Case {
                name: "bad CRC mid-log stops replay at the damage",
                mutate: |mut data, frames| {
                    data[frames[1] + 8] ^= 0xFF;
                    data
                },
                surviving: &[b"alpha"],
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
                surviving: &[b"alpha"],
            },
            Case {
                name: "zero-filled tail parses as no records",
                mutate: |mut data, frames| {
                    data.truncate(frames[1]);
                    data.extend_from_slice(&[0u8; 64]);
                    data
                },
                surviving: &[b"alpha"],
            },
            Case {
                name: "entirely zero-filled log parses as empty",
                mutate: |_, _| vec![0u8; 128],
                surviving: &[],
            },
        ];

        for (i, case) in cases.iter().enumerate() {
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
            std::fs::write(&p, (case.mutate)(clean, &frames)).unwrap();
            let recs = Wal::replay(&p).unwrap();
            let got: Vec<&[u8]> = recs.iter().map(|r| &r.payload[..]).collect();
            assert_eq!(got, case.surviving, "case: {}", case.name);

            // Re-opening must agree: the log is truncated to the surviving
            // prefix and stays appendable.
            let mut wal = Wal::open(&p).unwrap();
            wal.append(b"appended-after-recovery").unwrap();
            wal.sync().unwrap();
            drop(wal);
            let recs = Wal::replay(&p).unwrap();
            let got: Vec<&[u8]> = recs.iter().map(|r| &r.payload[..]).collect();
            let mut want = case.surviving.to_vec();
            want.push(b"appended-after-recovery");
            assert_eq!(got, want, "post-recovery append, case: {}", case.name);
            std::fs::remove_file(&p).unwrap();
        }
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

    #[test]
    fn parse_frames_consumes_whole_frames_and_leaves_the_tail() {
        let mut buf = Vec::new();
        for payload in [b"one".as_slice(), b"two"] {
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&frame_crc(payload).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        let whole = buf.len();
        // A half-written third frame: header plus a short payload.
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&frame_crc(b"0123456789").to_le_bytes());
        buf.extend_from_slice(b"0123");
        let (records, consumed) = parse_frames(&buf, 100).unwrap();
        assert_eq!(consumed, whole, "incomplete tail must stay unconsumed");
        let payloads: Vec<_> = records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, vec![b"one".as_slice(), b"two"]);
        assert_eq!(records[0].offset, 100);
        assert_eq!(records[1].offset, 100 + 8 + 3);
        // Corruption below the committed watermark is an error, not a
        // silent stop: a tail reader only ever sees committed bytes.
        let mut bad = buf[..whole].to_vec();
        bad[8] ^= 0xFF;
        assert!(matches!(parse_frames(&bad, 0), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn wal_tail_streams_frames_and_reports_truncation() {
        let p = tmp("tail");
        let _ = std::fs::remove_file(&p);
        let backend: Arc<dyn StorageBackend> = Arc::new(RealBackend);
        let mut tail = WalTail::new(Arc::clone(&backend), &p, 0);
        // Missing file reads as empty.
        assert_eq!(tail.poll().unwrap(), TailPoll::Idle);

        let mut wal = Wal::open(&p).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        wal.sync().unwrap();
        let TailPoll::Records(recs) = tail.poll().unwrap() else { panic!("expected records") };
        assert_eq!(recs.len(), 2);
        assert_eq!(tail.offset(), wal.len());
        assert_eq!(tail.poll().unwrap(), TailPoll::Idle);

        // Appended-but-unflushed bytes are invisible; after a flush the
        // tail picks them up from its cursor.
        wal.append(b"gamma").unwrap();
        wal.flush().unwrap();
        let TailPoll::Records(recs) = tail.poll().unwrap() else { panic!("expected records") };
        assert_eq!(&recs[0].payload[..], b"gamma");

        // Truncation (a checkpoint) leaves the cursor alone; the caller
        // renegotiates with seek.
        wal.reset().unwrap();
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        tail.seek(0);
        wal.append(b"delta").unwrap();
        wal.sync().unwrap();
        let TailPoll::Records(recs) = tail.poll().unwrap() else { panic!("expected records") };
        assert_eq!(&recs[0].payload[..], b"delta");
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
                prop_assert_eq!(&r.payload[..], &pl[..]);
            }
            std::fs::remove_file(&p).unwrap();
        }
    }
}
