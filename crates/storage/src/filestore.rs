//! Append-only segment store for intermediate structured data.
//!
//! The blueprint observes that the system "often executes only sequential
//! reads and writes over intermediate structured data, in which case such
//! data can best be kept in the file systems". This store is that device:
//! records append to a current segment file; segments seal at a size
//! threshold; reads are whole-store sequential scans. No indexes, no updates
//! — by design.
//!
//! Records are WAL frames, written and read by the one codec in
//! [`crate::wal`], so torn and zero-filled tails are detected on scan;
//! what this store adds is its policy for them (see [`Scan`]). All file
//! I/O goes through a [`StorageBackend`] so fault-injection tests cover
//! this store too.

use crate::error::StorageError;
use crate::faultfs::{BackendFile, RealBackend, StorageBackend};
use crate::wal::{decode_frame, encode_frame, Torn};
use crate::Result;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An append-only, segmented record store rooted at a directory.
pub struct FileStore {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
    segment_bytes: u64,
    current: Option<BufWriter<Box<dyn BackendFile>>>,
    current_len: u64,
    current_id: u64,
    records_written: u64,
    /// Reused frame-assembly buffer.
    scratch: Vec<u8>,
}

impl FileStore {
    /// Default segment size: 4 MiB.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

    /// Open a store rooted at `dir`, creating the directory if needed.
    /// Appending resumes in a fresh segment after the highest existing one.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore> {
        Self::with_segment_bytes(dir, Self::DEFAULT_SEGMENT_BYTES)
    }

    /// Open with a custom segment-seal threshold (useful in tests).
    pub fn with_segment_bytes(dir: impl AsRef<Path>, segment_bytes: u64) -> Result<FileStore> {
        Self::open_with(Arc::new(RealBackend), dir, segment_bytes)
    }

    /// Open against an explicit storage backend.
    pub fn open_with(
        backend: Arc<dyn StorageBackend>,
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> Result<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        backend.create_dir_all(&dir)?;
        let next_id = Self::segment_ids(&*backend, &dir)?.last().map(|id| id + 1).unwrap_or(0);
        Ok(FileStore {
            dir,
            backend,
            segment_bytes: segment_bytes.max(1),
            current: None,
            current_len: 0,
            current_id: next_id,
            records_written: 0,
            scratch: Vec::new(),
        })
    }

    fn segment_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("seg-{id:08}.qfs"))
    }

    fn segment_ids(backend: &dyn StorageBackend, dir: &Path) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for name in backend.list_dir(dir)? {
            if let Some(rest) = name.strip_prefix("seg-").and_then(|n| n.strip_suffix(".qfs")) {
                if let Ok(id) = rest.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Append one record. Seals the current segment first if it is full.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        encode_frame(&mut frame, payload)?;
        let w = match &mut self.current {
            Some(w) if self.current_len < self.segment_bytes => w,
            _ => self.roll()?,
        };
        w.write_all(&frame)?;
        self.current_len += frame.len() as u64;
        self.records_written += 1;
        self.scratch = frame;
        Ok(())
    }

    /// Seal the current segment, if any, and start the next one.
    fn roll(&mut self) -> Result<&mut BufWriter<Box<dyn BackendFile>>> {
        if let Some(mut w) = self.current.take() {
            w.flush()?;
        }
        let path = Self::segment_path(&self.dir, self.current_id);
        let file = self.backend.create_new(&path)?;
        self.current_len = 0;
        self.current_id += 1;
        Ok(self.current.insert(BufWriter::new(file)))
    }

    /// Flush and fsync the active segment.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(w) = self.current.as_mut() {
            w.flush()?;
            w.get_mut().sync_data()?;
        }
        Ok(())
    }

    /// Records appended through this handle's lifetime.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Sequentially scan every record in the store, oldest segment first.
    ///
    /// Buffers pending writes first so a scan sees everything appended.
    pub fn scan(&mut self) -> Result<Scan> {
        if let Some(w) = self.current.as_mut() {
            w.flush()?;
        }
        let ids = Self::segment_ids(&*self.backend, &self.dir)?;
        Ok(Scan {
            backend: Arc::clone(&self.backend),
            dir: self.dir.clone(),
            ids,
            next_segment: 0,
            segment: None,
        })
    }

    /// Number of sealed + active segments on disk.
    pub fn segment_count(&self) -> Result<usize> {
        Ok(Self::segment_ids(&*self.backend, &self.dir)?.len())
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.dir)
            .field("records_written", &self.records_written)
            .finish()
    }
}

/// Iterator over all records of a [`FileStore`].
///
/// Policy over the frame decoder: an incomplete frame is the torn tail of
/// the final segment and ends the scan cleanly; a frame that is all there
/// but fails its checksum surfaces as one error, and the scan goes on
/// behind it.
pub struct Scan {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
    ids: Vec<u64>,
    next_segment: usize,
    segment: Option<(Vec<u8>, usize)>,
}

impl Scan {
    fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            let (data, pos) = match &mut self.segment {
                Some(segment) => segment,
                None => {
                    let Some(&id) = self.ids.get(self.next_segment) else {
                        return Ok(None);
                    };
                    self.next_segment += 1;
                    // Segments seal at a few MiB, so reading one whole keeps
                    // the scan simple and lets any backend serve it.
                    let data = self.backend.read(&FileStore::segment_path(&self.dir, id))?;
                    self.segment.insert((data, 0))
                }
            };
            let rest = data.get(*pos..).unwrap_or_default();
            if rest.is_empty() {
                self.segment = None; // clean end of segment
                continue;
            }
            // No cap: the segment's own length bounds what a prefix can claim.
            match decode_frame(rest, usize::MAX) {
                Ok(Some((payload, consumed))) => {
                    let record = payload.to_vec();
                    *pos += consumed;
                    return Ok(Some(record));
                }
                Err(Torn::Checksum { frame }) => {
                    *pos += frame;
                    return Err(StorageError::Corrupt("filestore record checksum".into()));
                }
                Ok(None) | Err(Torn::Oversized { .. }) => {
                    self.segment = None;
                    self.next_segment = self.ids.len();
                    return Ok(None);
                }
            }
        }
    }
}

impl Iterator for Scan {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quarry-fs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut fsr = FileStore::open(&dir).unwrap();
        for i in 0..100u32 {
            fsr.append(format!("record {i}").as_bytes()).unwrap();
        }
        let got: Vec<String> =
            fsr.scan().unwrap().map(|r| String::from_utf8(r.unwrap()).unwrap()).collect();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0], "record 0");
        assert_eq!(got[99], "record 99");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_threshold() {
        let dir = tmpdir("roll");
        let mut fsr = FileStore::with_segment_bytes(&dir, 64).unwrap();
        for _ in 0..20 {
            fsr.append(&[0u8; 32]).unwrap();
        }
        assert!(fsr.segment_count().unwrap() > 3);
        let n = fsr.scan().unwrap().count();
        assert_eq!(n, 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends_into_new_segment() {
        let dir = tmpdir("reopen");
        {
            let mut fsr = FileStore::open(&dir).unwrap();
            fsr.append(b"first run").unwrap();
            fsr.sync().unwrap();
        }
        let mut fsr = FileStore::open(&dir).unwrap();
        fsr.append(b"second run").unwrap();
        let got: Vec<Vec<u8>> = fsr.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, [b"first run".to_vec(), b"second run".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_scans_empty() {
        let dir = tmpdir("empty");
        let mut fsr = FileStore::open(&dir).unwrap();
        assert_eq!(fsr.scan().unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    // What a scan makes of damaged segments is a column of the one
    // corruption table, `wal::tests::frame_corruption_table`.

    #[test]
    fn records_written_counter() {
        let dir = tmpdir("counter");
        let mut fsr = FileStore::open(&dir).unwrap();
        fsr.append(b"a").unwrap();
        fsr.append(b"b").unwrap();
        assert_eq!(fsr.records_written(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
