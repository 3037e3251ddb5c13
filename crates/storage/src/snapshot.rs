//! Subversion-style versioned document store.
//!
//! Daily crawl snapshots of the same pages overlap heavily, so storing each
//! version in full wastes space roughly linear in the number of days. This
//! store keeps a *keyframe* every `keyframe_interval` versions and a line
//! [`Delta`](crate::delta::Delta) for every other version, reconstructing any
//! requested version by replaying deltas forward from the nearest keyframe —
//! bounding both space (diff-sized) and read cost (≤ interval replays).

use crate::codec;
use crate::delta::{self, Delta, DeltaOp};
use crate::error::StorageError;
use crate::faultfs::StorageBackend;
use crate::Result;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Magic prefix of the snapshot image format.
const SNAP_MAGIC: &[u8; 4] = b"QSN1";

#[derive(Debug, Clone)]
enum StoredVersion {
    Full(String),
    Delta(Delta),
}

impl StoredVersion {
    fn stored_bytes(&self) -> usize {
        match self {
            StoredVersion::Full(s) => s.len(),
            StoredVersion::Delta(d) => d.encoded_size(),
        }
    }
}

/// Space accounting for the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Number of distinct documents tracked.
    pub documents: usize,
    /// Total versions across all documents.
    pub versions: usize,
    /// Bytes if every version were stored in full.
    pub logical_bytes: usize,
    /// Bytes actually stored (keyframes + deltas).
    pub stored_bytes: usize,
}

impl SnapshotStats {
    /// logical / stored; > 1 means the delta encoding is saving space.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.stored_bytes as f64
    }
}

/// Versioned store of documents keyed by string id.
///
/// ```
/// use quarry_storage::SnapshotStore;
///
/// let mut store = SnapshotStore::new(16);
/// store.put("page", "line one\nline two");
/// store.put("page", "line one\nline two\nline three");
/// assert_eq!(store.get("page", 0).unwrap(), "line one\nline two");
/// assert!(store.stats().stored_bytes <= store.stats().logical_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    keyframe_interval: usize,
    versions: HashMap<String, Vec<StoredVersion>>,
    /// Cache of each document's latest text, so appending a version does not
    /// require replaying its history.
    latest: HashMap<String, String>,
    logical_bytes: usize,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new(16)
    }
}

impl SnapshotStore {
    /// Create a store that keeps a full keyframe every `keyframe_interval`
    /// versions (1 = store everything in full, i.e. delta encoding off).
    pub fn new(keyframe_interval: usize) -> Self {
        assert!(keyframe_interval >= 1, "keyframe interval must be ≥ 1");
        SnapshotStore {
            keyframe_interval,
            versions: HashMap::new(),
            latest: HashMap::new(),
            logical_bytes: 0,
        }
    }

    /// Append a new version of `key`. Returns the version number (0-based).
    pub fn put(&mut self, key: &str, text: &str) -> usize {
        self.logical_bytes += text.len();
        let chain = self.versions.entry(key.to_string()).or_default();
        let version = chain.len();
        if version.is_multiple_of(self.keyframe_interval) {
            chain.push(StoredVersion::Full(text.to_string()));
        } else {
            let base = self.latest.get(key).map(String::as_str).unwrap_or("");
            let d = delta::diff(base, text);
            // A delta bigger than the text itself is a pessimization; fall
            // back to full storage for that version.
            if d.encoded_size() >= text.len() {
                chain.push(StoredVersion::Full(text.to_string()));
            } else {
                chain.push(StoredVersion::Delta(d));
            }
        }
        self.latest.insert(key.to_string(), text.to_string());
        version
    }

    /// Append one whole crawl snapshot: every `(key, text)` pair gets a new
    /// version.
    pub fn put_snapshot<'a>(&mut self, docs: impl IntoIterator<Item = (&'a str, &'a str)>) {
        for (key, text) in docs {
            self.put(key, text);
        }
    }

    /// Number of versions stored for `key` (0 if unknown).
    pub fn version_count(&self, key: &str) -> usize {
        self.versions.get(key).map_or(0, Vec::len)
    }

    /// Reconstruct a specific version of a document.
    pub fn get(&self, key: &str, version: usize) -> Result<String> {
        let chain = self
            .versions
            .get(key)
            .ok_or_else(|| StorageError::NotFound(format!("document {key}")))?;
        if version >= chain.len() {
            return Err(StorageError::NotFound(format!(
                "version {version} of {key} (have {})",
                chain.len()
            )));
        }
        // Find the nearest keyframe at or before `version`, then roll forward.
        let mut kf = version;
        while !matches!(chain[kf], StoredVersion::Full(_)) {
            kf -= 1; // version 0 is always Full, so this terminates
        }
        let mut text = match &chain[kf] {
            StoredVersion::Full(s) => s.clone(),
            // quarry-audit: allow(QA101, reason = "the loop above stops only on a Full keyframe")
            StoredVersion::Delta(_) => unreachable!(),
        };
        for sv in &chain[kf + 1..=version] {
            text = match sv {
                StoredVersion::Full(s) => s.clone(),
                StoredVersion::Delta(d) => delta::apply(d, &text).ok_or_else(|| {
                    StorageError::Corrupt(format!("delta chain broken for {key}"))
                })?,
            };
        }
        Ok(text)
    }

    /// The most recent version of a document, if any.
    pub fn latest(&self, key: &str) -> Option<&str> {
        self.latest.get(key).map(String::as_str)
    }

    /// All document keys, unordered.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.versions.keys().map(String::as_str)
    }

    /// Persist the whole store to `path` atomically: stream the binary image
    /// through a [`BufWriter`] into a sibling temp file, fsync it, then
    /// rename over the destination. A crash at any point leaves either the
    /// previous complete image or the new one — never a torn file (the
    /// rename is the commit point). Streaming means peak memory is one
    /// buffer, not a whole serialized copy of the store.
    pub fn save(&self, backend: &dyn StorageBackend, path: &Path) -> Result<()> {
        let tmp = path.with_extension("snap-tmp");
        let _ = backend.remove_file(&tmp); // stale temp from an earlier crash
        let f = backend.create_new(&tmp)?;
        let mut w = BufWriter::new(f);
        self.encode_into(&mut w)?;
        let mut f =
            w.into_inner().map_err(|e| StorageError::Io(std::io::Error::other(e.to_string())))?;
        f.sync_data()?;
        drop(f);
        backend.rename(&tmp, path)?;
        Ok(())
    }

    /// Write the binary image: magic, store parameters, then each document's
    /// version chain (documents sorted by key so the byte stream — and the
    /// fault-injection op stream — is deterministic).
    fn encode_into<W: Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(SNAP_MAGIC)?;
        codec::write_u64(w, self.keyframe_interval as u64)?;
        codec::write_u64(w, self.logical_bytes as u64)?;
        codec::write_u64(w, self.versions.len() as u64)?;
        let mut keys: Vec<&String> = self.versions.keys().collect();
        keys.sort();
        for key in keys {
            codec::write_str(w, key)?;
            let chain = &self.versions[key];
            codec::write_u64(w, chain.len() as u64)?;
            for sv in chain {
                match sv {
                    StoredVersion::Full(text) => {
                        w.write_all(&[0])?;
                        codec::write_str(w, text)?;
                    }
                    StoredVersion::Delta(d) => {
                        w.write_all(&[1])?;
                        codec::write_u64(w, d.ops.len() as u64)?;
                        for op in &d.ops {
                            match op {
                                DeltaOp::Copy { start, len } => {
                                    w.write_all(&[0])?;
                                    codec::write_u64(w, u64::from(*start))?;
                                    codec::write_u64(w, u64::from(*len))?;
                                }
                                DeltaOp::Insert(lines) => {
                                    w.write_all(&[1])?;
                                    codec::write_u64(w, lines.len() as u64)?;
                                    for line in lines {
                                        codec::write_str(w, line)?;
                                    }
                                }
                            }
                        }
                        w.write_all(&[u8::from(d.trailing_newline)])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Load a store persisted by [`SnapshotStore::save`]. A missing file is
    /// an empty store with the given interval (first boot). The pre-binary
    /// whole-store JSON image (starting with `{`) is refused by name.
    pub fn load(
        backend: &dyn StorageBackend,
        path: &Path,
        keyframe_interval: usize,
    ) -> Result<SnapshotStore> {
        let data = match backend.read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(SnapshotStore::new(keyframe_interval));
            }
            Err(e) => return Err(e.into()),
        };
        Self::decode(&data)
    }

    fn decode(data: &[u8]) -> Result<SnapshotStore> {
        if data.first() == Some(&b'{') {
            return Err(StorageError::Corrupt(
                "snapshot image looks like legacy JSON, which is no longer readable".into(),
            ));
        }
        if data.len() < SNAP_MAGIC.len() || &data[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(StorageError::Corrupt("snapshot image: bad magic".into()));
        }
        let pos = &mut SNAP_MAGIC.len();
        let keyframe_interval = codec::read_u64(data, pos)? as usize;
        if keyframe_interval == 0 {
            return Err(StorageError::Corrupt("snapshot image: zero keyframe interval".into()));
        }
        let logical_bytes = codec::read_u64(data, pos)? as usize;
        let ndocs = codec::read_u64(data, pos)? as usize;
        let mut versions = HashMap::new();
        for _ in 0..ndocs {
            let key = codec::read_str(data, pos)?;
            let nversions = codec::read_u64(data, pos)? as usize;
            let mut chain = Vec::with_capacity(nversions.min(1024));
            for _ in 0..nversions {
                chain.push(Self::decode_version(data, pos)?);
            }
            versions.insert(key, chain);
        }
        if *pos != data.len() {
            return Err(StorageError::Corrupt(format!(
                "snapshot image: {} trailing bytes",
                data.len() - *pos
            )));
        }
        let mut store =
            SnapshotStore { keyframe_interval, versions, latest: HashMap::new(), logical_bytes };
        // `latest` is derivable, so the image omits it; rebuild each entry by
        // reconstructing the newest version.
        let keys: Vec<String> = store.versions.keys().cloned().collect();
        for key in keys {
            let last = store.version_count(&key) - 1;
            let text = store.get(&key, last)?;
            store.latest.insert(key, text);
        }
        Ok(store)
    }

    fn decode_version(data: &[u8], pos: &mut usize) -> Result<StoredVersion> {
        let tag = codec::read_u64(data, pos)?;
        match tag {
            0 => Ok(StoredVersion::Full(codec::read_str(data, pos)?)),
            1 => {
                let nops = codec::read_u64(data, pos)? as usize;
                let mut ops = Vec::with_capacity(nops.min(1024));
                for _ in 0..nops {
                    match codec::read_u64(data, pos)? {
                        0 => {
                            let start = u32::try_from(codec::read_u64(data, pos)?)
                                .map_err(|_| StorageError::Corrupt("delta copy start".into()))?;
                            let len = u32::try_from(codec::read_u64(data, pos)?)
                                .map_err(|_| StorageError::Corrupt("delta copy len".into()))?;
                            ops.push(DeltaOp::Copy { start, len });
                        }
                        1 => {
                            let nlines = codec::read_u64(data, pos)? as usize;
                            let mut lines = Vec::with_capacity(nlines.min(1024));
                            for _ in 0..nlines {
                                lines.push(codec::read_str(data, pos)?);
                            }
                            ops.push(DeltaOp::Insert(lines));
                        }
                        t => {
                            return Err(StorageError::Corrupt(format!("delta op tag {t}")));
                        }
                    }
                }
                let trailing = codec::read_u64(data, pos)?;
                if trailing > 1 {
                    return Err(StorageError::Corrupt("trailing-newline flag".into()));
                }
                Ok(StoredVersion::Delta(Delta { ops, trailing_newline: trailing == 1 }))
            }
            t => Err(StorageError::Corrupt(format!("stored-version tag {t}"))),
        }
    }

    /// Space accounting.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            documents: self.versions.len(),
            versions: self.versions.values().map(Vec::len).sum(),
            logical_bytes: self.logical_bytes,
            stored_bytes: self
                .versions
                .values()
                .flat_map(|c| c.iter())
                .map(StoredVersion::stored_bytes)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = SnapshotStore::new(4);
        for day in 0..10 {
            s.put("madison", &format!("line one\nline two\nday {day}\nline four"));
        }
        for day in 0..10 {
            let text = s.get("madison", day).unwrap();
            assert!(text.contains(&format!("day {day}")));
        }
        assert_eq!(s.version_count("madison"), 10);
    }

    #[test]
    fn missing_document_and_version_error() {
        let mut s = SnapshotStore::default();
        assert!(matches!(s.get("nope", 0), Err(StorageError::NotFound(_))));
        s.put("a", "text");
        assert!(matches!(s.get("a", 1), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn overlapping_versions_compress() {
        let mut s = SnapshotStore::new(32);
        let base: String = (0..100).map(|i| format!("paragraph {i} of the page\n")).collect();
        for day in 0..30 {
            let text = format!("{base}edit of day {day}\n");
            s.put("page", &text);
        }
        let stats = s.stats();
        assert!(stats.compression_ratio() > 5.0, "ratio {}", stats.compression_ratio());
        // And contents are still exact.
        assert!(s.get("page", 17).unwrap().contains("edit of day 17"));
    }

    #[test]
    fn interval_one_disables_deltas() {
        let mut s = SnapshotStore::new(1);
        s.put("d", "aaaa\nbbbb");
        s.put("d", "aaaa\nbbbb");
        let stats = s.stats();
        assert_eq!(stats.logical_bytes, stats.stored_bytes);
    }

    #[test]
    fn unrelated_rewrites_fall_back_to_full() {
        let mut s = SnapshotStore::new(64);
        s.put("d", "aaa bbb ccc");
        s.put("d", "completely different text with nothing shared");
        // Delta would exceed the text; the store must not blow up space.
        let stats = s.stats();
        assert!(stats.stored_bytes <= stats.logical_bytes);
        assert_eq!(s.get("d", 1).unwrap(), "completely different text with nothing shared");
    }

    #[test]
    fn latest_tracks_most_recent() {
        let mut s = SnapshotStore::default();
        s.put("x", "v0");
        s.put("x", "v1");
        assert_eq!(s.latest("x"), Some("v1"));
        assert_eq!(s.latest("y"), None);
    }

    #[test]
    fn put_snapshot_bulk() {
        let mut s = SnapshotStore::default();
        s.put_snapshot([("a", "1"), ("b", "2")]);
        s.put_snapshot([("a", "1b"), ("b", "2b"), ("c", "3")]);
        assert_eq!(s.version_count("a"), 2);
        assert_eq!(s.version_count("c"), 1);
        assert_eq!(s.stats().documents, 3);
    }

    #[test]
    #[should_panic(expected = "keyframe interval")]
    fn zero_interval_rejected() {
        SnapshotStore::new(0);
    }

    #[test]
    fn save_load_round_trip_and_missing_file_is_empty() {
        use crate::faultfs::RealBackend;
        let dir = std::env::temp_dir().join(format!("quarry-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let _ = std::fs::remove_file(&path);

        let empty = SnapshotStore::load(&RealBackend, &path, 8).unwrap();
        assert_eq!(empty.stats().documents, 0);

        let mut s = SnapshotStore::new(4);
        for day in 0..6 {
            s.put("page", &format!("line a\nline b\nday {day}"));
        }
        s.save(&RealBackend, &path).unwrap();
        let loaded = SnapshotStore::load(&RealBackend, &path, 4).unwrap();
        assert_eq!(loaded.stats(), s.stats());
        assert_eq!(loaded.get("page", 3).unwrap(), s.get("page", 3).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut s = SnapshotStore::new(4);
        for day in 0..6 {
            s.put("page", &format!("line a\nline b\nday {day}"));
        }
        let mut bin = Vec::new();
        s.encode_into(&mut bin).unwrap();

        // Truncation at any point fails (never a silent partial store).
        for cut in [3, 7, bin.len() / 2, bin.len() - 1] {
            assert!(SnapshotStore::decode(&bin[..cut]).is_err(), "cut at {cut}");
        }
        // Bad magic.
        let mut bad = bin.clone();
        bad[0] ^= 0xff;
        assert!(matches!(SnapshotStore::decode(&bad), Err(StorageError::Corrupt(_))));
        // Trailing garbage.
        let mut long = bin.clone();
        long.push(0);
        assert!(matches!(SnapshotStore::decode(&long), Err(StorageError::Corrupt(_))));
        // The clean image round-trips exactly.
        let back = SnapshotStore::decode(&bin).unwrap();
        assert_eq!(back.stats(), s.stats());
        assert_eq!(back.get("page", 5).unwrap(), s.get("page", 5).unwrap());
    }

    #[test]
    fn crashed_save_preserves_previous_image() {
        use crate::faultfs::{CrashPlan, FaultBackend, RealBackend};
        let dir = std::env::temp_dir().join(format!("quarry-snapcrash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let _ = std::fs::remove_file(&path);

        let mut s = SnapshotStore::new(4);
        s.put("doc", "version zero");
        s.save(&RealBackend, &path).unwrap();

        // Crash the second save at every one of its operations; the old
        // image must survive each time (rename is the commit point).
        s.put("doc", "version one");
        let total = {
            let rec = FaultBackend::recording(RealBackend);
            s.save(&rec, &path).unwrap();
            rec.op_count()
        };
        // Restore the v0 image for the crash runs.
        let mut v0 = SnapshotStore::new(4);
        v0.put("doc", "version zero");
        v0.save(&RealBackend, &path).unwrap();
        for k in 1..total {
            let fb = FaultBackend::with_plan(RealBackend, CrashPlan::kill_at(k));
            assert!(s.save(&fb, &path).is_err(), "crash point {k} must fail the save");
            let loaded = SnapshotStore::load(&RealBackend, &path, 4).unwrap();
            assert_eq!(loaded.latest("doc"), Some("version zero"), "crash point {k}");
        }
        // The final op (the rename) completing means the new image is live.
        let fb = FaultBackend::with_plan(RealBackend, CrashPlan::kill_at(total + 1));
        s.save(&fb, &path).unwrap();
        let loaded = SnapshotStore::load(&RealBackend, &path, 4).unwrap();
        assert_eq!(loaded.latest("doc"), Some("version one"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn prop_every_version_reconstructs(
            texts in proptest::collection::vec("([a-z ]{0,20}\n){0,10}", 1..12),
            interval in 1usize..6,
        ) {
            let mut s = SnapshotStore::new(interval);
            for t in &texts {
                s.put("doc", t);
            }
            for (v, t) in texts.iter().enumerate() {
                prop_assert_eq!(&s.get("doc", v).unwrap(), t);
            }
        }
    }
}
