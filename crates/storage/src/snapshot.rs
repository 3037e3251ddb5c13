//! Subversion-style versioned document store.
//!
//! Daily crawl snapshots of the same pages overlap heavily, so storing each
//! version in full wastes space roughly linear in the number of days. This
//! store keeps a *keyframe* every `keyframe_interval` versions and a line
//! [`Delta`] for every other version, reconstructing any
//! requested version by replaying deltas forward from the nearest keyframe —
//! bounding both space (diff-sized) and read cost (≤ interval replays).

use crate::delta::{self, Delta};
use crate::error::StorageError;
use crate::Result;
use std::collections::HashMap;

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
