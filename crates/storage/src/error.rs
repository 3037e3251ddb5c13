//! Error type shared by every storage component.

use std::fmt;
use std::io;

/// Everything that can go wrong in the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A WAL or segment record failed its checksum (torn write / corruption).
    Corrupt(String),
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced row/version/document does not exist.
    NotFound(String),
    /// Row violates the table schema (arity, type, null constraint).
    SchemaViolation(String),
    /// Primary-key uniqueness violated.
    DuplicateKey(String),
    /// Operation used a transaction id that is not active.
    NoSuchTx(u64),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::NotFound(m) => write!(f, "not found: {m}"),
            StorageError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            StorageError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            StorageError::NoSuchTx(id) => write!(f, "no such transaction: {id}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::NoSuchTable("cities".into());
        assert!(e.to_string().contains("cities"));
        let e = StorageError::NoSuchTx(7);
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: StorageError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
