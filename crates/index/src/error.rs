//! Index-layer errors.

use chronorank_storage::StorageError;
use std::fmt;

/// Index-layer result alias.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Errors from index structures.
#[derive(Debug)]
pub enum IndexError {
    /// Propagated storage failure.
    Storage(StorageError),
    /// A page decoded to something structurally impossible.
    Corrupt(String),
    /// The operation's preconditions were violated (e.g. unsorted bulk-load
    /// input, payload length mismatch).
    BadInput(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage: {e}"),
            IndexError::Corrupt(m) => write!(f, "corrupt index: {m}"),
            IndexError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<chronorank_storage::DecodeError> for IndexError {
    fn from(e: chronorank_storage::DecodeError) -> Self {
        IndexError::Corrupt(e.to_string())
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = IndexError::Corrupt("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = IndexError::from(StorageError::Corrupt("x".into()));
        assert!(std::error::Error::source(&e).is_some());
        assert!(IndexError::BadInput("y".into()).to_string().contains('y'));
    }
}
