//! Error handling for the storage layer.

use std::fmt;

/// Storage-layer result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors surfaced by devices, buffer pools and environments.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying OS-level IO failure (file-backed devices only).
    Io(std::io::Error),
    /// A block id beyond the end of the device was addressed.
    OutOfBounds {
        /// The offending block id.
        id: u64,
        /// Number of blocks currently allocated on the device.
        len: u64,
    },
    /// A caller-supplied buffer did not match the device block size.
    BadBufferLen {
        /// Length the caller provided.
        got: usize,
        /// The device's block size.
        want: usize,
    },
    /// On-disk bytes failed validation while being decoded.
    Corrupt(String),
    /// An [`crate::Env`] file name was created twice.
    DuplicateFile(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io error: {e}"),
            StorageError::OutOfBounds { id, len } => {
                write!(f, "block {id} out of bounds (device has {len} blocks)")
            }
            StorageError::BadBufferLen { got, want } => {
                write!(f, "buffer length {got} does not match block size {want}")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::DuplicateFile(name) => {
                write!(f, "file {name:?} already exists in this environment")
            }
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

impl From<crate::DecodeError> for StorageError {
    fn from(e: crate::DecodeError) -> Self {
        StorageError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::OutOfBounds { id: 9, len: 3 };
        assert!(e.to_string().contains("block 9"));
        let e = StorageError::BadBufferLen { got: 10, want: 4096 };
        assert!(e.to_string().contains("4096"));
        let e = StorageError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = StorageError::DuplicateFile("x".into());
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let inner = std::io::Error::other("boom");
        let e = StorageError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
    }
}
