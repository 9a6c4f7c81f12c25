//! Core-layer errors.

use std::fmt;

/// Core-layer result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors from ranking methods.
#[derive(Debug)]
pub enum CoreError {
    /// Propagated storage failure.
    Storage(chronorank_storage::StorageError),
    /// Propagated index failure.
    Index(chronorank_index::IndexError),
    /// Propagated curve-model failure.
    Curve(chronorank_curve::CurveError),
    /// A query or build parameter was invalid.
    BadQuery(String),
    /// An object id was out of range.
    NoSuchObject(u32),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Index(e) => write!(f, "index: {e}"),
            CoreError::Curve(e) => write!(f, "curve: {e}"),
            CoreError::BadQuery(m) => write!(f, "bad query: {m}"),
            CoreError::NoSuchObject(id) => write!(f, "no such object: {id}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Index(e) => Some(e),
            CoreError::Curve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<chronorank_storage::StorageError> for CoreError {
    fn from(e: chronorank_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<chronorank_storage::DecodeError> for CoreError {
    fn from(e: chronorank_storage::DecodeError) -> Self {
        CoreError::Storage(e.into())
    }
}

impl From<chronorank_index::IndexError> for CoreError {
    fn from(e: chronorank_index::IndexError) -> Self {
        CoreError::Index(e)
    }
}

impl From<chronorank_curve::CurveError> for CoreError {
    fn from(e: chronorank_curve::CurveError) -> Self {
        CoreError::Curve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::BadQuery("t2 < t1".into());
        assert!(e.to_string().contains("t2 < t1"));
        let e = CoreError::NoSuchObject(7);
        assert!(e.to_string().contains('7'));
        let e = CoreError::from(chronorank_curve::CurveError::TooFewPoints(0));
        assert!(std::error::Error::source(&e).is_some());
    }
}
