//! Error types shared by the checkpoint-recovery crates.

use std::fmt;

/// Errors produced by state-geometry validation, trace application and
/// checkpoint restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The geometry is internally inconsistent (e.g. the atomic-object size
    /// is not a multiple of the cell size, or a dimension is zero).
    InvalidGeometry(String),
    /// A cell address lies outside the state table.
    CellOutOfBounds {
        /// Row of the offending address.
        row: u32,
        /// Column of the offending address.
        col: u32,
    },
    /// An object id lies outside the state table.
    ObjectOutOfBounds(u32),
    /// Recovery was attempted with no completed checkpoint available.
    NoCheckpoint,
    /// A checkpoint image does not match the geometry it is restored into.
    CheckpointMismatch(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidGeometry(msg) => write!(f, "invalid state geometry: {msg}"),
            CoreError::CellOutOfBounds { row, col } => {
                write!(f, "cell ({row}, {col}) is out of bounds")
            }
            CoreError::ObjectOutOfBounds(id) => write!(f, "object {id} is out of bounds"),
            CoreError::NoCheckpoint => write!(f, "no completed checkpoint is available"),
            CoreError::CheckpointMismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let err = CoreError::CellOutOfBounds { row: 3, col: 9 };
        assert_eq!(err.to_string(), "cell (3, 9) is out of bounds");
        let err = CoreError::CheckpointMismatch("image is 10 bytes".into());
        assert_eq!(err.to_string(), "checkpoint mismatch: image is 10 bytes");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
