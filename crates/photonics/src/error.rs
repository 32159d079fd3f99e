//! Error types for the photonics substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by photonic components.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhotonicsError {
    /// More vectors offered than the WDM capacity supports.
    WdmOverCapacity {
        /// Vectors requested.
        requested: usize,
        /// Transmitter capacity `K`.
        capacity: usize,
    },
    /// An operand had the wrong length.
    DimensionMismatch {
        /// What operand mismatched.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Received length.
        got: usize,
    },
    /// A device access exceeded the crossbar.
    OutOfBounds {
        /// Requested row extent.
        row: usize,
        /// Requested column extent.
        col: usize,
        /// Physical rows.
        rows: usize,
        /// Physical columns.
        cols: usize,
    },
    /// A programming level outside the device's level count.
    InvalidLevel {
        /// Requested level.
        level: usize,
        /// Available levels.
        levels: usize,
    },
    /// A restored device transmission that is not a finite value in
    /// `[0, 1]`.
    InvalidTransmission {
        /// Device row.
        row: usize,
        /// Device column.
        col: usize,
        /// The rejected transmission.
        transmission: f64,
    },
}

impl fmt::Display for PhotonicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WdmOverCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "{requested} input vectors exceed the WDM capacity of {capacity}"
            ),
            Self::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} has length {got}, expected {expected}"),
            Self::OutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(f, "access at ({row}, {col}) exceeds {rows}×{cols} crossbar"),
            Self::InvalidLevel { level, levels } => {
                write!(f, "level {level} out of range for a {levels}-level device")
            }
            Self::InvalidTransmission {
                row,
                col,
                transmission,
            } => write!(
                f,
                "device ({row}, {col}) transmission {transmission} is outside [0, 1]"
            ),
        }
    }
}

impl Error for PhotonicsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PhotonicsError::WdmOverCapacity {
            requested: 20,
            capacity: 16,
        };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: Error + Send + Sync>() {}
        check::<PhotonicsError>();
    }
}
