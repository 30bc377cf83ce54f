//! Error type shared by tensor operations.

use std::fmt;

/// Errors raised by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that must agree do not.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// The shape that was expected.
        expected: String,
        /// The shape that was provided.
        got: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, expected, got } => {
                write!(f, "{op}: shape mismatch (expected {expected}, got {got})")
            }
        }
    }
}

impl std::error::Error for TensorError {}

impl TensorError {
    /// Construct a [`TensorError::ShapeMismatch`].
    pub fn shape(op: &'static str, expected: impl fmt::Display, got: impl fmt::Display) -> Self {
        TensorError::ShapeMismatch {
            op,
            expected: expected.to_string(),
            got: got.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::shape("add", "2x2", "3x3");
        assert_eq!(e.to_string(), "add: shape mismatch (expected 2x2, got 3x3)");
    }
}
