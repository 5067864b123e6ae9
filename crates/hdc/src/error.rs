//! Error types for the `hdc` crate.

use std::fmt;

/// Errors produced by HDC construction, training, prediction and persistence.
#[derive(Debug)]
#[non_exhaustive]
pub enum HdcError {
    /// Two hypervectors (or a hypervector and a memory) had different
    /// dimensions.
    DimensionMismatch {
        /// Dimension expected by the receiver.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// A dimension of zero was requested; hypervectors must be non-empty.
    ZeroDimension,
    /// A class label was outside the range configured for the model.
    UnknownClass {
        /// The offending label.
        class: usize,
        /// Number of classes the model was configured with.
        num_classes: usize,
    },
    /// An input did not match the shape the encoder was configured for.
    InputShapeMismatch {
        /// Number of elements the encoder expects.
        expected: usize,
        /// Number of elements provided.
        actual: usize,
    },
    /// An input value exceeded the configured quantization level count.
    ValueOutOfRange {
        /// The offending value.
        value: usize,
        /// Number of representable levels.
        levels: usize,
    },
    /// A cosine similarity was requested against an all-zero vector or
    /// accumulator, for which the norm (and so the cosine) is undefined.
    ZeroNorm,
    /// Prediction was requested from a model with no trained classes.
    EmptyModel,
    /// An item memory was configured with no items.
    EmptyMemory,
    /// A persistence operation failed.
    Io(std::io::Error),
    /// A persisted model file was malformed, or an encoder configuration
    /// (read from one or built directly) asked for implausibly large item
    /// memories.
    Corrupt(String),
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdcError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            HdcError::ZeroDimension => write!(f, "hypervector dimension must be non-zero"),
            HdcError::UnknownClass { class, num_classes } => {
                write!(f, "class {class} out of range for {num_classes} classes")
            }
            HdcError::InputShapeMismatch { expected, actual } => {
                write!(f, "input shape mismatch: expected {expected} elements, got {actual}")
            }
            HdcError::ValueOutOfRange { value, levels } => {
                write!(f, "value {value} out of range for {levels} quantization levels")
            }
            HdcError::ZeroNorm => {
                write!(f, "cosine undefined against a zero-norm vector or accumulator")
            }
            HdcError::EmptyModel => write!(f, "model has no trained classes"),
            HdcError::EmptyMemory => write!(f, "item memory must contain at least one item"),
            HdcError::Io(e) => write!(f, "i/o error: {e}"),
            HdcError::Corrupt(msg) => write!(f, "corrupt model data: {msg}"),
        }
    }
}

impl std::error::Error for HdcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HdcError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HdcError {
    fn from(e: std::io::Error) -> Self {
        HdcError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = HdcError::DimensionMismatch { expected: 10, actual: 5 };
        assert_eq!(e.to_string(), "dimension mismatch: expected 10, got 5");
    }

    #[test]
    fn display_unknown_class() {
        let e = HdcError::UnknownClass { class: 12, num_classes: 10 };
        assert_eq!(e.to_string(), "class 12 out of range for 10 classes");
    }

    #[test]
    fn display_value_out_of_range() {
        let e = HdcError::ValueOutOfRange { value: 300, levels: 256 };
        assert_eq!(e.to_string(), "value 300 out of range for 256 quantization levels");
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let e = HdcError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }
}
