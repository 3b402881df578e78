//! The one error type of the fallible operations.
//!
//! A precondition of a kernel lives once, in a `pub(crate) check_*`
//! beside it that returns an [`OpError`]. Serving layers that must
//! survive arbitrary inputs call the `try_*_ctx` methods on
//! [`crate::Matrix`] and get that value back; the bare methods and the
//! `ops::*_ctx` kernels `panic!("{err}")` with it — so a misuse has one
//! message whichever way it is reached, and the legacy phrases the
//! `should_panic` contracts match live in `Display` below
//! (DESIGN.md §7).

use std::fmt;

use crate::Ix;

/// Why an operation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The operands' key spaces don't conform for the requested
    /// operation (inner dimensions of a multiply, shared key space of an
    /// element-wise op, the matching axis of a concatenation).
    DimensionMismatch {
        /// Which operation was attempted (`"mxm"`, `"ewise_add"`, …).
        op: &'static str,
        /// `(nrows, ncols)` of the left operand.
        a: (Ix, Ix),
        /// `(nrows, ncols)` of the right operand.
        b: (Ix, Ix),
        /// The conformance rule that failed, phrased as the panicking
        /// API phrases it (e.g. `"inner dimensions differ"`).
        rule: &'static str,
    },
    /// A selector index points outside the matrix's key space.
    IndexOutOfBounds {
        /// Which axis the index addressed.
        axis: Axis,
        /// The offending index.
        index: Ix,
        /// The exclusive bound it had to stay under.
        bound: Ix,
    },
    /// The result's key space cannot be represented (dimension
    /// arithmetic overflows the 64-bit index space).
    TooLargeToMaterialize {
        /// Which operation was attempted.
        op: &'static str,
        /// Which axis overflowed.
        axis: Axis,
        /// The two extents whose sum/product overflowed.
        extents: (Ix, Ix),
    },
}

/// Which matrix axis an [`OpError`] refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Axis {
    /// The row dimension.
    Rows,
    /// The column dimension.
    Cols,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Rows => write!(f, "row"),
            Axis::Cols => write!(f, "col"),
        }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::DimensionMismatch { op, a, b, rule } => {
                write!(f, "{op}: {rule}: {}×{} vs {}×{}", a.0, a.1, b.0, b.1)
            }
            OpError::IndexOutOfBounds { axis, index, bound } => {
                write!(f, "{axis} index {index} out of bounds (< {bound})")
            }
            OpError::TooLargeToMaterialize { op, axis, extents } => write!(
                f,
                "{op}: {axis} overflow: result dimension {} + {} exceeds the index space",
                extents.0, extents.1
            ),
        }
    }
}

impl std::error::Error for OpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_mismatch_keeps_legacy_phrases() {
        let e = OpError::DimensionMismatch {
            op: "mxm",
            a: (3, 4),
            b: (5, 3),
            rule: "inner dimensions differ",
        };
        let msg = e.to_string();
        assert!(msg.contains("inner dimensions differ"), "{msg}");
        assert!(msg.contains("3×4"), "{msg}");
    }

    #[test]
    fn index_out_of_bounds_names_axis_and_bound() {
        let e = OpError::IndexOutOfBounds {
            axis: Axis::Cols,
            index: 99,
            bound: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("col index 99"), "{msg}");
        assert!(msg.contains("< 10"), "{msg}");
    }

    #[test]
    fn too_large_mentions_overflow() {
        let e = OpError::TooLargeToMaterialize {
            op: "concat_rows",
            axis: Axis::Rows,
            extents: (u64::MAX, 2),
        };
        let msg = e.to_string();
        assert!(msg.contains("row overflow"), "{msg}");
        assert!(msg.contains("concat_rows"), "{msg}");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(OpError::IndexOutOfBounds {
            axis: Axis::Rows,
            index: 1,
            bound: 1,
        });
    }
}
