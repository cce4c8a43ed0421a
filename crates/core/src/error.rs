//! Typed errors of the fault-tolerant driver paths.
//!
//! The plain batch API (`batch_get`, `batch_upsert`, …) keeps its
//! infallible signatures — on a fault-free machine none of these errors
//! can occur, and the plain entry points panic on the (impossible)
//! failure with the typed error's message. The `try_*` entry points
//! surface the same conditions as values, which is what the recovery
//! layer needs: a lost reply or a crashed module is an *expected* event
//! under an installed [`pim_runtime::FaultPlan`], and the driver retries,
//! rebuilds, or reports instead of tearing the process down.

use std::error::Error;
use std::fmt;

/// Driver-visible failures of a batch operation on the PIM machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PimError {
    /// The bounded retry/recovery loop gave up: every attempt (including
    /// the recovery rebuilds between them) kept losing messages or
    /// modules. The structure has been restored to a journal-consistent
    /// state, but the requested batch is not applied.
    RetriesExhausted {
        /// The operation that gave up.
        op: &'static str,
        /// Attempts made (initial try + retries).
        attempts: u32,
    },
    /// A quiescent period ended with replies missing (dropped tasks or
    /// replies, or a module answered [`crate::tasks::Reply::Faulted`]).
    /// Transient: the retry wrappers recover and re-issue.
    Incomplete {
        /// The operation that observed the loss.
        op: &'static str,
        /// How many expected records never arrived (0 when the loss was
        /// signalled by a `Faulted` reply rather than by absence).
        missing: usize,
    },
    /// The request itself is invalid for this configuration (e.g. a
    /// broadcast range operation on an `h_low = 0` structure, which has
    /// no local leaf lists to stream from).
    InvalidArgument {
        /// The rejecting operation.
        op: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A reply arrived that the operation's protocol cannot produce —
    /// on a fault-free machine this is a driver bug, under faults it is
    /// treated like [`PimError::Incomplete`] by the retry wrappers.
    Protocol {
        /// The operation that received the reply.
        op: &'static str,
        /// Debug rendering of the offending reply.
        detail: String,
    },
    /// An operating-system IO failure in the durability layer (WAL append,
    /// fsync, snapshot rename, directory scan). Carries enough context to
    /// name the exact file the kernel refused.
    Io {
        /// The durability operation that failed (`"wal_append"`,
        /// `"snapshot_write"`, …).
        op: &'static str,
        /// Path of the file or directory involved.
        path: String,
        /// The OS error, rendered (`std::io::Error` is not `Clone`/`Eq`,
        /// which [`PimError`] requires).
        detail: String,
    },
    /// On-disk state failed an integrity check during recovery: a frame,
    /// segment header or snapshot whose checksum does not match its
    /// contents.
    /// A *tail* corruption of the WAL is handled silently (recovery
    /// truncates to the last valid frame); this error is reserved for
    /// corruption that loses committed history — e.g. the live snapshot is
    /// damaged and the WAL it compacted is already deleted.
    Corruption {
        /// Path of the corrupt file.
        path: String,
        /// Byte offset of the failing record within the file.
        offset: u64,
        /// Checksum the record claimed.
        expected: u32,
        /// Checksum its bytes actually hash to.
        found: u32,
        /// What was being decoded (`"wal frame"`, `"snapshot"`, …).
        detail: String,
    },
}

/// Result alias used by the fault-tolerant driver paths.
pub type PimResult<T> = Result<T, PimError>;

impl PimError {
    pub(crate) fn incomplete(op: &'static str, missing: usize) -> Self {
        PimError::Incomplete { op, missing }
    }

    pub(crate) fn protocol(op: &'static str, detail: impl fmt::Debug) -> Self {
        PimError::Protocol {
            op,
            detail: format!("{detail:?}"),
        }
    }

    pub(crate) fn io(op: &'static str, path: &std::path::Path, err: &std::io::Error) -> Self {
        PimError::Io {
            op,
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }

    /// Is this error transient, i.e. worth a recovery-and-retry cycle?
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            PimError::Incomplete { .. } | PimError::Protocol { .. }
        )
    }
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::RetriesExhausted { op, attempts } => {
                write!(f, "{op}: retries exhausted after {attempts} attempts")
            }
            PimError::Incomplete { op, missing } => {
                write!(f, "{op}: incomplete batch ({missing} records missing)")
            }
            PimError::InvalidArgument { op, reason } => write!(f, "{op}: {reason}"),
            PimError::Protocol { op, detail } => {
                write!(f, "{op}: protocol violation ({detail})")
            }
            PimError::Io { op, path, detail } => {
                write!(f, "{op}: io error on {path}: {detail}")
            }
            PimError::Corruption {
                path,
                offset,
                expected,
                found,
                detail,
            } => {
                write!(
                    f,
                    "corrupt {detail} in {path} at offset {offset}: \
                     checksum expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl Error for PimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PimError::RetriesExhausted {
            op: "batch_get",
            attempts: 4,
        };
        assert!(e.to_string().contains("batch_get"));
        assert!(e.to_string().contains('4'));
        assert!(!e.is_transient());
        assert!(PimError::incomplete("x", 2).is_transient());
        assert!(PimError::protocol("x", "y").is_transient());
        assert!(!PimError::InvalidArgument {
            op: "range_broadcast",
            reason: "h_low = 0".into()
        }
        .is_transient());
    }

    #[test]
    fn io_and_corruption_carry_context() {
        let io = PimError::io(
            "wal_append",
            std::path::Path::new("/d/wal-0.log"),
            &std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        assert!(!io.is_transient(), "io failures are not retried");
        let msg = io.to_string();
        assert!(msg.contains("wal_append"));
        assert!(msg.contains("/d/wal-0.log"));
        assert!(msg.contains("denied"));

        let c = PimError::Corruption {
            path: "/d/snapshot-8.snap".into(),
            offset: 24,
            expected: 0xDEAD_BEEF,
            found: 0x0BAD_F00D,
            detail: "snapshot".into(),
        };
        assert!(!c.is_transient());
        let msg = c.to_string();
        assert!(msg.contains("/d/snapshot-8.snap"));
        assert!(msg.contains("offset 24"));
        assert!(msg.contains("0xdeadbeef"));
        assert!(msg.contains("0x0badf00d"));
        // The std::error::Error impl is uniform across variants.
        let _: &dyn std::error::Error = &c;
    }
}
