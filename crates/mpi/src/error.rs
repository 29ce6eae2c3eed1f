//! Typed communication errors for the failure-aware (`try_*`) API.
//!
//! The metacomputing MPI of the paper ran over a WAN where whole machines
//! could drop out mid-session; MPICH-G2 and MPWide both treat peer death
//! and timeouts as first-class results rather than aborts. The legacy
//! blocking API (`send`, `recv`, `recv_envelope`, `barrier`, ...) keeps
//! its infallible signatures — it is only correct when no process-fault
//! plan is installed — while every `try_*` / `*_timeout` variant returns
//! a [`CommError`] instead of blocking forever on a dead peer or
//! aborting on a payload of another datatype.

use std::fmt;

use crate::envelope::Datatype;

/// Why a rank was declared failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailCause {
    /// The rank crashed (fail-stop): its mailbox is poisoned and every
    /// peer observes the failure promptly.
    Crash,
    /// The rank went silent (a scripted hang) and, with nobody declaring
    /// it dead sooner, declared itself dead after a 2 s cap.
    Hang,
}

impl fmt::Display for FailCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailCause::Crash => write!(f, "crash"),
            FailCause::Hang => write!(f, "hang"),
        }
    }
}

/// Error returned by the failure-aware communication operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A rank involved in the operation is dead. For [`crate::Comm`]
    /// operations `rank` is the failed rank's index *within that
    /// communicator*; for [`crate::comm::InterComm`] operations it is
    /// the index within the remote group.
    RankFailed {
        /// Local index of the failed rank.
        rank: usize,
    },
    /// The operation's deadline expired before completion. The peer may
    /// be slow, partitioned, or dead — what to do next (retry, respawn,
    /// `Universe::declare_failed`) is the caller's decision, exactly as in
    /// MPWide's per-link timeout discipline.
    Timeout,
    /// A typed receive matched an envelope of another element type than
    /// the one asked for. The envelope is consumed; what to do about a
    /// peer that speaks another type is the caller's decision. (The
    /// blocking `recv` panics instead — there it is a bug, matching MPI's
    /// `MPI_ERR_TYPE` fatality.)
    Datatype {
        /// Element type the receiver asked for.
        expected: Datatype,
        /// Element type the envelope declares.
        found: Datatype,
        /// Payload size in wire bytes (of the envelope's own datatype).
        bytes: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout => write!(f, "operation timed out"),
            CommError::Datatype { expected, found, .. } => {
                write!(f, "datatype mismatch: expected {expected:?}, envelope carries {found:?}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for the failure-aware API.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(CommError::RankFailed { rank: 3 }.to_string(), "rank 3 failed");
        assert_eq!(CommError::Timeout.to_string(), "operation timed out");
        let (f64s, u8s) = (Datatype::F64, Datatype::U8);
        assert_eq!(
            CommError::Datatype { expected: f64s, found: u8s, bytes: 8 }.to_string(),
            "datatype mismatch: expected F64, envelope carries U8"
        );
        assert_eq!(FailCause::Crash.to_string(), "crash");
        assert_eq!(FailCause::Hang.to_string(), "hang");
    }
}
