//! # gtw-mpi — a metacomputing-aware message-passing library
//!
//! A from-scratch reproduction of the metacomputing MPI the Gigabit
//! Testbed West project commissioned (implemented by Pallas GmbH in the
//! paper): efficient communication *inside* each machine of the
//! metacomputer and *between* machines, plus the MPI-2 features the paper
//! singles out as useful for metacomputing:
//!
//! * **dynamic process creation and attachment** — used for
//!   realtime-visualization and computational steering
//!   ([`Comm::spawn`], [`Comm::attach`] for named-port rendezvous),
//! * **language interoperability** — typed, self-describing message
//!   payloads ([`envelope::Datatype`], [`Payload`]): the tag names the
//!   element type and its wire size, the buffer itself is the sender's
//!   `Vec<T>`, copied once; one generic `send`/`recv`/`try_send`/`try_recv`
//!   ([`PointToPoint`]) serves every element type on both communicator kinds,
//! * **metacomputing awareness** — every rank is placed on a
//!   [`machine::MachineSpec`]; the library accounts modeled
//!   latency/bandwidth per message so applications can attribute time to
//!   intra-machine vs WAN communication ([`Comm::comm_cost`]),
//! * **tracing** — a miniature VAMPIR: per-rank event logs and a
//!   message-matrix summary ([`trace`]),
//! * **fault tolerance** — every operation has a failure-aware `try_`
//!   twin that returns a typed [`CommError`] instead of blocking on a
//!   dead peer; a rank is dead once a scripted crash or hang fires or
//!   [`Universe::declare_failed`] says so, and recovery is respawning
//!   its work with [`Comm::spawn`], as FIRE's realtime chain does.
//!
//! Ranks are OS threads; transport is in-process (parking_lot mutex +
//! condvar mailboxes with MPI-style `(source, tag)` matching, including
//! wildcards). This is a *real* message-passing runtime — applications in
//! `gtw-apps` and `gtw-fire` run on it — while the WAN timing model stays
//! virtual so experiments are reproducible on any host.
//!
//! ## Quick example
//!
//! ```
//! use gtw_mpi::{PointToPoint, Tag, Universe};
//!
//! let outputs = Universe::run(4, |comm| {
//!     let rank = comm.rank();
//!     // Ring: each rank sends its rank number to the right.
//!     comm.send((rank + 1) % 4, Tag(7), &[rank as u64]);
//!     let (msg, _st) = comm.recv::<u64>(gtw_mpi::ANY_SOURCE, Tag(7));
//!     msg[0]
//! });
//! assert_eq!(outputs, vec![3, 0, 1, 2]);
//! ```

pub mod comm;
pub mod envelope;
pub mod error;
pub mod machine;
pub(crate) mod mailbox;
pub mod topology;
pub mod trace;
pub mod universe;

pub use comm::{Comm, InterComm, PointToPoint, ReduceOp, Status};
pub use envelope::{Datatype, Envelope, Payload, Tag, ANY_SOURCE, ANY_TAG};
pub use error::{CommError, CommResult, FailCause};
pub use machine::{CommCost, FabricSpec, MachineSpec, Placement};
pub use topology::{CommTopology, Site};
pub use trace::{EventKind, TraceEvent, VampirSummary};
pub use universe::Universe;
