//! # gtw-net — the Gigabit Testbed West network simulator
//!
//! A protocol-accurate model of the networking stack the paper's testbed
//! was built from, layered bottom-up:
//!
//! * [`cell`] — 53-byte ATM cells with real HEC (CRC-8) header protection,
//! * [`aal5`] — AAL5 segmentation/reassembly with the CPCS trailer and
//!   CRC-32 over the full PDU,
//! * [`sdh`] — SDH/SONET line vs payload rates (STM-1/4/16 ↔ OC-3/12/48)
//!   and the signal-quality model behind the testbed's early instability,
//! * [`hippi`] — the 800 Mbit/s High Performance Parallel Interface with
//!   its burst framing,
//! * [`link`], [`switch`] — event-driven cell/frame transport with
//!   propagation delay, output queues and loss,
//! * [`policing`] — GCRA leaky-bucket usage-parameter control with CLP
//!   tagging and selective discard (ATM QoS for mixed video/bulk loads),
//! * [`signaling`] — SVC call setup/teardown: the hop-by-hop
//!   SETUP/CONNECT/REJECT/RELEASE walk, the plain per-switch agent and
//!   the call originators (the automated "simultaneous resource
//!   allocation" of the paper's conclusion),
//! * [`replica`] — the same hop made fault-tolerant: `cac` (the one
//!   call-admission state machine, which the plain agent uses too),
//!   `raft` (the consensus core), `agent` (the replicated hop), `group`
//!   (wiring) and `scenario` (load generator and canned fault reports);
//!   a plain hop is a replicated hop with a log of length zero,
//! * [`ip`], [`tcp`] — classical IP over ATM (RFC 1577 style LLC/SNAP
//!   encapsulation, MTU effects) and a sliding-window TCP bulk-transfer
//!   model,
//! * [`gateway`], [`host`] — HiPPI↔ATM IP gateways and host adapters with
//!   per-device I/O caps (the SP2 microchannel bottleneck of the paper),
//! * [`topology`], [`transfer`] — the node/link graph of Figure 1 and
//!   high-level bulk-transfer experiments over it,
//! * [`stripe`] — MPWide-style WAN striping: one logical transfer over
//!   N parallel TCP streams with per-stream pacing and an adaptive
//!   stream count driven by the path's bandwidth-delay product.
//!
//! All timing flows through `gtw-desim` virtual time, so every throughput
//! number the paper quotes (430 Mbit/s local HiPPI TCP at 64 KB MTU,
//! 260 Mbit/s Jülich→Sankt Augustin into the SP2, <8 frames/s of workbench
//! video over 622 Mbit/s classical IP) can be regenerated as an experiment.

pub mod aal5;
pub mod cell;
pub mod gateway;
pub mod hippi;
pub mod host;
pub mod ip;
pub mod link;
pub mod policing;
pub mod replica;
pub mod sdh;
pub mod signaling;
pub mod stats;
pub mod stripe;
pub mod switch;
pub mod tcp;
pub mod topology;
pub mod transfer;
pub mod units;

pub use cell::{AtmCell, CellHeader, ATM_CELL_BYTES, ATM_PAYLOAD_BYTES};
pub use replica::{
    control_fault_report, leader_of, schedule_replica_outages, CacState, CallPump, GroupConfig,
    Replica, ReplicaGroup, ReplicatedAgent,
};
pub use stats::{RunReport, StatsRegistry};
pub use stripe::{StripedReport, StripedTransfer, MAX_STRIPES};
pub use topology::{LinkSpec, NodeId, NodeKind, Topology};
pub use transfer::{BulkTransfer, Protocol, TransferReport, TransferSet};
pub use units::{Bandwidth, DataSize};
