//! # gtw-apps — the application projects of the Gigabit Testbed West
//!
//! Working miniatures of every application the paper's Section 3 lists,
//! each generating the communication pattern the paper attributes to it:
//!
//! * [`groundwater`] — "Transport of solutants in ground water": a Darcy
//!   flow solver (TRACE) coupled to a particle tracker (PARTRACE); the
//!   3-D water-flow field crosses the testbed every timestep (up to
//!   30 MByte/s),
//! * [`climate`] — "Distributed computation of climate models": an
//!   ocean model and an atmosphere model on different grids, coupled via
//!   a flux coupler that regrids 2-D surface fields every timestep
//!   (≤1 MByte bursts),
//! * [`meg`] — "Analysis of magnetoencephalography data": the MUSIC
//!   algorithm localizing current dipoles from synthetic MEG sensor data
//!   (low-volume, latency-sensitive traffic; mixed MPP/vector workload),
//! * [`video`] — "Multimedia in a Gigabit WAN": uncompressed D1
//!   studio-quality video (270 Mbit/s CCIR-601),
//! * [`traffic`] — each application's traffic profile and its
//!   feasibility against B-WiN / OC-12 / OC-48 capacities (the X1
//!   experiment).

pub mod climate;
pub mod groundwater;
pub mod meg;
pub mod traffic;
pub mod video;

pub use traffic::{AppProfile, Feasibility, TrafficPattern};
