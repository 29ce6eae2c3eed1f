//! # gtw-core — the Gigabit Testbed West
//!
//! The integration crate: the testbed of Figure 1 as a concrete network
//! topology with its machines, the end-to-end fMRI scenario of Figure 2,
//! and the network leg of the co-allocation problem the paper's
//! conclusion raises ("the problem of simultaneous resource allocation in
//! a distributed environment will become more apparent when the
//! application is used for clinical research").
//!
//! * [`machines`] — the installed supercomputer base (T3E-600/1200, T90,
//!   SP2, Onyx 2, ...) with PE counts and fabric models,
//! * [`testbed`] — Figure 1 as a `gtw-net` topology, with the measured
//!   throughput matrix experiment,
//! * [`scenario`] — the Figure 2 realtime-fMRI chain assembled from the
//!   real components (scanner → T3E model → network transfers → display),
//! * [`coalloc`] — a reservation's WAN share admitted (or refused) by
//!   the signalling plane.

pub mod coalloc;
pub mod machines;
pub mod scenario;
pub mod testbed;

pub use machines::{Machine, MachineCatalog};
pub use scenario::{FmriScenario, ScenarioReport};
pub use testbed::{GigabitTestbedWest, LinkEra, MeasuredPath};
