//! # gtw-desim — discrete-event simulation kernel
//!
//! The substrate under the Gigabit Testbed West network simulator
//! (`gtw-net`) and the end-to-end application scenarios. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic time-ordered priority queue (a
//!   merge of per-source sorted runs, see [`queue`]),
//! * [`Simulator`] — the event loop, dispatching to registered
//!   [`Component`]s or to one-shot closures until the queue drains or a
//!   horizon is reached ([`RunResult`]),
//! * [`rng`] — named, reproducible random-number streams.
//!
//! Determinism is a design goal throughout: every event carries a
//! kernel-independent `(time, source, source_seq)` key ([`queue::EventKey`])
//! that totally orders same-instant events identically whether a scenario
//! runs on the sequential [`Simulator`] or is partitioned across a
//! [`ShardedSimulator`]'s shards (the partition-invariance oracle; it
//! runs on the calling thread), and all randomness is drawn
//! from seedable, stream-named ChaCha generators.
//!
//! ## Quick example
//!
//! ```
//! use gtw_desim::{SimTime, Simulator};
//!
//! let mut sim = Simulator::new();
//! sim.call_at(SimTime::from_millis(5), |sim| {
//!     assert_eq!(sim.now().as_millis_f64(), 5.0);
//! });
//! sim.run();
//! assert_eq!(sim.events_processed(), 1);
//! ```

pub mod component;
pub mod fault;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod partition;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod span;
pub mod time;

pub use component::{Component, ComponentId, Ctx, Msg};
pub use fault::{
    FaultAt, FaultCause, FaultInjector, FaultPlan, FaultSpec, FaultStats, LossModel, ProcessFault,
    ProcessFaultInjector, ProcessFaultKind, ProcessFaultPlan, Schedule, Window,
};
pub use hist::Histogram;
pub use json::Json;
pub use metrics::{CounterId, CounterSeries, GaugeId, MetricKind, MetricsRegistry, TimeSeries};
pub use observer::Observer;
pub use partition::ShardPlan;
pub use queue::{EventQueue, QueuedEvent};
pub use rng::StreamRng;
pub use shard::ShardedSimulator;
pub use sim::{RunResult, Simulator};
pub use span::{chrome_trace, chrome_trace_with_counters, validate_chrome_trace, Span, TraceCheck};
pub use time::{SimDuration, SimTime};

/// Pinned by the frozen `gtw-benchmark` adapter; use [`Observer`].
#[doc(hidden)]
pub type MetricsSink = Observer;
/// Pinned by the frozen `gtw-benchmark` adapter; use [`Observer`].
#[doc(hidden)]
pub type SpanSink = Observer;
