//! # gtw-fire — FIRE: Functional Imaging in REaltime
//!
//! Reproduction of the FIRE software package developed at the Institute
//! of Medicine, Research Centre Jülich — the flagship application of the
//! Gigabit Testbed West paper. FIRE analyses fMRI volumes as they come off
//! the scanner and displays colour-coded correlation maps within the
//! acquisition time; the computationally heavy modules are delegated to
//! the Cray T3E "in a remote-procedure-call like manner" using a domain
//! decomposition of the brain.
//!
//! Modules (each optional at runtime, as in the original GUI):
//!
//! * [`filters`] — spatial median filter (noise reduction before
//!   processing) and averaging filter (smoothing after the pipeline),
//! * [`motion`] — 3-D movement correction: iterative linear (Gauss–
//!   Newton) rigid-body registration,
//! * [`detrend`] — baseline-drift removal by least-squares projection
//!   onto detrending vectors,
//! * [`analysis`] — incremental correlation of each voxel with the
//!   reference vector, ROI time courses, clip-level overlays,
//! * [`checkpoint`] — bit-exact snapshots of the pipeline state, so a
//!   respawned compute world resumes from the last completed scan
//!   instead of restarting the protocol,
//! * [`rvo`] — reference-vector optimization: per-voxel least-squares fit
//!   of HRF delay and dispersion by rastering the parameter space, plus
//!   the paper's planned coarse-grid + conjugate-gradient refinement,
//! * [`decomp`] — the domain decomposition used on the T3E, run as a
//!   `gtw-mpi` scatter/gather over in-process ranks,
//! * [`t3e`] — the calibrated Cray T3E-600 cost model that regenerates
//!   Table 1,
//! * [`rt`] — the RT-server / RT-client protocol and the end-to-end delay
//!   budget of Figure 2 (< 5 s scan-to-display),
//! * [`pipeline`] — sequential vs pipelined operation of the
//!   acquire→compute→display chain (the paper's stated improvement
//!   opportunity),
//! * [`realtime`] — the same chain run event-driven, measuring skipped
//!   scans and steady-state periods under scanner pressure,
//! * [`biofeedback`] — the closed neurofeedback loop the paper's <5 s
//!   delay "enables": a subject model whose self-regulation learning
//!   degrades with display latency,
//! * [`linalg`] — the small dense solver kit (Gaussian elimination,
//!   least squares, Jacobi eigendecomposition, conjugate gradients)
//!   shared across the workspace.
//!
//! The per-voxel kernels (`filters`, `rvo`, the detrended and the
//! sliding-window correlation maps) run on `gtw-par` scoped threads:
//! the output is cut into chunks and each chunk is written by exactly
//! one call, with no reduction across chunks except the integer
//! `evaluations` sum, so every result is bit-identical at any thread
//! count.

pub mod analysis;
pub mod biofeedback;
pub mod checkpoint;
pub mod decomp;
pub mod detrend;
pub mod filters;
pub mod linalg;
pub mod motion;
pub mod pipeline;
pub mod realtime;
pub mod rt;
pub mod rvo;
pub mod t3e;

/// Voxels per `gtw_par::for_each` item in the per-voxel kernels: enough
/// work to pay for the queue lock, few enough to balance 64×64×16.
pub(crate) const VOXEL_CHUNK: usize = 1024;

pub use analysis::{CorrelationState, RoiStats, SlidingCorrelation};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use pipeline::{FireConfig, FirePipeline, ProcessedImage};
pub use t3e::{T3eModel, Table1Row};
