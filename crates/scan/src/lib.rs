//! # gtw-scan — a synthetic fMRI scanner
//!
//! Stand-in for the 1.5 Tesla Siemens Vision MRI scanner of the paper's
//! realtime-fMRI experiment. Since no scanner (or subject) is available,
//! this crate generates functional image series with *known ground truth*,
//! which makes validation stronger than the original setup allowed:
//!
//! * [`volume`] — the 3-D image container ([`Volume`]) with trilinear
//!   sampling, shared by the whole workspace,
//! * [`phantom`] — a head/brain phantom: nested-ellipsoid anatomy at
//!   arbitrary resolution (64×64×16 EPI through 256×256×128 anatomical)
//!   and spherical activation regions,
//! * [`hrf`] — the hemodynamic response model: gamma-variate HRF with
//!   adjustable delay/dispersion, stimulus boxcars, and the reference
//!   vector (stimulus ⊛ HRF) the correlation analysis fits against,
//! * [`motion`] — rigid-body transforms for injected head movement,
//! * [`acquire`] — the scanner loop: per-repetition volumes = anatomy +
//!   BOLD modulation + baseline drift + Gaussian noise, resampled through
//!   the subject's motion trajectory, one scan per repetition time.

pub mod acquire;
pub mod hrf;
pub mod motion;
pub mod phantom;
pub mod volume;

pub use acquire::{Scanner, ScannerConfig};
pub use hrf::{hrf_gamma, ReferenceVector, Stimulus};
pub use motion::RigidTransform;
pub use phantom::{ActivationSite, Phantom};
pub use volume::{Dims, Volume};
