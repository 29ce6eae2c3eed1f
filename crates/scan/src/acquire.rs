//! The scanner acquisition loop.
//!
//! Generates the functional time series FIRE processes: per repetition, a
//! volume equal to the phantom anatomy modulated by BOLD activation,
//! corrupted by baseline drift and Gaussian thermal noise, and resampled
//! through the subject's head-motion trajectory. All corruption has
//! ground truth available for validation.
//!
//! Timing follows the paper: one scan every `tr_s` (typically 2–3 s). The
//! ~1.5 s from scan to raw data at the RT-server belongs to the chain
//! (`gtw_core::scenario::FmriScenario` states it), not to the scanner.

use std::sync::atomic::{AtomicBool, Ordering};

use gtw_desim::rng::box_muller;
use gtw_desim::StreamRng;

use crate::hrf::{raw_convolution, Stimulus};
use crate::motion::RigidTransform;
use crate::phantom::Phantom;
use crate::volume::{Dims, Volume};

/// Scanner configuration.
#[derive(Clone, Debug)]
pub struct ScannerConfig {
    /// Functional matrix (the paper's default is 64×64×16).
    pub dims: Dims,
    /// Repetition time, seconds.
    pub tr_s: f64,
    /// Stimulation protocol.
    pub stimulus: Stimulus,
    /// The subject's true HRF delay (ground truth for RVO), seconds.
    pub true_delay_s: f64,
    /// The subject's true HRF dispersion, seconds.
    pub true_dispersion_s: f64,
    /// Thermal noise standard deviation (intensity units; brain ≈ 600).
    pub noise_sd: f32,
    /// Linear baseline drift over the whole run, as a fraction of the
    /// voxel baseline (the slow drifts detrending removes).
    pub drift_fraction: f32,
    /// Per-scan random-walk motion step (radians and voxels share the
    /// scale; head motion in a coil is sub-voxel per scan).
    pub motion_step: f32,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl ScannerConfig {
    /// The paper's standard protocol: 64×64×16 at TR 2 s, 8-on/8-off
    /// block design, realistic noise/drift/motion.
    pub fn paper_default(scans: usize, seed: u64) -> Self {
        ScannerConfig {
            dims: Dims::EPI,
            tr_s: 2.0,
            stimulus: Stimulus::block_design(8, 8, scans, 2.0),
            true_delay_s: 6.0,
            true_dispersion_s: 1.0,
            noise_sd: 6.0,
            drift_fraction: 0.02,
            motion_step: 0.003,
            seed,
        }
    }
}

/// The scanner: deterministic volume source with ground truth.
pub struct Scanner {
    cfg: ScannerConfig,
    phantom: Phantom,
    anatomy: Volume,
    activation: Volume,
    /// BOLD response per scan, normalized to peak 1.
    response: Vec<f64>,
    /// Motion trajectory, one transform per scan.
    trajectory: Vec<RigidTransform>,
}

impl Scanner {
    /// Build a scanner for a phantom.
    pub fn new(cfg: ScannerConfig, phantom: Phantom) -> Self {
        let anatomy = phantom.anatomy(cfg.dims);
        let activation = phantom.activation_map(cfg.dims);
        let mut response = raw_convolution(&cfg.stimulus, cfg.true_delay_s, cfg.true_dispersion_s);
        let peak = response.iter().cloned().fold(0.0f64, f64::max);
        if peak > 0.0 {
            for r in &mut response {
                *r /= peak;
            }
        }
        // Random-walk motion trajectory.
        let mut rng = StreamRng::new(cfg.seed, "scanner-motion");
        let mut trajectory = Vec::with_capacity(cfg.stimulus.len());
        let mut cur = RigidTransform::IDENTITY;
        for _ in 0..cfg.stimulus.len() {
            trajectory.push(cur);
            if cfg.motion_step > 0.0 {
                let mut p = cur.params();
                for v in &mut p {
                    *v += cfg.motion_step * rng.normal() as f32;
                }
                cur = RigidTransform::from_params(p);
            }
        }
        Scanner { cfg, phantom, anatomy, activation, response, trajectory }
    }

    /// The configuration.
    pub fn config(&self) -> &ScannerConfig {
        &self.cfg
    }

    /// Number of scans in the protocol.
    pub fn scan_count(&self) -> usize {
        self.cfg.stimulus.len()
    }

    /// Ground-truth anatomy at functional resolution.
    pub fn anatomy(&self) -> &Volume {
        &self.anatomy
    }

    /// Ground-truth activation amplitude map.
    pub fn activation(&self) -> &Volume {
        &self.activation
    }

    /// The phantom.
    pub fn phantom(&self) -> &Phantom {
        &self.phantom
    }

    /// Ground-truth motion at scan `t`.
    pub fn true_motion(&self, t: usize) -> RigidTransform {
        self.trajectory[t]
    }

    /// Ground-truth normalized BOLD response at scan `t`.
    pub fn true_response(&self, t: usize) -> f64 {
        self.response[t]
    }

    /// Acquire scan `t`: deterministic for a given `(seed, t)`.
    pub fn acquire(&self, t: usize) -> Volume {
        self.acquire_drawing(t, StreamRng::uniform)
    }

    /// [`acquire`](Self::acquire) with the slab-parallel noise drawing its
    /// uniforms through `uniform`.
    fn acquire_drawing(&self, t: usize, uniform: impl Fn(&mut StreamRng) -> f64 + Sync) -> Volume {
        assert!(t < self.scan_count(), "scan {t} beyond protocol");
        let (mut vol, sd) = (self.noiseless(t), self.cfg.noise_sd);
        // Thermal noise, fresh stream per scan for determinism: voxel `i`
        // takes draws `2i` and `2i + 1` of the stream, so each z-slab seeks
        // to its first voxel's and draws on its own `gtw-par` item.
        let slab = (vol.dims.nx * vol.dims.ny).max(1);
        let redraw = AtomicBool::new(false);
        if sd > 0.0 {
            gtw_par::for_each(vol.data.chunks_mut(slab).enumerate(), |(z, voxels)| {
                let mut rng = StreamRng::new(self.cfg.seed, &format!("scan-noise-{t}"));
                rng.seek(2 * (z * slab) as u64);
                for v in voxels {
                    let u1 = uniform(&mut rng);
                    if u1 == 0.0 {
                        redraw.store(true, Ordering::Relaxed);
                    }
                    *v += sd * box_muller(u1, uniform(&mut rng)) as f32;
                }
            });
        }
        // `StreamRng::normal` draws a zero `u1` again (one voxel in 2⁵³),
        // which moves every later voxel's draws: then the scan is made
        // again in voxel order.
        if redraw.into_inner() {
            vol = self.sequential_noise(t);
        }
        vol
    }

    /// Scan `t` before thermal noise: the anatomy modulated by BOLD
    /// response and drift, then moved by the subject.
    fn noiseless(&self, t: usize) -> Volume {
        let dims = self.cfg.dims;
        let mut ideal = Volume::zeros(dims);
        let resp = self.response[t] as f32;
        let progress = t as f32 / self.scan_count().max(1) as f32;
        let drift = self.cfg.drift_fraction * progress;
        for i in 0..dims.len() {
            let base = self.anatomy.data[i];
            ideal.data[i] = base * (1.0 + self.activation.data[i] * resp + drift);
        }
        if self.trajectory[t] == RigidTransform::IDENTITY {
            ideal
        } else {
            self.trajectory[t].resample(&ideal)
        }
    }

    /// Scan `t` with its thermal noise drawn in voxel order.
    fn sequential_noise(&self, t: usize) -> Volume {
        let mut vol = self.noiseless(t);
        let mut rng = StreamRng::new(self.cfg.seed, &format!("scan-noise-{t}"));
        for v in &mut vol.data {
            *v += self.cfg.noise_sd * rng.normal() as f32;
        }
        vol
    }

    /// Acquire the full series.
    pub fn series(&self) -> Vec<Volume> {
        (0..self.scan_count()).map(|t| self.acquire(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet configuration: no noise, no drift, no motion.
    fn noiseless(scans: usize) -> ScannerConfig {
        let mut cfg = ScannerConfig::paper_default(scans, 0);
        cfg.noise_sd = 0.0;
        cfg.drift_fraction = 0.0;
        cfg.motion_step = 0.0;
        cfg
    }

    #[test]
    fn acquisition_is_deterministic() {
        let s = Scanner::new(ScannerConfig::paper_default(16, 7), Phantom::standard());
        let a = s.acquire(3);
        let b = s.acquire(3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scanner::new(ScannerConfig::paper_default(8, 1), Phantom::standard()).acquire(0);
        let b = Scanner::new(ScannerConfig::paper_default(8, 2), Phantom::standard()).acquire(0);
        assert!(a.rms_diff(&b) > 0.0);
    }

    #[test]
    fn noiseless_rest_scan_equals_anatomy() {
        let s = Scanner::new(noiseless(16), Phantom::standard());
        // Scan 0 is rest (block design starts off) with zero drift.
        let v = s.acquire(0);
        assert!(v.rms_diff(s.anatomy()) < 1e-4);
    }

    #[test]
    fn activation_raises_signal_in_active_voxels() {
        let s = Scanner::new(noiseless(32), Phantom::standard());
        // Find the scan with peak response.
        let peak_t = (0..32)
            .max_by(|&a, &b| s.true_response(a).partial_cmp(&s.true_response(b)).unwrap())
            .unwrap();
        assert!(s.true_response(peak_t) > 0.9);
        let v = s.acquire(peak_t);
        let amp = s.activation();
        let anat = s.anatomy();
        let mut checked = 0;
        for i in 0..v.data.len() {
            if amp.data[i] > 0.03 {
                let expect = anat.data[i] * (1.0 + amp.data[i] * s.true_response(peak_t) as f32);
                assert!((v.data[i] - expect).abs() / expect < 0.02);
                checked += 1;
            }
        }
        assert!(checked > 10, "too few activated voxels checked: {checked}");
    }

    #[test]
    fn drift_grows_over_the_run() {
        let mut cfg = noiseless(32);
        cfg.drift_fraction = 0.05;
        let s = Scanner::new(cfg, Phantom::inactive());
        let early = s.acquire(0).mean();
        let late = s.acquire(31).mean();
        assert!(late > early * 1.02, "drift not visible: {early} -> {late}");
    }

    #[test]
    fn motion_trajectory_is_a_random_walk() {
        let s = Scanner::new(ScannerConfig::paper_default(64, 5), Phantom::standard());
        assert_eq!(s.true_motion(0), RigidTransform::IDENTITY);
        let m10 = s.true_motion(10).magnitude();
        let m63 = s.true_motion(63).magnitude();
        assert!(m10 > 0.0);
        // Random walk grows on average; allow noise but expect drift out.
        assert!(m63 > 0.0);
    }

    fn bits(v: &Volume) -> Vec<u32> {
        v.data.iter().map(|x| x.to_bits()).collect()
    }

    /// The slab-parallel noise is the voxel-order draw bit for bit, also
    /// where a slab starts inside a keystream block (15 voxels a slab).
    #[test]
    fn slab_noise_is_the_voxel_order_draw() {
        let mut cfg = ScannerConfig::paper_default(6, 11);
        cfg.dims = Dims::new(5, 3, 7);
        let s = Scanner::new(cfg, Phantom::standard());
        for width in [1, 2, 3] {
            for t in 0..6 {
                let got = gtw_par::with_threads(width, || s.acquire(t));
                assert_eq!(bits(&got), bits(&s.sequential_noise(t)), "scan {t} at {width} threads");
            }
        }
    }

    /// A zero `u1` anywhere sends the scan back to the voxel-order draw.
    #[test]
    fn a_zero_u1_redraws_in_voxel_order() {
        let s = Scanner::new(ScannerConfig::paper_default(4, 3), Phantom::standard());
        let zeros = std::sync::atomic::AtomicUsize::new(0);
        let with_zeros = |rng: &mut StreamRng| {
            let u = rng.uniform();
            if u < 1e-4 {
                zeros.fetch_add(1, Ordering::Relaxed);
                return 0.0;
            }
            u
        };
        let got = s.acquire_drawing(2, with_zeros);
        assert!(zeros.into_inner() > 0, "no zero was drawn");
        assert_eq!(bits(&got), bits(&s.sequential_noise(2)));
        assert!(got.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn a_single_slice_scan_is_finite() {
        let mut cfg = ScannerConfig::paper_default(2, 5);
        cfg.dims = Dims::new(32, 32, 1);
        let s = Scanner::new(cfg, Phantom::standard());
        for t in 0..2 {
            let v = s.acquire(t);
            assert!(v.data.iter().all(|x| x.is_finite()), "NaN voxels in scan {t}");
            assert!(v.mean() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "beyond protocol")]
    fn scan_index_checked() {
        let s = Scanner::new(noiseless(4), Phantom::standard());
        let _ = s.acquire(4);
    }
}
