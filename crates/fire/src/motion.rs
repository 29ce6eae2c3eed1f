//! 3-D movement correction: "even small head movements of the subject
//! tend to produce artefacts in the correlation coefficient ... Here an
//! iterative linear scheme is used."
//!
//! The iterative linear scheme is Gauss–Newton on the six rigid-body
//! parameters: linearize the intensity residual against a reference
//! volume around the current estimate (numeric Jacobian), solve the 6×6
//! normal equations, step, repeat. Sampling is restricted to
//! above-threshold (brain) voxels on a subsampled grid — the same
//! volume-of-interest trick the real-time original needed to stay inside
//! the acquisition window.
//!
//! One iteration costs 12 perturbed residual vectors for the Jacobian
//! plus one per line-search trial. The 12 are one fused pass, a single
//! `gtw_par::for_each` over chunks of sample points: each item builds
//! its own rows of the Jacobian from the 12 probes (rotation matrices
//! built once per iteration, not per point), so every row has one writer
//! and the fit is bit-identical at any thread count. `JᵀJ` and `Jᵀr` are
//! then summed sequentially in point order. The base residual is never
//! recomputed: the trial the line search accepts *is* the next
//! iteration's base (same parameters, same bits), and the last one
//! gives `residual_rms`.

use gtw_scan::motion::RigidTransform;
use gtw_scan::volume::Volume;

use crate::filters::average_filter;
use crate::linalg::{solve, Matrix};

/// Result of a motion estimation.
#[derive(Clone, Copy, Debug)]
pub struct MotionEstimate {
    /// The estimated correction transform: applying it to the moved
    /// volume (pull-resampling) best matches the reference.
    pub transform: RigidTransform,
    /// Gauss–Newton iterations used.
    pub iterations: usize,
    /// RMS intensity residual at the solution (sample grid).
    pub residual_rms: f32,
}

/// Rigid-body motion corrector against a fixed reference volume.
///
/// Registration runs on *smoothed* copies of the reference and the moving
/// image (one 3×3×3 averaging pass): MR tissue boundaries are step edges
/// whose trilinear-interpolation error would otherwise dominate the
/// intensity residual. The estimated transform is then applied to the
/// original data by [`MotionCorrector::correct`].
pub struct MotionCorrector {
    reference: Volume,
    sample_points: Vec<(f32, f32, f32)>,
    ref_values: Vec<f32>,
    /// Maximum Gauss–Newton iterations.
    pub max_iters: usize,
    /// Convergence threshold on the parameter-step magnitude.
    pub step_tol: f32,
}

/// Sample-grid offset from voxel centres. Evaluating the cost at
/// off-grid points makes *both* images interpolate (at θ = 0 a grid-
/// aligned probe samples the moving image exactly, creating a spurious
/// cost dip at zero — a classic registration trap).
const GRID_OFFSET: f32 = 0.37;

/// Parameter perturbations of the numeric Jacobian: ~0.2° rotations,
/// 0.1-voxel shifts.
const EPS: [f32; 6] = [3e-3, 3e-3, 3e-3, 0.1, 0.1, 0.1];

/// Sample points per `gtw_par::for_each` item of the Jacobian pass:
/// 12 trilinear samples each, so an item is worth a lock round-trip.
const POINT_CHUNK: usize = 256;

/// A trial transform with its rotation matrix built once.
struct Probe {
    transform: RigidTransform,
    rot: [[f32; 3]; 3],
}

impl Probe {
    fn new(params: [f32; 6]) -> Self {
        let transform = RigidTransform::from_params(params);
        Probe { transform, rot: transform.rotation_matrix() }
    }
}

impl MotionCorrector {
    /// Build a corrector; `stride` subsamples the grid (2 or 3 is
    /// realtime-appropriate for 64×64×16), `intensity_floor` excludes
    /// air voxels.
    pub fn new(reference: Volume, stride: usize, intensity_floor: f32) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        let reference = average_filter(&reference);
        let d = reference.dims;
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        // Stay one voxel inside the boundary so clamping does not flatten
        // gradients.
        for z in (1..d.nz.saturating_sub(1)).step_by(stride) {
            for y in (1..d.ny.saturating_sub(1)).step_by(stride) {
                for x in (1..d.nx.saturating_sub(1)).step_by(stride) {
                    if reference.at(x, y, z) > intensity_floor {
                        let p = (
                            x as f32 + GRID_OFFSET,
                            y as f32 + GRID_OFFSET,
                            z as f32 + GRID_OFFSET,
                        );
                        vals.push(reference.sample(p.0, p.1, p.2));
                        pts.push(p);
                    }
                }
            }
        }
        assert!(pts.len() >= 6, "too few sample points for a 6-parameter fit");
        MotionCorrector {
            reference,
            sample_points: pts,
            ref_values: vals,
            max_iters: 20,
            step_tol: 1e-4,
        }
    }

    /// Number of grid points the fit uses.
    pub fn sample_count(&self) -> usize {
        self.sample_points.len()
    }

    /// Intensity residual of sample point `k` with `moved` seen through
    /// `probe`.
    #[inline]
    fn residual(&self, moved: &Volume, probe: &Probe, k: usize) -> f64 {
        let centre = self.reference.dims.centre();
        let (sx, sy, sz) = probe.transform.apply_rotated(&probe.rot, self.sample_points[k], centre);
        (moved.sample(sx, sy, sz) - self.ref_values[k]) as f64
    }

    fn residuals(&self, moved: &Volume, params: [f32; 6], out: &mut [f64]) {
        let probe = Probe::new(params);
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.residual(moved, &probe, k);
        }
    }

    /// Central-difference Jacobian of the residuals around `params`:
    /// the fused, parallel pass of the module docs.
    fn jacobian(&self, moved: &Volume, params: [f32; 6], jac: &mut [[f64; 6]]) {
        let probes: [[Probe; 2]; 6] = std::array::from_fn(|p| {
            let (mut lo, mut hi) = (params, params);
            lo[p] -= EPS[p];
            hi[p] += EPS[p];
            [Probe::new(lo), Probe::new(hi)]
        });
        gtw_par::for_each(jac.chunks_mut(POINT_CHUNK).enumerate(), |(c, rows)| {
            for (i, row) in rows.iter_mut().enumerate() {
                let k = c * POINT_CHUNK + i;
                for (p, [lo, hi]) in probes.iter().enumerate() {
                    let scale = 1.0 / (2.0 * EPS[p] as f64);
                    row[p] = (self.residual(moved, hi, k) - self.residual(moved, lo, k)) * scale;
                }
            }
        });
    }

    /// Estimate the correction transform for `moved`.
    pub fn estimate(&self, moved: &Volume) -> MotionEstimate {
        assert_eq!(moved.dims, self.reference.dims, "volume dims mismatch");
        let moved = &average_filter(moved);
        let m = self.sample_points.len();
        let mut params = [0.0f32; 6];
        // `r` is always the residual at `params`.
        let mut r = vec![0.0f64; m];
        let mut r_trial = vec![0.0f64; m];
        let mut jac = vec![[0.0f64; 6]; m];
        let mut jt_j = Matrix::zeros(6, 6);
        self.residuals(moved, params, &mut r);
        let mut iterations = 0;
        for iter in 0..self.max_iters {
            iterations = iter + 1;
            self.jacobian(moved, params, &mut jac);
            // Normal equations: one sequential sum in point order.
            let mut jt_r = [0.0f64; 6];
            let mut upper = [[0.0f64; 6]; 6];
            for (row, &rk) in jac.iter().zip(&r) {
                for a in 0..6 {
                    jt_r[a] += row[a] * rk;
                    for b in a..6 {
                        upper[a][b] += row[a] * row[b];
                    }
                }
            }
            for a in 0..6 {
                for b in 0..6 {
                    jt_j[(a, b)] = upper[a.min(b)][a.max(b)];
                }
                // Levenberg damping keeps the step sane when the
                // Jacobian is poorly conditioned (flat regions).
                jt_j[(a, a)] *= 1.0 + 1e-3;
                jt_j[(a, a)] += 1e-9;
            }
            let Some(step) = solve(&jt_j, &jt_r) else {
                break;
            };
            // Backtracking line search: Gauss-Newton overshoots on the
            // non-quadratic intensity landscape near tissue edges.
            let sse_before: f64 = r.iter().map(|v| v * v).sum();
            let mut lambda = 1.0f32;
            let mut accepted = false;
            let mut step_mag = 0.0f32;
            for _ in 0..6 {
                let mut trial = params;
                for p in 0..6 {
                    trial[p] -= lambda * step[p] as f32;
                }
                self.residuals(moved, trial, &mut r_trial);
                let sse_after: f64 = r_trial.iter().map(|v| v * v).sum();
                if sse_after < sse_before {
                    step_mag = step.iter().map(|&v| (lambda as f64 * v).powi(2)).sum::<f64>().sqrt()
                        as f32;
                    params = trial;
                    std::mem::swap(&mut r, &mut r_trial);
                    accepted = true;
                    break;
                }
                lambda *= 0.5;
            }
            if !accepted || step_mag < self.step_tol {
                break;
            }
        }
        let rms = (r.iter().map(|v| v * v).sum::<f64>() / m as f64).sqrt() as f32;
        MotionEstimate {
            transform: RigidTransform::from_params(params),
            iterations,
            residual_rms: rms,
        }
    }

    /// Estimate and apply the correction: returns the realigned volume.
    pub fn correct(&self, moved: &Volume) -> (Volume, MotionEstimate) {
        let est = self.estimate(moved);
        (est.transform.resample(moved), est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::phantom::Phantom;
    use gtw_scan::volume::Dims;

    fn reference() -> Volume {
        Phantom::standard().anatomy(Dims::EPI)
    }

    fn check_recovery(true_motion: RigidTransform) {
        let refv = reference();
        let moved = true_motion.resample(&refv);
        let corrector = MotionCorrector::new(refv.clone(), 2, 50.0);
        let (corrected, est) = corrector.correct(&moved);
        // Parameter recovery against the exact inverse.
        let p_est = est.transform.params();
        let p_inv = true_motion.inverse().params();
        for i in 0..6 {
            let tol = if i < 3 { 0.02 } else { 0.3 };
            assert!(
                (p_est[i] - p_inv[i]).abs() < tol,
                "param {i}: est {} vs true-inverse {} (motion {true_motion:?})",
                p_est[i],
                p_inv[i]
            );
        }
        // Voxel-space criterion: the corrected volume is as close to the
        // reference as resampling through the *exact* inverse gets (the
        // irreducible interpolation error at tissue edges), and clearly
        // better than no correction.
        let ideal = true_motion.inverse().resample(&moved);
        let ideal_rms = ideal.rms_diff(&refv);
        let got_rms = corrected.rms_diff(&refv);
        assert!(
            got_rms < ideal_rms * 1.2 + 1.0,
            "corrected rms {got_rms} vs ideal-inverse {ideal_rms}"
        );
        // Never worse than leaving the motion in (small pure rotations
        // leave little rms headroom, so this is a lenient floor; the
        // parameter check above is the sharp criterion).
        assert!(got_rms < moved.rms_diff(&refv) * 1.05);
    }

    #[test]
    fn recovers_translation() {
        check_recovery(RigidTransform::translation(0.8, -0.5, 0.3));
    }

    #[test]
    fn recovers_rotation() {
        check_recovery(RigidTransform::rotation(0.02, -0.015, 0.025));
    }

    #[test]
    fn recovers_combined_motion() {
        check_recovery(RigidTransform {
            rx: 0.015,
            ry: 0.01,
            rz: -0.02,
            tx: 0.5,
            ty: 0.4,
            tz: -0.3,
        });
    }

    #[test]
    fn identity_input_stays_put() {
        let refv = reference();
        let corrector = MotionCorrector::new(refv.clone(), 2, 50.0);
        let est = corrector.estimate(&refv);
        assert!(est.transform.magnitude() < 0.02, "{:?}", est.transform);
        assert!(est.residual_rms < 1.0);
    }

    /// The reference shifted and given ±2 units of uniform noise.
    fn noisy_moved(refv: &Volume) -> Volume {
        let mut moved = RigidTransform::translation(0.6, 0.2, -0.2).resample(refv);
        let mut state = 77u64;
        for v in &mut moved.data {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v += 4.0 * (((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        moved
    }

    #[test]
    fn noisy_volume_still_converges() {
        let refv = reference();
        let moved = noisy_moved(&refv);
        let corrector = MotionCorrector::new(refv, 2, 50.0);
        let est = corrector.estimate(&moved);
        assert!((est.transform.tx + 0.6).abs() < 0.2, "{:?}", est.transform);
    }

    /// The residual as it was before the matrix form: six trig calls per
    /// sample point inside `apply_point`.
    fn reference_residuals(c: &MotionCorrector, moved: &Volume, params: [f32; 6], out: &mut [f64]) {
        let t = RigidTransform::from_params(params);
        let centre = c.reference.dims.centre();
        for (k, &p) in c.sample_points.iter().enumerate() {
            let (sx, sy, sz) = t.apply_point(p, centre);
            out[k] = (moved.sample(sx, sy, sz) - c.ref_values[k]) as f64;
        }
    }

    /// The serial fit `estimate` replaced, kept as the reference: every
    /// residual vector recomputed, one parameter at a time.
    fn reference_estimate(c: &MotionCorrector, moved: &Volume) -> MotionEstimate {
        let moved = &average_filter(moved);
        let m = c.sample_points.len();
        let mut params = [0.0f32; 6];
        let mut r = vec![0.0f64; m];
        let mut r_lo = vec![0.0f64; m];
        let mut r_hi = vec![0.0f64; m];
        let mut iterations = 0;
        for iter in 0..c.max_iters {
            iterations = iter + 1;
            reference_residuals(c, moved, params, &mut r);
            let mut jt_j = Matrix::zeros(6, 6);
            let mut jt_r = [0.0f64; 6];
            let mut jac = vec![[0.0f64; 6]; m];
            for p in 0..6 {
                let mut lo = params;
                let mut hi = params;
                lo[p] -= EPS[p];
                hi[p] += EPS[p];
                reference_residuals(c, moved, lo, &mut r_lo);
                reference_residuals(c, moved, hi, &mut r_hi);
                let scale = 1.0 / (2.0 * EPS[p] as f64);
                for k in 0..m {
                    jac[k][p] = (r_hi[k] - r_lo[k]) * scale;
                }
            }
            for k in 0..m {
                for a in 0..6 {
                    jt_r[a] += jac[k][a] * r[k];
                    for b in a..6 {
                        jt_j[(a, b)] += jac[k][a] * jac[k][b];
                    }
                }
            }
            for a in 0..6 {
                for b in 0..a {
                    jt_j[(a, b)] = jt_j[(b, a)];
                }
                jt_j[(a, a)] *= 1.0 + 1e-3;
                jt_j[(a, a)] += 1e-9;
            }
            let Some(step) = solve(&jt_j, &jt_r) else {
                break;
            };
            let sse_before: f64 = r.iter().map(|v| v * v).sum();
            let mut lambda = 1.0f32;
            let mut accepted = false;
            let mut step_mag = 0.0f32;
            for _ in 0..6 {
                let mut trial = params;
                for p in 0..6 {
                    trial[p] -= lambda * step[p] as f32;
                }
                reference_residuals(c, moved, trial, &mut r_lo);
                let sse_after: f64 = r_lo.iter().map(|v| v * v).sum();
                if sse_after < sse_before {
                    step_mag = step.iter().map(|&v| (lambda as f64 * v).powi(2)).sum::<f64>().sqrt()
                        as f32;
                    params = trial;
                    accepted = true;
                    break;
                }
                lambda *= 0.5;
            }
            if !accepted || step_mag < c.step_tol {
                break;
            }
        }
        reference_residuals(c, moved, params, &mut r);
        let rms = (r.iter().map(|v| v * v).sum::<f64>() / m as f64).sqrt() as f32;
        MotionEstimate {
            transform: RigidTransform::from_params(params),
            iterations,
            residual_rms: rms,
        }
    }

    #[test]
    fn estimate_matches_the_serial_fit_bit_for_bit_at_every_width() {
        let refv = reference();
        let corrector = MotionCorrector::new(refv.clone(), 2, 50.0);
        let mut cases: Vec<Volume> = [
            RigidTransform::translation(0.8, -0.5, 0.3),
            RigidTransform::rotation(0.02, -0.015, 0.025),
            RigidTransform { rx: 0.015, ry: 0.01, rz: -0.02, tx: 0.5, ty: 0.4, tz: -0.3 },
        ]
        .iter()
        .map(|t| t.resample(&refv))
        .collect();
        cases.push(noisy_moved(&refv));
        for moved in &cases {
            let want = reference_estimate(&corrector, moved);
            assert!(want.iterations > 1, "the case must iterate: {want:?}");
            for width in [1usize, 2, 3, 8] {
                let got = gtw_par::with_threads(width, || corrector.estimate(moved));
                assert_eq!(
                    got.transform.params().map(f32::to_bits),
                    want.transform.params().map(f32::to_bits)
                );
                assert_eq!(got.iterations, want.iterations);
                assert_eq!(got.residual_rms.to_bits(), want.residual_rms.to_bits());
            }
        }
    }

    #[test]
    fn sample_grid_excludes_air() {
        let refv = reference();
        let c = MotionCorrector::new(refv.clone(), 2, 50.0);
        let all = MotionCorrector::new(refv, 2, -1.0);
        assert!(c.sample_count() < all.sample_count());
        assert!(c.sample_count() > 500);
    }
}
