//! Reference-vector optimization (RVO): "on the T3E, a fully automatic
//! least-squares fit of delay and duration is performed for each voxel
//! during the measurement. The procedure rasters the parameter space to
//! find the global minimum."
//!
//! For each voxel the HRF parameters (delay, dispersion) maximizing the
//! correlation with the measured series are found — equivalently, the
//! least-squares amplitude fit with minimal residual, since the reference
//! vectors are unit-normalized. Two methods are provided:
//!
//! * [`RvoMethod::FullGrid`] — the paper's production method: raster the
//!   whole parameter space (this dominates Table 1's runtime),
//! * [`RvoMethod::CoarseRefine`] — the paper's *planned* optimization
//!   ("the resolution of the grid can be reduced and the solution refined
//!   using a conjugate gradient method"): a coarse raster followed by
//!   iterative local refinement. The X3 ablation bench compares both.

use std::sync::atomic::{AtomicU64, Ordering};

use gtw_scan::hrf::{ReferenceVector, Stimulus};
use gtw_scan::volume::Volume;

use crate::VOXEL_CHUNK;

/// Parameter-space bounds for the fit.
#[derive(Clone, Copy, Debug)]
pub struct RvoBounds {
    /// Delay range, seconds.
    pub delay_s: (f64, f64),
    /// Dispersion range, seconds.
    pub dispersion_s: (f64, f64),
}

impl Default for RvoBounds {
    fn default() -> Self {
        // Physiological range around the canonical (6 s, 1 s).
        RvoBounds { delay_s: (3.0, 9.0), dispersion_s: (0.5, 2.0) }
    }
}

/// Optimization method.
#[derive(Clone, Copy, Debug)]
pub enum RvoMethod {
    /// Raster the full grid (`delay_steps × dispersion_steps` points).
    FullGrid {
        /// Grid resolution in delay.
        delay_steps: usize,
        /// Grid resolution in dispersion.
        dispersion_steps: usize,
    },
    /// Coarse raster plus `refine_iters` rounds of per-axis parabolic
    /// refinement with halving step size.
    CoarseRefine {
        /// Coarse grid resolution in delay.
        delay_steps: usize,
        /// Coarse grid resolution in dispersion.
        dispersion_steps: usize,
        /// Refinement iterations.
        refine_iters: usize,
    },
}

impl RvoMethod {
    /// The paper's production setting: a fine raster.
    pub fn paper_grid() -> Self {
        RvoMethod::FullGrid { delay_steps: 13, dispersion_steps: 7 }
    }

    /// The planned optimization: coarse raster + refinement.
    pub fn paper_refined() -> Self {
        RvoMethod::CoarseRefine { delay_steps: 5, dispersion_steps: 3, refine_iters: 4 }
    }
}

/// Per-voxel RVO output.
#[derive(Clone, Debug)]
pub struct RvoResult {
    /// Best-fit HRF delay per voxel, seconds.
    pub delay: Volume,
    /// Best-fit HRF dispersion per voxel, seconds.
    pub dispersion: Volume,
    /// Correlation achieved at the best fit.
    pub correlation: Volume,
    /// Total reference-vector correlation evaluations (the cost metric
    /// for the X3 ablation).
    pub evaluations: u64,
}

/// One voxel's time series with its mean removed, kept so the raster
/// correlates it against many reference vectors without re-deriving the
/// mean, the centred series and Σd² each time. [`CentredVoxel::correlate`]
/// returns the bits [`ReferenceVector::correlate`] would: the same sums
/// in the same operand order.
struct CentredVoxel {
    /// `x[t] − mean`, one per scan.
    d: Vec<f64>,
    /// `sqrt(Σd²)`, or 0 for a series that correlates with nothing
    /// (fewer than two scans, or constant).
    norm: f64,
}

impl CentredVoxel {
    fn new(scans: usize) -> Self {
        CentredVoxel { d: vec![0.0; scans], norm: 0.0 }
    }

    /// Centre voxel `idx` of `series` into the buffer.
    fn load(&mut self, series: &[Volume], idx: usize) {
        let n = series.len() as f64;
        let mean = series.iter().map(|v| v.data[idx] as f64).sum::<f64>() / n;
        let mut ss = 0.0;
        for (d, v) in self.d.iter_mut().zip(series) {
            *d = v.data[idx] as f64 - mean;
            ss += *d * *d;
        }
        self.norm = if n < 2.0 || ss <= 0.0 { 0.0 } else { ss.sqrt() };
    }

    /// Pearson correlation of the loaded voxel against `rv`.
    fn correlate(&self, rv: &ReferenceVector) -> f64 {
        if self.norm == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        for (d, r) in self.d.iter().zip(&rv.values) {
            dot += d * r;
        }
        // `values` already has zero mean and unit norm.
        (dot / self.norm).clamp(-1.0, 1.0)
    }
}

fn grid(bounds: (f64, f64), steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "grid needs at least 2 steps");
    (0..steps).map(|i| bounds.0 + (bounds.1 - bounds.0) * i as f64 / (steps - 1) as f64).collect()
}

/// Run RVO over a scan series. `mask` (if given) restricts the fit to
/// brain voxels, as the domain decomposition of the brain does on the
/// T3E; unmasked voxels report zero correlation and canonical parameters.
pub fn optimize(
    series: &[Volume],
    stimulus: &Stimulus,
    bounds: RvoBounds,
    method: RvoMethod,
    mask: Option<&[bool]>,
) -> RvoResult {
    assert!(!series.is_empty(), "RVO needs at least one scan");
    let dims = series[0].dims;
    assert!(series.iter().all(|v| v.dims == dims), "inconsistent series dims");
    assert_eq!(stimulus.len(), series.len(), "stimulus/series length mismatch");
    if let Some(m) = mask {
        assert_eq!(m.len(), dims.len(), "mask length mismatch");
    }

    let (delays, dispersions, refine_iters) = match method {
        RvoMethod::FullGrid { delay_steps, dispersion_steps } => {
            (grid(bounds.delay_s, delay_steps), grid(bounds.dispersion_s, dispersion_steps), 0)
        }
        RvoMethod::CoarseRefine { delay_steps, dispersion_steps, refine_iters } => (
            grid(bounds.delay_s, delay_steps),
            grid(bounds.dispersion_s, dispersion_steps),
            refine_iters,
        ),
    };
    // Precompute the raster's reference vectors (shared across voxels).
    let raster: Vec<(f64, f64, ReferenceVector)> = delays
        .iter()
        .flat_map(|&d| {
            let dispersions = &dispersions;
            dispersions
                .iter()
                .map(move |&w| (d, w, ReferenceVector::from_stimulus(stimulus, d, w)))
                .collect::<Vec<_>>()
        })
        .collect();

    let evaluations = AtomicU64::new(0);
    let n_vox = dims.len();
    let mut delay_out = vec![0.0f32; n_vox];
    let mut disp_out = vec![0.0f32; n_vox];
    let mut corr_out = vec![0.0f32; n_vox];

    let chunks = delay_out
        .chunks_mut(VOXEL_CHUNK)
        .zip(disp_out.chunks_mut(VOXEL_CHUNK))
        .zip(corr_out.chunks_mut(VOXEL_CHUNK))
        .enumerate();
    gtw_par::for_each(chunks, |(k, ((d_chunk, w_chunk), c_chunk))| {
        let mut voxel = CentredVoxel::new(series.len());
        let mut evals = 0u64;
        let outs = d_chunk.iter_mut().zip(w_chunk).zip(c_chunk);
        for (idx, ((d_out, w_out), c_out)) in (k * VOXEL_CHUNK..).zip(outs) {
            if mask.is_some_and(|m| !m[idx]) {
                *d_out = gtw_scan::hrf::CANONICAL_DELAY_S as f32;
                *w_out = gtw_scan::hrf::CANONICAL_DISPERSION_S as f32;
                continue;
            }
            voxel.load(series, idx);
            // Raster.
            let (mut best_d, mut best_w, mut best_c) = (delays[0], dispersions[0], f64::MIN);
            for (d, w, rv) in &raster {
                let c = voxel.correlate(rv);
                evals += 1;
                if c > best_c {
                    best_c = c;
                    best_d = *d;
                    best_w = *w;
                }
            }
            // Optional refinement: per-axis parabolic steps with halving
            // radius, the CG-flavoured local search of the paper's
            // outlook.
            if refine_iters > 0 {
                let mut h_d =
                    (bounds.delay_s.1 - bounds.delay_s.0) / (delays.len() - 1) as f64 / 2.0;
                let mut h_w = (bounds.dispersion_s.1 - bounds.dispersion_s.0)
                    / (dispersions.len() - 1) as f64
                    / 2.0;
                let mut eval = |d: f64, w: f64| {
                    evals += 1;
                    voxel.correlate(&ReferenceVector::from_stimulus(stimulus, d, w))
                };
                for _ in 0..refine_iters {
                    // Delay axis.
                    let lo = (best_d - h_d).max(bounds.delay_s.0);
                    let hi = (best_d + h_d).min(bounds.delay_s.1);
                    for cand in [lo, hi] {
                        let c = eval(cand, best_w);
                        if c > best_c {
                            best_c = c;
                            best_d = cand;
                        }
                    }
                    // Dispersion axis.
                    let lo = (best_w - h_w).max(bounds.dispersion_s.0);
                    let hi = (best_w + h_w).min(bounds.dispersion_s.1);
                    for cand in [lo, hi] {
                        let c = eval(best_d, cand);
                        if c > best_c {
                            best_c = c;
                            best_w = cand;
                        }
                    }
                    h_d /= 2.0;
                    h_w /= 2.0;
                }
            }
            *d_out = best_d as f32;
            *w_out = best_w as f32;
            *c_out = best_c as f32;
        }
        // An integer sum: the one cross-chunk reduction, order-free.
        evaluations.fetch_add(evals, Ordering::Relaxed);
    });

    RvoResult {
        delay: Volume::from_vec(dims, delay_out),
        dispersion: Volume::from_vec(dims, disp_out),
        correlation: Volume::from_vec(dims, corr_out),
        evaluations: evaluations.load(Ordering::Relaxed),
    }
}

/// Build a brain mask from a mean image: voxels above `floor`.
pub fn intensity_mask(mean_image: &Volume, floor: f32) -> Vec<bool> {
    mean_image.data.iter().map(|&v| v > floor).collect()
}

/// Parameter-recovery error statistics against ground truth (for masked
/// voxels only): mean absolute delay and dispersion error.
pub fn recovery_error(
    result: &RvoResult,
    mask: &[bool],
    true_delay_s: f64,
    true_dispersion_s: f64,
) -> (f64, f64) {
    let mut d_err = 0.0;
    let mut w_err = 0.0;
    let mut n = 0usize;
    for (i, &m) in mask.iter().enumerate() {
        if m {
            d_err += (result.delay.data[i] as f64 - true_delay_s).abs();
            w_err += (result.dispersion.data[i] as f64 - true_dispersion_s).abs();
            n += 1;
        }
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    (d_err / n as f64, w_err / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_desim::StreamRng;
    use gtw_scan::hrf::raw_convolution;
    use gtw_scan::volume::Dims;

    /// Build a tiny series where every "brain" voxel follows the HRF at
    /// (true_delay, true_disp) plus noise, and air voxels are pure noise.
    fn synthetic_series(
        dims: Dims,
        scans: usize,
        true_delay: f64,
        true_disp: f64,
        noise: f32,
        seed: u64,
    ) -> (Vec<Volume>, Stimulus, Vec<bool>) {
        let stim = Stimulus::block_design(6, 6, scans, 2.0);
        let resp = raw_convolution(&stim, true_delay, true_disp);
        let peak = resp.iter().cloned().fold(0.0f64, f64::max);
        let mut rng = StreamRng::new(seed, "rvo-test");
        let mask: Vec<bool> = (0..dims.len()).map(|i| i % 3 != 0).collect();
        let series: Vec<Volume> = (0..scans)
            .map(|t| {
                let mut v = Volume::zeros(dims);
                for (i, &m) in mask.iter().enumerate() {
                    let base = if m { 100.0 } else { 0.0 };
                    let sig = if m { 5.0 * (resp[t] / peak) as f32 } else { 0.0 };
                    v.data[i] = base + sig + noise * rng.normal() as f32;
                }
                v
            })
            .collect();
        (series, stim, mask)
    }

    #[test]
    fn full_grid_recovers_parameters() {
        let dims = Dims::new(6, 6, 2);
        let (series, stim, mask) = synthetic_series(dims, 36, 5.0, 1.25, 0.3, 1);
        let res = optimize(
            &series,
            &stim,
            RvoBounds::default(),
            RvoMethod::FullGrid { delay_steps: 13, dispersion_steps: 7 },
            Some(&mask),
        );
        let (d_err, w_err) = recovery_error(&res, &mask, 5.0, 1.25);
        assert!(d_err < 0.5, "delay error {d_err}");
        assert!(w_err < 0.35, "dispersion error {w_err}");
        // Fitted correlation is near-perfect at low noise.
        for (i, &m) in mask.iter().enumerate() {
            if m {
                assert!(res.correlation.data[i] > 0.9, "voxel {i}");
            }
        }
    }

    #[test]
    fn optimized_beats_canonical_reference() {
        // A subject with a slow HRF (delay 8 s): the canonical reference
        // under-detects; RVO recovers the sensitivity. This is the
        // paper's stated motivation for RVO.
        let dims = Dims::new(5, 5, 2);
        let (series, stim, mask) = synthetic_series(dims, 36, 8.0, 1.5, 1.0, 2);
        let canonical = ReferenceVector::canonical(&stim);
        let res =
            optimize(&series, &stim, RvoBounds::default(), RvoMethod::paper_grid(), Some(&mask));
        let mut canon_mean = 0.0f64;
        let mut rvo_mean = 0.0f64;
        let mut n = 0;
        for (i, &m) in mask.iter().enumerate() {
            if m {
                let voxel: Vec<f32> = series.iter().map(|v| v.data[i]).collect();
                canon_mean += canonical.correlate(&voxel);
                rvo_mean += res.correlation.data[i] as f64;
                n += 1;
            }
        }
        canon_mean /= n as f64;
        rvo_mean /= n as f64;
        assert!(
            rvo_mean > canon_mean + 0.05,
            "RVO should improve sensitivity: canonical {canon_mean} vs RVO {rvo_mean}"
        );
    }

    #[test]
    fn coarse_refine_is_cheaper_and_close() {
        let dims = Dims::new(6, 6, 2);
        let (series, stim, mask) = synthetic_series(dims, 36, 5.5, 1.0, 0.3, 3);
        let full =
            optimize(&series, &stim, RvoBounds::default(), RvoMethod::paper_grid(), Some(&mask));
        let refined =
            optimize(&series, &stim, RvoBounds::default(), RvoMethod::paper_refined(), Some(&mask));
        assert!(
            refined.evaluations < full.evaluations / 2,
            "refined {} vs full {} evaluations",
            refined.evaluations,
            full.evaluations
        );
        let (d_full, _) = recovery_error(&full, &mask, 5.5, 1.0);
        let (d_ref, _) = recovery_error(&refined, &mask, 5.5, 1.0);
        assert!(d_ref < d_full + 0.3, "refined delay error {d_ref} vs full {d_full}");
    }

    #[test]
    fn masked_voxels_report_canonical() {
        let dims = Dims::new(4, 4, 1);
        let (series, stim, mask) = synthetic_series(dims, 24, 6.0, 1.0, 0.2, 4);
        let res = optimize(
            &series,
            &stim,
            RvoBounds::default(),
            RvoMethod::FullGrid { delay_steps: 5, dispersion_steps: 3 },
            Some(&mask),
        );
        for (i, &m) in mask.iter().enumerate() {
            if !m {
                assert_eq!(res.correlation.data[i], 0.0);
                assert_eq!(res.delay.data[i], 6.0);
            }
        }
    }

    #[test]
    fn results_within_bounds() {
        let dims = Dims::new(4, 4, 2);
        let (series, stim, _) = synthetic_series(dims, 24, 6.0, 1.0, 3.0, 5);
        let b = RvoBounds::default();
        let res = optimize(&series, &stim, b, RvoMethod::paper_refined(), None);
        for i in 0..dims.len() {
            let d = res.delay.data[i] as f64;
            let w = res.dispersion.data[i] as f64;
            assert!(d >= b.delay_s.0 - 1e-9 && d <= b.delay_s.1 + 1e-9);
            assert!(w >= b.dispersion_s.0 - 1e-9 && w <= b.dispersion_s.1 + 1e-9);
        }
    }

    /// The raster as it was before the voxel was centred once: one
    /// `ReferenceVector::correlate` per (voxel, raster point).
    fn reference_raster(
        series: &[Volume],
        stim: &Stimulus,
        steps: (usize, usize),
    ) -> [Vec<u32>; 3] {
        let b = RvoBounds::default();
        let mut out = [vec![], vec![], vec![]];
        for idx in 0..series[0].dims.len() {
            let voxel: Vec<f32> = series.iter().map(|v| v.data[idx]).collect();
            let mut best = (f64::NAN, f64::NAN, f64::MIN);
            for &d in &grid(b.delay_s, steps.0) {
                for &w in &grid(b.dispersion_s, steps.1) {
                    let c = ReferenceVector::from_stimulus(stim, d, w).correlate(&voxel);
                    if c > best.2 {
                        best = (d, w, c);
                    }
                }
            }
            for (map, v) in out.iter_mut().zip([best.0, best.1, best.2]) {
                map.push((v as f32).to_bits());
            }
        }
        out
    }

    fn result_bits(res: &RvoResult) -> [Vec<u32>; 3] {
        [&res.delay, &res.dispersion, &res.correlation]
            .map(|m| m.data.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn hoisted_kernel_matches_reference_correlate_bit_for_bit() {
        let dims = Dims::new(16, 16, 4);
        let (mut series, stim, _) = synthetic_series(dims, 32, 5.5, 1.25, 4.0, 6);
        // A constant voxel (Σd² = 0) correlates with nothing.
        for v in &mut series {
            v.data[7] = 42.0;
        }
        let method = RvoMethod::FullGrid { delay_steps: 13, dispersion_steps: 7 };
        let res = optimize(&series, &stim, RvoBounds::default(), method, None);
        assert_eq!(result_bits(&res), reference_raster(&series, &stim, (13, 7)));
        assert_eq!(res.evaluations, (dims.len() * 13 * 7) as u64);
        // ... and reports the first raster point with correlation 0.
        let b = RvoBounds::default();
        assert_eq!(res.correlation.data[7], 0.0);
        assert_eq!(res.delay.data[7], b.delay_s.0 as f32);
        assert_eq!(res.dispersion.data[7], b.dispersion_s.0 as f32);
    }

    #[test]
    fn single_scan_series_correlates_zero_everywhere() {
        // Fewer than two scans: no correlation is defined, whatever the
        // values (an infinite one would otherwise turn Σd² into NaN).
        let dims = Dims::new(3, 2, 1);
        let mut scan = Volume::filled(dims, 100.0);
        scan.data[1] = f32::INFINITY;
        let stim = Stimulus { course: vec![1.0], tr_s: 2.0 };
        let b = RvoBounds::default();
        for method in [RvoMethod::paper_grid(), RvoMethod::paper_refined()] {
            let res = optimize(std::slice::from_ref(&scan), &stim, b, method, None);
            assert_eq!(result_bits(&res), reference_raster(&[scan.clone()], &stim, (2, 2)));
            assert!(res.correlation.data.iter().all(|&c| c == 0.0));
            assert!(res.delay.data.iter().all(|&d| d == b.delay_s.0 as f32));
        }
    }

    #[test]
    fn intensity_mask_splits_air_from_brain() {
        let mut v = Volume::zeros(Dims::new(2, 2, 1));
        v.data = vec![0.0, 120.0, 800.0, 40.0];
        assert_eq!(intensity_mask(&v, 50.0), vec![false, true, true, false]);
    }
}
