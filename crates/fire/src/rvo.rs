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
//!
//! The raster is one matrix product, centred voxels × reference vectors,
//! computed a register tile at a time (`TILE_VOXELS` × `TILE_REFS` dot
//! products per walk of the scans). Each dot product keeps its own
//! accumulator and its own summation order, so the result is the bits
//! of correlating one voxel with one vector at a time. The fit of a
//! chunk of voxels is one body compiled twice, for the baseline target
//! and for AVX2, and `optimize` picks the widest the CPU has at run
//! time: the same multiplies and adds in the same order, the same bits.

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

/// Voxels per register tile of the raster product.
const TILE_VOXELS: usize = 4;
/// Reference vectors per register tile of the raster product.
const TILE_REFS: usize = 4;

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
    #[inline(always)]
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

    /// The correlation whose numerator is `dot`, the loaded voxel's dot
    /// product with a reference vector (whose `values` already have zero
    /// mean and unit norm).
    #[inline(always)]
    fn score(&self, dot: f64) -> f64 {
        if self.norm == 0.0 {
            return 0.0;
        }
        (dot / self.norm).clamp(-1.0, 1.0)
    }

    /// Pearson correlation of the loaded voxel against `rv`.
    fn correlate(&self, rv: &ReferenceVector) -> f64 {
        let mut dot = 0.0;
        for (d, r) in self.d.iter().zip(&rv.values) {
            dot += d * r;
        }
        self.score(dot)
    }
}

/// The raster's reference vectors as one scan-major table, so a block of
/// voxels is correlated against all of them as one matrix product.
struct Raster {
    /// `(delay, dispersion)` per raster point, delay-major: the order the
    /// best fit is searched in.
    points: Vec<(f64, f64)>,
    /// `table[t * points.len() + j]` is scan `t` of point `j`'s vector.
    table: Vec<f64>,
}

impl Raster {
    /// The raster of `steps` points per axis over `bounds`.
    fn new(stimulus: &Stimulus, bounds: RvoBounds, steps: (usize, usize)) -> Self {
        let delays = grid(bounds.delay_s, steps.0);
        let dispersions = grid(bounds.dispersion_s, steps.1);
        let points: Vec<(f64, f64)> =
            delays.iter().flat_map(|&d| dispersions.iter().map(move |&w| (d, w))).collect();
        let r = points.len();
        let mut table = vec![0.0; stimulus.len() * r];
        for (j, &(d, w)) in points.iter().enumerate() {
            let rv = ReferenceVector::from_stimulus(stimulus, d, w);
            for (row, v) in table.chunks_exact_mut(r).zip(rv.values) {
                row[j] = v;
            }
        }
        Raster { points, table }
    }

    /// `dots[v * R + j]` = the dot product of `block[v]` with point `j`'s
    /// vector, for the first `V` voxels of `block` and all `R` points:
    /// whole tiles of [`TILE_REFS`] points, then the ragged rest one
    /// point at a time.
    #[inline(always)]
    fn dots<const V: usize>(&self, block: &[CentredVoxel], dots: &mut [f64]) {
        let r = self.points.len();
        let mut j0 = 0;
        while j0 + TILE_REFS <= r {
            self.tile::<V, TILE_REFS>(block, j0, dots);
            j0 += TILE_REFS;
        }
        for j in j0..r {
            self.tile::<V, 1>(block, j, dots);
        }
    }

    /// One register tile: `V × J` accumulators, one per (voxel, point)
    /// pair, over one walk of the scans. Each starts at `+0.0` and adds
    /// `d[t] * r[t]` in scan order with a separate multiply and add, so
    /// it rounds exactly as [`CentredVoxel::correlate`]'s `dot` does;
    /// only the interleaving of pairs differs.
    #[inline(always)]
    fn tile<const V: usize, const J: usize>(
        &self,
        block: &[CentredVoxel],
        j0: usize,
        dots: &mut [f64],
    ) {
        let r = self.points.len();
        let scans = self.table.len() / r;
        let d: [&[f64]; V] = std::array::from_fn(|v| &block[v].d[..scans]);
        let mut acc = [[0.0f64; J]; V];
        for (t, row) in self.table.chunks_exact(r).enumerate() {
            let row = &row[j0..j0 + J];
            for (acc, d) in acc.iter_mut().zip(&d) {
                let x = d[t];
                for (a, &y) in acc.iter_mut().zip(row) {
                    *a += x * y;
                }
            }
        }
        for (v, acc) in acc.iter().enumerate() {
            dots[v * r + j0..v * r + j0 + J].copy_from_slice(acc);
        }
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

    let (steps, refine_iters) = match method {
        RvoMethod::FullGrid { delay_steps, dispersion_steps } => {
            ((delay_steps, dispersion_steps), 0)
        }
        RvoMethod::CoarseRefine { delay_steps, dispersion_steps, refine_iters } => {
            ((delay_steps, dispersion_steps), refine_iters)
        }
    };
    // The raster's reference vectors, shared across voxels.
    let raster = Raster::new(stimulus, bounds, steps);
    let shared =
        Chunk { series, stimulus, bounds, raster: &raster, steps, refine_iters, mask, base: 0 };
    // Which instance of the raster this host runs, read once.
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");

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
    gtw_par::for_each(chunks, |(k, ((d, w), c))| {
        let job = Chunk { base: k * VOXEL_CHUNK, ..shared };
        #[cfg(target_arch = "x86_64")]
        let evals = if avx2 {
            // SAFETY: `avx2` is set only when this CPU reports AVX2.
            unsafe { fit_chunk_avx2(&job, d, w, c) }
        } else {
            fit_chunk(&job, d, w, c)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let evals = fit_chunk(&job, d, w, c);
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

/// One chunk of voxels to fit, with what every chunk of one [`optimize`]
/// call shares.
#[derive(Clone, Copy)]
struct Chunk<'a> {
    series: &'a [Volume],
    stimulus: &'a Stimulus,
    bounds: RvoBounds,
    raster: &'a Raster,
    /// Raster points per axis, (delay, dispersion).
    steps: (usize, usize),
    refine_iters: usize,
    mask: Option<&'a [bool]>,
    /// Voxel index of the chunk's first voxel.
    base: usize,
}

/// Fit the voxels of `job` into `d_chunk`, `w_chunk` and `c_chunk` (one
/// entry per voxel, from `job.base` on) and return the evaluations made.
/// Always inlined, together with the raster kernels it calls, so each
/// instance — this baseline one and [`fit_chunk_avx2`] — compiles the
/// whole fit for its own vector width.
#[inline(always)]
fn fit_chunk(job: &Chunk, d_chunk: &mut [f32], w_chunk: &mut [f32], c_chunk: &mut [f32]) -> u64 {
    let raster = job.raster;
    let r = raster.points.len();
    // Masked voxels take the canonical parameters; the rest are fitted
    // in blocks of `TILE_VOXELS`, in voxel order.
    let mut fitted = Vec::with_capacity(d_chunk.len());
    for (i, (d_out, w_out)) in d_chunk.iter_mut().zip(w_chunk.iter_mut()).enumerate() {
        if job.mask.is_some_and(|m| !m[job.base + i]) {
            *d_out = gtw_scan::hrf::CANONICAL_DELAY_S as f32;
            *w_out = gtw_scan::hrf::CANONICAL_DISPERSION_S as f32;
        } else {
            fitted.push(i);
        }
    }
    let mut block: Vec<CentredVoxel> =
        (0..TILE_VOXELS).map(|_| CentredVoxel::new(job.series.len())).collect();
    let mut dots = vec![0.0; TILE_VOXELS * r];
    let mut evals = 0u64;
    let (d0, w0) = raster.points[0];
    for ids in fitted.chunks(TILE_VOXELS) {
        for (voxel, &i) in block.iter_mut().zip(ids) {
            voxel.load(job.series, job.base + i);
        }
        if ids.len() == TILE_VOXELS {
            raster.dots::<TILE_VOXELS>(&block, &mut dots);
        } else {
            for v in 0..ids.len() {
                raster.dots::<1>(&block[v..], &mut dots[v * r..]);
            }
        }
        for ((voxel, &i), dots) in block.iter().zip(ids).zip(dots.chunks_exact(r)) {
            // Raster, in point order.
            let mut best = (d0, w0, f64::MIN);
            for (&(d, w), &dot) in raster.points.iter().zip(dots) {
                let c = voxel.score(dot);
                evals += 1;
                if c > best.2 {
                    best = (d, w, c);
                }
            }
            if job.refine_iters > 0 {
                best = refine(
                    voxel,
                    job.stimulus,
                    job.bounds,
                    job.steps,
                    job.refine_iters,
                    best,
                    &mut evals,
                );
            }
            d_chunk[i] = best.0 as f32;
            w_chunk[i] = best.1 as f32;
            c_chunk[i] = best.2 as f32;
        }
    }
    evals
}

/// [`fit_chunk`] compiled for AVX2: its register tiles take four `f64`
/// lanes where the baseline x86-64 target has two. The separate
/// multiplies and adds run in the same order per accumulator (Rust never
/// fuses them), so every output has the baseline instance's bits.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fit_chunk_avx2(
    job: &Chunk,
    d_chunk: &mut [f32],
    w_chunk: &mut [f32],
    c_chunk: &mut [f32],
) -> u64 {
    fit_chunk(job, d_chunk, w_chunk, c_chunk)
}

/// Optional refinement of the `(delay, dispersion, correlation)` `best`
/// found on a raster of `steps` points per axis: `iters` rounds of
/// per-axis parabolic steps with radius halving from half a raster
/// step, the CG-flavoured local search of the paper's outlook. Every
/// candidate is one more evaluation.
fn refine(
    voxel: &CentredVoxel,
    stimulus: &Stimulus,
    bounds: RvoBounds,
    steps: (usize, usize),
    iters: usize,
    (mut best_d, mut best_w, mut best_c): (f64, f64, f64),
    evals: &mut u64,
) -> (f64, f64, f64) {
    let mut h_d = (bounds.delay_s.1 - bounds.delay_s.0) / (steps.0 - 1) as f64 / 2.0;
    let mut h_w = (bounds.dispersion_s.1 - bounds.dispersion_s.0) / (steps.1 - 1) as f64 / 2.0;
    let mut eval = |d: f64, w: f64| {
        *evals += 1;
        voxel.correlate(&ReferenceVector::from_stimulus(stimulus, d, w))
    };
    for _ in 0..iters {
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
    (best_d, best_w, best_c)
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
    use proptest::prelude::*;

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

    /// The raster as it was before the voxel was centred once and before
    /// it became a blocked product: one `ReferenceVector::correlate` per
    /// (voxel, raster point). `tests/proptests.rs` holds the same loop
    /// to `optimize` over random shapes, masks and non-finite voxels.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The AVX2 instance of [`fit_chunk`] has the baseline one's bits
        /// and evaluation count: ragged voxel tiles and point tiles, any
        /// scan count and grid, the full raster and the refined one, with
        /// and without a mask, over constant, non-finite and signed-zero
        /// voxels, in a chunk that starts anywhere.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn both_instances_fit_every_chunk_alike(
            shape in (0usize..2700, 0usize..8),
            scans in 1usize..=40,
            steps in (2usize..15, 2usize..9),
            refine in (any::<bool>(), 1usize..5),
            masked in any::<bool>(),
            seed in any::<u64>(),
        ) {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("no AVX2 on this host: only the baseline instance runs, nothing compared");
                return Ok(());
            }
            let (voxels, skip) = shape;
            let dims = Dims::new(voxels, 1, 1);
            let mut rng = StreamRng::new(seed, "rvo-instances");
            // Per voxel: mostly noise, some constant, some holding one NaN,
            // infinity or −0.0 at a random scan, some ±0.0 throughout.
            let kinds: Vec<(u64, usize)> = (0..voxels)
                .map(|_| (rng.below(16), rng.below(scans as u64) as usize))
                .collect();
            let series: Vec<Volume> = (0..scans)
                .map(|t| {
                    let data = kinds.iter().map(|&(kind, at)| match kind {
                        0 => 42.0,
                        1 if t == at => f32::NAN,
                        2 if t == at => f32::INFINITY,
                        3 if t == at => f32::NEG_INFINITY,
                        4 if t == at => -0.0,
                        4 => 0.0,
                        5 if t == at => -0.0,
                        _ => 100.0 + 20.0 * rng.normal() as f32,
                    });
                    Volume::from_vec(dims, data.collect())
                })
                .collect();
            let mask: Vec<bool> = (0..voxels).map(|_| rng.below(4) != 0).collect();
            let stimulus = Stimulus::block_design(4, 4, scans, 2.0);
            let bounds = RvoBounds::default();
            let raster = Raster::new(&stimulus, bounds, steps);
            let job = Chunk {
                series: &series,
                stimulus: &stimulus,
                bounds,
                raster: &raster,
                steps,
                // 0 is the full raster, more the coarse one refined.
                refine_iters: if refine.0 { refine.1 } else { 0 },
                mask: masked.then_some(&mask[..]),
                base: skip.min(voxels),
            };
            let len = voxels - job.base;
            let mut baseline = [vec![0.0f32; len], vec![0.0; len], vec![0.0; len]];
            let mut avx2 = baseline.clone();
            let [d, w, c] = &mut baseline;
            let baseline_evals = fit_chunk(&job, d, w, c);
            let [d, w, c] = &mut avx2;
            // SAFETY: this CPU reported AVX2 above.
            let avx2_evals = unsafe { fit_chunk_avx2(&job, d, w, c) };
            let bits = |out: [Vec<f32>; 3]| {
                out.map(|m| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            prop_assert!(
                bits(baseline) == bits(avx2),
                "{len} voxels from {} × {scans} scans, grid {steps:?}, refine {refine:?}",
                job.base
            );
            prop_assert_eq!(baseline_evals, avx2_evals);
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn both_instances_fit_every_chunk_alike() {
        eprintln!("no AVX2 instance on this target: nothing compared");
    }

    #[test]
    fn intensity_mask_splits_air_from_brain() {
        let mut v = Volume::zeros(Dims::new(2, 2, 1));
        v.data = vec![0.0, 120.0, 800.0, 40.0];
        assert_eq!(intensity_mask(&v, 50.0), vec![false, true, true, false]);
    }
}
