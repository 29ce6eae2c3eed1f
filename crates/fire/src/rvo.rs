//! Reference-vector optimization (RVO): "on the T3E, a fully automatic
//! least-squares fit of delay and duration is performed for each voxel
//! during the measurement. The procedure rasters the parameter space to
//! find the global minimum."
//!
//! For each voxel the HRF parameters (delay, dispersion) maximizing the
//! correlation with the measured series are found — equivalently, the
//! least-squares amplitude fit with minimal residual, since the reference
//! vectors are unit-normalized. The method is the paper's production one,
//! [`RvoMethod::FullGrid`]: raster the whole parameter space (this
//! dominates Table 1's runtime).
//!
//! The raster is one matrix product, centred voxels × reference vectors,
//! computed a register tile at a time: `V` neighbouring voxels, one per
//! vector lane, times `J` points, over one walk of the scans. Each dot
//! product keeps its own accumulator and its own summation order, so the
//! result is the bits of correlating one voxel with one vector at a time;
//! the best point is the old walk's first strict improvement, run on all
//! lanes at once. The fit of a chunk is one body compiled three times:
//! 4 × 4 tiles for the baseline target and AVX2, 8 × 8 for AVX-512F, and
//! `optimize` picks the widest the CPU has at run time: the same
//! multiplies, adds and divisions per (voxel, point), the same bits.

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
}

impl RvoMethod {
    /// The paper's production setting: a fine raster.
    pub fn paper_grid() -> Self {
        RvoMethod::FullGrid { delay_steps: 13, dispersion_steps: 7 }
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
    /// Total reference-vector correlation evaluations: raster points
    /// times fitted voxels.
    pub evaluations: u64,
}

/// A block of `V` voxels' time series with their means removed, one lane
/// per voxel, kept so the raster correlates them against many reference
/// vectors without re-deriving the mean, the centred series and Σd² each
/// time. [`CentredBlock::correlate`] returns the bits
/// [`ReferenceVector::correlate`] would: the same sums in the same operand
/// order.
struct CentredBlock<const V: usize> {
    /// `d[t][v]` = `x[t] − mean` of lane `v`, one row per scan.
    d: Vec<[f64; V]>,
    /// Per lane `sqrt(Σd²)`, or 0 for a series that correlates with
    /// nothing (fewer than two scans, or constant).
    norm: [f64; V],
}

impl<const V: usize> CentredBlock<V> {
    fn new(scans: usize) -> Self {
        CentredBlock { d: vec![[0.0; V]; scans], norm: [0.0; V] }
    }

    /// Centre the `W` contiguous voxels from `idx` on into lanes `lane..
    /// lane + W`: one `W`-wide read per volume and pass, and each lane's
    /// sums in scan order.
    #[inline(always)]
    fn load<const W: usize>(&mut self, series: &[Volume], idx: usize, lane: usize) {
        let n = series.len() as f64;
        let read = |vol: &Volume| -> [f64; W] {
            let x: &[f32; W] = vol.data[idx..idx + W].try_into().expect("W voxels");
            x.map(f64::from)
        };
        // From `-0.0`, where `Iterator::sum` starts.
        let sum =
            series.iter().map(read).fold([-0.0; W], |s, x| std::array::from_fn(|k| s[k] + x[k]));
        let mean = sum.map(|s| s / n);
        let mut ss = [0.0f64; W];
        for (row, vol) in self.d.iter_mut().zip(series) {
            let x = read(vol);
            let d: [f64; W] = std::array::from_fn(|k| x[k] - mean[k]);
            for k in 0..W {
                ss[k] += d[k] * d[k];
            }
            row[lane..lane + W].copy_from_slice(&d);
        }
        for (norm, ss) in self.norm[lane..lane + W].iter_mut().zip(ss) {
            *norm = if n < 2.0 || ss <= 0.0 { 0.0 } else { ss.sqrt() };
        }
    }
}

/// The best raster point of each lane, with its correlation: `dots[j][v]`
/// is lane `v`'s dot product with point `j`. Per lane it is the first
/// strict improvement over `f64::MIN` in point order, so of equal
/// (`==`, ±0.0 alike) scores the first wins, a NaN score never does, and
/// a lane of NaNs keeps point 0 with `f64::MIN`. The lanes run side by
/// side: one vector divide, clamp, compare and select per point. A lane
/// of norm 0 scores 0 everywhere, so point 0 wins it with 0; it is
/// divided like the rest and its result set afterwards, which keeps the
/// walk free of branches.
#[inline(always)]
fn best_points<const V: usize>(dots: &[[f64; V]], norm: &[f64; V]) -> ([usize; V], [f64; V]) {
    let mut best = [f64::MIN; V];
    let mut at = [0; V];
    for (j, dots) in dots.iter().enumerate() {
        for v in 0..V {
            let c = (dots[v] / norm[v]).clamp(-1.0, 1.0);
            let up = c > best[v];
            best[v] = if up { c } else { best[v] };
            at[v] = if up { j } else { at[v] };
        }
    }
    for v in 0..V {
        if norm[v] == 0.0 {
            (at[v], best[v]) = (0, 0.0);
        }
    }
    (at, best)
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

    /// `dots[j][v]` = the dot product of lane `v` of `block` with point
    /// `j`'s vector, for all `R` points: whole tiles of `J` points, then
    /// the ragged rest one point at a time.
    #[inline(always)]
    fn dots<const V: usize, const J: usize>(&self, block: &CentredBlock<V>, dots: &mut [[f64; V]]) {
        let r = self.points.len();
        let mut j0 = 0;
        while j0 + J <= r {
            self.tile::<V, J>(block, j0, dots);
            j0 += J;
        }
        for j in j0..r {
            self.tile::<V, 1>(block, j, dots);
        }
    }

    /// One register tile: `V × J` accumulators, one per (voxel, point)
    /// pair, over one walk of the scans. Each starts at `+0.0` and adds
    /// `d[t] * r[t]` in scan order with a separate multiply and add, so
    /// it rounds exactly as [`CentredBlock::correlate`]'s `dot` does;
    /// only the interleaving of pairs differs.
    #[inline(always)]
    fn tile<const V: usize, const J: usize>(
        &self,
        block: &CentredBlock<V>,
        j0: usize,
        dots: &mut [[f64; V]],
    ) {
        let r = self.points.len();
        let mut acc = [[0.0f64; V]; J];
        for (row, d) in self.table.chunks_exact(r).zip(&block.d) {
            let y: &[f64; J] = row[j0..j0 + J].try_into().expect("J points");
            for j in 0..J {
                for v in 0..V {
                    acc[j][v] += d[v] * y[j];
                }
            }
        }
        dots[j0..j0 + J].copy_from_slice(&acc);
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

    let RvoMethod::FullGrid { delay_steps, dispersion_steps } = method;
    // The raster's reference vectors, shared across voxels.
    let raster = Raster::new(stimulus, bounds, (delay_steps, dispersion_steps));
    let shared = Chunk { series, raster: &raster, mask, base: 0 };
    // Which instance of the raster this host runs, read once: the widest.
    #[cfg(target_arch = "x86_64")]
    let fit = if std::arch::is_x86_feature_detected!("avx512f") {
        fit_chunk_avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        fit_chunk_avx2
    } else {
        fit_chunk::<4, 4>
    };

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
        // SAFETY: `fit` is an instance whose target features this CPU reported.
        let evals = unsafe { fit(&job, d, w, c) };
        #[cfg(not(target_arch = "x86_64"))]
        let evals = fit_chunk::<4, 4>(&job, d, w, c);
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
    raster: &'a Raster,
    mask: Option<&'a [bool]>,
    /// Voxel index of the chunk's first voxel.
    base: usize,
}

/// Fit the voxels of `job` into `d_chunk`, `w_chunk` and `c_chunk` (one
/// entry per voxel, from `job.base` on) and return the evaluations made,
/// `V` voxels and `J` raster points per register tile. Always inlined,
/// together with the raster kernels it calls, so each instance — this
/// baseline one at 4 × 4, [`fit_chunk_avx2`] and [`fit_chunk_avx512`] —
/// compiles the whole fit for its own vector width.
#[inline(always)]
fn fit_chunk<const V: usize, const J: usize>(
    job: &Chunk,
    d_chunk: &mut [f32],
    w_chunk: &mut [f32],
    c_chunk: &mut [f32],
) -> u64 {
    let raster = job.raster;
    let r = raster.points.len();
    // Masked voxels take the canonical parameters; the rest are fitted
    // in blocks of `V`, in voxel order.
    let mut fitted = Vec::with_capacity(d_chunk.len());
    for (i, (d_out, w_out)) in d_chunk.iter_mut().zip(w_chunk.iter_mut()).enumerate() {
        if job.mask.is_some_and(|m| !m[job.base + i]) {
            *d_out = gtw_scan::hrf::CANONICAL_DELAY_S as f32;
            *w_out = gtw_scan::hrf::CANONICAL_DISPERSION_S as f32;
        } else {
            fitted.push(i);
        }
    }
    let mut block = CentredBlock::<V>::new(job.series.len());
    let mut dots = vec![[0.0; V]; r];
    let mut evals = 0u64;
    for ids in fitted.chunks(V) {
        // A run of `V` neighbours is one `V`-wide read per volume, a masked
        // or ragged block a lane at a time; lanes past a ragged block's end
        // keep stale voxels whose fits are not read.
        if ids.len() == V && ids[V - 1] - ids[0] == V - 1 {
            block.load::<V>(job.series, job.base + ids[0], 0);
        } else {
            for (lane, &i) in ids.iter().enumerate() {
                block.load::<1>(job.series, job.base + i, lane);
            }
        }
        raster.dots::<V, J>(&block, &mut dots);
        let (at, best) = best_points(&dots, &block.norm);
        for (lane, &i) in ids.iter().enumerate() {
            let (d, w) = raster.points[at[lane]];
            evals += r as u64;
            d_chunk[i] = d as f32;
            w_chunk[i] = w as f32;
            c_chunk[i] = best[lane] as f32;
        }
    }
    evals
}

/// [`fit_chunk`] compiled for AVX2, 4 × 4 tiles: four `f64` lanes where
/// the baseline x86-64 target has two. The separate multiplies and adds
/// run in the same order per accumulator (Rust never fuses them), so
/// every output has the baseline instance's bits.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fit_chunk_avx2(job: &Chunk, d: &mut [f32], w: &mut [f32], c: &mut [f32]) -> u64 {
    fit_chunk::<4, 4>(job, d, w, c)
}

/// [`fit_chunk`] compiled for AVX-512F, 8 × 8 tiles: a block of eight
/// voxels is one eight-lane vector, and a tile's 64 accumulators are
/// eight of the 32 vector registers (a tile that size spills on AVX2's
/// 16). The same bits as the baseline instance, for the same reason.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fit_chunk_avx512(job: &Chunk, d: &mut [f32], w: &mut [f32], c: &mut [f32]) -> u64 {
    fit_chunk::<8, 8>(job, d, w, c)
}

/// Build a brain mask from a mean image: voxels above `floor`.
pub fn intensity_mask(mean_image: &Volume, floor: f32) -> Vec<bool> {
    mean_image.data.iter().map(|&v| v > floor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_desim::StreamRng;
    use gtw_scan::hrf::raw_convolution;
    use gtw_scan::volume::Dims;
    use proptest::prelude::*;

    /// Mean absolute delay and dispersion error of `result` against the
    /// truth, over the voxels `mask` keeps.
    fn recovery_error(
        result: &RvoResult,
        mask: &[bool],
        delay_s: f64,
        dispersion_s: f64,
    ) -> (f64, f64) {
        let kept: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
        let n = kept.len().max(1) as f64;
        let err = |map: &Volume, truth: f64| {
            kept.iter().map(|&i| (map.data[i] as f64 - truth).abs()).sum::<f64>() / n
        };
        (err(&result.delay, delay_s), err(&result.dispersion, dispersion_s))
    }

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
        let res = optimize(&series, &stim, b, RvoMethod::paper_grid(), None);
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
        let method = RvoMethod::FullGrid { delay_steps: 2, dispersion_steps: 2 };
        let res = optimize(std::slice::from_ref(&scan), &stim, b, method, None);
        assert_eq!(result_bits(&res), reference_raster(&[scan.clone()], &stim, (2, 2)));
        assert!(res.correlation.data.iter().all(|&c| c == 0.0));
        assert!(res.delay.data.iter().all(|&d| d == b.delay_s.0 as f32));
    }

    /// An instance of [`fit_chunk`].
    type Fit = unsafe fn(&Chunk, &mut [f32], &mut [f32], &mut [f32]) -> u64;

    /// The scoring walk as it was before it ran on lanes: one voxel,
    /// its points in order, the first strict improvement over
    /// `f64::MIN`.
    fn reference_walk(dots: impl Iterator<Item = f64>, norm: f64) -> (usize, f64) {
        let mut best = (0, f64::MIN);
        for (j, dot) in dots.enumerate() {
            let c = if norm == 0.0 { 0.0 } else { (dot / norm).clamp(-1.0, 1.0) };
            if c > best.1 {
                best = (j, c);
            }
        }
        best
    }

    /// [`best_points`] on random lanes of `r` points against
    /// [`reference_walk`] per lane, bit for bit.
    fn scorer_matches_the_walk<const V: usize>(r: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = StreamRng::new(seed, "rvo-scorer");
        let norm: [f64; V] = std::array::from_fn(|_| match rng.below(8) {
            0 => 0.0,
            1 => f64::NAN,
            2 => 1e-300,
            _ => rng.uniform_in(0.5, 4.0),
        });
        // Few distinct values, so exact ties are common; ±0.0, values past
        // ±norm (scores clamped to ±1), NaN, and some lanes all NaN.
        let all_nan: [bool; V] = std::array::from_fn(|_| rng.below(6) == 0);
        let dots: Vec<[f64; V]> = (0..r)
            .map(|_| {
                std::array::from_fn(|v| match rng.below(9) {
                    _ if all_nan[v] => f64::NAN,
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => 9.0 * norm[v],
                    4 => -9.0 * norm[v],
                    k => (k as f64 - 6.0) * 0.25,
                })
            })
            .collect();
        let (at, best) = best_points(&dots, &norm);
        for v in 0..V {
            let (j, c) = reference_walk(dots.iter().map(|d| d[v]), norm[v]);
            prop_assert!(
                (at[v], best[v].to_bits()) == (j, c.to_bits()),
                "lane {v} of {V}, norm {}: ({}, {}) against ({j}, {c})",
                norm[v],
                at[v],
                best[v]
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane-parallel scorer picks each lane's point and score as
        /// the point-by-point walk did, at both tile widths.
        #[test]
        fn lane_parallel_scorer_matches_the_point_walk(r in 1usize..40, seed in any::<u64>()) {
            scorer_matches_the_walk::<4>(r, seed)?;
            scorer_matches_the_walk::<8>(r, seed)?;
        }

        /// Every instance of [`fit_chunk`] this CPU can run has the
        /// baseline one's bits and evaluation count: ragged and masked
        /// voxel blocks, ragged point tiles, any scan count and grid, over
        /// constant, non-finite and signed-zero voxels, in a chunk that
        /// starts anywhere.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn every_instance_fits_every_chunk_alike(
            shape in (0usize..2700, 0usize..8),
            scans in 1usize..=40,
            steps in (2usize..15, 2usize..9),
            masked in any::<bool>(),
            seed in any::<u64>(),
        ) {
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
                raster: &raster,
                mask: masked.then_some(&mask[..]),
                base: skip.min(voxels),
            };
            let len = voxels - job.base;
            let run = |fit: Fit| {
                let mut out = [vec![0.0f32; len], vec![0.0; len], vec![0.0; len]];
                let [d, w, c] = &mut out;
                // SAFETY: only instances whose features this CPU reported
                // are passed in.
                let evals = unsafe { fit(&job, d, w, c) };
                (out.map(|m| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>()), evals)
            };
            let baseline = run(fit_chunk::<4, 4>);
            let wide: [(&str, bool, Fit); 2] = [
                ("AVX2", std::arch::is_x86_feature_detected!("avx2"), fit_chunk_avx2),
                ("AVX-512F", std::arch::is_x86_feature_detected!("avx512f"), fit_chunk_avx512),
            ];
            for (name, present, fit) in wide {
                if !present {
                    eprintln!("no {name} on this host: its instance is not compared");
                    continue;
                }
                prop_assert!(
                    run(fit) == baseline,
                    "{name}: {len} voxels from {} × {scans} scans, grid {steps:?}",
                    job.base
                );
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn every_instance_fits_every_chunk_alike() {
        eprintln!("only the baseline instance exists on this target: nothing compared");
    }

    #[test]
    fn intensity_mask_splits_air_from_brain() {
        let mut v = Volume::zeros(Dims::new(2, 2, 1));
        v.data = vec![0.0, 120.0, 800.0, 40.0];
        assert_eq!(intensity_mask(&v, 50.0), vec![false, true, true, false]);
    }
}
