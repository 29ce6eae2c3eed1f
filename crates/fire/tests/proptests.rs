//! Property-based tests for the FIRE processing modules.

use gtw_desim::StreamRng;
use gtw_fire::detrend::DetrendBasis;
use gtw_fire::filters::{average_filter, median_filter};
use gtw_fire::linalg::{jacobi_eigen, solve, Matrix};
use gtw_fire::rvo::{optimize, RvoBounds, RvoMethod};
use gtw_scan::hrf::{ReferenceVector, Stimulus, CANONICAL_DELAY_S, CANONICAL_DISPERSION_S};
use gtw_scan::volume::{Dims, Volume};
use proptest::prelude::*;

fn arb_volume(max: usize) -> impl Strategy<Value = Volume> {
    (2usize..=max, 2usize..=max, 2usize..=max).prop_flat_map(|(nx, ny, nz)| {
        let d = Dims::new(nx, ny, nz);
        proptest::collection::vec(-100.0f32..100.0, d.len())
            .prop_map(move |data| Volume::from_vec(d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The median filter's output values always come from the input's
    /// value set (median selects, never invents).
    #[test]
    fn median_selects_existing_values(vol in arb_volume(6)) {
        let out = median_filter(&vol);
        let mut values: Vec<f32> = vol.data.clone();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &v in &out.data {
            prop_assert!(values.binary_search_by(|x| x.partial_cmp(&v).unwrap()).is_ok());
        }
    }

    /// Both filters are bounded by the input range.
    #[test]
    fn filters_respect_range(vol in arb_volume(6)) {
        let (lo, hi) = vol.min_max();
        for out in [median_filter(&vol), average_filter(&vol)] {
            let (olo, ohi) = out.min_max();
            prop_assert!(olo >= lo - 1e-4);
            prop_assert!(ohi <= hi + 1e-4);
        }
    }

    /// The average filter preserves a constant offset: filter(x + c) =
    /// filter(x) + c.
    #[test]
    fn average_filter_shift_equivariant(vol in arb_volume(5), c in -50.0f32..50.0) {
        let base = average_filter(&vol);
        let mut shifted = vol.clone();
        for v in &mut shifted.data {
            *v += c;
        }
        let out = average_filter(&shifted);
        for (a, b) in out.data.iter().zip(&base.data) {
            prop_assert!((a - (b + c)).abs() < 1e-3);
        }
    }

    /// Detrending is a projection: applying it twice equals applying it
    /// once.
    #[test]
    fn detrend_is_idempotent(series in proptest::collection::vec(-1e3f32..1e3, 8..64),
                             cosines in 0usize..4) {
        let basis = DetrendBasis::with_cosines(series.len(), cosines);
        let mut once = series.clone();
        basis.detrend(&mut once);
        let mut twice = once.clone();
        basis.detrend(&mut twice);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 2e-2 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// Detrending preserves the mean.
    #[test]
    fn detrend_preserves_mean(series in proptest::collection::vec(-1e3f32..1e3, 8..64)) {
        let basis = DetrendBasis::linear(series.len());
        let mean0: f32 = series.iter().sum::<f32>() / series.len() as f32;
        let mut s = series.clone();
        basis.detrend(&mut s);
        let mean1: f32 = s.iter().sum::<f32>() / s.len() as f32;
        prop_assert!((mean0 - mean1).abs() < 1e-1 * (1.0 + mean0.abs()));
    }

    /// solve() actually solves: A·x = b for random well-conditioned
    /// (diagonally dominant) systems.
    #[test]
    fn solve_satisfies_system(n in 1usize..8, seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64 + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        let x = solve(&a, &b).expect("diagonally dominant => solvable");
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8 * (1.0 + r.abs()));
        }
    }

    /// Jacobi eigendecomposition reconstructs the matrix: ‖VΛVᵀ − A‖ ≈ 0.
    #[test]
    fn eigen_reconstructs(n in 2usize..8, seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = jacobi_eigen(&a, 100);
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = vecs.matmul(&lam).matmul(&vecs.transpose());
        let mut err = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                err = err.max((rec[(i, j)] - a[(i, j)]).abs());
            }
        }
        prop_assert!(err < 1e-8, "reconstruction error {err}");
    }
}

/// The raster fit one voxel at a time, as before it became a blocked
/// product: one `ReferenceVector::correlate` per (voxel, raster point),
/// points delay-major, the first strictly greater correlation wins.
/// Returns the three maps' bits and the evaluation count.
fn per_voxel_raster(
    series: &[Volume],
    stimulus: &Stimulus,
    steps: (usize, usize),
    mask: Option<&[bool]>,
) -> ([Vec<u32>; 3], u64) {
    let b = RvoBounds::default();
    let grid = |(lo, hi): (f64, f64), n: usize| -> Vec<f64> {
        (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64).collect()
    };
    let (delays, dispersions) = (grid(b.delay_s, steps.0), grid(b.dispersion_s, steps.1));
    let raster: Vec<(f64, f64, ReferenceVector)> = delays
        .iter()
        .flat_map(|&d| dispersions.iter().map(move |&w| (d, w)))
        .map(|(d, w)| (d, w, ReferenceVector::from_stimulus(stimulus, d, w)))
        .collect();
    let mut maps = [vec![], vec![], vec![]];
    let mut evaluations = 0;
    for idx in 0..series[0].dims.len() {
        let best = if mask.is_some_and(|m| !m[idx]) {
            (CANONICAL_DELAY_S, CANONICAL_DISPERSION_S, 0.0)
        } else {
            let voxel: Vec<f32> = series.iter().map(|v| v.data[idx]).collect();
            let mut best = (delays[0], dispersions[0], f64::MIN);
            for (d, w, rv) in &raster {
                let c = rv.correlate(&voxel);
                evaluations += 1;
                if c > best.2 {
                    best = (*d, *w, c);
                }
            }
            best
        };
        for (map, v) in maps.iter_mut().zip([best.0, best.1, best.2]) {
            map.push((v as f32).to_bits());
        }
    }
    (maps, evaluations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked raster gives the per-voxel loop's bits: voxel counts
    /// from none up to ragged sizes past one 1024-voxel chunk, 1–40
    /// scans, grids whose point count takes every remainder mod the
    /// tile width, random masks, and voxels that are constant (norm 0)
    /// or hold a NaN or an infinity (correlation NaN, never the best).
    #[test]
    fn blocked_raster_matches_per_voxel_loop_bit_for_bit(
        shape in (0usize..8, 1usize..=45, 1usize..=30),
        scans in 1usize..=40,
        steps in (2usize..15, 2usize..9),
        masked in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (sel, nx, ny) = shape;
        let dims = if sel == 0 { Dims::new(0, ny, 1) } else { Dims::new(nx, ny, 1 + sel % 2) };
        let mut rng = StreamRng::new(seed, "rvo-blocked");
        // Per voxel: mostly noise, some constant, some holding one NaN or
        // infinity at a random scan.
        let kinds: Vec<(u64, usize)> = (0..dims.len())
            .map(|_| (rng.below(16), rng.below(scans as u64) as usize))
            .collect();
        let series: Vec<Volume> = (0..scans)
            .map(|t| {
                let data = kinds.iter().map(|&(kind, at)| match kind {
                    0 => 42.0,
                    1 if t == at => f32::NAN,
                    2 if t == at => f32::INFINITY,
                    3 if t == at => f32::NEG_INFINITY,
                    _ => 100.0 + 20.0 * rng.normal() as f32,
                });
                Volume::from_vec(dims, data.collect())
            })
            .collect();
        let mask: Vec<bool> = (0..dims.len()).map(|_| rng.below(4) != 0).collect();
        let mask = masked.then_some(&mask[..]);
        let stimulus = Stimulus::block_design(4, 4, scans, 2.0);
        let method = RvoMethod::FullGrid { delay_steps: steps.0, dispersion_steps: steps.1 };
        let fit = optimize(&series, &stimulus, RvoBounds::default(), method, mask);
        let got = [&fit.delay, &fit.dispersion, &fit.correlation]
            .map(|m| m.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
        let (want, evaluations) = per_voxel_raster(&series, &stimulus, steps, mask);
        prop_assert!(got == want, "{dims:?} × {scans} scans, grid {steps:?}");
        prop_assert_eq!(fit.evaluations, evaluations);
    }
}
