//! Property-based tests for the synthetic scanner.

use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::{hrf_gamma, raw_convolution, ReferenceVector, Stimulus};
use gtw_scan::motion::RigidTransform;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};
use proptest::prelude::*;

/// `Volume::sample` as it was: `floor` before the cast, eight `at` calls.
fn floor_sample(v: &Volume, x: f32, y: f32, z: f32) -> f32 {
    let d = v.dims;
    let cx = x.clamp(0.0, (d.nx - 1) as f32);
    let cy = y.clamp(0.0, (d.ny - 1) as f32);
    let cz = z.clamp(0.0, (d.nz - 1) as f32);
    let (x0, y0, z0) = (cx.floor() as usize, cy.floor() as usize, cz.floor() as usize);
    let (x1, y1, z1) = ((x0 + 1).min(d.nx - 1), (y0 + 1).min(d.ny - 1), (z0 + 1).min(d.nz - 1));
    let (fx, fy, fz) = (cx - x0 as f32, cy - y0 as f32, cz - z0 as f32);
    let c00 = v.at(x0, y0, z0) + fx * (v.at(x1, y0, z0) - v.at(x0, y0, z0));
    let c10 = v.at(x0, y1, z0) + fx * (v.at(x1, y1, z0) - v.at(x0, y1, z0));
    let c01 = v.at(x0, y0, z1) + fx * (v.at(x1, y0, z1) - v.at(x0, y0, z1));
    let c11 = v.at(x0, y1, z1) + fx * (v.at(x1, y1, z1) - v.at(x0, y1, z1));
    let c0 = c00 + fy * (c10 - c00);
    let c1 = c01 + fy * (c11 - c01);
    c0 + fz * (c1 - c0)
}

/// A coordinate: one of the awkward values, or `v`.
fn coordinate(kind: usize, v: f32) -> f32 {
    [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY].get(kind).copied().unwrap_or(v)
}

#[test]
fn zero_sized_volumes_sample_and_resample_without_underflow() {
    for dims in [Dims::new(0, 0, 0), Dims::new(0, 4, 4), Dims::new(4, 0, 4), Dims::new(4, 4, 0)] {
        let vol = Volume::zeros(dims);
        assert_eq!(vol.sample(1.0, 1.0, 1.0), 0.0);
        assert_eq!(RigidTransform::translation(0.5, 0.0, 0.0).resample(&vol), vol);
        assert_eq!(Phantom::standard().anatomy(dims), vol);
        assert_eq!(Phantom::standard().activation_map(dims), vol);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The truncating `sample` is the `floor` form bit for bit, on
    /// coordinates inside, outside (either side) and not a number.
    #[test]
    fn sample_equals_the_floor_form(
        dims in (1usize..7, 1usize..7, 1usize..7),
        kinds in (0usize..12, 0usize..12, 0usize..12),
        at in (-9.0f32..15.0, -9.0f32..15.0, -9.0f32..15.0),
        seed in 0u64..1000,
    ) {
        let dims = Dims::new(dims.0, dims.1, dims.2);
        let mut rng = gtw_desim::StreamRng::new(seed, "sample-floor");
        let vol = Volume::from_vec(dims, (0..dims.len()).map(|_| rng.normal() as f32).collect());
        let (x, y, z) = (coordinate(kinds.0, at.0), coordinate(kinds.1, at.1), coordinate(kinds.2, at.2));
        // Exact grid points and the far face as well as the draw.
        for (x, y, z) in [(x, y, z), (x.round(), y.round(), z.round()), (x, (dims.ny - 1) as f32, z)] {
            prop_assert_eq!(vol.sample(x, y, z).to_bits(), floor_sample(&vol, x, y, z).to_bits());
        }
    }

    /// The slab-parallel matrix-form `resample` is per-voxel
    /// `apply_point` + `sample`, bit for bit, at every thread count.
    #[test]
    fn resample_equals_apply_point_then_sample(
        rot in (-0.2f32..0.2, -0.2f32..0.2, -0.2f32..0.2),
        shift in (-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0),
        dims in (1usize..12, 1usize..12, 1usize..6),
    ) {
        let dims = Dims::new(dims.0, dims.1, dims.2);
        let vol = Phantom::standard().anatomy(dims);
        let t = RigidTransform { rx: rot.0, ry: rot.1, rz: rot.2, tx: shift.0, ty: shift.1, tz: shift.2 };
        let want: Vec<u32> = (0..dims.len()).map(|i| {
            let (x, y, z) = dims.coords(i);
            let (sx, sy, sz) = t.apply_point((x as f32, y as f32, z as f32), dims.centre());
            vol.sample(sx, sy, sz).to_bits()
        }).collect();
        for width in [1usize, 2, 3, 8] {
            let got = gtw_par::with_threads(width, || t.resample(&vol));
            prop_assert_eq!(got.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want.clone());
        }
    }

    /// The HRF is non-negative, finite, and peaks at the delay.
    #[test]
    fn hrf_wellformed(delay in 2.0f64..10.0, disp in 0.3f64..3.0, t in -5.0f64..60.0) {
        let v = hrf_gamma(t, delay, disp);
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
        prop_assert!(v <= hrf_gamma(delay, delay, disp) + 1e-12);
    }

    /// Reference vectors are always zero-mean and unit-norm (or zero for
    /// empty stimulation).
    #[test]
    fn reference_normalized(off in 1usize..10, on in 1usize..10, total in 10usize..80,
                            delay in 3.0f64..9.0, disp in 0.5f64..2.0) {
        let s = Stimulus::block_design(off, on, total, 2.0);
        let rv = ReferenceVector::from_stimulus(&s, delay, disp);
        let mean: f64 = rv.values.iter().sum::<f64>() / total as f64;
        let norm: f64 = rv.values.iter().map(|v| v * v).sum();
        prop_assert!(mean.abs() < 1e-9);
        prop_assert!((norm - 1.0).abs() < 1e-6 || norm < 1e-12);
    }

    /// Correlation is always in [-1, 1] for arbitrary series.
    #[test]
    fn correlation_bounded(series in proptest::collection::vec(-1e5f32..1e5, 24)) {
        let s = Stimulus::block_design(4, 4, 24, 2.0);
        let rv = ReferenceVector::canonical(&s);
        let c = rv.correlate(&series);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    /// Convolution is linear in stimulus amplitude.
    #[test]
    fn convolution_linear(scale in 0.1f64..10.0) {
        let base = Stimulus::block_design(5, 5, 40, 2.0);
        let scaled = Stimulus {
            course: base.course.iter().map(|&v| v * scale).collect(),
            tr_s: base.tr_s,
        };
        let a = raw_convolution(&base, 6.0, 1.0);
        let b = raw_convolution(&scaled, 6.0, 1.0);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((y - x * scale).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }

    /// Rigid resampling never exceeds the input intensity range
    /// (trilinear interpolation is a convex combination).
    #[test]
    fn resample_respects_range(rx in -0.1f32..0.1, tx in -2.0f32..2.0, ty in -2.0f32..2.0) {
        let vol = Phantom::standard().anatomy(Dims::new(16, 16, 8));
        let (lo, hi) = vol.min_max();
        let t = RigidTransform { rx, ry: 0.0, rz: 0.0, tx, ty, tz: 0.0 };
        let out = t.resample(&vol);
        let (olo, ohi) = out.min_max();
        prop_assert!(olo >= lo - 1e-3);
        prop_assert!(ohi <= hi + 1e-3);
    }

    /// Scanner determinism: same seed/scan always yields the same volume;
    /// different scans differ (noise stream per scan).
    #[test]
    fn scanner_deterministic(seed in 0u64..1000, t_pick in 0usize..8) {
        let mut cfg = ScannerConfig::paper_default(8, seed);
        cfg.dims = Dims::new(8, 8, 4);
        let s1 = Scanner::new(cfg.clone(), Phantom::standard());
        let s2 = Scanner::new(cfg, Phantom::standard());
        prop_assert_eq!(s1.acquire(t_pick), s2.acquire(t_pick));
    }

    /// The phantom's volumes are filled one z-slab per `gtw-par` item:
    /// every bit is the same at any thread count, whether or not the
    /// slabs divide among the threads (a 1-voxel axis makes the
    /// normalized coordinate NaN, so bits are compared, not values).
    #[test]
    fn phantom_volumes_are_bit_identical_at_every_width(
        nx in 1usize..24, ny in 1usize..24, nz in 1usize..20, inactive in any::<bool>(),
    ) {
        let dims = Dims::new(nx, ny, nz);
        let phantom = if inactive { Phantom::inactive() } else { Phantom::standard() };
        let bits = |v: Volume| v.data.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let build = || (bits(phantom.anatomy(dims)), bits(phantom.activation_map(dims)));
        let sequential = gtw_par::with_threads(1, build);
        prop_assert_eq!(sequential.0.len(), dims.len());
        for threads in [2usize, 3, 8] {
            prop_assert_eq!(&gtw_par::with_threads(threads, build), &sequential);
        }
    }

    /// Volume trilinear sampling interpolates within the local value
    /// range at interior points.
    #[test]
    fn sample_within_local_range(x in 1.0f32..6.0, y in 1.0f32..6.0, z in 1.0f32..2.9) {
        let vol = Phantom::standard().anatomy(Dims::new(8, 8, 4));
        let v = vol.sample(x, y, z);
        let (lo, hi) = vol.min_max();
        prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
    }

    /// Index/coords round-trip for arbitrary dims.
    #[test]
    fn dims_roundtrip(nx in 1usize..20, ny in 1usize..20, nz in 1usize..20, pick in 0usize..8000) {
        let d = Dims::new(nx, ny, nz);
        let idx = pick % d.len();
        let (x, y, z) = d.coords(idx);
        prop_assert_eq!(d.index(x, y, z), idx);
        prop_assert!(x < nx && y < ny && z < nz);
    }

    /// rms_diff is a metric: symmetric, zero iff equal-ish.
    #[test]
    fn rms_diff_metric(data in proptest::collection::vec(-10.0f32..10.0, 8)) {
        let d = Dims::new(2, 2, 2);
        let a = Volume::from_vec(d, data.clone());
        let b = Volume::from_vec(d, data.iter().map(|v| v + 1.0).collect());
        prop_assert_eq!(a.rms_diff(&a), 0.0);
        prop_assert!((a.rms_diff(&b) - 1.0).abs() < 1e-5);
        prop_assert_eq!(a.rms_diff(&b), b.rms_diff(&a));
    }
}
