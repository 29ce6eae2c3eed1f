//! The `gtw-par` kernels must produce the same bits at every thread
//! count: each output chunk is written by exactly one call and nothing
//! is reduced across chunks except the integer `evaluations` sum. Width
//! 1 is the plain sequential iterator, so it is the reference; the
//! shapes leave a ragged last chunk (5 z-slabs, 1025 voxels) or none.
//!
//! The median network is also held, bit for bit and at every width, to
//! the per-voxel `select_nth_unstable` kernel it replaced, kept below as
//! the reference.

use gtw_desim::StreamRng;
use gtw_fire::filters::{average_filter, median_filter};
use gtw_fire::rvo::{optimize, RvoBounds, RvoMethod};
use gtw_fire::{FireConfig, FirePipeline, SlidingCorrelation};
use gtw_scan::hrf::{ReferenceVector, Stimulus};
use gtw_scan::volume::{Dims, Volume};

/// `f()` at 2, 3 and 8 threads must equal `f()` at 1 thread.
fn same_at_every_width<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let sequential = gtw_par::with_threads(1, &f);
    for width in [2usize, 3, 8] {
        assert!(gtw_par::with_threads(width, &f) == sequential, "{what}: {width} threads differ");
    }
}

fn bits(v: &Volume) -> Vec<u32> {
    v.data.iter().map(|x| x.to_bits()).collect()
}

fn noisy(dims: Dims, rng: &mut StreamRng) -> Volume {
    Volume::from_vec(dims, (0..dims.len()).map(|_| 100.0 + 20.0 * rng.normal() as f32).collect())
}

#[test]
fn filters_are_bit_identical_at_every_width() {
    let mut rng = StreamRng::new(12, "widths-filters");
    for dims in [Dims::new(7, 6, 5), Dims::new(9, 4, 1), Dims::new(4, 4, 0), Dims::new(0, 4, 4)] {
        let vol = noisy(dims, &mut rng);
        same_at_every_width("median", || bits(&median_filter(&vol)));
        same_at_every_width("average", || bits(&average_filter(&vol)));
        assert_eq!(median_filter(&vol).dims, dims);
    }
}

/// The 27 edge-clamped neighbours of one voxel, z-major, then y, then x.
fn neighbourhood(vol: &Volume, x: usize, y: usize, z: usize) -> Vec<f32> {
    let d = vol.dims;
    let near = |c: usize, n: usize| [c.saturating_sub(1), c, (c + 1).min(n - 1)];
    let mut vals = Vec::with_capacity(27);
    for zz in near(z, d.nz) {
        for yy in near(y, d.ny) {
            for xx in near(x, d.nx) {
                vals.push(vol.at(xx, yy, zz));
            }
        }
    }
    vals
}

/// The kernel `median_filter` replaced: gather one voxel's neighbours
/// and select rank 13. `None` where a NaN among them leaves the rank
/// undefined (this kernel panicked there).
fn reference_median_at(vol: &Volume, x: usize, y: usize, z: usize) -> Option<f32> {
    let mut vals = neighbourhood(vol, x, y, z);
    if vals.iter().any(|v| v.is_nan()) {
        return None;
    }
    vals.select_nth_unstable_by(13, |a, b| a.partial_cmp(b).unwrap());
    Some(vals[13])
}

/// Every voxel of `median_filter(vol)` against the reference, at 1, 2,
/// 3 and 8 threads. `same` decides equality of two voxels.
fn median_matches_reference(what: &str, vol: &Volume, same: impl Fn(f32, f32) -> bool) {
    let d = vol.dims;
    for width in [1usize, 2, 3, 8] {
        let got = gtw_par::with_threads(width, || median_filter(vol));
        assert_eq!(got.dims, d);
        for i in 0..d.len() {
            let (x, y, z) = d.coords(i);
            if let Some(want) = reference_median_at(vol, x, y, z) {
                let g = got.data[i];
                assert!(same(g, want), "{what} {d:?} ({x},{y},{z}) @{width}: {g} vs {want}");
            }
        }
    }
}

#[test]
fn median_network_matches_select_nth_bit_for_bit() {
    let mut rng = StreamRng::new(15, "median-network");
    let same_bits = |a: f32, b: f32| a.to_bits() == b.to_bits();
    for dims in [
        Dims::new(0, 0, 0),
        Dims::new(1, 1, 1),
        Dims::new(64, 64, 1),
        Dims::new(5, 64, 3),
        Dims::new(13, 7, 5),
        Dims::new(64, 64, 16),
    ] {
        median_matches_reference("noisy", &noisy(dims, &mut rng), same_bits);
        let mut draw = |values: &[f32]| {
            let pick = |_| values[rng.below(values.len() as u64) as usize];
            Volume::from_vec(dims, (0..dims.len()).map(pick).collect())
        };
        let ties: Vec<f32> = (0..17).map(|v| v as f32).collect();
        median_matches_reference("tie-heavy", &draw(&ties), same_bits);
        // Where +0.0 and -0.0 tie for rank 13 either may come out.
        median_matches_reference("signed zeros", &draw(&[0.0, -0.0, 1.0, -1.0]), |a, b| a == b);
    }
}

#[test]
fn average_keeps_the_per_voxel_summation_order() {
    let mut rng = StreamRng::new(15, "average-order");
    for dims in [Dims::new(1, 1, 1), Dims::new(13, 7, 5), Dims::new(64, 9, 2)] {
        // All -0.0 sums to -0.0 only if nothing adds a +0.0 first.
        for vol in [noisy(dims, &mut rng), Volume::filled(dims, -0.0)] {
            let got = average_filter(&vol);
            for i in 0..dims.len() {
                let (x, y, z) = dims.coords(i);
                let want = neighbourhood(&vol, x, y, z).iter().sum::<f32>() / 27.0;
                assert_eq!(got.data[i].to_bits(), want.to_bits(), "{dims:?} ({x},{y},{z})");
            }
        }
    }
}

#[test]
fn median_of_a_volume_holding_a_nan_returns() {
    let mut rng = StreamRng::new(15, "median-nan");
    let dims = Dims::new(13, 7, 5);
    let mut vol = noisy(dims, &mut rng);
    *vol.at_mut(6, 3, 2) = f32::NAN;
    // The reference skips the 27 voxels that see the NaN; the rest must
    // be exact.
    median_matches_reference("one NaN", &vol, |a, b| a.to_bits() == b.to_bits());
    assert!(reference_median_at(&vol, 5, 3, 2).is_none());
    assert!(reference_median_at(&vol, 4, 3, 2).is_some());
}

#[test]
fn rvo_is_bit_identical_at_every_width() {
    let mut rng = StreamRng::new(12, "widths-rvo");
    let stimulus = Stimulus::block_design(4, 4, 16, 2.0);
    let methods = [
        RvoMethod::FullGrid { delay_steps: 5, dispersion_steps: 3 },
        RvoMethod::CoarseRefine { delay_steps: 3, dispersion_steps: 2, refine_iters: 2 },
    ];
    // 1025 voxels: one full chunk and a one-voxel tail; then one short
    // chunk; then no voxel at all.
    for dims in [Dims::new(41, 25, 1), Dims::new(5, 3, 2), Dims::new(4, 4, 0)] {
        let series: Vec<Volume> = (0..stimulus.len()).map(|_| noisy(dims, &mut rng)).collect();
        let mask: Vec<bool> = (0..dims.len()).map(|i| i % 5 != 2).collect();
        for method in methods {
            for mask in [None, Some(&mask[..])] {
                same_at_every_width("rvo", || {
                    let fit = optimize(&series, &stimulus, RvoBounds::default(), method, mask);
                    let maps = [&fit.delay, &fit.dispersion, &fit.correlation].map(bits);
                    (maps, fit.evaluations)
                });
            }
        }
    }
}

#[test]
fn correlation_maps_are_bit_identical_at_every_width() {
    let mut rng = StreamRng::new(12, "widths-maps");
    let dims = Dims::new(41, 25, 1);
    let reference = ReferenceVector::canonical(&Stimulus::block_design(4, 4, 16, 2.0));
    let config =
        FireConfig { median_filter: false, motion_correction: false, ..FireConfig::default() };
    assert!(config.detrend.is_some(), "this must take the detrended path");
    let mut pipeline = FirePipeline::new(config, dims, reference.clone());
    let mut sliding = SlidingCorrelation::new(dims, &reference, 8);
    for _ in 0..12 {
        let scan = noisy(dims, &mut rng);
        pipeline.process(&scan);
        sliding.push(&scan);
    }
    same_at_every_width("detrended map", || bits(&pipeline.correlation_map()));
    same_at_every_width("sliding map", || bits(&sliding.correlation_map()));
}
