//! The `gtw-par` kernels must produce the same bits at every thread
//! count: each output chunk is written by exactly one call and nothing
//! is reduced across chunks except the integer `evaluations` sum. Width
//! 1 is the plain sequential iterator, so it is the reference; the
//! shapes leave a ragged last chunk (5 z-slabs, 1025 voxels) or none.

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
