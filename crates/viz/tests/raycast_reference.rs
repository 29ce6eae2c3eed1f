//! `VolumeRenderer::render` against the per-step loop it replaced
//! (`common::reference_render`), pixel for pixel: the occupancy summary
//! may only leave out steps that loop would have discarded.

mod common;

use common::{benchmark_params, phantom_volumes, reference_render, SCENE, VIEWS};
use gtw_desim::rng::StreamRng;
use gtw_scan::volume::{Dims, Volume};
use gtw_viz::raycast::{RenderParams, VolumeRenderer};
use std::f32::consts::FRAC_PI_2;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// The in-repo generator, with the draws these tests want.
struct Rng(StreamRng);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    fn unit(&mut self) -> f32 {
        self.0.uniform() as f32
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// Mostly-empty volume with a few ellipsoidal blobs of `level`-sized
/// values (either sign), a sprinkle of noise, and `poison` voxels of
/// NaN / ±∞ / huge magnitude.
fn random_volume(rng: &mut Rng, dims: Dims, level: f32, poison: usize) -> Volume {
    let mut v = Volume::zeros(dims);
    for _ in 0..rng.below(4) {
        let c = [rng.unit(), rng.unit(), rng.unit()];
        let r = 0.05 + 0.4 * rng.unit();
        let value = level * (rng.unit() * 1.5 - 0.3);
        for idx in 0..dims.len() {
            let (x, y, z) = dims.coords(idx);
            let q =
                [x as f32 / dims.nx as f32, y as f32 / dims.ny as f32, z as f32 / dims.nz as f32];
            let d2: f32 = (0..3).map(|i| (q[i] - c[i]).powi(2)).sum();
            if d2 < r * r {
                v.data[idx] = value * (1.0 - d2 / (r * r)) + 0.1 * level * rng.unit();
            }
        }
    }
    if rng.below(3) == 0 {
        let background = level * (rng.unit() - 0.7);
        v.data.iter_mut().filter(|x| **x == 0.0).for_each(|x| *x = background);
    }
    for _ in 0..poison {
        let at = rng.below(dims.len());
        v.data[at] =
            rng.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN, -0.0, 1e30]);
    }
    v
}

fn assert_matches_reference(
    r: &VolumeRenderer,
    a: &Volume,
    act: Option<&Volume>,
    p: &RenderParams,
) {
    let want = reference_render(a, act, p);
    for width in WIDTHS {
        let got = gtw_par::with_threads(width, || r.render(p));
        assert_eq!(got.width, want.width);
        assert_eq!(got.height, want.height);
        if let Some(at) = got.pixels.iter().zip(&want.pixels).position(|(g, w)| g != w) {
            panic!(
                "{width} threads, dims {:?}, {p:?}: pixel {at} is {:?}, reference {:?}",
                a.dims, got.pixels[at], want.pixels[at]
            );
        }
    }
}

#[test]
fn benchmark_views_match_the_reference() {
    let (anatomy, activation) = phantom_volumes(SCENE);
    let renderer = VolumeRenderer::new(anatomy.clone(), Some(activation.clone()));
    for view in 0..VIEWS {
        let p = benchmark_params(view, 64);
        assert_matches_reference(&renderer, &anatomy, Some(&activation), &p);
    }
}

#[test]
fn random_scenes_match_the_reference() {
    let mut rng = Rng(StreamRng::new(1999, "raycast-reference"));
    let right_angles = [0.0, FRAC_PI_2, -FRAC_PI_2, 2.0 * FRAC_PI_2];
    for case in 0..400 {
        let dims = match case % 8 {
            0 => Dims::new(1, 1, 1),
            1 => Dims::new(41, 37, 29),
            2 => Dims::new(8, 16, 24),
            3 => Dims::new(9, 17, 7),
            _ => Dims::new(1 + rng.below(41), 1 + rng.below(37), 1 + rng.below(29)),
        };
        let poison = if rng.below(3) == 0 { 1 + rng.below(4) } else { 0 };
        let anatomy = random_volume(&mut rng, dims, 800.0, poison);
        let activation = (rng.below(4) != 0).then(|| random_volume(&mut rng, dims, 0.05, poison));
        let renderer = VolumeRenderer::new(anatomy.clone(), activation.clone());
        for _ in 0..3 {
            let angle = |rng: &mut Rng| match rng.below(3) {
                0 => rng.pick(&right_angles),
                _ => (rng.unit() - 0.5) * 7.0,
            };
            let p = RenderParams {
                width: 1 + rng.below(24),
                height: 1 + rng.below(24),
                azimuth: angle(&mut rng),
                elevation: angle(&mut rng),
                density_floor: match rng.below(6) {
                    0 => 0.0,
                    1 => -50.0 * rng.unit(),
                    2 => f32::NAN,
                    3 => rng.pick(&[f32::INFINITY, f32::NEG_INFINITY, -0.0]),
                    _ => 900.0 * rng.unit(),
                },
                opacity_scale: rng.pick(&[0.02, 0.08, 0.5, 3.0]),
                step: 0.2 + 3.0 * rng.unit(),
            };
            assert_matches_reference(&renderer, &anatomy, activation.as_ref(), &p);
        }
    }
}

/// A view direction that is NaN makes every sample NaN and the frame
/// black in the reference; `render` must get there without panicking.
#[test]
fn non_finite_views_match_the_reference() {
    let (anatomy, activation) = phantom_volumes(Dims::new(20, 20, 12));
    let renderer = VolumeRenderer::new(anatomy.clone(), Some(activation.clone()));
    let base = RenderParams { width: 9, height: 7, ..RenderParams::default() };
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for p in [
            RenderParams { azimuth: bad, ..base },
            RenderParams { elevation: bad, ..base },
            RenderParams { opacity_scale: bad, ..base },
        ] {
            assert_matches_reference(&renderer, &anatomy, Some(&activation), &p);
        }
    }
}
