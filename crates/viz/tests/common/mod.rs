//! Shared by the ray-caster's integration tests: the per-step reference
//! renderer, the benchmark's 36 views and a frame digest.

#![allow(dead_code)]

use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};
use gtw_viz::color::hot;
use gtw_viz::image::{Image, Rgb};
use gtw_viz::raycast::RenderParams;

/// The ray-caster as it stood before the occupancy summary, verbatim but
/// for `self.` and the row loop (sequential here): every step of every
/// ray is visited, and air is found by sampling it. `VolumeRenderer::render`
/// must equal this pixel for pixel. `p.step` must be positive and finite
/// (this loop hangs on 0.0).
pub fn reference_render(anatomy: &Volume, activation: Option<&Volume>, p: &RenderParams) -> Image {
    let density_max = anatomy.min_max().1.max(1.0);
    let d = anatomy.dims;
    let (ca, sa) = (p.azimuth.cos(), p.azimuth.sin());
    let (ce, se) = (p.elevation.cos(), p.elevation.sin());
    let dir = [ca * ce, sa * ce, se];
    let right = [-sa, ca, 0.0];
    let up = [-ca * se, -sa * se, ce];
    let centre = d.centre();
    let half_extent = 0.5 * ((d.nx * d.nx + d.ny * d.ny + d.nz * d.nz) as f32).sqrt();
    let scale = 2.2 * half_extent / p.width.min(p.height) as f32;
    let steps = (2.0 * half_extent / p.step) as usize;

    let mut img = Image::new(p.width, p.height);
    let width = p.width;
    for (py, row) in img.pixels.chunks_mut(width.max(1)).enumerate() {
        for (px, out) in row.iter_mut().enumerate() {
            let u = (px as f32 - p.width as f32 / 2.0) * scale;
            let v = (py as f32 - p.height as f32 / 2.0) * scale;
            let o = [
                centre.0 + u * right[0] + v * up[0] - half_extent * dir[0],
                centre.1 + u * right[1] + v * up[1] - half_extent * dir[1],
                centre.2 + u * right[2] + v * up[2] - half_extent * dir[2],
            ];
            let mut rgb = [0.0f32; 3];
            let mut alpha = 0.0f32;
            for s in 0..steps {
                if alpha > 0.97 {
                    break;
                }
                let t = s as f32 * p.step;
                let x = o[0] + t * dir[0];
                let y = o[1] + t * dir[1];
                let z = o[2] + t * dir[2];
                if x < -1.0
                    || y < -1.0
                    || z < -1.0
                    || x > d.nx as f32
                    || y > d.ny as f32
                    || z > d.nz as f32
                {
                    continue;
                }
                let density = anatomy.sample(x, y, z);
                if density < p.density_floor {
                    continue;
                }
                let dn = (density / density_max).clamp(0.0, 1.0);
                let a = (dn * p.opacity_scale).min(1.0);
                let mut c = [dn, dn * 0.97, dn * 0.92];
                if let Some(act) = activation {
                    let amp = act.sample(x, y, z);
                    if amp > 0.0 {
                        let h = hot(0.5 + 10.0 * amp.min(0.05));
                        let w = (amp * 25.0).min(1.0);
                        c[0] = c[0] * (1.0 - w) + (h.0 as f32 / 255.0) * w;
                        c[1] = c[1] * (1.0 - w) + (h.1 as f32 / 255.0) * w;
                        c[2] = c[2] * (1.0 - w) + (h.2 as f32 / 255.0) * w;
                    }
                }
                let wgt = a * (1.0 - alpha);
                rgb[0] += c[0] * wgt;
                rgb[1] += c[1] * wgt;
                rgb[2] += c[2] * wgt;
                alpha += wgt;
            }
            *out = Rgb(
                (rgb[0].clamp(0.0, 1.0) * 255.0) as u8,
                (rgb[1].clamp(0.0, 1.0) * 255.0) as u8,
                (rgb[2].clamp(0.0, 1.0) * 255.0) as u8,
            );
        }
    }
    img
}

/// Number of views the `render_frames` benchmark workload steps through.
pub const VIEWS: usize = 36;

/// View `view` of `render_frames` at seed 1999: 10-degree turns from the
/// phase that seed draws.
pub fn benchmark_azimuth(view: usize) -> f32 {
    const PHASE: f32 = 0.064_292_686_735_495_15_f64 as f32 * 10.0;
    (PHASE + view as f32 * 10.0).to_radians()
}

/// The benchmark's scene at a size a test can afford.
pub const SCENE: Dims = Dims::new(64, 64, 32);

/// Standard-phantom anatomy and activation map at `dims`.
pub fn phantom_volumes(dims: Dims) -> (Volume, Volume) {
    let p = Phantom::standard();
    (p.anatomy(dims), p.activation_map(dims))
}

/// The benchmark's parameters for `view`: square frame, defaults otherwise.
pub fn benchmark_params(view: usize, side: usize) -> RenderParams {
    RenderParams {
        width: side,
        height: side,
        azimuth: benchmark_azimuth(view),
        ..RenderParams::default()
    }
}

/// FNV-1a over the frame's RGB bytes.
pub fn frame_digest(img: &Image) -> u64 {
    img.to_rgb_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
