//! Software volume renderer (the Figure 4 stand-in for AVS/Onyx 2).
//!
//! Orthographic front-to-back alpha compositing with a simple
//! density-to-opacity transfer function. Activated regions ("the light
//! areas ... activated by moving the right hand") are highlighted by
//! blending the activation map's hot colour over the anatomy density.
//! Parallelized over output rows on `gtw-par` scoped threads (one row
//! per item, each pixel written by exactly one call, so a frame is
//! bit-identical at any thread count) — this is the Onyx 2's job in the
//! testbed, and its render time per frame is what the workbench
//! transport has to keep up with.

use gtw_scan::volume::Volume;
use serde::{Deserialize, Serialize};

use crate::color::hot;
use crate::image::{Image, Rgb};

/// View/rendering parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RenderParams {
    /// Output image width.
    pub width: usize,
    /// Output image height.
    pub height: usize,
    /// Azimuth of the view direction, radians (rotation about z).
    pub azimuth: f32,
    /// Elevation of the view direction, radians.
    pub elevation: f32,
    /// Density below this is transparent.
    pub density_floor: f32,
    /// Opacity per sampled step at full density.
    pub opacity_scale: f32,
    /// Sampling step along the ray, voxels.
    pub step: f32,
}

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            width: 256,
            height: 256,
            azimuth: 0.4,
            elevation: 0.25,
            density_floor: 60.0,
            opacity_scale: 0.08,
            step: 0.75,
        }
    }
}

/// A renderer bound to an anatomy volume and an optional activation map.
pub struct VolumeRenderer {
    anatomy: Volume,
    activation: Option<Volume>,
    density_max: f32,
}

impl VolumeRenderer {
    /// Create a renderer; `activation` (same dims) highlights active
    /// voxels.
    pub fn new(anatomy: Volume, activation: Option<Volume>) -> Self {
        if let Some(a) = &activation {
            assert_eq!(a.dims, anatomy.dims, "activation dims mismatch");
        }
        let (_, density_max) = anatomy.min_max();
        VolumeRenderer { anatomy, activation, density_max: density_max.max(1.0) }
    }

    /// Render one frame.
    pub fn render(&self, p: &RenderParams) -> Image {
        let d = self.anatomy.dims;
        let (ca, sa) = (p.azimuth.cos(), p.azimuth.sin());
        let (ce, se) = (p.elevation.cos(), p.elevation.sin());
        // View direction and in-image basis vectors (orthographic).
        let dir = [ca * ce, sa * ce, se];
        let right = [-sa, ca, 0.0];
        let up = [-ca * se, -sa * se, ce];
        let centre = d.centre();
        let half_extent = 0.5 * ((d.nx * d.nx + d.ny * d.ny + d.nz * d.nz) as f32).sqrt();
        let scale = 2.2 * half_extent / p.width.min(p.height) as f32;
        let steps = (2.0 * half_extent / p.step) as usize;

        let mut img = Image::new(p.width, p.height);
        let width = p.width;
        gtw_par::for_each(img.pixels.chunks_mut(width.max(1)).enumerate(), |(py, row)| {
            for (px, out) in row.iter_mut().enumerate() {
                let u = (px as f32 - p.width as f32 / 2.0) * scale;
                let v = (py as f32 - p.height as f32 / 2.0) * scale;
                // Ray origin: behind the volume.
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
                    let density = self.anatomy.sample(x, y, z);
                    if density < p.density_floor {
                        continue;
                    }
                    let dn = (density / self.density_max).clamp(0.0, 1.0);
                    let a = (dn * p.opacity_scale).min(1.0);
                    // Base colour: bone-tinted grayscale by density.
                    let mut c = [dn, dn * 0.97, dn * 0.92];
                    if let Some(act) = &self.activation {
                        let amp = act.sample(x, y, z);
                        if amp > 0.0 {
                            // Blend the hot highlight ("light areas").
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
        });
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::phantom::Phantom;
    use gtw_scan::volume::Dims;

    fn renderer() -> VolumeRenderer {
        let p = Phantom::standard();
        let d = Dims::new(48, 48, 24);
        VolumeRenderer::new(p.anatomy(d), Some(p.activation_map(d)))
    }

    fn small_params() -> RenderParams {
        RenderParams { width: 64, height: 64, ..RenderParams::default() }
    }

    #[test]
    fn head_renders_in_centre() {
        let img = renderer().render(&small_params());
        // Centre pixel hits the head; corners are empty space.
        let c = img.at(32, 32);
        assert!(c.0 > 20, "centre too dark: {c:?}");
        assert_eq!(img.at(0, 0), Rgb(0, 0, 0));
        assert_eq!(img.at(63, 63), Rgb(0, 0, 0));
        // Reasonable coverage: the head silhouette.
        let cov = img.coverage();
        assert!(cov > 0.08 && cov < 0.9, "coverage {cov}");
    }

    #[test]
    fn frames_are_bit_identical_at_every_width() {
        let r = renderer();
        // 5 rows and 1 row do not divide among 2, 3 or 8 threads; then
        // frames with no pixel at all.
        for (width, height) in [(48, 5), (64, 1), (16, 0), (0, 4)] {
            let p = RenderParams { width, height, ..RenderParams::default() };
            let sequential = gtw_par::with_threads(1, || r.render(&p));
            assert_eq!(sequential.pixels.len(), width * height);
            for threads in [2usize, 3, 8] {
                let frame = gtw_par::with_threads(threads, || r.render(&p));
                assert_eq!(frame.pixels, sequential.pixels, "{width}x{height}, {threads} threads");
            }
        }
    }

    #[test]
    fn activation_changes_the_rendering() {
        let p = Phantom::standard();
        let d = Dims::new(48, 48, 24);
        let with =
            VolumeRenderer::new(p.anatomy(d), Some(p.activation_map(d))).render(&small_params());
        let without = VolumeRenderer::new(p.anatomy(d), None).render(&small_params());
        assert_ne!(with, without, "activation highlight must be visible");
        // Highlighted pixels are redder than their unhighlighted
        // counterparts somewhere.
        let mut red_gain = 0i32;
        for (a, b) in with.pixels.iter().zip(&without.pixels) {
            red_gain = red_gain.max(a.0 as i32 - b.0 as i32);
        }
        assert!(red_gain > 10, "red gain {red_gain}");
    }

    #[test]
    fn view_angles_differ() {
        let r = renderer();
        let a = r.render(&small_params());
        let b = r.render(&RenderParams { azimuth: 1.3, ..small_params() });
        assert_ne!(a, b);
    }

    #[test]
    fn render_is_deterministic() {
        let r = renderer();
        assert_eq!(r.render(&small_params()), r.render(&small_params()));
    }

    #[test]
    fn opacity_scale_monotone_in_brightness() {
        let r = renderer();
        let thin = r.render(&RenderParams { opacity_scale: 0.02, ..small_params() });
        let thick = r.render(&RenderParams { opacity_scale: 0.3, ..small_params() });
        let sum = |img: &Image| -> u64 {
            img.pixels.iter().map(|p| p.0 as u64 + p.1 as u64 + p.2 as u64).sum()
        };
        assert!(sum(&thick) > sum(&thin));
    }
}
