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
//!
//! Most of the volume is air. The renderer keeps an `Occupancy`
//! summary of its volumes, one entry per 8×8×8-cell brick, and `render`
//! uses it to leave out steps that could only have been discarded: a ray
//! starts where it enters the box round the bricks that can reach
//! `density_floor`, jumps across bricks inside it that cannot, and reads
//! the activation map only where it is positive somewhere. Every step
//! that composites is still computed by the same expressions in the same
//! order, so frames do not depend on the summary (DESIGN.md has the
//! argument; `tests/common/mod.rs` keeps the per-step loop as the oracle).

use gtw_scan::volume::Volume;

use crate::color::hot;
use crate::image::{Image, Rgb};

/// View/rendering parameters.
#[derive(Clone, Copy, Debug)]
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

/// Edge of an occupancy brick, in cells.
const BRICK: usize = 8;

/// What one brick of cells can contribute to a frame.
#[derive(Clone, Copy)]
struct Brick {
    /// No anatomy sample whose cell is in the brick exceeds this; `+∞`
    /// where a sample may be NaN.
    bound: f32,
    /// Whether an activation sample there can be `> 0`.
    active: bool,
}

/// Per-brick summary of the renderer's volumes. A sample's cell is the
/// voxel `Volume::sample` truncates its clamped position to; it blends
/// that voxel with its +1 neighbours, so a brick answers for its own
/// voxels and the next plane along each axis.
struct Occupancy {
    /// Volume size in voxels, then in bricks.
    dims: [usize; 3],
    n: [usize; 3],
    /// x-fastest, like voxels.
    bricks: Vec<Brick>,
}

impl Occupancy {
    /// Summarise `anatomy` and `activation` in one pass, one brick-z slab
    /// per item; also returns the anatomy's maximum (NaN ignored, as
    /// `Volume::min_max` does).
    fn build(anatomy: &Volume, activation: Option<&Volume>) -> (Self, f32) {
        // For `f` in [0, 1] a lerp `a + f*(b-a)` rounds at most 3
        // half-ulps of the largest magnitude above `max(a, b)`, a
        // trilinear sample 9; 16 are padded on. Past LIMIT `b - a` may
        // overflow to ∞ and the sample be NaN, as with a non-finite voxel.
        const PAD: f32 = 8.0 * f32::EPSILON;
        const LIMIT: f32 = f32::MAX / 4.0;
        let d = anatomy.dims;
        let dims = [d.nx, d.ny, d.nz];
        let n = dims.map(|v| v.div_ceil(BRICK));
        let mut bricks = vec![Brick { bound: f32::INFINITY, active: true }; n[0] * n[1] * n[2]];
        let mut slab_max = vec![f32::NEG_INFINITY; n[2]];
        let slabs = bricks.chunks_mut((n[0] * n[1]).max(1)).zip(&mut slab_max).enumerate();
        gtw_par::for_each(slabs, |(bz, (slab, slab_max))| {
            // Per brick: maximum, largest magnitude (∞ past LIMIT), active.
            let mut acc = vec![(f32::NEG_INFINITY, 0.0f32, false); slab.len()];
            for z in bz * BRICK..=((bz + 1) * BRICK).min(d.nz - 1) {
                for y in 0..d.ny {
                    let row = d.index(0, y, z)..d.index(0, y, z) + d.nx;
                    let (density, amp) =
                        (&anatomy.data[row.clone()], activation.map(|a| &a.data[row]));
                    // Row `y` is also the +1 plane of the brick row before.
                    let first = if y % BRICK == 0 && y > 0 { y / BRICK - 1 } else { y / BRICK };
                    for bx in 0..n[0] {
                        let xs = bx * BRICK..((bx + 1) * BRICK + 1).min(d.nx);
                        let (mut hi, mut mag) = (f32::NEG_INFINITY, 0.0f32);
                        for &v in &density[xs.clone()] {
                            hi = hi.max(v);
                            mag = mag.max(if v.abs() <= LIMIT { v.abs() } else { f32::INFINITY });
                        }
                        let active =
                            amp.is_some_and(|a| a[xs].iter().any(|&v| v > 0.0 || v.is_nan()));
                        for by in first..=y / BRICK {
                            let a = &mut acc[by * n[0] + bx];
                            *a = (a.0.max(hi), a.1.max(mag), a.2 | active);
                        }
                    }
                }
            }
            for (brick, (hi, mag, active)) in slab.iter_mut().zip(acc) {
                let bound = if mag.is_finite() { hi + PAD * mag } else { f32::INFINITY };
                *brick = Brick { bound, active };
                *slab_max = slab_max.max(hi);
            }
        });
        let max = slab_max.into_iter().fold(f32::NEG_INFINITY, f32::max);
        (Occupancy { dims, n, bricks }, max)
    }

    /// Brick coordinates of the cell `Volume::sample` reads `pos` from.
    #[inline]
    fn brick_of(&self, pos: [f32; 3]) -> [usize; 3] {
        [0, 1, 2].map(|i| pos[i].clamp(0.0, (self.dims[i] - 1) as f32) as usize / BRICK)
    }

    #[inline]
    fn brick(&self, at: [usize; 3]) -> Brick {
        self.bricks[at[0] + self.n[0] * (at[1] + self.n[1] * at[2])]
    }

    /// The positions `render` must visit: the box round every brick whose
    /// bound is not below `floor`, widened to the loop's own -1 / `dims`
    /// limits where it reaches the volume's edge (positions out there
    /// clamp into the edge bricks). `None` if no brick can reach `floor`.
    fn occupied_box(&self, floor: f32) -> Option<([f32; 3], [f32; 3])> {
        let (mut lo, mut hi) = ([usize::MAX; 3], [0usize; 3]);
        for (i, brick) in self.bricks.iter().enumerate() {
            if brick.bound < floor {
                continue;
            }
            let at = [i % self.n[0], i / self.n[0] % self.n[1], i / (self.n[0] * self.n[1])];
            for axis in 0..3 {
                lo[axis] = lo[axis].min(at[axis]);
                hi[axis] = hi[axis].max(at[axis]);
            }
        }
        (lo[0] != usize::MAX).then(|| {
            let lo = lo.map(|b| if b == 0 { -1.0 } else { (b * BRICK) as f32 });
            let hi = [0, 1, 2].map(|i| ((hi[i] + 1) * BRICK).min(self.dims[i]) as f32);
            (lo, hi)
        })
    }
}

/// A renderer bound to an anatomy volume and an optional activation map.
pub struct VolumeRenderer {
    anatomy: Volume,
    activation: Option<Volume>,
    density_max: f32,
    occupancy: Occupancy,
}

impl VolumeRenderer {
    /// Create a renderer; `activation` (same dims) highlights active
    /// voxels.
    pub fn new(anatomy: Volume, activation: Option<Volume>) -> Self {
        if let Some(a) = &activation {
            assert_eq!(a.dims, anatomy.dims, "activation dims mismatch");
        }
        let (occupancy, density_max) = Occupancy::build(&anatomy, activation.as_ref());
        VolumeRenderer { anatomy, activation, density_max: density_max.max(1.0), occupancy }
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
        // A step that does not advance renders nothing, as a negative or
        // NaN step always has (the division casts to 0).
        let steps = if p.step > 0.0 && p.step.is_finite() {
            (2.0 * half_extent / p.step) as usize
        } else {
            0
        };

        let mut img = Image::new(p.width, p.height);
        let occ = &self.occupancy;
        let Some((lo, hi)) = occ.occupied_box(p.density_floor) else { return img };
        // Steps per voxel along each axis, and the face of a brick a ray
        // leaves it by.
        let per_voxel = dir.map(|c| 1.0 / (c * p.step));
        let exit_face = dir.map(|c| if c > 0.0 { BRICK } else { 0 });
        let back = dir.map(|c| -c);
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
                // Every rounding here is monotone, so each coordinate is
                // a monotone function of `s`: what the skips below rest on.
                let at = |s: usize| {
                    let t = s as f32 * p.step;
                    [o[0] + t * dir[0], o[1] + t * dir[1], o[2] + t * dir[2]]
                };
                // A ray heading up an axis and still below the box there
                // (down it and still above) was outside at every earlier
                // step. With `heading` reversed, every later step.
                let outside_until = |pos: [f32; 3], heading: [f32; 3]| {
                    (0..3).any(|i| {
                        (heading[i] >= 0.0 && pos[i] < lo[i])
                            || (heading[i] <= 0.0 && pos[i] > hi[i])
                    })
                };
                // Slab-clip to the box in units of steps, a step of slack
                // either side; an end the check does not confirm is not
                // clipped.
                let (mut enter, mut exit) = (0.0f32, steps as f32);
                for i in 0..3 {
                    if dir[i] != 0.0 {
                        let (a, b) = ((lo[i] - o[i]) * per_voxel[i], (hi[i] - o[i]) * per_voxel[i]);
                        enter = enter.max(a.min(b));
                        exit = exit.min(a.max(b));
                    } else if o[i] < lo[i] || o[i] > hi[i] {
                        exit = f32::NEG_INFINITY;
                    }
                }
                let mut s = (enter - 1.0).max(0.0) as usize;
                let mut end = ((exit + 2.0).max(0.0) as usize).min(steps);
                if s > 0 && !outside_until(at(s - 1), dir) {
                    s = 0;
                }
                if end < steps && !outside_until(at(end), back) {
                    end = steps;
                }
                let mut rgb = [0.0f32; 3];
                let mut alpha = 0.0f32;
                while s < end {
                    if alpha > 0.97 {
                        break;
                    }
                    let pos = at(s);
                    let [x, y, z] = pos;
                    if (0..3).any(|i| pos[i] < lo[i] || pos[i] > hi[i]) {
                        s += 1;
                        continue;
                    }
                    let here = occ.brick_of(pos);
                    let brick = occ.brick(here);
                    if brick.bound < p.density_floor {
                        // Nothing in this brick reaches the floor. Jump past
                        // the last step before the face the ray leaves by,
                        // if that step is in the brick: then so is every
                        // step between.
                        let mut ahead = f32::INFINITY;
                        for i in 0..3 {
                            if dir[i] != 0.0 {
                                let face = (here[i] * BRICK + exit_face[i]) as f32;
                                ahead = ahead.min((face - pos[i]) * per_voxel[i]);
                            }
                        }
                        let last = s + (ahead as usize).min(end - s - 1);
                        s = if occ.brick_of(at(last)) == here { last + 1 } else { s + 1 };
                        continue;
                    }
                    s += 1;
                    let density = self.anatomy.sample(x, y, z);
                    if density < p.density_floor {
                        continue;
                    }
                    let dn = (density / self.density_max).clamp(0.0, 1.0);
                    let a = (dn * p.opacity_scale).min(1.0);
                    // Base colour: bone-tinted grayscale by density.
                    let mut c = [dn, dn * 0.97, dn * 0.92];
                    if let Some(act) = self.activation.as_ref().filter(|_| brick.active) {
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
    fn a_step_that_does_not_advance_renders_nothing() {
        let r = renderer();
        let black = Image::new(64, 64);
        for step in [0.0, -0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(r.render(&RenderParams { step, ..small_params() }), black, "step {step}");
        }
    }

    /// Volume of random mantissas over `decades` of magnitude, either
    /// sign, so lerps round every way they can.
    fn awkward_volume(d: Dims, seed: u64, decades: i32, poison: bool) -> Volume {
        let mut rng = gtw_desim::StreamRng::new(seed, "awkward-volume");
        let mut v = Volume::zeros(d);
        for x in &mut v.data {
            let mantissa = 1.0 + rng.uniform() as f32;
            let sign = if rng.below(4) == 0 { -1.0 } else { 1.0 };
            *x = sign * mantissa * 10f32.powi(rng.below(decades as u64 + 1) as i32 - decades / 2);
            if poison && rng.below(97) == 0 {
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN, 0.0];
                *x = bad[rng.below(bad.len() as u64) as usize];
            }
        }
        v
    }

    #[test]
    fn no_sample_in_a_brick_escapes_its_summary() {
        // 3x oversampled lattice, plus the positions past either edge
        // that clamp into the edge bricks.
        let lattice = |n: usize| {
            (-3..=3 * n as i32).map(|k| k as f32 / 3.0).chain([n as f32 - 1.0 + 1e-3, n as f32])
        };
        for (case, d) in
            [Dims::new(20, 17, 9), Dims::new(8, 16, 1), Dims::new(1, 1, 1), Dims::new(9, 3, 25)]
                .into_iter()
                .enumerate()
        {
            for (decades, poison) in [(0, false), (6, false), (60, false), (6, true)] {
                let anatomy = awkward_volume(d, case as u64, decades, poison);
                // Activation: > 0 here and there in the first quarter only, so
                // some bricks are inactive.
                let mut activation = awkward_volume(d, 77 + case as u64, 4, poison);
                for (i, v) in activation.data.iter_mut().enumerate() {
                    if (i % 41 != 0 || i > d.len() / 4) && !v.is_nan() {
                        *v = -v.abs();
                    }
                }
                let (occ, max) = Occupancy::build(&anatomy, Some(&activation));
                assert_eq!(max.max(1.0).to_bits(), anatomy.min_max().1.max(1.0).to_bits());
                let (mut finite, mut inactive) = (0, 0);
                for z in lattice(d.nz) {
                    for y in lattice(d.ny) {
                        for x in lattice(d.nx) {
                            let brick = occ.brick(occ.brick_of([x, y, z]));
                            let density = anatomy.sample(x, y, z);
                            // NaN must not compare below any floor either.
                            assert!(
                                density <= brick.bound || brick.bound == f32::INFINITY,
                                "{d:?} {decades} decades: {density} at ({x}, {y}, {z}) over {}",
                                brick.bound
                            );
                            finite += usize::from(brick.bound.is_finite());
                            if !brick.active {
                                let amp = activation.sample(x, y, z);
                                assert!(
                                    amp <= 0.0 || amp.is_nan(),
                                    "{d:?}: {amp} at ({x}, {y}, {z})"
                                );
                                inactive += 1;
                            }
                        }
                    }
                }
                assert!(finite > 0 || poison, "{d:?}: no finite bound was exercised");
                assert!(inactive > 0 || poison || d.len() < 41, "{d:?}: no inactive brick");
            }
        }
    }

    #[test]
    fn one_voxel_occupies_the_bricks_whose_samples_read_it() {
        let d = Dims::new(40, 24, 17);
        let mut anatomy = Volume::zeros(d);
        // Cell 16 in z is a brick of its own and the +1 plane of the one
        // before; x and y fall inside a brick.
        *anatomy.at_mut(20, 9, 16) = 100.0;
        let (occ, max) = Occupancy::build(&anatomy, None);
        assert_eq!((max, occ.n, occ.bricks.len()), (100.0, [5, 3, 3], 45));
        assert_eq!(occ.occupied_box(60.0), Some(([16.0, 8.0, 8.0], [24.0, 16.0, 17.0])));
        // Air is bounded by exactly 0, and nothing is active without a map.
        let air = occ.brick([0, 0, 0]);
        assert_eq!((air.bound, air.active), (0.0, false));
        assert!(occ.brick([2, 1, 1]).bound >= 100.0 && occ.brick([2, 1, 2]).bound >= 100.0);
        // A floor nothing reaches, one everything does, one nothing is below.
        assert_eq!(occ.occupied_box(100.1), None);
        let whole = Some(([-1.0; 3], [40.0, 24.0, 17.0]));
        assert_eq!(occ.occupied_box(0.0), whole);
        assert_eq!(occ.occupied_box(f32::NAN), whole);
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
