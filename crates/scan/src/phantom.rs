//! The digital head phantom: synthetic anatomy plus activation ground
//! truth.
//!
//! Replaces the human subject. Anatomy is a set of nested ellipsoids
//! (scalp, skull, brain, ventricles) with distinct T1-like intensities and
//! a smooth intra-tissue modulation — enough structure that motion
//! correction has gradients to work with and renderings look like a head.
//! Activation sites are spheres inside the brain with known amplitudes,
//! so every detection experiment can be scored against truth.

use crate::volume::{Dims, Volume};

/// A spherical activation region (ground truth).
#[derive(Clone, Copy, Debug)]
pub struct ActivationSite {
    /// Centre in normalized head coordinates (each in `[-1, 1]`).
    pub centre: [f32; 3],
    /// Radius in normalized coordinates.
    pub radius: f32,
    /// BOLD amplitude as a fraction of baseline intensity (e.g. 0.03 =
    /// 3 % signal change, typical for 1.5 T).
    pub amplitude: f32,
}

/// The head phantom.
#[derive(Clone, Debug)]
pub struct Phantom {
    /// Activation ground truth.
    pub sites: Vec<ActivationSite>,
}

/// Tissue intensity levels (arbitrary units, ~T1 contrast).
const SCALP: f32 = 450.0;
const SKULL: f32 = 120.0;
const GREY: f32 = 600.0;
const WHITE: f32 = 800.0;
const VENTRICLE: f32 = 250.0;

/// A voxel in normalized head coordinates, with the one-axis factors of
/// the brain's texture: computed once per row, column or slab instead of
/// once per voxel, from the same `f32` coordinates, so the same bits.
struct Point {
    u: f32,
    v: f32,
    w: f32,
    sin_6u: f32,
    cos_4u: f32,
    cos_5v: f32,
    sin_7w: f32,
}

impl Default for Phantom {
    fn default() -> Self {
        Self::standard()
    }
}

impl Phantom {
    /// The standard phantom: motor-cortex-like and visual-cortex-like
    /// activation sites (the paper's figure 4 shows right-hand motor
    /// activation).
    pub fn standard() -> Self {
        Phantom {
            sites: vec![
                // "Right hand" motor strip (left hemisphere, superior).
                ActivationSite { centre: [-0.35, -0.15, 0.55], radius: 0.18, amplitude: 0.04 },
                // Visual cortex (posterior, medial).
                ActivationSite { centre: [0.0, 0.72, -0.1], radius: 0.22, amplitude: 0.03 },
            ],
        }
    }

    /// A phantom without activation (null experiments / false-positive
    /// rate checks).
    pub fn inactive() -> Self {
        Phantom { sites: Vec::new() }
    }

    /// Normalized head coordinate of voxel `i` of an axis of `n`: the
    /// axis mapped to `[-1, 1]`, a length-1 axis to the head's centre.
    fn axis(i: usize, n: usize) -> f32 {
        if n < 2 {
            0.0
        } else {
            2.0 * i as f32 / (n - 1) as f32 - 1.0
        }
    }

    fn ellipsoid(u: f32, v: f32, w: f32, a: f32, b: f32, c: f32) -> f32 {
        (u / a) * (u / a) + (v / b) * (v / b) + (w / c) * (w / c)
    }

    /// Inside-ness of an ellipsoid with a smooth partial-volume edge:
    /// exactly 1 well inside, exactly 0 well outside, cubic smoothstep
    /// over a band of width `2·EDGE_W` in normalized units. Real MR
    /// images have a point-spread function; infinitely sharp edges would
    /// make interpolation error dominate registration residuals.
    fn inside(q: f32) -> f32 {
        const EDGE_W: f32 = 0.05;
        let t = ((1.0 - q) / (2.0 * EDGE_W) + 0.5).clamp(0.0, 1.0);
        t * t * (3.0 - 2.0 * t)
    }

    /// Baseline tissue intensity at a point; `None` in the air around
    /// the head. Forced inline: called out of line from the voxel loop,
    /// the 256×256×128 anatomy took 3–4 times as long on a 2-vCPU x86-64
    /// host (300 against 80 ms on one thread).
    #[inline(always)]
    fn tissue(p: &Point) -> Option<f32> {
        let Point { u, v, w, .. } = *p;
        // Nested ellipsoids, outermost first. The in-plane axes differ
        // (heads are longer front-back than wide), so in-plane rotation
        // moves high-contrast edges — important for registration.
        let a_head = Self::inside(Self::ellipsoid(u, v, w, 0.85, 0.95, 0.95));
        if a_head == 0.0 {
            return None;
        }
        let a_scalp_inner = Self::inside(Self::ellipsoid(u, v, w, 0.78, 0.88, 0.88));
        let a_brain = Self::inside(Self::ellipsoid(u, v, w, 0.70, 0.82, 0.82));
        // Layer from the outside in: air -> scalp -> skull -> brain.
        let mut val = SCALP * a_head;
        val = val * (1.0 - a_scalp_inner) + SKULL * a_scalp_inner;
        if a_brain == 0.0 {
            // Exactly the blend below: `val` is at least +0 and the brain
            // value finite, so `val·1 + brain·0 == val`.
            return Some(val);
        }
        // Ventricles sit slightly off-centre, as in a real head; the
        // asymmetry also gives in-plane rotations an observable signal.
        let a_vent = Self::inside(Self::ellipsoid(u + 0.05, v - 0.10, w, 0.18, 0.28, 0.20));
        // A dense off-axis structure (cerebellum-like) breaks rotational
        // symmetry for the registration tests.
        let a_cereb = Self::inside(Self::ellipsoid(u - 0.30, v + 0.45, w + 0.25, 0.22, 0.20, 0.18));
        // Grey matter shell over white matter core, with a smooth
        // modulation that gives motion correction spatial gradients.
        let a_core = Self::inside(Self::ellipsoid(u, v, w, 0.48, 0.62, 0.55));
        let texture = 1.0 + 0.09 * p.sin_6u * p.cos_5v + 0.06 * p.sin_7w * p.cos_4u;
        let mut brain = (GREY + (WHITE - GREY) * a_core) * texture;
        brain = brain * (1.0 - a_cereb) + WHITE * 1.08 * a_cereb;
        brain = brain * (1.0 - a_vent) + VENTRICLE * a_vent;
        Some(val * (1.0 - a_brain) + brain * a_brain)
    }

    /// Render the anatomical baseline at the given resolution.
    pub fn anatomy(&self, dims: Dims) -> Volume {
        let mut vol = Volume::zeros(dims);
        Self::fill_slabs(&mut vol, Self::tissue);
        vol
    }

    /// The activation amplitude map at a resolution: per-voxel fractional
    /// BOLD amplitude (0 outside sites).
    pub fn activation_map(&self, dims: Dims) -> Volume {
        let mut vol = Volume::zeros(dims);
        Self::fill_slabs(&mut vol, |p| {
            let Point { u, v, w, .. } = *p;
            let mut amp = 0.0f32;
            for s in &self.sites {
                let d2 = (u - s.centre[0]).powi(2)
                    + (v - s.centre[1]).powi(2)
                    + (w - s.centre[2]).powi(2);
                if d2 < s.radius * s.radius {
                    // Smooth falloff to the edge of the sphere.
                    let fall = 1.0 - (d2 / (s.radius * s.radius));
                    amp = amp.max(s.amplitude * fall);
                }
            }
            if amp.to_bits() == 0 {
                return None; // +0: what the zeroed volume holds already
            }
            // Activation only in brain tissue.
            Self::tissue(p).filter(|&t| t >= SKULL + 1.0).map(|_| amp)
        });
        vol
    }

    /// Set every voxel of `vol` for which `value` (of the voxel's
    /// [`Point`]) returns one, one z-slab per `gtw-par` item. A voxel it
    /// passes over is not written, so pages of a fresh zeroed volume that
    /// hold only such voxels are never touched.
    fn fill_slabs(vol: &mut Volume, value: impl Fn(&Point) -> Option<f32> + Sync) {
        let dims = vol.dims;
        let xs: Vec<_> = (0..dims.nx)
            .map(|x| Self::axis(x, dims.nx))
            .map(|u| (u, (6.0 * u).sin(), (4.0 * u).cos()))
            .collect();
        let ys: Vec<_> =
            (0..dims.ny).map(|y| Self::axis(y, dims.ny)).map(|v| (v, (5.0 * v).cos())).collect();
        let slabs = vol.data.chunks_mut((dims.nx * dims.ny).max(1)).enumerate();
        gtw_par::for_each(slabs, |(z, slab)| {
            let w = Self::axis(z, dims.nz);
            let sin_7w = (7.0 * w).sin();
            for (row, &(v, cos_5v)) in slab.chunks_mut(dims.nx.max(1)).zip(&ys) {
                for (voxel, &(u, sin_6u, cos_4u)) in row.iter_mut().zip(&xs) {
                    let p = Point { u, v, w, sin_6u, cos_4u, cos_5v, sin_7w };
                    if let Some(value) = value(&p) {
                        *voxel = value;
                    }
                }
            }
        });
    }

    /// Boolean ground-truth mask of activated voxels (amplitude above
    /// `threshold` of the site amplitude).
    pub fn truth_mask(&self, dims: Dims, threshold: f32) -> Vec<bool> {
        self.activation_map(dims).data.iter().map(|&a| a > threshold).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bodies before the generators skipped air and texture-free
    /// tissue: `tissue` evaluates every ellipsoid and the texture at every
    /// voxel, and `activation_map` asks for the tissue before the sites.
    mod reference {
        use super::*;

        fn tissue(u: f32, v: f32, w: f32) -> f32 {
            let a_head = Phantom::inside(Phantom::ellipsoid(u, v, w, 0.85, 0.95, 0.95));
            if a_head == 0.0 {
                return 0.0;
            }
            let a_scalp_inner = Phantom::inside(Phantom::ellipsoid(u, v, w, 0.78, 0.88, 0.88));
            let a_brain = Phantom::inside(Phantom::ellipsoid(u, v, w, 0.70, 0.82, 0.82));
            let a_vent =
                Phantom::inside(Phantom::ellipsoid(u + 0.05, v - 0.10, w, 0.18, 0.28, 0.20));
            let a_cereb =
                Phantom::inside(Phantom::ellipsoid(u - 0.30, v + 0.45, w + 0.25, 0.22, 0.20, 0.18));
            let a_core = Phantom::inside(Phantom::ellipsoid(u, v, w, 0.48, 0.62, 0.55));
            let texture = 1.0
                + 0.09 * (6.0 * u).sin() * (5.0 * v).cos()
                + 0.06 * (7.0 * w).sin() * (4.0 * u).cos();
            let mut brain = (GREY + (WHITE - GREY) * a_core) * texture;
            brain = brain * (1.0 - a_cereb) + WHITE * 1.08 * a_cereb;
            brain = brain * (1.0 - a_vent) + VENTRICLE * a_vent;
            let mut val = SCALP * a_head;
            val = val * (1.0 - a_scalp_inner) + SKULL * a_scalp_inner;
            val * (1.0 - a_brain) + brain * a_brain
        }

        /// Every voxel of a volume, sequentially, from normalized coordinates.
        fn fill(dims: Dims, value: impl Fn(f32, f32, f32) -> f32) -> Volume {
            let mut vol = Volume::zeros(dims);
            for z in 0..dims.nz {
                for y in 0..dims.ny {
                    for x in 0..dims.nx {
                        let (u, v, w) = (
                            Phantom::axis(x, dims.nx),
                            Phantom::axis(y, dims.ny),
                            Phantom::axis(z, dims.nz),
                        );
                        vol.data[x + dims.nx * (y + dims.ny * z)] = value(u, v, w);
                    }
                }
            }
            vol
        }

        pub fn anatomy(dims: Dims) -> Volume {
            fill(dims, tissue)
        }

        pub fn activation_map(p: &Phantom, dims: Dims) -> Volume {
            fill(dims, |u, v, w| {
                if tissue(u, v, w) < SKULL + 1.0 {
                    return 0.0;
                }
                let mut amp = 0.0f32;
                for s in &p.sites {
                    let d2 = (u - s.centre[0]).powi(2)
                        + (v - s.centre[1]).powi(2)
                        + (w - s.centre[2]).powi(2);
                    if d2 < s.radius * s.radius {
                        let fall = 1.0 - (d2 / (s.radius * s.radius));
                        amp = amp.max(s.amplitude * fall);
                    }
                }
                amp
            })
        }
    }

    fn bits(v: &Volume) -> Vec<u32> {
        v.data.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The skipping generators are the full evaluation bit for bit, at
        /// any shape and with a third site of any sign (a `-0.0` included)
        /// anywhere in the head.
        #[test]
        fn generators_match_the_full_evaluation(
            dims in (2usize..40, 2usize..40, 2usize..40),
            centre in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
            radius in 0.0f32..0.6,
            amplitude in (0usize..4, -0.05f32..0.05),
        ) {
            let dims = Dims::new(dims.0, dims.1, dims.2);
            let mut p = Phantom::standard();
            let amplitude = [-0.0, 0.0, 0.04].get(amplitude.0).copied().unwrap_or(amplitude.1);
            p.sites.push(ActivationSite { centre: [centre.0, centre.1, centre.2], radius, amplitude });
            prop_assert_eq!(bits(&p.anatomy(dims)), bits(&reference::anatomy(dims)));
            prop_assert_eq!(bits(&p.activation_map(dims)), bits(&reference::activation_map(&p, dims)));
        }
    }

    #[test]
    fn a_length_one_axis_is_the_head_centre() {
        let p = Phantom::standard();
        for dims in [Dims::new(64, 64, 1), Dims::new(1, 64, 16)] {
            let anat = p.anatomy(dims);
            assert!(anat.data.iter().all(|x| x.is_finite()), "NaN anatomy at {dims:?}");
            assert!(p.activation_map(dims).data.iter().all(|x| x.is_finite()));
            // The one plane runs through the head's middle: brain there,
            // air at the corners.
            assert!(anat.at(dims.nx / 2, dims.ny / 2, dims.nz / 2) > SKULL, "{dims:?}");
            assert_eq!(anat.at(0, 0, 0), 0.0, "{dims:?}");
        }
    }

    #[test]
    fn anatomy_has_head_structure() {
        let v = Phantom::standard().anatomy(Dims::EPI);
        // Air at corners.
        assert_eq!(v.at(0, 0, 0), 0.0);
        assert_eq!(v.at(63, 63, 15), 0.0);
        // Ventricle (CSF) at the very centre.
        let centre = v.at(32, 32, 8);
        assert!((centre - VENTRICLE).abs() < 1.0, "centre intensity {centre}");
        // Grey/white matter above the ventricles.
        let brain = v.at(32, 32, 12);
        assert!(brain > GREY * 0.8, "brain intensity {brain}");
        // Non-trivial dynamic range.
        let (lo, hi) = v.min_max();
        assert_eq!(lo, 0.0);
        assert!(hi > WHITE);
    }

    #[test]
    fn anatomy_scales_to_anatomical_resolution() {
        let d = Dims::new(64, 64, 32); // scaled-down stand-in for 256³ speed
        let v = Phantom::standard().anatomy(d);
        assert!(v.at(32, 32, 16) > 0.0);
        assert_eq!(v.at(0, 0, 0), 0.0);
    }

    #[test]
    fn activation_inside_brain_only() {
        let p = Phantom::standard();
        let amp = p.activation_map(Dims::EPI);
        let anat = p.anatomy(Dims::EPI);
        let mut active = 0;
        for i in 0..amp.data.len() {
            if amp.data[i] > 0.0 {
                active += 1;
                assert!(anat.data[i] > SKULL, "activation outside brain at {i}");
            }
        }
        assert!(active > 50, "suspiciously few active voxels: {active}");
        assert!(active < amp.data.len() / 4, "activation covers too much: {active}");
    }

    #[test]
    fn inactive_phantom_has_no_activation() {
        let amp = Phantom::inactive().activation_map(Dims::EPI);
        assert!(amp.data.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn truth_mask_thresholds() {
        let p = Phantom::standard();
        let all = p.truth_mask(Dims::EPI, 0.0);
        let strong = p.truth_mask(Dims::EPI, 0.03);
        let n_all = all.iter().filter(|&&b| b).count();
        let n_strong = strong.iter().filter(|&&b| b).count();
        assert!(n_strong < n_all);
        assert!(n_strong > 0);
    }

    #[test]
    fn amplitudes_are_physiological() {
        let amp = Phantom::standard().activation_map(Dims::EPI);
        let (_, hi) = amp.min_max();
        assert!(hi <= 0.05, "BOLD amplitude should be a few percent, got {hi}");
    }
}
