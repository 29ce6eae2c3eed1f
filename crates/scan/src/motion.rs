//! Rigid-body transforms: the subject's head motion.
//!
//! "Even small head movements of the subject tend to produce artefacts in
//! the correlation coefficient due to the high intrinsic contrast of the
//! MR images." The scanner injects motion with these transforms; FIRE's
//! 3-D movement-correction module estimates and undoes them.
//!
//! A transform is applied in matrix form: `rotation_matrix()` (three
//! `sin_cos`) is computed once per transform. [`TransformLanes`] maps `L`
//! points at once, each through its own transform, each rotation entry
//! and translation one lane array; `apply_point` is its one-lane case.

use crate::volume::Volume;

/// Voxels of a row per `sample_lanes` call in [`RigidTransform::resample`].
const RESAMPLE_LANES: usize = 8;

/// A rigid-body transform: rotation (Euler angles, radians, applied in
/// x-y-z order about the volume centre) followed by translation (voxels).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct RigidTransform {
    /// Rotation about x, radians.
    pub rx: f32,
    /// Rotation about y, radians.
    pub ry: f32,
    /// Rotation about z, radians.
    pub rz: f32,
    /// Translation along x, voxels.
    pub tx: f32,
    /// Translation along y, voxels.
    pub ty: f32,
    /// Translation along z, voxels.
    pub tz: f32,
}

impl RigidTransform {
    /// The identity transform.
    pub const IDENTITY: RigidTransform =
        RigidTransform { rx: 0.0, ry: 0.0, rz: 0.0, tx: 0.0, ty: 0.0, tz: 0.0 };

    /// Pure translation.
    pub fn translation(tx: f32, ty: f32, tz: f32) -> Self {
        RigidTransform { tx, ty, tz, ..Self::IDENTITY }
    }

    /// Pure rotation.
    pub fn rotation(rx: f32, ry: f32, rz: f32) -> Self {
        RigidTransform { rx, ry, rz, ..Self::IDENTITY }
    }

    /// The 3×3 rotation matrix `Rz·Ry·Rx`.
    pub fn rotation_matrix(&self) -> [[f32; 3]; 3] {
        let (sx, cx) = self.rx.sin_cos();
        let (sy, cy) = self.ry.sin_cos();
        let (sz, cz) = self.rz.sin_cos();
        // Rz * Ry * Rx
        [
            [cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx],
            [sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx],
            [-sy, cy * sx, cy * cx],
        ]
    }

    /// Map a point (about `centre`) through the transform: the one-lane
    /// case of [`TransformLanes::apply`].
    pub fn apply_point(&self, p: (f32, f32, f32), centre: (f32, f32, f32)) -> (f32, f32, f32) {
        let [[x], [y], [z]] = TransformLanes::new([*self]).apply([[p.0], [p.1], [p.2]], centre);
        (x, y, z)
    }

    /// Inverse transform (transpose rotation, rotated-negated
    /// translation).
    pub fn inverse(&self) -> RigidTransform {
        // For the Euler composition used here the exact inverse is not an
        // Euler triple in general; for the small motions of a head in a
        // scanner coil (< a few degrees) the negated parameters are the
        // standard first-order inverse used by iterative correction.
        RigidTransform {
            rx: -self.rx,
            ry: -self.ry,
            rz: -self.rz,
            tx: -self.tx,
            ty: -self.ty,
            tz: -self.tz,
        }
    }

    /// Resample `vol` through this transform: output voxel `o` takes the
    /// value of the input at `T(o)` (pull/backward warping, trilinear).
    /// One z-slab per `gtw_par::for_each` item, one writer per voxel:
    /// the same bits at any thread count. A row is mapped and sampled
    /// [`RESAMPLE_LANES`] voxels at a time; the lanes past a ragged end
    /// sample clamped positions nobody reads.
    pub fn resample(&self, vol: &Volume) -> Volume {
        let dims = vol.dims;
        let centre = dims.centre();
        let t = TransformLanes::new([*self; RESAMPLE_LANES]);
        let mut out = Volume::zeros(dims);
        let slab = (dims.nx * dims.ny).max(1);
        gtw_par::for_each(out.data.chunks_mut(slab).enumerate(), |(z, out_slab)| {
            for (y, out_row) in out_slab.chunks_mut(dims.nx).enumerate() {
                for (c, o) in out_row.chunks_mut(RESAMPLE_LANES).enumerate() {
                    let x = std::array::from_fn(|i| (c * RESAMPLE_LANES + i) as f32);
                    let [x, y, z] = t.apply([x, [y as f32; _], [z as f32; _]], centre);
                    o.copy_from_slice(&vol.sample_lanes(x, y, z)[..o.len()]);
                }
            }
        });
        out
    }

    /// Parameter-space L2 magnitude (for convergence checks), weighting
    /// radians and voxels equally.
    pub fn magnitude(&self) -> f32 {
        (self.rx * self.rx
            + self.ry * self.ry
            + self.rz * self.rz
            + self.tx * self.tx
            + self.ty * self.ty
            + self.tz * self.tz)
            .sqrt()
    }

    /// Parameters as an array `[rx, ry, rz, tx, ty, tz]`.
    pub fn params(&self) -> [f32; 6] {
        [self.rx, self.ry, self.rz, self.tx, self.ty, self.tz]
    }

    /// From a parameter array.
    pub fn from_params(p: [f32; 6]) -> Self {
        RigidTransform { rx: p[0], ry: p[1], rz: p[2], tx: p[3], ty: p[4], tz: p[5] }
    }
}

/// `L` transforms as lane arrays, one per rotation entry and translation.
pub struct TransformLanes<const L: usize> {
    rot: [[[f32; L]; 3]; 3],
    t: [[f32; L]; 3],
}

impl<const L: usize> TransformLanes<L> {
    /// Lane `i` applies `ts[i]`.
    pub fn new(ts: [RigidTransform; L]) -> Self {
        let rots = ts.map(|t| t.rotation_matrix());
        let rot = std::array::from_fn(|a| std::array::from_fn(|b| rots.map(|r| r[a][b])));
        TransformLanes { rot, t: [ts.map(|t| t.tx), ts.map(|t| t.ty), ts.map(|t| t.tz)] }
    }

    /// Lane `i` maps `(p[0][i], p[1][i], p[2][i])` about `centre` through
    /// lane `i`'s transform: per axis `a`, `r[a][0]·px + r[a][1]·py +
    /// r[a][2]·pz + centre[a] + t[a]` in that order (never an FMA).
    #[inline(always)]
    pub fn apply(&self, p: [[f32; L]; 3], centre: (f32, f32, f32)) -> [[f32; L]; 3] {
        let (r, c) = (&self.rot, [centre.0, centre.1, centre.2]);
        let mut out = [[0.0f32; L]; 3];
        for (a, out) in out.iter_mut().enumerate() {
            for i in 0..L {
                let (px, py, pz) = (p[0][i] - c[0], p[1][i] - c[1], p[2][i] - c[2]);
                out[i] = r[a][0][i] * px + r[a][1][i] * py + r[a][2][i] * pz + c[a] + self.t[a][i];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Volume};

    fn blob_volume() -> Volume {
        // A smooth Gaussian blob off-centre: structure for resampling
        // tests.
        let d = Dims::new(16, 16, 16);
        let mut v = Volume::zeros(d);
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let dx = x as f32 - 6.0;
                    let dy = y as f32 - 8.0;
                    let dz = z as f32 - 9.0;
                    v.data[d.index(x, y, z)] = (-(dx * dx + dy * dy + dz * dz) / 8.0).exp();
                }
            }
        }
        v
    }

    #[test]
    fn identity_resample_is_exact() {
        let v = blob_volume();
        let w = RigidTransform::IDENTITY.resample(&v);
        assert!(v.rms_diff(&w) < 1e-7);
    }

    #[test]
    fn translation_moves_the_blob() {
        let v = blob_volume();
        // Pull-warp with +2 in x: output(o) = input(o + 2) -> blob moves
        // toward smaller x.
        let w = RigidTransform::translation(2.0, 0.0, 0.0).resample(&v);
        let peak_orig = v.at(6, 8, 9);
        assert!((w.at(4, 8, 9) - peak_orig).abs() < 1e-5);
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let t = RigidTransform::rotation(0.3, -0.2, 0.5);
        let r = t.rotation_matrix();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = (0..3).map(|k| r[i][k] * r[j][k]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-6, "row {i}·{j} = {dot}");
            }
        }
    }

    #[test]
    fn small_motion_roundtrip_recovers_volume() {
        let v = blob_volume();
        let t = RigidTransform { rx: 0.02, ry: -0.015, rz: 0.01, tx: 0.4, ty: -0.3, tz: 0.2 };
        let moved = t.resample(&v);
        let back = t.inverse().resample(&moved);
        // Interior error small (edges clamp); compare a central region.
        let d = v.dims;
        let mut err = 0.0f32;
        let mut count = 0;
        for z in 3..d.nz - 3 {
            for y in 3..d.ny - 3 {
                for x in 3..d.nx - 3 {
                    err += (v.at(x, y, z) - back.at(x, y, z)).powi(2);
                    count += 1;
                }
            }
        }
        let rms = (err / count as f32).sqrt();
        assert!(rms < 0.03, "roundtrip rms {rms}");
    }

    #[test]
    fn apply_point_pure_rotation_preserves_radius() {
        let t = RigidTransform::rotation(0.0, 0.0, std::f32::consts::FRAC_PI_2);
        let c = (0.0, 0.0, 0.0);
        let (x, y, z) = t.apply_point((1.0, 0.0, 0.0), c);
        assert!((x - 0.0).abs() < 1e-6 && (y - 1.0).abs() < 1e-6 && z.abs() < 1e-6);
    }

    #[test]
    fn lanes_map_as_the_scalar_expression_bit_for_bit() {
        let mut rng = gtw_desim::StreamRng::new(3, "transform-lanes");
        let mut draw = |s: f64| rng.uniform_in(-s, s) as f32;
        for _ in 0..200 {
            let ts: [RigidTransform; 12] = std::array::from_fn(|_| {
                RigidTransform::from_params([0.3, 0.3, 0.3, 4.0, 4.0, 4.0].map(&mut draw))
            });
            let p: [[f32; 12]; 3] = std::array::from_fn(|_| std::array::from_fn(|_| draw(70.0)));
            let centre = (draw(40.0), draw(40.0), draw(10.0));
            let got = TransformLanes::new(ts).apply(p, centre);
            for (i, t) in ts.iter().enumerate() {
                // The matrix form as `apply_point` stated it before lanes.
                let r = t.rotation_matrix();
                let (px, py, pz) = (p[0][i] - centre.0, p[1][i] - centre.1, p[2][i] - centre.2);
                let want = [
                    r[0][0] * px + r[0][1] * py + r[0][2] * pz + centre.0 + t.tx,
                    r[1][0] * px + r[1][1] * py + r[1][2] * pz + centre.1 + t.ty,
                    r[2][0] * px + r[2][1] * py + r[2][2] * pz + centre.2 + t.tz,
                ];
                for a in 0..3 {
                    assert_eq!(got[a][i].to_bits(), want[a].to_bits(), "lane {i} axis {a}");
                }
                let one = t.apply_point((p[0][i], p[1][i], p[2][i]), centre);
                assert_eq!([one.0, one.1, one.2].map(f32::to_bits), want.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn params_roundtrip_and_magnitude() {
        let t = RigidTransform::from_params([0.1, 0.2, 0.3, 1.0, 2.0, 3.0]);
        assert_eq!(t.params(), [0.1, 0.2, 0.3, 1.0, 2.0, 3.0]);
        assert!(t.magnitude() > 0.0);
        assert_eq!(RigidTransform::IDENTITY.magnitude(), 0.0);
    }
}
