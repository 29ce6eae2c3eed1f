//! 3-D image volumes.
//!
//! The container every processing module operates on: `f32` voxels in
//! x-fastest order, with checked indexing, slice extraction and trilinear
//! sampling (the primitive under motion correction and rendering).

/// Volume dimensions `(nx, ny, nz)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Dims {
    /// Voxels along x (fastest).
    pub nx: usize,
    /// Voxels along y.
    pub ny: usize,
    /// Voxels along z (slices).
    pub nz: usize,
}

impl Dims {
    /// Construct dimensions.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dims { nx, ny, nz }
    }

    /// The paper's standard functional matrix: 64×64×16.
    pub const EPI: Dims = Dims::new(64, 64, 16);

    /// The paper's anatomical matrix: 256×256×128.
    pub const ANATOMY: Dims = Dims::new(256, 256, 128);

    /// Total voxel count.
    pub const fn len(self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the volume is empty.
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn index(self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz, "voxel out of range");
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Dims::index`].
    #[inline]
    pub fn coords(self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// Geometric centre in voxel coordinates.
    pub fn centre(self) -> (f32, f32, f32) {
        ((self.nx as f32 - 1.0) / 2.0, (self.ny as f32 - 1.0) / 2.0, (self.nz as f32 - 1.0) / 2.0)
    }
}

/// A 3-D scalar volume of `f32` voxels.
#[derive(Clone, PartialEq, Debug)]
pub struct Volume {
    /// Dimensions.
    pub dims: Dims,
    /// Voxels, x-fastest.
    pub data: Vec<f32>,
}

impl Volume {
    /// Zero-filled volume.
    pub fn zeros(dims: Dims) -> Self {
        Volume { dims, data: vec![0.0; dims.len()] }
    }

    /// Constant-filled volume.
    pub fn filled(dims: Dims, v: f32) -> Self {
        Volume { dims, data: vec![v; dims.len()] }
    }

    /// From existing voxel data (must match `dims.len()`).
    pub fn from_vec(dims: Dims, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), dims.len(), "data length does not match dims");
        Volume { dims, data }
    }

    /// Voxel accessor.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.dims.index(x, y, z)]
    }

    /// Mutable voxel accessor.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, z: usize) -> &mut f32 {
        &mut self.data[self.dims.index(x, y, z)]
    }

    /// Trilinear sample at a fractional voxel coordinate; coordinates
    /// outside the volume clamp to the boundary (the behaviour motion
    /// correction wants at the head edge). A NaN coordinate samples
    /// cell 0 with a NaN weight; a zero-sized volume samples as 0.0.
    pub fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        if self.dims.is_empty() {
            return 0.0;
        }
        let cx = x.clamp(0.0, (self.dims.nx - 1) as f32);
        let cy = y.clamp(0.0, (self.dims.ny - 1) as f32);
        let cz = z.clamp(0.0, (self.dims.nz - 1) as f32);
        // After the clamp the cast truncates exactly as `floor` would
        // (-0.0 and NaN both land on 0), without the libm call.
        let (x0, y0, z0) = (cx as usize, cy as usize, cz as usize);
        let x1 = (x0 + 1).min(self.dims.nx - 1);
        let y1 = (y0 + 1).min(self.dims.ny - 1);
        let z1 = (z0 + 1).min(self.dims.nz - 1);
        let (fx, fy, fz) = (cx - x0 as f32, cy - y0 as f32, cz - z0 as f32);
        let c000 = self.at(x0, y0, z0);
        let c100 = self.at(x1, y0, z0);
        let c010 = self.at(x0, y1, z0);
        let c110 = self.at(x1, y1, z0);
        let c001 = self.at(x0, y0, z1);
        let c101 = self.at(x1, y0, z1);
        let c011 = self.at(x0, y1, z1);
        let c111 = self.at(x1, y1, z1);
        let c00 = c000 + fx * (c100 - c000);
        let c10 = c010 + fx * (c110 - c010);
        let c01 = c001 + fx * (c101 - c001);
        let c11 = c011 + fx * (c111 - c011);
        let c0 = c00 + fy * (c10 - c00);
        let c1 = c01 + fy * (c11 - c01);
        c0 + fz * (c1 - c0)
    }

    /// Extract axial slice `z` as a row-major `nx × ny` image.
    pub fn slice_z(&self, z: usize) -> Vec<f32> {
        assert!(z < self.dims.nz, "slice out of range");
        let mut out = Vec::with_capacity(self.dims.nx * self.dims.ny);
        for y in 0..self.dims.ny {
            for x in 0..self.dims.nx {
                out.push(self.at(x, y, z));
            }
        }
        out
    }

    /// Mean voxel value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Minimum and maximum voxel values.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Root-mean-square difference against another volume of equal dims.
    pub fn rms_diff(&self, other: &Volume) -> f32 {
        assert_eq!(self.dims, other.dims, "volume dims mismatch");
        let sum: f64 =
            self.data.iter().zip(&other.data).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum();
        ((sum / self.data.len() as f64).sqrt()) as f32
    }

    /// Payload size in bytes when transferred as `f32` (what the network
    /// experiments move around).
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coords_roundtrip() {
        let d = Dims::new(5, 7, 3);
        for idx in 0..d.len() {
            let (x, y, z) = d.coords(idx);
            assert_eq!(d.index(x, y, z), idx);
        }
    }

    #[test]
    fn epi_dims_match_paper() {
        assert_eq!(Dims::EPI.len(), 64 * 64 * 16);
        assert_eq!(Dims::ANATOMY.len(), 256 * 256 * 128);
        // 64x64x16 f32 volume = 256 KiB.
        assert_eq!(Volume::zeros(Dims::EPI).byte_len(), 262_144);
    }

    #[test]
    fn accessors() {
        let mut v = Volume::zeros(Dims::new(4, 4, 4));
        *v.at_mut(1, 2, 3) = 9.0;
        assert_eq!(v.at(1, 2, 3), 9.0);
        assert_eq!(v.at(0, 0, 0), 0.0);
    }

    #[test]
    fn sample_at_grid_points_is_exact() {
        let d = Dims::new(4, 5, 6);
        let mut v = Volume::zeros(d);
        for idx in 0..d.len() {
            v.data[idx] = idx as f32;
        }
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    assert_eq!(v.sample(x as f32, y as f32, z as f32), v.at(x, y, z));
                }
            }
        }
    }

    #[test]
    fn sample_interpolates_linearly() {
        let d = Dims::new(2, 1, 1);
        let v = Volume::from_vec(d, vec![0.0, 10.0]);
        assert!((v.sample(0.25, 0.0, 0.0) - 2.5).abs() < 1e-6);
        assert!((v.sample(0.5, 0.0, 0.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sample_clamps_outside() {
        let d = Dims::new(2, 2, 2);
        let v = Volume::filled(d, 3.0);
        assert_eq!(v.sample(-5.0, 0.0, 0.0), 3.0);
        assert_eq!(v.sample(99.0, 99.0, 99.0), 3.0);
    }

    #[test]
    fn slice_extraction() {
        let d = Dims::new(2, 2, 2);
        let mut v = Volume::zeros(d);
        *v.at_mut(0, 0, 1) = 1.0;
        *v.at_mut(1, 1, 1) = 2.0;
        assert_eq!(v.slice_z(1), vec![1.0, 0.0, 0.0, 2.0]);
        assert_eq!(v.slice_z(0), vec![0.0; 4]);
    }

    #[test]
    fn stats() {
        let v = Volume::from_vec(Dims::new(2, 2, 1), vec![1.0, 2.0, 3.0, 4.0]);
        assert!((v.mean() - 2.5).abs() < 1e-6);
        assert_eq!(v.min_max(), (1.0, 4.0));
        let w = Volume::from_vec(Dims::new(2, 2, 1), vec![1.0, 2.0, 3.0, 8.0]);
        assert!((v.rms_diff(&w) - 2.0).abs() < 1e-6);
        assert_eq!(v.rms_diff(&v), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn from_vec_length_checked() {
        let _ = Volume::from_vec(Dims::new(2, 2, 2), vec![0.0; 7]);
    }
}
