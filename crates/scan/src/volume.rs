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
    /// The one-lane case of [`Volume::sample_lanes`].
    #[inline]
    pub fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self.sample_lanes([x], [y], [z])[0]
    }

    /// [`Volume::sample`] at `L` points at once: lane `i` is
    /// `sample(x[i], y[i], z[i])`, bit for bit. Three passes over
    /// `[_; L]` arrays, the first and last of which compile to vector
    /// instructions across lanes: clamp, truncate and index; read the
    /// eight corners from one bounds-checked slice per lane; the seven
    /// lerps in the scalar order. After the clamp the truncation sends
    /// `-0.0` and NaN to 0, as `as usize` did, and the index math is
    /// `i32`, so the volume must hold at most `i32::MAX` voxels (8 GiB of
    /// `f32`); a larger one panics.
    #[inline(always)]
    pub fn sample_lanes<const L: usize>(&self, x: [f32; L], y: [f32; L], z: [f32; L]) -> [f32; L] {
        let d = self.dims;
        if d.is_empty() {
            return [0.0; L];
        }
        assert!(
            d.len() <= i32::MAX as usize,
            "sample_lanes indexes in i32: {d:?} holds more than i32::MAX voxels"
        );
        let (nx, ny, nz) = (d.nx as i32, d.ny as i32, d.nz as i32);
        // Pass 1: each axis clamped to [0, h], h below 2³¹ (`(n − 1) as f32`
        // rounds up to 2³¹ near `i32::MAX`), and truncated as one lane
        // array (`as i32` converts lane by lane, with NaN fix-ups); then
        // the cell's base index, its +1 step along each axis (0 on the
        // last plane, as `min(x0 + 1, n - 1)` gave) and the fractions.
        let (mut c, mut c0) = ([[0.0f32; L]; 3], [[0i32; L]; 3]);
        for (a, (v, n)) in [(x, d.nx), (y, d.ny), (z, d.nz)].into_iter().enumerate() {
            let h = ((n - 1) as f32).min(2_147_483_520.0);
            for i in 0..L {
                c[a][i] = v[i].clamp(0.0, h);
                let t = if c[a][i] >= 0.0 { c[a][i] } else { 0.0 };
                // SAFETY: the clamp left the lane in [0, h] or NaN, and NaN
                // became 0, so `t` is finite in [0, 2³¹) and fits an `i32`.
                c0[a][i] = unsafe { t.to_int_unchecked::<i32>() };
            }
        }
        let (mut base, mut ox, mut oy, mut oz) = ([0i32; L], [0i32; L], [0i32; L], [0i32; L]);
        let (mut fx, mut fy, mut fz) = ([0.0f32; L], [0.0f32; L], [0.0f32; L]);
        for i in 0..L {
            let (x0, y0, z0) = (c0[0][i], c0[1][i], c0[2][i]);
            base[i] = x0 + nx * (y0 + ny * z0);
            ox[i] = if x0 + 1 < nx { 1 } else { 0 };
            oy[i] = if y0 + 1 < ny { nx } else { 0 };
            oz[i] = if z0 + 1 < nz { nx * ny } else { 0 };
            fx[i] = c[0][i] - x0 as f32;
            fy[i] = c[1][i] - y0 as f32;
            fz[i] = c[2][i] - z0 as f32;
        }
        // Pass 2: the corners, `cXYZ` one step along each axis marked 1.
        let mut c = [[0.0f32; L]; 8];
        for i in 0..L {
            let (b, ox, oy, oz) =
                (base[i] as usize, ox[i] as usize, oy[i] as usize, oz[i] as usize);
            let cell = &self.data[b..=b + ox + oy + oz];
            let corners = [0, ox, oy, ox + oy, oz, ox + oz, oy + oz, ox + oy + oz];
            for (ck, o) in c.iter_mut().zip(corners) {
                ck[i] = cell[o];
            }
        }
        let [c000, c100, c010, c110, c001, c101, c011, c111] = c;
        // Pass 3: the lerps, x then y then z.
        let mut out = [0.0f32; L];
        for i in 0..L {
            let (fx, fy, fz) = (fx[i], fy[i], fz[i]);
            let c00 = c000[i] + fx * (c100[i] - c000[i]);
            let c10 = c010[i] + fx * (c110[i] - c010[i]);
            let c01 = c001[i] + fx * (c101[i] - c001[i]);
            let c11 = c011[i] + fx * (c111[i] - c011[i]);
            let c0 = c00 + fy * (c10 - c00);
            let c1 = c01 + fy * (c11 - c01);
            out[i] = c0 + fz * (c1 - c0);
        }
        out
    }

    /// `sample` as it was before it became the one-lane case of
    /// [`Volume::sample_lanes`], kept as the reference the lanes are
    /// held to.
    #[cfg(test)]
    fn sample_reference(&self, x: f32, y: f32, z: f32) -> f32 {
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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

    /// A voxel value: one of the awkward ones, or a normal draw.
    fn voxel(rng: &mut gtw_desim::StreamRng) -> f32 {
        const AWKWARD: [f32; 7] =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MAX, -f32::MAX, 0.0];
        match rng.below(4) {
            0 => AWKWARD[rng.below(AWKWARD.len() as u64) as usize],
            _ => (rng.normal() * 100.0) as f32,
        }
    }

    /// A coordinate on an axis of `n` voxels: one of the awkward
    /// values, an exact integer, or a draw over [-2, n + 1].
    fn coordinate(rng: &mut gtw_desim::StreamRng, n: usize) -> f32 {
        let awkward = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, (n - 1) as f32];
        match rng.below(8) {
            0 => awkward[rng.below(awkward.len() as u64) as usize],
            1 => rng.below(n as u64 + 3) as f32 - 1.0,
            _ => rng.uniform_in(-2.0, n as f64 + 1.0) as f32,
        }
    }

    /// Equal bits, or NaN both: Rust leaves the sign and payload of a
    /// NaN an operation produces unspecified, and the compiler may swap
    /// the operands of a commutative one.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every lane of `sample_lanes::<L>` against `sample_reference`.
    fn lanes_match<const L: usize>(
        vol: &Volume,
        rng: &mut gtw_desim::StreamRng,
    ) -> Result<(), String> {
        let d = vol.dims;
        let x: [f32; L] = std::array::from_fn(|_| coordinate(rng, d.nx));
        let y: [f32; L] = std::array::from_fn(|_| coordinate(rng, d.ny));
        let z: [f32; L] = std::array::from_fn(|_| coordinate(rng, d.nz));
        let got = vol.sample_lanes(x, y, z);
        for i in 0..L {
            let want = vol.sample_reference(x[i], y[i], z[i]);
            if !same(got[i], want) {
                return Err(format!(
                    "{d:?} L={L} lane {i} at ({}, {}, {}): {} vs {want}",
                    x[i], y[i], z[i], got[i]
                ));
            }
        }
        if L == 1 && !same(vol.sample(x[0], y[0], z[0]), got[0]) {
            return Err(format!("sample is not the one-lane case at {x:?}"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Each lane is the scalar body, bit for bit (a NaN as a NaN):
        /// coordinates inside, outside either face, on the grid and the
        /// last plane, and not a number; voxels that are NaN, infinite,
        /// `-0.0` or `±f32::MAX`.
        #[test]
        fn lanes_sample_as_the_reference_bit_for_bit(
            dims in (1usize..18, 1usize..14, 1usize..10),
            seed in 0u64..1_000_000,
        ) {
            let dims = Dims::new(dims.0, dims.1, dims.2);
            let mut rng = gtw_desim::StreamRng::new(seed, "sample-lanes");
            let vol = Volume::from_vec(dims, (0..dims.len()).map(|_| voxel(&mut rng)).collect());
            for _ in 0..4 {
                lanes_match::<1>(&vol, &mut rng).map_err(TestCaseError::fail)?;
                lanes_match::<3>(&vol, &mut rng).map_err(TestCaseError::fail)?;
                lanes_match::<4>(&vol, &mut rng).map_err(TestCaseError::fail)?;
                lanes_match::<8>(&vol, &mut rng).map_err(TestCaseError::fail)?;
                lanes_match::<12>(&vol, &mut rng).map_err(TestCaseError::fail)?;
                lanes_match::<16>(&vol, &mut rng).map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn lanes_cover_the_smallest_and_largest_dims() {
        // The proptest's corners, drawn for sure.
        for dims in [Dims::new(1, 1, 1), Dims::new(17, 13, 9)] {
            let mut rng = gtw_desim::StreamRng::new(7, "sample-lanes-corners");
            let vol = Volume::from_vec(dims, (0..dims.len()).map(|_| voxel(&mut rng)).collect());
            for _ in 0..64 {
                lanes_match::<12>(&vol, &mut rng).unwrap();
            }
        }
    }

    #[test]
    fn lanes_sample_a_long_axis_whose_last_index_rounds() {
        // (n − 1) as f32 rounds 2^24 + 1 down to 2^24: both bodies clamp
        // to the same rounded plane, and truncate alike around it.
        let dims = Dims::new((1 << 24) + 2, 1, 1);
        let vol = Volume::from_vec(dims, (0..dims.len()).map(|i| (i % 1000) as f32).collect());
        let mut rng = gtw_desim::StreamRng::new(5, "sample-lanes-long-axis");
        for _ in 0..64 {
            let x: [f32; 16] = std::array::from_fn(|_| match rng.below(3) {
                0 => (1u64 << 24) as f32 - rng.below(8) as f32,
                1 => rng.uniform_in(16_777_200.0, 16_777_230.0) as f32,
                _ => coordinate(&mut rng, dims.nx),
            });
            let got = vol.sample_lanes(x, [0.0; 16], [0.0; 16]);
            for i in 0..16 {
                assert!(same(got[i], vol.sample_reference(x[i], 0.0, 0.0)), "lane {i} at {}", x[i]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "range start index 2147483520 out of range")]
    fn lanes_truncate_below_2_31_on_an_axis_near_i32_max() {
        // (i32::MAX − 1) as f32 rounds up to 2^31, which no i32 holds:
        // the clamp stops at the largest f32 below it, 2^31 − 128, so
        // the lanes reach the bounds-checked cell read (there is no
        // data) at x0 = 2 147 483 520.
        let vol = Volume { dims: Dims::new(i32::MAX as usize, 1, 1), data: Vec::new() };
        let _ = vol.sample_lanes([f32::INFINITY; 16], [0.0; 16], [0.0; 16]);
    }

    #[test]
    fn a_zero_axis_volume_samples_zero_in_every_lane() {
        for dims in [Dims::new(0, 3, 3), Dims::new(3, 0, 3), Dims::new(3, 3, 0)] {
            let vol = Volume::zeros(dims);
            let got = vol.sample_lanes([1.0, f32::NAN, -4.0], [0.5; 3], [2.0; 3]);
            assert_eq!(got.map(f32::to_bits), [0.0f32.to_bits(); 3]);
        }
    }

    #[test]
    #[should_panic(expected = "more than i32::MAX voxels")]
    fn lanes_refuse_a_volume_past_i32_max_voxels() {
        // 2^31 voxels: one more than the index math holds. No data is
        // needed, the size check comes first.
        let vol = Volume { dims: Dims::new(1 << 16, 1 << 15, 1), data: Vec::new() };
        let _ = vol.sample_lanes([0.0; 4], [0.0; 4], [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn from_vec_length_checked() {
        let _ = Volume::from_vec(Dims::new(2, 2, 2), vec![0.0; 7]);
    }
}
