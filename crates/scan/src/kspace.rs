//! EPI k-space acquisition and image reconstruction.
//!
//! The paper's timing budget starts with "the RT-server receives the
//! data approximately 1.5 seconds after the scan" — that gap is the
//! scanner-side image *reconstruction*: the echo-planar readout samples
//! k-space (the 2-D Fourier transform of each slice), which must be
//! inverse-transformed, and EPI's alternating line direction injects the
//! famous N/2 Nyquist ghost unless the odd/even echo phase mismatch is
//! corrected first. This module implements the whole path from scratch:
//! a radix-2 FFT, the EPI readout with configurable echo misalignment,
//! the ghost, and its phase correction.

/// A complex number (the FFT kit is self-contained on purpose).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }

    /// Complex exponential `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    fn mul(self, o: Complex) -> Complex {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }

    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }

    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

/// In-place radix-2 Cooley–Tukey FFT. `inverse` applies the conjugate
/// transform *and* the 1/N scaling, so `ifft(fft(x)) == x`.
pub fn fft(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2].mul(w);
                data[i + k] = u.add(v);
                data[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        for x in data.iter_mut() {
            x.re /= n as f64;
            x.im /= n as f64;
        }
    }
}

/// A 2-D complex matrix (one slice's k-space or image).
#[derive(Clone, Debug)]
pub struct Slice2d {
    /// Columns (frequency-encode direction).
    pub nx: usize,
    /// Rows (phase-encode direction).
    pub ny: usize,
    /// Row-major samples.
    pub data: Vec<Complex>,
}

impl Slice2d {
    /// From a real image.
    pub fn from_real(nx: usize, ny: usize, img: &[f32]) -> Self {
        assert_eq!(img.len(), nx * ny);
        Slice2d { nx, ny, data: img.iter().map(|&v| Complex::new(v as f64, 0.0)).collect() }
    }

    /// Magnitude image.
    pub fn magnitude(&self) -> Vec<f32> {
        self.data.iter().map(|c| c.abs() as f32).collect()
    }

    /// 2-D FFT (rows then columns).
    pub fn fft2(&mut self, inverse: bool) {
        // Rows.
        for y in 0..self.ny {
            fft(&mut self.data[y * self.nx..(y + 1) * self.nx], inverse);
        }
        // Columns.
        let mut col = vec![Complex::default(); self.ny];
        for x in 0..self.nx {
            for (y, c) in col.iter_mut().enumerate() {
                *c = self.data[x + y * self.nx];
            }
            fft(&mut col, inverse);
            for (y, &c) in col.iter().enumerate() {
                self.data[x + y * self.nx] = c;
            }
        }
    }
}

/// The EPI readout: produce k-space from an image slice, traversing
/// phase-encode lines in alternating directions. A timing misalignment
/// between odd and even echoes appears as a linear phase `phase_per_px`
/// (radians per k-space column) on the reversed lines — the source of
/// the N/2 ghost.
pub fn epi_acquire(image: &Slice2d, phase_per_px: f64) -> Slice2d {
    let mut k = image.clone();
    k.fft2(false);
    // Odd lines are read right-to-left; the gradient timing error adds a
    // linear phase along the readout on those lines.
    for y in (1..k.ny).step_by(2) {
        for x in 0..k.nx {
            let centered = x as f64 - k.nx as f64 / 2.0;
            let ph = Complex::cis(phase_per_px * centered);
            k.data[x + y * k.nx] = k.data[x + y * k.nx].mul(ph);
        }
    }
    k
}

/// Reconstruct an image from EPI k-space, optionally applying the
/// odd-line phase correction (`phase_per_px` must match the acquisition;
/// scanners calibrate it from a reference scan).
pub fn epi_reconstruct(kspace: &Slice2d, correct_phase_per_px: Option<f64>) -> Slice2d {
    let mut k = kspace.clone();
    if let Some(p) = correct_phase_per_px {
        for y in (1..k.ny).step_by(2) {
            for x in 0..k.nx {
                let centered = x as f64 - k.nx as f64 / 2.0;
                let ph = Complex::cis(-p * centered);
                k.data[x + y * k.nx] = k.data[x + y * k.nx].mul(ph);
            }
        }
    }
    k.fft2(true);
    k
}

/// The N/2-ghost level of a reconstructed slice: the image energy in the
/// half-FOV-shifted copy of the object region, relative to the object
/// energy. Needs the object confined to rows `ny/4..3·ny/4` (the test
/// phantom guarantees it).
pub fn ghost_ratio(image: &Slice2d) -> f64 {
    let mag = image.magnitude();
    let (nx, ny) = (image.nx, image.ny);
    let mut object = 0.0f64;
    let mut ghost = 0.0f64;
    for y in 0..ny {
        for x in 0..nx {
            let e = (mag[x + y * nx] as f64).powi(2);
            if (ny / 4..3 * ny / 4).contains(&y) {
                object += e;
            } else {
                ghost += e;
            }
        }
    }
    ghost / object.max(1e-12)
}

/// Reconstruction cost model: complex FLOPs for a volume of
/// `nx × ny × nz` (two 2-D FFTs' worth per slice plus the phase fix),
/// and the time on a front-end workstation of `mflops` — the paper's
/// ~1.5 s budget for 64×64×16 on late-90s scanner hardware.
pub fn recon_time_s(nx: usize, ny: usize, nz: usize, mflops: f64) -> f64 {
    let n = (nx * ny) as f64;
    let fft_flops_per_slice = 5.0 * n * (n.log2()); // standard 5·N·log2(N)
    let total = nz as f64 * (fft_flops_per_slice + 6.0 * n);
    // The FFT itself is cheap; on the vendor console the per-slice
    // pipeline (raw-data readout from the array processor, reordering,
    // filtering, database insert, the paper's "slight modification of
    // the operating system" socket hand-off) dominates at ~80 ms/slice.
    const PER_SLICE_OVERHEAD_S: f64 = 0.08;
    nz as f64 * PER_SLICE_OVERHEAD_S + 2.0 * total / (mflops * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(nx: usize, ny: usize) -> Slice2d {
        // An off-centre blob confined to the central half of the rows.
        let mut img = vec![0.0f32; nx * ny];
        for y in ny / 4..3 * ny / 4 {
            for x in 0..nx {
                let dx = x as f64 - nx as f64 * 0.4;
                let dy = y as f64 - ny as f64 * 0.5;
                img[x + y * nx] = (-(dx * dx + dy * dy) / 20.0).exp() as f32 * 100.0;
            }
        }
        Slice2d::from_real(nx, ny, &img)
    }

    #[test]
    fn fft_roundtrip() {
        let mut data: Vec<Complex> =
            (0..64).map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos())).collect();
        let orig = data.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_parseval() {
        let mut data: Vec<Complex> =
            (0..32).map(|i| Complex::new(((i * 7) % 5) as f64, 0.0)).collect();
        let time_energy: f64 = data.iter().map(|c| c.abs().powi(2)).sum();
        fft(&mut data, false);
        let freq_energy: f64 = data.iter().map(|c| c.abs().powi(2)).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn fft_delta_is_flat() {
        let mut data = vec![Complex::default(); 16];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data, false);
        for c in &data {
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clean_epi_reconstructs_the_image() {
        let img = test_image(32, 32);
        let k = epi_acquire(&img, 0.0);
        let rec = epi_reconstruct(&k, None);
        let orig = img.magnitude();
        let got = rec.magnitude();
        let mut err = 0.0f32;
        for (a, b) in got.iter().zip(&orig) {
            err = err.max((a - b).abs());
        }
        assert!(err < 1e-6, "recon error {err}");
    }

    #[test]
    fn misalignment_creates_the_n2_ghost() {
        let img = test_image(32, 32);
        let clean = epi_reconstruct(&epi_acquire(&img, 0.0), None);
        let ghosted = epi_reconstruct(&epi_acquire(&img, 0.15), None);
        let g_clean = ghost_ratio(&clean);
        let g_bad = ghost_ratio(&ghosted);
        assert!(g_clean < 1e-9, "clean ghost {g_clean}");
        assert!(g_bad > 0.01, "misalignment should ghost: {g_bad}");
    }

    #[test]
    fn phase_correction_removes_the_ghost() {
        let img = test_image(32, 32);
        let k = epi_acquire(&img, 0.15);
        let uncorrected = epi_reconstruct(&k, None);
        let corrected = epi_reconstruct(&k, Some(0.15));
        assert!(ghost_ratio(&corrected) < ghost_ratio(&uncorrected) / 100.0);
        // And the corrected image matches the original.
        let orig = img.magnitude();
        let got = corrected.magnitude();
        let mut err = 0.0f32;
        for (a, b) in got.iter().zip(&orig) {
            err = err.max((a - b).abs());
        }
        assert!(err < 1e-6, "corrected recon error {err}");
    }

    #[test]
    fn wrong_correction_leaves_residual_ghost() {
        let img = test_image(32, 32);
        let k = epi_acquire(&img, 0.15);
        let wrong = epi_reconstruct(&k, Some(0.05));
        let right = epi_reconstruct(&k, Some(0.15));
        assert!(ghost_ratio(&wrong) > ghost_ratio(&right) * 10.0);
    }

    #[test]
    fn recon_budget_matches_the_paper() {
        // 64×64×16 on a late-90s scanner front-end (~50 usable MFLOPS
        // inside the vendor recon pipeline): ~1.5 s, the paper's number.
        let t = recon_time_s(64, 64, 16, 50.0);
        assert!(t > 0.8 && t < 2.5, "recon time {t}");
        // A 4-echo multi-echo protocol quadruples it — the data-rate
        // wall of the outlook.
        assert!((recon_time_s(64, 64, 64, 50.0) / t - 4.0).abs() < 0.1);
    }
}
