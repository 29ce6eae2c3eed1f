//! The hemodynamic response model.
//!
//! fMRI activation detection correlates the voxel signal with a
//! *reference vector*: "a convolution of the stimulation time course with
//! a hemodynamic response function. The latter takes into account the
//! delay and dispersion of the blood flow in response to neuronal
//! activation." The HRF used here is the standard gamma-variate with
//! explicit delay and dispersion parameters — exactly the two parameters
//! the paper's reference-vector optimization (RVO) fits per voxel.

/// Gamma-variate hemodynamic response at time `t` seconds after stimulus
/// onset, with peak `delay` (seconds) and `dispersion` (width scale,
/// seconds).
///
/// `h(t) = (t/delay)^(delay/dispersion) * exp(-(t - delay)/dispersion)`
/// — peaks at `t = delay` with unit amplitude; wider for larger
/// dispersion.
pub fn hrf_gamma(t: f64, delay: f64, dispersion: f64) -> f64 {
    assert!(delay > 0.0 && dispersion > 0.0, "HRF parameters must be positive");
    if t <= 0.0 {
        return 0.0;
    }
    let a = delay / dispersion;
    (t / delay).powf(a) * (-(t - delay) / dispersion).exp()
}

/// Canonical HRF delay (seconds to peak) for adult visual cortex.
pub const CANONICAL_DELAY_S: f64 = 6.0;
/// Canonical HRF dispersion (seconds).
pub const CANONICAL_DISPERSION_S: f64 = 1.0;

/// A stimulation time course: per-repetition on/off (or graded) values.
#[derive(Clone, Debug)]
pub struct Stimulus {
    /// One value per repetition (scan), typically 0.0 / 1.0.
    pub course: Vec<f64>,
    /// Repetition time (seconds between scans).
    pub tr_s: f64,
}

impl Stimulus {
    /// Periodic block design: `on` scans of stimulation alternating with
    /// `off` scans of rest, starting with rest, for `total` scans — the
    /// paper's "periodic visual or acoustic stimulations".
    pub fn block_design(off: usize, on: usize, total: usize, tr_s: f64) -> Self {
        assert!(off + on > 0, "block period must be positive");
        let period = off + on;
        let course = (0..total).map(|i| if i % period < off { 0.0 } else { 1.0 }).collect();
        Stimulus { course, tr_s }
    }

    /// Number of scans.
    pub fn len(&self) -> usize {
        self.course.len()
    }

    /// Whether the course is empty.
    pub fn is_empty(&self) -> bool {
        self.course.is_empty()
    }
}

/// A reference vector: the expected BOLD time course.
#[derive(Clone, Debug)]
pub struct ReferenceVector {
    /// One expected-response value per scan, zero-mean normalized to unit
    /// L2 norm (so correlation is a dot product).
    pub values: Vec<f64>,
    /// HRF delay used, seconds.
    pub delay_s: f64,
    /// HRF dispersion used, seconds.
    pub dispersion_s: f64,
}

/// Raw (unnormalized) convolution of a stimulus with the gamma HRF,
/// discretized at TR resolution — the physical BOLD response shape the
/// scanner simulator modulates the signal with.
pub fn raw_convolution(stimulus: &Stimulus, delay_s: f64, dispersion_s: f64) -> Vec<f64> {
    let n = stimulus.len();
    // Discretize the HRF at TR resolution out to where it has decayed.
    let span_s: f64 = delay_s + 10.0 * dispersion_s;
    let k = ((span_s / stimulus.tr_s).ceil() as usize).max(1);
    let kernel: Vec<f64> =
        (0..=k).map(|i| hrf_gamma(i as f64 * stimulus.tr_s, delay_s, dispersion_s)).collect();
    let mut values = vec![0.0; n];
    for (i, v) in values.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &h) in kernel.iter().enumerate() {
            if j > i {
                break;
            }
            acc += stimulus.course[i - j] * h;
        }
        *v = acc;
    }
    values
}

impl ReferenceVector {
    /// Convolve `stimulus` with the gamma HRF at the given parameters,
    /// then demean and L2-normalize.
    pub fn from_stimulus(stimulus: &Stimulus, delay_s: f64, dispersion_s: f64) -> Self {
        let values = raw_convolution(stimulus, delay_s, dispersion_s);
        let mut rv = ReferenceVector { values, delay_s, dispersion_s };
        rv.normalize();
        rv
    }

    /// The canonical reference for a stimulus.
    pub fn canonical(stimulus: &Stimulus) -> Self {
        Self::from_stimulus(stimulus, CANONICAL_DELAY_S, CANONICAL_DISPERSION_S)
    }

    fn normalize(&mut self) {
        let n = self.values.len() as f64;
        if n == 0.0 {
            return;
        }
        let mean = self.values.iter().sum::<f64>() / n;
        for v in &mut self.values {
            *v -= mean;
        }
        let norm = self.values.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
    }

    /// Number of scans covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pearson correlation of a voxel time series against this reference.
    pub fn correlate(&self, series: &[f32]) -> f64 {
        assert_eq!(series.len(), self.values.len(), "series length mismatch");
        let n = series.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = series.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mut dot = 0.0;
        let mut ss = 0.0;
        for (&s, &r) in series.iter().zip(&self.values) {
            let d = s as f64 - mean;
            dot += d * r;
            ss += d * d;
        }
        if ss <= 0.0 {
            return 0.0;
        }
        // `values` already has zero mean and unit norm.
        (dot / ss.sqrt()).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrf_peaks_at_delay() {
        let d = 6.0;
        let peak = hrf_gamma(d, d, 1.0);
        assert!((peak - 1.0).abs() < 1e-12);
        for t in [2.0, 4.0, 8.0, 12.0] {
            assert!(hrf_gamma(t, d, 1.0) < peak, "t={t}");
        }
        assert_eq!(hrf_gamma(0.0, d, 1.0), 0.0);
        assert_eq!(hrf_gamma(-1.0, d, 1.0), 0.0);
    }

    #[test]
    fn dispersion_widens_response() {
        // Wider dispersion -> more mass away from the peak.
        let narrow: f64 = (0..200).map(|i| hrf_gamma(i as f64 * 0.1, 6.0, 0.6)).sum::<f64>();
        let wide: f64 = (0..200).map(|i| hrf_gamma(i as f64 * 0.1, 6.0, 1.8)).sum::<f64>();
        assert!(wide > narrow);
    }

    #[test]
    fn block_design_shape() {
        let s = Stimulus::block_design(5, 5, 20, 2.0);
        assert_eq!(s.len(), 20);
        assert_eq!(&s.course[..5], &[0.0; 5]);
        assert_eq!(&s.course[5..10], &[1.0; 5]);
        assert_eq!(&s.course[10..15], &[0.0; 5]);
    }

    #[test]
    fn reference_vector_is_normalized() {
        let s = Stimulus::block_design(8, 8, 64, 2.0);
        let rv = ReferenceVector::canonical(&s);
        let mean: f64 = rv.values.iter().sum::<f64>() / rv.len() as f64;
        let norm: f64 = rv.values.iter().map(|v| v * v).sum::<f64>();
        assert!(mean.abs() < 1e-12);
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reference_lags_stimulus() {
        // The convolved response must peak after stimulation onset.
        let s = Stimulus::block_design(10, 10, 40, 2.0);
        let rv = ReferenceVector::canonical(&s);
        // Onset at scan 10; find the first scan where the reference
        // reaches half its maximum.
        let max = rv.values.iter().cloned().fold(f64::MIN, f64::max);
        let half_idx = rv.values.iter().position(|&v| v > max / 2.0).unwrap();
        assert!(half_idx > 10, "response should lag onset, got {half_idx}");
        assert!(half_idx < 16, "lag should be a few scans (HRF delay), got {half_idx}");
    }

    #[test]
    fn correlation_detects_own_shape() {
        let s = Stimulus::block_design(8, 8, 64, 2.0);
        let rv = ReferenceVector::canonical(&s);
        let series: Vec<f32> = rv.values.iter().map(|&v| 100.0 + 50.0 * v as f32).collect();
        assert!(rv.correlate(&series) > 0.999);
        let anti: Vec<f32> = rv.values.iter().map(|&v| 100.0 - 50.0 * v as f32).collect();
        assert!(rv.correlate(&anti) < -0.999);
    }

    #[test]
    fn correlation_of_noise_is_small_and_bounded() {
        let s = Stimulus::block_design(8, 8, 64, 2.0);
        let rv = ReferenceVector::canonical(&s);
        // Deterministic pseudo-noise.
        let series: Vec<f32> =
            (0..64).map(|i| ((i * 2654435761u64 % 1000) as f32) / 1000.0).collect();
        let c = rv.correlate(&series);
        assert!((-1.0..=1.0).contains(&c));
        assert!(c.abs() < 0.5, "noise correlation suspiciously high: {c}");
    }

    #[test]
    fn constant_series_correlates_zero() {
        let s = Stimulus::block_design(4, 4, 16, 2.0);
        let rv = ReferenceVector::canonical(&s);
        assert_eq!(rv.correlate(&[7.0; 16]), 0.0);
    }
}
