//! Detrending: "the measured signal often includes slow baseline drifts.
//! A compensation using a few detrending-vectors can compensate for
//! that."
//!
//! The detrending vectors span the nuisance subspace — constant, linear,
//! and optionally low-frequency cosines — and each voxel's time series is
//! replaced by its least-squares residual against that basis (plus the
//! restored mean, so image intensity stays interpretable).

use crate::linalg::{LeastSquares, Matrix};

/// A detrending basis over `n` scans.
#[derive(Clone, Debug)]
pub struct DetrendBasis {
    /// `n × k` design matrix (each column one detrending vector).
    design: Matrix,
    /// The design's least-squares fit, factored once for every voxel;
    /// `None` for a degenerate basis.
    fit: Option<LeastSquares>,
}

impl DetrendBasis {
    /// Constant + linear basis (the minimum useful set).
    pub fn linear(n: usize) -> Self {
        Self::with_cosines(n, 0)
    }

    /// Constant + linear + the first `cosines` discrete cosine terms
    /// (periods ≥ 2n/k scans: only *slow* drifts, so real activation at
    /// the stimulation frequency is untouched).
    pub fn with_cosines(n: usize, cosines: usize) -> Self {
        assert!(n >= 2, "detrending needs at least 2 scans");
        let mut rows = Vec::with_capacity(n);
        for t in 0..n {
            let tf = t as f64 / (n - 1) as f64;
            let mut row = vec![1.0, tf - 0.5];
            for k in 1..=cosines {
                row.push((std::f64::consts::PI * k as f64 * (t as f64 + 0.5) / n as f64).cos());
            }
            rows.push(row);
        }
        let design = Matrix::from_rows(&rows);
        DetrendBasis { fit: LeastSquares::new(&design), design }
    }

    /// Number of scans covered.
    pub fn len(&self) -> usize {
        self.design.rows
    }

    /// Whether the basis covers no scans.
    pub fn is_empty(&self) -> bool {
        self.design.rows == 0
    }

    /// Number of basis vectors.
    pub fn vectors(&self) -> usize {
        self.design.cols
    }

    /// Detrend one voxel time series in place: subtract the fitted
    /// nuisance component but keep the original mean.
    pub fn detrend(&self, series: &mut [f32]) {
        assert_eq!(series.len(), self.len(), "series length mismatch");
        let b: Vec<f64> = series.iter().map(|&v| v as f64).collect();
        let Some(fit) = &self.fit else {
            return; // degenerate basis: leave the series untouched
        };
        let fitted = self.design.matvec(&fit.fit(&b));
        let mean = b.iter().sum::<f64>() / b.len() as f64;
        for (s, f) in series.iter_mut().zip(fitted) {
            *s = (*s as f64 - f + mean) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn almost_flat(series: &[f32]) -> bool {
        let mean = series.iter().sum::<f32>() / series.len() as f32;
        series.iter().all(|&v| (v - mean).abs() < 1e-3)
    }

    #[test]
    fn removes_linear_drift_exactly() {
        let n = 32;
        let basis = DetrendBasis::linear(n);
        let mut series: Vec<f32> = (0..n).map(|t| 100.0 + 0.7 * t as f32).collect();
        basis.detrend(&mut series);
        assert!(almost_flat(&series), "{series:?}");
        // The mean is preserved.
        let mean = series.iter().sum::<f32>() / n as f32;
        assert!((mean - (100.0 + 0.7 * 31.0 / 2.0)).abs() < 1e-2);
    }

    #[test]
    fn removes_slow_cosine_drift() {
        let n = 64;
        let basis = DetrendBasis::with_cosines(n, 3);
        let mut series: Vec<f32> = (0..n)
            .map(|t| {
                200.0 + 5.0 * (std::f64::consts::PI * (t as f64 + 0.5) / n as f64).cos() as f32
            })
            .collect();
        basis.detrend(&mut series);
        assert!(almost_flat(&series));
    }

    #[test]
    fn preserves_fast_activation_signal() {
        // A block-design square wave at 8-scan period is far above the
        // drift band; detrending must leave its amplitude intact.
        let n = 64;
        let basis = DetrendBasis::with_cosines(n, 3);
        let signal: Vec<f32> = (0..n).map(|t| if (t / 8) % 2 == 1 { 10.0 } else { 0.0 }).collect();
        let mut series: Vec<f32> =
            signal.iter().enumerate().map(|(t, &s)| 100.0 + 0.5 * t as f32 + s).collect();
        basis.detrend(&mut series);
        // Correlate residual with the square wave: amplitude preserved.
        let m = series.iter().sum::<f32>() / n as f32;
        let sig_m = signal.iter().sum::<f32>() / n as f32;
        let num: f32 = series.iter().zip(&signal).map(|(&r, &s)| (r - m) * (s - sig_m)).sum();
        let den: f32 = signal.iter().map(|&s| (s - sig_m) * (s - sig_m)).sum();
        let slope = num / den; // 1.0 = perfectly preserved
        assert!(slope > 0.75 && slope < 1.05, "activation amplitude distorted: slope {slope}");
        // And the linear drift itself is gone: regression on scan index
        // is near zero.
        let t_m = (n as f32 - 1.0) / 2.0;
        let drift_num: f32 =
            series.iter().enumerate().map(|(t, &r)| (t as f32 - t_m) * (r - m)).sum();
        let drift_den: f32 = (0..n).map(|t| (t as f32 - t_m).powi(2)).sum();
        assert!((drift_num / drift_den).abs() < 0.05, "drift residual {}", drift_num / drift_den);
    }

    #[test]
    fn basis_shape() {
        let b = DetrendBasis::with_cosines(20, 2);
        assert_eq!(b.len(), 20);
        assert_eq!(b.vectors(), 4); // constant, linear, 2 cosines
        assert_eq!(DetrendBasis::linear(20).vectors(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        let b = DetrendBasis::linear(8);
        let mut s = vec![0.0f32; 7];
        b.detrend(&mut s);
    }
}
