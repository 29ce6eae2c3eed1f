//! Correlation analysis: "for each voxel, the correlation between the
//! measured signal and a fixed reference vector is calculated", displayed
//! wherever it exceeds an adjustable clip level.
//!
//! The analysis is *incremental*: FIRE updates the correlation map after
//! every scan within the acquisition time, so the state keeps running
//! sums per voxel rather than the whole series. ROI time courses (the
//! upper-right panel of the paper's Figure 3) are tracked the same way.

use gtw_scan::hrf::ReferenceVector;
use gtw_scan::volume::{Dims, Volume};

/// Running per-voxel correlation state.
pub struct CorrelationState {
    dims: Dims,
    reference: Vec<f64>,
    n: usize,
    sum_r: f64,
    sum_r2: f64,
    sum_x: Vec<f64>,
    sum_x2: Vec<f64>,
    sum_xr: Vec<f64>,
}

impl CorrelationState {
    /// New state for a protocol described by `reference` (one value per
    /// scheduled scan).
    pub fn new(dims: Dims, reference: &ReferenceVector) -> Self {
        CorrelationState {
            dims,
            reference: reference.values.clone(),
            n: 0,
            sum_r: 0.0,
            sum_r2: 0.0,
            sum_x: vec![0.0; dims.len()],
            sum_x2: vec![0.0; dims.len()],
            sum_xr: vec![0.0; dims.len()],
        }
    }

    /// Scans incorporated so far.
    pub fn scans(&self) -> usize {
        self.n
    }

    /// The running sums, exactly as accumulated — the checkpointable
    /// state of the incremental analysis: `(n, sum_r, sum_r2, sum_x,
    /// sum_x2, sum_xr)`.
    pub(crate) fn snapshot(&self) -> (usize, f64, f64, &[f64], &[f64], &[f64]) {
        (self.n, self.sum_r, self.sum_r2, &self.sum_x, &self.sum_x2, &self.sum_xr)
    }

    /// Rebuild a state from checkpointed running sums. The caller
    /// supplies the protocol's reference vector (it is configuration,
    /// not state); the sums must carry the exact bits of
    /// [`CorrelationState::snapshot`] for the restored maps to be
    /// bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        dims: Dims,
        reference: &ReferenceVector,
        n: usize,
        sum_r: f64,
        sum_r2: f64,
        sum_x: Vec<f64>,
        sum_x2: Vec<f64>,
        sum_xr: Vec<f64>,
    ) -> Self {
        assert_eq!(sum_x.len(), dims.len(), "sum_x length mismatch");
        assert_eq!(sum_x2.len(), dims.len(), "sum_x2 length mismatch");
        assert_eq!(sum_xr.len(), dims.len(), "sum_xr length mismatch");
        CorrelationState {
            dims,
            reference: reference.values.clone(),
            n,
            sum_r,
            sum_r2,
            sum_x,
            sum_x2,
            sum_xr,
        }
    }

    /// Incorporate the next scan (must arrive in protocol order).
    pub fn push(&mut self, vol: &Volume) {
        assert_eq!(vol.dims, self.dims, "volume dims mismatch");
        assert!(self.n < self.reference.len(), "more scans than the protocol has");
        let r = self.reference[self.n];
        self.sum_r += r;
        self.sum_r2 += r * r;
        // A few tens of µs of streaming arithmetic: not worth a thread.
        let sums = self.sum_x.iter_mut().zip(&mut self.sum_x2).zip(&mut self.sum_xr);
        for (&v, ((x, x2), xr)) in vol.data.iter().zip(sums) {
            let v = v as f64;
            *x += v;
            *x2 += v * v;
            *xr += v * r;
        }
        self.n += 1;
    }

    /// Pearson correlation of one voxel over the scans so far.
    pub fn voxel_correlation(&self, idx: usize) -> f32 {
        let n = self.n as f64;
        if self.n < 3 {
            return 0.0;
        }
        let cov = self.sum_xr[idx] - self.sum_x[idx] * self.sum_r / n;
        let var_x = self.sum_x2[idx] - self.sum_x[idx] * self.sum_x[idx] / n;
        let var_r = self.sum_r2 - self.sum_r * self.sum_r / n;
        if var_x <= 0.0 || var_r <= 0.0 {
            return 0.0;
        }
        ((cov / (var_x * var_r).sqrt()) as f32).clamp(-1.0, 1.0)
    }

    /// The full correlation map over the scans so far.
    pub fn correlation_map(&self) -> Volume {
        let mut out = Volume::zeros(self.dims);
        for (i, v) in out.data.iter_mut().enumerate() {
            *v = self.voxel_correlation(i);
        }
        out
    }
}

/// Detection quality of a correlation map against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// True-positive rate (sensitivity) among truly active voxels.
    pub tpr: f64,
    /// False-positive rate among truly inactive voxels.
    pub fpr: f64,
    /// Number of voxels above the clip level.
    pub detected: usize,
}

/// Score a correlation map at a clip level against a truth mask.
pub fn score_detection(map: &Volume, truth: &[bool], clip: f32) -> DetectionScore {
    assert_eq!(map.data.len(), truth.len(), "truth mask length mismatch");
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut pos = 0usize;
    let mut neg = 0usize;
    for (&c, &t) in map.data.iter().zip(truth) {
        let hit = c >= clip;
        if t {
            pos += 1;
            if hit {
                tp += 1;
            }
        } else {
            neg += 1;
            if hit {
                fp += 1;
            }
        }
    }
    DetectionScore {
        tpr: if pos > 0 { tp as f64 / pos as f64 } else { 0.0 },
        fpr: if neg > 0 { fp as f64 / neg as f64 } else { 0.0 },
        detected: tp + fp,
    }
}

/// A region-of-interest time-course tracker (Figure 3's signal panels).
pub struct RoiStats {
    /// Voxel indices belonging to the ROI.
    pub indices: Vec<usize>,
    /// Mean intensity per scan so far.
    pub course: Vec<f32>,
}

impl RoiStats {
    /// ROI from a voxel index list.
    pub fn new(indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "ROI must contain voxels");
        RoiStats { indices, course: Vec::new() }
    }

    /// Spherical ROI around a voxel coordinate.
    pub fn sphere(dims: Dims, centre: (usize, usize, usize), radius: f32) -> Self {
        let mut indices = Vec::new();
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    let d2 = (x as f32 - centre.0 as f32).powi(2)
                        + (y as f32 - centre.1 as f32).powi(2)
                        + (z as f32 - centre.2 as f32).powi(2);
                    if d2 <= radius * radius {
                        indices.push(dims.index(x, y, z));
                    }
                }
            }
        }
        Self::new(indices)
    }

    /// Append the next scan's ROI mean.
    pub fn push(&mut self, vol: &Volume) {
        let sum: f64 = self.indices.iter().map(|&i| vol.data[i] as f64).sum();
        self.course.push((sum / self.indices.len() as f64) as f32);
    }

    /// Percent signal change of the course relative to its first value.
    pub fn percent_change(&self) -> Vec<f32> {
        let Some(&base) = self.course.first() else {
            return Vec::new();
        };
        if base == 0.0 {
            return vec![0.0; self.course.len()];
        }
        self.course.iter().map(|&v| 100.0 * (v - base) / base).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::acquire::{Scanner, ScannerConfig};
    use gtw_scan::hrf::Stimulus;
    use gtw_scan::phantom::Phantom;

    fn run_analysis(cfg: ScannerConfig, phantom: Phantom) -> (CorrelationState, Scanner) {
        let scanner = Scanner::new(cfg, phantom);
        let stim = &scanner.config().stimulus;
        let rv = ReferenceVector::canonical(stim);
        let mut state = CorrelationState::new(scanner.config().dims, &rv);
        for t in 0..scanner.scan_count() {
            state.push(&scanner.acquire(t));
        }
        (state, scanner)
    }

    #[test]
    fn detects_phantom_activation() {
        let cfg = ScannerConfig {
            noise_sd: 3.0,
            motion_step: 0.0,
            ..ScannerConfig::paper_default(48, 11)
        };
        let (state, scanner) = run_analysis(cfg, Phantom::standard());
        let map = state.correlation_map();
        let truth = scanner.phantom().truth_mask(scanner.config().dims, 0.01);
        let score = score_detection(&map, &truth, 0.5);
        assert!(score.tpr > 0.7, "sensitivity too low: {score:?}");
        assert!(score.fpr < 0.01, "false positives too high: {score:?}");
    }

    #[test]
    fn null_phantom_has_no_detections() {
        let cfg = ScannerConfig {
            noise_sd: 3.0,
            motion_step: 0.0,
            ..ScannerConfig::paper_default(48, 13)
        };
        let (state, _) = run_analysis(cfg, Phantom::inactive());
        let map = state.correlation_map();
        let over: usize = map.data.iter().filter(|&&c| c >= 0.6).count();
        // A handful of chance crossings are tolerable; 64k voxels at
        // r>=0.6 over 48 scans should be essentially zero.
        assert!(over < 20, "null experiment produced {over} detections");
    }

    #[test]
    fn correlations_bounded() {
        let cfg = ScannerConfig::paper_default(24, 3);
        let (state, _) = run_analysis(cfg, Phantom::standard());
        let map = state.correlation_map();
        for &c in &map.data {
            assert!((-1.0..=1.0).contains(&c), "correlation out of range: {c}");
        }
    }

    #[test]
    fn incremental_matches_batch() {
        // The incremental Pearson must equal a direct computation.
        let cfg = ScannerConfig {
            noise_sd: 2.0,
            motion_step: 0.0,
            ..ScannerConfig::paper_default(20, 5)
        };
        let scanner = Scanner::new(cfg, Phantom::standard());
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let mut state = CorrelationState::new(scanner.config().dims, &rv);
        let series: Vec<_> = scanner.series();
        for vol in &series {
            state.push(vol);
        }
        // Pick a few voxels and compare against ReferenceVector::correlate.
        let dims = scanner.config().dims;
        for &(x, y, z) in &[(32usize, 32usize, 8usize), (20, 40, 5), (10, 10, 10)] {
            let idx = dims.index(x, y, z);
            let voxel_series: Vec<f32> = series.iter().map(|v| v.data[idx]).collect();
            let direct = rv.correlate(&voxel_series) as f32;
            let incr = state.voxel_correlation(idx);
            assert!((direct - incr).abs() < 1e-4, "({x},{y},{z}): {direct} vs {incr}");
        }
    }

    #[test]
    fn roi_course_follows_stimulus() {
        let cfg = ScannerConfig {
            noise_sd: 0.0,
            drift_fraction: 0.0,
            motion_step: 0.0,
            ..ScannerConfig::paper_default(32, 1)
        };
        let scanner = Scanner::new(cfg, Phantom::standard());
        // ROI at the motor site: normalized [-0.35,-0.15,0.55] ->
        // voxel ((−0.35+1)/2·63, ...) ≈ (20, 27, 12).
        let mut roi = RoiStats::sphere(scanner.config().dims, (20, 27, 12), 3.0);
        for t in 0..scanner.scan_count() {
            roi.push(&scanner.acquire(t));
        }
        let pc = roi.percent_change();
        let peak = pc.iter().cloned().fold(f32::MIN, f32::max);
        assert!(peak > 1.0, "ROI should show >1% signal change, got {peak}");
        // And the peak lags stimulation onset (scan 8).
        let peak_t = pc.iter().position(|&v| v == peak).unwrap();
        assert!(peak_t > 8, "peak at {peak_t}");
    }

    #[test]
    fn early_scans_give_zero_correlation() {
        let stim = Stimulus::block_design(4, 4, 16, 2.0);
        let rv = ReferenceVector::canonical(&stim);
        let state = CorrelationState::new(Dims::new(2, 2, 2), &rv);
        assert_eq!(state.voxel_correlation(0), 0.0);
        assert_eq!(state.scans(), 0);
    }

    #[test]
    #[should_panic(expected = "more scans than the protocol")]
    fn protocol_overrun_panics() {
        let stim = Stimulus::block_design(1, 1, 2, 2.0);
        let rv = ReferenceVector::canonical(&stim);
        let mut state = CorrelationState::new(Dims::new(2, 2, 2), &rv);
        let v = Volume::zeros(Dims::new(2, 2, 2));
        state.push(&v);
        state.push(&v);
        state.push(&v);
    }
}
