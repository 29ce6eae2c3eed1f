//! The FIRE processing pipeline: the module chain of Section 4, with
//! every module optional at runtime "via the GUI of the RT-client".
//!
//! Processing order per image, as in the paper: median filter → 3-D
//! movement correction → (detrending) → correlation against the
//! reference vector → optional smoothing of the result. RVO runs over
//! the accumulated series (it needs history by definition).

use gtw_scan::hrf::{ReferenceVector, Stimulus};
use gtw_scan::motion::RigidTransform;
use gtw_scan::volume::{Dims, Volume};

use crate::analysis::CorrelationState;
use crate::checkpoint::{Checkpoint, CheckpointError, MotionEntry};
use crate::detrend::DetrendBasis;
use crate::filters::{average_filter, median_filter};
use crate::motion::{MotionCorrector, MotionEstimate};
use crate::rvo::{self, RvoBounds, RvoMethod, RvoResult};
use crate::VOXEL_CHUNK;

/// Which modules are enabled (the checkboxes of the FIRE GUI).
#[derive(Clone, Copy, Debug)]
pub struct FireConfig {
    /// Median pre-filter.
    pub median_filter: bool,
    /// 3-D movement correction.
    pub motion_correction: bool,
    /// Detrending (slow-drift removal); number of cosine vectors beyond
    /// constant+linear.
    pub detrend: Option<usize>,
    /// Averaging filter on the correlation map.
    pub smoothing: bool,
    /// Clip level for the 2-D overlay.
    pub clip_level: f32,
}

impl Default for FireConfig {
    fn default() -> Self {
        FireConfig {
            median_filter: true,
            motion_correction: true,
            detrend: Some(2),
            smoothing: false,
            clip_level: 0.5,
        }
    }
}

impl FireConfig {
    /// The workstation-only FIRE baseline: basic processing that fits in
    /// the acquisition window without a supercomputer (no motion
    /// correction, no detrending).
    pub fn workstation() -> Self {
        FireConfig {
            median_filter: false,
            motion_correction: false,
            detrend: None,
            smoothing: false,
            clip_level: 0.5,
        }
    }
}

/// Output for one processed scan.
#[derive(Clone, Debug)]
pub struct ProcessedImage {
    /// Scan index within the protocol.
    pub scan: usize,
    /// The preprocessed (filtered/realigned) volume.
    pub corrected: Volume,
    /// Correlation map over the scans so far.
    pub correlation: Volume,
    /// Estimated motion parameters, if correction ran.
    pub motion: Option<RigidTransform>,
}

/// The stateful realtime pipeline.
pub struct FirePipeline {
    config: FireConfig,
    dims: Dims,
    reference_vector: ReferenceVector,
    corrector: Option<MotionCorrector>,
    state: CorrelationState,
    /// Stored preprocessed series (needed by detrending and RVO).
    series: Vec<Volume>,
    /// Motion estimates per scan.
    pub motion_log: Vec<MotionEstimate>,
    /// Per-stage wall-clock spans (`filter`, `motion`, `correlate`,
    /// `smooth` on the `fire` track); disabled by default. No simulator
    /// drives the pipeline, so it records straight into the handle.
    observer: gtw_desim::Observer,
    /// Wall-clock epoch for span timestamps.
    epoch: std::time::Instant,
}

impl FirePipeline {
    /// New pipeline for a protocol.
    pub fn new(config: FireConfig, dims: Dims, reference_vector: ReferenceVector) -> Self {
        let state = CorrelationState::new(dims, &reference_vector);
        FirePipeline {
            config,
            dims,
            reference_vector,
            corrector: None,
            state,
            series: Vec::new(),
            motion_log: Vec::new(),
            observer: gtw_desim::Observer::disabled(),
            epoch: std::time::Instant::now(),
        }
    }

    /// Record wall-clock per-stage spans into `observer`.
    pub fn observe(&mut self, observer: &gtw_desim::Observer) {
        self.observer = observer.clone();
    }

    /// Record a wall-clock span for a compute stage that started
    /// `started` into the run (both endpoints relative to the pipeline
    /// epoch, so the trace is self-consistent).
    fn stage_span(&self, name: &str, started: std::time::Duration) {
        if self.observer.enabled() {
            let ns = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
            let begin = gtw_desim::SimTime::from_nanos(ns(started));
            let end = gtw_desim::SimTime::from_nanos(ns(self.epoch.elapsed()));
            self.observer.record("fire", name, begin, end);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FireConfig {
        &self.config
    }

    /// Scans processed so far.
    pub fn scans(&self) -> usize {
        self.series.len()
    }

    /// Process the next raw image from the scanner.
    pub fn process(&mut self, raw: &Volume) -> ProcessedImage {
        assert_eq!(raw.dims, self.dims, "image dims mismatch");
        let scan = self.series.len();
        // 1. Median pre-filter.
        let t = self.epoch.elapsed();
        let mut vol = if self.config.median_filter { median_filter(raw) } else { raw.clone() };
        self.stage_span("filter", t);
        // 2. Movement correction against the first (filtered) image.
        let t = self.epoch.elapsed();
        let mut motion = None;
        if self.config.motion_correction {
            match &self.corrector {
                None => {
                    // The first image defines the reference position.
                    self.corrector = Some(MotionCorrector::new(vol.clone(), 2, 50.0));
                }
                Some(corrector) => {
                    let (corrected, est) = corrector.correct(&vol);
                    vol = corrected;
                    motion = Some(est.transform);
                    self.motion_log.push(est);
                }
            }
        }
        self.stage_span("motion", t);
        // 3. Accumulate.
        self.state.push(&vol);
        self.series.push(vol.clone());
        // 4. Per-scan display map: the cheap incremental correlation
        // (updates within the acquisition window). The display-quality
        // map with detrending applied is [`FirePipeline::correlation_map`].
        let t = self.epoch.elapsed();
        let mut correlation = self.state.correlation_map();
        self.stage_span("correlate", t);
        // 5. Optional smoothing of the map.
        if self.config.smoothing {
            let t = self.epoch.elapsed();
            correlation = average_filter(&correlation);
            self.stage_span("smooth", t);
        }
        ProcessedImage { scan, corrected: vol, correlation, motion }
    }

    /// Snapshot the accumulated state as a portable checkpoint blob.
    ///
    /// The blob captures the incremental correlation sums, the stored
    /// preprocessed series and the motion log with their exact IEEE
    /// bits; configuration (module switches, reference vector) is *not*
    /// included — the restoring side supplies it, exactly as the
    /// RT-client re-sends the protocol setup to a respawned compute
    /// world.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let (n, sum_r, sum_r2, sum_x, sum_x2, sum_xr) = self.state.snapshot();
        Checkpoint {
            dims: self.dims,
            scans: n,
            sum_r,
            sum_r2,
            sum_x: sum_x.to_vec(),
            sum_x2: sum_x2.to_vec(),
            sum_xr: sum_xr.to_vec(),
            series: self.series.iter().map(|v| v.data.clone()).collect(),
            motion: self
                .motion_log
                .iter()
                .map(|m| MotionEntry {
                    params: m.transform.params(),
                    iterations: m.iterations as u32,
                    residual_rms: m.residual_rms,
                })
                .collect(),
        }
        .encode()
    }

    /// Rebuild a pipeline from a checkpoint blob, ready to process the
    /// next scan. Processing the remaining scans on the restored
    /// pipeline yields bit-identical maps to an uninterrupted run: the
    /// sums are restored exactly, and the motion reference is rebuilt
    /// deterministically from the first stored volume.
    pub fn restore(
        config: FireConfig,
        reference_vector: ReferenceVector,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let ck = Checkpoint::decode(bytes)?;
        let series = ck.series_volumes();
        let state = CorrelationState::from_parts(
            ck.dims,
            &reference_vector,
            ck.scans,
            ck.sum_r,
            ck.sum_r2,
            ck.sum_x,
            ck.sum_x2,
            ck.sum_xr,
        );
        let corrector = if config.motion_correction {
            // The first processed image defined the reference position;
            // rebuilding from it reproduces the original corrector
            // exactly (its sampling grid is a pure function of the
            // reference volume).
            series.first().map(|first| MotionCorrector::new(first.clone(), 2, 50.0))
        } else {
            None
        };
        let motion_log = ck
            .motion
            .iter()
            .map(|m| MotionEstimate {
                transform: RigidTransform::from_params(m.params),
                iterations: m.iterations as usize,
                residual_rms: m.residual_rms,
            })
            .collect();
        Ok(FirePipeline {
            config,
            dims: ck.dims,
            reference_vector,
            corrector,
            state,
            series,
            motion_log,
            observer: gtw_desim::Observer::disabled(),
            epoch: std::time::Instant::now(),
        })
    }

    /// The current correlation map. With detrending enabled this
    /// recomputes from the stored series (the nuisance projection needs
    /// the whole history); otherwise the incremental state is used.
    pub fn correlation_map(&self) -> Volume {
        match self.config.detrend {
            None => self.state.correlation_map(),
            Some(cosines) => {
                let n = self.series.len();
                if n < 4 {
                    return Volume::zeros(self.dims);
                }
                let basis = DetrendBasis::with_cosines(n, cosines);
                let mut out = Volume::zeros(self.dims);
                let rv = ReferenceVector {
                    values: self.reference_vector.values[..n].to_vec(),
                    delay_s: self.reference_vector.delay_s,
                    dispersion_s: self.reference_vector.dispersion_s,
                };
                // Renormalize the truncated reference.
                let rv = {
                    let mut values = rv.values.clone();
                    let mean = values.iter().sum::<f64>() / n as f64;
                    for v in &mut values {
                        *v -= mean;
                    }
                    let norm = values.iter().map(|v| v * v).sum::<f64>().sqrt();
                    if norm > 0.0 {
                        for v in &mut values {
                            *v /= norm;
                        }
                    }
                    ReferenceVector { values, ..rv }
                };
                let t = self.epoch.elapsed();
                let series = &self.series;
                gtw_par::for_each(out.data.chunks_mut(VOXEL_CHUNK).enumerate(), |(k, chunk)| {
                    let mut voxel = vec![0.0f32; n];
                    for (idx, c) in (k * VOXEL_CHUNK..).zip(chunk) {
                        for (x, v) in voxel.iter_mut().zip(series) {
                            *x = v.data[idx];
                        }
                        basis.detrend(&mut voxel);
                        *c = rv.correlate(&voxel) as f32;
                    }
                });
                self.stage_span("detrend", t);
                out
            }
        }
    }

    /// The clip-level overlay values (Figure 3 rule).
    pub fn overlay(&self) -> Vec<Option<f32>> {
        let map = self.correlation_map();
        map.data.iter().map(|&c| if c >= self.config.clip_level { Some(c) } else { None }).collect()
    }

    /// Run reference-vector optimization over the accumulated series.
    pub fn run_rvo(
        &self,
        stimulus: &Stimulus,
        method: RvoMethod,
        mask: Option<&[bool]>,
    ) -> RvoResult {
        let truncated =
            Stimulus { course: stimulus.course[..self.series.len()].to_vec(), tr_s: stimulus.tr_s };
        let t = self.epoch.elapsed();
        let out = rvo::optimize(&self.series, &truncated, RvoBounds::default(), method, mask);
        self.stage_span("rvo", t);
        out
    }
}

/// Sequential vs pipelined operation of the acquire→transfer→compute→
/// display chain (the paper's stated drawback and our implemented
/// extension). Stage times in seconds.
#[derive(Clone, Copy, Debug)]
pub struct ChainTiming {
    /// Scan completion to raw data at the RT-server.
    pub acquire_s: f64,
    /// Data transfers + control messages (server ↔ T3E ↔ client).
    pub transfer_s: f64,
    /// T3E processing.
    pub compute_s: f64,
    /// RT-client display update.
    pub display_s: f64,
}

impl ChainTiming {
    /// The paper's measured budget with a given compute time: 1.5 s
    /// scanner→server, 1.1 s transfers, 0.6 s display.
    pub fn paper(compute_s: f64) -> Self {
        ChainTiming { acquire_s: 1.5, transfer_s: 1.1, compute_s, display_s: 0.6 }
    }

    /// End-to-end latency of one image (identical in both modes).
    pub fn latency_s(&self) -> f64 {
        self.acquire_s + self.transfer_s + self.compute_s + self.display_s
    }

    /// Sequential-mode period: "a new image is requested from the
    /// RT-server only after the processing and displaying of the previous
    /// one is completed", so the achievable period is the sum of the
    /// client/T3E-side delays.
    pub fn sequential_period_s(&self) -> f64 {
        self.transfer_s + self.compute_s + self.display_s
    }

    /// Pipelined-mode period: stages overlap, the slowest stage sets the
    /// rate.
    pub fn pipelined_period_s(&self) -> f64 {
        self.acquire_s.max(self.transfer_s).max(self.compute_s).max(self.display_s)
    }

    /// The smallest safe scanner repetition time for a mode period (the
    /// paper rounds 2.7 s up to TR = 3 s).
    pub fn safe_tr_s(period_s: f64) -> f64 {
        (period_s * 10.0).ceil() / 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::acquire::{Scanner, ScannerConfig};
    use gtw_scan::phantom::Phantom;

    fn small_scanner(scans: usize, seed: u64) -> Scanner {
        let mut cfg = ScannerConfig::paper_default(scans, seed);
        cfg.dims = Dims::new(32, 32, 8);
        cfg.noise_sd = 3.0;
        Scanner::new(cfg, Phantom::standard())
    }

    fn run_pipeline(config: FireConfig, scanner: &Scanner) -> FirePipeline {
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let mut p = FirePipeline::new(config, scanner.config().dims, rv);
        for t in 0..scanner.scan_count() {
            let out = p.process(&scanner.acquire(t));
            assert_eq!(out.scan, t);
        }
        p
    }

    #[test]
    fn pipeline_emits_per_stage_spans() {
        let scanner = small_scanner(8, 51);
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let sink = gtw_desim::Observer::recording();
        let mut p = FirePipeline::new(
            FireConfig { detrend: Some(2), ..FireConfig::default() },
            scanner.config().dims,
            rv,
        );
        p.observe(&sink);
        for t in 0..scanner.scan_count() {
            p.process(&scanner.acquire(t));
        }
        let _ = p.correlation_map(); // detrend path
        let spans = sink.snapshot();
        for name in ["filter", "motion", "correlate", "detrend"] {
            assert!(spans.iter().any(|s| s.name == name), "missing stage {name}");
        }
        assert!(spans.iter().all(|s| s.track == "fire" && s.end >= s.begin));
        let check = gtw_desim::validate_chrome_trace(&sink.to_chrome_trace().dump())
            .expect("valid Chrome trace");
        assert!(check.spans >= 4);
    }

    #[test]
    fn full_pipeline_detects_activation() {
        let scanner = small_scanner(40, 21);
        let p = run_pipeline(FireConfig::default(), &scanner);
        let map = p.correlation_map();
        // Score against the strongly activated core (partial-volume
        // periphery voxels at 32x32x8 are below the noise floor).
        let truth = scanner.phantom().truth_mask(scanner.config().dims, 0.025);
        let score = crate::analysis::score_detection(&map, &truth, 0.45);
        assert!(score.tpr >= 0.5, "tpr {:?}", score);
        assert!(score.fpr < 0.03, "fpr {:?}", score);
    }

    #[test]
    fn motion_correction_tracks_injected_motion() {
        // The scanner provides ground-truth motion; the pipeline's
        // per-scan estimates must track its inverse.
        let mut cfg = ScannerConfig::paper_default(16, 31);
        cfg.dims = Dims::new(48, 48, 12);
        cfg.noise_sd = 2.0;
        cfg.motion_step = 0.01;
        let scanner = Scanner::new(cfg, Phantom::standard());
        let with = run_pipeline(
            FireConfig {
                median_filter: false,
                motion_correction: true,
                detrend: None,
                ..FireConfig::default()
            },
            &scanner,
        );
        assert_eq!(with.motion_log.len(), scanner.scan_count() - 1);
        let mut worst_t = 0.0f32;
        for (i, est) in with.motion_log.iter().enumerate() {
            let true_inv = scanner.true_motion(i + 1).inverse().params();
            let est_p = est.transform.params();
            for k in 3..6 {
                worst_t = worst_t.max((est_p[k] - true_inv[k]).abs());
            }
        }
        assert!(worst_t < 0.5, "translation tracking error {worst_t} voxels");
    }

    #[test]
    fn detrending_rescues_drifting_runs() {
        let mut cfg = ScannerConfig::paper_default(32, 41);
        cfg.dims = Dims::new(32, 32, 8);
        cfg.noise_sd = 2.0;
        cfg.motion_step = 0.0;
        cfg.drift_fraction = 0.10; // strong drift
        let scanner = Scanner::new(cfg, Phantom::standard());
        let truth = scanner.phantom().truth_mask(scanner.config().dims, 0.01);
        let with = run_pipeline(
            FireConfig {
                median_filter: false,
                motion_correction: false,
                detrend: Some(2),
                ..FireConfig::default()
            },
            &scanner,
        );
        let without = run_pipeline(
            FireConfig {
                median_filter: false,
                motion_correction: false,
                detrend: None,
                ..FireConfig::default()
            },
            &scanner,
        );
        let s_with = crate::analysis::score_detection(&with.correlation_map(), &truth, 0.45);
        let s_without = crate::analysis::score_detection(&without.correlation_map(), &truth, 0.45);
        // Under strong drift the raw map lights up everywhere (drift
        // correlates with the slow reference); detrending must kill the
        // false positives without losing the true ones.
        assert!(
            s_with.fpr < s_without.fpr * 0.5,
            "detrending should cut false positives: {s_with:?} vs {s_without:?}"
        );
        assert!(s_with.tpr >= s_without.tpr * 0.9, "{s_with:?} vs {s_without:?}");
    }

    #[test]
    fn overlay_respects_clip() {
        let scanner = small_scanner(16, 51);
        let p = run_pipeline(FireConfig { clip_level: 0.6, ..FireConfig::default() }, &scanner);
        for o in p.overlay().into_iter().flatten() {
            assert!(o >= 0.6);
        }
    }

    #[test]
    fn workstation_config_skips_heavy_modules() {
        let scanner = small_scanner(12, 61);
        let p = run_pipeline(FireConfig::workstation(), &scanner);
        assert!(p.motion_log.is_empty());
        assert_eq!(p.scans(), 12);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Interrupt a full-featured run mid-protocol, restore from the
        // checkpoint blob, finish on the restored pipeline: every
        // remaining per-scan map and the final detrended map must carry
        // the exact bits of the uninterrupted run.
        let scanner = small_scanner(12, 71);
        let cfg = FireConfig { detrend: Some(2), ..FireConfig::default() };
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let mut unbroken = FirePipeline::new(cfg, scanner.config().dims, rv.clone());
        let mut first_half = FirePipeline::new(cfg, scanner.config().dims, rv.clone());
        let cut = 7;
        for t in 0..cut {
            unbroken.process(&scanner.acquire(t));
            first_half.process(&scanner.acquire(t));
        }
        let blob = first_half.checkpoint_bytes();
        drop(first_half); // the "crash"
        let mut restored = FirePipeline::restore(cfg, rv, &blob).expect("restore");
        assert_eq!(restored.scans(), cut);
        for t in cut..scanner.scan_count() {
            let a = unbroken.process(&scanner.acquire(t));
            let b = restored.process(&scanner.acquire(t));
            assert_eq!(a.scan, b.scan);
            assert_eq!(a.correlation.data, b.correlation.data, "scan {t} map diverged");
            assert_eq!(a.corrected.data, b.corrected.data, "scan {t} volume diverged");
        }
        assert_eq!(unbroken.correlation_map().data, restored.correlation_map().data);
        assert_eq!(unbroken.motion_log.len(), restored.motion_log.len());
        // And the checkpoints of the two finished pipelines agree too.
        assert_eq!(unbroken.checkpoint_bytes(), restored.checkpoint_bytes());
    }

    #[test]
    fn restore_rejects_garbage() {
        use crate::checkpoint::CheckpointError;
        let scanner = small_scanner(4, 72);
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let err = FirePipeline::restore(FireConfig::default(), rv, b"not a checkpoint")
            .err()
            .expect("garbage must not restore");
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn chain_timing_matches_paper_numbers() {
        // 256 PEs: T3E total 1.01 s (paper) -> latency < 5 s.
        let t = ChainTiming::paper(1.01);
        assert!(t.latency_s() < 5.0, "latency {}", t.latency_s());
        // Throughput 2.7 s sequential -> TR 3 s is safe.
        assert!((t.sequential_period_s() - 2.71).abs() < 0.02);
        assert!(ChainTiming::safe_tr_s(t.sequential_period_s()) <= 3.0);
        // Pipelined mode is limited by the 1.5 s acquire stage.
        assert!((t.pipelined_period_s() - 1.5).abs() < 1e-9);
        assert!(t.pipelined_period_s() < t.sequential_period_s());
    }

    #[test]
    fn pipelining_gains_depend_on_compute_time() {
        // With few PEs the T3E stage dominates and pipelining gains are
        // modest relative to the compute time; with many PEs the
        // acquisition stage binds.
        let slow = ChainTiming::paper(13.74); // 8 PEs
        let fast = ChainTiming::paper(1.01); // 256 PEs
        assert_eq!(slow.pipelined_period_s(), 13.74);
        assert!((slow.sequential_period_s() / slow.pipelined_period_s()) < 1.2);
        assert!((fast.sequential_period_s() / fast.pipelined_period_s()) > 1.7);
    }
}
