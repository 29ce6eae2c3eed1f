//! Single-shot multi-echo acquisition — the paper's outlook: "advanced
//! MR imaging techniques which are under development \[9\] will produce
//! data rates that are an order of magnitude beyond what is feasible
//! today." Reference \[9\] is Posse et al.'s multi-echo EPI, which this
//! module models.
//!
//! Physics: the signal at echo time `TE` decays as
//! `S(TE) = S0 · exp(−TE/T2*)`. The BOLD effect *is* a T2* change —
//! activation raises T2* (less dephasing), so later echoes carry more
//! functional contrast while earlier echoes carry more raw signal.
//! Acquiring `n` echoes per excitation multiplies the data rate by `n`
//! and lets the analysis combine echoes for higher contrast-to-noise.

use gtw_desim::StreamRng;

use crate::acquire::{Scanner, ScannerConfig};
use crate::phantom::Phantom;
use crate::volume::Volume;

/// Multi-echo protocol parameters.
#[derive(Clone, Debug)]
pub struct MultiEchoConfig {
    /// Echo times, milliseconds (typical 1.5 T multi-echo EPI:
    /// ~12/30/48/66 ms).
    pub echo_times_ms: Vec<f64>,
    /// Baseline tissue T2*, milliseconds (~50 ms grey matter at 1.5 T).
    pub t2star_ms: f64,
    /// Fractional T2* increase per unit activation amplitude (scales
    /// the BOLD effect; calibrated so single-middle-echo contrast
    /// matches the single-echo scanner).
    pub t2star_gain: f64,
}

impl Default for MultiEchoConfig {
    fn default() -> Self {
        MultiEchoConfig {
            echo_times_ms: vec![12.0, 30.0, 48.0, 66.0],
            t2star_ms: 50.0,
            t2star_gain: 25.0,
        }
    }
}

/// A multi-echo scanner: wraps the single-echo [`Scanner`] geometry/
/// protocol and produces one volume per echo per repetition.
pub struct MultiEchoScanner {
    base: Scanner,
    me: MultiEchoConfig,
}

impl MultiEchoScanner {
    /// Build from a scanner protocol and echo configuration.
    pub fn new(cfg: ScannerConfig, phantom: Phantom, me: MultiEchoConfig) -> Self {
        assert!(!me.echo_times_ms.is_empty(), "need at least one echo");
        MultiEchoScanner { base: Scanner::new(cfg, phantom), me }
    }

    /// The underlying single-echo scanner (geometry, ground truth).
    pub fn base(&self) -> &Scanner {
        &self.base
    }

    /// Echo count.
    pub fn echoes(&self) -> usize {
        self.me.echo_times_ms.len()
    }

    /// The echo configuration.
    pub fn config(&self) -> &MultiEchoConfig {
        &self.me
    }

    /// Bytes per repetition: every echo is a full volume — the data-rate
    /// multiplication of the paper's outlook.
    pub fn bytes_per_repetition(&self) -> u64 {
        self.echoes() as u64 * (self.base.config().dims.len() * 4) as u64
    }

    /// Acquire all echoes of repetition `t`. Deterministic per
    /// `(seed, t, echo)`.
    pub fn acquire(&self, t: usize) -> Vec<Volume> {
        let dims = self.base.config().dims;
        let resp = self.base.true_response(t) as f32;
        let anatomy = self.base.anatomy();
        let activation = self.base.activation();
        let drift =
            self.base.config().drift_fraction * (t as f32 / self.base.scan_count().max(1) as f32);
        self.me
            .echo_times_ms
            .iter()
            .enumerate()
            .map(|(e, &te)| {
                let mut vol = Volume::zeros(dims);
                for i in 0..dims.len() {
                    let s0 = anatomy.data[i] * (1.0 + drift);
                    // Activation raises T2* (the BOLD effect).
                    let t2 = self.me.t2star_ms as f32
                        * (1.0 + self.me.t2star_gain as f32 * activation.data[i] * resp * 0.04);
                    vol.data[i] = s0 * (-(te as f32) / t2.max(1.0)).exp();
                }
                if self.base.config().noise_sd > 0.0 {
                    let mut rng =
                        StreamRng::new(self.base.config().seed, &format!("me-noise-{t}-{e}"));
                    for v in &mut vol.data {
                        *v += self.base.config().noise_sd * rng.normal() as f32;
                    }
                }
                vol
            })
            .collect()
    }
}

/// Combine echo volumes with Posse-style TE weighting:
/// `w(TE) ∝ TE · exp(−TE/T2*)` — the weighting that maximizes BOLD
/// contrast-to-noise for exponential decay.
pub fn combine_echoes(echoes: &[Volume], echo_times_ms: &[f64], t2star_ms: f64) -> Volume {
    assert_eq!(echoes.len(), echo_times_ms.len(), "echo/TE count mismatch");
    assert!(!echoes.is_empty(), "need at least one echo");
    let dims = echoes[0].dims;
    let weights: Vec<f32> =
        echo_times_ms.iter().map(|&te| (te * (-te / t2star_ms).exp()) as f32).collect();
    let wsum: f32 = weights.iter().sum();
    let mut out = Volume::zeros(dims);
    for (vol, &w) in echoes.iter().zip(&weights) {
        assert_eq!(vol.dims, dims, "inconsistent echo dims");
        for i in 0..dims.len() {
            out.data[i] += vol.data[i] * w / wsum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hrf::ReferenceVector;
    use crate::volume::Dims;

    fn me_scanner(noise: f32, scans: usize, seed: u64) -> MultiEchoScanner {
        let mut cfg = ScannerConfig::paper_default(scans, seed);
        cfg.dims = Dims::new(24, 24, 6);
        cfg.noise_sd = noise;
        cfg.motion_step = 0.0;
        cfg.drift_fraction = 0.0;
        MultiEchoScanner::new(cfg, Phantom::standard(), MultiEchoConfig::default())
    }

    #[test]
    fn signal_decays_across_echoes() {
        let s = me_scanner(0.0, 8, 1);
        let echoes = s.acquire(0);
        assert_eq!(echoes.len(), 4);
        // Mean brain signal strictly decreasing with TE.
        let means: Vec<f32> = echoes.iter().map(|v| v.mean()).collect();
        for w in means.windows(2) {
            assert!(w[1] < w[0], "no decay: {means:?}");
        }
        // Decay magnitude matches exp(-TE/T2*) roughly: TE 12 vs 66 ms
        // at T2* 50 ms -> ratio exp(54/50) ≈ 2.94.
        let ratio = means[0] / means[3];
        assert!((ratio - (54.0f32 / 50.0).exp()).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn later_echoes_carry_more_functional_contrast() {
        let s = me_scanner(0.0, 32, 2);
        // Peak-response scan vs rest scan, fractional signal change in
        // the activated voxels, per echo.
        let peak_t = (0..32)
            .max_by(|&a, &b| {
                s.base().true_response(a).partial_cmp(&s.base().true_response(b)).unwrap()
            })
            .unwrap();
        let rest = s.acquire(0);
        let act = s.acquire(peak_t);
        let amp = s.base().activation();
        let mut contrast = vec![0.0f64; s.echoes()];
        let mut n = 0;
        for i in 0..amp.data.len() {
            if amp.data[i] > 0.02 {
                for e in 0..s.echoes() {
                    contrast[e] += (act[e].data[i] / rest[e].data[i] - 1.0) as f64;
                }
                n += 1;
            }
        }
        for c in &mut contrast {
            *c /= n as f64;
        }
        // Fractional BOLD contrast grows with TE.
        for w in contrast.windows(2) {
            assert!(w[1] > w[0], "contrast not increasing with TE: {contrast:?}");
        }
    }

    #[test]
    fn combined_echoes_beat_single_echo_detection() {
        let s = me_scanner(4.0, 48, 3);
        let stim = &s.base().config().stimulus;
        let rv = ReferenceVector::canonical(stim);
        let te = &s.config().echo_times_ms;
        let mut corr_combined = 0.0f64;
        let mut corr_single = 0.0f64;
        // Correlate activated-voxel series for the combined image vs the
        // second echo alone (TE 30 ms, the usual single-echo choice).
        let amp = s.base().activation();
        let idxs: Vec<usize> = (0..amp.data.len()).filter(|&i| amp.data[i] > 0.025).collect();
        assert!(!idxs.is_empty());
        let mut combined_series: Vec<Vec<f32>> = vec![Vec::new(); idxs.len()];
        let mut single_series: Vec<Vec<f32>> = vec![Vec::new(); idxs.len()];
        for t in 0..s.base().scan_count() {
            let echoes = s.acquire(t);
            let comb = combine_echoes(&echoes, te, s.config().t2star_ms);
            for (k, &i) in idxs.iter().enumerate() {
                combined_series[k].push(comb.data[i]);
                single_series[k].push(echoes[1].data[i]);
            }
        }
        for k in 0..idxs.len() {
            corr_combined += rv.correlate(&combined_series[k]);
            corr_single += rv.correlate(&single_series[k]);
        }
        corr_combined /= idxs.len() as f64;
        corr_single /= idxs.len() as f64;
        assert!(
            corr_combined > corr_single,
            "echo combination should raise CNR: {corr_combined} vs {corr_single}"
        );
    }

    #[test]
    fn data_rate_multiplies_with_echoes() {
        let s = me_scanner(0.0, 4, 4);
        // 4 echoes × 24·24·6 × 4 B.
        assert_eq!(s.bytes_per_repetition(), 4 * 24 * 24 * 6 * 4);
        // At the paper's full matrix with 4 echoes and TR 2 s that is
        // ~0.5 MB/s raw vs 0.13 MB/s single-echo — plus the higher
        // resolutions of [9], the "order of magnitude" jump.
        let full = 4u64 * 64 * 64 * 16 * 4;
        assert_eq!(full, 1_048_576);
    }

    #[test]
    fn combine_weights_favour_middle_echoes() {
        // TE·exp(−TE/T2*) peaks at TE = T2*: with T2* = 50 ms the 48 ms
        // echo gets the largest weight.
        let dims = Dims::new(2, 2, 1);
        let echoes: Vec<Volume> =
            (0..4).map(|e| Volume::filled(dims, if e == 2 { 1.0 } else { 0.0 })).collect();
        let te = [12.0, 30.0, 48.0, 66.0];
        let out = combine_echoes(&echoes, &te, 50.0);
        // The 48 ms echo contributes the largest share.
        let w: Vec<f64> = te.iter().map(|&t| t * (-t / 50.0f64).exp()).collect();
        let expect = w[2] / w.iter().sum::<f64>();
        assert!((out.data[0] as f64 - expect).abs() < 1e-6);
        assert!(expect > 0.25, "{expect}");
    }
}
