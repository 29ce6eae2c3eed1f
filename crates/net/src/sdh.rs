//! SDH/SONET framing: line rate vs usable payload rate, plus the
//! signal-quality model behind the testbed's early instability.
//!
//! The testbed's WAN was carried on SDH: STM-4 (OC-12, 622 Mbit/s) in the
//! first year, upgraded to STM-16 (OC-48, 2.4 Gbit/s) in August 1998. SDH
//! spends a fixed fraction of the line rate on section/path overhead; the
//! ATM cell stream rides in the C-4 container. The paper reports "initial
//! stability problems ... related to signal attenuation and timing" that
//! were later solved — modelled here as an attenuation/jitter margin that
//! maps to an errored-second rate.

use gtw_desim::StreamRng;

use crate::units::Bandwidth;

/// An SDH line level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StmLevel {
    /// STM-1 / OC-3: 155.52 Mbit/s line.
    Stm1,
    /// STM-4 / OC-12: 622.08 Mbit/s line (testbed year one).
    Stm4,
    /// STM-16 / OC-48: 2488.32 Mbit/s line (the 2.4 Gbit/s upgrade).
    Stm16,
}

impl StmLevel {
    /// Multiplex factor N of STM-N.
    pub fn factor(self) -> u32 {
        match self {
            StmLevel::Stm1 => 1,
            StmLevel::Stm4 => 4,
            StmLevel::Stm16 => 16,
        }
    }

    /// Gross line rate. An STM-N frame is 9 rows × 270·N columns of bytes
    /// at 8000 frames/s.
    pub fn line_rate(self) -> Bandwidth {
        let n = self.factor() as f64;
        Bandwidth::from_bps(9.0 * 270.0 * n * 8000.0 * 8.0)
    }

    /// Payload (C-4 / C-4-Nc container) rate available to the ATM cell
    /// stream: 260·N of the 270·N columns.
    pub fn payload_rate(self) -> Bandwidth {
        let n = self.factor() as f64;
        Bandwidth::from_bps(9.0 * 260.0 * n * 8000.0 * 8.0)
    }

    /// ATM cells per second the container can carry.
    pub fn cell_rate(self) -> f64 {
        self.payload_rate().bps() / (53.0 * 8.0)
    }

    /// Peak user-payload rate after both SDH and ATM cell tax (48 of every
    /// 53 payload-container bytes).
    pub fn atm_payload_rate(self) -> Bandwidth {
        Bandwidth::from_bps(self.cell_rate() * 48.0 * 8.0)
    }
}

/// Optical signal quality on an SDH section.
///
/// The two knobs mirror the two failure causes the paper names: signal
/// attenuation (received power margin) and timing (jitter). Both erode the
/// margin; a negative margin yields a rapidly growing errored-second
/// probability.
#[derive(Clone, Copy, Debug)]
pub struct SignalQuality {
    /// Received optical power margin above receiver sensitivity, in dB.
    /// Healthy installations have several dB; the testbed's early problems
    /// correspond to ≈ 0 or below.
    pub power_margin_db: f64,
    /// Timing jitter in unit intervals (UI). > ~0.3 UI starts producing
    /// errors.
    pub jitter_ui: f64,
}

impl SignalQuality {
    /// A healthy section (post-fix state: "in stable operation now").
    pub fn stable() -> Self {
        SignalQuality { power_margin_db: 6.0, jitter_ui: 0.05 }
    }

    /// The beta-test state with attenuation and timing trouble.
    pub fn degraded() -> Self {
        SignalQuality { power_margin_db: 0.5, jitter_ui: 0.4 }
    }

    /// Effective margin after jitter penalty (1 dB per 0.1 UI beyond
    /// 0.15 UI, a standard rule-of-thumb penalty curve).
    pub fn effective_margin_db(&self) -> f64 {
        let jitter_penalty = ((self.jitter_ui - 0.15).max(0.0)) * 10.0;
        self.power_margin_db - jitter_penalty
    }

    /// Probability that any given second is errored (contains at least one
    /// severely errored block). Logistic in the effective margin: ~0 above
    /// +3 dB, ~1 below −3 dB.
    pub fn errored_second_probability(&self) -> f64 {
        let m = self.effective_margin_db();
        1.0 / (1.0 + (2.0 * m).exp())
    }

    /// Cell loss ratio implied by the margin; errored seconds produce
    /// bursts, so the average CLR is the errored-second probability times
    /// an in-burst loss fraction.
    pub fn cell_loss_ratio(&self) -> f64 {
        const IN_BURST_LOSS: f64 = 1e-3;
        (self.errored_second_probability() * IN_BURST_LOSS).min(1.0)
    }
}

/// Outcome of an SDH section acceptance test over `seconds` observed
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectionTestReport {
    /// Seconds observed.
    pub seconds: u64,
    /// Errored seconds counted.
    pub errored_seconds: u64,
    /// Whether the section meets a production availability bar
    /// (< 0.2 % errored seconds, the G.826-flavoured target used here).
    pub acceptable: bool,
}

/// Run a (virtual) acceptance test of a section: Bernoulli errored-seconds
/// draws from the quality model.
pub fn section_test(
    quality: SignalQuality,
    seconds: u64,
    rng: &mut StreamRng,
) -> SectionTestReport {
    let p = quality.errored_second_probability();
    let errored = (0..seconds).filter(|_| rng.uniform() < p).count() as u64;
    let ratio = errored as f64 / seconds.max(1) as f64;
    SectionTestReport { seconds, errored_seconds: errored, acceptable: ratio < 0.002 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rates_match_standards() {
        assert!((StmLevel::Stm1.line_rate().mbps() - 155.52).abs() < 1e-6);
        assert!((StmLevel::Stm4.line_rate().mbps() - 622.08).abs() < 1e-6);
        assert!((StmLevel::Stm16.line_rate().mbps() - 2488.32).abs() < 1e-6);
    }

    #[test]
    fn payload_rates_match_standards() {
        assert!((StmLevel::Stm1.payload_rate().mbps() - 149.76).abs() < 1e-6);
        assert!((StmLevel::Stm4.payload_rate().mbps() - 599.04).abs() < 1e-6);
        assert!((StmLevel::Stm16.payload_rate().mbps() - 2396.16).abs() < 1e-6);
    }

    #[test]
    fn cell_rate_stm1() {
        // Classic number: ~353 207 cells/s on STM-1.
        assert!((StmLevel::Stm1.cell_rate() - 353_207.5).abs() < 1.0);
    }

    #[test]
    fn atm_payload_rate_under_line_rate() {
        for lvl in [StmLevel::Stm1, StmLevel::Stm4, StmLevel::Stm16] {
            let p = lvl.atm_payload_rate().bps();
            let l = lvl.line_rate().bps();
            assert!(p < l);
            // Combined SDH+ATM tax is ~12.8 %.
            assert!((p / l - 0.872).abs() < 0.01, "{}", p / l);
        }
    }

    #[test]
    fn stable_vs_degraded_quality() {
        let ok = SignalQuality::stable();
        let bad = SignalQuality::degraded();
        assert!(ok.errored_second_probability() < 1e-4);
        assert!(bad.errored_second_probability() > 0.5);
        assert!(ok.cell_loss_ratio() < bad.cell_loss_ratio());
    }

    #[test]
    fn jitter_erodes_margin() {
        let lo = SignalQuality { power_margin_db: 3.0, jitter_ui: 0.05 };
        let hi = SignalQuality { power_margin_db: 3.0, jitter_ui: 0.5 };
        assert!(hi.effective_margin_db() < lo.effective_margin_db());
        assert!(hi.errored_second_probability() > lo.errored_second_probability());
    }

    #[test]
    fn acceptance_test_discriminates() {
        let mut rng = StreamRng::new(1, "sdh-test");
        let good = section_test(SignalQuality::stable(), 10_000, &mut rng);
        assert!(good.acceptable, "stable link failed acceptance: {good:?}");
        let bad = section_test(SignalQuality::degraded(), 10_000, &mut rng);
        assert!(!bad.acceptable, "degraded link passed acceptance: {bad:?}");
    }
}
