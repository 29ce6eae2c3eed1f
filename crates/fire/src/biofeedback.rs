//! Neurofeedback: "such a short delay is not required for the control of
//! typical experiments. However, it enables new opportunities for
//! neuroscience research like bio-feedback (the subject watching his own
//! brain in action)."
//!
//! This module closes the loop the paper only gestures at: a subject
//! model whose self-regulation improves when the displayed feedback
//! rewards its recent activation attempts. Credit assignment degrades
//! with the scan-to-display delay — which is precisely why the <5 s
//! latency (and the pipelined chain) matter. The simulation is a small
//! reinforcement learner: per TR the subject explores an activation
//! level around its current ability; feedback computed from the volume
//! *displayed* at that moment (i.e. `delay` scans old) reinforces the
//! explored level that produced it.

use gtw_desim::StreamRng;

/// Subject and loop parameters.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackConfig {
    /// Scans in the session.
    pub scans: usize,
    /// Repetition time, seconds.
    pub tr_s: f64,
    /// Scan-to-display latency, seconds (the paper's chain delay).
    pub display_latency_s: f64,
    /// Reward threshold on the measured activation (fractional BOLD).
    pub threshold: f64,
    /// Learning rate toward rewarded activation levels.
    pub learning_rate: f64,
    /// Exploration noise of the subject's attempts.
    pub exploration: f64,
    /// Measurement noise of the BOLD estimate.
    pub measurement_noise: f64,
}

impl FeedbackConfig {
    /// A standard session at the paper's operating point.
    pub fn paper(display_latency_s: f64) -> Self {
        FeedbackConfig {
            scans: 150,
            tr_s: 3.0,
            display_latency_s,
            threshold: 0.012,
            learning_rate: 0.25,
            exploration: 0.006,
            measurement_noise: 0.002,
        }
    }

    /// The feedback delay in whole scans.
    pub fn delay_scans(&self) -> usize {
        (self.display_latency_s / self.tr_s).ceil() as usize
    }
}

/// Session outcome.
#[derive(Clone, Debug)]
pub struct FeedbackReport {
    /// The subject's self-regulation ability per scan (fractional BOLD
    /// it can produce on demand).
    pub ability: Vec<f64>,
    /// Rewards delivered per scan (0/1).
    pub rewards: Vec<bool>,
    /// Mean ability over the final quarter of the session.
    pub final_ability: f64,
    /// Scans from session start until ability first exceeded 1.5× its
    /// starting value (`None` if never).
    pub scans_to_learn: Option<usize>,
}

/// Run a closed-loop session. With `feedback = false` the display shows
/// nothing and the subject cannot learn (the control condition).
pub fn run_session(cfg: &FeedbackConfig, feedback: bool, seed: u64) -> FeedbackReport {
    let mut rng = StreamRng::new(seed, "biofeedback");
    let d = cfg.delay_scans().max(1);
    let mut ability: f64 = 0.008; // starting self-regulation (0.8 % BOLD)
    let start = ability;
    let mut abilities = Vec::with_capacity(cfg.scans);
    let mut rewards = Vec::with_capacity(cfg.scans);
    // History of explored levels and their measurements.
    let mut attempts: Vec<f64> = Vec::with_capacity(cfg.scans);
    let mut measurements: Vec<f64> = Vec::with_capacity(cfg.scans);
    let mut scans_to_learn = None;
    for t in 0..cfg.scans {
        // The subject tries an activation level around its ability.
        let attempt = (ability + cfg.exploration * rng.normal()).max(0.0);
        attempts.push(attempt);
        measurements.push(attempt + cfg.measurement_noise * rng.normal());
        // Feedback visible now refers to scan t - d.
        let mut rewarded = false;
        if feedback && t >= d {
            let shown = measurements[t - d];
            if shown > cfg.threshold {
                rewarded = true;
                // Reinforce the *attempt that produced the shown value*.
                let target = attempts[t - d];
                ability += cfg.learning_rate * (target - ability).max(0.0);
            }
        }
        if !rewarded {
            // Slow decay without reinforcement.
            ability *= 1.0 - 0.005;
        }
        ability = ability.clamp(0.0, 0.05); // physiological ceiling
        abilities.push(ability);
        rewards.push(rewarded);
        if scans_to_learn.is_none() && ability > 1.5 * start {
            scans_to_learn = Some(t);
        }
    }
    let tail = cfg.scans / 4;
    let final_ability = abilities[cfg.scans - tail..].iter().sum::<f64>() / tail as f64;
    FeedbackReport { ability: abilities, rewards, final_ability, scans_to_learn }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_over_seeds(latency: f64, feedback: bool) -> f64 {
        (0..8)
            .map(|s| run_session(&FeedbackConfig::paper(latency), feedback, s).final_ability)
            .sum::<f64>()
            / 8.0
    }

    #[test]
    fn feedback_enables_learning() {
        let with = mean_over_seeds(4.2, true);
        let without = mean_over_seeds(4.2, false);
        assert!(with > without * 1.5, "feedback should raise self-regulation: {with} vs {without}");
        assert!(with > 0.012, "learned ability should cross the threshold: {with}");
    }

    #[test]
    fn shorter_delay_learns_faster() {
        // The paper's point: the <5 s chain (≈2 scans of delay at TR 3)
        // supports the loop; a slow chain (e.g. 8 PEs → ~17 s) degrades
        // credit assignment.
        let fast = mean_over_seeds(4.2, true);
        let slow = mean_over_seeds(17.4, true);
        assert!(
            fast > slow,
            "short delay should outperform long delay: fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn learning_time_grows_with_delay() {
        let time = |latency: f64| -> f64 {
            let mut total = 0.0;
            let mut n = 0.0;
            for s in 0..8 {
                if let Some(t) =
                    run_session(&FeedbackConfig::paper(latency), true, s).scans_to_learn
                {
                    total += t as f64;
                    n += 1.0;
                }
            }
            if n == 0.0 {
                f64::INFINITY
            } else {
                total / n
            }
        };
        let fast = time(4.2);
        let slow = time(17.4);
        assert!(slow >= fast, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn unreachable_threshold_prevents_learning() {
        let mut cfg = FeedbackConfig::paper(4.2);
        cfg.threshold = 0.2; // far above the physiological ceiling
        let r = run_session(&cfg, true, 1);
        assert!(r.rewards.iter().all(|&x| !x));
        assert!(r.final_ability < 0.008, "{}", r.final_ability);
        assert!(r.scans_to_learn.is_none());
    }

    #[test]
    fn ability_stays_physiological() {
        for s in 0..4 {
            let r = run_session(&FeedbackConfig::paper(3.0), true, s);
            for &a in &r.ability {
                assert!((0.0..=0.05).contains(&a));
            }
        }
    }

    #[test]
    fn delay_scans_rounding() {
        assert_eq!(FeedbackConfig::paper(4.2).delay_scans(), 2);
        assert_eq!(FeedbackConfig::paper(3.0).delay_scans(), 1);
        assert_eq!(FeedbackConfig::paper(17.4).delay_scans(), 6);
    }
}
