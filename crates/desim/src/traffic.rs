//! Seeded multi-flow background-traffic generation for congestion
//! scenarios.
//!
//! Overload experiments need *competing* load on a shared trunk, and the
//! repository's determinism rules need that load to be a pure function
//! of a seed: two runs with one seed must schedule byte-identical
//! traffic. A [`TrafficPlan`] describes a set of on-off background
//! flows; each flow's arrival instants are drawn from its own
//! [`StreamRng`](crate::StreamRng) stream (keyed by the master seed and
//! the flow label), so adding or removing one flow never perturbs the
//! others — the same isolation discipline the fault layer uses.
//!
//! The generator is unit-agnostic: it emits arrival *instants* for
//! abstract traffic units (the network layer maps one unit to one ATM
//! cell; an application layer could map it to a message). An on-off
//! flow alternates geometric-length bursts at the peak rate with
//! exponential silences sized to hit the configured duty cycle — the
//! classic worst-case shape for AAL5 frames sharing a queue.

use std::collections::BTreeMap;

use crate::rng::StreamRng;
use crate::time::{SimDuration, SimTime};

/// One background flow: an on-off source with a peak rate and a duty
/// cycle.
#[derive(Clone, Debug)]
pub struct BgFlowSpec {
    /// Unit emission rate while a burst is on, units/second.
    pub peak_rate: f64,
    /// Mean units per burst (geometric; at least 1).
    pub mean_burst: f64,
    /// Long-run fraction of time the source is on, in `(0, 1]`.
    pub duty: f64,
    /// First instant the source may emit.
    pub start: SimTime,
    /// The source emits no unit at or after this instant.
    pub stop: SimTime,
}

impl BgFlowSpec {
    /// Long-run mean rate of the flow in units/second.
    pub fn mean_rate(&self) -> f64 {
        self.peak_rate * self.duty
    }
}

/// A deterministic, seeded set of background flows.
#[derive(Clone, Debug, Default)]
pub struct TrafficPlan {
    /// Master seed; per-flow streams are keyed by `(seed, label)`.
    pub master_seed: u64,
    /// The flows by label (`BTreeMap` for deterministic iteration).
    pub flows: BTreeMap<String, BgFlowSpec>,
}

impl TrafficPlan {
    /// An empty plan under `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        TrafficPlan { master_seed, flows: BTreeMap::new() }
    }

    /// True when the plan carries no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Add (or replace) the flow `label`.
    pub fn add(&mut self, label: impl Into<String>, spec: BgFlowSpec) -> &mut Self {
        self.flows.insert(label.into(), spec);
        self
    }

    /// Aggregate long-run mean rate of every flow, units/second.
    pub fn mean_rate(&self) -> f64 {
        self.flows.values().map(|f| f.mean_rate()).sum()
    }

    /// The arrival instants of flow `label`, strictly increasing, drawn
    /// from the flow's own random stream. Two calls return identical
    /// vectors.
    pub fn arrivals(&self, label: &str) -> Vec<SimTime> {
        let Some(spec) = self.flows.get(label) else {
            return Vec::new();
        };
        let mut rng = StreamRng::new(self.master_seed, &format!("traffic/{label}"));
        arrivals_of(spec, &mut rng)
    }

    /// `(label, arrivals)` for every flow, in label order.
    pub fn all_arrivals(&self) -> Vec<(&str, Vec<SimTime>)> {
        self.flows.keys().map(|l| (l.as_str(), self.arrivals(l))).collect()
    }

    /// A randomized plan for fuzzing: `n_flows` on-off flows whose peak
    /// rates, burst lengths and duty cycles are drawn from the
    /// `traffic/plan` stream of `master_seed`, sized so the aggregate
    /// mean load lands in `[0.5, 1.5] × base_rate` — around the knee
    /// where queues start growing.
    pub fn random(master_seed: u64, n_flows: usize, base_rate: f64, horizon: SimTime) -> Self {
        let mut rng = StreamRng::new(master_seed, "traffic/plan");
        let mut plan = TrafficPlan::new(master_seed);
        if n_flows == 0 {
            return plan;
        }
        let aggregate = base_rate * rng.uniform_in(0.5, 1.5);
        for k in 0..n_flows {
            let share = aggregate / n_flows as f64;
            let duty = rng.uniform_in(0.2, 0.9);
            let spec = BgFlowSpec {
                peak_rate: share / duty,
                mean_burst: rng.uniform_in(8.0, 120.0),
                duty,
                start: SimTime::from_nanos(
                    (rng.uniform_in(0.0, 0.01) * 1e9) as u64, // jittered starts
                ),
                stop: horizon,
            };
            plan.add(format!("bg{k}"), spec);
        }
        plan
    }
}

/// Draw one flow's arrival schedule from `rng`.
fn arrivals_of(spec: &BgFlowSpec, rng: &mut StreamRng) -> Vec<SimTime> {
    assert!(spec.peak_rate > 0.0, "peak rate must be positive");
    assert!(spec.duty > 0.0 && spec.duty <= 1.0, "duty must be in (0, 1]");
    assert!(spec.mean_burst >= 1.0, "a burst holds at least one unit");
    let interval = SimDuration::from_secs_f64(1.0 / spec.peak_rate);
    let mut out = Vec::new();
    let mut t = spec.start;
    while t < spec.stop {
        // Geometric burst length with the configured mean (>= 1 unit).
        let burst = 1 + (rng.exponential(1.0) * (spec.mean_burst - 1.0)).round() as u64;
        for _ in 0..burst {
            if t >= spec.stop {
                break;
            }
            out.push(t);
            t += interval;
        }
        if spec.duty >= 1.0 {
            continue; // always-on source: back-to-back bursts
        }
        // Silence sized so that on average duty = on / (on + off).
        let mean_on = burst as f64 / spec.peak_rate;
        let mean_off = mean_on * (1.0 - spec.duty) / spec.duty;
        t += SimDuration::from_secs_f64(rng.exponential(1.0 / mean_off.max(1e-12)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(peak: f64, duty: f64) -> BgFlowSpec {
        BgFlowSpec {
            peak_rate: peak,
            mean_burst: 20.0,
            duty,
            start: SimTime::ZERO,
            stop: SimTime::from_secs(10),
        }
    }

    #[test]
    fn arrivals_are_deterministic_per_seed_and_label() {
        let mut plan = TrafficPlan::new(42);
        plan.add("a", spec(10_000.0, 0.5)).add("b", spec(5_000.0, 0.3));
        assert_eq!(plan.arrivals("a"), plan.arrivals("a"));
        assert_ne!(plan.arrivals("a"), plan.arrivals("b"));
        let other = {
            let mut p = TrafficPlan::new(43);
            p.add("a", spec(10_000.0, 0.5));
            p.arrivals("a")
        };
        assert_ne!(plan.arrivals("a"), other, "seed must matter");
    }

    #[test]
    fn adding_a_flow_does_not_perturb_existing_flows() {
        let mut plan = TrafficPlan::new(7);
        plan.add("a", spec(10_000.0, 0.5));
        let before = plan.arrivals("a");
        plan.add("z", spec(1_000.0, 0.2));
        assert_eq!(before, plan.arrivals("a"));
    }

    #[test]
    fn mean_rate_is_roughly_honoured() {
        let mut plan = TrafficPlan::new(1999);
        plan.add("a", spec(100_000.0, 0.5));
        let n = plan.arrivals("a").len() as f64;
        let want = plan.flows["a"].mean_rate() * 10.0;
        assert!((n - want).abs() / want < 0.25, "got {n}, want ~{want}");
    }

    #[test]
    fn arrivals_sorted_and_bounded() {
        let plan = TrafficPlan::random(3, 4, 50_000.0, SimTime::from_secs(2));
        assert_eq!(plan.flows.len(), 4);
        for (label, arr) in plan.all_arrivals() {
            assert!(!arr.is_empty(), "{label} generated nothing");
            assert!(arr.windows(2).all(|w| w[0] < w[1]), "{label} not strictly increasing");
            assert!(*arr.last().unwrap() < SimTime::from_secs(2));
        }
    }

    #[test]
    fn always_on_source_emits_at_peak() {
        let mut plan = TrafficPlan::new(11);
        plan.add("cbr", spec(1_000.0, 1.0));
        let arr = plan.arrivals("cbr");
        let n = arr.len() as f64;
        assert!((n - 10_000.0).abs() < 2.0, "always-on at 1 kHz over 10 s: {n}");
    }

    #[test]
    fn empty_and_unknown_labels_are_safe() {
        let plan = TrafficPlan::new(1);
        assert!(plan.is_empty());
        assert!(plan.arrivals("nope").is_empty());
        assert_eq!(plan.mean_rate(), 0.0);
    }
}
