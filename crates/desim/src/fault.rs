//! Deterministic fault injection: plans, schedules and injectors.
//!
//! The Gigabit Testbed West lived with real failures — gateway hiccups,
//! congested switch buffers, WAN outages — and the applications layered
//! on top had to survive them. This module provides a *seeded chaos*
//! layer for the simulator: a [`FaultPlan`] describes, per named target
//! (a `PipeStage` label, a switch name), which faults to inject and
//! when; a [`FaultInjector`] is the per-target runtime that components
//! consult on every packet or cell.
//!
//! Fault kinds:
//!
//! * **Outages** — half-open [`Window`]s during which the target drops
//!   everything (link down). A normalized [`Schedule`] keeps windows
//!   sorted and non-overlapping, so "is the link up at `t`?" is a
//!   single scan and two plans can be merged as a set union.
//! * **Cell/packet loss** — i.i.d. Bernoulli or a two-state
//!   Gilbert–Elliott burst model ([`LossModel`]).
//! * **Header bit errors** — an i.i.d. per-cell probability of a
//!   corrupted header, which an ATM switch surfaces as an HEC discard.
//! * **Buffer degradation** — windows during which the target's queue
//!   capacity is scaled down by a factor in `[0, 1]`.
//!
//! Determinism: every injector draws from its own
//! [`StreamRng`](crate::StreamRng) stream named `fault/<target>` keyed
//! by the plan's master seed, so two runs with the same plan and seed
//! inject byte-identical fault sequences, and adding an injector to one
//! target never perturbs the draws seen by another. With no plan
//! installed, components hold `None` and pay a single branch per
//! packet — no RNG draws, no behavioural change.

use std::collections::BTreeMap;

use crate::rng::StreamRng;
use crate::time::{SimDuration, SimTime};

/// A half-open interval of virtual time: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl Window {
    /// Construct a window; `end <= start` yields an empty window.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        Window { start, end }
    }

    /// True when the window contains no instant.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True when `t` falls inside `[start, end)`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the window (zero when empty).
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A normalized set of [`Window`]s: sorted by start, non-overlapping,
/// non-adjacent, no empty windows.
///
/// Construction normalizes any input — overlapping or touching windows
/// are merged, empty ones dropped — so the invariant holds by
/// construction and [`Schedule::merge`] is a plain set union.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    windows: Vec<Window>,
}

impl Schedule {
    /// Normalize an arbitrary collection of windows.
    pub fn new(mut windows: Vec<Window>) -> Self {
        windows.retain(|w| !w.is_empty());
        windows.sort_by_key(|w| (w.start, w.end));
        let mut merged: Vec<Window> = Vec::with_capacity(windows.len());
        for w in windows {
            match merged.last_mut() {
                // Merge overlapping *or* touching windows: [a,b) + [b,c) = [a,c).
                Some(last) if w.start <= last.end => {
                    if w.end > last.end {
                        last.end = w.end;
                    }
                }
                _ => merged.push(w),
            }
        }
        Schedule { windows: merged }
    }

    /// The schedule with no windows.
    pub fn empty() -> Self {
        Schedule::default()
    }

    /// True when no window is scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The normalized windows, sorted by start time.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// True when `t` falls inside any window.
    pub fn contains(&self, t: SimTime) -> bool {
        // Normalized + sorted: the candidate is the last window starting
        // at or before `t`.
        let idx = self.windows.partition_point(|w| w.start <= t);
        idx > 0 && self.windows[idx - 1].contains(t)
    }

    /// End of the window containing `t`, if any.
    pub fn window_end_at(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.windows.partition_point(|w| w.start <= t);
        (idx > 0 && self.windows[idx - 1].contains(t)).then(|| self.windows[idx - 1].end)
    }

    /// Set union of two schedules: the merged schedule contains `t`
    /// exactly when either operand does.
    pub fn merge(&self, other: &Schedule) -> Schedule {
        let mut all = self.windows.clone();
        all.extend_from_slice(&other.windows);
        Schedule::new(all)
    }

    /// Total scheduled time across all windows.
    pub fn total(&self) -> SimDuration {
        self.windows.iter().fold(SimDuration::ZERO, |acc, w| acc + w.duration())
    }

    /// A train of `count` short outages ("blips"): blip `k` covers
    /// `[period * (k + 1), period * (k + 1) + duration)`.
    ///
    /// The first blip starts one full period in, so a scenario always
    /// has a clean warm-up interval. The result is normalized like any
    /// other schedule — when `duration >= period` the blips touch or
    /// overlap and collapse into one long window.
    pub fn blips(period: SimDuration, duration: SimDuration, count: u32) -> Self {
        let windows = (0..count as u64)
            .map(|k| {
                let start = SimTime::ZERO + period * (k + 1);
                Window::new(start, start + duration)
            })
            .collect();
        Schedule::new(windows)
    }
}

/// Per-packet (or per-cell) loss process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No random loss.
    #[default]
    None,
    /// Independent Bernoulli loss with probability `p` per unit.
    Iid {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss model. The chain transitions
    /// once per unit *before* the loss draw; losses in the bad state are
    /// attributed as [`FaultCause::Burst`].
    GilbertElliott {
        /// P(good → bad) per unit.
        p_good_to_bad: f64,
        /// P(bad → good) per unit.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Long-run expected loss rate of the process.
    ///
    /// For Gilbert–Elliott this weights the per-state loss rates by the
    /// stationary distribution of the two-state chain; if both
    /// transition probabilities are zero the chain never leaves its
    /// initial (good) state.
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// Why an injected fault dropped (or corrupted) a unit of traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// Dropped because the target was inside an outage window.
    Outage,
    /// Random i.i.d. loss (or Gilbert–Elliott loss in the good state).
    Loss,
    /// Gilbert–Elliott loss while the chain was in the bad state.
    Burst,
    /// Header corrupted in flight (surfaces as an HEC discard at a switch).
    HeaderError,
}

/// Per-cause injection counters, maintained by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Units dropped inside outage windows.
    pub outage: u64,
    /// Units dropped by i.i.d. (good-state) loss.
    pub loss: u64,
    /// Units dropped by burst (bad-state) loss.
    pub burst: u64,
    /// Units whose header was corrupted.
    pub header_error: u64,
}

impl FaultStats {
    /// Total injected faults across all causes.
    pub fn total(&self) -> u64 {
        self.outage + self.loss + self.burst + self.header_error
    }

    fn record(&mut self, cause: FaultCause) {
        match cause {
            FaultCause::Outage => self.outage += 1,
            FaultCause::Loss => self.loss += 1,
            FaultCause::Burst => self.burst += 1,
            FaultCause::HeaderError => self.header_error += 1,
        }
    }
}

/// The faults to inject on one named target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Link-down windows: every unit arriving inside one is dropped.
    pub outages: Schedule,
    /// Random per-unit loss process.
    pub loss: LossModel,
    /// Probability of corrupting a unit's header (ATM HEC error).
    pub header_error_rate: f64,
    /// Buffer-degradation windows: while inside a window the target's
    /// queue capacity is scaled by the factor (clamped to `[0, 1]`).
    /// Overlapping windows apply the smallest factor.
    pub degrade: Vec<(Window, f64)>,
}

impl FaultSpec {
    /// True when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.loss == LossModel::None
            && self.header_error_rate <= 0.0
            && self.degrade.is_empty()
    }

    /// Queue-capacity scaling factor at `t`: the smallest factor of any
    /// degradation window containing `t`, `1.0` outside all windows.
    pub fn capacity_factor(&self, t: SimTime) -> f64 {
        self.degrade
            .iter()
            .filter(|(w, _)| w.contains(t))
            .map(|&(_, f)| f.clamp(0.0, 1.0))
            .fold(1.0, f64::min)
    }

    /// Union of two specs. Outages and degradation windows are unioned;
    /// independent loss rates compose as `1 - (1-a)(1-b)`. Merging two
    /// burst models (or a burst model with anything but `None`) keeps
    /// `self`'s model — correlated processes do not compose simply.
    pub fn merge(&self, other: &FaultSpec) -> FaultSpec {
        let loss = match (self.loss, other.loss) {
            (LossModel::None, l) => l,
            (l, LossModel::None) => l,
            (LossModel::Iid { p: a }, LossModel::Iid { p: b }) => {
                LossModel::Iid { p: 1.0 - (1.0 - a) * (1.0 - b) }
            }
            (l, _) => l,
        };
        let hec = 1.0 - (1.0 - self.header_error_rate) * (1.0 - other.header_error_rate);
        let mut degrade = self.degrade.clone();
        degrade.extend_from_slice(&other.degrade);
        FaultSpec {
            outages: self.outages.merge(&other.outages),
            loss,
            header_error_rate: hec,
            degrade,
        }
    }
}

/// A complete, seeded fault scenario: one [`FaultSpec`] per named
/// target, plus the master seed that keys every injector's RNG stream.
///
/// Targets are addressed by the same labels the network layer already
/// uses — `PipeStage` labels (`"hop1"`, `"rev0"`, ...) and switch names
/// — so a plan can be written against a topology without touching its
/// wiring. The `BTreeMap` keeps iteration (and hence any derived
/// output) deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all `fault/<target>` RNG streams.
    pub master_seed: u64,
    /// Fault spec per target label.
    pub specs: BTreeMap<String, FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        FaultPlan { master_seed, specs: BTreeMap::new() }
    }

    /// Add (or merge into) the spec for `target`.
    pub fn add(&mut self, target: &str, spec: FaultSpec) -> &mut Self {
        let merged = match self.specs.get(target) {
            Some(existing) => existing.merge(&spec),
            None => spec,
        };
        self.specs.insert(target.to_string(), merged);
        self
    }

    /// True when no target has a non-empty spec.
    pub fn is_empty(&self) -> bool {
        self.specs.values().all(FaultSpec::is_empty)
    }

    /// Build the runtime injector for `target`, if the plan covers it.
    pub fn injector(&self, target: &str) -> Option<FaultInjector> {
        let spec = self.specs.get(target)?;
        if spec.is_empty() {
            return None;
        }
        Some(FaultInjector::new(self.master_seed, target, spec.clone()))
    }

    /// Union of two plans: per-target specs are merged with
    /// [`FaultSpec::merge`]; `self`'s master seed wins.
    pub fn merge(&self, other: &FaultPlan) -> FaultPlan {
        let mut out = self.clone();
        for (target, spec) in &other.specs {
            out.add(target, spec.clone());
        }
        out
    }

    /// Partition the labelled endpoints in `groups` from each other for
    /// the given windows: every *cross-group* directed pair `(a, b)`
    /// gets an outage spec on the target `link/<a>/<b>`, the label
    /// convention the control-plane components use for their pairwise
    /// links. Traffic inside a group is untouched; outages merge with
    /// any windows already planned for the same link.
    pub fn partition(&mut self, groups: &[Vec<String>], windows: Schedule) -> &mut Self {
        if windows.is_empty() {
            return self;
        }
        for (gi, ga) in groups.iter().enumerate() {
            for (gj, gb) in groups.iter().enumerate() {
                if gi == gj {
                    continue;
                }
                for a in ga {
                    for b in gb {
                        self.add(
                            &format!("link/{a}/{b}"),
                            FaultSpec { outages: windows.clone(), ..FaultSpec::default() },
                        );
                    }
                }
            }
        }
        self
    }

    /// Cut one node off from a set of peers for the given windows — the
    /// common "minority replica isolated from its group" plan, spelled
    /// as a two-group [`partition`](Self::partition). `node` is removed
    /// from `others` if listed there, so callers can pass a full roster.
    pub fn isolate(&mut self, node: &str, others: &[String], windows: Schedule) -> &mut Self {
        let rest: Vec<String> = others.iter().filter(|o| o.as_str() != node).cloned().collect();
        if rest.is_empty() {
            return self;
        }
        self.partition(&[vec![node.to_string()], rest], windows)
    }
}

/// Per-target fault runtime: owns the spec, the RNG stream and the
/// injection counters. Components call [`judge`](FaultInjector::judge)
/// once per arriving unit and drop it when a cause comes back.
pub struct FaultInjector {
    spec: FaultSpec,
    rng: StreamRng,
    /// Gilbert–Elliott chain state; starts in the good state.
    in_bad_state: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector for `target` drawing from the stream
    /// `fault/<target>` keyed by `master_seed`.
    pub fn new(master_seed: u64, target: &str, spec: FaultSpec) -> Self {
        let rng = StreamRng::new(master_seed, &format!("fault/{target}"));
        FaultInjector { spec, rng, in_bad_state: false, stats: FaultStats::default() }
    }

    /// Decide the fate of one arriving unit: `Some(cause)` means drop
    /// it and count the cause; `None` means let it through.
    ///
    /// Outages are checked first and consume no randomness; the loss
    /// model then consumes its per-unit draws (one for i.i.d., two —
    /// transition then emission — for Gilbert–Elliott) so the stream
    /// position is a pure function of how many units were judged
    /// outside outage windows.
    pub fn judge(&mut self, now: SimTime) -> Option<FaultCause> {
        if self.spec.outages.contains(now) {
            self.stats.record(FaultCause::Outage);
            return Some(FaultCause::Outage);
        }
        let cause = match self.spec.loss {
            LossModel::None => None,
            LossModel::Iid { p } => (self.rng.uniform() < p).then_some(FaultCause::Loss),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                let flip = self.rng.uniform();
                self.in_bad_state =
                    if self.in_bad_state { flip >= p_bad_to_good } else { flip < p_good_to_bad };
                let (p, cause) = if self.in_bad_state {
                    (loss_bad, FaultCause::Burst)
                } else {
                    (loss_good, FaultCause::Loss)
                };
                (self.rng.uniform() < p).then_some(cause)
            }
        };
        if let Some(c) = cause {
            self.stats.record(c);
        }
        cause
    }

    /// Decide whether to corrupt this unit's header. Draws only when a
    /// header-error rate is configured.
    pub fn corrupt_header(&mut self) -> bool {
        if self.spec.header_error_rate <= 0.0 {
            return false;
        }
        let hit = self.rng.uniform() < self.spec.header_error_rate;
        if hit {
            self.stats.record(FaultCause::HeaderError);
        }
        hit
    }

    /// Queue-capacity scaling factor at `now` (see
    /// [`FaultSpec::capacity_factor`]).
    pub fn capacity_factor(&self, now: SimTime) -> f64 {
        self.spec.capacity_factor(now)
    }

    /// True when the spec schedules any buffer degradation at all.
    pub fn degrades_buffers(&self) -> bool {
        !self.spec.degrade.is_empty()
    }

    /// Snapshot of the per-cause injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.stats.total()
    }
}

// ---- process faults --------------------------------------------------
//
// PR 3 made the *network* survivable; the types below describe failures
// of the *endpoints themselves* — a rank of the metacomputer crashing,
// hanging, or running slow — for the MPI layer (`gtw-mpi`) and the FIRE
// chain to inject and recover from. The desim crate only holds the
// model: what happens to a faulted rank (mailbox poisoning, timeouts,
// respawn) lives with the consumers.

/// When a [`ProcessFault`] triggers.
///
/// Virtual-time triggers fire once the target's virtual clock (in the
/// MPI layer: its accumulated modeled communication time; in the chain
/// simulation: kernel time) passes `T`. Operation-count triggers fire on
/// the `n`-th fault-checked operation the rank performs — useful when a
/// scenario is phrased as "crash while receiving scan 40" rather than in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAt {
    /// Trigger when virtual time reaches `T`.
    Time(SimTime),
    /// Trigger on the `n`-th checked operation (1-based; `Op(1)` fires
    /// at the first check).
    Op(u64),
}

/// What happens to a faulted rank.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessFaultKind {
    /// The process dies: its mailbox is poisoned, peers observe
    /// `RankFailed` promptly (fail-stop).
    Crash,
    /// The process stops making progress but stays "alive": nothing is
    /// poisoned, peers notice only via timeouts or once it is declared
    /// dead.
    Hang,
    /// Degraded node: while inside a window the rank's modeled time is
    /// scaled by `factor` (> 1 = slower). Never fatal.
    Slow {
        /// Multiplier on the rank's modeled time inside the windows.
        factor: f64,
        /// Windows during which the degradation applies.
        windows: Schedule,
    },
}

/// One rank's scripted fault: what happens and when.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessFault {
    /// The failure mode.
    pub kind: ProcessFaultKind,
    /// The trigger (ignored for `Slow`, which is window-driven).
    pub at: FaultAt,
}

/// A seeded process-fault scenario: at most one scripted fault per
/// global rank id. The `BTreeMap` keeps iteration deterministic so any
/// derived schedule or report is reproducible from the plan alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessFaultPlan {
    /// Seed for `procfault/...` RNG streams of random constructors.
    pub master_seed: u64,
    /// Fault per global rank id.
    pub faults: BTreeMap<usize, ProcessFault>,
}

impl ProcessFaultPlan {
    /// An empty plan (faults nobody) with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        ProcessFaultPlan { master_seed, faults: BTreeMap::new() }
    }

    /// True when no rank is scripted to fault.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scripted fault for `rank`, if any.
    pub fn fault(&self, rank: usize) -> Option<&ProcessFault> {
        self.faults.get(&rank)
    }

    /// Script a crash of `rank` at virtual time `t`.
    pub fn crash_at(&mut self, rank: usize, t: SimTime) -> &mut Self {
        self.faults
            .insert(rank, ProcessFault { kind: ProcessFaultKind::Crash, at: FaultAt::Time(t) });
        self
    }

    /// Script a crash of `rank` on its `ops`-th checked operation.
    pub fn crash_after_ops(&mut self, rank: usize, ops: u64) -> &mut Self {
        self.faults
            .insert(rank, ProcessFault { kind: ProcessFaultKind::Crash, at: FaultAt::Op(ops) });
        self
    }

    /// Script a hang of `rank` at virtual time `t`.
    pub fn hang_at(&mut self, rank: usize, t: SimTime) -> &mut Self {
        self.faults
            .insert(rank, ProcessFault { kind: ProcessFaultKind::Hang, at: FaultAt::Time(t) });
        self
    }

    /// Script a hang of `rank` on its `ops`-th checked operation.
    pub fn hang_after_ops(&mut self, rank: usize, ops: u64) -> &mut Self {
        self.faults
            .insert(rank, ProcessFault { kind: ProcessFaultKind::Hang, at: FaultAt::Op(ops) });
        self
    }

    /// Script slow-node degradation of `rank`: time scaled by `factor`
    /// inside `windows`.
    pub fn slow(&mut self, rank: usize, windows: Schedule, factor: f64) -> &mut Self {
        self.faults.insert(
            rank,
            ProcessFault {
                kind: ProcessFaultKind::Slow { factor: factor.max(1.0), windows },
                at: FaultAt::Time(SimTime::ZERO),
            },
        );
        self
    }

    /// Seeded random single-crash scenario: one victim drawn uniformly
    /// from `0..ranks`, crashing at a time drawn uniformly inside
    /// `window`. All randomness comes from the `procfault/crash` stream,
    /// so the same seed always scripts the same scenario.
    pub fn random_crash(master_seed: u64, ranks: usize, window: Window) -> Self {
        assert!(ranks > 0, "need at least one candidate victim");
        let mut rng = StreamRng::new(master_seed, "procfault/crash");
        let victim = rng.below(ranks as u64) as usize;
        let span = window.end.saturating_since(window.start).as_nanos();
        let t = window.start + SimDuration::from_nanos(if span == 0 { 0 } else { rng.below(span) });
        let mut plan = ProcessFaultPlan::new(master_seed);
        plan.crash_at(victim, t);
        plan
    }

    /// Build the runtime injector for `rank`, if the plan scripts one.
    pub fn injector(&self, rank: usize) -> Option<ProcessFaultInjector> {
        self.fault(rank).map(|f| ProcessFaultInjector::new(f.clone()))
    }
}

/// Per-rank process-fault runtime: counts checked operations, tracks the
/// rank's virtual clock, and fires the scripted fault exactly once.
#[derive(Debug, Clone)]
pub struct ProcessFaultInjector {
    fault: ProcessFault,
    ops: u64,
    fired: bool,
}

impl ProcessFaultInjector {
    /// Wrap one rank's scripted fault.
    pub fn new(fault: ProcessFault) -> Self {
        ProcessFaultInjector { fault, ops: 0, fired: false }
    }

    /// Count one checked operation at virtual time `now` and return the
    /// fatal fault kind if the trigger fires. Fires at most once; `Slow`
    /// faults never fire (they only scale time, see
    /// [`ProcessFaultInjector::slow_factor`]).
    pub fn poll(&mut self, now: SimTime) -> Option<&ProcessFaultKind> {
        self.ops += 1;
        if self.fired || matches!(self.fault.kind, ProcessFaultKind::Slow { .. }) {
            return None;
        }
        let due = match self.fault.at {
            FaultAt::Time(t) => now >= t,
            FaultAt::Op(n) => self.ops >= n,
        };
        if due {
            self.fired = true;
            Some(&self.fault.kind)
        } else {
            None
        }
    }

    /// Whether the scripted fault already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Time-scaling factor at `now`: the `Slow` factor inside its
    /// windows, `1.0` for everything else.
    pub fn slow_factor(&self, now: SimTime) -> f64 {
        match &self.fault.kind {
            ProcessFaultKind::Slow { factor, windows } if windows.contains(now) => *factor,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn schedule_normalizes_overlap_and_adjacency() {
        let s = Schedule::new(vec![
            Window::new(t(10), t(20)),
            Window::new(t(15), t(25)),
            Window::new(t(25), t(30)),
            Window::new(t(50), t(50)), // empty, dropped
            Window::new(t(40), t(45)),
        ]);
        assert_eq!(s.windows(), &[Window::new(t(10), t(30)), Window::new(t(40), t(45))]);
        assert!(s.contains(t(10)));
        assert!(s.contains(t(29)));
        assert!(!s.contains(t(30))); // half-open
        assert!(!s.contains(t(35)));
        assert_eq!(s.window_end_at(t(12)), Some(t(30)));
        assert_eq!(s.window_end_at(t(30)), None);
        assert_eq!(s.total(), SimDuration::from_millis(25));
    }

    #[test]
    fn schedule_merge_is_union() {
        let a = Schedule::new(vec![Window::new(t(0), t(10))]);
        let b = Schedule::new(vec![Window::new(t(5), t(15)), Window::new(t(20), t(30))]);
        let m = a.merge(&b);
        for ms in 0..40 {
            assert_eq!(m.contains(t(ms)), a.contains(t(ms)) || b.contains(t(ms)), "at {ms} ms");
        }
    }

    #[test]
    fn blips_lay_out_a_train_and_collapse_when_touching() {
        let s = Schedule::blips(SimDuration::from_millis(100), SimDuration::from_millis(10), 3);
        assert_eq!(
            s.windows(),
            &[
                Window::new(t(100), t(110)),
                Window::new(t(200), t(210)),
                Window::new(t(300), t(310)),
            ]
        );
        // duration == period: blips touch end-to-start and merge into one window.
        let merged = Schedule::blips(SimDuration::from_millis(50), SimDuration::from_millis(50), 4);
        assert_eq!(merged.windows(), &[Window::new(t(50), t(250))]);
        assert!(Schedule::blips(SimDuration::from_millis(10), SimDuration::ZERO, 5).is_empty());
        assert!(Schedule::blips(SimDuration::from_millis(10), SimDuration::from_millis(1), 0)
            .is_empty());
    }

    #[test]
    fn partition_cuts_cross_group_links_both_ways_only() {
        let mut plan = FaultPlan::new(3);
        let groups = vec![vec!["g/r0".to_string(), "g/r1".to_string()], vec!["g/r2".to_string()]];
        let windows = Schedule::new(vec![Window::new(t(10), t(20))]);
        plan.partition(&groups, windows.clone());
        for (a, b) in [("g/r0", "g/r2"), ("g/r2", "g/r0"), ("g/r1", "g/r2"), ("g/r2", "g/r1")] {
            let spec = plan.specs.get(&format!("link/{a}/{b}")).expect("cross pair cut");
            assert_eq!(spec.outages, windows);
        }
        // Intra-group links stay up.
        assert!(plan.injector("link/g/r0/g/r1").is_none());
        assert!(plan.injector("link/g/r1/g/r0").is_none());
        // A second partition call merges windows instead of replacing them.
        plan.partition(&groups, Schedule::new(vec![Window::new(t(15), t(30))]));
        let spec = plan.specs.get("link/g/r0/g/r2").unwrap();
        assert_eq!(spec.outages.windows(), &[Window::new(t(10), t(30))]);
        // An empty window set is a no-op.
        let before = plan.clone();
        plan.partition(&groups, Schedule::empty());
        assert_eq!(plan, before);
    }

    #[test]
    fn isolate_cuts_node_from_roster_excluding_itself() {
        let mut plan = FaultPlan::new(3);
        let roster =
            vec!["g/r0".to_string(), "g/r1".to_string(), "g/r2".to_string(), "g/c".to_string()];
        let windows = Schedule::new(vec![Window::new(t(10), t(20))]);
        // Passing the full roster is fine: the node is dropped from the
        // peer side instead of being partitioned from itself.
        plan.isolate("g/r2", &roster, windows.clone());
        for (a, b) in
            [("g/r2", "g/r0"), ("g/r0", "g/r2"), ("g/r2", "g/r1"), ("g/r2", "g/c"), ("g/c", "g/r2")]
        {
            let spec = plan.specs.get(&format!("link/{a}/{b}")).expect("pair cut");
            assert_eq!(spec.outages, windows);
        }
        assert!(plan.injector("link/g/r2/g/r2").is_none());
        // The survivors keep talking to each other.
        assert!(plan.injector("link/g/r0/g/r1").is_none());
        assert!(plan.injector("link/g/r0/g/c").is_none());
        // Isolating a node from only itself is a no-op.
        let before = plan.clone();
        plan.isolate("g/r0", &["g/r0".to_string()], windows);
        assert_eq!(plan, before);
    }

    #[test]
    fn iid_loss_rate_close_to_p() {
        let spec = FaultSpec { loss: LossModel::Iid { p: 0.1 }, ..FaultSpec::default() };
        let mut inj = FaultInjector::new(7, "hop0", spec);
        let n = 20_000;
        let dropped = (0..n).filter(|_| inj.judge(t(0)).is_some()).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "measured {rate}");
        assert_eq!(inj.stats().loss as usize, dropped);
        assert_eq!(inj.stats().total() as usize, dropped);
    }

    #[test]
    fn outage_drops_everything_inside_window_only() {
        let spec = FaultSpec {
            outages: Schedule::new(vec![Window::new(t(100), t(150))]),
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(1, "hop0", spec);
        assert_eq!(inj.judge(t(99)), None);
        assert_eq!(inj.judge(t(100)), Some(FaultCause::Outage));
        assert_eq!(inj.judge(t(149)), Some(FaultCause::Outage));
        assert_eq!(inj.judge(t(150)), None);
        assert_eq!(inj.stats().outage, 2);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let spec = FaultSpec { loss: LossModel::Iid { p: 0.3 }, ..FaultSpec::default() };
        let mut a = FaultInjector::new(42, "wan", spec.clone());
        let mut b = FaultInjector::new(42, "wan", spec);
        for _ in 0..1000 {
            assert_eq!(a.judge(t(0)), b.judge(t(0)));
        }
    }

    #[test]
    fn capacity_factor_takes_min_of_overlapping_windows() {
        let spec = FaultSpec {
            degrade: vec![(Window::new(t(0), t(20)), 0.5), (Window::new(t(10), t(30)), 0.25)],
            ..FaultSpec::default()
        };
        assert_eq!(spec.capacity_factor(t(5)), 0.5);
        assert_eq!(spec.capacity_factor(t(15)), 0.25);
        assert_eq!(spec.capacity_factor(t(25)), 0.25);
        assert_eq!(spec.capacity_factor(t(35)), 1.0);
    }

    #[test]
    fn plan_injector_only_for_covered_targets() {
        let mut plan = FaultPlan::new(9);
        plan.add("hop1", FaultSpec { loss: LossModel::Iid { p: 0.01 }, ..FaultSpec::default() });
        assert!(plan.injector("hop1").is_some());
        assert!(plan.injector("hop0").is_none());
        assert!(plan.injector("rev1").is_none());
        assert!(!plan.is_empty());
        // An empty spec yields no injector.
        plan.add("hop2", FaultSpec::default());
        assert!(plan.injector("hop2").is_none());
    }

    #[test]
    fn process_fault_time_trigger_fires_once() {
        let mut plan = ProcessFaultPlan::new(1);
        plan.crash_at(3, t(100));
        let mut inj = plan.injector(3).expect("rank 3 is scripted");
        assert!(plan.injector(0).is_none());
        assert_eq!(inj.poll(t(50)), None);
        assert!(!inj.fired());
        assert_eq!(inj.poll(t(100)), Some(&ProcessFaultKind::Crash));
        assert!(inj.fired());
        // Never re-fires, no matter how often it is polled.
        assert_eq!(inj.poll(t(200)), None);
        assert_eq!(inj.poll(t(300)), None);
    }

    #[test]
    fn process_fault_op_trigger_counts_checks() {
        let mut plan = ProcessFaultPlan::new(1);
        plan.hang_after_ops(0, 3);
        let mut inj = plan.injector(0).unwrap();
        assert_eq!(inj.poll(t(0)), None);
        assert_eq!(inj.poll(t(0)), None);
        assert_eq!(inj.poll(t(0)), Some(&ProcessFaultKind::Hang));
        assert_eq!(inj.poll(t(0)), None);
    }

    #[test]
    fn slow_fault_scales_only_inside_windows() {
        let mut plan = ProcessFaultPlan::new(1);
        plan.slow(2, Schedule::new(vec![Window::new(t(10), t(20))]), 4.0);
        let mut inj = plan.injector(2).unwrap();
        assert_eq!(inj.slow_factor(t(5)), 1.0);
        assert_eq!(inj.slow_factor(t(15)), 4.0);
        assert_eq!(inj.slow_factor(t(25)), 1.0);
        // Slow is never fatal.
        for ms in 0..30 {
            assert_eq!(inj.poll(t(ms)), None);
        }
    }

    #[test]
    fn random_crash_is_reproducible_and_in_window() {
        let w = Window::new(t(100), t(500));
        let a = ProcessFaultPlan::random_crash(77, 8, w);
        let b = ProcessFaultPlan::random_crash(77, 8, w);
        assert_eq!(a, b, "same seed, same scenario");
        assert_eq!(a.faults.len(), 1);
        let (&victim, fault) = a.faults.iter().next().unwrap();
        assert!(victim < 8);
        match fault.at {
            FaultAt::Time(ts) => assert!(w.contains(ts), "{ts:?} outside {w:?}"),
            FaultAt::Op(_) => panic!("random_crash scripts a time trigger"),
        }
        // A different seed scripts a different scenario (victim or time).
        let c = ProcessFaultPlan::random_crash(78, 8, w);
        assert_ne!(a, c);
    }

    #[test]
    fn ge_steady_state_formula() {
        let m = LossModel::GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        // pi_bad = 0.1 / 0.4 = 0.25 -> loss = 0.25 * 0.8 = 0.2.
        assert!((m.steady_state_loss() - 0.2).abs() < 1e-12);
        assert_eq!(LossModel::None.steady_state_loss(), 0.0);
        assert_eq!(LossModel::Iid { p: 0.07 }.steady_state_loss(), 0.07);
    }
}
