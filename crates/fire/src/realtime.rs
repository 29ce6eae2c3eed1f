//! Event-driven simulation of the realtime chain: sequential vs
//! pipelined operation, with image skipping.
//!
//! The analytic periods in [`crate::pipeline::ChainTiming`] assume steady
//! state; this module *runs* the chain on the discrete-event kernel and
//! measures it, including the behaviour the analytics cannot see: in
//! sequential mode ("a new image is requested from the RT-server only
//! after the processing and displaying of the previous one is
//! completed") the client takes the *latest* available image, so when
//! the scanner outpaces the chain, intermediate scans are silently
//! skipped — exactly what happened when the original system was run at
//! too short a TR.

use gtw_desim::component::{downcast, msg};
use gtw_desim::fault::{
    FaultAt, ProcessFaultInjector, ProcessFaultKind, ProcessFaultPlan, Schedule,
};
use gtw_desim::{
    Component, ComponentId, Ctx, Histogram, Json, Msg, Observer, SimDuration, SimTime, Simulator,
};

/// Operating mode of the chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainMode {
    /// The paper's implementation: strictly one image in flight.
    Sequential,
    /// The extension: acquisition, transfer, compute and display overlap.
    Pipelined,
}

/// Timing parameters of the chain (seconds).
#[derive(Clone, Copy, Debug)]
pub struct RealtimeConfig {
    /// Scanner repetition time.
    pub tr_s: f64,
    /// Reconstruction delay: scan end → raw available at the RT-server.
    pub acquire_s: f64,
    /// Transfers + control per image.
    pub transfer_s: f64,
    /// T3E processing per image.
    pub compute_s: f64,
    /// Client display update.
    pub display_s: f64,
    /// Number of scans in the protocol.
    pub scans: usize,
}

impl RealtimeConfig {
    /// The paper's budget with a given compute time and TR.
    pub fn paper(compute_s: f64, tr_s: f64, scans: usize) -> Self {
        RealtimeConfig { tr_s, acquire_s: 1.5, transfer_s: 1.1, compute_s, display_s: 0.6, scans }
    }
}

/// Recovery parameters of the resilient chain: how long failures take
/// to detect and how long a compute-world respawn (including the FIRE
/// checkpoint restore) keeps the chain down.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Seconds for the heartbeat detector to declare a *hung* compute
    /// world (crashes are fail-stop: the broken connection is observed
    /// promptly, no detection delay).
    pub detect_s: f64,
    /// Seconds to respawn the compute world and restore its checkpoint.
    pub respawn_s: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        // Heartbeat 100 ms × 3 misses; respawn dominated by process
        // start plus checkpoint transfer.
        RecoveryConfig { detect_s: 0.3, respawn_s: 5.0 }
    }
}

/// Per-cause recovery counters of a process-faulted chain run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Compute-world crashes injected (fail-stop).
    pub crashes: usize,
    /// Compute-world hangs injected (declared by the detector).
    pub hangs: usize,
    /// Images processed inside a slow-node window.
    pub slowdowns: usize,
    /// In-flight scans re-processed from the checkpoint after a fault.
    pub recovered_scans: usize,
    /// In-flight scans superseded by newer data before the respawn
    /// finished (latest-wins: realtime display never replays stale
    /// frames).
    pub lost_scans: usize,
    /// Total seconds the chain was down (detection + respawn).
    pub downtime_s: f64,
}

impl RecoveryStats {
    /// The counters as a JSON object (for run reports).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("crashes", Json::from(self.crashes)),
            ("hangs", Json::from(self.hangs)),
            ("slowdowns", Json::from(self.slowdowns)),
            ("recovered_scans", Json::from(self.recovered_scans)),
            ("lost_scans", Json::from(self.lost_scans)),
            ("downtime_s", Json::from(self.downtime_s)),
        ])
    }
}

/// WAN congestion applied to the transfer stage: while a window is
/// open, transfers run `slowdown`× slower (the VC's share of the trunk
/// shrinks under competing background load).
#[derive(Clone, Debug, Default)]
pub struct Congestion {
    /// When the trunk is congested.
    pub windows: Schedule,
    /// Transfer slowdown factor while a window is open (`>= 1`).
    pub slowdown: f64,
}

impl Congestion {
    /// Congested over `windows`, transfers stretched by `slowdown`.
    pub fn new(windows: Schedule, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "a slowdown below 1 would be a speedup");
        Congestion { windows, slowdown }
    }

    /// True when no window ever opens (the clean-run case).
    pub fn is_empty(&self) -> bool {
        self.windows.windows().is_empty()
    }
}

/// The graceful-degradation policy: how the chain trades resolution for
/// latency when the transfer is congested.
///
/// Before consuming a raw image the driver predicts the scan-end →
/// display latency at each quality level (a level scales the transfer
/// *and* compute times — a downsampled scan is smaller to ship and
/// cheaper to reconstruct) and picks the highest level whose prediction
/// meets `deadline_s`. Downshifts take effect immediately; an upshift
/// needs `recover_after` consecutive images for which the next-higher
/// level would also have met the deadline, so quality ratchets back up
/// only once the backlog has genuinely cleared.
#[derive(Clone, Debug)]
pub struct DegradeConfig {
    /// Scan-end → display latency budget, seconds.
    pub deadline_s: f64,
    /// Quality levels as resolution factors, best first (e.g.
    /// `[1.0, 0.5, 0.25]`). The last level is the floor the chain falls
    /// back to even when its prediction misses the deadline.
    pub levels: Vec<f64>,
    /// Consecutive deadline-safe images before one upshift step.
    pub recover_after: usize,
}

impl DegradeConfig {
    /// The paper's budget: the headline "well below 5 s" delay as the
    /// deadline, half- and quarter-resolution fallbacks, and a short
    /// recovery streak.
    pub fn paper() -> Self {
        DegradeConfig { deadline_s: 5.0, levels: vec![1.0, 0.5, 0.25], recover_after: 3 }
    }
}

/// Counters of the degradation policy over one run.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradeStats {
    /// Quality reductions (each may skip several levels at once).
    pub downshifts: usize,
    /// Single-step quality recoveries.
    pub upshifts: usize,
    /// Images started below full resolution.
    pub degraded_images: usize,
    /// Lowest resolution factor the chain fell to.
    pub min_quality: f64,
    /// Images started although even the lowest level predicted a
    /// deadline miss (the chain never stalls — it ships its best).
    pub predicted_misses: usize,
}

impl Default for DegradeStats {
    fn default() -> Self {
        DegradeStats {
            downshifts: 0,
            upshifts: 0,
            degraded_images: 0,
            min_quality: 1.0,
            predicted_misses: 0,
        }
    }
}

impl DegradeStats {
    /// The counters as a JSON object (for run reports).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("downshifts", Json::from(self.downshifts)),
            ("upshifts", Json::from(self.upshifts)),
            ("degraded_images", Json::from(self.degraded_images)),
            ("min_quality", Json::from(self.min_quality)),
            ("predicted_misses", Json::from(self.predicted_misses)),
        ])
    }
}

/// Measured outcome of a chain run.
#[derive(Clone, Debug)]
pub struct RealtimeReport {
    /// Mode run.
    pub mode: ChainMode,
    /// Scans produced by the scanner.
    pub scanned: usize,
    /// Images that reached the display.
    pub displayed: usize,
    /// Scans skipped (sequential mode under pressure).
    pub skipped: usize,
    /// Chain starts deferred by a WAN outage (skip-frame degradation:
    /// the chain holds the *latest* raw image and resumes when the link
    /// returns instead of stalling the whole protocol).
    pub deferred: usize,
    /// Mean scan-end → display latency over displayed images, seconds.
    pub mean_latency_s: f64,
    /// Measured steady-state display period, seconds.
    pub period_s: f64,
    /// Full scan-end → display latency distribution (p50/p90/p99/max).
    pub latency: Histogram,
    /// Recovery counters — present only when a process-fault plan was
    /// installed, so clean-run reports are identical to pre-resilience
    /// builds.
    pub recovery: Option<RecoveryStats>,
    /// Degradation counters — present only when a congestion plan was
    /// installed, for the same clean-run identity reason.
    pub degrade: Option<DegradeStats>,
}

// ---- messages --------------------------------------------------------

/// Raw image `k` became available at the RT-server.
struct RawReady(usize, SimTime); // (scan index, scan end time)
/// A pipeline stage finished its current image. The driver tags its own
/// completions with the fault epoch so a dead incarnation's completion
/// is ignored; plain stages pass 0.
struct StageDone(u64);
/// The WAN outage that was blocking the transfer ended.
struct OutageOver;
/// A time-triggered compute-world fault instant arrived.
struct ComputeFault;
/// The respawned compute world is back online.
struct RespawnDone;

// ---- the driver ------------------------------------------------------

/// The chain driver: owns the raw buffer and the per-stage busy state.
struct ChainDriver {
    cfg: RealtimeConfig,
    mode: ChainMode,
    /// Latest raw image not yet consumed: (scan index, scan end).
    pending_raw: Option<(usize, SimTime)>,
    /// Scans that were replaced in `pending_raw` before consumption.
    skipped: usize,
    /// Whether the (sequential) chain or the (pipelined) transfer stage
    /// is busy.
    busy: bool,
    /// Pipelined: downstream stages.
    compute: Option<ComponentId>,
    /// Display log: (scan index, scan end, displayed at).
    displayed: Vec<(usize, SimTime, SimTime)>,
    /// WAN outage windows during which the transfer cannot start.
    outages: Schedule,
    /// Starts deferred to an outage-window end.
    deferred: usize,
    /// A wake timer for the current outage window is already armed.
    wake_armed: bool,
    /// Scripted compute-world faults: (time-triggered, injector). Empty
    /// on clean runs — every fault branch below is then dead code and
    /// the legacy event schedule is reproduced exactly.
    injectors: Vec<(bool, ProcessFaultInjector)>,
    recovery_cfg: RecoveryConfig,
    /// Fault epoch: bumped when a fault fires so completions scheduled
    /// by the dead incarnation are discarded.
    epoch: u64,
    /// The image currently in service (sequential: the whole chain;
    /// pipelined: the transfer stage).
    in_flight: Option<(usize, SimTime)>,
    /// The compute world is down, awaiting respawn.
    down: bool,
    /// Virtual time at which the pending respawn completes.
    up_at: SimTime,
    /// Scan requeued from a crashed incarnation (checkpoint resume): it
    /// counts as recovered when re-processed, lost if superseded first.
    requeued: Option<usize>,
    stats: RecoveryStats,
    /// Congestion + degradation policy. `None` on clean runs — every
    /// degradation branch is then dead code and the legacy schedule is
    /// reproduced exactly.
    degrade: Option<DegradeState>,
}

/// Live state of the degradation policy.
struct DegradeState {
    cfg: DegradeConfig,
    congestion: Congestion,
    /// Index into `cfg.levels` of the current quality.
    level: usize,
    /// Consecutive images for which the next-higher level was safe.
    ok_streak: usize,
    stats: DegradeStats,
}

impl ChainDriver {
    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy || self.down {
            return;
        }
        if self.pending_raw.is_none() {
            return;
        }
        if let Some(end) = self.outages.window_end_at(ctx.now()) {
            // Link down: leave the image in the latest-wins buffer (newer
            // scans still replace it — skip, don't queue) and wake exactly
            // once when the window closes.
            if !self.wake_armed {
                self.wake_armed = true;
                self.deferred += 1;
                ctx.span("chain", "outage-hold", ctx.now(), end);
                ctx.timer_in(end.saturating_since(ctx.now()), msg(OutageOver));
            }
            return;
        }
        // Op-entry fault poll: a scripted op-count trigger fires here and
        // takes the chain down before the image is consumed.
        if self.poll_faults(ctx, false) {
            return;
        }
        let Some((k, scan_end)) = self.pending_raw.take() else {
            return;
        };
        if self.requeued == Some(k) {
            // The checkpoint resume: the scan the crashed incarnation was
            // processing gets re-processed instead of being lost.
            self.requeued = None;
            self.stats.recovered_scans += 1;
        }
        self.busy = true;
        self.in_flight = Some((k, scan_end));
        let slow = self.slow_factor(ctx.now());
        if slow > 1.0 {
            self.stats.slowdowns += 1;
        }
        let (tmul, cmul) = self.pick_quality(ctx.now(), scan_end);
        match self.mode {
            ChainMode::Sequential => {
                // The whole chain is one serial service.
                let mut total =
                    self.cfg.transfer_s * tmul + self.cfg.compute_s * cmul + self.cfg.display_s;
                if slow > 1.0 {
                    total *= slow;
                }
                if ctx.observing() {
                    // The serial chain's internal stage boundaries are
                    // known at start time; emit them up front.
                    let f = if slow > 1.0 { slow } else { 1.0 };
                    let t0 = ctx.now();
                    let t1 = t0 + SimDuration::from_secs_f64(self.cfg.transfer_s * tmul * f);
                    let t2 = t1 + SimDuration::from_secs_f64(self.cfg.compute_s * cmul * f);
                    let t3 = t2 + SimDuration::from_secs_f64(self.cfg.display_s * f);
                    ctx.span("chain", "transfer", t0, t1);
                    ctx.span("chain", "compute", t1, t2);
                    ctx.span("chain", "display", t2, t3);
                }
                ctx.timer_in(
                    SimDuration::from_secs_f64(total),
                    msg(SeqDone(k, scan_end, self.epoch)),
                );
            }
            ChainMode::Pipelined => {
                // This actor is the transfer stage; hand off downstream.
                // Degradation shrinks the bytes shipped, so only the
                // transfer multiplier applies here — the downstream
                // stages run at their configured service times.
                let compute = self.compute.expect("pipelined mode wires a compute stage");
                let mut transfer = self.cfg.transfer_s * tmul;
                if slow > 1.0 {
                    transfer *= slow;
                }
                let t = SimDuration::from_secs_f64(transfer);
                ctx.span("transfer", "transfer", ctx.now(), ctx.now() + t);
                if self.injectors.is_empty() {
                    // Clean run: the legacy event schedule, untouched.
                    ctx.send_in(
                        SimDuration::from_secs_f64(transfer),
                        compute,
                        msg(WorkItem(k, scan_end)),
                    );
                    ctx.timer_in(SimDuration::from_secs_f64(transfer), msg(StageDone(0)));
                } else {
                    // Faulted run: hand off on completion, so an image in
                    // a transfer killed by a fault is NOT delivered
                    // downstream by a dead incarnation.
                    ctx.timer_in(SimDuration::from_secs_f64(transfer), msg(StageDone(self.epoch)));
                }
            }
        }
    }

    /// Product slow factor of all scripted slow-node faults at `now`.
    fn slow_factor(&self, now: SimTime) -> f64 {
        self.injectors.iter().map(|(_, inj)| inj.slow_factor(now)).product()
    }

    /// The congestion-feedback hook: pick the quality for the image
    /// about to start and return `(transfer multiplier, compute
    /// multiplier)`. The transfer multiplier folds in the congestion
    /// slowdown; on clean runs both are exactly `1.0`.
    fn pick_quality(&mut self, now: SimTime, scan_end: SimTime) -> (f64, f64) {
        let Some(st) = self.degrade.as_mut() else {
            return (1.0, 1.0);
        };
        let cf = if st.congestion.windows.window_end_at(now).is_some() {
            st.congestion.slowdown
        } else {
            1.0
        };
        let elapsed = now.saturating_since(scan_end).as_secs_f64();
        let (t, c, d) = (self.cfg.transfer_s, self.cfg.compute_s, self.cfg.display_s);
        let deadline = st.cfg.deadline_s;
        let fits = |q: f64| elapsed + t * cf * q + c * q + d <= deadline + 1e-12;
        let floor = st.cfg.levels.len() - 1;
        let desired = st.cfg.levels.iter().position(|&q| fits(q)).unwrap_or(floor);
        if desired > st.level {
            // The prediction misses at the current quality: shed
            // resolution immediately, possibly several levels at once.
            st.level = desired;
            st.stats.downshifts += 1;
            st.ok_streak = 0;
        } else if desired < st.level {
            // Higher quality would fit again; recover one level per
            // stable streak so a brief lull does not flap the quality.
            st.ok_streak += 1;
            if st.ok_streak >= st.cfg.recover_after {
                st.level -= 1;
                st.stats.upshifts += 1;
                st.ok_streak = 0;
            }
        } else {
            st.ok_streak = 0;
        }
        let q = st.cfg.levels[st.level];
        if q < 1.0 {
            st.stats.degraded_images += 1;
        }
        if q < st.stats.min_quality {
            st.stats.min_quality = q;
        }
        if !fits(q) {
            st.stats.predicted_misses += 1;
        }
        (cf * q, q)
    }

    /// Poll the scripted injectors (`time_only`: just the time-triggered
    /// ones — used by the scheduled fault timers so idle periods still
    /// fire, without advancing op counts spuriously). Returns true if a
    /// fault fired and the chain is now down.
    fn poll_faults(&mut self, ctx: &mut Ctx<'_>, time_only: bool) -> bool {
        let now = ctx.now();
        let mut fired_hang = Vec::new();
        for (time_based, inj) in &mut self.injectors {
            if time_only && !*time_based {
                continue;
            }
            match inj.poll(now) {
                Some(ProcessFaultKind::Crash) => fired_hang.push(false),
                Some(ProcessFaultKind::Hang) => fired_hang.push(true),
                Some(ProcessFaultKind::Slow { .. }) | None => {}
            }
        }
        let any = !fired_hang.is_empty();
        for hang in fired_hang {
            self.fault_fired(ctx, hang);
        }
        any
    }

    /// A compute-world fault fired: cancel the in-flight image (requeue
    /// it for the checkpoint resume unless a newer scan superseded it),
    /// and take the chain down for detection + respawn.
    fn fault_fired(&mut self, ctx: &mut Ctx<'_>, hang: bool) {
        let downtime = if hang {
            self.stats.hangs += 1;
            self.recovery_cfg.detect_s + self.recovery_cfg.respawn_s
        } else {
            self.stats.crashes += 1;
            self.recovery_cfg.respawn_s
        };
        self.epoch += 1;
        self.busy = false;
        if let Some((k, scan_end)) = self.in_flight.take() {
            if self.pending_raw.is_none() {
                self.pending_raw = Some((k, scan_end));
                self.requeued = Some(k);
            } else {
                // Latest-wins: a newer scan arrived while this one was in
                // flight; realtime display never replays stale frames.
                self.stats.lost_scans += 1;
            }
        }
        self.stats.downtime_s += downtime;
        let d = SimDuration::from_secs_f64(downtime);
        let label = if hang { "hang-detect+respawn" } else { "respawn" };
        ctx.span("chain", label, ctx.now(), ctx.now() + d);
        let target = ctx.now() + d;
        if !self.down || target > self.up_at {
            self.up_at = target;
        }
        self.down = true;
        ctx.timer_in(d, msg(RespawnDone));
    }
}

struct SeqDone(usize, SimTime, u64);
/// An image travelling between pipelined stages.
struct WorkItem(usize, SimTime);
/// A displayed image reported back to the driver.
struct Displayed(usize, SimTime);

impl Component for ChainDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<RawReady>() {
            let RawReady(k, scan_end) = *downcast::<RawReady>(m);
            if let Some((old, _)) = self.pending_raw.replace((k, scan_end)) {
                if self.requeued == Some(old) {
                    // The crash-requeued scan was superseded before the
                    // respawn finished: it is lost, not merely skipped.
                    self.requeued = None;
                    self.stats.lost_scans += 1;
                } else {
                    // An unconsumed raw image was overwritten: skipped.
                    self.skipped += 1;
                }
            }
            self.try_start(ctx);
        } else if m.is::<SeqDone>() {
            let SeqDone(k, scan_end, epoch) = *downcast::<SeqDone>(m);
            if epoch != self.epoch {
                return; // a dead incarnation's completion
            }
            self.displayed.push((k, scan_end, ctx.now()));
            self.busy = false;
            self.in_flight = None;
            self.try_start(ctx);
        } else if m.is::<StageDone>() {
            let StageDone(epoch) = *downcast::<StageDone>(m);
            if epoch != self.epoch {
                return; // a dead incarnation's transfer
            }
            if !self.injectors.is_empty() {
                // Faulted run: the transfer completed under the live
                // incarnation — deliver downstream now.
                if let Some((k, scan_end)) = self.in_flight.take() {
                    let compute = self.compute.expect("pipelined mode wires a compute stage");
                    ctx.send_in(SimDuration::ZERO, compute, msg(WorkItem(k, scan_end)));
                }
            }
            self.busy = false;
            self.in_flight = None;
            self.try_start(ctx);
        } else if m.is::<OutageOver>() {
            let _ = downcast::<OutageOver>(m);
            self.wake_armed = false;
            self.try_start(ctx);
        } else if m.is::<ComputeFault>() {
            let _ = downcast::<ComputeFault>(m);
            self.poll_faults(ctx, true);
        } else if m.is::<RespawnDone>() {
            let _ = downcast::<RespawnDone>(m);
            if ctx.now() >= self.up_at {
                self.down = false;
                self.try_start(ctx);
            }
        } else {
            let Displayed(k, scan_end) = *downcast::<Displayed>(m);
            self.displayed.push((k, scan_end, ctx.now()));
        }
    }
    fn name(&self) -> &str {
        "chain-driver"
    }
}

/// A single-server pipelined stage with a latest-wins buffer of one.
struct Stage {
    service_s: f64,
    next: ComponentId,
    /// Whether `next` is the driver (deliver `Displayed`) or another
    /// stage (deliver `WorkItem`).
    terminal: bool,
    busy: bool,
    pending: Option<(usize, SimTime)>,
    skipped: usize,
    label: String,
}

impl Stage {
    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy {
            return;
        }
        let Some((k, scan_end)) = self.pending.take() else {
            return;
        };
        self.busy = true;
        let d = SimDuration::from_secs_f64(self.service_s);
        ctx.span(&self.label, &self.label, ctx.now(), ctx.now() + d);
        let next = self.next;
        if self.terminal {
            ctx.send_in(d, next, msg(Displayed(k, scan_end)));
        } else {
            ctx.send_in(d, next, msg(WorkItem(k, scan_end)));
        }
        ctx.timer_in(d, msg(StageDone(0)));
    }
}

impl Component for Stage {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<WorkItem>() {
            let WorkItem(k, scan_end) = *downcast::<WorkItem>(m);
            if self.pending.replace((k, scan_end)).is_some() {
                self.skipped += 1;
            }
            self.try_start(ctx);
        } else {
            let _ = downcast::<StageDone>(m);
            self.busy = false;
            self.try_start(ctx);
        }
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// What a chain run is subjected to and observed by. The default is the
/// clean, untraced run; the parts compose freely.
#[derive(Clone, Debug, Default)]
pub struct ChainOptions {
    /// WAN outage windows on the transfer link: while one is open the
    /// chain cannot start a new image. Degradation is graceful — the
    /// latest raw image is *held* (and replaced by newer scans, counted
    /// as skips) rather than queued, and the chain resumes at the window
    /// end; the stall shows up in the latency histogram of the first
    /// image transferred after the outage, never as a hang.
    pub outages: Schedule,
    /// Scripted compute-world faults: crashes are detected promptly
    /// (fail-stop), hangs after the heartbeat budget, and each fault
    /// takes the chain down for the respawn window while raw images keep
    /// arriving into the latest-wins buffer. The scan in flight when a
    /// fault fires is re-processed from the FIRE checkpoint (counted in
    /// [`RecoveryStats::recovered_scans`]) unless a newer scan supersedes
    /// it first ([`RecoveryStats::lost_scans`]); slow-node windows stretch
    /// service times without killing anything. With an empty plan the
    /// report's `recovery` stays `None`.
    pub process_faults: ProcessFaultPlan,
    /// Detection and respawn times of `process_faults`.
    pub recovery: RecoveryConfig,
    /// Sustained WAN congestion with the graceful-degradation policy
    /// installed: while a congestion window is open, transfers run
    /// `slowdown`× slower, and before each image the driver predicts its
    /// scan-end → display latency, shedding resolution (per
    /// [`DegradeConfig::levels`]) as needed to stay inside the deadline —
    /// the chain trades quality for latency, never the deadline. Quality
    /// recovers one level per `recover_after` deadline-safe images once
    /// the backlog clears. The report's `degrade` carries the
    /// [`DegradeStats`]; with `None`, or windows that never open, it
    /// stays `None`.
    pub congestion: Option<(Congestion, DegradeConfig)>,
    /// Attached to the chain's kernel: per-stage spans (`transfer`,
    /// `compute`, `display` — one track each in pipelined mode, a single
    /// `chain` track in sequential mode), `acquire` spans on the
    /// `scanner` track and the kernel's own dispatch instants and counts.
    /// Observation never changes virtual time; the report is identical
    /// to the unobserved run.
    pub observer: Observer,
}

/// Run the clean chain and measure it.
pub fn run_chain(cfg: RealtimeConfig, mode: ChainMode) -> RealtimeReport {
    run_chain_with(cfg, mode, &ChainOptions::default())
}

/// Pinned by the frozen `gtw-benchmark` adapter; use [`run_chain_with`].
#[doc(hidden)]
pub fn run_chain_traced(cfg: RealtimeConfig, mode: ChainMode, sink: &Observer) -> RealtimeReport {
    run_chain_with(cfg, mode, &ChainOptions { observer: sink.clone(), ..ChainOptions::default() })
}

/// Run the chain under `opts` and measure it. Whatever `opts` leaves at
/// its default leaves the run — report included — identical to
/// [`run_chain`].
pub fn run_chain_with(cfg: RealtimeConfig, mode: ChainMode, opts: &ChainOptions) -> RealtimeReport {
    let (plan, sink) = (&opts.process_faults, &opts.observer);
    let congestion = opts.congestion.clone().filter(|(congestion, _)| !congestion.is_empty());
    let mut sim = Simulator::new();
    sim.observe(sink);
    let injectors: Vec<(bool, ProcessFaultInjector)> = plan
        .faults
        .iter()
        .filter_map(|(&rank, fault)| {
            let time_based = matches!(fault.at, FaultAt::Time(_))
                && !matches!(fault.kind, ProcessFaultKind::Slow { .. });
            plan.injector(rank).map(|inj| (time_based, inj))
        })
        .collect();
    let faulted = !plan.is_empty();
    let mut driver = ChainDriver {
        cfg,
        mode,
        pending_raw: None,
        skipped: 0,
        busy: false,
        compute: None,
        displayed: Vec::new(),
        outages: opts.outages.clone(),
        deferred: 0,
        wake_armed: false,
        injectors,
        recovery_cfg: opts.recovery,
        epoch: 0,
        in_flight: None,
        down: false,
        up_at: SimTime::ZERO,
        requeued: None,
        stats: RecoveryStats::default(),
        degrade: congestion.map(|(congestion, cfg)| DegradeState {
            cfg,
            congestion,
            level: 0,
            ok_streak: 0,
            stats: DegradeStats::default(),
        }),
    };
    let (driver_id, stage_skips) = if mode == ChainMode::Pipelined {
        // display <- compute <- driver(transfer)
        let driver_slot = ComponentId::placeholder();
        let display = sim.add_component(Stage {
            service_s: cfg.display_s,
            next: driver_slot,
            terminal: true,
            busy: false,
            pending: None,
            skipped: 0,
            label: "display".into(),
        });
        let compute = sim.add_component(Stage {
            service_s: cfg.compute_s,
            next: display,
            terminal: false,
            busy: false,
            pending: None,
            skipped: 0,
            label: "compute".into(),
        });
        driver.compute = Some(compute);
        let driver_id = sim.add_component(driver);
        sim.component_mut::<Stage>(display).next = driver_id;
        (driver_id, vec![display, compute])
    } else {
        (sim.add_component(driver), Vec::new())
    };
    // Time-triggered faults fire even while the chain is idle: schedule
    // a poll at each scripted instant.
    for fault in plan.faults.values() {
        if let FaultAt::Time(t) = fault.at {
            if !matches!(fault.kind, ProcessFaultKind::Slow { .. }) {
                sim.send_at(t, driver_id, msg(ComputeFault));
            }
        }
    }
    // The scanner: raw image k available at (k+1)·TR + acquire.
    for k in 0..cfg.scans {
        let at = SimTime::from_secs_f64((k as f64 + 1.0) * cfg.tr_s);
        let ready = at + SimDuration::from_secs_f64(cfg.acquire_s);
        sink.record("scanner", "acquire", at, ready);
        sim.send_at(ready, driver_id, msg(RawReady(k, at)));
    }
    sim.run();
    let d = sim.component::<ChainDriver>(driver_id);
    let mut skipped = d.skipped;
    for &s in &stage_skips {
        skipped += sim.component::<Stage>(s).skipped;
    }
    let displayed = &d.displayed;
    let mut latency = Histogram::new();
    for &(_, scan_end, shown) in displayed {
        latency.record(shown.saturating_since(scan_end));
    }
    let mean_latency_s = if displayed.is_empty() {
        0.0
    } else {
        displayed
            .iter()
            .map(|&(_, scan_end, shown)| shown.saturating_since(scan_end).as_secs_f64())
            .sum::<f64>()
            / displayed.len() as f64
    };
    let period_s = if displayed.len() >= 2 {
        let first = displayed[0].2;
        let last = displayed[displayed.len() - 1].2;
        last.saturating_since(first).as_secs_f64() / (displayed.len() - 1) as f64
    } else {
        0.0
    };
    RealtimeReport {
        mode,
        scanned: cfg.scans,
        displayed: displayed.len(),
        skipped,
        deferred: d.deferred,
        mean_latency_s,
        period_s,
        latency,
        recovery: if faulted { Some(d.stats.clone()) } else { None },
        degrade: d.degrade.as_ref().map(|st| st.stats.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ChainTiming;
    use crate::t3e::T3eModel;
    use gtw_scan::volume::Dims;

    fn paper_256(tr: f64, scans: usize) -> RealtimeConfig {
        let compute = T3eModel::t3e_600().row(256, Dims::EPI).total_s;
        RealtimeConfig::paper(compute, tr, scans)
    }

    fn with_outages(outages: &Schedule) -> ChainOptions {
        ChainOptions { outages: outages.clone(), ..ChainOptions::default() }
    }

    fn with_faults(plan: &ProcessFaultPlan, recovery: RecoveryConfig) -> ChainOptions {
        ChainOptions { process_faults: plan.clone(), recovery, ..ChainOptions::default() }
    }

    fn with_congestion(congestion: &Congestion, degrade: &DegradeConfig) -> ChainOptions {
        ChainOptions {
            congestion: Some((congestion.clone(), degrade.clone())),
            ..ChainOptions::default()
        }
    }

    #[test]
    fn sequential_at_tr3_keeps_up() {
        // The paper's operating point: TR 3 s, 2.7 s chain — no skips.
        let r = run_chain(paper_256(3.0, 40), ChainMode::Sequential);
        assert_eq!(r.displayed, 40);
        assert_eq!(r.skipped, 0);
        // Measured period equals the TR (source-limited).
        assert!((r.period_s - 3.0).abs() < 0.05, "{r:?}");
        // Latency matches the analytic budget.
        let t = ChainTiming::paper(T3eModel::t3e_600().row(256, Dims::EPI).total_s);
        assert!((r.mean_latency_s - t.latency_s()).abs() < 0.1, "{r:?}");
    }

    #[test]
    fn sequential_at_tr2_skips_images() {
        // Run the scanner faster than the chain: sequential mode must
        // skip, pipelined must not.
        let seq = run_chain(paper_256(2.0, 60), ChainMode::Sequential);
        assert!(seq.skipped > 10, "{seq:?}");
        // Its display period is the chain service time, not the TR.
        let service = ChainTiming::paper(T3eModel::t3e_600().row(256, Dims::EPI).total_s)
            .sequential_period_s();
        assert!((seq.period_s - service).abs() < 0.4, "{seq:?} vs service {service}");

        let pipe = run_chain(paper_256(2.0, 60), ChainMode::Pipelined);
        assert_eq!(pipe.skipped, 0, "{pipe:?}");
        assert_eq!(pipe.displayed, 60);
        assert!((pipe.period_s - 2.0).abs() < 0.05, "{pipe:?}");
    }

    #[test]
    fn pipelined_latency_equals_sequential_latency() {
        // Pipelining raises throughput, not per-image latency.
        let seq = run_chain(paper_256(3.0, 30), ChainMode::Sequential);
        let pipe = run_chain(paper_256(3.0, 30), ChainMode::Pipelined);
        assert!((seq.mean_latency_s - pipe.mean_latency_s).abs() < 0.05, "{seq:?} {pipe:?}");
        assert_eq!(pipe.skipped, 0);
    }

    #[test]
    fn slow_compute_forces_skips_even_pipelined() {
        // 8 PEs: 13.7 s of compute. Even the pipeline drops scans; the
        // display period equals the compute service time.
        let compute = T3eModel::t3e_600().row(8, Dims::EPI).total_s;
        let cfg = RealtimeConfig::paper(compute, 3.0, 40);
        let r = run_chain(cfg, ChainMode::Pipelined);
        assert!(r.skipped > 20, "{r:?}");
        assert!((r.period_s - compute).abs() < 0.5, "{r:?}");
    }

    #[test]
    fn traced_chain_matches_untraced_and_exports_valid_trace() {
        let cfg = paper_256(3.0, 20);
        let plain = run_chain(cfg, ChainMode::Pipelined);
        let sink = Observer::recording();
        let traced = run_chain_with(
            cfg,
            ChainMode::Pipelined,
            &ChainOptions { observer: sink.clone(), ..ChainOptions::default() },
        );
        // Tracing never perturbs the measurement.
        assert_eq!(plain.displayed, traced.displayed);
        assert_eq!(plain.skipped, traced.skipped);
        assert_eq!(plain.mean_latency_s, traced.mean_latency_s);
        assert_eq!(plain.period_s, traced.period_s);
        // Every stage shows up as a track, and the export validates.
        let spans = sink.snapshot();
        for track in ["scanner", "transfer", "compute", "display"] {
            assert!(spans.iter().any(|s| s.track == track), "missing track {track}");
        }
        let check = gtw_desim::validate_chrome_trace(&sink.to_chrome_trace().dump())
            .expect("valid Chrome trace");
        assert!(check.spans >= 20 * 3);
    }

    #[test]
    fn outage_skips_frames_instead_of_stalling() {
        use gtw_desim::fault::{Schedule, Window};
        // TR 3 s, images ready at 4.5, 7.5, 10.5, … A 5 s outage over
        // [4.0, 9.0) holds image 0, lets image 1 replace it (one skip),
        // then the chain resumes at 9.0 and catches up — the protocol
        // finishes, it never hangs.
        let outages = Schedule::new(vec![Window::new(
            SimTime::from_secs_f64(4.0),
            SimTime::from_secs_f64(9.0),
        )]);
        let r = run_chain_with(paper_256(3.0, 40), ChainMode::Sequential, &with_outages(&outages));
        assert_eq!(r.deferred, 1, "{r:?}");
        assert_eq!(r.skipped, 1, "{r:?}");
        assert_eq!(r.displayed + r.skipped, r.scanned, "every scan accounted for: {r:?}");
        // The post-outage image carries the stall in its latency; the
        // tail of the histogram shows it while the median stays nominal.
        assert!(r.latency.max() > r.latency.p50(), "{r:?}");
    }

    #[test]
    fn outage_before_first_image_changes_nothing() {
        use gtw_desim::fault::{Schedule, Window};
        let clean = run_chain(paper_256(3.0, 20), ChainMode::Pipelined);
        let outages = Schedule::new(vec![Window::new(
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(2.0),
        )]);
        let faulted =
            run_chain_with(paper_256(3.0, 20), ChainMode::Pipelined, &with_outages(&outages));
        assert_eq!(faulted.deferred, 0);
        assert_eq!(clean.displayed, faulted.displayed);
        assert_eq!(clean.skipped, faulted.skipped);
        assert_eq!(clean.mean_latency_s, faulted.mean_latency_s);
        assert_eq!(clean.period_s, faulted.period_s);
    }

    #[test]
    fn pipelined_outage_recovers_with_bounded_skips() {
        use gtw_desim::fault::{Schedule, Window};
        // Two outage windows; the pipelined chain defers twice and loses
        // only the frames that arrived while its transfer was blocked.
        let outages = Schedule::new(vec![
            Window::new(SimTime::from_secs_f64(4.0), SimTime::from_secs_f64(8.0)),
            Window::new(SimTime::from_secs_f64(20.0), SimTime::from_secs_f64(24.0)),
        ]);
        let r = run_chain_with(paper_256(3.0, 30), ChainMode::Pipelined, &with_outages(&outages));
        assert_eq!(r.deferred, 2, "{r:?}");
        assert!(r.skipped >= 1 && r.skipped <= 6, "{r:?}");
        assert_eq!(r.displayed + r.skipped, r.scanned, "{r:?}");
    }

    #[test]
    fn latency_histogram_matches_mean_and_analytics() {
        let r = run_chain(paper_256(3.0, 40), ChainMode::Sequential);
        assert_eq!(r.latency.count(), r.displayed as u64);
        // A deterministic chain: every displayed image has the same
        // latency, so the percentiles collapse onto the mean (within the
        // histogram's one-bucket relative error).
        let tol = r.mean_latency_s / 64.0 + 1e-9;
        assert!((r.latency.p50().as_secs_f64() - r.mean_latency_s).abs() < tol, "{r:?}");
        assert!((r.latency.p99().as_secs_f64() - r.mean_latency_s).abs() < tol, "{r:?}");
        assert!((r.latency.max().as_secs_f64() - r.mean_latency_s).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn measured_periods_match_analytics_under_pressure() {
        // Saturate both modes (TR 0.5 s) and compare measured periods
        // with the ChainTiming formulas.
        let compute = T3eModel::t3e_600().row(256, Dims::EPI).total_s;
        let t = ChainTiming::paper(compute);
        let cfg = RealtimeConfig::paper(compute, 0.5, 200);
        let seq = run_chain(cfg, ChainMode::Sequential);
        let pipe = run_chain(cfg, ChainMode::Pipelined);
        assert!(
            (seq.period_s - t.sequential_period_s()).abs() < 0.1,
            "seq {seq:?} vs {}",
            t.sequential_period_s()
        );
        // Pipelined under saturation: the slowest *chain* stage binds
        // (acquire is part of the source here, so transfer/compute/
        // display compete).
        let bottleneck = cfg.transfer_s.max(cfg.compute_s).max(cfg.display_s);
        assert!((pipe.period_s - bottleneck).abs() < 0.1, "pipe {pipe:?} vs {bottleneck}");
    }

    // ---- process-fault recovery -------------------------------------

    fn fast_recovery() -> RecoveryConfig {
        RecoveryConfig { detect_s: 0.3, respawn_s: 1.0 }
    }

    #[test]
    fn crash_mid_protocol_recovers_from_checkpoint() {
        // T3E crash at t = 20 s: scan 5 is in flight (started 19.5 s).
        // The respawned compute world restores the checkpoint and
        // re-processes it — every scan still reaches the display.
        let cfg = paper_256(3.0, 40);
        let clean = run_chain(cfg, ChainMode::Sequential);
        let mut plan = ProcessFaultPlan::new(1999);
        plan.crash_at(1, SimTime::from_secs_f64(20.0));
        let r = run_chain_with(cfg, ChainMode::Sequential, &with_faults(&plan, fast_recovery()));
        let stats = r.recovery.as_ref().expect("plan installed → stats present");
        assert_eq!(stats.crashes, 1, "{r:?}");
        assert_eq!(stats.hangs, 0);
        assert_eq!(stats.recovered_scans, 1, "in-flight scan re-processed: {r:?}");
        assert_eq!(stats.lost_scans, 0, "{r:?}");
        assert!((stats.downtime_s - 1.0).abs() < 1e-9, "crash = respawn only: {stats:?}");
        // Exactly-once: all 40 scans displayed, none dropped.
        assert_eq!(r.displayed, 40, "{r:?}");
        assert_eq!(r.skipped, 0, "{r:?}");
        assert_eq!(r.displayed + r.skipped + stats.lost_scans, r.scanned, "{r:?}");
        // Bounded penalty: the recovered scan pays at most the downtime
        // plus its restarted service; everything else is nominal.
        let service = cfg.transfer_s + cfg.compute_s + cfg.display_s;
        let worst = clean.latency.max().as_secs_f64() + stats.downtime_s + service;
        assert!(r.latency.max().as_secs_f64() <= worst + 1e-9, "{r:?} vs worst {worst}");
        assert!(r.mean_latency_s > clean.mean_latency_s, "the recovery is visible: {r:?}");
    }

    #[test]
    fn hang_pays_the_detection_delay_on_top_of_the_respawn() {
        // A hang is only declared after the heartbeat budget, so its
        // downtime is detect + respawn where a crash pays respawn alone.
        let cfg = paper_256(3.0, 40);
        let mut plan = ProcessFaultPlan::new(1999);
        plan.hang_at(1, SimTime::from_secs_f64(20.0));
        let r = run_chain_with(cfg, ChainMode::Sequential, &with_faults(&plan, fast_recovery()));
        let stats = r.recovery.as_ref().expect("stats present");
        assert_eq!((stats.crashes, stats.hangs), (0, 1), "{stats:?}");
        assert!((stats.downtime_s - 1.3).abs() < 1e-9, "{stats:?}");
        assert_eq!(r.displayed + r.skipped + stats.lost_scans, r.scanned, "{r:?}");
    }

    #[test]
    fn empty_plan_is_invisible_and_reports_no_recovery() {
        // The resilient entry point with no faults must reproduce the
        // legacy run event-for-event in both modes.
        for mode in [ChainMode::Sequential, ChainMode::Pipelined] {
            let clean = run_chain(paper_256(3.0, 30), mode);
            let faulted = run_chain_with(
                paper_256(3.0, 30),
                mode,
                &with_faults(&ProcessFaultPlan::new(7), RecoveryConfig::default()),
            );
            assert!(faulted.recovery.is_none(), "{faulted:?}");
            assert_eq!(format!("{clean:?}"), format!("{faulted:?}"), "{mode:?}");
        }
    }

    #[test]
    fn slow_window_stretches_service_without_killing() {
        // A 3× slow-node window over the first scans: the stretched
        // service forces latest-wins skips, but nothing dies and no
        // downtime accrues.
        use gtw_desim::fault::Window;
        let mut plan = ProcessFaultPlan::new(1999);
        plan.slow(
            1,
            Schedule::new(vec![Window::new(
                SimTime::from_secs_f64(4.0),
                SimTime::from_secs_f64(9.0),
            )]),
            3.0,
        );
        let r = run_chain_with(
            paper_256(3.0, 40),
            ChainMode::Sequential,
            &with_faults(&plan, fast_recovery()),
        );
        let stats = r.recovery.as_ref().expect("stats present");
        assert!(stats.slowdowns >= 1, "{stats:?}");
        assert_eq!((stats.crashes, stats.hangs, stats.recovered_scans), (0, 0, 0), "{stats:?}");
        assert_eq!(stats.downtime_s, 0.0, "{stats:?}");
        assert!(r.skipped >= 1, "the 8.1 s service must overrun the TR: {r:?}");
        assert_eq!(r.displayed + r.skipped + stats.lost_scans, r.scanned, "{r:?}");
    }

    #[test]
    fn pipelined_crash_delivers_each_scan_at_most_once() {
        // The crash kills the transfer in flight; its epoch-tagged
        // completion is discarded, so the dead incarnation never hands
        // the image downstream — it is re-sent after the respawn instead
        // of arriving twice.
        let cfg = paper_256(3.0, 40);
        let mut plan = ProcessFaultPlan::new(1999);
        plan.crash_at(1, SimTime::from_secs_f64(20.0));
        let r = run_chain_with(cfg, ChainMode::Pipelined, &with_faults(&plan, fast_recovery()));
        let stats = r.recovery.as_ref().expect("stats present");
        assert_eq!(stats.crashes, 1, "{r:?}");
        assert_eq!(stats.recovered_scans, 1, "{r:?}");
        assert_eq!(r.displayed, 40, "recovered scan displayed exactly once: {r:?}");
        assert_eq!(r.skipped, 0, "{r:?}");
        assert_eq!(r.displayed + r.skipped + stats.lost_scans, r.scanned, "{r:?}");
    }

    // ---- congestion + graceful degradation --------------------------

    #[test]
    fn congestion_sheds_resolution_and_holds_the_deadline() {
        use gtw_desim::fault::Window;
        // A 3× transfer slowdown over [10 s, 60 s): at full resolution
        // the chain would blow the 5 s budget (1.5 + 3.3 + c + 0.6), so
        // it must downshift — and every displayed image still lands
        // inside the deadline.
        let congestion = Congestion::new(
            Schedule::new(vec![Window::new(
                SimTime::from_secs_f64(10.0),
                SimTime::from_secs_f64(60.0),
            )]),
            3.0,
        );
        let degrade = DegradeConfig::paper();
        let r = run_chain_with(
            paper_256(3.0, 40),
            ChainMode::Sequential,
            &with_congestion(&congestion, &degrade),
        );
        let stats = r.degrade.as_ref().expect("congestion plan installed → stats present");
        assert!(stats.downshifts >= 1, "{stats:?}");
        assert!(stats.degraded_images >= 1, "{stats:?}");
        assert!(stats.min_quality < 1.0, "{stats:?}");
        assert_eq!(stats.predicted_misses, 0, "the fallback levels must suffice: {stats:?}");
        // The robustness contract: resolution is shed, the deadline is
        // not — scan-end → display latency never exceeds the budget.
        assert!(
            r.latency.max().as_secs_f64() <= degrade.deadline_s + 1e-9,
            "deadline missed: {r:?}"
        );
        assert_eq!(r.displayed + r.skipped, r.scanned, "every scan accounted for: {r:?}");
    }

    #[test]
    fn quality_recovers_after_the_backlog_clears() {
        use gtw_desim::fault::Window;
        // Congestion over a window in the middle of the protocol: the
        // chain downshifts inside it and ratchets back to full quality
        // once transfers are fast again.
        let congestion = Congestion::new(
            Schedule::new(vec![Window::new(
                SimTime::from_secs_f64(10.0),
                SimTime::from_secs_f64(40.0),
            )]),
            3.0,
        );
        let r = run_chain_with(
            paper_256(3.0, 40),
            ChainMode::Sequential,
            &with_congestion(&congestion, &DegradeConfig::paper()),
        );
        let stats = r.degrade.as_ref().expect("stats present");
        assert!(stats.downshifts >= 1, "{stats:?}");
        assert!(stats.upshifts >= 1, "quality must recover after the window: {stats:?}");
        // The final images run at full quality again, so not every
        // image of the protocol is degraded.
        assert!(stats.degraded_images < r.displayed, "{stats:?} vs {} displayed", r.displayed);
    }

    #[test]
    fn empty_congestion_plan_is_invisible() {
        // The congested entry point with no windows must reproduce the
        // clean run event-for-event, and report no degrade stats.
        for mode in [ChainMode::Sequential, ChainMode::Pipelined] {
            let clean = run_chain(paper_256(3.0, 30), mode);
            let congested = run_chain_with(
                paper_256(3.0, 30),
                mode,
                &with_congestion(&Congestion::default(), &DegradeConfig::paper()),
            );
            assert!(congested.degrade.is_none(), "{congested:?}");
            assert_eq!(format!("{clean:?}"), format!("{congested:?}"), "{mode:?}");
        }
    }

    #[test]
    fn overwhelming_congestion_ships_the_floor_not_a_stall() {
        use gtw_desim::fault::Window;
        // A 20× slowdown no level can absorb: the chain reports the
        // predicted misses, falls to the floor quality, and still
        // finishes the protocol (degradation, never a hang).
        let congestion = Congestion::new(
            Schedule::new(vec![Window::new(
                SimTime::from_secs_f64(5.0),
                SimTime::from_secs_f64(200.0),
            )]),
            20.0,
        );
        let r = run_chain_with(
            paper_256(3.0, 40),
            ChainMode::Sequential,
            &with_congestion(&congestion, &DegradeConfig::paper()),
        );
        let stats = r.degrade.as_ref().expect("stats present");
        assert!(stats.predicted_misses >= 1, "{stats:?}");
        assert_eq!(stats.min_quality, 0.25, "fell to the floor level: {stats:?}");
        assert_eq!(r.displayed + r.skipped, r.scanned, "{r:?}");
        assert!(r.displayed >= 1, "{r:?}");
    }

    #[test]
    fn back_to_back_faults_and_seeded_reruns_are_deterministic() {
        // A crash, a hang and a slow window in one protocol: the run
        // completes, every scan is accounted for, and the same plan
        // reproduces the identical report bit for bit.
        use gtw_desim::fault::Window;
        let build = || {
            let mut plan = ProcessFaultPlan::new(0x6774_7732);
            plan.crash_at(1, SimTime::from_secs_f64(14.0))
                .hang_at(2, SimTime::from_secs_f64(44.0))
                .slow(
                    3,
                    Schedule::new(vec![Window::new(
                        SimTime::from_secs_f64(60.0),
                        SimTime::from_secs_f64(70.0),
                    )]),
                    2.0,
                );
            plan
        };
        let run = || {
            run_chain_with(
                paper_256(3.0, 40),
                ChainMode::Sequential,
                &with_faults(&build(), fast_recovery()),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seeded rerun must be bit-identical");
        let stats = a.recovery.as_ref().expect("stats present");
        assert_eq!((stats.crashes, stats.hangs), (1, 1), "{stats:?}");
        assert!(stats.slowdowns >= 1, "{stats:?}");
        assert!((stats.downtime_s - 2.3).abs() < 1e-9, "1.0 + 1.3: {stats:?}");
        assert_eq!(a.displayed + a.skipped + stats.lost_scans, a.scanned, "{a:?}");
    }

    // ---- the options compose ----------------------------------------

    #[test]
    fn default_options_are_the_clean_run() {
        for mode in [ChainMode::Sequential, ChainMode::Pipelined] {
            let clean = run_chain(paper_256(3.0, 30), mode);
            let with = run_chain_with(paper_256(3.0, 30), mode, &ChainOptions::default());
            assert!(with.recovery.is_none() && with.degrade.is_none(), "{with:?}");
            assert_eq!(format!("{clean:?}"), format!("{with:?}"), "{mode:?}");
        }
    }

    #[test]
    fn outage_crash_hang_and_congestion_compose_in_one_run() {
        use gtw_desim::fault::Window;
        let window = |from: f64, to: f64| {
            Schedule::new(vec![Window::new(
                SimTime::from_secs_f64(from),
                SimTime::from_secs_f64(to),
            )])
        };
        let mut plan = ProcessFaultPlan::new(1999);
        plan.crash_at(1, SimTime::from_secs_f64(20.0)).hang_at(2, SimTime::from_secs_f64(80.0));
        let opts = ChainOptions {
            outages: window(4.0, 9.0),
            congestion: Some((Congestion::new(window(40.0, 70.0), 3.0), DegradeConfig::paper())),
            ..with_faults(&plan, fast_recovery())
        };
        for mode in [ChainMode::Sequential, ChainMode::Pipelined] {
            let r = run_chain_with(paper_256(3.0, 40), mode, &opts);
            let again = run_chain_with(paper_256(3.0, 40), mode, &opts);
            assert_eq!(format!("{r:?}"), format!("{again:?}"), "{mode:?}");
            let recovery = r.recovery.as_ref().expect("fault plan installed");
            let degrade = r.degrade.as_ref().expect("congestion installed");
            assert_eq!((recovery.crashes, recovery.hangs), (1, 1), "{mode:?}: {recovery:?}");
            assert!(r.deferred >= 1, "{mode:?}: the outage held an image: {r:?}");
            assert!(degrade.downshifts >= 1, "{mode:?}: {degrade:?}");
            assert_eq!(r.displayed + r.skipped + recovery.lost_scans, r.scanned, "{mode:?}: {r:?}");
        }
    }
}
