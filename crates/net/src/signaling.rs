//! ATM signalling: switched-virtual-circuit setup and teardown.
//!
//! The testbed ran on PVCs (the figure-1 circuits were provisioned by
//! hand), but "the problem of simultaneous resource allocation" the
//! conclusion raises is exactly what SVC signalling automates: a SETUP
//! message walks the path hop by hop, each switch admits (or rejects)
//! the requested bandwidth and installs its VC-table entry; CONNECT
//! walks back; RELEASE frees the circuit. This module implements that
//! control plane event-driven on `gtw-desim`.
//!
//! It owns the hop-by-hop *walk*: what a hop does once it has decided —
//! forward the SETUP, start or continue the CONNECT walk-back, send the
//! REJECT to the origin, relay a RELEASE — is a method on the message
//! itself, and what an originator does with a REJECT is
//! [`Reject::roll_back`]. The *decision* is
//! [`CacState`](crate::replica::CacState)'s. [`SignallingAgent`] applies
//! CAC commands to its own state synchronously; the replicated hop
//! ([`ReplicatedAgent`](crate::replica::ReplicatedAgent)) puts the same
//! commands through a log first and then calls the same walk: a plain
//! hop is a replicated hop with a log of length zero.

use gtw_desim::component::{downcast, msg};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime, Simulator};

use crate::replica::cac::{CacState, CmdOutcome, Command};
use crate::units::Bandwidth;

/// Signalling processing time per message at a hop.
pub const PROCESSING: SimDuration = SimDuration::from_micros(150);

/// Propagation between neighbouring signalling hops on the testbed.
pub const HOP_LATENCY: SimDuration = SimDuration::from_micros(500);

/// Identifier of a signalled call. `Ord` so CAC state can keep admitted
/// calls in deterministic (BTreeMap) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallId(pub u64);

/// The ATM traffic contract a SETUP carries: peak cell rate and
/// sustainable cell rate, both as bandwidths. A CBR call has
/// `pcr == scr`; a VBR call declares a burst peak above its mean.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TrafficDescriptor {
    /// Peak cell rate: the instantaneous ceiling the source may hit.
    pub pcr: Bandwidth,
    /// Sustainable cell rate: the long-run mean the network reserves.
    pub scr: Bandwidth,
}

impl TrafficDescriptor {
    /// Constant-bit-rate contract: peak equals sustained.
    pub fn cbr(rate: Bandwidth) -> Self {
        TrafficDescriptor { pcr: rate, scr: rate }
    }

    /// Variable-bit-rate contract with `pcr >= scr`.
    pub fn vbr(pcr: Bandwidth, scr: Bandwidth) -> Self {
        assert!(pcr.bps() >= scr.bps(), "VBR peak must be at least the sustained rate");
        TrafficDescriptor { pcr, scr }
    }
}

/// Why call admission refused a SETUP.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RejectCause {
    /// The sustained-rate budget (link capacity) is exhausted.
    ScrExceeded,
    /// The peak-rate budget (`peak_factor × capacity`) is exhausted.
    PcrExceeded,
    /// The replicated control plane could not reach a majority before
    /// the request deadline (partitioned minority, no live leader).
    NoQuorum,
}

/// Outcome of a call attempt.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CallOutcome {
    /// Admitted on every hop; the VC is up.
    Connected {
        /// Setup latency: SETUP departure to CONNECT arrival.
        setup_s: f64,
    },
    /// Rejected by call admission at the named hop index.
    Rejected {
        /// Index of the refusing hop along the path.
        at_hop: usize,
        /// Which budget the call would have overrun.
        cause: RejectCause,
    },
}

// ---- messages and the walk --------------------------------------------
//
// `pub(crate)`: the plain agent here and the replicated proxy in
// `replica::agent` speak the same protocol through these methods. Each
// takes the calling hop's `delay` (processing + propagation).

pub(crate) struct Setup {
    pub(crate) call: CallId,
    pub(crate) td: TrafficDescriptor,
    /// Remaining path after this node (component ids of signalling
    /// agents).
    path: Vec<ComponentId>,
    /// Hops already traversed (for CONNECT backtracking).
    visited: Vec<ComponentId>,
    origin: ComponentId,
    sent_at: SimTime,
}

impl Setup {
    /// The SETUP an originator issues for `call` along `path`, and the
    /// first hop to deliver it to.
    pub(crate) fn first(
        call: CallId,
        td: TrafficDescriptor,
        path: &[ComponentId],
        origin: ComponentId,
        sent_at: SimTime,
    ) -> (ComponentId, Setup) {
        assert!(!path.is_empty(), "call needs at least one hop");
        (
            path[0],
            Setup { call, td, path: path[1..].to_vec(), visited: Vec::new(), origin, sent_at },
        )
    }

    /// This hop admitted: record it on `visited` and forward the SETUP.
    /// At the terminating switch there is nowhere to forward to, and the
    /// CONNECT that must walk back is returned instead.
    pub(crate) fn admitted(mut self, ctx: &mut Ctx<'_>, delay: SimDuration) -> Option<Connect> {
        if self.path.is_empty() {
            return Some(Connect {
                call: self.call,
                back: self.visited,
                origin: self.origin,
                sent_at: self.sent_at,
                confirmed: Vec::new(),
            });
        }
        self.visited.push(ctx.self_id());
        let next = self.path.remove(0);
        ctx.send_in(delay, next, msg(self));
        None
    }

    /// This hop refused: tell the origin, naming the hop and the hops
    /// that already admitted.
    pub(crate) fn refused(self, ctx: &mut Ctx<'_>, delay: SimDuration, cause: RejectCause) {
        let Setup { call, visited, origin, .. } = self;
        ctx.send_in(delay, origin, msg(Reject { call, at_hop: visited.len(), cause, visited }));
    }
}

pub(crate) struct Connect {
    pub(crate) call: CallId,
    /// Reverse path still to walk.
    back: Vec<ComponentId>,
    origin: ComponentId,
    sent_at: SimTime,
    /// Hops whose two-phase hand-off hold is already promoted; a hop
    /// that fails to confirm releases exactly these downstream holds.
    /// Empty outside the cross-domain hand-off protocol.
    pub(crate) confirmed: Vec<ComponentId>,
}

impl Connect {
    /// Walk one hop back, or finish at the origin with the setup
    /// latency.
    pub(crate) fn walk_back(mut self, ctx: &mut Ctx<'_>, delay: SimDuration) {
        match self.back.pop() {
            Some(n) => ctx.send_in(delay, n, msg(self)),
            None => {
                let setup_s = (ctx.now() + delay).saturating_since(self.sent_at).as_secs_f64();
                let done = CallResult(self.call, CallOutcome::Connected { setup_s });
                ctx.send_in(delay, self.origin, msg(done));
            }
        }
    }

    /// A hop's confirm failed mid-walk: release the downstream hops that
    /// already promoted their holds and refuse the call at the origin.
    /// Upstream hops (still in `back`) hold only tentative reservations;
    /// the origin's roll-back releases them, and the hand-off deadline
    /// reaps any it cannot reach.
    pub(crate) fn unwind(self, ctx: &mut Ctx<'_>, delay: SimDuration, cause: RejectCause) {
        let Connect { call, back, origin, confirmed, .. } = self;
        for hop in confirmed {
            ctx.send_in(delay, hop, msg(Release { call, path: Vec::new() }));
        }
        ctx.send_in(
            delay,
            origin,
            msg(Reject { call, at_hop: back.len() + 1, cause, visited: back }),
        );
    }
}

pub(crate) struct Reject {
    pub(crate) call: CallId,
    at_hop: usize,
    cause: RejectCause,
    /// Hops that already admitted and must roll back.
    visited: Vec<ComponentId>,
}

impl Reject {
    /// At the origin (a REJECT goes nowhere else): release every hop
    /// that admitted, and report the refusal.
    pub(crate) fn roll_back(&self, ctx: &mut Ctx<'_>) -> CallOutcome {
        for &hop in &self.visited {
            ctx.send_in(SimDuration::ZERO, hop, msg(Release { call: self.call, path: Vec::new() }));
        }
        CallOutcome::Rejected { at_hop: self.at_hop, cause: self.cause }
    }
}

pub(crate) struct Release {
    pub(crate) call: CallId,
    path: Vec<ComponentId>,
}

impl Release {
    /// At a hop: pass the RELEASE on down the path, if any is left.
    pub(crate) fn relay(mut self, ctx: &mut Ctx<'_>, delay: SimDuration) {
        if !self.path.is_empty() {
            let next = self.path.remove(0);
            ctx.send_in(delay, next, msg(self));
        }
    }
}

/// Delivered to the originator when the call completes.
pub(crate) struct CallResult(pub(crate) CallId, pub(crate) CallOutcome);

// ---- components -------------------------------------------------------

/// The signalling agent of one switch: call admission against a port
/// capacity, VC-table bookkeeping, SETUP/CONNECT/RELEASE forwarding.
#[derive(Default)]
pub struct SignallingAgent {
    /// The port's budgets and what is admitted against them. At the
    /// default peak factor `1.0` the CAC is peak-allocating (no
    /// statistical multiplexing gain).
    cac: CacState,
    /// Propagation to the next hop.
    pub hop_latency: SimDuration,
    /// Counters.
    pub calls_admitted: u64,
    /// Calls this agent refused.
    pub calls_refused: u64,
    /// Refusals because the sustained-rate budget was exhausted.
    pub refused_scr: u64,
    /// Refusals because the peak-rate budget was exhausted.
    pub refused_pcr: u64,
    /// Messages of an unknown type dropped instead of crashing the
    /// simulation (e.g. strays from a torn-down or foreign protocol).
    pub dropped_msgs: u64,
    label: String,
}

impl SignallingAgent {
    /// New agent for a port of the given capacity.
    pub fn new(label: impl Into<String>, capacity: Bandwidth, hop_latency: SimDuration) -> Self {
        SignallingAgent {
            cac: CacState::new(capacity.bps(), 1.0),
            hop_latency,
            label: label.into(),
            ..Default::default()
        }
    }

    /// Builder: allow the admitted PCR sum to reach
    /// `factor × capacity`, so bursty VBR calls share headroom.
    pub fn with_peak_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "peak factor below 1.0 would refuse calls the SCR budget fits");
        self.cac = CacState::new(self.cac.capacity_bps(), factor);
        self
    }

    /// The port's admission state.
    pub fn cac(&self) -> &CacState {
        &self.cac
    }

    /// Sustained bandwidth currently committed (the reserved mean).
    pub fn committed_bps(&self) -> f64 {
        self.cac.committed_bps()
    }

    /// Peak bandwidth currently committed.
    pub fn committed_pcr_bps(&self) -> f64 {
        self.cac.committed_pcr_bps()
    }
}

impl Component for SignallingAgent {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let delay = PROCESSING + self.hop_latency;
        if m.is::<Setup>() {
            let s = *downcast::<Setup>(m);
            // A plain hop decides on the spot: request id 0, no log.
            match self.cac.apply_cmd(0, &Command::reserve(s.call, &s.td)) {
                CmdOutcome::Rejected(cause) => {
                    self.calls_refused += 1;
                    match cause {
                        RejectCause::ScrExceeded => self.refused_scr += 1,
                        RejectCause::PcrExceeded => self.refused_pcr += 1,
                        // Only the replicated proxy refuses for want of
                        // a quorum.
                        RejectCause::NoQuorum => {}
                    }
                    s.refused(ctx, delay, cause);
                }
                _ => {
                    self.calls_admitted += 1;
                    if let Some(connect) = s.admitted(ctx, delay) {
                        connect.walk_back(ctx, delay);
                    }
                }
            }
        } else if m.is::<Connect>() {
            downcast::<Connect>(m).walk_back(ctx, delay);
        } else if m.is::<Release>() {
            let r = *downcast::<Release>(m);
            self.cac.apply_cmd(0, &Command::Release { call: r.call });
            r.relay(ctx, delay);
        } else {
            // A stray message (torn-down call, foreign protocol) must not
            // crash the switch: drop it and count it.
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// The call originator: issues SETUPs, collects outcomes.
#[derive(Default)]
pub struct CallOriginator {
    /// Completed calls.
    pub results: Vec<(CallId, CallOutcome)>,
    /// Stray messages dropped instead of crashing the simulation.
    pub dropped_msgs: u64,
}

impl Component for CallOriginator {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<CallResult>() {
            let CallResult(id, outcome) = *downcast::<CallResult>(m);
            self.results.push((id, outcome));
        } else if m.is::<Reject>() {
            let r = *downcast::<Reject>(m);
            self.results.push((r.call, r.roll_back(ctx)));
        } else {
            // As at the agent: a stray message is dropped, not fatal.
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        "call-originator"
    }
}

/// Helper: issue a SETUP for `call` along `path` at a CBR `rate`.
pub fn place_call(
    sim: &mut Simulator,
    origin: ComponentId,
    path: &[ComponentId],
    call: CallId,
    rate: Bandwidth,
    at: SimTime,
) {
    place_call_with(sim, origin, path, call, TrafficDescriptor::cbr(rate), at);
}

/// Helper: issue a SETUP carrying a full traffic descriptor.
pub fn place_call_with(
    sim: &mut Simulator,
    origin: ComponentId,
    path: &[ComponentId],
    call: CallId,
    td: TrafficDescriptor,
    at: SimTime,
) {
    let (first, setup) = Setup::first(call, td, path, origin, at);
    sim.send_at(at, first, msg(setup));
}

/// Helper: release a connected call along its path.
pub fn release_call(sim: &mut Simulator, path: &[ComponentId], call: CallId, at: SimTime) {
    assert!(!path.is_empty(), "a circuit has at least one hop");
    sim.send_at(at, path[0], msg(Release { call, path: path[1..].to_vec() }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build origin + a chain of agents (capacities in Mbit/s).
    fn chain(sim: &mut Simulator, caps_mbps: &[f64]) -> (ComponentId, Vec<ComponentId>) {
        let origin = sim.add_component(CallOriginator::default());
        let agents = caps_mbps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                sim.add_component(SignallingAgent::new(
                    format!("sw{i}"),
                    Bandwidth::from_mbps(c),
                    SimDuration::from_micros(500),
                ))
            })
            .collect();
        (origin, agents)
    }

    #[test]
    fn call_connects_and_installs_bandwidth() {
        let mut sim = Simulator::new();
        let (origin, path) = chain(&mut sim, &[622.0, 2400.0, 622.0]);
        place_call(&mut sim, origin, &path, CallId(1), Bandwidth::from_mbps(270.0), SimTime::ZERO);
        sim.run();
        let o = sim.component::<CallOriginator>(origin);
        assert_eq!(o.results.len(), 1);
        match o.results[0].1 {
            CallOutcome::Connected { setup_s } => {
                // 3 hops out + 3 back at (150 us + 500 us) each ≈ 3.9 ms.
                assert!(setup_s > 0.003 && setup_s < 0.006, "setup {setup_s}");
            }
            other => panic!("expected Connected, got {other:?}"),
        }
        for &a in &path {
            let agent = sim.component::<SignallingAgent>(a);
            assert!((agent.committed_bps() - 270e6).abs() < 1.0);
        }
    }

    #[test]
    fn admission_rejects_when_full_and_rolls_back() {
        let mut sim = Simulator::new();
        // Middle hop only fits one 270 Mbit/s call.
        let (origin, path) = chain(&mut sim, &[622.0, 300.0, 622.0]);
        place_call(&mut sim, origin, &path, CallId(1), Bandwidth::from_mbps(270.0), SimTime::ZERO);
        place_call(
            &mut sim,
            origin,
            &path,
            CallId(2),
            Bandwidth::from_mbps(270.0),
            SimTime::from_millis(20),
        );
        sim.run();
        let o = sim.component::<CallOriginator>(origin);
        assert_eq!(o.results.len(), 2);
        assert!(matches!(o.results[0].1, CallOutcome::Connected { .. }));
        assert_eq!(
            o.results[1].1,
            CallOutcome::Rejected { at_hop: 1, cause: RejectCause::ScrExceeded }
        );
        // The first hop's tentative admission of call 2 was rolled back.
        let first = sim.component::<SignallingAgent>(path[0]);
        assert!((first.committed_bps() - 270e6).abs() < 1.0, "{}", first.committed_bps());
        assert_eq!(first.calls_admitted, 2);
        let middle = sim.component::<SignallingAgent>(path[1]);
        assert_eq!(middle.calls_refused, 1);
    }

    #[test]
    fn release_frees_capacity_for_the_next_call() {
        let mut sim = Simulator::new();
        let (origin, path) = chain(&mut sim, &[300.0]);
        place_call(&mut sim, origin, &path, CallId(1), Bandwidth::from_mbps(270.0), SimTime::ZERO);
        release_call(&mut sim, &path, CallId(1), SimTime::from_millis(50));
        place_call(
            &mut sim,
            origin,
            &path,
            CallId(2),
            Bandwidth::from_mbps(270.0),
            SimTime::from_millis(100),
        );
        sim.run();
        let o = sim.component::<CallOriginator>(origin);
        assert!(matches!(o.results[0].1, CallOutcome::Connected { .. }));
        assert!(matches!(o.results[1].1, CallOutcome::Connected { .. }));
        let agent = sim.component::<SignallingAgent>(path[0]);
        assert!((agent.committed_bps() - 270e6).abs() < 1.0);
    }

    #[test]
    fn many_small_calls_fill_the_pipe_exactly() {
        let mut sim = Simulator::new();
        let (origin, path) = chain(&mut sim, &[622.0, 622.0]);
        // 4 × 155 = 620 fits; the 5th must be refused.
        for k in 0..5 {
            place_call(
                &mut sim,
                origin,
                &path,
                CallId(k),
                Bandwidth::from_mbps(155.0),
                SimTime::from_millis(10 * k),
            );
        }
        sim.run();
        let o = sim.component::<CallOriginator>(origin);
        let connected =
            o.results.iter().filter(|(_, r)| matches!(r, CallOutcome::Connected { .. })).count();
        assert_eq!(connected, 4);
        assert_eq!(o.results.len(), 5);
    }

    #[test]
    fn committed_sums_do_not_depend_on_admission_order() {
        // 64 mixed VBR contracts whose rates span eleven decades: summed
        // in two different orders they differ in the last ulp.
        let contracts: Vec<(CallId, (f64, f64))> = (0..64u64)
            .map(|k| {
                let scr = 1e3 * 1.37f64.powi((k * 29 % 64) as i32) + k as f64 / 3.0;
                (CallId(k), (scr * (1.1 + (k % 7) as f64 / 3.0), scr))
            })
            .collect();
        let agent = |order: &mut dyn Iterator<Item = &(CallId, (f64, f64))>| {
            let mut a = SignallingAgent::new("sw", Bandwidth::OC48, SimDuration::from_micros(500));
            a.cac
                .admitted
                .extend(order.map(|&(id, (pcr, scr))| (id, (pcr.to_bits(), scr.to_bits()))));
            a
        };
        let forward = agent(&mut contracts.iter());
        let backward = agent(&mut contracts.iter().rev());
        let scrs = |it: &mut dyn Iterator<Item = &(CallId, (f64, f64))>| -> f64 {
            it.map(|&(_, (_, scr))| scr).sum()
        };
        assert_ne!(
            scrs(&mut contracts.iter()).to_bits(),
            scrs(&mut contracts.iter().rev()).to_bits(),
            "the contracts must make summation order matter"
        );
        assert_eq!(forward.committed_bps().to_bits(), backward.committed_bps().to_bits());
        assert_eq!(forward.committed_pcr_bps().to_bits(), backward.committed_pcr_bps().to_bits());
    }

    #[test]
    fn cac_arithmetic_matches_hand_computed_budgets() {
        // A 622 Mbit/s link with peak factor 1.5:
        //   SCR budget = 622, PCR budget = 933 Mbit/s.
        let agent = |admitted: &[(f64, f64)]| {
            let mut a = SignallingAgent::new(
                "sw",
                Bandwidth::from_mbps(622.0),
                SimDuration::from_micros(500),
            )
            .with_peak_factor(1.5);
            for (k, &(pcr, scr)) in admitted.iter().enumerate() {
                a.cac
                    .admitted
                    .insert(CallId(k as u64), ((pcr * 1e6).to_bits(), (scr * 1e6).to_bits()));
            }
            a
        };
        let vbr =
            |pcr, scr| TrafficDescriptor::vbr(Bandwidth::from_mbps(pcr), Bandwidth::from_mbps(scr));
        // Empty link admits anything up to capacity.
        assert_eq!(agent(&[]).cac.fits(&vbr(933.0, 622.0)), Ok(()));
        // 400 + 300 > 622 sustained: SCR binds.
        assert_eq!(
            agent(&[(500.0, 400.0)]).cac.fits(&vbr(400.0, 300.0)),
            Err(RejectCause::ScrExceeded)
        );
        // Sustained fits (400 + 200 = 600 <= 622) but peaks overrun
        // (500 + 600 = 1100 > 933): PCR binds.
        assert_eq!(
            agent(&[(500.0, 400.0)]).cac.fits(&vbr(600.0, 200.0)),
            Err(RejectCause::PcrExceeded)
        );
        // Both fit exactly at the boundary: 622 - 400 = 222 sustained,
        // 933 - 500 = 433 peak.
        assert_eq!(agent(&[(500.0, 400.0)]).cac.fits(&vbr(433.0, 222.0)), Ok(()));
    }

    #[test]
    fn vbr_calls_multiplex_under_peak_factor() {
        // Three VBR calls, each PCR 300 / SCR 150 Mbit/s, on a
        // 622 Mbit/s link. Peak-allocating CAC (factor 1.0) only fits
        // two (3 × 300 = 900 > 622); factor 1.5 fits all three
        // (900 <= 933, 450 sustained <= 622).
        for (factor, want_connected, want_pcr_refusals) in
            [(1.0, 2), (1.5, 3)].map(|(f, c)| (f, c, 3 - c))
        {
            let mut sim = Simulator::new();
            let origin = sim.add_component(CallOriginator::default());
            let agent = sim.add_component(
                SignallingAgent::new(
                    "trunk",
                    Bandwidth::from_mbps(622.0),
                    SimDuration::from_micros(500),
                )
                .with_peak_factor(factor),
            );
            for k in 0..3u64 {
                place_call_with(
                    &mut sim,
                    origin,
                    &[agent],
                    CallId(k),
                    TrafficDescriptor::vbr(
                        Bandwidth::from_mbps(300.0),
                        Bandwidth::from_mbps(150.0),
                    ),
                    SimTime::from_millis(10 * k),
                );
            }
            sim.run();
            let o = sim.component::<CallOriginator>(origin);
            let connected = o
                .results
                .iter()
                .filter(|(_, r)| matches!(r, CallOutcome::Connected { .. }))
                .count();
            assert_eq!(connected, want_connected, "factor {factor}");
            let a = sim.component::<SignallingAgent>(agent);
            assert_eq!(a.refused_pcr as usize, want_pcr_refusals, "factor {factor}");
            assert_eq!(a.refused_scr, 0, "factor {factor}");
        }
    }

    #[test]
    fn setup_latency_scales_with_path_length() {
        let short = {
            let mut sim = Simulator::new();
            let (origin, path) = chain(&mut sim, &[622.0]);
            place_call(
                &mut sim,
                origin,
                &path,
                CallId(1),
                Bandwidth::from_mbps(1.0),
                SimTime::ZERO,
            );
            sim.run();
            match sim.component::<CallOriginator>(origin).results[0].1 {
                CallOutcome::Connected { setup_s } => setup_s,
                _ => panic!(),
            }
        };
        let long = {
            let mut sim = Simulator::new();
            let (origin, path) = chain(&mut sim, &[622.0; 6]);
            place_call(
                &mut sim,
                origin,
                &path,
                CallId(1),
                Bandwidth::from_mbps(1.0),
                SimTime::ZERO,
            );
            sim.run();
            match sim.component::<CallOriginator>(origin).results[0].1 {
                CallOutcome::Connected { setup_s } => setup_s,
                _ => panic!(),
            }
        };
        assert!(long > short * 3.0, "short {short} long {long}");
    }
}
