//! Load and canned scenarios: the [`CallPump`] originator and the two
//! seeded fault reports every harness shares ([`control_fault_report`],
//! [`multi_domain_fault_report`], the whole of the benchmark's
//! `control_storm` workload).

use gtw_desim::component::{downcast, msg};
use gtw_desim::fault::{FaultPlan, Schedule, Window};
use gtw_desim::{
    Component, ComponentId, Ctx, Json, Msg, SimDuration, SimTime, Simulator, StreamRng,
};

use super::agent::{AddMember, RemoveMember, ReplicatedAgent};
use super::group::{leader_of, ReplicaGroup};
use super::raft::{GroupConfig, Replica, ReplicaDown, ReplicaUp};
use crate::gateway::{
    schedule_gateway_outages, Gateway, GatewayPair, GatewaySink, GwPacket, StartProbes,
};
use crate::signaling::{CallId, CallOutcome, CallResult, Reject, Setup, TrafficDescriptor};
use crate::units::Bandwidth;

/// Tells a [`CallPump`] to offer its next call: sent once from outside
/// to start it, then by the pump to itself every interval.
pub struct PumpStart;

/// Offers a steady stream of calls along a fixed path and records each
/// outcome with its completion time — the offered-vs-placed load
/// generator of the control-plane availability scenarios.
pub struct CallPump {
    /// The signalling hops, in order (e.g. one proxy per domain).
    pub path: Vec<ComponentId>,
    /// Traffic contract of every offered call.
    pub td: TrafficDescriptor,
    /// Inter-call interval.
    pub interval: SimDuration,
    /// Total calls to offer.
    pub count: u64,
    /// Calls offered so far.
    pub offered: u64,
    /// Completed calls with their completion instants.
    pub results: Vec<(CallId, CallOutcome, SimTime)>,
    /// Stray messages dropped.
    pub dropped_msgs: u64,
    base_call: u64,
}

impl CallPump {
    /// Pump `count` calls of contract `td` every `interval` along
    /// `first_hop` + `rest`, with call ids starting at `base_call`.
    pub fn new(
        first_hop: ComponentId,
        rest: Vec<ComponentId>,
        td: TrafficDescriptor,
        interval: SimDuration,
        count: u64,
        base_call: u64,
    ) -> Self {
        CallPump {
            path: std::iter::once(first_hop).chain(rest).collect(),
            td,
            interval,
            count,
            offered: 0,
            results: Vec::new(),
            dropped_msgs: 0,
            base_call,
        }
    }

    /// `(setup_s, completion instant)` of every call that connected.
    fn connected(&self) -> impl Iterator<Item = (f64, SimTime)> + '_ {
        self.results.iter().filter_map(|&(_, o, at)| match o {
            CallOutcome::Connected { setup_s } => Some((setup_s, at)),
            CallOutcome::Rejected { .. } => None,
        })
    }

    /// Completed calls that connected.
    pub fn placed(&self) -> u64 {
        self.connected().count() as u64
    }

    /// The `seed`/`offered`/`placed`/`refused`/`availability` head both
    /// canned reports open with.
    fn tally(&self, seed: u64) -> [(&'static str, Json); 5] {
        let (offered, placed) = (self.offered, self.placed());
        let availability = if offered == 0 { 1.0 } else { placed as f64 / offered as f64 };
        [
            ("seed", Json::from(seed)),
            ("offered", Json::from(offered)),
            ("placed", Json::from(placed)),
            ("refused", Json::from(self.results.len() as u64 - placed)),
            ("availability", Json::from(availability)),
        ]
    }

    fn offer(&mut self, ctx: &mut Ctx<'_>) {
        if self.offered >= self.count {
            return;
        }
        let call = CallId(self.base_call + self.offered);
        self.offered += 1;
        let (first, setup) = Setup::first(call, self.td, &self.path, ctx.self_id(), ctx.now());
        ctx.send_in(SimDuration::ZERO, first, msg(setup));
        if self.offered < self.count {
            ctx.timer_in(self.interval, msg(PumpStart));
        }
    }
}

impl Component for CallPump {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<PumpStart>() {
            self.offer(ctx);
        } else if m.is::<CallResult>() {
            let CallResult(id, outcome) = *downcast::<CallResult>(m);
            self.results.push((id, outcome, ctx.now()));
        } else if m.is::<Reject>() {
            let r = *downcast::<Reject>(m);
            self.results.push((r.call, r.roll_back(ctx), ctx.now()));
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        "call-pump"
    }
}

// ---- canonical fault scenario -----------------------------------------

/// The leader crash both canned scenarios open with: whoever leads
/// `replicas` at an instant drawn from `stream` in `[2 s, 5 s)` goes
/// down hard (state wiped) and rejoins two seconds later via snapshot.
/// Returns the outage window.
fn crash_leader_at(
    sim: &mut Simulator,
    seed: u64,
    stream: &str,
    replicas: &[ComponentId],
) -> Window {
    let crash_at = SimTime::from_secs_f64(StreamRng::new(seed, stream).uniform_in(2.0, 5.0));
    let rejoin_at = crash_at + SimDuration::from_secs(2);
    let replicas = replicas.to_vec();
    sim.call_at(crash_at, move |sim| {
        let id = replicas[leader_of(sim, &replicas).unwrap_or(0)];
        let now = sim.now();
        sim.send_at(now, id, msg(ReplicaDown { wipe: true }));
        sim.send_at(rejoin_at, id, msg(ReplicaUp));
    });
    Window::new(crash_at, rejoin_at)
}

/// The canonical partitioned-control-plane scenario shared by
/// `run_report --control-faults`, the `control_plane` trajectory bench,
/// and the availability tests: a 3-replica group fronting a 10 Gbit/s
/// port, 200 CBR calls offered at 10 calls/s, with (a) a wiped leader
/// crash at a seeded instant in `[2 s, 5 s)` rejoining 2 s later,
/// (b) a minority partition isolating replica 2 over `[10 s, 12 s)`,
/// and (c) a 10-blip storm on the `r1 <-> r2` control link. Fully
/// deterministic in `seed`.
pub fn control_fault_report(seed: u64) -> Json {
    let horizon = SimTime::from_secs(30);
    let mut sim = Simulator::new();
    let cfg = GroupConfig::new(seed, horizon);
    let group = ReplicaGroup::build(&mut sim, "cp", 3, 0, Bandwidth::from_gbps(10.0), cfg)
        .expect("a group of 3 is odd and tolerates one failure");
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        Vec::new(),
        TrafficDescriptor::cbr(Bandwidth::from_mbps(34.0)),
        SimDuration::from_millis(100),
        200,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));

    // (a) Leader crash.
    let crash_w = crash_leader_at(&mut sim, seed, "control-faults/crash", &group.replicas);

    // (b) Minority partition: replica 2 cut off from the majority and
    // the client between 10 s and 12 s. (c) Blip storm on the r1 <-> r2
    // control link: 10 x 50 ms blips every 1.5 s.
    let mut plan = FaultPlan::new(seed);
    let partition_w = Window::new(SimTime::from_secs(10), SimTime::from_secs(12));
    plan.partition(
        &[vec!["cp/r0".into(), "cp/r1".into(), "cp/client".into()], vec!["cp/r2".into()]],
        Schedule::new(vec![partition_w]),
    );
    plan.partition(
        &[vec!["cp/r1".into()], vec!["cp/r2".into()]],
        Schedule::blips(SimDuration::from_millis(1500), SimDuration::from_millis(50), 10),
    );
    group.apply_fault_plan(&mut sim, &plan);

    sim.run();

    let p = sim.component::<CallPump>(pump);
    let placed_during_faults =
        p.connected().filter(|&(_, at)| crash_w.contains(at) || partition_w.contains(at)).count();
    let max_place_latency_s = p.connected().map(|(setup_s, _)| setup_s).fold(0.0f64, f64::max);

    let replicas = || group.replicas.iter().map(|&id| sim.component::<Replica>(id));
    let max_term = replicas().map(Replica::term).max();
    let elections: u64 = replicas().map(|r| r.elections_started).sum();
    let snapshots_installed: u64 = replicas().map(|r| r.snapshots_installed).sum();
    let leader = group.leader(&sim).map(|i| i as i64).unwrap_or(-1);
    let committed_mbps = sim.component::<Replica>(group.replicas[0]).cac().committed_bps() / 1e6;
    let proxy = sim.component::<ReplicatedAgent>(group.proxy);

    Json::obj(p.tally(seed).into_iter().chain([
        ("placed_during_faults", Json::from(placed_during_faults)),
        ("max_place_latency_s", Json::from(max_place_latency_s)),
        ("crash_at_s", Json::from(crash_w.start.as_secs_f64())),
        ("leader", Json::from(leader)),
        ("max_term", Json::from(max_term.unwrap_or(0))),
        ("elections", Json::from(elections)),
        ("snapshots_installed", Json::from(snapshots_installed)),
        ("redirects", Json::from(proxy.redirects)),
        ("retries", Json::from(proxy.retries)),
        ("states_converged", Json::from(group.states_converged(&sim))),
        ("committed_mbps", Json::from(committed_mbps)),
    ]))
}

/// The three domains, pump, gateway pair, and fault plan of the
/// multi-domain hand-off scenario — shared by
/// [`multi_domain_fault_report`] and the `tests/multi_domain.rs` suite.
///
/// Topology: calls originate in `fzj` (3 voters + 1 spare observer),
/// hand off to `gmd` (3) and then `uni` (3), each admission committed
/// through that domain's own log with the two-phase `Prepare`/`Confirm`
/// protocol. A warm-standby gateway pair owned by `gmd` forwards a
/// datagram stream, with every fail-over epoch committed through
/// `gmd`'s log.
pub struct MultiDomain {
    /// Origin domain (with one spare), then the two hand-off domains.
    pub groups: Vec<ReplicaGroup>,
    /// The call generator.
    pub pump: ComponentId,
    /// The replicated-epoch gateway pair.
    pub pair: ComponentId,
    /// Its delivery sink.
    pub sink: ComponentId,
}

impl MultiDomain {
    /// Build the scenario on `sim` with `horizon` as the active window.
    /// Fault plans are left to the caller.
    pub fn build(sim: &mut Simulator, seed: u64, horizon: SimTime) -> Self {
        // Three voters per domain — a literal 3, so `build` cannot
        // refuse the size — and one spare observer in the origin domain.
        let mut domain = |label: &str, k: u64, spares: usize| {
            let cfg = GroupConfig::new(seed ^ (k * 0x9e37_79b9), horizon);
            let g = ReplicaGroup::build(sim, label, 3, spares, Bandwidth::from_gbps(10.0), cfg)
                .expect("a group of 3 is odd and tolerates one failure");
            g.set_two_phase(sim, true);
            g
        };
        let (fzj, gmd, uni) = (domain("fzj", 1, 1), domain("gmd", 2, 0), domain("uni", 3, 0));
        let pump = sim.add_component(CallPump::new(
            fzj.proxy,
            vec![gmd.proxy, uni.proxy],
            TrafficDescriptor::cbr(Bandwidth::from_mbps(34.0)),
            SimDuration::from_millis(100),
            200,
            1,
        ));
        sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
        let sink = sim.add_component(GatewaySink::default());
        let pair = sim.add_component(
            GatewayPair::new(Gateway::sgi_o200_to_atm(), Gateway::sun_ultra30_to_atm(), sink)
                .with_probes(SimDuration::from_millis(1), 3)
                .with_replicated_epochs(gmd.proxy),
        );
        sim.send_at(SimTime::ZERO, pair, msg(StartProbes));
        for seq in 0..300u64 {
            sim.send_at(SimTime::from_millis(50 * seq), pair, msg(GwPacket { seq, bytes: 8192 }));
        }
        MultiDomain { groups: vec![fzj, gmd, uni], pump, pair, sink }
    }

    fn replicas<'a>(&'a self, sim: &'a Simulator) -> impl Iterator<Item = &'a Replica> + 'a {
        self.groups.iter().flat_map(|g| &g.replicas).map(|&id| sim.component::<Replica>(id))
    }

    /// Sum a per-replica counter over every replica of every group.
    pub fn replica_sum(&self, sim: &Simulator, f: impl Fn(&Replica) -> u64) -> u64 {
        self.replicas(sim).map(f).sum()
    }

    /// True when every group's live replicas agree byte-for-byte.
    pub fn all_converged(&self, sim: &Simulator) -> bool {
        self.groups.iter().all(|g| g.states_converged(sim))
    }

    /// True when no domain still holds a tentative `Prepare` and every
    /// live replica of every domain has the same committed budget —
    /// the cross-domain conservation witness: a call is either admitted
    /// in *all* domains or in none.
    pub fn budgets_conserved(&self, sim: &Simulator) -> bool {
        let live = || self.replicas(sim).filter(|r| r.is_alive());
        let mut budgets = live().map(|r| r.cac().committed_bps().to_bits());
        let first = budgets.next();
        live().all(|r| r.cac().pending.is_empty()) && budgets.all(|b| Some(b) == first)
    }
}

/// Deterministic seeded multi-domain fault scenario: leader crash in
/// the origin domain, minority partition in the middle domain, link
/// blips in the destination domain, a double gateway fail-over with
/// log-committed epochs, and a live membership change (spare in,
/// founder out) — all while the pump keeps placing cross-domain calls.
pub fn multi_domain_fault_report(seed: u64) -> Json {
    let horizon = SimTime::from_secs(30);
    let mut sim = Simulator::new();
    let md = MultiDomain::build(&mut sim, seed, horizon);
    let (fzj, gmd, uni) = (&md.groups[0], &md.groups[1], &md.groups[2]);

    // (a) Origin-domain leader crash.
    let crash_w = crash_leader_at(&mut sim, seed, "multi-domain/crash", &fzj.replicas);

    // (b) Middle-domain minority partition 10 s - 12 s; (c) blip storm
    // on the destination domain's r1 <-> r2 control link.
    let mut plan = FaultPlan::new(seed);
    plan.isolate(
        "gmd/r2",
        &["gmd/r0".into(), "gmd/r1".into(), "gmd/r2".into(), "gmd/client".into()],
        Schedule::new(vec![Window::new(SimTime::from_secs(10), SimTime::from_secs(12))]),
    );
    plan.partition(
        &[vec!["uni/r1".into()], vec!["uni/r2".into()]],
        Schedule::blips(SimDuration::from_millis(1500), SimDuration::from_millis(50), 10),
    );
    gmd.apply_fault_plan(&mut sim, &plan);
    uni.apply_fault_plan(&mut sim, &plan);

    // (d) Double gateway fail-over: the primary dies at 6 s and
    // recovers at 8.5 s; the standby dies at 9 s, forcing a second
    // committed epoch bump back to the primary.
    for (unit, down, up) in [(0, 6.0, 8.5), (1, 9.0, 11.0)] {
        let outage = Window::new(SimTime::from_secs_f64(down), SimTime::from_secs_f64(up));
        schedule_gateway_outages(&mut sim, md.pair, unit, &Schedule::new(vec![outage]));
    }

    // (e) Live reconfiguration in the origin domain: the spare is
    // wiped at 1 s and rejoins at 14 s — by then the leader has
    // compacted past its empty log, so catch-up must go through the
    // snapshot path — then joins the voter set at 15 s; founder r0
    // retires at 18 s.
    sim.send_at(SimTime::from_secs(1), fzj.replicas[3], msg(ReplicaDown { wipe: true }));
    sim.send_at(SimTime::from_secs(14), fzj.replicas[3], msg(ReplicaUp));
    sim.send_at(SimTime::from_secs(15), fzj.proxy, msg(AddMember(3)));
    sim.send_at(SimTime::from_secs(18), fzj.proxy, msg(RemoveMember(0)));

    sim.run();

    let p = sim.component::<CallPump>(md.pump);
    let proxy_sum = |f: fn(&ReplicatedAgent) -> u64| -> u64 {
        md.groups.iter().map(|g| f(sim.component::<ReplicatedAgent>(g.proxy))).sum()
    };
    let handoff_expiries = md.replica_sum(&sim, |r| r.handoff_expiries);
    let spare_snapshots = sim.component::<Replica>(fzj.replicas[3]).snapshots_installed;
    let max_dedup_table = md.replicas(&sim).map(|r| r.cac().dedup_entries()).max().unwrap_or(0);
    let members_fzj: Vec<Json> = sim
        .component::<Replica>(fzj.replicas[1])
        .cac()
        .members()
        .iter()
        .map(|&i| Json::from(u64::from(i)))
        .collect();
    let gp = sim.component::<GatewayPair>(md.pair);
    let sink = sim.component::<GatewaySink>(md.sink);
    let gmd_proxy = sim.component::<ReplicatedAgent>(gmd.proxy);
    let committed_epoch = sim.component::<Replica>(gmd.replicas[0]).cac().gateway_epoch;
    let committed_mbps = sim.component::<Replica>(uni.replicas[0]).cac().committed_bps() / 1e6;

    Json::obj(p.tally(seed).into_iter().chain([
        ("crash_at_s", Json::from(crash_w.start.as_secs_f64())),
        ("handoffs_confirmed", Json::from(proxy_sum(|a| a.handoffs_confirmed))),
        ("handoffs_aborted", Json::from(proxy_sum(|a| a.handoffs_aborted))),
        ("handoff_expiries", Json::from(handoff_expiries)),
        ("dedup_acks", Json::from(proxy_sum(|a| a.dedup_acks_sent))),
        ("max_dedup_table", Json::from(max_dedup_table)),
        ("spare_snapshots", Json::from(spare_snapshots)),
        ("members_fzj", Json::Arr(members_fzj)),
        ("gateway_epoch", Json::from(gp.epoch())),
        ("gateway_committed_epoch", Json::from(committed_epoch)),
        ("gateway_failovers", Json::from(gp.failovers)),
        ("epoch_requests", Json::from(gp.epoch_requests)),
        ("epoch_grants", Json::from(gmd_proxy.epoch_grants)),
        ("epoch_refusals", Json::from(gmd_proxy.epoch_refusals)),
        ("forwarded", Json::from(gp.forwarded)),
        ("inflight_lost", Json::from(gp.inflight_lost)),
        ("delivered", Json::from(sink.delivered.len())),
        ("budgets_conserved", Json::from(md.budgets_conserved(&sim))),
        ("states_converged", Json::from(md.all_converged(&sim))),
        ("committed_mbps", Json::from(committed_mbps)),
    ]))
}
