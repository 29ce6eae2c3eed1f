//! Availability suite for the quorum-replicated signalling control
//! plane: seeded leader crashes, minority/majority partitions and blip
//! storms are thrown at a 3-replica [`ReplicaGroup`], and every run
//! must uphold the replication invariants:
//!
//! 1. **Calls keep placing** — with a majority live, an agent crash or
//!    partition costs retries, not calls: ≥ 99 % of offered calls place.
//! 2. **Exactly-once admission** — no call is ever double-admitted;
//!    the committed budget equals the admitted call set exactly, across
//!    retransmissions, redirects and fail-overs.
//! 3. **Minorities refuse cleanly** — a client confined to a minority
//!    partition gets [`RejectCause::NoQuorum`], never a half-admitted
//!    call, and the group converges after the heal.
//! 4. **No divergence** — replicas that applied the same command prefix
//!    hold byte-identical CAC state ([`CacState::encode`]), including
//!    after a wiped crash caught up by snapshot.
//! 5. **Reproducibility** — one seed, one byte-identical fault report.
//!
//! The master seed is pinned for CI and overridable locally:
//!
//! ```text
//! GTW_CONTROL_SEED=12345 cargo test --test control_plane
//! ```

use gtw_desim::component::msg;
use gtw_desim::fault::{FaultPlan, Schedule, Window};
use gtw_desim::rng::StreamRng;
use gtw_desim::{Component, SimDuration, SimTime, Simulator};
use gtw_net::replica::{
    control_fault_report, leader_of, schedule_replica_outages, CacState, CallPump, Command,
    GroupConfig, PumpStart, Replica, ReplicaDown, ReplicaGroup, ReplicaUp, ReplicatedAgent,
};
use gtw_net::signaling::{CallId, CallOutcome, RejectCause, SignallingAgent, TrafficDescriptor};
use gtw_net::units::Bandwidth;
use proptest::prelude::*;

/// Master seed: pinned for CI, overridable for local fuzzing.
fn master_seed() -> u64 {
    std::env::var("GTW_CONTROL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1999)
}

fn cbr(mbps: f64) -> TrafficDescriptor {
    TrafficDescriptor::cbr(Bandwidth::from_mbps(mbps))
}

/// Build a 3-replica group plus a pump offering `count` 34 Mbit/s calls
/// every 100 ms through the proxy.
fn group_and_pump(
    sim: &mut Simulator,
    seed: u64,
    horizon: SimTime,
    capacity: Bandwidth,
    count: u64,
) -> (ReplicaGroup, gtw_desim::ComponentId) {
    let cfg = GroupConfig::new(seed, horizon);
    let group = ReplicaGroup::build(sim, "cp", 3, 0, capacity, cfg).expect("3 replicas");
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        Vec::new(),
        cbr(34.0),
        SimDuration::from_millis(100),
        count,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
    (group, pump)
}

/// Exactly-once invariant: every live replica holds the same admitted
/// set, and the committed budget is exactly `admitted × per-call rate`.
fn assert_budget_conserved(sim: &Simulator, group: &ReplicaGroup, expect_admitted: u64, mbps: f64) {
    if !group.states_converged(sim) {
        for &id in &group.replicas {
            let r = sim.component::<Replica>(id);
            eprintln!(
                "{}: alive={} role={} term={} commit={} applied={} admitted={} committed={}",
                r.name(),
                r.is_alive(),
                r.role_name(),
                r.term(),
                r.commit_index(),
                r.cac().applied_count,
                r.cac().admitted.len(),
                r.cac().committed_bps() / 1e6,
            );
        }
    }
    assert!(group.states_converged(sim), "live replicas diverged");
    for &id in &group.replicas {
        let r = sim.component::<Replica>(id);
        if !r.is_alive() {
            continue;
        }
        assert_eq!(
            r.cac().admitted.len() as u64,
            expect_admitted,
            "{}: admitted set size",
            r.name()
        );
        let want = expect_admitted as f64 * mbps * 1e6;
        let got = r.cac().committed_bps();
        assert!((got - want).abs() < 1.0, "{}: committed {got} want {want}", r.name());
    }
}

// ---- 1. leader crash mid-call ----------------------------------------

#[test]
fn leader_crash_mid_call_completes_via_new_leader_exactly_once() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(10);
    // 10 Gbit/s: all 50 calls fit, so conservation is checkable as
    // admitted == placed.
    let (group, pump) = group_and_pump(&mut sim, seed, horizon, Bandwidth::from_gbps(10.0), 50);
    // Crash whoever leads just after a call is offered (offers land at
    // k × 100 ms; 1.0001 s is mid-request for the call offered at 1 s),
    // wiped, rejoining 2 s later.
    let replicas = group.replicas.clone();
    let crash_at = SimTime::from_micros(1_000_100);
    sim.call_at(crash_at, move |sim| {
        let idx = leader_of(sim, &replicas).expect("a leader exists by 1 s");
        let id = replicas[idx];
        let now = sim.now();
        sim.send_at(now, id, msg(ReplicaDown { wipe: true }));
        sim.send_at(now + SimDuration::from_secs(2), id, msg(ReplicaUp));
    });
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.offered, 50);
    assert_eq!(p.results.len(), 50, "every offered call resolved");
    assert_eq!(p.placed(), 50, "every call placed through the fail-over");
    // Exactly-once: 50 placed calls, 50 admissions, nothing double.
    assert_budget_conserved(&sim, &group, 50, 34.0);
    let proxy = sim.component::<ReplicatedAgent>(group.proxy);
    assert!(
        proxy.retries + proxy.redirects > 0,
        "the crash forced the proxy through at least one retry/redirect"
    );
    let max_term =
        group.replicas.iter().map(|&id| sim.component::<Replica>(id).term()).max().unwrap();
    assert!(max_term >= 2, "fail-over advanced the term, got {max_term}");
    // The wiped replica rejoined and was caught up.
    let crashed = group
        .replicas
        .iter()
        .map(|&id| sim.component::<Replica>(id))
        .find(|r| r.rejoins > 0)
        .expect("the crashed replica rejoined");
    assert!(crashed.is_alive());
}

// ---- 2. minority/majority partition ----------------------------------

#[test]
fn majority_side_keeps_admitting_through_minority_partition() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(10);
    let (group, pump) = group_and_pump(&mut sim, seed, horizon, Bandwidth::from_gbps(10.0), 60);
    // Replica 2 isolated from the majority and the client over [1 s, 4 s).
    let mut plan = FaultPlan::new(seed);
    plan.partition(
        &[vec!["cp/r0".into(), "cp/r1".into(), "cp/client".into()], vec!["cp/r2".into()]],
        Schedule::new(vec![Window::new(SimTime::from_secs(1), SimTime::from_secs(4))]),
    );
    group.apply_fault_plan(&mut sim, &plan);
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.offered, 60);
    assert_eq!(p.placed(), 60, "the majority side admitted every call");
    // After the heal the minority replica caught up without
    // double-admitting anything.
    assert_budget_conserved(&sim, &group, 60, 34.0);
    let r2 = sim.component::<Replica>(group.replicas[2]);
    assert!(r2.is_alive());
    assert!(r2.msgs_dropped_partition > 0, "the partition actually suppressed minority traffic");
}

#[test]
fn client_confined_to_minority_refuses_cleanly_with_no_quorum() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(16);
    let mut cfg = GroupConfig::new(seed, horizon);
    // Deadline shorter than the partition, so minority-era calls refuse
    // during the window instead of surviving into the heal.
    cfg.request_deadline = SimDuration::from_secs(1);
    let group = ReplicaGroup::build(&mut sim, "cp", 3, 0, Bandwidth::from_gbps(10.0), cfg)
        .expect("3 replicas");
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        Vec::new(),
        cbr(34.0),
        SimDuration::from_millis(200),
        40,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
    // The client is trapped with replica 2 in the minority: it cannot
    // reach any node that can commit.
    let mut plan = FaultPlan::new(seed);
    plan.partition(
        &[vec!["cp/r0".into(), "cp/r1".into()], vec!["cp/r2".into(), "cp/client".into()]],
        Schedule::new(vec![Window::new(SimTime::from_secs(2), SimTime::from_secs(5))]),
    );
    group.apply_fault_plan(&mut sim, &plan);
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.results.len(), 40, "every offered call resolved");
    let no_quorum = p
        .results
        .iter()
        .filter(|(_, o, _)| matches!(o, CallOutcome::Rejected { cause: RejectCause::NoQuorum, .. }))
        .count() as u64;
    assert!(no_quorum > 0, "minority-era calls refused with NoQuorum");
    let placed = p.placed();
    assert_eq!(placed + no_quorum, 40, "every call either placed or refused cleanly with NoQuorum");
    let proxy = sim.component::<ReplicatedAgent>(group.proxy);
    assert_eq!(proxy.refused_no_quorum, no_quorum);
    // Exactly-once across the heal: the committed budget counts only
    // the placed calls — no half-admitted minority leftovers. (Deadline
    // rollbacks for calls whose Reserve committed without the ack
    // reaching the client keep this exact.)
    assert_budget_conserved(&sim, &group, placed, 34.0);
}

// ---- 3. blip storm ----------------------------------------------------

#[test]
fn blip_storm_advances_terms_without_state_divergence() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(14);
    let (group, pump) = group_and_pump(&mut sim, seed, horizon, Bandwidth::from_gbps(10.0), 80);
    // 8 × 300 ms total blackouts of replica 0 (the first leader) every
    // 1.2 s: each blip outlives the election timeout, so terms advance.
    let mut plan = FaultPlan::new(seed);
    plan.partition(
        &[vec!["cp/r0".into()], vec!["cp/r1".into(), "cp/r2".into(), "cp/client".into()]],
        Schedule::blips(SimDuration::from_millis(1200), SimDuration::from_millis(300), 8),
    );
    group.apply_fault_plan(&mut sim, &plan);
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.offered, 80);
    let placed = p.placed();
    assert!(placed as f64 / 80.0 >= 0.99, "availability {placed}/80 under the blip storm");
    let max_term =
        group.replicas.iter().map(|&id| sim.component::<Replica>(id).term()).max().unwrap();
    assert!(max_term >= 2, "repeated blips advanced the term, got {max_term}");
    assert_budget_conserved(&sim, &group, placed, 34.0);
}

// ---- downstream interop ------------------------------------------------

#[test]
fn downstream_reject_rolls_back_the_replicated_budget() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(6);
    let cfg = GroupConfig::new(seed, horizon);
    let group = ReplicaGroup::build(&mut sim, "cp", 3, 0, Bandwidth::from_gbps(10.0), cfg)
        .expect("3 replicas");
    // Downstream plain agent only fits one 270 Mbit/s call.
    let downstream = sim.add_component(SignallingAgent::new(
        "sw-down",
        Bandwidth::from_mbps(300.0),
        SimDuration::from_micros(500),
    ));
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        vec![downstream],
        cbr(270.0),
        SimDuration::from_millis(100),
        3,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.results.len(), 3);
    assert_eq!(p.placed(), 1, "the downstream port fits exactly one call");
    let rejected = p
        .results
        .iter()
        .filter(|(_, o, _)| {
            matches!(o, CallOutcome::Rejected { at_hop: 1, cause: RejectCause::ScrExceeded })
        })
        .count();
    assert_eq!(rejected, 2, "refusals happened downstream, not at the replicated hop");
    // The proxy admitted all three tentatively, then rolled two back in
    // the replicated log.
    assert_budget_conserved(&sim, &group, 1, 270.0);
}

// ---- 4. replica-divergence proptest -----------------------------------

proptest! {
    /// Any command sequence — including retransmitted requests — applied
    /// in the same order to two fresh states yields byte-identical
    /// encodings, and dedup makes retransmissions idempotent.
    #[test]
    fn same_command_log_yields_byte_identical_state(
        seed in 0u64..1_000_000,
        ops in 1usize..60,
    ) {
        let mut rng = StreamRng::new(seed, "control-plane/divergence");
        let mut cmds: Vec<(u64, Command)> = Vec::new();
        for k in 0..ops {
            let req = k as u64 + 1;
            let cmd = match rng.below(4) {
                0 => Command::Reserve {
                    call: CallId(rng.below(12)),
                    pcr_bits: (rng.uniform_in(1.0, 400.0) * 1e6).to_bits(),
                    scr_bits: (rng.uniform_in(1.0, 200.0) * 1e6).to_bits(),
                },
                1 => Command::Release { call: CallId(rng.below(12)) },
                2 => Command::Rollback { call: CallId(rng.below(12)) },
                _ => Command::GatewayEpoch { epoch: rng.below(9) },
            };
            cmds.push((req, cmd));
            // Sometimes retransmit an earlier request verbatim.
            if rng.uniform() < 0.3 && !cmds.is_empty() {
                let dup = cmds[rng.below(cmds.len() as u64) as usize];
                cmds.push(dup);
            }
        }
        let mut a = CacState::new(622e6, 1.5);
        let mut b = CacState::new(622e6, 1.5);
        for &(req, ref cmd) in &cmds {
            let oa = a.apply_cmd(req, cmd);
            let ob = b.apply_cmd(req, cmd);
            prop_assert_eq!(oa, ob);
        }
        prop_assert_eq!(a.encode(), b.encode());
        // Round-trip through the snapshot wire format is lossless.
        let bytes = a.encode();
        let decoded = CacState::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&a));
        // Replaying the full log onto the decoded snapshot is a no-op:
        // every request is deduplicated.
        let mut c = CacState::decode(&bytes).unwrap();
        for &(req, ref cmd) in &cmds {
            c.apply_cmd(req, cmd);
        }
        prop_assert_eq!(c.encode(), a.encode());
    }
}

// ---- 5. reproducibility ------------------------------------------------

#[test]
fn canonical_fault_report_is_reproducible_and_highly_available() {
    let seed = master_seed();
    let a = control_fault_report(seed);
    let b = control_fault_report(seed);
    assert_eq!(a.dump(), b.dump(), "same seed, byte-identical fault report");
    let offered = a.get("offered").and_then(gtw_desim::Json::as_i128).unwrap();
    let placed = a.get("placed").and_then(gtw_desim::Json::as_i128).unwrap();
    assert_eq!(offered, 200);
    let avail = placed as f64 / offered as f64;
    assert!(avail >= 0.99, "availability {avail} under the canonical fault mix");
    assert_eq!(a.get("states_converged"), Some(&gtw_desim::Json::Bool(true)));
    // A different seed moves the crash instant but the invariants hold.
    let c = control_fault_report(seed.wrapping_add(1));
    assert_ne!(a.dump(), c.dump(), "the seed actually steers the scenario");
    let placed_c = c.get("placed").and_then(gtw_desim::Json::as_i128).unwrap();
    assert!(placed_c as f64 / 200.0 >= 0.99);
}

// ---- snapshot rejoin ---------------------------------------------------

#[test]
fn compacted_leader_catches_up_wiped_rejoiner_by_snapshot() {
    let seed = master_seed();
    let mut sim = Simulator::new();
    let horizon = SimTime::from_secs(14);
    let mut cfg = GroupConfig::new(seed, horizon);
    cfg.snapshot_threshold = 8; // compact aggressively
    let group = ReplicaGroup::build(&mut sim, "cp", 3, 0, Bandwidth::from_gbps(10.0), cfg)
        .expect("3 replicas");
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        Vec::new(),
        cbr(34.0),
        SimDuration::from_millis(100),
        100,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
    // Replica 1 loses everything at 500 ms and only rejoins at 9 s —
    // long after the survivors compacted the log past its position.
    schedule_replica_outages(
        &mut sim,
        &group,
        1,
        &Schedule::new(vec![Window::new(SimTime::from_millis(500), SimTime::from_secs(9))]),
        true,
    );
    sim.run();

    let p = sim.component::<CallPump>(pump);
    assert_eq!(p.placed(), 100, "two live replicas carried the load");
    let rejoined = sim.component::<Replica>(group.replicas[1]);
    assert!(rejoined.is_alive());
    assert!(rejoined.snapshots_installed >= 1, "catch-up went through a snapshot");
    assert_budget_conserved(&sim, &group, 100, 34.0);
    // Byte-identity of the rejoined state against both survivors.
    let digests: Vec<Vec<u8>> =
        group.replicas.iter().map(|&id| sim.component::<Replica>(id).digest()).collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[1], digests[2]);
}
