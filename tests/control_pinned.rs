//! The control plane, pinned: FNV-1a digests of the two canned fault
//! reports (`control_fault_report`, `multi_domain_fault_report`) at
//! eight seeds, and of one plain-agent scenario — per-call outcomes
//! with their `setup_s` bits and every hop's committed budgets. The
//! constants were captured on the commit before `replica.rs` became a
//! directory and `SignallingAgent` began admitting through `CacState`,
//! so "every report byte and every virtual-time latency stays where it
//! is" is checked against that commit, not only run against run.
//!
//! The replica core is pinned on its own too: per-replica counters,
//! terms, commit indices and applied-state bytes over 32 seeded fault
//! schedules, captured on the commit before a replica kept one election
//! timer in flight and encoded its snapshot once per applied state.

use gtw_desim::component::msg;
use gtw_desim::fault::{FaultPlan, Schedule, Window};
use gtw_desim::rng::StreamRng;
use gtw_desim::{Observer, SimDuration, SimTime, Simulator};
use gtw_net::replica::{
    control_fault_report, multi_domain_fault_report, schedule_replica_outages, AddMember, CallPump,
    GroupConfig, PumpStart, RemoveMember, Replica, ReplicaGroup,
};
use gtw_net::signaling::{
    place_call_with, release_call, CallId, CallOriginator, CallOutcome, RejectCause,
    SignallingAgent, TrafficDescriptor,
};
use gtw_net::units::Bandwidth;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The two CI seeds plus six drawn from a named stream.
fn seeds() -> Vec<u64> {
    let mut rng = StreamRng::new(24, "control-pinned");
    [1999, 2026].into_iter().chain((0..6).map(|_| rng.below(1_000_000))).collect()
}

/// `(seed, control_fault_report digest, multi_domain_fault_report digest)`.
const PINNED_REPORTS: [(u64, u64, u64); 8] = [
    (1999, 0x7bf7_c66d_2620_e570, 0x319a_523e_37b7_44b9),
    (2026, 0x1d69_d997_ef9d_0e91, 0x7d9b_cbab_0926_b0fc),
    (698_350, 0xb121_833c_70b1_e7b8, 0xe385_d8f3_bda5_a97a),
    (829_880, 0x9f36_2498_1da8_4684, 0xe440_db53_1154_6d62),
    (242_844, 0xa6c0_1321_d7e8_c3fc, 0x4574_0d91_b45e_c128),
    (584_524, 0xa864_ced0_ddfa_202b, 0xff12_f623_2b1a_e6c1),
    (301_103, 0x2977_7178_f853_0953, 0x9a4b_13c7_1add_2d62),
    (419_672, 0x29a3_86eb_c2db_3fe9, 0x1c1a_b1bb_88a9_3254),
];

/// Uniform trunks (the `overload` scenario), then trunks whose budgets
/// bind at different hops and for different causes, at seeds 1999-2001.
const PINNED_PLAIN: [[u64; 3]; 2] = [
    [0xab88_514a_1d64_724a, 0x2ac4_d387_d248_33c8, 0xecbc_13fc_eba6_44af],
    [0xe396_b970_838f_2a0d, 0x5e18_0428_d747_85ef, 0xa818_971c_0245_3843],
];

/// `(capacity Mbit/s, peak factor)` per hop.
const TRUNKS: [[(f64, f64); 3]; 2] =
    [[(622.0, 1.3); 3], [(622.0, 1.3), (480.0, 1.6), (540.0, 1.1)]];

#[test]
fn canned_fault_reports_are_pinned_at_eight_seeds() {
    let got: Vec<(u64, u64, u64)> = seeds()
        .into_iter()
        .map(|seed| {
            (
                seed,
                fnv(FNV_OFFSET, control_fault_report(seed).dump().bytes()),
                fnv(FNV_OFFSET, multi_domain_fault_report(seed).dump().bytes()),
            )
        })
        .collect();
    assert_eq!(got, PINNED_REPORTS, "got {got:#x?}");
}

/// The three-hop VBR scenario of `overload::cac_never_overcommits_
/// under_seeded_call_fuzz` (20 seeded contracts that oversubscribe the
/// trunks' peak budget) over the given `trunks`, then a RELEASE
/// of every third call and five more SETUPs into the freed budget.
/// Digest: each outcome in completion order — `setup_s` bit for bit, or
/// the refusing hop and cause — then each hop's committed SCR and PCR
/// sums and its admit/refuse counters.
fn plain_agent_digest(seed: u64, trunks: &[(f64, f64)]) -> u64 {
    let mut rng = StreamRng::new(seed, "overload/cac");
    let mut sim = Simulator::new();
    let origin = sim.add_component(CallOriginator::default());
    let path: Vec<_> = trunks
        .iter()
        .enumerate()
        .map(|(k, &(mbps, peak_factor))| {
            sim.add_component(
                SignallingAgent::new(
                    format!("sw{k}"),
                    Bandwidth::from_mbps(mbps),
                    SimDuration::from_micros(500),
                )
                .with_peak_factor(peak_factor),
            )
        })
        .collect();
    let mut contract = || {
        let pcr = rng.uniform_in(50.0, 200.0);
        let scr = pcr * rng.uniform_in(0.3, 1.0);
        TrafficDescriptor::vbr(Bandwidth::from_mbps(pcr), Bandwidth::from_mbps(scr))
    };
    for k in 0..20u64 {
        place_call_with(
            &mut sim,
            origin,
            &path,
            CallId(k),
            contract(),
            SimTime::from_millis(10 * k),
        );
    }
    for k in (0..20u64).step_by(3) {
        release_call(&mut sim, &path, CallId(k), SimTime::from_millis(300 + k));
    }
    for k in 20..25u64 {
        place_call_with(
            &mut sim,
            origin,
            &path,
            CallId(k),
            contract(),
            SimTime::from_millis(20 * k),
        );
    }
    sim.run();

    let o = sim.component::<CallOriginator>(origin);
    assert_eq!(o.results.len(), 25, "seed {seed}: every call resolved");
    let mut h = FNV_OFFSET;
    for &(CallId(id), outcome) in &o.results {
        h = fnv(h, id.to_le_bytes());
        h = fnv_outcome(h, outcome);
    }
    for &hop in &path {
        let a = sim.component::<SignallingAgent>(hop);
        for word in [
            a.committed_bps().to_bits(),
            a.committed_pcr_bps().to_bits(),
            a.calls_admitted,
            a.calls_refused,
            a.refused_scr,
            a.refused_pcr,
        ] {
            h = fnv(h, word.to_le_bytes());
        }
    }
    h
}

/// `setup_s` bit for bit, or the refusing hop and cause.
fn fnv_outcome(h: u64, outcome: CallOutcome) -> u64 {
    match outcome {
        CallOutcome::Connected { setup_s } => fnv(h, setup_s.to_bits().to_le_bytes()),
        CallOutcome::Rejected { at_hop, cause } => {
            let cause = match cause {
                RejectCause::ScrExceeded => 1u8,
                RejectCause::PcrExceeded => 2,
                RejectCause::NoQuorum => 3,
            };
            fnv(h, [0xff, at_hop as u8, cause])
        }
    }
}

#[test]
fn plain_agent_call_fuzz_is_pinned() {
    let got = TRUNKS.map(|trunks| [1999u64, 2000, 2001].map(|s| plain_agent_digest(s, &trunks)));
    assert_eq!(got, PINNED_PLAIN, "got {got:#x?}");
}

/// FNV-1a over the 32 schedule digests of [`schedule_digest`], seeds
/// `0..32`.
const PINNED_SCHEDULES: u64 = 0x8c2d_4c07_4ee9_8281;

/// A window starting in `[0.5 s, 6 s)` and lasting `[0.2 s, 1.5 s)`.
fn fault_window(rng: &mut StreamRng) -> Window {
    let start = rng.uniform_in(0.5, 6.0);
    let end = start + rng.uniform_in(0.2, 1.5);
    Window::new(SimTime::from_secs_f64(start), SimTime::from_secs_f64(end))
}

/// One seeded fault schedule over a replica group built from public
/// API: 3 or 5 voters and up to two spares guarding 622 Mbit/s, a low
/// compaction threshold so snapshots ship, 40 calls of 20 Mbit/s (some
/// refused on the budget), either an isolated voter or a voter cut off
/// together with the proxy, a blip storm on one voter-to-voter link,
/// two outages (hung or wiped) of any replica, and — with a spare — the
/// spare voted in at 3 s and a voter retired at 5 s.
///
/// Digest: each call's outcome and completion instant, then per replica
/// its term, commit index, applied-state bytes and every public counter
/// except `dropped_while_down`, which counts the timers that happen to
/// fire while a replica is down and so falls when fewer stale timers are
/// in flight, without any message or decision changing.
fn schedule_digest(seed: u64) -> u64 {
    let mut rng = StreamRng::new(seed, "control-pinned/schedule");
    let n = [3, 5][rng.below(2) as usize];
    let spares = rng.below(3) as usize;
    let mut cfg = GroupConfig::new(seed, SimTime::from_secs(8));
    cfg.snapshot_threshold = 4 + rng.below(12) as usize;
    let mut sim = Simulator::new();
    let group = ReplicaGroup::build(&mut sim, "s", n, spares, Bandwidth::from_mbps(622.0), cfg)
        .expect("3 or 5 voters");
    group.set_two_phase(&mut sim, rng.below(2) == 1);
    let pump = sim.add_component(CallPump::new(
        group.proxy,
        Vec::new(),
        TrafficDescriptor::cbr(Bandwidth::from_mbps(20.0)),
        SimDuration::from_millis(150),
        40,
        1,
    ));
    sim.send_at(SimTime::ZERO, pump, msg(PumpStart));

    let label = |i: usize| format!("s/r{i}");
    let victim = label(rng.below(n as u64) as usize);
    let mut plan = FaultPlan::new(seed);
    let cut = Schedule::new(vec![fault_window(&mut rng)]);
    if rng.below(2) == 0 {
        let others: Vec<String> =
            (0..n + spares).map(label).chain(["s/client".to_string()]).collect();
        plan.isolate(&victim, &others, cut);
    } else {
        let rest: Vec<String> = (0..n + spares).map(label).filter(|l| *l != victim).collect();
        plan.partition(&[rest, vec![victim, "s/client".to_string()]], cut);
    }
    let a = rng.below(n as u64) as usize;
    let b = (a + 1 + rng.below(n as u64 - 1) as usize) % n;
    let blips = Schedule::blips(
        SimDuration::from_millis(300 + rng.below(700)),
        SimDuration::from_millis(20 + rng.below(80)),
        2 + rng.below(8) as u32,
    );
    plan.partition(&[vec![label(a)], vec![label(b)]], blips);
    group.apply_fault_plan(&mut sim, &plan);

    let down = rng.below((n + spares) as u64) as usize;
    let outages = Schedule::new(vec![fault_window(&mut rng), fault_window(&mut rng)]);
    schedule_replica_outages(&mut sim, &group, down, &outages, rng.below(2) == 1);
    if spares > 0 {
        sim.send_at(SimTime::from_secs(3), group.proxy, msg(AddMember(n)));
        let retired = rng.below(n as u64) as usize;
        sim.send_at(SimTime::from_secs(5), group.proxy, msg(RemoveMember(retired)));
    }
    sim.run();

    let mut h = FNV_OFFSET;
    for &(CallId(id), outcome, at) in &sim.component::<CallPump>(pump).results {
        h = fnv(h, id.to_le_bytes());
        h = fnv_outcome(h, outcome);
        h = fnv(h, at.as_secs_f64().to_bits().to_le_bytes());
    }
    for &id in &group.replicas {
        let r = sim.component::<Replica>(id);
        for word in [
            r.term(),
            r.commit_index(),
            r.elections_started,
            r.leader_terms,
            r.entries_appended,
            r.snapshots_sent,
            r.snapshots_installed,
            r.compactions,
            r.no_quorum_replies,
            r.handoff_expiries,
            r.msgs_dropped_partition,
            r.rejoins,
            r.dropped_msgs,
            u64::from(r.is_alive()),
            u64::from(r.is_leader()),
        ] {
            h = fnv(h, word.to_le_bytes());
        }
        h = fnv(h, r.digest());
    }
    h
}

#[test]
fn replica_core_is_pinned_over_32_fault_schedules() {
    let digests: Vec<u64> = (0..32).map(schedule_digest).collect();
    let got = digests.iter().fold(FNV_OFFSET, |h, d| fnv(h, d.to_le_bytes()));
    assert_eq!(got, PINNED_SCHEDULES, "got {got:#x}; per seed {digests:#x?}");
}

/// An idle group does no election work while its leader lives: each
/// heartbeat only moves a follower's deadline, and a follower arms a
/// timer when the one in flight fires early, not once per heartbeat.
/// On the commit before, each follower armed 99 timers in these 2 s
/// (one per heartbeat) and the run dispatched 696 events.
#[test]
fn an_idle_group_keeps_one_election_timer_in_flight() {
    let obs = Observer::recording();
    let mut sim = Simulator::new();
    sim.observe(&obs);
    let cfg = GroupConfig::new(42, SimTime::from_secs(2));
    let group = ReplicaGroup::build(&mut sim, "idle", 3, 0, Bandwidth::from_mbps(622.0), cfg)
        .expect("a group of 3");
    sim.run();
    assert_eq!(group.leader(&sim), Some(0));
    for &id in &group.replicas[1..] {
        let armed = obs.timers_armed_by(id);
        assert!(armed <= 30, "a follower armed {armed} election timers");
    }
    let events = sim.events_processed();
    assert!(events <= 560, "the idle group dispatched {events} events");
}
