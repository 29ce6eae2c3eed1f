//! Quorum-replicated signalling control plane.
//!
//! PR 5 made the per-switch [`SignallingAgent`](crate::signaling::SignallingAgent)
//! the arbiter of all admission state, which also made it the last
//! single point of failure in the stack. This module replicates that
//! state across a [`ReplicaGroup`] of `2f + 1` replicas running a
//! deterministic leader-based replication protocol (a Raft-style core
//! scoped to the simulator): seeded virtual-time election timeouts,
//! leader election on heartbeat loss, log replication of CAC commands
//! with majority commit, bit-identical state-machine apply, and
//! snapshot + catch-up for rejoining replicas.
//!
//! One file per seam; each names what it owns and must not import:
//!
//! | file | owns | must not import |
//! |---|---|---|
//! | [`cac`] | [`Command`], [`CacState`] (the one admission arithmetic, `fits`), the snapshot codec | `gtw-desim`, any other file here |
//! | [`raft`] | [`Replica`]: elections, log, commit, apply, snapshots; [`GroupConfig`] and the protocol constants | any signalling message (`signaling::CallId` only), `agent`, `group`, `scenario` |
//! | [`agent`] | [`ReplicatedAgent`]: request table, leader chase, retry/deadline, confirm wave, epoch grants | `group`, `scenario`; the walk itself lives on the messages in [`signaling`](crate::signaling) |
//! | [`group`] | [`ReplicaGroup`] wiring, fault-plan install, [`leader_of`] | `scenario` |
//! | [`scenario`] | [`CallPump`], [`control_fault_report`], [`MultiDomain`], [`multi_domain_fault_report`] | — |
//!
//! A plain hop is a replicated hop with a log of length zero:
//! `SignallingAgent` applies the same [`Command`]s to its own
//! [`CacState`] on the spot and then calls the same walk.

pub mod agent;
pub mod cac;
pub mod group;
pub mod raft;
pub mod scenario;

pub use agent::{AddMember, RemoveMember, ReplicatedAgent};
pub use cac::{CacState, CmdOutcome, Command};
pub use group::{leader_of, schedule_replica_outages, ReplicaGroup};
pub use raft::{BootReplica, GroupConfig, Replica, ReplicaDown, ReplicaUp};
pub use scenario::{
    control_fault_report, multi_domain_fault_report, CallPump, MultiDomain, PumpStart,
};

#[cfg(test)]
mod tests {
    use gtw_desim::component::msg;
    use gtw_desim::fault::{Schedule, Window};
    use gtw_desim::{Component, Json, Msg, SimDuration, SimTime, Simulator};

    use super::*;
    use crate::signaling::{CallId, CallOutcome, RejectCause, TrafficDescriptor};
    use crate::units::Bandwidth;

    fn group_of_3(sim: &mut Simulator, capacity: Bandwidth, cfg: GroupConfig) -> ReplicaGroup {
        ReplicaGroup::build(sim, "g", 3, 0, capacity, cfg).expect("3 is odd and >= 3")
    }

    #[test]
    fn cac_state_encodes_round_trip_and_dedups_requests() {
        let mut st = CacState::new(622e6, 1.5);
        let td = |mbps: f64| (mbps * 1e6).to_bits();
        assert_eq!(
            st.apply_cmd(
                1,
                &Command::Reserve { call: CallId(7), pcr_bits: td(300.0), scr_bits: td(200.0) }
            ),
            CmdOutcome::Admitted
        );
        // Retransmission of the same request: same outcome, no double
        // booking, no extra applied_count.
        let count = st.applied_count;
        assert_eq!(
            st.apply_cmd(
                1,
                &Command::Reserve { call: CallId(7), pcr_bits: td(300.0), scr_bits: td(200.0) }
            ),
            CmdOutcome::Admitted
        );
        assert_eq!(st.applied_count, count);
        assert!((st.committed_bps() - 200e6).abs() < 1.0);
        // SCR binds first, as in SignallingAgent::admission_check.
        assert_eq!(
            st.apply_cmd(
                2,
                &Command::Reserve { call: CallId(8), pcr_bits: td(500.0), scr_bits: td(500.0) }
            ),
            CmdOutcome::Rejected(RejectCause::ScrExceeded)
        );
        assert_eq!(
            st.apply_cmd(
                3,
                &Command::Reserve { call: CallId(8), pcr_bits: td(700.0), scr_bits: td(400.0) }
            ),
            CmdOutcome::Rejected(RejectCause::PcrExceeded)
        );
        assert_eq!(st.apply_cmd(4, &Command::GatewayEpoch { epoch: 3 }), CmdOutcome::Applied);
        assert_eq!(st.apply_cmd(5, &Command::Release { call: CallId(7) }), CmdOutcome::Applied);
        assert_eq!(st.committed_bps(), 0.0);
        let bytes = st.encode();
        assert_eq!(CacState::decode(&bytes).as_ref(), Some(&st));
        assert_eq!(CacState::decode(&bytes[..bytes.len() - 1]), None);
        assert_eq!(CacState::decode(b"nope"), None);
    }

    #[test]
    fn group_elects_a_single_leader_and_converges() {
        let mut sim = Simulator::new();
        let cfg = GroupConfig::new(42, SimTime::from_secs(2));
        let group = group_of_3(&mut sim, Bandwidth::from_mbps(622.0), cfg);
        sim.run();
        assert_eq!(group.leader(&sim), Some(0), "preferred replica 0 wins the first election");
        let leaders =
            group.replicas.iter().filter(|&&id| sim.component::<Replica>(id).is_leader()).count();
        assert_eq!(leaders, 1);
        assert!(group.states_converged(&sim));
        // The no-op barrier committed on every replica.
        for &id in &group.replicas {
            assert!(sim.component::<Replica>(id).commit_index() >= 1);
        }
    }

    #[test]
    fn calls_place_through_the_proxy_and_budgets_replicate() {
        let mut sim = Simulator::new();
        let cfg = GroupConfig::new(7, SimTime::from_secs(5));
        let group = group_of_3(&mut sim, Bandwidth::from_mbps(622.0), cfg);
        let pump = sim.add_component(CallPump::new(
            group.proxy,
            Vec::new(),
            TrafficDescriptor::cbr(Bandwidth::from_mbps(155.0)),
            SimDuration::from_millis(200),
            5,
            1,
        ));
        sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
        sim.run();
        let p = sim.component::<CallPump>(pump);
        assert_eq!(p.offered, 5);
        assert_eq!(p.results.len(), 5);
        // 4 x 155 fit the 622 port; the 5th refuses on the SCR budget.
        assert_eq!(p.placed(), 4);
        assert!(matches!(
            p.results.iter().find(|(_, o, _)| !matches!(o, CallOutcome::Connected { .. })),
            Some((_, CallOutcome::Rejected { cause: RejectCause::ScrExceeded, .. }, _))
        ));
        assert!(group.states_converged(&sim));
        for &id in &group.replicas {
            let r = sim.component::<Replica>(id);
            assert!((r.cac().committed_bps() - 4.0 * 155e6).abs() < 1.0, "{}", r.name());
        }
    }

    #[test]
    fn leader_crash_elects_a_new_leader_and_calls_continue() {
        let mut sim = Simulator::new();
        let cfg = GroupConfig::new(11, SimTime::from_secs(10));
        let group = group_of_3(&mut sim, Bandwidth::from_gbps(2.4), cfg);
        let pump = sim.add_component(CallPump::new(
            group.proxy,
            Vec::new(),
            TrafficDescriptor::cbr(Bandwidth::from_mbps(34.0)),
            SimDuration::from_millis(100),
            30,
            1,
        ));
        sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
        // Crash whoever leads at 1 s; no rejoin.
        let replicas = group.replicas.clone();
        sim.call_at(SimTime::from_secs(1), move |sim| {
            let idx = leader_of(sim, &replicas).expect("a leader exists by 1 s");
            let id = replicas[idx];
            let now = sim.now();
            sim.send_at(now, id, msg(ReplicaDown { wipe: true }));
        });
        sim.run();
        let p = sim.component::<CallPump>(pump);
        assert_eq!(p.placed(), 30, "every offered call placed through the fail-over");
        let new_leader = group.leader(&sim).expect("survivors elected a leader");
        assert_ne!(new_leader, 0, "replica 0 led first and is down");
        assert!(group.states_converged(&sim), "live replicas agree");
        let max_term =
            group.replicas.iter().map(|&id| sim.component::<Replica>(id).term()).max().unwrap();
        assert!(max_term >= 2, "the fail-over advanced the term");
    }

    #[test]
    fn wiped_replica_rejoins_via_snapshot_with_identical_state() {
        let mut sim = Simulator::new();
        let mut cfg = GroupConfig::new(13, SimTime::from_secs(12));
        cfg.snapshot_threshold = 4; // force compaction early
        let group = group_of_3(&mut sim, Bandwidth::from_gbps(2.4), cfg);
        let pump = sim.add_component(CallPump::new(
            group.proxy,
            Vec::new(),
            TrafficDescriptor::cbr(Bandwidth::from_mbps(34.0)),
            SimDuration::from_millis(100),
            40,
            1,
        ));
        sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
        // Replica 2 crashes hard at 500 ms and rejoins empty at 3 s —
        // well past a compaction, so only a snapshot can catch it up.
        schedule_replica_outages(
            &mut sim,
            &group,
            2,
            &Schedule::new(vec![Window::new(SimTime::from_millis(500), SimTime::from_secs(3))]),
            true,
        );
        sim.run();
        let p = sim.component::<CallPump>(pump);
        assert_eq!(p.placed(), 40);
        let rejoined = sim.component::<Replica>(group.replicas[2]);
        assert!(rejoined.is_alive());
        assert_eq!(rejoined.rejoins, 1);
        assert!(rejoined.snapshots_installed >= 1, "caught up by snapshot");
        assert!(group.states_converged(&sim));
        let d0 = sim.component::<Replica>(group.replicas[0]).digest();
        let d2 = sim.component::<Replica>(group.replicas[2]).digest();
        assert_eq!(d0, d2, "rejoined CAC state is byte-identical");
    }

    /// A group of 3 on 2.4 Gbit/s with 40 calls of 34 Mbit/s, sent the
    /// membership `changes` at 500 ms, whose leader crashes at 2 s so the
    /// other two must elect; returns calls placed and changes refused.
    fn place_through_membership_changes(changes: Vec<Msg>) -> (u64, u64) {
        let mut sim = Simulator::new();
        let group = group_of_3(&mut sim, Bandwidth::from_gbps(2.4), GroupConfig::new(3, secs(6)));
        let pump = sim.add_component(CallPump::new(
            group.proxy,
            Vec::new(),
            TrafficDescriptor::cbr(Bandwidth::from_mbps(34.0)),
            SimDuration::from_millis(100),
            40,
            1,
        ));
        sim.send_at(SimTime::ZERO, pump, msg(PumpStart));
        for change in changes {
            sim.send_at(SimTime::from_millis(500), group.proxy, change);
        }
        let replicas = group.replicas.clone();
        sim.call_at(secs(2), move |sim| {
            let id = replicas[leader_of(sim, &replicas).expect("a leader by 2 s")];
            sim.send_at(secs(2), id, msg(ReplicaDown { wipe: false }));
        });
        sim.run();
        assert!(group.states_converged(&sim));
        let members = sim.component::<Replica>(group.replicas[0]).cac().members();
        assert_eq!(members, 0b111, "the voters stay 0, 1 and 2");
        let refused = sim.component::<ReplicatedAgent>(group.proxy).membership_refused;
        (sim.component::<CallPump>(pump).placed(), refused)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn voters_the_group_lacks_are_refused_and_the_quorum_holds() {
        // Three phantom voters would make a majority of 4 among 3 live
        // replicas: nothing could commit or elect again.
        let adds = (5..8).map(|i| msg(AddMember(i))).collect();
        assert_eq!(place_through_membership_changes(adds), (40, 3));
    }

    #[test]
    fn a_member_index_past_the_mask_is_refused_not_shifted() {
        let past = vec![msg(AddMember(32)), msg(RemoveMember(40))];
        assert_eq!(place_through_membership_changes(past), (40, 2));
    }

    #[test]
    fn a_group_past_32_replicas_is_refused() {
        let mut sim = Simulator::new();
        let cfg = GroupConfig::new(1, secs(1));
        let err = ReplicaGroup::build(&mut sim, "g", 3, 30, Bandwidth::from_gbps(1.0), cfg.clone())
            .err()
            .expect("33 replicas do not fit a 32-bit membership mask");
        assert!(err.contains("exceed 32"), "{err}");
        assert!(ReplicaGroup::build(&mut sim, "h", 3, 29, Bandwidth::from_gbps(1.0), cfg).is_ok());
    }

    #[test]
    fn control_fault_report_is_deterministic_and_highly_available() {
        let a = control_fault_report(1999);
        let b = control_fault_report(1999);
        assert_eq!(a.dump(), b.dump(), "same seed, byte-identical report");
        let avail = a.get("availability").and_then(Json::as_f64).unwrap();
        assert!(avail >= 0.99, "availability {avail} under faults");
        let offered = a.get("offered").and_then(Json::as_i128).unwrap();
        assert_eq!(offered, 200);
        assert_eq!(a.get("states_converged"), Some(&Json::Bool(true)));
    }
}
