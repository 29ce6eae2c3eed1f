//! Multi-domain hand-off suite: three per-domain [`ReplicaGroup`]s
//! (fzj → gmd → uni, after the paper's testbed sites) admit every
//! cross-domain call through each domain's own replicated CAC log with
//! the two-phase `Prepare`/`Confirm` protocol, while a warm-standby
//! gateway pair commits its fail-over epochs through the owning
//! domain's log. Every seeded crash/partition/blip plan must uphold:
//!
//! 1. **Exactly-once across domains** — a call is admitted in *all*
//!    domains or in none; a mid-hand-off leader crash or partition
//!    either completes the call or rolls back every upstream
//!    reservation (no leaked `Prepare` holds, equal committed budgets).
//! 2. **Split-brain-proof fail-over** — a gateway only forwards under
//!    an epoch its domain has committed; while the domain has no
//!    quorum the pair stalls rather than going dual-active, and a dead
//!    unit's completion from an old epoch stays invalidated.
//! 3. **Live reconfiguration** — membership changes commit through the
//!    log, the joiner catches up by snapshot before voting, and the
//!    `CallPump` keeps placing calls throughout (availability ≥ 0.99
//!    at the canonical seed).
//! 4. **Codec robustness** — the snapshot wire format round-trips, and
//!    truncated or bit-flipped bytes decode to `None`, never to a
//!    different valid state and never panicking.
//!
//! The master seed is pinned for CI and overridable locally:
//!
//! ```text
//! GTW_CONTROL_SEED=12345 cargo test --test multi_domain
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gtw_desim::component::msg;
use gtw_desim::fault::{FaultPlan, Schedule, Window};
use gtw_desim::rng::StreamRng;
use gtw_desim::{Component, Json, SimDuration, SimTime, Simulator};
use gtw_net::gateway::{
    Gateway, GatewayDown, GatewayPair, GatewaySink, GatewayUp, GwPacket, StartProbes,
};
use gtw_net::replica::{
    leader_of, multi_domain_fault_report, CacState, CallPump, Command, MultiDomain, Replica,
    ReplicaDown, ReplicaGroup, ReplicaUp, ReplicatedAgent,
};
use gtw_net::signaling::{CallId, CallOutcome, RejectCause};
use gtw_net::units::Bandwidth;
use proptest::prelude::*;

/// Master seed: pinned for CI, overridable for local fuzzing.
fn master_seed() -> u64 {
    std::env::var("GTW_CONTROL_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1999)
}

/// Build the canonical three-domain scenario on a fresh simulator.
fn scenario(seed: u64) -> (Simulator, MultiDomain) {
    let mut sim = Simulator::new();
    let md = MultiDomain::build(&mut sim, seed, SimTime::from_secs(30));
    (sim, md)
}

// ---- 1. clean run: every call admitted in every domain ----------------

#[test]
fn clean_run_confirms_every_call_in_every_domain() {
    let (mut sim, md) = scenario(master_seed());
    sim.run();

    let p = sim.component::<CallPump>(md.pump);
    assert_eq!(p.offered, 200);
    assert_eq!(p.placed(), 200, "a fault-free run places every call");
    // Each placed call was promoted (Confirm committed) once per domain.
    let confirmed: u64 = md
        .groups
        .iter()
        .map(|g| sim.component::<ReplicatedAgent>(g.proxy).handoffs_confirmed)
        .sum();
    assert_eq!(confirmed, 3 * 200);
    let aborted: u64 =
        md.groups.iter().map(|g| sim.component::<ReplicatedAgent>(g.proxy).handoffs_aborted).sum();
    assert_eq!(aborted, 0);
    assert_eq!(md.replica_sum(&sim, |r| r.handoff_expiries), 0);
    assert!(md.budgets_conserved(&sim), "no pending holds, equal committed budgets");
    assert!(md.all_converged(&sim));
    // The committed dedup floor keeps the per-request table bounded even
    // though 200 calls × 3 domains × (Prepare + Confirm) flowed through.
    for g in &md.groups {
        assert!(sim.component::<ReplicatedAgent>(g.proxy).dedup_acks_sent > 0);
        for &id in &g.replicas {
            let r = sim.component::<Replica>(id);
            assert!(
                r.cac().dedup_entries() <= 64,
                "{}: dedup table grew to {}",
                r.name(),
                r.cac().dedup_entries()
            );
            assert!(r.cac().dedup_floor() > 0, "{}: floor never advanced", r.name());
        }
    }
}

// ---- 2. mid-hand-off leader crash -------------------------------------

#[test]
fn mid_handoff_leader_crash_resolves_every_call_exactly_once() {
    let seed = master_seed();
    let (mut sim, md) = scenario(seed);
    // Crash whoever leads the *middle* domain just after a call is
    // offered (offers land at k × 100 ms, so 1.0005 s is mid-chain for
    // the call offered at 1 s): its Prepare/Confirm is in flight when
    // the leader's state is wiped. Rejoins two seconds later.
    let replicas = md.groups[1].replicas.clone();
    sim.call_at(SimTime::from_micros(1_000_500), move |sim| {
        let idx = leader_of(sim, &replicas).expect("gmd elected a leader by 1 s");
        let id = replicas[idx];
        let now = sim.now();
        sim.send_at(now, id, msg(ReplicaDown { wipe: true }));
        sim.send_at(now + SimDuration::from_secs(2), id, msg(ReplicaUp));
    });
    sim.run();

    let p = sim.component::<CallPump>(md.pump);
    assert_eq!(p.offered, 200);
    assert_eq!(p.results.len(), 200, "every offered call resolved");
    let placed = p.placed();
    assert!(placed as f64 / 200.0 >= 0.99, "availability {placed}/200 through the crash");
    // Exactly-once across domains: nothing half-admitted survived.
    assert!(md.budgets_conserved(&sim), "reservations either completed or rolled back");
    assert!(md.all_converged(&sim));
    let gmd_term =
        md.groups[1].replicas.iter().map(|&id| sim.component::<Replica>(id).term()).max().unwrap();
    assert!(gmd_term >= 2, "the crash forced a gmd fail-over, term {gmd_term}");
    let crashed = md.groups[1]
        .replicas
        .iter()
        .map(|&id| sim.component::<Replica>(id))
        .find(|r| r.rejoins > 0)
        .expect("the wiped leader rejoined");
    assert!(crashed.is_alive());
}

// ---- 3. middle-domain quorum loss: rollback + gateway stall -----------

#[test]
fn quorum_loss_in_owning_domain_rolls_back_calls_and_stalls_the_gateway() {
    let seed = master_seed();
    let (mut sim, md) = scenario(seed);
    // Every gmd replica isolated from every other over [4 s, 10 s):
    // the middle domain can elect no leader and commit nothing. Calls
    // needing gmd refuse with NoQuorum after the request deadline and
    // their upstream fzj holds are aborted; the gateway pair — whose
    // epochs gmd owns — must stall when its primary dies at 5 s, not
    // fail over on local judgement.
    let mut plan = FaultPlan::new(seed);
    plan.partition(
        &[vec!["gmd/r0".into()], vec!["gmd/r1".into()], vec!["gmd/r2".into()]],
        Schedule::new(vec![Window::new(SimTime::from_secs(4), SimTime::from_secs(10))]),
    );
    md.groups[1].apply_fault_plan(&mut sim, &plan);
    gtw_net::gateway::schedule_gateway_outages(
        &mut sim,
        md.pair,
        0,
        &Schedule::new(vec![Window::new(SimTime::from_secs(5), SimTime::from_secs(20))]),
    );
    // Probes inside the no-quorum window: the pair must be waiting on
    // its proposed epoch and must not forward a single datagram while
    // it waits — split-brain-proof by construction.
    let frozen = Arc::new(AtomicU64::new(0));
    let (probe, pair) = (frozen.clone(), md.pair);
    sim.call_at(SimTime::from_secs(7), move |sim| {
        let gp = sim.component::<GatewayPair>(pair);
        assert!(gp.is_arbitrating(), "no committed epoch can exist without quorum");
        probe.store(gp.forwarded, Ordering::Relaxed);
    });
    let (probe, pair) = (frozen.clone(), md.pair);
    sim.call_at(SimTime::from_millis(9_500), move |sim| {
        let gp = sim.component::<GatewayPair>(pair);
        assert!(gp.is_arbitrating(), "still no quorum, still waiting");
        assert_eq!(
            gp.forwarded,
            probe.load(Ordering::Relaxed),
            "the pair forwarded without a committed epoch"
        );
    });
    sim.run();

    let p = sim.component::<CallPump>(md.pump);
    assert_eq!(p.results.len(), 200, "every offered call resolved");
    let no_quorum = p
        .results
        .iter()
        .filter(|(_, o, _)| matches!(o, CallOutcome::Rejected { cause: RejectCause::NoQuorum, .. }))
        .count() as u64;
    assert!(no_quorum > 0, "window-era calls refused with NoQuorum");
    assert_eq!(p.placed() + no_quorum, 200, "every call placed or refused cleanly");
    // The refused calls' upstream reservations were rolled back: either
    // by the origin's hand-off deadline (leader-committed Abort) or by
    // the reject walk-back — no leaked holds, budgets equal everywhere.
    let aborted: u64 =
        md.groups.iter().map(|g| sim.component::<ReplicatedAgent>(g.proxy).handoffs_aborted).sum();
    let expiries = md.replica_sum(&sim, |r| r.handoff_expiries);
    assert!(aborted + expiries > 0, "the partition forced at least one rollback");
    assert!(md.budgets_conserved(&sim), "no leaked reservation after the heal");
    assert!(md.all_converged(&sim));
    // The stalled fail-over completed once quorum returned, under an
    // epoch the domain actually committed.
    let gp = sim.component::<GatewayPair>(md.pair);
    assert_eq!(gp.failovers, 1);
    assert!(!gp.is_arbitrating());
    let committed_epoch = sim.component::<Replica>(md.groups[1].replicas[0]).cac().gateway_epoch;
    assert_eq!(gp.epoch(), committed_epoch, "the pair forwards only under the committed epoch");
    // Exactly-once delivery through the stall.
    let sink = sim.component::<GatewaySink>(md.sink);
    let mut seen = sink.delivered.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), sink.delivered.len(), "no datagram delivered twice");
}

// ---- 4. degenerate group sizes are rejected ---------------------------

#[test]
fn even_and_trivial_group_sizes_are_rejected_with_clear_errors() {
    let cfg = gtw_net::replica::GroupConfig::new(7, SimTime::from_secs(1));
    let mut sim = Simulator::new();
    let err = ReplicaGroup::build(&mut sim, "bad", 4, 0, Bandwidth::from_gbps(1.0), cfg.clone())
        .err()
        .expect("even sizes must be rejected");
    assert!(err.contains("even size 4"), "{err}");
    assert!(err.contains("2f+1"), "{err}");
    let mut sim = Simulator::new();
    let err = ReplicaGroup::build(&mut sim, "bad", 1, 0, Bandwidth::from_gbps(1.0), cfg.clone())
        .err()
        .expect("f = 0 sizes must be rejected");
    assert!(err.contains("f = 0"), "{err}");
    let mut sim = Simulator::new();
    assert!(ReplicaGroup::build(&mut sim, "ok", 3, 0, Bandwidth::from_gbps(1.0), cfg).is_ok());
}

// ---- 5. canonical report: reconfiguration + reproducibility -----------

#[test]
fn canonical_report_is_reproducible_with_live_reconfiguration() {
    let seed = master_seed();
    let a = multi_domain_fault_report(seed);
    let b = multi_domain_fault_report(seed);
    assert_eq!(a.dump(), b.dump(), "same seed, byte-identical report");

    let get = |k: &str| a.get(k).and_then(Json::as_i128).unwrap();
    let offered = get("offered");
    let placed = get("placed");
    assert_eq!(offered, 200);
    let avail = placed as f64 / offered as f64;
    assert!(avail >= 0.99, "availability {avail} through crash + partition + reconfiguration");
    // The membership change completed: the spare (3) voted in by
    // snapshot catch-up, founder 0 voted out, committed on a quorum.
    assert_eq!(a.get("members_fzj").unwrap().dump(), "[1,2,3]");
    assert!(get("spare_snapshots") >= 1, "the joiner caught up via the snapshot path");
    // Both gateway fail-overs went through the owning domain's log.
    assert_eq!(get("gateway_failovers"), 2);
    assert_eq!(get("epoch_grants"), get("gateway_failovers"));
    assert_eq!(get("gateway_epoch"), get("gateway_committed_epoch"));
    // Cross-domain conservation held through the whole storm.
    assert_eq!(a.get("budgets_conserved"), Some(&Json::Bool(true)));
    assert_eq!(a.get("states_converged"), Some(&Json::Bool(true)));
    // A different seed steers the scenario but keeps the invariants.
    let c = multi_domain_fault_report(seed.wrapping_add(1));
    assert_ne!(a.dump(), c.dump(), "the seed actually steers the scenario");
    assert_eq!(c.get("budgets_conserved"), Some(&Json::Bool(true)));
    assert_eq!(c.get("states_converged"), Some(&Json::Bool(true)));
    let placed_c = c.get("placed").and_then(Json::as_i128).unwrap();
    assert!(placed_c as f64 / 200.0 >= 0.99);
}

// ---- 6. rapid double fail-over vs. a stale completion -----------------

#[test]
fn stale_txdone_from_two_epochs_back_stays_invalidated() {
    // Local-judgement pair (no arbiter): a huge datagram keeps unit 0
    // mid-copy for ~42 ms while both units die and recover in turn, so
    // the pair is two epochs past the copy when its completion finally
    // fires. The completion must be dropped — the datagram was already
    // counted lost at the crash — and nothing is delivered twice.
    let mut sim = Simulator::new();
    let sink = sim.add_component(GatewaySink::default());
    let pair = sim.add_component(
        GatewayPair::new(Gateway::sgi_o200_to_atm(), Gateway::sun_ultra30_to_atm(), sink)
            .with_probes(SimDuration::from_millis(1), 3),
    );
    sim.send_at(SimTime::ZERO, pair, msg(StartProbes));
    // 8 MiB at the 1.6 Gbit/s copy bandwidth ≈ 42 ms in flight.
    sim.send_at(SimTime::ZERO, pair, msg(GwPacket { seq: 0, bytes: 8 << 20 }));
    for seq in 1..=10u64 {
        sim.send_at(SimTime::from_micros(100 * seq), pair, msg(GwPacket { seq, bytes: 8192 }));
    }
    // Unit 0 dies mid-copy at 1 ms (first epoch bump, copy lost), the
    // pair fails over to unit 1 (~4 ms, second bump). Unit 0 recovers;
    // unit 1 then dies with the queue already drained, forcing the
    // second fail-over back to unit 0.
    sim.send_at(SimTime::from_millis(1), pair, msg(GatewayDown(0)));
    sim.send_at(SimTime::from_millis(5), pair, msg(GatewayUp(0)));
    sim.send_at(SimTime::from_millis(8), pair, msg(GatewayDown(1)));
    sim.send_at(SimTime::from_millis(30), pair, msg(GatewayUp(1)));
    for seq in 11..=15u64 {
        sim.send_at(SimTime::from_millis(12 + seq), pair, msg(GwPacket { seq, bytes: 8192 }));
    }
    sim.run();

    let gp = sim.component::<GatewayPair>(pair);
    assert_eq!(gp.failovers, 2, "two fail-overs: 0 → 1 → 0");
    assert_eq!(gp.inflight_lost, 1, "only the mid-copy datagram was lost");
    assert!(
        gp.dropped_stale_done >= 1,
        "the dead unit's completion from two epochs back was invalidated"
    );
    let sink = sim.component::<GatewaySink>(sink);
    assert!(!sink.delivered.contains(&0), "the lost datagram must not resurface");
    let mut seen = sink.delivered.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), sink.delivered.len(), "exactly-once delivery");
    assert_eq!(sink.delivered.len() as u64, 15, "everything else arrived");
    assert_eq!(gp.forwarded, 15);
}

// ---- 7. snapshot codec robustness -------------------------------------

/// A `CacState` reached through a random public command sequence that
/// exercises every command kind, so snapshots carry non-trivial
/// admitted/pending/membership/dedup payloads.
fn arbitrary_state(seed: u64, ops: usize) -> CacState {
    let mut rng = StreamRng::new(seed, "multi-domain/codec");
    let mut s = CacState::new(622e6, 1.5);
    for k in 0..ops {
        let req = k as u64 + 1;
        let call = CallId(rng.below(12));
        let cmd = match rng.below(9) {
            0 => Command::Reserve {
                call,
                pcr_bits: (rng.uniform_in(1.0, 400.0) * 1e6).to_bits(),
                scr_bits: (rng.uniform_in(1.0, 200.0) * 1e6).to_bits(),
            },
            1 => Command::Prepare {
                call,
                pcr_bits: (rng.uniform_in(1.0, 400.0) * 1e6).to_bits(),
                scr_bits: (rng.uniform_in(1.0, 200.0) * 1e6).to_bits(),
            },
            2 => Command::Confirm { call },
            3 => Command::Abort { call },
            4 => Command::Release { call },
            5 => Command::Rollback { call },
            6 => Command::AckApplied { up_to: rng.below(req + 1) },
            7 => Command::AddReplica { idx: rng.below(5) as usize },
            _ => Command::RemoveReplica { idx: rng.below(5) as usize },
        };
        s.apply_cmd(req, &cmd);
    }
    s
}

proptest! {
    /// Round-trip is lossless; every truncation and every single-bit
    /// flip decodes to `None` — the trailing checksum means corruption
    /// can never masquerade as a different valid snapshot (FNV-1a's
    /// per-byte step is a bijection, so any one-byte change always
    /// changes the final hash).
    #[test]
    fn codec_round_trips_and_rejects_truncation_and_bit_flips(
        seed in 0u64..1_000_000,
        ops in 1usize..80,
    ) {
        let s = arbitrary_state(seed, ops);
        let bytes = s.encode();
        let decoded = CacState::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&s));
        for len in 0..bytes.len() {
            prop_assert_eq!(CacState::decode(&bytes[..len]), None, "truncated to {} bytes", len);
        }
        let mut flipped = bytes.clone();
        for i in 0..flipped.len() {
            let bit = 1u8 << (i % 8);
            flipped[i] ^= bit;
            prop_assert_eq!(CacState::decode(&flipped), None, "bit flip at byte {}", i);
            flipped[i] ^= bit;
        }
        let restored = CacState::decode(&flipped);
        prop_assert_eq!(restored.as_ref(), Some(&s));
    }
}

#[test]
fn legacy_v1_snapshot_bytes_still_decode() {
    // Hand-written version-1 bytes: no checksum, no pending holds, no
    // membership, no dedup floor — the layout PR 9 shipped. A state
    // that only ever saw `Reserve` encodes identically modulo the new
    // trailing sections, so pinning the old layout here guards decode
    // compatibility for snapshots persisted by older replicas.
    let mut expected = CacState::new(622e6, 1.5);
    expected.apply_cmd(1, &Command::Reserve { call: CallId(7), pcr_bits: 64, scr_bits: 32 });

    let mut v1 = Vec::new();
    v1.extend_from_slice(b"GTWR");
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&622e6f64.to_bits().to_le_bytes()); // capacity
    v1.extend_from_slice(&1.5f64.to_bits().to_le_bytes()); // peak factor
    v1.extend_from_slice(&0u64.to_le_bytes()); // gateway epoch
    v1.extend_from_slice(&1u64.to_le_bytes()); // applied count
    v1.extend_from_slice(&1u32.to_le_bytes()); // admitted: 1 triple
    v1.extend_from_slice(&7u64.to_le_bytes());
    v1.extend_from_slice(&64u64.to_le_bytes());
    v1.extend_from_slice(&32u64.to_le_bytes());
    v1.extend_from_slice(&1u32.to_le_bytes()); // applied reqs: 1 pair
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.push(0); // outcome code: Admitted

    let decoded = CacState::decode(&v1).expect("v1 layout still decodes");
    assert_eq!(decoded, expected);
    assert!(decoded.pending.is_empty());
    assert!(decoded.members().is_empty());
    assert_eq!(decoded.dedup_floor(), 0);
    // Unknown versions refuse.
    let mut v3 = v1.clone();
    v3[4] = 3;
    assert_eq!(CacState::decode(&v3), None);
}
