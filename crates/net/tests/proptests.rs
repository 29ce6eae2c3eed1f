//! Property-based tests for the network stack invariants.

use gtw_desim::rng::StreamRng;
use gtw_desim::{ComponentId, SimDuration, SimTime, Simulator};
use gtw_net::aal5::{build_cpcs_pdu, cells_for_pdu, segment, wire_bits_for_pdu, Reassembler};
use gtw_net::cell::{AtmCell, CellHeader, Pti};
use gtw_net::ip::{fragment_sizes, IpConfig, IP_HEADER_BYTES};
use gtw_net::link::Medium;
use gtw_net::replica::{GroupConfig, Replica, ReplicaGroup};
use gtw_net::signaling::{
    place_call_with, release_call, CallId, CallOriginator, CallOutcome, SignallingAgent,
    TrafficDescriptor, HOP_LATENCY,
};
use gtw_net::tcp::{HopModel, TcpModel};
use gtw_net::units::{Bandwidth, DataSize};
use proptest::prelude::*;

proptest! {
    /// AAL5 segmentation followed by reassembly returns the payload
    /// byte-for-byte for any payload up to the CPCS limit.
    #[test]
    fn aal5_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..20_000),
                      vpi in 0u8..=255, vci in 0u16..=u16::MAX) {
        let cells = segment(&payload, vpi, vci);
        prop_assert_eq!(cells.len(), cells_for_pdu(payload.len()));
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &cells {
            prop_assert_eq!(c.header.vpi, vpi);
            prop_assert_eq!(c.header.vci, vci);
            if let Some(res) = r.push(c) {
                out = Some(res);
            }
        }
        prop_assert_eq!(out.unwrap().unwrap(), payload);
    }

    /// `segment` writes the CPCS-PDU straight into its cells: cell for
    /// cell they are `build_cpcs_pdu`'s octets, the end bit on the last
    /// one only — at every length where the pad or the trailer moves to
    /// another cell, and at random ones.
    #[test]
    fn aal5_segment_is_the_chunked_cpcs_pdu(random in 0usize..=65535, fill: u8, vpi: u8, vci: u16) {
        for len in [0, 1, 39, 40, 41, 47, 48, 88, 89, 9180, 65535, random] {
            let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            let pdu = build_cpcs_pdu(&payload, 0, 0);
            let cells = segment(&payload, vpi, vci);
            prop_assert_eq!(cells.len() * 48, pdu.len());
            for (i, (cell, chunk)) in cells.iter().zip(pdu.chunks(48)).enumerate() {
                prop_assert_eq!(&cell.payload[..], chunk, "len {}, cell {}", len, i);
                prop_assert_eq!(cell.header.pti.is_aal5_end(), i + 1 == cells.len());
                prop_assert_eq!((cell.header.vpi, cell.header.vci, cell.header.clp), (vpi, vci, false));
            }
        }
    }

    /// Dropping any single cell from a multi-cell PDU is detected.
    #[test]
    fn aal5_single_cell_loss_detected(len in 100usize..5000, drop_idx in 0usize..100) {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let cells = segment(&payload, 0, 5);
        prop_assume!(cells.len() >= 2);
        let drop = drop_idx % cells.len();
        let mut r = Reassembler::new();
        let mut outcome = None;
        for (i, c) in cells.iter().enumerate() {
            if i == drop { continue; }
            if let Some(res) = r.push(c) {
                outcome = Some(res);
            }
        }
        match outcome {
            // PDU completed (end cell survived): must be flagged corrupt.
            Some(res) => prop_assert!(res.is_err()),
            // End cell was the dropped one: PDU still pending, nothing
            // delivered — also safe.
            None => prop_assert_eq!(r.pdus_ok, 0),
        }
    }

    /// Cell header pack/unpack round-trips for all field values, and the
    /// wire form survives parsing.
    #[test]
    fn cell_header_roundtrip(gfc in 0u8..16, vpi: u8, vci: u16, pti in 0u8..8, clp: bool) {
        let h = CellHeader { gfc, vpi, vci, pti: Pti(pti), clp };
        prop_assert_eq!(CellHeader::unpack(h.pack()), h);
        let cell = AtmCell::new(h, b"x");
        prop_assert_eq!(AtmCell::from_wire(&cell.to_wire()).unwrap(), cell);
    }

    /// AAL5 efficiency (payload bits over wire bits) is bounded by the
    /// raw cell tax and positive.
    #[test]
    fn aal5_efficiency_bounds(len in 1usize..=65535) {
        let e = (len as f64 * 8.0) / wire_bits_for_pdu(len) as f64;
        prop_assert!(e > 0.0);
        prop_assert!(e <= 48.0 / 53.0 + 1e-12);
    }

    /// IP fragments always sum to the payload and respect the MTU.
    #[test]
    fn fragments_conserve_payload(payload in 0u64..200_000, mtu in 100u64..65_535) {
        let frags = fragment_sizes(payload, mtu);
        let total: u64 = frags.iter().map(|f| f.bytes() - IP_HEADER_BYTES).sum();
        prop_assert_eq!(total, payload);
        for f in &frags {
            prop_assert!(f.bytes() <= mtu.max(IP_HEADER_BYTES + 8));
        }
    }

    /// TCP steady-state throughput is monotone non-decreasing in window
    /// size and never exceeds the bottleneck payload rate.
    #[test]
    fn tcp_model_monotone_in_window(rate_mbps in 10.0f64..2500.0,
                                    prop_us in 1u64..50_000,
                                    w1 in 1u64..1000, w2 in 1u64..1000) {
        let mk = |w_kib: u64| TcpModel {
            hops: vec![HopModel {
                medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
                per_packet: SimDuration::ZERO,
                propagation: SimDuration::from_micros(prop_us),
            }],
            ip: IpConfig { mtu: 9180 },
            window: DataSize::from_kib(w_kib),
        };
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let t_lo = mk(lo).steady_state_throughput().bps();
        let t_hi = mk(hi).steady_state_throughput().bps();
        prop_assert!(t_lo <= t_hi * (1.0 + 1e-9));
        prop_assert!(t_hi <= rate_mbps * 1e6 * (1.0 + 1e-9));
    }

    /// Throughput is monotone non-increasing when hops are appended (a
    /// longer path can never be faster).
    #[test]
    fn tcp_model_monotone_in_path(extra_hops in 0usize..5) {
        let hop = HopModel {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
            per_packet: SimDuration::from_micros(50),
            propagation: SimDuration::from_micros(100),
        };
        let mut last = f64::INFINITY;
        for n in 1..=(1 + extra_hops) {
            let m = TcpModel {
                hops: vec![hop; n],
                ip: IpConfig { mtu: 9180 },
                window: DataSize::from_kib(256),
            };
            let t = m.steady_state_throughput().bps();
            prop_assert!(t <= last * (1.0 + 1e-9));
            last = t;
        }
    }
}

/// One call sequence through a chain of signalling hops: SETUPs 50 ms
/// apart from `t = 1 s` (after every replica group has elected), a
/// RELEASE of an earlier call between some of them. Returns each
/// call's outcome in completion order.
fn drive_calls(
    sim: &mut Simulator,
    path: &[ComponentId],
    calls: &[(TrafficDescriptor, Option<u64>)],
) -> Vec<(CallId, CallOutcome)> {
    let origin = sim.add_component(CallOriginator::default());
    for (k, &(td, release)) in calls.iter().enumerate() {
        let at = SimTime::from_millis(1000 + 50 * k as u64);
        place_call_with(sim, origin, path, CallId(k as u64), td, at);
        if let Some(earlier) = release {
            release_call(sim, path, CallId(earlier), at + SimDuration::from_millis(25));
        }
    }
    sim.run();
    sim.component::<CallOriginator>(origin).results.clone()
}

proptest! {
    /// The plain hop and the replicated hop are one walk and one CAC: the
    /// same calls through 1–4 `SignallingAgent`s and through 1–4
    /// fault-free three-replica groups are connected or rejected alike
    /// (same hop, same cause) and leave the same committed bits on every
    /// hop. Only `setup_s` may differ — a replicated decision takes a
    /// round through the log.
    #[test]
    fn plain_and_replicated_chains_decide_alike(seed in 0u64..1_000_000, hops in 1usize..=4) {
        let mut rng = StreamRng::new(seed, "proptests/shared-walk");
        // Capacities around four mean contracts, so both budgets bind,
        // at whichever hop is tightest for the call at hand.
        let capacities: Vec<Bandwidth> =
            (0..hops).map(|_| Bandwidth::from_mbps(rng.uniform_in(150.0, 400.0))).collect();
        let calls: Vec<(TrafficDescriptor, Option<u64>)> = (0..16u64)
            .map(|k| {
                let scr = Bandwidth::from_mbps(rng.uniform_in(10.0, 120.0));
                let td = if rng.uniform() < 0.5 {
                    TrafficDescriptor::cbr(scr)
                } else {
                    TrafficDescriptor::vbr(scr * rng.uniform_in(1.0, 3.0), scr)
                };
                let release = (k > 0 && rng.uniform() < 0.4).then(|| rng.below(k));
                (td, release)
            })
            .collect();

        let mut plain = Simulator::new();
        let agents: Vec<ComponentId> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| plain.add_component(SignallingAgent::new(format!("sw{i}"), c, HOP_LATENCY)))
            .collect();
        let plain_outcomes = drive_calls(&mut plain, &agents, &calls);

        let mut replicated = Simulator::new();
        let groups: Vec<ReplicaGroup> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let cfg = GroupConfig::new(seed ^ i as u64, SimTime::from_secs(3));
                ReplicaGroup::build(&mut replicated, format!("g{i}"), 3, 0, c, cfg).expect("3 replicas")
            })
            .collect();
        let proxies: Vec<ComponentId> = groups.iter().map(|g| g.proxy).collect();
        let replicated_outcomes = drive_calls(&mut replicated, &proxies, &calls);

        let verdict = |o: &CallOutcome| match *o {
            CallOutcome::Connected { .. } => None,
            CallOutcome::Rejected { at_hop, cause } => Some((at_hop, cause)),
        };
        prop_assert_eq!(plain_outcomes.len(), calls.len());
        prop_assert_eq!(replicated_outcomes.len(), calls.len());
        for ((id_p, o_p), (id_r, o_r)) in plain_outcomes.iter().zip(&replicated_outcomes) {
            prop_assert_eq!(id_p, id_r);
            prop_assert_eq!(verdict(o_p), verdict(o_r), "call {:?}", id_p);
        }
        for (i, (&agent, group)) in agents.iter().zip(&groups).enumerate() {
            prop_assert!(group.states_converged(&replicated), "hop {}", i);
            let plain_cac = plain.component::<SignallingAgent>(agent).cac();
            let replica_cac = replicated.component::<Replica>(group.replicas[0]).cac();
            prop_assert_eq!(
                plain_cac.committed_bps().to_bits(),
                replica_cac.committed_bps().to_bits(),
                "hop {}", i
            );
            prop_assert_eq!(&plain_cac.admitted, &replica_cac.admitted, "hop {}", i);
        }
    }
}
