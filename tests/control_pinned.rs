//! The control plane, pinned: FNV-1a digests of the two canned fault
//! reports (`control_fault_report`, `multi_domain_fault_report`) at
//! eight seeds, and of one plain-agent scenario — per-call outcomes
//! with their `setup_s` bits and every hop's committed budgets. The
//! constants were captured on the commit before `replica.rs` became a
//! directory and `SignallingAgent` began admitting through `CacState`,
//! so "every report byte and every virtual-time latency stays where it
//! is" is checked against that commit, not only run against run.

use gtw_desim::rng::StreamRng;
use gtw_desim::{SimDuration, SimTime, Simulator};
use gtw_net::replica::{control_fault_report, multi_domain_fault_report};
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
        h = match outcome {
            CallOutcome::Connected { setup_s } => fnv(h, setup_s.to_bits().to_le_bytes()),
            CallOutcome::Rejected { at_hop, cause } => {
                let cause = match cause {
                    RejectCause::ScrExceeded => 1u8,
                    RejectCause::PcrExceeded => 2,
                    RejectCause::NoQuorum => 3,
                };
                fnv(h, [0xff, at_hop as u8, cause])
            }
        };
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

#[test]
fn plain_agent_call_fuzz_is_pinned() {
    let got = TRUNKS.map(|trunks| [1999u64, 2000, 2001].map(|s| plain_agent_digest(s, &trunks)));
    assert_eq!(got, PINNED_PLAIN, "got {got:#x?}");
}
