//! The transfer run reports, pinned: one FNV-1a digest each of
//! `RunReport::to_json().dump()` for a clean multi-flow `TransferSet`,
//! the same set with a degraded WAN hop, and a striped transfer. The
//! constants were captured while `PipeStage` still armed a `TxDone`
//! timer per packet; the one-event-per-hop stage must reproduce every
//! per-hop counter, latency histogram and endpoint block to the byte, on
//! the sequential kernel and on 1/2/4 shards. Only the kernel's event
//! count is blanked — halving it is the point of that rewrite.

use gtw_desim::{SimDuration, SimTime};
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::stats::RunReport;
use gtw_net::stripe::StripedTransfer;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;

const PINNED_CLEAN: u64 = 0x85ab_400d_5875_d661;
const PINNED_DEGRADED: u64 = 0x0c7e_a45a_7718_0c2c;
const PINNED_STRIPED: u64 = 0x88b3_a815_e8df_fd06;
const PINNED_STRIPED_CUT: u64 = 0x99f0_569c_1966_8b53;

const FLOWS: u64 = 4;
const BYTES_PER_FLOW: u64 = 256 * 1024;
/// The degraded set moves 4 MiB per flow: flow 0 then runs ~220 ms on its
/// 155 Mbit/s bottleneck, through the plan's 100–150 ms outage and enough
/// segments for its 1 % loss to bite (at 256 KiB the seed drops nothing).
const DEGRADED_BYTES_PER_FLOW: u64 = 4 * 1024 * 1024;

/// Flow `k`'s path on the `kernel_bench` hop ladder: local-WAN-local,
/// every flow with its own propagations and bottleneck rate.
fn ladder(k: u64) -> Vec<HopModel> {
    let raw_hop = |rate_mbps: f64, prop_us: u64| HopModel {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(prop_us),
    };
    vec![
        raw_hop(800.0, 3 + k),
        raw_hop(622.0, 5 + k),
        raw_hop(622.0, 8),
        raw_hop(155.0 + 30.0 * k as f64, 500),
        raw_hop(622.0, 8),
        raw_hop(622.0, 5 + k),
        raw_hop(800.0, 3 + k),
    ]
}

fn flow(k: u64, bytes: u64) -> BulkTransfer {
    BulkTransfer {
        hops: ladder(k),
        ip: IpConfig { mtu: 9180 },
        bytes,
        protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
    }
}

fn transfer_set(bytes_per_flow: u64) -> TransferSet {
    let mut set = TransferSet::new();
    for k in 0..FLOWS {
        set.add(flow(k, bytes_per_flow));
    }
    set
}

fn sharded(shards: usize) -> RunOptions<'static> {
    RunOptions { shards, ..RunOptions::default() }
}

fn striped() -> StripedTransfer {
    StripedTransfer {
        hops: ladder(0),
        ip: IpConfig { mtu: 9180 },
        bytes: FLOWS * BYTES_PER_FLOW,
        window_bytes: 512 * 1024,
        streams: 4,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h`, over the report's JSON bytes with the
/// event count blanked.
fn fold(h: u64, mut run: RunReport) -> u64 {
    run.events_processed = 0;
    run.to_json().dump().bytes().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn digest(run: RunReport) -> u64 {
    fold(FNV_OFFSET, run)
}

#[test]
fn clean_transfer_set_report_is_pinned_on_every_kernel() {
    for shards in [0usize, 1, 2, 4] {
        let got = digest(transfer_set(BYTES_PER_FLOW).run_with(&sharded(shards)).1);
        assert_eq!(got, PINNED_CLEAN, "{shards} shards: digest {got:#018x}");
    }
}

#[test]
fn degraded_transfer_set_report_is_pinned_on_every_kernel() {
    let plan = degraded_plan(1999, "t0.hop3");
    for shards in [0usize, 1, 2, 4] {
        let opts = RunOptions { faults: Some(&plan), ..sharded(shards) };
        let (_, run) = transfer_set(DEGRADED_BYTES_PER_FLOW).run_with(&opts);
        let lossy = run.hops.iter().find(|h| h.label == "t0.hop3").expect("t0.hop3 is registered");
        assert!(
            lossy.stats.dropped_loss > 0 && lossy.stats.dropped_outage > 0,
            "the degraded hop must lose packets to both causes"
        );
        let got = digest(run);
        assert_eq!(got, PINNED_DEGRADED, "{shards} shards: digest {got:#018x}");
    }
}

#[test]
fn striped_transfer_report_is_pinned_on_every_kernel() {
    for shards in [0usize, 1, 2, 4] {
        let got = digest(striped().run_with(&sharded(shards)).1);
        assert_eq!(got, PINNED_STRIPED, "{shards} shards: digest {got:#018x}");
    }
}

/// A horizon-bounded run stops with packets admitted to a stage but not
/// yet departed: every per-hop counter (`packets_out`, `bytes_out`,
/// `busy`) and the clock must read as they did when each departure was
/// an event of its own. One digest over 40 cuts of a lossy striped run,
/// 1.37 ms apart so they land at every phase of a 474 µs segment time.
#[test]
fn striped_transfer_cut_at_a_horizon_is_pinned() {
    let plan = degraded_plan(1999, "hop3");
    let got = (1..=40u64).fold(FNV_OFFSET, |h, k| {
        let horizon = SimTime::from_micros(1370 * k);
        let opts = RunOptions { faults: Some(&plan), horizon: Some(horizon), ..sharded(0) };
        fold(h, striped().run_with(&opts).1)
    });
    assert_eq!(got, PINNED_STRIPED_CUT, "digest {got:#018x}");
}
