//! The transfer run reports, pinned: one FNV-1a digest each of
//! `RunReport::to_json().dump()` for a clean multi-flow `TransferSet` and
//! the same set with a degraded WAN hop. The
//! constants were captured while `PipeStage` still armed a `TxDone`
//! timer per packet; the one-event-per-hop stage must reproduce every
//! per-hop counter, latency histogram and endpoint block to the byte, on
//! the sequential kernel and on 1/2/4 shards. Only the kernel's event
//! count is blanked — halving it is the point of that rewrite.
//!
//! The spans of an observed degraded set, and 40 horizon cuts each of
//! that set and of a degraded raw stream, were pinned while every hop was
//! a component of its own, one event per packet; a run of hops admitting
//! a packet at each hop in one event must reproduce them too.

use gtw_desim::{Observer, SimDuration, SimTime};
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::stats::RunReport;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;

const PINNED_CLEAN: u64 = 0x85ab_400d_5875_d661;
const PINNED_DEGRADED: u64 = 0x0c7e_a45a_7718_0c2c;
const PINNED_DEGRADED_SPANS: u64 = 0x7aef_e6cd_585c_e062;
const PINNED_DEGRADED_CUT: u64 = 0x1461_6b8f_823c_7e71;
const PINNED_RAW_CUT: u64 = 0x3bdb_fa19_a498_30aa;
/// The 64-flow × 4 MiB set the deleted kernel-bench bin's `--check` printed:
/// its report digest, captured on the commit before the bin was deleted,
/// and its event count — 352 897 with one event per packet per hop, and
/// this with one per packet per run of hops (at most two runs a
/// direction, split at the WAN hop).
const PINNED_WIDE_EVENTS: u64 = 132_417;
const PINNED_WIDE: u64 = 0x637a_7d18_21f9_20b7;

const FLOWS: u64 = 4;
const BYTES_PER_FLOW: u64 = 256 * 1024;
/// The degraded set moves 4 MiB per flow: flow 0 then runs ~220 ms on its
/// 155 Mbit/s bottleneck, through the plan's 100–150 ms outage and enough
/// segments for its 1 % loss to bite (at 256 KiB the seed drops nothing).
const DEGRADED_BYTES_PER_FLOW: u64 = 4 * 1024 * 1024;

/// Flow `k`'s path on the hop ladder: local-WAN-local,
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

fn transfer_set(flows: u64, bytes_per_flow: u64) -> TransferSet {
    let mut set = TransferSet::new();
    for k in 0..flows {
        set.add(flow(k, bytes_per_flow));
    }
    set
}

fn sharded(shards: usize) -> RunOptions<'static> {
    RunOptions { shards, ..RunOptions::default() }
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

/// FNV-1a, continued from `h`, over `bytes`.
fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A transfer's own summary beside its report: whether it finished, and
/// when it says it stopped.
fn fold_summary(h: u64, completed: bool, elapsed: SimDuration) -> u64 {
    fold_bytes(h, format!("{completed}:{}", elapsed.as_nanos()).as_bytes())
}

/// Horizons for the cuts of a degraded 4 MiB run: 5.73 ms apart, so the
/// 40 of them span its ~220 ms, the 100–150 ms outage included, and step
/// through a 474 µs segment time 42 µs at a time.
fn degraded_horizons() -> impl Iterator<Item = SimTime> {
    (1..=40u64).map(|k| SimTime::from_micros(5730 * k))
}

#[test]
fn clean_transfer_set_report_is_pinned_on_every_kernel() {
    for shards in [0usize, 1, 2, 4] {
        let got = digest(transfer_set(FLOWS, BYTES_PER_FLOW).run_with(&sharded(shards)).1);
        assert_eq!(got, PINNED_CLEAN, "{shards} shards: digest {got:#018x}");
    }
}

#[test]
fn degraded_transfer_set_report_is_pinned_on_every_kernel() {
    let plan = degraded_plan(1999, "t0.hop3");
    for shards in [0usize, 1, 2, 4] {
        let opts = RunOptions { faults: Some(&plan), ..sharded(shards) };
        let (_, run) = transfer_set(FLOWS, DEGRADED_BYTES_PER_FLOW).run_with(&opts);
        let lossy = run.hops.iter().find(|h| h.label == "t0.hop3").expect("t0.hop3 is registered");
        assert!(
            lossy.stats.dropped_loss > 0 && lossy.stats.dropped_outage > 0,
            "the degraded hop must lose packets to both causes"
        );
        let got = digest(run);
        assert_eq!(got, PINNED_DEGRADED, "{shards} shards: digest {got:#018x}");
    }
}

/// The wide set keeps the sequential event heap deep (the `wan_bulk`
/// benchmark workload runs it). One shard count beside the sequential
/// kernel is enough: the 4-flow sets above cover 1/2/4.
#[test]
fn wide_transfer_set_report_is_pinned_on_two_kernels() {
    for shards in [0usize, 2] {
        let (_, run) = transfer_set(64, 4 * 1024 * 1024).run_with(&sharded(shards));
        assert_eq!(run.events_processed, PINNED_WIDE_EVENTS, "{shards} shards");
        let got = digest(run);
        assert_eq!(got, PINNED_WIDE, "{shards} shards: digest {got:#018x}");
    }
}

/// What a stage records, and when, is part of what it does: the sorted
/// `(track, name, begin, end)` multiset of every non-`dispatch` span of
/// the observed degraded set — the `tx`/`flight` intervals of every hop,
/// the senders' `transfer`/`rto-wait` spans — on the sequential kernel
/// and on 2 shards. The kernel's `dispatch` spans (one per event) are
/// left out, and the order spans are recorded in is not part of it.
#[test]
fn degraded_transfer_set_spans_are_pinned_on_two_kernels() {
    let plan = degraded_plan(1999, "t0.hop3");
    for shards in [0usize, 2] {
        let observer = Observer::with_capacity(1 << 20);
        let opts =
            RunOptions { faults: Some(&plan), observer: observer.clone(), ..sharded(shards) };
        transfer_set(FLOWS, DEGRADED_BYTES_PER_FLOW).run_with(&opts);
        assert_eq!(observer.dropped(), 0, "the ring holds every span");
        let mut spans: Vec<_> = observer
            .snapshot()
            .into_iter()
            .filter(|s| s.name != "dispatch")
            .map(|s| (s.track, s.name, s.begin.as_nanos(), s.end.as_nanos()))
            .collect();
        spans.sort();
        assert!(spans.iter().any(|s| s.1 == "flight"), "stage spans are recorded");
        let got = spans.iter().fold(FNV_OFFSET, |h, (track, name, begin, end)| {
            fold_bytes(h, format!("{track}|{name}|{begin}|{end};").as_bytes())
        });
        assert_eq!(got, PINNED_DEGRADED_SPANS, "{shards} shards: digest {got:#018x}");
    }
}

/// The degraded 4-flow TCP set cut at 40 horizons: every report, and
/// each flow's `completed` and `elapsed`, as they read when each hop's
/// arrival was an event of its own.
#[test]
fn degraded_transfer_set_cut_at_a_horizon_is_pinned() {
    let plan = degraded_plan(1999, "t0.hop3");
    let set = transfer_set(FLOWS, DEGRADED_BYTES_PER_FLOW);
    let got = degraded_horizons().fold(FNV_OFFSET, |h, horizon| {
        let opts = RunOptions { faults: Some(&plan), horizon: Some(horizon), ..sharded(0) };
        let (flows, run) = set.run_with(&opts);
        let h = flows.iter().fold(h, |h, f| fold_summary(h, f.completed, f.elapsed));
        fold(h, run)
    });
    assert_eq!(got, PINNED_DEGRADED_CUT, "digest {got:#018x}");
}

/// A degraded raw stream cut at the same 40 horizons: its `completed`
/// flag reads whether any event is still pending, so an arrival past
/// the horizon must still be one.
#[test]
fn degraded_raw_stream_cut_at_a_horizon_is_pinned() {
    let plan = degraded_plan(1999, "hop3");
    let xfer = BulkTransfer { protocol: Protocol::RawStream, ..flow(0, DEGRADED_BYTES_PER_FLOW) };
    let mut completed = 0;
    let got = degraded_horizons().fold(FNV_OFFSET, |h, horizon| {
        let opts = RunOptions { faults: Some(&plan), horizon: Some(horizon), ..sharded(0) };
        let (report, run) = xfer.run_with(&opts);
        completed += u32::from(report.completed);
        fold(fold_summary(h, report.completed, report.elapsed), run)
    });
    assert!(completed > 0 && completed < 40, "the cuts fall both sides of the end");
    assert_eq!(got, PINNED_RAW_CUT, "digest {got:#018x}");
}
