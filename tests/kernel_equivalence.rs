//! Cross-kernel equivalence: the sharded kernel must be
//! observationally identical to the sequential one. For any topology,
//! traffic mix, and fault plan, the same seed must produce a
//! byte-identical `RunReport` JSON whether the scenario runs on the
//! sequential kernel or on 1, 2, or 4 shards — that is the whole
//! point of the `(time, source, source_seq)` total order on events.

use gtw_desim::component::{msg, Component, ComponentId, Ctx, Msg};
use gtw_desim::{Observer, ShardPlan, ShardedSimulator, SimDuration, SimTime, Simulator};
use gtw_net::aal5::segment;
use gtw_net::ip::IpConfig;
use gtw_net::stripe::StripedTransfer;
use gtw_net::switch::{
    AtmSwitch, CellArrive, CellEndpoint, OutputPort, SwitchStats, VcKey, VcRoute,
};
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;
use proptest::prelude::*;

fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
    HopModel {
        medium: gtw_net::link::Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(prop_us),
    }
}

/// Run the transfer on every kernel configuration and demand identical
/// report bytes.
fn assert_kernels_agree(xfer: &BulkTransfer) {
    let (_, seq) = xfer.run_with(&RunOptions::default());
    let seq_json = seq.to_json().dump();
    for shards in [1usize, 2, 4] {
        let (_, run) = xfer.run_with(&RunOptions { shards, ..RunOptions::default() });
        assert_eq!(run.to_json().dump(), seq_json, "{shards}-shard run diverged");
    }
    // Two sequential runs must also agree with themselves (determinism
    // of the baseline, not just of the sharded kernel).
    let (_, again) = xfer.run_with(&RunOptions::default());
    assert_eq!(again.to_json().dump(), seq_json, "sequential kernel is nondeterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random 2–4 hop TCP paths: rates, propagations, MTUs, windows and
    /// payload sizes all fuzzed; every kernel must emit the same bytes.
    #[test]
    fn random_tcp_paths_are_kernel_invariant(
        seed in any::<u64>(),
        n_hops in 2usize..=4,
        wan_prop_us in 100u64..2_000,
        rate_sel in 0usize..3,
        window_kib in 64u64..1024,
        payload_kib in 128u64..2048,
    ) {
        let rate = [155.0, 622.0, 800.0][rate_sel];
        let mut hops = Vec::new();
        for i in 0..n_hops {
            // One WAN hop in the middle, short local hops elsewhere.
            let prop = if i == n_hops / 2 { wan_prop_us } else { 5 + (seed % 20) };
            hops.push(raw_hop(rate, prop));
        }
        let xfer = BulkTransfer {
            hops,
            ip: IpConfig { mtu: if seed % 2 == 0 { 9180 } else { 65535 } },
            bytes: payload_kib * 1024,
            protocol: Protocol::Tcp { window_bytes: window_kib * 1024 },
        };
        assert_kernels_agree(&xfer);
    }

    /// Seeded fault plans (outages + loss + degradation) on a random
    /// hop: recovery dynamics are timing-sensitive, so this is the
    /// strongest determinism probe we have.
    #[test]
    fn faulted_runs_are_kernel_invariant(
        seed in any::<u64>(),
        wan_prop_us in 200u64..1_000,
        faulted_hop in 0usize..2,
    ) {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, wan_prop_us), raw_hop(622.0, 10)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let plan = degraded_plan(seed, &format!("hop{faulted_hop}"));
        let faulted = RunOptions { faults: Some(&plan), ..RunOptions::default() };
        let (_, seq) = xfer.run_with(&faulted);
        let seq_json = seq.to_json().dump();
        for shards in [1usize, 2, 4] {
            let (_, run) = xfer.run_with(&RunOptions { shards, ..faulted.clone() });
            prop_assert_eq!(run.to_json().dump(), seq_json.clone(), "{} shards diverged", shards);
        }
    }

    /// The same under a recording observer: what it records — every
    /// span in order, how many the ring dropped — is the sequential
    /// run's at any shard count, whether the ring holds the whole run or
    /// overflows, and the report gains one `kernel_metrics` entry per
    /// shard and, those cleared, is the unobserved sequential report.
    #[test]
    fn instrumented_faulted_runs_are_kernel_invariant(
        seed in any::<u64>(),
        wan_prop_us in 200u64..1_000,
        faulted_hop in 0usize..2,
    ) {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, wan_prop_us), raw_hop(622.0, 10)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let plan = degraded_plan(seed, &format!("hop{faulted_hop}"));
        let faulted = RunOptions { faults: Some(&plan), ..RunOptions::default() };
        let (_, seq) = xfer.run_with(&faulted);
        let seq_json = seq.to_json().dump();
        let mut spans_in_a_run = 0;
        for capacity in [1 << 16, 1_000] {
            let observed = |shards: usize| {
                let observer = Observer::with_capacity(capacity);
                let (_, run) = xfer.run_with(&RunOptions {
                    shards,
                    observer: observer.clone(),
                    ..faulted.clone()
                });
                (run, observer.snapshot(), observer.dropped())
            };
            let (seq_run, seq_spans, seq_dropped) = observed(0);
            prop_assert_eq!(seq_run.to_json().dump(), seq_json.clone(), "observing moved the run");
            if capacity > 1_000 {
                prop_assert!(seq_spans.iter().any(|s| s.name == "tx:data"));
                prop_assert_eq!(seq_dropped, 0);
                spans_in_a_run = seq_spans.len();
            } else {
                prop_assert_eq!(seq_spans.len(), capacity);
                prop_assert_eq!(seq_dropped as usize, spans_in_a_run - capacity);
            }
            for shards in [1usize, 2, 4] {
                let (mut run, spans, dropped) = observed(shards);
                prop_assert_eq!(&spans, &seq_spans, "{} shards, capacity {}", shards, capacity);
                prop_assert_eq!(dropped, seq_dropped, "{} shards, capacity {}", shards, capacity);
                prop_assert_eq!(run.kernel_metrics.len(), shards);
                run.kernel_metrics.clear();
                prop_assert_eq!(run.to_json().dump(), seq_json.clone(), "{} shards diverged", shards);
            }
        }
    }

    /// Striped streams share one degraded path: loss recovery on every
    /// stream, the demuxes and the merge order must not see the cut.
    #[test]
    fn faulted_striped_transfers_are_kernel_invariant(
        seed in any::<u64>(),
        wan_prop_us in 200u64..1_000,
        streams in 2usize..=4,
    ) {
        let xfer = StripedTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, wan_prop_us), raw_hop(622.0, 10)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            window_bytes: 512 * 1024,
            streams,
        };
        let plan = degraded_plan(seed, "hop1");
        let faulted = RunOptions { faults: Some(&plan), ..RunOptions::default() };
        let (seq_report, seq) = xfer.run_with(&faulted);
        prop_assert!(seq_report.completed);
        let seq_json = seq.to_json().dump();
        for shards in [1usize, 2, 4] {
            let (_, run) = xfer.run_with(&RunOptions { shards, ..faulted.clone() });
            prop_assert_eq!(run.to_json().dump(), seq_json.clone(), "{} shards diverged", shards);
        }
    }

    /// Multi-flow sets place different transfers on different shards;
    /// the merged report must still match the sequential ordering.
    #[test]
    fn transfer_sets_are_kernel_invariant(
        n_flows in 1usize..=4,
        wan_prop_us in 250u64..1_500,
    ) {
        let mut set = TransferSet::new();
        for k in 0..n_flows as u64 {
            set.add(BulkTransfer {
                hops: vec![
                    raw_hop(622.0, 20),
                    raw_hop(155.0 + 50.0 * k as f64, wan_prop_us),
                    raw_hop(622.0, 20),
                ],
                ip: IpConfig { mtu: 9180 },
                bytes: (1 + k) * 512 * 1024,
                protocol: Protocol::Tcp { window_bytes: 256 * 1024 },
            });
        }
        let (_, seq) = set.run_with(&RunOptions::default());
        let seq_json = seq.to_json().dump();
        for shards in [1usize, 2, 4] {
            let (_, run) = set.run_with(&RunOptions { shards, ..RunOptions::default() });
            prop_assert_eq!(run.to_json().dump(), seq_json.clone(), "{} shards diverged", shards);
        }
        // Observed, with up to four shards busy at the same instants: the
        // spans still come out in the sequential run's order.
        let spans_on = |shards: usize| {
            let observer = Observer::recording();
            set.run_with(&RunOptions { shards, observer: observer.clone(), ..RunOptions::default() });
            observer.snapshot()
        };
        let seq_spans = spans_on(0);
        for shards in [2usize, 4] {
            prop_assert!(spans_on(shards) == seq_spans, "{} shards recorded differently", shards);
        }
    }
}

/// A ping-pong pair for exercising the raw desim sharded kernel.
struct Pinger {
    peer: ComponentId,
    delay: SimDuration,
    remaining: u64,
    seen: u64,
}

struct Ball;

impl Component for Pinger {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        debug_assert!(m.is::<Ball>());
        self.seen += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            let peer = self.peer;
            let delay = self.delay;
            ctx.send_in(delay, peer, msg(Ball));
        }
    }
    fn name(&self) -> &str {
        "pinger"
    }
}

fn pingpong_sim(pairs: usize, delay: SimDuration) -> Simulator {
    let mut sim = Simulator::new();
    for _ in 0..pairs {
        let a = sim.add_component(Pinger {
            peer: ComponentId::placeholder(),
            delay,
            remaining: 25,
            seen: 0,
        });
        let b = sim.add_component(Pinger { peer: a, delay, remaining: 25, seen: 0 });
        sim.component_mut::<Pinger>(a).peer = b;
        sim.send_in(SimDuration::ZERO, a, msg(Ball));
    }
    sim
}

#[test]
fn sharded_pingpong_agrees_with_sequential_at_every_shard_count() {
    let delay = SimDuration::from_micros(500);
    let mut baseline = pingpong_sim(4, delay);
    baseline.run();
    let base_now = baseline.now();
    let base_processed = baseline.events_processed();
    let base_profile = baseline.dispatch_profile();

    for n_shards in [1usize, 2, 4] {
        let plan = ShardPlan::round_robin(n_shards, 8, delay);
        let mut sharded = ShardedSimulator::from_simulator(pingpong_sim(4, delay), &plan);
        sharded.run();
        let merged = sharded.into_simulator();
        assert_eq!(merged.now(), base_now, "{n_shards}");
        assert_eq!(merged.events_processed(), base_processed, "{n_shards}");
        assert_eq!(merged.dispatch_profile(), base_profile, "{n_shards}");
    }
}

// ---- the cell path ---------------------------------------------------

/// The FZJ → GMD cell PVC of `kernel_bench`, smaller: 600 one-cell PDUs
/// and 12 CLIP-MTU ones, a cell per `gap_ns` into the FZJ switch, a
/// 500 µs OC-48 trunk, and the GMD switch's OC-12 port (`gmd_buffer`
/// cells, optionally EPD) into a reassembling endpoint. Returns the
/// simulator and `[fzj, gmd, endpoint]`.
fn cell_pvc(gap_ns: u64, gmd_buffer: usize, epd: Option<usize>) -> (Simulator, [ComponentId; 3]) {
    let mut sim = Simulator::new();
    let endpoint = sim.add_component(CellEndpoint::default());
    let mut port =
        OutputPort::simple(endpoint, 0, Bandwidth::OC12, SimDuration::from_micros(5), gmd_buffer);
    port.epd_threshold = epd;
    let mut gmd = AtmSwitch::new("gmd", vec![port]);
    gmd.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
    let gmd = sim.add_component(gmd);
    let trunk = OutputPort::simple(gmd, 0, Bandwidth::OC48, SimDuration::from_micros(500), 4096);
    let mut fzj = AtmSwitch::new("fzj", vec![trunk]);
    fzj.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
    let fzj = sim.add_component(fzj);
    let mut cells = 0u64;
    for k in 0..612usize {
        let payload = vec![k as u8; if k % 51 == 50 { 9180 } else { 40 }];
        for cell in segment(&payload, 1, 100) {
            sim.send_at(
                SimTime::from_nanos(cells * gap_ns),
                fzj,
                msg(CellArrive { port: 0, cell }),
            );
            cells += 1;
        }
    }
    (sim, [fzj, gmd, endpoint])
}

/// What a cell run leaves behind.
#[derive(PartialEq, Debug)]
struct CellOutcome {
    fzj: SwitchStats,
    gmd: SwitchStats,
    delivered: Vec<((u8, u16), Vec<u8>)>,
    reassembly_errors: u64,
    now: SimTime,
    events: u64,
}

fn cell_outcome(sim: &Simulator, [fzj, gmd, endpoint]: [ComponentId; 3]) -> CellOutcome {
    let ep = sim.component::<CellEndpoint>(endpoint);
    CellOutcome {
        fzj: sim.component::<AtmSwitch>(fzj).stats.clone(),
        gmd: sim.component::<AtmSwitch>(gmd).stats.clone(),
        delivered: ep.delivered.clone(),
        reassembly_errors: ep.errors,
        now: sim.now(),
        events: sim.events_processed(),
    }
}

/// One switch per shard, cut at the trunk. A switch sends a cell on at
/// its computed departure plus fabric latency plus propagation, so every
/// cross-shard send leads its delivery by more than the 500 µs declared.
/// Observed throughout: the per-port `cell` spans and dispatch instants
/// come out in the sequential run's order.
#[test]
fn sharded_cell_pvc_agrees_with_sequential() {
    // Clean: a cell per 700 ns, just under the OC-12 cell time. Lossy: a
    // cell per 300 ns into a 64-cell buffer with EPD at 32.
    for (gap_ns, gmd_buffer, epd) in [(700, 4096, None), (300, 64, Some(32))] {
        let (mut seq, ids) = cell_pvc(gap_ns, gmd_buffer, epd);
        let seq_observer = Observer::recording();
        seq.observe(&seq_observer);
        seq.run();
        let base = cell_outcome(&seq, ids);
        let base_spans = seq_observer.snapshot();
        assert!(base_spans.iter().any(|s| s.track == "gmd/p0" && s.name == "cell"));
        let gmd = &base.gmd;
        match epd {
            None => assert_eq!((gmd.switched, base.reassembly_errors), (gmd.cells_in(), 0)),
            Some(_) => assert!(gmd.epd_discard > 0 && !base.delivered.is_empty(), "{gmd:?}"),
        }
        // One event per cell per switch, one per cell that reaches the
        // endpoint.
        assert_eq!(base.events, base.fzj.cells_in() + gmd.cells_in() + gmd.switched);
        for n_shards in [1usize, 2] {
            let (mut sim, ids) = cell_pvc(gap_ns, gmd_buffer, epd);
            let observer = Observer::recording();
            sim.observe(&observer);
            let mut plan = ShardPlan::new(n_shards, SimDuration::from_micros(500));
            for id in &ids[1..] {
                plan.assign(*id, n_shards - 1);
            }
            let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
            sharded.run();
            let merged = sharded.into_simulator();
            assert_eq!(cell_outcome(&merged, ids), base, "{n_shards} shard(s), gap {gap_ns} ns");
            assert!(observer.snapshot() == base_spans, "{n_shards} shard(s), gap {gap_ns} ns");
            assert_eq!(observer.registries().len(), n_shards);
        }
    }
}
