//! Machine-readable run reports: per-hop network statistics and kernel
//! scheduling counters as one JSON document.
//!
//! Part 1 replays the paper's T3E → SP2 bulk transfer over the testbed
//! path and dumps the [`RunReport`](gtw_net::stats::RunReport) the stats
//! registry collected — per-hop packet/byte counters, service and
//! propagation totals, TCP endpoint state.
//!
//! Part 2 wires the same kind of pipeline by hand, attaches an
//! [`Observer`](gtw_desim::Observer) to the kernel, and includes the
//! per-component dispatch/timer/send counts in the dump — the
//! observability layer end to end.
//!
//! Part 3 adds the application layer: the FIRE per-stage latency
//! breakdown (acquire/transfers/compute/display, summing to the
//! end-to-end scan-to-display latency) and the measured latency
//! distribution of the event-driven chain run.
//!
//! ```text
//! cargo run --release --example run_report
//! cargo run --release --example run_report -- --faults 1999
//! cargo run --release --example run_report -- --process-faults 1999
//! ```
//!
//! With `--faults <seed>` the Part-1 transfer runs under the canonical
//! degraded-WAN [`FaultPlan`](gtw_desim::fault::FaultPlan) (1% i.i.d.
//! loss plus one 50 ms outage on the WAN hop, streams keyed by the
//! seed): the report then attributes every drop to its injected cause,
//! and two runs with the same seed print byte-identical JSON.
//!
//! With `--process-faults <seed>` the Part-3 chain additionally runs
//! under a canonical compute-world fault script (a T3E crash at t = 20 s
//! and a hang at t = 80 s, seeded) with checkpoint-restart recovery; the
//! `fire_recovery` key then reports the per-cause recovery counters.
//!
//! With `--congestion <seed>` the Part-3 chain additionally runs under a
//! seeded plan of WAN congestion windows (1–3 slowdown episodes, 2–5×)
//! with graceful degradation enabled: the chain sheds image resolution
//! to hold the paper's 5 s realtime deadline, and the `fire_congestion`
//! key reports the [`DegradeStats`](gtw_fire::realtime::DegradeStats).
//!
//! With `--control-faults <seed>` the report additionally runs the
//! canonical partitioned-control-plane scenario (a 3-replica
//! [`ReplicaGroup`](gtw_net::replica::ReplicaGroup) under a seeded
//! leader crash, a minority partition and a blip storm) and includes
//! the availability/fail-over numbers under the `signaling_replication`
//! key. All flags only *add* keys — clean output stays byte-identical.

use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::{ComponentId, Json, Observer, SimDuration, Simulator};
use gtw_fire::realtime::ChainOptions;
use gtw_net::ip::IpConfig;
use gtw_net::link::{Medium, PipeStage, StageConfig};
use gtw_net::stats::StatsRegistry;
use gtw_net::tcp::{StartTransfer, TcpConfig, TcpReceiver, TcpSender};
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions};
use gtw_net::units::Bandwidth;

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() {
    let fault_seed: Option<u64> =
        arg_value("--faults").map(|s| s.parse().expect("--faults takes a u64 seed"));
    let process_fault_seed: Option<u64> = arg_value("--process-faults")
        .map(|s| s.parse().expect("--process-faults takes a u64 seed"));
    let congestion_seed: Option<u64> =
        arg_value("--congestion").map(|s| s.parse().expect("--congestion takes a u64 seed"));
    let control_fault_seed: Option<u64> = arg_value("--control-faults")
        .map(|s| s.parse().expect("--control-faults takes a u64 seed"));
    // ── Part 1: testbed transfer via the high-level API ──────────────
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, mtu, _) = tb.topology.path(tb.t3e_600, tb.sp2).expect("path T3E -> SP2");
    let xfer = BulkTransfer {
        hops: tb.topology.path_hops(&path, mtu),
        ip: IpConfig { mtu },
        bytes: 32 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
    };
    // The WAN hop on the FZJ–GMD path sits mid-chain.
    let plan = fault_seed.map(|seed| degraded_plan(seed, &format!("hop{}", xfer.hops.len() / 2)));
    let (summary, run) =
        xfer.run_with(&RunOptions { faults: plan.as_ref(), ..RunOptions::default() });
    eprintln!(
        "T3E -> SP2, 32 MiB over {} hops: {:.1} Mbit/s ({} retransmits{})",
        xfer.hops.len(),
        summary.goodput.mbps(),
        summary.retransmits,
        match fault_seed {
            Some(seed) => format!(", degraded WAN, seed {seed}"),
            None => String::new(),
        },
    );

    // ── Part 2: hand-wired pipeline with the kernel observed ─────────
    let mut sim = Simulator::new();
    let observer = Observer::recording();
    sim.observe(&observer);
    let mut reg = StatsRegistry::new();
    let cfg_stage = StageConfig {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(500),
        buffer_bytes: u64::MAX,
    };
    let fwd =
        sim.add_component(PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder()));
    let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
    let tcp = TcpConfig::bulk(1, 8 * 1024 * 1024, IpConfig { mtu: 9180 }, 2 * 1024 * 1024);
    let receiver = sim.add_component(TcpReceiver::new(1, tcp.total_bytes, rev));
    let sender = sim.add_component(TcpSender::new(tcp, fwd));
    sim.component_mut::<PipeStage>(fwd).next = receiver;
    sim.component_mut::<PipeStage>(rev).next = sender;
    reg.add_stage(fwd);
    reg.add_stage(rev);
    reg.add_tcp_sender(sender);
    reg.add_tcp_receiver(receiver);
    sim.send_in(SimDuration::ZERO, sender, gtw_desim::component::msg(StartTransfer));
    sim.run();
    let traced = reg.collect(&sim);
    // Per component, in slot order.
    let counts =
        |of: &dyn Fn(ComponentId) -> u64| Json::uint_array(&[fwd, rev, receiver, sender].map(of));
    let kernel_counters = Json::obj([
        ("dispatches", counts(&|id| sim.dispatches_to(id))),
        ("timers_armed", counts(&|id| observer.timers_armed_by(id))),
        ("sends", counts(&|id| observer.sends_by(id))),
        ("calls", Json::from(observer.calls())),
    ]);

    // ── Part 3: FIRE per-stage latency breakdown ─────────────────────
    // Stage times derived from the same testbed the transfers above ran
    // on; the stages must account for the end-to-end latency (within 1%
    // — here exactly, since the scenario's total is their sum).
    let fire = FmriScenario::paper(256).run();
    let stage_sum = fire.acquire_s + fire.transfers_s + fire.compute_s + fire.display_s;
    assert!(
        ((stage_sum - fire.total_s) / fire.total_s).abs() < 0.01,
        "stage breakdown {stage_sum} s does not account for the end-to-end {} s",
        fire.total_s
    );
    let chain_cfg = gtw_fire::realtime::RealtimeConfig {
        tr_s: 3.0,
        acquire_s: fire.acquire_s,
        transfer_s: fire.transfers_s,
        compute_s: fire.compute_s,
        display_s: fire.display_s,
        scans: 40,
    };
    let chain = gtw_fire::realtime::run_chain(chain_cfg, gtw_fire::realtime::ChainMode::Pipelined);
    // The resilient chain: a scripted T3E crash and hang, recovered by
    // checkpoint-restart. Only run (and only reported) under the flag.
    let recovery_json = process_fault_seed.map(|seed| {
        use gtw_desim::SimTime;
        let mut plan = gtw_desim::fault::ProcessFaultPlan::new(seed);
        plan.crash_at(1, SimTime::from_secs_f64(20.0)).hang_at(2, SimTime::from_secs_f64(80.0));
        // Warm-standby respawn (1 s): short enough that the in-flight
        // scan is re-processed from the checkpoint instead of being
        // superseded by the next raw image.
        let recovery_cfg = gtw_fire::realtime::RecoveryConfig { detect_s: 0.3, respawn_s: 1.0 };
        let faulted = gtw_fire::realtime::run_chain_with(
            chain_cfg,
            gtw_fire::realtime::ChainMode::Sequential,
            &ChainOptions { process_faults: plan, recovery: recovery_cfg, ..Default::default() },
        );
        let recovery = faulted.recovery.expect("fault plan installed");
        let mut j = recovery.to_json();
        j.push("seed", Json::from(seed));
        j.push("displayed", Json::from(faulted.displayed));
        j.push("skipped", Json::from(faulted.skipped));
        j.push("mean_latency_s", Json::from(faulted.mean_latency_s));
        j
    });
    // The congested chain: seeded WAN slowdown windows, survived by
    // shedding resolution instead of the deadline. Flag-gated, like the
    // fault runs, so clean output is untouched.
    let congestion_json = congestion_seed.map(|seed| {
        use gtw_desim::fault::{Schedule, Window};
        use gtw_desim::rng::StreamRng;
        use gtw_desim::SimTime;
        use gtw_fire::realtime::{run_chain_with, Congestion, DegradeConfig};
        let mut rng = StreamRng::new(seed, "report/congestion");
        let n = 1 + (rng.below(3) as usize);
        let mut windows = Vec::new();
        for _ in 0..n {
            let start = rng.uniform_in(5.0, 90.0);
            let len = rng.uniform_in(5.0, 30.0);
            windows.push(Window::new(
                SimTime::from_secs_f64(start),
                SimTime::from_secs_f64(start + len),
            ));
        }
        let congestion = Congestion::new(Schedule::new(windows), rng.uniform_in(2.0, 5.0));
        let congested = run_chain_with(
            chain_cfg,
            gtw_fire::realtime::ChainMode::Sequential,
            &ChainOptions {
                congestion: Some((congestion, DegradeConfig::paper())),
                ..Default::default()
            },
        );
        let stats = congested.degrade.expect("congestion installed");
        let mut j = stats.to_json();
        j.push("seed", Json::from(seed));
        j.push("displayed", Json::from(congested.displayed));
        j.push("skipped", Json::from(congested.skipped));
        j.push("max_latency_s", Json::from(congested.latency.max().as_secs_f64()));
        j
    });
    let fire_json = Json::obj([
        ("pes", Json::from(fire.pes)),
        ("acquire_s", Json::from(fire.acquire_s)),
        ("transfers_s", Json::from(fire.transfers_s)),
        ("compute_s", Json::from(fire.compute_s)),
        ("display_s", Json::from(fire.display_s)),
        ("stage_sum_s", Json::from(stage_sum)),
        ("total_s", Json::from(fire.total_s)),
        ("scan_to_display", chain.latency.to_json()),
    ]);

    // One document: the stdout of this example is valid JSON. The
    // fault_seed key only appears in degraded runs, so clean output is
    // byte-identical to pre-fault builds.
    let mut doc = Json::obj([("t3e_to_sp2", run.to_json()), ("traced_pipeline", traced.to_json())]);
    doc.push("kernel_counters", kernel_counters);
    doc.push("fire_breakdown", fire_json);
    if let Some(recovery) = recovery_json {
        doc.push("fire_recovery", recovery);
    }
    if let Some(congestion) = congestion_json {
        doc.push("fire_congestion", congestion);
    }
    // The replicated control plane under the canonical fault storm:
    // leader crash, minority partition, link blips — plus the
    // multi-domain hand-off scenario (three replicated domains, a
    // live membership change, and log-committed gateway epochs).
    // Flag-gated like the other fault runs, so clean output is
    // untouched.
    if let Some(seed) = control_fault_seed {
        doc.push("signaling_replication", gtw_net::replica::control_fault_report(seed));
        doc.push("multi_domain", gtw_net::replica::multi_domain_fault_report(seed));
    }
    if let Some(seed) = fault_seed {
        doc.push("fault_seed", Json::from(seed));
    }
    println!("{}", doc.pretty());
}
