//! The benchmark **trajectory** harness: one reduced-workload pass over
//! every paper artifact (fig1–fig4, table1), the flat-vs-topology
//! collectives comparison, the replicated-control-plane availability
//! scenario, and the kernel shard sweep,
//! emitted as a single machine-readable `BENCH_trajectory.json` so the
//! repo's performance story can be tracked commit over commit.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin trajectory                    # write BENCH_trajectory.json
//! cargo run --release -p gtw-bench --bin trajectory -- --deterministic # print virtual-time doc only
//! cargo run --release -p gtw-bench --bin trajectory -- --check         # diff against the committed baseline
//! ```
//!
//! Every entry separates *deterministic* quantities (virtual-time
//! latency percentiles, event counts, model outputs — identical on every
//! host and every run) from *measured* ones (`wall_s`,
//! `events_per_sec`, `speedup`, the host `meta` block).
//! `--deterministic` strips the measured keys and prints the remainder;
//! CI runs it twice and `cmp`s the outputs. `--check` recomputes the
//! deterministic quantities and diffs them against the committed
//! `BENCH_trajectory.json` with a relative tolerance (`--tolerance`,
//! default 0.02), printing one path-labelled line per deviation.

use std::time::Instant;

use gtw_bench::BenchArgs;
use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::{Json, SimDuration};
use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_fire::realtime::{run_chain, ChainMode, RealtimeConfig};
use gtw_fire::t3e::T3eModel;
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Dims;
use gtw_viz::raycast::{RenderParams, VolumeRenderer};
use gtw_viz::workbench::{workbench_frame_rate, FrameTransport, Workbench};

const BASELINE: &str = "BENCH_trajectory.json";

/// Keys whose values depend on the host or the wall clock; stripped
/// before any determinism comparison.
const NONDET_KEYS: [&str; 4] = ["meta", "wall_s", "events_per_sec", "speedup"];

/// Fig 1 reduced: one TCP bulk transfer on the testbed's T3E-600 ->
/// E5000 path at the MTU-argument operating point.
fn bench_fig1() -> Json {
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).expect("path");
    let mtu = 9180;
    let xfer = BulkTransfer {
        hops: tb.topology.path_hops(&path, mtu),
        ip: IpConfig { mtu },
        bytes: 8 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
    };
    let started = Instant::now();
    let (report, run) = xfer.run_with(&RunOptions::default());
    let wall = started.elapsed().as_secs_f64();
    Json::obj([
        ("scenario", Json::from("fig1_network")),
        ("events", Json::from(run.events_processed)),
        ("goodput_mbps", Json::from(report.goodput.mbps())),
        ("retransmits", Json::from(report.retransmits)),
        ("wall_s", Json::from(wall)),
        ("events_per_sec", Json::from(run.events_processed as f64 / wall)),
    ])
}

/// Fig 2 reduced: the pipelined scan-to-display chain at the paper's
/// operating point; the latency percentiles are virtual-time.
fn bench_fig2() -> Json {
    let r = FmriScenario::paper(256).run();
    let cfg = RealtimeConfig {
        tr_s: 3.0,
        acquire_s: r.acquire_s,
        transfer_s: r.transfers_s,
        compute_s: r.compute_s,
        display_s: r.display_s,
        scans: 40,
    };
    let started = Instant::now();
    let m = run_chain(cfg, ChainMode::Pipelined);
    let wall = started.elapsed().as_secs_f64();
    Json::obj([
        ("scenario", Json::from("fig2_latency")),
        ("scanned", Json::from(m.scanned)),
        ("displayed", Json::from(m.displayed)),
        ("latency_p50_s", Json::from(m.latency.p50().as_secs_f64())),
        ("latency_p99_s", Json::from(m.latency.p99().as_secs_f64())),
        ("period_s", Json::from(m.period_s)),
        ("wall_s", Json::from(wall)),
    ])
}

/// Fig 3 reduced: a 12-scan FIRE pipeline pass over the phantom; the
/// correlation-map statistics are deterministic.
fn bench_fig3() -> Json {
    let scanner = Scanner::new(ScannerConfig::paper_default(12, 33), Phantom::standard());
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);
    let mut fire = FirePipeline::new(FireConfig::default(), scanner.config().dims, rv);
    let started = Instant::now();
    for t in 0..scanner.scan_count() {
        fire.process(&scanner.acquire(t));
    }
    let wall = started.elapsed().as_secs_f64();
    let map = fire.correlation_map();
    let over = map.data.iter().filter(|&&c| c >= fire.config().clip_level).count();
    Json::obj([
        ("scenario", Json::from("fig3_overlay")),
        ("scans", Json::from(scanner.scan_count())),
        ("voxels_above_clip", Json::from(over)),
        ("max_correlation", Json::from(map.min_max().1 as f64)),
        ("wall_s", Json::from(wall)),
    ])
}

/// Fig 4 reduced: a quarter-size ray-cast frame plus the workbench
/// transport arithmetic (the latter is a pure model, fully
/// deterministic).
fn bench_fig4() -> Json {
    let phantom = Phantom::standard();
    let dims = Dims::new(64, 64, 32);
    let renderer = VolumeRenderer::new(phantom.anatomy(dims), Some(phantom.activation_map(dims)));
    let started = Instant::now();
    let frame = renderer.render(&RenderParams { width: 256, height: 256, ..Default::default() });
    let wall = started.elapsed().as_secs_f64();
    let wb = Workbench::paper();
    let hop622 = gtw_net::host::HostNic::workstation_atm622().hop(SimDuration::from_micros(500));
    let (fps622, _) =
        workbench_frame_rate(&wb, FrameTransport::RawIp, &[hop622], IpConfig::large_mtu());
    Json::obj([
        ("scenario", Json::from("fig4_workbench")),
        ("coverage", Json::from(frame.coverage())),
        ("atm622_raw_ip_fps", Json::from(fps622)),
        ("wall_s", Json::from(wall)),
    ])
}

/// Table 1: the calibrated T3E model's 256-PE row. `model_speedup` is a
/// model output, not a wall-clock ratio, so it survives the strip.
fn bench_table1() -> Json {
    let started = Instant::now();
    let rows = T3eModel::t3e_600().table1();
    let wall = started.elapsed().as_secs_f64();
    let last = rows.last().expect("table1 rows");
    Json::obj([
        ("scenario", Json::from("table1")),
        ("pes", Json::from(last.pes)),
        ("total_s", Json::from(last.total_s)),
        ("model_speedup", Json::from(last.speedup)),
        ("wall_s", Json::from(wall)),
    ])
}

/// Collectives reduced: the same 8-rank/2-site allreduce on the flat
/// and the topology-aware path. WAN crossings scale with ranks on the
/// flat path and with sites on the topo path; the virtual WAN seconds
/// follow the same ratio. Everything but `wall_s` is deterministic.
fn bench_collectives() -> Json {
    use gtw_mpi::{CommTopology, FabricSpec, MachineSpec, Placement, ReduceOp, Universe};
    const ROUNDS: usize = 4;
    let placement = Placement::split(
        8,
        4,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let model = CommTopology::from_placement(&placement);
    let run = |topo: bool| -> (u64, f64) {
        let costs = Universe::run_placed(placement.clone(), move |comm| {
            let contrib = [0.25 * comm.rank() as f64, 1.0];
            for _ in 0..ROUNDS {
                if topo {
                    comm.allreduce_topo_f64s(ReduceOp::Sum, &contrib);
                } else {
                    comm.allreduce_f64s(ReduceOp::Sum, &contrib);
                }
            }
            let c = comm.comm_cost();
            (c.wan_messages, c.wan_seconds)
        });
        let wan_messages = costs.iter().map(|&(m, _)| m).sum();
        let wan_seconds = costs.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        (wan_messages, wan_seconds)
    };
    let started = Instant::now();
    let (flat_wan, flat_s) = run(false);
    let (topo_wan, topo_s) = run(true);
    let wall = started.elapsed().as_secs_f64();
    Json::obj([
        ("scenario", Json::from("collectives")),
        ("ranks", Json::from(8u64)),
        ("sites", Json::from(model.num_sites() as u64)),
        ("rounds", Json::from(ROUNDS as u64)),
        ("model_flat_crossings", Json::from(model.flat_allreduce_wan_crossings())),
        ("model_topo_crossings", Json::from(model.topo_allreduce_wan_crossings())),
        ("flat_wan_messages", Json::from(flat_wan)),
        ("topo_wan_messages", Json::from(topo_wan)),
        ("flat_wan_seconds", Json::from(flat_s)),
        ("topo_wan_seconds", Json::from(topo_s)),
        ("wall_s", Json::from(wall)),
    ])
}

/// Control plane reduced: the canonical partitioned-control-plane
/// scenario — a 3-replica signalling group under a seeded leader crash,
/// a minority partition and a blip storm, with 200 calls offered
/// through it. Availability, fail-over and convergence fields are
/// virtual-time deterministic; only `wall_s` is measured.
fn bench_control_plane() -> Json {
    let started = Instant::now();
    let report = gtw_net::replica::control_fault_report(1999);
    let wall = started.elapsed().as_secs_f64();
    let pick = |k: &str| report.get(k).cloned().unwrap_or_else(|| panic!("report key {k}"));
    Json::obj([
        ("scenario", Json::from("control_plane")),
        ("seed", pick("seed")),
        ("offered", pick("offered")),
        ("placed", pick("placed")),
        ("availability", pick("availability")),
        ("placed_during_faults", pick("placed_during_faults")),
        ("max_place_latency_s", pick("max_place_latency_s")),
        ("elections", pick("elections")),
        ("redirects", pick("redirects")),
        ("retries", pick("retries")),
        ("states_converged", pick("states_converged")),
        ("committed_mbps", pick("committed_mbps")),
        ("wall_s", Json::from(wall)),
    ])
}

/// Multi-domain hand-off reduced: three per-domain replica groups
/// admitting 200 cross-domain calls with the two-phase protocol, under
/// the canonical fault mix (origin leader crash, middle-domain
/// partition, destination blips, double log-committed gateway
/// fail-over, live membership change). All fields but `wall_s` are
/// virtual-time deterministic.
fn bench_multi_domain() -> Json {
    let started = Instant::now();
    let report = gtw_net::replica::multi_domain_fault_report(1999);
    let wall = started.elapsed().as_secs_f64();
    let pick = |k: &str| report.get(k).cloned().unwrap_or_else(|| panic!("report key {k}"));
    Json::obj([
        ("scenario", Json::from("multi_domain")),
        ("seed", pick("seed")),
        ("offered", pick("offered")),
        ("placed", pick("placed")),
        ("availability", pick("availability")),
        ("handoffs_confirmed", pick("handoffs_confirmed")),
        ("handoffs_aborted", pick("handoffs_aborted")),
        ("max_dedup_table", pick("max_dedup_table")),
        ("gateway_failovers", pick("gateway_failovers")),
        ("epoch_grants", pick("epoch_grants")),
        ("budgets_conserved", pick("budgets_conserved")),
        ("states_converged", pick("states_converged")),
        ("committed_mbps", pick("committed_mbps")),
        ("wall_s", Json::from(wall)),
    ])
}

fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
    HopModel {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(prop_us),
    }
}

/// The kernel_bench scenario at trajectory scale: 16 concurrent flows,
/// 1 MiB each, over local-WAN-local paths.
fn sweep_scenario() -> TransferSet {
    let mut set = TransferSet::new();
    for k in 0..16u64 {
        set.add(BulkTransfer {
            hops: vec![
                raw_hop(800.0, 3 + k),
                raw_hop(622.0, 8),
                raw_hop(155.0 + 30.0 * k as f64, 500),
                raw_hop(622.0, 8),
                raw_hop(800.0, 3 + k),
            ],
            ip: IpConfig { mtu: 9180 },
            bytes: 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 256 * 1024 },
        });
    }
    set
}

/// Sequential vs 1/2/4 shards on the sweep scenario, best-of-2
/// interleaved; asserts every configuration's report is byte-identical
/// to the sequential one (the kernel's contract).
fn bench_shard_sweep() -> Vec<Json> {
    let set = sweep_scenario();
    let counts = [0usize, 1, 2, 4];
    let mut results = vec![(f64::INFINITY, 0u64, String::new()); counts.len()];
    for _ in 0..2 {
        for (slot, &shards) in counts.iter().enumerate() {
            let started = Instant::now();
            let (_, run) = set.run_with(&RunOptions { shards, ..RunOptions::default() });
            let wall = started.elapsed().as_secs_f64();
            let r = &mut results[slot];
            r.0 = r.0.min(wall);
            r.1 = run.events_processed;
            r.2 = run.to_json().dump();
        }
    }
    let (seq_wall, seq_events, ref seq_report) = results[0];
    let mut entries = Vec::new();
    for (slot, &shards) in counts.iter().enumerate() {
        let (wall, events, ref report) = results[slot];
        assert_eq!(events, seq_events, "{shards}-shard event count diverged");
        assert_eq!(report, seq_report, "{shards}-shard report diverged");
        let eps = events as f64 / wall;
        entries.push(Json::obj([
            ("shards", Json::from(shards)),
            ("events", Json::from(events)),
            ("wall_s", Json::from(wall)),
            ("events_per_sec", Json::from(eps)),
            ("speedup", Json::from(seq_wall / wall)),
        ]));
    }
    entries
}

/// Remove every host/wall-clock-dependent key, recursively.
fn strip(j: &mut Json) {
    match j {
        Json::Obj(pairs) => {
            pairs.retain(|(k, _)| !NONDET_KEYS.contains(&k.as_str()));
            for (_, v) in pairs {
                strip(v);
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(strip),
        _ => {}
    }
}

/// Structural diff with relative tolerance on numeric leaves; one
/// path-labelled line per deviation.
fn diff(path: &str, ours: &Json, base: &Json, tol: f64, out: &mut Vec<String>) {
    match (ours, base) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (k, va) in a {
                match b.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff(&format!("{path}.{k}"), va, vb, tol, out),
                    None => out.push(format!("{path}.{k}: missing from baseline")),
                }
            }
            for (k, _) in b {
                if !a.iter().any(|(ka, _)| ka == k) {
                    out.push(format!("{path}.{k}: missing from current run"));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: {} entries vs baseline {}", a.len(), b.len()));
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                diff(&format!("{path}[{i}]"), va, vb, tol, out);
            }
        }
        _ => {
            if let (Some(x), Some(y)) = (ours.as_f64(), base.as_f64()) {
                if (x - y).abs() / y.abs().max(1e-9) > tol {
                    out.push(format!("{path}: {x} vs baseline {y}"));
                }
            } else if ours != base {
                out.push(format!("{path}: {} vs baseline {}", ours.dump(), base.dump()));
            }
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    let deterministic = gtw_bench::has_flag("--deterministic");
    let tol: f64 = gtw_bench::arg_value("--tolerance")
        .map(|s| s.parse().expect("--tolerance takes a float"))
        .unwrap_or(0.02);

    let benches = vec![
        bench_fig1(),
        bench_fig2(),
        bench_fig3(),
        bench_fig4(),
        bench_table1(),
        bench_collectives(),
        bench_control_plane(),
        bench_multi_domain(),
    ];
    let sweep = bench_shard_sweep();
    let mut doc = Json::obj([
        ("benchmark", Json::from("trajectory")),
        ("meta", gtw_bench::meta_json(4)),
        ("benches", Json::Arr(benches)),
        ("shard_sweep", Json::Arr(sweep)),
    ]);

    if deterministic {
        strip(&mut doc);
        println!("{}", doc.pretty());
        return;
    }
    if args.check {
        let text = std::fs::read_to_string(BASELINE)
            .unwrap_or_else(|e| panic!("trajectory --check: cannot read {BASELINE}: {e}"));
        let mut base = Json::parse(&text).expect("baseline parses");
        strip(&mut base);
        strip(&mut doc);
        let mut diffs = Vec::new();
        diff("$", &doc, &base, tol, &mut diffs);
        if diffs.is_empty() {
            println!("trajectory check OK — deterministic fields within {tol} of {BASELINE}");
            return;
        }
        for d in &diffs {
            eprintln!("trajectory drift: {d}");
        }
        eprintln!("{} deviation(s) vs {BASELINE} (tolerance {tol})", diffs.len());
        std::process::exit(1);
    }

    for b in doc.get("benches").and_then(Json::as_arr).expect("benches") {
        let name = b.get("scenario").and_then(Json::as_str).unwrap_or("?");
        let wall = b.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
        println!("{name:<16} {:.3} s", wall);
    }
    for s in doc.get("shard_sweep").and_then(Json::as_arr).expect("sweep") {
        let shards = s.get("shards").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let eps = s.get("events_per_sec").and_then(Json::as_f64).unwrap_or(0.0);
        let speedup = s.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
        println!("kernel {shards} shard(s): {eps:.0} events/s ({speedup:.2}x)");
    }
    std::fs::write(BASELINE, format!("{}\n", doc.pretty()))
        .unwrap_or_else(|e| panic!("write {BASELINE}: {e}"));
    println!("wrote {BASELINE}");
}
