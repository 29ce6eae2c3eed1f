//! Kernel scaling benchmark: the sequential event kernel vs the sharded
//! kernel on a fig1-scale multi-flow scenario (several
//! concurrent TCP bulk transfers crossing a 500 µs WAN section), plus the
//! smallest-packet case on the sequential kernel: a cell-level PVC with
//! 80 k cells scheduled up front (the deep-queue end, where the TCP
//! scenario keeps only a few hundred events pending).
//!
//! ```text
//! cargo run --release -p gtw-bench --bin kernel_bench
//! cargo run --release -p gtw-bench --bin kernel_bench -- --check
//! ```
//!
//! The default mode measures wall-clock and event throughput for the
//! sequential kernel and for 1/2/4 shards, writes the results as
//! machine-readable `BENCH_kernel.json`, and asserts that every
//! configuration produced a byte-identical run report. `--check` skips
//! the timing loop and prints only the deterministic digest (event
//! count + report, and the cell PVC's event count + delivered-bytes
//! digest), for two-run `cmp` gating in CI.

use std::time::Instant;

use gtw_desim::component::msg;
use gtw_desim::{Json, SimDuration, SimTime, Simulator, StreamRng};
use gtw_net::aal5;
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;

const FLOWS: u64 = 64;
const BYTES_PER_FLOW: u64 = 4 * 1024 * 1024;
const REPEATS: usize = 5;

fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
    HopModel {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(prop_us),
    }
}

/// Several concurrent transfers over local-WAN-local paths, enough to
/// keep every shard busy and the sequential event heap deep.
fn scenario() -> TransferSet {
    let mut set = TransferSet::new();
    for k in 0..FLOWS {
        set.add(BulkTransfer {
            hops: vec![
                raw_hop(800.0, 3 + k),
                raw_hop(622.0, 5 + k),
                raw_hop(622.0, 8),
                raw_hop(155.0 + 30.0 * k as f64, 500),
                raw_hop(622.0, 8),
                raw_hop(622.0, 5 + k),
                raw_hop(800.0, 3 + k),
            ],
            ip: IpConfig { mtu: 9180 },
            bytes: BYTES_PER_FLOW,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        });
    }
    set
}

/// The cell PVC: 40 000 one-cell PDUs and 208 CLIP-MTU PDUs (79 936
/// cells, half of them from 40-byte payloads), every cell pre-scheduled
/// one per 700 ns — just under the OC-12 bottleneck's 682 ns cell time,
/// so the second switch queues but never drops — at the FZJ switch →
/// (OC-48, 500 µs) → GMD switch → (OC-12) → reassembling endpoint.
/// Returns the wall-clock seconds of the run loop alone, the events it
/// processed, and the deterministic digest block.
fn cell_pvc() -> (f64, u64, Json) {
    let mut sim = Simulator::new();
    let endpoint = sim.add_component(CellEndpoint::default());
    let port = |next, rate, prop_us| {
        vec![OutputPort::simple(next, 0, rate, SimDuration::from_micros(prop_us), 4096)]
    };
    let mut gmd = AtmSwitch::new("gmd", port(endpoint, Bandwidth::OC12, 5));
    gmd.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
    let gmd = sim.add_component(gmd);
    let mut fzj = AtmSwitch::new("fzj", port(gmd, Bandwidth::OC48, 500));
    fzj.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
    let fzj = sim.add_component(fzj);

    let mut rng = StreamRng::new(1999, "kernel-bench-cells");
    let mut cells = 0u64;
    for k in 0..40_208 {
        // Every 193rd PDU is a large one: 208 of them.
        let mut payload = vec![0u8; if k % 193 == 192 { 9180 } else { 40 }];
        rng.fill_bytes(&mut payload);
        for cell in aal5::segment(&payload, 1, 100) {
            sim.send_at(SimTime::from_nanos(cells * 700), fzj, msg(CellArrive { port: 0, cell }));
            cells += 1;
        }
    }
    let started = Instant::now();
    sim.run();
    let wall_s = started.elapsed().as_secs_f64();

    let switched = |id| sim.component::<AtmSwitch>(id).stats.switched;
    let ep = sim.component::<CellEndpoint>(endpoint);
    assert_eq!((switched(fzj), switched(gmd)), (cells, cells), "the cell PVC must not drop");
    assert_eq!(ep.errors + ep.dropped_msgs, 0, "every PDU must reassemble");
    // FNV-1a over every delivered payload byte, in delivery order.
    let digest =
        ep.delivered.iter().flat_map(|(_, p)| p).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let events = sim.events_processed();
    let block = Json::obj([
        ("events", Json::from(events)),
        ("cells", Json::from(cells)),
        ("pdus_delivered", Json::from(ep.delivered.len() as u64)),
        ("delivered_digest", Json::from(format!("{digest:016x}"))),
    ]);
    (wall_s, events, block)
}

/// Best-of-N wall-clock per kernel configuration. Configurations are
/// interleaved round-robin inside each repeat so transient load on the
/// host penalizes all of them equally.
fn measure(shard_counts: &[usize]) -> Vec<(f64, u64, String)> {
    let set = scenario();
    let mut results = vec![(f64::INFINITY, 0u64, String::new()); shard_counts.len()];
    for _ in 0..REPEATS {
        for (slot, &shards) in shard_counts.iter().enumerate() {
            let started = Instant::now();
            let (_, run) = set.run_with(&RunOptions { shards, ..RunOptions::default() });
            let wall = started.elapsed().as_secs_f64();
            let r = &mut results[slot];
            r.0 = r.0.min(wall);
            r.1 = run.events_processed;
            r.2 = run.to_json().dump();
        }
    }
    results
}

fn main() {
    if gtw_bench::BenchArgs::parse().check {
        // Deterministic digest only: every kernel configuration must
        // agree, and two invocations of this mode must print identical
        // bytes.
        let set = scenario();
        let (_, seq) = set.run_with(&RunOptions::default());
        let seq_json = seq.to_json().dump();
        for shards in [1usize, 2, 4] {
            let (_, run) = set.run_with(&RunOptions { shards, ..RunOptions::default() });
            assert_eq!(run.to_json().dump(), seq_json, "{shards}-shard run diverged");
        }
        println!(
            "{}",
            Json::obj([
                ("events_processed", Json::from(seq.events_processed)),
                ("run", seq.to_json()),
                ("cell_pvc", cell_pvc().2),
            ])
            .pretty()
        );
        return;
    }

    let shard_counts = [0usize, 1, 2, 4];
    let results = measure(&shard_counts);
    let (seq_wall, seq_events, ref seq_report) = results[0];
    let seq_eps = seq_events as f64 / seq_wall;
    println!("sequential: {seq_events} events in {seq_wall:.3} s ({seq_eps:.0} events/s)");

    let mut configs = vec![Json::obj([
        ("kernel", Json::from("sequential")),
        ("shards", Json::from(0u64)),
        ("wall_s", Json::from(seq_wall)),
        ("events", Json::from(seq_events)),
        ("events_per_sec", Json::from(seq_eps)),
        ("speedup", Json::from(1.0)),
    ])];
    for (slot, &shards) in shard_counts.iter().enumerate().skip(1) {
        let (wall, events, ref report) = results[slot];
        assert_eq!(events, seq_events, "{shards}-shard event count diverged");
        assert_eq!(report, seq_report, "{shards}-shard report diverged");
        let eps = events as f64 / wall;
        println!(
            "{shards} shard(s): {events} events in {wall:.3} s ({:.0} events/s, {:.2}x)",
            eps,
            eps / seq_eps
        );
        configs.push(Json::obj([
            ("kernel", Json::from("sharded")),
            ("shards", Json::from(shards as u64)),
            ("wall_s", Json::from(wall)),
            ("events", Json::from(events)),
            ("events_per_sec", Json::from(eps)),
            ("speedup", Json::from(eps / seq_eps)),
        ]));
    }

    let (cell_wall, cell_events, _) =
        (0..REPEATS).map(|_| cell_pvc()).min_by(|a, b| a.0.total_cmp(&b.0)).expect("REPEATS > 0");
    let cell_eps = cell_events as f64 / cell_wall;
    println!("cell PVC: {cell_events} events in {cell_wall:.3} s ({cell_eps:.0} events/s)");

    let doc = Json::obj([
        ("benchmark", Json::from("kernel_scaling")),
        ("scenario", Json::from("64 concurrent TCP flows over a 500us WAN cut")),
        ("flows", Json::from(FLOWS)),
        ("bytes_per_flow", Json::from(BYTES_PER_FLOW)),
        ("repeats", Json::from(REPEATS as u64)),
        ("meta", gtw_bench::meta_json(4)),
        ("configs", Json::Arr(configs)),
        (
            "cell_pvc",
            Json::obj([
                ("scenario", Json::from("80k pre-scheduled cells, 2 AtmSwitches, a CellEndpoint")),
                ("kernel", Json::from("sequential")),
                ("wall_s", Json::from(cell_wall)),
                ("events", Json::from(cell_events)),
                ("events_per_sec", Json::from(cell_eps)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_kernel.json", format!("{}\n", doc.pretty()))
        .expect("write BENCH_kernel.json");
    println!("wrote BENCH_kernel.json");
}
