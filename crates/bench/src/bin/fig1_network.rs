//! Regenerate **Figure 1**'s quantitative content: the testbed
//! configuration's throughput matrix, the MTU sweep behind the
//! "64 KByte MTU" argument, and the HiPPI block-size curve.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin fig1_network
//! cargo run --release -p gtw-bench --bin fig1_network -- --json
//! cargo run --release -p gtw-bench --bin fig1_network -- --trace-out trace.json
//! ```
//!
//! `--json` emits the MTU sweep as a machine-readable run report (per-hop
//! counters from the stats registry) instead of tables. The other flags
//! each set one field of the transfers' `RunOptions`, so they combine:
//!
//! * `--faults <seed>` — every transfer runs under the canonical
//!   degraded-WAN plan (1% i.i.d. loss plus a 50 ms outage on the WAN
//!   hop). The same seed reproduces the same output byte for byte, and
//!   the reports attribute every drop to its injected cause.
//! * `--shards N` — the transfers run on the sharded kernel, split at
//!   the WAN link. The output is byte-identical to the sequential run
//!   (that is the kernel's contract and is gated in CI).
//! * `--kernel-metrics` (needs `--shards N`) — each run report gains the
//!   `kernel_metrics` summary block and the document a host `meta`
//!   block; behind a flag so the default sharded output stays
//!   byte-identical to the sequential sweep.
//!
//! `--trace-out <path>` runs the 9180-byte-MTU transfer under a
//! recording observer and writes a Chrome trace-event file loadable in
//! Perfetto: the spans (per-hop `tx`/`flight`, TCP `transfer`/`rto-wait`,
//! kernel dispatch instants), the same on any kernel, and with
//! `--shards N` also the per-shard kernel metrics (events, queue depth,
//! lookahead utilization, cross-shard events) sampled at each
//! conservative-window boundary, as counter tracks. In table mode
//! `--faults` prints the degraded T3E → SP2 transfer instead of the
//! figure.

use gtw_bench::BenchArgs;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::fault::FaultPlan;
use gtw_desim::{Json, Observer};
use gtw_net::hippi::HippiChannel;
use gtw_net::ip::IpConfig;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions};
use gtw_net::units::DataSize;

/// The degraded-WAN plan for `--faults <seed>` on a path of `hops`: the
/// WAN hop sits mid-chain.
fn wan_plan(faults: Option<u64>, hops: &[HopModel]) -> Option<FaultPlan> {
    faults.map(|seed| degraded_plan(seed, &format!("hop{}", hops.len() / 2)))
}

/// The MTU sweep as a JSON document: one entry per MTU with the goodput
/// and the full per-hop run report.
fn emit_json(tb: &GigabitTestbedWest, bytes: u64, args: &BenchArgs) {
    if args.kernel_metrics {
        assert!(args.shards > 0, "--kernel-metrics instruments the sharded kernel; add --shards N");
    }
    let (path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).expect("path");
    let mut sweep = Vec::new();
    for mtu in [1500u64, 4352, 9180, 17914, 65535] {
        let hops = tb.topology.path_hops(&path, mtu);
        let plan = wan_plan(args.faults, &hops);
        let opts = RunOptions {
            shards: args.shards,
            faults: plan.as_ref(),
            observer: if args.kernel_metrics {
                Observer::recording()
            } else {
                Observer::disabled()
            },
            ..RunOptions::default()
        };
        let (ip, window_bytes) = (IpConfig { mtu }, 4 * 1024 * 1024);
        let xfer = BulkTransfer { hops, ip, bytes, protocol: Protocol::Tcp { window_bytes } };
        let (report, run) = xfer.run_with(&opts);
        sweep.push(Json::obj([
            ("mtu", Json::from(mtu)),
            ("goodput_mbps", Json::from(report.goodput.mbps())),
            ("predicted_mbps", Json::from(xfer.predict().mbps())),
            ("run", run.to_json()),
        ]));
    }
    let mut doc = Json::obj([
        ("experiment", Json::from("mtu_sweep_t3e600_to_e5000")),
        ("bytes", Json::from(bytes)),
    ]);
    // Conditional: clean-run output stays byte-identical to older builds.
    if let Some(seed) = args.faults {
        doc.push("fault_seed", Json::from(seed));
    }
    if args.kernel_metrics {
        doc.push("meta", gtw_bench::meta_json(args.shards));
    }
    doc.push("sweep", Json::Arr(sweep));
    println!("{}", doc.pretty());
}

/// Trace one transfer (the MTU-argument configuration at 9180 bytes)
/// and write the Chrome trace to `path`: per-hop and per-sender spans,
/// plus — on the sharded kernel, which samples its metrics every
/// conservative window — queue depth, lookahead utilization and
/// cross-shard traffic per shard as Perfetto counter tracks.
fn emit_trace(tb: &GigabitTestbedWest, path: &str, args: &BenchArgs) {
    let (net_path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).expect("path");
    let mtu = 9180;
    let xfer = BulkTransfer {
        hops: tb.topology.path_hops(&net_path, mtu),
        ip: IpConfig { mtu },
        bytes: 4 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
    };
    let plan = wan_plan(args.faults, &xfer.hops);
    let observer = Observer::recording();
    let (report, _) = xfer.run_with(&RunOptions {
        shards: args.shards,
        faults: plan.as_ref(),
        observer: observer.clone(),
        ..RunOptions::default()
    });
    let on = if args.shards > 0 { format!(" on {} shard(s)", args.shards) } else { String::new() };
    println!(
        "traced T3E-600 -> E5000 transfer{on}: {:.1} Mbit/s, {} retransmits",
        report.goodput.mbps(),
        report.retransmits
    );
    gtw_bench::write_trace(&observer, path);
}

fn main() {
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let bytes = 32 * 1024 * 1024;
    let args = BenchArgs::parse();
    let (faults, shards) = (args.faults, args.shards);
    if args.json {
        emit_json(&tb, bytes, &args);
        return;
    }
    if let Some(path) = &args.trace_out {
        emit_trace(&tb, path, &args);
        return;
    }
    if let Some(seed) = faults {
        // Table mode with faults: the degraded T3E -> SP2 transfer, with
        // per-cause drop attribution.
        let (path, mtu, _) = tb.topology.path(tb.t3e_600, tb.sp2).expect("path");
        let xfer = BulkTransfer {
            hops: tb.topology.path_hops(&path, mtu),
            ip: IpConfig { mtu },
            bytes,
            protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
        };
        let plan = wan_plan(faults, &xfer.hops);
        let (report, run) =
            xfer.run_with(&RunOptions { shards, faults: plan.as_ref(), ..RunOptions::default() });
        println!("== Degraded WAN (seed {seed}): T3E -> SP2, 32 MiB ==");
        println!(
            "goodput {:.1} Mbit/s, {} retransmits ({} fast, {} timeouts)",
            report.goodput.mbps(),
            report.retransmits,
            run.senders[0].fast_retransmits,
            run.senders[0].rto_timeouts,
        );
        for h in run.hops.iter().filter(|h| h.faults.is_some()) {
            let f = h.faults.unwrap();
            println!(
                "{}: {} injected drops (outage {}, loss {}, burst {})",
                h.label,
                f.total(),
                f.outage,
                f.loss,
                f.burst
            );
        }
        return;
    }

    println!("== Figure 1: measured TCP throughput over the testbed (32 MiB transfers) ==");
    println!(
        "{:<24} {:<24} {:>7} {:>12} {:>12} {:>7}",
        "from", "to", "MTU", "measured", "model", "rexmit"
    );
    gtw_bench::rule(92);
    for m in tb.figure1_matrix(bytes) {
        println!(
            "{:<24} {:<24} {:>7} {:>7.1} Mb/s {:>7.1} Mb/s {:>7}",
            m.from,
            m.to,
            m.mtu,
            m.report.goodput.mbps(),
            m.predicted_mbps,
            m.report.retransmits
        );
    }
    println!("paper anchors: >430 Mbit/s local HiPPI TCP @64 KB MTU; >260 Mbit/s T3E->SP2");

    println!("\n== The MTU argument (T3E-600 -> SUN E5000) ==");
    let (path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).expect("path");
    println!("{:>8} {:>14}", "MTU", "goodput");
    for mtu in [1500u64, 4352, 9180, 17914, 65535] {
        let hops = tb.topology.path_hops(&path, mtu);
        let xfer = BulkTransfer {
            hops,
            ip: IpConfig { mtu },
            bytes,
            protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
        };
        println!("{:>8} {:>9.1} Mb/s", mtu, xfer.run().goodput.mbps());
    }

    println!("\n== HiPPI low-level protocol: block size vs throughput ==");
    let ch = HippiChannel::default();
    println!("{:>10} {:>14}", "block", "throughput");
    for kib in [4u64, 16, 64, 256, 1024, 4096] {
        let tp = ch.throughput(DataSize::from_mib(64), DataSize::from_kib(kib));
        println!("{:>7} KiB {:>9.1} Mb/s", kib, tp.mbps());
    }
    println!("paper: \"peak performance of 800 Mbit/s when ... large transfer blocks (1 MByte or more) are used\"");
}
