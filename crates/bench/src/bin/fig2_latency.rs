//! Regenerate **Figure 2**'s timing story: the scan-to-display delay
//! budget ("less than 5 seconds" at 256 PEs) and the throughput analysis
//! (2.7 s sequential period, TR = 3 s safe).
//!
//! ```text
//! cargo run --release -p gtw-bench --bin fig2_latency
//! cargo run --release -p gtw-bench --bin fig2_latency -- --json
//! cargo run --release -p gtw-bench --bin fig2_latency -- --trace-out trace.json
//! ```
//!
//! With `--json` the delay budget and the measured chain runs (including
//! the scan-to-display latency histograms) are emitted as one
//! machine-readable document. With `--trace-out <path>` the measured
//! chain run is traced — per-stage spans on the event kernel — and
//! written as a Chrome trace-event file loadable in Perfetto.

use gtw_core::scenario::FmriScenario;
use gtw_desim::{Json, Observer};
use gtw_fire::realtime::{run_chain_with, ChainMode, ChainOptions, RealtimeConfig};
use gtw_fire::rt::paper_headline_delay;

const PES_SWEEP: [usize; 7] = [1, 8, 16, 32, 64, 128, 256];

/// The measured chain at the paper's operating point (256 PEs, TR 3 s),
/// in both modes, optionally traced.
fn run_chains(sink: &Observer) -> [(ChainMode, gtw_fire::realtime::RealtimeReport); 2] {
    let r = FmriScenario::paper(256).run();
    let cfg = RealtimeConfig {
        tr_s: 3.0,
        acquire_s: r.acquire_s,
        transfer_s: r.transfers_s,
        compute_s: r.compute_s,
        display_s: r.display_s,
        scans: 40,
    };
    let opts = ChainOptions { observer: sink.clone(), ..ChainOptions::default() };
    [ChainMode::Sequential, ChainMode::Pipelined]
        .map(|mode| (mode, run_chain_with(cfg, mode, &opts)))
}

fn emit_json() {
    let mut rows = Vec::new();
    for pes in PES_SWEEP {
        let r = FmriScenario::paper(pes).run();
        rows.push(Json::obj([
            ("pes", Json::from(r.pes)),
            ("acquire_s", Json::from(r.acquire_s)),
            ("transfers_s", Json::from(r.transfers_s)),
            ("compute_s", Json::from(r.compute_s)),
            ("display_s", Json::from(r.display_s)),
            ("total_s", Json::from(r.total_s)),
            ("sequential_period_s", Json::from(r.sequential_period_s)),
            ("pipelined_period_s", Json::from(r.pipelined_period_s)),
            ("safe_tr_s", Json::from(r.safe_tr_s)),
        ]));
    }
    let chains = run_chains(&Observer::disabled()).map(|(mode, m)| {
        Json::obj([
            ("mode", Json::from(format!("{mode:?}").as_str())),
            ("scanned", Json::from(m.scanned)),
            ("displayed", Json::from(m.displayed)),
            ("skipped", Json::from(m.skipped)),
            ("mean_latency_s", Json::from(m.mean_latency_s)),
            ("period_s", Json::from(m.period_s)),
            ("latency", m.latency.to_json()),
        ])
    });
    let doc = Json::obj([
        ("experiment", Json::from("fig2_delay_budget")),
        ("rows", Json::Arr(rows)),
        ("headline_delay_s", Json::from(paper_headline_delay())),
        ("measured_chains", Json::Arr(chains.into_iter().collect())),
    ]);
    println!("{}", doc.pretty());
}

fn main() {
    let args = gtw_bench::BenchArgs::parse();
    if args.json {
        emit_json();
        return;
    }
    if let Some(path) = args.trace_out {
        let sink = Observer::recording();
        for (mode, m) in run_chains(&sink) {
            println!(
                "{mode:?}: displayed {}/{} skipped {} p50 {:.2}s p99 {:.2}s period {:.2}s",
                m.displayed,
                m.scanned,
                m.skipped,
                m.latency.p50().as_secs_f64(),
                m.latency.p99().as_secs_f64(),
                m.period_s
            );
        }
        gtw_bench::write_trace(&sink, &path);
        return;
    }

    println!("== Figure 2: per-image delay budget (derived from the testbed + T3E model) ==");
    println!(
        "{:>5} | {:>8} {:>10} {:>9} {:>8} | {:>8} | {:>10} {:>10} {:>8}",
        "PEs",
        "acquire",
        "transfers",
        "compute",
        "display",
        "total",
        "seq.period",
        "pipelined",
        "safe TR"
    );
    gtw_bench::rule(96);
    for pes in PES_SWEEP {
        let r = FmriScenario::paper(pes).run();
        println!(
            "{:>5} | {:>7.2}s {:>9.2}s {:>8.2}s {:>7.2}s | {:>7.2}s | {:>9.2}s {:>9.2}s {:>7.1}s",
            pes,
            r.acquire_s,
            r.transfers_s,
            r.compute_s,
            r.display_s,
            r.total_s,
            r.sequential_period_s,
            r.pipelined_period_s,
            r.safe_tr_s
        );
    }

    println!("\n== Measured chain at 256 PEs, TR 3 s (40 scans, event-driven) ==");
    for (mode, m) in run_chains(&Observer::disabled()) {
        println!(
            "{mode:?}: displayed {}/{} skipped {}  latency p50 {:.2}s p90 {:.2}s p99 {:.2}s max {:.2}s",
            m.displayed,
            m.scanned,
            m.skipped,
            m.latency.p50().as_secs_f64(),
            m.latency.p90().as_secs_f64(),
            m.latency.p99().as_secs_f64(),
            m.latency.max().as_secs_f64()
        );
    }

    println!("\npaper anchors @256 PEs: transfers+control ≈ 1.1 s, total < 5 s,");
    println!("sequential throughput 2.7 s -> scanner safely operated at TR = 3 s");
    println!("headline delay (paper budget + Table-1 compute): {:.2} s", paper_headline_delay());
}
