//! # gtw-bench — the table/figure regeneration harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | target            | artifact |
//! |-------------------|----------|
//! | `table1`          | Table 1 — FIRE module times / speedup on the T3E |
//! | `fig1_network`    | Figure 1 — testbed throughput matrix + MTU sweep |
//! | `fig2_latency`    | Figure 2 — scan-to-display delay budget |
//! | `fig3_overlay`    | Figure 3 — 2-D overlay + ROI time courses |
//! | `fig4_workbench`  | Figure 4 — 3-D rendering + workbench frame rates |
//! | `apps_matrix`     | §3 — application traffic vs link feasibility (X1) |
//! | `pipeline`        | §4 — sequential vs pipelined throughput (X2) |
//! | `rvo_ablation`    | §4 — RVO grid vs coarse+refine (X3) |
//!
//! Two more bins keep committed baselines: `kernel_bench`
//! (`BENCH_kernel.json`) and `trajectory` (`BENCH_trajectory.json`,
//! `--check`). Per-layer timings are `crates/gtw-benchmark`'s job.

use gtw_desim::Json;

/// The flags shared by the fig/table bench bins, parsed once from
/// `std::env::args` instead of hand-rolled per binary. Unknown flags are
/// ignored — each bin may still read its own extras with
/// [`has_flag`]/[`arg_value`].
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--json`: emit machine-readable output instead of tables.
    pub json: bool,
    /// `--trace-out <path>`: write a Chrome trace-event file.
    pub trace_out: Option<String>,
    /// `--shards <n>`: run on the sharded kernel (`0` = sequential).
    pub shards: usize,
    /// `--faults <seed>`: run under the canonical degraded-WAN plan.
    pub faults: Option<u64>,
    /// `--check`: self-check mode (digest print or baseline diff).
    pub check: bool,
    /// `--kernel-metrics`: include the `kernel_metrics` block in JSON
    /// reports (sharded runs only).
    pub kernel_metrics: bool,
    /// `--stripes <n>`: carry bulk transfers on `n` parallel TCP
    /// streams (MPWide-style WAN striping; `0` = single stream).
    pub stripes: usize,
    /// `--topo-collectives`: use the topology-aware multi-level
    /// collectives instead of the flat ones where a bench runs MPI
    /// worlds.
    pub topo_collectives: bool,
}

impl BenchArgs {
    /// Parse the shared flags from the process arguments.
    pub fn parse() -> Self {
        BenchArgs {
            json: has_flag("--json"),
            trace_out: arg_value("--trace-out"),
            shards: arg_value("--shards")
                .map(|s| s.parse().expect("--shards takes a shard count"))
                .unwrap_or(0),
            faults: arg_value("--faults").map(|s| s.parse().expect("--faults takes a u64 seed")),
            check: has_flag("--check"),
            kernel_metrics: has_flag("--kernel-metrics"),
            stripes: arg_value("--stripes")
                .map(|s| s.parse().expect("--stripes takes a stream count"))
                .unwrap_or(0),
            topo_collectives: has_flag("--topo-collectives"),
        }
    }
}

/// The host/run `meta` block bench JSON carries: core count and the
/// requested shard count.
///
/// This is *bench-output-only* context — it must never be folded into
/// `RunReport` (whose JSON is determinism-gated byte-for-byte), and the
/// trajectory harness strips it before its two-run `cmp`.
pub fn meta_json(shards: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([("host_cores", Json::from(cores as u64)), ("shards", Json::from(shards as u64))])
}

/// Print a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Whether `--name` was passed on the command line.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `--name` on the command line, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Write an observer's Chrome trace to `path` and print where it went
/// (the shared tail of every bin's `--trace-out` handling).
pub fn write_trace(observer: &gtw_desim::Observer, path: &str) {
    observer.write_chrome_trace(path.as_ref()).expect("write trace file");
    eprintln!(
        "chrome trace ({} spans, {} counter tracks) written to {path} — open in Perfetto",
        observer.len(),
        observer.counter_series().len()
    );
}

/// Format seconds with the paper's table precision.
pub fn fmt_s(s: f64) -> String {
    format!("{s:.2}")
}

/// Relative deviation in percent.
pub fn rel_pct(ours: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        return 0.0;
    }
    (ours - paper) / paper * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(fmt_s(109.27), "109.27");
        assert_eq!(fmt_s(1.01), "1.01");
        assert!((rel_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(rel_pct(1.0, 0.0), 0.0);
    }
}
