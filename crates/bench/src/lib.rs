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
//! | `results`         | every number the paper prints, ours beside it, gated (`RESULTS.md`) |
//!
//! [`results`] is the answer to "what number should I see": its rows are
//! held to the paper and to the committed page by `tests/paper_fidelity.rs`.
//! Timings, end to end and per layer, are `crates/gtw-benchmark`'s job.

use gtw_desim::Json;

pub mod results;

/// Every flag a fig/table bench bin reads: the shared ones [`BenchArgs`]
/// holds and `table1`'s `--real`.
const KNOWN_FLAGS: [&str; 7] = [
    "--json",
    "--trace-out",
    "--shards",
    "--faults",
    "--kernel-metrics",
    "--topo-collectives",
    "--real",
];

/// The flags shared by the fig/table bench bins, parsed once from
/// `std::env::args` instead of hand-rolled per binary. A `--` argument
/// that no bin reads is refused, so a mistyped or retired flag cannot
/// print the default output as if it had been honoured.
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
    /// `--kernel-metrics`: include the `kernel_metrics` block in JSON
    /// reports (sharded runs only).
    pub kernel_metrics: bool,
    /// `--topo-collectives`: use the topology-aware multi-level
    /// collectives instead of the flat ones where a bench runs MPI
    /// worlds.
    pub topo_collectives: bool,
}

impl BenchArgs {
    /// Parse the shared flags from the process arguments; an unknown
    /// flag ends the process with status 2.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parse the shared flags from `args` (program name excluded).
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        if let Some(bad) =
            args.iter().find(|a| a.starts_with("--") && !KNOWN_FLAGS.contains(&a.as_str()))
        {
            return Err(format!(
                "unknown flag {bad}; the bench bins read {}",
                KNOWN_FLAGS.join(" ")
            ));
        }
        let has = |name: &str| args.iter().any(|a| a == name);
        let value =
            |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
        Ok(BenchArgs {
            json: has("--json"),
            trace_out: value("--trace-out"),
            shards: value("--shards")
                .map(|s| s.parse().expect("--shards takes a shard count"))
                .unwrap_or(0),
            faults: value("--faults").map(|s| s.parse().expect("--faults takes a u64 seed")),
            kernel_metrics: has("--kernel-metrics"),
            topo_collectives: has("--topo-collectives"),
        })
    }
}

/// The host/run `meta` block bench JSON carries: core count and the
/// requested shard count.
///
/// This is *bench-output-only* context — it must never be folded into
/// `RunReport` (whose JSON is determinism-gated byte-for-byte).
pub fn meta_json(shards: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([("host_cores", Json::from(cores as u64)), ("shards", Json::from(shards as u64))])
}

/// Print a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Whether `--name` was passed on the command line (a bin's own flag,
/// which must also be listed in `KNOWN_FLAGS`).
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn known_flags_parse_and_unknown_ones_are_refused() {
        let a = BenchArgs::from_args(&args("--json --faults 1999 --shards 2 --real")).unwrap();
        assert!(a.json && !a.kernel_metrics);
        assert_eq!((a.faults, a.shards, a.trace_out), (Some(1999), 2, None));
        // A retired flag and a typo are errors, not a silent default run.
        for bad in ["--stripes 4", "--json --jsn", "--shards 2 --kernel_metrics"] {
            let err = BenchArgs::from_args(&args(bad)).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{bad}: {err}");
        }
        // Values are not flags, even when they are not numbers.
        let a = BenchArgs::from_args(&args("--trace-out out.json")).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("out.json"));
    }
}
