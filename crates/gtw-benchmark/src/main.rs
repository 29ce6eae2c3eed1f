//! `gtw-benchmark`: the repository's benchmark.
//!
//! ```text
//! gtw-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gtw-benchmark list
//! gtw-benchmark suite [--seed n] [--seconds s] --out <file.json>
//! gtw-benchmark compare <a.json> <b.json>
//! gtw-benchmark selfcheck [--seed n] [--seconds s]
//! ```
//!
//! A run times one workload in a closed loop on one thread and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the same ops with spans
//! around every call into a layer, reports the per-layer metrics, and
//! writes the spans as a Chrome trace. See `README.md`.

mod adapter;
mod driver;
mod metrics;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use gtw_desim::Json;

use driver::{RunCfg, Scale};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// Seed of the runs made while the benchmark was written; verify a claim
/// on [`HELD_OUT_SEED`] as well.
const DEFAULT_SEED: u64 = 1999;
const HELD_OUT_SEED: u64 = 2026;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 13;
/// Runs of each workload in a suite, untraced and then again traced.
const SUITE_RUNS: usize = 3;
/// Where a traced run writes its spans unless `--trace-out` says otherwise.
const TRACE_DIR: &str = "crates/gtw-benchmark/out";

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("{flag}: cannot read {text:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("list") => {
            if args.0.iter().any(|a| a == "--json") {
                println!("{}", benchmark_json().pretty());
            } else {
                list();
            }
            Ok(true)
        }
        Some("suite") => suite_command(&args),
        Some("compare") => compare_command(&args),
        Some("selfcheck") => selfcheck(&args),
        _ => run_command(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gtw-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> (or: list, suite, compare, selfcheck)")?;
    let cfg = RunCfg {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", RUN_SECONDS as f64)?,
        trace: match args.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        scale: match args.value("--scale") {
            None | Some("full") => Scale::Full,
            Some("tiny") => Scale::Tiny,
            Some(other) => return Err(format!("--scale takes full or tiny, not {other:?}")),
        },
    };
    if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
        return Err(format!("--seconds {} is out of range", cfg.seconds));
    }
    let mut out =
        workloads::run(name, &cfg).ok_or_else(|| format!("no workload {name:?}; try `list`"))?;

    if cfg.trace {
        let path = args
            .value("--trace-out")
            .map_or_else(|| Path::new(TRACE_DIR).join(format!("{name}.trace.json")), PathBuf::from);
        let text = out.tracer.to_chrome_trace().dump();
        // What `trace_check` runs; a trace it would refuse is a wrong output.
        match gtw_desim::validate_chrome_trace(&text) {
            Ok(check) => println!("trace: {} spans -> {}", check.spans, path.display()),
            Err(e) => {
                eprintln!("gtw-benchmark: trace is invalid: {e}");
                out.correct = false;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    for m in out.metrics.iter().chain(&out.also) {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", host_json(name, &cfg).dump());
    println!("{}", report::result_json(&out).dump());
    Ok(out.correct)
}

/// What the numbers were taken on. Not part of the result line.
fn host_json(workload: &str, cfg: &RunCfg) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("nproc", Json::from(nproc)),
        ("profile", Json::from(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("commit", Json::from(git_commit())),
    ]);
    Json::obj([("host", host)])
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn list() {
    println!("workloads (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}):");
    for w in &WORKLOADS {
        println!("  {:<14} work = {}\n  {:<14} {}", w.name, w.work_unit, "", w.why);
    }
    println!("end-to-end metrics (--trace 0), on every workload:");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<7} {} is better, bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (--trace 1); exact ones must repeat bit for bit at one seed:");
    for m in &PER_LAYER {
        let note = match (m.exact, m.bound > 0.0) {
            (true, _) => "exact".to_string(),
            (false, true) => format!("gated by compare, bound {}", m.bound),
            (false, false) => String::new(),
        };
        println!("  {:<36} {:<7} {note}", m.name, m.unit);
    }
}

/// The contents of `BENCHMARK.json`: `list --json` prints it, and a test
/// holds the file at the repository root to it.
fn benchmark_json() -> Json {
    let command =
        "cargo run --quiet --release --offline --manifest-path crates/gtw-benchmark/Cargo.toml --";
    let metric = |m: &metrics::MetricDef, bounded: bool| {
        let mut j = Json::obj([
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.as_str())),
        ]);
        if bounded {
            j.push("bound", Json::from(m.bound));
        }
        j
    };
    Json::obj([
        ("command", Json::Arr(command.split(' ').map(Json::from).collect())),
        ("paths", Json::Arr(vec![Json::from("crates/gtw-benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect())),
    ])
}

/// Run every workload [`SUITE_RUNS`] times untraced and as often traced,
/// each in a process of its own so that `peak_rss_mb` is the workload's
/// alone.
fn suite(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        for k in 0..2 * SUITE_RUNS {
            let trace = k >= SUITE_RUNS;
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name, "--seed", &seed.to_string()]);
            child.args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if let Some(scale) = args.value("--scale") {
                child.args(["--scale", scale]);
            }
            let output =
                child.output().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().ok_or_else(|| format!("{}: no output", w.name))?;
            let result = Json::parse(last).map_err(|e| format!("{}: {e}", w.name))?;
            eprintln!("{} trace={} -> {last}", w.name, u8::from(trace));
            records.push(report::run_record(w.name, trace, result));
        }
    }
    Ok(Json::obj([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("runs", Json::Arr(records)),
    ]))
}

fn suite_command(args: &Args) -> Result<bool, String> {
    let out = args.value("--out").ok_or("suite: --out <file.json> is required")?;
    let doc = suite(args)?;
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{out}: {e}"))?;
    report::compare(&doc, &doc)
}

fn compare_command(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    report::compare(&read(a)?, &read(b)?)
}

/// The whole set twice, compared with itself.
fn selfcheck(args: &Args) -> Result<bool, String> {
    report::compare(&suite(args)?, &suite(args)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's ops, checks and layer probes at the tiny scale,
    /// so a change to a pinned signature fails here.
    #[test]
    fn every_workload_runs_and_checks_at_tiny_scale() {
        for trace in [false, true] {
            for w in &WORKLOADS {
                let cfg = RunCfg { seed: HELD_OUT_SEED, seconds: 0.0, trace, scale: Scale::Tiny };
                let out = workloads::run(w.name, &cfg).expect("known workload");
                assert!(out.correct, "{} trace={trace}: incorrect", w.name);
                assert_eq!(out.failed, 0, "{}", w.name);
                assert!(out.attempted >= 2, "{}", w.name);
                let declared = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, declared.iter().map(|m| m.name).collect::<Vec<_>>());
                assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{}", w.name);
                if trace {
                    let text = out.tracer.to_chrome_trace().dump();
                    gtw_desim::validate_chrome_trace(&text).expect("valid trace");
                    let coverage =
                        out.metrics.iter().find(|m| m.name == "trace.span_coverage_share");
                    // Tiny ops are mostly harness; at full size the spans
                    // cover over 0.99 of every op (README).
                    assert!(coverage.is_some_and(|m| m.value > 0.0), "{}", w.name);
                } else {
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}: a metric is 0", w.name);
                }
            }
        }
        let cfg = RunCfg { seed: 1, seconds: 0.0, trace: false, scale: Scale::Tiny };
        assert!(workloads::run("no_such_workload", &cfg).is_none());
    }

    /// `BENCHMARK.json` says what `metrics.rs` declares, within the
    /// limits the benchmark contract puts on names and text.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(
            Json::parse(&text).expect("BENCHMARK.json parses") == benchmark_json(),
            "BENCHMARK.json is not what `gtw-benchmark list --json` prints; regenerate it"
        );

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the contract");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(text.len() <= 64 * 1024);
    }
}
