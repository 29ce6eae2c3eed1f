//! The result line a run prints, the file a suite of runs is kept in,
//! and the comparison of two such files.

use std::collections::{BTreeMap, BTreeSet};

use gtw_desim::Json;

use crate::driver::RunOutput;
use crate::metrics::{self, Better, MetricDef, WORKLOADS};
use crate::stats::{median, quartiles};

/// The last line of a run's standard output.
pub fn result_json(out: &RunOutput) -> Json {
    let metrics = out.metrics.iter().map(|m| {
        (m.name, Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]))
    });
    Json::obj([
        ("correct", Json::from(out.correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One run inside a suite file.
pub fn run_record(workload: &str, trace: bool, result: Json) -> Json {
    Json::obj([
        ("workload", Json::from(workload)),
        ("trace", Json::from(u64::from(trace))),
        ("result", result),
    ])
}

/// Every value of every metric in a suite file, keyed by
/// `(workload, metric)`, plus how many ops failed or runs were incorrect.
struct Suite {
    values: BTreeMap<(String, String), Vec<f64>>,
    bad_runs: u64,
}

fn read_suite(doc: &Json) -> Result<Suite, String> {
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("suite file lacks a \"runs\" array")?;
    let mut suite = Suite { values: BTreeMap::new(), bad_runs: 0 };
    for run in runs {
        let workload =
            run.get("workload").and_then(Json::as_str).ok_or("run lacks \"workload\"")?;
        let result = run.get("result").ok_or("run lacks \"result\"")?;
        let failed =
            result.get("failed").and_then(Json::as_f64).ok_or("result lacks \"failed\"")?;
        if failed != 0.0 || result.get("correct") != Some(&Json::Bool(true)) {
            suite.bad_runs += 1;
        }
        let Some(Json::Obj(pairs)) = result.get("metrics") else {
            return Err("result lacks a \"metrics\" object".into());
        };
        for (name, m) in pairs {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks \"value\"")?;
            suite.values.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(suite)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// A's own runs spread wider than the bound: no claim either way.
    Unresolved,
    /// A count or simulated value that must repeat exactly, and did not.
    Differs,
    /// One of the files has no run of this workload, or not this metric.
    Missing,
}

/// Median and quartiles of one side. One sample has no spread.
fn summary(v: &[f64]) -> (f64, f64, f64) {
    let med = median(v);
    let (q1, q3) = if v.len() >= 2 { quartiles(v) } else { (med, med) };
    (med, q1, q3)
}

fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let ((a_med, a_q1, a_q3), (b_med, ..)) = (summary(a), summary(b));
    let sign = if def.better == Better::Higher { -1.0 } else { 1.0 };
    let worse_by = sign * (b_med - a_med) / a_med;
    let spread = (a_q3 - a_q1) / a_med;
    // Every gated metric is a positive quantity. A 0 (no `/proc` for
    // `peak_rss_mb`, no threaded ratio on one core) or a value that is
    // not a number gives no ratio to judge.
    if !a.iter().chain(b).all(|&v| v.is_finite() && v > 0.0) {
        return Verdict::Unresolved;
    }
    // Pairs of one run from each side that B wins; ties count for neither.
    let pairs = || a.iter().flat_map(|&x| b.iter().map(move |&y| sign * (y - x)));
    let wins = pairs().filter(|&d| d < 0.0).count() as f64;
    let decided = pairs().filter(|&d| d != 0.0).count() as f64;
    let b_wins_every_pair = wins == (a.len() * b.len()) as f64;
    if spread > def.bound && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regressed
    } else if wins >= 0.9 * decided && -worse_by > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print one row per (gated metric, workload) and one per exact
/// per-layer value that differs. The gated metrics are the end-to-end
/// ones on every workload, and the per-layer ones that carry a bound
/// wherever a workload reports them. Returns whether B is acceptable
/// against A: every workload measured on both sides, nothing regressed,
/// unresolved, missing or different, and no failed op.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (a, b) = (read_suite(a)?, read_suite(b)?);
    let mut ok = a.bad_runs == 0 && b.bad_runs == 0;
    println!("runs with a failed op or an incorrect output: A {}, B {}", a.bad_runs, b.bad_runs);
    println!(
        "{:<14} {:<23} {:>5} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8}  verdict",
        "workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A"
    );
    for w in &WORKLOADS {
        let gated_layers = metrics::PER_LAYER.iter().filter(|d| d.bound > 0.0);
        for (def, end_to_end) in
            metrics::END_TO_END.iter().map(|d| (d, true)).chain(gated_layers.map(|d| (d, false)))
        {
            let key = (w.name.to_string(), def.name.to_string());
            let verdict = match (a.values.get(&key), b.values.get(&key)) {
                // Neither file has traced runs of this workload.
                (None, None) if !end_to_end => continue,
                // The workload does not run the layer.
                (Some(va), Some(vb)) if !end_to_end && va.iter().chain(vb).all(|&v| v == 0.0) => {
                    continue
                }
                (Some(va), Some(vb)) => {
                    let ((am, aq1, aq3), (bm, bq1, bq3)) = (summary(va), summary(vb));
                    print!(
                        "{:<14} {:<23} {:>5} | {aq1:>12.4} {am:>12.4} {aq3:>12.4} | {bq1:>12.4} {bm:>12.4} {bq3:>12.4} | {:>8.4}",
                        w.name,
                        def.name,
                        def.unit,
                        bm / am,
                    );
                    judge(def, va, vb)
                }
                _ => {
                    print!("{:<14} {:<23} {:>5} |", w.name, def.name, def.unit);
                    Verdict::Missing
                }
            };
            println!("  {verdict:?}");
            ok &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
        }
    }
    let exact_keys: BTreeSet<&(String, String)> = a
        .values
        .keys()
        .chain(b.values.keys())
        .filter(|(_, name)| metrics::per_layer(name).is_some_and(|d| d.exact))
        .collect();
    for key in &exact_keys {
        let (workload, name) = key;
        let (va, vb) = (a.values.get(*key), b.values.get(*key));
        let verdict = match (va, vb) {
            (Some(va), Some(vb)) => {
                let first = va[0].to_bits();
                if va.iter().chain(vb).all(|v| v.to_bits() == first) {
                    continue;
                }
                Verdict::Differs
            }
            _ => Verdict::Missing,
        };
        ok = false;
        println!("{workload:<15} {name}: A {va:?} B {vb:?}  {verdict:?}");
    }
    println!("{} counts and simulated values compared for exact equality", exact_keys.len());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Metric;
    use crate::trace::Tracer;

    fn output(work_per_s: f64) -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric { name: "work_per_s", value: work_per_s, unit: "1/s" },
                Metric { name: "setup_s", value: 0.25, unit: "s" },
                Metric { name: "peak_rss_mb", value: 12.5, unit: "MB" },
            ],
            also: Vec::new(),
            tracer: Tracer::new(),
        }
    }

    #[test]
    fn result_line_round_trips_through_json_text() {
        let line = result_json(&output(1234.5678)).dump();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).expect("parses");
        let keys: Vec<&str> = match &back {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted"), Some(&Json::Int(12)));
        let m = back.get("metrics").and_then(|m| m.get("work_per_s")).expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(back, result_json(&output(1234.5678)));
    }

    /// A suite file in which every workload reports `values`.
    fn suite(values: &[f64]) -> Json {
        suite_of(&WORKLOADS.map(|w| w.name), values)
    }

    fn suite_of(workloads: &[&str], values: &[f64]) -> Json {
        let runs: Vec<Json> = workloads
            .iter()
            .flat_map(|w| values.iter().map(|&v| run_record(w, false, result_json(&output(v)))))
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let def = metrics::end_to_end("work_per_s").expect("declared");
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(judge(def, &a, &[100.2, 99.5, 100.9]), Verdict::Unchanged);
        assert_eq!(judge(def, &a, &[70.0, 71.0, 69.0]), Verdict::Regressed);
        assert_eq!(judge(def, &a, &[120.0, 121.0, 119.0]), Verdict::Improved);
        // A spreads by more than the bound: nothing can be said ...
        let noisy = [100.0, 60.0, 140.0, 95.0];
        assert_eq!(judge(def, &noisy, &[90.0, 91.0]), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(def, &noisy, &[170.0, 171.0]), Verdict::Improved);
        // Lower is better for set-up time.
        let setup = metrics::end_to_end("setup_s").expect("declared");
        assert_eq!(judge(setup, &[1.0, 1.01, 0.99], &[1.4, 1.41, 1.39]), Verdict::Regressed);
        // No ratio can be taken against a median of 0 or a non-number.
        assert_eq!(judge(setup, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Unresolved);
        assert_eq!(judge(setup, &[1.0, 1.0], &[f64::NAN, 1.0, 2.0]), Verdict::Unresolved);
    }

    #[test]
    fn compare_accepts_a_repeat_and_rejects_a_regression() {
        let a = suite(&[100.0, 101.0, 99.0]);
        assert_eq!(compare(&a, &suite(&[100.5, 99.5, 100.0])), Ok(true));
        assert_eq!(compare(&a, &suite(&[70.0, 71.0, 69.0])), Ok(false));
        assert!(compare(&a, &Json::obj([("nothing", Json::Null)])).is_err());
    }

    #[test]
    fn compare_rejects_a_file_that_lacks_runs() {
        let a = suite(&[100.0, 101.0, 99.0]);
        // Empty: a suite that crashed before its first run.
        assert_eq!(compare(&a, &Json::obj([("runs", Json::Arr(vec![]))])), Ok(false));
        assert_eq!(compare(&Json::obj([("runs", Json::Arr(vec![]))]), &a), Ok(false));
        // Partial: one workload's runs are gone.
        let partial = suite_of(&WORKLOADS.map(|w| w.name)[1..], &[100.0, 101.0, 99.0]);
        assert_eq!(compare(&a, &partial), Ok(false));
    }

    /// `suite(..)` plus traced `wan_bulk` runs reporting these values.
    fn with_traced(shard2_time_ratios: &[f64], events: f64) -> Json {
        let mut runs =
            suite(&[100.0, 101.0, 99.0]).get("runs").and_then(Json::as_arr).expect("runs").to_vec();
        for &ratio in shard2_time_ratios {
            let mut out = output(0.0);
            out.metrics = vec![
                Metric { name: "desim.shard2_time_ratio", value: ratio, unit: "ratio" },
                Metric { name: "desim.events", value: events, unit: "count" },
            ];
            runs.push(run_record("wan_bulk", true, result_json(&out)));
        }
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_gates_the_shard_ratio_and_the_exact_values() {
        let a = with_traced(&[1.0, 1.02, 0.98], 661.0);
        assert_eq!(compare(&a, &with_traced(&[1.01, 0.99, 1.0], 661.0)), Ok(true));
        // The 2-shard kernel got slower against the sequential one.
        assert_eq!(compare(&a, &with_traced(&[1.5, 1.52, 1.48], 661.0)), Ok(false));
        // One core on both sides: no threaded ratio, nothing to gate ...
        let one_core = with_traced(&[0.0, 0.0, 0.0], 661.0);
        assert_eq!(compare(&one_core, &one_core), Ok(true));
        // ... on one side only: unresolved.
        assert_eq!(compare(&a, &one_core), Ok(false));
        // A count moved, or B has no traced run to take it from.
        assert_eq!(compare(&a, &with_traced(&[1.0, 1.02, 0.98], 660.0)), Ok(false));
        assert_eq!(compare(&a, &suite(&[100.0, 101.0, 99.0])), Ok(false));
    }
}
