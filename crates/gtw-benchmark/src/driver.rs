//! The closed loop that times a workload: in each of five segments set
//! up afresh, then run ops one after another on this thread until the
//! segment's share of the time box is used, checking every output; then
//! turn the samples into metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, quietest_window_median, tail};
use crate::trace::{Tracer, ROOT};

/// Input sizes. `Tiny` exists so the crate's tests can push every
/// workload's ops and checks through the adapter in seconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// The time box for measured ops, seconds.
    pub seconds: f64,
    /// Traced run: every other op records spans, and layers are probed.
    pub trace: bool,
    pub scale: Scale,
}

/// A run is cut into this many segments. Each starts with a set-up of
/// its own, on a fresh workload object, so the set-ups are spread over
/// the run and `setup_s` does not hang on one moment of the host.
const SEGMENTS: u32 = 5;

/// Each segment's op times, in order, are cut into windows; the op time
/// reported is the median of the quietest window of the run. A window is
/// a sixtieth of the run's ops, and at least [`Workload::window_ops`].
/// See [`quietest_window_median`].
const WINDOWS: usize = 60;

pub trait Workload {
    /// Ops run as the tail of set-up, before anything is timed as an op.
    fn warmup_ops(&self) -> u64;
    /// The fewest measured ops a segment may end with.
    fn min_ops(&self) -> u64;
    /// The fewest consecutive ops, counted from a segment's first, whose
    /// median stands for the workload: more than the default where op
    /// cost follows a cycle.
    fn window_ops(&self) -> usize {
        5
    }
    /// Work units one op completes; see `WorkloadDef::work_unit`.
    fn work_per_op(&self) -> f64;
    /// One closed-loop operation, `i` counting every op of the run. The
    /// driver times it; the workload records a span around each call into
    /// a layer and keeps the output.
    fn op(&mut self, i: u64, tr: &mut Tracer);
    /// Untimed: was the output of the op just run correct?
    fn check(&mut self) -> bool;
    /// Untimed, once after the last op, on the last segment's object.
    fn check_run(&mut self) -> bool {
        true
    }
    /// Traced run only: counts the ops returned, and direct timed calls
    /// into single layers, each under its own span.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers);
}

/// Per-layer values of one traced run, by metric name.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Op time of this run, ns: the median of the quietest window of
    /// untraced ops, as `work_per_s` uses it.
    pub op_ns: f64,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::per_layer(name).is_some(), "{name} is not a declared per-layer metric");
        self.values.insert(name, value);
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the result line: the
    /// plain medians beside the gated quietest-window figures.
    pub also: Vec<Metric>,
    pub tracer: Tracer,
}

pub fn drive<W: Workload>(cfg: &RunCfg, make: impl Fn() -> W) -> RunOutput {
    let mut tr = Tracer::new();
    let (mut ops, mut measured, mut failed) = (0u64, 0u64, 0u64);
    let mut setup_s = Vec::new();
    // Untraced op times, per segment, and traced ones.
    let mut plain_ns: Vec<Vec<f64>> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    // Time spent on measured ops and their checks; set-ups come on top.
    let mut measuring = Duration::ZERO;
    let mut slot: Option<W> = None;
    for segment in 1..=SEGMENTS {
        // Set-up: build inputs and program objects, then the warm-up ops,
        // so caches are filled and lazy initialisation is done before an
        // op is timed. `make` and the ops count as set-up time; checks do
        // not. The previous object goes first, so that `peak_rss_mb` is
        // that of one.
        drop(slot.take());
        let started = Instant::now();
        let mut w = make();
        let mut spent = started.elapsed();
        for _ in 0..w.warmup_ops() {
            let started = Instant::now();
            w.op(ops, &mut tr);
            spent += started.elapsed();
            ops += 1;
            failed += u64::from(!w.check());
        }
        setup_s.push(spent.as_secs_f64());

        let due = Duration::from_secs_f64(cfg.seconds * f64::from(segment) / f64::from(SEGMENTS));
        let mut in_segment = 0;
        plain_ns.push(Vec::new());
        while in_segment < w.min_ops() || measuring < due {
            let began = Instant::now();
            let traced = cfg.trace && measured % 2 == 1;
            tr.set_enabled(traced);
            tr.set_op(ops);
            let root = tr.begin(ROOT);
            let started = Instant::now();
            w.op(ops, &mut tr);
            let ns = started.elapsed().as_nanos() as f64;
            tr.end(root);
            if traced { &mut traced_ns } else { plain_ns.last_mut().expect("pushed") }.push(ns);
            ops += 1;
            measured += 1;
            in_segment += 1;
            failed += u64::from(!w.check());
            measuring += began.elapsed();
        }
        slot = Some(w);
    }
    let mut w = slot.expect("a run has segments");
    tr.set_enabled(false);
    let run_ok = w.check_run();
    let all_plain_ns = plain_ns.concat();
    let per_window = (all_plain_ns.len() / WINDOWS).max(w.window_ops());
    let op_ns = plain_ns
        .iter()
        .map(|segment| quietest_window_median(segment, per_window))
        .fold(f64::INFINITY, f64::min);

    let mut also = Vec::new();
    let metrics = if cfg.trace {
        let mut layers = Layers { values: BTreeMap::new(), op_ns };
        let (tail_pct, tail_ns) = tail(&all_plain_ns);
        layers.set("op.quiet_p50_ms", op_ns / 1e6);
        layers.set("op.p50_ms", median(&all_plain_ns) / 1e6);
        layers.set("op.tail_ms", tail_ns / 1e6);
        layers.set("op.tail_pct", tail_pct);
        layers.set("op.samples", all_plain_ns.len() as f64);
        let (traced, plain) = (median(&traced_ns), median(&all_plain_ns));
        layers.set("trace.overhead_share", (traced - plain) / plain);
        layers.set("trace.span_coverage_share", tr.coverage());
        layers.set("check.failed_ops", failed as f64);
        layers.set("check.run_ok", f64::from(u8::from(run_ok)));
        tr.set_enabled(true);
        tr.set_op(ops);
        w.layers(&mut tr, &mut layers);
        tr.set_enabled(false);
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: layers.values.get(m.name).copied().unwrap_or(0.0),
                unit: m.unit,
            })
            .collect()
    } else {
        let quickest_setup_s = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
        let values = [w.work_per_op() / (op_ns / 1e9), quickest_setup_s, peak_rss_mb()];
        let plain_work_per_s = w.work_per_op() / (median(&all_plain_ns) / 1e9);
        also.push(Metric { name: "work_per_s.all_ops_p50", value: plain_work_per_s, unit: "1/s" });
        also.push(Metric { name: "setup_s.p50", value: median(&setup_s), unit: "s" });
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric { name: m.name, value, unit: m.unit })
            .collect()
    };
    RunOutput { correct: run_ok && failed == 0, attempted: ops, failed, metrics, also, tracer: tr }
}

/// `VmHWM` of this process, MB. 0 where `/proc` does not offer it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
