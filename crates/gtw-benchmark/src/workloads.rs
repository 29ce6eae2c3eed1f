//! The seven workloads. Each makes its inputs from the seed here, hands
//! the program generated inputs only (through `adapter`), and checks
//! every output.

use std::time::Instant;

use crate::adapter::{self, Dims, Volume};
use crate::driver::{drive, Layers, RunCfg, RunOutput, Scale, Workload};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

/// Run the workload called `name`; `None` if there is no such workload.
pub fn run(name: &str, cfg: &RunCfg) -> Option<RunOutput> {
    let (seed, scale) = (cfg.seed, cfg.scale);
    Some(match name {
        "wan_bulk" => drive(cfg, || WanBulk::setup(seed, scale)),
        "atm_cells" => drive(cfg, || AtmCells::setup(seed, scale)),
        "control_storm" => drive(cfg, || ControlStorm::setup(seed, scale)),
        "fire_stream" => drive(cfg, || FireStream::setup(seed, scale)),
        "fire_rvo" => drive(cfg, || FireRvo::setup(seed, scale)),
        "render_frames" => drive(cfg, || RenderFrames::setup(seed, scale)),
        "mpi_loopback" => {
            // The whole loop runs on the rank's own thread: it is the
            // one driver thread of this workload.
            let cfg = *cfg;
            adapter::mpi_loopback(move |lb| drive(&cfg, || MpiLoopback::setup(seed, scale, lb)))
        }
        _ => return None,
    })
}

/// Per segment: one window's worth at full size.
fn min_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 5,
        Scale::Tiny => 2,
    }
}

/// Median duration, ns, of the spans called `name`; 0 if none.
fn span_p50_ns(tr: &Tracer, name: &str) -> f64 {
    let ns = tr.durations_ns(name);
    if ns.is_empty() {
        0.0
    } else {
        median(&ns)
    }
}

/// Time `f` once under span `name`; ms.
fn timed_ms<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> f64 {
    let started = Instant::now();
    let out = tr.span(name, f);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(out);
    ms
}

/// Time `f` `reps` times under span `name`; median in ms.
fn probe_ms<R>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> R,
) -> f64 {
    let ms: Vec<f64> = (0..reps).map(|k| timed_ms(tr, name, || f(k))).collect();
    median(&ms)
}

/// The kernel's floor: ns per event with empty handlers.
fn bare_ns_per_event(tr: &mut Tracer, scale: Scale) -> f64 {
    let events = if scale == Scale::Full { 1_000_000 } else { 10_000 };
    let mut ran = 0;
    let ms = probe_ms(tr, "desim.ping_pong", 3, |_| ran = adapter::desim_ping_pong(events));
    ms * 1e6 / ran as f64
}

// ------------------------------------------------------------ wan_bulk

struct WanBulk {
    scenario: adapter::WanScenario,
    scale: Scale,
    last: Option<adapter::WanRun>,
    /// Counts and report of the first op; every later op must repeat them.
    first: Option<(u64, u64, u64, String)>,
}

/// The sharded kernel is probed on two shards: this host has two cores.
const SHARDS: usize = 2;
/// Runs of each kernel behind `desim.shard2_time_ratio`.
const RATIO_PAIRS: usize = 15;

impl WanBulk {
    fn setup(seed: u64, scale: Scale) -> Self {
        let (flows, bytes) = match scale {
            Scale::Full => (64, 4 << 20),
            Scale::Tiny => (4, 64 << 10),
        };
        // The seed decides which flow gets which bottleneck rate and
        // which access propagation: two independent permutations of the
        // kernel_bench ladder.
        let mut rng = Rng::new(seed, "wan");
        let rates = rng.permutation(flows);
        let props = rng.permutation(flows);
        let flows: Vec<adapter::WanFlow> = (0..flows)
            .map(|k| adapter::WanFlow {
                bottleneck_mbps: 155.0 + 30.0 * rates[k] as f64,
                access_extra_us: props[k] as u64,
            })
            .collect();
        WanBulk {
            scenario: adapter::WanScenario::build(&flows, bytes),
            scale,
            last: None,
            first: None,
        }
    }
}

impl Workload for WanBulk {
    fn warmup_ops(&self) -> u64 {
        2
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        self.scenario.offered_bytes() as f64 / 1e6
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        self.last = Some(tr.span("net.transfer.run", || self.scenario.run(0)));
    }

    fn check(&mut self) -> bool {
        let run = self.last.as_ref().expect("op ran");
        let all_delivered = run.delivered.iter().all(|&b| b == self.scenario.bytes_per_flow());
        let counts = (run.events, run.segments, run.retransmits);
        match &self.first {
            None => {
                self.first = Some((counts.0, counts.1, counts.2, run.report_json()));
                all_delivered
            }
            Some((e, s, r, _)) => all_delivered && counts == (*e, *s, *r),
        }
    }

    /// The sharded kernel must produce a byte-identical run report.
    fn check_run(&mut self) -> bool {
        let (_, _, _, sequential) = self.first.as_ref().expect("an op ran");
        self.scenario.run(SHARDS).report_json() == *sequential
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let run = self.last.as_ref().expect("op ran");
        let (events, segments) = (run.events as f64, run.segments as f64);
        let bare = bare_ns_per_event(tr, self.scale);
        out.set("desim.events", events);
        out.set("desim.ns_per_event", out.op_ns / events);
        out.set("desim.bare_ns_per_event", bare);
        out.set("desim.handler_ns_per_event", out.op_ns / events - bare);
        out.set("net.tcp.segments", segments);
        out.set("net.tcp.retransmits", run.retransmits as f64);
        out.set("net.tcp.ns_per_segment", out.op_ns / segments);
        out.set("sim.wan_goodput_mbps", run.sim_goodput_mbps);

        // The same transfers on the 2-shard kernel. Two threads that meet
        // at a barrier every window, on a two-core host other tenants
        // share, take 78 to 150 ms op by op: too unsteady for a workload
        // of their own. Their time relative to the sequential kernel's is
        // steady, so that is probed here and `compare` gates it.
        let mut stats = adapter::ShardStats::default();
        let mut barrier_wait_ns = 0;
        let metered_ms = probe_ms(tr, "net.transfer.run_metrics_shard2", 3, |_| {
            let (_, s) = self.scenario.run_metrics(SHARDS);
            barrier_wait_ns += s.barrier_wait_ns;
            stats = s;
        });
        // Turn and turn about, so that a slow stretch of the host falls
        // on both kernels.
        let (shard_ms, seq_ms): (Vec<f64>, Vec<f64>) = (0..RATIO_PAIRS)
            .map(|_| {
                (
                    timed_ms(tr, "net.transfer.run_shard2", || self.scenario.run(SHARDS)),
                    timed_ms(tr, "net.transfer.run_seq", || self.scenario.run(0)),
                )
            })
            .unzip();
        out.set("desim.queue_depth_hwm", stats.queue_depth_hwm as f64);
        out.set("desim.shard.windows", stats.windows as f64);
        out.set("desim.shard.xshard_events", stats.xshard_events as f64);
        out.set("desim.shard.lookahead_util_ppm", stats.lookahead_util_ppm as f64);
        // Waiting summed over shards and the three metered runs, over the
        // wall time those shards had. Only the threaded executor waits,
        // which is how the mode the shards really ran in is told.
        let shard_wall_ns = stats.shards as f64 * 3.0 * metered_ms * 1e6;
        out.set("desim.shard.barrier_wait_share", barrier_wait_ns as f64 / shard_wall_ns);
        out.set("desim.shard.threaded", f64::from(u8::from(barrier_wait_ns > 0)));
        // Base: the sequential kernel. On one core the shards ran
        // cooperatively: that is no threaded number, and the ratio stays 0.
        if barrier_wait_ns > 0 {
            out.set("desim.shard2_time_ratio", median(&shard_ms) / median(&seq_ms));
        } else {
            eprintln!("wan_bulk: the 2-shard kernel ran cooperatively; no threaded ratio reported");
        }

        let testbed_ms = probe_ms(tr, "core.testbed_build", 5, |_| adapter::testbed_build());
        out.set("core.testbed_build_us", testbed_ms * 1e3);
        let mut scenario_s = 0.0;
        let mut model = None;
        tr.span("core.model_outputs", || {
            let (m, s) = adapter::model_outputs();
            (model, scenario_s) = (Some(m), s);
        });
        let model = model.expect("span ran");
        out.set("core.scenario_run_us", scenario_s * 1e6);
        out.set("sim.fig2_latency_p50_s", model.fig2_latency_p50_s);
        out.set("sim.table1_total_256_s", model.table1_total_256_s);
        out.set("sim.table1_speedup_256", model.table1_speedup_256);
        out.set("sim.atm622_raw_ip_fps", model.atm622_raw_ip_fps);
    }
}

// ----------------------------------------------------------- atm_cells

struct AtmCells {
    pdus: Vec<Vec<u8>>,
    cells: u64,
    scale: Scale,
    queue_depth: u64,
    last: Option<adapter::AtmRun>,
}

/// One cell every 700 ns: just under the OC-12 bottleneck's 682 ns cell
/// time, so the GMD switch queues but never drops.
const CELL_GAP_NS: u64 = 700;

impl AtmCells {
    fn setup(seed: u64, scale: Scale) -> Self {
        let (small, large) = match scale {
            Scale::Full => (40_000, 208),
            Scale::Tiny => (100, 2),
        };
        // The seed decides every payload byte. The order is fixed, each
        // large PDU after its share of the one-cell ones: where the large
        // ones fall moves the allocator's peak, and with it `peak_rss_mb`,
        // by a tenth, which a seed must not do.
        let mut rng = Rng::new(seed, "atm");
        let mut pdus: Vec<Vec<u8>> = Vec::with_capacity(small + large);
        for block in 0..large {
            let smalls = small * (block + 1) / large - small * block / large;
            pdus.extend((0..smalls).map(|_| rng.bytes(40)));
            pdus.push(rng.bytes(9180));
        }
        let cells = pdus.iter().map(|p| adapter::aal5_cells_for(p.len())).sum();
        AtmCells { pdus, cells, scale, queue_depth: 0, last: None }
    }
}

impl Workload for AtmCells {
    fn warmup_ops(&self) -> u64 {
        2
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        self.cells as f64
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        // Free the previous op's deliveries first: every op then starts
        // from the same heap, and `peak_rss_mb` is the peak of one op.
        self.last = None;
        let cells: Vec<adapter::Cell> = tr.span("net.aal5.segment", || {
            self.pdus.iter().flat_map(|p| adapter::aal5_segment(p)).collect()
        });
        let mut pvc = tr.span("desim.schedule", || {
            let mut pvc = adapter::AtmPvc::new();
            pvc.inject(cells, 0, CELL_GAP_NS);
            pvc
        });
        self.queue_depth = pvc.events_pending();
        tr.span("desim.run", || pvc.run());
        self.last = Some(tr.span("desim.collect", || pvc.finish()));
    }

    fn check(&mut self) -> bool {
        let run = self.last.as_ref().expect("op ran");
        run.reassembly_errors == 0
            && run.drops == 0
            && run.cells_in == 2 * self.cells
            && run.delivered == self.pdus
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let run = self.last.as_ref().expect("op ran");
        let run_ns = span_p50_ns(tr, "desim.run");
        let bare = bare_ns_per_event(tr, self.scale);
        out.set("desim.events", run.events as f64);
        out.set("desim.ns_per_event", run_ns / run.events as f64);
        out.set("desim.bare_ns_per_event", bare);
        out.set("desim.handler_ns_per_event", run_ns / run.events as f64 - bare);
        out.set("desim.queue_depth_hwm", self.queue_depth as f64);
        out.set("net.switch.cells_in", run.cells_in as f64);
        out.set("net.switch.drops", run.drops as f64);
        out.set("net.switch.ns_per_cell", run_ns / run.cells_in as f64);
        out.set(
            "net.aal5.segment_ns_per_cell",
            span_p50_ns(tr, "net.aal5.segment") / self.cells as f64,
        );

        let per_pdu: Vec<Vec<adapter::Cell>> =
            self.pdus.iter().map(|p| adapter::aal5_segment(p)).collect();
        let ms = probe_ms(tr, "net.aal5.reassemble", 5, |_| {
            per_pdu.iter().filter(|cells| adapter::aal5_reassemble(cells).is_some()).count()
        });
        out.set("net.aal5.reassemble_ns_per_cell", ms * 1e6 / self.cells as f64);
        let ms = probe_ms(tr, "net.cell.wire_round_trip", 5, |_| {
            per_pdu.iter().flatten().filter(|c| adapter::cell_wire_round_trip(c)).count()
        });
        out.set("net.cell.wire_roundtrip_ns", ms * 1e6 / self.cells as f64);
    }
}

// ------------------------------------------------------- control_storm

struct ControlStorm {
    fault_seeds: Vec<u64>,
    scale: Scale,
    /// Ops this object has run; op `k` always draws fault seed `k`.
    ops_run: usize,
    last: [adapter::StormOutcome; 2],
    /// Outcomes of this object's first [`COUNTED_OPS`] measured ops, for
    /// counts that do not depend on how many ops fit in the time box.
    counted: Vec<[adapter::StormOutcome; 2]>,
}

const COUNTED_OPS: usize = 5;

impl ControlStorm {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, "control");
        ControlStorm {
            fault_seeds: (0..4096).map(|_| rng.next_u64()).collect(),
            scale,
            ops_run: 0,
            last: Default::default(),
            counted: Vec::new(),
        }
    }
}

impl Workload for ControlStorm {
    fn warmup_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 16,
            Scale::Tiny => 0,
        }
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        400.0
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        let s = self.fault_seeds[self.ops_run % self.fault_seeds.len()];
        self.ops_run += 1;
        self.last = [
            tr.span("net.replica.multi_domain", || adapter::replica_multi_domain(s)),
            tr.span("net.replica.single_domain", || adapter::replica_single_domain(s)),
        ];
    }

    /// A call left unplaced is a failed op, and so is a group that ends
    /// with diverged states or unbalanced budgets.
    fn check(&mut self) -> bool {
        if self.ops_run as u64 > self.warmup_ops() && self.counted.len() < COUNTED_OPS {
            self.counted.push(self.last);
        }
        self.last.iter().all(|o| o.consistent && o.offered == 200 && o.placed == o.offered)
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let all = || self.counted.iter().flatten();
        let sum = |f: fn(&adapter::StormOutcome) -> u64| all().map(f).sum::<u64>() as f64;
        out.set("net.replica.us_per_call", out.op_ns / 1e3 / self.work_per_op());
        out.set("net.replica.elections", sum(|o| o.elections));
        out.set("net.replica.retries", sum(|o| o.retries));
        out.set("net.replica.redirects", sum(|o| o.redirects));
        out.set("net.replica.handoffs_confirmed", sum(|o| o.handoffs_confirmed));
        out.set("net.replica.handoffs_aborted", sum(|o| o.handoffs_aborted));
        out.set(
            "net.replica.max_dedup_table",
            all().map(|o| o.max_dedup_table).max().unwrap_or(0) as f64,
        );
        out.set(
            "sim.control_max_place_latency_s",
            all().map(|o| o.max_place_latency_s).fold(0.0, f64::max),
        );
        out.set("desim.bare_ns_per_event", bare_ns_per_event(tr, self.scale));
    }
}

// --------------------------------------------------------- fire_stream

struct FireStream {
    series: adapter::ScanSeries,
    acquire_ms_per_volume: f64,
    stream: adapter::FireStream,
    /// Scans the current session has processed.
    scans_in: usize,
    scale: Scale,
    final_map_ms: Vec<f64>,
    /// The first session's final map and its detection rates.
    first_map: Option<(Volume, f64, f64)>,
}

/// Clip level and limits of the final-map check: the rule of
/// `tests/end_to_end_fmri.rs` (tpr >= 0.5, fpr < 0.06 at its lower noise),
/// refitted at the paper-default noise level. Over 170 scanner seeds at
/// 64 scans the true-positive rate had median 0.69 and fell below one
/// half three times (lowest 0.44): the stronger of the phantom's two
/// sites, 32 of the 64 true voxels, is nearly always found whole. The
/// false-positive rate had median 0.004 and maximum 0.045. The limits
/// leave room for a seed outside that sample; a map with no signal in
/// it has equal rates and fails both.
const CLIP: f32 = 0.45;
const MIN_TPR: f64 = 0.35;
const MAX_FPR: f64 = 0.08;

fn epi_dims(scale: Scale) -> Dims {
    match scale {
        Scale::Full => Dims::EPI,
        Scale::Tiny => Dims::new(16, 16, 4),
    }
}

impl FireStream {
    fn setup(seed: u64, scale: Scale) -> Self {
        let scans = match scale {
            Scale::Full => 64,
            Scale::Tiny => 8,
        };
        let scanner_seed = Rng::new(seed, "fire_stream").next_u64();
        let (series, acquire_s) = adapter::scan_series(scanner_seed, scans, epi_dims(scale));
        FireStream {
            stream: adapter::FireStream::new(&series),
            acquire_ms_per_volume: acquire_s * 1e3 / scans as f64,
            series,
            scans_in: 0,
            scale,
            final_map_ms: Vec::new(),
            first_map: None,
        }
    }

    fn session(&self) -> usize {
        self.series.volumes.len()
    }
}

impl Workload for FireStream {
    fn warmup_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 8,
            Scale::Tiny => 0,
        }
    }

    /// At least one whole session, so that a final map is scored.
    fn min_ops(&self) -> u64 {
        self.session() as u64
    }

    /// A whole session. Motion correction iterates until it converges, 2
    /// to 7 times a scan as the head drifts, so a scan costs 23 to 55 ms;
    /// only a session's median is the same from subject to subject.
    fn window_ops(&self) -> usize {
        self.session()
    }

    fn work_per_op(&self) -> f64 {
        1.0
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        let raw = &self.series.volumes[self.scans_in];
        tr.span("fire.process", || self.stream.process(raw));
        self.scans_in += 1;
    }

    /// When a session's last scan is in, score its final map against the
    /// phantom's truth mask and start the next session on a new pipeline.
    fn check(&mut self) -> bool {
        if self.scans_in < self.session() {
            return true;
        }
        self.scans_in = 0;
        let started = Instant::now();
        let map = self.stream.final_map();
        self.final_map_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let (tpr, fpr) = adapter::detection_rates(&map, &self.series.truth, CLIP);
        self.first_map.get_or_insert((map, tpr, fpr));
        self.stream = adapter::FireStream::new(&self.series);
        // The tiny series is too short to detect anything; its map only
        // has to be a correlation map.
        self.scale == Scale::Tiny || (tpr >= MIN_TPR && fpr < MAX_FPR)
    }

    fn check_run(&mut self) -> bool {
        self.first_map.as_ref().is_some_and(|(map, ..)| map.data.iter().all(|c| c.abs() <= 1.001))
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let vols = &self.series.volumes;
        let reps = vols.len().min(8);
        let filtered: Vec<Volume> = vols[..reps].iter().map(adapter::fire_median).collect();
        let median_ms =
            probe_ms(tr, "fire.median_filter", reps, |k| adapter::fire_median(&vols[k]));
        let motion = adapter::MotionProbe::new(filtered[0].clone());
        let motion_ms = probe_ms(tr, "fire.motion.correct", reps, |k| motion.correct(&filtered[k]));
        let mut corr = adapter::CorrelateProbe::new(&self.series);
        let correlate_ms =
            probe_ms(tr, "fire.correlate", reps, |k| corr.push_and_map(&filtered[k]));
        let (map, tpr, fpr) = self.first_map.as_ref().expect("a session completed");
        out.set("fire.median_ms", median_ms);
        out.set("fire.motion_ms", motion_ms);
        out.set("fire.correlate_ms", correlate_ms);
        out.set(
            "fire.average_ms",
            probe_ms(tr, "fire.average_filter", reps, |_| adapter::fire_average(map)),
        );
        out.set("fire.final_map_ms", median(&self.final_map_ms));
        // Computed: what `process` spends outside the three modules
        // (volume clones, the series push).
        out.set("fire.process_other_ms", out.op_ns / 1e6 - median_ms - motion_ms - correlate_ms);
        out.set("fire.detection_tpr", *tpr);
        out.set("fire.detection_fpr", *fpr);
        out.set("scan.acquire_ms_per_volume", self.acquire_ms_per_volume);
    }
}

// ------------------------------------------------------------ fire_rvo

struct FireRvo {
    series: adapter::ScanSeries,
    acquire_ms_per_volume: f64,
    scale: Scale,
    last: Option<adapter::RvoOutcome>,
    first_digest: Option<u64>,
}

impl FireRvo {
    fn setup(seed: u64, scale: Scale) -> Self {
        let scans = match scale {
            Scale::Full => 32,
            Scale::Tiny => 8,
        };
        let scanner_seed = Rng::new(seed, "fire_rvo").next_u64();
        let (series, acquire_s) = adapter::scan_series(scanner_seed, scans, epi_dims(scale));
        FireRvo {
            series,
            acquire_ms_per_volume: acquire_s * 1e3 / scans as f64,
            scale,
            last: None,
            first_digest: None,
        }
    }
}

impl Workload for FireRvo {
    fn warmup_ops(&self) -> u64 {
        1
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        self.series.dims.len() as f64
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        self.last = Some(tr.span("fire.rvo.optimize", || adapter::rvo_paper_grid(&self.series)));
    }

    fn check(&mut self) -> bool {
        let out = self.last.as_ref().expect("op ran");
        out.voxels == self.series.dims.len() as u64
            && *self.first_digest.get_or_insert(out.digest) == out.digest
    }

    fn layers(&mut self, _tr: &mut Tracer, out: &mut Layers) {
        let last = self.last.as_ref().expect("op ran");
        out.set("fire.rvo_ms", out.op_ns / 1e6);
        out.set("fire.rvo_candidates", last.evaluations as f64);
        out.set("scan.acquire_ms_per_volume", self.acquire_ms_per_volume);
    }
}

// ------------------------------------------------------- render_frames

struct RenderFrames {
    renderer: adapter::Renderer,
    dims: Dims,
    side: usize,
    scale: Scale,
    /// Where in the first 10 degrees the seed put view 0.
    phase: f32,
    anatomy_build_ms: f64,
    renderer_build_ms: f64,
    last: Option<(usize, adapter::Frame)>,
    /// Checksum of each view once rendered; a repeat must match.
    seen: [Option<u64>; VIEWS],
}

const VIEWS: usize = 36;

/// The views step round the head in 10-degree turns, as a user turning
/// it would. Frame cost depends on the azimuth (by about a tenth either
/// way), so the order is the same at every seed and only the phase moves.
fn azimuth(phase: f32, view: usize) -> f32 {
    (phase + view as f32 * 10.0).to_radians()
}

impl RenderFrames {
    fn setup(seed: u64, scale: Scale) -> Self {
        let (dims, side) = match scale {
            Scale::Full => (Dims::new(256, 256, 128), 256),
            Scale::Tiny => (Dims::new(32, 32, 16), 32),
        };
        let started = Instant::now();
        let anatomy = adapter::phantom_anatomy(dims);
        let anatomy_build_ms = started.elapsed().as_secs_f64() * 1e3;
        let activation = adapter::phantom_activation(dims);
        let started = Instant::now();
        let renderer = adapter::Renderer::new(anatomy, activation);
        let renderer_build_ms = started.elapsed().as_secs_f64() * 1e3;
        RenderFrames {
            renderer,
            dims,
            side,
            scale,
            phase: Rng::new(seed, "render").unit() as f32 * 10.0,
            anatomy_build_ms,
            renderer_build_ms,
            last: None,
            seen: [None; VIEWS],
        }
    }

    fn frame(&self, view: usize, tr: &mut Tracer) -> adapter::Frame {
        let image =
            tr.span("viz.render", || self.renderer.render(azimuth(self.phase, view), self.side));
        // Not the renderer's work: summarised under its own span so the
        // op's children still cover the op.
        tr.span("check.frame_summary", || adapter::frame_summary(&image))
    }
}

impl Workload for RenderFrames {
    fn warmup_ops(&self) -> u64 {
        1
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        1.0
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) {
        let view = i as usize % VIEWS;
        self.last = Some((view, self.frame(view, tr)));
    }

    fn check(&mut self) -> bool {
        let (view, frame) = self.last.take().expect("op ran");
        frame.coverage > 0.05
            && frame.coverage < 0.95
            && *self.seen[view].get_or_insert(frame.checksum) == frame.checksum
    }

    /// The same view rendered twice gives the same image, whether or
    /// not the time box was long enough to come round to a view again.
    fn check_run(&mut self) -> bool {
        let Some(view) = self.seen.iter().position(Option::is_some) else { return false };
        let again = self.frame(view, &mut Tracer::new());
        self.seen[view] == Some(again.checksum)
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let rays = (self.side * self.side) as f64;
        let render_ns = span_p50_ns(tr, "viz.render");
        out.set("viz.rays", rays);
        out.set("viz.ns_per_ray", render_ns / rays);
        out.set("viz.renderer_build_ms", self.renderer_build_ms);
        out.set("scan.anatomy_build_ms", self.anatomy_build_ms);
        out.set("viz.coverage", self.frame(0, tr).coverage);
        // The 2-D overlay wants volumes of its own: the renderer keeps
        // the ones it was built from.
        let dims = match self.scale {
            Scale::Full => Dims::new(128, 128, 64),
            Scale::Tiny => self.dims,
        };
        let (anatomy, map) = (adapter::phantom_anatomy(dims), adapter::phantom_activation(dims));
        out.set(
            "viz.overlay_ms",
            probe_ms(tr, "viz.overlay", 5, |_| adapter::overlay_middle_slice(&anatomy, &map)),
        );
    }
}

// -------------------------------------------------------- mpi_loopback

struct MpiLoopback<'a> {
    lb: &'a adapter::Loopback,
    small: Vec<[f64; 8]>,
    small_rounds: usize,
    volumes: Vec<Vec<f32>>,
    volume_trips: usize,
    scale: Scale,
    last: Option<(u64, Vec<f32>)>,
}

impl<'a> MpiLoopback<'a> {
    fn setup(seed: u64, scale: Scale, lb: &'a adapter::Loopback) -> Self {
        let (small, small_rounds, voxels, volume_trips) = match scale {
            Scale::Full => (1000, 4, Dims::EPI.len(), 16),
            Scale::Tiny => (50, 1, 1024, 2),
        };
        let mut rng = Rng::new(seed, "mpi");
        let small = (0..small).map(|_| std::array::from_fn(|_| rng.unit())).collect();
        let volumes =
            (0..4).map(|_| (0..voxels).map(|_| rng.unit() as f32 * 900.0).collect()).collect();
        MpiLoopback { lb, small, small_rounds, volumes, volume_trips, scale, last: None }
    }

    fn small_per_op(&self) -> usize {
        self.small.len() * self.small_rounds
    }
}

impl Workload for MpiLoopback<'_> {
    fn warmup_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 50,
            Scale::Tiny => 1,
        }
    }

    fn min_ops(&self) -> u64 {
        min_ops(self.scale)
    }

    fn work_per_op(&self) -> f64 {
        (self.small_per_op() + self.volume_trips) as f64
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) {
        let mismatches = tr.span("mpi.small_batch", || {
            (0..self.small_rounds).map(|_| self.lb.small_batch(&self.small)).sum()
        });
        let back = tr.span("mpi.volume_batch", || {
            let mut back = Vec::new();
            for k in 0..self.volume_trips {
                back = self.lb.volume_round_trip(&self.volumes[k % self.volumes.len()]);
            }
            back
        });
        self.last = Some((mismatches, back));
    }

    fn check(&mut self) -> bool {
        let (mismatches, back) = self.last.take().expect("op ran");
        let sent = &self.volumes[(self.volume_trips - 1) % self.volumes.len()];
        mismatches == 0 && back.iter().map(|v| v.to_bits()).eq(sent.iter().map(|v| v.to_bits()))
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let volume_bytes = (self.volume_trips * self.volumes[0].len() * 4) as f64;
        out.set(
            "mpi.small_ns_per_msg",
            span_p50_ns(tr, "mpi.small_batch") / self.small_per_op() as f64,
        );
        out.set("mpi.volume_ns_per_byte", span_p50_ns(tr, "mpi.volume_batch") / volume_bytes);
        let counts = tr.span("mpi.allreduce8", adapter::mpi_allreduce8_counts);
        out.set("mpi.allreduce8.flat_wan_messages", counts.flat_wan_messages as f64);
        out.set("mpi.allreduce8.topo_wan_messages", counts.topo_wan_messages as f64);
        out.set("mpi.allreduce8.payload_bytes", counts.payload_bytes as f64);
        let rounds = if self.scale == Scale::Full { 2000 } else { 20 };
        out.set(
            "mpi.allreduce2_us_p50",
            tr.span("mpi.allreduce2", || adapter::mpi_allreduce2_us(rounds)),
        );
    }
}
