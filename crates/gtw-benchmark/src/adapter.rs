//! Every call the benchmark makes into the program lives here.
//!
//! The workloads see plain inputs and plain results; a refactor of a
//! run-entry family, of `comm.rs` or of `replica.rs` edits this file and
//! nothing else in the benchmark. A change that is *not* a benchmark
//! change must keep the signatures pinned below compiling unchanged:
//!
//! | layer | pinned |
//! |---|---|
//! | desim | `Simulator::{new, add_component, send_at, run, events_processed, events_pending, component, component_mut}`, `Component`, `Ctx::send_in`, `MetricsSink::{recording, registries}`, `MetricsRegistry::{value, hwm}`, `Json` |
//! | net | `TransferSet::{new, add, run, run_metrics}`, `BulkTransfer`, `HopModel`, `aal5::{segment, cells_for_pdu, Reassembler::push}`, `AtmCell::{to_wire, from_wire}`, `AtmSwitch::{new, add_route}`, `OutputPort::simple`, `CellEndpoint`, `replica::{control_fault_report, multi_domain_fault_report}` |
//! | mpi | `Universe::{run, run_placed}`, `Comm::{send_f64s, recv_f64s, send_f32s, recv_f32s, allreduce_f64s, allreduce_topo_f64s, comm_cost}`, `Placement::split` |
//! | scan | `Scanner::{new, acquire}`, `ScannerConfig::paper_default`, `Phantom::{standard, anatomy, activation_map, truth_mask}`, `ReferenceVector::canonical` |
//! | fire | `FirePipeline::{new, process, correlation_map}`, `FireConfig::default`, `rvo::optimize`, `RvoMethod::paper_grid`, `filters::{median_filter, average_filter}`, `MotionCorrector::{new, correct}`, `CorrelationState::{new, push, correlation_map}`, `score_detection` |
//! | viz | `VolumeRenderer::{new, render}`, `RenderParams`, `render_overlay`, `workbench_frame_rate` |
//! | core | `GigabitTestbedWest::build`, `FmriScenario::paper(..).run()`, `T3eModel::t3e_600().table1()`, `run_chain_traced` |

use std::hint::black_box;

use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::component::msg;
use gtw_desim::{
    Component, ComponentId, Ctx, Json, MetricsSink, Msg, SimDuration, SimTime, Simulator, SpanSink,
};
use gtw_fire::analysis::{score_detection, CorrelationState};
use gtw_fire::filters::{average_filter, median_filter};
use gtw_fire::motion::MotionCorrector;
use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_fire::realtime::{run_chain_traced, ChainMode, RealtimeConfig};
use gtw_fire::rvo::{self, RvoBounds, RvoMethod};
use gtw_fire::t3e::T3eModel;
use gtw_mpi::{Comm, FabricSpec, MachineSpec, Placement, ReduceOp, Tag, Universe};
use gtw_net::aal5::{self, Reassembler};
use gtw_net::cell::AtmCell;
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::replica;
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{BulkTransfer, Protocol, TransferSet};
use gtw_net::units::Bandwidth;
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::{ReferenceVector, Stimulus};
use gtw_scan::phantom::Phantom;
use gtw_viz::overlay::render_overlay;
use gtw_viz::raycast::{RenderParams, VolumeRenderer};
use gtw_viz::workbench::{workbench_frame_rate, FrameTransport, Workbench};

use crate::rng::{fnv1a, FNV_OFFSET};

pub use gtw_scan::volume::{Dims, Volume};

// ---------------------------------------------------------------- desim

struct Pinger {
    peer: ComponentId,
    left: u64,
}

impl Component for Pinger {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send_in(SimDuration::from_nanos(10), self.peer, m);
        }
    }
}

/// Two components bouncing one boxed message until `events` events have
/// run: the kernel's queue/dispatch cost with empty handlers and no
/// `net`. Returns the events the kernel counted.
pub fn desim_ping_pong(events: u64) -> u64 {
    let mut sim = Simulator::new();
    let a = sim.add_component(Pinger { peer: ComponentId::placeholder(), left: events / 2 });
    let b = sim.add_component(Pinger { peer: a, left: events / 2 });
    sim.component_mut::<Pinger>(a).peer = b;
    sim.send_at(SimTime::ZERO, a, msg(0u64));
    sim.run();
    sim.events_processed()
}

// ------------------------------------------------------------ net: TCP

/// What the seed decides for one flow of the WAN scenario.
pub struct WanFlow {
    /// Rate of the WAN (bottleneck) hop.
    pub bottleneck_mbps: f64,
    /// Extra propagation on the four access hops, microseconds.
    pub access_extra_us: u64,
}

/// The `kernel_bench` scenario: concurrent TCP bulk transfers over seven
/// hops with a 500 µs WAN section in the middle, MTU 9180.
pub struct WanScenario {
    set: TransferSet,
    bytes_per_flow: u64,
}

pub struct WanRun {
    pub delivered: Vec<u64>,
    pub segments: u64,
    pub retransmits: u64,
    pub events: u64,
    /// Aggregate simulated goodput: payload bits over the slowest
    /// flow's simulated elapsed time.
    pub sim_goodput_mbps: f64,
    report: gtw_net::stats::RunReport,
}

impl WanRun {
    /// The run report as JSON text; byte-identical across kernels.
    pub fn report_json(&self) -> String {
        self.report.to_json().dump()
    }
}

/// Kernel counters of one sharded run, summed (or maximised) over shards.
#[derive(Default)]
pub struct ShardStats {
    pub shards: u64,
    pub windows: u64,
    pub xshard_events: u64,
    pub barrier_wait_ns: u64,
    pub lookahead_util_ppm: u64,
    pub queue_depth_hwm: u64,
}

impl WanScenario {
    pub fn build(flows: &[WanFlow], bytes_per_flow: u64) -> Self {
        let hop = |mbps: f64, prop_us: u64| HopModel {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(prop_us),
        };
        let mut set = TransferSet::new();
        for f in flows {
            let k = f.access_extra_us;
            set.add(BulkTransfer {
                hops: vec![
                    hop(800.0, 3 + k),
                    hop(622.0, 5 + k),
                    hop(622.0, 8),
                    hop(f.bottleneck_mbps, 500),
                    hop(622.0, 8),
                    hop(622.0, 5 + k),
                    hop(800.0, 3 + k),
                ],
                ip: IpConfig { mtu: 9180 },
                bytes: bytes_per_flow,
                protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
            });
        }
        WanScenario { set, bytes_per_flow }
    }

    pub fn offered_bytes(&self) -> u64 {
        self.bytes_per_flow * self.set.len() as u64
    }

    pub fn bytes_per_flow(&self) -> u64 {
        self.bytes_per_flow
    }

    /// `shards == 0` is the sequential kernel.
    pub fn run(&self, shards: usize) -> WanRun {
        let (flows, report) = self.set.run(shards);
        Self::collect(flows, report)
    }

    /// The same run with a recording metrics sink on the sharded kernel.
    pub fn run_metrics(&self, shards: usize) -> (WanRun, ShardStats) {
        let sink = MetricsSink::recording();
        let (flows, report) = self.set.run_metrics(shards, &sink);
        let mut stats = ShardStats::default();
        for reg in sink.registries() {
            let v = |name: &str| reg.value(name).unwrap_or(0);
            stats.shards += 1;
            stats.windows = stats.windows.max(v("windows"));
            stats.xshard_events += v("xshard_events");
            stats.barrier_wait_ns += v("barrier_wait_ns");
            stats.lookahead_util_ppm =
                stats.lookahead_util_ppm.max(reg.hwm("lookahead_util_ppm").unwrap_or(0));
            stats.queue_depth_hwm = stats.queue_depth_hwm.max(reg.hwm("queue_depth").unwrap_or(0));
        }
        (Self::collect(flows, report), stats)
    }

    fn collect(
        flows: Vec<gtw_net::transfer::TransferReport>,
        report: gtw_net::stats::RunReport,
    ) -> WanRun {
        let slowest_s = flows.iter().map(|f| f.elapsed.as_secs_f64()).fold(0.0, f64::max);
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        WanRun {
            delivered: flows.iter().map(|f| f.bytes).collect(),
            segments: flows.iter().map(|f| f.packets_sent).sum(),
            retransmits: flows.iter().map(|f| f.retransmits).sum(),
            events: report.events_processed,
            sim_goodput_mbps: bytes as f64 * 8.0 / slowest_s / 1e6,
            report,
        }
    }
}

// ---------------------------------------------------------- net: cells

pub type Cell = AtmCell;

const PVC_IN: (u8, u16) = (1, 100);

/// Cells an AAL5 PDU of `payload_len` bytes segments into.
pub fn aal5_cells_for(payload_len: usize) -> u64 {
    aal5::cells_for_pdu(payload_len) as u64
}

pub fn aal5_segment(payload: &[u8]) -> Vec<Cell> {
    aal5::segment(payload, PVC_IN.0, PVC_IN.1)
}

/// Reassemble one PDU's cells directly, without a simulator.
pub fn aal5_reassemble(cells: &[Cell]) -> Option<Vec<u8>> {
    let mut r = Reassembler::new();
    let mut out = None;
    for cell in cells {
        if let Some(done) = r.push(cell) {
            out = done.ok();
        }
    }
    out
}

/// One cell to its 53 wire octets and back (HEC generated and checked).
pub fn cell_wire_round_trip(cell: &Cell) -> bool {
    AtmCell::from_wire(&black_box(cell.to_wire())).is_some_and(|back| back == *cell)
}

/// The cell-level PVC FZJ switch → (OC-48, 500 µs) → GMD switch →
/// (OC-12) → reassembling endpoint.
pub struct AtmPvc {
    sim: Simulator,
    fzj: ComponentId,
    gmd: ComponentId,
    endpoint: ComponentId,
}

pub struct AtmRun {
    pub delivered: Vec<Vec<u8>>,
    pub reassembly_errors: u64,
    pub cells_in: u64,
    pub drops: u64,
    pub events: u64,
}

impl AtmPvc {
    pub fn new() -> Self {
        let mut sim = Simulator::new();
        let endpoint = sim.add_component(CellEndpoint::default());
        let buffer_cells = 4096;
        let mut gmd = AtmSwitch::new(
            "gmd",
            vec![OutputPort::simple(
                endpoint,
                0,
                Bandwidth::OC12,
                SimDuration::from_micros(5),
                buffer_cells,
            )],
        );
        gmd.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
        let gmd = sim.add_component(gmd);
        let mut fzj = AtmSwitch::new(
            "fzj",
            vec![OutputPort::simple(
                gmd,
                0,
                Bandwidth::OC48,
                SimDuration::from_micros(500),
                buffer_cells,
            )],
        );
        fzj.add_route(
            VcKey { port: 0, vpi: PVC_IN.0, vci: PVC_IN.1 },
            VcRoute { port: 0, vpi: 2, vci: 200 },
        );
        let fzj = sim.add_component(fzj);
        AtmPvc { sim, fzj, gmd, endpoint }
    }

    /// Schedule `cells` to arrive at the FZJ switch one every `gap_ns`,
    /// starting at cell slot `first_slot`.
    pub fn inject(&mut self, cells: Vec<Cell>, first_slot: u64, gap_ns: u64) {
        for (i, cell) in cells.into_iter().enumerate() {
            let at = SimTime::from_nanos((first_slot + i as u64) * gap_ns);
            self.sim.send_at(at, self.fzj, msg(CellArrive { port: 0, cell }));
        }
    }

    pub fn events_pending(&self) -> u64 {
        self.sim.events_pending() as u64
    }

    pub fn run(&mut self) {
        self.sim.run();
    }

    pub fn finish(mut self) -> AtmRun {
        let stats = |sim: &Simulator, id| sim.component::<AtmSwitch>(id).stats.clone();
        let (a, b) = (stats(&self.sim, self.fzj), stats(&self.sim, self.gmd));
        let events = self.sim.events_processed();
        let ep = self.sim.component_mut::<CellEndpoint>(self.endpoint);
        AtmRun {
            delivered: std::mem::take(&mut ep.delivered).into_iter().map(|(_, p)| p).collect(),
            reassembly_errors: ep.errors + ep.dropped_msgs,
            cells_in: a.cells_in() + b.cells_in(),
            drops: a.cells_in() - a.switched + b.cells_in() - b.switched,
            events,
        }
    }
}

// ------------------------------------------------------- net: replica

/// What one fault-scenario report says about its 200 offered calls.
#[derive(Default, Clone, Copy)]
pub struct StormOutcome {
    pub offered: u64,
    pub placed: u64,
    /// `states_converged` (and `budgets_conserved` where reported).
    pub consistent: bool,
    pub elections: u64,
    pub retries: u64,
    pub redirects: u64,
    pub handoffs_confirmed: u64,
    pub handoffs_aborted: u64,
    pub max_dedup_table: u64,
    pub max_place_latency_s: f64,
}

fn storm_outcome(report: &Json) -> StormOutcome {
    let n = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let flag = |key: &str| report.get(key).is_none_or(|v| *v == Json::Bool(true));
    StormOutcome {
        offered: n("offered") as u64,
        placed: n("placed") as u64,
        consistent: flag("states_converged") && flag("budgets_conserved"),
        elections: n("elections") as u64,
        retries: n("retries") as u64,
        redirects: n("redirects") as u64,
        handoffs_confirmed: n("handoffs_confirmed") as u64,
        handoffs_aborted: n("handoffs_aborted") as u64,
        max_dedup_table: n("max_dedup_table") as u64,
        max_place_latency_s: n("max_place_latency_s"),
    }
}

/// Three replica groups, two-phase hand-off, crash + partition + blips +
/// gateway fail-over + reconfiguration.
pub fn replica_multi_domain(fault_seed: u64) -> StormOutcome {
    storm_outcome(&replica::multi_domain_fault_report(fault_seed))
}

/// One replica group under leader crash, minority partition, blip storm.
pub fn replica_single_domain(fault_seed: u64) -> StormOutcome {
    storm_outcome(&replica::control_fault_report(fault_seed))
}

// ---------------------------------------------------------- scan, fire

/// A pre-acquired EPI series with its ground truth.
pub struct ScanSeries {
    pub volumes: Vec<Volume>,
    pub truth: Vec<bool>,
    pub dims: Dims,
    stimulus: Stimulus,
}

/// Acquire `scans` volumes of the standard phantom at the paper-default
/// noise, drift and motion. Returns the series and the seconds spent in
/// `Scanner::acquire` alone.
pub fn scan_series(scanner_seed: u64, scans: usize, dims: Dims) -> (ScanSeries, f64) {
    let mut cfg = ScannerConfig::paper_default(scans, scanner_seed);
    cfg.dims = dims;
    let scanner = Scanner::new(cfg, Phantom::standard());
    let started = std::time::Instant::now();
    let volumes: Vec<Volume> = (0..scans).map(|t| scanner.acquire(t)).collect();
    let acquire_s = started.elapsed().as_secs_f64();
    let series = ScanSeries {
        volumes,
        truth: scanner.phantom().truth_mask(dims, 0.025),
        dims,
        stimulus: scanner.config().stimulus.clone(),
    };
    (series, acquire_s)
}

/// The realtime per-scan path under `FireConfig::default()`.
pub struct FireStream(FirePipeline);

impl FireStream {
    pub fn new(series: &ScanSeries) -> Self {
        let rv = ReferenceVector::canonical(&series.stimulus);
        FireStream(FirePipeline::new(FireConfig::default(), series.dims, rv))
    }

    pub fn process(&mut self, raw: &Volume) {
        black_box(self.0.process(black_box(raw)));
    }

    /// The display-quality (detrended) map over the scans so far.
    pub fn final_map(&self) -> Volume {
        self.0.correlation_map()
    }
}

/// `(true-positive rate, false-positive rate)` of `map` at `clip`.
pub fn detection_rates(map: &Volume, truth: &[bool], clip: f32) -> (f64, f64) {
    let score = score_detection(map, truth, clip);
    (score.tpr, score.fpr)
}

pub fn fire_median(vol: &Volume) -> Volume {
    median_filter(black_box(vol))
}

pub fn fire_average(vol: &Volume) -> Volume {
    average_filter(black_box(vol))
}

pub struct MotionProbe(MotionCorrector);

impl MotionProbe {
    /// Same stride and intensity floor as `FirePipeline::process` uses.
    pub fn new(reference: Volume) -> Self {
        MotionProbe(MotionCorrector::new(reference, 2, 50.0))
    }

    pub fn correct(&self, moved: &Volume) -> Volume {
        self.0.correct(black_box(moved)).0
    }
}

pub struct CorrelateProbe(CorrelationState);

impl CorrelateProbe {
    pub fn new(series: &ScanSeries) -> Self {
        CorrelateProbe(CorrelationState::new(
            series.dims,
            &ReferenceVector::canonical(&series.stimulus),
        ))
    }

    /// One incremental update plus the per-scan map, as `process` does.
    pub fn push_and_map(&mut self, vol: &Volume) -> Volume {
        self.0.push(black_box(vol));
        self.0.correlation_map()
    }
}

pub struct RvoOutcome {
    pub evaluations: u64,
    pub voxels: u64,
    /// FNV-1a over the bits of the delay, dispersion and correlation maps.
    pub digest: u64,
}

/// `rvo::optimize` with the paper's full 13×7 raster, no mask.
pub fn rvo_paper_grid(series: &ScanSeries) -> RvoOutcome {
    let out = rvo::optimize(
        black_box(&series.volumes),
        &series.stimulus,
        RvoBounds::default(),
        RvoMethod::paper_grid(),
        None,
    );
    let mut digest = FNV_OFFSET;
    for map in [&out.delay, &out.dispersion, &out.correlation] {
        for v in &map.data {
            digest = fnv1a(digest, &v.to_bits().to_le_bytes());
        }
    }
    RvoOutcome { evaluations: out.evaluations, voxels: out.delay.data.len() as u64, digest }
}

// ----------------------------------------------------------------- viz

pub fn phantom_anatomy(dims: Dims) -> Volume {
    Phantom::standard().anatomy(dims)
}

pub fn phantom_activation(dims: Dims) -> Volume {
    Phantom::standard().activation_map(dims)
}

pub struct Renderer(VolumeRenderer);

pub struct Frame {
    pub coverage: f64,
    pub checksum: u64,
}

impl Renderer {
    pub fn new(anatomy: Volume, activation: Volume) -> Self {
        Renderer(VolumeRenderer::new(anatomy, Some(activation)))
    }

    /// Ray-cast one square frame; returns the image for [`frame_summary`].
    pub fn render(&self, azimuth: f32, side: usize) -> gtw_viz::image::Image {
        self.0.render(&RenderParams { width: side, height: side, azimuth, ..Default::default() })
    }
}

pub fn frame_summary(image: &gtw_viz::image::Image) -> Frame {
    Frame { coverage: image.coverage(), checksum: fnv1a(FNV_OFFSET, &image.to_rgb_bytes()) }
}

/// The 2-D overlay of the middle slice (Figure 3); returns its coverage.
pub fn overlay_middle_slice(anatomy: &Volume, map: &Volume) -> f64 {
    render_overlay(anatomy, map, anatomy.dims.nz / 2, 0.5).coverage()
}

// ----------------------------------------------------------------- mpi

const TAG_SMALL: Tag = Tag(1);
const TAG_VOLUME: Tag = Tag(2);

/// Rank 0 of a one-rank world, sending to itself: encode → mailbox →
/// decode on one thread, so no scheduler is in the timing.
pub struct Loopback(Comm);

/// Run `f` as the only rank of a world and return its result.
pub fn mpi_loopback<R, F>(f: F) -> R
where
    R: Send + 'static,
    F: Fn(&Loopback) -> R + Send + Sync + 'static,
{
    Universe::run(1, move |comm| f(&Loopback(comm))).pop().expect("one rank")
}

impl Loopback {
    /// Send and receive each 64-byte message in turn; returns how many
    /// came back different.
    pub fn small_batch(&self, msgs: &[[f64; 8]]) -> u64 {
        let mut mismatches = 0;
        for m in msgs {
            self.0.send_f64s(0, TAG_SMALL, m);
            let (back, _) = self.0.recv_f64s(0, TAG_SMALL);
            mismatches +=
                u64::from(back.iter().map(|v| v.to_bits()).ne(m.iter().map(|v| v.to_bits())));
        }
        mismatches
    }

    /// One EPI volume to self and back out of the mailbox.
    pub fn volume_round_trip(&self, voxels: &[f32]) -> Vec<f32> {
        self.0.send_f32s(0, TAG_VOLUME, voxels);
        self.0.recv_f32s(0, TAG_VOLUME).0
    }
}

pub struct AllreduceCounts {
    pub flat_wan_messages: u64,
    pub topo_wan_messages: u64,
    pub payload_bytes: u64,
}

/// Four allreduce rounds on 8 ranks over 2 sites, flat and topology-aware.
/// Eight threads exceed this host's cores, so only the modelled message
/// counts are reported, never a wall-clock.
pub fn mpi_allreduce8_counts() -> AllreduceCounts {
    let placement = Placement::split(
        8,
        4,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let run = |topo: bool| -> (u64, u64) {
        let costs = Universe::run_placed(placement.clone(), move |comm| {
            let contrib = [0.25 * comm.rank() as f64, 1.0];
            for _ in 0..4 {
                if topo {
                    comm.allreduce_topo_f64s(ReduceOp::Sum, &contrib);
                } else {
                    comm.allreduce_f64s(ReduceOp::Sum, &contrib);
                }
            }
            let c = comm.comm_cost();
            (c.wan_messages, c.bytes)
        });
        (costs.iter().map(|c| c.0).sum(), costs.iter().map(|c| c.1).sum())
    };
    let (flat, flat_bytes) = run(false);
    let (topo, topo_bytes) = run(true);
    AllreduceCounts {
        flat_wan_messages: flat,
        topo_wan_messages: topo,
        payload_bytes: flat_bytes + topo_bytes,
    }
}

/// Median microseconds of `rounds` two-rank allreduces, as rank 0 sees
/// them. Two threads on this host: informational only.
pub fn mpi_allreduce2_us(rounds: usize) -> f64 {
    let per_rank = Universe::run(2, move |comm| {
        let mut us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let started = std::time::Instant::now();
            black_box(comm.allreduce_f64s(ReduceOp::Sum, &[comm.rank() as f64, 1.0]));
            us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        us
    });
    crate::stats::median(&per_rank[0])
}

// ------------------------------------------------- core, model outputs

pub fn testbed_build() {
    black_box(GigabitTestbedWest::build(LinkEra::Oc48Upgrade));
}

/// Simulated and modelled outputs. A speed-only change moves none.
pub struct ModelOutputs {
    pub fig2_latency_p50_s: f64,
    pub table1_total_256_s: f64,
    pub table1_speedup_256: f64,
    pub atm622_raw_ip_fps: f64,
}

/// Returns the outputs and the seconds `FmriScenario::paper(256).run()`
/// took on the host.
pub fn model_outputs() -> (ModelOutputs, f64) {
    let started = std::time::Instant::now();
    let r = FmriScenario::paper(256).run();
    let scenario_run_s = started.elapsed().as_secs_f64();
    let chain = run_chain_traced(
        RealtimeConfig {
            tr_s: 3.0,
            acquire_s: r.acquire_s,
            transfer_s: r.transfers_s,
            compute_s: r.compute_s,
            display_s: r.display_s,
            scans: 40,
        },
        ChainMode::Pipelined,
        &SpanSink::disabled(),
    );
    let rows = T3eModel::t3e_600().table1();
    let last = rows.last().expect("table1 has rows");
    let hop622 = gtw_net::host::HostNic::workstation_atm622().hop(SimDuration::from_micros(500));
    let (fps, _) = workbench_frame_rate(
        &Workbench::paper(),
        FrameTransport::RawIp,
        &[hop622],
        IpConfig::large_mtu(),
    );
    let outputs = ModelOutputs {
        fig2_latency_p50_s: chain.latency.p50().as_secs_f64(),
        table1_total_256_s: last.total_s,
        table1_speedup_256: last.speedup,
        atm622_raw_ip_fps: fps,
    };
    (outputs, scenario_run_s)
}
