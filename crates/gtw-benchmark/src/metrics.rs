//! The names, units and bounds of every metric, and the workload list.
//! `BENCHMARK.json` at the repository root repeats them; a unit test
//! keeps the two in step.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "wan_bulk",
        work_unit: "simulated payload MB",
        why: "64 TCP flows x 4 MiB over 7 hops and a 500 us WAN cut on the sequential kernel: desim queue/dispatch plus net::tcp handlers do all the work, fire/viz/mpi none; the 2-shard kernel is probed when traced",
    },
    WorkloadDef {
        name: "atm_cells",
        work_unit: "cells delivered",
        why: "smallest-packet case: 80 k cells, half from one-cell PDUs, through aal5::segment, two AtmSwitches and a reassembling endpoint; one tiny boxed event per cell per hop, no TCP, no replica",
    },
    WorkloadDef {
        name: "control_storm",
        work_unit: "calls placed",
        why: "400 signalling calls per op through replicated control planes under crash, partition, blips and fail-over; desim as timers and closures, net::replica dominates; fault seed swept per op",
    },
    WorkloadDef {
        name: "fire_stream",
        work_unit: "EPI scans processed",
        why: "the realtime per-scan path: FirePipeline::process of 64x64x16 volumes with median, motion and detrend; fire::filters and fire::motion dominate, the simulator does nothing",
    },
    WorkloadDef {
        name: "fire_rvo",
        work_unit: "voxels optimised",
        why: "rvo::optimize on the paper's 13x7 raster over 32 scans: 98 % of Table 1 at 1 PE, parallel over voxels, and untouched by fire_stream",
    },
    WorkloadDef {
        name: "render_frames",
        work_unit: "frames rendered",
        why: "viz::raycast alone on the paper-size 256x256x128 anatomy plus activation (2 x 32 MiB, 16 times the private L2), 36 views stepping round the head from a seeded phase",
    },
    WorkloadDef {
        name: "mpi_loopback",
        work_unit: "messages",
        why: "one-rank self send/recv of 4000 64-byte and 16 256-KiB messages per op: encode, mailbox, decode on one thread, no scheduler in the timing",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. Every end-to-end metric
    /// has one; a per-layer metric with one is gated by `compare` too, and
    /// 0 leaves it reported only.
    pub bound: f64,
    /// Per-layer only: a count or a simulated value that must repeat
    /// exactly from run to run at one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound, exact: false }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0, exact: true }
}

const fn share(name: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit: "share", better, bound: 0.0, exact: false }
}

/// Reported by every workload when `--trace 0`. The two timings carry
/// the widest bound there is: in this host's slow phases their spread
/// over ten seeds reaches a tenth, and the median of ten runs moves by as
/// much between phases (README, noise floor).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Reported by every workload when `--trace 1`; 0 where the workload
/// does not run the layer or cannot observe it from outside.
pub const PER_LAYER: [MetricDef; 67] = [
    timed("op.quiet_p50_ms", "ms"),
    timed("op.p50_ms", "ms"),
    timed("op.tail_ms", "ms"),
    MetricDef { name: "op.tail_pct", unit: "%", better: Better::Higher, bound: 0.0, exact: false },
    MetricDef {
        name: "op.samples",
        unit: "count",
        better: Better::Higher,
        bound: 0.0,
        exact: false,
    },
    share("trace.overhead_share", Better::Lower),
    share("trace.span_coverage_share", Better::Higher),
    exact("desim.events", "count"),
    timed("desim.ns_per_event", "ns"),
    timed("desim.bare_ns_per_event", "ns"),
    timed("desim.handler_ns_per_event", "ns"),
    exact("desim.queue_depth_hwm", "count"),
    exact("desim.shard.windows", "count"),
    exact("desim.shard.xshard_events", "count"),
    share("desim.shard.barrier_wait_share", Better::Lower),
    exact("desim.shard.lookahead_util_ppm", "ppm"),
    MetricDef {
        name: "desim.shard.threaded",
        unit: "bool",
        better: Better::Higher,
        bound: 0.0,
        exact: false,
    },
    // The threaded 2-shard kernel's only gate: see the README on why it
    // is not a workload. The two kernels are timed turn and turn about,
    // so the host's slow phases cancel: five traced runs read 1.07 to 1.10.
    MetricDef {
        name: "desim.shard2_time_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    exact("net.tcp.segments", "count"),
    exact("net.tcp.retransmits", "count"),
    timed("net.tcp.ns_per_segment", "ns"),
    timed("net.aal5.segment_ns_per_cell", "ns"),
    timed("net.aal5.reassemble_ns_per_cell", "ns"),
    timed("net.cell.wire_roundtrip_ns", "ns"),
    exact("net.switch.cells_in", "count"),
    exact("net.switch.drops", "count"),
    timed("net.switch.ns_per_cell", "ns"),
    timed("net.replica.us_per_call", "us"),
    exact("net.replica.elections", "count"),
    exact("net.replica.retries", "count"),
    exact("net.replica.redirects", "count"),
    exact("net.replica.handoffs_confirmed", "count"),
    exact("net.replica.handoffs_aborted", "count"),
    exact("net.replica.max_dedup_table", "count"),
    timed("mpi.small_ns_per_msg", "ns"),
    timed("mpi.volume_ns_per_byte", "ns"),
    exact("mpi.allreduce8.flat_wan_messages", "count"),
    exact("mpi.allreduce8.topo_wan_messages", "count"),
    exact("mpi.allreduce8.payload_bytes", "count"),
    timed("mpi.allreduce2_us_p50", "us"),
    timed("scan.acquire_ms_per_volume", "ms"),
    timed("scan.anatomy_build_ms", "ms"),
    timed("fire.median_ms", "ms"),
    timed("fire.average_ms", "ms"),
    timed("fire.motion_ms", "ms"),
    timed("fire.correlate_ms", "ms"),
    timed("fire.final_map_ms", "ms"),
    timed("fire.process_other_ms", "ms"),
    exact("fire.detection_tpr", "share"),
    exact("fire.detection_fpr", "share"),
    timed("fire.rvo_ms", "ms"),
    exact("fire.rvo_candidates", "count"),
    exact("viz.rays", "count"),
    timed("viz.ns_per_ray", "ns"),
    timed("viz.renderer_build_ms", "ms"),
    timed("viz.overlay_ms", "ms"),
    exact("viz.coverage", "share"),
    timed("core.testbed_build_us", "us"),
    timed("core.scenario_run_us", "us"),
    exact("sim.wan_goodput_mbps", "Mbit/s"),
    exact("sim.fig2_latency_p50_s", "s"),
    exact("sim.atm622_raw_ip_fps", "1/s"),
    exact("sim.table1_total_256_s", "s"),
    exact("sim.table1_speedup_256", "ratio"),
    exact("sim.control_max_place_latency_s", "s"),
    exact("check.failed_ops", "count"),
    exact("check.run_ok", "bool"),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}
