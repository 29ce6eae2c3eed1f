//! High-level bulk-transfer experiments over a hop path.
//!
//! [`BulkTransfer`] takes the hop list derived from a
//! [`Topology`](crate::topology::Topology) path, instantiates the
//! event-driven pipeline ([`PipeStage`] chain plus TCP endpoints or a raw
//! streaming source), runs it to completion and reports goodput — the
//! number the paper's Section 2 measurements quote. `predict()` gives the
//! closed-form steady-state bound for cross-checking.

use gtw_desim::fault::{FaultPlan, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::{
    ComponentId, MetricsSink, ShardPlan, ShardedSimulator, SimDuration, SimTime, Simulator,
    SpanSink,
};

use crate::ip::{fragment_sizes, IpConfig};
use crate::link::{Arrive, Packet, PacketKind, PipeStage, Sink, StageConfig};
use crate::stats::{RunReport, StatsRegistry};
use crate::tcp::{HopModel, StartTransfer, TcpConfig, TcpModel, TcpReceiver, TcpSender};
use crate::units::{Bandwidth, DataSize};

/// Transport used for the transfer.
#[derive(Clone, Copy, Debug)]
pub enum Protocol {
    /// TCP with the given socket-buffer (window) size.
    Tcp {
        /// Window in bytes.
        window_bytes: u64,
    },
    /// Unacknowledged datagram streaming (the video/frame-push pattern):
    /// the source enqueues fragments as fast as the first stage accepts
    /// them.
    RawStream,
}

/// A configured transfer experiment.
#[derive(Clone, Debug)]
pub struct BulkTransfer {
    /// Path hops, sender-side first (including terminal ingest hop).
    pub hops: Vec<HopModel>,
    /// IP/MTU configuration (the path MTU).
    pub ip: IpConfig,
    /// Application bytes to move.
    pub bytes: u64,
    /// Transport.
    pub protocol: Protocol,
}

/// Results of a transfer run.
#[derive(Clone, Copy, Debug)]
pub struct TransferReport {
    /// Application bytes moved.
    pub bytes: u64,
    /// Wall-clock (virtual) duration start→finish.
    pub elapsed: SimDuration,
    /// Application goodput.
    pub goodput: Bandwidth,
    /// Data packets sent (including retransmits for TCP).
    pub packets_sent: u64,
    /// TCP retransmissions (0 for raw streams).
    pub retransmits: u64,
}

impl BulkTransfer {
    /// Analytic steady-state prediction (TCP only; raw streams are
    /// bottleneck-rate-bound by construction).
    pub fn predict(&self) -> Bandwidth {
        match self.protocol {
            Protocol::Tcp { window_bytes } => TcpModel {
                hops: self.hops.clone(),
                ip: self.ip,
                window: DataSize::from_bytes(window_bytes),
            }
            .steady_state_throughput(),
            Protocol::RawStream => {
                // Bottleneck service rate at MTU-size fragments.
                let frag = DataSize::from_bytes(self.ip.mtu);
                let service = self
                    .hops
                    .iter()
                    .map(|h| h.service_time(frag))
                    .max()
                    .expect("path must have hops");
                let payload_per_frag = self.ip.mtu - crate::ip::IP_HEADER_BYTES;
                Bandwidth::from_bps(payload_per_frag as f64 * 8.0 / service.as_secs_f64())
            }
        }
    }

    /// Build the forward stage chain in `sim`, registering every stage
    /// with `reg` and returning the stage ids indexed by hop (so
    /// `ids[0]` is the first stage). Stages are created back to front so
    /// each knows its successor.
    pub(crate) fn build_stages(
        &self,
        sim: &mut Simulator,
        terminal: ComponentId,
        reg: &mut StatsRegistry,
        sink: &SpanSink,
        plan: Option<&FaultPlan>,
        prefix: &str,
    ) -> Vec<ComponentId> {
        let mut next = terminal;
        let mut ids = Vec::with_capacity(self.hops.len());
        for (i, hop) in self.hops.iter().enumerate().rev() {
            let label = format!("{prefix}hop{i}");
            let mut stage = PipeStage::new(
                label.clone(),
                StageConfig {
                    medium: hop.medium,
                    per_packet: hop.per_packet,
                    propagation: hop.propagation,
                    buffer_bytes: u64::MAX,
                },
                next,
            )
            .with_spans(sink.clone());
            if let Some(inj) = plan.and_then(|p| p.injector(&label)) {
                stage = stage.with_faults(inj);
            }
            next = sim.add_component(stage);
            reg.add_stage(next);
            ids.push(next);
        }
        ids.reverse();
        ids
    }

    /// Index and propagation of the widest-propagation hop: the natural
    /// cut point for a two-shard split, because every packet crossing it
    /// is in flight for at least that long — the conservative lookahead.
    /// `None` when no hop has positive propagation (nothing to cut).
    pub(crate) fn wan_cut(&self) -> Option<(usize, SimDuration)> {
        let (w, hop) = self
            .hops
            .iter()
            .enumerate()
            .max_by_key(|(i, h)| (h.propagation, std::cmp::Reverse(*i)))?;
        (hop.propagation > SimDuration::ZERO).then_some((w, hop.propagation))
    }

    /// Run the event-driven simulation and report.
    pub fn run(&self) -> TransferReport {
        self.run_with_report().0
    }

    /// Run the event-driven simulation, returning the transfer summary
    /// together with the full per-component [`RunReport`] (per-hop
    /// counters, TCP endpoint state, JSON-renderable).
    pub fn run_with_report(&self) -> (TransferReport, RunReport) {
        self.run_traced(&SpanSink::disabled())
    }

    /// Like [`run_with_report`](Self::run_with_report), but with `sink`
    /// attached to every stage and endpoint (per-hop `tx`/`flight`
    /// spans, TCP `transfer`/`rto-wait` spans) and as the kernel tracer
    /// (zero-length dispatch spans per component). Tracing never changes
    /// virtual time: a traced run is bit-identical to an untraced one.
    pub fn run_traced(&self, sink: &SpanSink) -> (TransferReport, RunReport) {
        match self.protocol {
            Protocol::Tcp { window_bytes } => self.run_tcp(window_bytes, sink, None),
            Protocol::RawStream => self.run_raw(sink, None),
        }
    }

    /// Run under an installed [`FaultPlan`]: each forward stage `hop{i}`
    /// and reverse stage `rev{i}` gets the plan's injector for its label
    /// (if any). Stages without a spec run exactly as in [`run`](Self::run).
    pub fn run_faulted(&self, plan: &FaultPlan, sink: &SpanSink) -> (TransferReport, RunReport) {
        let plan = if plan.is_empty() { None } else { Some(plan) };
        match self.protocol {
            Protocol::Tcp { window_bytes } => self.run_tcp(window_bytes, sink, plan),
            Protocol::RawStream => self.run_raw(sink, plan),
        }
    }

    /// Wire one TCP transfer into `sim` (stages, endpoints, registry
    /// entries, start event) and derive its shard split. Labels and the
    /// [`FaultPlan`] lookup keys are prefixed with `prefix` so several
    /// transfers can share one simulation.
    #[allow(clippy::too_many_arguments)]
    fn wire_tcp(
        &self,
        sim: &mut Simulator,
        reg: &mut StatsRegistry,
        sink: &SpanSink,
        plan: Option<&FaultPlan>,
        prefix: &str,
        flow: u64,
        window_bytes: u64,
    ) -> TcpWiring {
        // Reverse (ACK) path: same hops in reverse order. ACKs are small,
        // so their service times are cheap but the propagation is real.
        let mut rev_hops: Vec<HopModel> = self.hops.clone();
        rev_hops.reverse();
        // The wiring is a cycle (sender → fwd path → receiver → rev path
        // → sender), so the reverse chain is created first with a
        // placeholder at the sender end; once the sender exists, the
        // stage adjacent to it is patched to deliver ACKs directly —
        // no relay component, no extra zero-delay event per ACK.
        let mut rev_stage_ids = Vec::with_capacity(rev_hops.len());
        let rev_first = {
            let mut next = ComponentId::placeholder();
            for (i, hop) in rev_hops.iter().enumerate().rev() {
                let label = format!("{prefix}rev{i}");
                let mut stage = PipeStage::new(
                    label.clone(),
                    StageConfig {
                        medium: hop.medium,
                        per_packet: hop.per_packet,
                        propagation: hop.propagation,
                        buffer_bytes: u64::MAX,
                    },
                    next,
                )
                .with_spans(sink.clone());
                if let Some(inj) = plan.and_then(|p| p.injector(&label)) {
                    stage = stage.with_faults(inj);
                }
                next = sim.add_component(stage);
                rev_stage_ids.push(next);
            }
            next
        };
        let cfg = TcpConfig::bulk(flow, self.bytes, self.ip, window_bytes);
        let receiver = sim.add_component(TcpReceiver::new(flow, self.bytes, rev_first));
        let fwd_ids = self.build_stages(sim, receiver, reg, sink, plan, prefix);
        let sender = sim.add_component(TcpSender::new(cfg, fwd_ids[0]).with_spans(sink.clone()));
        // Close the cycle: the first-created reverse stage (the one next
        // to the sender) still points at the placeholder. With no reverse
        // hops the receiver ACKs the sender directly.
        match rev_stage_ids.first() {
            Some(&last_rev) => sim.component_mut::<PipeStage>(last_rev).next = sender,
            None => sim.component_mut::<TcpReceiver>(receiver).ack_path = sender,
        }
        reg.add_tcp_sender(sender);
        reg.add_tcp_receiver(receiver);
        for &id in rev_stage_ids.iter().rev() {
            reg.add_stage(id);
        }
        sim.send_in(SimDuration::ZERO, sender, gtw_desim::component::msg(StartTransfer));

        // Split both directions at the widest-propagation (WAN) hop: the
        // forward cut edge hop{w} → hop{w+1} and its mirror on the ACK
        // path both deliver after that hop's propagation, which becomes
        // the conservative lookahead.
        let n = self.hops.len();
        let cut = self.wan_cut();
        let w = cut.map_or(n, |(w, _)| w);
        let mut sender_side = vec![sender];
        let mut receiver_side = vec![receiver];
        for (i, &id) in fwd_ids.iter().enumerate() {
            if i <= w { &mut sender_side } else { &mut receiver_side }.push(id);
        }
        for (j, &id) in rev_stage_ids.iter().rev().enumerate() {
            // rev{j} models hops[n-1-j]; the receiver side runs through
            // the mirror of the WAN hop, rev{n-1-w}.
            if n - 1 - j >= w { &mut receiver_side } else { &mut sender_side }.push(id);
        }
        TcpWiring { sender, sender_side, receiver_side, cut_lookahead: cut.map(|c| c.1) }
    }

    fn run_tcp(
        &self,
        window_bytes: u64,
        sink: &SpanSink,
        plan: Option<&FaultPlan>,
    ) -> (TransferReport, RunReport) {
        let mut sim = Simulator::new();
        if sink.enabled() {
            sim.set_tracer(Box::new(sink.clone()));
        }
        let mut reg = StatsRegistry::new();
        let wiring = self.wire_tcp(&mut sim, &mut reg, sink, plan, "", 1, window_bytes);
        sim.run();
        let run_report = reg.collect(&sim);
        (self.collect_tcp(&sim, wiring.sender), run_report)
    }

    /// Extract the per-transfer summary from a finished simulation.
    fn collect_tcp(&self, sim: &Simulator, sender: ComponentId) -> TransferReport {
        let s = sim.component::<TcpSender>(sender);
        let elapsed =
            s.elapsed().expect("TCP transfer did not complete — check for loss without retransmit");
        TransferReport {
            bytes: self.bytes,
            elapsed,
            goodput: crate::units::throughput(DataSize::from_bytes(self.bytes), elapsed),
            packets_sent: s.segments_sent,
            retransmits: s.retransmits,
        }
    }

    /// Run on the parallel kernel with `shards` shards (`0` = sequential
    /// kernel). Same-seed reports are byte-identical to
    /// [`run_with_report`](Self::run_with_report) for every shard count —
    /// the equivalence the ordering key exists to guarantee.
    pub fn run_sharded(&self, shards: usize) -> (TransferReport, RunReport) {
        self.run_sharded_impl(shards, None, &MetricsSink::disabled())
    }

    /// [`run_sharded`](Self::run_sharded) under a fault plan.
    pub fn run_sharded_faulted(
        &self,
        shards: usize,
        plan: &FaultPlan,
    ) -> (TransferReport, RunReport) {
        self.run_sharded_impl(
            shards,
            if plan.is_empty() { None } else { Some(plan) },
            &MetricsSink::disabled(),
        )
    }

    /// [`run_sharded`](Self::run_sharded) with kernel instrumentation:
    /// when `metrics` is recording, every shard publishes its registry
    /// into the sink and the returned [`RunReport`] carries the
    /// deterministic summaries in its `kernel_metrics` block.
    /// Instrumentation never changes virtual time — everything but the
    /// `kernel_metrics` block is byte-identical to an uninstrumented run.
    pub fn run_sharded_metrics(
        &self,
        shards: usize,
        metrics: &MetricsSink,
    ) -> (TransferReport, RunReport) {
        self.run_sharded_impl(shards, None, metrics)
    }

    fn run_sharded_impl(
        &self,
        shards: usize,
        plan: Option<&FaultPlan>,
        metrics: &MetricsSink,
    ) -> (TransferReport, RunReport) {
        let sink = SpanSink::disabled();
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        match self.protocol {
            Protocol::Tcp { window_bytes } => {
                let wiring = self.wire_tcp(&mut sim, &mut reg, &sink, plan, "", 1, window_bytes);
                let sim =
                    run_partitioned(sim, shards, std::slice::from_ref(&wiring.split()), metrics);
                let mut run_report = reg.collect(&sim);
                run_report.kernel_metrics = metrics.registries();
                (self.collect_tcp(&sim, wiring.sender), run_report)
            }
            Protocol::RawStream => {
                let wiring = self.wire_raw(&mut sim, &mut reg, &sink, plan, "");
                let sim =
                    run_partitioned(sim, shards, std::slice::from_ref(&wiring.split), metrics);
                let mut run_report = reg.collect(&sim);
                run_report.kernel_metrics = metrics.registries();
                let elapsed = sim.now().saturating_since(SimTime::ZERO);
                let report = TransferReport {
                    bytes: self.bytes,
                    elapsed,
                    goodput: crate::units::throughput(DataSize::from_bytes(self.bytes), elapsed),
                    packets_sent: wiring.packets,
                    retransmits: 0,
                };
                (report, run_report)
            }
        }
    }

    /// Wire one raw-stream transfer into `sim`: the terminal [`Sink`],
    /// the stage chain, and the pre-scheduled fragment arrivals.
    fn wire_raw(
        &self,
        sim: &mut Simulator,
        reg: &mut StatsRegistry,
        span_sink: &SpanSink,
        plan: Option<&FaultPlan>,
        prefix: &str,
    ) -> RawWiring {
        let sink = sim.add_component(Sink::default());
        reg.add_sink(sink);
        let fwd_ids = self.build_stages(sim, sink, reg, span_sink, plan, prefix);
        let mut sent = 0u64;
        let mut packets = 0u64;
        for frag in fragment_sizes(self.bytes, self.ip.mtu) {
            let payload = frag.bytes() - crate::ip::IP_HEADER_BYTES;
            let pkt = Packet {
                flow: 1,
                seq: packets,
                ip_bytes: frag,
                payload: DataSize::from_bytes(payload),
                created: SimTime::ZERO,
                kind: PacketKind::Data,
            };
            sim.send_in(SimDuration::ZERO, fwd_ids[0], gtw_desim::component::msg(Arrive(pkt)));
            sent += payload;
            packets += 1;
        }
        debug_assert_eq!(sent, self.bytes);
        let n = self.hops.len();
        let cut = self.wan_cut();
        let w = cut.map_or(n, |(w, _)| w);
        let mut near = Vec::new();
        let mut far = vec![sink];
        for (i, &id) in fwd_ids.iter().enumerate() {
            if i <= w { &mut near } else { &mut far }.push(id);
        }
        RawWiring { packets, split: (near, far, cut.map(|c| c.1)) }
    }

    fn run_raw(
        &self,
        span_sink: &SpanSink,
        plan: Option<&FaultPlan>,
    ) -> (TransferReport, RunReport) {
        let mut sim = Simulator::new();
        if span_sink.enabled() {
            sim.set_tracer(Box::new(span_sink.clone()));
        }
        let mut reg = StatsRegistry::new();
        let wiring = self.wire_raw(&mut sim, &mut reg, span_sink, plan, "");
        sim.run();
        let run_report = reg.collect(&sim);
        let elapsed = sim.now().saturating_since(SimTime::ZERO);
        let report = TransferReport {
            bytes: self.bytes,
            elapsed,
            goodput: crate::units::throughput(DataSize::from_bytes(self.bytes), elapsed),
            packets_sent: wiring.packets,
            retransmits: 0,
        };
        (report, run_report)
    }
}

/// The two shard sides of one wired transfer plus the cut edge's
/// propagation (`None` when the path has no positive-propagation hop and
/// therefore must stay on one shard).
pub(crate) type ShardSplit = (Vec<ComponentId>, Vec<ComponentId>, Option<SimDuration>);

/// Ids produced by wiring one TCP transfer.
struct TcpWiring {
    sender: ComponentId,
    /// Sender, forward stages up to the WAN hop, and the ACK stages past
    /// its mirror.
    sender_side: Vec<ComponentId>,
    /// Everything past the WAN cut: later forward stages, the receiver,
    /// and the near ACK stages.
    receiver_side: Vec<ComponentId>,
    cut_lookahead: Option<SimDuration>,
}

impl TcpWiring {
    fn split(&self) -> ShardSplit {
        (self.sender_side.clone(), self.receiver_side.clone(), self.cut_lookahead)
    }
}

/// Ids produced by wiring one raw-stream transfer.
struct RawWiring {
    packets: u64,
    split: ShardSplit,
}

/// Place each transfer's two sides on shards `(2t) % n` and `(2t+1) % n`,
/// take the minimum cut propagation as the global lookahead, and run on
/// the kernel selected by `shards` (`0` = sequential). Transfers whose
/// split has no cut edge are collapsed onto one shard. A recording
/// `metrics` sink instruments every shard (ignored on the sequential
/// kernel, which has no shards to instrument).
pub(crate) fn run_partitioned(
    mut sim: Simulator,
    shards: usize,
    splits: &[ShardSplit],
    metrics: &MetricsSink,
) -> Simulator {
    if shards == 0 {
        sim.run();
        return sim;
    }
    let mut lookahead = SimDuration::MAX;
    let mut placements: Vec<(ComponentId, usize)> = Vec::new();
    for (t, (near, far, cut)) in splits.iter().enumerate() {
        let sa = (2 * t) % shards;
        let mut sb = (2 * t + 1) % shards;
        match cut {
            Some(c) if sa != sb => lookahead = lookahead.min(*c),
            _ => sb = sa,
        }
        placements.extend(near.iter().map(|&id| (id, sa)));
        placements.extend(far.iter().map(|&id| (id, sb)));
    }
    let mut plan = ShardPlan::new(shards, lookahead);
    for (id, s) in placements {
        plan.assign(id, s);
    }
    let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
    sharded.set_metrics(metrics);
    sharded.run();
    sharded.into_simulator()
}

/// Several transfers sharing one simulation — the multi-flow workload
/// the sharded kernel exists for. Each transfer gets a `t{k}.` label
/// prefix and flow id `k + 1`; fault plans are looked up under the
/// prefixed labels.
#[derive(Default)]
pub struct TransferSet {
    items: Vec<(BulkTransfer, Option<FaultPlan>)>,
}

impl TransferSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a clean transfer. Only TCP transfers are supported in sets
    /// (raw streams report elapsed time from the global clock, which is
    /// ambiguous with concurrent flows).
    pub fn add(&mut self, xfer: BulkTransfer) {
        assert!(
            matches!(xfer.protocol, Protocol::Tcp { .. }),
            "TransferSet supports TCP transfers only"
        );
        self.items.push((xfer, None));
    }

    /// Add a transfer with its own fault plan (labels must carry the
    /// transfer's `t{k}.` prefix).
    pub fn add_faulted(&mut self, xfer: BulkTransfer, plan: FaultPlan) {
        assert!(
            matches!(xfer.protocol, Protocol::Tcp { .. }),
            "TransferSet supports TCP transfers only"
        );
        let plan = (!plan.is_empty()).then_some(plan);
        self.items.push((xfer, plan));
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Run every transfer in one simulation on `shards` shards (`0` =
    /// sequential kernel), returning per-transfer summaries in insertion
    /// order plus the combined report. Byte-identical across shard
    /// counts for the same input.
    pub fn run(&self, shards: usize) -> (Vec<TransferReport>, RunReport) {
        self.run_metrics(shards, &MetricsSink::disabled())
    }

    /// [`run`](Self::run) with kernel instrumentation: a recording
    /// `metrics` sink collects per-shard registries (sharded runs only)
    /// and their deterministic summaries land in the report's
    /// `kernel_metrics` block.
    pub fn run_metrics(
        &self,
        shards: usize,
        metrics: &MetricsSink,
    ) -> (Vec<TransferReport>, RunReport) {
        assert!(!self.items.is_empty(), "cannot run an empty TransferSet");
        let sink = SpanSink::disabled();
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        let mut wirings = Vec::with_capacity(self.items.len());
        for (k, (xfer, plan)) in self.items.iter().enumerate() {
            let Protocol::Tcp { window_bytes } = xfer.protocol else {
                unreachable!("add() rejects non-TCP transfers");
            };
            let prefix = format!("t{k}.");
            let wiring = xfer.wire_tcp(
                &mut sim,
                &mut reg,
                &sink,
                plan.as_ref(),
                &prefix,
                (k + 1) as u64,
                window_bytes,
            );
            wirings.push(wiring);
        }
        let splits: Vec<ShardSplit> = wirings.iter().map(TcpWiring::split).collect();
        let sim = run_partitioned(sim, shards, &splits, metrics);
        let mut run_report = reg.collect(&sim);
        run_report.kernel_metrics = metrics.registries();
        let reports = self
            .items
            .iter()
            .zip(&wirings)
            .map(|((xfer, _), wiring)| xfer.collect_tcp(&sim, wiring.sender))
            .collect();
        (reports, run_report)
    }
}

/// The canonical "degraded WAN" plan used by the examples' `--faults`
/// mode and the acceptance scenario: 1% i.i.d. cell loss plus a single
/// 50 ms outage starting at t = 100 ms on `hop_label`.
pub fn degraded_plan(seed: u64, hop_label: &str) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.add(
        hop_label,
        FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(100),
                SimTime::ZERO + SimDuration::from_millis(150),
            )]),
            loss: LossModel::Iid { p: 0.01 },
            ..FaultSpec::default()
        },
    );
    plan
}

/// Convenience: the effective payload rate of streaming fixed-size frames
/// over a path — used by the workbench/video experiments. Returns
/// (frames/s, per-frame latency).
pub fn frame_stream_rate(hops: &[HopModel], ip: IpConfig, frame_bytes: u64) -> (f64, SimDuration) {
    let xfer =
        BulkTransfer { hops: hops.to_vec(), ip, bytes: frame_bytes, protocol: Protocol::RawStream };
    // Pipeline throughput: bottleneck service over all fragments of one
    // frame; latency: one frame through the empty pipeline.
    let report = xfer.run();
    let frag = DataSize::from_bytes(ip.mtu);
    let bottleneck = hops.iter().map(|h| h.service_time(frag)).max().expect("path must have hops");
    let frags = fragment_sizes(frame_bytes, ip.mtu).len() as f64;
    let frame_period = bottleneck.as_secs_f64() * frags;
    (1.0 / frame_period, report.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Medium;
    use crate::units::Bandwidth;

    fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
        HopModel {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(prop_us),
        }
    }

    #[test]
    fn tcp_run_matches_prediction() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(622.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 16 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 2 * 1024 * 1024 },
        };
        let report = xfer.run();
        let predicted = xfer.predict().mbps();
        let measured = report.goodput.mbps();
        assert!(
            (measured - predicted).abs() / predicted < 0.1,
            "measured {measured} vs predicted {predicted}"
        );
        assert_eq!(report.retransmits, 0);
        assert_eq!(report.bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn raw_stream_fills_bottleneck() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, 10)],
            ip: IpConfig { mtu: 9180 },
            bytes: 4 * 1024 * 1024,
            protocol: Protocol::RawStream,
        };
        let report = xfer.run();
        // Goodput ~ bottleneck minus header overhead.
        let g = report.goodput.mbps();
        assert!(g > 140.0 && g < 155.0, "{g}");
    }

    #[test]
    fn slower_middle_hop_dominates() {
        let fast = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(622.0, 10)],
            ip: IpConfig { mtu: 9180 },
            bytes: 1024 * 1024,
            protocol: Protocol::RawStream,
        };
        let slow = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(100.0, 10), raw_hop(622.0, 10)],
            ..fast.clone()
        };
        assert!(slow.run().elapsed > fast.run().elapsed);
    }

    #[test]
    fn frame_stream_rate_sanity() {
        // 9.4 MB frame over a 622 Mbit/s hop: ~0.124 s/frame -> ~8 fps
        // before cell tax; Raw medium here, so slightly above.
        let hops = vec![raw_hop(622.0, 500)];
        let (fps, latency) = frame_stream_rate(&hops, IpConfig { mtu: 65535 }, 9_437_184);
        assert!(fps > 6.0 && fps < 9.0, "fps {fps}");
        assert!(latency.as_secs_f64() > 0.1);
    }

    #[test]
    fn ack_path_delivers_directly_without_relay() {
        // The reverse chain's last stage is patched to point straight at
        // the sender: the old zero-delay relay component is gone, so the
        // report lists exactly the 2×hops stages plus the two endpoints,
        // and every ACK the receiver emitted reaches the sender.
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 4 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let (report, run) = xfer.run_with_report();
        assert_eq!(run.hops.len(), 4);
        assert!(run.hops.iter().all(|h| h.label.starts_with("hop") || h.label.starts_with("rev")));
        assert_eq!(run.senders.len(), 1);
        assert_eq!(run.receivers.len(), 1);
        assert_eq!(run.senders[0].bytes_acked, xfer.bytes);
        assert_eq!(run.receivers[0].bytes_delivered, xfer.bytes);
        // Every reverse stage forwarded every ACK (no loss, no relay).
        let acks = run.receivers[0].acks_sent;
        for h in run.hops.iter().filter(|h| h.label.starts_with("rev")) {
            assert_eq!(h.stats.packets_out, acks, "{}", h.label);
        }
        assert_eq!(report.bytes, xfer.bytes);
        let j = run.to_json().dump();
        assert!(j.contains("\"tcp_senders\""), "{j}");
    }

    #[test]
    fn single_hop_tcp_acks_sender_directly() {
        // Degenerate path: with one hop forward and one reverse stage the
        // patching logic still closes the cycle; zero-hop paths are not
        // constructible (build panics on empty hops in predict), so one
        // hop is the smallest case.
        let xfer = BulkTransfer {
            hops: vec![raw_hop(100.0, 100)],
            ip: IpConfig { mtu: 9180 },
            bytes: 256 * 1024,
            protocol: Protocol::Tcp { window_bytes: 256 * 1024 },
        };
        let (report, run) = xfer.run_with_report();
        assert_eq!(run.hops.len(), 2);
        assert_eq!(run.senders[0].bytes_acked, 256 * 1024);
        assert!(report.goodput.mbps() > 0.0);
    }

    #[test]
    fn untraced_runs_match_traced_runs_over_tcp() {
        // The desim kernel test of the same name covers a toy pinger;
        // this is the real thing: a full TCP transfer over two WAN hops
        // with a SpanRecorder attached to every stage, both endpoints and
        // the kernel tracer hook. Virtual time and event counts must be
        // bit-identical to the untraced run.
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let (plain, plain_run) = xfer.run_with_report();
        let sink = gtw_desim::SpanSink::recording();
        let (traced, traced_run) = xfer.run_traced(&sink);
        assert_eq!(plain.elapsed, traced.elapsed);
        assert_eq!(plain.packets_sent, traced.packets_sent);
        assert_eq!(plain_run.elapsed, traced_run.elapsed);
        assert_eq!(plain_run.events_processed, traced_run.events_processed);
        for (p, t) in plain_run.hops.iter().zip(&traced_run.hops) {
            assert_eq!(p.stats.packets_out, t.stats.packets_out, "{}", p.label);
        }
        // The traced run actually produced spans, and they export to a
        // valid Chrome trace.
        assert!(!sink.is_empty());
        let spans = sink.snapshot();
        assert!(spans.iter().any(|s| s.track == "hop0" && s.name == "tx:data"));
        assert!(spans.iter().any(|s| s.name == "flight"));
        assert!(spans.iter().any(|s| s.name == "transfer" || s.name == "dispatch"));
        let check = gtw_desim::validate_chrome_trace(&sink.to_chrome_trace().dump())
            .expect("traced TCP run exports a valid Chrome trace");
        assert!(check.spans > 0);
        // The receiver-side flow recorder now carries percentiles.
        assert!(traced_run.receivers[0].recorder.hist.count() > 0);
        assert!(
            traced_run.receivers[0].recorder.hist.p99()
                >= traced_run.receivers[0].recorder.hist.p50()
        );
    }

    #[test]
    fn tcp_completes_under_degraded_plan_with_attributed_drops() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(155.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 8 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let plan = degraded_plan(7, "hop1");
        let (report, run) = xfer.run_faulted(&plan, &SpanSink::disabled());
        // Recovery invariant: every byte still arrives exactly once.
        assert_eq!(run.receivers[0].bytes_delivered, xfer.bytes);
        assert_eq!(run.senders[0].bytes_acked, xfer.bytes);
        assert!(report.retransmits > 0, "1% loss must force retransmission");
        // Attribution invariant: the hop's drop counters equal the
        // injector's ground-truth verdict counts, cause by cause.
        let h = run.hops.iter().find(|h| h.label == "hop1").expect("hop1 reported");
        let f = h.faults.expect("faulted hop carries injector stats");
        assert!(f.total() > 0);
        assert_eq!(h.stats.dropped_outage, f.outage);
        assert_eq!(h.stats.dropped_loss, f.loss + f.header_error);
        assert_eq!(h.stats.dropped_burst, f.burst);
        assert_eq!(run.faults_injected(), f.total());
        // The clean hop reports no fault block at all.
        let clean = run.hops.iter().find(|h| h.label == "hop0").unwrap();
        assert!(clean.faults.is_none());
    }

    #[test]
    fn same_master_seed_gives_byte_identical_reports() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(155.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 4 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let (_, a) = xfer.run_faulted(&degraded_plan(42, "hop0"), &SpanSink::disabled());
        let (_, b) = xfer.run_faulted(&degraded_plan(42, "hop0"), &SpanSink::disabled());
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        let (_, c) = xfer.run_faulted(&degraded_plan(43, "hop0"), &SpanSink::disabled());
        assert_ne!(a.to_json().dump(), c.to_json().dump(), "different seed, different run");
    }

    #[test]
    fn empty_plan_is_bit_identical_to_clean_run() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let (_, clean) = xfer.run_with_report();
        let (_, faulted) = xfer.run_faulted(&FaultPlan::new(9), &SpanSink::disabled());
        assert_eq!(clean.to_json().dump(), faulted.to_json().dump());
    }

    #[test]
    fn sharded_tcp_report_is_byte_identical_to_sequential() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 500), raw_hop(622.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 4 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let (seq_report, seq_run) = xfer.run_with_report();
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2, 4] {
            let (report, run) = xfer.run_sharded(shards);
            assert_eq!(report.elapsed, seq_report.elapsed, "{shards} shards");
            assert_eq!(report.packets_sent, seq_report.packets_sent, "{shards} shards");
            assert_eq!(run.to_json().dump(), seq_json, "{shards} shards");
        }
    }

    #[test]
    fn instrumented_sharded_run_adds_only_the_kernel_metrics_block() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 500), raw_hop(622.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let (_, plain) = xfer.run_sharded(2);
        let plain_json = plain.to_json().dump();
        assert!(!plain_json.contains("kernel_metrics"), "{plain_json}");
        let metrics = MetricsSink::recording();
        let (report, instrumented) = xfer.run_sharded_metrics(2, &metrics);
        assert_eq!(report.bytes, xfer.bytes);
        let j = instrumented.to_json().dump();
        assert!(j.contains("\"kernel_metrics\":["), "{j}");
        assert!(j.contains("\"label\":\"shard0\""), "{j}");
        assert!(j.contains("\"queue_depth_hwm\":"), "{j}");
        // Instrumentation is additive: stripping the block restores the
        // uninstrumented report byte for byte.
        let mut stripped = instrumented.clone();
        stripped.kernel_metrics.clear();
        assert_eq!(stripped.to_json().dump(), plain_json);
        // The sink saw one registry per shard, and both executors'
        // deterministic counters sum to the sequential event count.
        let regs = metrics.registries();
        assert_eq!(regs.len(), 2);
        let kernel_events: u64 = regs.iter().map(|r| r.value("events").expect("events")).sum();
        assert_eq!(kernel_events, instrumented.events_processed);
        // Instrumented registries also repeat identically across runs.
        let metrics2 = MetricsSink::recording();
        let _ = xfer.run_sharded_metrics(2, &metrics2);
        for (a, b) in regs.iter().zip(&metrics2.registries()) {
            assert_eq!(a.summary_json().dump(), b.summary_json().dump());
        }
    }

    #[test]
    fn sharded_faulted_tcp_matches_sequential() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(155.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 4 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let plan = degraded_plan(42, "hop0");
        let (_, seq_run) = xfer.run_faulted(&plan, &SpanSink::disabled());
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2] {
            let (_, run) = xfer.run_sharded_faulted(shards, &plan);
            assert_eq!(run.to_json().dump(), seq_json, "{shards} shards");
        }
    }

    #[test]
    fn sharded_raw_stream_matches_sequential() {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, 400)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::RawStream,
        };
        let (seq_report, seq_run) = xfer.run_with_report();
        for shards in [1, 2] {
            let (report, run) = xfer.run_sharded(shards);
            assert_eq!(report.elapsed, seq_report.elapsed, "{shards} shards");
            assert_eq!(run.to_json().dump(), seq_run.to_json().dump(), "{shards} shards");
        }
    }

    #[test]
    fn transfer_set_reports_match_across_shard_counts() {
        let mut set = TransferSet::new();
        for k in 0..3u64 {
            set.add(BulkTransfer {
                hops: vec![
                    raw_hop(622.0, 50),
                    raw_hop(155.0 + 100.0 * k as f64, 500),
                    raw_hop(622.0, 50),
                ],
                ip: IpConfig { mtu: 9180 },
                bytes: (1 + k) * 1024 * 1024,
                protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
            });
        }
        let (seq_reports, seq_run) = set.run(0);
        assert_eq!(seq_reports.len(), 3);
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2, 4] {
            let (reports, run) = set.run(shards);
            for (r, s) in reports.iter().zip(&seq_reports) {
                assert_eq!(r.elapsed, s.elapsed, "{shards} shards");
            }
            assert_eq!(run.to_json().dump(), seq_json, "{shards} shards");
        }
    }

    #[test]
    fn transfer_set_prefixed_fault_plans_apply_per_flow() {
        let base = BulkTransfer {
            hops: vec![raw_hop(155.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        let mut set = TransferSet::new();
        set.add(base.clone());
        set.add_faulted(base, degraded_plan(7, "t1.hop1"));
        let (_, seq_run) = set.run(0);
        let faulted = seq_run.hops.iter().find(|h| h.label == "t1.hop1").unwrap();
        assert!(faulted.faults.expect("injector stats present").total() > 0);
        let clean = seq_run.hops.iter().find(|h| h.label == "t0.hop1").unwrap();
        assert!(clean.faults.is_none());
        // And the faulted set still splits deterministically.
        let mut set2 = TransferSet::new();
        let base2 = BulkTransfer {
            hops: vec![raw_hop(155.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 512 * 1024 },
        };
        set2.add(base2.clone());
        set2.add_faulted(base2, degraded_plan(7, "t1.hop1"));
        let (_, sharded_run) = set2.run(2);
        assert_eq!(sharded_run.to_json().dump(), seq_run.to_json().dump());
    }

    #[test]
    fn tcp_over_wan_with_gateway_path() {
        // Full Figure-1-flavoured path through analytic hop derivation.
        use crate::gateway::Gateway;
        use crate::host::HostNic;
        use crate::sdh::StmLevel;
        let ip = IpConfig::large_mtu();
        let hops = vec![
            HostNic::cray_hippi().hop(SimDuration::from_micros(5)),
            Gateway::sgi_o200_to_atm().hop_for_mtu(SimDuration::from_micros(5), ip.mtu),
            HopModel {
                medium: Medium::Atm { cell_rate: StmLevel::Stm16.payload_rate() },
                per_packet: SimDuration::from_micros(10),
                propagation: SimDuration::from_micros(500),
            },
            HostNic::sp2_microchannel_striped().hop(SimDuration::from_micros(5)),
            // Terminal microchannel drain.
            HopModel {
                medium: Medium::Raw {
                    rate: HostNic::sp2_microchannel_striped().ingest_rate.unwrap(),
                },
                per_packet: SimDuration::from_micros(100),
                propagation: SimDuration::ZERO,
            },
        ];
        let xfer = BulkTransfer {
            hops,
            ip,
            bytes: 32 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
        };
        let report = xfer.run();
        let g = report.goodput.mbps();
        // The paper's ">260 Mbit/s" T3E->SP2 figure.
        assert!(g > 240.0 && g < 290.0, "T3E->SP2 {g} Mbit/s");
    }
}
