//! High-level bulk-transfer experiments over a hop path.
//!
//! [`BulkTransfer`] takes the hop list derived from a
//! [`Topology`](crate::topology::Topology) path, instantiates the
//! event-driven pipeline ([`PipeStage`] runs plus TCP endpoints or a raw
//! streaming source), runs it to completion and reports goodput — the
//! number the paper's Section 2 measurements quote. `predict()` gives the
//! closed-form steady-state bound for cross-checking.
//!
//! How a transfer is run — on which kernel, under which fault plan,
//! observed or not, bounded by which horizon — is one
//! [`RunOptions`] value passed to `run_with` on [`BulkTransfer`],
//! [`TransferSet`] and [`StripedTransfer`](crate::stripe::StripedTransfer)
//! alike, so the axes compose.

use gtw_desim::fault::{FaultPlan, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::{
    ComponentId, Observer, ShardPlan, ShardedSimulator, SimDuration, SimTime, Simulator,
};

use crate::ip::{fragment_sizes, IpConfig};
use crate::link::{Arrive, Hop, Packet, PacketKind, PipeStage, Sink, StageConfig};
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

/// How a wired transfer is run. The default is the clean run: sequential
/// kernel, no faults, nothing observed, until the event queue drains.
///
/// Everything composes except what the sharded kernel cannot honour: a
/// `horizon` with `shards > 0` panics.
#[derive(Clone, Debug, Default)]
pub struct RunOptions<'a> {
    /// Shard count of the sharded kernel, the transfer split at its WAN
    /// hop; `0` is the sequential kernel. Same-seed reports are
    /// byte-identical for every value — the equivalence the event
    /// ordering key exists to guarantee.
    pub shards: usize,
    /// Each stage gets the plan's injector for its label, if any: `hop{i}`
    /// forward and `rev{i}` on the ACK path, behind a `t{k}.` prefix in a
    /// [`TransferSet`]. Stages without a spec run clean.
    pub faults: Option<&'a FaultPlan>,
    /// Attached to the kernel: per-hop `tx`/`flight` spans, TCP
    /// `transfer`/`rto-wait` spans, a zero-length dispatch span per event
    /// (per run of hops a packet crosses, not per hop), per-component
    /// send and timer counts and, for `shards > 0`, a registry of kernel
    /// metrics per shard, whose deterministic summaries the
    /// [`RunReport`] carries in its `kernel_metrics` block.
    /// Observation never changes virtual time — everything else in the
    /// report stays byte-identical — and what it records does not depend
    /// on `shards`.
    pub observer: Observer,
    /// Stop here instead of when the event queue drains. A TCP sender
    /// retransmits for ever at its capped RTO, so this is what bounds a
    /// run whose faults never clear: a transfer cut short reports
    /// `completed: false`.
    pub horizon: Option<SimTime>,
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
    /// Application bytes moved: the acknowledged prefix for a TCP
    /// transfer the horizon cut short.
    pub bytes: u64,
    /// Whether the transfer finished (TCP: every byte acknowledged; raw
    /// stream: every fragment delivered or dropped). Only a
    /// [`RunOptions::horizon`] can make this `false`.
    pub completed: bool,
    /// Virtual duration start→finish, or the run's when the horizon came
    /// first.
    pub elapsed: SimDuration,
    /// Application goodput.
    pub goodput: Bandwidth,
    /// Data packets sent (including retransmits for TCP).
    pub packets_sent: u64,
    /// TCP retransmissions (0 for raw streams).
    pub retransmits: u64,
}

/// The two shard sides of one wired transfer plus the cut edge's
/// propagation (`None` when the path has no positive-propagation hop and
/// therefore must stay on one shard).
pub(crate) type ShardSplit = (Vec<ComponentId>, Vec<ComponentId>, Option<SimDuration>);

/// A hop of a wired chain: the run ([`PipeStage`]) holding it and its
/// index in that run.
pub(crate) type HopId = (ComponentId, usize);

/// The path's WAN hop: the widest propagation, the first of equals, or
/// `None` when no hop propagates.
fn wan_hop(hops: &[HopModel]) -> Option<usize> {
    let (w, h) =
        hops.iter().enumerate().max_by_key(|(i, h)| (h.propagation, std::cmp::Reverse(*i)))?;
    (h.propagation > SimDuration::ZERO).then_some(w)
}

/// Build `hops` into `sim` as at most two [`PipeStage`] runs split after
/// the WAN hop — where [`wan_split`] cuts, so a shard cut is always a
/// hand-off between runs, on either kernel — the last feeding `terminal`.
/// `reverse` builds the ACK path, `hops` last to first. Chain hop `i` is
/// labelled `{label}{i}`; returns the chain's hops in order. Runs are
/// created back to front so each knows its successor.
pub(crate) fn build_chain(
    sim: &mut Simulator,
    hops: &[HopModel],
    reverse: bool,
    terminal: ComponentId,
    label: &str,
    opts: &RunOptions<'_>,
) -> Vec<HopId> {
    let n = hops.len();
    let cut = wan_hop(hops).map_or(n, |w| if reverse { n - w } else { w + 1 });
    let mut next = terminal;
    let mut ids = Vec::with_capacity(n);
    for run in [cut..n, 0..cut].into_iter().filter(|r| !r.is_empty()) {
        let stage = run.clone().map(|i| {
            let h = &hops[if reverse { n - 1 - i } else { i }];
            let (medium, per_packet, propagation) = (h.medium, h.per_packet, h.propagation);
            let config = StageConfig { medium, per_packet, propagation, buffer_bytes: u64::MAX };
            let mut hop = Hop::new(format!("{label}{i}"), config);
            hop.injector = opts.faults.and_then(|p| p.injector(&hop.label));
            hop
        });
        next = sim.add_component(PipeStage::run(stage.collect(), next, opts.horizon));
        ids.splice(0..0, (0..run.len()).map(|k| (next, k)));
    }
    ids
}

/// Register a wired path's hops in report order: the forward hops far
/// end first, then the ACK hops in path order.
pub(crate) fn register_stages(reg: &mut StatsRegistry, fwd: &[HopId], rev: &[HopId]) {
    fwd.iter().rev().chain(rev).for_each(|&(id, k)| reg.add_hop(id, k));
}

/// Split a wired path in two at its WAN hop `w` ([`wan_hop`]) — the
/// natural cut, because every packet crossing it is in flight for at
/// least that long, which becomes the conservative lookahead. The runs
/// holding forward hops up to `hop{w}` and the ACK hops past its mirror
/// (`rev{j}` models `hops[n-1-j]`) join `near`, the rest `far`; the
/// callers seed the two sides with their endpoints. With no
/// positive-propagation hop there is nothing to cut and every run stays
/// `near`.
pub(crate) fn wan_split(
    hops: &[HopModel],
    fwd: &[HopId],
    rev: &[HopId],
    mut near: Vec<ComponentId>,
    mut far: Vec<ComponentId>,
) -> ShardSplit {
    let n = hops.len();
    let cut = wan_hop(hops);
    let w = cut.unwrap_or(n);
    // A run's hops all lie on one side: place each run by its first.
    for (i, &(id, _)) in fwd.iter().enumerate().filter(|(_, h)| h.1 == 0) {
        if i <= w { &mut near } else { &mut far }.push(id);
    }
    for (j, &(id, _)) in rev.iter().enumerate().filter(|(_, h)| h.1 == 0) {
        if n - 1 - j >= w { &mut far } else { &mut near }.push(id);
    }
    (near, far, cut.map(|w| hops[w].propagation))
}

/// Run a wired simulation as `opts` asks and collect `reg`'s report from
/// it: the sequential kernel (horizon-bounded) for `shards == 0`,
/// otherwise the sharded kernel over `splits`.
pub(crate) fn execute(
    mut sim: Simulator,
    reg: &StatsRegistry,
    splits: &[ShardSplit],
    opts: &RunOptions<'_>,
) -> (Simulator, RunReport) {
    sim.observe(&opts.observer);
    let horizon = opts.horizon.unwrap_or(SimTime::MAX);
    let sim = if opts.shards == 0 {
        sim.run_until(horizon);
        sim
    } else {
        assert!(
            opts.horizon.is_none(),
            "horizon-bounded runs need the sequential kernel (shards: 0): \
             the sharded kernel always runs until its queues drain"
        );
        run_partitioned(sim, opts.shards, splits)
    };
    // Unbounded, this still sees a drop inside a run after the last event.
    let mut report = reg.collect_until(&sim, horizon);
    report.kernel_metrics = opts.observer.registries();
    (sim, report)
}

/// Place each transfer's two sides on shards `(2t) % n` and `(2t+1) % n`,
/// take the minimum cut propagation as the global lookahead, and run on
/// `shards >= 1` shards. Transfers whose split has no cut edge are
/// collapsed onto one shard.
fn run_partitioned(sim: Simulator, shards: usize, splits: &[ShardSplit]) -> Simulator {
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
    sharded.run();
    sharded.into_simulator()
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
                // An empty path has no bottleneck: an unbounded rate.
                let service = self.hops.iter().map(|h| h.service_time(frag)).max();
                let service = service.unwrap_or(SimDuration::ZERO);
                let payload_per_frag = self.ip.mtu - crate::ip::IP_HEADER_BYTES;
                Bandwidth::from_bps(payload_per_frag as f64 * 8.0 / service.as_secs_f64())
            }
        }
    }

    /// The clean run: [`run_with`](Self::run_with) under the default
    /// options, summary only.
    pub fn run(&self) -> TransferReport {
        self.run_with(&RunOptions::default()).0
    }

    /// Run the event-driven simulation as `opts` asks, returning the
    /// transfer summary together with the full per-component
    /// [`RunReport`] (per-hop counters, TCP endpoint state,
    /// JSON-renderable).
    pub fn run_with(&self, opts: &RunOptions<'_>) -> (TransferReport, RunReport) {
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        match self.protocol {
            Protocol::Tcp { window_bytes } => {
                let (sender, split) = self.wire_tcp(&mut sim, &mut reg, opts, "", 1, window_bytes);
                let (sim, run) = execute(sim, &reg, &[split], opts);
                (self.tcp_report(&sim, sender, run.elapsed), run)
            }
            Protocol::RawStream => {
                let (packets_sent, split) = self.wire_raw(&mut sim, &mut reg, opts);
                let (sim, run) = execute(sim, &reg, &[split], opts);
                let report = TransferReport {
                    bytes: self.bytes,
                    completed: sim.events_pending() == 0,
                    elapsed: run.elapsed,
                    goodput: crate::units::throughput(
                        DataSize::from_bytes(self.bytes),
                        run.elapsed,
                    ),
                    packets_sent,
                    retransmits: 0,
                };
                (report, run)
            }
        }
    }

    /// Wire one TCP transfer into `sim` (stages, endpoints, registry
    /// entries, start event) and return its sender and shard split.
    /// Labels, and with them the [`FaultPlan`] lookup keys, are prefixed
    /// with `prefix` so several transfers can share one simulation.
    fn wire_tcp(
        &self,
        sim: &mut Simulator,
        reg: &mut StatsRegistry,
        opts: &RunOptions<'_>,
        prefix: &str,
        flow: u64,
        window_bytes: u64,
    ) -> (ComponentId, ShardSplit) {
        // Reverse (ACK) path: same hops in reverse order. ACKs are small,
        // so their service times are cheap but the propagation is real.
        // The wiring is a cycle (sender → fwd path → receiver → rev path
        // → sender), so the reverse chain is created first with a
        // placeholder at the sender end; once the sender exists, the
        // stage adjacent to it is patched to deliver ACKs directly —
        // no relay component, no extra zero-delay event per ACK.
        let placeholder = ComponentId::placeholder();
        let rev = build_chain(sim, &self.hops, true, placeholder, &format!("{prefix}rev"), opts);
        let rev_first = rev.first().map_or(placeholder, |h| h.0);
        let receiver = sim.add_component(TcpReceiver::new(flow, self.bytes, rev_first));
        let fwd = build_chain(sim, &self.hops, false, receiver, &format!("{prefix}hop"), opts);
        let cfg = TcpConfig::bulk(flow, self.bytes, self.ip, window_bytes);
        let sender = sim.add_component(TcpSender::new(cfg, fwd.first().map_or(receiver, |h| h.0)));
        // Close the cycle. With no hops the sender sends to the receiver
        // and the receiver ACKs the sender directly.
        match rev.last() {
            Some(&(last_rev, _)) => sim.component_mut::<PipeStage>(last_rev).next = sender,
            None => sim.component_mut::<TcpReceiver>(receiver).ack_path = sender,
        }
        register_stages(reg, &fwd, &rev);
        reg.add_tcp_sender(sender);
        reg.add_tcp_receiver(receiver);
        sim.send_in(SimDuration::ZERO, sender, gtw_desim::component::msg(StartTransfer));
        (sender, wan_split(&self.hops, &fwd, &rev, vec![sender], vec![receiver]))
    }

    /// The per-transfer summary of a TCP sender after a run whose report
    /// reads `run_elapsed`.
    fn tcp_report(
        &self,
        sim: &Simulator,
        sender: ComponentId,
        run_elapsed: SimDuration,
    ) -> TransferReport {
        let s = sim.component::<TcpSender>(sender);
        let finished = s.elapsed();
        let (bytes, elapsed) = match finished {
            Some(elapsed) => (self.bytes, elapsed),
            None => (s.bytes_acked(), run_elapsed),
        };
        TransferReport {
            bytes,
            completed: finished.is_some(),
            elapsed,
            goodput: crate::units::throughput(DataSize::from_bytes(bytes), elapsed),
            packets_sent: s.segments_sent,
            retransmits: s.retransmits,
        }
    }

    /// Wire one raw-stream transfer into `sim` — the terminal [`Sink`],
    /// the stage chain, the pre-scheduled fragment arrivals — and return
    /// the fragment count and shard split.
    fn wire_raw(
        &self,
        sim: &mut Simulator,
        reg: &mut StatsRegistry,
        opts: &RunOptions<'_>,
    ) -> (u64, ShardSplit) {
        let sink = sim.add_component(Sink::default());
        reg.add_sink(sink);
        let fwd = build_chain(sim, &self.hops, false, sink, "hop", opts);
        register_stages(reg, &fwd, &[]);
        let first = fwd.first().map_or(sink, |h| h.0);
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
            sim.send_in(SimDuration::ZERO, first, gtw_desim::component::msg(Arrive(pkt)));
            sent += payload;
            packets += 1;
        }
        debug_assert_eq!(sent, self.bytes);
        (packets, wan_split(&self.hops, &fwd, &[], Vec::new(), vec![sink]))
    }
}

/// Several transfers sharing one simulation — the multi-flow workload
/// the sharded kernel exists for. Each transfer gets a `t{k}.` label
/// prefix and flow id `k + 1`; the run's fault plan is looked up under
/// the prefixed labels, so it can degrade any one flow's hops.
#[derive(Default)]
pub struct TransferSet {
    items: Vec<BulkTransfer>,
}

impl TransferSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a transfer. Only TCP transfers are supported in sets (raw
    /// streams report elapsed time from the global clock, which is
    /// ambiguous with concurrent flows).
    pub fn add(&mut self, xfer: BulkTransfer) {
        assert!(
            matches!(xfer.protocol, Protocol::Tcp { .. }),
            "TransferSet supports TCP transfers only"
        );
        self.items.push(xfer);
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Run every transfer in one simulation as `opts` asks, returning
    /// per-transfer summaries in insertion order plus the combined
    /// report. Byte-identical across shard counts for the same input.
    pub fn run_with(&self, opts: &RunOptions<'_>) -> (Vec<TransferReport>, RunReport) {
        assert!(!self.items.is_empty(), "cannot run an empty TransferSet");
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        let (senders, splits): (Vec<ComponentId>, Vec<ShardSplit>) = self
            .items
            .iter()
            .enumerate()
            .map(|(k, xfer)| {
                let Protocol::Tcp { window_bytes } = xfer.protocol else {
                    unreachable!("add() rejects non-TCP transfers");
                };
                let (prefix, flow) = (format!("t{k}."), (k + 1) as u64);
                xfer.wire_tcp(&mut sim, &mut reg, opts, &prefix, flow, window_bytes)
            })
            .unzip();
        let (sim, run) = execute(sim, &reg, &splits, opts);
        let reports = self
            .items
            .iter()
            .zip(senders)
            .map(|(xfer, sender)| xfer.tcp_report(&sim, sender, run.elapsed))
            .collect();
        (reports, run)
    }

    /// Pinned by the frozen `gtw-benchmark` adapter; use
    /// [`run_with`](Self::run_with).
    #[doc(hidden)]
    pub fn run(&self, shards: usize) -> (Vec<TransferReport>, RunReport) {
        self.run_with(&RunOptions { shards, ..RunOptions::default() })
    }

    /// Pinned by the frozen `gtw-benchmark` adapter; use
    /// [`run_with`](Self::run_with).
    #[doc(hidden)]
    pub fn run_metrics(
        &self,
        shards: usize,
        observer: &Observer,
    ) -> (Vec<TransferReport>, RunReport) {
        self.run_with(&RunOptions { shards, observer: observer.clone(), ..RunOptions::default() })
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
    let bottleneck = hops.iter().map(|h| h.service_time(frag)).max().unwrap_or(SimDuration::ZERO);
    let frags = fragment_sizes(frame_bytes, ip.mtu).len() as f64;
    let frame_period = bottleneck.as_secs_f64() * frags;
    (1.0 / frame_period, report.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Medium;
    use crate::units::Bandwidth;

    fn sharded(shards: usize) -> RunOptions<'static> {
        RunOptions { shards, ..RunOptions::default() }
    }

    fn under(plan: &FaultPlan) -> RunOptions<'_> {
        RunOptions { faults: Some(plan), ..RunOptions::default() }
    }

    fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
        HopModel {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(prop_us),
        }
    }

    /// `wan_split` of a path whose hops have these propagations (µs):
    /// forward stages are one-hop runs `0..n`, ACK stages `n..2n`, and
    /// both sides start empty. Returns the near and far indices and the
    /// cut's lookahead.
    fn split_at(props_us: &[u64]) -> (Vec<usize>, Vec<usize>, Option<SimDuration>) {
        let mut sim = Simulator::new();
        let hops: Vec<HopModel> = props_us.iter().map(|&p| raw_hop(622.0, p)).collect();
        let mut stages = || -> Vec<HopId> {
            hops.iter().map(|_| (sim.add_component(Sink::default()), 0)).collect()
        };
        let (fwd, rev) = (stages(), stages());
        let (near, far, cut) = wan_split(&hops, &fwd, &rev, Vec::new(), Vec::new());
        let index = |ids: Vec<ComponentId>| ids.into_iter().map(ComponentId::index).collect();
        (index(near), index(far), cut)
    }

    #[test]
    fn wan_split_cuts_at_the_wan_hop() {
        // Hop 2 is the 500 us WAN section; the ACK stages modelling hops
        // 2..5 (rev 0..3) are on its far side.
        let cut = Some(SimDuration::from_micros(500));
        assert_eq!(split_at(&[5, 5, 500, 5, 0]), (vec![0, 1, 2, 8, 9], vec![3, 4, 5, 6, 7], cut));
    }

    #[test]
    fn wan_split_keeps_a_path_without_propagation_whole() {
        assert_eq!(split_at(&[0, 0]), (vec![0, 1, 2, 3], vec![], None));
    }

    #[test]
    fn wan_split_ties_break_to_the_first_hop() {
        let cut = Some(SimDuration::from_micros(100));
        assert_eq!(split_at(&[100, 100]), (vec![0], vec![1, 2, 3], cut));
    }

    /// Each hop's index in its run, forward then ACK, for a path whose
    /// hops have these propagations (µs).
    fn runs_of(props_us: &[u64]) -> (Vec<usize>, Vec<usize>) {
        let mut sim = Simulator::new();
        let hops: Vec<HopModel> = props_us.iter().map(|&p| raw_hop(622.0, p)).collect();
        let sink = sim.add_component(Sink::default());
        let opts = RunOptions::default();
        let fwd = build_chain(&mut sim, &hops, false, sink, "hop", &opts);
        let rev = build_chain(&mut sim, &hops, true, sink, "rev", &opts);
        // No run straddles the shard cut: every hop of a run is on the
        // side `wan_split` places the run by its first hop.
        let (near, far, _) = wan_split(&hops, &fwd, &rev, Vec::new(), Vec::new());
        let n = hops.len();
        let w = wan_hop(&hops).unwrap_or(n);
        for (i, h) in fwd.iter().enumerate() {
            assert_eq!(near.contains(&h.0), i <= w, "hop{i}");
        }
        for (j, h) in rev.iter().enumerate() {
            assert_eq!(far.contains(&h.0), n - 1 - j >= w, "rev{j}");
        }
        let index = |ids: Vec<HopId>| ids.into_iter().map(|h| h.1).collect();
        (index(fwd), index(rev))
    }

    #[test]
    fn build_chain_ends_a_run_at_the_wan_hop_both_ways() {
        // Hop 2 is the WAN hop: `rev2` models it.
        assert_eq!(runs_of(&[5, 5, 500, 5, 0]), (vec![0, 1, 2, 0, 1], vec![0, 1, 2, 0, 1]));
        // Ties go to the first hop, whose mirror ends the ACK path.
        assert_eq!(runs_of(&[100, 100]), (vec![0, 0], vec![0, 1]));
        assert_eq!(runs_of(&[7, 500]), (vec![0, 1], vec![0, 0]));
        assert_eq!(runs_of(&[0, 0, 0]), (vec![0, 1, 2], vec![0, 1, 2]));
        assert_eq!(runs_of(&[]), (vec![], vec![]));
    }

    #[test]
    fn clean_report_has_only_its_seven_keys() {
        // Every other top-level key is a conditional block; none may leak
        // into a run that asked for nothing.
        for protocol in [Protocol::Tcp { window_bytes: 1 << 20 }, Protocol::RawStream] {
            let xfer = BulkTransfer {
                hops: vec![raw_hop(622.0, 10), raw_hop(622.0, 500), raw_hop(622.0, 10)],
                ip: IpConfig { mtu: 9180 },
                bytes: 1 << 20,
                protocol,
            };
            let (_, report) = xfer.run_with(&RunOptions::default());
            let gtw_desim::Json::Obj(pairs) = report.to_json() else { panic!("not an object") };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let seven = [
                "elapsed_s",
                "events_processed",
                "hops",
                "switches",
                "tcp_senders",
                "tcp_receivers",
                "flows",
            ];
            assert_eq!(keys, seven, "{protocol:?}");
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
        let (report, run) = xfer.run_with(&RunOptions::default());
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
        // patching logic still closes the cycle.
        let xfer = BulkTransfer {
            hops: vec![raw_hop(100.0, 100)],
            ip: IpConfig { mtu: 9180 },
            bytes: 256 * 1024,
            protocol: Protocol::Tcp { window_bytes: 256 * 1024 },
        };
        let (report, run) = xfer.run_with(&RunOptions::default());
        assert_eq!(run.hops.len(), 2);
        assert_eq!(run.senders[0].bytes_acked, 256 * 1024);
        assert!(report.goodput.mbps() > 0.0);
    }

    fn zero_hop(protocol: Protocol) -> BulkTransfer {
        BulkTransfer { hops: vec![], ip: IpConfig { mtu: 9180 }, bytes: 256 * 1024, protocol }
    }

    #[test]
    fn a_zero_hop_path_hands_off_directly() {
        // Sender to receiver and receiver to sender, as the ACK side
        // always wired an empty reverse path; fragments straight to the
        // sink.
        let tcp = zero_hop(Protocol::Tcp { window_bytes: 64 * 1024 });
        let (report, run) = tcp.run_with(&RunOptions::default());
        assert!(report.completed);
        assert_eq!((report.bytes, report.retransmits), (256 * 1024, 0));
        assert!(run.hops.is_empty());
        assert_eq!(run.receivers[0].bytes_delivered, 256 * 1024);
        let (report, run) = zero_hop(Protocol::RawStream).run_with(&RunOptions::default());
        assert!(report.completed);
        assert_eq!(run.flows[0].recorder.bytes, 256 * 1024);
        assert_eq!(report.elapsed, SimDuration::ZERO);
    }

    #[test]
    fn a_zero_hop_path_predicts_an_unbounded_rate() {
        for protocol in [Protocol::Tcp { window_bytes: 64 * 1024 }, Protocol::RawStream] {
            assert_eq!(zero_hop(protocol).predict().bps(), f64::INFINITY, "{protocol:?}");
        }
    }

    #[test]
    fn frame_stream_rate_over_a_zero_hop_path_is_unbounded() {
        let (fps, latency) = frame_stream_rate(&[], IpConfig { mtu: 9180 }, 1 << 20);
        assert_eq!((fps, latency), (f64::INFINITY, SimDuration::ZERO));
    }

    #[test]
    fn untraced_runs_match_traced_runs_over_tcp() {
        // The desim kernel test of the same name covers a toy pinger;
        // this is the real thing: a full TCP transfer over two WAN hops
        // with a recording observer on the kernel. Virtual time and
        // event counts must be bit-identical to the untraced run.
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 250), raw_hop(155.0, 250)],
            ip: IpConfig { mtu: 9180 },
            bytes: 2 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
        };
        let (plain, plain_run) = xfer.run_with(&RunOptions::default());
        let sink = Observer::recording();
        let (traced, traced_run) =
            xfer.run_with(&RunOptions { observer: sink.clone(), ..RunOptions::default() });
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
        let (report, run) = xfer.run_with(&under(&plan));
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
        let (_, a) = xfer.run_with(&under(&degraded_plan(42, "hop0")));
        let (_, b) = xfer.run_with(&under(&degraded_plan(42, "hop0")));
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        let (_, c) = xfer.run_with(&under(&degraded_plan(43, "hop0")));
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
        let (_, clean) = xfer.run_with(&RunOptions::default());
        let (_, faulted) = xfer.run_with(&under(&FaultPlan::new(9)));
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
        let (seq_report, seq_run) = xfer.run_with(&RunOptions::default());
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2, 4] {
            let (report, run) = xfer.run_with(&sharded(shards));
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
        let (_, plain) = xfer.run_with(&sharded(2));
        let plain_json = plain.to_json().dump();
        assert!(!plain_json.contains("kernel_metrics"), "{plain_json}");
        let metrics = Observer::recording();
        let (report, instrumented) =
            xfer.run_with(&RunOptions { observer: metrics.clone(), ..sharded(2) });
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
        let metrics2 = Observer::recording();
        let _ = xfer.run_with(&RunOptions { observer: metrics2.clone(), ..sharded(2) });
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
        let (_, seq_run) = xfer.run_with(&under(&plan));
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2] {
            let (_, run) = xfer.run_with(&RunOptions { shards, ..under(&plan) });
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
        let (seq_report, seq_run) = xfer.run_with(&RunOptions::default());
        for shards in [1, 2] {
            let (report, run) = xfer.run_with(&sharded(shards));
            assert_eq!(report.elapsed, seq_report.elapsed, "{shards} shards");
            assert_eq!(run.to_json().dump(), seq_run.to_json().dump(), "{shards} shards");
        }
    }

    /// Every `run_with` ends in the one `execute`, so one transfer type
    /// covers what it refuses and what it no longer does.
    fn run_small(opts: RunOptions<'_>) {
        let xfer = BulkTransfer {
            hops: vec![raw_hop(622.0, 10), raw_hop(155.0, 400)],
            ip: IpConfig { mtu: 9180 },
            bytes: 64 * 1024,
            protocol: Protocol::Tcp { window_bytes: 64 * 1024 },
        };
        xfer.run_with(&opts);
    }

    #[test]
    fn spans_on_the_sharded_kernel_equal_the_sequential_run() {
        let on = |shards: usize| {
            let observer = Observer::recording();
            run_small(RunOptions { observer: observer.clone(), ..sharded(shards) });
            (observer.snapshot(), observer.registries().len())
        };
        let (seq, two) = (on(0), on(2));
        assert!(seq.0.iter().any(|s| s.name == "tx:data"));
        assert_eq!(two.0, seq.0);
        assert_eq!((seq.1, two.1), (0, 2), "one registry per shard, none without shards");
    }

    #[test]
    #[should_panic(expected = "need the sequential kernel")]
    fn a_horizon_on_the_sharded_kernel_is_rejected() {
        let horizon = Some(SimTime::ZERO + SimDuration::from_secs(1));
        run_small(RunOptions { horizon, ..sharded(2) });
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
        let (seq_reports, seq_run) = set.run_with(&RunOptions::default());
        assert_eq!(seq_reports.len(), 3);
        let seq_json = seq_run.to_json().dump();
        for shards in [1, 2, 4] {
            let (reports, run) = set.run_with(&sharded(shards));
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
        let plan = degraded_plan(7, "t1.hop1");
        let mut set = TransferSet::new();
        set.add(base.clone());
        set.add(base);
        let (_, seq_run) = set.run_with(&under(&plan));
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
        set2.add(base2);
        let (_, sharded_run) = set2.run_with(&RunOptions { shards: 2, ..under(&plan) });
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
