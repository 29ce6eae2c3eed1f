//! MPWide-style WAN striping: one logical bulk transfer carried by N
//! parallel TCP streams over a shared physical path.
//!
//! The paper's testbed moved bulk data between supercomputers over a
//! single 100 km trunk whose bandwidth-delay product dwarfs any single
//! socket buffer. MPWide's answer — adopted here — is to split the
//! logical payload into contiguous byte ranges, give each range its own
//! TCP stream with a proportionally smaller window (per-stream pacing),
//! and pick the stream count from the measured path characteristics so
//! the *aggregate* window covers the pipe.
//!
//! The wiring shares one forward [`PipeStage`] chain and one reverse
//! (ACK) chain between all stripes; a [`FlowDemux`] at each chain end
//! routes packets to the per-stripe endpoint owning `Packet::flow` with
//! a zero-delay hand-off, so striping never changes per-hop timing
//! arithmetic. Determinism and shard-equivalence therefore come from the
//! same kernel ordering contract as single-stream transfers, which the
//! conservation suite in `tests/network_stack.rs` pins.

use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, Simulator};

use crate::ip::IpConfig;
use crate::link::Arrive;
use crate::signaling::{SignallingAgent, TrafficDescriptor};
use crate::stats::{RunReport, StatsRegistry};
use crate::tcp::{HopModel, StartTransfer, TcpConfig, TcpModel, TcpReceiver, TcpSender};
use crate::transfer::{build_chain, execute, register_stages, wan_split, RunOptions, ShardSplit};
use crate::units::{Bandwidth, DataSize};

/// Hard ceiling on parallel streams per logical transfer (MPWide's
/// practical sweet spot; beyond this the per-stream windows get so small
/// that slow-start dominates).
pub const MAX_STRIPES: usize = 8;

/// Contiguous per-stripe byte counts: `bytes / n` each, with the
/// remainder spread one byte at a time over the first stripes.
pub fn stripe_sizes(bytes: u64, streams: usize) -> Vec<u64> {
    assert!(streams >= 1, "a striped transfer needs at least one stream");
    let n = streams as u64;
    let base = bytes / n;
    let rem = bytes % n;
    (0..n).map(|k| base + u64::from(k < rem)).collect()
}

/// Byte ranges `(offset, len)` of each stripe in the logical payload.
/// Reassembly concatenates the ranges in stripe order — a merge order
/// fixed by construction, independent of which stream finishes first.
pub fn stripe_offsets(bytes: u64, streams: usize) -> Vec<(u64, u64)> {
    let mut offset = 0u64;
    stripe_sizes(bytes, streams)
        .into_iter()
        .map(|len| {
            let o = offset;
            offset += len;
            (o, len)
        })
        .collect()
}

/// Deterministic adaptive stream count for a path: enough streams that
/// the aggregate window (`streams × window_bytes`) covers the path's
/// bandwidth-delay product as computed by the analytic [`TcpModel`] —
/// the "measured per-path stats" that drive MPWide's auto-tuning —
/// clamped to `[1, MAX_STRIPES]`.
pub fn adaptive_streams(hops: &[HopModel], ip: IpConfig, window_bytes: u64) -> usize {
    let model =
        TcpModel { hops: hops.to_vec(), ip, window: DataSize::from_bytes(window_bytes.max(1)) };
    let bdp = model.required_window().bytes();
    let need = bdp.div_ceil(window_bytes.max(1)).max(1);
    (need as usize).min(MAX_STRIPES)
}

/// [`adaptive_streams`] gated by signalling: each stripe is a virtual
/// circuit that must pass the path's connection-admission check, so the
/// final count is the smaller of what the BDP wants and what the
/// admission point will accept ([`CacState::admissible_streams`]
/// (crate::replica::CacState::admissible_streams)),
/// never below one.
pub fn adaptive_streams_with_cac(
    hops: &[HopModel],
    ip: IpConfig,
    window_bytes: u64,
    agent: &SignallingAgent,
    per_stream: &TrafficDescriptor,
) -> usize {
    let want = adaptive_streams(hops, ip, window_bytes);
    agent.cac().admissible_streams(per_stream, want).max(1)
}

/// Routes packets to the per-stripe endpoint owning their flow id with a
/// zero-delay hand-off (no virtual-time cost — the demux is a wiring
/// artifact, not a network element). Packets with an unknown flow are
/// counted and dropped rather than crashing the simulation: after a
/// stripe's endpoints are gone (e.g. a faulted run cut short), stray
/// packets must not take down the surviving streams.
pub struct FlowDemux {
    label: String,
    routes: Vec<(u64, ComponentId, u64)>,
    /// Packets dropped for want of a route.
    pub unroutable: u64,
}

impl FlowDemux {
    /// New demux with no routes (add them via [`FlowDemux::route`]).
    pub fn new(label: impl Into<String>) -> Self {
        FlowDemux { label: label.into(), routes: Vec::new(), unroutable: 0 }
    }

    /// Register `target` as the owner of `flow`.
    pub fn route(&mut self, flow: u64, target: ComponentId) {
        self.routes.push((flow, target, 0));
    }

    /// `(flow, packets routed)` per registered route, registration order.
    pub fn routed(&self) -> Vec<(u64, u64)> {
        self.routes.iter().map(|&(flow, _, n)| (flow, n)).collect()
    }
}

impl Component for FlowDemux {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
        match self.routes.iter_mut().find(|(flow, _, _)| *flow == pkt.flow) {
            Some((_, target, n)) => {
                *n += 1;
                let target = *target;
                ctx.send_in(SimDuration::ZERO, target, gtw_desim::component::msg(Arrive(pkt)));
            }
            None => self.unroutable += 1,
        }
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// Per-stripe outcome of a striped run.
#[derive(Clone, Copy, Debug)]
pub struct StripeOutcome {
    /// Flow id of the stripe's TCP stream.
    pub flow: u64,
    /// Byte range `(offset, len)` of the logical payload this stripe
    /// owns.
    pub range: (u64, u64),
    /// Bytes the stripe's receiver delivered in order.
    pub delivered: u64,
    /// Virtual time from start to the stream's last ACK (`None` when the
    /// stream did not finish — a failed stripe reports cleanly instead
    /// of panicking the run).
    pub elapsed: Option<SimDuration>,
    /// TCP retransmissions on this stream.
    pub retransmits: u64,
}

/// Aggregate outcome of a striped run.
#[derive(Clone, Debug)]
pub struct StripedReport {
    /// Logical payload size.
    pub bytes: u64,
    /// Whether every stripe finished.
    pub completed: bool,
    /// Virtual duration until the slowest stripe finished (or until the
    /// simulation horizon for incomplete runs).
    pub elapsed: SimDuration,
    /// Aggregate goodput over `elapsed`.
    pub goodput: Bandwidth,
    /// Per-stripe outcomes in stripe (merge) order.
    pub stripes: Vec<StripeOutcome>,
}

/// One logical bulk transfer striped over N parallel TCP streams.
#[derive(Clone, Debug)]
pub struct StripedTransfer {
    /// Path hops, sender-side first (shared by all stripes).
    pub hops: Vec<HopModel>,
    /// IP/MTU configuration.
    pub ip: IpConfig,
    /// Logical payload size.
    pub bytes: u64,
    /// Aggregate window budget, split evenly across streams.
    pub window_bytes: u64,
    /// Parallel stream count (1..=[`MAX_STRIPES`]).
    pub streams: usize,
}

struct StripedWiring {
    senders: Vec<ComponentId>,
    receivers: Vec<ComponentId>,
    split: ShardSplit,
}

impl StripedTransfer {
    /// Stream count picked by [`adaptive_streams`] for this path and
    /// window budget.
    pub fn with_adaptive_streams(mut self) -> Self {
        self.streams = adaptive_streams(&self.hops, self.ip, self.window_bytes);
        self
    }

    /// Per-stream window: the aggregate budget divided by the stream
    /// count (per-stream pacing), floored at one MTU so no stream can
    /// stall on a sub-segment window.
    pub fn per_stream_window(&self) -> u64 {
        (self.window_bytes / self.streams.max(1) as u64).max(self.ip.mtu)
    }

    /// Wire all stripes into `sim`: shared forward chain into the data
    /// demux, shared reverse chain into the ACK demux, one
    /// sender/receiver pair per stripe (flow ids `1..=streams`).
    fn wire(
        &self,
        sim: &mut Simulator,
        reg: &mut StatsRegistry,
        opts: &RunOptions<'_>,
    ) -> StripedWiring {
        assert!((1..=MAX_STRIPES).contains(&self.streams), "stream count out of range");
        // Reverse (ACK) chain, far end feeding the ACK demux (created
        // first so the chain has its terminal).
        let ack_demux = sim.add_component(FlowDemux::new("ack-demux"));
        let rev_hops: Vec<HopModel> = self.hops.iter().rev().copied().collect();
        let rev = build_chain(sim, &rev_hops, ack_demux, "rev", opts);
        let rev_first = rev.first().copied().unwrap_or(ack_demux);
        // Forward chain terminating in the data demux.
        let data_demux = sim.add_component(FlowDemux::new("data-demux"));
        let fwd = build_chain(sim, &self.hops, data_demux, "hop", opts);
        let first_fwd = fwd.first().copied().unwrap_or(data_demux);
        // Per-stripe endpoints. Flow k+1 owns stripe k.
        let window = self.per_stream_window();
        let mut senders = Vec::with_capacity(self.streams);
        let mut receivers = Vec::with_capacity(self.streams);
        for (k, len) in stripe_sizes(self.bytes, self.streams).into_iter().enumerate() {
            let flow = (k + 1) as u64;
            let receiver = sim.add_component(TcpReceiver::new(flow, len, rev_first));
            let cfg = TcpConfig::bulk(flow, len, self.ip, window);
            let sender = sim.add_component(TcpSender::new(cfg, first_fwd));
            sim.component_mut::<FlowDemux>(data_demux).route(flow, receiver);
            sim.component_mut::<FlowDemux>(ack_demux).route(flow, sender);
            reg.add_tcp_sender(sender);
            reg.add_tcp_receiver(receiver);
            senders.push(sender);
            receivers.push(receiver);
        }
        register_stages(reg, &fwd, &rev);
        reg.add_demux(data_demux);
        reg.add_demux(ack_demux);
        for &s in &senders {
            sim.send_in(SimDuration::ZERO, s, gtw_desim::component::msg(StartTransfer));
        }
        // Shard split: mirror of the single-stream TCP split. Senders and
        // the ACK demux live with the near side of the cut; receivers and
        // the data demux with the far side (demux→endpoint edges are
        // zero-delay and must stay intra-shard).
        let mut near = senders.clone();
        near.push(ack_demux);
        let mut far = receivers.clone();
        far.push(data_demux);
        StripedWiring { senders, receivers, split: wan_split(&self.hops, &fwd, &rev, near, far) }
    }

    /// Run as `opts` asks and return the striped summary with the full
    /// component report. Byte-identical across shard counts for the same
    /// configuration. Under a fault plan that never clears, give the run
    /// a [`horizon`](RunOptions::horizon): a stalled stripe then reports
    /// `elapsed: None` when it passes instead of spinning the simulation
    /// for ever — the "fail cleanly" half of the stripe-failure contract.
    pub fn run_with(&self, opts: &RunOptions<'_>) -> (StripedReport, RunReport) {
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        let wiring = self.wire(&mut sim, &mut reg, opts);
        let (sim, run) = execute(sim, &reg, std::slice::from_ref(&wiring.split), opts);
        (self.collect(&sim, &wiring, run.elapsed), run)
    }

    /// `run_elapsed` is the run report's `elapsed`: what a transfer that
    /// did not complete reports as its own.
    fn collect(
        &self,
        sim: &Simulator,
        wiring: &StripedWiring,
        run_elapsed: SimDuration,
    ) -> StripedReport {
        let ranges = stripe_offsets(self.bytes, self.streams);
        let mut stripes = Vec::with_capacity(self.streams);
        let mut completed = true;
        let mut elapsed = SimDuration::ZERO;
        for (k, (&s, &r)) in wiring.senders.iter().zip(&wiring.receivers).enumerate() {
            let sender = sim.component::<TcpSender>(s);
            let receiver = sim.component::<TcpReceiver>(r);
            let e = sender.elapsed();
            match e {
                Some(d) => elapsed = elapsed.max(d),
                None => completed = false,
            }
            stripes.push(StripeOutcome {
                flow: (k + 1) as u64,
                range: ranges[k],
                delivered: receiver.bytes_delivered(),
                elapsed: e,
                retransmits: sender.retransmits,
            });
        }
        if !completed {
            elapsed = run_elapsed;
        }
        StripedReport {
            bytes: self.bytes,
            completed,
            elapsed,
            goodput: crate::units::throughput(DataSize::from_bytes(self.bytes), elapsed),
            stripes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::HopModel;
    use crate::units::Bandwidth;

    fn raw_hop(rate_mbps: f64, prop_us: u64) -> HopModel {
        HopModel {
            medium: crate::link::Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(prop_us),
        }
    }

    fn wan_path() -> Vec<HopModel> {
        vec![raw_hop(622.0, 10), raw_hop(622.0, 500), raw_hop(622.0, 10)]
    }

    #[test]
    fn stripe_sizes_conserve_bytes() {
        for streams in 1..=MAX_STRIPES {
            for bytes in [0u64, 1, 7, 1000, 1_000_003] {
                let sizes = stripe_sizes(bytes, streams);
                assert_eq!(sizes.len(), streams);
                assert_eq!(sizes.iter().sum::<u64>(), bytes);
                // Sizes differ by at most one byte (even pacing).
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn stripe_offsets_tile_the_payload() {
        let offs = stripe_offsets(1_000_003, 4);
        let mut expect = 0u64;
        for (o, l) in offs {
            assert_eq!(o, expect);
            expect += l;
        }
        assert_eq!(expect, 1_000_003);
    }

    #[test]
    fn adaptive_streams_scale_with_bdp() {
        let ip = IpConfig { mtu: 9180 };
        // Long fat pipe: BDP far beyond a 64 KiB window.
        let fat = adaptive_streams(&wan_path(), ip, 64 * 1024);
        // Short path: one window suffices.
        let thin = adaptive_streams(&[raw_hop(100.0, 10)], ip, 1 << 20);
        assert!(fat > 1, "long fat path must want multiple streams, got {fat}");
        assert!(fat <= MAX_STRIPES);
        assert_eq!(thin, 1);
    }

    #[test]
    fn striped_transfer_delivers_every_byte_exactly_once() {
        for streams in [1usize, 2, 4, 8] {
            let xfer = StripedTransfer {
                hops: wan_path(),
                ip: IpConfig { mtu: 9180 },
                bytes: 2_000_000,
                window_bytes: 1 << 20,
                streams,
            };
            let (report, _) = xfer.run_with(&RunOptions::default());
            assert!(report.completed);
            assert_eq!(report.stripes.len(), streams);
            for s in &report.stripes {
                assert_eq!(s.delivered, s.range.1, "stripe must deliver exactly its range");
            }
            let total: u64 = report.stripes.iter().map(|s| s.delivered).sum();
            assert_eq!(total, 2_000_000);
        }
    }

    #[test]
    fn demux_drops_unroutable_packets_without_crashing() {
        use crate::link::{Packet, PacketKind};
        use gtw_desim::component::msg;
        use gtw_desim::SimTime;
        let mut sim = Simulator::new();
        let demux = sim.add_component(FlowDemux::new("demux"));
        let pkt = Packet {
            flow: 99,
            seq: 0,
            ip_bytes: DataSize::from_bytes(1500),
            payload: DataSize::from_bytes(1460),
            created: SimTime::ZERO,
            kind: PacketKind::Data,
        };
        sim.send_in(SimDuration::ZERO, demux, msg(Arrive(pkt)));
        sim.run();
        assert_eq!(sim.component::<FlowDemux>(demux).unroutable, 1);
    }
}
