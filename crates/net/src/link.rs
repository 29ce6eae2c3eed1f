//! Event-driven packet transport: the [`PipeStage`] component.
//!
//! Links, gateway forwarding engines and host adapters all share the same
//! queueing behaviour — serialize packets one at a time at some rate, with
//! a per-packet fixed cost, a propagation delay, and a finite buffer —
//! so they are all instances of one component parameterized by a
//! [`Medium`]. Bulk transfers (`crate::transfer`) chain stages into a
//! path; the per-cell ATM arithmetic (53-byte cells, AAL5 pad/trailer) is
//! applied by the `Medium::Atm` wire-time function, keeping event counts
//! at packet granularity while preserving exact byte math.

use gtw_desim::fault::{FaultCause, FaultInjector};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime, SpanSink};
use serde::{Deserialize, Serialize};

use crate::aal5;
use crate::hippi::HippiChannel;
use crate::stats::StageStats;
use crate::units::{Bandwidth, DataSize};

/// What kind of packet is in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PacketKind {
    /// Payload-bearing segment.
    Data,
    /// Acknowledgement (small fixed wire size).
    Ack,
}

/// A network packet at IP granularity.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow identifier (one per transfer).
    pub flow: u64,
    /// Segment sequence number within the flow.
    pub seq: u64,
    /// IP-level size: payload plus protocol headers.
    pub ip_bytes: DataSize,
    /// Application payload carried (for goodput accounting).
    pub payload: DataSize,
    /// Creation time at the original sender.
    pub created: SimTime,
    /// Data or ACK.
    pub kind: PacketKind,
}

/// The physical/framing layer a stage transmits on; determines wire time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum Medium {
    /// ATM on an SDH container: IP datagram → LLC/SNAP + AAL5 → cells.
    /// `cell_payload_rate` is the rate available to the 53-byte cell
    /// stream (SDH payload rate).
    Atm {
        /// Rate available to the cell stream.
        cell_rate: Bandwidth,
    },
    /// HiPPI bursts via a [`HippiChannel`] (connection held open).
    Hippi {
        /// Channel framing parameters.
        channel: HippiChannel,
    },
    /// A plain serializer: bits/rate (used for device I/O buses such as
    /// the SP2 microchannel, and for abstract rate caps).
    Raw {
        /// Serialization rate.
        rate: Bandwidth,
    },
}

/// LLC/SNAP encapsulation overhead of classical IP over ATM (RFC 1577).
pub const LLC_SNAP_BYTES: u64 = 8;

impl Medium {
    /// Time to put one packet of `ip_bytes` on the wire.
    pub fn wire_time(&self, ip_bytes: DataSize) -> SimDuration {
        match *self {
            Medium::Atm { cell_rate } => {
                let pdu = ip_bytes.bytes() + LLC_SNAP_BYTES;
                let bits = aal5::wire_bits_for_pdu(pdu as usize);
                SimDuration::transmission(bits, cell_rate.bps())
            }
            Medium::Hippi { channel } => channel.packet_time(ip_bytes),
            Medium::Raw { rate } => SimDuration::transmission(ip_bytes.bits(), rate.bps()),
        }
    }

    /// Peak payload bandwidth of this medium for a given packet size.
    pub fn effective_rate(&self, ip_bytes: DataSize) -> Bandwidth {
        crate::units::throughput(ip_bytes, self.wire_time(ip_bytes))
    }

    /// Short name of the medium kind, for run reports.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Medium::Atm { .. } => "atm",
            Medium::Hippi { .. } => "hippi",
            Medium::Raw { .. } => "raw",
        }
    }
}

/// Configuration of one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageConfig {
    /// Framing/serialization model.
    pub medium: Medium,
    /// Fixed per-packet processing cost before serialization (driver,
    /// interrupt, store-and-forward lookup...).
    pub per_packet: SimDuration,
    /// Propagation to the next stage (distance / signal speed).
    pub propagation: SimDuration,
    /// Buffer limit in bytes; `u64::MAX` for effectively infinite.
    pub buffer_bytes: u64,
}

impl StageConfig {
    /// A WAN fibre span: `km` kilometres at ~5 µs/km in glass.
    pub fn fibre_propagation(km: f64) -> SimDuration {
        SimDuration::from_secs_f64(km * 5.0e-6)
    }
}

/// Message type accepted by [`PipeStage`]: a packet arriving for
/// forwarding.
pub struct Arrive(pub Packet);

/// Internal self-timer: transmitter finished the head-of-line packet.
struct TxDone;

/// A store-and-forward stage with one transmitter.
pub struct PipeStage {
    /// Stage parameters.
    pub config: StageConfig,
    /// Downstream component (next stage or endpoint).
    pub next: ComponentId,
    /// Counters.
    pub stats: StageStats,
    /// Span sink for per-hop timelines; disabled (free) by default.
    pub spans: SpanSink,
    /// Fault injector judging every arriving packet; `None` (free) by
    /// default.
    pub injector: Option<FaultInjector>,
    /// Messages the stage could not act on (unknown type, `TxDone` with
    /// an empty queue): dropped and counted instead of crashing the hop.
    /// Not part of any report.
    pub dropped_msgs: u64,
    queue: std::collections::VecDeque<Packet>,
    backlog_bytes: u64,
    transmitting: bool,
    label: String,
}

impl PipeStage {
    /// Create a stage forwarding to `next`.
    pub fn new(label: impl Into<String>, config: StageConfig, next: ComponentId) -> Self {
        PipeStage {
            config,
            next,
            stats: StageStats::default(),
            spans: SpanSink::disabled(),
            injector: None,
            dropped_msgs: 0,
            queue: std::collections::VecDeque::new(),
            backlog_bytes: 0,
            transmitting: false,
            label: label.into(),
        }
    }

    /// Attach a span sink (builder form, for wiring time).
    pub fn with_spans(mut self, sink: SpanSink) -> Self {
        self.spans = sink;
        self
    }

    /// Attach a fault injector (builder form, for wiring time).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Buffer limit in effect at `now`: the configured limit scaled by
    /// the injector's degradation factor, if one is installed.
    fn effective_buffer_bytes(&self, now: SimTime) -> u64 {
        match &self.injector {
            Some(inj) if inj.degrades_buffers() => {
                let f = inj.capacity_factor(now);
                if f >= 1.0 {
                    self.config.buffer_bytes
                } else {
                    (self.config.buffer_bytes as f64 * f) as u64
                }
            }
            _ => self.config.buffer_bytes,
        }
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pkt) = self.queue.front() else {
            self.transmitting = false;
            return;
        };
        self.transmitting = true;
        let tx = self.config.per_packet + self.config.medium.wire_time(pkt.ip_bytes);
        self.stats.busy += tx;
        if self.spans.enabled() {
            // The transmitter occupies [now, now+tx) with this packet —
            // the span is fully known at arm time.
            let name = match pkt.kind {
                PacketKind::Data => "tx:data",
                PacketKind::Ack => "tx:ack",
            };
            self.spans.record(&self.label, name, ctx.now(), ctx.now() + tx);
        }
        ctx.timer_in(tx, gtw_desim::component::msg(TxDone));
    }
}

impl Component for PipeStage {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<Arrive>() {
            let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
            if let Some(inj) = self.injector.as_mut() {
                if let Some(cause) = inj.judge(ctx.now()) {
                    match cause {
                        FaultCause::Outage => self.stats.dropped_outage += 1,
                        FaultCause::Burst => self.stats.dropped_burst += 1,
                        // At packet granularity a corrupted header is
                        // indistinguishable from loss.
                        FaultCause::Loss | FaultCause::HeaderError => self.stats.dropped_loss += 1,
                    }
                    return;
                }
            }
            let sz = pkt.ip_bytes.bytes();
            if self.backlog_bytes + sz > self.effective_buffer_bytes(ctx.now()) {
                self.stats.packets_dropped += 1;
                return;
            }
            self.stats.packets_in += 1;
            self.backlog_bytes += sz;
            self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes);
            self.queue.push_back(pkt);
            if !self.transmitting {
                self.start_tx(ctx);
            }
        } else if m.downcast::<TxDone>().is_ok() {
            // A `TxDone` that finds nothing waiting was not armed by
            // `start_tx`: count it and leave the transmitter idle.
            let Some(pkt) = self.queue.pop_front() else {
                self.transmitting = false;
                self.dropped_msgs += 1;
                return;
            };
            self.backlog_bytes -= pkt.ip_bytes.bytes();
            self.stats.packets_out += 1;
            self.stats.bytes_out += pkt.payload.bytes();
            if self.spans.enabled() && self.config.propagation > SimDuration::ZERO {
                // The segment is in flight towards the next hop.
                let end = ctx.now() + self.config.propagation;
                self.spans.record(&self.label, "flight", ctx.now(), end);
            }
            let next = self.next;
            ctx.send_in(self.config.propagation, next, gtw_desim::component::msg(Arrive(pkt)));
            self.start_tx(ctx);
        } else {
            // A stray message of an unknown type must not crash the hop.
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A terminal sink that records everything it receives; useful in tests
/// and as the far end of one-way streams.
#[derive(Default)]
pub struct Sink {
    /// Arrival log: (time, flow, seq, payload bytes).
    pub received: Vec<(SimTime, u64, u64, u64)>,
    /// Flow statistics.
    pub recorder: crate::stats::FlowRecorder,
}

impl Component for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
        self.recorder.record(pkt.created, ctx.now(), pkt.payload);
        self.received.push((ctx.now(), pkt.flow, pkt.seq, pkt.payload.bytes()));
    }
    fn name(&self) -> &str {
        "sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_desim::component::msg;
    use gtw_desim::Simulator;

    fn data_packet(seq: u64, bytes: u64, created: SimTime) -> Packet {
        Packet {
            flow: 1,
            seq,
            ip_bytes: DataSize::from_bytes(bytes),
            payload: DataSize::from_bytes(bytes.saturating_sub(40)),
            created,
            kind: PacketKind::Data,
        }
    }

    fn raw_stage(rate_mbps: f64, next: ComponentId) -> PipeStage {
        PipeStage::new(
            "link",
            StageConfig {
                medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
                per_packet: SimDuration::ZERO,
                propagation: SimDuration::ZERO,
                buffer_bytes: u64::MAX,
            },
            next,
        )
    }

    #[test]
    fn single_packet_timing() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        // 100 Mbit/s, 1 ms propagation.
        let mut st = raw_stage(100.0, sink);
        st.config.propagation = SimDuration::from_millis(1);
        let link = sim.add_component(st);
        // 12500 bytes = 100_000 bits -> 1 ms tx + 1 ms prop = 2 ms.
        sim.send_in(SimDuration::ZERO, link, msg(Arrive(data_packet(0, 12_500, SimTime::ZERO))));
        sim.run();
        let s = sim.component::<Sink>(sink);
        assert_eq!(s.received.len(), 1);
        assert_eq!(s.received[0].0, SimTime::from_millis(2));
    }

    #[test]
    fn queueing_serializes_back_to_back() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let link = sim.add_component(raw_stage(100.0, sink));
        for seq in 0..10 {
            sim.send_in(
                SimDuration::ZERO,
                link,
                msg(Arrive(data_packet(seq, 12_500, SimTime::ZERO))),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink);
        assert_eq!(s.received.len(), 10);
        // k-th departure at (k+1) ms.
        for (k, r) in s.received.iter().enumerate() {
            assert_eq!(r.0, SimTime::from_millis(k as u64 + 1));
        }
        let st = sim.component::<PipeStage>(link);
        assert_eq!(st.stats.packets_out, 10);
        assert!((st.stats.utilization(SimDuration::from_millis(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn finite_buffer_drops() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let mut st = raw_stage(100.0, sink);
        st.config.buffer_bytes = 30_000; // fits 2 packets of 12500
        let link = sim.add_component(st);
        for seq in 0..10 {
            sim.send_in(
                SimDuration::ZERO,
                link,
                msg(Arrive(data_packet(seq, 12_500, SimTime::ZERO))),
            );
        }
        sim.run();
        let st = sim.component::<PipeStage>(link);
        assert_eq!(st.stats.packets_dropped, 8);
        assert_eq!(sim.component::<Sink>(sink).received.len(), 2);
    }

    #[test]
    fn atm_medium_pays_cell_tax() {
        // 9180-byte CLIP packet: +8 LLC/SNAP = 9188 -> AAL5 -> 192 cells.
        let m = Medium::Atm { cell_rate: Bandwidth::OC3 };
        let t = m.wire_time(DataSize::from_bytes(9180));
        let expected = 192.0 * 53.0 * 8.0 / Bandwidth::OC3.bps();
        assert!((t.as_secs_f64() - expected).abs() < 1e-9);
        // Effective rate strictly below line rate.
        assert!(m.effective_rate(DataSize::from_bytes(9180)).bps() < Bandwidth::OC3.bps());
    }

    #[test]
    fn hippi_medium_uses_burst_framing() {
        let ch = HippiChannel::default();
        let m = Medium::Hippi { channel: ch };
        assert_eq!(m.wire_time(DataSize::from_kib(64)), ch.packet_time(DataSize::from_kib(64)));
    }

    #[test]
    fn per_packet_overhead_counts() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let mut st = raw_stage(100.0, sink);
        st.config.per_packet = SimDuration::from_millis(3);
        let link = sim.add_component(st);
        sim.send_in(SimDuration::ZERO, link, msg(Arrive(data_packet(0, 12_500, SimTime::ZERO))));
        sim.run();
        assert_eq!(sim.component::<Sink>(sink).received[0].0, SimTime::from_millis(4));
    }

    #[test]
    fn two_stage_pipeline_store_and_forward() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let second = sim.add_component(raw_stage(100.0, sink));
        let first = sim.add_component(raw_stage(100.0, second));
        sim.send_in(SimDuration::ZERO, first, msg(Arrive(data_packet(0, 12_500, SimTime::ZERO))));
        sim.run();
        // Store-and-forward: 1 ms + 1 ms.
        assert_eq!(sim.component::<Sink>(sink).received[0].0, SimTime::from_millis(2));
    }

    #[test]
    fn stray_messages_are_counted_not_fatal() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let link = sim.add_component(raw_stage(100.0, sink));
        struct Stray;
        sim.send_in(SimDuration::ZERO, link, msg(Stray));
        // A TxDone nobody armed, on an empty queue.
        sim.send_in(SimDuration::ZERO, link, msg(TxDone));
        sim.send_in(
            SimDuration::from_millis(1),
            link,
            msg(Arrive(data_packet(0, 12_500, SimTime::ZERO))),
        );
        sim.run();
        assert_eq!(sim.component::<PipeStage>(link).dropped_msgs, 2);
        let s = sim.component::<Sink>(sink);
        assert_eq!(s.received.len(), 1);
        assert_eq!(s.received[0].0, SimTime::from_millis(2));
    }

    #[test]
    fn fibre_propagation_juelich_sankt_augustin() {
        // ~100 km -> 500 us one way.
        let p = StageConfig::fibre_propagation(100.0);
        assert_eq!(p, SimDuration::from_micros(500));
    }
}
