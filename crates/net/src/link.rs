//! Event-driven packet transport: the [`PipeStage`] component.
//!
//! Links, gateway forwarding engines and host adapters all share the same
//! queueing behaviour — serialize packets one at a time at some rate, with
//! a per-packet fixed cost, a propagation delay, and a finite buffer —
//! so they are all [`Hop`]s parameterized by a [`Medium`], and a
//! [`PipeStage`] is a run of them. Bulk transfers (`crate::transfer`)
//! chain runs into a path; the per-cell ATM arithmetic (53-byte cells,
//! AAL5 pad/trailer) is applied by the `Medium::Atm` wire-time function,
//! keeping event counts at packet granularity while preserving exact
//! byte math.
//!
//! # Event model: one event per packet per run of hops
//!
//! A FIFO transmitter knows when a packet will leave the moment it
//! accepts it (`depart = start + per_packet + wire_time`, `start` when the
//! packet ahead departs, or now), and every hop after a run's first has
//! one predecessor, so it sees its arrivals in the order they entered the
//! run. A packet's [`Arrive`] at the first hop is thus its only event in
//! the run: the handler admits it at each hop in turn, at the instant it
//! reaches that hop, and forwards the same box to `next` from the last.
//! Accepted packets wait in a deque per hop and are counted out
//! (`packets_out`, `bytes_out`, `busy`, the backlog) lazily, at the hop's
//! next arrival and in [`Hop::stats_at`]. Arrival instants, the
//! injector's draws (one per arrival, in arrival order) and the
//! `tx`/`flight` spans are what they were with one component per hop;
//! DESIGN.md §4g has the argument, the same treatment of `AtmSwitch`
//! ports, and what is left out (`GatewayPair`).
//!
//! **The horizon.** A run built with `RunOptions::horizon` admits inline
//! only arrivals at or before it. One past it becomes a self-addressed
//! event at its instant carrying the hop's index, so every packet in
//! flight at the horizon is a pending event, and a report's clock there
//! takes in the latest inline arrival as well as the latest departure.

use std::collections::VecDeque;

use gtw_desim::fault::{FaultCause, FaultInjector};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime};

use crate::aal5;
use crate::hippi::HippiChannel;
use crate::stats::StageStats;
use crate::units::{Bandwidth, DataSize};

/// What kind of packet is in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
#[derive(Clone, Copy, Debug)]
pub enum Medium {
    /// ATM on an SDH container: IP datagram → LLC/SNAP + AAL5 → cells.
    Atm {
        /// Rate available to the 53-byte cell stream (SDH payload rate).
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

/// A packet reaching hop `.0` of the run after its horizon: the run's
/// event to itself, at that instant.
struct AtHop(usize, Box<Arrive>);

/// A packet a hop has accepted and not yet counted out.
struct Pending {
    /// Transmission start (after everything queued ahead) and end.
    start: SimTime,
    depart: SimTime,
    ip_bytes: u64,
    payload_bytes: u64,
}

/// One store-and-forward transmitter of a [`PipeStage`]'s run.
///
/// **Tie rule:** a packet departing at `t` has freed its buffer for an
/// arrival at `t`, in whatever order the components were registered.
pub struct Hop {
    /// Hop parameters.
    pub config: StageConfig,
    /// Fault injector judging every arriving packet; `None` (free) by
    /// default.
    pub injector: Option<FaultInjector>,
    /// Departure side complete only up to the last count-out: read
    /// through [`stats_at`](Self::stats_at).
    stats: StageStats,
    /// Accepted, not yet counted out; departures are nondecreasing.
    pending: VecDeque<Pending>,
    backlog_bytes: u64,
    /// The latest instant a packet reached this hop.
    last_arrival: SimTime,
    /// Last admitted size and its wire time (`wire_time` is pure, `config` fixed in a run).
    wire_memo: Option<(u64, SimDuration)>,
    /// Report label and span track.
    pub label: String,
}

impl Hop {
    /// A hop labelled `label`, without an injector.
    pub(crate) fn new(label: impl Into<String>, config: StageConfig) -> Self {
        Hop {
            config,
            injector: None,
            stats: StageStats::default(),
            pending: VecDeque::new(),
            backlog_bytes: 0,
            last_arrival: SimTime::ZERO,
            wire_memo: None,
            label: label.into(),
        }
    }

    /// The counters once every arrival up to `now` has been admitted:
    /// departures at or before `now` are out, and `busy` holds a packet's
    /// whole service time from the instant its transmission starts.
    pub fn stats_at(&self, now: SimTime) -> StageStats {
        let mut stats = self.stats.clone();
        for p in self.pending.iter().take_while(|p| p.start <= now) {
            stats.busy += p.depart - p.start;
            if p.depart <= now {
                stats.packets_out += 1;
                stats.bytes_out += p.payload_bytes;
            }
        }
        stats
    }

    /// Where a hop that was a component of its own would have left the
    /// clock by `horizon`: its latest arrival or its latest departure at
    /// or before it that nothing has counted out.
    pub(crate) fn clock_by(&self, horizon: SimTime) -> Option<SimTime> {
        let departed = self.pending.iter().map(|p| p.depart).take_while(|&d| d <= horizon).last();
        Some(self.last_arrival).filter(|&a| a <= horizon).max(departed)
    }

    /// Count out every packet that has departed by `now`.
    fn count_out(&mut self, now: SimTime) {
        while let Some(p) = self.pending.front().filter(|p| p.depart <= now) {
            self.backlog_bytes -= p.ip_bytes;
            self.stats.packets_out += 1;
            self.stats.bytes_out += p.payload_bytes;
            self.stats.busy += p.depart - p.start;
            self.pending.pop_front();
        }
    }

    /// Buffer limit in effect at `now`: the configured limit scaled by
    /// the injector's degradation factor, if one is installed.
    fn effective_buffer_bytes(&self, now: SimTime) -> u64 {
        match &self.injector {
            Some(inj) if inj.degrades_buffers() && inj.capacity_factor(now) < 1.0 => {
                (self.config.buffer_bytes as f64 * inj.capacity_factor(now)) as u64
            }
            _ => self.config.buffer_bytes,
        }
    }

    /// Admit `pkt` arriving at `now`: the instant it reaches whatever
    /// follows this hop, or `None` if it is dropped here.
    fn admit(&mut self, ctx: &mut Ctx<'_>, now: SimTime, pkt: &Packet) -> Option<SimTime> {
        self.last_arrival = now;
        // The tie rule: departures at `now` leave before this arrival.
        self.count_out(now);
        if let Some(inj) = self.injector.as_mut() {
            if let Some(cause) = inj.judge(now) {
                match cause {
                    FaultCause::Outage => self.stats.dropped_outage += 1,
                    FaultCause::Burst => self.stats.dropped_burst += 1,
                    // At packet granularity a corrupted header is
                    // indistinguishable from loss.
                    FaultCause::Loss | FaultCause::HeaderError => self.stats.dropped_loss += 1,
                }
                return None;
            }
        }
        let ip_bytes = pkt.ip_bytes.bytes();
        if self.backlog_bytes + ip_bytes > self.effective_buffer_bytes(now) {
            self.stats.packets_dropped += 1;
            return None;
        }
        self.stats.packets_in += 1;
        self.backlog_bytes += ip_bytes;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes);
        // Whatever is still pending departs after `now`; the transmitter
        // takes this packet when the last of it has left.
        let start = self.pending.back().map_or(now, |p| p.depart);
        let wire = match self.wire_memo {
            Some((bytes, wire)) if bytes == ip_bytes => wire,
            _ => self.wire_memo.insert((ip_bytes, self.config.medium.wire_time(pkt.ip_bytes))).1,
        };
        let depart = start + self.config.per_packet + wire;
        let arrival = depart + self.config.propagation;
        if ctx.observing() {
            // The transmitter occupies [start, depart) with this packet,
            // then the segment is in flight: both known at admission.
            let name = match pkt.kind {
                PacketKind::Data => "tx:data",
                PacketKind::Ack => "tx:ack",
            };
            ctx.span(&self.label, name, start, depart);
            if arrival > depart {
                ctx.span(&self.label, "flight", depart, arrival);
            }
        }
        let payload_bytes = pkt.payload.bytes();
        self.pending.push_back(Pending { start, depart, ip_bytes, payload_bytes });
        Some(arrival)
    }
}

/// A run of [`Hop`]s: one component, one event per packet (module doc).
/// [`new`](Self::new) builds a run of one hop.
pub struct PipeStage {
    /// Downstream component of the run's last hop (next run or endpoint).
    pub next: ComponentId,
    /// Messages of a type the stage does not know: dropped and counted
    /// instead of crashing the run. Not part of any report.
    pub dropped_msgs: u64,
    hops: Vec<Hop>,
    /// Arrivals after this instant are events of their own.
    horizon: SimTime,
}

impl PipeStage {
    /// A one-hop stage forwarding to `next`.
    pub fn new(label: impl Into<String>, config: StageConfig, next: ComponentId) -> Self {
        Self::run(vec![Hop::new(label, config)], next, None)
    }

    /// A run of `hops`, the last forwarding to `next`, admitting inline
    /// up to `horizon` (all the way without one).
    pub(crate) fn run(hops: Vec<Hop>, next: ComponentId, horizon: Option<SimTime>) -> Self {
        assert!(!hops.is_empty(), "a run needs at least one hop");
        PipeStage { next, dropped_msgs: 0, hops, horizon: horizon.unwrap_or(SimTime::MAX) }
    }

    /// Attach a fault injector to the first hop (chained, at wiring
    /// time).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.hops[0].injector = Some(injector);
        self
    }

    /// The run's hops, in path order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }
}

impl Component for PipeStage {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        // A stray message of an unknown type must not crash the run.
        let (mut k, arrive) = match m.downcast::<Arrive>() {
            Ok(arrive) => (0, arrive),
            Err(m) => match m.downcast::<AtHop>() {
                Ok(at) => (at.0, at.1),
                Err(_) => {
                    self.dropped_msgs += 1;
                    return;
                }
            },
        };
        let mut now = ctx.now();
        while let Some(at) = self.hops[k].admit(ctx, now, &arrive.0) {
            k += 1;
            if k == self.hops.len() {
                // The same box travels run to run.
                ctx.send_at(at, self.next, arrive);
            } else if at > self.horizon {
                ctx.send_at(at, ctx.self_id(), gtw_desim::component::msg(AtHop(k, arrive)));
            } else {
                now = at;
                continue;
            }
            return;
        }
    }

    fn name(&self) -> &str {
        &self.hops[0].label
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
    /// Messages that were not an [`Arrive`]: dropped and counted instead
    /// of aborting the run. Not part of any report.
    pub dropped_msgs: u64,
}

impl Component for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let Ok(arrive) = m.downcast::<Arrive>() else {
            self.dropped_msgs += 1;
            return;
        };
        let Arrive(pkt) = *arrive;
        self.recorder.record(pkt.created, ctx.now(), pkt.payload);
        self.received.push((ctx.now(), pkt.flow, pkt.seq, pkt.payload.bytes()));
    }
    fn name(&self) -> &str {
        "sink"
    }
}

#[cfg(test)]
/// The two-event stage a one-hop [`PipeStage`] replaced, kept as the
/// reference model its tests hold it to: every accepted packet arms a
/// `TxDone` self-timer, and the departure side (counters, `flight` span,
/// the forwarded `Arrive`) happens when that timer fires.
mod two_event {
    use super::*;

    pub struct TxDone;

    pub struct TwoEventStage {
        pub config: StageConfig,
        pub next: ComponentId,
        pub stats: StageStats,
        pub injector: Option<FaultInjector>,
        pub dropped_msgs: u64,
        queue: VecDeque<Packet>,
        backlog_bytes: u64,
        transmitting: bool,
        label: String,
    }

    impl TwoEventStage {
        pub fn new(label: impl Into<String>, config: StageConfig, next: ComponentId) -> Self {
            TwoEventStage {
                config,
                next,
                stats: StageStats::default(),
                injector: None,
                dropped_msgs: 0,
                queue: VecDeque::new(),
                backlog_bytes: 0,
                transmitting: false,
                label: label.into(),
            }
        }

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
            if ctx.observing() {
                let name = match pkt.kind {
                    PacketKind::Data => "tx:data",
                    PacketKind::Ack => "tx:ack",
                };
                ctx.span(&self.label, name, ctx.now(), ctx.now() + tx);
            }
            ctx.timer_in(tx, gtw_desim::component::msg(TxDone));
        }
    }

    impl Component for TwoEventStage {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            if m.is::<Arrive>() {
                let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
                if let Some(inj) = self.injector.as_mut() {
                    if let Some(cause) = inj.judge(ctx.now()) {
                        match cause {
                            FaultCause::Outage => self.stats.dropped_outage += 1,
                            FaultCause::Burst => self.stats.dropped_burst += 1,
                            FaultCause::Loss | FaultCause::HeaderError => {
                                self.stats.dropped_loss += 1
                            }
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
                let Some(pkt) = self.queue.pop_front() else {
                    self.transmitting = false;
                    self.dropped_msgs += 1;
                    return;
                };
                self.backlog_bytes -= pkt.ip_bytes.bytes();
                self.stats.packets_out += 1;
                self.stats.bytes_out += pkt.payload.bytes();
                if self.config.propagation > SimDuration::ZERO {
                    let end = ctx.now() + self.config.propagation;
                    ctx.span(&self.label, "flight", ctx.now(), end);
                }
                let next = self.next;
                ctx.send_in(self.config.propagation, next, gtw_desim::component::msg(Arrive(pkt)));
                self.start_tx(ctx);
            } else {
                self.dropped_msgs += 1;
            }
        }

        fn name(&self) -> &str {
            &self.label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::two_event::{TwoEventStage, TxDone};
    use super::*;
    use gtw_desim::component::msg;
    use gtw_desim::fault::{FaultSpec, FaultStats, LossModel, Schedule, Window};
    use gtw_desim::{Observer, RunResult, Simulator, Span, StreamRng};
    use proptest::prelude::*;

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

    fn raw_config(rate_mbps: f64) -> StageConfig {
        StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::ZERO,
            buffer_bytes: u64::MAX,
        }
    }

    fn raw_stage(rate_mbps: f64, next: ComponentId) -> PipeStage {
        PipeStage::new("link", raw_config(rate_mbps), next)
    }

    /// The counters of a one-hop stage.
    fn stats_at(sim: &Simulator, stage: ComponentId, now: SimTime) -> StageStats {
        sim.component::<PipeStage>(stage).hops()[0].stats_at(now)
    }

    #[test]
    fn single_packet_timing() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        // 100 Mbit/s, 1 ms propagation.
        let config = StageConfig { propagation: SimDuration::from_millis(1), ..raw_config(100.0) };
        let link = sim.add_component(PipeStage::new("link", config, sink));
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
        let stats = stats_at(&sim, link, sim.now());
        assert_eq!(stats.packets_out, 10);
        assert!((stats.utilization(SimDuration::from_millis(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counters_read_mid_run_speak_for_that_instant() {
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
        // All ten are admitted at t = 0; at 3.5 ms three have left and
        // the fourth is half sent but its service time is already booked.
        assert_eq!(sim.run_until(SimTime::from_micros(3_500)), RunResult::HorizonReached);
        let stats = stats_at(&sim, link, SimTime::from_micros(3_500));
        assert_eq!((stats.packets_in, stats.packets_out), (10, 3));
        assert_eq!(stats.bytes_out, 3 * 12_460);
        assert_eq!(stats.busy, SimDuration::from_millis(4));
        assert_eq!(stats.max_backlog_bytes, 125_000);
        // A departure exactly at the instant asked about has happened.
        let stats = stats_at(&sim, link, SimTime::from_millis(4));
        assert_eq!((stats.packets_out, stats.busy), (4, SimDuration::from_millis(5)));
    }

    #[test]
    fn finite_buffer_drops() {
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        // Fits 2 packets of 12500.
        let config = StageConfig { buffer_bytes: 30_000, ..raw_config(100.0) };
        let link = sim.add_component(PipeStage::new("link", config, sink));
        for seq in 0..10 {
            sim.send_in(
                SimDuration::ZERO,
                link,
                msg(Arrive(data_packet(seq, 12_500, SimTime::ZERO))),
            );
        }
        sim.run();
        let stats = stats_at(&sim, link, sim.now());
        assert_eq!(stats.packets_dropped, 8);
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
        let rate = crate::units::throughput(DataSize::from_bytes(9180), t);
        assert!(rate.bps() < Bandwidth::OC3.bps());
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
        let config = StageConfig { per_packet: SimDuration::from_millis(3), ..raw_config(100.0) };
        let link = sim.add_component(PipeStage::new("link", config, sink));
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
        sim.send_in(
            SimDuration::from_millis(1),
            link,
            msg(Arrive(data_packet(0, 12_500, SimTime::ZERO))),
        );
        // The old self-timer is one more unknown type now, and one that
        // lands mid-transmission must not cut the packet short.
        sim.send_in(SimDuration::from_micros(1_500), link, msg(TxDone));
        sim.send_in(SimDuration::from_millis(3), sink, msg(Stray));
        sim.run();
        assert_eq!(sim.component::<PipeStage>(link).dropped_msgs, 2);
        let s = sim.component::<Sink>(sink);
        assert_eq!(s.dropped_msgs, 1);
        assert_eq!(s.received.len(), 1);
        assert_eq!(s.received[0].0, SimTime::from_millis(2));
    }

    /// Full MSS segments, a short last segment and 40-byte ACKs in turn
    /// through one stage per medium: every departure instant and the
    /// counters at 25 cuts, folded into a digest pinned on the commit
    /// before a hop remembered its last packet size's wire time.
    #[test]
    fn alternating_sizes_keep_their_departures_on_every_medium() {
        let rate = Bandwidth::from_mbps(622.0);
        let media = [
            ("raw", Medium::Raw { rate }, 0xb575_f688_9079_01df),
            ("atm", Medium::Atm { cell_rate: rate }, 0xa90a_38a1_d5f0_7e2a),
            ("hippi", Medium::Hippi { channel: HippiChannel::default() }, 0x854b_7e03_37f4_32fe),
        ];
        for (name, medium, want) in media {
            let mut sim = Simulator::new();
            let sink = sim.add_component(Sink::default());
            let config = StageConfig {
                medium,
                per_packet: SimDuration::from_nanos(1_000),
                propagation: SimDuration::from_micros(7),
                buffer_bytes: u64::MAX,
            };
            let stage = sim.add_component(PipeStage::new(name, config, sink));
            for seq in 0..90u64 {
                let at = SimTime::from_micros(20 * seq);
                let pkt = match seq % 6 {
                    2 | 5 => Packet { kind: PacketKind::Ack, ..data_packet(seq, 40, at) },
                    4 => data_packet(seq, 2_760, at),
                    _ => data_packet(seq, 9_180, at),
                };
                sim.send_at(at, stage, msg(Arrive(pkt)));
            }
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0100_0000_01b3);
            for cut in (1..=25).map(|k| SimTime::from_micros(100 * k)) {
                sim.run_until(cut);
                let st = stats_at(&sim, stage, cut);
                for v in [st.packets_in, st.packets_out, st.bytes_out, st.max_backlog_bytes] {
                    fold(v);
                }
                fold(st.busy.as_nanos());
            }
            sim.run();
            let received = &sim.component::<Sink>(sink).received;
            assert_eq!(received.len(), 90, "{name}");
            for &(at, _, seq, payload) in received {
                fold(at.as_nanos());
                fold(seq);
                fold(payload);
            }
            assert_eq!(digest, want, "{name}: {digest:#018x}");
        }
    }

    #[test]
    fn fibre_propagation_juelich_sankt_augustin() {
        // ~100 km -> 500 us one way.
        let p = StageConfig::fibre_propagation(100.0);
        assert_eq!(p, SimDuration::from_micros(500));
    }

    // ---- differential tests against the two-event reference ----------

    /// What the harness needs of either stage implementation.
    trait Stage: Component {
        fn build(label: String, config: StageConfig, faults: Option<FaultInjector>) -> Self;
        fn set_next(&mut self, next: ComponentId);
        /// Counters after the simulator has handled every event up to `now`.
        fn counters(&self, now: SimTime) -> (StageStats, Option<FaultStats>, u64);
    }

    impl Stage for PipeStage {
        fn build(label: String, config: StageConfig, faults: Option<FaultInjector>) -> Self {
            let mut stage = PipeStage::new(label, config, ComponentId::placeholder());
            stage.hops[0].injector = faults;
            stage
        }
        fn set_next(&mut self, next: ComponentId) {
            self.next = next;
        }
        fn counters(&self, now: SimTime) -> (StageStats, Option<FaultStats>, u64) {
            let hop = &self.hops[0];
            (hop.stats_at(now), hop.injector.as_ref().map(|i| i.stats()), self.dropped_msgs)
        }
    }

    impl Stage for TwoEventStage {
        fn build(label: String, config: StageConfig, faults: Option<FaultInjector>) -> Self {
            let mut stage = TwoEventStage::new(label, config, ComponentId::placeholder());
            stage.injector = faults;
            stage
        }
        fn set_next(&mut self, next: ComponentId) {
            self.next = next;
        }
        fn counters(&self, _now: SimTime) -> (StageStats, Option<FaultStats>, u64) {
            (self.stats.clone(), self.injector.as_ref().map(|i| i.stats()), self.dropped_msgs)
        }
    }

    /// A chain of stages into a [`Sink`] and the packets fed to its head.
    struct Scenario {
        seed: u64,
        stages: Vec<(StageConfig, Option<FaultSpec>)>,
        /// `(arrival at the first stage, IP bytes)`, times nondecreasing.
        arrivals: Vec<(SimTime, u64)>,
    }

    /// In which order the chain's components are registered. The parent
    /// wirings are all downstream-first (each stage is built knowing its
    /// successor), which gives a stage a smaller id than its feeder.
    #[derive(Clone, Copy)]
    enum Wiring {
        DownstreamFirst,
        UpstreamFirst,
    }

    /// Everything observable about a run.
    #[derive(PartialEq, Debug)]
    struct Outcome {
        received: Vec<(SimTime, u64, u64, u64)>,
        stages: Vec<(StageStats, Option<FaultStats>, u64)>,
    }

    /// Wire the chain, run it to `horizon` (if any) and snapshot, then
    /// drain it and snapshot again; the spans come back sorted.
    fn run<S: Stage>(
        sc: &Scenario,
        wiring: Wiring,
        horizon: Option<SimTime>,
    ) -> (Option<Outcome>, Outcome, Vec<Span>) {
        let mut sim = Simulator::new();
        let spans = Observer::recording();
        sim.observe(&spans);
        let n = sc.stages.len();
        // Two-phase wiring either way: register in the chosen order
        // (slot `n` is the sink), then patch every `next`.
        let order: Vec<usize> = match wiring {
            Wiring::DownstreamFirst => (0..=n).rev().collect(),
            Wiring::UpstreamFirst => (0..=n).collect(),
        };
        let mut ids = vec![ComponentId::placeholder(); n + 1];
        for i in order {
            ids[i] = match sc.stages.get(i) {
                None => sim.add_component(Sink::default()),
                Some((config, faults)) => {
                    let label = format!("s{i}");
                    let inj = faults.clone().map(|f| FaultInjector::new(sc.seed, &label, f));
                    sim.add_component(S::build(label, config.clone(), inj))
                }
            };
        }
        for i in 0..n {
            sim.component_mut::<S>(ids[i]).set_next(ids[i + 1]);
        }
        for (seq, &(at, bytes)) in sc.arrivals.iter().enumerate() {
            sim.send_at(at, ids[0], msg(Arrive(data_packet(seq as u64, bytes, at))));
        }
        let outcome = |sim: &Simulator, now: SimTime| Outcome {
            received: sim.component::<Sink>(ids[n]).received.clone(),
            stages: ids[..n].iter().map(|&id| sim.component::<S>(id).counters(now)).collect(),
        };
        let cut = horizon.map(|h| {
            let _ = sim.run_until(h);
            outcome(&sim, h)
        });
        assert_eq!(sim.run(), RunResult::Drained);
        let end = outcome(&sim, sim.now());
        // A reference stage is dispatched twice per packet: the kernel's
        // own `dispatch` instants are not part of the comparison.
        let mut spans = spans.snapshot();
        spans.retain(|s| s.name != "dispatch");
        spans.sort_by(|a, b| {
            (&a.track, a.begin, a.end, &a.name).cmp(&(&b.track, b.begin, b.end, &b.name))
        });
        (cut, end, spans)
    }

    /// A random path of 1–8 hops: ATM, HiPPI and raw media, mostly at one
    /// rate (so departures tie across hops), zero and non-zero
    /// per-packet costs and propagations, finite buffers, and on about
    /// half the hops a seeded injector — i.i.d. loss, an outage, a
    /// Gilbert–Elliott burst chain, buffer degradation — fed 200 arrivals
    /// in same-instant bursts and at gaps of whole service times.
    fn scenario(seed: u64) -> Scenario {
        let mut rng = StreamRng::new(seed, "link-runs");
        let mut pick = |options: &[u64]| options[rng.below(options.len() as u64) as usize];
        let rates = [155, 622, 800];
        let base_rate = pick(&rates);
        let n = pick(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let stages: Vec<(StageConfig, Option<FaultSpec>)> = (0..n)
            .map(|_| {
                let rate =
                    Bandwidth::from_mbps(
                        if pick(&[0, 1, 2]) > 0 { base_rate } else { pick(&rates) } as f64,
                    );
                let medium = match pick(&[0, 1, 2]) {
                    0 => Medium::Atm { cell_rate: rate },
                    1 => Medium::Hippi { channel: HippiChannel::default() },
                    _ => Medium::Raw { rate },
                };
                let config = StageConfig {
                    medium,
                    per_packet: SimDuration::from_nanos(pick(&[0, 0, 1_000, 10_000])),
                    propagation: SimDuration::from_nanos(pick(&[0, 0, 7_000, 500_000])),
                    buffer_bytes: pick(&[u64::MAX, u64::MAX, 9_180, 20_000, 40_000]),
                };
                let window = |from_us: u64, to_us: u64| {
                    Window::new(SimTime::from_micros(from_us), SimTime::from_micros(to_us))
                };
                let loss = match pick(&[0, 1, 2]) {
                    0 => LossModel::None,
                    1 => LossModel::Iid { p: 0.05 },
                    _ => LossModel::GilbertElliott {
                        p_good_to_bad: 0.05,
                        p_bad_to_good: 0.3,
                        loss_good: 0.01,
                        loss_bad: 0.5,
                    },
                };
                let faults = (pick(&[0, 1]) == 0).then(|| FaultSpec {
                    outages: Schedule::new(vec![window(1_000 * pick(&[1, 2, 3]), 4_000)]),
                    loss,
                    degrade: vec![(window(5_000, 12_000), 0.5)],
                    ..FaultSpec::default()
                });
                (config, faults)
            })
            .collect();
        let uniform_size = pick(&[0, 1]) == 0;
        let head = &stages[0].0;
        let service =
            |bytes: u64| head.per_packet + head.medium.wire_time(DataSize::from_bytes(bytes));
        let mut at = SimTime::ZERO;
        let arrivals = (0..200)
            .map(|_| {
                let bytes = if uniform_size { 9_180 } else { pick(&[40, 1_500, 9_180]) };
                at += match pick(&[0, 1, 2, 3]) {
                    0 => SimDuration::ZERO,
                    1 => service(9_180) * pick(&[1, 2, 3]),
                    2 => service(bytes),
                    _ => SimDuration::from_nanos(pick(&[1, 700, 90_000, 400_000])),
                };
                (at, bytes)
            })
            .collect();
        Scenario { seed, stages, arrivals }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The one-event stage is the two-event stage, observed at the
        /// sink, in every counter, in every fault draw and in every span —
        /// at the end of a drained run and at a cut at a random instant.
        #[test]
        fn one_event_stage_matches_the_two_event_reference(seed in any::<u64>(), cut in 0.0f64..1.1) {
            let sc = scenario(seed);
            let last = sc.arrivals.last().expect("200 arrivals").0;
            let horizon = SimTime::from_nanos((last.as_nanos() as f64 * cut) as u64);
            let (ref_cut, ref_end, ref_spans) =
                run::<TwoEventStage>(&sc, Wiring::DownstreamFirst, Some(horizon));
            let (cut, end, spans) = run::<PipeStage>(&sc, Wiring::DownstreamFirst, Some(horizon));
            prop_assert_eq!(&cut, &ref_cut, "at the horizon {:?}", horizon);
            prop_assert_eq!(&end, &ref_end, "after the drained run");
            prop_assert_eq!(spans, ref_spans);
            // Stopping and resuming changes nothing, and neither does the
            // registration order (which does change the reference).
            prop_assert_eq!(&run::<PipeStage>(&sc, Wiring::DownstreamFirst, None).1, &end);
            prop_assert_eq!(&run::<PipeStage>(&sc, Wiring::UpstreamFirst, None).1, &end);
            // Conservation at every stage.
            for (stats, _, strays) in &end.stages {
                prop_assert_eq!(stats.packets_in, stats.packets_out);
                prop_assert_eq!(*strays, 0);
            }
        }
    }

    /// Five back-to-back packets through two equal-rate stages; the
    /// second buffers exactly one packet, so each arrival there falls on
    /// the nanosecond its predecessor departs.
    fn forced_ties() -> Scenario {
        let mut tight = raw_config(100.0);
        tight.buffer_bytes = 12_500;
        Scenario {
            seed: 0,
            stages: vec![(raw_config(100.0), None), (tight, None)],
            arrivals: vec![(SimTime::ZERO, 12_500); 5],
        }
    }

    #[test]
    fn registration_order_does_not_change_a_finite_buffer_chain() {
        let sc = forced_ties();
        let down = run::<PipeStage>(&sc, Wiring::DownstreamFirst, None).1;
        let up = run::<PipeStage>(&sc, Wiring::UpstreamFirst, None).1;
        // The tie rule: a packet departing at `t` has freed its buffer
        // for the arrival at `t`, so nothing is dropped.
        assert_eq!(down.received.len(), 5);
        assert_eq!(down.stages[1].0.packets_dropped, 0);
        assert_eq!(down.stages[1].0.max_backlog_bytes, 12_500);
        assert_eq!(up, down);
        // With a timer per departure the outcome hung on component ids:
        // registered upstream-first, the arrival was handled before the
        // `TxDone` of the same instant and met a full buffer.
        let ref_down = run::<TwoEventStage>(&sc, Wiring::DownstreamFirst, None).1;
        let ref_up = run::<TwoEventStage>(&sc, Wiring::UpstreamFirst, None).1;
        assert_eq!(ref_down, down);
        assert_eq!(ref_up.stages[1].0.packets_dropped, 2);
    }

    // ---- runs against one component per hop ---------------------------

    /// Everything observable about a chain of hops at one instant.
    #[derive(PartialEq, Debug)]
    struct Snapshot {
        /// Where a report's clock stands: the kernel's, or a hop's later
        /// arrival or departure ([`Hop::clock_by`]).
        clock: SimTime,
        /// Events still queued: one per packet in flight.
        pending: usize,
        received: Vec<(SimTime, u64, u64, u64)>,
        hops: Vec<(StageStats, Option<FaultStats>)>,
    }

    /// Wire `sc`'s hops into a [`Sink`] as runs ending at each of `ends`
    /// (ascending, the last `n`), or one component per hop — every chain's
    /// wiring before runs, the reference — when `ends` is empty; run to
    /// `horizon` and snapshot, then drain and snapshot again. The spans
    /// come back sorted, without the kernel's `dispatch`.
    fn run_hops(
        sc: &Scenario,
        ends: &[usize],
        horizon: SimTime,
    ) -> (Snapshot, Snapshot, Vec<Span>) {
        let mut sim = Simulator::new();
        let spans = Observer::with_capacity(1 << 20);
        sim.observe(&spans);
        let n = sc.stages.len();
        let hop = |i: usize| {
            let (config, faults) = &sc.stages[i];
            let mut hop = Hop::new(format!("s{i}"), config.clone());
            hop.injector = faults.clone().map(|f| FaultInjector::new(sc.seed, &hop.label, f));
            hop
        };
        let one_each: Vec<usize> = (1..=n).collect();
        let ends = if ends.is_empty() { &one_each } else { ends };
        // Downstream first, as `build_chain` wires: `(run id, its first hop)`.
        let sink = sim.add_component(Sink::default());
        let mut runs = vec![(sink, n)];
        for (k, &end) in ends.iter().enumerate().rev() {
            let from = if k == 0 { 0 } else { ends[k - 1] };
            let run = PipeStage::run((from..end).map(hop).collect(), runs[0].0, Some(horizon));
            runs.insert(0, (sim.add_component(run), from));
        }
        for (seq, &(at, bytes)) in sc.arrivals.iter().enumerate() {
            sim.send_at(at, runs[0].0, msg(Arrive(data_packet(seq as u64, bytes, at))));
        }
        let snapshot = |sim: &Simulator, bound: SimTime| {
            let stages =
                runs[..runs.len() - 1].iter().map(|&(id, _)| sim.component::<PipeStage>(id));
            let hops: Vec<&Hop> = stages.flat_map(|s| s.hops()).collect();
            let clock = hops.iter().filter_map(|h| h.clock_by(bound)).fold(sim.now(), SimTime::max);
            Snapshot {
                clock,
                pending: sim.events_pending(),
                received: sim.component::<Sink>(sink).received.clone(),
                hops: hops
                    .iter()
                    .map(|h| (h.stats_at(clock), h.injector.as_ref().map(|i| i.stats())))
                    .collect(),
            }
        };
        let _ = sim.run_until(horizon);
        let cut = snapshot(&sim, horizon);
        assert_eq!(sim.run(), RunResult::Drained);
        let end = snapshot(&sim, SimTime::MAX);
        let mut spans = spans.snapshot();
        spans.retain(|s| s.name != "dispatch");
        spans.sort_by(|a, b| {
            (&a.track, a.begin, a.end, &a.name).cmp(&(&b.track, b.begin, b.end, &b.name))
        });
        (cut, end, spans)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// A run of hops is its hops one component each, bit for bit:
        /// every hop's counters and injector stats, every delivery
        /// instant, every span, and the clock and pending events at a
        /// random horizon and after the drained run — as one run, and as
        /// two split at a random hop.
        #[test]
        fn a_run_matches_one_component_per_hop(
            seed in any::<u64>(),
            cut in 0.0f64..1.1,
            split in 0.0f64..1.0,
        ) {
            let sc = scenario(seed);
            let n = sc.stages.len();
            let last = sc.arrivals.last().expect("200 arrivals").0;
            let horizon = SimTime::from_nanos((last.as_nanos() as f64 * cut) as u64);
            let reference = run_hops(&sc, &[], horizon);
            prop_assert_eq!(&run_hops(&sc, &[n], horizon), &reference, "one run, horizon {:?}", horizon);
            let mid = 1 + ((n - 1) as f64 * split) as usize;
            if mid < n {
                prop_assert_eq!(&run_hops(&sc, &[mid, n], horizon), &reference, "split at {}", mid);
            }
            // Conservation at every hop, and a reference that delivers.
            let (_, end, _) = &reference;
            for (stats, _) in &end.hops {
                prop_assert_eq!(stats.packets_in, stats.packets_out);
            }
            prop_assert_eq!(end.pending, 0);
        }
    }

    #[test]
    fn a_run_keeps_the_tie_rule_and_resumes_past_its_horizon() {
        let sc = forced_ties();
        // The third packet reaches the second hop at 3 ms: a horizon just
        // before leaves it (and the two behind it) in flight as events.
        let horizon = SimTime::from_micros(2_999);
        let (cut, end, spans) = run_hops(&sc, &[2], horizon);
        assert_eq!((cut, end, spans), run_hops(&sc, &[], horizon));
        let (cut, end, _) = run_hops(&sc, &[2], horizon);
        assert_eq!(cut.received.len(), 1);
        assert_eq!(cut.clock, SimTime::from_millis(2));
        assert_eq!(end.received.len(), 5);
        assert_eq!(end.hops[1].0.packets_dropped, 0);
    }
}
