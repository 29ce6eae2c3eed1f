//! TCP bulk-transfer model: an analytic steady-state bound and an
//! event-driven sliding-window implementation.
//!
//! Two views of the same protocol:
//!
//! * [`TcpModel::steady_state_throughput`] — the closed-form bound
//!   `min(window / RTT, bottleneck segment rate)`, where the bottleneck
//!   rate accounts for per-hop framing (cell tax, HiPPI bursts) and
//!   per-packet host/gateway costs. This is the tool for sweeping MTU and
//!   window, reproducing the paper's 430/260 Mbit/s numbers.
//! * [`TcpSender`] / [`TcpReceiver`] — event-driven components running a
//!   go-back-N sliding window with slow start and delayed ACKs over a
//!   chain of [`PipeStage`](crate::link::PipeStage)s, validating the
//!   analytic bound in full simulation.

use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime};

use crate::ip::IpConfig;
use crate::link::{Arrive, Medium, Packet, PacketKind};
use crate::stats::FlowRecorder;
use crate::units::{Bandwidth, DataSize};

/// One hop of a path as seen by the analytic model.
#[derive(Clone, Copy, Debug)]
pub struct HopModel {
    /// Framing/serialization of this hop.
    pub medium: Medium,
    /// Fixed per-packet cost at this hop.
    pub per_packet: SimDuration,
    /// Propagation delay of this hop.
    pub propagation: SimDuration,
}

impl HopModel {
    /// Service time for one segment of the given IP size.
    pub fn service_time(&self, ip_bytes: DataSize) -> SimDuration {
        self.per_packet + self.medium.wire_time(ip_bytes)
    }
}

/// The analytic TCP model over a path of hops.
#[derive(Clone, Debug)]
pub struct TcpModel {
    /// Path hops, sender NIC first.
    pub hops: Vec<HopModel>,
    /// IP/MTU configuration.
    pub ip: IpConfig,
    /// Sender window in bytes (the paper-era socket buffer).
    pub window: DataSize,
}

impl TcpModel {
    /// Round-trip time for a full-size segment: forward store-and-forward
    /// latency plus the return of a 40-byte ACK (store-and-forward both
    /// ways).
    pub fn rtt(&self) -> SimDuration {
        let seg = self.ip.segment_ip_bytes(self.ip.mss());
        let ack = DataSize::from_bytes(40);
        let mut t = SimDuration::ZERO;
        for h in &self.hops {
            t += h.service_time(seg) + h.propagation;
        }
        for h in self.hops.iter().rev() {
            t += h.service_time(ack) + h.propagation;
        }
        t
    }

    /// The slowest hop's per-segment service time — the pipeline
    /// bottleneck. An empty path has none: zero, an unbounded rate.
    pub fn bottleneck_service(&self) -> SimDuration {
        let seg = self.ip.segment_ip_bytes(self.ip.mss());
        self.hops.iter().map(|h| h.service_time(seg)).max().unwrap_or(SimDuration::ZERO)
    }

    /// Steady-state goodput: `min(window/RTT, MSS/bottleneck_service)`.
    pub fn steady_state_throughput(&self) -> Bandwidth {
        let mss_bits = self.ip.mss() as f64 * 8.0;
        let pipe_rate = mss_bits / self.bottleneck_service().as_secs_f64();
        let window_rate = self.window.bits() as f64 / self.rtt().as_secs_f64();
        Bandwidth::from_bps(pipe_rate.min(window_rate))
    }

    /// The window needed to fill the pipe (bandwidth-delay product at the
    /// bottleneck rate), in bytes.
    pub fn required_window(&self) -> DataSize {
        let rate = self.ip.mss() as f64 / self.bottleneck_service().as_secs_f64();
        DataSize::from_bytes((rate * self.rtt().as_secs_f64()).ceil() as u64)
    }
}

/// Parameters for the event-driven sender.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Flow identifier.
    pub flow: u64,
    /// Total application bytes to move.
    pub total_bytes: u64,
    /// IP/MTU configuration.
    pub ip: IpConfig,
    /// Maximum window (socket buffer), bytes.
    pub window_bytes: u64,
    /// Initial congestion window, bytes (slow start starts here).
    pub initial_cwnd_bytes: u64,
    /// Base retransmission timeout.
    pub rto: SimDuration,
    /// Ceiling for the exponentially backed-off RTO: each expiry without
    /// progress doubles the timeout up to this cap; any advancing ACK
    /// resets it to `rto`.
    pub rto_max: SimDuration,
    /// Estimate the RTO from measured round-trip times (RFC 6298
    /// SRTT/RTTVAR with Karn's algorithm) instead of resetting to the
    /// fixed base `rto` on every advancing ACK. Off by default so
    /// existing experiment runs stay byte-identical; `rto` still seeds
    /// the timeout until the first valid sample.
    pub adaptive_rto: bool,
    /// Floor for the adaptive RTO (RFC 6298 uses 1 s; a gigabit testbed
    /// with sub-millisecond RTTs wants something far smaller).
    pub rto_min: SimDuration,
}

impl TcpConfig {
    /// A sensible default configuration for a bulk transfer.
    pub fn bulk(flow: u64, total_bytes: u64, ip: IpConfig, window_bytes: u64) -> Self {
        let rto = SimDuration::from_millis(200);
        TcpConfig {
            flow,
            total_bytes,
            ip,
            window_bytes,
            initial_cwnd_bytes: 4 * ip.mss(),
            rto,
            rto_max: rto * 8,
            adaptive_rto: false,
            rto_min: SimDuration::from_millis(10),
        }
    }

    /// Builder form: switch on the RFC 6298 adaptive timeout.
    pub fn with_adaptive_rto(mut self) -> Self {
        self.adaptive_rto = true;
        self
    }
}

/// Kick-off message for the sender.
pub struct StartTransfer;

struct RtoCheck {
    /// The cumulative-ack level when the timer was armed; if unchanged at
    /// expiry, retransmit.
    acked_at_arm: u64,
    /// When the timer was armed (for the `rto-wait` span on expiry).
    armed_at: SimTime,
}

/// Event-driven TCP sender (go-back-N, slow start, cumulative ACKs).
pub struct TcpSender {
    cfg: TcpConfig,
    /// First stage of the forward path.
    pub first_hop: ComponentId,
    /// Next byte offset to (re)send.
    next_byte: u64,
    /// Highest cumulative ACK received.
    acked: u64,
    cwnd: u64,
    started_at: Option<SimTime>,
    /// Completion time, set when the final ACK arrives.
    pub finished_at: Option<SimTime>,
    /// Go-back-N recovery events (RTO timeouts + fast retransmits).
    pub retransmits: u64,
    /// Recovery events triggered by three duplicate ACKs.
    pub fast_retransmits: u64,
    /// Recovery events triggered by RTO expiry without progress.
    pub rto_timeouts: u64,
    /// Data segments re-sent below the high-water mark (i.e. wire
    /// segments beyond the first copy).
    pub segments_retransmitted: u64,
    /// Total data segments sent (including retransmits).
    pub segments_sent: u64,
    /// Consecutive duplicate ACKs at the current cumulative level.
    dup_acks: u64,
    /// Current (possibly backed-off) retransmission timeout.
    rto_current: SimDuration,
    /// Highest byte offset ever sent; sends below this are retransmits.
    high_water: u64,
    /// Fast retransmit is inhibited until the cumulative ACK passes this
    /// level (the high-water mark at the last fast retransmit), so one
    /// loss burst triggers one recovery, not one per duplicate ACK.
    recover_until: u64,
    /// Whether an RTO watchdog timer is currently in flight. At most one
    /// is outstanding at any time; it is re-armed on expiry, not on every
    /// ACK (arming per ACK floods the event queue with O(acked segments)
    /// stale timers).
    rto_outstanding: bool,
    /// Total RTO watchdog arms (observability; compare against
    /// `segments_sent` to see the watchdog is not per-packet).
    pub rto_armed: u64,
    /// Smoothed RTT and RTT variation in nanoseconds (RFC 6298); `None`
    /// until the first valid sample.
    srtt: Option<(u64, u64)>,
    /// In-flight RTT probe: the cumulative-ACK level that completes the
    /// sampled segment and its send time. Karn's algorithm: one probe at
    /// a time, armed only on first transmissions, invalidated by any
    /// retransmission so an ambiguous (original-or-resend) ACK never
    /// pollutes the estimator.
    rtt_probe: Option<(u64, SimTime)>,
    /// Valid RTT samples folded into the estimator.
    pub rtt_samples: u64,
    /// Messages the sender could not act on (unknown type, a packet that
    /// is not an ACK): dropped and counted instead of aborting the run.
    /// Not part of any report.
    pub dropped_msgs: u64,
}

impl TcpSender {
    /// Create a sender that will push into `first_hop`.
    pub fn new(cfg: TcpConfig, first_hop: ComponentId) -> Self {
        TcpSender {
            cfg,
            first_hop,
            next_byte: 0,
            acked: 0,
            cwnd: cfg.initial_cwnd_bytes,
            started_at: None,
            finished_at: None,
            retransmits: 0,
            fast_retransmits: 0,
            rto_timeouts: 0,
            segments_retransmitted: 0,
            segments_sent: 0,
            dup_acks: 0,
            rto_current: cfg.rto,
            high_water: 0,
            recover_until: 0,
            rto_outstanding: false,
            rto_armed: 0,
            srtt: None,
            rtt_probe: None,
            rtt_samples: 0,
            dropped_msgs: 0,
        }
    }

    /// The retransmission timeout currently in effect (base RTO, or the
    /// backed-off value after expiries without progress).
    pub fn current_rto(&self) -> SimDuration {
        self.rto_current
    }

    /// Cumulative bytes acknowledged so far.
    pub fn bytes_acked(&self) -> u64 {
        self.acked
    }

    /// Elapsed transfer time, if finished.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished_at?.saturating_since(self.started_at?))
    }

    /// Goodput, if finished.
    pub fn goodput(&self) -> Option<Bandwidth> {
        let e = self.elapsed()?;
        Some(crate::units::throughput(DataSize::from_bytes(self.cfg.total_bytes), e))
    }

    fn window(&self) -> u64 {
        self.cwnd.min(self.cfg.window_bytes)
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let mss = self.cfg.ip.mss();
        while self.next_byte < self.cfg.total_bytes && self.next_byte - self.acked < self.window() {
            let payload = mss.min(self.cfg.total_bytes - self.next_byte);
            let pkt = Packet {
                flow: self.cfg.flow,
                seq: self.next_byte,
                ip_bytes: self.cfg.ip.segment_ip_bytes(payload),
                payload: DataSize::from_bytes(payload),
                created: ctx.now(),
                kind: PacketKind::Data,
            };
            let hop = self.first_hop;
            ctx.send_in(SimDuration::ZERO, hop, gtw_desim::component::msg(Arrive(pkt)));
            if self.next_byte < self.high_water {
                self.segments_retransmitted += 1;
            } else if self.cfg.adaptive_rto && self.rtt_probe.is_none() {
                // First transmission with no probe in flight: time it.
                self.rtt_probe = Some((self.next_byte + payload, ctx.now()));
            }
            self.next_byte += payload;
            self.high_water = self.high_water.max(self.next_byte);
            self.segments_sent += 1;
        }
        // Keep exactly one retransmission watchdog in flight while data
        // is outstanding; it re-arms itself on expiry.
        if self.acked < self.cfg.total_bytes && !self.rto_outstanding {
            self.rto_outstanding = true;
            self.rto_armed += 1;
            ctx.timer_in(
                self.rto_current,
                gtw_desim::component::msg(RtoCheck {
                    acked_at_arm: self.acked,
                    armed_at: ctx.now(),
                }),
            );
        }
    }

    /// Fold a measured round-trip time into the RFC 6298 estimator and
    /// recompute the timeout: `RTO = SRTT + 4 * RTTVAR`, clamped to
    /// `[rto_min, rto_max]`.
    fn take_rtt_sample(&mut self, r: SimDuration) {
        let r = r.as_nanos();
        let (srtt, rttvar) = match self.srtt {
            // First sample: SRTT = R, RTTVAR = R/2.
            None => (r, r / 2),
            // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'| (with the *old*
            // SRTT), then SRTT = 7/8 SRTT + 1/8 R'.
            Some((srtt, rttvar)) => {
                let rttvar = (3 * rttvar) / 4 + srtt.abs_diff(r) / 4;
                let srtt = (7 * srtt) / 8 + r / 8;
                (srtt, rttvar)
            }
        };
        self.srtt = Some((srtt, rttvar));
        self.rtt_samples += 1;
        self.rto_current = SimDuration::from_nanos(srtt.saturating_add(rttvar.saturating_mul(4)))
            .clamp(self.cfg.rto_min, self.cfg.rto_max);
    }
}

impl Component for TcpSender {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<StartTransfer>() {
            self.started_at = Some(ctx.now());
            self.pump(ctx);
        } else if m.is::<Arrive>() {
            let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
            if pkt.kind != PacketKind::Ack {
                self.dropped_msgs += 1;
                return;
            }
            if pkt.seq > self.acked {
                // Slow-start growth: one MSS per ACK that advances,
                // capped at the socket buffer.
                self.acked = pkt.seq;
                // During fast-retransmit recovery the cumulative ACK can
                // overtake the resend point once the original in-flight
                // segments fill the gap; never resend acked bytes.
                self.next_byte = self.next_byte.max(self.acked);
                self.cwnd = (self.cwnd + self.cfg.ip.mss()).min(self.cfg.window_bytes);
                // Fresh progress: duplicate count resets. The timeout
                // either resets to the fixed base, or — adaptive mode —
                // is recomputed only from an unambiguous sample (Karn:
                // the backed-off value sticks until a never-retransmitted
                // segment round-trips).
                self.dup_acks = 0;
                if self.cfg.adaptive_rto {
                    if let Some((probe_end, sent_at)) = self.rtt_probe {
                        if self.acked >= probe_end {
                            self.rtt_probe = None;
                            self.take_rtt_sample(ctx.now().saturating_since(sent_at));
                        }
                    }
                } else {
                    self.rto_current = self.cfg.rto;
                }
            } else if pkt.seq == self.acked && self.next_byte > self.acked {
                // Duplicate ACK while data is outstanding: the receiver
                // saw a gap. Three in a row trigger fast retransmit —
                // go-back-N from the cumulative ACK without waiting out
                // the RTO — unless a recovery is already under way.
                self.dup_acks += 1;
                if self.dup_acks >= 3 && self.acked >= self.recover_until {
                    ctx.span("tcp-sender", "fast-rexmit", ctx.now(), ctx.now());
                    self.fast_retransmits += 1;
                    self.retransmits += 1;
                    self.recover_until = self.high_water;
                    self.next_byte = self.acked;
                    // Karn: the resend makes any in-flight probe ambiguous.
                    self.rtt_probe = None;
                    // Multiplicative decrease, never below the initial
                    // window.
                    self.cwnd = (self.cwnd / 2).max(self.cfg.initial_cwnd_bytes);
                    self.dup_acks = 0;
                }
            }
            if self.acked >= self.cfg.total_bytes {
                if self.finished_at.is_none() {
                    self.finished_at = Some(ctx.now());
                    if let Some(started) = self.started_at {
                        ctx.span("tcp-sender", "transfer", started, ctx.now());
                    }
                }
                return;
            }
            self.pump(ctx);
        } else if let Ok(check) = m.downcast::<RtoCheck>() {
            let RtoCheck { acked_at_arm, armed_at } = *check;
            self.rto_outstanding = false;
            if self.finished_at.is_some() {
                return;
            }
            if self.acked > acked_at_arm {
                // Progress was made during this RTO interval; re-arm from
                // the current ack level without retransmitting.
                self.pump(ctx);
                return;
            }
            // Timeout: go-back-N from the last cumulative ACK. The whole
            // silent interval is an `rto-wait` span on the timeline.
            ctx.span("tcp-sender", "rto-wait", armed_at, ctx.now());
            self.retransmits += 1;
            self.rto_timeouts += 1;
            self.next_byte = self.acked;
            self.cwnd = self.cfg.initial_cwnd_bytes;
            self.dup_acks = 0;
            // Karn: the go-back-N resend invalidates any in-flight probe.
            self.rtt_probe = None;
            // Exponential backoff: each expiry without progress doubles
            // the timeout, up to the configured cap.
            self.rto_current = (self.rto_current * 2).min(self.cfg.rto_max);
            self.pump(ctx);
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        "tcp-sender"
    }
}

/// Event-driven TCP receiver: cumulative ACKs, delayed ACK every
/// `ack_every` in-order segments (immediately on out-of-order).
pub struct TcpReceiver {
    /// Flow this receiver serves.
    pub flow: u64,
    /// First stage of the reverse (ACK) path.
    pub ack_path: ComponentId,
    /// ACK coalescing factor (2 = classic delayed ACK).
    pub ack_every: u64,
    /// Total expected bytes (to always ACK the final segment promptly).
    pub total_bytes: u64,
    /// Next expected byte offset.
    pub expected: u64,
    /// Segments received in order.
    pub segments_in_order: u64,
    /// Out-of-order/duplicate segments observed.
    pub segments_out_of_order: u64,
    /// ACK packets emitted.
    pub acks_sent: u64,
    /// Per-flow one-way latency/throughput recorder: every in-order data
    /// segment contributes its `created -> arrival` latency, so traced
    /// runs can report p50/p90/p99 one-way latency per flow.
    pub recorder: FlowRecorder,
    /// Messages the receiver could not act on (unknown type, a packet
    /// that is not data): dropped and counted instead of aborting the
    /// run. Not part of any report.
    pub dropped_msgs: u64,
    since_last_ack: u64,
}

impl TcpReceiver {
    /// Create a receiver ACKing into `ack_path`.
    pub fn new(flow: u64, total_bytes: u64, ack_path: ComponentId) -> Self {
        TcpReceiver {
            flow,
            ack_path,
            ack_every: 2,
            total_bytes,
            expected: 0,
            segments_in_order: 0,
            segments_out_of_order: 0,
            acks_sent: 0,
            recorder: FlowRecorder::default(),
            dropped_msgs: 0,
            since_last_ack: 0,
        }
    }

    /// Contiguous in-order bytes delivered to the application.
    pub fn bytes_delivered(&self) -> u64 {
        self.expected
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>) {
        let ack = Packet {
            flow: self.flow,
            seq: self.expected,
            ip_bytes: DataSize::from_bytes(40),
            payload: DataSize::ZERO,
            created: ctx.now(),
            kind: PacketKind::Ack,
        };
        let path = self.ack_path;
        ctx.send_in(SimDuration::ZERO, path, gtw_desim::component::msg(Arrive(ack)));
        self.acks_sent += 1;
        self.since_last_ack = 0;
    }
}

impl Component for TcpReceiver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let pkt = match m.downcast::<Arrive>() {
            Ok(arrive) if arrive.0.kind == PacketKind::Data => arrive.0,
            _ => {
                self.dropped_msgs += 1;
                return;
            }
        };
        if pkt.seq == self.expected {
            self.recorder.record(pkt.created, ctx.now(), pkt.payload);
            self.expected += pkt.payload.bytes();
            self.segments_in_order += 1;
            self.since_last_ack += 1;
            let done = self.expected >= self.total_bytes;
            if self.since_last_ack >= self.ack_every || done {
                self.send_ack(ctx);
            }
        } else {
            // Gap or duplicate: immediate (dup-)ACK at the expected level.
            self.segments_out_of_order += 1;
            self.send_ack(ctx);
        }
    }

    fn name(&self) -> &str {
        "tcp-receiver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{PipeStage, StageConfig};
    use gtw_desim::component::msg;
    use gtw_desim::Simulator;

    /// Build sender -> stage -> receiver -> stage -> sender over symmetric
    /// raw links and run the transfer.
    fn run_transfer(
        rate: Bandwidth,
        prop: SimDuration,
        per_packet: SimDuration,
        cfg: TcpConfig,
    ) -> (Simulator, ComponentId) {
        let (mut sim, sender, _) = wire_transfer(rate, prop, per_packet, cfg);
        sim.run();
        (sim, sender)
    }

    /// The wiring of [`run_transfer`] with the start event queued, not
    /// yet run; returns `(sim, sender, receiver)`.
    fn wire_transfer(
        rate: Bandwidth,
        prop: SimDuration,
        per_packet: SimDuration,
        cfg: TcpConfig,
    ) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        // Placeholder wiring: create receiver and sender after stages by
        // two-phase init. Stage components need their `next` at
        // construction, so allocate in reverse with dummy targets and then
        // patch via component_mut.
        // Order: fwd_stage -> receiver -> rev_stage -> sender.
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate },
            per_packet,
            propagation: prop,
            buffer_bytes: u64::MAX,
        };
        // Create with placeholder next ids; patch afterwards.
        let fwd =
            sim.add_component(PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder()));
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        (sim, sender, receiver)
    }

    #[test]
    fn stray_messages_and_wrong_kind_packets_are_counted_not_fatal() {
        let cfg = TcpConfig::bulk(1, 1024 * 1024, IpConfig { mtu: 9180 }, 256 * 1024);
        let wire = || {
            let rate = Bandwidth::from_mbps(155.0);
            wire_transfer(rate, SimDuration::from_micros(250), SimDuration::ZERO, cfg)
        };
        let (mut clean, clean_sender, _) = wire();
        clean.run();
        let (mut sim, sender, receiver) = wire();
        struct Stray;
        let packet = |kind| {
            let size = DataSize::from_bytes(40);
            Arrive(Packet {
                flow: 1,
                seq: 1 << 40,
                ip_bytes: size,
                payload: size,
                created: SimTime::ZERO,
                kind,
            })
        };
        // Mid-transfer, each endpoint gets a message of a type it does
        // not know and a packet of the kind only its peer handles; the
        // bogus sequence number must neither ack nor deliver anything.
        let at = SimDuration::from_millis(10);
        sim.send_in(at, sender, msg(Stray));
        sim.send_in(at, sender, msg(packet(PacketKind::Data)));
        sim.send_in(at, receiver, msg(Stray));
        sim.send_in(at, receiver, msg(packet(PacketKind::Ack)));
        sim.run();
        let (s, r) = (sim.component::<TcpSender>(sender), sim.component::<TcpReceiver>(receiver));
        assert_eq!((s.dropped_msgs, r.dropped_msgs), (2, 2));
        let c = clean.component::<TcpSender>(clean_sender);
        assert_eq!(c.dropped_msgs, 0);
        assert!(c.finished_at.is_some() && c.finished_at > Some(SimTime::ZERO + at));
        assert_eq!(
            (s.finished_at, s.segments_sent, s.retransmits),
            (c.finished_at, c.segments_sent, 0)
        );
        assert_eq!((r.bytes_delivered(), r.acks_sent), (1024 * 1024, s.segments_sent.div_ceil(2)));
    }

    #[test]
    fn completes_and_matches_analytic_bound_pipe_limited() {
        let ip = IpConfig { mtu: 9180 };
        let total = 8 * 1024 * 1024;
        let window = 512 * 1024;
        let rate = Bandwidth::from_mbps(100.0);
        let prop = SimDuration::from_micros(500);
        let cfg = TcpConfig::bulk(1, total, ip, window);
        let (sim, sender) = run_transfer(rate, prop, SimDuration::ZERO, cfg);
        let s = sim.component::<TcpSender>(sender);
        let goodput = s.goodput().expect("transfer did not finish").mbps();
        let model = TcpModel {
            hops: vec![HopModel {
                medium: Medium::Raw { rate },
                per_packet: SimDuration::ZERO,
                propagation: prop,
            }],
            ip,
            window: DataSize::from_bytes(window),
        };
        let predicted = model.steady_state_throughput().mbps();
        assert!(
            (goodput - predicted).abs() / predicted < 0.1,
            "sim {goodput} vs model {predicted}"
        );
        assert_eq!(s.retransmits, 0);
    }

    #[test]
    fn window_limited_regime() {
        let ip = IpConfig { mtu: 9180 };
        // Long fat pipe with a tiny window.
        let rate = Bandwidth::from_mbps(622.0);
        let prop = SimDuration::from_millis(10);
        let window = 64 * 1024;
        let cfg = TcpConfig::bulk(2, 4 * 1024 * 1024, ip, window);
        let (sim, sender) = run_transfer(rate, prop, SimDuration::ZERO, cfg);
        let s = sim.component::<TcpSender>(sender);
        let goodput = s.goodput().unwrap();
        let model = TcpModel {
            hops: vec![HopModel {
                medium: Medium::Raw { rate },
                per_packet: SimDuration::ZERO,
                propagation: prop,
            }],
            ip,
            window: DataSize::from_bytes(window),
        };
        // Window/RTT is the binding constraint and is far below the line.
        assert!(goodput.mbps() < 40.0, "{goodput}");
        let predicted = model.steady_state_throughput().mbps();
        assert!(
            (goodput.mbps() - predicted).abs() / predicted < 0.15,
            "sim {goodput} vs model {predicted}"
        );
    }

    #[test]
    fn bigger_window_never_slower() {
        let ip = IpConfig { mtu: 9180 };
        let mut last = 0.0;
        for window in [32 * 1024u64, 128 * 1024, 512 * 1024, 2 * 1024 * 1024] {
            let cfg = TcpConfig::bulk(3, 4 * 1024 * 1024, ip, window);
            let (sim, sender) = run_transfer(
                Bandwidth::from_mbps(622.0),
                SimDuration::from_millis(2),
                SimDuration::ZERO,
                cfg,
            );
            let g = sim.component::<TcpSender>(sender).goodput().unwrap().mbps();
            assert!(g >= last * 0.99, "window {window}: {g} < {last}");
            last = g;
        }
    }

    #[test]
    fn larger_mtu_wins_with_per_packet_costs() {
        // With a fixed per-packet host cost, MTU drives throughput — the
        // paper's core argument for 64 KByte MTUs.
        let per_packet = SimDuration::from_micros(300);
        let mut results = Vec::new();
        for mtu in [1500u64, 9180, 65535] {
            let ip = IpConfig { mtu };
            let cfg = TcpConfig::bulk(4, 16 * 1024 * 1024, ip, 4 * 1024 * 1024);
            let (sim, sender) =
                run_transfer(Bandwidth::HIPPI, SimDuration::from_micros(10), per_packet, cfg);
            results.push(sim.component::<TcpSender>(sender).goodput().unwrap().mbps());
        }
        assert!(results[0] < results[1] && results[1] < results[2], "{results:?}");
        // Ethernet-MTU throughput collapses; large MTU stays near line.
        assert!(results[0] < 50.0, "{results:?}");
        assert!(results[2] > 400.0, "{results:?}");
    }

    #[test]
    fn rto_recovers_from_loss() {
        // A bottleneck with a very small buffer forces drops during slow
        // start; the transfer must still complete via go-back-N.
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(5, 1024 * 1024, ip, 1024 * 1024);
        let mut sim = Simulator::new();
        let stage_cfg = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(50.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(100),
            buffer_bytes: 64 * 1024, // tight buffer
        };
        let fwd =
            sim.add_component(PipeStage::new("fwd", stage_cfg.clone(), ComponentId::placeholder()));
        let rev = sim.add_component(PipeStage::new(
            "rev",
            StageConfig { buffer_bytes: u64::MAX, ..stage_cfg },
            ComponentId::placeholder(),
        ));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        let dropped = sim.component::<PipeStage>(fwd).hops()[0].stats_at(sim.now()).packets_dropped;
        if dropped > 0 {
            assert!(s.retransmits > 0, "drops occurred but no retransmits recorded");
        }
        let r = sim.component::<TcpReceiver>(receiver);
        assert_eq!(r.expected, 1024 * 1024);
    }

    #[test]
    fn rto_watchdog_is_single_not_per_ack() {
        // Regression: the sender used to arm a fresh RTO timer on every
        // pump (i.e. every ACK), flooding the queue with stale timers.
        // With the re-arm-on-expiry watchdog, timer arms are bounded by
        // transfer-time/RTO + retransmits, not by segment count.
        let ip = IpConfig { mtu: 9180 };
        let total = 8 * 1024 * 1024;
        let cfg = TcpConfig::bulk(6, total, ip, 512 * 1024);
        let rto = cfg.rto;
        let mut sim = Simulator::new();
        let observer = gtw_desim::Observer::recording();
        sim.observe(&observer);
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(100.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
            buffer_bytes: u64::MAX,
        };
        let fwd =
            sim.add_component(PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder()));
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        let s = sim.component::<TcpSender>(sender);
        let elapsed = s.elapsed().expect("transfer finished");
        let (segments_sent, retransmits, rto_armed) = (s.segments_sent, s.retransmits, s.rto_armed);
        assert!(segments_sent > 500, "test should move many segments");
        // Bound: one initial arm plus one re-arm per expired interval
        // plus one per retransmission burst.
        let max_arms = elapsed.as_secs_f64() / rto.as_secs_f64() + retransmits as f64 + 2.0;
        assert!((rto_armed as f64) <= max_arms, "rto_armed {rto_armed} exceeds bound {max_arms}");
        assert!(rto_armed < segments_sent / 10, "watchdog arms scale with segments");
        // Cross-check against the kernel's own timer accounting: the
        // sender's only self-timers are RTO watchdogs.
        assert_eq!(observer.timers_armed_by(sender), rto_armed);
    }

    #[test]
    fn analytic_required_window_fills_pipe() {
        let ip = IpConfig { mtu: 9180 };
        let model = TcpModel {
            hops: vec![HopModel {
                medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
                per_packet: SimDuration::ZERO,
                propagation: SimDuration::from_millis(5),
            }],
            ip,
            window: DataSize::from_kib(64),
        };
        let needed = model.required_window();
        let filled = TcpModel { window: needed, ..model.clone() };
        let tp = filled.steady_state_throughput().mbps();
        // With the BDP window the pipe rate is achieved (within rounding).
        let pipe = (ip.mss() as f64 * 8.0) / filled.bottleneck_service().as_secs_f64() / 1e6;
        assert!((tp - pipe).abs() / pipe < 0.01, "tp {tp} pipe {pipe}");
    }

    /// Deterministic single-loss harness: forwards every packet except
    /// the `n`-th *data* segment it sees (1-based), which it swallows.
    struct DropNth {
        next: ComponentId,
        n: u64,
        seen: u64,
    }

    impl Component for DropNth {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let Arrive(pkt) = *gtw_desim::component::downcast::<Arrive>(m);
            if pkt.kind == PacketKind::Data {
                self.seen += 1;
                if self.seen == self.n {
                    return;
                }
            }
            ctx.send_in(SimDuration::ZERO, self.next, msg(Arrive(pkt)));
        }
        fn name(&self) -> &str {
            "drop-nth"
        }
    }

    /// sender -> DropNth -> fwd stage -> receiver -> rev stage -> sender,
    /// with the `n`-th data segment deterministically lost.
    fn run_with_single_drop(cfg: TcpConfig, n: u64) -> (Simulator, ComponentId) {
        let mut sim = Simulator::new();
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
            buffer_bytes: u64::MAX,
        };
        let fwd =
            sim.add_component(PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder()));
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let dropper = sim.add_component(DropNth { next: fwd, n, seen: 0 });
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, dropper));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        (sim, sender)
    }

    #[test]
    fn fast_retransmit_fires_on_three_dup_acks() {
        // Drop one mid-window segment while plenty of later segments are
        // in flight: the receiver's immediate out-of-order ACKs give the
        // sender its three duplicates long before the 200 ms RTO, so the
        // loss is repaired by fast retransmit alone.
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(7, 4 * 1024 * 1024, ip, 1024 * 1024);
        let (sim, sender) = run_with_single_drop(cfg, 30);
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        assert_eq!(s.fast_retransmits, 1, "exactly one fast retransmit");
        assert_eq!(s.rto_timeouts, 0, "the RTO never fired");
        assert!(s.segments_retransmitted >= 1);
        assert_eq!(s.acked, cfg.total_bytes);
    }

    #[test]
    fn last_segment_loss_needs_the_rto_not_dup_acks() {
        // Drop the final data segment: nothing follows it, so no dup ACKs
        // ever arrive and only the retransmission timeout can repair it.
        let ip = IpConfig { mtu: 9180 };
        let total = 20 * ip.mss();
        let cfg = TcpConfig::bulk(8, total, ip, 1024 * 1024);
        let (sim, sender) = run_with_single_drop(cfg, 20);
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        assert_eq!(s.fast_retransmits, 0, "no third duplicate ever arrives");
        assert!(s.rto_timeouts >= 1);
        assert_eq!(s.acked, total);
    }

    #[test]
    fn rto_backs_off_exponentially_and_resets_on_fresh_ack() {
        use gtw_desim::fault::{FaultSpec, Schedule, Window};
        // A 1.5 s outage on the forward link swallows every retransmission
        // attempt: each expiry doubles the timeout (200 -> 400 -> 800 ms),
        // visible as successive `rto-wait` spans; the first ACK after the
        // link returns resets the RTO to its base value.
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(9, 8 * 1024 * 1024, ip, 512 * 1024);
        let mut sim = Simulator::new();
        let sink = gtw_desim::Observer::recording();
        sim.observe(&sink);
        let outage = FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(50),
                SimTime::ZERO + SimDuration::from_millis(1550),
            )]),
            ..FaultSpec::default()
        };
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
            buffer_bytes: u64::MAX,
        };
        let fwd = sim.add_component(
            PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder())
                .with_faults(gtw_desim::fault::FaultInjector::new(1, "fwd", outage)),
        );
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        assert!(s.rto_timeouts >= 2, "outage must force repeated timeouts: {}", s.rto_timeouts);
        // Successive silent intervals double (until the cap or the outage
        // end, whichever comes first).
        let waits: Vec<SimDuration> = sink
            .snapshot()
            .iter()
            .filter(|sp| sp.name == "rto-wait")
            .map(|sp| sp.end.saturating_since(sp.begin))
            .collect();
        assert!(waits.len() >= 2, "{waits:?}");
        for pair in waits.windows(2).take(2) {
            assert_eq!(pair[1], pair[0] * 2, "{waits:?}");
        }
        assert!(waits.iter().all(|&w| w <= cfg.rto_max), "{waits:?}");
        // The fresh post-outage ACK reset the backoff to the base RTO.
        assert_eq!(s.current_rto(), cfg.rto);
    }

    #[test]
    fn retransmissions_cover_every_injected_loss() {
        use gtw_desim::fault::{FaultInjector, FaultSpec, LossModel};
        // 2% i.i.d. loss on the forward link: go-back-N must resend at
        // least one segment per injected drop, and the transfer still
        // lands every byte exactly once.
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(10, 8 * 1024 * 1024, ip, 512 * 1024);
        let mut sim = Simulator::new();
        let spec = FaultSpec { loss: LossModel::Iid { p: 0.02 }, ..FaultSpec::default() };
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
            buffer_bytes: u64::MAX,
        };
        let fwd = sim.add_component(
            PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder())
                .with_faults(FaultInjector::new(11, "fwd", spec)),
        );
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        assert_eq!(s.acked, cfg.total_bytes);
        let lost =
            sim.component::<PipeStage>(fwd).hops()[0].injector.as_ref().unwrap().stats().loss;
        assert!(lost > 0, "2% over ~900 segments must hit something");
        assert!(
            s.segments_retransmitted >= lost,
            "{} resent < {} lost",
            s.segments_retransmitted,
            lost
        );
        let r = sim.component::<TcpReceiver>(receiver);
        assert_eq!(r.expected, cfg.total_bytes, "every byte delivered exactly once");
    }

    #[test]
    fn adaptive_rto_avoids_spurious_retransmits_on_long_rtt() {
        // A path whose RTT (~250 ms) exceeds the fixed 200 ms base RTO,
        // window-limited so every round has a silent gap of a full RTT.
        // The fixed sender resets its timeout to the too-short base on
        // every advancing ACK, times out every round, and resends data
        // that was never lost. The adaptive sender measures the path
        // once and stops: RTO jumps to SRTT + 4*RTTVAR >> RTT.
        let ip = IpConfig { mtu: 9180 };
        let total = 512 * 1024;
        // Two-segment initial window: a spurious go-back-N resend then
        // yields at most two duplicate ACKs, below the fast-retransmit
        // threshold, so the test isolates the watchdog behavior from
        // dup-ACK recovery.
        let mut base = TcpConfig::bulk(20, total, ip, 64 * 1024);
        base.initial_cwnd_bytes = 2 * ip.mss();
        let run = |cfg: TcpConfig| {
            let (sim, sender) = run_transfer(
                Bandwidth::from_mbps(622.0),
                SimDuration::from_millis(125),
                SimDuration::ZERO,
                cfg,
            );
            let s = sim.component::<TcpSender>(sender);
            assert!(s.finished_at.is_some(), "transfer stalled");
            assert_eq!(s.acked, total);
            (s.rto_timeouts, s.segments_retransmitted, s.current_rto(), s.rtt_samples)
        };
        let fixed = run(base);
        let adaptive = run(base.with_adaptive_rto());
        assert!(fixed.0 >= 2, "fixed RTO must fire spuriously more than once, got {}", fixed.0);
        assert!(fixed.1 > 0, "fixed RTO resends unlost data");
        // The adaptive sender may suffer at most the pre-sample expiries
        // of the (identical) initial timeout, then learns the path.
        assert!(adaptive.0 <= 1, "adaptive kept timing out: {}", adaptive.0);
        assert!(adaptive.0 < fixed.0);
        assert!(adaptive.1 < fixed.1);
        assert!(adaptive.3 > 0, "estimator never took a sample");
        // The learned timeout comfortably exceeds the actual RTT.
        assert!(adaptive.2 > SimDuration::from_millis(250), "learned RTO {:?}", adaptive.2);
    }

    #[test]
    fn adaptive_rto_changes_nothing_on_a_clean_short_path() {
        // No losses and RTT << RTO: the estimator runs but the watchdog
        // never fires, so throughput and wire behavior are unchanged.
        let ip = IpConfig { mtu: 9180 };
        let total = 4 * 1024 * 1024;
        let base = TcpConfig::bulk(21, total, ip, 512 * 1024);
        assert!(!base.adaptive_rto, "bulk defaults to the fixed RTO");
        let run = |cfg: TcpConfig| {
            let (sim, sender) = run_transfer(
                Bandwidth::from_mbps(622.0),
                SimDuration::from_micros(500),
                SimDuration::ZERO,
                cfg,
            );
            let s = sim.component::<TcpSender>(sender);
            (s.elapsed().unwrap(), s.segments_sent, s.retransmits)
        };
        let fixed = run(base);
        let adaptive = run(base.with_adaptive_rto());
        assert_eq!(fixed, adaptive);
        assert_eq!(fixed.2, 0);
    }

    #[test]
    fn adaptive_rto_keeps_exponential_backoff_under_karn() {
        use gtw_desim::fault::{FaultInjector, FaultSpec, Schedule, Window};
        // Same outage harness as the fixed-RTO backoff test, adaptive on.
        // The estimator locks onto the ~1 ms path quickly, so the outage
        // hits a sub-base RTO; each expiry without progress must still
        // double the timeout (Karn's backoff survives adaptation), and no
        // sample may be taken from the retransmitted segments.
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(22, 8 * 1024 * 1024, ip, 512 * 1024).with_adaptive_rto();
        let mut sim = Simulator::new();
        let sink = gtw_desim::Observer::recording();
        sim.observe(&sink);
        let outage = FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(50),
                SimTime::ZERO + SimDuration::from_millis(450),
            )]),
            ..FaultSpec::default()
        };
        let cfg_stage = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(622.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
            buffer_bytes: u64::MAX,
        };
        let fwd = sim.add_component(
            PipeStage::new("fwd", cfg_stage.clone(), ComponentId::placeholder())
                .with_faults(FaultInjector::new(1, "fwd", outage)),
        );
        let rev = sim.add_component(PipeStage::new("rev", cfg_stage, ComponentId::placeholder()));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, cfg.total_bytes, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
        sim.run();
        let s = sim.component::<TcpSender>(sender);
        assert!(s.finished_at.is_some(), "transfer stalled");
        assert!(s.rto_timeouts >= 2, "outage must force repeated timeouts: {}", s.rto_timeouts);
        let waits: Vec<SimDuration> = sink
            .snapshot()
            .iter()
            .filter(|sp| sp.name == "rto-wait")
            .map(|sp| sp.end.saturating_since(sp.begin))
            .collect();
        assert!(waits.len() >= 2, "{waits:?}");
        for pair in waits.windows(2).take(2) {
            assert_eq!(pair[1], pair[0] * 2, "{waits:?}");
        }
        assert!(waits.iter().all(|&w| w <= cfg.rto_max), "{waits:?}");
        // Post-outage the estimator is live again and the timeout sits in
        // the configured band — not stuck at the backed-off ceiling.
        assert!(s.rtt_samples > 0);
        assert!(s.current_rto() >= cfg.rto_min && s.current_rto() < cfg.rto_max);
    }
}
