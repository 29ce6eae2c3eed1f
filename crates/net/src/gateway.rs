//! HiPPI↔ATM IP gateways — the paper's answer to supercomputers without
//! 622 Mbit/s ATM adapters.
//!
//! "The HiPPI networks of the Crays and the IBM SP2 were connected to the
//! ATM backbone using workstations as IP gateways. Currently, an SGI O200
//! and a Sun Ultra 30 in Jülich and a SUN E5000 in Sankt Augustin are
//! equipped with Fore 622 Mbit/s ATM adapters and Essential HiPPI
//! adapters."
//!
//! A gateway is a store-and-forward IP router between two media: it
//! receives a datagram on one interface, copies it through host memory,
//! and transmits on the other. Its contribution to a path is therefore a
//! hop whose service time is routing cost + memory copy + egress framing.

use std::collections::VecDeque;

use gtw_desim::component::{downcast, msg};
use gtw_desim::fault::Schedule;
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, Simulator};

use crate::link::Medium;
use crate::sdh::StmLevel;
use crate::tcp::HopModel;
use crate::units::{Bandwidth, DataSize};

/// A workstation IP gateway between HiPPI and ATM.
#[derive(Clone, Debug)]
pub struct Gateway {
    /// Name (e.g. "SGI O200 (FZJ)").
    pub label: &'static str,
    /// Egress framing (the side of the path being modelled).
    pub egress: Medium,
    /// Per-datagram routing/driver cost.
    pub per_packet: SimDuration,
    /// Memory-copy bandwidth of the workstation's I/O bus.
    pub copy_rate: Bandwidth,
}

impl Gateway {
    /// SGI O200 gateway (Jülich), HiPPI→ATM622 direction.
    pub fn sgi_o200_to_atm() -> Self {
        Gateway {
            label: "SGI O200 gateway (FZJ)",
            egress: Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() },
            per_packet: SimDuration::from_micros(80),
            copy_rate: Bandwidth::from_gbps(1.6),
        }
    }

    /// Sun Ultra 30 gateway (Jülich), HiPPI→ATM622 direction.
    pub fn sun_ultra30_to_atm() -> Self {
        Gateway {
            label: "Sun Ultra 30 gateway (FZJ)",
            egress: Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() },
            per_packet: SimDuration::from_micros(100),
            copy_rate: Bandwidth::from_gbps(1.2),
        }
    }

    /// SUN E5000 gateway (Sankt Augustin), ATM622→HiPPI direction.
    pub fn sun_e5000_to_hippi() -> Self {
        Gateway {
            label: "SUN E5000 gateway (GMD)",
            egress: Medium::Hippi { channel: crate::hippi::HippiChannel::default() },
            per_packet: SimDuration::from_micros(90),
            copy_rate: Bandwidth::from_gbps(2.0),
        }
    }

    /// The gateway's contribution as an analytic hop for a known datagram
    /// size: routing cost plus the store-and-forward copy of `mtu` bytes,
    /// charged as fixed per-packet time, with egress framing as the
    /// medium.
    pub fn hop_for_mtu(&self, propagation: SimDuration, mtu: u64) -> HopModel {
        let copy = self.copy_rate.time_for(DataSize::from_bytes(mtu));
        HopModel { medium: self.egress, per_packet: self.per_packet + copy, propagation }
    }
}

// ---- standby pair -----------------------------------------------------

/// A datagram handed to a [`GatewayPair`] for forwarding.
pub struct GwPacket {
    /// Sequence number, used by tests to check exactly-once delivery.
    pub seq: u64,
    /// Datagram size in bytes.
    pub bytes: u64,
}

/// Delivered by the pair to its downstream sink.
pub struct GwDelivered(pub GwPacket);

/// Kick-off: arm the health-probe timer.
pub struct StartProbes;

/// Take unit `0` (primary) or `1` (standby) down — the crash is silent;
/// the pair only reacts once enough health probes go unanswered.
pub struct GatewayDown(pub usize);

/// Bring unit `0` or `1` back up.
pub struct GatewayUp(pub usize);

struct ProbeTick;

struct GwTxDone {
    epoch: u64,
}

/// Sent by a pair in replicated-epoch mode to its owning domain's
/// proxy: "commit `epoch` for me". The domain answers with a
/// [`GatewayEpochGrant`] carrying the committed verdict.
pub struct GatewayEpochRequest {
    /// The requesting pair (reply address).
    pub pair: ComponentId,
    /// The fail-over epoch it wants to own.
    pub epoch: u64,
}

/// The owning domain's committed verdict on a
/// [`GatewayEpochRequest`]: granted iff the `GatewayEpoch` command
/// applied (was strictly above the recorded epoch).
pub struct GatewayEpochGrant {
    /// The epoch that was proposed.
    pub epoch: u64,
    /// True when this pair now owns the epoch.
    pub granted: bool,
}

/// A primary/standby gateway pair with health-probe failure detection.
///
/// Datagrams queue in the shared upstream buffer and are serviced by the
/// active unit (routing cost + memory copy). A silent failure of the
/// active unit is detected after `miss_threshold` consecutive unanswered
/// probes; failover then discards the one datagram that was mid-copy in
/// the dead unit (the bounded in-flight loss) and promotes the standby.
/// Queued datagrams survive — delivery is exactly-once for everything
/// not mid-copy at the instant of failure.
pub struct GatewayPair {
    units: [Gateway; 2],
    up: [bool; 2],
    active: usize,
    sink: ComponentId,
    /// Interval between health probes.
    pub probe_interval: SimDuration,
    /// Consecutive missed probes before the pair fails over.
    pub miss_threshold: u32,
    /// Upstream buffer capacity in datagrams.
    pub queue_cap: usize,
    queue: VecDeque<GwPacket>,
    /// True while the active unit is copying the queue head.
    transmitting: bool,
    epoch: u64,
    missed: u32,
    probing: bool,
    /// Replicated-epoch mode: the owning domain's proxy that must
    /// commit every epoch bump before the pair may fail over.
    arbiter: Option<ComponentId>,
    /// True between proposing an epoch and hearing its verdict; the
    /// pair forwards nothing while arbitrating, so a partitioned pair
    /// stalls instead of split-braining.
    arbitrating: bool,
    /// The epoch currently proposed to the arbiter.
    proposed_epoch: u64,
    /// Datagrams delivered downstream.
    pub forwarded: u64,
    /// Datagrams lost mid-copy at failover (bounded by one per event).
    pub inflight_lost: u64,
    /// Datagrams refused because the upstream buffer was full.
    pub queue_drops: u64,
    /// Completed failovers.
    pub failovers: u64,
    /// Health probes issued.
    pub probes_sent: u64,
    /// Probes the active unit failed to answer.
    pub probe_misses: u64,
    /// Completions from an already-failed unit, invalidated by epoch.
    pub dropped_stale_done: u64,
    /// Epoch proposals sent to the arbiter (including retries).
    pub epoch_requests: u64,
    /// Grants that no longer matched the proposal in flight.
    pub stale_grants: u64,
    /// Up/down commands naming a unit index other than 0 or 1.
    pub dropped_bad_unit: u64,
    /// Messages of an unknown type dropped instead of crashing the
    /// simulation.
    pub dropped_msgs: u64,
}

impl GatewayPair {
    /// New pair forwarding to `sink`; unit 0 starts active.
    pub fn new(primary: Gateway, standby: Gateway, sink: ComponentId) -> Self {
        GatewayPair {
            units: [primary, standby],
            up: [true, true],
            active: 0,
            sink,
            probe_interval: SimDuration::from_millis(10),
            miss_threshold: 3,
            queue_cap: 64,
            queue: VecDeque::new(),
            transmitting: false,
            epoch: 0,
            missed: 0,
            probing: false,
            arbiter: None,
            arbitrating: false,
            proposed_epoch: 0,
            forwarded: 0,
            inflight_lost: 0,
            queue_drops: 0,
            failovers: 0,
            probes_sent: 0,
            probe_misses: 0,
            dropped_stale_done: 0,
            epoch_requests: 0,
            stale_grants: 0,
            dropped_bad_unit: 0,
            dropped_msgs: 0,
        }
    }

    /// Builder: probe cadence and how many misses trigger failover.
    pub fn with_probes(mut self, interval: SimDuration, miss_threshold: u32) -> Self {
        assert!(miss_threshold >= 1);
        self.probe_interval = interval;
        self.miss_threshold = miss_threshold;
        self
    }

    /// Builder: route every epoch bump through `arbiter` (the owning
    /// domain's replicated proxy). The pair then forwards only under
    /// epochs its group has committed — the §4f split-brain fix.
    pub fn with_replicated_epochs(mut self, arbiter: ComponentId) -> Self {
        self.arbiter = Some(arbiter);
        self
    }

    /// Index (0 or 1) of the unit currently forwarding.
    pub fn active_unit(&self) -> usize {
        self.active
    }

    /// The current forwarding epoch (committed in replicated mode).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while a proposed epoch awaits its committed verdict.
    pub fn is_arbitrating(&self) -> bool {
        self.arbitrating
    }

    /// Time the active unit needs per datagram: routing plus the
    /// store-and-forward memory copy.
    fn service(&self, bytes: u64) -> SimDuration {
        let g = &self.units[self.active];
        g.per_packet + g.copy_rate.time_for(DataSize::from_bytes(bytes))
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.transmitting || !self.up[self.active] || self.arbitrating {
            return;
        }
        let Some(head) = self.queue.front() else { return };
        let dt = self.service(head.bytes);
        self.transmitting = true;
        ctx.timer_in(dt, msg(GwTxDone { epoch: self.epoch }));
    }

    /// Arm the next probe tick unless one is already pending. The timer
    /// is self-limiting: it stops re-arming once the pair is idle with a
    /// healthy active unit, so a finished scenario drains to quiescence.
    fn arm_probe(&mut self, ctx: &mut Ctx<'_>) {
        if !self.probing {
            self.probing = true;
            ctx.timer_in(self.probe_interval, msg(ProbeTick));
        }
    }

    fn fail_over(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(arbiter) = self.arbiter {
            // Replicated mode: nothing flips until the owning domain
            // commits the new epoch. Retried on the probe cadence until
            // a verdict arrives.
            if !self.arbitrating {
                self.arbitrating = true;
                self.proposed_epoch = self.epoch + 1;
            }
            self.missed = 0;
            self.epoch_requests += 1;
            let req = GatewayEpochRequest { pair: ctx.self_id(), epoch: self.proposed_epoch };
            ctx.send_in(SimDuration::ZERO, arbiter, msg(req));
            return;
        }
        self.complete_fail_over(ctx, self.epoch + 1);
    }

    /// Promote the standby under `epoch`, which invalidates the dead
    /// unit's pending completion: the one datagram mid-copy in it is
    /// gone, and everything still queued upstream survives.
    fn complete_fail_over(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        self.epoch = epoch;
        self.missed = 0;
        if self.transmitting {
            self.transmitting = false;
            self.queue.pop_front();
            self.inflight_lost += 1;
        }
        self.active = 1 - self.active;
        self.failovers += 1;
        self.try_start(ctx);
    }
}

impl Component for GatewayPair {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<GwPacket>() {
            let p = *downcast::<GwPacket>(m);
            if self.queue.len() >= self.queue_cap {
                self.queue_drops += 1;
                return;
            }
            self.queue.push_back(p);
            self.arm_probe(ctx);
            self.try_start(ctx);
        } else if m.is::<GwTxDone>() {
            let d = *downcast::<GwTxDone>(m);
            if d.epoch != self.epoch || !self.transmitting {
                // Completion from a unit that already failed: its
                // datagram was counted lost at the failover (or at the
                // crash itself, when the epoch bump awaits the log).
                self.dropped_stale_done += 1;
                return;
            }
            self.transmitting = false;
            if let Some(p) = self.queue.pop_front() {
                self.forwarded += 1;
                ctx.send_in(SimDuration::ZERO, self.sink, msg(GwDelivered(p)));
            }
            self.try_start(ctx);
        } else if m.is::<ProbeTick>() {
            let _ = downcast::<ProbeTick>(m);
            self.probing = false;
            self.probes_sent += 1;
            if self.up[self.active] {
                self.missed = 0;
            } else {
                self.missed += 1;
                self.probe_misses += 1;
                if self.missed >= self.miss_threshold && self.up[1 - self.active] {
                    self.fail_over(ctx);
                }
            }
            if !self.queue.is_empty() || self.transmitting || !self.up[self.active] {
                self.arm_probe(ctx);
            }
        } else if m.is::<StartProbes>() {
            let _ = downcast::<StartProbes>(m);
            self.arm_probe(ctx);
        } else if m.is::<GatewayDown>() {
            let GatewayDown(unit) = *downcast::<GatewayDown>(m);
            if unit < 2 {
                self.up[unit] = false;
                if unit == self.active && self.transmitting {
                    // The datagram mid-copy lives in the dead unit's
                    // memory: it is lost at the crash, and its pending
                    // completion must not fire. In replicated mode the
                    // epoch may only move through the log; the cleared
                    // `transmitting` flag invalidates the completion.
                    if self.arbiter.is_none() {
                        self.epoch += 1;
                    }
                    self.transmitting = false;
                    self.queue.pop_front();
                    self.inflight_lost += 1;
                }
                self.arm_probe(ctx);
            } else {
                self.dropped_bad_unit += 1;
            }
        } else if m.is::<GatewayUp>() {
            let GatewayUp(unit) = *downcast::<GatewayUp>(m);
            if unit < 2 {
                self.up[unit] = true;
                self.try_start(ctx);
            } else {
                self.dropped_bad_unit += 1;
            }
        } else if m.is::<GatewayEpochGrant>() {
            let g = *downcast::<GatewayEpochGrant>(m);
            if !self.arbitrating || g.epoch != self.proposed_epoch {
                self.stale_grants += 1;
                return;
            }
            self.arbitrating = false;
            if g.granted {
                // The domain committed our epoch: complete the
                // failover under it.
                self.complete_fail_over(ctx, g.epoch);
                self.arm_probe(ctx);
            } else {
                // Another requester owns that epoch; propose the next
                // one at the next detection round.
                self.proposed_epoch += 1;
                self.try_start(ctx);
                self.arm_probe(ctx);
            }
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        "gateway-pair"
    }
}

/// A sink recording the sequence numbers a [`GatewayPair`] delivers.
#[derive(Default)]
pub struct GatewaySink {
    /// Delivered sequence numbers, in arrival order.
    pub delivered: Vec<u64>,
    /// Stray messages dropped instead of crashing the simulation.
    pub dropped_msgs: u64,
}

impl Component for GatewaySink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<GwDelivered>() {
            let GwDelivered(p) = *downcast::<GwDelivered>(m);
            self.delivered.push(p.seq);
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        "gateway-sink"
    }
}

/// Deliver [`GatewayDown`]/[`GatewayUp`] to `pair` at the boundaries of
/// every outage window `schedule` holds for unit `unit` — the glue
/// between a deterministic fault schedule and the health-probe detector.
pub fn schedule_gateway_outages(
    sim: &mut Simulator,
    pair: ComponentId,
    unit: usize,
    schedule: &Schedule,
) {
    for w in schedule.windows() {
        sim.send_at(w.start, pair, msg(GatewayDown(unit)));
        sim.send_at(w.end, pair, msg(GatewayUp(unit)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::IpConfig;

    #[test]
    fn store_and_forward_charges_the_copy() {
        let g = Gateway::sgi_o200_to_atm();
        let sf = g.hop_for_mtu(SimDuration::ZERO, 65535);
        // Copy of 64 KiB at 1.6 Gbit/s ≈ 328 µs.
        let copy_us = sf.per_packet.as_micros_f64() - g.per_packet.as_micros_f64();
        assert!((copy_us - 327.7).abs() < 2.0, "{copy_us}");
    }

    #[test]
    fn gateway_is_not_the_wan_bottleneck_at_large_mtu() {
        // T3E -> gateway -> WAN: the gateway's ATM-622 egress (with copy)
        // must still beat the Cray NIC service so the end-to-end local
        // bottleneck stays at the host, as the paper's numbers imply.
        let ip = IpConfig::large_mtu();
        let seg = ip.segment_ip_bytes(ip.mss());
        let gw = Gateway::sgi_o200_to_atm().hop_for_mtu(SimDuration::ZERO, ip.mtu);
        let cray = crate::host::HostNic::cray_hippi().hop(SimDuration::ZERO);
        assert!(gw.service_time(seg) > SimDuration::ZERO);
        assert!(
            gw.service_time(seg) < cray.service_time(seg) * 2,
            "gateway absurdly slow: {:?}",
            gw.service_time(seg)
        );
    }

    #[test]
    fn presets_have_distinct_egress() {
        assert!(matches!(Gateway::sgi_o200_to_atm().egress, Medium::Atm { .. }));
        assert!(matches!(Gateway::sun_e5000_to_hippi().egress, Medium::Hippi { .. }));
    }

    use gtw_desim::fault::Window;
    use gtw_desim::SimTime;

    /// Pair + sink, probes every 1 ms, failover after 3 misses.
    fn pair(sim: &mut Simulator) -> (ComponentId, ComponentId) {
        let sink = sim.add_component(GatewaySink::default());
        let pair = sim.add_component(
            GatewayPair::new(Gateway::sgi_o200_to_atm(), Gateway::sun_ultra30_to_atm(), sink)
                .with_probes(SimDuration::from_millis(1), 3),
        );
        sim.send_at(SimTime::ZERO, pair, msg(StartProbes));
        (pair, sink)
    }

    /// One 8 KiB datagram every 500 µs.
    fn stream(sim: &mut Simulator, pair: ComponentId, n: u64) {
        for seq in 0..n {
            sim.send_at(SimTime::from_micros(500 * seq), pair, msg(GwPacket { seq, bytes: 8192 }));
        }
    }

    #[test]
    fn pair_forwards_in_order_without_failure() {
        let mut sim = Simulator::new();
        let (p, s) = pair(&mut sim);
        stream(&mut sim, p, 20);
        sim.run();
        let sink = sim.component::<GatewaySink>(s);
        assert_eq!(sink.delivered, (0..20).collect::<Vec<_>>());
        let gp = sim.component::<GatewayPair>(p);
        assert_eq!(gp.forwarded, 20);
        assert_eq!(gp.failovers, 0);
        assert_eq!(gp.active_unit(), 0);
        assert!(gp.probes_sent > 0);
    }

    #[test]
    fn silent_failure_fails_over_with_bounded_loss() {
        let mut sim = Simulator::new();
        let (p, s) = pair(&mut sim);
        stream(&mut sim, p, 40);
        // Primary dies silently at 5 ms and never comes back.
        sim.send_at(SimTime::from_millis(5), p, msg(GatewayDown(0)));
        sim.run();
        let gp = sim.component::<GatewayPair>(p);
        assert_eq!(gp.failovers, 1);
        assert_eq!(gp.active_unit(), 1);
        assert!(gp.inflight_lost <= 1, "at most the mid-copy datagram is lost");
        assert_eq!(gp.forwarded, 40 - gp.inflight_lost);
        // Detection took at least miss_threshold probe intervals.
        assert!(gp.probe_misses >= 3);
        let sink = sim.component::<GatewaySink>(s);
        let mut seen = sink.delivered.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), sink.delivered.len(), "exactly-once delivery");
        assert_eq!(sink.delivered.len() as u64 + gp.inflight_lost, 40);
    }

    #[test]
    fn outage_window_on_both_units_stalls_then_recovers() {
        let mut sim = Simulator::new();
        let (p, s) = pair(&mut sim);
        stream(&mut sim, p, 10);
        // Both units down from 2 ms; unit 1 recovers at 30 ms.
        let w0 = Schedule::new(vec![Window::new(SimTime::from_millis(2), SimTime::from_secs(60))]);
        let w1 =
            Schedule::new(vec![Window::new(SimTime::from_millis(2), SimTime::from_millis(30))]);
        schedule_gateway_outages(&mut sim, p, 0, &w0);
        schedule_gateway_outages(&mut sim, p, 1, &w1);
        sim.run();
        let gp = sim.component::<GatewayPair>(p);
        let sink = sim.component::<GatewaySink>(s);
        // Everything not mid-copy at the crash is delivered after the
        // standby comes back.
        assert_eq!(sink.delivered.len() as u64 + gp.inflight_lost, 10);
        assert!(gp.failovers >= 1);
        assert_eq!(gp.active_unit(), 1);
    }
}
