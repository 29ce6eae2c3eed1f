//! Flow/link statistics collected during event-driven runs, and the
//! [`StatsRegistry`] that aggregates them into a machine-readable
//! [`RunReport`].
//!
//! Components keep their own counters ([`StageStats`],
//! [`SwitchStats`](crate::switch::SwitchStats), the TCP endpoint fields);
//! the registry records *which* components participate in an experiment
//! so that, after the run, one call walks the simulator and snapshots
//! every probe into a single report with a JSON rendering. Registration
//! is free during wiring and costs nothing during the run — collection
//! happens once, afterwards.

use gtw_desim::fault::FaultStats;
use gtw_desim::{ComponentId, Histogram, Json, MetricsRegistry, SimDuration, SimTime, Simulator};

use crate::units::{Bandwidth, DataSize};

/// Counters kept by every pipeline stage (link, gateway, NIC).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Packets accepted for transmission.
    pub packets_in: u64,
    /// Packets delivered downstream.
    pub packets_out: u64,
    /// Packets dropped on buffer overflow.
    pub packets_dropped: u64,
    /// Packets dropped by an injected link outage.
    pub dropped_outage: u64,
    /// Packets dropped by injected i.i.d. loss.
    pub dropped_loss: u64,
    /// Packets dropped by injected burst (bad-state) loss.
    pub dropped_burst: u64,
    /// Payload bytes delivered downstream.
    pub bytes_out: u64,
    /// Peak queue backlog in bytes.
    pub max_backlog_bytes: u64,
    /// Cumulative time the transmitter was busy, for utilization.
    pub busy: SimDuration,
}

impl StageStats {
    /// Utilization over the elapsed span.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / elapsed.as_secs_f64()
    }

    /// Total packets removed by injected faults (per-cause counters).
    pub fn faults_injected(&self) -> u64 {
        self.dropped_outage + self.dropped_loss + self.dropped_burst
    }

    /// Loss ratio among accepted + dropped packets (buffer overflow and
    /// injected faults both count as drops).
    pub fn loss_ratio(&self) -> f64 {
        let dropped = self.packets_dropped + self.faults_injected();
        let total = self.packets_in + dropped;
        if total == 0 {
            return 0.0;
        }
        dropped as f64 / total as f64
    }
}

/// A per-flow one-way latency/throughput recorder.
#[derive(Debug, Default, Clone)]
pub struct FlowRecorder {
    /// Packets observed.
    pub packets: u64,
    /// Payload bytes observed.
    pub bytes: u64,
    /// First packet arrival time.
    pub first_at: Option<SimTime>,
    /// Last packet arrival time.
    pub last_at: Option<SimTime>,
    /// Sum of one-way latencies (for the mean).
    pub latency_sum: SimDuration,
    /// Minimum one-way latency seen.
    pub latency_min: Option<SimDuration>,
    /// Maximum one-way latency seen.
    pub latency_max: Option<SimDuration>,
    /// Log-bucketed latency distribution (p50/p90/p99 come from here).
    pub hist: Histogram,
    /// Sum of |latency deltas| between consecutive packets, for jitter.
    jitter_sum: SimDuration,
    last_latency: Option<SimDuration>,
}

impl FlowRecorder {
    /// Record a packet that was created at `sent` and arrived at `now`
    /// carrying `payload` bytes.
    pub fn record(&mut self, sent: SimTime, now: SimTime, payload: DataSize) {
        self.packets += 1;
        self.bytes += payload.bytes();
        let lat = now.saturating_since(sent);
        self.latency_sum += lat;
        self.latency_min = Some(self.latency_min.map_or(lat, |m| m.min(lat)));
        self.latency_max = Some(self.latency_max.map_or(lat, |m| m.max(lat)));
        self.hist.record(lat);
        if let Some(prev) = self.last_latency {
            self.jitter_sum += if lat >= prev { lat - prev } else { prev - lat };
        }
        self.last_latency = Some(lat);
        if self.first_at.is_none() {
            self.first_at = Some(now);
        }
        self.last_at = Some(now);
    }

    /// Mean one-way latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.packets == 0 {
            return SimDuration::ZERO;
        }
        self.latency_sum / self.packets
    }

    /// Jitter: mean absolute latency delta between consecutive packets
    /// (the RFC 3550 notion, without the exponential smoothing).
    pub fn jitter(&self) -> SimDuration {
        if self.packets < 2 {
            return SimDuration::ZERO;
        }
        self.jitter_sum / (self.packets - 1)
    }

    /// Goodput between first and last arrival (payload bytes / span).
    pub fn goodput(&self) -> Bandwidth {
        match (self.first_at, self.last_at) {
            (Some(a), Some(b)) if b > a => {
                crate::units::throughput(DataSize::from_bytes(self.bytes), b - a)
            }
            _ => Bandwidth::from_bps(0.0),
        }
    }

    /// JSON view: counters, latency spread (min/mean/max/jitter), the
    /// bucketed distribution, and goodput.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("packets", Json::from(self.packets)),
            ("bytes", Json::from(self.bytes)),
            ("mean_latency_s", Json::from(self.mean_latency().as_secs_f64())),
            ("latency_min_s", self.latency_min.map_or(Json::Null, |m| Json::from(m.as_secs_f64()))),
            ("latency_max_s", self.latency_max.map_or(Json::Null, |m| Json::from(m.as_secs_f64()))),
            ("jitter_s", Json::from(self.jitter().as_secs_f64())),
            ("latency", self.hist.to_json()),
            ("goodput_mbps", Json::from(self.goodput().mbps())),
        ])
    }
}

/// What kind of component a registered probe points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbeKind {
    Stage(usize),
    Switch,
    TcpSender,
    TcpReceiver,
    Sink,
    Policer,
    Demux,
}

/// Records which components of a wired-up simulation should appear in the
/// post-run [`RunReport`].
#[derive(Default, Debug, Clone)]
pub struct StatsRegistry {
    probes: Vec<(ComponentId, ProbeKind)>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a one-hop [`PipeStage`](crate::link::PipeStage).
    pub fn add_stage(&mut self, id: ComponentId) {
        self.add_hop(id, 0);
    }

    /// Register hop `hop` of a [`PipeStage`](crate::link::PipeStage) run.
    pub(crate) fn add_hop(&mut self, id: ComponentId, hop: usize) {
        self.probes.push((id, ProbeKind::Stage(hop)));
    }

    /// Register an [`AtmSwitch`](crate::switch::AtmSwitch).
    pub fn add_switch(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::Switch));
    }

    /// Register a [`TcpSender`](crate::tcp::TcpSender).
    pub fn add_tcp_sender(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::TcpSender));
    }

    /// Register a [`TcpReceiver`](crate::tcp::TcpReceiver).
    pub fn add_tcp_receiver(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::TcpReceiver));
    }

    /// Register a [`Sink`](crate::link::Sink).
    pub fn add_sink(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::Sink));
    }

    /// Register a [`UniPolicer`](crate::policing::UniPolicer).
    pub fn add_policer(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::Policer));
    }

    /// Register a [`FlowDemux`](crate::stripe::FlowDemux).
    pub fn add_demux(&mut self, id: ComponentId) {
        self.probes.push((id, ProbeKind::Demux));
    }

    /// Number of registered probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether no probes are registered.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Snapshot every registered probe out of `sim`.
    pub fn collect(&self, sim: &Simulator) -> RunReport {
        self.collect_until(sim, sim.now())
    }

    /// [`collect`](Self::collect) after `run_until(horizon)`. A hop's
    /// departures, and its arrivals inside a run, are not events, so the
    /// clock may have stopped short of the last one inside the horizon;
    /// the report speaks for that instant, as it did when each was one.
    pub(crate) fn collect_until(&self, sim: &Simulator, horizon: SimTime) -> RunReport {
        let hop = |id, k| &sim.component::<crate::link::PipeStage>(id).hops()[k];
        let now = self
            .probes
            .iter()
            .filter_map(|&(id, kind)| match kind {
                ProbeKind::Stage(k) => hop(id, k).clock_by(horizon),
                _ => None,
            })
            .fold(sim.now(), SimTime::max);
        let mut report = RunReport {
            elapsed: now.saturating_since(SimTime::ZERO),
            events_processed: sim.events_processed(),
            ..RunReport::default()
        };
        for &(id, kind) in &self.probes {
            let label = sim.component_name(id).to_string();
            match kind {
                ProbeKind::Stage(k) => {
                    let st = hop(id, k);
                    let stats = st.stats_at(now);
                    report.hops.push(HopReport {
                        label: st.label.clone(),
                        medium: st.config.medium.kind_label(),
                        faults: st.injector.as_ref().map(|i| i.stats()),
                        per_packet: st.config.per_packet,
                        propagation: st.config.propagation,
                        propagation_total: st.config.propagation * stats.packets_out,
                        stats,
                    });
                }
                ProbeKind::Switch => {
                    let sw = sim.component::<crate::switch::AtmSwitch>(id);
                    report.switches.push(SwitchReport {
                        label,
                        stats: sw.stats.clone(),
                        faults: sw.injector.as_ref().map(|i| i.stats()),
                        dropped_msgs: sw.dropped_msgs,
                    });
                }
                ProbeKind::TcpSender => {
                    let s = sim.component::<crate::tcp::TcpSender>(id);
                    report.senders.push(SenderReport {
                        label,
                        bytes_acked: s.bytes_acked(),
                        segments_sent: s.segments_sent,
                        retransmits: s.retransmits,
                        fast_retransmits: s.fast_retransmits,
                        rto_timeouts: s.rto_timeouts,
                        segments_retransmitted: s.segments_retransmitted,
                        rto_armed: s.rto_armed,
                        elapsed: s.elapsed(),
                        goodput: s.goodput(),
                    });
                }
                ProbeKind::TcpReceiver => {
                    let r = sim.component::<crate::tcp::TcpReceiver>(id);
                    report.receivers.push(ReceiverReport {
                        label,
                        bytes_delivered: r.bytes_delivered(),
                        segments_in_order: r.segments_in_order,
                        segments_out_of_order: r.segments_out_of_order,
                        acks_sent: r.acks_sent,
                        recorder: r.recorder.clone(),
                    });
                }
                ProbeKind::Sink => {
                    let s = sim.component::<crate::link::Sink>(id);
                    report.flows.push(FlowReport { label, recorder: s.recorder.clone() });
                }
                ProbeKind::Policer => {
                    let p = sim.component::<crate::policing::UniPolicer>(id);
                    report.policers.push(PolicerReport {
                        label,
                        per_vc: p.per_vc_counters(),
                        unpoliced: p.unpoliced,
                        dropped_msgs: p.dropped_msgs,
                    });
                }
                ProbeKind::Demux => {
                    let d = sim.component::<crate::stripe::FlowDemux>(id);
                    report.demuxes.push(DemuxReport {
                        label,
                        routed: d.routed(),
                        unroutable: d.unroutable,
                    });
                }
            }
        }
        report
    }
}

/// Per-hop snapshot: the stage's counters plus its configured costs and
/// derived totals (cumulative serialization/service time is
/// `stats.busy`; cumulative propagation is per-packet propagation times
/// packets forwarded).
#[derive(Debug, Clone)]
pub struct HopReport {
    /// Stage label.
    pub label: String,
    /// Medium kind ("atm" / "hippi" / "raw").
    pub medium: &'static str,
    /// The stage's counters.
    pub stats: StageStats,
    /// Ground-truth counters of the stage's fault injector, if one is
    /// installed. Conservation: these must equal the per-cause
    /// `dropped_*` fields of `stats`.
    pub faults: Option<FaultStats>,
    /// Configured fixed per-packet cost.
    pub per_packet: SimDuration,
    /// Configured propagation delay.
    pub propagation: SimDuration,
    /// Total propagation time charged (packets_out × propagation).
    pub propagation_total: SimDuration,
}

/// Per-switch snapshot.
#[derive(Debug, Clone)]
pub struct SwitchReport {
    /// Switch label.
    pub label: String,
    /// The switch's counters.
    pub stats: crate::switch::SwitchStats,
    /// Ground-truth counters of the switch's fault injector, if any.
    pub faults: Option<FaultStats>,
    /// Stray messages the switch dropped instead of crashing.
    pub dropped_msgs: u64,
}

/// TCP sender snapshot.
#[derive(Debug, Clone)]
pub struct SenderReport {
    /// Component label.
    pub label: String,
    /// Cumulative bytes acknowledged.
    pub bytes_acked: u64,
    /// Data segments sent (incl. retransmits).
    pub segments_sent: u64,
    /// Go-back-N retransmission events.
    pub retransmits: u64,
    /// Recovery events triggered by three duplicate ACKs.
    pub fast_retransmits: u64,
    /// Recovery events triggered by RTO expiry without progress.
    pub rto_timeouts: u64,
    /// Data segments re-sent below the high-water mark.
    pub segments_retransmitted: u64,
    /// RTO watchdog arms.
    pub rto_armed: u64,
    /// Transfer duration, if finished.
    pub elapsed: Option<SimDuration>,
    /// Goodput, if finished.
    pub goodput: Option<Bandwidth>,
}

/// TCP receiver snapshot.
#[derive(Debug, Clone)]
pub struct ReceiverReport {
    /// Component label.
    pub label: String,
    /// Contiguous in-order bytes delivered.
    pub bytes_delivered: u64,
    /// In-order segments.
    pub segments_in_order: u64,
    /// Out-of-order/duplicate segments.
    pub segments_out_of_order: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
    /// Per-flow one-way latency recorder (fed by data segments).
    pub recorder: FlowRecorder,
}

/// Sink flow snapshot.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Component label.
    pub label: String,
    /// The flow recorder.
    pub recorder: FlowRecorder,
}

/// UNI policer snapshot: verdict counters attributed per virtual
/// circuit, in VC order.
#[derive(Debug, Clone)]
pub struct PolicerReport {
    /// Policer label.
    pub label: String,
    /// `(vpi, vci, conforming, tagged, discarded)` per contracted VC.
    pub per_vc: Vec<(u8, u16, u64, u64, u64)>,
    /// Cells forwarded for VCs without a contract.
    pub unpoliced: u64,
    /// Stray messages the policer dropped instead of crashing.
    pub dropped_msgs: u64,
}

/// Flow-demultiplexer snapshot: per-stripe packet attribution at the
/// point where a shared chain fans back out into per-flow endpoints.
#[derive(Debug, Clone)]
pub struct DemuxReport {
    /// Demux label.
    pub label: String,
    /// `(flow, packets routed)` per registered route, in route order.
    pub routed: Vec<(u64, u64)>,
    /// Packets dropped for want of a route.
    pub unroutable: u64,
}

/// A full machine-readable run report.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Virtual time at collection.
    pub elapsed: SimDuration,
    /// Kernel events processed.
    pub events_processed: u64,
    /// Registered pipeline stages, in registration order.
    pub hops: Vec<HopReport>,
    /// Registered ATM switches.
    pub switches: Vec<SwitchReport>,
    /// Registered TCP senders.
    pub senders: Vec<SenderReport>,
    /// Registered TCP receivers.
    pub receivers: Vec<ReceiverReport>,
    /// Registered sinks.
    pub flows: Vec<FlowReport>,
    /// Registered UNI policers.
    pub policers: Vec<PolicerReport>,
    /// Registered flow demultiplexers (striped transfers only). Empty —
    /// and absent from the JSON — for single-stream wirings.
    pub demuxes: Vec<DemuxReport>,
    /// Per-shard kernel metrics registries, when the run was executed on
    /// a [`ShardedSimulator`](gtw_desim::ShardedSimulator) under a
    /// recording [`Observer`](gtw_desim::Observer). Empty (and absent
    /// from the JSON) otherwise.
    pub kernel_metrics: Vec<MetricsRegistry>,
}

impl RunReport {
    /// Total faults injected across all registered hops and switches.
    pub fn faults_injected(&self) -> u64 {
        self.hops.iter().map(|h| h.stats.faults_injected()).sum::<u64>()
            + self.switches.iter().map(|s| s.stats.faults_injected()).sum::<u64>()
    }

    /// JSON rendering of the whole report.
    ///
    /// Fault-related keys (`faults`, `fast_retransmits`, ...) appear
    /// only when the corresponding counters are nonzero, so a run with
    /// no fault plan installed renders byte-identically to a build
    /// without the fault layer.
    pub fn to_json(&self) -> Json {
        let elapsed = self.elapsed.as_secs_f64();
        let hops: Vec<Json> = self
            .hops
            .iter()
            .map(|h| {
                let mut o = Json::obj([
                    ("label", Json::from(h.label.as_str())),
                    ("medium", Json::from(h.medium)),
                    ("packets_in", Json::from(h.stats.packets_in)),
                    ("packets_out", Json::from(h.stats.packets_out)),
                    ("packets_dropped", Json::from(h.stats.packets_dropped)),
                    ("bytes_out", Json::from(h.stats.bytes_out)),
                    ("max_backlog_bytes", Json::from(h.stats.max_backlog_bytes)),
                    ("per_packet_s", Json::from(h.per_packet.as_secs_f64())),
                    ("propagation_s", Json::from(h.propagation.as_secs_f64())),
                    ("service_total_s", Json::from(h.stats.busy.as_secs_f64())),
                    ("propagation_total_s", Json::from(h.propagation_total.as_secs_f64())),
                    ("utilization", Json::from(h.stats.utilization(self.elapsed))),
                    ("loss_ratio", Json::from(h.stats.loss_ratio())),
                ]);
                if h.stats.faults_injected() > 0 {
                    o.push(
                        "faults",
                        Json::obj([
                            ("outage", Json::from(h.stats.dropped_outage)),
                            ("loss", Json::from(h.stats.dropped_loss)),
                            ("burst", Json::from(h.stats.dropped_burst)),
                        ]),
                    );
                }
                o
            })
            .collect();
        let switches: Vec<Json> = self
            .switches
            .iter()
            .map(|s| {
                let mut o = Json::obj([
                    ("label", Json::from(s.label.as_str())),
                    ("cells_in", Json::from(s.stats.cells_in())),
                    ("switched", Json::from(s.stats.switched)),
                ]);
                // Every discard class follows the same convention: its
                // key appears only when the counter fired, so a clean
                // run renders byte-identically to a build predating the
                // counter.
                for (key, count) in [
                    ("unroutable", s.stats.unroutable),
                    ("overflow", s.stats.overflow),
                    ("hec_discard", s.stats.hec_discard),
                    ("clp_discard", s.stats.clp_discard),
                    ("epd_discard", s.stats.epd_discard),
                    ("ppd_discard", s.stats.ppd_discard),
                    ("dropped_msgs", s.dropped_msgs),
                ] {
                    if count > 0 {
                        o.push(key, Json::from(count));
                    }
                }
                if s.stats.faults_injected() > 0 {
                    o.push(
                        "faults",
                        Json::obj([
                            ("outage", Json::from(s.stats.fault_outage)),
                            ("loss", Json::from(s.stats.fault_loss)),
                            ("burst", Json::from(s.stats.fault_burst)),
                            ("hec", Json::from(s.stats.fault_hec)),
                        ]),
                    );
                }
                o
            })
            .collect();
        let senders: Vec<Json> = self
            .senders
            .iter()
            .map(|s| {
                let mut o = Json::obj([
                    ("label", Json::from(s.label.as_str())),
                    ("bytes_acked", Json::from(s.bytes_acked)),
                    ("segments_sent", Json::from(s.segments_sent)),
                    ("retransmits", Json::from(s.retransmits)),
                    ("rto_armed", Json::from(s.rto_armed)),
                    ("elapsed_s", s.elapsed.map_or(Json::Null, |e| Json::from(e.as_secs_f64()))),
                    ("goodput_mbps", s.goodput.map_or(Json::Null, |g| Json::from(g.mbps()))),
                ]);
                if s.retransmits > 0 || s.segments_retransmitted > 0 {
                    o.push("fast_retransmits", Json::from(s.fast_retransmits));
                    o.push("rto_timeouts", Json::from(s.rto_timeouts));
                    o.push("segments_retransmitted", Json::from(s.segments_retransmitted));
                }
                o
            })
            .collect();
        let receivers: Vec<Json> = self
            .receivers
            .iter()
            .map(|r| {
                Json::obj([
                    ("label", Json::from(r.label.as_str())),
                    ("bytes_delivered", Json::from(r.bytes_delivered)),
                    ("segments_in_order", Json::from(r.segments_in_order)),
                    ("segments_out_of_order", Json::from(r.segments_out_of_order)),
                    ("acks_sent", Json::from(r.acks_sent)),
                    ("flow", r.recorder.to_json()),
                ])
            })
            .collect();
        let flows: Vec<Json> = self
            .flows
            .iter()
            .map(|f| {
                let mut o = f.recorder.to_json();
                if let Json::Obj(pairs) = &mut o {
                    pairs.insert(0, ("label".to_string(), Json::from(f.label.as_str())));
                }
                o
            })
            .collect();
        let mut doc = Json::obj([
            ("elapsed_s", Json::from(elapsed)),
            ("events_processed", Json::from(self.events_processed)),
            ("hops", Json::Arr(hops)),
            ("switches", Json::Arr(switches)),
            ("tcp_senders", Json::Arr(senders)),
            ("tcp_receivers", Json::Arr(receivers)),
            ("flows", Json::Arr(flows)),
        ]);
        if !self.policers.is_empty() {
            // The policers key appears only when a policing point was
            // registered, so reports from pre-policing wirings stay
            // byte-identical.
            let policers: Vec<Json> = self
                .policers
                .iter()
                .map(|p| {
                    let per_vc: Vec<Json> = p
                        .per_vc
                        .iter()
                        .map(|&(vpi, vci, conforming, tagged, discarded)| {
                            let mut o = Json::obj([
                                ("vpi", Json::from(u64::from(vpi))),
                                ("vci", Json::from(u64::from(vci))),
                                ("conforming", Json::from(conforming)),
                            ]);
                            if tagged > 0 {
                                o.push("tagged", Json::from(tagged));
                            }
                            if discarded > 0 {
                                o.push("discarded", Json::from(discarded));
                            }
                            o
                        })
                        .collect();
                    let mut o = Json::obj([
                        ("label", Json::from(p.label.as_str())),
                        ("per_vc", Json::Arr(per_vc)),
                    ]);
                    if p.unpoliced > 0 {
                        o.push("unpoliced", Json::from(p.unpoliced));
                    }
                    if p.dropped_msgs > 0 {
                        o.push("dropped_msgs", Json::from(p.dropped_msgs));
                    }
                    o
                })
                .collect();
            doc.push("policers", Json::Arr(policers));
        }
        if !self.demuxes.is_empty() {
            // The demux key appears only when a striped wiring registered
            // demultiplexers, so single-stream reports stay byte-identical
            // to builds predating the striping layer.
            let demuxes: Vec<Json> = self
                .demuxes
                .iter()
                .map(|d| {
                    let routed: Vec<Json> = d
                        .routed
                        .iter()
                        .map(|&(flow, packets)| {
                            Json::obj([
                                ("flow", Json::from(flow)),
                                ("packets", Json::from(packets)),
                            ])
                        })
                        .collect();
                    let mut o = Json::obj([
                        ("label", Json::from(d.label.as_str())),
                        ("routed", Json::Arr(routed)),
                    ]);
                    if d.unroutable > 0 {
                        o.push("unroutable", Json::from(d.unroutable));
                    }
                    o
                })
                .collect();
            doc.push("demux", Json::Arr(demuxes));
        }
        if self.faults_injected() > 0 {
            doc.push("faults_injected", Json::from(self.faults_injected()));
        }
        if !self.kernel_metrics.is_empty() {
            // Counter finals and gauge high-water marks; the sampled
            // series stay with the sink.
            let regs: Vec<Json> =
                self.kernel_metrics.iter().map(MetricsRegistry::summary_json).collect();
            doc.push("kernel_metrics", Json::Arr(regs));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_utilization_and_loss() {
        let mut s = StageStats { busy: SimDuration::from_millis(250), ..Default::default() };
        assert!((s.utilization(SimDuration::from_secs(1)) - 0.25).abs() < 1e-12);
        assert_eq!(s.utilization(SimDuration::ZERO), 0.0);
        s.packets_in = 90;
        s.packets_dropped = 10;
        assert!((s.loss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(StageStats::default().loss_ratio(), 0.0);
    }

    #[test]
    fn flow_recorder_latency_and_goodput() {
        let mut f = FlowRecorder::default();
        let k = DataSize::from_kib(1);
        f.record(SimTime::ZERO, SimTime::from_millis(10), k);
        f.record(SimTime::from_millis(5), SimTime::from_millis(25), k);
        assert_eq!(f.packets, 2);
        assert_eq!(f.mean_latency(), SimDuration::from_millis(15));
        assert_eq!(f.latency_min.unwrap(), SimDuration::from_millis(10));
        assert_eq!(f.latency_max.unwrap(), SimDuration::from_millis(20));
        // Two samples 10 ms apart: jitter is the mean |delta|.
        assert_eq!(f.jitter(), SimDuration::from_millis(10));
        // The histogram sees the same samples.
        assert_eq!(f.hist.count(), 2);
        assert_eq!(f.hist.max(), SimDuration::from_millis(20));
        // 2 KiB between t=10ms and t=25ms -> 16384 bits / 15 ms.
        let g = f.goodput().bps();
        assert!((g - 16384.0 / 0.015).abs() / g < 1e-9);
        let j = f.to_json().dump();
        for key in ["latency_min_s", "latency_max_s", "jitter_s", "p99_s", "goodput_mbps"] {
            assert!(j.contains(&format!("\"{key}\":")), "{j}");
        }
    }

    #[test]
    fn empty_flow_is_safe() {
        let f = FlowRecorder::default();
        assert_eq!(f.mean_latency(), SimDuration::ZERO);
        assert_eq!(f.jitter(), SimDuration::ZERO);
        assert_eq!(f.goodput().bps(), 0.0);
    }

    #[test]
    fn registry_snapshots_a_small_pipeline() {
        use crate::link::{Arrive, Medium, Packet, PacketKind, PipeStage, Sink, StageConfig};
        use gtw_desim::component::msg;

        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink::default());
        let link = sim.add_component(PipeStage::new(
            "hop0",
            StageConfig {
                medium: Medium::Raw { rate: Bandwidth::from_mbps(100.0) },
                per_packet: SimDuration::ZERO,
                propagation: SimDuration::from_millis(1),
                buffer_bytes: u64::MAX,
            },
            sink,
        ));
        let mut reg = StatsRegistry::new();
        reg.add_stage(link);
        reg.add_sink(sink);
        assert_eq!(reg.len(), 2);
        for seq in 0..4 {
            let pkt = Packet {
                flow: 1,
                seq,
                ip_bytes: DataSize::from_bytes(12_500),
                payload: DataSize::from_bytes(12_460),
                created: SimTime::ZERO,
                kind: PacketKind::Data,
            };
            sim.send_in(SimDuration::ZERO, link, msg(Arrive(pkt)));
        }
        sim.run();
        let report = reg.collect(&sim);
        assert_eq!(report.hops.len(), 1);
        assert_eq!(report.flows.len(), 1);
        let hop = &report.hops[0];
        assert_eq!(hop.label, "hop0");
        assert_eq!(hop.medium, "raw");
        assert_eq!(hop.stats.packets_in, 4);
        assert_eq!(hop.stats.packets_out, 4);
        assert_eq!(hop.propagation_total, SimDuration::from_millis(4));
        assert_eq!(report.flows[0].recorder.packets, 4);
        assert_eq!(hop.stats.packets_dropped, 0);
        // The JSON rendering carries the same numbers — and no policer
        // key, since none was registered (clean-run identity).
        let j = report.to_json().dump();
        assert!(j.contains("\"label\":\"hop0\""), "{j}");
        assert!(j.contains("\"packets_out\":4"), "{j}");
        assert!(j.contains("\"events_processed\":"), "{j}");
        assert!(!j.contains("\"policers\""), "{j}");
    }

    #[test]
    fn switch_json_omits_zero_valued_discard_keys() {
        let clean = SwitchReport {
            label: "sw".into(),
            stats: crate::switch::SwitchStats { switched: 5, ..Default::default() },
            faults: None,
            dropped_msgs: 0,
        };
        let report = RunReport {
            elapsed: SimDuration::from_secs(1),
            events_processed: 5,
            hops: Vec::new(),
            switches: vec![clean.clone()],
            senders: Vec::new(),
            receivers: Vec::new(),
            flows: Vec::new(),
            policers: Vec::new(),
            demuxes: Vec::new(),
            kernel_metrics: Vec::new(),
        };
        let j = report.to_json().dump();
        for absent in
            ["unroutable", "overflow", "hec_discard", "clp_discard", "dropped_msgs", "epd_discard"]
        {
            assert!(!j.contains(&format!("\"{absent}\"")), "{absent} leaked into {j}");
        }
        assert!(j.contains("\"switched\":5"), "{j}");
        // Fired counters surface under their own keys.
        let mut busy = clean;
        busy.stats.unroutable = 2;
        busy.dropped_msgs = 1;
        let mut report2 = report.clone();
        report2.switches = vec![busy];
        let j2 = report2.to_json().dump();
        assert!(j2.contains("\"unroutable\":2"), "{j2}");
        assert!(j2.contains("\"dropped_msgs\":1"), "{j2}");
        assert!(!j2.contains("\"overflow\""), "{j2}");
    }

    #[test]
    fn kernel_metrics_block_appears_only_when_collected() {
        let mut report = RunReport {
            elapsed: SimDuration::from_secs(1),
            events_processed: 1,
            hops: Vec::new(),
            switches: Vec::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            flows: Vec::new(),
            policers: Vec::new(),
            demuxes: Vec::new(),
            kernel_metrics: Vec::new(),
        };
        assert!(!report.to_json().dump().contains("kernel_metrics"));
        let mut reg = MetricsRegistry::new("shard0");
        let c = reg.counter("events");
        reg.inc(c, 7);
        report.kernel_metrics.push(reg);
        let j = report.to_json().dump();
        assert!(j.contains("\"kernel_metrics\":[{\"label\":\"shard0\",\"events\":7}]"), "{j}");
    }

    #[test]
    fn demux_block_appears_only_when_registered() {
        let mut report = RunReport {
            elapsed: SimDuration::from_secs(1),
            events_processed: 1,
            hops: Vec::new(),
            switches: Vec::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            flows: Vec::new(),
            policers: Vec::new(),
            demuxes: Vec::new(),
            kernel_metrics: Vec::new(),
        };
        assert!(!report.to_json().dump().contains("\"demux\""));
        report.demuxes.push(DemuxReport {
            label: "data-demux".into(),
            routed: vec![(1, 10), (2, 12)],
            unroutable: 0,
        });
        let j = report.to_json().dump();
        assert!(j.contains("\"demux\":[{\"label\":\"data-demux\""), "{j}");
        assert!(j.contains("\"flow\":2,\"packets\":12"), "{j}");
        // Zero unroutable stays out of the rendering.
        assert!(!j.contains("\"unroutable\""), "{j}");
    }

    #[test]
    fn registry_attributes_policer_drops_per_vc() {
        use crate::aal5::segment;
        use crate::policing::{LeakyBucket, PolicingAction, UniPolicer};
        use crate::switch::{CellArrive, CellEndpoint};
        use gtw_desim::component::msg;

        let mut sim = Simulator::new();
        let sink = sim.add_component(CellEndpoint::default());
        let mut pol = UniPolicer::new("uni-fzj", sink);
        pol.add_contract(
            1,
            100,
            LeakyBucket::new(1000.0, SimDuration::ZERO, PolicingAction::Discard),
        );
        let pol = sim.add_component(pol);
        let mut reg = StatsRegistry::new();
        reg.add_policer(pol);
        // 2× the contract on the policed VC.
        for k in 0..100u64 {
            for cell in segment(b"x", 1, 100) {
                sim.send_at(SimTime::from_micros(500 * k), pol, msg(CellArrive { port: 0, cell }));
            }
        }
        sim.run();
        let report = reg.collect(&sim);
        assert_eq!(report.policers.len(), 1);
        let p = &report.policers[0];
        assert_eq!(p.per_vc.len(), 1);
        let (vpi, vci, conforming, tagged, discarded) = p.per_vc[0];
        assert_eq!((vpi, vci), (1, 100));
        assert!(conforming > 0 && discarded > 0 && tagged == 0, "{p:?}");
        assert_eq!(p.unpoliced, 0);
        let j = report.to_json().dump();
        assert!(j.contains("\"policers\":"), "{j}");
        assert!(j.contains("\"vci\":100"), "{j}");
        assert!(j.contains("\"discarded\":"), "{j}");
        // Tag counter is zero, so its key stays out of the report.
        assert!(!j.contains("\"tagged\""), "{j}");
        assert!(!j.contains("\"unpoliced\""), "{j}");
    }
}
