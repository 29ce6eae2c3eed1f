//! A cell-level ATM switch, modelling the Fore ASX-4000s of the testbed.
//!
//! The switch routes on `(input port, VPI, VCI)`, rewrites the header to
//! the outgoing `(VPI, VCI)` (standard VC switching), and serializes cells
//! on per-output-port transmitters with finite cell buffers — the loss
//! point under congestion. Cells whose HEC does not verify are discarded
//! at the input, exactly as real hardware does.

use std::collections::{BTreeMap, VecDeque};

use gtw_desim::fault::{FaultCause, FaultInjector};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SpanSink};

use crate::cell::{AtmCell, ATM_CELL_BYTES};
use crate::units::Bandwidth;

/// A cell arriving at `port` of the receiving component, already parsed
/// (i.e. its header integrity was established upstream).
pub struct CellArrive {
    /// Input port index at the receiver.
    pub port: usize,
    /// The cell.
    pub cell: AtmCell,
}

/// A cell arriving as raw wire octets; the switch performs HEC
/// verification and discards on mismatch (the `hec_discard` counter).
pub struct WireCellArrive {
    /// Input port index at the receiver.
    pub port: usize,
    /// The 53 wire octets.
    pub wire: [u8; ATM_CELL_BYTES],
}

struct PortTxDone(usize);

/// Routing key: where the cell came in and on which VC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VcKey {
    /// Input port.
    pub port: usize,
    /// Incoming VPI.
    pub vpi: u8,
    /// Incoming VCI.
    pub vci: u16,
}

/// Routing action: output port and outgoing VC labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VcRoute {
    /// Output port.
    pub port: usize,
    /// Outgoing VPI.
    pub vpi: u8,
    /// Outgoing VCI.
    pub vci: u16,
}

/// Static configuration of one output port.
#[derive(Clone, Debug)]
pub struct OutputPort {
    /// Downstream component.
    pub next: ComponentId,
    /// Input port index at the downstream component.
    pub next_port: usize,
    /// Line rate of this port.
    pub rate: Bandwidth,
    /// Propagation delay to the downstream component.
    pub propagation: SimDuration,
    /// Cell buffer capacity.
    pub buffer_cells: usize,
    /// Selective-discard threshold: once the queue holds this many
    /// cells, arriving CLP-tagged cells are dropped (set to
    /// `buffer_cells` to disable). Protects contracted traffic when a
    /// policer upstream tagged the excess.
    pub clp_threshold: usize,
    /// Early-packet-discard threshold: once the queue holds this many
    /// cells, a *newly starting* AAL5 frame is dropped whole instead of
    /// being mutilated cell by cell, and any frame that loses a cell to
    /// overflow has its remaining cells discarded too (partial packet
    /// discard). `None` (the default) reproduces plain tail-drop
    /// bit-identically.
    pub epd_threshold: Option<usize>,
}

impl OutputPort {
    /// A port without selective discard.
    pub fn simple(
        next: ComponentId,
        next_port: usize,
        rate: Bandwidth,
        propagation: SimDuration,
        buffer_cells: usize,
    ) -> Self {
        OutputPort {
            next,
            next_port,
            rate,
            propagation,
            buffer_cells,
            clp_threshold: buffer_cells,
            epd_threshold: None,
        }
    }

    /// Enable early packet discard at `threshold` queued cells (builder
    /// form).
    pub fn with_epd(mut self, threshold: usize) -> Self {
        self.epd_threshold = Some(threshold);
        self
    }
}

/// Per-VC frame-discard state of an output port (EPD/PPD bookkeeping;
/// only populated when the port has an EPD threshold).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FrameState {
    /// Mid-frame, cells being admitted normally.
    Passing,
    /// The frame was refused at its first cell (EPD): discard it whole,
    /// end cell included.
    DropEpd,
    /// The frame lost a cell after admission started (PPD): discard the
    /// remainder, but forward the end cell so the reassembler sees the
    /// frame boundary and the *next* frame is not corrupted too.
    DropPpd,
}

struct PortState {
    cfg: OutputPort,
    queue: VecDeque<AtmCell>,
    transmitting: bool,
    /// Per-VC AAL5 frame state, keyed by the outgoing `(VPI, VCI)`.
    /// Empty (and never touched) unless `cfg.epd_threshold` is set.
    frames: BTreeMap<(u8, u16), FrameState>,
}

/// Per-switch counters.
#[derive(Debug, Default, Clone)]
pub struct SwitchStats {
    /// Cells successfully switched.
    pub switched: u64,
    /// Cells dropped: no routing entry.
    pub unroutable: u64,
    /// Cells dropped: output buffer full.
    pub overflow: u64,
    /// Cells dropped: HEC failure at input.
    pub hec_discard: u64,
    /// CLP-tagged cells shed by selective discard.
    pub clp_discard: u64,
    /// Cells dropped by early packet discard: whole AAL5 frames refused
    /// at the queue threshold before any of their cells were admitted.
    pub epd_discard: u64,
    /// Cells dropped by partial packet discard: the remainder of a frame
    /// that already lost a cell to overflow or selective discard.
    pub ppd_discard: u64,
    /// Cells removed by an injected link outage.
    pub fault_outage: u64,
    /// Cells removed by injected i.i.d. loss.
    pub fault_loss: u64,
    /// Cells removed by injected burst (bad-state) loss.
    pub fault_burst: u64,
    /// HEC discards caused by injected header corruption — a subset of
    /// `hec_discard`, not a separate drop class.
    pub fault_hec: u64,
}

impl SwitchStats {
    /// Total cells that arrived at the switch: every arrival is either
    /// switched or accounted to exactly one discard counter, so this is
    /// the conservation identity run reports and tests check.
    pub fn cells_in(&self) -> u64 {
        self.switched
            + self.unroutable
            + self.overflow
            + self.hec_discard
            + self.clp_discard
            + self.epd_discard
            + self.ppd_discard
            + self.fault_outage
            + self.fault_loss
            + self.fault_burst
    }

    /// Total cells shed at AAL5 frame granularity (EPD + PPD).
    pub fn frame_discards(&self) -> u64 {
        self.epd_discard + self.ppd_discard
    }

    /// Total cells removed or corrupted by injected faults.
    pub fn faults_injected(&self) -> u64 {
        self.fault_outage + self.fault_loss + self.fault_burst + self.fault_hec
    }
}

/// The switch component.
pub struct AtmSwitch {
    routes: BTreeMap<VcKey, VcRoute>,
    ports: Vec<PortState>,
    /// Fixed fabric latency from input to the output queue.
    pub fabric_latency: SimDuration,
    /// Counters.
    pub stats: SwitchStats,
    /// Span sink: per-port `cell` transmission spans; disabled by default.
    pub spans: SpanSink,
    /// Fault injector judging every arriving cell; `None` (free) by
    /// default.
    pub injector: Option<FaultInjector>,
    /// Messages the switch could not interpret (unknown type, TxDone for
    /// a nonexistent port or an empty queue): dropped and counted
    /// instead of crashing the fabric.
    pub dropped_msgs: u64,
    label: String,
}

impl AtmSwitch {
    /// Create a switch with the given output ports.
    pub fn new(label: impl Into<String>, ports: Vec<OutputPort>) -> Self {
        AtmSwitch {
            routes: BTreeMap::new(),
            ports: ports
                .into_iter()
                .map(|cfg| PortState {
                    cfg,
                    queue: VecDeque::new(),
                    transmitting: false,
                    frames: BTreeMap::new(),
                })
                .collect(),
            fabric_latency: SimDuration::from_micros(10),
            stats: SwitchStats::default(),
            spans: SpanSink::disabled(),
            injector: None,
            dropped_msgs: 0,
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

    /// Install a PVC: `(in port, vpi, vci)` → `(out port, vpi, vci)`.
    pub fn add_route(&mut self, key: VcKey, route: VcRoute) {
        assert!(route.port < self.ports.len(), "route to nonexistent port");
        self.routes.insert(key, route);
    }

    /// Number of output ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_>, port: usize) {
        let p = &mut self.ports[port];
        if p.transmitting || p.queue.is_empty() {
            return;
        }
        p.transmitting = true;
        let tx = SimDuration::transmission((ATM_CELL_BYTES * 8) as u64, p.cfg.rate.bps());
        if self.spans.enabled() {
            // One span per cell on this output port's transmitter.
            let track = format!("{}/p{port}", self.label);
            self.spans.record(&track, "cell", ctx.now(), ctx.now() + tx);
        }
        ctx.timer_in(tx, gtw_desim::component::msg(PortTxDone(port)));
    }
}

/// After a cell of an admitted frame was dropped (overflow or selective
/// discard), switch the frame to PPD so its remaining cells are shed
/// instead of wasting queue space on a frame that can no longer
/// reassemble. No-op when EPD is off or the dropped cell ended the frame.
fn mark_ppd(
    frames: &mut BTreeMap<(u8, u16), FrameState>,
    frame_key: Option<((u8, u16), bool, usize)>,
) {
    if let Some((vc, end, _)) = frame_key {
        if end {
            frames.remove(&vc);
        } else {
            frames.insert(vc, FrameState::DropPpd);
        }
    }
}

impl Component for AtmSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<CellArrive>() || m.is::<WireCellArrive>() {
            let (port, cell) = if m.is::<WireCellArrive>() {
                let WireCellArrive { port, wire } =
                    *gtw_desim::component::downcast::<WireCellArrive>(m);
                match AtmCell::from_wire(&wire) {
                    Some(cell) => (port, cell),
                    None => {
                        self.stats.hec_discard += 1;
                        return;
                    }
                }
            } else {
                let CellArrive { port, cell } = *gtw_desim::component::downcast::<CellArrive>(m);
                (port, cell)
            };
            let mut buffer_factor = 1.0;
            if let Some(inj) = self.injector.as_mut() {
                if let Some(cause) = inj.judge(ctx.now()) {
                    match cause {
                        FaultCause::Outage => self.stats.fault_outage += 1,
                        FaultCause::Burst => self.stats.fault_burst += 1,
                        FaultCause::Loss | FaultCause::HeaderError => self.stats.fault_loss += 1,
                    }
                    return;
                }
                if inj.corrupt_header() {
                    // A corrupted header fails HEC verification at the
                    // input stage, like any wire error.
                    self.stats.hec_discard += 1;
                    self.stats.fault_hec += 1;
                    return;
                }
                if inj.degrades_buffers() {
                    buffer_factor = inj.capacity_factor(ctx.now());
                }
            }
            let key = VcKey { port, vpi: cell.header.vpi, vci: cell.header.vci };
            let Some(route) = self.routes.get(&key).copied() else {
                self.stats.unroutable += 1;
                return;
            };
            let mut out = cell;
            out.header.vpi = route.vpi;
            out.header.vci = route.vci;
            let p = &mut self.ports[route.port];
            let buffer_cells = if buffer_factor >= 1.0 {
                p.cfg.buffer_cells
            } else {
                (p.cfg.buffer_cells as f64 * buffer_factor) as usize
            };
            // EPD/PPD frame-level discard, only when the port opts in —
            // with `epd_threshold: None` this whole block is one branch
            // and clean runs are bit-identical to tail-drop builds.
            let frame_key = p.cfg.epd_threshold.map(|thresh| {
                ((out.header.vpi, out.header.vci), out.header.pti.is_aal5_end(), thresh)
            });
            if let Some((vc, end, thresh)) = frame_key {
                match p.frames.get(&vc).copied() {
                    Some(FrameState::DropEpd) => {
                        self.stats.epd_discard += 1;
                        if end {
                            p.frames.remove(&vc);
                        }
                        return;
                    }
                    Some(FrameState::DropPpd) if !end => {
                        self.stats.ppd_discard += 1;
                        return;
                    }
                    Some(FrameState::DropPpd) => {
                        // Forward the end cell of the mutilated frame
                        // (buffer permitting) to preserve the boundary.
                        p.frames.remove(&vc);
                    }
                    Some(FrameState::Passing) => {
                        if end {
                            p.frames.remove(&vc);
                        }
                    }
                    None => {
                        if p.queue.len() >= thresh {
                            // EPD: a new frame starts past the threshold
                            // — refuse it whole, end cell included.
                            self.stats.epd_discard += 1;
                            if !end {
                                p.frames.insert(vc, FrameState::DropEpd);
                            }
                            return;
                        }
                        if !end {
                            p.frames.insert(vc, FrameState::Passing);
                        }
                    }
                }
            }
            if out.header.clp && p.queue.len() >= p.cfg.clp_threshold.min(buffer_cells) {
                self.stats.clp_discard += 1;
                mark_ppd(&mut p.frames, frame_key);
                return;
            }
            if p.queue.len() >= buffer_cells {
                self.stats.overflow += 1;
                mark_ppd(&mut p.frames, frame_key);
                return;
            }
            p.queue.push_back(out);
            self.stats.switched += 1;
            self.start_tx(ctx, route.port);
        } else if m.is::<PortTxDone>() {
            let PortTxDone(port) = *gtw_desim::component::downcast::<PortTxDone>(m);
            // A TxDone for a port that does not exist or has an empty
            // queue is message-shaped garbage (or a stale timer from a
            // reconfigured fabric): count it and carry on.
            let Some(p) = self.ports.get_mut(port) else {
                self.dropped_msgs += 1;
                return;
            };
            p.transmitting = false;
            let Some(cell) = p.queue.pop_front() else {
                self.dropped_msgs += 1;
                return;
            };
            let (next, next_port) = (p.cfg.next, p.cfg.next_port);
            let delay = self.fabric_latency + p.cfg.propagation;
            ctx.send_in(
                delay,
                next,
                gtw_desim::component::msg(CellArrive { port: next_port, cell }),
            );
            self.start_tx(ctx, port);
        } else {
            // A stray message of an unknown type must not crash the
            // fabric: drop it and count it.
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A cell endpoint that reassembles AAL5 PDUs per VC; terminal node for
/// cell-level tests.
#[derive(Default)]
pub struct CellEndpoint {
    reassemblers: BTreeMap<(u8, u16), crate::aal5::Reassembler>,
    /// Completed payloads in arrival order, tagged with their VC.
    pub delivered: Vec<((u8, u16), Vec<u8>)>,
    /// Reassembly errors observed (sum of the per-cause counters).
    pub errors: u64,
    /// Reassembly errors: CRC-32 mismatch.
    pub errors_crc: u64,
    /// Reassembly errors: trailer length inconsistent.
    pub errors_length: u64,
    /// Reassembly errors: PDU oversize (lost end cell).
    pub errors_oversize: u64,
    /// Messages of an unknown type dropped instead of crashing the
    /// endpoint.
    pub dropped_msgs: u64,
}

impl Component for CellEndpoint {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, m: Msg) {
        if !m.is::<CellArrive>() {
            self.dropped_msgs += 1;
            return;
        }
        let CellArrive { cell, .. } = *gtw_desim::component::downcast::<CellArrive>(m);
        let vc = (cell.header.vpi, cell.header.vci);
        let r = self.reassemblers.entry(vc).or_default();
        if let Some(result) = r.push(&cell) {
            match result {
                Ok(payload) => self.delivered.push((vc, payload)),
                Err(e) => {
                    self.errors += 1;
                    match e {
                        crate::aal5::ReassemblyError::CrcMismatch => self.errors_crc += 1,
                        crate::aal5::ReassemblyError::LengthMismatch => self.errors_length += 1,
                        crate::aal5::ReassemblyError::Oversize => self.errors_oversize += 1,
                    }
                }
            }
        }
    }
    fn name(&self) -> &str {
        "cell-endpoint"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aal5::segment;
    use gtw_desim::component::msg;
    use gtw_desim::Simulator;

    /// Build: source --(port0)--> switch --(port0)--> endpoint.
    fn one_switch_setup(buffer_cells: usize) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let ep = sim.add_component(CellEndpoint::default());
        let mut sw = AtmSwitch::new(
            "asx4000",
            vec![OutputPort::simple(
                ep,
                0,
                Bandwidth::OC3,
                SimDuration::from_micros(5),
                buffer_cells,
            )],
        );
        sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
        let sw = sim.add_component(sw);
        (sim, sw, ep)
    }

    #[test]
    fn switches_and_relabels_a_pdu() {
        let (mut sim, sw, ep) = one_switch_setup(1000);
        let payload: Vec<u8> = (0..500).map(|i| i as u8).collect();
        for cell in segment(&payload, 1, 100) {
            sim.send_in(SimDuration::ZERO, sw, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        let e = sim.component::<CellEndpoint>(ep);
        assert_eq!(e.delivered.len(), 1);
        assert_eq!(e.delivered[0].0, (2, 200), "VC must be relabelled");
        assert_eq!(e.delivered[0].1, payload);
        assert_eq!(e.errors, 0);
        let s = sim.component::<AtmSwitch>(sw);
        assert_eq!(s.stats.switched as usize, segment(&payload, 1, 100).len());
    }

    #[test]
    fn unroutable_cells_counted() {
        let (mut sim, sw, ep) = one_switch_setup(1000);
        for cell in segment(&[0u8; 100], 9, 999) {
            sim.send_in(SimDuration::ZERO, sw, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        assert!(sim.component::<AtmSwitch>(sw).stats.unroutable > 0);
        assert!(sim.component::<CellEndpoint>(ep).delivered.is_empty());
    }

    #[test]
    fn buffer_overflow_drops_and_aal5_catches_it() {
        let (mut sim, sw, ep) = one_switch_setup(2);
        let payload = vec![7u8; 2000]; // ~42 cells, buffer of 2 at OC-3
        for cell in segment(&payload, 1, 100) {
            sim.send_in(SimDuration::ZERO, sw, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        assert!(s.stats.overflow > 0, "expected overflow drops");
        let e = sim.component::<CellEndpoint>(ep);
        // The mutilated PDU must not be delivered as valid.
        assert!(e.delivered.is_empty());
        assert!(e.errors > 0 || e.delivered.is_empty());
    }

    #[test]
    fn corrupted_header_discarded_at_input() {
        let (mut sim, sw, ep) = one_switch_setup(1000);
        let mut cells = segment(&[1u8; 40], 1, 100);
        assert_eq!(cells.len(), 1);
        let ok = cells.pop().unwrap();
        let mut wire = ok.to_wire();
        wire[1] ^= 0x10; // flip a VPI bit -> HEC mismatch on the wire
        sim.send_in(SimDuration::ZERO, sw, msg(WireCellArrive { port: 0, wire }));
        // And an intact wire cell for contrast.
        sim.send_in(SimDuration::ZERO, sw, msg(WireCellArrive { port: 0, wire: ok.to_wire() }));
        sim.run();
        assert_eq!(sim.component::<AtmSwitch>(sw).stats.hec_discard, 1);
        assert_eq!(sim.component::<CellEndpoint>(ep).delivered.len(), 1);
    }

    #[test]
    fn two_switch_tandem() {
        let mut sim = Simulator::new();
        let ep = sim.add_component(CellEndpoint::default());
        let mut sw2 = AtmSwitch::new(
            "gmd",
            vec![OutputPort::simple(ep, 0, Bandwidth::OC12, SimDuration::from_micros(5), 4096)],
        );
        sw2.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
        let sw2 = sim.add_component(sw2);
        let mut sw1 = AtmSwitch::new(
            "fzj",
            vec![OutputPort::simple(
                sw2,
                0,
                Bandwidth::OC48,
                StageConfigPropagation::JUELICH_GMD,
                4096,
            )],
        );
        sw1.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
        let sw1 = sim.add_component(sw1);

        let payload: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        for cell in segment(&payload, 1, 100) {
            sim.send_in(SimDuration::ZERO, sw1, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        let e = sim.component::<CellEndpoint>(ep);
        assert_eq!(e.delivered.len(), 1);
        assert_eq!(e.delivered[0].0, (3, 300));
        assert_eq!(e.delivered[0].1, payload);
        // End-to-end time exceeds the WAN propagation alone.
        assert!(sim.now().as_micros_f64() > 500.0);
    }

    #[test]
    fn selective_discard_protects_contracted_cells() {
        use crate::policing::{LeakyBucket, PolicingAction};
        // Overload an OC-3 port with a policed 2x-contract stream; the
        // CLP-tagged half is shed first, the conforming half survives.
        let mut sim = Simulator::new();
        let ep = sim.add_component(CellEndpoint::default());
        let mut sw = AtmSwitch::new(
            "qos",
            vec![OutputPort {
                next: ep,
                next_port: 0,
                rate: Bandwidth::OC3,
                propagation: SimDuration::from_micros(5),
                buffer_cells: 64,
                clp_threshold: 8,
                epd_threshold: None,
            }],
        );
        sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 1, vci: 100 });
        let sw = sim.add_component(sw);
        // Police a raw cell stream at half the offered rate.
        let offered_interval = SimDuration::from_micros(2); // ~500k cells/s offered
        let mut bucket = LeakyBucket::new(
            250_000.0, // contract: half of offered
            SimDuration::from_micros(4),
            PolicingAction::Tag,
        );
        let mut t = gtw_desim::SimTime::ZERO;
        let mut sent_conforming = 0u64;
        for i in 0..2000u64 {
            let mut cell = AtmCell::new(
                {
                    let mut h = crate::cell::CellHeader::data(1, 100);
                    h.pti = crate::cell::Pti::USER_DATA;
                    h
                },
                &i.to_le_bytes(),
            );
            if bucket.police(&mut cell, t) != crate::policing::Verdict::Discarded {
                if !cell.header.clp {
                    sent_conforming += 1;
                }
                sim.send_at(t, sw, msg(CellArrive { port: 0, cell }));
            }
            t += offered_interval;
        }
        sim.run();
        let stats = &sim.component::<AtmSwitch>(sw).stats;
        assert!(stats.clp_discard > 300, "tagged cells should be shed: {stats:?}");
        // Conforming cells survive (no untagged overflow at this load).
        assert_eq!(stats.overflow, 0, "{stats:?}");
        assert_eq!(stats.switched, sent_conforming + (bucket.tagged - stats.clp_discard));
    }

    /// Offered load for EPD tests: `frames` AAL5 frames of `frame_bytes`
    /// back to back on VC (1, 100), injected at `interval` per cell.
    fn blast(sim: &mut Simulator, sw: ComponentId, frames: usize, frame_bytes: usize) {
        let interval = SimDuration::from_micros(1);
        let mut t = gtw_desim::SimTime::ZERO;
        for k in 0..frames {
            let payload = vec![k as u8; frame_bytes];
            for cell in segment(&payload, 1, 100) {
                sim.send_at(t, sw, msg(CellArrive { port: 0, cell }));
                t += interval;
            }
        }
    }

    fn epd_switch(epd: Option<usize>, buffer: usize) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let ep = sim.add_component(CellEndpoint::default());
        let mut port =
            OutputPort::simple(ep, 0, Bandwidth::OC3, SimDuration::from_micros(5), buffer);
        port.epd_threshold = epd;
        let mut sw = AtmSwitch::new("epd", vec![port]);
        sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 1, vci: 100 });
        let sw = sim.add_component(sw);
        (sim, sw, ep)
    }

    #[test]
    fn epd_drops_whole_frames_tail_drop_mutilates() {
        // Same overload (20 × 2000-byte frames at ~3× line rate into a
        // 128-cell buffer): tail drop mutilates most frames, EPD (with
        // one frame's worth of headroom below the ceiling) delivers
        // complete ones and never overflows.
        let (mut sim, sw, ep) = epd_switch(None, 128);
        blast(&mut sim, sw, 20, 2000);
        sim.run();
        let tail_delivered = sim.component::<CellEndpoint>(ep).delivered.len();
        let tail_errors = sim.component::<CellEndpoint>(ep).errors;
        assert!(sim.component::<AtmSwitch>(sw).stats.overflow > 0);

        let (mut sim, sw, ep) = epd_switch(Some(64), 128);
        blast(&mut sim, sw, 20, 2000);
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        assert!(s.stats.epd_discard > 0, "{:?}", s.stats);
        assert_eq!(s.stats.overflow, 0, "EPD headroom must prevent overflow: {:?}", s.stats);
        let e = sim.component::<CellEndpoint>(ep);
        assert!(
            e.delivered.len() > tail_delivered,
            "EPD {} vs tail-drop {tail_delivered} complete frames",
            e.delivered.len()
        );
        assert!(e.errors <= tail_errors, "EPD must not increase mutilation: {} errors", e.errors);
    }

    #[test]
    fn epd_preserves_cell_conservation() {
        let (mut sim, sw, _ep) = epd_switch(Some(16), 32);
        blast(&mut sim, sw, 30, 3000);
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        let injected: u64 = (0..30).map(|_| segment(&vec![0u8; 3000], 1, 100).len() as u64).sum();
        assert_eq!(s.stats.cells_in(), injected, "{:?}", s.stats);
        assert!(s.stats.frame_discards() > 0);
    }

    #[test]
    fn ppd_sheds_frame_remainder_after_overflow() {
        // A tiny buffer with a high EPD threshold: frames get admitted,
        // overflow mid-frame, and PPD sheds the rest.
        let (mut sim, sw, _ep) = epd_switch(Some(30), 8);
        blast(&mut sim, sw, 10, 4000);
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        assert!(s.stats.overflow > 0, "{:?}", s.stats);
        assert!(s.stats.ppd_discard > 0, "{:?}", s.stats);
    }

    #[test]
    fn epd_off_has_no_frame_counters() {
        let (mut sim, sw, _ep) = epd_switch(None, 8);
        blast(&mut sim, sw, 10, 4000);
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        assert_eq!(s.stats.frame_discards(), 0, "{:?}", s.stats);
    }

    #[test]
    fn stray_messages_are_counted_not_fatal() {
        let (mut sim, sw, ep) = one_switch_setup(16);
        struct Stray;
        sim.send_in(SimDuration::ZERO, sw, msg(Stray));
        sim.send_in(SimDuration::ZERO, ep, msg(Stray));
        for cell in segment(&[5u8; 100], 1, 100) {
            sim.send_in(SimDuration::from_micros(1), sw, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        assert_eq!(sim.component::<AtmSwitch>(sw).dropped_msgs, 1);
        assert_eq!(sim.component::<CellEndpoint>(ep).dropped_msgs, 1);
        assert_eq!(sim.component::<CellEndpoint>(ep).delivered.len(), 1);
    }

    /// Propagation constant for tests: Jülich–Sankt Augustin ≈ 100 km.
    struct StageConfigPropagation;
    impl StageConfigPropagation {
        const JUELICH_GMD: SimDuration = SimDuration::from_micros(500);
    }
}
