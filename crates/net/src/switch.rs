//! A cell-level ATM switch, modelling the Fore ASX-4000s of the testbed.
//!
//! The switch routes on `(input port, VPI, VCI)`, rewrites the header to
//! the outgoing `(VPI, VCI)` (standard VC switching), and serializes cells
//! on per-output-port transmitters with finite cell buffers — the loss
//! point under congestion. Cells whose HEC does not verify are discarded
//! at the input, exactly as real hardware does.
//!
//! # Event model: one event per cell per switch
//!
//! A FIFO port knows a cell's departure when it admits it (`depart =
//! start + cell time`, `start` the departure of the cell ahead, or now),
//! so the cell's [`CellArrive`] is its only event here: the handler
//! forwards the box it received to `next` at `depart + fabric_latency +
//! propagation`. Admission (tail drop on a full buffer) reads the queue
//! at *arrival*, when it holds the admitted cells departing after now, so
//! a port keeps departure instants, not cells. Stats, injector
//! draws, `cell` spans and downstream arrival instants are those of the
//! timer-per-cell switch kept as `two_event` below (DESIGN.md §4g).
//!
//! **Tie rule:** a cell departing at `t` has freed its slot for an
//! arrival at `t` — what the timer gave every downstream-first or
//! externally fed wiring. Changed on purpose: registered upstream-first,
//! the timer switch handled that arrival first and saw a fuller buffer;
//! and two ports feeding one neighbour now break an exact arrival tie
//! there by admission order, not by timer order.

use std::collections::{BTreeMap, VecDeque};

use gtw_desim::fault::{FaultCause, FaultInjector};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime};

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
    /// Cell buffer capacity: a cell that finds it full is dropped,
    /// whatever its CLP bit.
    pub buffer_cells: usize,
}

impl OutputPort {
    /// A tail-drop port.
    pub fn simple(
        next: ComponentId,
        next_port: usize,
        rate: Bandwidth,
        propagation: SimDuration,
        buffer_cells: usize,
    ) -> Self {
        OutputPort { next, next_port, rate, propagation, buffer_cells }
    }
}

struct PortState {
    cfg: OutputPort,
    /// One cell's serialization time at `cfg.rate`.
    cell_time: SimDuration,
    /// Departures of admitted cells, increasing; those after now are the
    /// queue (cell on the wire included), the rest leave at the next arrival.
    departures: VecDeque<SimTime>,
    /// Span track of this port's transmitter.
    track: String,
}

/// Per-switch counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SwitchStats {
    /// Cells successfully switched.
    pub switched: u64,
    /// Cells dropped: no routing entry.
    pub unroutable: u64,
    /// Cells dropped: output buffer full.
    pub overflow: u64,
    /// Cells dropped: HEC failure at input.
    pub hec_discard: u64,
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
            + self.fault_outage
            + self.fault_loss
            + self.fault_burst
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
    /// Fault injector judging every arriving cell; `None` (free) by
    /// default.
    pub injector: Option<FaultInjector>,
    /// Messages of a type the switch does not know: dropped and counted
    /// instead of crashing the fabric.
    pub dropped_msgs: u64,
    label: String,
}

impl AtmSwitch {
    /// Create a switch with the given output ports.
    pub fn new(label: impl Into<String>, ports: Vec<OutputPort>) -> Self {
        let label = label.into();
        let cell_bits = (ATM_CELL_BYTES * 8) as u64;
        AtmSwitch {
            routes: BTreeMap::new(),
            ports: ports
                .into_iter()
                .enumerate()
                .map(|(port, cfg)| PortState {
                    cell_time: SimDuration::transmission(cell_bits, cfg.rate.bps()),
                    cfg,
                    departures: VecDeque::new(),
                    track: format!("{label}/p{port}"),
                })
                .collect(),
            fabric_latency: SimDuration::from_micros(10),
            stats: SwitchStats::default(),
            injector: None,
            dropped_msgs: 0,
            label,
        }
    }

    /// Attach a fault injector (builder form, for wiring time).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Install a PVC: `(in port, vpi, vci)` → `(out port, vpi, vci)`.
    pub fn add_route(&mut self, key: VcKey, route: VcRoute) {
        // A wiring-time precondition, not a run-time path: routes come
        // from the code that built `ports`, so a bad index is its bug, and
        // checking here lets the handler index `ports[route.port]` per cell.
        assert!(route.port < self.ports.len(), "route to nonexistent port");
        self.routes.insert(key, route);
    }
}

impl Component for AtmSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let Ok(mut arrive) = m.downcast::<CellArrive>() else {
            // A stray message of an unknown type must not crash the
            // fabric: drop it and count it.
            self.dropped_msgs += 1;
            return;
        };
        let now = ctx.now();
        let mut buffer_factor = 1.0;
        if let Some(inj) = self.injector.as_mut() {
            if let Some(cause) = inj.judge(now) {
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
                buffer_factor = inj.capacity_factor(now);
            }
        }
        let header = &mut arrive.cell.header;
        let key = VcKey { port: arrive.port, vpi: header.vpi, vci: header.vci };
        let Some(route) = self.routes.get(&key).copied() else {
            self.stats.unroutable += 1;
            return;
        };
        header.vpi = route.vpi;
        header.vci = route.vci;
        let p = &mut self.ports[route.port];
        // The tie rule: departures at `now` have left before this arrival.
        while p.departures.front().is_some_and(|&d| d <= now) {
            p.departures.pop_front();
        }
        let queued = p.departures.len();
        let buffer_cells = if buffer_factor >= 1.0 {
            p.cfg.buffer_cells
        } else {
            (p.cfg.buffer_cells as f64 * buffer_factor) as usize
        };
        if queued >= buffer_cells {
            self.stats.overflow += 1;
            return;
        }
        self.stats.switched += 1;
        // What is still queued departs after `now`; this cell follows it.
        let start = p.departures.back().copied().unwrap_or(now);
        let depart = start + p.cell_time;
        p.departures.push_back(depart);
        // One span per cell on this output port's transmitter.
        ctx.span(&p.track, "cell", start, depart);
        // The same box travels switch to switch.
        arrive.port = p.cfg.next_port;
        ctx.send_at(depart + self.fabric_latency + p.cfg.propagation, p.cfg.next, arrive);
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

/// The two-event switch [`AtmSwitch`] replaced, kept as the reference
/// model its tests hold it to: every admitted cell is queued, the head of
/// the queue arms a transmit-done self-timer for one cell time, and the
/// cell is popped and forwarded (in a new box) when that timer fires.
#[cfg(test)]
mod two_event {
    use super::*;

    struct PortTxDone(usize);

    pub struct PortState {
        pub cfg: OutputPort,
        queue: VecDeque<AtmCell>,
        transmitting: bool,
    }

    pub struct TwoEventSwitch {
        routes: BTreeMap<VcKey, VcRoute>,
        pub ports: Vec<PortState>,
        /// Fixed fabric latency from input to the output queue.
        pub fabric_latency: SimDuration,
        /// Counters.
        pub stats: SwitchStats,
        /// Fault injector judging every arriving cell; `None` (free) by
        /// default.
        pub injector: Option<FaultInjector>,
        /// Messages the switch could not interpret (unknown type, TxDone for
        /// a nonexistent port or an empty queue): dropped and counted
        /// instead of crashing the fabric.
        pub dropped_msgs: u64,
        label: String,
    }

    impl TwoEventSwitch {
        /// Create a switch with the given output ports.
        pub fn new(label: impl Into<String>, ports: Vec<OutputPort>) -> Self {
            TwoEventSwitch {
                routes: BTreeMap::new(),
                ports: ports
                    .into_iter()
                    .map(|cfg| PortState { cfg, queue: VecDeque::new(), transmitting: false })
                    .collect(),
                fabric_latency: SimDuration::from_micros(10),
                stats: SwitchStats::default(),
                injector: None,
                dropped_msgs: 0,
                label: label.into(),
            }
        }

        /// Install a PVC: `(in port, vpi, vci)` → `(out port, vpi, vci)`.
        pub fn add_route(&mut self, key: VcKey, route: VcRoute) {
            assert!(route.port < self.ports.len(), "route to nonexistent port");
            self.routes.insert(key, route);
        }

        fn start_tx(&mut self, ctx: &mut Ctx<'_>, port: usize) {
            let p = &mut self.ports[port];
            if p.transmitting || p.queue.is_empty() {
                return;
            }
            p.transmitting = true;
            let tx = SimDuration::transmission((ATM_CELL_BYTES * 8) as u64, p.cfg.rate.bps());
            if ctx.observing() {
                // One span per cell on this output port's transmitter.
                let track = format!("{}/p{port}", self.label);
                ctx.span(&track, "cell", ctx.now(), ctx.now() + tx);
            }
            ctx.timer_in(tx, gtw_desim::component::msg(PortTxDone(port)));
        }
    }

    impl Component for TwoEventSwitch {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            if m.is::<CellArrive>() {
                let CellArrive { port, cell } = *gtw_desim::component::downcast::<CellArrive>(m);
                let mut buffer_factor = 1.0;
                if let Some(inj) = self.injector.as_mut() {
                    if let Some(cause) = inj.judge(ctx.now()) {
                        match cause {
                            FaultCause::Outage => self.stats.fault_outage += 1,
                            FaultCause::Burst => self.stats.fault_burst += 1,
                            FaultCause::Loss | FaultCause::HeaderError => {
                                self.stats.fault_loss += 1
                            }
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
                if p.queue.len() >= buffer_cells {
                    self.stats.overflow += 1;
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
}

#[cfg(test)]
mod tests {
    use super::two_event::TwoEventSwitch;
    use super::*;
    use crate::aal5::segment;
    use gtw_desim::component::msg;
    use gtw_desim::fault::{FaultSpec, FaultStats, LossModel, Schedule, Window};
    use gtw_desim::{Observer, RunResult, Simulator, Span, StreamRng};
    use proptest::prelude::*;

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

        // A CLP-tagged cell that finds the buffer full is tail-dropped
        // like any other: thirty one-cell PDUs arriving together, tagged
        // or not, leave the same counters and the same delivery log.
        let train = |tagged: bool| {
            let (mut sim, sw, ep) = one_switch_setup(2);
            for k in 0..30u8 {
                for mut cell in segment(&[k; 40], 1, 100) {
                    cell.header.clp = tagged;
                    sim.send_in(SimDuration::ZERO, sw, msg(CellArrive { port: 0, cell }));
                }
            }
            sim.run();
            let e = sim.component::<CellEndpoint>(ep);
            (sim.component::<AtmSwitch>(sw).stats.clone(), e.delivered.clone(), e.errors)
        };
        let tagged = train(true);
        assert_eq!((tagged.0.overflow, tagged.1.len()), (28, 2), "{:?}", tagged.0);
        assert_eq!(tagged, train(false));
    }

    #[test]
    fn corrupted_header_discarded_at_input() {
        // Every header corrupted: each cell fails HEC at the input stage
        // and is counted as a discard, never switched.
        let (mut sim, sw, ep) = one_switch_setup(1000);
        let spec = FaultSpec { header_error_rate: 1.0, ..FaultSpec::default() };
        let injector = FaultInjector::new(1, "asx4000", spec);
        sim.component_mut::<AtmSwitch>(sw).injector = Some(injector);
        let cells = segment(&[1u8; 100], 1, 100);
        for cell in cells.iter().cloned() {
            sim.send_in(SimDuration::ZERO, sw, msg(CellArrive { port: 0, cell }));
        }
        sim.run();
        let s = sim.component::<AtmSwitch>(sw);
        assert_eq!(s.stats.hec_discard, cells.len() as u64);
        assert_eq!(s.stats.fault_hec, cells.len() as u64);
        assert_eq!(s.stats.switched, 0);
        assert!(sim.component::<CellEndpoint>(ep).delivered.is_empty());
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
    fn stray_messages_are_counted_not_fatal() {
        let (mut sim, sw, ep) = one_switch_setup(16);
        struct Stray;
        sim.send_in(SimDuration::ZERO, sw, msg(Stray));
        sim.send_in(SimDuration::ZERO, ep, msg(Stray));
        for cell in segment(&[5u8; 100], 1, 100) {
            sim.send_in(SimDuration::from_micros(1), sw, msg(CellArrive { port: 0, cell }));
        }
        // One that lands mid-transmission (where the transmit-done timer
        // used to) must not cut a cell short.
        sim.send_in(SimDuration::from_micros(2), sw, msg(Stray));
        sim.run();
        assert_eq!(sim.component::<AtmSwitch>(sw).dropped_msgs, 2);
        assert_eq!(sim.component::<CellEndpoint>(ep).dropped_msgs, 1);
        assert_eq!(sim.component::<CellEndpoint>(ep).delivered.len(), 1);
    }

    /// Propagation constant for tests: Jülich–Sankt Augustin ≈ 100 km.
    struct StageConfigPropagation;
    impl StageConfigPropagation {
        const JUELICH_GMD: SimDuration = SimDuration::from_micros(500);
    }

    // ---- differential tests against the two-event reference ----------

    /// What the harness needs of either switch implementation.
    trait Switch: Component {
        fn build(label: String, hop: &Hop, faults: Option<FaultInjector>) -> Self;
        fn route(&mut self, key: VcKey, route: VcRoute);
        fn set_next(&mut self, next: ComponentId);
        fn counters(&self) -> (SwitchStats, Option<FaultStats>, u64);
    }

    /// The two switches spell everything the harness touches alike.
    macro_rules! impl_switch {
        ($switch:ident) => {
            impl Switch for $switch {
                fn build(label: String, hop: &Hop, faults: Option<FaultInjector>) -> Self {
                    let mut sw = $switch::new(label, vec![hop.port.clone()]);
                    sw.fabric_latency = hop.fabric_latency;
                    sw.injector = faults;
                    sw
                }
                fn route(&mut self, key: VcKey, route: VcRoute) {
                    self.add_route(key, route);
                }
                fn set_next(&mut self, next: ComponentId) {
                    self.ports[0].cfg.next = next;
                }
                fn counters(&self) -> (SwitchStats, Option<FaultStats>, u64) {
                    (
                        self.stats.clone(),
                        self.injector.as_ref().map(|i| i.stats()),
                        self.dropped_msgs,
                    )
                }
            }
        };
    }
    impl_switch!(AtmSwitch);
    impl_switch!(TwoEventSwitch);

    /// A [`CellEndpoint`] that notes the instant of every completed PDU
    /// and of every reassembly error.
    #[derive(Default)]
    struct TimedEndpoint {
        inner: CellEndpoint,
        delivered_at: Vec<SimTime>,
        /// `(instant, [crc, length, oversize] so far)` at each error.
        errors: Vec<(SimTime, [u64; 3])>,
    }

    impl Component for TimedEndpoint {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let (delivered, errors) = (self.inner.delivered.len(), self.inner.errors);
            self.inner.handle(ctx, m);
            if self.inner.delivered.len() > delivered {
                self.delivered_at.push(ctx.now());
            }
            if self.inner.errors > errors {
                let e = &self.inner;
                self.errors.push((ctx.now(), [e.errors_crc, e.errors_length, e.errors_oversize]));
            }
        }
    }

    /// One switch of a tandem: its single output port (`next` is patched
    /// at wiring), fabric latency and fault spec.
    struct Hop {
        port: OutputPort,
        fabric_latency: SimDuration,
        faults: Option<FaultSpec>,
    }

    /// What is fed to the head switch.
    enum Injected {
        Parsed(AtmCell),
        Stray,
    }

    /// A tandem of switches into a [`TimedEndpoint`] and the cells fed to
    /// its head, at nondecreasing instants.
    struct Scenario {
        seed: u64,
        vcs: u16,
        hops: Vec<Hop>,
        arrivals: Vec<(SimTime, Injected)>,
    }

    /// In which order the tandem's components are registered. Every
    /// wiring in the repository is downstream-first (a switch is built
    /// knowing its successor), which gives it a smaller id than its feeder.
    #[derive(Clone, Copy)]
    enum Wiring {
        DownstreamFirst,
        UpstreamFirst,
    }

    /// Everything observable about a run.
    #[derive(PartialEq, Debug)]
    struct Outcome {
        delivered: Vec<(SimTime, (u8, u16), Vec<u8>)>,
        errors: Vec<(SimTime, [u64; 3])>,
        endpoint_strays: u64,
        switches: Vec<(SwitchStats, Option<FaultStats>, u64)>,
        /// Sorted by `(track, begin)`: the order of recording differs.
        spans: Vec<Span>,
    }

    fn sorted(mut spans: Vec<Span>) -> Vec<Span> {
        spans.sort_by(|a, b| {
            (&a.track, a.begin, a.end, &a.name).cmp(&(&b.track, b.begin, b.end, &b.name))
        });
        spans
    }

    /// Wire the tandem, run it to `horizon` (if any) and snapshot, then
    /// drain it and snapshot again. A span is known at admission now and
    /// was recorded when its transmission started, so at a horizon only
    /// those begun by then are compared.
    fn run<S: Switch>(
        sc: &Scenario,
        wiring: Wiring,
        horizon: Option<SimTime>,
    ) -> (Option<Outcome>, Outcome) {
        let mut sim = Simulator::new();
        let spans = Observer::recording();
        sim.observe(&spans);
        let n = sc.hops.len();
        // Two-phase wiring either way: register in the chosen order
        // (slot `n` is the endpoint), then patch every `next`.
        let order: Vec<usize> = match wiring {
            Wiring::DownstreamFirst => (0..=n).rev().collect(),
            Wiring::UpstreamFirst => (0..=n).collect(),
        };
        let mut ids = vec![ComponentId::placeholder(); n + 1];
        for i in order {
            ids[i] = match sc.hops.get(i) {
                None => sim.add_component(TimedEndpoint::default()),
                Some(hop) => {
                    let label = format!("sw{i}");
                    let inj = hop.faults.clone().map(|f| FaultInjector::new(sc.seed, &label, f));
                    let mut sw = S::build(label, hop, inj);
                    // Relabel hop by hop: VPI `1 + i` in, `2 + i` out.
                    let vpi = 1 + i as u8;
                    for vci in (0..sc.vcs).map(|v| 100 + v) {
                        sw.route(
                            VcKey { port: 0, vpi, vci },
                            VcRoute { port: 0, vpi: vpi + 1, vci },
                        );
                    }
                    sim.add_component(sw)
                }
            };
        }
        for i in 0..n {
            sim.component_mut::<S>(ids[i]).set_next(ids[i + 1]);
        }
        for (at, injected) in &sc.arrivals {
            let m = match injected {
                Injected::Parsed(cell) => msg(CellArrive { port: 0, cell: cell.clone() }),
                Injected::Stray => msg("stray"),
            };
            sim.send_at(*at, ids[0], m);
        }
        let outcome = |sim: &Simulator, begun_by: SimTime| {
            let ep = sim.component::<TimedEndpoint>(ids[n]);
            Outcome {
                delivered: ep
                    .delivered_at
                    .iter()
                    .zip(&ep.inner.delivered)
                    .map(|(&at, (vc, payload))| (at, *vc, payload.clone()))
                    .collect(),
                errors: ep.errors.clone(),
                endpoint_strays: ep.inner.dropped_msgs,
                switches: ids[..n].iter().map(|&id| sim.component::<S>(id).counters()).collect(),
                // The reference is dispatched twice per cell: the kernel's
                // own `dispatch` instants are not part of the comparison.
                spans: sorted(
                    spans
                        .snapshot()
                        .into_iter()
                        .filter(|s| s.name != "dispatch" && s.begin <= begun_by)
                        .collect(),
                ),
            }
        };
        let cut = horizon.map(|h| {
            let _ = sim.run_until(h);
            outcome(&sim, h)
        });
        assert_eq!(sim.run(), RunResult::Drained);
        (cut, outcome(&sim, SimTime::MAX))
    }

    /// The scenario generator's draws.
    struct Draw(StreamRng);

    impl Draw {
        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.0.below(options.len() as u64) as usize]
        }
        fn one_in(&mut self, n: u64) -> bool {
            self.0.below(n) == 0
        }
    }

    /// A random tandem: 1–3 switches, mostly at one rate (so a departure
    /// upstream and one downstream share a nanosecond), every buffer
    /// size, a seeded injector on a third of the switches; and 1–2 VCs of
    /// AAL5 frames interleaved cell by cell, some CLP-tagged (which no
    /// switch reads), some unroutable, in same-instant bursts and at gaps
    /// that are exact multiples of the head switch's cell time.
    fn scenario(seed: u64) -> Scenario {
        let mut draw = Draw(StreamRng::new(seed, "switch-differential"));
        let rates = [Bandwidth::OC3, Bandwidth::OC12, Bandwidth::OC48];
        let base_rate = draw.pick(&rates);
        let window = |from_us: u64, to_us: u64| {
            Window::new(SimTime::from_micros(from_us), SimTime::from_micros(to_us))
        };
        let hops: Vec<Hop> = (0..draw.pick(&[1, 2, 3]))
            .map(|_| {
                let port = OutputPort {
                    next: ComponentId::placeholder(),
                    next_port: 0,
                    rate: if draw.one_in(3) { draw.pick(&rates) } else { base_rate },
                    propagation: SimDuration::from_micros(draw.pick(&[0, 0, 500])),
                    buffer_cells: draw.pick(&[2, 8, 64, 4096]),
                };
                let faults = draw.one_in(3).then(|| FaultSpec {
                    outages: Schedule::new(vec![window(200, 400)]),
                    loss: LossModel::Iid { p: 0.05 },
                    header_error_rate: 0.02,
                    degrade: vec![(window(500, 1_200), 0.5)],
                });
                Hop { port, fabric_latency: SimDuration::from_micros(draw.pick(&[0, 10])), faults }
            })
            .collect();
        let vcs = draw.pick(&[1, 2]);
        let tagging = draw.one_in(2);
        let mut trains: Vec<std::vec::IntoIter<AtmCell>> = (0..vcs)
            .map(|v| {
                let mut cells = Vec::new();
                while cells.len() < 150 {
                    let payload = vec![cells.len() as u8; draw.pick(&[1, 40, 41, 200, 1_000])];
                    cells.extend(segment(&payload, 1, 100 + v));
                }
                cells.into_iter()
            })
            .collect();
        let cell_time = SimDuration::transmission(53 * 8, hops[0].port.rate.bps());
        let mut at = SimTime::ZERO;
        let mut arrivals = Vec::new();
        while !trains.is_empty() {
            // Whichever VC is drawn supplies the next cell: frames of the
            // two interleave mid-frame.
            let v = draw.pick(&[0, 1]) % trains.len();
            let Some(mut cell) = trains[v].next() else {
                trains.swap_remove(v);
                continue;
            };
            at += match draw.pick(&[0, 1, 2, 3]) {
                0 => SimDuration::ZERO,
                1 => cell_time * draw.pick(&[1, 2, 3]),
                2 => cell_time,
                _ => SimDuration::from_nanos(draw.pick(&[1, 700, 90_000])),
            };
            cell.header.clp = tagging && draw.one_in(3);
            if draw.one_in(40) {
                cell.header.vci = 999; // no route
            }
            arrivals.push((at, Injected::Parsed(cell)));
            if draw.one_in(200) {
                arrivals.push((at, Injected::Stray));
            }
        }
        Scenario { seed, vcs, hops, arrivals }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The one-event switch is the two-event switch, observed at the
        /// endpoint, in every counter, in every fault draw and in every
        /// span — at the end of a drained run and at a cut at a random
        /// instant.
        #[test]
        fn one_event_switch_matches_the_two_event_reference(seed in any::<u64>(), cut in 0.0f64..1.1) {
            let sc = scenario(seed);
            let last = sc.arrivals.last().expect("300 arrivals").0;
            let horizon = SimTime::from_nanos((last.as_nanos() as f64 * cut) as u64);
            let (ref_cut, ref_end) =
                run::<TwoEventSwitch>(&sc, Wiring::DownstreamFirst, Some(horizon));
            let (cut, end) = run::<AtmSwitch>(&sc, Wiring::DownstreamFirst, Some(horizon));
            prop_assert_eq!(&cut, &ref_cut, "at the horizon {:?}", horizon);
            prop_assert_eq!(&end, &ref_end, "after the drained run");
            // Stopping and resuming changes nothing, and neither does the
            // registration order (which does change the reference).
            prop_assert_eq!(&run::<AtmSwitch>(&sc, Wiring::DownstreamFirst, None).1, &end);
            prop_assert_eq!(&run::<AtmSwitch>(&sc, Wiring::UpstreamFirst, None).1, &end);
            // Conservation at every switch.
            let strays = sc.arrivals.iter().filter(|a| matches!(a.1, Injected::Stray)).count() as u64;
            let mut offered = sc.arrivals.len() as u64 - strays;
            for (i, (stats, _, dropped_msgs)) in end.switches.iter().enumerate() {
                prop_assert_eq!(stats.cells_in(), offered);
                prop_assert_eq!(*dropped_msgs, if i == 0 { strays } else { 0 });
                offered = stats.switched;
            }
        }
    }

    /// Five back-to-back cells through two equal-rate switches; the
    /// second buffers exactly one cell, so each arrival there falls on
    /// the nanosecond its predecessor departs.
    fn forced_ties() -> Scenario {
        let port = |buffer_cells| {
            OutputPort::simple(
                ComponentId::placeholder(),
                0,
                Bandwidth::OC3,
                SimDuration::ZERO,
                buffer_cells,
            )
        };
        let hop = |buffer_cells| Hop {
            port: port(buffer_cells),
            fabric_latency: SimDuration::from_micros(10),
            faults: None,
        };
        let cells = segment(&[7u8; 200], 1, 100);
        assert_eq!(cells.len(), 5);
        Scenario {
            seed: 0,
            vcs: 1,
            hops: vec![hop(4096), hop(1)],
            arrivals: cells.into_iter().map(|c| (SimTime::ZERO, Injected::Parsed(c))).collect(),
        }
    }

    #[test]
    fn registration_order_does_not_change_a_one_cell_buffer_tandem() {
        let sc = forced_ties();
        let down = run::<AtmSwitch>(&sc, Wiring::DownstreamFirst, None).1;
        let up = run::<AtmSwitch>(&sc, Wiring::UpstreamFirst, None).1;
        // The tie rule: a cell departing at `t` has freed its slot for
        // the arrival at `t`, so nothing overflows and the PDU arrives.
        assert_eq!(down.switches[1].0.overflow, 0);
        assert_eq!(down.delivered.len(), 1);
        assert_eq!(up, down);
        // With a timer per departure the outcome hung on component ids:
        // registered upstream-first, the arrival was handled before the
        // transmit-done of the same instant and met a full buffer.
        let ref_down = run::<TwoEventSwitch>(&sc, Wiring::DownstreamFirst, None).1;
        let ref_up = run::<TwoEventSwitch>(&sc, Wiring::UpstreamFirst, None).1;
        assert_eq!(ref_down, down);
        assert_eq!(ref_up.switches[1].0.overflow, 2);
        assert!(ref_up.delivered.is_empty());
    }
}
