//! The cell path, pinned: FNV-1a digests of everything a cell run leaves
//! behind — every switch's `SwitchStats`, the injector's counters, and
//! the endpoint's `(time, vc, payload)` delivery log with its per-cause
//! reassembly errors. The constants were captured while `AtmSwitch`
//! still armed a `PortTxDone` timer per cell; the one-event-per-cell
//! switch must reproduce every admission decision, every injector draw
//! and every downstream arrival instant. Only the kernel's event count
//! moved — two of a cell's five events were those timers — so it is
//! pinned at its new value beside the old one. The PVC digest, the
//! tail-drop overload and the faulted tandem (no policer, no selective
//! or frame-level discard) were re-captured, digesting the surviving
//! counters by name, on the commit before the CLP threshold and EPD/PPD
//! left the switch; those runs read 0 in each of the three deleted
//! counters there.

use gtw_desim::component::{msg, Component, Ctx, Msg};
use gtw_desim::fault::{FaultInjector, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::{ComponentId, SimDuration, SimTime, Simulator, StreamRng};
use gtw_net::aal5::segment;
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::units::Bandwidth;

/// The cell PVC's block as the kernel-bench bin (deleted since) printed it
/// on the commit before the departure-on-arrival switch.
const PVC_CELLS: u64 = 79_936;
const PVC_PDUS: usize = 40_208;
const PVC_DELIVERED_DIGEST: u64 = 0x0ac5_8e0a_e61b_5aae;
/// Five events per cell (arrival and timer at each switch, arrival at
/// the endpoint) were 399 680; three are 239 808.
const PVC_EVENTS: u64 = 3 * PVC_CELLS;
/// [`digest`] of the whole PVC run.
const PVC_DIGEST: u64 = 0x1994_b6d6_a7e1_35a9;

/// `(seed, digest)` of the tail-drop frame overload and of the
/// injector-faulted tandem.
const PINNED_OVERLOAD: [(u64, u64); 2] =
    [(1999, 0xb0d7_8052_0ab3_fd15), (2026, 0x8a99_b83b_77ed_1718)];
const PINNED_FAULTED_TANDEM: [(u64, u64); 2] =
    [(1999, 0x6f7b_1fab_44ca_bfe8), (2026, 0x6fa9_9f7d_a8d6_7737)];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A [`CellEndpoint`] that also notes the instant of every completed
/// PDU and every reassembly error.
#[derive(Default)]
struct TimedEndpoint {
    inner: CellEndpoint,
    /// `(instant, PDUs delivered so far, errors so far)` at each change.
    log: Vec<(SimTime, usize, u64)>,
}

impl Component for TimedEndpoint {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        let before = (self.inner.delivered.len(), self.inner.errors);
        self.inner.handle(ctx, m);
        let after = (self.inner.delivered.len(), self.inner.errors);
        if after != before {
            self.log.push((ctx.now(), after.0, after.1));
        }
    }
    fn name(&self) -> &str {
        "timed-endpoint"
    }
}

/// Everything observable after a drained run, as one digest.
fn digest(sim: &Simulator, switches: &[ComponentId], endpoint: ComponentId) -> u64 {
    let mut h = FNV_OFFSET;
    for &id in switches {
        let sw = sim.component::<AtmSwitch>(id);
        let faults = sw.injector.as_ref().map(|i| i.stats());
        let s = &sw.stats;
        let counters = format!(
            "switched={} unroutable={} overflow={} hec_discard={} fault_outage={} \
             fault_loss={} fault_burst={} fault_hec={}",
            s.switched,
            s.unroutable,
            s.overflow,
            s.hec_discard,
            s.fault_outage,
            s.fault_loss,
            s.fault_burst,
            s.fault_hec
        );
        h = fnv(h, format!("{counters}|{faults:?}|{}", sw.dropped_msgs).bytes());
    }
    let ep = sim.component::<TimedEndpoint>(endpoint);
    for &(at, delivered, errors) in &ep.log {
        h = fnv(h, format!("{}:{delivered}:{errors};", at.as_nanos()).bytes());
    }
    for ((vpi, vci), payload) in &ep.inner.delivered {
        h = fnv(h, format!("{vpi}/{vci}:").bytes());
        h = fnv(h, payload.iter().copied());
    }
    let e = &ep.inner;
    fnv(
        h,
        format!("{}/{}/{}/{}", e.errors_crc, e.errors_length, e.errors_oversize, e.dropped_msgs)
            .bytes(),
    )
}

#[test]
fn kernel_bench_cell_pvc_is_pinned() {
    // The deleted kernel-bench bin's `cell_pvc`, component for
    // component and byte for byte.
    let mut sim = Simulator::new();
    let endpoint = sim.add_component(TimedEndpoint::default());
    let port = |next, rate, prop_us| {
        vec![OutputPort::simple(next, 0, rate, SimDuration::from_micros(prop_us), 4096)]
    };
    let mut gmd = AtmSwitch::new("gmd", port(endpoint, Bandwidth::OC12, 5));
    gmd.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
    let gmd = sim.add_component(gmd);
    let mut fzj = AtmSwitch::new("fzj", port(gmd, Bandwidth::OC48, 500));
    fzj.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
    let fzj = sim.add_component(fzj);

    let mut rng = StreamRng::new(1999, "kernel-bench-cells");
    let mut cells = 0u64;
    for k in 0..PVC_PDUS {
        let mut payload = vec![0u8; if k % 193 == 192 { 9180 } else { 40 }];
        rng.fill_bytes(&mut payload);
        for cell in segment(&payload, 1, 100) {
            sim.send_at(SimTime::from_nanos(cells * 700), fzj, msg(CellArrive { port: 0, cell }));
            cells += 1;
        }
    }
    sim.run();

    assert_eq!(cells, PVC_CELLS);
    let switched = |id| sim.component::<AtmSwitch>(id).stats.switched;
    assert_eq!((switched(fzj), switched(gmd)), (cells, cells));
    let ep = &sim.component::<TimedEndpoint>(endpoint).inner;
    assert_eq!((ep.delivered.len(), ep.errors + ep.dropped_msgs), (PVC_PDUS, 0));
    let got = fnv(FNV_OFFSET, ep.delivered.iter().flat_map(|(_, p)| p.iter().copied()));
    assert_eq!(got, PVC_DELIVERED_DIGEST, "delivered digest {got:#018x}");
    assert_eq!(sim.events_processed(), PVC_EVENTS);
    let got = digest(&sim, &[fzj, gmd], endpoint);
    assert_eq!(got, PVC_DIGEST, "run digest {got:#018x}");
}

/// The 2× frame overload `tests/overload.rs` once ran against EPD, with
/// that suite's seeded draws: 200 frames of 1000–3000 bytes blasted at
/// 2–4× the OC-3 cell rate into a 128-cell tail-drop buffer.
fn frame_overload(seed: u64) -> u64 {
    let mut rng = StreamRng::new(seed, "overload/epd-ab");
    let frame_bytes = 1000 + rng.below(2000) as usize;
    let overload = rng.uniform_in(2.0, 4.0);
    let mut sim = Simulator::new();
    let ep = sim.add_component(TimedEndpoint::default());
    let port = OutputPort::simple(ep, 0, Bandwidth::OC3, SimDuration::from_micros(5), 128);
    let mut sw = AtmSwitch::new("epd-ab", vec![port]);
    sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 1, vci: 100 });
    let sw = sim.add_component(sw);
    let oc3_cell_rate = Bandwidth::OC3.bps() / (53.0 * 8.0);
    let interval = SimDuration::from_secs_f64(1.0 / (oc3_cell_rate * overload));
    let mut t = SimTime::ZERO;
    for k in 0..200usize {
        let payload = vec![k as u8; frame_bytes];
        for cell in segment(&payload, 1, 100) {
            sim.send_at(t, sw, msg(CellArrive { port: 0, cell }));
            t += interval;
        }
    }
    sim.run();
    let stats = &sim.component::<AtmSwitch>(sw).stats;
    assert!(stats.overflow > 0, "{stats:?}");
    digest(&sim, &[sw], ep)
}

#[test]
fn tail_drop_frame_overload_is_pinned() {
    for (seed, pinned) in PINNED_OVERLOAD {
        let got = frame_overload(seed);
        assert_eq!(got, pinned, "seed {seed}: digest {got:#018x}");
    }
}

/// Two VCs of seeded frames through a faulted OC-12 switch, a 500 µs
/// trunk, and an OC-3 switch that is the bottleneck: every admission
/// branch and every injector verdict fires, and tail drop mutilates all
/// but a few frames.
fn faulted_tandem(seed: u64) -> u64 {
    let vcis = [100u16, 101];
    let mut sim = Simulator::new();
    let ep = sim.add_component(TimedEndpoint::default());
    let port = |next, rate, prop_us, buffer_cells| {
        vec![OutputPort::simple(next, 0, rate, SimDuration::from_micros(prop_us), buffer_cells)]
    };
    let mut edge = AtmSwitch::new("edge", port(ep, Bandwidth::OC3, 5, 48));
    for vci in vcis {
        edge.add_route(VcKey { port: 0, vpi: 2, vci }, VcRoute { port: 0, vpi: 3, vci });
    }
    let edge = sim.add_component(edge);
    let window =
        |from_us, to_us| Window::new(SimTime::from_micros(from_us), SimTime::from_micros(to_us));
    let spec = FaultSpec {
        outages: Schedule::new(vec![window(900, 1_100)]),
        loss: LossModel::Iid { p: 0.01 },
        header_error_rate: 0.005,
        degrade: vec![(window(1_500, 2_500), 0.25)],
    };
    let mut core = AtmSwitch::new("core", port(edge, Bandwidth::OC12, 500, 64))
        .with_faults(FaultInjector::new(seed, "core", spec));
    for (k, vci) in vcis.into_iter().enumerate() {
        core.add_route(VcKey { port: k, vpi: 1, vci }, VcRoute { port: 0, vpi: 2, vci });
    }
    let core = sim.add_component(core);

    let mut rng = StreamRng::new(seed, "cell-path-pinned/tandem");
    for (k, vci) in vcis.into_iter().enumerate() {
        // Each VC offers a cell per µs in bursts: together more than the
        // OC-12 carries.
        let mut t = SimTime::from_nanos(rng.below(2_000));
        for _ in 0..150 {
            let mut payload = vec![0u8; 1 + rng.below(1_500) as usize];
            rng.fill_bytes(&mut payload);
            for cell in segment(&payload, 1, vci) {
                sim.send_at(t, core, msg(CellArrive { port: k, cell }));
                t += SimDuration::from_micros(1);
            }
            t += SimDuration::from_nanos(rng.below(8_000));
        }
    }
    sim.run();
    let (c, e) = (&sim.component::<AtmSwitch>(core).stats, &sim.component::<AtmSwitch>(edge).stats);
    assert!(c.fault_outage > 0 && c.fault_loss > 0 && c.fault_hec > 0, "{c:?}");
    assert!(c.overflow > 0 && e.overflow > 0, "{c:?} {e:?}");
    assert!(e.switched > 0 && !sim.component::<TimedEndpoint>(ep).inner.delivered.is_empty());
    digest(&sim, &[core, edge], ep)
}

#[test]
fn faulted_tandem_is_pinned() {
    for (seed, pinned) in PINNED_FAULTED_TANDEM {
        let got = faulted_tandem(seed);
        assert_eq!(got, pinned, "seed {seed}: digest {got:#018x}");
    }
}
