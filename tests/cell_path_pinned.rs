//! The cell path, pinned: FNV-1a digests of everything a cell run leaves
//! behind — every switch's `SwitchStats`, the injector's counters, and
//! the endpoint's `(time, vc, payload)` delivery log with its per-cause
//! reassembly errors. The constants were captured while `AtmSwitch`
//! still armed a `PortTxDone` timer per cell; the one-event-per-cell
//! switch must reproduce every admission decision, every injector draw
//! and every downstream arrival instant. Only the kernel's event count
//! moved — two of a cell's five events were those timers — so it is
//! pinned at its new value beside the old one.

use gtw_desim::component::{msg, Component, Ctx, Msg};
use gtw_desim::fault::{FaultInjector, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::{ComponentId, SimDuration, SimTime, Simulator, StreamRng};
use gtw_net::aal5::segment;
use gtw_net::policing::{LeakyBucket, PolicingAction};
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::units::Bandwidth;

/// `kernel_bench --check`'s `cell_pvc` block on the parent commit.
const PVC_CELLS: u64 = 79_936;
const PVC_PDUS: usize = 40_208;
const PVC_DELIVERED_DIGEST: u64 = 0x0ac5_8e0a_e61b_5aae;
/// Five events per cell (arrival and timer at each switch, arrival at
/// the endpoint) were 399 680; three are 239 808.
const PVC_EVENTS: u64 = 3 * PVC_CELLS;

/// `(seed, EPD on, EPD off)` of the 2× frame overload, and `(seed,
/// digest)` of the CLP-policed, injector-faulted tandem.
const PINNED_OVERLOAD: [(u64, u64, u64); 2] = [
    (1999, 0xc742_bfd0_efbb_e618, 0x4063_d5c9_6d4e_a0d7),
    (2026, 0xce32_fb04_27ec_6a9f, 0x1f37_d556_19d9_37ee),
];
const PINNED_FAULTED_TANDEM: [(u64, u64); 2] =
    [(1999, 0x2ba8_1090_edce_dfde), (2026, 0x0033_d409_0885_0e5f)];

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
        h = fnv(h, format!("{:?}|{faults:?}|{}", sw.stats, sw.dropped_msgs).bytes());
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
    // `crates/bench/src/bin/kernel_bench.rs`'s `cell_pvc`, component for
    // component and byte for byte.
    let mut sim = Simulator::new();
    let endpoint = sim.add_component(CellEndpoint::default());
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
    let ep = sim.component::<CellEndpoint>(endpoint);
    assert_eq!((ep.delivered.len(), ep.errors + ep.dropped_msgs), (PVC_PDUS, 0));
    let got = fnv(FNV_OFFSET, ep.delivered.iter().flat_map(|(_, p)| p.iter().copied()));
    assert_eq!(got, PVC_DELIVERED_DIGEST, "delivered digest {got:#018x}");
    assert_eq!(sim.events_processed(), PVC_EVENTS);
}

/// `tests/overload.rs`'s `frame_overload` with that suite's seeded
/// draws: 200 frames of 1000–3000 bytes blasted at 2–4× the OC-3 cell
/// rate into a 128-cell buffer, with EPD at 64 cells or plain tail drop.
fn frame_overload(seed: u64, epd: Option<usize>) -> u64 {
    let mut rng = StreamRng::new(seed, "overload/epd-ab");
    let frame_bytes = 1000 + rng.below(2000) as usize;
    let overload = rng.uniform_in(2.0, 4.0);
    let mut sim = Simulator::new();
    let ep = sim.add_component(TimedEndpoint::default());
    let mut port = OutputPort::simple(ep, 0, Bandwidth::OC3, SimDuration::from_micros(5), 128);
    port.epd_threshold = epd;
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
    match epd {
        Some(_) => assert!(stats.epd_discard > 0, "{stats:?}"),
        None => assert!(stats.overflow > 0 && stats.frame_discards() == 0, "{stats:?}"),
    }
    digest(&sim, &[sw], ep)
}

#[test]
fn frame_overload_with_and_without_epd_is_pinned() {
    for (seed, epd_on, epd_off) in PINNED_OVERLOAD {
        let got = (frame_overload(seed, Some(64)), frame_overload(seed, None));
        assert_eq!(
            got,
            (epd_on, epd_off),
            "seed {seed}: digests ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

/// Two VCs of seeded frames, policed (tagging) at the UNI to half of
/// what they offer, through a faulted OC-12 switch with selective
/// discard and EPD, a 500 µs trunk, and an OC-3 switch that is the
/// bottleneck: every admission branch and every injector verdict fires.
fn faulted_tandem(seed: u64) -> u64 {
    let vcis = [100u16, 101];
    let mut sim = Simulator::new();
    let ep = sim.add_component(TimedEndpoint::default());
    let port = |next, rate, prop_us, buffer_cells, clp_threshold, epd| {
        let simple =
            OutputPort::simple(next, 0, rate, SimDuration::from_micros(prop_us), buffer_cells);
        vec![OutputPort { clp_threshold, ..simple }.with_epd(epd)]
    };
    let mut edge = AtmSwitch::new("edge", port(ep, Bandwidth::OC3, 5, 48, 24, 32));
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
    let mut core = AtmSwitch::new("core", port(edge, Bandwidth::OC12, 500, 64, 16, 40))
        .with_faults(FaultInjector::new(seed, "core", spec));
    for (k, vci) in vcis.into_iter().enumerate() {
        core.add_route(VcKey { port: k, vpi: 1, vci }, VcRoute { port: 0, vpi: 2, vci });
    }
    let core = sim.add_component(core);

    let mut rng = StreamRng::new(seed, "cell-path-pinned/tandem");
    for (k, vci) in vcis.into_iter().enumerate() {
        // Each VC offers a cell per µs in bursts (together more than the
        // OC-12 carries); its contract is a cell per 2 µs.
        let mut bucket = LeakyBucket::new(0.5e6, SimDuration::from_micros(6), PolicingAction::Tag);
        let mut t = SimTime::from_nanos(rng.below(2_000));
        for _ in 0..150 {
            let mut payload = vec![0u8; 1 + rng.below(1_500) as usize];
            rng.fill_bytes(&mut payload);
            for mut cell in segment(&payload, 1, vci) {
                bucket.police(&mut cell, t);
                sim.send_at(t, core, msg(CellArrive { port: k, cell }));
                t += SimDuration::from_micros(1);
            }
            t += SimDuration::from_nanos(rng.below(8_000));
        }
    }
    sim.run();
    let (c, e) = (&sim.component::<AtmSwitch>(core).stats, &sim.component::<AtmSwitch>(edge).stats);
    assert!(c.fault_outage > 0 && c.fault_loss > 0 && c.fault_hec > 0, "{c:?}");
    assert!(c.overflow > 0 && c.clp_discard > 0 && c.ppd_discard > 0, "{c:?}");
    assert!(e.clp_discard > 0 && e.epd_discard > 0 && e.ppd_discard > 0, "{e:?}");
    assert!(e.switched > 0 && sim.component::<TimedEndpoint>(ep).inner.delivered.len() > 10);
    digest(&sim, &[core, edge], ep)
}

#[test]
fn clp_policed_faulted_tandem_is_pinned() {
    for (seed, pinned) in PINNED_FAULTED_TANDEM {
        let got = faulted_tandem(seed);
        assert_eq!(got, pinned, "seed {seed}: digest {got:#018x}");
    }
}
