//! Cross-crate integration: the full network stack, from ATM cells to
//! testbed-level throughput (gtw-desim + gtw-net + gtw-core).

use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::{SimDuration, Simulator};
use gtw_net::aal5::segment;
use gtw_net::ip::IpConfig;
use gtw_net::sdh::StmLevel;
use gtw_net::switch::{AtmSwitch, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::transfer::{BulkTransfer, Protocol};
use gtw_net::units::Bandwidth;

#[test]
fn cell_level_path_through_two_switches_delivers_pdus() {
    // A PVC across both ASX-4000s at cell granularity, verifying the
    // cell/AAL5/switch stack end to end with WAN propagation.
    let mut sim = Simulator::new();
    let ep = sim.add_component(CellEndpoint::default());
    let mut gmd = AtmSwitch::new(
        "ASX-GMD",
        vec![OutputPort::simple(ep, 0, Bandwidth::OC12, SimDuration::from_micros(5), 8192)],
    );
    gmd.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
    let gmd = sim.add_component(gmd);
    let mut fzj = AtmSwitch::new(
        "ASX-FZJ",
        vec![OutputPort::simple(gmd, 0, Bandwidth::OC48, SimDuration::from_micros(500), 8192)],
    );
    fzj.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
    let fzj = sim.add_component(fzj);

    // Three PDUs back to back.
    let payloads: Vec<Vec<u8>> =
        (0..3).map(|k| (0..2000).map(|i| ((i + k * 7) % 251) as u8).collect()).collect();
    for p in &payloads {
        for cell in segment(p, 1, 100) {
            sim.send_in(
                SimDuration::ZERO,
                fzj,
                gtw_desim::component::msg(gtw_net::switch::CellArrive { port: 0, cell }),
            );
        }
    }
    sim.run();
    let e = sim.component::<CellEndpoint>(ep);
    assert_eq!(e.errors, 0);
    assert_eq!(e.delivered.len(), 3);
    for (i, (vc, data)) in e.delivered.iter().enumerate() {
        assert_eq!(*vc, (3, 300));
        assert_eq!(data, &payloads[i]);
    }
    // WAN propagation is visible in the clock.
    assert!(sim.now().as_micros_f64() > 500.0);
}

#[test]
fn event_driven_tcp_tracks_analytic_model_across_testbed_paths() {
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    for (a, b) in [(tb.t3e_600, tb.e5000), (tb.t3e_600, tb.sp2), (tb.t90, tb.e5000)] {
        let m = tb.measure(a, b, 16 * 1024 * 1024, 4 * 1024 * 1024);
        let rel = (m.report.goodput.mbps() - m.predicted_mbps).abs() / m.predicted_mbps;
        assert!(
            rel < 0.2,
            "{} -> {}: measured {:.1} vs predicted {:.1} Mbit/s",
            m.from,
            m.to,
            m.report.goodput.mbps(),
            m.predicted_mbps
        );
        assert_eq!(m.report.retransmits, 0, "{} -> {}", m.from, m.to);
    }
}

#[test]
fn mtu_sweep_shows_the_64k_argument() {
    // The testbed's signature argument: large IP MTUs are what make
    // supercomputer TCP fast. Sweep the T3E->E5000 path.
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).unwrap();
    let mut last = 0.0;
    for mtu in [1500u64, 9180, 65535] {
        let hops = tb.topology.path_hops(&path, mtu);
        let xfer = BulkTransfer {
            hops,
            ip: IpConfig { mtu },
            bytes: 16 * 1024 * 1024,
            protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
        };
        let g = xfer.run().goodput.mbps();
        assert!(g > last, "mtu {mtu}: {g} <= {last}");
        last = g;
    }
    assert!(last > 300.0, "64 KB MTU should exceed 300 Mbit/s: {last}");
}

#[test]
fn sdh_line_vs_payload_consistency() {
    // The topology's WAN media must match the SDH payload arithmetic.
    for (lvl, line) in [(StmLevel::Stm4, Bandwidth::OC12), (StmLevel::Stm16, Bandwidth::OC48)] {
        let payload = lvl.payload_rate().bps();
        let line = line.bps();
        assert!((payload / line - 0.9630).abs() < 1e-3); // 260/270 columns
    }
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    assert!(tb.wan_payload_rate(LinkEra::Oc48Upgrade).gbps() > 2.0);
}

#[test]
fn window_sweep_on_the_wan_path() {
    // Window-limited at small windows, pipe-limited at large ones.
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let mut goodputs = Vec::new();
    for w in [16 * 1024u64, 64 * 1024, 512 * 1024, 4 * 1024 * 1024] {
        let m = tb.measure(tb.t3e_600, tb.e5000, 8 * 1024 * 1024, w);
        goodputs.push(m.report.goodput.mbps());
    }
    for pair in goodputs.windows(2) {
        assert!(pair[1] >= pair[0] * 0.98, "{goodputs:?}");
    }
    assert!(
        goodputs.last().unwrap() / goodputs.first().unwrap() > 1.5,
        "window should matter on a WAN path: {goodputs:?}"
    );
}
