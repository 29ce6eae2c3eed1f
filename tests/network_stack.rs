//! Cross-crate integration: the full network stack, from ATM cells to
//! testbed-level throughput (gtw-desim + gtw-net + gtw-core).

use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::{SimDuration, SimTime, Simulator};
use gtw_net::aal5::segment;
use gtw_net::cell::{AtmCell, CellHeader};
use gtw_net::ip::IpConfig;
use gtw_net::policing::{LeakyBucket, PolicingAction, Verdict};
use gtw_net::sdh::StmLevel;
use gtw_net::stripe::{stripe_offsets, StripedTransfer};
use gtw_net::switch::{AtmSwitch, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::transfer::{BulkTransfer, Protocol, RunOptions};
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

/// A striped transfer over the real T3E→E5000 testbed path.
fn striped_testbed_transfer(streams: usize, bytes: u64) -> StripedTransfer {
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).unwrap();
    let mtu = 9180;
    StripedTransfer {
        hops: tb.topology.path_hops(&path, mtu),
        ip: IpConfig { mtu },
        bytes,
        window_bytes: 1024 * 1024,
        streams,
    }
}

#[test]
fn striping_conserves_every_byte_exactly_once() {
    // The conservation contract of WAN striping: whatever the stream
    // count, the union of stripe ranges tiles the payload and each
    // stripe's receiver delivers exactly its range — no byte twice, no
    // byte dropped, at 1, 2, 4 and 8 streams.
    const BYTES: u64 = 6_000_007; // prime remainder exercises uneven split
    for streams in [1usize, 2, 4, 8] {
        let xfer = striped_testbed_transfer(streams, BYTES);
        let (report, run) = xfer.run_with(&RunOptions::default());
        assert!(report.completed, "{streams} streams");
        assert_eq!(report.stripes.len(), streams);
        let mut expect_offset = 0u64;
        for (k, s) in report.stripes.iter().enumerate() {
            // Merge order is stripe order by construction, independent
            // of which stream finished first.
            assert_eq!(s.flow, (k + 1) as u64, "{streams} streams");
            assert_eq!(s.range.0, expect_offset, "{streams} streams stripe {k}");
            assert_eq!(s.delivered, s.range.1, "{streams} streams stripe {k}");
            expect_offset += s.range.1;
        }
        assert_eq!(expect_offset, BYTES, "{streams} streams");
        let delivered: u64 = run.receivers.iter().map(|r| r.bytes_delivered).sum();
        assert_eq!(delivered, BYTES, "{streams} streams");
        // The data demux attributed every arriving segment to a stripe.
        let demux = run.demuxes.iter().find(|d| d.label == "data-demux").unwrap();
        assert_eq!(demux.unroutable, 0);
        assert_eq!(demux.routed.len(), streams);
        // Tiling sanity straight from the splitter too.
        let offs = stripe_offsets(BYTES, streams);
        assert_eq!(offs.iter().map(|&(_, l)| l).sum::<u64>(), BYTES);
    }
}

#[test]
fn striped_reports_are_deterministic_and_shard_invariant() {
    // Same configuration, same bytes: two sequential runs are
    // byte-identical, and the sharded kernel at 2 and 4 shards must
    // reproduce the sequential report bit for bit — the striping layer
    // rides on the same ordering contract as single-stream transfers.
    let xfer = striped_testbed_transfer(4, 2_000_000);
    let (_, a) = xfer.run_with(&RunOptions::default());
    let (_, b) = xfer.run_with(&RunOptions::default());
    let seq = a.to_json().dump();
    assert_eq!(seq, b.to_json().dump(), "two sequential runs diverged");
    for shards in [2usize, 4] {
        let (report, run) = xfer.run_with(&RunOptions { shards, ..RunOptions::default() });
        assert!(report.completed, "{shards} shards");
        assert_eq!(run.to_json().dump(), seq, "{shards} shards");
    }
}

#[test]
fn striped_transfer_with_failed_path_fails_cleanly() {
    // A permanent outage on the WAN hop from t = 5 ms on: no stream can
    // finish, and the run must report that cleanly (per-stripe
    // `elapsed: None`, `completed: false`) at the horizon instead of
    // panicking or spinning. A transient variant of the same plan must
    // recover every byte.
    use gtw_desim::fault::{FaultPlan, FaultSpec, Schedule, Window};
    let xfer = striped_testbed_transfer(4, 2_000_000);
    // The widest-propagation hop is the WAN segment — fault that label.
    let wan_hop = {
        let (w, _) = xfer.hops.iter().enumerate().max_by_key(|(_, h)| h.propagation).unwrap();
        format!("hop{w}")
    };
    let mut plan = FaultPlan::new(11);
    plan.add(
        &wan_hop,
        FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(5),
                SimTime::MAX,
            )]),
            ..FaultSpec::default()
        },
    );
    let horizon = SimTime::ZERO + SimDuration::from_secs(2);
    let (report, run) = xfer.run_with(&RunOptions {
        faults: Some(&plan),
        horizon: Some(horizon),
        ..RunOptions::default()
    });
    assert!(!report.completed, "permanent outage cannot complete");
    assert!(report.stripes.iter().all(|s| s.elapsed.is_none()));
    let delivered: u64 = run.receivers.iter().map(|r| r.bytes_delivered).sum();
    assert!(delivered < xfer.bytes, "outage must stop delivery");
    // Transient outage: all four streams retransmit through it and the
    // conservation contract holds again.
    let mut plan = FaultPlan::new(11);
    plan.add(
        &wan_hop,
        FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(5),
                SimTime::ZERO + SimDuration::from_millis(25),
            )]),
            ..FaultSpec::default()
        },
    );
    let (report, run) = xfer.run_with(&RunOptions { faults: Some(&plan), ..RunOptions::default() });
    assert!(report.completed, "transient outage must recover");
    assert!(report.stripes.iter().any(|s| s.retransmits > 0), "recovery implies retransmission");
    for s in &report.stripes {
        assert_eq!(s.delivered, s.range.1);
    }
    let delivered: u64 = run.receivers.iter().map(|r| r.bytes_delivered).sum();
    assert_eq!(delivered, xfer.bytes);
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

#[test]
fn policer_protects_a_video_contract_end_to_end() {
    // A 2x-overdriven source policed to contract: conforming cell
    // spacing at the output respects the contracted rate.
    let mut bucket =
        LeakyBucket::new(10_000.0, SimDuration::from_micros(50), PolicingAction::Discard);
    let mut t = SimTime::ZERO;
    let mut passed = 0u64;
    for _ in 0..20_000 {
        let mut c = AtmCell::new(CellHeader::data(1, 42), b"v");
        if bucket.police(&mut c, t) == Verdict::Conforming {
            passed += 1;
        }
        t += SimDuration::from_micros(50); // 20k cells/s offered
    }
    let rate = passed as f64 / t.as_secs_f64();
    assert!((rate - 10_000.0).abs() / 10_000.0 < 0.02, "policed rate {rate}");
}

#[test]
fn switch_and_policer_compose_in_one_simulation() {
    use gtw_net::switch::{AtmSwitch, CellEndpoint, OutputPort, VcKey, VcRoute};
    use gtw_net::units::Bandwidth;
    // Policed flow through a CLP-aware switch: conforming PDUs survive a
    // congested port; the tagged excess is shed without corrupting them.
    let mut sim = Simulator::new();
    let ep = sim.add_component(CellEndpoint::default());
    let mut sw = AtmSwitch::new(
        "qos-sw",
        vec![OutputPort {
            next: ep,
            next_port: 0,
            rate: Bandwidth::OC3,
            propagation: SimDuration::from_micros(5),
            buffer_cells: 128,
            clp_threshold: 16,
            epd_threshold: None,
        }],
    );
    sw.add_route(VcKey { port: 0, vpi: 1, vci: 7 }, VcRoute { port: 0, vpi: 1, vci: 7 });
    let sw = sim.add_component(sw);
    // One conforming PDU stream at a modest rate, plus an overdriven
    // tagged burst on the same VC.
    let mut bucket = LeakyBucket::new(50_000.0, SimDuration::from_micros(100), PolicingAction::Tag);
    let mut t = SimTime::ZERO;
    let mut pdus = 0;
    for k in 0..40u64 {
        let payload = vec![k as u8; 200];
        for mut cell in gtw_net::aal5::segment(&payload, 1, 7) {
            bucket.police(&mut cell, t);
            sim.send_at(
                t,
                sw,
                gtw_desim::component::msg(gtw_net::switch::CellArrive { port: 0, cell }),
            );
            t += SimDuration::from_micros(if k.is_multiple_of(2) { 25 } else { 2 });
        }
        pdus += 1;
    }
    sim.run();
    let e = sim.component::<CellEndpoint>(ep);
    // Some PDUs survive intact; any PDU that lost tagged cells is
    // *detected* (AAL5 CRC), never silently corrupted.
    assert!(!e.delivered.is_empty());
    assert!(e.delivered.len() + (e.errors as usize) <= pdus);
    for (_, data) in &e.delivered {
        let k = data[0];
        assert!(data.iter().all(|&b| b == k), "corrupted PDU slipped through");
    }
}
