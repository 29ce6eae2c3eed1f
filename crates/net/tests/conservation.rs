//! Conservation-law property tests over the event-driven stack.
//!
//! Every packet or cell that enters a component must be accounted for
//! exactly once: forwarded, delivered, or attributed to a named discard
//! counter. These tests drive randomized pipelines, snapshot them with
//! the [`StatsRegistry`], cross-check against the kernel's own counts
//! (an attached [`Observer`]), and assert the identities hold.

use gtw_desim::{ComponentId, Observer, SimDuration, Simulator};
use gtw_net::aal5::segment;
use gtw_net::ip::IpConfig;
use gtw_net::link::{Medium, PipeStage, StageConfig};
use gtw_net::stats::StatsRegistry;
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::tcp::{StartTransfer, TcpConfig, TcpReceiver, TcpSender};
use gtw_net::units::Bandwidth;
use proptest::prelude::*;

proptest! {
    /// Two switches in tandem: every cell injected into the first switch
    /// is either switched or counted by exactly one discard counter, and
    /// every switched cell arrives at the second switch.
    #[test]
    fn switch_tandem_conserves_cells(payload_len in 1usize..6000,
                                     buffer in 1usize..128,
                                     unroutable_cells in 0usize..40) {
        let mut sim = Simulator::new();
        let mut reg = StatsRegistry::new();
        let ep = sim.add_component(CellEndpoint::default());
        let mut sw2 = AtmSwitch::new(
            "sw2",
            vec![OutputPort::simple(ep, 0, Bandwidth::OC12, SimDuration::from_micros(5), 1 << 20)],
        );
        sw2.add_route(VcKey { port: 0, vpi: 2, vci: 200 }, VcRoute { port: 0, vpi: 3, vci: 300 });
        let sw2 = sim.add_component(sw2);
        let mut sw1 = AtmSwitch::new(
            "sw1",
            vec![OutputPort::simple(sw2, 0, Bandwidth::OC3, SimDuration::from_micros(5), buffer)],
        );
        sw1.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 2, vci: 200 });
        let sw1 = sim.add_component(sw1);
        reg.add_switch(sw1);
        reg.add_switch(sw2);

        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut injected = 0u64;
        for cell in segment(&payload, 1, 100) {
            sim.send_in(SimDuration::ZERO, sw1, gtw_desim::component::msg(CellArrive { port: 0, cell }));
            injected += 1;
        }
        for cell in segment(&vec![0u8; unroutable_cells * 48], 9, 999).into_iter().take(unroutable_cells) {
            sim.send_in(SimDuration::ZERO, sw1, gtw_desim::component::msg(CellArrive { port: 0, cell }));
            injected += 1;
        }
        sim.run();
        let run = reg.collect(&sim);
        prop_assert_eq!(run.switches.len(), 2);
        let s1 = &run.switches[0].stats;
        let s2 = &run.switches[1].stats;
        // Conservation at the first switch: arrivals fully accounted.
        prop_assert_eq!(s1.cells_in(), injected);
        prop_assert_eq!(
            s1.switched + s1.unroutable + s1.overflow + s1.hec_discard + s1.clp_discard,
            injected
        );
        prop_assert_eq!(s1.unroutable, unroutable_cells as u64);
        // Every cell the first switch forwarded reached the second.
        prop_assert_eq!(s2.cells_in(), s1.switched);
        // The second switch has ample buffer and a matching route: no loss.
        prop_assert_eq!(s2.switched, s1.switched);
    }

    /// A TCP transfer over a lossy bottleneck still delivers every byte
    /// exactly once at the application level, and every pipeline stage's
    /// packet counters balance — cross-checked against the kernel's own
    /// per-component dispatch counts (one event per arrival, accepted or
    /// dropped, and no timer: a departure is not an event).
    #[test]
    fn tcp_conserves_bytes_end_to_end(total_kib in 16u64..192,
                                      window_kib in 16u64..512,
                                      rate_mbps in 20.0f64..622.0,
                                      buffer_kib in 16u64..1024) {
        let total = total_kib * 1024;
        let ip = IpConfig { mtu: 9180 };
        let cfg = TcpConfig::bulk(1, total, ip, window_kib * 1024);
        let mut sim = Simulator::new();
        let counter = Observer::recording();
        sim.observe(&counter);
        let mut reg = StatsRegistry::new();
        let fwd_cfg = StageConfig {
            medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(200),
            buffer_bytes: buffer_kib * 1024,
        };
        let fwd = sim.add_component(PipeStage::new(
            "fwd",
            fwd_cfg.clone(),
            ComponentId::placeholder(),
        ));
        let rev = sim.add_component(PipeStage::new(
            "rev",
            StageConfig { buffer_bytes: u64::MAX, ..fwd_cfg },
            ComponentId::placeholder(),
        ));
        let receiver = sim.add_component(TcpReceiver::new(cfg.flow, total, rev));
        let sender = sim.add_component(TcpSender::new(cfg, fwd));
        sim.component_mut::<PipeStage>(fwd).next = receiver;
        sim.component_mut::<PipeStage>(rev).next = sender;
        reg.add_stage(fwd);
        reg.add_stage(rev);
        reg.add_tcp_sender(sender);
        reg.add_tcp_receiver(receiver);
        sim.send_in(SimDuration::ZERO, sender, gtw_desim::component::msg(StartTransfer));
        sim.run();
        let run = reg.collect(&sim);
        // Application-level conservation: acked == delivered == requested.
        prop_assert_eq!(run.senders[0].bytes_acked, total);
        prop_assert_eq!(run.receivers[0].bytes_delivered, total);
        // Stage-level conservation: the queue drained, so everything
        // accepted was forwarded.
        for hop in &run.hops {
            prop_assert_eq!(hop.stats.packets_in, hop.stats.packets_out, "{}", &hop.label);
        }
        // Kernel cross-check: a stage is dispatched once per arrival
        // (accepted or dropped), arms no timer, and sends one event per
        // packet it forwards.
        for (id, hop) in [(fwd, &run.hops[0]), (rev, &run.hops[1])] {
            let arrivals = hop.stats.packets_in + hop.stats.packets_dropped;
            prop_assert_eq!(sim.dispatches_to(id), arrivals, "{}", &hop.label);
            prop_assert_eq!(counter.timers_armed_by(id), 0, "{}", &hop.label);
            prop_assert_eq!(counter.sends_by(id), hop.stats.packets_out, "{}", &hop.label);
        }
    }
}
