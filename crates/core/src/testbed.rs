//! Figure 1 as a concrete network topology.
//!
//! "Jülich and Sankt Augustin are connected via a 2.4 Gbit/s ATM link.
//! The supercomputers are attached to the testbed via HiPPI-ATM
//! gateways, several workstations via 622 or 155 Mbit/s ATM interfaces."

use gtw_desim::SimDuration;
use gtw_net::gateway::Gateway;
use gtw_net::hippi::HippiChannel;
use gtw_net::host::HostNic;
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::sdh::StmLevel;
use gtw_net::topology::{NodeId, Topology};
use gtw_net::transfer::{BulkTransfer, Protocol, TransferReport};
use gtw_net::units::Bandwidth;

/// Which year of the testbed the WAN link represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkEra {
    /// August 1997 – August 1998: OC-12 (622 Mbit/s).
    Oc12Initial,
    /// From August 1998: OC-48 (2.4 Gbit/s), ASX-4000 switches.
    Oc48Upgrade,
}

impl LinkEra {
    /// SDH level of the WAN link.
    pub fn stm(self) -> StmLevel {
        match self {
            LinkEra::Oc12Initial => StmLevel::Stm4,
            LinkEra::Oc48Upgrade => StmLevel::Stm16,
        }
    }
}

/// The built testbed with named endpoints.
pub struct GigabitTestbedWest {
    /// The underlying graph.
    pub topology: Topology,
    /// Cray T3E-600 (Jülich).
    pub t3e_600: NodeId,
    /// Cray T3E-1200 (Jülich).
    pub t3e_1200: NodeId,
    /// Cray T90 (Jülich).
    pub t90: NodeId,
    /// MRI scanner front-end workstation (Jülich, 155 Mbit/s ATM).
    pub scanner_frontend: NodeId,
    /// Workbench frame-buffer Onyx 2 (Jülich).
    pub onyx_juelich: NodeId,
    /// IBM SP2 (Sankt Augustin).
    pub sp2: NodeId,
    /// SGI Onyx 2 visualization server (Sankt Augustin).
    pub onyx_gmd: NodeId,
    /// SUN E5000 gateway host (Sankt Augustin).
    pub e5000: NodeId,
}

/// One measured path of the Figure-1 throughput matrix.
#[derive(Clone, Debug)]
pub struct MeasuredPath {
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Path MTU used.
    pub mtu: u64,
    /// Measured (event-driven) report.
    pub report: TransferReport,
    /// Analytic steady-state prediction, Mbit/s.
    pub predicted_mbps: f64,
}

impl GigabitTestbedWest {
    /// Build the June-1999 configuration.
    pub fn build(era: LinkEra) -> Self {
        let mut t = Topology::new();
        let hippi = Medium::Hippi { channel: HippiChannel::default() };
        let atm622 = Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() };
        let atm155 = Medium::Atm { cell_rate: StmLevel::Stm1.payload_rate() };
        let wan = Medium::Atm { cell_rate: era.stm().payload_rate() };
        let us = SimDuration::from_micros(5);

        // Jülich.
        let t3e_600 = t.add_host("Cray T3E-600", HostNic::cray_hippi());
        let t3e_1200 = t.add_host("Cray T3E-1200", HostNic::cray_hippi());
        let t90 = t.add_host("Cray T90", HostNic::cray_hippi());
        let scanner_frontend = t.add_host("Scanner front-end", HostNic::workstation_atm155());
        let onyx_juelich = t.add_host("Onyx2 (FZJ workbench)", HostNic::onyx2_hippi());
        let gw_o200 = t.add_gateway("SGI O200 gateway", Gateway::sgi_o200_to_atm());
        let gw_ultra = t.add_gateway("Sun Ultra30 gateway", Gateway::sun_ultra30_to_atm());
        let sw_fzj = t.add_switch("ASX-4000 (FZJ)", SimDuration::from_micros(10));

        // Sankt Augustin.
        let sw_gmd = t.add_switch("ASX-4000 (GMD)", SimDuration::from_micros(10));
        let e5000 = t.add_host("SUN E5000", HostNic::workstation_atm622());
        let gw_e5000 = t.add_gateway("E5000 gateway", Gateway::sun_e5000_to_hippi());
        let sp2 = t.add_host("IBM SP2", HostNic::sp2_microchannel_striped());
        let onyx_gmd = t.add_host("SGI Onyx2 (GMD)", HostNic::onyx2_hippi());

        // Jülich local attachments: Cray complex on HiPPI behind the
        // O200 gateway; the second gateway serves the T90/workbench side.
        t.connect(t3e_600, gw_o200, hippi, us, "HiPPI");
        t.connect(t3e_1200, gw_o200, hippi, us, "HiPPI");
        t.connect(t90, gw_ultra, hippi, us, "HiPPI");
        t.connect(onyx_juelich, gw_ultra, hippi, us, "HiPPI");
        t.connect(gw_o200, sw_fzj, atm622, us, "ATM 622");
        t.connect(gw_ultra, sw_fzj, atm622, us, "ATM 622");
        t.connect(scanner_frontend, sw_fzj, atm155, us, "ATM 155");

        // The WAN: ~100 km of fibre in RWE power lines.
        t.connect(
            sw_fzj,
            sw_gmd,
            wan,
            gtw_net::link::StageConfig::fibre_propagation(100.0),
            match era {
                LinkEra::Oc12Initial => "OC-12 WAN",
                LinkEra::Oc48Upgrade => "OC-48 WAN",
            },
        );

        // Sankt Augustin attachments.
        t.connect(e5000, sw_gmd, atm622, us, "ATM 622");
        t.connect(gw_e5000, sw_gmd, atm622, us, "ATM 622");
        t.connect(
            sp2,
            sw_gmd,
            Medium::Atm { cell_rate: StmLevel::Stm1.payload_rate() * 8.0 },
            us,
            "8x ATM 155",
        );
        t.connect(onyx_gmd, gw_e5000, hippi, us, "HiPPI");

        GigabitTestbedWest {
            topology: t,
            t3e_600,
            t3e_1200,
            t90,
            scanner_frontend,
            onyx_juelich,
            sp2,
            onyx_gmd,
            e5000,
        }
    }

    /// Measure a TCP bulk transfer between two nodes (event-driven) and
    /// compare with the analytic bound.
    pub fn measure(&self, from: NodeId, to: NodeId, bytes: u64, window_bytes: u64) -> MeasuredPath {
        let (path, mtu, hops) = self.topology.path(from, to).unwrap_or_else(|| {
            panic!("no path {} -> {}", self.topology.name_of(from), self.topology.name_of(to))
        });
        let _ = path;
        let ip = IpConfig { mtu };
        let xfer = BulkTransfer { hops, ip, bytes, protocol: Protocol::Tcp { window_bytes } };
        let predicted_mbps = xfer.predict().mbps();
        let report = xfer.run();
        MeasuredPath {
            from: self.topology.name_of(from).to_string(),
            to: self.topology.name_of(to).to_string(),
            mtu,
            report,
            predicted_mbps,
        }
    }

    /// The Figure-1 throughput matrix: the measurements the paper (and
    /// its companion publication \[5\]) report.
    pub fn figure1_matrix(&self, bytes: u64) -> Vec<MeasuredPath> {
        let w = 4 * 1024 * 1024;
        vec![
            // Local Cray complex over HiPPI.
            self.measure(self.t3e_600, self.t3e_1200, bytes, w),
            // Jülich -> Sankt Augustin into the SP2 (the 260 Mbit/s).
            self.measure(self.t3e_600, self.sp2, bytes, w),
            // T3E -> E5000 (workstation-class receiver across the WAN).
            self.measure(self.t3e_600, self.e5000, bytes, w),
            // T3E -> Onyx2 at the GMD (the fMRI visualization path).
            self.measure(self.t3e_600, self.onyx_gmd, bytes, w),
            // Scanner front-end -> T3E (the raw-image path, 155 ATM).
            self.measure(self.scanner_frontend, self.t3e_600, bytes, w),
        ]
    }

    /// Effective WAN capacity for feasibility checks.
    pub fn wan_payload_rate(&self, era: LinkEra) -> Bandwidth {
        era.stm().atm_payload_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_is_connected() {
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        for &(a, b) in &[
            (tb.t3e_600, tb.sp2),
            (tb.t3e_600, tb.onyx_gmd),
            (tb.scanner_frontend, tb.t3e_600),
            (tb.t90, tb.e5000),
            (tb.onyx_juelich, tb.onyx_gmd),
        ] {
            assert!(
                tb.topology.route(a, b).is_some(),
                "no route {} -> {}",
                tb.topology.name_of(a),
                tb.topology.name_of(b)
            );
        }
    }

    #[test]
    fn local_hippi_tcp_reaches_430() {
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        let m = tb.measure(tb.t3e_600, tb.t3e_1200, 32 * 1024 * 1024, 4 * 1024 * 1024);
        assert_eq!(m.mtu, 65535);
        let g = m.report.goodput.mbps();
        assert!(g > 400.0 && g < 520.0, "local HiPPI TCP {g} Mbit/s");
    }

    #[test]
    fn t3e_to_sp2_hits_the_260_wall() {
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        let m = tb.measure(tb.t3e_600, tb.sp2, 32 * 1024 * 1024, 4 * 1024 * 1024);
        let g = m.report.goodput.mbps();
        assert!(g > 230.0 && g < 300.0, "T3E->SP2 {g} Mbit/s");
        // And the model agrees with the event-driven run.
        assert!((g - m.predicted_mbps).abs() / m.predicted_mbps < 0.15, "{m:?}");
    }

    #[test]
    fn scanner_path_is_155_limited() {
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        let m = tb.measure(tb.scanner_frontend, tb.t3e_600, 8 * 1024 * 1024, 1024 * 1024);
        let g = m.report.goodput.mbps();
        assert!(g < 140.0, "scanner uplink {g} Mbit/s");
        assert_eq!(m.mtu, gtw_net::ip::CLIP_DEFAULT_MTU);
    }

    #[test]
    fn oc48_era_not_slower_than_oc12() {
        let b = 16 * 1024 * 1024;
        let old = GigabitTestbedWest::build(LinkEra::Oc12Initial);
        let new = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        let g_old = old.measure(old.t3e_600, old.e5000, b, 4 * 1024 * 1024).report.goodput.mbps();
        let g_new = new.measure(new.t3e_600, new.e5000, b, 4 * 1024 * 1024).report.goodput.mbps();
        assert!(g_new >= g_old * 0.99, "upgrade slowed things down: {g_old} -> {g_new}");
    }

    #[test]
    fn figure1_matrix_shape() {
        // The relational facts of Figure 1/Section 2: local HiPPI beats
        // every WAN path; the SP2 is slower than the E5000 across the
        // same WAN.
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        let m = tb.figure1_matrix(16 * 1024 * 1024);
        let by_name = |from: &str, to: &str| {
            m.iter()
                .find(|p| p.from.contains(from) && p.to.contains(to))
                .unwrap_or_else(|| panic!("missing {from} -> {to}"))
                .report
                .goodput
                .mbps()
        };
        let local = by_name("T3E-600", "T3E-1200");
        let sp2 = by_name("T3E-600", "IBM SP2");
        let e5000 = by_name("T3E-600", "SUN E5000");
        assert!(local > sp2, "local {local} vs SP2 {sp2}");
        assert!(e5000 > sp2, "E5000 {e5000} vs SP2 {sp2}");
    }

    #[test]
    fn wan_capacity_eras() {
        let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
        assert!(tb.wan_payload_rate(LinkEra::Oc12Initial).mbps() < 550.0);
        assert!(tb.wan_payload_rate(LinkEra::Oc48Upgrade).gbps() > 2.0);
    }
}
