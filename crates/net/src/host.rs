//! Host network adapters: the machines of Figure 1 and their attachment
//! hardware, with per-packet protocol-stack costs.
//!
//! Calibration note: the fixed per-packet costs below are the only free
//! parameters of the throughput experiments. They are set once, here, to
//! 1999-plausible values such that the two anchor measurements in the
//! paper come out of the *model* (not hard-coded): ≳430 Mbit/s TCP/IP
//! between Crays over local HiPPI with a 64 KByte MTU, and ~260 Mbit/s
//! from the T3E into the microchannel-limited SP2 nodes across the WAN.
//! Every other number (MTU sweeps, frame rates, app feasibility) is then a
//! prediction of the same constants.

use gtw_desim::SimDuration;

use crate::hippi::HippiChannel;
use crate::link::Medium;
use crate::sdh::StmLevel;
use crate::tcp::HopModel;
use crate::units::Bandwidth;

/// A host's attachment to the testbed.
#[derive(Clone, Debug)]
pub struct HostNic {
    /// Human-readable adapter description.
    pub label: &'static str,
    /// Framing model of the medium.
    pub medium: Medium,
    /// Per-packet cost of the host protocol stack plus driver on this
    /// machine (one direction).
    pub per_packet: SimDuration,
    /// Largest IP datagram the adapter/driver supports.
    pub max_mtu: u64,
    /// Drain rate of the host's I/O bus on receive, if it is slower than
    /// the link (the SP2 microchannel case); `None` when the bus keeps up.
    pub ingest_rate: Option<Bandwidth>,
}

impl HostNic {
    /// This NIC as an analytic hop with the given propagation delay.
    pub fn hop(&self, propagation: SimDuration) -> HopModel {
        HopModel { medium: self.medium, per_packet: self.per_packet, propagation }
    }

    /// Cray T3E/T90 HiPPI attachment. The per-packet cost models the
    /// Unicos TCP/IP stack plus the HiPPI driver path (single stream).
    pub fn cray_hippi() -> Self {
        HostNic {
            label: "Cray HiPPI (TCP/IP)",
            medium: Medium::Hippi { channel: HippiChannel::default() },
            per_packet: SimDuration::from_micros(520),
            max_mtu: crate::ip::FORE_LARGE_MTU,
            ingest_rate: None,
        }
    }

    /// Workstation with a Fore 622 Mbit/s ATM adapter supporting large
    /// MTUs (SGI O200, Sun Ultra 30, SUN E5000 in the testbed).
    pub fn workstation_atm622() -> Self {
        HostNic {
            label: "Fore ATM 622 (large MTU)",
            medium: Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() },
            per_packet: SimDuration::from_micros(120),
            max_mtu: crate::ip::FORE_LARGE_MTU,
            ingest_rate: None,
        }
    }

    /// Workstation with a 155 Mbit/s ATM adapter.
    pub fn workstation_atm155() -> Self {
        HostNic {
            label: "ATM 155",
            medium: Medium::Atm { cell_rate: StmLevel::Stm1.payload_rate() },
            per_packet: SimDuration::from_micros(120),
            max_mtu: crate::ip::CLIP_DEFAULT_MTU,
            ingest_rate: None,
        }
    }

    /// IBM SP2 node attachment: a 155 Mbit/s ATM adapter behind the
    /// microchannel bus. The paper attributes the observed ~260 Mbit/s
    /// aggregate "mainly to the limitations of the I/O-system of the
    /// microchannel-based SP-nodes" — modelled as the effective striped
    /// ingest rate over the 8 ATM-equipped nodes.
    pub fn sp2_microchannel_striped() -> Self {
        HostNic {
            label: "SP2 striped microchannel ingest (8 nodes)",
            medium: Medium::Atm { cell_rate: StmLevel::Stm1.payload_rate() * 8.0 },
            per_packet: SimDuration::from_micros(100),
            max_mtu: crate::ip::FORE_LARGE_MTU,
            ingest_rate: Some(Bandwidth::from_mbytes_per_sec(35.0)),
        }
    }

    /// SGI Onyx 2 visualization server: HiPPI locally; the paper waits on
    /// 622 Mbit/s ATM adapters for it, so its testbed path runs through a
    /// gateway.
    pub fn onyx2_hippi() -> Self {
        HostNic {
            label: "SGI Onyx2 HiPPI",
            medium: Medium::Hippi { channel: HippiChannel::default() },
            per_packet: SimDuration::from_micros(300),
            max_mtu: crate::ip::FORE_LARGE_MTU,
            ingest_rate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::{IpConfig, CLIP_DEFAULT_MTU};
    use crate::units::DataSize;

    #[test]
    fn cray_hippi_tcp_hits_430_at_64k_mtu() {
        // The anchor: local Cray complex, two HiPPI hosts, 64 KByte MTU.
        let ip = IpConfig::large_mtu();
        let model = crate::tcp::TcpModel {
            hops: vec![
                HostNic::cray_hippi().hop(SimDuration::from_micros(10)),
                HostNic::cray_hippi().hop(SimDuration::from_micros(10)),
            ],
            ip,
            window: DataSize::from_mib(4),
        };
        let tp = model.steady_state_throughput().mbps();
        assert!(tp > 430.0 && tp < 520.0, "local HiPPI TCP: {tp} Mbit/s");
    }

    #[test]
    fn cray_hippi_tcp_collapses_at_default_mtu() {
        let model = crate::tcp::TcpModel {
            hops: vec![
                HostNic::cray_hippi().hop(SimDuration::from_micros(10)),
                HostNic::cray_hippi().hop(SimDuration::from_micros(10)),
            ],
            ip: IpConfig { mtu: CLIP_DEFAULT_MTU },
            window: DataSize::from_mib(4),
        };
        let tp = model.steady_state_throughput().mbps();
        assert!(tp < 150.0, "9180-byte MTU should be far below peak: {tp}");
    }

    #[test]
    fn sp2_ingest_is_the_260_bottleneck() {
        let nic = HostNic::sp2_microchannel_striped();
        let seg = DataSize::from_bytes(65535);
        // The microchannel drain is the terminal ingest hop.
        let ingest = HopModel {
            medium: Medium::Raw { rate: nic.ingest_rate.unwrap() },
            per_packet: nic.per_packet,
            propagation: SimDuration::ZERO,
        };
        let rate = seg.bits() as f64 / ingest.service_time(seg).as_secs_f64() / 1e6;
        assert!(rate > 250.0 && rate < 285.0, "SP2 ingest {rate} Mbit/s");
        // And it is slower than the striped ATM link feeding it.
        let link = nic.hop(SimDuration::ZERO);
        assert!(ingest.service_time(seg) > link.service_time(seg));
    }

    #[test]
    fn adapters_report_max_mtu() {
        assert_eq!(HostNic::workstation_atm155().max_mtu, 9180);
        assert_eq!(HostNic::workstation_atm622().max_mtu, 65535);
    }
}
