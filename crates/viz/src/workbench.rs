//! The Responsive Workbench and AVOCADO remote display.
//!
//! "The workbench has two projection planes, each of them displays stereo
//! images of 1024x768 true color (24 Bit) pixels. This means that less
//! than 8 frames/second can be transferred over a 622 Mbit/s ATM network
//! using classical IP." This module carries that arithmetic — frame
//! geometry, transport over a `gtw-net` hop path — plus the planned
//! AVOCADO extension for remote display, including a lossless RLE mode
//! whose compression ratio is *measured* on actual rendered frames.

use gtw_desim::SimDuration;
use gtw_net::ip::IpConfig;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::frame_stream_rate;

use crate::image::{rle_encode, Image};

/// Geometry of the workbench display.
#[derive(Clone, Copy, Debug)]
pub struct Workbench {
    /// Projection planes.
    pub planes: usize,
    /// Stereo (two eyes per plane).
    pub stereo: bool,
    /// Pixels across.
    pub width: usize,
    /// Pixels down.
    pub height: usize,
    /// Bytes per pixel (true colour = 3).
    pub bytes_per_pixel: usize,
}

impl Workbench {
    /// The GMD workbench of the paper: 2 planes × stereo × 1024×768×24bit.
    pub fn paper() -> Self {
        Workbench { planes: 2, stereo: true, width: 1024, height: 768, bytes_per_pixel: 3 }
    }

    /// Images per frame (planes × eyes).
    pub fn images_per_frame(&self) -> usize {
        self.planes * if self.stereo { 2 } else { 1 }
    }

    /// Bytes of one full frame.
    pub fn frame_bytes(&self) -> u64 {
        (self.images_per_frame() * self.width * self.height * self.bytes_per_pixel) as u64
    }
}

/// How frames travel to the remote workbench.
#[derive(Clone, Copy, Debug)]
pub enum FrameTransport {
    /// Raw true-colour pixels over classical IP (the paper's baseline).
    RawIp,
    /// Losslessly RLE-compressed frames (the AVOCADO remote-display
    /// extension); `ratio` is the measured compression ratio.
    Rle {
        /// Measured compression ratio (raw/compressed).
        ratio: f64,
    },
}

impl FrameTransport {
    /// Effective bytes on the wire for one frame.
    pub fn wire_bytes(&self, frame_bytes: u64) -> u64 {
        match *self {
            FrameTransport::RawIp => frame_bytes,
            FrameTransport::Rle { ratio } => {
                assert!(ratio >= 1.0, "compression ratio below 1");
                (frame_bytes as f64 / ratio).ceil() as u64
            }
        }
    }
}

/// Measure the RLE compression ratio of a rendered frame.
pub fn measured_compression(frame: &Image) -> f64 {
    let raw = frame.to_rgb_bytes();
    let enc = rle_encode(&raw);
    raw.len() as f64 / enc.len() as f64
}

/// Achievable frame rate and per-frame latency of a workbench stream over
/// a network path.
pub fn workbench_frame_rate(
    wb: &Workbench,
    transport: FrameTransport,
    hops: &[HopModel],
    ip: IpConfig,
) -> (f64, SimDuration) {
    let bytes = transport.wire_bytes(wb.frame_bytes());
    frame_stream_rate(hops, ip, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_net::host::HostNic;
    use gtw_net::link::Medium;
    use gtw_net::sdh::StmLevel;
    use gtw_net::units::Bandwidth;

    fn atm622_path() -> Vec<HopModel> {
        // Onyx 2 (via 622 adapter once available, per the paper's plan)
        // -> WAN -> workbench frame buffer.
        vec![
            HostNic::workstation_atm622().hop(SimDuration::from_micros(5)),
            HopModel {
                medium: Medium::Atm { cell_rate: StmLevel::Stm16.payload_rate() },
                per_packet: SimDuration::from_micros(10),
                propagation: SimDuration::from_micros(500),
            },
            HopModel {
                medium: Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() },
                per_packet: SimDuration::from_micros(10),
                propagation: SimDuration::from_micros(5),
            },
        ]
    }

    #[test]
    fn frame_geometry_matches_paper() {
        let wb = Workbench::paper();
        assert_eq!(wb.images_per_frame(), 4);
        assert_eq!(wb.frame_bytes(), 9_437_184); // 4 × 1024 × 768 × 3
    }

    #[test]
    fn under_8_fps_over_622_classical_ip() {
        // The paper's headline: < 8 frames/s over 622 Mbit/s classical IP.
        let wb = Workbench::paper();
        let (fps, latency) =
            workbench_frame_rate(&wb, FrameTransport::RawIp, &atm622_path(), IpConfig::large_mtu());
        assert!(fps < 8.0, "fps {fps}");
        assert!(fps > 5.0, "fps implausibly low: {fps}");
        assert!(latency.as_secs_f64() > 0.05);
    }

    #[test]
    fn mono_single_plane_is_4x_faster() {
        let full = Workbench::paper();
        let mono = Workbench { planes: 1, stereo: false, ..full };
        assert_eq!(full.frame_bytes(), 4 * mono.frame_bytes());
        let (f_full, _) = workbench_frame_rate(
            &full,
            FrameTransport::RawIp,
            &atm622_path(),
            IpConfig::large_mtu(),
        );
        let (f_mono, _) = workbench_frame_rate(
            &mono,
            FrameTransport::RawIp,
            &atm622_path(),
            IpConfig::large_mtu(),
        );
        assert!((f_mono / f_full - 4.0).abs() < 0.4, "{f_mono} vs {f_full}");
    }

    #[test]
    fn rle_transport_raises_frame_rate() {
        let wb = Workbench::paper();
        // A real rendered frame as the compression sample.
        let p = gtw_scan::phantom::Phantom::standard();
        let d = gtw_scan::volume::Dims::new(48, 48, 24);
        let r = crate::raycast::VolumeRenderer::new(p.anatomy(d), None);
        let frame = r.render(&crate::raycast::RenderParams {
            width: 128,
            height: 128,
            ..Default::default()
        });
        let ratio = measured_compression(&frame);
        assert!(ratio > 1.5, "rendered frames should RLE-compress: {ratio}");
        let (raw_fps, _) =
            workbench_frame_rate(&wb, FrameTransport::RawIp, &atm622_path(), IpConfig::large_mtu());
        let (rle_fps, _) = workbench_frame_rate(
            &wb,
            FrameTransport::Rle { ratio },
            &atm622_path(),
            IpConfig::large_mtu(),
        );
        assert!(rle_fps > raw_fps * 1.4, "raw {raw_fps} vs rle {rle_fps}");
    }

    #[test]
    fn small_mtu_hurts_frame_rate() {
        let wb = Workbench::paper();
        let (large, _) =
            workbench_frame_rate(&wb, FrameTransport::RawIp, &atm622_path(), IpConfig::large_mtu());
        let (small, _) = workbench_frame_rate(
            &wb,
            FrameTransport::RawIp,
            &atm622_path(),
            IpConfig { mtu: 1500 },
        );
        assert!(small < large, "small {small} vs large {large}");
    }

    #[test]
    fn raw_rate_cap_bandwidth() {
        // Sanity: a 10 Gbit/s path streams far above 8 fps.
        let wb = Workbench::paper();
        let hops = vec![HopModel {
            medium: Medium::Raw { rate: Bandwidth::from_gbps(10.0) },
            per_packet: SimDuration::ZERO,
            propagation: SimDuration::from_micros(500),
        }];
        let (fps, _) =
            workbench_frame_rate(&wb, FrameTransport::RawIp, &hops, IpConfig::large_mtu());
        assert!(fps > 100.0, "{fps}");
    }
}
