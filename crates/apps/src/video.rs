//! Studio-quality digital video over ATM: the multimedia project.
//!
//! "Basic technology for transferring studio-quality digital video over
//! ATM is examined. Communication: e.g. 270 Mbit/s for an uncompressed
//! D1 video stream."
//!
//! D1 is CCIR-601 serial digital video: 720×576 at 25 frames/s, 4:2:2
//! chroma subsampling, 10-bit samples — the famous 270 Mbit/s interface
//! rate. This module models the stream source, computes its network
//! requirements and runs it event-driven over a `gtw-net` hop path to
//! measure sustained rate and inter-frame jitter (the quantity studio
//! transport actually cares about).

use gtw_desim::{ComponentId, SimDuration, SimTime, Simulator};
use gtw_net::ip::{fragment_sizes, IpConfig, IP_HEADER_BYTES};
use gtw_net::link::{Arrive, Packet, PacketKind, PipeStage, Sink, StageConfig};
use gtw_net::tcp::HopModel;
use gtw_net::units::{Bandwidth, DataSize};

/// The D1 / CCIR-601 stream parameters.
#[derive(Clone, Copy, Debug)]
pub struct D1Stream {
    /// Active pixels per line.
    pub width: usize,
    /// Active lines.
    pub height: usize,
    /// Frames per second.
    pub fps: f64,
    /// Bits per pixel (4:2:2 at 10-bit = 20 bits/pixel).
    pub bits_per_pixel: f64,
    /// Blanking/overhead factor to the full 270 Mbit/s serial rate.
    pub serial_overhead: f64,
}

impl D1Stream {
    /// 625-line PAL D1.
    pub fn pal() -> Self {
        D1Stream { width: 720, height: 576, fps: 25.0, bits_per_pixel: 20.0, serial_overhead: 1.30 }
    }

    /// Active payload bytes per frame.
    pub fn frame_bytes(&self) -> u64 {
        (self.width * self.height) as u64 * self.bits_per_pixel as u64 / 8
    }

    /// Active video payload rate.
    pub fn payload_rate(&self) -> Bandwidth {
        Bandwidth::from_bps(self.frame_bytes() as f64 * 8.0 * self.fps)
    }

    /// Serial interface rate including blanking (the 270 Mbit/s figure).
    pub fn serial_rate(&self) -> Bandwidth {
        self.payload_rate() * self.serial_overhead
    }
}

/// Jitter/throughput report of an event-driven stream run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Frames delivered.
    pub frames: usize,
    /// Mean inter-frame arrival spacing, seconds.
    pub mean_spacing_s: f64,
    /// Peak deviation from the nominal frame period, seconds.
    pub peak_jitter_s: f64,
    /// Achieved goodput.
    pub goodput: Bandwidth,
    /// Whether the path sustained the stream (no unbounded queue growth:
    /// spacing ≈ nominal period).
    pub sustained: bool,
}

/// Stream `frames` D1 frames over a hop path with frames paced at the
/// source rate; returns delivery statistics.
pub fn stream_over(
    stream: &D1Stream,
    hops: &[HopModel],
    ip: IpConfig,
    frames: usize,
) -> StreamReport {
    assert!(frames >= 2, "need at least two frames for spacing stats");
    let mut sim = Simulator::new();
    let sink = sim.add_component(Sink::default());
    // Build the chain back to front.
    let mut next: ComponentId = sink;
    for (i, hop) in hops.iter().enumerate().rev() {
        let stage = PipeStage::new(
            format!("video-hop{i}"),
            StageConfig {
                medium: hop.medium,
                per_packet: hop.per_packet,
                propagation: hop.propagation,
                buffer_bytes: u64::MAX,
            },
            next,
        );
        next = sim.add_component(stage);
    }
    let first = next;
    let period = SimDuration::from_secs_f64(1.0 / stream.fps);
    let frame_bytes = stream.frame_bytes();
    for f in 0..frames {
        let at = SimTime::ZERO + period * f as u64;
        for (seq, frag) in fragment_sizes(frame_bytes, ip.mtu).into_iter().enumerate() {
            let payload = frag.bytes() - IP_HEADER_BYTES;
            let pkt = Packet {
                flow: f as u64,
                seq: seq as u64,
                ip_bytes: frag,
                payload: DataSize::from_bytes(payload),
                created: at,
                kind: PacketKind::Data,
            };
            sim.send_at(at, first, gtw_desim::component::msg(Arrive(pkt)));
        }
    }
    sim.run();
    // Frame completion = arrival of its last fragment.
    let sink_ref = sim.component::<Sink>(sink);
    let mut completion = vec![SimTime::ZERO; frames];
    for &(at, flow, _seq, _bytes) in &sink_ref.received {
        let f = flow as usize;
        if at > completion[f] {
            completion[f] = at;
        }
    }
    let nominal = 1.0 / stream.fps;
    let mut spacing_sum = 0.0;
    let mut peak_jitter: f64 = 0.0;
    for w in completion.windows(2) {
        let gap = w[1].saturating_since(w[0]).as_secs_f64();
        spacing_sum += gap;
        peak_jitter = peak_jitter.max((gap - nominal).abs());
    }
    let mean_spacing_s = spacing_sum / (frames - 1) as f64;
    let total_bytes = frame_bytes * frames as u64;
    let elapsed = completion[frames - 1].saturating_since(SimTime::ZERO);
    StreamReport {
        frames,
        mean_spacing_s,
        peak_jitter_s: peak_jitter,
        goodput: gtw_net::units::throughput(DataSize::from_bytes(total_bytes), elapsed),
        sustained: (mean_spacing_s - nominal).abs() < nominal * 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_net::ip::CLIP_DEFAULT_MTU;
    use gtw_net::link::Medium;
    use gtw_net::sdh::StmLevel;

    fn atm_hop(level: StmLevel) -> HopModel {
        HopModel {
            medium: Medium::Atm { cell_rate: level.payload_rate() },
            per_packet: SimDuration::from_micros(50),
            propagation: SimDuration::from_micros(500),
        }
    }

    #[test]
    fn d1_rates_match_the_standard() {
        let d1 = D1Stream::pal();
        // Active payload: 720×576×20 bits × 25 = 207.4 Mbit/s.
        assert!((d1.payload_rate().mbps() - 207.36).abs() < 0.1);
        // Serial rate ≈ 270 Mbit/s.
        assert!((d1.serial_rate().mbps() - 270.0).abs() < 3.0);
        assert_eq!(d1.frame_bytes(), 1_036_800);
    }

    #[test]
    fn oc12_sustains_d1() {
        let d1 = D1Stream::pal();
        let r = stream_over(&d1, &[atm_hop(StmLevel::Stm4)], IpConfig::large_mtu(), 20);
        assert!(r.sustained, "{r:?}");
        // Jitter well under a frame period.
        assert!(r.peak_jitter_s < 0.004, "{r:?}");
    }

    #[test]
    fn oc3_cannot_sustain_d1() {
        let d1 = D1Stream::pal();
        let r = stream_over(&d1, &[atm_hop(StmLevel::Stm1)], IpConfig::large_mtu(), 20);
        assert!(!r.sustained, "{r:?}");
        // Delivery spacing stretches beyond the source period.
        assert!(r.mean_spacing_s > 1.0 / d1.fps * 1.3, "{r:?}");
    }

    #[test]
    fn three_streams_on_oc12_exceed_capacity() {
        // OC-12's ATM payload (~540 Mbit/s after SDH + cell tax) carries
        // two D1 active-payload streams but not three: model as one
        // stream at triple rate.
        let mut d1 = D1Stream::pal();
        d1.fps = 75.0; // triple frame rate = three D1 streams
        let r = stream_over(&d1, &[atm_hop(StmLevel::Stm4)], IpConfig::large_mtu(), 20);
        assert!(!r.sustained, "{r:?}");
        // Two streams still fit.
        d1.fps = 50.0;
        let r2 = stream_over(&d1, &[atm_hop(StmLevel::Stm4)], IpConfig::large_mtu(), 20);
        assert!(r2.sustained, "{r2:?}");
    }

    #[test]
    fn small_mtu_adds_overhead_but_oc12_still_carries_one_stream() {
        let d1 = D1Stream::pal();
        let r =
            stream_over(&d1, &[atm_hop(StmLevel::Stm4)], IpConfig { mtu: CLIP_DEFAULT_MTU }, 12);
        assert!(r.sustained, "{r:?}");
        let r1500 = stream_over(&d1, &[atm_hop(StmLevel::Stm4)], IpConfig { mtu: 1500 }, 12);
        // Ethernet-size fragments: more header+cell padding overhead,
        // higher jitter.
        assert!(r1500.peak_jitter_s >= r.peak_jitter_s * 0.5);
    }

    #[test]
    fn goodput_matches_payload_rate_when_sustained() {
        let d1 = D1Stream::pal();
        let r = stream_over(&d1, &[atm_hop(StmLevel::Stm16)], IpConfig::large_mtu(), 20);
        assert!(r.sustained);
        let expect = d1.payload_rate().mbps();
        assert!(
            (r.goodput.mbps() - expect).abs() / expect < 0.1,
            "goodput {} vs {expect}",
            r.goodput.mbps()
        );
    }
}
