//! Distributed virtual TV production — the §5 dark-fibre project
//! ("distributed virtual TV-production (in cooperation between GMD, DLR,
//! Academy of Media Arts in Cologne, and echtzeit GmbH). The latter
//! relies on the results of the multimedia project.")
//!
//! A studio mixer composites several live D1 sources arriving over
//! different network paths. Frame `k` of the output needs frame `k`
//! from *every* source, so the mixer must genlock: buffer the early
//! sources until the slowest path delivers. This module runs the
//! multi-source transport event-driven and reports the required buffer
//! depth, the output frame rate, and whether the production is live-
//! sustainable.

use gtw_desim::{ComponentId, SimDuration, SimTime, Simulator};
use gtw_net::ip::{fragment_sizes, IpConfig, IP_HEADER_BYTES};
use gtw_net::link::{Arrive, Packet, PacketKind, PipeStage, Sink, StageConfig};
use gtw_net::tcp::HopModel;
use gtw_net::units::DataSize;

use crate::video::D1Stream;

/// One contribution feed into the studio.
pub struct SourceFeed {
    /// Name ("DLR camera 1").
    pub name: String,
    /// Network path from the site to the mixer.
    pub hops: Vec<HopModel>,
}

/// Result of a production run.
#[derive(Clone, Debug)]
pub struct ProductionReport {
    /// Frames composited.
    pub frames: usize,
    /// Genlock buffer depth required (frames held from the earliest
    /// source while waiting for the slowest).
    pub buffer_frames: usize,
    /// Mean composite output spacing, seconds.
    pub mean_spacing_s: f64,
    /// Whether the mixer sustained the source frame rate (±5 %).
    pub live: bool,
    /// Per-source mean delivery latency, seconds.
    pub source_latency_s: Vec<f64>,
}

/// Run `frames` frames of an N-source production over the given feeds.
pub fn run_production(
    stream: &D1Stream,
    feeds: &[SourceFeed],
    ip: IpConfig,
    frames: usize,
) -> ProductionReport {
    assert!(!feeds.is_empty(), "a production needs sources");
    assert!(frames >= 2, "need at least two frames");
    let mut sim = Simulator::new();
    // One sink + chain per source.
    let mut sinks: Vec<ComponentId> = Vec::with_capacity(feeds.len());
    let mut firsts: Vec<ComponentId> = Vec::with_capacity(feeds.len());
    for (s, feed) in feeds.iter().enumerate() {
        let sink = sim.add_component(Sink::default());
        let mut next = sink;
        for (i, hop) in feed.hops.iter().enumerate().rev() {
            next = sim.add_component(PipeStage::new(
                format!("feed{s}-hop{i}"),
                StageConfig {
                    medium: hop.medium,
                    per_packet: hop.per_packet,
                    propagation: hop.propagation,
                    buffer_bytes: u64::MAX,
                },
                next,
            ));
        }
        sinks.push(sink);
        firsts.push(next);
    }
    // All cameras are genlocked at the source: frame k leaves every site
    // at k/fps.
    let period = SimDuration::from_secs_f64(1.0 / stream.fps);
    let frame_bytes = stream.frame_bytes();
    for k in 0..frames {
        let at = SimTime::ZERO + period * k as u64;
        for &first in &firsts {
            for (seq, frag) in fragment_sizes(frame_bytes, ip.mtu).into_iter().enumerate() {
                let payload = frag.bytes() - IP_HEADER_BYTES;
                sim.send_at(
                    at,
                    first,
                    gtw_desim::component::msg(Arrive(Packet {
                        flow: k as u64,
                        seq: seq as u64,
                        ip_bytes: frag,
                        payload: DataSize::from_bytes(payload),
                        created: at,
                        kind: PacketKind::Data,
                    })),
                );
            }
        }
    }
    sim.run();
    // Per-source frame completion times.
    let mut completion: Vec<Vec<SimTime>> = vec![vec![SimTime::ZERO; frames]; feeds.len()];
    let mut latency: Vec<f64> = vec![0.0; feeds.len()];
    for (s, &sink) in sinks.iter().enumerate() {
        let sk = sim.component::<Sink>(sink);
        for &(at, flow, _, _) in &sk.received {
            let k = flow as usize;
            if at > completion[s][k] {
                completion[s][k] = at;
            }
        }
        let total: f64 = completion[s]
            .iter()
            .enumerate()
            .map(|(k, &t)| t.saturating_since(SimTime::ZERO + period * k as u64).as_secs_f64())
            .sum();
        latency[s] = total / frames as f64;
    }
    // Composite frame k completes when the slowest source delivers it.
    let composite: Vec<SimTime> =
        (0..frames).map(|k| completion.iter().map(|c| c[k]).max().unwrap()).collect();
    // Buffer depth: frames a fast source has delivered but the mixer has
    // not yet consumed — max over k, sources of (frames of source s
    // delivered by composite[k]) − k.
    let mut buffer = 0usize;
    for (k, &ct) in composite.iter().enumerate() {
        for c in &completion {
            let delivered = c.iter().filter(|&&t| t <= ct).count();
            buffer = buffer.max(delivered.saturating_sub(k + 1) + 1);
        }
    }
    let mut spacing = 0.0;
    for w in composite.windows(2) {
        spacing += w[1].saturating_since(w[0]).as_secs_f64();
    }
    let mean_spacing_s = spacing / (frames - 1) as f64;
    let nominal = 1.0 / stream.fps;
    ProductionReport {
        frames,
        buffer_frames: buffer,
        mean_spacing_s,
        live: (mean_spacing_s - nominal).abs() < nominal * 0.05,
        source_latency_s: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_net::link::Medium;
    use gtw_net::sdh::StmLevel;

    fn atm_hop(level: StmLevel, prop_us: u64) -> HopModel {
        HopModel {
            medium: Medium::Atm { cell_rate: level.payload_rate() },
            per_packet: SimDuration::from_micros(50),
            propagation: SimDuration::from_micros(prop_us),
        }
    }

    fn feed(name: &str, level: StmLevel, prop_us: u64) -> SourceFeed {
        SourceFeed { name: name.into(), hops: vec![atm_hop(level, prop_us)] }
    }

    #[test]
    fn symmetric_sources_need_minimal_buffer() {
        let d1 = D1Stream::pal();
        let feeds = vec![feed("DLR", StmLevel::Stm4, 200), feed("Cologne", StmLevel::Stm4, 200)];
        let r = run_production(&d1, &feeds, IpConfig::large_mtu(), 15);
        assert!(r.live, "{r:?}");
        assert!(r.buffer_frames <= 1, "{r:?}");
        assert!((r.source_latency_s[0] - r.source_latency_s[1]).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_latency_grows_the_genlock_buffer() {
        let d1 = D1Stream::pal();
        // One local source, one far source with ~2.5 frame periods more
        // propagation (e.g. a remote contribution over a long detour).
        let near = vec![feed("GMD studio", StmLevel::Stm4, 100)];
        let both = vec![
            feed("GMD studio", StmLevel::Stm4, 100),
            feed("remote", StmLevel::Stm4, 100_000), // +100 ms
        ];
        let r_near = run_production(&d1, &near, IpConfig::large_mtu(), 15);
        let r_both = run_production(&d1, &both, IpConfig::large_mtu(), 15);
        assert!(r_both.buffer_frames > r_near.buffer_frames, "{r_both:?}");
        // 100 ms at 25 fps = 2.5 periods -> 3-4 frames of genlock buffer.
        assert!((3..=5).contains(&r_both.buffer_frames), "buffer {}", r_both.buffer_frames);
        assert!(r_both.live, "latency alone must not break liveness: {r_both:?}");
    }

    #[test]
    fn slow_path_breaks_liveness() {
        let d1 = D1Stream::pal();
        let feeds = vec![
            feed("GMD studio", StmLevel::Stm4, 100),
            feed("starved", StmLevel::Stm1, 100), // OC-3 cannot carry D1
        ];
        let r = run_production(&d1, &feeds, IpConfig::large_mtu(), 12);
        assert!(!r.live, "{r:?}");
        assert!(r.mean_spacing_s > 1.0 / d1.fps * 1.2, "{r:?}");
    }

    #[test]
    fn three_source_production_on_the_dark_fibre() {
        // The actual project: GMD + DLR + Academy of Media Arts, all on
        // 622-class dark fibre spans.
        let d1 = D1Stream::pal();
        let feeds = vec![
            feed("GMD", StmLevel::Stm4, 50),
            feed("DLR", StmLevel::Stm4, 200),
            feed("KHM Cologne", StmLevel::Stm4, 125),
        ];
        let r = run_production(&d1, &feeds, IpConfig::large_mtu(), 20);
        assert!(r.live, "{r:?}");
        assert!(r.buffer_frames <= 2, "{r:?}");
        // Latencies ordered by propagation.
        assert!(r.source_latency_s[0] < r.source_latency_s[2]);
        assert!(r.source_latency_s[2] < r.source_latency_s[1]);
    }
}
