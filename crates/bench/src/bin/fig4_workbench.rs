//! Regenerate **Figure 4**'s pipeline: the 3-D rendering of the
//! activated head and the Responsive-Workbench transport arithmetic —
//! "less than 8 frames/second can be transferred over a 622 Mbit/s ATM
//! network using classical IP" — plus the remote-display extensions.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin fig4_workbench
//! cargo run --release -p gtw-bench --bin fig4_workbench -- --json
//! ```
//!
//! With `--json` the render timing, compression ratio and per-transport
//! frame rates are emitted as one machine-readable document. Everything
//! in it but `render_ms` is deterministic; `frame_digest` (FNV-1a over
//! the frame's RGB bytes) is what `scripts/check.sh` compares between
//! two runs.

use std::time::Instant;

use gtw_desim::Json;

use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_net::ip::IpConfig;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Dims;
use gtw_viz::image::Image;
use gtw_viz::raycast::{RenderParams, VolumeRenderer};
use gtw_viz::workbench::{measured_compression, workbench_frame_rate, FrameTransport, Workbench};

fn emit_json(render_ms: f64, frame: &Image, ratio: f64) {
    let wb = Workbench::paper();
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (_, mtu, hops) = tb.topology.path(tb.onyx_gmd, tb.onyx_juelich).expect("viz path");
    let mut transports = Vec::new();
    for (name, transport) in
        [("raw_ip", FrameTransport::RawIp), ("rle", FrameTransport::Rle { ratio })]
    {
        let (fps, lat) = workbench_frame_rate(&wb, transport, &hops, IpConfig { mtu });
        transports.push(Json::obj([
            ("transport", Json::from(name)),
            ("fps", Json::from(fps)),
            ("frame_latency_ms", Json::from(lat.as_millis_f64())),
        ]));
    }
    let hop622 =
        gtw_net::host::HostNic::workstation_atm622().hop(gtw_desim::SimDuration::from_micros(500));
    let (fps622, _) =
        workbench_frame_rate(&wb, FrameTransport::RawIp, &[hop622], IpConfig::large_mtu());
    let digest = frame
        .to_rgb_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    let doc = Json::obj([
        ("experiment", Json::from("fig4_workbench_frame_rates")),
        ("render_ms", Json::from(render_ms)),
        ("coverage", Json::from(frame.coverage())),
        ("frame_digest", Json::from(format!("{digest:016x}"))),
        ("rle_ratio", Json::from(ratio)),
        ("frame_bytes", Json::from(wb.frame_bytes())),
        ("gmd_to_juelich", Json::Arr(transports)),
        ("direct_atm622_raw_ip_fps", Json::from(fps622)),
    ]);
    println!("{}", doc.pretty());
}

fn main() {
    // Render the Figure-4 view: anatomy + motor activation.
    let phantom = Phantom::standard();
    let dims = Dims::new(96, 96, 48); // anatomy-resolution stand-in
    let renderer = VolumeRenderer::new(phantom.anatomy(dims), Some(phantom.activation_map(dims)));
    let t0 = Instant::now();
    let frame = renderer.render(&RenderParams { width: 512, height: 512, ..Default::default() });
    let render_ms = t0.elapsed().as_secs_f64() * 1e3;
    if gtw_bench::BenchArgs::parse().json {
        let ratio = measured_compression(&frame);
        emit_json(render_ms, &frame, ratio);
        return;
    }
    let path = std::env::temp_dir().join("gtw_fig4_head.ppm");
    std::fs::write(&path, frame.to_ppm()).expect("write PPM");
    println!("== Figure 4: rendered activated head ==");
    println!(
        "512x512 ray-cast frame in {render_ms:.0} ms (host), coverage {:.0}%, written to {}",
        frame.coverage() * 100.0,
        path.display()
    );
    let ratio = measured_compression(&frame);
    println!("measured lossless RLE compression of the rendered frame: {ratio:.2}x");

    // The workbench arithmetic.
    let wb = Workbench::paper();
    println!(
        "\nworkbench frame: {} planes x stereo x {}x{}x24bit = {:.2} MB",
        wb.planes,
        wb.width,
        wb.height,
        wb.frame_bytes() as f64 / (1024.0 * 1024.0)
    );

    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (_, mtu, hops) = tb.topology.path(tb.onyx_gmd, tb.onyx_juelich).expect("viz path");
    println!("\n== Remote display GMD Onyx2 -> Jülich workbench ==");
    println!("{:<34} {:>12} {:>14}", "transport", "frames/s", "frame latency");
    for (name, transport) in [
        ("raw classical IP (paper baseline)", FrameTransport::RawIp),
        ("AVOCADO RLE (measured ratio)", FrameTransport::Rle { ratio }),
    ] {
        let (fps, lat) = workbench_frame_rate(&wb, transport, &hops, IpConfig { mtu });
        println!("{:<34} {:>12.1} {:>11.0} ms", name, fps, lat.as_millis_f64());
    }

    // The paper's exact statement is about a direct 622 Mbit/s ATM hop.
    let hop622 =
        gtw_net::host::HostNic::workstation_atm622().hop(gtw_desim::SimDuration::from_micros(500));
    let (fps622, _) =
        workbench_frame_rate(&wb, FrameTransport::RawIp, &[hop622], IpConfig::large_mtu());
    println!(
        "\ndirect 622 Mbit/s ATM hop, classical IP: {fps622:.1} frames/s (paper: \"less than 8\")"
    );
    println!("\n== Mono/single-plane ablation ==");
    for (name, planes, stereo) in
        [("2 planes stereo", 2, true), ("1 plane stereo", 1, true), ("1 plane mono", 1, false)]
    {
        let w = Workbench { planes, stereo, ..wb };
        let (fps, _) =
            workbench_frame_rate(&w, FrameTransport::RawIp, &[hop622], IpConfig::large_mtu());
        println!("  {:<16} {:>6.1} frames/s", name, fps);
    }
}
