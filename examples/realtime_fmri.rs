//! The full Figure-2 metacomputing scenario: scanner → T3E → 2-D client
//! and Onyx 2 → Responsive Workbench, end to end.
//!
//! Prints the per-stage delay budget for several T3E partition sizes
//! (the paper's "<5 seconds total delay" at 256 PEs), runs the actual
//! RPC-style session over the in-process MPI, and reports the workbench
//! frame rate over the testbed.
//!
//! ```text
//! cargo run --release --example realtime_fmri
//! ```

use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::fault::ProcessFaultPlan;
use gtw_fire::pipeline::FireConfig;
use gtw_fire::rt::run_rt_session;
use gtw_net::ip::IpConfig;
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Dims;
use gtw_viz::workbench::{workbench_frame_rate, FrameTransport, Workbench};

fn main() {
    println!("== Figure 2: scan-to-display delay budget ==");
    println!(
        "{:>5} {:>9} {:>10} {:>9} {:>9} {:>8} {:>10} {:>8}",
        "PEs", "acquire", "transfers", "compute", "display", "total", "seq.period", "safe TR"
    );
    for pes in [8usize, 32, 128, 256] {
        let r = FmriScenario::paper(pes).run();
        println!(
            "{:>5} {:>8.2}s {:>9.2}s {:>8.2}s {:>8.2}s {:>7.2}s {:>9.2}s {:>7.1}s",
            pes,
            r.acquire_s,
            r.transfers_s,
            r.compute_s,
            r.display_s,
            r.total_s,
            r.sequential_period_s,
            r.safe_tr_s
        );
    }

    println!("\n== Functional session over the in-process MPI (RPC to a spawned T3E world) ==");
    let mut cfg = ScannerConfig::paper_default(12, 99);
    cfg.dims = Dims::new(32, 32, 8);
    let scanner = Scanner::new(cfg, Phantom::standard());
    let report = run_rt_session(&scanner, FireConfig::default(), &ProcessFaultPlan::new(0));
    let peak = report.final_map.data.iter().cloned().fold(f32::MIN, f32::max);
    println!(
        "processed {} scans; peak correlation {:.2} (its timing is the budget above)",
        report.scans, peak
    );

    println!("\n== Workbench remote display over the testbed ==");
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let wb = Workbench::paper();
    let (_, mtu, hops) = tb.topology.path(tb.onyx_gmd, tb.onyx_juelich).expect("viz path");
    let (fps_raw, lat) = workbench_frame_rate(&wb, FrameTransport::RawIp, &hops, IpConfig { mtu });
    println!(
        "frame = {} MB ({} images); raw classical IP: {:.1} frames/s, {:.0} ms/frame",
        wb.frame_bytes() / (1024 * 1024),
        wb.images_per_frame(),
        fps_raw,
        lat.as_millis_f64()
    );
    let (fps_rle, _) =
        workbench_frame_rate(&wb, FrameTransport::Rle { ratio: 3.0 }, &hops, IpConfig { mtu });
    println!("with AVOCADO RLE remote display (ratio 3.0): {fps_rle:.1} frames/s");
}
