//! Regenerate **Figure 3**: the FIRE control panel's data — the 2-D
//! display with colour-coded correlation overlay, the ROI signal time
//! courses, and the stimulus/hemodynamic-response specification.
//!
//! Writes the overlay montage as a PPM and prints the ROI course and the
//! reference vector as text series.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin fig3_overlay
//! cargo run --release -p gtw-bench --bin fig3_overlay -- --json
//! ```
//!
//! With `--json` the stimulus, the ROI course and the overlay statistics
//! are emitted as one machine-readable document, the same bytes on every
//! run.

use gtw_desim::Json;
use gtw_fire::analysis::RoiStats;
use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_viz::overlay::render_montage;

fn main() {
    let json = gtw_bench::BenchArgs::parse().json;
    let cfg = ScannerConfig::paper_default(48, 33);
    let scanner = Scanner::new(cfg, Phantom::standard());
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);

    if !json {
        println!("== Figure 3 lower panel: stimulation time course and modeled response ==");
        print!("stimulus: ");
        for &s in &scanner.config().stimulus.course[..32] {
            print!("{}", if s > 0.5 { '#' } else { '.' });
        }
        println!();
        print!("response: ");
        let max = rv.values.iter().cloned().fold(f64::MIN, f64::max);
        for &v in &rv.values[..32] {
            let level = (v / max * 4.0).round();
            print!(
                "{}",
                match level as i64 {
                    i64::MIN..=0 => '.',
                    1 => ':',
                    2 => '-',
                    3 => '=',
                    _ => '#',
                }
            );
        }
        println!("  (stimulus ⊛ gamma HRF, delay 6 s / dispersion 1 s)");
    }

    // Run the pipeline, tracking an ROI at the motor site.
    let mut fire = FirePipeline::new(FireConfig::default(), scanner.config().dims, rv);
    let mut roi = RoiStats::sphere(scanner.config().dims, (20, 27, 12), 4.0);
    for t in 0..scanner.scan_count() {
        let out = fire.process(&scanner.acquire(t));
        roi.push(&out.corrected);
    }
    let pc = roi.percent_change();
    let map = fire.correlation_map();
    let over = map.data.iter().filter(|&&c| c >= fire.config().clip_level).count();

    if json {
        let doc = Json::obj([
            ("experiment", Json::from("fig3_overlay_roi")),
            ("scans", Json::from(scanner.scan_count())),
            (
                "stimulus",
                Json::Arr(
                    scanner.config().stimulus.course.iter().map(|&s| Json::from(s)).collect(),
                ),
            ),
            ("roi_percent_change", Json::Arr(pc.iter().map(|&v| Json::from(v as f64)).collect())),
            ("clip_level", Json::from(fire.config().clip_level as f64)),
            ("voxels_above_clip", Json::from(over)),
            ("max_correlation", Json::from(map.min_max().1 as f64)),
        ]);
        println!("{}", doc.pretty());
        return;
    }

    println!("\n== Figure 3 upper right: ROI signal time course (% change) ==");
    for (t, v) in pc.iter().enumerate() {
        if t % 4 == 0 {
            let bar = "*".repeat(((v.max(0.0)) * 12.0) as usize);
            println!("scan {t:>2}: {v:>6.2}%  {bar}");
        }
    }

    println!("\n== Figure 3 upper left: overlay montage ==");
    println!(
        "{} voxels above clip {:.2}; max correlation {:.3}",
        over,
        fire.config().clip_level,
        map.min_max().1
    );
    let montage = render_montage(scanner.anatomy(), &map, fire.config().clip_level, 4);
    let path = std::env::temp_dir().join("gtw_fig3_overlay.ppm");
    std::fs::write(&path, montage.to_ppm()).expect("write PPM");
    println!("montage ({}x{}) written to {}", montage.width, montage.height, path.display());
}
