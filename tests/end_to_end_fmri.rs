//! Cross-crate integration: scanner → FIRE → visualization → network.
//!
//! These tests exercise the whole fMRI chain the paper's Section 4
//! describes, spanning `gtw-scan`, `gtw-fire`, `gtw-viz`, `gtw-net` and
//! `gtw-core`.

use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_fire::analysis::score_detection;
use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_fire::realtime::{run_chain, ChainMode};
use gtw_fire::rvo::{intensity_mask, optimize, RvoBounds, RvoMethod, RvoResult};
use gtw_net::ip::IpConfig;
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};
use gtw_viz::overlay::{render_montage, render_overlay};
use gtw_viz::raycast::{RenderParams, VolumeRenderer};
use gtw_viz::workbench::{workbench_frame_rate, FrameTransport, Workbench};

/// Mean absolute delay and dispersion error of an RVO fit against the
/// truth, over the voxels `mask` keeps.
fn recovery_error(
    result: &RvoResult,
    mask: &[bool],
    delay_s: f64,
    dispersion_s: f64,
) -> (f64, f64) {
    let kept: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
    let n = kept.len().max(1) as f64;
    let err = |map: &Volume, truth: f64| {
        kept.iter().map(|&i| (map.data[i] as f64 - truth).abs()).sum::<f64>() / n
    };
    (err(&result.delay, delay_s), err(&result.dispersion, dispersion_s))
}

fn test_scanner(scans: usize, dims: Dims, seed: u64) -> Scanner {
    let mut cfg = ScannerConfig::paper_default(scans, seed);
    cfg.dims = dims;
    cfg.noise_sd = 3.0;
    Scanner::new(cfg, Phantom::standard())
}

#[test]
fn scan_process_display_chain() {
    let scanner = test_scanner(40, Dims::new(32, 32, 8), 1001);
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);
    let mut fire = FirePipeline::new(FireConfig::default(), scanner.config().dims, rv);
    for t in 0..scanner.scan_count() {
        fire.process(&scanner.acquire(t));
    }
    let map = fire.correlation_map();

    // Detection against ground truth.
    let truth = scanner.phantom().truth_mask(scanner.config().dims, 0.025);
    let score = score_detection(&map, &truth, 0.45);
    assert!(score.tpr >= 0.5, "{score:?}");
    assert!(score.fpr < 0.06, "{score:?}");

    // 2-D display (Figure 3) renders with overlay pixels present.
    let img = render_overlay(scanner.anatomy(), &map, scanner.config().dims.nz / 2, 0.45);
    assert!(img.coverage() > 0.2);
    let montage = render_montage(scanner.anatomy(), &map, 0.45, 4);
    assert_eq!(montage.width, 4 * 32);

    // 3-D rendering (Figure 4) shows the head.
    let renderer = VolumeRenderer::new(scanner.anatomy().clone(), Some(map));
    let frame = renderer.render(&RenderParams { width: 96, height: 96, ..Default::default() });
    assert!(frame.coverage() > 0.05 && frame.coverage() < 0.95);
}

#[test]
fn rvo_recovers_subject_hrf_end_to_end() {
    // A subject with a non-canonical HRF: the chain (scanner with true
    // delay 7.5 s -> RVO over the acquired series) must recover the
    // parameters.
    let mut cfg = ScannerConfig::paper_default(48, 77);
    cfg.dims = Dims::new(24, 24, 6);
    cfg.noise_sd = 2.0;
    cfg.motion_step = 0.0;
    cfg.drift_fraction = 0.0;
    cfg.true_delay_s = 7.5;
    cfg.true_dispersion_s = 1.4;
    let scanner = Scanner::new(cfg, Phantom::standard());
    let series: Vec<_> = (0..scanner.scan_count()).map(|t| scanner.acquire(t)).collect();
    // Only strongly activated voxels carry HRF information.
    let amp = scanner.activation();
    let mask: Vec<bool> = amp.data.iter().map(|&a| a > 0.02).collect();
    assert!(mask.iter().any(|&b| b), "no activated voxels in mask");
    let stimulus = &scanner.config().stimulus;
    let rvo =
        optimize(&series, stimulus, RvoBounds::default(), RvoMethod::paper_grid(), Some(&mask));
    let (d_err, w_err) = recovery_error(&rvo, &mask, 7.5, 1.4);
    assert!(d_err < 1.0, "delay error {d_err}");
    assert!(w_err < 0.6, "dispersion error {w_err}");
    // The intensity mask helper is consistent with the anatomy.
    let brain = intensity_mask(scanner.anatomy(), 100.0);
    assert!(brain.iter().filter(|&&b| b).count() > 100);
}

#[test]
fn traced_fmri_chain_exports_one_cross_layer_timeline() {
    // The observability layer end to end: the FIRE compute pipeline
    // (wall-clock stage spans), the event-driven realtime chain
    // (virtual-time stage spans) and a testbed network transfer (per-hop
    // spans) each export valid Chrome traces, and the chain's latency
    // histogram accounts for the scenario's end-to-end budget.
    use gtw_desim::{validate_chrome_trace, Observer};
    use gtw_fire::realtime::{run_chain_with, ChainOptions};
    use gtw_net::transfer::{BulkTransfer, Protocol, RunOptions};

    // 1. Compute layer: real FIRE modules with wall-clock spans.
    let scanner = test_scanner(8, Dims::new(16, 16, 4), 9);
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);
    let fire_sink = Observer::recording();
    let mut fire = FirePipeline::new(FireConfig::default(), scanner.config().dims, rv);
    fire.observe(&fire_sink);
    for t in 0..scanner.scan_count() {
        fire.process(&scanner.acquire(t));
    }
    assert!(fire_sink.snapshot().iter().any(|s| s.name == "filter"));
    validate_chrome_trace(&fire_sink.to_chrome_trace().dump()).expect("FIRE trace valid");

    // 2. Chain layer: the scenario's stage budget run on the kernel.
    let scenario = FmriScenario::paper(256).run();
    let cfg = scenario.chain(3.0, 20);
    let chain_sink = Observer::recording();
    let chain = run_chain_with(
        cfg,
        ChainMode::Pipelined,
        &ChainOptions { observer: chain_sink.clone(), ..ChainOptions::default() },
    );
    validate_chrome_trace(&chain_sink.to_chrome_trace().dump()).expect("chain trace valid");
    // Per-stage breakdown sums (exactly) to the end-to-end latency, and
    // the measured distribution agrees with the analytic budget.
    let stage_sum =
        scenario.acquire_s + scenario.transfers_s + scenario.compute_s + scenario.display_s;
    assert!(((stage_sum - scenario.total_s) / scenario.total_s).abs() < 0.01);
    assert_eq!(chain.latency.count(), chain.displayed as u64);
    assert!((chain.latency.p50().as_secs_f64() - scenario.total_s).abs() < 0.1, "{chain:?}");

    // 3. Network layer: a traced transfer over the real testbed path.
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, mtu, _) = tb.topology.path(tb.t3e_600, tb.sp2).expect("path");
    let xfer = BulkTransfer {
        hops: tb.topology.path_hops(&path, mtu),
        ip: IpConfig { mtu },
        bytes: 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
    };
    let net_sink = Observer::recording();
    let (report, run) =
        xfer.run_with(&RunOptions { observer: net_sink.clone(), ..RunOptions::default() });
    let (plain_report, plain_run) = xfer.run_with(&RunOptions::default());
    // Tracing never perturbs virtual time.
    assert_eq!(report.elapsed, plain_report.elapsed);
    assert_eq!(run.events_processed, plain_run.events_processed);
    let check = validate_chrome_trace(&net_sink.to_chrome_trace().dump()).expect("net trace valid");
    assert!(check.spans > 0 && check.tids > 1);
    assert!(run.receivers[0].recorder.hist.count() > 0);
}

#[test]
fn workbench_stream_over_real_testbed_path() {
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (_, mtu, hops) = tb.topology.path(tb.onyx_gmd, tb.onyx_juelich).expect("path");
    let wb = Workbench::paper();
    let (fps, latency) = workbench_frame_rate(&wb, FrameTransport::RawIp, &hops, IpConfig { mtu });
    // The GMD->Jülich visualization path is HiPPI-gateway-bound; the
    // paper's <8 fps statement holds with margin.
    assert!(fps < 8.0, "fps {fps}");
    assert!(fps > 2.0, "fps {fps}");
    assert!(latency.as_secs_f64() < 1.0);
}

#[test]
fn upgrade_era_shortens_fmri_transfers() {
    // The same scenario on the OC-12-era testbed: transfers are no
    // faster than on OC-48 (the WAN is not the bottleneck for small
    // functional images, so they should be close).
    let new = FmriScenario::paper(256).run();
    let mut old_scenario = FmriScenario::paper(256);
    old_scenario.testbed = GigabitTestbedWest::build(LinkEra::Oc12Initial);
    let old = old_scenario.run();
    assert!(new.transfers_s <= old.transfers_s * 1.05);
    // Both eras achieve the <5 s headline (the compute dominates).
    assert!(new.total_s < 5.0 && old.total_s < 5.0);
}

#[test]
fn realtime_chain_consistent_with_scenario_budget() {
    // The event-driven chain, run on the scenario's own stage times,
    // measures the scenario's analytic latency and periods.
    let scenario = FmriScenario::paper(256).run();
    let r = run_chain(scenario.chain(3.0, 30), ChainMode::Sequential);
    assert!((r.mean_latency_s - scenario.total_s).abs() < 0.05, "{r:?} vs {scenario:?}");
    assert_eq!(r.skipped, 0);
    // At TR 2 s the sequential chain falls behind and shows its service
    // time; pipelined, the paper's chain could have kept up.
    let s = run_chain(scenario.chain(2.0, 30), ChainMode::Sequential);
    assert!(s.skipped > 0, "{s:?}");
    assert!((s.period_s - scenario.sequential_period_s).abs() < 0.4, "{s:?} vs {scenario:?}");
    let p = run_chain(scenario.chain(2.0, 30), ChainMode::Pipelined);
    assert_eq!(p.skipped, 0);
}
