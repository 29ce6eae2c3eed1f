//! The RT-server / RT-client realtime chain of Figure 2.
//!
//! "FIRE includes an 'RT-server' that runs on the front-end workstation
//! of the scanner. It serves as an interface between the scanner and the
//! 'RT-client'. ... the RT-client was modified such that it can delegate
//! parts of the work to the Cray T3E in Jülich in a 'remote procedure
//! call' like manner."
//!
//! [`run_rt_session`] executes the whole chain functionally: the
//! RT-client world spawns a T3E compute world over `gtw-mpi` (the MPI-2
//! dynamic-process-creation feature the paper highlights), streams raw
//! volumes to it, and receives correlation maps back — keeping the last
//! acknowledged FIRE checkpoint, so a compute world that dies
//! mid-protocol is respawned and resumed. Virtual timing is accounted
//! with the calibrated [`T3eModel`] and the paper's delay budget, so the
//! session reports both *correct results* (validated against ground
//! truth) and *paper-comparable delays*.

use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_mpi::{Comm, FabricSpec, InterComm, MachineSpec, Placement, PointToPoint, Tag, Universe};
use gtw_scan::acquire::Scanner;
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::volume::{Dims, Volume};

use crate::pipeline::{ChainTiming, FireConfig, FirePipeline};
use crate::t3e::T3eModel;

/// Protocol tags of the RT chain.
const TAG_RAW: Tag = Tag(200);
const TAG_MAP: Tag = Tag(201);
const TAG_DONE: Tag = Tag(202);
/// Checkpoint blob: handshake restore payload and per-scan
/// acknowledgement.
const TAG_CKPT: Tag = Tag(203);

/// Per-operation deadline — generous against the 2 s hung-rank hard
/// cap, so a live-but-slow chain never trips it.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Virtual timing of one processed scan.
#[derive(Clone, Copy, Debug)]
pub struct ScanDelay {
    /// Scan index.
    pub scan: usize,
    /// Seconds from scan completion to display (the <5 s headline).
    pub total_delay_s: f64,
    /// The T3E compute share.
    pub compute_s: f64,
}

/// Result of a realtime session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Scans processed (every one, exactly once, even across crashes).
    pub scans: usize,
    /// The final correlation map (as displayed on the client).
    pub final_map: Volume,
    /// Compute-world incarnations spawned beyond the first (0 on a
    /// clean run).
    pub respawns: usize,
    /// Scans re-processed from a checkpoint after a failure.
    pub reprocessed_scans: usize,
    /// Virtual per-scan delays.
    pub delays: Vec<ScanDelay>,
    /// Virtual sustainable period in sequential mode (the paper's
    /// 2.7 s).
    pub sequential_period_s: f64,
    /// Virtual sustainable period with pipelining enabled.
    pub pipelined_period_s: f64,
}

/// One compute-world incarnation: restore from the handshake checkpoint
/// (empty blob = fresh protocol), then serve scans until `TAG_DONE` or
/// until a fault kills this rank. Every operation goes through the
/// failure-aware API so a scripted crash/hang fires and the thread
/// exits instead of deadlocking the session.
fn spawn_compute_incarnation(client: &Comm, config: FireConfig, rv: &ReferenceVector) -> InterComm {
    let rv = rv.clone();
    client.spawn(
        1,
        MachineSpec::new("Cray T3E-600 (FZJ)", FabricSpec::t3e_torus()),
        FabricSpec::wan_testbed(),
        move |t3e| {
            let parent = t3e.parent().expect("spawned world has a parent");
            let Ok((d, _)) = parent.try_recv::<f64>(0, TAG_RAW, Some(OP_TIMEOUT)) else {
                return;
            };
            let dims = Dims::new(d[0] as usize, d[1] as usize, d[2] as usize);
            let Ok((ckpt, _)) = parent.try_recv::<u8>(0, TAG_CKPT, Some(OP_TIMEOUT)) else {
                return;
            };
            let mut pipeline = if ckpt.is_empty() {
                FirePipeline::new(config, dims, rv.clone())
            } else {
                FirePipeline::restore(config, rv.clone(), &ckpt)
                    .expect("client sent a checkpoint this build wrote")
            };
            loop {
                let Ok((env, st)) = parent.recv_timeout(0, gtw_mpi::ANY_TAG, Some(OP_TIMEOUT))
                else {
                    return;
                };
                if st.tag == TAG_DONE {
                    return;
                }
                debug_assert_eq!(st.tag, TAG_RAW);
                let raw = env.payload::<f32>();
                let out = pipeline.process(&Volume::from_vec(dims, raw));
                if parent.try_send(0, TAG_MAP, &out.correlation.data).is_err() {
                    return;
                }
                if parent.try_send(0, TAG_CKPT, &pipeline.checkpoint_bytes()).is_err() {
                    return;
                }
            }
        },
    )
}

/// Run a realtime session at `pes` virtual T3E PEs (one compute rank
/// does the work; virtual timing comes from the model at `pes`). The
/// session *survives compute-world failures*: the RT-client keeps the
/// last acknowledged FIRE checkpoint, and when the T3E world dies
/// mid-protocol (scripted via `plan` — global ids: the client world is
/// rank 0, the first compute incarnation rank 1, respawns 2, 3, …; an
/// empty plan is the clean run) it spawns a fresh world, replays the
/// checkpoint, and resumes from the first unacknowledged scan. Results
/// are *state-level exactly-once*: a scan whose map was delivered but
/// whose checkpoint was lost is re-processed deterministically from a
/// checkpoint that predates it, so the final map is bit-identical to an
/// uninterrupted session.
pub fn run_rt_session(
    scanner: &Scanner,
    config: FireConfig,
    pes: usize,
    plan: &ProcessFaultPlan,
) -> SessionReport {
    let dims = scanner.config().dims;
    let scans = scanner.scan_count();
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);
    let series: Vec<Volume> = scanner.series();

    let universe = Universe::new();
    universe.install_process_faults(plan);
    // Every incarnation a scripted fault can kill, plus slack for the
    // clean tail — a plan that somehow killed more worlds than it names
    // is a bug, not a retry loop.
    let max_respawns = plan.faults.len() + 1;
    let outputs = universe.launch_and_join(
        Placement::single(1, MachineSpec::new("RT-client", FabricSpec::smp_shared())),
        move |client| {
            let dims_vec = [dims.nx as f64, dims.ny as f64, dims.nz as f64];
            let mut respawns = 0usize;
            let mut reprocessed = 0usize;
            let mut acked = 0usize;
            let mut last_ckpt: Vec<u8> = Vec::new();
            let mut last_map = Volume::zeros(dims);
            'incarnation: loop {
                let compute = spawn_compute_incarnation(&client, config, &rv);
                // Handshake: announce geometry, replay the checkpoint.
                if compute.try_send(0, TAG_RAW, &dims_vec).is_err()
                    || compute.try_send(0, TAG_CKPT, &last_ckpt).is_err()
                {
                    respawns += 1;
                    assert!(respawns <= max_respawns, "compute world keeps dying in handshake");
                    continue 'incarnation;
                }
                while acked < scans {
                    let vol = &series[acked];
                    let exchange = compute
                        .try_send(0, TAG_RAW, &vol.data)
                        .and_then(|()| compute.try_recv::<f32>(0, TAG_MAP, Some(OP_TIMEOUT)))
                        .and_then(|(map, _)| {
                            compute
                                .try_recv::<u8>(0, TAG_CKPT, Some(OP_TIMEOUT))
                                .map(|(ckpt, _)| (map, ckpt))
                        });
                    match exchange {
                        Ok((map, ckpt)) => {
                            last_map = Volume::from_vec(dims, map);
                            last_ckpt = ckpt;
                            acked += 1;
                        }
                        Err(_) => {
                            // The in-flight scan was not acknowledged:
                            // the next incarnation restores the last
                            // checkpoint and re-processes it.
                            respawns += 1;
                            reprocessed += 1;
                            assert!(respawns <= max_respawns, "compute world keeps dying");
                            continue 'incarnation;
                        }
                    }
                }
                let _ = compute.try_send::<f64>(0, TAG_DONE, &[]);
                break;
            }
            (last_map, respawns, reprocessed)
        },
    );
    universe
        .join_spawned_timeout(Duration::from_secs(30))
        .expect("all compute incarnations exited");
    let (final_map, respawns, reprocessed_scans) =
        outputs.into_iter().next().expect("client produced a map");
    let compute_s = T3eModel::t3e_600().row(pes, dims).total_s;
    let timing = ChainTiming::paper(compute_s);
    let delays = (0..scans)
        .map(|scan| ScanDelay { scan, total_delay_s: timing.latency_s(), compute_s })
        .collect();
    SessionReport {
        scans,
        final_map,
        respawns,
        reprocessed_scans,
        delays,
        sequential_period_s: timing.sequential_period_s(),
        pipelined_period_s: timing.pipelined_period_s(),
    }
}

/// The headline delay statement of the paper: with 256 PEs the total
/// scan-to-display delay stays under 5 s.
pub fn paper_headline_delay() -> f64 {
    let model = T3eModel::t3e_600();
    ChainTiming::paper(model.row(256, Dims::EPI).total_s).latency_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::acquire::ScannerConfig;
    use gtw_scan::phantom::Phantom;

    fn tiny_scanner(scans: usize) -> Scanner {
        let mut cfg = ScannerConfig::paper_default(scans, 77);
        cfg.dims = Dims::new(16, 16, 4);
        cfg.noise_sd = 2.0;
        cfg.motion_step = 0.0;
        Scanner::new(cfg, Phantom::standard())
    }

    #[test]
    fn session_runs_end_to_end() {
        let scanner = tiny_scanner(16);
        let report = run_rt_session(
            &scanner,
            FireConfig {
                median_filter: false,
                motion_correction: false,
                detrend: None,
                ..FireConfig::default()
            },
            256,
            &ProcessFaultPlan::new(0),
        );
        assert_eq!(report.scans, 16);
        assert_eq!(report.final_map.dims, scanner.config().dims);
        // The map is a real correlation map.
        for &c in &report.final_map.data {
            assert!((-1.0..=1.0).contains(&c));
        }
        // Something was detected in this activated phantom.
        let over = report.final_map.data.iter().filter(|&&c| c > 0.5).count();
        assert!(over > 0, "no activation detected");
    }

    #[test]
    fn session_matches_local_pipeline() {
        // The RPC chain must compute exactly what a local pipeline does.
        let scanner = tiny_scanner(12);
        let cfg = FireConfig {
            median_filter: true,
            motion_correction: false,
            detrend: None,
            smoothing: false,
            clip_level: 0.5,
        };
        let report = run_rt_session(&scanner, cfg, 64, &ProcessFaultPlan::new(0));
        let rv = ReferenceVector::canonical(&scanner.config().stimulus);
        let mut local = FirePipeline::new(cfg, scanner.config().dims, rv);
        let mut last = Volume::zeros(scanner.config().dims);
        for t in 0..scanner.scan_count() {
            last = local.process(&scanner.acquire(t)).correlation;
        }
        assert!(report.final_map.rms_diff(&last) < 1e-6);
    }

    #[test]
    fn resilient_session_survives_a_compute_crash_bit_identically() {
        // Kill the first compute incarnation mid-protocol (global rank 1;
        // its ops: 2 handshake recvs + 3 per scan, so op 8 is scan 1's
        // checkpoint send). The client respawns, replays the checkpoint
        // and re-processes the unacknowledged scan — the final map is
        // bit-identical to the uninterrupted session.
        let scanner = tiny_scanner(12);
        let cfg = FireConfig {
            median_filter: true,
            motion_correction: false,
            detrend: Some(2),
            smoothing: false,
            clip_level: 0.5,
        };
        let clean = run_rt_session(&scanner, cfg, 64, &ProcessFaultPlan::new(0));
        let mut plan = ProcessFaultPlan::new(1999);
        plan.crash_after_ops(1, 8);
        let r = run_rt_session(&scanner, cfg, 64, &plan);
        assert_eq!(r.scans, 12);
        assert_eq!(r.respawns, 1, "exactly one respawn");
        assert_eq!(r.reprocessed_scans, 1, "the unacked scan was re-run");
        assert_eq!(
            r.final_map.data, clean.final_map.data,
            "checkpoint restart must be bit-identical"
        );
        // Same seed, same plan: the whole recovery replays.
        let again = run_rt_session(&scanner, cfg, 64, &plan);
        assert_eq!(again.respawns, 1);
        assert_eq!(again.final_map.data, r.final_map.data);
    }

    #[test]
    fn resilient_session_with_empty_plan_is_a_clean_run() {
        let scanner = tiny_scanner(8);
        let cfg = FireConfig {
            median_filter: false,
            motion_correction: false,
            detrend: None,
            ..FireConfig::default()
        };
        let clean = run_rt_session(&scanner, cfg, 64, &ProcessFaultPlan::new(0));
        // The plan's seed only steers faults; with none it must not matter.
        let r = run_rt_session(&scanner, cfg, 64, &ProcessFaultPlan::new(7));
        assert_eq!((clean.respawns, clean.reprocessed_scans), (0, 0));
        assert_eq!((r.respawns, r.reprocessed_scans), (0, 0));
        assert_eq!(r.final_map.data, clean.final_map.data);
    }

    #[test]
    fn resilient_session_survives_a_crash_during_handshake() {
        // Dying on op 2 (the checkpoint recv) exercises the respawn path
        // before any scan was exchanged: nothing is re-processed, the
        // protocol simply starts over on the second incarnation.
        let scanner = tiny_scanner(6);
        let cfg = FireConfig {
            median_filter: false,
            motion_correction: false,
            detrend: None,
            ..FireConfig::default()
        };
        let clean = run_rt_session(&scanner, cfg, 64, &ProcessFaultPlan::new(0));
        let mut plan = ProcessFaultPlan::new(42);
        plan.crash_after_ops(1, 2);
        let r = run_rt_session(&scanner, cfg, 64, &plan);
        assert_eq!(r.respawns, 1, "{r:?}");
        assert_eq!(r.final_map.data, clean.final_map.data);
    }

    #[test]
    fn headline_delay_under_five_seconds() {
        let d = paper_headline_delay();
        assert!(d < 5.0, "scan-to-display delay {d}");
        assert!(d > 4.0, "delay implausibly low: {d}");
    }

    #[test]
    fn virtual_delays_scale_with_pes() {
        let scanner = tiny_scanner(4);
        let cfg = FireConfig::workstation();
        let few = run_rt_session(&scanner, cfg, 8, &ProcessFaultPlan::new(0));
        let many = run_rt_session(&scanner, cfg, 256, &ProcessFaultPlan::new(0));
        assert!(few.delays[0].total_delay_s > many.delays[0].total_delay_s);
        assert!(many.pipelined_period_s < many.sequential_period_s);
        // At the paper's full 64x64x16 matrix the sequential period is
        // the 2.7 s the paper quotes.
        let timing = ChainTiming::paper(T3eModel::t3e_600().row(256, Dims::EPI).total_s);
        assert!((timing.sequential_period_s() - 2.71).abs() < 0.05);
    }
}
