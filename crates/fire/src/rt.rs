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
//! mid-protocol is respawned and resumed. The session reports *results*
//! (validated against ground truth) and what recovery cost; how long
//! each stage takes is `gtw_core::scenario::FmriScenario`'s to say.

use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_mpi::{Comm, FabricSpec, InterComm, MachineSpec, Placement, PointToPoint, Tag, Universe};
use gtw_scan::acquire::Scanner;
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::volume::{Dims, Volume};

use crate::pipeline::{FireConfig, FirePipeline};

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
}

/// One compute-world incarnation: restore from the handshake checkpoint
/// (empty blob = fresh protocol), then serve scans until `TAG_DONE` or
/// until a fault kills this rank. Every operation goes through the
/// failure-aware API so a scripted crash/hang fires and the thread
/// exits instead of deadlocking the session.
fn spawn_compute_incarnation(client: &Comm, config: FireConfig, rv: &ReferenceVector) -> InterComm {
    let rv = rv.clone();
    client.spawn(1, MachineSpec::new("Cray T3E-600 (FZJ)", FabricSpec::t3e_torus()), move |t3e| {
        // `Comm::spawn` gives every rank of the world it starts a parent.
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
            // The client replays only blobs an earlier incarnation sent
            // it from `checkpoint_bytes`, byte for byte.
            FirePipeline::restore(config, rv.clone(), &ckpt)
                .expect("client sent a checkpoint this build wrote")
        };
        loop {
            let Ok((env, st)) = parent.recv_timeout(0, gtw_mpi::ANY_TAG, Some(OP_TIMEOUT)) else {
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
    })
}

/// Run a realtime session: one compute rank of a spawned T3E world
/// processes every scan. The session *survives compute-world failures*:
/// the RT-client keeps the last acknowledged FIRE checkpoint, and when
/// the T3E world dies mid-protocol (scripted via `plan` — global ids:
/// the client world is rank 0, the first compute incarnation rank 1,
/// respawns 2, 3, …; an empty plan is the clean run) it spawns a fresh
/// world, replays the checkpoint, and resumes from the first
/// unacknowledged scan. Results are *state-level exactly-once*: a scan
/// whose map was delivered but whose checkpoint was lost is re-processed
/// deterministically from a checkpoint that predates it, so the final
/// map is bit-identical to an uninterrupted session. Panics if `plan`
/// faults rank 0: the RT-client holds the checkpoint, nothing can restore it.
pub fn run_rt_session(
    scanner: &Scanner,
    config: FireConfig,
    plan: &ProcessFaultPlan,
) -> SessionReport {
    assert!(plan.fault(0).is_none(), "the plan faults the RT-client (rank 0), not a compute world");
    let dims = scanner.config().dims;
    let scans = scanner.scan_count();
    let rv = ReferenceVector::canonical(&scanner.config().stimulus);
    let series: Vec<Volume> = scanner.series();

    let universe = Universe::new();
    universe.install_process_faults(plan);
    // Invariant of the `respawns <= max_respawns` asserts below: each
    // incarnation is a new global rank and a plan faults a rank at most
    // once, so k faults kill at most k worlds (the spare covers a live
    // world missing `OP_TIMEOUT` once). Past it is a bug, not a retry.
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
    // Every incarnation exits within `OP_TIMEOUT` of its last message
    // (a hung one declares itself dead at its 2 s cap), well inside 30 s.
    universe
        .join_spawned_timeout(Duration::from_secs(30))
        .expect("all compute incarnations exited");
    // One output per rank of the single-rank client placement.
    let (final_map, respawns, reprocessed_scans) =
        outputs.into_iter().next().expect("client produced a map");
    SessionReport { scans, final_map, respawns, reprocessed_scans }
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
        let report = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(0));
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
        let clean = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(0));
        let mut plan = ProcessFaultPlan::new(1999);
        plan.crash_after_ops(1, 8);
        let r = run_rt_session(&scanner, cfg, &plan);
        assert_eq!(r.scans, 12);
        assert_eq!(r.respawns, 1, "exactly one respawn");
        assert_eq!(r.reprocessed_scans, 1, "the unacked scan was re-run");
        assert_eq!(
            r.final_map.data, clean.final_map.data,
            "checkpoint restart must be bit-identical"
        );
        // Same seed, same plan: the whole recovery replays.
        let again = run_rt_session(&scanner, cfg, &plan);
        assert_eq!(again.respawns, 1);
        assert_eq!(again.final_map.data, r.final_map.data);
    }

    #[test]
    fn resilient_session_survives_a_hang() {
        // The first compute incarnation goes silent at op 8 (scan 1's
        // checkpoint send), as the crash above dies there. Nothing
        // watches for silence: the client's receive waits until the hung
        // rank declares itself dead at its 2 s cap, then respawns.
        let scanner = tiny_scanner(6);
        let cfg = FireConfig {
            median_filter: false,
            motion_correction: false,
            detrend: None,
            ..FireConfig::default()
        };
        let clean = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(0));
        let mut plan = ProcessFaultPlan::new(2026);
        plan.hang_after_ops(1, 8);
        let r = run_rt_session(&scanner, cfg, &plan);
        assert_eq!(r.respawns, 1, "exactly one respawn");
        assert_eq!(r.reprocessed_scans, 1, "the unacked scan was re-run");
        assert_eq!(r.final_map.data, clean.final_map.data);
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
        let clean = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(0));
        // The plan's seed only steers faults; with none it must not matter.
        let r = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(7));
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
        let clean = run_rt_session(&scanner, cfg, &ProcessFaultPlan::new(0));
        let mut plan = ProcessFaultPlan::new(42);
        plan.crash_after_ops(1, 2);
        let r = run_rt_session(&scanner, cfg, &plan);
        assert_eq!(r.respawns, 1, "{r:?}");
        assert_eq!(r.final_map.data, clean.final_map.data);
    }

    #[test]
    #[should_panic(expected = "faults the RT-client")]
    fn a_plan_that_faults_the_client_is_refused() {
        // Before the check, this plan failed every handshake send and
        // tripped the respawn cap instead ("keeps dying in handshake").
        let mut plan = ProcessFaultPlan::new(1);
        plan.crash_after_ops(0, 1);
        run_rt_session(&tiny_scanner(4), FireConfig::workstation(), &plan);
    }
}
