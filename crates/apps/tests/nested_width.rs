//! A rank *is* a PE: `pes` ranks running a `gtw-par` kernel must stay
//! `pes` threads, not `pes × cores`. This file holds one test so that it
//! has the process to itself and may count the process's threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gtw_apps::meg::{distributed_music, head_grid, synthesize, Dipole, SensorArray};
use gtw_mpi::Universe;

/// Live threads of this process, where the host says (Linux).
fn live_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn eight_music_ranks_stay_eight_threads() {
    const RANKS: usize = 8;
    const GRID_STEPS: usize = 41;
    let Some(before) = live_threads() else { return };
    let array = SensorArray::helmet(5, 12);
    let dipole = Dipole { position: [0.35, 0.1, 0.45], moment: [0.0, 1.0, 0.2], frequency: 0.05 };
    let x = synthesize(&array, &[dipole], 200, 0.02, 8);

    let (done, high_water) = (AtomicBool::new(false), AtomicUsize::new(0));
    let scan = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                high_water.fetch_max(live_threads().unwrap_or(0), Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        let out = Universe::run(RANKS, move |comm| {
            let root = (comm.rank() == 0).then_some(&x);
            distributed_music(&comm, &array, root, 1, GRID_STEPS)
        });
        done.store(true, Ordering::SeqCst);
        out.into_iter().next().expect("rank 0 returns the scan")
    });
    assert_eq!(scan.spectrum.len(), head_grid(GRID_STEPS).len());
    // The sampler itself, then one thread per rank — and not one more.
    let peak = high_water.load(Ordering::SeqCst);
    assert!(peak > before, "the sampler never saw the ranks (peak {peak}, before {before})");
    assert!(peak <= before + 1 + RANKS, "{peak} threads for {RANKS} ranks (before: {before})");
}
