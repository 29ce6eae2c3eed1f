//! A rank *is* a PE: `pes` ranks running a `gtw-par` kernel must stay
//! `pes` threads, not `pes × cores`. This file holds one test so that it
//! has the process to itself and may count the process's threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gtw_desim::StreamRng;
use gtw_fire::decomp::distributed_rvo;
use gtw_fire::rvo::{RvoBounds, RvoMethod};
use gtw_mpi::Universe;
use gtw_scan::hrf::Stimulus;
use gtw_scan::volume::{Dims, Volume};

/// Live threads of this process, where the host says (Linux).
fn live_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn eight_rvo_ranks_stay_eight_threads() {
    const RANKS: usize = 8;
    let Some(before) = live_threads() else { return };
    let mut rng = StreamRng::new(8, "nested-width");
    let dims = Dims::new(64, 64, 8);
    let stimulus = Stimulus::block_design(4, 4, 32, 2.0);
    let series: Vec<Volume> = (0..stimulus.len())
        .map(|_| Volume::from_vec(dims, (0..dims.len()).map(|_| rng.normal() as f32).collect()))
        .collect();

    let (done, high_water) = (AtomicBool::new(false), AtomicUsize::new(0));
    let fit = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                high_water.fetch_max(live_threads().unwrap_or(0), Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        let out = Universe::run(RANKS, move |comm| {
            let root = (comm.rank() == 0).then_some(&series[..]);
            distributed_rvo(&comm, root, &stimulus, RvoBounds::default(), RvoMethod::paper_grid())
        });
        done.store(true, Ordering::SeqCst);
        out.into_iter().next().flatten().expect("root returns the fit")
    });
    assert_eq!(fit.evaluations, (dims.len() * 13 * 7) as u64);
    // The sampler itself, then one thread per rank — and not one more.
    let peak = high_water.load(Ordering::SeqCst);
    assert!(peak > before, "the sampler never saw the ranks (peak {peak}, before {before})");
    assert!(peak <= before + 1 + RANKS, "{peak} threads for {RANKS} ranks (before: {before})");
}
