//! Process-fault semantics: seeded rank crashes thrown at the
//! failure-aware API. Every scenario must uphold the contract:
//!
//! 1. **Prompt failure** — survivors blocked on a dead rank get
//!    `CommError::RankFailed` naming it, never a hang; the dead rank
//!    gets it naming itself.
//! 2. **Respawn and resume** — a dead spawned rank is replaced through
//!    the same MPI-2 spawn path, and its work resumes exactly once.
//! 3. **Zero cost** — with no fault plan installed, nothing changes.
//!
//! A scripted hang is exercised end to end by FIRE's realtime session
//! (`gtw_fire::rt`), which waits out the hung rank's 2 s self-declaration.
//!
//! The master seed is fixed for CI and overridable locally:
//!
//! ```text
//! GTW_FAULT_SEED=12345 cargo test -p gtw-mpi --test failures
//! ```

use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_desim::{SimTime, Window};
use gtw_mpi::comm::InterComm;
use gtw_mpi::{
    CommError, FabricSpec, FailCause, MachineSpec, Placement, PointToPoint, ReduceOp, Tag, Universe,
};

fn master_seed() -> u64 {
    std::env::var("GTW_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x6774_7732)
    // "gtw2"
}

const OP_TIMEOUT: Duration = Duration::from_secs(10);

fn smp(n: usize) -> Placement {
    Placement::single(n, MachineSpec::new("local", FabricSpec::smp_shared()))
}

#[test]
fn crash_during_barrier_survivors_shrink_and_complete() {
    let mut plan = ProcessFaultPlan::new(master_seed());
    plan.crash_after_ops(2, 1); // global rank 2 dies at its first try-op
    let u = Universe::new();
    u.install_process_faults(&plan);
    let out = u.launch_and_join(smp(4), |comm| match comm.try_barrier(Some(OP_TIMEOUT)) {
        Ok(()) => panic!("barrier cannot complete with a dead member"),
        // Survivors name the dead; the victim observes its own crash.
        Err(CommError::RankFailed { rank }) => rank,
        Err(e) => panic!("unexpected error {e}"),
    });
    assert_eq!(out, [2; 4], "every member names rank 2");
    assert_eq!(u.failed_ranks(), vec![2]);
    assert_eq!(u.fail_cause(2), Some(FailCause::Crash));
}

#[test]
fn crash_during_allreduce_survivors_recompute() {
    // Victim drawn from the seeded stream, excluding the root so the
    // collected-contribution path is exercised too; the scenario holds
    // for any victim (the root case is the barrier test's job).
    let plan = ProcessFaultPlan::random_crash(
        master_seed(),
        5,
        Window::new(SimTime::ZERO, SimTime::from_millis(1)),
    );
    let &victim = plan.faults.keys().next().expect("one victim scripted");
    let mut plan = ProcessFaultPlan::new(master_seed());
    let victim = if victim == 0 { 1 } else { victim };
    plan.crash_after_ops(victim, 1);
    let u = Universe::new();
    u.install_process_faults(&plan);
    let out = u.launch_and_join(smp(5), |comm| {
        let contrib = [comm.rank() as f64];
        match comm.try_allreduce_f64s(ReduceOp::Sum, &contrib, Some(OP_TIMEOUT)) {
            Ok(_) => panic!("allreduce cannot complete with a dead member"),
            // Survivors name the dead; the victim observes its own crash.
            Err(CommError::RankFailed { rank }) => rank,
            Err(e) => panic!("unexpected error {e}"),
        }
    });
    assert_eq!(out, [victim; 5], "every member names rank {victim}");
}

#[test]
fn intercomm_crash_detected_and_respawned() {
    // A 1-rank parent streams from a spawned child; the child crashes
    // mid-stream (seeded op trigger), the parent observes RankFailed on
    // the inter-communicator and respawns a replacement via the same
    // MPI-2 spawn path — the paper's dynamic process creation, now used
    // for recovery. Every payload must arrive exactly once.
    const TOTAL: u64 = 10;
    const SENT_BEFORE_CRASH: u64 = 5;
    let mut plan = ProcessFaultPlan::new(master_seed());
    // Parent world registers global 0; the first spawned child is global 1.
    plan.crash_after_ops(1, SENT_BEFORE_CRASH + 1);
    let u = Universe::new();
    u.install_process_faults(&plan);
    let out = u.launch_and_join(smp(1), |comm| {
        let stream_from = |kids: &InterComm, start: u64| {
            // Child sends start.. until its injector kills it.
            let mut got = Vec::new();
            loop {
                match kids.try_recv::<u64>(gtw_mpi::ANY_SOURCE, Tag(7), Some(OP_TIMEOUT)) {
                    Ok((v, _)) => {
                        got.push(v[0]);
                        if v[0] + 1 == TOTAL {
                            return (got, false);
                        }
                    }
                    Err(CommError::RankFailed { rank }) => {
                        assert_eq!(rank, 0, "the only child died");
                        return (got, true);
                    }
                    Err(e) => panic!("unexpected error {e} from {start}"),
                }
            }
        };
        let child_body = |start: u64| {
            move |child: gtw_mpi::Comm| {
                let parent = child.parent().expect("child has a parent");
                for i in start..TOTAL {
                    if parent.try_send(0, Tag(7), &[i]).is_err() {
                        return; // our own crash fired: go silent
                    }
                }
            }
        };
        let machine = MachineSpec::new("T3E", FabricSpec::t3e_torus());
        let kids = comm.spawn(1, machine.clone(), child_body(0));
        let (mut got, crashed) = stream_from(&kids, 0);
        assert!(crashed, "the scripted crash must fire");
        assert_eq!(got.len() as u64, SENT_BEFORE_CRASH, "ops before the trigger all arrive");
        // Respawn replacements for the lost rank and resume the stream
        // where it stopped.
        let resume = got.len() as u64;
        let kids2 = comm.spawn(1, machine, child_body(resume));
        let (rest, crashed2) = stream_from(&kids2, resume);
        assert!(!crashed2, "the replacement child survives");
        got.extend(rest);
        got
    });
    assert_eq!(out[0], (0..TOTAL).collect::<Vec<u64>>(), "exactly-once across the respawn");
    assert_eq!(u.failed_ranks(), vec![1]);
    // The stuck child threads are all finished; join promptly.
    assert_eq!(u.join_spawned_timeout(Duration::from_secs(5)), Ok(()));
}

#[test]
fn intercomm_recv_blames_the_caller_for_its_own_death() {
    // A spawned child blocks on its parent, which is alive, and is then
    // declared dead itself. The poisoned mailbox aborts the wait, and the
    // error must name the child's own global id, not the live parent.
    let u = Universe::new();
    let (tx, rx) = std::sync::mpsc::channel();
    let declarer = u.clone();
    u.launch_and_join(smp(1), move |comm| {
        let tx = tx.clone();
        let machine = MachineSpec::new("T3E", FabricSpec::t3e_torus());
        let kids = comm.spawn(1, machine, move |child| {
            let parent = child.parent().expect("child has a parent");
            parent.try_send(0, Tag(1), &[0u64]).expect("parent is alive");
            let err = parent.recv_timeout(0, Tag(2), Some(OP_TIMEOUT)).expect_err("nobody sends");
            tx.send(err).expect("the test is listening");
        });
        kids.try_recv::<u64>(0, Tag(1), Some(OP_TIMEOUT)).expect("the child is about to block");
        // Give the child time to park in its claim, so the declaration
        // aborts the wait. (Declared before it parks, the child fails its
        // entry check instead, which names it too: the assertion below
        // holds in either order; only the abort path was wrong.)
        std::thread::sleep(Duration::from_millis(50));
        // Parent world registers global 0; the child is global 1.
        declarer.declare_failed(1, FailCause::Crash);
    });
    let err = rx.recv_timeout(OP_TIMEOUT).expect("the child returns");
    assert_eq!(err, CommError::RankFailed { rank: 1 });
    assert_eq!(u.join_spawned_timeout(Duration::from_secs(5)), Ok(()));
}

#[test]
fn recv_timeout_expires_without_a_sender() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let start = std::time::Instant::now();
            let err = comm
                .recv_timeout(1, Tag(5), Some(Duration::from_millis(40)))
                .expect_err("nobody sends");
            (err, start.elapsed() >= Duration::from_millis(40))
        } else {
            (CommError::Timeout, true)
        }
    });
    assert_eq!(out[0], (CommError::Timeout, true));
}

#[test]
fn attach_timeout_errors_without_partner() {
    let out = Universe::run(1, |comm| {
        let start = std::time::Instant::now();
        let err = comm
            .attach_timeout("nobody-home", Duration::from_millis(50))
            .err()
            .expect("missing partner must not block forever");
        (err, start.elapsed() < Duration::from_secs(2))
    });
    assert_eq!(out[0].0, CommError::Timeout);
    assert!(out[0].1, "timeout honoured promptly");
}

#[test]
fn attach_timeout_still_pairs_when_partner_arrives() {
    let u = Universe::new();
    let u2 = u.clone();
    let a = std::thread::spawn(move || {
        u2.launch_and_join(smp(1), |comm| {
            let peer = comm
                .attach_timeout("late-port", Duration::from_secs(5))
                .expect("partner arrives in time");
            peer.try_send(0, Tag(2), &[41u64]).unwrap();
            let (v, _) = peer.try_recv::<u64>(0, Tag(3), Some(OP_TIMEOUT)).unwrap();
            v[0]
        })
    });
    let b = u.launch_and_join(smp(1), |comm| {
        let peer = comm
            .attach_timeout("late-port", Duration::from_secs(5))
            .expect("partner already waiting");
        let (v, _) = peer.try_recv::<u64>(0, Tag(2), Some(OP_TIMEOUT)).unwrap();
        peer.try_send(0, Tag(3), &[v[0] + 1]).unwrap();
        v[0]
    });
    assert_eq!(b, vec![41]);
    assert_eq!(a.join().unwrap(), vec![42]);
}

#[test]
fn slow_fault_inflates_modeled_cost_but_never_kills() {
    use gtw_desim::Schedule;
    let mut plan = ProcessFaultPlan::new(master_seed());
    // Rank 1 is slowed 8x over its whole (virtual) life.
    plan.slow(1, Schedule::new(vec![Window::new(SimTime::ZERO, SimTime::from_secs(3600))]), 8.0);
    let run = |faulted: bool| {
        let u = Universe::new();
        if faulted {
            u.install_process_faults(&plan);
        }
        u.launch_and_join(smp(2), |comm| {
            let peer = 1 - comm.rank();
            for _ in 0..20 {
                comm.try_send(peer, Tag(4), &[0.0; 512]).unwrap();
                let _ = comm.try_recv::<f64>(peer, Tag(4), Some(OP_TIMEOUT)).unwrap();
            }
            comm.comm_cost().seconds
        })
    };
    let clean = run(false);
    let slowed = run(true);
    assert!(
        slowed[1] > clean[1] * 6.0,
        "slow node pays the factor: clean {} vs slowed {}",
        clean[1],
        slowed[1]
    );
    assert!(
        (slowed[0] - clean[0]).abs() < clean[0] * 0.01,
        "the healthy rank's own cost is untouched"
    );
}

#[test]
fn empty_plan_is_invisible() {
    // Installing an empty plan must leave the failure-aware path
    // behaviourally identical to a clean universe: same results, same
    // modeled cost, nothing declared failed.
    let run = |install: bool| {
        let u = Universe::new();
        if install {
            u.install_process_faults(&ProcessFaultPlan::new(master_seed()));
        }
        let out = u.launch_and_join(smp(3), |comm| {
            comm.try_barrier(Some(OP_TIMEOUT)).unwrap();
            let sum = comm
                .try_allreduce_f64s(ReduceOp::Sum, &[comm.rank() as f64], Some(OP_TIMEOUT))
                .unwrap();
            (sum[0], comm.comm_cost().seconds)
        });
        (out, u.failed_ranks())
    };
    let (clean, f1) = run(false);
    let (empty, f2) = run(true);
    assert_eq!(clean, empty);
    assert!(f1.is_empty() && f2.is_empty());
}

#[test]
fn same_seed_reproduces_the_same_casualty_list() {
    // The window is tiny (2 µs of modeled comm time) so the victim's
    // virtual clock is guaranteed to cross the crash instant within the
    // first couple of operations below.
    let window = Window::new(SimTime::ZERO, SimTime::from_micros(2));
    let a = ProcessFaultPlan::random_crash(master_seed(), 6, window);
    let b = ProcessFaultPlan::random_crash(master_seed(), 6, window);
    assert_eq!(a, b);
    let run = |plan: &ProcessFaultPlan| {
        let u = Universe::new();
        u.install_process_faults(plan);
        u.launch_and_join(smp(6), |comm| {
            // Everyone charges enough virtual comm time to cross the
            // fault window, then checks health once more.
            for _ in 0..4 {
                let peer = (comm.rank() + 1) % comm.size();
                let _ = comm.try_send(peer, Tag(8), &[1u64; 256]);
                let _ = comm.try_recv::<u64>(
                    gtw_mpi::ANY_SOURCE,
                    Tag(8),
                    Some(Duration::from_millis(200)),
                );
            }
            let _ = comm.try_barrier(Some(Duration::from_millis(200)));
        });
        u.failed_ranks()
    };
    let first = run(&a);
    let second = run(&b);
    assert_eq!(first, second, "same seed, same casualties");
    assert_eq!(first.len(), 1, "exactly one scripted victim");
}

#[test]
fn crash_at_op_rank_leaks_no_contribution_into_survivor_mailboxes() {
    // Regression for the poll-before-post rule: the allreduce entry
    // health check must poll the fault injector *before* the rank's
    // contribution is posted. A victim that posted first and then died
    // would leave an envelope in the root's mailbox that no survivor
    // ever claims — their collective aborts on the failure instead —
    // leaking the mailbox slot across every later epoch.
    let mut plan = ProcessFaultPlan::new(master_seed());
    plan.crash_after_ops(2, 1); // global rank 2 dies at its first try-op poll
    let u = Universe::new();
    u.install_process_faults(&plan);
    let leaked = u.launch_and_join(smp(4), |comm| {
        let r = comm.try_allreduce_f64s(ReduceOp::Sum, &[comm.rank() as f64], Some(OP_TIMEOUT));
        assert!(r.is_err(), "allreduce with a dead member must fail on every rank");
        // After the abort, nothing claimable from the victim may remain:
        // a receive whose deadline has passed would take it.
        let now = Some(Duration::ZERO);
        comm.rank() == 0 && comm.recv_timeout(2, gtw_mpi::ANY_TAG, now).is_ok()
    });
    assert!(leaked.iter().all(|&l| !l), "victim contribution leaked into the root's mailbox");
    // The victim's own mailbox is drained by poisoning, and the
    // poll-before-post recheck keeps its mail out of everyone else's.
    assert_eq!(u.pending_messages(2), 0, "poisoned mailbox must drain");
}

#[test]
fn topo_try_collectives_fail_cleanly_with_a_dead_member() {
    // The topology-aware try-variants poll the injector once at entry —
    // the same count as their flat counterparts — so one seeded plan
    // fires at the same collective on either path, and survivors see
    // clean RankFailed errors rather than hangs.
    let wan = Placement::split(
        6,
        2,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let mut plan = ProcessFaultPlan::new(master_seed());
    plan.crash_after_ops(3, 1);
    let u = Universe::new();
    u.install_process_faults(&plan);
    let outs = u.launch_and_join(wan, |comm| {
        let r =
            comm.try_allreduce_topo_f64s(ReduceOp::Sum, &[comm.rank() as f64], Some(OP_TIMEOUT));
        match &r {
            Err(CommError::RankFailed { .. }) => {}
            other => panic!("expected clean failure, got {other:?}"),
        }
        // Follow-up topo collectives on the broken communicator keep
        // failing fast instead of deadlocking. A barrier can never
        // complete with a dead member; a bcast may still succeed for
        // ranks the payload reaches before the dead rank is on the path
        // (failure knowledge is not global), so only the dead
        // rank's site must see the error.
        assert!(comm.try_barrier_topo(Some(OP_TIMEOUT)).is_err());
        let b = comm.try_bcast_topo_f64s(0, &[1.0], Some(OP_TIMEOUT));
        if comm.rank() >= 2 {
            assert!(b.is_err(), "the victim's site must observe the failure");
        }
        true
    });
    assert_eq!(outs.len(), 6);
}
