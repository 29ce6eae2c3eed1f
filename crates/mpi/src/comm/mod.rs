//! Communicators: point-to-point messaging (`p2p.rs`), collectives
//! (`collectives.rs`) and dynamic process creation (`spawn.rs`) on two
//! handle kinds, [`Comm`] and [`InterComm`]. This file holds the handles
//! and the steps every operation is made of.
//!
//! Two things are written exactly once. The typed layer:
//! [`PointToPoint`] gives a [`Comm`] and an [`InterComm`] the same generic
//! `send`/`recv`/`try_send`/`try_recv` over any [`Payload`] element type.
//! And each collective's message pattern: a private function taking a
//! wait policy (`Wait`), which the blocking entry point and its
//! failure-aware `try_` twin both call.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::envelope::{Envelope, Payload, Tag, ANY_SOURCE};
use crate::error::{CommError, CommResult, FailCause};
use crate::machine::{CommCost, MachineSpec, Placement};
use crate::mailbox::{ClaimOutcome, Mailbox, SrcFilter};
use crate::trace::EventKind;
use crate::universe::UniverseInner;

mod collectives;
mod p2p;
mod spawn;

pub use collectives::ReduceOp;
pub use p2p::{PointToPoint, Status};

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
}

/// State shared by all ranks of one communicator: its condvar barrier.
#[derive(Default)]
pub(crate) struct CommShared {
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
}

/// Base of the reserved tag space used by collectives.
const COLL_TAG_BASE: u32 = 0x8000_0000;

// ----- what both communicator kinds share -----------------------------------

/// Local rank of global id `global` within `group`.
fn local_rank(group: &[usize], global: usize) -> Option<usize> {
    group.iter().position(|&g| g == global)
}

/// The senders a receive on `src` admits: one peer of `group`, or for
/// [`ANY_SOURCE`] all of them — and nobody else, so mail for another
/// handle on the same rank (a child's, an attached peer's) is left in the
/// mailbox for that handle.
fn source_filter(group: &[usize], src: usize) -> SrcFilter<'_> {
    if src == ANY_SOURCE {
        return SrcFilter::OneOf(group);
    }
    assert!(src < group.len(), "source {src} out of range");
    SrcFilter::Exact(group[src])
}

/// Deposit `env` in `to`, its destination's mailbox, and trace the send.
/// Under [`Wait::Guarded`] a dead destination fails fast with
/// [`CommError::RankFailed`] naming `dst` (its local rank) instead of
/// filling a poisoned mailbox.
fn deliver(
    universe: &UniverseInner,
    to: &Mailbox,
    wait: Wait,
    dst: usize,
    env: Envelope,
) -> CommResult<()> {
    let (src_global, dst_global, bytes) = (env.src, env.dst, env.byte_len() as u64);
    let dead = wait.guarded() && universe.is_failed(dst_global).is_some();
    if dead || (!to.post(env) && wait.guarded()) {
        return Err(CommError::RankFailed { rank: dst });
    }
    universe.trace.record(src_global, EventKind::Send, Some(dst_global), bytes);
    Ok(())
}

/// Poll `global`'s scripted fault injector and surface an already
/// declared self-failure, as [`CommError::RankFailed`] naming `report_as`.
/// Every failure-aware operation calls this first, so a `FaultAt::Op(n)`
/// trigger counts failure-aware operations issued by the rank.
fn check_alive(universe: &UniverseInner, global: usize, report_as: usize) -> CommResult<()> {
    let cause = if universe.faults_installed() { universe.poll_fault(global) } else { None };
    match cause {
        Some(FailCause::Crash) => _ = universe.declare_failed(global, FailCause::Crash),
        Some(FailCause::Hang) => hang_until_declared(universe, global),
        None if universe.is_failed(global).is_none() => return Ok(()),
        None => {}
    }
    Err(CommError::RankFailed { rank: report_as })
}

/// A hung rank goes silent: it stops sending and receiving until it is
/// declared dead, then its thread returns. Nothing watches for silence,
/// so unless another thread calls `Universe::declare_failed` first, the
/// rank declares itself after a 2 s cap; its peers see the death then.
fn hang_until_declared(universe: &UniverseInner, global: usize) {
    let cap = Instant::now() + Duration::from_secs(2);
    while universe.is_failed(global).is_none() {
        if Instant::now() >= cap {
            universe.declare_failed(global, FailCause::Hang);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// How a collective posts and waits for its messages. Every collective's
/// message pattern is one function over this policy: tags, trace records
/// and results do not depend on it.
#[derive(Clone, Copy)]
enum Wait {
    /// The blocking API: [`Mailbox::claim`], the plain cost charge, posts
    /// that cannot fail. It never polls the fault injector and never
    /// consults the failed set, so with no fault plan the library behaves
    /// byte-for-byte as it did before failure semantics existed, and
    /// seeded `FaultAt::Op(n)` plans count only `try_` calls.
    Blocking,
    /// The failure-aware API: [`Mailbox::claim_deadline`] up to the
    /// deadline, aborting on a member's death; the charge scaled by a
    /// slow-node fault and advancing the rank's virtual clock; posts that
    /// fail on a dead destination and are preceded by the poll-free
    /// liveness recheck of [`Comm::post`].
    Guarded(Option<Instant>),
}

impl Wait {
    fn until(timeout: Option<Duration>) -> Wait {
        Wait::Guarded(timeout.map(|t| Instant::now() + t))
    }

    fn guarded(self) -> bool {
        matches!(self, Wait::Guarded(_))
    }
}

/// Unwrap a step run under [`Wait::Blocking`].
fn infallible<R>(step: CommResult<R>) -> R {
    // Cannot fire: a blocking step neither checks liveness nor gives up.
    step.expect("the blocking wait policy has no failure path")
}

/// A communicator handle owned by one rank (like `MPI_COMM_WORLD` seen
/// from that rank). Not `Sync`: each rank keeps its own.
pub struct Comm {
    universe: Arc<UniverseInner>,
    group: Arc<Vec<usize>>,
    my_local: usize,
    placement: Arc<Placement>,
    shared: Arc<CommShared>,
    /// Every member's mailbox by local rank, this rank's own among them,
    /// fetched from the universe once.
    peers: Vec<Mailbox>,
    cost: Cell<CommCost>,
    /// A spawned world's parent group.
    parent: Option<Arc<Vec<usize>>>,
    coll_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(
        universe: Arc<UniverseInner>,
        group: Arc<Vec<usize>>,
        my_local: usize,
        placement: Arc<Placement>,
        shared: Arc<CommShared>,
        parent: Option<Arc<Vec<usize>>>,
    ) -> Self {
        Comm {
            peers: group.iter().map(|&g| universe.mailbox(g)).collect(),
            cost: Cell::default(),
            universe,
            group,
            my_local,
            placement,
            shared,
            parent,
            coll_seq: Cell::new(0),
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This rank's global id in the universe (for traces).
    pub fn global_id(&self) -> usize {
        self.group[self.my_local]
    }

    /// The machine this rank is placed on.
    pub fn machine(&self) -> &MachineSpec {
        self.placement.machine_of(self.my_local)
    }

    /// Snapshot of the modeled communication cost booked on this handle.
    /// The books are per handle: a spawned world's ranks keep their own.
    pub fn comm_cost(&self) -> CommCost {
        self.cost.get()
    }

    fn record(&self, kind: EventKind, bytes: u64) {
        self.universe.trace.record(self.global_id(), kind, None, bytes);
    }

    /// Book the modeled cost of one message to or from `peer_local`.
    /// Under [`Wait::Guarded`] with a fault plan installed the time is
    /// scaled by this rank's slow-node factor and advances its virtual
    /// clock.
    fn charge(&self, wait: Wait, peer_local: usize, bytes: u64) {
        let wan = !self.placement.same_machine(self.my_local, peer_local);
        let mut t = self.placement.transfer_time(self.my_local, peer_local, bytes);
        if wait.guarded() && self.universe.faults_installed() {
            t *= self.universe.slow_factor(self.global_id());
            self.universe.advance_clock(self.global_id(), t);
        }
        let mut cost = self.cost.get();
        cost.charge(t, bytes, wan);
        self.cost.set(cost);
    }

    // ----- the steps every operation is made of ------------------------------

    /// Post one message to local rank `dst`, charged and traced. Under
    /// [`Wait::Guarded`] it first rechecks, without polling the injector
    /// (so fault-plan op counts are unchanged), that this rank has not
    /// been declared dead since its operation began: another thread can
    /// do that at any time, and a message posted by a dead rank is an
    /// envelope the survivors never claim (their collective aborts on the
    /// failure), leaking a mailbox slot.
    fn post<T: Payload>(&self, wait: Wait, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        if wait.guarded() && self.universe.is_failed(self.global_id()).is_some() {
            return Err(CommError::RankFailed { rank: self.my_local });
        }
        let env = Envelope::new(self.global_id(), self.group[dst], tag, data.to_vec());
        let bytes = env.byte_len() as u64;
        deliver(&self.universe, &self.peers[dst], wait, dst, env)?;
        self.charge(wait, dst, bytes);
        Ok(())
    }

    /// The guarded wait: claim until `deadline`, aborting when `lost()`
    /// says the awaited peers are gone or this rank's own mailbox is
    /// poisoned. `awaited` is the local rank an abort is blamed on first.
    fn claim_guarded(
        &self,
        from: SrcFilter<'_>,
        tag: Tag,
        deadline: Option<Instant>,
        awaited: Option<usize>,
        lost: impl Fn() -> bool,
    ) -> CommResult<Envelope> {
        match self.peers[self.my_local].claim_deadline(from, tag, deadline, lost) {
            ClaimOutcome::Ready(env) => Ok(env),
            ClaimOutcome::TimedOut => Err(CommError::Timeout),
            ClaimOutcome::Aborted => Err(self.abort_error(awaited)),
        }
    }

    /// Wait for one collective message on `tag` — from local rank `src`,
    /// or from any member — and charge it. Returns it with its sender's
    /// local rank.
    fn claim(&self, wait: Wait, src: Option<usize>, tag: Tag) -> CommResult<(usize, Envelope)> {
        let from = source_filter(&self.group, src.unwrap_or(ANY_SOURCE));
        let env = match wait {
            Wait::Blocking => self.peers[self.my_local].claim(from, tag),
            Wait::Guarded(deadline) => {
                self.claim_guarded(from, tag, deadline, src, || !self.failed_ranks().is_empty())?
            }
        };
        // Cannot fire: `from` admits members of the group only.
        let sender = src.unwrap_or_else(|| {
            local_rank(&self.group, env.src).expect("the source filter admits group members only")
        });
        self.charge(wait, sender, env.byte_len() as u64);
        Ok((sender, env))
    }

    // ----- failure awareness -------------------------------------------------
    //
    // What the `try_*` entry points add to the steps above. With no
    // process-fault plan installed the only extra cost is a relaxed
    // atomic load plus an uncontended map lookup per operation.

    /// Poll this rank's scripted fault injector ([`check_alive`]) and
    /// surface an already declared failure of this rank. Every
    /// failure-aware operation calls this exactly once, first.
    fn check_health(&self) -> CommResult<()> {
        check_alive(&self.universe, self.global_id(), self.my_local)
    }

    /// Local indices of group members declared failed so far, ascending.
    fn failed_ranks(&self) -> Vec<usize> {
        let failed = self.universe.failed_snapshot();
        (0..self.size()).filter(|&l| failed.binary_search(&self.group[l]).is_ok()).collect()
    }

    /// Local index of the lowest failed member other than this rank.
    fn first_failed_peer(&self) -> Option<usize> {
        self.failed_ranks().into_iter().find(|&l| l != self.my_local)
    }

    /// Translate an aborted claim into the most specific error.
    fn abort_error(&self, awaited: Option<usize>) -> CommError {
        let awaited = awaited.filter(|&s| self.universe.is_failed(self.group[s]).is_some());
        // With no failed peer to blame, the abort came from this rank's own
        // poisoned mailbox: it was itself declared dead.
        let rank = awaited.or_else(|| self.first_failed_peer()).unwrap_or(self.my_local);
        CommError::RankFailed { rank }
    }
}

/// An inter-communicator: point-to-point messaging to a remote group
/// (spawned children, a spawning parent, or an attached peer) through
/// [`PointToPoint`].
pub struct InterComm {
    universe: Arc<UniverseInner>,
    my_global: usize,
    /// This rank's own mailbox (the one its [`Comm`] claims from too).
    mailbox: Mailbox,
    /// The remote group's mailboxes, fetched once like a [`Comm`]'s peers.
    remote: Vec<Mailbox>,
    remote_group: Arc<Vec<usize>>,
}

impl InterComm {
    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.remote_group.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Datatype, ANY_TAG};
    use crate::machine::{FabricSpec, MachineSpec, Placement};
    use crate::universe::Universe;

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        let out = Universe::run(6, |comm| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all arrivals.
            BEFORE.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&v| v == 6), "{out:?}");
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let out = Universe::run(4, move |comm| {
                let data = if comm.rank() == root { vec![1.0, 2.0, 3.0] } else { vec![] };
                comm.bcast(root, &data)
            });
            for v in out {
                assert_eq!(v, vec![1.0, 2.0, 3.0]);
            }
        }
    }

    #[test]
    fn reduce_sum_min_max() {
        let out = Universe::run(5, |comm| {
            let x = comm.rank() as f64;
            let sum = comm.allreduce_f64s(ReduceOp::Sum, &[x, 2.0 * x]);
            let all_max = comm.allreduce_f64s(ReduceOp::Max, &[x]);
            let all_min = comm.allreduce_f64s(ReduceOp::Min, &[x]);
            (sum, all_max[0], all_min[0])
        });
        for (sum, mx, mn) in out {
            assert_eq!(sum, [10.0, 20.0]);
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        let out = Universe::run(3, |comm| {
            let mut acc = Vec::new();
            for round in 0..20 {
                let data = if comm.rank() == 0 { vec![round as f64] } else { vec![] };
                acc.push(comm.bcast(0, &data)[0]);
            }
            acc
        });
        for v in out {
            assert_eq!(v, (0..20).map(|r| r as f64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn comm_cost_attributes_wan_traffic() {
        let p = Placement::split(
            4,
            2,
            MachineSpec::new("T3E", FabricSpec::t3e_torus()),
            MachineSpec::new("SP2", FabricSpec::sp2_switch()),
            FabricSpec::wan_testbed(),
        );
        let out = Universe::run_placed(p, |comm| {
            let peer_same = comm.rank() ^ 1; // 0<->1, 2<->3 intra
            let peer_wan = (comm.rank() + 2) % 4; // crosses the split
            comm.send(peer_same, Tag(1), &[1.0; 128]);
            let _ = comm.recv::<f64>(peer_same, Tag(1));
            comm.send(peer_wan, Tag(2), &[1.0; 128]);
            let _ = comm.recv::<f64>(peer_wan, Tag(2));
            comm.comm_cost()
        });
        for c in out {
            assert_eq!(c.messages, 4);
            assert!(c.wan_seconds > c.intra_seconds * 10.0, "{c:?}");
        }
    }

    /// A message takes no universe lookup: each handle fetched its peers'
    /// mailboxes when it was made. Counted after construction, over 1000
    /// round trips on a `Comm` and 100 on an `InterComm`.
    #[test]
    fn messages_look_up_no_mailbox_after_construction() {
        let lookups = |comm: &Comm| comm.universe.lookups.load(std::sync::atomic::Ordering::SeqCst);
        Universe::run(2, move |comm| {
            let peer = 1 - comm.rank();
            comm.barrier();
            let before = lookups(&comm);
            for i in 0..1000u64 {
                comm.send(peer, Tag(1), &[i]);
                assert_eq!(comm.recv::<u64>(peer, Tag(1)).0, [i]);
            }
            comm.barrier();
            assert_eq!(lookups(&comm), before, "Comm send/recv looked up a mailbox");
        });
        Universe::run(1, move |comm| {
            let onyx = MachineSpec::new("Onyx", FabricSpec::smp_shared());
            let child = comm.spawn(1, onyx, |c| {
                let parent = c.parent().expect("child has a parent");
                parent.send(0, Tag(2), &[0u8]);
                for _ in 0..100 {
                    let (v, _) = parent.recv::<f32>(0, Tag(2));
                    parent.send(0, Tag(2), &v);
                }
            });
            let _ = child.recv::<u8>(0, Tag(2));
            let before = lookups(&comm);
            for i in 0..100 {
                child.send(0, Tag(2), &[i as f32]);
                assert_eq!(child.recv::<f32>(0, Tag(2)).0, [i as f32]);
            }
            assert_eq!(lookups(&comm), before, "InterComm send/recv looked up a mailbox");
        });
    }

    #[test]
    fn spawn_children_and_talk() {
        let out = Universe::run(1, |comm| {
            let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
            let kids = comm.spawn(3, t3e, |child| {
                let parent = child.parent().expect("child has a parent");
                // Children also talk among themselves.
                let sum = child.allreduce_f64s(ReduceOp::Sum, &[child.rank() as f64]);
                parent.send(0, Tag(9), &[child.rank() as f64 * 100.0 + sum[0]]);
            });
            assert_eq!(kids.remote_size(), 3);
            let mut got = Vec::new();
            for _ in 0..3 {
                let (v, st) = kids.recv::<f64>(ANY_SOURCE, Tag(9));
                got.push((st.source, v[0]));
            }
            got.sort_by_key(|&(s, _)| s);
            got
        });
        assert_eq!(out[0], vec![(0, 3.0), (1, 103.0), (2, 203.0)]);
    }

    #[test]
    fn attach_rendezvous_pairs_two_worlds() {
        // A "compute" world and a "viz client" world attach on a named
        // port — the FIRE pattern.
        let u = Universe::new();
        let u2 = u.clone();
        let compute = std::thread::spawn(move || {
            u2.launch_and_join(
                Placement::single(1, MachineSpec::new("T3E", FabricSpec::t3e_torus())),
                |comm| {
                    let viz = comm.attach("fire-viz");
                    viz.send(0, Tag(1), &[1.5f32, 2.5]);
                    let (reply, _) = viz.recv::<f32>(0, Tag(2));
                    reply[0]
                },
            )
        });
        let viz_out = u.launch_and_join(
            Placement::single(1, MachineSpec::new("Onyx", FabricSpec::smp_shared())),
            |comm| {
                let sim = comm.attach("fire-viz");
                let (data, _) = sim.recv::<f32>(0, Tag(1));
                sim.send(0, Tag(2), &[data.iter().sum::<f32>()]);
                data.len()
            },
        );
        let compute_out = compute.join().unwrap();
        assert_eq!(viz_out, vec![2]);
        assert_eq!(compute_out, vec![4.0]);
    }

    fn t3e_sp2(n: usize, split: usize) -> Placement {
        Placement::split(
            n,
            split,
            MachineSpec::new("T3E", FabricSpec::t3e_torus()),
            MachineSpec::new("SP2", FabricSpec::sp2_switch()),
            FabricSpec::wan_testbed(),
        )
    }

    #[test]
    fn bcast_topo_delivers_everywhere_from_either_site() {
        for root in [0usize, 4] {
            let out = Universe::run_placed(t3e_sp2(6, 3), move |comm| {
                let data = if comm.rank() == root { vec![1.0, 2.0, 3.0] } else { vec![] };
                comm.bcast_topo_f64s(root, &data)
            });
            for v in out {
                assert_eq!(v, vec![1.0, 2.0, 3.0], "root {root}");
            }
        }
    }

    #[test]
    fn bcast_topo_crosses_wan_once_per_site() {
        // Flat bcast from rank 0: 3 WAN messages (to ranks 3,4,5).
        // Topology-aware: 1 WAN message (to the SP2 leader, rank 3).
        let payload = vec![0.5f64; 4096]; // 32 KB
        let pay_flat = payload.clone();
        let flat = Universe::run_placed(t3e_sp2(6, 3), move |comm| {
            let data = if comm.rank() == 0 { pay_flat.clone() } else { vec![] };
            comm.bcast(0, &data);
            comm.comm_cost().wan_seconds
        });
        let topo = Universe::run_placed(t3e_sp2(6, 3), move |comm| {
            let data = if comm.rank() == 0 { payload.clone() } else { vec![] };
            comm.bcast_topo_f64s(0, &data);
            comm.comm_cost().wan_seconds
        });
        let flat_wan: f64 = flat.iter().sum();
        let topo_wan: f64 = topo.iter().sum();
        assert!(
            topo_wan < flat_wan / 2.0,
            "topo should cut WAN time ~3x: flat {flat_wan} vs topo {topo_wan}"
        );
        assert!(topo_wan > 0.0, "one WAN crossing remains");
    }

    #[test]
    fn bcast_topo_single_machine_degenerates_gracefully() {
        let out = Universe::run(4, |comm| {
            let data = if comm.rank() == 0 { vec![9.0] } else { vec![] };
            comm.bcast_topo_f64s(0, &data)
        });
        for v in out {
            assert_eq!(v, vec![9.0]);
        }
    }

    /// A wildcard receive on the world communicator must not take a
    /// spawned child's message: that belongs to the inter-communicator.
    #[test]
    fn wildcard_recv_leaves_a_childs_message_for_the_intercomm() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 1 {
                comm.barrier();
                comm.send(0, Tag(7), &[1u64]);
                return (0, 0);
            }
            let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
            let kids = comm.spawn(1, t3e, |child| {
                child.parent().expect("child has a parent").send(0, Tag(7), &[2u64]);
            });
            // The child's message is queued first, ahead of rank 1's.
            while comm.peers[0].len() == 0 {
                std::thread::yield_now();
            }
            assert!(nothing_queued(&comm, ANY_SOURCE, Tag(7)), "a child is not a member");
            comm.barrier();
            let (world, st) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG);
            assert_eq!(st.source, 1);
            let (child, st) = kids.recv::<u64>(ANY_SOURCE, ANY_TAG);
            assert_eq!(st.source, 0);
            (world[0], child[0])
        });
        assert_eq!(out[0], (1, 2));
    }

    /// Whether a receive on `p` finds no mail from `src` on `tag` now: a
    /// receive whose deadline has passed takes a match, or errs.
    fn nothing_queued<P: PointToPoint>(p: &P, src: usize, tag: Tag) -> bool {
        p.recv_timeout(src, tag, Some(Duration::ZERO)).is_err()
    }

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload.downcast_ref::<String>().cloned().expect("assert! panics with a String")
    }

    /// What `send`/`try_send` to a peer out of range and on a reserved
    /// tag, and a receive from a source out of range, panic with on `p`
    /// (one peer).
    fn rejected<P: PointToPoint>(p: &P) -> Vec<String> {
        let reserved = Tag(COLL_TAG_BASE);
        vec![
            panic_message(|| p.send(1, Tag(1), &[1u64])),
            panic_message(|| _ = p.try_send(1, Tag(1), &[1u64])),
            panic_message(|| p.send(0, reserved, &[1u64])),
            panic_message(|| _ = p.try_send(0, reserved, &[1u64])),
            panic_message(|| _ = p.recv_timeout(1, Tag(1), Some(Duration::ZERO))),
        ]
    }

    #[test]
    fn send_and_probe_checks_apply_to_both_communicator_kinds() {
        let out = Universe::run(1, |comm| {
            let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
            let kids = comm.spawn(1, t3e, |_child| {});
            let (on_comm, on_intercomm) = (rejected(&comm), rejected(&kids));
            // Nothing was posted: a reserved tag from the other world can
            // no longer be matched by this rank's next collective.
            assert!(nothing_queued(&kids, ANY_SOURCE, ANY_TAG));
            (on_comm, on_intercomm)
        });
        let expect = [
            "destination 1 out of range",
            "destination 1 out of range",
            "tag Tag(2147483648) is in the reserved collective space",
            "tag Tag(2147483648) is in the reserved collective space",
            "source 1 out of range",
        ];
        assert_eq!(out[0].0, expect, "Comm");
        assert_eq!(out[0].1, expect, "InterComm");
    }

    /// Two messages that are not `f64`s — other element size, same — to peer 0.
    fn send_unreadable<P: PointToPoint>(p: &P) {
        p.send(0, Tag(1), &[1u8; 3]);
        p.send(0, Tag(2), &[1u64, 2]);
    }

    fn unreadable_errors<P: PointToPoint>(p: &P) -> [CommError; 2] {
        let wait = Some(Duration::from_secs(10));
        [Tag(1), Tag(2)].map(|tag| p.try_recv::<f64>(0, tag, wait).expect_err("unreadable as f64"))
    }

    #[test]
    fn try_recv_returns_an_error_for_payloads_it_cannot_read() {
        let out = Universe::run(1, |comm| {
            send_unreadable(&comm);
            let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
            let kids = comm.spawn(1, t3e, |child| {
                send_unreadable(&child.parent().expect("child has a parent"));
            });
            let errors = (unreadable_errors(&comm), unreadable_errors(&kids));
            // Consumed, not left to be hit again:
            assert!(nothing_queued(&comm, ANY_SOURCE, ANY_TAG));
            assert!(nothing_queued(&kids, ANY_SOURCE, ANY_TAG));
            // The blocking receive of one is a bug, and panics.
            comm.send(0, Tag(3), &[1u64]);
            let fatal = panic_message(|| _ = comm.recv::<f64>(0, Tag(3)));
            assert_eq!(fatal, "datatype mismatch: expected F64, envelope carries U64");
            errors
        });
        // `bytes` is the wire size: count × the *sender's* element size.
        let expect = [
            CommError::Datatype { expected: Datatype::F64, found: Datatype::U8, bytes: 3 },
            CommError::Datatype { expected: Datatype::F64, found: Datatype::U64, bytes: 16 },
        ];
        assert_eq!(out[0].0, expect, "Comm");
        assert_eq!(out[0].1, expect, "InterComm");
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn reserved_tags_rejected() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(COLL_TAG_BASE | 1), &[1u64]);
            }
        });
    }
}
