//! Communicators: point-to-point messaging, collectives, dynamic process
//! creation and inter-communicators.
//!
//! Two things are written exactly once here. The typed layer:
//! [`PointToPoint`] gives a [`Comm`] and an [`InterComm`] the same generic
//! `send`/`recv`/`try_send`/`try_recv` over any [`Payload`] element type.
//! And each collective's message pattern: a private function taking a
//! wait policy (`Wait`), which the blocking entry point and its
//! failure-aware `try_` twin both call.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::envelope::{Envelope, Payload, Tag, ANY_SOURCE};
use crate::error::{CommError, CommResult, FailCause};
use crate::machine::{CommCost, FabricSpec, MachineSpec, Placement};
use crate::mailbox::{ClaimOutcome, Mailbox, SrcFilter};
use crate::topology::{fold_in_order, CommTopology};
use crate::trace::EventKind;
use crate::universe::UniverseInner;

/// Completion information of a receive (like `MPI_Status`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Local rank of the sender within this communicator (or remote rank
    /// for inter-communicator receives).
    pub source: usize,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Reduction operator for `reduce`/`allreduce`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    pub(crate) fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

struct BarrierState {
    count: usize,
    generation: u64,
}

/// State shared by all ranks of one communicator.
pub(crate) struct CommShared {
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    costs: Vec<Mutex<CommCost>>,
    /// ULFM-style revocation flag: once set, every failure-aware
    /// operation on this communicator fails with [`CommError::Revoked`].
    revoked: AtomicBool,
}

impl CommShared {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(CommShared {
            barrier: Mutex::new(BarrierState { count: 0, generation: 0 }),
            barrier_cv: Condvar::new(),
            costs: (0..n).map(|_| Mutex::new(CommCost::default())).collect(),
            revoked: AtomicBool::new(false),
        })
    }
}

/// Base of the reserved tag space used by collectives.
const COLL_TAG_BASE: u32 = 0x8000_0000;

/// FNV-1a over a word sequence: the key under which every member of a
/// derived communicator finds the same shared state.
fn fnv_key(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ----- what both communicator kinds share -----------------------------------

/// Local rank of global id `global` within `group`.
fn local_rank(group: &[usize], global: usize) -> Option<usize> {
    group.iter().position(|&g| g == global)
}

/// The senders a receive or probe on `src` admits: one peer of `group`,
/// or for [`ANY_SOURCE`] all of them — and nobody else, so mail for
/// another handle on the same rank (a child's, an attached peer's) is
/// left in the mailbox for that handle.
fn source_filter(group: &[usize], src: usize) -> SrcFilter<'_> {
    if src == ANY_SOURCE {
        return SrcFilter::OneOf(group);
    }
    assert!(src < group.len(), "source {src} out of range");
    SrcFilter::Exact(group[src])
}

/// The checks every user-level send makes, on either communicator kind.
fn check_send(dst: usize, peers: usize, tag: Tag) {
    assert!(dst < peers, "destination {dst} out of range");
    assert!(tag.0 < COLL_TAG_BASE, "tag {tag:?} is in the reserved collective space");
}

/// Deposit `env` in its destination's mailbox and trace the send. Under
/// [`Wait::Guarded`] a dead destination fails fast with
/// [`CommError::RankFailed`] naming `dst` (its local rank) instead of
/// filling a poisoned mailbox.
fn deliver(universe: &UniverseInner, wait: Wait, dst: usize, env: Envelope) -> CommResult<()> {
    let (src_global, dst_global, bytes) = (env.src, env.dst, env.byte_len() as u64);
    if wait.guarded() && universe.is_failed(dst_global).is_some() {
        return Err(CommError::RankFailed { rank: dst });
    }
    if !universe.mailbox(dst_global).post(env) && wait.guarded() {
        return Err(CommError::RankFailed { rank: dst });
    }
    universe.trace.record(src_global, EventKind::Send, Some(dst_global), bytes);
    Ok(())
}

/// Trace a completed receive of `env` and build its [`Status`].
fn received(universe: &UniverseInner, group: &[usize], env: Envelope) -> (Envelope, Status) {
    // Cannot fire: `env` was claimed through a `source_filter` over `group`.
    let source = local_rank(group, env.src).expect("the source filter admits group members only");
    universe.trace.record(env.dst, EventKind::Recv, Some(env.src), env.byte_len() as u64);
    let status = Status { source, tag: env.tag, bytes: env.byte_len() };
    (env, status)
}

/// Poll `global`'s scripted fault injector and surface an already
/// declared self-failure, as [`CommError::RankFailed`] naming `report_as`.
/// Every failure-aware operation calls this first, so a `FaultAt::Op(n)`
/// trigger counts failure-aware operations issued by the rank.
fn check_alive(universe: &UniverseInner, global: usize, report_as: usize) -> CommResult<()> {
    let cause = if universe.faults_installed() { universe.poll_fault(global) } else { None };
    match cause {
        Some(FailCause::Crash) => universe.declare_failed(global, FailCause::Crash),
        Some(FailCause::Hang) => hang_until_detected(universe, global),
        None if universe.is_failed(global).is_none() => return Ok(()),
        None => {}
    }
    Err(CommError::RankFailed { rank: report_as })
}

/// A hung rank goes silent: it stops sending and receiving until a
/// failure detector declares it dead, then its thread returns. The hard
/// cap guarantees worlds always join even with no detector running.
fn hang_until_detected(universe: &UniverseInner, global: usize) {
    let cap = Instant::now() + Duration::from_secs(2);
    while universe.is_failed(global).is_none() {
        if Instant::now() >= cap {
            universe.declare_failed(global, FailCause::Hang);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Typed point-to-point messaging, the same on a [`Comm`] (peers are the
/// other ranks of the communicator) and an [`InterComm`] (peers are the
/// remote group). A communicator kind supplies the two sends and the two
/// envelope receives; the typed receives on top of them exist once, here.
pub trait PointToPoint {
    /// Send a slice of any [`Payload`] element type to peer `dst`, copied
    /// once: into the envelope the receiver takes it out of. Panics if
    /// `dst` is out of range or `tag` is reserved for collectives.
    fn send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]);

    /// Blocking receive; `src` may be [`ANY_SOURCE`] (any peer — mail
    /// from outside the peer group is left for the handle it belongs
    /// to), `tag` may be [`crate::envelope::ANY_TAG`]. Returns the
    /// envelope and a [`Status`].
    fn recv_envelope(&self, src: usize, tag: Tag) -> (Envelope, Status);

    /// Failure-aware [`PointToPoint::send`], same checks: fails fast with
    /// [`CommError::RankFailed`] when `dst` is dead instead of filling a
    /// poisoned mailbox.
    fn try_send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()>;

    /// Receive with an optional wall-clock timeout and failure
    /// awareness: [`CommError::RankFailed`] when the awaited peer (for a
    /// wildcard receive: every peer) dies mid-wait, [`CommError::Timeout`]
    /// when the deadline passes.
    fn recv_timeout(
        &self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> CommResult<(Envelope, Status)>;

    /// Receive a slice of `T`. A message of another datatype is a bug
    /// and panics, as [`Envelope::payload`] documents.
    fn recv<T: Payload>(&self, src: usize, tag: Tag) -> (Vec<T>, Status) {
        let (env, status) = self.recv_envelope(src, tag);
        (env.payload(), status)
    }

    /// Failure-aware typed receive with timeout. A message of another
    /// datatype is consumed and reported as
    /// [`CommError::Datatype`]: the rank returns instead of aborting.
    fn try_recv<T: Payload>(
        &self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> CommResult<(Vec<T>, Status)> {
        let (env, status) = self.recv_timeout(src, tag, timeout)?;
        Ok((env.try_payload()?, status))
    }
}

/// How a collective posts and waits for its messages. Every collective's
/// message pattern is one function over this policy: tags, trace records
/// and results do not depend on it.
#[derive(Clone, Copy)]
enum Wait {
    /// The legacy blocking API: [`Mailbox::claim`], the plain cost
    /// charge, posts that cannot fail. It never polls the fault injector
    /// and never consults the failed set, so with no fault plan the
    /// library behaves byte-for-byte as it did before failure semantics
    /// existed, and seeded `FaultAt::Op(n)` plans count only `try_` calls.
    Blocking,
    /// The failure-aware API: [`Mailbox::claim_deadline`] up to the
    /// deadline, aborting on revocation or a member's death; the charge
    /// scaled by a slow-node fault and advancing the rank's virtual
    /// clock; posts that fail on a dead destination and are preceded by
    /// the poll-free liveness recheck of [`Comm::post`].
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
    step.expect("the blocking wait policy has no failure path")
}

/// Link from a spawned world back to its parent group.
struct ParentLink {
    parent_group: Arc<Vec<usize>>,
    wan: FabricSpec,
}

/// A communicator handle owned by one rank (like `MPI_COMM_WORLD` seen
/// from that rank). Not `Sync`: each rank keeps its own.
pub struct Comm {
    universe: Arc<UniverseInner>,
    group: Arc<Vec<usize>>,
    my_local: usize,
    placement: Arc<Placement>,
    shared: Arc<CommShared>,
    /// This rank's own mailbox, fetched from the universe once.
    mailbox: Mailbox,
    parent: Option<Arc<ParentLink>>,
    coll_seq: Cell<u64>,
    derive_seq: Cell<u64>,
    /// Salt mixed into collective tags. Zero for world/split/dup
    /// communicators (keeping their tags byte-for-byte identical to the
    /// pre-failure-semantics library); nonzero for shrunk communicators
    /// so stale contributions from the pre-shrink epoch can never match
    /// a post-shrink collective.
    coll_salt: u64,
}

impl Comm {
    pub(crate) fn new(
        universe: Arc<UniverseInner>,
        group: Arc<Vec<usize>>,
        my_local: usize,
        placement: Arc<Placement>,
        shared: Arc<CommShared>,
        parent: Option<(Arc<Vec<usize>>, FabricSpec)>,
    ) -> Self {
        Comm {
            mailbox: universe.mailbox(group[my_local]),
            universe,
            group,
            my_local,
            placement,
            shared,
            parent: parent.map(|(parent_group, wan)| Arc::new(ParentLink { parent_group, wan })),
            coll_seq: Cell::new(0),
            derive_seq: Cell::new(0),
            coll_salt: 0,
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

    /// Snapshot of this rank's accumulated modeled communication cost.
    pub fn comm_cost(&self) -> CommCost {
        *self.shared.costs[self.my_local].lock()
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
        self.shared.costs[self.my_local].lock().charge(t, bytes, wan);
    }

    // ----- the steps every operation is made of ------------------------------

    /// Post one message to local rank `dst`, charged and traced. Under
    /// [`Wait::Guarded`] it first rechecks, without polling the injector
    /// (so fault-plan op counts are unchanged), that this rank has not
    /// been declared dead since its operation began: a failure detector
    /// on another thread can do that at any time, and a message posted by
    /// a dead rank is an envelope the survivors never claim (their
    /// collective aborts on the failure), leaking a mailbox slot.
    fn post<T: Payload>(&self, wait: Wait, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        if wait.guarded() && self.universe.is_failed(self.global_id()).is_some() {
            return Err(CommError::RankFailed { rank: self.my_local });
        }
        let env = Envelope::new(self.global_id(), self.group[dst], tag, data.to_vec());
        let bytes = env.byte_len() as u64;
        deliver(&self.universe, wait, dst, env)?;
        self.charge(wait, dst, bytes);
        Ok(())
    }

    /// Post `data` to every rank of `dsts` but this one, in order: each
    /// gets its own copy of the slice, the one copy its message costs.
    fn post_each<T: Payload>(
        &self,
        wait: Wait,
        dsts: impl IntoIterator<Item = usize>,
        tag: Tag,
        data: &[T],
    ) -> CommResult<()> {
        for dst in dsts.into_iter().filter(|&dst| dst != self.my_local) {
            self.post(wait, dst, tag, data)?;
        }
        Ok(())
    }

    /// The guarded wait: claim until `deadline`, aborting when the
    /// communicator is revoked, `lost()` says the awaited peers are
    /// gone, or this rank's own mailbox is poisoned. `awaited` is the
    /// local rank an abort is blamed on first.
    fn claim_guarded(
        &self,
        from: SrcFilter<'_>,
        tag: Tag,
        deadline: Option<Instant>,
        awaited: Option<usize>,
        lost: impl Fn() -> bool,
    ) -> CommResult<Envelope> {
        match self.mailbox.claim_deadline(from, tag, deadline, || self.is_revoked() || lost()) {
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
            Wait::Blocking => self.mailbox.claim(from, tag),
            Wait::Guarded(deadline) => {
                self.claim_guarded(from, tag, deadline, src, || self.any_member_failed())?
            }
        };
        // Cannot fire: `from` admits members of the group only.
        let sender = src.unwrap_or_else(|| {
            local_rank(&self.group, env.src).expect("the source filter admits group members only")
        });
        self.charge(wait, sender, env.byte_len() as u64);
        Ok((sender, env))
    }

    fn claim_from(&self, wait: Wait, src: usize, tag: Tag) -> CommResult<Envelope> {
        Ok(self.claim(wait, Some(src), tag)?.1)
    }

    /// Claim one collective message on `tag` from each of `count`
    /// members, in arrival order; the typed payloads come back indexed
    /// by the sender's local rank.
    fn claim_each<T: Payload>(
        &self,
        wait: Wait,
        tag: Tag,
        count: usize,
    ) -> CommResult<Vec<Option<Vec<T>>>> {
        let mut parts = vec![None; self.size()];
        for _ in 0..count {
            let (sender, env) = self.claim(wait, None, tag)?;
            parts[sender] = Some(env.payload());
        }
        Ok(parts)
    }

    fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        Tag(COLL_TAG_BASE | (((seq ^ self.coll_salt) as u32) & 0x7fff_ffff))
    }

    /// Draw a collective's (first) tag and trace its start.
    fn begin_collective(&self) -> Tag {
        let tag = self.next_coll_tag();
        self.record(EventKind::Collective, 0);
        tag
    }

    /// Non-blocking probe for a matching message.
    pub fn probe(&self, src: usize, tag: Tag) -> bool {
        self.mailbox.probe(source_filter(&self.group, src), tag)
    }

    // The four names `gtw-benchmark/src/adapter.rs` pins. That crate is
    // frozen for every PR that is not a benchmark PR, so these stay until
    // one renames its calls to `send`/`recv`; nothing else may call them.

    #[doc(hidden)]
    pub fn send_f64s(&self, dst: usize, tag: Tag, data: &[f64]) {
        self.send(dst, tag, data)
    }

    #[doc(hidden)]
    pub fn recv_f64s(&self, src: usize, tag: Tag) -> (Vec<f64>, Status) {
        self.recv(src, tag)
    }

    #[doc(hidden)]
    pub fn send_f32s(&self, dst: usize, tag: Tag, data: &[f32]) {
        self.send(dst, tag, data)
    }

    #[doc(hidden)]
    pub fn recv_f32s(&self, src: usize, tag: Tag) -> (Vec<f32>, Status) {
        self.recv(src, tag)
    }

    // ----- collectives ----------------------------------------------------

    /// The condvar barrier behind [`Comm::barrier`] and
    /// [`Comm::try_barrier`]. A guarded waiter that gives up withdraws
    /// its arrival, so the count stays consistent for whoever retries
    /// after a shrink.
    fn barrier_with(&self, wait: Wait) -> CommResult<()> {
        let mut st = self.shared.barrier.lock();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.size() {
            st.count = 0;
            st.generation += 1;
            self.shared.barrier_cv.notify_all();
        }
        while st.generation == gen {
            let Wait::Guarded(deadline) = wait else {
                self.shared.barrier_cv.wait(&mut st);
                continue;
            };
            let now = Instant::now();
            let gave_up = if self.is_revoked() {
                Some(CommError::Revoked)
            } else if let Some(rank) = self.first_failed_peer() {
                Some(CommError::RankFailed { rank })
            } else {
                deadline.filter(|&d| now >= d).map(|_| CommError::Timeout)
            };
            if let Some(e) = gave_up {
                st.count = st.count.saturating_sub(1);
                return Err(e);
            }
            let mut nap = Duration::from_millis(10);
            if let Some(d) = deadline {
                nap = nap.min(d.saturating_duration_since(now));
            }
            self.shared.barrier_cv.wait_for(&mut st, nap);
        }
        drop(st);
        self.record(EventKind::Barrier, 0);
        Ok(())
    }

    /// Block until every rank of the communicator arrives.
    pub fn barrier(&self) {
        infallible(self.barrier_with(Wait::Blocking));
    }

    /// Failure-aware barrier: completes only if every member arrives;
    /// errors out when a member dies, the communicator is revoked, or
    /// the deadline passes.
    pub fn try_barrier(&self, timeout: Option<Duration>) -> CommResult<()> {
        self.check_health()?;
        if let Some(rank) = self.first_failed_peer() {
            return Err(CommError::RankFailed { rank });
        }
        self.barrier_with(Wait::until(timeout))
    }

    /// Broadcast step on `tag`: `root` posts `data` to every other rank.
    fn bcast_step<T: Payload>(
        &self,
        wait: Wait,
        tag: Tag,
        root: usize,
        data: &[T],
    ) -> CommResult<Vec<T>> {
        if self.rank() != root {
            return Ok(self.claim_from(wait, root, tag)?.payload());
        }
        self.post_each(wait, 0..self.size(), tag, data)?;
        Ok(data.to_vec())
    }

    /// Reduce step on `tag`: every other rank posts its contribution to
    /// `root`, which gathers them by rank and folds them along the
    /// canonical site tree ([`CommTopology::canonical_fold`]): rank order
    /// within a site, site order across sites. Claims happen in arrival
    /// order but the fold does not — which both makes the result
    /// independent of thread scheduling and keeps it bit-identical to the
    /// topology-aware collectives that fold the same tree with a
    /// different message pattern.
    fn reduce_step(
        &self,
        wait: Wait,
        tag: Tag,
        root: usize,
        op: ReduceOp,
        contrib: &[f64],
    ) -> CommResult<Option<Vec<f64>>> {
        if self.rank() != root {
            self.post(wait, root, tag, contrib)?;
            return Ok(None);
        }
        let mut parts = self.claim_each::<f64>(wait, tag, self.size() - 1)?;
        parts[root] = Some(contrib.to_vec());
        let parts: Vec<Vec<f64>> =
            parts.into_iter().map(|p| p.expect("every rank contributed")).collect();
        assert!(parts.iter().all(|p| p.len() == contrib.len()), "reduce length mismatch");
        Ok(Some(self.topology().canonical_fold(op, &parts)))
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    pub fn bcast<T: Payload>(&self, root: usize, data: &[T]) -> Vec<T> {
        let tag = self.begin_collective();
        infallible(self.bcast_step(Wait::Blocking, tag, root, data))
    }

    /// Reduce elementwise to `root`; `Some(result)` at root, `None`
    /// elsewhere. All contributions must have equal length; they are
    /// folded along the canonical site tree, whatever order they arrive in.
    pub fn reduce_f64s(&self, root: usize, op: ReduceOp, contrib: &[f64]) -> Option<Vec<f64>> {
        let tag = self.begin_collective();
        infallible(self.reduce_step(Wait::Blocking, tag, root, op, contrib))
    }

    /// Reduce to rank 0 then broadcast: every rank returns the result.
    pub fn allreduce_f64s(&self, op: ReduceOp, contrib: &[f64]) -> Vec<f64> {
        let total = self.reduce_f64s(0, op, contrib);
        self.bcast(0, total.as_deref().unwrap_or(&[]))
    }

    /// Failure-aware allreduce: the reduce and broadcast steps of
    /// [`Comm::allreduce_f64s`] as **one** collective (one tag, one trace
    /// record) under the guarded wait — bit-identical to it and to the
    /// topology-aware [`Comm::try_allreduce_topo_f64s`]. Any member
    /// death, revocation or deadline expiry fails the whole collective on
    /// every caller — survivors then [`Comm::shrink`] and retry on the
    /// new communicator.
    pub fn try_allreduce_f64s(
        &self,
        op: ReduceOp,
        contrib: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        let tag = self.begin_collective();
        let wait = Wait::until(timeout);
        let total = self.reduce_step(wait, tag, 0, op, contrib)?;
        self.bcast_step(wait, tag, 0, total.as_deref().unwrap_or(&[]))
    }

    /// Gather per-rank contributions at `root` (indexed by source rank).
    pub fn gather<T: Payload>(&self, root: usize, contrib: &[T]) -> Option<Vec<Vec<T>>> {
        let tag = self.begin_collective();
        if self.rank() != root {
            infallible(self.post(Wait::Blocking, root, tag, contrib));
            return None;
        }
        let mut parts = infallible(self.claim_each(Wait::Blocking, tag, self.size() - 1));
        parts[root] = Some(contrib.to_vec());
        Some(parts.into_iter().map(Option::unwrap_or_default).collect())
    }

    /// Scatter `parts[r]` to each rank `r` from `root` (non-roots pass
    /// an empty slice).
    pub fn scatter<T: Payload>(&self, root: usize, parts: &[Vec<T>]) -> Vec<T> {
        let tag = self.begin_collective();
        if self.rank() != root {
            return infallible(self.claim_from(Wait::Blocking, root, tag)).payload();
        }
        assert_eq!(parts.len(), self.size(), "scatter needs one part per rank");
        for (dst, part) in parts.iter().enumerate().filter(|&(dst, _)| dst != root) {
            infallible(self.post(Wait::Blocking, dst, tag, part));
        }
        parts[root].clone()
    }

    /// All-to-all personalized exchange: `parts[r]` goes to rank `r`;
    /// returns one part from every rank, indexed by source.
    pub fn alltoall<T: Payload>(&self, parts: &[Vec<T>]) -> Vec<Vec<T>> {
        assert_eq!(parts.len(), self.size(), "alltoall needs one part per rank");
        let tag = self.begin_collective();
        for (dst, part) in parts.iter().enumerate().filter(|&(dst, _)| dst != self.rank()) {
            infallible(self.post(Wait::Blocking, dst, tag, part));
        }
        let mut out = infallible(self.claim_each(Wait::Blocking, tag, self.size() - 1));
        out[self.rank()] = Some(parts[self.rank()].clone());
        out.into_iter().map(Option::unwrap_or_default).collect()
    }

    // ----- metacomputing-aware collectives ----------------------------------

    /// The site topology of this communicator: ranks grouped by machine,
    /// lowest rank of each site as leader, sites in leader-rank order.
    /// This is the structure every topology-aware collective routes on
    /// and the tree [`CommTopology::canonical_fold`] reduces along.
    pub fn topology(&self) -> CommTopology {
        CommTopology::from_placement(&self.placement)
    }

    /// Topology-aware broadcast — the defining optimization of a
    /// metacomputing-aware MPI ("the communication both inside and
    /// between the machines that form the metacomputer should be
    /// efficient"): the root sends one copy per foreign site to that
    /// site's leader (the only WAN crossings) plus direct copies to its
    /// own site; foreign leaders re-broadcast over their fast local
    /// fabric. Returns the payload on every rank, bit-identical to
    /// [`Comm::bcast`].
    pub fn bcast_topo_f64s(&self, root: usize, data: &[f64]) -> Vec<f64> {
        infallible(self.bcast_topo_with(Wait::Blocking, root, data))
    }

    /// Failure-aware [`Comm::bcast_topo_f64s`]: the same messages with
    /// whole-collective failure semantics (any member death, revocation
    /// or deadline expiry fails every caller). Polls the fault injector
    /// exactly once, at entry.
    pub fn try_bcast_topo_f64s(
        &self,
        root: usize,
        data: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        self.bcast_topo_with(Wait::until(timeout), root, data)
    }

    fn bcast_topo_with<T: Payload>(
        &self,
        wait: Wait,
        root: usize,
        data: &[T],
    ) -> CommResult<Vec<T>> {
        let tag = self.begin_collective();
        let topo = self.topology();
        let me = self.rank();
        let (root_site, my_site) = (topo.site_of(root), topo.site_of(me));
        let my_members = topo.sites()[my_site].members.iter().copied();
        if me == root {
            // One WAN send per foreign site's leader, then the root's own site.
            let sites = topo.sites().iter().enumerate();
            let foreign = sites.filter(|&(s, _)| s != root_site).map(|(_, site)| site.leader);
            self.post_each(wait, foreign, tag, data)?;
            self.post_each(wait, my_members, tag, data)?;
            return Ok(data.to_vec());
        }
        let relays = my_site != root_site && topo.is_leader(me);
        let from = if relays || my_site == root_site { root } else { topo.leader_of(me) };
        let data: Vec<T> = self.claim_from(wait, from, tag)?.payload();
        if relays {
            self.post_each(wait, my_members, tag, &data)?;
        }
        Ok(data)
    }

    /// Topology-aware allreduce: intra-site reduce to each leader, one
    /// WAN crossing per foreign site up to the global leader and one
    /// back down, then intra-site re-broadcast. WAN crossings:
    /// `2·(sites−1)` instead of `2·(off-site ranks)` for the flat
    /// reduce+bcast — while the *result* stays bit-identical to
    /// [`Comm::allreduce_f64s`], because both fold the canonical site
    /// tree; only the message pattern differs.
    pub fn allreduce_topo_f64s(&self, op: ReduceOp, contrib: &[f64]) -> Vec<f64> {
        infallible(self.allreduce_topo_with(Wait::Blocking, op, contrib))
    }

    /// Failure-aware [`Comm::allreduce_topo_f64s`]: the same messages
    /// with the failure semantics of [`Comm::try_allreduce_f64s`]. Polls
    /// the fault injector exactly once (at entry), like the flat variant,
    /// so a seeded fault plan fires at the same collective on either
    /// path. The result is bit-identical to both blocking paths — same
    /// canonical tree.
    pub fn try_allreduce_topo_f64s(
        &self,
        op: ReduceOp,
        contrib: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        self.allreduce_topo_with(Wait::until(timeout), op, contrib)
    }

    fn allreduce_topo_with(
        &self,
        wait: Wait,
        op: ReduceOp,
        contrib: &[f64],
    ) -> CommResult<Vec<f64>> {
        let up = self.begin_collective();
        let (across, down) = (self.next_coll_tag(), self.next_coll_tag());
        let topo = self.topology();
        let me = self.rank();
        let my_leader = topo.leader_of(me);
        if me != my_leader {
            self.post(wait, my_leader, up, contrib)?;
            return Ok(self.claim_from(wait, my_leader, down)?.payload());
        }
        // Phase 1: intra-site reduce to the site leader, folding member
        // contributions in rank order (the canonical tree's inner level).
        let members = &topo.sites()[topo.site_of(me)].members;
        let mut parts = self.claim_each::<f64>(wait, up, members.len() - 1)?;
        parts[me] = Some(contrib.to_vec());
        let site_partial = fold_in_order(
            op,
            members.iter().map(|&m| {
                let part = parts[m].take().expect("member contributed");
                assert_eq!(part.len(), contrib.len(), "allreduce length mismatch");
                part
            }),
        );
        // Phase 2: leaders exchange partials with the global leader,
        // which folds them in site order (the tree's outer level).
        let global_leader = topo.global_leader();
        let total = if me == global_leader {
            let mut partials = self.claim_each::<f64>(wait, across, topo.num_sites() - 1)?;
            partials[me] = Some(site_partial);
            let leaders = topo.sites().iter().map(|site| site.leader);
            let total = fold_in_order(
                op,
                leaders.clone().map(|l| partials[l].take().expect("every site reported")),
            );
            self.post_each(wait, leaders, across, &total)?;
            total
        } else {
            self.post(wait, global_leader, across, &site_partial)?;
            self.claim_from(wait, global_leader, across)?.payload()
        };
        // Phase 3: intra-site re-broadcast from each leader.
        self.post_each(wait, members.iter().copied(), down, &total)?;
        Ok(total)
    }

    /// Topology-aware barrier: a message-based tree barrier — members
    /// report to their site leader, leaders to the global leader, then
    /// the release fans back out the same way. Crosses the WAN twice per
    /// foreign site. Unlike [`Comm::barrier`] (an in-memory condvar with
    /// zero modeled messages), this barrier accounts what synchronizing
    /// a metacomputer actually costs on the wire, which is why the
    /// trajectory bench reports it.
    pub fn barrier_topo(&self) {
        infallible(self.barrier_topo_with(Wait::Blocking));
    }

    /// Failure-aware [`Comm::barrier_topo`]: the same message tree with
    /// whole-collective failure semantics. Polls the fault injector
    /// exactly once, at entry.
    pub fn try_barrier_topo(&self, timeout: Option<Duration>) -> CommResult<()> {
        self.check_health()?;
        if let Some(rank) = self.first_failed_peer() {
            return Err(CommError::RankFailed { rank });
        }
        self.barrier_topo_with(Wait::until(timeout))
    }

    fn barrier_topo_with(&self, wait: Wait) -> CommResult<()> {
        let (up, across, down) = (self.next_coll_tag(), self.next_coll_tag(), self.next_coll_tag());
        let topo = self.topology();
        let me = self.rank();
        let my_leader = topo.leader_of(me);
        let token: &[u8] = &[];
        if me != my_leader {
            self.post(wait, my_leader, up, token)?;
            self.claim_from(wait, my_leader, down)?;
        } else {
            let members = &topo.sites()[topo.site_of(me)].members;
            self.claim_each::<u8>(wait, up, members.len() - 1)?;
            let global_leader = topo.global_leader();
            if me == global_leader {
                self.claim_each::<u8>(wait, across, topo.num_sites() - 1)?;
                let leaders = topo.sites().iter().map(|site| site.leader);
                self.post_each(wait, leaders, down, token)?;
            } else {
                self.post(wait, global_leader, across, token)?;
                self.claim_from(wait, global_leader, down)?;
            }
            self.post_each(wait, members.iter().copied(), down, token)?;
        }
        self.record(EventKind::Barrier, 0);
        Ok(())
    }

    // ----- nonblocking receives -------------------------------------------

    /// Post a nonblocking receive (like `MPI_Irecv`): returns a
    /// [`RecvRequest`] that can be tested or waited on. Sends are always
    /// nonblocking (eager) in this implementation, so no send request
    /// type is needed.
    pub fn irecv(&self, src: usize, tag: Tag) -> RecvRequest<'_> {
        RecvRequest {
            comm: self,
            from: source_filter(&self.group, src),
            tag,
            done: Cell::new(false),
        }
    }

    /// Complete a user-level receive of `env`, however it was claimed:
    /// charged, traced, with its [`Status`].
    fn accept(&self, wait: Wait, env: Envelope) -> (Envelope, Status) {
        let (env, status) = received(&self.universe, &self.group, env);
        self.charge(wait, status.source, status.bytes as u64);
        (env, status)
    }

    // ----- derived communicators -------------------------------------------

    /// Key of the next communicator derived from this one: FNV-1a over
    /// the derivation sequence and the new group's global ids — every
    /// member computes the same key.
    fn derive_key(&self, new_group: &[usize]) -> u64 {
        let seq = self.derive_seq.get();
        self.derive_seq.set(seq + 1);
        fnv_key(
            [seq, new_group.len() as u64].into_iter().chain(new_group.iter().map(|&g| g as u64)),
        )
    }

    /// A communicator on this universe with fresh collective and cost
    /// state, shared among its members under `key`.
    fn derived(
        &self,
        group: Arc<Vec<usize>>,
        my_local: usize,
        placement: Arc<Placement>,
        key: u64,
        coll_salt: u64,
    ) -> Comm {
        let shared = self.universe.shared_for(key, group.len());
        let universe = Arc::clone(&self.universe);
        Comm { coll_salt, ..Comm::new(universe, group, my_local, placement, shared, None) }
    }

    /// Global ids of `members` (local ranks of this communicator).
    fn globals(&self, members: &[usize]) -> Vec<usize> {
        members.iter().map(|&r| self.group[r]).collect()
    }

    /// The derived communicator of `members` (local ranks of this one, in
    /// their new rank order; `group` is their global ids), with their
    /// machine assignments carried over.
    fn subset(&self, members: &[usize], group: Vec<usize>, key: u64, coll_salt: u64) -> Comm {
        let my_local =
            local_rank(&group, self.global_id()).expect("caller belongs to the group it derives");
        let machines = members.iter().map(|&r| self.placement.machine_of(r).clone()).collect();
        let machine_of = (0..members.len()).collect();
        let placement = Placement::custom(machines, machine_of, *self.placement.wan());
        self.derived(Arc::new(group), my_local, Arc::new(placement), key, coll_salt)
    }

    /// Split the communicator (like `MPI_Comm_split`): ranks with the
    /// same `color` form a new communicator, ordered by `(key, rank)`.
    /// Collective: every rank must call it.
    pub fn split(&self, color: i64, key: i64) -> Comm {
        // Allgather (rank, color, key) triples via the existing collectives.
        let mine = [self.rank() as f64, color as f64, key as f64];
        let flat: Vec<f64> = self.gather(0, &mine).into_iter().flatten().flatten().collect();
        let gathered = self.bcast(0, &flat);
        let mut members: Vec<(i64, usize)> = gathered // (key, parent rank)
            .chunks_exact(3)
            .filter(|triple| triple[1] as i64 == color)
            .map(|triple| (triple[2] as i64, triple[0] as usize))
            .collect();
        members.sort_unstable();
        let parent_ranks: Vec<usize> = members.iter().map(|&(_, r)| r).collect();
        let group = self.globals(&parent_ranks);
        let key = self.derive_key(&group);
        self.subset(&parent_ranks, group, key, 0)
    }

    /// Duplicate the communicator (like `MPI_Comm_dup`): same group,
    /// fresh collective/cost state. Collective.
    pub fn dup(&self) -> Comm {
        self.barrier();
        let key = self.derive_key(&self.group);
        self.derived(Arc::clone(&self.group), self.my_local, Arc::clone(&self.placement), key, 0)
    }

    // ----- MPI-2: dynamic processes and attachment ------------------------

    fn intercomm(&self, remote_group: Arc<Vec<usize>>, wan: FabricSpec) -> InterComm {
        InterComm {
            universe: Arc::clone(&self.universe),
            my_global: self.global_id(),
            mailbox: self.mailbox.clone(),
            remote_group,
            wan,
        }
    }

    /// Spawn a child world of `n` ranks running `f`, placed on `machine`,
    /// connected to this rank's group over `wan`. Returns the parent-side
    /// inter-communicator. (The paper: "dynamic process creation and
    /// attachment e.g. can be used for realtime-visualization or
    /// computational steering".)
    pub fn spawn<F>(&self, n: usize, machine: MachineSpec, wan: FabricSpec, f: F) -> InterComm
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        assert!(n > 0, "cannot spawn an empty world");
        self.record(EventKind::Spawn, n as u64);
        let child_group = self.universe.register(n);
        let child_shared = CommShared::new(n);
        let child_placement = Arc::new(Placement::single(n, machine));
        let f = Arc::new(f);
        for rank in 0..n {
            let comm = Comm::new(
                Arc::clone(&self.universe),
                Arc::clone(&child_group),
                rank,
                Arc::clone(&child_placement),
                Arc::clone(&child_shared),
                Some((Arc::clone(&self.group), wan)),
            );
            let f = Arc::clone(&f);
            let h = std::thread::Builder::new()
                .name(format!("spawned-{rank}"))
                .spawn(move || f(comm))
                .expect("failed to spawn child rank");
            self.universe.push_spawned(h);
        }
        self.intercomm(child_group, wan)
    }

    /// The inter-communicator to the spawning parent, if this world was
    /// created via [`Comm::spawn`] (like `MPI_Comm_get_parent`).
    pub fn parent(&self) -> Option<InterComm> {
        self.parent.as_ref().map(|p| self.intercomm(Arc::clone(&p.parent_group), p.wan))
    }

    /// Rendezvous with another running component on a named port
    /// (`MPI_Comm_accept`/`MPI_Comm_connect`): both sides call with the
    /// same name; each receives an inter-communicator to the other's
    /// group.
    pub fn attach(&self, port_name: &str, wan: FabricSpec) -> InterComm {
        let (remote_group, _caller) =
            self.universe.rendezvous(port_name, Arc::clone(&self.group), self.global_id());
        self.intercomm(remote_group, wan)
    }

    /// Like [`Comm::attach`] but with a rendezvous deadline: a partner
    /// that never shows up (or died before connecting) yields
    /// [`CommError::Timeout`] instead of blocking on the port forever.
    pub fn attach_timeout(
        &self,
        port_name: &str,
        wan: FabricSpec,
        timeout: Duration,
    ) -> CommResult<InterComm> {
        let (remote_group, _caller) = self.universe.rendezvous_deadline(
            port_name,
            Arc::clone(&self.group),
            self.global_id(),
            Some(timeout),
        )?;
        Ok(self.intercomm(remote_group, wan))
    }

    // ----- failure awareness (ULFM-style) -----------------------------------
    //
    // What the `try_*` entry points add to the steps above. With no
    // process-fault plan installed the only extra cost is a relaxed
    // atomic load plus an uncontended map lookup per operation.

    /// Poll this rank's scripted fault injector ([`check_alive`]) and
    /// surface already declared failures/revocation. Every failure-aware
    /// operation calls this exactly once, first.
    fn check_health(&self) -> CommResult<()> {
        check_alive(&self.universe, self.global_id(), self.my_local)?;
        if self.is_revoked() {
            return Err(CommError::Revoked);
        }
        Ok(())
    }

    /// Local indices of group members declared failed so far, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let failed = self.universe.failed_snapshot();
        if failed.is_empty() {
            return Vec::new();
        }
        (0..self.size()).filter(|&l| failed.binary_search(&self.group[l]).is_ok()).collect()
    }

    /// Local index of the lowest failed member other than this rank.
    fn first_failed_peer(&self) -> Option<usize> {
        self.failed_ranks().into_iter().find(|&l| l != self.my_local)
    }

    fn any_member_failed(&self) -> bool {
        !self.failed_ranks().is_empty()
    }

    fn all_peers_failed(&self) -> bool {
        self.failed_ranks().iter().filter(|&&l| l != self.my_local).count() == self.size() - 1
    }

    /// Translate an aborted claim into the most specific error.
    fn abort_error(&self, awaited: Option<usize>) -> CommError {
        if self.is_revoked() {
            return CommError::Revoked;
        }
        let awaited = awaited.filter(|&s| self.universe.is_failed(self.group[s]).is_some());
        // With no failed peer to blame, the abort came from this rank's own
        // poisoned mailbox: it was itself declared dead.
        let rank = awaited.or_else(|| self.first_failed_peer()).unwrap_or(self.my_local);
        CommError::RankFailed { rank }
    }

    /// Revoke the communicator (like `MPI_Comm_revoke`): every pending
    /// and future failure-aware operation on it — on any member — fails
    /// with [`CommError::Revoked`]. Idempotent. Survivors regroup via
    /// [`Comm::shrink`].
    pub fn revoke(&self) {
        self.shared.revoked.store(true, Ordering::SeqCst);
        for &g in self.group.iter() {
            self.universe.mailbox(g).wake();
        }
        self.shared.barrier_cv.notify_all();
    }

    /// Whether some member has revoked this communicator.
    pub fn is_revoked(&self) -> bool {
        self.shared.revoked.load(Ordering::SeqCst)
    }

    /// Form the survivor communicator (like `MPI_Comm_shrink`): the
    /// current group minus every rank declared failed. All survivors
    /// must call it; each obtains a working communicator with fresh
    /// collective state and a tag salt that isolates it from stale
    /// pre-shrink traffic. Errors with [`CommError::RankFailed`] if the
    /// caller itself has been declared dead.
    pub fn shrink(&self) -> CommResult<Comm> {
        let failed = self.failed_ranks();
        if failed.contains(&self.my_local) {
            return Err(CommError::RankFailed { rank: self.my_local });
        }
        let survivors: Vec<usize> = (0..self.size()).filter(|l| !failed.contains(l)).collect();
        // Key the shared state by the (old group -> new group) transition
        // alone: survivors may have diverged in `derive_seq` by the time
        // they shrink, so the sequence-mixing `derive_key` is unusable.
        let group = self.globals(&survivors);
        let ids = self.group.iter().chain(&group).map(|&g| g as u64);
        let key = fnv_key(b"shrink".iter().map(|&b| b as u64).chain(ids));
        Ok(self.subset(&survivors, group, key, key | 1))
    }

    /// Record a wall-clock heartbeat for this rank.
    pub fn heartbeat(&self) {
        self.universe.heartbeat(self.global_id());
    }

    /// Declare heartbeating ranks silent for longer than `max_silence`
    /// dead (cause [`FailCause::Hang`]); returns the local indices of
    /// members of *this* communicator newly declared.
    pub fn detect_failures(&self, max_silence: Duration) -> Vec<usize> {
        let newly = self.universe.detect_failures(max_silence);
        newly.iter().filter_map(|&g| local_rank(&self.group, g)).collect()
    }
}

impl PointToPoint for Comm {
    fn send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) {
        check_send(dst, self.size(), tag);
        infallible(self.post(Wait::Blocking, dst, tag, data));
    }

    fn recv_envelope(&self, src: usize, tag: Tag) -> (Envelope, Status) {
        let env = self.mailbox.claim(source_filter(&self.group, src), tag);
        self.accept(Wait::Blocking, env)
    }

    fn try_send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        check_send(dst, self.size(), tag);
        self.check_health()?;
        self.post(Wait::Guarded(None), dst, tag, data)
    }

    /// Also fails with [`CommError::Revoked`] once the communicator is
    /// revoked.
    fn recv_timeout(
        &self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> CommResult<(Envelope, Status)> {
        self.check_health()?;
        let deadline = timeout.map(|t| Instant::now() + t);
        let from = source_filter(&self.group, src);
        let env = if src == ANY_SOURCE {
            self.claim_guarded(from, tag, deadline, None, || self.all_peers_failed())?
        } else {
            let lost = || self.universe.is_failed(self.group[src]).is_some();
            self.claim_guarded(from, tag, deadline, Some(src), lost)?
        };
        Ok(self.accept(Wait::Guarded(deadline), env))
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
    remote_group: Arc<Vec<usize>>,
    wan: FabricSpec,
}

impl InterComm {
    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.remote_group.len()
    }

    /// Modeled WAN time for a payload of `bytes` (one message).
    pub fn modeled_transfer_time(&self, bytes: u64) -> f64 {
        self.wan.transfer_time(bytes)
    }

    /// Non-blocking probe on the remote group.
    pub fn probe(&self, src: usize, tag: Tag) -> bool {
        self.mailbox.probe(source_filter(&self.remote_group, src), tag)
    }

    /// Local indices of remote ranks declared failed, ascending.
    pub fn failed_remote_ranks(&self) -> Vec<usize> {
        let failed = self.universe.failed_snapshot();
        (0..self.remote_size())
            .filter(|&l| failed.binary_search(&self.remote_group[l]).is_ok())
            .collect()
    }

    fn envelope<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> Envelope {
        check_send(dst, self.remote_size(), tag);
        Envelope::new(self.my_global, self.remote_group[dst], tag, data.to_vec())
    }
}

/// An inter-communicator has no local index for the caller, so a
/// self-failure is reported as [`CommError::RankFailed`] carrying this
/// rank's *global* id; every other `rank` is an index within the remote
/// group.
impl PointToPoint for InterComm {
    fn send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) {
        let env = self.envelope(dst, tag, data);
        infallible(deliver(&self.universe, Wait::Blocking, dst, env));
    }

    fn recv_envelope(&self, src: usize, tag: Tag) -> (Envelope, Status) {
        let env = self.mailbox.claim(source_filter(&self.remote_group, src), tag);
        received(&self.universe, &self.remote_group, env)
    }

    fn try_send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        let env = self.envelope(dst, tag, data);
        check_alive(&self.universe, self.my_global, self.my_global)?;
        deliver(&self.universe, Wait::Guarded(None), dst, env)
    }

    fn recv_timeout(
        &self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> CommResult<(Envelope, Status)> {
        check_alive(&self.universe, self.my_global, self.my_global)?;
        let deadline = timeout.map(|t| Instant::now() + t);
        let from = source_filter(&self.remote_group, src);
        let outcome = self.mailbox.claim_deadline(from, tag, deadline, || match from {
            SrcFilter::Exact(global) => self.universe.is_failed(global).is_some(),
            _ => self.failed_remote_ranks().len() == self.remote_size(),
        });
        match outcome {
            ClaimOutcome::Ready(env) => Ok(received(&self.universe, &self.remote_group, env)),
            ClaimOutcome::TimedOut => Err(CommError::Timeout),
            ClaimOutcome::Aborted if src == ANY_SOURCE => Err(CommError::RankFailed {
                rank: self.failed_remote_ranks().first().copied().unwrap_or(0),
            }),
            ClaimOutcome::Aborted => Err(CommError::RankFailed { rank: src }),
        }
    }
}

/// A pending nonblocking receive on a [`Comm`].
pub struct RecvRequest<'a> {
    comm: &'a Comm,
    from: SrcFilter<'a>,
    tag: Tag,
    done: Cell<bool>,
}

impl RecvRequest<'_> {
    /// Nonblocking completion test (like `MPI_Test`): returns the
    /// message if it has arrived, charged and traced as a
    /// [`PointToPoint::recv_envelope`] of it would be.
    pub fn test(&self) -> Option<(Envelope, Status)> {
        assert!(!self.done.get(), "request already completed");
        let env = self.comm.mailbox.try_claim(self.from, self.tag)?;
        self.done.set(true);
        Some(self.comm.accept(Wait::Blocking, env))
    }

    /// Block until the message arrives (like `MPI_Wait`).
    pub fn wait(self) -> (Envelope, Status) {
        assert!(!self.done.get(), "request already completed");
        let env = self.comm.mailbox.claim(self.from, self.tag);
        self.comm.accept(Wait::Blocking, env)
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
            let sum = comm.reduce_f64s(0, ReduceOp::Sum, &[x, 2.0 * x]);
            let all_max = comm.allreduce_f64s(ReduceOp::Max, &[x]);
            let all_min = comm.allreduce_f64s(ReduceOp::Min, &[x]);
            (sum, all_max[0], all_min[0])
        });
        assert_eq!(out[0].0, Some(vec![10.0, 20.0]));
        for (i, (sum, mx, mn)) in out.iter().enumerate() {
            if i != 0 {
                assert!(sum.is_none());
            }
            assert_eq!(*mx, 4.0);
            assert_eq!(*mn, 0.0);
        }
    }

    #[test]
    fn gather_and_scatter() {
        let out = Universe::run(4, |comm| {
            let mine = vec![comm.rank() as f32; comm.rank() + 1];
            let gathered = comm.gather(0, &mine);
            let parts: Vec<Vec<f32>> = if comm.rank() == 0 {
                (0..4).map(|r| vec![r as f32 * 10.0]).collect()
            } else {
                vec![]
            };
            let part = comm.scatter(0, &parts);
            (gathered, part)
        });
        let g = out[0].0.as_ref().unwrap();
        for (r, part) in g.iter().enumerate() {
            assert_eq!(part, &vec![r as f32; r + 1]);
        }
        for (r, (_, part)) in out.iter().enumerate() {
            assert_eq!(part, &vec![r as f32 * 10.0]);
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

    #[test]
    fn spawn_children_and_talk() {
        let out = Universe::run(1, |comm| {
            let kids = comm.spawn(
                3,
                MachineSpec::new("T3E", FabricSpec::t3e_torus()),
                FabricSpec::wan_testbed(),
                |child| {
                    let parent = child.parent().expect("child has a parent");
                    // Children also talk among themselves.
                    let sum = child.allreduce_f64s(ReduceOp::Sum, &[child.rank() as f64]);
                    parent.send(0, Tag(9), &[child.rank() as f64 * 100.0 + sum[0]]);
                },
            );
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
                    let viz = comm.attach("fire-viz", FabricSpec::wan_testbed());
                    viz.send(0, Tag(1), &[1.5f32, 2.5]);
                    let (reply, _) = viz.recv::<f32>(0, Tag(2));
                    reply[0]
                },
            )
        });
        let viz_out = u.launch_and_join(
            Placement::single(1, MachineSpec::new("Onyx", FabricSpec::smp_shared())),
            |comm| {
                let sim = comm.attach("fire-viz", FabricSpec::wan_testbed());
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

    /// Receives posted before their messages exist complete by `test()`
    /// and `wait()`, costed and traced exactly like blocking receives.
    #[test]
    fn irecv_test_and_wait() {
        let run = |nonblocking: bool| {
            let u = Universe::traced();
            let costs = u.launch_and_join(t3e_sp2(2, 1), move |comm| {
                let peer = 1 - comm.rank();
                let posted = nonblocking.then(|| {
                    let first = comm.irecv(peer, Tag(1));
                    assert!(first.test().is_none(), "the barrier holds every send back");
                    (first, comm.irecv(ANY_SOURCE, Tag(2)))
                });
                comm.barrier();
                comm.send(peer, Tag(1), &[0.5f32; 100]);
                comm.barrier();
                comm.send(peer, Tag(2), &[7u8; 3]);
                let got = match posted {
                    Some((first, second)) => {
                        [first.test().expect("sent before the barrier"), second.wait()]
                    }
                    None => {
                        [comm.recv_envelope(peer, Tag(1)), comm.recv_envelope(ANY_SOURCE, Tag(2))]
                    }
                };
                assert_eq!(got.map(|(_, st)| (st.source, st.bytes)), [(peer, 400), (peer, 3)]);
                let c = comm.comm_cost();
                ([c.seconds, c.intra_seconds, c.wan_seconds].map(f64::to_bits), c.messages, c.bytes)
            });
            (costs, format!("{:?}", u.trace().summary(u.total_ranks())))
        };
        let (blocking, nonblocking) = (run(false), run(true));
        assert_eq!(blocking, nonblocking);
        assert!(blocking.0.iter().all(|&(_, messages, bytes)| (messages, bytes) == (4, 806)));
        assert!(blocking.1.contains("recvs: [2, 2]"), "{}", blocking.1);
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
            let kids = comm.spawn(1, t3e, FabricSpec::wan_testbed(), |child| {
                child.parent().expect("child has a parent").send(0, Tag(7), &[2u64]);
            });
            // The child's message is queued first, ahead of rank 1's.
            while !kids.probe(0, Tag(7)) {
                std::thread::yield_now();
            }
            assert!(!comm.probe(ANY_SOURCE, Tag(7)), "a child is not a member");
            comm.barrier();
            let (world, st) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG);
            assert_eq!(st.source, 1);
            let (child, st) = kids.recv::<u64>(ANY_SOURCE, ANY_TAG);
            assert_eq!(st.source, 0);
            (world[0], child[0])
        });
        assert_eq!(out[0], (1, 2));
    }

    #[test]
    fn irecv_overlaps_computation() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.irecv(1, Tag(6));
                // "Computation" while the message is in flight.
                let mut acc = 0u64;
                for i in 0..10_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                let (env, _) = req.wait();
                acc.wrapping_add(env.payload::<u64>()[0])
            } else {
                comm.send(0, Tag(6), &[7u64]);
                0
            }
        });
        assert!(out[0] > 0);
    }

    #[test]
    fn split_by_parity() {
        let out = Universe::run(6, |comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64);
            // Even ranks {0,2,4} and odd ranks {1,3,5}, each of size 3,
            // ordered by parent rank.
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() / 2);
            // Collectives work inside the new communicator.
            let sum = sub.allreduce_f64s(ReduceOp::Sum, &[comm.rank() as f64]);
            (color, sum[0])
        });
        for (r, &(color, sum)) in out.iter().enumerate() {
            let expect = if color == 0 { 0.0 + 2.0 + 4.0 } else { 1.0 + 3.0 + 5.0 };
            assert_eq!(sum, expect, "rank {r}");
        }
    }

    #[test]
    fn split_reorders_by_key() {
        let out = Universe::run(4, |comm| {
            // Reverse key order: rank 3 becomes local 0.
            let sub = comm.split(0, -(comm.rank() as i64));
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dup_isolates_traffic() {
        let out = Universe::run(2, |comm| {
            let dup = comm.dup();
            if comm.rank() == 0 {
                comm.send(1, Tag(9), &[1u64]);
                dup.send(1, Tag(9), &[2u64]);
                0
            } else {
                // Receive from the dup first: tags are identical, but
                // the source global ids are the same too — messages are
                // distinguished by arrival order per (src, tag), and
                // both communicators share the mailbox. The dup
                // semantics here guarantee separate collective state;
                // p2p shares the rank's mailbox (documented).
                let (a, _) = comm.recv::<u64>(0, Tag(9));
                let (b, _) = dup.recv::<u64>(0, Tag(9));
                a[0] * 10 + b[0]
            }
        });
        assert_eq!(out[1], 12);
    }

    #[test]
    fn alltoall_exchanges_parts() {
        let out = Universe::run(3, |comm| {
            let parts: Vec<Vec<f64>> =
                (0..3).map(|dst| vec![(comm.rank() * 10 + dst) as f64]).collect();
            let got = comm.alltoall(&parts);
            got.into_iter().map(|v| v[0] as i64).collect::<Vec<_>>()
        });
        // Rank r receives [0r, 1r, 2r] (sender*10 + r).
        assert_eq!(out[0], vec![0, 10, 20]);
        assert_eq!(out[1], vec![1, 11, 21]);
        assert_eq!(out[2], vec![2, 12, 22]);
    }

    #[test]
    fn split_carries_placement() {
        let p = Placement::split(
            4,
            2,
            MachineSpec::new("T3E", FabricSpec::t3e_torus()),
            MachineSpec::new("SP2", FabricSpec::sp2_switch()),
            FabricSpec::wan_testbed(),
        );
        let out = Universe::run_placed(p, |comm| {
            // Group by machine: split on the machine index.
            let color = if comm.machine().name == "T3E" { 0 } else { 1 };
            let sub = comm.split(color, 0);
            sub.machine().name.clone()
        });
        assert_eq!(out[0], "T3E");
        assert_eq!(out[3], "SP2");
    }

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload.downcast_ref::<String>().cloned().expect("assert! panics with a String")
    }

    /// What `send`/`try_send` to a peer out of range and on a reserved
    /// tag, and a probe out of range, panic with on `p` (one peer).
    fn rejected<P: PointToPoint>(p: &P, probe: impl Fn(usize, Tag) -> bool) -> Vec<String> {
        let reserved = Tag(COLL_TAG_BASE);
        vec![
            panic_message(|| p.send(1, Tag(1), &[1u64])),
            panic_message(|| _ = p.try_send(1, Tag(1), &[1u64])),
            panic_message(|| p.send(0, reserved, &[1u64])),
            panic_message(|| _ = p.try_send(0, reserved, &[1u64])),
            panic_message(|| _ = probe(1, Tag(1))),
        ]
    }

    #[test]
    fn send_and_probe_checks_apply_to_both_communicator_kinds() {
        let out = Universe::run(1, |comm| {
            let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
            let kids = comm.spawn(1, t3e, FabricSpec::wan_testbed(), |_child| {});
            let on_comm = rejected(&comm, |src, tag| comm.probe(src, tag));
            let on_intercomm = rejected(&kids, |src, tag| kids.probe(src, tag));
            // Nothing was posted: a reserved tag from the other world can
            // no longer be matched by this rank's next collective.
            assert!(!kids.probe(ANY_SOURCE, ANY_TAG));
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
            let kids = comm.spawn(1, t3e, FabricSpec::wan_testbed(), |child| {
                send_unreadable(&child.parent().expect("child has a parent"));
            });
            let errors = (unreadable_errors(&comm), unreadable_errors(&kids));
            // Consumed, not left to be hit again:
            assert!(!comm.probe(ANY_SOURCE, ANY_TAG) && !kids.probe(ANY_SOURCE, ANY_TAG));
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
