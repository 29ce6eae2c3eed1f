//! The process universe: thread-backed ranks, world launch, dynamic
//! spawn bookkeeping, named-port attachment — and, for the failure-aware
//! API, the global failure registry, wall-clock heartbeats and the
//! seeded process-fault state.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtw_desim::fault::{ProcessFaultInjector, ProcessFaultKind, ProcessFaultPlan};
use gtw_desim::SimTime;
use parking_lot::{Condvar, Mutex};

use crate::comm::{Comm, CommShared};
use crate::error::{CommError, FailCause};
use crate::machine::{FabricSpec, MachineSpec, Placement};
use crate::mailbox::Mailbox;
use crate::trace::TraceCollector;

/// A named-port rendezvous slot: two parties deposit their groups and
/// each takes the other's.
struct PortSlot {
    groups: Vec<(Arc<Vec<usize>>, usize)>, // (group, caller global id)
    taken: usize,
}

/// Per-universe process-fault bookkeeping: one injector per scripted
/// rank plus each rank's accumulated modeled-communication clock
/// (nanoseconds) that drives `FaultAt::Time` triggers.
#[derive(Default)]
struct ProcFaultState {
    injectors: HashMap<usize, ProcessFaultInjector>,
    clocks: HashMap<usize, u64>,
}

pub(crate) struct UniverseInner {
    mailboxes: Mutex<Vec<Mailbox>>,
    ports: Mutex<HashMap<String, PortSlot>>,
    ports_cv: Condvar,
    spawned: Mutex<Vec<JoinHandle<()>>>,
    /// Shared communicator state for derived communicators (split/dup):
    /// all members of a new communicator deterministically compute the
    /// same key and fetch the same shared block here.
    shared_registry: Mutex<HashMap<u64, std::sync::Arc<crate::comm::CommShared>>>,
    /// Global ids declared dead, with the cause. Never shrinks — the
    /// fail-stop model has no resurrection.
    failed: Mutex<BTreeMap<usize, FailCause>>,
    /// Last wall-clock heartbeat per global id.
    beats: Mutex<HashMap<usize, Instant>>,
    faults: Mutex<ProcFaultState>,
    /// Fast-path flag: when false (the default) every failure-aware op
    /// skips the fault mutex entirely — a relaxed atomic load is the
    /// whole cost of the subsystem on clean runs.
    faults_installed: AtomicBool,
    pub(crate) trace: TraceCollector,
    /// Calls of [`UniverseInner::mailbox`] so far: a handle fetches its
    /// peers' mailboxes when it is made, never per message.
    #[cfg(test)]
    pub(crate) lookups: std::sync::atomic::AtomicUsize,
}

impl UniverseInner {
    pub(crate) fn mailbox(&self, global: usize) -> Mailbox {
        #[cfg(test)]
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.mailboxes.lock()[global].clone()
    }

    pub(crate) fn register(&self, n: usize) -> Arc<Vec<usize>> {
        let mut mbs = self.mailboxes.lock();
        let base = mbs.len();
        mbs.extend((0..n).map(|_| Mailbox::new()));
        Arc::new((base..base + n).collect())
    }

    pub(crate) fn total_ranks(&self) -> usize {
        self.mailboxes.lock().len()
    }

    pub(crate) fn push_spawned(&self, h: JoinHandle<()>) {
        self.spawned.lock().push(h);
    }

    /// Fetch (or create) the shared state for a derived communicator
    /// identified by `key`.
    pub(crate) fn shared_for(&self, key: u64) -> Arc<crate::comm::CommShared> {
        let mut reg = self.shared_registry.lock();
        Arc::clone(reg.entry(key).or_default())
    }

    // ----- failure registry -------------------------------------------------

    /// Declare `global` dead: record the cause, poison its mailbox
    /// (discarding queued mail, dropping future posts) and wake every
    /// claimer in the universe so blocked receives re-evaluate their
    /// abort conditions.
    ///
    /// Lock discipline: the failure map is released before any mailbox
    /// lock is taken, so claimers may safely consult the map from inside
    /// their claim loop.
    ///
    /// Returns whether this call made the declaration (`false` when
    /// `global` was already dead).
    pub(crate) fn declare_failed(&self, global: usize, cause: FailCause) -> bool {
        {
            let mut failed = self.failed.lock();
            if failed.contains_key(&global) {
                return false;
            }
            failed.insert(global, cause);
        }
        let mailboxes: Vec<Mailbox> = self.mailboxes.lock().iter().cloned().collect();
        if let Some(mb) = mailboxes.get(global) {
            mb.poison();
        }
        for mb in &mailboxes {
            mb.wake();
        }
        self.ports_cv.notify_all();
        true
    }

    pub(crate) fn is_failed(&self, global: usize) -> Option<FailCause> {
        self.failed.lock().get(&global).copied()
    }

    /// Snapshot of every dead global id, ascending.
    pub(crate) fn failed_snapshot(&self) -> Vec<usize> {
        self.failed.lock().keys().copied().collect()
    }

    // ----- heartbeats (wall clock) ------------------------------------------

    pub(crate) fn heartbeat(&self, global: usize) {
        self.beats.lock().insert(global, Instant::now());
    }

    /// Declare every heartbeating rank silent for longer than
    /// `max_silence` dead (cause [`FailCause::Hang`]); returns the
    /// global ids newly declared, ascending. Two concurrent callers may
    /// both find a rank silent; only the one whose declaration lands
    /// reports it.
    pub(crate) fn detect_failures(&self, max_silence: Duration) -> Vec<usize> {
        let now = Instant::now();
        let mut silent: Vec<usize> = {
            let beats = self.beats.lock();
            let failed = self.failed.lock();
            let mut v: Vec<usize> = beats
                .iter()
                .filter(|(g, last)| {
                    !failed.contains_key(g) && now.duration_since(**last) > max_silence
                })
                .map(|(&g, _)| g)
                .collect();
            v.sort_unstable();
            v
        };
        silent.retain(|&g| self.declare_failed(g, FailCause::Hang));
        silent
    }

    // ----- process-fault injection ------------------------------------------

    pub(crate) fn faults_installed(&self) -> bool {
        self.faults_installed.load(Ordering::Relaxed)
    }

    pub(crate) fn install_process_faults(&self, plan: &ProcessFaultPlan) {
        if plan.is_empty() {
            return;
        }
        let mut st = self.faults.lock();
        for &rank in plan.faults.keys() {
            if let Some(inj) = plan.injector(rank) {
                st.injectors.insert(rank, inj);
            }
        }
        drop(st);
        self.faults_installed.store(true, Ordering::Relaxed);
    }

    /// Advance `global`'s modeled-communication clock (seconds). Only
    /// meaningful while a fault plan is installed.
    pub(crate) fn advance_clock(&self, global: usize, seconds: f64) {
        let mut st = self.faults.lock();
        let nanos = (seconds.max(0.0) * 1e9) as u64;
        *st.clocks.entry(global).or_insert(0) += nanos;
    }

    /// Poll `global`'s injector at the top of a failure-aware op:
    /// `Some(cause)` when a scripted crash or hang fires now.
    pub(crate) fn poll_fault(&self, global: usize) -> Option<FailCause> {
        let mut st = self.faults.lock();
        let now = SimTime::from_nanos(st.clocks.get(&global).copied().unwrap_or(0));
        let inj = st.injectors.get_mut(&global)?;
        match inj.poll(now)? {
            ProcessFaultKind::Crash => Some(FailCause::Crash),
            ProcessFaultKind::Hang => Some(FailCause::Hang),
            ProcessFaultKind::Slow { .. } => None,
        }
    }

    /// Current slow-down factor (≥ 1.0) for `global` at its clock.
    pub(crate) fn slow_factor(&self, global: usize) -> f64 {
        let st = self.faults.lock();
        let now = SimTime::from_nanos(st.clocks.get(&global).copied().unwrap_or(0));
        st.injectors.get(&global).map_or(1.0, |inj| inj.slow_factor(now))
    }

    // ----- named-port rendezvous --------------------------------------------

    /// Symmetric rendezvous on `name`: deposit `(group, caller)` and
    /// return the other party's deposit. Blocks until a partner arrives.
    pub(crate) fn rendezvous(
        &self,
        name: &str,
        group: Arc<Vec<usize>>,
        caller: usize,
    ) -> (Arc<Vec<usize>>, usize) {
        self.rendezvous_deadline(name, group, caller, None)
            .expect("untimed rendezvous cannot time out")
    }

    /// Rendezvous with an optional deadline. On timeout the caller's own
    /// deposit is withdrawn (so a later partner doesn't pair with a
    /// ghost) and [`CommError::Timeout`] is returned. A crashed partner
    /// group also aborts the wait: waiting on the dead is pointless.
    pub(crate) fn rendezvous_deadline(
        &self,
        name: &str,
        group: Arc<Vec<usize>>,
        caller: usize,
        timeout: Option<Duration>,
    ) -> Result<(Arc<Vec<usize>>, usize), CommError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ports = self.ports.lock();
        let slot = ports
            .entry(name.to_string())
            .or_insert_with(|| PortSlot { groups: Vec::new(), taken: 0 });
        let my_index = slot.groups.len();
        assert!(my_index < 2, "more than two parties on port '{name}'");
        slot.groups.push((Arc::clone(&group), caller));
        self.ports_cv.notify_all();
        loop {
            let slot = ports.get_mut(name).expect("port vanished mid-rendezvous");
            if slot.groups.len() == 2 {
                let other = slot.groups[1 - my_index].clone();
                slot.taken += 1;
                if slot.taken == 2 {
                    ports.remove(name);
                }
                return Ok(other);
            }
            if self.is_failed(caller).is_some() {
                Self::withdraw(&mut ports, name, caller);
                return Err(CommError::RankFailed { rank: caller });
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        Self::withdraw(&mut ports, name, caller);
                        return Err(CommError::Timeout);
                    }
                    let wait = Duration::from_millis(10).min(d - now);
                    self.ports_cv.wait_for(&mut ports, wait);
                }
                None => {
                    self.ports_cv.wait(&mut ports);
                }
            }
        }
    }

    fn withdraw(ports: &mut HashMap<String, PortSlot>, name: &str, caller: usize) {
        if let Some(slot) = ports.get_mut(name) {
            slot.groups.retain(|&(_, c)| c != caller);
            if slot.groups.is_empty() && slot.taken == 0 {
                ports.remove(name);
            }
        }
    }
}

/// The top-level runtime: owns the global mailbox registry and all
/// dynamically spawned threads.
///
/// Cloning shares the same universe (cheap `Arc` clone) — useful for
/// launching multiple worlds that attach to each other via named ports.
#[derive(Clone)]
pub struct Universe {
    inner: Arc<UniverseInner>,
}

impl Default for Universe {
    fn default() -> Self {
        Self::new()
    }
}

impl Universe {
    /// New universe with tracing disabled.
    pub fn new() -> Self {
        Self::with_trace(TraceCollector::disabled())
    }

    /// New universe recording a VAMPIR-style trace.
    pub fn traced() -> Self {
        Self::with_trace(TraceCollector::enabled())
    }

    fn with_trace(trace: TraceCollector) -> Self {
        Universe {
            inner: Arc::new(UniverseInner {
                mailboxes: Mutex::new(Vec::new()),
                ports: Mutex::new(HashMap::new()),
                ports_cv: Condvar::new(),
                spawned: Mutex::new(Vec::new()),
                shared_registry: Mutex::new(HashMap::new()),
                failed: Mutex::new(BTreeMap::new()),
                beats: Mutex::new(HashMap::new()),
                faults: Mutex::new(ProcFaultState::default()),
                faults_installed: AtomicBool::new(false),
                trace,
                #[cfg(test)]
                lookups: Default::default(),
            }),
        }
    }

    /// The trace collector (empty if the universe is untraced).
    pub fn trace(&self) -> &TraceCollector {
        &self.inner.trace
    }

    /// Total ranks ever registered (worlds + spawned).
    pub fn total_ranks(&self) -> usize {
        self.inner.total_ranks()
    }

    /// Install a seeded process-fault plan. Ranks in the plan are
    /// *global* ids (world launch order). Installing an empty plan is a
    /// no-op, keeping clean runs on the zero-cost fast path.
    pub fn install_process_faults(&self, plan: &ProcessFaultPlan) {
        self.inner.install_process_faults(plan);
    }

    /// Global ids declared dead so far, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.inner.failed_snapshot()
    }

    /// Why `global` was declared dead (None while alive).
    pub fn fail_cause(&self, global: usize) -> Option<FailCause> {
        self.inner.is_failed(global)
    }

    /// Number of unclaimed envelopes sitting in `global`'s mailbox.
    /// Test introspection: after an aborted collective, a dead rank must
    /// not have leaked a contribution anywhere (its own mailbox is
    /// drained by poisoning, and the poll-before-post rule keeps its
    /// mail out of the survivors' mailboxes).
    pub fn pending_messages(&self, global: usize) -> usize {
        self.inner.mailbox(global).len()
    }

    /// Externally declare a global rank dead (e.g. an operator decision
    /// after repeated timeouts).
    pub fn declare_failed(&self, global: usize, cause: FailCause) {
        self.inner.declare_failed(global, cause);
    }

    /// Declare heartbeating ranks silent for over `max_silence` dead;
    /// returns the newly declared global ids.
    pub fn detect_failures(&self, max_silence: Duration) -> Vec<usize> {
        self.inner.detect_failures(max_silence)
    }

    /// Run a world of `n` ranks on a single implicit SMP machine and
    /// return each rank's result, ordered by rank.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        Self::run_placed(
            Placement::single(n, MachineSpec::new("local", FabricSpec::smp_shared())),
            f,
        )
    }

    /// Run a world with an explicit machine placement.
    pub fn run_placed<R, F>(placement: Placement, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let u = Universe::new();
        let out = u.launch_and_join(placement, f);
        u.join_spawned();
        out
    }

    /// Same as [`Universe::run_placed`] but on an existing universe (so a
    /// trace collector or ports survive across worlds).
    pub fn launch_and_join<R, F>(&self, placement: Placement, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let n = placement.len();
        assert!(n > 0, "world must have at least one rank");
        let group = self.inner.register(n);
        let shared: Arc<CommShared> = Arc::default();
        let placement = Arc::new(placement);
        let f = Arc::new(f);
        let handles: Vec<JoinHandle<R>> = (0..n)
            .map(|rank| {
                let comm = Comm::new(
                    Arc::clone(&self.inner),
                    Arc::clone(&group),
                    rank,
                    Arc::clone(&placement),
                    Arc::clone(&shared),
                    None,
                );
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || f(comm))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    }

    /// Join every dynamically spawned child thread. Call after the world
    /// completes; [`Universe::run_placed`] does it automatically.
    pub fn join_spawned(&self) {
        loop {
            let handle = self.inner.spawned.lock().pop();
            match handle {
                Some(h) => h.join().expect("spawned rank panicked"),
                None => return,
            }
        }
    }

    /// Join spawned threads with a wall-clock deadline: a child that is
    /// still running when the deadline expires is detached instead of
    /// blocking the caller forever (the latent-hang fix).
    ///
    /// Returns `Err(n)` with the number of detached threads.
    pub fn join_spawned_timeout(&self, deadline: Duration) -> Result<(), usize> {
        let end = Instant::now() + deadline;
        loop {
            // Reap everything already finished without holding the lock
            // across a join.
            loop {
                let finished = {
                    let mut pending = self.inner.spawned.lock();
                    let pos = pending.iter().position(|h| h.is_finished());
                    pos.map(|p| pending.swap_remove(p))
                };
                match finished {
                    Some(h) => h.join().expect("spawned rank panicked"),
                    None => break,
                }
            }
            let remaining = self.inner.spawned.lock().len();
            if remaining == 0 {
                return Ok(());
            }
            if Instant::now() >= end {
                let mut pending = self.inner.spawned.lock();
                let leaked = pending.len();
                pending.clear(); // detach: the threads keep running
                return Err(leaked);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PointToPoint;
    use crate::envelope::Tag;

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_ordered_by_rank() {
        let out = Universe::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_exchange() {
        let out = Universe::run(5, |comm| {
            let n = comm.size();
            let right = (comm.rank() + 1) % n;
            comm.send(right, Tag(1), &[comm.rank() as u64]);
            let (v, st) = comm.recv::<u64>(crate::ANY_SOURCE, Tag(1));
            assert_eq!(st.source, (comm.rank() + n - 1) % n);
            v[0]
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn traced_universe_collects() {
        let u = Universe::traced();
        let p = Placement::single(2, MachineSpec::new("m", FabricSpec::smp_shared()));
        u.launch_and_join(p, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(5), &[1u64, 2, 3]);
            } else {
                let _ = comm.recv::<u64>(0, Tag(5));
            }
        });
        let s = u.trace().summary(u.total_ranks());
        assert_eq!(s.total_messages(), 1);
        assert_eq!(s.total_bytes(), 24);
    }

    #[test]
    fn declare_failed_poisons_and_records_cause() {
        let u = Universe::new();
        let group = u.inner.register(2);
        assert!(u.inner.declare_failed(group[1], FailCause::Crash), "the first call declares");
        assert_eq!(u.failed_ranks(), vec![group[1]]);
        assert_eq!(u.fail_cause(group[1]), Some(FailCause::Crash));
        assert!(u.inner.mailbox(group[1]).is_poisoned());
        assert!(!u.inner.mailbox(group[0]).is_poisoned());
        // Idempotent, first cause wins, and the call says it declared nothing.
        assert!(!u.inner.declare_failed(group[1], FailCause::Hang));
        assert_eq!(u.fail_cause(group[1]), Some(FailCause::Crash));
    }

    #[test]
    fn join_spawned_timeout_detaches_stuck_children() {
        let u = Universe::new();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        });
        u.inner.push_spawned(h);
        let res = u.join_spawned_timeout(Duration::from_millis(50));
        assert_eq!(res, Err(1), "the stuck child must be detached, not joined");
        drop(tx); // release the child so the process exits cleanly
        assert_eq!(u.join_spawned_timeout(Duration::from_secs(1)), Ok(()), "nothing left to join");
    }
}
