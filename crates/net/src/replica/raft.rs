//! The consensus core: a Raft-style [`Replica`] that elects a leader,
//! replicates a log of CAC [`Command`]s, applies committed entries to
//! its [`CacState`] and catches rejoining replicas up by snapshot.
//!
//! It speaks only its own messages — votes, appends, snapshots and the
//! `ClientRequest`/`ClientReply` pair a client (the proxy in
//! [`agent`](super::agent)) drives it with. No SETUP, CONNECT, REJECT or
//! RELEASE is named here, so the core runs, and can be checked, without
//! ATM signalling.
//!
//! Determinism: every timeout is drawn from a named [`StreamRng`]
//! stream, so two runs with one seed elect the same leaders at the same
//! virtual times; and timers re-arm only while `now <
//! cfg.active_until`, so a run with a replica group still terminates —
//! heartbeats stop at the horizon instead of chasing the event queue
//! for ever.

use std::collections::BTreeMap;

use gtw_desim::component::{downcast, msg};
use gtw_desim::fault::FaultInjector;
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime, StreamRng};

use super::cac::{CacState, CmdOutcome, Command};
use crate::signaling::CallId;
use crate::units::Bandwidth;

// ---- configuration ----------------------------------------------------
//
// All timeouts are virtual time. Together they give sub-200 ms
// fail-over with hundreds of microseconds of control-plane RTT.
// `GroupConfig` holds what scenarios vary; the rest are constants of
// the protocol.

/// What a scenario sets per replica group.
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// Master seed for every timeout stream in the group.
    pub seed: u64,
    /// Horizon after which no timer re-arms, so `sim.run()` terminates.
    pub active_until: SimTime,
    /// A client gives up on a request (the proxy then refuses the call
    /// for want of a quorum) after this long.
    pub request_deadline: SimDuration,
    /// Compact the log into a snapshot once it exceeds this many
    /// entries.
    pub snapshot_threshold: usize,
}

impl GroupConfig {
    /// Defaults for `seed`, running the protocol until `active_until`.
    pub fn new(seed: u64, active_until: SimTime) -> Self {
        GroupConfig {
            seed,
            active_until,
            request_deadline: SimDuration::from_secs(5),
            snapshot_threshold: 64,
        }
    }
}

/// Leader heartbeat (empty AppendEntries) interval.
const HEARTBEAT: SimDuration = SimDuration::from_millis(20);
/// Bounds of the randomized election timeout.
const ELECTION_MIN: SimDuration = SimDuration::from_millis(100);
const ELECTION_MAX: SimDuration = SimDuration::from_millis(200);
/// Elections are biased so this replica wins the first one (a narrower,
/// earlier timeout band); keeps scenarios readable without breaking the
/// protocol when it is down.
const PREFERRED_LEADER: usize = 0;
/// One-way replica-to-replica / client-to-replica message delay.
pub(super) const NET_DELAY: SimDuration = SimDuration::from_micros(200);
/// How long a leader waits for majority commit before answering
/// `NoQuorum` to the client.
const COMMIT_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Leader-side deadline for a `Prepare` hold: if no `Confirm` commits
/// within this window the leader commits an `Abort`, releasing the
/// tentative reservation.
const HANDOFF_DEADLINE: SimDuration = SimDuration::from_secs(2);
/// Peak overbooking factor of a replicated port's CAC.
const PEAK_FACTOR: f64 = 1.0;

// ---- protocol messages ------------------------------------------------

/// One replicated log slot.
#[derive(Clone, Debug)]
struct LogEntry {
    term: u64,
    /// Client request id (0 for leader no-ops); the apply-time dedup
    /// key that makes retried commands exactly-once.
    req: u64,
    cmd: Command,
}

struct RequestVote {
    term: u64,
    from: usize,
    last_index: u64,
    last_term: u64,
}

struct VoteReply {
    term: u64,
    from: usize,
    granted: bool,
}

struct Append {
    term: u64,
    from: usize,
    prev_index: u64,
    prev_term: u64,
    entries: Vec<LogEntry>,
    commit: u64,
}

struct AppendReply {
    term: u64,
    from: usize,
    success: bool,
    /// On success: the follower's new last replicated index. On
    /// failure: the follower's last index, to skip the next_index
    /// probe walk.
    match_hint: u64,
}

struct SnapshotMsg {
    term: u64,
    from: usize,
    last_index: u64,
    last_term: u64,
    bytes: Vec<u8>,
}

/// Boot a replica: start its election timer. Sent by
/// [`ReplicaGroup::build`](super::ReplicaGroup::build) at `t = 0`.
pub struct BootReplica;

/// Take a replica down (crash or partition-side power-off). With
/// `wipe`, the replica loses its volatile *and* durable state and must
/// be caught up by snapshot on rejoin.
pub struct ReplicaDown {
    /// Lose all state (full crash) rather than just going quiet.
    pub wipe: bool,
}

/// Bring a downed replica back; it rejoins as a follower.
pub struct ReplicaUp;

/// A client asks the replica it believes leads to log `cmd` under the
/// request id `req` (the exactly-once key).
pub(super) struct ClientRequest {
    pub(super) req: u64,
    pub(super) cmd: Command,
    pub(super) reply_to: ComponentId,
}

pub(super) enum ReplyResult {
    Done(CmdOutcome),
    NotLeader { hint: Option<usize> },
    NoQuorum,
}

pub(super) struct ClientReply {
    pub(super) req: u64,
    pub(super) from: usize,
    pub(super) result: ReplyResult,
}

/// Election timer; the nonce invalidates stale timers after a reset.
struct ElectionTimeout {
    nonce: u64,
}

/// Leader heartbeat timer, nonce-guarded like the election timer.
struct HeartbeatTick {
    nonce: u64,
}

/// Leader-side deadline for a pending client request.
struct CommitCheck {
    req: u64,
}

/// Leader-side hand-off deadline for a committed `Prepare` hold: if no
/// `Confirm` committed by then, the leader commits an `Abort`.
struct PendingExpiry {
    call: CallId,
}

// ---- replica ----------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// One member of a [`ReplicaGroup`](super::ReplicaGroup): holds a durable term/log, runs
/// elections, replicates entries as leader, and applies committed
/// commands to its [`CacState`].
pub struct Replica {
    label: String,
    idx: usize,
    /// Every replica of the group by index, this one included.
    pub(super) peers: Vec<ComponentId>,
    cfg: GroupConfig,
    rng: StreamRng,

    // Durable state (survives ReplicaDown without `wipe`).
    term: u64,
    voted_for: Option<usize>,
    log: Vec<LogEntry>,
    /// Index of the last entry folded into the snapshot; `log[0]` is
    /// entry `snap_base + 1`.
    snap_base: u64,
    snap_term: u64,

    // Volatile state.
    role: Role,
    commit_index: u64,
    last_applied: u64,
    last_applied_term: u64,
    state: CacState,
    leader_hint: Option<usize>,
    votes: u32,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    pending: BTreeMap<u64, ComponentId>,
    election_nonce: u64,
    hb_nonce: u64,
    alive: bool,
    crashed: bool,

    // Fault hooks.
    pub(super) link_faults: Vec<Option<FaultInjector>>,
    pub(super) client_fault: Option<FaultInjector>,

    /// Elections this replica started (became candidate).
    pub elections_started: u64,
    /// Terms in which this replica won leadership.
    pub leader_terms: u64,
    /// Log entries appended (leader and follower sides).
    pub entries_appended: u64,
    /// Snapshots shipped to lagging followers.
    pub snapshots_sent: u64,
    /// Snapshots installed from a leader.
    pub snapshots_installed: u64,
    /// Log compactions performed locally.
    pub compactions: u64,
    /// Client requests answered `NoQuorum` after the commit timeout.
    pub no_quorum_replies: u64,
    /// `Prepare` holds aborted by this replica at the hand-off deadline.
    pub handoff_expiries: u64,
    /// Messages suppressed by a partition fault injector.
    pub msgs_dropped_partition: u64,
    /// Messages dropped because the replica was down.
    pub dropped_while_down: u64,
    /// Times this replica rejoined the group.
    pub rejoins: u64,
    /// Stray messages of unknown type.
    pub dropped_msgs: u64,
}

impl Replica {
    /// Replica `idx` of a group whose first `voters` replicas vote,
    /// guarding a port of `capacity`. The group wires `peers` afterwards.
    pub(super) fn new(
        label: String,
        idx: usize,
        capacity: Bandwidth,
        voters: usize,
        cfg: GroupConfig,
    ) -> Self {
        let rng = StreamRng::new(cfg.seed, &format!("replica/{label}"));
        let state = CacState::new(capacity.bps(), PEAK_FACTOR).with_members(voters);
        Replica {
            label,
            idx,
            peers: Vec::new(),
            cfg,
            rng,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            snap_base: 0,
            snap_term: 0,
            role: Role::Follower,
            commit_index: 0,
            last_applied: 0,
            last_applied_term: 0,
            state,
            leader_hint: None,
            votes: 0,
            next_index: Vec::new(),
            match_index: Vec::new(),
            pending: BTreeMap::new(),
            election_nonce: 0,
            hb_nonce: 0,
            alive: true,
            crashed: false,
            link_faults: Vec::new(),
            client_fault: None,
            elections_started: 0,
            leader_terms: 0,
            entries_appended: 0,
            snapshots_sent: 0,
            snapshots_installed: 0,
            compactions: 0,
            no_quorum_replies: 0,
            handoff_expiries: 0,
            msgs_dropped_partition: 0,
            dropped_while_down: 0,
            rejoins: 0,
            dropped_msgs: 0,
        }
    }

    /// True while the replica participates in the protocol.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// True when this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest log index known committed.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// The applied CAC state.
    pub fn cac(&self) -> &CacState {
        &self.state
    }

    /// Byte-exact digest of the applied state (snapshot encoding).
    pub fn digest(&self) -> Vec<u8> {
        self.state.encode()
    }

    /// Role as a short display string.
    pub fn role_name(&self) -> &'static str {
        match self.role {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        }
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    /// Bitmask of voting member indices. An empty committed membership
    /// is the pre-reconfiguration sentinel: every built replica votes.
    fn member_mask(&self) -> u32 {
        if self.state.members().is_empty() {
            ((1u64 << self.n()) - 1) as u32
        } else {
            self.state.members().iter().fold(0u32, |m, &i| m | (1 << i))
        }
    }

    fn is_member(&self, j: usize) -> bool {
        self.member_mask() & (1 << j) != 0
    }

    fn majority(&self) -> u32 {
        self.member_mask().count_ones() / 2 + 1
    }

    fn last_index(&self) -> u64 {
        self.snap_base + self.log.len() as u64
    }

    fn last_term(&self) -> u64 {
        self.log.last().map(|e| e.term).unwrap_or(self.snap_term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == self.snap_base {
            self.snap_term
        } else if index == 0 || index < self.snap_base {
            0
        } else {
            self.log[(index - self.snap_base - 1) as usize].term
        }
    }

    fn send_peer(&mut self, ctx: &mut Ctx<'_>, j: usize, m: Msg) {
        let link = self.link_faults.get_mut(j).and_then(Option::as_mut);
        let cut = link.is_some_and(|inj| inj.judge(ctx.now()).is_some());
        self.send_unless(ctx, cut, self.peers[j], m);
    }

    fn send_client(&mut self, ctx: &mut Ctx<'_>, to: ComponentId, m: Msg) {
        let cut = self.client_fault.as_mut().is_some_and(|inj| inj.judge(ctx.now()).is_some());
        self.send_unless(ctx, cut, to, m);
    }

    /// Send `m` after the network delay, unless a partition has `cut`
    /// the link.
    fn send_unless(&mut self, ctx: &mut Ctx<'_>, cut: bool, to: ComponentId, m: Msg) {
        if cut {
            self.msgs_dropped_partition += 1;
        } else {
            ctx.send_in(NET_DELAY, to, m);
        }
    }

    /// Answer an Append or Snapshot from `to`. On success `match_hint`
    /// is this follower's new last replicated index; on failure its
    /// last index, so the leader can skip the next_index probe walk.
    fn reply_append(&mut self, ctx: &mut Ctx<'_>, to: usize, success: bool, match_hint: u64) {
        let reply = AppendReply { term: self.term, from: self.idx, success, match_hint };
        self.send_peer(ctx, to, msg(reply));
    }

    fn reply_client(&mut self, ctx: &mut Ctx<'_>, to: ComponentId, req: u64, result: ReplyResult) {
        self.send_client(ctx, to, msg(ClientReply { req, from: self.idx, result }));
    }

    /// Leader: put `cmd` on the own log, replicate it, and commit it if
    /// the own copy already is a majority.
    fn propose(&mut self, ctx: &mut Ctx<'_>, req: u64, cmd: Command) {
        self.log.push(LogEntry { term: self.term, req, cmd });
        self.entries_appended += 1;
        self.match_index[self.idx] = self.last_index();
        self.broadcast_append(ctx);
        self.try_advance_commit(ctx);
    }

    fn reset_election_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.election_nonce += 1;
        // Non-members (spare observers, retired replicas) never stand
        // for election; they still replicate as followers.
        if ctx.now() >= self.cfg.active_until || !self.is_member(self.idx) {
            return;
        }
        let min = ELECTION_MIN.as_secs_f64();
        let (lo, hi) = if self.idx == PREFERRED_LEADER {
            // Narrow, early band: the preferred replica fires first.
            (min * 0.5, min * 0.75)
        } else {
            (min, ELECTION_MAX.as_secs_f64())
        };
        let timeout = SimDuration::from_secs_f64(self.rng.uniform_in(lo, hi));
        ctx.timer_in(timeout, msg(ElectionTimeout { nonce: self.election_nonce }));
    }

    fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        self.hb_nonce += 1;
        if ctx.now() < self.cfg.active_until {
            ctx.timer_in(HEARTBEAT, msg(HeartbeatTick { nonce: self.hb_nonce }));
        }
    }

    /// Adopt `term` and fall back to follower. Contact from a legitimate
    /// leader (Append/Snapshot: `heard_leader`) restarts the election
    /// timer; a higher term seen in a vote or a reply does not. A
    /// replica returning from a link blip carries an inflated term but a
    /// stale log; its doomed candidacies must not keep resetting the
    /// timers of the electable majority, or no election ever completes.
    /// Only granting a vote or hearing a real leader earns a reset.
    fn step_down(&mut self, ctx: &mut Ctx<'_>, term: u64, heard_leader: bool) {
        let was_leader = self.role == Role::Leader;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        if was_leader {
            // Orphan pending clients: they will retry elsewhere.
            let pending = std::mem::take(&mut self.pending);
            for (req, client) in pending {
                self.reply_client(ctx, client, req, ReplyResult::NotLeader { hint: None });
            }
        }
        self.role = Role::Follower;
        self.hb_nonce += 1; // cancel any heartbeat timer

        // A deposed leader has no election timer running, so it always
        // re-arms; followers and candidates keep their pending timer
        // unless this step-down came from a legitimate leader.
        if heard_leader || was_leader {
            self.reset_election_timer(ctx);
        }
    }

    /// An Append or Snapshot arrived from `from` claiming leadership of
    /// `term`. A stale term is refused (`false`); otherwise this replica
    /// follows `from` and its election timer restarts.
    fn hear_leader(&mut self, ctx: &mut Ctx<'_>, term: u64, from: usize) -> bool {
        if term < self.term {
            self.reply_append(ctx, from, false, self.last_index());
            return false;
        }
        if term > self.term || self.role != Role::Follower {
            self.step_down(ctx, term, true);
        } else {
            self.reset_election_timer(ctx);
        }
        self.leader_hint = Some(from);
        true
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_member(self.idx) {
            return;
        }
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.idx);
        self.votes = 1 << self.idx;
        self.leader_hint = None;
        self.elections_started += 1;
        let (me, last_index, last_term) = (self.idx, self.last_index(), self.last_term());
        for j in (0..self.n()).filter(|&j| j != me) {
            let rv = RequestVote { term: self.term, from: me, last_index, last_term };
            self.send_peer(ctx, j, msg(rv));
        }
        self.reset_election_timer(ctx);
        if (self.votes & self.member_mask()).count_ones() >= self.majority() {
            // Single-member group: win immediately.
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Leader;
        self.leader_terms += 1;
        self.leader_hint = Some(self.idx);
        let last = self.last_index();
        self.next_index = vec![last + 1; self.n()];
        self.match_index = vec![0; self.n()];
        // Raft's no-op barrier: committing an entry of the new term is
        // the only way earlier-term entries may commit, and it truncates
        // stale uncommitted tails on healed minorities.
        self.propose(ctx, 0, Command::Noop);
        self.arm_heartbeat(ctx);
        // A new leader inherits the previous leader's unexpired holds:
        // re-arm their deadlines so an orphaned hand-off still aborts.
        if ctx.now() < self.cfg.active_until {
            let held: Vec<CallId> = self.state.pending.keys().copied().collect();
            for call in held {
                ctx.timer_in(HANDOFF_DEADLINE, msg(PendingExpiry { call }));
            }
        }
    }

    fn broadcast_append(&mut self, ctx: &mut Ctx<'_>) {
        for j in 0..self.n() {
            if j != self.idx {
                self.send_append_to(ctx, j);
            }
        }
    }

    fn send_append_to(&mut self, ctx: &mut Ctx<'_>, j: usize) {
        let next = self.next_index[j];
        if next <= self.snap_base {
            // The follower needs entries already folded into the
            // snapshot: ship the applied state instead (never behind the
            // snapshot base: compaction stops at `last_applied`).
            let snap = SnapshotMsg {
                term: self.term,
                from: self.idx,
                last_index: self.last_applied,
                last_term: self.last_applied_term,
                bytes: self.state.encode(),
            };
            self.snapshots_sent += 1;
            self.send_peer(ctx, j, msg(snap));
            return;
        }
        let prev_index = next - 1;
        let prev_term = self.term_at(prev_index);
        let from_pos = (next - self.snap_base - 1) as usize;
        let entries: Vec<LogEntry> = self.log[from_pos..].to_vec();
        let m = Append {
            term: self.term,
            from: self.idx,
            prev_index,
            prev_term,
            entries,
            commit: self.commit_index,
        };
        self.send_peer(ctx, j, msg(m));
    }

    fn try_advance_commit(&mut self, ctx: &mut Ctx<'_>) {
        if self.role != Role::Leader {
            return;
        }
        // Only voting members count toward commit; spare observers and
        // retired replicas replicate but never advance the quorum.
        let mask = self.member_mask();
        let mut matches: Vec<u64> =
            (0..self.n()).filter(|&j| mask & (1 << j) != 0).map(|j| self.match_index[j]).collect();
        matches.sort_unstable();
        let maj = self.majority() as usize;
        if matches.len() < maj {
            return;
        }
        // The index replicated on a majority is the majority-th from
        // the top of the sorted match vector.
        let candidate = matches[matches.len() - maj];
        // Only entries of the current term commit by counting
        // (Raft §5.4.2); earlier terms ride along.
        if candidate > self.commit_index && self.term_at(candidate) == self.term {
            self.commit_index = candidate;
            self.apply_committed(ctx);
        }
    }

    fn apply_committed(&mut self, ctx: &mut Ctx<'_>) {
        while self.last_applied < self.commit_index {
            let index = self.last_applied + 1;
            let pos = (index - self.snap_base - 1) as usize;
            let LogEntry { term, req, cmd } = self.log[pos].clone();
            let outcome = self.state.apply_cmd(req, &cmd);
            self.last_applied = index;
            self.last_applied_term = term;
            if self.role == Role::Leader && req != 0 {
                if let Some(client) = self.pending.remove(&req) {
                    self.reply_client(ctx, client, req, ReplyResult::Done(outcome));
                }
            }
            // Commit-time side effects (after the client reply, so a
            // self-removing leader still answers the request).
            match cmd {
                Command::Prepare { call, .. }
                    if self.role == Role::Leader
                        && outcome == CmdOutcome::Admitted
                        && ctx.now() < self.cfg.active_until =>
                {
                    ctx.timer_in(HANDOFF_DEADLINE, msg(PendingExpiry { call }));
                }
                Command::AddReplica { idx } if idx == self.idx => {
                    // Promoted from observer to voter: start electing.
                    self.reset_election_timer(ctx);
                }
                Command::RemoveReplica { idx } if idx == self.idx => {
                    // Retired: cancel any election timer; a retired
                    // leader abdicates so the remaining members elect.
                    self.election_nonce += 1;
                    if self.role == Role::Leader {
                        self.step_down(ctx, self.term, false);
                    }
                }
                _ => {}
            }
        }
        self.maybe_compact();
    }

    /// `self.state` now stands for everything up to entry `index` (of
    /// `term`): empty the log and move every position marker there.
    fn restart_log_at(&mut self, index: u64, term: u64) {
        self.log.clear();
        (self.snap_base, self.snap_term) = (index, term);
        (self.last_applied, self.last_applied_term) = (index, term);
        self.commit_index = index;
    }

    fn maybe_compact(&mut self) {
        if self.log.len() <= self.cfg.snapshot_threshold || self.last_applied <= self.snap_base {
            return;
        }
        let keep_from = (self.last_applied - self.snap_base) as usize;
        self.snap_term = self.term_at(self.last_applied);
        self.log.drain(..keep_from);
        self.snap_base = self.last_applied;
        self.compactions += 1;
    }
}

impl Component for Replica {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        // Lifecycle messages work regardless of liveness.
        if m.is::<ReplicaDown>() {
            let d = *downcast::<ReplicaDown>(m);
            self.alive = false;
            self.crashed |= d.wipe;
            return;
        } else if m.is::<ReplicaUp>() {
            let _ = downcast::<ReplicaUp>(m);
            if self.alive {
                return;
            }
            self.alive = true;
            self.rejoins += 1;
            if self.crashed {
                // A full crash loses durable state; the replica comes
                // back empty and is caught up by snapshot.
                self.crashed = false;
                self.term = 0;
                self.voted_for = None;
                self.state = self.state.reinstalled();
                self.restart_log_at(0, 0);
            }
            self.role = Role::Follower;
            self.pending.clear();
            self.reset_election_timer(ctx);
            return;
        } else if m.is::<BootReplica>() {
            let _ = downcast::<BootReplica>(m);
            self.reset_election_timer(ctx);
            return;
        }
        if !self.alive {
            self.dropped_while_down += 1;
            return;
        }

        if m.is::<ElectionTimeout>() {
            let t = *downcast::<ElectionTimeout>(m);
            if t.nonce != self.election_nonce || self.role == Role::Leader {
                return;
            }
            self.start_election(ctx);
        } else if m.is::<HeartbeatTick>() {
            let t = *downcast::<HeartbeatTick>(m);
            if t.nonce != self.hb_nonce || self.role != Role::Leader {
                return;
            }
            self.broadcast_append(ctx);
            self.arm_heartbeat(ctx);
        } else if m.is::<RequestVote>() {
            let rv = *downcast::<RequestVote>(m);
            if rv.term > self.term {
                self.step_down(ctx, rv.term, false);
            }
            let up_to_date = (rv.last_term, rv.last_index) >= (self.last_term(), self.last_index());
            let granted = rv.term == self.term
                && up_to_date
                && (self.voted_for.is_none() || self.voted_for == Some(rv.from));
            if granted {
                self.voted_for = Some(rv.from);
                self.reset_election_timer(ctx);
            }
            let reply = VoteReply { term: self.term, from: self.idx, granted };
            self.send_peer(ctx, rv.from, msg(reply));
        } else if m.is::<VoteReply>() {
            let vr = *downcast::<VoteReply>(m);
            if vr.term > self.term {
                self.step_down(ctx, vr.term, false);
                return;
            }
            if self.role != Role::Candidate || vr.term != self.term || !vr.granted {
                return;
            }
            self.votes |= 1 << vr.from;
            if (self.votes & self.member_mask()).count_ones() >= self.majority() {
                self.become_leader(ctx);
            }
        } else if m.is::<Append>() {
            let mut ap = *downcast::<Append>(m);
            if !self.hear_leader(ctx, ap.term, ap.from) {
                return;
            }
            // Entries at or below the snapshot base are already applied
            // here; drop them and move the prev pointer up.
            while ap.prev_index < self.snap_base && !ap.entries.is_empty() {
                ap.entries.remove(0);
                ap.prev_index += 1;
                ap.prev_term = self.term_at(ap.prev_index.min(self.snap_base));
            }
            if ap.prev_index < self.snap_base {
                ap.prev_index = self.snap_base;
                ap.prev_term = self.snap_term;
            }
            if ap.prev_index > self.last_index() || self.term_at(ap.prev_index) != ap.prev_term {
                let hint = self.last_index().min(ap.prev_index.saturating_sub(1));
                self.reply_append(ctx, ap.from, false, hint);
                return;
            }
            // Append, truncating on the first conflicting slot.
            let mut index = ap.prev_index;
            for entry in ap.entries {
                index += 1;
                let pos = (index - self.snap_base - 1) as usize;
                if self.log.get(pos).is_some_and(|have| have.term == entry.term) {
                    continue;
                }
                self.log.truncate(pos);
                self.log.push(entry);
                self.entries_appended += 1;
            }
            let new_match = index.max(self.snap_base);
            if ap.commit > self.commit_index {
                self.commit_index = ap.commit.min(new_match);
                self.apply_committed(ctx);
            }
            self.reply_append(ctx, ap.from, true, new_match);
        } else if m.is::<AppendReply>() {
            let ar = *downcast::<AppendReply>(m);
            if ar.term > self.term {
                self.step_down(ctx, ar.term, false);
                return;
            }
            if self.role != Role::Leader || ar.term != self.term {
                return;
            }
            if ar.success {
                self.match_index[ar.from] = self.match_index[ar.from].max(ar.match_hint);
                self.next_index[ar.from] = self.match_index[ar.from] + 1;
                self.try_advance_commit(ctx);
                if self.next_index[ar.from] <= self.last_index() {
                    self.send_append_to(ctx, ar.from);
                }
            } else {
                let next = self.next_index[ar.from];
                self.next_index[ar.from] = next.saturating_sub(1).min(ar.match_hint + 1).max(1);
                self.send_append_to(ctx, ar.from);
            }
        } else if m.is::<SnapshotMsg>() {
            let snap = *downcast::<SnapshotMsg>(m);
            if !self.hear_leader(ctx, snap.term, snap.from) {
                return;
            }
            if snap.last_index <= self.last_applied {
                // Already past this snapshot; report progress instead.
                self.reply_append(ctx, snap.from, true, self.last_applied);
                return;
            }
            if let Some(state) = CacState::decode(&snap.bytes) {
                self.state = state;
                self.restart_log_at(snap.last_index, snap.last_term);
                self.snapshots_installed += 1;
                self.reply_append(ctx, snap.from, true, snap.last_index);
            } else {
                self.dropped_msgs += 1;
            }
        } else if m.is::<ClientRequest>() {
            let cr = *downcast::<ClientRequest>(m);
            if self.role != Role::Leader {
                let hint = self.leader_hint.filter(|&h| h != self.idx);
                self.reply_client(ctx, cr.reply_to, cr.req, ReplyResult::NotLeader { hint });
                return;
            }
            // Exactly-once: an already-applied request returns its
            // recorded outcome; an in-flight one just re-registers the
            // client for the commit notification.
            if let Some(outcome) = self.state.recorded(cr.req) {
                self.reply_client(ctx, cr.reply_to, cr.req, ReplyResult::Done(outcome));
                return;
            }
            let in_log = self.log.iter().any(|e| e.req == cr.req);
            self.pending.insert(cr.req, cr.reply_to);
            if !in_log {
                self.propose(ctx, cr.req, cr.cmd);
            }
            if ctx.now() < self.cfg.active_until {
                ctx.timer_in(COMMIT_TIMEOUT, msg(CommitCheck { req: cr.req }));
            }
        } else if m.is::<PendingExpiry>() {
            let pe = *downcast::<PendingExpiry>(m);
            if self.role != Role::Leader || !self.state.pending.contains_key(&pe.call) {
                return;
            }
            // The confirm wave never reached this domain: release the
            // tentative hold through the log so every replica frees it.
            self.handoff_expiries += 1;
            self.propose(ctx, 0, Command::Abort { call: pe.call });
        } else if m.is::<CommitCheck>() {
            let cc = *downcast::<CommitCheck>(m);
            if self.role != Role::Leader {
                return;
            }
            if let Some(client) = self.pending.remove(&cc.req) {
                // Still uncommitted after the timeout: tell the client
                // no quorum is reachable so it can refuse cleanly.
                self.no_quorum_replies += 1;
                self.reply_client(ctx, client, cc.req, ReplyResult::NoQuorum);
            }
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use gtw_desim::Simulator;

    use super::*;

    /// A bare client: no signalling hop, just requests and replies.
    #[derive(Default)]
    struct Client {
        replies: Vec<(u64, usize, Option<CmdOutcome>)>,
    }

    impl Component for Client {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, m: Msg) {
            let r = *downcast::<ClientReply>(m);
            let done = match r.result {
                ReplyResult::Done(outcome) => Some(outcome),
                ReplyResult::NotLeader { .. } | ReplyResult::NoQuorum => None,
            };
            self.replies.push((r.req, r.from, done));
        }
    }

    #[test]
    fn the_core_commits_a_client_command_without_any_signalling_hop() {
        let mut sim = Simulator::new();
        let cfg = GroupConfig::new(5, SimTime::from_secs(2));
        let ids: Vec<ComponentId> = (0..3)
            .map(|i| {
                let r =
                    Replica::new(format!("r{i}"), i, Bandwidth::from_mbps(622.0), 3, cfg.clone());
                sim.add_component(r)
            })
            .collect();
        for &id in &ids {
            sim.component_mut::<Replica>(id).peers = ids.clone();
            sim.send_at(SimTime::ZERO, id, msg(BootReplica));
        }
        let client = sim.add_component(Client::default());
        let reserve = |call, mbps: f64| Command::Reserve {
            call: CallId(call),
            pcr_bits: (mbps * 1e6).to_bits(),
            scr_bits: (mbps * 1e6).to_bits(),
        };
        // Request 1 goes to a follower (redirect), 2 and 3 to the leader;
        // 3 is a retransmission of 2 and must not book twice; 4 overruns.
        let at = SimTime::from_secs(1);
        for (to, req, cmd) in [
            (1, 1, reserve(7, 100.0)),
            (0, 2, reserve(8, 400.0)),
            (0, 2, reserve(8, 400.0)),
            (0, 4, reserve(9, 400.0)),
        ] {
            sim.send_at(at, ids[to], msg(ClientRequest { req, cmd, reply_to: client }));
        }
        sim.run();
        let c = sim.component::<Client>(client);
        let mut replies = c.replies.clone();
        replies.sort_by_key(|&(req, ..)| req);
        assert!(
            matches!(
                replies[..],
                [
                    (1, 1, None),
                    (2, 0, Some(CmdOutcome::Admitted)),
                    (4, 0, Some(CmdOutcome::Rejected(_)))
                ]
            ),
            "one redirect, one admission for the retransmitted request, one refusal: {replies:?}"
        );
        for &id in &ids {
            let r = sim.component::<Replica>(id);
            assert_eq!(r.cac().committed_bps(), 400e6, "{}", r.name());
            assert_eq!(r.digest(), sim.component::<Replica>(ids[0]).digest());
        }
    }
}
