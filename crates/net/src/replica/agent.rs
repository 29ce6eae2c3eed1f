//! The replicated signalling hop: [`ReplicatedAgent`] fronts a replica
//! group as one hop of the SETUP/CONNECT/REJECT/RELEASE protocol.
//!
//! What a hop does once a decision is known is the shared walk on the
//! messages in [`signaling`](crate::signaling). This file holds only
//! what deciding *through a log* adds: the table of requests in flight,
//! the chase after the current leader, retry and deadline, the
//! two-phase confirm wave of the cross-domain hand-off, and the gateway
//! epoch grants.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use gtw_desim::component::{downcast, msg};
use gtw_desim::fault::FaultInjector;
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime};

use super::cac::{CmdOutcome, Command};
use super::raft::{ClientReply, ClientRequest, ReplyResult, NET_DELAY};
use crate::gateway::{GatewayEpochGrant, GatewayEpochRequest};
use crate::signaling::{CallId, Connect, RejectCause, Release, Setup, HOP_LATENCY, PROCESSING};

/// What this hop spends on one signalling message: processing plus
/// propagation to the next hop, as at a plain agent.
const HOP_DELAY: SimDuration =
    SimDuration::from_nanos(PROCESSING.as_nanos() + HOP_LATENCY.as_nanos());
/// Client retry backoff before re-issuing to the next replica.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(25);

/// Ask a group (addressed to its proxy) to commit a membership change
/// making replica `idx` a voter. The joiner has been fed appends and
/// snapshots as an observer since boot, so it is caught up before its
/// vote ever counts.
pub struct AddMember(pub usize);

/// Ask a group (addressed to its proxy) to retire replica `idx` from
/// voting; it keeps replicating as an observer.
pub struct RemoveMember(pub usize);

/// Per-request retry timer; the nonce invalidates timers superseded by
/// an immediate redirect re-issue.
struct RetryReq {
    req: u64,
    nonce: u64,
}

/// What a pending client request is for.
enum PendingKind {
    /// A SETUP hop decision: continue the hop-by-hop protocol once the
    /// replicated CAC answers.
    Setup(Box<Setup>),
    /// A hand-off `Confirm`: forward the CONNECT walk-back once the
    /// promotion commits, or unwind every hop on failure.
    Confirm(Box<Connect>),
    /// A gateway epoch proposal awaiting its committed verdict.
    Epoch {
        /// The requesting gateway pair.
        pair: ComponentId,
        /// The epoch it proposed.
        epoch: u64,
    },
    /// Fire-and-forget bookkeeping (release/rollback/membership/ack).
    Fire,
}

struct PendingReq {
    cmd: Command,
    kind: PendingKind,
    deadline: SimTime,
    target: usize,
    nonce: u64,
}

/// Drop-in signalling hop backed by a [`ReplicaGroup`](super::ReplicaGroup): speaks the
/// SETUP/CONNECT/REJECT/RELEASE protocol of
/// [`SignallingAgent`](crate::signaling::SignallingAgent), but routes
/// every admission decision through the replicated log — finding the
/// leader, retrying through elections, and refusing with
/// [`RejectCause::NoQuorum`] when the majority is unreachable.
#[derive(Default)]
pub struct ReplicatedAgent {
    label: String,
    replicas: Vec<ComponentId>,
    request_deadline: SimDuration,
    leader_hint: usize,
    req_seq: u64,
    nonce_seq: u64,
    pending: BTreeMap<u64, PendingReq>,
    /// Calls released while their Reserve was still in flight; the
    /// release fires as soon as the admission answer lands.
    pending_release: BTreeSet<CallId>,
    pub(super) link_faults: Vec<Option<FaultInjector>>,
    /// Two-phase mode: SETUPs take a `Prepare` hold and the CONNECT
    /// walk-back promotes each hop with `Confirm` — the cross-domain
    /// hand-off protocol. Off by default (single-domain `Reserve`).
    pub(super) two_phase: bool,
    /// Calls this hop holds a committed `Prepare` for, awaiting the
    /// confirm wave.
    prepared: BTreeSet<CallId>,
    /// Requests fully completed (reply consumed) since boot.
    completed_reqs: u64,
    /// Highest dedup floor already acknowledged through the log.
    acked_floor: u64,

    /// Calls admitted by the replicated CAC.
    pub calls_admitted: u64,
    /// Calls refused (all causes).
    pub calls_refused: u64,
    /// Refusals on the sustained-rate budget.
    pub refused_scr: u64,
    /// Refusals on the peak-rate budget.
    pub refused_pcr: u64,
    /// Refusals because no quorum answered before the deadline.
    pub refused_no_quorum: u64,
    /// `NotLeader` redirects followed.
    pub redirects: u64,
    /// Timer-driven retries (backoff expiry, replica rotation).
    pub retries: u64,
    /// `NoQuorum` replies received from a leader.
    pub no_quorum_replies: u64,
    /// Times the observed leader changed between successful requests.
    pub leader_switches: u64,
    /// Replicated commands issued (including retransmissions).
    pub commands_sent: u64,
    /// Fire-and-forget commands abandoned at their deadline.
    pub cleanup_abandoned: u64,
    /// Hand-off holds promoted to admissions at this hop.
    pub handoffs_confirmed: u64,
    /// Hand-off confirms that failed (hold expired or no quorum).
    pub handoffs_aborted: u64,
    /// Gateway epoch proposals this domain granted.
    pub epoch_grants: u64,
    /// Gateway epoch proposals refused as stale.
    pub epoch_refusals: u64,
    /// Dedup-compaction acknowledgements committed through the log.
    pub dedup_acks_sent: u64,
    /// Membership changes refused for naming a replica not in the group.
    pub membership_refused: u64,
    /// Messages suppressed by a partition fault injector.
    pub msgs_dropped_partition: u64,
    /// Replies for requests no longer pending (late duplicates).
    pub stale_replies: u64,
    /// Stray messages of unknown type.
    pub dropped_msgs: u64,
    last_ok_replica: Option<usize>,
}

impl ReplicatedAgent {
    pub(super) fn new(
        label: String,
        replicas: Vec<ComponentId>,
        request_deadline: SimDuration,
    ) -> Self {
        ReplicatedAgent {
            label,
            link_faults: (0..replicas.len()).map(|_| None).collect(),
            replicas,
            request_deadline,
            ..Default::default()
        }
    }

    fn start_request(&mut self, ctx: &mut Ctx<'_>, cmd: Command, kind: PendingKind) {
        self.req_seq += 1;
        let req = self.req_seq;
        self.nonce_seq += 1;
        let pr = PendingReq {
            cmd,
            kind,
            deadline: ctx.now() + self.request_deadline,
            target: self.leader_hint,
            nonce: self.nonce_seq,
        };
        self.pending.insert(req, pr);
        self.issue(ctx, req);
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(&PendingReq { target, cmd, nonce, .. }) = self.pending.get(&req) else {
            return;
        };
        self.commands_sent += 1;
        let now = ctx.now();
        let reply_to = ctx.self_id();
        let blocked = match self.link_faults.get_mut(target) {
            Some(Some(inj)) => inj.judge(now).is_some(),
            _ => false,
        };
        if blocked {
            self.msgs_dropped_partition += 1;
        } else {
            let to = self.replicas[target];
            ctx.send_in(NET_DELAY, to, msg(ClientRequest { req, cmd, reply_to }));
        }
        ctx.timer_in(RETRY_BACKOFF, msg(RetryReq { req, nonce }));
    }

    /// The replicated CAC admitted: continue the walk. In two-phase
    /// mode the last hop starts the confirm wave instead of the CONNECT:
    /// its own hold is promoted first, and the CONNECT then promotes
    /// each upstream hop on its way back to the origin.
    fn setup_admitted(&mut self, ctx: &mut Ctx<'_>, s: Setup) {
        let call = s.call;
        match s.admitted(ctx, HOP_DELAY) {
            Some(c) if self.two_phase => self.start_request(
                ctx,
                Command::Confirm { call },
                PendingKind::Confirm(Box::new(c)),
            ),
            Some(c) => c.walk_back(ctx, HOP_DELAY),
            None => {}
        }
    }

    fn setup_refused(&mut self, ctx: &mut Ctx<'_>, s: Setup, cause: RejectCause) {
        self.calls_refused += 1;
        match cause {
            RejectCause::ScrExceeded => self.refused_scr += 1,
            RejectCause::PcrExceeded => self.refused_pcr += 1,
            RejectCause::NoQuorum => self.refused_no_quorum += 1,
        }
        s.refused(ctx, HOP_DELAY, cause);
    }

    /// Queue a fire-and-forget command (release/rollback/membership/ack).
    fn fire(&mut self, ctx: &mut Ctx<'_>, cmd: Command) {
        self.start_request(ctx, cmd, PendingKind::Fire);
    }

    /// Commit a membership change unless it names no replica of the group
    /// (a voter that can never answer would only raise the quorum).
    fn change_members(&mut self, ctx: &mut Ctx<'_>, idx: usize, cmd: Command) {
        if idx < self.replicas.len() {
            self.fire(ctx, cmd);
        } else {
            self.membership_refused += 1;
        }
    }

    /// A confirm failed here (hold expired, or no quorum): unwind the
    /// hand-off and roll our own hold back.
    fn fail_handoff(&mut self, ctx: &mut Ctx<'_>, c: Connect) {
        self.calls_refused += 1;
        self.refused_no_quorum += 1;
        self.prepared.remove(&c.call);
        self.handoffs_aborted += 1;
        self.fire(ctx, Command::Rollback { call: c.call });
        c.unwind(ctx, HOP_DELAY, RejectCause::NoQuorum);
    }

    /// Per-client dedup compaction: once every 32 completed requests,
    /// commit the high-water mark below which every request has been
    /// fully acknowledged, so the replicated dedup table stays bounded.
    fn maybe_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.completed_reqs += 1;
        if !self.completed_reqs.is_multiple_of(32) {
            return;
        }
        let floor = match self.pending.keys().next() {
            Some(&min) => min - 1,
            None => self.req_seq,
        };
        if floor > self.acked_floor {
            self.acked_floor = floor;
            self.dedup_acks_sent += 1;
            self.fire(ctx, Command::AckApplied { up_to: floor });
        }
    }
}

impl Component for ReplicatedAgent {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if m.is::<Setup>() {
            let s = downcast::<Setup>(m);
            let cmd = if self.two_phase {
                Command::prepare(s.call, &s.td)
            } else {
                Command::reserve(s.call, &s.td)
            };
            self.start_request(ctx, cmd, PendingKind::Setup(s));
        } else if m.is::<ClientReply>() {
            let r = *downcast::<ClientReply>(m);
            let Entry::Occupied(mut pending) = self.pending.entry(r.req) else {
                self.stale_replies += 1;
                return;
            };
            match r.result {
                ReplyResult::Done(outcome) => {
                    if self.last_ok_replica.is_some_and(|prev| prev != r.from) {
                        self.leader_switches += 1;
                    }
                    self.last_ok_replica = Some(r.from);
                    self.leader_hint = r.from;
                    match pending.remove().kind {
                        PendingKind::Fire => {}
                        PendingKind::Setup(s) => match outcome {
                            CmdOutcome::Admitted | CmdOutcome::Applied => {
                                self.calls_admitted += 1;
                                if self.two_phase {
                                    self.prepared.insert(s.call);
                                }
                                if self.pending_release.remove(&s.call) {
                                    // Released while the Reserve was in
                                    // flight: free the budget again.
                                    self.fire(ctx, Command::Release { call: s.call });
                                }
                                self.setup_admitted(ctx, *s);
                            }
                            CmdOutcome::Rejected(cause) => self.setup_refused(ctx, *s, cause),
                            CmdOutcome::Stale => self.setup_refused(ctx, *s, RejectCause::NoQuorum),
                        },
                        PendingKind::Confirm(c) => match outcome {
                            CmdOutcome::Applied | CmdOutcome::Admitted => {
                                self.prepared.remove(&c.call);
                                self.handoffs_confirmed += 1;
                                let mut c = *c;
                                c.confirmed.push(ctx.self_id());
                                c.walk_back(ctx, HOP_DELAY);
                            }
                            // The hold expired before the confirm
                            // committed: unwind the whole hand-off.
                            CmdOutcome::Stale | CmdOutcome::Rejected(_) => {
                                self.fail_handoff(ctx, *c)
                            }
                        },
                        PendingKind::Epoch { pair, epoch } => {
                            let granted =
                                matches!(outcome, CmdOutcome::Applied | CmdOutcome::Admitted);
                            if granted {
                                self.epoch_grants += 1;
                            } else {
                                self.epoch_refusals += 1;
                            }
                            let grant = GatewayEpochGrant { epoch, granted };
                            ctx.send_in(NET_DELAY, pair, msg(grant));
                        }
                    }
                    self.maybe_ack(ctx);
                }
                ReplyResult::NotLeader { hint } => {
                    self.redirects += 1;
                    let p = pending.get_mut();
                    // No hint (election in progress), or the hint is the
                    // failing target: wait for the retry timer, which
                    // rotates to the next replica, instead of spinning.
                    if let Some(h) = hint.filter(|&h| h != p.target) {
                        p.target = h;
                        self.nonce_seq += 1;
                        p.nonce = self.nonce_seq;
                        self.issue(ctx, r.req);
                    }
                }
                ReplyResult::NoQuorum => {
                    self.no_quorum_replies += 1;
                    // Keep the request pending; the retry timer rotates
                    // or the deadline refuses it.
                }
            }
        } else if m.is::<RetryReq>() {
            let t = *downcast::<RetryReq>(m);
            let Entry::Occupied(mut pending) = self.pending.entry(t.req) else {
                return;
            };
            if pending.get().nonce != t.nonce {
                return;
            }
            if ctx.now() >= pending.get().deadline {
                match pending.remove().kind {
                    PendingKind::Setup(s) => {
                        // Refuse cleanly, and roll back in case the
                        // Reserve committed without the ack reaching us.
                        let call = s.call;
                        self.setup_refused(ctx, *s, RejectCause::NoQuorum);
                        self.fire(ctx, Command::Rollback { call });
                    }
                    // Our own domain lost quorum mid-confirm: the
                    // leader's hand-off deadline will reap the hold if
                    // the Confirm never committed; unwind now.
                    PendingKind::Confirm(c) => self.fail_handoff(ctx, *c),
                    PendingKind::Epoch { .. } | PendingKind::Fire => self.cleanup_abandoned += 1,
                }
                return;
            }
            self.retries += 1;
            let p = pending.get_mut();
            p.target = (p.target + 1) % self.replicas.len();
            self.nonce_seq += 1;
            p.nonce = self.nonce_seq;
            self.issue(ctx, t.req);
        } else if m.is::<Connect>() {
            let c = downcast::<Connect>(m);
            if self.two_phase && self.prepared.contains(&c.call) {
                // Promote our tentative hold through the log before
                // walking the CONNECT any further upstream.
                self.start_request(ctx, Command::Confirm { call: c.call }, PendingKind::Confirm(c));
            } else {
                c.walk_back(ctx, HOP_DELAY);
            }
        } else if m.is::<Release>() {
            let r = *downcast::<Release>(m);
            let in_flight = self
                .pending
                .values()
                .any(|p| matches!(&p.kind, PendingKind::Setup(s) if s.call == r.call));
            self.prepared.remove(&r.call);
            if in_flight {
                self.pending_release.insert(r.call);
            } else {
                self.fire(ctx, Command::Release { call: r.call });
            }
            r.relay(ctx, HOP_DELAY);
        } else if m.is::<GatewayEpochRequest>() {
            // A gateway pair asking this domain to commit a fail-over
            // epoch; the committed outcome decides the grant.
            let r = *downcast::<GatewayEpochRequest>(m);
            let dup = self.pending.values().any(
                |p| matches!(p.kind, PendingKind::Epoch { pair, epoch } if pair == r.pair && epoch == r.epoch),
            );
            if !dup {
                self.start_request(
                    ctx,
                    Command::GatewayEpoch { epoch: r.epoch },
                    PendingKind::Epoch { pair: r.pair, epoch: r.epoch },
                );
            }
        } else if m.is::<AddMember>() {
            let AddMember(idx) = *downcast::<AddMember>(m);
            self.change_members(ctx, idx, Command::AddReplica { idx });
        } else if m.is::<RemoveMember>() {
            let RemoveMember(idx) = *downcast::<RemoveMember>(m);
            self.change_members(ctx, idx, Command::RemoveReplica { idx });
        } else {
            self.dropped_msgs += 1;
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}
