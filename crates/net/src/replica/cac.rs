//! The call-admission state machine: the command set, [`CacState`] and
//! its snapshot codec.
//!
//! This is the one place the SCR-then-PCR admission arithmetic lives
//! ([`CacState::fits`]). A plain
//! [`SignallingAgent`](crate::signaling::SignallingAgent) applies
//! [`Command`]s to its own `CacState` directly; a replicated hop applies
//! the same commands once a majority has logged them. Storage is
//! deterministic (`BTreeMap`, `f64::to_bits` bandwidths), so replicas
//! that applied the same command prefix hold byte-identical state and
//! divergence is detectable with `==` on [`CacState::encode`]. Nothing
//! here knows about messages, timers or the simulator.

use std::collections::{BTreeMap, BTreeSet};

use crate::signaling::{CallId, RejectCause, TrafficDescriptor};
use crate::units::Bandwidth;

/// A CAC command in the replicated log. Bandwidths travel as `to_bits`
/// so the entry (and the state it produces) is bit-exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Leader barrier appended on election; commits the new term.
    Noop,
    /// Admit `call` against the shared budgets.
    Reserve {
        /// The call requesting admission.
        call: CallId,
        /// Peak cell rate, `f64::to_bits`.
        pcr_bits: u64,
        /// Sustainable cell rate, `f64::to_bits`.
        scr_bits: u64,
    },
    /// Free the budget of a connected call.
    Release {
        /// The call being torn down.
        call: CallId,
    },
    /// Undo a tentative admission (rejected downstream or abandoned).
    Rollback {
        /// The call being rolled back.
        call: CallId,
    },
    /// First phase of a cross-domain hand-off: hold budget tentatively.
    /// The hold counts against both budgets but is not yet admitted; it
    /// is promoted by `Confirm`, dropped by `Abort`/`Rollback`, or
    /// reaped by the leader's hand-off deadline.
    Prepare {
        /// The call requesting a tentative hold.
        call: CallId,
        /// Peak cell rate, `f64::to_bits`.
        pcr_bits: u64,
        /// Sustainable cell rate, `f64::to_bits`.
        scr_bits: u64,
    },
    /// Second phase: promote a `Prepare` hold to an admitted call.
    /// Applying it to a call with no hold (expired, aborted) yields
    /// [`CmdOutcome::Stale`] so the confirmer can compensate.
    Confirm {
        /// The call being promoted.
        call: CallId,
    },
    /// Drop a `Prepare` hold without admitting. Appended by the leader
    /// itself (req 0) when a hold outlives the hand-off deadline.
    Abort {
        /// The call whose hold is released.
        call: CallId,
    },
    /// Client high-water mark: every request id at or below `up_to` is
    /// fully acknowledged, so its dedup entry can be dropped. Bounds the
    /// replicated `applied_reqs` table across long fault storms.
    AckApplied {
        /// Highest acknowledged request id.
        up_to: u64,
    },
    /// Live reconfiguration: replica `idx` becomes a voting member once
    /// this entry commits (it is caught up by snapshot/append before
    /// that, so it never gates quorum while stale).
    AddReplica {
        /// Index of the joining replica.
        idx: usize,
    },
    /// Live reconfiguration: replica `idx` stops being a voting member.
    /// A removed leader steps down when it applies its own removal; the
    /// retired replica keeps receiving the feed as a non-voting
    /// observer.
    RemoveReplica {
        /// Index of the retiring replica.
        idx: usize,
    },
    /// Record a gateway fail-over epoch in the replicated state. Applies
    /// only when strictly above the recorded epoch
    /// ([`CmdOutcome::Stale`] otherwise), so each committed epoch is
    /// granted to exactly one requester — the §4f split-brain fix.
    GatewayEpoch {
        /// The epoch announced by [`GatewayEpochUpdate`] or proposed by
        /// a [`GatewayEpochRequest`](crate::gateway::GatewayEpochRequest).
        epoch: u64,
    },
}

impl Command {
    /// Admit `call` under contract `td`.
    pub fn reserve(call: CallId, td: &TrafficDescriptor) -> Command {
        Command::Reserve {
            call,
            pcr_bits: td.pcr.bps().to_bits(),
            scr_bits: td.scr.bps().to_bits(),
        }
    }

    /// Hold budget for `call` under contract `td` until a `Confirm`.
    pub fn prepare(call: CallId, td: &TrafficDescriptor) -> Command {
        Command::Prepare {
            call,
            pcr_bits: td.pcr.bps().to_bits(),
            scr_bits: td.scr.bps().to_bits(),
        }
    }
}

/// What applying a command produced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CmdOutcome {
    /// A `Reserve` passed admission and the budget is now held.
    Admitted,
    /// A `Reserve` failed admission with this cause.
    Rejected(RejectCause),
    /// A non-admission command (noop/release/rollback/epoch) applied.
    Applied,
    /// The command arrived too late to take effect: a `Confirm` for a
    /// hold that expired, or a `GatewayEpoch` at or below the epoch
    /// already committed.
    Stale,
}

impl CmdOutcome {
    fn code(self) -> u8 {
        match self {
            CmdOutcome::Admitted => 0,
            CmdOutcome::Rejected(RejectCause::ScrExceeded) => 1,
            CmdOutcome::Rejected(RejectCause::PcrExceeded) => 2,
            CmdOutcome::Rejected(RejectCause::NoQuorum) => 3,
            CmdOutcome::Applied => 4,
            CmdOutcome::Stale => 5,
        }
    }

    fn from_code(code: u8) -> CmdOutcome {
        match code {
            0 => CmdOutcome::Admitted,
            1 => CmdOutcome::Rejected(RejectCause::ScrExceeded),
            2 => CmdOutcome::Rejected(RejectCause::PcrExceeded),
            3 => CmdOutcome::Rejected(RejectCause::NoQuorum),
            5 => CmdOutcome::Stale,
            _ => CmdOutcome::Applied,
        }
    }
}

/// The CAC state machine of one port: admitted calls, tentative holds
/// and the two budgets they count against. The sums add in call-id
/// order — f64 addition is not associative, and a budget must depend
/// neither on admission order nor on a hasher's seed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CacState {
    capacity_bits: u64,
    peak_factor_bits: u64,
    /// Admitted calls: `call -> (pcr_bits, scr_bits)`.
    pub admitted: BTreeMap<CallId, (u64, u64)>,
    /// Tentative `Prepare` holds awaiting `Confirm`: counted against
    /// both budgets, but not yet admitted.
    pub pending: BTreeMap<CallId, (u64, u64)>,
    /// Highest gateway fail-over epoch recorded in the log.
    pub gateway_epoch: u64,
    /// Total commands applied (including no-ops).
    pub applied_count: u64,
    /// Request-id dedup table: `req -> outcome code`. Replicated, so a
    /// retried command returns its original outcome on every replica.
    /// Bounded by `AckApplied` compaction: entries at or below
    /// `dedup_floor` are dropped (the client acknowledged them).
    applied_reqs: BTreeMap<u64, u8>,
    /// High-water mark of client-acknowledged request ids.
    dedup_floor: u64,
    /// Voting members by replica index. Empty means the pre-
    /// reconfiguration default: every built replica votes.
    members: BTreeSet<u32>,
}

impl CacState {
    /// Fresh state for a port of `capacity` with the given peak
    /// overbooking factor.
    pub fn new(capacity_bps: f64, peak_factor: f64) -> Self {
        CacState {
            capacity_bits: capacity_bps.to_bits(),
            peak_factor_bits: peak_factor.to_bits(),
            ..Default::default()
        }
    }

    /// The port capacity the SCR budget is checked against, bit/s.
    pub fn capacity_bps(&self) -> f64 {
        f64::from_bits(self.capacity_bits)
    }

    /// Sustained bandwidth currently committed, summed in call-id order.
    pub fn committed_bps(&self) -> f64 {
        self.admitted.values().map(|&(_, scr)| f64::from_bits(scr)).sum()
    }

    /// Peak bandwidth currently committed, summed in call-id order.
    pub fn committed_pcr_bps(&self) -> f64 {
        self.admitted.values().map(|&(pcr, _)| f64::from_bits(pcr)).sum()
    }

    /// The CAC decision for one more call of contract `td`, without
    /// admitting it: `Ok(())` when both budgets fit, otherwise the
    /// binding cause. Tentative holds count as in use. SCR is checked
    /// first, so for CBR (`pcr == scr`) at peak factor 1.0 the sustained
    /// budget is always the one reported.
    pub fn fits(&self, td: &TrafficDescriptor) -> Result<(), RejectCause> {
        self.fits_above(self.in_use(), td)
    }

    /// How many of `requested` virtual circuits of contract `td` would
    /// be admitted, stopping at the first that fails [`fits`](Self::fits)
    /// — a trial-admission loop, nothing is admitted. Drives the stream
    /// count of striped WAN transfers
    /// ([`adaptive_streams_with_cac`](crate::stripe::adaptive_streams_with_cac)):
    /// each stripe is one VC, so the aggregate must fit both budgets.
    pub fn admissible_streams(&self, td: &TrafficDescriptor, requested: usize) -> usize {
        let (mut scr, mut pcr) = self.in_use();
        let mut granted = 0;
        while granted < requested && self.fits_above((scr, pcr), td).is_ok() {
            scr += td.scr.bps();
            pcr += td.pcr.bps();
            granted += 1;
        }
        granted
    }

    /// `(scr, pcr)` bandwidth spoken for: admitted calls plus holds.
    fn in_use(&self) -> (f64, f64) {
        let held_scr: f64 = self.pending.values().map(|&(_, scr)| f64::from_bits(scr)).sum();
        let held_pcr: f64 = self.pending.values().map(|&(pcr, _)| f64::from_bits(pcr)).sum();
        (self.committed_bps() + held_scr, self.committed_pcr_bps() + held_pcr)
    }

    /// The admission arithmetic: does `td` fit on top of `(scr, pcr)`?
    fn fits_above(
        &self,
        (scr, pcr): (f64, f64),
        td: &TrafficDescriptor,
    ) -> Result<(), RejectCause> {
        let capacity = self.capacity_bps();
        let peak = capacity * f64::from_bits(self.peak_factor_bits);
        if scr + td.scr.bps() > capacity {
            Err(RejectCause::ScrExceeded)
        } else if pcr + td.pcr.bps() > peak {
            Err(RejectCause::PcrExceeded)
        } else {
            Ok(())
        }
    }

    /// High-water mark of client-acknowledged (compacted) request ids.
    pub fn dedup_floor(&self) -> u64 {
        self.dedup_floor
    }

    /// Entries currently held in the request-dedup table — bounded by
    /// the committed floor, the witness the compaction tests check.
    pub fn dedup_entries(&self) -> usize {
        self.applied_reqs.len()
    }

    /// Committed voting membership. Empty means "every built replica".
    pub fn members(&self) -> &BTreeSet<u32> {
        &self.members
    }

    /// Voting membership `0..n` installed at provisioning time.
    pub(super) fn with_members(mut self, n: usize) -> Self {
        self.members = (0..n as u32).collect();
        self
    }

    /// The state a wiped replica reinstalls with: nothing admitted or
    /// applied. Membership is provisioning config, not state, so it
    /// survives; changes committed since replay from the log or arrive
    /// with the snapshot.
    pub(super) fn reinstalled(&self) -> CacState {
        CacState {
            members: self.members.clone(),
            ..CacState::new(self.capacity_bps(), f64::from_bits(self.peak_factor_bits))
        }
    }

    /// The outcome already recorded for request `req`, if it was applied
    /// before. A request at or below the dedup floor was compacted away:
    /// the client already saw its outcome, so any answer works, and
    /// `Applied` keeps a late duplicate harmless.
    pub(super) fn recorded(&self, req: u64) -> Option<CmdOutcome> {
        if req == 0 {
            None
        } else if req <= self.dedup_floor {
            Some(CmdOutcome::Applied)
        } else {
            self.applied_reqs.get(&req).map(|&code| CmdOutcome::from_code(code))
        }
    }

    /// Apply one command; `req != 0` requests are deduplicated so a
    /// retransmitted command is exactly-once.
    pub fn apply_cmd(&mut self, req: u64, cmd: &Command) -> CmdOutcome {
        if let Some(outcome) = self.recorded(req) {
            return outcome;
        }
        let outcome = match *cmd {
            Command::Noop => CmdOutcome::Applied,
            Command::Reserve { call, pcr_bits, scr_bits } => {
                self.admit(call, pcr_bits, scr_bits, false)
            }
            // Idempotent: when the hold (or its promotion) already
            // exists, a retried Prepare changes nothing.
            Command::Prepare { call, .. }
                if self.admitted.contains_key(&call) || self.pending.contains_key(&call) =>
            {
                CmdOutcome::Admitted
            }
            Command::Prepare { call, pcr_bits, scr_bits } => {
                self.admit(call, pcr_bits, scr_bits, true)
            }
            Command::Confirm { call } => {
                if let Some(hold) = self.pending.remove(&call) {
                    self.admitted.insert(call, hold);
                    CmdOutcome::Applied
                } else if self.admitted.contains_key(&call) {
                    CmdOutcome::Applied
                } else {
                    // The hold expired (deadline Abort) before the
                    // confirm wave reached this domain.
                    CmdOutcome::Stale
                }
            }
            Command::Abort { call } => {
                self.pending.remove(&call);
                CmdOutcome::Applied
            }
            Command::Release { call } | Command::Rollback { call } => {
                self.admitted.remove(&call);
                self.pending.remove(&call);
                CmdOutcome::Applied
            }
            Command::AckApplied { up_to } => {
                self.dedup_floor = self.dedup_floor.max(up_to);
                let floor = self.dedup_floor;
                self.applied_reqs.retain(|&r, _| r > floor);
                CmdOutcome::Applied
            }
            Command::AddReplica { idx } => {
                self.members.insert(idx as u32);
                CmdOutcome::Applied
            }
            Command::RemoveReplica { idx } => {
                self.members.remove(&(idx as u32));
                CmdOutcome::Applied
            }
            Command::GatewayEpoch { epoch } => {
                if epoch > self.gateway_epoch {
                    self.gateway_epoch = epoch;
                    CmdOutcome::Applied
                } else {
                    CmdOutcome::Stale
                }
            }
        };
        if req != 0 {
            self.applied_reqs.insert(req, outcome.code());
        }
        self.applied_count += 1;
        outcome
    }

    /// Book `call` as admitted, or as a tentative hold, if its contract
    /// fits.
    fn admit(&mut self, call: CallId, pcr_bits: u64, scr_bits: u64, tentative: bool) -> CmdOutcome {
        let td = TrafficDescriptor {
            pcr: Bandwidth::from_bps(f64::from_bits(pcr_bits)),
            scr: Bandwidth::from_bps(f64::from_bits(scr_bits)),
        };
        match self.fits(&td) {
            Ok(()) => {
                let book = if tentative { &mut self.pending } else { &mut self.admitted };
                book.insert(call, (pcr_bits, scr_bits));
                CmdOutcome::Admitted
            }
            Err(cause) => CmdOutcome::Rejected(cause),
        }
    }

    /// Deterministic little-endian encoding — the snapshot wire format
    /// and the byte-identity witness the tests compare. Version 2 ends
    /// with an FNV-1a-32 checksum of everything before it, so a
    /// truncated or bit-flipped snapshot decodes to `None` rather than
    /// to a different valid state.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + 24 * (self.admitted.len() + self.pending.len()));
        out.extend_from_slice(b"GTWR");
        out.extend_from_slice(&2u16.to_le_bytes());
        out.extend_from_slice(&self.capacity_bits.to_le_bytes());
        out.extend_from_slice(&self.peak_factor_bits.to_le_bytes());
        out.extend_from_slice(&self.gateway_epoch.to_le_bytes());
        out.extend_from_slice(&self.applied_count.to_le_bytes());
        out.extend_from_slice(&self.dedup_floor.to_le_bytes());
        out.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for &m in &self.members {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for book in [&self.admitted, &self.pending] {
            out.extend_from_slice(&(book.len() as u32).to_le_bytes());
            for (&CallId(call), &(pcr, scr)) in book {
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&pcr.to_le_bytes());
                out.extend_from_slice(&scr.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.applied_reqs.len() as u32).to_le_bytes());
        for (&req, &code) in &self.applied_reqs {
            out.extend_from_slice(&req.to_le_bytes());
            out.push(code);
        }
        let sum = fnv1a32(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a snapshot produced by [`encode`](Self::encode). Accepts
    /// both the current v2 layout (checksummed) and legacy v1 bytes
    /// (no pending holds, no membership, no dedup floor).
    pub fn decode(bytes: &[u8]) -> Option<CacState> {
        struct Rd<'a>(&'a [u8]);
        impl Rd<'_> {
            fn take(&mut self, n: usize) -> Option<&[u8]> {
                if self.0.len() < n {
                    return None;
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Some(head)
            }
            fn u64(&mut self) -> Option<u64> {
                Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
            }
            fn u32(&mut self) -> Option<u32> {
                Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
            }
        }
        fn triples(rd: &mut Rd<'_>) -> Option<BTreeMap<CallId, (u64, u64)>> {
            let n = rd.u32()? as usize;
            let mut out = BTreeMap::new();
            for _ in 0..n {
                let call = CallId(rd.u64()?);
                let pcr = rd.u64()?;
                let scr = rd.u64()?;
                out.insert(call, (pcr, scr));
            }
            Some(out)
        }
        let version = u16::from_le_bytes(bytes.get(4..6)?.try_into().ok()?);
        let body = match version {
            1 => bytes,
            2 => {
                // The checksum covers everything before the trailing 4
                // bytes (there are at least 6: the version was read).
                let (body, sum) = bytes.split_at(bytes.len() - 4);
                if fnv1a32(body) != u32::from_le_bytes(sum.try_into().ok()?) {
                    return None;
                }
                body
            }
            _ => return None,
        };
        let mut rd = Rd(body);
        if rd.take(6)?.get(..4)? != b"GTWR" {
            return None;
        }
        let capacity_bits = rd.u64()?;
        let peak_factor_bits = rd.u64()?;
        let gateway_epoch = rd.u64()?;
        let applied_count = rd.u64()?;
        let mut dedup_floor = 0;
        let mut members = BTreeSet::new();
        if version >= 2 {
            dedup_floor = rd.u64()?;
            let n_members = rd.u32()? as usize;
            for _ in 0..n_members {
                members.insert(rd.u32()?);
            }
        }
        let admitted = triples(&mut rd)?;
        let pending = if version >= 2 { triples(&mut rd)? } else { BTreeMap::new() };
        let n_reqs = rd.u32()? as usize;
        let mut applied_reqs = BTreeMap::new();
        for _ in 0..n_reqs {
            let req = rd.u64()?;
            let code = *rd.take(1)?.first()?;
            applied_reqs.insert(req, code);
        }
        if !rd.0.is_empty() {
            return None;
        }
        Some(CacState {
            capacity_bits,
            peak_factor_bits,
            admitted,
            pending,
            gateway_epoch,
            applied_count,
            applied_reqs,
            dedup_floor,
            members,
        })
    }
}

/// FNV-1a 32-bit hash, used as the snapshot codec's trailing checksum.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 2166136261;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_counts_tentative_holds() {
        // `set_two_phase` is a runtime toggle, so one port can see a
        // Prepare hold and a plain Reserve interleaved: on 10 Gbit/s,
        // 8 held + 8 reserved must not both fit — else the Confirm
        // commits 16.
        let eight = TrafficDescriptor::cbr(Bandwidth::from_gbps(8.0));
        let mut st = CacState::new(10e9, 1.0);
        assert_eq!(st.apply_cmd(1, &Command::prepare(CallId(1), &eight)), CmdOutcome::Admitted);
        assert_eq!(
            st.apply_cmd(2, &Command::reserve(CallId(2), &eight)),
            CmdOutcome::Rejected(RejectCause::ScrExceeded)
        );
        assert_eq!(st.apply_cmd(3, &Command::Confirm { call: CallId(1) }), CmdOutcome::Applied);
        assert_eq!(st.committed_bps(), 8e9);
        // Once the hold is gone the same Reserve fits what is left.
        assert_eq!(st.apply_cmd(4, &Command::Release { call: CallId(1) }), CmdOutcome::Applied);
        assert_eq!(st.apply_cmd(5, &Command::reserve(CallId(2), &eight)), CmdOutcome::Admitted);
    }
}
