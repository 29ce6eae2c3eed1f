//! Point-to-point messaging: [`PointToPoint`] on both handle kinds.

use std::time::{Duration, Instant};

use super::{
    check_alive, deliver, infallible, local_rank, source_filter, Comm, InterComm, Wait,
    COLL_TAG_BASE,
};
use crate::envelope::{Envelope, Payload, Tag, ANY_SOURCE};
use crate::error::{CommError, CommResult};
use crate::mailbox::{ClaimOutcome, SrcFilter};
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

/// The checks every user-level send makes, on either communicator kind.
fn check_send(dst: usize, peers: usize, tag: Tag) {
    assert!(dst < peers, "destination {dst} out of range");
    assert!(tag.0 < COLL_TAG_BASE, "tag {tag:?} is in the reserved collective space");
}

/// Trace a completed receive of `env` and build its [`Status`].
fn received(universe: &UniverseInner, group: &[usize], env: Envelope) -> (Envelope, Status) {
    // Cannot fire: `env` was claimed through a `source_filter` over `group`.
    let source = local_rank(group, env.src).expect("the source filter admits group members only");
    universe.trace.record(env.dst, EventKind::Recv, Some(env.src), env.byte_len() as u64);
    let status = Status { source, tag: env.tag, bytes: env.byte_len() };
    (env, status)
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

impl Comm {
    /// Complete a user-level receive of `env`, however it was claimed:
    /// charged, traced, with its [`Status`].
    fn accept(&self, wait: Wait, env: Envelope) -> (Envelope, Status) {
        let (env, status) = received(&self.universe, &self.group, env);
        self.charge(wait, status.source, status.bytes as u64);
        (env, status)
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
}

impl PointToPoint for Comm {
    fn send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) {
        check_send(dst, self.size(), tag);
        infallible(self.post(Wait::Blocking, dst, tag, data));
    }

    fn recv_envelope(&self, src: usize, tag: Tag) -> (Envelope, Status) {
        let env = self.peers[self.my_local].claim(source_filter(&self.group, src), tag);
        self.accept(Wait::Blocking, env)
    }

    fn try_send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        check_send(dst, self.size(), tag);
        self.check_health()?;
        self.post(Wait::Guarded(None), dst, tag, data)
    }

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
            let peers_failed =
                || self.failed_ranks().iter().filter(|&&l| l != self.my_local).count();
            self.claim_guarded(from, tag, deadline, None, || peers_failed() == self.size() - 1)?
        } else {
            let lost = || self.universe.is_failed(self.group[src]).is_some();
            self.claim_guarded(from, tag, deadline, Some(src), lost)?
        };
        Ok(self.accept(Wait::Guarded(deadline), env))
    }
}

impl InterComm {
    /// Local indices of remote ranks declared failed, ascending.
    fn failed_remote_ranks(&self) -> Vec<usize> {
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
        infallible(deliver(&self.universe, &self.remote[dst], Wait::Blocking, dst, env));
    }

    fn recv_envelope(&self, src: usize, tag: Tag) -> (Envelope, Status) {
        let env = self.mailbox.claim(source_filter(&self.remote_group, src), tag);
        received(&self.universe, &self.remote_group, env)
    }

    fn try_send<T: Payload>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        let env = self.envelope(dst, tag, data);
        check_alive(&self.universe, self.my_global, self.my_global)?;
        deliver(&self.universe, &self.remote[dst], Wait::Guarded(None), dst, env)
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
        // A poisoned own mailbox aborts the claim too: this rank is the dead one.
        let dead = || self.universe.is_failed(self.my_global).is_some();
        match outcome {
            ClaimOutcome::Ready(env) => Ok(received(&self.universe, &self.remote_group, env)),
            ClaimOutcome::TimedOut => Err(CommError::Timeout),
            ClaimOutcome::Aborted if dead() => Err(CommError::RankFailed { rank: self.my_global }),
            ClaimOutcome::Aborted if src == ANY_SOURCE => Err(CommError::RankFailed {
                rank: self.failed_remote_ranks().first().copied().unwrap_or(0),
            }),
            ClaimOutcome::Aborted => Err(CommError::RankFailed { rank: src }),
        }
    }
}
