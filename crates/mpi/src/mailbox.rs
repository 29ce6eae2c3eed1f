//! Per-rank mailboxes with MPI-style `(source, tag)` matching.
//!
//! Each rank owns a mailbox; `post` is non-blocking (eager send), `claim`
//! blocks until a matching envelope is available. Matching follows MPI
//! semantics: messages from the same sender with the same tag are
//! non-overtaking (FIFO per (src, tag) pair — guaranteed here by scanning
//! the queue in arrival order); a wildcard ([`SrcFilter::Any`] or a
//! membership, [`ANY_TAG`]) matches the earliest arrival it admits.
//!
//! A post wakes claimers only when some are parked: the mailbox counts
//! them under the lock a post already holds, so the usual post — to a
//! rank that is computing, or about to look — costs no system call.
//!
//! For the failure-aware API a mailbox can additionally be **poisoned**
//! (its owner crashed: posts are silently dropped, queued messages are
//! discarded) and claimed with a deadline and an abort predicate
//! ([`Mailbox::claim_deadline`]) so a receive blocked on a dead peer
//! returns instead of hanging forever.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::envelope::{Envelope, Tag, ANY_TAG};

#[derive(Default)]
struct State {
    queue: VecDeque<Envelope>,
    poisoned: bool,
    /// Claimers waiting on `available` right now.
    parked: usize,
}

impl State {
    /// Queue position of the earliest envelope `src` and `tag` admit —
    /// the one matcher every claim and probe goes through.
    fn position(&self, src: SrcFilter<'_>, tag: Tag) -> Option<usize> {
        self.queue.iter().position(|e| src.admits(e.src) && (tag == ANY_TAG || e.tag == tag))
    }

    fn take(&mut self, src: SrcFilter<'_>, tag: Tag) -> Option<Envelope> {
        self.queue.remove(self.position(src, tag)?)
    }
}

#[derive(Default)]
struct Inner {
    state: Mutex<State>,
    available: Condvar,
}

/// A rank's receive mailbox. Cheap to clone (shared).
#[derive(Clone, Default)]
pub struct Mailbox {
    inner: Arc<Inner>,
}

/// Which senders a claim or probe admits.
///
/// `OneOf` restricts a wildcard receive to a known membership (the
/// communicator's global ids) so envelopes from other worlds — a spawned
/// child's, an attached peer's, a dead world's stale mail — stay queued
/// for the handle they belong to instead of being consumed by, and
/// tripping the membership invariant of, the wrong one.
#[derive(Clone, Copy, Debug)]
pub enum SrcFilter<'a> {
    /// Any sender.
    Any,
    /// Exactly one global id.
    Exact(usize),
    /// Any of the listed global ids.
    OneOf(&'a [usize]),
}

impl SrcFilter<'_> {
    fn admits(&self, src: usize) -> bool {
        match self {
            SrcFilter::Any => true,
            SrcFilter::Exact(s) => src == *s,
            SrcFilter::OneOf(set) => set.contains(&src),
        }
    }
}

/// Result of a deadline-bounded claim.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// A matching envelope arrived.
    Ready(Envelope),
    /// The deadline expired with no match.
    TimedOut,
    /// The abort predicate fired (peer declared failed, communicator
    /// revoked, or this mailbox itself was poisoned).
    Aborted,
}

/// Backstop wait so abort conditions raised without a matching
/// `notify` (e.g. a revocation flag flipped elsewhere) are observed
/// within a bounded delay.
const WAIT_BACKSTOP: Duration = Duration::from_millis(10);

impl Mailbox {
    /// New empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wait on `available` — until notified, or for at most `nap` —
    /// counted in `parked` while the lock is released. The count changes
    /// only under the lock, so a post that reads zero knows no claimer
    /// waits for what it queued: one that looked before it held the lock
    /// until it parked, and one that looks after finds the envelope.
    fn park(&self, st: &mut MutexGuard<'_, State>, nap: Option<Duration>) {
        st.parked += 1;
        match nap {
            Some(nap) => _ = self.inner.available.wait_for(st, nap),
            None => self.inner.available.wait(st),
        }
        st.parked -= 1;
    }

    /// Deposit an envelope (non-blocking, eager). Returns `false` if the
    /// mailbox is poisoned — the owner is dead and the message is
    /// silently dropped, like a WAN packet to a vanished host.
    pub fn post(&self, e: Envelope) -> bool {
        let mut st = self.inner.state.lock();
        if st.poisoned {
            return false;
        }
        st.queue.push_back(e);
        // All of them, not one: claimers park with different filters, and
        // the one woken might not be the one this envelope is for.
        if st.parked > 0 {
            self.inner.available.notify_all();
        }
        true
    }

    /// Mark the owner dead: discard queued messages, drop all future
    /// posts, and wake every blocked claimer.
    pub fn poison(&self) {
        let mut st = self.inner.state.lock();
        st.poisoned = true;
        st.queue.clear();
        self.inner.available.notify_all();
    }

    /// Whether the owner has been declared dead.
    pub fn is_poisoned(&self) -> bool {
        self.inner.state.lock().poisoned
    }

    /// Wake all blocked claimers so they re-evaluate abort conditions.
    pub fn wake(&self) {
        self.inner.available.notify_all();
    }

    /// Blocking receive of the earliest envelope `src` and `tag` admit.
    pub fn claim(&self, src: SrcFilter<'_>, tag: Tag) -> Envelope {
        let mut st = self.inner.state.lock();
        loop {
            if let Some(env) = st.take(src, tag) {
                return env;
            }
            self.park(&mut st, None);
        }
    }

    /// Deadline- and abort-aware receive: blocks until a matching
    /// envelope arrives ([`ClaimOutcome::Ready`]), `deadline` passes
    /// ([`ClaimOutcome::TimedOut`]), or `abort()` returns true / the
    /// mailbox is poisoned ([`ClaimOutcome::Aborted`]).
    ///
    /// `abort` is evaluated under the mailbox lock; it must not block on
    /// another mailbox.
    pub fn claim_deadline<F: Fn() -> bool>(
        &self,
        src: SrcFilter<'_>,
        tag: Tag,
        deadline: Option<Instant>,
        abort: F,
    ) -> ClaimOutcome {
        let mut st = self.inner.state.lock();
        loop {
            if let Some(env) = st.take(src, tag) {
                return ClaimOutcome::Ready(env);
            }
            if st.poisoned || abort() {
                return ClaimOutcome::Aborted;
            }
            let mut nap = WAIT_BACKSTOP;
            if let Some(d) = deadline {
                let now = Instant::now();
                if now >= d {
                    return ClaimOutcome::TimedOut;
                }
                nap = nap.min(d - now);
            }
            self.park(&mut st, Some(nap));
        }
    }

    /// Non-blocking probe: does a matching message exist?
    pub fn probe(&self, src: SrcFilter<'_>, tag: Tag) -> bool {
        self.inner.state.lock().position(src, tag).is_some()
    }

    /// Number of queued (unclaimed) envelopes.
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Claimers parked right now, for tests that must see one parked
    /// before they post.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.inner.state.lock().parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn env(src: usize, tag: u32, byte: u8) -> Envelope {
        Envelope::new(src, 0, Tag(tag), vec![byte])
    }

    fn byte(e: Envelope) -> u8 {
        e.payload::<u8>()[0]
    }

    fn ready(out: ClaimOutcome) -> Envelope {
        match out {
            ClaimOutcome::Ready(e) => e,
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    /// Spin until `n` claimers are seen parked on `mb`, instead of sleeping.
    fn until_parked(mb: &Mailbox, n: usize) {
        while mb.parked() != n {
            thread::yield_now();
        }
    }

    #[test]
    fn exact_match_fifo() {
        let mb = Mailbox::new();
        mb.post(env(1, 7, 10));
        mb.post(env(1, 7, 20));
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(7))), 10);
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(7))), 20);
        assert!(mb.is_empty());
    }

    #[test]
    fn tag_selectivity() {
        let mb = Mailbox::new();
        mb.post(env(1, 7, 10));
        mb.post(env(1, 8, 20));
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(8))), 20);
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(7))), 10);
    }

    #[test]
    fn source_selectivity_and_wildcards() {
        let mb = Mailbox::new();
        mb.post(env(2, 7, 22));
        mb.post(env(1, 7, 11));
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(7))), 11);
        assert_eq!(byte(mb.claim(SrcFilter::Any, ANY_TAG)), 22);
    }

    #[test]
    fn probe_matches_without_claiming() {
        let mb = Mailbox::new();
        assert!(!mb.probe(SrcFilter::Any, ANY_TAG));
        mb.post(env(3, 1, 5));
        assert!(mb.probe(SrcFilter::Exact(3), Tag(1)));
        assert!(!mb.probe(SrcFilter::Exact(3), Tag(2)));
        assert!(!mb.probe(SrcFilter::OneOf(&[1, 2]), ANY_TAG));
        assert_eq!(mb.len(), 1, "a probe leaves the envelope queued");
        assert_eq!(byte(mb.claim(SrcFilter::Exact(3), Tag(1))), 5);
    }

    /// Either kind of claimer, seen parked before the post that wakes it.
    #[test]
    fn blocking_claim_wakes_on_post() {
        for with_deadline in [false, true] {
            let mb = Mailbox::new();
            let mb2 = mb.clone();
            let h = thread::spawn(move || match with_deadline {
                false => mb2.claim(SrcFilter::Any, Tag(9)),
                true => {
                    ready(mb2.claim_deadline(SrcFilter::OneOf(&[4, 5]), Tag(9), None, || false))
                }
            });
            until_parked(&mb, 1);
            mb.post(env(5, 9, 42));
            assert_eq!(byte(h.join().unwrap()), 42);
            assert_eq!(mb.parked(), 0);
        }
    }

    #[test]
    fn a_post_with_nobody_parked_is_found_by_the_next_claim() {
        let mb = Mailbox::new();
        mb.post(env(1, 1, 7));
        assert_eq!(mb.parked(), 0); // so no notify was sent; the claim looks first
        assert_eq!(byte(mb.claim(SrcFilter::Exact(1), Tag(1))), 7);
        mb.post(env(1, 1, 8));
        assert_eq!(byte(ready(mb.claim_deadline(SrcFilter::Exact(1), Tag(1), None, || false))), 8);
    }

    /// Why a post is `notify_all`: `notify_one` could wake the claimer the
    /// first post is not for, which parks again while the other sleeps on.
    #[test]
    fn claimers_with_different_filters_are_both_served() {
        let mb = Mailbox::new();
        let claimers: Vec<_> = [(1usize, 1u32), (2, 2)]
            .into_iter()
            .map(|(src, tag)| {
                let mb = mb.clone();
                thread::spawn(move || byte(mb.claim(SrcFilter::Exact(src), Tag(tag))))
            })
            .collect();
        until_parked(&mb, 2);
        mb.post(env(2, 2, 22));
        mb.post(env(1, 1, 11));
        let got: Vec<u8> = claimers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, [11, 22]);
        assert_eq!(mb.parked(), 0);
    }

    #[test]
    fn non_overtaking_per_src_tag() {
        let mb = Mailbox::new();
        for i in 0..50u8 {
            mb.post(env(1, 3, i));
        }
        for i in 0..50u8 {
            assert_eq!(byte(mb.claim(SrcFilter::Any, Tag(3))), i);
        }
    }

    #[test]
    fn poisoned_mailbox_drops_posts_and_aborts_claims() {
        let mb = Mailbox::new();
        mb.post(env(1, 1, 9));
        let mb2 = mb.clone();
        let claim = move || mb2.claim_deadline(SrcFilter::Exact(2), ANY_TAG, None, || false);
        let parked = thread::spawn(claim.clone());
        until_parked(&mb, 1);
        mb.poison();
        assert!(matches!(parked.join().unwrap(), ClaimOutcome::Aborted), "poison wakes claimers");
        assert!(mb.is_poisoned());
        assert!(mb.is_empty(), "poisoning discards queued mail");
        assert!(!mb.post(env(1, 1, 10)), "posts to the dead are dropped");
        assert!(mb.is_empty());
        assert!(matches!(claim(), ClaimOutcome::Aborted), "and later claims abort at once");
    }

    #[test]
    fn claim_deadline_times_out() {
        let mb = Mailbox::new();
        let start = Instant::now();
        let out = mb.claim_deadline(
            SrcFilter::Any,
            ANY_TAG,
            Some(Instant::now() + Duration::from_millis(30)),
            || false,
        );
        assert!(matches!(out, ClaimOutcome::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(mb.parked(), 0);
    }

    #[test]
    fn claim_deadline_observes_late_abort() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mb = Mailbox::new();
        let flag = Arc::new(AtomicBool::new(false));
        let (mb2, flag2) = (mb.clone(), Arc::clone(&flag));
        let h = thread::spawn(move || {
            mb2.claim_deadline(SrcFilter::Any, ANY_TAG, None, || flag2.load(Ordering::Relaxed))
        });
        until_parked(&mb, 1);
        flag.store(true, Ordering::Relaxed);
        mb.wake();
        assert!(matches!(h.join().unwrap(), ClaimOutcome::Aborted));
    }

    #[test]
    fn one_of_filter_skips_foreign_mail() {
        let mb = Mailbox::new();
        mb.post(env(9, 4, 90)); // from outside the membership
        mb.post(env(2, 4, 20));
        let members = [1usize, 2, 3];
        let e = ready(mb.claim_deadline(SrcFilter::OneOf(&members), Tag(4), None, || false));
        assert_eq!((e.src, byte(e)), (2, 20));
        assert_eq!(mb.len(), 1, "the foreign envelope stays queued");
    }
}
