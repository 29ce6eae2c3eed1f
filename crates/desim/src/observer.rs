//! The one observation handle: spans, scheduling counts and per-shard
//! kernel metrics behind a cloneable [`Observer`].
//!
//! Attach it with `observe(&observer)` on a [`Simulator`](crate::Simulator)
//! or a [`ShardedSimulator`](crate::ShardedSimulator). The kernel then
//! keeps a private buffer ([`ObsBuf`]) that [`Ctx`](crate::Ctx) lends to
//! every handler: a dispatch leaves a zero-length `dispatch` span on the
//! component's `name#slot` track, [`Ctx::span`](crate::Ctx::span) records
//! a component's own intervals, and every send and timer arm is counted
//! per component. Nothing takes a lock mid-run; the buffer is *published*
//! into the shared state when a run returns (`run_until`, `step`,
//! `into_simulator`). A [`disabled`](Observer::disabled) observer attaches
//! nothing, and the kernel's hooks are then one `None` branch each.
//!
//! ## Partition invariance
//!
//! A handler does the same thing whichever kernel runs it, so the *set*
//! of spans is partition-invariant; their *order* is made so at publish
//! time. The sequential kernel always pops the smallest pending key, and
//! within one instant what is pending for a shard's components does not
//! depend on the other shards (a same-instant cascade is shard-local, see
//! [`shard`](crate::shard)), so its order is the merge that keeps taking
//! the shard whose *next* event has the smallest key. That next event can
//! sort below one the shard has already run — a zero-delay send from a
//! high-numbered component to a low-numbered one — and is then run at
//! once, before any other shard's. So each buffered span is tagged not
//! with its own event's [`EventKey`] but with the largest key its kernel
//! had dispatched by then: tags never decrease within a buffer, tags of
//! different buffers never tie, and a stable sort of the buffers by tag
//! *is* the sequential recording order. Every buffer is a ring of the
//! observer's capacity, and the last N of the merge lie inside the union
//! of the shards' last N, so `snapshot()` and `dropped()` of an N-shard
//! run equal the sequential run's, overflow included.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use crate::component::ComponentId;
use crate::json::Json;
use crate::metrics::{CounterSeries, MetricsRegistry};
use crate::queue::EventKey;
use crate::span::{chrome_trace_with_counters, Span, DEFAULT_SPAN_CAPACITY};
use crate::time::SimTime;

/// A bounded ring that evicts its oldest entry when full — a flight
/// recorder, so observing a long run costs constant memory.
struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Entries evicted so far.
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring { items: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }
}

/// Per-component scheduling counts, indexed by component slot.
#[derive(Default)]
struct Counts {
    timers_armed: Vec<u64>,
    sends: Vec<u64>,
    calls: u64,
}

impl Counts {
    fn bump(v: &mut Vec<u64>, id: ComponentId) {
        if id.index() >= v.len() {
            v.resize(id.index() + 1, 0);
        }
        v[id.index()] += 1;
    }

    fn absorb(&mut self, other: Counts) {
        for (mine, theirs) in
            [(&mut self.timers_armed, other.timers_armed), (&mut self.sends, other.sends)]
        {
            if theirs.len() > mine.len() {
                mine.resize(theirs.len(), 0);
            }
            mine.iter_mut().zip(theirs).for_each(|(m, t)| *m += t);
        }
        self.calls += other.calls;
    }
}

/// What every clone of a recording observer shares.
struct Shared {
    ring: Ring<Span>,
    counts: Counts,
    registries: Vec<MetricsRegistry>,
}

/// The shareable observation handle (see the module docs). Cloning is
/// cheap and every clone reads and feeds one state.
#[derive(Clone, Default)]
pub struct Observer {
    inner: Option<Arc<Mutex<Shared>>>,
}

impl Observer {
    /// A recording observer with the default span-ring capacity.
    pub fn recording() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recording observer keeping at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        let shared =
            Shared { ring: Ring::new(capacity), counts: Counts::default(), registries: Vec::new() };
        Observer { inner: Some(Arc::new(Mutex::new(shared))) }
    }

    /// An observer that records nothing.
    pub fn disabled() -> Self {
        Observer { inner: None }
    }

    /// Whether this observer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The one lock site. Every update of [`Shared`] is a push or an add
    /// that leaves it valid at each step, so a guard poisoned by a
    /// component that panicked under observation is recovered: the
    /// recorder must not turn one panic into many.
    fn with<R>(&self, f: impl FnOnce(&mut Shared) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut inner.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Record a completed span directly, outside any simulator (setup
    /// code, wall-clock stages). No-op when disabled.
    pub fn record(&self, track: &str, name: &str, begin: SimTime, end: SimTime) {
        debug_assert!(end >= begin, "span ends before it begins");
        self.with(|s| s.ring.push(Span { track: track.into(), name: name.into(), begin, end }));
    }

    /// The spans held, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.with(|s| s.ring.items.iter().cloned().collect()).unwrap_or_default()
    }

    /// Spans evicted from the full ring so far.
    pub fn dropped(&self) -> u64 {
        self.with(|s| s.ring.dropped).unwrap_or(0)
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.with(|s| s.ring.items.len()).unwrap_or(0)
    }

    /// Whether no spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self-timers armed by `id` in the published runs.
    pub fn timers_armed_by(&self, id: ComponentId) -> u64 {
        self.with(|s| s.counts.timers_armed.get(id.index()).copied()).flatten().unwrap_or(0)
    }

    /// Messages scheduled by `id` from inside its handler, timers
    /// included.
    pub fn sends_by(&self, id: ComponentId) -> u64 {
        self.with(|s| s.counts.sends.get(id.index()).copied()).flatten().unwrap_or(0)
    }

    /// One-shot closure events run.
    pub fn calls(&self) -> u64 {
        self.with(|s| s.counts.calls).unwrap_or(0)
    }

    /// Every published kernel-metrics registry: one per shard of each
    /// sharded run, labelled `shard{i}`, in shard order. The sequential
    /// kernel has no shards and publishes none.
    pub fn registries(&self) -> Vec<MetricsRegistry> {
        self.with(|s| s.registries.clone()).unwrap_or_default()
    }

    /// All published counter tracks, registry by registry.
    pub fn counter_series(&self) -> Vec<CounterSeries> {
        self.registries().iter().flat_map(MetricsRegistry::counter_series).collect()
    }

    /// Chrome trace-event JSON: the span lanes, then whatever counter
    /// tracks were published.
    pub fn to_chrome_trace(&self) -> Json {
        chrome_trace_with_counters(self.snapshot().iter(), &self.counter_series())
    }

    /// Write the Chrome trace to `path` (pretty-printed JSON).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace().pretty())
    }

    /// Fold the buffers of one run's kernels (one, or one per shard) and
    /// the shards' registries into the shared state; the buffers are left
    /// empty, ready for the next run. The order is argued in the module
    /// docs.
    pub(crate) fn publish<'a>(
        &self,
        bufs: impl IntoIterator<Item = &'a mut ObsBuf>,
        registries: Vec<MetricsRegistry>,
    ) {
        self.with(|shared| {
            let mut spans: Vec<(EventKey, Span)> = Vec::new();
            for buf in bufs {
                shared.ring.dropped += std::mem::take(&mut buf.spans.dropped);
                shared.counts.absorb(std::mem::take(&mut buf.counts));
                spans.extend(buf.spans.items.drain(..));
            }
            spans.sort_by_key(|(tag, _)| *tag);
            for (_, span) in spans {
                shared.ring.push(span);
            }
            shared.registries.extend(registries);
        });
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer").field("enabled", &self.enabled()).finish()
    }
}

/// The kernel-side buffer of one kernel (or shard): what it has seen
/// since it last published. Lent to handlers through
/// [`Ctx`](crate::Ctx).
pub(crate) struct ObsBuf {
    /// Where this buffer publishes.
    pub(crate) observer: Observer,
    /// A ring of the observer's capacity; tags never decrease.
    spans: Ring<(EventKey, Span)>,
    /// The largest key dispatched so far: the tag of the next span.
    hi: EventKey,
    counts: Counts,
}

impl ObsBuf {
    /// A buffer publishing into `observer`; `None` when it is disabled.
    pub(crate) fn attach(observer: &Observer) -> Option<ObsBuf> {
        let capacity = observer.with(|s| s.ring.capacity)?;
        Some(ObsBuf {
            observer: observer.clone(),
            spans: Ring::new(capacity),
            hi: EventKey { time: SimTime::ZERO, src: 0, seq: 0 },
            counts: Counts::default(),
        })
    }

    /// The event under `key` is being dispatched to `target`.
    pub(crate) fn dispatched(&mut self, key: EventKey, target: ComponentId, name: &str) {
        self.hi = self.hi.max(key);
        self.span(&format!("{name}#{}", target.index()), "dispatch", key.time, key.time);
    }

    pub(crate) fn span(&mut self, track: &str, name: &str, begin: SimTime, end: SimTime) {
        debug_assert!(end >= begin, "span ends before it begins");
        self.spans.push((self.hi, Span { track: track.into(), name: name.into(), begin, end }));
    }

    /// `from` scheduled a message from inside its handler.
    pub(crate) fn sent(&mut self, from: ComponentId) {
        Counts::bump(&mut self.counts.sends, from);
    }

    /// `owner` armed a self-timer (which is also a send).
    pub(crate) fn timer_armed(&mut self, owner: ComponentId) {
        Counts::bump(&mut self.counts.timers_armed, owner);
        self.sent(owner);
    }

    /// A one-shot closure event ran.
    pub(crate) fn called(&mut self) {
        self.counts.calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{downcast, msg, Component, Ctx, Msg};
    use crate::time::SimDuration;
    use crate::Simulator;

    struct Pinger {
        peer: ComponentId,
        remaining: u32,
    }

    struct Ping;

    impl Component for Pinger {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let _ = downcast::<Ping>(m);
            if self.remaining > 0 {
                self.remaining -= 1;
                let peer = self.peer;
                ctx.send_in(SimDuration::from_millis(1), peer, msg(Ping));
                ctx.timer_in(SimDuration::from_millis(5), msg(Ping));
            }
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    fn pingers(remaining: u32) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let a = sim.add_component(Pinger { peer: ComponentId::placeholder(), remaining });
        let b = sim.add_component(Pinger { peer: a, remaining });
        sim.component_mut::<Pinger>(a).peer = b;
        sim.send_in(SimDuration::ZERO, a, msg(Ping));
        (sim, a, b)
    }

    #[test]
    fn counter_sees_dispatches_sends_and_timers() {
        let (mut sim, a, b) = pingers(3);
        let obs = Observer::recording();
        sim.observe(&obs);
        sim.run();
        // Each handled Ping with remaining>0 sends one message and arms
        // one timer; every dispatch left its span.
        assert_eq!(obs.sends_by(a), obs.timers_armed_by(a) * 2);
        assert_eq!(obs.sends_by(b), obs.timers_armed_by(b) * 2);
        assert_eq!(obs.timers_armed_by(a), 3);
        let dispatches = |id: ComponentId| {
            let track = format!("pinger#{}", id.index());
            obs.snapshot().iter().filter(|s| s.track == track && s.name == "dispatch").count()
        };
        assert_eq!(dispatches(a) as u64, sim.dispatches_to(a));
        assert_eq!(dispatches(b) as u64, sim.dispatches_to(b));
        assert_eq!(obs.len() as u64, sim.events_processed());
    }

    #[test]
    fn untraced_runs_match_traced_runs() {
        let (mut plain, _, _) = pingers(5);
        plain.run();
        let (mut traced, _, _) = pingers(5);
        traced.observe(&Observer::recording());
        traced.run();
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.events_processed(), traced.events_processed());
    }

    #[test]
    fn calls_counted() {
        let mut sim = Simulator::new();
        let obs = Observer::recording();
        sim.observe(&obs);
        sim.call_in(SimDuration::from_secs(1), |_| {});
        sim.call_in(SimDuration::from_secs(2), |_| {});
        sim.run();
        assert_eq!(obs.calls(), 2);
        assert_eq!(Observer::disabled().calls(), 0);
    }

    #[test]
    fn a_poisoned_observer_keeps_recording() {
        let obs = Observer::recording();
        let clone = obs.clone();
        let panicked = std::thread::spawn(move || {
            clone.with(|_| panic!("a component panics under observation"));
        })
        .join();
        assert!(panicked.is_err());
        obs.record("a", "x", SimTime::ZERO, SimTime::from_micros(1));
        assert_eq!(obs.snapshot().len(), 1);
        assert_eq!(obs.dropped(), 0);
    }
}
