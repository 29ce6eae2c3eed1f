//! Deterministic time-ordered event queue.
//!
//! Events are ordered by [`EventKey`]: fire time, then originating
//! component, then that component's send counter. The key is a *total*
//! order that does not depend on which queue an event was pushed onto,
//! so the same scenario dispatches identically whether it runs on the
//! sequential kernel or partitioned across shards — this is what makes
//! whole simulations bit-for-bit reproducible across kernels, not just
//! across runs.
//!
//! The same key makes the queue a k-way merge instead of one big heap.
//! A source's send counter only grows, so the events one source
//! schedules with non-decreasing fire times already arrive in key order.
//! Each source therefore owns a *run* (run 0 for [`EXTERNAL_SRC`], run
//! `1 + src` for a component): the run's earliest entry sits in a small
//! binary heap tagged with the run, its followers wait in a `VecDeque`.
//!
//! **Run invariant:** the keys of a run — tagged heap entry first, then
//! the followers front to back — are strictly increasing.
//!
//! A push takes one of three arms:
//! 1. the run has its head in the heap and the key is above the run's
//!    tail: append to the followers (no heap work);
//! 2. the run is empty: push into the heap tagged with the run;
//! 3. otherwise (a source scheduling *earlier* than its own tail, e.g. a
//!    TCP sender's next segment after its far-future RTO timer, or a
//!    gateway's `GwTxDone` after a packet sent across the WAN): push into
//!    the same heap untagged, as a straggler outside any run.
//!
//! `pop` takes the heap top and, if it headed a run, replaces it in
//! place with the run's next follower. Every follower is larger than its
//! run's head and every head and straggler is in the heap, so the heap
//! top is the smallest pending key: pop order is exactly the `EventKey`
//! order, whatever the arms taken. Heap depth is "sources with something
//! pending + stragglers", not "events pending"; [`EventQueue::len`]
//! counts the followers too.
//!
//! Events injected from outside the component graph (scenario glue,
//! closures) carry the [`EXTERNAL_SRC`] source and a per-queue FIFO
//! counter, so external events scheduled for the same instant still pop
//! in scheduling order.

use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Source id used for events pushed from outside any component (scenario
/// setup, `Simulator::send_in`, closures). Sorts after every component
/// source at the same instant.
pub const EXTERNAL_SRC: u64 = u64::MAX;

/// The total order on events: fire time, then source component, then the
/// source's monotone send counter. Identical regardless of how the
/// simulation is partitioned into shards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Originating component index, or [`EXTERNAL_SRC`].
    pub src: u64,
    /// The source's send counter at scheduling time.
    pub seq: u64,
}

/// An entry popped from the queue.
#[derive(Debug)]
pub struct QueuedEvent<T> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Tie-break remainder of the key: `(source, send counter)`.
    pub src: u64,
    /// Scheduling order within the source.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

/// Run tag of a heap entry that belongs to no run.
const STRAGGLER: usize = usize::MAX;

struct HeapEntry<T> {
    key: EventKey,
    /// The run this entry heads, or [`STRAGGLER`].
    run: usize,
    payload: T,
}

/// One source's pending events in key order: the head lives in the heap
/// (tagged with this run's index), the rest here.
struct Run<T> {
    /// Largest key in the run; `None` while the run is empty (no head in
    /// the heap).
    tail: Option<EventKey>,
    followers: VecDeque<(EventKey, T)>,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// Min-queue of timed events ordered by [`EventKey`]: a merge of
/// per-source sorted runs (see the module docs).
pub struct EventQueue<T> {
    /// Run heads and stragglers.
    heap: BinaryHeap<HeapEntry<T>>,
    /// Run 0 is [`EXTERNAL_SRC`], run `1 + src` a component's.
    runs: Vec<Run<T>>,
    /// Pending events: heap entries plus every run's followers.
    len: usize,
    /// FIFO counter for externally pushed events.
    next_seq: u64,
    /// Total number of events ever pushed (keyed or external).
    pushed: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), runs: Vec::new(), len: 0, next_seq: 0, pushed: 0 }
    }

    /// Number of pending events (run followers included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at `time` from outside the component graph.
    /// External events are FIFO among equal times and sort after any
    /// component-sourced event at the same instant. Returns the FIFO
    /// sequence number assigned, which can be used for debugging/tracing.
    pub fn push(&mut self, time: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(EventKey { time, src: EXTERNAL_SRC, seq }, payload);
        seq
    }

    /// Schedule `payload` under an explicit key (component-sourced
    /// events; cross-shard arrivals re-inserted with their original key).
    pub fn push_keyed(&mut self, key: EventKey, payload: T) {
        self.pushed += 1;
        self.len += 1;
        // `EXTERNAL_SRC` is `u64::MAX` and wraps to run 0.
        let r = key.src.wrapping_add(1) as usize;
        if r >= self.runs.len() {
            self.runs.resize_with(r + 1, || Run { tail: None, followers: VecDeque::new() });
        }
        let run = &mut self.runs[r];
        match run.tail {
            Some(tail) if key > tail => {
                run.tail = Some(key);
                run.followers.push_back((key, payload));
            }
            Some(_) => self.heap.push(HeapEntry { key, run: STRAGGLER, payload }),
            None => {
                run.tail = Some(key);
                self.heap.push(HeapEntry { key, run: r, payload });
            }
        }
    }

    /// Pop the earliest event if `due` accepts its fire time. A popped
    /// run head is replaced in place by the run's next follower.
    #[inline]
    fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<QueuedEvent<T>> {
        let mut top = self.heap.peek_mut()?;
        if !due(top.key.time) {
            return None;
        }
        self.len -= 1;
        let r = top.run;
        // `STRAGGLER` indexes no run, so a straggler has no successor.
        let next = self.runs.get_mut(r).and_then(|run| {
            let next = run.followers.pop_front();
            if next.is_none() {
                run.tail = None;
            }
            next
        });
        let e = match next {
            Some((key, payload)) => {
                std::mem::replace(&mut *top, HeapEntry { key, run: r, payload })
            }
            None => PeekMut::pop(top),
        };
        Some(QueuedEvent { time: e.key.time, src: e.key.src, seq: e.key.seq, payload: e.payload })
    }

    /// Pop the earliest event (smallest key).
    pub fn pop(&mut self) -> Option<QueuedEvent<T>> {
        self.pop_if(|_| true)
    }

    /// Pop the earliest event only if it fires strictly before `horizon`.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<QueuedEvent<T>> {
        self.pop_if(|t| t < horizon)
    }

    /// Pop the earliest event only if it fires at or before `horizon`.
    pub(crate) fn pop_through(&mut self, horizon: SimTime) -> Option<QueuedEvent<T>> {
        self.pop_if(|t| t <= horizon)
    }

    /// Fire time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.time)
    }

    /// Remove and return every pending entry with its key, in no
    /// particular order (used when partitioning a wired simulation into
    /// shards).
    pub(crate) fn drain_entries(&mut self) -> Vec<(EventKey, T)> {
        let mut entries: Vec<_> = self.heap.drain().map(|e| (e.key, e.payload)).collect();
        for run in &mut self.runs {
            run.tail = None;
            entries.extend(run.followers.drain(..));
        }
        self.len = 0;
        entries
    }

    /// Restore the external FIFO counter (used when reassembling a
    /// simulator from shards).
    pub(crate) fn set_fifo_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// The external FIFO counter.
    pub(crate) fn fifo_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.pushed
    }

    /// Heap entries (run heads + stragglers), as opposed to `len()`.
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_order_is_time_then_source_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push_keyed(EventKey { time: t, src: 2, seq: 0 }, "c0");
        q.push_keyed(EventKey { time: t, src: 1, seq: 1 }, "b1");
        q.push_keyed(EventKey { time: t, src: 1, seq: 0 }, "b0");
        q.push(t, "ext"); // EXTERNAL_SRC sorts after all components.
        q.push_keyed(EventKey { time: SimTime::ZERO, src: 9, seq: 0 }, "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["early", "b0", "b1", "c0", "ext"]);
    }

    #[test]
    fn key_order_does_not_depend_on_push_order() {
        let keys: Vec<EventKey> = (0..24)
            .map(|i| EventKey {
                time: SimTime::from_nanos([5, 1, 5, 3][i % 4]),
                src: [0, 3, 1][i % 3],
                seq: i as u64,
            })
            .collect();
        let mut forward = EventQueue::new();
        let mut reverse = EventQueue::new();
        for &k in &keys {
            forward.push_keyed(k, k);
        }
        for &k in keys.iter().rev() {
            reverse.push_keyed(k, k);
        }
        for _ in 0..keys.len() {
            assert_eq!(forward.pop().unwrap().payload, reverse.pop().unwrap().payload);
        }
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop_before(SimTime::from_nanos(20)).unwrap().payload, "a");
        assert!(q.pop_before(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.pop_before(SimTime::from_nanos(21)).unwrap().payload, "b");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn in_order_pushes_keep_one_heap_entry_per_source() {
        // The structure must not decay back into one big heap: a source
        // scheduling in key order has exactly its head in the heap.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i / 3), i);
            assert_eq!(q.heap_len(), 1);
        }
        assert_eq!(q.len(), 10_000);
        // A second in-order source adds one entry, an out-of-order push
        // one straggler.
        q.push_keyed(EventKey { time: SimTime::from_nanos(5), src: 0, seq: 0 }, 0);
        q.push_keyed(EventKey { time: SimTime::from_nanos(9), src: 0, seq: 1 }, 0);
        assert_eq!(q.heap_len(), 2);
        q.push_keyed(EventKey { time: SimTime::from_nanos(7), src: 0, seq: 2 }, 0);
        assert_eq!(q.heap_len(), 3);
        let mut last = None;
        while let Some(e) = q.pop() {
            assert!(q.heap_len() <= 3);
            let key = (e.time, e.src, e.seq);
            assert!(last < Some(key), "{key:?} popped after {last:?}");
            last = Some(key);
        }
        assert_eq!(q.heap_len(), 0);
    }

    proptest::proptest! {
        /// Random pushes (four component sources and the external one,
        /// fire times rising, equal and falling so every push arm is
        /// taken), pops and drains behave exactly like an ordered map
        /// keyed by [`EventKey`].
        #[test]
        fn matches_an_ordered_map_model(
            ops in proptest::collection::vec((0u8..16, 0u64..5, 0u64..5, 0u64..400), 1..300),
        ) {
            use proptest::prelude::*;
            let keyed = |e: QueuedEvent<u32>| {
                (EventKey { time: e.time, src: e.src, seq: e.seq }, e.payload)
            };
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model: BTreeMap<EventKey, u32> = BTreeMap::new();
            // Last fire time and next send counter per source (4 = external).
            let mut cursor = [(100u64, 0u64); 5];
            let mut pushed = 0u64;
            for (id, &(op, src, step, horizon)) in ops.iter().enumerate() {
                let id = id as u32;
                match op {
                    0..=9 => {
                        let (last, seq) = &mut cursor[src as usize];
                        *last = match step {
                            0 => last.saturating_sub(7),
                            1 => *last,
                            s => *last + 3 * s,
                        };
                        let time = SimTime::from_nanos(*last);
                        let key = if src == 4 {
                            EventKey { time, src: EXTERNAL_SRC, seq: q.push(time, id) }
                        } else {
                            let key = EventKey { time, src, seq: *seq };
                            q.push_keyed(key, id);
                            key
                        };
                        *seq += 1;
                        pushed += 1;
                        prop_assert!(model.insert(key, id).is_none());
                    }
                    10..=12 => {
                        prop_assert_eq!(q.pop().map(keyed), model.pop_first());
                    }
                    13 | 14 => {
                        // 13: strictly before the horizon; 14: through it.
                        let horizon = SimTime::from_nanos(horizon);
                        let next = model.first_key_value().map(|(k, _)| k.time);
                        let (got, due) = if op == 13 {
                            (q.pop_before(horizon), next.is_some_and(|t| t < horizon))
                        } else {
                            (q.pop_through(horizon), next.is_some_and(|t| t <= horizon))
                        };
                        let want = if due { model.pop_first() } else { None };
                        prop_assert_eq!(got.map(keyed), want);
                    }
                    _ => {
                        // Every pending entry, run followers included,
                        // exactly once.
                        let mut drained = q.drain_entries();
                        drained.sort();
                        let want: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                        prop_assert_eq!(drained, want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.peek_time(), model.first_key_value().map(|(k, _)| k.time));
                prop_assert_eq!(q.scheduled_total(), pushed);
                prop_assert!(q.heap_len() <= q.len());
            }
        }
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }
}
