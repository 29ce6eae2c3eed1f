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
//! `1 + src` for a component): a deque of pending events whose keys
//! strictly increase front to back, the front (the run's *head*) also
//! entered in a small binary heap. A push appends to its run if its key
//! is above the run's back (no heap work; an empty run also enters the
//! heap); a source scheduling *earlier* than its own back (a TCP
//! sender's next segment after its far-future RTO timer, a gateway's
//! `GwTxDone` after a packet sent across the WAN) enters the heap as a
//! straggler, its payload in a slab slot. `pop` takes the heap top: a
//! head's payload leaves its run's front and the top takes the new
//! front's key in place, a straggler's leaves its slot. Every run member
//! is above its head and every head and straggler is in the heap, so pop
//! order is exactly the `EventKey` order; heap depth is "sources with
//! something pending + stragglers", not "events pending".
//!
//! **The heap holds keys, not payloads.** An entry is 32 bytes: the key
//! packed into a `u128` that sorts like [`EventKey`] (`time << 64 | src <<
//! 40 | seq`, [`EXTERNAL_SRC`] as `0xFF_FFFF`) and where the payload waits
//! (a run index, or a slab slot's bitwise NOT), so a sift compares one
//! integer and a payload moves only in and out. The bounds cannot be
//! reached: `Simulator::add_boxed` refuses a component id that would
//! pack as `0xFF_FFFF`, and one source needs over 13 hours of ~45 ns
//! events to count to 2⁴⁰.
//!
//! **A run grows by whole buffers.** Its first buffer doubles up to
//! [`CHUNK`] events like any `VecDeque`; past that, each further
//! [`CHUNK`] events go into a buffer of their own, freed as soon as the
//! pops empty it. A run that doubled one buffer instead left the
//! buffers it outgrew (3 MiB, 1.5 MiB, …) free among the event boxes
//! pushed in between, and where the allocator placed the next large
//! blocks then depended on how many simulations the process had run
//! before: one process running the benchmark's 80 k-cell `atm_cells`
//! simulation over and over peaked anywhere between 22.5 and 28 MB RSS,
//! and peaks at 26.3 ± 0.1 MB with whole buffers.
//!
//! Events injected from outside the component graph (scenario glue,
//! closures) carry the [`EXTERNAL_SRC`] source and a per-queue FIFO
//! counter, so external events scheduled for the same instant still pop
//! in scheduling order.

use std::collections::VecDeque;

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

/// A packed key's send counter width and [`EXTERNAL_SRC`]'s packed
/// source, the 24 bits above it all ones.
const SEQ_BITS: u32 = 40;
const EXTERNAL_PACKED: u64 = 0xFF_FFFF;
/// Components a simulator may hold: their ids pack below `0xFF_FFFF`.
pub(crate) const MAX_COMPONENTS: usize = EXTERNAL_PACKED as usize;

impl EventKey {
    /// One integer that sorts like the key (module docs).
    fn pack(self) -> u128 {
        let src = if self.src == EXTERNAL_SRC { EXTERNAL_PACKED } else { self.src };
        debug_assert!(src < EXTERNAL_PACKED || self.src == EXTERNAL_SRC, "{self:?}: source");
        debug_assert!(self.seq < 1 << SEQ_BITS, "{self:?}: send counter");
        (self.time.as_nanos() as u128) << 64 | (src << SEQ_BITS | self.seq) as u128
    }

    fn unpack(key: u128) -> EventKey {
        let (time, src, seq) = ((key >> 64) as u64, key as u64 >> SEQ_BITS, key as u64);
        let src = if src == EXTERNAL_PACKED { EXTERNAL_SRC } else { src };
        EventKey { time: SimTime::from_nanos(time), src, seq: seq & ((1 << SEQ_BITS) - 1) }
    }
}

/// A run head's or a straggler's packed key, and where its payload
/// waits: run `at`, or slab slot `!at` (each indexes only its own table).
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    at: usize,
}

/// Most events one buffer of a run holds.
const CHUNK: usize = 4096;

/// One source's pending events, keys strictly increasing front to back:
/// the buffer pops take from, then the buffers behind it, each holding
/// [`CHUNK`] events but the last, which pushes fill.
struct Run<T> {
    front: VecDeque<(u128, T)>,
    rest: VecDeque<Vec<(u128, T)>>,
}

impl<T> Run<T> {
    fn new() -> Self {
        Run { front: VecDeque::new(), rest: VecDeque::new() }
    }

    /// The head's key.
    fn front_key(&self) -> Option<u128> {
        self.front.front().map(|&(key, _)| key)
    }

    fn back_key(&self) -> Option<u128> {
        match self.rest.back() {
            Some(buffer) => buffer.last().map(|&(key, _)| key),
            None => self.front.back().map(|&(key, _)| key),
        }
    }

    fn push_back(&mut self, event: (u128, T)) {
        match self.rest.back_mut() {
            Some(buffer) if buffer.len() < CHUNK => buffer.push(event),
            None if self.front.len() < CHUNK => self.front.push_back(event),
            _ => {
                let mut buffer = Vec::with_capacity(CHUNK);
                buffer.push(event);
                self.rest.push_back(buffer);
            }
        }
    }

    /// Take the head; the next buffer moves to the front once the front
    /// one is empty.
    fn pop_front(&mut self) -> Option<(u128, T)> {
        let head = self.front.pop_front();
        if self.front.is_empty() {
            if let Some(next) = self.rest.pop_front() {
                self.front = next.into();
            }
        }
        head
    }

    /// Every pending event, in key order.
    fn drain(&mut self) -> impl Iterator<Item = (u128, T)> + '_ {
        let rest = std::mem::take(&mut self.rest);
        self.front.drain(..).chain(rest.into_iter().flatten())
    }
}

/// Min-queue of timed events ordered by [`EventKey`]: a merge of
/// per-source sorted runs (see the module docs).
pub struct EventQueue<T> {
    /// Run heads and stragglers, a binary min-heap on `key`.
    heap: Vec<Entry>,
    /// Run 0 is [`EXTERNAL_SRC`], run `1 + src` a component's.
    runs: Vec<Run<T>>,
    /// Straggler payloads, the empty slots listed in `free`.
    stragglers: Vec<Option<T>>,
    free: Vec<usize>,
    /// Pending events: every run member and straggler.
    len: usize,
    /// FIFO counter for externally pushed events.
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            runs: Vec::new(),
            stragglers: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of pending events (every run member and straggler).
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
        self.len += 1;
        // `EXTERNAL_SRC` is `u64::MAX` and wraps to run 0.
        let r = key.src.wrapping_add(1) as usize;
        if r >= self.runs.len() {
            self.runs.resize_with(r + 1, Run::new);
        }
        let key = key.pack();
        let run = &mut self.runs[r];
        match run.back_key() {
            Some(back) if key > back => run.push_back((key, payload)),
            Some(_) => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.stragglers.push(None);
                    self.stragglers.len() - 1
                });
                self.stragglers[slot] = Some(payload);
                self.sift_up(Entry { key, at: !slot });
            }
            None => {
                run.push_back((key, payload));
                self.sift_up(Entry { key, at: r });
            }
        }
    }

    /// Pop the earliest event if `due` accepts its fire time.
    #[inline]
    fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<QueuedEvent<T>> {
        let top = *self.heap.first()?;
        let key = EventKey::unpack(top.key);
        if !due(key.time) {
            return None;
        }
        self.len -= 1;
        // The `expect`s cannot fire: a heap entry's payload is its run's
        // front or its slot's content until this pop takes it.
        let payload = match self.runs.get_mut(top.at) {
            Some(run) => {
                let (_, payload) = run.pop_front().expect("a run head is its run's front");
                match run.front_key() {
                    Some(next) => {
                        self.heap[0].key = next;
                        self.sift_down();
                    }
                    None => self.remove_top(),
                }
                payload
            }
            None => {
                self.free.push(!top.at);
                self.remove_top();
                self.stragglers[!top.at].take().expect("a straggler's slot holds it")
            }
        };
        Some(QueuedEvent { time: key.time, src: key.src, seq: key.seq, payload })
    }

    /// Insert `e` into the heap.
    fn sift_up(&mut self, e: Entry) {
        let mut i = self.heap.len();
        self.heap.push(e);
        while i > 0 && e.key < self.heap[(i - 1) / 2].key {
            self.heap[i] = self.heap[(i - 1) / 2];
            i = (i - 1) / 2;
        }
        self.heap[i] = e;
    }

    /// Restore the heap below the top, whose key has grown.
    fn sift_down(&mut self) {
        let (e, n) = (self.heap[0], self.heap.len());
        let (mut i, mut c) = (0, 1);
        while c < n {
            if c + 1 < n {
                // The smaller child, without a branch.
                c += (self.heap[c + 1].key < self.heap[c].key) as usize;
            }
            if e.key < self.heap[c].key {
                break;
            }
            self.heap[i] = self.heap[c];
            (i, c) = (c, 2 * c + 1);
        }
        self.heap[i] = e;
    }

    /// Drop the heap top.
    fn remove_top(&mut self) {
        // Never fires: both callers have just read the top they remove.
        let last = self.heap.pop().expect("the heap has a top");
        if let Some(top) = self.heap.first_mut() {
            *top = last;
            self.sift_down();
        }
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
        self.heap.first().map(|e| EventKey::unpack(e.key).time)
    }

    /// Remove and return every pending entry with its key, in no
    /// particular order (used when partitioning a wired simulation into
    /// shards).
    pub(crate) fn drain_entries(&mut self) -> Vec<(EventKey, T)> {
        let mut entries = Vec::with_capacity(self.len);
        for e in self.heap.drain(..) {
            // Run heads leave with their runs below. A straggler's slot
            // holds its payload until a pop takes it (`expect` never fires).
            if let Some(slot) = self.stragglers.get_mut(!e.at) {
                entries.push((EventKey::unpack(e.key), slot.take().expect("a straggler's slot")));
            }
        }
        for run in &mut self.runs {
            entries.extend(run.drain().map(|(key, payload)| (EventKey::unpack(key), payload)));
        }
        self.stragglers.clear();
        self.free.clear();
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

    /// Heap entries (run heads + stragglers), as opposed to `len()`.
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
/// The queue before keys were packed, kept as the reference model its
/// tests hold it to: one standard-library binary heap of run heads and
/// stragglers whose entries carry their payloads through every sift,
/// each run's followers in a `VecDeque` behind its head.
mod payload_heap {
    use super::{EventKey, QueuedEvent, EXTERNAL_SRC};
    use crate::time::SimTime;
    use std::collections::binary_heap::PeekMut;
    use std::collections::{BinaryHeap, VecDeque};

    const STRAGGLER: usize = usize::MAX;

    struct HeapEntry<T> {
        key: EventKey,
        run: usize,
        payload: T,
    }

    struct Run<T> {
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
            other.key.cmp(&self.key)
        }
    }

    pub struct EventQueue<T> {
        heap: BinaryHeap<HeapEntry<T>>,
        runs: Vec<Run<T>>,
        len: usize,
        next_seq: u64,
    }

    impl<T> EventQueue<T> {
        pub fn new() -> Self {
            EventQueue { heap: BinaryHeap::new(), runs: Vec::new(), len: 0, next_seq: 0 }
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn push(&mut self, time: SimTime, payload: T) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.push_keyed(EventKey { time, src: EXTERNAL_SRC, seq }, payload);
            seq
        }

        pub fn push_keyed(&mut self, key: EventKey, payload: T) {
            self.len += 1;
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

        fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<QueuedEvent<T>> {
            let mut top = self.heap.peek_mut()?;
            if !due(top.key.time) {
                return None;
            }
            self.len -= 1;
            let r = top.run;
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
            Some(QueuedEvent {
                time: e.key.time,
                src: e.key.src,
                seq: e.key.seq,
                payload: e.payload,
            })
        }

        pub fn pop(&mut self) -> Option<QueuedEvent<T>> {
            self.pop_if(|_| true)
        }

        pub fn pop_before(&mut self, horizon: SimTime) -> Option<QueuedEvent<T>> {
            self.pop_if(|t| t < horizon)
        }

        pub fn pop_through(&mut self, horizon: SimTime) -> Option<QueuedEvent<T>> {
            self.pop_if(|t| t <= horizon)
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.key.time)
        }

        pub fn drain_entries(&mut self) -> Vec<(EventKey, T)> {
            let mut entries: Vec<_> = self.heap.drain().map(|e| (e.key, e.payload)).collect();
            for run in &mut self.runs {
                run.tail = None;
                entries.extend(run.followers.drain(..));
            }
            self.len = 0;
            entries
        }
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
                prop_assert!(q.heap_len() <= q.len());
            }
        }
    }

    #[test]
    fn keys_pack_and_unpack_at_their_bounds() {
        let largest = MAX_COMPONENTS as u64 - 1;
        let keys = [
            EventKey { time: SimTime::ZERO, src: 0, seq: 0 },
            EventKey { time: SimTime::from_nanos(1), src: largest, seq: (1 << 40) - 1 },
            EventKey { time: SimTime::MAX, src: EXTERNAL_SRC, seq: (1 << 40) - 1 },
            EventKey { time: SimTime::MAX, src: largest, seq: 0 },
            EventKey { time: SimTime::MAX, src: 0, seq: (1 << 40) - 1 },
            EventKey { time: SimTime::from_nanos(7), src: EXTERNAL_SRC, seq: 0 },
        ];
        for &k in &keys {
            assert_eq!(EventKey::unpack(k.pack()), k);
        }
        assert_eq!(
            EventKey { time: SimTime::MAX, src: EXTERNAL_SRC, seq: (1 << 40) - 1 }.pack(),
            !0
        );
        // Packed keys sort like the keys themselves.
        for a in keys {
            for b in keys {
                assert_eq!(a.pack().cmp(&b.pack()), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    proptest::proptest! {
        /// Random interleavings of every push arm (appends, stragglers,
        /// new heads, equal instants, external pushes and keyed external
        /// re-inserts), horizon pops and drains — each drain re-pushed
        /// keyed, as a shard split does — pop exactly what the payload
        /// heap it replaced pops, key and payload.
        #[test]
        fn matches_the_payload_heap(
            ops in proptest::collection::vec((0u8..20, 0u64..6, 0u64..5, 0u64..400), 1..400),
        ) {
            use proptest::prelude::*;
            let keyed = |e: QueuedEvent<u32>| {
                (EventKey { time: e.time, src: e.src, seq: e.seq }, e.payload)
            };
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut reference: payload_heap::EventQueue<u32> = payload_heap::EventQueue::new();
            // Last fire time and next send counter per source: 0..4
            // components, 4 external FIFO, 5 keyed external (counters
            // near the 2^40 bound, above every FIFO number).
            let mut cursor = [(100u64, 0u64); 6];
            cursor[5].1 = (1 << 40) - 1_000;
            for (id, &(op, src, step, horizon)) in ops.iter().enumerate() {
                let id = id as u32;
                match op {
                    0..=11 => {
                        let (last, seq) = &mut cursor[src as usize];
                        *last = match step {
                            0 => last.saturating_sub(7),
                            1 => *last,
                            s => *last + 3 * s,
                        };
                        let time = SimTime::from_nanos(*last);
                        match src {
                            4 => prop_assert_eq!(q.push(time, id), reference.push(time, id)),
                            _ => {
                                let src = if src == 5 { EXTERNAL_SRC } else { src };
                                let key = EventKey { time, src, seq: *seq };
                                q.push_keyed(key, id);
                                reference.push_keyed(key, id);
                            }
                        }
                        *seq += 1;
                    }
                    12..=14 => prop_assert_eq!(q.pop().map(keyed), reference.pop().map(keyed)),
                    15 | 16 => {
                        let horizon = SimTime::from_nanos(horizon);
                        let (got, want) = if op == 15 {
                            (q.pop_before(horizon), reference.pop_before(horizon))
                        } else {
                            (q.pop_through(horizon), reference.pop_through(horizon))
                        };
                        prop_assert_eq!(got.map(keyed), want.map(keyed));
                    }
                    _ => {
                        let mut drained = q.drain_entries();
                        let mut want = reference.drain_entries();
                        drained.sort();
                        want.sort();
                        prop_assert_eq!(&drained, &want);
                        if op != 19 {
                            for (key, payload) in drained {
                                q.push_keyed(key, payload);
                                reference.push_keyed(key, payload);
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.peek_time());
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop().map(keyed), Some(keyed(want)));
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn long_runs_fill_whole_buffers_and_pop_like_the_payload_heap() {
        // Two sources, one keyed and the external one, each several
        // buffers long; pops, a drain and its re-push in between.
        let keyed =
            |e: QueuedEvent<u32>| (EventKey { time: e.time, src: e.src, seq: e.seq }, e.payload);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut reference: payload_heap::EventQueue<u32> = payload_heap::EventQueue::new();
        let n = 3 * CHUNK as u32 + 5;
        for i in 0..n {
            let key =
                EventKey { time: SimTime::from_nanos(u64::from(i) * 10), src: 7, seq: i.into() };
            q.push_keyed(key, i);
            reference.push_keyed(key, i);
            let time = SimTime::from_nanos(u64::from(i) * 10 + 5);
            assert_eq!(q.push(time, i), reference.push(time, i));
            if i % 3 == 0 {
                assert_eq!(q.pop().map(keyed), reference.pop().map(keyed));
            }
            if i == 2 * CHUNK as u32 {
                let mut drained = q.drain_entries();
                let mut want = reference.drain_entries();
                drained.sort();
                want.sort();
                assert_eq!(drained, want);
                for (key, payload) in drained {
                    q.push_keyed(key, payload);
                    reference.push_keyed(key, payload);
                }
            }
        }
        for run in &q.runs {
            assert!(run.front.capacity() <= CHUNK);
            assert!(run.rest.iter().all(|buffer| buffer.capacity() == CHUNK));
        }
        assert!(q.runs.iter().any(|run| run.rest.len() >= 2));
        while let Some(want) = reference.pop() {
            assert_eq!(q.pop().map(keyed), Some(keyed(want)));
        }
        assert!(q.is_empty());
        assert!(q.runs.iter().all(|run| run.front.is_empty() && run.rest.is_empty()));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
