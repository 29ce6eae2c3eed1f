//! The event loop.
//!
//! [`Simulator`] owns the clock, the event queue and all registered
//! [`Component`]s. Two event flavours exist: *deliveries* (a [`Msg`]
//! addressed to a component) and *calls* (one-shot closures receiving
//! `&mut Simulator`, convenient for test instrumentation and scenario
//! glue).

use std::any::Any;

use crate::component::{Component, ComponentId, Ctx, Msg};
use crate::observer::{ObsBuf, Observer};
use crate::queue::{EventKey, EventQueue, QueuedEvent, MAX_COMPONENTS};
use crate::time::{SimDuration, SimTime};

/// Internal event representation.
pub enum Event {
    /// Deliver a message to a component.
    Deliver {
        /// Receiving component.
        target: ComponentId,
        /// Payload.
        msg: Msg,
    },
    /// Invoke a one-shot closure with full simulator access.
    Call(Box<dyn FnOnce(&mut Simulator) + Send>),
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// The event queue drained completely.
    Drained,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
}

/// A discrete-event simulator.
pub struct Simulator {
    now: SimTime,
    queue: EventQueue<Event>,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    dispatch_counts: Vec<u64>,
    /// Per-component send counters: the `seq` half of each scheduled
    /// event's `(src, seq)` identity.
    send_seqs: Vec<u64>,
    processed: u64,
    /// What this kernel has seen for its [`Observer`] since it last
    /// published. `None` (the default) costs one branch per hook — no
    /// allocation, no call.
    obs: Option<Box<ObsBuf>>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Create an empty simulator at t = 0.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            components: Vec::new(),
            names: Vec::new(),
            dispatch_counts: Vec::new(),
            send_seqs: Vec::new(),
            processed: 0,
            obs: None,
        }
    }

    /// Attach `observer` (a disabled one detaches): from here on every
    /// dispatch, handler span, send and timer arm is buffered and
    /// published into it whenever a run returns. A
    /// [`ShardedSimulator`](crate::ShardedSimulator) built from this
    /// simulator inherits it.
    pub fn observe(&mut self, observer: &Observer) {
        self.publish();
        self.obs = ObsBuf::attach(observer).map(Box::new);
    }

    fn publish(&mut self) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.observer.clone().publish([obs], Vec::new());
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Register a component, returning its id.
    pub fn add_component<C: Component>(&mut self, c: C) -> ComponentId {
        let name = c.name().to_string();
        self.add_boxed(Box::new(c), name)
    }

    /// Register an already-boxed component under an explicit name.
    pub fn add_boxed(&mut self, c: Box<dyn Component>, name: String) -> ComponentId {
        // A wiring-time precondition, not a run-time path: an event key
        // packs its source in 24 bits, the all-ones value reserved for
        // external events (`queue` module docs). The largest scenario
        // wires a few hundred components.
        assert!(self.components.len() < MAX_COMPONENTS, "more components than an event key names");
        let id = ComponentId(self.components.len());
        self.components.push(Some(c));
        self.names.push(name);
        self.dispatch_counts.push(0);
        self.send_seqs.push(0);
        id
    }

    /// How many events each component has handled, as `(name, count)` in
    /// registration order — the profile view of a finished run (which
    /// actor was hot).
    pub fn dispatch_profile(&self) -> Vec<(&str, u64)> {
        self.names.iter().map(String::as_str).zip(self.dispatch_counts.iter().copied()).collect()
    }

    /// Events handled by one component.
    pub fn dispatches_to(&self, id: ComponentId) -> u64 {
        self.dispatch_counts[id.0]
    }

    /// Immutable access to a component's concrete type.
    ///
    /// Panics if the id is out of range or the type does not match — both
    /// are programming errors in a closed simulation, and the second names
    /// the id and the type asked for (here and in
    /// [`component_mut`](Self::component_mut)).
    pub fn component<C: Component>(&self, id: ComponentId) -> &C {
        // Never fires: `add_component` fills a slot and nothing empties
        // one (a dispatch borrows the component in place).
        let c = self.components[id.0]
            .as_deref()
            .unwrap_or_else(|| panic!("component {:?} is currently dispatched", id));
        (c as &dyn Any)
            .downcast_ref::<C>()
            .unwrap_or_else(|| panic!("component {:?} is not a {}", id, std::any::type_name::<C>()))
    }

    /// Mutable access to a component's concrete type.
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> &mut C {
        // Never fires: every slot is filled, as in `component`.
        let c = self.components[id.0]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("component {:?} is currently dispatched", id));
        (c as &mut dyn Any)
            .downcast_mut::<C>()
            .unwrap_or_else(|| panic!("component {:?} is not a {}", id, std::any::type_name::<C>()))
    }

    /// Registered name of a component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.names[id.0]
    }

    /// Schedule a message delivery after `delay`.
    pub fn send_in(&mut self, delay: SimDuration, target: ComponentId, m: Msg) {
        let t = self.now + delay;
        self.queue.push(t, Event::Deliver { target, msg: m });
    }

    /// Schedule a message delivery at the absolute instant `at`.
    pub fn send_at(&mut self, at: SimTime, target: ComponentId, m: Msg) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, Event::Deliver { target, msg: m });
    }

    /// Schedule a closure at the absolute instant `at`.
    pub fn call_at<F: FnOnce(&mut Simulator) + Send + 'static>(&mut self, at: SimTime, f: F) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, Event::Call(Box::new(f)));
    }

    /// Process a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.dispatch(ev);
        self.publish();
        true
    }

    // Forced inline: left to the heuristic, the shared body stays out of
    // line and `run_until` reads ~3 % slower on the 64-flow TCP scenario.
    #[inline(always)]
    fn dispatch(&mut self, ev: QueuedEvent<Event>) {
        debug_assert!(ev.time >= self.now, "event queue returned a past event");
        self.now = ev.time;
        self.processed += 1;
        match ev.payload {
            Event::Deliver { target, msg } => {
                // The component, the queue, its send counter and the
                // observation buffer are disjoint fields, so the component
                // handles the event in its slot while `Ctx` borrows the rest.
                // A never-patched `ComponentId::placeholder()` is out of range.
                let count = self.dispatch_counts.get_mut(target.0);
                *count.unwrap_or_else(|| panic!("dispatch to unpatched {target:?}")) += 1;
                // Never fires: every slot is filled, as in `component`.
                let comp = self.components[target.0]
                    .as_deref_mut()
                    .unwrap_or_else(|| panic!("dispatch to empty slot {:?}", target));
                let mut obs = self.obs.as_deref_mut();
                if let Some(obs) = obs.as_deref_mut() {
                    let key = EventKey { time: ev.time, src: ev.src, seq: ev.seq };
                    obs.dispatched(key, target, &self.names[target.0]);
                }
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: target,
                    queue: &mut self.queue,
                    src_seq: &mut self.send_seqs[target.0],
                    remote: None,
                    obs,
                };
                comp.handle(&mut ctx, msg);
            }
            Event::Call(f) => {
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.called();
                }
                f(self)
            }
        }
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunResult {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains or the next event would fire after
    /// `horizon`. The clock is left at the last processed event (or
    /// unchanged if none fired); pending later events remain queued.
    pub fn run_until(&mut self, horizon: SimTime) -> RunResult {
        let result = loop {
            match self.queue.pop_through(horizon) {
                Some(ev) => self.dispatch(ev),
                None if self.queue.is_empty() => break RunResult::Drained,
                None => break RunResult::HorizonReached,
            }
        };
        self.publish();
        result
    }

    /// Decompose into raw state for partitioning across shards; what the
    /// observer has not seen yet is published first.
    pub(crate) fn into_parts(mut self) -> SimParts {
        self.publish();
        SimParts {
            now: self.now,
            queue: self.queue,
            components: self.components,
            names: self.names,
            dispatch_counts: self.dispatch_counts,
            send_seqs: self.send_seqs,
            processed: self.processed,
            observer: self.obs.map_or_else(Observer::disabled, |obs| obs.observer),
        }
    }

    /// Reassemble a simulator from shard-merged state.
    pub(crate) fn from_parts(p: SimParts) -> Simulator {
        Simulator {
            now: p.now,
            queue: p.queue,
            components: p.components,
            names: p.names,
            dispatch_counts: p.dispatch_counts,
            send_seqs: p.send_seqs,
            processed: p.processed,
            obs: ObsBuf::attach(&p.observer).map(Box::new),
        }
    }
}

/// Raw simulator state passed between the sequential kernel and
/// [`ShardedSimulator`](crate::ShardedSimulator).
pub(crate) struct SimParts {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) components: Vec<Option<Box<dyn Component>>>,
    pub(crate) names: Vec<String>,
    pub(crate) dispatch_counts: Vec<u64>,
    pub(crate) send_seqs: Vec<u64>,
    pub(crate) processed: u64,
    pub(crate) observer: Observer,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{downcast, msg};

    struct Counter {
        ticks: u32,
        period: SimDuration,
        limit: u32,
    }

    struct Tick;

    impl Component for Counter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let _ = downcast::<Tick>(m);
            self.ticks += 1;
            if self.ticks < self.limit {
                ctx.timer_in(self.period, msg(Tick));
            }
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn component_of_the_wrong_type_panics() {
        struct Idle;
        impl Component for Idle {
            fn handle(&mut self, _: &mut Ctx<'_>, _: Msg) {}
        }
        let mut sim = Simulator::new();
        let id = sim.add_component(Idle);
        let _ = sim.component::<Counter>(id);
    }

    #[test]
    #[should_panic(expected = "dispatch to unpatched")]
    fn dispatch_to_an_unpatched_placeholder_panics() {
        let mut sim = Simulator::new();
        sim.send_at(SimTime::ZERO, ComponentId::placeholder(), msg(Tick));
        sim.run();
    }

    #[test]
    fn closure_events_advance_clock() {
        let mut sim = Simulator::new();
        sim.call_at(SimTime::from_secs(2), |s| {
            assert_eq!(s.now(), SimTime::from_secs(2));
            s.call_at(s.now() + SimDuration::from_secs(3), |s2| {
                assert_eq!(s2.now(), SimTime::from_secs(5));
            });
        });
        assert_eq!(sim.run(), RunResult::Drained);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn component_self_timers() {
        let mut sim = Simulator::new();
        let id =
            sim.add_component(Counter { ticks: 0, period: SimDuration::from_millis(10), limit: 5 });
        sim.send_in(SimDuration::ZERO, id, msg(Tick));
        sim.run();
        assert_eq!(sim.component::<Counter>(id).ticks, 5);
        // 4 periods after the initial tick at t=0.
        assert_eq!(sim.now(), SimTime::from_millis(40));
    }

    #[test]
    fn run_until_horizon_leaves_events_pending() {
        let mut sim = Simulator::new();
        let id =
            sim.add_component(Counter { ticks: 0, period: SimDuration::from_secs(1), limit: 100 });
        sim.send_in(SimDuration::ZERO, id, msg(Tick));
        let r = sim.run_until(SimTime::from_millis(4500));
        assert_eq!(r, RunResult::HorizonReached);
        assert_eq!(sim.component::<Counter>(id).ticks, 5); // t = 0..4 s
        assert_eq!(sim.events_pending(), 1);
        // Resume to completion.
        assert_eq!(sim.run(), RunResult::Drained);
        assert_eq!(sim.component::<Counter>(id).ticks, 100);
    }

    #[test]
    fn component_accessors() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Counter { ticks: 7, period: SimDuration::ZERO, limit: 0 });
        assert_eq!(sim.component_name(id), "counter");
        sim.component_mut::<Counter>(id).ticks = 9;
        assert_eq!(sim.component::<Counter>(id).ticks, 9);
    }

    #[test]
    fn dispatch_profile_counts_per_component() {
        let mut sim = Simulator::new();
        let a =
            sim.add_component(Counter { ticks: 0, period: SimDuration::from_millis(1), limit: 5 });
        let b =
            sim.add_component(Counter { ticks: 0, period: SimDuration::from_millis(1), limit: 2 });
        sim.send_in(SimDuration::ZERO, a, msg(Tick));
        sim.send_in(SimDuration::ZERO, b, msg(Tick));
        sim.run();
        assert_eq!(sim.dispatches_to(a), 5);
        assert_eq!(sim.dispatches_to(b), 2);
        let profile = sim.dispatch_profile();
        assert_eq!(profile, vec![("counter", 5), ("counter", 2)]);
    }

    #[test]
    fn mixed_closures_and_deliveries_interleave_deterministically() {
        let mut sim = Simulator::new();
        let id =
            sim.add_component(Counter { ticks: 0, period: SimDuration::from_secs(10), limit: 1 });
        // Same instant: delivery scheduled first, then the closure checking
        // it fired.
        sim.send_at(SimTime::from_secs(1), id, msg(Tick));
        sim.call_at(SimTime::from_secs(1), move |s| {
            assert_eq!(s.component::<Counter>(id).ticks, 1);
        });
        sim.run();
    }
}
