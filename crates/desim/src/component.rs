//! Actor-style components for event-driven models.
//!
//! A [`Component`] is a stateful actor registered with the
//! [`Simulator`](crate::Simulator). Events addressed to it arrive through
//! [`Component::handle`] together with a [`Ctx`] that lets it schedule
//! further events — to itself (timers) or to other components (message
//! passing with modelled delays).

use std::any::Any;

use crate::observer::ObsBuf;
use crate::queue::{EventKey, EventQueue};
use crate::shard::RemoteCtx;
use crate::sim::Event;
use crate::time::{SimDuration, SimTime};

/// Opaque handle to a registered component.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// The raw slot index (stable for the lifetime of the simulator).
    pub fn index(self) -> usize {
        self.0
    }

    /// A placeholder id for two-phase wiring: construct a component whose
    /// `next` target does not exist yet, register it, then patch the field
    /// via [`Simulator::component_mut`](crate::Simulator::component_mut).
    /// Dispatching to a placeholder that was never patched panics.
    pub fn placeholder() -> ComponentId {
        ComponentId(usize::MAX)
    }
}

/// A dynamically typed message. Producers box any `Send + 'static` value;
/// consumers downcast with [`downcast`].
pub type Msg = Box<dyn Any + Send>;

/// Box a value into a [`Msg`].
pub fn msg<T: Any + Send>(value: T) -> Msg {
    Box::new(value)
}

/// Downcast a [`Msg`] to a concrete type, panicking with the component's
/// context on mismatch (a mismatch is always a programming error in a
/// closed simulation).
pub fn downcast<T: Any>(m: Msg) -> Box<T> {
    m.downcast::<T>().unwrap_or_else(|m| {
        panic!(
            "message downcast to {} failed (got {:?})",
            std::any::type_name::<T>(),
            (*m).type_id()
        )
    })
}

/// An actor in the simulation.
///
/// `Any` is a supertrait so callers can recover the concrete type after a
/// run (e.g. to read out counters) via
/// [`Simulator::component`](crate::Simulator::component).
pub trait Component: Any + Send {
    /// Handle one event addressed to this component.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "component"
    }
}

/// The scheduling context handed to [`Component::handle`].
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ComponentId,
    pub(crate) queue: &'a mut EventQueue<Event>,
    /// This component's monotone send counter; the `(src, seq)` pair it
    /// yields gives every scheduled event a kernel-independent identity.
    pub(crate) src_seq: &'a mut u64,
    /// Cross-shard routing state; `None` on the sequential kernel.
    pub(crate) remote: Option<RemoteCtx<'a>>,
    /// The kernel's observation buffer; `None` (one branch per hook)
    /// unless a recording [`Observer`](crate::Observer) is attached.
    pub(crate) obs: Option<&'a mut ObsBuf>,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This component's own id.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Whether anything records what this handler reports: guard span
    /// bookkeeping that costs more than the [`span`](Self::span) call.
    pub fn observing(&self) -> bool {
        self.obs.is_some()
    }

    /// Record a completed interval on `track` (no-op unless observed).
    /// `begin`/`end` may lie in the future: a stage knows a packet's
    /// departure when it admits it.
    pub fn span(&mut self, track: &str, name: &str, begin: SimTime, end: SimTime) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.span(track, name, begin, end);
        }
    }

    fn next_key(&mut self, at: SimTime) -> EventKey {
        let seq = *self.src_seq;
        *self.src_seq += 1;
        EventKey { time: at, src: self.self_id.0 as u64, seq }
    }

    /// Deliver `m` to `target` after `delay`.
    pub fn send_in(&mut self, delay: SimDuration, target: ComponentId, m: Msg) {
        let t = self.now + delay;
        self.send_at(t, target, m);
    }

    /// Deliver `m` to `target` at the absolute instant `at` (must not be in
    /// the past).
    pub fn send_at(&mut self, at: SimTime, target: ComponentId, m: Msg) {
        assert!(at >= self.now, "cannot schedule into the past: {at:?} < {:?}", self.now);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.sent(self.self_id);
        }
        let key = self.next_key(at);
        if let Some(r) = self.remote.as_mut() {
            if !r.is_local(target) {
                r.forward(self.now, key, target, m);
                return;
            }
        }
        self.queue.push_keyed(key, Event::Deliver { target, msg: m });
    }

    /// Schedule a timer: deliver `m` back to this component after `delay`.
    /// Timers are always shard-local.
    pub fn timer_in(&mut self, delay: SimDuration, m: Msg) {
        let id = self.self_id;
        let t = self.now + delay;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.timer_armed(id);
        }
        let key = self.next_key(t);
        self.queue.push_keyed(key, Event::Deliver { target: id, msg: m });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_roundtrip() {
        let m = msg(42u32);
        let v = downcast::<u32>(m);
        assert_eq!(*v, 42);
    }

    #[test]
    #[should_panic(expected = "downcast")]
    fn msg_wrong_type_panics() {
        let m = msg("hello");
        let _ = downcast::<u32>(m);
    }

    #[test]
    fn component_id_index() {
        assert_eq!(ComponentId(3).index(), 3);
        assert!(ComponentId(1) < ComponentId(2));
    }
}
