//! Conservative-window sharded event kernel.
//!
//! [`ShardedSimulator`] partitions a fully wired [`Simulator`] into
//! shards — one event queue, clock and component subset each — and
//! advances them, on the calling thread, under the classic conservative
//! synchronization scheme: in each round the global minimum `gm` of the
//! shards' earliest pending events is taken, and every shard may then
//! safely process all events strictly before `gm + lookahead`, where
//! `lookahead` lower-bounds the delivery delay of any cross-shard
//! message. Messages that cross a shard boundary are staged in
//! per-destination buffers and moved queue to queue once per window,
//! each carrying its full [`EventKey`], so arrivals are re-inserted under
//! exactly the key they would have had on the sequential kernel.
//!
//! ## What it is for
//!
//! Not speed: the shards share one thread, so a sharded run takes about
//! as long as a sequential one (EXPERIMENTS.md has the numbers, and
//! those of the threaded executor that did worse). It is the
//! partition-invariance oracle: a scenario cut along any
//! [`ShardPlan`] must reproduce the sequential run byte for byte, which
//! `tests/kernel_equivalence.rs`, `tests/transfer_pinned.rs` and three
//! `scripts/check.sh` comparisons hold it to.
//!
//! ## Determinism
//!
//! The event key `(time, source component, source send counter)` is a
//! total order independent of the partition. Within one timestamp a
//! component's same-time cascade is always shard-local (cross-shard
//! messages arrive at least `lookahead > 0` later), so restricting the
//! sequential kernel's pop-min order to one shard's events yields
//! precisely that shard's local pop-min order. By induction every
//! component sees the identical message sequence — and therefore produces
//! identical state and identical reports — on the sequential kernel, a
//! 1-shard run, and an N-shard run.
//!
//! ## Limits
//!
//! * `Event::Call` closures need `&mut Simulator` and cannot be
//!   partitioned; scenarios must drain them (or not use them) before
//!   converting. [`ShardedSimulator::from_simulator`] panics otherwise.
//! * Horizons are a sequential-kernel feature.
//! * Events scheduled at exactly [`SimTime::MAX`] are indistinguishable
//!   from "no event" in the min-reduction and are left unprocessed (the
//!   run then reports [`RunResult::HorizonReached`]).

use std::sync::Arc;

use crate::component::{Component, ComponentId, Ctx, Msg};
use crate::metrics::{CounterId, GaugeId, MetricsRegistry};
use crate::observer::{ObsBuf, Observer};
use crate::partition::ShardPlan;
use crate::queue::{EventKey, EventQueue, QueuedEvent};
use crate::sim::{Event, RunResult, SimParts, Simulator};
use crate::time::{SimDuration, SimTime};

/// A message in flight between shards, carrying the key it was assigned
/// at the sender so the destination queue orders it exactly as the
/// sequential kernel would.
pub(crate) struct RemoteEvent {
    key: EventKey,
    target: ComponentId,
    msg: Msg,
}

/// Cross-shard routing state borrowed into a [`Ctx`] during dispatch on
/// the sharded kernel.
pub(crate) struct RemoteCtx<'a> {
    pub(crate) shard_of: &'a [u32],
    pub(crate) my_shard: u32,
    pub(crate) lookahead: SimDuration,
    pub(crate) staged: &'a mut [Vec<RemoteEvent>],
}

impl RemoteCtx<'_> {
    /// Whether `target` lives on the sending shard.
    pub(crate) fn is_local(&self, target: ComponentId) -> bool {
        self.shard_of[target.index()] == self.my_shard
    }

    /// Stage a cross-shard event for delivery at the end of the window.
    /// The conservative window is only sound if the arrival is at least
    /// `lookahead` in the future, so that is asserted here — a violation
    /// means the [`ShardPlan`] declared a lookahead larger than some cut
    /// edge's real delay.
    pub(crate) fn forward(&mut self, now: SimTime, key: EventKey, target: ComponentId, msg: Msg) {
        let bound = now.as_nanos().saturating_add(self.lookahead.as_nanos());
        assert!(
            key.time.as_nanos() >= bound,
            "cross-shard send violates the declared lookahead: \
             arrival {:?} < now {:?} + lookahead {:?}",
            key.time,
            now,
            self.lookahead,
        );
        self.staged[self.shard_of[target.index()] as usize].push(RemoteEvent { key, target, msg });
    }
}

/// What an observed shard keeps: the buffer its handlers record into
/// and a [`MetricsRegistry`] with the handles the window loop bumps.
/// Allocated only under a recording [`Observer`] — the unobserved kernel
/// pays one `Option` branch per window and per hook.
///
/// Every metric is a function of the deterministic window structure, so
/// two runs of one scenario produce identical values and series. Each
/// has a reader: the benchmark adapter (`windows`, `xshard_events`,
/// `queue_depth`, `lookahead_util_ppm`), the report block and the
/// counter tracks of a trace (`events` too).
struct ShardObs {
    buf: ObsBuf,
    /// Component names, for the dispatch spans' tracks.
    names: Vec<String>,
    reg: MetricsRegistry,
    /// Events executed (cumulative).
    events: CounterId,
    /// Window rounds in which this shard participated.
    windows: CounterId,
    /// Events forwarded across shard boundaries.
    xshard_events: CounterId,
    /// Local queue depth at the start of the last window.
    queue_depth: GaugeId,
    /// Fraction of the lookahead window covered by executed events, in
    /// parts per million.
    lookahead_util_ppm: GaugeId,
}

impl ShardObs {
    fn attach(observer: &Observer, index: u32, names: &[String]) -> Option<Box<Self>> {
        let buf = ObsBuf::attach(observer)?;
        let mut reg = MetricsRegistry::new(format!("shard{index}"));
        Some(Box::new(ShardObs {
            buf,
            names: names.to_vec(),
            events: reg.counter("events"),
            windows: reg.counter("windows"),
            xshard_events: reg.counter("xshard_events"),
            queue_depth: reg.gauge("queue_depth"),
            lookahead_util_ppm: reg.gauge("lookahead_util_ppm"),
            reg,
        }))
    }
}

/// One partition: a queue, a clock, and the components assigned here.
struct Shard {
    index: u32,
    queue: EventQueue<Event>,
    /// Full-length slot vector; `None` for components owned elsewhere.
    components: Vec<Option<Box<dyn Component>>>,
    send_seqs: Vec<u64>,
    dispatch_counts: Vec<u64>,
    now: SimTime,
    processed: u64,
    shard_of: Arc<Vec<u32>>,
    lookahead: SimDuration,
    /// Per-destination buffers for cross-shard sends staged inside the
    /// current window; exchanged once per round.
    staged: Vec<Vec<RemoteEvent>>,
    /// Live observation; `None` runs the kernel unobserved.
    obs: Option<Box<ShardObs>>,
}

impl Shard {
    /// Fire time of the earliest local event, in ns, or `u64::MAX`.
    fn next_time_ns(&self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos())
    }

    /// Process every local event strictly before `horizon`, including
    /// events generated inside the window. An observed shard then folds
    /// the window into its registry and samples every series at the
    /// window base `gm` (the round's global minimum, in nanoseconds) —
    /// *before* the staged batches leave the shard, so cross-shard
    /// accounting sees exactly this window's traffic.
    fn process_window(&mut self, gm: u64, horizon: SimTime) {
        let depth = self.queue.len() as u64;
        let before = self.processed;
        while let Some(ev) = self.queue.pop_before(horizon) {
            self.dispatch(ev);
        }
        let Some(m) = self.obs.as_deref_mut() else { return };
        let executed = self.processed - before;
        m.reg.set(m.queue_depth, depth);
        m.reg.inc(m.events, executed);
        m.reg.inc(m.windows, 1);
        let lookahead_ns = self.lookahead.as_nanos();
        let util_ppm = if executed == 0 || lookahead_ns == 0 {
            0
        } else {
            // Span of the window actually covered by executed events
            // (`now` is the last one's instant), as ppm of the declared
            // lookahead (capped: the last event fires strictly *before*
            // gm + lookahead).
            let used = self.now.as_nanos().saturating_sub(gm) as u128;
            ((used * 1_000_000 / lookahead_ns as u128) as u64).min(1_000_000)
        };
        m.reg.set(m.lookahead_util_ppm, util_ppm);
        m.reg.inc(m.xshard_events, self.staged.iter().map(Vec::len).sum::<usize>() as u64);
        m.reg.sample(gm);
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: QueuedEvent<Event>) {
        match ev.payload {
            Event::Deliver { target, msg } => {
                let t = target.index();
                debug_assert_eq!(
                    self.shard_of[t], self.index,
                    "event for a foreign component reached shard {}",
                    self.index
                );
                self.now = ev.time;
                self.processed += 1;
                self.dispatch_counts[t] += 1;
                // Never fires: `from_simulator` put every component on the
                // shard its events are routed to.
                let comp = self.components[t]
                    .as_deref_mut()
                    .unwrap_or_else(|| panic!("dispatch to empty slot {target:?}"));
                let obs = self.obs.as_deref_mut().map(|o| {
                    let key = EventKey { time: ev.time, src: ev.src, seq: ev.seq };
                    o.buf.dispatched(key, target, &o.names[t]);
                    &mut o.buf
                });
                // A solitary shard has nowhere to forward to; skipping
                // the remote context spares every send the locality
                // check on the hot path.
                let remote = (self.staged.len() > 1).then(|| RemoteCtx {
                    shard_of: &self.shard_of,
                    my_shard: self.index,
                    lookahead: self.lookahead,
                    staged: &mut self.staged,
                });
                let mut ctx = Ctx {
                    now: ev.time,
                    self_id: target,
                    queue: &mut self.queue,
                    src_seq: &mut self.send_seqs[t],
                    remote,
                    obs,
                };
                comp.handle(&mut ctx, msg);
            }
            // `from_simulator` refuses a queue that holds one, and nothing
            // on a shard can schedule one: closures need `&mut Simulator`.
            Event::Call(_) => unreachable!("Call events are rejected at partition time"),
        }
    }
}

/// The sharded event kernel: a set of [`Shard`]s advancing in
/// conservative lookahead windows on the calling thread. Built from a
/// wired [`Simulator`] and dissolved back into one for stats collection,
/// so every existing report path works unchanged.
pub struct ShardedSimulator {
    shards: Vec<Shard>,
    names: Vec<String>,
    lookahead: SimDuration,
    /// External FIFO counter carried through so a reassembled simulator
    /// keeps scheduling externals deterministically.
    fifo_seq: u64,
    base_processed: u64,
    /// Where the shards publish at teardown; disabled by default.
    observer: Observer,
}

impl ShardedSimulator {
    /// Partition a wired simulator according to `plan`.
    ///
    /// Panics if the plan references unknown components or if `Call`
    /// events are pending (closures cannot cross shard boundaries). The
    /// simulator's observer, if any, carries over.
    pub fn from_simulator(sim: Simulator, plan: &ShardPlan) -> Self {
        let n = plan.n_shards();
        let mut parts = sim.into_parts();
        let len = parts.components.len();
        let table = Arc::new(plan.table(len));
        // A single shard has no cut edge to bound: one window drains it.
        let lookahead = if n == 1 { SimDuration::MAX } else { plan.lookahead() };

        let fifo_seq = parts.queue.fifo_seq();
        let entries = parts.queue.drain_entries();

        let mut shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                index: i as u32,
                queue: EventQueue::new(),
                components: (0..len).map(|_| None).collect(),
                send_seqs: vec![0; len],
                dispatch_counts: vec![0; len],
                now: parts.now,
                processed: 0,
                shard_of: Arc::clone(&table),
                lookahead,
                staged: (0..n).map(|_| Vec::new()).collect(),
                obs: None,
            })
            .collect();

        for (i, slot) in parts.components.drain(..).enumerate() {
            let dest = table[i] as usize;
            shards[dest].components[i] = slot;
            shards[dest].send_seqs[i] = parts.send_seqs[i];
            shards[dest].dispatch_counts[i] = parts.dispatch_counts[i];
        }
        for (key, payload) in entries {
            match payload {
                Event::Deliver { target, msg } => {
                    let dest = table[target.index()] as usize;
                    shards[dest].queue.push_keyed(key, Event::Deliver { target, msg });
                }
                // The documented precondition: a closure cannot be
                // assigned to a shard, and dropping it would change the run.
                Event::Call(_) => panic!(
                    "pending Call events cannot be partitioned; \
                     drain them on the sequential kernel first"
                ),
            }
        }

        let mut sharded = ShardedSimulator {
            shards,
            names: parts.names,
            lookahead,
            fifo_seq,
            base_processed: parts.processed,
            observer: Observer::disabled(),
        };
        sharded.observe(&parts.observer);
        sharded
    }

    /// Attach `observer` (a disabled one detaches). Under a recording
    /// one every shard buffers what its handlers report and keeps
    /// per-window kernel metrics; [`into_simulator`](Self::into_simulator)
    /// publishes the lot — spans merged into the sequential run's order,
    /// one `shard{i}` [`MetricsRegistry`] per shard — and hands the
    /// observer on to the merged simulator.
    pub fn observe(&mut self, observer: &Observer) {
        self.observer = observer.clone();
        for shard in &mut self.shards {
            shard.obs = ShardObs::attach(observer, shard.index, &self.names);
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Events processed so far, summed over shards.
    pub fn events_processed(&self) -> u64 {
        self.base_processed + self.shards.iter().map(|s| s.processed).sum::<u64>()
    }

    /// The latest shard clock (the merged clock a reassembled simulator
    /// will report).
    pub fn now(&self) -> SimTime {
        self.shards.iter().map(|s| s.now).max().unwrap_or(SimTime::ZERO)
    }

    /// Run every shard until all queues drain. The shards take turns on
    /// the calling thread, so a panicking component unwinds straight
    /// through `run`.
    pub fn run(&mut self) -> RunResult {
        loop {
            let gm = self.shards.iter().map(Shard::next_time_ns).min().unwrap_or(u64::MAX);
            if gm == u64::MAX {
                break;
            }
            let horizon = SimTime::from_nanos(gm.saturating_add(self.lookahead.as_nanos()));
            for s in &mut self.shards {
                s.process_window(gm, horizon);
            }
            // Exchange staged batches queue-to-queue. Buffers are swapped
            // back afterwards so their capacity is reused across rounds.
            let n = self.shards.len();
            for src in 0..n {
                for dst in 0..n {
                    let mut batch = std::mem::take(&mut self.shards[src].staged[dst]);
                    if !batch.is_empty() {
                        let queue = &mut self.shards[dst].queue;
                        for r in batch.drain(..) {
                            queue
                                .push_keyed(r.key, Event::Deliver { target: r.target, msg: r.msg });
                        }
                    }
                    self.shards[src].staged[dst] = batch;
                }
            }
        }
        if self.shards.iter().all(|s| s.queue.is_empty()) {
            RunResult::Drained
        } else {
            RunResult::HorizonReached
        }
    }

    /// Merge the shards back into a sequential [`Simulator`] so existing
    /// stats collectors, component accessors and report builders work
    /// unchanged: clocks merge to the maximum, per-component counters to
    /// their (owner-shard) values, leftover events to one queue.
    pub fn into_simulator(self) -> Simulator {
        let len = self.names.len();
        let mut components: Vec<Option<Box<dyn Component>>> = (0..len).map(|_| None).collect();
        let mut dispatch_counts = vec![0u64; len];
        let mut send_seqs = vec![0u64; len];
        let mut queue = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut processed = self.base_processed;
        let (mut bufs, mut registries) = (Vec::new(), Vec::new());
        for shard in self.shards {
            let Shard {
                queue: mut sq,
                components: scomps,
                send_seqs: sseqs,
                dispatch_counts: sdisp,
                now: snow,
                processed: sproc,
                obs,
                ..
            } = shard;
            if let Some(obs) = obs {
                bufs.push(obs.buf);
                registries.push(obs.reg);
            }
            now = now.max(snow);
            processed += sproc;
            for (i, slot) in scomps.into_iter().enumerate() {
                if let Some(c) = slot {
                    components[i] = Some(c);
                }
            }
            for i in 0..len {
                // Foreign slots hold zeros, so summing recovers the
                // owner-shard values.
                dispatch_counts[i] += sdisp[i];
                send_seqs[i] += sseqs[i];
            }
            for (key, payload) in sq.drain_entries() {
                queue.push_keyed(key, payload);
            }
        }
        queue.set_fifo_seq(self.fifo_seq);
        self.observer.publish(&mut bufs, registries);
        Simulator::from_parts(SimParts {
            now,
            queue,
            components,
            names: self.names,
            dispatch_counts,
            send_seqs,
            processed,
            observer: self.observer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{downcast, msg};

    /// Ping-pong pair: each side echoes with a fixed delay until `limit`
    /// messages have been seen, then stops.
    struct Pinger {
        peer: ComponentId,
        delay: SimDuration,
        seen: u32,
        limit: u32,
    }

    struct Ball;

    impl Component for Pinger {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let _ = downcast::<Ball>(m);
            self.seen += 1;
            if self.seen < self.limit {
                ctx.send_in(self.delay, self.peer, msg(Ball));
            }
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    fn pingpong_sim(delay: SimDuration, limit: u32) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let a =
            sim.add_component(Pinger { peer: ComponentId::placeholder(), delay, seen: 0, limit });
        let b = sim.add_component(Pinger { peer: a, delay, seen: 0, limit });
        sim.component_mut::<Pinger>(a).peer = b;
        sim.send_in(SimDuration::ZERO, a, msg(Ball));
        (sim, a, b)
    }

    /// The ping-pong pair split across two shards at its only edge.
    fn split_pingpong() -> ShardedSimulator {
        let delay = SimDuration::from_micros(500);
        let (sim, a, b) = pingpong_sim(delay, 10);
        let mut plan = ShardPlan::new(2, delay);
        plan.assign(a, 0);
        plan.assign(b, 1);
        ShardedSimulator::from_simulator(sim, &plan)
    }

    #[test]
    fn two_shard_pingpong_matches_sequential() {
        let (mut seq, _, _) = pingpong_sim(SimDuration::from_micros(500), 10);
        seq.run();
        let mut sharded = split_pingpong();
        assert_eq!(sharded.run(), RunResult::Drained);
        let merged = sharded.into_simulator();
        assert_eq!(merged.now(), seq.now());
        assert_eq!(merged.events_processed(), seq.events_processed());
        assert_eq!(merged.dispatch_profile(), seq.dispatch_profile());
    }

    #[test]
    fn single_shard_matches_sequential() {
        let delay = SimDuration::from_micros(10);
        let (mut seq, _, _) = pingpong_sim(delay, 7);
        seq.run();
        let (sim, _, _) = pingpong_sim(delay, 7);
        let mut sharded = ShardedSimulator::from_simulator(sim, &ShardPlan::new(1, delay));
        assert_eq!(sharded.run(), RunResult::Drained);
        let merged = sharded.into_simulator();
        assert_eq!(merged.now(), seq.now());
        assert_eq!(merged.events_processed(), seq.events_processed());
    }

    #[test]
    fn independent_shards_use_infinite_lookahead() {
        // Two pairs that never talk to each other: lookahead MAX, one
        // window round drains everything.
        let mut sim = Simulator::new();
        let mut ids = Vec::new();
        for _ in 0..2 {
            let a = sim.add_component(Pinger {
                peer: ComponentId::placeholder(),
                delay: SimDuration::from_nanos(3),
                seen: 0,
                limit: 5,
            });
            let b = sim.add_component(Pinger {
                peer: a,
                delay: SimDuration::from_nanos(3),
                seen: 0,
                limit: 5,
            });
            sim.component_mut::<Pinger>(a).peer = b;
            sim.send_in(SimDuration::ZERO, a, msg(Ball));
            ids.push((a, b));
        }
        let mut plan = ShardPlan::new(2, SimDuration::MAX);
        plan.assign(ids[1].0, 1);
        plan.assign(ids[1].1, 1);
        let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
        assert_eq!(sharded.run(), RunResult::Drained);
        assert_eq!(sharded.events_processed(), 18);
    }

    #[test]
    fn kernel_metrics_are_deterministic_across_runs() {
        let collect = || {
            let mut sharded = split_pingpong();
            let sink = Observer::recording();
            sharded.observe(&sink);
            assert_eq!(sharded.run(), RunResult::Drained);
            let _ = sharded.into_simulator();
            sink.registries()
        };

        let first = collect();
        let second = collect();
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(&second) {
            // Same windows, same queues, same cross-shard traffic: every
            // summary and every sampled series repeats.
            assert_eq!(a.summary_json().dump(), b.summary_json().dump());
            for (name, _) in a.names() {
                assert_eq!(a.series(name), b.series(name), "{name}");
            }
        }
        // The ping-pong run executes 19 dispatches split across shards,
        // every one of which crosses the boundary.
        let events: u64 = first.iter().map(|r| r.value("events").expect("events")).sum();
        assert_eq!(events, 19);
        let forwarded: u64 =
            first.iter().map(|r| r.value("xshard_events").expect("xshard_events")).sum();
        assert_eq!(forwarded, 18, "every ball but the kickoff crosses shards");
        assert!(first[0].value("windows").expect("windows") > 0);
        assert!(first[0].series("events").expect("series").is_monotone());
        assert!(first[0].hwm("queue_depth").expect("hwm") >= 1);
    }

    #[test]
    fn uninstrumented_run_matches_instrumented_run() {
        let run = |with_metrics: bool| {
            let delay = SimDuration::from_micros(500);
            let (sim, a, b) = pingpong_sim(delay, 10);
            let mut plan = ShardPlan::new(2, delay);
            plan.assign(a, 0);
            plan.assign(b, 1);
            let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
            let sink = if with_metrics { Observer::recording() } else { Observer::disabled() };
            sharded.observe(&sink);
            sharded.run();
            let merged = sharded.into_simulator();
            (merged.now(), merged.events_processed(), sink.registries().len())
        };
        let (now_off, events_off, regs_off) = run(false);
        let (now_on, events_on, regs_on) = run(true);
        assert_eq!(now_off, now_on);
        assert_eq!(events_off, events_on);
        assert_eq!(regs_off, 0);
        assert_eq!(regs_on, 2);
    }

    #[test]
    fn single_shard_instrumented_run_samples_depth() {
        let delay = SimDuration::from_micros(10);
        let (sim, _, _) = pingpong_sim(delay, 7);
        let mut sharded = ShardedSimulator::from_simulator(sim, &ShardPlan::new(1, delay));
        let sink = Observer::recording();
        sharded.observe(&sink);
        assert_eq!(sharded.run(), RunResult::Drained);
        let _ = sharded.into_simulator();
        let regs = sink.registries();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].value("events"), Some(13));
        assert!(regs[0].hwm("queue_depth").expect("depth tracked") >= 1);
        assert_eq!(regs[0].value("xshard_events"), Some(0), "one shard never forwards");
    }

    /// Records a span per message and passes it on at once to `next`.
    struct Relay {
        next: Option<ComponentId>,
    }

    impl Component for Relay {
        fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
            let now = ctx.now();
            ctx.span("relay", &format!("at#{}", ctx.self_id().index()), now, now);
            if let Some(next) = self.next {
                ctx.send_in(SimDuration::ZERO, next, m);
            }
        }
    }

    #[test]
    fn observed_shards_publish_in_the_sequential_order() {
        // `hi` hands the ball at once to the lower-numbered `lo` on its
        // shard: that event's key sorts *below* the one being handled, so
        // a merge by raw key would put `lo` first. Meanwhile `other`, on
        // the second shard, is due at the same instants.
        let build = || {
            let mut sim = Simulator::new();
            let lo = sim.add_component(Relay { next: None });
            let other = sim.add_component(Relay { next: None });
            let hi = sim.add_component(Relay { next: Some(lo) });
            for k in 0..6 {
                sim.send_at(SimTime::from_micros(k), hi, msg(Ball));
                sim.send_at(SimTime::from_micros(k), other, msg(Ball));
            }
            (sim, other)
        };
        for capacity in [1 << 16, 5] {
            let seq_obs = Observer::with_capacity(capacity);
            let (mut seq, _) = build();
            seq.observe(&seq_obs);
            seq.run();
            let names: Vec<String> = seq_obs.snapshot().into_iter().map(|s| s.name).collect();
            if capacity > 36 {
                assert_eq!(
                    names[..6],
                    ["dispatch", "at#2", "dispatch", "at#0", "dispatch", "at#1"]
                );
            }
            for n_shards in [1usize, 2] {
                let obs = Observer::with_capacity(capacity);
                let (mut sim, other) = build();
                sim.observe(&obs);
                let mut plan = ShardPlan::new(n_shards, SimDuration::from_micros(1));
                plan.assign(other, n_shards - 1);
                let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
                sharded.run();
                let _ = sharded.into_simulator();
                assert_eq!(obs.snapshot(), seq_obs.snapshot(), "{n_shards} shard(s)");
                assert_eq!(obs.dropped(), seq_obs.dropped(), "{n_shards} shard(s)");
                assert_eq!(obs.sends_by(ComponentId(2)), 6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "violates the declared lookahead")]
    fn lookahead_violation_is_detected() {
        let delay = SimDuration::from_nanos(1);
        let (sim, a, b) = pingpong_sim(delay, 10);
        // Declare far more lookahead than the real 1 ns edge delay.
        let mut plan = ShardPlan::new(2, SimDuration::from_secs(1));
        plan.assign(a, 0);
        plan.assign(b, 1);
        let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
        sharded.run();
    }

    #[test]
    #[should_panic(expected = "Call events cannot be partitioned")]
    fn pending_call_events_are_rejected() {
        let mut sim = Simulator::new();
        sim.call_at(SimTime::from_secs(1), |_| {});
        let _ = ShardedSimulator::from_simulator(sim, &ShardPlan::new(2, SimDuration::MAX));
    }

    #[test]
    fn merge_preserves_component_state_and_pending_events() {
        let delay = SimDuration::from_micros(500);
        let (sim, a, b) = pingpong_sim(delay, 10);
        let mut plan = ShardPlan::new(2, delay);
        plan.assign(a, 0);
        plan.assign(b, 1);
        let mut sharded = ShardedSimulator::from_simulator(sim, &plan);
        sharded.run();
        let merged = sharded.into_simulator();
        // The rally stops when the receiving side reaches its limit: a
        // sees 10 balls, b sees 9.
        assert_eq!(merged.component::<Pinger>(a).seen, 10);
        assert_eq!(merged.component::<Pinger>(b).seen, 9);
        assert_eq!(merged.events_pending(), 0);
        // The merged simulator is a normal simulator again.
        assert_eq!(merged.component_name(a), "pinger");
    }
}
