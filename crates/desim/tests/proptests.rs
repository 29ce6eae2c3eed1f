//! Property-based tests for the simulation kernel invariants.

use gtw_desim::fault::{FaultInjector, FaultPlan, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::hist::SUB_BUCKETS;
use gtw_desim::{
    EventQueue, Histogram, MetricsRegistry, SimDuration, SimTime, Simulator, StreamRng,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exact percentile of a sample set: the `⌈p/100·n⌉`-th smallest value
/// (the same rank convention `Histogram::percentile` uses).
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    /// A stream moved to draw `n` yields the sequential stream's draws
    /// from `n` on, wherever `n` falls in a keystream block and whatever
    /// the moved stream drew before.
    #[test]
    fn a_seeked_stream_continues_the_sequential_one(
        seed in any::<u64>(),
        name in proptest::collection::vec(32u8..127, 0..12),
        n in 0u64..100,
        drawn in 0u64..40,
        after in 1usize..40,
    ) {
        let name = String::from_utf8(name).expect("printable ASCII");
        let mut sequential = StreamRng::new(seed, &name);
        for _ in 0..n {
            sequential.next_u64();
        }
        let mut seeked = StreamRng::new(seed, &name);
        for _ in 0..drawn {
            seeked.next_u64();
        }
        seeked.seek(n);
        for _ in 0..after {
            prop_assert_eq!(seeked.next_u64(), sequential.next_u64());
        }
    }

    /// Events always pop in non-decreasing time order, and FIFO among ties.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt);
                if ev.time == lt {
                    // FIFO among equal times: payload index (scheduling
                    // order) must increase.
                    prop_assert!(ev.payload > li);
                }
            }
            last = Some((ev.time, ev.payload));
        }
    }

    /// The simulator clock is monotone over any schedule of closures.
    #[test]
    fn clock_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        let last = Arc::new(AtomicU64::new(0));
        for &d in &delays {
            let last = Arc::clone(&last);
            sim.call_at(SimTime::from_nanos(d), move |s| {
                let now = s.now().as_nanos();
                let prev = last.swap(now, Ordering::SeqCst);
                assert!(now >= prev, "clock went backwards: {prev} -> {now}");
            });
        }
        sim.run();
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// Transmission delay is monotone in payload size and antitone in rate.
    #[test]
    fn transmission_monotone(bits_a in 1u64..1_000_000, bits_b in 1u64..1_000_000,
                             rate in 1.0e6f64..10.0e9) {
        let (lo, hi) = if bits_a <= bits_b { (bits_a, bits_b) } else { (bits_b, bits_a) };
        prop_assert!(SimDuration::transmission(lo, rate) <= SimDuration::transmission(hi, rate));
        prop_assert!(
            SimDuration::transmission(lo, rate * 2.0) <= SimDuration::transmission(lo, rate)
        );
    }

    /// from_secs_f64 / as_secs_f64 round-trips to nanosecond precision.
    #[test]
    fn time_float_roundtrip(s in 0.0f64..1.0e6) {
        let t = SimTime::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() < 1e-9 * (1.0 + s));
    }

    /// run_until never processes events beyond the horizon, and resuming
    /// processes exactly the remainder.
    #[test]
    fn horizon_split(delays in proptest::collection::vec(1u64..1_000, 1..50), split in 1u64..1_000) {
        let mut sim = Simulator::new();
        let fired = Arc::new(AtomicU64::new(0));
        for &d in &delays {
            let fired = Arc::clone(&fired);
            sim.call_at(SimTime::from_nanos(d), move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run_until(SimTime::from_nanos(split));
        let early = delays.iter().filter(|&&d| d <= split).count() as u64;
        prop_assert_eq!(fired.load(Ordering::SeqCst), early);
        sim.run();
        prop_assert_eq!(fired.load(Ordering::SeqCst), delays.len() as u64);
    }

    /// Histogram percentile estimates stay within one bucket of the exact
    /// sorted-sample percentile: the absolute error is bounded by the
    /// width of the bucket the exact value falls in (relative error
    /// `1/SUB_BUCKETS`), and min/max are exact.
    #[test]
    fn histogram_percentiles_within_one_bucket(
        samples in proptest::collection::vec(0u64..(1u64 << 40), 1..400),
        p in 0.5f64..100.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min().as_nanos(), sorted[0]);
        prop_assert_eq!(h.max().as_nanos(), sorted[sorted.len() - 1]);
        for q in [p, 50.0, 90.0, 99.0, 100.0] {
            let exact = exact_percentile(&sorted, q);
            let est = h.percentile(q).as_nanos();
            let tol = Histogram::bucket_error(SimDuration::from_nanos(exact)).as_nanos();
            prop_assert!(
                est.abs_diff(exact) <= tol,
                "p{q}: estimate {est} vs exact {exact} (tolerance {tol}, 1/{SUB_BUCKETS} relative)",
            );
        }
    }

    /// Merging histograms is exactly equivalent to recording the
    /// concatenated sample stream into one histogram.
    #[test]
    fn histogram_merge_equals_concatenation(
        a in proptest::collection::vec(0u64..(1u64 << 48), 0..200),
        b in proptest::collection::vec(0u64..(1u64 << 48), 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &s in &a {
            ha.record_ns(s);
            hall.record_ns(s);
        }
        for &s in &b {
            hb.record_ns(s);
            hall.record_ns(s);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        prop_assert_eq!(ha.mean(), hall.mean());
        for q in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(ha.percentile(q), hall.percentile(q));
        }
        prop_assert_eq!(ha.to_json().dump(), hall.to_json().dump());
    }

    /// Schedule normalization: windows come out sorted and strictly
    /// disjoint (touching windows merge), and membership is exactly the
    /// union of the raw input windows.
    #[test]
    fn schedule_normalizes_to_disjoint_sorted_union(
        raw in proptest::collection::vec((0u64..10_000, 0u64..1_000), 0..40),
        probes in proptest::collection::vec(0u64..12_000, 1..50),
    ) {
        let windows: Vec<Window> = raw
            .iter()
            .map(|&(s, len)| Window::new(SimTime::from_nanos(s), SimTime::from_nanos(s + len)))
            .collect();
        let sched = Schedule::new(windows.clone());
        for pair in sched.windows().windows(2) {
            prop_assert!(pair[0].end < pair[1].start, "{pair:?} not disjoint/sorted");
        }
        for w in sched.windows() {
            prop_assert!(!w.is_empty());
        }
        // Membership at probe points and at every boundary of the raw
        // input equals naive union membership.
        let boundaries = raw.iter().flat_map(|&(s, len)| [s, s + len, (s + len).saturating_sub(1)]);
        for t in probes.iter().copied().chain(boundaries) {
            let t = SimTime::from_nanos(t);
            let naive = windows.iter().any(|w| w.contains(t));
            prop_assert_eq!(sched.contains(t), naive, "membership diverges at {:?}", t);
        }
    }

    /// Merging two schedules is the set union of their windows: a point
    /// is in the merge iff it is in either operand, and total covered
    /// time never shrinks below either side's.
    #[test]
    fn schedule_merge_is_set_union(
        raw_a in proptest::collection::vec((0u64..10_000, 0u64..1_000), 0..20),
        raw_b in proptest::collection::vec((0u64..10_000, 0u64..1_000), 0..20),
        probes in proptest::collection::vec(0u64..12_000, 1..60),
    ) {
        let mk = |raw: &[(u64, u64)]| {
            Schedule::new(
                raw.iter()
                    .map(|&(s, len)| {
                        Window::new(SimTime::from_nanos(s), SimTime::from_nanos(s + len))
                    })
                    .collect(),
            )
        };
        let a = mk(&raw_a);
        let b = mk(&raw_b);
        let merged = a.merge(&b);
        prop_assert_eq!(a.merge(&b), b.merge(&a), "merge must be commutative");
        prop_assert!(merged.total() >= a.total().max(b.total()));
        for &t in &probes {
            let t = SimTime::from_nanos(t);
            prop_assert_eq!(
                merged.contains(t),
                a.contains(t) || b.contains(t),
                "union semantics diverge at {:?}", t
            );
        }
    }

    /// A blip train is exactly the normalized union of its analytic
    /// windows: membership at any probe equals "inside blip k for some
    /// k", and the normalization invariants (sorted, disjoint,
    /// non-empty) hold even when blips touch or overlap.
    #[test]
    fn blip_train_matches_analytic_windows(
        period_ns in 1u64..2_000,
        dur_ns in 0u64..4_000,
        count in 0u32..20,
        probes in proptest::collection::vec(0u64..50_000, 1..60),
    ) {
        let period = SimDuration::from_nanos(period_ns);
        let dur = SimDuration::from_nanos(dur_ns);
        let sched = Schedule::blips(period, dur, count);
        for pair in sched.windows().windows(2) {
            prop_assert!(pair[0].end < pair[1].start);
        }
        for w in sched.windows() {
            prop_assert!(!w.is_empty());
        }
        for &p in &probes {
            let t = SimTime::from_nanos(p);
            let naive = (0..count as u64).any(|k| {
                let start = period_ns * (k + 1);
                start <= p && p < start + dur_ns
            });
            prop_assert_eq!(sched.contains(t), naive, "membership diverges at {} ns", p);
        }
        prop_assert!(sched.total() <= dur * count as u64, "union can only shrink total");
    }

    /// Partitioning cuts exactly the directed cross-group link targets:
    /// every cross pair gets the window union (merged with anything
    /// already planned), intra-group pairs are untouched, and the
    /// resulting plan is independent of group declaration order.
    #[test]
    fn partition_cuts_exactly_cross_group_pairs(
        sizes in proptest::collection::vec(1usize..4, 2..4),
        raw in proptest::collection::vec((0u64..10_000, 1u64..1_000), 1..8),
        probes in proptest::collection::vec(0u64..12_000, 1..30),
    ) {
        let groups: Vec<Vec<String>> = sizes
            .iter()
            .enumerate()
            .map(|(g, &n)| (0..n).map(|i| format!("g{g}/r{i}")).collect())
            .collect();
        let windows = Schedule::new(
            raw.iter()
                .map(|&(s, len)| Window::new(SimTime::from_nanos(s), SimTime::from_nanos(s + len)))
                .collect(),
        );
        let mut plan = FaultPlan::new(7);
        plan.partition(&groups, windows.clone());
        let mut reversed = FaultPlan::new(7);
        let rev: Vec<Vec<String>> = groups.iter().rev().cloned().collect();
        reversed.partition(&rev, windows.clone());
        prop_assert_eq!(&plan, &reversed, "group order must not matter");
        let all: Vec<(usize, &String)> =
            groups.iter().enumerate().flat_map(|(g, m)| m.iter().map(move |l| (g, l))).collect();
        for &(ga, a) in &all {
            for &(gb, b) in &all {
                if a == b {
                    continue;
                }
                let target = format!("link/{a}/{b}");
                if ga == gb {
                    prop_assert!(!plan.specs.contains_key(&target), "{target} should be up");
                } else {
                    let spec = plan.specs.get(&target).expect("cross pair cut");
                    for &p in &probes {
                        let t = SimTime::from_nanos(p);
                        prop_assert_eq!(spec.outages.contains(t), windows.contains(t));
                    }
                }
            }
        }
    }

    /// The Gilbert–Elliott injector's empirical loss rate converges on
    /// the analytic steady-state rate. Transition probabilities are kept
    /// moderate so 50k draws mix well past the chain's correlation time.
    #[test]
    fn gilbert_elliott_empirical_matches_steady_state(
        seed in 0u64..1_000_000,
        p_gb in 0.05f64..0.5,
        p_bg in 0.05f64..0.5,
        loss_bad in 0.5f64..1.0,
        loss_good in 0.0f64..0.05,
    ) {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
            loss_good,
            loss_bad,
        };
        let spec = FaultSpec { loss: model, ..FaultSpec::default() };
        let mut inj = FaultInjector::new(seed, "ge", spec);
        let n = 50_000u64;
        let mut hits = 0u64;
        for _ in 0..n {
            if inj.judge(SimTime::ZERO).is_some() {
                hits += 1;
            }
        }
        let empirical = hits as f64 / n as f64;
        let expected = model.steady_state_loss();
        prop_assert!(
            (empirical - expected).abs() < 0.06,
            "empirical {empirical} vs steady-state {expected} (p_gb {p_gb}, p_bg {p_bg})"
        );
        prop_assert_eq!(inj.faults_injected(), hits);
    }

    /// A counter's sampled time series is always monotone — in instants
    /// by construction, in values because counters only go up — no
    /// matter how increments and sample points interleave.
    #[test]
    fn counter_series_is_monotone(
        steps in proptest::collection::vec((0u64..1_000, 0u64..100, 0u64..2), 1..100),
    ) {
        let mut reg = MetricsRegistry::new("shard0");
        let c = reg.counter("events");
        let mut t = 0u64;
        for &(dt, by, take_sample) in &steps {
            reg.inc(c, by);
            t += dt;
            if take_sample == 1 {
                reg.sample(t);
            }
        }
        let series = reg.series("events").expect("series");
        prop_assert!(series.is_monotone());
        prop_assert!(series.points().windows(2).all(|w| w[0].0 <= w[1].0));
        let total: u64 = steps.iter().map(|&(_, by, _)| by).sum();
        prop_assert_eq!(reg.value("events"), Some(total));
    }

    /// Merging a registry with a later continuation of itself (every
    /// sample instant ≥ the first segment's last) is exactly series
    /// concatenation, and the merged counter is the sum of both finals.
    #[test]
    fn registry_merge_of_continuation_equals_concat(
        seg_a in proptest::collection::vec((0u64..500, 0u64..50), 1..60),
        seg_b in proptest::collection::vec((0u64..500, 0u64..50), 1..60),
    ) {
        let record = |steps: &[(u64, u64)], start: u64| {
            let mut reg = MetricsRegistry::new("s");
            let c = reg.counter("n");
            let g = reg.gauge("depth");
            let mut t = start;
            for &(dt, by) in steps {
                reg.inc(c, by);
                reg.set(g, by);
                t += dt;
                reg.sample(t);
            }
            (reg, t)
        };
        let (mut a, a_end) = record(&seg_a, 0);
        // The continuation starts where the first segment ended.
        let (b, _) = record(&seg_b, a_end);
        let mut concat: Vec<(u64, u64)> = a.series("n").expect("series").points().to_vec();
        concat.extend_from_slice(b.series("n").expect("series").points());
        let (fa, fb) = (a.value("n").expect("n"), b.value("n").expect("n"));
        a.merge(&b);
        prop_assert_eq!(a.series("n").expect("series").points(), concat.as_slice());
        prop_assert_eq!(a.value("n"), Some(fa + fb), "counters add on merge");
        let hwm = seg_a.iter().chain(&seg_b).map(|&(_, by)| by).max().unwrap_or(0);
        prop_assert_eq!(a.hwm("depth"), Some(hwm), "gauge hwm is the max over both segments");
    }
}
