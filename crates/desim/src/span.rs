//! Span tracing: timed intervals and a Chrome trace-event exporter.
//!
//! A [`Span`] is a named interval on a named *track* (usually one track
//! per component); an [`Observer`](crate::Observer) keeps the most recent
//! ones in a bounded ring. [`chrome_trace`] renders any span set as
//! Chrome trace-event JSON (`[{"name","ph":"B"/"E","ts","pid","tid"},…]`),
//! loadable in Perfetto or `chrome://tracing`. Overlapping spans on one
//! track are spread over per-track *lanes* (one `tid` each) so the
//! begin/end pairs on every `tid` nest properly.

use crate::json::Json;
use crate::metrics::CounterSeries;
use crate::time::SimTime;

/// A completed timed interval on a track.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Track key — one timeline row group, usually a component.
    pub track: String,
    /// What happened during the interval.
    pub name: String,
    /// Interval start (virtual time).
    pub begin: SimTime,
    /// Interval end; `begin == end` marks an instantaneous event.
    pub end: SimTime,
}

/// Default capacity of an observer's span ring: enough for every span
/// of the bench runs while bounding long soak runs to a few MiB.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// Render spans as Chrome trace-event JSON.
///
/// All events share `pid` 0. Each track gets one `tid` per *lane*:
/// spans are laid onto the first lane whose previous span has ended, so
/// overlapping spans land on different `tid`s and every `tid` carries a
/// properly nested, time-ordered `B`/`E` sequence. A `"M"` (metadata)
/// `thread_name` event labels each lane with its track name.
pub fn chrome_trace<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Json {
    chrome_trace_with_counters(spans, &[])
}

/// Render spans plus sampled metric series as Chrome trace-event JSON.
///
/// Spans are laid out exactly as in [`chrome_trace`]; each entry of
/// `counters` then gets its own `tid` after the span lanes, labelled with
/// the series name, carrying one `"C"` (counter) event per sample with
/// the value in `args.value`. Perfetto renders these as live counter
/// tracks — queue depth, window occupancy and stall time over virtual
/// time.
pub fn chrome_trace_with_counters<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    counters: &[CounterSeries],
) -> Json {
    let mut sorted: Vec<&Span> = spans.into_iter().collect();
    sorted.sort_by(|a, b| (a.begin, a.end, &a.track).cmp(&(b.begin, b.end, &b.track)));

    // Track order = first appearance; lanes are per track.
    // lanes[track][lane] = (end time of last span, events on this lane)
    let mut track_order: Vec<&str> = Vec::new();
    let mut lanes: Vec<Vec<(SimTime, Vec<&Span>)>> = Vec::new();
    for s in &sorted {
        let ti = track_order.iter().position(|t| *t == s.track).unwrap_or_else(|| {
            track_order.push(&s.track);
            lanes.push(Vec::new());
            lanes.len() - 1
        });
        let li = lanes[ti].iter().position(|(end, _)| *end <= s.begin).unwrap_or_else(|| {
            lanes[ti].push((SimTime::ZERO, Vec::new()));
            lanes[ti].len() - 1
        });
        lanes[ti][li].0 = s.end;
        lanes[ti][li].1.push(s);
    }

    let mut events: Vec<Json> = Vec::new();
    let mut tid: u64 = 0;
    for (ti, track) in track_order.iter().enumerate() {
        for (lane_idx, (_, lane_spans)) in lanes[ti].iter().enumerate() {
            let label =
                if lane_idx == 0 { (*track).to_string() } else { format!("{track}.{lane_idx}") };
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(tid)),
                ("args", Json::obj([("name", Json::from(label))])),
            ]));
            for s in lane_spans {
                for (ph, ts) in [("B", s.begin), ("E", s.end)] {
                    events.push(Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("cat", Json::from(s.track.as_str())),
                        ("ph", Json::from(ph)),
                        ("ts", Json::from(ts.as_micros_f64())),
                        ("pid", Json::from(0u64)),
                        ("tid", Json::from(tid)),
                    ]));
                }
            }
            tid += 1;
        }
    }
    for counter in counters {
        events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(tid)),
            ("args", Json::obj([("name", Json::from(counter.name.as_str()))])),
        ]));
        for &(t_ns, value) in counter.series.points() {
            events.push(Json::obj([
                ("name", Json::from(counter.name.as_str())),
                ("ph", Json::from("C")),
                ("ts", Json::from(SimTime::from_nanos(t_ns).as_micros_f64())),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(tid)),
                ("args", Json::obj([("value", Json::from(value))])),
            ]));
        }
        tid += 1;
    }
    Json::Arr(events)
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the file (metadata included).
    pub events: usize,
    /// Completed `B`/`E` pairs.
    pub spans: usize,
    /// Distinct `tid`s carrying spans or counter samples.
    pub tids: usize,
    /// `C` (counter) sample events.
    pub counters: usize,
}

/// Validate Chrome trace-event JSON text: it must parse, `ts` must be
/// nondecreasing per `tid`, every `B` must have a matching `E` (same
/// `tid`, LIFO, same name), and every `C` must carry a numeric
/// `args.value`. Accepts both a bare event array and the
/// `{"traceEvents": [...]}` wrapper.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text)?;
    let events = match &doc {
        Json::Arr(events) => events,
        Json::Obj(_) => match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            _ => return Err("object form lacks a \"traceEvents\" array".into()),
        },
        _ => return Err("top level is neither an array nor an object".into()),
    };
    let mut last_ts: std::collections::HashMap<i128, f64> = std::collections::HashMap::new();
    let mut stacks: std::collections::HashMap<i128, Vec<String>> = std::collections::HashMap::new();
    let mut spans = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        if ph == "M" {
            continue;
        }
        if ph != "B" && ph != "E" && ph != "C" {
            return Err(format!("event {i}: unsupported phase {ph:?}"));
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_i128)
            .ok_or_else(|| format!("event {i}: missing integer \"tid\""))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < {prev} on tid {tid}"));
            }
        }
        last_ts.insert(tid, ts);
        if ph == "C" {
            ev.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: counter lacks numeric args.value"))?;
            counters += 1;
            // Counter tracks carry no B/E nesting, but still count as a
            // tid so `tids` reflects every timeline row in the viewer.
            stacks.entry(tid).or_default();
            continue;
        }
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            _ => match stack.pop() {
                Some(open) if open == name => spans += 1,
                Some(open) => {
                    return Err(format!("event {i}: E {name:?} closes B {open:?} on tid {tid}"))
                }
                None => return Err(format!("event {i}: E {name:?} without B on tid {tid}")),
            },
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed B {open:?} on tid {tid}"));
        }
    }
    let tids = stacks.len();
    Ok(TraceCheck { events: events.len(), spans, tids, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::Observer;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let r = Observer::with_capacity(3);
        for i in 0..5u64 {
            r.record("trk", &format!("s{i}"), t(i), t(i + 1));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.snapshot()[0].name, "s2");
    }

    #[test]
    fn export_validates_and_separates_overlap_lanes() {
        let r = Observer::recording();
        // Two overlapping spans on one track must land on two lanes.
        r.record("switch", "cell0", t(0), t(10));
        r.record("switch", "cell1", t(5), t(15));
        r.record("host", "tx", t(2), t(3));
        let text = r.to_chrome_trace().dump();
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.spans, 3);
        assert_eq!(check.tids, 3, "{text}");
    }

    #[test]
    fn sequential_spans_share_a_lane() {
        let r = Observer::recording();
        r.record("link", "p0", t(0), t(5));
        r.record("link", "p1", t(5), t(9));
        let check = validate_chrome_trace(&r.to_chrome_trace().dump()).expect("valid");
        assert_eq!(check.tids, 1);
        assert_eq!(check.spans, 2);
    }

    #[test]
    fn zero_length_spans_are_valid() {
        let r = Observer::recording();
        r.record("c", "dispatch", t(3), t(3));
        r.record("c", "dispatch", t(3), t(3));
        let check = validate_chrome_trace(&r.to_chrome_trace().dump()).expect("valid");
        assert_eq!(check.spans, 2);
    }

    #[test]
    fn sink_clones_share_one_recorder() {
        let sink = Observer::recording();
        let clone = sink.clone();
        clone.record("a", "x", t(0), t(1));
        sink.record("b", "y", t(1), t(2));
        assert_eq!(sink.len(), 2);
        assert!(Observer::disabled().snapshot().is_empty());
        assert!(!Observer::disabled().enabled());
    }

    #[test]
    fn sink_as_tracer_records_dispatch_spans() {
        use crate::component::{downcast, msg, Component, Ctx, Msg};
        use crate::Simulator;

        struct Nop;
        struct Tick;
        impl Component for Nop {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, m: Msg) {
                let _ = downcast::<Tick>(m);
            }
            fn name(&self) -> &str {
                "nop"
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add_component(Nop);
        let sink = Observer::recording();
        sim.observe(&sink);
        sim.send_in(SimDuration::from_micros(7), id, msg(Tick));
        sim.run();
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, format!("nop#{}", id.index()));
        assert_eq!(spans[0].begin, t(7));
        validate_chrome_trace(&sink.to_chrome_trace().dump()).expect("valid");
    }

    #[test]
    fn counter_events_export_and_validate() {
        use crate::metrics::MetricsRegistry;

        let r = Observer::recording();
        r.record("shard0", "window", t(0), t(10));
        let mut reg = MetricsRegistry::new("shard0");
        let g = reg.gauge("queue_depth");
        reg.set(g, 4);
        reg.sample(2_000); // 2 µs
        reg.set(g, 9);
        reg.sample(8_000);
        let doc = chrome_trace_with_counters(r.snapshot().iter(), &reg.counter_series());
        let check = validate_chrome_trace(&doc.dump()).expect("valid trace with counters");
        assert_eq!(check.spans, 1);
        assert_eq!(check.counters, 2);
        assert_eq!(check.tids, 2, "one span lane + one counter track");
        let text = doc.dump();
        assert!(text.contains("\"shard0/queue_depth\""), "{text}");
        assert!(text.contains("\"ph\":\"C\""), "{text}");
        assert!(text.contains("\"value\":9"), "{text}");
    }

    #[test]
    fn validator_rejects_bad_counter_events() {
        // C without args.value.
        let bad = r#"[{"name":"c","ph":"C","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // C with non-numeric value.
        let bad = r#"[{"name":"c","ph":"C","ts":1.0,"pid":0,"tid":0,"args":{"value":"x"}}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Counter ts must still be nondecreasing per tid.
        let bad = r#"[{"name":"c","ph":"C","ts":2.0,"pid":0,"tid":0,"args":{"value":1}},
                      {"name":"c","ph":"C","ts":1.0,"pid":0,"tid":0,"args":{"value":2}}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // A well-formed counter-only trace passes.
        let good = r#"[{"name":"c","ph":"C","ts":1.0,"pid":0,"tid":0,"args":{"value":1}}]"#;
        let check = validate_chrome_trace(good).expect("valid");
        assert_eq!(check.counters, 1);
        assert_eq!(check.tids, 1);
        assert_eq!(check.spans, 0);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // E without B.
        let bad = r#"[{"name":"x","ph":"E","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Unclosed B.
        let bad = r#"[{"name":"x","ph":"B","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // ts decreasing on one tid.
        let bad = r#"[{"name":"x","ph":"B","ts":2.0,"pid":0,"tid":0},
                      {"name":"x","ph":"E","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Mismatched nesting.
        let bad = r#"[{"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0},
                      {"name":"b","ph":"E","ts":2.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // The wrapper form is accepted.
        let good = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0},
                                      {"name":"a","ph":"E","ts":2.0,"pid":0,"tid":0}]}"#;
        assert_eq!(validate_chrome_trace(good).expect("valid").spans, 1);
    }
}
