//! Live kernel metrics: typed counters and gauges in a
//! [`MetricsRegistry`], sampled into per-metric time series.
//!
//! The registry is the observability companion to the span recorder in
//! [`span`](crate::span): spans answer *what happened when*, metrics
//! answer *how much, over time*. A registry holds a flat set of named
//! metrics; the owner bumps them on the hot path (an array index and an
//! add — no hashing, no locking) and calls
//! [`sample`](MetricsRegistry::sample) at interesting instants (the
//! sharded kernel samples once per lookahead window) to append the
//! current value of every metric to its [`TimeSeries`].
//!
//! Two metric kinds, both functions of virtual time only, so every view
//! of a registry is byte-reproducible across runs and hosts:
//!
//! * **Counter** — monotone cumulative count (events executed,
//!   cross-shard events). Its sampled series is nondecreasing.
//! * **Gauge** — instantaneous level (queue depth, lookahead
//!   utilization). The registry additionally tracks the high-water mark.
//!
//! An instrumented subsystem publishes its finished registry into the
//! [`Observer`](crate::Observer) it was attached with.

use crate::json::Json;

/// Handle to a counter registered in a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge registered in a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// What a metric measures (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count.
    Counter,
    /// Instantaneous level with a tracked high-water mark.
    Gauge,
}

/// A sampled `(instant, value)` series. Instants are virtual-time
/// nanoseconds for kernel metrics; the series is append-only and ordered
/// by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeSeries {
    points: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. `t` must be ≥ the last sample's instant.
    pub fn push(&mut self, t: u64, value: u64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "time series sampled backwards: {t} after {:?}",
            self.points.last()
        );
        self.points.push((t, value));
    }

    /// The samples, in sampling order.
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether sampled values never decrease (true for counter series).
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[0].1 <= w[1].1)
    }

    /// Merge two series into one ordered by instant. The merge is
    /// *stable* — among equal instants `self`'s samples precede
    /// `other`'s — so merging a series with a later continuation of
    /// itself equals plain concatenation.
    pub fn merge(&self, other: &TimeSeries) -> TimeSeries {
        let mut out = Vec::with_capacity(self.points.len() + other.points.len());
        let (mut a, mut b) = (self.points.iter().peekable(), other.points.iter().peekable());
        loop {
            let from_other = match (a.peek(), b.peek()) {
                (Some(&&(ta, _)), Some(&&(tb, _))) => tb < ta,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (None, None) => break,
            };
            out.extend(if from_other { b.next() } else { a.next() });
        }
        TimeSeries { points: out }
    }
}

#[derive(Clone, Debug)]
struct Metric {
    name: String,
    kind: MetricKind,
    value: u64,
    /// Gauges only: the largest value ever set.
    hwm: u64,
    series: TimeSeries,
}

/// A flat set of named metrics with snapshot sampling (see the module
/// docs). Registration happens once at setup; updates are an array index
/// away from the hot path.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    label: String,
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// A registry labelled `label` (e.g. `"shard0"`); the label prefixes
    /// every exported counter-track name.
    pub fn new(label: impl Into<String>) -> Self {
        MetricsRegistry { label: label.into(), metrics: Vec::new() }
    }

    /// The registry label.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> usize {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name:?} registered twice in {:?}",
            self.label
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            kind,
            value: 0,
            hwm: 0,
            series: TimeSeries::new(),
        });
        self.metrics.len() - 1
    }

    /// Register a counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.register(name, MetricKind::Counter))
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.register(name, MetricKind::Gauge))
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.metrics[id.0].value += by;
    }

    /// Set a gauge, updating its high-water mark.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        let m = &mut self.metrics[id.0];
        m.value = value;
        m.hwm = m.hwm.max(value);
    }

    /// Append the current value of every metric to its series, stamped
    /// with instant `t` (virtual-time nanoseconds for kernel metrics).
    pub fn sample(&mut self, t: u64) {
        for m in &mut self.metrics {
            m.series.push(t, m.value);
        }
    }

    /// Current value of the metric named `name`.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// High-water mark of the gauge named `name`.
    pub fn hwm(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name && m.kind == MetricKind::Gauge).map(|m| m.hwm)
    }

    /// Sampled series of the metric named `name`.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.series)
    }

    /// `(name, kind)` of every registered metric, in registration order.
    pub fn names(&self) -> Vec<(&str, MetricKind)> {
        self.metrics.iter().map(|m| (m.name.as_str(), m.kind)).collect()
    }

    /// Merge a same-schema registry (e.g. a later run segment) into this
    /// one: counters add, gauges take the maximum (and the
    /// maximum high-water mark), series merge by instant. Panics when the
    /// schemas differ — merging is for registries created by the same
    /// instrumentation code.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        assert_eq!(
            self.metrics.len(),
            other.metrics.len(),
            "cannot merge registries with different schemas"
        );
        for (m, o) in self.metrics.iter_mut().zip(&other.metrics) {
            assert!(
                m.name == o.name && m.kind == o.kind,
                "cannot merge metric {:?} with {:?}",
                m.name,
                o.name
            );
            match m.kind {
                MetricKind::Counter => m.value += o.value,
                MetricKind::Gauge => m.value = m.value.max(o.value),
            }
            m.hwm = m.hwm.max(o.hwm);
            m.series = m.series.merge(&o.series);
        }
    }

    /// Summary: final counter values and gauge high-water marks.
    pub fn summary_json(&self) -> Json {
        let mut doc = Json::obj([("label", Json::from(self.label.as_str()))]);
        for m in &self.metrics {
            match m.kind {
                MetricKind::Counter => {
                    doc.push(m.name.as_str(), Json::from(m.value));
                }
                MetricKind::Gauge => {
                    doc.push(format!("{}_hwm", m.name), Json::from(m.hwm));
                }
            }
        }
        doc
    }

    /// The summary plus the number of samples taken.
    pub fn to_json(&self) -> Json {
        let mut doc = self.summary_json();
        doc.push("samples", Json::from(self.metrics.first().map_or(0, |m| m.series.len() as u64)));
        doc
    }

    /// The sampled series as Chrome-trace counter tracks named
    /// `"{label}/{metric}"` (see
    /// [`chrome_trace_with_counters`](crate::span::chrome_trace_with_counters)).
    pub fn counter_series(&self) -> Vec<CounterSeries> {
        self.metrics
            .iter()
            .filter(|m| !m.series.is_empty())
            .map(|m| CounterSeries {
                name: format!("{}/{}", self.label, m.name),
                series: m.series.clone(),
            })
            .collect()
    }
}

/// One exported counter track: a name and its sampled series.
#[derive(Clone, Debug)]
pub struct CounterSeries {
    /// Track name shown in the trace viewer (`"shard0/queue_depth"`).
    pub name: String,
    /// The sampled `(virtual ns, value)` series.
    pub series: TimeSeries,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let mut reg = MetricsRegistry::new("shard0");
        let c = reg.counter("events");
        let g = reg.gauge("queue_depth");
        reg.inc(c, 3);
        reg.inc(c, 2);
        reg.set(g, 7);
        reg.set(g, 4);
        assert_eq!(reg.value("events"), Some(5));
        assert_eq!(reg.value("queue_depth"), Some(4));
        assert_eq!(reg.hwm("queue_depth"), Some(7));
        assert_eq!(reg.hwm("events"), None, "hwm is a gauge concept");
        assert_eq!(reg.value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut reg = MetricsRegistry::new("x");
        reg.counter("n");
        reg.gauge("n");
    }

    #[test]
    fn sampling_builds_per_metric_series() {
        let mut reg = MetricsRegistry::new("shard1");
        let c = reg.counter("events");
        let g = reg.gauge("depth");
        reg.inc(c, 10);
        reg.set(g, 3);
        reg.sample(100);
        reg.inc(c, 5);
        reg.set(g, 1);
        reg.sample(200);
        let events = reg.series("events").expect("series");
        assert_eq!(events.points(), &[(100, 10), (200, 15)]);
        assert!(events.is_monotone());
        let depth = reg.series("depth").expect("series");
        assert_eq!(depth.points(), &[(100, 3), (200, 1)]);
        assert!(!depth.is_monotone());
    }

    #[test]
    fn merge_is_concat_for_a_continuation() {
        let mut a = MetricsRegistry::new("s");
        let c = a.counter("n");
        a.inc(c, 1);
        a.sample(10);
        a.inc(c, 1);
        a.sample(20);
        let mut b = MetricsRegistry::new("s");
        let c2 = b.counter("n");
        b.inc(c2, 4);
        b.sample(30);
        let snapshot_a = a.series("n").expect("series").clone();
        let snapshot_b = b.series("n").expect("series").clone();
        a.merge(&b);
        assert_eq!(a.value("n"), Some(6), "counters add");
        let mut concat = snapshot_a.points().to_vec();
        concat.extend_from_slice(snapshot_b.points());
        assert_eq!(a.series("n").expect("series").points(), concat.as_slice());
    }

    #[test]
    fn merge_interleaves_by_instant_and_maxes_gauges() {
        let mut a = MetricsRegistry::new("s");
        let g = a.gauge("depth");
        a.set(g, 5);
        a.sample(10);
        a.sample(30);
        let mut b = MetricsRegistry::new("s");
        let g2 = b.gauge("depth");
        b.set(g2, 9);
        b.sample(20);
        a.merge(&b);
        let times: Vec<u64> =
            a.series("depth").expect("series").points().iter().map(|p| p.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(a.value("depth"), Some(9), "gauges max");
        assert_eq!(a.hwm("depth"), Some(9));
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn merge_rejects_schema_mismatch() {
        let mut a = MetricsRegistry::new("s");
        a.counter("n");
        let b = MetricsRegistry::new("s");
        a.merge(&b);
    }

    #[test]
    fn summary_json_carries_counters_and_gauge_high_water_marks() {
        let mut reg = MetricsRegistry::new("shard0");
        let c = reg.counter("events");
        let g = reg.gauge("queue_depth");
        reg.inc(c, 42);
        reg.set(g, 9);
        reg.set(g, 2);
        reg.sample(5);
        let s = reg.summary_json().dump();
        assert_eq!(s, r#"{"label":"shard0","events":42,"queue_depth_hwm":9}"#);
        // The full view adds the sample count.
        assert!(reg.to_json().dump().ends_with(r#","samples":1}"#), "{}", reg.to_json().dump());
    }

    #[test]
    fn sink_collects_published_registries() {
        use crate::Observer;

        let sink = Observer::recording();
        let mut reg = MetricsRegistry::new("shard0");
        let c = reg.counter("events");
        reg.inc(c, 1);
        reg.sample(5);
        sink.clone().publish([], vec![reg]);
        let regs = sink.registries();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].value("events"), Some(1));
        let tracks = sink.counter_series();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].name, "shard0/events");

        let off = Observer::disabled();
        off.publish([], vec![MetricsRegistry::new("ignored")]);
        assert!(off.registries().is_empty());
    }
}
