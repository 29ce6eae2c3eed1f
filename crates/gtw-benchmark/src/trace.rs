//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (open it in Perfetto). Every span carries its op
//! index, so the spans of one op share an identifier, and its parent, so
//! a layer's self time is its span minus its children. Spans inside the
//! program are a later issue: here they wrap the adapter calls only.

use std::time::Instant;

use gtw_desim::Json;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the first dotted component of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Name of the span the driver wraps around each traced op.
pub const ROOT: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Record spans from now on (or stop). Only the traced ops of a
    /// traced run are recorded; end-to-end runs never enable this.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            assert_eq!(self.stack.pop(), Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Share of the op spans' time that their direct children cover.
    pub fn coverage(&self) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            match s.parent {
                None if s.name == ROOT => root_ns += s.ns(),
                Some(p) if self.spans[p].name == ROOT => child_ns += s.ns(),
                _ => {}
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            child_ns as f64 / root_ns as f64
        }
    }

    /// Chrome trace-event JSON: `B`/`E` pairs on one track, in time
    /// order, nested as recorded. The format `trace_check` validates.
    pub fn to_chrome_trace(&self) -> Json {
        assert!(self.stack.is_empty(), "exported with open spans");
        // Spans are recorded in begin order and closed innermost first,
        // so walking them in that order nests correctly
        // without sorting by time stamps that may tie.
        let mut events = vec![Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(0u64)),
            ("args", Json::obj([("name", Json::from("driver"))])),
        ])];
        let mut open: Vec<usize> = Vec::new();
        let close = |events: &mut Vec<Json>, i: usize| {
            events.push(self.event(i, "E", self.spans[i].end_ns));
        };
        for i in 0..self.spans.len() {
            while let Some(&top) = open.last() {
                if self.spans[i].parent == Some(top) {
                    break;
                }
                close(&mut events, top);
                open.pop();
            }
            events.push(self.event(i, "B", self.spans[i].start_ns));
            open.push(i);
        }
        while let Some(top) = open.pop() {
            close(&mut events, top);
        }
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::from("ns"))])
    }

    fn event(&self, i: usize, ph: &str, at_ns: u64) -> Json {
        let s = &self.spans[i];
        Json::obj([
            ("name", Json::from(s.name)),
            ("cat", Json::from(s.layer())),
            ("ph", Json::from(ph)),
            ("ts", Json::from(at_ns as f64 / 1e3)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(0u64)),
            (
                "args",
                Json::obj([
                    ("op", Json::from(s.op)),
                    ("span", Json::from(i)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_a_trace_the_checker_accepts() {
        let mut tr = Tracer::new();
        // Disabled: nothing is recorded.
        tr.span("ignored", || ());
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        for op in 0..3 {
            tr.set_op(op);
            let root = tr.begin(ROOT);
            tr.span("net.aal5.segment", || ());
            let run = tr.begin("desim.run");
            tr.span("desim.inner", || ());
            tr.end(run);
            tr.end(root);
        }
        assert_eq!(tr.spans().len(), 12);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[3].parent, Some(2));
        assert_eq!(tr.spans()[1].layer(), "net");
        assert_eq!(tr.spans()[5].op, 1);
        assert_eq!(tr.durations_ns("desim.run").len(), 3);
        assert!(tr.coverage() <= 1.0);
        let text = tr.to_chrome_trace().pretty();
        let check = gtw_desim::validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.spans, 12);
    }
}
