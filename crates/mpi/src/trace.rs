//! A miniature VAMPIR: per-rank communication event traces and summary
//! matrices.
//!
//! The testbed's Metacomputing Tools project extended the VAMPIR trace
//! visualizer for the metacomputing MPI. This module records every
//! point-to-point and collective operation with wall-clock timestamps and
//! produces the analyses VAMPIR is used for: message-count and byte
//! matrices, per-rank communication time, and WAN/intra split.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Kind of traced event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive completion.
    Recv,
    /// Barrier exit.
    Barrier,
    /// Any other collective (bcast/reduce/gather/...).
    Collective,
    /// Dynamic process spawn.
    Spawn,
}

/// One traced event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global rank id of the acting rank.
    pub rank: usize,
    /// Event kind.
    pub kind: EventKind,
    /// Peer global rank (sends/recvs), if any.
    pub peer: Option<usize>,
    /// Payload bytes, if any.
    pub bytes: u64,
    /// Wall-clock seconds since trace start.
    pub at_s: f64,
}

/// Shared trace collector; cloning shares the buffer.
#[derive(Clone)]
pub struct TraceCollector {
    events: Arc<Mutex<Vec<TraceEvent>>>,
    epoch: Instant,
    enabled: bool,
}

impl TraceCollector {
    /// A collector that records events.
    pub fn enabled() -> Self {
        TraceCollector {
            events: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
            enabled: true,
        }
    }

    /// A collector that drops everything (zero overhead beyond a branch).
    pub fn disabled() -> Self {
        TraceCollector {
            events: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
            enabled: false,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event.
    pub fn record(&self, rank: usize, kind: EventKind, peer: Option<usize>, bytes: u64) {
        if !self.enabled {
            return;
        }
        let at_s = self.epoch.elapsed().as_secs_f64();
        self.events.lock().push(TraceEvent { rank, kind, peer, bytes, at_s });
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Build the summary over `n` ranks (global ids `0..n`).
    pub fn summary(&self, n: usize) -> VampirSummary {
        VampirSummary::from_events(&self.events.lock(), n)
    }

    /// Convert the trace to [`gtw_desim::Span`]s: one track per rank, one
    /// zero-length instant per event, named after the operation
    /// (`send->1`, `recv<-0`, `barrier`, ...). Zero-length spans render as
    /// instants in Perfetto and keep the B/E pairing trivially valid.
    pub fn chrome_spans(&self) -> Vec<gtw_desim::Span> {
        use gtw_desim::{time::SimTime, Span};
        self.events
            .lock()
            .iter()
            .map(|e| {
                let name = match (e.kind, e.peer) {
                    (EventKind::Send, Some(p)) => format!("send->{p}"),
                    (EventKind::Send, None) => "send".to_string(),
                    (EventKind::Recv, Some(p)) => format!("recv<-{p}"),
                    (EventKind::Recv, None) => "recv".to_string(),
                    (EventKind::Barrier, _) => "barrier".to_string(),
                    (EventKind::Collective, _) => "collective".to_string(),
                    (EventKind::Spawn, _) => "spawn".to_string(),
                };
                let at = SimTime::from_secs_f64(e.at_s);
                Span { track: format!("rank {}", e.rank), name, begin: at, end: at }
            })
            .collect()
    }

    /// Export the trace as a Chrome trace-event JSON document (one `tid`
    /// per rank), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> gtw_desim::Json {
        gtw_desim::chrome_trace(&self.chrome_spans())
    }
}

/// Aggregated view of a trace (the numbers a VAMPIR message-statistics
/// panel shows).
#[derive(Clone, Debug)]
pub struct VampirSummary {
    /// Ranks covered.
    pub ranks: usize,
    /// `messages[src][dst]` point-to-point message counts.
    pub messages: Vec<Vec<u64>>,
    /// `bytes[src][dst]` point-to-point payload bytes.
    pub bytes: Vec<Vec<u64>>,
    /// Sends per rank.
    pub sends: Vec<u64>,
    /// Receives per rank.
    pub recvs: Vec<u64>,
    /// Collective operations per rank (incl. barriers).
    pub collectives: Vec<u64>,
}

impl VampirSummary {
    /// Aggregate a list of events.
    pub fn from_events(events: &[TraceEvent], n: usize) -> Self {
        let mut s = VampirSummary {
            ranks: n,
            messages: vec![vec![0; n]; n],
            bytes: vec![vec![0; n]; n],
            sends: vec![0; n],
            recvs: vec![0; n],
            collectives: vec![0; n],
        };
        for e in events {
            if e.rank >= n {
                continue;
            }
            match e.kind {
                EventKind::Send => {
                    s.sends[e.rank] += 1;
                    if let Some(p) = e.peer {
                        if p < n {
                            s.messages[e.rank][p] += 1;
                            s.bytes[e.rank][p] += e.bytes;
                        }
                    }
                }
                EventKind::Recv => s.recvs[e.rank] += 1,
                EventKind::Barrier | EventKind::Collective => s.collectives[e.rank] += 1,
                EventKind::Spawn => {}
            }
        }
        s
    }

    /// Total point-to-point messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().flatten().sum()
    }

    /// Total point-to-point payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// JSON rendering, in the same machine-readable report format the
    /// network simulator emits (`gtw_desim::Json`), so MPI traces and
    /// network run reports can land in one dump.
    pub fn to_json(&self) -> gtw_desim::Json {
        use gtw_desim::Json;
        let matrix =
            |m: &[Vec<u64>]| Json::Arr(m.iter().map(|row| Json::uint_array(row)).collect());
        Json::obj([
            ("ranks", Json::from(self.ranks)),
            ("total_messages", Json::from(self.total_messages())),
            ("total_bytes", Json::from(self.total_bytes())),
            ("messages", matrix(&self.messages)),
            ("bytes", matrix(&self.bytes)),
            ("sends", Json::uint_array(&self.sends)),
            ("recvs", Json::uint_array(&self.recvs)),
            ("collectives", Json::uint_array(&self.collectives)),
        ])
    }

    /// Render the message matrix as an aligned text table (what the
    /// benches print).
    pub fn message_matrix_table(&self) -> String {
        let mut out = String::from("src\\dst");
        for d in 0..self.ranks {
            out.push_str(&format!("{d:>8}"));
        }
        out.push('\n');
        for (srow, row) in self.messages.iter().enumerate() {
            out.push_str(&format!("{srow:>7}"));
            for v in row {
                out.push_str(&format!("{v:>8}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let t = TraceCollector::enabled();
        t.record(0, EventKind::Send, Some(1), 100);
        t.record(1, EventKind::Recv, Some(0), 100);
        t.record(0, EventKind::Send, Some(1), 50);
        t.record(0, EventKind::Barrier, None, 0);
        let s = t.summary(2);
        assert_eq!(s.messages[0][1], 2);
        assert_eq!(s.bytes[0][1], 150);
        assert_eq!(s.sends[0], 2);
        assert_eq!(s.recvs[1], 1);
        assert_eq!(s.collectives[0], 1);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 150);
    }

    #[test]
    fn disabled_collector_drops_events() {
        let t = TraceCollector::disabled();
        t.record(0, EventKind::Send, Some(1), 100);
        assert!(t.events().is_empty());
        assert_eq!(t.summary(2).total_messages(), 0);
    }

    #[test]
    fn timestamps_monotone() {
        let t = TraceCollector::enabled();
        for _ in 0..10 {
            t.record(0, EventKind::Send, Some(0), 1);
        }
        let ev = t.events();
        for w in ev.windows(2) {
            assert!(w[1].at_s >= w[0].at_s);
        }
    }

    #[test]
    fn matrix_table_renders() {
        let t = TraceCollector::enabled();
        t.record(0, EventKind::Send, Some(1), 8);
        let table = t.summary(2).message_matrix_table();
        assert!(table.contains("src\\dst"));
        assert!(table.lines().count() == 3);
    }

    #[test]
    fn summary_json_round_trips_counts() {
        let t = TraceCollector::enabled();
        t.record(0, EventKind::Send, Some(1), 100);
        t.record(1, EventKind::Recv, Some(0), 100);
        let j = t.summary(2).to_json().dump();
        assert!(j.contains("\"ranks\":2"), "{j}");
        assert!(j.contains("\"total_messages\":1"), "{j}");
        assert!(j.contains("\"messages\":[[0,1],[0,0]]"), "{j}");
        assert!(j.contains("\"sends\":[1,0]"), "{j}");
    }

    #[test]
    fn chrome_export_one_tid_per_rank() {
        let t = TraceCollector::enabled();
        t.record(0, EventKind::Send, Some(1), 100);
        t.record(1, EventKind::Recv, Some(0), 100);
        t.record(0, EventKind::Barrier, None, 0);
        t.record(1, EventKind::Barrier, None, 0);
        let spans = t.chrome_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().any(|s| s.track == "rank 0" && s.name == "send->1"));
        assert!(spans.iter().any(|s| s.track == "rank 1" && s.name == "recv<-0"));
        let doc = t.to_chrome_trace().dump();
        let check = gtw_desim::validate_chrome_trace(&doc).expect("valid Chrome trace");
        assert_eq!(check.spans, 4);
        assert_eq!(check.tids, 2);
    }

    #[test]
    fn out_of_range_ranks_ignored() {
        let t = TraceCollector::enabled();
        t.record(9, EventKind::Send, Some(1), 8);
        t.record(0, EventKind::Send, Some(9), 8);
        let s = t.summary(2);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.sends[0], 1); // send counted, matrix cell skipped
    }
}
