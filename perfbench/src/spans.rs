//! The benchmark's own host-time tracing: spans recorded around each call
//! the benchmark makes into a layer of the library.
//!
//! A span carries its name, start, end, parent and the id of the operation
//! (one `train()` call, one predict pass, one probe) it belongs to. Spans
//! stay in memory and are written out when the run ends. A tracer that is
//! off records nothing, so untraced runs pay one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "toggle tracing between operations only"
        );
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. With no span open it starts a new operation id;
    /// otherwise it is a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close a span, attaching the counts measured at this boundary.
    pub fn end(&mut self, id: SpanId, counts: &[(&'static str, f64)]) {
        let Some(idx) = id else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        let s = &mut self.spans[idx];
        s.end_ns = now;
        s.counts.extend_from_slice(counts);
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children nest inside their parent, so their durations add).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.op, s.name, s.start_ns, s.end_ns, own[i]
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Per span name: calls, total and self milliseconds, sorted by self
    /// time, as text lines.
    pub fn summary(&self) -> String {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.end_ns - s.start_ns;
                    r.3 += own[i];
                }
                None => rows.push((s.name, 1, s.end_ns - s.start_ns, own[i])),
            }
        }
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, calls, total, own) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {calls:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}
