//! The in-memory span trace of a traced run, written out when it ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its trace.
pub type SpanId = usize;

/// No parent: a root span.
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Spans of one run, kept in memory.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    span_ns: f64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now, with its per-span cost
    /// calibrated on a scratch trace: two clock reads and a push.
    pub fn new() -> Self {
        const SPANS: usize = 200_000;
        let mut scratch =
            Trace { origin: Instant::now(), spans: Vec::with_capacity(SPANS), span_ns: 0.0 };
        let start = Instant::now();
        for _ in 0..SPANS {
            let id = scratch.begin("calibrate", ROOT);
            scratch.end(id);
        }
        let span_ns = start.elapsed().as_nanos() as f64 / SPANS as f64;
        std::hint::black_box(&scratch);
        Trace { origin: Instant::now(), spans: Vec::new(), span_ns }
    }

    /// The share of `wall_s` seconds the tracer itself cost: the span
    /// count times the calibrated per-span cost.
    pub fn overhead_share(&self, wall_s: f64) -> f64 {
        self.spans.len() as f64 * self.span_ns * 1e-9 / wall_s
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Close a span opened with [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Attach a named number to a span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Write the trace and the run's record as JSON.
    pub fn write(&self, path: &Path, record: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"record\": ");
        out.push_str(record);
        out.push_str(",\n\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let _ = write!(
                out,
                "{}{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns
            );
            if !s.attrs.is_empty() {
                let attrs: Vec<String> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", crate::report::json_number(*v)))
                    .collect();
                let _ = write!(out, ", \"attrs\": {{{}}}", attrs.join(", "));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
