//! Execution timelines and Chrome-trace export.
//!
//! nvprof's contemporary GUI (nvvp) rendered kernel/transfer timelines;
//! the modern equivalent is the Chrome trace-event format that
//! `chrome://tracing` and Perfetto consume. [`Timeline`] records the
//! modeled execution as ordered spans and serializes to that format, so
//! a plan's schedule can be inspected visually.

use serde::{Deserialize, Serialize};

/// Category of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// GPU kernel execution.
    Kernel,
    /// Host↔device copy (visible portion).
    Transfer,
}

impl SpanKind {
    fn track(&self) -> u32 {
        match self {
            SpanKind::Kernel => 1,
            SpanKind::Transfer => 2,
        }
    }

    fn category(&self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "transfer",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Display name.
    pub name: String,
    /// Span kind.
    pub kind: SpanKind,
    /// Start offset from timeline origin, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub duration_us: f64,
}

/// An append-only execution timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    cursor_us: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Append a span of `duration_ms` at the current cursor (serial
    /// schedule, like a single-stream CUDA program) and advance.
    pub fn push(&mut self, name: impl Into<String>, kind: SpanKind, duration_ms: f64) {
        let duration_us = duration_ms * 1e3;
        self.spans.push(Span {
            name: name.into(),
            kind,
            start_us: self.cursor_us,
            duration_us,
        });
        self.cursor_us += duration_us;
    }

    /// Recorded spans in schedule order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialize to the Chrome trace-event JSON array format
    /// (`chrome://tracing` / Perfetto / speedscope all accept it).
    pub fn to_chrome_trace(&self) -> String {
        #[derive(Serialize)]
        struct Event<'a> {
            name: &'a str,
            cat: &'static str,
            ph: &'static str,
            ts: f64,
            dur: f64,
            pid: u32,
            tid: u32,
        }
        let events: Vec<Event<'_>> = self
            .spans
            .iter()
            .map(|s| Event {
                name: &s.name,
                cat: s.kind.category(),
                ph: "X", // complete event
                ts: s.start_us,
                dur: s.duration_us,
                pid: 0,
                tid: s.kind.track(),
            })
            .collect();
        serde_json::to_string_pretty(&events).expect("spans are serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_sequential() {
        let mut t = Timeline::new();
        t.push("a", SpanKind::Kernel, 2.0);
        t.push("b", SpanKind::Transfer, 1.0);
        t.push("c", SpanKind::Kernel, 0.5);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].start_us, 0.0);
        assert_eq!(t.spans()[1].start_us, 2000.0);
        assert_eq!(t.spans()[2].start_us, 3000.0);
        assert_eq!(t.cursor_us, 3500.0);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Timeline::new();
        t.push("sgemm", SpanKind::Kernel, 1.5);
        let json = t.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0]["name"], "sgemm");
        assert_eq!(arr[0]["ph"], "X");
        assert_eq!(arr[0]["dur"], 1500.0);
        assert_eq!(arr[0]["cat"], "kernel");
    }

    #[test]
    fn kinds_map_to_distinct_tracks() {
        assert_ne!(SpanKind::Kernel.track(), SpanKind::Transfer.track());
    }

    #[test]
    fn empty_timeline_serializes() {
        let t = Timeline::new();
        assert_eq!(t.cursor_us, 0.0);
        let parsed: serde_json::Value = serde_json::from_str(&t.to_chrome_trace()).unwrap();
        assert!(parsed.as_array().unwrap().is_empty());
    }
}
