//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each product layer from the
//! benchmark's files (in-program `gcnn-trace` spans are deliberately
//! not read). They live in a buffer allocated before the traced window
//! opens — recording never allocates — and are written out as
//! Chrome-trace JSON when the run ends.
//!
//! Two kinds of child span exist. A *nested* span is opened while its
//! parent is open on the same thread. A *replayed* span is measured
//! after the parent closed, by re-issuing the kernel calls the parent
//! made below its public entry point, and is attached to the parent by
//! id. Both subtract from the parent's self time.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; [`SpanId::NONE`] when the buffer
/// was full and the span was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Iteration (or request) the span belongs to.
    pub iter: u32,
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer.
pub struct Recorder {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    iter: u32,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans; timestamps count
    /// from `origin` so several threads' recorders share a time base.
    pub fn new(capacity: usize, origin: Instant, tid: u32) -> Self {
        Recorder {
            origin,
            tid,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            iter: 0,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to iteration `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, name: &'static str, parent: SpanId, replayed: bool) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            iter: self.iter,
            replayed,
        });
        id
    }

    /// Open a nested span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied().unwrap_or(SpanId::NONE);
        let id = self.push(name, parent, false);
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = now;
        }
    }

    /// Run `body` inside a nested span.
    pub fn scope<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.begin(name);
        let out = body(self);
        self.end(id);
        out
    }

    /// Run `body` as a replayed child of the already closed `parent`.
    pub fn replay<R>(&mut self, parent: SpanId, name: &'static str, body: impl FnOnce() -> R) -> R {
        let id = self.push(name, parent, true);
        let out = body();
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = now;
        }
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Nested children cannot overlap (one thread, closed
/// innermost-first); replayed children are re-measurements, so their
/// sum may exceed the parent and the result is clamped at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = covered.get_mut(s.parent.0 as usize) {
            *c += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Aggregate spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns;
    }
    out
}

/// Most events written per trace file (about 10 MB), so a serving
/// run's hundreds of thousands of request spans do not produce a file
/// nobody can open. The aggregated metrics use every recorded span.
const MAX_TRACE_EVENTS: usize = 60_000;

/// Write recorders as Chrome-trace JSON (`chrome://tracing`, Perfetto).
/// Replayed spans go to a track of their own (`tid + 100`): their
/// timestamps are when the replay ran, not when the parent did.
pub fn write_chrome_trace(path: &Path, recorders: &[&Recorder]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0usize;
    let mut skipped = 0u64;
    out.write_all(b"{\"traceEvents\":[\n")?;
    for rec in recorders {
        skipped += rec.dropped;
        for (i, s) in rec.spans.iter().enumerate() {
            if written == MAX_TRACE_EVENTS {
                skipped += 1;
                continue;
            }
            if written > 0 {
                out.write_all(b",\n")?;
            }
            let tid = rec.tid + if s.replayed { 100 } else { 0 };
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"iter\":{}}}}}",
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                if s.parent == SpanId::NONE { -1 } else { i64::from(s.parent.0) },
                s.iter,
            )?;
            written += 1;
        }
    }
    write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_not_written\":{skipped}}}}}\n"
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId, replayed: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("iter", 0, 100, SpanId::NONE, false),
            span("conv", 10, 70, SpanId(0), false),
            span("relu", 70, 90, SpanId(0), false),
            span("gemm", 20, 60, SpanId(1), false), // grandchild of iter
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
        let agg = aggregate(&spans);
        assert_eq!(
            agg["iter"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(agg["conv"].self_ns, 20);
    }

    #[test]
    fn replayed_children_subtract_and_clamp_at_zero() {
        let spans = [
            span("conv", 0, 50, SpanId::NONE, false),
            span("im2col", 200, 220, SpanId(0), true),
            span("sgemm", 220, 245, SpanId(0), true),
            span("conv", 300, 310, SpanId::NONE, false),
            span("sgemm", 400, 430, SpanId(3), true), // replay slower than parent
        ];
        assert_eq!(self_times(&spans), vec![5, 20, 25, 0, 30]);
        let agg = aggregate(&spans);
        assert_eq!(agg["conv"].total_ns, 60);
        assert_eq!(agg["conv"].self_ns, 5);
        assert_eq!(agg["sgemm"].count, 2);
    }

    #[test]
    fn recorder_links_parents_and_drops_when_full() {
        let mut rec = Recorder::new(3, Instant::now(), 0);
        rec.set_iter(7);
        rec.scope("outer", |r| r.scope("inner", |r| r.scope("leaf", |_| ())));
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, SpanId::NONE);
        assert_eq!(s[1].parent, SpanId(0));
        assert_eq!(s[2].parent, SpanId(1));
        assert!(s.iter().all(|x| x.iter == 7 && x.end_ns >= x.start_ns));
        let extra = rec.begin("overflow");
        assert_eq!(extra, SpanId::NONE);
        rec.end(extra);
        assert_eq!(rec.dropped(), 1);
        let child = rec.replay(SpanId(0), "replayed", || 1);
        assert_eq!(child, 1);
        assert_eq!(rec.dropped(), 2);
    }
}
