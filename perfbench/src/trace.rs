//! The span recorder of traced runs.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span: name, start, end, parent span and op id.  A root `op` span
//! parents every call of one operation, so a span's *self time* is its
//! duration minus the part of it its children cover.
//!
//! Each thread owns one [`Recorder`]: a buffer allocated before the
//! window opens and summarized when the run ends, so recording is two
//! clock reads and a push.  When the buffer fills, the recorder halves
//! its sample — it keeps only ops whose id is a multiple of a doubled
//! stride — so a long window stays uniformly sampled in bounded memory.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{self, Quantile};

/// No parent / not recording.
const NONE: u32 = u32::MAX;

/// Spans one thread buffers in a traced window (40 B each).
pub const SPAN_CAP: usize = 1 << 19;

/// Spans one op may open; the buffer compacts before it cannot hold
/// another op.
const OP_HEADROOM: usize = 64;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Index of the parent span in the same buffer, or none.
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (a no-op handle when the op is not sampled).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

/// A per-thread span buffer.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    cap: usize,
    stride: u64,
    stack: Vec<u32>,
    op: u64,
    active: bool,
}

impl Recorder {
    /// A recorder holding up to `cap` spans, timed from `epoch`.  A cap
    /// of 0 records nothing.
    pub fn new(epoch: Instant, cap: usize) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
            stride: 1,
            stack: Vec::with_capacity(16),
            op: 0,
            active: false,
        }
    }

    /// The recorder of one thread in a window: [`SPAN_CAP`] spans when
    /// traced, nothing otherwise.
    pub fn for_window(trace: bool) -> Recorder {
        if trace {
            Recorder::new(Instant::now(), SPAN_CAP)
        } else {
            Recorder::off()
        }
    }

    /// A recorder that records nothing (untraced windows).
    pub fn off() -> Recorder {
        Recorder::new(Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start op `op` and open its root `op` span.
    pub fn begin_op(&mut self, op: u64) -> Open {
        self.active = self.cap > 0 && op.is_multiple_of(self.stride);
        self.op = op;
        self.open("op")
    }

    /// Open a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { name, parent, op: self.op, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `span`.
    pub fn close(&mut self, span: Open) {
        if span.0 != NONE {
            self.spans[span.0 as usize].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Close the root span and end the op.
    pub fn end_op(&mut self, root: Open) {
        self.close(root);
        self.active = false;
        if self.cap > 0 && self.spans.len() + OP_HEADROOM > self.cap {
            self.compact();
        }
    }

    /// Double the stride, keeping only ops on it.
    fn compact(&mut self) {
        self.stride *= 2;
        let stride = self.stride;
        let mut remap = vec![NONE; self.spans.len()];
        let mut kept = 0usize;
        for i in 0..self.spans.len() {
            let s = self.spans[i];
            if s.op.is_multiple_of(stride) {
                remap[i] = kept as u32;
                let parent = if s.parent == NONE { NONE } else { remap[s.parent as usize] };
                self.spans[kept] = SpanRec { parent, ..s };
                kept += 1;
            }
        }
        self.spans.truncate(kept);
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// One in `stride` ops is recorded.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it).  Children must follow their
/// parent and appear in start order, as a [`Recorder`] writes them.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut reach: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NONE {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(reach[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
        }
        reach[p] = reach[p].max(s.end_ns);
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Per-name summary of a traced window.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Spans recorded (after sampling).
    pub n: usize,
    pub p50_us: f64,
    /// Highest supported tail up to p99; `None` below 11 samples.
    pub p99: Option<Quantile>,
    /// Self time, scaled up by the sampling stride, over the window.
    pub busy_share: f64,
}

/// Summarize every recorder's spans by name over a `window_ns` window.
pub fn summarize(recorders: &[&Recorder], window_ns: f64) -> BTreeMap<&'static str, SpanSummary> {
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rec in recorders {
        let selfs = self_times(rec.spans());
        for (s, self_ns) in rec.spans().iter().zip(selfs) {
            durs.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
            *busy.entry(s.name).or_default() += self_ns as f64 * rec.stride() as f64;
        }
    }
    durs.into_iter()
        .map(|(name, d)| {
            let d = stats::sorted(d);
            let summary = SpanSummary {
                n: d.len(),
                p50_us: stats::median(&d).unwrap_or(0.0),
                p99: stats::tail(&d, 0.99),
                busy_share: busy[name] / window_ns,
            };
            (name, summary)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { name, parent, op: 0, start_ns, end_ns }
    }

    #[test]
    fn parent_self_time_excludes_children() {
        let spans = [
            span("op", NONE, 0, 100),
            span("a", 0, 10, 40),
            span("a.inner", 1, 15, 25),
            span("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = [span("op", NONE, 0, 100), span("a", 0, 10, 60), span("b", 0, 50, 130)];
        // The union of children inside the parent is [10, 100).
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_compacts_uniformly() {
        let mut rec = Recorder::new(Instant::now(), 4 * OP_HEADROOM);
        for op in 0..1000u64 {
            let root = rec.begin_op(op);
            let a = rec.open("a");
            rec.close(a);
            let b = rec.open("b");
            rec.close(b);
            rec.end_op(root);
        }
        assert!(rec.stride() > 1);
        assert!(rec.spans().len() <= 4 * OP_HEADROOM);
        for s in rec.spans() {
            assert_eq!(s.op % rec.stride(), 0);
            if s.name == "op" {
                assert_eq!(s.parent, NONE);
            } else {
                assert_eq!(rec.spans()[s.parent as usize].name, "op");
                assert_eq!(rec.spans()[s.parent as usize].op, s.op);
            }
        }
        let names: Vec<_> = summarize(&[&rec], 1e9).into_keys().collect();
        assert_eq!(names, vec!["a", "b", "op"]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let root = rec.begin_op(0);
        let a = rec.open("a");
        rec.close(a);
        rec.end_op(root);
        assert!(rec.spans().is_empty());
    }
}
