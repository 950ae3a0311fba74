//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, parent span and the block or window
//! id they belong to. Nothing is written while the clock runs; the spans are
//! summarised (busy and self time per name) and written out when the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers, e.g. `"mempool.collect"`.
    pub name: &'static str,
    /// Block number or window index the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Records nested spans; parents are whatever span is open at `begin`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: 0,
            parent,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy and self time per span name.
    pub fn summary(&self) -> Summary {
        assert!(self.open.is_empty(), "summarising with spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut per_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut roots = Vec::new();
        let mut root_ns = 0u64;
        let mut root_children_ns = 0u64;
        for (span, &children) in self.spans.iter().zip(&child_ns) {
            let entry = per_name.entry(span.name).or_default();
            entry.calls += 1;
            entry.busy_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            if span.parent == NO_PARENT {
                root_ns += span.duration_ns();
                root_children_ns += children;
                if !roots.contains(&span.name) {
                    roots.push(span.name);
                }
            }
        }
        Summary {
            per_name,
            roots,
            root_ns,
            gap_ns: root_ns.saturating_sub(root_children_ns),
        }
    }

    /// The spans as JSON lines: one object per span with its name, id,
    /// start and end (ns) and parent index (-1 for a root span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Time one span name accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    per_name: BTreeMap<&'static str, LayerTime>,
    roots: Vec<&'static str>,
    /// Total duration of the root (block or window) spans.
    pub root_ns: u64,
    /// Root time not covered by any direct child span.
    pub gap_ns: u64,
}

impl Summary {
    /// Totals for one span name (zero when it never ran).
    pub fn get(&self, name: &str) -> LayerTime {
        self.per_name.get(name).copied().unwrap_or_default()
    }

    /// Totals of every non-root span name, in name order.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, LayerTime)> + '_ {
        self.per_name
            .iter()
            .filter(|(name, _)| !self.roots.contains(name))
            .map(|(&name, &t)| (name, t))
    }

    /// Busy milliseconds of one span name.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.get(name).busy_ns as f64 / 1e6
    }

    /// Self milliseconds of one span name.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_busy_and_self_time() {
        let mut tr = Tracer::new();
        let root = tr.begin("block", 1);
        let outer = tr.begin("ovm.execute", 1);
        let inner = tr.begin("crypto.verify", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        tr.end(root);
        let s = tr.summary();
        let exec = s.get("ovm.execute");
        let verify = s.get("crypto.verify");
        assert_eq!(exec.calls, 1);
        assert!(exec.busy_ns >= verify.busy_ns);
        assert_eq!(exec.self_ns, exec.busy_ns - verify.busy_ns);
        assert_eq!(s.root_ns, s.get("block").busy_ns);
        assert_eq!(s.gap_ns, s.root_ns - exec.busy_ns);
        let layers: Vec<_> = s.layers().map(|(name, _)| name).collect();
        assert_eq!(layers, ["crypto.verify", "ovm.execute"]);
        assert_eq!(tr.to_jsonl().lines().count(), 3);
        assert_eq!(tr.spans()[2].parent, 1);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tr = Tracer::new();
        let a = tr.begin("a", 0);
        let _b = tr.begin("b", 0);
        tr.end(a);
    }
}
