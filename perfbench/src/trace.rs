//! In-memory spans around the calls the traced replay makes into each
//! layer, their self times, and a Chrome trace-event export.
//!
//! Spans are recorded by the benchmark's own code around public calls; the
//! program itself is not instrumented. A disabled tracer records nothing,
//! so the replay can be timed with spans off to measure their overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `train.train_student`.
    pub name: &'static str,
    /// Key frame the call served (shared by every span of one key frame).
    pub kf: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

/// A span recorder. Spans nest through `begin`/`end` pairs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// A started span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder, or a no-op one when `on` is false.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, kf: usize) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            kf,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: usize,
    /// Sum of span durations, seconds.
    pub total: f64,
    /// Sum of self times (duration minus direct children), seconds.
    pub self_time: f64,
}

impl LayerTime {
    /// Mean duration per span, seconds (0 when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the durations of its direct children, which it contains.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_time = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        let entry = out.entry(span.name).or_default();
        let duration = span.end - span.start;
        entry.count += 1;
        entry.total += duration;
        entry.self_time += duration - children;
    }
    out
}

/// Write spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn write_chrome(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"kf\": {}, \"id\": {i}, \"parent\": {}}}}}{}",
            span.name,
            span.start * 1e6,
            (span.end - span.start) * 1e6,
            span.kf,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            if i + 1 < spans.len() { "," } else { "" },
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            kf: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("kf", None, 0.0, 10.0),
            span("train", Some(0), 1.0, 3.0),
            span("encode", Some(0), 4.0, 8.0),
            span("delta", Some(2), 5.0, 6.0),
            span("train", None, 20.0, 21.0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["kf"].self_time, 4.0);
        assert_eq!(t["encode"].self_time, 3.0);
        assert_eq!(t["delta"].self_time, 1.0);
        assert_eq!(t["train"].count, 2);
        assert_eq!(t["train"].total, 3.0);
        assert_eq!(t["train"].self_time, 3.0);
        assert_eq!(t["train"].mean(), 1.5);
        // Self times partition the root's wall time.
        let root_tree: f64 = ["kf", "encode", "delta"]
            .iter()
            .map(|n| t[n].self_time)
            .sum::<f64>()
            + 2.0;
        assert_eq!(root_tree, 10.0);
    }

    #[test]
    fn begin_end_nests_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 7);
        let inner = tracer.begin("inner", 7);
        tracer.end(inner);
        let sibling = tracer.begin("sibling", 7);
        tracer.end(sibling);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.kf == 7));
        let t = layer_times(spans);
        assert!(t["outer"].self_time >= 0.0);

        let mut off = Tracer::new(false);
        let open = off.begin("outer", 0);
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
