//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, the item it worked on (frame or benchmark index),
//! a parent, and start/end times. A span may also carry *inner* time: the
//! summed duration of calls too frequent to record one by one (the
//! workload's `next_event`), measured by a timing wrapper inside the
//! span. Self time is the duration minus what the child spans cover and
//! minus the inner time. Spans stay in memory until the run ends and
//! are then written as JSON lines.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Returned by a disabled tracer; ignored by `end` and `add_inner`.
const NO_SPAN: SpanId = usize::MAX;

/// One recorded span; times in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub inner_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans, or does nothing at all when disabled, so the same
/// code path runs traced and untraced and the difference between the
/// two is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, item: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent: parent.filter(|&p| p != NO_SPAN),
            start_ns,
            end_ns: start_ns,
            inner_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Charges `ns` of inner time (see the module docs) to span `id`.
    pub fn add_inner(&mut self, id: SpanId, ns: u64) {
        if id != NO_SPAN {
            self.spans[id].inner_ns += ns;
        }
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Summed inner time of every span called `name`, in seconds.
    pub fn inner_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.inner_ns as f64 / 1e9)
            .sum()
    }

    /// Self time of every span, indexed like [`spans`](Self::spans):
    /// duration minus the union of its children's intervals (clipped to
    /// the parent) minus its inner time.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered + s.inner_ns)
            })
            .collect()
    }

    /// Summed self time of every span called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&ns, _)| ns as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON line (`id`, `name`, `item`,
    /// `parent`, `start_ns`, `end_ns`, `inner_ns`, `self_ns`).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let own = self.self_ns();
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"inner_ns\":{},\"self_ns\":{}}}",
                s.name, s.item, s.start_ns, s.end_ns, s.inner_ns, own[i]
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            item: 0,
            parent,
            start_ns: start,
            end_ns: end,
            inner_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_inner_time() {
        let mut t = Tracer::new(true);
        let root = 0;
        t.spans.push(span("root", None, 0, 100));
        // Overlapping children cover 10..40 (30 ns), not 40 ns.
        t.spans.push(span("a", Some(root), 10, 30));
        t.spans.push(span("b", Some(root), 20, 40));
        // A child running past its parent counts only inside it.
        t.spans.push(span("c", Some(root), 90, 120));
        t.add_inner(root, 5);
        let own = t.self_ns();
        assert_eq!(own[root], 100 - 30 - 10 - 5);
        assert_eq!(own[1], 20);
        assert_eq!(t.self_s("root"), 55e-9);
        assert_eq!(t.durations_us("a"), vec![0.02]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 1, None);
        t.add_inner(s, 10);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
