//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call made from these files, so its duration is what
//! that layer cost the caller. Spans are written out once, at the end.

use crate::report::{median, Report};
use crate::ACCOUNTING_TOLERANCE;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id: spans of one request (or one build) share it.
    pub rid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span id a disabled tracer hands out.
const NO_SPAN: usize = usize::MAX;

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing: the untraced pass of an overhead
    /// measurement runs the same code with it.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its `end`.
    pub fn begin(&mut self, name: &'static str, rid: u64) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rid,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = now;
    }

    /// A span around one call.
    pub fn time<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, rid);
        let out = f();
        self.end(id);
        out
    }

    /// A span from timestamps taken elsewhere (another thread, or a
    /// socket round trip whose ends were stamped by the load generator).
    pub fn record(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Name a span once its call has shown what it was (a cache hit or a
    /// miss, say).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        if let Some(s) = self.spans.get_mut(id) {
            s.name = name;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children may overlap each
    /// other; their union is subtracted once).
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
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times, in milliseconds, of every span named `name`, in order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Durations, in milliseconds, of every span named `name`, in order.
    pub fn dur_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Duration of span `id` in milliseconds (0 for a disabled tracer's).
    pub fn span_ms(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, |s| s.dur_ns() as f64 / 1e6)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"rid":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rid
            )?;
        }
        w.flush()
    }
}

/// Accounting for a served request: its blocking path is parse → registry
/// lookup → engine (→ store audit) → render, timed in-process, plus the
/// reactor and socket share, which is the round trip minus those. The
/// check: the in-process layers do not add up to more than the round trip
/// (median ratio ≤ 1 + tolerance), and the replay's spans cover its path
/// (root self time ≤ tolerance).
pub fn request_accounting(r: &mut Report, t: &Tracer, ratio: &[f64]) {
    let over = (median(ratio) - 1.0).max(0.0);
    let root_dur: f64 = t.dur_ms("replay").iter().sum();
    let root_self: f64 = t.self_ms("replay").iter().sum();
    let uncovered = if root_dur > 0.0 {
        root_self / root_dur
    } else {
        0.0
    };
    let gap = over.max(uncovered);
    r.metric("trace.accounting_gap", gap, "fraction");
    r.check(
        "accounting.request",
        gap <= ACCOUNTING_TOLERANCE,
        format!(
            "in-process layers / round trip: median {:.3}; replay self time uncovered {:.4} \
             (tolerance {ACCOUNTING_TOLERANCE})",
            median(ratio),
            uncovered
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let base = t.t0;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", 0, None, at(0), at(100));
        t.record("a", 0, Some(root), at(10), at(40));
        t.record("b", 0, Some(root), at(30), at(50)); // overlaps a by 10
        t.record("c", 0, Some(root), at(90), at(120)); // sticks out by 20
        let own = t.self_ns();
        assert_eq!(own[root], 50_000_000); // 100 - (40 covered + 10 covered)
        assert_eq!(t.self_ms("a"), vec![30.0]);
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        let inner = t.time("inner", 7, || 3);
        assert_eq!(inner, 3);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[1].rid, 7);
        assert!(t.self_ns()[outer] <= t.spans[outer].dur_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let outer = t.begin("outer", 1);
        assert_eq!(t.time("inner", 1, || 5), 5);
        t.rename(outer, "renamed");
        t.end(outer);
        assert_eq!(t.len(), 0);
        assert_eq!(t.span_ms(outer), 0.0);
    }
}
