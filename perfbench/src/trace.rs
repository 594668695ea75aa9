//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Tracing is off in the runs that measure end-to-end metrics; a separate
//! `--trace 1` run records spans and reports per-layer numbers from them.
//! Spans stay in memory and are written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: what ran, when, and which span caused it. Spans of
/// one request share `group` (0 for spans outside any request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Disabled recorders do no clock reads and keep nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.spans.borrow().len() as u32;
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            group: 0,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adopt spans recorded elsewhere (a generator thread's request spans),
    /// renumbering them after the spans already held and hanging their roots
    /// under the innermost open span.
    pub fn adopt(&self, foreign: Vec<Span>) {
        if !self.on {
            return;
        }
        let base = self.spans.borrow().len() as u32;
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        for mut s in foreign {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            spans.push(s);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time(s, &spans))
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.dur_ns() - covered
}

/// A generator thread's recorder for request spans: plain pushes into a
/// thread-owned vector, merged into the [`Tracer`] after the step.
#[derive(Default)]
pub struct RequestSpans {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl RequestSpans {
    /// Record a finished interval; returns its id for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "s",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let all = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            // a grandchild is covered by its parent already
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_time(&all[0], &all), 100 - 20 - 40);
        assert_eq!(self_time(&all[2], &all), 40 - 10);
        assert_eq!(self_time(&all[3], &all), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // two children from parallel workers overlap on [40, 60]; one child
        // spills past the parent's end and is clipped
        let all = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 20, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_time(&all[0], &all), 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_adopts() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", || {
            t.span("inner", || std::hint::black_box(1 + 1));
            let mut rs = RequestSpans {
                on: true,
                spans: Vec::new(),
            };
            let root = rs.push("request", 7, None, 5, 9);
            rs.push("client.wait", 7, root, 6, 8);
            t.adopt(rs.spans);
        });
        assert_eq!(t.len(), 4);
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0), "inner nests under outer");
        assert_eq!(
            spans[2].parent,
            Some(0),
            "adopted root hangs under the open span"
        );
        assert_eq!(spans[3].parent, Some(2), "adopted child keeps its parent");
        assert_eq!(spans[3].group, 7);
        drop(spans);
        assert_eq!(t.self_times("request"), vec![2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", || 5), 5);
        t.adopt(vec![span(0, None, 0, 1)]);
        assert_eq!(t.len(), 0);
    }
}
