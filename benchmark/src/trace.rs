//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written as JSON Lines when the workload is
//! done. All spans of a workload are recorded by the one benchmark thread, so
//! nesting is a stack and children never overlap; a span's self time is its
//! duration minus its direct children's. Spans inside the engine are a later
//! issue.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `css.lower_bound`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Operations the call performed (tuples, lookups, entries).
    pub ops: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the name's first dotted component.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. `f` returns the number of
    /// operations it performed next to its result; spans it opens through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (u64, T)) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.open.push(id);
        let (ops, out) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
        out
    }

    /// Every closed span, in the order they were opened.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per operation of every span called `name`.
    pub fn ns_per_op(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.ops > 0)
            .map(|s| s.duration_ns() as f64 / s.ops as f64)
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \
                 \"ops\": {}}}",
                s.name,
                s.layer(),
                self.workload,
                s.start_ns,
                s.end_ns,
                s.ops
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x.y",
            parent,
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 50, 90),
        ];
        // Root: 100 - 30 - 40; the grandchild only reduces its own parent.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new("w");
        let v = t.span("a.outer", |t| {
            let x = t.span("b.inner", |_| (3, 7));
            t.span("b.inner", |_| (0, ()));
            (1, x + 1)
        });
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].ops), ("a.outer", None, 1));
        assert_eq!((s[1].parent, s[1].ops), (Some(0), 3));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[1].layer(), "b");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        // Spans without operations have no per-operation cost.
        assert_eq!(t.ns_per_op("b.inner").len(), 1);
        let total: u64 = self_times(s).iter().sum();
        assert_eq!(total, s[0].duration_ns());
    }
}
