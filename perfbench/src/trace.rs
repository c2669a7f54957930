//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)` plus the process CPU time spent
//! inside it. Spans stay in memory while the run measures and are written
//! as JSONL when it ends; the per-layer metrics are derived from them. A
//! disabled tracer records nothing, so the untraced run pays one branch per
//! boundary. Counters recorded at the same boundaries (ticks, solves,
//! checkpoints) live beside the spans.

use std::time::Instant;

use crate::clock::process_cpu_s;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.tick`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Process CPU seconds (all threads) spent between start and end.
    pub cpu_s: f64,
}

impl Span {
    /// Wall duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Handle returned by [`Tracer::enter`]; pass it to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. Spans nest: a span entered while another is open is its
/// child.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    cpu_at_enter: Vec<f64>,
    stack: Vec<usize>,
    counters: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            cpu_at_enter: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Start or stop recording; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: 0.0,
        });
        self.cpu_at_enter.push(process_cpu_s());
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the span `open` (the innermost open span).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.cpu_s = process_cpu_s() - self.cpu_at_enter[id];
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    fn counter_mut(&mut self, name: &'static str) -> &mut f64 {
        let i = match self.counters.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.counters.push((name, 0.0));
                self.counters.len() - 1
            }
        };
        &mut self.counters[i].1
    }

    /// Add `v` to counter `name` (while recording).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counter_mut(name) += v;
        }
    }

    /// Raise counter `name` to at least `v` (while recording).
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let c = self.counter_mut(name);
            *c = c.max(v);
        }
    }

    /// Value of counter `name`; 0 when never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"cpu_s\":{}}}\n",
                s.name, s.start_s, s.end_s, s.cpu_s
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_s;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_s() - covered
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// Durations (seconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .collect()
}

/// Sum of `(wall, cpu)` over every span named `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(w, c), s| (w + s.dur_s(), c + s.cpu_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            parent,
            start_s,
            end_s,
            cpu_s: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 5.0), // overlaps `a` by 1 s
            span("leaf", Some(2), 2.5, 3.5),
            span("c", Some(0), 8.0, 12.0), // runs past its parent's end
        ];
        let st = self_times(&spans);
        // op: 10 - union([1,5], [8,10]) = 10 - 6.
        assert!((st[0] - 4.0).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 2.0).abs() < 1e-12);
        // b: grandchild `leaf` is b's child, not op's.
        assert!((st[2] - 2.0).abs() < 1e-12);
        assert!((st[3] - 1.0).abs() < 1e-12);
        assert!((st[4] - 4.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.len(), 5);
        assert_eq!(by_name[0].0, "op");
        let total: f64 = by_name.iter().map(|(_, t)| t).sum();
        // The root's 10 s, plus the 2 s of `c` past its end, plus the 1 s
        // where siblings `a` and `b` overlap (each owns it as self time).
        assert!((total - 13.0).abs() < 1e-12, "{by_name:?}");
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        let v = tr.span("inner", || 7);
        tr.exit(outer);
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert_eq!(tr.to_jsonl().lines().count(), 2);

        tr.add("ticks", 2.0);
        tr.add("ticks", 3.0);
        tr.max("peak", 4.0);
        tr.max("peak", 1.0);
        assert_eq!((tr.counter("ticks"), tr.counter("peak")), (5.0, 4.0));
        assert_eq!(tr.counter("never"), 0.0);

        let mut off = Tracer::new(false);
        let o = off.enter("outer");
        off.span("inner", || ());
        off.exit(o);
        off.add("ticks", 1.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("ticks"), 0.0);
    }
}
