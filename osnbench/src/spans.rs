//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end (ns since
//! the recorder's origin), the span that caused it, and the unit of
//! work it belongs to. Spans stay in memory and are written out when
//! the run ends; self times are derived from them afterwards. With
//! tracing off the recorder only runs the closures.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub unit: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Threads record into their own and the
/// owner merges them with [`Recorder::absorb`] after the join.
pub struct Recorder {
    on: bool,
    origin: Instant,
    thread: u32,
    unit: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            thread: 0,
            unit: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for worker thread `thread`, sharing this one's clock.
    pub fn fork(&self, thread: u32) -> Recorder {
        Recorder {
            on: self.on,
            origin: self.origin,
            thread,
            unit: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Pause (`false`) or resume recording, for the untraced twins of
    /// traced units that measure the tracing overhead.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit: self.unit,
            thread: self.thread,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    /// Run `f` as unit of work `id`: a root span named `name` whose
    /// descendants carry the unit id.
    pub fn unit<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let prev = std::mem::replace(&mut self.unit, id);
        let out = self.span(name, f);
        self.unit = prev;
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Move `other`'s spans into this recorder, re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns().saturating_sub(covered(kids)))
        .collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-unit share of the root span's wall time spent in layer spans
/// (its descendants' self time), for every root span named `root`.
pub fn coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == root && s.dur_ns() > 0)
        .map(|(s, &own)| 1.0 - own as f64 / s.dur_ns() as f64)
        .collect()
}

/// Durations in ms of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 38, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 27, 30, 3]);
        let cov = coverage(&spans, "unit");
        assert_eq!(cov, vec![0.5]);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut rec = Recorder::new(true);
        rec.unit("unit", 7, |r| r.span("layer", |_| ()));
        let mut worker = rec.fork(1);
        worker.unit("unit", 8, |r| r.span("layer", |_| ()));
        rec.absorb(worker);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[1].unit, spans[3].unit), (7, 8));
        assert_eq!(spans[3].thread, 1);
        assert!(Recorder::new(false).span("x", |r| r.spans().is_empty()));
    }
}
