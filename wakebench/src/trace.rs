//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the simulator itself carries no spans. A span's self
//! time is its duration minus the part of its interval that its child spans
//! cover, so nested layers are never counted twice.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `async.run`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin (`NaN` while open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The set-up repetition, reload repetition, trial or pass this span
    /// belongs to.
    pub trial: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

/// The recorder. When disabled, `begin`/`end` record nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u32,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling tracing inside a span");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with trial id `trial`.
    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans must nest");
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every recorded span, index-aligned with the spans.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time((s.start, s.end), kids))
            .collect()
    }

    /// For each trial id that has spans named `name`, the sum of their self
    /// times, in ascending trial order.
    pub fn per_trial(&self, name: &str) -> Vec<f64> {
        let self_times = self.self_times();
        let mut sums: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times) {
            if s.name == name {
                *sums.entry(s.trial).or_default() += t;
            }
        }
        sums.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{t:.9}}}",
                s.name, s.trial, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Duration of `span` minus the length of the union of `children`, each
/// clipped to the span.
pub fn self_time(span: (f64, f64), mut children: Vec<(f64, f64)>) -> f64 {
    let (start, end) = span;
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = start;
    for (a, b) in children {
        let a = a.max(reach);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0.0, 10.0), vec![(1.0, 2.0), (5.0, 7.0)]), 7.0);
        // Overlapping children count their union once.
        assert_eq!(self_time((0.0, 10.0), vec![(1.0, 4.0), (3.0, 6.0)]), 5.0);
        // A child inside another child adds nothing.
        assert_eq!(self_time((0.0, 10.0), vec![(2.0, 8.0), (3.0, 4.0)]), 4.0);
        // Children are clipped to the parent.
        assert_eq!(self_time((2.0, 6.0), vec![(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Order does not matter.
        assert_eq!(self_time((0.0, 10.0), vec![(5.0, 7.0), (1.0, 2.0)]), 7.0);
        assert_eq!(self_time((0.0, 4.0), Vec::new()), 4.0);
    }

    #[test]
    fn spans_nest_and_group_by_trial() {
        let mut tr = Tracer::new(true);
        for trial in 0..3 {
            tr.set_trial(trial);
            let outer = tr.begin("outer");
            tr.span("inner", || std::hint::black_box(0));
            tr.span("inner", || std::hint::black_box(0));
            tr.end(outer);
        }
        assert_eq!(tr.spans.len(), 9);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.per_trial("inner").len(), 3);
        let outer = tr.per_trial("outer");
        let selfs = tr.self_times();
        let inner0 = selfs[1] + selfs[2];
        let whole0 = tr.spans[0].end - tr.spans[0].start;
        assert!((outer[0] - (whole0 - inner0)).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x");
        tr.end(id);
        assert!(tr.spans.is_empty());
        assert!(tr.per_trial("x").is_empty());
    }
}
