//! The benchmark's own spans: host-time intervals around each call it
//! makes into a workspace crate, kept in memory and written as JSONL when
//! the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run.split` or `race.predict`.
    pub name: String,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iteration: u32,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Nesting follows the closures passed to [`Spans::time`].
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// Start an empty recorder; its clock starts now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Tag the spans recorded from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            iteration: self.iteration,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        (r, self.spans[idx].secs())
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the time its direct
    /// children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// One JSON object per span: id, name, iteration, start/end ns,
    /// parent id (or null) and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_s\":{:.9}}}",
                s.name,
                s.iteration,
                s.start_ns,
                s.end_ns,
                self.self_secs(i)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut sp = Spans::new();
        sp.set_iteration(3);
        let ((), outer) = sp.time("outer", |sp| {
            sp.time("inner", |_| std::hint::black_box((0..1000).sum::<u64>()));
        });
        let s = sp.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].iteration, 3);
        assert!(outer >= s[1].secs());
        assert!(sp.self_secs(0) <= outer);
        assert_eq!(sp.to_jsonl().lines().count(), 2);
    }
}
