//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the system, written out as JSONL when the run ends.
//!
//! Spans are taken from outside the program: a span covers one call into a
//! layer's public function, timed on the benchmark's thread. Work a layer
//! does inside another layer's call (Eq. 2-4 scaling inside the profiling
//! sweep, the simulator inside the runner) is attributed to the outer span.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::process_cpu_s;
use crate::json::quote;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (closed-loop request) the span belongs to.
    pub op: u64,
    /// Module name of the layer called (`sweep`, `store`, ...).
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Process CPU seconds spent during the span (only for spans recorded
    /// with [`Tracer::span_cpu`]).
    pub cpu_s: Option<f64>,
}

/// Records spans while enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts the next operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.record(layer, name, false, f)
    }

    /// [`Self::span`] that also records the process CPU time the call used.
    pub fn span_cpu<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.record(layer, name, true, f)
    }

    fn record<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        cpu: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let cpu0 = cpu.then(process_cpu_s);
        let start = Instant::now();
        self.spans.push(Span {
            op: self.op,
            layer,
            name: name.to_string(),
            start_ns: nanos(start - self.t0),
            dur_ns: 0,
            parent: self.stack.last().copied(),
            cpu_s: None,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let dur_ns = nanos(start.elapsed());
        if let Some(s) = self.spans.get_mut(idx) {
            s.dur_ns = dur_ns;
            s.cpu_s = cpu0.map(|c| process_cpu_s() - c);
        }
        out
    }

    /// Forgets the open spans after a panic unwound through them.
    pub fn unwind(&mut self) {
        self.stack.clear();
    }

    /// Durations in milliseconds of every span named `name` in `layer`.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.matching(layer, name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    pub fn matching<'a>(&'a self, layer: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Seconds each layer spent in its own spans during operations (set-up
    /// spans, recorded before the first operation, are left out), excluding
    /// the time its child spans cover.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *p += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns).filter(|(s, _)| s.op > 0) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_ns.saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"workload\": {}, \"op\": {}, \"id\": {id}, \"layer\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}, \"parent\": {}}}\n",
                quote(workload),
                s.op,
                quote(s.layer),
                quote(&s.name),
                s.start_ns,
                s.dur_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracers_record_nothing() {
        let mut tr = Tracer::new();
        tr.span("bench", "op", |tr| tr.span("sweep", "x", |_| ()));
        assert!(tr.spans.is_empty());
        tr.set_enabled(true);
        tr.next_op();
        tr.span("bench", "op", |tr| {
            tr.span("sweep", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = &tr.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        let st = tr.self_time_s();
        assert!(st["sweep"] >= 0.02);
        assert!(st["bench"] < st["sweep"], "{st:?}");
        let jsonl = tr.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("valid JSON line");
        }
    }
}
