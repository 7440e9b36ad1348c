//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started, and the group (pass) it belongs to. Spans are recorded only
//! while the tracer is enabled and are written out once, when the run
//! ends. A layer's self time is its span's duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: usize,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Pass (join workloads) or ladder pass (serve workloads) the span
    /// belongs to; spans of one pass share it.
    pub group: usize,
    /// Layer-qualified name, e.g. `core.run.windowed_rs`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder. Disabled, [`Tracer::span`] only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    group: usize,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer, recording from the start if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            group: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans opened from now on with `group`.
    pub fn set_group(&mut self, group: usize) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group: self.group,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every recorded span in seconds, grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered[s.id]);
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut o = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                o,
                "  {{\"id\": {}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.group,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        o.push_str("]}\n");
        o
    }
}

/// Run `f` inside a span called `name` and return its result with its
/// host time in seconds. The host time is measured whether or not the
/// tracer records.
pub fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.span(name, |_| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = t.self_times();
        let inner = st["inner"][0];
        let outer = st["outer"][0];
        assert!(inner >= 0.005);
        let outer_total = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        assert!((outer + inner - outer_total).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
