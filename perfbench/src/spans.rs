//! The traced run's span recorder: spans are opened and closed by the
//! benchmark around each layer call, kept in memory, and reduced at the
//! end to a per-layer self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `compile` or `replay.stack`.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (sweep, program or request) the span belongs to.
    pub op: u64,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans plus the open-span stack; single-threaded by design, since
/// every workload runs on one worker. A tracer made with
/// [`Tracer::off`] takes the same calls and records nothing, so a pass
/// run through it is the untraced twin of the same pass traced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    recording: bool,
}

/// Per-layer totals of a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations, children included.
    pub total_s: f64,
    /// Summed self time: duration minus direct children.
    pub self_s: f64,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            recording: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            recording: false,
            ..Self::new()
        }
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records a span measured elsewhere (a phase split the program
    /// reports) as a child of span `parent`, starting `offset` into it.
    pub fn measured(&mut self, name: &'static str, parent: usize, offset: Duration, dur: Duration) {
        if !self.recording {
            return;
        }
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name,
            start,
            end: start + dur,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
    }

    /// Summed duration of the spans named `name`, children included.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64())
            .sum()
    }

    /// Per-name totals and self times, plus the summed duration of the
    /// root spans (everything the spans attribute).
    pub fn layers(&self) -> (BTreeMap<&'static str, LayerTime>, f64) {
        let mut child_s = vec![0.0f64; self.spans.len()];
        let mut roots = 0.0;
        for s in &self.spans {
            match s.parent {
                Some(p) => child_s[p] += s.dur().as_secs_f64(),
                None => roots += s.dur().as_secs_f64(),
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.dur().as_secs_f64();
            e.self_s += s.dur().as_secs_f64() - child_s[i];
        }
        (out, roots)
    }

    /// The self-time table for a traced pass of `wall_s` seconds: one
    /// line per layer, then the unattributed remainder, then the total,
    /// which equals `wall_s`.
    pub fn table(&self, wall_s: f64) -> String {
        let (layers, roots) = self.layers();
        let mut t = String::new();
        let _ = writeln!(
            t,
            "{:<24} {:>8} {:>12} {:>12} {:>8}",
            "layer", "spans", "total_s", "self_s", "self%"
        );
        let pct = |x: f64| {
            if wall_s > 0.0 {
                100.0 * x / wall_s
            } else {
                0.0
            }
        };
        let mut sum = 0.0;
        for (name, l) in &layers {
            sum += l.self_s;
            let _ = writeln!(
                t,
                "{name:<24} {:>8} {:>12.6} {:>12.6} {:>7.2}%",
                l.count,
                l.total_s,
                l.self_s,
                pct(l.self_s)
            );
        }
        let un = wall_s - roots;
        let _ = writeln!(
            t,
            "{:<24} {:>8} {:>12} {:>12.6} {:>7.2}%",
            "(unattributed)",
            "",
            "",
            un,
            pct(un)
        );
        let _ = writeln!(
            t,
            "{:<24} {:>8} {:>12} {:>12.6} {:>7.2}%",
            "(wall)",
            "",
            "",
            sum + un,
            pct(sum + un)
        );
        t
    }

    /// The spans as JSON lines (name, start, end, parent, op), times in
    /// microseconds from the recorder's origin.
    pub fn to_jsonl(&self) -> String {
        let mut o = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                o,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            );
        }
        o
    }

    /// Writes the span list to `perfbench/target/perfbench-spans.jsonl`;
    /// a failed write loses only the dump, not the run.
    pub fn save(&self) {
        let path = crate::scratch_dir().join("perfbench-spans.jsonl");
        if let Err(e) = std::fs::write(&path, self.to_jsonl()) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        let root = tr.begin("op");
        spin(Duration::from_millis(2));
        tr.time("child", || spin(Duration::from_millis(3)));
        tr.measured("phase", root, Duration::ZERO, Duration::from_millis(1));
        tr.end(root);
        let (layers, roots) = tr.layers();
        let op = layers["op"];
        let child = layers["child"];
        let phase = layers["phase"];
        assert!((op.self_s + child.self_s + phase.self_s - roots).abs() < 1e-9);
        assert!(child.self_s >= 0.003);
        assert!((phase.self_s - 0.001).abs() < 1e-9);
        assert!(op.self_s < op.total_s);
        assert!((tr.total_s("op") - op.total_s).abs() < 1e-9);
    }

    #[test]
    fn table_adds_up_to_the_wall() {
        let mut tr = Tracer::new();
        tr.set_op(7);
        tr.time("a", || spin(Duration::from_millis(1)));
        let text = tr.table(0.5);
        let wall = text
            .lines()
            .find(|l| l.starts_with("(wall)"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("wall line");
        assert!((wall - 0.5).abs() < 1e-6);
        assert!(tr.to_jsonl().contains("\"op\":7"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let root = tr.begin("op");
        assert_eq!(tr.time("child", || 5), 5);
        tr.measured("phase", root, Duration::ZERO, Duration::from_millis(1));
        tr.end(root);
        assert_eq!(tr.layers().1, 0.0);
        assert!(tr.to_jsonl().is_empty());
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn spans_must_nest() {
        let mut tr = Tracer::new();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
