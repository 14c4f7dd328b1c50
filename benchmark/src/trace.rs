//! Span recorder for the traced pass. Spans are taken from the
//! benchmark's own files, around calls into each crate's public
//! functions; they stay in memory and are written when the run ends.

use propeller_telemetry::json::obj;
use propeller_telemetry::JsonValue;
use std::cell::{Cell, RefCell};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share this identifier.
    pub op: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded recorder: the benchmark issues one op at a time and
/// every layer call is made from its main thread.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Starts the next op; later spans carry its identifier.
    pub fn next_op(&self) -> u32 {
        self.op.set(self.op.get() + 1);
        self.op.get()
    }

    pub fn op(&self) -> u32 {
        self.op.get()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open at
    /// the time of the call, and returns `f`'s result with the span's
    /// duration in seconds.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let r = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_ns = end;
        let secs = spans[idx].secs();
        (r, secs)
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// Total seconds of the spans named `name` in op `op`.
    pub fn total(&self, op: u32, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Total seconds, in op `op`, of the spans whose parent is a span
    /// named `parent` — the part of `parent` its children account for.
    pub fn children_total(&self, op: u32, parent: &str) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.op == op && s.parent.is_some_and(|p| spans[p].name == parent))
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Every span with its self time: duration minus the part of the
    /// interval its child spans cover.
    pub fn to_json(&self) -> JsonValue {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        JsonValue::Arr(
            spans
                .iter()
                .zip(&child_ns)
                .enumerate()
                .map(|(i, (s, &kids))| {
                    let dur = s.end_ns - s.start_ns;
                    obj([
                        ("id", JsonValue::Num(i as f64)),
                        ("name", JsonValue::Str(s.name.to_string())),
                        ("op", JsonValue::Num(f64::from(s.op))),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                        ),
                        ("start_us", JsonValue::Num(s.start_ns as f64 / 1e3)),
                        ("end_us", JsonValue::Num(s.end_ns as f64 / 1e3)),
                        (
                            "self_us",
                            JsonValue::Num(dur.saturating_sub(kids) as f64 / 1e3),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
