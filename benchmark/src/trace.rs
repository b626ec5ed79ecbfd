//! Outside-in spans: one span around every call the benchmark makes into
//! a crate, nested workload → pass → cell → call. Spans live in a `Vec`
//! until the run ends and are then written in Chrome trace format.
//! Nothing inside the crates is instrumented; that is a later issue.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: Option<u32>,
}

/// Span recorder. Disabled (the untraced run), every method is a branch
/// and nothing else, so end-to-end metrics never pay for tracing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            id,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// A span around one call into a crate.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Measured cost of recording one span, in seconds: the basis of
    /// `trace.overhead_share.*` (spans recorded × this ÷ pass time).
    pub fn span_cost_s() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(N as usize);
        let start = Instant::now();
        for _ in 0..N {
            t.call("calibrate", || std::hint::black_box(()));
        }
        let cost = start.elapsed().as_secs_f64() / N as f64;
        assert_eq!(std::hint::black_box(&t).spans.len(), N as usize);
        cost
    }

    /// Chrome trace format (`chrome://tracing`, Perfetto): complete
    /// events with the span id and parent in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("workload");
        t.call("call", || ());
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        off.enter("workload");
        assert_eq!(off.call("call", || 7), 7);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
