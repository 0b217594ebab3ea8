//! Spans around the calls the benchmark makes into each layer.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], so
//! the untraced and the traced run execute the same code; with tracing
//! off `end` only reads the clock. Spans stay in memory until the run
//! ends. A layer's self time is its spans' durations minus the durations
//! of their child spans.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request (or one iteration) share this.
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span.
pub struct Open {
    id: u32,
    parent: Option<u32>,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id a child span names as its parent.
    pub fn id(&self) -> Option<u32> {
        Some(self.id)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(
        &mut self,
        parent: Option<u32>,
        req: u64,
        layer: &'static str,
        name: &'static str,
    ) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            req,
            layer,
            name,
            start: Instant::now(),
        }
    }

    /// Closes the span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if self.on {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                layer: open.layer,
                name: open.name,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
        end - open.start
    }

    /// Records a span whose ends were stamped elsewhere (a request the
    /// generator sent and later matched to its response).
    pub fn record(
        &mut self,
        parent: Option<u32>,
        req: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: spans, total duration and self time in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        self_times(&self.spans)
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("req", Json::Num(s.req as f64)),
                ("layer", Json::str(s.layer)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.to_line());
            out.push('\n');
        }
        out
    }
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = layers.entry(s.layer).or_default();
        row.0 += 1;
        row.1 += dur;
        row.2 += own;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            layer,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, "server", 0, 100),
            span(1, Some(0), "runtime", 10, 70),
            span(2, Some(1), "sim", 20, 50),
            span(3, None, "server", 200, 240),
        ];
        let t = self_times(&spans);
        assert_eq!(t["server"], (2, 140, 80));
        assert_eq!(t["runtime"], (1, 60, 30));
        assert_eq!(t["sim"], (1, 30, 30));
        let own: u64 = t.values().map(|r| r.2).sum();
        assert_eq!(own, 140, "self times sum to the outermost durations");
    }

    #[test]
    fn an_untraced_run_times_but_keeps_nothing() {
        let mut off = Tracer::new(false);
        let open = off.begin(None, 0, "sim", "run");
        assert!(off.end(open) < Duration::from_secs(1));
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.begin(None, 7, "client", "iteration");
        let inner = on.begin(outer.id(), 7, "sim", "run");
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[0].parent, Some(on.spans()[1].id));
        let line = on.to_jsonl();
        assert_eq!(line.lines().count(), 2);
        assert!(crate::json::parse(line.lines().next().unwrap()).is_ok());
    }
}
