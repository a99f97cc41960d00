//! Spans recorded from the benchmark's own files, around calls into the
//! program. Kept in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// Index of a span within its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval on the benchmark's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.encode_request`.
    pub name: String,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repetition (or request) the span belongs to; spans of one
    /// repetition share it.
    pub rep: u64,
    /// Timeline row in the exported trace.
    pub lane: u32,
}

/// An append-only list of spans sharing one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        rep: u64,
        lane: u32,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            rep,
            lane,
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `id`, for a parent opened before its children.
    pub fn set_end(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        rep: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, end, parent, rep, 0);
        (out, (end - start).as_secs_f64())
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (overlapping children are
    /// counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut by_name: Vec<(String, u64, usize)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            // `epoch[3]` and `epoch[4]` are one layer.
            let key = s.name.split('[').next().unwrap_or(&s.name);
            match by_name.iter_mut().find(|(n, _, _)| n == key) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => by_name.push((key.to_string(), self_ns, 1)),
            }
        }
        by_name.sort_by_key(|row| std::cmp::Reverse(row.1));
        by_name
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete (`"ph":"X"`) event per span, microsecond timestamps,
    /// parent, repetition and self time in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            json::write_string(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"self_us\":{:.3}}}}}",
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rep,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(&str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::new();
        let o = log.origin;
        for &(name, start, end, parent) in spans {
            log.push(
                name,
                o + Duration::from_nanos(start),
                o + Duration::from_nanos(end),
                parent,
                0,
                0,
            );
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = log_with(&[
            ("rep", 0, 100, None),
            ("prepare", 10, 30, Some(0)),
            ("epoch[0]", 30, 90, Some(0)),
            ("busy", 30, 70, Some(2)),
            ("driver", 70, 90, Some(2)),
        ]);
        assert_eq!(log.self_times_ns(), vec![20, 20, 0, 40, 20]);
    }

    #[test]
    fn overlapping_and_escaping_children_are_counted_once_and_clipped() {
        let log = log_with(&[
            ("parent", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 160, Some(0)),
            ("late", 190, 250, Some(0)),
        ]);
        // a ∪ b covers 110..160 (50), `late` is clipped to 190..200 (10).
        assert_eq!(log.self_times_ns()[0], 100 - 50 - 10);
    }

    #[test]
    fn self_time_groups_indexed_names() {
        let log = log_with(&[
            ("epoch[0]", 0, 10, None),
            ("epoch[1]", 10, 30, None),
            ("tail", 30, 35, None),
        ]);
        assert_eq!(
            log.self_time_by_name(),
            vec![("epoch".to_string(), 30, 2), ("tail".to_string(), 5, 1)]
        );
    }

    #[test]
    fn chrome_json_parses_with_one_event_per_span() {
        let log = log_with(&[("a \"quoted\"", 0, 1500, None), ("b", 100, 200, Some(0))]);
        let doc = json::parse(&log.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(json::Value::as_str),
            Some("a \"quoted\"")
        );
        assert_eq!(
            events[0].get("dur").and_then(json::Value::as_f64),
            Some(1.5)
        );
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
    }
}
