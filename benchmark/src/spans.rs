//! In-memory spans recorded around the calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`: `parent` is the span that was
//! open on the same log when this one began, `op` is the operation it belongs
//! to (cell index, batch index, push index), so the spans of one operation
//! share an identifier.  Spans stay in memory and are written out once, when
//! the traced run ends.  A disabled log still times the call — the untraced
//! run needs the duration — but records nothing.

use crate::report::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log.  Logs of several threads share `origin` and are
/// merged with [`SpanLog::absorb`].
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A log that only times.
    pub fn off() -> SpanLog {
        SpanLog::new(Instant::now(), false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Run `f` inside a span and return its value with the span's duration.
    /// `f` receives the log so it can open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        self.open.pop();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns + took.as_nanos() as u64;
        (out, took)
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (children are clipped to the parent and
    /// overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        out
    }

    /// The whole log as JSON: per-name totals first, then every span.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times_ns();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("op", Json::Num(s.op as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([("totals", Json::Obj(totals)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled: true,
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let log = log_of(vec![
            span("apply", None, 0, 100),
            span("commit", Some(0), 10, 40),
            span("fold", Some(0), 40, 90),
            span("probe", Some(2), 50, 60),
        ]);
        assert_eq!(log.self_times_ns(), vec![20, 30, 40, 10]);
        let totals = log.totals();
        assert_eq!(totals["apply"], (1, 100, 20));
        assert_eq!(totals["fold"], (1, 50, 40));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        // Two children overlap on 30..50, and one overhangs the parent's end:
        // covered = 20..60 clipped to the parent's 0..55 = 35.
        let log = log_of(vec![
            span("parent", None, 0, 55),
            span("a", Some(0), 20, 50),
            span("b", Some(0), 30, 60),
        ]);
        assert_eq!(log.self_times_ns()[0], 20);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut log = SpanLog::new(Instant::now(), true);
        let ((), outer) = log.span("outer", 7, |log| {
            log.span("inner", 7, |_| std::hint::black_box(1 + 1));
            log.span("inner", 7, |_| std::hint::black_box(2 + 2));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer.as_nanos() as u64);
        let selfs = log.self_times_ns();
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(selfs[0], outer.as_nanos() as u64 - inner);
    }

    #[test]
    fn disabled_log_times_but_records_nothing() {
        let mut log = SpanLog::off();
        let (v, took) = log.span("x", 0, |_| {
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        assert!(took >= Duration::from_millis(2));
        assert!(log.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = log_of(vec![span("a", None, 0, 10)]);
        let b = log_of(vec![span("b", None, 0, 10), span("c", Some(0), 2, 4)]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
    }
}
