//! Harness spans: one per call into a layer's public functions, kept in
//! memory and written when the run ends.
//!
//! Every call is timed whether or not spans are kept, so the untraced
//! run (end-to-end metrics) and the traced run (per-layer metrics)
//! execute the same harness code; the traced run only adds the `Vec`
//! push per call.

use std::time::Instant;

use lc_json::Value;

/// One finished call. `parent` indexes [`Tracer::spans`]; spans of one
/// iteration or request share `run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

pub struct Tracer {
    record: bool,
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(record: bool) -> Tracer {
        Tracer {
            record,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, on this tracer's clock. Its spans
    /// rejoin through [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            record: self.record,
            origin: self.origin,
            run: self.run,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Identifier stamped on the spans that follow.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// The innermost open span, for [`Tracer::absorb`].
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Time `f`; when recording, keep a span named `name` whose parent
    /// is the span open at the call. Returns `f`'s result and seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = self.record.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.current(),
                run: self.run,
            });
            self.spans.len() - 1
        });
        if let Some(i) = slot {
            self.open.push(i);
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Append a forked tracer's spans; its root spans become children
    /// of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: every span, plus per-name call count, total
    /// and self time.
    pub fn to_json(&self, header: Vec<(String, Value)>) -> Value {
        let selfs = self_times(&self.spans);
        let mut by_name: Vec<(String, u64, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let total = s.end_ns - s.start_ns;
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += self_ns;
                }
                None => by_name.push((s.name.clone(), 1, total, *self_ns)),
            }
        }
        let mut doc = header;
        doc.push((
            "by_name".into(),
            Value::Object(
                by_name
                    .into_iter()
                    .map(|(name, calls, total, self_ns)| {
                        (
                            name,
                            Value::object([
                                ("calls", Value::from(calls)),
                                ("total_ns", Value::from(total)),
                                ("self_ns", Value::from(self_ns)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        doc.push((
            "spans".into(),
            Value::array(self.spans.iter().enumerate().map(|(id, s)| {
                Value::object([
                    ("id", Value::from(id)),
                    ("name", Value::from(s.name.as_str())),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("run", Value::from(s.run)),
                ])
            })),
        ));
        Value::Object(doc)
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children on other threads may overlap one
/// another, so the covered part is the length of their union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("leaf", 55, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads under one phase span: 10..60 and 40..80
        // cover 70 ns of the parent, not 90.
        let spans = [
            span("phase", 0, 100, None),
            span("req", 10, 60, Some(0)),
            span("req", 40, 80, Some(0)),
            span("req", 45, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = [span("p", 100, 200, None), span("c", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn timed_nests_and_absorb_reparents() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        let ((), _) = t.timed("outer", |t| {
            let mut forked = t.fork();
            forked.timed("remote", |f| {
                f.timed("remote.inner", |_| ());
            });
            let parent = t.current();
            t.timed("inner", |_| ());
            t.absorb(forked, parent);
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "remote", "remote.inner"]);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(t.spans());
        assert!(selfs[0] <= t.spans()[0].end_ns - t.spans()[0].start_ns);
    }

    #[test]
    fn an_untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.timed("x", |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
