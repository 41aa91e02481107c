//! Spans recorded in memory around the benchmark's calls into each
//! layer, and the self time of each span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: its layer-qualified name, the query it served, the
/// span that caused it, and its interval in nanoseconds from the
/// tracer's base instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span this one was opened under, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one query.
    pub query: u64,
    /// What was called, e.g. `runtime.execute`.
    pub name: &'static str,
    /// Start, in ns after the base instant.
    pub start_ns: u64,
    /// End, in ns after the base instant.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread. Spans opened with [`Tracer::enter`]
/// nest under the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    /// An empty tracer timing from `base`; tracers that share a base can
    /// have their spans merged.
    pub fn new(base: Instant) -> Self {
        Tracer {
            base,
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing, for untraced runs.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, query: u64) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            query,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as a span under the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, query);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already finished interval under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Appends spans recorded by another tracer on the same base,
    /// renumbered after this tracer's own; their roots are re-parented
    /// under `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: usize) {
        if self.on {
            append(&mut self.spans, spans, Some(parent));
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out of the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `spans`, numbered from 0, to `into`, renumbered after the
/// spans already there; their roots are parented under `root_parent`.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>, root_parent: Option<usize>) {
    let offset = into.len();
    into.extend(spans.into_iter().map(|s| Span {
        id: s.id + offset,
        parent: s.parent.map(|p| p + offset).or(root_parent),
        ..s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap one another (a worker runs a job while its client waits).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - union
        })
        .collect()
}

/// Per-name totals: `(calls, total ns, self ns)`, sorted by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// The share of the wall time of the spans named `root` that the self
/// times of those spans and all their descendants account for: 1 when
/// the spans nest properly.
pub fn accounted_ratio(spans: &[Span], root: &str) -> f64 {
    let under_root = |mut i: usize| loop {
        if spans[i].name == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let accounted: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| under_root(s.id))
        .map(|(_, own)| own)
        .sum();
    let wall: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::duration_ns)
        .sum();
    accounted as f64 / wall.max(1) as f64
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.query, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn nested_self_times_account_for_the_root_wall_time() {
        let named = |name, s: Span| Span { name, ..s };
        let spans = [
            named("query", span(0, None, 0, 100)),
            named("iteration", span(1, Some(0), 10, 60)),
            named("decide", span(2, Some(1), 10, 20)),
            named("execute", span(3, Some(1), 20, 55)),
            named("iteration", span(4, Some(0), 60, 90)),
            named("session", span(5, Some(0), 90, 100)),
        ];
        assert_eq!(accounted_ratio(&spans, "iteration"), 1.0);
        // A child that outlives its parent shows as over-accounting.
        let mut late = spans.clone();
        late[3].end_ns = 70;
        assert!(accounted_ratio(&late, "iteration") > 1.0);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // A client's wait (10..80) overlaps the worker's job (20..90),
        // which also runs past the parent's end.
        let spans = [
            span(0, None, 0, 85),
            span(1, Some(0), 10, 80),
            span(2, Some(0), 20, 90),
        ];
        assert_eq!(self_times(&spans), vec![10, 70, 70]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let base = Instant::now();
        let mut t = Tracer::new(base);
        let root = t.enter("root", 7);
        t.time("a", 7, || std::hint::black_box((0..1000).sum::<u64>()));
        let b = t.enter("b", 7);
        t.time("c", 7, || ());
        t.exit(b);
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own: u64 = self_times(&spans).iter().sum();
        assert_eq!(own, spans[0].duration_ns());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let q = t.enter("query", 1);
        assert_eq!(t.time("a", 1, || 5), 5);
        t.exit(q);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn adopted_spans_nest_under_the_given_parent() {
        let base = Instant::now();
        let mut client = Tracer::new(base);
        let q = client.enter("query", 1);
        let mut worker = Tracer::new(base);
        let job = worker.enter("job", 1);
        worker.time("step", 1, || ());
        worker.exit(job);
        client.exit(q);
        client.adopt(worker.into_spans(), q);
        let spans = client.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].id, 2);
    }
}
