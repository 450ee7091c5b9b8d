//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the workspace's public functions: name, start, end, parent span, op
//! id and thread. They stay in memory until the run ends and are written
//! out once. A span's self time is its duration minus the part of its
//! interval that its children cover; children may run on other threads
//! and overlap each other, so the covered part is the union of their
//! (clipped) intervals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, allocated when the span opens.
    pub id: usize,
    /// Span name; layer metrics select spans by it.
    pub name: String,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (`None` for probes outside any op).
    pub op: Option<u64>,
    /// Small per-process id of the recording thread.
    pub thread: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicUsize,
    next_op: AtomicU64,
}

/// An open span: the handle through which children are opened.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    id: usize,
    op: Option<u64>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|tag| *tag)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(0),
            next_op: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn record<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        op: Option<u64>,
        f: impl FnOnce(Scope<'_>) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(Scope {
            tracer: self,
            id,
            op,
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op,
            thread: thread_tag(),
        });
        result
    }

    /// Runs `f` under a new op span: a root span with a fresh op id that
    /// its children inherit.
    pub fn op<R>(&self, name: &str, f: impl FnOnce(Scope<'_>) -> R) -> R {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.record(name, None, Some(op), f)
    }

    /// Runs `f` under a root span that belongs to no op (a probe).
    pub fn span<R>(&self, name: &str, f: impl FnOnce(Scope<'_>) -> R) -> R {
        self.record(name, None, None, f)
    }

    /// Stops recording and returns the spans, ordered by id.
    pub fn finish(self) -> Trace {
        let mut spans = self.spans.into_inner().expect("span store poisoned");
        spans.sort_by_key(|span| span.id);
        Trace { spans }
    }
}

impl Scope<'_> {
    /// Runs `f` under a child span of this one (any thread may call it).
    pub fn span<R>(&self, name: &str, f: impl FnOnce(Scope<'_>) -> R) -> R {
        self.tracer.record(name, Some(self.id), self.op, f)
    }
}

/// The closed spans of a run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every span, ordered by id.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Spans named `name`, in id order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |span| span.name == name)
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::duration_ms).collect()
    }

    /// Children of each span id.
    fn children(&self) -> BTreeMap<usize, Vec<&Span>> {
        let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push(span);
            }
        }
        children
    }

    /// For each span named `name`, the summed duration in milliseconds of
    /// its children named `child`.
    pub fn child_sums_ms(&self, name: &str, child: &str) -> Vec<f64> {
        let children = self.children();
        self.named(name)
            .map(|span| {
                children
                    .get(&span.id)
                    .map(|kids| {
                        kids.iter()
                            .filter(|kid| kid.name == child)
                            .map(|kid| kid.duration_ms())
                            .sum()
                    })
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Self time of every span, by id.
    pub fn self_times_ns(&self) -> BTreeMap<usize, u64> {
        let children = self.children();
        self.spans
            .iter()
            .map(|span| {
                let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
                (span.id, self_time_ns(span, kids))
            })
            .collect()
    }

    /// Writes every span as one tab-separated line, with its self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\top\tthread\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        for span in &self.spans {
            let dash = |value: Option<String>| value.unwrap_or_else(|| "-".to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.id,
                dash(span.parent.map(|p| p.to_string())),
                dash(span.op.map(|o| o.to_string())),
                span.thread,
                span.name,
                span.start_ns,
                span.end_ns,
                self_times[&span.id],
            )?;
        }
        out.flush()
    }
}

/// `parent`'s duration minus the union of its children's intervals,
/// each clipped to the parent's interval. Overlapping children (on other
/// threads) are counted once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|kid| {
            (
                kid.start_ns.max(parent.start_ns),
                kid.end_ns.min(parent.end_ns),
            )
        })
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64, thread: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            parent,
            op: Some(0),
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, None, 0, 100, 0);
        let a = span(1, Some(0), 10, 30, 0);
        let b = span(2, Some(0), 50, 60, 0);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_on_other_threads_once() {
        let parent = span(0, None, 0, 100, 0);
        // Two workers overlap on [20, 40); a third child nests inside one.
        let a = span(1, Some(0), 10, 40, 1);
        let b = span(2, Some(0), 20, 50, 2);
        let c = span(3, Some(0), 25, 30, 1);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 60);
    }

    #[test]
    fn self_time_clips_children_that_outlive_the_parent() {
        let parent = span(0, None, 100, 200, 0);
        let early = span(1, Some(0), 50, 120, 1);
        let late = span(2, Some(0), 190, 260, 2);
        let outside = span(3, Some(0), 300, 400, 2);
        assert_eq!(self_time_ns(&parent, &[&early, &late, &outside]), 70);
    }

    #[test]
    fn nested_spans_get_parents_ops_and_self_times() {
        let tracer = Tracer::new();
        tracer.op("op", |op| {
            op.span("outer", |outer| {
                outer.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            // A child opened from another thread still nests under the op.
            std::thread::scope(|scope| {
                scope.spawn(|| op.span("worker", |_| ()));
            });
        });
        tracer.span("probe", |_| ());
        let trace = tracer.finish();
        let by_name = |name: &str| trace.named(name).next().expect("span recorded").clone();
        let (op, outer, inner, worker, probe) = (
            by_name("op"),
            by_name("outer"),
            by_name("inner"),
            by_name("worker"),
            by_name("probe"),
        );
        assert_eq!(outer.parent, Some(op.id));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(worker.parent, Some(op.id));
        assert_ne!(worker.thread, op.thread);
        assert_eq!(inner.op, op.op);
        assert_eq!(probe.parent, None);
        assert_eq!(probe.op, None);
        let self_times = trace.self_times_ns();
        assert_eq!(self_times[&inner.id], inner.duration_ns());
        assert_eq!(
            self_times[&outer.id],
            outer.duration_ns() - inner.duration_ns()
        );
        assert!(self_times[&op.id] <= op.duration_ns() - outer.duration_ns());
        assert_eq!(
            trace.child_sums_ms("outer", "inner"),
            vec![inner.duration_ms()]
        );
    }
}
