//! In-memory span tracing around calls into the system's layers.
//!
//! The benchmark wraps each call it makes into a layer's public functions in
//! a [`span`]. Spans nest by call structure on one thread; each records its
//! layer name, start, end and the span that caused it. Spans stay in memory while tracing is on and are summarised
//! once the run ends. A layer's self time is its spans' durations minus the
//! part of each interval covered by child spans.
//!
//! Tracing is off unless [`start`] is called, and an untraced run pays one
//! thread-local flag check per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"etob.on_message"`.
    pub name: &'static str,
    /// Index of the causing span in the recorded list, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since tracing started.
    pub start_ns: u64,
    /// End, in nanoseconds since tracing started.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (discarding any earlier ones).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns every span recorded on this thread since
/// [`start`].
pub fn stop() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name`, a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let index = t.spans.len();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent: t.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                let end_ns = t.epoch.elapsed().as_nanos() as u64;
                if let Some(span) = t.spans.get_mut(index) {
                    span.end_ns = end_ns;
                }
                if t.open.last() == Some(&index) {
                    t.open.pop();
                }
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| children.get_mut(p)) {
            parent.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Every span's duration in microseconds, in recording order.
    pub durations_us: Vec<f64>,
}

/// Groups a trace by span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTimes> {
    let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.self_ns += own;
        entry.durations_us.push(span.duration_ns() as f64 / 1_000.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        // replica [0, 100) with children etob [10, 40) and apply [50, 60)
        let spans = vec![
            at("replica", None, 0, 100),
            at("etob", Some(0), 10, 40),
            at("apply", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn grandchildren_count_only_against_their_own_parent() {
        let spans = vec![
            at("a", None, 0, 100),
            at("b", Some(0), 0, 50),
            at("c", Some(1), 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            at("a", None, 10, 100),
            at("b", Some(0), 0, 40),   // overhangs the parent's start
            at("c", Some(0), 30, 60),  // overlaps b
            at("d", Some(0), 90, 120), // overhangs the parent's end
        ];
        // covered: [10, 60) and [90, 100) = 60 of 90
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn live_spans_nest_by_call_structure() {
        start();
        {
            let _outer = span("outer");
            timed("inner", || std::hint::black_box(1 + 1));
            let _sibling = span("sibling");
        }
        let _unrelated = span("after");
        drop(_unrelated);
        let spans = stop();
        assert!(!enabled());
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("sibling", Some(0)),
                ("after", None)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let summary = summarize(&spans);
        let outer = &summary["outer"];
        assert_eq!(outer.durations_us.len(), 1);
        assert!(outer.self_ns as f64 <= outer.durations_us[0] * 1_000.0);
    }

    #[test]
    fn spans_are_free_when_tracing_is_off() {
        assert!(!enabled());
        timed("ignored", || ());
        assert!(stop().is_empty());
    }
}
