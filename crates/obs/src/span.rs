//! The tracer: span timers with thread-safe hierarchical aggregation plus
//! a name-indexed registry of counters, gauges, and histograms.
//!
//! A [`Tracer`] is **off by default** and every instrumentation call is
//! gated on one relaxed atomic load, so instrumented hot paths cost a
//! single predictable branch when tracing is disabled. When enabled,
//! spans aggregate under `/`-joined paths built from the per-thread span
//! stack — `build/train/epoch/forward/tables` — so a report shows where
//! time went at every level of the lifecycle without storing individual
//! events.
//!
//! Tracing only ever *measures*; it never changes what instrumented code
//! computes. Training runs are bit-identical with tracing on or off
//! (covered by a test in `ds-core`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::counter::{Counter, Gauge};
use crate::hist::LogHistogram;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
}

/// Locks one of the tracer's maps. Every update under the lock is an insert
/// or a running sum, so a thread that panicked while holding it left
/// nothing a reader could misread, and the lock is recovered rather than
/// propagated.
fn locked<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Per-thread stack of open span paths. A thread that opens its first
    /// span roots a fresh hierarchy at that span's name, unless it entered
    /// another thread's path first ([`Tracer::enter_under`]).
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A structured tracing + metrics aggregator. Cheap to share (`&'static`
/// via [`crate::global`], or `Arc`); every method takes `&self`.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: AtomicBool,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl Tracer {
    /// Creates a disabled tracer with no recorded data.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns instrumentation on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns instrumentation off (recorded data is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether instrumentation is currently on. This is the single
    /// relaxed load every disabled-path instrumentation call costs.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span. While the returned guard lives, nested spans on the
    /// same thread aggregate under `<this path>/<their name>`; dropping
    /// the guard records the elapsed time. A no-op when disabled. Guards
    /// must be dropped on the thread that created them, in LIFO order.
    #[inline]
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { active: None };
        }
        self.span_slow(name)
    }

    #[cold]
    fn span_slow(&self, name: &str) -> Span<'_> {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            path
        });
        Span {
            active: Some(ActiveSpan {
                tracer: self,
                path,
                start: Instant::now(),
            }),
        }
    }

    /// The path of the calling thread's innermost open span: what a
    /// thread about to hand work to another passes to
    /// [`Tracer::enter_under`] there. `None` when disabled (one relaxed
    /// load) or when no span is open.
    #[inline]
    pub fn current_path(&self) -> Option<String> {
        if !self.is_enabled() {
            return None;
        }
        SPAN_STACK.with(|stack| stack.borrow().last().cloned())
    }

    /// Makes `path` the parent of every span the calling thread opens
    /// while the guard lives, so work handed over from another thread
    /// aggregates where that thread's own spans would have put it. The
    /// guard records no span itself; with `None` it does nothing.
    pub fn enter_under(&self, path: Option<&str>) -> Inherited {
        if let Some(path) = path {
            SPAN_STACK.with(|stack| stack.borrow_mut().push(path.to_string()));
        }
        Inherited {
            entered: path.is_some(),
            _this_thread: std::marker::PhantomData,
        }
    }

    /// Adds `n` to the named counter. A no-op when disabled.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.counter(name).add(n);
        }
    }

    /// Records an observation on the named gauge. A no-op when disabled.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.gauge_handle(name).set(v);
        }
    }

    /// Records a value into the named log₂ histogram. A no-op when
    /// disabled.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.histogram(name).record(v);
        }
    }

    /// The named counter, created on first use. Hot paths that cannot
    /// afford the registry lookup should hold onto the returned `Arc`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = locked(&self.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The named gauge, created on first use.
    pub fn gauge_handle(&self, name: &str) -> Arc<Gauge> {
        let mut map = locked(&self.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut map = locked(&self.hists);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Aggregated statistics of one span path, if it ever completed.
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        locked(&self.spans).get(path).copied()
    }

    /// All span paths with their aggregates, sorted by path.
    pub fn span_stats(&self) -> Vec<(String, SpanStat)> {
        locked(&self.spans)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Current value of a named counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        locked(&self.counters).get(name).map_or(0, |c| c.get())
    }

    /// Discards every recorded span, counter, gauge, and histogram; the
    /// enabled flag is untouched.
    pub fn reset(&self) {
        locked(&self.spans).clear();
        locked(&self.counters).clear();
        locked(&self.gauges).clear();
        locked(&self.hists).clear();
    }

    pub(crate) fn record_span(&self, path: &str, ns: u64) {
        let mut spans = locked(&self.spans);
        let stat = spans.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_ns += ns;
    }

    pub(crate) fn visit_registries(
        &self,
        mut counters: impl FnMut(&str, &Counter),
        mut gauges: impl FnMut(&str, &Gauge),
        mut hists: impl FnMut(&str, &LogHistogram),
    ) {
        for (name, c) in locked(&self.counters).iter() {
            counters(name, c);
        }
        for (name, g) in locked(&self.gauges).iter() {
            gauges(name, g);
        }
        for (name, h) in locked(&self.hists).iter() {
            hists(name, h);
        }
    }
}

struct ActiveSpan<'a> {
    tracer: &'a Tracer,
    path: String,
    start: Instant,
}

/// A live span; dropping it records the elapsed time under its path.
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let ns = active.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last(), Some(&active.path), "span drop order");
            stack.pop();
        });
        active.tracer.record_span(&active.path, ns);
    }
}

/// A path entered with [`Tracer::enter_under`]; dropping it leaves the
/// path. Tied to the thread whose span stack it pushed onto.
pub struct Inherited {
    entered: bool,
    _this_thread: std::marker::PhantomData<*const ()>,
}

impl Drop for Inherited {
    fn drop(&mut self) {
        if self.entered {
            SPAN_STACK.with(|stack| stack.borrow_mut().pop());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let _s = t.span("a");
            t.count("c", 5);
            t.gauge("g", 1.0);
            t.observe("h", 10);
        }
        assert!(t.span_stats().is_empty());
        assert_eq!(t.counter_value("c"), 0);
    }

    #[test]
    fn spans_nest_into_paths() {
        let t = Tracer::new();
        t.enable();
        {
            let _outer = t.span("build");
            for _ in 0..3 {
                let _inner = t.span("epoch");
            }
        }
        let build = t.span_stat("build").unwrap();
        assert_eq!(build.count, 1);
        let epoch = t.span_stat("build/epoch").unwrap();
        assert_eq!(epoch.count, 3);
        assert!(epoch.total_ns <= build.total_ns);
        assert!(t.span_stat("epoch").is_none(), "child must nest");
    }

    #[test]
    fn sibling_threads_root_their_own_hierarchies() {
        let t = Tracer::new();
        t.enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _w = t.span("worker");
                    let _i = t.span("inner");
                });
            }
        });
        assert_eq!(t.span_stat("worker").unwrap().count, 4);
        assert_eq!(t.span_stat("worker/inner").unwrap().count, 4);
    }

    #[test]
    fn a_thread_that_enters_a_path_nests_its_spans_under_it() {
        let t = Tracer::new();
        assert_eq!(t.current_path(), None, "disabled: nothing to inherit");
        t.enable();
        assert_eq!(t.current_path(), None, "no span open");
        {
            let _outer = t.span("forward");
            let path = t.current_path();
            assert_eq!(path.as_deref(), Some("forward"));
            std::thread::scope(|s| {
                s.spawn(|| {
                    {
                        let _lane = t.enter_under(path.as_deref());
                        let _m = t.span("joins");
                    }
                    // Left again: the thread is back to its own roots.
                    let _own = t.span("worker");
                    let _none = t.enter_under(None);
                    let _i = t.span("inner");
                });
            });
        }
        assert_eq!(t.span_stat("forward/joins").unwrap().count, 1);
        assert_eq!(t.span_stat("worker/inner").unwrap().count, 1);
        // Entering records no span of its own.
        assert_eq!(t.span_stat("forward").unwrap().count, 1);
        assert!(t.span_stat("joins").is_none());
    }

    #[test]
    fn a_panic_under_a_tracer_lock_leaves_the_tracer_working() {
        let t = Tracer::new();
        t.enable();
        t.count("reqs", 2);
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _counters = locked(&t.counters);
                let _spans = locked(&t.spans);
                panic!("poison the tracer's locks");
            });
            assert!(held.join().is_err());
        });
        assert!(t.counters.is_poisoned() && t.spans.is_poisoned());
        t.count("reqs", 1);
        {
            let _s = t.span("after");
        }
        assert_eq!(t.counter_value("reqs"), 3);
        let mut p = crate::PromText::new();
        p.tracer(&t);
        let doc = p.finish().unwrap();
        assert!(doc.contains("ds_reqs 3"), "{doc}");
        assert!(doc.contains("ds_span_after_count 1"), "{doc}");
    }

    #[test]
    fn registries_aggregate_and_reset() {
        let t = Tracer::new();
        t.enable();
        t.count("reqs", 2);
        t.count("reqs", 3);
        t.gauge("loss", 0.5);
        t.observe("lat", 100);
        assert_eq!(t.counter_value("reqs"), 5);
        assert_eq!(t.gauge_handle("loss").last(), 0.5);
        assert_eq!(t.histogram("lat").count(), 1);
        t.reset();
        assert_eq!(t.counter_value("reqs"), 0);
        assert!(t.span_stats().is_empty());
        assert!(t.is_enabled(), "reset keeps the enabled flag");
    }
}
