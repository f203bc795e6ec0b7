//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent. Calls that happen
//! once per packet are sampled: every `every`-th call is timed and
//! counts with weight `every`, so sums extrapolate to every call while
//! the clock is read on one call in `every`. Spans stay in memory
//! (the first [`KEEP`] of them verbatim, all of them in per-name sums)
//! and are written out once, when the run ends. A layer's self time is
//! its spans' weighted duration minus that of their child spans.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One in this many generator calls and sink calls is timed when
/// traced.
pub const SAMPLE_EVERY: u32 = 64;

/// Spans kept verbatim for the span file; later ones only add to sums.
pub const KEEP: usize = 50_000;

/// One recorded span, times in ns since the tracer's origin.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    weight: u32,
}

/// Per-name sums over every span recorded.
#[derive(Debug, Default, Clone, Copy)]
struct Sum {
    /// Weighted duration, ns.
    ns: f64,
    /// Weighted span count (calls represented).
    calls: f64,
    /// Weighted duration of direct children, ns.
    child_ns: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    sums: BTreeMap<&'static str, Sum>,
    open: Vec<(&'static str, Instant, Option<u32>, f64)>,
    recorded: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    /// Cost of one empty timed span (two clock reads), ns, subtracted
    /// from every timed duration.
    clock_ns: f64,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with its clock cost calibrated: the median of many
    /// back-to-back clock-read pairs.
    pub fn new() -> Tracer {
        let mut pairs: Vec<u64> = (0..2_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        Tracer {
            origin: Instant::now(),
            clock_ns: pairs[pairs.len() / 2] as f64,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// The calibrated cost of one timed span, ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span under the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, weight: u32) {
        let mut inner = self.inner.borrow_mut();
        let dur = ((end - start).as_nanos() as f64 - self.clock_ns).max(0.0) * f64::from(weight);
        let parent = inner.open.last().map(|o| o.2);
        if let Some(top) = inner.open.last_mut() {
            top.3 += dur;
        }
        let s = inner.sums.entry(name).or_default();
        s.ns += dur;
        s.calls += f64::from(weight);
        inner.recorded += 1;
        if inner.spans.len() < KEEP {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: parent.flatten(),
                weight,
            };
            inner.spans.push(span);
        }
    }

    /// Time `f` as a span named `name`; spans recorded while it runs
    /// become its children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().and_then(|o| o.2);
            // Reserve the span's slot now so children can point at it.
            let idx = (inner.spans.len() < KEEP).then(|| {
                inner.spans.push(Span {
                    name,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    weight: 1,
                });
                (inner.spans.len() - 1) as u32
            });
            inner.open.push((name, Instant::now(), idx, 0.0));
        }
        let out = f();
        let end = Instant::now();
        let mut inner = self.inner.borrow_mut();
        let (name, start, idx, child_ns) = inner.open.pop().expect("span opened above");
        let dur = (end - start).as_nanos() as f64;
        if let Some(top) = inner.open.last_mut() {
            top.3 += dur;
        }
        let s = inner.sums.entry(name).or_default();
        s.ns += dur;
        s.calls += 1.0;
        s.child_ns += child_ns;
        inner.recorded += 1;
        if let Some(i) = idx {
            let (a, b) = (self.ns(start), self.ns(end));
            let span = &mut inner.spans[i as usize];
            span.start_ns = a;
            span.end_ns = b;
        }
        out
    }

    /// Weighted duration of every `name` span, ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.inner.borrow().sums.get(name).map_or(0.0, |s| s.ns)
    }

    /// Self time of every `name` span: duration minus children, ns.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.inner
            .borrow()
            .sums
            .get(name)
            .map_or(0.0, |s| s.ns - s.child_ns)
    }

    /// Calls `name` spans represent (sampled spans count their weight).
    pub fn calls(&self, name: &str) -> f64 {
        self.inner.borrow().sums.get(name).map_or(0.0, |s| s.calls)
    }

    /// The kept spans and per-name sums as JSON.
    pub fn to_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut s = String::from("{\"clock_ns\":");
        let _ = write!(
            s,
            "{:.1},\"recorded\":{},\"sums\":{{",
            self.clock_ns, inner.recorded
        );
        for (i, (name, sum)) in inner.sums.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"ns\":{:.0},\"calls\":{:.0},\"child_ns\":{:.0}}}",
                sum.ns, sum.calls, sum.child_ns
            );
        }
        s.push_str("},\"spans\":[");
        for (i, sp) in inner.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or(-1, i64::from);
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"weight\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.weight
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// An iterator whose every `every`-th `next()` is recorded as a span.
pub struct Sampled<'a, I> {
    inner: I,
    tracer: &'a Tracer,
    name: &'static str,
    every: u32,
    countdown: u32,
}

impl<'a, I: Iterator> Sampled<'a, I> {
    /// Wrap `inner`, timing one `next()` in `every`.
    pub fn new(inner: I, tracer: &'a Tracer, name: &'static str, every: u32) -> Self {
        Sampled {
            inner,
            tracer,
            name,
            every,
            countdown: every,
        }
    }
}

impl<I: Iterator> Iterator for Sampled<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.countdown -= 1;
        if self.countdown != 0 {
            return self.inner.next();
        }
        self.countdown = self.every;
        let t0 = Instant::now();
        let item = self.inner.next();
        let t1 = Instant::now();
        self.tracer.record(self.name, t0, t1, self.every);
        item
    }
}

/// A countdown deciding which calls of a sampled closure are timed.
pub struct Every {
    every: u32,
    countdown: Cell<u32>,
}

impl Every {
    /// Sample one call in `every`.
    pub fn new(every: u32) -> Every {
        Every {
            every,
            countdown: Cell::new(every),
        }
    }

    /// Run `f`, timing it as a span named `name` when this call is the
    /// sampled one.
    pub fn run<T>(&self, tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let left = self.countdown.get() - 1;
        if left != 0 {
            self.countdown.set(left);
            return f();
        }
        self.countdown.set(self.every);
        let t0 = Instant::now();
        let out = f();
        tracer.record(name, t0, Instant::now(), self.every);
        out
    }
}

/// An iterator that notes the instant its first item is asked for:
/// the end of set-up, when the first packet is offered.
pub struct MarkFirst<'a, I> {
    inner: I,
    at: &'a Cell<Option<Instant>>,
}

impl<'a, I> MarkFirst<'a, I> {
    /// Wrap `inner`; `at` receives the instant of the first `next()`.
    pub fn new(inner: I, at: &'a Cell<Option<Instant>>) -> Self {
        MarkFirst { inner, at }
    }
}

impl<I: Iterator> Iterator for MarkFirst<'_, I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        if self.at.get().is_none() {
            self.at.set(Some(Instant::now()));
        }
        self.inner.next()
    }
}
