//! Deterministic hierarchical tracing: spans, dual clocks, typed counters.
//!
//! The paper's evidence is instrumentation — per-multigrid-level timing and
//! communication breakdowns (NSU3D Tables 3–5), TFLOP/s trajectories for the
//! database fills. This module is the substrate those reports are built on.
//!
//! Design constraints:
//!
//! * **Deterministic in test mode.** With [`ClockMode::Logical`] the clock
//!   is a count of trace events, not time; two runs of the same seeded
//!   workload produce byte-identical span trees (and therefore byte-identical
//!   JSON via [`crate::json`]). Wall time exists only behind
//!   [`ClockMode::Wall`] for bench runs.
//! * **Keyed by logical position.** A span is identified by its name plus
//!   optional coordinates — rank, multigrid level, cycle index, fill case
//!   id — never by machine-dependent identifiers (thread ids, addresses).
//! * **Zero-dependency, near-zero overhead when off.** A
//!   [`Tracer::disabled`] tracer turns every call into a cheap no-op so hot
//!   loops can carry one unconditionally.
//!
//! A [`Tracer`] is deliberately single-threaded (`&mut self` everywhere).
//! Multi-rank workloads attach per-rank data after the parallel section —
//! indexed by rank id, so the result is independent of thread scheduling.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which clock stamps span boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Tracing off: every operation is a no-op, [`Tracer::finish`] yields an
    /// empty trace.
    Disabled,
    /// Logical event counter — deterministic, bit-identical across runs.
    Logical,
    /// Monotonic wall time in nanoseconds since the tracer was created.
    Wall,
}

impl ClockMode {
    /// Stable string name used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            ClockMode::Disabled => "disabled",
            ClockMode::Logical => "logical",
            ClockMode::Wall => "wall",
        }
    }
}

/// Logical position of a span: a name plus optional coordinates.
///
/// Coordinates are what make a span addressable across runs — "level 3 of
/// cycle 7 on rank 1" means the same thing in every execution of the same
/// configuration, unlike a thread id or a timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanKey {
    pub name: String,
    pub rank: Option<usize>,
    pub level: Option<usize>,
    pub cycle: Option<usize>,
    pub case_id: Option<usize>,
}

impl SpanKey {
    pub fn new(name: impl Into<String>) -> SpanKey {
        SpanKey {
            name: name.into(),
            rank: None,
            level: None,
            cycle: None,
            case_id: None,
        }
    }

    pub fn rank(mut self, r: usize) -> SpanKey {
        self.rank = Some(r);
        self
    }

    pub fn level(mut self, l: usize) -> SpanKey {
        self.level = Some(l);
        self
    }

    pub fn cycle(mut self, c: usize) -> SpanKey {
        self.cycle = Some(c);
        self
    }

    pub fn case_id(mut self, id: usize) -> SpanKey {
        self.case_id = Some(id);
        self
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj([("name", Json::Str(self.name.clone()))]);
        if let Some(r) = self.rank {
            o.set("rank", Json::UInt(r as u64));
        }
        if let Some(l) = self.level {
            o.set("level", Json::UInt(l as u64));
        }
        if let Some(c) = self.cycle {
            o.set("cycle", Json::UInt(c as u64));
        }
        if let Some(id) = self.case_id {
            o.set("case_id", Json::UInt(id as u64));
        }
        o
    }
}

/// A closed span: key, clock interval, counters, float gauges, children.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub key: SpanKey,
    /// Clock reading at `begin` (events in logical mode, ns in wall mode).
    pub start: u64,
    /// Clock reading at `end`.
    pub end: u64,
    /// Monotonic named counters (sends, bytes, retries, flops, ...).
    pub counters: BTreeMap<String, u64>,
    /// Named float gauges (residual rms, fractions, fitted coefficients).
    pub gauges: BTreeMap<String, f64>,
    pub children: Vec<Span>,
}

impl Span {
    fn open(key: SpanKey, start: u64) -> Span {
        Span {
            key,
            start,
            end: start,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Sum of a counter over this span and all descendants.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.counter_total(name))
                .sum::<u64>()
    }

    /// Depth-first search for the first span with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.key.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("key", self.key.to_json()),
            ("start", Json::UInt(self.start)),
            ("end", Json::UInt(self.end)),
        ]);
        if !self.counters.is_empty() {
            o.set(
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            );
        }
        if !self.gauges.is_empty() {
            o.set(
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            );
        }
        if !self.children.is_empty() {
            o.set(
                "children",
                Json::arr(self.children.iter().map(|c| c.to_json())),
            );
        }
        o
    }
}

/// The recorder. Create one per logical activity, thread it by `&mut`
/// reference, and call [`Tracer::finish`] to obtain the [`Trace`].
#[derive(Debug)]
pub struct Tracer {
    mode: ClockMode,
    epoch: Option<Instant>,
    /// Logical event count (ticks on begin/end/event).
    events: u64,
    /// Open spans, innermost last.
    stack: Vec<Span>,
    /// Closed top-level spans.
    roots: Vec<Span>,
    /// Counters recorded while no span is open.
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

/// The default tracer is the disabled no-op sink.
impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A no-op tracer: all recording calls are cheap and `finish` yields an
    /// empty trace.
    pub fn disabled() -> Tracer {
        Tracer::with_mode(ClockMode::Disabled)
    }

    /// Deterministic event-count clock (test / report mode).
    pub fn logical() -> Tracer {
        Tracer::with_mode(ClockMode::Logical)
    }

    /// Monotonic wall-clock nanoseconds (bench mode).
    pub fn wall() -> Tracer {
        Tracer::with_mode(ClockMode::Wall)
    }

    fn with_mode(mode: ClockMode) -> Tracer {
        Tracer {
            mode,
            epoch: match mode {
                ClockMode::Wall => Some(Instant::now()),
                _ => None,
            },
            events: 0,
            stack: Vec::new(),
            roots: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    pub fn is_enabled(&self) -> bool {
        self.mode != ClockMode::Disabled
    }

    fn now(&mut self) -> u64 {
        match self.mode {
            ClockMode::Disabled => 0,
            ClockMode::Logical => {
                self.events += 1;
                self.events
            }
            ClockMode::Wall => self
                .epoch
                .expect("wall tracer has epoch")
                .elapsed()
                .as_nanos() as u64,
        }
    }

    /// Open a span; every subsequent record lands inside it until
    /// [`Tracer::end`].
    pub fn begin(&mut self, key: SpanKey) {
        if !self.is_enabled() {
            return;
        }
        let t = self.now();
        self.stack.push(Span::open(key, t));
    }

    /// Close the innermost open span. A stray `end` with nothing open is
    /// ignored rather than panicking — tracing must never take down a solve.
    pub fn end(&mut self) {
        if !self.is_enabled() {
            return;
        }
        let t = self.now();
        if let Some(mut span) = self.stack.pop() {
            span.end = t;
            match self.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => self.roots.push(span),
            }
        }
    }

    /// Run a closure inside a span (not panic-safe, by design: a panic
    /// inside `f` aborts the trace along with the run).
    pub fn scoped<T>(&mut self, key: SpanKey, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.begin(key);
        let out = f(self);
        self.end();
        out
    }

    /// Bump a named counter on the innermost open span (or the trace root
    /// if none is open).
    pub fn add(&mut self, name: &str, delta: u64) {
        if !self.is_enabled() || delta == 0 {
            return;
        }
        let slot = match self.stack.last_mut() {
            Some(span) => span.counters.entry(name.to_string()).or_insert(0),
            None => self.counters.entry(name.to_string()).or_insert(0),
        };
        *slot += delta;
    }

    /// Record a point event: bumps the counter and ticks the logical clock.
    pub fn event(&mut self, name: &str) {
        if !self.is_enabled() {
            return;
        }
        self.now();
        self.add(name, 1);
    }

    /// Set a named float gauge on the innermost open span (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        match self.stack.last_mut() {
            Some(span) => span.gauges.insert(name.to_string(), value),
            None => self.gauges.insert(name.to_string(), value),
        };
    }

    /// Close any spans left open and return the finished trace.
    pub fn finish(mut self) -> Trace {
        while !self.stack.is_empty() {
            self.end();
        }
        Trace {
            mode: self.mode,
            events: self.events,
            spans: self.roots,
            counters: self.counters,
            gauges: self.gauges,
        }
    }
}

/// A finished trace: the span forest plus root-level counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    pub mode: ClockMode,
    /// Total logical events observed (0 in wall/disabled mode).
    pub events: u64,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
}

impl Trace {
    /// Sum of a counter over the whole forest plus root-level counters.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
            + self
                .spans
                .iter()
                .map(|s| s.counter_total(name))
                .sum::<u64>()
    }

    /// Depth-first search for the first span with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// Deterministic JSON form (byte-identical across runs in logical mode).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("clock", Json::Str(self.mode.label().to_string())),
            ("events", Json::UInt(self.events)),
        ]);
        if !self.counters.is_empty() {
            o.set(
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            );
        }
        if !self.gauges.is_empty() {
            o.set(
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            );
        }
        o.set("spans", Json::arr(self.spans.iter().map(|s| s.to_json())));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(t: &mut Tracer) {
        t.begin(SpanKey::new("solve").rank(0));
        for cycle in 0..2 {
            t.scoped(SpanKey::new("cycle").cycle(cycle), |t| {
                for level in 0..3 {
                    t.scoped(SpanKey::new("level").level(level), |t| {
                        t.add("sends", 4);
                        t.add("bytes", 1024);
                        t.event("sweep");
                    });
                }
                t.gauge("residual_rms", 1.0 / (cycle + 1) as f64);
            });
        }
        t.end();
    }

    #[test]
    fn logical_traces_are_byte_identical() {
        let run = || {
            let mut t = Tracer::logical();
            workload(&mut t);
            t.finish().to_json().render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn span_tree_shape_and_counters() {
        let mut t = Tracer::logical();
        workload(&mut t);
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 1);
        let solve = &trace.spans[0];
        assert_eq!(solve.key.name, "solve");
        assert_eq!(solve.children.len(), 2);
        assert_eq!(solve.children[0].children.len(), 3);
        assert_eq!(trace.counter_total("sends"), 2 * 3 * 4);
        assert_eq!(trace.counter_total("bytes"), 2 * 3 * 1024);
        assert_eq!(trace.counter_total("sweep"), 6);
        let lvl = trace.find("level").unwrap();
        assert_eq!(lvl.key.level, Some(0));
        // Logical clock is strictly increasing along the tree.
        assert!(solve.start < solve.children[0].start);
        assert!(solve.children[0].end < solve.children[1].start);
        assert!(solve.children[1].end < solve.end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        workload(&mut t);
        t.add("stray", 9);
        let trace = t.finish();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
        assert_eq!(trace.events, 0);
    }

    #[test]
    fn unbalanced_spans_are_closed_by_finish() {
        let mut t = Tracer::logical();
        t.begin(SpanKey::new("outer"));
        t.begin(SpanKey::new("inner"));
        t.end(); // inner
        t.end(); // outer
        t.end(); // stray: ignored
        t.begin(SpanKey::new("left-open"));
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].key.name, "left-open");
        assert!(trace.spans[1].end >= trace.spans[1].start);
    }

    #[test]
    fn counters_outside_spans_land_on_the_root() {
        let mut t = Tracer::logical();
        t.add("orphan", 2);
        t.gauge("g", 0.5);
        let trace = t.finish();
        assert_eq!(trace.counters.get("orphan"), Some(&2));
        assert_eq!(trace.gauges.get("g"), Some(&0.5));
        assert_eq!(trace.counter_total("orphan"), 2);
    }

    #[test]
    fn wall_mode_produces_monotone_stamps() {
        let mut t = Tracer::wall();
        t.scoped(SpanKey::new("w"), |t| t.add("x", 1));
        let trace = t.finish();
        assert_eq!(trace.mode, ClockMode::Wall);
        let s = &trace.spans[0];
        assert!(s.end >= s.start);
    }
}
