//! The ledger arithmetic of the traced pass.
//!
//! Spans are recorded with the repository's own `columbia_rt::trace`
//! recorder on its wall clock, opened and closed from the benchmark's
//! files around calls into each crate's public functions, kept in memory
//! as a forest (name, rank, level, start, end, children) and written out
//! as JSON when the run ends. This module is what the recorder does not
//! have: a span's *self time* (its duration minus its direct children's),
//! durations and counts summed per (name, level) row, and the share of the
//! root spans that no named layer claims.

use columbia_rt::trace::{ClockMode, Span, SpanKey, Trace};
use std::collections::BTreeMap;

/// Key of a per-layer row: span name and multigrid level.
pub type RowKey<'a> = (&'a str, Option<usize>);

/// The key of a span that belongs to a multigrid level.
pub fn on_level(name: &str, level: usize) -> SpanKey {
    SpanKey::new(name).level(level)
}

pub fn duration_ns(span: &Span) -> u64 {
    span.end - span.start
}

/// Self time: duration minus the durations of the direct children.
pub fn self_time_ns(span: &Span) -> u64 {
    duration_ns(span).saturating_sub(span.children.iter().map(duration_ns).sum())
}

/// Call `f` on every span of the forest, parents before children.
fn visit<'a>(spans: &'a [Span], f: &mut impl FnMut(&'a Span)) {
    for s in spans {
        f(s);
        visit(&s.children, f);
    }
}

/// Duration in seconds summed per `(name, level)` (children included).
pub fn total_seconds_by_row(spans: &[Span]) -> BTreeMap<RowKey<'_>, f64> {
    let mut rows = BTreeMap::new();
    visit(spans, &mut |s| {
        *rows
            .entry((s.key.name.as_str(), s.key.level))
            .or_insert(0.0) += duration_ns(s) as f64 * 1e-9;
    });
    rows
}

/// Number of spans per `(name, level)`.
pub fn counts_by_row(spans: &[Span]) -> BTreeMap<RowKey<'_>, u64> {
    let mut rows = BTreeMap::new();
    visit(spans, &mut |s| {
        *rows.entry((s.key.name.as_str(), s.key.level)).or_insert(0) += 1;
    });
    rows
}

/// Share of the root spans' time that no span outside `glue` claims as
/// self time: `(total - sum of named self times) / total`. `glue` names
/// the spans that only group others (the cycle, a sweep), whose own self
/// time is loop overhead and timer cost.
pub fn unaccounted_frac(spans: &[Span], glue: &[&str]) -> f64 {
    let total: u64 = spans.iter().map(duration_ns).sum();
    if total == 0 {
        return 0.0;
    }
    let mut named = 0;
    visit(spans, &mut |s| {
        if !glue.contains(&s.key.name.as_str()) {
            named += self_time_ns(s);
        }
    });
    total.saturating_sub(named) as f64 / total as f64
}

/// The traces of a world's ranks as one wall-clock trace, rank by rank.
pub fn merge(ranks: impl IntoIterator<Item = Trace>) -> Trace {
    Trace {
        mode: ClockMode::Wall,
        events: 0,
        spans: ranks.into_iter().flat_map(|t| t.spans).collect(),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_rt::trace::Tracer;

    fn span(key: SpanKey, start: u64, end: u64, children: Vec<Span>) -> Span {
        Span {
            key,
            start,
            end,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            children,
        }
    }

    /// A forest with hand-set times:
    ///
    /// ```text
    /// cycle   [0, 100)
    ///   sweep [10, 70)  level 0
    ///     grad  [10, 30)
    ///     flux  [30, 65)
    ///   restrict [70, 90)
    /// ```
    fn hand_built() -> Vec<Span> {
        let sweep = span(
            on_level("sweep", 0),
            10,
            70,
            vec![
                span(on_level("grad", 0), 10, 30, vec![]),
                span(on_level("flux", 0), 30, 65, vec![]),
            ],
        );
        let restrict = span(on_level("restrict", 0), 70, 90, vec![]);
        vec![span(SpanKey::new("cycle"), 0, 100, vec![sweep, restrict])]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let forest = hand_built();
        let mut own = Vec::new();
        visit(&forest, &mut |s| own.push(self_time_ns(s)));
        // cycle: 100 - (60 + 20); sweep: 60 - (20 + 35); leaves keep all.
        assert_eq!(own, vec![20, 5, 20, 35, 20]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root span"
        );
    }

    #[test]
    fn rows_sum_durations_by_name_and_level() {
        let forest = hand_built();
        let totals = total_seconds_by_row(&forest);
        assert!((totals[&("flux", Some(0))] - 35e-9).abs() < 1e-18);
        assert!((totals[&("cycle", None)] - 100e-9).abs() < 1e-18);
        assert!((totals[&("sweep", Some(0))] - 60e-9).abs() < 1e-18);
        assert_eq!(counts_by_row(&forest)[&("grad", Some(0))], 1);
    }

    #[test]
    fn unaccounted_is_what_the_named_layers_leave() {
        let forest = hand_built();
        // Named layers: grad 20 + flux 35 + restrict 20 = 75 of 100.
        assert!((unaccounted_frac(&forest, &["cycle", "sweep"]) - 0.25).abs() < 1e-12);
        // With nothing declared glue every self time counts: closed ledger.
        assert_eq!(unaccounted_frac(&forest, &[]), 0.0);
        assert_eq!(unaccounted_frac(&[], &[]), 0.0);
    }

    #[test]
    fn merged_ranks_keep_their_rows() {
        let rank = |r: usize| {
            let mut t = Tracer::wall();
            t.scoped(on_level("sweep", 1).rank(r), |t| {
                t.scoped(on_level("grad", 1).rank(r), |_| ());
            });
            t.finish()
        };
        let merged = merge([rank(0), rank(1)]);
        assert_eq!(merged.spans.len(), 2);
        assert_eq!(merged.spans[1].key.rank, Some(1));
        assert_eq!(counts_by_row(&merged.spans)[&("grad", Some(1))], 2);
        let json = merged.to_json().render();
        assert!(json.contains("\"name\":\"sweep\""));
        assert!(json.contains("\"level\":1"));
    }
}
