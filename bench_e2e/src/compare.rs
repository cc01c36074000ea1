//! `bench_e2e compare <a> <b>`: two sets of runs, one verdict per
//! (workload, end-to-end metric).
//!
//! A set is the file `--out` appends to: one result object per line, any
//! number of runs per workload. `a` is the base (the parent commit, or the
//! first of two sets of the same commit), `b` is judged against it.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{iqr_spread, median};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound, or `b`
    /// lacks what `a` measured, or `b` failed more operations than `a`.
    Worse,
    /// The run-to-run spread of either set is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub runs: (usize, usize),
    /// Operations that failed the correctness gate in each set.
    pub failed: (u64, u64),
    pub median_a: f64,
    pub median_b: f64,
    /// Wider of the two sets' quartile distances over their medians.
    pub spread: f64,
    /// Share of `median_a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the two sets' values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = iqr_spread(a).max(iqr_spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// The untraced runs of one workload in one set.
#[derive(Default)]
struct Runs {
    /// Values per end-to-end metric, one per run.
    values: BTreeMap<String, Vec<f64>>,
    runs: usize,
    /// Operations that failed the correctness gate, over all runs.
    failed: u64,
}

type Set = BTreeMap<String, Runs>;

fn read_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let missing = |k: &str| format!("line {}: no `{k}`", n + 1);
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| missing("workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| missing("metrics"))?;
        let failed = doc
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or_else(|| missing("failed"))?;
        let runs = set.entry(workload.to_string()).or_default();
        runs.runs += 1;
        runs.failed += failed as u64;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("value"))?;
            runs.values.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// Compare two sets: one row per end-to-end metric of every workload set
/// `a` holds, in registry order, each judged against that workload's own
/// bound. What `a` measured and `b` did not (a workload that crashed, a
/// metric that was dropped) is `worse`, and so is every row of a workload
/// that fails more operations in `b` than in `a`: a number bought with
/// wrong answers is not `ok`.
pub fn compare_sets(a: &str, b: &str) -> Result<Vec<Row>, String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    let none = Runs::default();
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let Some(ra) = a.get(w.name) else {
            continue;
        };
        let rb = b.get(w.name).unwrap_or(&none);
        for (m, &bound) in END_TO_END.iter().zip(&w.bounds) {
            let Some(va) = ra.values.get(m.name) else {
                continue;
            };
            let mut row = Row {
                workload: w.name.to_string(),
                metric: m.name,
                unit: m.unit,
                runs: (va.len(), 0),
                failed: (ra.failed, rb.failed),
                median_a: median(va),
                median_b: f64::NAN,
                spread: iqr_spread(va),
                worse_by: f64::NAN,
                bound,
                verdict: Verdict::Worse,
            };
            if let Some(vb) = rb.values.get(m.name) {
                let (worse_by, spread, verdict) = judge(va, vb, m.better, bound);
                row.runs.1 = vb.len();
                row.median_b = median(vb);
                row.worse_by = worse_by;
                row.spread = spread;
                if rb.failed <= ra.failed {
                    row.verdict = verdict;
                }
            }
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err("set a holds no untraced run of a known workload".into());
    }
    Ok(rows)
}

/// The comparison as a table. Every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<12} {:>5} {:>7} {:>13} {:>13} {:>9} {:>9} {:>7} {:>6}  verdict\n",
        "workload",
        "metric",
        "runs",
        "failed",
        "median a",
        "median b",
        "b/a",
        "worse by",
        "spread",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<12} {:>2}/{:<2} {:>3}/{:<3} {:>13.6e} {:>13.6e} {:>8.4}x {:>+8.2}% {:>6.2}% {:>5.0}%  {} ({})\n",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.failed.0,
            r.failed.1,
            r.median_a,
            r.median_b,
            r.median_b / r.median_a,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.label(),
            r.unit,
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "b/a and `worse by` are relative to set a's median; spread is the wider quartile distance over its median; runs and failed operations are a/b\n{} ok, {} worse, {} unresolved\n",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_better_metrics_get_worse_upwards() {
        let a = [1.00, 1.01, 0.99, 1.00];
        let (w, _, v) = judge(&a, &[1.05, 1.06, 1.04, 1.05], Better::Lower, 0.08);
        assert!((w - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        let (w, _, v) = judge(&a, &[1.10, 1.11, 1.09, 1.10], Better::Lower, 0.08);
        assert!((w - 0.10).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        // Faster is never worse.
        let (w, _, v) = judge(&a, &[0.5, 0.5, 0.5, 0.5], Better::Lower, 0.08);
        assert!(w < 0.0);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_metrics_get_worse_downwards() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let (w, _, v) = judge(&a, &[80.0, 80.5, 79.5, 80.0], Better::Higher, 0.1);
        assert!((w - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        let (_, _, v) = judge(&a, &[120.0, 121.0, 119.0, 120.0], Better::Higher, 0.1);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.8, 1.0, 1.2, 1.0, 0.7, 1.3];
        let (_, spread, v) = judge(&noisy, &[1.5, 1.5, 1.5, 1.5], Better::Lower, 0.08);
        assert!(spread > 0.08);
        assert_eq!(v, Verdict::Unresolved);
        // Either side's noise is enough.
        let (_, _, v) = judge(&[1.0, 1.0, 1.0, 1.0], &noisy, Better::Lower, 0.08);
        assert_eq!(v, Verdict::Unresolved);
    }

    fn record(workload: &str, trace: u32, op_s: f64) -> String {
        failing(workload, trace, op_s, 0)
    }

    fn failing(workload: &str, trace: u32, op_s: f64, failed: u32) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":{trace},\"failed\":{failed},\"metrics\":{{\"op_p25_s\":{{\"value\":{op_s},\"unit\":\"s\"}},\"not_end_to_end\":{{\"value\":1,\"unit\":\"s\"}}}}}}\n"
        )
    }

    #[test]
    fn sets_are_grouped_by_workload_and_traced_runs_are_skipped() {
        let a = record("db_serve_hot", 0, 1.0)
            + &record("db_serve_hot", 0, 1.0)
            + &record("db_serve_hot", 1, 50.0)
            + &record("cart_fill8", 0, 4.0);
        let b = record("db_serve_hot", 0, 1.3) + &record("cart_fill8", 0, 4.1);
        let rows = compare_sets(&a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        // Registry order: cart_fill8 comes before db_serve_hot.
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("cart_fill8", Verdict::Ok)
        );
        assert_eq!(rows[1].runs, (2, 1));
        assert_eq!(rows[1].verdict, Verdict::Worse);
        let table = render(&rows);
        assert!(table.contains("1 ok, 1 worse, 0 unresolved"));
        assert!(table.contains("1.3000x"));
    }

    #[test]
    fn a_workload_missing_from_b_is_worse() {
        let a = record("db_serve_hot", 0, 1.0) + &record("cart_fill8", 0, 4.0);
        // cart_fill8 crashed in b; a workload only b ran has no base.
        let b = record("db_serve_hot", 0, 1.0) + &record("db_serve_cold", 0, 1.0);
        let rows = compare_sets(&a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].runs, rows[0].verdict),
            ("cart_fill8", (1, 0), Verdict::Worse)
        );
        assert!(rows[0].median_b.is_nan());
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(render(&rows).contains("1 ok, 1 worse, 0 unresolved"));
    }

    #[test]
    fn more_failed_operations_in_b_are_never_ok() {
        let a = failing("db_serve_hot", 0, 1.0, 2);
        // Faster, but with more wrong answers than the base.
        let rows = compare_sets(&a, &failing("db_serve_hot", 0, 0.5, 3)).unwrap();
        assert_eq!((rows[0].failed, rows[0].verdict), ((2, 3), Verdict::Worse));
        assert!(rows[0].worse_by < 0.0);
        // As many failures as the base are the base's defect, not b's.
        let rows = compare_sets(&a, &failing("db_serve_hot", 0, 0.5, 2)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn rows_are_judged_against_their_workloads_own_bound() {
        // A workload whose operation is held tighter than the widest
        // bound, and a step that lies between the two.
        let tight = WORKLOADS
            .iter()
            .find(|w| w.bounds[0] < END_TO_END[0].bound)
            .expect("not every workload is as noisy as the noisiest");
        let step = 1.0 + 0.5 * (tight.bounds[0] + END_TO_END[0].bound);
        let rows = compare_sets(&record(tight.name, 0, 1.0), &record(tight.name, 0, step)).unwrap();
        assert_eq!(
            (rows[0].bound, rows[0].verdict),
            (tight.bounds[0], Verdict::Worse)
        );
    }

    #[test]
    fn empty_or_malformed_sets_are_errors() {
        assert!(compare_sets("", &record("cart_fill8", 0, 1.0)).is_err());
        assert!(compare_sets(&record("cart_fill8", 1, 1.0), "").is_err());
        assert!(compare_sets("{", "{}").is_err());
        assert!(compare_sets("{\"trace\":0}", "").is_err());
        assert!(compare_sets("{\"trace\":0,\"workload\":\"x\",\"metrics\":{}}", "").is_err());
    }
}
