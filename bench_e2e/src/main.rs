//! `bench_e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!           [--out <set.jsonl>] [--trace-out <spans.json>]
//! bench_e2e compare <a.jsonl> <b.jsonl>
//! bench_e2e manifest
//! bench_e2e setup-probe <workload> <seed>     (what an untraced run spawns)
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end metrics
//! with no spans recorded; `--trace 1` is the separate traced pass that
//! yields the per-layer metrics. The last line of standard output is the
//! result object `BENCHMARK.json`'s contract asks for. See README.md.

mod adaptor;
mod cart;
mod compare;
mod host;
mod json;
mod ledger;
mod metrics;
mod protocol;
mod rans;
mod serve;
mod stats;

use columbia_rt::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given; the same
/// number is `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;
/// Seed when `--seed` is not given. Claims are made on this seed and
/// must also hold on [`SECOND_SEED`], which is never used for tuning.
const DEFAULT_SEED: u64 = 42;
const SECOND_SEED: u64 = 20_050_512;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: bench_e2e --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <set.jsonl>] [--trace-out <spans.json>]\n       bench_e2e compare <a.jsonl> <b.jsonl>\n       bench_e2e manifest\nworkloads: {}\ndefault seed {DEFAULT_SEED}; repeat a claim on seed {SECOND_SEED}",
        WORKLOADS.map(|w| w.name).join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 || args.seconds > 600.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.clone()),
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("rans100k_serial", false) => rans::serial(seed, seconds),
        ("rans100k_serial", true) => rans::serial_traced(seed, seconds),
        ("rans100k_r2_threads", false) => rans::R2_THREADS.run(seed, seconds),
        ("rans100k_r2_threads", true) => rans::R2_THREADS.run_traced(seed),
        ("rans27k_r8_events", false) => rans::R8_EVENTS.run(seed, seconds),
        ("rans27k_r8_events", true) => rans::R8_EVENTS.run_traced(seed),
        ("cart57k_serial", false) => cart::serial(seed, seconds),
        ("cart57k_serial", true) => cart::serial_traced(seed, seconds),
        ("cart_fill8", false) => cart::fill8(seed, seconds),
        ("cart_fill8", true) => cart::fill8_traced(seed),
        ("db_serve_hot", false) => serve::run(serve::Storm::Hot, seed, seconds),
        ("db_serve_hot", true) => serve::run_traced(serve::Storm::Hot, seed, seconds),
        ("db_serve_cold", false) => serve::run(serve::Storm::Cold, seed, seconds),
        ("db_serve_cold", true) => serve::run_traced(serve::Storm::Cold, seed, seconds),
        (other, _) => unreachable!("`{other}` passed parse_args"),
    }
}

/// `setup-probe`: build the workload's set-up in this fresh process as an
/// untraced run does and print the median seconds of a build.
fn setup_probe(workload: &str, seed: &str) -> Result<(), String> {
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let seconds = match workload {
        "rans100k_serial" => protocol::repeat_setup(|| rans::serial_setup(seed)).1,
        "rans100k_r2_threads" => protocol::repeat_setup(|| rans::R2_THREADS.setup(seed)).1,
        "rans27k_r8_events" => protocol::repeat_setup(|| rans::R8_EVENTS.setup(seed)).1,
        "cart57k_serial" => protocol::repeat_setup(|| cart::serial_setup(seed)).1,
        "cart_fill8" => protocol::repeat_setup(|| cart::fill_setup(seed)).1,
        "db_serve_hot" => protocol::repeat_setup(|| serve::service(serve::Storm::Hot, seed)).1,
        "db_serve_cold" => protocol::repeat_setup(|| serve::service(serve::Storm::Cold, seed)).1,
        other => return Err(format!("unknown workload `{other}`")),
    };
    println!("{:?}", stats::median(&seconds));
    Ok(())
}

/// The `metrics` object of the result: every end-to-end metric on the
/// untraced pass, every per-layer metric (0 where the workload does not
/// enter the layer) on the traced pass.
fn metrics_json(outcome: &Outcome, trace: bool) -> Json {
    let entry = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    };
    if trace {
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| entry(m.name, m.unit, outcome.get(m.name).unwrap_or(0.0)))
                .collect(),
        )
    } else {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let value = outcome
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report `{}`", m.name));
                    entry(m.name, m.unit, value)
                })
                .collect(),
        )
    }
}

fn print_report(args: &Args, outcome: &Outcome, host: &Json) {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse_args checked the name");
    println!(
        "bench_e2e {} seed {} window {} s trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  why: {}", w.why);
    println!("  operation: {}", w.op);
    println!("  host: {}", host.render());
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, s) in &outcome.summaries {
        println!(
            "  {name}: median {:.6e} (q1 {:.6e}, q3 {:.6e}, min {:.6e}, max {:.6e}, n = {})",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    if args.trace {
        for m in PER_LAYER {
            if let Some(v) = outcome.get(m.name) {
                println!("  {:<34} {:>16.6e} {}", m.name, v, m.unit);
            }
        }
    } else {
        for (m, bound) in END_TO_END.iter().zip(w.bounds) {
            let v = outcome.get(m.name).unwrap_or(f64::NAN);
            println!(
                "  {:<12} {:>16.6e} {:<4} ({} is better, may worsen by {:.0}%)",
                m.name,
                v,
                m.unit,
                m.better.label(),
                100.0 * bound
            );
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
}

/// The record `--out` appends: the result plus what is needed to read it
/// later (workload, seed, distributions, host).
fn record(args: &Args, outcome: &Outcome, host: &Json, result: &Json) -> Json {
    let mut rec = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::UInt(u64::from(args.trace))),
    ]);
    if let Json::Obj(pairs) = result {
        for (k, v) in pairs {
            rec.set(k.clone(), v.clone());
        }
    }
    rec.set(
        "samples",
        Json::Obj(
            outcome
                .summaries
                .iter()
                .map(|(name, s)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("n", Json::UInt(s.n as u64)),
                            ("min", Json::Num(s.min)),
                            ("q1", Json::Num(s.q1)),
                            ("median", Json::Num(s.median)),
                            ("q3", Json::Num(s.q3)),
                            ("max", Json::Num(s.max)),
                        ]),
                    )
                })
                .collect(),
        ),
    );
    rec.set("host", host.clone());
    rec
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{}", usage()))?;
    // Eleven COLUMBIA_* knobs can switch executor, kernel path, fabric,
    // pool and serve policy under a workload. They are pinned in code;
    // a set knob would make this run measure something else.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("COLUMBIA_"))
    {
        return Err(format!(
            "refusing to run with {} set: unset every COLUMBIA_* variable",
            name.to_string_lossy()
        ));
    }
    let host = host::describe();
    let mut outcome = run_workload(&args);
    if !args.trace {
        outcome.pool_setup_probes(&protocol::probe_setups(&args.workload, args.seed)?);
        let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        outcome.set("peak_rss_mb", rss);
    }
    print_report(&args, &outcome, &host);

    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted.max(1))),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(&outcome, args.trace)),
    ]);
    if let Some(path) = &args.out {
        let line = record(&args, &outcome, &host, &result).render() + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &outcome.trace) {
        std::fs::write(path, trace.to_json().render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(())
}

/// `BENCHMARK.json`, generated from the registry so the two cannot drift.
fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "bench_e2e/Cargo.toml",
                    "--",
                ]
                .map(|s| Json::Str(s.into())),
            ),
        ),
        ("paths", Json::arr([Json::Str("bench_e2e".into())])),
        ("run_seconds", Json::UInt(u64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::arr(WORKLOADS.iter().map(|w| {
                Json::obj([
                    ("name", Json::Str(w.name.into())),
                    ("why", Json::Str(w.why.into())),
                ])
            })),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.into())),
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.label().into())),
                    ("bound", Json::Num(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(PER_LAYER.iter().map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.into())),
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.label().into())),
                ])
            })),
        ),
    ])
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rows = compare::compare_sets(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("manifest") if argv.len() == 1 => {
            print!("{}", manifest().render_pretty());
            Ok(true)
        }
        Some("setup-probe") if argv.len() == 3 => setup_probe(&argv[1], &argv[2]).map(|()| true),
        Some("compare" | "manifest" | "setup-probe") | None => Err(usage()),
        Some(_) => run(&argv).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&argv(
            "--workload db_serve_hot --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("db_serve_hot", 7, 3.0, true)
        );
        let d = parse_args(&argv("--workload cart_fill8")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10.0, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload db_serve_hot --trace 2",
            "--workload db_serve_hot --seed -1",
            "--workload db_serve_hot --seconds 0",
            "--workload db_serve_hot --seed",
            "--workload db_serve_hot --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn traced_results_carry_every_layer_and_untraced_every_end_to_end_metric() {
        let mut o = Outcome::default();
        for m in &END_TO_END {
            o.set(m.name, 1.5);
        }
        o.set("rans.grad_s", 0.25);
        let Json::Obj(e2e) = metrics_json(&o, false) else {
            panic!("object expected")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers = metrics_json(&o, true);
        let Json::Obj(pairs) = &layers else {
            panic!("object expected")
        };
        assert_eq!(pairs.len(), PER_LAYER.len());
        let value = |name: &str| layers.get(name).unwrap().get("value").cloned();
        assert_eq!(value("rans.grad_s"), Some(Json::Num(0.25)));
        assert_eq!(value("euler.stage_s"), Some(Json::Num(0.0)));
    }
}
