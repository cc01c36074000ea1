//! Regenerate the paper's evaluation tables. The only binary of this
//! crate: it reports; `bench_e2e` (root package) is what times.
//!
//! Usage:
//!   scaling_report [SECTION...] [--measured] [--paper-scale] [--fabric]
//!                  [--kernels] [--database] [--json PATH]
//!
//! With no positional `SECTION` it prints the base report — per-level
//! comm breakdowns over the NSU3D CPU counts, the fabric comparison, and
//! measured (traced-runtime) per-level message attribution plus chaos
//! overhead — followed by the appendices the flags select (see
//! `columbia_bench::report`). Positional sections regenerate one figure
//! each instead: `fig14a fig14b fig15 … fig22`, `headline_metrics`,
//! `ablation_{cycles,lines,partition,rcm,sfc}`, with the flags the
//! figures always took (`--measured` re-derives the workload profile from
//! live solver runs; fig15 `--thread-parallel`; fig14a `--points N
//! --cycles N --cycle-v`).
//!
//! `--json PATH` additionally writes everything that was rendered as
//! deterministic JSON (for the model and counter sections two runs with
//! the same seed are byte-identical).

use columbia_bench::report::{base_report, SCHEMA};
use columbia_bench::sections::{section, Opts, SECTIONS};
use columbia_rt::Json;

fn main() {
    let opts = Opts(std::env::args().skip(1).collect());
    let positional = opts.positional();
    if let Some(unknown) = positional.iter().find(|name| section(name).is_none()) {
        let names: Vec<&str> = SECTIONS.iter().map(|s| s.token).collect();
        eprintln!("unknown section {unknown:?}; sections: {}", names.join(" "));
        std::process::exit(2);
    }

    let mut report = if positional.is_empty() {
        let base = base_report(&opts);
        print!("{}", base.text);
        base.json
    } else {
        Json::obj([("schema", Json::Str(SCHEMA.into()))])
    };
    let mut printed = positional.is_empty();
    for s in SECTIONS.iter().filter(|s| opts.flag(s.token)) {
        if printed {
            println!();
        }
        printed = true;
        let rendered = (s.run)(&opts);
        print!("{}", rendered.text);
        report.set(s.key, rendered.json);
    }

    if let Some(path) = opts.value("--json") {
        std::fs::write(path, report.render_pretty()).expect("write report");
        println!("wrote {path}");
    }
}
