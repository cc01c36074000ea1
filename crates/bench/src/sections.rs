//! The section table of `scaling_report`: every figure, ablation and
//! report appendix is one [`Section`] entry, selected by its command-line
//! token.

use crate::{database, figures, report};
use columbia_rt::Json;

/// The command line after the binary name. Sections read the flags they
/// understand (`--measured`, fig15's `--thread-parallel`, fig14a's
/// `--points N`) and ignore the rest.
#[derive(Clone, Debug, Default)]
pub struct Opts(pub Vec<String>);

/// Flags that consume the following argument.
const VALUE_FLAGS: [&str; 3] = ["--json", "--points", "--cycles"];

impl Opts {
    /// Is the bare flag (or positional name) `token` present?
    pub fn flag(&self, token: &str) -> bool {
        self.0.iter().any(|a| a == token)
    }

    /// The argument following `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        let value = self.0.get(i + 1);
        Some(value.unwrap_or_else(|| panic!("{flag} requires a value")))
    }

    /// Positional arguments: everything that is neither a `--flag` nor the
    /// value of one.
    pub fn positional(&self) -> Vec<&str> {
        let args = &self.0;
        let is_value = |i: usize| i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
        (0..args.len())
            .filter(|&i| !args[i].starts_with("--") && !is_value(i))
            .map(|i| args[i].as_str())
            .collect()
    }
}

/// What a section produces: its data, built once, and the text rendered
/// from it. `main` prints the text and files the data under the section's
/// key in the `--json` report.
pub struct Rendered {
    pub json: Json,
    pub text: String,
}

/// One entry of the section table.
pub struct Section {
    /// Command-line token that selects the section: a positional name
    /// (`fig16`) or, for the report appendices, a flag (`--fabric`).
    pub token: &'static str,
    /// Key of the section's data in the JSON report.
    pub key: &'static str,
    /// Build and render the section.
    pub run: fn(&Opts) -> Rendered,
}

const fn entry(token: &'static str, key: &'static str, run: fn(&Opts) -> Rendered) -> Section {
    Section { token, key, run }
}

/// A positional section: its name is both its token and its JSON key.
const fn figure(name: &'static str, run: fn(&Opts) -> Rendered) -> Section {
    entry(name, name, run)
}

/// Every section, in the order `scaling_report` prints them. Figures 16-19
/// share one implementation over one table of panels.
pub const SECTIONS: [Section; 20] = [
    figure("fig14a", figures::fig14a),
    figure("fig14b", figures::fig14b),
    figure("fig15", figures::fig15),
    figure("fig16", |o| figures::fabric_figure(16, o)),
    figure("fig17", |o| figures::fabric_figure(17, o)),
    figure("fig18", |o| figures::fabric_figure(18, o)),
    figure("fig19", |o| figures::fabric_figure(19, o)),
    figure("fig20", figures::fig20),
    figure("fig21", figures::fig21),
    figure("fig22", figures::fig22),
    figure("headline_metrics", figures::headline_metrics),
    figure("ablation_cycles", figures::ablation_cycles),
    figure("ablation_lines", figures::ablation_lines),
    figure("ablation_partition", figures::ablation_partition),
    figure("ablation_rcm", figures::ablation_rcm),
    figure("ablation_sfc", figures::ablation_sfc),
    entry("--paper-scale", "paper_scale", |_| {
        report::paper_scale_section(&report::PAPER_WORLD_SIZES)
    }),
    entry("--fabric", "fabric_contention", |_| {
        report::fabric_contention_section(&report::FABRIC_RANK_COUNTS)
    }),
    entry("--kernels", "kernel_roofline", report::kernel_roofline),
    entry("--database", "database_storm", database::database_storm),
];

/// Look a section up by its command-line token.
pub fn section(token: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.token == token)
}
