//! The model-only sections of `scaling_report` render, byte for byte, what
//! the per-figure binaries they replaced printed, and the database storm
//! answers what it first answered. The values are rows of the golden
//! registry (`tests/goldens.txt`).

use columbia_bench::sections::{section, Opts, SECTIONS};
use columbia_bench::table::line;
use columbia_rt::{fnv, json::Json};

#[path = "../../../tests/common/golden.rs"]
mod golden;

/// FNV-1a over the stdout of `cargo run --bin figNN` (paper profile, no
/// flags) at the last commit that had those binaries.
#[test]
fn model_sections_render_the_retired_binaries_stdout() {
    let g = golden::group("sections.stdout");
    let names = "fig14b fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 headline_metrics";
    for name in names.split(' ') {
        let rendered = (section(name).expect("section exists").run)(&Opts::default());
        g.check(name, fnv::bytes(fnv::OFFSET, rendered.text.as_bytes()));
    }
}

/// Response digests and refinement rounds of `scaling_report --database
/// --json`, as the server with a cell cache first answered: the answers may
/// not move when the serving path does.
#[test]
fn database_storm_answers_are_pinned() {
    let json = (section("--database").expect("section exists").run)(&Opts::default()).json;
    let g = golden::group("sections.database");
    let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex digest");
    g.check("cold", hex(&line("{cold.digest}", &json)));
    g.check("hot", hex(&line("{hot.digest}", &json)));
    let refinement = json.get("refinement").expect("refinement object");
    let Some(Json::Arr(rounds)) = refinement.get("rounds") else {
        panic!("no rounds array")
    };
    g.check("rounds", rounds.len() as u64);
    for (i, round) in rounds.iter().enumerate() {
        let field = |f: &str| line(&format!("{{{f}}}"), round);
        g.check(
            &format!("round{i}.degraded"),
            field("degraded").parse().unwrap(),
        );
        g.check(&format!("round{i}.holes"), field("holes").parse().unwrap());
        g.check(&format!("round{i}.digest"), hex(&field("digest")));
    }
    assert_eq!(line("{matches_clean_table}", refinement), "true");
}

#[test]
fn every_retired_binary_name_is_a_section_with_a_unique_key() {
    for name in [
        "fig14a",
        "fig14b",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "headline_metrics",
        "ablation_cycles",
        "ablation_lines",
        "ablation_partition",
        "ablation_rcm",
        "ablation_sfc",
        "--paper-scale",
        "--fabric",
        "--kernels",
        "--database",
    ] {
        assert!(section(name).is_some(), "{name} is not a section");
    }
    let mut keys: Vec<&str> = SECTIONS.iter().map(|s| s.key).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), SECTIONS.len());
}

#[test]
fn positional_arguments_skip_flags_and_their_values() {
    let opts = Opts(
        [
            "fig16",
            "--json",
            "out.json",
            "--measured",
            "fig14a",
            "--points",
            "9",
        ]
        .map(String::from)
        .to_vec(),
    );
    assert_eq!(opts.positional(), ["fig16", "fig14a"]);
    assert_eq!(opts.value("--points"), Some("9"));
    assert!(opts.flag("--measured") && !opts.flag("--fabric"));
}
