//! The model-only sections of `scaling_report` render, byte for byte, what
//! the per-figure binaries they replaced printed. The digests are FNV-1a
//! over the stdout of `cargo run --bin figNN` (paper profile, no flags) at
//! the last commit that had those binaries.

use columbia_bench::sections::{section, Opts, SECTIONS};
use columbia_bench::table::{line, rows};
use columbia_rt::fnv;

const STDOUT_DIGESTS: [(&str, u64); 10] = [
    ("fig14b", 0x84352c637ce7b845),
    ("fig15", 0x6a8bd25f53b4701d),
    ("fig16", 0xda156cb1afe353df),
    ("fig17", 0x616904fc36581b1f),
    ("fig18", 0xeceea963b07724c4),
    ("fig19", 0x2e2a0ca6b6b0fa53),
    ("fig20", 0xf79b06b87dc9fe6d),
    ("fig21", 0x6bf3eb0cfe1d65b3),
    ("fig22", 0x83a7e5be4e1f8515),
    ("headline_metrics", 0x9f9c32ce4f5a19dc),
];

#[test]
fn model_sections_render_the_retired_binaries_stdout() {
    for (name, digest) in STDOUT_DIGESTS {
        let rendered = (section(name).expect("section exists").run)(&Opts::default());
        assert_eq!(
            fnv::bytes(fnv::OFFSET, rendered.text.as_bytes()),
            digest,
            "{name} no longer renders its pinned text:\n{}",
            rendered.text
        );
    }
}

/// Response digests and refinement rounds of `scaling_report --database
/// --json` at 412d4dd, the last commit whose server had a cell cache: the
/// answers may not move when the serving path does.
#[test]
fn database_storm_answers_are_pinned() {
    let json = (section("--database").expect("section exists").run)(&Opts::default()).json;
    assert_eq!(
        line("{cold.digest} {hot.digest}", &json),
        "ae39e1a0829f0eb8 48d30982b3f94822"
    );
    let refinement = json.get("refinement").expect("refinement object");
    assert_eq!(
        rows(
            "{degraded} {holes} {digest}",
            refinement.get("rounds").expect("rounds")
        ),
        "4096 12 5cca83d98af5adca\n\
         3004 9 ddce556f7a803443\n\
         1957 6 4677992361547329\n\
         1281 4 46c2114d36d0c908\n\
         629 2 911bae6dcc80ccd4\n\
         0 0 81420012c541853e\n"
    );
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
