//! The build must stay hermetic: no registry or git dependencies anywhere
//! in the workspace graph. Everything resolves to in-tree path crates, so
//! `cargo build --offline` works on a machine that has never seen a
//! crates.io index.
//!
//! The `COLUMBIA_*` environment surface is closed the same way: the names
//! the repository mentions are exactly `columbia_rt::env::KNOBS`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn lockfile_contains_no_external_sources() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let lock = std::fs::read_to_string(Path::new(manifest_dir).join("Cargo.lock"))
        .expect("Cargo.lock must be committed at the workspace root");
    let mut packages = 0usize;
    for line in lock.lines() {
        let line = line.trim();
        if line == "[[package]]" {
            packages += 1;
        }
        // Path-only packages carry no `source` key; registry and git
        // dependencies do.
        assert!(
            !line.starts_with("source ="),
            "external dependency leaked into Cargo.lock: {line}"
        );
        assert!(
            !line.starts_with("checksum ="),
            "registry checksum in Cargo.lock: {line}"
        );
    }
    assert!(
        packages >= 12,
        "expected the full workspace in the lockfile, found {packages} packages"
    );
}

#[test]
fn cargo_tree_resolves_offline_to_path_crates_only() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(env!("CARGO"))
        .args([
            "tree",
            "--workspace",
            "--offline",
            "--edges",
            "normal,dev,build",
        ])
        .current_dir(manifest_dir)
        .output()
        .expect("cargo tree must run offline");
    assert!(
        out.status.success(),
        "cargo tree --offline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tree = String::from_utf8_lossy(&out.stdout);
    let mut crates_seen = 0usize;
    for line in tree.lines() {
        if !line.contains(" v0.") && !line.contains(" v1.") {
            continue; // separator lines between workspace roots
        }
        crates_seen += 1;
        assert!(
            line.contains("(/") || line.contains("(*)"),
            "dependency without a local path (registry crate?): {line}"
        );
    }
    assert!(
        crates_seen >= 12,
        "cargo tree listed only {crates_seen} crate lines:\n{tree}"
    );
}

/// Collect every `COLUMBIA_[A-Z_]+` token under `path` (a file, or a
/// directory walked recursively) into `found`.
fn scan_knobs(path: &Path, found: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("readable directory") {
            scan_knobs(&entry.expect("readable entry").path(), found);
        }
        return;
    }
    let bytes = std::fs::read(path).expect("readable file");
    let text = String::from_utf8_lossy(&bytes);
    for (at, prefix) in text.match_indices("COLUMBIA_") {
        let suffix: String = text[at + prefix.len()..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
            .collect();
        // A bare `COLUMBIA_` (as in "the `COLUMBIA_*` knobs") names nothing.
        if !suffix.is_empty() {
            found.insert(format!("{prefix}{suffix}"));
        }
    }
}

#[test]
fn every_knob_the_repository_mentions_is_in_the_env_table_and_vice_versa() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    for part in [
        "crates",
        "src",
        "tests",
        "examples",
        ".github",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
    ] {
        scan_knobs(&root.join(part), &mut found);
    }
    let table: BTreeSet<String> = columbia_rt::env::KNOBS.map(String::from).into();
    assert_eq!(
        found, table,
        "code, CI and docs must name exactly the knobs of columbia_rt::env::KNOBS"
    );
}
