//! The self-test the tentpole demands: the real workspace passes its
//! own invariant checker. This runs in plain `cargo test`, so the tree
//! cannot drift out of compliance between CI's dedicated lint step and
//! the test suite.

use std::path::Path;

fn workspace_root() -> &'static Path {
    let lint = Path::new(env!("CARGO_MANIFEST_DIR"));
    lint.parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
}

#[test]
fn the_real_workspace_is_clean() {
    let (findings, stats) = oris_lint::scan_workspace(workspace_root()).expect("scan");
    assert!(
        findings.is_empty(),
        "oris-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually covered the tree (all 12 crates + the
    // root facade), not an empty directory.
    assert!(stats.crates >= 13, "only {} crates scanned", stats.crates);
    assert!(stats.files > 60, "only {} files scanned", stats.files);
}

/// Production does not link the reproduction: the engine crates (the
/// paper's SCORIS-N, from FASTA to `-m 8` and its front ends) name none
/// of the crates that simulate the paper's banks, run the BLASTN-style
/// baseline, or evaluate and tabulate the comparison.
#[test]
fn engine_crates_do_not_depend_on_the_reproduction() {
    const ENGINE: [&str; 7] = ["seqio", "index", "align", "core", "db", "obs", "cli"];
    const REPRODUCTION: [&str; 4] = ["oris-simulate", "oris-blast", "oris-eval", "oris-bench"];
    for krate in ENGINE {
        let path = workspace_root().join(format!("crates/{krate}/Cargo.toml"));
        let manifest = std::fs::read_to_string(&path).expect("engine crate manifest");
        let deps = manifest
            .split_once("[dependencies]")
            .map_or("", |(_, rest)| rest.split("\n[").next().unwrap_or(""));
        for line in deps.lines() {
            let name = line.split(['.', '=', ' ']).next().unwrap_or("");
            assert!(
                !REPRODUCTION.contains(&name),
                "{}: [dependencies] names {name}",
                path.display()
            );
        }
    }
}
