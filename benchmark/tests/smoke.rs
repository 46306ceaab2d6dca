//! `run.sh --smoke` end to end: builds the product binaries and the
//! driver, runs all five workloads at 1/20 size with every check hot, and
//! the result document carries every metric of both tables.

use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

const WORKLOADS: [&str; 5] = [
    "est_x_est",
    "genome_repeats",
    "genome_null",
    "reads_db_batch",
    "repeat_family",
];

#[test]
fn smoke_suite_passes_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root");
    let out_dir = "benchmark/out/smoke-test";
    let run = Command::new("bash")
        .args([
            "benchmark/run.sh",
            "--smoke",
            "--seed",
            "11",
            "--out-dir",
            out_dir,
        ])
        .current_dir(root)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("failed_ops 0"), "{stdout}");

    let text = std::fs::read_to_string(root.join(out_dir).join("results.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    assert_eq!(doc.get("smoke"), Some(&json::Json::Bool(true)));
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let spec = json::parse(&spec).unwrap();
    let names = |key: &str| -> Vec<String> {
        let json::Json::Arr(items) = spec.get(key).unwrap() else {
            panic!("{key} is a list");
        };
        let name = |m: &json::Json| {
            m.get("name")
                .and_then(json::Json::as_str)
                .unwrap()
                .to_string()
        };
        items.iter().map(name).collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for w in WORKLOADS {
        let r = doc.get("workloads").and_then(|all| all.get(w)).expect(w);
        assert_eq!(
            r.get("failed_ops").and_then(json::Json::as_f64),
            Some(0.0),
            "{w}"
        );
        for (table, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let got: Vec<&str> = r
                .get(table)
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                got,
                names(key),
                "{w}: {table} must list BENCHMARK.json's metrics in order"
            );
        }
        assert!(
            root.join(out_dir)
                .join(format!("trace.{w}.jsonl"))
                .is_file(),
            "{w}"
        );
    }
}
