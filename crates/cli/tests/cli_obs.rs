//! End-to-end tests for the observability flags: `--trace`,
//! `--metrics-json`, and the unified `--stats` schema.
//! The headline contract: arming every instrument at max verbosity
//! leaves the `-m 8` bytes identical to a bare run, and the exported
//! metrics document carries every documented instrument name.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_obs")
        .join(format!("{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA\
                    GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACCGGATTACGCTAGG";

fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let mut fasta = String::new();
    for i in 0..5 {
        let seq = format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(4 + i));
        fasta.push_str(&format!(">subj{i}\n{seq}\n"));
    }
    let subject = dir.join("subject.fa");
    std::fs::write(&subject, fasta).unwrap();
    let query = dir.join("query.fa");
    std::fs::write(&query, format!(">q homolog\nTTGACCGTAA{CORE}CCGGTAAGCT\n")).unwrap();
    (subject, query)
}

/// Builds a small sharded database via makedb; returns its directory.
fn build_db(dir: &Path, subject: &Path) -> PathBuf {
    let db = dir.join("db");
    let out = Command::new(env!("CARGO_BIN_EXE_makedb"))
        .arg(subject)
        .arg("-o")
        .arg(&db)
        .args(["--volume-size", "200", "-W", "8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    db
}

#[test]
fn armed_instrumentation_is_byte_invisible_end_to_end() {
    let dir = scratch("byte_identity");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let run = |extra: &[&str]| {
        let out = scoris_n()
            .arg(&query)
            .args(["--db", db.to_str().unwrap(), "-W", "8"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let bare = run(&[]);
    assert!(!bare.is_empty(), "workload must produce records");
    let trace = dir.join("trace.jsonl");
    let mjson = dir.join("metrics.json");
    let armed = run(&[
        "--stats",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics-json",
        mjson.to_str().unwrap(),
    ]);
    assert_eq!(armed, bare, "armed instrumentation changed output bytes");
}

#[test]
fn metrics_json_parses_and_contains_every_documented_name() {
    let dir = scratch("schema");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let mjson = dir.join("metrics.json");
    let out = scoris_n()
        .arg(&query)
        .args(["--db", db.to_str().unwrap(), "-W", "8"])
        .args(["--metrics-json", mjson.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&mjson).unwrap();
    // Minimal well-formedness: one object, balanced brackets, the three
    // documented sections in order.
    assert!(
        doc.starts_with('{') && doc.trim_end().ends_with('}'),
        "{doc}"
    );
    assert_eq!(
        doc.matches(['{', '[']).count(),
        doc.matches(['}', ']']).count(),
        "unbalanced JSON: {doc}"
    );
    for section in ["\"counters\":{", "\"gauges\":{", "\"histograms\":{"] {
        assert!(doc.contains(section), "missing {section} in {doc}");
    }
    // Every documented instrument appears, touched or not.
    for name in oris_obs::names::ALL {
        assert!(
            doc.contains(&format!("\"{name}\":")),
            "missing {name} in {doc}"
        );
    }
    // And the run actually counted itself.
    assert!(doc.contains("\"queries_total\":1"), "{doc}");
    assert!(!doc.contains("\"records_total\":0"), "{doc}");
}

#[test]
fn trace_is_json_lines_with_balanced_spans() {
    let dir = scratch("trace");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let trace = dir.join("trace.jsonl");
    // --result-cache so the cache_lookup span has a cache to probe.
    let out = scoris_n()
        .arg(&query)
        .args([
            "--db",
            db.to_str().unwrap(),
            "-W",
            "8",
            "--result-cache",
            "1",
        ])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace must not be empty");
    for l in &lines {
        assert!(
            l.starts_with("{\"seq\":") && l.ends_with('}'),
            "bad line: {l}"
        );
        assert_eq!(
            l.matches('{').count(),
            l.matches('}').count(),
            "unbalanced: {l}"
        );
    }
    let begins = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"begin\""))
        .count();
    let ends = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"end\""))
        .count();
    assert_eq!(begins, ends, "every span must close:\n{text}");
    for span in [
        "\"span\":\"query\"",
        "\"span\":\"attach\"",
        "\"span\":\"volume_search\"",
        "\"span\":\"merge\"",
        "\"span\":\"cache_lookup\"",
        "\"span\":\"step2\"",
        "\"span\":\"step3\"",
    ] {
        assert!(text.contains(span), "missing {span} in trace:\n{text}");
    }
}

#[test]
fn stats_schema_is_unified_across_modes() {
    let dir = scratch("stats_schema");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let shared = [
        "engine=oris",
        "mode=",
        "index_secs=",
        "step2_secs=",
        "step3_secs=",
        "step4_secs=",
        "hsps=",
        "alignments=",
        "pairs=",
        "kept=",
        "extended=",
        "contained=",
        "dp_cells=",
    ];
    // Plain two-bank mode.
    let out = scoris_n()
        .args([query.to_str().unwrap(), subject.to_str().unwrap()])
        .args(["-W", "8", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let plain = String::from_utf8_lossy(&out.stderr);
    assert!(plain.contains("mode=plain"), "{plain}");
    assert!(plain.contains(" subject_builds=1 "), "{plain}");
    for key in shared {
        assert!(plain.contains(key), "plain stats missing {key}: {plain}");
    }
    assert!(
        !plain.contains("dp_cells=0 "),
        "the homolog extends: {plain}"
    );
    // Batch mode: the one query bank as a batch.
    let out = scoris_n()
        .args([
            "--batch",
            query.to_str().unwrap(),
            subject.to_str().unwrap(),
        ])
        .args(["-W", "8", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let batch = String::from_utf8_lossy(&out.stderr);
    assert!(batch.contains("mode=batch"), "{batch}");
    for key in shared {
        assert!(batch.contains(key), "batch stats missing {key}: {batch}");
    }
    // Database mode: same shared schema plus registry-backed fields.
    let out = scoris_n()
        .arg(&query)
        .args(["--db", db.to_str().unwrap(), "-W", "8", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dbs = String::from_utf8_lossy(&out.stderr);
    assert!(dbs.contains("mode=db"), "{dbs}");
    for key in shared {
        assert!(dbs.contains(key), "db stats missing {key}: {dbs}");
    }
    for key in [
        "cache_hits=",
        "cache_misses=",
        "attaches=",
        "mapped_volumes=",
        "dispatches=",
        "quarantines=0",
    ] {
        assert!(dbs.contains(key), "db stats missing {key}: {dbs}");
    }
}

#[test]
fn every_mode_counts_the_queries_it_runs() {
    let dir = scratch("counts");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    // Three query banks as one multi-FASTA file: two homologs, one miss.
    let batch = dir.join("batch.fa");
    std::fs::write(
        &batch,
        format!(">a\nTTGACCGTAA{CORE}CCGG\n>b\n{CORE}\n>c\nACGTTGCAAGGCTTAACGTACGGATC\n"),
    )
    .unwrap();
    let (subject, query, db, batch) = (
        subject.to_str().unwrap(),
        query.to_str().unwrap(),
        db.to_str().unwrap(),
        batch.to_str().unwrap(),
    );
    for (mode, inputs, banks) in [
        ("plain", vec![query, subject], 1),
        ("batch", vec!["--batch", batch, subject], 3),
        ("db", vec![query, "--db", db], 1),
        ("batch_db", vec!["--batch", batch, "--db", db], 3),
    ] {
        let metrics = dir.join(format!("{mode}.json"));
        let trace = dir.join(format!("{mode}.jsonl"));
        let out = scoris_n()
            .args(&inputs)
            .args(["-W", "8", "--metrics-json", metrics.to_str().unwrap()])
            .args(["--trace", trace.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{mode}: {out:?}");
        let lines = String::from_utf8(out.stdout).unwrap().lines().count();
        assert!(lines > 0, "{mode}: the homologs must hit");

        let doc = std::fs::read_to_string(&metrics).unwrap();
        for counted in [
            format!("\"queries_total\":{banks}"),
            format!("\"records_total\":{lines}"),
        ] {
            assert!(doc.contains(&counted), "{mode}: no {counted} in {doc}");
        }
        let histogram = doc.split("\"query_seconds\":{").nth(1).unwrap();
        let totals = histogram.split("\"buckets\"").next().unwrap();
        assert!(
            totals.contains(&format!(",\"count\":{banks},")),
            "{mode}: query_seconds.count is not {banks}: {doc}"
        );

        let text = std::fs::read_to_string(&trace).unwrap();
        let query_events = |ev: &str| {
            text.lines()
                .filter(|l| l.contains("\"span\":\"query\"") && l.contains(ev))
                .count()
        };
        assert_eq!(query_events("\"ev\":\"begin\""), banks, "{mode}:\n{text}");
        assert_eq!(query_events("\"ev\":\"end\""), banks, "{mode}:\n{text}");
    }
}

#[test]
fn stats_alone_prints_the_registry_dispatch_count() {
    // `--stats` leaves the handle disarmed: its `dispatches` is the
    // session's own count, and must equal the registry's counter.
    let dir = scratch("dispatches");
    let (subject, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let batch = dir.join("batch.fa");
    std::fs::write(&batch, format!(">a\n{CORE}\n>b\nTTGACCGTAA{CORE}CCGG\n")).unwrap();
    let inputs = [
        "--batch",
        batch.to_str().unwrap(),
        "--db",
        db.to_str().unwrap(),
    ];
    let out = scoris_n()
        .args(inputs)
        .args(["-W", "8", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stats = String::from_utf8_lossy(&out.stderr);
    let printed: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("dispatches="))
        .unwrap_or_else(|| panic!("no dispatches key: {stats}"))
        .parse()
        .unwrap();
    let metrics = dir.join("m.json");
    let out = scoris_n()
        .args(inputs)
        .args(["-W", "8", "--metrics-json", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&metrics).unwrap();
    let counter = format!("\"worker_dispatch_total\":{printed}");
    assert!(printed > 1, "one chunk over several volumes: {stats}");
    assert!(doc.contains(&counter), "no {counter} in {doc}");
}

#[test]
fn the_query_step_1_is_a_prepare_span_inside_query_before_step2() {
    let dir = scratch("prepare_span");
    let (subject, query) = write_fixture(&dir);
    let db = build_db(&dir, &subject);
    let (subject, query, db) = (
        subject.to_str().unwrap(),
        query.to_str().unwrap(),
        db.to_str().unwrap(),
    );
    for (mode, inputs) in [("plain", [query, subject]), ("db", [query, "--db"])] {
        let trace = dir.join(format!("{mode}.jsonl"));
        let out = scoris_n()
            .args(inputs)
            .args((mode == "db").then_some(db))
            .args(["-W", "8", "--trace", trace.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{mode}: {out:?}");
        let text = std::fs::read_to_string(&trace).unwrap();
        // Events in `seq` order, which is the order they were written.
        let at = |span: &str, ev: &str| {
            let events: Vec<usize> = text
                .lines()
                .enumerate()
                .filter(|(_, l)| {
                    l.contains(&format!("\"span\":\"{span}\""))
                        && l.contains(&format!("\"ev\":\"{ev}\""))
                })
                .map(|(i, _)| i)
                .collect();
            assert!(!events.is_empty(), "{mode}: no {span} {ev} in\n{text}");
            events
        };
        let prepare = (at("prepare", "begin"), at("prepare", "end"));
        assert_eq!(
            (prepare.0.len(), prepare.1.len()),
            (1, 1),
            "{mode}: one prepare per query:\n{text}"
        );
        let (begin, end) = (prepare.0[0], prepare.1[0]);
        let query = (at("query", "begin")[0], at("query", "end")[0]);
        let first_step2 = at("step2", "begin")[0];
        assert!(
            query.0 < begin && begin < end && end < first_step2 && first_step2 < query.1,
            "{mode}: prepare is not nested in query ahead of step2:\n{text}"
        );
    }
}
