//! End-to-end binary tests for the streaming batch front-end: `scoris-n
//! --batch` must stream exactly the bytes the single-query collected path
//! produces for each query, in batch order — and `-o` must be atomic
//! (tmp + rename) and byte-identical to stdout output.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

/// A fresh scratch directory per test (process ids keep parallel test
/// binaries apart; the test name keeps tests within one binary apart).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_batch")
        .join(format!("{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA\
                    GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACCGGATTACGCTAGG";

/// Subject plus a directory of query banks, each sharing the core with
/// the subject (so every query produces records) and one decoy-only bank.
fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let subject = dir.join("subject.fa");
    std::fs::write(
        &subject,
        format!(">s1 homolog\nCCGGAATTAT{CORE}GGTTAACCGG\n>s2 decoy\nGCGCGCGCATATATAT\n"),
    )
    .unwrap();
    let queries = dir.join("queries");
    std::fs::create_dir_all(&queries).unwrap();
    std::fs::write(
        queries.join("a.fa"),
        format!(">qa\nTTGACCGTAA{CORE}CCGGTAAGCT\n"),
    )
    .unwrap();
    std::fs::write(
        queries.join("b.fa"),
        format!(">qb1\n{CORE}\n>qb2 decoy only\nGGTTCCAAGGTTCCAAGGTTCCAA\n"),
    )
    .unwrap();
    std::fs::write(queries.join("c.fa"), format!(">qc\nAACC{CORE}TTGG\n")).unwrap();
    // Uppercase extension: must be picked up (extension match is
    // case-insensitive), and "D.FA" sorts before the lowercase names.
    std::fs::write(queries.join("D.FA"), format!(">qd\nGG{CORE}AA\n")).unwrap();
    // A non-FASTA file the directory loader must ignore.
    std::fs::write(queries.join("notes.txt"), "not a bank\n").unwrap();
    (subject, queries)
}

#[test]
fn batch_over_directory_matches_per_query_runs() {
    let dir = scratch("dir");
    let (subject, queries) = write_fixture(&dir);

    let out = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batched = out.stdout;
    assert!(!batched.is_empty(), "fixture must produce alignments");

    // Reference: one single-query collected run per bank, in file-name
    // order ("D.FA" first — ASCII uppercase sorts before lowercase),
    // concatenated.
    let mut expected = Vec::new();
    for name in ["D.FA", "a.fa", "b.fa", "c.fa"] {
        let single = scoris_n()
            .arg(queries.join(name))
            .arg(&subject)
            .output()
            .unwrap();
        assert!(single.status.success());
        expected.extend_from_slice(&single.stdout);
    }
    assert_eq!(batched, expected);
}

#[test]
fn batch_over_multifasta_matches_per_record_runs() {
    let dir = scratch("multifasta");
    let (subject, _) = write_fixture(&dir);
    // One multi-FASTA file: each record is its own query bank (own
    // e-value search space).
    let multi = dir.join("multi.fa");
    std::fs::write(
        &multi,
        format!(">m1\nTT{CORE}GG\n>m2\nGGTTCCAAGGTTCCAA\n>m3\n{CORE}{CORE}\n"),
    )
    .unwrap();

    let out = scoris_n()
        .arg("--batch")
        .arg(&multi)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batched = out.stdout;
    assert!(!batched.is_empty());

    let mut expected = Vec::new();
    for (name, seq) in [
        ("m1", format!("TT{CORE}GG")),
        ("m2", "GGTTCCAAGGTTCCAA".to_string()),
        ("m3", format!("{CORE}{CORE}")),
    ] {
        let single_fa = dir.join(format!("{name}.fa"));
        std::fs::write(&single_fa, format!(">{name}\n{seq}\n")).unwrap();
        let single = scoris_n().arg(&single_fa).arg(&subject).output().unwrap();
        assert!(single.status.success());
        expected.extend_from_slice(&single.stdout);
    }
    assert_eq!(batched, expected);
}

#[test]
fn out_file_matches_stdout_byte_for_byte() {
    let dir = scratch("outfile");
    let (subject, queries) = write_fixture(&dir);

    // Single-query mode.
    let stdout_run = scoris_n()
        .arg(queries.join("a.fa"))
        .arg(&subject)
        .output()
        .unwrap();
    assert!(stdout_run.status.success());
    assert!(!stdout_run.stdout.is_empty());
    let out_file = dir.join("single.m8");
    let st = scoris_n()
        .arg(queries.join("a.fa"))
        .arg(&subject)
        .arg("-o")
        .arg(&out_file)
        .status()
        .unwrap();
    assert!(st.success());
    assert_eq!(std::fs::read(&out_file).unwrap(), stdout_run.stdout);

    // Batch mode.
    let stdout_batch = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(stdout_batch.status.success());
    let batch_file = dir.join("batch.m8");
    let st = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .arg("-o")
        .arg(&batch_file)
        .status()
        .unwrap();
    assert!(st.success());
    assert_eq!(std::fs::read(&batch_file).unwrap(), stdout_batch.stdout);

    // The atomic write leaves no temporary siblings behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn failed_run_leaves_no_output_file() {
    let dir = scratch("atomic");
    let (subject, _) = write_fixture(&dir);
    let out_file = dir.join("never.m8");
    // Nonexistent batch path: the run fails before writing anything, and
    // no output (or tmp) file may appear under the requested name.
    let out = scoris_n()
        .arg("--batch")
        .arg(dir.join("missing"))
        .arg(&subject)
        .arg("-o")
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!out_file.exists());
}

#[test]
fn batch_argument_validation() {
    let dir = scratch("validation");
    let (subject, queries) = write_fixture(&dir);

    // --batch takes exactly one positional (the subject).
    let out = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A NaN e-value threshold would pass every record (`evalue > NaN` is
    // never true): refused like any other non-positive threshold.
    let out = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .args(["-e", "nan"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("e-value threshold"));

    // An empty directory is an error, not silent empty output.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = scoris_n()
        .arg("--batch")
        .arg(&empty)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.stdout.is_empty(), "no records may be emitted");
    assert!(
        stderr.contains("no .fa/.fasta/.fna files"),
        "the error must say what was missing: {stderr}"
    );

    // A directory with files but none of them FASTA is the same clean
    // error — the extension filter must not silently yield a zero-query
    // batch.
    let nofasta = dir.join("nofasta");
    std::fs::create_dir_all(&nofasta).unwrap();
    std::fs::write(nofasta.join("notes.txt"), "not a bank\n").unwrap();
    std::fs::write(nofasta.join("data.csv"), "1,2,3\n").unwrap();
    let out = scoris_n()
        .arg("--batch")
        .arg(&nofasta)
        .arg(&subject)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no .fa/.fasta/.fna files"), "{stderr}");
}

#[test]
fn batch_stats_report_single_subject_build() {
    let dir = scratch("stats");
    let (subject, queries) = write_fixture(&dir);
    let out = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg(&subject)
        .arg("--stats")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // One subject build amortized over the whole batch, and the 4 query
    // banks searched as one chunk with one build: 1 + 1 total builds.
    assert!(stderr.contains("batch_queries=4"), "{stderr}");
    assert!(stderr.contains("subject_builds=1"), "{stderr}");
    assert!(stderr.contains("total_index_builds=2"), "{stderr}");
}

#[test]
fn empty_and_all_n_records_are_empty_boundaries_in_a_batch() {
    // A multi-FASTA batch whose one chunk holds an empty record and an
    // all-N record between two homologs: both index nothing and align
    // nowhere, the run exits 0, and its bytes are the two homologs' own
    // runs, in order.
    let dir = scratch("empty_records");
    let (subject, _) = write_fixture(&dir);
    let (a, b) = (
        format!(">qa\nTTGACCGTAA{CORE}CCGGTAAGCT\n"),
        format!(">qb\nAACC{CORE}TTGG\n"),
    );
    let batch = dir.join("batch.fa");
    std::fs::write(
        &batch,
        format!("{a}>empty\n\n>alln\n{}\n{b}", "N".repeat(80)),
    )
    .unwrap();
    let out = scoris_n()
        .arg("--batch")
        .arg(&batch)
        .arg(&subject)
        .arg("--stats")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("batch_queries=4"), "{stderr}");
    assert!(
        stderr.contains("total_index_builds=2"),
        "one chunk: {stderr}"
    );
    let mut expected = Vec::new();
    for (name, fasta) in [("a.fa", &a), ("b.fa", &b)] {
        let query = dir.join(name);
        std::fs::write(&query, fasta).unwrap();
        let single = scoris_n().arg(&query).arg(&subject).output().unwrap();
        assert!(single.status.success() && !single.stdout.is_empty());
        expected.extend_from_slice(&single.stdout);
    }
    assert_eq!(out.stdout, expected);
}

#[test]
fn batch_result_cache_replays_identical_bytes() {
    // A FASTA subject is one resident volume, so --result-cache serves a
    // plain batch too: the repeated query is replayed from the cache, and
    // the bytes are those of the run without it.
    let dir = scratch("result_cache");
    let (subject, _) = write_fixture(&dir);
    let hit = format!(">qa\nTTGACCGTAA{CORE}CCGGTAAGCT\n");
    let batch = dir.join("repeated.fa");
    std::fs::write(&batch, format!("{hit}>qc\nAACC{CORE}TTGG\n{hit}")).unwrap();
    let run = |extra: &[&str]| {
        let out = scoris_n()
            .arg("--batch")
            .arg(&batch)
            .arg(&subject)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let bare = run(&[]);
    assert!(!bare.stdout.is_empty(), "the homologs must hit");
    let cached = run(&["--result-cache", "8", "--stats"]);
    assert_eq!(
        cached.stdout, bare.stdout,
        "a cache hit must replay the same bytes"
    );
    let stderr = String::from_utf8_lossy(&cached.stderr);
    assert!(stderr.contains("batch_queries=3"), "{stderr}");
    assert!(stderr.contains("cache_hits=1 "), "{stderr}");
    assert!(stderr.contains("cache_misses=2 "), "{stderr}");
}
