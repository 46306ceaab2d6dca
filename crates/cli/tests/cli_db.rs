//! End-to-end binary tests for the sharded-database workflow: `makedb`
//! sharding + `scoris-n --db` search, including the headline equivalence
//! — multi-volume `--db` output must be byte-identical to a single-bank
//! run over the concatenated FASTA under the same database-wide e-value
//! space — and the `--batch` composition.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

fn makedb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_makedb"))
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_db")
        .join(format!("{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA\
                    GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACCGGATTACGCTAGG";

/// Writes the subject FASTA (several core-bearing records + a decoy) and
/// a homologous query; returns (subject path, query path, total subject
/// residues).
fn write_fixture(dir: &Path) -> (PathBuf, PathBuf, usize) {
    let mut fasta = String::new();
    let mut total = 0usize;
    for i in 0..5 {
        let seq = format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(4 + i));
        total += seq.len();
        fasta.push_str(&format!(">subj{i} core-bearing\n{seq}\n"));
    }
    let decoy = "GCGCGCGCATATATATGCGCGCGC";
    total += decoy.len();
    fasta.push_str(&format!(">decoy\n{decoy}\n"));
    let subject = dir.join("subject.fa");
    std::fs::write(&subject, fasta).unwrap();

    let query = dir.join("query.fa");
    std::fs::write(&query, format!(">q homolog\nTTGACCGTAA{CORE}CCGGTAAGCT\n")).unwrap();
    (subject, query, total)
}

/// Shards the fixture subject into a database of small volumes; returns
/// the database directory.
fn build_db(dir: &Path, subject: &Path, volume_size: usize) -> PathBuf {
    let db = dir.join("db");
    let out = makedb()
        .arg(subject)
        .arg("-o")
        .arg(&db)
        .args(["--volume-size", &volume_size.to_string(), "-W", "8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(db.join("manifest.orisdb").is_file());
    db
}

#[test]
fn makedb_shards_and_reports() {
    let dir = scratch("shard");
    let (subject, _, _) = write_fixture(&dir);
    let db = dir.join("db");
    let out = makedb()
        .arg(&subject)
        .arg("-o")
        .arg(&db)
        .args(["--volume-size", "300", "-W", "8", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("volume=1"), "must shard: {stderr}");
    // The summary names the filter as -f spells it.
    assert!(stderr.contains(" filter=entropy to "), "{stderr}");
    // Volume files exist alongside the manifest.
    assert!(db.join("vol00000.fa").is_file());
    assert!(db.join("vol00000.oidx").is_file());
    let out = makedb()
        .arg(&subject)
        .arg("-o")
        .arg(dir.join("dust"))
        .args(["-W", "8", "-f", "dust"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(" filter=dust to "), "{stderr}");

    // The removed layout option is a usage error, not a silent default.
    let out = makedb()
        .arg(&subject)
        .args(["--index-backend", "dense", "-o"])
        .arg(dir.join("never-built"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --index-backend"),
        "{stderr}"
    );

    // Rebuilding into the same directory is refused.
    let out = makedb().arg(&subject).arg("-o").arg(&db).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already exists"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn db_search_matches_single_bank_run_byte_for_byte() {
    let dir = scratch("equiv");
    let (subject, query, total) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);

    // Reference: single-bank run over the same (concatenated) FASTA under
    // the database-wide e-value space.
    let single = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["--dbsize", &total.to_string(), "-W", "8"])
        .output()
        .unwrap();
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );
    assert!(!single.stdout.is_empty(), "fixture must produce records");

    for window in ["0", "1"] {
        let via_db = scoris_n()
            .arg(&query)
            .arg("--db")
            .arg(&db)
            .args(["--window", window, "-W", "8"])
            .output()
            .unwrap();
        assert!(
            via_db.status.success(),
            "window={window}: {}",
            String::from_utf8_lossy(&via_db.stderr)
        );
        assert_eq!(
            via_db.stdout, single.stdout,
            "window={window} output differs from the single-bank run"
        );
    }
}

/// `--attach` is gone (a volume is always mapped, with the heap reader as
/// the observed fallback) and so is `--index-backend` (the row layout is
/// chosen per build from the bank's density): each old spelling is a
/// usage error, reported before any output file is touched.
#[test]
fn removed_attach_option_is_a_usage_error_and_leaves_no_output() {
    let dir = scratch("no_attach");
    let (subject, query, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);
    let out_path = dir.join("out.m8");
    for removed in [
        ["--attach", "copy"],
        ["--index-backend", "dense"],
        ["--workers", "2"],
    ] {
        let out = scoris_n()
            .arg(&query)
            .arg("--db")
            .arg(&db)
            .args(removed)
            .args(["-W", "8", "-o"])
            .arg(&out_path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("unknown option {}", removed[0]);
        assert!(stderr.contains(&expected), "{stderr}");
        assert!(stderr.contains("usage: scoris-n"), "{stderr}");
        let left_behind: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("out.m8"))
            .collect();
        assert!(left_behind.is_empty(), "{left_behind:?}");
    }
}

#[test]
fn db_batch_composes_and_matches_per_query_runs() {
    let dir = scratch("batch");
    let (subject, _, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);

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

    let batched = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg("--db")
        .arg(&db)
        .args(["--stats", "-W", "8"])
        .output()
        .unwrap();
    assert!(
        batched.status.success(),
        "{}",
        String::from_utf8_lossy(&batched.stderr)
    );
    assert!(!batched.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&batched.stderr);
    assert!(stderr.contains("queries=2"), "{stderr}");

    // Reference: per-query --db runs, concatenated in file-name order.
    let mut expected = Vec::new();
    for name in ["a.fa", "b.fa"] {
        let single = scoris_n()
            .arg(queries.join(name))
            .arg("--db")
            .arg(&db)
            .args(["-W", "8"])
            .output()
            .unwrap();
        assert!(single.status.success());
        expected.extend_from_slice(&single.stdout);
    }
    assert_eq!(batched.stdout, expected);
}

#[test]
fn workers_and_result_cache_are_invisible_in_output() {
    // The worker count (-t) and --result-cache MB change wall-clock, never
    // bytes: every variant's stdout equals the plain run, and the stats
    // line reports the cache doing its job on a repeated query.
    let dir = scratch("serve");
    let (subject, query, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);

    let plain = scoris_n()
        .arg(&query)
        .arg("--db")
        .arg(&db)
        .args(["-W", "8"])
        .output()
        .unwrap();
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    assert!(!plain.stdout.is_empty());

    for extra in [
        &["-t", "1"][..],
        &["-t", "2", "--stats"][..],
        &["--result-cache", "8"][..],
        &["-t", "1", "--result-cache", "8"][..],
    ] {
        let out = scoris_n()
            .arg(&query)
            .arg("--db")
            .arg(&db)
            .args(["-W", "8"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, plain.stdout, "{extra:?} changed output bytes");
    }

    // A batch repeating the same query twice: the second copy is served
    // from the cache, one hit and one miss in the stats line, whatever the
    // volume count.
    let queries = dir.join("repeat_queries");
    std::fs::create_dir_all(&queries).unwrap();
    let q = std::fs::read_to_string(&query).unwrap();
    std::fs::write(queries.join("a.fa"), &q).unwrap();
    std::fs::write(queries.join("b.fa"), &q).unwrap();
    let out = scoris_n()
        .arg("--batch")
        .arg(&queries)
        .arg("--db")
        .arg(&db)
        .args(["-W", "8", "--result-cache", "8", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache_hits=1 "), "{stderr}");
    assert!(stderr.contains("cache_misses=1 "), "{stderr}");
    // And the doubled output is exactly the plain output twice.
    let mut twice = plain.stdout.clone();
    twice.extend_from_slice(&plain.stdout);
    assert_eq!(out.stdout, twice);
}

#[test]
fn db_argument_validation() {
    let dir = scratch("validation");
    let (subject, query, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);

    // --db takes exactly one positional (the query) outside batch mode.
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .arg("--db")
        .arg(&db)
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A configuration mismatch (different word length than the database
    // was built with) is a clean error naming the mismatch.
    let out = scoris_n()
        .arg(&query)
        .arg("--db")
        .arg(&db)
        .args(["-W", "9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("w="), "{stderr}");

    // --window and --skip-bad-volumes without --db would otherwise be
    // silently ignored on the plain two-bank path, whose one resident
    // volume they cannot change.
    for flag in [&["--window", "1"][..], &["--skip-bad-volumes"][..]] {
        let out = scoris_n()
            .arg(&query)
            .arg(&subject)
            .args(flag)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag:?} must require --db");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("requires --db"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // A cache size whose byte count overflows is refused by name, not
    // wrapped to a small (or zero: cache off) budget.
    let out = scoris_n()
        .arg(&query)
        .arg("--db")
        .arg(&db)
        .args(["-W", "8", "--result-cache", "17592186044416"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--result-cache"));

    // A missing database directory is a clean error, not a panic.
    let out = scoris_n()
        .arg(&query)
        .arg("--db")
        .arg(dir.join("no-such-db"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("scoris-n:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn failed_db_run_leaves_no_output_or_tmp_file() {
    // Regression: a bad query path (or batch directory) in --db mode
    // must fail BEFORE the atomic output machinery creates its
    // .tmp.<pid> sibling — same invariant the non-db modes pin.
    let dir = scratch("atomic");
    let (subject, _, _) = write_fixture(&dir);
    let db = build_db(&dir, &subject, 250);
    let out_file = dir.join("never.m8");

    let out = scoris_n()
        .arg(dir.join("missing.fa"))
        .arg("--db")
        .arg(&db)
        .args(["-W", "8", "-o"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!out_file.exists());

    let out = scoris_n()
        .arg("--batch")
        .arg(dir.join("missing-batch"))
        .arg("--db")
        .arg(&db)
        .args(["-W", "8", "-o"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!out_file.exists());

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn dbsize_changes_evalues_only() {
    let dir = scratch("dbsize");
    let (subject, query, _) = write_fixture(&dir);

    let plain = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-W", "8"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    let sized = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["--dbsize", "1000000000", "-W", "8"])
        .output()
        .unwrap();
    assert!(sized.status.success());

    let parse = |bytes: &[u8]| -> Vec<Vec<String>> {
        String::from_utf8_lossy(bytes)
            .lines()
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect()
    };
    let a = parse(&plain.stdout);
    let b = parse(&sized.stdout);
    assert!(!a.is_empty());
    assert_eq!(
        a.len(),
        b.len(),
        "a billion-residue space may not drop the strong fixture hits"
    );
    for (ra, rb) in a.iter().zip(&b) {
        // All fields but the e-value (field 10) are identical; the
        // inflated search space must inflate the e-value.
        assert_eq!(ra[..10], rb[..10]);
        assert_eq!(ra[11], rb[11], "bit score is space-independent");
        let ea: f64 = ra[10].parse().unwrap();
        let eb: f64 = rb[10].parse().unwrap();
        assert!(eb > ea, "dbsize must inflate e-values ({ea} vs {eb})");
    }
}
