//! End-to-end failure-path tests: each database failure class must leave
//! the CLI with its documented exit code and a single-line stderr
//! diagnostic — plus the `verifydb` smoke workflow (build → corrupt one
//! byte → the report names exactly the rotten volume).
//!
//! Exit-code table (shared by `scoris-n --db` and `verifydb`):
//! 0 success · 1 usage · 2 manifest · 3 volume · 4 I/O · 5 config ·
//! 6 sink · 7 deadline.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

fn makedb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_makedb"))
}

fn verifydb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_verifydb"))
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_faults")
        .join(format!("{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA\
                    GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACCGGATTACGCTAGG";

/// Builds a small multi-volume database plus a homologous query;
/// returns (db dir, query path).
fn fixture(test: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(test);
    let mut fasta = String::new();
    for i in 0..5 {
        fasta.push_str(&format!(
            ">subj{i}\nCCGGAATTAT{CORE}GGTTAACCGG{}\n",
            "ACGT".repeat(4 + i)
        ));
    }
    let subject = dir.join("subject.fa");
    std::fs::write(&subject, fasta).unwrap();
    let query = dir.join("query.fa");
    std::fs::write(&query, format!(">q\nTTGACCGTAA{CORE}CCGGTAAGCT\n")).unwrap();

    let db = dir.join("db");
    let out = makedb()
        .arg(&subject)
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
    (db, query)
}

/// XORs one byte of `path` in place.
fn flip_byte(path: &Path, offset: usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= mask;
    std::fs::write(path, bytes).unwrap();
}

/// Hand-edits the manifest of `db` and restamps its checksum (which is
/// not a MAC: whoever edits the file can recompute it). Each edit would
/// make the parser size or sum from a number it has only read.
fn hand_edit_manifest(db: &Path, edit: &str) {
    let path = db.join("manifest.orisdb");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.pop(); // the checksum line
    let row = |l: &str| -> Vec<String> { l.split(' ').map(str::to_string).collect() };
    if edit == "wrapping residues" {
        // Row 0 claims 2^64 − 1 residues and row 1 one more than the two
        // really hold: the sum wraps around to exactly `total_residues`.
        let at = lines
            .iter()
            .position(|l| l.starts_with("volume 0 "))
            .unwrap();
        let (mut r0, mut r1) = (row(&lines[at]), row(&lines[at + 1]));
        let held: u64 = r0[2].parse::<u64>().unwrap() + r1[2].parse::<u64>().unwrap();
        r0[2] = u64::MAX.to_string();
        r1[2] = (held + 1).to_string();
        lines[at] = r0.join(" ");
        lines[at + 1] = r1.join(" ");
    } else {
        let at = lines
            .iter()
            .position(|l| l.starts_with("volumes "))
            .unwrap();
        lines[at] = edit.to_string();
    }
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let checksum = oris_index::persist::fnv1a(body.as_bytes());
    std::fs::write(&path, format!("{body}checksum {checksum:016x}\n")).unwrap();
}

const HAND_EDITS: [&str; 3] = [
    "volumes 18446744073709551615",
    "volumes 100000000000000",
    "wrapping residues",
];

fn search(db: &Path, query: &Path, extra: &[&str]) -> std::process::Output {
    scoris_n()
        .arg(query)
        .arg("--db")
        .arg(db)
        .args(["-W", "8"])
        .args(extra)
        .output()
        .unwrap()
}

/// Asserts a failed run: the given exit code, empty stdout, and exactly
/// one stderr line carrying the `scoris-n:` prefix plus `needle`.
fn assert_clean_failure(out: &std::process::Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "failed runs must not emit records");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "want one diagnostic line, got: {stderr}");
    assert!(lines[0].starts_with("scoris-n: "), "{stderr}");
    assert!(lines[0].contains(needle), "wanted {needle:?} in: {stderr}");
}

#[test]
fn clean_database_still_exits_zero() {
    let (db, query) = fixture("ok");
    let out = search(&db, &query, &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty(), "homologous query must hit");
}

#[test]
fn missing_volume_exits_3() {
    let (db, query) = fixture("missing");
    std::fs::remove_file(db.join("vol00001.fa")).unwrap();
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 3, "missing");
}

#[test]
fn corrupt_manifest_exits_2() {
    let (db, query) = fixture("manifest");
    flip_byte(&db.join("manifest.orisdb"), 20, 0x04);
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 2, "manifest");
    for edit in HAND_EDITS {
        let (db, query) = fixture("manifest");
        hand_edit_manifest(&db, edit);
        assert_clean_failure(&search(&db, &query, &[]), 2, "manifest");
    }
}

#[test]
fn rewritten_volume_exits_3_with_hash_mismatch() {
    let (db, query) = fixture("hash");
    // Flip one sequence base to another valid base ('A' ^ 0x06 = 'G'):
    // still a parseable FASTA, but the content hash no longer matches
    // the manifest row.
    let vol = db.join("vol00000.fa");
    let bytes = std::fs::read(&vol).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let offset = header_end
        + 1
        + bytes[header_end + 1..]
            .iter()
            .position(|&b| b == b'A')
            .unwrap();
    flip_byte(&vol, offset, 0x06);
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 3, "content hash");
}

#[test]
fn corrupt_index_exits_3() {
    let (db, query) = fixture("index");
    flip_byte(&db.join("vol00001.oidx"), 0, 0xFF);
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 3, "vol00001.oidx");
}

/// Rewrites the format version word (bytes 8..12) of `vol00000.oidx`
/// to `version`: 2 is the version before the word-wide checksum, 3 the
/// one before the presence bitmap.
fn patch_first_volume_to_version(db: &Path, version: u32) {
    let path = db.join("vol00000.oidx");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
}

/// Runs `verifydb` over `db` and checks that it fails exactly volume
/// 00000, with the rebuild hint, and passes the others.
fn assert_verifydb_fails_only_the_first_volume(db: &Path) {
    let out = verifydb().arg(db).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
    assert_eq!(failed.len(), 1, "{stdout}");
    assert!(failed[0].contains("volume 00000"), "{stdout}");
    assert!(failed[0].contains("rebuild with makedb"), "{stdout}");
    assert!(
        stdout.lines().filter(|l| l.contains(": OK")).count() >= 1,
        "{stdout}"
    );
}

#[test]
fn version_2_volume_exits_3_with_the_rebuild_hint() {
    let (db, query) = fixture("v2_search");
    patch_first_volume_to_version(&db, 2);
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 3, "rebuild with makedb");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("vol00000.oidx"),
        "{out:?}"
    );
}

#[test]
fn verifydb_fails_only_the_version_2_volume() {
    let (db, _) = fixture("v2_verify");
    patch_first_volume_to_version(&db, 2);
    assert_verifydb_fails_only_the_first_volume(&db);
}

#[test]
fn verifydb_fails_only_the_version_3_volume() {
    // Version 3 stored a dense index as `4^W + 1` offsets; a v3 volume
    // is named, with the rebuild hint, and the v4 volumes pass.
    let (db, _) = fixture("v3_verify");
    patch_first_volume_to_version(&db, 3);
    assert_verifydb_fails_only_the_first_volume(&db);
}

#[test]
fn zero_deadline_exits_7() {
    let (db, query) = fixture("deadline");
    let out = search(&db, &query, &["--deadline", "0"]);
    assert_clean_failure(&out, 7, "deadline");
}

#[test]
fn generous_deadline_output_matches_unguarded() {
    let (db, query) = fixture("deadline_ok");
    let plain = search(&db, &query, &[]);
    let guarded = search(&db, &query, &["--deadline", "3600000"]);
    assert_eq!(guarded.status.code(), Some(0));
    assert_eq!(
        plain.stdout, guarded.stdout,
        "deadline must not change output"
    );
}

#[test]
fn skip_bad_volumes_degrades_with_warning() {
    let (db, query) = fixture("skip");
    let full = search(&db, &query, &[]);
    assert_eq!(full.status.code(), Some(0));

    flip_byte(&db.join("vol00001.oidx"), 0, 0xFF);
    // Without the flag: hard failure.
    assert_eq!(search(&db, &query, &[]).status.code(), Some(3));
    // With it: success, fewer records, loud stderr.
    let out = search(&db, &query, &["--skip-bad-volumes"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(stderr.contains("partial"), "{stderr}");
    assert!(
        out.stdout.len() < full.stdout.len(),
        "degraded output must be a subset"
    );
}

#[test]
fn skip_bad_volumes_without_db_is_a_usage_error() {
    // A FASTA subject is one volume, attached from the start: there is
    // no volume to skip, so the flag is refused rather than ignored.
    let (db, query) = fixture("usage");
    let subject = db.parent().unwrap().join("subject.fa");
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-W", "8", "--skip-bad-volumes"])
        .output()
        .unwrap();
    assert_clean_failure(&out, 1, "--skip-bad-volumes requires --db");
}

/// Asserts that a failed run left neither `out` nor a `.tmp.<pid>`
/// sibling of it in its directory.
fn assert_no_output(out: &Path) {
    let dir = out.parent().unwrap();
    let name = out.file_name().unwrap().to_str().unwrap();
    let left: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with(name))
        .collect();
    assert!(left.is_empty(), "a failed run left {left:?}");
}

#[test]
fn plain_zero_deadline_exits_7_and_leaves_no_output() {
    // A FASTA subject is searched as a database of one resident volume,
    // so --deadline bounds a plain run as it bounds a --db run.
    let (db, query) = fixture("plain_deadline");
    let dir = db.parent().unwrap();
    let out_file = dir.join("hits.m8");
    let out = scoris_n()
        .arg(&query)
        .arg(dir.join("subject.fa"))
        .args(["-W", "8", "--deadline", "0", "-o"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert_clean_failure(&out, 7, "deadline");
    assert_no_output(&out_file);
}

#[test]
fn zero_deadline_still_writes_the_metrics_documents() {
    // The metrics documents are written on exit, a failed run's too: the
    // expiry that ends the run is counted in them, while the output is
    // left as a failed run leaves it — absent, with no tmp sibling.
    let (db, query) = fixture("deadline_metrics");
    let dir = db.parent().unwrap();
    let (out_file, json, prom) = (dir.join("hits.m8"), dir.join("m.json"), dir.join("m.prom"));
    let out = scoris_n()
        .arg(&query)
        .arg(dir.join("subject.fa"))
        .args(["-W", "8", "--deadline", "0", "--metrics-json"])
        .arg(&json)
        .arg("--metrics-prom")
        .arg(&prom)
        .arg("-o")
        .arg(&out_file)
        .output()
        .unwrap();
    assert_clean_failure(&out, 7, "deadline");
    assert_no_output(&out_file);
    let json = std::fs::read_to_string(&json).unwrap();
    assert!(json.contains("\"deadline_expiries_total\":1"), "{json}");
    let prom = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom.lines().any(|l| l == "oris_deadline_expiries_total 1"),
        "{prom}"
    );
}

/// `--deadline` at `u64::MAX` milliseconds: a budget some 580 million
/// years long, past what the clock can add for a chunk of 1 001 queries.
const MAX_DEADLINE_MS: &str = "18446744073709551615";

/// A plain run of `query` (a `--batch` file when `extra` says so) against
/// the fixture's FASTA subject, which must exit 0.
fn plain_run(dir: &Path, query: &Path, extra: &[&str]) -> Vec<u8> {
    let out = scoris_n()
        .args(extra)
        .arg(query)
        .arg(dir.join("subject.fa"))
        .args(["-W", "8"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    out.stdout
}

#[test]
fn max_deadline_runs_to_completion() {
    // The expiry is set, far off: the run ends as it would without one.
    let (db, query) = fixture("max_deadline");
    let dir = db.parent().unwrap();
    let plain = plain_run(dir, &query, &[]);
    assert!(!plain.is_empty(), "fixture must produce alignments");
    let guarded = plain_run(dir, &query, &["--deadline", MAX_DEADLINE_MS]);
    assert_eq!(plain, guarded, "deadline must not change output");
}

#[test]
fn max_deadline_batch_of_1001_queries_runs_to_completion() {
    // 1 001 short queries make one chunk, armed with 1 001 × the budget:
    // the product saturates at `Duration::MAX`, and the expiry overflows
    // the clock, which must disarm the deadline rather than panic.
    let (db, _) = fixture("max_deadline_batch");
    let dir = db.parent().unwrap();
    let batch = dir.join("batch.fa");
    let queries: String = (0..1001)
        .map(|i| format!(">b{i}\n{}\n", &CORE[i % 80..i % 80 + 40]))
        .collect();
    std::fs::write(&batch, queries).unwrap();
    let plain = plain_run(dir, &batch, &["--batch"]);
    assert!(!plain.is_empty(), "fixture must produce alignments");
    let guarded = plain_run(dir, &batch, &["--deadline", MAX_DEADLINE_MS, "--batch"]);
    assert_eq!(plain, guarded, "deadline must not change output");
}

/// `n` bases from a fixed xorshift64 stream, so the input is the same
/// every run.
fn bases(n: usize, rng: &mut u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            b"ACGT"[(*rng >> 32) as usize % 4]
        })
        .collect()
}

/// `n` records of 200 nt, each a random 168-nt stretch with `repeat`
/// inserted at a random offset, named `prefix0`, `prefix1`, ….
fn repeat_family(prefix: &str, n: usize, repeat: &[u8], rng: &mut u64) -> String {
    let mut fasta = String::new();
    for i in 0..n {
        let mut seq = bases(168, rng);
        let at = (*rng % 169) as usize;
        seq.splice(at..at, repeat.iter().copied());
        let seq = String::from_utf8(seq).unwrap();
        fasta.push_str(&format!(">{prefix}{i}\n{seq}\n"));
    }
    fasta
}

#[test]
fn plain_deadline_stops_a_repeat_family_within_one_wave() {
    // Every query record shares one 32-nt repeat with every subject
    // record: 75 000 record pairs, one extension each, so steps 3–4 hold
    // most of the run (about 1 s at -t 2 in release, step 2 about a
    // tenth). Step 3 reads the token before each wave, so a 200 ms budget
    // ends the query within one wave of expiring, with exit 7 and no
    // output; a step 3 that never read it ran the query to completion.
    // An unoptimised build runs step 2 here in about 1 s and step 3 in
    // 15, so it gets 2 s: either way step 2 ends inside the budget and
    // only a read before a step-3 wave can stop the query.
    let budget_ms: u64 = if cfg!(debug_assertions) { 2_000 } else { 200 };
    let dir = scratch("repeat_family");
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let repeat = bases(32, &mut rng);
    let query = dir.join("query.fa");
    let subject = dir.join("subject.fa");
    std::fs::write(&query, repeat_family("q", 50, &repeat, &mut rng)).unwrap();
    std::fs::write(&subject, repeat_family("s", 1500, &repeat, &mut rng)).unwrap();
    let (out_file, trace) = (dir.join("hits.m8"), dir.join("trace.jsonl"));
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-t", "2", "--deadline", &budget_ms.to_string(), "-o"])
        .arg(&out_file)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert_clean_failure(&out, 7, "deadline");
    assert_no_output(&out_file);
    // The query span runs from the chunk's start, where the budget is
    // armed, to the expiry: the budget plus at most one wave of 256
    // extensions (tens of milliseconds), with room for a loaded machine.
    let text = std::fs::read_to_string(&trace).unwrap();
    let end = text
        .lines()
        .find(|l| l.contains("\"span\":\"query\"") && l.contains("\"ev\":\"end\""))
        .unwrap_or_else(|| panic!("no query span end in\n{text}"));
    let dur_us: u64 = end
        .split("\"dur_us\":")
        .nth(1)
        .and_then(|v| v.trim_end_matches('}').parse().ok())
        .unwrap_or_else(|| panic!("no dur_us in {end}"));
    let budget_us = budget_ms * 1_000;
    assert!(
        (budget_us..budget_us + 1_000_000).contains(&dur_us),
        "the query ran {dur_us} µs under a {budget_ms} ms budget"
    );
}

/// An x-drop past the gapped kernel's bound once made every extension fill
/// its 2^24-cell cap (minutes on a small genome pair); it is refused up
/// front as a usage error, before any input is read.
#[test]
fn oversized_gapped_xdrop_is_a_usage_error() {
    let (db, query) = fixture("xdrop_gap");
    let subject = db.parent().unwrap().join("subject.fa");
    for value in ["1048577", "600000000"] {
        let out = scoris_n()
            .arg(&query)
            .arg(&subject)
            .args(["-W", "8", "--xdrop-gap", value])
            .output()
            .unwrap();
        assert_clean_failure(
            &out,
            1,
            &format!("gapped x-drop {value} exceeds the maximum 1048576"),
        );
    }
    // The bound itself is accepted.
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-W", "8", "-X", "1048576"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
}

// ---------------------------------------------------------------------
// verifydb
// ---------------------------------------------------------------------

#[test]
fn verifydb_passes_a_clean_database_both_modes() {
    let (db, _) = fixture("verify_ok");
    let out = verifydb().arg(&db).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    // --quiet prints nothing on success.
    let out = verifydb().arg(&db).arg("--quiet").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn verifydb_passes_a_fresh_database_of_dense_volumes() {
    // At W = 4 every 200-nt volume populates most of the 256 codes, so
    // its row map stores every bitmap word: a fresh database of dense
    // volumes verifies.
    let dir = scratch("verify_dense");
    let subject = dir.join("subject.fa");
    let records: String = (0..5)
        .map(|i| {
            format!(
                ">subj{i}\nCCGGAATTAT{CORE}GGTTAACCGG{}\n",
                "ACGT".repeat(4 + i)
            )
        })
        .collect();
    std::fs::write(&subject, records).unwrap();
    let db = dir.join("db");
    let out = makedb()
        .arg(&subject)
        .arg("-o")
        .arg(&db)
        .args(["--volume-size", "200", "-W", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (index, _) = oris_index::map_index_file(db.join("vol00000.oidx")).unwrap();
    assert!(
        index.distinct_codes() > 64,
        "most of the 256 codes populated"
    );
    let out = verifydb().arg(&db).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("FAILED"));
}

#[test]
fn verifydb_smoke_names_exactly_the_corrupt_volume() {
    // The CI smoke: build → flip one byte in one volume's index →
    // verifydb reports that volume (and only it) and exits 3.
    let (db, _) = fixture("verify_smoke");
    flip_byte(&db.join("vol00001.oidx"), 12, 0x01);
    let out = verifydb().arg(&db).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
    assert_eq!(failed.len(), 1, "{stdout}");
    assert!(failed[0].contains("volume 00001"), "{stdout}");
    assert!(
        stdout.lines().filter(|l| l.contains(": OK")).count() >= 1,
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed verification"), "{stderr}");
}

#[test]
fn verifydb_corrupt_manifest_exits_2() {
    let (db, _) = fixture("verify_manifest");
    flip_byte(&db.join("manifest.orisdb"), 25, 0x10);
    let out = verifydb().arg(&db).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    for edit in HAND_EDITS {
        let (db, _) = fixture("verify_manifest");
        hand_edit_manifest(&db, edit);
        let out = verifydb().arg(&db).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{edit}: {out:?}");
    }
}

#[test]
fn verifydb_missing_directory_exits_4() {
    let dir = scratch("verify_absent");
    let out = verifydb().arg(dir.join("no_such_db")).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verifydb_usage_errors_exit_1() {
    let out = verifydb().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = verifydb().args(["a", "b"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}
