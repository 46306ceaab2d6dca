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
/// to 2, the version before the word-wide checksum.
fn patch_first_volume_to_version_2(db: &Path) {
    let path = db.join("vol00000.oidx");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn version_2_volume_exits_3_with_the_rebuild_hint() {
    let (db, query) = fixture("v2_search");
    patch_first_volume_to_version_2(&db);
    let out = search(&db, &query, &[]);
    assert_clean_failure(&out, 3, "rebuild with makedb / mkindex");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("vol00000.oidx"),
        "{out:?}"
    );
}

#[test]
fn verifydb_fails_only_the_version_2_volume() {
    let (db, _) = fixture("v2_verify");
    patch_first_volume_to_version_2(&db);
    let out = verifydb().arg(&db).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
    assert_eq!(failed.len(), 1, "{stdout}");
    assert!(failed[0].contains("volume 00000"), "{stdout}");
    assert!(
        failed[0].contains("rebuild with makedb / mkindex"),
        "{stdout}"
    );
    assert!(
        stdout.lines().filter(|l| l.contains(": OK")).count() >= 1,
        "{stdout}"
    );
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
fn deadline_without_db_is_a_usage_error() {
    let (db, query) = fixture("usage");
    let subject = db.parent().unwrap().join("subject.fa");
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-W", "8", "--deadline", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = scoris_n()
        .arg(&query)
        .arg(&subject)
        .args(["-W", "8", "--skip-bad-volumes"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
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
