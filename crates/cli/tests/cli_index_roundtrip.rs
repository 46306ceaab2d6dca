//! End-to-end binary tests for the persisted-index workflow: an index
//! written by `mkindex` and loaded with `scoris-n --index` must produce
//! byte-identical `-m 8` output to the all-in-memory run on the same
//! inputs — and mismatched or corrupt index files must fail loudly.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

fn mkindex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mkindex"))
}

/// A fresh scratch directory per test (process ids keep parallel test
/// binaries apart; the test name keeps tests within one binary apart).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_roundtrip")
        .join(format!("{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two banks sharing one long, high-identity region (plus decoys and a
/// low-complexity run so the default entropy filter has something to do).
fn write_fixture_banks(dir: &Path) -> (PathBuf, PathBuf) {
    let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA\
                GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACCGGATTACGCTAGG";
    let polya = "A".repeat(80);
    let q = dir.join("query.fa");
    let s = dir.join("subject.fa");
    std::fs::write(
        &q,
        format!(">q1 with core\nTTGACCGTAA{core}CCGGTAAGCT\n>q2 low complexity\n{polya}\n"),
    )
    .unwrap();
    std::fs::write(
        &s,
        format!(">s1 homolog\nCCGGAATTAT{core}GGTTAACCGG\n>s2 decoy\n{polya}GCGCGCGCATATATAT\n"),
    )
    .unwrap();
    (q, s)
}

#[test]
fn loaded_index_output_is_byte_identical() {
    let dir = scratch("identical");
    let (q, s) = write_fixture_banks(&dir);
    let direct = dir.join("direct.m8");
    let loaded = dir.join("loaded.m8");
    let oidx = dir.join("subject.oidx");

    let st = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap(), "-o"])
        .arg(&direct)
        .status()
        .unwrap();
    assert!(st.success());

    let st = mkindex().arg(&s).arg("-o").arg(&oidx).status().unwrap();
    assert!(st.success());

    // `--index=` and `--out=` exercise the key=value spelling end to end.
    let st = scoris_n()
        .args([
            q.to_str().unwrap(),
            s.to_str().unwrap(),
            &format!("--index={}", oidx.display()),
            &format!("--out={}", loaded.display()),
        ])
        .status()
        .unwrap();
    assert!(st.success());

    let direct_bytes = std::fs::read(&direct).unwrap();
    let loaded_bytes = std::fs::read(&loaded).unwrap();
    assert!(!direct_bytes.is_empty(), "fixture must produce alignments");
    assert_eq!(direct_bytes, loaded_bytes);
}

#[test]
fn loaded_index_with_explicit_options_matches() {
    // Non-default preparation (dust filter, asymmetric stride, W=9) must
    // round-trip too when both tools are given the same options.
    let dir = scratch("options");
    let (q, s) = write_fixture_banks(&dir);
    let direct = dir.join("direct.m8");
    let loaded = dir.join("loaded.m8");
    let oidx = dir.join("subject.oidx");
    let opts = ["-W", "9", "-f", "dust", "--asymmetric"];

    let st = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap()])
        .args(opts)
        .arg("-o")
        .arg(&direct)
        .status()
        .unwrap();
    assert!(st.success());
    let st = mkindex()
        .arg(&s)
        .args(opts)
        .arg("-o")
        .arg(&oidx)
        .status()
        .unwrap();
    assert!(st.success());
    let st = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap()])
        .args(opts)
        .arg("--index")
        .arg(&oidx)
        .arg("-o")
        .arg(&loaded)
        .status()
        .unwrap();
    assert!(st.success());

    let direct_bytes = std::fs::read(&direct).unwrap();
    assert!(!direct_bytes.is_empty());
    assert_eq!(direct_bytes, std::fs::read(&loaded).unwrap());
}

#[test]
fn mismatched_index_options_are_rejected() {
    let dir = scratch("mismatch");
    let (q, s) = write_fixture_banks(&dir);
    let oidx = dir.join("subject.oidx");
    let st = mkindex().arg(&s).arg("-o").arg(&oidx).status().unwrap();
    assert!(st.success());

    // The removed layout option is a usage error, not a silent default.
    let out = mkindex()
        .arg(&s)
        .args(["--index-backend", "sparse"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --index-backend"),
        "{stderr}"
    );

    // Word length differs from the index's.
    let out = scoris_n()
        .args([
            q.to_str().unwrap(),
            s.to_str().unwrap(),
            "-W",
            "9",
            "--index",
        ])
        .arg(&oidx)
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Filter differs.
    let out = scoris_n()
        .args([
            q.to_str().unwrap(),
            s.to_str().unwrap(),
            "-f",
            "none",
            "--index",
        ])
        .arg(&oidx)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("filter"));

    // Wrong bank: the index belongs to the subject, not the query.
    let out = scoris_n()
        .args([s.to_str().unwrap(), q.to_str().unwrap(), "--index"])
        .arg(&oidx)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn corrupt_index_file_fails_cleanly() {
    let dir = scratch("corrupt");
    let (q, s) = write_fixture_banks(&dir);
    let oidx = dir.join("subject.oidx");
    let st = mkindex().arg(&s).arg("-o").arg(&oidx).status().unwrap();
    assert!(st.success());

    // Truncated to half its size, one flipped byte, one trailing byte:
    // each is exit 1 with one stderr line naming the file, and the `-o`
    // destination (or a tmp sibling of it) is never created — the index is
    // decoded before the output is opened.
    let bytes = std::fs::read(&oidx).unwrap();
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x20;
    let mut trailing = bytes.clone();
    trailing.push(0);
    let mutants = [
        ("truncated", &bytes[..bytes.len() / 2]),
        ("flipped", &flipped[..]),
        ("trailing", &trailing[..]),
    ];
    for (name, mutant) in mutants {
        let bad = dir.join(format!("{name}.oidx"));
        std::fs::write(&bad, mutant).unwrap();
        let out = scoris_n()
            .args([q.to_str().unwrap(), s.to_str().unwrap(), "--index"])
            .arg(&bad)
            .arg("-o")
            .arg(dir.join("out.m8"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let prefix = format!("scoris-n: {}: corrupt index file: ", bad.display());
        assert!(
            stderr.starts_with(&prefix) && stderr.lines().count() == 1,
            "{name}: {stderr}"
        );
        let left_behind = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("out.m8")
            })
            .count();
        assert_eq!(left_behind, 0, "{name}");
    }

    // Not an index file at all.
    let out = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap(), "--index"])
        .arg(&q)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn version_2_index_file_asks_for_a_rebuild() {
    // A file of the previous format version (version word 2) is refused
    // before anything else is read, with the typed rebuild hint.
    let dir = scratch("v2");
    let (q, s) = write_fixture_banks(&dir);
    let oidx = dir.join("subject.oidx");
    let st = mkindex().arg(&s).arg("-o").arg(&oidx).status().unwrap();
    assert!(st.success());
    let mut bytes = std::fs::read(&oidx).unwrap();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&oidx, &bytes).unwrap();
    let out = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap(), "--index"])
        .arg(&oidx)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported index format version 2")
            && stderr.contains("rebuild with makedb / mkindex"),
        "{stderr}"
    );
}
