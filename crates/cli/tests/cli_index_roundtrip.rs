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

fn makedb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_makedb"))
}

/// `len` pseudo-random bases from `seed` (an xorshift stream).
fn random_dna(len: usize, mut seed: u64) -> String {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            b"ACGT"[(seed >> 32) as usize % 4] as char
        })
        .collect()
}

#[test]
fn wide_row_group_bank_is_byte_identical_plain_indexed_and_db() {
    // A 70 000-nt poly-A run inside the subject, unmasked: code A^11 owns
    // a row of ~70 000 postings, so the row group holding it spans more
    // than 2^16 postings and keeps its starts as u32s. The query meets
    // that group — the subject's stretch into the run, windows ending in
    // A's — and ordinary shared sequence; the -m 8 output of a plain run,
    // an mkindex file and a makedb database is the same bytes.
    let dir = scratch("wide_group");
    let head = random_dna(50_000, 0x5EED);
    let tail = random_dna(150_000, 0xBEEF);
    let s = dir.join("subject.fa");
    std::fs::write(
        &s,
        format!(">s1 long run\n{head}{}{tail}\n", "A".repeat(70_000)),
    )
    .unwrap();
    let q = dir.join("query.fa");
    std::fs::write(
        &q,
        format!(
            ">q1 into the run\n{}AAAAAAAAAA{}\n>q2 shared\n{}\n",
            &head[head.len() - 300..],
            random_dna(200, 7),
            &tail[40_000..41_000],
        ),
    )
    .unwrap();
    let run = |extra: &[&std::ffi::OsStr], out: &Path| {
        let st = scoris_n()
            .arg(&q)
            .args(extra)
            .args(["-f", "none", "-o"])
            .arg(out)
            .output()
            .unwrap();
        assert!(
            st.status.success(),
            "{}",
            String::from_utf8_lossy(&st.stderr)
        );
        std::fs::read(out).unwrap()
    };
    let plain = run(&[s.as_os_str()], &dir.join("plain.m8"));
    assert!(
        plain.split(|&b| b == b'\n').count() > 2,
        "the fixture must produce records"
    );

    let oidx = dir.join("subject.oidx");
    let st = mkindex()
        .arg(&s)
        .args(["-f", "none", "--stats", "-o"])
        .arg(&oidx)
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    assert!(String::from_utf8_lossy(&st.stderr).contains("rows=bitmap"));
    let indexed = run(
        &[s.as_os_str(), "--index".as_ref(), oidx.as_os_str()],
        &dir.join("indexed.m8"),
    );
    assert_eq!(indexed, plain, "--index output differs from the plain run");

    let db = dir.join("db");
    let st = makedb()
        .arg(&s)
        .args(["-f", "none", "-o"])
        .arg(&db)
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    let via_db = run(&["--db".as_ref(), db.as_os_str()], &dir.join("db.m8"));
    assert_eq!(via_db, plain, "--db output differs from the plain run");
    std::fs::remove_dir_all(&dir).ok();
}
