//! End-to-end binary tests for the persisted-index workflow: a subject
//! indexed once by `makedb` and searched with `scoris-n --db` must produce
//! byte-identical `-m 8` output to the all-in-memory run on the same
//! inputs priced over the same residue total (`--dbsize`) — and
//! mismatched or corrupt index files must fail loudly.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scoris_n() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scoris_n"))
}

fn makedb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_makedb"))
}

/// A fresh scratch directory per test (process ids keep parallel test
/// binaries apart; the test name keeps tests within one binary apart).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_cli_roundtrip")
        .join(format!("{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two banks sharing one long, high-identity region (plus decoys and a
/// low-complexity run so the default entropy filter has something to do).
/// Returns the query, the subject and the subject's residue total, the
/// search space a database of it prices every alignment against.
fn write_fixture_banks(dir: &Path) -> (PathBuf, PathBuf, String) {
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
    let s1 = format!("CCGGAATTAT{core}GGTTAACCGG");
    let s2 = format!("{polya}GCGCGCGCATATATAT");
    std::fs::write(&s, format!(">s1 homolog\n{s1}\n>s2 decoy\n{s2}\n")).unwrap();
    (q, s, (s1.len() + s2.len()).to_string())
}

/// `makedb` over `subject` with `opts` into `dir/db`, which it returns.
fn build_db(dir: &Path, subject: &Path, opts: &[&str]) -> PathBuf {
    let db = dir.join("db");
    let out = makedb()
        .arg(subject)
        .args(opts)
        .arg("-o")
        .arg(&db)
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
fn loaded_index_output_is_byte_identical() {
    let dir = scratch("identical");
    let (q, s, total) = write_fixture_banks(&dir);
    let direct = dir.join("direct.m8");
    let loaded = dir.join("loaded.m8");

    let st = scoris_n()
        .arg(&q)
        .arg(&s)
        .args(["--dbsize", &total, "-o"])
        .arg(&direct)
        .status()
        .unwrap();
    assert!(st.success());

    let db = build_db(&dir, &s, &[]);
    // `--db=` and `--out=` exercise the key=value spelling end to end.
    let st = scoris_n()
        .args([
            q.to_str().unwrap(),
            &format!("--db={}", db.display()),
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
    let (q, s, total) = write_fixture_banks(&dir);
    let direct = dir.join("direct.m8");
    let loaded = dir.join("loaded.m8");
    let opts = ["-W", "9", "-f", "dust", "--asymmetric"];

    let st = scoris_n()
        .args([q.to_str().unwrap(), s.to_str().unwrap(), "--dbsize", &total])
        .args(opts)
        .arg("-o")
        .arg(&direct)
        .status()
        .unwrap();
    assert!(st.success());
    let db = build_db(&dir, &s, &opts);
    let st = scoris_n()
        .arg(&q)
        .args(opts)
        .arg("--db")
        .arg(&db)
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
    // A database built under the defaults (W = 11, entropy, full stride)
    // refuses a run that asks for another preparation: exit 5, one line
    // naming the database's configuration and the run's.
    let dir = scratch("mismatch");
    let (q, s, _) = write_fixture_banks(&dir);
    let db = build_db(&dir, &s, &[]);
    let cases: [(&[&str], [&str; 2]); 3] = [
        (&["-W", "9"], ["w=11 stride=1", "w=9 stride=1"]),
        (&["--asymmetric"], ["w=11 stride=1", "w=10 stride=2"]),
        (
            &["-f", "none"],
            ["built with -f entropy", "asks for -f none"],
        ),
    ];
    for (opts, named) in cases {
        let out = scoris_n()
            .arg(&q)
            .args(opts)
            .arg("--db")
            .arg(&db)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(5), "{opts:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && named.iter().all(|n| stderr.contains(n)),
            "{opts:?}: {stderr}"
        );
    }
}

#[test]
fn corrupt_index_file_fails_cleanly() {
    let dir = scratch("corrupt");
    let (q, s, _) = write_fixture_banks(&dir);
    let db = build_db(&dir, &s, &[]);
    let oidx = db.join("vol00000.oidx");

    // Truncated to half its size, one flipped byte, one trailing byte, a
    // FASTA file in its place: each is exit 3 with one stderr line naming
    // the volume's index file, and the `-o` destination (or a tmp sibling
    // of it) is left behind by none.
    let bytes = std::fs::read(&oidx).unwrap();
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x20;
    let mut trailing = bytes.clone();
    trailing.push(0);
    let fasta = std::fs::read(&q).unwrap();
    let mutants = [
        (
            "truncated",
            &bytes[..bytes.len() / 2],
            "corrupt index file: ",
        ),
        ("flipped", &flipped[..], "corrupt index file: "),
        ("trailing", &trailing[..], "corrupt index file: "),
        ("fasta", &fasta[..], "not an ORIS index file"),
    ];
    for (name, mutant, cause) in mutants {
        std::fs::write(&oidx, mutant).unwrap();
        let out = scoris_n()
            .arg(&q)
            .arg("--db")
            .arg(&db)
            .arg("-o")
            .arg(dir.join("out.m8"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("{}: {cause}", oidx.display());
        assert!(
            stderr.starts_with("scoris-n: ")
                && stderr.contains(&named)
                && stderr.lines().count() == 1,
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
}

#[test]
fn version_2_index_file_asks_for_a_rebuild() {
    // A volume of the previous format version (version word 2) is refused
    // before anything else is read, with the typed rebuild hint.
    let dir = scratch("v2");
    let (q, s, _) = write_fixture_banks(&dir);
    let db = build_db(&dir, &s, &[]);
    let oidx = db.join("vol00000.oidx");
    let mut bytes = std::fs::read(&oidx).unwrap();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&oidx, &bytes).unwrap();
    let out = scoris_n().arg(&q).arg("--db").arg(&db).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported index format version 2")
            && stderr.contains("rebuild with makedb"),
        "{stderr}"
    );
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
fn long_row_bank_is_byte_identical_plain_indexed_and_db() {
    // A 70 000-nt poly-A run inside the subject, unmasked: code A^11 owns
    // a row of ~70 000 postings among rows of one or two, so the row
    // starts keep no low bits and that row's clear high bits span whole
    // rank blocks, which the lookups of the rows after it jump over. The
    // query meets those rows — the subject's stretch into the run,
    // windows ending in A's — and ordinary shared sequence; the -m 8
    // output of a plain run and of a makedb database is the same bytes (a
    // one-sequence subject prices alike per sequence and per database).
    let dir = scratch("long_row");
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

    let db = build_db(&dir, &s, &["-f", "none"]);
    let via_db = run(&["--db".as_ref(), db.as_os_str()], &dir.join("db.m8"));
    assert_eq!(via_db, plain, "--db output differs from the plain run");
    std::fs::remove_dir_all(&dir).ok();
}
