//! Byte-mutation fuzz: random single-byte flips and truncations of the
//! manifest and the v3 index files must never panic the loaders, and
//! never be silently accepted where a checksum vouches for the bytes.
//! Structure-aware fuzz: manifest *fields* overwritten and rows shuffled
//! with the checksum restamped — the checksum is not a MAC, so the parser
//! alone stands between a hand-edited manifest and the search.
//!
//! Two layers are driven:
//!
//! * the manifest parser, through [`FaultyIo`] (its trailing FNV-1a
//!   checksum must refuse any body mutation) and through edited files
//!   (every field validated, nothing sized from a number merely read);
//! * the index loaders — [`oris_index::map_index_file`], the real attach
//!   path, against mutated bytes on disk, and the streaming heap reader
//!   through [`FaultyIo`] — which must reject every mutation via header
//!   validation or the whole-stream checksum.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use oris_core::OrisConfig;
use oris_db::{make_db, Database, DbError, Fault, FaultRule, FaultyIo, MakeDbOptions, Manifest};
use oris_seqio::BankBuilder;
use proptest::prelude::*;

/// One pristine database, built once for the whole fuzz run: its
/// directory, the manifest bytes, and vol00000.oidx's bytes.
fn fixture() -> &'static (PathBuf, Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(PathBuf, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join("oris_db_fuzz")
            .join(format!("fixture_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = BankBuilder::new();
        for i in 0..4 {
            b.push_str(
                &format!("s{i}"),
                &"ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTA".repeat(2),
            )
            .unwrap();
        }
        let subject = b.finish();
        let per_volume = subject.num_residues() / 2;
        make_db(
            [subject],
            &dir,
            &MakeDbOptions::new(&OrisConfig::small(8), per_volume),
        )
        .unwrap();
        let manifest = std::fs::read(dir.join("manifest.orisdb")).unwrap();
        let index = std::fs::read(dir.join("vol00000.oidx")).unwrap();
        (dir, manifest, index)
    })
}

/// Writes `bytes` to a fresh scratch file and returns its path.
fn mutated_file(bytes: &[u8]) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("oris_db_fuzz").join("mutants");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}_{}.oidx",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Start of the manifest's trailing checksum line (the body before it is
/// what the checksum vouches for).
fn manifest_body_end(manifest: &[u8]) -> usize {
    let text = std::str::from_utf8(manifest).unwrap();
    text.rfind("checksum ").unwrap()
}

/// A manifest as editable text: one vector of words per line — the magic
/// line, five `key value` header lines (`volumes` last), then one
/// `volume id residues sequences hash fasta index` row per volume. The
/// checksum line is dropped here and stamped afresh by `render`.
#[derive(Debug, Clone)]
struct ManifestWords(Vec<Vec<String>>);

/// Index of the `volumes N` line; the rows start right after it.
const VOLUMES: usize = 5;

impl ManifestWords {
    fn of(text: &str) -> ManifestWords {
        let words = |l: &str| l.split(' ').map(str::to_string).collect();
        let mut lines: Vec<Vec<String>> = text.lines().map(words).collect();
        assert_eq!(lines.pop().unwrap()[0], "checksum");
        assert_eq!(
            (&lines[VOLUMES][0][..], lines.len()),
            ("volumes", VOLUMES + 3)
        );
        ManifestWords(lines)
    }

    fn render(&self) -> String {
        let body: String = self.0.iter().map(|l| l.join(" ") + "\n").collect();
        format!(
            "{body}checksum {:016x}\n",
            oris_index::persist::fnv1a(body.as_bytes())
        )
    }

    /// Applies the edit drawn as `(pick, value)`: three picks in sixteen
    /// duplicate, drop or reorder a row; the others overwrite one field of
    /// one line — a number with `value` or with one within ±2 of the true
    /// one, a file name with one that escapes the directory, hides,
    /// vanishes, splits the row, is missing, or is another volume's.
    fn edit(&mut self, pick: u64, value: u64) {
        const NAMES: [&str; 7] = ["../x", ".x", "", "a b", "x", "vol00000.fa", "vol00001.oidx"];
        let lines = &mut self.0;
        let rows = lines.len() - (VOLUMES + 1);
        let row = VOLUMES + 1 + (pick >> 8) as usize % rows.max(1);
        match pick % 16 {
            0..=2 if rows == 0 => {}
            0 => lines.insert(row, lines[row].clone()),
            1 => drop(lines.remove(row)),
            2 => lines[VOLUMES + 1..].reverse(),
            _ => {
                let line = 1 + (pick >> 8) as usize % (lines.len() - 1);
                let fields = lines[line].len() - 1;
                let word = &mut lines[line][1 + (pick >> 24) as usize % fields];
                let radix = if word.len() == 16 { 16 } else { 10 };
                *word = match u64::from_str_radix(word, radix) {
                    Err(_) => NAMES[value as usize % NAMES.len()].to_string(),
                    Ok(truth) => {
                        let n = match pick >> 16 & 1 {
                            0 => value,
                            _ => truth.wrapping_add(value % 5).wrapping_sub(2),
                        };
                        if radix == 16 {
                            format!("{n:016x}")
                        } else {
                            n.to_string()
                        }
                    }
                };
            }
        }
    }
}

/// A private copy of the fixture database whose manifest a test may
/// overwrite at will.
fn editable_copy(name: &str) -> PathBuf {
    let (fixture_dir, _, _) = fixture();
    let dir = fixture_dir.with_file_name(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// What every edited manifest is held to, whatever the edit: no panic, one
/// verdict from [`Manifest::parse`] and [`Database::open`], no count taken
/// on its word, and an accepted manifest is one the writer writes.
fn check_edited_manifest(dir: &std::path::Path, edited: &ManifestWords) -> Result<(), String> {
    let text = edited.render();
    let parsed = Manifest::parse(&text);
    std::fs::write(dir.join("manifest.orisdb"), &text).unwrap();
    let opened = Database::open(dir);
    let here = |name: &String| dir.join(name).is_file();
    match (&parsed, &opened) {
        (Err(said), Err(DbError::Manifest(echoed))) if said == echoed => {}
        (Ok(_), Ok(_)) => {}
        // The one thing `open` checks beyond the manifest: the files the
        // (accepted, bare) names point at exist.
        (Ok(m), Err(DbError::Volume(_)))
            if m.volumes.iter().any(|v| !here(&v.fasta) || !here(&v.index)) => {}
        _ => {
            return Err(format!(
                "two verdicts: parse {parsed:?}, open {opened:?}\n{text}"
            ))
        }
    }
    let (declared, rows) = (&edited.0[VOLUMES][1], edited.0.len() - (VOLUMES + 1));
    if *declared != rows.to_string() && parsed.is_ok() {
        return Err(format!("`volumes {declared}` accepted over {rows} rows"));
    }
    if let Ok(m) = parsed {
        if Manifest::parse(&m.to_text()).as_ref() != Ok(&m) {
            return Err(format!("accepted, but not what the writer writes: {m:?}"));
        }
        let sum = m
            .volumes
            .iter()
            .try_fold(0u64, |s, v| s.checked_add(v.residues));
        if sum != Some(m.total_residues) {
            return Err(format!("accepted with rows summing to {sum:?}: {m:?}"));
        }
    }
    Ok(())
}

/// The hand edits that used to size a vector or wrap a sum from numbers
/// the file merely states — each with its checksum restamped.
#[test]
fn manifest_counts_are_not_taken_on_their_word() {
    let (_, manifest, _) = fixture();
    let pristine = ManifestWords::of(std::str::from_utf8(manifest).unwrap());
    let dir = editable_copy("counts");
    check_edited_manifest(&dir, &pristine).unwrap();
    assert!(Database::open(&dir).is_ok(), "the unedited copy opens");
    for volumes in [1u64 << 40, u64::MAX, 100_000_000_000_000, 3, 1, 0] {
        let mut edited = pristine.clone();
        edited.0[VOLUMES][1] = volumes.to_string();
        check_edited_manifest(&dir, &edited).unwrap();
    }
    // Row 0 claims 2^64 − 1 residues, row 1 one more than the two hold:
    // the sum wraps around to exactly `total_residues`.
    let mut wrapping = pristine.clone();
    let total: u64 = pristine.0[VOLUMES - 1][1].parse().unwrap();
    wrapping.0[VOLUMES + 1][2] = u64::MAX.to_string();
    wrapping.0[VOLUMES + 2][2] = (total + 1).to_string();
    check_edited_manifest(&dir, &wrapping).unwrap();
    let said = Manifest::parse(&wrapping.render()).unwrap_err();
    assert!(said.contains("overflows"), "{said}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One or two structure-aware edits under a restamped checksum.
    #[test]
    fn manifest_field_edits_get_one_bounded_verdict(
        picks in proptest::collection::vec(0u64..=u64::MAX, 1..3),
        values in proptest::collection::vec(0u64..=u64::MAX, 2),
    ) {
        static DIR: OnceLock<PathBuf> = OnceLock::new();
        let dir = DIR.get_or_init(|| editable_copy("fields"));
        let (_, manifest, _) = fixture();
        let mut edited = ManifestWords::of(std::str::from_utf8(manifest).unwrap());
        for (pick, value) in picks.iter().zip(&values) {
            edited.edit(*pick, *value);
        }
        if let Err(complaint) = check_edited_manifest(dir, &edited) {
            prop_assert!(false, "{complaint}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte flip in the manifest body is refused (the trailing
    /// checksum vouches for it), and no flip anywhere panics the parser.
    #[test]
    fn manifest_flips_never_panic_never_pass(
        offset_sel in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let (dir, manifest, _) = fixture();
        let offset = offset_sel % manifest.len();
        let io = FaultyIo::with_rules([FaultRule::always(
            "manifest.orisdb",
            Fault::FlipByte { offset, mask },
        )]);
        let result = Database::open_with_io(dir, Arc::new(io));
        if offset < manifest_body_end(manifest) {
            prop_assert!(result.is_err(), "body flip at {offset} (mask {mask:#x}) accepted");
        }
        // Flips inside the checksum line itself may be semantically
        // neutral (hex case, trailing whitespace); not panicking is the
        // contract there.
    }

    /// Truncating the manifest anywhere before its checksum line is
    /// refused; truncating anywhere never panics.
    #[test]
    fn manifest_truncations_never_panic_never_pass(len_sel in 0usize..1_000_000) {
        let (dir, manifest, _) = fixture();
        let len = len_sel % manifest.len();
        let io = FaultyIo::with_rules([FaultRule::always(
            "manifest.orisdb",
            Fault::Truncate(len),
        )]);
        let result = Database::open_with_io(dir, Arc::new(io));
        if len < manifest_body_end(manifest) {
            prop_assert!(result.is_err(), "truncation to {len} bytes accepted");
        }
    }

    /// Any single-byte flip of a v3 index file is rejected by the real
    /// attach path — header validation or the whole-stream checksum —
    /// without panicking.
    #[test]
    fn index_flips_never_panic_never_pass(
        offset_sel in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let (_, _, index) = fixture();
        let offset = offset_sel % index.len();
        let mut bytes = index.clone();
        bytes[offset] ^= mask;
        let path = mutated_file(&bytes);
        prop_assert!(
            oris_index::map_index_file(&path).is_err(),
            "accepted a flip at {offset} (mask {mask:#x})"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a v3 index file is rejected by the real attach
    /// path without panicking.
    #[test]
    fn index_truncations_never_panic_never_pass(len_sel in 0usize..1_000_000) {
        let (_, _, index) = fixture();
        let len = len_sel % index.len();
        let path = mutated_file(&index[..len]);
        prop_assert!(
            oris_index::map_index_file(&path).is_err(),
            "accepted truncation to {len} bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The same mutations driven through the full database attach path
    /// (FaultyIo, which parses with the streaming heap reader) surface as
    /// typed volume errors, never panics.
    #[test]
    fn db_attach_survives_index_mutations(
        offset_sel in 0usize..1_000_000,
        mask in 1u8..=255,
        truncate_sel in 0u8..2,
    ) {
        let (dir, _, index) = fixture();
        let offset = offset_sel % index.len();
        let fault = if truncate_sel == 1 {
            Fault::Truncate(offset)
        } else {
            Fault::FlipByte { offset, mask }
        };
        let io = FaultyIo::with_rules([FaultRule::always("vol00000.oidx", fault)]);
        let db = Database::open_with_io(dir, Arc::new(io)).unwrap();
        let e = db.attach_volume(0).unwrap_err();
        prop_assert!(matches!(e, oris_db::DbError::Volume(_)), "{e:?}");
    }
}
