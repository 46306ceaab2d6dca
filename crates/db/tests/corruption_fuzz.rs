//! Byte-mutation fuzz: random single-byte flips and truncations of the
//! manifest and the v5 index files must never panic the loaders, and
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
//!   validation or the whole-stream checksum. The fixture's volumes are
//!   sparse (a code list); a second database at W = 5 gives its volumes
//!   the dense presence bitmap, every byte of which is flipped below; a
//!   third puts a 70 000-nt poly-A run ahead of the sequence, so its
//!   first row group keeps `u32` starts in the wide side array, and every
//!   byte of its row bounds is flipped, and its words edited under a
//!   restamped checksum.

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

/// A database whose volume indexes carry the dense presence bitmap: its
/// directory and vol00000.oidx's bytes.
fn dense_fixture() -> &'static (PathBuf, Vec<u8>) {
    static FIXTURE: OnceLock<(PathBuf, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join("oris_db_fuzz")
            .join(format!("dense_fixture_{}", std::process::id()));
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
            &MakeDbOptions::new(&OrisConfig::small(5), per_volume),
        )
        .unwrap();
        let index = std::fs::read(dir.join("vol00000.oidx")).unwrap();
        (dir, index)
    })
}

/// Every single-byte flip of a volume's presence bitmap — the words that
/// decide which codes have rows — is refused by both attach modes: the
/// mapped file, and the database attach through [`FaultyIo`], which reads
/// the file into heap arrays.
#[test]
fn bitmap_flips_are_refused_by_both_attach_modes() {
    let (dir, index) = dense_fixture();
    let clean = oris_index::map_index_file(dir.join("vol00000.oidx"))
        .unwrap()
        .0;
    assert_eq!(clean.backend(), oris_index::IndexBackend::Dense);
    // Header 92 bytes, padded to 96; then ⌈4^5/64⌉ = 16 bitmap words.
    for offset in 96..96 + 8 * 16 {
        for mask in [0x01u8, 0x80] {
            let mut bytes = index.clone();
            bytes[offset] ^= mask;
            let path = mutated_file(&bytes);
            assert!(
                oris_index::map_index_file(&path).is_err(),
                "mapped attach accepted a flip at {offset} (mask {mask:#x})"
            );
            std::fs::remove_file(&path).ok();
            let fault = Fault::FlipByte { offset, mask };
            let io = FaultyIo::with_rules([FaultRule::always("vol00000.oidx", fault)]);
            let db = Database::open_with_io(dir, Arc::new(io)).unwrap();
            let e = db.attach_volume(0).unwrap_err();
            assert!(matches!(e, DbError::Volume(_)), "{e:?}");
        }
    }
}

/// A database whose first volume's index has a wide row group — a
/// 70 000-nt poly-A run ahead of the fixture sequence, W = 5 — with its
/// directory, vol00000.oidx's bytes and the byte ranges of its three
/// row-bound sections (`rel`s, anchors, wide starts).
fn wide_fixture() -> &'static (PathBuf, Vec<u8>, [std::ops::Range<usize>; 3]) {
    static FIXTURE: OnceLock<(PathBuf, Vec<u8>, [std::ops::Range<usize>; 3])> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join("oris_db_fuzz")
            .join(format!("wide_fixture_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = BankBuilder::new();
        let seq = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTA".repeat(8);
        b.push_str("s0", &format!("{}{seq}", "A".repeat(70_000)))
            .unwrap();
        b.push_str("s1", &seq).unwrap();
        let subject = b.finish();
        let total = subject.num_residues();
        make_db(
            [subject],
            &dir,
            &MakeDbOptions::new(&OrisConfig::small(5), total),
        )
        .unwrap();
        let index = std::fs::read(dir.join("vol00000.oidx")).unwrap();
        // The header's counts (num_keys, num_rows, num_wide) lay the
        // sections out: each starts on the next 8-byte offset.
        let count = |at: usize| u64::from_le_bytes(index[at..at + 8].try_into().unwrap()) as usize;
        let (keys, rows, wide) = (count(52), count(60), count(84));
        let align = |at: usize| at.next_multiple_of(8);
        let rel = align(align(92) + 8 * keys);
        let anchors = align(rel + 2 * rows);
        let side = align(anchors + 4 * rows.div_ceil(64));
        assert_eq!(wide, rows.min(64), "the poly-A row group must be wide");
        let sections = [
            rel..rel + 2 * rows,
            anchors..anchors + 4 * rows.div_ceil(64),
            side..side + 4 * wide,
        ];
        (dir, index, sections)
    })
}

/// Every single-byte flip of a volume's row bounds — `rel`s, anchors and
/// wide starts — is refused by both attach modes, as the bitmap's are.
#[test]
fn row_bound_flips_are_refused_by_both_attach_modes() {
    let (dir, index, sections) = wide_fixture();
    let clean = oris_index::map_index_file(dir.join("vol00000.oidx"))
        .unwrap()
        .0;
    assert_eq!(clean.backend(), oris_index::IndexBackend::Dense);
    for offset in sections.iter().flat_map(|s| s.clone().step_by(3)) {
        let mut bytes = index.clone();
        bytes[offset] ^= 0x41;
        let path = mutated_file(&bytes);
        assert!(
            oris_index::map_index_file(&path).is_err(),
            "mapped attach accepted a flip at {offset}"
        );
        std::fs::remove_file(&path).ok();
        let fault = Fault::FlipByte { offset, mask: 0x41 };
        let io = FaultyIo::with_rules([FaultRule::always("vol00000.oidx", fault)]);
        let db = Database::open_with_io(dir, Arc::new(io)).unwrap();
        let e = db.attach_volume(0).unwrap_err();
        assert!(matches!(e, DbError::Volume(_)), "{e:?}");
    }
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

    /// Any single-byte flip of a v5 index file is rejected by the real
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

    /// Any truncation of a v5 index file is rejected by the real attach
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structure-aware edits of the row bounds under a restamped checksum
    /// (the checksum is not a MAC): one or two words of the `rel`,
    /// anchor or wide-start sections set to a value near the stored one,
    /// to a wide flag, or to anything. The mapped attach never panics; it
    /// refuses the file with a typed corruption error, or accepts an index
    /// whose every row lies inside its postings in ascending order.
    #[test]
    fn row_bound_edits_end_in_a_typed_error(
        picks in proptest::collection::vec(0u64..=u64::MAX, 1..3),
        values in proptest::collection::vec(0u64..=u64::MAX, 2),
    ) {
        let (_, index, sections) = wide_fixture();
        let mut bytes = index.clone();
        for (pick, value) in picks.iter().zip(&values) {
            let section = (pick % 3) as usize;
            let range = &sections[section];
            let width = if section == 0 { 2 } else { 4 };
            let at = range.start + width * ((pick >> 2) as usize % (range.len() / width));
            let stored = bytes[at..at + width].iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
            let new = match value & 3 {
                0 => stored.wrapping_add(value >> 2 & 7).wrapping_sub(4),
                1 => (1 << 31) | ((value >> 2) % 256),
                _ => value >> 2,
            };
            bytes[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
        }
        oris_index::persist::restamp_checksum(&mut bytes);
        let path = mutated_file(&bytes);
        match oris_index::map_index_file(&path) {
            Err(oris_index::PersistError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "not a corruption error: {e}"),
            Ok((idx, _)) => {
                let mut seen = 0;
                for (_, row) in idx.populated() {
                    prop_assert!(row.windows(2).all(|p| p[0] < p[1]));
                    seen += row.len();
                }
                prop_assert_eq!(seen, idx.indexed_positions());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
