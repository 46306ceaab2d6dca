//! Byte-mutation fuzz: random single-byte flips and truncations of the
//! manifest and the v2 index files must never panic the loaders, and
//! never be silently accepted where a checksum vouches for the bytes.
//!
//! Two layers are driven:
//!
//! * the manifest parser, through [`FaultyIo`] (its trailing FNV-1a
//!   checksum must refuse any body mutation);
//! * the index loaders — [`oris_index::map_index_file`], the real attach
//!   path, against mutated bytes on disk, and the streaming heap reader
//!   through [`FaultyIo`] — which must reject every mutation via header
//!   validation or the whole-stream checksum.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use oris_core::OrisConfig;
use oris_db::{make_db, Database, Fault, FaultRule, FaultyIo, MakeDbOptions};
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

    /// Any single-byte flip of a v2 index file is rejected by the real
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

    /// Any truncation of a v2 index file is rejected by the real attach
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
