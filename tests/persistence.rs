//! Cross-crate persistence tests: an index that travels through the
//! on-disk format must be *behaviourally* identical to the in-memory
//! build — not just equal arrays, but byte-identical HSPs out of step 2
//! and identical final records out of the whole pipeline.

use oris::prelude::*;
use oris_core::FilterKind;
use oris_index::persist::{read_index, read_index_file, write_index, PersistError};
use oris_index::{BankIndex, IndexMeta};
use oris_seqio::BankBuilder;
use proptest::prelude::*;

fn bank_from(seqs: &[String]) -> Bank {
    let mut b = BankBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(&format!("s{i}"), s).unwrap();
    }
    b.finish()
}

fn roundtrip(idx: &BankIndex) -> BankIndex {
    let mut bytes = Vec::new();
    write_index(&mut bytes, idx, &IndexMeta::default()).unwrap();
    read_index(&mut bytes.as_slice()).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialize → deserialize, then run step 2 with the loaded indexes:
    /// the HSP vectors (order included) and `Step2Stats` are identical to
    /// the fresh-build run, for random banks, word lengths, strides and
    /// masks — including the guard auto-selection driven by the persisted
    /// `is_fully_indexed` provenance.
    #[test]
    fn loaded_indexes_produce_identical_hsps(
        seqs1 in proptest::collection::vec("[ACGTN]{20,80}", 1..3),
        seqs2 in proptest::collection::vec("[ACGTN]{20,80}", 1..3),
        core in "[ACGT]{20,40}",
        w in 4usize..7,
        stride in 1usize..3,
        mask_mod in 1usize..7,
    ) {
        // Plant a shared core so HSPs actually exist.
        let mut v1 = seqs1.clone();
        let mut v2 = seqs2.clone();
        v1[0] = format!("{}{core}", &v1[0][..8]);
        v2[0] = format!("{core}{}", &v2[0][..12]);
        let b1 = bank_from(&v1);
        let b2 = bank_from(&v2);

        let cfg = OrisConfig {
            w,
            min_hsp_score: w as i32,
            ..OrisConfig::small(w)
        };
        let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
        let i1 = oris::index::BankIndex::build_filtered(
            &b1, IndexConfig::full(w), masked,
        );
        let i2 = oris::index::BankIndex::build(&b2, IndexConfig { stride, ..IndexConfig::full(w) });

        let l1 = roundtrip(&i1);
        let l2 = roundtrip(&i2);
        prop_assert_eq!(l1.is_fully_indexed(), i1.is_fully_indexed());
        prop_assert_eq!(l2.is_fully_indexed(), i2.is_fully_indexed());
        prop_assert_eq!(l1.stats(), i1.stats());
        prop_assert_eq!(l2.stats(), i2.stats());
        for code in 0..i1.coder().num_seeds() as u32 {
            prop_assert_eq!(l1.occurrences(code), i1.occurrences(code));
            prop_assert_eq!(l2.occurrences(code), i2.occurrences(code));
        }

        let fresh = oris::core::step2::find_hsps(&b1, &i1, &b2, &i2, &cfg);
        let loaded = oris::core::step2::find_hsps(&b1, &l1, &b2, &l2, &cfg);
        prop_assert_eq!(fresh, loaded);
    }
}

#[test]
fn loaded_subject_runs_whole_pipeline_identically() {
    // The EST-scale end-to-end check: persist the subject index, reload
    // it, run the full session — identical records to the fresh build.
    let b1 = paper_banks(&["EST1"], 0.05).remove(0).bank;
    let b2 = paper_banks(&["EST2"], 0.05).remove(0).bank;
    let cfg = OrisConfig::default();

    let fresh = PreparedBank::prepare(&b2, cfg.filter, cfg.subject_index_config());
    let mut bytes = Vec::new();
    write_index(
        &mut bytes,
        fresh.index(),
        &IndexMeta {
            masked_fraction: fresh.stats().masked_fraction,
            filter_code: cfg.filter.code(),
            bank_hash: oris_index::persist::fnv1a(b2.data()),
        },
    )
    .unwrap();
    let (idx, meta) = read_index(&mut bytes.as_slice()).unwrap();
    let prepared = PreparedBank::from_index(b2.clone(), idx, &meta).unwrap();

    let via_loaded = Session::with_subject(prepared, &cfg).unwrap().run(&b1);
    let via_compare = compare_banks(&b1, &b2, &cfg);
    assert_eq!(via_loaded.alignments, via_compare.alignments);
    assert!(!via_loaded.alignments.is_empty());
}

#[test]
fn corrupt_and_truncated_files_error_never_panic() {
    let b = paper_banks(&["EST1"], 0.02).remove(0).bank;
    let idx = oris::index::BankIndex::build(&b, IndexConfig::full(8));
    let mut bytes = Vec::new();
    write_index(&mut bytes, &idx, &IndexMeta::default()).unwrap();

    // Truncations at a spread of prefix lengths across the whole file.
    for frac in [0usize, 1, 2, 5, 10, 50, 90, 99] {
        let cut = bytes.len() * frac / 100;
        assert!(
            read_index(&mut &bytes[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }

    // A flipped byte in every header field errors — via a field check
    // (magic, version, w out of range, stride=0, reserved flags, count
    // mismatches) or, where the value is unconstrained (bank_hash), via
    // the trailing whole-stream checksum.
    for (pos, val) in [
        (0usize, 0x58u8), // magic
        (8, 0x02),        // version
        (12, 0x0f),       // w out of range
        (16, 0x00),       // stride → 0
        (20, 0x80),       // reserved flag bit
        (24, 0xff),       // bank_len inflated → bit-set word count mismatch
        (44, 0x13),       // bank_hash → checksum mismatch
        (52, 0x13),       // num_offsets mismatch
    ] {
        let mut t = bytes.clone();
        if t[pos] == val {
            continue;
        }
        t[pos] = val;
        assert!(read_index(&mut t.as_slice()).is_err(), "byte {pos}");
    }
}

#[test]
fn wrong_version_reports_unsupported() {
    let b = bank_from(&["ACGTACGTACGTTTGGCCAA".to_string()]);
    let idx = oris::index::BankIndex::build(&b, IndexConfig::full(4));
    let mut bytes = Vec::new();
    write_index(&mut bytes, &idx, &IndexMeta::default()).unwrap();
    // The version field, one past the current format.
    let next = oris::index::persist::FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&next.to_le_bytes());
    match read_index(&mut bytes.as_slice()) {
        Err(PersistError::UnsupportedVersion(v)) if v == next => {}
        other => panic!("expected UnsupportedVersion({next}), got {other:?}"),
    }
}

#[test]
fn file_level_roundtrip_via_tempdir() {
    let b = bank_from(&["ACGTACGTTTGGCCAAACGTACGT".to_string()]);
    let idx = oris::index::BankIndex::build(&b, IndexConfig::full(5));
    let dir = std::env::temp_dir().join("oris_persistence_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("it.oidx");
    let meta = IndexMeta {
        masked_fraction: 0.125,
        filter_code: FilterKind::Dust.code(),
        bank_hash: 0xfeed_beef,
    };
    oris_index::write_index_file(&path, &idx, &meta).unwrap();
    let (loaded, lmeta) = read_index_file(&path).unwrap();
    assert_eq!(lmeta, meta);
    assert!(loaded.populated().eq(idx.populated()));
    assert_eq!(loaded.stats(), idx.stats());
    assert_eq!(loaded.postings(), idx.postings());
    assert_eq!(
        FilterKind::from_code(lmeta.filter_code),
        Some(FilterKind::Dust)
    );
}
