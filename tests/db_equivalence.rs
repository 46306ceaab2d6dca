//! Sharded-database ≡ single-bank, pinned at the workspace level.
//!
//! The database layer's central promise: searching a `makedb` database —
//! any volume count, any window, result cache on or off — produces records **byte-identical** to a
//! single-bank session over the concatenated input, with e-values
//! computed over the same database-wide effective search space. Random
//! banks, volume budgets, strands and filters all converge on the same
//! `-m 8` bytes.

use oris_core::{
    CollectSink, FilterKind, M8Record, M8Writer, OrisConfig, Session, StreamWriter, SubjectSpace,
};
use oris_db::{make_db, Database, DbOptions, DbSession, MakeDbOptions};
use oris_seqio::{Bank, BankBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

fn bank_from(seqs: &[String]) -> Bank {
    let mut b = BankBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(&format!("s{i}"), s).unwrap();
    }
    b.finish()
}

/// Renders records the way `StreamWriter` does, for byte comparisons.
fn render(records: &[M8Record]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = M8Writer::new(&mut out);
    for r in records {
        w.write_record(r).unwrap();
    }
    out
}

/// `bank` prepared as a subject under `cfg`, then its index written to
/// `path` and attached again decoded to the heap and mapped: the three
/// storage backings of one index.
fn index_backings<'b>(
    bank: &'b Bank,
    cfg: &OrisConfig,
    path: &std::path::Path,
) -> Vec<oris_core::PreparedBank<'b>> {
    use oris_core::PreparedBank;
    use oris_index::{map_index_file, read_index_file, write_index_file, IndexMeta};
    let built = PreparedBank::prepare(bank, cfg.filter, cfg.subject_index_config());
    let meta = IndexMeta {
        masked_fraction: built.stats().masked_fraction,
        filter_code: cfg.filter.code(),
        bank_hash: oris_index::persist::fnv1a(bank.data()),
    };
    write_index_file(path, built.index(), &meta).unwrap();
    let loaded = [
        read_index_file(path).unwrap().0,
        map_index_file(path).unwrap().0,
    ];
    let mut out = vec![built];
    out.extend(loaded.map(|idx| PreparedBank::from_index(bank, idx, &meta).unwrap()));
    out
}

/// A unique scratch directory (proptest shrinking reruns cases, so a
/// per-process counter keeps every build in a fresh directory).
fn scratch() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir()
        .join("oris_db_equivalence")
        .join(format!(
            "{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// make_db over random banks and volume budgets, searched with both
    /// window sizes, equals a single-bank session over
    /// the concatenated input — same records, same bytes through a
    /// StreamWriter.
    #[test]
    fn db_search_equals_concatenated_bank(
        seqs in proptest::collection::vec("[ACGT]{30,80}", 2..6),
        flank in "[ACGT]{5,20}",
        w in 5usize..8,
        volume_budget in 40usize..400,
        flags in 0u8..4,
    ) {
        let (both_strands, masked) = (flags & 1 != 0, flags & 2 != 0);
        let subject = bank_from(&seqs);
        let total = subject.num_residues() as u64;
        // Queries embed subject sequences (guaranteed homology) plus a
        // flank-only decoy; masked mode appends a poly-A run so the
        // entropy filter fires on both sides.
        let q_seqs: Vec<String> = seqs
            .iter()
            .map(|s| {
                if masked {
                    format!("{flank}{s}{}", "A".repeat(40))
                } else {
                    format!("{flank}{s}")
                }
            })
            .chain([flank.clone()])
            .collect();
        let query = bank_from(&q_seqs);

        let cfg = OrisConfig {
            both_strands,
            filter: if masked { FilterKind::Entropy } else { FilterKind::None },
            ..OrisConfig::small(w)
        };

        // Shard under a random volume budget...
        let dir = scratch();
        let manifest = make_db(
            [subject.clone()],
            &dir,
            &MakeDbOptions::new(&cfg, volume_budget),
        )
        .unwrap();
        prop_assert_eq!(manifest.total_residues, total);
        let db = Database::open(&dir).unwrap();

        // ...and the single-bank reference under the same database-wide
        // e-value space.
        let ref_cfg = OrisConfig {
            subject_space: SubjectSpace::Database(total),
            ..cfg
        };
        let reference = Session::new(&subject, &ref_cfg).unwrap();
        let expected = reference.run(&query);
        let expected_bytes = render(&expected.alignments);

        for window in [0usize, 1] {
            for cache_bytes in [0usize, 1 << 20] {
                let opts = DbOptions {
                    window,
                    result_cache_bytes: cache_bytes,
                    ..DbOptions::default()
                };
                let mut session = DbSession::new(&db, &cfg, opts).unwrap();

                if cache_bytes == 0 {
                    // Collected records agree...
                    let mut collected = CollectSink::new();
                    session.run_query_reported(&query, &mut collected).unwrap();
                    prop_assert_eq!(collected.records(), &expected.alignments[..]);
                }

                // ...and streamed bytes agree (the sink's single
                // boundary sort really does merge the volumes) — for
                // either window, cache on or off.
                let mut stream = StreamWriter::new(Vec::new());
                session.run_query_reported(&query, &mut stream).unwrap();
                prop_assert_eq!(&stream.into_inner(), &expected_bytes);

                if cache_bytes > 0 {
                    // The repeat is served from the cache and must
                    // replay the exact same bytes.
                    let mut stream = StreamWriter::new(Vec::new());
                    let (_, report) =
                        session.run_query_reported(&query, &mut stream).unwrap();
                    prop_assert!(report.from_cache);
                    prop_assert_eq!(&stream.into_inner(), &expected_bytes);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sharding granularity cannot leak into the output: the same
    /// collection built at two different volume budgets reports identical
    /// records (e-values included) for the same query.
    #[test]
    fn volume_count_is_invisible(
        seqs in proptest::collection::vec("[ACGT]{30,60}", 2..5),
        w in 5usize..8,
        budget_a in 35usize..120,
        budget_b in 150usize..600,
    ) {
        let subject = bank_from(&seqs);
        let query = bank_from(&seqs[..1]);
        let cfg = OrisConfig::small(w);

        let run_against = |budget: usize| {
            let dir = scratch();
            make_db([subject.clone()], &dir, &MakeDbOptions::new(&cfg, budget)).unwrap();
            let db = Database::open(&dir).unwrap();
            let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
            let mut sink = CollectSink::new();
            session.run_query_reported(&query, &mut sink).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            (db.num_volumes(), sink.into_records())
        };
        let (va, ra) = run_against(budget_a);
        let (vb, rb) = run_against(budget_b);
        prop_assert!(!ra.is_empty(), "self-hit query must produce records");
        // Different budgets usually mean different volume counts; either
        // way the records must agree.
        prop_assert!(va >= vb);
        prop_assert_eq!(ra, rb);
    }

    /// Degraded mode cannot invent, drop or re-price surviving records:
    /// corrupt one random volume, search under SkipAndReport, and the
    /// output is byte-identical to a database built from only the
    /// surviving sequences — priced against the FULL residue total.
    #[test]
    fn degraded_search_equals_surviving_volumes(
        seqs in proptest::collection::vec("[ACGT]{30,80}", 3..6),
        w in 5usize..8,
        bad_sel in 0usize..64,
    ) {
        use oris_db::{Fault, FaultRule, FaultyIo, OnVolumeError};
        use std::sync::Arc;

        let subject = bank_from(&seqs);
        let total = subject.num_residues() as u64;
        let query = bank_from(&seqs);
        let cfg = OrisConfig::small(w);
        let budget = (subject.num_residues() / 3).max(30);

        let dir = scratch();
        let manifest = make_db([subject], &dir, &MakeDbOptions::new(&cfg, budget)).unwrap();
        let nv = manifest.volumes.len();
        // budget ≤ total/3 means the collection can never fit one volume.
        prop_assert!(nv >= 2);
        let bad = bad_sel % nv;

        // Degraded runs: volume `bad`'s index has a flipped magic byte.
        // The quarantine decision, the report and the surviving bytes
        // must be identical whatever the window, cache on or off (a
        // failed volume's entries are invalidated, never served).
        let mut degraded: Vec<(CollectSink, oris_db::SearchReport)> = Vec::new();
        for (window, cache_bytes) in [(0usize, 0usize), (1, 0), (0, 1 << 20)] {
            let io = FaultyIo::with_rules([FaultRule::always(
                &manifest.volumes[bad].index,
                Fault::FlipByte { offset: 0, mask: 0xFF },
            )]);
            let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
            let opts = DbOptions {
                on_volume_error: OnVolumeError::SkipAndReport,
                window,
                result_cache_bytes: cache_bytes,
                ..DbOptions::default()
            };
            let mut session = DbSession::new(&db, &cfg, opts).unwrap();
            let mut sink = CollectSink::new();
            let (_, report) = session.run_query_reported(&query, &mut sink).unwrap();
            prop_assert_eq!(&report.skipped, &vec![bad]);
            prop_assert_eq!(report.residues_searched, total - manifest.volumes[bad].residues);
            degraded.push((sink, report));
        }
        let (sink, report) = degraded.remove(0);
        for (other_sink, other_report) in &degraded {
            prop_assert_eq!(render(sink.records()), render(other_sink.records()));
            prop_assert_eq!(&report.searched, &other_report.searched);
            prop_assert_eq!(&report.skipped, &other_report.skipped);
            prop_assert_eq!(report.retries, other_report.retries);
        }

        // Reference: only the surviving sequences (volumes never split a
        // sequence, so manifest sequence counts give the partition), with
        // the e-value space pinned to the full total.
        let mut starts = vec![0u64];
        for v in &manifest.volumes {
            starts.push(starts.last().unwrap() + v.sequences);
        }
        let ref_cfg = OrisConfig {
            subject_space: SubjectSpace::Database(total),
            ..cfg
        };
        // The surviving bank must keep the ORIGINAL sequence names so
        // records compare byte-for-byte.
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            let i64 = i as u64;
            if !(starts[bad]..starts[bad + 1]).contains(&i64) {
                b.push_str(&format!("s{i}"), s).unwrap();
            }
        }
        let surviving_bank = b.finish();
        let ref_session = Session::new(&surviving_bank, &ref_cfg).unwrap();
        let expected = ref_session.run(&query);
        prop_assert_eq!(render(sink.records()), render(&expected.alignments));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Where the occurrence index lives is invisible in the output:
    /// sessions whose subject index is a fresh build or its index file
    /// decoded to the heap or mapped, and a whole `make_db` database,
    /// produce byte-identical `-m 8` streams for random banks, strands,
    /// and filters. (The storage backing is a memory trade
    /// inside `oris-index`; nothing downstream may observe it.)
    #[test]
    fn fresh_decoded_and_mapped_indexes_give_the_same_m8_output(
        seqs in proptest::collection::vec("[ACGT]{30,80}", 2..6),
        flank in "[ACGT]{5,20}",
        w in 5usize..8,
        volume_budget in 40usize..400,
        flags in 0u8..4,
    ) {
        let (both_strands, masked) = (flags & 1 != 0, flags & 2 != 0);
        let subject = bank_from(&seqs);
        let total = subject.num_residues() as u64;
        let q_seqs: Vec<String> = seqs
            .iter()
            .map(|s| format!("{flank}{s}"))
            .chain([format!("{flank}{}", "A".repeat(30))])
            .collect();
        let query = bank_from(&q_seqs);
        let cfg = OrisConfig {
            both_strands,
            filter: if masked { FilterKind::Entropy } else { FilterKind::None },
            ..OrisConfig::small(w)
        };

        let session_cfg = OrisConfig {
            subject_space: SubjectSpace::Database(total),
            ..cfg
        };
        let dir = scratch();
        let subjects = index_backings(&subject, &session_cfg, &dir.join("s.oidx"));
        prop_assert!(subjects[2].index().is_mmap_backed() || !cfg!(unix));
        let mut expected = None;
        for prepared in subjects {
            let session = Session::with_subject(prepared, &session_cfg).unwrap();
            let rendered = render(&session.run(&query).alignments);
            let expected = expected.get_or_insert_with(|| rendered.clone());
            prop_assert_eq!(&rendered, &*expected);
        }
        std::fs::remove_dir_all(&dir).ok();

        // Database level: the same bytes from the volumes `make_db`
        // writes and the search maps.
        let dir = scratch();
        make_db([subject.clone()], &dir, &MakeDbOptions::new(&cfg, volume_budget)).unwrap();
        let db = Database::open(&dir).unwrap();
        let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
        let mut stream = StreamWriter::new(Vec::new());
        session.run_query_reported(&query, &mut stream).unwrap();
        prop_assert_eq!(&stream.into_inner(), expected.as_ref().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An armed (deadline + SkipAndReport through a rule-less injector)
    /// session with no faults, under either window, is byte-identical to
    /// the plain path — the failure machinery never changes what is
    /// computed.
    #[test]
    fn armed_no_fault_session_is_byte_identical(
        seqs in proptest::collection::vec("[ACGT]{30,60}", 2..5),
        w in 5usize..8,
        budget in 40usize..300,
        window in 0usize..2,
    ) {
        use oris_db::{FaultyIo, OnVolumeError};
        use std::sync::Arc;
        use std::time::Duration;

        let subject = bank_from(&seqs);
        let query = bank_from(&seqs[..1]);
        let cfg = OrisConfig::small(w);
        let dir = scratch();
        make_db([subject], &dir, &MakeDbOptions::new(&cfg, budget)).unwrap();

        let plain = {
            let db = Database::open(&dir).unwrap();
            let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
            let mut sink = CollectSink::new();
            session.run_query_reported(&query, &mut sink).unwrap();
            sink.into_records()
        };
        let armed = {
            let db = Database::open_with_io(&dir, Arc::new(FaultyIo::new())).unwrap();
            let opts = DbOptions {
                window,
                on_volume_error: OnVolumeError::SkipAndReport,
                deadline: Some(Duration::from_secs(3600)),
                ..DbOptions::default()
            };
            let mut session = DbSession::new(&db, &cfg, opts).unwrap();
            let mut sink = CollectSink::new();
            let (_, report) = session.run_query_reported(&query, &mut sink).unwrap();
            prop_assert!(report.is_complete());
            prop_assert_eq!(report.coverage(), 1.0);
            sink.into_records()
        };
        prop_assert_eq!(render(&plain), render(&armed));
        std::fs::remove_dir_all(&dir).ok();
    }
}
