//! Integration tests for the sharded database: makedb splitting, open
//! validation, and the cross-volume search contract (byte-identical to a
//! single-bank run over the concatenated input, shard-invariant
//! e-values, mapped attach, bounded windows).

use oris_core::{CollectSink, FilterKind, OrisConfig, OrisResult, Session, SubjectSpace};
use oris_db::{make_db, Database, DbOptions, DbSession, MakeDbOptions};
use oris_seqio::{Bank, BankBuilder};
use std::path::PathBuf;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_db_test")
        .join(format!("{}_{test}", std::process::id()));
    // A previous run's directory would make make_db refuse (manifest
    // exists); start clean.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bank(seqs: &[(&str, &str)]) -> Bank {
    let mut b = BankBuilder::new();
    for (name, s) in seqs {
        b.push_str(name, s).unwrap();
    }
    b.finish()
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA";

/// A subject collection big enough to shard: several records sharing the
/// core (so queries hit multiple volumes) plus decoys.
fn subject_records() -> Vec<(String, String)> {
    let mut recs = Vec::new();
    for i in 0..6 {
        recs.push((
            format!("subj{i}"),
            format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(5 + i)),
        ));
    }
    recs.push(("decoy".to_string(), "GCGCGCGCATATATATGCGCGCGC".to_string()));
    recs
}

fn subject_bank() -> Bank {
    let recs = subject_records();
    let refs: Vec<(&str, &str)> = recs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    bank(&refs)
}

fn small_cfg() -> OrisConfig {
    OrisConfig::small(8)
}

/// One query through `session`, collected.
fn collect(session: &mut DbSession<'_>, query: &Bank) -> OrisResult {
    let mut sink = CollectSink::new();
    let (stats, _) = session.run_query_reported(query, &mut sink).unwrap();
    OrisResult {
        alignments: sink.into_records(),
        stats,
    }
}

/// Builds a database from the standard subject split into roughly
/// `volumes` volumes, returning its directory.
fn build_db(test: &str, cfg: &OrisConfig, volumes: usize) -> PathBuf {
    let dir = scratch(test);
    let subject = subject_bank();
    let per_volume = (subject.num_residues() / volumes).max(1);
    let m = make_db([subject], &dir, &MakeDbOptions::new(cfg, per_volume)).unwrap();
    assert!(
        m.volumes.len() >= volumes.min(2),
        "wanted ≥{} volumes, got {}",
        volumes.min(2),
        m.volumes.len()
    );
    dir
}

#[test]
fn makedb_splits_and_manifest_adds_up() {
    let dir = scratch("split");
    let subject = subject_bank();
    let total = subject.num_residues() as u64;
    let m = make_db([subject], &dir, &MakeDbOptions::new(&small_cfg(), 200)).unwrap();
    assert!(m.volumes.len() > 1, "200-residue budget must shard");
    assert_eq!(m.total_residues, total);
    assert_eq!(
        m.volumes.iter().map(|v| v.residues).sum::<u64>(),
        m.total_residues
    );
    assert_eq!(
        m.volumes.iter().map(|v| v.sequences).sum::<u64>(),
        subject_records().len() as u64
    );
    // Every volume stays within budget unless it holds a single oversized
    // sequence.
    for v in &m.volumes {
        assert!(v.residues <= 200 || v.sequences == 1, "{v:?}");
    }
    // The directory reopens and every volume attaches, mapped, with the
    // postings the plain heap reader sees in the same file.
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.total_residues(), total);
    for i in 0..db.num_volumes() {
        let (mapped, s) = db.attach_volume(i).unwrap();
        assert!(s.mmap_backed);
        assert!(mapped.index().is_mmap_backed());
        let (copied, _) = oris_index::read_index_file(dir.join(&db.volume(i).index)).unwrap();
        assert_eq!(mapped.index().positions(), copied.positions());
    }
}

#[test]
fn makedb_refuses_rebuild_and_empty_input() {
    let dir = scratch("refuse");
    let opts = MakeDbOptions::new(&small_cfg(), 1000);
    make_db([subject_bank()], &dir, &opts).unwrap();
    let err = make_db([subject_bank()], &dir, &opts).unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");

    let empty_dir = scratch("empty");
    let err = make_db([Bank::empty()], &empty_dir, &opts).unwrap_err();
    assert!(err.to_string().contains("no sequences"), "{err}");
}

#[test]
fn open_rejects_missing_and_tampered_volumes() {
    let cfg = small_cfg();
    let dir = build_db("tamper", &cfg, 3);
    let db = Database::open(&dir).unwrap();
    let vol0_fa = dir.join(&db.volume(0).fasta);

    // Tampered volume content (same length): the manifest hash check at
    // attach must catch it.
    let original = std::fs::read_to_string(&vol0_fa).unwrap();
    let tampered = original.replacen("ATGGCG", "ATGGCC", 1);
    assert_ne!(original, tampered);
    std::fs::write(&vol0_fa, &tampered).unwrap();
    let err = db.attach_volume(0).unwrap_err();
    assert!(err.to_string().contains("content hash"), "{err}");
    std::fs::write(&vol0_fa, &original).unwrap();
    assert!(db.attach_volume(0).is_ok());

    // Missing volume file: refused at open, with the file named.
    std::fs::remove_file(&vol0_fa).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn session_rejects_mismatched_config() {
    let cfg = small_cfg();
    let dir = build_db("mismatch", &cfg, 2);
    let db = Database::open(&dir).unwrap();

    let wrong_w = OrisConfig::small(7);
    let err = match DbSession::new(&db, &wrong_w, DbOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("wrong word length must be rejected"),
    };
    assert!(err.to_string().contains("w="), "{err}");

    let mut wrong_filter = cfg;
    wrong_filter.filter = FilterKind::Dust;
    let err = match DbSession::new(&db, &wrong_filter, DbOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("wrong filter must be rejected"),
    };
    assert!(err.to_string().contains("filter"), "{err}");

    let mut wrong_stride = cfg;
    wrong_stride.asymmetric = true;
    assert!(DbSession::new(&db, &wrong_stride, DbOptions::default()).is_err());
}

/// The tentpole equivalence: multi-volume search ≡ single-bank search
/// over the concatenated input, when both price e-values over the same
/// database-wide space — across window sizes and strands.
#[test]
fn db_search_matches_concatenated_bank() {
    let queries = [
        bank(&[("q1", &format!("TTGACCGTAA{CORE}CCGGTAAGCT"))]),
        bank(&[("q2", CORE), ("q3", "GGTTCCAAGGTTCCAAGGTTCCAA")]),
    ];
    for both_strands in [false, true] {
        let mut cfg = small_cfg();
        cfg.both_strands = both_strands;
        let dir = build_db(&format!("equiv_{both_strands}"), &cfg, 3);
        let db = Database::open(&dir).unwrap();

        // Reference: one Session over the whole subject as a single bank,
        // under the database-wide search-space convention.
        let subject = subject_bank();
        let mut ref_cfg = cfg;
        ref_cfg.subject_space = SubjectSpace::Database(db.total_residues());
        let reference = Session::new(&subject, &ref_cfg).unwrap();

        for window in [0usize, 1] {
            let mut session = DbSession::new(
                &db,
                &cfg,
                DbOptions {
                    window,
                    ..DbOptions::default()
                },
            )
            .unwrap();
            for q in &queries {
                let via_db = collect(&mut session, q);
                let via_bank = reference.run(q);
                assert_eq!(
                    via_db.alignments, via_bank.alignments,
                    "window={window} both_strands={both_strands}"
                );
                assert!(
                    !via_db.alignments.is_empty() || q.record(0).name == "q2",
                    "homologous query must produce records"
                );
                // The query's build is attributed once, not per
                // volume.
                assert_eq!(via_db.stats.index_builds, 1);
            }
        }
    }
}

/// E-values must not depend on the sharding: the same search against a
/// 1-volume and a many-volume build of the same collection reports
/// identical records.
#[test]
fn evalues_are_shard_invariant() {
    let cfg = small_cfg();
    let one = build_db("shard_one", &cfg, 1);
    let many = build_db("shard_many", &cfg, 4);
    let db_one = Database::open(&one).unwrap();
    let db_many = Database::open(&many).unwrap();
    assert_eq!(db_one.total_residues(), db_many.total_residues());
    assert!(db_many.num_volumes() > db_one.num_volumes());

    let query = bank(&[("q", &format!("AACC{CORE}TTGG"))]);
    let mut s1 = DbSession::new(&db_one, &cfg, DbOptions::default()).unwrap();
    let mut sn = DbSession::new(&db_many, &cfg, DbOptions::default()).unwrap();
    let r1 = collect(&mut s1, &query);
    let rn = collect(&mut sn, &query);
    assert!(!r1.alignments.is_empty());
    assert_eq!(r1.alignments, rn.alignments);
}

#[test]
fn failed_query_leaves_the_sink_untouched() {
    // Error atomicity under the unbounded window (the serving default):
    // all volumes attach BEFORE the first record flows, so a volume
    // whose index file vanished after Database::open (here: deleted,
    // with earlier volumes still fine) fails the query with the caller's
    // sink seeing no records and no boundary — a partial query must
    // never merge into the next query's boundary sort.
    let cfg = small_cfg();
    let dir = build_db("sink_atomic", &cfg, 3);
    let db = Database::open(&dir).unwrap();
    let query = bank(&[("q", &format!("TT{CORE}GG"))]);
    // Sanity: the intact database produces records (from volume 0 too).
    let mut intact = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
    assert!(!collect(&mut intact, &query).alignments.is_empty());

    let last = db.num_volumes() - 1;
    std::fs::remove_file(dir.join(&db.volume(last).index)).unwrap();
    // Fresh session: nothing cached, so the query must attach — and the
    // attach-ahead fails before volume 0's records could leak out.
    let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
    let mut sink = CollectSink::new();
    assert!(session.run_query_reported(&query, &mut sink).is_err());
    assert!(
        sink.records().is_empty(),
        "failed query leaked partial records into the sink"
    );
}

#[test]
fn window_eviction_is_not_pathological_for_the_cyclic_scan() {
    // Regression: with plain LRU, a window of V−1 on a V-volume database
    // evicted every entry just before its reuse (0% hit rate — the same
    // attach count as window=1). The furthest-next-use policy must reuse
    // most of the window across queries.
    let cfg = small_cfg();
    let dir = build_db("eviction", &cfg, 3);
    let db = Database::open(&dir).unwrap();
    let volumes = db.num_volumes();
    assert!(volumes >= 3);
    let window = volumes - 1;

    let query = bank(&[("q", &format!("TT{CORE}GG"))]);
    let mut session = DbSession::new(
        &db,
        &cfg,
        DbOptions {
            window,
            ..DbOptions::default()
        },
    )
    .unwrap();
    let num_queries = 4usize;
    for _ in 0..num_queries {
        collect(&mut session, &query);
    }
    let total: u32 = session.volume_costs().iter().map(|c| c.attaches).sum();
    // Worst case (the LRU pathology) is one attach per (query, volume).
    let pathological = (num_queries * volumes) as u32;
    // The first query must attach everything once; later queries pay at
    // most the volumes the bounded window genuinely cannot hold
    // (V − window + 1 per query for this scan).
    let bound = (volumes + (num_queries - 1) * (volumes - window + 1)) as u32;
    assert!(
        total <= bound && total < pathological,
        "window {window} of {volumes} volumes: {total} attaches \
         (bound {bound}, pathological {pathological})"
    );
}

#[test]
fn batch_streams_one_boundary_per_query_and_counts_attaches() {
    /// Counts end_query boundaries to pin the cross-volume contract: one
    /// boundary per query, not per (query, volume).
    struct BoundaryCounter {
        inner: CollectSink,
        boundaries: usize,
    }
    impl oris_core::RecordSink for BoundaryCounter {
        fn accept(&mut self, rec: oris_core::M8Record) {
            self.inner.accept(rec);
        }
        fn end_query(&mut self) -> std::io::Result<()> {
            self.boundaries += 1;
            self.inner.end_query()
        }
    }

    let cfg = small_cfg();
    let dir = build_db("batch", &cfg, 3);
    let db = Database::open(&dir).unwrap();
    let queries = vec![
        bank(&[("q1", &format!("TT{CORE}GG"))]),
        bank(&[("q2", "GGTTCCAAGGTTCCAAGGTTCCAA")]),
        bank(&[("q3", CORE)]),
    ];

    // Window 0: every volume attached exactly once for the whole batch.
    let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
    let mut sink = BoundaryCounter {
        inner: CollectSink::new(),
        boundaries: 0,
    };
    let batch = session.run_batch(&queries, &mut sink).unwrap();
    assert_eq!(batch.queries(), 3);
    assert_eq!(sink.boundaries, 3);
    assert_eq!(batch.total_records() as usize, sink.inner.records().len());
    assert_eq!(batch.volumes.len(), db.num_volumes());
    for v in &batch.volumes {
        assert_eq!(v.attaches, 1, "window 0 attaches each volume once");
    }
    assert_eq!(batch.total_attaches() as usize, db.num_volumes());
    assert_eq!(batch.worst_coverage, None, "no volume was skipped");

    // The running totals are the fold of what the same queries report one
    // at a time (the clock fields aside — those are measured), except what
    // the batch's one chunk counts once: its one build, and its joint
    // bank's footprints.
    let mut folded = oris_core::PipelineStats::default();
    for q in &queries {
        let (stats, report) = session
            .run_query_reported(q, &mut CollectSink::new())
            .unwrap();
        assert!(report.is_complete());
        folded = folded.merge(&stats);
    }
    let counters = |s: oris_core::PipelineStats| oris_core::PipelineStats {
        index_secs: 0.0,
        index_builds: 0,
        step2_secs: 0.0,
        step3_secs: 0.0,
        step4_secs: 0.0,
        masked_fraction1: 0.0,
        index_bytes: 0,
        ..s
    };
    assert_eq!(counters(batch.query_totals()), counters(folded));
    assert_eq!(batch.query_totals().index_builds, 1, "one chunk");
    assert_eq!(folded.index_builds as usize, queries.len());

    // Window 1: one volume resident at a time — each chunk walks all
    // volumes, so each volume re-attaches per chunk (the batch is one
    // chunk), and per query when the queries run one at a time.
    let mut bounded = DbSession::new(
        &db,
        &cfg,
        DbOptions {
            window: 1,
            ..DbOptions::default()
        },
    )
    .unwrap();
    let mut sink2 = CollectSink::new();
    let batch2 = bounded.run_batch(&queries, &mut sink2).unwrap();
    for v in &batch2.volumes {
        assert_eq!(v.attaches, 1);
    }
    for q in &queries {
        bounded
            .run_query_reported(q, &mut CollectSink::new())
            .unwrap();
    }
    for v in bounded.volume_costs() {
        assert_eq!(v.attaches as usize, 1 + queries.len());
    }
    assert_eq!(sink.inner.records(), sink2.records());
}
