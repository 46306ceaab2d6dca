//! A batch over a resident subject: `DbSession::resident` holds a
//! prepared `Session` as a database of one volume, attached from the
//! start, and `DbSession::run_batch` streams each query bank's records at
//! its own boundary — what `scoris_n` runs for a FASTA subject. Each
//! test holds the batch to one `Session::run` per query or to the batch's
//! accounting: the subject's build stays with its session, a chunk counts
//! one build, and an empty batch marks no boundary.

use oris_core::{
    CollectSink, M8Record, OrisConfig, PipelineStats, QueryChunk, RecordSink, Session,
};
use oris_db::{DbOptions, DbSession, VolumeCost};
use oris_seqio::{Bank, BankBuilder};

/// Cores the subject carries and queries plant.
const CORES: [&str; 2] = [
    "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT",
    "GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACC",
];

/// Four subject records, two per core, each core between its own flank
/// and a poly-A run.
fn subject() -> Bank {
    let mut b = BankBuilder::new();
    for (i, core) in CORES.iter().chain(&CORES).enumerate() {
        let flank = "ACGTTGCA".repeat(i + 1);
        b.push_str(
            &format!("s{i}"),
            &format!("{flank}{core}{}", "A".repeat(30)),
        )
        .unwrap();
    }
    b.finish()
}

/// A bank of one record per sequence, named `s0`, `s1`, ….
fn bank(seqs: &[&str]) -> Bank {
    let mut b = BankBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(&format!("s{i}"), s).unwrap();
    }
    b.finish()
}

/// A resident session over `subject`, prepared under `cfg`.
fn resident<'s>(subject: &'s Bank, cfg: &OrisConfig) -> DbSession<'s> {
    DbSession::resident(Session::new(subject, cfg).unwrap(), DbOptions::default()).unwrap()
}

/// Every counter but the clocks, the builds and the footprints.
fn counters(s: PipelineStats) -> PipelineStats {
    PipelineStats {
        index_secs: 0.0,
        index_builds: 0,
        step2_secs: 0.0,
        step3_secs: 0.0,
        step4_secs: 0.0,
        masked_fraction1: 0.0,
        index_bytes: 0,
        ..s
    }
}

#[test]
fn batch_attributes_subject_build_exactly_once() {
    // The double-count trap: a batch of N queries must not multiply
    // the subject's one-time index cost into every per-query report.
    // With both strands the subject costs 2 builds — they stay with
    // the resident session, attached from the start, while the
    // batch's queries, one chunk, count the chunk's single build.
    let subject = bank(&[&format!("AA{}TT", CORES[0])]);
    let queries = vec![
        bank(&[CORES[0]]),
        bank(&["ATATATATGCGCGCGCATATATAT"]),
        bank(&[&format!("GG{}CC", CORES[0])]),
    ];
    let mut cfg = OrisConfig::small(8);
    cfg.both_strands = true;
    let subject_session = Session::new(&subject, &cfg).unwrap();
    assert_eq!(
        subject_session.subject_stats().builds,
        2,
        "one build per subject strand"
    );
    let mut session = DbSession::resident(subject_session, DbOptions::default()).unwrap();
    let mut sink = CollectSink::new();
    let batch = session.run_batch(&queries, &mut sink).unwrap();

    assert_eq!(batch.queries(), 3);
    // Totals: the chunk's one build, WITHOUT the subject, and no
    // attach — not the 3·(2+1) = 9 builds a per-query fold of
    // compare_banks-style accounting would claim.
    assert_eq!(batch.query_totals().index_builds, 1);
    assert_eq!(batch.total_attaches(), 0);

    // Every counter but the builds is the fold of what the same
    // queries report one at a time (the clock fields aside — those
    // are measured — and the footprints, which describe the one
    // joint bank instead of the largest query).
    let reference = Session::new(&subject, &cfg).unwrap();
    let mut folded = PipelineStats::default();
    for q in &queries {
        let single = reference.run(q).stats;
        assert_eq!(single.index_builds, 1, "each query pays only its own build");
        folded = folded.merge(&single);
    }
    assert_eq!(counters(batch.query_totals()), counters(folded));
    let joint = QueryChunk::prepare(&queries, cfg.filter, cfg.query_index_config());
    let joint = *joint.prepared().stats();
    assert_eq!(batch.query_totals().masked_fraction1, joint.masked_fraction);
    // And the batch record count matches the sink's contents.
    assert_eq!(batch.total_records() as usize, sink.records().len());
}

#[test]
fn run_batch_with_zero_queries_attributes_subject_once() {
    // The degenerate batch: no query banks at all. The subject's
    // one-time cost stays attributed (exactly once) to its session,
    // the query totals must be empty, and the sink must see NO
    // end_query boundary — an empty batch is zero queries, not one
    // empty query.
    struct CountingSink {
        accepted: usize,
        boundaries: usize,
    }
    impl RecordSink for CountingSink {
        fn accept(&mut self, _rec: M8Record) {
            self.accepted += 1;
        }
        fn end_query(&mut self) -> std::io::Result<()> {
            self.boundaries += 1;
            Ok(())
        }
    }

    let subject = bank(&[&format!("AA{}TT", CORES[0])]);
    let mut cfg = OrisConfig::small(8);
    cfg.both_strands = true;
    let subject_session = Session::new(&subject, &cfg).unwrap();
    assert_eq!(
        subject_session.subject_stats().builds,
        2,
        "both strands, attributed once"
    );
    let mut session = DbSession::resident(subject_session, DbOptions::default()).unwrap();
    let mut sink = CountingSink {
        accepted: 0,
        boundaries: 0,
    };
    let queries: Vec<Bank> = Vec::new();
    let batch = session.run_batch(&queries, &mut sink).unwrap();

    assert_eq!(batch.queries(), 0);
    assert_eq!(batch.total_attaches(), 0, "no attach to add");
    assert_eq!(batch.volumes, [VolumeCost::default()]);
    assert_eq!(batch.query_totals(), PipelineStats::default());
    assert_eq!(batch.total_records(), 0);
    assert_eq!(sink.accepted, 0);
    assert_eq!(sink.boundaries, 0, "no queries → no query boundaries");
}

#[test]
fn run_batch_streams_each_query_in_order() {
    let subject = bank(&[&format!("CCGGAACCTT{}TTGGCCAACGGT", CORES[0])]);
    let queries = vec![
        bank(&[&format!("TT{}GG", CORES[0])]),
        bank(&[CORES[0], "GGTTCCAAGGTTCCAAGGTTCCAA"]),
    ];
    let cfg = OrisConfig::small(8);
    let reference = Session::new(&subject, &cfg).unwrap();
    let mut session = resident(&subject, &cfg);

    let mut sink = CollectSink::new();
    let batch = session.run_batch(&queries, &mut sink).unwrap();
    let expected: Vec<M8Record> = queries
        .iter()
        .flat_map(|q| reference.run(q).alignments)
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(sink.into_records(), expected);
    assert_eq!(batch.queries(), 2);
}

#[test]
fn members_sharing_a_name_keep_their_own_records() {
    // Three members named alike: two carry different cores, one
    // carries nothing. Each gets its own records, priced against
    // its own residues, at its own boundary.
    let subject = subject();
    let named = |seq: &str| bank(&[seq]);
    let members = vec![
        named(&format!("ACGT{}TTGA", CORES[0])),
        named("ACGTTGCAAGGCTTAACGTACGGATC"),
        named(&format!("{}{}", CORES[1], "GATTACA".repeat(9))),
    ];
    assert!(members.iter().all(|m| m.record(0).name == "s0"));
    let cfg = OrisConfig::small(9);
    let reference = Session::new(&subject, &cfg).unwrap();
    let mut session = resident(&subject, &cfg);
    let mut sink = CollectSink::new();
    let batch = session.run_batch(&members, &mut sink).unwrap();
    assert_eq!(batch.query_totals().index_builds, 1, "one chunk");
    let expected: Vec<M8Record> = members
        .iter()
        .flat_map(|m| reference.run(m).alignments)
        .collect();
    assert!(expected.iter().any(|r| r.qend > CORES[0].len()));
    assert_eq!(sink.into_records(), expected);
}

#[test]
fn empty_and_all_n_members_are_empty_boundaries() {
    // An empty record and an all-N record index nothing and align
    // nowhere: each is a boundary with no record, between members
    // that do align, in one chunk.
    struct Boundaries(Vec<usize>, usize);
    impl RecordSink for Boundaries {
        fn accept(&mut self, _rec: M8Record) {
            self.1 += 1;
        }
        fn end_query(&mut self) -> std::io::Result<()> {
            self.0.push(std::mem::take(&mut self.1));
            Ok(())
        }
    }
    let members = vec![
        bank(&[CORES[0]]),
        bank(&[""]),
        bank(&[&"N".repeat(50)]),
        bank(&[CORES[1]]),
    ];
    let subject = subject();
    let cfg = OrisConfig::small(9);
    let mut session = resident(&subject, &cfg);
    let mut sink = Boundaries(Vec::new(), 0);
    let batch = session.run_batch(&members, &mut sink).unwrap();
    assert_eq!(batch.query_totals().index_builds, 1, "one chunk");
    assert_eq!(sink.0.len(), 4);
    assert_eq!(sink.0[1..3], [0, 0]);
    assert!(sink.0[0] > 0 && sink.0[3] > 0, "{:?}", sink.0);
}
