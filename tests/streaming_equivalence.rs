//! Streaming ≡ collected, pinned at the workspace level.
//!
//! The sinks' central promise: `CollectSink` (the `OrisResult` path) and
//! `StreamWriter` (incremental `-m 8` emission) produce identical output
//! — byte identical for the writer — across random banks, both strands,
//! masked and fully-indexed configurations, thread counts, and batch order.
//! A batch streams through `DbSession::run_batch` over the subject as one
//! resident volume, the path `scoris_n` takes for a FASTA subject.
//! Plus the tied-e-value regression: duplicated sequences make e-values
//! tie exactly, and the strict total order must keep the output unique
//! and thread-count-invariant anyway.

use oris_core::{CollectSink, M8Record, M8Writer, OrisConfig, RecordSink, Session, StreamWriter};
use oris_db::{DbOptions, DbSession};
use oris_seqio::{Bank, BankBuilder};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CollectSink ≡ StreamWriter over random banks.
    /// Query sequences embed the subject's (plus random flanks), so real
    /// records flow; a poly-A tail under the entropy filter exercises the
    /// masked-index configuration, `strands` the minus-strand merge.
    #[test]
    fn sinks_agree_across_configs(
        seqs in proptest::collection::vec("[ACGT]{30,80}", 1..4),
        flank in "[ACGT]{5,20}",
        w in 5usize..8,
        flags in 0u8..8,
        threads in 1usize..4,
    ) {
        let (both_strands, masked, reverse_batch) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let subject = bank_from(&seqs);
        // Query bank 1: subject sequences with flanks (guaranteed
        // homology); bank 2: one flank-only sequence (mostly empty
        // output), plus a poly-A run in masked mode so the filter has
        // something to mask on the query side too.
        let q1_seqs: Vec<String> = seqs
            .iter()
            .map(|s| {
                if masked {
                    format!("{flank}{s}{}", "A".repeat(40))
                } else {
                    format!("{flank}{s}")
                }
            })
            .collect();
        let q2_seqs = vec![flank.clone()];
        let queries = if reverse_batch {
            vec![bank_from(&q2_seqs), bank_from(&q1_seqs)]
        } else {
            vec![bank_from(&q1_seqs), bank_from(&q2_seqs)]
        };

        let cfg = OrisConfig {
            both_strands,
            filter: if masked {
                oris_core::FilterKind::Entropy
            } else {
                oris_core::FilterKind::None
            },
            threads: Some(threads),
            ..OrisConfig::small(w)
        };
        let session = Session::new(&subject, &cfg).unwrap();

        // Collected reference: one run per query bank, in batch order.
        let collected: Vec<M8Record> = queries
            .iter()
            .flat_map(|q| session.run(q).alignments)
            .collect();

        // Streamed path: byte-identical to the rendered reference.
        let mut session = DbSession::resident(session, DbOptions::default()).unwrap();
        let mut stream = StreamWriter::new(Vec::new());
        let batch = session.run_batch(&queries, &mut stream).unwrap();
        prop_assert_eq!(batch.queries(), queries.len());
        let streamed = stream.into_inner();
        prop_assert_eq!(&streamed, &render(&collected));

        // CollectSink across the same batch: the in-memory twin.
        let mut collect = CollectSink::new();
        session.run_batch(&queries, &mut collect).unwrap();
        prop_assert_eq!(collect.records(), &collected[..]);
    }
}

/// Deliberately tied e-values: two identical query sequences under
/// different names produce records equal in every statistical field. The
/// strict total order must (a) keep both, (b) order them by the id
/// tie-break, and (c) produce identical bytes for any thread count,
/// streamed or collected.
#[test]
fn tied_evalues_order_deterministically() {
    let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
    let subject = bank_from(&[format!("TT{core}GG")]);
    let mut qb = BankBuilder::new();
    // Same sequence, three names — three records tied on e-value AND
    // bit score, distinguishable only by qid.
    qb.push_str("q_b", core).unwrap();
    qb.push_str("q_a", core).unwrap();
    qb.push_str("q_c", core).unwrap();
    let query = qb.finish();

    let mut reference: Option<Vec<u8>> = None;
    for threads in [1usize, 2, 8] {
        let cfg = OrisConfig {
            threads: Some(threads),
            ..OrisConfig::small(8)
        };
        let session = Session::new(&subject, &cfg).unwrap();
        let collected = session.run(&query).alignments;
        assert_eq!(collected.len(), 3, "{collected:?}");
        // The tie is real...
        assert_eq!(collected[0].evalue, collected[1].evalue);
        assert_eq!(collected[0].bitscore, collected[1].bitscore);
        // ...and resolved by the id tie-break, not arrival order.
        let qids: Vec<&str> = collected.iter().map(|r| r.qid.as_str()).collect();
        assert_eq!(qids, vec!["q_a", "q_b", "q_c"]);

        // Streamed bytes match collected bytes and are identical across
        // thread counts.
        let mut stream = StreamWriter::new(Vec::new());
        DbSession::resident(session, DbOptions::default())
            .unwrap()
            .run_batch(std::slice::from_ref(&query), &mut stream)
            .unwrap();
        let bytes = stream.into_inner();
        let mut rendered = Vec::new();
        let mut w = M8Writer::new(&mut rendered);
        for r in &collected {
            w.write_record(r).unwrap();
        }
        assert_eq!(bytes, rendered);
        match &reference {
            None => reference = Some(bytes),
            Some(first) => assert_eq!(&bytes, first, "threads={threads}"),
        }
    }
}

/// A sink watching query boundaries sees one `end_query` per batch entry,
/// in order — the contract the CLI's streaming output rests on.
#[test]
fn batch_marks_one_boundary_per_query() {
    #[derive(Default)]
    struct Boundaries {
        accepted: Vec<usize>,
        current: usize,
    }
    impl RecordSink for Boundaries {
        fn accept(&mut self, _rec: M8Record) {
            self.current += 1;
        }
        fn end_query(&mut self) -> std::io::Result<()> {
            self.accepted.push(self.current);
            self.current = 0;
            Ok(())
        }
    }

    let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
    let subject = bank_from(&[format!("AA{core}TT")]);
    let queries = vec![
        bank_from(&[core.to_string()]),
        bank_from(&["GGTTCCAAGGTTCCAAGGTTCCAA".to_string()]), // no hits
        bank_from(&[format!("CC{core}AA"), core.to_string()]),
    ];
    let cfg = OrisConfig::small(8);
    let session = Session::new(&subject, &cfg).unwrap();
    let mut resident =
        DbSession::resident(Session::new(&subject, &cfg).unwrap(), DbOptions::default()).unwrap();
    let mut sink = Boundaries::default();
    let batch = resident.run_batch(&queries, &mut sink).unwrap();
    assert_eq!(sink.accepted.len(), 3);
    assert_eq!(sink.accepted[1], 0, "{:?}", sink.accepted);
    assert!(sink.accepted[0] > 0);
    assert!(sink.accepted[2] > 0);
    // Each query's own report lines up with what the sink saw between its
    // boundaries, and the batch total with their sum.
    for (got, q) in sink.accepted.iter().zip(&queries) {
        assert_eq!(*got as u64, session.run(q).stats.step4.emitted);
    }
    let accepted: usize = sink.accepted.iter().sum();
    assert_eq!(batch.total_records(), accepted as u64);
}
