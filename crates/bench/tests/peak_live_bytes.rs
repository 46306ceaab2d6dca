//! Peak live heap of the bounded-memory paths, read from a counting
//! global allocator instead of guessed from RSS: the streamed batch
//! (`DbSession::run_batch` over a resident subject, through a
//! `StreamWriter`), which holds one chunk of query banks and its records,
//! must peak below the collect-everything path it replaced, and a
//! database searched through a
//! one-volume window must peak below the same collection held as one
//! concatenated bank (mapped sections live in the page cache, not the
//! heap), and a `StreamWriter`'s query boundary must order and write its
//! records without a second copy of them. Byte equality of each pair is
//! held by
//! `tests/streaming_equivalence.rs` and `tests/db_equivalence.rs`; this
//! file holds only what needs the allocator.
//!
//! One `#[test]`: the gauges are process-wide, so a second test running
//! beside this one would allocate into its measured regions.

use oris_bench::{planted_bank, CountingAlloc};
use oris_core::{
    joint_chunks, M8Record, M8Writer, OrisConfig, OrisResult, RecordSink, Session, StreamWriter,
    SubjectSpace, JOINT_CHUNK_RESIDUES,
};
use oris_db::{make_db, Database, DbOptions, DbSession, MakeDbOptions};
use oris_seqio::Bank;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes `run` adds over the level it starts from.
fn peak_of(run: impl FnOnce()) -> usize {
    let base = ALLOC.reset_peak();
    run();
    ALLOC.peak().saturating_sub(base)
}

/// `n` query banks of `seqs` repeat-carrying sequences each: every
/// (query sequence, subject sequence) pair aligns across the planted
/// repeat, so the output volume dwarfs a single query's working set.
fn query_banks(n: usize, seqs: usize) -> Vec<Bank> {
    (0..n)
        .map(|i| planted_bank(600 + i as u64, seqs, 80))
        .collect()
}

#[test]
fn bounded_memory_paths_peak_below_their_resident_twins() {
    // W = 11: a small bank's row map stores only the bitmap words it
    // populates under a 12 KB top level, so a query's transient is ∝ its
    // distinct seeds and does not drown the difference measured here in
    // a 16.8 MB offsets array.
    let cfg = OrisConfig::default();

    // ---- streamed < collected --------------------------------------
    // A batch keeps one chunk of query banks resident, with its records
    // until their boundaries are written. Each query bank here holds over
    // half of JOINT_CHUNK_RESIDUES, so every chunk is one bank, and the
    // batch must peak below collecting every bank's records. Output goes
    // to the null writer so neither side's peak counts the output bytes
    // themselves.
    let subject = planted_bank(404, 24, 80);
    let seq_len = JOINT_CHUNK_RESIDUES / 2 / 96 + 100;
    let queries: Vec<Bank> = (0..4).map(|i| planted_bank(600 + i, 96, seq_len)).collect();
    assert_eq!(
        joint_chunks(&queries, JOINT_CHUNK_RESIDUES).count(),
        queries.len()
    );
    let session = Session::new(&subject, &cfg).unwrap();
    let collected = peak_of(|| {
        let results: Vec<OrisResult> = queries.iter().map(|q| session.run(q)).collect();
        let mut m8 = M8Writer::new(std::io::sink());
        for rec in results.iter().flat_map(|r| &r.alignments) {
            m8.write_record(rec).unwrap();
        }
        m8.flush().unwrap();
    });
    let mut session = DbSession::resident(session, DbOptions::default()).unwrap();
    let mut records = 0;
    let streamed = peak_of(|| {
        let mut sink = StreamWriter::new(std::io::sink());
        session.run_batch(&queries, &mut sink).unwrap();
        records = sink.records_written();
    });
    assert!(records > 0, "the batch must produce records");
    assert!(
        streamed < collected,
        "streamed batch must peak below the collected one ({streamed} vs {collected} bytes)"
    );

    // ---- window = 1 database < concatenated bank -------------------
    // The database side includes its attach work, the concatenated side
    // its subject build: each architecture's query-serving footprint.
    let subject = planted_bank(505, 24, 80);
    let queries = query_banks(2, 4);
    let dir = std::env::temp_dir().join(format!("oris_bench_peak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let per_volume = subject.num_residues() / 4;
    make_db(
        [subject.clone()],
        &dir,
        &MakeDbOptions::new(&cfg, per_volume),
    )
    .unwrap();
    let db = Database::open(&dir).unwrap();
    assert!(db.num_volumes() >= 2, "the database must actually shard");

    let concat_cfg = OrisConfig {
        subject_space: SubjectSpace::Database(db.total_residues()),
        ..cfg
    };
    let concatenated = peak_of(|| {
        let session = Session::new(&subject, &concat_cfg).unwrap();
        let mut session = DbSession::resident(session, DbOptions::default()).unwrap();
        let mut sink = StreamWriter::new(std::io::sink());
        session.run_batch(&queries, &mut sink).unwrap();
    });
    let mut records = 0;
    let windowed = peak_of(|| {
        let opts = DbOptions {
            window: 1,
            ..DbOptions::default()
        };
        let mut session = DbSession::new(&db, &cfg, opts).unwrap();
        let mut sink = StreamWriter::new(std::io::sink());
        session.run_batch(&queries, &mut sink).unwrap();
        records = sink.records_written();
    });
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(records > 0, "the database search must produce records");
    assert!(
        windowed < concatenated,
        "window = 1 search must peak below the concatenated bank \
         ({windowed} vs {concatenated} bytes)"
    );

    // ---- a query boundary holds no copy of its records -------------
    // `end_query` sorts one small key per record in place of the records
    // and writes through a reused line buffer, so it adds well under half
    // the records' own bytes to the peak; a stable sort's merge buffer (a
    // copy of the records) would add more than that. The shape is
    // `repeat_family`'s: short ids, few distinct e-values and scores,
    // records arriving out of order.
    let n = 20_000;
    let records: Vec<M8Record> = (0..n)
        .map(|i| {
            let j = (i * 7919) % n;
            M8Record {
                qid: format!("fq_{}", j % 20),
                sid: format!("fs_{}", j % 650),
                pident: 90.0 + (j % 13) as f64,
                length: 32 + j % 5,
                mismatch: j % 3,
                gapopen: 0,
                qstart: 1 + j % 400,
                qend: 40 + j % 400,
                sstart: 1 + j % 300,
                send: 40 + j % 300,
                evalue: 1e-6 * (1 + j % 8) as f64,
                bitscore: 60.0 - (j % 8) as f64,
            }
        })
        .collect();
    let own_bytes = records.capacity() * std::mem::size_of::<M8Record>()
        + records
            .iter()
            .map(|r| r.qid.capacity() + r.sid.capacity())
            .sum::<usize>();
    let mut sink = StreamWriter::new(std::io::sink());
    sink.accept_all(records);
    let boundary = peak_of(|| sink.end_query().unwrap());
    assert_eq!(sink.records_written(), n as u64);
    assert!(
        boundary < own_bytes / 2,
        "a query boundary must not copy its records \
         ({boundary} bytes added over {own_bytes} bytes of records)"
    );
}
