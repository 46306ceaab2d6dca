//! Result sinks — where streamed records go.
//!
//! Step 3 hands each `(query record, subject record)` group to step 4 as
//! soon as it is computed, and step 4 pushes the surviving records into a
//! [`RecordSink`]. The sink owns ordering and retention policy:
//!
//! * [`CollectSink`] — keeps everything, sorting each query's records with
//!   the strict total order [`M8Record::total_order`] at the query
//!   boundary. It is how `Session::run` builds an `OrisResult`.
//! * [`StreamWriter`] — incremental `-m 8` emission through
//!   [`crate::M8Writer`]: buffers one query, sorts it at the boundary,
//!   writes, frees. At the boundary it holds the query's records plus one
//!   sort key each, and no scratch copy of the records; that is its peak,
//!   whatever the run's length.
//!
//! Records arrive in a deterministic but *unsorted* order (per-strand
//! group streams); [`RecordSink::end_query`] marks the query boundary,
//! which is where ordering sinks sort. Every sink sorts with the one order
//! function [`M8Record::sort_all`] — in place, under the strict total
//! order — so collected and streamed output are byte-identical regardless
//! of thread count or batch order.

use std::io::{self, Write};

use crate::m8::{M8Record, M8Writer};

/// Receives the record stream of one or more query runs.
///
/// Contract: any number of [`accept`](RecordSink::accept) calls, then one
/// [`end_query`](RecordSink::end_query) per query, repeated per query for
/// batch runs. Within one query the arrival order is deterministic (group
/// streams in key order, plus strand before minus) but **not** sorted;
/// sinks that promise ordered output sort at the boundary.
pub trait RecordSink {
    /// One record of the current query's stream.
    fn accept(&mut self, rec: M8Record);

    /// Many records of the current query's stream, in order — a search's
    /// whole answer for one query. The buffering sinks take the vector
    /// itself when their query buffer is empty, so a query's records are
    /// not held twice while they change hands.
    fn accept_all(&mut self, recs: Vec<M8Record>) {
        recs.into_iter().for_each(|rec| self.accept(rec));
    }

    /// The current query's stream is complete. IO-backed sinks sort and
    /// flush the query's records here; the error channel exists for them
    /// (in-memory sinks never fail).
    fn end_query(&mut self) -> io::Result<()>;
}

/// Collects every record, sorting each query's segment with
/// [`M8Record::sort_all`] at its `end_query`. A batch run therefore
/// yields per-query sorted segments concatenated in batch order — the same
/// bytes a [`StreamWriter`] emits.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    records: Vec<M8Record>,
    /// Start of the current (unsorted) query segment.
    segment_start: usize,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// All records accepted so far (completed queries sorted).
    pub fn records(&self) -> &[M8Record] {
        &self.records
    }

    /// Consumes the sink, returning the records.
    pub fn into_records(self) -> Vec<M8Record> {
        self.records
    }
}

impl RecordSink for CollectSink {
    fn accept(&mut self, rec: M8Record) {
        self.records.push(rec);
    }

    fn accept_all(&mut self, recs: Vec<M8Record>) {
        take_or_extend(&mut self.records, recs);
    }

    fn end_query(&mut self) -> io::Result<()> {
        M8Record::sort_all(&mut self.records[self.segment_start..]);
        self.segment_start = self.records.len();
        Ok(())
    }
}

/// Streams records to a writer: buffers one query, sorts it in place with
/// [`M8Record::sort_all`] at `end_query`, emits it through
/// [`crate::M8Writer`], frees the buffer, flushes. The memory
/// high-water mark is the largest single query's records plus one sort
/// key each (40 bytes against a record's 128 and its ids) — the
/// bounded-memory batch front-end rests on this sink.
pub struct StreamWriter<W: Write> {
    writer: M8Writer<W>,
    pending: Vec<M8Record>,
}

impl<W: Write> StreamWriter<W> {
    /// Wraps a writer (hand in something buffered for syscall hygiene —
    /// the per-query flush goes through to it).
    pub fn new(inner: W) -> StreamWriter<W> {
        StreamWriter {
            writer: M8Writer::new(inner),
            pending: Vec::new(),
        }
    }

    /// Records written across all completed queries.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Unwraps the underlying writer (completed queries are already
    /// flushed to it; records of an unfinished query are discarded).
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

impl<W: Write> RecordSink for StreamWriter<W> {
    fn accept(&mut self, rec: M8Record) {
        self.pending.push(rec);
    }

    fn accept_all(&mut self, recs: Vec<M8Record>) {
        take_or_extend(&mut self.pending, recs);
    }

    fn end_query(&mut self) -> io::Result<()> {
        M8Record::sort_all(&mut self.pending);
        for rec in self.pending.drain(..) {
            self.writer.write_record(&rec)?;
        }
        // Free the buffer, don't just empty it: a huge query must not pin
        // its high-water allocation for the rest of the batch.
        self.pending = Vec::new();
        self.writer.flush()
    }
}

/// Appends `recs` to `buf`, taking the vector itself when `buf` is empty.
fn take_or_extend(buf: &mut Vec<M8Record>, recs: Vec<M8Record>) {
    if buf.is_empty() {
        *buf = recs;
    } else {
        buf.extend(recs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn rec(qid: &str, sid: &str, evalue: f64, bitscore: f64) -> M8Record {
        M8Record {
            qid: qid.into(),
            sid: sid.into(),
            pident: 100.0,
            length: 20,
            mismatch: 0,
            gapopen: 0,
            qstart: 1,
            qend: 20,
            sstart: 1,
            send: 20,
            evalue,
            bitscore,
        }
    }

    #[test]
    fn collect_sorts_per_query_segment() {
        let mut sink = CollectSink::new();
        sink.accept(rec("q1", "s2", 1e-3, 30.0));
        sink.accept(rec("q1", "s1", 1e-9, 60.0));
        sink.end_query().unwrap();
        // Second query's records stay in their own (sorted) segment after
        // the first — batch output is per-query concatenation, not a
        // global re-sort.
        sink.accept(rec("q2", "s1", 1e-6, 45.0));
        sink.accept(rec("q2", "s0", 1e-20, 99.0));
        sink.end_query().unwrap();
        let sids: Vec<&str> = sink.records().iter().map(|r| r.sid.as_str()).collect();
        assert_eq!(sids, vec!["s1", "s2", "s0", "s1"]);
    }

    #[test]
    fn stream_writer_emits_sorted_lines_per_query() {
        let mut sink = StreamWriter::new(Vec::new());
        let (a, b) = (rec("q1", "s2", 1e-3, 30.0), rec("q1", "s1", 1e-9, 60.0));
        sink.accept(a.clone());
        sink.accept(b.clone());
        sink.end_query().unwrap();
        assert_eq!(sink.records_written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, format!("{b}\n{a}\n"));
    }

    #[test]
    fn stream_writer_matches_collect_bytes() {
        let arrivals = [
            rec("q1", "s2", 1e-3, 30.0),
            rec("q1", "s1", 1e-3, 30.0), // tied e-value AND score: id tiebreak
            rec("q2", "s9", 1e-7, 50.0),
        ];
        let mut collect = CollectSink::new();
        let mut stream = StreamWriter::new(Vec::new());
        for r in &arrivals {
            collect.accept(r.clone());
            stream.accept(r.clone());
        }
        collect.end_query().unwrap();
        stream.end_query().unwrap();
        let mut collected = Vec::new();
        let mut w = M8Writer::new(&mut collected);
        for r in collect.records() {
            w.write_record(r).unwrap();
        }
        assert_eq!(stream.into_inner(), collected);
    }

    /// Floats an order is easy to get wrong on: signed zeros, NaNs of both
    /// signs and two payloads, infinities, subnormals.
    const EDGE_FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        1e-5,
        40.0,
    ];

    /// Names equal in their first 8 bytes and differing after them, names
    /// that are prefixes of each other, names with NUL bytes.
    const EDGE_NAMES: [&str; 12] = [
        "",
        "\0",
        "q",
        "q\0",
        "q\0\0",
        "query_0",
        "query_00",
        "query_00\0",
        "query_001",
        "query_002",
        "query_00\0x",
        "query_0010",
    ];

    /// A record drawn from `seed`: names from [`EDGE_NAMES`], floats from
    /// `floats` (e-value and bit score fixed when `tied`), coordinates and
    /// counts from two or three values, so whole records repeat too.
    fn edge_record(seed: u64, floats: &[f64], tied: bool) -> M8Record {
        let pick = |shift: u32, n: usize| (seed >> shift) as usize % n;
        let float = |shift| floats[pick(shift, floats.len())];
        M8Record {
            qid: EDGE_NAMES[pick(0, EDGE_NAMES.len())].into(),
            sid: EDGE_NAMES[pick(5, EDGE_NAMES.len())].into(),
            pident: float(10),
            length: pick(18, 2),
            mismatch: pick(20, 2),
            gapopen: pick(22, 2),
            qstart: pick(24, 3),
            qend: pick(27, 2),
            sstart: pick(29, 3),
            send: pick(32, 2),
            evalue: if tied { 1e-5 } else { float(34) },
            bitscore: if tied { 40.0 } else { float(42) },
        }
    }

    /// Equal field by field, floats by their bits: `total_order` is
    /// `Equal` only then, so NaNs compare too.
    fn same_records(a: &[M8Record], b: &[M8Record]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.total_order(y) == Ordering::Equal)
    }

    fn sorted_by_total_order(recs: &[M8Record]) -> Vec<M8Record> {
        let mut v = recs.to_vec();
        v.sort_by(|x, y| x.total_order(y));
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order function, `CollectSink` and `StreamWriter` give what a
        /// stable sort under `total_order` gives, on batches where every
        /// key part ties somewhere: all e-values and bit scores tied (or
        /// drawn from NaNs, zeros, infinities and subnormals), names that
        /// share 8 bytes, prefix one another or hold NULs, exact
        /// duplicates.
        #[test]
        fn sinks_order_like_sort_by_total_order(
            seeds in proptest::collection::vec(0u64..=u64::MAX, 0..300),
            tied in 0u8..2,
            dups in 0usize..40,
        ) {
            let mut batch: Vec<M8Record> = seeds
                .iter()
                .map(|&s| edge_record(s, &EDGE_FLOATS, tied == 1))
                .collect();
            let copies: Vec<M8Record> = batch.iter().take(dups).cloned().collect();
            batch.extend(copies);
            let want = sorted_by_total_order(&batch);

            let mut sorted = batch.clone();
            M8Record::sort_all(&mut sorted);
            prop_assert!(same_records(&sorted, &want));

            let mut collect = CollectSink::new();
            collect.accept_all(batch.clone());
            collect.end_query().unwrap();
            prop_assert!(same_records(collect.records(), &want));

            let mut stream = StreamWriter::new(Vec::new());
            stream.accept_all(batch);
            stream.end_query().unwrap();
            let want_text: String = want.iter().map(|r| format!("{r}\n")).collect();
            prop_assert_eq!(String::from_utf8(stream.into_inner()).unwrap(), want_text);
        }

        /// One `StreamWriter` over many queries writes the bytes of a fresh
        /// writer per query, with enough distinct floats that the writer's
        /// cache evicts within and across queries: nothing a query wrote
        /// changes the next one's bytes. `CollectSink` keeps each query's
        /// segment sorted apart.
        #[test]
        fn stream_writer_cache_does_not_leak_across_queries(
            seeds in proptest::collection::vec(0u64..=u64::MAX, 1..200),
            cuts in proptest::collection::vec(0usize..200, 1..6),
        ) {
            let floats: Vec<f64> = EDGE_FLOATS
                .iter()
                .copied()
                .chain((0..200).map(|i| i as f64 * 0.25))
                .collect();
            let recs: Vec<M8Record> = seeds.iter().map(|&s| edge_record(s, &floats, false)).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(recs.len())).collect();
            bounds.sort_unstable();
            bounds.push(recs.len());

            let mut one = StreamWriter::new(Vec::new());
            let mut collect = CollectSink::new();
            let (mut fresh, mut fresh_records) = (Vec::new(), Vec::new());
            let mut from = 0;
            for &to in &bounds {
                let query = &recs[from..to];
                one.accept_all(query.to_vec());
                one.end_query().unwrap();
                collect.accept_all(query.to_vec());
                collect.end_query().unwrap();
                let mut alone = StreamWriter::new(Vec::new());
                alone.accept_all(query.to_vec());
                alone.end_query().unwrap();
                fresh.extend(alone.into_inner());
                fresh_records.extend(sorted_by_total_order(query));
                from = to;
            }
            prop_assert_eq!(one.records_written(), recs.len() as u64);
            prop_assert_eq!(one.into_inner(), fresh);
            prop_assert!(same_records(collect.records(), &fresh_records));
        }
    }
}
