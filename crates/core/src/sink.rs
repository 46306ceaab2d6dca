//! Result sinks — where streamed records go.
//!
//! Step 3 hands each `(query record, subject record)` group to step 4 as
//! soon as it is computed, and step 4 pushes the surviving records into a
//! [`RecordSink`]. The sink owns ordering and retention policy:
//!
//! * [`CollectSink`] — keeps everything, sorting each query's records with
//!   the strict total order [`M8Record::total_order`] at the query
//!   boundary. It is how `Session::run` builds an `OrisResult`, and the
//!   per-volume staging buffer of a database search.
//! * [`StreamWriter`] — incremental `-m 8` emission through
//!   [`crate::M8Writer`]: buffers one query, sorts it at the boundary,
//!   writes, frees. Peak memory tracks the largest single query, not the
//!   run.
//!
//! Records arrive in a deterministic but *unsorted* order (per-strand
//! group streams); [`RecordSink::end_query`] marks the query boundary,
//! which is where ordering sinks sort. Because every sink sorts with the
//! same strict total order, collected and streamed output are
//! byte-identical regardless of thread count or batch order.

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

    /// The current query's stream is complete. IO-backed sinks sort and
    /// flush the query's records here; the error channel exists for them
    /// (in-memory sinks never fail).
    fn end_query(&mut self) -> io::Result<()>;
}

/// Collects every record, sorting each query's segment with
/// [`M8Record::total_order`] at its `end_query`. A batch run therefore
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

    fn end_query(&mut self) -> io::Result<()> {
        self.records[self.segment_start..].sort_by(|x, y| x.total_order(y));
        self.segment_start = self.records.len();
        Ok(())
    }
}

/// Streams records to a writer: buffers one query, sorts it with the
/// strict total order at `end_query`, emits it through
/// [`crate::M8Writer`], frees the buffer, flushes. The memory
/// high-water mark is the largest single query's record set — the
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

    fn end_query(&mut self) -> io::Result<()> {
        self.pending.sort_by(|x, y| x.total_order(y));
        for rec in self.pending.drain(..) {
            self.writer.write_record(&rec)?;
        }
        // Free the buffer, don't just empty it: a huge query must not pin
        // its high-water allocation for the rest of the batch.
        self.pending = Vec::new();
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
