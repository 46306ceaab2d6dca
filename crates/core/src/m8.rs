//! The BLAST `-m 8` tabular record.
//!
//! Both programs in the paper emit this format (SCORIS-N natively, BLASTN
//! via `-m 8`), and the sensitivity analysis works entirely from it: "This
//! format provides the main characteristics of an alignment on a single
//! text line such as its coordinates, its identity percentage, its length,
//! its score, its expected value, etc."
//!
//! Field order (tab-separated): query id, subject id, % identity,
//! alignment length, mismatches, gap openings, q.start, q.end, s.start,
//! s.end, e-value, bit score. Coordinates are 1-based inclusive.
//!
//! Two pieces of shared machinery live next to the record type so every
//! producer (the ORIS engine, the BLAST baseline, streaming sinks) agrees
//! on them:
//!
//! * [`M8Record::total_order`] — the canonical record ordering, a *strict
//!   total order* (two records compare `Equal` only when every field is
//!   equal, i.e. their output lines are identical), so sorted output is
//!   byte-identical regardless of producer, thread count or batch order
//!   even under tied e-values;
//! * [`M8Writer`] — incremental `-m 8` emission over any `io::Write`,
//!   used by the streaming sinks to put records on the wire as each query
//!   finishes instead of materializing whole result sets.

use std::cmp::Ordering;
use std::fmt;
use std::io::{self, Write};

/// One `-m 8` alignment record.
#[derive(Debug, Clone, PartialEq)]
pub struct M8Record {
    /// Query sequence identifier.
    pub qid: String,
    /// Subject sequence identifier.
    pub sid: String,
    /// Percent identity over alignment columns.
    pub pident: f64,
    /// Alignment length in columns.
    pub length: usize,
    /// Number of mismatched columns.
    pub mismatch: usize,
    /// Number of gap openings.
    pub gapopen: usize,
    /// Query start (1-based, inclusive).
    pub qstart: usize,
    /// Query end (1-based, inclusive).
    pub qend: usize,
    /// Subject start (1-based, inclusive).
    pub sstart: usize,
    /// Subject end (1-based, inclusive).
    pub send: usize,
    /// Expected value.
    pub evalue: f64,
    /// Bit score.
    pub bitscore: f64,
}

impl M8Record {
    /// Parses one `-m 8` line.
    pub fn parse(line: &str) -> Option<M8Record> {
        let mut it = line.trim_end().split('\t');
        let qid = it.next()?.to_string();
        let sid = it.next()?.to_string();
        let pident = it.next()?.parse().ok()?;
        let length = it.next()?.parse().ok()?;
        let mismatch = it.next()?.parse().ok()?;
        let gapopen = it.next()?.parse().ok()?;
        let qstart = it.next()?.parse().ok()?;
        let qend = it.next()?.parse().ok()?;
        let sstart = it.next()?.parse().ok()?;
        let send = it.next()?.parse().ok()?;
        let evalue = it.next()?.parse().ok()?;
        let bitscore = it.next()?.parse().ok()?;
        Some(M8Record {
            qid,
            sid,
            pident,
            length,
            mismatch,
            gapopen,
            qstart,
            qend,
            sstart,
            send,
            evalue,
            bitscore,
        })
    }

    /// Parses a whole `-m 8` file body, skipping comment lines (`#`).
    pub fn parse_many(text: &str) -> Vec<M8Record> {
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(M8Record::parse)
            .collect()
    }

    /// The canonical record ordering: e-value ascending, bit score
    /// descending, then query/subject ids, coordinates, and finally the
    /// remaining column-statistics fields.
    ///
    /// This is a **strict total order**: `Equal` is returned only when
    /// every field compares equal — i.e. when the two output lines are
    /// identical — so a sort under it has exactly one fixed point. That is
    /// what makes streamed and collected output byte-identical regardless
    /// of thread count or batch order even when e-values tie (duplicate
    /// sequences, symmetric hits). Float fields use `total_cmp`, so NaN
    /// e-values (degenerate Karlin–Altschul parameters) sort
    /// deterministically last instead of poisoning the comparator.
    pub fn total_order(&self, other: &M8Record) -> Ordering {
        self.evalue
            .total_cmp(&other.evalue)
            .then_with(|| other.bitscore.total_cmp(&self.bitscore))
            .then_with(|| self.qid.cmp(&other.qid))
            .then_with(|| self.sid.cmp(&other.sid))
            .then_with(|| self.qstart.cmp(&other.qstart))
            .then_with(|| self.qend.cmp(&other.qend))
            .then_with(|| self.sstart.cmp(&other.sstart))
            .then_with(|| self.send.cmp(&other.send))
            .then_with(|| self.length.cmp(&other.length))
            .then_with(|| self.mismatch.cmp(&other.mismatch))
            .then_with(|| self.gapopen.cmp(&other.gapopen))
            .then_with(|| self.pident.total_cmp(&other.pident))
    }
}

/// Incremental `-m 8` emission: writes records one line at a time to any
/// [`io::Write`], counting what went out. The streaming result sinks
/// (`oris-core`'s `StreamWriter`) put each query's sorted records on the
/// wire through this as soon as the query finishes, so peak memory tracks
/// the largest single query instead of the whole run.
#[derive(Debug)]
pub struct M8Writer<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> M8Writer<W> {
    /// Wraps a writer. Callers that care about syscall volume should hand
    /// in something buffered; the writer adds no buffering of its own so
    /// `flush` semantics stay the caller's.
    pub fn new(inner: W) -> M8Writer<W> {
        M8Writer { inner, written: 0 }
    }

    /// Writes one record as a single `-m 8` line.
    pub fn write_record(&mut self, rec: &M8Record) -> io::Result<()> {
        writeln!(self.inner, "{rec}")?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Unwraps the underlying writer (records already written stay
    /// wherever the writer put them).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl fmt::Display for M8Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\t{:.2}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
            self.qid,
            self.sid,
            self.pident,
            self.length,
            self.mismatch,
            self.gapopen,
            self.qstart,
            self.qend,
            self.sstart,
            self.send,
            self.evalue,
            self.bitscore
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> M8Record {
        M8Record {
            qid: "q1".into(),
            sid: "s7".into(),
            pident: 97.5,
            length: 200,
            mismatch: 5,
            gapopen: 1,
            qstart: 11,
            qend: 210,
            sstart: 1001,
            send: 1198,
            evalue: 1.5e-40,
            bitscore: 180.4,
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let r = sample();
        let line = r.to_string();
        let p = M8Record::parse(&line).unwrap();
        assert_eq!(p.qid, r.qid);
        assert_eq!(p.sid, r.sid);
        assert_eq!(p.length, r.length);
        assert_eq!(p.qstart, r.qstart);
        assert_eq!(p.send, r.send);
        assert!((p.pident - r.pident).abs() < 0.01);
        assert!((p.evalue - r.evalue).abs() / r.evalue < 0.01);
    }

    #[test]
    fn parse_rejects_short_lines() {
        assert!(M8Record::parse("a\tb\t90.0\t100").is_none());
    }

    #[test]
    fn parse_many_skips_comments_and_blanks() {
        let r = sample();
        let text = format!("# header\n{r}\n\n{r}\n");
        let recs = M8Record::parse_many(&text);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn tab_separated_with_twelve_fields() {
        let line = sample().to_string();
        assert_eq!(line.split('\t').count(), 12);
    }

    #[test]
    fn total_order_breaks_evalue_ties_deterministically() {
        // Same e-value, different score: higher bit score first. Then ids,
        // then coordinates. Sorting any permutation lands the same order.
        let mut a = sample();
        let mut b = sample();
        b.bitscore = 200.0; // stronger, same e-value
        let mut c = sample();
        c.qid = "q0".into(); // earlier id
        let mut d = sample();
        d.sstart = 900; // earlier coordinate
        let want = vec![b.clone(), c.clone(), d.clone(), a.clone()];
        let mut perm = vec![a.clone(), b.clone(), c.clone(), d.clone()];
        perm.sort_by(|x, y| x.total_order(y));
        assert_eq!(perm, want);
        perm.reverse();
        perm.sort_by(|x, y| x.total_order(y));
        assert_eq!(perm, want);
        // Strictness: Equal only for identical records.
        assert_eq!(a.total_order(&sample()), std::cmp::Ordering::Equal);
        a.gapopen += 1;
        assert_ne!(a.total_order(&sample()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn total_order_places_nan_last() {
        let mut nan = sample();
        nan.evalue = f64::NAN;
        let finite = sample();
        assert_eq!(finite.total_order(&nan), std::cmp::Ordering::Less);
        assert_eq!(nan.total_order(&finite), std::cmp::Ordering::Greater);
    }

    #[test]
    fn writer_matches_display_and_counts() {
        let r = sample();
        let mut w = M8Writer::new(Vec::new());
        w.write_record(&r).unwrap();
        w.write_record(&r).unwrap();
        assert_eq!(w.records_written(), 2);
        let bytes = w.into_inner();
        assert_eq!(String::from_utf8(bytes).unwrap(), format!("{r}\n{r}\n"));
    }
}
