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
//! * [`M8Record::sort_all`] — the order function: sorts a slice under
//!   `total_order` in place, on one compact key per record, so ordering a
//!   query needs no scratch copy of its records;
//! * [`M8Writer`] — incremental `-m 8` emission over any `io::Write`,
//!   used by the streaming sinks to put records on the wire as each query
//!   finishes instead of materializing whole result sets. It formats each
//!   distinct float of a column once, in a small bounded cache, and the
//!   bytes are std's formatting of the value either way.

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

    /// Sorts `records` under [`M8Record::total_order`], in place: the one
    /// order function of the sinks and of step 4.
    ///
    /// The records stay where they are while an unstable sort orders one
    /// compact key per record; a key tie falls back to `total_order`, so
    /// the order is the strict total order itself and the unstable sort
    /// gives the bytes a stable one would. The sorted keys then permute
    /// the records in place, cycle by cycle. Ordering a query therefore
    /// holds its records plus one 40-byte key each — no scratch copy of
    /// the records, which a stable sort's merge buffer would be.
    pub fn sort_all(records: &mut [M8Record]) {
        if records.len() < 2 {
            return;
        }
        let mut keys: Vec<SortKey> = records
            .iter()
            .enumerate()
            .map(|(i, rec)| SortKey::new(rec, i))
            .collect();
        keys.sort_unstable_by(|a, b| {
            a.head()
                .cmp(&b.head())
                .then_with(|| records[a.index as usize].total_order(&records[b.index as usize]))
        });
        // keys[k].index is where the record that belongs at k sits now.
        // Follow each cycle once, marking a placed slot by pointing its
        // key at itself.
        for start in 0..keys.len() {
            let mut at = start;
            loop {
                let from = keys[at].index as usize;
                keys[at].index = at as u32;
                if from == start {
                    break;
                }
                records.swap(at, from);
                at = from;
            }
        }
    }
}

/// Bytes of a name's prefix that a [`SortKey`] holds.
const NAME_PREFIX: usize = 8;

/// One record's place in [`M8Record::sort_all`]: the leading fields of
/// [`M8Record::total_order`] as integers, so most comparisons never touch
/// the record. Where two keys' heads tie, the records decide.
#[derive(Debug, Clone, Copy)]
struct SortKey {
    /// The e-value's bits, mapped so that `u64` order is `total_cmp` order.
    evalue: u64,
    /// The bit score's mapped bits, inverted: higher scores first.
    bitscore: u64,
    /// The first [`NAME_PREFIX`] bytes of `qid`, big-endian, zero-padded.
    qid: u64,
    /// `qid`'s length, capped at `NAME_PREFIX + 1`.
    qid_len: u8,
    /// As `qid`, for `sid`; zero when the query ids are not known equal.
    sid: u64,
    /// As `qid_len`, for `sid`; zero with `sid`.
    sid_len: u8,
    /// The record's position in the slice being sorted.
    index: u32,
}

impl SortKey {
    fn new(rec: &M8Record, index: usize) -> SortKey {
        let (qid, qid_len) = name_key(&rec.qid);
        // A capped length means the id runs past its prefix: two such ids
        // with one prefix are not known equal, so the subject id may not
        // rank them. Zeroing it leaves them tied, and the records decide.
        let (sid, sid_len) = if usize::from(qid_len) <= NAME_PREFIX {
            name_key(&rec.sid)
        } else {
            (0, 0)
        };
        SortKey {
            evalue: total_bits(rec.evalue),
            bitscore: !total_bits(rec.bitscore),
            qid,
            qid_len,
            sid,
            sid_len,
            index: u32::try_from(index).expect("a query holds fewer than 2^32 records"),
        }
    }

    /// What the key orders by; `index` only names the record.
    fn head(&self) -> (u64, u64, u64, u8, u64, u8) {
        (
            self.evalue,
            self.bitscore,
            self.qid,
            self.qid_len,
            self.sid,
            self.sid_len,
        )
    }
}

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`] order:
/// negative values have every bit flipped, the others their sign bit set.
fn total_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A name's first [`NAME_PREFIX`] bytes as a big-endian, zero-padded
/// integer, with its length capped at `NAME_PREFIX + 1`. Two names
/// compare as their keys do wherever their keys differ: a zero pad byte
/// ranks below any byte but a NUL, and a NUL-padded tie is settled by the
/// shorter length, which is the shorter name's place in `str` order.
/// Equal keys of uncapped length are equal names.
fn name_key(name: &str) -> (u64, u8) {
    let bytes = name.as_bytes();
    let mut prefix = [0u8; NAME_PREFIX];
    let n = bytes.len().min(NAME_PREFIX);
    prefix[..n].copy_from_slice(&bytes[..n]);
    let len = bytes.len().min(NAME_PREFIX + 1) as u8;
    (u64::from_be_bytes(prefix), len)
}

/// Incremental `-m 8` emission: writes records one line at a time to any
/// [`io::Write`], counting what went out. The streaming result sinks
/// (`oris-core`'s `StreamWriter`) put each query's sorted records on the
/// wire through this as soon as the query finishes, so peak memory tracks
/// the largest single query instead of the whole run.
///
/// Each line is assembled in one reused buffer by the field formatter
/// `Display` uses, and goes out in one `write_all`. The float columns go
/// through a small cache: a value seen before in its column is copied,
/// not formatted again. The cache is a fixed size and maps each value to
/// the text std's formatting gives it, so the bytes do not depend on what
/// was written before.
#[derive(Debug)]
pub struct M8Writer<W: Write> {
    inner: W,
    written: u64,
    /// The line being assembled.
    line: Vec<u8>,
    floats: FloatCache,
}

impl<W: Write> M8Writer<W> {
    /// Wraps a writer. Callers that care about syscall volume should hand
    /// in something buffered; the writer adds no buffering of its own so
    /// `flush` semantics stay the caller's.
    pub fn new(inner: W) -> M8Writer<W> {
        M8Writer {
            inner,
            written: 0,
            line: Vec::new(),
            floats: FloatCache::new(),
        }
    }

    /// Writes one record as a single `-m 8` line.
    pub fn write_record(&mut self, rec: &M8Record) -> io::Result<()> {
        self.line.clear();
        let floats = &mut self.floats;
        rec.push_line(&mut self.line, |out, column, x| floats.push(out, column, x));
        self.line.push(b'\n');
        self.inner.write_all(&self.line)?;
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

/// The float columns of a line, each with its std format.
#[derive(Debug, Clone, Copy)]
enum FloatColumn {
    /// `pident`, `{:.2}`.
    Pident,
    /// `evalue`, `{:.2e}`.
    Evalue,
    /// `bitscore`, `{:.1}`.
    Bitscore,
}

impl FloatColumn {
    /// Appends `x` in this column's format.
    fn push(self, out: &mut Vec<u8>, x: f64) {
        match self {
            FloatColumn::Pident => write!(out, "{x:.2}"),
            FloatColumn::Evalue => write!(out, "{x:.2e}"),
            FloatColumn::Bitscore => write!(out, "{x:.1}"),
        }
        .expect("writing into a Vec cannot fail");
    }
}

impl M8Record {
    /// Appends the record's `-m 8` line, without its newline: the one
    /// field formatter behind `Display` and [`M8Writer`]. Integers are
    /// written here; `float` writes each float column.
    fn push_line(&self, out: &mut Vec<u8>, mut float: impl FnMut(&mut Vec<u8>, FloatColumn, f64)) {
        out.extend_from_slice(self.qid.as_bytes());
        out.push(b'\t');
        out.extend_from_slice(self.sid.as_bytes());
        out.push(b'\t');
        float(out, FloatColumn::Pident, self.pident);
        for n in [
            self.length,
            self.mismatch,
            self.gapopen,
            self.qstart,
            self.qend,
            self.sstart,
            self.send,
        ] {
            out.push(b'\t');
            push_decimal(out, n);
        }
        out.push(b'\t');
        float(out, FloatColumn::Evalue, self.evalue);
        out.push(b'\t');
        float(out, FloatColumn::Bitscore, self.bitscore);
    }
}

/// Appends `n` in decimal, as `{}` writes it.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Slots per float column in a [`FloatCache`] (a power of two).
const CACHE_SLOTS: usize = 64;
/// Text bytes one cache slot holds; a longer text is never cached.
const SLOT_TEXT: usize = 23;

/// One cached text: `text[..len]` is the column's format of the f64 with
/// `bits`. `len == 0` marks an empty slot (no format writes nothing).
#[derive(Debug, Clone, Copy)]
struct Slot {
    bits: u64,
    len: u8,
    text: [u8; SLOT_TEXT],
}

/// A direct-mapped cache of formatted floats, [`CACHE_SLOTS`] slots per
/// column, keyed by the value's bits. A miss formats with std and keeps
/// the text, evicting whatever held the slot; a text longer than
/// [`SLOT_TEXT`] is written and not kept. A slot holds exactly what std
/// wrote for those bits, so a hit writes the same bytes a miss would.
///
/// The slots sit inline in the writer (6 KB), not on the heap: a boxed
/// cache, allocated before the search and alive through it, raised a
/// record-free `genome_null` run's peak RSS by about 0.15 MB.
#[derive(Debug)]
struct FloatCache {
    slots: [Slot; 3 * CACHE_SLOTS],
}

impl FloatCache {
    fn new() -> FloatCache {
        let empty = Slot {
            bits: 0,
            len: 0,
            text: [0; SLOT_TEXT],
        };
        FloatCache {
            slots: [empty; 3 * CACHE_SLOTS],
        }
    }

    /// Appends `x` in `column`'s format.
    fn push(&mut self, out: &mut Vec<u8>, column: FloatColumn, x: f64) {
        let bits = x.to_bits();
        let slot = &mut self.slots[column as usize * CACHE_SLOTS + slot_of(bits)];
        if slot.len > 0 && slot.bits == bits {
            out.extend_from_slice(&slot.text[..usize::from(slot.len)]);
            return;
        }
        let start = out.len();
        column.push(out, x);
        let text = &out[start..];
        if text.len() <= SLOT_TEXT {
            slot.bits = bits;
            slot.len = text.len() as u8;
            slot.text[..text.len()].copy_from_slice(text);
        }
    }
}

/// The slot of a value's bits within its column: Fibonacci hashing, the
/// top bits of the product.
fn slot_of(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

impl fmt::Display for M8Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = Vec::new();
        self.push_line(&mut line, |out, column, x| column.push(out, x));
        f.write_str(std::str::from_utf8(&line).expect("ids are str and the rest is ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The line std's formatting gives a record: the format string the
    /// field formatter replaced, kept as its oracle.
    fn std_line(r: &M8Record) -> String {
        format!(
            "{}\t{}\t{:.2}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}\n",
            r.qid,
            r.sid,
            r.pident,
            r.length,
            r.mismatch,
            r.gapopen,
            r.qstart,
            r.qend,
            r.sstart,
            r.send,
            r.evalue,
            r.bitscore
        )
    }

    /// Floats whose text is easy to get wrong: signed zeros and NaNs,
    /// infinities, subnormals, and texts longer than a cache slot.
    const EDGE_FLOATS: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1e-310,
        f64::MIN_POSITIVE,
        0.005,
        -0.05,
        99.995,
        1e30,
        1e300,
        f64::MAX,
    ];

    /// Values a real run repeats, so the cache hits.
    const COMMON_FLOATS: [f64; 4] = [100.0, 97.5, 1.5e-40, 180.4];

    /// Two distinct values that share a cache slot.
    fn colliding_pair() -> (f64, f64) {
        let first = 0.25f64;
        let second = (1..)
            .map(|i| first + i as f64)
            .find(|x| slot_of(x.to_bits()) == slot_of(first.to_bits()))
            .unwrap();
        (first, second)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A record drawn from `seed`: each float an edge value, a common
    /// value, one of a colliding pair or any bits at all; each integer
    /// zero, small, `usize::MAX` or any value.
    fn random_record(seed: u64, qid: &str) -> M8Record {
        let mut state = seed;
        let (lo, hi) = colliding_pair();
        let mut float = || {
            let d = splitmix(&mut state);
            match d % 4 {
                0 => EDGE_FLOATS[(d >> 8) as usize % EDGE_FLOATS.len()],
                1 => COMMON_FLOATS[(d >> 8) as usize % COMMON_FLOATS.len()],
                2 => [lo, hi][(d >> 8) as usize % 2],
                _ => f64::from_bits(d.rotate_right(2)),
            }
        };
        let (pident, evalue, bitscore) = (float(), float(), float());
        let mut int = || {
            let d = splitmix(&mut state);
            match d % 4 {
                0 => 0,
                1 => (d >> 8) as usize % 1000,
                2 => usize::MAX,
                _ => (d >> 2) as usize,
            }
        };
        M8Record {
            qid: qid.to_string(),
            sid: format!("s{}", seed % 7),
            pident,
            length: int(),
            mismatch: int(),
            gapopen: int(),
            qstart: int(),
            qend: int(),
            sstart: int(),
            send: int(),
            evalue,
            bitscore,
        }
    }

    #[test]
    fn cache_hits_evictions_and_long_texts_write_std_bytes() {
        let (lo, hi) = colliding_pair();
        assert_ne!(lo, hi);
        let mut recs = Vec::new();
        for x in [97.5, 97.5, lo, hi, lo, 1e300, 1e300, 1e30, 1e30, 97.5] {
            recs.push(M8Record {
                pident: x,
                evalue: x,
                bitscore: x,
                ..sample()
            });
        }
        assert!(format!("{:.2}", 1e300f64).len() > SLOT_TEXT);
        assert!(format!("{:.1}", 1e30f64).len() > SLOT_TEXT);
        let mut w = M8Writer::new(Vec::new());
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let want: String = recs.iter().map(std_line).collect();
        assert_eq!(String::from_utf8(w.into_inner()).unwrap(), want);
    }

    #[test]
    fn sort_key_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<SortKey>(), 40);
    }

    #[test]
    fn name_keys_order_like_str_where_they_differ() {
        let names = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "a\0\0",
            "ab",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
            "abcdefgi",
            "b",
            "é",
        ];
        for x in names {
            for y in names {
                let (kx, ky) = (name_key(x), name_key(y));
                if kx != ky {
                    assert_eq!(kx.cmp(&ky), x.cmp(y), "{x:?} vs {y:?}");
                } else if usize::from(kx.1) <= NAME_PREFIX {
                    assert_eq!(x, y);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `M8Writer` writes what std's formatting writes, record after
        /// record through one cache — repeated values (hits), values
        /// sharing a slot (evictions), texts longer than a slot, any bits
        /// at all — and so does `Display`.
        #[test]
        fn writer_bytes_equal_std_formatting(
            seeds in proptest::collection::vec(0u64..=u64::MAX, 1..120),
            qid in "[aé\0]{0,12}",
        ) {
            let recs: Vec<M8Record> = seeds.iter().map(|&s| random_record(s, &qid)).collect();
            let mut w = M8Writer::new(Vec::new());
            for r in &recs {
                w.write_record(r).unwrap();
                prop_assert_eq!(format!("{r}\n"), std_line(r));
            }
            let want: String = recs.iter().map(std_line).collect();
            prop_assert_eq!(String::from_utf8(w.into_inner()).unwrap(), want);
        }
    }
}
