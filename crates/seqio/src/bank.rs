//! DNA banks: the `char *SEQ` array of the paper's Figure 2.
//!
//! A [`Bank`] stores any number of DNA sequences in one contiguous code
//! array. Sequences are separated (and the whole array is framed) by
//! [`SENTINEL`] bytes, so windows and alignment extensions can walk the
//! array freely: any window touching a boundary contains a sentinel and is
//! rejected by the matching rules, with no per-step bounds bookkeeping in
//! the hot loops beyond the array ends.
//!
//! Layout for a bank holding sequences `s0, s1`:
//!
//! ```text
//! index:  0   1 .. n0   n0+1   n0+2 .. n0+n1+1   n0+n1+2
//! byte:   #   s0 ...    #      s1 ...            #
//! ```
//!
//! where `#` is the sentinel. Every sequence therefore starts at
//! `record.start` and occupies `record.len` bytes, and
//! `data[record.start - 1]` / `data[record.start + record.len]` are always
//! valid sentinel-or-ambiguous stops.

use crate::alphabet::{code_to_char, complement_code, nuc_from_char, SENTINEL};

/// Metadata for one sequence inside a [`Bank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqRecord {
    /// Identifier (first whitespace-delimited token of the FASTA header).
    pub name: String,
    /// Global offset of the first residue inside [`Bank::data`].
    pub start: usize,
    /// Number of residues (including ambiguous ones).
    pub len: usize,
}

impl SeqRecord {
    /// Global offset one past the last residue.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Converts a global bank position inside this record to a 0-based
    /// sequence-local position.
    #[inline]
    pub fn to_local(&self, global: usize) -> usize {
        debug_assert!(global >= self.start && global < self.end());
        global - self.start
    }
}

/// A bank of DNA sequences stored as one sentinel-framed code array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    data: Vec<u8>,
    records: Vec<SeqRecord>,
    residues: usize,
}

impl Bank {
    /// Creates an empty bank (no sequences; data holds a single sentinel).
    pub fn empty() -> Bank {
        Bank {
            data: vec![SENTINEL],
            records: Vec::new(),
            residues: 0,
        }
    }

    /// The raw code array, including framing sentinels.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Sequence records, in bank order.
    #[inline]
    pub fn records(&self) -> &[SeqRecord] {
        &self.records
    }

    /// Number of sequences.
    #[inline]
    pub fn num_sequences(&self) -> usize {
        self.records.len()
    }

    /// Total residues over all sequences (the paper's "nb. nt").
    #[inline]
    pub fn num_residues(&self) -> usize {
        self.residues
    }

    /// Total residues expressed in Mbp, as used for the paper's
    /// search-space axis (Figure 3).
    #[inline]
    pub fn mbp(&self) -> f64 {
        self.residues as f64 / 1.0e6
    }

    /// Returns the index of the sequence record containing global position
    /// `pos`, or `None` if `pos` falls on a sentinel / outside any sequence.
    pub fn locate(&self, pos: usize) -> Option<usize> {
        // Binary search over record starts; records are in increasing order.
        let idx = self.records.partition_point(|r| r.start <= pos);
        if idx == 0 {
            return None;
        }
        let rec = &self.records[idx - 1];
        if pos < rec.end() {
            Some(idx - 1)
        } else {
            None
        }
    }

    /// The record at `seq_index`.
    #[inline]
    pub fn record(&self, seq_index: usize) -> &SeqRecord {
        &self.records[seq_index]
    }

    /// The code slice of sequence `seq_index` (no sentinels).
    pub fn sequence(&self, seq_index: usize) -> &[u8] {
        let r = &self.records[seq_index];
        &self.data[r.start..r.end()]
    }

    /// Renders sequence `seq_index` as an ASCII string (ambiguous → `N`).
    pub fn sequence_string(&self, seq_index: usize) -> String {
        self.sequence(seq_index)
            .iter()
            .map(|&c| code_to_char(c))
            .collect()
    }

    /// Approximate heap footprint of the bank in bytes (code array plus
    /// record metadata). Used by the memory-accounting experiment (E7).
    pub fn heap_bytes(&self) -> usize {
        self.data.len()
            + self.records.len() * std::mem::size_of::<SeqRecord>()
            + self.records.iter().map(|r| r.name.len()).sum::<usize>()
    }

    /// Builds the reverse-complement bank: same records (names and
    /// lengths preserved, same order), every sequence reverse-complemented.
    ///
    /// This is the substrate for complementary-strand search — the paper's
    /// announced next-release feature ("Currently, the SCORIS-N prototype
    /// doesn't perform search on the complementary strand", section 3.3).
    /// Comparing bank 1 against `bank2.reverse_complement()` finds all
    /// minus-strand alignments; coordinates map back via
    /// `L − pos + 1` on each subject record.
    pub fn reverse_complement(&self) -> Bank {
        let mut b = BankBuilder::with_capacity(self.residues, self.records.len());
        for (i, rec) in self.records.iter().enumerate() {
            b.open_record(rec.name.clone());
            let codes = self.sequence(i).iter().rev();
            b.open_codes().extend(codes.map(|&c| complement_code(c)));
            b.close_record();
        }
        b.finish()
    }
}

/// Incremental builder for [`Bank`].
///
/// ```
/// use oris_seqio::{BankBuilder, Nuc};
///
/// let mut b = BankBuilder::new();
/// b.push_str("read1", "ACGTACGT").unwrap();
/// b.push_codes("read2", &[Nuc::A.code(), Nuc::C.code()]);
/// let bank = b.finish();
/// assert_eq!(bank.num_sequences(), 2);
/// assert_eq!(bank.num_residues(), 10);
/// ```
#[derive(Debug)]
pub struct BankBuilder {
    data: Vec<u8>,
    records: Vec<SeqRecord>,
    residues: usize,
}

impl Default for BankBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BankBuilder {
    /// Creates a builder with the opening sentinel already in place.
    pub fn new() -> BankBuilder {
        BankBuilder {
            data: vec![SENTINEL],
            records: Vec::new(),
            residues: 0,
        }
    }

    /// Creates a builder pre-sized for `total_nt` residues across
    /// `num_seqs` sequences.
    pub fn with_capacity(total_nt: usize, num_seqs: usize) -> BankBuilder {
        let mut b = BankBuilder {
            data: Vec::with_capacity(total_nt + num_seqs + 2),
            records: Vec::with_capacity(num_seqs),
            residues: 0,
        };
        b.data.push(SENTINEL);
        b
    }

    /// Appends a sequence given as raw code bytes (values 0–3 or
    /// [`crate::AMBIG`]).
    ///
    /// # Panics
    /// Panics in debug builds if a code byte is a sentinel.
    pub fn push_codes(&mut self, name: &str, codes: &[u8]) {
        self.open_record(name.to_string());
        self.data.extend_from_slice(codes);
        self.close_record();
    }

    /// Opens a record named `name` at the end of the code array. The
    /// caller appends the record's residue codes to [`Self::open_codes`]
    /// and then calls [`Self::close_record`]; nothing else may be pushed
    /// in between. This is how the FASTA parser and
    /// [`Bank::reverse_complement`] write codes straight into the bank
    /// array instead of staging them in a `Vec` per record.
    pub(crate) fn open_record(&mut self, name: String) {
        debug_assert_eq!(
            self.data.last(),
            Some(&SENTINEL),
            "previous record not closed"
        );
        self.records.push(SeqRecord {
            name,
            start: self.data.len(),
            len: 0,
        });
    }

    /// The code array while a record is open: bytes appended here are the
    /// open record's residues (values 0–3 or [`crate::AMBIG`]).
    pub(crate) fn open_codes(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Closes the record opened by [`Self::open_record`]: fixes its
    /// length and appends the closing sentinel.
    pub(crate) fn close_record(&mut self) {
        let rec = self.records.last_mut().expect("a record is open");
        rec.len = self.data.len() - rec.start;
        debug_assert!(
            self.data[rec.start..].iter().all(|&c| c != SENTINEL),
            "sequence data must not contain sentinel bytes"
        );
        self.residues += rec.len;
        self.data.push(SENTINEL);
    }

    /// Appends a sequence given as ASCII text (`ACGT`, case-insensitive;
    /// other letters become ambiguous codes).
    pub fn push_str(&mut self, name: &str, seq: &str) -> Result<(), crate::SeqIoError> {
        self.open_record(name.to_string());
        self.data.extend(seq.bytes().map(nuc_from_char));
        self.close_record();
        Ok(())
    }

    /// Number of residues pushed so far.
    pub fn residues(&self) -> usize {
        self.residues
    }

    /// Finalizes the bank.
    pub fn finish(self) -> Bank {
        Bank {
            data: self.data,
            records: self.records,
            residues: self.residues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{AMBIG, SENTINEL};

    fn two_seq_bank() -> Bank {
        let mut b = BankBuilder::new();
        b.push_str("s0", "ACGT").unwrap();
        b.push_str("s1", "GGNTA").unwrap();
        b.finish()
    }

    #[test]
    fn layout_has_framing_sentinels() {
        let bank = two_seq_bank();
        let d = bank.data();
        assert_eq!(d[0], SENTINEL);
        assert_eq!(*d.last().unwrap(), SENTINEL);
        // sentinel between the two sequences
        assert_eq!(d[bank.record(0).end()], SENTINEL);
    }

    #[test]
    fn records_and_residues() {
        let bank = two_seq_bank();
        assert_eq!(bank.num_sequences(), 2);
        assert_eq!(bank.num_residues(), 9);
        assert_eq!(bank.record(0).len, 4);
        assert_eq!(bank.record(1).len, 5);
        assert_eq!(bank.record(1).start, bank.record(0).end() + 1);
    }

    #[test]
    fn ambiguous_bases_are_kept_in_length() {
        let bank = two_seq_bank();
        assert_eq!(bank.sequence(1)[2], AMBIG);
        assert_eq!(bank.sequence_string(1), "GGNTA");
    }

    #[test]
    fn locate_maps_positions_to_records() {
        let bank = two_seq_bank();
        assert_eq!(bank.locate(0), None); // leading sentinel
        assert_eq!(bank.locate(1), Some(0));
        assert_eq!(bank.locate(4), Some(0));
        assert_eq!(bank.locate(5), None); // separator
        assert_eq!(bank.locate(6), Some(1));
        assert_eq!(bank.locate(10), Some(1));
        assert_eq!(bank.locate(11), None); // trailing sentinel
    }

    #[test]
    fn locate_out_of_range_is_none() {
        let bank = two_seq_bank();
        assert_eq!(bank.locate(usize::MAX / 2), None);
    }

    #[test]
    fn to_local_roundtrip() {
        let bank = two_seq_bank();
        let rec = bank.record(1);
        assert_eq!(rec.to_local(rec.start), 0);
        assert_eq!(rec.to_local(rec.start + 3), 3);
    }

    #[test]
    fn empty_bank() {
        let bank = Bank::empty();
        assert_eq!(bank.num_sequences(), 0);
        assert_eq!(bank.num_residues(), 0);
        assert_eq!(bank.data(), &[SENTINEL]);
        assert_eq!(bank.locate(0), None);
    }

    #[test]
    fn sequence_string_roundtrip() {
        let bank = two_seq_bank();
        assert_eq!(bank.sequence_string(0), "ACGT");
    }

    #[test]
    fn mbp_scaling() {
        let mut b = BankBuilder::new();
        b.push_codes("x", &vec![0u8; 500_000]);
        let bank = b.finish();
        assert!((bank.mbp() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reverse_complement_is_involution() {
        let bank = two_seq_bank();
        let rc = bank.reverse_complement();
        assert_eq!(rc.num_sequences(), 2);
        assert_eq!(rc.record(0).name, "s0");
        assert_eq!(rc.sequence_string(0), "ACGT"); // palindrome
        assert_eq!(rc.sequence_string(1), "TANCC"); // revcomp of GGNTA
        assert_eq!(rc.reverse_complement(), bank);
    }

    #[test]
    fn with_capacity_builder_equivalent() {
        let mut a = BankBuilder::new();
        a.push_str("s", "ACGTTT").unwrap();
        let mut b = BankBuilder::with_capacity(6, 1);
        b.push_str("s", "ACGTTT").unwrap();
        assert_eq!(a.finish(), b.finish());
    }
}
