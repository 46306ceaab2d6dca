//! Postings at the bank's bit width.
//!
//! A posting is a bank position, and a bank of `len(SEQ)` positions needs
//! `b = ⌈log2 len(SEQ)⌉` bits for one (at least 1): 21 on a 1.5 Mnt
//! bank, 23 on a 4.9 Mnt one, where a `u32` spends 32. The postings of an
//! index are one bit stream: posting `i` is bits `b·i .. b·(i + 1)`, bit
//! `j` of the stream being bit `j % 8` of byte `j / 8` — the bytes of
//! little-endian `u64` words, bit `j % 64` of word `j / 64`. One zero
//! word follows the `⌈b·N/64⌉` words the `N` postings take, so every
//! posting is read by one unaligned eight-byte load at its first byte,
//! a shift and a mask ([`bits_at`]), with no branch on where it falls for
//! any `b` in 1..=32. An index file stores the words as they are, and a
//! mapped index reads them in place.
//!
//! A row of the postings is handed out as a [`Row`]: a start and a
//! length over the stream, decoded on demand — one posting
//! ([`Row::get`]), in order ([`Row::iter`]), or appended to a caller's
//! buffer ([`Row::decode_into`]), all through the one extractor.
//!
//! The build writes the stream with two writers, each at any bit and with
//! no branch on where a posting falls in its words: a [`Packer`] appends
//! postings in order from a register, keeping the bits either side of
//! its span (pass B's scatter, one per stretch, and pass C's sorted
//! partitions), and [`copy_bits`] moves a run of bits from a side buffer
//! (the few partitions pass C writes last). The stream's bytes do not
//! depend on which writer wrote which posting, nor on how the postings
//! were cut among workers.

use std::fmt;
use std::ops::Range;

use crate::section::Section;

/// Bits of one posting of a bank of `len` positions: `⌈log2 len⌉`, and at
/// least 1 — so every position `p < len` fits, and `b` steps up when
/// `len` passes a power of two.
pub(crate) fn bit_width(len: usize) -> u32 {
    (usize::BITS - len.saturating_sub(1).leading_zeros()).max(1)
}

/// Words of a stream of `n` postings of `bits` bits: `⌈bits·n/64⌉` and
/// one zero pad word.
pub(crate) fn words_for(n: usize, bits: u32) -> usize {
    (n * bits as usize).div_ceil(64) + 1
}

/// The low `n` bits set, for `n` in 0..=64.
#[inline]
fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The eight bytes of `bytes` from byte `at` on, as a little-endian word.
#[inline(always)]
fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// Stores `word` little-endian at bytes `at..at + 8`.
#[inline(always)]
fn store(bytes: &mut [u8], at: usize, word: u64) {
    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
}

/// Word `i` of a stream.
#[inline(always)]
fn word(bytes: &[u8], i: usize) -> u64 {
    load(bytes, 8 * i)
}

/// Posting `i` of the stream `bytes` at `bits` bits (1..=32).
#[inline(always)]
pub(crate) fn extract(bytes: &[u8], bits: u32, i: usize) -> u32 {
    extract_at(bytes, i * bits as usize, bits)
}

/// The posting of `bits` bits (1..=32) of `bytes` from bit `bit` on.
#[inline(always)]
pub(crate) fn extract_at(bytes: &[u8], bit: usize, bits: u32) -> u32 {
    // Masked to `bits` ≤ 32 bits, so the cast keeps every bit.
    let value = bits_at(bytes, bit, bits as usize);
    value as u32
}

/// The `width` bits (1..=57) of the stream `bytes` from bit `bit` on: the
/// eight bytes from the one holding `bit` loaded as one little-endian
/// word, shifted and masked — the one extractor every read of the stream
/// goes through, with no branch on the offset. `bytes[bit/8 + 7]` must
/// exist: the pad word sees to that for the last posting.
#[inline(always)]
fn bits_at(bytes: &[u8], bit: usize, width: usize) -> u64 {
    load(bytes, bit / 8) >> (bit % 8) & (u64::MAX >> (64 - width))
}

/// The postings of an index: `len` positions of `bits` bits each, packed
/// into the bytes of `words_for(len, bits)` words (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Packed {
    bits: u32,
    len: usize,
    bytes: Section<u8>,
}

impl Packed {
    /// A stream the build wrote: the bytes of `words_for(len, bits)` words.
    pub(crate) fn new(bytes: Vec<u8>, bits: u32, len: usize) -> Packed {
        debug_assert_eq!(bytes.len(), 8 * words_for(len, bits));
        Packed {
            bits,
            len,
            bytes: bytes.into(),
        }
    }

    /// Pairs a decoded section with the header's counts, checking what
    /// the extractor relies on: `bits` in 1..=32, the section sized for
    /// `len` postings and its pad word, and no bit set past the last
    /// posting — so a stream has one encoding. Returns the first
    /// violation.
    pub(crate) fn from_raw_parts(
        bytes: Section<u8>,
        bits: u32,
        len: usize,
    ) -> Result<Packed, String> {
        if !(1..=32).contains(&bits) {
            return Err(format!("posting width {bits} outside 1..=32 bits"));
        }
        let words = words_for(len, bits);
        if bytes.len() != 8 * words {
            return Err(format!(
                "{} postings words for {len} postings of {bits} bits, expected {words}",
                bytes.len() / 8
            ));
        }
        let end = len * bits as usize;
        let last = word(&bytes, end / 64) & !low_bits(end % 64);
        if last != 0 || bytes[8 * (end / 64 + 1)..].iter().any(|&b| b != 0) {
            return Err(format!("non-zero bits past the last of {len} postings"));
        }
        Ok(Packed { bits, len, bytes })
    }

    /// Bits per posting.
    #[inline]
    pub(crate) fn bits(&self) -> u32 {
        self.bits
    }

    /// Postings.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The stream's bytes, pad word included, as an index file stores
    /// them.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The stream as a plain slice, to cut rows from: a walk over many
    /// rows takes one, so it reads the section's address once, not once
    /// per row (a [`Section`] derefs through a match).
    #[inline]
    pub(crate) fn view(&self) -> PackedView<'_> {
        PackedView {
            bytes: &self.bytes,
            bits: self.bits,
        }
    }

    /// Postings `range` as a row.
    #[inline]
    pub(crate) fn row(&self, range: Range<usize>) -> Row<'_> {
        debug_assert!(range.end <= self.len);
        self.view().row(range)
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }

    pub(crate) fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }
}

/// A [`Packed`] stream's bytes and width, read once per walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedView<'a> {
    bytes: &'a [u8],
    bits: u32,
}

impl<'a> PackedView<'a> {
    /// Postings `range` as a row.
    #[inline]
    pub(crate) fn row(self, range: Range<usize>) -> Row<'a> {
        debug_assert!(range.start <= range.end);
        Row {
            bytes: self.bytes,
            bits: self.bits,
            start: range.start,
            len: range.end - range.start,
        }
    }
}

/// One row of an index's postings — the occurrences of one seed code,
/// ascending — as a start and a length over the packed stream. Nothing is
/// decoded until it is read: [`Row::len`] reads no posting, [`Row::get`]
/// one, and [`Row::iter`] and [`Row::decode_into`] the row in order.
/// Two rows are equal when they hold the same positions, and a row equals
/// a slice of exactly its positions.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    bytes: &'a [u8],
    bits: u32,
    start: usize,
    len: usize,
}

impl<'a> Row<'a> {
    /// Positions in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row holds no position.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th position of the row.
    ///
    /// # Panics
    /// Panics if `i` is not below [`Row::len`].
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "posting {i} of a row of {}", self.len);
        extract(self.bytes, self.bits, self.start + i)
    }

    /// The row's first position, or `None` for an empty row.
    #[inline]
    pub fn first(&self) -> Option<u32> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The row's positions, in order.
    #[inline]
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            bytes: self.bytes,
            bits: self.bits,
            next: self.start,
            end: self.start + self.len,
        }
    }

    /// Appends the row's positions to `out`, in order.
    #[inline]
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        let (bytes, bits) = (self.bytes, self.bits);
        out.reserve(self.len);
        for i in self.start..self.start + self.len {
            out.push(extract(bytes, bits, i));
        }
    }

    /// The row's positions as a vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_into(&mut out);
        out
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Row<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Row<'_> {}

impl PartialEq<[u32]> for Row<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[u32]> for Row<'_> {
    fn eq(&self, other: &&[u32]) -> bool {
        *self == **other
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = u32;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// The positions of a [`Row`], in order.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    bytes: &'a [u8],
    bits: u32,
    next: usize,
    end: usize,
}

impl Iterator for RowIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        (self.next < self.end).then(|| {
            self.next += 1;
            extract(self.bytes, self.bits, self.next - 1)
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// Appends postings to bits `span` of a stream in order: the word being
/// filled stays in a register and each posting stores it, so no branch
/// waits on where the word ends. The bits either side of the span in its
/// first and last words are kept as they were when the packer was made.
#[derive(Debug)]
pub(crate) struct Packer {
    /// The bit the first posting starts at.
    start: usize,
    /// The bit the next posting starts at.
    bit: usize,
    /// The bit the last posting ends at.
    end: usize,
    /// The word holding `bit`, filled below it.
    cur: u64,
    /// The bits above `end` in its word.
    keep: u64,
}

impl Packer {
    /// A packer of the postings that fill bits `span` of the stream
    /// `bytes`.
    pub(crate) fn over(bytes: &[u8], span: Range<usize>) -> Packer {
        let (start, end) = (span.start, span.end);
        let (cur, keep) = if start == end {
            (0, 0)
        } else {
            let keep = match end % 64 {
                0 => 0,
                off => word(bytes, end / 64) & !low_bits(off),
            };
            (word(bytes, start / 64) & low_bits(start % 64), keep)
        };
        Packer {
            start,
            bit: start,
            end,
            cur,
            keep,
        }
    }

    /// Appends posting `value` (below `2^bits`).
    #[inline]
    pub(crate) fn push(&mut self, bytes: &mut [u8], value: u32, bits: u32) {
        debug_assert!(u64::from(value) >> bits == 0);
        self.push_bits(bytes, u64::from(value), bits as usize);
    }

    /// Appends `values` (each below `2^bits`), two at a time — a pair is at
    /// most 64 bits, so one store serves both — and stores the last word.
    pub(crate) fn push_all(
        mut self,
        bytes: &mut [u8],
        values: impl IntoIterator<Item = u32>,
        bits: u32,
    ) {
        let mut values = values.into_iter();
        while let Some(first) = values.next() {
            match values.next() {
                Some(second) => {
                    debug_assert!(u64::from(first | second) >> bits == 0);
                    let two = u64::from(first) | u64::from(second) << bits;
                    self.push_bits(bytes, two, 2 * bits as usize);
                }
                None => self.push(bytes, first, bits),
            }
        }
        self.finish(bytes);
    }

    /// Appends the low `width` (1..=64) bits of `value`, the others clear.
    #[inline]
    fn push_bits(&mut self, bytes: &mut [u8], value: u64, width: usize) {
        debug_assert!(self.bit + width <= self.end);
        let off = self.bit % 64;
        let word = self.cur | value << off;
        store(bytes, 8 * (self.bit / 64), word);
        // The bits of `value` past the word when it crosses into the next
        // (`>> 1 >> (63 − off)` is `>> (64 − off)`, 0 at off 0).
        let spill = value >> 1 >> (63 - off);
        // All ones when the bits reach the word's end (off + width < 128),
        // so the choice is arithmetic, not a branch.
        let crossed = 0u64.wrapping_sub(((off + width) >> 6) as u64);
        self.cur = spill & crossed | word & !crossed;
        self.bit += width;
    }

    /// Stores the last word, with the bits above the span kept.
    pub(crate) fn finish(self, bytes: &mut [u8]) {
        debug_assert_eq!(self.bit, self.end);
        if !self.end.is_multiple_of(64) && self.end > self.start {
            store(bytes, 8 * (self.end / 64), self.cur | self.keep);
        }
    }
}

/// Bits of a stream [`copy_bits`] reads at a time: as many as the
/// extractor can.
const COPY_CHUNK: usize = 56;

/// Copies the first `n` bits of the stream `from` to bits `to..to + n`
/// of the stream `bytes`, keeping the bits either side.
pub(crate) fn copy_bits(bytes: &mut [u8], to: usize, from: &[u8], n: usize) {
    let mut packer = Packer::over(bytes, to..to + n);
    for at in (0..n).step_by(COPY_CHUNK) {
        let width = (n - at).min(COPY_CHUNK);
        packer.push_bits(bytes, bits_at(from, at, width), width);
    }
    packer.finish(bytes);
}

/// Cuts `bytes`, a stream whose first `n` bits are its postings, to the
/// words holding them, clears the bits past them, and appends the zero
/// pad word.
pub(crate) fn seal(bytes: &mut Vec<u8>, n: usize) {
    bytes.truncate(8 * n.div_ceil(64));
    if !n.is_multiple_of(64) {
        let at = 8 * (n / 64);
        let last = load(bytes, at) & low_bits(n % 64);
        store(bytes, at, last);
    }
    bytes.extend_from_slice(&[0; 8]);
}

/// Bytes a stretch of `n` postings of `bits` bits takes in a padded
/// layout: none when it is empty, else its own words and a zero word
/// after them, so it starts and ends on word boundaries and its last
/// posting is read and written, like any other, within its own bytes.
pub(crate) fn room(n: usize, bits: u32) -> usize {
    if n == 0 {
        0
    } else {
        8 * words_for(n, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `values` packed at `bits` bits by one packer, one at a time.
    fn pack(values: &[u32], bits: u32) -> Vec<u8> {
        let mut bytes = vec![0u8; 8 * words_for(values.len(), bits)];
        let mut packer = Packer::over(&bytes, 0..values.len() * bits as usize);
        for &v in values {
            packer.push(&mut bytes, v, bits);
        }
        packer.finish(&mut bytes);
        bytes
    }

    /// `values` cut at `cuts` (ascending) into pieces, each written to its
    /// bits of one stream by one of the build's writers — a packer over
    /// its span, one at a time or two; a copy from a side stream it was
    /// packed into — the pieces written last to first, so each writer
    /// meets its neighbours' bits already in place.
    fn pack_cut(values: &[u32], bits: u32, cuts: &[usize]) -> Vec<u8> {
        let b = bits as usize;
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain([values.len()])
            .collect();
        let mut bytes = vec![0u8; 8 * words_for(values.len(), bits)];
        for (k, piece) in bounds.windows(2).enumerate().rev() {
            let (span, values) = (b * piece[0]..b * piece[1], &values[piece[0]..piece[1]]);
            match k % 3 {
                0 => Packer::over(&bytes, span).push_all(&mut bytes, values.iter().copied(), bits),
                1 => {
                    let mut packer = Packer::over(&bytes, span);
                    for &v in values {
                        packer.push(&mut bytes, v, bits);
                    }
                    packer.finish(&mut bytes);
                }
                _ => {
                    let n = span.len();
                    let mut side = vec![0u8; 8 * (n.div_ceil(64) + 1)];
                    Packer::over(&side, 0..n).push_all(&mut side, values.iter().copied(), bits);
                    copy_bits(&mut bytes, span.start, &side, n);
                }
            }
        }
        bytes
    }

    #[test]
    fn bit_width_steps_up_past_each_power_of_two() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 1);
        for b in 1..32u32 {
            let n = 1usize << b;
            assert_eq!(bit_width(n), b, "2^{b} positions");
            assert_eq!(bit_width(n + 1), b + 1, "2^{b} + 1 positions");
            // The last position of a bank of 2^b + 1 needs the extra bit.
            assert_eq!(usize::BITS - n.leading_zeros(), b + 1);
        }
        assert_eq!(bit_width(u32::MAX as usize), 32);
        assert_eq!(bit_width(1_500_000), 21);
        assert_eq!(bit_width(4_900_000), 23);
    }

    #[test]
    fn a_full_width_stream_is_little_endian_u32s() {
        let values = [0xDEAD_BEEF, 1, u32::MAX];
        let bytes = pack(&values, 32);
        let mut want: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        want.resize(8 * 3, 0);
        assert_eq!(bytes, want);
    }

    #[test]
    fn stray_bits_past_the_last_posting_are_refused() {
        let values: Vec<u32> = (0..10).collect();
        for bits in [4u32, 7, 32] {
            let bytes = pack(&values, bits);
            assert!(Packed::from_raw_parts(bytes.clone().into(), bits, 10).is_ok());
            let end = 10 * bits as usize;
            let mut stray = bytes.clone();
            stray[end / 8] |= 1 << (end % 8);
            let err = Packed::from_raw_parts(stray.into(), bits, 10).unwrap_err();
            assert!(err.contains("non-zero bits past"), "{err}");
            let mut pad = bytes.clone();
            *pad.last_mut().unwrap() = 0x80;
            assert!(Packed::from_raw_parts(pad.into(), bits, 10).is_err());
            let short = bytes[..bytes.len() - 8].to_vec();
            assert!(Packed::from_raw_parts(short.into(), bits, 10).is_err());
        }
        assert!(Packed::from_raw_parts(vec![0; 8].into(), 0, 0).is_err());
        assert!(Packed::from_raw_parts(vec![0; 8].into(), 33, 0).is_err());
    }

    proptest! {
        /// For every width 1..=32, over rows starting and ending at every
        /// bit offset a width reaches across the word edges: one posting
        /// at a time ≡ the iterator ≡ the bulk decode ≡ the `u32` values
        /// packed, whether one packer packed them one at a time or, cut
        /// at random points, the pieces were written by the build's
        /// writers in reverse order, and the stream passes the decoder's
        /// checks.
        #[test]
        fn packed_rows_decode_to_the_u32_oracle(
            raw in proptest::collection::vec(0u32..=u32::MAX, 0..140),
            cut_draws in proptest::collection::vec(0usize..1000, 0..6),
        ) {
            for bits in 1..=32u32 {
                let values: Vec<u32> = raw.iter().map(|&v| v & (u32::MAX >> (32 - bits))).collect();
                let n = values.len();
                let bytes = pack(&values, bits);
                let mut cuts: Vec<usize> = cut_draws.iter().map(|&c| c % (n + 1)).collect();
                cuts.sort_unstable();
                prop_assert!(pack_cut(&values, bits, &cuts) == bytes, "bits {} cuts {:?}", bits, cuts);
                let packed = Packed::from_raw_parts(bytes.into(), bits, n).unwrap();
                let mut buf = vec![7u32];
                for start in 0..=n {
                    for end in start..=n.min(start + 70) {
                        let row = packed.row(start..end);
                        let want = &values[start..end];
                        prop_assert_eq!(row.len(), want.len());
                        for (i, &v) in want.iter().enumerate() {
                            prop_assert!(row.get(i) == v, "bits {} row {}..{}", bits, start, end);
                        }
                        prop_assert!(row.iter().eq(want.iter().copied()));
                        buf.truncate(1);
                        row.decode_into(&mut buf);
                        prop_assert_eq!(&buf[1..], want);
                        prop_assert_eq!(row.first(), want.first().copied());
                    }
                }
            }
        }
    }
}
