//! The bank index — Figure 2 of the paper, flattened to a CSR layout,
//! with one row map for every bank size: a two-level ranked bitmap.
//!
//! The paper draws the occurrence index as a linked structure: a seed
//! dictionary `dict[4^W]` pointing at the first occurrence of each seed,
//! and a successor array `next[len(SEQ)]` chaining every occurrence to the
//! next one (`int *INDEX` in the paper). That shape is faithful to the
//! figure but hostile to step 2's inner loops: every `next` hop is a
//! dependent, unpredictable load across a `4·len(SEQ)`-byte array.
//!
//! This module stores the same information as a **compressed sparse row**
//! (CSR) inverted index:
//!
//! * the postings — every occurrence, grouped by seed code in ascending
//!   code order and in **ascending position order** within each group,
//!   each position packed in `b = ⌈log2 len(SEQ)⌉` bits of one bit
//!   stream (`crate::postings`: 21 bits on a 1.5 Mnt bank, 23 on a
//!   4.9 Mnt one);
//! * the row bounds — where each row starts, for the *populated* codes
//!   only (`k` distinct codes): row `r`, the occurrences of the `r`-th
//!   populated code, runs from its start to the start of row `r + 1` (the
//!   last row to the end of the postings). The `k` starts in the `N`
//!   postings are one Elias–Fano sequence (the crate-private
//!   `RowBounds`): at `l = ⌊log2(N/k)⌋`, a start's low `l` bits in a
//!   packed stream, and row `r`'s set bit at `(start >> l) + r` of a high
//!   vector of `(N >> l) + k` bits — at `l = 0`, on every bank whose rows
//!   average under two postings, the rows' lengths in unary;
//! * the row map, by which a seed code finds its row `r` (the
//!   crate-private `RowMap`). Picture a presence bitmap of `4^W` bits,
//!   bit `code % 64` of word `code / 64` set iff the code is populated.
//!   Only its non-zero words are stored, in ascending order, and a top
//!   level of `⌈4^W/4096⌉` words has one bit per bitmap word, set iff
//!   that word is stored. Two ranks are derived at build and at attach
//!   and never stored: per top word, the stored words before it, and per
//!   stored word, the rows before it. A code's row is two rank steps,
//!   each a load and a popcount: its word's place among the stored words,
//!   `top_rank[t] + popcount(top[t] & below(w % 64))` for bitmap word `w`
//!   under top word `t`, then its bit's place among the rows,
//!   `word_rank[i] + popcount(words[i] & below(code % 64))`.
//!
//! The map costs 12 bytes (a word and its rank) per stored word and per
//! top word. A read or a small bank pays for the words it populates and
//! an 8 KB top level at W = 11 (plus 4 KB of its ranks); a dense bank,
//! which stores nearly all `4^W/64` words, pays the one-level bitmap's
//! `3·4^W/16` bytes plus the top level's 12 KB — and no bank pays the
//! 16.8 MB of an `offsets[4^W + 1]` array. Every consumer — step 2's
//! ordered enumeration, the guards, the sinks — sees the occurrence
//! rows in one layout, whatever the bank's size.
//!
//! **Partner rows.** Step 2 needs both rows of every code populated in
//! both indexes, in ascending code order. [`BankIndex::for_each_shared`]
//! walks two indexes together: it ANDs their top levels word by word,
//! then, under each top bit both set, the two stored words, keeping each
//! word's ranks, so it visits only the bitmap words both indexes store
//! and finds each row with a popcount. Two dense banks meet nearly every
//! word; a lone read against a database volume ANDs the two 1 024-word
//! top levels and then meets the read's hundred-odd words. Each index's
//! row bounds are read by one forward cursor: the shared rows come in
//! ascending order, so reaching the next is a step over a few set bits,
//! and its end is the next set bit (a row 64 or more ahead is reached
//! from its select sample instead). It hands each row over as a start
//! and a length, undecoded. Every answer is exactly
//! the row [`BankIndex::occurrences`] returns (differential
//! proptests below hold the map, built by any pool, heap and mapped, to
//! a binary search and to the `offsets[4^W + 1]` build this module had
//! before the bitmap).
//!
//! The build is a counting sort that never materializes `(position,
//! code)` pairs; the bank is rolled over instead of remembered.
//!
//! * **Pass A** rolls a `W`-window over the bank once. For every window
//!   that survives the stride and the mask it sets the window's bit in the
//!   `indexed` set and adds one to a histogram over *partitions* —
//!   equal-width code ranges named by the code's high bases. Their count
//!   is a function of W: the fewest whose rank (the code's remaining low
//!   bases) still fits a `u16`, and never fewer than 64. That is 64
//!   partitions up to W = 11, 256 at W = 12 and 1 024 at W = 13 (`4^W`
//!   below W = 3).
//! * **Pass B** rolls again and scatters every kept position, packed at
//!   `b` bits, into the postings stream, partition by partition, with its
//!   *rank* inside the partition (the code's low bits, two bytes) into a
//!   transient side array. The stream is laid out with room to spare: each
//!   (partition, slice) stretch in words of its own and a zero word after
//!   them, so the slices' writers share no word and need no merge.
//! * **Pass C** then sorts each partition by rank — reading its stretches,
//!   packing the sorted positions at their final bits of the unpadded
//!   stream, which end before the next partition's stretches begin (a
//!   run's first partition, whose final bits lie below the run's words,
//!   goes to a side stream copied in after the runs). It also marks each
//!   partition's populated codes in the bitmap words it covers; a word
//!   left zero is not stored, so the build never holds a `4^W/64`-word
//!   bitmap. A partition of at least `1/16` as many postings as it has
//!   rows (4 096 at W = 11) is counted — count into a per-worker scratch
//!   of `4^8` counters, prefix-sum, scatter into a per-worker scratch of
//!   that one partition's positions — and an empty one skipped. A
//!   smaller one sorts its `(rank, position)` pairs instead: counting
//!   sweeps all `4^8` rows whatever the postings, which cost a 150-nt
//!   read 5 ms for its 64 partitions where the sort takes
//!   microseconds. A sorted partition's ranks are spent, so pass C
//!   writes its populated rows' lengths, as `u16`s in code order, over the
//!   head of their stretch. With the populated codes counted, `l` is
//!   known, and a last pass encodes the row starts from those lengths,
//!   one run of partitions per worker: each run sets its rows' high bits
//!   in the words it owns — from the first wholly past its first row's
//!   bit — and hands back the few bits below them and its rows' low bits,
//!   which are put in place after the runs, so every pool writes the same
//!   bits. A partition holding a row of 2^16 postings or more cannot
//!   leave its lengths as `u16`s; that pass counts its ranks again
//!   instead. Reading
//!   the lengths back rather than recounting every partition makes the
//!   build of a 4.9 Mnt bank at W = 11 3–8 % faster (2-vCPU VM,
//!   alternating in-process runs: 103 ms against 111 at one worker,
//!   faster in 24 of 30 pairs; 75 against 82 at two, 18 of 20). The
//!   scratch and the partition's share of the postings stay in the core's
//!   own cache.
//!   Pass B is bound by how many write streams its scatter keeps open —
//!   two per partition per slice — which is why the partitions are as few
//!   as the `u16` rank allows. On a 4.9 Mnt bank at W = 11 with two
//!   workers (2-vCPU VM), 64 partitions scatter in 31–34 ms where 1 024
//!   took 56–62.
//!
//! On a large bank the three passes are data-parallel. The bank is cut
//! into one contiguous slice per worker (on 64-position boundaries, so
//! slices share no bit-set word); pass A gives every slice its own
//! histogram, from which every (partition, slice) pair gets its own
//! stretch of the postings stream, slices in bank order inside a partition
//! — so pass B writes each partition's positions in ascending order
//! whatever the worker count, and pass C, which walks its input forward
//! or sorts by (rank, position), leaves every row ascending. Pass C's
//! runs of partitions start on whole bitmap words, so no two mark one.
//! The index is therefore the same bytes for any pool size (pinned
//! against the full-sweep oracle for pools of 1, 2, 4 and 7). A bank
//! under two grains of 2^18 positions is built on the calling thread: the
//! rayon shim starts OS threads per call, which a 150-nt query must never
//! pay. `occurrences(code)` hands step 2 a contiguous, ascending row of
//! the stream, and `stats` needs no chain walks.
//!
//! Memory model (heap bytes on top of the 1-byte-per-residue `SEQ` array;
//! `k` = distinct codes, `N` = indexed positions, `b = ⌈log2 len(SEQ)⌉`,
//! `l = ⌊log2(N/k)⌋`, `words` = stored bitmap words, at most
//! `min(k, 4^W/64)`):
//!
//! ```text
//!   b·N/8                  postings (in whole words, and a zero pad
//!                          word)
//! + ((N >> l) + k)/8       row starts' high vector (in whole words):
//!                          (N + k)/8 at l = 0
//! + l·k/8                  their low bits (in whole words, and a zero
//!                          pad word; none at l = 0)
//! + k/16                   their select samples, a u32 per 64 rows
//! + ((N >> l) + k)/1024    their block ranks, a u32 per 4 096 high bits
//! + len(SEQ)/8             indexed-occurrence bit-set
//! + 12·words               stored bitmap words and their ranks
//! + 12·⌈4^W/4096⌉          top level and its ranks (12 KB at W = 11,
//!                          192 KB at W = 13)
//!   while building, on top of the above:
//! + 16·partitions per slice the postings' room to spare, at most (pass
//!                          B → C: each stretch's part-filled last word
//!                          and a zero word; 1 KB per slice at W ≤ 11)
//! + 2·N                    ranks (pass B → pass C, then the rows'
//!                          lengths over their head until the row starts
//!                          are encoded)
//! + l·k/8                  each run's low bits, until the runs are done
//! + 4·partitions per slice partition histogram (256 B at W ≤ 11)
//! + 8·words                the runs' marked words
//! + per worker, for a counted partition: 6·4^8 bytes of count scratch
//!   and row lengths, and 4·(largest partition) for its sorted positions
//!   — typically N/64, the whole postings for a bank whose windows all end
//!   in the same three bases; for a sorted one, 8 bytes per posting of
//!   keys; and per run but the first, its first partition packed (b/8
//!   bytes a posting) until the runs are done
//! ```
//!
//! A fully indexed 150-nt read at W = 11 is thus under 16 KB, a dense
//! bank the one-level bitmap's cost plus 12 KB, and a saturated bank
//! (`k ≈ 4^W`, from ~12 Mnt at W = 11, where `l = 1`) pays about
//! `3·4^W/16` bytes for its map and `N/16 + 0.31·4^W` for its row
//! starts, under the `4·4^W` of an `offsets` array. The postings are sized
//! by the windows actually indexed, not by `len(SEQ)` as the paper's
//! `next` array is, so low-complexity masking and the asymmetric stride
//! (section 3.4) shrink the index itself, not just the bit-set. The
//! paper's "approximately 5·N bytes" (1 byte of `SEQ` and 4 of postings
//! per position) is the first term with `b = 32`; at the bank's bit width
//! the postings take `b/8` bytes a position instead, the row starts add
//! `(N + k)/8 + k/16 + (N + k)/1024` at `l = 0`, and the row map
//! `12·words + 12·⌈4^W/4096⌉`.
//!
//! The one-bit-per-position `indexed` set is retained for the ORIS order
//! guard: during extension the guard must ask "would the global enumeration
//! visit a seed at this position?" — a question about *positions*, which
//! the position-grouped CSR rows cannot answer in O(1). The guard reads the
//! set through [`BankIndex::is_indexed`], one probe per bank per candidate
//! seed (see `oris-align::ungapped`); [`BankIndex::indexed_words`] exposes
//! the backing words to [`crate::persist`], which writes them to disk.
//!
//! **Exclusion provenance.** The build also records *why* positions are
//! absent from the index. Windows can be missing for two very different
//! reasons:
//!
//! * **window validity** — the window runs off the bank, crosses a record
//!   sentinel, or contains an ambiguous base. These exclusions are
//!   *implied by the guard's run-of-matches invariant*: the guard only
//!   probes a position after observing `W` consecutive matching
//!   nucleotides there, which is itself proof of a valid window, so a
//!   validity-excluded position can never be probed;
//! * **policy** — low-complexity masking or the asymmetric stride
//!   deliberately discarded a *valid* window. Only these exclusions make
//!   the bit-set observable to the guard.
//!
//! [`BankIndex::is_fully_indexed`] is true exactly when no policy
//! exclusion occurred (stride 1, no masked rejection). When both banks of
//! a comparison qualify, every guard probe would answer "yes" and step 2
//! selects the probe-free `OrderedFull` guard instead — the fast path for
//! the common unmasked full-stride case.

use std::ops::Range;

use oris_seqio::Bank;
use rayon::prelude::*;

use crate::mask::MaskSet;
use crate::postings::{
    bit_width, copy_bits, extract, extract_at, room, seal, words_for, Packed, PackedView, Packer,
    Row,
};
use crate::section::Section;
use crate::seedcode::{RollingCoder, SeedCoder, MAX_SEED_LEN};

/// Options controlling index construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Seed length `W`.
    pub w: usize,
    /// Index only every `stride`-th valid window (1 = every window).
    ///
    /// `stride = 2` is the paper's *asymmetric indexing*: with 10-nt words
    /// sampled on one bank only, all 11-nt seed matches are still anchored
    /// while the index halves in size (section 3.4).
    pub stride: usize,
}

impl IndexConfig {
    /// Full indexing with seed length `w` (the common case).
    pub fn full(w: usize) -> IndexConfig {
        IndexConfig { w, stride: 1 }
    }

    /// Asymmetric (half-sampled) indexing with seed length `w`.
    pub fn asymmetric(w: usize) -> IndexConfig {
        IndexConfig { w, stride: 2 }
    }
}

/// Occupancy and footprint statistics for a built index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of distinct seeds present.
    pub distinct_seeds: usize,
    /// Total indexed positions (postings).
    pub indexed_positions: usize,
    /// Length of the longest occurrence list.
    pub max_chain_len: usize,
    /// Heap bytes used by the row map + the packed postings + the indexed
    /// bit-set (excludes the bank's own array).
    pub index_bytes: usize,
    /// Heap bytes including the underlying `SEQ` array: `N` of `SEQ` and
    /// `b·N/8` of postings at `b = ⌈log2 len(SEQ)⌉` bits each, plus the
    /// row starts' `(N + k)/8 + k/16 + (N + k)/1024` at `l = ⌊log2(N/k)⌋
    /// = 0` (`l·k/8` more, and `N >> l` for `N`, at `l > 0`), the row
    /// map's `12·words + 12·⌈4^W/4096⌉` and the bit-set's `N/8` for a
    /// fully indexed bank (see the module docs).
    pub total_bytes: usize,
}

/// Rows per select sample: where every 64th row's set bit lies is derived
/// at build and at attach, never stored.
const SAMPLE: usize = 64;

/// High words per rank block: the set bits before every block are derived
/// beside the samples, so a step past a long row's clear bits jumps to
/// the block it wants instead of reading the blocks between.
const BLOCK_WORDS: usize = 64;

/// Low bits kept per start of `rows` row starts over `postings` postings:
/// `⌊log2(N/k)⌋`, and 0 for no rows.
pub(crate) fn low_width(postings: usize, rows: usize) -> u32 {
    match rows {
        0 => 0,
        k => (postings / k).max(1).ilog2(),
    }
}

/// Bytes of the low stream of `rows` starts of `l` low bits: its words and
/// a zero pad word, as the postings' codec lays a stream out; none at
/// `l = 0`.
pub(crate) fn low_bytes(rows: usize, l: u32) -> usize {
    if l == 0 {
        0
    } else {
        8 * words_for(rows, l)
    }
}

/// High bits of `rows` row starts over `postings` postings, `(N >> l) +
/// k`: a set bit per row and a clear bit per `2^l` postings.
pub(crate) fn high_len(postings: usize, rows: usize) -> usize {
    (postings >> low_width(postings, rows)) + rows
}

/// Where each of the `k` rows starts in the `N` postings: one Elias–Fano
/// sequence (Vigna, *Quasi-succinct indices*, WSDM 2013). Row `r` runs
/// from its start to the start of row `r + 1`, the last row to `N` — so
/// `k` starts and no `k + 1`-th.
///
/// With `l = ⌊log2(N/k)⌋`, the low `l` bits of each start go in a packed
/// stream of that width (the postings' codec; there is none at `l = 0`),
/// and row `r` sets bit `(start_r >> l) + r` of a high vector of `(N >>
/// l) + k` bits. At `l = 0` — every bank whose rows average under two
/// postings — the vector is the rows' lengths in unary: a set bit, then a
/// clear bit per posting. A row starts where its set bit lies, less `r`
/// (shifted up past its low bits), and ends where the next row starts:
/// the next set bit.
///
/// Two arrays are derived from the high bits at build and at attach and
/// never stored: the place of every 64th row's set bit ([`SAMPLE`]), so a
/// lookup steps over at most 63 set bits, and the set bits before every
/// block of 64 words ([`BLOCK_WORDS`]), so a step that meets a long row's
/// clear bits jumps to the block holding the bit it wants, reading at
/// most its own block and that one word by word, however long the rows
/// between.
///
/// The encoding is canonical — a sequence of starts has one — and
/// [`RowBounds::from_raw_parts`] refuses any bits that do not encode `k`
/// non-empty rows tiling the postings, so an index has one set of file
/// bytes.
#[derive(Debug, Clone)]
pub(crate) struct RowBounds {
    /// Rows, `k`.
    rows: usize,
    /// Postings, `N`: where the last row ends.
    postings: usize,
    /// Low bits per start, `l`.
    l: u32,
    /// The high vector, `(N >> l) + k` bits in whole words.
    high: Section<u64>,
    /// The starts' low bits, `l` each; none at `l = 0`.
    low: Option<Packed>,
    /// `samples[j]` = `start >> l` of row `64·j`, whose set bit is bit
    /// `samples[j] + 64·j`.
    samples: Vec<u32>,
    /// `ranks[b]` = the set bits before high word `64·b`, and `k` after
    /// the last block.
    ranks: Vec<u32>,
}

/// The select samples and block ranks of the high vector `high`, which
/// sets `rows` bits (see [`RowBounds`]).
fn derive(high: &[u64], rows: usize) -> (Vec<u32>, Vec<u32>) {
    let as_u32 = |n: usize| u32::try_from(n).expect("a start and a row count fit u32");
    let mut samples = Vec::with_capacity(rows.div_ceil(SAMPLE));
    let mut ranks = Vec::with_capacity(high.len().div_ceil(BLOCK_WORDS) + 1);
    let mut rank = 0;
    for (i, &word) in high.iter().enumerate() {
        if i % BLOCK_WORDS == 0 {
            ranks.push(as_u32(rank));
        }
        let n = word.count_ones() as usize;
        // A word sets at most 64 bits, so it holds at most one sample.
        let next = SAMPLE * samples.len();
        if next < rank + n {
            let mut rest = word;
            for _ in rank..next {
                rest &= rest - 1;
            }
            let bit = 64 * i + rest.trailing_zeros() as usize;
            samples.push(as_u32(bit - next));
        }
        rank += n;
    }
    ranks.push(as_u32(rank));
    (samples, ranks)
}

impl RowBounds {
    /// Pairs the stored parts with the samples and ranks derived from
    /// them.
    fn new(high: Section<u64>, low: Option<Packed>, rows: usize, postings: usize) -> RowBounds {
        let (samples, ranks) = derive(&high, rows);
        RowBounds {
            rows,
            postings,
            l: low_width(postings, rows),
            high,
            low,
            samples,
            ranks,
        }
    }

    /// Encodes ascending row starts over `postings` postings a bit at a
    /// time — the reference encoder the build's parallel pass is held to.
    #[cfg(test)]
    pub(crate) fn from_starts(starts: &[u32], postings: usize) -> RowBounds {
        let (rows, l) = (starts.len(), low_width(postings, starts.len()));
        let mut high = vec![0u64; high_len(postings, rows).div_ceil(64)];
        let mut low = vec![0u64; words_for(rows, l.max(1))];
        for (r, &start) in starts.iter().enumerate() {
            let bit = (start as usize >> l) + r;
            high[bit / 64] |= 1 << (bit % 64);
            for j in (0..l as usize).filter(|&j| start >> j & 1 == 1) {
                let bit = r * l as usize + j;
                low[bit / 64] |= 1 << (bit % 64);
            }
        }
        let low = (l > 0).then(|| {
            let bytes = low.iter().flat_map(|w| w.to_le_bytes()).collect();
            Packed::new(bytes, l, rows)
        });
        RowBounds::new(high.into(), low, rows, postings)
    }

    /// Pairs decoded sections with the header's `rows` and `postings`,
    /// checking what a lookup relies on: `(N >> l) + k` high bits, none
    /// set past them and `k` set; low bits that fit `l` (no stream at
    /// `l = 0`, no bit past the last start's); row 0 starting at 0, no
    /// row empty and the last ending at `N` — so the sections are the one
    /// encoding of `k` rows tiling the postings. Returns the first
    /// violation.
    pub(crate) fn from_raw_parts(
        high: Section<u64>,
        low: Section<u8>,
        rows: usize,
        postings: usize,
    ) -> Result<RowBounds, String> {
        if rows == 0 && postings > 0 {
            return Err(format!("no rows for {postings} postings"));
        }
        let (l, len) = (low_width(postings, rows), high_len(postings, rows));
        if high.len() != len.div_ceil(64) {
            return Err(format!("{} high words for {len} high bits", high.len()));
        }
        if high
            .last()
            .is_some_and(|&w| !len.is_multiple_of(64) && w >> (len % 64) != 0)
        {
            return Err(format!("stray high bits past the first {len}"));
        }
        let set: usize = high.iter().map(|w| w.count_ones() as usize).sum();
        if set != rows {
            return Err(format!("high bits set for {set} rows, expected {rows}"));
        }
        let low = match l {
            0 if low.is_empty() => None,
            0 => return Err(format!("{} low bytes for starts of no low bits", low.len())),
            l => Some(
                Packed::from_raw_parts(low, l, rows)
                    .map_err(|e| format!("the starts' {l} low bits: {e}"))?,
            ),
        };
        let bounds = RowBounds::new(high, low, rows, postings);
        let mut cursor = bounds.view().cursor();
        let mut prev = None;
        for r in 0..rows {
            let start = cursor.start(r);
            match prev {
                None if start != 0 => return Err(format!("row 0 starts at {start}, not 0")),
                Some(p) if start <= p => return Err(format!("row {} is empty", r - 1)),
                _ => {}
            }
            prev = Some(start);
        }
        if let Some(last) = prev.filter(|&start| start >= postings) {
            return Err(format!(
                "last row starts at {last}, so it cannot end at the {postings}th posting"
            ));
        }
        Ok(bounds)
    }

    /// Rows: the populated codes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The parts and the derived arrays as plain slices, to look rows up
    /// through.
    #[inline]
    pub(crate) fn view(&self) -> BoundsView<'_> {
        BoundsView {
            high: &self.high,
            low: self.low.as_ref().map_or(&[], Packed::bytes),
            l: self.l,
            rows: self.rows,
            postings: self.postings,
            samples: &self.samples,
            ranks: &self.ranks,
        }
    }

    /// The high words and the low stream's bytes (none at `l = 0`), as an
    /// index file stores them.
    pub(crate) fn sections(&self) -> (&[u64], &[u8]) {
        (&self.high, self.low.as_ref().map_or(&[], Packed::bytes))
    }

    /// Heap bytes: the derived samples and ranks always, the high words
    /// and the low stream unless they are views of a mapped file.
    fn heap_bytes(&self) -> usize {
        4 * (self.samples.len() + self.ranks.len())
            + self.high.heap_bytes()
            + self.low.as_ref().map_or(0, Packed::heap_bytes)
    }

    fn is_mapped(&self) -> bool {
        self.high.is_mapped() || self.low.as_ref().is_some_and(Packed::is_mapped)
    }
}

/// A [`RowBounds`]' parts and derived arrays as plain slices. A walk over
/// many rows takes one and reads each section's address once, not once
/// per row (a [`Section`] derefs through a match).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundsView<'a> {
    high: &'a [u64],
    low: &'a [u8],
    l: u32,
    rows: usize,
    postings: usize,
    samples: &'a [u32],
    ranks: &'a [u32],
}

impl<'a> BoundsView<'a> {
    /// A cursor before row 0.
    pub(crate) fn cursor(self) -> Cursor<'a> {
        Cursor {
            view: self,
            at: 0,
            base: 0,
            n: 0,
            places: [0; 64],
        }
    }

    /// The postings of row `r`: its word found from its select sample,
    /// and the next set bit for its end.
    #[inline]
    pub(crate) fn row(self, r: usize) -> Range<usize> {
        self.cursor().row(r)
    }
}

/// A forward walk over a [`RowBounds`]' high vector. It holds one high
/// word decoded — the places of its set bits — so a row in that word is
/// one lookup, with no chain from one row to the next; asked for a row
/// past the word, it skips whole words by popcount (and whole blocks by
/// their ranks), or starts from the row's select sample when it lies 64
/// rows ahead or more, and decodes the word that holds it. A walk over
/// rows in ascending order, such as step 2's, decodes each word it meets
/// once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor<'a> {
    view: BoundsView<'a>,
    /// The high word decoded.
    at: usize,
    /// The row whose set bit is its first.
    base: usize,
    /// Its set bits: how many (0 before the first decode), and where.
    n: usize,
    places: [u8; 64],
}

impl Cursor<'_> {
    /// The postings of row `r` — at or after the rows asked before it, and
    /// below `k`.
    #[inline(always)]
    pub(crate) fn row(&mut self, r: usize) -> Range<usize> {
        let i = r - self.base;
        if i + 1 < self.n {
            // Both ends in the word at hand.
            return self.decoded(i, r)..self.decoded(i + 1, r + 1);
        }
        let start = self.start(r);
        let end = if r + 1 < self.view.rows {
            self.start(r + 1)
        } else {
            self.view.postings
        };
        start..end
    }

    /// Where row `r` starts.
    #[inline(always)]
    fn start(&mut self, r: usize) -> usize {
        if r - self.base >= self.n {
            self.seek(r);
        }
        self.decoded(r - self.base, r)
    }

    /// Where row `r`, the `i`-th of the word at hand, starts.
    #[inline(always)]
    fn decoded(&self, i: usize, r: usize) -> usize {
        let v = self.view;
        // `i` is below `n`, at most 64: the mask only spares the check.
        let high = 64 * self.at + usize::from(self.places[i & 63]) - r;
        if v.l == 0 {
            high
        } else {
            high << v.l | extract(v.low, v.l, r) as usize
        }
    }

    /// Decodes the high word holding row `r`'s set bit, which lies past
    /// the word at hand.
    #[inline(never)]
    fn seek(&mut self, r: usize) {
        let v = self.view;
        let (mut at, mut base) = if self.n == 0 || r - self.base >= SAMPLE {
            let j = r / SAMPLE;
            let bit = v.samples[j] as usize + SAMPLE * j;
            let below = v.high[bit / 64] & !(u64::MAX << (bit % 64));
            (bit / 64, SAMPLE * j - below.count_ones() as usize)
        } else {
            (self.at + 1, self.base + self.n)
        };
        let mut word = v.high[at];
        while r - base >= word.count_ones() as usize {
            base += word.count_ones() as usize;
            at += 1;
            // A block wholly before the bit is jumped over.
            if at.is_multiple_of(BLOCK_WORDS) && v.ranks[at / BLOCK_WORDS + 1] as usize <= r {
                let block = v.ranks.partition_point(|&rank| rank as usize <= r) - 1;
                (at, base) = (block * BLOCK_WORDS, v.ranks[block] as usize);
            }
            word = v.high[at];
        }
        // Eight places a round, past the last set bit too (a spent word's
        // places are 64, never read): the rounds a word takes vary less
        // than its bits, so the loop's exit is rarely mispredicted.
        (self.at, self.base, self.n) = (at, base, word.count_ones() as usize);
        for round in self.places.chunks_exact_mut(8).take(self.n.div_ceil(8)) {
            for place in round {
                // oris-lint: allow(narrow-cast) — a bit's place in a word is at most 64
                *place = word.trailing_zeros() as u8;
                word &= word.wrapping_sub(1);
            }
        }
    }
}

/// Codes under one top-level word: 64 bitmap words of 64 codes each.
const TOP_SPAN: usize = 64 * 64;

/// Words of the top level over `num_seeds` codes, `⌈4^W/4096⌉`.
pub(crate) fn top_words(num_seeds: usize) -> usize {
    num_seeds.div_ceil(TOP_SPAN)
}

/// The row map: a two-level ranked bitmap over the code space and the
/// [`RowBounds`] of the populated codes — the `r`-th populated code owns
/// row `r`.
///
/// Think of a presence bitmap of `4^W` bits, bit `c % 64` of word `c / 64`
/// set iff code `c` is populated. Only its non-zero words are stored
/// (`words`, ascending); the top level has one bit per bitmap word, bit
/// `j` of `top[t]` set iff bitmap word `64·t + j` is stored. Two rank
/// arrays are derived from them at build and at attach and never stored:
/// per top word, the stored words before it, and per stored word, the
/// rows before it. A code's row is two rank steps — its word's place
/// among the stored words, then its bit's place among the rows — each one
/// load and a popcount (see [`RowMap::row_of`]).
#[derive(Debug, Clone)]
pub(crate) struct RowMap {
    top: Section<u64>,
    words: Section<u64>,
    /// `top_ranks[t]` = bits set in `top[..t]`.
    top_ranks: Vec<u32>,
    /// `word_ranks[i]` = bits set in `words[..i]`.
    word_ranks: Vec<u32>,
    bounds: RowBounds,
}

/// Exclusive prefix popcounts of `words`: per word, the bits set before
/// it.
fn ranks_of(words: &[u64]) -> Vec<u32> {
    let mut sum = 0u32;
    words
        .iter()
        .map(|&word| {
            let rank = sum;
            sum += word.count_ones();
            rank
        })
        .collect()
}

impl RowMap {
    /// Pairs the two levels with their row bounds and derives the ranks;
    /// [`RowMap::from_raw_parts`] validates a decoded triple first.
    fn new(top: Section<u64>, words: Section<u64>, bounds: RowBounds) -> RowMap {
        RowMap {
            top_ranks: ranks_of(&top),
            word_ranks: ranks_of(&words),
            top,
            words,
            bounds,
        }
    }

    /// Pairs decoded sections over a `num_seeds`-code space, checking what
    /// a lookup relies on: a top level of `⌈4^W/4096⌉` words marking no
    /// word past the code space, one stored word per top bit, no stored
    /// word zero or holding a code past the space, and one row per stored
    /// code — the one encoding the build writes. Returns the first
    /// violation.
    pub(crate) fn from_raw_parts(
        top: Section<u64>,
        words: Section<u64>,
        bounds: RowBounds,
        num_seeds: usize,
    ) -> Result<RowMap, String> {
        if top.len() != top_words(num_seeds) {
            return Err(format!(
                "top level has {} words, expected ⌈{num_seeds}/4096⌉ = {}",
                top.len(),
                top_words(num_seeds)
            ));
        }
        // Bitmap words past the code space: only a top level of one
        // partial word (W ≤ 5) has any.
        let bitmap_words = num_seeds.div_ceil(64);
        if bitmap_words < 64 && top[0] >> bitmap_words != 0 {
            return Err(format!(
                "top level marks a word past the {num_seeds}-code space"
            ));
        }
        let marked: usize = top.iter().map(|t| t.count_ones() as usize).sum();
        if marked > words.len() {
            return Err(format!(
                "top level marks {marked} words, {} stored: a marked word is absent",
                words.len()
            ));
        }
        if marked < words.len() {
            return Err(format!(
                "{} stored words for the {marked} the top level marks",
                words.len()
            ));
        }
        if words.contains(&0) {
            return Err("a stored bitmap word is zero".into());
        }
        // Codes past the space: only a bitmap of one partial word (W ≤ 2).
        if num_seeds < 64 && words.first().is_some_and(|&w| w >> num_seeds != 0) {
            return Err(format!(
                "a bitmap word sets a code past the {num_seeds}-code space"
            ));
        }
        let codes: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if codes != bounds.len() {
            return Err(format!(
                "bitmap words hold {codes} codes for {} rows",
                bounds.len()
            ));
        }
        Ok(RowMap::new(top, words, bounds))
    }

    /// The stored sections, as an index file holds them: top level,
    /// populated words, row bounds.
    pub(crate) fn sections(&self) -> (&[u64], &[u64], &RowBounds) {
        (&self.top, &self.words, &self.bounds)
    }

    /// The two levels and their ranks as plain slices.
    #[inline]
    fn view(&self) -> MapView<'_> {
        MapView {
            top: &self.top,
            words: &self.words,
            top_ranks: &self.top_ranks,
            word_ranks: &self.word_ranks,
        }
    }

    /// Row of `code`, or `None` if it is absent (or past the code space).
    #[inline]
    fn row_of(&self, code: u32) -> Option<usize> {
        let map = self.view();
        let t = code as usize / TOP_SPAN;
        let top = *map.top.get(t)?;
        let j = code / 64 % 64;
        if top >> j & 1 == 0 {
            return None;
        }
        let i = rank_in(map.top_ranks[t], top, j);
        let bits = map.words[i];
        let bit = code % 64;
        (bits >> bit & 1 == 1).then(|| rank_in(map.word_ranks[i], bits, bit))
    }

    /// Heap bytes: the derived ranks always, the two levels and the row
    /// bounds unless they are views of a mapped file.
    fn heap_bytes(&self) -> usize {
        4 * (self.top_ranks.len() + self.word_ranks.len())
            + self.top.heap_bytes()
            + self.words.heap_bytes()
            + self.bounds.heap_bytes()
    }

    fn is_mapped(&self) -> bool {
        self.top.is_mapped() || self.words.is_mapped() || self.bounds.is_mapped()
    }
}

/// A [`RowMap`]'s levels and ranks as plain slices, read once per walk
/// rather than once per code (a [`Section`] derefs through a match).
#[derive(Debug, Clone, Copy)]
struct MapView<'a> {
    top: &'a [u64],
    words: &'a [u64],
    top_ranks: &'a [u32],
    word_ranks: &'a [u32],
}

/// Rank of bit `bit` of `word`: `rank` (the bits set before the word)
/// plus the bits of the word below `bit`.
#[inline]
fn rank_in(rank: u32, word: u64, bit: u32) -> usize {
    rank as usize + (word & ((1u64 << bit) - 1)).count_ones() as usize
}

/// The occurrence index over one bank, in CSR layout.
#[derive(Debug, Clone)]
pub struct BankIndex {
    coder: SeedCoder,
    stride: usize,
    /// Code → postings-row map. Owned for a fresh build; zero-copy views
    /// into the index file for an mmap attach (its ranks are derived on
    /// the heap either way).
    rows: RowMap,
    /// All indexed positions, grouped by seed code in ascending code
    /// order, ascending within a group, each in `⌈log2 len(SEQ)⌉` bits.
    /// Same storage duality as `rows`.
    postings: Packed,
    /// One bit per bank position: is a seed occurrence anchored here?
    ///
    /// This answers the question the ORIS order guard must ask during
    /// extension: *would the global enumeration visit a seed at this
    /// position?* A smaller-code window that was excluded (masked as
    /// low-complexity, skipped by the asymmetric stride, or invalid) can
    /// never own an HSP, so it must not trigger an abort.
    indexed: MaskSet,
    /// Exclusion provenance: `true` iff no *policy* exclusion occurred
    /// during the build — stride 1 and no valid window rejected by the
    /// mask predicate. See [`BankIndex::is_fully_indexed`].
    fully_indexed: bool,
    bank_bytes: usize,
}

/// A bank's code array (residues, one sentinel per sequence, plus one)
/// must be shorter than this: postings are `u32` positions.
pub const MAX_BANK_LEN: usize = u32::MAX as usize;

impl BankIndex {
    /// Builds the index for `bank` under `cfg`, optionally excluding
    /// positions for which `masked(position)` returns true (used by the
    /// low-complexity pre-filter of section 2.1: "W character words
    /// belonging to low-complexity regions are discarded from the index").
    ///
    /// A bank of at least 2^19 positions is scanned, scattered and sorted
    /// by up to `rayon::current_num_threads()` workers, a smaller one on
    /// the calling thread; the index is the same for every worker count.
    ///
    /// # Panics
    /// Panics if the bank holds [`MAX_BANK_LEN`] positions or more. A
    /// front end checks a bank it read against the constant first (the
    /// command-line tools do, and `make_db` does per volume), so that
    /// size is a message there and an invariant here.
    pub fn build_filtered(
        bank: &Bank,
        cfg: IndexConfig,
        masked: impl Fn(usize) -> bool + Sync,
    ) -> BankIndex {
        Self::build_sliced(bank, cfg, masked, PAR_GRAIN, Radix::new(cfg.w))
    }

    /// [`BankIndex::build_filtered`] with the parallel grain and the
    /// partitions as parameters, so tests can cut a small bank into many
    /// slices and move partitions across the sort rule.
    fn build_sliced(
        bank: &Bank,
        cfg: IndexConfig,
        masked: impl Fn(usize) -> bool + Sync,
        grain: usize,
        radix: Radix,
    ) -> BankIndex {
        assert!(cfg.stride >= 1, "stride must be at least 1");
        let coder = SeedCoder::new(cfg.w);
        let data = bank.data();
        assert!(
            data.len() < MAX_BANK_LEN,
            "bank too large for u32 positions"
        );
        let workers = slice_workers(data.len(), grain);
        // Whole bit-set words per slice, so slices share no word.
        let slice_len = data.len().div_ceil(workers).next_multiple_of(64);

        // Pass A: every slice marks its surviving windows in its own
        // words of the bit-set and counts them per partition.
        let mut words = vec![0u64; data.len().div_ceil(64)];
        let scans: Vec<SliceScan> = words
            .chunks_mut(slice_len / 64)
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(k, words)| {
                scan_slice(
                    data,
                    k * slice_len,
                    words,
                    coder,
                    cfg.stride,
                    &masked,
                    radix,
                )
            })
            .collect();
        let postings: usize = scans.iter().map(|s| s.postings).sum();
        // Policy exclusions only: every window the rolling coder yields is
        // *valid* (inside one record, no ambiguous base), so any rejection
        // was a stride/mask decision — the provenance that decides whether
        // the order guard may skip its bit-set probes entirely.
        let policy_excluded: usize = scans.iter().map(|s| s.policy_excluded).sum();

        let bits = bit_width(data.len());
        let (rows, packed) = sort_rows(
            data, &words, slice_len, coder, radix, &scans, postings, bits,
        );
        BankIndex {
            coder,
            stride: cfg.stride,
            rows,
            postings: Packed::new(packed, bits, postings),
            indexed: MaskSet::from_raw_words(words, data.len())
                .expect("one word per 64 positions, no bit past the last position"),
            fully_indexed: cfg.stride == 1 && policy_excluded == 0,
            bank_bytes: data.len(),
        }
    }

    /// Builds the index with no masking.
    pub fn build(bank: &Bank, cfg: IndexConfig) -> BankIndex {
        Self::build_filtered(bank, cfg, |_| false)
    }

    /// Reassembles an index from its raw arrays (the deserialization path
    /// of `persist`; the row map was checked by [`RowMap::from_raw_parts`],
    /// the postings' stream by [`Packed::from_raw_parts`] and its width by
    /// the file header), validating every structural invariant the rest
    /// of the system relies on. Returns a description of the first
    /// violation instead of constructing an index that would panic (or
    /// silently corrupt step 2) later.
    pub(crate) fn from_raw_parts(
        w: usize,
        stride: usize,
        rows: RowMap,
        postings: Packed,
        indexed: MaskSet,
        fully_indexed: bool,
        bank_bytes: usize,
    ) -> Result<BankIndex, String> {
        if !(1..=MAX_SEED_LEN).contains(&w) {
            return Err(format!("seed length {w} outside 1..={MAX_SEED_LEN}"));
        }
        if stride == 0 {
            return Err("stride must be at least 1".into());
        }
        if fully_indexed && stride != 1 {
            // A strided build always policy-excludes windows; the claim is
            // internally contradictory and would wrongly enable step 2's
            // probe-free guard.
            return Err(format!("stride {stride} cannot be fully indexed"));
        }
        if bank_bytes >= MAX_BANK_LEN {
            return Err("bank length exceeds u32 position space".into());
        }
        let coder = SeedCoder::new(w);
        if indexed.len() != bank_bytes {
            return Err(format!(
                "indexed bit-set covers {} positions, bank has {bank_bytes}",
                indexed.len()
            ));
        }
        if indexed.masked_count() != postings.len() {
            return Err(format!(
                "indexed bit-set has {} bits set for {} positions",
                indexed.masked_count(),
                postings.len()
            ));
        }
        // Per-row invariants, in one streaming decode of the postings:
        // strictly ascending positions (step 2 and the uniqueness argument
        // assume the enumeration order), every position inside the bank,
        // every position present in the bit-set. The bounds themselves
        // were checked against the postings count as they were decoded
        // (`RowBounds::from_raw_parts`).
        let mut bounds = rows.bounds.view().cursor();
        for r in 0..rows.bounds.len() {
            let mut prev = None;
            for p in postings.row(bounds.row(r)) {
                if prev.is_some_and(|q| q >= p) {
                    return Err("row positions are not strictly ascending".into());
                }
                if p as usize >= bank_bytes {
                    return Err(format!("position {p} outside bank of {bank_bytes}"));
                }
                if !indexed.contains(p as usize) {
                    return Err(format!("position {p} missing from the indexed bit-set"));
                }
                prev = Some(p);
            }
        }
        Ok(BankIndex {
            coder,
            stride,
            rows,
            postings,
            indexed,
            fully_indexed,
            bank_bytes,
        })
    }

    /// The seed coder used by this index.
    #[inline]
    pub fn coder(&self) -> SeedCoder {
        self.coder
    }

    /// Seed length `W`.
    #[inline]
    pub fn w(&self) -> usize {
        self.coder.w()
    }

    /// Sampling stride (1 = full, 2 = asymmetric).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// All occurrences of `code`, in increasing position order: the row
    /// the two rank steps of the row map find, decoded as it is read (an
    /// empty row for an absent code).
    #[inline]
    pub fn occurrences(&self, code: u32) -> Row<'_> {
        let n = self.postings.len();
        let range = self
            .rows
            .row_of(code)
            .map_or(n..n, |row| self.rows.bounds.view().row(row));
        self.postings.row(range)
    }

    /// Iterates every populated code of the index in ascending order,
    /// yielding `(code, occurrences)` with the occurrences exactly as
    /// [`BankIndex::occurrences`] would return them: a walk over the set
    /// bits of the stored words, rows in order, visiting no absent code.
    pub fn populated(&self) -> PopulatedRows<'_> {
        let map = self.rows.view();
        PopulatedRows {
            top: map.top,
            words: map.words,
            bounds: self.rows.bounds.view().cursor(),
            postings: self.postings.view(),
            t: 0,
            top_bits: map.top[0],
            next_word: 0,
            base: 0,
            cur: 0,
            row: 0,
        }
    }

    /// Calls `f(code, self's occurrences, other's occurrences)` for every
    /// code of `range` populated in both `self` and `other`, in ascending
    /// code order, and returns the first error `f` does. The walk ANDs the
    /// two top levels word by word, then, under each top bit they share,
    /// the two stored bitmap words, keeping each word's ranks: it visits
    /// only the bitmap words both indexes store and no code absent from
    /// either, and finds each row with a popcount. A lone read against a
    /// volume thus touches the top levels and the read's few words. The
    /// rows are handed over undecoded, a start and a length each, so a
    /// caller that wants only their lengths decodes nothing.
    ///
    /// # Panics
    /// Panics if the indexes have different seed lengths.
    #[inline]
    pub fn for_each_shared<'a, E>(
        &'a self,
        other: &'a BankIndex,
        range: Range<u32>,
        mut f: impl FnMut(u32, Row<'a>, Row<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        assert_eq!(self.w(), other.w(), "both indexes must use the same W");
        let end = range.end.min(self.num_codes());
        if range.start >= end {
            return Ok(());
        }
        let (a, b) = (self.rows.view(), other.rows.view());
        let (pa, pb) = (self.postings.view(), other.postings.view());
        // One forward cursor per index: the shared rows come in ascending
        // order, so each moves a few set bits per row.
        let (mut ba, mut bb) = (
            self.rows.bounds.view().cursor(),
            other.rows.bounds.view().cursor(),
        );
        // The bitmap words the range touches, first and last.
        let (first, last) = (range.start / 64, (end - 1) / 64);
        for t in first / 64..=last / 64 {
            let ti = t as usize;
            let (ta, tb) = (a.top[ti], b.top[ti]);
            let mut shared_words = ta & tb;
            // `lo` is the bitmap word of top bit 0.
            let lo = 64 * t;
            if first > lo {
                shared_words &= u64::MAX << (first - lo);
            }
            if last - lo < 63 {
                shared_words &= (1u64 << (last - lo + 1)) - 1;
            }
            while shared_words != 0 {
                let j = shared_words.trailing_zeros();
                shared_words &= shared_words - 1;
                let (ia, ib) = (
                    rank_in(a.top_ranks[ti], ta, j),
                    rank_in(b.top_ranks[ti], tb, j),
                );
                let (wa, wb) = (a.words[ia], b.words[ib]);
                // `base` is the code of bit 0 of the word at hand.
                let base = 64 * (lo + j);
                let mut shared = wa & wb;
                if base < range.start {
                    shared &= u64::MAX << (range.start - base);
                }
                if end - base < 64 {
                    shared &= (1u64 << (end - base)) - 1;
                }
                let (ra, rb) = (a.word_ranks[ia], b.word_ranks[ib]);
                while shared != 0 {
                    let bit = shared.trailing_zeros();
                    shared &= shared - 1;
                    let x1 = pa.row(ba.row(rank_in(ra, wa, bit)));
                    let x2 = pb.row(bb.row(rank_in(rb, wb, bit)));
                    f(base + bit, x1, x2)?;
                }
            }
        }
        Ok(())
    }

    /// `4^W` as a code bound (`u32::MAX` past it, which no W reaches).
    fn num_codes(&self) -> u32 {
        u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX)
    }

    /// Number of distinct populated codes — O(1).
    #[inline]
    pub fn distinct_codes(&self) -> usize {
        self.rows.bounds.len()
    }

    /// Total indexed positions.
    #[inline]
    pub fn indexed_positions(&self) -> usize {
        self.postings.len()
    }

    /// Bits each posting is stored in: `⌈log2 len(SEQ)⌉`, at least 1.
    #[inline]
    pub fn posting_bits(&self) -> u32 {
        self.postings.bits()
    }

    /// Whether a seed occurrence is anchored at global position `pos`
    /// (i.e. the window there is valid, unmasked and stride-aligned).
    #[inline]
    pub fn is_indexed(&self, pos: usize) -> bool {
        self.indexed.contains(pos)
    }

    /// Whether every *valid* window of the bank is indexed — exclusion
    /// provenance recorded at build time.
    ///
    /// `true` iff the stride is 1 and the mask predicate rejected no
    /// window the rolling scan yielded. Windows missing only for validity
    /// reasons (record boundaries, ambiguous bases) do not count: the
    /// order guard probes a position only after observing a run of `W`
    /// matching nucleotides there, which already implies the window is
    /// valid. Consequently, when both banks of a comparison are fully
    /// indexed, every guard probe would return `true` and the probe-free
    /// `OrderedFull` guard is behaviourally identical — step 2 uses this
    /// predicate to auto-select it.
    #[inline]
    pub fn is_fully_indexed(&self) -> bool {
        self.fully_indexed
    }

    /// The indexed-occurrence bit-set as raw 64-bit words (bit `p % 64`
    /// of word `p / 64` set ⟺ [`BankIndex::is_indexed`]`(p)`) — the form
    /// the persisted index file stores.
    #[inline]
    pub fn indexed_words(&self) -> &[u64] {
        self.indexed.words()
    }

    /// Computes occupancy/footprint statistics — pure boundary
    /// arithmetic, no postings traversal.
    pub fn stats(&self) -> IndexStats {
        let mut bounds = self.rows.bounds.view().cursor();
        let max_chain = (0..self.distinct_codes())
            .map(|r| bounds.row(r).len())
            .max()
            .unwrap_or(0);
        let index_bytes = self.heap_bytes();
        IndexStats {
            distinct_seeds: self.distinct_codes(),
            indexed_positions: self.postings.len(),
            max_chain_len: max_chain,
            index_bytes,
            total_bytes: index_bytes + self.bank_bytes,
        }
    }

    /// Heap bytes used by the index arrays (row map, postings and the
    /// indexed-position bit vector). For an mmap-backed index the mapped
    /// sections count zero — their bytes live in the shared, evictable
    /// page cache, not this process's heap. What an attach does hold on
    /// the heap is the copied bit-set (`len/8` bytes) and the derived
    /// ranks (4 bytes per top-level word and per stored bitmap word).
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.postings.heap_bytes() + self.indexed.heap_bytes()
    }

    /// Whether the row map/postings sections are zero-copy views into a
    /// memory-mapped index file (see `oris_index::mmap`).
    pub fn is_mmap_backed(&self) -> bool {
        self.rows.is_mapped() || self.postings.is_mapped()
    }

    /// The row map (persistence needs the raw sections).
    #[inline]
    pub(crate) fn rows(&self) -> &RowMap {
        &self.rows
    }

    /// The packed postings (persistence needs the raw stream).
    #[inline]
    pub(crate) fn packed(&self) -> &Packed {
        &self.postings
    }

    /// Every indexed position, as one row: grouped by seed code in
    /// ascending code order and ascending within each code's row.
    #[inline]
    pub fn postings(&self) -> Row<'_> {
        self.postings.row(0..self.postings.len())
    }

    /// Length of the bank (its global coordinate space, sentinels
    /// included) this index was built over. A persisted index can only be
    /// reattached to a bank of exactly this length.
    #[inline]
    pub fn bank_len(&self) -> usize {
        self.bank_bytes
    }
}

/// Iterator over the populated `(code, occurrences)` rows of a
/// [`BankIndex`] — see [`BankIndex::populated`].
#[derive(Debug)]
pub struct PopulatedRows<'a> {
    top: &'a [u64],
    words: &'a [u64],
    bounds: Cursor<'a>,
    postings: PackedView<'a>,
    /// The top word `top_bits` came from.
    t: usize,
    /// Its set bits — stored words — not yet entered.
    top_bits: u64,
    /// Index of the next stored word to enter.
    next_word: usize,
    /// Code of bit 0 of the word `cur` came from.
    base: u32,
    /// Its set bits not yet yielded.
    cur: u64,
    /// Row of the lowest bit of `cur`.
    row: usize,
}

impl<'a> Iterator for PopulatedRows<'a> {
    type Item = (u32, Row<'a>);

    fn next(&mut self) -> Option<(u32, Row<'a>)> {
        while self.cur == 0 {
            while self.top_bits == 0 {
                self.t += 1;
                self.top_bits = *self.top.get(self.t)?;
            }
            let j = self.top_bits.trailing_zeros() as usize;
            self.top_bits &= self.top_bits - 1;
            self.base = u32::try_from(64 * (64 * self.t + j)).expect("codes < 4^13 fit u32");
            self.cur = self.words[self.next_word];
            self.next_word += 1;
        }
        let code = self.base + self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        let row = self.row;
        self.row += 1;
        let range = self.bounds.row(row);
        Some((code, self.postings.row(range)))
    }
}

/// Bank positions per worker below which step 1 takes no second worker,
/// in the index build and in the entropy mask alike (see
/// [`slice_workers`]): the rayon shim starts an OS thread per extra
/// worker per pass (tens of microseconds each, three passes for a build),
/// which a slice this long repays many times over and a 150-nt query
/// never would.
pub(crate) const PAR_GRAIN: usize = 1 << 18;

/// How many workers step 1 cuts `len` positions into: one per whole
/// `grain`, capped by the pool, and one — the calling thread, with no
/// thread query — for anything under two grains.
pub(crate) fn slice_workers(len: usize, grain: usize) -> usize {
    match len / grain {
        0 | 1 => 1,
        slices => slices.min(rayon::current_num_threads()),
    }
}

/// Fewest partitions the code space is cut into, `4^MIN_RADIX_BASES = 64`:
/// enough runs for pass C to balance across workers.
const MIN_RADIX_BASES: usize = 3;

/// Most bases a rank can hold: `4^8` codes per partition, so a rank fits
/// a `u16`.
const MAX_RANK_BASES: usize = 8;

/// How the code space is cut into partitions: the high `bases` bases of a
/// code (the *last* `bases` nucleotides of its window — the first
/// nucleotide is the low-order digit) name the partition, the remaining
/// low `w − bases` bases (the window's first nucleotides) are the code's
/// rank inside it.
///
/// `bases` is the fewest that keeps the rank within a `u16`, but never
/// under three: 64 partitions up to W = 11, 256 at W = 12, 1 024 at
/// W = 13, and `4^W` (rank 0 only) for W < 3. Fewer partitions mean
/// fewer write streams in pass B's scatter, which is what it is bound by.
#[derive(Debug, Clone, Copy)]
struct Radix {
    /// Number of partitions, `4^bases`.
    parts: usize,
    /// Codes per partition, `4^(w − bases)` — at most `4^8`, so a rank
    /// fits a `u16`.
    width: usize,
    /// Bits of rank: `code >> shift` is the partition of `code`.
    shift: u32,
    /// Pass C sorts a partition of fewer postings than this by comparison,
    /// and counts the others (see [`SORT_FILL`]). At most 2^16, so a
    /// sorted partition's rows are shorter than a `u16`.
    sort_below: usize,
}

/// A partition whose postings number under `1/SORT_FILL` of its rows is
/// sorted by comparison, not counted: counting sweeps all of its rows
/// (4^8 at W = 11) twice, whatever the postings, where a comparison sort
/// of `n` postings costs `O(n log n)`. At W = 11 that is under 4 096
/// postings, a partition of a bank under ~260 k positions — a read, a
/// small query, `repeat_family`'s banks — while an `est_x_est` or
/// `genome_null` bank, or a database volume, holds ten thousand and more
/// per partition and is counted.
const SORT_FILL: usize = 16;

impl Radix {
    /// The partitions of the `4^w` code space, under the sort rule.
    fn new(w: usize) -> Radix {
        let bases = w.saturating_sub(MAX_RANK_BASES).max(MIN_RADIX_BASES).min(w);
        let width = 1 << (2 * (w - bases));
        Radix {
            parts: 1 << (2 * bases),
            width,
            shift: 2 * u32::try_from(w - bases).expect("seed width fits u32"),
            sort_below: width / SORT_FILL,
        }
    }

    /// Partition of `code`.
    #[inline]
    fn part_of(&self, code: u32) -> usize {
        (code >> self.shift) as usize
    }

    /// Rank of `code` inside its partition.
    #[inline]
    fn rank_of(&self, code: u32) -> u16 {
        // oris-lint: allow(narrow-cast) — masked to `shift ≤ 16` bits
        (code & ((1u32 << self.shift) - 1)) as u16
    }

    /// Partitions per bitmap word: pass C cuts its runs at multiples of
    /// this, so no two runs share a stored word (1 from W = 6 on, where a
    /// partition spans whole words).
    fn parts_per_word(&self) -> usize {
        (64 / self.width).max(1)
    }
}

/// What pass A learns about one slice of the bank.
struct SliceScan {
    /// Surviving windows per partition.
    hist: Vec<u32>,
    /// Surviving windows in total.
    postings: usize,
    /// Valid windows rejected by the stride or the mask predicate.
    policy_excluded: usize,
}

/// The valid windows that *start* inside the slice `[start, start +
/// 64·words)` of `data`, as `(position, code)` in ascending position
/// order. The scan reads `w − 1` bytes past the slice so the windows
/// straddling its end belong to it and to no other slice.
fn slice_windows(
    data: &[u8],
    start: usize,
    words: usize,
    coder: SeedCoder,
) -> impl Iterator<Item = (usize, u32)> + '_ {
    let end = (start + 64 * words).min(data.len());
    let scan_end = (end + coder.w() - 1).min(data.len());
    RollingCoder::new(coder, &data[start..scan_end]).map(move |(rel, code)| (start + rel, code))
}

/// Pass A over one slice: sets the bit of every window that survives the
/// stride and the mask (`words` are the slice's own bit-set words) and
/// counts the survivors per partition.
fn scan_slice(
    data: &[u8],
    start: usize,
    words: &mut [u64],
    coder: SeedCoder,
    stride: usize,
    masked: &(impl Fn(usize) -> bool + Sync),
    radix: Radix,
) -> SliceScan {
    let mut scan = SliceScan {
        hist: vec![0u32; radix.parts],
        postings: 0,
        policy_excluded: 0,
    };
    for (pos, code) in slice_windows(data, start, words.len(), coder) {
        if pos % stride != 0 || masked(pos) {
            scan.policy_excluded += 1;
            continue;
        }
        words[(pos - start) / 64] |= 1u64 << (pos % 64);
        scan.hist[radix.part_of(code)] += 1;
        scan.postings += 1;
    }
    scan
}

/// Whether pass A kept the window at `pos`.
#[inline]
fn is_kept(words: &[u64], pos: usize) -> bool {
    words[pos / 64] >> (pos % 64) & 1 == 1
}

/// Row assembly: a radix-partitioned sort of the kept positions by code,
/// returning the row map and the postings' packed stream of `bits`-bit
/// positions.
///
/// Pass B scatters each kept position into the packed stream by
/// partition, and its rank into a transient array of the same shape. The
/// slice histograms of pass A give every (partition, slice) pair its own
/// stretch, slices in bank order inside a partition, so each partition
/// receives its positions in ascending order whatever the worker count:
/// the scatter is stable by construction. Pass B lays the stretches out
/// with room to spare — each in words of its own and a zero word after
/// them — so the slices' packers share no word; the build never holds a
/// `u32` postings array. Pass C then sorts every partition by rank,
/// packs it at its final bits of the unpadded stream (see
/// [`pack_sorted`]) and marks its populated codes in the bitmap words it
/// covers (see [`sort_partitions`]); the stored words are the non-zero
/// ones, and the top level marks where they fall. Ranks
/// are carried rather than read back from the bank in pass C: a
/// partition's positions lie scattered over the whole bank, so
/// re-reading their windows cost a cache miss per posting — three times
/// the whole of pass C, measured with 1 024 partitions. The row bounds
/// are encoded from the lengths pass C leaves in the spent ranks (see
/// [`encode_run`]), and the rank array is freed.
#[allow(clippy::too_many_arguments)] // the build's state, passed down once
fn sort_rows(
    data: &[u8],
    words: &[u64],
    slice_len: usize,
    coder: SeedCoder,
    radix: Radix,
    scans: &[SliceScan],
    postings: usize,
    bits: u32,
) -> (RowMap, Vec<u8>) {
    let as_u32 =
        |n: usize| u32::try_from(n).expect("postings are bounded by the bank-length guard");
    // `pbase[p]` = postings in partitions before `p`.
    let mut pbase = vec![0u32; radix.parts + 1];
    for p in 0..radix.parts {
        let in_part: u32 = scans.iter().map(|s| s.hist[p]).sum();
        pbase[p + 1] = pbase[p] + in_part;
    }

    // The padded layout pass B writes and pass C sorts in: the
    // (partition, slice) stretches in stream order, each in whole words of
    // its own and a zero word after them (`room`), so writers side by side
    // share no word. `stretch_at[p·S + s]` is the first byte of the
    // stretch of partition `p` and slice `s`.
    let mut stretch_at = Vec::with_capacity(radix.parts * scans.len() + 1);
    let mut bytes_in = 0;
    for p in 0..radix.parts {
        for scan in scans {
            stretch_at.push(bytes_in);
            bytes_in += room(scan.hist[p] as usize, bits);
        }
    }
    stretch_at.push(bytes_in);
    let part_at = |p: usize| stretch_at[p * scans.len()];
    let mut packed = vec![0u8; bytes_in];
    let b = bits as usize;
    let mut ranks = vec![0u16; postings];
    // Pass B: per slice, one packer per partition into its stretch and
    // one cursor per partition into the ranks. A packer stores whole
    // words, so the stream's pages are first written, not read.
    {
        let mut cursors: Vec<Vec<_>> = scans
            .iter()
            .map(|_| Vec::with_capacity(radix.parts))
            .collect();
        let mut byte_rest: &mut [u8] = &mut packed;
        let mut rank_rest: &mut [u16] = &mut ranks;
        for p in 0..radix.parts {
            for (cursors, scan) in cursors.iter_mut().zip(scans) {
                let n = scan.hist[p] as usize;
                let (bytes, tail) = std::mem::take(&mut byte_rest).split_at_mut(room(n, bits));
                byte_rest = tail;
                let (rank, tail) = std::mem::take(&mut rank_rest).split_at_mut(n);
                rank_rest = tail;
                cursors.push((Packer::over(bytes, 0..n * b), bytes, rank.iter_mut()));
            }
        }
        cursors
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(k, mut cursors)| {
                let start = k * slice_len;
                for (pos, code) in slice_windows(data, start, slice_len / 64, coder) {
                    if is_kept(words, pos) {
                        let (packer, bytes, rank_slot) = &mut cursors[radix.part_of(code)];
                        // oris-lint: allow(narrow-cast) — guarded by the `data.len() < MAX_BANK_LEN` assert in build_sliced
                        packer.push(bytes, pos as u32, bits);
                        *rank_slot.next().expect("pass A counted this window") =
                            radix.rank_of(code);
                    }
                }
                for (packer, bytes, _) in cursors {
                    packer.finish(bytes);
                }
            });
    }

    // Pass C: contiguous runs of partitions, one per slice of pass A,
    // cut where the postings (not the partition count) divide evenly and
    // rounded to whole bitmap words.
    let mut cuts = Vec::with_capacity(scans.len());
    let mut first = 0usize;
    for k in 1..=scans.len() {
        let share = as_u32(postings / scans.len() * k);
        let end = if k == scans.len() {
            radix.parts
        } else {
            (first + pbase[first..radix.parts].partition_point(|&b| b < share))
                .next_multiple_of(radix.parts_per_word())
                .min(radix.parts)
        };
        cuts.push(first..end);
        first = end;
    }
    let postings_of = |parts: &Range<usize>| pbase[parts.start] as usize..pbase[parts.end] as usize;
    let sorted: Vec<SortedRun> = {
        let mut byte_rest: &mut [u8] = &mut packed;
        let mut rank_rest: &mut [u16] = &mut ranks;
        cuts.iter()
            .map(|parts| {
                let room = part_at(parts.end) - part_at(parts.start);
                let (bytes, tail) = std::mem::take(&mut byte_rest).split_at_mut(room);
                byte_rest = tail;
                let (ranks, tail) =
                    std::mem::take(&mut rank_rest).split_at_mut(postings_of(parts).len());
                rank_rest = tail;
                (parts.clone(), bytes, ranks)
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(parts, bytes, ranks)| {
                let layout = Layout {
                    bits,
                    scans,
                    stretch_at: &stretch_at,
                    first: part_at(parts.start),
                };
                sort_partitions(radix, &pbase, parts, &layout, bytes, ranks)
            })
            .collect()
    };
    // The partitions each run could not yet write at their final bits,
    // then the stream cut to its postings and its pad word.
    for run in &sorted {
        let deferred = &run.deferred_postings;
        copy_bits(
            &mut packed,
            deferred.start * b,
            &run.deferred,
            deferred.len() * b,
        );
    }
    seal(&mut packed, postings * b);
    // Row bounds, from the lengths pass C left in the spent ranks: each
    // run encodes its rows' starts (see [`encode_run`]) into the high
    // words it owns — from the first word wholly past its first row's set
    // bit — and hands back the bits it sets below them and its rows' low
    // bits, put in place once the runs are done.
    let run_rows: Vec<usize> = sorted
        .iter()
        .map(|run| run.parts.iter().map(|p| p.populated).sum())
        .collect();
    let rows: usize = run_rows.iter().sum();
    let l = low_width(postings, rows);
    // Each run's first row and that row's set bit, then the end of the
    // high vector.
    let mut firsts = Vec::with_capacity(cuts.len() + 1);
    let mut first_row = 0;
    for (parts, &n) in cuts.iter().zip(&run_rows) {
        firsts.push((first_row, (pbase[parts.start] as usize >> l) + first_row));
        first_row += n;
    }
    firsts.push((rows, high_len(postings, rows)));
    let mut high = vec![0u64; high_len(postings, rows).div_ceil(64)];
    let edges: Vec<(u64, Vec<u8>)> = {
        let mut rest: &mut [u64] = &mut high;
        cuts.iter()
            .zip(&sorted)
            .zip(firsts.windows(2))
            .map(|((parts, run), pair)| {
                let ((first_row, bit), (_, next)) = (pair[0], pair[1]);
                let owned = next.div_ceil(64) - bit.div_ceil(64);
                let (words, tail) = std::mem::take(&mut rest).split_at_mut(owned);
                rest = tail;
                (
                    parts.clone(),
                    &run.parts,
                    first_row,
                    bit.div_ceil(64),
                    words,
                )
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(parts, run, first_row, first_word, words)| {
                encode_run(
                    radix, &pbase, parts, run, &ranks, l, first_row, first_word, words,
                )
            })
            .collect()
    };
    drop(ranks);
    let mut low = vec![0u8; low_bytes(rows, l)];
    for ((&(first_row, bit), (below, run_low)), n) in firsts.iter().zip(edges).zip(run_rows) {
        if below != 0 {
            high[bit / 64] |= below;
        }
        copy_bits(&mut low, first_row * l as usize, &run_low, n * l as usize);
    }
    let low = (l > 0).then(|| Packed::new(low, l, rows));
    let bounds = RowBounds::new(high.into(), low, rows, postings);
    // The two levels: the runs' stored words in order, and the top bit of
    // each.
    let mut top = vec![0u64; top_words(coder.num_seeds())];
    let mut stored = Vec::with_capacity(sorted.iter().map(|run| run.words.len()).sum());
    for run in &sorted {
        for (t, &bits) in top[run.top_base..].iter_mut().zip(&run.top) {
            *t |= bits;
        }
        stored.extend_from_slice(&run.words);
    }
    (RowMap::new(top.into(), stored.into(), bounds), packed)
}

/// What pass C leaves of one partition for its row boundaries.
struct PartitionRows {
    /// Populated codes.
    populated: usize,
    /// Whether the head of the partition's rank stretch now holds the
    /// length of each populated row, in code order — false where a row
    /// outgrew a `u16`, and the ranks are left for a recount.
    lengths: bool,
}

/// What pass C leaves of one run of partitions: each partition's rows,
/// the non-zero bitmap words the run covers, ascending, and the top-level
/// words over them.
struct SortedRun {
    parts: Vec<PartitionRows>,
    /// The sorted positions of the run's first partitions whose final
    /// bits lie before its bytes, packed from the run's first final bit
    /// on, and the postings they are.
    deferred: Vec<u8>,
    deferred_postings: Range<usize>,
    words: Vec<u64>,
    /// Bit `j` of `top[i]` is set iff bitmap word `64·(top_base + i) + j`
    /// is in `words`.
    top: Vec<u64>,
    top_base: usize,
    /// The bitmap word the last of `words` is.
    last: usize,
}

impl SortedRun {
    /// ORs `bits` into bitmap word `word` — the last word marked, or a
    /// later one.
    #[inline]
    fn mark(&mut self, word: usize, bits: u64) {
        if self.last == word {
            *self.words.last_mut().expect("the last word is stored") |= bits;
        } else if bits != 0 {
            self.last = word;
            self.words.push(bits);
            self.top[word / 64 - self.top_base] |= 1 << (word % 64);
        }
    }
}

/// Where pass B left a run of partitions in the padded layout: the first
/// byte of each (partition, slice) stretch, the first of the run's — the
/// first of `bytes` — and each stretch's postings.
struct Layout<'a> {
    bits: u32,
    scans: &'a [SliceScan],
    stretch_at: &'a [usize],
    first: usize,
}

impl Layout<'_> {
    /// The stretches of partition `p` in pass B's order — slice by slice,
    /// its positions ascending — each as the bit of its first posting in
    /// the run's bytes and its postings.
    fn stretches(&self, p: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.scans.iter().enumerate().map(move |(s, scan)| {
            let at = 8 * (self.stretch_at[p * self.scans.len() + s] - self.first);
            (at, scan.hist[p] as usize)
        })
    }
}

/// Pass C over one run of partitions: sorts each partition by rank,
/// marking the bits of its populated codes in the run's bitmap words as
/// it goes. A partition's positions are read from its stretches of the
/// padded layout (`bytes`, the run's) and its sorted positions packed at
/// their final bits (see [`pack_sorted`]). A partition of at least
/// [`Radix::sort_below`] postings is counted — count into a
/// `4^8`-counter scratch, prefix-sum, scatter into a partition-sized
/// scratch, all within the scratch and the partition's few tens of
/// kilobytes; a smaller one sorts its `(rank, position)` pairs, which
/// keeps a read's or a small bank's build from sweeping `4^8` counters per
/// partition (see [`SORT_FILL`]). Either sort leaves each row's positions
/// ascending. Once a partition is sorted its ranks are spent, so the head
/// of their stretch takes the populated rows' lengths for
/// [`encode_run`].
fn sort_partitions(
    radix: Radix,
    pbase: &[u32],
    parts: Range<usize>,
    layout: &Layout<'_>,
    bytes: &mut [u8],
    mut ranks: &mut [u16],
) -> SortedRun {
    // The run's bitmap words, and the most of them it can populate.
    let run_words = parts.start * radix.width / 64..(parts.end * radix.width).div_ceil(64);
    let mut run = SortedRun {
        parts: Vec::with_capacity(parts.len()),
        deferred: Vec::new(),
        deferred_postings: pbase[parts.start] as usize..pbase[parts.start] as usize,
        words: Vec::with_capacity(run_words.len().min(ranks.len())),
        top: vec![0; run_words.end.div_ceil(64) - run_words.start / 64],
        top_base: run_words.start / 64,
        last: usize::MAX,
    };
    let bits = layout.bits;
    let b = bits as usize;
    // Per row: its count, then its start, then its write cursor —
    // allocated by the first partition that counts.
    let mut rows: Vec<u32> = Vec::new();
    // The populated rows' lengths, gathered as the prefix sum meets them:
    // written at every row and kept only where the row is populated, so
    // the sum takes no data-dependent branch.
    let mut lengths: Vec<u16> = Vec::new();
    // A counted partition's positions in row order (grown, never
    // cleared: the scatter writes every slot it reads); a sorted one's
    // keys.
    let mut order: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    for p in parts {
        let len = (pbase[p + 1] - pbase[p]) as usize;
        let (stretch_ranks, tail) = std::mem::take(&mut ranks).split_at_mut(len);
        ranks = tail;
        if len == 0 {
            run.parts.push(PartitionRows {
                populated: 0,
                lengths: true,
            });
            continue;
        }
        let first_bit = p * radix.width;
        if len < radix.sort_below {
            // Rank above position: one sort orders the rows and keeps
            // each row's positions ascending.
            keys.clear();
            let mut ranks_in = stretch_ranks.iter();
            for (at, n) in layout.stretches(p) {
                keys.extend(ranks_in.by_ref().take(n).enumerate().map(|(j, &rank)| {
                    u64::from(rank) << 32 | u64::from(extract_at(bytes, at + j * b, bits))
                }));
            }
            keys.sort_unstable();
            let mut n = 0;
            for (j, &key) in keys.iter().enumerate() {
                let rank = (key >> 32) as usize;
                if j == 0 || keys[j - 1] >> 32 != key >> 32 {
                    let bit = first_bit + rank;
                    run.mark(bit / 64, 1 << (bit % 64));
                    stretch_ranks[n] = 0;
                    n += 1;
                }
                // Under `sort_below` ≤ 2^16 postings, no row passes a u16.
                stretch_ranks[n - 1] += 1;
            }
            // The keys' low halves are the positions.
            let sorted = keys.iter().map(|&key| key as u32);
            pack_sorted(&mut run, layout, bytes, p..p + 1, pbase, sorted);
            run.parts.push(PartitionRows {
                populated: n,
                lengths: true,
            });
            continue;
        }
        if rows.is_empty() {
            rows = vec![0u32; radix.width];
            lengths = vec![0u16; radix.width];
        }
        // Count per row...
        for &rank in stretch_ranks.iter() {
            rows[usize::from(rank)] += 1;
        }
        // ...exclusive prefix-sum in place (`rows[r]` = start of row `r`
        // in the partition), one bitmap word per 64 rows (a partition
        // narrower than a word fills its share of one)...
        let mut sum = 0;
        let mut n = 0;
        let mut wide = 0;
        for (j, chunk) in rows.chunks_mut(64).enumerate() {
            let mut word = 0u64;
            for (b, slot) in chunk.iter_mut().enumerate() {
                let count = *slot;
                let present = count > 0;
                word |= u64::from(present) << b;
                // oris-lint: allow(narrow-cast) — a count past u16 sets `wide`, and the lengths are then not used
                lengths[n] = count as u16;
                n += usize::from(present);
                wide |= count >> 16;
                *slot = sum;
                sum += count;
            }
            let bit = first_bit + 64 * j;
            run.mark(bit / 64, word << (bit % 64));
        }
        // ...and scatter, each row's start slot serving as its write
        // cursor — the forward walk keeps positions ascending in a row —
        // then pack the sorted partition.
        if order.len() < len {
            order.resize(len, 0);
        }
        let mut from = 0;
        for (at, n) in layout.stretches(p) {
            for (j, &rank) in stretch_ranks[from..from + n].iter().enumerate() {
                let slot = &mut rows[usize::from(rank)];
                order[*slot as usize] = extract_at(bytes, at + j * b, bits);
                *slot += 1;
            }
            from += n;
        }
        pack_sorted(
            &mut run,
            layout,
            bytes,
            p..p + 1,
            pbase,
            order[..len].iter().copied(),
        );
        rows.fill(0);
        // n ≤ len: every populated row holds a posting.
        if wide == 0 {
            stretch_ranks[..n].copy_from_slice(&lengths[..n]);
        }
        run.parts.push(PartitionRows {
            populated: n,
            lengths: wide == 0,
        });
    }
    run
}

/// Packs the sorted positions of partition `part.start` at its final bits
/// of the unpadded stream: in the run's `bytes` when they lie inside them
/// — each partition's final bits end at or before the next one's room,
/// so no position yet to be read is overwritten — else into the run's
/// deferred stream, copied in once every run is done. Only a run's first
/// one or two partitions are deferred — every partition of the first run
/// is written in place — since the rooms before a run outgrow its final
/// bits by a few kilobytes at most.
fn pack_sorted(
    run: &mut SortedRun,
    layout: &Layout<'_>,
    bytes: &mut [u8],
    part: Range<usize>,
    pbase: &[u32],
    sorted: impl Iterator<Item = u32>,
) {
    let b = layout.bits as usize;
    let (from, to) = (pbase[part.start] as usize * b, pbase[part.end] as usize * b);
    let first = 8 * layout.first;
    if from >= first {
        let span = from - first..to - first;
        Packer::over(bytes, span).push_all(bytes, sorted, layout.bits);
    } else {
        let deferred = &mut run.deferred_postings;
        debug_assert_eq!(from, deferred.end * b, "deferred partitions lead the run");
        let span = from - deferred.start * b..to - deferred.start * b;
        run.deferred.resize(8 * (span.end.div_ceil(64) + 1), 0);
        Packer::over(&run.deferred, span).push_all(&mut run.deferred, sorted, layout.bits);
        deferred.end = pbase[part.end] as usize;
    }
}

/// One run's share of the row bounds, once pass C has sorted it: per
/// partition, a running sum over the row lengths it left at the head of
/// its rank stretch — or, for a partition with a row past `u16`, a
/// recount of its ranks — gives the start of each row, from `first_row`
/// on. Its set bit goes in `words`, the high words from `first_word` on,
/// or in the word returned when it lies below them; its low `l` bits go
/// in the stream returned.
fn encode_run(
    radix: Radix,
    pbase: &[u32],
    parts: Range<usize>,
    run: &[PartitionRows],
    ranks: &[u16],
    l: u32,
    first_row: usize,
    first_word: usize,
    words: &mut [u64],
) -> (u64, Vec<u8>) {
    let rows: usize = run.iter().map(|p| p.populated).sum();
    let mut low = vec![0u8; low_bytes(rows, l)];
    let mut packer = Packer::over(&low, 0..rows * l as usize);
    let mut below = 0u64;
    let mut row = first_row;
    let mut put = |start: u32| {
        let bit = (start as usize >> l) + row;
        match (bit / 64).checked_sub(first_word) {
            Some(i) => words[i] |= 1 << (bit % 64),
            None => below |= 1 << (bit % 64),
        }
        if l > 0 {
            packer.push(&mut low, start & ((1 << l) - 1), l);
        }
        row += 1;
    };
    let mut counts = Vec::new();
    for (p, part) in parts.zip(run) {
        let stretch = &ranks[pbase[p] as usize..pbase[p + 1] as usize];
        let mut sum = pbase[p];
        if part.lengths {
            for &length in &stretch[..part.populated] {
                put(sum);
                sum += u32::from(length);
            }
        } else {
            counts.resize(radix.width, 0u32);
            for &rank in stretch {
                counts[usize::from(rank)] += 1;
            }
            for count in counts.iter_mut().filter(|c| **c > 0) {
                put(sum);
                sum += std::mem::take(count);
            }
        }
    }
    packer.finish(&mut low);
    (below, low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;
    use proptest::prelude::*;

    /// The hashed code→row lookup an earlier code-list layout carried,
    /// kept as an independent oracle of the row map's answers: an
    /// open-addressed table of `2^⌈log₂ 2k⌉` slots, Fibonacci-hashed,
    /// linear-probed, built in ascending code order.
    mod slot_oracle {
        /// An unoccupied slot.
        const EMPTY_SLOT: u32 = u32::MAX;

        /// Slots for `distinct` codes: at least half empty, zero for none.
        pub fn sparse_slot_count(distinct: usize) -> usize {
            if distinct == 0 {
                0
            } else {
                (2 * distinct).next_power_of_two()
            }
        }

        /// Fibonacci-hash home slot of `code` in a table of `slots ≥ 2`.
        pub fn fib_slot(code: u32, slots: usize) -> usize {
            (code.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
        }

        /// The table of an ascending list of distinct codes.
        pub fn build_slot_table(codes: &[u32]) -> Vec<u32> {
            let s = sparse_slot_count(codes.len());
            let mut slots = vec![EMPTY_SLOT; s];
            for (row, &code) in codes.iter().enumerate() {
                let mut i = fib_slot(code, s);
                while slots[i] != EMPTY_SLOT {
                    i = (i + 1) & (s - 1);
                }
                slots[i] = row as u32;
            }
            slots
        }

        /// The row of `code`, walking its probe chain to an empty slot.
        pub fn sparse_row_of(codes: &[u32], slots: &[u32], code: u32) -> Option<usize> {
            if slots.is_empty() {
                return None;
            }
            let mut i = fib_slot(code, slots.len());
            loop {
                let row = slots[i];
                if row == EMPTY_SLOT {
                    return None;
                }
                if codes[row as usize] == code {
                    return Some(row as usize);
                }
                i = (i + 1) & (slots.len() - 1);
            }
        }
    }
    use slot_oracle::{build_slot_table, fib_slot, sparse_row_of, sparse_slot_count};

    fn bank_of(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    /// `len` pseudo-random bases (a fixed xorshift stream).
    fn random_dna(len: usize) -> String {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 32) as usize % 4] as char
            })
            .collect()
    }

    /// Brute-force reference: all (pos, code) with optional stride.
    fn reference_occurrences(bank: &Bank, w: usize, stride: usize) -> Vec<(u32, u32)> {
        let coder = SeedCoder::new(w);
        let data = bank.data();
        let mut out = Vec::new();
        for pos in 0..data.len().saturating_sub(w - 1) {
            if pos % stride != 0 {
                continue;
            }
            if let Some(code) = coder.encode(&data[pos..pos + w]) {
                out.push((pos as u32, code));
            }
        }
        out
    }

    #[test]
    fn finds_all_occurrences_sorted() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let coder = idx.coder();
        let code = coder.string_to_code("ACGT").unwrap();
        // positions are global (bank data starts with a sentinel at 0)
        assert_eq!(idx.occurrences(code).to_vec(), [1, 5, 9]);
    }

    #[test]
    fn chains_do_not_cross_sequence_boundaries() {
        // "ACGT" at the end of s0 and start of s1 — the window spanning the
        // sentinel must not be indexed.
        let bank = bank_of(&["TTACGT", "ACGTTT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let code = idx.coder().string_to_code("ACGT").unwrap();
        let occ = idx.occurrences(code);
        assert_eq!(occ.len(), 2);
        // Every occurrence is fully inside one record.
        for p in occ {
            let rec = bank.locate(p as usize).unwrap();
            assert!(p as usize + 4 <= bank.record(rec).end());
        }
    }

    #[test]
    fn ambiguous_windows_excluded() {
        let bank = bank_of(&["ACGNACG"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let code = idx.coder().string_to_code("ACG").unwrap();
        assert_eq!(idx.occurrences(code).len(), 2);
        let cgn = idx.coder().string_to_code("CGN");
        assert!(cgn.is_none());
    }

    #[test]
    fn absent_seed_has_no_occurrences() {
        let bank = bank_of(&["AAAA"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let code = idx.coder().string_to_code("GGG").unwrap();
        assert!(idx.occurrences(code).is_empty());
    }

    #[test]
    fn asymmetric_stride_halves_positions() {
        let bank = bank_of(&[&"ACGT".repeat(100)]);
        let full = BankIndex::build(&bank, IndexConfig::full(8));
        let half = BankIndex::build(&bank, IndexConfig::asymmetric(8));
        assert!(half.indexed_positions() * 2 <= full.indexed_positions() + 2);
        assert!(half.indexed_positions() > 0);
    }

    #[test]
    fn masked_positions_excluded() {
        let bank = bank_of(&["ACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p < 3);
        let code = idx.coder().string_to_code("ACGT").unwrap();
        assert_eq!(idx.occurrences(code).to_vec(), [5]);
    }

    /// The row bounds' footprint for `k` rows over `n` postings: the
    /// `(n >> l) + k` high bits in whole words, at `l = ⌊log2(n/k)⌋` the
    /// low bits in whole words and a pad word, a four-byte sample per 64
    /// rows and a four-byte rank per 64 high words and one more.
    fn bounds_bytes(n: usize, k: usize) -> usize {
        let l = n.checked_div(k).map_or(0, |q| q.ilog2() as usize);
        let words = ((n >> l) + k).div_ceil(64);
        let low = if l == 0 {
            0
        } else {
            8 * ((k * l).div_ceil(64) + 1)
        };
        8 * words + low + 4 * k.div_ceil(64) + 4 * (words.div_ceil(64) + 1)
    }

    /// The footprint model: `b = ⌈log2 len(SEQ)⌉` bits per *indexed*
    /// position in whole words plus a pad word, the row bounds of the `k`
    /// populated codes, 1 bit per bank position for the occurrence set,
    /// and a word and its rank (12 bytes) per stored bitmap word and per
    /// top-level word — at `l = 0`, `b·N/8 + (N + k)/8 + k/16 + N/8 +
    /// 12·words + 12·⌈4^W/4096⌉` and a rank per 4 096 high bits. The
    /// width is taken from the bank's length and the stored words are
    /// counted from the populated codes, neither read off the index.
    fn model_bytes(bank: &Bank, idx: &BankIndex) -> usize {
        let mut words: Vec<u32> = idx.populated().map(|(c, _)| c / 64).collect();
        words.dedup();
        let bits = (usize::BITS - (bank.data().len().max(2) - 1).leading_zeros()) as usize;
        8 * ((bits * idx.indexed_positions()).div_ceil(64) + 1)
            + bounds_bytes(idx.indexed_positions(), idx.distinct_codes())
            + bank.data().len().div_ceil(64) * 8
            + 12 * words.len()
            + 12 * top_words(idx.coder().num_seeds())
    }

    #[test]
    fn stats_match_footprint_model_full() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]); // 16 kb
        let idx = BankIndex::build(&bank, IndexConfig::full(8));
        let stats = idx.stats();
        let n = bank.data().len();
        assert_eq!(stats.index_bytes, model_bytes(&bank, &idx));
        assert_eq!(stats.total_bytes, stats.index_bytes + n);
        assert!(stats.indexed_positions > 0);
        assert!(stats.distinct_seeds > 0);
        assert!(stats.max_chain_len >= 1);
        // Fully indexed: postings = one entry per valid window, the
        // paper's ≈5·N regime (4 bytes of postings + 1 byte of SEQ per
        // position).
        assert_eq!(stats.indexed_positions, bank.num_residues() - 7);
    }

    #[test]
    fn stats_match_footprint_model_masked() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let n = bank.data().len();
        let cfg = IndexConfig::full(8);
        // Mask the first half of the bank: the postings array must shrink
        // by (roughly) the masked windows.
        let idx = BankIndex::build_filtered(&bank, cfg, |p| p < n / 2);
        let stats = idx.stats();
        assert_eq!(stats.index_bytes, model_bytes(&bank, &idx));
        let full = BankIndex::build(&bank, cfg).stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 16);
        assert!(stats.index_bytes < full.index_bytes);
    }

    #[test]
    fn stats_match_footprint_model_asymmetric() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let idx = BankIndex::build(&bank, IndexConfig::asymmetric(8));
        let stats = idx.stats();
        assert_eq!(stats.index_bytes, model_bytes(&bank, &idx));
        // Half the windows → half the postings bytes, and the rows and
        // words of the codes only odd positions held (the top level and
        // the bit-set don't depend on the stride).
        let full_idx = BankIndex::build(&bank, IndexConfig::full(8));
        let full = full_idx.stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 2);
        assert_eq!(
            full.index_bytes - stats.index_bytes,
            model_bytes(&bank, &full_idx) - model_bytes(&bank, &idx)
        );
    }

    #[test]
    fn sparse_stats_match_sparse_footprint_model() {
        // A bank populating a sliver of the code space (W = 11) follows
        // the same model; its code-space term is the top level alone, and
        // it stores no more bitmap words than it has codes.
        let bank = bank_of(&[&random_dna(16_000)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(11));
        let stats = idx.stats();
        assert_eq!(stats.index_bytes, model_bytes(&bank, &idx));
        assert_eq!(stats.distinct_seeds, idx.distinct_codes());
        let (top, words, _) = idx.rows().sections();
        assert_eq!(top.len(), (1 << 22) / 4096);
        assert!(words.len() <= idx.distinct_codes());
    }

    #[test]
    fn sparse_footprint_wins_big_at_w11() {
        // At W = 11 a 150-nt read's index is its postings, rows and words
        // and the 12 KB top level: under 16 KB, where the one-level
        // bitmap and its ranks alone took 768 KB.
        let read = bank_of(&[&random_dna(150)]);
        let idx = BankIndex::build(&read, IndexConfig::full(11));
        assert_eq!(idx.indexed_positions(), 140);
        let bytes = idx.stats().index_bytes;
        assert_eq!(bytes, model_bytes(&read, &idx));
        assert!(bytes <= 16 * 1024, "{bytes} bytes for a 150-nt read");
        // The model holds on full, masked and asymmetric banks, and a
        // 10 kb bank stays under a tenth of the one-level bitmap's bytes.
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]); // 10 kb
        let builds = [
            BankIndex::build(&bank, IndexConfig::full(11)),
            BankIndex::build_filtered(&bank, IndexConfig::full(11), |p| p % 3 == 0),
            BankIndex::build(&bank, IndexConfig::asymmetric(11)),
        ];
        for idx in &builds {
            let bytes = idx.stats().index_bytes;
            assert_eq!(bytes, model_bytes(&bank, idx));
            assert!(bytes * 10 <= 3 * (1 << 22) / 16, "{bytes} bytes");
        }
    }

    /// The partitions' postings of the oracle's index of `bank`.
    fn partition_postings(oracle: &oracle::Built, radix: Radix) -> Vec<usize> {
        let mut per_part = vec![0; radix.parts];
        for &c in oracle.codes() {
            per_part[radix.part_of(c)] += oracle.occurrences(c).len();
        }
        per_part
    }

    #[test]
    fn auto_picks_sparse_for_small_bank_large_w() {
        // At W = 11 a partition spans 4^8 codes, and one of fewer than
        // 4 096 postings is sorted by comparison: every partition of a
        // 10 kb bank is, and the build is the oracle's index.
        let radix = Radix::new(11);
        assert_eq!(radix.sort_below, 4096);
        let bank = bank_of(&[&random_dna(10_000)]);
        let cfg = IndexConfig::full(11);
        let oracle = oracle::build(&bank, cfg, |_| false);
        assert!(partition_postings(&oracle, radix)
            .iter()
            .all(|&n| n < radix.sort_below));
        assert!(oracle.matches(&BankIndex::build(&bank, cfg)));
    }

    #[test]
    fn auto_picks_dense_for_dense_code_space() {
        // 16 kb of bank at W = 4 (256 codes in partitions of 4): no
        // partition is sparse enough to sort, so all are counted.
        let radix = Radix::new(4);
        assert_eq!(radix.sort_below, 0);
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let cfg = IndexConfig::full(4);
        assert!(oracle::build(&bank, cfg, |_| false).matches(&BankIndex::build(&bank, cfg)));
        // The rule's edge at W = 8 (partitions of 4^5 codes, sorted below
        // 64 postings): partitions 0 and 5 of 63 or 64 postings beside a
        // counted one of 300, built by every pool over slices of a few
        // words, and persisted to the heap and mapped: the oracle's index.
        let radix = Radix::new(8);
        assert_eq!(radix.sort_below, 64);
        let coder = SeedCoder::new(8);
        for postings in [63u32, 64] {
            let mut codes: Vec<u32> = (0..postings).map(|i| i * 7 % 1024).collect();
            codes.extend((0..postings).map(|i| 5 * 1024 + i * 13 % 1024));
            codes.extend((0..300).map(|i| 40 * 1024 + i % 97));
            let bank = bank_of_codes(coder, &codes);
            let cfg = IndexConfig::full(8);
            let oracle = oracle::build(&bank, cfg, |_| false);
            let per_part = partition_postings(&oracle, radix);
            assert_eq!(per_part[0], postings as usize);
            assert_eq!(per_part[5], postings as usize);
            assert_eq!(per_part[40], 300);
            for threads in [1, 2, 4, 7] {
                let built = in_pool(threads, || {
                    BankIndex::build_sliced(&bank, cfg, |_| false, 256, radix)
                });
                assert!(
                    oracle.matches(&built),
                    "{postings} postings, threads {threads}"
                );
                for loaded in round_trips(&built) {
                    assert!(oracle.matches(&loaded), "{postings} postings, loaded");
                }
            }
        }
    }

    #[test]
    fn empty_bank_builds() {
        for bank in [Bank::empty(), bank_of(&["NNNNNNNNNNNNNNNNNNNN"])] {
            for w in [4, 11, 13] {
                let idx = BankIndex::build(&bank, IndexConfig::full(w));
                assert_eq!(idx.indexed_positions(), 0);
                assert_eq!(idx.stats().distinct_seeds, 0);
                assert_eq!(idx.populated().count(), 0);
                let (top, words, _) = idx.rows().sections();
                assert!(top.iter().all(|&t| t == 0) && words.is_empty());
                // No window was policy-excluded (vacuously): the fast path
                // is safe.
                assert!(idx.is_fully_indexed());
            }
        }
    }

    #[test]
    fn provenance_full_build_is_fully_indexed() {
        // Ambiguous bases and record boundaries exclude windows for
        // *validity* only — they must not disqualify the fast path.
        let bank = bank_of(&["ACGTNACGT", "TTGGCC"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        assert!(idx.is_fully_indexed());
    }

    #[test]
    fn provenance_mask_that_never_fires_is_fully_indexed() {
        // Provenance tracks what *happened*, not what was requested: a
        // predicate that rejects nothing leaves the index complete.
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |_| false);
        assert!(idx.is_fully_indexed());
    }

    #[test]
    fn provenance_masked_build_is_not_fully_indexed() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p == 1);
        assert!(!idx.is_fully_indexed());
    }

    #[test]
    fn provenance_strided_build_is_not_fully_indexed() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::asymmetric(4));
        assert!(!idx.is_fully_indexed());
    }

    #[test]
    fn indexed_words_agree_with_is_indexed() {
        let bank = bank_of(&["ACGTNACGTTTGG", "CCAA"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p % 5 == 0);
        let words = idx.indexed_words();
        for p in 0..bank.data().len() {
            let bit = words[p / 64] & (1u64 << (p % 64)) != 0;
            assert_eq!(bit, idx.is_indexed(p), "position {p}");
        }
    }

    #[test]
    fn offsets_are_monotonic_and_cover_positions() {
        // The row bounds: one start per populated code, from 0, strictly
        // increasing, the rows tiling the postings. The row map: a top
        // level of ⌈4^W/4096⌉ words marking each stored word, no stored
        // word zero, one bit per populated code.
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        for w in [2, 4, 7] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let (top, words, bounds) = idx.rows().sections();
            assert_eq!(bounds.len(), idx.distinct_codes());
            let mut end = 0;
            for r in 0..bounds.len() {
                let row = bounds.view().row(r);
                assert_eq!(row.start, end, "row {r}");
                assert!(row.end > row.start, "row {r} is empty");
                end = row.end;
            }
            assert_eq!(end, idx.indexed_positions());
            assert_eq!(top.len(), idx.coder().num_seeds().div_ceil(4096));
            let marked: u32 = top.iter().map(|t| t.count_ones()).sum();
            assert_eq!(marked as usize, words.len());
            assert!(!words.contains(&0));
            let set: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set as usize, idx.distinct_codes());
        }
    }

    #[test]
    fn sparse_has_no_dense_offsets() {
        // A read-sized index at W = 11 stores one bitmap word per 64-code
        // stretch it populates and nothing sized by the 4^11 codes but its
        // 1 024-word top level — and it still walks against a dense index:
        // the AND of the two top levels finds the words both store.
        let read = bank_of(&[&random_dna(150)]);
        let idx = BankIndex::build(&read, IndexConfig::full(11));
        let (top, words, _) = idx.rows().sections();
        let mut stretches: Vec<u32> = idx.populated().map(|(c, _)| c / 64).collect();
        stretches.dedup();
        assert_eq!(words.len(), stretches.len());
        assert_eq!(top.len(), 1024);
        let dense = BankIndex::build(&bank_of(&[&random_dna(300_000)]), IndexConfig::full(11));
        assert!(
            dense.rows().sections().1.len() > 60_000,
            "dense stores most words"
        );
        for (a, b) in [(&idx, &dense), (&dense, &idx)] {
            let mut got = Vec::new();
            let Ok(()) = a.for_each_shared(b, 0..1 << 22, |c, x1, x2| {
                got.push((c, x1, x2));
                Ok::<(), std::convert::Infallible>(())
            });
            let want: Vec<(u32, Row<'_>, Row<'_>)> = idx
                .populated()
                .map(|(c, _)| (c, a.occurrences(c), b.occurrences(c)))
                .filter(|(_, x1, x2)| !x1.is_empty() && !x2.is_empty())
                .collect();
            assert!(!want.is_empty());
            assert!(got == want);
        }
    }

    #[test]
    fn shared_walk_respects_range_bounds() {
        // An index walked with itself visits its populated codes: split
        // at any code, the two halves partition the whole walk, and each
        // row is `occurrences`' answer.
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let num = idx.coder().num_seeds() as u32;
        let walk = |range: Range<u32>| {
            let mut codes = Vec::new();
            let Ok(()) = idx.for_each_shared(&idx, range, |c, x1, x2| {
                assert_eq!(x1, idx.occurrences(c));
                assert_eq!(x1, x2);
                codes.push(c);
                Ok::<(), std::convert::Infallible>(())
            });
            codes
        };
        let all: Vec<u32> = idx.populated().map(|(c, _)| c).collect();
        assert!(all.windows(2).all(|p| p[0] < p[1]), "ascending codes");
        assert_eq!(all.len(), idx.distinct_codes());
        assert_eq!(walk(0..num), all);
        for mid in [0, 1, num / 3, 64, 65, num - 1, num] {
            let mut glued = walk(0..mid);
            glued.extend(walk(mid..num));
            assert_eq!(glued, all, "split at {mid}");
        }
        for (code, row) in idx.populated() {
            assert_eq!(row, idx.occurrences(code));
            assert!(!row.is_empty());
        }
    }

    /// Distinct codes of the `w`-base code space, one per pick, where
    /// every odd pick becomes a free code with the same home slot as the
    /// code before it — in the oracle table that many codes get — so the
    /// table holds displaced codes and its lookups meet collisions.
    fn codes_with_collisions(w: usize, picks: &[u32]) -> Vec<u32> {
        let num = 1u32 << (2 * w);
        let slots = sparse_slot_count(picks.len());
        let mut set = std::collections::BTreeSet::new();
        let mut prev = 0;
        for (i, &pick) in picks.iter().enumerate() {
            let free: Vec<u32> = (0..num)
                .map(|d| (pick % num + d) % num)
                .filter(|c| !set.contains(c))
                .collect();
            let code = free
                .iter()
                .copied()
                .find(|&c| i % 2 == 1 && fib_slot(c, slots) == fib_slot(prev, slots))
                .unwrap_or(free[0]);
            set.insert(code);
            prev = code;
        }
        set.into_iter().collect()
    }

    /// A bank whose windows are exactly `codes`: one `W`-base record each.
    fn bank_of_codes(coder: SeedCoder, codes: &[u32]) -> Bank {
        let records: Vec<String> = codes.iter().map(|&c| coder.code_to_string(c)).collect();
        let refs: Vec<&str> = records.iter().map(String::as_str).collect();
        bank_of(&refs)
    }

    /// `idx` written to an index file and decoded back, into heap arrays
    /// and mapped from a file.
    fn round_trips(idx: &BankIndex) -> [BankIndex; 2] {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let mut bytes = Vec::new();
        crate::persist::write_index(&mut bytes, idx, &crate::IndexMeta::default()).unwrap();
        let heap = crate::persist::decode(&bytes, None).unwrap().0;
        let path = std::env::temp_dir().join(format!(
            "oris_row_map_{}_{}.oidx",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = crate::mmap::map_index_file(&path).unwrap().0;
        std::fs::remove_file(&path).ok();
        [heap, mapped]
    }

    #[test]
    fn collision_codes_share_home_slots() {
        // The construction the lookup proptest relies on: the oracle's
        // table over these codes holds codes off their home slot, so an
        // oracle lookup meets a key that is not its code.
        let picks: Vec<u32> = (0..20u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let codes = codes_with_collisions(5, &picks);
        assert_eq!(codes.len(), picks.len());
        let coder = SeedCoder::new(5);
        let idx = BankIndex::build(&bank_of_codes(coder, &codes), IndexConfig::full(5));
        let keys: Vec<u32> = idx.populated().map(|(c, _)| c).collect();
        assert_eq!(keys, codes);
        let slots = build_slot_table(&keys);
        let displaced = codes
            .iter()
            .filter(|&&c| keys[slots[fib_slot(c, slots.len())] as usize] != c)
            .count();
        assert!(displaced >= 5, "{displaced} displaced codes");
    }

    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// The build this module had before the pair-free one and the
    /// bitmap, kept as the reference of the differential tests: one
    /// rolling scan collects `(position, code)` pairs, one counting sort
    /// across the entire `4^W` code space lays out `offsets[4^W + 1]`.
    /// Past W = 11 that array would take 67–268 MB, so there a stable sort
    /// of the pairs by code lays out the same rows.
    mod oracle {
        use super::*;

        pub struct Built {
            /// Populated codes, ascending, and their rows' boundaries.
            codes: Vec<u32>,
            row_offsets: Vec<u32>,
            positions: Vec<u32>,
            indexed: MaskSet,
            fully_indexed: bool,
        }

        impl Built {
            /// The oracle's answer to `occurrences(code)`.
            pub fn occurrences(&self, code: u32) -> &[u32] {
                self.codes.binary_search(&code).map_or(&[], |r| {
                    &self.positions[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize]
                })
            }

            /// The populated codes.
            pub fn codes(&self) -> &[u32] {
                &self.codes
            }

            /// The populated rows, in code order.
            fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
                self.codes
                    .iter()
                    .zip(self.row_offsets.windows(2))
                    .map(|(&c, b)| (c, &self.positions[b[0] as usize..b[1] as usize]))
            }

            /// Whether `idx` is this index: postings — the positions, and
            /// the stream [`pack`] makes of them at the bank's bit width —
            /// row bounds encoded as [`RowBounds::from_starts`] encodes the
            /// oracle's row starts a bit at a time, the two levels of its
            /// codes, bit-set,
            /// provenance,
            /// the populated walk, the answer for every code (past W = 8,
            /// for every populated code, the code after it and both ends of
            /// the code space), and the stats that derive from them.
            pub fn matches(&self, idx: &BankIndex) -> bool {
                let stats = idx.stats();
                let rows = self.row_offsets.windows(2).map(|p| (p[1] - p[0]) as usize);
                let num = idx.coder().num_seeds() as u32;
                let answers = if num <= 1 << 16 {
                    (0..num).all(|c| idx.occurrences(c) == self.occurrences(c))
                } else {
                    self.rows().all(|(c, row)| idx.occurrences(c) == row)
                        && self
                            .codes
                            .iter()
                            .map(|&c| c + 1)
                            .chain([0, num - 1])
                            .filter(|&c| c < num)
                            .all(|c| idx.occurrences(c) == self.occurrences(c))
                };
                // The one encoding of these rows' starts, and the two
                // levels of these codes: a word per 64-code stretch they
                // populate, a top bit per word.
                let bounds = RowBounds::from_starts(
                    &self.row_offsets[..self.codes.len()],
                    self.positions.len(),
                );
                let mut words: Vec<(usize, u64)> = Vec::new();
                for &c in &self.codes {
                    let (at, bit) = ((c / 64) as usize, 1u64 << (c % 64));
                    match words.last_mut() {
                        Some((last, word)) if *last == at => *word |= bit,
                        _ => words.push((at, bit)),
                    }
                }
                let mut top = vec![0u64; idx.coder().num_seeds().div_ceil(4096)];
                for &(at, _) in &words {
                    top[at / 64] |= 1 << (at % 64);
                }
                let words: Vec<u64> = words.into_iter().map(|(_, word)| word).collect();
                let (idx_top, idx_words, idx_bounds) = idx.rows().sections();
                let bits = bit_width(self.indexed.len());
                idx.postings() == self.positions[..]
                    && idx.posting_bits() == bits
                    && idx.packed().bytes() == pack(&self.positions, bits)
                    && idx_top == top
                    && idx_words == words
                    && idx_bounds.sections() == bounds.sections()
                    && idx.indexed_words() == self.indexed.words()
                    && idx.is_fully_indexed() == self.fully_indexed
                    && idx
                        .populated()
                        .map(|(c, row)| (c, row.to_vec()))
                        .eq(self.rows().map(|(c, row)| (c, row.to_vec())))
                    && answers
                    && stats.indexed_positions == self.positions.len()
                    && stats.distinct_seeds == self.codes.len()
                    && stats.distinct_seeds == idx.distinct_codes()
                    && stats.max_chain_len == rows.max().unwrap_or(0)
            }
        }

        /// `positions` packed at `bits` bits a bit at a time into
        /// little-endian words, with the pad word: the stream an index of
        /// these postings must hold.
        pub fn pack(positions: &[u32], bits: u32) -> Vec<u8> {
            let bits = bits as usize;
            let mut words = vec![0u64; (positions.len() * bits).div_ceil(64) + 1];
            for (i, &p) in positions.iter().enumerate() {
                for j in (0..bits).filter(|&j| p >> j & 1 == 1) {
                    let bit = i * bits + j;
                    words[bit / 64] |= 1 << (bit % 64);
                }
            }
            words.iter().flat_map(|w| w.to_le_bytes()).collect()
        }

        pub fn build(bank: &Bank, cfg: IndexConfig, masked: impl Fn(usize) -> bool) -> Built {
            let coder = SeedCoder::new(cfg.w);
            let data = bank.data();
            let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(data.len());
            let mut indexed = MaskSet::new(data.len());
            let mut policy_excluded = 0usize;
            for (pos, code) in RollingCoder::new(coder, data) {
                if pos % cfg.stride != 0 || masked(pos) {
                    policy_excluded += 1;
                    continue;
                }
                pairs.push((pos as u32, code));
                indexed.set(pos);
            }
            let (codes, row_offsets, positions) = if cfg.w <= 11 {
                let (offsets, positions) = full_sweep_rows(coder.num_seeds(), &pairs);
                let codes: Vec<u32> = (0..coder.num_seeds() as u32)
                    .filter(|&c| offsets[c as usize] < offsets[c as usize + 1])
                    .collect();
                let mut row_offsets: Vec<u32> =
                    codes.iter().map(|&c| offsets[c as usize]).collect();
                row_offsets.push(positions.len() as u32);
                (codes, row_offsets, positions)
            } else {
                let mut pairs = pairs;
                pairs.sort_by_key(|&(_, code)| code);
                let (mut codes, mut row_offsets) = (Vec::new(), Vec::new());
                for (i, &(_, code)) in pairs.iter().enumerate() {
                    if codes.last() != Some(&code) {
                        codes.push(code);
                        row_offsets.push(i as u32);
                    }
                }
                row_offsets.push(pairs.len() as u32);
                (codes, row_offsets, pairs.iter().map(|&(p, _)| p).collect())
            };
            Built {
                codes,
                row_offsets,
                positions,
                indexed,
                fully_indexed: cfg.stride == 1 && policy_excluded == 0,
            }
        }

        /// One counting sort across the whole code space.
        fn full_sweep_rows(num_seeds: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
            // Count per code (stored at `offsets[code]` for now)...
            let mut offsets = vec![0u32; num_seeds + 1];
            for &(_, code) in pairs {
                offsets[code as usize] += 1;
            }
            // ...exclusive prefix-sum in place (`offsets[c]` = start of row
            // `c`; single accumulator, no second array)...
            let mut sum = 0u32;
            for slot in offsets.iter_mut() {
                let count = *slot;
                *slot = sum;
                sum += count;
            }
            // ...and scatter, using each row's start slot as its write cursor.
            // The forward walk preserves the ascending position order inside
            // every row.
            let mut positions = vec![0u32; pairs.len()];
            for &(pos, code) in pairs {
                let slot = &mut offsets[code as usize];
                positions[*slot as usize] = pos;
                *slot += 1;
            }
            // After the scatter `offsets[c]` holds the END of row `c`, which
            // is the start of row `c + 1`: shift right one slot to restore the
            // CSR convention.
            offsets.copy_within(0..num_seeds, 1);
            offsets[0] = 0;
            (offsets, positions)
        }
    }

    /// A bank with skewed, low-complexity and ambiguous stretches, long
    /// enough (a few `PAR_GRAIN`s) that the public build goes parallel.
    fn large_mixed_bank() -> Bank {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = BankBuilder::new();
        for (i, len) in [3 * PAR_GRAIN + 1234, 17, PAR_GRAIN / 2]
            .into_iter()
            .enumerate()
        {
            let mut codes: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            // A poly-A island, an AT microsatellite and an N run.
            for (at, run, pattern) in [
                (len / 5, 5000, &[0u8][..]),
                (len / 2, 3000, &[0, 2]),
                (len / 3, 70, &[oris_seqio::AMBIG]),
            ] {
                for (j, c) in codes.iter_mut().skip(at).take(run.min(len / 8)).enumerate() {
                    *c = pattern[j % pattern.len()];
                }
            }
            b.push_codes(&format!("s{i}"), &codes);
        }
        b.finish()
    }

    /// Builds at the widths the pipeline runs at — W = 11, and 10 for the
    /// asymmetric stride — where pass B scatters into 64 partitions and a
    /// rank holds eight bases; the proptest below draws `w < 8`.
    #[test]
    fn parallel_build_equals_full_sweep_oracle_for_any_pool() {
        let bank = large_mixed_bank();
        assert!(bank.data().len() >= 3 * PAR_GRAIN);
        let masked = |p: usize| (p / 700).is_multiple_of(9);
        let cfgs = [9, 10, 11]
            .into_iter()
            .flat_map(|w| [IndexConfig::full(w), IndexConfig::asymmetric(w)])
            .chain([IndexConfig::asymmetric(8)]);
        for cfg in cfgs {
            let oracle = oracle::build(&bank, cfg, masked);
            for threads in [1usize, 2, 4, 7] {
                let built = in_pool(threads, || BankIndex::build_filtered(&bank, cfg, masked));
                assert!(oracle.matches(&built), "{cfg:?}, threads {threads}");
            }
        }
    }

    /// Banks of exactly `2^b` and `2^b + 1` positions: the posting width
    /// steps from `b` to `b + 1` at the boundary, and each bank's index is
    /// the oracle's — its rows, and their stream packed a bit at a time at
    /// that width — built by pools of 1, 2, 4 and 7 workers over slices of
    /// a few words, full and asymmetric, then written, decoded to the heap
    /// and mapped back to the same stream.
    #[test]
    fn posting_width_steps_up_past_a_power_of_two() {
        for b in [5u32, 11, 16] {
            for len in [1usize << b, (1 << b) + 1] {
                let bank = bank_of(&[&random_dna(len - 2)]);
                assert_eq!(bank.data().len(), len);
                let want = if len == 1 << b { b } else { b + 1 };
                for cfg in [IndexConfig::full(4), IndexConfig::asymmetric(11)] {
                    let oracle = oracle::build(&bank, cfg, |_| false);
                    for threads in [1, 2, 4, 7] {
                        let built = in_pool(threads, || {
                            BankIndex::build_sliced(&bank, cfg, |_| false, 64, Radix::new(cfg.w))
                        });
                        assert_eq!(built.posting_bits(), want, "{len} positions");
                        assert!(oracle.matches(&built), "{len} positions, threads {threads}");
                        for loaded in round_trips(&built) {
                            assert_eq!(loaded.posting_bits(), want);
                            assert_eq!(loaded.packed().bytes(), built.packed().bytes());
                            assert!(oracle.matches(&loaded), "{len} positions, loaded");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_past_u16_postings_take_the_recount() {
        // Pass C hands row lengths to the row boundaries as u16s; a
        // partition holding a row of 2^16 postings or more — here poly-A,
        // beside rows of one posting — is recounted instead, and every
        // pool builds the oracle's index either way.
        let bank = bank_of(&[&"A".repeat(70_000), &random_dna(3_000)]);
        for w in [3, 8, 11] {
            let cfg = IndexConfig::full(w);
            let oracle = oracle::build(&bank, cfg, |_| false);
            assert!(oracle.occurrences(0).len() > 1 << 16);
            for threads in [1, 2] {
                let built = in_pool(threads, || {
                    BankIndex::build_sliced(&bank, cfg, |_| false, 4096, Radix::new(w))
                });
                assert!(oracle.matches(&built), "W {w}, threads {threads}");
            }
        }
    }

    #[test]
    fn partition_count_is_the_fewest_a_u16_rank_allows_and_at_least_64() {
        for w in 1..=MAX_SEED_LEN {
            let radix = Radix::new(w);
            assert_eq!(radix.parts * radix.width, 1 << (2 * w), "w {w}");
            assert!(radix.width <= 1 << 16, "w {w}: rank overflows a u16");
            let expected = match w {
                1 | 2 => 1 << (2 * w),
                3..=11 => 64,
                12 => 256,
                _ => 1024,
            };
            assert_eq!(radix.parts, expected, "w {w}");
            assert_eq!(radix.sort_below, radix.width / SORT_FILL, "w {w}");
        }
    }

    #[test]
    fn small_bank_builds_on_the_calling_thread() {
        // Below two grains there is one slice, so the shim's parallel
        // iterators run inline: a thread-local set by the caller is
        // visible to the mask predicate every time it is called.
        thread_local!(static ON_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(2000)]); // 40 kb
        assert!(bank.data().len() < 2 * PAR_GRAIN);
        ON_CALLER.with(|c| c.set(true));
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let masked = |p: usize| {
            assert!(
                ON_CALLER.with(|c| c.get()),
                "mask predicate ran on a spawned thread"
            );
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            p.is_multiple_of(11)
        };
        for w in [6, 11] {
            let cfg = IndexConfig::full(w);
            let built = in_pool(7, || BankIndex::build_filtered(&bank, cfg, masked));
            assert!(oracle::build(&bank, cfg, masked).matches(&built));
        }
        assert!(calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    /// `radix` with its sort rule moved: `sort` 0 keeps the rule, 1 counts
    /// every partition, 2 sorts by comparison every partition a `u16`
    /// row length allows (under 2^16 postings).
    fn with_sort(radix: Radix, sort: usize) -> Radix {
        let sort_below = match sort {
            0 => radix.sort_below,
            1 => 0,
            _ => 1 << 16,
        };
        Radix {
            sort_below,
            ..radix
        }
    }

    proptest! {
        /// The CSR index reproduces the brute-force occurrence list for
        /// every seed, in sorted order, for random banks and strides.
        #[test]
        fn index_equals_bruteforce(
            seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..4),
            w in 2usize..6,
            stride in 1usize..3,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let idx = BankIndex::build(&bank, cfg);
            let mut expected = reference_occurrences(&bank, w, stride);
            expected.sort_by_key(|&(_, code)| code);

            let mut got: Vec<(u32, u32)> = Vec::new();
            for code in 0..idx.coder().num_seeds() as u32 {
                let occ = idx.occurrences(code).to_vec();
                // rows are sorted ascending
                prop_assert!(occ.windows(2).all(|p| p[0] < p[1]));
                got.extend(occ.iter().map(|&p| (p, code)));
            }
            let mut expected_sorted = expected.clone();
            expected_sorted.sort();
            got.sort();
            prop_assert_eq!(got, expected_sorted);
        }

        /// Pass C's two sorts are interchangeable: sorting every
        /// partition by comparison and counting every one build the same
        /// sections — row map, row bounds, packed postings, bit-set and
        /// provenance — for random banks, widths up to the pipeline's,
        /// strides and masks.
        #[test]
        fn comparison_sort_equals_counting_sort(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..4),
            w in 2usize..=11,
            stride in 1usize..3,
            mask_mod in 1usize..9,
            grain in 64usize..400,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let build = |sort| {
                BankIndex::build_sliced(&bank, cfg, masked, grain, with_sort(Radix::new(w), sort))
            };
            let (counted, compared) = (build(1), build(2));
            let (ct, cw, cb) = counted.rows().sections();
            let (st, sw, sb) = compared.rows().sections();
            prop_assert_eq!(ct, st);
            prop_assert_eq!(cw, sw);
            prop_assert_eq!(cb.sections(), sb.sections());
            prop_assert_eq!(counted.packed().bytes(), compared.packed().bytes());
            prop_assert_eq!(counted.indexed_words(), compared.indexed_words());
            prop_assert_eq!(counted.is_fully_indexed(), compared.is_fully_indexed());
            prop_assert_eq!(counted.stats(), compared.stats());
        }

        /// The sliced build equals the full-sweep oracle — rows and every
        /// code's answer, postings, bit-set, provenance, stats — for
        /// random banks, widths, strides and masks, cut into slices of a
        /// few words under pools of 1, 2, 4 and 7 workers.
        #[test]
        fn build_equals_full_sweep_oracle(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..5),
            w in 2usize..8,
            stride in 1usize..3,
            mask_mod in 1usize..9,
            grain in 1usize..200,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let oracle = oracle::build(&bank, cfg, masked);
            for threads in [1usize, 2, 4, 7] {
                let built = in_pool(threads, || {
                    BankIndex::build_sliced(&bank, cfg, masked, grain, Radix::new(w))
                });
                prop_assert!(oracle.matches(&built), "threads {}", threads);
            }
        }

        /// indexed_positions equals the number of valid windows.
        #[test]
        fn position_count_matches(seq in "[ACGT]{0,200}", w in 2usize..6) {
            let bank = bank_of(&[seq.as_str()]);
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let expected = seq.len().saturating_sub(w - 1);
            prop_assert_eq!(idx.indexed_positions(), expected);
        }

        /// `occurrences` answers every code exactly as a binary search of
        /// the populated codes and as the old slot table's lookup do:
        /// freshly built, decoded to the heap and mapped from a file;
        /// present codes, absent ones, codes whose home slot another code
        /// owns, codes past the last populated one, and an index of zero
        /// codes.
        #[test]
        fn lookup_equals_binary_search_and_slot_oracle(
            w in 4usize..7,
            picks in proptest::collection::vec(0u32..u32::MAX, 0..48),
            queries in proptest::collection::vec(0u32..u32::MAX, 0..80),
        ) {
            let coder = SeedCoder::new(w);
            let num = coder.num_seeds() as u32;
            let codes = codes_with_collisions(w, &picks);
            let bank = bank_of_codes(coder, &codes);
            // Even draws ask a present code, odd draws any code, then the
            // last code of the space.
            let mut asked: Vec<u32> = queries
                .iter()
                .map(|&q| match codes.len() {
                    n if n > 0 && q % 2 == 0 => codes[(q / 2) as usize % n],
                    _ => q / 2 % num,
                })
                .collect();
            asked.push(num - 1);
            let slots = build_slot_table(&codes);
            let built = BankIndex::build(&bank, IndexConfig::full(w));
            prop_assert_eq!(built.distinct_codes(), codes.len());
            let [heap, mapped] = round_trips(&built);
            prop_assert!(codes.is_empty() || mapped.is_mmap_backed());
            for idx in [&built, &heap, &mapped] {
                // Row r of the populated walk belongs to codes[r].
                let rows: Vec<Vec<u32>> = idx.populated().map(|(_, row)| row.to_vec()).collect();
                for &code in &asked {
                    let row = codes.binary_search(&code).ok();
                    prop_assert_eq!(sparse_row_of(&codes, &slots, code), row);
                    let want = row.map_or(&[][..], |r| &rows[r][..]);
                    prop_assert!(idx.occurrences(code) == want, "code {}", code);
                }
            }
        }

        /// The slot table round-trips every inserted code and rejects
        /// absent ones, across random distinct code sets (collision
        /// probing included).
        #[test]
        fn slot_table_lookup_is_exact(
            raw in proptest::collection::vec(0u32..4096, 0..64),
        ) {
            let mut raw = raw;
            raw.sort_unstable();
            raw.dedup();
            let slots = build_slot_table(&raw);
            prop_assert_eq!(slots.len(), sparse_slot_count(raw.len()));
            for (row, &code) in raw.iter().enumerate() {
                prop_assert_eq!(sparse_row_of(&raw, &slots, code), Some(row));
            }
            for probe in 0..4096u32 {
                if raw.binary_search(&probe).is_err() {
                    prop_assert_eq!(sparse_row_of(&raw, &slots, probe), None);
                }
            }
        }
    }

    /// The codes a lookup test asks beyond the populated ones: both ends
    /// of the code space and both sides of a top-word boundary, where the
    /// space has them.
    fn edge_codes(num: u32) -> impl Iterator<Item = u32> {
        [0, 63, 64, 4095, 4096, num - 1]
            .into_iter()
            .filter(move |&c| c < num)
    }

    /// Holds `idx` to `oracle` on the reads step 2 makes: every answer of
    /// [`oracle::Built::matches`], the shared walk of `idx` with itself
    /// over each of `ranges`, and `occurrences` of `probes` and the edge
    /// codes.
    fn assert_rows_answer_as(
        oracle: &oracle::Built,
        idx: &BankIndex,
        ranges: &[Range<u32>],
        probes: &[u32],
    ) {
        let label = format!("mapped {}", idx.is_mmap_backed());
        assert!(oracle.matches(idx), "{label}");
        let num = idx.coder().num_seeds() as u32;
        for range in ranges {
            let mut got: Vec<(u32, Vec<u32>)> = Vec::new();
            let Ok(()) = idx.for_each_shared(idx, range.clone(), |c, x1, x2| {
                assert_eq!(x1, x2);
                got.push((c, x1.to_vec()));
                Ok::<(), std::convert::Infallible>(())
            });
            let want: Vec<(u32, Vec<u32>)> = oracle
                .codes()
                .iter()
                .filter(|c| range.contains(c))
                .map(|&c| (c, oracle.occurrences(c).to_vec()))
                .collect();
            assert_eq!(got, want, "{label}, range {range:?}");
        }
        for code in probes.iter().map(|&p| p % num).chain(edge_codes(num)) {
            assert_eq!(
                idx.occurrences(code),
                oracle.occurrences(code),
                "{label}, code {code}"
            );
        }
    }

    /// The bank of `kind` for the oracle proptests: 0 empty, 1 one code
    /// (poly-A holds only code 0), 2 all `N`, 3 a 150-nt read, 4 the codes
    /// at both ends of the space and of a top word, otherwise `seqs`.
    fn bank_of_kind(kind: usize, w: usize, seqs: &[String]) -> Bank {
        match kind {
            0 => Bank::empty(),
            1 => bank_of(&[&"A".repeat(70)]),
            2 => bank_of(&[&"N".repeat(70)]),
            3 => bank_of(&[&random_dna(150)]),
            4 => {
                let coder = SeedCoder::new(w);
                let codes: Vec<u32> = edge_codes(coder.num_seeds() as u32).collect();
                bank_of_codes(coder, &codes)
            }
            _ => bank_of(&seqs.iter().map(String::as_str).collect::<Vec<_>>()),
        }
    }

    /// `count` random ranges of the `4^w` code space, from `lows` and
    /// `highs`.
    fn ranges_of(w: usize, lows: &[u32], highs: &[u32]) -> Vec<Range<u32>> {
        let num = 1u64 << (2 * w);
        lows.iter()
            .zip(highs)
            .map(|(&a, &b)| {
                let (a, b) = (
                    (u64::from(a) % (num + 1)) as u32,
                    (u64::from(b) % (num + 1)) as u32,
                );
                a.min(b)..a.max(b)
            })
            .collect()
    }

    proptest! {
        /// The row map and the `offsets[4^W + 1]` oracle give the same
        /// answers — `occurrences` for every code (every populated code,
        /// its neighbours and the edge codes past W = 8), the shared walk
        /// over random ranges, `stats()` and `distinct_codes` — at every W
        /// from 1 to 13 (up to W = 5 the top level is part of one word, up
        /// to W = 2 the bitmap too), for random banks and the edge banks
        /// (empty, one code, all `N`, a 150-nt read, the codes at the ends
        /// of the space and of a top word), strides 1 and 2, under the
        /// sort rule and with every partition counted or sorted, built by
        /// pools of 1, 2, 4 and 7 workers over slices of a few words, and
        /// decoded from an index file to the heap and mapped.
        #[test]
        fn row_maps_equal_the_offsets_oracle(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..5),
            kind in 0usize..9,
            w in 1usize..=13,
            stride in 1usize..3,
            mask_mod in 0usize..9,
            grain in 1usize..200,
            sort in 0usize..3,
            lows in proptest::collection::vec(0u32..u32::MAX, 1..5),
            highs in proptest::collection::vec(0u32..u32::MAX, 1..5),
            probes in proptest::collection::vec(0u32..u32::MAX, 0..64),
        ) {
            let bank = bank_of_kind(kind, w, &seqs);
            // mask_mod 0 masks every window, 1 none.
            let masked = |p: usize| match mask_mod {
                0 => true,
                1 => false,
                m => p.is_multiple_of(m),
            };
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let ranges = ranges_of(w, &lows, &highs);
            let oracle = oracle::build(&bank, cfg, masked);
            let radix = with_sort(Radix::new(w), sort);
            for threads in [1usize, 2, 4, 7] {
                let built =
                    in_pool(threads, || BankIndex::build_sliced(&bank, cfg, masked, grain, radix));
                assert_rows_answer_as(&oracle, &built, &ranges, &probes);
                if threads == 1 {
                    for loaded in round_trips(&built) {
                        prop_assert_eq!(loaded.stats().distinct_seeds, built.stats().distinct_seeds);
                        prop_assert_eq!(loaded.stats().max_chain_len, built.stats().max_chain_len);
                        assert_rows_answer_as(&oracle, &loaded, &ranges, &probes);
                    }
                }
            }
        }

        /// Two indexes walked together visit exactly the codes populated
        /// in both, in ascending order, with each side's `occurrences` —
        /// over random ranges, for every pairing of a 150-nt read, a small
        /// bank and a bank populating nearly every bitmap word, at widths
        /// whose bitmap is part of a word, one word and many.
        #[test]
        fn shared_rows_visit_the_codes_populated_in_both(
            seqs in proptest::collection::vec("[ACGTN]{0,200}", 1..4),
            w in 1usize..=7,
            low in 0u32..u32::MAX,
            high in 0u32..u32::MAX,
        ) {
            let cfg = IndexConfig::full(w);
            let indexes = [
                BankIndex::build(&bank_of(&[&random_dna(150)]), cfg),
                BankIndex::build(&bank_of(&seqs.iter().map(String::as_str).collect::<Vec<_>>()), cfg),
                BankIndex::build(&bank_of(&[&random_dna(4 << (2 * w))]), cfg),
            ];
            let num = 1u32 << (2 * w);
            let (a, b) = (low % (num + 1), high % (num + 1));
            for i1 in &indexes {
                for i2 in &indexes {
                    for range in [0..num, a.min(b)..a.max(b)] {
                        let mut got: Vec<(u32, Row<'_>, Row<'_>)> = Vec::new();
                        let done = i1.for_each_shared(i2, range.clone(), |c, x1, x2| {
                            got.push((c, x1, x2));
                            Ok::<(), ()>(())
                        });
                        prop_assert_eq!(done, Ok(()));
                        let want: Vec<(u32, Row<'_>, Row<'_>)> = range
                            .clone()
                            .map(|c| (c, i1.occurrences(c), i2.occurrences(c)))
                            .filter(|(_, x1, x2)| !x1.is_empty() && !x2.is_empty())
                            .collect();
                        prop_assert!(got == want, "range {:?}", range);
                    }
                }
            }
        }
    }

    /// The starts of rows of `lengths` postings (each at least one), and
    /// the postings they tile.
    fn starts_of(lengths: &[u32]) -> (Vec<u32>, usize) {
        let mut n = 0;
        let starts = lengths
            .iter()
            .map(|&len| {
                n += len;
                n - len
            })
            .collect();
        (starts, n as usize)
    }

    /// `k` rows drawn for `l` low bits — `2^l` postings each and up to as
    /// many more, so `⌊log2(N/k)⌋ = l` — then `long` of them made 2^16
    /// postings or more, and with `filler`, rows of one posting enough to
    /// bring `N/k` back under 2 past the long ones.
    fn drawn_lengths(l: u32, k: usize, draws: &[u32], long: usize, filler: bool) -> Vec<u32> {
        let mut lengths: Vec<u32> = draws[..k]
            .iter()
            .map(|&d| (1 << l) + d % (1 << l))
            .collect();
        for i in 0..long.min(k) {
            lengths[draws[i] as usize % k] = (1 << 16) + draws[k - 1 - i] % 5000;
        }
        if filler {
            let mid = k / 2;
            lengths.splice(mid..mid, std::iter::repeat_n(1, long * 70_536));
        }
        lengths
    }

    proptest! {
        /// The Elias–Fano row bounds answer as the plain `u32` starts they
        /// encode: select at every row, and one cursor walked over an
        /// ascending subset of the rows (steps of a row or two, and jumps
        /// past a sample), equal each row's starts; and the sections,
        /// decoded back, are the same bits with the same answers. For an
        /// empty index, one row of all the postings, a row per posting,
        /// and rows drawn for every `l` from 0 to 8 — with rows of 2^16
        /// postings or more, at `l = 0` among rows of one posting, so a
        /// step meets their clear bits across whole rank blocks.
        #[test]
        fn row_starts_decode_to_the_u32_oracle(
            shape in 0usize..8,
            l in 0u32..=8,
            k in 1usize..300,
            draws in proptest::collection::vec(0u32..u32::MAX, 300),
            long in 0usize..3,
            filler in 0usize..2,
        ) {
            let lengths = match shape {
                0 => vec![],
                1 => vec![1 + draws[0] % 140_000],
                2 => vec![1; k],
                _ => drawn_lengths(l, k, &draws, long, filler == 1),
            };
            let (starts, n) = starts_of(&lengths);
            let k = starts.len();
            let bounds = RowBounds::from_starts(&starts, n);
            let (high, low) = bounds.sections();
            prop_assert_eq!(high.len(), high_len(n, k).div_ceil(64));
            prop_assert_eq!(low.is_empty(), low_width(n, k) == 0);
            let decoded =
                RowBounds::from_raw_parts(high.to_vec().into(), low.to_vec().into(), k, n).unwrap();
            prop_assert_eq!(decoded.sections(), bounds.sections());
            let ends: Vec<usize> = starts.iter().skip(1).map(|&s| s as usize).chain([n]).collect();
            for b in [&bounds, &decoded] {
                prop_assert_eq!(b.len(), k);
                let view = b.view();
                for r in 0..k {
                    prop_assert!(view.row(r) == (starts[r] as usize..ends[r]), "row {}", r);
                }
                let mut cursor = view.cursor();
                let (mut r, mut i) = (0, 0);
                while r < k {
                    prop_assert!(cursor.row(r) == view.row(r), "cursor at row {}", r);
                    let d = draws[i % draws.len()] as usize;
                    r += 1 + if d.is_multiple_of(8) { d % 300 } else { d % 2 };
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn row_bounds_refuse_every_broken_section() {
        // Each lie a decoded file could tell about its row bounds, and the
        // error it gets, at l = 0 (rows of one to three postings) and at
        // l = 2 (rows of four to seven).
        let refused = |high: &[u64], low: &[u8], rows: usize, postings: usize, want: &str| {
            match RowBounds::from_raw_parts(
                high.to_vec().into(),
                low.to_vec().into(),
                rows,
                postings,
            ) {
                Err(msg) => assert!(msg.contains(want), "{msg} (wanted {want})"),
                Ok(_) => panic!("accepted bounds that {want}"),
            }
        };
        let with = |high: &[u64], clear: Option<usize>, set: Option<usize>| {
            let mut high = high.to_vec();
            if let Some(bit) = clear {
                high[bit / 64] &= !(1 << (bit % 64));
            }
            if let Some(bit) = set {
                high[bit / 64] |= 1 << (bit % 64);
            }
            high
        };
        let lengths: Vec<u32> = (0..100).map(|i| 1 + i % 3).collect();
        let (starts, n) = starts_of(&lengths);
        let bounds = RowBounds::from_starts(&starts, n);
        let (high, low) = bounds.sections();
        assert!(low.is_empty(), "l = 0");
        let bit_of = |r: usize| starts[r] as usize + r;
        let len = n + 100;
        // A set bit taken away, and one added.
        refused(
            &with(high, Some(bit_of(99)), None),
            low,
            100,
            n,
            "high bits set for 99 rows, expected 100",
        );
        refused(
            &with(high, None, Some(1)),
            low,
            100,
            n,
            "high bits set for 101 rows",
        );
        // Row 1's bit moved onto row 0's posting: row 0 empty.
        refused(
            &with(high, Some(bit_of(1)), Some(1)),
            low,
            100,
            n,
            "row 0 is empty",
        );
        // Row 0's bit moved onto its posting: row 0 starts at 1.
        refused(
            &with(high, Some(0), Some(1)),
            low,
            100,
            n,
            "row 0 starts at 1, not 0",
        );
        // The last row's bit moved to the vector's end: it starts at N.
        refused(
            &with(high, Some(bit_of(99)), Some(len - 1)),
            low,
            100,
            n,
            &format!("last row starts at {n}"),
        );
        // A bit past the vector's end, a word short, a low stream at l = 0
        // and rows for no postings.
        refused(&with(high, None, Some(len)), low, 100, n, "stray high bits");
        refused(&high[1..], low, 100, n, "high words for");
        refused(high, &[0; 8], 100, n, "low bytes for starts of no low bits");
        refused(&[0], &[], 0, 3, "no rows for 3 postings");
        // At l = 2: a low bit past the last start's, and the last row's
        // low bits raised past N.
        let lengths: Vec<u32> = (0..100).map(|i| 4 + i % 4).collect();
        let (starts, n) = starts_of(&lengths);
        let bounds = RowBounds::from_starts(&starts, n);
        let (high, low) = bounds.sections();
        assert_eq!(low_width(n, 100), 2);
        let mut stray = low.to_vec();
        stray[200 / 8] |= 1;
        refused(
            high,
            &stray,
            100,
            n,
            "low bits: non-zero bits past the last",
        );
        let last = starts[99] as usize;
        let (at, top) = ((last >> 2) + 99, ((n >> 2) << 2) + 3);
        assert!(top >= n, "the last row can start past N");
        let mut past = low.to_vec();
        past[198 / 8] |= 0b11 << (198 % 8);
        refused(
            &with(high, Some(at), Some((n >> 2) + 99)),
            &past,
            100,
            n,
            &format!("last row starts at {top}"),
        );
    }

    /// `bank` with a 70 000-nt poly-A run and a 70 000-nt poly-T run ahead
    /// of its first record's ordinary sequence: rows of 70 000 postings
    /// and more, so the groups holding codes `A^W` and `T^W` span 2^16
    /// postings or more wherever a row follows them in the group.
    fn bank_with_long_runs(seqs: &[String], ordinary: usize) -> Bank {
        let mut records: Vec<String> = seqs.to_vec();
        records[0] = format!(
            "{}{}{}{}",
            "A".repeat(70_000),
            random_dna(ordinary),
            "T".repeat(70_000),
            records[0]
        );
        bank_of(&records.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn long_run_banks_have_rows_past_u16_postings() {
        // The construction the oracle proptest relies on: at the
        // pipeline's widths the built index holds rows of 2^16 postings and
        // more. Beside 300 000 nt of ordinary sequence at W = 11, N/k is
        // under 2, so l = 0 and the poly-A row's clear bits span whole rank
        // blocks, which every pool builds and every lookup jumps over as
        // the oracle answers.
        let bank = bank_with_long_runs(&["ACGT".repeat(50)], 3_000);
        for w in [8, 11, 13] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            assert!(idx.stats().max_chain_len >= 1 << 16, "W {w}");
        }
        let bank = bank_with_long_runs(&["ACGT".repeat(50)], 300_000);
        let cfg = IndexConfig::full(11);
        let oracle = oracle::build(&bank, cfg, |_| false);
        for threads in [1, 2] {
            let built = in_pool(threads, || {
                BankIndex::build_sliced(&bank, cfg, |_| false, 1 << 16, Radix::new(11))
            });
            let (n, k) = (built.indexed_positions(), built.distinct_codes());
            assert_eq!(low_width(n, k), 0, "{n} postings over {k} rows");
            // Poly-A's clear bits: two rank blocks or more.
            assert!(built.occurrences(0).len() >= 2 * 64 * BLOCK_WORDS);
            assert!(oracle.matches(&built), "threads {threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The Elias–Fano row bounds answer as the `offsets[4^W + 1]`
        /// oracle (a stable sort past W = 11) and its plain `u32`
        /// boundaries do: `occurrences` for every code (the populated ones
        /// and their neighbours past W = 8), the shared walk over random
        /// ranges, and the walk against a second bank — and they are the
        /// one encoding of the oracle's starts. Banks carry 70 000-nt
        /// poly-A and poly-T runs ahead of ordinary sequence, so rows hold
        /// 2^16 postings and more; W = 1..13, under the sort rule and with
        /// every partition counted or sorted, pools of 1, 2, 4 and 7 over
        /// slices of a few words (runs cut inside a high word), and each
        /// index also persisted, decoded to the heap and mapped.
        #[test]
        fn row_bounds_equal_the_offsets_oracle(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..4),
            ordinary in 0usize..6000,
            w in 1usize..=13,
            stride in 1usize..3,
            grain in 64usize..20_000,
            sort in 0usize..3,
            lows in proptest::collection::vec(0u32..u32::MAX, 1..4),
            highs in proptest::collection::vec(0u32..u32::MAX, 1..4),
            probes in proptest::collection::vec(0u32..u32::MAX, 0..32),
        ) {
            let bank = bank_with_long_runs(&seqs, ordinary);
            let other = bank_of(&seqs.iter().map(String::as_str).collect::<Vec<_>>());
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let ranges = ranges_of(w, &lows, &highs);
            let oracle = oracle::build(&bank, cfg, |_| false);
            let other_oracle = oracle::build(&other, cfg, |_| false);
            let partner = BankIndex::build(&other, cfg);
            let radix = with_sort(Radix::new(w), sort);
            for threads in [1usize, 2, 4, 7] {
                let built =
                    in_pool(threads, || BankIndex::build_sliced(&bank, cfg, |_| false, grain, radix));
                let loaded = if threads == 1 { round_trips(&built).to_vec() } else { vec![] };
                for idx in std::iter::once(&built).chain(&loaded) {
                    assert_rows_answer_as(&oracle, idx, &ranges, &probes);
                    for range in &ranges {
                        let mut got: Vec<(u32, Vec<u32>, Vec<u32>)> = Vec::new();
                        let done = idx.for_each_shared(&partner, range.clone(), |c, x1, x2| {
                            got.push((c, x1.to_vec(), x2.to_vec()));
                            Ok::<(), ()>(())
                        });
                        let want: Vec<(u32, Vec<u32>, Vec<u32>)> = oracle
                            .codes()
                            .iter()
                            .filter(|c| range.contains(c))
                            .map(|&c| (c, oracle.occurrences(c).to_vec(), other_oracle.occurrences(c).to_vec()))
                            .filter(|(_, _, x2)| !x2.is_empty())
                            .collect();
                        prop_assert_eq!(done, Ok(()));
                        prop_assert!(got == want, "range {:?}", range);
                    }
                }
            }
        }
    }
}
