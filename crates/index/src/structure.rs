//! The bank index — Figure 2 of the paper, flattened to a CSR layout,
//! with two row maps: a ranked presence bitmap and a sorted code list.
//!
//! The paper draws the occurrence index as a linked structure: a seed
//! dictionary `dict[4^W]` pointing at the first occurrence of each seed,
//! and a successor array `next[len(SEQ)]` chaining every occurrence to the
//! next one (`int *INDEX` in the paper). That shape is faithful to the
//! figure but hostile to step 2's inner loops: every `next` hop is a
//! dependent, unpredictable load across a `4·len(SEQ)`-byte array.
//!
//! This module stores the same information as a **compressed sparse row**
//! (CSR) inverted index. Two arrays are common to both row maps:
//!
//! * `positions[indexed_positions]` — every occurrence, grouped by seed
//!   code in ascending code order and in **ascending position order**
//!   within each group;
//! * the row bounds — where each row starts, for the *populated* codes
//!   only (`k` distinct codes): row `r`, the occurrences of the `r`-th
//!   populated code, runs from its start to the start of row `r + 1` (the
//!   last row to the end of `positions`). A start is two bytes, relative
//!   to its group's anchor, one four-byte anchor per 64 rows; a group
//!   whose starts span 2^16 postings or more keeps them as `u32`s in a
//!   side array (the crate-private `RowBounds`).
//!
//! What differs is how a seed code finds its row `r` (the crate-private
//! `RowIndex`):
//!
//! * **Dense** — a presence bitmap of `4^W` bits (bit `code % 64` of word
//!   `code / 64` is set iff the code is populated) and, per bitmap word,
//!   the number of bits set in the words before it: the *rank*, derived
//!   at build and at attach and never stored. A populated code's row is
//!   its rank, `ranks[code / 64] + popcount(word & below(code % 64))` —
//!   two loads and a popcount. Bitmap and ranks cost `3·4^W/16` bytes,
//!   768 KB at W = 11, small enough to stay in L2.
//! * **Sparse** — an ascending `codes[k]` list. A code's row is its place
//!   in `codes`, found by a binary search — or, for codes asked in
//!   ascending order, by a forward cursor (below). Four bytes per
//!   populated code, independent of `4^W`.
//!
//! [`IndexBackend::Auto`] (the default) picks per build whichever map the
//! two footprint models below say is smaller. They differ by `3·4^W/16`
//! bytes (dense) against `4·k` (sparse), and pass A knows the postings,
//! which bound `k` from above: dense iff `3·4^W/16 ≤ 4·postings`, that is
//! from 196 608 postings at W = 11. Both maps order the postings
//! identically, so every downstream consumer — step 2's ordered
//! enumeration, the guards, the sinks — sees byte-identical occurrence
//! slices; the choice is a memory/speed trade, never a results change
//! (pinned by proptests here and at the engine and db layers).
//!
//! **Partner rows.** Step 2 needs both rows of every code populated in
//! both indexes, in ascending code order. Two dense indexes are walked
//! together: [`BankIndex::for_each_shared`] ANDs their bitmaps word by word
//! with running ranks, so it visits only the codes populated in both.
//! Otherwise step 2 walks the populated rows of the index with fewer
//! codes and asks the other for each partner row through a
//! [`RowCursor`] ([`BankIndex::cursor_from`]): a rank on a dense partner,
//! a gallop forward from the previous answer through the code list on a
//! sparse one. A lone short read — a sparse index of ~140 codes —
//! therefore pays a rank per code against a dense database volume, where
//! a gallop across a whole volume's code list took ~20 probes. Every
//! answer is exactly the slice [`BankIndex::occurrences`] returns (a
//! differential proptest below holds both maps, heap and mapped, to it,
//! to a binary search and to the `offsets[4^W + 1]` build this module had
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
//!   below W = 3). Pass A yields the posting count, hence the row map
//!   under `Auto`.
//! * **Dense, pass B** rolls again and scatters every kept position (four
//!   bytes) into the postings array, partition by partition, with its
//!   *rank* inside the partition (the code's low bits, two bytes) into a
//!   transient side array. **Pass C** then sorts each partition in place
//!   by rank — count into a per-worker scratch of `4^8` counters,
//!   prefix-sum, scatter through a copy of that one partition — and sets
//!   the partition's bits in the bitmap as it goes; an empty partition is
//!   skipped. A sorted partition's ranks are spent, so pass C writes its
//!   populated rows' lengths, as `u16`s in code order, over the head of
//!   their stretch. With the populated codes counted, a last pass turns
//!   those lengths into the rows' two-byte starts **in the rank array
//!   itself**: each run of partitions compacts its starts to the head of
//!   its own stretch (every row lands at or before the length it is made
//!   from), the runs move down to their first rows in ascending order,
//!   the few groups a run's edge cuts (and the wide ones) are encoded
//!   last, and the array is cut to `k` entries. So the build never holds
//!   a second `k`-sized array beside the `2·N`-byte ranks. A partition
//!   holding a row of 2^16 postings or more cannot leave its lengths as
//!   `u16`s; that pass counts its ranks again and walks its set bits
//!   instead. Reading the lengths back rather than recounting every
//!   partition makes the build of a 4.9 Mnt bank at W = 11 3–8 % faster
//!   (2-vCPU VM, alternating in-process runs: 103 ms against 111 at one
//!   worker, faster in 24 of 30 pairs; 75 against 82 at two, 18 of 20).
//!   The scratch and the partition's share of the postings stay in the
//!   core's own cache.
//!   Pass B is bound by how many write streams its scatter keeps open —
//!   two per partition per slice — which is why the partitions are as few
//!   as the `u16` rank allows. On a 4.9 Mnt bank at W = 11 with two
//!   workers (2-vCPU VM), 64 partitions scatter in 31–34 ms where 1 024
//!   took 56–62.
//! * **Sparse** rolls again into `code·2^32 + position` keys, sorts them,
//!   and splits codes, row starts and postings off the sorted run.
//!
//! On a large bank the three passes are data-parallel. The bank is cut
//! into one contiguous slice per worker (on 64-position boundaries, so
//! slices share no bit-set word); pass A gives every slice its own
//! histogram, from which every (partition, slice) pair gets its own
//! stretch of the postings array, slices in bank order inside a partition
//! — so pass B writes each partition's positions in ascending order
//! whatever the worker count, and pass C, which walks its input forward,
//! leaves every row ascending. Pass C's runs of partitions start on whole
//! bitmap words, so no two share one. The index is therefore the same
//! bytes for any pool size (pinned against the
//! full-sweep oracle for pools of 1, 2, 4 and 7). A bank under two grains
//! of 2^18 positions is built on the calling thread: the rayon shim
//! starts OS threads per call, which a 150-nt query must never pay.
//! `occurrences(code)` hands step 2 a contiguous, ascending `&[u32]`
//! slice, and `stats` needs no chain walks.
//!
//! Memory model (heap bytes on top of the 1-byte-per-residue `SEQ` array;
//! `k` = distinct codes, `N` = indexed positions):
//!
//! ```text
//! dense:   ≈ 4^W/8 + 4^W/16       presence bitmap + per-word ranks
//!          + 2·k + k/16           row bounds (+ 4 bytes per row of a
//!                                 wide group, none on a typical bank)
//!          + 4·N                  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//!   while building, on top of the above:
//!          + 2·N − 2·k            ranks (pass B → pass C; their head
//!                                 becomes the row bounds)
//!          + 4·partitions per slice  partition histogram (256 B at W ≤ 11)
//!          + 4·4^8 + 4·(largest partition) per worker — the count
//!            scratch and a copy of the partition: typically N/64, the
//!            whole postings array for a bank whose windows all end in
//!            the same three bases
//!
//! sparse:  ≈ 4·k                  populated codes
//!          + 2·k + k/16           row bounds
//!          + 4·N                  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//!   while building, on top of the above:
//!          + 8·N                  sort keys
//! ```
//!
//! A dense index is thus `4·N + 2·k + k/16 + len(SEQ)/8 + 3·4^W/16`
//! bytes, sized by what the bank populates: at W = 11 a bank pays 768 KB
//! for the code space, not the 16.8 MB of an `offsets[4^W + 1]` array. A
//! saturated bank (`k ≈ 4^W`, from ~12 Mnt at W = 11) pays `2.25·4^W`
//! bytes for bitmap, ranks and bounds, under the `4·4^W` of that array.
//! Since `k ≤ N`, the sparse map is bounded by `≈ 10·N` bytes however
//! large `W` gets. The postings are sized by the windows actually indexed, not by
//! `len(SEQ)` as the paper's `next` array is, so low-complexity masking
//! and the asymmetric stride (section 3.4) shrink the index itself, not
//! just the bit-set. The paper's "approximately 5·N bytes" (1 byte of
//! `SEQ` and 4 of postings per position) is the first term; the row
//! bounds add `2·k + k/16` and the bitmap `3·4^W/16`.
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
use crate::section::Section;
use crate::seedcode::{RollingCoder, SeedCoder, MAX_SEED_LEN};

/// Which row map backs the index.
///
/// The choice never changes results: the postings array (and thus every
/// `occurrences` slice, every HSP, every output byte) is identical under
/// either map. It only trades memory against lookup cost: dense pays
/// `3·4^W/16` bytes for a rank lookup; sparse pays 4 bytes per populated
/// code for a search of its sorted code list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// Always build the ranked presence bitmap — the large-bank fast
    /// path.
    Dense,
    /// Always build the sorted code list — the small-bank / large-W
    /// memory saver.
    Sparse,
    /// Decide per build from the two footprint models: dense when
    /// `3·4^W/16 ≤ 4·indexed_positions` (the bitmap and its ranks cost no
    /// more than a code list as long as the bank could populate that many
    /// codes, since distinct codes ≤ postings), sparse otherwise.
    #[default]
    Auto,
}

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
    /// Row map policy (see [`IndexBackend`]).
    pub backend: IndexBackend,
}

impl IndexConfig {
    /// Full indexing with seed length `w` (the common case).
    pub fn full(w: usize) -> IndexConfig {
        IndexConfig {
            w,
            stride: 1,
            backend: IndexBackend::Auto,
        }
    }

    /// Asymmetric (half-sampled) indexing with seed length `w`.
    pub fn asymmetric(w: usize) -> IndexConfig {
        IndexConfig {
            w,
            stride: 2,
            backend: IndexBackend::Auto,
        }
    }

    /// Same config with an explicit row map policy.
    pub fn with_backend(mut self, backend: IndexBackend) -> IndexConfig {
        self.backend = backend;
        self
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
    /// Heap bytes used by the row map + `positions` + the indexed bit-set
    /// (excludes the bank's own array).
    pub index_bytes: usize,
    /// Heap bytes including the underlying `SEQ` array: `5·N` plus the
    /// row bounds' `2·k + k/16`, the row map's `3·4^W/16` (dense) or `4·k`
    /// (sparse) and the bit-set's `N/8` for a fully indexed bank (see the
    /// module docs).
    pub total_bytes: usize,
}

/// Rows per group of [`RowBounds`]: one anchor each.
const GROUP: usize = 64;

/// The flag of an anchor whose group keeps its starts in the wide side
/// array; the anchor's other bits say where they begin.
const WIDE: u32 = 1 << 31;

/// Where each of the `k` rows starts in the postings: two bytes per row
/// over one four-byte anchor per [`GROUP`] rows. Row `r` starts at
/// `anchors[r / 64] + rel[r]` and ends where row `r + 1` starts, the
/// last row at the end of the postings — so `k` starts and no `k + 1`-th.
///
/// A group whose starts span 2^16 postings or more (or whose first start
/// is 2^31 or more) cannot keep them as `u16`s: its anchor sets [`WIDE`]
/// and names where its starts begin in `wide`, as `u32`s, and its `rel`s
/// are 0; a lookup tests the flag, a branch that all but never turns. A
/// group spans 64 rows, so only rows averaging a thousand postings make
/// one.
///
/// The encoding is canonical — [`RowBounds::from_starts`] writes it, the
/// dense build's parallel pass writes the same sections, and
/// [`RowBounds::from_raw_parts`] refuses any other — so an index has one
/// set of file bytes.
#[derive(Debug, Clone)]
pub(crate) struct RowBounds {
    /// Per row, its start less its group's anchor; 0 in a wide group.
    rel: Section<u16>,
    /// Per group, its first row's start, or [`WIDE`] and where its
    /// starts begin in `wide`.
    anchors: Section<u32>,
    /// The wide groups' starts, group after group.
    wide: Section<u32>,
}

/// Whether a group of `starts` must keep them as `u32`s: its `rel`s would
/// pass a `u16`, or its anchor the flag bit.
fn is_wide(starts: &[u32]) -> bool {
    match (starts.first(), starts.last()) {
        (Some(&first), Some(&last)) => first >= WIDE || last - first > u32::from(u16::MAX),
        _ => false,
    }
}

/// Encodes one group: writes its `rel`s and returns its anchor, or
/// appends its starts to `wide` and returns the flagged anchor.
fn encode_group(starts: &[u32], rel: &mut [u16], wide: &mut Vec<u32>) -> u32 {
    if is_wide(starts) {
        rel.fill(0);
        let at = u32::try_from(wide.len()).expect("rows ≤ 4^13 < 2^31");
        wide.extend_from_slice(starts);
        WIDE | at
    } else {
        encode_narrow(starts, rel)
    }
}

/// Encodes a group that is not wide: writes its `rel`s, returns its
/// anchor.
fn encode_narrow(starts: &[u32], rel: &mut [u16]) -> u32 {
    for (r, &s) in rel.iter_mut().zip(starts) {
        // oris-lint: allow(narrow-cast) — not wide, so every start is within u16::MAX of the first
        *r = (s - starts[0]) as u16;
    }
    starts[0]
}

impl RowBounds {
    /// Encodes ascending row starts — the encoder the sparse build uses
    /// and the reference of the dense build's parallel pass.
    pub(crate) fn from_starts(starts: &[u32]) -> RowBounds {
        let mut rel = vec![0u16; starts.len()];
        let mut wide = Vec::new();
        let anchors: Vec<u32> = starts
            .chunks(GROUP)
            .zip(rel.chunks_mut(GROUP))
            .map(|(starts, rel)| encode_group(starts, rel, &mut wide))
            .collect();
        RowBounds {
            rel: rel.into(),
            anchors: anchors.into(),
            wide: wide.into(),
        }
    }

    /// Pairs decoded sections over `postings` postings, checking what a
    /// lookup relies on: a `rel` per row and an anchor per group, each
    /// wide group inside the side array and the side array used up, every
    /// boundary strictly increasing from 0 inside its group's span, and
    /// the last row ending at `postings` — all in the one encoding
    /// [`RowBounds::from_starts`] writes. Returns the first violation.
    pub(crate) fn from_raw_parts(
        rel: Section<u16>,
        anchors: Section<u32>,
        wide: Section<u32>,
        postings: usize,
    ) -> Result<RowBounds, String> {
        let rows = rel.len();
        if anchors.len() != rows.div_ceil(GROUP) {
            return Err(format!(
                "{} row anchors for {rows} rows, expected ⌈{rows}/64⌉",
                anchors.len()
            ));
        }
        if rows == 0 && postings > 0 {
            return Err(format!("no rows for {postings} postings"));
        }
        // A wide group's starts, or the error of an anchor pointing past
        // the side array.
        let wide_starts = |g: usize, anchor: u32| -> Result<&[u32], String> {
            let n = rows.min(g * GROUP + GROUP) - g * GROUP;
            let at = (anchor & !WIDE) as usize;
            wide.get(at..at + n).ok_or_else(|| {
                format!(
                    "group {g}'s wide starts at {at} run past the {}-entry side array",
                    wide.len()
                )
            })
        };
        let first_start = |g: usize| -> Result<usize, String> {
            match anchors.get(g) {
                None => Ok(postings),
                Some(&a) if a & WIDE == 0 => Ok(a as usize),
                Some(&a) => Ok(wide_starts(g, a)?[0] as usize),
            }
        };
        let mut used = 0;
        let mut prev: Option<usize> = None;
        let mut starts = [0usize; GROUP];
        for (g, &anchor) in anchors.iter().enumerate() {
            let span_end = first_start(g + 1)?;
            let rels = &rel[g * GROUP..rows.min(g * GROUP + GROUP)];
            let starts = &mut starts[..rels.len()];
            if anchor & WIDE == 0 {
                if rels[0] != 0 {
                    return Err(format!(
                        "group {g}'s first row does not start at its anchor"
                    ));
                }
                for (s, &r) in starts.iter_mut().zip(rels) {
                    *s = anchor as usize + usize::from(r);
                }
            } else {
                let wide = wide_starts(g, anchor)?;
                if (anchor & !WIDE) as usize != used {
                    return Err(format!("group {g}'s wide starts are out of order"));
                }
                if rels.iter().any(|&r| r != 0) {
                    return Err(format!("wide group {g} has non-zero rels"));
                }
                if !is_wide(wide) {
                    return Err(format!("group {g} is stored wide but fits u16 starts"));
                }
                used += wide.len();
                for (s, &w) in starts.iter_mut().zip(wide) {
                    *s = w as usize;
                }
            }
            for (i, &start) in starts.iter().enumerate() {
                let row = g * GROUP + i;
                match prev {
                    None if start != 0 => return Err(format!("row 0 starts at {start}, not 0")),
                    Some(p) if start <= p => {
                        return Err("row boundaries are not strictly increasing".into())
                    }
                    _ => {}
                }
                if row + 1 == rows && start >= postings {
                    return Err(format!(
                        "last row starts at {start}, so it cannot end at positions.len() = {postings}"
                    ));
                }
                if start >= span_end {
                    return Err(format!(
                        "row {row} starts at {start}, beyond its group's span (next group at {span_end})"
                    ));
                }
                prev = Some(start);
            }
        }
        if used != wide.len() {
            return Err(format!(
                "wide groups use {used} of the side array's {} starts",
                wide.len()
            ));
        }
        Ok(RowBounds { rel, anchors, wide })
    }

    /// Rows: the populated codes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rel.len()
    }

    /// The sections as plain slices, to look rows up through.
    #[inline]
    pub(crate) fn view(&self) -> BoundsView<'_> {
        BoundsView {
            rel: &self.rel,
            anchors: &self.anchors,
            wide: &self.wide,
        }
    }

    /// Row `row` as its slice of `positions`.
    #[inline]
    pub(crate) fn row<'s>(&self, positions: &'s [u32], row: usize) -> &'s [u32] {
        self.view().row(positions, row)
    }

    /// The three sections, as an index file stores them.
    pub(crate) fn sections(&self) -> (&[u16], &[u32], &[u32]) {
        (&self.rel, &self.anchors, &self.wide)
    }

    /// Heap bytes: the sections unless they are views of a mapped file.
    fn heap_bytes(&self) -> usize {
        self.rel.heap_bytes() + self.anchors.heap_bytes() + self.wide.heap_bytes()
    }

    fn is_mapped(&self) -> bool {
        self.rel.is_mapped() || self.anchors.is_mapped() || self.wide.is_mapped()
    }
}

/// A [`RowBounds`]' sections as plain slices. A walk over many rows takes
/// one and looks its rows up through it, so it reads each section's
/// address once, not once per row (a [`Section`] derefs through a
/// match). A row whose both ends lie in one narrow group — 63 in 64 —
/// costs one anchor and two adjacent `rel`s; the rest take a cold path.
/// Against the `u32` boundaries this replaces, step 2's work scan on two
/// dense 4.9 and 2.8 Mnt indexes went 12 → 16 ms and `find_hsps` stayed
/// within noise (in-process, 2-vCPU VM).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundsView<'a> {
    rel: &'a [u16],
    anchors: &'a [u32],
    wide: &'a [u32],
}

impl BoundsView<'_> {
    /// Where row `row` starts in the postings.
    #[inline]
    fn start(self, row: usize) -> usize {
        let anchor = self.anchors[row / GROUP];
        if anchor & WIDE == 0 {
            (anchor + u32::from(self.rel[row])) as usize
        } else {
            self.wide[(anchor & !WIDE) as usize + row % GROUP] as usize
        }
    }

    /// Row `row` as its slice of `positions`.
    #[inline]
    pub(crate) fn row(self, positions: &[u32], row: usize) -> &[u32] {
        let anchor = self.anchors[row / GROUP];
        // Both ends in one narrow group: one anchor, two adjacent `rel`s.
        if anchor & WIDE == 0 && row % GROUP != GROUP - 1 {
            if let Some(&[a, b, ..]) = self.rel.get(row..) {
                let anchor = anchor as usize;
                return &positions[anchor + usize::from(a)..anchor + usize::from(b)];
            }
        }
        self.row_across(positions, row)
    }

    /// [`BoundsView::row`] for a row that ends in another group, in a
    /// wide group, or at the end of the postings: one in 64 at most on a
    /// typical bank.
    #[cold]
    #[inline(never)]
    fn row_across(self, positions: &[u32], row: usize) -> &[u32] {
        let end = if row + 1 < self.rel.len() {
            self.start(row + 1)
        } else {
            positions.len()
        };
        &positions[self.start(row)..end]
    }
}

/// The row map: how a seed code finds its postings row. Both variants
/// index the same `positions` array through the same [`RowBounds`]; see
/// the module docs for the memory model.
#[derive(Debug, Clone)]
pub(crate) enum RowIndex {
    /// The ranked presence bitmap, see [`BitmapRows`].
    Dense(BitmapRows),
    /// The sorted code list, see [`SparseRows`].
    Sparse(SparseRows),
}

impl RowIndex {
    /// The row boundaries, one start per populated code.
    pub(crate) fn bounds(&self) -> &RowBounds {
        match self {
            RowIndex::Dense(bitmap) => &bitmap.bounds,
            RowIndex::Sparse(sparse) => &sparse.bounds,
        }
    }
}

/// Words of a presence bitmap over `num_seeds` codes.
pub(crate) fn bitmap_words(num_seeds: usize) -> usize {
    num_seeds.div_ceil(64)
}

/// The dense row map: a presence bitmap over the whole code space, the
/// rank of each of its words, and the [`RowBounds`] of the populated
/// codes — the `r`-th populated code owns row `r`. Only the bitmap and
/// the bounds are stored in an index file; the ranks are derived from
/// the bitmap in one pass over its words.
#[derive(Debug, Clone)]
pub(crate) struct BitmapRows {
    bits: Section<u64>,
    /// `ranks[i]` = bits set in `bits[..i]`.
    ranks: Vec<u32>,
    bounds: RowBounds,
}

impl BitmapRows {
    /// Pairs a bitmap with its row bounds and derives the ranks; the
    /// caller validates the pair (see [`BankIndex::from_raw_parts`]).
    pub(crate) fn new(bits: Section<u64>, bounds: RowBounds) -> BitmapRows {
        let mut ranks = Vec::with_capacity(bits.len());
        let mut sum = 0u32;
        for &word in bits.iter() {
            ranks.push(sum);
            sum += word.count_ones();
        }
        BitmapRows {
            bits,
            ranks,
            bounds,
        }
    }

    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Codes whose bit is set.
    fn populated(&self) -> usize {
        match (self.ranks.last(), self.bits.last()) {
            (Some(&rank), Some(&word)) => rank as usize + word.count_ones() as usize,
            _ => 0,
        }
    }

    /// Row of `code`, or `None` if it is absent (or past the bitmap).
    #[inline]
    fn row_of(&self, code: u32) -> Option<usize> {
        let i = (code / 64) as usize;
        let word = *self.bits.get(i)?;
        let bit = code % 64;
        (word >> bit & 1 == 1).then(|| rank_in(self.ranks[i], word, bit))
    }

    /// Heap bytes: the derived ranks always, the bitmap and row
    /// bounds unless they are views of a mapped file.
    fn heap_bytes(&self) -> usize {
        4 * self.ranks.len() + self.bits.heap_bytes() + self.bounds.heap_bytes()
    }

    fn is_mapped(&self) -> bool {
        self.bits.is_mapped() || self.bounds.is_mapped()
    }
}

/// Rank of bit `bit` of `word`: `rank` (the bits set before the word)
/// plus the bits of the word below `bit`.
#[inline]
fn rank_in(rank: u32, word: u64, bit: u32) -> usize {
    rank as usize + (word & ((1u64 << bit) - 1)).count_ones() as usize
}

/// The sparse row map: `codes[k]` ascending distinct codes beside the
/// [`RowBounds`] — row `r` holds the occurrences of `codes[r]`. A code
/// finds its row by a search of `codes` (a binary search for one code, a
/// forward [`RowCursor`] for ascending ones); nothing else is derived or
/// stored, so an index file's sections are the whole structure.
#[derive(Debug, Clone)]
pub(crate) struct SparseRows {
    codes: Section<u32>,
    bounds: RowBounds,
}

impl SparseRows {
    /// Pairs `codes` with their row bounds; the caller validates them.
    pub(crate) fn new(codes: Section<u32>, bounds: RowBounds) -> SparseRows {
        SparseRows { codes, bounds }
    }

    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Heap bytes: the code list and row bounds unless they are views of
    /// a mapped file.
    fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes() + self.bounds.heap_bytes()
    }

    fn is_mapped(&self) -> bool {
        self.codes.is_mapped() || self.bounds.is_mapped()
    }
}

/// The occurrence index over one bank, in CSR layout.
#[derive(Debug, Clone)]
pub struct BankIndex {
    coder: SeedCoder,
    stride: usize,
    /// Code → postings-row map. Owned for a fresh build; zero-copy views
    /// into the index file for an mmap attach (the dense map's ranks are
    /// derived on the heap either way).
    rows: RowIndex,
    /// All indexed positions, grouped by seed code in ascending code
    /// order, ascending within a group. Same storage duality as `rows`.
    positions: Section<u32>,
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
        Self::build_sliced(bank, cfg, masked, PAR_GRAIN)
    }

    /// [`BankIndex::build_filtered`] with the parallel grain as a
    /// parameter, so tests can cut a small bank into many slices.
    fn build_sliced(
        bank: &Bank,
        cfg: IndexConfig,
        masked: impl Fn(usize) -> bool + Sync,
        grain: usize,
    ) -> BankIndex {
        assert!(cfg.stride >= 1, "stride must be at least 1");
        let coder = SeedCoder::new(cfg.w);
        let data = bank.data();
        assert!(
            data.len() < MAX_BANK_LEN,
            "bank too large for u32 positions"
        );
        let radix = Radix::new(cfg.w);
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

        // Resolve the Auto policy from the two footprint models: the
        // bitmap and its ranks (3·4^W/16 bytes) against a code list of at
        // most one code per posting (4 bytes each).
        let dense = match cfg.backend {
            IndexBackend::Dense => true,
            IndexBackend::Sparse => false,
            IndexBackend::Auto => 3 * coder.num_seeds() <= 64 * postings,
        };

        let (rows, positions) = if dense {
            let (bits, bounds, positions) =
                dense_rows(data, &words, slice_len, coder, radix, &scans, postings);
            (
                RowIndex::Dense(BitmapRows::new(bits.into(), bounds)),
                positions,
            )
        } else {
            let (codes, bounds, positions) = sparse_rows(data, &words, coder, postings);
            (
                RowIndex::Sparse(SparseRows::new(codes.into(), bounds)),
                positions,
            )
        };

        BankIndex {
            coder,
            stride: cfg.stride,
            rows,
            positions: positions.into(),
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
    /// of `persist`), validating every structural invariant the rest of
    /// the system relies on. Returns a description of the first violation
    /// instead of constructing an index that would panic (or silently
    /// corrupt step 2) later.
    pub(crate) fn from_raw_parts(
        w: usize,
        stride: usize,
        rows: RowIndex,
        positions: Section<u32>,
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
        let num_seeds = coder.num_seeds();
        match &rows {
            RowIndex::Dense(bitmap) => {
                let bits = bitmap.bits();
                if bits.len() != bitmap_words(num_seeds) {
                    return Err(format!(
                        "presence bitmap has {} words, expected ⌈4^{w}/64⌉ = {}",
                        bits.len(),
                        bitmap_words(num_seeds)
                    ));
                }
                if !num_seeds.is_multiple_of(64) && bits[0] >> num_seeds != 0 {
                    return Err(format!(
                        "presence bitmap sets a bit past the 4^{w} code space"
                    ));
                }
                let rows = rows.bounds().len();
                if bitmap.populated() != rows {
                    return Err(format!(
                        "presence bitmap holds {} codes for {rows} rows",
                        bitmap.populated()
                    ));
                }
            }
            RowIndex::Sparse(sparse) => {
                let codes = sparse.codes();
                if codes.windows(2).any(|p| p[0] >= p[1]) {
                    return Err("populated codes are not strictly ascending".into());
                }
                if let Some(&last) = codes.last() {
                    if last as usize >= num_seeds {
                        return Err(format!("code {last} outside the 4^{w} code space"));
                    }
                }
                if rows.bounds().len() != codes.len() {
                    return Err(format!(
                        "{} row starts for {} populated codes",
                        rows.bounds().len(),
                        codes.len()
                    ));
                }
            }
        }
        if indexed.len() != bank_bytes {
            return Err(format!(
                "indexed bit-set covers {} positions, bank has {bank_bytes}",
                indexed.len()
            ));
        }
        if indexed.masked_count() != positions.len() {
            return Err(format!(
                "indexed bit-set has {} bits set for {} positions",
                indexed.masked_count(),
                positions.len()
            ));
        }
        // Per-row invariants: strictly ascending positions (step 2 and the
        // uniqueness argument assume the enumeration order), every position
        // inside the bank, every position present in the bit-set. The
        // bounds themselves were checked against the postings as they were
        // decoded (`RowBounds::from_raw_parts`).
        let bounds = rows.bounds().view();
        for row in (0..rows.bounds().len()).map(|r| bounds.row(&positions, r)) {
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err("row positions are not strictly ascending".into());
                }
            }
            for &p in row {
                if p as usize >= bank_bytes {
                    return Err(format!("position {p} outside bank of {bank_bytes}"));
                }
                if !indexed.contains(p as usize) {
                    return Err(format!("position {p} missing from the indexed bit-set"));
                }
            }
        }
        Ok(BankIndex {
            coder,
            stride,
            rows,
            positions,
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

    /// The resolved row map — [`IndexBackend::Dense`] or
    /// [`IndexBackend::Sparse`], never `Auto` (Auto is resolved at build
    /// time from the posting count).
    #[inline]
    pub fn backend(&self) -> IndexBackend {
        match self.rows {
            RowIndex::Dense(_) => IndexBackend::Dense,
            RowIndex::Sparse(_) => IndexBackend::Sparse,
        }
    }

    /// First occurrence of `code`, or `None` if the seed is absent.
    #[inline]
    pub fn first(&self, code: u32) -> Option<u32> {
        self.occurrences(code).first().copied()
    }

    /// Row of `code`, or `None` if the seed is absent.
    #[inline]
    fn row_of(&self, code: u32) -> Option<usize> {
        match &self.rows {
            RowIndex::Dense(bitmap) => bitmap.row_of(code),
            RowIndex::Sparse(sparse) => sparse.codes().binary_search(&code).ok(),
        }
    }

    /// Row `row` as its postings slice.
    #[inline]
    fn row(&self, row: usize) -> &[u32] {
        self.rows.bounds().row(&self.positions, row)
    }

    /// All occurrences of `code` as a contiguous slice, in increasing
    /// position order. A dense index finds the row by its rank, a sparse
    /// one by a binary search of its code list; step 2, which asks for
    /// codes in ascending order, walks a [`RowCursor`] instead.
    #[inline]
    pub fn occurrences(&self, code: u32) -> &[u32] {
        self.row_of(code).map_or(&[], |row| self.row(row))
    }

    /// A cursor answering [`BankIndex::occurrences`] for codes asked in
    /// ascending order from `start` on (see [`RowCursor`]).
    pub fn cursor_from(&self, start: u32) -> RowCursor<'_> {
        let next = match &self.rows {
            RowIndex::Dense(_) => 0,
            RowIndex::Sparse(sparse) => sparse.codes().partition_point(|&c| c < start),
        };
        RowCursor { index: self, next }
    }

    /// Iterates the *populated* codes in `range` in ascending code order,
    /// yielding `(code, occurrences)` with the occurrences slice exactly
    /// as [`BankIndex::occurrences`] would return it.
    ///
    /// This is the enumeration primitive step 2 schedules and drives on:
    /// dense walks the set bits of its bitmap words with a running rank;
    /// sparse binary-searches the code list for the range bounds and walks
    /// the rows directly. Neither visits an absent code.
    pub fn populated_in(&self, range: Range<u32>) -> PopulatedRows<'_> {
        let end = range.end.min(self.num_codes());
        match &self.rows {
            RowIndex::Dense(bitmap) => {
                let (cur, row) = if range.start < end {
                    let i = (range.start / 64) as usize;
                    let w = bitmap.bits[i];
                    let below = (1u64 << (range.start % 64)) - 1;
                    (w & !below, rank_in(bitmap.ranks[i], w, range.start % 64))
                } else {
                    (0, 0)
                };
                PopulatedRows(Walk::Dense {
                    bits: &bitmap.bits,
                    bounds: bitmap.bounds.view(),
                    positions: &self.positions,
                    base: range.start.min(end) & !63,
                    cur,
                    row,
                    end,
                })
            }
            RowIndex::Sparse(sparse) => {
                let codes = sparse.codes();
                let lo = codes.partition_point(|&c| c < range.start);
                let hi = codes.partition_point(|&c| c < range.end);
                PopulatedRows(Walk::Sparse {
                    codes,
                    bounds: sparse.bounds.view(),
                    positions: &self.positions,
                    row: lo,
                    end_row: hi,
                })
            }
        }
    }

    /// Iterates every populated code of the index in ascending order.
    pub fn populated(&self) -> PopulatedRows<'_> {
        self.populated_in(0..self.num_codes())
    }

    /// Calls `f(code, self's occurrences, other's occurrences)` for every
    /// code of `range` populated in both `self` and `other`, in ascending
    /// code order, and returns the first error `f` does — or `None`,
    /// calling nothing, unless both indexes are dense. The walk ANDs the
    /// two bitmaps word by word and keeps each word's ranks, so it visits
    /// no code absent from either index and finds each row with one
    /// popcount.
    ///
    /// # Panics
    /// Panics if the indexes have different seed lengths.
    #[inline]
    pub fn for_each_shared<'a, E>(
        &'a self,
        other: &'a BankIndex,
        range: Range<u32>,
        mut f: impl FnMut(u32, &'a [u32], &'a [u32]) -> Result<(), E>,
    ) -> Option<Result<(), E>> {
        assert_eq!(self.w(), other.w(), "both indexes must use the same W");
        let (RowIndex::Dense(a), RowIndex::Dense(b)) = (&self.rows, &other.rows) else {
            return None;
        };
        let (pa, pb) = (&*self.positions, &*other.positions);
        let (ba, bb) = (a.bounds.view(), b.bounds.view());
        let end = range.end.min(self.num_codes());
        // `base` is the code of bit 0 of the word at hand.
        let mut base = range.start & !63;
        while base < end {
            let i = (base / 64) as usize;
            let (wa, wb) = (a.bits[i], b.bits[i]);
            let mut shared = wa & wb;
            if base < range.start {
                shared &= !((1u64 << (range.start % 64)) - 1);
            }
            if end - base < 64 {
                shared &= (1u64 << (end - base)) - 1;
            }
            let (ra, rb) = (a.ranks[i], b.ranks[i]);
            while shared != 0 {
                let bit = shared.trailing_zeros();
                shared &= shared - 1;
                let x1 = ba.row(pa, rank_in(ra, wa, bit));
                let x2 = bb.row(pb, rank_in(rb, wb, bit));
                if let Err(e) = f(base + bit, x1, x2) {
                    return Some(Err(e));
                }
            }
            base += 64;
        }
        Some(Ok(()))
    }

    /// `4^W` as a code bound (`u32::MAX` past it, which no W reaches).
    fn num_codes(&self) -> u32 {
        u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX)
    }

    /// Number of distinct populated codes — O(1).
    #[inline]
    pub fn distinct_codes(&self) -> usize {
        self.rows.bounds().len()
    }

    /// Total indexed positions.
    #[inline]
    pub fn indexed_positions(&self) -> usize {
        self.positions.len()
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
        let bounds = self.rows.bounds().view();
        let max_chain = (0..self.distinct_codes())
            .map(|r| bounds.row(&self.positions, r).len())
            .max()
            .unwrap_or(0);
        let index_bytes = self.heap_bytes();
        IndexStats {
            distinct_seeds: self.distinct_codes(),
            indexed_positions: self.positions.len(),
            max_chain_len: max_chain,
            index_bytes,
            total_bytes: index_bytes + self.bank_bytes,
        }
    }

    /// Heap bytes used by the index arrays (row map, postings and the
    /// indexed-position bit vector). For an mmap-backed index the mapped
    /// sections count zero — their bytes live in the shared, evictable
    /// page cache, not this process's heap. What an attach does hold on
    /// the heap is the copied bit-set (`len/8` bytes) and, for a dense
    /// index, the derived ranks (`4^W/16` bytes).
    pub fn heap_bytes(&self) -> usize {
        let rows = match &self.rows {
            RowIndex::Dense(bitmap) => bitmap.heap_bytes(),
            RowIndex::Sparse(sparse) => sparse.heap_bytes(),
        };
        rows + self.positions.heap_bytes() + self.indexed.heap_bytes()
    }

    /// Whether the row map/postings sections are zero-copy views into a
    /// memory-mapped index file (see `oris_index::mmap`).
    pub fn is_mmap_backed(&self) -> bool {
        let rows = match &self.rows {
            RowIndex::Dense(bitmap) => bitmap.is_mapped(),
            RowIndex::Sparse(sparse) => sparse.is_mapped(),
        };
        rows || self.positions.is_mapped()
    }

    /// The row map (persistence needs the raw sections).
    #[inline]
    pub(crate) fn rows(&self) -> &RowIndex {
        &self.rows
    }

    /// The full postings array: every indexed position, grouped by seed
    /// code in ascending code order and ascending within each row.
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.positions
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
/// [`BankIndex`] — see [`BankIndex::populated_in`].
#[derive(Debug)]
pub struct PopulatedRows<'a>(Walk<'a>);

/// The walk behind [`PopulatedRows`], one per row map.
#[derive(Debug)]
enum Walk<'a> {
    Dense {
        bits: &'a [u64],
        bounds: BoundsView<'a>,
        positions: &'a [u32],
        /// Code of bit 0 of the bitmap word `cur` came from.
        base: u32,
        /// Its set bits not yet yielded.
        cur: u64,
        /// Row of the lowest bit of `cur`.
        row: usize,
        end: u32,
    },
    Sparse {
        codes: &'a [u32],
        bounds: BoundsView<'a>,
        positions: &'a [u32],
        row: usize,
        end_row: usize,
    },
}

impl<'a> Iterator for PopulatedRows<'a> {
    type Item = (u32, &'a [u32]);

    fn next(&mut self) -> Option<(u32, &'a [u32])> {
        match &mut self.0 {
            Walk::Dense {
                bits,
                bounds,
                positions,
                base,
                cur,
                row,
                end,
            } => loop {
                if *cur != 0 {
                    let code = *base + cur.trailing_zeros();
                    if code >= *end {
                        *cur = 0;
                        return None;
                    }
                    *cur &= *cur - 1;
                    let r = *row;
                    *row += 1;
                    return Some((code, bounds.row(positions, r)));
                }
                if *base + 64 >= *end {
                    return None;
                }
                *base += 64;
                *cur = bits[(*base / 64) as usize];
            },
            Walk::Sparse {
                codes,
                bounds,
                positions,
                row,
                end_row,
            } => {
                if *row >= *end_row {
                    return None;
                }
                let r = *row;
                *row += 1;
                Some((codes[r], bounds.row(positions, r)))
            }
        }
    }
}

/// A forward cursor over an index's rows, for codes asked in ascending
/// order — how step 2 resolves each driving row's partner row when the
/// two indexes are not both dense (see the module docs' *Partner rows*).
/// [`RowCursor::seek`] answers exactly what [`BankIndex::occurrences`]
/// does. On a dense index that is the code's rank. On a sparse one the
/// cursor keeps its place in the sorted code list and gallops forward
/// from it: it probes 1, 2, 4, … codes ahead until it passes the code
/// asked, then binary-searches the last stride. A seek costs O(log d) for
/// a skip of d codes, so codes asked densely — a joint read chunk against
/// a volume — cost a probe or two each, and a whole ascending walk never
/// goes back over a code.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    index: &'a BankIndex,
    /// Sparse: every code before this row is below the codes still to be
    /// asked. Unused by a dense index.
    next: usize,
}

impl<'a> RowCursor<'a> {
    /// The occurrences of `code`, which must be at least every code asked
    /// before it and the cursor's start.
    #[inline]
    pub fn seek(&mut self, code: u32) -> &'a [u32] {
        let index = self.index;
        match &index.rows {
            RowIndex::Dense(_) => index.occurrences(code),
            RowIndex::Sparse(sparse) => {
                let codes = sparse.codes();
                let row = gallop(codes, self.next, code);
                self.next = row;
                if codes.get(row) == Some(&code) {
                    index.row(row)
                } else {
                    &[]
                }
            }
        }
    }
}

/// The first index at or after `from` whose code is at least `code`
/// (`codes.len()` if none), for an ascending `codes`: probe `from`, then
/// 1, 2, 4, … further on until a probe reaches `code` or the end, then
/// binary-search the stride the last step jumped.
#[inline]
fn gallop(codes: &[u32], from: usize, code: u32) -> usize {
    let mut lo = from;
    let mut hi = from;
    let mut step = 1;
    while hi < codes.len() && codes[hi] < code {
        lo = hi + 1;
        hi = lo + step;
        step *= 2;
    }
    let hi = hi.min(codes.len());
    lo + codes[lo..hi].partition_point(|&c| c < code)
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
}

impl Radix {
    fn new(w: usize) -> Radix {
        let bases = w.saturating_sub(MAX_RANK_BASES).max(MIN_RADIX_BASES).min(w);
        Radix {
            parts: 1 << (2 * bases),
            width: 1 << (2 * (w - bases)),
            shift: 2 * u32::try_from(w - bases).expect("seed width fits u32"),
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
    /// this, so no two runs share a word (1 from W = 6 on, where a
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

/// Dense row assembly: a radix-partitioned counting sort of the kept
/// positions by code, returning `(presence bitmap, row bounds,
/// postings)`.
///
/// Pass B scatters each kept position into the postings array by
/// partition, and its rank into a transient array of the same shape. The
/// slice histograms of pass A give every (partition, slice) pair its own
/// stretch, slices in bank order inside a partition, so each partition
/// receives its positions in ascending order whatever the worker count:
/// the scatter is stable by construction. Pass C then sorts every
/// partition in place by rank (see [`sort_partitions`]). Ranks are carried
/// rather than read back from the bank in pass C: a partition's positions
/// lie scattered over the whole bank, so re-reading their windows cost a
/// cache miss per posting — three times the whole of pass C, measured
/// with 1 024 partitions. The row bounds follow from the lengths pass C
/// leaves in the spent ranks, and take their place (see [`run_bounds`]):
/// the rank array becomes the `rel` section, cut to one entry per row.
fn dense_rows(
    data: &[u8],
    words: &[u64],
    slice_len: usize,
    coder: SeedCoder,
    radix: Radix,
    scans: &[SliceScan],
    postings: usize,
) -> (Vec<u64>, RowBounds, Vec<u32>) {
    let as_u32 =
        |n: usize| u32::try_from(n).expect("postings are bounded by the bank-length guard");
    // `pbase[p]` = postings in partitions before `p`.
    let mut pbase = vec![0u32; radix.parts + 1];
    for p in 0..radix.parts {
        let in_part: u32 = scans.iter().map(|s| s.hist[p]).sum();
        pbase[p + 1] = pbase[p] + in_part;
    }

    let mut positions = vec![0u32; postings];
    let mut ranks = vec![0u16; postings];
    // Pass B: per slice, one write cursor per partition into each array.
    {
        type Cursors<'a> = Vec<(std::slice::IterMut<'a, u32>, std::slice::IterMut<'a, u16>)>;
        let mut cursors: Vec<Cursors<'_>> = scans
            .iter()
            .map(|_| Vec::with_capacity(radix.parts))
            .collect();
        let mut pos_rest: &mut [u32] = &mut positions;
        let mut rank_rest: &mut [u16] = &mut ranks;
        for p in 0..radix.parts {
            for (scan, cursors) in scans.iter().zip(&mut cursors) {
                let n = scan.hist[p] as usize;
                let (pos, tail) = std::mem::take(&mut pos_rest).split_at_mut(n);
                pos_rest = tail;
                let (rank, tail) = std::mem::take(&mut rank_rest).split_at_mut(n);
                rank_rest = tail;
                cursors.push((pos.iter_mut(), rank.iter_mut()));
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
                        let (pos_slot, rank_slot) = &mut cursors[radix.part_of(code)];
                        let counted = "pass A counted this window";
                        // oris-lint: allow(narrow-cast) — guarded by the `data.len() < MAX_BANK_LEN` assert in build_sliced
                        *pos_slot.next().expect(counted) = pos as u32;
                        *rank_slot.next().expect(counted) = radix.rank_of(code);
                    }
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
    let run_words = |parts: &Range<usize>| (parts.len() * radix.width).div_ceil(64);
    let postings_of = |parts: &Range<usize>| pbase[parts.start] as usize..pbase[parts.end] as usize;
    let mut bits = vec![0u64; bitmap_words(coder.num_seeds())];
    let sorted: Vec<Vec<PartitionRows>> = {
        let mut bits_rest: &mut [u64] = &mut bits;
        let mut pos_rest: &mut [u32] = &mut positions;
        let mut rank_rest: &mut [u16] = &mut ranks;
        cuts.iter()
            .map(|parts| {
                let (bits, tail) = std::mem::take(&mut bits_rest).split_at_mut(run_words(parts));
                bits_rest = tail;
                let n = postings_of(parts).len();
                let (postings, tail) = std::mem::take(&mut pos_rest).split_at_mut(n);
                pos_rest = tail;
                let (ranks, tail) = std::mem::take(&mut rank_rest).split_at_mut(n);
                rank_rest = tail;
                (parts.clone(), bits, postings, ranks)
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(parts, bits, postings, ranks)| {
                sort_partitions(radix, &pbase, parts, bits, postings, ranks)
            })
            .collect()
    };
    // Row bounds, written into the spent ranks. Each run compacts its
    // rows' `rel`s to the head of its own stretch, where every row lands
    // at or before its length (a populated row holds a posting), and
    // writes the anchors of the groups it starts; then the runs move down
    // in ascending order, each to its first row, which lies at or before
    // the stretch it leaves. The groups no run could finish alone — cut
    // by a run's edge, or wide — are encoded last, in ascending order.
    let run_rows: Vec<usize> = sorted
        .iter()
        .map(|run| run.iter().map(|p| p.populated).sum())
        .collect();
    let rows: usize = run_rows.iter().sum();
    let mut anchors = vec![0u32; rows.div_ceil(GROUP)];
    let pieces: Vec<Vec<(usize, Vec<u32>)>> = {
        let mut bits_rest: &[u64] = &bits;
        let mut rank_rest: &mut [u16] = &mut ranks;
        let mut anchors_rest: &mut [u32] = &mut anchors;
        let mut first_row = 0;
        cuts.iter()
            .zip(&sorted)
            .zip(&run_rows)
            .map(|((parts, run), &n)| {
                let (bits, tail) = bits_rest.split_at(run_words(parts));
                bits_rest = tail;
                let (ranks, tail) =
                    std::mem::take(&mut rank_rest).split_at_mut(postings_of(parts).len());
                rank_rest = tail;
                let groups = (first_row + n).div_ceil(GROUP) - first_row.div_ceil(GROUP);
                let (anchors, tail) = std::mem::take(&mut anchors_rest).split_at_mut(groups);
                anchors_rest = tail;
                let at = first_row;
                first_row += n;
                (parts.clone(), run, bits, ranks, at, anchors)
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(parts, run, bits, ranks, first_row, anchors)| {
                let mut groups = GroupWriter::new(first_row, rows, anchors);
                run_bounds(radix, &pbase, parts, run, bits, ranks, &mut groups);
                groups.pieces
            })
            .collect()
    };
    let mut first_row = 0;
    for (parts, n) in cuts.iter().zip(run_rows) {
        let from = pbase[parts.start] as usize;
        ranks.copy_within(from..from + n, first_row);
        first_row += n;
    }
    ranks.truncate(rows);
    ranks.shrink_to_fit();
    let mut wide = Vec::new();
    let mut pieces = pieces.into_iter().flatten().peekable();
    while let Some((g, mut starts)) = pieces.next() {
        while let Some((_, more)) = pieces.next_if(|(h, _)| *h == g) {
            starts.extend(more);
        }
        let rel = &mut ranks[g * GROUP..g * GROUP + starts.len()];
        debug_assert_eq!(starts.len(), rows.min(g * GROUP + GROUP) - g * GROUP);
        anchors[g] = encode_group(&starts, rel, &mut wide);
    }
    let bounds = RowBounds {
        rel: ranks.into(),
        anchors: anchors.into(),
        wide: wide.into(),
    };
    (bits, bounds, positions)
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

/// The populated rows of a partition, as the offsets of its counters:
/// calls `f(r)` for every set bit `r` of `bits`' stretch `[first_bit,
/// first_bit + width)`, in ascending order.
#[inline]
fn for_each_set_bit(bits: &[u64], first_bit: usize, width: usize, mut f: impl FnMut(usize)) {
    for j in 0..width.div_ceil(64) {
        let bit = first_bit + 64 * j;
        let mut word = bits[bit / 64] >> (bit % 64);
        if width < 64 {
            word &= (1u64 << width) - 1;
        }
        while word != 0 {
            f(64 * j + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Pass C over one run of partitions: sorts each partition by rank —
/// count into a `4^8`-counter scratch, prefix-sum, scatter through a copy
/// of the partition, all within the scratch and the partition's few tens
/// of kilobytes — setting the bits of its populated codes in `bits` (the
/// run's words) as it goes. Once a partition is sorted its ranks are
/// spent, so the head of their stretch takes the populated rows' lengths
/// for [`run_bounds`].
fn sort_partitions(
    radix: Radix,
    pbase: &[u32],
    parts: Range<usize>,
    bits: &mut [u64],
    mut postings: &mut [u32],
    mut ranks: &mut [u16],
) -> Vec<PartitionRows> {
    let mut out = Vec::with_capacity(parts.len());
    // Per row: its count, then its start, then its write cursor.
    let mut rows = vec![0u32; radix.width];
    // The populated rows' lengths, gathered as the prefix sum meets them:
    // written at every row and kept only where the row is populated, so
    // the sum takes no data-dependent branch.
    let mut lengths = vec![0u16; radix.width];
    // The partition's positions in scatter order.
    let mut held: Vec<u32> = Vec::new();
    for (i, p) in parts.enumerate() {
        let base = pbase[p];
        let len = (pbase[p + 1] - base) as usize;
        let (stretch, tail) = std::mem::take(&mut postings).split_at_mut(len);
        postings = tail;
        let (stretch_ranks, tail) = std::mem::take(&mut ranks).split_at_mut(len);
        ranks = tail;
        if stretch.is_empty() {
            out.push(PartitionRows {
                populated: 0,
                lengths: true,
            });
            continue;
        }
        held.clear();
        held.extend_from_slice(stretch);
        // Count per row...
        for &rank in stretch_ranks.iter() {
            rows[usize::from(rank)] += 1;
        }
        // ...exclusive prefix-sum in place (`rows[r]` = start of row `r`),
        // one bitmap word per 64 rows (a partition narrower than a word
        // fills its share of one)...
        let first_bit = i * radix.width;
        let mut sum = base;
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
            bits[bit / 64] |= word << (bit % 64);
        }
        // ...and scatter, each row's start slot serving as its write
        // cursor. The forward walk keeps positions ascending in a row.
        for (&pos, &rank) in held.iter().zip(stretch_ranks.iter()) {
            let slot = &mut rows[usize::from(rank)];
            stretch[(*slot - base) as usize] = pos;
            *slot += 1;
        }
        rows.fill(0);
        // n ≤ len: every populated row holds a posting.
        if wide == 0 {
            stretch_ranks[..n].copy_from_slice(&lengths[..n]);
        }
        out.push(PartitionRows {
            populated: n,
            lengths: wide == 0,
        });
    }
    out
}

/// One run's share of the row bounds: takes its rows' starts in order
/// and, for each 64-row group the run holds whole and narrow, writes the
/// anchor and the `rel`s over the head of the run's rank stretch; any
/// other piece of a group — cut by the run's edge, or wide — it keeps,
/// for the encoding that follows the runs.
struct GroupWriter<'a> {
    /// The run's first row (global).
    first_row: usize,
    /// The next row's global index.
    row: usize,
    /// The first row of the piece in `starts`.
    piece: usize,
    /// Rows of the whole index.
    rows: usize,
    /// Starts of the piece so far, at their place in the group.
    starts: [u32; GROUP],
    /// Anchors of the groups whose first row lies in the run.
    anchors: &'a mut [u32],
    /// `(group, starts)` of each piece left to encode.
    pieces: Vec<(usize, Vec<u32>)>,
}

impl<'a> GroupWriter<'a> {
    /// A writer for the run whose rows start at `first_row`, of `rows` in
    /// all, with the anchors of the groups that start inside it.
    fn new(first_row: usize, rows: usize, anchors: &'a mut [u32]) -> GroupWriter<'a> {
        GroupWriter {
            first_row,
            row: first_row,
            piece: first_row,
            rows,
            starts: [0; GROUP],
            anchors,
            pieces: Vec::new(),
        }
    }

    /// Takes the next row's start; `ranks` is the run's stretch.
    #[inline]
    fn push(&mut self, start: u32, ranks: &mut [u16]) {
        self.starts[self.row % GROUP] = start;
        self.row += 1;
        if self.row.is_multiple_of(GROUP) || self.row == self.rows {
            self.flush(ranks);
        }
    }

    /// Ends the piece in `starts`: a whole narrow group is written, any
    /// other piece kept.
    fn flush(&mut self, ranks: &mut [u16]) {
        if self.piece == self.row {
            return;
        }
        let g = self.piece / GROUP;
        let starts = &self.starts[self.piece % GROUP..(self.row - 1) % GROUP + 1];
        let whole =
            self.piece.is_multiple_of(GROUP) && self.row == self.rows.min(g * GROUP + GROUP);
        if whole && !is_wide(starts) {
            let at = self.piece - self.first_row;
            self.anchors[g - self.first_row.div_ceil(GROUP)] =
                encode_narrow(starts, &mut ranks[at..at + starts.len()]);
        } else {
            self.pieces.push((g, starts.to_vec()));
        }
        self.piece = self.row;
    }
}

/// Row bounds of one run of partitions, once pass C has sorted them: per
/// partition, a running sum over the row lengths it left at the head of
/// its rank stretch — or, for a partition with a row past `u16`, a
/// recount of its ranks read back along its set bits — hands `groups`
/// each row's start. Every row's `rel` lands at or before the length it
/// came from, which is read first, so the run compacts in place.
fn run_bounds(
    radix: Radix,
    pbase: &[u32],
    parts: Range<usize>,
    run: &[PartitionRows],
    bits: &[u64],
    ranks: &mut [u16],
    groups: &mut GroupWriter<'_>,
) {
    let mut counts = Vec::new();
    let mut at = 0;
    for ((i, p), part) in parts.enumerate().zip(run) {
        let len = (pbase[p + 1] - pbase[p]) as usize;
        let mut sum = pbase[p];
        if part.lengths {
            for j in at..at + part.populated {
                let length = ranks[j];
                groups.push(sum, ranks);
                sum += u32::from(length);
            }
        } else {
            counts.resize(radix.width, 0u32);
            for &rank in &ranks[at..at + len] {
                counts[usize::from(rank)] += 1;
            }
            for_each_set_bit(bits, i * radix.width, radix.width, |r| {
                groups.push(sum, ranks);
                sum += std::mem::take(&mut counts[r]);
            });
        }
        at += len;
    }
    groups.flush(ranks);
}

/// Sparse row assembly: the kept windows as `code·2^32 + position` keys,
/// sorted — ascending code, ascending position inside a code, the exact
/// postings order of the dense build — then split into the distinct
/// codes, their row boundaries and the postings. Cost is
/// `O(postings · log postings)`, independent of `4^W`; eight transient
/// bytes per posting, on banks that are small against the code space by
/// the definition of this row map.
fn sparse_rows(
    data: &[u8],
    words: &[u64],
    coder: SeedCoder,
    postings: usize,
) -> (Vec<u32>, RowBounds, Vec<u32>) {
    let mut keys: Vec<u64> = Vec::with_capacity(postings);
    keys.extend(
        slice_windows(data, 0, words.len(), coder)
            .filter(|&(pos, _)| is_kept(words, pos))
            .map(|(pos, code)| u64::from(code) << 32 | pos as u64),
    );
    keys.sort_unstable();
    let mut codes: Vec<u32> = Vec::new();
    let mut starts: Vec<u32> = Vec::new();
    let mut positions: Vec<u32> = Vec::with_capacity(keys.len());
    for &key in &keys {
        // oris-lint: allow(narrow-cast) — the two halves the key was packed from
        let (code, pos) = ((key >> 32) as u32, key as u32);
        if codes.last() != Some(&code) {
            codes.push(code);
            starts.push(
                u32::try_from(positions.len())
                    .expect("position count is u32-bounded by the bank-length guard"),
            );
        }
        positions.push(pos);
    }
    (codes, RowBounds::from_starts(&starts), positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;
    use proptest::prelude::*;

    /// The hashed code→row lookup the sparse layout carried before the
    /// row cursor, kept as an oracle of the cursor's answers: an
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
        assert_eq!(idx.occurrences(code), &[1, 5, 9]);
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
        for &p in occ {
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
        assert_eq!(idx.first(code), None);
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
        assert_eq!(idx.occurrences(code), &[5]);
    }

    /// The row bounds' footprint for `k` rows in groups whose starts fit
    /// `u16`s: two bytes per row and a four-byte anchor per 64 rows.
    fn bounds_bytes(k: usize) -> usize {
        2 * k + 4 * k.div_ceil(64)
    }

    /// The dense footprint model: a presence bitmap of ⌈4^W/64⌉ words
    /// and one u32 rank per word (`3·4^W/16` bytes from W = 3 on), the row
    /// bounds of the distinct codes, 4 bytes per *indexed* position, 1 bit
    /// per bank position for the occurrence set. The
    /// `stats_match_footprint_model_*` tests pin this model, so they force
    /// [`IndexBackend::Dense`] — Auto would pick sparse for these banks at
    /// W = 8.
    fn expected_index_bytes(
        bank: &Bank,
        w: usize,
        distinct: usize,
        indexed_positions: usize,
    ) -> usize {
        let n = bank.data().len();
        12 * (1usize << (2 * w)).div_ceil(64)
            + bounds_bytes(distinct)
            + 4 * indexed_positions
            + n.div_ceil(64) * 8
    }

    /// The sparse footprint model: 4 bytes per populated code, the row
    /// bounds, postings and bit-set as dense.
    fn expected_sparse_bytes(bank: &Bank, distinct: usize, indexed_positions: usize) -> usize {
        let n = bank.data().len();
        4 * distinct + bounds_bytes(distinct) + 4 * indexed_positions + n.div_ceil(64) * 8
    }

    #[test]
    fn stats_match_footprint_model_full() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]); // 16 kb
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Dense);
        let idx = BankIndex::build(&bank, cfg);
        let stats = idx.stats();
        let n = bank.data().len();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.distinct_seeds, stats.indexed_positions)
        );
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
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Dense);
        // Mask the first half of the bank: the postings array must shrink
        // by (roughly) the masked windows.
        let idx = BankIndex::build_filtered(&bank, cfg, |p| p < n / 2);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.distinct_seeds, stats.indexed_positions)
        );
        let full = BankIndex::build(&bank, cfg).stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 16);
        assert!(stats.index_bytes < full.index_bytes);
    }

    #[test]
    fn stats_match_footprint_model_asymmetric() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let cfg = IndexConfig::asymmetric(8).with_backend(IndexBackend::Dense);
        let idx = BankIndex::build(&bank, cfg);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.distinct_seeds, stats.indexed_positions)
        );
        // Half the windows → half the postings bytes, and the row
        // boundaries of the codes only odd positions held (the bitmap and
        // the bit-set don't depend on the stride).
        let full = BankIndex::build(
            &bank,
            IndexConfig::full(8).with_backend(IndexBackend::Dense),
        )
        .stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 2);
        assert_eq!(
            full.index_bytes - stats.index_bytes,
            4 * (full.indexed_positions - stats.indexed_positions)
                + bounds_bytes(full.distinct_seeds)
                - bounds_bytes(stats.distinct_seeds)
        );
    }

    #[test]
    fn sparse_stats_match_sparse_footprint_model() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Sparse);
        let idx = BankIndex::build(&bank, cfg);
        assert_eq!(idx.backend(), IndexBackend::Sparse);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_sparse_bytes(&bank, stats.distinct_seeds, stats.indexed_positions)
        );
        assert_eq!(stats.distinct_seeds, idx.distinct_codes());
    }

    #[test]
    fn sparse_footprint_wins_big_at_w11() {
        // At W = 11 on a small bank the dense map pays its 768 KB of
        // bitmap and ranks whatever the bank populates; the code list pays
        // 4 bytes per populated code beside the row bounds both maps
        // carry. Both follow their models, and sparse is ≤ 1/10 of dense
        // here.
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]); // 10 kb
        let dense = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Dense),
        );
        let sparse = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Sparse),
        );
        let (ds, ss) = (dense.stats(), sparse.stats());
        assert_eq!(
            ds.index_bytes,
            expected_index_bytes(&bank, 11, ds.distinct_seeds, ds.indexed_positions)
        );
        assert_eq!(
            ss.index_bytes,
            expected_sparse_bytes(&bank, ss.distinct_seeds, ss.indexed_positions)
        );
        assert_eq!(
            ds.index_bytes - ss.index_bytes,
            3 * (1 << 22) / 16 - 4 * ss.distinct_seeds
        );
        let (db, sb) = (ds.index_bytes, ss.index_bytes);
        assert!(
            sb * 10 <= db,
            "sparse {sb} bytes not ≤ 1/10 of dense {db} bytes"
        );
    }

    #[test]
    fn auto_picks_sparse_for_small_bank_large_w() {
        // 10 kb of bank cannot populate more than ~10k of the 4^11 ≈ 4.2M
        // codes: the code list is smaller, and Auto must choose it.
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(11));
        assert_eq!(idx.backend(), IndexBackend::Sparse);
    }

    #[test]
    fn auto_picks_dense_for_dense_code_space() {
        // 16 kb of bank at W = 4 (256 codes): essentially every code is
        // populated — Auto must choose dense.
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        assert_eq!(idx.backend(), IndexBackend::Dense);
        // The rule is the two models' crossing with one code per posting,
        // the most a bank can populate: dense from 3·4^W/16 = 4·postings
        // on — 3 072 postings at W = 8 (196 608 at W = 11).
        for (postings, backend) in [(3071, IndexBackend::Sparse), (3072, IndexBackend::Dense)] {
            let bank = bank_of(&[&random_dna(postings + 7)]);
            let idx = BankIndex::build(&bank, IndexConfig::full(8));
            assert_eq!(idx.indexed_positions(), postings);
            assert_eq!(idx.backend(), backend, "{postings} postings");
            let dense_model = expected_index_bytes(&bank, 8, postings, postings);
            let sparse_model = expected_sparse_bytes(&bank, postings, postings);
            assert_eq!(dense_model <= sparse_model, backend == IndexBackend::Dense);
        }
    }

    #[test]
    fn empty_bank_builds() {
        let bank = Bank::empty();
        for backend in [
            IndexBackend::Dense,
            IndexBackend::Sparse,
            IndexBackend::Auto,
        ] {
            let idx = BankIndex::build(&bank, IndexConfig::full(4).with_backend(backend));
            assert_eq!(idx.indexed_positions(), 0);
            assert_eq!(idx.stats().distinct_seeds, 0);
            assert_eq!(idx.populated().count(), 0);
            // No window was policy-excluded (vacuously): the fast path is
            // safe.
            assert!(idx.is_fully_indexed());
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
        // A dense build's row bounds: one start per populated code, from
        // 0, strictly increasing, the rows tiling the postings; its bitmap
        // is ⌈4^W/64⌉ words holding one bit per populated code.
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        for w in [2, 4] {
            let idx = BankIndex::build(
                &bank,
                IndexConfig::full(w).with_backend(IndexBackend::Dense),
            );
            let RowIndex::Dense(bitmap) = idx.rows() else {
                panic!("dense build")
            };
            let bounds = idx.rows().bounds();
            assert_eq!(bounds.len(), idx.distinct_codes());
            let mut end = 0;
            for r in 0..bounds.len() {
                assert_eq!(bounds.view().start(r), end, "row {r}");
                end += bounds.row(idx.positions(), r).len();
                assert!(end > bounds.view().start(r), "row {r} is empty");
            }
            assert_eq!(end, idx.indexed_positions());
            assert_eq!(bitmap.bits().len(), idx.coder().num_seeds().div_ceil(64));
            let set: u32 = bitmap.bits().iter().map(|w| w.count_ones()).sum();
            assert_eq!(set as usize, idx.distinct_codes());
        }
    }

    #[test]
    fn sparse_has_no_dense_offsets() {
        // A sparse build carries no bitmap: its rows are found through
        // the code list, and it never takes part in a bitmap AND walk.
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Sparse),
        );
        assert!(matches!(idx.rows(), RowIndex::Sparse(_)));
        assert_eq!(idx.backend(), IndexBackend::Sparse);
        let dense = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Dense),
        );
        let visit = |a: &BankIndex, b: &BankIndex| {
            let mut calls = 0;
            let done = a.for_each_shared(b, 0..256, |_, _, _| {
                calls += 1;
                Ok::<(), ()>(())
            });
            (done, calls)
        };
        assert_eq!(visit(&idx, &dense), (None, 0));
        assert_eq!(visit(&dense, &idx), (None, 0));
        assert_eq!(
            visit(&dense, &dense),
            (Some(Ok(())), dense.distinct_codes())
        );
    }

    #[test]
    fn populated_in_respects_range_bounds() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
            let idx = BankIndex::build(&bank, IndexConfig::full(4).with_backend(backend));
            let num = idx.coder().num_seeds() as u32;
            let all: Vec<u32> = idx.populated().map(|(c, _)| c).collect();
            assert!(all.windows(2).all(|p| p[0] < p[1]), "ascending codes");
            assert_eq!(all.len(), idx.distinct_codes());
            // Split the space at an arbitrary boundary: the two halves
            // must partition the full walk.
            let mid = num / 3;
            let lo: Vec<u32> = idx.populated_in(0..mid).map(|(c, _)| c).collect();
            let hi: Vec<u32> = idx.populated_in(mid..num).map(|(c, _)| c).collect();
            let glued: Vec<u32> = lo.iter().chain(hi.iter()).copied().collect();
            assert_eq!(glued, all, "{backend:?}");
            // Row contents agree with occurrences().
            for (code, row) in idx.populated() {
                assert_eq!(row, idx.occurrences(code));
                assert!(!row.is_empty());
            }
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
            "oris_row_cursor_{}_{}.oidx",
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
        // The construction the cursor proptest relies on: the oracle's
        // table over these codes holds codes off their home slot, so an
        // oracle lookup meets a key that is not its code.
        let picks: Vec<u32> = (0..20u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let codes = codes_with_collisions(5, &picks);
        assert_eq!(codes.len(), picks.len());
        let coder = SeedCoder::new(5);
        let idx = BankIndex::build(
            &bank_of_codes(coder, &codes),
            IndexConfig::full(5).with_backend(IndexBackend::Sparse),
        );
        let RowIndex::Sparse(sparse) = idx.rows() else {
            panic!("sparse build")
        };
        let keys = sparse.codes();
        let slots = build_slot_table(keys);
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

            /// Whether `idx` is this index: postings, row bounds encoded
            /// as [`RowBounds::from_starts`] encodes the oracle's row
            /// starts, bit-set, provenance,
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
                // The one encoding of these rows' starts.
                let bounds = RowBounds::from_starts(&self.row_offsets[..self.codes.len()]);
                idx.positions() == self.positions
                    && idx.rows().bounds().sections() == bounds.sections()
                    && idx.indexed_words() == self.indexed.words()
                    && idx.is_fully_indexed() == self.fully_indexed
                    && idx.populated().eq(self.rows())
                    && answers
                    && stats.indexed_positions == self.positions.len()
                    && stats.distinct_seeds == self.codes.len()
                    && stats.distinct_seeds == idx.distinct_codes()
                    && stats.max_chain_len == rows.max().unwrap_or(0)
            }
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

    /// Dense builds at the widths the pipeline runs at — W = 11, and 10
    /// for the asymmetric stride — where pass B scatters into 64
    /// partitions and a rank holds eight bases; the proptest below draws
    /// `w < 8`.
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
            let cfg = cfg.with_backend(IndexBackend::Dense);
            let oracle = oracle::build(&bank, cfg, masked);
            for threads in [1usize, 2, 4, 7] {
                let built = in_pool(threads, || BankIndex::build_filtered(&bank, cfg, masked));
                assert!(oracle.matches(&built), "{cfg:?}, threads {threads}");
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
            let cfg = IndexConfig::full(w).with_backend(IndexBackend::Dense);
            let oracle = oracle::build(&bank, cfg, |_| false);
            assert!(oracle.occurrences(0).len() > 1 << 16);
            for threads in [1, 2] {
                let built = in_pool(threads, || {
                    BankIndex::build_sliced(&bank, cfg, |_| false, 4096)
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
        for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
            let cfg = IndexConfig::full(6).with_backend(backend);
            let built = in_pool(7, || BankIndex::build_filtered(&bank, cfg, masked));
            assert_eq!(built.backend(), backend);
            if backend == IndexBackend::Dense {
                assert!(oracle::build(&bank, cfg, masked).matches(&built));
            }
        }
        assert!(calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    proptest! {
        /// The CSR index reproduces the brute-force occurrence list for
        /// every seed, in sorted order, for random banks and strides —
        /// under either backend.
        #[test]
        fn index_equals_bruteforce(
            seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..4),
            w in 2usize..6,
            stride in 1usize..3,
            dense in 0usize..2,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let backend = if dense == 1 { IndexBackend::Dense } else { IndexBackend::Sparse };
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }.with_backend(backend);
            let idx = BankIndex::build(&bank, cfg);
            let mut expected = reference_occurrences(&bank, w, stride);
            expected.sort_by_key(|&(_, code)| code);

            let mut got: Vec<(u32, u32)> = Vec::new();
            for code in 0..idx.coder().num_seeds() as u32 {
                let occ = idx.occurrences(code);
                // rows are sorted ascending
                prop_assert!(occ.windows(2).all(|p| p[0] < p[1]));
                got.extend(occ.iter().map(|&p| (p, code)));
            }
            let mut expected_sorted = expected.clone();
            expected_sorted.sort();
            got.sort();
            prop_assert_eq!(got, expected_sorted);
        }

        /// The sparse backend is observationally identical to the dense
        /// backend: same occurrences slice for every code, same postings
        /// array, same bit-set, provenance, distinct/max-chain stats and
        /// populated-row walk — only the footprint differs.
        #[test]
        fn sparse_backend_equals_dense(
            seqs in proptest::collection::vec("[ACGTN]{0,60}", 1..4),
            w in 2usize..8,
            stride in 1usize..3,
            mask_mod in 1usize..9,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let base = IndexConfig { stride, ..IndexConfig::full(w) };
            let dense = BankIndex::build_filtered(
                &bank, base.with_backend(IndexBackend::Dense), masked,
            );
            let sparse = BankIndex::build_filtered(
                &bank, base.with_backend(IndexBackend::Sparse), masked,
            );
            prop_assert_eq!(dense.positions(), sparse.positions());
            prop_assert_eq!(dense.indexed_words(), sparse.indexed_words());
            prop_assert_eq!(dense.is_fully_indexed(), sparse.is_fully_indexed());
            prop_assert_eq!(dense.distinct_codes(), sparse.distinct_codes());
            for code in 0..dense.coder().num_seeds() as u32 {
                prop_assert_eq!(dense.occurrences(code), sparse.occurrences(code));
            }
            let dw: Vec<(u32, Vec<u32>)> =
                dense.populated().map(|(c, r)| (c, r.to_vec())).collect();
            let sw: Vec<(u32, Vec<u32>)> =
                sparse.populated().map(|(c, r)| (c, r.to_vec())).collect();
            prop_assert_eq!(dw, sw);
            let ds = dense.stats();
            let ss = sparse.stats();
            prop_assert_eq!(ds.distinct_seeds, ss.distinct_seeds);
            prop_assert_eq!(ds.indexed_positions, ss.indexed_positions);
            prop_assert_eq!(ds.max_chain_len, ss.max_chain_len);
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
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }
                .with_backend(IndexBackend::Dense);
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let oracle = oracle::build(&bank, cfg, masked);
            for threads in [1usize, 2, 4, 7] {
                let built = in_pool(threads, || BankIndex::build_sliced(&bank, cfg, masked, grain));
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

        /// The row cursor answers every code exactly as a binary search of
        /// the code list and as the old slot table's lookup do: dense and
        /// sparse, freshly built, decoded to the heap and mapped from a
        /// file; from a cursor started at code 0 and one started mid-list;
        /// present codes, absent ones, codes whose home slot another code
        /// owns, codes past the last populated one, and an index of zero
        /// codes. Sparse `occurrences` is held to the same answers.
        #[test]
        fn cursor_lookup_equals_binary_search_and_slot_oracle(
            w in 4usize..7,
            picks in proptest::collection::vec(0u32..u32::MAX, 0..48),
            queries in proptest::collection::vec(0u32..u32::MAX, 0..80),
            start in 0u32..u32::MAX,
        ) {
            let coder = SeedCoder::new(w);
            let num = coder.num_seeds() as u32;
            let codes = codes_with_collisions(w, &picks);
            let bank = bank_of_codes(coder, &codes);
            // Even draws ask a present code, odd draws any code; the walk
            // asks them ascending, repeats included, then the last code.
            let mut asked: Vec<u32> = queries
                .iter()
                .map(|&q| match codes.len() {
                    n if n > 0 && q % 2 == 0 => codes[(q / 2) as usize % n],
                    _ => q / 2 % num,
                })
                .collect();
            asked.push(num - 1);
            asked.sort_unstable();
            let slots = build_slot_table(&codes);
            let start = start % num;
            for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
                let built = BankIndex::build(&bank, IndexConfig::full(w).with_backend(backend));
                prop_assert_eq!(built.distinct_codes(), codes.len());
                let [heap, mapped] = round_trips(&built);
                prop_assert!(codes.is_empty() || mapped.is_mmap_backed());
                for idx in [&built, &heap, &mapped] {
                    // Row r of the populated walk belongs to codes[r].
                    let rows: Vec<&[u32]> = idx.populated().map(|(_, row)| row).collect();
                    for from in [0, start] {
                        let mut cursor = idx.cursor_from(from);
                        for &code in asked.iter().filter(|&&c| c >= from) {
                            let row = codes.binary_search(&code).ok();
                            prop_assert_eq!(sparse_row_of(&codes, &slots, code), row);
                            let want = row.map_or(&[][..], |r| rows[r]);
                            prop_assert!(cursor.seek(code) == want, "code {}", code);
                            prop_assert_eq!(idx.occurrences(code), want);
                        }
                    }
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

    /// Holds `idx` to `oracle` on the reads step 2 makes: every answer of
    /// [`oracle::Built::matches`], the populated walk over each of
    /// `ranges`, and a cursor started at `start` seeking the oracle's
    /// codes and `probes` in ascending order.
    fn assert_rows_answer_as(
        oracle: &oracle::Built,
        idx: &BankIndex,
        ranges: &[Range<u32>],
        start: u32,
        probes: &[u32],
    ) {
        let label = format!("{:?}, mapped {}", idx.backend(), idx.is_mmap_backed());
        assert!(oracle.matches(idx), "{label}");
        let num = idx.coder().num_seeds() as u32;
        for range in ranges {
            let got: Vec<(u32, &[u32])> = idx.populated_in(range.clone()).collect();
            let want: Vec<(u32, &[u32])> = oracle
                .codes()
                .iter()
                .filter(|c| range.contains(c))
                .map(|&c| (c, oracle.occurrences(c)))
                .collect();
            assert_eq!(got, want, "{label}, range {range:?}");
        }
        let mut asked: Vec<u32> = oracle
            .codes()
            .iter()
            .copied()
            .chain(probes.iter().map(|&p| p % num))
            .chain([num - 1])
            .filter(|&c| c >= start)
            .collect();
        asked.sort_unstable();
        let mut cursor = idx.cursor_from(start);
        for code in asked {
            assert_eq!(
                cursor.seek(code),
                oracle.occurrences(code),
                "{label}, code {code}"
            );
        }
    }

    proptest! {
        /// The two row maps and the `offsets[4^W + 1]` oracle give the
        /// same answers — `occurrences` for every code (every populated
        /// code and its neighbours past W = 8), the populated walk over
        /// random ranges, cursor seeks started mid-range, `stats()` and
        /// `distinct_codes` — at every W from 1 to 13 (below W = 3 the
        /// bitmap is part of one word), for random banks and the edge
        /// banks (empty, all masked, one code), strides 1 and 2, built
        /// by pools of 1, 2, 4 and 7 workers over slices of a few words,
        /// and decoded from an index file to the heap and mapped.
        #[test]
        fn row_maps_equal_the_offsets_oracle(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..5),
            kind in 0usize..8,
            w in 1usize..=13,
            stride in 1usize..3,
            mask_mod in 0usize..9,
            grain in 1usize..200,
            lows in proptest::collection::vec(0u32..u32::MAX, 1..5),
            highs in proptest::collection::vec(0u32..u32::MAX, 1..5),
            start in 0u32..u32::MAX,
            probes in proptest::collection::vec(0u32..u32::MAX, 0..64),
        ) {
            let bank = match kind {
                0 => Bank::empty(),
                // One code: a poly-A record holds only code 0.
                1 => bank_of(&[&"A".repeat(70)]),
                _ => bank_of(&seqs.iter().map(String::as_str).collect::<Vec<_>>()),
            };
            // mask_mod 0 masks every window, 1 none.
            let masked = |p: usize| match mask_mod {
                0 => true,
                1 => false,
                m => p.is_multiple_of(m),
            };
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let num = 1u64 << (2 * w);
            let ranges: Vec<Range<u32>> = lows
                .iter()
                .zip(&highs)
                .map(|(&a, &b)| {
                    let (a, b) = ((u64::from(a) % (num + 1)) as u32, (u64::from(b) % (num + 1)) as u32);
                    a.min(b)..a.max(b)
                })
                .collect();
            let start = (u64::from(start) % num) as u32;
            let oracle = oracle::build(&bank, cfg, masked);
            for threads in [1usize, 2, 4, 7] {
                for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
                    let cfg = cfg.with_backend(backend);
                    let built =
                        in_pool(threads, || BankIndex::build_sliced(&bank, cfg, masked, grain));
                    prop_assert_eq!(built.backend(), backend);
                    assert_rows_answer_as(&oracle, &built, &ranges, start, &probes);
                    if threads == 1 {
                        for loaded in round_trips(&built) {
                            prop_assert_eq!(loaded.backend(), backend);
                            prop_assert_eq!(loaded.stats().distinct_seeds, built.stats().distinct_seeds);
                            prop_assert_eq!(loaded.stats().max_chain_len, built.stats().max_chain_len);
                            assert_rows_answer_as(&oracle, &loaded, &ranges, start, &probes);
                        }
                    }
                }
            }
        }

        /// Two dense indexes walked together visit exactly the codes
        /// populated in both, in ascending order, with each side's
        /// `occurrences` — over random ranges, at widths whose bitmap is
        /// part of a word, one word and many.
        #[test]
        fn shared_rows_visit_the_codes_populated_in_both(
            seqs1 in proptest::collection::vec("[ACGTN]{0,200}", 1..4),
            seqs2 in proptest::collection::vec("[ACGTN]{0,200}", 1..4),
            w in 1usize..=7,
            low in 0u32..u32::MAX,
            high in 0u32..u32::MAX,
        ) {
            let dense = IndexConfig::full(w).with_backend(IndexBackend::Dense);
            let i1 = BankIndex::build(&bank_of(&seqs1.iter().map(String::as_str).collect::<Vec<_>>()), dense);
            let i2 = BankIndex::build(&bank_of(&seqs2.iter().map(String::as_str).collect::<Vec<_>>()), dense);
            let num = 1u32 << (2 * w);
            let (a, b) = (low % (num + 1), high % (num + 1));
            for range in [0..num, a.min(b)..a.max(b)] {
                let mut got: Vec<(u32, &[u32], &[u32])> = Vec::new();
                let done = i1.for_each_shared(&i2, range.clone(), |c, x1, x2| {
                    got.push((c, x1, x2));
                    Ok::<(), ()>(())
                });
                prop_assert_eq!(done, Some(Ok(())));
                let want: Vec<(u32, &[u32], &[u32])> = range
                    .clone()
                    .map(|c| (c, i1.occurrences(c), i2.occurrences(c)))
                    .filter(|(_, x1, x2)| !x1.is_empty() && !x2.is_empty())
                    .collect();
                prop_assert!(got == want, "range {:?}", range);
            }
        }
    }

    /// Row starts that make every kind of group: narrow ones, one spanning
    /// exactly `u16::MAX` postings (still narrow), one spanning 2^16
    /// (wide), and from 2^31 on only wide ones, the last group short.
    fn starts_of_every_group_kind() -> Vec<u32> {
        let mut starts = vec![0u32];
        let gaps = |gap: u32, n: usize, starts: &mut Vec<u32>| {
            for _ in 0..n {
                starts.push(starts.last().unwrap() + gap);
            }
        };
        gaps(3, 63, &mut starts);
        gaps(1, 63, &mut starts);
        gaps(u32::from(u16::MAX) - 62, 1, &mut starts);
        gaps(1, 63, &mut starts);
        gaps(u32::from(u16::MAX) - 61, 1, &mut starts);
        gaps(5, 64, &mut starts);
        gaps(WIDE - starts.last().unwrap(), 1, &mut starts);
        gaps(7, 63 + 10, &mut starts);
        starts
    }

    #[test]
    fn wide_groups_keep_u32_starts() {
        let starts = starts_of_every_group_kind();
        let postings = *starts.last().unwrap() as usize + 9;
        let bounds = RowBounds::from_starts(&starts);
        let (rel, anchors, wide) = bounds.sections();
        assert_eq!(rel.len(), starts.len());
        assert_eq!(anchors.len(), starts.len().div_ceil(GROUP));
        let flags: Vec<bool> = anchors.iter().map(|&a| a & WIDE != 0).collect();
        assert_eq!(flags, [false, false, true, false, true, true]);
        assert_eq!(wide.len(), 64 + 64 + 10);
        assert!(rel[2 * GROUP..3 * GROUP].iter().all(|&r| r == 0));
        assert_eq!(rel[2 * GROUP - 1], u16::MAX);
        // Every start decodes to itself, on the heap and as decoded
        // sections, and the decoder takes the sections as they are.
        let decoded = RowBounds::from_raw_parts(
            rel.to_vec().into(),
            anchors.to_vec().into(),
            wide.to_vec().into(),
            postings,
        )
        .unwrap();
        for b in [&bounds, &decoded] {
            for (r, &s) in starts.iter().enumerate() {
                assert_eq!(b.view().start(r), s as usize, "row {r}");
            }
        }
        // A last row ending exactly at its start is refused.
        let short = RowBounds::from_raw_parts(
            rel.to_vec().into(),
            anchors.to_vec().into(),
            wide.to_vec().into(),
            *starts.last().unwrap() as usize,
        );
        assert!(short.unwrap_err().starts_with("last row starts at"));
    }

    #[test]
    fn row_bounds_refuse_every_broken_section() {
        // Each lie a decoded file could tell about its row bounds, and
        // the error it gets; `bounds` is the honest encoding.
        let starts = starts_of_every_group_kind();
        let postings = *starts.last().unwrap() as usize + 9;
        let bounds = RowBounds::from_starts(&starts);
        let (rel, anchors, wide) = bounds.sections();
        let refused = |rel: &[u16], anchors: &[u32], wide: &[u32], postings: usize, want: &str| {
            let got = RowBounds::from_raw_parts(
                rel.to_vec().into(),
                anchors.to_vec().into(),
                wide.to_vec().into(),
                postings,
            );
            match got {
                Err(msg) => assert!(msg.contains(want), "{msg} (wanted {want})"),
                Ok(_) => panic!("accepted bounds that {want}"),
            }
        };
        let with = |v: &[u16], i: usize, x: u16| {
            let mut v = v.to_vec();
            v[i] = x;
            v
        };
        let with32 = |v: &[u32], i: usize, x: u32| {
            let mut v = v.to_vec();
            v[i] = x;
            v
        };
        // A boundary that decreases, inside a group.
        refused(
            &with(rel, 5, rel[3]),
            anchors,
            wide,
            postings,
            "not strictly increasing",
        );
        // A rel past the next group's anchor.
        refused(
            &with(rel, 63, u16::MAX),
            anchors,
            wide,
            postings,
            "beyond its group's span",
        );
        // A narrow group whose first row is off its anchor.
        refused(
            &with(rel, 64, 1),
            anchors,
            wide,
            postings,
            "does not start at its anchor",
        );
        // A wide flag pointing past the side array, and one out of order.
        let past = WIDE | wide.len() as u32;
        refused(
            rel,
            &with32(anchors, 2, past),
            wide,
            postings,
            "run past the",
        );
        refused(
            rel,
            &with32(anchors, 4, WIDE | 65),
            wide,
            postings,
            "out of order",
        );
        // A wide group with a `rel`, one whose starts fit u16s, and a
        // wide start that decreases.
        refused(
            &with(rel, 2 * GROUP + 2, 1),
            anchors,
            wide,
            postings,
            "wide group 2 has non-zero rels",
        );
        let mut narrow: Vec<u32> = (wide[0]..wide[0] + 64).collect();
        narrow.extend_from_slice(&wide[64..]);
        refused(
            rel,
            anchors,
            &narrow,
            postings,
            "stored wide but fits u16 starts",
        );
        refused(
            rel,
            anchors,
            &with32(wide, 70, wide[68]),
            postings,
            "not strictly increasing",
        );
        // Side-array starts no group uses, and an anchor count off by one.
        let mut extra = wide.to_vec();
        extra.push(u32::MAX);
        refused(rel, anchors, &extra, postings, "wide groups use");
        refused(rel, &anchors[1..], wide, postings, "row anchors for");
        // A first row off 0, rows for no postings, and no rows for some.
        let shifted: Vec<u32> = starts.iter().map(|&s| s + 1).collect();
        let b = RowBounds::from_starts(&shifted);
        let (r1, a1, w1) = b.sections();
        refused(r1, a1, w1, postings + 1, "row 0 starts at 1");
        refused(&[], &[], &[], 3, "no rows for 3 postings");
        refused(&[0], &[0], &[], 0, "last row starts at 0");
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
    fn long_run_banks_have_wide_groups() {
        // The construction the oracle proptest relies on: at the pipeline's
        // widths both built maps hold wide groups.
        let bank = bank_with_long_runs(&["ACGT".repeat(50)], 3_000);
        for w in [8, 11, 13] {
            for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
                let idx = BankIndex::build(&bank, IndexConfig::full(w).with_backend(backend));
                let (_, anchors, wide) = idx.rows().bounds().sections();
                let flagged = anchors.iter().filter(|&&a| a & WIDE != 0).count();
                assert!(flagged >= 2, "W {w} {backend:?}: {flagged} wide groups");
                assert_eq!(wide.len(), GROUP * flagged);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The two-byte row bounds answer as the `offsets[4^W + 1]` oracle
        /// (a stable sort past W = 11) and its plain `u32` boundaries do:
        /// `occurrences` for every code (the populated ones and their
        /// neighbours past W = 8), the populated walk over random ranges,
        /// cursor seeks, and the two-bitmap walk against a second bank —
        /// and they are the one encoding of the oracle's starts. Banks
        /// carry 70 000-nt poly-A and poly-T runs ahead of ordinary
        /// sequence, so groups span 2^16 postings and more; W = 1..13,
        /// both row maps, pools of 1, 2, 4 and 7 over slices of a few
        /// words (groups cut between runs), and each index also persisted,
        /// decoded to the heap and mapped.
        #[test]
        fn row_bounds_equal_the_offsets_oracle(
            seqs in proptest::collection::vec("[ACGTN]{0,300}", 1..4),
            ordinary in 0usize..6000,
            w in 1usize..=13,
            stride in 1usize..3,
            grain in 64usize..20_000,
            lows in proptest::collection::vec(0u32..u32::MAX, 1..4),
            highs in proptest::collection::vec(0u32..u32::MAX, 1..4),
            start in 0u32..u32::MAX,
            probes in proptest::collection::vec(0u32..u32::MAX, 0..32),
        ) {
            let bank = bank_with_long_runs(&seqs, ordinary);
            let other = bank_of(&seqs.iter().map(String::as_str).collect::<Vec<_>>());
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let num = 1u64 << (2 * w);
            let ranges: Vec<Range<u32>> = lows
                .iter()
                .zip(&highs)
                .map(|(&a, &b)| {
                    let (a, b) = ((u64::from(a) % (num + 1)) as u32, (u64::from(b) % (num + 1)) as u32);
                    a.min(b)..a.max(b)
                })
                .collect();
            let start = (u64::from(start) % num) as u32;
            let oracle = oracle::build(&bank, cfg, |_| false);
            let other_oracle = oracle::build(&other, cfg, |_| false);
            let dense = cfg.with_backend(IndexBackend::Dense);
            let partner = BankIndex::build(&other, dense);
            for threads in [1usize, 2, 4, 7] {
                for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
                    let cfg = cfg.with_backend(backend);
                    let built =
                        in_pool(threads, || BankIndex::build_sliced(&bank, cfg, |_| false, grain));
                    let loaded = if threads == 1 { round_trips(&built).to_vec() } else { vec![] };
                    for idx in std::iter::once(&built).chain(&loaded) {
                        prop_assert_eq!(idx.backend(), backend);
                        assert_rows_answer_as(&oracle, idx, &ranges, start, &probes);
                        for range in &ranges {
                            let mut got: Vec<(u32, &[u32], &[u32])> = Vec::new();
                            let done = idx.for_each_shared(&partner, range.clone(), |c, x1, x2| {
                                got.push((c, x1, x2));
                                Ok::<(), ()>(())
                            });
                            let want: Vec<(u32, &[u32], &[u32])> = oracle
                                .codes()
                                .iter()
                                .filter(|c| range.contains(c))
                                .map(|&c| (c, oracle.occurrences(c), other_oracle.occurrences(c)))
                                .filter(|(_, _, x2)| !x2.is_empty())
                                .collect();
                            match backend {
                                IndexBackend::Dense => {
                                    prop_assert_eq!(done, Some(Ok(())));
                                    prop_assert!(got == want, "range {:?}", range);
                                }
                                _ => prop_assert_eq!(done, None),
                            }
                        }
                    }
                }
            }
        }
    }
}
