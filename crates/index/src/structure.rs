//! The bank index — Figure 2 of the paper, flattened to a CSR layout,
//! with a sparse hashed backend for banks that populate few seed codes.
//!
//! The paper draws the occurrence index as a linked structure: a seed
//! dictionary `dict[4^W]` pointing at the first occurrence of each seed,
//! and a successor array `next[len(SEQ)]` chaining every occurrence to the
//! next one (`int *INDEX` in the paper). That shape is faithful to the
//! figure but hostile to step 2's inner loops: every `next` hop is a
//! dependent, unpredictable load across a `4·len(SEQ)`-byte array.
//!
//! This module stores the same information as a **compressed sparse row**
//! (CSR) inverted index. The postings array is common to both backends:
//!
//! * `positions[indexed_positions]` — every occurrence, grouped by seed
//!   code in ascending code order and in **ascending position order**
//!   within each group.
//!
//! What differs is how a seed code finds its row (the crate-private
//! `RowIndex`):
//!
//! * **Dense** — `offsets[4^W + 1]` row boundaries: the occurrences of
//!   seed `code` are `positions[offsets[code] .. offsets[code + 1]]`.
//!   O(1) lookup, but the offsets array costs `4·(4^W + 1)` bytes no
//!   matter how small the bank is — 16.8 MB at W = 11.
//! * **Sparse** — only the *populated* codes are materialized: an
//!   ascending `codes[k]` array, `row_offsets[k + 1]` row boundaries, and
//!   an open-addressed `slots[≈2k]` hash table mapping a code to its row
//!   by Fibonacci hashing with linear probing. Lookup is O(1) expected,
//!   and memory is `∝ distinct codes`, independent of `4^W`.
//!
//! [`IndexBackend::Auto`] (the default) picks per build: dense when the
//! code space is comparably sized to the postings (`4^W ≤ 4·postings`,
//! i.e. at least ~¼ of the offsets slots could be populated), sparse
//! otherwise. Both backends order the postings identically, so every
//! downstream consumer — step 2's ordered enumeration, the guards, the
//! sinks — sees byte-identical occurrence slices; backend choice is a
//! memory/speed trade, never a results change (pinned by proptests here
//! and at the engine and db layers).
//!
//! **Batched lookup.** A sparse lookup is `slots[fib(code)]`, then
//! `codes[row]`, then possibly more slots. On a cold table — a volume
//! mapped from disk, probed by one short read — each step is a cache miss
//! that waits on the one before and ends in a branch no predictor learns.
//! [`BankIndex::occurrences_batch`] takes a run of codes and splits the
//! chain across them, [`LOOKUP_BATCH`] at a time. Pass 1 loads every
//! code's home slot. Pass 2 loads the key of every home's row, clamping
//! the index instead of branching on an empty slot. Pass 3 answers each
//! code: an empty home means absent, a key equal to the code is its row,
//! and anything else — a collision, where the code sits further down its
//! probe chain or another code owns its home — falls back to the scalar
//! chain walk. The loads of one pass do not depend on each other, so the
//! core keeps them in flight together: no prefetch intrinsic, no
//! `unsafe`, no format change. Every answer is exactly the slice
//! [`BankIndex::occurrences`] returns (a differential proptest below
//! holds both backends, heap and mapped, to it). A dense lookup is one
//! offsets load and has nothing to overlap, so its batch is a plain loop.
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
//!   below W = 3). Pass A yields the posting count, hence the backend
//!   under `Auto`.
//! * **Dense, pass B** rolls again and scatters every kept position (four
//!   bytes) into the postings array, partition by partition, with its
//!   *rank* inside the partition (the code's low bits, two bytes) into a
//!   transient side array. **Pass C** then sorts each partition in place
//!   by rank — count, prefix-sum, scatter through a copy of that one
//!   partition — writing the partition's own stretch of `offsets` as it
//!   goes. A partition is at most `4^8` offsets (256 KiB) and its share
//!   of the postings, so pass C runs in the core's own cache; an empty
//!   partition is one `fill`. Pass B is bound by how many write streams
//!   its scatter keeps open — two per partition per slice — which is why
//!   the partitions are as few as the `u16` rank allows. On a 4.9 Mnt
//!   bank at W = 11 with two workers (2-vCPU VM), 64 partitions scatter
//!   in 31–34 ms where 1 024 took 56–62, and pass C, now out of L1, takes
//!   28–34 ms instead of 19–22.
//! * **Sparse** rolls again into `code·2^32 + position` keys, sorts them,
//!   and splits codes, row boundaries and postings off the sorted run.
//!
//! On a large bank the three passes are data-parallel. The bank is cut
//! into one contiguous slice per worker (on 64-position boundaries, so
//! slices share no bit-set word); pass A gives every slice its own
//! histogram, from which every (partition, slice) pair gets its own
//! stretch of the postings array, slices in bank order inside a partition
//! — so pass B writes each partition's positions in ascending order
//! whatever the worker count, and pass C, which walks its input forward,
//! leaves every row ascending. The index is therefore the same bytes for
//! any pool size (pinned against a full-sweep oracle for pools of 1, 2, 4
//! and 7). A bank under two grains of 2^18 positions is built on the
//! calling thread: the rayon shim starts OS threads per call, which a
//! 150-nt query must never pay. `occurrences(code)` hands step 2 a
//! contiguous, ascending `&[u32]` slice, and `stats` needs no chain
//! walks.
//!
//! Memory model (heap bytes on top of the 1-byte-per-residue `SEQ` array):
//!
//! ```text
//! dense:   ≈ 4·(4^W + 1)          offsets
//!          + 4·indexed_positions  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//!   while building, on top of the above:
//!          + 2·indexed_positions  ranks (pass B → pass C)
//!          + 4·partitions per slice  partition histogram (256 B at W ≤ 11)
//!          + 4·(largest partition) per worker — typically
//!            indexed_positions/64, the whole postings array for a bank
//!            whose windows all end in the same three bases
//!
//! sparse:  ≈ 4·k                  populated codes        (k = distinct codes)
//!          + 4·(k + 1)            row offsets
//!          + 4·2^⌈log₂ 2k⌉        open-addressed slot table (derived from the
//!                                 codes, on the heap even for a mapped file)
//!          + 4·indexed_positions  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//!   while building, on top of the above:
//!          + 8·indexed_positions  sort keys
//! ```
//!
//! The transient part is ≈ 2 bytes per posting for a dense build, which
//! is what sets a run's peak RSS when the bank is large.
//!
//! Since `k ≤ indexed_positions`, the sparse backend is bounded by
//! `≈ 16·indexed_positions` bytes however large `W` gets: a small query
//! bank at W = 11 does not pay a 16.8 MB offsets array per transient index.
//!
//! The postings cost `4·indexed_positions` bytes — sized by the windows
//! actually indexed, not by `len(SEQ)` as the paper's `next` array is — so
//! low-complexity masking and the asymmetric stride (section 3.4) shrink
//! the index itself, not just the bit-set. For a fully indexed bank
//! (`indexed_positions ≈ len(SEQ)`) the dense layout matches the paper's
//! "approximately 5·N bytes" figure.
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

/// Which row-lookup structure backs the index.
///
/// Backend choice never changes results: the postings array (and thus
/// every `occurrences` slice, every HSP, every output byte) is identical
/// under either backend. It only trades memory against lookup cost:
/// dense pays `4·(4^W + 1)` bytes for O(1) array indexing; sparse pays
/// `∝ distinct codes` for O(1)-expected hashed lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// Always build the dense `offsets[4^W + 1]` CSR — the large-bank
    /// fast path.
    Dense,
    /// Always build the compact populated-codes table — the small-bank /
    /// large-W memory saver.
    Sparse,
    /// Decide per build from the observed density: dense when
    /// `4^W ≤ 4·indexed_positions` (at least ~¼ of the code space could
    /// be populated, since distinct codes ≤ postings), sparse otherwise.
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
    /// Row-lookup backend policy (see [`IndexBackend`]).
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

    /// Same config with an explicit backend policy.
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
    /// Heap bytes used by the row-lookup arrays + `positions` + the
    /// indexed bit-set (excludes the bank's own array).
    pub index_bytes: usize,
    /// Heap bytes including the underlying `SEQ` array — the paper's ≈5·N
    /// figure when the bank is fully indexed (dense backend).
    pub total_bytes: usize,
}

/// Sentinel for an unoccupied slot in the sparse open-addressed table.
/// `u32::MAX` can never be a valid row id: rows ≤ distinct codes ≤
/// postings, and postings are bounded by the bank-length `< u32::MAX`
/// guard.
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// Slot-table size for `distinct` populated codes: the next power of two
/// at or above `2·distinct`, so the table is always at least half empty
/// (probe chains stay short and every probe sequence terminates at an
/// empty slot). Zero codes need zero slots.
pub(crate) fn sparse_slot_count(distinct: usize) -> usize {
    if distinct == 0 {
        0
    } else {
        (2 * distinct).next_power_of_two()
    }
}

/// Fibonacci-hash home slot for `code` in a power-of-two table of
/// `slots ≥ 2` entries: multiply by 2^32/φ and keep the high bits. Pure
/// u32 arithmetic — deterministic across platforms and runs.
#[inline]
fn fib_slot(code: u32, slots: usize) -> usize {
    debug_assert!(slots.is_power_of_two() && slots >= 2);
    // `slots ≥ 2` ⇒ `trailing_zeros ≥ 1` ⇒ the shift is ≤ 31: never UB.
    (code.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
}

/// Builds the open-addressed code→row table for an ascending list of
/// distinct codes. Insertion order is the ascending code order, so the
/// table is a pure function of `codes`: an index loaded from a file gets
/// the table its fresh build had, without the file storing it.
pub(crate) fn build_slot_table(codes: &[u32]) -> Vec<u32> {
    let s = sparse_slot_count(codes.len());
    let mut slots = vec![EMPTY_SLOT; s];
    for (row, &code) in codes.iter().enumerate() {
        let mut i = fib_slot(code, s);
        while slots[i] != EMPTY_SLOT {
            i = (i + 1) & (s - 1);
        }
        slots[i] = u32::try_from(row).expect("row ids bounded by the bank-length guard");
    }
    slots
}

/// Codes [`BankIndex::occurrences_batch`] resolves per round of its
/// three passes: enough independent misses in flight to cover a cold
/// slot table, few enough that a round's state is a few hundred bytes
/// of stack. Step 2 pulls this many driving rows ahead of its pair loops.
pub const LOOKUP_BATCH: usize = 32;

/// Looks up the row id of `code` via the slot table. Probes terminate
/// because the table is at least half empty, and its row ids are in range
/// because [`SparseRows`] only ever derives it from `codes`.
#[inline]
fn sparse_row_of(codes: &[u32], slots: &[u32], code: u32) -> Option<usize> {
    if slots.is_empty() {
        return None;
    }
    let mask = slots.len() - 1;
    let mut i = fib_slot(code, slots.len());
    loop {
        let row = slots[i];
        if row == EMPTY_SLOT {
            return None;
        }
        if codes[row as usize] == code {
            return Some(row as usize);
        }
        i = (i + 1) & mask;
    }
}

/// Row `row` of a sparse table as its postings slice.
#[inline]
fn sparse_row<'s>(positions: &'s [u32], row_offsets: &[u32], row: usize) -> &'s [u32] {
    &positions[row_offsets[row] as usize..row_offsets[row + 1] as usize]
}

/// One round of [`BankIndex::occurrences_batch`] over a sparse table, for
/// at most [`LOOKUP_BATCH`] codes. Pass 1 loads every code's home slot and
/// pass 2 the key of every home's row, its index clamped so an empty slot
/// costs no branch; neither pass waits on the previous load of its own.
/// Pass 3 answers: an empty home is an absent code, a key equal to the
/// code is its row, and only a collision walks the probe chain.
fn sparse_rows_batch<'s>(
    keys: &[u32],
    row_offsets: &[u32],
    slots: &[u32],
    positions: &'s [u32],
    codes: &[u32],
    rows: &mut [&'s [u32]],
) {
    if slots.is_empty() {
        rows.fill(&[]);
        return;
    }
    let n = codes.len();
    // The row id each code's home slot holds, or `EMPTY_SLOT`.
    let mut home_row = [EMPTY_SLOT; LOOKUP_BATCH];
    for (row, &code) in home_row[..n].iter_mut().zip(codes) {
        *row = slots[fib_slot(code, slots.len())];
    }
    // A non-empty table has at least one key.
    let last = keys.len() - 1;
    let mut key = [0u32; LOOKUP_BATCH];
    for (key, &row) in key[..n].iter_mut().zip(&home_row[..n]) {
        *key = keys[(row as usize).min(last)];
    }
    for (i, (out, &code)) in rows.iter_mut().zip(codes).enumerate() {
        let row = if home_row[i] == EMPTY_SLOT {
            None
        } else if key[i] == code {
            Some(home_row[i] as usize)
        } else {
            sparse_row_of(keys, slots, code)
        };
        *out = row.map_or(&[], |row| sparse_row(positions, row_offsets, row));
    }
}

/// The row-lookup structure: how a seed code maps to its postings row.
/// Both variants index the same `positions` array; see the module docs
/// for the memory model.
#[derive(Debug, Clone)]
pub(crate) enum RowIndex {
    /// Dense CSR row boundaries: occurrences of `code` live at
    /// `positions[offsets[code] .. offsets[code + 1]]`; `4^W + 1` slots.
    Dense { offsets: Section<u32> },
    /// Populated-codes table, see [`SparseRows`].
    Sparse(SparseRows),
}

pub(crate) use sparse_rows::SparseRows;

/// [`SparseRows`] in a module of its own, so that its one constructor is
/// the only way to pair a code list with a slot table.
mod sparse_rows {
    use super::build_slot_table;
    use crate::section::Section;

    /// The sparse row lookup: `codes[k]` ascending distinct codes,
    /// `row_offsets[k + 1]` row boundaries (row `r` of `codes[r]` is
    /// `positions[row_offsets[r] .. row_offsets[r + 1]]`), and the
    /// open-addressed `slots` table mapping code → row. The table is
    /// always derived from `codes` by [`SparseRows::new`] — for a fresh
    /// build and for an index file alike, which stores no table — so no
    /// caller can hand one in, and every table is exactly the one its
    /// code list produces: at least half empty, its probe chains ending
    /// at an empty slot, its row ids in range.
    #[derive(Debug, Clone)]
    pub(crate) struct SparseRows {
        codes: Section<u32>,
        row_offsets: Section<u32>,
        slots: Vec<u32>,
    }

    impl SparseRows {
        /// Pairs `codes` and `row_offsets` with the slot table derived
        /// from `codes`. Terminates on any code list (each insert finds
        /// one of the ≥ k empty slots); the caller validates the lists.
        pub(crate) fn new(codes: Section<u32>, row_offsets: Section<u32>) -> SparseRows {
            let slots = build_slot_table(&codes);
            SparseRows {
                codes,
                row_offsets,
                slots,
            }
        }

        pub(crate) fn codes(&self) -> &[u32] {
            &self.codes
        }

        pub(crate) fn row_offsets(&self) -> &[u32] {
            &self.row_offsets
        }

        pub(crate) fn slots(&self) -> &[u32] {
            &self.slots
        }

        /// Heap bytes: the slot table always, the code list and row
        /// boundaries unless they are views of a mapped file.
        pub(crate) fn heap_bytes(&self) -> usize {
            self.codes.heap_bytes() + self.row_offsets.heap_bytes() + 4 * self.slots.len()
        }

        pub(crate) fn is_mapped(&self) -> bool {
            self.codes.is_mapped() || self.row_offsets.is_mapped()
        }
    }
}

/// The occurrence index over one bank, in CSR layout.
#[derive(Debug, Clone)]
pub struct BankIndex {
    coder: SeedCoder,
    stride: usize,
    /// Code → postings-row lookup. Owned for a fresh build; zero-copy
    /// views into the index file for an mmap attach.
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
    /// Number of distinct populated codes, cached at build/validation
    /// time so `distinct_codes()` is O(1) for either backend (step 2
    /// uses it to pick which index drives the populated-code walk).
    distinct: usize,
}

/// A bank's code array (residues, one sentinel per sequence, plus one)
/// must be shorter than this: postings are `u32` positions, and
/// `u32::MAX` itself is the sparse layout's empty-slot mark.
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

        // Resolve the Auto policy from the observed density: distinct
        // codes ≤ postings, so `4^W > 4·postings` means under ¼ of the
        // offsets slots could possibly be populated — the dense array
        // would be ≥ 16 bytes per posting of mostly-empty rows.
        let dense = match cfg.backend {
            IndexBackend::Dense => true,
            IndexBackend::Sparse => false,
            IndexBackend::Auto => coder.num_seeds() <= 4 * postings,
        };

        let (rows, positions, distinct) = if dense {
            let (offsets, positions, distinct) =
                dense_rows(data, &words, slice_len, coder, radix, &scans, postings);
            (
                RowIndex::Dense {
                    offsets: offsets.into(),
                },
                positions,
                distinct,
            )
        } else {
            let (codes, row_offsets, positions) = sparse_rows(data, &words, coder, postings);
            let distinct = codes.len();
            (
                RowIndex::Sparse(SparseRows::new(codes.into(), row_offsets.into())),
                positions,
                distinct,
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
            distinct,
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
        let distinct = match &rows {
            RowIndex::Dense { offsets } => {
                if offsets.len() != num_seeds + 1 {
                    return Err(format!(
                        "offsets array has {} slots, expected 4^{w} + 1 = {}",
                        offsets.len(),
                        num_seeds + 1
                    ));
                }
                if offsets[0] != 0 {
                    return Err("offsets[0] must be 0".into());
                }
                if offsets.windows(2).any(|p| p[0] > p[1]) {
                    return Err("offsets are not monotonically non-decreasing".into());
                }
                if *offsets.last().unwrap() as usize != positions.len() {
                    return Err(format!(
                        "last offset {} does not match {} positions",
                        offsets.last().unwrap(),
                        positions.len()
                    ));
                }
                offsets.windows(2).filter(|p| p[0] < p[1]).count()
            }
            RowIndex::Sparse(sparse) => {
                let (codes, row_offsets) = (sparse.codes(), sparse.row_offsets());
                if codes.len() > num_seeds {
                    return Err(format!(
                        "{} populated codes exceed the 4^{w} code space",
                        codes.len()
                    ));
                }
                if codes.windows(2).any(|p| p[0] >= p[1]) {
                    return Err("populated codes are not strictly ascending".into());
                }
                if let Some(&last) = codes.last() {
                    if last as usize >= num_seeds {
                        return Err(format!("code {last} outside the 4^{w} code space"));
                    }
                }
                if row_offsets.len() != codes.len() + 1 {
                    return Err(format!(
                        "row-offsets array has {} slots, expected {} populated codes + 1",
                        row_offsets.len(),
                        codes.len()
                    ));
                }
                if row_offsets[0] != 0 {
                    return Err("row_offsets[0] must be 0".into());
                }
                // Strictly increasing: a listed code owns at least one
                // posting (the build never materializes an empty row).
                if row_offsets.windows(2).any(|p| p[0] >= p[1]) {
                    return Err("row offsets are not strictly increasing".into());
                }
                if *row_offsets.last().unwrap() as usize != positions.len() {
                    return Err(format!(
                        "last row offset {} does not match {} positions",
                        row_offsets.last().unwrap(),
                        positions.len()
                    ));
                }
                codes.len()
            }
        };
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
        // inside the bank, every position present in the bit-set.
        let boundaries: &[u32] = match &rows {
            RowIndex::Dense { offsets } => offsets,
            RowIndex::Sparse(sparse) => sparse.row_offsets(),
        };
        for row in boundaries.windows(2) {
            let row = &positions[row[0] as usize..row[1] as usize];
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
            distinct,
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

    /// The resolved row-lookup backend — [`IndexBackend::Dense`] or
    /// [`IndexBackend::Sparse`], never `Auto` (Auto is resolved at build
    /// time from the observed density).
    #[inline]
    pub fn backend(&self) -> IndexBackend {
        match self.rows {
            RowIndex::Dense { .. } => IndexBackend::Dense,
            RowIndex::Sparse(_) => IndexBackend::Sparse,
        }
    }

    /// First occurrence of `code`, or `None` if the seed is absent.
    #[inline]
    pub fn first(&self, code: u32) -> Option<u32> {
        self.occurrences(code).first().copied()
    }

    /// All occurrences of `code` as a contiguous slice, in increasing
    /// position order.
    #[inline]
    pub fn occurrences(&self, code: u32) -> &[u32] {
        match &self.rows {
            RowIndex::Dense { offsets } => {
                let lo = offsets[code as usize] as usize;
                let hi = offsets[code as usize + 1] as usize;
                &self.positions[lo..hi]
            }
            RowIndex::Sparse(sparse) => sparse_row_of(sparse.codes(), sparse.slots(), code)
                .map_or(&[], |row| {
                    sparse_row(&self.positions, sparse.row_offsets(), row)
                }),
        }
    }

    /// [`BankIndex::occurrences`] for many codes at once: `rows[i]`
    /// becomes exactly the slice `occurrences(codes[i])` returns. A sparse
    /// table resolves the codes [`LOOKUP_BATCH`] at a time, each round in
    /// three passes (see the module docs' *Batched lookup*), so the cache
    /// misses of a round overlap instead of each lookup waiting on its
    /// own; a dense table answers each code with `occurrences`.
    ///
    /// # Panics
    /// Panics if `codes` and `rows` differ in length.
    pub fn occurrences_batch<'s>(&'s self, codes: &[u32], rows: &mut [&'s [u32]]) {
        assert_eq!(codes.len(), rows.len(), "one output row per code");
        match &self.rows {
            RowIndex::Dense { .. } => {
                for (out, &code) in rows.iter_mut().zip(codes) {
                    *out = self.occurrences(code);
                }
            }
            RowIndex::Sparse(sparse) => {
                for (codes, rows) in codes
                    .chunks(LOOKUP_BATCH)
                    .zip(rows.chunks_mut(LOOKUP_BATCH))
                {
                    sparse_rows_batch(
                        sparse.codes(),
                        sparse.row_offsets(),
                        sparse.slots(),
                        &self.positions,
                        codes,
                        rows,
                    );
                }
            }
        }
    }

    /// The dense CSR row-boundary array (`4^W + 1` entries), or `None`
    /// for a sparse-backed index. Prefer [`BankIndex::populated_in`] /
    /// [`BankIndex::occurrences`] — they are backend-agnostic; this accessor
    /// exists for persistence and the dense-layout tests.
    #[inline]
    pub fn dense_offsets(&self) -> Option<&[u32]> {
        match &self.rows {
            RowIndex::Dense { offsets } => Some(offsets),
            RowIndex::Sparse(_) => None,
        }
    }

    /// Iterates the *populated* codes in `range` in ascending code order,
    /// yielding `(code, occurrences)` with the occurrences slice exactly
    /// as [`BankIndex::occurrences`] would return it.
    ///
    /// This is the enumeration primitive step 2 schedules and drives on:
    /// dense skips empty rows while sweeping the range; sparse binary-
    /// searches the populated-code list for the range bounds and walks
    /// the rows directly — never touching the `4^W` code space.
    pub fn populated_in(&self, range: Range<u32>) -> PopulatedRows<'_> {
        match &self.rows {
            RowIndex::Dense { offsets } => PopulatedRows::Dense {
                offsets,
                positions: &self.positions,
                next: range.start,
                end: range
                    .end
                    .min(u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX)),
            },
            RowIndex::Sparse(sparse) => {
                let (codes, row_offsets) = (sparse.codes(), sparse.row_offsets());
                let lo = codes.partition_point(|&c| c < range.start);
                let hi = codes.partition_point(|&c| c < range.end);
                PopulatedRows::Sparse {
                    codes,
                    row_offsets,
                    positions: &self.positions,
                    row: lo,
                    end_row: hi,
                }
            }
        }
    }

    /// Iterates every populated code of the index in ascending order.
    pub fn populated(&self) -> PopulatedRows<'_> {
        let num = u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX);
        self.populated_in(0..num)
    }

    /// Number of distinct populated codes — O(1), cached at build time.
    #[inline]
    pub fn distinct_codes(&self) -> usize {
        self.distinct
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
        let boundaries: &[u32] = match &self.rows {
            RowIndex::Dense { offsets } => offsets,
            RowIndex::Sparse(sparse) => sparse.row_offsets(),
        };
        let mut max_chain = 0usize;
        for w in boundaries.windows(2) {
            max_chain = max_chain.max((w[1] - w[0]) as usize);
        }
        let index_bytes = self.heap_bytes();
        IndexStats {
            distinct_seeds: self.distinct,
            indexed_positions: self.positions.len(),
            max_chain_len: max_chain,
            index_bytes,
            total_bytes: index_bytes + self.bank_bytes,
        }
    }

    /// Heap bytes used by the index arrays (row lookup, postings and the
    /// indexed-position bit vector). For an mmap-backed index the mapped
    /// sections count zero — their bytes live in the shared, evictable
    /// page cache, not this process's heap. What an attach does hold on
    /// the heap is the copied bit-set (`len/8` bytes) and, for a sparse
    /// index, the slot table derived at load (`4·2^⌈log₂ 2k⌉` bytes for k
    /// populated codes).
    pub fn heap_bytes(&self) -> usize {
        let rows = match &self.rows {
            RowIndex::Dense { offsets } => offsets.heap_bytes(),
            RowIndex::Sparse(sparse) => sparse.heap_bytes(),
        };
        rows + self.positions.heap_bytes() + self.indexed.heap_bytes()
    }

    /// Whether the row-lookup/postings sections are zero-copy views into
    /// a memory-mapped index file (see `oris_index::mmap`).
    pub fn is_mmap_backed(&self) -> bool {
        let rows = match &self.rows {
            RowIndex::Dense { offsets } => offsets.is_mapped(),
            RowIndex::Sparse(sparse) => sparse.is_mapped(),
        };
        rows || self.positions.is_mapped()
    }

    /// The row-lookup structure (persistence needs the raw sections).
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
pub enum PopulatedRows<'a> {
    #[doc(hidden)]
    Dense {
        offsets: &'a [u32],
        positions: &'a [u32],
        next: u32,
        end: u32,
    },
    #[doc(hidden)]
    Sparse {
        codes: &'a [u32],
        row_offsets: &'a [u32],
        positions: &'a [u32],
        row: usize,
        end_row: usize,
    },
}

impl<'a> Iterator for PopulatedRows<'a> {
    type Item = (u32, &'a [u32]);

    fn next(&mut self) -> Option<(u32, &'a [u32])> {
        match self {
            PopulatedRows::Dense {
                offsets,
                positions,
                next,
                end,
            } => {
                while *next < *end {
                    let code = *next;
                    *next += 1;
                    let lo = offsets[code as usize] as usize;
                    let hi = offsets[code as usize + 1] as usize;
                    if hi > lo {
                        return Some((code, &positions[lo..hi]));
                    }
                }
                None
            }
            PopulatedRows::Sparse {
                codes,
                row_offsets,
                positions,
                row,
                end_row,
            } => {
                if *row >= *end_row {
                    return None;
                }
                let r = *row;
                *row += 1;
                Some((codes[r], sparse_row(positions, row_offsets, r)))
            }
        }
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
/// positions by code, returning `(offsets, postings, distinct codes)`.
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
/// with 1 024 partitions.
fn dense_rows(
    data: &[u8],
    words: &[u64],
    slice_len: usize,
    coder: SeedCoder,
    radix: Radix,
    scans: &[SliceScan],
    postings: usize,
) -> (Vec<u32>, Vec<u32>, usize) {
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
    // cut where the postings (not the partition count) divide evenly.
    let mut offsets = vec![0u32; coder.num_seeds() + 1];
    let distinct = {
        let mut runs: Vec<PartitionRun<'_>> = Vec::with_capacity(scans.len());
        let mut off_rest: &mut [u32] = &mut offsets[..coder.num_seeds()];
        let mut pos_rest: &mut [u32] = &mut positions;
        let mut first = 0usize;
        for k in 1..=scans.len() {
            let share = as_u32(postings / scans.len() * k);
            let end = if k == scans.len() {
                radix.parts
            } else {
                first + pbase[first..radix.parts].partition_point(|&b| b < share)
            };
            let (offsets, tail) =
                std::mem::take(&mut off_rest).split_at_mut((end - first) * radix.width);
            off_rest = tail;
            let (from, to) = (pbase[first] as usize, pbase[end] as usize);
            let (postings, tail) = std::mem::take(&mut pos_rest).split_at_mut(to - from);
            pos_rest = tail;
            runs.push(PartitionRun {
                first,
                offsets,
                postings,
                ranks: &ranks[from..to],
            });
            first = end;
        }
        let per_run: Vec<usize> = runs
            .into_par_iter()
            .map(|run| sort_partitions(radix, &pbase, run))
            .collect();
        per_run.iter().sum()
    };
    offsets[coder.num_seeds()] = as_u32(postings);
    (offsets, positions, distinct)
}

/// A contiguous run of partitions, the unit of work of pass C.
struct PartitionRun<'a> {
    /// Index of the run's first partition.
    first: usize,
    /// The partitions' stretches of the offsets array, `width` each.
    offsets: &'a mut [u32],
    /// Their postings as scattered by pass B…
    postings: &'a mut [u32],
    /// …and the ranks that go with them.
    ranks: &'a [u16],
}

/// Pass C over one run of partitions: sorts each partition by rank —
/// count, prefix-sum, scatter through a copy of the partition, all within
/// the partition's few tens of kilobytes — filling its offsets as it
/// goes, and returns the number of non-empty rows.
fn sort_partitions(radix: Radix, pbase: &[u32], run: PartitionRun<'_>) -> usize {
    let PartitionRun {
        first,
        offsets,
        mut postings,
        mut ranks,
    } = run;
    let mut distinct = 0usize;
    // The partition's positions in scatter order.
    let mut held: Vec<u32> = Vec::new();
    for (i, rows) in offsets.chunks_exact_mut(radix.width).enumerate() {
        let base = pbase[first + i];
        let len = (pbase[first + i + 1] - base) as usize;
        let (stretch, tail) = std::mem::take(&mut postings).split_at_mut(len);
        postings = tail;
        let (stretch_ranks, tail) = ranks.split_at(len);
        ranks = tail;
        if stretch.is_empty() {
            // Every row of an empty partition starts (and ends) at the
            // partition base.
            rows.fill(base);
            continue;
        }
        held.clear();
        held.extend_from_slice(stretch);
        // Count per row (stored at `rows[rank]` for now)...
        for &rank in stretch_ranks {
            rows[usize::from(rank)] += 1;
        }
        // ...exclusive prefix-sum in place (`rows[r]` = start of row `r`)...
        let mut sum = base;
        for slot in rows.iter_mut() {
            let count = *slot;
            *slot = sum;
            sum += count;
            distinct += usize::from(count > 0);
        }
        // ...and scatter, each row's start slot serving as its write
        // cursor. The forward walk keeps positions ascending in a row.
        for (&pos, &rank) in held.iter().zip(stretch_ranks) {
            let slot = &mut rows[usize::from(rank)];
            stretch[(*slot - base) as usize] = pos;
            *slot += 1;
        }
        // After the scatter `rows[r]` holds the END of row `r`, which is
        // the start of row `r + 1`: shift right one slot to restore the
        // CSR convention (the last row's end is the next partition's
        // base, written by that partition).
        rows.copy_within(0..radix.width - 1, 1);
        rows[0] = base;
    }
    distinct
}

/// Sparse row assembly: the kept windows as `code·2^32 + position` keys,
/// sorted — ascending code, ascending position inside a code, the exact
/// postings order of the dense build — then split into the distinct
/// codes, their row boundaries and the postings. Cost is
/// `O(postings · log postings)`, independent of `4^W`; eight transient
/// bytes per posting, on banks that are small against the code space by
/// the definition of this backend.
fn sparse_rows(
    data: &[u8],
    words: &[u64],
    coder: SeedCoder,
    postings: usize,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut keys: Vec<u64> = Vec::with_capacity(postings);
    keys.extend(
        slice_windows(data, 0, words.len(), coder)
            .filter(|&(pos, _)| is_kept(words, pos))
            .map(|(pos, code)| u64::from(code) << 32 | pos as u64),
    );
    keys.sort_unstable();
    let mut codes: Vec<u32> = Vec::new();
    let mut row_offsets: Vec<u32> = Vec::new();
    let mut positions: Vec<u32> = Vec::with_capacity(keys.len());
    for &key in &keys {
        // oris-lint: allow(narrow-cast) — the two halves the key was packed from
        let (code, pos) = ((key >> 32) as u32, key as u32);
        if codes.last() != Some(&code) {
            codes.push(code);
            row_offsets.push(
                u32::try_from(positions.len())
                    .expect("position count is u32-bounded by the bank-length guard"),
            );
        }
        positions.push(pos);
    }
    row_offsets.push(
        u32::try_from(positions.len())
            .expect("position count is u32-bounded by the bank-length guard"),
    );
    (codes, row_offsets, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;
    use proptest::prelude::*;

    fn bank_of(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
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

    /// The dense CSR footprint model: 4 bytes per offsets slot (4^W + 1),
    /// 4 bytes per *indexed* position, 1 bit per bank position for the
    /// occurrence set. The `stats_match_footprint_model_*` tests pin this
    /// model, so they force [`IndexBackend::Dense`] — Auto would pick
    /// sparse for these banks at W = 8.
    fn expected_index_bytes(bank: &Bank, w: usize, indexed_positions: usize) -> usize {
        let n = bank.data().len();
        4 * ((1usize << (2 * w)) + 1) + 4 * indexed_positions + n.div_ceil(64) * 8
    }

    /// The sparse footprint model: 4 bytes per populated code, 4·(k+1)
    /// row offsets, 4 bytes per slot-table entry, postings and bit-set
    /// as dense.
    fn expected_sparse_bytes(bank: &Bank, distinct: usize, indexed_positions: usize) -> usize {
        let n = bank.data().len();
        4 * distinct
            + 4 * (distinct + 1)
            + 4 * sparse_slot_count(distinct)
            + 4 * indexed_positions
            + n.div_ceil(64) * 8
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
            expected_index_bytes(&bank, 8, stats.indexed_positions)
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
            expected_index_bytes(&bank, 8, stats.indexed_positions)
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
            expected_index_bytes(&bank, 8, stats.indexed_positions)
        );
        // Half the windows → half the postings bytes (+offsets/bit-set,
        // which don't depend on the stride).
        let full = BankIndex::build(
            &bank,
            IndexConfig::full(8).with_backend(IndexBackend::Dense),
        )
        .stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 2);
        assert_eq!(
            full.index_bytes - stats.index_bytes,
            4 * (full.indexed_positions - stats.indexed_positions)
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
        // The acceptance bar of the backend: at W = 11 on a small
        // bank, sparse is ≤ 1/10 the dense footprint (dense pays the
        // 16.8 MB offsets array regardless of bank size).
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]); // 10 kb
        let dense = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Dense),
        );
        let sparse = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Sparse),
        );
        let db = dense.stats().index_bytes;
        let sb = sparse.stats().index_bytes;
        assert!(
            sb * 10 <= db,
            "sparse {sb} bytes not ≤ 1/10 of dense {db} bytes"
        );
    }

    #[test]
    fn auto_picks_sparse_for_small_bank_large_w() {
        // 10 kb of bank cannot populate more than ~10k of the 4^11 ≈ 4.2M
        // codes: Auto must choose sparse.
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
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Dense),
        );
        let off = idx.dense_offsets().expect("dense build has dense offsets");
        assert_eq!(off.len(), idx.coder().num_seeds() + 1);
        assert_eq!(off[0], 0);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*off.last().unwrap() as usize, idx.indexed_positions());
    }

    #[test]
    fn sparse_has_no_dense_offsets() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Sparse),
        );
        assert!(idx.dense_offsets().is_none());
        assert_eq!(idx.backend(), IndexBackend::Sparse);
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
    /// code before it — in the table that many codes get — so the table
    /// holds displaced codes and lookups meet collisions.
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
            "oris_lookup_batch_{}_{}.oidx",
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
        // The construction the batched-lookup proptest relies on: a
        // sparse table over these codes holds codes off their home slot,
        // so a lookup meets a key that is not its code.
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
        let (keys, slots) = (sparse.codes(), sparse.slots());
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

    /// The build this module had before the pair-free one, kept as the
    /// reference of the differential tests: one rolling scan collects
    /// `(position, code)` pairs, one counting sort across the entire
    /// `4^W` code space lays out the rows.
    mod oracle {
        use super::*;

        pub struct Built {
            offsets: Vec<u32>,
            positions: Vec<u32>,
            indexed: MaskSet,
            fully_indexed: bool,
        }

        impl Built {
            /// Whether `idx` is this index: offsets, postings, bit-set,
            /// provenance, and the stats that derive from them.
            pub fn matches(&self, idx: &BankIndex) -> bool {
                let stats = idx.stats();
                let rows = self.offsets.windows(2).map(|p| (p[1] - p[0]) as usize);
                idx.dense_offsets() == Some(&self.offsets[..])
                    && idx.positions() == self.positions
                    && idx.indexed_words() == self.indexed.words()
                    && idx.is_fully_indexed() == self.fully_indexed
                    && stats.indexed_positions == self.positions.len()
                    && stats.distinct_seeds == rows.clone().filter(|&n| n > 0).count()
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
            let (offsets, positions) = full_sweep_rows(coder.num_seeds(), &pairs);
            Built {
                offsets,
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

        /// The sliced build equals the full-sweep oracle — offsets,
        /// postings, bit-set, provenance, stats — for random banks,
        /// widths, strides and masks, cut into slices of a few words
        /// under pools of 1, 2, 4 and 7 workers.
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

        /// The batched lookup answers every code exactly as `occurrences`
        /// does: dense and sparse, freshly built, decoded to the heap and
        /// mapped from a file; every batch length from 0 past two rounds;
        /// present codes, absent ones, codes whose home slot another code
        /// owns, and an index of zero codes.
        #[test]
        fn batched_lookup_equals_occurrences(
            w in 4usize..7,
            picks in proptest::collection::vec(0u32..u32::MAX, 0..48),
            queries in proptest::collection::vec(0u32..u32::MAX, 0..2 * LOOKUP_BATCH + 2),
        ) {
            let coder = SeedCoder::new(w);
            let num = coder.num_seeds() as u32;
            let codes = codes_with_collisions(w, &picks);
            let bank = bank_of_codes(coder, &codes);
            // Even draws ask a present code, odd draws any code.
            let asked: Vec<u32> = queries
                .iter()
                .map(|&q| match codes.len() {
                    n if n > 0 && q % 2 == 0 => codes[(q / 2) as usize % n],
                    _ => q / 2 % num,
                })
                .collect();
            let every: Vec<u32> = (0..num).collect();
            for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
                let built = BankIndex::build(&bank, IndexConfig::full(w).with_backend(backend));
                prop_assert_eq!(built.distinct_codes(), codes.len());
                let [heap, mapped] = round_trips(&built);
                prop_assert!(codes.is_empty() || mapped.is_mmap_backed());
                for idx in [&built, &heap, &mapped] {
                    let want: Vec<&[u32]> = asked.iter().map(|&c| idx.occurrences(c)).collect();
                    for n in 0..=asked.len() {
                        let mut got = vec![&[][..]; n];
                        idx.occurrences_batch(&asked[..n], &mut got);
                        prop_assert_eq!(&got[..], &want[..n]);
                    }
                    let mut got = vec![&[][..]; every.len()];
                    idx.occurrences_batch(&every, &mut got);
                    for (&code, row) in every.iter().zip(&got) {
                        prop_assert!(*row == idx.occurrences(code), "code {}", code);
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
}
