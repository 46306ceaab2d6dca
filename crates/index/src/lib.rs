//! # oris-index — seed coding and the ordered bank index
//!
//! This crate implements section 2.1 of the paper, built around the
//! *build-once* premise of intensive comparison: a [`BankIndex`] is
//! constructed once per bank and then amortized over many step-2 runs —
//! within a process (see `oris-core`'s `Session`) or across processes via
//! the versioned on-disk format in [`persist`].
//!
//! * [`SeedCoder`]: the `codeSEED` function mapping a W-nucleotide word to an
//!   integer in `0..4^W`, with O(1) rolling updates in both directions. The
//!   code order is the total order that makes the ORIS uniqueness argument
//!   work (a seed `SA` precedes `SB` iff `code(SA) < code(SB)`).
//! * [`BankIndex`]: the Figure-2 occurrence index, stored as a **CSR
//!   inverted index** — row boundaries over a contiguous `positions`
//!   array — so `occurrences(code)` is a sorted `&[u32]` slice and
//!   step 2 streams postings instead of chasing the paper's
//!   `int *INDEX` chains. Two row-lookup backends sit behind the same
//!   API ([`IndexBackend`]): a **dense** `offsets[4^W + 1]` array
//!   (`≈ 4·(4^W + 1)` bytes — the large-bank fast path) and a **sparse**
//!   populated-codes table (ascending code list + row boundaries,
//!   memory `∝ distinct codes` — what lets a small query bank run at
//!   W = 11 without a 16.8 MB offsets array). `IndexBackend::Auto` (the
//!   default) picks per build by density; results are byte-identical
//!   either way (see `structure` module docs for the memory model).
//!   Construction is one path: a scan marks and counts the windows that
//!   survive masking, then a radix-partitioned counting sort of bare
//!   positions (dense, data-parallel on large banks) or one sort of
//!   packed keys (sparse) lays out the rows.
//! * [`persist`]: the on-disk index format (magic + version + config +
//!   little-endian array sections, each starting on an 8-byte file
//!   offset, then a word-wide [`persist::checksum`] that detects every
//!   single-byte flip with certainty). Both backends serialize — a
//!   header flag selects the section layout — and a sparse file stores
//!   its code list and row boundaries, which are the whole sparse
//!   structure. A loaded index is
//!   behaviourally identical to a fresh build, including the
//!   `is_fully_indexed` provenance that drives step 2's guard
//!   auto-selection.
//! * [`mmap`]: the zero-copy attach path for a persisted index, used by
//!   `--db` for every volume and by `--index` for its one file —
//!   [`map_index_file`] maps an index file and hands the [`BankIndex`]
//!   direct views of its offsets and postings sections, so attaching
//!   costs no postings copy and the big arrays live in the shared,
//!   evictable page cache instead of the heap. Where the platform or
//!   kernel cannot map, it falls back to [`read_index_file`]: the same
//!   decoder over a heap read, so the same files are accepted and the
//!   same errors returned.
//! * Asymmetric indexing (section 3.4): index only every other W-mer of one
//!   bank, the paper's remedy for sensitivity loss with shorter seeds. In
//!   the CSR layout this halves the postings bytes too, not just the
//!   sampled windows.
//! * Seed-occupancy statistics used by tests and the memory experiment (E7:
//!   ≈5·N bytes for a fully indexed bank — 1 byte of `SEQ` + 4 bytes of
//!   postings per position).
//! * Low-complexity masking, which decides what the index leaves out
//!   (section 2.1: "W character words belonging to low-complexity regions
//!   are discarded from the index"). Section 3.4 charges part of the
//!   SCORIS-N/BLASTN sensitivity gap to the two programs using *different*
//!   filters, so there are two: [`EntropyMasker`], a windowed Shannon-
//!   entropy test standing in for SCORIS-N's own filter, and
//!   [`DustMasker`], a DUST-style windowed triplet score (Morgulis et al.
//!   2006) for the BLASTN-like baseline. Both produce a [`MaskSet`] of
//!   global bank positions; an indexed W-mer is discarded when its start
//!   position is masked.

pub mod dust;
pub mod entropy;
pub mod mask;
pub mod mmap;
pub mod persist;
pub(crate) mod section;
pub mod seedcode;
pub mod structure;

pub use dust::DustMasker;
pub use entropy::EntropyMasker;
pub use mask::MaskSet;
pub use mmap::{map_index_file, Mapping};
pub use persist::{read_index_file, write_index_file, IndexMeta, PersistError};
pub use seedcode::{RollingCoder, SeedCoder, MAX_SEED_LEN};
pub use structure::{
    BankIndex, IndexBackend, IndexConfig, IndexStats, PopulatedRows, RowCursor, MAX_BANK_LEN,
};
