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
//!   inverted index** — row starts over a contiguous `positions`
//!   array, two bytes a row over one anchor per 64 rows — so
//!   `occurrences(code)` is a sorted `&[u32]` slice and
//!   step 2 streams postings instead of chasing the paper's
//!   `int *INDEX` chains. Rows are stored for populated codes only, and
//!   two row maps sit behind the same API ([`IndexBackend`]): a
//!   **dense** presence bitmap over the `4^W` codes whose per-word ranks
//!   give a code's row (`3·4^W/16` bytes, 768 KB at W = 11 — the
//!   large-bank fast path) and a **sparse** sorted code list (4 bytes per
//!   populated code — what a small query bank uses). `IndexBackend::Auto`
//!   (the default) picks per build whichever the footprint models say is
//!   smaller; results are byte-identical either way (see `structure`
//!   module docs for the memory model).
//!   Construction is one path: a scan marks and counts the windows that
//!   survive masking, then a radix-partitioned counting sort of bare
//!   positions (dense, data-parallel on large banks) or one sort of
//!   packed keys (sparse) lays out the rows.
//! * [`persist`]: the on-disk index format (magic + version + config +
//!   little-endian array sections, each starting on an 8-byte file
//!   offset, then a word-wide [`persist::checksum`] that detects every
//!   single-byte flip with certainty). Both row maps serialize — a
//!   header flag selects the key section, the dense bitmap or the sparse
//!   code list, stored beside the row bounds; the dense ranks are
//!   derived at load. A loaded index is
//!   behaviourally identical to a fresh build, including the
//!   `is_fully_indexed` provenance that drives step 2's guard
//!   auto-selection.
//! * [`mmap`]: the zero-copy attach path for a persisted index, used by
//!   `--db` for every volume and by `--index` for its one file —
//!   [`map_index_file`] maps an index file and hands the [`BankIndex`]
//!   direct views of its row map and postings sections, so attaching
//!   costs no postings copy and the big arrays live in the shared,
//!   evictable page cache instead of the heap. Where the platform or
//!   kernel cannot map, it falls back to [`read_index_file`]: the same
//!   decoder over a heap read, so the same files are accepted and the
//!   same errors returned.
//! * Asymmetric indexing (section 3.4): index only every other W-mer of one
//!   bank, the paper's remedy for sensitivity loss with shorter seeds. In
//!   the CSR layout this halves the postings bytes too, not just the
//!   sampled windows.
//! * Seed-occupancy statistics used by tests and the memory experiment
//!   (E7). A fully indexed bank of N positions with k distinct codes takes
//!   `4·N + 2·k + k/16 + N/8 + 3·4^W/16` index bytes on the dense map
//!   beside its N-byte `SEQ`: the paper's ≈5·N plus the row bounds of the
//!   populated codes (a two-byte start each over a four-byte anchor per
//!   64), the bit-set and the bitmap.
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
