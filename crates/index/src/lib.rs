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
//!   inverted index** — row starts over one contiguous postings stream,
//!   one Elias–Fano sequence (about `1 + N/k` bits a row), each posting
//!   packed in `⌈log2 len(SEQ)⌉` bits — so `occurrences(code)` is a [`Row`], an
//!   ascending run of the stream decoded as it is read, and step 2
//!   streams postings instead of chasing the paper's `int *INDEX`
//!   chains. Rows are stored for populated codes only, and
//!   one row map serves every bank size: a **two-level ranked bitmap**.
//!   Of the presence bitmap over the `4^W` codes only the non-zero words
//!   are stored, under a top level of one bit per bitmap word; a code's
//!   row is two rank steps. A 150-nt read's index stays under 16 KB at
//!   W = 11, and a dense bank pays the one-level bitmap's `3·4^W/16`
//!   bytes plus 12 KB (see the `structure` module docs for the memory
//!   model). Construction is one path: a scan marks and counts the
//!   windows that survive masking, then a radix-partitioned sort of bare
//!   positions (data-parallel on large banks) lays out the rows — each
//!   partition counted, or, when it holds few postings against its `4^8`
//!   codes, sorted by comparison.
//! * [`persist`]: the on-disk index format (magic + version + config +
//!   little-endian array sections, each starting on an 8-byte file
//!   offset, then a word-wide [`persist::checksum`] that detects every
//!   single-byte flip with certainty). The row map's top level and
//!   stored words are written beside the row starts' high and low bits;
//!   their ranks, and the starts' select samples, are derived at load. A loaded index is
//!   behaviourally identical to a fresh build, including the
//!   `is_fully_indexed` provenance that drives step 2's guard
//!   auto-selection.
//! * [`mmap`]: the zero-copy attach path for a persisted index, used by
//!   `--db` for every volume —
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
//!   (E7). A fully indexed bank of N positions with k distinct codes in
//!   `words` populated bitmap words takes, when `l = ⌊log2(N/k)⌋` is 0,
//!   `b·N/8 + (N + k)/8 + k/16 + (N + k)/1024 + N/8 + 12·words +
//!   12·⌈4^W/4096⌉` index bytes beside its N-byte `SEQ`, `b = ⌈log2
//!   len(SEQ)⌉`: the postings at the bank's bit width (the paper's ≈5·N
//!   counts four bytes each), the row starts' high vector with its
//!   derived select samples and block ranks, the bit-set and the row
//!   map's two levels with their ranks (at `l > 0` the high vector is
//!   `((N >> l) + k)/8` bytes and the low bits add `l·k/8`).
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
mod postings;
pub(crate) mod section;
pub mod seedcode;
pub mod structure;

pub use dust::DustMasker;
pub use entropy::EntropyMasker;
pub use mask::MaskSet;
pub use mmap::{map_index_file, Mapping};
pub use persist::{read_index_file, write_index_file, IndexMeta, PersistError};
pub use postings::{Row, RowIter};
pub use seedcode::{RollingCoder, SeedCoder, MAX_SEED_LEN};
pub use structure::{BankIndex, IndexConfig, IndexStats, PopulatedRows, MAX_BANK_LEN};
