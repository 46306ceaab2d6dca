//! # oris-blast — the BLASTN-style scan baseline
//!
//! The comparison target of the paper's evaluation (NCBI BLASTN 2.2.17)
//! reimplemented from scratch in the classical seed-and-extend structure,
//! so the speed-up experiments compare *algorithms*, not languages:
//!
//! 1. a **lookup table** over one batch of about 20 kbp of query
//!    sequences, the batch `blastall` 2.2.17 uses (the same Figure-2
//!    chained structure the ORIS engine uses — BLAST's lookup is
//!    equivalent);
//! 2. a **subject scan** of the whole subject bank for every batch: every
//!    subject position probes the lookup table — this is the
//!    cache-hostile access pattern ORIS's ordered enumeration avoids —
//!    and every hit is extended ungapped (one-hit BLASTN) unless the
//!    **per-diagonal last-end array** shows the position was already
//!    covered by a previous extension on that diagonal (BLASTN's classic
//!    duplicate suppression);
//! 3. the same gapped stage and statistics as the ORIS engine (shared via
//!    `oris-core`): the paper's two programs differ in *hit detection*,
//!    not in gapped extension or e-values, and sharing the code keeps the
//!    comparison honest.
//!
//! [`compare_banks`] takes the ORIS engine's own
//! [`OrisConfig`](oris_core::OrisConfig), so seed length, scoring and
//! thresholds are the same by construction. Its low-complexity filter is
//! the DUST-style masker — BLASTN's `dust` — wherever the ORIS run masks,
//! whereas the ORIS engine defaults to the entropy filter, reproducing
//! the paper's "the SCORIS-N low complexity filter presents some
//! difference with the dust filter included in BLASTN". The lookup is
//! plus-strand and full-stride whatever the configuration asks.

mod config;
pub mod engine;
pub mod scan;

pub use engine::{compare_banks, BlastResult, BlastStats};
