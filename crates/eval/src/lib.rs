//! # oris-eval — the paper's evaluation methodology (section 3)
//!
//! What section 3 of the paper measures about the two programs, from
//! their `-m 8` output ([`oris_core::M8Record`]) alone:
//!
//! * [`overlap`]: the sensitivity metric — "two alignments are equivalent
//!   if they overlap of more than 80 %";
//! * [`sensitivity`]: the `SCmiss` / `BLmiss` / `SCORISmiss` / `BLASTmiss`
//!   bookkeeping of section 3.4.

pub mod overlap;
pub mod sensitivity;

// For the standalone `benchmark/` package, which imports the record from
// here; the workspace imports it from `oris_core`.
pub use oris_core::{M8Record, M8Writer};
pub use overlap::{equivalent, overlap_fraction};
pub use sensitivity::{compare_outputs, MissReport};
