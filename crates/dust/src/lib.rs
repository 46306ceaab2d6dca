//! # oris-dust — low-complexity filters for the ORIS reproduction
//!
//! Section 2.1 of the paper: "To eliminate non interesting alignments made
//! of small repeats, a low complexity filter can be activated before
//! indexing. In that case, W character words belonging to low-complexity
//! regions are discarded from the index."
//!
//! Section 3.4 then attributes part of the SCORIS-N/BLASTN sensitivity gap
//! to the two programs using *different* filters: "the SCORIS-N low
//! complexity filter presents some difference with the dust filter
//! included in BLASTN". We reproduce that situation deliberately:
//!
//! * [`DustMasker`] — a windowed triplet-scoring masker in the style of
//!   DUST/SDUST (Morgulis et al. 2006, the paper's reference \[14\]): the
//!   score of a window is `Σ_t c_t(c_t−1)/2` over its 64 triplet types,
//!   normalized by `(#triplets − 1)`; windows above threshold are masked.
//!   This is the filter wired into the BLASTN-like baseline.
//! * [`EntropyMasker`] — a windowed Shannon-entropy filter standing in for
//!   SCORIS-N's own (unspecified, "different") filter; wired into the
//!   ORIS engine.
//!
//! Both produce a [`MaskSet`] of global bank positions; an indexed W-mer is
//! discarded when its start position is masked.

pub mod dust;
pub mod entropy;

pub use dust::DustMasker;
pub use entropy::EntropyMasker;
pub use oris_index::MaskSet;
