//! # oris-align — alignment kernels for the ORIS reproduction
//!
//! Four families of routines:
//!
//! * [`ungapped`]: the paper's section-2.2 hit extension — X-drop ungapped
//!   extension with the **ordered-seed abort rule** that makes every HSP
//!   unique without a duplicate-suppression pass. This is the core
//!   algorithmic contribution of the paper.
//! * [`gapped`]: X-drop banded affine-gap extension used by step 3 to grow
//!   HSPs into gapped alignments, with traceback.
//! * [`exact`]: the optimal local algorithms of the dynamic-programming
//!   family the paper cites — Smith–Waterman (linear gaps) and Gotoh
//!   (affine gaps) — as the oracles tests compare the heuristics against.
//! * [`cigar`]: alignment operation lists and the derived statistics that
//!   the BLAST `-m 8` tabular format reports (identity %, mismatches, gap
//!   openings).
//!
//! Beside them, the statistics that price an alignment (sections 2.4 and
//! 3.1: "The SCORIS-N program considers the size of the first bank and
//! the size of the sequence from which the alignment is found in the
//! second bank as parameters to compute the expected value"):
//! [`karlin`] computes the ungapped Karlin–Altschul `λ`, `K` and `H` of a
//! scoring scheme's score distribution, and [`evalue`] turns a score into
//! an e-value (`E = K·m·n·e^{−λS}`) and a bit score over a search space.

pub mod cigar;
pub mod evalue;
pub mod exact;
pub mod gapped;
pub mod karlin;
pub mod scoring;
pub mod ungapped;

pub use cigar::{AlignOp, AlignStats};
pub use evalue::{EValueModel, SearchSpace};
pub use exact::{gotoh_local, smith_waterman, ExactAlignment};
pub use gapped::{
    extend_gapped_both, extend_gapped_right, GappedExtension, GappedParams, GappedScratch,
};
pub use karlin::{KarlinParams, ScorePmf};
pub use scoring::ScoringScheme;
pub use ungapped::{extend_hit, ungapped_score, ExtensionOutcome, OrderGuard, UngappedParams};
