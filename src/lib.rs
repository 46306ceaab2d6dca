//! # oris — Ordered Index Seed algorithm for intensive DNA sequence comparison
//!
//! Facade crate for the reproduction of D. Lavenier, *Ordered Index Seed
//! Algorithm for Intensive DNA Sequence Comparison*, HiCOMB 2008. It
//! re-exports the public API of every subsystem crate so applications can
//! depend on a single crate:
//!
//! ```
//! use oris::prelude::*;
//!
//! let bank1 = parse_fasta(">q\nACGTACGTACGTACGTACGT\n").unwrap();
//! let bank2 = parse_fasta(">s\nACGTACGTACGTACGTACGT\n").unwrap();
//! let cfg = OrisConfig::small(8);
//! let result = compare_banks(&bank1, &bank2, &cfg);
//! assert!(!result.alignments.is_empty());
//! ```
//!
//! `README.md` at the repository root maps the crates and the
//! command-line tools; the paper's tables and figures are reproduced by
//! the `reproduce` binary of `oris-bench`, and `benchmark/README.md`
//! describes the end-to-end benchmark.

pub use oris_align as align;
pub use oris_blast as blast;
pub use oris_core as core;
pub use oris_eval as eval;
pub use oris_index as index;
pub use oris_obs as obs;
pub use oris_seqio as seqio;
pub use oris_simulate as simulate;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use oris_blast::compare_banks as blast_compare_banks;
    pub use oris_core::{
        compare_banks, CollectSink, OrisConfig, OrisResult, PreparedBank, RecordSink, Session,
        StreamWriter,
    };
    pub use oris_eval::MissReport;
    pub use oris_index::{BankIndex, IndexConfig, IndexMeta, SeedCoder};
    pub use oris_seqio::{parse_fasta, read_fasta_file, Bank, BankBuilder};
    pub use oris_simulate::{paper_banks, BankSpec, SimConfig};
}
