//! # oris-simulate — synthetic DNA banks for the ORIS reproduction
//!
//! The paper evaluates on GenBank data: seven randomly-sampled EST banks
//! (6.4–40 Mbp), the viral division (VRL), a set of bacterial genomes
//! (BCT) and human chromosomes 10 and 19. None of that data ships with
//! this reproduction, so this crate builds *statistical analogues* whose
//! properties drive the same code paths:
//!
//! * **EST banks** ([`est`]): short sequences (log-normal lengths around
//!   ~490 nt, the paper's mean) sampled as mutated fragments of a shared
//!   latent *gene pool* — two banks sampled from the same pool share
//!   homologous fragments exactly as two random GenBank EST samples share
//!   genes. Poly-A tails and occasional low-complexity inserts exercise
//!   the filters.
//! * **Genome banks** ([`genome`]): few, long sequences with divergent
//!   copies of a global *repeat library* embedded in random background —
//!   cross-bank alignments then arise from shared repeat families, as they
//!   do between real genomes.
//! * **The paper's data-set table** ([`banks`]): [`paper_banks`] rebuilds
//!   the section-3.2 table at 1/10 scale (EST) and 1/20 scale (large
//!   banks) with fixed seeds, so every experiment in `oris-bench` is
//!   deterministic.
//!
//! All generators are deterministic given their seed (rand `StdRng`).

pub mod banks;
pub mod dna;
pub mod est;
pub mod genome;
pub mod mutate;

pub use banks::{
    paper_bank, paper_bank_specs, paper_banks, BankKind, BankSpec, NamedBank, SimConfig,
};
pub use dna::{random_bank, random_codes};
pub use est::{est_bank, est_bank_with_contaminants, EstBankConfig, GenePool};
pub use genome::{genome_bank, GenomeConfig, RepeatLibrary};
pub use mutate::{mutate, MutationModel};
