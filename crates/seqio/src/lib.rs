//! # oris-seqio — sequence model and FASTA I/O for the ORIS reproduction
//!
//! This crate provides the data substrate every other crate builds on:
//!
//! * the 2-bit nucleotide coding used by the paper (`A=00, C=01, G=11, T=10`,
//!   section 2.1),
//! * [`Bank`]: a set of DNA sequences stored as one contiguous code array with
//!   sentinel separators — the `char *SEQ` array of the paper's Figure 2,
//! * a FASTA reader/writer able to load banks directly from FASTA text.
//!
//! Positions inside a [`Bank`] are *global* (offsets into the concatenated
//! code array); [`Bank::locate`] maps a global position back to the sequence
//! record containing it, which is how alignment coordinates are reported in
//! sequence-local terms.

pub mod alphabet;
pub mod bank;
pub mod error;
pub mod fasta;

pub use alphabet::{code_to_char, complement_code, nuc_from_char, Nuc, AMBIG, NUC_CODES, SENTINEL};
pub use bank::{Bank, BankBuilder, SeqRecord};
pub use error::SeqIoError;
pub use fasta::{
    parse_fasta, read_fasta, read_fasta_file, write_fasta, write_fasta_file, FastaRecord,
};
