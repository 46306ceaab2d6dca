//! # oris-cli — command-line front ends
//!
//! Four binaries, all of the ORIS engine (the BLASTN-style baseline and
//! the bank generator `mkbank` belong to the reproduction, in
//! `oris-bench`):
//!
//! * **`scoris-n`** — the paper's prototype as a tool: compares two FASTA
//!   banks and writes BLAST `-m 8` records to stdout or a file. With
//!   `--index FILE` the subject bank's index is loaded from a `mkindex`
//!   file instead of being rebuilt — the intensive-comparison workflow,
//!   with byte-identical output; `--batch` runs many query banks and
//!   `--db` searches a `makedb` database.
//! * **`mkindex`** — builds a bank's occurrence index once (mask + CSR
//!   arrays, exactly as `scoris-n` would for its second bank) and
//!   persists it in the versioned `oris-index` on-disk format.
//! * **`makedb`** — shards FASTA input into a database of size-bounded
//!   volumes, each a bank plus its persisted index, under one manifest.
//! * **`verifydb`** — checks a `makedb` database offline, volume by
//!   volume, against its manifest.
//!
//! Argument parsing is hand-rolled (the sanctioned dependency set carries
//! no CLI crate); [`args`] holds the tiny parser shared by the binaries.
//! It accepts `--key value` and `--key=value` spellings interchangeably.

pub mod args;

pub use args::{ArgError, Args};

use std::path::Path;

use oris_seqio::Bank;

/// Reads the FASTA bank at `path` for a tool that will index it whole.
/// Either failure is one line that starts with the path: the reader's
/// own error, or — for a bank of [`oris_index::MAX_BANK_LEN`] positions
/// or more, which no index can address — the way such a bank *can* be
/// searched.
pub fn read_bank(path: impl AsRef<Path>) -> Result<Bank, String> {
    read_bank_within(path.as_ref(), oris_index::MAX_BANK_LEN)
}

/// [`read_bank`] with the position limit as a parameter, so the refusal
/// is testable without 4 GB of input.
pub(crate) fn read_bank_within(path: &Path, limit: usize) -> Result<Bank, String> {
    let bank = oris_seqio::read_fasta_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let positions = bank.data().len();
    if positions >= limit {
        return Err(format!(
            "{}: bank holds {positions} positions and an index addresses fewer than {limit}: \
             split it with `makedb --volume-size` and search it with `--db`",
            path.display()
        ));
    }
    Ok(bank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bank_refuses_a_bank_at_or_over_the_position_limit() {
        let dir = std::env::temp_dir().join(format!("oris_cli_read_bank_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bank.fa");
        std::fs::write(&path, ">a\nACGTACGT\n>b\nGGCC\n").unwrap();
        // 12 residues + one sentinel per sequence + the opening one.
        let positions = 15;
        let bank = read_bank_within(&path, positions + 1).unwrap();
        assert_eq!(bank.data().len(), positions);
        assert_eq!(read_bank(&path).unwrap(), bank);
        for limit in [positions, positions - 1] {
            let err = read_bank_within(&path, limit).unwrap_err();
            assert!(err.starts_with(&format!("{}: bank holds 15 positions", path.display())));
            assert!(
                err.contains("makedb --volume-size") && err.contains("--db"),
                "{err}"
            );
            assert!(!err.contains('\n'), "one line: {err}");
        }
        let missing = dir.join("missing.fa");
        let err = read_bank(&missing).unwrap_err();
        assert!(
            err.starts_with(&format!("{}: ", missing.display())),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
