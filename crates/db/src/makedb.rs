//! The `makedb` step: shard FASTA input into size-bounded volumes.

use std::path::Path;

use oris_core::{FilterKind, OrisConfig, PreparedBank};
use oris_index::persist::fnv1a;
use oris_index::{IndexConfig, IndexMeta};
use oris_seqio::{Bank, BankBuilder};

use crate::database::DbError;
use crate::manifest::{Manifest, VolumeMeta, MANIFEST_FILE};

/// Options for [`make_db`].
#[derive(Debug, Clone, Copy)]
pub struct MakeDbOptions {
    /// Residue budget per volume: a volume is closed once adding the next
    /// sequence would exceed this (a single sequence longer than the
    /// budget still gets a volume of its own — sequences are never
    /// split).
    pub volume_residues: usize,
    /// Low-complexity filter the volume indexes are prepared under.
    pub filter: FilterKind,
    /// Index configuration of every volume (the *subject-side*
    /// configuration — stride 2 for an asymmetric database).
    pub index_config: IndexConfig,
}

impl MakeDbOptions {
    /// Options matching a search configuration: the database is built
    /// exactly as `scoris-n` would prepare its subject bank under `cfg`,
    /// so a [`crate::DbSession`] under the same `cfg` attaches cleanly.
    pub fn new(cfg: &OrisConfig, volume_residues: usize) -> MakeDbOptions {
        MakeDbOptions {
            volume_residues: volume_residues.max(1),
            filter: cfg.filter,
            index_config: cfg.subject_index_config(),
        }
    }
}

/// Splits the sequences of `sources` (in order) into size-bounded
/// volumes under `out_dir`: each volume is written as `vol<i>.fa` plus
/// its persisted index `vol<i>.oidx`, and the manifest —
/// [`MANIFEST_FILE`] — records per-volume residue counts, sequence
/// counts and content hashes, the index configuration, and the
/// database-wide residue total the search layer prices e-values against.
///
/// `out_dir` is created if missing; an existing manifest there is
/// refused (a database is built once, not accreted — delete the
/// directory to rebuild). Returns the written manifest.
///
/// A volume is indexed, so it must stay under
/// [`oris_index::MAX_BANK_LEN`] positions: the sequence that would take
/// one there — a budget that large, or one sequence that long — is a
/// [`DbError::Config`] naming it. (The *input* banks may be any size;
/// they are only read.)
pub fn make_db(
    sources: impl IntoIterator<Item = Bank>,
    out_dir: impl AsRef<Path>,
    opts: &MakeDbOptions,
) -> Result<Manifest, DbError> {
    make_db_within(sources, out_dir.as_ref(), opts, oris_index::MAX_BANK_LEN)
}

/// [`make_db`] with the per-volume position limit as a parameter, so the
/// refusal is testable without 4 GB of input.
pub(crate) fn make_db_within(
    sources: impl IntoIterator<Item = Bank>,
    out_dir: &Path,
    opts: &MakeDbOptions,
    max_positions: usize,
) -> Result<Manifest, DbError> {
    std::fs::create_dir_all(out_dir).map_err(|e| DbError::Io(out_dir.to_path_buf(), e))?;
    let manifest_path = out_dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        return Err(DbError::Manifest(format!(
            "{} already exists — delete the directory to rebuild",
            manifest_path.display()
        )));
    }

    let mut volumes: Vec<VolumeMeta> = Vec::new();
    let mut current = BankBuilder::new();
    let mut current_seqs = 0u64;

    let flush = |builder: &mut BankBuilder,
                 seqs: &mut u64,
                 volumes: &mut Vec<VolumeMeta>|
     -> Result<(), DbError> {
        if *seqs == 0 {
            return Ok(());
        }
        let bank = std::mem::replace(builder, BankBuilder::new()).finish();
        let id = volumes.len();
        let fasta = format!("vol{id:05}.fa");
        let index = format!("vol{id:05}.oidx");
        let fasta_path = out_dir.join(&fasta);
        oris_seqio::write_fasta_file(&bank, &fasta_path).map_err(|e| {
            DbError::Volume(crate::error::VolumeError {
                volume: id,
                path: fasta_path.clone(),
                cause: crate::error::VolumeCause::Fasta(e),
            })
        })?;
        let prepared = PreparedBank::prepare(&bank, opts.filter, opts.index_config);
        let imeta = IndexMeta {
            masked_fraction: prepared.stats().masked_fraction,
            filter_code: opts.filter.code(),
            bank_hash: fnv1a(bank.data()),
        };
        let index_path = out_dir.join(&index);
        oris_index::write_index_file(&index_path, prepared.index(), &imeta)
            .map_err(|e| DbError::Io(index_path.clone(), e))?;
        volumes.push(VolumeMeta {
            id,
            residues: bank.num_residues() as u64,
            sequences: *seqs,
            bank_hash: imeta.bank_hash,
            fasta,
            index,
        });
        *seqs = 0;
        Ok(())
    };

    for bank in sources {
        for i in 0..bank.num_sequences() {
            let rec = bank.record(i);
            // Close the current volume when this sequence would overflow
            // it. A sequence longer than the whole budget still lands in
            // a (fresh) volume of its own: sequences are never split,
            // because extensions cannot cross sequence boundaries and a
            // split would change results.
            if current_seqs > 0 && current.residues() + rec.len > opts.volume_residues {
                flush(&mut current, &mut current_seqs, &mut volumes)?;
            }
            // Residues, one sentinel per sequence, plus the opening one.
            let positions = current.residues() + rec.len + current_seqs as usize + 2;
            if positions >= max_positions {
                return Err(DbError::Config(format!(
                    "sequence {:?} ({} nt) would take volume {} to {positions} positions and an \
                     index addresses fewer than {max_positions}: lower --volume-size (a \
                     sequence is never split across volumes)",
                    rec.name,
                    rec.len,
                    volumes.len()
                )));
            }
            current.push_codes(&rec.name, bank.sequence(i));
            current_seqs += 1;
        }
    }
    flush(&mut current, &mut current_seqs, &mut volumes)?;

    if volumes.is_empty() {
        return Err(DbError::Manifest(
            "no sequences in the input — a database needs at least one".into(),
        ));
    }
    let manifest = Manifest {
        w: opts.index_config.w,
        stride: opts.index_config.stride,
        filter_code: opts.filter.code(),
        total_residues: volumes.iter().map(|v| v.residues).sum(),
        volumes,
    };
    // The manifest is written last, so a crashed build leaves a directory
    // `Database::open` refuses (no manifest) instead of a plausible but
    // incomplete database.
    std::fs::write(&manifest_path, manifest.to_text())
        .map_err(|e| DbError::Io(manifest_path, e))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_volume_at_or_over_the_position_limit_is_an_error_naming_the_sequence() {
        let dir = std::env::temp_dir().join(format!("oris_makedb_limit_{}", std::process::id()));
        let bank = || {
            let mut b = BankBuilder::new();
            b.push_str("first", "ACGTACGT").unwrap();
            b.push_str("second", "GGCC").unwrap();
            b.finish()
        };
        // One volume of both sequences is the whole bank: 15 positions.
        assert_eq!(bank().data().len(), 15);
        let opts = MakeDbOptions::new(&OrisConfig::small(4), 100);
        for (limit, refused) in [(16, None), (15, Some("second")), (14, Some("second"))] {
            let _ = std::fs::remove_dir_all(&dir);
            let made = make_db_within([bank()], &dir, &opts, limit);
            match (made, refused) {
                (Ok(m), None) => assert_eq!(m.volumes.len(), 1),
                (Err(DbError::Config(msg)), Some(name)) => {
                    assert!(msg.contains(&format!("sequence {name:?} (4 nt)")), "{msg}");
                    assert!(msg.contains("to 15 positions"), "{msg}");
                    assert!(msg.contains("--volume-size"), "{msg}");
                    assert!(
                        !dir.join(MANIFEST_FILE).exists(),
                        "no manifest, no database"
                    );
                }
                (other, _) => panic!("limit {limit}: {other:?}"),
            }
        }
        // A budget that closes the volume first keeps both sequences legal
        // under the limit that refused them together...
        let _ = std::fs::remove_dir_all(&dir);
        let split = MakeDbOptions::new(&OrisConfig::small(4), 8);
        assert_eq!(
            make_db_within([bank()], &dir, &split, 11)
                .unwrap()
                .volumes
                .len(),
            2
        );
        // ...and one sequence that is too long on its own has no budget
        // that helps.
        let _ = std::fs::remove_dir_all(&dir);
        match make_db_within([bank()], &dir, &split, 10) {
            Err(DbError::Config(msg)) => assert!(msg.contains("\"first\" (8 nt)"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
