//! The `makedb` step: shard FASTA input into size-bounded volumes.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use oris_core::{FilterKind, OrisConfig, PreparedBank};
use oris_index::persist::fnv1a;
use oris_index::{IndexConfig, IndexMeta};
use oris_seqio::{Bank, BankBuilder};
use rayon::prelude::*;

use crate::database::DbError;
use crate::error::{VolumeCause, VolumeError};
use crate::io::{RealIo, VolumeIo};
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
/// Volumes are cut in input order on the calling thread. Up to
/// `rayon::current_num_threads()` cut volumes are then prepared (step 1)
/// and written side by side, on the shim's parallel map, and their
/// manifest rows are recorded in volume order — so the files and the
/// manifest are the same bytes for any worker count. Peak memory is up
/// to that many volumes in flight, each bank with its mask and its
/// index (the next volume is cut only after they are written). A
/// volume that fails to write fails the build with the lowest failing
/// volume's error, and no manifest is written.
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
    make_db_within(
        sources,
        out_dir.as_ref(),
        opts,
        oris_index::MAX_BANK_LEN,
        &RealIo,
    )
}

/// [`make_db`] with the per-volume position limit and the I/O seam as
/// parameters, so the refusal and a failing write are testable without
/// 4 GB of input or a broken disk.
pub(crate) fn make_db_within(
    sources: impl IntoIterator<Item = Bank>,
    out_dir: &Path,
    opts: &MakeDbOptions,
    max_positions: usize,
    io: &dyn VolumeIo,
) -> Result<Manifest, DbError> {
    std::fs::create_dir_all(out_dir).map_err(|e| DbError::Io(out_dir.to_path_buf(), e))?;
    let manifest_path = out_dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        return Err(DbError::Manifest(format!(
            "{} already exists — delete the directory to rebuild",
            manifest_path.display()
        )));
    }

    let workers = rayon::current_num_threads();
    let mut volumes: Vec<VolumeMeta> = Vec::new();
    // Volumes cut but not written yet, in volume order, with their
    // sequence counts: at most `workers` of them.
    let mut cut: Vec<(Bank, u64)> = Vec::with_capacity(workers);
    let mut current = BankBuilder::new();
    let mut current_seqs = 0u64;

    // Writes the cut volumes side by side and records their rows in
    // volume order; the first failing volume in that order is the error.
    let write_cut =
        |cut: &mut Vec<(Bank, u64)>, volumes: &mut Vec<VolumeMeta>| -> Result<(), DbError> {
            let first = volumes.len();
            let written: Vec<Result<VolumeMeta, DbError>> = std::mem::take(cut)
                .into_iter()
                .enumerate()
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(i, (bank, seqs))| write_volume(first + i, &bank, seqs, out_dir, opts, io))
                .collect();
            for meta in written {
                volumes.push(meta?);
            }
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
                let bank = std::mem::replace(&mut current, BankBuilder::new()).finish();
                cut.push((bank, std::mem::take(&mut current_seqs)));
                if cut.len() == workers {
                    write_cut(&mut cut, &mut volumes)?;
                }
            }
            // Residues, one sentinel per sequence, plus the opening one.
            let positions = current.residues() + rec.len + current_seqs as usize + 2;
            if positions >= max_positions {
                let volume = volumes.len() + cut.len();
                // The volumes before this one are written first, so a
                // failing write still outranks the refusal.
                write_cut(&mut cut, &mut volumes)?;
                return Err(DbError::Config(format!(
                    "sequence {:?} ({} nt) would take volume {volume} to {positions} positions \
                     and an index addresses fewer than {max_positions}: lower --volume-size (a \
                     sequence is never split across volumes)",
                    rec.name, rec.len,
                )));
            }
            current.push_codes(&rec.name, bank.sequence(i));
            current_seqs += 1;
        }
    }
    if current_seqs > 0 {
        cut.push((current.finish(), current_seqs));
    }
    write_cut(&mut cut, &mut volumes)?;

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

/// Writes volume `id` — its FASTA, then its index under `opts` — and
/// returns its manifest row.
fn write_volume(
    id: usize,
    bank: &Bank,
    sequences: u64,
    out_dir: &Path,
    opts: &MakeDbOptions,
    io: &dyn VolumeIo,
) -> Result<VolumeMeta, DbError> {
    let fasta = format!("vol{id:05}.fa");
    let index = format!("vol{id:05}.oidx");
    let fasta_path = out_dir.join(&fasta);
    write_file(io, &fasta_path, |out| {
        oris_seqio::write_fasta(bank, out, 60)
    })
    .map_err(|e| {
        DbError::Volume(VolumeError {
            volume: id,
            path: fasta_path.clone(),
            cause: VolumeCause::Fasta(e.into()),
        })
    })?;
    let prepared = PreparedBank::prepare(bank, opts.filter, opts.index_config);
    let imeta = IndexMeta {
        masked_fraction: prepared.stats().masked_fraction,
        filter_code: opts.filter.code(),
        bank_hash: fnv1a(bank.data()),
    };
    let index_path = out_dir.join(&index);
    write_file(io, &index_path, |out| {
        oris_index::persist::write_index(out, prepared.index(), &imeta)
    })
    .map_err(|e| DbError::Io(index_path.clone(), e))?;
    Ok(VolumeMeta {
        id,
        residues: bank.num_residues() as u64,
        sequences,
        bank_hash: imeta.bank_hash,
        fasta,
        index,
    })
}

/// Creates `path` through the seam and writes it, buffered, with `body`.
fn write_file(
    io: &dyn VolumeIo,
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(io.create(path)?);
    body(&mut out)?;
    out.flush()
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
            let made = make_db_within([bank()], &dir, &opts, limit, &RealIo);
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
            make_db_within([bank()], &dir, &split, 11, &RealIo)
                .unwrap()
                .volumes
                .len(),
            2
        );
        // ...and one sequence that is too long on its own has no budget
        // that helps.
        let _ = std::fs::remove_dir_all(&dir);
        match make_db_within([bank()], &dir, &split, 10, &RealIo) {
            Err(DbError::Config(msg)) => assert!(msg.contains("\"first\" (8 nt)"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sixty sequences of 40–400 nt, every fifth ending in a poly-A tail
    /// the entropy mask takes out.
    fn mixed_bank() -> Bank {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = BankBuilder::new();
        for i in 0..60 {
            let len = 40 + (next() % 361) as usize;
            let mut codes: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            if i % 5 == 0 {
                codes.iter_mut().rev().take(30).for_each(|c| *c = 0);
            }
            b.push_codes(&format!("seq{i}"), &codes);
        }
        b.finish()
    }

    /// A budget under which `make_db` cuts `bank` into exactly `n`
    /// volumes (its greedy rule, replayed on the sequence lengths).
    fn budget_for(bank: &Bank, n: usize) -> usize {
        let cuts = |budget: usize| {
            let (mut volumes, mut residues, mut seqs) = (0, 0, 0);
            for rec in bank.records() {
                if seqs > 0 && residues + rec.len > budget {
                    volumes += 1;
                    (residues, seqs) = (0, 0);
                }
                residues += rec.len;
                seqs += 1;
            }
            volumes + usize::from(seqs > 0)
        };
        (1..=bank.num_residues())
            .rev()
            .find(|&budget| cuts(budget) == n)
            .expect("some budget cuts the bank into n volumes")
    }

    /// Every file of `dir`, by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    fn entropy_cfg() -> OrisConfig {
        OrisConfig {
            filter: FilterKind::Entropy,
            ..OrisConfig::small(8)
        }
    }

    #[test]
    fn the_manifest_and_every_volume_file_are_the_same_bytes_in_any_pool() {
        let bank = mixed_bank();
        let root = std::env::temp_dir().join(format!("oris_makedb_pools_{}", std::process::id()));
        for n in 1..=9 {
            let opts = MakeDbOptions::new(&entropy_cfg(), budget_for(&bank, n));
            let mut serial = None;
            for threads in [1usize, 2, 4] {
                let dir = root.join(format!("{n}_{threads}"));
                let _ = std::fs::remove_dir_all(&dir);
                let manifest = in_pool(threads, || make_db([bank.clone()], &dir, &opts)).unwrap();
                assert_eq!(manifest.volumes.len(), n);
                let written = files(&dir);
                assert_eq!(
                    written.len(),
                    2 * n + 1,
                    "a manifest, a FASTA and an index per volume"
                );
                match &serial {
                    None => serial = Some(written),
                    Some(serial) => assert!(serial == &written, "{n} volumes, {threads} workers"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failing_volume_write_reports_the_lowest_failing_volume_and_leaves_no_manifest() {
        use crate::io::{Fault, FaultRule, FaultyIo};
        let bank = mixed_bank();
        let opts = MakeDbOptions::new(&entropy_cfg(), budget_for(&bank, 9));
        let dir = std::env::temp_dir().join(format!("oris_makedb_faults_{}", std::process::id()));
        // The files whose create fails, and the one the error must name.
        let cases: [(&[&str], &str); 3] = [
            (
                &["vol00005.oidx", "vol00003.fa", "vol00007.fa"],
                "vol00003.fa",
            ),
            (&["vol00008.fa", "vol00006.oidx"], "vol00006.oidx"),
            (&["vol00008.oidx"], "vol00008.oidx"),
        ];
        for (failing, named) in cases {
            for threads in [1usize, 2, 4] {
                let _ = std::fs::remove_dir_all(&dir);
                let io =
                    FaultyIo::with_rules(failing.iter().map(|file| {
                        FaultRule::always(file, Fault::Error(std::io::ErrorKind::Other))
                    }));
                let made = in_pool(threads, || {
                    make_db_within([bank.clone()], &dir, &opts, oris_index::MAX_BANK_LEN, &io)
                });
                let (volume, path) = match made {
                    Err(DbError::Volume(e)) => (Some(e.volume), e.path),
                    Err(DbError::Io(path, _)) => (None, path),
                    other => panic!("{failing:?}, {threads} workers: {other:?}"),
                };
                assert_eq!(path, dir.join(named), "{failing:?}, {threads} workers");
                if named.ends_with(".fa") {
                    assert_eq!(volume, named[3..8].parse().ok());
                }
                assert!(
                    !dir.join(MANIFEST_FILE).exists(),
                    "a crashed build leaves no manifest"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
