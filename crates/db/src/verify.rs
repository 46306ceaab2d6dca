//! `verifydb` — offline integrity check (fsck) for a database directory.
//!
//! [`verify_db`] validates what [`Database::open`] deliberately defers:
//! it attaches **every** volume and walks the full identity-check chain
//! — manifest checksum, per-volume FASTA readability and content hash,
//! residue/sequence counts, index file structure (magic, version,
//! whole-stream checksum) and index ↔ manifest agreement — and reports
//! a verdict *per volume* instead of stopping at the first failure. A
//! database with one rotten volume yields one `FAILED` row and N−1 `OK`
//! rows, which is exactly what an operator deciding between "rebuild one
//! volume" and "rebuild everything" needs.

use std::path::Path;
use std::sync::Arc;

use crate::database::{Database, DbError, VolumeCause};
use crate::io::VolumeIo;

/// One volume's verdict.
#[derive(Debug)]
pub struct VolumeVerdict {
    /// Volume id (manifest order).
    pub volume: usize,
    /// The volume's FASTA file name (from the manifest).
    pub fasta: String,
    /// The volume's index file name (from the manifest).
    pub index: String,
    /// `None` if the volume passed every check; the first failure
    /// otherwise.
    pub error: Option<DbError>,
}

impl VolumeVerdict {
    /// Whether the volume passed.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Outcome of [`verify_db`]: a verdict for every volume the manifest
/// names.
#[derive(Debug)]
pub struct VerifyReport {
    /// Per-volume verdicts, in manifest order.
    pub volumes: Vec<VolumeVerdict>,
    /// Database-wide residue total from the manifest.
    pub total_residues: u64,
}

impl VerifyReport {
    /// Whether every volume passed.
    pub fn is_ok(&self) -> bool {
        self.volumes.iter().all(VolumeVerdict::is_ok)
    }

    /// The failing verdicts.
    pub fn failures(&self) -> impl Iterator<Item = &VolumeVerdict> {
        self.volumes.iter().filter(|v| !v.is_ok())
    }

    /// Process exit code for this report: `0` when clean, otherwise the
    /// [`DbError::exit_code`] of the first failing volume (volume
    /// failures are `3`).
    pub fn exit_code(&self) -> u8 {
        self.failures()
            .filter_map(|v| v.error.as_ref())
            .map(DbError::exit_code)
            .next()
            .unwrap_or(0)
    }
}

/// Verifies the database at `dir` through `io`, checking every volume.
///
/// Fails fast (with `Err`) only when there is nothing per-volume to
/// report: an unreadable or corrupt **manifest** ([`DbError::Io`] /
/// [`DbError::Manifest`] — exit codes 4 / 2). Every per-volume problem
/// lands in the returned report instead.
pub fn verify_db(dir: impl AsRef<Path>, io: Arc<dyn VolumeIo>) -> Result<VerifyReport, DbError> {
    // open_unchecked: manifest fully validated (including its trailing
    // checksum and residue-total consistency), volume files *not* probed
    // — a missing volume must become a verdict, not an open failure.
    let db = Database::open_unchecked(dir, io)?;
    let mut volumes = Vec::with_capacity(db.num_volumes());
    for v in 0..db.num_volumes() {
        let meta = db.volume(v);
        let error = verify_volume(&db, v).err();
        volumes.push(VolumeVerdict {
            volume: v,
            fasta: meta.fasta.clone(),
            index: meta.index.clone(),
            error,
        });
    }
    Ok(VerifyReport {
        volumes,
        total_residues: db.total_residues(),
    })
}

/// Runs the full check chain on one volume.
fn verify_volume(db: &Database, v: usize) -> Result<(), DbError> {
    // attach_volume already checks: FASTA readable and parseable, bank
    // content hash vs manifest, residue count vs manifest, index file
    // structure (magic / version / checksum via the loader), index
    // w/stride vs manifest, index bank hash vs manifest, and the
    // bank ↔ index pairing invariants.
    let prepared = db.attach_volume(v)?;
    // One check the serving path skips (it never needs the count): the
    // manifest's per-volume sequence count.
    let meta = db.volume(v);
    let actual = prepared.bank().num_sequences() as u64;
    if actual != meta.sequences {
        return Err(DbError::Volume(crate::error::VolumeError {
            volume: v,
            path: db.dir().join(&meta.fasta),
            cause: VolumeCause::Mismatch(format!(
                "{actual} sequences, manifest records {}",
                meta.sequences
            )),
        }));
    }
    Ok(())
}
