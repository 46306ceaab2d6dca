//! Opening a database directory and attaching its volumes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use oris_core::PreparedBank;
use oris_index::persist::fnv1a;
use oris_index::IndexMeta;

use crate::io::{RealIo, VolumeIo};
use crate::manifest::{Manifest, VolumeMeta, MANIFEST_FILE};

pub use crate::error::{DbError, VolumeCause, VolumeError};

/// An opened sharded subject database: a validated [`Manifest`] plus the
/// directory its volume files live in. Opening touches only the manifest
/// (and checks the volume files exist); volumes are attached lazily by
/// [`Database::attach_volume`] or a [`crate::DbSession`].
///
/// Every file the database reads goes through its [`VolumeIo`] — the
/// real filesystem under [`Database::open`], or an injected
/// [`crate::FaultyIo`] under [`Database::open_with_io`], which is how
/// the fault-injection suite drives every error path below from tests.
#[derive(Debug, Clone)]
pub struct Database {
    dir: PathBuf,
    manifest: Manifest,
    io: Arc<dyn VolumeIo>,
}

impl Database {
    /// Opens the database at `dir`: parses and validates the manifest and
    /// verifies every volume's FASTA and index files exist.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        Database::open_with_io(dir, Arc::new(RealIo))
    }

    /// [`Database::open`] with an explicit [`VolumeIo`] (fault injection,
    /// instrumentation). All subsequent reads — every attach — go through
    /// the same `io`.
    pub fn open_with_io(dir: impl AsRef<Path>, io: Arc<dyn VolumeIo>) -> Result<Database, DbError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = io
            .read(&manifest_path)
            .map_err(|e| DbError::Io(manifest_path.clone(), e))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| DbError::Manifest("manifest is not valid UTF-8".into()))?;
        let manifest = Manifest::parse(&text).map_err(DbError::Manifest)?;
        let db = Database { dir, manifest, io };
        for v in 0..db.num_volumes() {
            let meta = db.volume(v);
            for name in [&meta.fasta, &meta.index] {
                let p = db.dir.join(name);
                if !db.io.is_file(&p) {
                    return Err(db.volume_error(v, p, VolumeCause::Missing));
                }
            }
        }
        Ok(db)
    }

    /// Opens without the per-volume existence check: the manifest is
    /// still fully validated, but missing or unreadable volume files
    /// surface per-volume at attach time instead of failing the open.
    /// This is `verifydb`'s entry point — a database with one rotten
    /// volume must still yield a per-volume report, not a refusal to
    /// look.
    pub fn open_unchecked(
        dir: impl AsRef<Path>,
        io: Arc<dyn VolumeIo>,
    ) -> Result<Database, DbError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = io
            .read(&manifest_path)
            .map_err(|e| DbError::Io(manifest_path.clone(), e))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| DbError::Manifest("manifest is not valid UTF-8".into()))?;
        let manifest = Manifest::parse(&text).map_err(DbError::Manifest)?;
        Ok(Database { dir, manifest, io })
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of volumes.
    pub fn num_volumes(&self) -> usize {
        self.manifest.volumes.len()
    }

    /// Database-wide residue total — the subject-side effective search
    /// space every volume prices e-values against.
    pub fn total_residues(&self) -> u64 {
        self.manifest.total_residues
    }

    /// One volume's manifest row.
    pub fn volume(&self, i: usize) -> &VolumeMeta {
        &self.manifest.volumes[i]
    }

    /// Wraps a typed cause into the volume's [`DbError`].
    fn volume_error(&self, volume: usize, path: PathBuf, cause: VolumeCause) -> DbError {
        DbError::Volume(VolumeError {
            volume,
            path,
            cause,
        })
    }

    /// Attaches volume `i`: re-reads its FASTA, loads its index through
    /// [`VolumeIo::attach_index`] (mmap under [`crate::RealIo`] —
    /// zero-copy postings and row map), and pairs them into a `PreparedBank`
    /// after the full identity check chain:
    ///
    /// * the FASTA's content hash must match the manifest row (a volume
    ///   edited after `makedb` is refused);
    /// * the index file's recorded bank hash must match the bank (the
    ///   `PreparedBank::from_index` check — so manifest, FASTA and index
    ///   must agree pairwise);
    /// * the index configuration must match the manifest's `w`/`stride`.
    ///
    /// Every failure is a [`DbError::Volume`] whose typed
    /// [`VolumeCause`] distinguishes transient I/O from durable
    /// corruption — the distinction the session's retry/quarantine
    /// policy and `verifydb` dispatch on.
    pub fn attach_volume(&self, i: usize) -> Result<PreparedBank<'static>, DbError> {
        let meta = self.volume(i);
        let fasta_path = self.dir.join(&meta.fasta);
        let fasta_bytes = self
            .io
            .read(&fasta_path)
            .map_err(|e| self.volume_error(i, fasta_path.clone(), VolumeCause::Io(e)))?;
        let bank = oris_seqio::read_fasta(&fasta_bytes[..])
            .map_err(|e| self.volume_error(i, fasta_path.clone(), VolumeCause::Fasta(e)))?;
        let actual_hash = fnv1a(bank.data());
        if actual_hash != meta.bank_hash {
            return Err(self.volume_error(
                i,
                fasta_path.clone(),
                VolumeCause::HashMismatch {
                    expected: meta.bank_hash,
                    actual: actual_hash,
                },
            ));
        }
        if bank.num_residues() as u64 != meta.residues {
            return Err(self.volume_error(
                i,
                fasta_path.clone(),
                VolumeCause::Mismatch(format!(
                    "{} residues, manifest records {}",
                    bank.num_residues(),
                    meta.residues
                )),
            ));
        }
        let index_path = self.dir.join(&meta.index);
        let (index, imeta): (_, IndexMeta) = self
            .io
            .attach_index(&index_path)
            .map_err(|e| self.volume_error(i, index_path.clone(), VolumeCause::Index(e)))?;
        if index.w() != self.manifest.w || index.stride() != self.manifest.stride {
            return Err(self.volume_error(
                i,
                index_path.clone(),
                VolumeCause::Mismatch(format!(
                    "index is w={} stride={}, manifest says w={} stride={}",
                    index.w(),
                    index.stride(),
                    self.manifest.w,
                    self.manifest.stride
                )),
            ));
        }
        // Index ↔ manifest: the index file's recorded bank hash must name
        // the same content the manifest row does. Combined with the
        // bank ↔ manifest check above this is transitively bank ↔ index,
        // so the attach below is told to skip its own bank re-hash — one
        // full-bank FNV pass per attach, not two (this is the hot path
        // under a bounded window, which re-attaches volumes per query).
        if imeta.bank_hash != 0 && imeta.bank_hash != meta.bank_hash {
            return Err(self.volume_error(
                i,
                index_path.clone(),
                VolumeCause::Mismatch(format!(
                    "index was built over content {:016x}, manifest records {:016x}",
                    imeta.bank_hash, meta.bank_hash
                )),
            ));
        }
        let attach_meta = IndexMeta {
            bank_hash: 0, // verified transitively above
            ..imeta
        };
        PreparedBank::from_index(bank, index, &attach_meta)
            .map_err(|e| self.volume_error(i, index_path.clone(), VolumeCause::Mismatch(e)))
    }
}
