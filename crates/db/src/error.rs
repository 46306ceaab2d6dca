//! Typed database errors with a preserved cause chain.
//!
//! The failure model's first requirement is *diagnosability*: an
//! operator (or `verifydb`, or a retry policy) must be able to tell a
//! transient I/O hiccup from durable corruption without string-matching
//! display text. Every error here therefore keeps its underlying cause
//! as a typed value — [`std::error::Error::source`] walks the real
//! chain (`DbError` → [`VolumeError`] → the `io::Error` /
//! [`PersistError`] / [`SeqIoError`] that started it), and
//! [`DbError::is_transient`] / [`VolumeCause::is_transient`] encode the
//! retry policy's classification in one place.

use std::path::PathBuf;

use oris_core::{DeadlineExceeded, SearchError};
use oris_index::PersistError;
use oris_seqio::SeqIoError;

/// Why a database could not be opened, attached, built or searched.
#[derive(Debug)]
pub enum DbError {
    /// I/O failure on a named path (manifest read, `makedb` writes).
    Io(PathBuf, std::io::Error),
    /// The manifest is missing, malformed or inconsistent.
    Manifest(String),
    /// A volume failed validation or could not be read — the typed
    /// per-volume failure [`verifydb`-style tooling and the quarantine
    /// policy dispatch on](VolumeError).
    Volume(VolumeError),
    /// The search configuration does not match the database.
    Config(String),
    /// The caller's result sink failed (e.g. the output stream behind a
    /// `StreamWriter` hit a full disk) — an *output* problem, kept
    /// distinct from the database's own paths so the operator debugs the
    /// right filesystem.
    Sink(std::io::Error),
    /// The query's cooperative deadline expired before every volume was
    /// searched. The caller's sink is untouched (every query's records
    /// are staged until all volumes completed) and the session remains
    /// usable.
    DeadlineExceeded(DeadlineExceeded),
}

impl DbError {
    /// Whether retrying the failed operation could plausibly succeed —
    /// the classification the bounded-retry policy uses. Only I/O-rooted
    /// volume failures qualify; corruption, mismatches and configuration
    /// errors are durable.
    pub fn is_transient(&self) -> bool {
        match self {
            DbError::Volume(v) => v.cause.is_transient(),
            _ => false,
        }
    }

    /// Process exit code for this error, shared by `scoris-n` and
    /// `verifydb` so operators script against one table:
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | 2 | manifest missing, malformed or checksum-mismatched |
    /// | 3 | volume failed validation (corruption, mismatch, missing file) |
    /// | 4 | I/O error |
    /// | 5 | configuration does not match the database |
    /// | 6 | result sink / output stream failure |
    /// | 7 | query deadline exceeded |
    ///
    /// (Code 1 is the CLIs' generic usage-error exit and is never
    /// produced here; 0 is success.)
    pub fn exit_code(&self) -> u8 {
        match self {
            DbError::Io(..) => 4,
            DbError::Manifest(_) => 2,
            DbError::Volume(_) => 3,
            DbError::Config(_) => 5,
            DbError::Sink(_) => 6,
            DbError::DeadlineExceeded(_) => 7,
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            DbError::Manifest(msg) => write!(f, "database manifest: {msg}"),
            DbError::Volume(v) => write!(f, "database volume: {v}"),
            DbError::Config(msg) => write!(f, "database configuration: {msg}"),
            DbError::Sink(e) => write!(f, "writing results: {e}"),
            DbError::DeadlineExceeded(_) => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(_, e) => Some(e),
            DbError::Sink(e) => Some(e),
            DbError::Volume(v) => Some(v),
            DbError::DeadlineExceeded(e) => Some(e),
            DbError::Manifest(_) | DbError::Config(_) => None,
        }
    }
}

impl From<DeadlineExceeded> for DbError {
    fn from(e: DeadlineExceeded) -> DbError {
        DbError::DeadlineExceeded(e)
    }
}

impl From<SearchError> for DbError {
    fn from(e: SearchError) -> DbError {
        match e {
            SearchError::ConfigMismatch(msg) => DbError::Config(msg),
            SearchError::DeadlineExceeded(e) => DbError::DeadlineExceeded(e),
        }
    }
}

/// One volume's failure: which volume, which file, and the typed cause.
#[derive(Debug)]
pub struct VolumeError {
    /// Volume ordinal (manifest id).
    pub volume: usize,
    /// The file the failure is attributed to.
    pub path: PathBuf,
    /// What went wrong.
    pub cause: VolumeCause,
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "volume {}: {}: {}",
            self.volume,
            self.path.display(),
            self.cause
        )
    }
}

impl std::error::Error for VolumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            VolumeCause::Io(e) => Some(e),
            VolumeCause::Fasta(e) => Some(e),
            VolumeCause::Index(e) => Some(e),
            VolumeCause::Missing | VolumeCause::HashMismatch { .. } | VolumeCause::Mismatch(_) => {
                None
            }
        }
    }
}

/// The typed root cause of a [`VolumeError`].
#[derive(Debug)]
pub enum VolumeCause {
    /// The file named by the manifest does not exist.
    Missing,
    /// Reading the file failed — the only cause class the retry policy
    /// may treat as transient (see [`VolumeCause::is_transient`]).
    Io(std::io::Error),
    /// The volume FASTA no longer parses (corruption).
    Fasta(SeqIoError),
    /// The index file was rejected by the persist loader — the typed
    /// [`PersistError`] distinguishes its own I/O from bad magic,
    /// unsupported version and structural/checksum corruption.
    Index(PersistError),
    /// The volume bank's content hash does not match the manifest row —
    /// the file was rewritten after `makedb`.
    HashMismatch {
        /// Hash recorded in the manifest.
        expected: u64,
        /// Hash of the bytes actually on disk.
        actual: u64,
    },
    /// Any other manifest↔file disagreement: residue/sequence counts,
    /// index `w`/`stride`, index↔manifest content hash, or a
    /// `PreparedBank` attach rejection.
    Mismatch(String),
}

impl VolumeCause {
    /// Whether this cause is plausibly transient (worth a bounded
    /// retry). I/O errors qualify unless their kind indicates a durable
    /// condition (missing file, permission, truncation-style EOF,
    /// malformed data); everything else — parse failures, hash and
    /// configuration mismatches — is durable corruption.
    pub fn is_transient(&self) -> bool {
        fn io_transient(e: &std::io::Error) -> bool {
            use std::io::ErrorKind::*;
            !matches!(
                e.kind(),
                NotFound
                    | PermissionDenied
                    | InvalidData
                    | InvalidInput
                    | UnexpectedEof
                    | Unsupported
            )
        }
        match self {
            VolumeCause::Io(e) => io_transient(e),
            VolumeCause::Index(PersistError::Io(e)) => io_transient(e),
            _ => false,
        }
    }
}

impl std::fmt::Display for VolumeCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeCause::Missing => write!(f, "file is missing"),
            VolumeCause::Io(e) => write!(f, "{e}"),
            VolumeCause::Fasta(e) => write!(f, "{e}"),
            VolumeCause::Index(e) => write!(f, "{e}"),
            VolumeCause::HashMismatch { expected, actual } => write!(
                f,
                "content hash {actual:016x} does not match the manifest \
                 ({expected:016x}) — volume rewritten after makedb?"
            ),
            VolumeCause::Mismatch(msg) => write!(f, "{msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    fn volume_err(cause: VolumeCause) -> DbError {
        DbError::Volume(VolumeError {
            volume: 3,
            path: PathBuf::from("/db/vol00003.fa"),
            cause,
        })
    }

    #[test]
    fn io_and_sink_expose_sources() {
        let e = DbError::Io("/db/manifest.orisdb".into(), std::io::Error::other("boom"));
        assert!(e
            .source()
            .unwrap()
            .downcast_ref::<std::io::Error>()
            .is_some());
        let e = DbError::Sink(std::io::Error::other("disk full"));
        assert!(e
            .source()
            .unwrap()
            .downcast_ref::<std::io::Error>()
            .is_some());
    }

    #[test]
    fn volume_chain_reaches_the_persist_error() {
        let e = volume_err(VolumeCause::Index(PersistError::BadMagic));
        let volume = e.source().unwrap().downcast_ref::<VolumeError>().unwrap();
        assert!(volume
            .source()
            .unwrap()
            .downcast_ref::<PersistError>()
            .is_some());
    }

    #[test]
    fn volume_chain_reaches_the_io_error() {
        let e = volume_err(VolumeCause::Io(std::io::Error::other("EIO")));
        let volume = e.source().unwrap().downcast_ref::<VolumeError>().unwrap();
        assert!(volume
            .source()
            .unwrap()
            .downcast_ref::<std::io::Error>()
            .is_some());
    }

    #[test]
    fn transient_classification() {
        use std::io::ErrorKind;
        assert!(volume_err(VolumeCause::Io(ErrorKind::Interrupted.into())).is_transient());
        assert!(volume_err(VolumeCause::Io(ErrorKind::TimedOut.into())).is_transient());
        assert!(volume_err(VolumeCause::Index(PersistError::Io(
            ErrorKind::Interrupted.into()
        )))
        .is_transient());
        // Durable conditions never qualify.
        assert!(!volume_err(VolumeCause::Io(ErrorKind::NotFound.into())).is_transient());
        assert!(!volume_err(VolumeCause::Io(ErrorKind::UnexpectedEof.into())).is_transient());
        assert!(!volume_err(VolumeCause::Missing).is_transient());
        assert!(!volume_err(VolumeCause::Index(PersistError::BadMagic)).is_transient());
        assert!(!volume_err(VolumeCause::HashMismatch {
            expected: 1,
            actual: 2
        })
        .is_transient());
        assert!(!DbError::Manifest("bad".into()).is_transient());
    }

    #[test]
    fn exit_codes_are_distinct() {
        let errors = [
            DbError::Io("x".into(), std::io::Error::other("e")),
            DbError::Manifest("m".into()),
            volume_err(VolumeCause::Missing),
            DbError::Config("c".into()),
            DbError::Sink(std::io::Error::other("s")),
            DbError::DeadlineExceeded(DeadlineExceeded),
        ];
        let mut codes: Vec<u8> = errors.iter().map(DbError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes must be distinct");
        assert!(codes.iter().all(|&c| c >= 2), "codes 0/1 are reserved");
    }

    #[test]
    fn display_keeps_diagnostic_substrings() {
        // Substrings operators (and older tests) grep for.
        let e = volume_err(VolumeCause::Missing);
        assert!(e.to_string().contains("missing"), "{e}");
        let e = volume_err(VolumeCause::HashMismatch {
            expected: 0xa,
            actual: 0xb,
        });
        assert!(e.to_string().contains("content hash"), "{e}");
        let e = DbError::DeadlineExceeded(DeadlineExceeded);
        assert!(e.to_string().contains("deadline"), "{e}");
    }
}
