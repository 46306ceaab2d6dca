//! The volume I/O seam: real filesystem reads, and a deterministic
//! fault injector that exercises every database error path from tests.
//!
//! Everything a [`crate::Database`] reads — the manifest, volume FASTAs,
//! volume index files — goes through a [`VolumeIo`] implementation.
//! Production uses [`RealIo`] (plain `std::fs` + the mmap attach path).
//! Tests use [`FaultyIo`], which wraps the real filesystem and applies
//! scripted [`FaultRule`]s: fail the Nth open/read of a chosen file with
//! a chosen `io::ErrorKind`, truncate the returned bytes, bit-flip a
//! chosen byte, report a file as missing, or delay the operation. Index
//! bytes that come out of the plan go to the decoder the mmap attach runs
//! over the file, so a scripted truncation or flip yields the
//! [`PersistError`] production returns for those bytes. Faults
//! are matched **deterministically** (by file name and a per-rule
//! occurrence counter, never randomness or global state), so a test that
//! injects "the second read of `vol00001.oidx` fails with `Interrupted`"
//! reproduces exactly — which is what lets the fault-injection suite
//! assert *which* [`crate::DbError`] variant each failure produces, and
//! that no error arm in the database layer is unreachable.
//!
//! Writes: `makedb` creates each volume file through
//! [`VolumeIo::create`], so a test can fail the write of any volume and
//! check what a crashed build leaves (the lowest failing volume's error,
//! no manifest). The rest of a build — the output directory, the
//! manifest — goes straight to `std::fs`: build-time failures are
//! ordinary I/O errors on a directory the operator owns, and the fault
//! model worth testing in depth is the *serving* path, where a
//! long-lived session meets files that rot underneath it.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use oris_index::persist::read_index;
use oris_index::{BankIndex, IndexMeta, PersistError};

/// How a [`crate::Database`] reads its files. Implementations must be
/// `Send + Sync`: one database handle may serve many sessions.
pub trait VolumeIo: std::fmt::Debug + Send + Sync {
    /// Whether `path` exists as a regular file (the open-time existence
    /// check).
    fn is_file(&self, path: &Path) -> bool;

    /// Reads the entire file at `path` (manifest, volume FASTA).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Loads the index file at `path`.
    fn attach_index(&self, path: &Path) -> Result<(BankIndex, IndexMeta), PersistError>;

    /// Creates (or truncates) the file at `path` for writing — how
    /// `makedb` opens each volume file.
    fn create(&self, path: &Path) -> io::Result<File> {
        File::create(path)
    }
}

/// The production implementation: plain filesystem reads and the mmap
/// index attach (which itself falls back to a heap read where the
/// platform cannot map).
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl VolumeIo for RealIo {
    fn is_file(&self, path: &Path) -> bool {
        path.is_file()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn attach_index(&self, path: &Path) -> Result<(BankIndex, IndexMeta), PersistError> {
        oris_index::map_index_file(path)
    }
}

/// One injectable fault.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Fail the operation with an `io::Error` of this kind (message
    /// `"injected fault"`). On `is_file` this reports the file present —
    /// use [`Fault::Missing`] to fail the existence check.
    Error(io::ErrorKind),
    /// Report the file as absent: `is_file` returns `false`, reads fail
    /// with `NotFound`.
    Missing,
    /// Truncate the returned bytes to this length (a partially-written
    /// or cut-off file).
    Truncate(usize),
    /// XOR the byte at `offset` with `mask` (a flipped bit/byte on
    /// disk). Out-of-range offsets leave the bytes unchanged.
    FlipByte {
        /// Byte offset into the file.
        offset: usize,
        /// XOR mask applied to that byte (use a non-zero mask).
        mask: u8,
    },
    /// Sleep this long, then serve the real bytes (a slow device — the
    /// deadline tests' fault of choice).
    Delay(Duration),
}

/// One scripted rule: which file, which occurrences, which [`Fault`].
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// File name to match (the path's final component), or `None` to
    /// match every file.
    pub file: Option<String>,
    /// Matching operations passed through before the fault first fires
    /// (`0` = fire on the first matching operation — "fail the Nth read"
    /// is `skip: N - 1`).
    pub skip: u32,
    /// How many matching operations the fault applies to once firing
    /// (`u32::MAX` = every one from then on).
    pub times: u32,
    /// The fault to apply.
    pub fault: Fault,
}

impl FaultRule {
    /// A rule applying `fault` to every operation on `file`, forever.
    pub fn always(file: &str, fault: Fault) -> FaultRule {
        FaultRule {
            file: Some(file.to_string()),
            skip: 0,
            times: u32::MAX,
            fault,
        }
    }

    /// A rule applying `fault` to the first `times` operations on
    /// `file`, then passing through (a transient fault that clears).
    pub fn first(file: &str, times: u32, fault: Fault) -> FaultRule {
        FaultRule {
            file: Some(file.to_string()),
            skip: 0,
            times,
            fault,
        }
    }
}

/// Per-rule firing state.
#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    skipped: u32,
    fired: u32,
}

/// A deterministic fault-injecting [`VolumeIo`] wrapping the real
/// filesystem. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FaultyIo {
    rules: Mutex<Vec<RuleState>>,
    ops: AtomicU32,
}

impl FaultyIo {
    /// An injector with no rules (behaves like [`RealIo`] until rules
    /// are [pushed](FaultyIo::push)).
    pub fn new() -> FaultyIo {
        FaultyIo::default()
    }

    /// An injector pre-loaded with `rules`.
    pub fn with_rules(rules: impl IntoIterator<Item = FaultRule>) -> FaultyIo {
        let io = FaultyIo::new();
        for r in rules {
            io.push(r);
        }
        io
    }

    /// Adds a rule. Rules are consulted in insertion order; the first
    /// whose file matches claims the operation (advancing its skip/fire
    /// counters), so at most one fault applies per operation.
    pub fn push(&self, rule: FaultRule) {
        self.rules.lock().unwrap().push(RuleState {
            rule,
            skipped: 0,
            fired: 0,
        });
    }

    /// Total operations (`is_file`, `read`, `attach_index`, `create`) observed —
    /// lets tests assert that a quarantined volume is *not* re-probed.
    pub fn operations(&self) -> u32 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The fault (if any) claiming this operation on `path`. Only rules
    /// whose fault passes `relevant` are consulted (and have their
    /// counters advanced): an existence check must not consume a
    /// scripted *read* fault, or "fail the first read" rules would be
    /// silently eaten by `Database::open`'s `is_file` probe.
    fn fault_for(&self, path: &Path, relevant: impl Fn(&Fault) -> bool) -> Option<Fault> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().and_then(|n| n.to_str())?.to_string();
        let mut rules = self.rules.lock().unwrap();
        for st in rules.iter_mut() {
            let matches =
                st.rule.file.as_deref().is_none_or(|f| f == name) && relevant(&st.rule.fault);
            if !matches {
                continue;
            }
            if st.skipped < st.rule.skip {
                st.skipped += 1;
                return None; // claimed, but passing through this time
            }
            if st.fired < st.rule.times {
                st.fired += 1;
                return Some(st.rule.fault.clone());
            }
            // Exhausted: fall through to later rules.
        }
        None
    }

    fn injected(kind: io::ErrorKind) -> io::Error {
        io::Error::new(kind, "injected fault")
    }

    /// Applies `fault` to freshly-read `bytes` (for faults that mutate
    /// rather than fail).
    fn mutate(fault: &Fault, bytes: &mut Vec<u8>) {
        match fault {
            Fault::Truncate(len) => bytes.truncate(*len),
            Fault::FlipByte { offset, mask } => {
                if let Some(b) = bytes.get_mut(*offset) {
                    *b ^= mask;
                }
            }
            Fault::Delay(d) => std::thread::sleep(*d),
            Fault::Error(_) | Fault::Missing => unreachable!("handled before reading"),
        }
    }

    fn read_with_faults(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.fault_for(path, |_| true) {
            Some(Fault::Error(kind)) => Err(Self::injected(kind)),
            Some(Fault::Missing) => Err(Self::injected(io::ErrorKind::NotFound)),
            Some(fault) => {
                let mut bytes = std::fs::read(path)?;
                Self::mutate(&fault, &mut bytes);
                Ok(bytes)
            }
            None => std::fs::read(path),
        }
    }
}

impl VolumeIo for FaultyIo {
    fn is_file(&self, path: &Path) -> bool {
        // Error/Truncate/FlipByte faults strike the *read*; the file
        // still exists, and those rules are neither consulted nor
        // consumed here.
        match self.fault_for(path, |f| matches!(f, Fault::Missing | Fault::Delay(_))) {
            Some(Fault::Missing) => false,
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                path.is_file()
            }
            _ => path.is_file(),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_with_faults(path)
    }

    /// Index attach under injection: the file is read through the fault
    /// plan and the (possibly mutated) bytes go to the decoder
    /// [`RealIo::attach_index`] runs over the mapped file, so a scripted
    /// fault yields exactly the [`PersistError`] production would return
    /// for those bytes. The injector always decodes from its own heap
    /// buffer; the mapped backing is covered by the corruption fuzz tests
    /// against the real attach path.
    fn attach_index(&self, path: &Path) -> Result<(BankIndex, IndexMeta), PersistError> {
        // `Io`, not `From`: an injected `UnexpectedEof` is a device
        // failure, not a "truncated file".
        let bytes = self.read_with_faults(path).map_err(PersistError::Io)?;
        read_index(&mut bytes.as_slice())
    }

    /// A create under injection: an `Error` fault fails it. The other
    /// faults strike reads, and are neither applied nor consumed here.
    fn create(&self, path: &Path) -> io::Result<File> {
        match self.fault_for(path, |f| matches!(f, Fault::Error(_))) {
            Some(Fault::Error(kind)) => Err(Self::injected(kind)),
            _ => File::create(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oris_db_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{name}", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn real_io_reads_files() {
        let p = tmp("real", b"hello");
        let io = RealIo;
        assert!(io.is_file(&p));
        assert_eq!(io.read(&p).unwrap(), b"hello");
        assert!(!io.is_file(&p.with_extension("absent")));
    }

    #[test]
    fn nth_read_fails_deterministically() {
        let p = tmp("nth", b"data");
        let name = p.file_name().unwrap().to_str().unwrap();
        let io = FaultyIo::with_rules([FaultRule {
            file: Some(name.into()),
            skip: 1,
            times: 1,
            fault: Fault::Error(io::ErrorKind::Interrupted),
        }]);
        assert_eq!(io.read(&p).unwrap(), b"data"); // 1st passes
        let err = io.read(&p).unwrap_err(); // 2nd fails
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(io.read(&p).unwrap(), b"data"); // 3rd passes again
    }

    #[test]
    fn truncate_and_flip_mutate_bytes() {
        let p = tmp("mutate", b"abcdef");
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        let io = FaultyIo::with_rules([FaultRule::first(&name, 1, Fault::Truncate(3))]);
        assert_eq!(io.read(&p).unwrap(), b"abc");
        io.push(FaultRule::first(
            &name,
            1,
            Fault::FlipByte {
                offset: 0,
                mask: 0x01,
            },
        ));
        assert_eq!(io.read(&p).unwrap(), b"`bcdef"); // 'a' ^ 0x01 = '`'
        assert_eq!(io.read(&p).unwrap(), b"abcdef"); // exhausted
    }

    #[test]
    fn missing_hides_the_file() {
        let p = tmp("missing", b"x");
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        let io = FaultyIo::with_rules([FaultRule::always(&name, Fault::Missing)]);
        assert!(!io.is_file(&p));
        assert_eq!(io.read(&p).unwrap_err().kind(), io::ErrorKind::NotFound);
        // Other files are untouched.
        let other = tmp("missing_other", b"y");
        assert!(io.is_file(&other));
    }

    #[test]
    fn rules_match_by_file_name_only() {
        let p = tmp("scoped", b"x");
        let io = FaultyIo::with_rules([FaultRule::always(
            "some_other_file",
            Fault::Error(io::ErrorKind::Other),
        )]);
        assert_eq!(io.read(&p).unwrap(), b"x");
        assert!(io.operations() >= 1);
    }
}
