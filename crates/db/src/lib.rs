//! # oris-db — the sharded subject database
//!
//! The paper's premise is *intensive* comparison: one subject collection
//! queried over and over. `oris-core`'s [`Session`](oris_core::Session)
//! amortizes the subject build within a process, and `oris_index::persist`
//! across processes — but both still treat "the subject" as a single bank
//! with a single in-memory index. Real search deployments shard instead:
//! build once into size-bounded **volumes**, memory-map many volumes
//! cheaply, search them all per query, and report statistics over the
//! whole collection. This crate is that database layer:
//!
//! * [`make_db`] — the `makedb` step: splits arbitrary FASTA input into
//!   volumes bounded by a residue budget. Each volume is a persisted
//!   bank (`vol<i>.fa`) plus its CSR index (`vol<i>.oidx`, the
//!   `oris_index::persist` format) — and the [`Manifest`] records, per
//!   volume, the residue count, sequence count and bank content hash,
//!   plus the index configuration and the **database-wide residue
//!   total**. Up to `rayon::current_num_threads()` volumes are prepared
//!   and written side by side, so peak memory is up to that many
//!   volumes in flight; the files are the same bytes for any worker
//!   count.
//! * [`Database`] — opens a database directory, validates the manifest,
//!   and attaches volumes on demand by **mmap**
//!   ([`oris_index::map_index_file`] — the postings and row-map sections
//!   are referenced zero-copy from the mapped file; where the platform
//!   or kernel cannot map, the same call reads the file into heap
//!   arrays, and [`VolumeCost::mmap_backed`] reports which happened).
//! * [`DbSession`] — runs each query across **all** volumes with bounded
//!   memory: volumes are searched in sequence through a small window of
//!   attached sessions, each volume's working set dropped before the
//!   next outside the window; every volume's records are staged and,
//!   once the last volume completed, replayed into one
//!   [`RecordSink`](oris_core::RecordSink) whose single boundary sort
//!   (under `M8Record::total_order`) merges them — so multi-volume
//!   output is **byte-identical** to a single-bank run over the
//!   concatenated input. A batch ([`DbSession::run_batch`]) is searched
//!   in chunks of queries joined into one bank
//!   ([`oris_core::QueryChunk`]): one search per (chunk, volume), then
//!   each query's records replayed at its own boundary.
//!
//! A session's subject is a database or **one resident bank**:
//! [`DbSession::resident`] takes a prepared `oris_core::Session` — a FASTA
//! subject indexed in memory — as a database of one volume, attached from
//! the start, never evicted and never quarantined, priced under its own
//! configuration's search space.
//! So `run_batch` is the one batch loop of the workspace: `scoris_n` runs
//! every subject through it, and the deadline, the result cache and the
//! counters mean the same for each.
//!
//! E-values are computed over the **database-wide** effective search
//! space: [`DbSession`] sets
//! [`OrisConfig::subject_space`](oris_core::OrisConfig) to
//! `SubjectSpace::Database(total_residues)` from the manifest — not the
//! per-volume lengths, which would make an alignment's significance
//! depend on how `makedb` happened to shard the input.
//!
//! ## Failure model
//!
//! A database that serves many queries over a long lifetime meets
//! failures the batch pipeline never sees, and this crate makes each of
//! them typed, injectable and testable:
//!
//! * **Typed errors** — every failure is a [`DbError`] whose
//!   [`VolumeError`]/[`VolumeCause`] pinpoints the volume, the file and
//!   the cause (missing file, I/O error, FASTA parse failure, content
//!   hash mismatch, index corruption, metadata mismatch), with full
//!   `std::error::Error::source` chains down to the underlying
//!   `io::Error`. [`DbError::exit_code`] gives each class a stable CLI
//!   exit code, and [`DbError::is_transient`] is the retry policy's
//!   classifier.
//! * **Fault injection** — all volume file access, reads and `makedb`'s
//!   creates, goes through the [`VolumeIo`] trait: [`RealIo`] is the
//!   filesystem; [`FaultyIo`] deterministically fails the Nth
//!   open/read/create, truncates, bit-flips a chosen byte, or delays —
//!   which is how the test suite reaches *every* error path above
//!   without root or filesystem tricks.
//! * **Degraded mode** — [`OnVolumeError::SkipAndReport`] lets a session
//!   quarantine a failing volume (a transient fault is retried twice
//!   first, after 10 ms and then 20 ms — constants of [`session`], not
//!   options) and complete queries over the survivors; each
//!   query's [`SearchReport`] records exactly what was searched, what
//!   was skipped, and the residue coverage fraction.
//! * **Deadlines** — [`DbOptions::deadline`] bounds a query's wall-clock
//!   cost: the deadline is read at the points [`oris_core::deadline`]
//!   lists; expiry is a clean [`DbError::DeadlineExceeded`] with the
//!   session still usable.
//! * **Sink atomicity** — a query that fails for any reason other than
//!   the sink's own `end_query` ([`DbError::Sink`]) leaves the caller's
//!   sink untouched, under every option: all volumes' records are staged
//!   until the whole query (in a batch, its whole chunk) completed. What this costs is stated on
//!   [`DbSession::run_query_reported`]: one query's records are resident
//!   before the sink sees the first, whatever the sink would have kept.
//! * **Offline verification** — [`verify_db`] (the `verifydb` binary) is
//!   the fsck: manifest checksum, per-volume bank and index content
//!   hashes, and index structural integrity, reported per volume.
//!
//! ## Concurrency and the byte-identity contract
//!
//! A chunk of queries searches its volumes in one walk, in ascending
//! volume order on the calling thread: each volume is attached (a no-op
//! once it is) and searched at the session's full `-t` width, since the
//! parallelism lives inside one (chunk, volume) search — step 2 cuts its
//! seed-code space into ranges and step 3 runs its waves over the
//! installed pool, as the paper parallelises one bank-against-bank
//! comparison. Volumes are independent by construction (each is its own
//! bank + index; an mmap-attached index is a read-only `Section<u32>`
//! view), so neither the pool size nor the window changes *what* is
//! computed:
//!
//! * Every volume search stages its records in a private buffer; no
//!   record reaches the caller's sink until **every** volume completed.
//! * The staged buffers are merged **in ascending volume order** through
//!   the single `end_query` boundary, whose sort under
//!   `M8Record::total_order` is a strict total order — so `-m 8` output
//!   bytes are identical for any pool size, window and cache state. The
//!   `db_equivalence` proptests quantify over window × cache, the
//!   session's `joint` proptest over window × cache × pool size.
//! * Attach (and therefore retry/quarantine accounting) happens in the
//!   walk, volume by volume, so a failing volume produces the same
//!   [`SearchReport`] under any window; an expired query leaves the sink
//!   untouched.
//!
//! [`DbOptions::result_cache_bytes`] adds a result cache
//! ([`ResultCache`]): each completed query's whole answer is memoized
//! under the query bank's content hash in a bounded-memory LRU, so a
//! repeated query costs no volume search. Hits replay byte-identical
//! records through the same boundary sort; a quarantine empties the
//! cache; deadline-aborted queries insert nothing. See the [`cache`]
//! module docs for the full contract.
//!
//! ```no_run
//! use oris_core::{CollectSink, OrisConfig};
//! use oris_db::{make_db, Database, DbOptions, DbSession, MakeDbOptions};
//!
//! let cfg = OrisConfig::default();
//! // Build once: shard subject.fa into ≤10 Mbp volumes under ./db.
//! let subject = oris_seqio::read_fasta_file("subject.fa").unwrap();
//! make_db([subject], "db", &MakeDbOptions::new(&cfg, 10_000_000)).unwrap();
//!
//! // Search many: attach via mmap, query across all volumes.
//! let db = Database::open("db").unwrap();
//! let mut session = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
//! let query = oris_seqio::read_fasta_file("query.fa").unwrap();
//! let mut sink = CollectSink::new();
//! let (stats, report) = session.run_query_reported(&query, &mut sink).unwrap();
//! eprintln!("{} records over {} volumes", stats.step4.emitted, report.searched.len());
//! ```

pub mod cache;
pub mod database;
pub mod error;
pub mod io;
pub mod makedb;
pub mod manifest;
pub mod session;
pub mod verify;

pub use cache::{CacheCounters, CachedQuery, ResultCache};
pub use database::{Database, DbError};
pub use error::{VolumeCause, VolumeError};
pub use io::{Fault, FaultRule, FaultyIo, RealIo, VolumeIo};
pub use makedb::{make_db, MakeDbOptions};
pub use manifest::{Manifest, VolumeMeta, MANIFEST_FILE};
pub use session::{DbBatchStats, DbOptions, DbSession, OnVolumeError, SearchReport, VolumeCost};
pub use verify::{verify_db, VerifyReport, VolumeVerdict};
