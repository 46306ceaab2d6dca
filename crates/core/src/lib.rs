//! # oris-core — the Ordered Index Seed (ORIS) pipeline
//!
//! The paper's primary contribution, restructured around its *intensive
//! comparison* premise twice over: index construction is separated from
//! query execution so one build amortizes over many comparisons, and
//! result production is **sink-driven** so peak memory tracks output
//! *rate* (one query's working set) instead of output *volume* (every
//! record a run produces).
//!
//! **Prepare once** ([`engine`]):
//!
//! * [`engine::PreparedBank`] — a bank with its low-complexity mask
//!   statistics and occurrence index, built **once** (or attached from an
//!   index file written by `oris_index::persist`, skipping the build
//!   entirely).
//! * [`engine::Session`] — one prepared subject (both strands if
//!   configured) plus the worker pool; any number of query banks run
//!   against it without the subject ever being re-indexed. A prepared
//!   query runs one way, [`engine::Session::search_chunk`] — a chunk and
//!   a deadline are its arguments, each member's boundary is the
//!   caller's, a chunk prepared under another configuration is a typed
//!   [`engine::SearchError::ConfigMismatch`] — and
//!   [`engine::Session::run`] is the prepare-search-boundary convenience
//!   over it, for one query bank as a chunk of one.
//!
//! **Stream results** ([`sink`]): steps 2–4 hand off per-record-pair
//! results as they are produced — step 3 emits each `(query, subject)`
//! record-pair group the moment it is computed, step 4 converts it and
//! pushes records into a [`sink::RecordSink`]. The sink owns retention
//! and ordering policy:
//!
//! * [`sink::CollectSink`] keeps everything (this *is* how
//!   [`OrisResult`] is built — the collected path is the streamed path);
//! * [`sink::StreamWriter`] emits `-m 8` lines incrementally through
//!   [`M8Writer`], holding at most one query's records.
//!
//! Every sink orders records with the strict total order
//! [`M8Record::total_order`], so streamed and collected output
//! are byte-identical regardless of thread count or batch order — even
//! under tied e-values.
//!
//! **Batches**: this crate holds a batch's parts, not its loop. A chunk
//! of query banks ([`engine::joint_chunks`]) is joined into one bank and
//! prepared once ([`engine::QueryChunk`]), and
//! [`engine::Session::search_chunk`] searches it against the subject,
//! handing back each bank's records and counters. The one batch loop is
//! the `oris-db` crate's `DbSession`: it serves a sharded database and,
//! as a database of one resident volume, a session built here
//! (`DbSession::resident`), streaming each bank's records out at its own
//! `end_query` boundary and freeing a chunk's working set before the
//! next chunk starts.
//!
//! * [`compare_banks`] — the single-shot two-bank call: one throwaway
//!   session, one [`engine::Session::run`], the subject's preparation
//!   folded into the report.
//!
//! **Scale out** (the `oris-db` crate builds on these hooks): a sharded
//! subject database runs a chunk of queries against many volumes, each volume an
//! [`engine::PreparedBank`] attached from disk
//! ([`engine::PreparedBank::from_index`], mmap-backed via
//! `oris_index::mmap`). Per volume the search goes through
//! [`engine::Session::search_chunk`] — each query's records and counters
//! without the query boundary — and the database session fires each
//! query's single `end_query` after the last volume, so one boundary sort
//! merges all volumes and multi-volume output stays byte-identical to a
//! concatenated single-bank run. E-values price the subject side under
//! [`config::OrisConfig::subject_space`]: the SCORIS-N per-sequence
//! convention by default, or a database-wide residue total
//! ([`SubjectSpace::Database`]) so significance cannot depend
//! on the sharding.
//!
//! ```no_run
//! # let subject = oris_seqio::parse_fasta(">s\nACGT\n").unwrap();
//! # let queries: Vec<oris_seqio::Bank> = vec![];
//! use oris_core::{compare_banks, OrisConfig, Session};
//!
//! let cfg = OrisConfig::default();
//!
//! // One comparison: the subject is prepared and dropped with the call.
//! let first = compare_banks(&queries[0], &subject, &cfg);
//! println!("{} alignments, {} index builds", first.alignments.len(), first.stats.index_builds);
//!
//! // Many: prepare the subject once, then each query pays its own step 1.
//! let session = Session::new(&subject, &cfg).unwrap();
//! for query in &queries {
//!     let result = session.run(query); // steps 2–4 (+ query's step 1)
//!     println!("{} alignments", result.alignments.len());
//! }
//! eprintln!("subject built {} time(s)", session.subject_stats().builds);
//! ```
//!
//! The pipeline itself is structured exactly as the paper's Figure 1:
//!
//! 1. **Step 1 — indexing** ([`engine`]): both banks are indexed with
//!    the Figure-2 structure (`oris-index`), optionally after discarding
//!    low-complexity words (`oris_index::EntropyMasker` / `DustMasker`).
//! 2. **Step 2 — hit extension** ([`step2`]): all `4^W` seeds are
//!    enumerated in increasing code order; each occurrence pair is
//!    extended ungapped with the ordered-seed abort rule, producing
//!    **unique HSPs** with no duplicate-suppression structure.
//! 3. **Step 3 — gapped extension** ([`step3`]): HSPs sorted by diagonal
//!    are grown into gapped alignments from their midpoints, skipping
//!    HSPs contained in an already-computed alignment.
//! 4. **Step 4 — display** ([`step4`]): e-values, sorting, BLAST `-m 8`
//!    records ([`m8`]; the e-value's subject side is [`space`]).
//!
//! The "perspectives" section of the paper observes that "the outer loop
//! of step 2 which considers all the possible 4^W seeds can be run in
//! parallel since seed order prevents identical HSPs to be generated".
//! [`step2::find_hsps`] implements exactly that with rayon, partitioning
//! the seed-code space by estimated work (the per-code `|X1|·|X2|` pair
//! product, summed per block of codes in one pass over the indexes — see
//! [`step2::partition_codes`]) once there is a grain of it to share — a
//! short read's dozen pairs never leave the calling thread — into a few
//! ranges per worker, which the workers pull one at a time; [`step3`]
//! parallelizes over sequence-pair groups.
//! Both are bit-for-bit deterministic regardless of thread count (verified
//! by tests).

pub mod config;
pub mod deadline;
pub mod engine;
pub mod hsp;
pub mod m8;
pub mod pipeline;
pub mod sink;
pub mod space;
pub mod step2;
pub mod step3;
pub mod step4;

pub use config::{FilterKind, OrisConfig};
pub use deadline::{Deadline, DeadlineExceeded};
pub use engine::{
    joint_chunks, PrepareStats, PreparedBank, QueryChunk, SearchError, Session,
    JOINT_CHUNK_RESIDUES,
};
pub use hsp::Hsp;
pub use m8::{M8Record, M8Writer};
pub use pipeline::{compare_banks, MemberResult, OrisResult, PipelineStats};
pub use sink::{CollectSink, RecordSink, StreamWriter};
pub use space::SubjectSpace;
