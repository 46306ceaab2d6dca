//! Cross-volume search: one query, every volume, one result stream —
//! with an explicit failure model.
//!
//! A long-lived serving session meets three failure classes the happy
//! path never sees: volumes that rot underneath it (truncated index,
//! flipped bit, deleted file), transient I/O hiccups that clear on
//! retry, and adversarial queries whose step-2 cost is effectively
//! unbounded. [`DbSession`] makes all three first-class:
//!
//! * [`OnVolumeError`] — fail the query (default) or **quarantine** the
//!   bad volume for the session and complete over the survivors, after
//!   a bounded retry with exponential backoff for transient faults.
//! * [`SearchReport`] — per-query accounting of volumes searched,
//!   skipped and retried plus the residue coverage fraction, so a
//!   degraded result is explicitly labeled rather than silently partial.
//! * [`DbOptions::deadline`] — a cooperative per-query budget, read at
//!   the points [`oris_core::deadline`] lists; expiry returns a clean
//!   [`DbError::DeadlineExceeded`] with the caller's sink untouched by the
//!   expired search and the session ready for the next one.
//!
//! A batch ([`DbSession::run_batch`]) is searched in chunks: the queries
//! are pulled into chunks of at most [`oris_core::JOINT_CHUNK_RESIDUES`]
//! bank positions, the queries of a chunk the result cache does not
//! serve are joined into one bank ([`oris_core::QueryChunk`]), and steps
//! 1–3 run once per (chunk, volume). Each query still gets exactly the
//! records, boundary and report a search of it alone would give it. A
//! single query is a chunk of one.
//!
//! A session's subject is a [`Database`] or one resident bank
//! ([`DbSession::resident`]): a FASTA subject prepared in memory is a
//! database of one volume attached from the start. So this loop is the
//! one batch loop for every subject, and the deadline, the result cache
//! and the counters apply to each.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use oris_core::{
    joint_chunks, Deadline, MemberResult, OrisConfig, PipelineStats, QueryChunk, RecordSink,
    Session, SubjectSpace, JOINT_CHUNK_RESIDUES,
};
use oris_obs::{names, Field, Obs};
use oris_seqio::Bank;

use crate::cache::{self, CacheCounters, CachedQuery, ResultCache};
use crate::database::{Database, DbError};

/// One volume's staged search of a chunk: the chunk's report (step 2 once
/// for the chunk) and, in ascending order of their place `k` among the
/// joined queries, `(k, share)` for each joined query the volume gave any
/// step-3 work: its records (arrival order, the boundary sort happens at
/// `end_query`) and own step-3/4 counters. Every other joined query's
/// share is empty, so a volume holds what it found, not a slot per query.
type Staged = (PipelineStats, Vec<(usize, MemberResult)>);

/// What a [`DbSession`] does when a volume fails to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnVolumeError {
    /// Fail the query with the volume's [`DbError`] (the default — a
    /// batch pipeline wants loud, atomic failures).
    #[default]
    Fail,
    /// Retry transient faults (bounded, with exponential backoff), then
    /// quarantine the volume **for the session** and complete the query
    /// over the surviving volumes, recording the skip in the query's
    /// [`SearchReport`]. A serving deployment prefers a labeled partial
    /// answer over no answer.
    SkipAndReport,
}

/// Options for a [`DbSession`].
#[derive(Debug, Clone, Copy)]
pub struct DbOptions {
    /// Maximum volumes held attached at once. `0` (the default) keeps
    /// every volume attached after its first use — cheap under mmap,
    /// where an attached volume's heap cost is its bank, its bit-set and
    /// its derived ranks, not its row map or postings. A small window (e.g. 1) re-attaches
    /// volumes per chunk of queries and bounds resident memory to one
    /// volume's working set beside the chunk's.
    pub window: usize,
    /// Volume-failure policy (see [`OnVolumeError`]).
    pub on_volume_error: OnVolumeError,
    /// Per-query deadline, the one way to bound a search. `None` (the
    /// default) runs unguarded; `Some(budget)` arms a fresh [`Deadline`]
    /// for each chunk of queries when its search starts: `n × budget` for
    /// the `n` queries the chunk searches (one, for
    /// [`DbSession::run_query_reported`]). Where the deadline is read, and
    /// so how far an expired search runs on, is listed in
    /// [`oris_core::deadline`]; [`DbSession::run_batch`] says what an
    /// expiry ends. The guarantees:
    ///
    /// * On expiry the search returns [`DbError::DeadlineExceeded`]; the
    ///   caller's sink is untouched by the expired chunk's queries, and
    ///   nothing is inserted into the result cache.
    /// * The session remains fully usable: the next query runs normally,
    ///   volumes attached before the expiry stay attached, and no volume
    ///   is quarantined by a deadline (slowness is not corruption).
    /// * A query that completes under a deadline is byte-identical to
    ///   the same query without one: the deadline never changes what is
    ///   computed.
    pub deadline: Option<Duration>,
    /// Memory budget for the [`ResultCache`]. `0` (the default) disables
    /// caching; `N > 0` memoizes each completed query's whole answer under
    /// the query bank's content hash in an LRU bounded to `N` bytes of
    /// record payload, so a repeated query is served without searching
    /// (or attaching) any volume.
    pub result_cache_bytes: usize,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions {
            window: 0,
            on_volume_error: OnVolumeError::Fail,
            deadline: None,
            result_cache_bytes: 0,
        }
    }
}

/// Under [`OnVolumeError::SkipAndReport`], how many times a *transient*
/// attach failure ([`DbError::is_transient`]) is retried before the volume
/// is quarantined. Durable corruption is never retried.
const RETRIES: u32 = 2;

/// Sleep before the first retry; doubles per subsequent retry
/// ([`retry_delay`]).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Sleep before retry number `attempt` (0-based) of a transient attach
/// failure: exponential backoff `base`, `2·base`, `4·base`, …, with the
/// doubling capped at `2^16·base`.
fn retry_delay(base: Duration, attempt: u32) -> Duration {
    base * (1u32 << attempt.min(16))
}

/// A logical pool of `n` workers (`0` = the machine's count).
fn thread_pool(n: usize) -> Result<rayon::ThreadPool, DbError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .map_err(|e| DbError::Config(format!("failed to build thread pool: {e}")))
}

/// Per-volume step-1 cost attribution for a database session: what was
/// paid to make each volume searchable, kept separate from the per-query
/// pipeline reports exactly like `Session`'s subject-vs-query split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VolumeCost {
    /// Times this volume was attached (more than 1 only when the window
    /// evicted it between queries).
    pub attaches: u32,
    /// Seconds spent attaching (FASTA re-read + index map/read), summed
    /// over attaches.
    pub attach_secs: f64,
    /// Seconds spent building minus-strand indexes (only non-zero for
    /// `both_strands` configurations — an index file stores one strand).
    pub strand_build_secs: f64,
    /// Heap bytes of the most recent attach: the bank plus
    /// [`crate::database::AttachedVolumeStats::index_heap_bytes`] (for an mmap
    /// attach, the bit-set and the row map's ranks).
    pub index_heap_bytes: usize,
    /// Whether the most recent attach was mmap-backed.
    pub mmap_backed: bool,
    /// Failed attach attempts retried on this volume (transient faults
    /// under [`OnVolumeError::SkipAndReport`]).
    pub retries: u32,
}

/// Per-query account of which volumes a search actually covered — the
/// label that keeps a degraded result honest.
///
/// With no faults, `searched` lists every volume and
/// [`SearchReport::coverage`] is `1.0`. Under
/// [`OnVolumeError::SkipAndReport`] with quarantined volumes, `skipped`
/// names them and the coverage fraction prices the loss in residues —
/// the quantity e-values are computed over (which are **still** priced
/// against the full database total: a degraded search under-reports
/// hits, it never inflates significance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Total volumes in the database.
    pub volumes_total: usize,
    /// Volumes searched for this query, in scan order.
    pub searched: Vec<usize>,
    /// Volumes skipped because they are quarantined (failed this query
    /// or a previous one this session).
    pub skipped: Vec<usize>,
    /// Failed attach attempts retried during this query (transient
    /// faults only; quarantined volumes are not re-probed).
    pub retries: u32,
    /// Residues actually searched (sum over `searched`).
    pub residues_searched: u64,
    /// Database-wide residue total (the manifest's; a resident subject's
    /// own residues).
    pub residues_total: u64,
    /// Whether the result cache answered the query: a hit replays the
    /// report its search gave (`searched` and the residues included),
    /// `retries` aside.
    pub from_cache: bool,
}

impl SearchReport {
    /// Fraction of the database's residues this query searched
    /// (`1.0` = complete).
    pub fn coverage(&self) -> f64 {
        if self.residues_total == 0 {
            1.0
        } else {
            self.residues_searched as f64 / self.residues_total as f64
        }
    }

    /// Whether every volume was searched.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Report of one [`DbSession::run_batch`]: the running fold of the
/// chunks' pipeline reports, the worst coverage any query had, and the
/// volume attach costs paid so far (attributed once per attach, never
/// folded into a query's report, as a resident subject's one-time build
/// is reported by its `Session::subject_stats`). Its size does not depend
/// on the batch length.
///
/// What a chunk folds in: step 1 (`index_secs`, `index_builds`) once, and
/// per searched volume its step-2 counters and seconds (`hsps`, `step2`)
/// and its step-3/4 seconds once; then per query its own step-3/4
/// counters (`raw_alignments`, `step3`, `step4`) over every volume it
/// covers, fresh or replayed from the result cache. A batch the cache
/// does not serve therefore reports the same counters one search per
/// query would, except `index_builds` (one per chunk) and the footprints:
/// `masked_fraction1` is the largest masked fraction of any chunk's joint
/// bank and `index_bytes` the largest chunk's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbBatchStats {
    queries: usize,
    totals: PipelineStats,
    /// The coverage report of the least-covered query that skipped a
    /// volume (the first such, among equals); `None` when every query
    /// searched the whole database.
    pub worst_coverage: Option<SearchReport>,
    /// Per-volume attach costs at batch end.
    pub volumes: Vec<VolumeCost>,
}

impl DbBatchStats {
    /// Number of queries run.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// The chunks' merged reports, folded in batch order (see the type's
    /// docs for what a chunk books).
    pub fn query_totals(&self) -> PipelineStats {
        self.totals
    }

    /// Total volume attaches across the batch.
    pub fn total_attaches(&self) -> u32 {
        self.volumes.iter().map(|v| v.attaches).sum()
    }

    /// Total records emitted across the batch.
    pub fn total_records(&self) -> u64 {
        self.totals.step4.emitted
    }
}

/// A many-query search session over a sharded [`Database`], or over one
/// resident subject ([`DbSession::resident`]) as a database of one volume.
///
/// The cross-volume contract: every chunk of queries (one query, for
/// [`DbSession::run_query_reported`]) runs the same four phases —
/// *probe* the result cache once per query, *attach* the live volumes
/// (through at most [`DbOptions::window`] concurrently attached volume
/// sessions), *search* each volume once for the chunk's joined queries
/// into a staging buffer of its own, *merge* each query's share of the
/// buffers into the caller's sink in ascending volume order — and fires
/// each query's single [`RecordSink::end_query`] after its merge, so the
/// sink's one boundary sort merges volumes under `M8Record::total_order`
/// and multi-volume output is byte-identical to a single-bank run over the
/// concatenated input, one query at a time.
///
/// E-values are computed over the database-wide effective search space:
/// a session over a [`Database`] forces
/// [`OrisConfig::subject_space`](oris_core::OrisConfig) to
/// `SubjectSpace::Database(total_residues)` from the manifest (an
/// explicit `Database(_)` already set by the caller — a `--dbsize`
/// override — is kept). A resident subject keeps its session's
/// configuration as it is.
///
/// The failure model (quarantine, retries, deadlines) is described in
/// the [module docs](self), on [`DbOptions`] and on
/// [`DbSession::run_query_reported`].
pub struct DbSession<'d> {
    /// The database volumes attach from; `None` for a resident subject,
    /// whose one volume is attached from the start and never evicted.
    db: Option<&'d Database>,
    /// Per volume, its residues.
    residues: Vec<u64>,
    /// The residue total a query's coverage is priced against.
    total_residues: u64,
    cfg: OrisConfig,
    opts: DbOptions,
    /// Attached volume sessions, one slot per volume id.
    attached: Vec<Option<Session<'d>>>,
    /// Most slots occupied at once — the volume count under an unbounded
    /// window, [`DbOptions::window`] under a bounded one — which sets when
    /// [`DbSession::attach`] evicts.
    capacity: usize,
    /// The logical pool the query is prepared in, present iff
    /// `cfg.threads` is set — so `-t` means the same thing with and
    /// without a database (volume sessions carry their own).
    pool: Option<rayon::ThreadPool>,
    costs: Vec<VolumeCost>,
    /// Quarantined volumes (the session-lifetime skip set under
    /// [`OnVolumeError::SkipAndReport`]) and why each was quarantined.
    quarantined: Vec<Option<DbError>>,
    /// The result cache, present iff [`DbOptions::result_cache_bytes`] >
    /// 0.
    results: Option<ResultCache>,
    /// Observability handle ([`Obs::disarmed`] by default). Strictly
    /// off the result path: armed or not, records and reports are
    /// identical (pinned by the `db_equivalence` proptests).
    obs: Obs,
}

impl<'d> DbSession<'d> {
    /// Builds a session over `db` under `cfg`, validating that the
    /// configuration matches how the database was built (indexed word
    /// length, stride, filter). No volume is attached yet.
    pub fn new(
        db: &'d Database,
        cfg: &OrisConfig,
        opts: DbOptions,
    ) -> Result<DbSession<'d>, DbError> {
        cfg.validate().map_err(DbError::Config)?;
        let m = db.manifest();
        let icfg = cfg.subject_index_config();
        if icfg.w != m.w || icfg.stride != m.stride {
            return Err(DbError::Config(format!(
                "database was built with w={} stride={}, configuration needs w={} stride={} \
                 (check -W / --asymmetric)",
                m.w, m.stride, icfg.w, icfg.stride
            )));
        }
        if cfg.filter.code() != m.filter_code {
            return Err(DbError::Config(format!(
                "database was built under filter code {}, configuration requests {:?} \
                 (code {})",
                m.filter_code,
                cfg.filter,
                cfg.filter.code()
            )));
        }
        let mut cfg = *cfg;
        if cfg.subject_space == SubjectSpace::PerSequence {
            cfg.subject_space = SubjectSpace::Database(db.total_residues());
        }
        let residues = m.volumes.iter().map(|v| v.residues).collect();
        DbSession::assemble(Some(db), residues, cfg, opts)
    }

    /// A session over one prepared subject — a FASTA bank prepared in
    /// memory — as a database of one volume: attached from the start,
    /// never evicted and never quarantined, so [`DbOptions::window`] and
    /// [`DbOptions::on_volume_error`] change nothing. The deadline and the
    /// result cache apply as they do to a database. The session keeps
    /// `subject`'s configuration, `subject_space` included, so each query
    /// gets the records and e-values [`Session::run`] gives it.
    pub fn resident(subject: Session<'d>, opts: DbOptions) -> Result<DbSession<'d>, DbError> {
        let residues = subject.subject().bank().num_residues() as u64;
        let cfg = *subject.config();
        let mut session = DbSession::assemble(None, vec![residues], cfg, opts)?;
        session.attached[0] = Some(subject);
        Ok(session)
    }

    /// The session both constructors build, every volume detached.
    fn assemble(
        db: Option<&'d Database>,
        residues: Vec<u64>,
        cfg: OrisConfig,
        opts: DbOptions,
    ) -> Result<DbSession<'d>, DbError> {
        let num = residues.len();
        let capacity = match opts.window {
            0 => num,
            window => window.min(num),
        };
        let pool = cfg.threads.map(thread_pool).transpose()?;
        let results = if opts.result_cache_bytes > 0 {
            Some(ResultCache::new(opts.result_cache_bytes))
        } else {
            None
        };
        Ok(DbSession {
            db,
            total_residues: residues.iter().sum(),
            residues,
            cfg,
            opts,
            attached: (0..num).map(|_| None).collect(),
            capacity,
            pool,
            costs: vec![VolumeCost::default(); num],
            quarantined: (0..num).map(|_| None).collect(),
            results,
            obs: Obs::disarmed(),
        })
    }

    /// Installs an observability handle. Volume sessions attached so
    /// far (and every future attach) share it, so their step-level
    /// spans land in the same trace. Instrumentation never changes
    /// what a query computes — only what gets recorded about it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        for s in self.attached.iter_mut().flatten() {
            s.set_obs(self.obs.clone());
        }
    }

    /// The effective configuration (with a database's residue total as
    /// `subject_space`, unless the caller set one).
    pub fn config(&self) -> &OrisConfig {
        &self.cfg
    }

    /// Per-volume attach cost attribution so far.
    pub fn volume_costs(&self) -> &[VolumeCost] {
        &self.costs
    }

    /// Result-cache counters so far (hits, misses, insertions,
    /// evictions, invalidations, residency), one per query for hits and
    /// misses. All zeros when the cache is disabled
    /// ([`DbOptions::result_cache_bytes`] = 0).
    pub fn result_cache_counters(&self) -> CacheCounters {
        self.results
            .as_ref()
            .map(ResultCache::counters)
            .unwrap_or_default()
    }

    /// Volumes quarantined so far this session, with the error that
    /// condemned each (only ever non-empty under
    /// [`OnVolumeError::SkipAndReport`]).
    pub fn quarantined(&self) -> impl Iterator<Item = (usize, &DbError)> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(v, e)| e.as_ref().map(|e| (v, e)))
    }

    /// Phase 1 — *probe*. One cache lookup under the query's fingerprint;
    /// a hit is the query's whole answer, replayed in [`DbSession::merge`]
    /// without attaching or searching a volume.
    fn probe(&mut self, query_fp: u64) -> Option<CachedQuery> {
        let _span = self.obs.span("cache_lookup");
        let results = self.results.as_mut().expect("fingerprinted iff caching");
        results.lookup(query_fp).cloned()
    }

    /// Phase 2 — *attach*. Makes volume `v` searchable, applying the
    /// volume-failure policy: `Ok(true)` = attached (at no cost when it
    /// already was), `Ok(false)` = the attach failed and the volume is
    /// now quarantined ([`OnVolumeError::SkipAndReport`]; the query goes
    /// on without it, and the result cache is emptied on the spot — an
    /// answer that covered a volume which failed is never served again),
    /// `Err` = the query fails. `retries` accumulates into the
    /// current query's report.
    ///
    /// Eviction policy (bounded window): every query scans volumes in
    /// ascending id order and wraps, so the access pattern is known
    /// exactly — the next use of attached volume `j` while attaching `v`
    /// is `(j − v) mod V` steps away. Evicting the furthest-next-use
    /// slot is Belady's optimal policy for this scan. (Plain LRU would
    /// be pathological here: the cyclic scan evicts every entry just
    /// before its reuse, giving a 0% hit rate for any window smaller
    /// than the volume count.) Finding the victim scans the occupied
    /// slots — O(V) per attach miss, against an attach that costs
    /// milliseconds.
    fn attach(&mut self, v: usize, retries: &mut u32) -> Result<bool, DbError> {
        if self.attached[v].is_some() {
            return Ok(true);
        }
        let num = self.attached.len();
        while self.attached.iter().flatten().count() >= self.capacity {
            let evict = (0..num)
                .filter(|&j| self.attached[j].is_some())
                .max_by_key(|&j| (j + num - v) % num)
                .expect("a slot is occupied while at capacity");
            // Dropping the session frees the volume's bank, minus
            // strand and (heap or mapped) index before the next
            // volume attaches — the bounded-memory guarantee.
            self.attached[evict] = None;
        }
        let span = self.obs.timed_span_with(
            "attach",
            names::VOLUME_ATTACH_SECONDS,
            &[Field::U64("volume", v as u64)],
        );
        let opened = self.open_volume(v, retries);
        drop(span);
        match (opened, self.opts.on_volume_error) {
            (Ok(session), _) => {
                self.attached[v] = Some(session);
                Ok(true)
            }
            (Err(e @ DbError::Volume(_)), OnVolumeError::SkipAndReport) => {
                self.quarantined[v] = Some(e);
                self.obs
                    .point("quarantine", &[Field::U64("volume", v as u64)]);
                if let Some(results) = self.results.as_mut() {
                    results.clear();
                }
                Ok(false)
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Reads volume `v` from disk into a volume session — retrying
    /// transient failures [`RETRIES`] times — and books the attach cost.
    fn open_volume(&mut self, v: usize, retries: &mut u32) -> Result<Session<'d>, DbError> {
        // A resident subject's one volume is attached from the start and
        // a window of one never evicts it, so only a database's gets here.
        let db = self.db.expect("a resident subject is never detached");
        let mut attempt = 0u32;
        let (prepared, attach) = loop {
            match db.attach_volume(v) {
                Ok(ok) => break ok,
                Err(e)
                    if self.opts.on_volume_error == OnVolumeError::SkipAndReport
                        && attempt < RETRIES
                        && e.is_transient() =>
                {
                    std::thread::sleep(retry_delay(RETRY_BACKOFF, attempt));
                    attempt += 1;
                    *retries += 1;
                    self.costs[v].retries += 1;
                }
                Err(e) => return Err(e),
            }
        };
        let bank_bytes = prepared.bank().heap_bytes();
        let mut session = Session::with_subject(prepared, &self.cfg).map_err(DbError::Config)?;
        session.set_obs(self.obs.clone());
        let cost = &mut self.costs[v];
        cost.attaches += 1;
        cost.attach_secs += attach.attach_secs;
        cost.strand_build_secs += session.subject_stats().build_secs;
        cost.index_heap_bytes = attach.index_heap_bytes + bank_bytes;
        cost.mmap_backed = attach.mmap_backed;
        Ok(session)
    }

    /// Phase 3 — *search*: walks the live volumes in ascending order on
    /// the calling thread, attaching each as it goes (a no-op for one
    /// already attached, and the one place a bounded window evicts), and
    /// runs the chunk against it at full width (the volume session's
    /// `OrisConfig::threads` pool, or the caller's) into a staging buffer
    /// of its own; `None` in the result = not searched (quarantined, now
    /// or earlier). The deadline is checked before each volume, so an
    /// expiry or an error stops the walk before the next volume is
    /// attached or searched.
    fn search_volumes(
        &mut self,
        chunk: &QueryChunk<'_>,
        retries: &mut u32,
        deadline: &Deadline,
    ) -> Result<Vec<Option<Staged>>, DbError> {
        let num = self.residues.len();
        let mut fresh = Vec::with_capacity(num);
        for v in 0..num {
            let live = self.quarantined[v].is_none();
            if live {
                deadline.check()?;
            }
            if !live || !self.attach(v, retries)? {
                fresh.push(None);
                continue;
            }
            let session = self.attached[v].as_ref().expect("attached above");
            self.obs.count(names::WORKER_DISPATCH_TOTAL, 1);
            let _span = self.obs.timed_span_with(
                "volume_search",
                names::VOLUME_SEARCH_SECONDS,
                &[Field::U64("volume", v as u64)],
            );
            let (stats, shares) = session.search_chunk(chunk, deadline)?;
            let found = shares
                .into_iter()
                .enumerate()
                .filter(|(_, share)| *share != MemberResult::default())
                .collect();
            fresh.push(Some((stats, found)));
        }
        Ok(fresh)
    }

    /// Phase 4 — *merge*, one query. A hit (`hit`) replays the query's
    /// whole cached answer. Otherwise `fresh[v]` is the query's share of
    /// the chunk's search of volume `v` (`None` when `v` was not searched:
    /// quarantined), taken in ascending volume order, so stats accumulate
    /// exactly as a sequential walk's and the report's lists come out
    /// sorted; the answer is inserted into the cache. Either way the
    /// records go to `sink`, then the query's single `end_query` fires and
    /// the query is counted. Only complete chunks get here (an aborted one
    /// returned from an earlier phase), so nothing partial is ever cached
    /// or replayed. Returns the query's own step-3/4 counters.
    fn merge(
        &mut self,
        query_fp: Option<u64>,
        hit: Option<CachedQuery>,
        fresh: Vec<Option<MemberResult>>,
        sink: &mut dyn RecordSink,
        report: &mut SearchReport,
    ) -> Result<PipelineStats, DbError> {
        let _span = self.obs.span("merge");
        let merged = match hit {
            Some(entry) => {
                sink.accept_all(entry.records);
                report.from_cache = true;
                report.searched = entry.searched;
                entry.stats
            }
            None => {
                let mut merged = PipelineStats::default();
                let mut answer = Vec::new();
                for (v, share) in fresh.into_iter().enumerate() {
                    let Some(share) = share else { continue };
                    merged = merged.merge(&share.stats());
                    if query_fp.is_some() {
                        answer.extend_from_slice(&share.records);
                    }
                    sink.accept_all(share.records);
                    report.searched.push(v);
                }
                if let Some(fp) = query_fp {
                    let results = self.results.as_mut().expect("fingerprinted iff caching");
                    results.insert(fp, answer, merged, report.searched.clone());
                }
                merged
            }
        };
        // Neither served nor searched: quarantined.
        report.skipped = (0..self.residues.len())
            .filter(|v| !report.searched.contains(v))
            .collect();
        report.residues_searched = report.searched.iter().map(|&v| self.residues[v]).sum();
        // An end_query failure is the caller's *output* stream failing
        // (e.g. a full disk under a StreamWriter), not a database
        // problem — attribute it to the sink, never to the (read-only)
        // database directory.
        sink.end_query().map_err(DbError::Sink)?;
        self.obs.count(names::QUERIES_TOTAL, 1);
        self.obs.count(names::RECORDS_TOTAL, merged.step4.emitted);
        Ok(merged)
    }

    /// Runs one query bank across every volume into `sink`, firing
    /// exactly one `end_query` at the end: a chunk of one, bounded by
    /// [`DbOptions::deadline`]. The returned stats merge the per-volume
    /// runs and count the query's single index build; the
    /// [`SearchReport`] says which volumes they cover; volume attach costs
    /// accumulate in [`DbSession::volume_costs`]. A query answered by the
    /// result cache contributes its cached step-3/4 counters only: the
    /// cache stores a query's own counters, not its chunk's step 2.
    ///
    /// Error atomicity: on any `Err` other than [`DbError::Sink`] the
    /// caller's sink is **untouched** — no record, no boundary — under
    /// every option, because only a query whose every volume completed
    /// is replayed; a partial query can never merge into the next
    /// query's boundary sort. The price is that one query's records are
    /// resident before the sink sees the first — the set
    /// [`oris_core::StreamWriter`], the only sink the CLI uses, buffers
    /// until the boundary anyway.
    ///
    /// On expiry of the deadline the query returns
    /// [`DbError::DeadlineExceeded`], caches nothing, quarantines no
    /// volume and leaves the session ready for the next query; a query
    /// that completes under a deadline is byte-identical to the same
    /// query without one ([`DbOptions::deadline`]).
    pub fn run_query_reported(
        &mut self,
        query: &Bank,
        sink: &mut dyn RecordSink,
    ) -> Result<(PipelineStats, SearchReport), DbError> {
        let mut report = None;
        let stats = self.run_chunk(std::slice::from_ref(query), sink, &mut |r| report = Some(r))?;
        Ok((stats, report.expect("a chunk of one reports once")))
    }

    /// One chunk of queries through the four phases, an expiry counted
    /// once and the session's ledger published, whatever the outcome.
    /// Each query's [`SearchReport`] goes to `reported`, in order, as its
    /// boundary is written.
    fn run_chunk<B: Borrow<Bank>>(
        &mut self,
        queries: &[B],
        sink: &mut dyn RecordSink,
        reported: &mut dyn FnMut(SearchReport),
    ) -> Result<PipelineStats, DbError> {
        let outcome = self.chunk_phases(queries, sink, reported);
        if let Err(DbError::DeadlineExceeded(_)) = outcome {
            self.obs.count(names::DEADLINE_EXPIRIES_TOTAL, 1);
        }
        self.publish();
        outcome
    }

    /// Sets the registry's instruments for what the session counts itself
    /// — the [`ResultCache`]'s counters, the [`VolumeCost`] attaches and
    /// retries, the quarantines — to the session's values. Those structs
    /// are the one ledger of these counts; the registry shows them as of
    /// the last chunk.
    fn publish(&self) {
        let c = self.result_cache_counters();
        let attaches = self.costs.iter().map(|c| u64::from(c.attaches)).sum();
        let retries = self.costs.iter().map(|c| u64::from(c.retries)).sum();
        let quarantines = self.quarantined().count() as u64;
        for (name, value) in [
            (names::CACHE_HITS_TOTAL, c.hits),
            (names::CACHE_MISSES_TOTAL, c.misses),
            (names::CACHE_INSERTIONS_TOTAL, c.insertions),
            (names::CACHE_EVICTIONS_TOTAL, c.evictions),
            (names::CACHE_INVALIDATIONS_TOTAL, c.invalidations),
            (names::VOLUME_ATTACHES_TOTAL, attaches),
            (names::IO_RETRIES_TOTAL, retries),
            (names::VOLUME_QUARANTINES_TOTAL, quarantines),
        ] {
            self.obs.set_counter(name, value);
        }
        self.obs.set_gauge(names::CACHE_ENTRIES, c.entries as f64);
        self.obs.set_gauge(names::CACHE_BYTES, c.bytes as f64);
    }

    /// The four phases of one chunk, in order: *probe* the cache once per
    /// query, *attach* and *search* every live volume once for the queries
    /// the cache did not answer, joined into one bank under the deadline
    /// [`DbOptions::deadline`] arms for them, then *merge* per query, in
    /// order. Each query is a `query` span, timed into
    /// `query_seconds`, from the chunk's start to its own boundary.
    ///
    /// A query whose fingerprint repeats an earlier query of the chunk is
    /// probed late, at its merge — after the earlier one's answer is
    /// inserted — so a batch that repeats a query is served from the
    /// cache as a query-at-a-time search would serve it. It joins the
    /// search all the same, for the case that answer was evicted by then.
    fn chunk_phases<B: Borrow<Bank>>(
        &mut self,
        queries: &[B],
        sink: &mut dyn RecordSink,
        reported: &mut dyn FnMut(SearchReport),
    ) -> Result<PipelineStats, DbError> {
        let spans: Vec<_> = queries
            .iter()
            .map(|_| self.obs.timed_span("query", names::QUERY_SECONDS))
            .collect();
        let num = self.residues.len();
        let fps: Vec<Option<u64>> = queries
            .iter()
            .map(|q| {
                self.results
                    .as_ref()
                    .map(|_| cache::bank_fingerprint(q.borrow()))
            })
            .collect();
        let mut seen = BTreeSet::new();
        let late: Vec<bool> = fps
            .iter()
            .map(|fp| fp.is_some_and(|fp| !seen.insert(fp)))
            .collect();
        // The hits by query index: a map, not a slot per query, so a batch
        // the cache does not serve holds no entry-sized slots.
        let mut hits: BTreeMap<usize, CachedQuery> = (0..queries.len())
            .filter(|&i| !late[i])
            .filter_map(|i| Some((i, self.probe(fps[i]?)?)))
            .collect();
        // Every query the cache did not answer joins the search; a hit is
        // served without touching a volume's files (the same staleness
        // contract an already-attached volume has).
        let joined: Vec<usize> = (0..queries.len())
            .filter(|i| !hits.contains_key(i))
            .collect();
        let deadline = self.arm(joined.len());
        // The joined queries are prepared once for the whole database,
        // exactly as a single-bank session prepares a query once for both
        // strands — and before the volumes attach, so the build's
        // transient sort keys never sit beside every volume's pages.
        let banks: Vec<&Bank> = joined.iter().map(|&i| queries[i].borrow()).collect();
        let chunk = (!banks.is_empty()).then(|| {
            let prepare =
                || QueryChunk::prepare(&banks, self.cfg.filter, self.cfg.query_index_config());
            let _span = self.obs.span("prepare");
            match &self.pool {
                Some(pool) => pool.install(prepare),
                None => prepare(),
            }
        });
        let mut retries = 0;
        let mut totals = PipelineStats::default();
        // Per volume, the shares its search found (see `Staged`), and how
        // far the merge has taken them; `slot[i]` is query i's place among
        // the joined queries.
        let mut searched: Vec<Option<Vec<(usize, MemberResult)>>> =
            (0..num).map(|_| None).collect();
        let mut taken = vec![0; num];
        let mut slot: Vec<Option<usize>> = vec![None; queries.len()];
        if let Some(chunk) = &chunk {
            let staged = self.search_volumes(chunk, &mut retries, &deadline)?;
            for (v, staged) in staged.into_iter().enumerate() {
                if let Some((chunk_stats, results)) = staged {
                    // Step 2 and the seconds belong to the chunk, booked
                    // once; steps 3–4 are counted per query at its merge.
                    totals = totals.merge(&PipelineStats {
                        raw_alignments: 0,
                        step3: Default::default(),
                        step4: Default::default(),
                        ..chunk_stats
                    });
                    searched[v] = Some(results);
                }
            }
            totals.index_secs += chunk.prepared().stats().build_secs;
            totals.index_builds += chunk.prepared().stats().builds;
            for (k, &i) in joined.iter().enumerate() {
                slot[i] = Some(k);
            }
        }
        for (i, span) in spans.into_iter().enumerate() {
            // Queries merge in joined order, so each volume's shares are
            // taken front to back; a joined query without one found nothing
            // there. A repeat takes its shares even when its probe hits.
            let fresh = (0..num)
                .map(|v| {
                    let k = slot[i]?;
                    let found = searched[v].as_mut()?;
                    let at = &mut taken[v];
                    Some(match found.get_mut(*at) {
                        Some((owner, share)) if *owner == k => {
                            *at += 1;
                            std::mem::take(share)
                        }
                        _ => MemberResult::default(),
                    })
                })
                .collect();
            let hit = if late[i] {
                fps[i].and_then(|fp| self.probe(fp))
            } else {
                hits.remove(&i)
            };
            let mut report = SearchReport {
                volumes_total: num,
                residues_total: self.total_residues,
                retries: if i == 0 { retries } else { 0 },
                ..SearchReport::default()
            };
            let own = self.merge(fps[i], hit, fresh, sink, &mut report)?;
            drop(span);
            totals = totals.merge(&own);
            reported(report);
        }
        Ok(totals)
    }

    /// The deadline [`DbOptions::deadline`] arms for a chunk searching
    /// `queries` queries: `queries × budget` (at least one budget).
    fn arm(&self, queries: usize) -> Deadline {
        match self.opts.deadline {
            Some(budget) => Deadline::after(
                budget.saturating_mul(u32::try_from(queries.max(1)).unwrap_or(u32::MAX)),
            ),
            None => Deadline::none(),
        }
    }

    /// Runs a batch of query banks across the database — one
    /// `end_query` boundary per bank, in batch order. The banks are pulled
    /// into chunks of at most [`JOINT_CHUNK_RESIDUES`] positions
    /// ([`oris_core::joint_chunks`]), and each chunk is one pass of the
    /// four phases: the queries the cache does not answer are joined
    /// into one bank, searched once per volume, and each query's records
    /// and report are what [`DbSession::run_query_reported`] would give
    /// it. One chunk's working set — its queries, joint index and records
    /// — is freed before the next (and, with a small
    /// [`DbOptions::window`], each volume's too). Under
    /// [`OnVolumeError::SkipAndReport`] a batch that limped over a bad
    /// volume says so through [`DbBatchStats::worst_coverage`].
    ///
    /// Per-query contracts inside a chunk:
    ///
    /// * *Deadline.* A chunk searching `n` queries is armed with
    ///   `n × `[`DbOptions::deadline`] when its search starts. An expiry
    ///   ends the batch with [`DbError::DeadlineExceeded`], as one query's
    ///   expiry ended it before chunks; the chunk's queries write nothing
    ///   (queries of earlier chunks are already written).
    /// * *Cache.* Each query is probed once, before the chunk is searched
    ///   (a repeat within the chunk, at its merge); a hit replays the
    ///   query's whole answer, and every other query joins the joint bank.
    ///   An entry is one query's answer over every volume it covered, with
    ///   its own step-3/4 counters. A volume quarantined while the chunk
    ///   attaches empties the cache and is skipped for the chunk's searched
    ///   queries; an answer probed before the failure still replays, as it
    ///   would for a query that ran before it.
    /// * *Counters.* See [`DbBatchStats`]: step 1 and step 2 are booked
    ///   once per chunk, steps 3–4 per query; `index_builds` and the
    ///   volume dispatches count chunks.
    pub fn run_batch<I>(
        &mut self,
        queries: I,
        sink: &mut dyn RecordSink,
    ) -> Result<DbBatchStats, DbError>
    where
        I: IntoIterator,
        I::Item: Borrow<Bank>,
    {
        self.run_batch_grained(queries, sink, JOINT_CHUNK_RESIDUES)
    }

    /// [`DbSession::run_batch`] with the chunk bound as a parameter, so
    /// tests can cut a toy batch into chunks of every size.
    fn run_batch_grained<I>(
        &mut self,
        queries: I,
        sink: &mut dyn RecordSink,
        bound: usize,
    ) -> Result<DbBatchStats, DbError>
    where
        I: IntoIterator,
        I::Item: Borrow<Bank>,
    {
        let mut batch = DbBatchStats::default();
        let mut worst: Option<SearchReport> = None;
        let mut keep_worst = |report: SearchReport| {
            let least = worst
                .as_ref()
                .is_none_or(|w| report.coverage() < w.coverage());
            if !report.is_complete() && least {
                worst = Some(report);
            }
        };
        for chunk in joint_chunks(queries, bound) {
            let stats = self.run_chunk(&chunk, sink, &mut keep_worst)?;
            batch.queries += chunk.len();
            batch.totals = batch.totals.merge(&stats);
        }
        batch.worst_coverage = worst;
        batch.volumes = self.costs.clone();
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_starts_at_base_doubles_and_caps() {
        let base = Duration::from_millis(10);
        assert_eq!(retry_delay(base, 0), base);
        assert_eq!(retry_delay(base, 1), 2 * base);
        assert_eq!(retry_delay(base, 2), 4 * base);
        assert_eq!(retry_delay(base, 16), 65_536 * base);
        assert_eq!(retry_delay(base, 17), retry_delay(base, 16));
        assert_eq!(retry_delay(base, u32::MAX), retry_delay(base, 16));
    }

    /// A batch searched in joint chunks, over a database and over a
    /// resident subject, against one search per query.
    mod joint {
        use super::*;
        use crate::{make_db, MakeDbOptions};
        use oris_core::{FilterKind, M8Writer, StreamWriter};
        use oris_seqio::BankBuilder;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// Cores the subject carries and queries plant; a poly-A run
        /// gives the masks something to mask.
        const CORES: [&str; 3] = [
            "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT",
            "GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACC",
            "TTGACCGTAGGCATAACGGATCCATTGACGTTAGCAACGTACGATTG",
        ];

        /// Six subject records, two per core, so any volume size cuts
        /// the cores across volumes.
        fn subject() -> Bank {
            let mut b = BankBuilder::new();
            for (i, core) in CORES.iter().chain(&CORES).enumerate() {
                let flank = "ACGTTGCA".repeat(i + 1);
                b.push_str(
                    &format!("s{i}"),
                    &format!("{flank}{core}{}", "A".repeat(30)),
                )
                .unwrap();
            }
            b.finish()
        }

        /// Queries as in the engine's joint test: per `shape[r]` record
        /// `r` is empty, all-`N`, `seqs[r]` around a core, `seqs[r]`
        /// before a poly-A run, or `seqs[r]` alone; names repeat
        /// (`q0`–`q2`); `cut[r] == 0` closes a query after record `r`.
        /// With `repeat`, the first query is submitted again at the end.
        fn queries(seqs: &[String], shape: &[u8], cut: &[u8], repeat: bool) -> Vec<Bank> {
            let mut out = Vec::new();
            let mut b = BankBuilder::new();
            let mut open = false;
            for (r, seq) in seqs.iter().enumerate() {
                let k = shape.get(r).copied().unwrap_or(0);
                let record = match k {
                    0 => String::new(),
                    1 => "N".repeat(seq.len() + 12),
                    2..=4 => format!("{seq}{}{seq}", CORES[usize::from(k) - 2]),
                    5 => format!("{seq}{}", "A".repeat(30)),
                    _ => seq.clone(),
                };
                b.push_str(&format!("q{}", r % 3), &record).unwrap();
                open = true;
                if cut.get(r).is_some_and(|&c| c == 0) {
                    out.push(std::mem::replace(&mut b, BankBuilder::new()).finish());
                    open = false;
                }
            }
            if open {
                out.push(b.finish());
            }
            if repeat {
                out.push(out[0].clone());
            }
            out
        }

        fn scratch_db(cfg: &OrisConfig, volume_residues: usize) -> std::path::PathBuf {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "oris_db_joint_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            make_db([subject()], &dir, &MakeDbOptions::new(cfg, volume_residues)).unwrap();
            dir
        }

        /// Every counter but the clocks, the builds and the footprints.
        fn counters(s: PipelineStats) -> PipelineStats {
            PipelineStats {
                index_secs: 0.0,
                index_builds: 0,
                step2_secs: 0.0,
                step3_secs: 0.0,
                step4_secs: 0.0,
                masked_fraction1: 0.0,
                index_bytes: 0,
                ..s
            }
        }

        /// Runs `queries` through `session` in chunks of at most `bound`
        /// positions — twice with the cache on, the second pass replayed
        /// from it — and holds every pass to `want`'s bytes and a cold pass
        /// to the counters `folded` sums.
        fn batch_matches(
            session: &mut DbSession<'_>,
            queries: &[Bank],
            bound: usize,
            cache: bool,
            want: &[u8],
            folded: PipelineStats,
        ) -> Result<(), TestCaseError> {
            for pass in 0..1 + usize::from(cache) {
                let mut sink = StreamWriter::new(Vec::new());
                let batch = session
                    .run_batch_grained(queries, &mut sink, bound)
                    .unwrap();
                prop_assert_eq!(batch.queries(), queries.len());
                prop_assert!(sink.into_inner() == want, "pass {}: bytes differ", pass);
                if !cache {
                    prop_assert_eq!(counters(batch.query_totals()), counters(folded));
                    let chunks = joint_chunks(queries, bound).count() as u32;
                    prop_assert_eq!(batch.query_totals().index_builds, chunks);
                }
            }
            if cache && queries.len() > 1 {
                // The replay pass found every query's answer.
                let c = session.result_cache_counters();
                prop_assert!(c.hits >= queries.len() as u64, "{:?}", c);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Joint chunks of every size write the bytes one search per
            /// query writes, over 1–6 volumes, under both strands, the
            /// asymmetric stride, each filter, pools of 1, 2 and 8, a
            /// one-volume window, an armed deadline and the result cache —
            /// cold, and replayed by a second pass — and a cold batch counts
            /// what the queries count one by one. The same holds over the
            /// subject as one resident volume against one `Session::run`
            /// per query.
            #[test]
            fn joint_equals_per_member(
                seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..12),
                shape in proptest::collection::vec(0u8..8, 12),
                cut in proptest::collection::vec(0u8..3, 12),
                flags in 0u8..12,
                threads in 0usize..3,
                options in 0u8..16,
                volume_residues in 40usize..400,
                bound in 1usize..400,
            ) {
                let cache = options & 1 != 0;
                let queries = queries(&seqs, &shape, &cut, options & 8 != 0);
                let cfg = OrisConfig {
                    both_strands: flags & 1 != 0,
                    asymmetric: flags & 2 != 0,
                    filter: [FilterKind::None, FilterKind::Entropy, FilterKind::Dust]
                        [usize::from(flags >> 2) % 3],
                    threads: Some([1, 2, 8][threads]),
                    ..OrisConfig::small(9)
                };
                let dir = scratch_db(&cfg, volume_residues);
                let db = Database::open(&dir).unwrap();

                let mut reference = DbSession::new(&db, &cfg, DbOptions::default()).unwrap();
                let mut want = StreamWriter::new(Vec::new());
                let mut folded = PipelineStats::default();
                for q in &queries {
                    folded = folded.merge(&reference.run_query_reported(q, &mut want).unwrap().0);
                }
                let want = want.into_inner();

                let opts = DbOptions {
                    window: usize::from(options & 2 != 0),
                    deadline: (options & 4 != 0).then(|| Duration::from_secs(600)),
                    result_cache_bytes: if cache { 1 << 20 } else { 0 },
                    ..DbOptions::default()
                };
                let mut session = DbSession::new(&db, &cfg, opts).unwrap();
                batch_matches(&mut session, &queries, bound, cache, &want, folded)?;
                drop(session);

                // The subject as one resident volume: its own per-sequence
                // search space, so the reference is one Session::run each.
                let subject = subject();
                let fresh = Session::new(&subject, &cfg).unwrap();
                let mut want = M8Writer::new(Vec::new());
                let mut folded = PipelineStats::default();
                for q in &queries {
                    let r = fresh.run(q);
                    folded = folded.merge(&r.stats);
                    for rec in &r.alignments {
                        want.write_record(rec).unwrap();
                    }
                }
                let want = want.into_inner();
                let mut session = DbSession::resident(fresh, opts).unwrap();
                prop_assert_eq!(session.config(), &cfg);
                batch_matches(&mut session, &queries, bound, cache, &want, folded)?;
                prop_assert_eq!(session.volume_costs(), &[VolumeCost::default()]);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }

        #[test]
        fn a_repeated_query_in_one_chunk_is_served_from_the_cache() {
            // The second copy is probed at its merge, after the first's
            // answer went in: it hits once, as it would if the two were
            // searched one after the other, whatever the volume count.
            let cfg = OrisConfig::small(9);
            let dir = scratch_db(&cfg, 120);
            let db = Database::open(&dir).unwrap();
            let query = queries(&["ACGTAC".into()], &[2], &[0], true);
            assert_eq!(query.len(), 2);
            let opts = DbOptions {
                result_cache_bytes: 1 << 20,
                ..DbOptions::default()
            };
            let mut session = DbSession::new(&db, &cfg, opts).unwrap();
            let mut sink = StreamWriter::new(Vec::new());
            let batch = session.run_batch(&query, &mut sink).unwrap();
            let c = session.result_cache_counters();
            assert!(db.num_volumes() > 1);
            assert_eq!((c.misses, c.hits), (1, 1));
            assert_eq!((c.insertions, c.entries), (1, 1));
            assert_eq!(batch.query_totals().index_builds, 1, "one chunk");
            let bytes = sink.into_inner();
            let half = bytes.len() / 2;
            assert!(half > 0 && bytes[..half] == bytes[half..]);
            drop(session);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
