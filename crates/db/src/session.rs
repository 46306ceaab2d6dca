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
//! * [`DbOptions::deadline`] / [`DbSession::run_query_deadline`] — a
//!   cooperative per-query budget checked at volume and step-2
//!   partition boundaries; expiry returns a clean
//!   [`DbError::DeadlineExceeded`] with the caller's sink untouched and
//!   the session ready for the next query.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use oris_core::{
    CollectSink, Deadline, DeadlineExceeded, M8Record, OrisConfig, PipelineStats, PreparedBank,
    RecordSink, Session, SubjectSpace,
};
use oris_obs::{names, Field, Obs};
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::cache::{self, CacheCounters, CacheKey, CachedVolume, ResultCache};
use crate::database::{Database, DbError};

/// One volume's staged search output: its records (arrival order, the
/// boundary sort happens at `end_query`) and the pipeline stats of the
/// search that produced them.
type Staged = (Vec<M8Record>, PipelineStats);

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
    /// where an attached volume's heap cost is its bank, its bit-set and,
    /// for a sparse index, the slot table derived from its code list
    /// (`4·2^⌈log₂ 2k⌉` bytes for k populated codes), not its postings. A small window (e.g. 1) re-attaches volumes per
    /// query and bounds resident memory to one volume's working set.
    pub window: usize,
    /// Volume-failure policy (see [`OnVolumeError`]).
    pub on_volume_error: OnVolumeError,
    /// Per-query deadline. `None` (the default) runs unguarded;
    /// `Some(budget)` arms a fresh [`Deadline`] for each query (see
    /// [`DbSession::run_query_deadline`] for the guarantees).
    pub deadline: Option<Duration>,
    /// Worker threads fanning one query's volume searches out in
    /// parallel: the width of the one parallel map that runs them. `1`
    /// (the default, and any `0`) runs that map inline on the calling
    /// thread; `N > 1` has `min(N, volumes)` workers, the calling thread
    /// among them, claim volumes one at a time. Either way a volume is
    /// searched by the same function into its own staging buffer and the
    /// buffers merge in ascending volume order, so output bytes are
    /// identical for any value (see the crate docs' concurrency
    /// contract). The width is the fan-out's alone: each volume search
    /// runs at the caller's worker count. `N > 1` requires an unbounded
    /// [`DbOptions::window`]: parallel search needs every volume resident
    /// at once, which is exactly what a bounded window promises not to do
    /// ([`DbSession::new`] rejects the combination).
    pub volume_workers: usize,
    /// Memory budget for the volume-level [`ResultCache`]. `0` (the
    /// default) disables caching; `N > 0` memoizes completed per-volume
    /// searches under `(query hash, volume hash, config fingerprint)` in
    /// an LRU bounded to `N` bytes of record payload, so a repeated
    /// query is served without re-searching (or re-attaching) its
    /// cache-hit volumes.
    pub result_cache_bytes: usize,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions {
            window: 0,
            on_volume_error: OnVolumeError::Fail,
            deadline: None,
            volume_workers: 1,
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
    /// attach, the bit-set and a sparse index's derived slot table).
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
    /// Database-wide residue total (the manifest's).
    pub residues_total: u64,
    /// Volumes served from the result cache (a subset of `searched`:
    /// a hit covers the volume exactly as a fresh search would).
    pub cache_hits: Vec<usize>,
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
/// queries' pipeline reports, the worst coverage any of them had, and the
/// volume attach costs paid so far — the database-session analogue of
/// `oris_core::BatchStats`, with volume attaches playing the subject-build
/// role (attributed once per attach, never folded into a query's report).
/// Its size does not depend on the batch length.
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

    /// The queries' merged reports, folded in batch order (each sums its
    /// query's runs across all volumes; `index_builds` counts exactly the
    /// query's own build).
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

/// A many-query search session over a sharded [`Database`].
///
/// The cross-volume contract: every query runs the same four phases —
/// *probe* the result cache, *attach* what has to be searched (through
/// at most [`DbOptions::window`] concurrently attached volume sessions),
/// *search* each volume into a staging buffer of its own, *merge* the
/// buffers into the caller's sink in ascending volume order — and only
/// then fires the single [`RecordSink::end_query`], so the sink's one
/// boundary sort merges volumes under `M8Record::total_order` and
/// multi-volume output is byte-identical to a single-bank run over the
/// concatenated input.
///
/// E-values are computed over the database-wide effective search space:
/// the session forces
/// [`OrisConfig::subject_space`](oris_core::OrisConfig) to
/// `SubjectSpace::Database(total_residues)` from the manifest (an
/// explicit `Database(_)` already set by the caller — a `--dbsize`
/// override — is kept).
///
/// The failure model (quarantine, retries, deadlines) is described in
/// the [module docs](self) and on [`DbSession::run_query_deadline`].
pub struct DbSession<'d> {
    db: &'d Database,
    cfg: OrisConfig,
    opts: DbOptions,
    /// Attached volume sessions, one slot per volume id (O(1) lookup,
    /// and a borrow the fan-out's workers can share while other fields
    /// are read).
    attached: Vec<Option<Session<'static>>>,
    /// Most slots occupied at once: the volume count under an unbounded
    /// window, [`DbOptions::window`] under a bounded one.
    capacity: usize,
    /// The logical pool the query is prepared in, present iff
    /// `cfg.threads` is set — so `-t` means the same thing with and
    /// without a database (volume sessions carry their own).
    pool: Option<rayon::ThreadPool>,
    costs: Vec<VolumeCost>,
    /// Quarantined volumes (the session-lifetime skip set under
    /// [`OnVolumeError::SkipAndReport`]) and why each was quarantined.
    quarantined: Vec<Option<DbError>>,
    /// Volume-level result cache, present iff
    /// [`DbOptions::result_cache_bytes`] > 0.
    results: Option<ResultCache>,
    /// [`cache::config_fingerprint`] of the effective configuration,
    /// computed once (the config is immutable for the session).
    config_fp: u64,
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
        let num = db.num_volumes();
        let capacity = match opts.window {
            0 => num,
            window => window.min(num),
        };
        if opts.volume_workers > 1 && capacity < num {
            return Err(DbError::Config(format!(
                "volume_workers={} needs every volume attached at once, which contradicts the \
                 bounded window={} (use window=0, or window >= {num} volumes)",
                opts.volume_workers, opts.window
            )));
        }
        let pool = cfg.threads.map(thread_pool).transpose()?;
        let results = if opts.result_cache_bytes > 0 {
            Some(ResultCache::new(opts.result_cache_bytes))
        } else {
            None
        };
        let config_fp = cache::config_fingerprint(&cfg);
        Ok(DbSession {
            db,
            cfg,
            opts,
            attached: (0..num).map(|_| None).collect(),
            capacity,
            pool,
            costs: vec![VolumeCost::default(); num],
            quarantined: (0..num).map(|_| None).collect(),
            results,
            config_fp,
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

    /// The effective configuration (with the database-wide
    /// `subject_space` applied).
    pub fn config(&self) -> &OrisConfig {
        &self.cfg
    }

    /// Per-volume attach cost attribution so far.
    pub fn volume_costs(&self) -> &[VolumeCost] {
        &self.costs
    }

    /// Result-cache counters so far (hits, misses, insertions,
    /// evictions, residency). All zeros when the cache is disabled
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

    /// The result-cache key of volume `v` for a query fingerprint.
    fn cache_key(&self, query: u64, v: usize) -> CacheKey {
        CacheKey {
            query,
            volume: v,
            volume_hash: self.db.volume(v).bank_hash,
            config: self.config_fp,
        }
    }

    /// Phase 1 — *probe*. One O(1) cache lookup per live volume under
    /// the query's fingerprint (`None` = caching is off); a hit withdraws
    /// the volume from attach and search entirely — its records replay in
    /// [`DbSession::merge`]. Quarantined volumes are never probed: their
    /// entries were invalidated at quarantine time.
    fn probe(&mut self, query_fp: Option<u64>) -> Vec<Option<CachedVolume>> {
        let mut hits: Vec<Option<CachedVolume>> =
            (0..self.db.num_volumes()).map(|_| None).collect();
        let Some(qfp) = query_fp else { return hits };
        let _span = self.obs.span("cache_lookup");
        for (v, hit) in hits.iter_mut().enumerate() {
            if self.quarantined[v].is_some() {
                continue;
            }
            let key = self.cache_key(qfp, v);
            let results = self.results.as_mut().expect("fingerprinted iff caching");
            *hit = results.lookup(&key).cloned();
            self.obs.count(
                if hit.is_some() {
                    names::CACHE_HITS_TOTAL
                } else {
                    names::CACHE_MISSES_TOTAL
                },
                1,
            );
        }
        hits
    }

    /// Phase 2 — *attach*. Makes volume `v` searchable, applying the
    /// volume-failure policy: `Ok(true)` = attached (at no cost when it
    /// already was), `Ok(false)` = the attach failed and the volume is
    /// now quarantined ([`OnVolumeError::SkipAndReport`]; the query goes
    /// on without it, and its result-cache entries are dropped on the
    /// spot — a volume that failed is never served from the cache
    /// again), `Err` = the query fails. `retries` accumulates into the
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
                self.obs.count(names::VOLUME_QUARANTINES_TOTAL, 1);
                self.obs
                    .point("quarantine", &[Field::U64("volume", v as u64)]);
                if let Some(results) = self.results.as_mut() {
                    results.invalidate_volume(v);
                }
                Ok(false)
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Reads volume `v` from disk into a volume session — retrying
    /// transient failures [`RETRIES`] times — and books the attach cost.
    fn open_volume(&mut self, v: usize, retries: &mut u32) -> Result<Session<'static>, DbError> {
        let mut attempt = 0u32;
        let (prepared, attach) = loop {
            match self.db.attach_volume(v) {
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
                    self.obs.count(names::IO_RETRIES_TOTAL, 1);
                }
                Err(e) => return Err(e),
            }
        };
        let bank_bytes = prepared.bank().heap_bytes();
        let mut session = Session::with_subject(prepared, &self.cfg).map_err(DbError::Config)?;
        session.set_obs(self.obs.clone());
        self.obs.count(names::VOLUME_ATTACHES_TOTAL, 1);
        let cost = &mut self.costs[v];
        cost.attaches += 1;
        cost.attach_secs += attach.attach_secs;
        cost.strand_build_secs += session.subject_stats().build_secs;
        cost.index_heap_bytes = attach.index_heap_bytes + bank_bytes;
        cost.mmap_backed = attach.mmap_backed;
        Ok(session)
    }

    /// Phase 3 — *search*, one volume: the single function that runs a
    /// prepared query against an attached volume, staging its records.
    /// Associated rather than a method so the bounded window's walk and
    /// the parallel map's items call the same code while the session's
    /// other fields stay borrowed.
    fn volume_search(
        obs: &Obs,
        session: &Session<'static>,
        v: usize,
        prep: &PreparedBank<'_>,
        deadline: &Deadline,
    ) -> Result<Staged, DbError> {
        obs.count(names::WORKER_DISPATCH_TOTAL, 1);
        let _span = obs.timed_span_with(
            "volume_search",
            names::VOLUME_SEARCH_SECONDS,
            &[Field::U64("volume", v as u64)],
        );
        let mut buf = CollectSink::new();
        let stats = session.search(prep, &mut buf, deadline)?;
        Ok((buf.into_records(), stats))
    }

    /// Searches every live volume the cache did not serve, each through
    /// [`DbSession::volume_search`]; `None` in the result = quarantined
    /// or a cache hit. Under an unbounded window every volume is already
    /// attached — attach-ahead made every retry and quarantine decision —
    /// so the searches run as one parallel map,
    /// [`DbOptions::volume_workers`] wide (inline on the calling thread at
    /// one worker). Each item first checks a stop flag and the deadline,
    /// so an error or an expiry stops *dispatching*: a volume nobody
    /// started reads as [`DbError::DeadlineExceeded`]. A bounded window
    /// (one worker, by `new`) walks the volumes on the calling thread
    /// instead, attaching as it goes — the one path that evicts between
    /// searches.
    fn search_volumes(
        &mut self,
        prep: &PreparedBank<'_>,
        hits: &[Option<CachedVolume>],
        retries: &mut u32,
        deadline: &Deadline,
    ) -> Result<Vec<Option<Staged>>, DbError> {
        let num = self.db.num_volumes();
        let mut fresh: Vec<Option<Staged>> = (0..num).map(|_| None).collect();
        let pending: Vec<usize> = (0..num)
            .filter(|&v| self.quarantined[v].is_none() && hits[v].is_none())
            .collect();
        if self.capacity < num {
            for v in pending {
                deadline.check()?;
                if self.attach(v, retries)? {
                    let session = self.attached[v].as_ref().expect("attached above");
                    fresh[v] = Some(Self::volume_search(&self.obs, session, v, prep, deadline)?);
                }
            }
            return Ok(fresh);
        }
        // The fan-out's width is its own: each search runs at the
        // caller's worker count, as it would without a fan-out.
        let caller = thread_pool(rayon::current_num_threads())?;
        let fan_out = thread_pool(self.opts.volume_workers.max(1))?;
        let stop = AtomicBool::new(false);
        let (obs, attached) = (&self.obs, &self.attached);
        let done: Vec<Result<Staged, DbError>> = fan_out.install(|| {
            pending
                .par_iter()
                .map(|&v| {
                    if stop.load(Ordering::Relaxed) || deadline.expired() {
                        stop.store(true, Ordering::Relaxed);
                        return Err(DeadlineExceeded.into());
                    }
                    let session = attached[v].as_ref().expect("attached ahead of the fan-out");
                    let done =
                        caller.install(|| Self::volume_search(obs, session, v, prep, deadline));
                    if done.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    done
                })
                .collect()
        });
        for (done, v) in done.into_iter().zip(pending) {
            fresh[v] = Some(done?);
        }
        Ok(fresh)
    }

    /// Phase 4 — *merge*. Strictly ascending volume order, so stats
    /// accumulate exactly as a sequential walk's and the report's lists
    /// come out sorted: each fresh result is inserted into the cache,
    /// each fresh or cached result is replayed into `sink`, then the
    /// single `end_query` fires and the query is counted. Only complete
    /// queries get here (an aborted one returned from an earlier phase),
    /// so nothing partial is ever cached or replayed.
    fn merge(
        &mut self,
        query_fp: Option<u64>,
        hits: Vec<Option<CachedVolume>>,
        fresh: Vec<Option<Staged>>,
        sink: &mut dyn RecordSink,
        report: &mut SearchReport,
    ) -> Result<PipelineStats, DbError> {
        let _span = self.obs.span("merge");
        let mut merged = PipelineStats::default();
        for (v, (hit, fresh)) in hits.into_iter().zip(fresh).enumerate() {
            let (records, stats) = match (hit, fresh) {
                (Some(cached), _) => {
                    report.cache_hits.push(v);
                    (cached.records, cached.stats)
                }
                (None, Some((records, stats))) => {
                    if let Some(qfp) = query_fp {
                        let key = self.cache_key(qfp, v);
                        let results = self.results.as_mut().expect("fingerprinted iff caching");
                        results.insert(key, records.clone(), stats);
                        self.obs.count(names::CACHE_INSERTIONS_TOTAL, 1);
                    }
                    (records, stats)
                }
                // Neither served nor searched: quarantined.
                (None, None) => {
                    report.skipped.push(v);
                    continue;
                }
            };
            for record in records {
                sink.accept(record);
            }
            merged = merged.merge(&stats);
            report.searched.push(v);
            report.residues_searched += self.db.volume(v).residues;
        }
        // An end_query failure is the caller's *output* stream failing
        // (e.g. a full disk under a StreamWriter), not a database
        // problem — attribute it to the sink, never to the (read-only)
        // database directory.
        sink.end_query().map_err(DbError::Sink)?;
        self.obs.count(names::QUERIES_TOTAL, 1);
        self.obs.count(names::RECORDS_TOTAL, merged.step4.emitted);
        // Residency and eviction counts live inside the ResultCache;
        // sync them as absolutes (hits/misses/insertions are counted at
        // their call sites — the obs_metrics integration test pins both
        // views equal).
        if self.results.is_some() {
            let c = self.result_cache_counters();
            self.obs
                .set_counter(names::CACHE_EVICTIONS_TOTAL, c.evictions);
            self.obs
                .set_counter(names::CACHE_INVALIDATIONS_TOTAL, c.invalidations);
            self.obs.set_gauge(names::CACHE_ENTRIES, c.entries as f64);
            self.obs.set_gauge(names::CACHE_BYTES, c.bytes as f64);
        }
        Ok(merged)
    }

    /// Runs one query bank across every volume into `sink`, firing
    /// exactly one `end_query` at the end, under an explicit [`Deadline`]
    /// token (e.g. [`Deadline::cancellable`] driven by a supervisor
    /// thread). The returned stats merge the per-volume runs and count
    /// the query's single index build; the [`SearchReport`] says which
    /// volumes they cover; volume attach costs accumulate in
    /// [`DbSession::volume_costs`].
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
    /// Deadline guarantees:
    ///
    /// * The token is checked at every volume boundary and, inside each
    ///   volume, at step-2 partition boundaries (and every few thousand
    ///   extension pairs within a hot partition) — the places a
    ///   pathological query actually spends its time.
    /// * On expiry the query returns [`DbError::DeadlineExceeded`] and
    ///   nothing is inserted into the result cache.
    /// * The session remains fully usable: the next query runs normally,
    ///   volumes attached before the expiry stay attached, and no volume
    ///   is quarantined by a deadline (slowness is not corruption).
    /// * A query that completes under a deadline is byte-identical to
    ///   the same query without one: the token never changes what is
    ///   computed.
    pub fn run_query_deadline(
        &mut self,
        query: &Bank,
        sink: &mut dyn RecordSink,
        deadline: &Deadline,
    ) -> Result<(PipelineStats, SearchReport), DbError> {
        let _span = self.obs.timed_span("query", names::QUERY_SECONDS);
        let outcome = self.run_phases(query, sink, deadline);
        if let Err(DbError::DeadlineExceeded(_)) = outcome {
            self.obs.count(names::DEADLINE_EXPIRIES_TOTAL, 1);
        }
        outcome
    }

    /// The four phases of one query, in order.
    fn run_phases(
        &mut self,
        query: &Bank,
        sink: &mut dyn RecordSink,
        deadline: &Deadline,
    ) -> Result<(PipelineStats, SearchReport), DbError> {
        let num = self.db.num_volumes();
        let mut report = SearchReport {
            volumes_total: num,
            residues_total: self.db.total_residues(),
            ..SearchReport::default()
        };
        let query_fp = self
            .results
            .as_ref()
            .map(|_| cache::bank_fingerprint(query));
        let hits = self.probe(query_fp);
        if self.capacity == num {
            // Attach-ahead: a no-op after the first query. Cache-hit
            // volumes skip attach — a hit is served without touching the
            // volume's files (the same staleness contract an
            // already-attached volume has).
            for (v, hit) in hits.iter().enumerate() {
                deadline.check()?;
                if self.quarantined[v].is_none() && hit.is_none() {
                    self.attach(v, &mut report.retries)?;
                }
            }
        }
        // The query is prepared once for the whole database, exactly as a
        // single-bank session prepares it once for both strands.
        let prepare =
            || PreparedBank::prepare(query, self.cfg.filter, self.cfg.query_index_config());
        let prep = match &self.pool {
            Some(pool) => pool.install(prepare),
            None => prepare(),
        };
        let fresh = self.search_volumes(&prep, &hits, &mut report.retries, deadline)?;
        let mut stats = self.merge(query_fp, hits, fresh, sink, &mut report)?;
        stats.index_secs += prep.stats().build_secs;
        stats.index_builds += prep.stats().builds;
        Ok((stats, report))
    }

    /// [`DbSession::run_query_deadline`] under the options' deadline: a
    /// fresh token armed from [`DbOptions::deadline`] when one is
    /// configured, [`Deadline::none`] otherwise.
    pub fn run_query_reported(
        &mut self,
        query: &Bank,
        sink: &mut dyn RecordSink,
    ) -> Result<(PipelineStats, SearchReport), DbError> {
        let deadline = match self.opts.deadline {
            Some(budget) => Deadline::after(budget),
            None => Deadline::none(),
        };
        self.run_query_deadline(query, sink, &deadline)
    }

    /// Runs a batch of query banks across the database — one
    /// `end_query` boundary per bank, in batch order, each query's
    /// working set freed before the next (and, with a small
    /// [`DbOptions::window`], each volume's too). The returned stats are
    /// a fixed-size fold: under [`OnVolumeError::SkipAndReport`] a batch
    /// that limped over a bad volume says so through
    /// [`DbBatchStats::worst_coverage`]; a query's own report is what
    /// [`DbSession::run_query_reported`] returns for it.
    pub fn run_batch<I>(
        &mut self,
        queries: I,
        sink: &mut dyn RecordSink,
    ) -> Result<DbBatchStats, DbError>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Bank>,
    {
        use std::borrow::Borrow;
        let mut batch = DbBatchStats::default();
        for q in queries {
            let (stats, report) = self.run_query_reported(q.borrow(), sink)?;
            batch.queries += 1;
            batch.totals = batch.totals.merge(&stats);
            let worst = batch.worst_coverage.as_ref();
            if !report.is_complete() && worst.is_none_or(|w| report.coverage() < w.coverage()) {
                batch.worst_coverage = Some(report);
            }
        }
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
}
