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

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use oris_core::{
    CollectSink, Deadline, DeadlineExceeded, OrisConfig, OrisResult, PipelineStats, PreparedBank,
    RecordSink, Session,
};
use oris_eval::{M8Record, SubjectSpace};
use oris_obs::{names, Field, Obs};
use oris_seqio::Bank;

use crate::cache::{self, CacheCounters, CacheKey, ResultCache};
use crate::database::{Database, DbError};

/// One volume's staged search output: its records (arrival order, the
/// boundary sort happens at `end_query`) and the pipeline stats of the
/// search that produced them. `None` = nothing staged for that volume
/// (quarantined, cache-hit, not yet searched, or streamed directly).
type StagedResult = Option<(Vec<M8Record>, PipelineStats)>;

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
    /// where an attached volume's heap cost is its bank plus bit-set, not
    /// its postings. A small window (e.g. 1) re-attaches volumes per
    /// query and bounds resident memory to one volume's working set.
    pub window: usize,
    /// Volume-failure policy (see [`OnVolumeError`]).
    pub on_volume_error: OnVolumeError,
    /// Under [`OnVolumeError::SkipAndReport`], how many times a
    /// *transient* attach failure ([`DbError::is_transient`]) is retried
    /// before the volume is quarantined. Durable corruption is never
    /// retried.
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Per-query deadline. `None` (the default) runs unguarded with
    /// zero overhead; `Some(budget)` arms a fresh [`Deadline`] for each
    /// query (see [`DbSession::run_query_deadline`] for the guarantees).
    pub deadline: Option<Duration>,
    /// Worker threads fanning one query's volume searches out in
    /// parallel. `1` (the default, and any `0`) is the sequential walk;
    /// `N > 1` spawns `min(N, volumes)` scoped workers that pull volume
    /// ids from a shared cursor, stage records per volume, and merge in
    /// ascending volume order — output bytes are identical to the
    /// sequential walk for any value (see the crate docs' concurrency
    /// contract). Requires an unbounded [`DbOptions::window`]: parallel
    /// search needs every volume resident at once, which is exactly what
    /// a bounded window promises not to do ([`DbSession::new`] rejects
    /// the combination).
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
            retries: 2,
            retry_backoff: Duration::from_millis(10),
            deadline: None,
            volume_workers: 1,
            result_cache_bytes: 0,
        }
    }
}

/// Sleep before retry number `attempt` (0-based) of a transient attach
/// failure: exponential backoff `base`, `2·base`, `4·base`, … — the
/// schedule [`DbOptions::retry_backoff`] documents — with the doubling
/// capped at `2^16·base`.
fn retry_delay(base: Duration, attempt: u32) -> Duration {
    base * (1u32 << attempt.min(16))
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
    /// Heap bytes of the most recent attach (bank + index; near the bank
    /// size alone for an mmap attach).
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

/// Report of one [`DbSession::run_batch`]: per-query pipeline reports (in
/// batch order) plus the volume attach costs paid so far — the
/// database-session analogue of `oris_core::BatchStats`, with volume
/// attaches playing the subject-build role (attributed once per attach,
/// never folded into per-query reports).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbBatchStats {
    /// Per-query merged reports (each sums that query's runs across all
    /// volumes; `index_builds` counts exactly the query's own build).
    pub per_query: Vec<PipelineStats>,
    /// Per-query coverage reports (parallel to `per_query`).
    pub reports: Vec<SearchReport>,
    /// Per-volume attach costs at batch end.
    pub volumes: Vec<VolumeCost>,
}

impl DbBatchStats {
    /// Number of queries run.
    pub fn queries(&self) -> usize {
        self.per_query.len()
    }

    /// Sum of the per-query reports.
    pub fn query_totals(&self) -> PipelineStats {
        self.per_query
            .iter()
            .fold(PipelineStats::default(), |acc, s| acc.merge(s))
    }

    /// Total volume attaches across the batch.
    pub fn total_attaches(&self) -> u32 {
        self.volumes.iter().map(|v| v.attaches).sum()
    }

    /// Total records emitted across the batch.
    pub fn total_records(&self) -> u64 {
        self.per_query.iter().map(|s| s.step4.emitted).sum()
    }
}

/// A many-query search session over a sharded [`Database`].
///
/// The cross-volume contract: for each query, every volume is searched
/// (in id order, through at most [`DbOptions::window`] concurrently
/// attached volume sessions) and all volumes' records are pushed into
/// the caller's sink **before** the single [`RecordSink::end_query`]
/// fires —
/// so the sink's one boundary sort merges volumes under
/// `M8Record::total_order`, and multi-volume output is byte-identical to
/// a single-bank run over the concatenated input.
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
    cache: VolumeCache,
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

/// Attached volume sessions. The unbounded form is a dense slot table
/// (O(1) lookup — a linear scan would cost O(V²) id comparisons per
/// query on a many-volume database); the bounded form holds at most
/// `window` entries, where a linear scan is the point (window is small).
enum VolumeCache {
    /// Unbounded window: one slot per volume id, never evicts.
    All(Vec<Option<Session<'static>>>),
    /// Bounded window: eviction is Belady-optimal for the session's
    /// fixed cyclic scan, see [`DbSession::attach_if_needed`].
    Window(Vec<(usize, Session<'static>)>),
}

impl VolumeCache {
    /// The attached session for volume `v` (must be attached). A method
    /// on the cache, not on [`DbSession`], so the borrow stays
    /// field-granular: the parallel path holds volume sessions across a
    /// scope while other session fields are read.
    fn get(&self, v: usize) -> &Session<'static> {
        match self {
            VolumeCache::All(slots) => slots[v].as_ref().expect("volume attached"),
            VolumeCache::Window(entries) => {
                &entries
                    .iter()
                    .find(|(id, _)| *id == v)
                    .expect("volume attached")
                    .1
            }
        }
    }
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
        let cache = if opts.window == 0 || opts.window >= db.num_volumes() {
            VolumeCache::All((0..db.num_volumes()).map(|_| None).collect())
        } else {
            VolumeCache::Window(Vec::with_capacity(opts.window))
        };
        if opts.volume_workers > 1 && matches!(cache, VolumeCache::Window(_)) {
            return Err(DbError::Config(format!(
                "volume_workers={} needs every volume attached at once, which contradicts the \
                 bounded window={} (use window=0, or window >= {} volumes)",
                opts.volume_workers,
                opts.window,
                db.num_volumes()
            )));
        }
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
            cache,
            costs: vec![VolumeCost::default(); db.num_volumes()],
            quarantined: (0..db.num_volumes()).map(|_| None).collect(),
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
        match &mut self.cache {
            VolumeCache::All(slots) => {
                for s in slots.iter_mut().flatten() {
                    s.set_obs(self.obs.clone());
                }
            }
            VolumeCache::Window(entries) => {
                for (_, s) in entries.iter_mut() {
                    s.set_obs(self.obs.clone());
                }
            }
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

    /// Whether the cache already holds volume `v`.
    fn is_attached(&self, v: usize) -> bool {
        match &self.cache {
            VolumeCache::All(slots) => slots[v].is_some(),
            VolumeCache::Window(entries) => entries.iter().any(|(id, _)| *id == v),
        }
    }

    /// Attaches volume `v` into the cache (evicting under a bounded
    /// window), retrying transient failures per the options. `retries`
    /// accumulates into the current query's report.
    ///
    /// Eviction policy: every query scans volumes in ascending id order
    /// and wraps, so the access pattern is known exactly — the next use
    /// of cached volume `j` while attaching `v` is `(j − v) mod V` steps
    /// away. Evicting the furthest-next-use entry is Belady's optimal
    /// policy for this scan. (Plain LRU would be pathological here: the
    /// cyclic scan evicts every entry just before its reuse, giving a 0%
    /// hit rate for any window smaller than the volume count.)
    fn attach_if_needed(&mut self, v: usize, retries: &mut u32) -> Result<(), DbError> {
        if self.is_attached(v) {
            return Ok(());
        }
        if let VolumeCache::Window(entries) = &mut self.cache {
            let num = self.db.num_volumes();
            while entries.len() >= self.opts.window {
                let evict = entries
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (id, _))| (id + num - v) % num)
                    .map(|(pos, _)| pos)
                    .expect("cache non-empty while at capacity");
                // Dropping the session frees the volume's bank, minus
                // strand and (heap or mapped) index before the next
                // volume attaches — the bounded-memory guarantee.
                entries.remove(evict);
            }
        }
        let span = self.obs.timed_span_with(
            "attach",
            names::VOLUME_ATTACH_SECONDS,
            &[Field::U64("volume", v as u64)],
        );
        let mut attempt = 0u32;
        let (prepared, attach) = loop {
            match self.db.attach_volume(v) {
                Ok(ok) => break ok,
                Err(e)
                    if self.opts.on_volume_error == OnVolumeError::SkipAndReport
                        && attempt < self.opts.retries
                        && e.is_transient() =>
                {
                    std::thread::sleep(retry_delay(self.opts.retry_backoff, attempt));
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
        drop(span);
        let cost = &mut self.costs[v];
        cost.attaches += 1;
        cost.attach_secs += attach.attach_secs;
        cost.strand_build_secs += session.subject_stats().build_secs;
        cost.index_heap_bytes = attach.index_heap_bytes + bank_bytes;
        cost.mmap_backed = attach.mmap_backed;
        match &mut self.cache {
            VolumeCache::All(slots) => slots[v] = Some(session),
            VolumeCache::Window(entries) => entries.push((v, session)),
        }
        Ok(())
    }

    /// Routes an attach failure per the policy: under
    /// [`OnVolumeError::SkipAndReport`] a volume failure quarantines the
    /// volume and the query continues; everything else (and every
    /// failure under [`OnVolumeError::Fail`]) aborts the query. A
    /// quarantined volume's result-cache entries are dropped on the
    /// spot: a volume that failed is never served from the cache again.
    fn quarantine_or_fail(&mut self, v: usize, e: DbError) -> Result<(), DbError> {
        match (self.opts.on_volume_error, &e) {
            (OnVolumeError::SkipAndReport, DbError::Volume(_)) => {
                self.quarantined[v] = Some(e);
                self.obs.count(names::VOLUME_QUARANTINES_TOTAL, 1);
                self.obs
                    .point("quarantine", &[Field::U64("volume", v as u64)]);
                if let Some(results) = self.results.as_mut() {
                    results.invalidate_volume(v);
                }
                Ok(())
            }
            _ => Err(e),
        }
    }

    /// Converts a tripped deadline into the query's error, counting the
    /// expiry on the way out.
    fn deadline_exceeded(&self) -> DbError {
        self.obs.count(names::DEADLINE_EXPIRIES_TOTAL, 1);
        DbError::from(DeadlineExceeded)
    }

    /// Runs one query bank across every volume, streaming all volumes'
    /// records into `sink` and firing exactly one `end_query` at the end.
    /// The returned report merges the per-volume runs and counts the
    /// query's single index build; volume attach costs accumulate in
    /// [`DbSession::volume_costs`]. (This is
    /// [`DbSession::run_query_reported`] minus the coverage report — the
    /// options' policy and deadline still apply.)
    ///
    /// Error atomicity: the only mid-query failure sources are a volume
    /// *attach* (the per-volume search itself cannot fail) and an armed
    /// deadline. With an unbounded window (the default, and every
    /// `window ≥ volumes` configuration) all volumes are attached
    /// **before** the first record flows, and deadline-guarded queries
    /// buffer their records internally until the scan completes — so on
    /// `Err` the caller's sink is untouched: no records, no boundary —
    /// and the sink's own retention policy (e.g.
    /// [`oris_core::TopKSink`]'s O(k) bound) holds unweakened, records
    /// streaming straight through. With a bounded window, attaches
    /// necessarily interleave with the scan; a volume whose files were
    /// deleted or corrupted *after* [`Database::open`] validated them
    /// then aborts the query mid-stream under [`OnVolumeError::Fail`],
    /// and the sink may hold a partial query — discard it on `Err` (the
    /// CLI discards its whole output). Under
    /// [`OnVolumeError::SkipAndReport`] an attach failure never aborts
    /// the query, so the bounded window regains sink-atomicity for
    /// everything but sink failures themselves.
    pub fn run_query_into(
        &mut self,
        query: &Bank,
        sink: &mut dyn RecordSink,
    ) -> Result<PipelineStats, DbError> {
        self.run_query_reported(query, sink).map(|(stats, _)| stats)
    }

    /// [`DbSession::run_query_into`] returning the query's
    /// [`SearchReport`] alongside the pipeline stats. Arms a fresh
    /// deadline from [`DbOptions::deadline`] if one is configured.
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

    /// The full-control query entry point: explicit [`Deadline`] token
    /// (e.g. [`Deadline::cancellable`] driven by a supervisor thread).
    ///
    /// Deadline guarantees:
    ///
    /// * The token is checked at every volume boundary and, inside each
    ///   volume, at step-2 partition boundaries (and every few thousand
    ///   extension pairs within a hot partition) — the places a
    ///   pathological query actually spends its time.
    /// * On expiry the query returns [`DbError::DeadlineExceeded`] and
    ///   the caller's sink is **untouched** — armed queries stage their
    ///   records in an internal buffer and only stream into `sink` after
    ///   every volume completed (the buffer is the records of one query,
    ///   the same working set a `CollectSink` would hold; the disarmed
    ///   path streams straight through with zero overhead and zero
    ///   buffering).
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
        let num = self.db.num_volumes();
        let query_span = self.obs.timed_span("query", names::QUERY_SECONDS);
        let mut report = SearchReport {
            volumes_total: num,
            residues_total: self.db.total_residues(),
            ..SearchReport::default()
        };
        // Phase 0 — cache probe. One query fingerprint, one O(1) probe
        // per live volume; a hit withdraws the volume from attach and
        // search entirely (its records replay in the merge phase below).
        // Quarantined volumes are never probed: their entries were
        // invalidated at quarantine time.
        let query_fp = self
            .results
            .as_ref()
            .map(|_| cache::bank_fingerprint(query));
        let mut hits: Vec<Option<crate::cache::CachedVolume>> = (0..num).map(|_| None).collect();
        if let (Some(results), Some(qfp)) = (self.results.as_mut(), query_fp) {
            let lookup_span = self.obs.span("cache_lookup");
            for (v, hit) in hits.iter_mut().enumerate() {
                if self.quarantined[v].is_some() {
                    continue;
                }
                let key = CacheKey {
                    query: qfp,
                    volume: v,
                    volume_hash: self.db.volume(v).bank_hash,
                    config: self.config_fp,
                };
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
            drop(lookup_span);
        }
        if self.opts.window == 0 || self.opts.window >= num {
            // Attach-ahead: cached sessions make this a no-op after the
            // first query; any attach failure surfaces here, before the
            // sink sees a single record. Cache-hit volumes skip attach —
            // a hit is served without touching the volume's files (the
            // same staleness contract an already-attached volume has).
            for (v, hit) in hits.iter().enumerate() {
                deadline.check().map_err(|_| self.deadline_exceeded())?;
                if self.quarantined[v].is_some() || hit.is_some() || self.is_attached(v) {
                    continue;
                }
                if let Err(e) = self.attach_if_needed(v, &mut report.retries) {
                    self.quarantine_or_fail(v, e)?;
                }
            }
        }
        // The query is prepared once for the whole database, exactly as a
        // single-bank session prepares it once for both strands.
        let prep = PreparedBank::prepare(query, self.cfg.filter, self.cfg.query_index_config());
        let caching = query_fp.is_some();
        let workers = self.opts.volume_workers.max(1);
        // Per-volume fresh search results, staged out-of-sink. `None`
        // for quarantined, cache-hit and (in direct-stream mode)
        // already-streamed volumes is disambiguated in the merge phase.
        let mut fresh: Vec<StagedResult> = (0..num).map(|_| None).collect();
        // Direct-stream mode: no deadline, no cache, one worker — the
        // original zero-buffer path, records flow straight into `sink`.
        let direct = !deadline.is_armed() && !caching && workers == 1;
        let mut direct_stats: Option<PipelineStats> = None;
        if workers == 1 {
            for v in 0..num {
                if self.quarantined[v].is_some() || hits[v].is_some() {
                    continue;
                }
                deadline.check().map_err(|_| self.deadline_exceeded())?;
                if let Err(e) = self.attach_if_needed(v, &mut report.retries) {
                    self.quarantine_or_fail(v, e)?;
                    continue;
                }
                self.obs.count(names::WORKER_DISPATCH_TOTAL, 1);
                let vspan = self.obs.timed_span_with(
                    "volume_search",
                    names::VOLUME_SEARCH_SECONDS,
                    &[Field::U64("volume", v as u64)],
                );
                let session = self.cache.get(v);
                if direct {
                    let stats = session
                        .run_prepared_streaming_deadline(&prep, sink, deadline)
                        .map_err(|_| self.deadline_exceeded())?;
                    direct_stats = Some(match direct_stats.take() {
                        None => stats,
                        Some(m) => m.merge(&stats),
                    });
                    report.searched.push(v);
                    report.residues_searched += self.db.volume(v).residues;
                } else {
                    let mut buf = CollectSink::new();
                    let stats = session
                        .run_prepared_streaming_deadline(&prep, &mut buf, deadline)
                        .map_err(|_| self.deadline_exceeded())?;
                    fresh[v] = Some((buf.into_records(), stats));
                }
                drop(vspan);
            }
        } else {
            // Parallel fan-out. Attach (and with it every retry and
            // quarantine decision) already happened above — `new()`
            // guarantees the unbounded window — so the workers only ever
            // touch attached, healthy volumes: the per-volume search
            // itself cannot fail except by deadline expiry.
            let pending: Vec<usize> = (0..num)
                .filter(|&v| self.quarantined[v].is_none() && hits[v].is_none())
                .collect();
            let sessions: Vec<&Session<'static>> =
                pending.iter().map(|&v| self.cache.get(v)).collect();
            let slots: Vec<Mutex<StagedResult>> =
                pending.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let spawned = workers.min(pending.len());
            let obs = &self.obs;
            rayon::scope(|s| {
                for _ in 0..spawned {
                    s.spawn(|_| {
                        // Dispatch loop: claim the next unsearched volume,
                        // stage its records privately, repeat. Expiry (or
                        // a sibling's) stops *dispatching* — volumes not
                        // yet claimed are never started.
                        loop {
                            if stop.load(Ordering::Relaxed) || deadline.expired() {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= pending.len() {
                                break;
                            }
                            obs.count(names::WORKER_DISPATCH_TOTAL, 1);
                            let vspan = obs.timed_span_with(
                                "volume_search",
                                names::VOLUME_SEARCH_SECONDS,
                                &[Field::U64("volume", pending[i] as u64)],
                            );
                            let mut buf = CollectSink::new();
                            match sessions[i]
                                .run_prepared_streaming_deadline(&prep, &mut buf, deadline)
                            {
                                Ok(stats) => {
                                    *slots[i].lock().expect("slot lock") =
                                        Some((buf.into_records(), stats));
                                }
                                Err(DeadlineExceeded) => {
                                    stop.store(true, Ordering::Relaxed);
                                    drop(vspan);
                                    break;
                                }
                            }
                            drop(vspan);
                        }
                    });
                }
            });
            for (i, slot) in slots.into_iter().enumerate() {
                match slot.into_inner().expect("slot lock") {
                    Some(done) => fresh[pending[i]] = Some(done),
                    // The only way a slot stays empty is expiry (claimed
                    // and aborted, or never dispatched). The sink is
                    // untouched: every record is still staged.
                    None => return Err(self.deadline_exceeded()),
                }
            }
        }
        // Merge phase — strictly ascending volume order, so stats
        // accumulate exactly as the sequential walk's and the report's
        // lists come out sorted. Record arrival order into the sink is
        // irrelevant: its boundary sort below is a strict total order.
        let merge_span = self.obs.span("merge");
        let mut merged = direct_stats;
        for v in 0..num {
            let (records, stats, hit) = if let Some(cached) = hits[v].take() {
                (cached.records, cached.stats, true)
            } else if let Some((records, stats)) = fresh[v].take() {
                // A completed volume search is cacheable even though its
                // records are about to be consumed: clone into the cache
                // first. (Only complete searches reach here — an aborted
                // query returned above without touching `fresh`'s
                // staging.)
                if let (Some(results), Some(qfp)) = (self.results.as_mut(), query_fp) {
                    let key = CacheKey {
                        query: qfp,
                        volume: v,
                        volume_hash: self.db.volume(v).bank_hash,
                        config: self.config_fp,
                    };
                    results.insert(key, records.clone(), stats);
                    self.obs.count(names::CACHE_INSERTIONS_TOTAL, 1);
                }
                (records, stats, false)
            } else if self.quarantined[v].is_some() {
                report.skipped.push(v);
                continue;
            } else {
                // Direct-stream mode already pushed this volume's records
                // and accounted it; nothing staged.
                continue;
            };
            for record in records {
                sink.accept(record);
            }
            merged = Some(match merged.take() {
                None => stats,
                Some(m) => m.merge(&stats),
            });
            report.searched.push(v);
            report.residues_searched += self.db.volume(v).residues;
            if hit {
                report.cache_hits.push(v);
            }
        }
        // An end_query failure is the caller's *output* stream failing
        // (e.g. a full disk under a StreamWriter), not a database
        // problem — attribute it to the sink, never to the (read-only)
        // database directory.
        sink.end_query().map_err(DbError::Sink)?;
        drop(merge_span);
        let mut stats = merged.unwrap_or_default();
        stats.index_secs += prep.stats().build_secs;
        stats.index_builds += prep.stats().builds;
        self.obs.count(names::QUERIES_TOTAL, 1);
        self.obs.count(names::RECORDS_TOTAL, stats.step4.emitted);
        // Residency and eviction counts live inside the ResultCache;
        // sync them as absolutes (hits/misses/insertions are counted at
        // their call sites above — the obs_metrics integration test
        // pins both views equal).
        if self.results.is_some() {
            let c = self.result_cache_counters();
            self.obs
                .set_counter(names::CACHE_EVICTIONS_TOTAL, c.evictions);
            self.obs
                .set_counter(names::CACHE_INVALIDATIONS_TOTAL, c.invalidations);
            self.obs.set_gauge(names::CACHE_ENTRIES, c.entries as f64);
            self.obs.set_gauge(names::CACHE_BYTES, c.bytes as f64);
        }
        drop(query_span);
        Ok((stats, report))
    }

    /// Collected form of [`DbSession::run_query_into`].
    pub fn run_query(&mut self, query: &Bank) -> Result<OrisResult, DbError> {
        let mut sink = CollectSink::new();
        let stats = self.run_query_into(query, &mut sink)?;
        Ok(OrisResult {
            alignments: sink.into_records(),
            stats,
        })
    }

    /// Runs a batch of query banks across the database — one
    /// `end_query` boundary per bank, in batch order, each query's
    /// working set freed before the next (and, with a small
    /// [`DbOptions::window`], each volume's too). The returned stats
    /// carry one [`SearchReport`] per query: under
    /// [`OnVolumeError::SkipAndReport`] a batch that limped over a bad
    /// volume says so, per query.
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
        let mut per_query = Vec::new();
        let mut reports = Vec::new();
        for q in queries {
            let (stats, report) = self.run_query_reported(q.borrow(), sink)?;
            per_query.push(stats);
            reports.push(report);
        }
        Ok(DbBatchStats {
            per_query,
            reports,
            volumes: self.costs.clone(),
        })
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
