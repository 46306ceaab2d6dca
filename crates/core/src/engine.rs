//! The prepared-bank engine: build indexes once, run many comparisons.
//!
//! The paper's scenario is *intensive* comparison — a bank is indexed once
//! and the cost amortized over a large stream of comparisons. This module
//! is that separation made explicit:
//!
//! * [`PreparedBank`] — a bank together with its low-complexity mask
//!   statistics and its [`BankIndex`], built once (or loaded from a file
//!   written by `oris_index::persist`, in which case nothing is built at
//!   all).
//! * [`Session`] — one prepared subject (both strands when the
//!   configuration asks for them) plus the worker pool, against which any
//!   number of query banks can be run. Step 1 runs once per bank per
//!   session, not once per comparison: a `both_strands` run prepares the
//!   query exactly once, and a stream of N queries prepares the subject
//!   exactly once.
//!
//! [`crate::compare_banks`] is one throwaway session and one
//! [`Session::run`]. Every result carries `PipelineStats::index_builds`, a
//! counter of mask+index constructions attributed to it, which is how the
//! tests pin the amortization down (a session run reports only its query's
//! build; the subject's one-time build is reported by
//! [`Session::subject_stats`]).

use std::borrow::Cow;

use oris_index::{BankIndex, DustMasker, EntropyMasker, IndexConfig, MaskSet};
use oris_obs::{names, Obs, Stopwatch};
use oris_seqio::Bank;

use crate::config::{FilterKind, OrisConfig};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::pipeline::{run_prepared_pipeline_into, OrisResult, PipelineStats, SubjectStrand};
use crate::sink::{CollectSink, RecordSink};

/// Cost and footprint of preparing one bank (mask + index).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrepareStats {
    /// Seconds spent masking + building (0 for an index loaded from disk).
    pub build_secs: f64,
    /// Fraction of bank positions masked by the low-complexity filter.
    pub masked_fraction: f64,
    /// Heap bytes of the index arrays.
    pub index_bytes: usize,
    /// Number of mask+index builds performed (1 for a fresh build, 0 for
    /// an index loaded from disk).
    pub builds: u32,
}

/// The low-complexity mask `filter` puts on `bank` — the one place a
/// [`FilterKind`] is turned into a masker (`None` for
/// [`FilterKind::None`]). Both engines index through
/// [`PreparedBank::prepare`], which discards every word *overlapping* the
/// mask; the BLAST baseline also needs the subject's mask itself for its
/// scan.
pub fn mask_for(filter: FilterKind, bank: &Bank) -> Option<MaskSet> {
    match filter {
        FilterKind::None => None,
        FilterKind::Entropy => Some(EntropyMasker::default().mask(bank)),
        FilterKind::Dust => Some(DustMasker::default().mask(bank)),
    }
}

fn build_index(bank: &Bank, cfg: IndexConfig, mask: &Option<MaskSet>) -> BankIndex {
    match mask {
        Some(m) => {
            // BLAST masking semantics: discard a word when it *overlaps*
            // a masked region (not only when it starts inside one).
            let dilated = m.dilated_left(cfg.w);
            BankIndex::build_filtered(bank, cfg, |p| dilated.contains(p))
        }
        None => BankIndex::build(bank, cfg),
    }
}

/// A bank with its step-1 artifacts: low-complexity mask statistics and
/// the occurrence index, built exactly once.
#[derive(Debug, Clone)]
pub struct PreparedBank<'a> {
    bank: Cow<'a, Bank>,
    index: BankIndex,
    stats: PrepareStats,
    /// The low-complexity filter this bank was prepared under — recorded
    /// so a session can refuse a bank prepared under a different filter
    /// than its configuration (two strands of one subject searching
    /// different effective sequences is silent wrong output, not an
    /// error, downstream).
    filter: FilterKind,
}

impl<'a> PreparedBank<'a> {
    /// Runs step 1 (masking + indexing) on a borrowed bank.
    ///
    /// # Panics
    /// Panics if the bank holds [`oris_index::MAX_BANK_LEN`] positions or
    /// more (the command-line tools refuse such a bank when they read it
    /// and point at `makedb --volume-size`).
    pub fn prepare(bank: &'a Bank, filter: FilterKind, icfg: IndexConfig) -> PreparedBank<'a> {
        Self::prepare_cow(Cow::Borrowed(bank), filter, icfg)
    }

    /// Runs step 1 on an owned bank (e.g. a reverse complement that has
    /// no other owner).
    pub fn prepare_owned(
        bank: Bank,
        filter: FilterKind,
        icfg: IndexConfig,
    ) -> PreparedBank<'static> {
        PreparedBank::<'static>::prepare_cow(Cow::Owned(bank), filter, icfg)
    }

    fn prepare_cow(bank: Cow<'a, Bank>, filter: FilterKind, icfg: IndexConfig) -> PreparedBank<'a> {
        let t0 = Stopwatch::start();
        let mask = mask_for(filter, &bank);
        let index = build_index(&bank, icfg, &mask);
        let stats = PrepareStats {
            build_secs: t0.elapsed_secs(),
            masked_fraction: mask.as_ref().map_or(0.0, |m| m.masked_fraction()),
            index_bytes: index.heap_bytes(),
            builds: 1,
        };
        PreparedBank {
            bank,
            index,
            stats,
            filter,
        }
    }

    /// Attaches a pre-built index (typically loaded from an
    /// `oris_index::persist` file) to its bank, skipping step 1 entirely.
    ///
    /// `meta` is the preparation provenance recorded next to the index;
    /// the mask itself is not needed — steps 2–4 only consult the index.
    ///
    /// Three identity checks protect the attach, because a wrong pairing
    /// produces wrong alignments, not an error, downstream:
    ///
    /// * the index must cover a bank of exactly this length;
    /// * when the file recorded a bank content hash
    ///   (`IndexMeta::bank_hash != 0`), it must match this bank — same
    ///   length is not same content (the stale-index trap: a bank edited
    ///   after `mkindex` ran);
    /// * an `is_fully_indexed` claim is re-verified against the bank (the
    ///   valid-window count must equal the posting count), since a false
    ///   claim would switch step 2 onto the probe-free guard and change
    ///   output. The claim-false direction needs no check — the indexed
    ///   guard consults the (already validated) bit-set and stays correct;
    /// * `meta.filter_code` must name a filter this build knows
    ///   ([`FilterKind::from_code`]) — it becomes the prepared bank's
    ///   recorded filter, which [`Session`] checks against its
    ///   configuration so a subject indexed under one filter is never
    ///   paired with strands or queries masked under another.
    pub fn from_index(
        bank: &'a Bank,
        index: BankIndex,
        meta: &oris_index::IndexMeta,
    ) -> Result<PreparedBank<'a>, String> {
        Self::from_index_cow(Cow::Borrowed(bank), index, meta)
    }

    /// Owned-bank form of [`PreparedBank::from_index`], with the same
    /// identity checks: attaches a loaded index to a bank the prepared
    /// bank takes ownership of. This is the sharded-database attach path
    /// — each volume's FASTA is read into an owned [`Bank`] and paired
    /// with its mmap-loaded index, yielding a `PreparedBank<'static>`
    /// that can outlive the loading scope.
    pub fn from_index_owned(
        bank: Bank,
        index: BankIndex,
        meta: &oris_index::IndexMeta,
    ) -> Result<PreparedBank<'static>, String> {
        PreparedBank::<'static>::from_index_cow(Cow::Owned(bank), index, meta)
    }

    fn from_index_cow(
        bank: Cow<'a, Bank>,
        index: BankIndex,
        meta: &oris_index::IndexMeta,
    ) -> Result<PreparedBank<'a>, String> {
        let filter = FilterKind::from_code(meta.filter_code).ok_or_else(|| {
            format!(
                "index was prepared with an unknown filter (code {})",
                meta.filter_code
            )
        })?;
        if index.bank_len() != bank.data().len() {
            return Err(format!(
                "index was built over a bank of {} positions, this bank has {}",
                index.bank_len(),
                bank.data().len()
            ));
        }
        if meta.bank_hash != 0 {
            let actual = oris_index::persist::fnv1a(bank.data());
            if actual != meta.bank_hash {
                return Err(format!(
                    "index was built over different bank content \
                     (recorded hash {:#018x}, this bank hashes to {actual:#018x})",
                    meta.bank_hash
                ));
            }
        }
        if index.is_fully_indexed() {
            let valid_windows = oris_index::RollingCoder::new(index.coder(), bank.data()).count();
            if valid_windows != index.indexed_positions() {
                return Err(format!(
                    "index claims to be fully indexed but holds {} postings \
                     for {valid_windows} valid windows",
                    index.indexed_positions()
                ));
            }
        }
        let stats = PrepareStats {
            build_secs: 0.0,
            masked_fraction: meta.masked_fraction,
            index_bytes: index.heap_bytes(),
            builds: 0,
        };
        Ok(PreparedBank {
            bank,
            index,
            stats,
            filter,
        })
    }

    /// The low-complexity filter this bank was prepared under.
    #[inline]
    pub fn filter(&self) -> FilterKind {
        self.filter
    }

    /// The underlying bank.
    #[inline]
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// The occurrence index.
    #[inline]
    pub fn index(&self) -> &BankIndex {
        &self.index
    }

    /// Preparation cost and footprint.
    #[inline]
    pub fn stats(&self) -> &PrepareStats {
        &self.stats
    }
}

/// Names the first of word length, stride and filter on which `bank` (the
/// `side`: "subject" or "query") was not prepared as a session needs it.
fn config_mismatch(
    side: &str,
    bank: &PreparedBank<'_>,
    want: IndexConfig,
    filter: FilterKind,
) -> Result<(), String> {
    use std::fmt::Debug;
    let complain = |field: &str, got: &dyn Debug, want: &dyn Debug| {
        Err(format!(
            "{side} {field} is {got:?}, the session configuration needs {want:?}"
        ))
    };
    let index = bank.index();
    if index.w() != want.w {
        return complain("index word length", &index.w(), &want.w);
    }
    if index.stride() != want.stride {
        return complain("index stride", &index.stride(), &want.stride);
    }
    if bank.filter() != filter {
        return complain("filter", &bank.filter(), &filter);
    }
    Ok(())
}

/// A many-query comparison session against one prepared subject.
///
/// Construction runs step 1 on the subject — both strands when
/// `cfg.both_strands` — and builds the worker pool; [`Session::run`] then
/// executes steps 2–4 (plus the query's own step 1) per query. The
/// subject is never re-indexed, and the returned per-run statistics count
/// only the work done for that run ([`PipelineStats::index_builds`] is 1
/// per `run`, 0 per [`Session::search`]); the subject's one-time cost is
/// reported by [`Session::subject_stats`].
///
/// [`PipelineStats::index_builds`]: crate::PipelineStats::index_builds
pub struct Session<'a> {
    cfg: OrisConfig,
    plus: PreparedBank<'a>,
    minus: Option<PreparedBank<'static>>,
    pool: Option<rayon::ThreadPool>,
    obs: Obs,
}

impl<'a> Session<'a> {
    /// Prepares `subject` (and its reverse complement when
    /// `cfg.both_strands`) under `cfg` and builds the worker pool. The
    /// two strands are prepared concurrently (`rayon::join`).
    pub fn new(subject: &'a Bank, cfg: &OrisConfig) -> Result<Session<'a>, String> {
        cfg.validate()?;
        let pool = Self::pool_for(cfg)?;
        let (plus, minus) = match &pool {
            Some(p) => p.install(|| Self::prepare_strands(subject, cfg)),
            None => Self::prepare_strands(subject, cfg),
        };
        Ok(Session {
            cfg: *cfg,
            plus,
            minus,
            pool,
            obs: Obs::disarmed(),
        })
    }

    /// Builds a session around an already prepared subject — typically
    /// one whose index was loaded from disk via
    /// [`PreparedBank::from_index`].
    ///
    /// The prepared index must match the configuration (same effective
    /// word length and stride); with `cfg.both_strands` the minus-strand
    /// index is built here (an index file stores one strand).
    pub fn with_subject(
        subject: PreparedBank<'a>,
        cfg: &OrisConfig,
    ) -> Result<Session<'a>, String> {
        cfg.validate()?;
        // Accepting another filter would let the two strands of one
        // subject (or the subject and its queries) search different
        // effective sequences — strand-asymmetric output with no error.
        config_mismatch("subject", &subject, cfg.subject_index_config(), cfg.filter)?;
        let pool = Self::pool_for(cfg)?;
        let minus = if cfg.both_strands {
            let prepare = || Self::prepare_minus(subject.bank(), cfg);
            Some(match &pool {
                Some(p) => p.install(prepare),
                None => prepare(),
            })
        } else {
            None
        };
        Ok(Session {
            cfg: *cfg,
            plus: subject,
            minus,
            pool,
            obs: Obs::disarmed(),
        })
    }

    /// Installs an observability handle: subsequent runs emit
    /// step-2/3/4 spans and metrics through it. Instrumentation is off
    /// the result path — records and stats are identical armed or
    /// disarmed (pinned by the `db_equivalence` proptests).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Step 1 for a subject bank: the plus strand, and — concurrently —
    /// the minus strand when the configuration searches both.
    fn prepare_strands<'s>(
        subject: &'s Bank,
        cfg: &OrisConfig,
    ) -> (PreparedBank<'s>, Option<PreparedBank<'static>>) {
        let icfg = cfg.subject_index_config();
        if cfg.both_strands {
            let (plus, minus) = rayon::join(
                || PreparedBank::prepare(subject, cfg.filter, icfg),
                || Self::prepare_minus(subject, cfg),
            );
            (plus, Some(minus))
        } else {
            (PreparedBank::prepare(subject, cfg.filter, icfg), None)
        }
    }

    /// Step 1 for the minus strand: index the reverse complement under
    /// the subject configuration.
    fn prepare_minus(subject: &Bank, cfg: &OrisConfig) -> PreparedBank<'static> {
        PreparedBank::prepare_owned(
            subject.reverse_complement(),
            cfg.filter,
            cfg.subject_index_config(),
        )
    }

    fn pool_for(cfg: &OrisConfig) -> Result<Option<rayon::ThreadPool>, String> {
        match cfg.threads {
            None => Ok(None),
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map(Some)
                .map_err(|e| format!("failed to build thread pool: {e}")),
        }
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(p) => p.install(f),
            None => f(),
        }
    }

    /// The session configuration.
    #[inline]
    pub fn config(&self) -> &OrisConfig {
        &self.cfg
    }

    /// The prepared plus-strand subject.
    #[inline]
    pub fn subject(&self) -> &PreparedBank<'a> {
        &self.plus
    }

    /// Total one-time subject preparation cost: both strands summed
    /// (build seconds and build count), and the bytes of all indexes the
    /// session holds resident.
    pub fn subject_stats(&self) -> PrepareStats {
        let mut s = self.plus.stats;
        if let Some(minus) = &self.minus {
            s.build_secs += minus.stats.build_secs;
            s.index_bytes += minus.stats.index_bytes;
            s.builds += minus.stats.builds;
            s.masked_fraction = s.masked_fraction.max(minus.stats.masked_fraction);
        }
        s
    }

    /// Runs an already prepared query against the prepared subject —
    /// steps 2–4 only, no index construction (`index_builds == 0`; the
    /// caller that prepared the query adds its build). This is the one
    /// way a prepared query runs: [`Session::run`] and
    /// [`Session::run_batch`] are conveniences over it.
    ///
    /// Records are pushed into `sink` as step 3 finishes each
    /// record-pair group, both strands when configured. The query
    /// boundary is **not** marked: the caller owns the
    /// [`RecordSink::end_query`] call, whose single boundary sort under
    /// [`crate::M8Record::total_order`] merges the two strands here
    /// and all the volumes of a database search — one query runs through
    /// each volume's session in turn and the database session fires
    /// `end_query` once — into bytes identical to a single-bank run over
    /// the concatenated input.
    ///
    /// `deadline` is consulted at step-2 partition boundaries (and within
    /// hot partitions) and between strands, so a pathological query — one
    /// hot seed code whose `|X1|·|X2|` pair product is quadratic — stops
    /// within a bounded sliver of work. The token never changes what is
    /// computed, only whether the run finishes; [`Deadline::none`] never
    /// expires.
    ///
    /// # Errors
    /// * [`SearchError::ConfigMismatch`], before anything is computed, if
    ///   the query was not prepared under this session's configuration —
    ///   same word length, stride 1 ([`OrisConfig::query_index_config`]),
    ///   same filter. (The asymmetric stride belongs to the *subject*
    ///   side only; a strided query index would silently drop half the
    ///   query's seed occurrences, and a differently filtered query
    ///   would search a different effective sequence.)
    /// * [`SearchError::DeadlineExceeded`] on expiry. The sink may
    ///   already hold records pushed before it; the caller owns
    ///   discarding them.
    pub fn search(
        &self,
        query: &PreparedBank<'_>,
        sink: &mut dyn RecordSink,
        deadline: &Deadline,
    ) -> Result<PipelineStats, SearchError> {
        config_mismatch(
            "query",
            query,
            self.cfg.query_index_config(),
            self.cfg.filter,
        )
        .map_err(SearchError::ConfigMismatch)?;
        self.install(|| {
            let mut push = |rec| sink.accept(rec);
            let plus = run_prepared_pipeline_into(
                query,
                &self.plus,
                &self.cfg,
                SubjectStrand::Plus,
                &mut push,
                deadline,
                &self.obs,
            )?;
            match &self.minus {
                None => Ok(plus),
                Some(minus) => {
                    deadline.check()?;
                    Ok(plus.merge(&run_prepared_pipeline_into(
                        query,
                        minus,
                        &self.cfg,
                        SubjectStrand::Minus,
                        &mut push,
                        deadline,
                        &self.obs,
                    )?))
                }
            }
        })
    }

    /// One whole query for the conveniences, counted as the database
    /// session counts its own: a `query` span timed into `query_seconds`
    /// around the query's step 1, [`Session::search`] without a deadline
    /// and the query boundary, then `queries_total` and `records_total`.
    /// ([`Session::search`] itself counts nothing — a database session
    /// calls it once per volume of one query.)
    fn search_to_boundary(
        &self,
        query: &Bank,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<PipelineStats> {
        let _span = self.obs.timed_span("query", names::QUERY_SECONDS);
        let prepared = self.install(|| {
            PreparedBank::prepare(query, self.cfg.filter, self.cfg.query_index_config())
        });
        let mut stats = self
            .search(&prepared, sink, &Deadline::none())
            .expect("the query was prepared under this configuration and no deadline is armed");
        sink.end_query()?;
        stats.index_secs += prepared.stats.build_secs;
        stats.index_builds += prepared.stats.builds;
        self.obs.count(names::QUERIES_TOTAL, 1);
        self.obs.count(names::RECORDS_TOTAL, stats.step4.emitted);
        Ok(stats)
    }

    /// Prepares `query` (step 1, counted in the returned stats), runs it
    /// against the prepared subject and collects the sorted records.
    pub fn run(&self, query: &Bank) -> OrisResult {
        let mut sink = CollectSink::new();
        let stats = self
            .search_to_boundary(query, &mut sink)
            .expect("CollectSink does no IO and cannot fail");
        OrisResult {
            alignments: sink.into_records(),
            stats,
        }
    }

    /// Runs a batch of query banks against the prepared subject, streaming
    /// records into `sink` (one [`RecordSink::end_query`] boundary per
    /// bank, in batch order). Each query's working set — index, HSPs,
    /// alignments, records — is built, streamed out and freed before the
    /// next query starts; nothing accumulates across the batch unless the
    /// sink chooses to keep it.
    ///
    /// `queries` is any iterable of banks (`&[Bank]`, a `Vec<Bank>`
    /// reference, or a *lazy* iterator of owned banks). With a lazy
    /// iterator the bound is complete: not even the query banks themselves
    /// are resident beyond the one being run — which is how the
    /// `scoris-n --batch` directory mode holds exactly one query file at
    /// a time.
    ///
    /// Accounting: each query counts exactly its own preparation (1
    /// build) in the running totals; the subject's one-time cost appears
    /// **once**, in [`BatchStats::subject`], never multiplied across
    /// queries. The report is a fixed-size fold — a query's own report is
    /// what [`Session::run`] returns for it.
    pub fn run_batch<I>(&self, queries: I, sink: &mut dyn RecordSink) -> std::io::Result<BatchStats>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Bank>,
    {
        use std::borrow::Borrow;
        let mut batch = BatchStats {
            subject: self.subject_stats(),
            ..BatchStats::default()
        };
        for q in queries {
            let stats = self.search_to_boundary(q.borrow(), sink)?;
            batch.queries += 1;
            batch.totals = batch.totals.merge(&stats);
        }
        Ok(batch)
    }
}

/// Why [`Session::search`] refused or abandoned a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The query was prepared under a different configuration than the
    /// session's; the message names the field (word length, stride or
    /// filter) and both values.
    ConfigMismatch(String),
    /// The cooperative deadline expired before the search completed.
    DeadlineExceeded(DeadlineExceeded),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::ConfigMismatch(msg) => write!(f, "{msg}"),
            SearchError::DeadlineExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<DeadlineExceeded> for SearchError {
    fn from(e: DeadlineExceeded) -> SearchError {
        SearchError::DeadlineExceeded(e)
    }
}

/// Report of one [`Session::run_batch`]: the subject's one-time
/// preparation cost (attributed **once**, regardless of how many queries
/// amortize it) plus the running fold of the queries' own pipeline
/// reports. Its size does not depend on the batch length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// One-time subject preparation (both strands when configured) — the
    /// cost `index_builds` would double-count if it were folded into every
    /// query's report.
    pub subject: PrepareStats,
    queries: usize,
    totals: PipelineStats,
}

impl BatchStats {
    /// Number of queries in the batch.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// The queries' reports merged in batch order, each counting exactly
    /// 1 `index_builds` (its own preparation) and zero subject work (the
    /// subject's one-time cost is *not* folded in — it lives in
    /// [`BatchStats::subject`]).
    pub fn query_totals(&self) -> PipelineStats {
        self.totals
    }

    /// Total index builds for the whole batch: the subject's once, plus
    /// one per query.
    pub fn total_index_builds(&self) -> u32 {
        self.subject.builds + self.totals.index_builds
    }

    /// Total records emitted across the batch.
    pub fn total_records(&self) -> u64 {
        self.totals.step4.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compare_banks;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";

    #[test]
    fn session_matches_compare_banks() {
        let subject = bank(&[&format!("CCGGAACCTT{CORE}TTGGCCAACGGT")]);
        let queries = [
            bank(&[&format!("TTACCGGTTAACC{CORE}GGTTACGCAT")]),
            bank(&[CORE]),
            bank(&["ATATATATGCGCGCGCATATATAT"]),
            bank(&[&format!("{CORE}{CORE}")]),
        ];
        let cfg = OrisConfig::small(8);
        let session = Session::new(&subject, &cfg).unwrap();
        assert_eq!(session.subject_stats().builds, 1);
        for q in &queries {
            let via_session = session.run(q);
            let via_compare = compare_banks(q, &subject, &cfg);
            assert_eq!(via_session.alignments, via_compare.alignments);
            // Amortized accounting: the run built only the query index.
            assert_eq!(via_session.stats.index_builds, 1);
        }
    }

    #[test]
    fn run_prepared_builds_nothing() {
        let subject = bank(&[&format!("AA{CORE}TT")]);
        let query = bank(&[CORE]);
        let cfg = OrisConfig::small(8);
        let session = Session::new(&subject, &cfg).unwrap();
        let prep = PreparedBank::prepare(&query, cfg.filter, cfg.query_index_config());
        let mut sink = CollectSink::new();
        let stats = session.search(&prep, &mut sink, &Deadline::none()).unwrap();
        sink.end_query().unwrap();
        assert_eq!(stats.index_builds, 0);
        assert_eq!(sink.into_records(), session.run(&query).alignments);
    }

    #[test]
    fn search_rejects_a_mismatched_query_with_a_typed_error() {
        let subject = bank(&[&format!("AA{CORE}TT")]);
        let query = bank(&[CORE]);
        let cfg = OrisConfig::small(8);
        let session = Session::new(&subject, &cfg).unwrap();
        let right = cfg.query_index_config();
        for (filter, icfg, field) in [
            (cfg.filter, IndexConfig::full(7), "word length"),
            (cfg.filter, IndexConfig::asymmetric(8), "stride"),
            (FilterKind::Dust, right, "filter"),
        ] {
            let prep = PreparedBank::prepare(&query, filter, icfg);
            let mut sink = CollectSink::new();
            match session.search(&prep, &mut sink, &Deadline::none()) {
                Err(SearchError::ConfigMismatch(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected ConfigMismatch, got {other:?}"),
            }
            assert!(sink.records().is_empty());
        }
    }

    #[test]
    fn both_strands_session_builds_subject_twice_query_once() {
        let subject = bank(&[&format!("AA{CORE}TT")]);
        let query = bank(&[CORE]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let session = Session::new(&subject, &cfg).unwrap();
        // Plus and minus subject strands.
        assert_eq!(session.subject_stats().builds, 2);
        let r = session.run(&query);
        // The query was prepared exactly once despite two strand runs.
        assert_eq!(r.stats.index_builds, 1);
        assert_eq!(
            r.alignments,
            compare_banks(&query, &subject, &cfg).alignments
        );
    }

    #[test]
    fn batch_attributes_subject_build_exactly_once() {
        // The double-count trap: a batch of N queries must not multiply
        // the subject's one-time index cost into every per-query report.
        // With both strands the subject costs 2 builds — they appear once
        // in BatchStats::subject, while each per-query report counts
        // exactly its own query's single build.
        let subject = bank(&[&format!("AA{CORE}TT")]);
        let queries = vec![
            bank(&[CORE]),
            bank(&["ATATATATGCGCGCGCATATATAT"]),
            bank(&[&format!("GG{CORE}CC")]),
        ];
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let session = Session::new(&subject, &cfg).unwrap();
        let mut sink = crate::sink::CollectSink::new();
        let batch = session.run_batch(&queries, &mut sink).unwrap();

        assert_eq!(batch.queries(), 3);
        assert_eq!(batch.subject.builds, 2, "one build per subject strand");
        // Totals: query builds sum WITHOUT the subject...
        assert_eq!(batch.query_totals().index_builds, 3);
        // ...and the whole-batch figure adds the subject exactly once:
        // 2 strand builds + 3 query builds — not the 3·(2+1) = 9 a
        // per-query fold of compare_banks-style accounting would claim.
        assert_eq!(batch.total_index_builds(), 5);

        // The running totals are the fold of what the same queries report
        // one at a time (the clock fields aside — those are measured).
        let mut folded = PipelineStats::default();
        for q in &queries {
            let single = session.run(q).stats;
            assert_eq!(single.index_builds, 1, "each query pays only its own build");
            folded = folded.merge(&single);
        }
        let untimed = |s: PipelineStats| PipelineStats {
            index_secs: 0.0,
            step2_secs: 0.0,
            step3_secs: 0.0,
            step4_secs: 0.0,
            ..s
        };
        assert_eq!(untimed(batch.query_totals()), untimed(folded));
        // And the batch record count matches the sink's contents.
        assert_eq!(batch.total_records() as usize, sink.records().len());
    }

    #[test]
    fn run_batch_with_zero_queries_attributes_subject_once() {
        // The degenerate batch: no query banks at all. The subject's
        // one-time cost must still be attributed (exactly once) in
        // BatchStats::subject, the query totals must be empty, and the
        // sink must see NO end_query boundary — an empty batch is zero
        // queries, not one empty query.
        struct CountingSink {
            accepted: usize,
            boundaries: usize,
        }
        impl crate::sink::RecordSink for CountingSink {
            fn accept(&mut self, _rec: crate::M8Record) {
                self.accepted += 1;
            }
            fn end_query(&mut self) -> std::io::Result<()> {
                self.boundaries += 1;
                Ok(())
            }
        }

        let subject = bank(&[&format!("AA{CORE}TT")]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let session = Session::new(&subject, &cfg).unwrap();
        let mut sink = CountingSink {
            accepted: 0,
            boundaries: 0,
        };
        let queries: Vec<Bank> = Vec::new();
        let batch = session.run_batch(&queries, &mut sink).unwrap();

        assert_eq!(batch.queries(), 0);
        assert_eq!(batch.subject.builds, 2, "both strands, attributed once");
        assert_eq!(batch.total_index_builds(), 2, "no query builds to add");
        assert_eq!(batch.query_totals(), PipelineStats::default());
        assert_eq!(batch.total_records(), 0);
        assert_eq!(sink.accepted, 0);
        assert_eq!(sink.boundaries, 0, "no queries → no query boundaries");
    }

    #[test]
    fn run_batch_streams_each_query_in_order() {
        let subject = bank(&[&format!("CCGGAACCTT{CORE}TTGGCCAACGGT")]);
        let queries = vec![
            bank(&[&format!("TT{CORE}GG")]),
            bank(&[CORE, "GGTTCCAAGGTTCCAAGGTTCCAA"]),
        ];
        let cfg = OrisConfig::small(8);
        let session = Session::new(&subject, &cfg).unwrap();

        let mut sink = crate::sink::CollectSink::new();
        let batch = session.run_batch(&queries, &mut sink).unwrap();
        let expected: Vec<crate::M8Record> = queries
            .iter()
            .flat_map(|q| session.run(q).alignments)
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(sink.into_records(), expected);
        assert_eq!(batch.queries(), 2);
    }

    #[test]
    fn from_index_rejects_wrong_bank() {
        let b1 = bank(&[CORE]);
        let b2 = bank(&[&format!("{CORE}EXTRA_LENGTH_PADDING")]);
        let idx = BankIndex::build(&b1, IndexConfig::full(8));
        assert!(PreparedBank::from_index(&b2, idx, &oris_index::IndexMeta::default()).is_err());
    }

    #[test]
    fn from_index_rejects_same_length_different_content() {
        // The stale-index trap: the bank is edited after mkindex ran but
        // keeps its length. The recorded content hash must catch it.
        let original = bank(&[CORE]);
        let mut edited_seq = CORE.to_string();
        // One substitution, same length.
        edited_seq.replace_range(5..6, "C");
        let edited = bank(&[&edited_seq]);
        assert_eq!(original.data().len(), edited.data().len());
        let idx = BankIndex::build(&original, IndexConfig::full(8));
        let meta = oris_index::IndexMeta {
            bank_hash: oris_index::persist::fnv1a(original.data()),
            ..Default::default()
        };
        assert!(PreparedBank::from_index(&original, idx.clone(), &meta).is_ok());
        let err = PreparedBank::from_index(&edited, idx, &meta).unwrap_err();
        assert!(err.contains("different bank content"), "{err}");
    }

    #[test]
    fn from_index_rejects_false_fully_indexed_claim() {
        // A crafted file could carry a masked index with the
        // fully_indexed flag forced on (and a recomputed checksum); the
        // attach must re-verify the claim against the bank, because a
        // false claim silently switches step 2 onto the probe-free guard.
        let subject = bank(&[CORE]);
        let masked = BankIndex::build_filtered(&subject, IndexConfig::full(8), |p| p == 3);
        let mut bytes = Vec::new();
        oris_index::persist::write_index(&mut bytes, &masked, &oris_index::IndexMeta::default())
            .unwrap();
        // Forge: set flags bit 0 (offset 20) and restamp the trailing
        // whole-stream checksum so the file parses.
        bytes[20] |= 1;
        oris_index::persist::restamp_checksum(&mut bytes);
        let (forged, meta) = oris_index::persist::read_index(&mut bytes.as_slice()).unwrap();
        assert!(forged.is_fully_indexed(), "forgery must have taken");
        let err = PreparedBank::from_index(&subject, forged, &meta).unwrap_err();
        assert!(err.contains("claims to be fully indexed"), "{err}");
    }

    #[test]
    fn with_subject_rejects_mismatched_config() {
        let subject = bank(&[CORE]);
        let cfg = OrisConfig::small(8);
        // Wrong word length.
        let idx = BankIndex::build(&subject, IndexConfig::full(7));
        let prep =
            PreparedBank::from_index(&subject, idx, &oris_index::IndexMeta::default()).unwrap();
        assert!(Session::with_subject(prep, &cfg).is_err());
        // Wrong stride.
        let idx = BankIndex::build(&subject, IndexConfig::asymmetric(8));
        let prep =
            PreparedBank::from_index(&subject, idx, &oris_index::IndexMeta::default()).unwrap();
        assert!(Session::with_subject(prep, &cfg).is_err());
        // Wrong filter: the index was prepared under Dust, the session
        // wants None (OrisConfig::small) — accepting it would let the two
        // strands search differently masked sequences.
        let idx = BankIndex::build(&subject, IndexConfig::full(8));
        let meta = oris_index::IndexMeta {
            filter_code: FilterKind::Dust.code(),
            ..Default::default()
        };
        let prep = PreparedBank::from_index(&subject, idx, &meta).unwrap();
        let err = match Session::with_subject(prep, &cfg) {
            Err(e) => e,
            Ok(_) => panic!("filter mismatch must be rejected"),
        };
        assert!(err.contains("filter"), "{err}");
        // Unknown filter code: refused at attach.
        let idx = BankIndex::build(&subject, IndexConfig::full(8));
        let meta = oris_index::IndexMeta {
            filter_code: 99,
            ..Default::default()
        };
        assert!(PreparedBank::from_index(&subject, idx, &meta).is_err());
    }

    #[test]
    fn loaded_subject_session_matches_fresh_session() {
        let subject = bank(&[&format!("CCGGAACCTT{CORE}TTGGCCAACGGT")]);
        let query = bank(&[&format!("TT{CORE}GG")]);
        let cfg = OrisConfig::small(8);

        // "Load": serialize the subject index and read it back.
        let fresh = PreparedBank::prepare(&subject, cfg.filter, cfg.subject_index_config());
        let mut bytes = Vec::new();
        oris_index::persist::write_index(
            &mut bytes,
            fresh.index(),
            &oris_index::IndexMeta {
                masked_fraction: fresh.stats().masked_fraction,
                filter_code: cfg.filter.code(),
                bank_hash: oris_index::persist::fnv1a(subject.data()),
            },
        )
        .unwrap();
        let (loaded, meta) = oris_index::persist::read_index(&mut bytes.as_slice()).unwrap();
        let prep = PreparedBank::from_index(&subject, loaded, &meta).unwrap();
        assert_eq!(prep.stats().builds, 0);

        let loaded_session = Session::with_subject(prep, &cfg).unwrap();
        let fresh_session = Session::new(&subject, &cfg).unwrap();
        let a = loaded_session.run(&query);
        let b = fresh_session.run(&query);
        assert_eq!(a.alignments, b.alignments);
        assert!(!a.alignments.is_empty());
        assert_eq!(loaded_session.subject_stats().builds, 0);
    }
}
