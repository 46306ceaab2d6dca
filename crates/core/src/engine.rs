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
//! * [`QueryChunk`] — a batch's query banks ("members") joined into one
//!   bank and prepared once. A batch (the batch loop of
//!   `oris_db::DbSession`, over a database or one resident subject
//!   session) pulls members into chunks of at most
//!   [`JOINT_CHUNK_RESIDUES`] bank positions ([`joint_chunks`]) and runs
//!   steps 1–3 once per chunk ([`Session::search_chunk`]), as the paper
//!   compares two *banks*: the code-ordered walk of step 2 then moves
//!   the portions of every read that share a seed into the cache
//!   together. Searched alone, a 150-nt read meets ~44 seed pairs per
//!   subject and pays a cold partner lookup for each of its ~139 codes.
//!   Step 4 runs per member, against the member's own residues, and each
//!   member's records are sorted and written at its own boundary, so the
//!   bytes are those of one search per member. A single query is a chunk
//!   of one.
//!
//! **Why a joint search finds each member's alignments and no others.**
//! Both low-complexity masks start afresh at every record, the index
//! stride belongs to the subject only, step 2's walks and step 3's
//! extensions stop at the sentinel between two records, and step 3 groups
//! HSPs by (query record, subject record), keeping their diagonal order
//! inside a group (a record's shift in the joint bank moves every
//! diagonal of its groups alike). So every group, its alignments and its
//! step-3 counters are those of the member's own search; step 4 prices
//! them against the member's residues. Step 2's counters are sums over
//! seed pairs, so a chunk's are the sum of its members' searches. The
//! `joint_equals_per_member` proptests hold all of this to one search per
//! member.
//!
//! [`crate::compare_banks`] is one throwaway session and one
//! [`Session::run`]. Every result carries `PipelineStats::index_builds`, a
//! counter of mask+index constructions attributed to it, which is how the
//! tests pin the amortization down (a session run reports only its query's
//! build; the subject's one-time build is reported by
//! [`Session::subject_stats`]).

use std::borrow::{Borrow, Cow};

use oris_index::{BankIndex, DustMasker, EntropyMasker, IndexConfig, MaskSet};
use oris_obs::{Obs, Stopwatch};
use oris_seqio::{Bank, BankBuilder};

use crate::config::{FilterKind, OrisConfig};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::pipeline::{
    run_prepared_pipeline_into, MemberResult, Members, OrisResult, PipelineStats, SubjectStrand,
};
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
    fn prepare_owned(bank: Bank, filter: FilterKind, icfg: IndexConfig) -> PreparedBank<'static> {
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

    /// Attaches a pre-built index (loaded from an `oris_index::persist`
    /// file) to its bank, skipping step 1 entirely, and takes ownership of
    /// the bank. This is the database attach path: each volume's FASTA is
    /// read into an owned [`Bank`] and paired with its mapped index,
    /// yielding a `PreparedBank<'static>` that can outlive the loading
    /// scope.
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
    ///   after its index was written);
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
        bank: Bank,
        index: BankIndex,
        meta: &oris_index::IndexMeta,
    ) -> Result<PreparedBank<'static>, String> {
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
            bank: Cow::Owned(bank),
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

/// Bank positions — residues plus one sentinel per record — that one
/// chunk of batch members may hold ([`joint_chunks`]). 2^19 holds the
/// benchmark's 3 000 reads of 150 nt (453 000 positions) in one chunk; a
/// joint bank under 2^19 positions is also indexed on the calling thread
/// (two `PAR_GRAIN`s of the index build), as a read is. What a batch
/// keeps resident is one chunk: its members, its joint index and, until
/// the members' boundaries are written, its records.
pub const JOINT_CHUNK_RESIDUES: usize = 1 << 19;

/// A member's share of a chunk's bound: its residues and one sentinel per
/// record, so a run of empty records still fills chunks.
fn chunk_positions(bank: &Bank) -> usize {
    bank.num_residues() + bank.num_sequences()
}

/// Pulls batch members from `queries`, in order, into chunks of at most
/// `bound` bank positions ([`JOINT_CHUNK_RESIDUES`] for the batches of
/// `oris_db::DbSession`; tests pass small bounds to cut toy batches into
/// many chunks). A member larger than the bound is a chunk
/// of its own; a member is never split. The source is read one member
/// ahead of the chunk it closes.
pub fn joint_chunks<I>(queries: I, bound: usize) -> impl Iterator<Item = Vec<I::Item>>
where
    I: IntoIterator,
    I::Item: Borrow<Bank>,
{
    let mut queries = queries.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = queries.next()?;
        let mut positions = chunk_positions(first.borrow());
        let mut chunk = vec![first];
        while let Some(next) = queries.next_if(|q| positions + chunk_positions(q.borrow()) <= bound)
        {
            positions += chunk_positions(next.borrow());
            chunk.push(next);
        }
        Some(chunk)
    })
}

/// A chunk of query banks ("members") prepared as one: their records
/// concatenated into one bank in member order, step 1 run once over it,
/// and the record ranges that say which member owns which record (see the
/// module docs for why a joint search equals one search per member).
#[derive(Debug, Clone)]
pub struct QueryChunk<'a> {
    prepared: PreparedBank<'a>,
    members: Members,
}

impl<'a> QueryChunk<'a> {
    /// Joins `members` into one bank and runs step 1 on it. A chunk of one
    /// member borrows the member's bank instead of copying it.
    ///
    /// # Panics
    /// As [`PreparedBank::prepare`], if the joint bank holds
    /// [`oris_index::MAX_BANK_LEN`] positions or more.
    pub fn prepare<B: Borrow<Bank>>(
        members: &'a [B],
        filter: FilterKind,
        icfg: IndexConfig,
    ) -> QueryChunk<'a> {
        let prepared = match members {
            [one] => PreparedBank::prepare(one.borrow(), filter, icfg),
            _ => PreparedBank::prepare_owned(join(members), filter, icfg),
        };
        QueryChunk {
            prepared,
            members: Members::of(members),
        }
    }

    /// The joint bank with its step-1 artifacts.
    #[inline]
    pub fn prepared(&self) -> &PreparedBank<'a> {
        &self.prepared
    }

    /// Number of members.
    #[inline]
    pub fn members(&self) -> usize {
        self.members.len()
    }
}

/// The records of `members`, in order, as one bank.
fn join<B: Borrow<Bank>>(members: &[B]) -> Bank {
    let (residues, records) = members.iter().fold((0, 0), |(n, r), m| {
        let m = m.borrow();
        (n + m.num_residues(), r + m.num_sequences())
    });
    let mut joint = BankBuilder::with_capacity(residues, records);
    for member in members {
        let member = member.borrow();
        for (r, record) in member.records().iter().enumerate() {
            joint.push_codes(&record.name, member.sequence(r));
        }
    }
    joint.finish()
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
/// `cfg.both_strands` — and builds the worker pool;
/// [`Session::search_chunk`] then executes steps 2–4 of a prepared query
/// chunk, and [`Session::run`] prepares one query bank as a chunk of one
/// first. The subject is never re-indexed, and the returned per-run
/// statistics count only the work done for that run
/// ([`PipelineStats::index_builds`] is 1 per `run`, 0 per `search_chunk`);
/// the subject's one-time cost is reported by [`Session::subject_stats`].
/// A batch of query banks runs through `oris_db::DbSession`, which holds a
/// session as its one resident volume.
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

    /// Builds a session around an already prepared subject — a database
    /// volume whose index was loaded from disk via
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

    /// Runs a prepared chunk against the prepared subject — steps 2–4, no
    /// index construction: step 2 and the gapped stage once over the
    /// joint bank per strand, step 4 per group against its member's
    /// residues. Each member's records, both strands when configured, and
    /// its own step-3/4 counters are added to what `out[m]` holds, so a
    /// caller that searches several subjects into one `out` — the volumes
    /// of a database — holds each member's whole answer: records in call
    /// order, counters summed. Returns the chunk's report (step 2 once,
    /// steps 3–4 summed over the members; `index_builds == 0`). The
    /// records stay unsorted: the caller sorts them at the member's
    /// boundary ([`RecordSink::end_query`], under
    /// [`crate::M8Record::total_order`]), which merges the strands and the
    /// volumes into bytes identical to a single-bank run over the
    /// concatenated input.
    ///
    /// `deadline` is read at the points [`crate::deadline`] lists, so a
    /// pathological chunk — one hot seed code whose `|X1|·|X2|` pair
    /// product is quadratic, or the tens of thousands of extensions it
    /// feeds step 3 — stops within one step-2 batch or a few thousand
    /// extensions. The token never changes what is computed, only whether
    /// the run finishes; [`Deadline::none`] never expires.
    ///
    /// # Panics
    /// If `out` does not hold one slot per member of `chunk`.
    ///
    /// # Errors
    /// * [`SearchError::ConfigMismatch`], before anything is computed, if
    ///   the chunk was not prepared under this session's configuration —
    ///   same word length, stride 1 ([`OrisConfig::query_index_config`]),
    ///   same filter. (The asymmetric stride belongs to the *subject*
    ///   side only; a strided query index would silently drop half the
    ///   query's seed occurrences, and a differently filtered query
    ///   would search a different effective sequence.)
    /// * [`SearchError::DeadlineExceeded`] on expiry; what `out` gained is
    ///   partial, and the caller drops it.
    pub fn search_chunk(
        &self,
        chunk: &QueryChunk<'_>,
        out: &mut [MemberResult],
        deadline: &Deadline,
    ) -> Result<PipelineStats, SearchError> {
        let (query, members) = (&chunk.prepared, &chunk.members);
        assert_eq!(out.len(), chunk.members(), "one answer slot per member");
        config_mismatch(
            "query",
            query,
            self.cfg.query_index_config(),
            self.cfg.filter,
        )
        .map_err(SearchError::ConfigMismatch)?;
        let stats = self.install(|| -> Result<PipelineStats, DeadlineExceeded> {
            let mut run = |subject: &PreparedBank<'_>, strand: SubjectStrand| {
                run_prepared_pipeline_into(
                    query, members, subject, &self.cfg, strand, out, deadline, &self.obs,
                )
            };
            let plus = run(&self.plus, SubjectStrand::Plus)?;
            match &self.minus {
                None => Ok(plus),
                Some(minus) => {
                    deadline.check()?;
                    Ok(plus.merge(&run(minus, SubjectStrand::Minus)?))
                }
            }
        })?;
        Ok(stats)
    }

    /// Prepares `query` as a chunk of one (step 1, counted in the returned
    /// stats), runs it against the prepared subject
    /// ([`Session::search_chunk`]) and collects the sorted records. It
    /// counts no query into the observability handle (`queries_total`,
    /// `query_seconds`): `oris_db::DbSession` counts the queries of a
    /// batch.
    pub fn run(&self, query: &Bank) -> OrisResult {
        let chunk = self.install(|| {
            QueryChunk::prepare(
                std::slice::from_ref(query),
                self.cfg.filter,
                self.cfg.query_index_config(),
            )
        });
        let mut out = [MemberResult::default()];
        let mut stats = self
            .search_chunk(&chunk, &mut out, &Deadline::none())
            .expect("the query was prepared under this configuration and no deadline is armed");
        let [member] = out;
        let mut sink = CollectSink::new();
        sink.accept_all(member.records);
        sink.end_query()
            .expect("CollectSink does no IO and cannot fail");
        stats.index_secs += chunk.prepared.stats.build_secs;
        stats.index_builds += chunk.prepared.stats.builds;
        OrisResult {
            alignments: sink.into_records(),
            stats,
        }
    }
}

/// Why [`Session::search_chunk`] refused or abandoned a chunk.
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
        let one = std::slice::from_ref(&query);
        let chunk = QueryChunk::prepare(one, cfg.filter, cfg.query_index_config());
        let mut out = [MemberResult::default()];
        let stats = session
            .search_chunk(&chunk, &mut out, &Deadline::none())
            .unwrap();
        assert_eq!(stats.index_builds, 0);
        let [member] = out;
        let mut sink = CollectSink::new();
        sink.accept_all(member.records);
        sink.end_query().unwrap();
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
            let chunk = QueryChunk::prepare(std::slice::from_ref(&query), filter, icfg);
            match session.search_chunk(&chunk, &mut [MemberResult::default()], &Deadline::none()) {
                Err(SearchError::ConfigMismatch(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected ConfigMismatch, got {other:?}"),
            }
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
    fn from_index_rejects_wrong_bank() {
        let b1 = bank(&[CORE]);
        let b2 = bank(&[&format!("{CORE}EXTRA_LENGTH_PADDING")]);
        let idx = BankIndex::build(&b1, IndexConfig::full(8));
        assert!(PreparedBank::from_index(b2, idx, &oris_index::IndexMeta::default()).is_err());
    }

    #[test]
    fn from_index_rejects_same_length_different_content() {
        // The stale-index trap: the bank is edited after its index was
        // written but keeps its length. The recorded content hash must
        // catch it.
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
        assert!(PreparedBank::from_index(original, idx.clone(), &meta).is_ok());
        let err = PreparedBank::from_index(edited, idx, &meta).unwrap_err();
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
        let err = PreparedBank::from_index(subject, forged, &meta).unwrap_err();
        assert!(err.contains("claims to be fully indexed"), "{err}");
    }

    #[test]
    fn with_subject_rejects_mismatched_config() {
        let subject = bank(&[CORE]);
        let cfg = OrisConfig::small(8);
        // Wrong word length.
        let idx = BankIndex::build(&subject, IndexConfig::full(7));
        let prep =
            PreparedBank::from_index(subject.clone(), idx, &oris_index::IndexMeta::default())
                .unwrap();
        assert!(Session::with_subject(prep, &cfg).is_err());
        // Wrong stride.
        let idx = BankIndex::build(&subject, IndexConfig::asymmetric(8));
        let prep =
            PreparedBank::from_index(subject.clone(), idx, &oris_index::IndexMeta::default())
                .unwrap();
        assert!(Session::with_subject(prep, &cfg).is_err());
        // Wrong filter: the index was prepared under Dust, the session
        // wants None (OrisConfig::small) — accepting it would let the two
        // strands search differently masked sequences.
        let idx = BankIndex::build(&subject, IndexConfig::full(8));
        let meta = oris_index::IndexMeta {
            filter_code: FilterKind::Dust.code(),
            ..Default::default()
        };
        let prep = PreparedBank::from_index(subject.clone(), idx, &meta).unwrap();
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
        assert!(PreparedBank::from_index(subject, idx, &meta).is_err());
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
        let prep = PreparedBank::from_index(subject.clone(), loaded, &meta).unwrap();
        assert_eq!(prep.stats().builds, 0);

        let loaded_session = Session::with_subject(prep, &cfg).unwrap();
        let fresh_session = Session::new(&subject, &cfg).unwrap();
        let a = loaded_session.run(&query);
        let b = fresh_session.run(&query);
        assert_eq!(a.alignments, b.alignments);
        assert!(!a.alignments.is_empty());
        assert_eq!(loaded_session.subject_stats().builds, 0);
    }

    /// A batch searched in joint chunks against one search per member.
    mod joint {
        use super::*;
        use crate::{step2, M8Record, M8Writer, StreamWriter};
        use proptest::prelude::*;

        /// Cores the subject carries and members plant; a poly-A run
        /// gives the masks something to mask.
        const CORES: [&str; 3] = [
            CORE,
            "GGCATTACGGATCCATTGGCCAATTGGCACGTACGTAACGGTTAACC",
            "TTGACCGTAGGCATAACGGATCCATTGACGTTAGCAACGTACGATTG",
        ];

        fn subject() -> Bank {
            bank(&[
                &format!("CCGGAACCTT{}TTGGCCAACGGT{}", CORES[0], "A".repeat(40)),
                &format!("GATTACA{}CC{}", CORES[1], CORES[2]),
                &format!("{}ACGTTGCA", CORES[2].chars().rev().collect::<String>()),
            ])
        }

        /// Members cut from `seqs`: record `r` gets the random stretch
        /// `seqs[r]`, then per `shape[r]` a core, a poly-A run, nothing,
        /// or it becomes an empty or an all-`N` record. Names repeat
        /// across members (`q0`–`q2`), so members share names, not
        /// sequences. `cut[r]` closes a member after record `r`.
        fn members(seqs: &[String], shape: &[u8], cut: &[u8]) -> Vec<Bank> {
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
            out
        }

        /// The configuration `flags` and `threads` pick: both strands,
        /// the asymmetric stride, and one of the three filters.
        fn config(flags: u8, threads: usize) -> OrisConfig {
            OrisConfig {
                both_strands: flags & 1 != 0,
                asymmetric: flags & 2 != 0,
                filter: [FilterKind::None, FilterKind::Entropy, FilterKind::Dust]
                    [usize::from(flags >> 2) % 3],
                threads: Some([1, 2, 8][threads % 3]),
                ..OrisConfig::small(9)
            }
        }

        fn m8(records: &[M8Record]) -> Vec<u8> {
            let mut w = M8Writer::new(Vec::new());
            for r in records {
                w.write_record(r).unwrap();
            }
            w.into_inner()
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Joint chunks of every size, 1 position up to the whole
            /// batch, searched by [`Session::search_chunk`], give each
            /// member the records and step-3/4 counters one search of it
            /// alone gives, and sum to the counters of those searches,
            /// under both strands, the asymmetric stride, each filter and
            /// pools of 1, 2 and 8; and a chunk's step-2 HSPs are its
            /// members' HSPs, shifted.
            #[test]
            fn joint_equals_per_member(
                seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..12),
                shape in proptest::collection::vec(0u8..8, 12),
                cut in proptest::collection::vec(0u8..3, 12),
                flags in 0u8..12,
                threads in 0usize..3,
                bound in 1usize..400,
            ) {
                let members = members(&seqs, &shape, &cut);
                let subject = subject();
                let cfg = config(flags, threads);
                let session = Session::new(&subject, &cfg).unwrap();

                let alone: Vec<OrisResult> = members.iter().map(|m| session.run(m)).collect();
                let mut per_member = Vec::new();
                let mut folded = PipelineStats::default();
                for r in &alone {
                    per_member.extend_from_slice(&r.alignments);
                    folded = folded.merge(&r.stats);
                }
                let mut sink = StreamWriter::new(Vec::new());
                let mut joint = PipelineStats::default();
                let mut alone = alone.iter();
                for chunk in joint_chunks(&members, bound) {
                    let prepared = session.install(|| {
                        QueryChunk::prepare(&chunk, cfg.filter, cfg.query_index_config())
                    });
                    prop_assert_eq!(prepared.members(), chunk.len());
                    let mut shares = vec![MemberResult::default(); chunk.len()];
                    let stats = session.search_chunk(&prepared, &mut shares, &Deadline::none()).unwrap();
                    for share in shares {
                        let own = alone.next().unwrap().stats;
                        prop_assert_eq!(
                            (share.raw_alignments, share.step3, share.step4),
                            (own.raw_alignments, own.step3, own.step4)
                        );
                        sink.accept_all(share.records);
                        sink.end_query().unwrap();
                    }
                    joint = joint.merge(&stats);
                }
                prop_assert!(alone.next().is_none());
                prop_assert!(sink.into_inner() == m8(&per_member), "bytes differ");
                prop_assert_eq!(counters(joint), counters(folded));

                // Step 2 over the whole batch as one chunk.
                let joint = QueryChunk::prepare(&members, cfg.filter, cfg.query_index_config());
                let (jb, ji) = (joint.prepared().bank(), joint.prepared().index());
                let (sb, si) = (session.subject().bank(), session.subject().index());
                let (hsps, s2) = session.install(|| step2::find_hsps(jb, ji, sb, si, &cfg));
                let mut pairs = 0;
                let mut first = 0;
                for m in &members {
                    let prep = PreparedBank::prepare(m, cfg.filter, cfg.query_index_config());
                    let (own, own2) = step2::find_hsps(m, prep.index(), sb, si, &cfg);
                    pairs += own2.pairs_examined;
                    let records = first..first + m.num_sequences();
                    first = records.end;
                    let Some(&r0) = m.records().first().map(|_| &records.start) else {
                        continue;
                    };
                    let shift = (jb.record(r0).start - m.record(0).start) as u32;
                    let mine: Vec<crate::Hsp> = hsps
                        .iter()
                        .filter(|h| jb.locate(h.start1 as usize).is_some_and(|r| records.contains(&r)))
                        .map(|h| crate::Hsp { start1: h.start1 - shift, ..*h })
                        .collect();
                    prop_assert_eq!(mine, own);
                }
                prop_assert_eq!(s2.pairs_examined, pairs);
            }

            /// Two searches into one answer buffer — two subjects standing
            /// in for two volumes of a database — leave each member the
            /// concatenation of the two searches into fresh buffers:
            /// records in call order, counters summed.
            #[test]
            fn joint_searches_append_to_one_answer_per_member(
                seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..12),
                shape in proptest::collection::vec(0u8..8, 12),
                cut in proptest::collection::vec(0u8..3, 12),
                flags in 0u8..12,
                threads in 0usize..3,
            ) {
                let members = members(&seqs, &shape, &cut);
                let cfg = config(flags, threads);
                let subjects = [
                    subject(),
                    bank(&[&format!("TTGACC{}GGATCC{}", CORES[1], CORES[0])]),
                ];
                let sessions: Vec<Session> =
                    subjects.iter().map(|s| Session::new(s, &cfg).unwrap()).collect();
                let chunk = QueryChunk::prepare(&members, cfg.filter, cfg.query_index_config());
                let fresh: Vec<Vec<MemberResult>> = sessions
                    .iter()
                    .map(|session| {
                        let mut out = vec![MemberResult::default(); members.len()];
                        session.search_chunk(&chunk, &mut out, &Deadline::none()).unwrap();
                        out
                    })
                    .collect();
                let mut both = vec![MemberResult::default(); members.len()];
                for session in &sessions {
                    session.search_chunk(&chunk, &mut both, &Deadline::none()).unwrap();
                }
                for (m, got) in both.iter().enumerate() {
                    let (a, b) = (&fresh[0][m], &fresh[1][m]);
                    let want = MemberResult {
                        records: [a.records.clone(), b.records.clone()].concat(),
                        raw_alignments: a.raw_alignments + b.raw_alignments,
                        step3: a.step3.merge(b.step3),
                        step4: a.step4.merge(b.step4),
                    };
                    prop_assert!(got == &want, "member {}: {:?} != {:?}", m, got, want);
                }
            }
        }
    }
}
