//! The full 4-step ORIS pipeline (paper Figure 1), expressed over
//! prepared banks: step 1 lives in [`crate::engine`] (build-once), this
//! module runs steps 2–4 against the prepared artifacts, one subject
//! strand per call (the session sums the strands' reports; their records
//! merge in the sink's boundary sort). [`compare_banks`] is the
//! single-shot call that glues the two together.
//!
//! Steps 2–4 stream per group: the per-strand runner
//! (`run_prepared_pipeline_into`) turns each `(query, subject)` record-pair
//! group into records as soon as step 3 finishes it, and files them under
//! the *member* — the query bank of a joint chunk — that owns the group's
//! query record (`Members`), with step 4 pricing each against that
//! member's own residues. A lone query bank is a chunk of one member.

use oris_obs::{Field, Obs, Stopwatch};
use oris_seqio::Bank;

use crate::config::OrisConfig;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{PreparedBank, Session};
use crate::hsp::Hsp;
use crate::m8::M8Record;
use crate::step2::{self, Step2Stats};
use crate::step3::{self, Step3Stats};
use crate::step4::{self, Step4Stats};

/// Timing and counter report for one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Seconds spent in step 1 (masking + indexing) *for this result*.
    /// A session run counts only its query's build here; the subject's
    /// one-time cost is reported by `Session::subject_stats` (and folded
    /// back in by the single-shot [`compare_banks`] wrapper).
    pub index_secs: f64,
    /// Number of mask+index builds attributed to this result. A
    /// `both_strands` [`compare_banks`] performs 3 (query once, subject
    /// twice — one per strand); a session run performs 1 (its query);
    /// `Session::search` performs 0.
    pub index_builds: u32,
    /// Seconds spent in step 2 (hit extension).
    pub step2_secs: f64,
    /// Seconds spent in step 3 (gapped extension).
    pub step3_secs: f64,
    /// Seconds spent in step 4 (records).
    pub step4_secs: f64,
    /// HSPs surviving step 2.
    pub hsps: usize,
    /// Gapped alignments out of step 3 (pre e-value filter).
    pub raw_alignments: usize,
    /// Step-2 counters.
    pub step2: Step2Stats,
    /// Step-3 counters.
    pub step3: Step3Stats,
    /// Step-4 counters.
    pub step4: Step4Stats,
    /// Fraction of bank-1 positions masked by the filter.
    pub masked_fraction1: f64,
    /// Fraction of bank-2 positions masked by the filter.
    pub masked_fraction2: f64,
    /// Index footprint (both banks), heap bytes: per dense index
    /// `4·N + 2·distinct + distinct/16 + N/8 + 3·4^W/16` for N postings
    /// (the paper's ≈5·N counts `SEQ` and postings only; see
    /// `oris_index::structure`).
    pub index_bytes: usize,
}

impl PipelineStats {
    /// Total wall-clock seconds.
    pub fn total_secs(&self) -> f64 {
        self.index_secs + self.step2_secs + self.step3_secs + self.step4_secs
    }

    /// Merges another run's report into this one: seconds and counters
    /// sum; the footprint fields (masked fractions, index bytes) describe
    /// concurrent-resident state, so the merge takes the worse (max) of
    /// the two runs. Used by the strand merge (plus + minus runs of one
    /// query) and by batch totals (per-query reports of one subject).
    pub fn merge(mut self, s: &PipelineStats) -> PipelineStats {
        self.index_secs += s.index_secs;
        self.index_builds += s.index_builds;
        self.step2_secs += s.step2_secs;
        self.step3_secs += s.step3_secs;
        self.step4_secs += s.step4_secs;
        self.hsps += s.hsps;
        self.raw_alignments += s.raw_alignments;
        self.step2 = self.step2.merge(s.step2);
        self.step3 = self.step3.merge(s.step3);
        self.step4 = self.step4.merge(s.step4);
        self.masked_fraction1 = self.masked_fraction1.max(s.masked_fraction1);
        self.masked_fraction2 = self.masked_fraction2.max(s.masked_fraction2);
        self.index_bytes = self.index_bytes.max(s.index_bytes);
        self
    }
}

/// Result of comparing two banks.
#[derive(Debug, Clone, PartialEq)]
pub struct OrisResult {
    /// Final `-m 8` records, sorted by e-value.
    pub alignments: Vec<M8Record>,
    /// Timing/counter report.
    pub stats: PipelineStats,
}

/// Which subject strand a pipeline run searches. `Minus` means `bank2`
/// is the reverse complement of the original subject bank and step 4 maps
/// subject coordinates back to the original records (`sstart > send`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubjectStrand {
    Plus,
    Minus,
}

/// The query banks ("members") a joint query bank was concatenated from,
/// in order: member `m` owns the bank's records
/// `first_record[m] .. first_record[m + 1]`, and its e-values are priced
/// against its own residues, so a member's records come out exactly as a
/// search of that bank alone would produce them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Members {
    /// One entry per member plus the record count.
    first_record: Vec<usize>,
    /// Each member's residues: its step-4 query search space.
    residues: Vec<usize>,
}

impl Members {
    /// A bank of `records` records searched as one member whose e-values
    /// are priced against `residues` query residues.
    pub(crate) fn one(records: usize, residues: usize) -> Members {
        Members {
            first_record: vec![0, records],
            residues: vec![residues],
        }
    }

    /// The members of a bank concatenated from `banks`, in order.
    pub(crate) fn of<B: std::borrow::Borrow<Bank>>(banks: &[B]) -> Members {
        let mut first_record = vec![0];
        let mut residues = Vec::with_capacity(banks.len());
        for bank in banks {
            let bank = bank.borrow();
            first_record.push(first_record[first_record.len() - 1] + bank.num_sequences());
            residues.push(bank.num_residues());
        }
        Members {
            first_record,
            residues,
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.residues.len()
    }

    /// The member owning query record `record`. An empty member owns no
    /// record, so the last member starting at or before it is the owner.
    fn of_record(&self, record: usize) -> usize {
        self.first_record.partition_point(|&f| f <= record) - 1
    }
}

/// One member's share of a joint search against one subject: its records
/// (arrival order — the boundary sort at `end_query` orders them) and its
/// own step-3/4 counters. Step 3 groups by query record, so those counters
/// belong to exactly one member; step 2's do not and are reported once,
/// for the whole chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberResult {
    /// The member's records, unsorted.
    pub records: Vec<M8Record>,
    /// Gapped alignments out of step 3 for the member (pre e-value filter).
    pub raw_alignments: usize,
    /// The member's step-3 counters.
    pub step3: Step3Stats,
    /// The member's step-4 counters.
    pub step4: Step4Stats,
}

impl MemberResult {
    /// The member's counters as a pipeline report: steps 3–4 only, no
    /// step-2 work, no seconds.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            raw_alignments: self.raw_alignments,
            step3: self.step3,
            step4: self.step4,
            ..PipelineStats::default()
        }
    }
}

/// Report of one fused steps-3+4 streaming stage ([`gapped_stage_into`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GappedStageReport {
    /// Step-3 counters.
    pub step3: Step3Stats,
    /// Step-4 counters.
    pub step4: Step4Stats,
    /// Gapped alignments produced (pre e-value filter).
    pub raw_alignments: usize,
    /// Seconds in step 3 (gapped extension), step 4's share subtracted.
    pub step3_secs: f64,
    /// Seconds in step 4 (record conversion), metered inside the fusion.
    pub step4_secs: f64,
}

/// Fused steps 3+4 over step-2 HSPs: each record-pair group's alignments
/// go straight through step 4 the moment step 3 finishes the group, and
/// are freed — the whole-run alignment vector of the collect-then-merge
/// pipeline never exists. Step 4 runs inside step 3's
/// emission, so its seconds are metered separately and subtracted from
/// the fused region's wall clock.
///
/// The BLAST baseline's gapped stage: one member over the ORIS runner's
/// routed stage (the engines differ in hit *detection* only — keeping the
/// result path literally the same code is what keeps the baseline
/// comparable). Records reach `push` once the stage is done.
/// `query_residues` is the e-value
/// search-space size on the query side (the full bank for a batched
/// baseline run); with `flip_subject`, subject coordinates are mapped back
/// to the original records' plus-strand numbering *here*, where each
/// alignment still resolves to a record index — a name-keyed mapping after
/// the fact would corrupt coordinates whenever bank 2 carries duplicate
/// record names.
pub fn gapped_stage_into(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    query_residues: usize,
    flip_subject: bool,
    push: &mut dyn FnMut(M8Record),
) -> GappedStageReport {
    let members = Members::one(bank1.num_sequences(), query_residues);
    let mut out = [MemberResult::default()];
    let report = gapped_stage_routed(
        bank1,
        &members,
        bank2,
        hsps,
        cfg,
        flip_subject,
        &mut out,
        &Deadline::none(),
    )
    .expect("a disarmed deadline cannot expire");
    let [out] = out;
    out.records.into_iter().for_each(push);
    report
}

/// [`gapped_stage_into`] over a joint query bank: each group's records
/// and counters are added to the member owning its query record, `out[m]`,
/// with e-values priced against that member's residues. `deadline` is
/// read before each step-3 wave; on expiry `out` holds the waves before
/// it, and the caller drops it.
fn gapped_stage_routed(
    bank1: &Bank,
    members: &Members,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    flip_subject: bool,
    out: &mut [MemberResult],
    deadline: &Deadline,
) -> Result<GappedStageReport, DeadlineExceeded> {
    let t0 = Stopwatch::start();
    let mut report = GappedStageReport::default();
    let mut emit = |alns: Vec<step3::GappedAlignment>, s3: Step3Stats| {
        let t4 = Stopwatch::start();
        // Every group holds at least one alignment (its first HSP is
        // never contained), and all of them share one query record.
        let record = bank1
            .locate(alns[0].start1)
            .expect("alignment start must lie inside a query sequence");
        let m = members.of_record(record);
        let member = &mut out[m];
        let mut s4 = Step4Stats::default();
        step4::emit_records(
            bank1,
            bank2,
            &alns,
            cfg,
            members.residues[m],
            flip_subject,
            &mut s4,
            &mut |rec| member.records.push(rec),
        );
        member.raw_alignments += alns.len();
        member.step3 = member.step3.merge(s3);
        member.step4 = member.step4.merge(s4);
        report.raw_alignments += alns.len();
        report.step4 = report.step4.merge(s4);
        report.step4_secs += t4.elapsed_secs();
    };
    report.step3 = step3::gapped_groups_into(bank1, bank2, hsps, cfg, deadline, &mut emit)?;
    report.step3_secs = (t0.elapsed_secs() - report.step4_secs).max(0.0);
    Ok(report)
}

/// Steps 2–4 of one joint query bank against one prepared subject strand:
/// step 2 once over the whole bank, then each step-3 group's records and
/// counters filed under the member that owns its query record
/// (`out[m]`, added to what it holds). Step 1 does not run here: the
/// report's step-1 fields describe the prepared artifacts (masked
/// fractions, resident index bytes) with zero build time and zero builds.
/// The report's step-3/4 counters are the members' summed.
///
/// `deadline` is the cooperative cancellation token. It is read at
/// step-2 partition boundaries and before every batch of pairs inside a
/// hot partition ([`step2::find_hsps_guarded`]), then before each step-3
/// wave. It is not read inside a wave, nor in step 4, which runs inside
/// step 3's group callback: a wave and its groups' records always finish.
/// An expiry returns [`DeadlineExceeded`], and the records already filed
/// in `out` are the caller's to drop. Disarmed ([`Deadline::none`]) each
/// read is one dead branch and the run is infallible.
///
/// `obs` emits `step2`/`step3` spans and a `step4` point event (steps
/// 3+4 are fused — step 4 runs inside step 3's group callback, so its
/// time is a derived quantity, not a span of its own). Disarmed, each
/// emission is one branch.
pub(crate) fn run_prepared_pipeline_into(
    query: &PreparedBank<'_>,
    members: &Members,
    subject: &PreparedBank<'_>,
    cfg: &OrisConfig,
    strand: SubjectStrand,
    out: &mut [MemberResult],
    deadline: &Deadline,
    obs: &Obs,
) -> Result<PipelineStats, DeadlineExceeded> {
    let mut stats = PipelineStats::default();
    let (bank1, idx1) = (query.bank(), query.index());
    let (bank2, idx2) = (subject.bank(), subject.index());
    stats.masked_fraction1 = query.stats().masked_fraction;
    stats.masked_fraction2 = subject.stats().masked_fraction;
    stats.index_bytes = idx1.heap_bytes() + idx2.heap_bytes();

    // ---- Step 2: ordered hit extension ----------------------------------
    let t0 = Stopwatch::start();
    let step2_span = obs.span("step2");
    let (hsps, s2) = step2::find_hsps_guarded(
        bank1,
        idx1,
        bank2,
        idx2,
        cfg,
        step2::select_guard(idx1, idx2),
        deadline,
    )?;
    drop(step2_span);
    stats.hsps = hsps.len();
    stats.step2 = s2;
    stats.step2_secs = t0.elapsed_secs();

    // ---- Steps 3+4, fused per group --------------------------------------
    let step3_span = obs.span("step3");
    let r = gapped_stage_routed(
        bank1,
        members,
        bank2,
        &hsps,
        cfg,
        matches!(strand, SubjectStrand::Minus),
        out,
        deadline,
    )?;
    drop(step3_span);
    obs.point(
        "step4",
        &[
            Field::F64("secs", r.step4_secs),
            Field::U64("records", r.step4.emitted),
        ],
    );
    stats.raw_alignments = r.raw_alignments;
    stats.step3 = r.step3;
    stats.step4 = r.step4;
    stats.step3_secs = r.step3_secs;
    stats.step4_secs = r.step4_secs;
    Ok(stats)
}

/// Compares two banks with the ORIS algorithm.
///
/// This is the library's single-shot entry point — the equivalent of
/// running the SCORIS-N prototype on two FASTA banks: one throwaway
/// [`Session`] over bank 2 (both strands when `cfg.both_strands`), one
/// [`Session::run`] of bank 1, and the subject's preparation cost folded
/// into the returned stats so the report covers the whole call. For
/// *many* queries against one subject, hold a [`Session`] instead and pay
/// the subject build once.
///
/// `cfg.threads` selects the worker count (a dedicated rayon pool);
/// `None` uses the global pool. With `cfg.both_strands` the complementary
/// strand of bank 2 is searched too (minus-strand records carry
/// `sstart > send`, BLAST style).
///
/// # Panics
/// Panics if the configuration fails [`OrisConfig::validate`].
pub fn compare_banks(bank1: &Bank, bank2: &Bank, cfg: &OrisConfig) -> OrisResult {
    let session = Session::new(bank2, cfg).unwrap_or_else(|e| panic!("cannot compare banks: {e}"));
    let mut result = session.run(bank1);
    let subject = session.subject_stats();
    result.stats.index_secs += subject.build_secs;
    result.stats.index_builds += subject.builds;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterKind;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    #[test]
    fn end_to_end_finds_planted_homology() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
        let b1 = bank(&[&format!("TTACCGGTTAACC{core}GGTTACGCAT")]);
        let b2 = bank(&[&format!("CCGGAACCTT{core}TTGGCCAACGGT")]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(8));
        assert_eq!(r.alignments.len(), 1, "{:?}", r.alignments);
        let a = &r.alignments[0];
        assert!(a.length >= core.len());
        assert!(a.pident > 90.0);
    }

    #[test]
    fn no_homology_no_output() {
        let b1 = bank(&["ATATATATGCGCGCGCATATATATGCGCGCGC"]);
        let b2 = bank(&["GGTTCCAAGGTTCCAAGGTTCCAAGGTTCCAA"]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(8));
        assert!(r.alignments.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[core]);
        let b2 = bank(&[core]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(6));
        assert!(r.stats.hsps > 0);
        assert!(r.stats.raw_alignments > 0);
        assert!(r.stats.index_bytes > 0);
        assert!(r.stats.total_secs() > 0.0);
        assert_eq!(r.stats.step4.emitted as usize, r.alignments.len());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let core1 = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let core2 = "GGCCATTAGGCCATTAACGGTTAACCGGATCCAT";
        let b1 = bank(&[core1, core2, &format!("{core1}TT{core2}")]);
        let b2 = bank(&[core2, core1]);
        let mut cfg = OrisConfig::small(7);
        cfg.threads = Some(1);
        let r1 = compare_banks(&b1, &b2, &cfg);
        cfg.threads = Some(4);
        let r4 = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r1.alignments, r4.alignments);
    }

    #[test]
    fn filter_suppresses_low_complexity_matches() {
        // Two banks sharing only a poly-A run: with the entropy filter the
        // match disappears; without it, it is reported.
        let polya = "A".repeat(120);
        let b1 = bank(&[&format!("ATGGCGTACGTTAGCC{polya}")]);
        let b2 = bank(&[&format!("GGCCATTAGGCCTTAA{polya}")]);
        let mut cfg = OrisConfig::small(8);
        cfg.filter = FilterKind::None;
        let unfiltered = compare_banks(&b1, &b2, &cfg);
        assert!(!unfiltered.alignments.is_empty());
        cfg.filter = FilterKind::Entropy;
        let filtered = compare_banks(&b1, &b2, &cfg);
        assert!(filtered.alignments.len() < unfiltered.alignments.len());
        assert!(filtered.stats.masked_fraction1 > 0.0);
    }

    #[test]
    fn asymmetric_mode_still_finds_homology() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
        let b1 = bank(&[&format!("TTACCGGTTAACC{core}GGTTACGCAT")]);
        let b2 = bank(&[&format!("CCGGAACCTT{core}TTGGCCAACGGT")]);
        let mut cfg = OrisConfig::small(8);
        cfg.asymmetric = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert!(!r.alignments.is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let b = bank(&["ACGT"]);
        let mut cfg = OrisConfig::small(6);
        cfg.xdrop_ungapped = -1;
        let _ = compare_banks(&b, &b, &cfg);
    }

    #[test]
    fn empty_banks_are_handled() {
        let empty = Bank::empty();
        let b = bank(&["ACGTACGTACGTACGT"]);
        let r = compare_banks(&empty, &b, &OrisConfig::small(6));
        assert!(r.alignments.is_empty());
        let r = compare_banks(&b, &empty, &OrisConfig::small(6));
        assert!(r.alignments.is_empty());
    }
}

#[cfg(test)]
mod strand_tests {
    use super::*;
    use crate::config::FilterKind;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn revcomp(s: &str) -> String {
        s.chars()
            .rev()
            .map(|c| match c {
                'A' => 'T',
                'T' => 'A',
                'C' => 'G',
                'G' => 'C',
                other => other,
            })
            .collect()
    }

    #[test]
    fn minus_strand_homology_needs_both_strands() {
        // A/C-only core: its reverse complement is G/T-only, so no plus-
        // strand seed can exist between the banks (and no accidental
        // reverse-complement palindrome inside the core, unlike mixed
        // sequence).
        let core = "ACCACAACCCACAACACCAACCCAACACACCACAACCAAC";
        let b1 = bank(&[&format!("TTACC{core}GGTTA")]);
        // subject carries only the reverse complement of the core
        let b2 = bank(&[&format!("CCGGA{}TTGGC", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        assert!(single.alignments.is_empty(), "{:?}", single.alignments);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        assert_eq!(both.alignments.len(), 1, "{:?}", both.alignments);
        let a = &both.alignments[0];
        assert!(a.sstart > a.send, "minus strand must report sstart > send");
        assert!(a.length >= core.len());
    }

    #[test]
    fn minus_strand_coordinates_map_back() {
        // The reported subject range, read on the minus strand, must
        // reverse-complement to the query range.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("GGTTCCAA{}AACCGGTT", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r.alignments.len(), 1);
        let a = &r.alignments[0];
        // subject slice on the plus strand is [send, sstart] (1-based)
        let subj = b2.sequence_string(0);
        let plus_slice = &subj[a.send - 1..a.sstart];
        let q = b1.sequence_string(0);
        let q_slice = &q[a.qstart - 1..a.qend];
        assert_eq!(revcomp(plus_slice), q_slice);
    }

    #[test]
    fn plus_strand_hits_unchanged_by_both_strands() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA")]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        // the plus-strand alignment is present in both runs
        assert!(!single.alignments.is_empty());
        for a in &single.alignments {
            assert!(
                both.alignments.iter().any(|b| b == a),
                "plus-strand record lost: {a}"
            );
        }
    }

    #[test]
    fn merged_stats_account_for_both_strand_runs() {
        // Homology on both strands: the merged report must include the
        // minus-strand run's step counters (they were silently dropped
        // before), and the footprint fields must survive the merge.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA{}GG", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);

        let single = compare_banks(&b1, &b2, &cfg);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);

        // The minus-strand run sees the reverse-complemented core too, so
        // every step-2/3/4 counter at least doubles relative to one run.
        assert!(both.stats.step2.pairs_examined >= 2 * single.stats.step2.pairs_examined);
        assert!(both.stats.step2.kept >= 2 * single.stats.step2.kept);
        assert!(both.stats.step3.extended >= 2 * single.stats.step3.extended);
        assert!(both.stats.step4.emitted >= 2 * single.stats.step4.emitted);
        assert_eq!(
            both.stats.step4.emitted as usize,
            both.alignments.len(),
            "emitted must match the merged record count"
        );
        // Counter-accounting invariant holds after the merge.
        assert_eq!(
            both.stats.step2.pairs_examined,
            both.stats.step2.aborted + both.stats.step2.below_threshold + both.stats.step2.kept
        );
        // Footprint fields: max across runs, not zero and not doubled.
        assert_eq!(both.stats.index_bytes, single.stats.index_bytes);
        assert!(both.stats.index_bytes > 0);
    }

    #[test]
    fn merged_stats_keep_masked_fractions() {
        // A poly-A run is low-complexity on both strands (poly-T on the
        // reverse complement); the merged masked fractions must be > 0,
        // not the minus-run-dropped 0.0 of the old merge.
        let polya = "A".repeat(120);
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[&format!("{core}{polya}")]);
        let b2 = bank(&[&format!("{polya}{core}")]);
        let mut cfg = OrisConfig::small(8);
        cfg.filter = FilterKind::Entropy;
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert!(r.stats.masked_fraction1 > 0.0);
        assert!(r.stats.masked_fraction2 > 0.0);
    }

    #[test]
    fn duplicate_subject_names_flip_with_the_right_length() {
        // Two subject records share the name "dup" but have different
        // lengths; the minus-strand homology sits in the FIRST one. The
        // old name-keyed length map silently took the last length,
        // corrupting the flipped coordinates. Resolving by record index
        // must produce coordinates that reverse-complement back to the
        // query.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let mut bb = BankBuilder::new();
        bb.push_str("dup", &format!("GGTTCCAA{}AACCGGTT", revcomp(core)))
            .unwrap();
        // Same name, much longer record, no homology.
        bb.push_str("dup", &"GATTACAA".repeat(40)).unwrap();
        let b2 = bb.finish();
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r.alignments.len(), 1, "{:?}", r.alignments);
        let a = &r.alignments[0];
        assert!(a.sstart > a.send, "minus strand flips to sstart > send");
        // The subject slice read on the plus strand of record 0 must
        // reverse-complement to the query slice — only true if the flip
        // used record 0's length, not its namesake's.
        let subj = b2.sequence_string(0);
        let plus_slice = &subj[a.send - 1..a.sstart];
        let q = b1.sequence_string(0);
        let q_slice = &q[a.qstart - 1..a.qend];
        assert_eq!(revcomp(plus_slice), q_slice);
    }

    #[test]
    fn both_strands_builds_query_index_exactly_once() {
        // The prepared-bank engine's accounting: a single-strand compare
        // builds two indexes (query + subject); a both-strands compare
        // builds three (query ONCE, subject once per strand) — not the
        // four the per-strand pipeline used to pay.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA{}GG", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        assert_eq!(single.stats.index_builds, 2);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        assert_eq!(both.stats.index_builds, 3);
    }

    #[test]
    fn merge_survives_nan_evalues() {
        // The strands of one query merge in the sink's boundary sort. A
        // partial_cmp().unwrap() there panicked when an e-value was NaN
        // (e.g. degenerate Karlin–Altschul parameters); total_cmp must
        // sort deterministically instead.
        use crate::sink::{CollectSink, RecordSink};
        use crate::M8Record;
        let rec = |sid: &str, evalue: f64| M8Record {
            qid: "q".into(),
            sid: sid.into(),
            pident: 100.0,
            length: 10,
            mismatch: 0,
            gapopen: 0,
            qstart: 1,
            qend: 10,
            sstart: 1,
            send: 10,
            evalue,
            bitscore: 20.0,
        };
        let mut sink = CollectSink::new();
        // "Plus strand" arrivals, then "minus strand" arrivals.
        for r in [rec("a", f64::NAN), rec("b", 1e-5)] {
            sink.accept(r);
        }
        for r in [rec("c", 1e-9), rec("d", f64::NAN)] {
            sink.accept(r);
        }
        sink.end_query().unwrap();
        let merged = sink.into_records();
        assert_eq!(merged.len(), 4);
        // Finite e-values sort ahead of NaN (total_cmp places NaN last),
        // and the boundary above not panicking is the regression pinned.
        assert_eq!(merged[0].sid, "c");
        assert_eq!(merged[1].sid, "b");
        assert!(merged[2].evalue.is_nan());
        assert!(merged[3].evalue.is_nan());
    }

    #[test]
    fn palindromic_subject_reports_both_strands() {
        // A reverse-complement palindrome aligns on both strands.
        let half = "ATGGCGTACGTTAGCC";
        let palindrome = format!("{half}{}", {
            let rc: String = half
                .chars()
                .rev()
                .map(|c| match c {
                    'A' => 'T',
                    'T' => 'A',
                    'C' => 'G',
                    'G' => 'C',
                    o => o,
                })
                .collect();
            rc
        });
        let b1 = bank(&[&palindrome]);
        let b2 = bank(&[&palindrome]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        let plus = r.alignments.iter().filter(|a| a.sstart <= a.send).count();
        let minus = r.alignments.iter().filter(|a| a.sstart > a.send).count();
        assert!(plus >= 1, "{:?}", r.alignments);
        assert!(minus >= 1, "{:?}", r.alignments);
    }
}
