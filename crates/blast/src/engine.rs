//! The BLASTN-style pipeline: filter → lookup → scan → gapped stage, one
//! query batch at a time.
//!
//! Like `blastall` 2.2.17, the baseline builds its lookup table over a
//! batch of about 20 kbp of query residues and rescans the whole
//! subject bank for each batch; a smaller query bank is one batch. The
//! gapped stage and record output are shared with the ORIS engine: every
//! batch runs the ORIS engine's fused steps-3+4 runner, and
//! [`compare_banks`] sorts the whole run's records once at the end.

use oris_core::engine::mask_for;
use oris_core::pipeline::gapped_stage_into;
use oris_core::{M8Record, OrisConfig, PreparedBank};
use oris_index::{IndexConfig, MaskSet};
use oris_seqio::Bank;

use crate::config::{baseline, BATCH_NT};
use crate::scan::{scan_bank, ScanStats};

/// Counter report for one baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlastStats {
    /// HSPs surviving the scan.
    pub hsps: usize,
    /// Scan counters.
    pub scan: ScanStats,
    /// Alignments before the e-value filter.
    pub raw_alignments: usize,
}

/// Result of one baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastResult {
    /// Final `-m 8` records, sorted by e-value.
    pub alignments: Vec<M8Record>,
    /// Counter report.
    pub stats: BlastStats,
}

/// The query-side lookup table: the batch's index at full stride, words
/// overlapping a masked region discarded (BLAST lookup-table semantics)
/// — the ORIS engine's step 1, literally.
fn lookup_table<'b>(batch: &'b Bank, cfg: &OrisConfig) -> PreparedBank<'b> {
    PreparedBank::prepare(batch, cfg.filter, IndexConfig::full(cfg.w))
}

/// The subject-side mask the scan consults: every word start whose word
/// overlaps a masked region.
fn subject_mask(bank2: &Bank, cfg: &OrisConfig) -> Option<MaskSet> {
    mask_for(cfg.filter, bank2).map(|m| m.dilated_left(cfg.w))
}

/// Splits bank-1 records into batches of roughly `budget` residues
/// (always at least one record per batch), rebuilding each batch as a
/// stand-alone bank with the original sequence names.
fn query_batches(bank1: &Bank, budget: usize) -> Vec<Bank> {
    let mut out = Vec::new();
    let mut builder: Option<oris_seqio::BankBuilder> = None;
    let mut acc = 0usize;
    for i in 0..bank1.num_sequences() {
        let rec = bank1.record(i);
        if builder.is_some() && acc > 0 && acc + rec.len > budget {
            out.push(builder.take().unwrap().finish());
            acc = 0;
        }
        let b = builder.get_or_insert_with(oris_seqio::BankBuilder::new);
        b.push_codes(&rec.name, bank1.sequence(i));
        acc += rec.len;
    }
    if let Some(b) = builder {
        out.push(b.finish());
    }
    out
}

/// The batch loop: a lookup table per query batch, a full rescan of bank 2
/// per batch (its mask computed once), and the shared gapped stage priced
/// on the whole query bank. Returns the records unsorted.
fn run_batched(
    bank1: &Bank,
    bank2: &Bank,
    cfg: &OrisConfig,
    budget: usize,
) -> (Vec<M8Record>, BlastStats) {
    let mut records = Vec::new();
    let mut stats = BlastStats::default();
    let mask2 = subject_mask(bank2, cfg);
    for batch in query_batches(bank1, budget) {
        let lookup = lookup_table(&batch, cfg);
        let (hsps, scan_stats) = scan_bank(&batch, lookup.index(), bank2, cfg, mask2.as_ref());
        stats.hsps += hsps.len();
        stats.scan = stats.scan.merge(scan_stats);
        let out = gapped_stage_into(&batch, bank2, &hsps, cfg, bank1.num_residues());
        stats.raw_alignments += out.raw_alignments;
        records.extend(out.records);
    }
    (records, stats)
}

/// Compares two banks with the BLASTN-style baseline under the ORIS
/// configuration `cfg`, with DUST wherever `cfg` masks and a full-stride,
/// plus-strand lookup whatever it asks. The records are sorted once for
/// the whole run: the baseline's unit of work is the full query bank.
///
/// # Panics
/// Panics if the configuration fails [`OrisConfig::validate`].
pub fn compare_banks(bank1: &Bank, bank2: &Bank, cfg: &OrisConfig) -> BlastResult {
    compare_banks_batched(bank1, bank2, cfg, BATCH_NT)
}

/// [`compare_banks`] with the batch size as a parameter, so tests can cut
/// a toy bank into batches of every size.
fn compare_banks_batched(
    bank1: &Bank,
    bank2: &Bank,
    cfg: &OrisConfig,
    budget: usize,
) -> BlastResult {
    let cfg = baseline(cfg);
    if let Err(e) = cfg.validate() {
        panic!("invalid BLAST configuration: {e}");
    }
    let run = || run_batched(bank1, bank2, &cfg, budget);
    let (mut alignments, stats) = match cfg.threads {
        None => run(),
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("failed to build thread pool")
            .install(run),
    };
    M8Record::sort_all(&mut alignments);
    BlastResult { alignments, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(r.alignments[0].pident > 90.0);
    }

    #[test]
    fn agrees_with_oris_engine_on_clean_input() {
        // The cross-engine check underlying the paper's section 3.4: on
        // inputs without filter-sensitive content, the two engines report
        // the same alignments.
        let cores = [
            "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT",
            "GGCCATTAGGCCATTAACGGTTAACCGGATCCAT",
            "TTGGCACGTGTCAAGGTCGATCGGATTACGGCAT",
        ];
        let b1 = bank(&[
            &format!("TTAACC{}GGTTAA", cores[0]),
            &format!("{}{}", cores[1], cores[2]),
        ]);
        let b2 = bank(&[
            &format!("CCGG{}AATT", cores[1]),
            cores[0],
            &format!("AA{}TT", cores[2]),
        ]);
        let cfg = OrisConfig::small(8);
        let r_oris = oris_core::compare_banks(&b1, &b2, &cfg);
        let r_blast = compare_banks(&b1, &b2, &cfg);
        let rep = oris_eval::compare_outputs(&r_oris.alignments, &r_blast.alignments, 0.8);
        assert_eq!(rep.a_miss, 0, "{rep:?}");
        assert_eq!(rep.b_miss, 0, "{rep:?}");
        assert!(rep.a_total > 0);
    }

    #[test]
    fn stats_populated() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b = bank(&[s]);
        let r = compare_banks(&b, &b, &OrisConfig::small(6));
        assert!(r.stats.hsps > 0);
        assert!(r.stats.scan.probes > 0);
        assert!(r.stats.scan.kept > 0);
        assert!(r.stats.raw_alignments > 0);
    }

    #[test]
    fn dust_filter_suppresses_repeats() {
        let repeat = "CA".repeat(60);
        let b1 = bank(&[&format!("ATGGCGTACGTTAGCC{repeat}")]);
        let b2 = bank(&[&format!("GGCCATTAGGCCTTAA{repeat}")]);
        let mut cfg = OrisConfig::small(8);
        let unfiltered = compare_banks(&b1, &b2, &cfg);
        assert!(!unfiltered.alignments.is_empty());
        cfg.filter = oris_core::FilterKind::Dust;
        let filtered = compare_banks(&b1, &b2, &cfg);
        assert!(filtered.alignments.len() < unfiltered.alignments.len());
    }

    #[test]
    fn oris_only_options_leave_records_unchanged() {
        // A plus-strand core and a reverse-complemented one: a stride-2
        // or two-strand lookup would change what the baseline reports.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let rc = "ATCGATCCGTTAAGCCTAGGCTAACGTACGCCAT";
        let b1 = bank(&[&format!("TTACCGG{core}GGTTACG")]);
        let b2 = bank(&[&format!("CCGGAA{core}TTGG"), &format!("GGTT{rc}AACC")]);
        let plain = OrisConfig::small(8);
        let r = compare_banks(&b1, &b2, &plain);
        assert!(!r.alignments.is_empty());
        for cfg in [
            OrisConfig {
                asymmetric: true,
                ..plain
            },
            OrisConfig {
                both_strands: true,
                ..plain
            },
        ] {
            assert_eq!(compare_banks(&b1, &b2, &cfg), r, "{cfg:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let seqs: Vec<String> = (0..8)
            .map(|i| format!("{}{core}", "GT".repeat(i)))
            .collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let b1 = bank(&[core]);
        let b2 = bank(&refs);
        let mut cfg = OrisConfig::small(8);
        cfg.threads = Some(1);
        let r1 = compare_banks(&b1, &b2, &cfg);
        cfg.threads = Some(4);
        let r4 = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r1.alignments, r4.alignments);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    #[test]
    fn batching_changes_timing_not_records() {
        let cores = [
            "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT",
            "GGCCATTAGGCCATTAACGGTTAACCGGATCCAT",
            "TTGGCACGTGTCAAGGTCGATCGGATTACGGCAT",
            "CAGTACGGATTCAGGCATTACGATCAGGTTACGG",
        ];
        let seqs1: Vec<String> = cores.iter().map(|c| format!("TT{c}GG")).collect();
        let refs1: Vec<&str> = seqs1.iter().map(|s| s.as_str()).collect();
        let b1 = bank(&refs1);
        let seqs2: Vec<String> = cores.iter().rev().map(|c| format!("AA{c}CC")).collect();
        let refs2: Vec<&str> = seqs2.iter().map(|s| s.as_str()).collect();
        let b2 = bank(&refs2);

        let cfg = OrisConfig::small(8);
        let one_batch = compare_banks_batched(&b1, &b2, &cfg, usize::MAX);
        assert_eq!(query_batches(&b1, 1).len(), cores.len());
        let per_record = compare_banks_batched(&b1, &b2, &cfg, 1);
        assert_eq!(one_batch.alignments, per_record.alignments);
        assert!(per_record.alignments.len() >= cores.len());
        // Every batch rescans bank 2.
        assert_eq!(
            per_record.stats.scan.probes,
            cores.len() as u64 * one_batch.stats.scan.probes
        );
    }

    #[test]
    fn query_batches_partition_all_records() {
        let seqs: Vec<String> = (0..10).map(|i| "ACGT".repeat(5 + i)).collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let b = bank(&refs);
        let batches = query_batches(&b, 60);
        let total: usize = batches.iter().map(|x| x.num_sequences()).sum();
        assert_eq!(total, 10);
        assert!(batches.len() > 1);
        // every batch except possibly the last respects the budget unless
        // a single record exceeds it
        for batch in &batches {
            assert!(batch.num_sequences() >= 1);
        }
        // names survive
        assert_eq!(batches[0].record(0).name, "s0");
    }

    #[test]
    fn oversized_record_gets_own_batch() {
        let big = "ACGT".repeat(100);
        let b = bank(&[&big, "ACGTACGT", "GGTTGGTT"]);
        let batches = query_batches(&b, 50);
        assert_eq!(batches[0].num_sequences(), 1);
        assert_eq!(batches[0].num_residues(), 400);
    }
}
