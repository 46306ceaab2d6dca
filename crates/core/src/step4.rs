//! Step 4 — e-values, sorting, `-m 8` records (paper section 2.4).
//!
//! Alignments are mapped from global bank coordinates to 1-based
//! sequence-local coordinates, given an expected value computed with the
//! SCORIS-N convention (bank-1 total size × subject sequence length,
//! paper section 3.1), filtered by the e-value threshold and sorted by
//! increasing e-value ("the alignments are first sorted … according to a
//! chosen criteria, for example the expected value attached to each
//! alignment").
//!
//! The streaming pipeline enters through [`emit_records`]: it converts one
//! group of alignments into records and pushes them *unsorted* into a
//! callback (the sink plumbing), leaving ordering to the sink at query
//! end. The tests' collect-then-sort wrapper over the same conversion and
//! every sink order with the sink's order function [`M8Record::sort_all`]
//! (the strict total order [`M8Record::total_order`], sorted in place),
//! so collected and streamed output agree byte-for-byte even under tied
//! e-values.
//!
//! `emit_records` is called once per record-pair group — thousands of
//! times per query on a repeat-family screen — so everything it does per
//! call must be cheap: the e-value model is a lookup
//! ([`EValueModel::dna`] solves the Karlin–Altschul parameters once per
//! scoring scheme per process), and the rest is per alignment.

use oris_align::{EValueModel, SearchSpace};
use oris_seqio::Bank;

use crate::config::OrisConfig;
use crate::m8::M8Record;
use crate::step3::GappedAlignment;

/// Counters reported by step 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step4Stats {
    /// Alignments dropped by the e-value threshold.
    pub dropped_by_evalue: u64,
    /// Records emitted.
    pub emitted: u64,
}

impl Step4Stats {
    /// Sums the counters of two reports (the pipeline's strand merge).
    pub fn merge(mut self, o: Step4Stats) -> Step4Stats {
        self.dropped_by_evalue += o.dropped_by_evalue;
        self.emitted += o.emitted;
        self
    }
}

/// Converts gapped alignments to sorted, filtered `-m 8` records — the
/// plus-strand collect form of [`emit_records`], for the tests. (The
/// pipeline streams through `emit_records` directly; minus-strand flipping
/// and explicit query search-space sizes are parameters there.)
#[cfg(test)]
fn display_records(
    bank1: &Bank,
    bank2: &Bank,
    alignments: &[GappedAlignment],
    cfg: &OrisConfig,
) -> (Vec<M8Record>, Step4Stats) {
    let mut stats = Step4Stats::default();
    let mut out = Vec::with_capacity(alignments.len());
    emit_records(
        bank1,
        bank2,
        alignments,
        cfg,
        bank1.num_residues(),
        false,
        &mut stats,
        &mut |rec| out.push(rec),
    );
    // The sinks' order function: the strict total order, so the sorted
    // vector is unique — the property that keeps collected output equal
    // to streamed output.
    M8Record::sort_all(&mut out);
    (out, stats)
}

/// Streaming conversion: maps one batch of gapped alignments to `-m 8`
/// records and hands each surviving record to `push`, **unsorted** —
/// ordering belongs to the sink, which sorts once per query with
/// [`M8Record::sort_all`]. Counters accumulate into `stats` so a query
/// spanning many per-pair groups sums naturally.
///
/// `query_residues` is the query-side e-value search-space size — the
/// *full* bank size when `bank1` is one batch of a larger bank (the
/// baseline's blastall-style batches), so a record does not depend on
/// the batch it was found in. With `flip_subject`, `bank2` is the reverse
/// complement of the original subject and emitted subject coordinates
/// are mapped back to plus-strand numbering (`sstart > send`, BLAST
/// style): a hit at rc-local `[s, e]` in a record of length `L` becomes
/// `[L − s + 1, L − e + 1]`. The flip happens here, where the alignment
/// still resolves to a record **index** via [`Bank::locate`] — a
/// name-keyed mapping after the fact would pick the wrong length
/// whenever the subject bank carries duplicate record names.
pub fn emit_records(
    bank1: &Bank,
    bank2: &Bank,
    alignments: &[GappedAlignment],
    cfg: &OrisConfig,
    query_residues: usize,
    flip_subject: bool,
    stats: &mut Step4Stats,
    push: &mut dyn FnMut(M8Record),
) {
    let model = EValueModel::dna(cfg.scheme.matsch, cfg.scheme.mismatch);
    let m = query_residues;

    for a in alignments {
        if a.len1 == 0 || a.len2 == 0 {
            continue;
        }
        let r1 = bank1
            .locate(a.start1)
            .expect("alignment start must lie inside a query sequence");
        let r2 = bank2
            .locate(a.start2)
            .expect("alignment start must lie inside a subject sequence");
        let rec1 = bank1.record(r1);
        let rec2 = bank2.record(r2);
        // Subject-side n under the configured convention: the subject
        // sequence's length (SCORIS-N, the default) or the database-wide
        // residue total (sharded search — shard-invariant by
        // construction, see `crate::SubjectSpace`). Built as f64
        // directly so a >4 Gbp database total survives 32-bit targets.
        let space = SearchSpace {
            m: m as f64,
            n: cfg.subject_space.subject_n(rec2.len) as f64,
        };
        let evalue = model.evalue(a.score, space);
        if evalue > cfg.evalue_threshold {
            stats.dropped_by_evalue += 1;
            continue;
        }
        stats.emitted += 1;
        let (sstart, send) = if flip_subject {
            // rc-local `[s, e]` ↦ original plus-strand `[L − s + 1, L − e + 1]`
            // (1-based): reported with sstart > send, BLAST's minus-strand
            // convention.
            (
                rec2.len - rec2.to_local(a.start2),
                rec2.len - (rec2.to_local(a.start2) + a.len2) + 1,
            )
        } else {
            (
                rec2.to_local(a.start2) + 1,
                rec2.to_local(a.start2) + a.len2,
            )
        };
        push(M8Record {
            qid: rec1.name.clone(),
            sid: rec2.name.clone(),
            pident: a.stats.identity_pct(),
            length: a.stats.length,
            mismatch: a.stats.mismatches,
            gapopen: a.stats.gap_opens,
            qstart: rec1.to_local(a.start1) + 1,
            qend: rec1.to_local(a.start1) + a.len1,
            sstart,
            send,
            evalue,
            bitscore: model.bit_score(a.score),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step3::GappedAlignment;
    use oris_align::AlignStats;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn perfect_alignment(start1: usize, start2: usize, len: usize) -> GappedAlignment {
        let ops = vec![oris_align::AlignOp::Match; len];
        GappedAlignment {
            start1,
            start2,
            len1: len,
            len2: len,
            score: len as i32,
            stats: AlignStats::from_ops(&ops),
            diag_min: start1 as i64 - start2 as i64,
            diag_max: start1 as i64 - start2 as i64,
        }
    }

    fn cfg() -> OrisConfig {
        OrisConfig {
            evalue_threshold: 10.0,
            ..OrisConfig::small(6)
        }
    }

    #[test]
    fn coordinates_are_one_based_local() {
        let b1 = bank(&["AAAA", "ACGTACGTACGTACGTACGTACGTACGTACGT"]);
        let b2 = bank(&["ACGTACGTACGTACGTACGTACGTACGTACGT"]);
        // alignment of b1/s1 positions 0..32 with b2/s0: global start1 is
        // record(1).start
        let g1 = b1.record(1).start;
        let g2 = b2.record(0).start;
        let alns = vec![perfect_alignment(g1, g2, 32)];
        let (recs, st) = display_records(&b1, &b2, &alns, &cfg());
        assert_eq!(st.emitted, 1);
        let r = &recs[0];
        assert_eq!(r.qid, "s1");
        assert_eq!(r.sid, "s0");
        assert_eq!((r.qstart, r.qend), (1, 32));
        assert_eq!((r.sstart, r.send), (1, 32));
        assert!((r.pident - 100.0).abs() < 1e-9);
        assert_eq!(r.mismatch, 0);
        assert_eq!(r.gapopen, 0);
    }

    #[test]
    fn evalue_threshold_filters() {
        let s = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let alns = vec![perfect_alignment(1, 1, 8)]; // short, weak score
        let strict = OrisConfig {
            evalue_threshold: 1e-12,
            ..cfg()
        };
        let (recs, st) = display_records(&b1, &b2, &alns, &strict);
        assert!(recs.is_empty());
        assert_eq!(st.dropped_by_evalue, 1);
    }

    #[test]
    fn sorted_by_evalue() {
        let s = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let alns = vec![
            perfect_alignment(1, 1, 10),
            perfect_alignment(1, 1, 30), // stronger → smaller e-value
        ];
        let (recs, _) = display_records(&b1, &b2, &alns, &cfg());
        assert_eq!(recs.len(), 2);
        assert!(recs[0].evalue <= recs[1].evalue);
        assert_eq!(recs[0].length, 30);
    }

    #[test]
    fn subject_length_enters_search_space() {
        // Same alignment against a short vs a long subject sequence: the
        // long-subject e-value is larger (SCORIS-N convention).
        let q = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let b1 = bank(&[q]);
        let short = bank(&[q]);
        let long = bank(&[&format!("{}{}", q, "T".repeat(2000))]);
        let alns = vec![perfect_alignment(1, 1, 20)];
        let (r_short, _) = display_records(&b1, &short, &alns, &cfg());
        let (r_long, _) = display_records(&b1, &long, &alns, &cfg());
        assert!(r_long[0].evalue > r_short[0].evalue);
    }

    #[test]
    fn database_space_overrides_subject_length() {
        // Under SubjectSpace::Database the e-value no longer depends on
        // which subject sequence (or volume) the alignment lies in — only
        // on the fixed database total. Short and long subjects price the
        // same alignment identically, and the e-value scales with the
        // declared database size exactly as m·n does.
        use crate::SubjectSpace;
        let q = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let b1 = bank(&[q]);
        let short = bank(&[q]);
        let long = bank(&[&format!("{}{}", q, "T".repeat(2000))]);
        let alns = vec![perfect_alignment(1, 1, 20)];
        let dbcfg = OrisConfig {
            subject_space: SubjectSpace::Database(10_000),
            ..cfg()
        };
        let (r_short, _) = display_records(&b1, &short, &alns, &dbcfg);
        let (r_long, _) = display_records(&b1, &long, &alns, &dbcfg);
        assert_eq!(r_short[0].evalue, r_long[0].evalue);
        let bigger = OrisConfig {
            subject_space: SubjectSpace::Database(20_000),
            ..cfg()
        };
        let (r_big, _) = display_records(&b1, &short, &alns, &bigger);
        assert!((r_big[0].evalue / r_short[0].evalue - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_alignment_skipped() {
        let b1 = bank(&["ACGTACGT"]);
        let b2 = bank(&["ACGTACGT"]);
        let mut a = perfect_alignment(1, 1, 4);
        a.len1 = 0;
        a.len2 = 0;
        let (recs, st) = display_records(&b1, &b2, &[a], &cfg());
        assert!(recs.is_empty());
        assert_eq!(st.emitted, 0);
    }
}
