//! The miss-rate bookkeeping of paper section 3.4.
//!
//! Given the outputs of two programs A and B over the same bank pair:
//!
//! * `a_total`, `b_total` — alignments each reported;
//! * `a_miss` — alignments of **B** with no equivalent in A (what A
//!   missed); `b_miss` symmetrical;
//! * `a_miss_pct = 100 · a_miss / b_total` — the paper's
//!   `SCORISmiss = SCmiss / BLtotal × 100` with A = SCORIS-N, B = BLASTN;
//!   `b_miss_pct` is `BLASTmiss`.
//!
//! Matching uses the 80 %-overlap equivalence of [`crate::overlap`], with
//! records bucketed by `(qid, sid)` and sorted by query start so each
//! record only scans its overlapping neighbourhood.

use std::collections::HashMap;

use oris_core::M8Record;

use crate::overlap::equivalent;

/// Result of comparing two programs' outputs on one bank pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissReport {
    /// Alignments reported by program A.
    pub a_total: usize,
    /// Alignments reported by program B.
    pub b_total: usize,
    /// B-alignments with no equivalent in A (A's misses).
    pub a_miss: usize,
    /// A-alignments with no equivalent in B (B's misses).
    pub b_miss: usize,
}

impl MissReport {
    /// `100 · a_miss / b_total` — the paper's `SCORISmiss` when A is
    /// SCORIS-N and B is BLASTN. `None` when B reported nothing (the
    /// paper prints "-").
    pub fn a_miss_pct(&self) -> Option<f64> {
        (self.b_total > 0).then(|| 100.0 * self.a_miss as f64 / self.b_total as f64)
    }

    /// `100 · b_miss / a_total` — the paper's `BLASTmiss`.
    pub fn b_miss_pct(&self) -> Option<f64> {
        (self.a_total > 0).then(|| 100.0 * self.b_miss as f64 / self.a_total as f64)
    }
}

/// Index of records bucketed by sequence pair, sorted by query start.
struct PairIndex<'a> {
    // oris-lint: allow(det-hash) — keyed lookup only; verdicts follow the probe record order, not map order
    buckets: HashMap<(&'a str, &'a str), Vec<&'a M8Record>>,
}

impl<'a> PairIndex<'a> {
    fn build(records: &'a [M8Record]) -> PairIndex<'a> {
        // oris-lint: allow(det-hash) — keyed lookup only; verdicts follow the probe record order, not map order
        let mut buckets: HashMap<(&str, &str), Vec<&M8Record>> = HashMap::new();
        for r in records {
            buckets
                .entry((r.qid.as_str(), r.sid.as_str()))
                .or_default()
                .push(r);
        }
        for v in buckets.values_mut() {
            v.sort_by_key(|r| r.qstart);
        }
        PairIndex { buckets }
    }

    /// Whether any indexed record is equivalent to `probe`.
    fn has_equivalent(&self, probe: &M8Record, min_fraction: f64) -> bool {
        let Some(bucket) = self.buckets.get(&(probe.qid.as_str(), probe.sid.as_str())) else {
            return false;
        };
        // Records are sorted by qstart; only those with qstart ≤ probe.qend
        // can overlap, and we can stop early scanning from the partition
        // point backwards once qend < probe.qstart would require unsorted
        // qends — so we scan the candidate prefix linearly but bail on the
        // common case via the partition point.
        let hi = bucket.partition_point(|r| r.qstart <= probe.qend);
        bucket[..hi]
            .iter()
            .any(|r| equivalent(r, probe, min_fraction))
    }
}

/// Compares the outputs of programs A and B at the given overlap
/// threshold (the paper uses 0.8).
pub fn compare_outputs(a: &[M8Record], b: &[M8Record], min_fraction: f64) -> MissReport {
    let ia = PairIndex::build(a);
    let ib = PairIndex::build(b);
    let a_miss = b
        .iter()
        .filter(|r| !ia.has_equivalent(r, min_fraction))
        .count();
    let b_miss = a
        .iter()
        .filter(|r| !ib.has_equivalent(r, min_fraction))
        .count();
    MissReport {
        a_total: a.len(),
        b_total: b.len(),
        a_miss,
        b_miss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(qid: &str, sid: &str, q: (usize, usize), s: (usize, usize)) -> M8Record {
        M8Record {
            qid: qid.into(),
            sid: sid.into(),
            pident: 95.0,
            length: q.1 - q.0 + 1,
            mismatch: 0,
            gapopen: 0,
            qstart: q.0,
            qend: q.1,
            sstart: s.0,
            send: s.1,
            evalue: 1e-10,
            bitscore: 50.0,
        }
    }

    #[test]
    fn identical_outputs_have_no_misses() {
        let recs = vec![
            rec("q1", "s1", (1, 100), (1, 100)),
            rec("q2", "s1", (5, 80), (10, 85)),
        ];
        let rep = compare_outputs(&recs, &recs.clone(), 0.8);
        assert_eq!(rep.a_miss, 0);
        assert_eq!(rep.b_miss, 0);
        assert_eq!(rep.a_miss_pct(), Some(0.0));
    }

    #[test]
    fn one_sided_miss_counted() {
        let a = vec![rec("q1", "s1", (1, 100), (1, 100))];
        let b = vec![
            rec("q1", "s1", (1, 100), (1, 100)),
            rec("q9", "s1", (1, 50), (1, 50)),
        ];
        let rep = compare_outputs(&a, &b, 0.8);
        assert_eq!(rep.a_miss, 1); // A missed q9
        assert_eq!(rep.b_miss, 0);
        assert_eq!(rep.a_miss_pct(), Some(50.0));
        assert_eq!(rep.b_miss_pct(), Some(0.0));
    }

    #[test]
    fn shifted_alignments_match() {
        let a = vec![rec("q1", "s1", (1, 100), (1, 100))];
        let b = vec![rec("q1", "s1", (4, 103), (4, 103))];
        let rep = compare_outputs(&a, &b, 0.8);
        assert_eq!(rep.a_miss, 0);
        assert_eq!(rep.b_miss, 0);
    }

    #[test]
    fn empty_b_gives_none_pct() {
        let a = vec![rec("q1", "s1", (1, 100), (1, 100))];
        let rep = compare_outputs(&a, &[], 0.8);
        assert_eq!(rep.a_miss_pct(), None);
        assert_eq!(rep.b_miss_pct(), Some(100.0));
    }

    #[test]
    fn repeat_copies_on_subject_are_distinct() {
        // Same query region aligning to two distant subject positions =
        // two distinct alignments; a program reporting only one misses one.
        let a = vec![rec("q1", "s1", (1, 100), (1, 100))];
        let b = vec![
            rec("q1", "s1", (1, 100), (1, 100)),
            rec("q1", "s1", (1, 100), (5001, 5100)),
        ];
        let rep = compare_outputs(&a, &b, 0.8);
        assert_eq!(rep.a_miss, 1);
    }

    #[test]
    fn bucketing_respects_sequence_ids() {
        let a = vec![rec("q1", "s1", (1, 100), (1, 100))];
        let b = vec![rec("q1", "s2", (1, 100), (1, 100))];
        let rep = compare_outputs(&a, &b, 0.8);
        assert_eq!(rep.a_miss, 1);
        assert_eq!(rep.b_miss, 1);
    }

    #[test]
    fn larger_mixed_case() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        // 50 shared, 5 A-only, 3 B-only
        for i in 0..50 {
            let q = (i * 200 + 1, i * 200 + 150);
            a.push(rec("q", "s", q, q));
            b.push(rec("q", "s", (q.0 + 3, q.1 + 3), (q.0 + 3, q.1 + 3)));
        }
        for i in 0..5 {
            let q = (20_000 + i * 300, 20_100 + i * 300);
            a.push(rec("q", "s", q, q));
        }
        for i in 0..3 {
            let q = (40_000 + i * 300, 40_100 + i * 300);
            b.push(rec("q", "s", q, q));
        }
        let rep = compare_outputs(&a, &b, 0.8);
        assert_eq!(rep.a_total, 55);
        assert_eq!(rep.b_total, 53);
        assert_eq!(rep.a_miss, 3);
        assert_eq!(rep.b_miss, 5);
    }
}
