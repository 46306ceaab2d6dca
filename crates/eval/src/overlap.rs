//! The 80 %-overlap equivalence metric (paper section 3.4).
//!
//! "We consider that two alignments are equivalent if they overlap of more
//! than 80 %." We interpret overlap symmetrically on both coordinate axes:
//! the intersection of the query spans and of the subject spans must each
//! cover more than the threshold fraction of the *shorter* of the two
//! spans, and the sequence identifiers must agree. Borderline alignments
//! reported with slightly shifted ends (the common case between two
//! heuristic engines) then still count as the same alignment.

use oris_core::M8Record;

/// Fraction of the shorter interval covered by the intersection of
/// `[a1, a2]` and `[b1, b2]` (1-based inclusive).
pub fn interval_overlap_fraction(a1: usize, a2: usize, b1: usize, b2: usize) -> f64 {
    let lo = a1.max(b1);
    let hi = a2.min(b2);
    if hi < lo {
        return 0.0;
    }
    let inter = (hi - lo + 1) as f64;
    let len_a = (a2.saturating_sub(a1) + 1) as f64;
    let len_b = (b2.saturating_sub(b1) + 1) as f64;
    inter / len_a.min(len_b)
}

/// Overlap fraction between two records: the minimum of the query-axis and
/// subject-axis overlaps (0 when ids differ).
pub fn overlap_fraction(a: &M8Record, b: &M8Record) -> f64 {
    if a.qid != b.qid || a.sid != b.sid {
        return 0.0;
    }
    let q = interval_overlap_fraction(a.qstart, a.qend, b.qstart, b.qend);
    let s = interval_overlap_fraction(a.sstart, a.send, b.sstart, b.send);
    q.min(s)
}

/// Whether two records are equivalent at the given threshold (the paper
/// uses 0.8).
pub fn equivalent(a: &M8Record, b: &M8Record, min_fraction: f64) -> bool {
    overlap_fraction(a, b) > min_fraction
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
    fn identical_records_are_equivalent() {
        let a = rec("q", "s", (10, 110), (200, 300));
        assert!(equivalent(&a, &a.clone(), 0.8));
        assert!((overlap_fraction(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_ends_still_equivalent() {
        let a = rec("q", "s", (10, 110), (200, 300));
        let b = rec("q", "s", (15, 115), (205, 305));
        assert!(equivalent(&a, &b, 0.8));
    }

    #[test]
    fn different_sequences_never_equivalent() {
        let a = rec("q", "s", (10, 110), (200, 300));
        let b = rec("q2", "s", (10, 110), (200, 300));
        assert_eq!(overlap_fraction(&a, &b), 0.0);
        let c = rec("q", "s2", (10, 110), (200, 300));
        assert_eq!(overlap_fraction(&a, &c), 0.0);
    }

    #[test]
    fn disjoint_intervals_not_equivalent() {
        let a = rec("q", "s", (10, 50), (200, 240));
        let b = rec("q", "s", (60, 100), (250, 290));
        assert!(!equivalent(&a, &b, 0.8));
    }

    #[test]
    fn one_axis_overlap_is_not_enough() {
        let a = rec("q", "s", (10, 110), (200, 300));
        // same query span, far-away subject span (repeat copy elsewhere)
        let b = rec("q", "s", (10, 110), (900, 1000));
        assert!(!equivalent(&a, &b, 0.8));
    }

    #[test]
    fn short_inside_long_counts_via_shorter() {
        // 30-col alignment nested in a 300-col one: overlap fraction is
        // 1.0 relative to the shorter → equivalent. This matches the
        // paper's treatment of contained borderline alignments.
        let a = rec("q", "s", (100, 129), (500, 529));
        let b = rec("q", "s", (1, 300), (401, 700));
        assert!(equivalent(&a, &b, 0.8));
    }

    #[test]
    fn threshold_boundary_is_strict() {
        let a = rec("q", "s", (1, 100), (1, 100));
        let b = rec("q", "s", (21, 120), (21, 120)); // exactly 80/100
        assert!(!equivalent(&a, &b, 0.8), "strictly-more-than semantics");
        assert!(equivalent(&a, &b, 0.79));
    }

    #[test]
    fn interval_math_edge_cases() {
        assert_eq!(interval_overlap_fraction(1, 10, 11, 20), 0.0);
        assert_eq!(interval_overlap_fraction(1, 10, 10, 20), 0.1);
        assert_eq!(interval_overlap_fraction(5, 5, 5, 5), 1.0);
    }
}
