//! Alignment operations and derived statistics.
//!
//! The BLAST `-m 8` tabular format — the output format of both SCORIS-N
//! and the paper's BLASTN runs — reports per-alignment statistics that all
//! derive from the operation list: alignment length (columns), identity
//! percentage, mismatch count and gap-opening count. [`AlignStats`]
//! computes them once from a `&[AlignOp]`.

use crate::scoring::ScoringScheme;

/// One alignment column (edit operation), sequence 1 → sequence 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignOp {
    /// Identical pair.
    Match,
    /// Substitution.
    Mismatch,
    /// Column consumes sequence 1 only (gap in sequence 2).
    Ins,
    /// Column consumes sequence 2 only (gap in sequence 1).
    Del,
}

/// Statistics derived from an operation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlignStats {
    /// Total alignment columns.
    pub length: usize,
    /// Identical pairs.
    pub matches: usize,
    /// Substituted pairs.
    pub mismatches: usize,
    /// Number of gap openings (maximal runs of Ins or Del).
    pub gap_opens: usize,
    /// Total gapped columns.
    pub gap_columns: usize,
    /// Characters consumed on sequence 1.
    pub consumed1: usize,
    /// Characters consumed on sequence 2.
    pub consumed2: usize,
}

impl AlignStats {
    /// Computes statistics from an operation list.
    pub fn from_ops(ops: &[AlignOp]) -> AlignStats {
        let mut s = AlignStats::default();
        let mut prev_gap: Option<AlignOp> = None;
        for &op in ops {
            s.length += 1;
            match op {
                AlignOp::Match => {
                    s.matches += 1;
                    s.consumed1 += 1;
                    s.consumed2 += 1;
                    prev_gap = None;
                }
                AlignOp::Mismatch => {
                    s.mismatches += 1;
                    s.consumed1 += 1;
                    s.consumed2 += 1;
                    prev_gap = None;
                }
                AlignOp::Ins => {
                    s.gap_columns += 1;
                    s.consumed1 += 1;
                    if prev_gap != Some(AlignOp::Ins) {
                        s.gap_opens += 1;
                    }
                    prev_gap = Some(AlignOp::Ins);
                }
                AlignOp::Del => {
                    s.gap_columns += 1;
                    s.consumed2 += 1;
                    if prev_gap != Some(AlignOp::Del) {
                        s.gap_opens += 1;
                    }
                    prev_gap = Some(AlignOp::Del);
                }
            }
        }
        s
    }

    /// Identity percentage over alignment columns, the `-m 8` `pident`.
    pub fn identity_pct(&self) -> f64 {
        if self.length == 0 {
            0.0
        } else {
            100.0 * self.matches as f64 / self.length as f64
        }
    }

    /// Recomputes the alignment score under `scheme` (affine gaps).
    pub fn score(&self, scheme: &ScoringScheme) -> i32 {
        self.matches as i32 * scheme.matsch
            + self.mismatches as i32 * scheme.mismatch
            + self.gap_opens as i32 * scheme.gap_open
            + self.gap_columns as i32 * scheme.gap_extend
    }
}

/// Renders ops as a compact CIGAR-like string (`=`, `X`, `I`, `D` runs),
/// for test messages.
#[cfg(test)]
fn ops_to_string(ops: &[AlignOp]) -> String {
    let mut out = String::new();
    let mut run: Option<(AlignOp, usize)> = None;
    let sym = |op: AlignOp| match op {
        AlignOp::Match => '=',
        AlignOp::Mismatch => 'X',
        AlignOp::Ins => 'I',
        AlignOp::Del => 'D',
    };
    for &op in ops {
        match run {
            Some((o, n)) if o == op => run = Some((o, n + 1)),
            Some((o, n)) => {
                out.push_str(&format!("{n}{}", sym(o)));
                run = Some((op, 1));
                let _ = n;
            }
            None => run = Some((op, 1)),
        }
    }
    if let Some((o, n)) = run {
        out.push_str(&format!("{n}{}", sym(o)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use AlignOp::*;

    #[test]
    fn counts_basic() {
        let ops = [Match, Match, Mismatch, Ins, Ins, Match, Del, Match];
        let s = AlignStats::from_ops(&ops);
        assert_eq!(s.length, 8);
        assert_eq!(s.matches, 4);
        assert_eq!(s.mismatches, 1);
        assert_eq!(s.gap_opens, 2);
        assert_eq!(s.gap_columns, 3);
        assert_eq!(s.consumed1, 7);
        assert_eq!(s.consumed2, 6);
    }

    #[test]
    fn adjacent_different_gaps_open_twice() {
        let ops = [Match, Ins, Del, Match];
        let s = AlignStats::from_ops(&ops);
        assert_eq!(s.gap_opens, 2);
    }

    #[test]
    fn identity_pct_full() {
        let ops = [Match, Match];
        assert!((AlignStats::from_ops(&ops).identity_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn identity_pct_empty_is_zero() {
        assert_eq!(AlignStats::from_ops(&[]).identity_pct(), 0.0);
    }

    #[test]
    fn score_matches_manual() {
        let scheme = ScoringScheme::blastn();
        let ops = [Match, Match, Mismatch, Ins, Ins, Match];
        let s = AlignStats::from_ops(&ops);
        // 3 matches - 3 + open(-5) + 2*extend(-2)
        assert_eq!(s.score(&scheme), 3 - 3 - 5 - 4);
    }

    #[test]
    fn cigar_string_runs() {
        let ops = [Match, Match, Mismatch, Ins, Ins, Match];
        assert_eq!(ops_to_string(&ops), "2=1X2I1=");
    }

    #[test]
    fn cigar_string_empty() {
        assert_eq!(ops_to_string(&[]), "");
    }
}
