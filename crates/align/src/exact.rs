//! The optimal dynamic-programming family (paper references \[1\]\[2\]\[3\]).
//!
//! The paper's introduction frames ORIS against the exact algorithms:
//! Needleman–Wunsch (global, 1970), Smith–Waterman (local, 1981) and
//! Gotoh's affine-gap refinement (1982). The two local ones are
//! implemented here in full — quadratic time and space, with traceback —
//! as **oracles**: heuristic results (HSPs, gapped X-drop extensions) are
//! validated against the optimum on small instances.

use crate::cigar::AlignOp;
use crate::scoring::ScoringScheme;

const NEG: i32 = i32::MIN / 4;

/// An optimal alignment with explicit coordinates and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactAlignment {
    /// Optimal score.
    pub score: i32,
    /// Start offset on sequence 1.
    pub start1: usize,
    /// Start offset on sequence 2.
    pub start2: usize,
    /// Operations, left to right.
    pub ops: Vec<AlignOp>,
}

impl ExactAlignment {
    /// Characters consumed on sequence 1.
    pub fn len1(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Match | AlignOp::Mismatch | AlignOp::Ins))
            .count()
    }

    /// Characters consumed on sequence 2.
    pub fn len2(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Match | AlignOp::Mismatch | AlignOp::Del))
            .count()
    }
}

/// Smith–Waterman local alignment with linear gap costs.
pub fn smith_waterman(s1: &[u8], s2: &[u8], scheme: &ScoringScheme) -> ExactAlignment {
    let n = s1.len();
    let m = s2.len();
    let g = scheme.gap_extend;
    let width = m + 1;
    let mut dp = vec![0i32; (n + 1) * width];
    // 0 = stop (cell value 0), 1 = diag, 2 = up, 3 = left
    let mut tb = vec![0u8; (n + 1) * width];
    let mut best = 0i32;
    let mut best_ij = (0usize, 0usize);

    for i in 1..=n {
        for j in 1..=m {
            let diag = dp[(i - 1) * width + j - 1] + scheme.pair(s1[i - 1], s2[j - 1]);
            let up = dp[(i - 1) * width + j] + g;
            let left = dp[i * width + j - 1] + g;
            let mut val = 0i32;
            let mut dir = 0u8;
            if diag > val {
                val = diag;
                dir = 1;
            }
            if up > val {
                val = up;
                dir = 2;
            }
            if left > val {
                val = left;
                dir = 3;
            }
            dp[i * width + j] = val;
            tb[i * width + j] = dir;
            if val > best {
                best = val;
                best_ij = (i, j);
            }
        }
    }

    let mut ops = Vec::new();
    let (mut i, mut j) = best_ij;
    while tb[i * width + j] != 0 {
        match tb[i * width + j] {
            1 => {
                ops.push(if scheme.is_match(s1[i - 1], s2[j - 1]) {
                    AlignOp::Match
                } else {
                    AlignOp::Mismatch
                });
                i -= 1;
                j -= 1;
            }
            2 => {
                ops.push(AlignOp::Ins);
                i -= 1;
            }
            _ => {
                ops.push(AlignOp::Del);
                j -= 1;
            }
        }
    }
    ops.reverse();
    ExactAlignment {
        score: best,
        start1: i,
        start2: j,
        ops,
    }
}

/// Gotoh local alignment with affine gap costs (open + extend).
///
/// This is the model the heuristic gapped stage approximates, so it is the
/// oracle used to validate step 3 on small instances.
pub fn gotoh_local(s1: &[u8], s2: &[u8], scheme: &ScoringScheme) -> ExactAlignment {
    let n = s1.len();
    let m = s2.len();
    let (open, ext) = (scheme.gap_open, scheme.gap_extend);
    let width = m + 1;
    let idx = |i: usize, j: usize| i * width + j;

    let mut h = vec![0i32; (n + 1) * width];
    let mut e = vec![NEG; (n + 1) * width];
    let mut f = vec![NEG; (n + 1) * width];
    // H source: 0 stop, 1 diag-from-H, 2 diag-from-E, 3 diag-from-F
    let mut tbh = vec![0u8; (n + 1) * width];
    // E source: 0 open-from-H, 1 extend; F likewise
    let mut tbe = vec![0u8; (n + 1) * width];
    let mut tbf = vec![0u8; (n + 1) * width];

    let mut best = 0i32;
    let mut best_ij = (0usize, 0usize);

    for i in 1..=n {
        for j in 1..=m {
            let e_open = h[idx(i, j - 1)] + open + ext;
            let e_ext = e[idx(i, j - 1)] + ext;
            if e_open >= e_ext {
                e[idx(i, j)] = e_open;
                tbe[idx(i, j)] = 0;
            } else {
                e[idx(i, j)] = e_ext;
                tbe[idx(i, j)] = 1;
            }

            let f_open = h[idx(i - 1, j)] + open + ext;
            let f_ext = f[idx(i - 1, j)] + ext;
            if f_open >= f_ext {
                f[idx(i, j)] = f_open;
                tbf[idx(i, j)] = 0;
            } else {
                f[idx(i, j)] = f_ext;
                tbf[idx(i, j)] = 1;
            }

            let pair = scheme.pair(s1[i - 1], s2[j - 1]);
            let dh = h[idx(i - 1, j - 1)] + pair;
            let de = e[idx(i - 1, j - 1)] + pair;
            let df = f[idx(i - 1, j - 1)] + pair;
            let mut val = 0i32;
            let mut src = 0u8;
            if dh > val {
                val = dh;
                src = 1;
            }
            if de > val {
                val = de;
                src = 2;
            }
            if df > val {
                val = df;
                src = 3;
            }
            h[idx(i, j)] = val;
            tbh[idx(i, j)] = src;
            if val > best {
                best = val;
                best_ij = (i, j);
            }
        }
    }

    // Traceback over three matrices; state 0 = H, 1 = E, 2 = F.
    let mut ops = Vec::new();
    let (mut i, mut j) = best_ij;
    let mut state = 0u8;
    loop {
        match state {
            0 => {
                let src = tbh[idx(i, j)];
                if src == 0 {
                    break;
                }
                ops.push(if scheme.is_match(s1[i - 1], s2[j - 1]) {
                    AlignOp::Match
                } else {
                    AlignOp::Mismatch
                });
                i -= 1;
                j -= 1;
                state = src - 1; // 1→H, 2→E, 3→F
            }
            1 => {
                ops.push(AlignOp::Del);
                let src = tbe[idx(i, j)];
                j -= 1;
                state = if src == 1 { 1 } else { 0 };
            }
            _ => {
                ops.push(AlignOp::Ins);
                let src = tbf[idx(i, j)];
                i -= 1;
                state = if src == 1 { 2 } else { 0 };
            }
        }
    }
    ops.reverse();
    ExactAlignment {
        score: best,
        start1: i,
        start2: j,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::AlignStats;
    use oris_seqio::nuc_from_char;
    use proptest::prelude::*;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes().map(nuc_from_char).collect()
    }

    fn scheme() -> ScoringScheme {
        ScoringScheme::blastn()
    }

    #[test]
    fn sw_finds_embedded_homology() {
        // Shared core "ACGTACGTACG" (11 nt) embedded in dissimilar flanks.
        let a = codes("TTTTTTACGTACGTACGGGGGG");
        let b = codes("CCCCCACGTACGTACGCCCCCC");
        let out = smith_waterman(&a, &b, &scheme());
        assert_eq!(out.score, 11);
        assert_eq!(out.start1, 6);
        assert_eq!(out.start2, 5);
        assert_eq!(out.ops.len(), 11);
    }

    #[test]
    fn sw_no_similarity_is_empty() {
        let a = codes("AAAAAA");
        let b = codes("GGGGGG");
        let out = smith_waterman(&a, &b, &scheme());
        assert_eq!(out.score, 0);
        assert!(out.ops.is_empty());
    }

    #[test]
    fn gotoh_prefers_one_long_gap() {
        // Non-periodic 40-mer with "GG" inserted at its middle: bridging
        // with one affine gap (40 − 5 − 4 = 31) beats the best gapless
        // alignment (20). The optimum must contain exactly one opening of
        // length 2.
        let a = codes("ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGAT");
        let mut bv = a.clone();
        bv.splice(20..20, codes("GG"));
        let out = gotoh_local(&a, &bv, &scheme());
        let st = AlignStats::from_ops(&out.ops);
        assert_eq!(out.score, 40 - 9);
        assert_eq!(st.gap_opens, 1);
        assert_eq!(st.gap_columns, 2);
    }

    #[test]
    fn gotoh_equals_sw_when_gapless() {
        let a = codes("TTACGTACGTTT");
        let b = codes("GGACGTACGTGG");
        let g = gotoh_local(&a, &b, &scheme());
        let s = smith_waterman(&a, &b, &scheme());
        assert_eq!(g.score, s.score);
    }

    #[test]
    fn len_helpers() {
        let a = codes("ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGAT");
        let mut b = a.clone();
        b.splice(20..20, codes("GG"));
        let out = gotoh_local(&a, &b, &scheme());
        assert_eq!(out.len1(), 40);
        assert_eq!(out.len2(), 42);
    }

    proptest! {
        /// SW score is ≥ 0, ≤ min(len)·match, and the traceback rescoring
        /// agrees (linear gaps).
        #[test]
        fn sw_invariants(s1 in "[ACGT]{0,25}", s2 in "[ACGT]{0,25}") {
            let a = codes(&s1);
            let b = codes(&s2);
            let sc = scheme();
            let out = smith_waterman(&a, &b, &sc);
            prop_assert!(out.score >= 0);
            prop_assert!(out.score <= a.len().min(b.len()) as i32 * sc.matsch);
            let st = AlignStats::from_ops(&out.ops);
            let linear = st.matches as i32 * sc.matsch
                + st.mismatches as i32 * sc.mismatch
                + st.gap_columns as i32 * sc.gap_extend;
            prop_assert_eq!(linear, out.score);
        }

        /// Gotoh traceback rescoring (affine) equals the DP score, and
        /// Gotoh ≤ SW score when gap open cost is 0-extra... instead:
        /// affine optimum is ≤ linear optimum under same extend cost.
        #[test]
        fn gotoh_invariants(s1 in "[ACGT]{0,25}", s2 in "[ACGT]{0,25}") {
            let a = codes(&s1);
            let b = codes(&s2);
            let sc = scheme();
            let out = gotoh_local(&a, &b, &sc);
            prop_assert!(out.score >= 0);
            let st = AlignStats::from_ops(&out.ops);
            prop_assert_eq!(st.score(&sc), out.score);
            let sw = smith_waterman(&a, &b, &sc);
            // affine charges opening on top of extension → never better
            prop_assert!(out.score <= sw.score);
        }

        /// Local optimum never decreases when sequences are extended.
        #[test]
        fn sw_monotone_under_extension(s1 in "[ACGT]{1,20}", s2 in "[ACGT]{1,20}", extra in "[ACGT]{1,10}") {
            let a = codes(&s1);
            let b = codes(&s2);
            let mut a_ext = a.clone();
            a_ext.extend(codes(&extra));
            let sc = scheme();
            prop_assert!(smith_waterman(&a_ext, &b, &sc).score >= smith_waterman(&a, &b, &sc).score);
        }
    }
}
