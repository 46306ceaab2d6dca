//! Expected values and bit scores.
//!
//! `E = K · m · n · e^{−λS}` for raw score `S` in a search space `m × n`.
//! SCORIS-N's convention (paper section 3.1) sets `m` to the total size of
//! bank 1 and `n` to the length of the *subject sequence* the alignment
//! was found in — not the whole of bank 2 — which [`SearchSpace::scoris`]
//! encodes. No edge-effect length adjustment is applied; the paper's
//! prototype does not describe one, and the sensitivity analysis in
//! section 3.4 attributes part of the BLASTN/SCORIS-N disagreement to
//! exactly such small differences in e-value computation.

use crate::karlin::KarlinParams;

/// A pairwise search space `m × n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpace {
    /// Effective length of the query side.
    pub m: f64,
    /// Effective length of the subject side.
    pub n: f64,
}

impl SearchSpace {
    /// Raw search space from two lengths.
    pub fn new(m: usize, n: usize) -> SearchSpace {
        SearchSpace {
            m: m as f64,
            n: n as f64,
        }
    }

    /// The SCORIS-N convention: bank-1 total size × subject sequence length.
    pub fn scoris(bank1_residues: usize, subject_len: usize) -> SearchSpace {
        SearchSpace::new(bank1_residues, subject_len)
    }

    /// Product `m·n`.
    pub fn product(&self) -> f64 {
        self.m * self.n
    }
}

/// E-value/bit-score calculator for one scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EValueModel {
    /// The Karlin–Altschul parameters in force.
    pub params: KarlinParams,
}

impl EValueModel {
    /// Builds a model from precomputed parameters.
    pub fn new(params: KarlinParams) -> EValueModel {
        EValueModel { params }
    }

    /// Model for DNA uniform background with the given reward/penalty —
    /// a lookup after the first call per pair (see [`KarlinParams::dna`]),
    /// so per-group callers such as step 4 need not carry a model around.
    pub fn dna(match_score: i32, mismatch_score: i32) -> EValueModel {
        EValueModel {
            params: KarlinParams::dna(match_score, mismatch_score),
        }
    }

    /// Expected number of alignments scoring ≥ `score` in `space`.
    pub fn evalue(&self, score: i32, space: SearchSpace) -> f64 {
        self.params.k * space.product() * (-self.params.lambda * score as f64).exp()
    }

    /// Normalized bit score `S' = (λS − ln K) / ln 2`.
    pub fn bit_score(&self, score: i32) -> f64 {
        (self.params.lambda * score as f64 - self.params.k.ln()) / std::f64::consts::LN_2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EValueModel {
        EValueModel::dna(1, -3)
    }

    #[test]
    fn evalue_decreases_with_score() {
        let m = model();
        let sp = SearchSpace::new(1_000_000, 1_000);
        let e1 = m.evalue(20, sp);
        let e2 = m.evalue(30, sp);
        assert!(e2 < e1);
        assert!(e2 > 0.0);
    }

    #[test]
    fn evalue_scales_linearly_with_space() {
        let m = model();
        let e1 = m.evalue(25, SearchSpace::new(1000, 1000));
        let e2 = m.evalue(25, SearchSpace::new(2000, 1000));
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bitscore_roundtrip() {
        let m = model();
        let sp = SearchSpace::new(12_345, 678);
        for score in [15, 25, 40, 80] {
            let direct = m.evalue(score, sp);
            // E = m·n·2^{−S'}
            let via_bits = sp.product() * (-m.bit_score(score)).exp2();
            assert!(
                (direct - via_bits).abs() <= 1e-9 * direct.max(1e-300),
                "score {score}: {direct} vs {via_bits}"
            );
        }
    }

    #[test]
    fn scoris_convention_uses_subject_length() {
        let sp = SearchSpace::scoris(5_000_000, 800);
        assert_eq!(sp.m, 5_000_000.0);
        assert_eq!(sp.n, 800.0);
    }

    #[test]
    fn bit_scores_increase_with_raw_score() {
        let m = model();
        assert!(m.bit_score(30) > m.bit_score(20));
    }
}
