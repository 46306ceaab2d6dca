//! Karlin–Altschul parameters for ungapped local alignment scores.
//!
//! For an i.i.d. pairwise score distribution `{(s_i, p_i)}` with at least
//! one positive score and negative expectation, Karlin & Altschul (1990)
//! show the number of ungapped local alignments scoring ≥ S in a search
//! space of size `m·n` is Poisson with mean `K·m·n·e^{−λS}`, where:
//!
//! * `λ` is the unique positive solution of `Σ p_i e^{λ s_i} = 1`;
//! * `H = λ · Σ p_i s_i e^{λ s_i}` is the relative entropy (nats/pair);
//! * `K` is given for lattice score distributions (span `δ`) by
//!
//!   ```text
//!   K = δ·λ·e^{−2σ} / (H·(1 − e^{−λδ})),
//!   σ = Σ_{k≥1} (1/k)·[ P(S_k ≥ 0) + E(e^{λ S_k}; S_k < 0) ]
//!   ```
//!
//!   where `S_k` is the k-step random walk of scores (the series converges
//!   geometrically; we truncate when terms drop below 1e-12).
//!
//! For DNA with uniform background the score distribution is simply
//! `{(match, 1/4), (mismatch, 3/4)}` — see [`ScorePmf::dna_uniform`]. The
//! computed constants are validated against NCBI's published values for
//! the standard blastn reward/penalty pairs in the tests.
//!
//! The solve (a 200-step bisection plus a convolution series of up to 400
//! terms) costs ~20 µs, and step 4 asks for the DNA parameters once per
//! record-pair group — 13 000 times on a repeat-family screen — so
//! [`KarlinParams::dna`] memoises per `(match, mismatch)` for the life of
//! the process. [`KarlinParams::from_pmf`] always solves afresh.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// A probability mass function over integer scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScorePmf {
    /// `(score, probability)` pairs; probabilities sum to 1.
    entries: Vec<(i32, f64)>,
}

impl ScorePmf {
    /// Builds a pmf from `(score, weight)` pairs (weights are normalized).
    ///
    /// # Panics
    /// Panics if no entry is positive-score, no entry is negative-score,
    /// or the expected score is non-negative (the Karlin–Altschul regime
    /// requires a negative drift with positive excursions).
    pub fn new(pairs: &[(i32, f64)]) -> ScorePmf {
        assert!(!pairs.is_empty(), "empty score distribution");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "weights must be positive");
        let mut entries: Vec<(i32, f64)> = pairs
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .map(|&(s, w)| (s, w / total))
            .collect();
        entries.sort_by_key(|&(s, _)| s);
        // merge duplicates
        let mut merged: Vec<(i32, f64)> = Vec::with_capacity(entries.len());
        for (s, p) in entries {
            match merged.last_mut() {
                Some((ls, lp)) if *ls == s => *lp += p,
                _ => merged.push((s, p)),
            }
        }
        let pmf = ScorePmf { entries: merged };
        assert!(
            pmf.entries.iter().any(|&(s, _)| s > 0),
            "need a positive score"
        );
        assert!(
            pmf.entries.iter().any(|&(s, _)| s < 0),
            "need a negative score"
        );
        assert!(
            pmf.mean() < 0.0,
            "expected score must be negative (got {})",
            pmf.mean()
        );
        pmf
    }

    /// DNA match/mismatch pmf under a uniform base composition:
    /// match with probability 1/4, mismatch 3/4.
    pub fn dna_uniform(match_score: i32, mismatch_score: i32) -> ScorePmf {
        ScorePmf::new(&[(match_score, 0.25), (mismatch_score, 0.75)])
    }

    /// Expected score per aligned pair.
    pub fn mean(&self) -> f64 {
        self.entries.iter().map(|&(s, p)| s as f64 * p).sum()
    }

    /// Moment generating function value `Σ p_i e^{λ s_i}`.
    fn mgf(&self, lambda: f64) -> f64 {
        self.entries
            .iter()
            .map(|&(s, p)| p * (lambda * s as f64).exp())
            .sum()
    }

    /// Lattice span: gcd of the scores carrying probability.
    fn span(&self) -> i32 {
        let mut g = 0i64;
        for &(s, _) in &self.entries {
            g = gcd(g, (s as i64).abs());
        }
        g.max(1) as i32
    }

    /// Highest / lowest scores.
    fn bounds(&self) -> (i32, i32) {
        (self.entries[0].0, self.entries.last().unwrap().0)
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The triple `(λ, K, H)` of ungapped Karlin–Altschul parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale of the scoring system (nats per score unit).
    pub lambda: f64,
    /// Search-space proportionality constant.
    pub k: f64,
    /// Relative entropy of the aligned-pair distribution (nats per pair).
    pub h: f64,
}

impl KarlinParams {
    /// Computes the parameters for `pmf`.
    pub fn from_pmf(pmf: &ScorePmf) -> KarlinParams {
        let lambda = solve_lambda(pmf);
        let h = entropy(pmf, lambda);
        let k = compute_k(pmf, lambda, h);
        KarlinParams { lambda, k, h }
    }

    /// Parameters for DNA uniform-background scoring, solved once per
    /// `(match, mismatch)` per process and looked up afterwards. The
    /// function stays pure: the memo holds exactly what
    /// [`KarlinParams::from_pmf`] returned for the same pair.
    ///
    /// # Panics
    /// As [`ScorePmf::new`], for a pair outside the Karlin–Altschul
    /// regime; a rejected pair is never stored.
    pub fn dna(match_score: i32, mismatch_score: i32) -> KarlinParams {
        let key = (match_score, mismatch_score);
        if let Some(&hit) = dna_memo().get(&key) {
            return hit;
        }
        // Solved outside the lock: a rejected pair panics here and cannot
        // poison the memo, and two racing first callers store equal values.
        let solved = KarlinParams::from_pmf(&ScorePmf::dna_uniform(match_score, mismatch_score));
        *dna_memo().entry(key).or_insert(solved)
    }
}

/// The process-wide `(match, mismatch) → parameters` memo behind
/// [`KarlinParams::dna`] (a `BTreeMap`: nothing here may depend on hash
/// order). Every update is one whole-entry insert, so the map is valid
/// even if a holder of the lock panicked.
fn dna_memo() -> std::sync::MutexGuard<'static, BTreeMap<(i32, i32), KarlinParams>> {
    static MEMO: Mutex<BTreeMap<(i32, i32), KarlinParams>> = Mutex::new(BTreeMap::new());
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Solves `Σ p_i e^{λ s_i} = 1` for the unique positive root by bisection.
fn solve_lambda(pmf: &ScorePmf) -> f64 {
    // mgf(0) = 1, mgf'(0) = mean < 0, mgf(λ) → ∞: the positive root is
    // bracketed by growing the upper bound until mgf > 1.
    let mut hi = 1.0f64;
    while pmf.mgf(hi) < 1.0 {
        hi *= 2.0;
        assert!(hi < 1e6, "lambda bracket failed");
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if pmf.mgf(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Relative entropy `H = λ · Σ p_i s_i e^{λ s_i}` (nats per pair).
fn entropy(pmf: &ScorePmf, lambda: f64) -> f64 {
    let s: f64 = pmf
        .entries
        .iter()
        .map(|&(s, p)| p * s as f64 * (lambda * s as f64).exp())
        .sum();
    lambda * s
}

/// The lattice series for K (Karlin & Altschul 1990, eq. for lattice
/// variables; the same series NCBI's `BlastKarlinLHtoK` evaluates).
fn compute_k(pmf: &ScorePmf, lambda: f64, h: f64) -> f64 {
    let (low, high) = pmf.bounds();
    let delta = pmf.span() as f64;

    // Distribution of S_k maintained as a dense vector over
    // [k*low, k*high], convolved with the step pmf each iteration.
    let step_len = (high - low) as usize + 1;
    let mut step = vec![0.0f64; step_len];
    for &(s, p) in &pmf.entries {
        step[(s - low) as usize] = p;
    }

    let mut dist = step.clone(); // distribution of S_1
    let mut sigma = 0.0f64;
    let max_iter = 400usize;
    for k in 1..=max_iter {
        let offset = k as i64 * low as i64; // score of dist[0]
        let mut inner = 0.0f64;
        for (i, &p) in dist.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let s = offset + i as i64;
            if s >= 0 {
                inner += p;
            } else {
                inner += p * (lambda * s as f64).exp();
            }
        }
        let term = inner / k as f64;
        sigma += term;
        if term < 1e-12 {
            break;
        }
        if k < max_iter {
            dist = convolve(&dist, &step);
        }
    }

    delta * lambda * (-2.0 * sigma).exp() / (h * (1.0 - (-lambda * delta).exp()))
}

fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0f64; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn lambda_satisfies_characteristic_equation() {
        for &(m, x) in &[(1, -3), (1, -2), (2, -3), (5, -4)] {
            let pmf = ScorePmf::dna_uniform(m, x);
            let p = KarlinParams::from_pmf(&pmf);
            assert!(
                (pmf.mgf(p.lambda) - 1.0).abs() < 1e-10,
                "mgf({}) = {}",
                p.lambda,
                pmf.mgf(p.lambda)
            );
            assert!(p.lambda > 0.0);
        }
    }

    #[test]
    fn blastn_1_minus3_matches_ncbi() {
        // NCBI ungapped values for reward 1 / penalty -3 (blast_stat.c):
        // lambda = 1.374, K = 0.711, H = 1.31.
        let p = KarlinParams::dna(1, -3);
        assert!(close(p.lambda, 1.374, 0.01), "lambda = {}", p.lambda);
        assert!(close(p.k, 0.711, 0.03), "K = {}", p.k);
        assert!(close(p.h, 1.31, 0.03), "H = {}", p.h);
    }

    #[test]
    fn blastn_1_minus2_closed_form() {
        // For reward 1 / penalty −2 with uniform background the
        // characteristic equation 0.25·e^λ + 0.75·e^{−2λ} = 1 reduces (with
        // y = e^λ) to the cubic y³ − 4y² + 3 = 0, whose relevant root is
        // y ≈ 3.7913 → λ ≈ 1.3327. Check the polynomial independently of
        // the bisection code path.
        let p = KarlinParams::dna(1, -2);
        let y = p.lambda.exp();
        assert!((y.powi(3) - 4.0 * y.powi(2) + 3.0).abs() < 1e-6, "y = {y}");
        assert!(close(p.lambda, 1.3327, 0.001), "lambda = {}", p.lambda);
    }

    #[test]
    fn blastn_2_minus3_closed_form() {
        // Reward 2 / penalty −3: with y = e^λ the characteristic equation
        // becomes y⁵ − 4y³ + 3 = 0; relevant root y ≈ 1.8847 → λ ≈ 0.6337.
        let p = KarlinParams::dna(2, -3);
        let y = p.lambda.exp();
        assert!((y.powi(5) - 4.0 * y.powi(3) + 3.0).abs() < 1e-6, "y = {y}");
        assert!(close(p.lambda, 0.6337, 0.001), "lambda = {}", p.lambda);
        assert!(p.k > 0.0 && p.k < 1.0);
    }

    #[test]
    fn k_is_in_unit_interval() {
        for &(m, x) in &[(1, -3), (1, -2), (2, -3), (1, -1), (3, -2)] {
            let p = KarlinParams::dna(m, x);
            assert!(p.k > 0.0 && p.k < 1.0, "K({m},{x}) = {}", p.k);
        }
    }

    #[test]
    fn entropy_positive() {
        for &(m, x) in &[(1, -3), (1, -2), (2, -3)] {
            let p = KarlinParams::dna(m, x);
            assert!(p.h > 0.0);
        }
    }

    #[test]
    fn stricter_mismatch_raises_lambda() {
        // Heavier mismatch penalties make high scores rarer per unit:
        // lambda increases toward ln(4) (the identity-run limit).
        let l2 = KarlinParams::dna(1, -2).lambda;
        let l3 = KarlinParams::dna(1, -3).lambda;
        let l9 = KarlinParams::dna(1, -9).lambda;
        assert!(l2 < l3 && l3 < l9);
        assert!(l9 < (4.0f64).ln());
    }

    #[test]
    fn pmf_normalizes_weights() {
        let pmf = ScorePmf::new(&[(1, 2.0), (-3, 6.0)]);
        assert_eq!(pmf, ScorePmf::dna_uniform(1, -3));
    }

    #[test]
    fn pmf_merges_duplicates() {
        let pmf = ScorePmf::new(&[(1, 0.125), (1, 0.125), (-3, 0.75)]);
        assert_eq!(pmf, ScorePmf::dna_uniform(1, -3));
    }

    #[test]
    fn span_detection() {
        assert_eq!(ScorePmf::dna_uniform(2, -2).span(), 2);
        assert_eq!(ScorePmf::dna_uniform(1, -3).span(), 1);
        assert_eq!(ScorePmf::dna_uniform(2, -4).span(), 2);
    }

    #[test]
    fn memoised_dna_is_bit_identical_to_a_fresh_solve_from_four_threads() {
        let pairs = [(1, -3), (1, -2), (2, -3)];
        let bits = |p: KarlinParams| (p.lambda.to_bits(), p.k.to_bits(), p.h.to_bits());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..3 {
                        for &(m, x) in &pairs {
                            let fresh = KarlinParams::from_pmf(&ScorePmf::dna_uniform(m, x));
                            assert_eq!(bits(KarlinParams::dna(m, x)), bits(fresh));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn rejected_pair_panics_every_time_and_poisons_nothing() {
        for _ in 0..2 {
            // positive drift, then no positive score
            assert!(std::panic::catch_unwind(|| KarlinParams::dna(5, -1)).is_err());
            assert!(std::panic::catch_unwind(|| KarlinParams::dna(-1, -2)).is_err());
        }
        let fresh = KarlinParams::from_pmf(&ScorePmf::dna_uniform(1, -3));
        assert_eq!(KarlinParams::dna(1, -3), fresh);
    }

    #[test]
    #[should_panic]
    fn rejects_positive_drift() {
        // match-heavy distribution with positive mean is outside the regime
        let _ = ScorePmf::new(&[(5, 0.9), (-1, 0.1)]);
    }

    #[test]
    #[should_panic]
    fn rejects_all_negative() {
        let _ = ScorePmf::new(&[(-1, 0.5), (-2, 0.5)]);
    }
}
