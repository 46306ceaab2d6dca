//! Windowed Shannon-entropy masker — the "SCORIS-N side" filter.
//!
//! The paper states SCORIS-N's low-complexity filter differs from BLASTN's
//! dust (\[14\]) and charges part of the sensitivity gap to that difference.
//! We model SCORIS-N's filter as a windowed mononucleotide-entropy test:
//! a window is low-complexity when the Shannon entropy of its base
//! composition falls below a threshold (in bits; a uniform window has 2
//! bits, a homopolymer 0).
//!
//! Entropy and triplet scores disagree on the margins — e.g. a perfect
//! `ACGTACGT…` repeat has maximal mononucleotide entropy (2 bits, never
//! masked here) but an extreme triplet score (always masked by DUST) —
//! which is precisely the kind of discrepancy the paper describes.
//!
//! The scan is one pass per record with a sliding base count. Only full
//! windows are judged, so the window total is a constant and a base
//! count `c` can only ever contribute `p·log2 p` with `p = c / window`:
//! those `window + 1` terms are tabulated once per call, and a window's
//! entropy is four table loads and four subtractions — no `log2`, no
//! division in the loop, and the same bits as computing it afresh.
//! Low windows overlap almost always (a repeat of `n` bases yields
//! `n − window + 1` of them), so they are merged into maximal intervals
//! and each interval reaches the bit-set once, through the word-wise
//! [`MaskSet::set_range`].

use oris_seqio::alphabet::is_nucleotide;
use oris_seqio::Bank;

use crate::MaskSet;

/// Windowed Shannon-entropy low-complexity masker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyMasker {
    /// Window length in nucleotides.
    pub window: usize,
    /// Mask windows with entropy strictly below this many bits.
    pub min_bits: f64,
}

impl Default for EntropyMasker {
    fn default() -> Self {
        // A 20-nt window catches the short poly-A tails and
        // microsatellites that dominate spurious EST hits (a longer
        // window dilutes a short tail below the threshold), while random
        // 20-mers sit near 1.9 bits — comfortably above 1.25.
        EntropyMasker {
            window: 20,
            min_bits: 1.25,
        }
    }
}

impl EntropyMasker {
    /// Creates a masker with explicit parameters.
    pub fn new(window: usize, min_bits: f64) -> EntropyMasker {
        assert!(window >= 4);
        assert!((0.0..=2.0).contains(&min_bits));
        EntropyMasker { window, min_bits }
    }

    /// `p·log2 p` for every count a base can reach in a full window
    /// (`p = count / window`; 0 for an absent base).
    fn entropy_terms(&self) -> Vec<f64> {
        let total = self.window as f64;
        (0..=self.window)
            .map(|c| {
                if c == 0 {
                    0.0
                } else {
                    let p = c as f64 / total;
                    p * p.log2()
                }
            })
            .collect()
    }

    /// Shannon entropy (bits) of a full window from its base counts.
    /// Same operand order as summing `−p·log2 p` over the four counts
    /// from 0.0, so a threshold comparison sees the same bits.
    #[inline]
    fn window_entropy(terms: &[f64], counts: &[usize; 4]) -> f64 {
        0.0 - terms[counts[0]] - terms[counts[1]] - terms[counts[2]] - terms[counts[3]]
    }

    /// Masks low-entropy regions of `bank` (global positions).
    pub fn mask(&self, bank: &Bank) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());
        let terms = self.entropy_terms();
        let window = self.window;

        for rec in bank.records() {
            let seq = &data[rec.start..rec.end()];
            let mut counts = [0usize; 4];
            // Valid nucleotides in the window ending at `i` (≤ `window`).
            let mut filled = 0usize;
            // Union of the low windows seen so far that is not in the
            // mask yet, as record-local `[lo, hi)`.
            let mut pending: Option<(usize, usize)> = None;
            for (i, &c) in seq.iter().enumerate() {
                if !is_nucleotide(c) {
                    counts = [0; 4];
                    filled = 0;
                    continue;
                }
                counts[usize::from(c)] += 1;
                if filled == window {
                    counts[usize::from(seq[i - window])] -= 1;
                } else {
                    filled += 1;
                }
                if filled < window {
                    continue;
                }
                if Self::window_entropy(&terms, &counts) < self.min_bits {
                    let (lo, hi) = (i + 1 - window, i + 1);
                    match &mut pending {
                        Some((_, end)) if *end >= lo => *end = hi,
                        _ => {
                            if let Some((a, b)) = pending.replace((lo, hi)) {
                                mask.set_range(rec.start + a, rec.start + b);
                            }
                        }
                    }
                }
            }
            if let Some((a, b)) = pending {
                mask.set_range(rec.start + a, rec.start + b);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;

    fn bank(s: &str) -> Bank {
        let mut b = BankBuilder::new();
        b.push_str("s", s).unwrap();
        b.finish()
    }

    #[test]
    fn homopolymer_masked() {
        let b = bank(&"T".repeat(100));
        let m = EntropyMasker::default().mask(&b);
        assert!(m.masked_count() >= 95);
    }

    #[test]
    fn two_letter_repeat_masked() {
        // AT repeat: entropy 1.0 bit < 1.2 threshold.
        let b = bank(&"AT".repeat(50));
        let m = EntropyMasker::default().mask(&b);
        assert!(m.masked_count() >= 95);
    }

    #[test]
    fn acgt_repeat_not_masked_unlike_dust() {
        // The documented divergence from DUST: maximal mononucleotide
        // entropy, extreme triplet repetitiveness.
        let b = bank(&"ACGT".repeat(30));
        let ent = EntropyMasker::default().mask(&b);
        assert_eq!(ent.masked_count(), 0);
        let dust = crate::DustMasker::default().mask(&b);
        assert!(dust.masked_count() > 100);
    }

    #[test]
    fn diverse_sequence_clear() {
        let s = "ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGATACGTAGCTAGCTAGGCATCG";
        let b = bank(s);
        let m = EntropyMasker::default().mask(&b);
        assert_eq!(m.masked_count(), 0);
    }

    #[test]
    fn window_shorter_than_sequence_required() {
        // Sequences shorter than the window are never masked (no full
        // window forms).
        let b = bank(&"A".repeat(30));
        let m = EntropyMasker::new(48, 1.2).mask(&b);
        assert_eq!(m.masked_count(), 0);
    }

    #[test]
    fn ambiguous_base_resets() {
        let s = format!("{}N{}", "A".repeat(60), "A".repeat(15));
        let b = bank(&s);
        let m = EntropyMasker::default().mask(&b);
        let rec = b.record(0);
        assert!(m.contains(rec.start + 30));
        // The 15-long tail after the N never fills a 20-window.
        assert!(!m.contains(rec.start + 70));
        assert!(!m.contains(rec.start + 60)); // the N itself
    }

    #[test]
    fn entropy_of_uniform_is_two_bits() {
        let terms = EntropyMasker::new(100, 1.0).entropy_terms();
        let h = |counts| EntropyMasker::window_entropy(&terms, &counts);
        assert!((h([25, 25, 25, 25]) - 2.0).abs() < 1e-12);
        assert_eq!(h([100, 0, 0, 0]), 0.0);
    }

    /// Shannon entropy (bits) of base counts, as the old masker computed
    /// it per window.
    fn entropy_bits(counts: &[u32; 4], total: u32) -> f64 {
        if total == 0 {
            return 2.0;
        }
        let mut h = 0.0f64;
        for &c in counts {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// The masker this module had before the term table, kept verbatim
    /// (one `log2` and one division per present base per window, the
    /// whole window re-set per low window) as the reference of
    /// `mask_matches_the_per_window_formula`.
    fn per_window_formula_mask(masker: &EntropyMasker, bank: &Bank) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());
        for rec_idx in 0..bank.num_sequences() {
            let rec = bank.record(rec_idx);
            let seq = &data[rec.start..rec.end()];
            let mut counts = [0u32; 4];
            let mut run_start = 0usize; // start of the current valid run
            let mut i = 0usize;
            while i < seq.len() {
                let c = seq[i];
                if !is_nucleotide(c) {
                    counts = [0; 4];
                    run_start = i + 1;
                    i += 1;
                    continue;
                }
                counts[c as usize] += 1;
                let in_window = i + 1 - run_start;
                if in_window > masker.window {
                    counts[seq[i - masker.window] as usize] -= 1;
                    run_start = i + 1 - masker.window;
                }
                let total = (i + 1 - run_start) as u32;
                if total as usize == masker.window && entropy_bits(&counts, total) < masker.min_bits
                {
                    for p in rec.start + run_start..rec.start + i + 1 {
                        mask.set(p);
                    }
                }
                i += 1;
            }
        }
        mask
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// The table-driven masker sets exactly the bits the per-window
        /// formula sets: several records, `N` resets, runs shorter than
        /// the window, compositions sitting on the threshold (low-entropy
        /// stretches over two or three letters), windows 4–64 and
        /// thresholds across the whole 0–2 bit range.
        #[test]
        fn mask_matches_the_per_window_formula(
            seqs in proptest::collection::vec("[ACGTN]{0,90}[AT]{0,70}[ACG]{0,70}[ACGT]{0,40}N{0,2}[A]{0,70}", 1..4),
            window in 4usize..65,
            millibits in 0u32..2001,
            on_threshold in proptest::collection::vec(0usize..65, 3),
        ) {
            let mut b = BankBuilder::new();
            for (i, s) in seqs.iter().enumerate() {
                b.push_str(&format!("s{i}"), s).unwrap();
            }
            // Every other case puts the threshold exactly on the entropy
            // of a composition the bank holds in every window of one
            // record, so a last-bit difference in `h` flips the outcome.
            let mut min_bits = f64::from(millibits) / 1000.0;
            if millibits % 2 == 0 {
                let a = on_threshold[0] % (window + 1);
                let c = on_threshold[1] % (window - a + 1);
                let t = on_threshold[2] % (window - a - c + 1);
                let g = window - a - c - t;
                let period = ["A".repeat(a), "C".repeat(c), "T".repeat(t), "G".repeat(g)].concat();
                b.push_str("periodic", &period.repeat(3)).unwrap();
                let counts = [a as u32, c as u32, t as u32, g as u32];
                min_bits = entropy_bits(&counts, window as u32);
            }
            let bank = b.finish();
            let masker = EntropyMasker::new(window, min_bits);
            proptest::prop_assert_eq!(masker.mask(&bank), per_window_formula_mask(&masker, &bank));
        }
    }
}
