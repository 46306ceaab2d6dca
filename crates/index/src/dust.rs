//! Windowed triplet-scoring masker in the style of DUST / SDUST.
//!
//! The DUST statistic of a triplet interval is
//!
//! ```text
//! S = Σ_t c_t (c_t − 1) / 2   over the 64 triplet types,
//! score = 10 · S / (k − 1)    where k = number of triplets in the interval
//! ```
//!
//! A perfectly repetitive interval (`AAAA…`) has `S = k(k−1)/2`, score
//! ≈ 5k; a random interval keeps the score near 10·k/128. Following the
//! classic `dust` structure, the sequence is scanned in windows (default
//! 64 nt) advanced by half a window; within each window the
//! **maximum-scoring triplet subinterval** is located by exhaustive O(w²)
//! search, and masked when its score exceeds the threshold (default 20).
//! Because appending a non-repetitive triplet strictly lowers the
//! normalized score, the maximizing subinterval hugs the repetitive run
//! and the mask does not bleed into complex flanking sequence.
//!
//! Relative to the full SDUST algorithm (Morgulis et al. 2006) this keeps
//! the original windowed greedy structure rather than SDUST's
//! linear-time "perfect interval" bookkeeping — a deliberate
//! simplification: the complexity statistic and thresholds are the same,
//! only the boundary placement may differ by a few positions.
//! The paper requires exactly that the two engines' filters *differ
//! slightly* (see [`crate::EntropyMasker`], the SCORIS-N-side filter).

use oris_seqio::alphabet::is_nucleotide;
use oris_seqio::Bank;

use crate::MaskSet;

/// DUST-style windowed triplet masker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DustMasker {
    /// Window length in nucleotides (classic value 64).
    pub window: usize,
    /// Masking threshold on the ×10-scaled normalized score (classic 20).
    pub threshold: f64,
}

impl Default for DustMasker {
    fn default() -> Self {
        DustMasker {
            window: 64,
            threshold: 20.0,
        }
    }
}

impl DustMasker {
    /// Creates a masker with explicit parameters.
    pub fn new(window: usize, threshold: f64) -> DustMasker {
        assert!(window >= 5, "window must hold at least three triplets");
        DustMasker { window, threshold }
    }

    /// Masks low-complexity regions of `bank` (global positions).
    pub fn mask(&self, bank: &Bank) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());

        for rec_idx in 0..bank.num_sequences() {
            let rec = bank.record(rec_idx);
            let seq = &data[rec.start..rec.end()];
            // Process each maximal ACGT run independently; ambiguous bases
            // break complexity statistics just like sequence boundaries.
            let mut run_start = 0usize;
            let mut i = 0usize;
            while i <= seq.len() {
                let boundary = i == seq.len() || !is_nucleotide(seq[i]);
                if boundary {
                    if i > run_start {
                        self.mask_run(&seq[run_start..i], rec.start + run_start, &mut mask);
                    }
                    run_start = i + 1;
                }
                i += 1;
            }
        }
        mask
    }

    /// Masks one sentinel-free, ambiguity-free run.
    fn mask_run(&self, run: &[u8], global_offset: usize, mask: &mut MaskSet) {
        if run.len() < 5 {
            return;
        }
        // Triplet codes of the run.
        let tlen = run.len() - 2;
        let mut trips = Vec::with_capacity(tlen);
        let mut t: u8 = 0;
        for (i, &c) in run.iter().enumerate() {
            t = ((t << 2) | c) & 0b11_11_11;
            if i >= 2 {
                trips.push(t);
            }
        }

        let wtrip = self.window.saturating_sub(2).max(3);
        let step = (wtrip / 2).max(1);
        let mut ws = 0usize;
        loop {
            let we = (ws + wtrip).min(tlen);
            // Exhaustive max-scoring subinterval within [ws, we).
            let mut best_score = 0.0f64;
            let mut best = (0usize, 0usize);
            for s in ws..we {
                let mut counts = [0u16; 64];
                let mut pair = 0u32;
                for (k, &tc) in trips[s..we].iter().enumerate() {
                    let c = &mut counts[tc as usize];
                    pair += *c as u32;
                    *c += 1;
                    if k >= 1 {
                        let score = 10.0 * pair as f64 / k as f64;
                        if score > best_score {
                            best_score = score;
                            best = (s, s + k);
                        }
                    }
                }
            }
            if best_score > self.threshold {
                // Triplets [best.0, best.1] cover nucleotides
                // [best.0, best.1 + 2].
                mask.set_range(global_offset + best.0, global_offset + best.1 + 3);
            }
            if we == tlen {
                break;
            }
            ws += step;
        }
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

    fn masked_chars(b: &Bank, m: &MaskSet) -> usize {
        let rec = b.record(0);
        (rec.start..rec.end()).filter(|&p| m.contains(p)).count()
    }

    #[test]
    fn homopolymer_is_masked() {
        let b = bank(&"A".repeat(100));
        let m = DustMasker::default().mask(&b);
        assert!(
            masked_chars(&b, &m) > 90,
            "masked {} of 100",
            masked_chars(&b, &m)
        );
    }

    #[test]
    fn dinucleotide_repeat_is_masked() {
        let b = bank(&"AT".repeat(50));
        let m = DustMasker::default().mask(&b);
        assert!(masked_chars(&b, &m) > 90);
    }

    #[test]
    fn random_like_sequence_not_masked() {
        let s = "ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGATACGTAGCTAGCTAGGCATCG";
        let b = bank(s);
        let m = DustMasker::default().mask(&b);
        assert_eq!(
            masked_chars(&b, &m),
            0,
            "masked {} of {}",
            masked_chars(&b, &m),
            s.len()
        );
    }

    #[test]
    fn repeat_island_in_random_sea() {
        let clean = "ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGAT";
        let island = "CACACACACACACACACACACACACACACACA";
        let s = format!("{clean}{island}{clean}");
        let b = bank(&s);
        let m = DustMasker::default().mask(&b);
        let rec = b.record(0);
        // island center masked
        let mid = rec.start + clean.len() + island.len() / 2;
        assert!(m.contains(mid), "island center not masked");
        // clean flanks stay clear
        assert!(!m.contains(rec.start + 5), "left flank masked");
        assert!(!m.contains(rec.end() - 5), "right flank masked");
    }

    #[test]
    fn mask_hugs_the_repeat_boundaries() {
        let clean = "ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGAT";
        let island = "A".repeat(30);
        let s = format!("{clean}{island}{clean}");
        let b = bank(&s);
        let m = DustMasker::default().mask(&b);
        let rec = b.record(0);
        let intervals: Vec<(usize, usize)> = m
            .intervals()
            .into_iter()
            .map(|(a, e)| (a - rec.start, e - rec.start))
            .collect();
        assert_eq!(intervals.len(), 1, "{intervals:?}");
        let (a, e) = intervals[0];
        // boundary placement within a few nt of the island
        assert!(a >= clean.len().saturating_sub(4), "start {a}");
        assert!(e <= clean.len() + island.len() + 4, "end {e}");
    }

    #[test]
    fn ambiguous_bases_reset_window() {
        let s = format!("{}N{}", "A".repeat(40), "A".repeat(40));
        let b = bank(&s);
        let m = DustMasker::default().mask(&b);
        let rec = b.record(0);
        assert!(m.contains(rec.start + 20));
        assert!(m.contains(rec.start + 60));
        assert!(!m.contains(rec.start + 40)); // the N itself
    }

    #[test]
    fn mask_does_not_cross_sequences() {
        let mut bb = BankBuilder::new();
        bb.push_str("a", &"A".repeat(40)).unwrap();
        bb.push_str("b", "ACGTTGCAATCGGATCCTAG").unwrap();
        let b = bb.finish();
        let m = DustMasker::default().mask(&b);
        let rec_b = b.record(1);
        for p in rec_b.start..rec_b.end() {
            assert!(!m.contains(p), "position {p} wrongly masked");
        }
    }

    #[test]
    fn threshold_controls_aggressiveness() {
        let s = "ACACGTGTACACGTGTACACGTGTACACGTGT"; // moderate repeat
        let strict = DustMasker::new(64, 5.0).mask(&bank(s));
        let lax = DustMasker::new(64, 100.0).mask(&bank(s));
        assert!(strict.masked_count() > lax.masked_count());
        assert_eq!(lax.masked_count(), 0);
    }

    #[test]
    fn empty_bank() {
        let b = Bank::empty();
        let m = DustMasker::default().mask(&b);
        assert_eq!(m.masked_count(), 0);
    }

    #[test]
    fn long_repeat_fully_covered_by_stepping() {
        let s = format!("{}{}", "AGTC".repeat(30), "AAATTT".repeat(20));
        let b = bank(&s);
        let m = DustMasker::default().mask(&b);
        let rec = b.record(0);
        // the AAATTT region is repetitive at the triplet level; its tail
        // must be masked even though it lies several windows in
        assert!(m.contains(rec.end() - 10));
    }

    #[test]
    fn score_matches_hand_computation() {
        // 10 consecutive "AAA" triplets: S = 10·9/2 = 45, k−1 = 9 →
        // score 50 > 20 → masked. 12 A's give exactly 10 triplets.
        let b = bank(&"A".repeat(12));
        let m = DustMasker::default().mask(&b);
        assert_eq!(masked_chars(&b, &m), 12);
    }
}
