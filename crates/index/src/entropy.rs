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
//! The scan is one pass over the bank's code array with a sliding base
//! count. A sentinel (between records, and at both ends) or an ambiguous
//! base resets the count, so a window never spans two records. Only full
//! windows are judged, so the window total is a constant and a base
//! count `c` can only ever contribute `p·log2 p` with `p = c / window`:
//! those `window + 1` terms are tabulated once per call, and a window's
//! entropy is four table loads and four subtractions — no `log2`, no
//! division in the loop, and the same bits as computing it afresh.
//! Low windows overlap almost always (a repeat of `n` bases yields
//! `n − window + 1` of them), so they are merged into maximal intervals
//! and each interval reaches the bit-set once, through the word-wise
//! [`MaskSet::set_range`].
//!
//! **Slices and seams.** A bank of at least two `PAR_GRAIN`s (the index
//! build's own threshold) is cut into one slice of the code array per
//! worker, and every worker scans its slice on the shim's parallel map.
//! A slice owns the windows that *end* inside it. To judge the first of
//! them it re-reads up to `window − 1` bases before its start, and it
//! starts that warm-up with an empty count, exactly as the scan does
//! after a sentinel — so a window ending at `i` is judged from the same
//! `window` bases, with the same count, whichever slice holds `i`. Each
//! slice returns its merged low intervals, and the caller sets them in
//! the bit-set. An interval may reach back over the seam into the slice
//! before, and two slices may both mark a stretch around the seam, but
//! [`MaskSet::set_range`] is idempotent, so the union needs no seam
//! logic: the mask is the same bits for any worker count. Below two
//! grains the same kernel runs once on the calling thread, without a
//! thread query, writing straight into the bit-set — which is every
//! read a batch of short queries prepares.

use oris_seqio::alphabet::is_nucleotide;
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::structure::{slice_workers, PAR_GRAIN};
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

    /// Masks low-entropy regions of `bank` (global positions), on up to
    /// `rayon::current_num_threads()` workers for a bank of at least two
    /// `PAR_GRAIN`s, on the calling thread otherwise; the mask is the same
    /// for every worker count (see the module docs' *Slices and seams*).
    pub fn mask(&self, bank: &Bank) -> MaskSet {
        self.mask_sliced(bank, PAR_GRAIN)
    }

    /// [`EntropyMasker::mask`] with the parallel grain as a parameter, so
    /// tests can cut a small bank into many slices.
    fn mask_sliced(&self, bank: &Bank, grain: usize) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());
        let terms = self.entropy_terms();
        let workers = slice_workers(data.len(), grain);
        if workers == 1 {
            self.low_intervals(data, 0, &terms, |lo, hi| mask.set_range(lo, hi));
            return mask;
        }
        let slice_len = data.len().div_ceil(workers);
        let lows: Vec<Vec<(usize, usize)>> = (0..workers)
            .into_par_iter()
            .map(|k| {
                let start = k * slice_len;
                let end = (start + slice_len).min(data.len());
                let mut lows = Vec::new();
                self.low_intervals(&data[..end], start, &terms, |lo, hi| lows.push((lo, hi)));
                lows
            })
            .collect();
        for (lo, hi) in lows.into_iter().flatten() {
            mask.set_range(lo, hi);
        }
        mask
    }

    /// The kernel: hands `emit` the maximal runs `[lo, hi)` of low windows
    /// that end at `from` or later, for windows lying wholly in `data`.
    /// It reads from `window − 1` bases before `from` with an empty count,
    /// as after a sentinel; windows ending before `from` may be reported
    /// too, and are as the whole-bank scan would judge them.
    fn low_intervals(
        &self,
        data: &[u8],
        from: usize,
        terms: &[f64],
        mut emit: impl FnMut(usize, usize),
    ) {
        let window = self.window;
        let mut counts = [0usize; 4];
        // Valid nucleotides in the window ending at `i` (≤ `window`).
        let mut filled = 0usize;
        // Union of the low windows seen so far that `emit` has not had
        // yet, as `[lo, hi)`.
        let mut pending: Option<(usize, usize)> = None;
        let warm = from.saturating_sub(window - 1);
        for (i, &c) in data.iter().enumerate().skip(warm) {
            if !is_nucleotide(c) {
                counts = [0; 4];
                filled = 0;
                continue;
            }
            counts[usize::from(c)] += 1;
            if filled == window {
                counts[usize::from(data[i - window])] -= 1;
            } else {
                filled += 1;
            }
            if filled < window {
                continue;
            }
            if Self::window_entropy(terms, &counts) < self.min_bits {
                let (lo, hi) = (i + 1 - window, i + 1);
                match &mut pending {
                    Some((_, end)) if *end >= lo => *end = hi,
                    _ => {
                        if let Some((a, b)) = pending.replace((lo, hi)) {
                            emit(a, b);
                        }
                    }
                }
            }
        }
        if let Some((a, b)) = pending {
            emit(a, b);
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

    /// The masker this module had before its slices, kept verbatim as
    /// the reference of the differential tests: one pass per record on
    /// the calling thread, each maximal run of low windows set as it
    /// closes.
    fn serial_mask(masker: &EntropyMasker, bank: &Bank) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());
        let terms = masker.entropy_terms();
        let window = masker.window;

        for rec in bank.records() {
            let seq = &data[rec.start..rec.end()];
            let mut counts = [0usize; 4];
            let mut filled = 0usize;
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
                if EntropyMasker::window_entropy(&terms, &counts) < masker.min_bits {
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

    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Records of random bases with `N` runs, poly-A and AT islands, and
    /// two-letter stretches, from `segments` of `(kind, length)`.
    fn segmented_records(seed: u64, records: &[Vec<(u8, usize)>]) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        records
            .iter()
            .map(|segments| {
                let mut codes = Vec::new();
                for &(kind, len) in segments {
                    for j in 0..len {
                        codes.push(match kind {
                            0 => (next() % 4) as u8,
                            1 => oris_seqio::AMBIG,
                            2 => 0,
                            3 => [0, 2][j % 2],
                            _ => (next() % 2) as u8,
                        });
                    }
                }
                codes
            })
            .collect()
    }

    fn bank_of_codes(records: &[Vec<u8>]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, codes) in records.iter().enumerate() {
            b.push_codes(&format!("s{i}"), codes);
        }
        b.finish()
    }

    /// Overwrites `len` bases centred on global position `at` with
    /// `pattern`, leaving sentinels where they are.
    fn paint(bank: &Bank, records: &mut [Vec<u8>], at: usize, len: usize, pattern: &[u8]) {
        let lo = at.saturating_sub(len / 2);
        for (r, rec) in bank.records().iter().enumerate() {
            for p in lo.max(rec.start)..(lo + len).min(rec.end()) {
                records[r][p - rec.start] = pattern[(p - lo) % pattern.len()];
            }
        }
    }

    #[test]
    fn a_bank_over_two_grains_masks_alike_in_any_pool() {
        // Three grains of random bases, a poly-A island across the cut of
        // a two-worker pool and an AT island across the first cut of a
        // three-worker one.
        let mut records = segmented_records(7, &[vec![(0, 3 * PAR_GRAIN)]]);
        let bank = bank_of_codes(&records);
        let len = bank.data().len();
        paint(&bank, &mut records, len.div_ceil(2), 500, &[0]);
        paint(&bank, &mut records, len.div_ceil(3), 300, &[0, 2]);
        let bank = bank_of_codes(&records);
        let masker = EntropyMasker::default();
        let oracle = serial_mask(&masker, &bank);
        assert!(oracle.masked_count() >= 800);
        for threads in [1usize, 2, 3, 4, 7] {
            let mask = in_pool(threads, || masker.mask(&bank));
            assert_eq!(mask, oracle, "threads {threads}");
        }
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// The sliced masker sets exactly the bits of the serial one, for
        /// banks cut into many slices by a small grain under pools of 1,
        /// 2, 4 and 7 workers: random records with `N` runs, poly-A, AT
        /// and two-letter stretches, a poly-A or AT island painted across
        /// every slice cut, and the default masker or any window and
        /// threshold.
        #[test]
        fn sliced_mask_equals_the_serial_mask(
            records in proptest::collection::vec(
                proptest::collection::vec(0usize..5 * 89, 0..10), 1..5),
            seed in 0u64..u64::MAX,
            grain in 1usize..300,
            island in 0usize..80,
            at_pattern in 0usize..2,
            window in 4usize..65,
            millibits in 0u32..2001,
            default_params in 0usize..3,
        ) {
            let masker = if default_params == 0 {
                EntropyMasker::default()
            } else {
                EntropyMasker::new(window, f64::from(millibits) / 1000.0)
            };
            // Each drawn number is one segment: kind, then length 1–89.
            let records: Vec<Vec<(u8, usize)>> = records
                .iter()
                .map(|r| r.iter().map(|&v| ((v % 5) as u8, 1 + v / 5)).collect())
                .collect();
            let base = segmented_records(seed, &records);
            let pattern: &[u8] = if at_pattern == 1 { &[0, 2] } else { &[0] };
            for threads in [1usize, 2, 4, 7] {
                let mut codes = base.clone();
                let layout = bank_of_codes(&codes);
                let len = layout.data().len();
                let workers = in_pool(threads, || slice_workers(len, grain));
                let slice_len = len.div_ceil(workers);
                for k in 1..workers {
                    paint(&layout, &mut codes, k * slice_len, island, pattern);
                }
                let bank = bank_of_codes(&codes);
                let oracle = serial_mask(&masker, &bank);
                let mask = in_pool(threads, || masker.mask_sliced(&bank, grain));
                proptest::prop_assert!(mask.words() == oracle.words(), "threads {}", threads);
                proptest::prop_assert_eq!(mask, oracle);
            }
        }
    }
}
