//! Ablation A1 — the counterfactual the paper argues against.
//!
//! "Without such a condition the same HSP would be produced in multiple
//! copies, leading to add a costly procedure to suppress all the
//! duplicates." This module *is* that costly procedure: the same seed
//! enumeration with the order guard disabled, followed by hash-set
//! duplicate suppression. Experiment A1 of `reproduce` measures the
//! difference; the tests here verify both variants agree on the final
//! HSP set. It is reproduction code, so it lives here and not in the
//! engine.

use std::collections::HashSet;

use oris_align::OrderGuard;
use oris_core::step2::{find_hsps_guarded, Step2Stats};
use oris_core::{Deadline, Hsp, OrisConfig};
use oris_index::BankIndex;
use oris_seqio::Bank;

/// Counters for the unordered + dedup variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// HSPs produced by extensions before suppression.
    pub raw_hsps: u64,
    /// Duplicates removed by the hash set.
    pub duplicates_removed: u64,
    /// Step-2 counters of the underlying enumeration.
    pub step2: Step2Stats,
}

/// Step 2 without the ordered-seed rule: every hit extends fully, then
/// duplicates are suppressed with a hash set keyed on the HSP extent.
pub fn find_hsps_unordered_dedup(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
) -> (Vec<Hsp>, DedupStats) {
    let (raw, s2) = find_hsps_guarded(
        bank1,
        idx1,
        bank2,
        idx2,
        cfg,
        OrderGuard::None,
        &Deadline::none(),
    )
    .expect("a disarmed deadline cannot expire");
    let mut seen: HashSet<(u32, u32, u32)> = HashSet::with_capacity(raw.len());
    let mut out = Vec::with_capacity(raw.len());
    for h in &raw {
        if seen.insert((h.start1, h.start2, h.len)) {
            out.push(*h);
        }
    }
    let stats = DedupStats {
        raw_hsps: raw.len() as u64,
        duplicates_removed: (raw.len() - out.len()) as u64,
        step2: s2,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_index::IndexConfig;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    #[test]
    fn ordered_and_dedup_agree_on_hsp_set() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGG";
        let b1 = bank(&[&format!("TTAACC{core}GGTTAA"), "GGCCAATTGGCCAATT"]);
        let b2 = bank(&[&format!("CCGG{core}AATT")]);
        let cfg = OrisConfig {
            w: 6,
            min_hsp_score: 8,
            ..OrisConfig::small(6)
        };
        let i1 = BankIndex::build(&b1, IndexConfig::full(cfg.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(cfg.w));

        let (ordered, _) = oris_core::step2::find_hsps(&b1, &i1, &b2, &i2, &cfg);
        let (dedup, stats) = find_hsps_unordered_dedup(&b1, &i1, &b2, &i2, &cfg);

        let set_a: HashSet<(u32, u32, u32)> = ordered
            .iter()
            .map(|h| (h.start1, h.start2, h.len))
            .collect();
        let set_b: HashSet<(u32, u32, u32)> =
            dedup.iter().map(|h| (h.start1, h.start2, h.len)).collect();
        assert_eq!(set_a, set_b);
        // The long shared core is anchored by many seeds: the unordered
        // variant must have produced real duplicates.
        assert!(stats.duplicates_removed > 0, "{stats:?}");
    }

    #[test]
    fn duplicate_volume_grows_with_homology_length() {
        let short_core = "ATGGCGTACGTTAGCC";
        let long_core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTTGCA";
        let cfg = OrisConfig {
            w: 6,
            min_hsp_score: 8,
            ..OrisConfig::small(6)
        };
        let run = |core: &str| {
            let b1 = bank(&[core]);
            let b2 = bank(&[core]);
            let i1 = BankIndex::build(&b1, IndexConfig::full(cfg.w));
            let i2 = BankIndex::build(&b2, IndexConfig::full(cfg.w));
            find_hsps_unordered_dedup(&b1, &i1, &b2, &i2, &cfg).1
        };
        let s_short = run(short_core);
        let s_long = run(long_core);
        assert!(s_long.duplicates_removed > s_short.duplicates_removed);
    }
}
