//! The baseline's fixed differences from an ORIS run.
//!
//! The baseline takes the ORIS engine's own [`OrisConfig`]: seed length,
//! scoring, thresholds, threads and search space are shared, so the two
//! programs differ in hit detection only. What the baseline changes is
//! fixed, and lives here.

use oris_core::{FilterKind, OrisConfig};

/// Query residues per lookup-table batch. NCBI `blastall` 2.2.17 — the
/// program the paper measures — builds its lookup table over a bounded
/// batch of query sequences (about 20 kbp of concatenated nucleotides)
/// and rescans the whole database for every batch. That rescan loop is
/// the main reason BLASTN is slow on banks of many short sequences yet
/// "performs well" on a few chromosome-size ones (one batch ≈ one scan).
/// A record longer than the batch is a batch of its own. Batching changes
/// timing only: e-values are priced on the whole query bank.
pub(crate) const BATCH_NT: usize = 20_000;

/// The configuration the baseline runs for the ORIS configuration `cfg`.
/// The filter is DUST (BLASTN's `dust`) wherever ORIS masks, and none
/// where ORIS does not: the paper's two programs really differ there. The
/// lookup is full stride on the plus strand, so `asymmetric` and
/// `both_strands` are off.
pub(crate) fn baseline(cfg: &OrisConfig) -> OrisConfig {
    OrisConfig {
        filter: match cfg.filter {
            FilterKind::None => FilterKind::None,
            _ => FilterKind::Dust,
        },
        asymmetric: false,
        both_strands: false,
        ..*cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_blastn_conventions() {
        let c = baseline(&OrisConfig::default());
        assert_eq!(c.w, 11);
        assert_eq!(c.filter, FilterKind::Dust);
        assert_eq!(c.evalue_threshold, 1e-3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn matched_config_shares_thresholds() {
        let oris = OrisConfig::default();
        let b = baseline(&oris);
        assert_eq!(b.w, oris.w);
        assert_eq!(b.min_hsp_score, oris.min_hsp_score);
        assert_eq!(b.evalue_threshold, oris.evalue_threshold);
        // but the filters differ, like the real programs
        assert_eq!(b.filter, FilterKind::Dust);
        assert_eq!(oris.filter, FilterKind::Entropy);
    }

    #[test]
    fn matched_respects_no_filter() {
        let b = baseline(&OrisConfig::small(6));
        assert_eq!(b.filter, FilterKind::None);
    }
}
