//! BLASTN-like baseline configuration.

use oris_align::ScoringScheme;
use oris_core::FilterKind;

/// Configuration of the BLASTN-style baseline.
///
/// Mirrors [`oris_core::OrisConfig`] field-for-field where the stages are
/// shared, so experiments can run both engines with identical scoring,
/// thresholds and seed length — only the hit-detection machinery differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlastConfig {
    /// Seed (word) length `W`; BLASTN's default for DNA is 11.
    pub w: usize,
    /// X-drop for the ungapped extension.
    pub xdrop_ungapped: i32,
    /// X-drop for the gapped extension.
    pub xdrop_gapped: i32,
    /// Minimum HSP score kept after the scan.
    pub min_hsp_score: i32,
    /// E-value threshold on final alignments.
    pub evalue_threshold: f64,
    /// Scoring scheme.
    pub scheme: ScoringScheme,
    /// Low-complexity filter (BLASTN runs DUST by default).
    pub filter: FilterKind,
    /// Worker threads (`None` = rayon global default).
    pub threads: Option<usize>,
    /// Query batching in nucleotides (`None` = one pass with the whole
    /// query bank in the lookup table).
    ///
    /// NCBI `blastall` 2.2.17 — the program the paper measures — builds
    /// its lookup table over a bounded *batch* of query sequences
    /// (roughly 20 kbp of concatenated nucleotide queries) and rescans
    /// the entire database for every batch. That rescan loop is the main
    /// reason BLASTN is slow on many-short-sequence banks yet "performs
    /// well" on a few chromosome-size sequences (one batch ≈ one scan).
    /// [`BlastConfig::blastall_like`] enables this behaviour; batching
    /// changes timing only — reported records are identical (verified by
    /// tests).
    pub batch_nt: Option<usize>,
    /// Subject-side effective search space for e-values (mirrors
    /// [`oris_core::OrisConfig::subject_space`], so a database-wide
    /// `--dbsize` run prices both engines' alignments identically).
    pub subject_space: oris_core::SubjectSpace,
}

impl Default for BlastConfig {
    fn default() -> Self {
        BlastConfig {
            w: 11,
            xdrop_ungapped: 20,
            xdrop_gapped: 25,
            min_hsp_score: 18,
            evalue_threshold: 1e-3,
            scheme: ScoringScheme::blastn(),
            filter: FilterKind::Dust,
            threads: None,
            batch_nt: None,
            subject_space: oris_core::SubjectSpace::PerSequence,
        }
    }
}

impl BlastConfig {
    /// Small-input configuration for tests and examples.
    pub fn small(w: usize) -> BlastConfig {
        BlastConfig {
            w,
            min_hsp_score: (w as i32) + 4,
            evalue_threshold: 10.0,
            filter: FilterKind::None,
            ..Default::default()
        }
    }

    /// A configuration matched to an ORIS configuration: same scoring,
    /// seed length and thresholds, but each engine keeps its own filter
    /// (the paper's two programs genuinely differ there).
    pub fn matched(oris: &oris_core::OrisConfig) -> BlastConfig {
        BlastConfig {
            w: oris.w,
            xdrop_ungapped: oris.xdrop_ungapped,
            xdrop_gapped: oris.xdrop_gapped,
            min_hsp_score: oris.min_hsp_score,
            evalue_threshold: oris.evalue_threshold,
            scheme: oris.scheme,
            filter: if oris.filter == FilterKind::None {
                FilterKind::None
            } else {
                FilterKind::Dust
            },
            threads: oris.threads,
            batch_nt: None,
            subject_space: oris.subject_space,
        }
    }

    /// The blastall-2.2.17-like configuration the paper's timings are
    /// against: ~20 kbp query batches, full database rescan per batch.
    pub fn blastall_like(oris: &oris_core::OrisConfig) -> BlastConfig {
        BlastConfig {
            batch_nt: Some(20_000),
            ..BlastConfig::matched(oris)
        }
    }

    /// Converts to the core config driving the shared gapped stage.
    pub fn as_oris(&self) -> oris_core::OrisConfig {
        oris_core::OrisConfig {
            w: self.w,
            xdrop_ungapped: self.xdrop_ungapped,
            xdrop_gapped: self.xdrop_gapped,
            min_hsp_score: self.min_hsp_score,
            evalue_threshold: self.evalue_threshold,
            scheme: self.scheme,
            filter: self.filter,
            asymmetric: false,
            both_strands: false,
            threads: self.threads,
            subject_space: self.subject_space,
        }
    }

    /// Validates invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.as_oris().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_blastn_conventions() {
        let c = BlastConfig::default();
        assert_eq!(c.w, 11);
        assert_eq!(c.filter, FilterKind::Dust);
        assert_eq!(c.evalue_threshold, 1e-3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn matched_config_shares_thresholds() {
        let oris = oris_core::OrisConfig::default();
        let b = BlastConfig::matched(&oris);
        assert_eq!(b.w, oris.w);
        assert_eq!(b.min_hsp_score, oris.min_hsp_score);
        assert_eq!(b.evalue_threshold, oris.evalue_threshold);
        // but the filters differ, like the real programs
        assert_eq!(b.filter, FilterKind::Dust);
        assert_eq!(oris.filter, FilterKind::Entropy);
    }

    #[test]
    fn matched_respects_no_filter() {
        let oris = oris_core::OrisConfig::small(6);
        let b = BlastConfig::matched(&oris);
        assert_eq!(b.filter, FilterKind::None);
    }
}
