//! ORIS pipeline configuration.

use oris_align::gapped::MAX_XDROP;
use oris_align::ScoringScheme;

use crate::space::SubjectSpace;

/// Which low-complexity filter to apply before indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// No filtering.
    None,
    /// The windowed-entropy filter (the SCORIS-N-side filter, see
    /// `oris_index::EntropyMasker`). This is the ORIS default.
    Entropy,
    /// The DUST-style triplet filter (what BLASTN uses).
    Dust,
}

impl FilterKind {
    /// Stable numeric tag stored in persisted index files
    /// (`oris_index::IndexMeta::filter_code`), so a loader can refuse an
    /// index prepared under a different filter than the run requests.
    pub fn code(self) -> u32 {
        match self {
            FilterKind::None => 0,
            FilterKind::Entropy => 1,
            FilterKind::Dust => 2,
        }
    }

    /// Inverse of [`FilterKind::code`]; `None` for unknown tags (an index
    /// written by a newer filter this build does not know).
    pub fn from_code(code: u32) -> Option<FilterKind> {
        match code {
            0 => Some(FilterKind::None),
            1 => Some(FilterKind::Entropy),
            2 => Some(FilterKind::Dust),
            _ => None,
        }
    }
}

/// The `-f` / `--filter` spelling shared by the command-line tools:
/// `none`, `entropy` or `dust`.
impl std::str::FromStr for FilterKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FilterKind, String> {
        match s {
            "none" => Ok(FilterKind::None),
            "entropy" => Ok(FilterKind::Entropy),
            "dust" => Ok(FilterKind::Dust),
            other => Err(format!("unknown filter {other:?}")),
        }
    }
}

/// The `-f` spelling, as [`FromStr`](std::str::FromStr) reads it.
impl std::fmt::Display for FilterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FilterKind::None => "none",
            FilterKind::Entropy => "entropy",
            FilterKind::Dust => "dust",
        })
    }
}

/// Configuration of the ORIS pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrisConfig {
    /// Seed length `W` (the paper uses 11; asymmetric mode uses `W − 1`).
    pub w: usize,
    /// X-drop for the ungapped (step 2) extension.
    pub xdrop_ungapped: i32,
    /// X-drop for the gapped (step 3) extension.
    pub xdrop_gapped: i32,
    /// Minimum HSP score to keep after step 2 (the paper's `S1`).
    pub min_hsp_score: i32,
    /// E-value threshold on final alignments (the paper runs `-e 0.001`).
    pub evalue_threshold: f64,
    /// Scoring scheme (shared by both extension stages).
    pub scheme: ScoringScheme,
    /// Low-complexity filter applied before indexing.
    pub filter: FilterKind,
    /// Asymmetric indexing (paper section 3.4): index `W − 1`-mers, every
    /// position on bank 1 but only every other position on bank 2. All
    /// `W`-mer seed matches are still anchored, plus ~50 % of the
    /// `(W−1)`-mer ones.
    pub asymmetric: bool,
    /// Also search the complementary strand of bank 2 (the paper's
    /// announced next-release feature; BLASTN's `-S 3`). Minus-strand
    /// alignments are reported BLAST-style with `sstart > send`.
    pub both_strands: bool,
    /// Worker threads for steps 1–3. `None` = rayon's global default;
    /// `Some(1)` = fully sequential (reference behaviour).
    pub threads: Option<usize>,
    /// Subject-side effective search space for e-values
    /// ([`crate::SubjectSpace`]): the SCORIS-N per-sequence
    /// convention by default; `Database(total)` for sharded-database
    /// searches, where `total` comes from the database manifest so every
    /// volume prices alignments over the same database-wide space.
    pub subject_space: SubjectSpace,
}

impl Default for OrisConfig {
    fn default() -> Self {
        OrisConfig {
            w: 11,
            xdrop_ungapped: 20,
            xdrop_gapped: 25,
            min_hsp_score: 18,
            evalue_threshold: 1e-3,
            scheme: ScoringScheme::blastn(),
            filter: FilterKind::Entropy,
            asymmetric: false,
            both_strands: false,
            threads: None,
            subject_space: SubjectSpace::PerSequence,
        }
    }
}

impl OrisConfig {
    /// A configuration for small inputs (tests, examples): short seeds and
    /// a permissive e-value so toy banks produce alignments.
    pub fn small(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: (w as i32) + 4,
            evalue_threshold: 10.0,
            filter: FilterKind::None,
            ..Default::default()
        }
    }

    /// The effective indexed word length (`W`, or `W − 1` in asymmetric
    /// mode).
    pub fn indexed_w(&self) -> usize {
        if self.asymmetric {
            self.w.saturating_sub(1).max(1)
        } else {
            self.w
        }
    }

    /// Index configuration for the query side (bank 1): always full
    /// stride at the effective word length.
    pub fn query_index_config(&self) -> oris_index::IndexConfig {
        oris_index::IndexConfig::full(self.indexed_w())
    }

    /// Index configuration for the subject side (bank 2): stride 2 in
    /// asymmetric mode (section 3.4), full otherwise. This is the
    /// configuration `makedb` indexes a volume under, and the one a
    /// database session checks against the manifest.
    pub fn subject_index_config(&self) -> oris_index::IndexConfig {
        if self.asymmetric {
            oris_index::IndexConfig::asymmetric(self.indexed_w())
        } else {
            oris_index::IndexConfig::full(self.indexed_w())
        }
    }

    /// Validates invariants; returns a human-readable complaint if any.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=oris_index::MAX_SEED_LEN).contains(&self.indexed_w()) {
            return Err(format!(
                "indexed word length {} outside 1..={}",
                self.indexed_w(),
                oris_index::MAX_SEED_LEN
            ));
        }
        if self.xdrop_ungapped <= 0 || self.xdrop_gapped <= 0 {
            return Err("x-drop thresholds must be positive".into());
        }
        // The gapped kernel's dead cells sit a fixed margin below every
        // live one; an x-drop past the bound would let them pass the test
        // (and every extension would fill its cell cap long before that).
        if self.xdrop_gapped > MAX_XDROP {
            return Err(format!(
                "gapped x-drop {} exceeds the maximum {MAX_XDROP}",
                self.xdrop_gapped
            ));
        }
        // NaN is refused with the non-positive values: `evalue > NaN` is
        // never true, which would switch the e-value filter off. An
        // infinite threshold stays legal — it is the explicit "no filter".
        if self.evalue_threshold.is_nan() || self.evalue_threshold <= 0.0 {
            return Err("e-value threshold must be positive".into());
        }
        if let Some(t) = self.threads {
            if t == 0 {
                return Err("thread count must be ≥ 1".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(OrisConfig::default().validate(), Ok(()));
    }

    #[test]
    fn filter_names_parse_and_unknown_ones_say_so() {
        assert_eq!("none".parse(), Ok(FilterKind::None));
        assert_eq!("entropy".parse(), Ok(FilterKind::Entropy));
        assert_eq!("dust".parse(), Ok(FilterKind::Dust));
        for kind in [FilterKind::None, FilterKind::Entropy, FilterKind::Dust] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        let err = "Dust".parse::<FilterKind>().unwrap_err();
        assert_eq!(err, "unknown filter \"Dust\"");
    }

    #[test]
    fn paper_defaults() {
        let c = OrisConfig::default();
        assert_eq!(c.w, 11);
        assert_eq!(c.evalue_threshold, 1e-3);
    }

    #[test]
    fn asymmetric_uses_w_minus_one() {
        let c = OrisConfig {
            asymmetric: true,
            ..Default::default()
        };
        assert_eq!(c.indexed_w(), 10);
        let plain = OrisConfig::default();
        assert_eq!(plain.indexed_w(), 11);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // mutating one field per probe is the point
    fn validation_catches_bad_values() {
        let mut c = OrisConfig::default();
        c.w = 99;
        assert!(c.validate().is_err());
        let mut c = OrisConfig::default();
        c.xdrop_ungapped = 0;
        assert!(c.validate().is_err());
        let mut c = OrisConfig::default();
        c.threads = Some(0);
        assert!(c.validate().is_err());
        let mut c = OrisConfig::default();
        c.evalue_threshold = -1.0;
        assert!(c.validate().is_err());
        let mut c = OrisConfig::default();
        c.evalue_threshold = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = OrisConfig::default();
        c.evalue_threshold = f64::INFINITY;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn gapped_xdrop_is_bounded_by_the_kernel_margin() {
        let at = |xdrop_gapped| OrisConfig {
            xdrop_gapped,
            ..OrisConfig::default()
        };
        assert_eq!(at(MAX_XDROP).validate(), Ok(()));
        assert_eq!(
            at(MAX_XDROP + 1).validate(),
            Err("gapped x-drop 1048577 exceeds the maximum 1048576".into())
        );
        assert!(at(600_000_000).validate().is_err());
        assert!(at(i32::MAX).validate().is_err());
    }

    #[test]
    fn small_config_is_valid() {
        assert_eq!(OrisConfig::small(6).validate(), Ok(()));
    }
}
