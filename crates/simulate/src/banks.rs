//! The paper's section-3.2 data-set table, regenerated synthetically.
//!
//! Every bank of the paper gets a named analogue here, scaled down 10×
//! (EST banks) or 20× (large banks) so the full experiment grid runs on a
//! laptop ([`paper_bank_specs`] is the table). The `scale` parameter
//! multiplies sizes further (e.g. `scale = 0.1` for quick tests;
//! `scale = 1.0` is the standard reduced grid).
//!
//! All EST banks sample the **same** gene pool and all genome banks embed
//! the **same** repeat library (both fixed-seed), which is what produces
//! cross-bank homology, exactly as the paper's banks share GenBank genes
//! and genomic repeat families.

use oris_seqio::Bank;

use crate::est::{est_bank_with_contaminants, EstBankConfig, GenePool};
use crate::genome::{genome_bank, GenomeConfig, RepeatLibrary};

/// What kind of data a bank analogue models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankKind {
    /// Short expressed-sequence-tag reads (EST1–EST7).
    Est,
    /// Many short viral genomes (VRL / gbvrl1).
    Viral,
    /// Few bacterial genomes (BCT).
    Bacterial,
    /// Chromosome-scale human sequence (H10, H19).
    Chromosome,
}

/// One row of the paper's data-set table with its scaled-down target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankSpec {
    /// Bank name as used in the paper (EST1 … H19).
    pub name: &'static str,
    /// Kind of generator used.
    pub kind: BankKind,
    /// The original size reported in the paper (Mbp).
    pub paper_mbp: f64,
    /// Original number of sequences in the paper.
    pub paper_seqs: usize,
    /// Residues generated at `scale = 1.0`.
    pub unit_nt: usize,
    /// Sequences generated at `scale = 1.0` (genome kinds only; EST/viral
    /// sequence counts follow from the size).
    pub unit_seqs: usize,
    /// Deterministic per-bank seed.
    pub seed: u64,
}

/// Global simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Size multiplier applied to every `unit_nt` (1.0 = the reduced grid
    /// of [`paper_bank_specs`]).
    pub scale: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { scale: 1.0 }
    }
}

/// A generated bank together with its paper name.
#[derive(Debug, Clone)]
pub struct NamedBank {
    /// Paper name (EST1 … H19).
    pub name: String,
    /// The generated bank.
    pub bank: Bank,
}

/// The full data-set table (paper section 3.2), reduced 10×/20×.
pub fn paper_bank_specs() -> Vec<BankSpec> {
    use BankKind::*;
    vec![
        BankSpec {
            name: "EST1",
            kind: Est,
            paper_mbp: 6.44,
            paper_seqs: 13013,
            unit_nt: 644_000,
            unit_seqs: 0,
            seed: 101,
        },
        BankSpec {
            name: "EST2",
            kind: Est,
            paper_mbp: 6.65,
            paper_seqs: 11220,
            unit_nt: 665_000,
            unit_seqs: 0,
            seed: 102,
        },
        BankSpec {
            name: "EST3",
            kind: Est,
            paper_mbp: 14.64,
            paper_seqs: 37483,
            unit_nt: 1_464_000,
            unit_seqs: 0,
            seed: 103,
        },
        BankSpec {
            name: "EST4",
            kind: Est,
            paper_mbp: 14.87,
            paper_seqs: 34902,
            unit_nt: 1_487_000,
            unit_seqs: 0,
            seed: 104,
        },
        BankSpec {
            name: "EST5",
            kind: Est,
            paper_mbp: 25.48,
            paper_seqs: 50537,
            unit_nt: 2_548_000,
            unit_seqs: 0,
            seed: 105,
        },
        BankSpec {
            name: "EST6",
            kind: Est,
            paper_mbp: 25.20,
            paper_seqs: 53550,
            unit_nt: 2_520_000,
            unit_seqs: 0,
            seed: 106,
        },
        BankSpec {
            name: "EST7",
            kind: Est,
            paper_mbp: 40.08,
            paper_seqs: 88452,
            unit_nt: 4_008_000,
            unit_seqs: 0,
            seed: 107,
        },
        BankSpec {
            name: "VRL",
            kind: Viral,
            paper_mbp: 65.84,
            paper_seqs: 72113,
            unit_nt: 3_292_000,
            unit_seqs: 3600,
            seed: 201,
        },
        BankSpec {
            name: "BCT",
            kind: Bacterial,
            paper_mbp: 98.10,
            paper_seqs: 59,
            unit_nt: 4_905_000,
            unit_seqs: 8,
            seed: 202,
        },
        BankSpec {
            name: "H10",
            kind: Chromosome,
            paper_mbp: 131.73,
            paper_seqs: 19,
            unit_nt: 6_586_000,
            unit_seqs: 3,
            seed: 203,
        },
        BankSpec {
            name: "H19",
            kind: Chromosome,
            paper_mbp: 56.03,
            paper_seqs: 6,
            unit_nt: 2_801_000,
            unit_seqs: 2,
            seed: 204,
        },
    ]
}

/// Looks up a spec by paper name (case-insensitive).
pub fn spec_by_name(name: &str) -> Option<BankSpec> {
    paper_bank_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// Generates the analogue of one paper bank at the given scale.
///
/// # Panics
/// Panics if `name` is not one of the paper bank names.
pub fn paper_bank(name: &str, scale: f64) -> NamedBank {
    let spec = spec_by_name(name)
        .unwrap_or_else(|| panic!("unknown paper bank {name:?}; see paper_bank_specs()"));
    build(&spec, SimConfig { scale })
}

/// Generates a bank from its spec.
pub fn build(spec: &BankSpec, cfg: SimConfig) -> NamedBank {
    assert!(cfg.scale > 0.0, "scale must be positive");
    let nt = ((spec.unit_nt as f64 * cfg.scale) as usize).max(2_000);
    let bank = match spec.kind {
        BankKind::Est => {
            let pool = GenePool::paper_default();
            let est_cfg = EstBankConfig {
                target_nt: nt,
                ..Default::default()
            };
            // ~1.5 % bacterial library contamination, as in real EST
            // divisions — the source of the paper's BCT-vs-EST alignments.
            let bact = RepeatLibrary::bacterial_default();
            let contaminants: Vec<Vec<u8>> =
                (0..bact.len()).map(|i| bact.element(i).to_vec()).collect();
            est_bank_with_contaminants(&pool, spec.seed, &est_cfg, &contaminants, 0.015)
        }
        BankKind::Viral => {
            let lib = RepeatLibrary::paper_default();
            let seqs = ((spec.unit_seqs as f64 * cfg.scale) as usize).max(4);
            genome_bank(
                &lib,
                spec.seed,
                spec.name,
                &GenomeConfig::viral_like(seqs, nt),
            )
        }
        BankKind::Bacterial => {
            // Bacteria carry their own repeat families — no homology with
            // the eukaryotic/viral banks, as in the paper (H10 vs BCT: 0).
            let lib = RepeatLibrary::bacterial_default();
            let seqs = spec.unit_seqs.max(1);
            genome_bank(
                &lib,
                spec.seed,
                spec.name,
                &GenomeConfig::bacterial_like(seqs, nt),
            )
        }
        BankKind::Chromosome => {
            let lib = RepeatLibrary::paper_default();
            let seqs = spec.unit_seqs.max(1);
            genome_bank(
                &lib,
                spec.seed,
                spec.name,
                &GenomeConfig::chromosome_like(seqs, nt),
            )
        }
    };
    NamedBank {
        name: spec.name.to_string(),
        bank,
    }
}

/// Generates several paper banks at once.
pub fn paper_banks(names: &[&str], scale: f64) -> Vec<NamedBank> {
    names.iter().map(|n| paper_bank(n, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_have_unique_names_and_seeds() {
        let specs = paper_bank_specs();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len());
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), specs.len());
    }

    #[test]
    fn scaling_is_proportional_to_paper_sizes() {
        // unit sizes are paper sizes /10 (EST) or /20 (large)
        for s in paper_bank_specs() {
            let ratio = s.paper_mbp * 1e6 / s.unit_nt as f64;
            match s.kind {
                BankKind::Est => assert!((ratio - 10.0).abs() < 0.1, "{}: {ratio}", s.name),
                _ => assert!((ratio - 20.0).abs() < 0.2, "{}: {ratio}", s.name),
            }
        }
    }

    #[test]
    fn small_scale_est_bank_builds() {
        let nb = paper_bank("EST1", 0.02);
        assert_eq!(nb.name, "EST1");
        assert!(nb.bank.num_residues() >= 10_000);
        assert!(nb.bank.num_sequences() > 10);
    }

    #[test]
    fn small_scale_genome_banks_build() {
        for name in ["VRL", "BCT", "H10", "H19"] {
            let nb = paper_bank(name, 0.01);
            assert!(nb.bank.num_residues() >= 2_000, "{name}");
            assert!(nb.bank.num_sequences() >= 1, "{name}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = paper_bank("EST2", 0.02);
        let b = paper_bank("EST2", 0.02);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(spec_by_name("est1").is_some());
        assert!(spec_by_name("h19").is_some());
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    #[should_panic]
    fn unknown_bank_panics() {
        let _ = paper_bank("EST99", 1.0);
    }
}
