//! # oris-bench — the experiment harness
//!
//! One binary per table/figure of the paper; each prints the paper's row
//! layout with the measured values (and, where the paper reports a number,
//! that number beside them):
//!
//! | binary | paper item |
//! |---|---|
//! | `table_datasets` | §3.2 data-set table (E1) |
//! | `fig3_exec_time` | Figure 3, time vs search space (E2) |
//! | `table_speedup_est` | §3.3 EST speed-up table (E3) |
//! | `table_speedup_large` | §3.3 large-bank speed-up table (E4) |
//! | `table_sensitivity_est` | §3.4 EST miss tables (E5) |
//! | `table_sensitivity_large` | §3.4 large-bank miss tables (E6) |
//! | `table_memory` | §3.1 index ≈5·N bytes, here `4·N + 4·k + N/8 + 3·4^W/16` (E7) |
//! | `fig_parallel_scaling` | §4 multicore perspective (E8) |
//! | `ablation_dedup` | ordered rule vs hash dedup (A1) |
//! | `ablation_asymmetric` | asymmetric indexing (A2) |
//! | `ablation_seed_len` | seed-length sweep (A3) |
//! | `ablation_xdrop` | X-drop sweep (A4) |
//! | `mkbank` | writes one paper bank, or a random one, as FASTA |
//!
//! Every binary takes `--scale F` (default 0.25; 1.0 for `mkbank`)
//! multiplying the reduced bank grid of `oris_simulate::paper_bank_specs`,
//! so quick runs and full runs use the same code path. Banks are deterministic; engine outputs are deterministic
//! for any thread count — the only nondeterminism in these experiments is
//! the wall clock.
//!
//! This library holds the shared harness: bank construction, matched
//! engine configurations, timing, and the paper's table row formats —
//! plus [`CountingAlloc`], the live-heap gauge behind
//! `tests/peak_live_bytes.rs`. Performance is not measured here: the
//! end-to-end, layer-attributed benchmark is the standalone `benchmark/`
//! package at the repository root.

pub mod memtrack;

pub use memtrack::CountingAlloc;

use oris_blast::{BlastConfig, BlastResult};
use oris_cli::Args;
use oris_core::{OrisConfig, OrisResult};
use oris_eval::{MissReport, SpeedupRow};
use oris_index::MAX_BANK_LEN;
use oris_seqio::Bank;
use oris_simulate::{paper_bank, paper_bank_specs};

/// The eight EST bank pairs of the section-3.3/3.4 tables, in paper order.
pub const EST_PAIRS: [(&str, &str); 8] = [
    ("EST1", "EST2"),
    ("EST1", "EST3"),
    ("EST1", "EST5"),
    ("EST3", "EST4"),
    ("EST1", "EST7"),
    ("EST4", "EST5"),
    ("EST5", "EST6"),
    ("EST5", "EST7"),
];

/// The six large-bank pairs of the section-3.3/3.4 tables, in paper order.
pub const LARGE_PAIRS: [(&str, &str); 6] = [
    ("H19", "VRL"),
    ("BCT", "EST7"),
    ("H19", "BCT"),
    ("BCT", "VRL"),
    ("H10", "VRL"),
    ("H10", "BCT"),
];

/// Paper-reported speed-ups for the EST pairs (same order as
/// [`EST_PAIRS`]), printed beside the measured ones by `table_speedup_est`.
pub const PAPER_EST_SPEEDUPS: [f64; 8] = [10.0, 16.2, 17.1, 18.5, 16.0, 24.0, 28.4, 28.8];

/// Paper-reported speed-ups for the large pairs (same order as
/// [`LARGE_PAIRS`]).
pub const PAPER_LARGE_SPEEDUPS: [f64; 6] = [6.2, 8.6, 5.5, 9.2, 8.6, 6.6];

/// Reads `--scale F` from the command line (default 0.25), checked by
/// [`parse_scale`] against the largest paper bank. A bad, missing or
/// extra argument ends the process with one stderr line and exit code 1.
pub fn scale_from_args() -> f64 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let largest = paper_bank_specs().iter().map(|s| s.unit_nt).max();
    let args = Args::parse(&argv, &["scale"], &[], &[]).map_err(|e| e.to_string());
    let scale = args.and_then(
        |args| match (args.positional.first(), args.options.get("scale")) {
            (Some(extra), _) => Err(format!("unexpected argument {extra:?}")),
            (None, Some(v)) => parse_scale(v, largest.unwrap_or(0)),
            (None, None) => Ok(0.25),
        },
    );
    scale.unwrap_or_else(|e| {
        let program = std::env::args().next().unwrap_or_default();
        eprintln!("{}: {e}", program.rsplit('/').next().unwrap_or_default());
        std::process::exit(1)
    })
}

/// Parses a `--scale` value for a bank of `unit_nt` residues at scale 1:
/// a finite number above 0 under which the bank stays below
/// [`MAX_BANK_LEN`] positions, the most an index addresses. The error is
/// one line naming the value.
pub fn parse_scale(value: &str, unit_nt: usize) -> Result<f64, String> {
    let scale: f64 = value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for --scale"))?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("--scale {value}: must be a finite number above 0"));
    }
    if unit_nt as f64 * scale >= MAX_BANK_LEN as f64 {
        return Err(format!(
            "--scale {value}: {unit_nt} nt at scale 1 would reach the {MAX_BANK_LEN} positions \
             an index addresses"
        ));
    }
    Ok(scale)
}

/// Builds one paper bank at the given scale (cached per process run is
/// unnecessary — generation is a small fraction of comparison time).
pub fn bank(name: &str, scale: f64) -> Bank {
    paper_bank(name, scale).bank
}

/// The standard matched configurations both engines run with: paper
/// parameters (`W = 11`, `e ≤ 1e-3`), each engine's own filter, and the
/// baseline in blastall-2.2.17 mode (lookup per ~20 kbp query batch, full
/// database rescan per batch — the cost structure of the program the
/// paper actually measured). Batching changes timing only; records are
/// identical to the one-pass baseline.
pub fn standard_configs() -> (OrisConfig, BlastConfig) {
    let oris = OrisConfig::default();
    let blast = BlastConfig::blastall_like(&oris);
    (oris, blast)
}

/// Outcome of running both engines on one bank pair.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Speed-up row in the paper's format.
    pub row: SpeedupRow,
    /// Sensitivity comparison (A = ORIS engine, B = baseline).
    pub miss: MissReport,
    /// ORIS engine full result.
    pub oris: OrisResult,
    /// Baseline full result.
    pub blast: BlastResult,
}

/// Runs both engines on a named bank pair and packages the paper rows.
pub fn run_pair(name1: &str, name2: &str, scale: f64) -> PairOutcome {
    let b1 = bank(name1, scale);
    let b2 = bank(name2, scale);
    run_pair_banks(&format!("{name1} vs {name2}"), &b1, &b2)
}

/// Runs both engines on explicit banks.
pub fn run_pair_banks(label: &str, b1: &Bank, b2: &Bank) -> PairOutcome {
    let (oris_cfg, blast_cfg) = standard_configs();

    let t0 = oris_obs::Stopwatch::start();
    let oris = oris_core::compare_banks(b1, b2, &oris_cfg);
    let scoris_secs = t0.elapsed_secs();

    let t0 = oris_obs::Stopwatch::start();
    let blast = oris_blast::compare_banks(b1, b2, &blast_cfg);
    let blast_secs = t0.elapsed_secs();

    let miss = oris_eval::compare_outputs(&oris.alignments, &blast.alignments, 0.8);
    PairOutcome {
        row: SpeedupRow {
            banks: label.to_string(),
            search_space: b1.mbp() * b2.mbp(),
            scoris_secs,
            blast_secs,
        },
        miss,
        oris,
        blast,
    }
}

/// The 32-nt repeat element planted by [`planted_bank`] (an ALU-like
/// dispersed repeat; an arbitrary fixed sequence, diverse enough that its
/// windows are distinct codes).
pub const SKEW_MOTIF: &str = "GTCCGGATTACGCTAGGTCAACGGTTAGCCAT";

/// A random bank whose every sequence carries one copy of [`SKEW_MOTIF`]
/// at a deterministic per-sequence offset (spreading the copies across
/// record positions and hence across the global bank space).
pub fn planted_bank(seed: u64, num_seqs: usize, seq_len: usize) -> Bank {
    use oris_seqio::BankBuilder;
    assert!(
        seq_len >= 2 * SKEW_MOTIF.len(),
        "sequences too short for motif planting"
    );
    let random = oris_simulate::random_bank(seed, num_seqs, seq_len, 0.5);
    let mut b = BankBuilder::new();
    for i in 0..random.num_sequences() {
        let mut s = random.sequence_string(i);
        let span = s.len() - SKEW_MOTIF.len();
        let at = (i * 131) % (span + 1);
        s.replace_range(at..at + SKEW_MOTIF.len(), SKEW_MOTIF);
        b.push_str(&format!("sk{seed}_{i}"), &s).unwrap();
    }
    b.finish()
}

/// Formats an optional percentage the way the paper prints it (`-` when
/// undefined).
pub fn pct(p: Option<f64>) -> String {
    match p {
        Some(v) => format!("{v:.2} %"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_tables_match_paper_layout() {
        assert_eq!(EST_PAIRS.len(), PAPER_EST_SPEEDUPS.len());
        assert_eq!(LARGE_PAIRS.len(), PAPER_LARGE_SPEEDUPS.len());
    }

    #[test]
    fn tiny_pair_runs_end_to_end() {
        let out = run_pair("EST1", "EST2", 0.03);
        assert!(out.row.search_space > 0.0);
        assert!(out.row.scoris_secs > 0.0);
        assert!(out.row.blast_secs > 0.0);
        // Both engines report something comparable.
        assert!(out.miss.a_total > 0 || out.miss.b_total > 0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(Some(3.31)), "3.31 %");
        assert_eq!(pct(None), "-");
    }
}
