//! # oris-bench — the experiment harness
//!
//! The `reproduce` binary runs the paper's experiments, each a row of one
//! list, and prints each as a markdown table in the paper's row layout
//! with the measured values (and, where the paper reports a number, that
//! number beside them):
//!
//! | id | paper item |
//! |---|---|
//! | E1 | §3.2 data-set table |
//! | E2 | Figure 3, time vs search space |
//! | E3 | §3.3 EST speed-up table |
//! | E4 | §3.3 large-bank speed-up table |
//! | E5 | §3.4 EST miss tables |
//! | E6 | §3.4 large-bank miss tables |
//! | E7 | §3.1 index ≈5·N bytes, here `N` of `SEQ` and `b·N/8 + (N + k)/8 + k/16 + (N + k)/1024 + N/8 + 12·words + 12·⌈4^W/4096⌉` at `l = ⌊log2(N/k)⌋ = 0`, `b = ⌈log2 len(SEQ)⌉` |
//! | E8 | §4 multicore perspective |
//! | A1 | ordered rule vs hash dedup |
//! | A2 | asymmetric indexing |
//! | A3 | seed-length sweep |
//! | A4 | X-drop sweep |
//!
//! `reproduce [--scale F] [ID ...]` runs the named experiments, or all
//! twelve; `--scale F` (default 0.25) multiplies the reduced bank grid of
//! `oris_simulate::paper_bank_specs`, so quick runs and full runs use the
//! same code path. `mkbank` writes one paper bank, or a random one, as
//! FASTA. Banks are deterministic; engine outputs are deterministic for
//! any thread count — the only nondeterminism in these experiments is the
//! wall clock.
//!
//! This library holds the shared harness: bank construction, matched
//! engine runs, the paper's speed-up rows and [`Table`] — plus
//! [`CountingAlloc`], the live-heap gauge behind
//! `tests/peak_live_bytes.rs`, and [`ablation`], the unordered step 2
//! with hash-set duplicate suppression that experiment A1 runs against
//! the ordered rule. Performance is not measured here: the
//! end-to-end, layer-attributed benchmark is the standalone `benchmark/`
//! package at the repository root.

pub mod ablation;
pub mod memtrack;
pub mod tables;

pub use memtrack::CountingAlloc;
pub use tables::Table;

use oris_core::OrisConfig;
use oris_eval::MissReport;
use oris_index::MAX_BANK_LEN;
use oris_seqio::Bank;
use oris_simulate::paper_bank;

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
/// [`EST_PAIRS`]), printed beside the measured ones by experiment E3.
pub const PAPER_EST_SPEEDUPS: [f64; 8] = [10.0, 16.2, 17.1, 18.5, 16.0, 24.0, 28.4, 28.8];

/// Paper-reported speed-ups for the large pairs (same order as
/// [`LARGE_PAIRS`]).
pub const PAPER_LARGE_SPEEDUPS: [f64; 6] = [6.2, 8.6, 5.5, 9.2, 8.6, 6.6];

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

/// One row of a section-3.3 speed-up table. The paper measures `time`
/// user seconds of whole program runs; here each engine's call is timed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Bank pair label, e.g. "EST1 vs EST2".
    pub banks: String,
    /// Search space: product of bank sizes in Mbp² (the paper's x-axis).
    pub search_space: f64,
    /// SCORIS-N (ORIS engine) seconds.
    pub scoris_secs: f64,
    /// BLASTN-like baseline seconds.
    pub blast_secs: f64,
}

impl SpeedupRow {
    /// Speed-up of the ORIS engine over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.scoris_secs > 0.0 {
            self.blast_secs / self.scoris_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Outcome of running both engines on one bank pair.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Speed-up row in the paper's format.
    pub row: SpeedupRow,
    /// Sensitivity comparison (A = ORIS engine, B = baseline).
    pub miss: MissReport,
}

/// Runs both engines on a named bank pair and packages the paper rows.
///
/// Both run one configuration, the paper's parameters (`W = 11`,
/// `e ≤ 1e-3`), each engine with its own filter. The baseline builds its
/// lookup per ~20 kbp query batch and rescans the database per batch, the
/// cost structure of the `blastall` 2.2.17 the paper measured.
pub fn run_pair(name1: &str, name2: &str, scale: f64) -> PairOutcome {
    let b1 = bank(name1, scale);
    let b2 = bank(name2, scale);
    let cfg = OrisConfig::default();

    let t0 = oris_obs::Stopwatch::start();
    let oris = oris_core::compare_banks(&b1, &b2, &cfg);
    let scoris_secs = t0.elapsed_secs();

    let t0 = oris_obs::Stopwatch::start();
    let blast = oris_blast::compare_banks(&b1, &b2, &cfg);
    let blast_secs = t0.elapsed_secs();

    PairOutcome {
        row: SpeedupRow {
            banks: format!("{name1} vs {name2}"),
            search_space: b1.mbp() * b2.mbp(),
            scoris_secs,
            blast_secs,
        },
        miss: oris_eval::compare_outputs(&oris.alignments, &blast.alignments, 0.8),
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
    fn speedup_math() {
        let row = SpeedupRow {
            banks: "EST1 vs EST2".into(),
            search_space: 42.8,
            scoris_secs: 2.0,
            blast_secs: 20.0,
        };
        assert!((row.speedup() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_infinite_speedup() {
        let row = SpeedupRow {
            banks: "x".into(),
            search_space: 1.0,
            scoris_secs: 0.0,
            blast_secs: 1.0,
        };
        assert!(row.speedup().is_infinite());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(Some(3.31)), "3.31 %");
        assert_eq!(pct(None), "-");
    }
}
