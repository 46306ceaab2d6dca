//! `reproduce` — the paper's experiments, one row of [`EXPERIMENTS`] each.
//!
//! ```text
//! reproduce [--scale F] [ID ...]
//!
//!   ID          E1..E8 (the paper's items) or A1..A4 (the ablations);
//!               every experiment when none is named
//!   --scale F   size multiplier over the reduced bank grid (default 0.25)
//! ```
//!
//! Stdout is GitHub markdown: one `##` heading per experiment, in list
//! order, over tables in the paper's row layout with the paper's numbers
//! beside the measured ones. Each bank pair runs both engines once per
//! invocation: E2, E3 and E5 share the EST pairs, E4 and E6 the large
//! ones. An unknown ID or a bad `--scale` is one stderr line listing the
//! IDs, and exit code 1.

use std::collections::BTreeMap;
use std::process::ExitCode;

use oris_bench::ablation::find_hsps_unordered_dedup;
use oris_bench::{
    bank, parse_scale, pct, run_pair, PairOutcome, SpeedupRow, Table, EST_PAIRS, LARGE_PAIRS,
    PAPER_EST_SPEEDUPS, PAPER_LARGE_SPEEDUPS,
};
use oris_cli::Args;
use oris_core::{step2, OrisConfig, OrisResult};
use oris_index::{BankIndex, IndexConfig};
use oris_seqio::Bank;
use oris_simulate::banks::{build, paper_bank_specs, SimConfig};

/// One experiment: its ID, the paper item it reproduces, and its run.
type Experiment = (&'static str, &'static str, fn(&mut Run));

/// Every experiment, in paper order: the paper's items, then the
/// ablations.
const EXPERIMENTS: [Experiment; 12] = [
    ("E1", "data set table (paper section 3.2)", datasets),
    (
        "E2",
        "Figure 3, execution time vs search space (EST banks)",
        fig3,
    ),
    ("E3", "EST speed-up table (paper section 3.3)", |run| {
        speedups(run, &EST_PAIRS, &PAPER_EST_SPEEDUPS)
    }),
    (
        "E4",
        "large-bank speed-up table (paper section 3.3)",
        |run| speedups(run, &LARGE_PAIRS, &PAPER_LARGE_SPEEDUPS),
    ),
    ("E5", "EST sensitivity tables (paper section 3.4)", |run| {
        misses(run, &EST_PAIRS)
    }),
    (
        "E6",
        "large-bank sensitivity tables (paper section 3.4)",
        |run| misses(run, &LARGE_PAIRS),
    ),
    ("E7", "index memory footprint (paper section 3.1)", memory),
    (
        "E8",
        "multicore scaling of the ORIS pipeline (paper section 4)",
        scaling,
    ),
    (
        "A1",
        "ordered-seed rule vs hash-set duplicate suppression",
        dedup,
    ),
    (
        "A2",
        "asymmetric 10-nt indexing vs plain 11-nt (paper section 3.4)",
        asymmetric,
    ),
    ("A3", "seed length sweep (ORIS engine)", seed_len),
    ("A4", "ungapped X-drop sweep (ORIS engine)", xdrop),
];

/// One invocation's state: the scale, and the outcome of each bank pair
/// already run.
struct Run {
    scale: f64,
    pairs: BTreeMap<(&'static str, &'static str), PairOutcome>,
}

impl Run {
    /// Both engines on a named bank pair, run on first use.
    fn pair(&mut self, a: &'static str, b: &'static str) -> &PairOutcome {
        let scale = self.scale;
        self.pairs.entry((a, b)).or_insert_with(|| {
            eprintln!("  ran {a} vs {b}");
            run_pair(a, b, scale)
        })
    }

    fn banks(&self, a: &str, b: &str) -> (Bank, Bank) {
        (bank(a, self.scale), bank(b, self.scale))
    }
}

/// The ORIS engine on two banks, timed.
fn timed_compare(b1: &Bank, b2: &Bank, cfg: &OrisConfig) -> (OrisResult, f64) {
    let t0 = oris_obs::Stopwatch::start();
    let r = oris_core::compare_banks(b1, b2, cfg);
    (r, t0.elapsed_secs())
}

/// E1: every bank analogue at the chosen scale — number of sequences and
/// residue count, next to the paper's original values.
fn datasets(run: &mut Run) {
    let mut t = Table::new(vec![
        "Bank",
        "paper nb.seq",
        "paper Mbp",
        "ours nb.seq",
        "ours Mbp",
    ]);
    for spec in paper_bank_specs() {
        let nb = build(&spec, SimConfig { scale: run.scale });
        t.row(vec![
            spec.name.to_string(),
            format!("{}", spec.paper_seqs),
            format!("{:.2}", spec.paper_mbp),
            format!("{}", nb.bank.num_sequences()),
            format!("{:.2}", nb.bank.mbp()),
        ]);
    }
    print!("{t}");
}

/// E2: the two series the paper plots (seconds vs Mbp² search space), one
/// row per EST pair, sorted by search space. The shape to reproduce: both
/// curves grow with the search space, the baseline's much faster, and the
/// gap widens with size.
fn fig3(run: &mut Run) {
    let mut rows: Vec<SpeedupRow> = EST_PAIRS
        .iter()
        .map(|&(a, b)| run.pair(a, b).row.clone())
        .collect();
    rows.sort_by(|x, y| x.search_space.total_cmp(&y.search_space));
    let mut t = Table::new(vec![
        "banks",
        "search space (Mbp^2)",
        "SCORIS-N (s)",
        "BLASTN-like (s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.banks.clone(),
            sig3(r.search_space),
            format!("{:.3}", r.scoris_secs),
            format!("{:.3}", r.blast_secs),
        ]);
    }
    print!("{t}");
    let series = |f: fn(&SpeedupRow) -> String| rows.iter().map(f).collect::<Vec<_>>().join(", ");
    println!("\nSeries (x = Mbp^2):\n");
    println!("- x = [{}]", series(|r| sig3(r.search_space)));
    println!(
        "- scoris_n = [{}]",
        series(|r| format!("{:.3}", r.scoris_secs))
    );
    println!(
        "- blastn = [{}]",
        series(|r| format!("{:.3}", r.blast_secs))
    );
}

/// E3, E4: bank pair, search space, both execution times and the
/// speed-up, with the paper's speed-up in the last column. Paper shape:
/// the large pairs' speed-ups are smaller than the EST ones (5–9× vs
/// 10–29×) "mostly because in that situation BLASTN performs well".
fn speedups(run: &mut Run, pairs: &[(&'static str, &'static str)], paper: &[f64]) {
    let mut t = Table::new(vec![
        "banks",
        "search space (Mbp^2)",
        "SCORIS-N (s)",
        "BLASTN-like (s)",
        "speed up",
        "paper speed up",
    ]);
    for (&(a, b), paper) in pairs.iter().zip(paper) {
        let row = &run.pair(a, b).row;
        t.row(vec![
            row.banks.clone(),
            sig3(row.search_space),
            format!("{:.3}", row.scoris_secs),
            format!("{:.3}", row.blast_secs),
            format!("{:.1}", row.speedup()),
            format!("{paper:.1}"),
        ]);
    }
    print!("{t}");
}

/// `x` to three significant digits in positional notation, the form every
/// search-space cell takes (a number of 1 000 or more keeps all its
/// integer digits).
fn sig3(x: f64) -> String {
    // The exponent of `x` once rounded to three digits, so 9.996 prints
    // as 10.0, not 10.00.
    let sci = format!("{x:.2e}");
    let exp: i32 = sci
        .split_once('e')
        .map_or(0, |(_, e)| e.parse().unwrap_or(0));
    let decimals = usize::try_from(2 - exp).unwrap_or(0);
    format!("{x:.decimals$}")
}

/// E5, E6: both engines' `-m 8` outputs compared with the 80 %-overlap
/// equivalence, each program's misses relative to the other. Paper shape:
/// a few percent missed in each direction on the EST pairs, borderline
/// low-score alignments dominating; far less on the large pairs (≤ 1.4 %),
/// where H10 vs BCT reports no alignments at all.
fn misses(run: &mut Run, pairs: &[(&'static str, &'static str)]) {
    let mut t1 = Table::new(vec!["banks", "BLtotal", "SCmiss", "SCORISmiss"]);
    let mut t2 = Table::new(vec!["banks", "SCtotal", "BLmiss", "BLASTmiss"]);
    for &(a, b) in pairs {
        let out = run.pair(a, b);
        let m = out.miss;
        t1.row(vec![
            out.row.banks.clone(),
            format!("{}", m.b_total),
            format!("{}", m.a_miss),
            pct(m.a_miss_pct()),
        ]);
        t2.row(vec![
            out.row.banks.clone(),
            format!("{}", m.a_total),
            format!("{}", m.b_miss),
            pct(m.b_miss_pct()),
        ]);
    }
    println!("SCORIS-N misses relative to BLASTN-like:\n\n{t1}");
    print!("BLASTN-like misses relative to SCORIS-N:\n\n{t2}");
}

/// E7: "The index structure required for storing a bank of size N … is
/// approximately equal to 5×N bytes." A bank of N positions with k
/// distinct codes in `words` stored bitmap words takes `N` bytes of `SEQ`
/// and, at `l = ⌊log2(N/k)⌋ = 0` (every bank at the default scale),
/// `b·N/8 + (N + k)/8 + k/16 + (N + k)/1024 + N/8 + 12·words +
/// 12·⌈4^W/4096⌉` index bytes: the postings packed at the bank's bit width `b = ⌈log2 len(SEQ)⌉` (the
/// paper's 5·N counts four bytes of them per position), the row starts
/// as one Elias–Fano sequence (a set bit per populated code and a clear
/// bit per posting) with a derived select sample per 64 rows and rank
/// per 4 096 of its bits, the bit-set, and a word and its rank per
/// stored bitmap word and per top-level word — at W = 11 a dense bank
/// stores nearly all 65 536 bitmap words (768 KB) beside the 12 KB top
/// level. At `l > 0` the starts take `((N >> l) + k)/8 + l·k/8` bytes.
fn memory(run: &mut Run) {
    let cfg = OrisConfig::default();
    let mut t = Table::new(vec![
        "bank",
        "residues",
        "SEQ bytes",
        "posting bits",
        "index bytes",
        "total bytes",
        "bytes / residue",
    ]);
    for name in ["EST1", "EST3", "EST5", "EST7", "VRL", "BCT", "H19", "H10"] {
        let b = bank(name, run.scale);
        let idx = BankIndex::build(&b, IndexConfig::full(cfg.w));
        let stats = idx.stats();
        let n = b.num_residues();
        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{}", b.data().len()),
            format!("{}", idx.posting_bits()),
            format!("{}", stats.index_bytes),
            format!("{}", stats.total_bytes),
            format!("{:.2}", stats.total_bytes as f64 / n as f64),
        ]);
    }
    print!("{t}");
    println!(
        "\nPaper model: ~5 bytes/residue (1 SEQ + 4 INDEX); here b/8 bytes of postings per \
         position (b = posting bits, the bank length's bit width), the row starts as one \
         Elias-Fano sequence (at l = floor(log2(N/k)) = 0, 1/8 byte per distinct seed and per \
         position, 1/16 byte per distinct seed of select samples and 1/1024 of block ranks), \
         1/8 byte per position, and 12 bytes per stored bitmap word and \
         per top-level word ({} KiB of top level at W={}).",
        (12 * 4usize.pow(cfg.w as u32).div_ceil(4096)) >> 10,
        cfg.w
    );
}

/// E8: "the outer loop of step 2 … can be run in parallel since seed
/// order prevents identical HSPs to be generated". The ORIS engine on a
/// fixed EST pair with 1, 2, 4, … worker threads: per-step times, total
/// speed-up and parallel efficiency. The output must be identical across
/// thread counts.
fn scaling(run: &mut Run) {
    let (b1, b2) = run.banks("EST5", "EST7");
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut t = Table::new(vec![
        "threads",
        "step1 (s)",
        "step2 (s)",
        "step3 (s)",
        "total (s)",
        "speed up",
        "efficiency",
    ]);
    let mut base_total = 0.0f64;
    let mut reference: Option<Vec<String>> = None;
    for n in std::iter::successors(Some(1usize), |n| Some(n * 2)).take_while(|&n| n <= max_threads)
    {
        let cfg = OrisConfig {
            threads: Some(n),
            ..OrisConfig::default()
        };
        let r = oris_core::compare_banks(&b1, &b2, &cfg);
        let s = r.stats;
        let total = s.total_secs();
        if n == 1 {
            base_total = total;
        }
        let speedup = base_total / total;
        t.row(vec![
            format!("{n}"),
            format!("{:.3}", s.index_secs),
            format!("{:.3}", s.step2_secs),
            format!("{:.3}", s.step3_secs),
            format!("{total:.3}"),
            format!("{speedup:.2}"),
            format!("{:.0} %", 100.0 * speedup / n as f64),
        ]);
        let digest: Vec<String> = r.alignments.iter().map(|a| a.to_string()).collect();
        match &reference {
            None => reference = Some(digest),
            Some(expect) => assert_eq!(
                expect, &digest,
                "output differs between thread counts — determinism broken"
            ),
        }
    }
    print!("{t}");
    println!("\nOutput verified identical across all thread counts.");
}

/// A1: the design choice at the heart of the paper — ordered-seed
/// uniqueness vs "a costly procedure to suppress all the duplicates"
/// (section 2.2). Step 2 runs on the same indexed banks with the ORIS
/// rule (abort on a smaller enumerated seed) and unordered, every hit
/// extended and the duplicates removed with a hash set.
fn dedup(run: &mut Run) {
    let cfg = OrisConfig::default();
    let mut t = Table::new(vec![
        "pair",
        "ordered (s)",
        "unordered+dedup (s)",
        "slowdown",
        "raw HSPs",
        "duplicates",
        "unique HSPs",
        "set overlap",
    ]);
    for (a, b) in [("EST1", "EST2"), ("EST3", "EST4"), ("EST5", "EST6")] {
        let (b1, b2) = run.banks(a, b);
        let i1 = BankIndex::build(&b1, IndexConfig::full(cfg.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(cfg.w));

        let t0 = oris_obs::Stopwatch::start();
        let (ordered, _) = step2::find_hsps(&b1, &i1, &b2, &i2, &cfg);
        let ordered_secs = t0.elapsed_secs();

        let t0 = oris_obs::Stopwatch::start();
        let (dedup, stats) = find_hsps_unordered_dedup(&b1, &i1, &b2, &i2, &cfg);
        let dedup_secs = t0.elapsed_secs();

        let set_a: std::collections::HashSet<_> = ordered
            .iter()
            .map(|h| (h.start1, h.start2, h.len))
            .collect();
        let set_b: std::collections::HashSet<_> =
            dedup.iter().map(|h| (h.start1, h.start2, h.len)).collect();
        // With a finite X-drop, extents are mildly path-dependent (the
        // canonical seed may stop at a different maximum than another
        // seed of the same HSP would); report the overlap instead of a
        // strict equality. With a saturating X-drop the sets are equal —
        // proven by the property test in tests/paper_invariants.rs.
        let inter = set_a.intersection(&set_b).count();
        let overlap = 100.0 * inter as f64 / set_a.len().max(1) as f64;

        t.row(vec![
            format!("{a} vs {b}"),
            format!("{ordered_secs:.3}"),
            format!("{dedup_secs:.3}"),
            format!("{:.2}x", dedup_secs / ordered_secs.max(1e-9)),
            format!("{}", stats.raw_hsps),
            format!("{}", stats.duplicates_removed),
            format!("{}", dedup.len()),
            format!("{overlap:.1} %"),
        ]);
    }
    print!("{t}");
}

/// A2: "an asymmetric indexing is done on 10-nt words … All 11-nt seeds
/// are detected together with an average of 50 % of the 10-nt seed
/// anchoring." Plain W = 11 against asymmetric W = 10 (half-sampled on
/// bank 2) on an EST pair. Shape: asymmetric finds at least the
/// 11-nt-anchored alignments plus some divergent ones, at roughly half
/// the bank-2 index size.
fn asymmetric(run: &mut Run) {
    let (b1, b2) = run.banks("EST3", "EST4");
    let mut t = Table::new(vec![
        "mode",
        "indexed w",
        "time (s)",
        "HSPs",
        "alignments",
        "index bytes",
    ]);
    let mut counts = Vec::new();
    for (label, asymmetric) in [("plain W=11", false), ("asymmetric W=10", true)] {
        let cfg = OrisConfig {
            asymmetric,
            ..OrisConfig::default()
        };
        let (r, secs) = timed_compare(&b1, &b2, &cfg);
        counts.push(r.alignments.len());
        t.row(vec![
            label.to_string(),
            format!("{}", cfg.indexed_w()),
            format!("{secs:.3}"),
            format!("{}", r.stats.hsps),
            format!("{}", r.alignments.len()),
            format!("{}", r.stats.index_bytes),
        ]);
    }
    print!("{t}");
    println!(
        "\nAsymmetric / plain alignment ratio: {:.2}.",
        counts[1] as f64 / counts[0].max(1) as f64
    );
}

/// A3: the sensitivity/speed trade the paper's introduction frames ("the
/// heuristic can be tuned by modifying the length of the seed"), W = 8 …
/// 13 on a fixed EST pair. Shape: smaller W → more (noisier) hits and
/// more time; larger W → faster, fewer divergent alignments found.
fn seed_len(run: &mut Run) {
    let (b1, b2) = run.banks("EST1", "EST2");
    let mut t = Table::new(vec![
        "W",
        "time (s)",
        "pairs examined",
        "HSPs",
        "alignments",
    ]);
    for w in 8..=13 {
        let cfg = OrisConfig {
            w,
            ..OrisConfig::default()
        };
        let (r, secs) = timed_compare(&b1, &b2, &cfg);
        t.row(vec![
            format!("{w}"),
            format!("{secs:.3}"),
            format!("{}", r.stats.step2.pairs_examined),
            format!("{}", r.stats.hsps),
            format!("{}", r.alignments.len()),
        ]);
    }
    print!("{t}");
}

/// A4: the extension-termination knob both stages share, ungapped X-drop
/// 5 … 40 on a fixed EST pair. Shape: a small X-drop truncates
/// extensions (more, shorter HSPs; some alignments fragment or drop below
/// threshold); a large one costs time exploring mismatch deserts without
/// changing the reported set much.
fn xdrop(run: &mut Run) {
    let (b1, b2) = run.banks("EST1", "EST2");
    let mut t = Table::new(vec![
        "xdrop",
        "time (s)",
        "HSPs",
        "alignments",
        "mean align len",
    ]);
    for xdrop in [5, 10, 15, 20, 30, 40] {
        let cfg = OrisConfig {
            xdrop_ungapped: xdrop,
            ..OrisConfig::default()
        };
        let (r, secs) = timed_compare(&b1, &b2, &cfg);
        let mean_len = if r.alignments.is_empty() {
            0.0
        } else {
            r.alignments.iter().map(|a| a.length).sum::<usize>() as f64 / r.alignments.len() as f64
        };
        t.row(vec![
            format!("{xdrop}"),
            format!("{secs:.3}"),
            format!("{}", r.stats.hsps),
            format!("{}", r.alignments.len()),
            format!("{mean_len:.0}"),
        ]);
    }
    print!("{t}");
}

/// Reads `--scale F` (default 0.25, checked by [`parse_scale`] against the
/// largest paper bank) and the experiment IDs, and returns the scale and
/// the selected experiments in list order.
fn parse_args(argv: &[String]) -> Result<(f64, Vec<&'static Experiment>), String> {
    let args = Args::parse(argv, &["scale"], &[], &[]).map_err(|e| e.to_string())?;
    let largest = paper_bank_specs().iter().map(|s| s.unit_nt).max();
    let scale = match args.options.get("scale") {
        Some(v) => parse_scale(v, largest.unwrap_or(0))?,
        None => 0.25,
    };
    if let Some(id) = args
        .positional
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|e| e.0 == id.as_str()))
    {
        return Err(format!("unknown experiment {id:?}"));
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| args.positional.is_empty() || args.positional.iter().any(|id| id == e.0))
        .collect();
    Ok((scale, selected))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (scale, selected) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!(
                "reproduce: {e}; usage: reproduce [--scale F] [ID ...], ID one of {}",
                ids.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };
    let mut run = Run {
        scale,
        pairs: BTreeMap::new(),
    };
    println!("# Paper experiments, scale {scale}");
    for (id, item, experiment) in selected {
        println!("\n## {id}: {item}\n");
        experiment(&mut run);
        eprintln!("{id} done");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_are_listed_once_in_paper_order() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(
            ids,
            ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "A1", "A2", "A3", "A4"]
        );
    }

    #[test]
    fn search_spaces_print_three_significant_digits() {
        for (x, want) in [
            (0.0314, "0.0314"),
            (0.03141, "0.0314"),
            (0.1, "0.100"),
            (1.234, "1.23"),
            (9.996, "10.0"),
            (163.4, "163"),
            (999.6, "1000"),
            (1634.2, "1634"),
        ] {
            assert_eq!(sig3(x), want, "{x}");
        }
    }
}
