//! E3 — the section-3.3 EST speed-up table.
//!
//! Same eight rows as the paper: bank pair, search space, both execution
//! times, speed-up — plus the paper's reported speed-up in the last
//! column, side by side with the measured one.

use oris_bench::{run_pair, scale_from_args, EST_PAIRS, PAPER_EST_SPEEDUPS};
use oris_eval::Table;

fn main() {
    let scale = scale_from_args();
    println!("E3: EST speed-up table (paper section 3.3), scale {scale}\n");
    let mut t = Table::new(vec![
        "banks",
        "search space (Mbp^2)",
        "SCORIS-N (s)",
        "BLASTN-like (s)",
        "speed up",
        "paper speed up",
    ]);
    for ((a, b), paper) in EST_PAIRS.iter().zip(PAPER_EST_SPEEDUPS) {
        let out = run_pair(a, b, scale);
        t.row(vec![
            out.row.banks.clone(),
            format!("{:.2}", out.row.search_space),
            format!("{:.3}", out.row.scoris_secs),
            format!("{:.3}", out.row.blast_secs),
            format!("{:.1}", out.row.speedup()),
            format!("{paper:.1}"),
        ]);
        eprintln!("  done {}", out.row.banks);
    }
    print!("{t}");
}
