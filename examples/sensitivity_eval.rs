//! Sensitivity evaluation — the paper's section-3.4 methodology as a
//! runnable example: run both engines on the same bank pair, match their
//! `-m 8` outputs with the 80 %-overlap equivalence, and report
//! `SCORISmiss` / `BLASTmiss`.
//!
//! ```text
//! cargo run --release --example sensitivity_eval
//! ```

use oris::prelude::*;

fn main() {
    let scale = 0.3;
    println!("generating EST banks (scale {scale}) ...");
    let b1 = paper_banks(&["EST3"], scale).remove(0).bank;
    let b2 = paper_banks(&["EST4"], scale).remove(0).bank;

    let cfg = OrisConfig::default();

    println!("running SCORIS-N (ORIS engine, entropy filter) ...");
    let r_oris = compare_banks(&b1, &b2, &cfg);
    println!("running BLASTN-like baseline (dust filter) ...");
    let r_blast = blast_compare_banks(&b1, &b2, &cfg);

    let rep = oris::eval::compare_outputs(&r_oris.alignments, &r_blast.alignments, 0.8);
    println!("\npaper section 3.4 metrics (80% overlap equivalence):");
    println!("  SCtotal    = {}", rep.a_total);
    println!("  BLtotal    = {}", rep.b_total);
    println!("  SCmiss     = {}", rep.a_miss);
    println!("  BLmiss     = {}", rep.b_miss);
    println!(
        "  SCORISmiss = {}",
        rep.a_miss_pct().map_or("-".into(), |p| format!("{p:.2} %"))
    );
    println!(
        "  BLASTmiss  = {}",
        rep.b_miss_pct().map_or("-".into(), |p| format!("{p:.2} %"))
    );

    // The paper observes missed alignments are predominantly borderline:
    // low score, e-value near the threshold. Check ours look the same.
    let missed_by_oris: Vec<_> = r_blast
        .alignments
        .iter()
        .filter(|b| {
            !r_oris
                .alignments
                .iter()
                .any(|a| oris::eval::equivalent(a, b, 0.8))
        })
        .collect();
    if !missed_by_oris.is_empty() {
        let mean_bits_missed: f64 =
            missed_by_oris.iter().map(|a| a.bitscore).sum::<f64>() / missed_by_oris.len() as f64;
        let mean_bits_all: f64 = r_blast.alignments.iter().map(|a| a.bitscore).sum::<f64>()
            / r_blast.alignments.len() as f64;
        println!(
            "\nmissed alignments are borderline: mean bit score {:.1} vs {:.1} overall",
            mean_bits_missed, mean_bits_all
        );
    } else {
        println!("\nno alignments missed by the ORIS engine on this pair");
    }
}
