//! A1 — the design-choice ablation at the heart of the paper:
//! ordered-seed uniqueness vs "a costly procedure to suppress all the
//! duplicates" (section 2.2).
//!
//! Runs step 2 three ways on the same indexed banks:
//!
//! * **ordered** — the ORIS rule (abort on smaller enumerated seed);
//! * **unordered + hash dedup** — every hit extends fully, duplicates
//!   removed with a hash set;
//! * **unordered raw** — extension volume only, for accounting.
//!
//! Reports times, duplicate volume, and verifies both variants produce
//! the same HSP set.

use oris_bench::ablation::find_hsps_unordered_dedup;
use oris_bench::{bank, scale_from_args};
use oris_core::{step2, OrisConfig};
use oris_eval::Table;
use oris_index::{BankIndex, IndexConfig};

fn main() {
    let scale = scale_from_args();
    println!("A1: ordered-seed rule vs hash-set duplicate suppression, scale {scale}\n");
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
        let b1 = bank(a, scale);
        let b2 = bank(b, scale);
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
        eprintln!("  done {a} vs {b}");
    }
    print!("{t}");
}
