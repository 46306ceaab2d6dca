//! E7 — the section-3.1 memory model: "The index structure required for
//! storing a bank of size N … is approximately equal to 5×N bytes."
//!
//! Measures the actual footprint (SEQ array + row map + postings +
//! occurrence bit-set) across the bank grid and reports the
//! bytes-per-residue ratio. A bank of N positions with k distinct codes
//! takes `N` bytes of `SEQ` and, on the dense row map the large banks
//! get, `4·N + 4·k + N/8 + 3·4^W/16` index bytes: the paper's 5·N, plus
//! one row boundary per populated code, the bit-set, and 768 KB of
//! presence bitmap and ranks at W = 11. A saturated bank (k ≈ 4^W) pays
//! at most those 768 KB more than a `4^W + 1` offsets dictionary.

use oris_bench::{bank, scale_from_args};
use oris_core::OrisConfig;
use oris_eval::Table;
use oris_index::{BankIndex, IndexConfig};

fn main() {
    let scale = scale_from_args();
    let cfg = OrisConfig::default();
    println!(
        "E7: index memory footprint (paper section 3.1), W = {}, scale {scale}\n",
        cfg.w
    );
    let mut t = Table::new(vec![
        "bank",
        "residues",
        "SEQ bytes",
        "index bytes",
        "total bytes",
        "bytes / residue",
    ]);
    for name in ["EST1", "EST3", "EST5", "EST7", "VRL", "BCT", "H19", "H10"] {
        let b = bank(name, scale);
        let idx = BankIndex::build(&b, IndexConfig::full(cfg.w));
        let stats = idx.stats();
        let n = b.num_residues();
        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{}", b.data().len()),
            format!("{}", stats.index_bytes),
            format!("{}", stats.total_bytes),
            format!("{:.2}", stats.total_bytes as f64 / n as f64),
        ]);
        eprintln!("  done {name}");
    }
    print!("{t}");
    println!(
        "\npaper model: ~5 bytes/residue (1 SEQ + 4 INDEX); here also 4 bytes per distinct seed, \
         1/8 byte per position and the 4^W-bit presence bitmap with its ranks ({} KiB at W={})",
        (3 * 4usize.pow(cfg.w as u32) / 16) >> 10,
        cfg.w
    );
}
