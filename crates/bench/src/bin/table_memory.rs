//! E7 — the section-3.1 memory model: "The index structure required for
//! storing a bank of size N … is approximately equal to 5×N bytes."
//!
//! Measures the actual footprint (SEQ array + row map + postings +
//! occurrence bit-set) across the bank grid and reports the
//! bytes-per-residue ratio and each bank's posting width. A bank of N
//! positions with k distinct codes in `words` stored bitmap words takes
//! `N` bytes of `SEQ` and `b·N/8 + 2·k + k/16 + N/8 + 12·words +
//! 12·⌈4^W/4096⌉` index bytes: the postings packed at the bank's bit
//! width `b = ⌈log2 len(SEQ)⌉` (the paper's 5·N counts four bytes of
//! them per position), a two-byte row start per populated code and a
//! four-byte anchor per 64 of them, the bit-set, and a word and its rank
//! per stored bitmap word and per top-level word — at W = 11 a dense bank
//! stores nearly all 65 536 bitmap words (768 KB) beside the 12 KB top
//! level.

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
        "posting bits",
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
            format!("{}", idx.posting_bits()),
            format!("{}", stats.index_bytes),
            format!("{}", stats.total_bytes),
            format!("{:.2}", stats.total_bytes as f64 / n as f64),
        ]);
        eprintln!("  done {name}");
    }
    print!("{t}");
    println!(
        "\npaper model: ~5 bytes/residue (1 SEQ + 4 INDEX); here b/8 bytes of postings per \
         position (b = posting bits, the bank length's bit width), 2 + 1/16 bytes per distinct \
         seed, 1/8 byte per position, and 12 bytes per stored bitmap word and per top-level word \
         ({} KiB of top level at W={})",
        (12 * 4usize.pow(cfg.w as u32).div_ceil(4096)) >> 10,
        cfg.w
    );
}
