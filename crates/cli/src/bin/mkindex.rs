//! `mkindex` — build a subject bank's occurrence index once and persist
//! it (the build-once half of intensive comparison; `scoris-n --index`
//! is the query-many half).
//!
//! ```text
//! mkindex <bank.fa> [options]
//!
//!   -W, --word N        seed length (default 11; asymmetric mode indexes W−1)
//!   -f, --filter KIND   none | entropy | dust (default entropy)
//!       --asymmetric    subject-side (W−1)-mer stride-2 indexing (section 3.4)
//!       --stats         print build time and footprint to stderr
//!   -o, --out FILE      output index (default <bank.fa>.oidx)
//! ```
//!
//! The preparation (mask + index) is exactly what `scoris-n` would do for
//! its second bank under the same options — `oris_core::PreparedBank`
//! runs it, this tool only persists the result — so a comparison that
//! loads the file is byte-identical to the all-in-memory run. The filter
//! kind and the masked fraction are recorded in the file; `scoris-n
//! --index` refuses an index prepared under different options.

use std::process::ExitCode;

use oris_cli::{read_bank, Args};
use oris_core::{FilterKind, OrisConfig, PreparedBank};
use oris_index::IndexMeta;

fn usage() -> &'static str {
    "usage: mkindex <bank.fa> [-W n] [-f none|entropy|dust] [--asymmetric]\n\
     \t[--stats] [-o out.oidx]"
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &["word", "filter", "out"],
        &["asymmetric", "stats", "help"],
        &[("W", "word"), ("f", "filter"), ("o", "out"), ("h", "help")],
    )
    .map_err(|e| format!("{e}\n{}", usage()))?;

    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    if args.positional.len() != 1 {
        return Err(format!("expected one FASTA bank\n{}", usage()));
    }
    let bank_path = &args.positional[0];

    let filter = match args.options.get("filter") {
        Some(name) => name.parse()?,
        None => FilterKind::Entropy,
    };
    let cfg = OrisConfig {
        w: args.get_or("word", 11).map_err(|e| e.to_string())?,
        filter,
        asymmetric: args.has_flag("asymmetric"),
        ..OrisConfig::default()
    };
    cfg.validate()?;

    let bank = read_bank(bank_path)?;
    let prepared = PreparedBank::prepare(&bank, cfg.filter, cfg.subject_index_config());
    let meta = IndexMeta {
        masked_fraction: prepared.stats().masked_fraction,
        filter_code: cfg.filter.code(),
        // Content fingerprint: lets the loader refuse this index if the
        // FASTA is edited afterwards, even at unchanged length.
        bank_hash: oris_index::persist::fnv1a(bank.data()),
    };

    let out = args
        .options
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{bank_path}.oidx"));
    oris_index::write_index_file(&out, prepared.index(), &meta)
        .map_err(|e| format!("{out}: {e}"))?;

    let s = prepared.stats();
    let istats = prepared.index().stats();
    if args.has_flag("stats") {
        eprintln!(
            "build={:.3}s w={} stride={} positions={} distinct={} masked={:.4} index_bytes={} fully_indexed={}",
            s.build_secs,
            prepared.index().w(),
            prepared.index().stride(),
            istats.indexed_positions,
            istats.distinct_seeds,
            s.masked_fraction,
            istats.index_bytes,
            prepared.index().is_fully_indexed(),
        );
    }
    eprintln!(
        "mkindex: wrote index of {bank_path} ({} positions, {} bytes) to {out}",
        istats.indexed_positions, istats.index_bytes
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mkindex: {e}");
            ExitCode::FAILURE
        }
    }
}
