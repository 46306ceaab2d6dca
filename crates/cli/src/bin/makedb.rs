//! `makedb` — shard FASTA input into a searchable subject database
//! (size-bounded volumes, each a persisted bank + CSR index, plus a
//! manifest with database-wide statistics). `scoris-n --db` is the
//! search half.
//!
//! ```text
//! makedb <bank.fa> [more.fa ...] -o <dir> [options]
//!
//!   -o, --out DIR       database directory (required; manifest must not exist)
//!   -v, --volume-size N residue budget per volume (default 10000000;
//!                       sequences are never split across volumes)
//!   -W, --word N        seed length (default 11; asymmetric mode indexes W−1)
//!   -f, --filter KIND   none | entropy | dust (default entropy)
//!       --asymmetric    subject-side (W−1)-mer stride-2 indexing (section 3.4)
//!       --stats         print per-volume build statistics to stderr
//! ```
//!
//! The per-volume preparation (mask + index) is exactly what `scoris-n`
//! would do for a subject bank under the same options, so a `--db` search
//! is byte-identical to a single-bank run over the concatenated input
//! (e-values included: the manifest records the database-wide residue
//! total every volume prices alignments against).

use std::process::ExitCode;

use oris_cli::Args;
use oris_core::{FilterKind, OrisConfig};
use oris_db::{make_db, MakeDbOptions};

fn usage() -> &'static str {
    "usage: makedb <bank.fa> [more.fa ...] -o dir [-v residues] [-W n]\n\
     \t[-f none|entropy|dust] [--asymmetric] [--stats]"
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &["word", "filter", "out", "volume-size"],
        &["asymmetric", "stats", "help"],
        &[
            ("W", "word"),
            ("f", "filter"),
            ("o", "out"),
            ("v", "volume-size"),
            ("h", "help"),
        ],
    )
    .map_err(|e| format!("{e}\n{}", usage()))?;

    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    if args.positional.is_empty() {
        return Err(format!("expected at least one FASTA bank\n{}", usage()));
    }
    let out_dir = args
        .options
        .get("out")
        .ok_or_else(|| format!("-o/--out is required\n{}", usage()))?;

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
    let volume_residues: usize = args
        .get_or("volume-size", 10_000_000)
        .map_err(|e| e.to_string())?;
    if volume_residues == 0 {
        return Err("--volume-size must be at least 1".into());
    }

    let t0 = oris_obs::Stopwatch::start();
    // Banks are read (and dropped) one input file at a time; the volume
    // splitter holds at most one building volume beyond that.
    let sources = args.positional.iter().map(|p| {
        oris_seqio::read_fasta_file(p)
            .map_err(|e| format!("{p}: {e}"))
            .unwrap_or_else(|e| {
                eprintln!("makedb: {e}");
                std::process::exit(1);
            })
    });
    let manifest = make_db(sources, out_dir, &MakeDbOptions::new(&cfg, volume_residues))
        .map_err(|e| e.to_string())?;

    if args.has_flag("stats") {
        for v in &manifest.volumes {
            eprintln!(
                "volume={} residues={} sequences={} fasta={} index={} hash={:016x}",
                v.id, v.residues, v.sequences, v.fasta, v.index, v.bank_hash
            );
        }
    }
    eprintln!(
        "makedb: wrote {} volume(s), {} residues, w={} stride={} filter={} to {out_dir} in {:.3}s",
        manifest.volumes.len(),
        manifest.total_residues,
        manifest.w,
        manifest.stride,
        filter,
        t0.elapsed_secs(),
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("makedb: {e}");
            ExitCode::FAILURE
        }
    }
}
