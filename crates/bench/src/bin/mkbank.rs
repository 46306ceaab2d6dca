//! `mkbank` — materialize synthetic DNA banks as FASTA files.
//!
//! ```text
//! mkbank <NAME|random> [options]
//!
//!   NAME                one of the paper banks: EST1..EST7, VRL, BCT, H10, H19
//!   --scale F           size multiplier over the reduced grid (default 1.0)
//!   -o, --out FILE      output FASTA (default <name>.fa)
//!
//! random mode:
//!   mkbank random --seqs N --len L [--gc F] [--seed S] [-o FILE]
//!
//!   --list              print the data-set table (paper section 3.2) and exit
//! ```
//!
//! A bank must fit an index: `--scale` is checked by
//! [`oris_bench::parse_scale`], `--seqs × (--len + 1)` must stay below
//! [`MAX_BANK_LEN`], and `--gc` is a fraction in `[0, 1]`. A refused value
//! is one stderr line and exit code 1, and no file is written.

use std::process::ExitCode;

use oris_bench::parse_scale;
use oris_cli::Args;
use oris_index::MAX_BANK_LEN;
use oris_simulate as sim;

fn usage() -> &'static str {
    "usage: mkbank <EST1..EST7|VRL|BCT|H10|H19|random> [--scale f] [-o out.fa]\n\
     \tmkbank random --seqs N --len L [--gc f] [--seed s] [-o out.fa]\n\
     \tmkbank --list"
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &["scale", "out", "seqs", "len", "gc", "seed"],
        &["list", "help"],
        &[("o", "out"), ("h", "help")],
    )
    .map_err(|e| format!("{e}\n{}", usage()))?;

    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    if args.has_flag("list") {
        let mut t =
            oris_bench::Table::new(vec!["Bank", "Origin (analogue)", "paper Mbp", "unit nt"]);
        for s in sim::paper_bank_specs() {
            t.row(vec![
                s.name.to_string(),
                format!("{:?}", s.kind),
                format!("{:.2}", s.paper_mbp),
                format!("{}", s.unit_nt),
            ]);
        }
        print!("{t}");
        return Ok(());
    }
    if args.positional.len() != 1 {
        return Err(format!("expected a bank name\n{}", usage()));
    }
    let name = &args.positional[0];

    let bank = if name == "random" {
        let seqs: usize = args.get_or("seqs", 100).map_err(|e| e.to_string())?;
        let len: usize = args.get_or("len", 500).map_err(|e| e.to_string())?;
        let gc: f64 = args.get_or("gc", 0.5).map_err(|e| e.to_string())?;
        let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
        if !(0.0..=1.0).contains(&gc) {
            return Err(format!("--gc {gc}: must be a fraction in [0, 1]"));
        }
        // Each sequence is its residues plus one sentinel position.
        let positions = len.checked_add(1).and_then(|l| seqs.checked_mul(l));
        if positions.is_none_or(|p| p >= MAX_BANK_LEN) {
            return Err(format!(
                "--seqs {seqs} --len {len}: the bank would reach the {MAX_BANK_LEN} positions \
                 an index addresses"
            ));
        }
        sim::random_bank(seed, seqs, len, gc)
    } else {
        let Some(spec) = sim::banks::spec_by_name(name) else {
            return Err(format!("unknown bank {name:?}\n{}", usage()));
        };
        let scale = match args.options.get("scale") {
            Some(v) => parse_scale(v, spec.unit_nt)?,
            None => 1.0,
        };
        sim::paper_bank(name, scale).bank
    };

    let default_name = format!("{}.fa", name.to_lowercase());
    let out = args.options.get("out").cloned().unwrap_or(default_name);
    oris_seqio::fasta::write_fasta_file(&bank, &out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "mkbank: wrote {} ({} sequences, {} nt) to {out}",
        name,
        bank.num_sequences(),
        bank.num_residues()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mkbank: {e}");
            ExitCode::FAILURE
        }
    }
}
