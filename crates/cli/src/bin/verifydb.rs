//! `verifydb` — offline integrity check (fsck) for a `makedb` database.
//!
//! ```text
//! verifydb <db-dir> [--quiet]
//!
//!       --quiet         print only failures (and nothing on success)
//! ```
//!
//! Checks, per volume: the FASTA is readable and parseable, its content
//! hash matches the manifest, residue and sequence counts match, the
//! index file is structurally sound (magic, version, whole-stream
//! checksum), and the index agrees with the manifest on configuration
//! and content hash. The manifest itself (trailing checksum, residue
//! totals, volume ids) is validated before any volume is touched.
//!
//! One line per volume (`OK` / `FAILED: <cause>`), worst result decides
//! the exit code:
//!
//! * `0` — every volume passed
//! * `1` — usage error
//! * `2` — manifest invalid (nothing per-volume to report)
//! * `3` — at least one volume failed verification
//! * `4` — database directory / manifest unreadable (I/O)

use std::process::ExitCode;
use std::sync::Arc;

use oris_cli::Args;
use oris_db::{verify_db, RealIo};

fn usage() -> &'static str {
    "usage: verifydb <db-dir> [--quiet]"
}

struct CliError {
    msg: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { msg, code: 1 }
    }
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, &[], &["quiet", "help"], &[("h", "help")])
        .map_err(|e| format!("{e}\n{}", usage()))?;
    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    if args.positional.len() != 1 {
        return Err(format!("expected one database directory\n{}", usage()).into());
    }
    let dir = &args.positional[0];
    let quiet = args.has_flag("quiet");

    let report = verify_db(dir, Arc::new(RealIo)).map_err(|e| CliError {
        msg: format!("{dir}: {e}"),
        code: e.exit_code(),
    })?;

    for v in &report.volumes {
        match &v.error {
            None => {
                if !quiet {
                    println!("volume {:05}: OK ({} + {})", v.volume, v.fasta, v.index);
                }
            }
            Some(e) => println!("volume {:05}: FAILED: {e}", v.volume),
        }
    }
    if report.is_ok() {
        if !quiet {
            println!(
                "{dir}: OK — {} volumes, {} residues",
                report.volumes.len(),
                report.total_residues
            );
        }
        Ok(())
    } else {
        Err(CliError {
            msg: format!(
                "{dir}: {} of {} volumes failed verification",
                report.failures().count(),
                report.volumes.len()
            ),
            code: report.exit_code(),
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("verifydb: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}
