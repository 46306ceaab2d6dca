//! The ORIS benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! oris-benchmark --bin-dir DIR [--seed S] [--seconds T] [--smoke] [--record]
//!     every workload, both passes; prints every metric, writes
//!     benchmark/out/results.json and benchmark/out/trace.<workload>.jsonl
//! oris-benchmark --bin-dir DIR --workload W --seed S --seconds T --trace 0|1
//!     one pass of one workload; the last stdout line is the result object
//!     (the suite runs each pass this way, in a process of its own)
//! oris-benchmark compare A.json B.json
//! ```

mod check;
mod gen;
mod json;
mod metrics;
mod proc;
mod report;
mod run;
mod spans;
mod staged;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::RunInfo;
use run::{Ctx, Ops};

/// Seconds each pass measures for when `--seconds` is not given
/// (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` divides every workload by this.
const SMOKE_SHRINK: usize = 20;
/// Where `--record` appends, relative to the repository root `run.sh`
/// runs the driver from.
const HISTORY: &str = "benchmark/history.jsonl";

struct Args {
    bin_dir: PathBuf,
    out_dir: PathBuf,
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
    /// Where a single pass also writes its full pass document.
    result_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: false,
        result_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--bin-dir" => a.bin_dir = PathBuf::from(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                let known = gen::WORKLOADS.iter().find(|w| *w == name);
                a.workload = Some(known.ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--result-file" => a.result_file = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--record" => a.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// The short commit hash, `+dirty` when the tree has uncommitted changes,
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain"]) {
        Some(changes) if !changes.is_empty() => head + "+dirty",
        _ => head,
    }
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = report::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn one_pass(ctx: &Ctx, name: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let mut ops = Ops::default();
    let threads = ctx.gated_threads(name);
    if trace {
        let layers = run::traced(ctx, name, seed, &mut ops)?;
        Ok(report::pass_json(name, threads, &ops, None, Some(&layers)))
    } else {
        let e = run::end_to_end(ctx, name, seed, &mut ops)?;
        Ok(report::pass_json(name, threads, &ops, Some(&e), None))
    }
}

/// Runs one pass in a process of its own and reads back its pass
/// document. A child's `ru_maxrss` starts from the peak RSS of the
/// process that spawned it, so whatever spawns `scoris_n` must stay
/// smaller than anything it measures — which a driver that had generated
/// the largest workload, or run a staged pass in-process, would not.
fn spawn_pass(args: &Args, name: &str, trace: bool) -> Result<Json, String> {
    let file = args
        .out_dir
        .join(format!("pass.{name}.{}.json", u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--bin-dir").arg(&args.bin_dir);
    cmd.arg("--out-dir").arg(&args.out_dir);
    cmd.arg("--result-file").arg(&file);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }]);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{name}: the pass exited with {status}"));
    }
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let _ = std::fs::remove_file(&file);
    json::parse(&text)
}

fn run_suite(args: &Args, threads: usize) -> Result<ExitCode, String> {
    let info = RunInfo {
        commit: git_commit(),
        seed: args.seed,
        nproc: nproc(),
        threads,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let mut workloads = Vec::new();
    for name in gen::WORKLOADS {
        eprintln!("benchmark: {name}: end-to-end pass");
        let end_to_end = spawn_pass(args, name, false)?;
        eprintln!("benchmark: {name}: traced pass");
        let traced = spawn_pass(args, name, true)?;
        workloads.push((name, report::merge_passes(&end_to_end, &traced)));
    }
    let doc = report::results_json(&info, workloads);
    report::print_table(&doc);
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    let failed = report::failed_ops(&doc);
    println!("\nfailed_ops {failed}   results: {}", path.display());
    if failed > 0.0 {
        return Ok(ExitCode::FAILURE);
    }
    if args.record {
        report::append_history(Path::new(HISTORY), &doc).map_err(|e| format!("{HISTORY}: {e}"))?;
        println!("recorded one line in {HISTORY}");
    }
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => run_compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        };
    }
    let args = parse_args(&argv)?;
    if args.record && (args.smoke || args.workload.is_some()) {
        return Err("--record takes a full run of every workload".into());
    }
    for bin in ["scoris_n", "makedb"] {
        let p = args.bin_dir.join(bin);
        if !p.is_file() {
            return Err(format!("{}: not built (run benchmark/run.sh)", p.display()));
        }
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let ctx = Ctx {
        bin_dir: args.bin_dir.clone(),
        out_dir: args.out_dir.clone(),
        threads: nproc().min(4),
        shrink: if args.smoke { SMOKE_SHRINK } else { 1 },
        // A smoke run checks, it does not measure: one repetition each.
        seconds: if args.smoke { 0.0 } else { args.seconds },
        min_timed_runs: if args.smoke { 1 } else { run::MIN_TIMED_RUNS },
    };
    match args.workload {
        Some(name) => {
            let pass = one_pass(&ctx, name, args.seed, args.trace)?;
            if let Some(file) = &args.result_file {
                std::fs::write(file, pass.render())
                    .map_err(|e| format!("{}: {e}", file.display()))?;
            }
            println!("{}", report::contract_line(&pass));
            Ok(ExitCode::SUCCESS)
        }
        None => run_suite(&args, ctx.threads),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
