//! One workload, end to end: set-up, the closed loop of timed CLI runs
//! (one client, tracing off), and the separate traced pass that produces
//! the per-layer numbers.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use oris_core::OrisConfig;
use oris_db::{make_db, MakeDbOptions};
use oris_index::persist::fnv1a;
use oris_seqio::write_fasta_file;

use crate::check;
use crate::gen::{self, Inputs, Truth};
use crate::proc::{self, ChildUsage};
use crate::staged::{self, Layers, Staged};
use crate::stats::{median, summarize, Summary};

/// Set-ups per end-to-end run; `setup_s` is their median. A cheap set-up
/// is repeated further, up to the budget: a two-millisecond set-up timed
/// three times on a CPU just out of idle says little.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 200;
const SETUP_BUDGET_SECS: f64 = 1.0;
/// Timed CLI runs of a measurement never fall below this, whatever
/// `--seconds` says.
pub const MIN_TIMED_RUNS: usize = 5;
/// CLI runs of a traced pass at the gated thread count and at the other
/// one, and the most staged repetitions it makes.
const TRACED_GATED_RUNS: usize = 3;
const TRACED_OTHER_RUNS: usize = 2;
const MAX_STAGED_REPS: usize = 5;
/// Volumes `makedb` shards the `reads_db_batch` subject into.
const DB_VOLUMES: usize = 4;

/// Where things are and how big the run is.
pub struct Ctx {
    /// Directory holding `scoris_n` and `makedb`.
    pub bin_dir: PathBuf,
    /// `benchmark/out`.
    pub out_dir: PathBuf,
    /// `min(nproc, 4)`: the `-t` of every gated run but one workload's,
    /// see [`Ctx::gated_threads`].
    pub threads: usize,
    /// Input divisor: 1 measured, 20 `--smoke`.
    pub shrink: usize,
    /// Measurement budget per pass, seconds.
    pub seconds: f64,
    /// Fewest timed runs of the end-to-end pass ([`MIN_TIMED_RUNS`]; 1
    /// under `--smoke`).
    pub min_timed_runs: usize,
}

impl Ctx {
    /// The `-t` of `workload`'s timed runs and of its staged run.
    ///
    /// `reads_db_batch` is gated at `-t 1`. Each of its reads fans a
    /// fraction of a millisecond of work out to freshly spawned threads,
    /// per volume and per step, so at `-t N` its run time is set by how
    /// the host places the vCPUs: the same inputs take 0.63 s or 1.0 s for
    /// minutes at a time, and no bound under 25 % survives that. `-t 1` is
    /// also what the numbers tell a user to run; the traced pass still
    /// runs `-t N` and reports the gap as `scale.par_speedup`.
    pub fn gated_threads(&self, workload: &str) -> usize {
        if workload == "reads_db_batch" {
            1
        } else {
            self.threads
        }
    }
}

/// Operations attempted and failed. Every child run is an operation; it
/// fails if the child exits non-zero or any check on its output fails.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    fn fail(&mut self, what: String) {
        eprintln!("benchmark: FAILED: {what}");
        self.failed += 1;
        self.errors.push(what);
    }
}

/// The generated inputs on disk.
struct SetUp {
    work: PathBuf,
    inputs: Inputs,
    query_fa: PathBuf,
    subject_fa: PathBuf,
    db_dir: PathBuf,
}

impl Drop for SetUp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// The `makedb --volume-size` that shards the subject into exactly
/// [`DB_VOLUMES`] volumes: a volume closes when the next sequence would
/// overflow it, so with the longest sequence as slack every closed volume
/// holds more than its even share.
fn volume_size(inputs: &Inputs) -> usize {
    let subject = &inputs.subject;
    let longest = subject.records().iter().map(|r| r.len).max().unwrap_or(0);
    subject.num_residues().div_ceil(DB_VOLUMES) + longest
}

fn child(ctx: &Ctx, work: &Path, bin: &str) -> Result<Command, String> {
    let log = work.join("stderr.log");
    let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut cmd = Command::new(ctx.bin_dir.join(bin));
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    Ok(cmd)
}

/// Runs a prepared child as one operation. `Ok(None)` is a failed
/// operation (counted); `Err` means the benchmark itself cannot go on.
fn operate(ops: &mut Ops, work: &Path, mut cmd: Command) -> Result<Option<ChildUsage>, String> {
    ops.attempted += 1;
    let usage = proc::run(&mut cmd).map_err(|e| format!("{:?}: {e}", cmd.get_program()))?;
    if usage.ok {
        return Ok(Some(usage));
    }
    let stderr = std::fs::read_to_string(work.join("stderr.log")).unwrap_or_default();
    ops.fail(format!(
        "{:?} exited non-zero: {}",
        cmd.get_program(),
        stderr.trim()
    ));
    Ok(None)
}

/// Generates the inputs from the seed, writes the FASTA files and runs
/// the product's own set-up command (`makedb`, on the database workload).
fn set_up(ctx: &Ctx, workload: &str, seed: u64, ops: &mut Ops) -> Result<SetUp, String> {
    let work = ctx
        .out_dir
        .join(format!("work.{workload}.{seed}.{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let inputs = gen::generate(workload, seed, ctx.shrink);
    let s = SetUp {
        query_fa: work.join("query.fa"),
        subject_fa: work.join("subject.fa"),
        db_dir: work.join("db"),
        work,
        inputs,
    };
    write_fasta_file(&s.inputs.query, &s.query_fa).map_err(|e| e.to_string())?;
    write_fasta_file(&s.inputs.subject, &s.subject_fa).map_err(|e| e.to_string())?;
    if s.inputs.db_batch {
        let mut cmd = child(ctx, &s.work, "makedb")?;
        cmd.arg(&s.subject_fa)
            .arg("-o")
            .arg(&s.db_dir)
            .arg("--volume-size")
            .arg(volume_size(&s.inputs).to_string());
        if operate(ops, &s.work, cmd)?.is_none() {
            return Err("makedb failed; nothing to search".into());
        }
    }
    Ok(s)
}

/// One `scoris_n` run writing `-m 8` to a file; returns its cost and the
/// bytes it wrote.
fn cli_run(
    ctx: &Ctx,
    s: &SetUp,
    threads: usize,
    ops: &mut Ops,
) -> Result<Option<(ChildUsage, Vec<u8>)>, String> {
    let out = s.work.join("cli.m8");
    let _ = std::fs::remove_file(&out);
    let mut cmd = child(ctx, &s.work, "scoris_n")?;
    if s.inputs.db_batch {
        cmd.arg("--batch")
            .arg(&s.query_fa)
            .arg("--db")
            .arg(&s.db_dir);
    } else {
        cmd.arg(&s.query_fa).arg(&s.subject_fa);
    }
    cmd.arg("-t").arg(threads.to_string()).arg("-o").arg(&out);
    let Some(usage) = operate(ops, &s.work, cmd)? else {
        return Ok(None);
    };
    let bytes = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Some((usage, bytes)))
}

/// A reference output that passed every check, and what it says.
struct Reference {
    bytes: Vec<u8>,
    records: usize,
    recall: f64,
}

/// The warm-up run: its output becomes the reference every later run
/// (timed, `-t 1`, staged, cache replay) must match byte for byte.
fn reference_run(ctx: &Ctx, workload: &str, s: &SetUp, ops: &mut Ops) -> Result<Reference, String> {
    let threads = ctx.gated_threads(workload);
    let (_, bytes) = cli_run(ctx, s, threads, ops)?.ok_or("the warm-up run failed")?;
    let records = match check::well_formed(&bytes, &s.inputs) {
        Ok(records) => records,
        Err(e) => {
            ops.fail(format!("{workload}: malformed output: {e}"));
            Vec::new()
        }
    };
    if s.inputs.truth == Truth::NoHomology && records.len() > check::NULL_MAX_RECORDS {
        ops.fail(format!(
            "{workload}: {} records between banks that share no homology",
            records.len()
        ));
    }
    Ok(Reference {
        recall: check::planted_recall(&records, &s.inputs),
        records: records.len(),
        bytes,
    })
}

fn same_bytes(ops: &mut Ops, what: &str, got: &[u8], reference: &Reference) -> bool {
    let same = got == reference.bytes;
    if !same {
        ops.fail(format!(
            "{what}: output differs from the reference run ({:016x} vs {:016x})",
            fnv1a(got),
            fnv1a(&reference.bytes)
        ));
    }
    same
}

/// Timed `-t threads` runs: at least `min_runs`, then until `deadline`.
/// Only runs whose bytes match the reference are sampled.
fn timed_runs(
    ctx: &Ctx,
    s: &SetUp,
    threads: usize,
    reference: &Reference,
    min_runs: usize,
    deadline: Option<(Instant, f64)>,
    ops: &mut Ops,
) -> Result<Vec<ChildUsage>, String> {
    let mut samples = Vec::new();
    let mut runs = 0;
    while runs < min_runs || deadline.is_some_and(|(t0, secs)| t0.elapsed().as_secs_f64() < secs) {
        runs += 1;
        if let Some((usage, bytes)) = cli_run(ctx, s, threads, ops)? {
            if same_bytes(ops, &format!("-t {threads} run {runs}"), &bytes, reference) {
                eprintln!(
                    "benchmark: -t {threads} run {runs}: wall {:.4} s  cpu {:.4} s  rss {:.1} MB",
                    usage.wall_s, usage.cpu_s, usage.peak_rss_mb
                );
                samples.push(usage);
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("no -t {threads} run succeeded"));
    }
    Ok(samples)
}

fn summary_of(samples: &[ChildUsage], f: impl Fn(&ChildUsage) -> f64) -> Summary {
    summarize(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// The end-to-end pass of one workload.
pub struct EndToEnd {
    /// `(metric name, summary)` for every end-to-end metric; the reported
    /// value is the median, except `peak_rss_mb`, which reports the max.
    pub metrics: Vec<(&'static str, Summary)>,
    pub records: usize,
    pub output_fnv: u64,
}

/// Set-up ×3 or more → 1 warm-up → timed runs for `ctx.seconds`, tracing off.
pub fn end_to_end(ctx: &Ctx, workload: &str, seed: u64, ops: &mut Ops) -> Result<EndToEnd, String> {
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut set = None;
    while setup_secs.len() < MIN_SETUP_REPS
        || (setup_secs.len() < MAX_SETUP_REPS && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_SECS)
    {
        drop(set.take());
        let t = Instant::now();
        set = Some(set_up(ctx, workload, seed, ops)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let s = set.expect("MIN_SETUP_REPS > 0");
    let reference = reference_run(ctx, workload, &s, ops)?;
    let deadline = Some((Instant::now(), ctx.seconds));
    let threads = ctx.gated_threads(workload);
    let samples = timed_runs(
        ctx,
        &s,
        threads,
        &reference,
        ctx.min_timed_runs,
        deadline,
        ops,
    )?;

    let mut rss = summary_of(&samples, |u| u.peak_rss_mb);
    rss.median = rss.max;
    // At smoke size the children are smaller than the driver; their RSS
    // means nothing there and is not checked.
    if ctx.shrink == 1 && proc::own_peak_rss_mb().is_some_and(|own| rss.min <= own) {
        ops.fail(format!(
            "{workload}: peak_rss_mb {:.1} MB is the driver's own peak, not the child's",
            rss.min
        ));
    }
    let recall = reference.recall;
    Ok(EndToEnd {
        metrics: vec![
            ("wall_s", summary_of(&samples, |u| u.wall_s)),
            ("cpu_s", summary_of(&samples, |u| u.cpu_s)),
            ("peak_rss_mb", rss),
            ("setup_s", summarize(&setup_secs)),
            ("planted_recall", summarize(&[recall])),
        ],
        records: reference.records,
        output_fnv: fnv1a(&reference.bytes),
    })
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

/// Builds the database in-process (`make_db`) for the staged run and
/// returns the `db.makedb_*` metrics.
fn staged_makedb(s: &SetUp, dir: &Path) -> Result<Layers, String> {
    let t = Instant::now();
    let subject = oris_seqio::read_fasta_file(&s.subject_fa).map_err(|e| e.to_string())?;
    let opts = MakeDbOptions::new(&OrisConfig::default(), volume_size(&s.inputs));
    let manifest = make_db([subject], dir, &opts).map_err(|e| e.to_string())?;
    let makedb_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Layers::from([
        ("db.makedb_ms", makedb_ms),
        (
            "db.disk_bytes_per_residue",
            dir_bytes(dir)? as f64 / manifest.total_residues as f64,
        ),
    ]))
}

/// The traced pass of one workload: a few CLI runs at the gated thread
/// count and at the other one (`-t 1` against `-t N`) for the scaling
/// numbers, then staged in-process runs (repeated while the budget lasts,
/// per-layer values are medians over the repetitions) whose bytes must
/// equal the CLI's. Writes the first repetition's spans to
/// `out/trace.<workload>.jsonl`.
pub fn traced(ctx: &Ctx, workload: &str, seed: u64, ops: &mut Ops) -> Result<Layers, String> {
    let t0 = Instant::now();
    let s = set_up(ctx, workload, seed, ops)?;
    let reference = reference_run(ctx, workload, &s, ops)?;
    let threads = ctx.gated_threads(workload);
    let other = if threads == 1 { ctx.threads } else { 1 };
    let gated = timed_runs(ctx, &s, threads, &reference, TRACED_GATED_RUNS, None, ops)?;
    let others = timed_runs(ctx, &s, other, &reference, TRACED_OTHER_RUNS, None, ops)?;
    let (t1, tn) = if threads == 1 {
        (&gated, &others)
    } else {
        (&others, &gated)
    };

    let staged_db = s.work.join("db_staged");
    let mut layers = Layers::new();
    if s.inputs.db_batch {
        layers.extend(staged_makedb(&s, &staged_db)?);
    }
    let out = s.work.join("staged.m8");
    let mut reps: Vec<Staged> = Vec::new();
    while reps.is_empty()
        || (reps.len() < MAX_STAGED_REPS && t0.elapsed().as_secs_f64() < ctx.seconds)
    {
        ops.attempted += 1;
        let rep = if s.inputs.db_batch {
            staged::db_batch(&s.query_fa, &staged_db, threads, &out)?
        } else {
            staged::bank_vs_bank(&s.query_fa, &s.subject_fa, threads, &out)?
        };
        let bytes = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        same_bytes(ops, "staged run", &bytes, &reference);
        reps.push(rep);
    }
    reps[0]
        .recorder
        .write_jsonl(
            workload,
            &ctx.out_dir.join(format!("trace.{workload}.jsonl")),
        )
        .map_err(|e| e.to_string())?;
    let names: Vec<&'static str> = reps[0].layers.keys().copied().collect();
    for name in names {
        let values: Vec<f64> = reps.iter().map(|r| r.layers[name]).collect();
        layers.insert(name, median(&values));
    }
    if s.inputs.db_batch {
        ops.attempted += 1;
        let off_total_us = median(&reps.iter().map(|r| r.query_total_us).collect::<Vec<f64>>());
        layers.extend(staged::cache_replay(
            &s.query_fa,
            &staged_db,
            threads,
            &out,
            off_total_us,
        )?);
        let bytes = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        same_bytes(ops, "cache replay", &bytes, &reference);
    }

    let wall = summary_of(&gated, |u| u.wall_s).median;
    let wall_t1 = summary_of(t1, |u| u.wall_s).median;
    let wall_tn = summary_of(tn, |u| u.wall_s).median;
    let cpu_tn = summary_of(tn, |u| u.cpu_s).median;
    let staged_ms = median(&reps.iter().map(|r| r.wall_ms).collect::<Vec<f64>>());
    let (q, sub) = (&s.inputs.query, &s.inputs.subject);
    layers.extend([
        ("scale.wall_t1_s", wall_t1),
        ("scale.par_speedup", wall_t1 / wall_tn),
        ("scale.cpu_over_wall", cpu_tn / wall_tn),
        ("thr.mbp2_per_s", q.mbp() * sub.mbp() / wall),
        ("thr.queries_per_s", q.num_sequences() as f64 / wall),
        ("thr.records_per_s", reference.records as f64 / wall),
        ("trace.staged_ms", staged_ms),
        ("trace.staged_over_cli", staged_ms / 1e3 / wall),
    ]);
    Ok(layers)
}
