//! `scoris-n` — Sequence COmparison using the ORIS algorithm on
//! Nucleotides (the paper's prototype, as a command-line tool).
//!
//! Every run is one flow: a *subject source* (a FASTA bank prepared here,
//! or a `--db` database) × a *query source* (the positional query bank —
//! a batch of one — or `--batch`'s directory / multi-FASTA file), every
//! query searched in turn and its records sorted and written at its
//! boundary by one `StreamWriter` over the `-o` destination. Every subject is searched
//! by one `oris_db::DbSession` — a FASTA subject as a database of one
//! resident volume — so `--deadline`, `--result-cache` and the `--stats`
//! counters mean the same for each. The session counts what it runs
//! (`query` spans, `query_seconds`, `queries_total`, `records_total`);
//! this file only assembles the `--stats` line.
//!
//! ```text
//! scoris-n <bank1.fa> <bank2.fa> [options]
//! scoris-n --batch <dir-or-multi.fa> <bank2.fa> [options]
//! scoris-n <bank1.fa> --db <dir> [options]
//! scoris-n --batch <dir-or-multi.fa> --db <dir> [options]
//!
//!   -W, --word N        seed length (default 11)
//!   -e, --evalue X      e-value threshold (default 1e-3, the paper's -e)
//!   -x, --xdrop N       ungapped X-drop (default 20)
//!   -X, --xdrop-gap N   gapped X-drop (default 25)
//!   -s, --minscore N    minimum HSP score S1 (default 18)
//!   -f, --filter KIND   none | entropy | dust (default entropy)
//!   -t, --threads N     worker threads (default: all cores)
//!       --asymmetric    asymmetric (W−1)-mer indexing (section 3.4)
//!       --both-strands  also search the complementary strand (sstart > send)
//!       --db DIR        search a `makedb` database instead of a subject
//!                       FASTA: every volume is searched per query, records
//!                       merged into one output stream, e-values computed
//!                       over the database-wide residue total
//!       --window N      max volumes attached at once (default 0 = all;
//!                       1 bounds memory to one volume's working set)
//!       --result-cache MB
//!                       memoize each completed query's whole answer in an
//!                       LRU bounded to MB megabytes, so a repeated query
//!                       is served without searching a volume (default 0 =
//!                       off; hits replay identical bytes)
//!       --dbsize N      subject-side effective search space: price every
//!                       alignment against N residues instead of the
//!                       subject sequence's length (BLAST's -z; what a
//!                       --db search does implicitly with the manifest
//!                       total)
//!       --deadline MS   per-query budget: a query that exceeds MS
//!                       milliseconds fails cleanly with exit code 7,
//!                       output untouched, instead of running unbounded
//!                       (read before each volume, inside step 2 and before
//!                       each step-3 wave); a --batch chunk of n queries
//!                       gets n × MS, and its expiry ends the batch
//!       --skip-bad-volumes
//!                       with --db: quarantine a volume that fails to attach
//!                       (after retrying transient faults) and complete the
//!                       query over the surviving volumes, warning on stderr
//!                       with the residue coverage actually searched
//!       --batch PATH    many queries: prepare bank 2 once, search the
//!                       query banks in chunks joined into one bank, and
//!                       stream each query bank's records out at its own
//!                       boundary, as if it were searched alone. PATH is a
//!                       directory of FASTA files (sorted by name, one query
//!                       bank each) or a multi-FASTA file (one query bank
//!                       per record). Peak memory stays at one chunk's
//!                       working set (at most 2^19 query positions).
//!       --stats         print per-step timings and counters to stderr: one
//!                       `key=value` line whose `mode=` is plain, batch or
//!                       db; `dispatches`, the `cache_*` counters (one hit
//!                       or miss per query) and the pipeline
//!                       keys are the same in all three (`index_builds`,
//!                       `total_index_builds` and `dispatches` count --batch
//!                       chunks, not queries; `masked1` is the largest
//!                       chunk's masked fraction)
//!       --trace FILE    write span-style trace events (attach, per-volume
//!                       search, steps 2–4, cache lookup, merge) to FILE as
//!                       JSON lines; see `oris-obs` for the event schema
//!       --metrics-json FILE
//!                       write the metrics registry (counters, gauges,
//!                       latency histograms) to FILE as JSON on exit, a
//!                       failed run's included
//!       --metrics-prom FILE
//!                       write the metrics registry to FILE in the
//!                       Prometheus text exposition format on exit, a
//!                       failed run's included
//!   -o, --out FILE      write -m 8 records to FILE (buffered, written to a
//!                       temporary sibling and atomically renamed on success;
//!                       default stdout)
//! ```
//!
//! Instrumentation is off the result path: any combination of `--trace`
//! / `--metrics-*` leaves the `-m 8` bytes identical to a bare run.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use oris_cli::{read_bank, Args};
use oris_core::{FilterKind, OrisConfig, PipelineStats, Session, StreamWriter};
use oris_db::{DbOptions, DbSession};
use oris_obs::{names, Obs, StatsBlock, Stopwatch};
use oris_seqio::Bank;

fn usage() -> &'static str {
    "usage: scoris-n <bank1.fa> <bank2.fa> [-W n] [-e x] [-x n] [-X n] [-s n]\n\
     \t[-f none|entropy|dust] [-t n] [--asymmetric] [--both-strands]\n\
     \t[--batch dir-or-multi.fa] [--db dir] [--window n] [--result-cache mb]\n\
     \t[--dbsize n] [--deadline ms] [--skip-bad-volumes] [--stats]\n\
     \t[--trace f.jsonl] [--metrics-json f.json] [--metrics-prom f.prom] [-o out.m8]"
}

/// A CLI failure: the one-line stderr message plus the process exit
/// code. Generic usage/input problems exit 1; database failures carry
/// [`oris_db::DbError::exit_code`]'s stable per-class codes (2 manifest,
/// 3 volume, 4 I/O, 5 configuration, 6 sink, 7 deadline) so scripts can
/// distinguish \"the database is rotten\" from \"the query timed out\"
/// without parsing stderr.
struct CliError {
    msg: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { msg, code: 1 }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError {
            msg: msg.to_string(),
            code: 1,
        }
    }
}

impl From<oris_db::DbError> for CliError {
    fn from(e: oris_db::DbError) -> CliError {
        CliError {
            code: e.exit_code(),
            msg: e.to_string(),
        }
    }
}

/// Where records go: stdout, or a temporary sibling of `-o`'s path that
/// [`Output::finish`] atomically renames into place — a crashed or failed
/// run never leaves a half-written output file under the requested name.
enum Output {
    Stdout,
    File { tmp: PathBuf, dest: PathBuf },
}

impl Output {
    fn open(path: Option<&String>) -> Result<(Box<dyn Write>, Output), String> {
        match path {
            None => Ok((
                Box::new(std::io::BufWriter::new(std::io::stdout())),
                Output::Stdout,
            )),
            Some(p) => {
                let dest = PathBuf::from(p);
                let mut name = dest
                    .file_name()
                    .ok_or_else(|| format!("{p}: not a file path"))?
                    .to_os_string();
                name.push(format!(".tmp.{}", std::process::id()));
                let tmp = dest.with_file_name(name);
                let f =
                    std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
                Ok((
                    Box::new(std::io::BufWriter::new(f)),
                    Output::File { tmp, dest },
                ))
            }
        }
    }

    /// Flushes `w` (which must be the writer `open` returned) and moves a
    /// tmp file to its final name. On *any* failure — flush included —
    /// the tmp file is removed, so no code path leaves a stray
    /// `.tmp.<pid>` sibling behind.
    fn finish(self, mut w: Box<dyn Write>) -> Result<(), String> {
        let flushed = w.flush().map_err(|e| e.to_string());
        drop(w);
        match self {
            Output::Stdout => flushed,
            Output::File { tmp, dest } => {
                let moved = flushed.and_then(|()| {
                    std::fs::rename(&tmp, &dest).map_err(|e| {
                        format!("renaming {} to {}: {e}", tmp.display(), dest.display())
                    })
                });
                if moved.is_err() {
                    let _ = std::fs::remove_file(&tmp);
                }
                moved
            }
        }
    }

    /// Removes the tmp file after a failed run (best effort).
    fn discard(self) {
        if let Output::File { tmp, .. } = self {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// The query source. `--batch` gives a directory of FASTA files (sorted
/// by file name, one query bank each) or a multi-FASTA file (one query
/// bank per record, so each record gets its own e-value search space —
/// the batch is N independent comparisons, not one big bank, even where
/// the sessions search a chunk of them jointly); without it the
/// positional query bank is a batch of `One`, already read.
///
/// Query banks are produced **lazily** — the sessions pull them into one
/// resident chunk at a time (`oris_core::JOINT_CHUNK_RESIDUES` positions,
/// plus the bank read to close the chunk), so a directory batch never
/// holds more query files than that (the multi-FASTA form keeps its one
/// source bank resident, and builds per-record query banks as they are
/// pulled). A file that fails to read mid-batch fuses the iterator and
/// parks the error in [`BatchQueries::error`] for the caller to surface
/// after the search returns.
enum BatchQueries {
    Dir {
        files: std::vec::IntoIter<PathBuf>,
        error: Option<String>,
    },
    Records {
        bank: Bank,
        next: usize,
    },
    One(Option<Bank>),
}

impl BatchQueries {
    fn open(path: &str) -> Result<BatchQueries, String> {
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        if meta.is_dir() {
            // Entry errors are fatal, not skipped: a dropped entry would
            // mean a query bank silently missing from the batch output.
            let mut files = Vec::new();
            for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
                let p = entry.map_err(|e| format!("{path}: {e}"))?.path();
                let ext = p
                    .extension()
                    .and_then(|e| e.to_str())
                    .map(|e| e.to_ascii_lowercase());
                // `is_file` follows symlinks: a subdirectory named
                // `old.fa` must be skipped here, not abort the batch
                // mid-run when the FASTA reader hits it.
                if matches!(ext.as_deref(), Some("fa") | Some("fasta") | Some("fna")) && p.is_file()
                {
                    files.push(p);
                }
            }
            if files.is_empty() {
                return Err(format!("{path}: no .fa/.fasta/.fna files in directory"));
            }
            files.sort();
            Ok(BatchQueries::Dir {
                files: files.into_iter(),
                error: None,
            })
        } else {
            let bank = read_bank(path)?;
            if bank.num_sequences() == 0 {
                return Err(format!("{path}: no sequences"));
            }
            Ok(BatchQueries::Records { bank, next: 0 })
        }
    }

    /// The read error that fused the iterator, if any.
    fn error(self) -> Option<String> {
        match self {
            BatchQueries::Dir { error, .. } => error,
            BatchQueries::Records { .. } | BatchQueries::One(_) => None,
        }
    }
}

impl Iterator for &mut BatchQueries {
    type Item = Bank;

    fn next(&mut self) -> Option<Bank> {
        match self {
            BatchQueries::Dir { files, error } => {
                if error.is_some() {
                    return None;
                }
                match read_bank(files.next()?) {
                    Ok(bank) => Some(bank),
                    Err(e) => {
                        *error = Some(e);
                        None
                    }
                }
            }
            BatchQueries::Records { bank, next } => {
                if *next >= bank.num_sequences() {
                    return None;
                }
                let codes = bank.sequence(*next);
                let mut b = oris_seqio::BankBuilder::with_capacity(codes.len(), 1);
                b.push_codes(&bank.record(*next).name, codes);
                *next += 1;
                Some(b.finish())
            }
            BatchQueries::One(bank) => bank.take(),
        }
    }
}

/// The run's observability wiring: one [`Obs`] handle (armed when any of
/// `--stats` / `--trace` / `--metrics-json` / `--metrics-prom` is given,
/// disarmed — a single branch per instrumented operation — otherwise)
/// plus the exposition paths to write when the run ends.
struct ObsSetup {
    obs: Obs,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
}

fn build_obs(args: &Args) -> Result<ObsSetup, String> {
    let metrics_json = args.options.get("metrics-json").cloned();
    let metrics_prom = args.options.get("metrics-prom").cloned();
    let trace = args.options.get("trace");
    let armed = args.has_flag("stats")
        || trace.is_some()
        || metrics_json.is_some()
        || metrics_prom.is_some();
    let obs = if armed {
        let mut builder = Obs::builder();
        if let Some(path) = trace {
            let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            builder = builder.trace(Box::new(std::io::BufWriter::new(f)));
        }
        builder.build()
    } else {
        Obs::disarmed()
    };
    Ok(ObsSetup {
        obs,
        metrics_json,
        metrics_prom,
    })
}

/// Flushes the trace sink and writes the `--metrics-*` documents, after a
/// failed run as after a successful one.
fn finish_obs(setup: &ObsSetup) -> Result<(), String> {
    setup
        .obs
        .flush()
        .map_err(|e| format!("flushing trace: {e}"))?;
    if setup.metrics_json.is_none() && setup.metrics_prom.is_none() {
        return Ok(());
    }
    let Some(snap) = setup.obs.snapshot() else {
        return Ok(());
    };
    if let Some(path) = &setup.metrics_json {
        std::fs::write(path, oris_obs::render_json(&snap)).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &setup.metrics_prom {
        std::fs::write(path, oris_obs::render_prometheus(&snap))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// The pipeline-stats fields every mode shares, in one
/// place so plain, db, and batch `--stats` lines keep the same schema.
fn pipeline_fields(b: &mut StatsBlock, s: &PipelineStats) {
    b.secs("index_secs", s.index_secs);
    b.field("index_builds", s.index_builds);
    b.secs("step2_secs", s.step2_secs);
    b.secs("step3_secs", s.step3_secs);
    b.secs("step4_secs", s.step4_secs);
    b.field("hsps", s.hsps);
    b.field("alignments", s.step4.emitted);
    b.field("pairs", s.step2.pairs_examined);
    b.field("aborted", s.step2.aborted);
    b.field("below", s.step2.below_threshold);
    b.field("kept", s.step2.kept);
    b.field("extended", s.step3.extended);
    b.field("contained", s.step3.skipped_contained);
    b.field("dp_cells", s.step3.dp_cells);
    b.field("masked1", format!("{:.4}", s.masked_fraction1));
    b.field("masked2", format!("{:.4}", s.masked_fraction2));
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &[
            "word",
            "evalue",
            "xdrop",
            "xdrop-gap",
            "minscore",
            "filter",
            "threads",
            "batch",
            "db",
            "window",
            "result-cache",
            "dbsize",
            "deadline",
            "trace",
            "metrics-json",
            "metrics-prom",
            "out",
        ],
        &[
            "asymmetric",
            "both-strands",
            "skip-bad-volumes",
            "stats",
            "help",
        ],
        &[
            ("W", "word"),
            ("e", "evalue"),
            ("x", "xdrop"),
            ("X", "xdrop-gap"),
            ("s", "minscore"),
            ("f", "filter"),
            ("t", "threads"),
            ("o", "out"),
            ("h", "help"),
        ],
    )
    .map_err(|e| format!("{e}\n{}", usage()))?;

    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    let batch_mode = args.options.contains_key("batch");
    let db_mode = args.options.contains_key("db");
    let expected_positionals = match (batch_mode, db_mode) {
        (true, true) => 0, // queries from --batch, subject from --db
        (true, false) | (false, true) => 1,
        (false, false) => 2,
    };
    if args.positional.len() != expected_positionals {
        let what = match (batch_mode, db_mode) {
            (true, true) => {
                "expected no FASTA banks (queries come from --batch, subject from --db)"
            }
            (true, false) => "expected one FASTA bank (the subject; queries come from --batch)",
            (false, true) => "expected one FASTA bank (the query; subject comes from --db)",
            (false, false) => "expected two FASTA banks",
        };
        return Err(format!("{what}\n{}", usage()).into());
    }
    // These two govern how a database's volumes attach; a FASTA subject
    // is one volume, attached from the start. Silently ignoring them would
    // let a mistyped --db flag run the plain two-bank path with none of
    // the requested attach/memory behaviour.
    if !db_mode && args.options.contains_key("window") {
        return Err("--window requires --db".into());
    }
    if !db_mode && args.has_flag("skip-bad-volumes") {
        return Err("--skip-bad-volumes requires --db".into());
    }

    let filter = match args.options.get("filter") {
        Some(name) => name.parse()?,
        None => FilterKind::Entropy,
    };
    let threads: usize = args.get_or("threads", 0).map_err(|e| e.to_string())?;

    // --dbsize: price every alignment against a fixed subject-side
    // residue total (BLAST's -z). A --db search sets this implicitly
    // from the manifest; an explicit value overrides even that.
    let subject_space = match args.options.get("dbsize") {
        None => oris_core::SubjectSpace::PerSequence,
        Some(v) => {
            let n: u64 = v.parse().map_err(|e| format!("--dbsize {v:?}: {e}"))?;
            if n == 0 {
                // m·0 = 0 would make every e-value exactly 0.0 — the
                // filter silently disabled by a typo.
                return Err("--dbsize must be at least 1".into());
            }
            oris_core::SubjectSpace::Database(n)
        }
    };
    let cfg = OrisConfig {
        w: args.get_or("word", 11).map_err(|e| e.to_string())?,
        evalue_threshold: args.get_or("evalue", 1e-3).map_err(|e| e.to_string())?,
        xdrop_ungapped: args.get_or("xdrop", 20).map_err(|e| e.to_string())?,
        xdrop_gapped: args.get_or("xdrop-gap", 25).map_err(|e| e.to_string())?,
        min_hsp_score: args.get_or("minscore", 18).map_err(|e| e.to_string())?,
        filter,
        asymmetric: args.has_flag("asymmetric"),
        both_strands: args.has_flag("both-strands"),
        threads: (threads > 0).then_some(threads),
        subject_space,
        ..OrisConfig::default()
    };
    cfg.validate()?;

    let opts = db_options(&args)?;
    let obs = build_obs(&args)?;
    let searched = search_subject(&args, &cfg, opts, batch_mode, &obs.obs);
    // The trace and the metrics documents are written whether the run
    // succeeded or not: a failed run's counters (a deadline expiry above
    // all) are part of what they report. The failure's exit code wins.
    let finished = finish_obs(&obs);
    searched?;
    finished?;
    Ok(())
}

/// Opens the queries and the subject — a database, or a FASTA bank
/// prepared here — searches them into the output and prints the
/// `--stats` line.
fn search_subject(
    args: &Args,
    cfg: &OrisConfig,
    opts: DbOptions,
    batch_mode: bool,
    obs: &Obs,
) -> Result<(), CliError> {
    // Every input is opened BEFORE Output::open creates the .tmp.<pid>
    // sibling: a bad query path, batch directory, subject bank or database
    // must fail without leaving a stray tmp file behind.
    let queries = match args.options.get("batch") {
        Some(batch_path) => BatchQueries::open(batch_path)?,
        None => BatchQueries::One(Some(read_bank(&args.positional[0])?)),
    };
    let (db, bank2);
    let (session, head, subject_builds) = match args.options.get("db") {
        // `open` covers the whole manifest read + validation + session
        // config checks — everything between "a directory name" and
        // "ready to attach volumes".
        Some(dir) => {
            let t0 = Stopwatch::start();
            let located = |e: oris_db::DbError| CliError {
                msg: format!("{dir}: {e}"),
                code: e.exit_code(),
            };
            db = oris_db::Database::open(dir).map_err(located)?;
            let session = DbSession::new(&db, cfg, opts).map_err(located)?;
            let mut head = StatsBlock::new("oris", "db");
            head.field("db", dir);
            head.field("volumes", db.num_volumes());
            // The residues every alignment is priced against: the
            // manifest total, or a --dbsize override.
            let priced = match session.config().subject_space {
                oris_core::SubjectSpace::Database(n) => n,
                oris_core::SubjectSpace::PerSequence => 0,
            };
            head.field("db_residues", priced);
            head.secs("open_secs", t0.elapsed_secs());
            (session, head, None)
        }
        // The FASTA subject, prepared once and searched as a database of
        // one resident volume.
        None => {
            bank2 = read_bank(args.positional.last().expect("counted above"))?;
            let t0 = Stopwatch::start();
            let session = Session::new(&bank2, cfg)?;
            let builds = session.subject_stats().builds;
            let session = DbSession::resident(session, opts)?;
            let mut head = StatsBlock::new("oris", if batch_mode { "batch" } else { "plain" });
            head.secs("subject_secs", t0.elapsed_secs());
            head.field("subject_builds", builds);
            (session, head, Some(builds))
        }
    };
    let stats = search(args, session, head, subject_builds, obs, queries)?;
    if args.has_flag("stats") {
        eprintln!("{}", stats.render());
    }
    Ok(())
}

/// The session options the flags set. `--window` and `--skip-bad-volumes`
/// were refused above unless the subject is a database.
fn db_options(args: &Args) -> Result<DbOptions, CliError> {
    let window: usize = args.get_or("window", 0).map_err(|e| e.to_string())?;
    let result_cache_mb: usize = args.get_or("result-cache", 0).map_err(|e| e.to_string())?;
    // Megabytes to bytes, checked: a wrapped product would silently
    // shrink the cache or switch it off (0).
    let result_cache_bytes = result_cache_mb
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("--result-cache {result_cache_mb}: too many megabytes"))?;
    // --deadline 0 is legal and expires immediately: a cheap way to
    // check the failure path end to end (and what the e2e tests pin).
    let deadline = match args.options.get("deadline") {
        None => None,
        Some(v) => {
            let ms: u64 = v.parse().map_err(|e| format!("--deadline {v:?}: {e}"))?;
            Some(std::time::Duration::from_millis(ms))
        }
    };
    let on_volume_error = if args.has_flag("skip-bad-volumes") {
        oris_db::OnVolumeError::SkipAndReport
    } else {
        oris_db::OnVolumeError::Fail
    };
    Ok(DbOptions {
        window,
        on_volume_error,
        deadline,
        result_cache_bytes,
    })
}

/// Streams every query through `session` to the `-o` destination and
/// appends the run's keys to `b`, the `--stats` line's subject fields.
/// Query banks are pulled from the source lazily — one chunk resident at
/// a time — so the run's memory bound really is one chunk's working set;
/// any failure, the search's own or a query file that would not read,
/// discards the output. `subject_builds` is a FASTA subject's one-time
/// builds, `None` for a database.
fn search(
    args: &Args,
    mut session: DbSession<'_>,
    mut b: StatsBlock,
    subject_builds: Option<u32>,
    obs: &Obs,
    mut queries: BatchQueries,
) -> Result<StatsBlock, CliError> {
    let batch_mode = !matches!(queries, BatchQueries::One(_));
    session.set_obs(obs.clone());
    let (w, out) = Output::open(args.options.get("out"))?;
    let mut sink = StreamWriter::new(w);
    let searched = session
        .run_batch(&mut queries, &mut sink)
        .map_err(CliError::from);
    let batch = match searched.and_then(|b| queries.error().map_or(Ok(b), |e| Err(e.into()))) {
        Ok(batch) => batch,
        Err(e) => {
            out.discard();
            return Err(e);
        }
    };
    let records = sink.records_written();
    out.finish(sink.into_inner())?;

    // A degraded run succeeded by design — but it must say so, loudly and
    // per quarantined volume, on stderr (the results channel stays clean).
    for (v, e) in session.quarantined() {
        eprintln!("scoris-n: warning: quarantined {e} (volume {v} skipped for this session)");
    }
    if let Some(worst) = &batch.worst_coverage {
        eprintln!(
            "scoris-n: warning: results are partial: searched {} of {} volumes \
             ({:.1}% of database residues)",
            worst.searched.len(),
            worst.volumes_total,
            worst.coverage() * 100.0
        );
    }

    let totals = batch.query_totals();
    let fasta_batch = batch_mode && subject_builds.is_some();
    b.field(
        if fasta_batch {
            "batch_queries"
        } else {
            "queries"
        },
        batch.queries(),
    );
    b.field("records", records);
    match subject_builds {
        Some(builds) => {
            b.field("total_index_builds", builds + totals.index_builds);
        }
        None => {
            let costs = session.volume_costs();
            b.field("attaches", batch.total_attaches());
            b.secs("attach_secs", costs.iter().map(|c| c.attach_secs).sum());
            b.secs(
                "strand_build_secs",
                costs.iter().map(|c| c.strand_build_secs).sum(),
            );
            b.field(
                "mapped_volumes",
                costs.iter().filter(|c| c.mmap_backed).count(),
            );
            b.field("io_retries", costs.iter().map(|c| c.retries).sum::<u32>());
            b.field("quarantines", session.quarantined().count());
        }
    }
    // Dispatches are counted by the registry alone (--stats arms the
    // handle); the cache's counts are the session's own.
    b.field("dispatches", obs.counter(names::WORKER_DISPATCH_TOTAL));
    let cache = session.result_cache_counters();
    b.field("cache_hits", cache.hits);
    b.field("cache_misses", cache.misses);
    b.field("cache_insertions", cache.insertions);
    b.field("cache_evictions", cache.evictions);
    b.field("cache_invalidations", cache.invalidations);
    b.field("cache_entries", cache.entries);
    b.field("cache_bytes", cache.bytes);
    pipeline_fields(&mut b, &totals);
    Ok(b)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scoris-n: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}
