//! The staged run: the same pipeline the CLI runs, driven in-process one
//! public layer call at a time, each call inside one of the driver's
//! spans. Its output must equal the CLI's byte for byte, which is what
//! ties the per-layer numbers to the end-to-end ones.
//!
//! Times are the driver's spans and counts are the `*Stats` values the
//! calls return — except inside `DbSession`, which runs prepare and steps
//! 2–4 behind one call per read: there the step times are the
//! `PipelineStats` seconds that call returns.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use oris_core::step2::Step2Stats;
use oris_core::step3::{GappedAlignment, Step3Stats};
use oris_core::step4::Step4Stats;
use oris_core::{step2, step3, step4, OrisConfig, PipelineStats, PreparedBank, StreamWriter};
use oris_db::{Database, DbOptions, DbSession};
use oris_eval::{M8Record, M8Writer};
use oris_seqio::{read_fasta_file, Bank, BankBuilder};

use crate::spans::Recorder;
use crate::stats::{median, percentile};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Budget of the result cache the `db.cache` replay turns on.
const REPLAY_CACHE_BYTES: usize = 64 << 20;

/// One staged run: its spans, its metrics and where its `-m 8` went.
pub struct Staged {
    pub recorder: Recorder,
    pub layers: Layers,
    /// Duration of the root span, milliseconds.
    pub wall_ms: f64,
    /// Summed `db.query` span time (0 for bank-vs-bank), microseconds.
    pub query_total_us: f64,
}

/// `a / b`, 0 when the layer did no work.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn config(threads: usize) -> OrisConfig {
    OrisConfig {
        threads: Some(threads),
        ..OrisConfig::default()
    }
}

fn file_mb(path: &Path) -> Result<f64, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len() as f64 / 1e6)
}

/// What steps 2–4 did and how long each took, however it was measured.
struct Steps {
    /// Milliseconds in step 2, step 3 (step 4 excluded) and step 4.
    ms: [f64; 3],
    step2: Step2Stats,
    step3: Step3Stats,
    step4: Step4Stats,
    hsps: usize,
    raw_alignments: usize,
}

/// The `step2.*`, `step3.*` and `step4.*` metrics.
fn step_layers(s: &Steps) -> Layers {
    let [step2_ms, step3_ms, step4_ms] = s.ms;
    let pairs = s.step2.pairs_examined as f64;
    let (emitted, raw) = (s.step4.emitted as f64, s.raw_alignments as f64);
    Layers::from([
        ("step2.ms", step2_ms),
        ("step2.pairs", pairs),
        ("step2.aborted", s.step2.aborted as f64),
        ("step2.kept", s.step2.kept as f64),
        ("step2.ns_per_pair", per(step2_ms * 1e6, pairs)),
        ("step2.kept_per_pair", per(s.step2.kept as f64, pairs)),
        ("step3.ms", step3_ms),
        ("step3.extended", s.step3.extended as f64),
        ("step3.skipped_contained", s.step3.skipped_contained as f64),
        (
            "step3.us_per_extension",
            per(step3_ms * 1e3, s.step3.extended as f64),
        ),
        ("step3.alignments_per_hsp", per(raw, s.hsps as f64)),
        ("step4.ms", step4_ms),
        ("step4.emitted", emitted),
        ("step4.dropped_by_evalue", s.step4.dropped_by_evalue as f64),
        ("step4.us_per_record", per(step4_ms * 1e3, emitted)),
        ("step4.emitted_per_alignment", per(emitted, raw)),
    ])
}

/// Share of the root span covered by layer spans.
fn coverage(rec: &Recorder, root: usize) -> f64 {
    let total = rec.spans()[root].duration_us();
    per((total - rec.self_us(root)) as f64, total as f64)
}

fn span_ms(rec: &Recorder, id: usize) -> f64 {
    rec.spans()[id].duration_us() as f64 / 1e3
}

/// Bank-vs-bank staged run: parse → prepare ×2 → step 2 → step 3 (step 4
/// folded into its emit callback) → sort → write, under a pool of
/// `threads` workers as the CLI's `-t` installs.
pub fn bank_vs_bank(
    query_fa: &Path,
    subject_fa: &Path,
    threads: usize,
    out: &Path,
) -> Result<Staged, String> {
    let cfg = config(threads);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| {
        let mut rec = Recorder::new();
        let root = rec.enter("staged");

        let parse = rec.enter("seqio.parse");
        let query =
            read_fasta_file(query_fa).map_err(|e| format!("{}: {e}", query_fa.display()))?;
        let subject =
            read_fasta_file(subject_fa).map_err(|e| format!("{}: {e}", subject_fa.display()))?;
        rec.exit(parse);

        let prepare_subject = rec.enter("index.prepare_subject");
        let ps = PreparedBank::prepare(&subject, cfg.filter, cfg.subject_index_config());
        rec.exit(prepare_subject);
        let prepare_query = rec.enter("index.prepare_query");
        let pq = PreparedBank::prepare(&query, cfg.filter, cfg.query_index_config());
        rec.exit(prepare_query);

        let s2_span = rec.enter("step2");
        let (hsps, s2) = step2::find_hsps(&query, pq.index(), &subject, ps.index(), &cfg);
        rec.exit(s2_span);

        let s3_span = rec.enter("step3");
        let mut records: Vec<M8Record> = Vec::new();
        let mut s4 = Step4Stats::default();
        let (mut raw_alignments, mut s4_calls) = (0usize, 0u64);
        let mut s4_busy = Duration::ZERO;
        let mut s4_first_us = None;
        let mut emit = |alns: Vec<GappedAlignment>| {
            s4_first_us.get_or_insert_with(|| rec.now_us());
            let t = Instant::now();
            step4::emit_records(
                &query,
                &subject,
                &alns,
                &cfg,
                query.num_residues(),
                false,
                &mut s4,
                &mut |r| records.push(r),
            );
            s4_busy += t.elapsed();
            s4_calls += 1;
            raw_alignments += alns.len();
        };
        let s3 = step3::gapped_alignments_into(&query, &subject, &hsps, &cfg, &mut emit);
        let s4_start = s4_first_us.unwrap_or_else(|| rec.now_us());
        rec.aggregate(
            s3_span,
            "step4",
            s4_start,
            s4_busy.as_micros() as u64,
            s4_calls,
        );
        rec.exit(s3_span);

        let sort = rec.enter("sink.sort");
        records.sort_by(|a, b| a.total_order(b));
        rec.exit(sort);
        let write = rec.enter("sink.write");
        let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let mut w = M8Writer::new(BufWriter::new(file));
        for r in &records {
            w.write_record(r).map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
        rec.exit(write);
        rec.exit(root);

        let residues = (query.num_residues() + subject.num_residues()) as f64;
        let parse_ms = span_ms(&rec, parse);
        let prepare_ms = span_ms(&rec, prepare_subject) + span_ms(&rec, prepare_query);
        let masked = ps.stats().masked_fraction * subject.num_residues() as f64
            + pq.stats().masked_fraction * query.num_residues() as f64;
        let mut layers = step_layers(&Steps {
            ms: [
                rec.self_ms("step2"),
                rec.self_ms("step3"),
                rec.self_ms("step4"),
            ],
            step2: s2,
            step3: s3,
            step4: s4,
            hsps: hsps.len(),
            raw_alignments,
        });
        layers.extend([
            ("seqio.parse_ms", parse_ms),
            (
                "seqio.parse_mb_per_s",
                per((file_mb(query_fa)? + file_mb(subject_fa)?) * 1e3, parse_ms),
            ),
            ("seqio.residues", residues),
            ("index.prepare_subject_ms", span_ms(&rec, prepare_subject)),
            ("index.prepare_query_ms", span_ms(&rec, prepare_query)),
            ("index.ns_per_residue", per(prepare_ms * 1e6, residues)),
            (
                "index.heap_mb",
                (ps.index().heap_bytes() + pq.index().heap_bytes()) as f64 / 1e6,
            ),
            ("index.masked_fraction", per(masked, residues)),
            ("sink.sort_ms", span_ms(&rec, sort)),
            ("sink.write_ms", span_ms(&rec, write)),
            ("sink.out_mb", file_mb(out)?),
            ("trace.coverage", coverage(&rec, root)),
        ]);
        Ok(Staged {
            wall_ms: span_ms(&rec, root),
            query_total_us: 0.0,
            layers,
            recorder: rec,
        })
    })
}

/// One read as the single-record query bank `scoris_n --batch` makes of it.
fn read_bank(reads: &Bank, i: usize) -> Bank {
    let mut b = BankBuilder::new();
    b.push_codes(&reads.record(i).name, reads.sequence(i));
    b.finish()
}

/// What running every read through one `DbSession` cost.
struct BatchRun {
    totals: PipelineStats,
    query_us: Vec<f64>,
    prepare_us: Vec<f64>,
    dispatches: usize,
    /// Per read: whether the result cache served every volume.
    served_from_cache: Vec<bool>,
}

/// Runs the batch read by read, each inside a `db.query` span, streaming
/// into `out` exactly as `scoris_n --batch --db -o` does.
fn run_batch(
    rec: &mut Recorder,
    session: &mut DbSession<'_>,
    reads: &Bank,
    out: &Path,
) -> Result<BatchRun, String> {
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut sink = StreamWriter::new(BufWriter::new(file));
    let mut run = BatchRun {
        totals: PipelineStats::default(),
        query_us: Vec::new(),
        prepare_us: Vec::new(),
        dispatches: 0,
        served_from_cache: Vec::new(),
    };
    for i in 0..reads.num_sequences() {
        let misses_before = session.result_cache_counters().misses;
        let span = rec.enter("db.query");
        let query = read_bank(reads, i);
        let (stats, report) = session
            .run_query_reported(&query, &mut sink)
            .map_err(|e| format!("read {i}: {e}"))?;
        rec.exit(span);
        run.query_us.push(rec.spans()[span].duration_us() as f64);
        run.prepare_us.push(stats.index_secs * 1e6);
        run.dispatches += report.searched.len();
        run.served_from_cache
            .push(session.result_cache_counters().misses == misses_before);
        run.totals = run.totals.merge(&stats);
    }
    let write = rec.enter("sink.write");
    sink.into_inner().flush().map_err(|e| e.to_string())?;
    rec.exit(write);
    Ok(run)
}

/// `reads_db_batch` staged run: parse the reads, open the database, then
/// one `DbSession::run_query_reported` per read.
pub fn db_batch(
    reads_fa: &Path,
    db_dir: &Path,
    threads: usize,
    out: &Path,
) -> Result<Staged, String> {
    let cfg = config(threads);
    let mut rec = Recorder::new();
    let root = rec.enter("staged");

    let parse = rec.enter("seqio.parse");
    let reads = read_fasta_file(reads_fa).map_err(|e| format!("{}: {e}", reads_fa.display()))?;
    rec.exit(parse);

    let open = rec.enter("db.open");
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let mut session = DbSession::new(&db, &cfg, DbOptions::default()).map_err(|e| e.to_string())?;
    rec.exit(open);

    let run = run_batch(&mut rec, &mut session, &reads, out)?;
    rec.exit(root);

    let t = &run.totals;
    let n = reads.num_sequences() as f64;
    let parse_ms = span_ms(&rec, parse);
    let costs = session.volume_costs();
    let mut layers = step_layers(&Steps {
        ms: [t.step2_secs * 1e3, t.step3_secs * 1e3, t.step4_secs * 1e3],
        step2: t.step2,
        step3: t.step3,
        step4: t.step4,
        hsps: t.hsps,
        raw_alignments: t.raw_alignments,
    });
    layers.extend([
        ("seqio.parse_ms", parse_ms),
        (
            "seqio.parse_mb_per_s",
            per(file_mb(reads_fa)? * 1e3, parse_ms),
        ),
        ("seqio.residues", reads.num_residues() as f64),
        ("index.prepare_query_ms", t.index_secs * 1e3),
        (
            "index.ns_per_residue",
            per(t.index_secs * 1e9, reads.num_residues() as f64),
        ),
        (
            "index.heap_mb",
            costs.iter().map(|c| c.index_heap_bytes).sum::<usize>() as f64 / 1e6,
        ),
        ("index.masked_fraction", t.masked_fraction2),
        ("index.prepare_query_us_p50", median(&run.prepare_us)),
        ("sink.write_ms", rec.self_ms("sink.write")),
        ("sink.out_mb", file_mb(out)?),
        ("db.open_ms", span_ms(&rec, open)),
        (
            "db.attach_ms",
            costs.iter().map(|c| c.attach_secs).sum::<f64>() * 1e3,
        ),
        ("db.dispatches", run.dispatches as f64),
        ("db.records_per_query", per(t.step4.emitted as f64, n)),
        ("db.query_us_p50", median(&run.query_us)),
        (
            "db.query_us_p99",
            percentile(&run.query_us, 0.99).unwrap_or(0.0),
        ),
        (
            "db.query_us_max",
            run.query_us.iter().copied().fold(0.0, f64::max),
        ),
        ("trace.coverage", coverage(&rec, root)),
    ]);
    Ok(Staged {
        wall_ms: span_ms(&rec, root),
        query_total_us: run.query_us.iter().sum(),
        layers,
        recorder: rec,
    })
}

/// The same batch through a second session with the result cache on.
/// Returns the `db.cache.*` metrics; `off_total_us` is the summed query
/// time of the cache-off staged run it is priced against.
pub fn cache_replay(
    reads_fa: &Path,
    db_dir: &Path,
    threads: usize,
    out: &Path,
    off_total_us: f64,
) -> Result<Layers, String> {
    let reads = read_fasta_file(reads_fa).map_err(|e| format!("{}: {e}", reads_fa.display()))?;
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let opts = DbOptions {
        result_cache_bytes: REPLAY_CACHE_BYTES,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &config(threads), opts).map_err(|e| e.to_string())?;
    let run = run_batch(&mut Recorder::new(), &mut session, &reads, out)?;
    let counters = session.result_cache_counters();
    let hit_us: Vec<f64> = run
        .query_us
        .iter()
        .zip(&run.served_from_cache)
        .filter_map(|(&us, &hit)| hit.then_some(us))
        .collect();
    Ok(Layers::from([
        (
            "db.cache.hit_ratio",
            per(
                counters.hits as f64,
                (counters.hits + counters.misses) as f64,
            ),
        ),
        (
            "db.cache.hit_query_us_p50",
            if hit_us.is_empty() {
                0.0
            } else {
                median(&hit_us)
            },
        ),
        (
            "db.cache.on_over_off",
            per(run.query_us.iter().sum(), off_total_us),
        ),
    ]))
}
