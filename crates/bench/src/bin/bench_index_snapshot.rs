//! Perf snapshot of the index backends, the session/streaming result
//! paths and the sharded database.
//!
//! Five sections, each a rep-paired A/B with the outputs of both sides
//! asserted identical: the index backends (dense offsets vs the sparse
//! codes table: build time, index bytes, serial step-2 time), the
//! prepared-reuse benchmark (N query banks against one prepared subject:
//! per-query subject rebuild vs one session build), the streaming-batch
//! benchmark (collect-everything vs the sink-driven `Session::run_batch`
//! path: peak live allocation read from a counting global allocator),
//! `db_scale` (a windowed multi-volume database vs one concatenated bank:
//! peak live heap, cold vs warm query, deadline overhead) and `db_serve`
//! (parallel volume fan-out, result cache, observability overhead).
//!
//! Writes `BENCH_index.json` (repo root by default; `--out PATH` to
//! override, `--scale F` for the EST bank size) so future PRs have a perf
//! trajectory to compare against. `--test` shrinks every workload and
//! runs one repetition — the CI mode, keeping all the output-equality
//! assertions hot without paying measurement time.

use oris_obs::Stopwatch;
use std::fmt::Write as _;

use oris_bench::CountingAlloc;
use oris_core::step2::find_hsps;
use oris_core::{compare_banks, OrisConfig, OrisResult, Session, StreamWriter};
use oris_eval::M8Writer;
use oris_index::{BankIndex, IndexBackend, IndexConfig};

/// Every allocation in this binary flows through the counting allocator,
/// so the `streaming_batch` section can report peak *live* bytes per
/// result-path architecture instead of guessing from RSS.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Paired comparison: alternates `a` and `b` per repetition so slow clock
/// drift (VM throttling, noisy neighbours) hits both sides equally, then
/// returns the two medians.
fn time2<RA, RB>(reps: usize, mut a: impl FnMut() -> RA, mut b: impl FnMut() -> RB) -> (f64, f64) {
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Stopwatch::start();
        std::hint::black_box(a());
        sa.push(t0.elapsed_secs());
        let t0 = Stopwatch::start();
        std::hint::black_box(b());
        sb.push(t0.elapsed_secs());
    }
    (
        oris_eval::timing::median_of(sa),
        oris_eval::timing::median_of(sb),
    )
}

/// One query through a database session, collected.
fn collect_db(
    session: &mut oris_db::DbSession,
    query: &oris_seqio::Bank,
) -> Vec<oris_eval::M8Record> {
    let mut sink = oris_core::CollectSink::new();
    session
        .run_query_reported(query, &mut sink)
        .expect("database query");
    sink.into_records()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.15f64;
    let mut out_path = "BENCH_index.json".to_string();
    let mut test_mode = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = it.next().expect("--scale F").parse().expect("bad --scale"),
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            "--test" => test_mode = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if test_mode {
        scale = scale.min(0.02);
    }

    let est = oris_simulate::paper_bank("EST1", scale).bank;
    let w = 11usize;
    let reps = if test_mode { 1 } else { 5 };

    // Single-worker pool shared by every serial-timed section.
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    // ---- index backend: dense offsets vs the sparse codes table ---------
    // A dense offsets array costs 4·(4^W + 1) bytes no matter how small
    // the bank — 16.8 MB at W = 11 — while the sparse populated-codes
    // table scales with distinct seeds. Small bank: the regime the
    // sparse backend exists for (and the memory-ratio contract below).
    // Planted bank: large enough that dense stays competitive. Outputs
    // are asserted identical per combination; build time, index bytes
    // and serial step-2 time go into the snapshot.
    let small = oris_simulate::random_bank(11, 20, 500, 0.5);
    let planted = if test_mode {
        oris_bench::planted_bank(707, 24, 80)
    } else {
        oris_bench::planted_bank(707, 256, 400)
    };
    let mut backend_rows = String::new();
    let backend_cases: [(&str, &oris_seqio::Bank); 2] = [("small", &small), ("planted", &planted)];
    for (wi, bw) in [9usize, 11].into_iter().enumerate() {
        for (bi, (bank_name, bank)) in backend_cases.iter().enumerate() {
            let dense_cfg = IndexConfig::full(bw).with_backend(IndexBackend::Dense);
            let sparse_cfg = IndexConfig::full(bw).with_backend(IndexBackend::Sparse);
            let (t_bdense, t_bsparse) = time2(
                reps,
                || BankIndex::build(bank, dense_cfg),
                || BankIndex::build(bank, sparse_cfg),
            );
            let idense = BankIndex::build(bank, dense_cfg);
            let isparse = BankIndex::build(bank, sparse_cfg);
            let auto = BankIndex::build(bank, IndexConfig::full(bw));
            let (bytes_dense, bytes_sparse) =
                (idense.stats().index_bytes, isparse.stats().index_bytes);
            let bcfg = OrisConfig {
                w: bw,
                ..OrisConfig::default()
            };
            let (t_s2_dense, t_s2_sparse) = time2(
                reps,
                || serial.install(|| find_hsps(bank, &idense, bank, &idense, &bcfg)),
                || serial.install(|| find_hsps(bank, &isparse, bank, &isparse, &bcfg)),
            );
            let out_dense = find_hsps(bank, &idense, bank, &idense, &bcfg);
            let out_sparse = find_hsps(bank, &isparse, bank, &isparse, &bcfg);
            let out_auto = find_hsps(bank, &auto, bank, &auto, &bcfg);
            assert_eq!(
                out_dense, out_sparse,
                "step-2 output must be backend-invariant ({bank_name}, w={bw})"
            );
            assert_eq!(out_dense, out_auto);
            if *bank_name == "small" && bw == 11 {
                // The PR contract: at W = 11 a small bank's sparse index
                // is at most a tenth of the dense footprint, and Auto
                // picks sparse there.
                assert!(
                    bytes_sparse * 10 <= bytes_dense,
                    "sparse index must be ≤ 1/10 of dense at w=11 on a small bank \
                     ({bytes_sparse} vs {bytes_dense} bytes)"
                );
                assert_eq!(auto.backend(), IndexBackend::Sparse);
                if !test_mode {
                    assert!(
                        t_s2_sparse <= t_s2_dense * 1.1,
                        "sparse step-2 must stay within 1.1x of dense \
                         ({t_s2_sparse:.6}s vs {t_s2_dense:.6}s)"
                    );
                }
            }
            let comma = if wi == 1 && bi + 1 == backend_cases.len() {
                ""
            } else {
                ","
            };
            writeln!(
                backend_rows,
                "    {{\"w\": {bw}, \"bank\": \"{bank_name}\", \"residues\": {}, \
                 \"dense_build_secs\": {t_bdense:.6}, \"sparse_build_secs\": {t_bsparse:.6}, \
                 \"dense_index_bytes\": {bytes_dense}, \"sparse_index_bytes\": {bytes_sparse}, \
                 \"bytes_ratio\": {:.3}, \"dense_step2_secs\": {t_s2_dense:.6}, \
                 \"sparse_step2_secs\": {t_s2_sparse:.6}, \"step2_ratio\": {:.3}, \
                 \"auto_backend\": \"{:?}\", \"outputs_identical\": true}}{comma}",
                bank.num_residues(),
                bytes_dense as f64 / (bytes_sparse.max(1)) as f64,
                t_s2_sparse / t_s2_dense.max(1e-9),
                auto.backend(),
            )
            .unwrap();
        }
    }

    // ---- prepared reuse: N query banks vs one prepared subject ----------
    // The intensive-comparison scenario the engine exists for: a stream
    // of small query banks against one large subject. The naive path
    // rebuilds the subject mask+index inside every compare_banks call;
    // the session path builds it once (inside the timed region) and
    // amortizes it. Timed with the same rep-paired `time2` as every other
    // section, so VM clock drift cancels; outputs are asserted identical
    // pairwise on a separate untimed run.
    let pipeline_cfg = OrisConfig::default();
    let subject = &est;
    let num_queries = 6usize;
    let query_banks: Vec<oris_seqio::Bank> = (0..num_queries)
        .map(|i| oris_simulate::random_bank(300 + i as u64, 60, 400, 0.5))
        .collect();
    let run_naive = || -> Vec<oris_core::OrisResult> {
        query_banks
            .iter()
            .map(|q| compare_banks(q, subject, &pipeline_cfg))
            .collect()
    };
    let run_session = || -> Vec<oris_core::OrisResult> {
        let session = Session::new(subject, &pipeline_cfg).expect("valid config");
        query_banks.iter().map(|q| session.run(q)).collect()
    };
    let (t_reuse_naive, t_reuse_session) = time2(reps, run_naive, run_session);
    let naive_results = run_naive();
    let session = Session::new(subject, &pipeline_cfg).expect("valid config");
    assert_eq!(session.subject_stats().builds, 1);
    for (n, q) in naive_results.iter().zip(&query_banks) {
        let s = session.run(q);
        assert_eq!(n.alignments, s.alignments, "prepared reuse changed output");
        assert_eq!(s.stats.index_builds, 1);
        assert_eq!(n.stats.index_builds, 2);
    }

    // ---- streaming batch: bounded-memory result path --------------------
    // A repeat-family screening batch (`screening_batch`): many query
    // banks against one prepared subject, every (query sequence, subject
    // sequence) pair aligning across a shared dispersed repeat — the
    // output-heavy regime where the result-path architecture matters.
    // The collect path is the pre-streaming architecture: every query's
    // result set resident before the first byte is written. The streamed
    // path is `Session::run_batch` through a `StreamWriter`: records
    // leave as each query finishes, so peak live allocation tracks the
    // largest single query, not the run. Outputs are asserted
    // byte-identical; peaks come from the counting global allocator.
    //
    // W = 11 (the paper's seed length) under the default Auto backend:
    // small query banks get the sparse populated-codes index, so the
    // per-query transient is ∝ distinct seeds instead of the 16.8 MB
    // dense 4^W offsets array that used to force this section down to
    // W = 9.
    let batch_cfg = OrisConfig::default();
    let (batch_subject, batch_queries) = if test_mode {
        oris_bench::screening_batch(4, 8, 24, 80)
    } else {
        oris_bench::screening_batch(12, 32, 192, 120)
    };
    let batch_session = Session::new(&batch_subject, &batch_cfg).expect("valid config");
    let run_collect = |out: &mut dyn std::io::Write| {
        let results: Vec<OrisResult> = batch_queries.iter().map(|q| batch_session.run(q)).collect();
        let mut m8 = M8Writer::new(out);
        for r in &results {
            for rec in &r.alignments {
                m8.write_record(rec).expect("write record");
            }
        }
        m8.flush().expect("flush");
    };
    let run_stream = |out: &mut dyn std::io::Write| -> u64 {
        let mut sink = StreamWriter::new(out);
        batch_session
            .run_batch(&batch_queries, &mut sink)
            .expect("sink IO cannot fail on a memory writer");
        sink.records_written()
    };
    // Byte-identity first (untracked buffers, outside the measured runs).
    let mut collect_bytes = Vec::new();
    run_collect(&mut collect_bytes);
    let mut stream_bytes = Vec::new();
    let batch_records = run_stream(&mut stream_bytes);
    assert_eq!(
        collect_bytes, stream_bytes,
        "streamed batch output must equal the collected path byte-for-byte"
    );
    assert!(batch_records > 0, "batch workload must produce records");
    // Peak live allocation per architecture (output to the null writer so
    // neither side's peak counts the output bytes themselves).
    let base = ALLOC.reset_peak();
    run_collect(&mut std::io::sink());
    let collect_peak = ALLOC.peak().saturating_sub(base);
    let base = ALLOC.reset_peak();
    run_stream(&mut std::io::sink());
    let stream_peak = ALLOC.peak().saturating_sub(base);
    // Amortized throughput, rep-paired like every other section.
    let (t_batch_collect, t_batch_stream) = time2(
        reps,
        || run_collect(&mut std::io::sink()),
        || run_stream(&mut std::io::sink()),
    );

    // ---- db_scale: sharded database vs one concatenated bank ------------
    // The sharded-database architecture on one box: the same subject
    // collection as (a) one in-memory bank and (b) a makedb database of
    // V mmap-attached volumes searched through a 1-volume window.
    // Measured: peak live heap for a query batch (the counting
    // allocator — mapped sections live in the page cache, so the
    // bounded-window database search must peak strictly below the
    // resident single-bank index), and cold-vs-warm query wall-clock
    // (first query pays the attaches; a warm window does not).
    // W = 11 under Auto, like streaming_batch: the sparse backend keeps
    // the query-side index transient proportional to the query, so the
    // paper's seed length no longer drowns the subject-side difference
    // this section measures.
    let db_cfg = OrisConfig::default();
    let (db_subject, db_queries) = if test_mode {
        (oris_bench::planted_bank(505, 24, 80), {
            let (_, q) = oris_bench::screening_batch(2, 4, 1, 80);
            q
        })
    } else {
        (oris_bench::planted_bank(505, 512, 400), {
            let (_, q) = oris_bench::screening_batch(4, 24, 1, 400);
            q
        })
    };
    let db_dir = std::env::temp_dir().join(format!("oris_bench_db_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_dir);
    let num_volumes = 4usize;
    let per_volume = (db_subject.num_residues() / num_volumes).max(1);
    let manifest = oris_db::make_db(
        [db_subject.clone()],
        &db_dir,
        &oris_db::MakeDbOptions::new(&db_cfg, per_volume),
    )
    .expect("makedb");
    let db = oris_db::Database::open(&db_dir).expect("open database");
    let db_volumes = db.num_volumes();
    assert!(db_volumes >= 2, "bench database must actually shard");

    // Byte identity: bounded-window database search ≡ concatenated bank
    // under the database-wide e-value space.
    let concat_cfg = OrisConfig {
        subject_space: oris_eval::SubjectSpace::Database(db.total_residues()),
        ..db_cfg
    };
    let run_concat = |out: &mut dyn std::io::Write| {
        let session = Session::new(&db_subject, &concat_cfg).expect("valid config");
        let mut sink = StreamWriter::new(out);
        session
            .run_batch(&db_queries, &mut sink)
            .expect("memory sink cannot fail");
    };
    let run_db = |out: &mut dyn std::io::Write| -> u64 {
        let mut session = oris_db::DbSession::new(
            &db,
            &db_cfg,
            oris_db::DbOptions {
                window: 1,
                ..oris_db::DbOptions::default()
            },
        )
        .expect("valid db config");
        let mut sink = StreamWriter::new(out);
        session
            .run_batch(&db_queries, &mut sink)
            .expect("db search");
        sink.records_written()
    };
    let mut concat_bytes = Vec::new();
    run_concat(&mut concat_bytes);
    let mut db_bytes = Vec::new();
    let db_records = run_db(&mut db_bytes);
    assert_eq!(
        concat_bytes, db_bytes,
        "sharded database output must equal the concatenated single-bank run byte-for-byte"
    );
    assert!(db_records > 0, "db workload must produce records");

    // Peak live heap per architecture (null writer: neither side's peak
    // counts the output bytes). The database side includes its attach
    // work; the concatenated side includes its subject build — both are
    // each architecture's true steady-state query-serving footprint.
    let base = ALLOC.reset_peak();
    run_concat(&mut std::io::sink());
    let concat_peak = ALLOC.peak().saturating_sub(base);
    let base = ALLOC.reset_peak();
    run_db(&mut std::io::sink());
    let db_peak = ALLOC.peak().saturating_sub(base);
    assert!(
        db_peak < concat_peak,
        "V-volume windowed search must peak below the concatenated bank \
         ({db_peak} vs {concat_peak} bytes)"
    );

    // Cold vs warm: the first query against a window-0 session pays every
    // volume attach; the second pays none.
    let cold_query = &db_queries[0];
    let mut warm_session = oris_db::DbSession::new(&db, &db_cfg, oris_db::DbOptions::default())
        .expect("valid db config");
    let t0 = Stopwatch::start();
    let cold = collect_db(&mut warm_session, cold_query);
    let t_db_cold = t0.elapsed_secs();
    let t0 = Stopwatch::start();
    let warm = collect_db(&mut warm_session, cold_query);
    let t_db_warm = t0.elapsed_secs();
    assert_eq!(cold, warm);
    let db_attaches: u32 = warm_session.volume_costs().iter().map(|c| c.attaches).sum();
    assert_eq!(
        db_attaches as usize, db_volumes,
        "warm run must not re-attach"
    );

    // Deadline overhead: the same warm query with the cooperative clock
    // disarmed vs armed with a generous budget, rep-paired on two fully
    // warmed sessions so neither side pays an attach. Both sides stage
    // their records; the armed side also polls the clock at volume and
    // partition boundaries. The contract is ≤1% wall-clock.
    let mut armed_session = oris_db::DbSession::new(&db, &db_cfg, oris_db::DbOptions::default())
        .expect("valid db config");
    let _ = collect_db(&mut armed_session, cold_query);
    let generous = oris_core::Deadline::after(std::time::Duration::from_secs(3600));
    let run_with = |session: &mut oris_db::DbSession, deadline: &oris_core::Deadline| {
        let mut sink = oris_core::CollectSink::new();
        session
            .run_query_deadline(cold_query, &mut sink, deadline)
            .expect("deadline query");
        sink.into_records().len()
    };
    let (t_deadline_off, t_deadline_on) = time2(
        reps.max(20),
        || run_with(&mut warm_session, &oris_core::Deadline::none()),
        || run_with(&mut armed_session, &generous),
    );
    let deadline_overhead = t_deadline_on / t_deadline_off.max(1e-9);
    if !test_mode {
        assert!(
            deadline_overhead <= 1.01,
            "armed deadline must cost ≤1% wall-clock on a warm query \
             ({t_deadline_on:.6}s vs {t_deadline_off:.6}s, ratio {deadline_overhead:.4})"
        );
    }
    // ---- db_serve: concurrent serving (parallel fan-out + result cache)
    // Volume searches fanned across a scoped worker pool vs the
    // sequential walk, rep-paired on two fully warmed sessions (the
    // speedup is recorded, not asserted — this may be a 1-vCPU host,
    // where the fan-out shows ~1× by construction); then the result
    // cache: a cold first query (attaches + searches + inserts) vs the
    // cached repeat, which must be ≥5× faster (a hit replays staged
    // records instead of searching any volume). Byte-identity of every
    // variant against the sequential walk is asserted unconditionally.
    let serve_workers = 4usize;
    let mut seq_serve = oris_db::DbSession::new(&db, &db_cfg, oris_db::DbOptions::default())
        .expect("valid db config");
    let mut par_serve = oris_db::DbSession::new(
        &db,
        &db_cfg,
        oris_db::DbOptions {
            volume_workers: serve_workers,
            ..oris_db::DbOptions::default()
        },
    )
    .expect("valid db config");
    // Warm both attach caches so the pairing measures search alone.
    let seq_first = collect_db(&mut seq_serve, cold_query);
    let par_first = collect_db(&mut par_serve, cold_query);
    assert_eq!(
        seq_first, par_first,
        "parallel fan-out must be byte-identical to the sequential walk"
    );
    let run_serve = |session: &mut oris_db::DbSession| {
        let mut sink = oris_core::CollectSink::new();
        session
            .run_batch(&db_queries, &mut sink)
            .expect("serve batch");
        sink.into_records().len()
    };
    let (t_serve_seq, t_serve_par) = time2(
        reps.max(3),
        || std::hint::black_box(run_serve(&mut seq_serve)),
        || std::hint::black_box(run_serve(&mut par_serve)),
    );
    let parallel_speedup = t_serve_seq / t_serve_par.max(1e-9);

    // Result cache: fresh session, cold first query, cached repeats.
    let mut cached_serve = oris_db::DbSession::new(
        &db,
        &db_cfg,
        oris_db::DbOptions {
            result_cache_bytes: 64 << 20,
            ..oris_db::DbOptions::default()
        },
    )
    .expect("valid db config");
    let t0 = Stopwatch::start();
    let cache_cold = collect_db(&mut cached_serve, cold_query);
    let t_cache_cold = t0.elapsed_secs();
    let cache_reps = reps.max(5);
    let t0 = Stopwatch::start();
    let mut cache_warm = None;
    for _ in 0..cache_reps {
        cache_warm = Some(collect_db(&mut cached_serve, cold_query));
    }
    let t_cache_warm = t0.elapsed_secs() / cache_reps as f64;
    assert_eq!(
        cache_cold,
        cache_warm.expect("ran at least once"),
        "a cache hit must replay byte-identical records"
    );
    assert_eq!(
        cache_cold, seq_first,
        "the cached path must match the cacheless sequential walk"
    );
    let serve_counters = cached_serve.result_cache_counters();
    assert!(
        serve_counters.hits as usize >= cache_reps * db_volumes,
        "every repeat must hit on every volume ({serve_counters:?})"
    );
    let cached_speedup = t_cache_cold / t_cache_warm.max(1e-9);
    if !test_mode {
        assert!(
            cached_speedup >= 5.0,
            "cached repeat must be ≥5× over cold \
             ({t_cache_warm:.6}s vs {t_cache_cold:.6}s, ratio {cached_speedup:.2})"
        );
    }
    let serve_cache_hits = serve_counters.hits;
    let serve_cache_misses = serve_counters.misses;

    // Observability overhead: the same warm query with the default
    // disarmed Obs handle vs a fully armed registry (counters, gauges,
    // histograms; no trace sink — that is I/O-bound by design),
    // rep-paired on two warmed sessions. Armed instrumentation must be
    // byte-invisible in the output and cost ≤1% wall-clock.
    let mut obs_off_session = oris_db::DbSession::new(&db, &db_cfg, oris_db::DbOptions::default())
        .expect("valid db config");
    let mut obs_on_session = oris_db::DbSession::new(&db, &db_cfg, oris_db::DbOptions::default())
        .expect("valid db config");
    obs_on_session.set_obs(oris_obs::Obs::armed());
    let obs_off_first = collect_db(&mut obs_off_session, cold_query);
    let obs_on_first = collect_db(&mut obs_on_session, cold_query);
    assert_eq!(
        obs_off_first, obs_on_first,
        "armed metrics must not change a single output byte"
    );
    let run_plain = |session: &mut oris_db::DbSession| collect_db(session, cold_query).len();
    let (t_obs_off, t_obs_on) = time2(
        reps.max(20),
        || std::hint::black_box(run_plain(&mut obs_off_session)),
        || std::hint::black_box(run_plain(&mut obs_on_session)),
    );
    let obs_overhead = t_obs_on / t_obs_off.max(1e-9);
    if !test_mode {
        assert!(
            obs_overhead <= 1.01,
            "armed metrics must cost ≤1% wall-clock on a warm query \
             ({t_obs_on:.6}s vs {t_obs_off:.6}s, ratio {obs_overhead:.4})"
        );
    }

    let _ = std::fs::remove_dir_all(&db_dir);
    // Locals for the JSON block (all idents, so the giant format string
    // stays positional-argument-free for this section).
    let db_residues = manifest.total_residues;
    let db_query_count = db_queries.len();
    let db_peak_reduction = concat_peak as f64 / (db_peak.max(1)) as f64;
    let cold_over_warm = t_db_cold / t_db_warm.max(1e-9);

    let json = format!(
        "{{\n  \"bench\": \"index_snapshot\",\n  \
         \"est_scale\": {scale},\n  \"est_residues\": {},\n  \
         \"w\": {w},\n  \"est_indexed_positions\": {},\n  \
         \"index_backend\": [\n{backend_rows}  ],\n  \
         \"prepared_reuse\": {{\n    \"queries\": {num_queries},\n    \
         \"subject_residues\": {},\n    \
         \"rebuild_per_query_secs\": {t_reuse_naive:.6},\n    \
         \"session_secs\": {t_reuse_session:.6},\n    \
         \"amortized_speedup\": {:.3}\n  }},\n  \
         \"streaming_batch\": {{\n    \"queries\": {},\n    \
         \"subject_residues\": {},\n    \"query_residues_total\": {},\n    \
         \"records\": {batch_records},\n    \
         \"collect_peak_live_bytes\": {collect_peak},\n    \
         \"stream_peak_live_bytes\": {stream_peak},\n    \
         \"peak_reduction\": {:.3},\n    \
         \"collect_secs\": {t_batch_collect:.6},\n    \
         \"stream_secs\": {t_batch_stream:.6},\n    \
         \"stream_queries_per_sec\": {:.3},\n    \
         \"outputs_identical\": true\n  }},\n  \
         \"db_scale\": {{\n    \"volumes\": {db_volumes},\n    \
         \"db_residues\": {db_residues},\n    \
         \"queries\": {db_query_count},\n    \
         \"records\": {db_records},\n    \
         \"concat_peak_live_bytes\": {concat_peak},\n    \
         \"db_window1_peak_live_bytes\": {db_peak},\n    \
         \"peak_reduction\": {db_peak_reduction:.3},\n    \
         \"cold_query_secs\": {t_db_cold:.6},\n    \
         \"warm_query_secs\": {t_db_warm:.6},\n    \
         \"cold_over_warm\": {cold_over_warm:.3},\n    \
         \"deadline_off_secs\": {t_deadline_off:.6},\n    \
         \"deadline_on_secs\": {t_deadline_on:.6},\n    \
         \"deadline_overhead\": {deadline_overhead:.4},\n    \
         \"outputs_identical\": true\n  }},\n  \
         \"db_serve\": {{\n    \"volumes\": {db_volumes},\n    \
         \"workers\": {serve_workers},\n    \
         \"sequential_batch_secs\": {t_serve_seq:.6},\n    \
         \"parallel_batch_secs\": {t_serve_par:.6},\n    \
         \"parallel_speedup\": {parallel_speedup:.3},\n    \
         \"cold_query_secs\": {t_cache_cold:.6},\n    \
         \"cached_query_secs\": {t_cache_warm:.6},\n    \
         \"cached_speedup\": {cached_speedup:.3},\n    \
         \"cache_hits\": {serve_cache_hits},\n    \
         \"cache_misses\": {serve_cache_misses},\n    \
         \"obs_off_secs\": {t_obs_off:.6},\n    \
         \"obs_on_secs\": {t_obs_on:.6},\n    \
         \"obs_overhead\": {obs_overhead:.4},\n    \
         \"outputs_identical\": true\n  }}\n}}\n",
        est.num_residues(),
        BankIndex::build(&est, IndexConfig::full(w)).indexed_positions(),
        est.num_residues(),
        t_reuse_naive / t_reuse_session,
        batch_queries.len(),
        batch_subject.num_residues(),
        batch_queries
            .iter()
            .map(|b| b.num_residues())
            .sum::<usize>(),
        collect_peak as f64 / (stream_peak.max(1)) as f64,
        batch_queries.len() as f64 / t_batch_stream,
    );
    std::fs::write(&out_path, &json).expect("failed to write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
