//! Serving suite: the walk over the volumes and the volume-level result
//! cache, exercised together with the failure machinery (deadlines,
//! quarantine). The contracts pinned here:
//!
//! * A deadline that expires mid-walk leaves the caller's sink untouched,
//!   inserts nothing into the cache, stops the walk at the volume it
//!   expired on, and leaves the session fully usable.
//! * A cache hit replays a query's whole answer, byte-identical records
//!   and the report its search gave, labeled as served; a quarantine
//!   empties the cache, so a failed volume is never served again.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use oris_core::{CollectSink, OrisConfig};
use oris_db::{
    make_db, Database, DbError, DbOptions, DbSession, Fault, FaultRule, FaultyIo, MakeDbOptions,
    OnVolumeError, SearchReport,
};
use oris_obs::{names, Obs};
use oris_seqio::{Bank, BankBuilder};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_db_serving_test")
        .join(format!("{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bank(seqs: &[(&str, &str)]) -> Bank {
    let mut b = BankBuilder::new();
    for (name, s) in seqs {
        b.push_str(name, s).unwrap();
    }
    b.finish()
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA";

fn subject_bank() -> Bank {
    let recs: Vec<(String, String)> = (0..8)
        .map(|i| {
            (
                format!("subj{i}"),
                format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(5 + i)),
            )
        })
        .collect();
    let refs: Vec<(&str, &str)> = recs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    bank(&refs)
}

fn cfg() -> OrisConfig {
    OrisConfig::small(8)
}

fn query() -> Bank {
    bank(&[("q", &format!("TT{CORE}GG"))])
}

/// Builds a database with ≥4 volumes, returning its directory.
fn build_db(test: &str) -> PathBuf {
    let dir = scratch(test);
    let subject = subject_bank();
    let per_volume = (subject.num_residues() / 4).max(1);
    let m = make_db([subject], &dir, &MakeDbOptions::new(&cfg(), per_volume)).unwrap();
    assert!(
        m.volumes.len() >= 4,
        "wanted ≥4 volumes, got {}",
        m.volumes.len()
    );
    dir
}

fn render(sink: CollectSink) -> Vec<String> {
    sink.into_records().iter().map(|r| r.to_string()).collect()
}

/// One query through a fresh session under `opts`, over an optional
/// injector.
fn run_once(
    dir: &PathBuf,
    io: Option<FaultyIo>,
    opts: DbOptions,
) -> Result<(Vec<String>, SearchReport), DbError> {
    let db = match io {
        Some(io) => Database::open_with_io(dir, Arc::new(io))?,
        None => Database::open(dir)?,
    };
    let mut session = DbSession::new(&db, &cfg(), opts)?;
    let mut sink = CollectSink::new();
    let (_, report) = session.run_query_reported(&query(), &mut sink)?;
    Ok((render(sink), report))
}

/// A per-query budget far above a toy query's whole search, and far
/// below [`SLOW_READ`].
const BUDGET: Duration = Duration::from_millis(250);

/// The one slow device read that makes a query outlive [`BUDGET`].
const SLOW_READ: Duration = Duration::from_secs(1);

/// A session under [`BUDGET`] and a 1 MiB result cache, over `db`.
fn budgeted_session(db: &Database) -> DbSession<'_> {
    let opts = DbOptions {
        deadline: Some(BUDGET),
        result_cache_bytes: 1 << 20,
        ..DbOptions::default()
    };
    DbSession::new(db, &cfg(), opts).unwrap()
}

/// Opens `dir` with the attach read of volume `v`'s FASTA delayed by
/// [`SLOW_READ`] once: the first query to attach it expires under
/// [`BUDGET`], every later one runs at full speed. (`skip: 1` lets the
/// open-time existence probe through.)
fn open_with_one_slow_attach(dir: &PathBuf, v: usize) -> Database {
    let io = FaultyIo::with_rules([FaultRule {
        file: Some(format!("vol{v:05}.fa")),
        skip: 1,
        times: 1,
        fault: Fault::Delay(SLOW_READ),
    }]);
    Database::open_with_io(dir, Arc::new(io)).unwrap()
}

#[test]
fn expired_deadline_leaves_sink_untouched_and_inserts_nothing() {
    let dir = build_db("deadline_expired");
    let db = open_with_one_slow_attach(&dir, 0);
    let mut session = budgeted_session(&db);
    let mut sink = CollectSink::new();
    let err = session
        .run_query_reported(&query(), &mut sink)
        .expect_err("a query outliving its budget must expire");
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err:?}");
    assert!(render(sink).is_empty(), "sink must be untouched on expiry");
    let counters = session.result_cache_counters();
    assert_eq!(
        (counters.insertions, counters.entries),
        (0, 0),
        "an aborted query must not populate the cache"
    );
    // The session survives: the same query, now within its budget,
    // completes and matches a fresh sequential run byte for byte.
    let mut sink = CollectSink::new();
    let (_, report) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert!(report.is_complete());
    let (seq_records, _) = run_once(&dir, None, DbOptions::default()).unwrap();
    assert_eq!(render(sink), seq_records);
}

#[test]
fn expiry_mid_walk_stops_dispatch() {
    let dir = build_db("expiry_mid_walk");
    let db = open_with_one_slow_attach(&dir, 1);
    let num = db.num_volumes() as u64;
    let mut session = budgeted_session(&db);
    let obs = Obs::armed();
    session.set_obs(obs.clone());
    let mut sink = CollectSink::new();
    let err = session
        .run_query_reported(&query(), &mut sink)
        .expect_err("a query outliving its budget mid-walk must expire");
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err:?}");
    assert!(render(sink).is_empty(), "sink must be untouched on expiry");
    assert_eq!(session.result_cache_counters().insertions, 0);
    // Volumes 0 and 1 were dispatched; the search of volume 1, after its
    // slow attach, expired, and no later volume was dispatched.
    let dispatched = obs.counter(names::WORKER_DISPATCH_TOTAL);
    assert!(
        dispatched == 2 && 2 < num,
        "{dispatched} of {num} dispatched"
    );
    let mut sink = CollectSink::new();
    session.run_query_reported(&query(), &mut sink).unwrap();
    let (seq_records, _) = run_once(&dir, None, DbOptions::default()).unwrap();
    assert_eq!(render(sink), seq_records);
}

#[test]
fn repeated_query_is_served_from_cache_byte_identically() {
    let dir = build_db("cache_repeat");
    let db = Database::open(&dir).unwrap();
    let num = db.num_volumes();
    let opts = DbOptions {
        result_cache_bytes: 1 << 20,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();

    let mut cold = CollectSink::new();
    let (cold_stats, cold_report) = session.run_query_reported(&query(), &mut cold).unwrap();
    assert!(!cold_report.from_cache);
    // One query is one miss, one insertion and one entry, whatever the
    // volume count.
    assert!(num >= 4);
    let counters = session.result_cache_counters();
    assert_eq!(
        (counters.misses, counters.insertions, counters.entries),
        (1, 1, 1)
    );

    let mut warm = CollectSink::new();
    let (warm_stats, warm_report) = session.run_query_reported(&query(), &mut warm).unwrap();
    assert!(warm_report.from_cache);
    assert_eq!(
        warm_report.searched,
        (0..num).collect::<Vec<_>>(),
        "the hit covers every volume the search covered"
    );
    assert_eq!(
        SearchReport {
            from_cache: false,
            ..warm_report
        },
        cold_report,
        "a hit replays the search's report"
    );
    assert_eq!(warm_stats.step4, cold_stats.step4);
    assert_eq!(session.result_cache_counters().hits, 1);
    assert_eq!(render(warm), render(cold), "a hit must replay exact bytes");

    // A different query bank misses: the key is content, not identity.
    let other = bank(&[("q2", &format!("AA{CORE}CC"))]);
    let mut sink = CollectSink::new();
    let (_, report) = session.run_query_reported(&other, &mut sink).unwrap();
    assert!(!report.from_cache);
    assert_eq!(session.result_cache_counters().misses, 2);
}

#[test]
fn quarantined_volume_is_invalidated_and_never_served_from_cache() {
    // Populate the cache, then break volume 1 and force a re-attach via
    // a window-bounded session scanning a *different* query: the attach
    // failure quarantines the volume and empties the cache — a repeat of
    // the original query must not resurrect volume 1's records from it.
    let dir = build_db("cache_quarantine");
    let io = Arc::new(FaultyIo::new());
    let db = Database::open_with_io(&dir, io.clone()).unwrap();
    let opts = DbOptions {
        window: 1, // re-attach per scan, so the fault is actually hit
        result_cache_bytes: 1 << 20,
        on_volume_error: OnVolumeError::SkipAndReport,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let mut sink = CollectSink::new();
    let (_, first) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert!(first.is_complete());

    io.push(FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 64,
            mask: 0xFF,
        },
    ));
    // A query the cache has never seen scans, re-attaches, and trips the
    // fault on volume 1 → quarantine + invalidation.
    let other = bank(&[("q2", &format!("AA{CORE}CC"))]);
    let mut sink = CollectSink::new();
    let (_, degraded) = session.run_query_reported(&other, &mut sink).unwrap();
    assert_eq!(degraded.skipped, vec![1]);
    // The quarantine dropped the one answer cached before it; the
    // degraded query's own answer went in after.
    let counters = session.result_cache_counters();
    assert_eq!((counters.invalidations, counters.entries), (1, 1));

    // The original query repeats: its answer is gone, so it is searched
    // again over the surviving volumes, and volume 1 is skipped — not
    // served from a stale entry.
    let mut sink = CollectSink::new();
    let (_, repeat) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert_eq!(repeat.skipped, vec![1]);
    assert!(!repeat.from_cache);
    assert!(!repeat.searched.contains(&1));
    assert_eq!(session.result_cache_counters().misses, 3);
    let surviving = render(sink);
    assert!(!surviving.is_empty());
    // And the surviving bytes equal a fresh cacheless degraded run.
    let (expect, _) = run_once(
        &dir,
        Some(FaultyIo::with_rules([FaultRule::always(
            "vol00001.oidx",
            Fault::FlipByte {
                offset: 64,
                mask: 0xFF,
            },
        )])),
        DbOptions {
            window: 1,
            on_volume_error: OnVolumeError::SkipAndReport,
            ..DbOptions::default()
        },
    )
    .unwrap();
    assert_eq!(surviving, expect);
}

#[test]
fn undersized_cache_stores_nothing_but_output_is_correct() {
    // A cache too small for even one volume's records degrades to a
    // no-op: zero insertions, zero hits, bytes identical to cacheless.
    let dir = build_db("cache_tiny");
    let db = Database::open(&dir).unwrap();
    let opts = DbOptions {
        result_cache_bytes: 1,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let mut first = CollectSink::new();
    session.run_query_reported(&query(), &mut first).unwrap();
    let mut second = CollectSink::new();
    let (_, report) = session.run_query_reported(&query(), &mut second).unwrap();
    assert!(!report.from_cache);
    let counters = session.result_cache_counters();
    assert_eq!((counters.insertions, counters.hits), (0, 0));
    let (seq_records, _) = run_once(&dir, None, DbOptions::default()).unwrap();
    assert_eq!(render(first), seq_records);
    assert_eq!(render(second), seq_records);
}
