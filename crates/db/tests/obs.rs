//! Observability contract suite: an armed [`oris_obs::Obs`] handle —
//! registry plus trace sink at max verbosity — must be byte-invisible
//! on the result path, and the counters it accumulates must agree with
//! the subsystems they mirror.
//!
//! * Property: for either window and cache size, a fully armed session
//!   produces the same `-m 8` bytes *and* the same [`SearchReport`] as
//!   a disarmed one.
//! * The registry's cache, attach, retry and quarantine counters equal
//!   the session's own ledger after a scripted hit / miss / quarantine
//!   sequence.
//! * Deadline expiries and volume quarantines are counted.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use oris_core::{CollectSink, OrisConfig};
use oris_db::{
    make_db, Database, DbOptions, DbSession, Fault, FaultRule, FaultyIo, MakeDbOptions,
    OnVolumeError, SearchReport,
};
use oris_obs::{names, Obs};
use oris_seqio::{Bank, BankBuilder};
use proptest::prelude::*;

fn bank(seqs: &[(&str, &str)]) -> Bank {
    let mut b = BankBuilder::new();
    for (name, s) in seqs {
        b.push_str(name, s).unwrap();
    }
    b.finish()
}

const CORE: &str = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCTACCGGTATTGACCGTA";

fn cfg() -> OrisConfig {
    OrisConfig::small(8)
}

fn query() -> Bank {
    bank(&[("q", &format!("TT{CORE}GG"))])
}

/// One shared multi-volume database for the whole suite (building it
/// per proptest case would dominate the run).
fn shared_db() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join("oris_db_obs_test")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let recs: Vec<(String, String)> = (0..8)
            .map(|i| {
                (
                    format!("subj{i}"),
                    format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(5 + i)),
                )
            })
            .collect();
        let refs: Vec<(&str, &str)> = recs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let subject = bank(&refs);
        let per_volume = (subject.num_residues() / 4).max(1);
        let m = make_db([subject], &dir, &MakeDbOptions::new(&cfg(), per_volume)).unwrap();
        assert!(m.volumes.len() >= 4);
        dir
    })
}

/// Runs the same two queries (cold, then repeat — so the cache path is
/// exercised when enabled) through a fresh session carrying `obs`.
fn run_with_obs(opts: DbOptions, obs: Obs) -> (Vec<String>, Vec<SearchReport>) {
    let db = Database::open(shared_db()).unwrap();
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    session.set_obs(obs);
    let mut sink = CollectSink::new();
    let mut reports = Vec::new();
    for _ in 0..2 {
        let (_, r) = session.run_query_reported(&query(), &mut sink).unwrap();
        reports.push(r);
    }
    let records = sink.into_records().iter().map(|r| r.to_string()).collect();
    (records, reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arming the registry and a max-verbosity trace sink changes
    /// nothing observable: same bytes, same reports, for either window
    /// and cache size.
    #[test]
    fn armed_obs_is_byte_invisible(
        window in 0usize..2,
        cache_sel in 0usize..2,
    ) {
        let cache_mb = [0usize, 1][cache_sel];
        let opts = || DbOptions {
            window,
            result_cache_bytes: cache_mb << 20,
            ..DbOptions::default()
        };
        let (plain_records, plain_reports) = run_with_obs(opts(), Obs::disarmed());
        let armed = Obs::builder().trace(Box::new(std::io::sink())).build();
        let (armed_records, armed_reports) = run_with_obs(opts(), armed.clone());
        prop_assert_eq!(&armed_records, &plain_records);
        prop_assert_eq!(&armed_reports, &plain_reports);
        // And the instrumentation actually ran: two queries counted.
        prop_assert_eq!(armed.counter(names::QUERIES_TOTAL), 2);
    }
}

#[test]
fn obs_cache_counters_match_result_cache_after_hit_miss_quarantine() {
    // Scripted sequence against one session: a cold query (one miss, one
    // insertion), a byte-identical repeat (one hit), then a fault that
    // quarantines volume 1 (emptying the cache) and a final degraded
    // repeat. After every step the obs registry must agree exactly with
    // the session's ledger: the ResultCache's counters, the volumes'
    // attaches and retries, and the quarantine list.
    let io = Arc::new(FaultyIo::new());
    let db = Database::open_with_io(shared_db(), io.clone()).unwrap();
    let opts = DbOptions {
        window: 1, // re-attach per scan, so the fault is actually hit
        result_cache_bytes: 1 << 20,
        on_volume_error: OnVolumeError::SkipAndReport,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let obs = Obs::armed();
    session.set_obs(obs.clone());

    let check = |obs: &Obs, session: &DbSession, step: &str| {
        let c = session.result_cache_counters();
        assert_eq!(obs.counter(names::CACHE_HITS_TOTAL), c.hits, "{step}: hits");
        assert_eq!(
            obs.counter(names::CACHE_MISSES_TOTAL),
            c.misses,
            "{step}: misses"
        );
        assert_eq!(
            obs.counter(names::CACHE_INSERTIONS_TOTAL),
            c.insertions,
            "{step}: insertions"
        );
        assert_eq!(
            obs.counter(names::CACHE_EVICTIONS_TOTAL),
            c.evictions,
            "{step}: evictions"
        );
        assert_eq!(
            obs.counter(names::CACHE_INVALIDATIONS_TOTAL),
            c.invalidations,
            "{step}: invalidations"
        );
        assert_eq!(
            obs.gauge(names::CACHE_ENTRIES),
            c.entries as f64,
            "{step}: entries"
        );
        assert_eq!(
            obs.gauge(names::CACHE_BYTES),
            c.bytes as f64,
            "{step}: bytes"
        );
        let costs = session.volume_costs();
        assert_eq!(
            obs.counter(names::VOLUME_ATTACHES_TOTAL),
            costs.iter().map(|c| u64::from(c.attaches)).sum::<u64>(),
            "{step}: attaches"
        );
        assert_eq!(
            obs.counter(names::IO_RETRIES_TOTAL),
            costs.iter().map(|c| u64::from(c.retries)).sum::<u64>(),
            "{step}: retries"
        );
        assert_eq!(
            obs.counter(names::VOLUME_QUARANTINES_TOTAL),
            session.quarantined().count() as u64,
            "{step}: quarantines"
        );
    };

    let mut sink = CollectSink::new();
    session.run_query_reported(&query(), &mut sink).unwrap();
    check(&obs, &session, "cold");
    assert_eq!(obs.counter(names::CACHE_MISSES_TOTAL), 1);
    assert_eq!(obs.counter(names::CACHE_HITS_TOTAL), 0);
    assert!(obs.counter(names::VOLUME_ATTACHES_TOTAL) >= 4);

    let mut sink = CollectSink::new();
    let (_, warm) = session.run_query_reported(&query(), &mut sink).unwrap();
    check(&obs, &session, "warm");
    assert_eq!(obs.counter(names::CACHE_HITS_TOTAL), 1);
    assert!(warm.from_cache);
    assert!(!warm.searched.is_empty());

    io.push(FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 64,
            mask: 0xFF,
        },
    ));
    // One transient read error on volume 2: retried (and counted), then
    // the attach succeeds — no output impact.
    io.push(FaultRule::first(
        "vol00002.fa",
        1,
        Fault::Error(ErrorKind::Interrupted),
    ));
    // A never-cached query scans, re-attaches, trips the fault on
    // volume 1 → quarantine, and the one cached answer is dropped.
    let other = bank(&[("q2", &format!("AA{CORE}CC"))]);
    let mut sink = CollectSink::new();
    let (_, degraded) = session.run_query_reported(&other, &mut sink).unwrap();
    assert_eq!(degraded.skipped, vec![1]);
    check(&obs, &session, "quarantine");
    assert_eq!(obs.counter(names::CACHE_INVALIDATIONS_TOTAL), 1);
    assert_eq!(obs.counter(names::VOLUME_QUARANTINES_TOTAL), 1);
    assert!(obs.counter(names::IO_RETRIES_TOTAL) >= 1);

    let mut sink = CollectSink::new();
    session.run_query_reported(&query(), &mut sink).unwrap();
    check(&obs, &session, "degraded repeat");
    assert_eq!(obs.counter(names::QUERIES_TOTAL), 4);
}

#[test]
fn deadline_expiry_is_counted() {
    let db = Database::open(shared_db()).unwrap();
    let opts = DbOptions {
        deadline: Some(Duration::ZERO),
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let obs = Obs::armed();
    session.set_obs(obs.clone());
    let mut sink = CollectSink::new();
    session
        .run_query_reported(&query(), &mut sink)
        .expect_err("zero budget must expire");
    assert_eq!(obs.counter(names::DEADLINE_EXPIRIES_TOTAL), 1);
    // The failed query still opened (and closed) its latency span.
    let snap = obs.snapshot().unwrap();
    assert_eq!(snap.histograms[names::QUERY_SECONDS].count(), 1);
}
