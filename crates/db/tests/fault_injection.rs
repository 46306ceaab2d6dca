//! Fault-injection suite: drives **every** database error path through
//! [`FaultyIo`] and asserts the exact [`DbError`] variant each failure
//! produces — no unreachable error arm — then pins the degraded-mode
//! contracts: quarantine under [`OnVolumeError::SkipAndReport`] (with
//! byte-identity of the surviving-volume results), bounded retry of
//! transient faults, per-query deadlines with an untouched sink, and
//! `verify_db`'s per-volume verdicts.

use std::error::Error as _;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use oris_core::{CollectSink, OrisConfig, RecordSink};
use oris_db::{
    make_db, verify_db, Database, DbError, DbOptions, DbSession, Fault, FaultRule, FaultyIo,
    MakeDbOptions, OnVolumeError, SearchReport, VolumeCause,
};
use oris_index::PersistError;
use oris_seqio::{Bank, BankBuilder};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("oris_db_fault_test")
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

fn subject_records() -> Vec<(String, String)> {
    let mut recs = Vec::new();
    for i in 0..6 {
        recs.push((
            format!("subj{i}"),
            format!("CCGGAATTAT{CORE}GGTTAACCGG{}", "ACGT".repeat(5 + i)),
        ));
    }
    recs.push(("decoy".to_string(), "GCGCGCGCATATATATGCGCGCGC".to_string()));
    recs
}

fn subject_bank() -> Bank {
    let recs = subject_records();
    let refs: Vec<(&str, &str)> = recs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    bank(&refs)
}

fn cfg() -> OrisConfig {
    OrisConfig::small(8)
}

fn query() -> Bank {
    bank(&[("q", &format!("TT{CORE}GG"))])
}

/// Builds a multi-volume database, returning its directory.
fn build_db(test: &str) -> PathBuf {
    let dir = scratch(test);
    let subject = subject_bank();
    let per_volume = (subject.num_residues() / 3).max(1);
    let m = make_db([subject], &dir, &MakeDbOptions::new(&cfg(), per_volume)).unwrap();
    assert!(
        m.volumes.len() >= 3,
        "wanted ≥3 volumes, got {}",
        m.volumes.len()
    );
    dir
}

fn skip_opts() -> DbOptions {
    DbOptions {
        on_volume_error: OnVolumeError::SkipAndReport,
        ..DbOptions::default()
    }
}

/// Opens `dir` through an injector and runs one query under `opts`,
/// returning the outcome plus the report.
fn run_faulted(
    dir: &PathBuf,
    io: FaultyIo,
    opts: DbOptions,
) -> Result<(Vec<String>, SearchReport), DbError> {
    let db = Database::open_with_io(dir, Arc::new(io))?;
    let mut session = DbSession::new(&db, &cfg(), opts)?;
    let mut sink = CollectSink::new();
    let (_, report) = session.run_query_reported(&query(), &mut sink)?;
    Ok((
        sink.into_records().iter().map(|r| r.to_string()).collect(),
        report,
    ))
}

/// Expected results with no faults (the whole-database baseline).
fn baseline(dir: &PathBuf) -> Vec<String> {
    let db = Database::open(dir).unwrap();
    let mut session = DbSession::new(&db, &cfg(), DbOptions::default()).unwrap();
    let mut sink = CollectSink::new();
    session.run_query_reported(&query(), &mut sink).unwrap();
    sink.into_records().iter().map(|r| r.to_string()).collect()
}

fn volume_cause(e: &DbError) -> &VolumeCause {
    match e {
        DbError::Volume(v) => &v.cause,
        other => panic!("expected DbError::Volume, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Every DbError variant, driven by injected faults.
// ---------------------------------------------------------------------

#[test]
fn manifest_read_failure_is_io() {
    let dir = build_db("man_io");
    let io = FaultyIo::with_rules([FaultRule::always(
        "manifest.orisdb",
        Fault::Error(ErrorKind::Other),
    )]);
    let e = Database::open_with_io(&dir, Arc::new(io)).unwrap_err();
    assert!(matches!(e, DbError::Io(..)), "{e:?}");
    assert_eq!(e.exit_code(), 4);
    // The source chain reaches the injected io::Error.
    assert!(e
        .source()
        .unwrap()
        .downcast_ref::<std::io::Error>()
        .is_some());
}

#[test]
fn manifest_corruption_is_manifest_error() {
    let dir = build_db("man_flip");
    // Flip one byte of the manifest body: the trailing FNV checksum must
    // catch it.
    let io = FaultyIo::with_rules([FaultRule::always(
        "manifest.orisdb",
        Fault::FlipByte {
            offset: 10,
            mask: 0x20,
        },
    )]);
    let e = Database::open_with_io(&dir, Arc::new(io)).unwrap_err();
    assert!(matches!(e, DbError::Manifest(_)), "{e:?}");
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("checksum"), "{e}");

    // Truncating past the checksum line is also caught.
    let io = FaultyIo::with_rules([FaultRule::always("manifest.orisdb", Fault::Truncate(30))]);
    let e = Database::open_with_io(&dir, Arc::new(io)).unwrap_err();
    assert!(matches!(e, DbError::Manifest(_)), "{e:?}");
}

#[test]
fn missing_volume_file_fails_open() {
    let dir = build_db("missing");
    let io = FaultyIo::with_rules([FaultRule::always("vol00001.fa", Fault::Missing)]);
    let e = Database::open_with_io(&dir, Arc::new(io)).unwrap_err();
    match &e {
        DbError::Volume(v) => {
            assert_eq!(v.volume, 1);
            assert!(matches!(v.cause, VolumeCause::Missing));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(e.exit_code(), 3);
}

#[test]
fn fasta_read_failure_is_volume_io() {
    let dir = build_db("fa_io");
    // Open sees the file (is_file passes); the attach-time read fails.
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00000.fa",
        Fault::Error(ErrorKind::Other),
    )]);
    let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
    let e = db.attach_volume(0).unwrap_err();
    assert!(matches!(volume_cause(&e), VolumeCause::Io(_)), "{e:?}");
    // And the same fault surfaces from a session query under Fail.
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00000.fa",
        Fault::Error(ErrorKind::Other),
    )]);
    let e = run_faulted(&dir, io, DbOptions::default()).unwrap_err();
    assert!(matches!(volume_cause(&e), VolumeCause::Io(_)), "{e:?}");
}

#[test]
fn fasta_corruption_is_parse_or_hash_error() {
    let dir = build_db("fa_flip");
    // Byte 0 is the '>' of the first header: flipping it breaks parsing.
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00000.fa",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    )]);
    let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
    let e = db.attach_volume(0).unwrap_err();
    assert!(matches!(volume_cause(&e), VolumeCause::Fasta(_)), "{e:?}");

    // Flipping a sequence byte to another valid base parses fine but
    // fails the manifest content-hash check ('A' ^ 0x06 = 'G').
    let bytes = std::fs::read(dir.join("vol00000.fa")).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let offset = header_end
        + 1
        + bytes[header_end + 1..]
            .iter()
            .position(|&b| b == b'A')
            .expect("sequence contains an A");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00000.fa",
        Fault::FlipByte { offset, mask: 0x06 },
    )]);
    let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
    let e = db.attach_volume(0).unwrap_err();
    assert!(
        matches!(volume_cause(&e), VolumeCause::HashMismatch { .. }),
        "{e:?}"
    );
    assert!(e.to_string().contains("content hash"), "{e}");
}

#[test]
fn index_corruptions_map_to_persist_errors() {
    type CauseCheck = fn(&PersistError) -> bool;
    let dir = build_db("idx");
    let cases: [(Fault, CauseCheck); 4] = [
        // Byte 0 is the magic.
        (
            Fault::FlipByte {
                offset: 0,
                mask: 0xFF,
            },
            |p| matches!(p, PersistError::BadMagic),
        ),
        // Byte 8 is the format version (little-endian u32).
        (
            Fault::FlipByte {
                offset: 8,
                mask: 0x40,
            },
            |p| matches!(p, PersistError::UnsupportedVersion(_)),
        ),
        // Truncation inside the header.
        (Fault::Truncate(40), |p| {
            matches!(p, PersistError::Corrupt(_))
        }),
        // A flipped byte in the section data trips the whole-stream
        // checksum (or a structural check — either is Corrupt).
        (
            Fault::FlipByte {
                offset: 100,
                mask: 0x01,
            },
            |p| matches!(p, PersistError::Corrupt(_)),
        ),
    ];
    for (fault, check) in cases {
        let io = FaultyIo::with_rules([FaultRule::always("vol00000.oidx", fault.clone())]);
        let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
        let e = db.attach_volume(0).unwrap_err();
        match volume_cause(&e) {
            VolumeCause::Index(p) => assert!(check(p), "fault {fault:?} gave {p:?}"),
            other => panic!("fault {fault:?} gave {other:?}"),
        }
    }
    // An injected read error on the index stays classified as I/O, not
    // corruption.
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00000.oidx",
        Fault::Error(ErrorKind::Other),
    )]);
    let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
    let e = db.attach_volume(0).unwrap_err();
    match volume_cause(&e) {
        VolumeCause::Index(PersistError::Io(_)) => {}
        other => panic!("{other:?}"),
    }
    // The chain bottoms out at the PersistError.
    assert!(e
        .source()
        .unwrap()
        .source()
        .unwrap()
        .downcast_ref::<PersistError>()
        .is_some());
}

#[test]
fn injected_index_faults_read_like_the_same_bytes_on_disk() {
    // FaultyIo hands its mutated buffer to the decoder RealIo's mmap
    // attach runs over the file, so the PersistError text under injection
    // must be what `map_index_file` gives on a file holding those bytes.
    let dir = build_db("idx_text");
    let clean = std::fs::read(dir.join("vol00001.oidx")).unwrap();
    let cut = clean.len() - 9;
    let mut flipped = clean.clone();
    flipped[100] ^= 0x01;
    let flip = Fault::FlipByte {
        offset: 100,
        mask: 0x01,
    };
    for (fault, bytes) in [
        (flip, flipped),
        (Fault::Truncate(cut), clean[..cut].to_vec()),
    ] {
        let on_disk = dir.join("mutant.oidx");
        std::fs::write(&on_disk, &bytes).unwrap();
        let expected = oris_index::map_index_file(&on_disk).unwrap_err();
        let io = FaultyIo::with_rules([FaultRule::always("vol00001.oidx", fault.clone())]);
        let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
        match volume_cause(&db.attach_volume(1).unwrap_err()) {
            VolumeCause::Index(p) => assert_eq!(p.to_string(), expected.to_string(), "{fault:?}"),
            other => panic!("fault {fault:?} gave {other:?}"),
        }
    }
}

#[test]
fn index_config_mismatch_is_detected() {
    // Build the same content under two seed lengths and cross-wire one
    // index file: content hashes agree, w does not.
    let dir_a = scratch("xwire_a");
    let dir_b = scratch("xwire_b");
    let per_volume = (subject_bank().num_residues() / 3).max(1);
    make_db(
        [subject_bank()],
        &dir_a,
        &MakeDbOptions::new(&cfg(), per_volume),
    )
    .unwrap();
    make_db(
        [subject_bank()],
        &dir_b,
        &MakeDbOptions::new(&OrisConfig::small(9), per_volume),
    )
    .unwrap();
    std::fs::copy(dir_b.join("vol00000.oidx"), dir_a.join("vol00000.oidx")).unwrap();
    let db = Database::open(&dir_a).unwrap();
    let e = db.attach_volume(0).unwrap_err();
    match volume_cause(&e) {
        VolumeCause::Mismatch(msg) => assert!(msg.contains("w="), "{msg}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn config_mismatch_is_config_error() {
    let dir = build_db("cfg");
    let db = Database::open(&dir).unwrap();
    let e = match DbSession::new(&db, &OrisConfig::small(9), DbOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("mismatched w must be rejected"),
    };
    assert!(matches!(e, DbError::Config(_)), "{e:?}");
    assert_eq!(e.exit_code(), 5);
}

/// A sink whose `end_query` always fails (a full output disk).
struct FailingSink;

impl RecordSink for FailingSink {
    fn accept(&mut self, _rec: oris_core::M8Record) {}
    fn end_query(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("injected sink failure"))
    }
}

#[test]
fn sink_failure_is_sink_error() {
    let dir = build_db("sink");
    let db = Database::open(&dir).unwrap();
    let mut session = DbSession::new(&db, &cfg(), DbOptions::default()).unwrap();
    let e = session
        .run_query_reported(&query(), &mut FailingSink)
        .unwrap_err();
    assert!(matches!(e, DbError::Sink(_)), "{e:?}");
    assert_eq!(e.exit_code(), 6);
}

#[test]
fn bounded_window_failure_leaves_the_sink_untouched() {
    // window = 1 attaches volume by volume, so under the Fail policy
    // volume 2's corrupt index is only met after volumes 0 and 1 were
    // searched (and both hold hits). Their records are staged, not
    // streamed: the failed query must leave no record and no boundary.
    /// (records accepted, boundaries seen)
    struct Probe(usize, usize);
    impl RecordSink for Probe {
        fn accept(&mut self, _rec: oris_core::M8Record) {
            self.0 += 1;
        }
        fn end_query(&mut self) -> std::io::Result<()> {
            self.1 += 1;
            Ok(())
        }
    }

    let dir = build_db("window_atomic");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00002.oidx",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    )]);
    let db = Database::open_with_io(&dir, Arc::new(io)).unwrap();
    let opts = DbOptions {
        window: 1,
        ..DbOptions::default()
    };
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let mut sink = Probe(0, 0);
    let e = session.run_query_reported(&query(), &mut sink).unwrap_err();
    assert!(matches!(&e, DbError::Volume(v) if v.volume == 2), "{e:?}");
    // The earlier volumes really were attached and searched first.
    let costs = session.volume_costs();
    assert!(costs[..2].iter().all(|c| c.attaches == 1), "{costs:?}");
    assert_eq!((sink.0, sink.1), (0, 0));
}

// ---------------------------------------------------------------------
// Degraded mode: quarantine, retries, reports.
// ---------------------------------------------------------------------

#[test]
fn fail_policy_aborts_on_corrupt_volume() {
    let dir = build_db("fail_policy");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    )]);
    let e = run_faulted(&dir, io, DbOptions::default()).unwrap_err();
    assert!(matches!(e, DbError::Volume(_)), "{e:?}");
}

#[test]
fn skip_and_report_completes_over_survivors_byte_identically() {
    let dir = build_db("skip");
    let full = baseline(&dir);
    let manifest = Database::open(&dir).unwrap();
    let total = manifest.total_residues();
    let vol_meta: Vec<(u64, u64)> = (0..manifest.num_volumes())
        .map(|v| (manifest.volume(v).sequences, manifest.volume(v).residues))
        .collect();
    drop(manifest);

    let bad_magic = FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    );
    let io = FaultyIo::with_rules([bad_magic.clone()]);
    let (records, report) = run_faulted(&dir, io, skip_opts()).unwrap();

    // A batch keeps the least-covered query's report (the first, among
    // equals): two queries over the same degraded database both skip
    // volume 1, and the one kept is the one a single query returns.
    let db = Database::open_with_io(&dir, Arc::new(FaultyIo::with_rules([bad_magic]))).unwrap();
    let mut session = DbSession::new(&db, &cfg(), skip_opts()).unwrap();
    let batch = session
        .run_batch(&[query(), query()], &mut CollectSink::new())
        .unwrap();
    assert_eq!(batch.queries(), 2);
    assert_eq!(batch.worst_coverage.as_ref(), Some(&report));

    assert_eq!(report.skipped, vec![1]);
    assert_eq!(report.retries, 0, "BadMagic is durable — never retried");
    assert_eq!(report.searched.len(), report.volumes_total - 1);
    assert!(!report.is_complete());
    let expected_cov = (total - vol_meta[1].1) as f64 / total as f64;
    assert!((report.coverage() - expected_cov).abs() < 1e-12);

    // Byte-identity: the degraded output equals a database built without
    // volume 1's sequences, priced against the FULL residue total (a
    // degraded search under-reports hits, it never re-prices them).
    let skip_start: u64 = vol_meta[0].0;
    let skip_end = skip_start + vol_meta[1].0;
    let recs = subject_records();
    let surviving: Vec<(&str, &str)> = recs
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as u64) < skip_start || (*i as u64) >= skip_end)
        .map(|(_, (n, s))| (n.as_str(), s.as_str()))
        .collect();
    let ref_dir = scratch("skip_ref");
    let per_volume = (subject_bank().num_residues() / 3).max(1);
    make_db(
        [bank(&surviving)],
        &ref_dir,
        &MakeDbOptions::new(&cfg(), per_volume),
    )
    .unwrap();
    let ref_db = Database::open(&ref_dir).unwrap();
    let mut ref_cfg = cfg();
    ref_cfg.subject_space = oris_core::SubjectSpace::Database(total);
    let mut ref_session = DbSession::new(&ref_db, &ref_cfg, DbOptions::default()).unwrap();
    let mut ref_sink = CollectSink::new();
    ref_session
        .run_query_reported(&query(), &mut ref_sink)
        .unwrap();
    let reference: Vec<String> = ref_sink
        .into_records()
        .iter()
        .map(|r| r.to_string())
        .collect();

    assert_eq!(records, reference);
    assert_ne!(records, full, "the corrupt volume's hits must be absent");
}

#[test]
fn quarantine_persists_and_is_not_reprobed() {
    let dir = build_db("quarantine");
    let io = Arc::new(FaultyIo::with_rules([FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    )]));
    let db = Database::open_with_io(&dir, io.clone()).unwrap();
    let mut session = DbSession::new(&db, &cfg(), skip_opts()).unwrap();

    let mut sink = CollectSink::new();
    let (_, r1) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert_eq!(r1.skipped, vec![1]);
    let quarantined: Vec<usize> = session.quarantined().map(|(v, _)| v).collect();
    assert_eq!(quarantined, vec![1]);

    // Second query: every surviving volume is cached, the quarantined one
    // is skipped without touching its files — zero I/O operations.
    let ops_before = io.operations();
    let (_, r2) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert_eq!(r2.skipped, vec![1]);
    assert_eq!(
        io.operations(),
        ops_before,
        "a quarantined volume must not be re-probed"
    );
    // And both queries' surviving results agree.
    assert_eq!(r1.searched, r2.searched);
}

#[test]
fn transient_fault_recovers_after_retry() {
    let dir = build_db("retry_ok");
    // First read of the volume FASTA fails with a transient kind; the
    // retry's read succeeds.
    let io = FaultyIo::with_rules([FaultRule::first(
        "vol00001.fa",
        1,
        Fault::Error(ErrorKind::Interrupted),
    )]);
    let (records, report) = run_faulted(&dir, io, skip_opts()).unwrap();
    assert_eq!(report.retries, 1);
    assert!(report.is_complete(), "{report:?}");
    assert_eq!(records, baseline(&dir), "a recovered query is unaffected");
}

#[test]
fn retry_exhaustion_quarantines() {
    let dir = build_db("retry_exhaust");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00001.fa",
        Fault::Error(ErrorKind::Interrupted),
    )]);
    let (_, report) = run_faulted(&dir, io, skip_opts()).unwrap();
    assert_eq!(report.retries, 2, "retried exactly RETRIES times");
    assert_eq!(report.skipped, vec![1]);
}

#[test]
fn durable_faults_are_never_retried() {
    let dir = build_db("no_retry");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00001.fa",
        Fault::Error(ErrorKind::PermissionDenied),
    )]);
    let (_, report) = run_faulted(&dir, io, skip_opts()).unwrap();
    assert_eq!(report.retries, 0);
    assert_eq!(report.skipped, vec![1]);
}

#[test]
fn no_fault_injector_path_is_byte_identical() {
    // SkipAndReport + a (generous) deadline through a rule-less injector
    // must not change a single byte of output.
    let dir = build_db("nofault");
    let opts = DbOptions {
        deadline: Some(Duration::from_secs(3600)),
        ..skip_opts()
    };
    let (records, report) = run_faulted(&dir, FaultyIo::new(), opts).unwrap();
    assert!(report.is_complete());
    assert_eq!(report.coverage(), 1.0);
    assert_eq!(
        report.searched,
        (0..report.volumes_total).collect::<Vec<_>>()
    );
    assert_eq!(records, baseline(&dir));
}

// ---------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------

/// A per-query budget far above a toy query's whole search, and far
/// below [`SLOW_READ`].
const BUDGET: Duration = Duration::from_millis(250);

/// The one slow device read that makes a query outlive [`BUDGET`].
const SLOW_READ: Duration = Duration::from_secs(1);

/// Opens `dir` with the attach read of volume `v`'s FASTA delayed by
/// [`SLOW_READ`] once: the first query to attach it expires under
/// [`BUDGET`], every later one runs at full speed. (`skip: 1` lets the
/// open-time existence probe through so the delay lands on the attach
/// read.)
fn open_with_one_slow_attach(dir: &PathBuf, v: usize) -> Database {
    let io = FaultyIo::with_rules([FaultRule {
        file: Some(format!("vol{v:05}.fa")),
        skip: 1,
        times: 1,
        fault: Fault::Delay(SLOW_READ),
    }]);
    Database::open_with_io(dir, Arc::new(io)).unwrap()
}

fn budgeted() -> DbOptions {
    DbOptions {
        deadline: Some(BUDGET),
        ..DbOptions::default()
    }
}

#[test]
fn expired_deadline_fails_cleanly_and_session_survives() {
    let dir = build_db("deadline");
    // Volume 0 attaches at full speed; volume 1's attach outlives the
    // budget, so the search of volume 1 expires.
    let db = open_with_one_slow_attach(&dir, 1);
    let mut session = DbSession::new(&db, &cfg(), budgeted()).unwrap();
    let mut sink = CollectSink::new();

    let e = session.run_query_reported(&query(), &mut sink).unwrap_err();
    assert!(matches!(e, DbError::DeadlineExceeded(_)), "{e:?}");
    assert_eq!(e.exit_code(), 7);
    assert_eq!(
        sink.records().len(),
        0,
        "an expired query must leave the sink untouched"
    );
    assert_eq!(
        session.quarantined().count(),
        0,
        "slowness is not corruption"
    );

    // The session is fully usable afterwards, and the volumes attached
    // before the expiry stayed attached.
    let (_, report) = session.run_query_reported(&query(), &mut sink).unwrap();
    assert!(report.is_complete());
    let attaches: Vec<u32> = session.volume_costs().iter().map(|c| c.attaches).collect();
    assert!(attaches.iter().all(|&n| n == 1), "{attaches:?}");
    let records: Vec<String> = sink.into_records().iter().map(|r| r.to_string()).collect();
    assert_eq!(records, baseline(&dir));
}

#[test]
fn generous_deadline_is_byte_identical() {
    let dir = build_db("deadline_ok");
    let opts = DbOptions {
        deadline: Some(Duration::from_secs(3600)),
        ..DbOptions::default()
    };
    let db = Database::open(&dir).unwrap();
    let mut session = DbSession::new(&db, &cfg(), opts).unwrap();
    let mut sink = CollectSink::new();
    session.run_query_reported(&query(), &mut sink).unwrap();
    let records: Vec<String> = sink.into_records().iter().map(|r| r.to_string()).collect();
    assert_eq!(records, baseline(&dir));
}

#[test]
fn slow_volume_trips_the_deadline() {
    let dir = build_db("deadline_slow");
    // The first volume's attach outlives the budget: the search of
    // volume 0 reads the deadline after the delayed attach and expires.
    let db = open_with_one_slow_attach(&dir, 0);
    let mut session = DbSession::new(&db, &cfg(), budgeted()).unwrap();
    let mut sink = CollectSink::new();
    let e = session.run_query_reported(&query(), &mut sink).unwrap_err();
    assert!(matches!(e, DbError::DeadlineExceeded(_)), "{e:?}");
    assert_eq!(sink.records().len(), 0);
    // The slow (not corrupt) volume was not quarantined, and the session
    // recovers once the transient slowness clears.
    session.run_query_reported(&query(), &mut sink).unwrap();
    let records: Vec<String> = sink.into_records().iter().map(|r| r.to_string()).collect();
    assert_eq!(records, baseline(&dir));
}

// ---------------------------------------------------------------------
// verify_db.
// ---------------------------------------------------------------------

#[test]
fn verify_db_passes_a_clean_database() {
    let dir = build_db("verify_ok");
    let report = verify_db(&dir, Arc::new(FaultyIo::new())).unwrap();
    assert!(report.is_ok());
    assert_eq!(report.exit_code(), 0);
    assert!(report.volumes.iter().all(|v| v.is_ok()));
}

#[test]
fn verify_db_names_exactly_the_corrupt_volume() {
    let dir = build_db("verify_bad");
    let io = FaultyIo::with_rules([FaultRule::always(
        "vol00001.oidx",
        Fault::FlipByte {
            offset: 0,
            mask: 0xFF,
        },
    )]);
    let report = verify_db(&dir, Arc::new(io)).unwrap();
    assert!(!report.is_ok());
    assert_eq!(report.exit_code(), 3);
    let failed: Vec<usize> = report.failures().map(|v| v.volume).collect();
    assert_eq!(failed, vec![1], "exactly volume 1 must fail");
    let verdict = &report.volumes[1];
    match verdict.error.as_ref().map(volume_cause) {
        Some(VolumeCause::Index(PersistError::BadMagic)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn verify_db_reports_missing_volumes_per_volume() {
    let dir = build_db("verify_missing");
    let io = FaultyIo::with_rules([FaultRule::always("vol00000.fa", Fault::Missing)]);
    let report = verify_db(&dir, Arc::new(io)).unwrap();
    let failed: Vec<usize> = report.failures().map(|v| v.volume).collect();
    assert_eq!(failed, vec![0]);
}

#[test]
fn verify_db_rejects_a_corrupt_manifest_outright() {
    let dir = build_db("verify_man");
    let io = FaultyIo::with_rules([FaultRule::always(
        "manifest.orisdb",
        Fault::FlipByte {
            offset: 5,
            mask: 0x08,
        },
    )]);
    let e = verify_db(&dir, Arc::new(io)).unwrap_err();
    assert!(matches!(e, DbError::Manifest(_)), "{e:?}");
    assert_eq!(e.exit_code(), 2);
}
