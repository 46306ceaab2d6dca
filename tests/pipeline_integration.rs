//! Cross-crate integration tests: simulator → both engines → evaluation,
//! exercising the public API exactly as the experiment harness does.

use oris::prelude::*;
use oris_core::{Deadline, FilterKind, MemberResult, QueryChunk};

fn small_est_pair() -> (Bank, Bank) {
    let b1 = paper_banks(&["EST1"], 0.05).remove(0).bank;
    let b2 = paper_banks(&["EST2"], 0.05).remove(0).bank;
    (b1, b2)
}

#[test]
fn engines_agree_on_synthetic_est_banks() {
    // The reproduction's core cross-check: at matched thresholds with the
    // same filter, the two engines must report equivalent alignment sets
    // (this is tighter than the paper's ~3 % mutual misses, which come
    // from the *differing* filters).
    let (b1, b2) = small_est_pair();
    let oris_cfg = OrisConfig {
        filter: FilterKind::Dust,
        ..OrisConfig::default()
    };
    let r_oris = compare_banks(&b1, &b2, &oris_cfg);
    let r_blast = blast_compare_banks(&b1, &b2, &oris_cfg);
    let rep = oris::eval::compare_outputs(&r_oris.alignments, &r_blast.alignments, 0.8);
    assert_eq!(rep.a_miss, 0, "{rep:?}");
    assert_eq!(rep.b_miss, 0, "{rep:?}");
    assert!(rep.a_total > 0, "expected some alignments: {rep:?}");
}

#[test]
fn differing_filters_produce_small_mutual_misses() {
    // With each engine's own filter (the paper's actual setup), misses
    // exist but stay a small fraction — the section-3.4 shape.
    let b1 = paper_banks(&["EST3"], 0.1).remove(0).bank;
    let b2 = paper_banks(&["EST4"], 0.1).remove(0).bank;
    let cfg = OrisConfig::default();
    let (r_oris, r_blast) = (
        compare_banks(&b1, &b2, &cfg),
        blast_compare_banks(&b1, &b2, &cfg),
    );
    let rep = oris::eval::compare_outputs(&r_oris.alignments, &r_blast.alignments, 0.8);
    assert!(rep.a_total > 10, "too few alignments to compare: {rep:?}");
    let miss_a = rep.a_miss_pct().unwrap_or(0.0);
    let miss_b = rep.b_miss_pct().unwrap_or(0.0);
    assert!(
        miss_a < 25.0,
        "SCORISmiss too large: {miss_a:.1}% ({rep:?})"
    );
    assert!(miss_b < 25.0, "BLASTmiss too large: {miss_b:.1}% ({rep:?})");
}

#[test]
fn oris_pipeline_deterministic_across_runs_and_threads() {
    let (b1, b2) = small_est_pair();
    let mut cfg = OrisConfig {
        threads: Some(1),
        ..OrisConfig::default()
    };
    let r1 = compare_banks(&b1, &b2, &cfg);
    cfg.threads = Some(4);
    let r4 = compare_banks(&b1, &b2, &cfg);
    cfg.threads = None;
    let rg = compare_banks(&b1, &b2, &cfg);
    assert_eq!(r1.alignments, r4.alignments);
    assert_eq!(r1.alignments, rg.alignments);
}

#[test]
fn fasta_roundtrip_preserves_results() {
    // Write banks to FASTA, read them back, compare: identical outputs.
    let (b1, b2) = small_est_pair();
    let dir = std::env::temp_dir().join("oris_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("b1.fa");
    let p2 = dir.join("b2.fa");
    oris::seqio::fasta::write_fasta_file(&b1, &p1).unwrap();
    oris::seqio::fasta::write_fasta_file(&b2, &p2).unwrap();
    let rb1 = read_fasta_file(&p1).unwrap();
    let rb2 = read_fasta_file(&p2).unwrap();
    assert_eq!(b1, rb1);

    let cfg = OrisConfig::default();
    let direct = compare_banks(&b1, &b2, &cfg);
    let reloaded = compare_banks(&rb1, &rb2, &cfg);
    assert_eq!(direct.alignments, reloaded.alignments);
}

#[test]
fn m8_lines_parse_back() {
    let (b1, b2) = small_est_pair();
    let r = compare_banks(&b1, &b2, &OrisConfig::default());
    for a in &r.alignments {
        let line = a.to_string();
        let parsed = oris::eval::M8Record::parse(&line).expect("parseable m8 line");
        assert_eq!(parsed.qid, a.qid);
        assert_eq!(parsed.length, a.length);
        assert_eq!((parsed.qstart, parsed.qend), (a.qstart, a.qend));
    }
}

#[test]
fn evalue_threshold_is_respected() {
    let (b1, b2) = small_est_pair();
    let cfg = OrisConfig::default();
    let r = compare_banks(&b1, &b2, &cfg);
    for a in &r.alignments {
        assert!(
            a.evalue <= cfg.evalue_threshold,
            "record above threshold: {a}"
        );
    }
}

#[test]
fn asymmetric_mode_keeps_most_alignments() {
    // Section 3.4: asymmetric 10-nt indexing anchors all 11-nt seeds plus
    // ~50 % of 10-nt ones — alignment recall must not collapse.
    let b1 = paper_banks(&["EST1"], 0.1).remove(0).bank;
    let b2 = paper_banks(&["EST2"], 0.1).remove(0).bank;
    let plain = compare_banks(&b1, &b2, &OrisConfig::default());
    let asym = compare_banks(
        &b1,
        &b2,
        &OrisConfig {
            asymmetric: true,
            ..OrisConfig::default()
        },
    );
    assert!(
        asym.alignments.len() * 2 >= plain.alignments.len(),
        "asymmetric recall collapsed: {} vs {}",
        asym.alignments.len(),
        plain.alignments.len()
    );
}

#[test]
fn session_runs_many_queries_with_one_subject_build() {
    // The intensive-comparison contract: N ≥ 4 query banks against one
    // prepared subject build the subject index exactly once, each run
    // builds exactly one index (its query), and every result is
    // identical to the single-shot compare_banks on the same pair.
    let subject = paper_banks(&["EST2"], 0.05).remove(0).bank;
    let queries = vec![
        paper_banks(&["EST1"], 0.05).remove(0).bank,
        paper_banks(&["EST3"], 0.05).remove(0).bank,
        paper_banks(&["EST4"], 0.03).remove(0).bank,
        oris::simulate::random_bank(7, 40, 400, 0.5),
        paper_banks(&["EST5"], 0.03).remove(0).bank,
    ];
    let cfg = OrisConfig::default();
    let session = Session::new(&subject, &cfg).unwrap();
    assert_eq!(session.subject_stats().builds, 1);

    let mut total_alignments = 0;
    for q in &queries {
        let via_session = session.run(q);
        assert_eq!(via_session.stats.index_builds, 1, "query build only");
        let via_compare = compare_banks(q, &subject, &cfg);
        assert_eq!(via_session.alignments, via_compare.alignments);
        // compare_banks accounts for both builds it performed.
        assert_eq!(via_compare.stats.index_builds, 2);
        total_alignments += via_session.alignments.len();
    }
    assert!(total_alignments > 0, "EST pairs must produce alignments");
}

#[test]
fn session_both_strands_matches_compare_banks() {
    let subject = paper_banks(&["EST2"], 0.04).remove(0).bank;
    let query = paper_banks(&["EST1"], 0.04).remove(0).bank;
    let cfg = OrisConfig {
        both_strands: true,
        ..OrisConfig::default()
    };
    let session = Session::new(&subject, &cfg).unwrap();
    // One build per subject strand, never repeated across runs.
    assert_eq!(session.subject_stats().builds, 2);
    let r1 = session.run(&query);
    let r2 = session.run(&query);
    assert_eq!(r1.alignments, r2.alignments);
    assert_eq!(r1.stats.index_builds, 1);
    let direct = compare_banks(&query, &subject, &cfg);
    assert_eq!(r1.alignments, direct.alignments);
    // Single shot: 1 query build + 2 subject strand builds.
    assert_eq!(direct.stats.index_builds, 3);
}

#[test]
fn prepared_queries_skip_all_builds() {
    let subject = paper_banks(&["EST2"], 0.04).remove(0).bank;
    let query = paper_banks(&["EST1"], 0.04).remove(0).bank;
    let cfg = OrisConfig::default();
    let session = Session::new(&subject, &cfg).unwrap();
    let one = std::slice::from_ref(&query);
    let chunk = QueryChunk::prepare(one, cfg.filter, cfg.query_index_config());
    let mut out = [MemberResult::default()];
    let stats = session
        .search_chunk(&chunk, &mut out, &Deadline::none())
        .unwrap();
    assert_eq!(stats.index_builds, 0);
    let [member] = out;
    let mut sink = CollectSink::new();
    sink.accept_all(member.records);
    sink.end_query().unwrap();
    assert_eq!(
        sink.into_records(),
        compare_banks(&query, &subject, &cfg).alignments
    );
}

#[test]
fn unrelated_banks_stay_silent() {
    // Negative control: independent random banks share no homology; at
    // e ≤ 1e-3 (essentially) nothing should be reported.
    let b1 = oris::simulate::random_bank(1, 60, 500, 0.5);
    let b2 = oris::simulate::random_bank(2, 60, 500, 0.5);
    let r = compare_banks(&b1, &b2, &OrisConfig::default());
    assert!(
        r.alignments.len() <= 1,
        "unexpected alignments between unrelated banks: {}",
        r.alignments.len()
    );
}
