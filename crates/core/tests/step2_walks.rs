//! Step 2 against a byte-by-byte reference, in both of its regimes.
//!
//! `find_hsps` extends seed pairs with the word-wide walk, in batches, and
//! resolves partner rows in batches. The reference below is the paper's
//! loop written out plainly: ascending codes, every X1 × X2 pair with X2
//! from the scalar `occurrences`, one base at a time under the order rule.
//! The HSP vector and every `Step2Stats` counter must agree at one, two,
//! three and eight threads — for banks of a few hundred kbp, and for
//! 150-nt reads against the mapped sparse volumes of a database, where the
//! walk over the two top levels meets a few bitmap words per read and
//! nearly every partner lookup misses a cold table.

use oris_align::{ExtensionOutcome, OrderGuard, UngappedParams};
use oris_core::step2::{find_hsps, partition_codes, select_guard, Step2Stats};
use oris_core::{FilterKind, Hsp, OrisConfig, PreparedBank};
use oris_db::{make_db, Database, MakeDbOptions};
use oris_index::{BankIndex, IndexConfig, SeedCoder};
use oris_seqio::{Bank, BankBuilder, SENTINEL};

/// SplitMix64, enough randomness for test banks.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn base(&mut self) -> u8 {
        b"ACGT"[self.below(4) as usize]
    }

    fn random(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.base()).collect()
    }
}

const RECORDS: usize = 4;
const RECORD_LEN: usize = 55_000;
const READ_LEN: usize = 150;
/// Worker counts `find_hsps` runs at: inline, and more and fewer workers
/// than the machine has cores.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn bank_of(records: &[Vec<u8>]) -> Bank {
    let mut bb = BankBuilder::new();
    for (i, r) in records.iter().enumerate() {
        bb.push_str(&format!("r{i}"), std::str::from_utf8(r).unwrap())
            .unwrap();
    }
    bb.finish()
}

/// Bank 1: random records with a few low-complexity stretches and `N`s.
/// Bank 2: random records that also carry copies of bank-1 segments at
/// 2–12 % substitutions, so HSPs, aborts and long walks all occur.
fn banks(mix: &mut Mix) -> (Bank, Bank) {
    let mut recs1: Vec<Vec<u8>> = (0..RECORDS).map(|_| mix.random(RECORD_LEN)).collect();
    for rec in &mut recs1 {
        for _ in 0..6 {
            let at = mix.below((RECORD_LEN - 200) as u64) as usize;
            let period = 1 + mix.below(3) as usize;
            let unit = mix.random(period);
            for (i, c) in rec[at..at + 120].iter_mut().enumerate() {
                *c = unit[i % unit.len()];
            }
            rec[at + 150] = b'N';
        }
    }
    let mut recs2: Vec<Vec<u8>> = (0..RECORDS).map(|_| mix.random(RECORD_LEN)).collect();
    for rec in &mut recs2 {
        for _ in 0..40 {
            let src = &recs1[mix.below(RECORDS as u64) as usize];
            let len = 60 + mix.below(600) as usize;
            let from = mix.below((RECORD_LEN - len) as u64) as usize;
            let to = mix.below((RECORD_LEN - len) as u64) as usize;
            let rate = 2 + mix.below(11);
            for i in 0..len {
                rec[to + i] = if mix.below(100) < rate {
                    mix.base()
                } else {
                    src[from + i]
                };
            }
        }
    }
    (bank_of(&recs1), bank_of(&recs2))
}

/// The extension of one seed pair, one base at a time: X-drop on the
/// running score, and an order abort on any enumerated window of `W`
/// matches whose code is smaller (or, to the left, equal).
fn extend_bytes(
    d1: &[u8],
    d2: &[u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    params: &UngappedParams,
    guard: OrderGuard<'_>,
) -> ExtensionOutcome {
    let (w, s) = (params.w, params.scheme);
    let coder = SeedCoder::new(w);
    let enumerated = |q1: usize, q2: usize| match guard {
        OrderGuard::None => false,
        OrderGuard::OrderedFull => true,
        OrderGuard::OrderedIndexed { idx1, idx2 } => idx1.is_indexed(q1) && idx2.is_indexed(q2),
    };
    let seed = w as i32 * s.matsch;
    let mut sides = [(seed, 0usize); 2];
    for (right, side) in [false, true].into_iter().zip(&mut sides) {
        let (mut score, mut run) = (seed, w);
        let mut l = 0;
        while side.0 - score < params.xdrop {
            let (i1, i2) = if right {
                (p1 + w + l, p2 + w + l)
            } else if l < p1 && l < p2 {
                (p1 - 1 - l, p2 - 1 - l)
            } else {
                break;
            };
            let (Some(&c1), Some(&c2)) = (d1.get(i1), d2.get(i2)) else {
                break;
            };
            if c1 == SENTINEL || c2 == SENTINEL {
                break;
            }
            if !s.is_match(c1, c2) {
                score += s.mismatch;
                run = 0;
                l += 1;
                continue;
            }
            score += s.matsch;
            run += 1;
            l += 1;
            if score > side.0 {
                *side = (score, l);
            }
            if run >= w {
                let (q1, q2) = if right {
                    (i1 + 1 - w, i2 + 1 - w)
                } else {
                    (i1, i2)
                };
                let code = coder.encode(&d1[q1..q1 + w]).unwrap();
                let defers = if right {
                    code < start_code
                } else {
                    code <= start_code
                };
                if defers && enumerated(q1, q2) {
                    return ExtensionOutcome::Aborted;
                }
            }
        }
    }
    let [(left_best, left), (right_best, right)] = sides;
    ExtensionOutcome::Hsp {
        score: left_best + right_best - seed,
        left,
        right,
    }
}

/// Step 2 as the paper states it, over the reference walk.
fn reference_step2(
    b1: &Bank,
    i1: &BankIndex,
    b2: &Bank,
    i2: &BankIndex,
    cfg: &OrisConfig,
) -> (Vec<Hsp>, Step2Stats) {
    let params = UngappedParams {
        w: cfg.w,
        xdrop: cfg.xdrop_ungapped,
        scheme: cfg.scheme,
    };
    let guard = select_guard(i1, i2);
    let mut hsps = Vec::new();
    let mut st = Step2Stats::default();
    for (code, x1) in i1.populated() {
        for a in x1 {
            for b in i2.occurrences(code) {
                st.pairs_examined += 1;
                let (a_, b_) = (a as usize, b as usize);
                match extend_bytes(b1.data(), b2.data(), a_, b_, code, &params, guard) {
                    ExtensionOutcome::Aborted => st.aborted += 1,
                    ExtensionOutcome::Hsp { score, .. } if score < cfg.min_hsp_score => {
                        st.below_threshold += 1
                    }
                    ExtensionOutcome::Hsp { score, left, right } => {
                        st.kept += 1;
                        hsps.push(Hsp {
                            start1: a - left as u32,
                            start2: b - left as u32,
                            len: (left + cfg.w + right) as u32,
                            score,
                        });
                    }
                }
            }
        }
    }
    hsps.sort_by(Hsp::diag_order);
    (hsps, st)
}

#[test]
fn word_walk_steps_2_like_the_byte_walk_at_one_and_two_threads() {
    let (b1, b2) = banks(&mut Mix(0x5EED));
    assert!(b1.data().len() >= 200_000 && b2.data().len() >= 200_000);
    let cfg = OrisConfig {
        filter: FilterKind::Entropy,
        ..OrisConfig::small(10)
    };
    let icfg = IndexConfig::full(cfg.w);
    let (p1, p2) = (
        PreparedBank::prepare(&b1, cfg.filter, icfg),
        PreparedBank::prepare(&b2, cfg.filter, icfg),
    );
    let (i1, i2) = (p1.index(), p2.index());
    assert!(matches!(
        select_guard(i1, i2),
        OrderGuard::OrderedIndexed { .. }
    ));

    let (want, want_stats) = reference_step2(&b1, i1, &b2, i2, &cfg);
    // Enough work for two threads to split the code space, so the ranges
    // really are dispatched to workers, and every outcome represented.
    assert!(want_stats.pairs_examined > 2 * 16_384, "{want_stats:?}");
    assert!(partition_codes(i1, i2, 32).len() > 1);
    assert!(want_stats.aborted > 0 && want_stats.below_threshold > 0 && want_stats.kept > 100);
    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (got, got_stats) = pool.install(|| find_hsps(&b1, i1, &b2, i2, &cfg));
        assert_eq!(got_stats, want_stats, "-t {threads}");
        assert!(got == want, "-t {threads}: HSP vectors differ");
    }
}

#[test]
fn short_reads_step_2_like_the_reference_against_mapped_sparse_volumes() {
    let mut mix = Mix(0x0DB5_EED5);
    let cfg = OrisConfig::default();
    let subject: Vec<Vec<u8>> = (0..12).map(|_| mix.random(15_000)).collect();
    let dir = std::env::temp_dir()
        .join("oris_step2_short_reads")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    make_db([bank_of(&subject)], &dir, &MakeDbOptions::new(&cfg, 60_000)).unwrap();
    let db = Database::open(&dir).unwrap();
    assert!(db.num_volumes() >= 3, "{} volumes", db.num_volumes());
    let volumes: Vec<PreparedBank<'static>> = (0..db.num_volumes())
        .map(|v| db.attach_volume(v).unwrap())
        .collect();
    // Each ~60 000-position volume populates a sliver of the 4^11 codes,
    // about one per bitmap word it stores.
    for v in &volumes {
        assert!(v.index().distinct_codes() < 65_536);
        assert!(v.index().is_mmap_backed());
    }

    // Three reads in four copy a stretch of the first volume at 0–4 %
    // substitutions; the rest are random, so most of their lookups miss.
    let first = volumes[0].bank();
    let reads: Vec<Vec<u8>> = (0..480)
        .map(|i| {
            if i % 4 == 3 {
                return mix.random(READ_LEN);
            }
            let seq = first.sequence_string(mix.below(first.num_sequences() as u64) as usize);
            let from = mix.below((seq.len() - READ_LEN) as u64) as usize;
            let rate = mix.below(5);
            seq.as_bytes()[from..from + READ_LEN]
                .iter()
                .map(|&c| if mix.below(100) < rate { mix.base() } else { c })
                .collect()
        })
        .collect();
    let read_banks: Vec<Bank> = reads
        .iter()
        .map(|r| bank_of(std::slice::from_ref(r)))
        .collect();
    let all_reads = bank_of(&reads);

    // Each read as a query, then the whole read set as one.
    let prepare = |b| PreparedBank::prepare(b, cfg.filter, cfg.query_index_config());
    let mut queries: Vec<PreparedBank<'_>> = read_banks.iter().map(prepare).collect();
    queries.push(prepare(&all_reads));

    let mut want = Vec::new();
    let mut total = Step2Stats::default();
    for q in &queries {
        for v in &volumes {
            assert!(q.index().distinct_codes() <= v.index().distinct_codes());
            let r = reference_step2(q.bank(), q.index(), v.bank(), v.index(), &cfg);
            total = total.merge(r.1);
            want.push(r);
        }
    }
    let whole_vs_first = &want[read_banks.len() * volumes.len()].1;
    // Enough pairs for two threads to split the code space, and every
    // outcome represented.
    assert!(
        whole_vs_first.pairs_examined > 2 * 16_384,
        "{whole_vs_first:?}"
    );
    let whole = &queries[read_banks.len()];
    assert!(partition_codes(whole.index(), volumes[0].index(), 32).len() > 1);
    assert!(total.aborted > 0 && total.below_threshold > 0 && total.kept > 100);

    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut want = want.iter();
        for (qi, q) in queries.iter().enumerate() {
            for (vi, v) in volumes.iter().enumerate() {
                let got =
                    pool.install(|| find_hsps(q.bank(), q.index(), v.bank(), v.index(), &cfg));
                let (hsps, stats) = want.next().unwrap();
                assert_eq!(&got.1, stats, "-t {threads}, query {qi}, volume {vi}");
                assert!(
                    &got.0 == hsps,
                    "-t {threads}, query {qi}, volume {vi}: HSP vectors differ"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
