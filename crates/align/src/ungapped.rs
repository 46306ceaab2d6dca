//! Hit extension with the ordered-seed abort rule (paper section 2.2).
//!
//! Given a seed hit — the same W-mer at position `p1` of bank 1 and `p2` of
//! bank 2 — the extension walks left and right computing the running score
//! of the ungapped alignment through the seed, keeping the maximum, and
//! stopping when the score drops `xdrop` below the maximum (the classical
//! X-drop rule of BLAST).
//!
//! The ORIS twist is the **order guard**. While extending, a run counter
//! `L` tracks consecutive both-sequence matches; every time `L ≥ W`, the W
//! matching characters form *another* seed hit inside the same HSP. Seeds
//! are enumerated globally in increasing `codeSEED` order, so:
//!
//! * if a hit with a **strictly smaller** code exists inside the HSP, that
//!   seed already generated (or will generate) this HSP — abort;
//! * among equal-code hits, the **leftmost** is canonical: the left walk
//!   aborts on `code ≤ start_code`, the right walk only on
//!   `code < start_code`.
//!
//! The result: each HSP is emitted exactly once, by the leftmost occurrence
//! of its smallest contained seed, with no duplicate-suppression data
//! structure. Our property tests verify that invariant against a
//! brute-force generator (see `tests/` and the core crate).
//!
//! # Guard shapes — the fast path and the indexed probe
//!
//! A candidate may only abort the extension if the global enumeration will
//! actually *visit* it, i.e. if its position is indexed on both banks. The
//! [`OrderGuard`] variants are the three ways that question is answered:
//!
//! * [`OrderGuard::None`] — no rule at all: the plain BLAST-style X-drop
//!   extension of the BLASTN baseline and the A1 ablation.
//! * [`OrderGuard::OrderedFull`] — **the fast path.** When both banks are
//!   fully indexed (`BankIndex::is_fully_indexed`), every probe would
//!   answer "yes": a candidate is only considered after a run of `W`
//!   matching nucleotides, which already proves its window is valid, and
//!   with no masking or stride every valid window is enumerated. The
//!   guard therefore does *no memory access at all*.
//! * [`OrderGuard::OrderedIndexed`] — for masked or asymmetric indexes,
//!   the literal statement of the rule: two `BankIndex::is_indexed`
//!   bit-set probes per candidate, one per bank. The probes sit last in
//!   the abort condition's short-circuit, so walk steps without a
//!   smaller-code candidate never touch the bit-sets.
//!
//! Each shape is monomorphized through the private `GuardWalk` trait: the
//! extension loops compile once per shape with the guard logic inlined,
//! so [`OrderGuard::None`] and the fast path pay nothing for the probes.
//!
//! The rolling seed code is maintained over bank-1 characters only (codes
//! identify bank-1 windows; a *hit* additionally requires the run of
//! matches, which implies bank 2 agrees). Non-nucleotide bytes (ambiguous
//! bases) cannot be rolled; they also never match, so the run counter
//! resets and by the time `L` reaches `W` again the code has been fully
//! refreshed by `W` valid rolls — staleness is unobservable.

use oris_index::{BankIndex, SeedCoder};
use oris_seqio::alphabet::SENTINEL;

use crate::scoring::ScoringScheme;

/// Whether — and against which seed universe — the ordered-seed abort
/// rule is active.
///
/// The rule may only defer to a seed the global enumeration will actually
/// visit. When the banks are indexed with exclusions (low-complexity
/// masking discards words from the index, asymmetric sampling skips every
/// other bank-2 window), a smaller-code window that was excluded can
/// never own an HSP; aborting in its favour would silently lose the HSP.
/// [`OrderGuard::OrderedIndexed`] therefore consults both indexes'
/// occurrence bit-sets before aborting; [`OrderGuard::OrderedFull`] is the
/// probe-free fast path when every valid window is known to be indexed
/// (`BankIndex::is_fully_indexed` on both banks).
///
/// [`OrderGuard::None`] turns the extension into a plain BLAST-style
/// ungapped X-drop extension — used by the BLASTN baseline and by the A1
/// ablation (duplicate suppression via hashing instead of ordering).
#[derive(Debug, Clone, Copy)]
pub enum OrderGuard<'a> {
    /// No order checks; every hit extends fully.
    None,
    /// ORIS rule assuming full indexing on both banks: every candidate
    /// seed window is enumerated, so any smaller code aborts — no bit-set
    /// access at all.
    OrderedFull,
    /// ORIS rule under index exclusions: a candidate aborts the extension
    /// only if **both** banks index an occurrence at its position.
    OrderedIndexed {
        /// Bank-1 index (masking exclusions).
        idx1: &'a BankIndex,
        /// Bank-2 index (masking and stride exclusions).
        idx2: &'a BankIndex,
    },
}

/// Monomorphized per-walk guard behaviour. One implementation per
/// [`OrderGuard`] shape, so the extension loops inline the guard logic
/// with zero dispatch.
///
/// `enumerated` is the *only* hook: it is called lazily, inside the abort
/// condition's short-circuit (`run ≥ W` and the code comparison hold), so
/// a guard pays nothing on the overwhelming majority of walk steps where
/// no candidate seed exists.
trait GuardWalk: Copy {
    /// Compile-time: is the ordering rule active? When `false` the
    /// rolling seed code and the abort condition vanish from the
    /// compiled loop.
    const ORDERED: bool;
    /// Whether the candidate windows at `(pos1, pos2)` — the walk's
    /// current positions — are enumerated by the global seed loop.
    fn enumerated(&self, pos1: usize, pos2: usize) -> bool;
}

/// [`OrderGuard::None`]: no rule, nothing tracked.
#[derive(Clone, Copy)]
struct NoWalk;

impl GuardWalk for NoWalk {
    const ORDERED: bool = false;
    #[inline]
    fn enumerated(&self, _: usize, _: usize) -> bool {
        false
    }
}

/// [`OrderGuard::OrderedFull`]: every candidate is enumerated.
#[derive(Clone, Copy)]
struct FullWalk;

impl GuardWalk for FullWalk {
    const ORDERED: bool = true;
    #[inline]
    fn enumerated(&self, _: usize, _: usize) -> bool {
        true
    }
}

/// [`OrderGuard::OrderedIndexed`]: one `is_indexed` probe per bank.
#[derive(Clone, Copy)]
struct IndexedWalk<'a> {
    idx1: &'a BankIndex,
    idx2: &'a BankIndex,
}

impl GuardWalk for IndexedWalk<'_> {
    const ORDERED: bool = true;
    #[inline]
    fn enumerated(&self, pos1: usize, pos2: usize) -> bool {
        self.idx1.is_indexed(pos1) && self.idx2.is_indexed(pos2)
    }
}

/// Parameters of the ungapped extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedParams {
    /// Seed length `W`.
    pub w: usize,
    /// X-drop threshold (positive). Extension stops when the running score
    /// falls `xdrop` below the best score seen.
    pub xdrop: i32,
    /// Scoring scheme.
    pub scheme: ScoringScheme,
}

impl UngappedParams {
    /// Paper-flavoured defaults for a given seed length: X-drop 20 with the
    /// BLASTN scheme.
    pub fn new(w: usize) -> UngappedParams {
        UngappedParams {
            w,
            xdrop: 20,
            scheme: ScoringScheme::blastn(),
        }
    }
}

/// Result of extending one seed hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionOutcome {
    /// The order guard fired: this HSP belongs to a different seed.
    Aborted,
    /// The extension completed; the HSP extent is reported.
    Hsp {
        /// Total ungapped score, seed included.
        score: i32,
        /// Residues included to the left of the seed start.
        left: usize,
        /// Residues included to the right of the seed end.
        right: usize,
    },
}

/// Extends the seed hit `(p1, p2)` of width `params.w` in both directions.
///
/// `d1` and `d2` are bank code arrays (sentinel-framed: extensions stop at
/// sentinels and at array bounds). `start_code` must be the seed code of
/// `d1[p1..p1+w]` (equal to that of `d2[p2..p2+w]` by definition of a hit).
///
/// The guard shape is resolved here, once per call, into a monomorphized
/// pair of walks.
pub fn extend_hit(
    d1: &[u8],
    d2: &[u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    coder: SeedCoder,
    params: &UngappedParams,
    guard: OrderGuard<'_>,
) -> ExtensionOutcome {
    debug_assert_eq!(coder.w(), params.w);
    debug_assert_eq!(
        coder.encode(&d1[p1..p1 + params.w]),
        Some(start_code),
        "start_code does not match the window at p1"
    );

    match guard {
        OrderGuard::None => extend_walks(d1, d2, p1, p2, start_code, coder, params, NoWalk),
        OrderGuard::OrderedFull => {
            extend_walks(d1, d2, p1, p2, start_code, coder, params, FullWalk)
        }
        OrderGuard::OrderedIndexed { idx1, idx2 } => extend_walks(
            d1,
            d2,
            p1,
            p2,
            start_code,
            coder,
            params,
            IndexedWalk { idx1, idx2 },
        ),
    }
}

/// Shared body: runs both direction walks under one monomorphized guard
/// shape and assembles the outcome.
fn extend_walks<G: GuardWalk>(
    d1: &[u8],
    d2: &[u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    coder: SeedCoder,
    params: &UngappedParams,
    walk: G,
) -> ExtensionOutcome {
    let (left_best, left_off) = match extend_left(d1, d2, p1, p2, start_code, coder, params, walk) {
        Some(r) => r,
        None => return ExtensionOutcome::Aborted,
    };
    let (right_best, right_off) =
        match extend_right(d1, d2, p1, p2, start_code, coder, params, walk) {
            Some(r) => r,
            None => return ExtensionOutcome::Aborted,
        };

    let seed_score = params.w as i32 * params.scheme.matsch;
    ExtensionOutcome::Hsp {
        score: left_best + right_best - seed_score,
        left: left_off,
        right: right_off,
    }
}

/// Left walk. Returns `(best_score_including_seed, residues_left_of_seed)`
/// or `None` on an order abort.
fn extend_left<W: GuardWalk>(
    d1: &[u8],
    d2: &[u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    coder: SeedCoder,
    params: &UngappedParams,
    walk: W,
) -> Option<(i32, usize)> {
    let scheme = &params.scheme;
    let w = params.w;
    let seed_score = w as i32 * scheme.matsch;
    let mut score = seed_score;
    let mut best = seed_score;
    let mut best_off = 0usize;
    let mut run = w; // consecutive matches from the current left edge
    let mut code = start_code;

    let mut l = 0usize;
    while best - score < params.xdrop {
        if p1 < l + 1 || p2 < l + 1 {
            break;
        }
        let c1 = d1[p1 - 1 - l];
        let c2 = d2[p2 - 1 - l];
        if c1 == SENTINEL || c2 == SENTINEL {
            break;
        }
        if W::ORDERED && c1 < 4 {
            code = coder.roll_left(code, c1);
        }
        if scheme.is_match(c1, c2) {
            score += scheme.matsch;
            run += 1;
            if score > best {
                best = score;
                best_off = l + 1;
            }
            // A window of W matches starting at the current position is a
            // hit; the leftmost-minimal-code *enumerated* seed owns the
            // HSP, so an equal-or-smaller code to the left means we are
            // not it. Windows skipped by masking or asymmetric sampling
            // cannot own anything.
            if W::ORDERED
                && run >= w
                && code <= start_code
                && walk.enumerated(p1 - 1 - l, p2 - 1 - l)
            {
                return None;
            }
        } else {
            score += scheme.mismatch;
            run = 0;
        }
        l += 1;
    }
    Some((best, best_off))
}

/// Right walk. Returns `(best_score_including_seed, residues_right_of_seed)`
/// or `None` on an order abort.
fn extend_right<W: GuardWalk>(
    d1: &[u8],
    d2: &[u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    coder: SeedCoder,
    params: &UngappedParams,
    walk: W,
) -> Option<(i32, usize)> {
    let scheme = &params.scheme;
    let w = params.w;
    let seed_score = w as i32 * scheme.matsch;
    let mut score = seed_score;
    let mut best = seed_score;
    let mut best_off = 0usize;
    let mut run = w;
    let mut code = start_code;

    let mut l = 0usize;
    while best - score < params.xdrop {
        let i1 = p1 + w + l;
        let i2 = p2 + w + l;
        if i1 >= d1.len() || i2 >= d2.len() {
            break;
        }
        let c1 = d1[i1];
        let c2 = d2[i2];
        if c1 == SENTINEL || c2 == SENTINEL {
            break;
        }
        if W::ORDERED && c1 < 4 {
            code = coder.roll_right(code, c1);
        }
        if scheme.is_match(c1, c2) {
            score += scheme.matsch;
            run += 1;
            if score > best {
                best = score;
                best_off = l + 1;
            }
            // The window of W matches *ending* here starts right of the
            // originating seed; a strictly smaller *enumerated* code owns
            // the HSP. Equal codes do not abort: the leftmost equal seed
            // (us) is canonical.
            if W::ORDERED
                && run >= w
                && code < start_code
                && walk.enumerated(p1 + l + 1, p2 + l + 1)
            {
                return None;
            }
        } else {
            score += scheme.mismatch;
            run = 0;
        }
        l += 1;
    }
    Some((best, best_off))
}

/// Rescoring helper: total ungapped score of aligning `d1[a1..a1+len]`
/// against `d2[a2..a2+len]`, plus the number of identical pairs.
pub fn ungapped_score(
    d1: &[u8],
    d2: &[u8],
    a1: usize,
    a2: usize,
    len: usize,
    scheme: &ScoringScheme,
) -> (i32, usize) {
    let mut score = 0i32;
    let mut matches = 0usize;
    for i in 0..len {
        if scheme.is_match(d1[a1 + i], d2[a2 + i]) {
            score += scheme.matsch;
            matches += 1;
        } else {
            score += scheme.mismatch;
        }
    }
    (score, matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::nuc_from_char;
    use proptest::prelude::*;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes().map(nuc_from_char).collect()
    }

    /// Frame a code slice with sentinels, returning (data, offset_shift).
    fn framed(s: &str) -> Vec<u8> {
        let mut v = vec![SENTINEL];
        v.extend(codes(s));
        v.push(SENTINEL);
        v
    }

    fn params(w: usize, xdrop: i32) -> UngappedParams {
        UngappedParams {
            w,
            xdrop,
            scheme: ScoringScheme::blastn(),
        }
    }

    /// Find the seed position of `word` in framed data.
    fn find(d: &[u8], word: &[u8]) -> usize {
        d.windows(word.len()).position(|w| w == word).unwrap()
    }

    #[test]
    fn perfect_match_extends_fully() {
        let d1 = framed("TTTTACGTACGTTTTT");
        let d2 = d1.clone();
        let coder = SeedCoder::new(4);
        let word = codes("ACGT");
        let p = find(&d1, &word);
        let code = coder.encode(&word).unwrap();
        let out = extend_hit(
            &d1,
            &d2,
            p,
            p,
            code,
            coder,
            &params(4, 20),
            OrderGuard::None,
        );
        match out {
            ExtensionOutcome::Hsp { score, left, right } => {
                assert_eq!(score, 16); // whole 16-nt sequence matches
                assert_eq!(left, p - 1);
                assert_eq!(right, d1.len() - 1 - (p + 4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stops_at_sentinel() {
        let d1 = framed("ACGT");
        let d2 = framed("ACGT");
        let coder = SeedCoder::new(4);
        let code = coder.encode(&codes("ACGT")).unwrap();
        let out = extend_hit(
            &d1,
            &d2,
            1,
            1,
            code,
            coder,
            &params(4, 20),
            OrderGuard::None,
        );
        assert_eq!(
            out,
            ExtensionOutcome::Hsp {
                score: 4,
                left: 0,
                right: 0
            }
        );
    }

    #[test]
    fn xdrop_terminates_extension() {
        // seed then a long mismatch desert then a big match region: with a
        // small xdrop the extension must not reach the far region.
        let left = "ACGTACGTACGT";
        let d1 = framed(&format!("{left}GGGG{}", "ACGTACGTACGTACGTACGTACGT"));
        let d2 = framed(&format!("{left}CCCC{}", "ACGTACGTACGTACGTACGTACGT"));
        let coder = SeedCoder::new(4);
        let code = coder.encode(&codes("ACGT")).unwrap();
        // seed at start of the shared left block (position 1)
        let out = extend_hit(&d1, &d2, 1, 1, code, coder, &params(4, 5), OrderGuard::None);
        match out {
            ExtensionOutcome::Hsp { right, .. } => {
                // right extension covers the remaining 8 matching chars of
                // `left` then hits the 4-mismatch desert: 4 * -3 = -12 < -5
                // so it stops inside the desert; the far region is not
                // reached (which would have made right ≥ 12+24).
                assert!(right <= 8 + 2, "right = {right}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ordered_guard_aborts_on_smaller_seed_left() {
        // "AAAA" (code 0, minimal) sits left of "CCCC" inside one perfect
        // HSP: extension from CCCC must abort.
        let s = "TTGGAAAACCCCGGTT";
        let d1 = framed(s);
        let d2 = d1.clone();
        let coder = SeedCoder::new(4);
        let cccc = coder.encode(&codes("CCCC")).unwrap();
        let p = find(&d1, &codes("CCCC"));
        let out = extend_hit(
            &d1,
            &d2,
            p,
            p,
            cccc,
            coder,
            &params(4, 50),
            OrderGuard::OrderedFull,
        );
        assert_eq!(out, ExtensionOutcome::Aborted);
    }

    #[test]
    fn ordered_guard_aborts_on_smaller_seed_right() {
        let s = "TTGGCCCCAAAAGGTT";
        let d1 = framed(s);
        let d2 = d1.clone();
        let coder = SeedCoder::new(4);
        let cccc = coder.encode(&codes("CCCC")).unwrap();
        let p = find(&d1, &codes("CCCC"));
        let out = extend_hit(
            &d1,
            &d2,
            p,
            p,
            cccc,
            coder,
            &params(4, 50),
            OrderGuard::OrderedFull,
        );
        assert_eq!(out, ExtensionOutcome::Aborted);
    }

    #[test]
    fn minimal_seed_survives() {
        // From the smallest seed (AAAA here) the extension must complete.
        let s = "TTGGAAAACCCCGGTT";
        let d1 = framed(s);
        let d2 = d1.clone();
        let coder = SeedCoder::new(4);
        let aaaa = coder.encode(&codes("AAAA")).unwrap();
        let p = find(&d1, &codes("AAAA"));
        let out = extend_hit(
            &d1,
            &d2,
            p,
            p,
            aaaa,
            coder,
            &params(4, 50),
            OrderGuard::OrderedFull,
        );
        assert!(matches!(out, ExtensionOutcome::Hsp { .. }), "{out:?}");
    }

    #[test]
    fn equal_code_leftmost_is_canonical() {
        // Two occurrences of the same minimal word (AAAA, code 0) inside
        // one HSP: the leftmost completes, the rightmost aborts (the left
        // rule uses ≤, the right rule uses <).
        let s = "TTAAAATTAAAATT";
        let d1 = framed(s);
        let d2 = d1.clone();
        let coder = SeedCoder::new(4);
        let aaaa = coder.encode(&codes("AAAA")).unwrap();
        let first = 3; // framed position of s[2..6]
        let second = 9; // framed position of s[8..12]
        assert_eq!(&d1[first..first + 4], codes("AAAA").as_slice());
        assert_eq!(&d1[second..second + 4], codes("AAAA").as_slice());
        let a = extend_hit(
            &d1,
            &d2,
            first,
            first,
            aaaa,
            coder,
            &params(4, 100),
            OrderGuard::OrderedFull,
        );
        let b = extend_hit(
            &d1,
            &d2,
            second,
            second,
            aaaa,
            coder,
            &params(4, 100),
            OrderGuard::OrderedFull,
        );
        assert!(matches!(a, ExtensionOutcome::Hsp { .. }), "{a:?}");
        assert_eq!(b, ExtensionOutcome::Aborted);
    }

    #[test]
    fn example_from_paper_generates_hsp_exactly_once() {
        // The paper's section-2.2 example: one ungapped alignment anchored
        // by both AACTGTAA and AATTGCTC (and several other 8-mers). With
        // the order guard, exactly ONE of all in-HSP seeds completes.
        let s1 = "ATATGATGTGCAACTGTAATTGCTCAGATTCTATG";
        let s2 = "ATATGATGTGCAACTGTAATTGCTCAGGTTCTCTG";
        let d1 = framed(s1);
        let d2 = framed(s2);
        let w = 8usize;
        let coder = SeedCoder::new(w);
        let mut completed = 0usize;
        let mut aborted = 0usize;
        for p in 1..d1.len() - w {
            if d1[p..p + w] != d2[p..p + w] {
                continue; // not a hit on the main diagonal
            }
            let Some(code) = coder.encode(&d1[p..p + w]) else {
                continue;
            };
            match extend_hit(
                &d1,
                &d2,
                p,
                p,
                code,
                coder,
                &params(8, 1000),
                OrderGuard::OrderedFull,
            ) {
                ExtensionOutcome::Hsp { .. } => completed += 1,
                ExtensionOutcome::Aborted => aborted += 1,
            }
        }
        // The common prefix is 27 nt: 20 hit seeds, one canonical.
        assert_eq!(completed, 1, "exactly one seed owns the HSP");
        assert!(aborted >= 19, "the other seeds abort (got {aborted})");
    }

    #[test]
    fn guard_ignores_seeds_broken_by_mismatch() {
        // d1 contains AAAA (code 0 — would trump the CCCC seed), but it is
        // fully mismatched on d2, so it is not a *hit* and must not abort
        // the extension. Every genuine hit window here has a code larger
        // than CCCC's (85).
        let s1 = "TTGTAAAAGTTCCCCTGT";
        let s2 = "TTGTGGGGGTTCCCCTGT";
        let d1 = framed(s1);
        let d2 = framed(s2);
        let coder = SeedCoder::new(4);
        let cccc = coder.encode(&codes("CCCC")).unwrap();
        let p1 = find(&d1, &codes("CCCC"));
        let p2 = find(&d2, &codes("CCCC"));
        assert_eq!(p1, p2);
        let out = extend_hit(
            &d1,
            &d2,
            p1,
            p2,
            cccc,
            coder,
            &params(4, 50),
            OrderGuard::OrderedFull,
        );
        assert!(matches!(out, ExtensionOutcome::Hsp { .. }), "{out:?}");
    }

    /// The `TTGG AAAA CCCC GGTT` fixture (or its mirror) as a one-record
    /// bank compared with itself; returns the bank, the position of
    /// `word` in it and `word`'s seed code.
    fn fixture(s: &str, word: &str) -> (oris_seqio::Bank, usize, u32) {
        let mut bb = oris_seqio::BankBuilder::new();
        bb.push_str("s", s).unwrap();
        let bank = bb.finish();
        assert_eq!(bank.data(), framed(s).as_slice());
        let p = find(bank.data(), &codes(word));
        let code = SeedCoder::new(4).encode(&codes(word)).unwrap();
        (bank, p, code)
    }

    /// Extends the main-diagonal hit at `p` of `bank` against itself.
    fn extend_self(
        bank: &oris_seqio::Bank,
        p: usize,
        code: u32,
        guard: OrderGuard<'_>,
    ) -> ExtensionOutcome {
        let d = bank.data();
        extend_hit(d, d, p, p, code, SeedCoder::new(4), &params(4, 50), guard)
    }

    /// Bank-1 index of `bank` with every window on the `left` (or right)
    /// side of `p` whose code is below `code` masked away.
    fn smaller_codes_masked(bank: &oris_seqio::Bank, p: usize, code: u32, left: bool) -> BankIndex {
        use oris_index::IndexConfig;
        let coder = SeedCoder::new(4);
        let d = bank.data();
        BankIndex::build_filtered(bank, IndexConfig::full(4), |q| {
            (if left { q < p } else { q > p })
                && d.get(q..q + 4)
                    .and_then(|win| coder.encode(win))
                    .is_some_and(|c| c < code)
        })
    }

    #[test]
    fn indexed_guard_ignores_masked_smaller_seeds_left() {
        // Seven windows left of CCCC in this perfect HSP (TGGA … ACCC,
        // AAAA among them) have smaller codes. Masked out of bank 1's
        // index they are never enumerated, so CCCC owns the HSP: the
        // extension completes with the unguarded extent, where the
        // full-index rule would abort.
        use oris_index::IndexConfig;
        let (bank, p, cccc) = fixture("TTGGAAAACCCCGGTT", "CCCC");
        let i1 = smaller_codes_masked(&bank, p, cccc, true);
        let i2 = BankIndex::build(&bank, IndexConfig::full(4));
        assert!(!i1.is_fully_indexed() && i1.is_indexed(p));
        let indexed = OrderGuard::OrderedIndexed {
            idx1: &i1,
            idx2: &i2,
        };
        let unguarded = extend_self(&bank, p, cccc, OrderGuard::None);
        assert!(matches!(unguarded, ExtensionOutcome::Hsp { score: 16, .. }));
        assert_eq!(extend_self(&bank, p, cccc, indexed), unguarded);
        assert_eq!(
            extend_self(&bank, p, cccc, OrderGuard::OrderedFull),
            ExtensionOutcome::Aborted
        );
    }

    #[test]
    fn indexed_guard_ignores_masked_smaller_seeds_right() {
        // Mirror case: the smaller codes (CCCA, CCAA, CAAA, AAAA) sit
        // right of CCCC.
        use oris_index::IndexConfig;
        let (bank, p, cccc) = fixture("TTGGCCCCAAAAGGTT", "CCCC");
        let i1 = smaller_codes_masked(&bank, p, cccc, false);
        let i2 = BankIndex::build(&bank, IndexConfig::full(4));
        assert!(!i1.is_fully_indexed() && i1.is_indexed(p));
        let indexed = OrderGuard::OrderedIndexed {
            idx1: &i1,
            idx2: &i2,
        };
        let unguarded = extend_self(&bank, p, cccc, OrderGuard::None);
        assert!(matches!(unguarded, ExtensionOutcome::Hsp { score: 16, .. }));
        assert_eq!(extend_self(&bank, p, cccc, indexed), unguarded);
        assert_eq!(
            extend_self(&bank, p, cccc, OrderGuard::OrderedFull),
            ExtensionOutcome::Aborted
        );
    }

    #[test]
    fn indexed_guard_ignores_seed_skipped_by_stride_on_bank2() {
        // From GAAA (code 3) the only smaller code in the HSP is AAAA,
        // one position to the right. Bank 1 indexes everything; bank 2 is
        // sampled at stride 2, which keeps GAAA's (even) position and
        // skips AAAA's, so the (AAAA, AAAA) pair is never enumerated and
        // must not abort the extension.
        use oris_index::IndexConfig;
        let (bank, p, gaaa) = fixture("TTGGAAAACCCCGGTT", "GAAA");
        let i1 = BankIndex::build(&bank, IndexConfig::full(4));
        let i2 = BankIndex::build(&bank, IndexConfig::asymmetric(4));
        assert!(i1.is_fully_indexed() && i1.is_indexed(p + 1));
        assert!(i2.is_indexed(p) && !i2.is_indexed(p + 1));
        let indexed = OrderGuard::OrderedIndexed {
            idx1: &i1,
            idx2: &i2,
        };
        let unguarded = extend_self(&bank, p, gaaa, OrderGuard::None);
        assert!(matches!(unguarded, ExtensionOutcome::Hsp { score: 16, .. }));
        assert_eq!(extend_self(&bank, p, gaaa, indexed), unguarded);
        assert_eq!(
            extend_self(&bank, p, gaaa, OrderGuard::OrderedFull),
            ExtensionOutcome::Aborted
        );
    }

    #[test]
    fn indexed_guard_aborts_like_full_when_nothing_is_excluded() {
        use oris_index::IndexConfig;
        for s in ["TTGGAAAACCCCGGTT", "TTGGCCCCAAAAGGTT"] {
            let (bank, p, cccc) = fixture(s, "CCCC");
            let idx = BankIndex::build(&bank, IndexConfig::full(4));
            let indexed = OrderGuard::OrderedIndexed {
                idx1: &idx,
                idx2: &idx,
            };
            assert_eq!(
                extend_self(&bank, p, cccc, indexed),
                ExtensionOutcome::Aborted
            );
            // …and from the minimal seed both complete identically.
            let (_, pa, aaaa) = fixture(s, "AAAA");
            let full = extend_self(&bank, pa, aaaa, OrderGuard::OrderedFull);
            assert!(matches!(full, ExtensionOutcome::Hsp { .. }), "{full:?}");
            assert_eq!(extend_self(&bank, pa, aaaa, indexed), full);
        }
    }

    #[test]
    fn ungapped_score_counts_matches() {
        let d1 = codes("ACGTACGT");
        let d2 = codes("ACGAACGT");
        let (score, matches) = ungapped_score(&d1, &d2, 0, 0, 8, &ScoringScheme::blastn());
        assert_eq!(matches, 7);
        assert_eq!(score, 7 - 3);
    }

    /// Brute force: best ungapped extension through the seed with unlimited
    /// xdrop equals max over prefixes/suffixes.
    fn brute_best(
        d1: &[u8],
        d2: &[u8],
        p1: usize,
        p2: usize,
        w: usize,
        scheme: &ScoringScheme,
    ) -> i32 {
        let seed = w as i32 * scheme.matsch;
        // left prefix scores
        let mut best_left = 0;
        let mut acc = 0;
        let mut l = 1;
        while p1 >= l && p2 >= l {
            let (c1, c2) = (d1[p1 - l], d2[p2 - l]);
            if c1 == SENTINEL || c2 == SENTINEL {
                break;
            }
            acc += scheme.pair(c1, c2);
            best_left = best_left.max(acc);
            l += 1;
        }
        let mut best_right = 0;
        let mut acc = 0;
        let mut r = 0;
        while p1 + w + r < d1.len() && p2 + w + r < d2.len() {
            let (c1, c2) = (d1[p1 + w + r], d2[p2 + w + r]);
            if c1 == SENTINEL || c2 == SENTINEL {
                break;
            }
            acc += scheme.pair(c1, c2);
            best_right = best_right.max(acc);
            r += 1;
        }
        seed + best_left + best_right
    }

    proptest! {
        /// With a saturating X-drop and no order guard, the extension score
        /// equals the brute-force optimum of the through-seed ungapped
        /// alignment.
        #[test]
        fn unguarded_extension_is_optimal(
            s1 in "[ACGT]{20,60}",
            s2 in "[ACGT]{20,60}",
            off in 0usize..10,
        ) {
            let w = 4usize;
            // Plant a common seed so a hit exists.
            let mut a = s1.clone();
            let mut b = s2.clone();
            let seedword = "ACGT";
            let ia = 5 + off.min(a.len().saturating_sub(10));
            let ib = 5;
            a.replace_range(ia..ia + w, seedword);
            b.replace_range(ib..ib + w, seedword);
            let d1 = framed(&a);
            let d2 = framed(&b);
            let coder = SeedCoder::new(w);
            let code = coder.encode(&codes(seedword)).unwrap();
            let p1 = ia + 1; // +1 for the framing sentinel
            let p2 = ib + 1;
            let pars = UngappedParams { w, xdrop: i32::MAX / 4, scheme: ScoringScheme::blastn() };
            match extend_hit(&d1, &d2, p1, p2, code, coder, &pars, OrderGuard::None) {
                ExtensionOutcome::Hsp { score, .. } => {
                    let expect = brute_best(&d1, &d2, p1, p2, w, &pars.scheme);
                    prop_assert_eq!(score, expect);
                }
                ExtensionOutcome::Aborted => prop_assert!(false, "unguarded extension aborted"),
            }
        }

        /// The reported extent re-scores to the reported score.
        #[test]
        fn extent_rescoring_consistent(s in "[ACGT]{30,80}") {
            let w = 5usize;
            let d1 = framed(&s);
            let d2 = d1.clone();
            let coder = SeedCoder::new(w);
            let p = 1 + s.len() / 3;
            if let Some(code) = coder.encode(&d1[p..p + w]) {
                let pars = UngappedParams { w, xdrop: 12, scheme: ScoringScheme::blastn() };
                if let ExtensionOutcome::Hsp { score, left, right } =
                    extend_hit(&d1, &d2, p, p, code, coder, &pars, OrderGuard::None)
                {
                    let start = p - left;
                    let len = left + w + right;
                    let (rescore, _) = ungapped_score(&d1, &d2, start, start, len, &pars.scheme);
                    prop_assert_eq!(rescore, score);
                }
            }
        }
    }
}
