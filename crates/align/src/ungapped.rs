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
//!
//! # Word-wide walk
//!
//! A byte-at-a-time walk spends ~9 cycles per base on its sentinel test,
//! bounds test, roll and branches, and a random flank runs ~10 bases a
//! side before the X-drop ends it. The production walk therefore moves
//! eight bases per step:
//!
//! * **Load.** Each bank's next eight code bytes are one `u64` — read
//!   little-endian to the right and big-endian to the left, so walk byte
//!   `j` always sits at bits `8j..8j+8`.
//! * **Classify.** Branch-free zero-byte tests turn the two words into an
//!   8-bit *match mask* (byte equal on both banks and `< 4` on bank 1 —
//!   [`ScoringScheme::is_match`]) and a *stop* flag (a [`SENTINEL`] on
//!   either bank).
//! * **Score.** A table indexed by `(mask, deficit)`, `deficit = best −
//!   score` (always `< xdrop` when a step starts), gives the best-score
//!   gain, the offset of the last new best and the deficit after the
//!   word — or after the byte where the X-drop ends the walk inside it.
//!   It is derived from `(matsch, mismatch, xdrop)`: `256 · xdrop`
//!   three-byte entries, 15 KB for the defaults. The defaults' table is
//!   built once and shared; other parameters get one per thread, rebuilt
//!   when a call brings a different set.
//!
//! **The order rule stays exact.** A candidate needs a run of `W`
//! matches, and the run is only ever extended by *leading* matches — the
//! word's bytes before its first mismatch. Those continue the current
//! run; for each one whose run reaches `W` the walk rolls the code,
//! compares it with `start_code` and probes the guard exactly as the byte
//! walk does (the code is re-encoded from bank 1 the first time the run
//! crosses `W` after a table step). A run started *after* a mismatch can
//! only reach `W` inside the same word when `W ≤ 7`; such a word, a word
//! holding a stop byte and a word running past either array end are
//! handed to the byte walk (`extend_left` / `extend_right`), which
//! resumes from the word's entry state and finishes the side. Parameters
//! the table cannot express (a non-positive match score, a non-negative
//! mismatch, an X-drop outside `1..=TABLE_MAX_XDROP`) use the byte walk
//! throughout. The byte walk is the oracle of the word walk's
//! differential proptest.

use std::cell::RefCell;
use std::sync::LazyLock;

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
    let hit = Hit {
        d1,
        d2,
        p1,
        p2,
        start_code,
        coder,
        params,
    };
    if WalkTable::key_of(params) == DEFAULT_TABLE.key {
        return extend_guarded(&hit, guard, Some(&DEFAULT_TABLE));
    }
    TABLE.with(|cell| {
        let mut table = cell.borrow_mut();
        if table.key != WalkTable::key_of(params) {
            *table = WalkTable::new(params);
        }
        extend_guarded(&hit, guard, (!table.steps.is_empty()).then_some(&*table))
    })
}

/// The word-walk table of the default parameters ([`UngappedParams::new`]),
/// shared by every thread so the per-pair path pays no thread-local
/// access (~7 ns a call).
static DEFAULT_TABLE: LazyLock<WalkTable> =
    LazyLock::new(|| WalkTable::new(&UngappedParams::new(1)));

thread_local! {
    /// This thread's word-walk table for other parameters, rebuilt
    /// whenever a call brings different `(matsch, mismatch, xdrop)` than
    /// the last one.
    static TABLE: RefCell<WalkTable> = const { RefCell::new(WalkTable::EMPTY) };
}

/// Resolves the guard shape into a monomorphized pair of walks: word
/// walks over `table`, or byte walks throughout when there is none.
#[inline]
fn extend_guarded(
    hit: &Hit<'_>,
    guard: OrderGuard<'_>,
    table: Option<&WalkTable>,
) -> ExtensionOutcome {
    match guard {
        OrderGuard::None => extend_walks(hit, NoWalk, table),
        OrderGuard::OrderedFull => extend_walks(hit, FullWalk, table),
        OrderGuard::OrderedIndexed { idx1, idx2 } => {
            extend_walks(hit, IndexedWalk { idx1, idx2 }, table)
        }
    }
}

/// One seed hit: the banks, the seed's positions on them and its code.
struct Hit<'a> {
    d1: &'a [u8],
    d2: &'a [u8],
    p1: usize,
    p2: usize,
    start_code: u32,
    coder: SeedCoder,
    params: &'a UngappedParams,
}

/// Shared body: runs both direction walks under one monomorphized guard
/// shape and assembles the outcome.
fn extend_walks<G: GuardWalk>(
    hit: &Hit<'_>,
    walk: G,
    table: Option<&WalkTable>,
) -> ExtensionOutcome {
    let sides = match table {
        Some(t) => word_walk::<Left, G>(hit, walk, t)
            .and_then(|l| Some((l, word_walk::<Right, G>(hit, walk, t)?))),
        None => {
            let seed = WalkState::seed(hit);
            extend_left(hit, walk, seed).and_then(|l| Some((l, extend_right(hit, walk, seed)?)))
        }
    };
    let Some(((left_best, left_off), (right_best, right_off))) = sides else {
        return ExtensionOutcome::Aborted;
    };
    let seed_score = hit.params.w as i32 * hit.params.scheme.matsch;
    ExtensionOutcome::Hsp {
        score: left_best + right_best - seed_score,
        left: left_off,
        right: right_off,
    }
}

/// Where a one-sided walk stands: the byte walks start from
/// [`WalkState::seed`] or resume from a word boundary of the word walk.
#[derive(Debug, Clone, Copy)]
struct WalkState {
    score: i32,
    best: i32,
    /// Residues walked when `best` was last raised.
    best_off: usize,
    /// Consecutive matches ending at the last walked residue, seed
    /// included.
    run: usize,
    /// Code of the `W` bank-1 residues ending at the last walked one
    /// (walk order); only meaningful while `run ≥ W`.
    code: u32,
    /// Residues walked.
    l: usize,
}

impl WalkState {
    /// The state on the seed's edge: the seed scored, nothing walked.
    fn seed(hit: &Hit<'_>) -> WalkState {
        let seed_score = hit.params.w as i32 * hit.params.scheme.matsch;
        WalkState {
            score: seed_score,
            best: seed_score,
            best_off: 0,
            run: hit.params.w,
            code: hit.start_code,
            l: 0,
        }
    }
}

/// Left walk from `from`. Returns `(best_score_including_seed,
/// residues_left_of_seed)` or `None` on an order abort.
fn extend_left<W: GuardWalk>(hit: &Hit<'_>, walk: W, from: WalkState) -> Option<(i32, usize)> {
    let Hit {
        d1,
        d2,
        p1,
        p2,
        start_code,
        coder,
        params,
    } = *hit;
    let scheme = &params.scheme;
    let w = params.w;
    let WalkState {
        mut score,
        mut best,
        mut best_off,
        mut run, // consecutive matches from the current left edge
        mut code,
        mut l,
    } = from;

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

/// Right walk from `from`. Returns `(best_score_including_seed,
/// residues_right_of_seed)` or `None` on an order abort.
fn extend_right<W: GuardWalk>(hit: &Hit<'_>, walk: W, from: WalkState) -> Option<(i32, usize)> {
    let Hit {
        d1,
        d2,
        p1,
        p2,
        start_code,
        coder,
        params,
    } = *hit;
    let scheme = &params.scheme;
    let w = params.w;
    let WalkState {
        mut score,
        mut best,
        mut best_off,
        mut run,
        mut code,
        mut l,
    } = from;

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

/// Largest X-drop the word walk tabulates: `256 · 64` entries are 64 KB.
/// Beyond it the walks go byte by byte.
const TABLE_MAX_XDROP: i32 = 64;

/// What eight walk bytes with a given match mask do to a walk entering
/// them with a given deficit. All three fields are relative, so one
/// entry serves every absolute score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// Rise of the best score over the bytes walked.
    gain: u8,
    /// 1-based index of the byte that last raised the best; 0 if none.
    off: u8,
    /// `best − score` after the last byte walked. At or above `xdrop`
    /// the walk ended at that byte, possibly inside the word.
    deficit: u8,
}

/// The `(mask, deficit)` table of the word walk for one
/// `(matsch, mismatch, xdrop)`.
struct WalkTable {
    key: (i32, i32, i32),
    /// Entry `deficit · 256 + mask`; empty when the parameters are
    /// outside what the table expresses.
    steps: Vec<Step>,
}

impl WalkTable {
    const EMPTY: WalkTable = WalkTable {
        key: (0, 0, 0),
        steps: Vec::new(),
    };

    fn key_of(params: &UngappedParams) -> (i32, i32, i32) {
        (params.scheme.matsch, params.scheme.mismatch, params.xdrop)
    }

    /// Tabulates every `(mask, deficit)` with `deficit < xdrop`. Empty
    /// unless matches score positive and mismatches negative — which is
    /// what keeps the deficit non-negative and lets a run of leading
    /// matches never end the walk — and the X-drop is in
    /// `1..=TABLE_MAX_XDROP`; empty too if any field overflows its byte.
    fn new(params: &UngappedParams) -> WalkTable {
        let (matsch, mismatch, xdrop) = WalkTable::key_of(params);
        let steps = if matsch > 0 && mismatch < 0 && (1..=TABLE_MAX_XDROP).contains(&xdrop) {
            (0..xdrop)
                .flat_map(|deficit| (0..=u8::MAX).map(move |mask| (mask, deficit)))
                .map(|(mask, deficit)| Step::simulate(mask, deficit, matsch, mismatch, xdrop))
                .collect::<Option<Vec<Step>>>()
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        WalkTable {
            key: (matsch, mismatch, xdrop),
            steps,
        }
    }

    #[inline]
    fn step(&self, mask: u8, deficit: i32) -> Step {
        debug_assert!(deficit >= 0);
        self.steps[(deficit as usize) << 8 | usize::from(mask)]
    }
}

impl Step {
    /// The byte walk's scoring over the eight bytes of `mask`, byte `j`
    /// matching iff bit `j` is set, stopping where the X-drop does.
    /// `None` if a field does not fit its byte.
    fn simulate(mask: u8, deficit: i32, matsch: i32, mismatch: i32, xdrop: i32) -> Option<Step> {
        let (mut score, mut best, mut off) = (-deficit, 0i32, 0u8);
        for j in 0..8u8 {
            if mask >> j & 1 == 1 {
                score += matsch;
                if score > best {
                    best = score;
                    off = j + 1;
                }
            } else {
                score += mismatch;
            }
            if best - score >= xdrop {
                break;
            }
        }
        Some(Step {
            gain: u8::try_from(best).ok()?,
            off,
            deficit: u8::try_from(best - score).ok()?,
        })
    }
}

/// Low seven bits of every byte.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// One in every byte.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// Bits a nucleotide code (`< 4`) leaves clear, in every byte.
const NON_NUC: u64 = 0xFCFC_FCFC_FCFC_FCFC;
/// [`SENTINEL`] in every byte.
const SENTINELS: u64 = SENTINEL as u64 * BYTE_ONES;

/// The high bit of each byte of the result is set iff that byte of `v`
/// is zero. Exact per byte: no borrow crosses a byte boundary.
#[inline]
fn zero_bytes(v: u64) -> u64 {
    !(((v & LOW7) + LOW7) | v | LOW7)
}

/// Packs the high bits of the eight bytes of `h` into one byte, byte `j`
/// to bit `j`. The shifts `56 − 7j` land each bit in the top byte, and no
/// two partial products share a bit position, so nothing carries into it.
#[inline]
fn gather(h: u64) -> u8 {
    (h >> 7).wrapping_mul(0x0102_0408_1020_4080).to_be_bytes()[0]
}

/// Match mask of two loaded words, and whether either holds a stop byte.
#[inline]
fn classify(x1: u64, x2: u64) -> (u8, bool) {
    let matches = gather(zero_bytes((x1 ^ x2) | (x1 & NON_NUC)));
    let stops = (zero_bytes(x1 ^ SENTINELS) | zero_bytes(x2 ^ SENTINELS)) != 0;
    (matches, stops)
}

/// Whether `bits` holds a run of at least `w` consecutive ones.
#[inline]
fn has_run(bits: u32, w: usize) -> bool {
    let mut r = bits;
    for _ in 1..w {
        r &= r >> 1;
    }
    r != 0
}

/// One walk direction, as the word walk sees it. Offsets `l` count
/// residues walked from the seed's edge.
trait Side {
    /// The eight bytes of `d` at walk offsets `l .. l + 8` of the seed at
    /// `p`, walk byte `j` at bits `8j..8j+8`; `None` past the array end.
    fn load(d: &[u8], p: usize, w: usize, l: usize) -> Option<u64>;
    /// Position of walk offset `l`.
    fn pos(p: usize, w: usize, l: usize) -> usize;
    /// Start of the `W`-window a candidate check at offset `l` is about.
    fn window(p: usize, w: usize, l: usize) -> usize;
    /// Slides `code` over the residue `c` at the next offset.
    fn roll(coder: SeedCoder, code: u32, c: u8) -> u32;
    /// Whether a candidate with `code` owns the HSP instead of the seed.
    fn defers(code: u32, start_code: u32) -> bool;
    /// The byte walk of this side, resumed from `from`.
    fn bytes<G: GuardWalk>(hit: &Hit<'_>, walk: G, from: WalkState) -> Option<(i32, usize)>;
}

/// Towards lower positions: a candidate window starts at the walked
/// residue, and an equal code to the left is the canonical one.
struct Left;

impl Side for Left {
    #[inline]
    fn load(d: &[u8], p: usize, _: usize, l: usize) -> Option<u64> {
        let end = p.checked_sub(l)?;
        let word = d.get(end.checked_sub(8)?..end)?;
        Some(u64::from_be_bytes(word.try_into().ok()?))
    }
    #[inline]
    fn pos(p: usize, _: usize, l: usize) -> usize {
        p - 1 - l
    }
    #[inline]
    fn window(p: usize, _: usize, l: usize) -> usize {
        p - 1 - l
    }
    #[inline]
    fn roll(coder: SeedCoder, code: u32, c: u8) -> u32 {
        coder.roll_left(code, c)
    }
    #[inline]
    fn defers(code: u32, start_code: u32) -> bool {
        code <= start_code
    }
    fn bytes<G: GuardWalk>(hit: &Hit<'_>, walk: G, from: WalkState) -> Option<(i32, usize)> {
        extend_left(hit, walk, from)
    }
}

/// Towards higher positions: a candidate window ends at the walked
/// residue, and only a strictly smaller code defers.
struct Right;

impl Side for Right {
    #[inline]
    fn load(d: &[u8], p: usize, w: usize, l: usize) -> Option<u64> {
        let start = p + w + l;
        let word = d.get(start..start.checked_add(8)?)?;
        Some(u64::from_le_bytes(word.try_into().ok()?))
    }
    #[inline]
    fn pos(p: usize, w: usize, l: usize) -> usize {
        p + w + l
    }
    #[inline]
    fn window(p: usize, _: usize, l: usize) -> usize {
        p + l + 1
    }
    #[inline]
    fn roll(coder: SeedCoder, code: u32, c: u8) -> u32 {
        coder.roll_right(code, c)
    }
    #[inline]
    fn defers(code: u32, start_code: u32) -> bool {
        code < start_code
    }
    fn bytes<G: GuardWalk>(hit: &Hit<'_>, walk: G, from: WalkState) -> Option<(i32, usize)> {
        extend_right(hit, walk, from)
    }
}

/// One side's walk, eight residues per [`WalkTable`] step (see the
/// module docs' *Word-wide walk*). Same result as the byte walk of that
/// side from the seed, which finishes whatever a word cannot decide.
#[inline]
fn word_walk<S: Side, G: GuardWalk>(
    hit: &Hit<'_>,
    walk: G,
    table: &WalkTable,
) -> Option<(i32, usize)> {
    let Hit {
        d1,
        d2,
        p1,
        p2,
        start_code,
        coder,
        params,
    } = *hit;
    let w = params.w;
    let mut st = WalkState::seed(hit);
    // Whether `st.code` is already the code of the last W walked bank-1
    // residues (true on the seed); a table step leaves it stale.
    let mut fresh = true;
    loop {
        let deficit = st.best - st.score;
        if deficit >= params.xdrop {
            return Some((st.best, st.best_off));
        }
        let (Some(x1), Some(x2)) = (S::load(d1, p1, w, st.l), S::load(d2, p2, w, st.l)) else {
            break;
        };
        let (mask, stops) = classify(x1, x2);
        if stops {
            break;
        }
        let lead = mask.trailing_ones() as usize;
        if G::ORDERED {
            // A run starting after the first mismatch that reaches W
            // inside this word: leave the word to the byte walk.
            if lead < 8 && w <= 7 && has_run(u32::from(mask) >> (lead + 1), w) {
                break;
            }
            // The leading matches continue the run; from the one whose
            // run reaches W on, each is a candidate (leading matches only
            // lower the deficit, so the walk reaches all of them).
            let first = (w - 1).saturating_sub(st.run);
            for j in first..lead {
                let l = st.l + j;
                st.code = if fresh {
                    S::roll(coder, st.code, x1.to_le_bytes()[j])
                } else {
                    let at = S::window(p1, w, l);
                    coder
                        .encode(&d1[at..at + w])
                        .expect("a run of W matches is W nucleotides")
                };
                fresh = true;
                if S::defers(st.code, start_code)
                    && walk.enumerated(S::window(p1, w, l), S::window(p2, w, l))
                {
                    return None;
                }
            }
            fresh = lead == 8 && first < 8;
            st.run = if lead == 8 {
                st.run + 8
            } else {
                mask.leading_ones() as usize
            };
        }
        let step = table.step(mask, deficit);
        if step.off != 0 {
            st.best_off = st.l + usize::from(step.off);
        }
        st.best += i32::from(step.gain);
        st.score = st.best - i32::from(step.deficit);
        st.l += 8;
    }
    // The byte walk takes over at this word boundary. Its run may reach W
    // after fewer than W rolls of its own, so roll in the residues of the
    // run carried so far; whatever else the code holds is shifted out by
    // the time the run is a candidate. (A stale code always carries a run
    // shorter than W that started inside the walk.)
    if G::ORDERED && !fresh {
        debug_assert!(st.run < w && st.run <= st.l);
        for l in st.l - st.run..st.l {
            st.code = S::roll(coder, st.code, d1[S::pos(p1, w, l)]);
        }
    }
    S::bytes(hit, walk, st)
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

    /// The byte walk throughout: the oracle the word walk is held to.
    fn extend_hit_bytes(
        d1: &[u8],
        d2: &[u8],
        p1: usize,
        p2: usize,
        start_code: u32,
        coder: SeedCoder,
        params: &UngappedParams,
        guard: OrderGuard<'_>,
    ) -> ExtensionOutcome {
        let hit = Hit {
            d1,
            d2,
            p1,
            p2,
            start_code,
            coder,
            params,
        };
        extend_guarded(&hit, guard, None)
    }

    /// SplitMix64: one proptest draw seeds a whole case.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// A code byte: mostly nucleotides, `odd_in_64` in 64 draws a
        /// sentinel or an ambiguity code (5, 6 or 7).
        fn code(&mut self, odd_in_64: u64) -> u8 {
            if self.below(64) < odd_in_64 {
                [SENTINEL, 5, 6, 7][self.below(4) as usize]
            } else {
                self.below(4) as u8
            }
        }

        /// `len` code bytes, each repeating the byte one period back at
        /// `repeat_in_64` / 64 and a fresh draw otherwise: tandem repeats
        /// of period 1–4, so seeds recur inside their own HSPs and equal
        /// codes meet the order rule.
        fn tandem(&mut self, len: usize, repeat_in_64: u64, odd_in_64: u64) -> Vec<u8> {
            let period = 1 + self.below(4) as usize;
            let mut d = Vec::with_capacity(len);
            for i in 0..len {
                let c = if i >= period && self.below(64) < repeat_in_64 {
                    d[i - period]
                } else {
                    self.code(odd_in_64)
                };
                d.push(c);
            }
            d
        }

        /// `d` with each byte replaced by a fresh draw at `rate_in_64` / 64.
        fn mutate(&mut self, d: &[u8], rate_in_64: u64, odd_in_64: u64) -> Vec<u8> {
            d.iter()
                .map(|&c| {
                    if self.below(64) < rate_in_64 {
                        self.code(odd_in_64)
                    } else {
                        c
                    }
                })
                .collect()
        }
    }

    /// Every hit of `d1` against `d2` on the diagonal `p2 = p1 + shift`,
    /// extended by the word walk and by the byte walk under `guard`: same
    /// outcome, score and extent. Returns how many hits were compared.
    fn walks_agree(
        d1: &[u8],
        d2: &[u8],
        shift: usize,
        params: &UngappedParams,
        guard: OrderGuard<'_>,
    ) -> Result<usize, TestCaseError> {
        let w = params.w;
        let coder = SeedCoder::new(w);
        let mut hits = 0;
        for p1 in 0..d1.len().saturating_sub(w - 1) {
            let p2 = p1 + shift;
            if p2 + w > d2.len() || d1[p1..p1 + w] != d2[p2..p2 + w] {
                continue;
            }
            let Some(code) = coder.encode(&d1[p1..p1 + w]) else {
                continue;
            };
            let word = extend_hit(d1, d2, p1, p2, code, coder, params, guard);
            let byte = extend_hit_bytes(d1, d2, p1, p2, code, coder, params, guard);
            prop_assert!(word == byte, "p1 {p1} p2 {p2}: word {word:?} byte {byte:?}");
            hits += 1;
        }
        Ok(hits)
    }

    /// Random extension parameters: W in 3..=13 (both sides of 8, up to
    /// the coder's limit), X-drop in 1..=72 (a few past the table's
    /// limit), match 1..=4, mismatch −1..=−6.
    fn random_params(mix: &mut Mix) -> UngappedParams {
        let scheme = ScoringScheme {
            matsch: 1 + mix.below(4) as i32,
            mismatch: -1 - mix.below(6) as i32,
            ..ScoringScheme::blastn()
        };
        UngappedParams {
            w: 3 + mix.below(11) as usize,
            xdrop: 1 + mix.below(72) as i32,
            scheme,
        }
    }

    #[test]
    fn walk_table_matches_its_definition() {
        let table = WalkTable::new(&params(11, 20));
        assert_eq!(table.steps.len(), 256 * 20);
        // Eight matches from the best: +8, the last one the new best.
        let all = table.step(0xFF, 0);
        assert_eq!((all.gain, all.off, all.deficit), (8, 8, 0));
        // Match, mismatch, then six matches from deficit 5: 1 − 3 + 6 = 4
        // above the entry score, so 4 − 5 < 0 leaves the best where it was.
        let dip = table.step(0b1111_1101, 5);
        assert_eq!((dip.gain, dip.off, dip.deficit), (0, 0, 1));
        // All mismatches from deficit 19: the first one ends the walk.
        let none = table.step(0, 19);
        assert_eq!((none.gain, none.off, none.deficit), (0, 0, 22));
        // Outside what the table expresses: no table.
        for (xdrop, scheme) in [
            (0, ScoringScheme::blastn()),
            (TABLE_MAX_XDROP + 1, ScoringScheme::blastn()),
            (
                20,
                ScoringScheme {
                    mismatch: 0,
                    ..ScoringScheme::blastn()
                },
            ),
            (
                20,
                ScoringScheme {
                    matsch: 40,
                    ..ScoringScheme::blastn()
                },
            ),
        ] {
            let p = UngappedParams {
                w: 11,
                xdrop,
                scheme,
            };
            assert!(WalkTable::new(&p).steps.is_empty(), "{p:?}");
        }
    }

    #[test]
    fn classify_reads_matches_and_stops_per_byte() {
        // Walk bytes 0..8: match A, mismatch, AMBIG both, match G,
        // sentinel on bank 2, match T, code 6 both, match C.
        let b1 = [0u8, 1, 5, 3, 2, 2, 6, 1];
        let b2 = [0u8, 2, 5, 3, SENTINEL, 2, 6, 1];
        let (mask, stops) = classify(u64::from_le_bytes(b1), u64::from_le_bytes(b2));
        assert_eq!(mask, 0b1010_1001);
        assert!(stops);
        let (mask, stops) = classify(u64::from_le_bytes(b1), u64::from_le_bytes(b1));
        assert_eq!(mask, 0b1011_1011);
        assert!(!stops);
        // Big-endian loads put the last array byte first in walk order.
        let (mask, _) = classify(u64::from_be_bytes(b1), u64::from_be_bytes(b2));
        assert_eq!(mask, 0b1001_0101);
    }

    #[test]
    fn word_walk_checks_a_run_of_w_that_starts_inside_a_word() {
        // W = 7: the walk's first byte mismatches (C against T) and the
        // next seven match as AAAAAAA, code 0 — a run that starts and
        // reaches W inside one word, so it owns the HSP on either side.
        let w = 7;
        let coder = SeedCoder::new(w);
        let pars = params(w, 20);
        let seed = "GGGGGGG";
        let code = coder.encode(&codes(seed)).unwrap();
        for (s1, s2) in [
            (
                format!("{seed}CAAAAAAATTTTTTTTTTTTTTTT"),
                format!("{seed}TAAAAAAACCCCCCCCCCCCCCCC"),
            ),
            (
                format!("TTTTTTTTTTTTTTTTAAAAAAAC{seed}"),
                format!("CCCCCCCCCCCCCCCCAAAAAAAT{seed}"),
            ),
        ] {
            let (d1, d2) = (framed(&s1), framed(&s2));
            let p = find(&d1, &codes(seed));
            for guard in [OrderGuard::None, OrderGuard::OrderedFull] {
                let word = extend_hit(&d1, &d2, p, p, code, coder, &pars, guard);
                let byte = extend_hit_bytes(&d1, &d2, p, p, code, coder, &pars, guard);
                assert_eq!(word, byte, "{s1} {guard:?}");
            }
            let full = extend_hit(&d1, &d2, p, p, code, coder, &pars, OrderGuard::OrderedFull);
            assert_eq!(full, ExtensionOutcome::Aborted, "{s1}");
        }
    }

    proptest! {
        /// Word walk ≡ byte walk on raw code arrays under the two
        /// index-free guards: near-identical to unrelated flanks,
        /// sentinels and ambiguity codes in either array, arrays with no
        /// framing (so seeds sit within a word of either end), every hit
        /// on the diagonal compared.
        #[test]
        fn word_walk_matches_byte_walk(
            seed in 0u64..=u64::MAX,
            len in 8usize..240,
            shift in 0usize..12,
            rate_in_64 in 0u64..48,
            odd_in_64 in 0u64..6,
            repeat_in_64 in 0u64..64,
        ) {
            let mut mix = Mix(seed);
            let pars = random_params(&mut mix);
            let d1 = mix.tandem(len, repeat_in_64, odd_in_64);
            let prefix: Vec<u8> = (0..shift).map(|_| mix.code(odd_in_64)).collect();
            let d2 = [prefix, mix.mutate(&d1, rate_in_64, odd_in_64)].concat();
            for guard in [OrderGuard::None, OrderGuard::OrderedFull] {
                walks_agree(&d1, &d2, shift, &pars, guard)?;
            }
        }

        /// The same identity under `OrderedIndexed`, on banks whose
        /// indexes mask a random residue class of bank 1 and sample
        /// bank 2 at stride 1 or 2 — the full guard included, since the
        /// table and the order checks are shared by all three.
        #[test]
        fn word_walk_matches_byte_walk_indexed(
            seed in 0u64..=u64::MAX,
            lens in proptest::collection::vec(1usize..90, 1..4),
            rate_in_64 in 0u64..24,
            repeat_in_64 in 0u64..64,
            mask_mod in 2usize..9,
            stride in 1usize..3,
        ) {
            use oris_index::IndexConfig;
            let mut mix = Mix(seed);
            let pars = random_params(&mut mix);
            let w = pars.w;
            // Bank 2 repeats bank 1's records with substitutions, so the
            // diagonals line up across the sentinels.
            let text = |d: Vec<u8>| -> String {
                d.into_iter().map(|c| char::from(*b"ACGT".get(usize::from(c)).unwrap_or(&b'N'))).collect()
            };
            let (mut bb1, mut bb2) = (oris_seqio::BankBuilder::new(), oris_seqio::BankBuilder::new());
            for (i, &len) in lens.iter().enumerate() {
                let r1 = mix.tandem(len, repeat_in_64, 2);
                let r2 = mix.mutate(&r1, rate_in_64, 2);
                bb1.push_str(&format!("s{i}"), &text(r1)).unwrap();
                bb2.push_str(&format!("s{i}"), &text(r2)).unwrap();
            }
            let (b1, b2) = (bb1.finish(), bb2.finish());
            let phase = mix.below(mask_mod as u64) as usize;
            let i1 = BankIndex::build_filtered(&b1, IndexConfig::full(w), |p| p % mask_mod == phase);
            let i2 = BankIndex::build(&b2, IndexConfig { stride, ..IndexConfig::full(w) });
            let indexed = OrderGuard::OrderedIndexed { idx1: &i1, idx2: &i2 };
            for guard in [indexed, OrderGuard::OrderedFull, OrderGuard::None] {
                for shift in 0..3 {
                    walks_agree(b1.data(), b2.data(), shift, &pars, guard)?;
                }
            }
        }

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
