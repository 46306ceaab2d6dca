//! Gapped X-drop extension (paper section 2.3).
//!
//! Step 3 of ORIS grows each surviving HSP into a gapped alignment:
//! "alignments are constructed starting from the middle of an HSP and
//! performing an extension on both extremities by dynamic programming
//! techniques. The extension is controlled by an XDROP value."
//!
//! This module implements the NCBI-style adaptive-band X-drop DP with
//! affine gaps and full traceback:
//!
//! * the DP advances row by row (one row per consumed character of
//!   sequence 1), keeping only the *live band* of columns whose best state
//!   value is within `xdrop` of the best score seen so far;
//! * the band adapts — it can drift, widen along gap chains and shrink as
//!   cells die — so the cost is proportional to the alignment's "score
//!   corridor", not to the product of the extension lengths;
//! * a hard `max_cells` cap bounds memory on pathological inputs.
//!
//! Step 3 runs this DP twice per surviving HSP — 13 000 times on a
//! repeat-family screen where each run is a few hundred cells — so a call
//! must cost its cells and nothing else:
//!
//! * **Tapes are views.** A tape is a slice of the bank array read forward
//!   (right extension) or backward (left extension), cut at the array
//!   bound and at `max_span`. The sentinel that ends a tape is found *as
//!   the band reaches it* (a row stops at a sentinel on tape 1, `Columns`
//!   discovers tape 2's end one column at a time), so an extension next to
//!   a chromosome-sized record never looks further into it than its band
//!   goes. Tape 2's characters are read once each, as their columns are
//!   discovered, into a buffer in tape order, so every row reads its band's
//!   characters as one forward slice whichever way the tape walks.
//! * **Rows live in a [`GappedScratch`]** the caller keeps per worker:
//!   rows are double-buffered and *band-relative* (index 0 is the row's
//!   first computed column), so the scratch holds O(band) cells whatever
//!   the tape lengths. Its buffers keep the length and capacity of the
//!   largest extension they have seen; after warm-up an extension
//!   allocates nothing.
//! * **A row is one pass.** Every cell over the previous band, both edges
//!   included, runs through one loop, and the `E` chain that may run on
//!   beyond the band follows. Every cell of the row and its traceback byte
//!   are written exactly once, live or dead; nothing is pre-filled. A dead
//!   cell stands on each side of every row, so the left edge of the next
//!   row reads one as its diagonal source and the right edge the other as
//!   the cell above it.
//!
//! # A cell
//!
//! The kernel keeps every state *keyed*: a score `v` of the state with
//! rank `r` is held as `4·v + r`, where `H` ranks 3, `E` 2 and `F` 1. A
//! cell stores its keyed `H` and `F` and `D = max(H, E, F)`, so `D` is
//! four times the cell's best score plus the rank of the state holding
//! it, ties going to `H`, then `E`, then `F`. `D` serves twice:
//!
//! * the cell survives the X-drop when `D ≥ 4·(best − xdrop)`, a floor
//!   recomputed only when `best` rises;
//! * the next row's diagonal move out of the cell is `(D | 3) + 4·pair`, a
//!   keyed `H`, with traceback source `D & 3`.
//!
//! Gap moves add keyed costs (an open from `H` into `E` or `F` also moves
//! the rank), and ties between an open and an extend still open: both
//! sides carry the same rank. `E` fed only `D` and the right neighbour, so
//! it is not stored: a cell is 12 bytes. The pair score is one compare:
//! per row, a character of sequence 1 that is not a nucleotide is recoded
//! as the sentinel, which no column of tape 2 holds.
//!
//! # Dead values
//!
//! Every state of a pruned cell holds `DEAD = i32::MIN / 16`, keyed
//! `4·DEAD` (rank 0, the traceback's "dead"). No move selects "dead" on
//! the way in: a diagonal move out of a dead cell is `DEAD + pair`, a gap
//! move out of one `DEAD + gap`. Three bounds make that safe:
//!
//! * Every `H` is at least `DEAD + mismatch` (its diagonal source's best
//!   state is `DEAD` or live), and every `E` and `F` is at least an `H` plus
//!   `gap_open + gap_extend`. Dead-derived values do not drift: none is
//!   below `DEAD + mismatch + gap_open + gap_extend`, so no keyed value
//!   overflows.
//! * A dead-derived value is at most `DEAD + match`, far below `−xdrop`.
//!   It never passes the X-drop test, and it never ties or beats a value
//!   derived from live cells, which is at least `−xdrop + mismatch +
//!   gap_open + gap_extend − (len + 1)·|gap_extend|` on tapes of `len`
//!   characters. In every `max` the live side wins, as it did against the
//!   first kernel's dead value and its dead-diagonal select.
//! * So the traceback never reads the source bits of a dead-sourced `H`.
//!   It enters a cell in state `H` only when that `H` is live: the best
//!   cell's is, a diagonal move took it as its source's live best state,
//!   and a gap opened from it only when it beat a live gap.
//!
//! `xdrop ≤` [`MAX_XDROP`] keeps all three with room to spare for the
//! built-in schemes; the kernel asserts them on entry, from the scheme,
//! the x-drop and the tape lengths.
//!
//! The two-sided entry point [`extend_gapped_both`] runs both halves
//! around the HSP midpoint into one ops buffer, exactly as step 3 needs
//! them. The first kernel lives on under `#[cfg(test)]` as the oracle of
//! the differential proptests.

use oris_seqio::alphabet::{is_nucleotide, AMBIG, SENTINEL};

use crate::cigar::AlignOp;
use crate::scoring::ScoringScheme;

#[cfg(test)]
mod oracle;

/// What every state of a pruned cell holds (see "Dead values").
const DEAD: i32 = i32::MIN / 16;

// Traceback encoding: bits 0..2 = H source, bit 3 = E source, bit 4 = F
// source. The dead and the three diagonal sources are the ranks of the
// keyed states (see "A cell"), so a diagonal move's source is `d & 3`.
const TB_H_DEAD: u8 = 0;
const TB_H_FROM_F: u8 = 1;
const TB_H_FROM_E: u8 = 2;
const TB_H_FROM_H: u8 = 3;
const TB_H_START: u8 = 4;
const TB_H_MASK: u8 = 0b111;
const TB_E_EXTEND: u8 = 1 << 3;
const TB_F_EXTEND: u8 = 1 << 4;

/// The largest x-drop [`GappedParams`] may carry. The kernel's dead value
/// sits 2^27 below zero, and a live-derived value at most `xdrop` plus one
/// tape-long gap chain below it (see "Dead values"). At 2^20 the two stay
/// apart on tapes of `max_span` = 2^20 for gap-extend costs up to 100, and
/// `4·(best − xdrop)` stays far from overflow. An x-drop that large
/// already lets a band cover whole tapes: every extension fills
/// `max_cells`.
pub const MAX_XDROP: i32 = 1 << 20;

/// Parameters of the gapped extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedParams {
    /// Scoring scheme (affine gaps).
    pub scheme: ScoringScheme,
    /// X-drop threshold, `1..=`[`MAX_XDROP`].
    pub xdrop: i32,
    /// Maximum characters consumed per tape in each direction.
    pub max_span: usize,
    /// Hard cap on DP cells computed per direction (memory guard).
    pub max_cells: usize,
}

impl Default for GappedParams {
    fn default() -> Self {
        GappedParams {
            scheme: ScoringScheme::blastn(),
            xdrop: 25,
            max_span: 1 << 20,
            max_cells: 1 << 24,
        }
    }
}

impl GappedParams {
    /// Whether the bounds of "Dead values" hold on tapes of at most `len`
    /// characters: the x-drop is in range, every keyed value fits an
    /// `i32`, and a dead-derived value stays below every live-derived one
    /// by more than a gap open, the most one `max` weighs between them.
    fn dead_margin_holds(&self, len: usize) -> bool {
        let s = &self.scheme;
        let [matsch, mismatch, open, ext] =
            [s.matsch, s.mismatch, s.gap_open, s.gap_extend].map(i64::from);
        let (dead, xdrop) = (i64::from(DEAD), i64::from(self.xdrop));
        let steps = i64::try_from(len).map_or(i64::MAX, |n| n.saturating_add(1));
        let lowest = 4 * (dead + mismatch + open + ext);
        let highest = matsch
            .saturating_mul(steps)
            .saturating_mul(4)
            .saturating_add(3);
        let dead_high = dead + matsch - open;
        let live_low = (-xdrop + mismatch + open + ext).saturating_add(ext.saturating_mul(steps));
        (1..=MAX_XDROP).contains(&self.xdrop)
            && lowest >= i64::from(i32::MIN)
            && highest <= i64::from(i32::MAX)
            && dead_high < live_low
    }
}

/// A gapped extension, its ops borrowed from the [`GappedScratch`] that
/// computed it (valid until the scratch's next extension).
///
/// The alignment consumes `len1` characters of array 1 and `len2` of
/// array 2; `ops` run left to right on the arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedExtension<'s> {
    /// Best path score (0 for the empty extension).
    pub score: i32,
    /// Characters consumed on sequence 1.
    pub len1: usize,
    /// Characters consumed on sequence 2.
    pub len2: usize,
    /// Alignment operations, left to right.
    pub ops: &'s [AlignOp],
    /// DP cells computed, both halves of a two-sided extension summed.
    pub cells: usize,
}

impl GappedExtension<'_> {
    /// The empty extension.
    pub fn empty() -> GappedExtension<'static> {
        GappedExtension {
            score: 0,
            len1: 0,
            len2: 0,
            ops: &[],
            cells: 0,
        }
    }
}

/// One DP cell, its states keyed (see "A cell"): `h = 4·H + 3`,
/// `f = 4·F + 1` and `d = max(h, 4·E + 2, f)`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    h: i32,
    f: i32,
    d: i32,
}

/// Every state of a pruned cell, keyed: `4·DEAD`, of rank `TB_H_DEAD`.
const DEAD_KEY: i32 = keyed(DEAD, TB_H_DEAD);

const DEAD_CELL: Cell = Cell {
    h: DEAD_KEY,
    f: DEAD_KEY,
    d: DEAD_KEY,
};

/// `score`, keyed as a state of rank `rank`.
const fn keyed(score: i32, rank: u8) -> i32 {
    4 * score + rank as i32
}

/// Working memory of the X-drop kernel, kept by the caller — one per
/// worker — and reused across extensions so that none of them allocates.
///
/// The two rows hold O(band) cells however long the tapes are; the
/// traceback pool (one byte per computed cell), its row table, tape 2's
/// characters and the ops buffer keep the capacity of the largest
/// extension they have seen.
#[derive(Debug, Default)]
pub struct GappedScratch {
    /// The previous and the current DP row, band-relative: index 0 holds
    /// a dead cell and index `k + 1` the row's `k`-th computed column. Each
    /// keeps the length of the widest row it held; a row's own width is
    /// the kernel's to track.
    prev: Vec<Cell>,
    cur: Vec<Cell>,
    /// Traceback bytes of every computed cell, row after row. Like the
    /// rows it keeps its length, and is written by index.
    tb_pool: Vec<u8>,
    /// Per row: its first column and where its bytes start in `tb_pool`.
    tb_rows: Vec<(usize, usize)>,
    /// Tape 2's characters the band has reached, in tape order: column
    /// `j`'s at index `j` (see `Columns`).
    chars: Vec<u8>,
    /// Ops of the extension in progress.
    ops: Vec<AlignOp>,
}

impl GappedScratch {
    /// An empty scratch (allocates on first use).
    pub fn new() -> GappedScratch {
        GappedScratch::default()
    }

    /// Bytes of heap the scratch currently retains.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        (self.prev.capacity() + self.cur.capacity()) * std::mem::size_of::<Cell>()
            + self.tb_pool.capacity()
            + self.tb_rows.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.chars.capacity()
            + self.ops.capacity() * std::mem::size_of::<AlignOp>()
    }
}

/// Writes `cell` at index `k` of `row`, growing the row when `k` is its
/// length.
#[inline(always)]
fn put<T: Copy>(row: &mut Vec<T>, k: usize, cell: T) {
    if k < row.len() {
        row[k] = cell;
    } else {
        debug_assert_eq!(k, row.len(), "rows grow one cell at a time");
        row.push(cell);
    }
}

/// An extension tape read in place: character `k` is `s[k]` walking right
/// and `s[len − 1 − k]` walking left (`LEFT`). `s` is already cut at the
/// array bound and at `max_span`; a sentinel inside it ends the tape,
/// wherever the DP meets it.
#[derive(Clone, Copy)]
struct Tape<'a, const LEFT: bool> {
    s: &'a [u8],
}

impl<'a> Tape<'a, false> {
    /// The tape whose first character is `d[origin]`, walking right.
    fn right(d: &'a [u8], origin: usize, max_span: usize) -> Self {
        let s = d.get(origin..).unwrap_or(&[]);
        Tape {
            s: &s[..s.len().min(max_span)],
        }
    }
}

impl<'a> Tape<'a, true> {
    /// The tape whose first character is `d[origin]`, walking left.
    fn left(d: &'a [u8], origin: usize, max_span: usize) -> Self {
        let s = d.get(..=origin).unwrap_or(&[]);
        Tape {
            s: &s[s.len() - s.len().min(max_span)..],
        }
    }
}

impl<const LEFT: bool> Tape<'_, LEFT> {
    #[inline(always)]
    fn get(&self, k: usize) -> u8 {
        if LEFT {
            self.s[self.s.len() - 1 - k]
        } else {
            self.s[k]
        }
    }
}

/// Tape 2's columns, their end found as the band advances: column `j`
/// (character `j − 1`) exists while no sentinel has been met up to it.
/// The DP asks for columns in order, so each character is read once, into
/// `chars[j]`: a row reads its band's characters there as one forward
/// slice, whichever way the tape walks. Column 0 has no character; it
/// holds `AMBIG`, which no recoded character of sequence 1 matches.
struct Columns<'a, 'c, const LEFT: bool> {
    tape: Tape<'a, LEFT>,
    /// `chars[j]` for the columns `j` known to exist.
    chars: &'c mut Vec<u8>,
    /// No column beyond `end` exists.
    end: usize,
}

impl<const LEFT: bool> Columns<'_, '_, LEFT> {
    #[inline(always)]
    fn has(&mut self, j: usize) -> bool {
        if j < self.chars.len() {
            return true;
        }
        debug_assert_eq!(j, self.chars.len(), "columns are discovered in order");
        if j > self.end {
            return false;
        }
        let c = self.tape.get(j - 1);
        if c == SENTINEL {
            self.end = j - 1;
            return false;
        }
        self.chars.push(c);
        true
    }
}

/// Best of the gap-open and gap-extend moves into an `E` or `F` state,
/// with the traceback bit of the winner (`extend_bit` or 0). Ties open.
#[inline(always)]
fn gap_move(from_h: i32, from_gap: i32, open_ext: i32, ext: i32, extend_bit: u8) -> (i32, u8) {
    let opened = from_h + open_ext;
    let extended = from_gap + ext;
    if opened >= extended {
        (opened, 0)
    } else {
        (extended, extend_bit)
    }
}

/// A scheme's moves in keyed units: the pair scores, and the gap moves
/// into `E` and `F` (an open from a keyed `H` shifts the rank too).
struct Moves {
    matsch: i32,
    mismatch: i32,
    open_e: i32,
    open_f: i32,
    ext: i32,
}

impl Moves {
    fn new(s: &ScoringScheme) -> Moves {
        let open_ext = s.gap_open + s.gap_extend;
        Moves {
            matsch: 4 * s.matsch,
            mismatch: 4 * s.mismatch,
            open_e: keyed(open_ext, TB_H_FROM_E) - i32::from(TB_H_FROM_H),
            open_f: keyed(open_ext, TB_H_FROM_F) - i32::from(TB_H_FROM_H),
            ext: 4 * s.gap_extend,
        }
    }
}

/// The `E` chain of a row from cell `k` (column `lo + k`, `row[k + 1]`)
/// on: cells only a horizontal gap reaches, written while they survive the
/// X-drop floor and the tape lasts. `(h, e)` are the keyed states of cell
/// `k − 1`, and the row's traceback bytes start at `tb_pool[tb_at]`.
/// Returns the row's width.
#[inline(always)]
fn e_chain<const LEFT: bool>(
    cols: &mut Columns<'_, '_, LEFT>,
    (lo, mut k): (usize, usize),
    (mut h, mut e): (i32, i32),
    (mv, floor): (&Moves, i32),
    row: &mut Vec<Cell>,
    (tb_pool, tb_at): (&mut Vec<u8>, usize),
) -> usize {
    while cols.has(lo + k) {
        let (ev, ebit) = gap_move(h, e, mv.open_e, mv.ext, TB_E_EXTEND);
        // H and F are dead, so D is E's unless E is dead too.
        if ev < floor {
            break;
        }
        let cell = Cell {
            h: DEAD_KEY,
            f: DEAD_KEY,
            d: ev,
        };
        put(row, k + 1, cell);
        put(tb_pool, tb_at + k, TB_H_DEAD | ebit);
        (h, e) = (DEAD_KEY, ev);
        k += 1;
    }
    k
}

/// The cells of a row over the previous band: cell `k` has `above[k]` on
/// its diagonal and `above[k + 1]` over it, scores `c1` against
/// `chars[k]`, and is written to `row[k]` and `tb[k]`. `best` (a keyed
/// `H`) and the floor it sets move as the best score rises; `xdrop` is
/// keyed. Returns the keyed `(H, E)` of the last cell, and where in the
/// row the best score last rose.
///
/// The alive test and the best-score update are branches, not selects,
/// and the best score rises on a few cells per row. Compiled as
/// conditional moves such updates ran on every cell and spilled the
/// loop's registers: over the 19 588 HSPs of the `genome_repeats`
/// benchmark inputs the kernel before this one took 0.73 s with them and
/// 0.49 s with never-taken branches. A branch-free alive test puts the
/// X-drop compare on the `E` chain's critical path; it measured 1.34–1.79×
/// slower than this loop.
#[inline(always)]
fn band(
    above: &[Cell],
    row: &mut [Cell],
    tb: &mut [u8],
    (chars, c1): (&[u8], u8),
    mv: &Moves,
    xdrop: i32,
    (best, floor): (&mut i32, &mut i32),
) -> ((i32, i32), Option<usize>) {
    let (mut left_h, mut left_e) = (DEAD_KEY, DEAD_KEY);
    let mut rose = None;
    let cells = above.iter().zip(&above[1..]).zip(row.iter_mut().zip(tb));
    for (k, (((diag, up), (cell, tb)), &c2)) in cells.zip(chars).enumerate() {
        let h = (diag.d | 3) + if c1 == c2 { mv.matsch } else { mv.mismatch };
        let (f, fbit) = gap_move(up.h, up.f, mv.open_f, mv.ext, TB_F_EXTEND);
        let (e, ebit) = gap_move(left_h, left_e, mv.open_e, mv.ext, TB_E_EXTEND);
        let d = h.max(e).max(f);
        let left;
        (*cell, *tb, left) = if d < *floor {
            (DEAD_CELL, TB_H_DEAD, (DEAD_KEY, DEAD_KEY))
        } else {
            if h > *best {
                std::hint::cold_path();
                (*best, rose) = (h, Some(k));
                *floor = (h & !3) - xdrop;
            }
            (Cell { h, f, d }, (diag.d & 3) as u8 | ebit | fbit, (h, e))
        };
        (left_h, left_e) = left;
    }
    ((left_h, left_e), rose)
}

/// Forward X-drop DP from the tapes' origins. Returns `(score, len1,
/// len2, cells)` of the best path and the cells computed, and appends the
/// path's ops to `scratch.ops` **from the far end back to the origin**
/// (the order the traceback walks).
///
/// A row buffer holds a dead cell at index 0 and cell `k` of its row at
/// `k + 1`, and the cell past the row's last is written dead too.
fn xdrop_dp<const LEFT: bool>(
    t1: Tape<'_, LEFT>,
    t2: Tape<'_, LEFT>,
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> (i32, usize, usize, usize) {
    assert!(
        params.dead_margin_holds(t1.s.len().max(t2.s.len())),
        "gapped parameters outside the kernel's dead margin: {params:?}"
    );
    let mv = Moves::new(&params.scheme);
    let xdrop = keyed(params.xdrop, 0);
    let GappedScratch {
        prev,
        cur,
        tb_pool,
        tb_rows,
        chars,
        ops,
    } = scratch;
    chars.clear();
    chars.push(AMBIG);
    let mut cols = Columns {
        tape: t2,
        chars,
        end: t2.s.len(),
    };
    // The best keyed H so far, where it is, and the X-drop floor it sets:
    // a cell lives iff its `d` is at or above the floor.
    let (mut best, mut best_i, mut best_j) = (keyed(0, TB_H_FROM_H), 0, 0);
    let mut floor = -xdrop;

    // Row 0: the origin cell plus the leading-gap E chain. `tb_pool` keeps
    // its length between extensions; `tb_len` is this one's.
    tb_rows.clear();
    for row in [&mut *prev, &mut *cur] {
        put(row, 0, DEAD_CELL);
    }
    let origin = Cell {
        h: best,
        f: DEAD_KEY,
        d: best,
    };
    put(prev, 1, origin);
    put(tb_pool, 0, TB_H_START);
    let rule = (&mv, floor);
    let width = e_chain(
        &mut cols,
        (0, 1),
        (best, DEAD_KEY),
        rule,
        prev,
        (tb_pool, 0),
    );
    put(prev, width + 1, DEAD_CELL);
    tb_rows.push((0, 0));
    let (mut cells, mut tb_len) = (width, width);

    // The previous row's live band: columns `lo .. lo + pw`, stored at
    // `prev[at .. at + pw]`.
    let (mut lo, mut at, mut pw) = (0usize, 1usize, width);

    for i in 1..=t1.s.len() {
        let c1 = t1.get(i - 1);
        if c1 == SENTINEL {
            break;
        }
        // No column holds a sentinel, so recoded that way a `c1` that is
        // not a nucleotide matches nothing.
        let c1 = if is_nucleotide(c1) { c1 } else { SENTINEL };
        // Columns lo .. lo + pw exist (the previous band does); column
        // lo + pw is the one the band may grow into.
        let grows = cols.has(lo + pw);
        let n = pw + usize::from(grows);
        if cur.len() <= n {
            cur.resize(n + 1, DEAD_CELL);
        }
        if tb_pool.len() < tb_len + n {
            tb_pool.resize(tb_len + n, TB_H_DEAD);
        }
        let (left, rose) = band(
            &prev[at - 1..at + n],
            &mut cur[1..=n],
            &mut tb_pool[tb_len..tb_len + n],
            (&cols.chars[lo..lo + n], c1),
            &mv,
            xdrop,
            (&mut best, &mut floor),
        );
        if let Some(k) = rose {
            (best_i, best_j) = (i, lo + k);
        }
        // Beyond the right edge only the E chain can live; the row
        // ends where the chain dies or the tape does.
        let rule = (&mv, floor);
        let width = e_chain(&mut cols, (lo, n), left, rule, cur, (tb_pool, tb_len));
        put(cur, width + 1, DEAD_CELL);
        tb_rows.push((lo, tb_len));
        cells += width;
        tb_len += width;
        // The live span: dead cells hold DEAD_KEY, live ones a `d` at or
        // above the floor. The band moves a column or two per row, so both
        // scans stop within a cell or two (they measured as fast as
        // tracking the span in the loop, which then carries two more
        // registers).
        let live = |c: &Cell| c.d != DEAD_KEY;
        let row = &cur[1..=width];
        let Some(first) = row.iter().position(live) else {
            break;
        };
        let last = width - 1 - row.iter().rev().position(live).unwrap_or(0);
        (lo, at, pw) = (lo + first, first + 1, last - first + 1);
        std::mem::swap(prev, cur);
        if cells > params.max_cells {
            break;
        }
    }

    // Traceback from the best H cell.
    let (mut i, mut j) = (best_i, best_j);
    // 0 = H, 1 = E, 2 = F
    let mut state = 0u8;
    while !(i == 0 && j == 0 && state == 0) {
        let (row_lo, offset) = tb_rows[i];
        debug_assert!(j >= row_lo, "traceback out of band");
        let byte = tb_pool[offset + (j - row_lo)];
        match state {
            0 => {
                let src = byte & TB_H_MASK;
                debug_assert_ne!(src, TB_H_DEAD, "traceback hit a dead cell");
                if src == TB_H_START {
                    break;
                }
                ops.push(if params.scheme.is_match(t1.get(i - 1), cols.chars[j]) {
                    AlignOp::Match
                } else {
                    AlignOp::Mismatch
                });
                i -= 1;
                j -= 1;
                state = match src {
                    TB_H_FROM_H => 0,
                    TB_H_FROM_E => 1,
                    _ => 2,
                };
            }
            1 => {
                ops.push(AlignOp::Del);
                j -= 1;
                state = u8::from(byte & TB_E_EXTEND != 0);
            }
            _ => {
                ops.push(AlignOp::Ins);
                i -= 1;
                state = if byte & TB_F_EXTEND != 0 { 2 } else { 0 };
            }
        }
    }

    (best >> 2, best_i, best_j, cells)
}

/// Extends rightward from `(o1, o2)`: the first aligned pair considered is
/// `d1[o1]` / `d2[o2]`.
pub fn extend_gapped_right<'s>(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
    scratch: &'s mut GappedScratch,
) -> GappedExtension<'s> {
    scratch.ops.clear();
    let span = params.max_span;
    let (score, len1, len2, cells) = xdrop_dp(
        Tape::right(d1, o1, span),
        Tape::right(d2, o2, span),
        params,
        scratch,
    );
    scratch.ops.reverse();
    GappedExtension {
        score,
        len1,
        len2,
        ops: &scratch.ops,
        cells,
    }
}

/// Extends leftward from `(o1, o2)`: the first aligned pair considered is
/// `d1[o1]` / `d2[o2]`, walking toward lower positions. Ops come back in
/// left-to-right (original) order — the order the traceback of a leftward
/// DP walks them in. Step 3 extends both ways at once
/// ([`extend_gapped_both`]); the tests extend one side.
#[cfg(test)]
fn extend_gapped_left<'s>(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
    scratch: &'s mut GappedScratch,
) -> GappedExtension<'s> {
    scratch.ops.clear();
    let span = params.max_span;
    let (score, len1, len2, cells) = xdrop_dp(
        Tape::left(d1, o1, span),
        Tape::left(d2, o2, span),
        params,
        scratch,
    );
    GappedExtension {
        score,
        len1,
        len2,
        ops: &scratch.ops,
        cells,
    }
}

/// Two-sided gapped extension around the midpoint pair `(m1, m2)` — the
/// step-3 operation. The right half starts at `(m1, m2)` inclusive; the
/// left half starts at `(m1-1, m2-1)`.
///
/// Returns the merged extension plus the global start coordinates
/// `(start1, start2)` of the alignment on each array.
pub fn extend_gapped_both<'s>(
    d1: &[u8],
    d2: &[u8],
    m1: usize,
    m2: usize,
    params: &GappedParams,
    scratch: &'s mut GappedScratch,
) -> (GappedExtension<'s>, usize, usize) {
    scratch.ops.clear();
    let span = params.max_span;
    // The left half first: its traceback already runs left to right, so
    // the right half's (reversed in place) lands behind it.
    let left = if m1 > 0 && m2 > 0 {
        xdrop_dp(
            Tape::left(d1, m1 - 1, span),
            Tape::left(d2, m2 - 1, span),
            params,
            scratch,
        )
    } else {
        (0, 0, 0, 0)
    };
    let split = scratch.ops.len();
    let right = xdrop_dp(
        Tape::right(d1, m1, span),
        Tape::right(d2, m2, span),
        params,
        scratch,
    );
    scratch.ops[split..].reverse();
    let merged = GappedExtension {
        score: left.0 + right.0,
        len1: left.1 + right.1,
        len2: left.2 + right.2,
        ops: &scratch.ops,
        cells: left.3 + right.3,
    };
    (merged, m1 - left.1, m2 - left.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::AlignStats;
    use crate::exact::gotoh_local;
    use oris_seqio::nuc_from_char;
    use proptest::prelude::*;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes().map(nuc_from_char).collect()
    }

    fn params(xdrop: i32) -> GappedParams {
        GappedParams {
            scheme: ScoringScheme::blastn(),
            xdrop,
            max_span: 1 << 16,
            max_cells: 1 << 22,
        }
    }

    #[test]
    fn identical_sequences_extend_fully() {
        let mut scratch = GappedScratch::new();
        let a = codes("ACGTACGTAC");
        let out = extend_gapped_right(&a, &a, 0, 0, &params(20), &mut scratch);
        assert_eq!(out.score, 10);
        assert_eq!(out.len1, 10);
        assert_eq!(out.len2, 10);
        assert_eq!(out.ops.len(), 10);
        assert!(out.ops.iter().all(|&o| o == AlignOp::Match));
    }

    #[test]
    fn empty_tapes_give_empty_extension() {
        let mut scratch = GappedScratch::new();
        let a = codes("");
        let b = codes("ACGT");
        let out = extend_gapped_right(&a, &b, 0, 0, &params(20), &mut scratch);
        assert_eq!(
            out,
            GappedExtension {
                cells: out.cells,
                ..GappedExtension::empty()
            }
        );
    }

    #[test]
    fn single_substitution_is_absorbed() {
        let mut scratch = GappedScratch::new();
        let a = codes("ACGTACGTACGT");
        let mut bv = a.clone();
        bv[5] ^= 1; // mutate one base
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(20), &mut scratch);
        assert_eq!(out.len1, 12);
        assert_eq!(out.score, 11 - 3);
        let stats = AlignStats::from_ops(out.ops);
        assert_eq!(stats.mismatches, 1);
        assert_eq!(stats.matches, 11);
    }

    #[test]
    fn insertion_produces_gap_ops() {
        let mut scratch = GappedScratch::new();
        // d2 has 2 extra bases in the middle: alignment must contain one
        // gap of length 2 (Del ops: consuming d2 only).
        let a = codes("ACGTACGTACGTACGTCCGGAATT");
        let mut bv = a.clone();
        bv.splice(12..12, codes("TT"));
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(30), &mut scratch);
        assert_eq!(out.len1, a.len());
        assert_eq!(out.len2, bv.len());
        let stats = AlignStats::from_ops(out.ops);
        assert_eq!(stats.gap_opens, 1);
        assert_eq!(stats.gap_columns, 2);
        // score: 24 matches + open + 2*extend = 24 - 5 - 4
        assert_eq!(out.score, 24 - 9);
    }

    #[test]
    fn xdrop_stops_in_mismatch_desert() {
        let mut scratch = GappedScratch::new();
        // Two mismatches (−6) separate two 12-match blocks. With xdrop 5
        // the extension dies inside the desert even though crossing it
        // would pay off (12 − 6 + 12 = 18 > 12).
        let a = codes(&format!("{}{}{}", "ACGTACGTACGT", "AA", "ACGTACGTACGT"));
        let b = codes(&format!("{}{}{}", "ACGTACGTACGT", "TT", "ACGTACGTACGT"));
        let out = extend_gapped_right(&a, &b, 0, 0, &params(5), &mut scratch);
        assert_eq!(out.len1, 12);
        assert_eq!(out.score, 12);
    }

    #[test]
    fn big_xdrop_bridges_desert() {
        let mut scratch = GappedScratch::new();
        let a = codes(&format!("{}{}{}", "ACGTACGTACGT", "AA", "ACGTACGTACGT"));
        let b = codes(&format!("{}{}{}", "ACGTACGTACGT", "TT", "ACGTACGTACGT"));
        let out = extend_gapped_right(&a, &b, 0, 0, &params(40), &mut scratch);
        assert_eq!(out.len1, 26);
        assert_eq!(out.score, 24 - 6);
    }

    #[test]
    fn extension_stops_at_sentinel() {
        let mut scratch = GappedScratch::new();
        let mut a = codes("ACGTAC");
        a.push(SENTINEL);
        a.extend(codes("GGGGGG"));
        let b = codes("ACGTACGGGGGG");
        let out = extend_gapped_right(&a, &b, 0, 0, &params(50), &mut scratch);
        assert_eq!(out.len1, 6, "must not align across the sentinel");
    }

    #[test]
    fn left_extension_mirrors_right() {
        let mut scratch = GappedScratch::new();
        let a = codes("ACGTACGTAC");
        let out_r = extend_gapped_right(&a, &a, 0, 0, &params(20), &mut scratch);
        let (score_r, len1_r) = (out_r.score, out_r.len1);
        let end = a.len() - 1;
        let out_l = extend_gapped_left(&a, &a, end, end, &params(20), &mut scratch);
        assert_eq!(score_r, out_l.score);
        assert_eq!(len1_r, out_l.len1);
    }

    #[test]
    fn both_extension_covers_whole_region() {
        let mut scratch = GappedScratch::new();
        let s = "ACGTACGTACGTGGCCACGT";
        let a = codes(s);
        let (merged, start1, start2) =
            extend_gapped_both(&a, &a, 10, 10, &params(20), &mut scratch);
        assert_eq!(start1, 0);
        assert_eq!(start2, 0);
        assert_eq!(merged.len1, s.len());
        assert_eq!(merged.score, s.len() as i32);
    }

    #[test]
    fn ops_consume_correct_lengths() {
        let mut scratch = GappedScratch::new();
        let a = codes("ACGTACGTACGTACGTCCGGAATT");
        let mut bv = a.clone();
        bv.splice(10..10, codes("GG"));
        bv[3] ^= 2;
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(30), &mut scratch);
        let stats = AlignStats::from_ops(out.ops);
        assert_eq!(stats.consumed1, out.len1);
        assert_eq!(stats.consumed2, out.len2);
    }

    /// Deterministic random codes / draws for the kernel tests.
    struct Gen(proptest::test_runner::TestRng);

    impl Gen {
        fn new(seed: u64) -> Gen {
            Gen(proptest::test_runner::TestRng::for_test(&seed.to_string()))
        }

        /// Uniform draw from `lo..=hi`.
        fn draw(&mut self, lo: usize, hi: usize) -> usize {
            self.0.in_range_u64(lo as u64, hi as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.draw(1, n) == 1
        }

        fn codes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.draw(0, 3) as u8).collect()
        }

        /// A copy of `base` with substitutions (one per `sub` characters)
        /// and indels of 1 to `run` bases (one per `indel`), plus for every
        /// base position the copy's position it maps to.
        fn mutate(
            &mut self,
            base: &[u8],
            sub: usize,
            (indel, run): (usize, usize),
        ) -> (Vec<u8>, Vec<usize>) {
            let (mut out, mut map) = (Vec::new(), Vec::new());
            let mut skip = 0;
            for &c in base {
                map.push(out.len());
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                if self.one_in(indel) {
                    let n = if run > 1 { self.draw(1, run) } else { 1 };
                    if self.one_in(2) {
                        skip = n - 1;
                        continue; // deletion
                    }
                    for _ in 0..n {
                        out.push(self.draw(0, 3) as u8); // insertion
                    }
                }
                out.push(if self.one_in(sub) { c ^ 1 } else { c });
            }
            (out, map)
        }
    }

    /// The growth-retry bug the tape views removed: a band that runs into
    /// the sentinel-terminated end of a short sequence, opposite a tape
    /// cut at the copy cap, used to re-copy the *other* record at 32 768,
    /// 262 144 and `max_span` characters for an identical result. The
    /// kernel must return exactly what that reference returns and must
    /// not have looked at — let alone kept room for — the megabase.
    #[test]
    fn short_sequence_against_a_megabase_stays_band_sized() {
        let mut g = Gen::new(7);
        let mut d2 = g.codes(1 << 20);
        let mut d1 = vec![SENTINEL];
        d1.extend_from_slice(&d2[500_000..500_300]);
        d1[100] ^= 1;
        d1.push(SENTINEL);
        d1.extend(g.codes(50));
        d2.push(SENTINEL);
        let p = GappedParams::default();
        let mut scratch = GappedScratch::new();
        let (got, s1, s2) = extend_gapped_both(&d1, &d2, 151, 500_150, &p, &mut scratch);
        let (want, w1, w2) = oracle::extend_both(&d1, &d2, 151, 500_150, &p);
        assert_eq!(
            (got.score, got.len1, got.len2, got.ops, s1, s2),
            (want.score, want.len1, want.len2, &want.ops[..], w1, w2)
        );
        assert_eq!((got.len1, s1), (300, 1), "the whole short sequence aligns");
        let kept = scratch.retained_bytes();
        assert!(kept < 64 << 10, "scratch retains {kept} bytes");
    }

    /// At the x-drop bound on a 100 kb tape, the band spans the whole tape
    /// and step 3's cell cap (`MAX_GAPPED_CELLS`, 2^24) stops the
    /// extension: live values sink as low as the kernel lets them, beside
    /// dead ones. A debug build checks every add of the run for overflow,
    /// and the result must still be the oracle's.
    #[test]
    #[cfg(debug_assertions)]
    fn the_xdrop_bound_runs_to_the_cell_cap_without_overflow() {
        let mut g = Gen::new(11);
        let d1 = g.codes(100_000);
        // The same sequence with a base deleted or inserted every 20.
        let mut d2 = Vec::new();
        for (k, &c) in d1.iter().enumerate() {
            match k % 40 {
                10 => continue,
                30 => d2.extend([c, c ^ 1]),
                _ => d2.push(c),
            }
        }
        let p = GappedParams {
            xdrop: MAX_XDROP,
            max_cells: 1 << 24,
            ..GappedParams::default()
        };
        let mut scratch = GappedScratch::new();
        let got = extend_gapped_right(&d1, &d2, 0, 0, &p, &mut scratch);
        let want = oracle::extend_right(&d1, &d2, 0, 0, &p);
        assert_eq!(
            (got.score, got.len1, got.len2),
            (want.score, want.len1, want.len2)
        );
        assert!(got.ops == &want.ops[..]);
        assert!(got.cells > p.max_cells, "{} cells", got.cells);
    }

    proptest! {
        /// With a saturating xdrop, the two-sided extension through a
        /// planted exact core scores at least the Gotoh local optimum of
        /// the surrounding window (they coincide when the optimum passes
        /// through the core, which a long planted core guarantees).
        #[test]
        fn matches_gotoh_on_planted_homology(
            prefix in "[ACGT]{0,15}",
            suffix in "[ACGT]{0,15}",
            core in "[ACGT]{16,24}",
            noise1 in "[ACGT]{0,10}",
            noise2 in "[ACGT]{0,10}",
        ) {
            let s1 = format!("{noise1}{core}{prefix}");
            let s2 = format!("{noise2}{core}{suffix}");
            let d1 = codes(&s1);
            let d2 = codes(&s2);
            let m1 = noise1.len() + core.len() / 2;
            let m2 = noise2.len() + core.len() / 2;
            let p = GappedParams { scheme: ScoringScheme::blastn(), xdrop: 1000, max_span: 1 << 12, max_cells: 1 << 22 };
            let mut scratch = GappedScratch::new();
            let (merged, _, _) = extend_gapped_both(&d1, &d2, m1, m2, &p, &mut scratch);
            let oracle = gotoh_local(&d1, &d2, &p.scheme);
            // The oracle is an upper bound; through-midpoint extension must
            // reach at least the core score.
            prop_assert!(merged.score <= oracle.score);
            prop_assert!(merged.score >= core.len() as i32);
        }

        /// Traceback op counts always agree with consumed lengths and the
        /// score recomputed from ops matches the DP score.
        #[test]
        fn traceback_is_self_consistent(s1 in "[ACGT]{1,40}", s2 in "[ACGT]{1,40}") {
            let d1 = codes(&s1);
            let d2 = codes(&s2);
            let p = params(15);
            let mut scratch = GappedScratch::new();
            let out = extend_gapped_right(&d1, &d2, 0, 0, &p, &mut scratch);
            let stats = AlignStats::from_ops(out.ops);
            prop_assert_eq!(stats.consumed1, out.len1);
            prop_assert_eq!(stats.consumed2, out.len2);
            prop_assert_eq!(stats.score(&p.scheme), out.score);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential test: the production kernel against the oracle, on
        /// homologous tapes with planted substitutions and
        /// indels, sentinels anywhere on either tape, tape lengths on
        /// both sides of the oracle's 4 096 and 32 768 copy caps, origins
        /// at the first / last / past-the-last position, starved
        /// `max_cells` and `max_span`, in all three directions.
        #[test]
        fn kernel_matches_oracle(seed in 0u64..u64::MAX) {
            let mut g = Gen::new(seed);
            let len = match g.draw(0, 5) {
                0 => g.draw(0, 40),
                1 => g.draw(40, 600),
                2 | 3 => 4096 + g.draw(0, 8) - 4,
                4 => 8192 + g.draw(0, 600),
                _ => 32768 + g.draw(0, 8) - 4,
            };
            let base = g.codes(len);
            let (sub, indel) = (g.draw(8, 60), g.draw(6, 400));
            let (copy, map) = g.mutate(&base, sub, (indel, 1));
            // Flanks: unrelated sequence, behind a sentinel or not.
            let frame = |g: &mut Gen, core: &[u8]| -> (Vec<u8>, usize) {
                let head = g.draw(0, 30);
                let mut d = g.codes(head);
                if g.one_in(2) {
                    d.push(SENTINEL);
                }
                let offset = d.len();
                d.extend_from_slice(core);
                if g.one_in(2) {
                    d.push(SENTINEL);
                }
                let tail = g.draw(0, 30);
                d.extend(g.codes(tail));
                (d, offset)
            };
            let (mut d1, off1) = frame(&mut g, &base);
            let (mut d2, off2) = frame(&mut g, &copy);
            for d in [&mut d1, &mut d2] {
                if g.one_in(3) {
                    let at = g.draw(0, d.len() - 1);
                    d[at] = SENTINEL;
                }
            }
            // Origins: a homologous pair, or an end of either array.
            let (mut m1, mut m2) = (d1.len() / 2, d2.len() / 2);
            if !base.is_empty() {
                let at = match g.draw(0, 3) {
                    0 => 0,
                    1 => len - 1,
                    _ => g.draw(0, len - 1),
                };
                (m1, m2) = (off1 + at, (off2 + map[at]).min(d2.len() - 1));
            }
            match g.draw(0, 11) {
                0 => m1 = 0,
                1 => m2 = 0,
                2 => m1 = d1.len() - 1,
                3 => m2 = d2.len() - 1,
                4 => m1 = d1.len(),
                _ => {}
            }
            let p = GappedParams {
                scheme: if g.one_in(3) { ScoringScheme::megablast() } else { ScoringScheme::blastn() },
                xdrop: [3, 10, 25, 40][g.draw(0, 3)],
                max_span: if g.one_in(4) { g.draw(0, 5000) } else { 1 << 20 },
                max_cells: if g.one_in(5) { g.draw(0, 3000) } else { 1 << 22 },
            };
            agrees_with_oracle((&d1, &d2), (m1, m2), &p, g.draw(0, 2))?;
        }

        /// Tie-heavy differential test. Low-complexity tapes — poly-A,
        /// `(AC)n`, `(AAC)n` and tandem copies of a short random unit — with
        /// sparse substitutions and clustered indels of 1 to 3 bases hold
        /// many equal-scoring paths, so the tie rules decide the ops: `H`
        /// before `E` before `F` in a cell's key, and open before extend in
        /// a gap move (two gaps a base apart in a repeat tie `D=DD` with
        /// `DD=D`). Both schemes (megablast's −2/−1 gaps make such ties
        /// often), x-drops 3 to 40, all three directions; origins on the
        /// homologous diagonal or a unit or two off it.
        #[test]
        fn kernel_matches_oracle_on_ties(seed in 0u64..u64::MAX) {
            let mut g = Gen::new(seed);
            let unit = match g.draw(0, 3) {
                0 => codes("A"),
                1 => codes("AC"),
                2 => codes("AAC"),
                _ => {
                    let n = g.draw(2, 6);
                    g.codes(n)
                }
            };
            let len = if g.one_in(4) { g.draw(600, 3000) } else { g.draw(10, 600) };
            let base: Vec<u8> = unit.iter().cycle().take(len).copied().collect();
            let (sub, indel, run) = (g.draw(15, 200), g.draw(4, 40), g.draw(1, 3));
            let (copy, map) = g.mutate(&base, sub, (indel, run));
            let flank = |g: &mut Gen| {
                let n = g.draw(0, 8);
                g.codes(n)
            };
            let (head1, head2) = (flank(&mut g), flank(&mut g));
            let d1: Vec<u8> = [&head1[..], &base, &flank(&mut g)].concat();
            let d2: Vec<u8> = [&head2[..], &copy, &flank(&mut g)].concat();
            let at = g.draw(0, len - 1);
            let shift = unit.len() * g.draw(0, 2);
            let m1 = head1.len() + at;
            let m2 = (head2.len() + map[at] + shift).min(d2.len() - 1);
            let p = GappedParams {
                scheme: if g.one_in(2) { ScoringScheme::megablast() } else { ScoringScheme::blastn() },
                xdrop: [3, 10, 25, 40][g.draw(0, 3)],
                ..params(0)
            };
            agrees_with_oracle((&d1, &d2), (m1, m2), &p, g.draw(0, 2))?;
        }
    }

    /// Runs one extension from `(m1, m2)` — rightward (`dir` 0), leftward
    /// (1) or both ways (2) — through the kernel and the oracle, which
    /// must agree on score, lengths, ops and the two-sided starts. One
    /// scratch serves every call on a thread, so state a call leaves behind
    /// would surface in the next.
    fn agrees_with_oracle(
        (d1, d2): (&[u8], &[u8]),
        (m1, m2): (usize, usize),
        p: &GappedParams,
        dir: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<GappedScratch> = Default::default();
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (want, got, starts) = match dir {
                0 => (
                    oracle::extend_right(d1, d2, m1, m2, p),
                    extend_gapped_right(d1, d2, m1, m2, p, scratch),
                    None,
                ),
                1 => (
                    oracle::extend_left(d1, d2, m1, m2, p),
                    extend_gapped_left(d1, d2, m1, m2, p, scratch),
                    None,
                ),
                _ => {
                    let (want, w1, w2) = oracle::extend_both(d1, d2, m1, m2, p);
                    let (got, s1, s2) = extend_gapped_both(d1, d2, m1, m2, p, scratch);
                    (want, got, Some(((w1, w2), (s1, s2))))
                }
            };
            prop_assert_eq!(got.score, want.score);
            prop_assert_eq!((got.len1, got.len2), (want.len1, want.len2));
            prop_assert!(got.ops == &want.ops[..]);
            if let Some((want_starts, got_starts)) = starts {
                prop_assert_eq!(got_starts, want_starts);
            }
            Ok(())
        })
    }
}
