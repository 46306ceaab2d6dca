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
//!   bound and at `max_span`; nothing is copied. The sentinel that ends a
//!   tape is found *as the band reaches it* (a row stops at a sentinel on
//!   tape 1, `Columns` discovers tape 2's end one column at a time), so
//!   an extension next to a chromosome-sized record never looks further
//!   into it than its band goes.
//! * **Rows live in a [`GappedScratch`]** the caller keeps per worker:
//!   `H/E/F` rows are double-buffered and *band-relative* (index 0 is the
//!   row's first computed column), so the scratch holds O(band) cells
//!   whatever the tape lengths; the traceback pool, its row table and the
//!   ops buffer grow to the largest alignment seen and are reused. After
//!   warm-up an extension allocates nothing.
//! * **A row is four segments**: the left edge (no diagonal, no
//!   horizontal predecessor), the interior (all three predecessors inside
//!   the previous band — no probes), the right edge (no vertical
//!   predecessor) and the `E` chain that may run on beyond the previous
//!   band. Cells are pre-filled dead and written by index; only the `E`
//!   chain pushes.
//!
//! The two-sided entry point [`extend_gapped_both`] runs both halves
//! around the HSP midpoint into one ops buffer, exactly as step 3 needs
//! them. The kernel this replaced lives on under `#[cfg(test)]` as the
//! oracle of a differential proptest.

use oris_seqio::alphabet::SENTINEL;

use crate::cigar::AlignOp;
use crate::scoring::ScoringScheme;

#[cfg(test)]
mod oracle;

const NEG: i32 = i32::MIN / 4;

// Traceback encoding: bits 0..2 = H source, bit 3 = E source, bit 4 = F source.
const TB_H_FROM_H: u8 = 0;
const TB_H_FROM_E: u8 = 1;
const TB_H_FROM_F: u8 = 2;
const TB_H_START: u8 = 3;
const TB_H_DEAD: u8 = 7;
const TB_H_MASK: u8 = 0b111;
const TB_E_EXTEND: u8 = 1 << 3;
const TB_F_EXTEND: u8 = 1 << 4;

/// Parameters of the gapped extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedParams {
    /// Scoring scheme (affine gaps).
    pub scheme: ScoringScheme,
    /// X-drop threshold (positive).
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
}

impl GappedExtension<'_> {
    /// The empty extension.
    pub fn empty() -> GappedExtension<'static> {
        GappedExtension {
            score: 0,
            len1: 0,
            len2: 0,
            ops: &[],
        }
    }
}

/// The three states of one DP cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    h: i32,
    e: i32,
    f: i32,
}

const DEAD: Cell = Cell {
    h: NEG,
    e: NEG,
    f: NEG,
};

/// Working memory of the X-drop kernel, kept by the caller — one per
/// worker — and reused across extensions so that none of them allocates.
///
/// The two rows hold O(band) cells however long the tapes are; the
/// traceback pool (one byte per computed cell), its row table and the
/// ops buffer keep the capacity of the largest extension they have seen.
#[derive(Debug, Default)]
pub struct GappedScratch {
    /// The previous and the current DP row, band-relative: index 0 is the
    /// first column the row computed.
    prev: Vec<Cell>,
    cur: Vec<Cell>,
    /// Traceback bytes of every computed cell, row after row.
    tb_pool: Vec<u8>,
    /// Per row: its first column and where its bytes start in `tb_pool`.
    tb_rows: Vec<(usize, usize)>,
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
            + self.ops.capacity() * std::mem::size_of::<AlignOp>()
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
/// The DP asks for columns in order, so each character is tested once.
struct Columns<'a, const LEFT: bool> {
    tape: Tape<'a, LEFT>,
    /// Columns `1..=known` exist.
    known: usize,
    /// No column beyond `end` exists.
    end: usize,
}

impl<const LEFT: bool> Columns<'_, LEFT> {
    #[inline(always)]
    fn has(&mut self, j: usize) -> bool {
        if j <= self.known {
            return true;
        }
        debug_assert_eq!(j, self.known + 1, "columns are discovered in order");
        if j > self.end {
            return false;
        }
        if self.tape.get(j - 1) == SENTINEL {
            self.end = self.known;
            return false;
        }
        self.known = j;
        true
    }
}

/// A candidate value for one state of a cell, with its traceback bits.
type Move = (i32, u8);

const NO_MOVE: Move = (NEG, 0);
const NO_DIAGONAL: Move = (NEG, TB_H_DEAD);

/// Best of the gap-open and gap-extend moves into an `E` or `F` state,
/// with the traceback bit of the winner (`extend_bit` or 0). Ties open.
#[inline(always)]
fn gap_move(from_h: i32, from_gap: i32, open_ext: i32, ext: i32, extend_bit: u8) -> Move {
    let opened = from_h + open_ext;
    let extended = from_gap + ext;
    if opened >= extended {
        (opened, 0)
    } else {
        (extended, extend_bit)
    }
}

/// The diagonal move out of the best state of `from` (ties prefer H,
/// then E), scoring `pair`; dead when `from` is.
#[inline(always)]
fn diagonal_move(from: Cell, pair: i32) -> Move {
    let (mut v, mut src) = (from.h, TB_H_FROM_H);
    if from.e > v {
        (v, src) = (from.e, TB_H_FROM_E);
    }
    if from.f > v {
        (v, src) = (from.f, TB_H_FROM_F);
    }
    if v <= NEG / 2 {
        NO_DIAGONAL
    } else {
        (v + pair, src)
    }
}

/// What the sweep over the rows accumulates: the best cell so far and
/// the live span of the row in progress.
struct Sweep {
    xdrop: i32,
    best: i32,
    best_i: usize,
    best_j: usize,
    /// First and last live cell of the current row, band-relative
    /// (`first == usize::MAX`: none yet).
    first: usize,
    last: usize,
}

impl Sweep {
    /// Whether a cell whose best state is `val` survives the X-drop.
    #[inline(always)]
    fn alive(&self, val: i32) -> bool {
        val >= self.best - self.xdrop
    }

    /// Settles cell `k` of row `i` (column `j`) from its three candidate
    /// moves. A dead cell keeps its pre-filled `DEAD` values; a live one
    /// is stored, may raise the best score, and hands its `(H, E)` to its
    /// right neighbour.
    ///
    /// The two `cold_path` hints are measured, not decoration: a row has
    /// one first live cell and the best score rises on a few cells per
    /// row, yet compiled as conditional moves these updates ran on every
    /// cell and spilled the loop's registers — the kernel over the 19 588
    /// HSPs of the `genome_repeats` benchmark inputs took 0.73 s with
    /// them, 0.49 s as (never-taken) branches.
    #[inline(always)]
    fn settle(
        &mut self,
        (i, j, k): (usize, usize, usize),
        (hv, ev, fv): (Move, Move, Move),
        cell: &mut Cell,
        tb: &mut u8,
    ) -> (i32, i32) {
        if !self.alive(hv.0.max(ev.0).max(fv.0)) {
            return (NEG, NEG);
        }
        if self.first == usize::MAX {
            std::hint::cold_path();
            self.first = k;
        }
        self.last = k;
        if hv.0 > self.best {
            std::hint::cold_path();
            (self.best, self.best_i, self.best_j) = (hv.0, i, j);
        }
        *cell = Cell {
            h: hv.0,
            e: ev.0,
            f: fv.0,
        };
        *tb = hv.1 | ev.1 | fv.1;
        (hv.0, ev.0)
    }
}

/// Forward X-drop DP from the tapes' origins. Returns `(score, len1,
/// len2)` of the best path and appends its ops to `scratch.ops` **from
/// the far end back to the origin** (the order the traceback walks).
fn xdrop_dp<const LEFT: bool>(
    t1: Tape<'_, LEFT>,
    t2: Tape<'_, LEFT>,
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> (i32, usize, usize) {
    let scheme = &params.scheme;
    let (open_ext, ext) = (scheme.gap_open + scheme.gap_extend, scheme.gap_extend);
    let GappedScratch {
        prev,
        cur,
        tb_pool,
        tb_rows,
        ops,
    } = scratch;
    let mut cols = Columns {
        tape: t2,
        known: 0,
        end: t2.s.len(),
    };
    let mut sweep = Sweep {
        xdrop: params.xdrop,
        best: 0,
        best_i: 0,
        best_j: 0,
        first: 0,
        last: 0,
    };

    // Row 0: the origin cell plus the leading-gap E chain.
    tb_pool.clear();
    tb_rows.clear();
    prev.clear();
    prev.push(Cell { h: 0, ..DEAD });
    tb_pool.push(TB_H_START);
    let (mut left_h, mut left_e) = (0, NEG);
    while cols.has(prev.len()) {
        let (e, ebit) = gap_move(left_h, left_e, open_ext, ext, TB_E_EXTEND);
        if !sweep.alive(e) {
            break;
        }
        prev.push(Cell { e, ..DEAD });
        tb_pool.push(TB_H_DEAD | ebit);
        (left_h, left_e) = (NEG, e);
    }
    tb_rows.push((0, 0));
    let mut cells = prev.len();

    // The previous row's live band: columns `lo .. lo + pw`, stored at
    // `prev[poff .. poff + pw]`.
    let (mut lo, mut poff, mut pw) = (0usize, 0usize, prev.len());

    for i in 1..=t1.s.len() {
        let c1 = t1.get(i - 1);
        if c1 == SENTINEL {
            break;
        }
        let above = &prev[poff..poff + pw];
        // Columns lo .. lo + pw exist (the previous band does); column
        // lo + pw is the one the band may grow into.
        let grows = cols.has(lo + pw);
        let n = pw + usize::from(grows);
        cur.clear();
        cur.resize(n, DEAD);
        let tb_offset = tb_pool.len();
        tb_pool.resize(tb_offset + n, TB_H_DEAD);
        (sweep.first, sweep.last) = (usize::MAX, 0);

        let (row, tb) = (&mut cur[..n], &mut tb_pool[tb_offset..tb_offset + n]);
        // Left edge: only the vertical move reaches column lo.
        let fv = gap_move(above[0].h, above[0].f, open_ext, ext, TB_F_EXTEND);
        let moves = (NO_DIAGONAL, NO_MOVE, fv);
        let (mut left_h, mut left_e) = sweep.settle((i, lo, 0), moves, &mut row[0], &mut tb[0]);
        // Interior: all three predecessors lie inside the previous
        // band — cell k has above[k − 1] on its diagonal, above[k]
        // over it and cell k − 1 to its left.
        let interior = above.windows(2).zip(row[1..].iter_mut().zip(&mut tb[1..]));
        for (k, (up, (cell, tb))) in (1..).zip(interior) {
            let hv = diagonal_move(up[0], scheme.pair(c1, t2.get(lo + k - 1)));
            let fv = gap_move(up[1].h, up[1].f, open_ext, ext, TB_F_EXTEND);
            let ev = gap_move(left_h, left_e, open_ext, ext, TB_E_EXTEND);
            (left_h, left_e) = sweep.settle((i, lo + k, k), (hv, ev, fv), cell, tb);
        }
        if grows {
            // Right edge: nothing above column lo + pw.
            let hv = diagonal_move(above[pw - 1], scheme.pair(c1, t2.get(lo + pw - 1)));
            let ev = gap_move(left_h, left_e, open_ext, ext, TB_E_EXTEND);
            let at = (i, lo + pw, pw);
            (left_h, left_e) = sweep.settle(at, (hv, ev, NO_MOVE), &mut row[pw], &mut tb[pw]);
        }
        // Beyond the right edge only the E chain can live; the row
        // ends where the chain dies or the tape does.
        while grows && cols.has(lo + cur.len()) {
            let (e, ebit) = gap_move(left_h, left_e, open_ext, ext, TB_E_EXTEND);
            // The cell's H and F are dead, so its best state is max(E, NEG).
            if !sweep.alive(e.max(NEG)) {
                break;
            }
            if sweep.first == usize::MAX {
                sweep.first = cur.len();
            }
            sweep.last = cur.len();
            cur.push(Cell { e, ..DEAD });
            tb_pool.push(TB_H_DEAD | ebit);
            (left_h, left_e) = (NEG, e);
        }

        cells += cur.len();
        tb_rows.push((lo, tb_offset));
        if sweep.first == usize::MAX {
            break;
        }
        (lo, poff, pw) = (lo + sweep.first, sweep.first, sweep.last - sweep.first + 1);
        std::mem::swap(prev, cur);
        if cells > params.max_cells {
            break;
        }
    }

    // Traceback from the best H cell.
    let (mut i, mut j) = (sweep.best_i, sweep.best_j);
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
                ops.push(if scheme.is_match(t1.get(i - 1), t2.get(j - 1)) {
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

    (sweep.best, sweep.best_i, sweep.best_j)
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
    let (score, len1, len2) = xdrop_dp(
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
    }
}

/// Extends leftward from `(o1, o2)`: the first aligned pair considered is
/// `d1[o1]` / `d2[o2]`, walking toward lower positions. Ops come back in
/// left-to-right (original) order — the order the traceback of a leftward
/// DP walks them in.
pub fn extend_gapped_left<'s>(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
    scratch: &'s mut GappedScratch,
) -> GappedExtension<'s> {
    scratch.ops.clear();
    let span = params.max_span;
    let (score, len1, len2) = xdrop_dp(
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
        (0, 0, 0)
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
        assert_eq!(out, GappedExtension::empty());
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
        /// and single-base indels (one per `indel`), plus for every base
        /// position the copy's position it maps to.
        fn mutate(&mut self, base: &[u8], sub: usize, indel: usize) -> (Vec<u8>, Vec<usize>) {
            let (mut out, mut map) = (Vec::new(), Vec::new());
            for &c in base {
                map.push(out.len());
                if self.one_in(indel) {
                    if self.one_in(2) {
                        continue; // deletion
                    }
                    out.push(self.draw(0, 3) as u8); // insertion
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

        /// Differential test: the production kernel against the oracle it
        /// replaced, on homologous tapes with planted substitutions and
        /// indels, sentinels anywhere on either tape, tape lengths on
        /// both sides of the oracle's 4 096 and 32 768 copy caps, origins
        /// at the first / last / past-the-last position, starved
        /// `max_cells` and `max_span`, in all three directions. One
        /// scratch serves every case of the run, so state a call leaves
        /// behind would surface in the next.
        #[test]
        fn kernel_matches_oracle(seed in 0u64..u64::MAX) {
            thread_local! {
                static SCRATCH: std::cell::RefCell<GappedScratch> = Default::default();
            }
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
            let (copy, map) = g.mutate(&base, sub, indel);
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
            SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                let (want, got, starts) = match g.draw(0, 2) {
                    0 => (
                        oracle::extend_right(&d1, &d2, m1, m2, &p),
                        extend_gapped_right(&d1, &d2, m1, m2, &p, scratch),
                        None,
                    ),
                    1 => (
                        oracle::extend_left(&d1, &d2, m1, m2, &p),
                        extend_gapped_left(&d1, &d2, m1, m2, &p, scratch),
                        None,
                    ),
                    _ => {
                        let (want, w1, w2) = oracle::extend_both(&d1, &d2, m1, m2, &p);
                        let (got, s1, s2) = extend_gapped_both(&d1, &d2, m1, m2, &p, scratch);
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
            })?;
        }
    }
}
