//! Test oracle for the X-drop kernel: the straightforward implementation
//! the production kernel replaced, kept verbatim and compiled only for
//! tests. It copies each tape into a fresh `Vec` (4 096 characters first,
//! 8× more whenever the band reaches the end of a cut tape), allocates
//! its rows per call and probes the previous band through `Option`s —
//! slow, and easy to read against the recurrence. The differential
//! proptest in the parent module holds the production kernel to it on
//! score, lengths, ops and start coordinates.

use oris_seqio::alphabet::SENTINEL;

use super::{
    GappedParams, TB_E_EXTEND, TB_F_EXTEND, TB_H_DEAD, TB_H_FROM_E, TB_H_FROM_F, TB_H_FROM_H,
    TB_H_MASK, TB_H_START,
};
use crate::cigar::AlignOp;

/// The oracle's dead value, with its dead-diagonal select below.
const NEG: i32 = i32::MIN / 4;

/// An extension with owned ops, listed left to right on the arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct OracleExtension {
    pub score: i32,
    pub len1: usize,
    pub len2: usize,
    pub ops: Vec<AlignOp>,
}

/// Copies the extension tape starting at `origin` in direction `dir`
/// (`+1` right, `-1` left), stopping at a sentinel, the array bounds or
/// `max_span` characters.
///
/// Callers pass an adaptive `max_span` (see `xdrop_dp_adaptive`):
/// copying to the next sentinel unconditionally would move whole
/// chromosome tails per extension, while the X-drop band typically dies
/// within a few hundred columns.
fn materialize(d: &[u8], origin: usize, dir: i64, max_span: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = origin as i64;
    while out.len() < max_span && pos >= 0 && (pos as usize) < d.len() {
        let c = d[pos as usize];
        if c == SENTINEL {
            break;
        }
        out.push(c);
        pos += dir;
    }
    out
}

/// Forward X-drop DP over two sentinel-free tapes.
///
/// Traceback bytes for all rows live in one contiguous pool (`tb_pool`)
/// with per-row `(lo, offset, len)` descriptors, and the three working
/// state vectors are double-buffered — the loop performs no per-row
/// allocations, which matters because step 3 runs this DP once per
/// surviving HSP.
/// Returns the extension plus a `hit_end` flag: `true` when the live band
/// reached the end of either tape, i.e. a longer tape *could* change the
/// result (used by the adaptive-growth wrappers).
fn xdrop_dp(t1: &[u8], t2: &[u8], params: &GappedParams) -> (OracleExtension, bool) {
    let scheme = &params.scheme;
    let (open, ext) = (scheme.gap_open, scheme.gap_extend);
    let n1 = t1.len();
    let n2 = t2.len();

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;

    // Previous row working band: columns [plo, plo + ph.len()).
    let mut plo = 0usize;
    let mut ph: Vec<i32> = vec![0];
    let mut pe: Vec<i32> = vec![NEG];
    let mut pf: Vec<i32> = vec![NEG];

    // Traceback storage: one pool, one (lo, offset, len) descriptor per row.
    let mut tb_pool: Vec<u8> = Vec::with_capacity(256);
    let mut tb_rows: Vec<(usize, usize, usize)> = Vec::with_capacity(64);

    // Row 0: origin cell plus the leading-gap E chain.
    {
        tb_pool.push(TB_H_START);
        let mut j = 1usize;
        while j <= n2 {
            let e_open = ph[j - 1] + open + ext;
            let e_ext = pe[j - 1] + ext;
            let (e, ebit) = if e_open >= e_ext {
                (e_open, 0u8)
            } else {
                (e_ext, TB_E_EXTEND)
            };
            if e < best - params.xdrop {
                break;
            }
            ph.push(NEG);
            pe.push(e);
            pf.push(NEG);
            tb_pool.push(TB_H_DEAD | ebit);
            j += 1;
        }
        tb_rows.push((0, 0, tb_pool.len()));
    }

    let mut cells = ph.len();
    let mut hit_end = ph.len() == n2 + 1; // row-0 E chain reached the tape end
    let mut ran_all_rows = n1 == 0;
    // Double buffers for the current row.
    let mut h: Vec<i32> = Vec::with_capacity(ph.len() + 2);
    let mut e: Vec<i32> = Vec::with_capacity(ph.len() + 2);
    let mut f: Vec<i32> = Vec::with_capacity(ph.len() + 2);

    for i in 1..=n1 {
        let phi = plo + ph.len() - 1; // last column of previous band
        let lo = plo;
        let c1 = t1[i - 1];

        h.clear();
        e.clear();
        f.clear();
        let tb_offset = tb_pool.len();

        let mut first_live: Option<usize> = None;
        let mut last_live = 0usize;

        let prev = |j: usize| -> Option<usize> {
            if j >= plo && j <= phi {
                Some(j - plo)
            } else {
                None
            }
        };

        let mut j = lo;
        while j <= n2 {
            // H: diagonal move from (i-1, j-1).
            let (hv, hsrc) = if j >= 1 {
                match prev(j - 1) {
                    Some(pi) => {
                        let (dv, dsrc) = {
                            let mut v = ph[pi];
                            let mut s = TB_H_FROM_H;
                            if pe[pi] > v {
                                v = pe[pi];
                                s = TB_H_FROM_E;
                            }
                            if pf[pi] > v {
                                v = pf[pi];
                                s = TB_H_FROM_F;
                            }
                            (v, s)
                        };
                        if dv <= NEG / 2 {
                            (NEG, TB_H_DEAD)
                        } else {
                            (dv + scheme.pair(c1, t2[j - 1]), dsrc)
                        }
                    }
                    None => (NEG, TB_H_DEAD),
                }
            } else {
                (NEG, TB_H_DEAD)
            };

            // F: vertical move from (i-1, j).
            let (fv, fbit) = match prev(j) {
                Some(pi) => {
                    let f_open = ph[pi] + open + ext;
                    let f_ext = pf[pi] + ext;
                    if f_open >= f_ext {
                        (f_open, 0u8)
                    } else {
                        (f_ext, TB_F_EXTEND)
                    }
                }
                None => (NEG, 0u8),
            };

            // E: horizontal move from (i, j-1) in the current row.
            let (ev, ebit) = if j > lo && !h.is_empty() {
                let cur = h.len() - 1;
                let e_open = h[cur] + open + ext;
                let e_ext = e[cur] + ext;
                if e_open >= e_ext {
                    (e_open, 0u8)
                } else {
                    (e_ext, TB_E_EXTEND)
                }
            } else {
                (NEG, 0u8)
            };

            let val = hv.max(ev).max(fv);
            let cutoff = best - params.xdrop;
            if val < cutoff {
                // Dead cell.
                if j > phi + 1 {
                    // Beyond the previous band only the E chain can live;
                    // once it dies the row is finished.
                    break;
                }
                h.push(NEG);
                e.push(NEG);
                f.push(NEG);
                tb_pool.push(TB_H_DEAD);
            } else {
                if first_live.is_none() {
                    first_live = Some(j);
                }
                last_live = j;
                if hv > best {
                    best = hv;
                    best_i = i;
                    best_j = j;
                }
                h.push(hv);
                e.push(ev);
                f.push(fv);
                tb_pool.push(hsrc | ebit | fbit);
            }
            j += 1;
        }

        cells += h.len();
        tb_rows.push((lo, tb_offset, tb_pool.len() - tb_offset));
        if last_live >= n2 && first_live.is_some() {
            hit_end = true; // band touched the last column
        }
        if i == n1 && first_live.is_some() {
            ran_all_rows = true; // band alive on the final row
        }

        let Some(fl) = first_live else { break };
        // Trim the working band to the live region for the next row.
        let a = fl - lo;
        let b = last_live - lo + 1;
        if a > 0 || b < h.len() {
            h.truncate(b);
            e.truncate(b);
            f.truncate(b);
            h.drain(..a);
            e.drain(..a);
            f.drain(..a);
        }
        plo = fl;
        std::mem::swap(&mut ph, &mut h);
        std::mem::swap(&mut pe, &mut e);
        std::mem::swap(&mut pf, &mut f);

        if cells > params.max_cells {
            break;
        }
    }

    // Traceback from the best H cell.
    let mut ops: Vec<AlignOp> = Vec::new();
    let (mut i, mut j) = (best_i, best_j);
    // 0 = H, 1 = E, 2 = F
    let mut state = 0u8;
    while !(i == 0 && j == 0 && state == 0) {
        let (row_lo, offset, len) = tb_rows[i];
        debug_assert!(j >= row_lo && j - row_lo < len, "traceback out of band");
        let byte = tb_pool[offset + (j - row_lo)];
        match state {
            0 => {
                let src = byte & TB_H_MASK;
                debug_assert_ne!(src, TB_H_DEAD, "traceback hit a dead cell");
                if src == TB_H_START {
                    break;
                }
                let op = if scheme.is_match(t1[i - 1], t2[j - 1]) {
                    AlignOp::Match
                } else {
                    AlignOp::Mismatch
                };
                ops.push(op);
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
                let from_ext = byte & TB_E_EXTEND != 0;
                j -= 1;
                state = if from_ext { 1 } else { 0 };
            }
            _ => {
                ops.push(AlignOp::Ins);
                let from_ext = byte & TB_F_EXTEND != 0;
                i -= 1;
                state = if from_ext { 2 } else { 0 };
            }
        }
    }
    ops.reverse();

    (
        OracleExtension {
            score: best,
            len1: best_i,
            len2: best_j,
            ops,
        },
        hit_end || ran_all_rows,
    )
}

/// Runs the DP with adaptively grown tapes: start at 4 kB and enlarge
/// only when the live band actually reached a tape end. Alignments are
/// typically a few hundred columns, so this avoids copying chromosome
/// tails per extension while remaining exact for arbitrarily long ones.
fn xdrop_dp_adaptive(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    dir: i64,
    params: &GappedParams,
) -> OracleExtension {
    let mut cap = 4096usize;
    loop {
        let t1 = materialize(d1, o1, dir, cap.min(params.max_span));
        let t2 = materialize(d2, o2, dir, cap.min(params.max_span));
        let truncated = t1.len() == cap || t2.len() == cap;
        let (out, hit_end) = xdrop_dp(&t1, &t2, params);
        if !(hit_end && truncated) || cap >= params.max_span {
            return out;
        }
        cap *= 8;
    }
}

/// Rightward extension from `(o1, o2)` inclusive.
pub(super) fn extend_right(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
) -> OracleExtension {
    xdrop_dp_adaptive(d1, d2, o1, o2, 1, params)
}

/// Leftward extension from `(o1, o2)` inclusive.
pub(super) fn extend_left(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
) -> OracleExtension {
    let mut out = xdrop_dp_adaptive(d1, d2, o1, o2, -1, params);
    out.ops.reverse();
    out
}

/// Two-sided extension around `(m1, m2)`, with the start coordinates.
pub(super) fn extend_both(
    d1: &[u8],
    d2: &[u8],
    m1: usize,
    m2: usize,
    params: &GappedParams,
) -> (OracleExtension, usize, usize) {
    let right = extend_right(d1, d2, m1, m2, params);
    let left = if m1 > 0 && m2 > 0 {
        extend_left(d1, d2, m1 - 1, m2 - 1, params)
    } else {
        OracleExtension {
            score: 0,
            len1: 0,
            len2: 0,
            ops: Vec::new(),
        }
    };
    let mut ops = left.ops;
    ops.extend_from_slice(&right.ops);
    let merged = OracleExtension {
        score: left.score + right.score,
        len1: left.len1 + right.len1,
        len2: left.len2 + right.len2,
        ops,
    };
    (merged, m1 - left.len1, m2 - left.len2)
}
