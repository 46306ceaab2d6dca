//! Step 2 — ordered seed enumeration and unique HSP generation.
//!
//! The heart of ORIS (paper section 2.2). For every seed code `s` in
//! `0 .. 4^W`, in increasing order, every occurrence pair
//! `(s1 ∈ index1, s2 ∈ index2)` is extended ungapped under the
//! ordered-seed abort rule (`oris-align::ungapped`). The code-order
//! enumeration has two effects the paper leans on:
//!
//! * **uniqueness** — an HSP is emitted only by the leftmost occurrence of
//!   its smallest contained seed, so no duplicate-suppression structure is
//!   needed;
//! * **locality** — all sequence portions sharing a seed are processed
//!   together ("implicitly and simultaneously moved into the cache
//!   memory"). With the CSR index the X1/X2 occurrence lists are
//!   contiguous sorted slices, so the *lists* stream. The sequence flanks
//!   they point at do not: on Mbp banks every pair's flanks sit at random
//!   positions of both banks.
//!
//! **Where the time goes.** Per pair, on random Mbp banks at W = 11
//! (4.9 × 2.8 Mbp, one thread, 2-vCPU Xeon VM): the row lookup costs
//! ~16 ns and a first touch of each flank another ~15 ns. The rest is the
//! walk itself, about ten bases a side. Byte by byte it cost ~120 ns even
//! with its flanks in cache, so the walk was the largest term, not the
//! misses. Two layers attack it. `oris-align`'s walk moves eight bases
//! per table step (see its *Word-wide walk*; ~47 ns cache-hot). Once the
//! walk is that short the misses show, so `process_code_range` extends
//! pairs in batches of `BATCH`, touching every flank of a batch as it
//! collects the pairs, before the first walk: the misses overlap instead
//! of each walk waiting on its own. Neither layer pays much alone
//! (~165 → ~155 ns per pair each); together they take the pair from
//! ~145–165 ns to ~80–105 (the VM's speed drifts between runs). On a
//! cache-resident bank with long rows of repeats (the benchmark's
//! `repeat_family`, ~30 ns per pair) the touches cost ~1 ns a pair, which
//! is why a bank-1 flank is touched once per occurrence, not once per
//! pair. The pair order, and with it the HSP order and every counter, is
//! that of the plain nested loops.
//!
//! **Guard selection.** The ordered-seed abort rule needs to know whether
//! a candidate seed is actually enumerated. [`find_hsps`] picks the
//! cheapest correct answer from the indexes' build-time exclusion
//! provenance ([`select_guard`]): both banks fully indexed → the
//! probe-free `OrderedFull` fast path; any masking or stride exclusion →
//! `OrderedIndexed`, which asks both indexes' occurrence bit-sets about
//! each candidate.
//!
//! Because uniqueness is a property of the *rule*, not of the visit
//! order, the outer loop parallelizes embarrassingly (paper section 4).
//! [`find_hsps`] splits the code space into contiguous ranges processed by
//! rayon and concatenates results in range order, so output is identical
//! for any thread count.
//!
//! **Scheduling.** Seed popularity is highly skewed (the paper's EST banks
//! concentrate work in poly-A/poly-T codes), so the ranges must carry
//! comparable *work*, not comparable width: one range may own the `AAAA…A`
//! code whose `|X1|·|X2|` pair product dwarfs everything else.
//! [`partition_codes`] therefore sizes ranges by the per-code pair
//! product, cutting a range whenever its accumulated work reaches
//! `total/chunks`, and asks for 16 ranges per worker. The estimate counts
//! pairs, not bases walked, and an EST poly-A pair walks far longer than
//! an aborted random one, so the rayon shim does not hand each worker a
//! fixed share of the ranges: its workers pull them one at a time from a
//! shared queue, and a range that runs long only delays the tail. Ranges
//! remain contiguous and in code order, and each result lands in its
//! range's slot, so results concatenate in range order and the output
//! stays thread-count-independent.
//!
//! The work scan is one pass, before any pair is walked, so it is the
//! serial part of step 2. It sums the work of each of at most 1 024 equal
//! blocks of codes (4 096 codes each at W = 11), not of each code, and
//! then cuts code by code only inside the few blocks a cut falls in — at
//! most one per cut — skipping the others whole. The cut points are those
//! of a greedy scan over every code. The pass visits only the codes
//! populated in both indexes (see below), so on two dense indexes it is a
//! walk over the AND of their bitmaps, 64 codes per word.
//!
//! Work under a grain never leaves the calling thread: the chunk count is
//! capped at `total / GRAIN` pairs (`GRAIN` = 16 384), so a query whose
//! whole pair product is below the grain gets one range, and the rayon
//! shim runs a single range inline. The shim spawns an OS thread per
//! extra worker, 11–13 µs to start and join (the shim's docs; step 3
//! sizes its waves from the same figure). At the measured 80–105 ns per
//! pair (down from 120–165 before the word walk and the batches) a grain
//! is 1.3–1.7 ms of extension work, so the spawn costs about 1 % of what
//! it buys. A larger grain could save little of that, and it would keep
//! queries of 16–32 k pairs on one thread; no benchmark workload sits in
//! that band to show which is better, so the constant stays. A 150-nt read
//! alone against one database volume pays none of it: it meets about 44
//! pairs, far under one grain. Searched as one chunk, the benchmark's
//! `reads_db_batch` reads meet ~133 000 pairs per volume (532 546 over
//! four), eight grains, and split across the workers. The chunk count
//! never changes the output, so the grain is a constant, not an option —
//! the third such call-site threshold after step 3's `INLINE_WAVE_HSPS`
//! and the index build's `PAR_GRAIN`.
//!
//! The enumeration and the work scan visit only the codes populated in
//! *both* indexes, rather than sweeping `0..4^W`: a code absent from
//! either index contributes no pairs and no work, so skipping it changes
//! neither the output nor the cut points — and at W = 11 the sweep would
//! visit 4 M codes to find the populated ones.
//!
//! **Partner-row lookups.** When both indexes are dense (ranked presence
//! bitmaps — every bank-against-bank workload, and a joint read chunk
//! against a database volume), [`oris_index::BankIndex::for_each_shared`]
//! walks the AND of the two bitmaps word by word with running ranks: each
//! shared code's two rows are a popcount each, and no code populated on
//! one side only is visited. The cursor walk below would serve two dense
//! indexes too, at a higher price: on `est_x_est`'s banks (1.1 M codes
//! each, 2-vCPU VM, alternating in-process runs of ten pairs) the AND
//! walk takes the work scan from 24 to 8 ms (every pair) and `find_hsps`
//! from 152 to 132 ms at one thread (8 pairs of 10), 143 to 98 ms at two
//! (every pair); on `genome_null`'s (1.8 and 2.8 M codes) the scan goes
//! from 52 to 20 ms (every pair) and `find_hsps` from 667 to 636 ms at
//! one thread (7 of 10).
//!
//! Otherwise step 2 walks the populated rows of whichever index holds
//! fewer distinct codes, in ascending code order within a range, and
//! resolves each partner with a forward [`oris_index::RowCursor`]: a
//! rank on a dense partner, a gallop through the sorted code list from
//! the previous answer on a sparse one. A lone 150-nt read (a sparse
//! index of ~139 codes) against a dense volume thus pays a rank per
//! partner, where a gallop across a sparse volume's whole code list took
//! ~0.3 µs. That walk pulls 32 driving rows ahead of their
//! partner lookups, so the partners' row-boundary misses overlap:
//! resolving each row's partner inside the walk made `find_hsps` on
//! 4.9 × 2.8 Mbp random banks 5–10 % slower (in-process, one thread).
//! Codes and pairs are visited in the same order either way.

use std::convert::Infallible;
use std::ops::Range;

use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
use oris_index::{BankIndex, SeedCoder};
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::config::OrisConfig;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::hsp::Hsp;

/// With an armed [`Deadline`], the extension loop consults the clock
/// before the first batch that starts at least this many pairs after the
/// last check — frequent enough that even a single hot seed code responds
/// within a sliver of the range's work, rare enough that the clock read
/// vanishes against the extensions it paces. Checks fall on batch
/// boundaries, so the worst-case latency is `DEADLINE_CHECK_PAIRS +
/// BATCH` pairs (under 0.5 ms at ~105 ns per pair).
const DEADLINE_CHECK_PAIRS: u64 = 4096;

/// Minimum estimated work, in occurrence pairs, a range must carry before
/// step 2 is split at all: [`partition_codes`] cuts at most
/// `total / GRAIN` ranges (see the module docs' *Scheduling* paragraph
/// for the sizing).
const GRAIN: u64 = 16_384;

/// Counters reported by step 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step2Stats {
    /// Occurrence pairs examined (hit extensions attempted).
    pub pairs_examined: u64,
    /// Extensions aborted by the ordered-seed rule.
    pub aborted: u64,
    /// HSPs below the score threshold.
    pub below_threshold: u64,
    /// HSPs kept.
    pub kept: u64,
}

impl Step2Stats {
    /// Sums the counters of two reports (used by range concatenation and
    /// by the pipeline's strand merge).
    pub fn merge(mut self, o: Step2Stats) -> Step2Stats {
        self.pairs_examined += o.pairs_examined;
        self.aborted += o.aborted;
        self.below_threshold += o.below_threshold;
        self.kept += o.kept;
        self
    }
}

/// Splits `0..num_codes` into contiguous ranges of comparable estimated
/// *work* — the per-range sum of `|X1(code)|·|X2(code)|` pair products —
/// aiming for `chunks` ranges. Ranges always cover the whole code space
/// in order; the greedy cuts may return fewer ranges than requested, and
/// never more than `chunks + 1`: each cut closes a range holding at least
/// `⌈total/chunks⌉` work, so at most `chunks` cuts can fire, plus one
/// trailing range for the remainder. `chunks` is first capped at
/// `total / GRAIN`, so total work under one grain always yields the
/// single range `0..num_codes`.
pub fn partition_codes(idx1: &BankIndex, idx2: &BankIndex, chunks: u32) -> Vec<Range<u32>> {
    partition_codes_grained(idx1, idx2, chunks, GRAIN)
}

/// [`partition_codes`] with the grain as a parameter, so tests can force
/// real splits on toy banks (grain 1 caps nothing).
#[allow(clippy::single_range_in_vec_init)] // a Vec<Range> is the schedule, not a typo'd range
fn partition_codes_grained(
    idx1: &BankIndex,
    idx2: &BankIndex,
    chunks: u32,
    grain: u64,
) -> Vec<Range<u32>> {
    let num_codes = idx1.coder().num_seeds() as u32;
    if chunks <= 1 {
        return vec![0..num_codes];
    }
    // One pass sums the work of each of at most 2^SCAN_BLOCK_BITS equal
    // blocks of codes: 8 KB on the stack, where a per-code vector would
    // cost megabytes, and a heap one an allocation on each short read's
    // call.
    let shift = (2 * idx1.w()).saturating_sub(SCAN_BLOCK_BITS);
    let mut blocks = [0u64; 1 << SCAN_BLOCK_BITS];
    let blocks = &mut blocks[..(num_codes >> shift) as usize];
    let mut total = 0u64;
    // Only codes populated in both indexes are visited: a code missing
    // from either carries zero work.
    let Ok(()) = for_each_seed(idx1, idx2, 0..num_codes, |c, x1, x2| {
        let work = work(x1, x2);
        blocks[(c >> shift) as usize] += work;
        total += work;
        Ok::<(), Infallible>(())
    });
    let chunks = u64::from(chunks).min(total / grain);
    if chunks <= 1 {
        return vec![0..num_codes];
    }
    // The cuts of a greedy code-by-code scan: close a range at the code
    // where its work reaches `target`. No cut can fall inside a block
    // whose whole work leaves `acc` short of `target`, so such a block is
    // skipped whole; only a block where `acc` reaches `target` (at most
    // one per cut, so at most `chunks + 1` of them) is re-scanned code by
    // code. A code absent from either index adds zero work, which never
    // fires a cut, so visiting only the codes populated in both cuts
    // where a `0..4^W` sweep would.
    let target = total.div_ceil(chunks);
    let mut ranges = Vec::with_capacity(chunks as usize + 1);
    let mut lo = 0u32;
    let mut acc = 0u64;
    for (b, &block) in blocks.iter().enumerate() {
        if acc + block < target {
            acc += block;
            continue;
        }
        let first = (b as u32) << shift;
        let Ok(()) = for_each_seed(idx1, idx2, first..first + (1 << shift), |c, x1, x2| {
            acc += work(x1, x2);
            if acc >= target {
                ranges.push(lo..c + 1);
                lo = c + 1;
                acc = 0;
            }
            Ok::<(), Infallible>(())
        });
    }
    if lo < num_codes {
        ranges.push(lo..num_codes);
    }
    ranges
}

/// Log2 of the most blocks [`partition_codes`]' work scan cuts the code
/// space into: 4 096 codes per block at W = 11, one code per block at
/// W ≤ 5.
const SCAN_BLOCK_BITS: usize = 10;

/// The work of one code: its occurrence-pair product `|X1|·|X2|`.
#[inline]
fn work(x1: &[u32], x2: &[u32]) -> u64 {
    x1.len() as u64 * x2.len() as u64
}

/// Calls `f(code, X1, X2)` for every code of `codes` populated in both
/// indexes, in ascending code order — the codes with both rows non-empty
/// that a `for code in codes` sweep over `occurrences` would visit — and
/// returns the first error `f` does. Two dense indexes are walked
/// together ([`BankIndex::for_each_shared`]). Otherwise the populated rows
/// of the driving index — whichever holds fewer distinct codes; for a
/// lone read against a volume, the read's — are pulled [`ROWS_AHEAD`] at
/// a time into stack arrays and their partner rows resolved together by
/// a [`oris_index::RowCursor`] started at the range's first code, so the
/// partner lookups of a round are independent and their misses overlap.
/// Either way `f` runs on rounds of up to [`ROWS_AHEAD`] resolved codes:
/// calling it from inside the bitmap walk, one code at a time, made
/// `find_hsps` 5–10 % slower (4.9 × 2.8 Mnt, one thread, in-process).
#[inline]
fn for_each_seed<'i, E>(
    idx1: &'i BankIndex,
    idx2: &'i BankIndex,
    codes: Range<u32>,
    mut f: impl FnMut(u32, &'i [u32], &'i [u32]) -> Result<(), E>,
) -> Result<(), E> {
    let mut round = Round::default();
    let shared = idx1.for_each_shared(idx2, codes.clone(), |c, x1, x2| {
        round.push(c, x1, x2);
        if round.n == ROWS_AHEAD {
            round.flush(&mut f)?;
        }
        Ok(())
    });
    if let Some(done) = shared {
        done?;
        return round.flush(&mut f);
    }
    let drive_is_1 = idx1.distinct_codes() <= idx2.distinct_codes();
    let (drive, other) = if drive_is_1 {
        (idx1, idx2)
    } else {
        (idx2, idx1)
    };
    let mut partner = other.cursor_from(codes.start);
    let mut rows = drive.populated_in(codes);
    let mut code = [0u32; ROWS_AHEAD];
    let mut drive_rows: [&[u32]; ROWS_AHEAD] = [&[]; ROWS_AHEAD];
    loop {
        let mut n = 0;
        for (c, row) in rows.by_ref().take(ROWS_AHEAD) {
            code[n] = c;
            drive_rows[n] = row;
            n += 1;
        }
        for (&c, &row) in code[..n].iter().zip(&drive_rows[..n]) {
            let found = partner.seek(c);
            if !found.is_empty() {
                let (x1, x2) = if drive_is_1 {
                    (row, found)
                } else {
                    (found, row)
                };
                round.push(c, x1, x2);
            }
        }
        round.flush(&mut f)?;
        if n < ROWS_AHEAD {
            return Ok(());
        }
    }
}

/// Driving rows [`for_each_seed`] pulls ahead of its partner lookups, and
/// the most codes one of its rounds holds: enough independent loads in
/// flight to cover the partners' row-boundary misses, few enough that a
/// round is about 1 KB of stack.
const ROWS_AHEAD: usize = 32;

/// Codes whose rows are resolved, waiting for [`for_each_seed`]'s `f`.
struct Round<'i> {
    code: [u32; ROWS_AHEAD],
    x1: [&'i [u32]; ROWS_AHEAD],
    x2: [&'i [u32]; ROWS_AHEAD],
    n: usize,
}

impl Default for Round<'_> {
    fn default() -> Self {
        Round {
            code: [0; ROWS_AHEAD],
            x1: [&[]; ROWS_AHEAD],
            x2: [&[]; ROWS_AHEAD],
            n: 0,
        }
    }
}

impl<'i> Round<'i> {
    #[inline]
    fn push(&mut self, code: u32, x1: &'i [u32], x2: &'i [u32]) {
        let n = self.n;
        (self.code[n], self.x1[n], self.x2[n]) = (code, x1, x2);
        self.n += 1;
    }

    /// Runs `f` on the round's codes in order and empties it.
    #[inline]
    fn flush<E>(
        &mut self,
        f: &mut impl FnMut(u32, &'i [u32], &'i [u32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = std::mem::take(&mut self.n);
        for i in 0..n {
            f(self.code[i], self.x1[i], self.x2[i])?;
        }
        Ok(())
    }
}

/// Occurrence pairs extended per batch: [`process_code_range`] collects
/// this many `(a, b, code)` triples, touching their flanks as it goes —
/// independent loads, so the cache misses overlap — then walks them in
/// collection order.
const BATCH: usize = 16;

/// One occurrence pair of a seed code: `a` in bank 1, `b` in bank 2.
#[derive(Debug, Clone, Copy, Default)]
struct Pair {
    a: u32,
    b: u32,
    code: u32,
}

/// The pair loop of one code range: what every batch of pairs is
/// extended against, and what the extensions have produced so far.
struct Extender<'a> {
    d1: &'a [u8],
    d2: &'a [u8],
    coder: SeedCoder,
    params: &'a UngappedParams,
    min_score: i32,
    guard: OrderGuard<'a>,
    deadline: &'a Deadline,
    /// `pairs_examined` at which the next batch consults the deadline.
    next_check: u64,
    out: Vec<Hsp>,
    stats: Step2Stats,
}

impl<'a> Extender<'a> {
    /// A pair loop over `bank1` × `bank2` that has examined nothing and
    /// next consults `deadline` after [`DEADLINE_CHECK_PAIRS`] pairs.
    fn new(
        bank1: &'a Bank,
        bank2: &'a Bank,
        coder: SeedCoder,
        params: &'a UngappedParams,
        min_score: i32,
        guard: OrderGuard<'a>,
        deadline: &'a Deadline,
    ) -> Extender<'a> {
        Extender {
            d1: bank1.data(),
            d2: bank2.data(),
            coder,
            params,
            min_score,
            guard,
            deadline,
            next_check: DEADLINE_CHECK_PAIRS,
            out: Vec::new(),
            stats: Step2Stats::default(),
        }
    }

    /// Extends `pairs` in order, recording HSPs and counters. An armed
    /// deadline is consulted first once [`DEADLINE_CHECK_PAIRS`] pairs
    /// have passed since the last check.
    fn run(&mut self, pairs: &[Pair]) -> Result<(), DeadlineExceeded> {
        if self.deadline.is_armed() && self.stats.pairs_examined >= self.next_check {
            self.deadline.check()?;
            self.next_check = self.stats.pairs_examined + DEADLINE_CHECK_PAIRS;
        }
        let (d1, d2, coder, params, guard) =
            (self.d1, self.d2, self.coder, self.params, self.guard);
        let w = params.w;
        // Counted in a local so they stay in registers across the walks.
        let mut stats = self.stats;
        for &Pair { a, b, code } in pairs {
            stats.pairs_examined += 1;
            match extend_hit(d1, d2, a as usize, b as usize, code, coder, params, guard) {
                ExtensionOutcome::Aborted => stats.aborted += 1,
                ExtensionOutcome::Hsp { score, left, right } => {
                    if score >= self.min_score {
                        stats.kept += 1;
                        self.out.push(Hsp {
                            start1: a - left as u32,
                            start2: b - left as u32,
                            len: (left + w + right) as u32,
                            score,
                        });
                    } else {
                        stats.below_threshold += 1;
                    }
                }
            }
        }
        self.stats = stats;
        Ok(())
    }
}

/// Reads both ends of the first two words each walk of the seed at `p`
/// loads — the lines a typical walk, ~10 bases a side, touches. A seed
/// sits between sentinels, so `p ≥ 1` and `p + w < d.len()`.
#[inline]
fn touch_flanks(d: &[u8], p: usize, w: usize) -> u8 {
    let last = d.len() - 1;
    d[p.saturating_sub(16)] ^ d[p - 1] ^ d[p + w] ^ d[(p + w + 15).min(last)]
}

/// Processes one contiguous range of seed codes sequentially.
///
/// With an armed `deadline` the pair loop re-checks the token before each
/// batch once [`DEADLINE_CHECK_PAIRS`] pairs have passed (and at the range
/// entry) and returns [`DeadlineExceeded`] instead of its partial output;
/// with the disarmed default the checks are a dead branch and the function
/// cannot fail.
fn process_code_range(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    params: &UngappedParams,
    min_score: i32,
    codes: Range<u32>,
    guard: OrderGuard<'_>,
    deadline: &Deadline,
) -> Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded> {
    deadline.check()?;
    let mut ext = Extender::new(
        bank1,
        bank2,
        idx1.coder(),
        params,
        min_score,
        guard,
        deadline,
    );
    let (d1, d2, w) = (bank1.data(), bank2.data(), params.w);
    let mut batch = [Pair::default(); BATCH];
    let mut len = 0;
    let mut touched = 0u8;

    // The codes with both rows non-empty, in ascending order, are exactly
    // those of a `for code in codes` sweep, so the output is
    // byte-identical; the iteration cost no longer scales with the range
    // width (4^W/chunks).
    for_each_seed(idx1, idx2, codes, |code, x1, x2| {
        // X1 × X2 hit extensions for this seed (paper notation): both
        // occurrence lists are contiguous sorted slices in the CSR index.
        // Batches run across code boundaries; the pair order is the
        // nested loops' order either way. Every flank is touched before
        // the batch holding its pair is walked, a bank-1 flank once per
        // occurrence rather than once per pair (rows of repeats are long).
        for &a in x1 {
            touched ^= touch_flanks(d1, a as usize, w);
            for &b in x2 {
                touched ^= touch_flanks(d2, b as usize, w);
                batch[len] = Pair { a, b, code };
                len += 1;
                if len == BATCH {
                    ext.run(&batch)?;
                    len = 0;
                }
            }
        }
        Ok(())
    })?;
    ext.run(&batch[..len])?;
    std::hint::black_box(touched);
    Ok((ext.out, ext.stats))
}

/// Picks the cheapest correct order guard for a pair of indexes, from
/// their build-time exclusion provenance.
///
/// The indexed guard is required whenever positions may be excluded from
/// an index (low-complexity masking, asymmetric stride): the rule must
/// not defer to a seed the enumeration will never visit. But when **both**
/// banks are fully indexed ([`BankIndex::is_fully_indexed`]), every
/// "would the enumeration visit this candidate?" probe answers yes — the
/// candidate's run of `W` matches already proves a valid window — so the
/// probe-free [`OrderGuard::OrderedFull`] is behaviourally identical and
/// strictly cheaper. The guard-equivalence proptests below pin the
/// identity.
pub fn select_guard<'a>(idx1: &'a BankIndex, idx2: &'a BankIndex) -> OrderGuard<'a> {
    if idx1.is_fully_indexed() && idx2.is_fully_indexed() {
        OrderGuard::OrderedFull
    } else {
        OrderGuard::OrderedIndexed { idx1, idx2 }
    }
}

/// Enumerates all seeds in code order and returns the unique HSPs,
/// sorted by diagonal (the step-3 input order). The order guard is
/// auto-selected from the indexes' exclusion provenance ([`select_guard`]).
pub fn find_hsps(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
) -> (Vec<Hsp>, Step2Stats) {
    let guard = select_guard(idx1, idx2);
    find_hsps_guarded(bank1, idx1, bank2, idx2, cfg, guard, &Deadline::none())
        .expect("a disarmed deadline cannot expire")
}

/// Full-control entry point: the same enumeration under an explicit guard
/// (the ablation uses [`OrderGuard::None`]) and a cooperative
/// [`Deadline`]. The token is consulted at every partition boundary and
/// every `DEADLINE_CHECK_PAIRS` extension pairs within a partition, and
/// an expiry surfaces as a clean [`DeadlineExceeded`] with no partial
/// output. The deadline never changes *what* is computed — the chunk
/// count never affects output, ranges concatenate in code order — so a
/// run that completes under a generous budget is byte-identical to one
/// under [`Deadline::none`], which cannot fail.
pub fn find_hsps_guarded(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
    guard: OrderGuard<'_>,
    deadline: &Deadline,
) -> Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded> {
    find_hsps_grained(bank1, idx1, bank2, idx2, cfg, guard, deadline, GRAIN)
}

/// [`find_hsps_guarded`] with the partition grain as a parameter (see
/// [`partition_codes_grained`]).
fn find_hsps_grained(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
    guard: OrderGuard<'_>,
    deadline: &Deadline,
    grain: u64,
) -> Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded> {
    assert_eq!(
        idx1.w(),
        idx2.w(),
        "both indexes must use the same word length"
    );
    let params = UngappedParams {
        w: idx1.w(),
        xdrop: cfg.xdrop_ungapped,
        scheme: cfg.scheme,
    };

    // Enough chunks to keep workers busy even when a few ranges run long;
    // results are concatenated in range order, so the chunk count (and
    // hence the thread count) never changes the output. A single worker
    // needs no partitioning at all — one range skips the work scan — and
    // total work under one grain comes back as one range too, which the
    // shim runs on the calling thread. An armed deadline gets no finer
    // split: the pair loop inside each range already polls the token
    // every [`DEADLINE_CHECK_PAIRS`] extensions, so partition granularity
    // adds nothing to cancellation latency — only overhead.
    let threads = rayon::current_num_threads();
    let chunks = if threads <= 1 {
        1
    } else {
        (threads * 16).clamp(16, 1024) as u32
    };
    let ranges = partition_codes_grained(idx1, idx2, chunks, grain);

    let results: Vec<Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded>> = ranges
        .into_par_iter()
        .map(|r| {
            process_code_range(
                bank1,
                idx1,
                bank2,
                idx2,
                &params,
                cfg.min_hsp_score,
                r,
                guard,
                deadline,
            )
        })
        .collect();

    let mut stats = Step2Stats::default();
    let mut hsps = Vec::new();
    for res in results {
        let (v, s) = res?;
        hsps.extend(v);
        stats = stats.merge(s);
    }
    // "the storage is made by sorting the HSPs by diagonal number to
    // optimize data access of the next step"
    hsps.sort_by(Hsp::diag_order);
    if matches!(guard, OrderGuard::None) {
        // Without the rule every seed of an HSP emits it (the A1 ablation).
        hsps.dedup();
    } else {
        // With it, each HSP is emitted exactly once (paper section 2.2).
        debug_assert!(
            hsps.windows(2)
                .all(|p| Hsp::diag_order(&p[0], &p[1]).is_lt()),
            "the ordered rule emitted an HSP twice"
        );
    }
    Ok((hsps, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_index::IndexConfig;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn cfg(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: w as i32, // keep anything scoring at least a bare seed
            ..OrisConfig::small(w)
        }
    }

    fn run(b1: &Bank, b2: &Bank, c: &OrisConfig) -> Vec<Hsp> {
        let i1 = BankIndex::build(b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(b2, IndexConfig::full(c.w));
        find_hsps(b1, &i1, b2, &i2, c).0
    }

    /// [`find_hsps`] at grain 1, so a toy bank really is cut into ranges
    /// and handed to the installed pool's workers.
    fn find_hsps_split(
        b1: &Bank,
        i1: &BankIndex,
        b2: &Bank,
        i2: &BankIndex,
        c: &OrisConfig,
    ) -> (Vec<Hsp>, Step2Stats) {
        let guard = select_guard(i1, i2);
        find_hsps_grained(b1, i1, b2, i2, c, guard, &Deadline::none(), 1).unwrap()
    }

    #[test]
    fn identical_sequences_give_one_hsp() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let hsps = run(&b1, &b2, &cfg(6));
        // One full-length HSP on the main diagonal; off-diagonal repeats
        // of 6-mers are absent in this diverse sequence.
        assert_eq!(hsps.len(), 1, "{hsps:?}");
        assert_eq!(hsps[0].len as usize, s.len());
        assert_eq!(hsps[0].diag(), 0);
        assert_eq!(hsps[0].score, s.len() as i32);
    }

    #[test]
    fn unrelated_sequences_give_nothing() {
        let b1 = bank(&["ATATATGCGCATATGCGCATATAT"]);
        let b2 = bank(&["GGTTCCAAGGTTCCAAGGTTCCAA"]);
        let hsps = run(&b1, &b2, &cfg(8));
        assert!(hsps.is_empty(), "{hsps:?}");
    }

    #[test]
    fn each_hsp_is_unique() {
        // Long shared region: many seeds anchor the same HSP; the ordered
        // rule must emit it once.
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[&format!("TTTT{shared}GGGG")]);
        let b2 = bank(&[&format!("CCCC{shared}AAAA")]);
        let hsps = run(&b1, &b2, &cfg(6));
        let mut seen = std::collections::HashSet::new();
        for h in &hsps {
            assert!(seen.insert((h.start1, h.start2, h.len)), "duplicate {h:?}");
        }
        // The main shared HSP is found exactly once.
        let main: Vec<&Hsp> = hsps
            .iter()
            .filter(|h| h.len as usize >= shared.len())
            .collect();
        assert_eq!(main.len(), 1, "{hsps:?}");
    }

    #[test]
    fn hsps_are_diag_sorted() {
        let shared = "ATGGCGTACGTTAGCCTAGG";
        let b1 = bank(&[&format!("{shared}TTTTTTTTTT{shared}")]);
        let b2 = bank(&[shared]);
        let hsps = run(&b1, &b2, &cfg(6));
        assert!(hsps.len() >= 2);
        for w in hsps.windows(2) {
            assert!(Hsp::diag_order(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn hsp_scoring_exactly_min_score_is_kept() {
        // min_hsp_score is the *minimum score to keep* (the paper's S1):
        // the boundary case must pass, not be dropped by an off-by-one.
        // A lone 6-mer with no extendable context scores exactly 6.
        let s = "ATGGCG";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let mut c = cfg(6);
        c.min_hsp_score = 6;
        let hsps = run(&b1, &b2, &c);
        assert_eq!(hsps.len(), 1, "{hsps:?}");
        assert_eq!(hsps[0].score, 6);
        // One above the score: dropped.
        c.min_hsp_score = 7;
        assert!(run(&b1, &b2, &c).is_empty());
    }

    #[test]
    fn score_threshold_filters() {
        let shared = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[shared]);
        let b2 = bank(&[shared]);
        let mut c = cfg(6);
        c.min_hsp_score = 1000;
        let hsps = run(&b1, &b2, &c);
        assert!(hsps.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        // Same inputs, forced single-chunk vs default parallel: identical
        // HSP vectors (order included).
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[
            &format!("AAAACC{shared}"),
            "TTGGCCATGGCCAATT",
            &format!("{shared}GGTTAA"),
        ]);
        let b2 = bank(&[&format!("TTTTG{shared}ACGT"), "CCGGTTAACCGGTTAA"]);
        let c = cfg(5);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));

        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (h1, s1) = pool1.install(|| find_hsps_split(&b1, &i1, &b2, &i2, &c));
        let (h4, s4) = pool4.install(|| find_hsps_split(&b1, &i1, &b2, &i2, &c));
        assert_eq!(h1, h4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn skewed_bank_output_is_thread_count_invariant() {
        // Long homopolymer runs concentrate nearly all pair work in two
        // seed codes (AAAA…, TTTT…) — the distribution that defeats
        // equal-width code ranges. Output and counters must be identical
        // for 1, 2 and 8 threads under the work-balanced partition.
        let polya = "A".repeat(120);
        let polyt = "T".repeat(90);
        let mixed = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[
            &format!("{polya}{mixed}"),
            &format!("{mixed}{polyt}"),
            "GGCCTTAAGGCCTTAA",
        ]);
        let b2 = bank(&[&format!("{polyt}{mixed}{polya}"), "CCGGATCGATCCGG"]);
        let c = cfg(5);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));

        let mut outputs = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| find_hsps_split(&b1, &i1, &b2, &i2, &c)));
        }
        let (h1, s1) = &outputs[0];
        assert!(!h1.is_empty());
        for (h, s) in &outputs[1..] {
            assert_eq!(h1, h, "HSPs differ across thread counts");
            assert_eq!(s1, s, "Step2Stats differ across thread counts");
        }
    }

    #[test]
    fn partition_strategies_cover_code_space_and_agree() {
        let polya = "A".repeat(200);
        let b1 = bank(&[&format!("{polya}ATGGCGTACGTTAGCC")]);
        let b2 = bank(&[&format!("GGCCATTA{polya}")]);
        let c = cfg(4);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let num_codes = i1.coder().num_seeds() as u32;
        let params = UngappedParams {
            w: c.w,
            xdrop: c.xdrop_ungapped,
            scheme: c.scheme,
        };
        let guard = select_guard(&i1, &i2);
        let sweep = |codes| {
            process_code_range(
                &b1,
                &i1,
                &b2,
                &i2,
                &params,
                c.min_hsp_score,
                codes,
                guard,
                &Deadline::none(),
            )
            .unwrap()
        };
        let (whole_hsps, whole_stats) = sweep(0..num_codes);
        assert!(!whole_hsps.is_empty());

        for chunks in [1u32, 3, 16, 64] {
            let ranges = partition_codes_grained(&i1, &i2, chunks, 1);
            // Contiguous, in-order, complete cover.
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, num_codes);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // Every split concatenates to the one-range sweep.
            let mut hsps = Vec::new();
            let mut stats = Step2Stats::default();
            for r in ranges {
                let (v, s) = sweep(r);
                hsps.extend(v);
                stats = stats.merge(s);
            }
            assert_eq!(hsps, whole_hsps, "chunks = {chunks}");
            assert_eq!(stats, whole_stats, "chunks = {chunks}");
        }
    }

    #[test]
    fn balanced_partition_splits_skewed_work() {
        // One dominant code (poly-A) and scattered light codes: the
        // balanced partition must isolate the heavy code in a narrow range
        // rather than lumping 1/chunks of the code space around it.
        let polya = "A".repeat(300);
        let b1 = bank(&[&format!("{polya}ATGGCGTACGTTAGCCTAGGCTTA")]);
        let b2 = bank(&[&format!("{polya}GGCCATTAGGCCATTA")]);
        let i1 = BankIndex::build(&b1, IndexConfig::full(4));
        let i2 = BankIndex::build(&b2, IndexConfig::full(4));

        let chunks = 16u32;
        let balanced = partition_codes_grained(&i1, &i2, chunks, 1);
        let work_of = |r: &std::ops::Range<u32>| -> u64 {
            (r.start..r.end)
                .map(|c| i1.occurrences(c).len() as u64 * i2.occurrences(c).len() as u64)
                .sum()
        };
        let total: u64 = work_of(&(0..i1.coder().num_seeds() as u32));
        let target = total.div_ceil(chunks as u64);
        // Every range except those pinned by a single overweight code
        // carries at most target + max_single_code work; and code 0
        // (poly-A, the heaviest) sits alone in its range.
        let first = &balanced[0];
        assert_eq!(first.start, 0);
        assert_eq!(
            first.end, 1,
            "heavy code 0 should be cut immediately: {balanced:?}"
        );
        assert!(work_of(first) >= target);
    }

    #[test]
    fn work_under_the_grain_is_one_range() {
        // The poly-A code alone carries 297² = 88 209 pairs: five grains.
        let polya = "A".repeat(300);
        let b1 = bank(&[&format!("{polya}ATGGCGTACGTTAGCCTAGGCTTA")]);
        let b2 = bank(&[&format!("{polya}GGCCATTAGGCCATTA")]);
        let i1 = BankIndex::build(&b1, IndexConfig::full(4));
        let i2 = BankIndex::build(&b2, IndexConfig::full(4));
        let num_codes = i1.coder().num_seeds() as u32;
        let total: u64 = (0..num_codes)
            .map(|c| i1.occurrences(c).len() as u64 * i2.occurrences(c).len() as u64)
            .sum();
        assert_eq!(total / GRAIN, 5);
        for chunks in [1u32, 2, 3, 5, 16, 64, 1024] {
            // Under one grain: one range, whatever was asked for.
            let whole = partition_codes_grained(&i1, &i2, chunks, total + 1);
            assert_eq!(whole.len(), 1, "chunks = {chunks}");
            assert_eq!(whole[0], 0..num_codes);
            // Above it the chunk count is capped at the whole grains, and
            // the cuts are those of the uncapped scan for that count.
            assert_eq!(
                partition_codes(&i1, &i2, chunks),
                partition_codes_grained(&i1, &i2, chunks.min(5), 1),
                "chunks = {chunks}"
            );
        }
    }

    #[test]
    fn expired_deadline_stops_a_hot_code_within_one_batch_of_the_bound() {
        // Poly-A at W = 4: code 0 alone carries 297² = 88 209 pairs.
        let polya = "A".repeat(300);
        let b1 = bank(&[&polya]);
        let b2 = bank(&[&polya]);
        let c = cfg(4);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let hot = i1.occurrences(0).len() as u64 * i2.occurrences(0).len() as u64;
        assert!(hot > DEADLINE_CHECK_PAIRS);
        let guard = select_guard(&i1, &i2);
        let expired = Deadline::cancellable();
        expired.cancel();
        for grain in [1, GRAIN] {
            let res = find_hsps_grained(&b1, &i1, &b2, &i2, &c, guard, &expired, grain);
            assert_eq!(res, Err(DeadlineExceeded), "grain {grain}");
        }
        // Past the range entry, a token that expires before the first
        // pair is seen at the first batch boundary at or beyond
        // DEADLINE_CHECK_PAIRS, less than one batch later.
        let params = UngappedParams {
            w: c.w,
            xdrop: c.xdrop_ungapped,
            scheme: c.scheme,
        };
        let pairs: Vec<Pair> = i1
            .occurrences(0)
            .iter()
            .flat_map(|&a| {
                i2.occurrences(0)
                    .iter()
                    .map(move |&b| Pair { a, b, code: 0 })
            })
            .collect();
        let token = Deadline::cancellable();
        let mut ext = Extender::new(
            &b1,
            &b2,
            i1.coder(),
            &params,
            c.min_hsp_score,
            guard,
            &token,
        );
        token.cancel();
        let stopped = pairs.chunks(BATCH).try_for_each(|batch| ext.run(batch));
        assert_eq!(stopped, Err(DeadlineExceeded));
        let examined = ext.stats.pairs_examined;
        let bound = DEADLINE_CHECK_PAIRS..DEADLINE_CHECK_PAIRS + BATCH as u64;
        assert!(
            bound.contains(&examined),
            "{examined} pairs before the check"
        );
    }

    #[test]
    fn partition_is_identical_across_index_backends() {
        // The work-balanced scan visits the codes populated in both
        // indexes only; since the others carry zero work, the cut points
        // must be the same whether the rows come from bitmaps (the AND
        // walk) or code lists (the cursor) — in any pairing — and so must
        // the HSPs and the counters, on one range and split into many.
        use oris_index::IndexBackend;
        let polya = "A".repeat(300);
        let mixed = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACCGTAGCTAGGATCC";
        let b1 = bank(&[&format!("{polya}{mixed}"), &mixed[7..]]);
        let b2 = bank(&[&format!("{polya}GGCCATTA{mixed}"), &mixed[..40]]);
        for w in [4, 11] {
            let c = cfg(w);
            let [d1, s1] = both_backends(&b1, w);
            let [d2, s2] = both_backends(&b2, w);
            assert_eq!(d1.backend(), IndexBackend::Dense);
            assert_eq!(s1.backend(), IndexBackend::Sparse);
            let pairings = [(&d1, &d2), (&s1, &s2), (&d1, &s2), (&s1, &d2)];
            for chunks in [1u32, 3, 16, 64] {
                let reference = partition_codes_grained(&d1, &d2, chunks, 1);
                for (i1, i2) in pairings {
                    assert_eq!(reference, partition_codes_grained(i1, i2, chunks, 1));
                }
            }
            let whole = find_hsps(&b1, &d1, &b2, &d2, &c);
            assert!(!whole.0.is_empty());
            for (i1, i2) in pairings {
                assert_eq!(find_hsps(&b1, i1, &b2, i2, &c), whole, "W = {w}");
                assert_eq!(find_hsps_split(&b1, i1, &b2, i2, &c), whole, "W = {w}");
            }
        }
    }

    #[test]
    fn sparse_partition_handles_w11_code_space() {
        // At W = 11 the code space holds 4^11 ≈ 4.2 M codes; the sparse
        // work scan must touch only the populated handful. (Correctness,
        // not speed, is asserted — the old dense sweep would still pass,
        // but only the populated-row walk makes W = 11 partitioning
        // proportionate to bank size.)
        use oris_index::IndexBackend;
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[&format!("TTTT{shared}GGGG")]);
        let b2 = bank(&[&format!("CCCC{shared}AAAA")]);
        let icfg = IndexConfig::full(11).with_backend(IndexBackend::Sparse);
        let i1 = BankIndex::build(&b1, icfg);
        let i2 = BankIndex::build(&b2, icfg);
        let num_codes = i1.coder().num_seeds() as u32;
        let ranges = partition_codes_grained(&i1, &i2, 16, 1);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, num_codes);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // And the full pipeline finds the shared region at W = 11.
        let c = cfg(11);
        let (hsps, _) = find_hsps(&b1, &i1, &b2, &i2, &c);
        assert!(
            hsps.iter().any(|h| h.len as usize >= shared.len()),
            "{hsps:?}"
        );
    }

    #[test]
    fn stats_account_for_all_pairs() {
        let shared = "ATGGCGTACGTTAGCC";
        let b1 = bank(&[shared, "AAAATTTTGGGGCCCC"]);
        let b2 = bank(&[shared]);
        let c = cfg(4);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (_, st) = find_hsps(&b1, &i1, &b2, &i2, &c);
        assert_eq!(st.pairs_examined, st.aborted + st.below_threshold + st.kept);
        assert!(st.pairs_examined > 0);
    }

    #[test]
    fn matches_bruteforce_hsp_set() {
        // Reference: enumerate every hit pair, extend unguarded with the
        // same xdrop, dedup the resulting (start1, start2, len) triples.
        // The ordered generator must produce the same set.
        use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
        let b1 = bank(&["ATGGCGTACGTTAGCCTAGGACGGATCGAT", "GGCCTTAAGGCCTTAA"]);
        let b2 = bank(&["TTATGGCGTACGTTAGCCTAGGTT", "CGGATCGATACGT"]);
        let c = cfg(5);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let params = UngappedParams {
            w: c.w,
            xdrop: c.xdrop_ungapped,
            scheme: c.scheme,
        };
        let coder = i1.coder();
        let mut brute = std::collections::HashSet::new();
        for code in 0..coder.num_seeds() as u32 {
            for &a in i1.occurrences(code) {
                for &b in i2.occurrences(code) {
                    if let ExtensionOutcome::Hsp { score, left, right } = extend_hit(
                        b1.data(),
                        b2.data(),
                        a as usize,
                        b as usize,
                        code,
                        coder,
                        &params,
                        OrderGuard::None,
                    ) {
                        // `>=`: min_hsp_score is the minimum score to KEEP
                        // (the paper's S1) — matches process_code_range.
                        if score >= c.min_hsp_score {
                            brute.insert((
                                a - left as u32,
                                b - left as u32,
                                left as u32 + c.w as u32 + right as u32,
                            ));
                        }
                    }
                }
            }
        }
        let ordered: std::collections::HashSet<(u32, u32, u32)> = run(&b1, &b2, &c)
            .into_iter()
            .map(|h| (h.start1, h.start2, h.len))
            .collect();
        assert_eq!(ordered, brute);
    }

    #[test]
    fn guard_auto_selection_follows_provenance() {
        let b = bank(&["ACGTACGTTTGGCCAAACGT"]);
        let full = BankIndex::build(&b, IndexConfig::full(4));
        let masked = BankIndex::build_filtered(&b, IndexConfig::full(4), |p| p == 2);
        let strided = BankIndex::build(&b, IndexConfig::asymmetric(4));
        assert!(matches!(
            select_guard(&full, &full),
            OrderGuard::OrderedFull
        ));
        // Anything actually excluded on either side — one masked window
        // is enough — keeps the indexed guard.
        assert!(!masked.is_fully_indexed() && !strided.is_fully_indexed());
        for (i1, i2) in [
            (&full, &masked),
            (&masked, &full),
            (&full, &strided),
            (&masked, &strided),
        ] {
            assert!(matches!(
                select_guard(i1, i2),
                OrderGuard::OrderedIndexed { .. }
            ));
        }
    }

    use oris_align::OrderGuard;
    use proptest::prelude::*;

    fn banks_from(seqs: &[String]) -> Bank {
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        bank(&refs)
    }

    /// The work scan [`partition_codes_grained`] replaced, kept as its
    /// oracle: one pass of [`for_each_seed`] sums the total, a second cuts
    /// greedily, code by code.
    #[allow(clippy::single_range_in_vec_init)]
    fn partition_codes_two_pass(
        idx1: &BankIndex,
        idx2: &BankIndex,
        chunks: u32,
        grain: u64,
    ) -> Vec<Range<u32>> {
        let num_codes = idx1.coder().num_seeds() as u32;
        if chunks <= 1 {
            return vec![0..num_codes];
        }
        let mut total = 0u64;
        let Ok(()) = for_each_seed(idx1, idx2, 0..num_codes, |_, x1, x2| {
            total += work(x1, x2);
            Ok::<(), Infallible>(())
        });
        let chunks = u64::from(chunks).min(total / grain);
        if chunks <= 1 {
            return vec![0..num_codes];
        }
        let target = total.div_ceil(chunks);
        let mut ranges = Vec::new();
        let mut lo = 0u32;
        let mut acc = 0u64;
        let Ok(()) = for_each_seed(idx1, idx2, 0..num_codes, |c, x1, x2| {
            acc += work(x1, x2);
            if acc >= target {
                ranges.push(lo..c + 1);
                lo = c + 1;
                acc = 0;
            }
            Ok::<(), Infallible>(())
        });
        if lo < num_codes {
            ranges.push(lo..num_codes);
        }
        ranges
    }

    /// `bank` indexed at `w` by both row maps: `[dense, sparse]`.
    fn both_backends(bank: &Bank, w: usize) -> [BankIndex; 2] {
        use oris_index::IndexBackend;
        [IndexBackend::Dense, IndexBackend::Sparse]
            .map(|backend| BankIndex::build(bank, IndexConfig::full(w).with_backend(backend)))
    }

    #[test]
    fn block_scan_cuts_like_the_two_pass_scan_around_homopolymers() {
        // Poly-A is code 0 and poly-T the last code, so the first and the
        // last block both hold a cut and are re-scanned code by code; at
        // W = 11 a block is 4 096 codes, at W = 5 one.
        let polya = "A".repeat(400);
        let polyt = "T".repeat(300);
        let mixed = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACCGTAGCTAGGATCC";
        let b1 = bank(&[&format!("{polya}{mixed}{polyt}"), mixed]);
        let b2 = bank(&[&format!("{polyt}{mixed}"), &format!("{mixed}{polya}")]);
        for w in [5, 6, 11] {
            let (i1s, i2s) = (both_backends(&b1, w), both_backends(&b2, w));
            for (i1, i2) in i1s.iter().flat_map(|i1| i2s.iter().map(move |i2| (i1, i2))) {
                for grain in [1, GRAIN] {
                    for chunks in [2u32, 3, 7, 16, 32, 1024] {
                        let want = partition_codes_two_pass(i1, i2, chunks, grain);
                        let got = partition_codes_grained(i1, i2, chunks, grain);
                        assert_eq!(got, want, "W = {w}, grain {grain}, chunks = {chunks}");
                    }
                }
                // Poly-A alone outweighs a range: cut right after code 0.
                let cuts = partition_codes_grained(i1, i2, 16, 1);
                assert_eq!(cuts[0], 0..1, "W = {w}: {cuts:?}");
            }
        }
    }

    proptest! {
        /// On fully indexed banks the auto-selected probe-free fast path
        /// (`OrderedFull`) and the indexed guard are byte-identical: same
        /// HSP vector (order included) and same `Step2Stats`.
        #[test]
        fn full_and_indexed_guards_agree_on_fully_indexed_banks(
            seqs1 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            seqs2 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            w in 3usize..6,
        ) {
            let b1 = banks_from(&seqs1);
            let b2 = banks_from(&seqs2);
            let c = cfg(w);
            let i1 = BankIndex::build(&b1, IndexConfig::full(w));
            let i2 = BankIndex::build(&b2, IndexConfig::full(w));
            prop_assert!(matches!(select_guard(&i1, &i2), OrderGuard::OrderedFull));

            let auto = find_hsps(&b1, &i1, &b2, &i2, &c);
            let indexed = find_hsps_guarded(
                &b1, &i1, &b2, &i2, &c,
                OrderGuard::OrderedIndexed { idx1: &i1, idx2: &i2 },
                &Deadline::none(),
            ).unwrap();
            prop_assert_eq!(&auto, &indexed);
        }

        /// Dense and sparse index backends are interchangeable in step 2:
        /// same HSP vector (order included) and same `Step2Stats`, for
        /// random banks, word lengths, masking and stride — including the
        /// mixed pairing one mmap-attached dense volume against a fresh
        /// sparse query index produces.
        #[test]
        fn step2_output_is_backend_invariant(
            seqs1 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            seqs2 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            w in 3usize..6,
            mask_mod in 2usize..7,
            stride in 1usize..3,
        ) {
            use oris_index::IndexBackend;
            let b1 = banks_from(&seqs1);
            let b2 = banks_from(&seqs2);
            let c = cfg(w);
            let dense = IndexConfig::full(w).with_backend(IndexBackend::Dense);
            let sparse = IndexConfig::full(w).with_backend(IndexBackend::Sparse);
            let d1 = BankIndex::build_filtered(&b1, dense, |p| p % mask_mod == 0);
            let s1 = BankIndex::build_filtered(&b1, sparse, |p| p % mask_mod == 0);
            let strided = |backend| IndexConfig { stride, ..IndexConfig::full(w) }
                .with_backend(backend);
            let d2 = BankIndex::build(&b2, strided(IndexBackend::Dense));
            let s2 = BankIndex::build(&b2, strided(IndexBackend::Sparse));

            let reference = find_hsps(&b1, &d1, &b2, &d2, &c);
            prop_assert_eq!(&reference, &find_hsps(&b1, &s1, &b2, &s2, &c));
            prop_assert_eq!(&reference, &find_hsps(&b1, &d1, &b2, &s2, &c));
            prop_assert_eq!(&reference, &find_hsps(&b1, &s1, &b2, &d2, &c));
        }

        /// The work-balanced partition returns at most `chunks + 1`
        /// contiguous, in-order ranges covering the whole code space —
        /// the documented greedy-cut bound — for random banks.
        #[test]
        fn partition_bound_holds_for_random_offsets(
            seqs1 in proptest::collection::vec("[ACGT]{0,80}", 1..4),
            seqs2 in proptest::collection::vec("[ACGT]{0,80}", 1..4),
            w in 2usize..5,
            chunks in 1u32..40,
        ) {
            let b1 = banks_from(&seqs1);
            let b2 = banks_from(&seqs2);
            let i1 = BankIndex::build(&b1, IndexConfig::full(w));
            let i2 = BankIndex::build(&b2, IndexConfig::full(w));
            let num_codes = i1.coder().num_seeds() as u32;
            let ranges = partition_codes_grained(&i1, &i2, chunks, 1);
            prop_assert!(!ranges.is_empty());
            prop_assert_eq!(ranges.first().unwrap().start, 0);
            prop_assert_eq!(ranges.last().unwrap().end, num_codes);
            for pair in ranges.windows(2) {
                prop_assert_eq!(pair[0].end, pair[1].start);
            }
            prop_assert!(
                ranges.len() <= chunks as usize + 1,
                "{} ranges for {} chunks", ranges.len(), chunks
            );
        }

        /// The one-pass block scan cuts exactly where the two-pass
        /// code-by-code scan does, in every row-map pairing (the dense
        /// pair takes the bitmap AND walk), with one code per block (W ≤ 5)
        /// and several (W = 6), at grain 1 and at the real grain. Half the
        /// cases carry no homopolymer, so their small totals often land a
        /// block's work exactly on the cut target.
        #[test]
        fn block_scan_cuts_like_the_two_pass_scan(
            seqs1 in proptest::collection::vec("[ACGT]{0,80}", 1..4),
            seqs2 in proptest::collection::vec("[ACGT]{0,80}", 1..4),
            polya in 0usize..400,
            polyt in 0usize..300,
            w in 2usize..=6,
            chunks in 1u32..40,
        ) {
            let polya = "A".repeat(polya.saturating_sub(200));
            let polyt = "T".repeat(polyt.saturating_sub(150));
            let (mut seqs1, mut seqs2) = (seqs1, seqs2);
            seqs1[0] = format!("{polya}{}{polyt}", seqs1[0]);
            seqs2[0] = format!("{polyt}{}{polya}", seqs2[0]);
            let (b1, b2) = (banks_from(&seqs1), banks_from(&seqs2));
            let (i1s, i2s) = (both_backends(&b1, w), both_backends(&b2, w));
            for i1 in &i1s {
                for i2 in &i2s {
                    for grain in [1, GRAIN] {
                        prop_assert_eq!(
                            partition_codes_grained(i1, i2, chunks, grain),
                            partition_codes_two_pass(i1, i2, chunks, grain)
                        );
                    }
                }
            }
        }
    }
}
