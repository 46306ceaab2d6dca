//! Step 3 — gapped extension of HSPs (paper section 2.3).
//!
//! HSPs arrive sorted by diagonal number. Each HSP not already contained
//! in a previously computed gapped alignment is extended from its midpoint
//! in both directions by X-drop dynamic programming (`oris-align::gapped`)
//! and the two halves are merged.
//!
//! The containment test mirrors the paper's: "a gapped extension will be
//! done only if an HSP does not belong to a gapped alignment previously
//! computed… both HSPs and gapped alignments are sorted using the same
//! criteria (diagonal number)… testing this condition does not involve
//! time consuming search… due to the locality of the data". We keep an
//! *active window* of recent alignments ordered by their maximum diagonal;
//! since HSPs arrive in increasing diagonal order, alignments whose
//! diagonal range lies entirely below the current HSP diagonal (minus the
//! band slack) can never contain a future HSP and are retired. An HSP is
//! contained when its midpoint falls inside an alignment's coordinate box
//! and its diagonal within the alignment's [min, max] diagonal range.
//!
//! HSPs are grouped by `(query record, subject record)` — gapped
//! alignments never cross sentinel boundaries, so groups are independent —
//! by tagging each with its record pair and stable-sorting on the tag:
//! groups come out as index ranges in ascending key order with the
//! diagonal order inside each preserved, and no map is involved.
//!
//! Groups are scheduled in **waves sized by work**. A wave is the run of
//! consecutive groups that holds at least `2 × workers` groups *and* an
//! HSP budget proportional to the worker count, so 13 000 one-HSP groups
//! make ~50 waves and six chromosome-pair groups make two. A wave is one
//! parallel map (`map_init`) over its groups, each worker with its own
//! kernel scratch; a wave too small to repay a thread runs on the
//! caller's. When the wave is done its groups are handed to
//! the [`Step3Emit`] receiver in ascending key order, so the stream is the
//! same for any thread count and at most one wave's alignments are ever
//! live — the streaming pipeline ([`gapped_alignments_into`]) never holds
//! a whole query's. [`gapped_alignments`] collects the same stream. A
//! session's deadline is read before each wave and never inside one, so
//! an expired search stops within one wave.

use std::ops::Range;

use oris_align::{extend_gapped_both, AlignOp, AlignStats, GappedParams, GappedScratch};
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::config::OrisConfig;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::hsp::Hsp;

/// A gapped alignment in global bank coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct GappedAlignment {
    /// Start on bank 1 (global, inclusive).
    pub start1: usize,
    /// Start on bank 2 (global, inclusive).
    pub start2: usize,
    /// Characters consumed on bank 1.
    pub len1: usize,
    /// Characters consumed on bank 2.
    pub len2: usize,
    /// Alignment score (affine gaps).
    pub score: i32,
    /// Column statistics (identity, mismatches, gap openings).
    pub stats: AlignStats,
    /// Smallest diagonal touched by the alignment path.
    pub diag_min: i64,
    /// Largest diagonal touched by the alignment path.
    pub diag_max: i64,
}

impl GappedAlignment {
    /// End on bank 1 (exclusive).
    pub fn end1(&self) -> usize {
        self.start1 + self.len1
    }

    /// End on bank 2 (exclusive).
    pub fn end2(&self) -> usize {
        self.start2 + self.len2
    }

    /// Whether the point `(p1, p2, diag)` lies inside this alignment's
    /// coordinate box and diagonal band.
    pub fn contains_point(&self, p1: usize, p2: usize, diag: i64) -> bool {
        p1 >= self.start1
            && p1 < self.end1()
            && p2 >= self.start2
            && p2 < self.end2()
            && diag >= self.diag_min
            && diag <= self.diag_max
    }
}

/// Counters reported by step 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step3Stats {
    /// HSPs skipped because an existing alignment contained them.
    pub skipped_contained: u64,
    /// Gapped extensions performed.
    pub extended: u64,
    /// X-drop DP cells computed over all extensions, both halves of each.
    pub dp_cells: u64,
}

impl Step3Stats {
    /// Sums the counters of two reports (used by group concatenation and
    /// by the pipeline's strand merge).
    pub fn merge(mut self, o: Step3Stats) -> Step3Stats {
        self.skipped_contained += o.skipped_contained;
        self.extended += o.extended;
        self.dp_cells += o.dp_cells;
        self
    }
}

/// An HSP tagged with its `(query record, subject record)` group key.
type Tagged = ((usize, usize), Hsp);

/// One group's outcome: its alignments and counters.
type GroupResult = (Vec<GappedAlignment>, Step3Stats);

/// Extends one HSP from its midpoint and packages the result, folding
/// the column statistics and the diagonal range out of the ops while
/// they still sit in the scratch. Returns the DP cells it took beside it.
fn extend_one(
    bank1: &Bank,
    bank2: &Bank,
    hsp: &Hsp,
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> (GappedAlignment, usize) {
    let (m1, m2) = hsp.midpoint();
    let (merged, start1, start2) =
        extend_gapped_both(bank1.data(), bank2.data(), m1, m2, params, scratch);
    // Diagonal range along the path.
    let mut diag = start1 as i64 - start2 as i64;
    let mut dmin = diag;
    let mut dmax = diag;
    for op in merged.ops {
        match op {
            AlignOp::Ins => {
                diag += 1;
                dmax = dmax.max(diag);
            }
            AlignOp::Del => {
                diag -= 1;
                dmin = dmin.min(diag);
            }
            _ => {}
        }
    }
    let aln = GappedAlignment {
        start1,
        start2,
        len1: merged.len1,
        len2: merged.len2,
        score: merged.score,
        stats: AlignStats::from_ops(merged.ops),
        diag_min: dmin,
        diag_max: dmax,
    };
    (aln, merged.cells)
}

/// Sequential step 3 over one group's diagonal-sorted HSPs.
fn gapped_serial(
    bank1: &Bank,
    bank2: &Bank,
    group: &[Tagged],
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> GroupResult {
    let mut stats = Step3Stats::default();
    let mut out: Vec<GappedAlignment> = Vec::new();
    // Active window: indexes into `out`, retired once their diag_max falls
    // behind the sweep (with slack for the midpoint offset).
    let mut active: Vec<usize> = Vec::new();

    for (_, hsp) in group {
        let (m1, m2) = hsp.midpoint();
        let diag = hsp.diag();
        // Retire alignments that end (in diagonal terms) before the sweep.
        active.retain(|&i| out[i].diag_max >= diag);

        let contained = active.iter().any(|&i| out[i].contains_point(m1, m2, diag));
        if contained {
            stats.skipped_contained += 1;
            continue;
        }
        stats.extended += 1;
        let (aln, cells) = extend_one(bank1, bank2, hsp, params, scratch);
        stats.dp_cells += cells as u64;
        active.push(out.len());
        out.push(aln);
    }
    (out, stats)
}

/// Receiver for step 3's streamed output: one call per
/// `(query record, subject record)` group, in ascending group-key order,
/// made as soon as the group's alignments exist. The streaming pipeline
/// implements this with a closure that runs step 4 on the group and feeds
/// the records straight into a `RecordSink`, so whole-query alignment
/// vectors never materialize.
pub trait Step3Emit {
    /// Delivers one group's gapped alignments (ownership transfers — the
    /// receiver is the buffer's last stop).
    fn group(&mut self, alns: Vec<GappedAlignment>);
}

impl<F: FnMut(Vec<GappedAlignment>)> Step3Emit for F {
    fn group(&mut self, alns: Vec<GappedAlignment>) {
        self(alns)
    }
}

/// HSPs a wave must hold, per worker, before it may close. Measured on
/// the benchmark's `repeat_family` inputs (13 000 one-HSP groups, 2
/// workers): 128 and 2 048 run equally fast (0.084 s vs 0.085 s per CLI
/// run), but at 2 048 a wave's finished alignments lift peak RSS from
/// 13.4 MB to 15.3 MB, and at 32 (0.097 s) and 8 (0.130 s) the per-wave
/// thread start shows again.
const WAVE_HSPS_PER_WORKER: usize = 128;

/// A wave with fewer HSPs than this runs on the calling thread. Starting
/// and joining one thread costs 11–13 µs (the rayon shim's docs) and a
/// small extension 4–6 µs, so a second worker repays its start from
/// about six HSPs up; below that (a read mapped to two records, say) it
/// is pure overhead.
const INLINE_WAVE_HSPS: usize = 8;

/// Safety bounds of one gapped extension, per direction: characters
/// consumed on each tape, and DP cells computed (the memory guard).
const MAX_GAPPED_SPAN: usize = 1 << 20;
const MAX_GAPPED_CELLS: usize = 1 << 24;

/// Cuts the groups (index ranges into the tagged HSP vector, ascending
/// key) into waves: each wave is the shortest run of consecutive groups
/// holding at least `2 × workers` groups — slack for uneven group sizes —
/// and at least `WAVE_HSPS_PER_WORKER × workers` HSPs, so a barrier is
/// paid per unit of work, not per handful of groups. The last wave takes
/// what is left.
fn waves(groups: &[Range<usize>], workers: usize) -> Vec<Range<usize>> {
    let (min_groups, min_hsps) = (2 * workers, WAVE_HSPS_PER_WORKER * workers);
    let mut out = Vec::new();
    let (mut first, mut hsps) = (0usize, 0usize);
    for (g, group) in groups.iter().enumerate() {
        hsps += group.len();
        if g + 1 - first >= min_groups && hsps >= min_hsps {
            out.push(first..g + 1);
            (first, hsps) = (g + 1, 0);
        }
    }
    if first < groups.len() {
        out.push(first..groups.len());
    }
    out
}

/// Runs step 3, parallelizing over `(record1, record2)` groups and
/// streaming each group's alignments into `emit` as soon as its wave is
/// done. At most one wave's alignments are live at a time (see the module
/// docs for how a wave is sized); within and across waves, emission
/// follows ascending group key, which keeps the stream deterministic for
/// any thread count.
pub fn gapped_alignments_into(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    emit: &mut dyn Step3Emit,
) -> Step3Stats {
    gapped_groups_into(
        bank1,
        bank2,
        hsps,
        cfg,
        &Deadline::none(),
        &mut |alns, _| emit.group(alns),
    )
    .expect("a disarmed deadline cannot expire")
}

/// [`gapped_alignments_into`] handing each group's own counters to
/// `emit` beside its alignments, so a caller can book them to the query
/// record the group belongs to. Returns the counters summed.
///
/// `deadline` is read before each wave, never inside one: an expiry
/// returns [`DeadlineExceeded`] with the waves before it already emitted,
/// so the caller drops what `emit` gathered.
pub(crate) fn gapped_groups_into(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    deadline: &Deadline,
    emit: &mut dyn FnMut(Vec<GappedAlignment>, Step3Stats),
) -> Result<Step3Stats, DeadlineExceeded> {
    let params = GappedParams {
        scheme: cfg.scheme,
        xdrop: cfg.xdrop_gapped,
        max_span: MAX_GAPPED_SPAN,
        max_cells: MAX_GAPPED_CELLS,
    };

    // Tag each HSP with its sequence pair and sort on the tag. The sort
    // is stable, so within a group HSPs keep their global diagonal order.
    let mut tagged: Vec<Tagged> = hsps
        .iter()
        .map(|h| {
            let r1 = bank1
                .locate(h.start1 as usize)
                .expect("HSP start must lie inside a sequence");
            let r2 = bank2
                .locate(h.start2 as usize)
                .expect("HSP start must lie inside a sequence");
            ((r1, r2), *h)
        })
        .collect();
    tagged.sort_by_key(|&(key, _)| key);
    let mut groups: Vec<Range<usize>> = Vec::new();
    for group in tagged.chunk_by(|a, b| a.0 == b.0) {
        let first = groups.last().map_or(0, |g| g.end);
        groups.push(first..first + group.len());
    }

    let workers = rayon::current_num_threads().max(1);
    let run = |scratch: &mut GappedScratch, group: &Range<usize>| {
        gapped_serial(bank1, bank2, &tagged[group.clone()], &params, scratch)
    };
    // The calling thread's scratch for the waves too small to repay a
    // thread, kept across them. A parallel wave builds one scratch per
    // worker, on that worker's stack: scratches side by side in one vector
    // shared cache lines between workers, which cost `genome_repeats` its
    // whole two-thread speed-up.
    let mut scratch = GappedScratch::new();

    let mut stats = Step3Stats::default();
    for wave in waves(&groups, workers) {
        deadline.check()?;
        let wave = &groups[wave];
        let wave_hsps = wave[wave.len() - 1].end - wave[0].start;
        let done: Vec<GroupResult> = if wave_hsps < INLINE_WAVE_HSPS {
            wave.iter().map(|group| run(&mut scratch, group)).collect()
        } else {
            wave.par_iter().map_init(GappedScratch::new, run).collect()
        };
        for (alns, s) in done {
            stats = stats.merge(s);
            emit(alns, s);
        }
    }
    Ok(stats)
}

/// Collect-everything wrapper over [`gapped_alignments_into`], for the
/// tests, the brute-force references and any caller that genuinely needs
/// the whole vector: the concatenation of the emitted groups.
pub fn gapped_alignments(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
) -> (Vec<GappedAlignment>, Step3Stats) {
    let mut out: Vec<GappedAlignment> = Vec::new();
    let mut collect = |mut alns: Vec<GappedAlignment>| out.append(&mut alns);
    let stats = gapped_alignments_into(bank1, bank2, hsps, cfg, &mut collect);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_index::{BankIndex, IndexConfig};
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn pipeline_to_step3(
        b1: &Bank,
        b2: &Bank,
        cfg: &OrisConfig,
    ) -> (Vec<GappedAlignment>, Step3Stats) {
        let i1 = BankIndex::build(b1, IndexConfig::full(cfg.w));
        let i2 = BankIndex::build(b2, IndexConfig::full(cfg.w));
        let (hsps, _) = crate::step2::find_hsps(b1, &i1, b2, &i2, cfg);
        gapped_alignments(b1, b2, &hsps, cfg)
    }

    fn cfg(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: w as i32 + 2,
            ..OrisConfig::small(w)
        }
    }

    #[test]
    fn identical_sequences_one_alignment() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let (alns, stats) = pipeline_to_step3(&b1, &b2, &cfg(6));
        assert_eq!(alns.len(), 1, "{alns:?}");
        assert_eq!(alns[0].len1, s.len());
        assert_eq!(alns[0].score, s.len() as i32);
        assert_eq!(stats.extended, 1);
    }

    #[test]
    fn gapped_alignment_bridges_indel() {
        // Two HSP-diagonals separated by a 2-nt insertion: step 3 must
        // produce ONE gapped alignment spanning both, and the second HSP
        // must be skipped as contained.
        let left = "ATGGCGTACGTTAGCCTAGG";
        let right = "CTTAACGGATCGATCCGGTA";
        let s1 = format!("{left}{right}");
        let s2 = format!("{left}GG{right}");
        let b1 = bank(&[&s1]);
        let b2 = bank(&[&s2]);
        let (alns, stats) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 1, "{alns:?}");
        let a = &alns[0];
        assert_eq!(a.len1, s1.len());
        assert_eq!(a.len2, s2.len());
        assert_eq!(a.stats.gap_opens, 1);
        assert_eq!(a.stats.gap_columns, 2);
        assert_eq!(a.diag_max - a.diag_min, 2);
        assert_eq!(stats.skipped_contained, 1);
        assert_eq!(stats.extended, 1);
    }

    #[test]
    fn distinct_homologies_stay_distinct() {
        // The same core aligned at two distant subject locations: two
        // alignments, neither suppressed.
        let core = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("{core}TTTTTTTTTTTTTTTTTTTTTTTTTTTTTT{core}")]);
        let (alns, _) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 2, "{alns:?}");
    }

    #[test]
    fn parallel_groups_match_serial() {
        let core1 = "ATGGCGTACGTTAGCCTAGGCTTA";
        let core2 = "GGCCATTAGGCCATTAACGGTTAA";
        let b1 = bank(&[core1, core2, &format!("{core1}AC{core2}")]);
        let b2 = bank(&[core2, core1]);
        let c = cfg(7);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (hsps, _) = crate::step2::find_hsps(&b1, &i1, &b2, &i2, &c);

        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (a1, s1) = pool1.install(|| gapped_alignments(&b1, &b2, &hsps, &c));
        let (a4, s4) = pool4.install(|| gapped_alignments(&b1, &b2, &hsps, &c));
        assert_eq!(a1, a4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn containment_respects_coordinates_not_just_diagonal() {
        // The core appears twice in each bank → 4 distinct cross
        // alignments, two of which share diagonal 0 but sit far apart
        // along it: neither may be suppressed by the other.
        let core = "ATGGCGTACGTTAGCCTAGGCTTA";
        let filler1 = "CCCCCCCCCCCCCCCCCCCCCCCCCCCCCC";
        let filler2 = "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG";
        let b1 = bank(&[&format!("{core}{filler1}{core}")]);
        let b2 = bank(&[&format!("{core}{filler2}{core}")]);
        let (alns, _) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 4, "{alns:?}");
        let on_diag0: Vec<_> = alns.iter().filter(|a| a.diag_min == 0).collect();
        assert_eq!(on_diag0.len(), 2);
        assert_ne!(on_diag0[0].start1, on_diag0[1].start1);
    }

    #[test]
    fn stats_sum_to_hsp_count() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[core]);
        let b2 = bank(&[core]);
        let c = cfg(6);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (hsps, _) = crate::step2::find_hsps(&b1, &i1, &b2, &i2, &c);
        let (_, st) = gapped_alignments(&b1, &b2, &hsps, &c);
        assert_eq!(st.extended + st.skipped_contained, hsps.len() as u64);
    }

    #[test]
    fn waves_are_work_sized_and_cover_every_group_once() {
        // Group sizes → index ranges, as the scheduler builds them.
        let ranges = |sizes: &[usize]| -> Vec<Range<usize>> {
            let mut at = 0;
            sizes
                .iter()
                .map(|&n| {
                    at += n;
                    at - n..at
                })
                .collect()
        };
        let shapes: Vec<Vec<usize>> = vec![
            vec![1; 13_000],
            vec![3200; 6],
            (0..500).map(|i| 1 + (i * 37) % 300).collect(),
            vec![1, 1, 5000, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            vec![7],
            vec![],
        ];
        for sizes in &shapes {
            let groups = ranges(sizes);
            for workers in [1usize, 2, 4, 7] {
                let budget = WAVE_HSPS_PER_WORKER * workers;
                let got = waves(&groups, workers);
                // Ascending, gap-free cover of every group.
                let mut next = 0;
                for w in &got {
                    assert_eq!(w.start, next);
                    assert!(w.end > w.start);
                    next = w.end;
                }
                assert_eq!(next, groups.len());
                let hsps = |w: &Range<usize>| sizes[w.clone()].iter().sum::<usize>();
                for (n, w) in got.iter().enumerate() {
                    // Every wave but the last holds the minimum of both…
                    if n + 1 < got.len() {
                        assert!(w.len() >= 2 * workers, "{sizes:?} {workers} {w:?}");
                        assert!(hsps(w) >= budget, "{sizes:?} {workers} {w:?}");
                    }
                    // …and no more than it needs: without its last group
                    // it is short of groups or of HSPs, so a wave of many
                    // groups holds at most the budget plus one group.
                    let short = w.start..w.end - 1;
                    assert!(short.len() < 2 * workers || hsps(&short) < budget);
                }
            }
        }
        assert_eq!(waves(&ranges(&[1; 13_000]), 2).len(), 51);
        assert_eq!(waves(&ranges(&[3200; 6]), 2), vec![0..4, 4..6]);
    }

    /// Deterministic draws for the scheduling shapes.
    struct Gen(proptest::test_runner::TestRng);

    impl Gen {
        fn draw(&mut self, lo: usize, hi: usize) -> usize {
            self.0.in_range_u64(lo as u64, hi as u64) as usize
        }

        fn dna(&mut self, n: usize) -> String {
            (0..n).map(|_| b"ACGT"[self.draw(0, 3)] as char).collect()
        }

        /// A copy of `s` with one base in `every` substituted.
        fn diverged(&mut self, s: &str, every: usize) -> String {
            s.chars()
                .map(|c| {
                    if self.draw(1, every) == 1 {
                        if c == 'A' {
                            'C'
                        } else {
                            'A'
                        }
                    } else {
                        c
                    }
                })
                .collect()
        }
    }

    fn hsp(b1: &Bank, r1: usize, p1: usize, b2: &Bank, r2: usize, p2: usize, len: u32) -> Hsp {
        Hsp {
            start1: (b1.record(r1).start + p1) as u32,
            start2: (b2.record(r2).start + p2) as u32,
            len,
            score: len as i32,
        }
    }

    /// Three scheduling shapes — 2 000 one-HSP groups, 3 groups of 2 000
    /// HSPs, and a mix of 57 — as `(bank1, bank2, diagonal-sorted HSPs)`.
    fn scheduling_shapes() -> Vec<(Bank, Bank, Vec<Hsp>)> {
        let mut g = Gen(proptest::test_runner::TestRng::for_test(
            "scheduling_shapes",
        ));
        let mut shapes = Vec::new();

        // 40 × 50 short records sharing one 24-nt repeat: one HSP per pair.
        let repeat = g.dna(24);
        let family = |g: &mut Gen, n: usize| -> (Bank, Vec<usize>) {
            let offsets: Vec<usize> = (0..n).map(|_| g.draw(0, 30)).collect();
            let seqs: Vec<String> = offsets
                .iter()
                .map(|&o| format!("{}{repeat}{}", g.dna(o), g.dna(36 - o)))
                .collect();
            (
                bank(&seqs.iter().map(String::as_str).collect::<Vec<_>>()),
                offsets,
            )
        };
        let (b1, o1) = family(&mut g, 40);
        let (b2, o2) = family(&mut g, 50);
        let mut hsps = Vec::new();
        for (r1, &p1) in o1.iter().enumerate() {
            for (r2, &p2) in o2.iter().enumerate() {
                hsps.push(hsp(&b1, r1, p1, &b2, r2, p2, 24));
            }
        }
        shapes.push((b1, b2, hsps));

        // One 4 kb record against three diverged copies: 2 000 HSPs per
        // pair, half on the homologous diagonal (mostly contained in the
        // first alignment), half anywhere (short dead-end extensions).
        let base = g.dna(4000);
        let copies: Vec<String> = (0..3).map(|_| g.diverged(&base, 30)).collect();
        let b1 = bank(&[&base]);
        let b2 = bank(&copies.iter().map(String::as_str).collect::<Vec<_>>());
        let mut hsps = Vec::new();
        for r2 in 0..3 {
            for i in 0..2000 {
                let p1 = g.draw(0, 3980);
                let p2 = if i % 2 == 0 { p1 } else { g.draw(0, 3980) };
                hsps.push(hsp(&b1, 0, p1, &b2, r2, p2, 12));
            }
        }
        shapes.push((b1, b2, hsps));

        // Mixed: 6 × 12 records of 600 nt, subject j a diverged copy of
        // query j mod 6; most pairs carry no HSP, some one, a few hundreds.
        let queries: Vec<String> = (0..6).map(|_| g.dna(600)).collect();
        let subjects: Vec<String> = (0..12).map(|j| g.diverged(&queries[j % 6], 25)).collect();
        let b1 = bank(&queries.iter().map(String::as_str).collect::<Vec<_>>());
        let b2 = bank(&subjects.iter().map(String::as_str).collect::<Vec<_>>());
        let mut hsps = Vec::new();
        for r1 in 0..6 {
            for r2 in 0..12 {
                let n = match (r1 * 12 + r2) % 5 {
                    0 => 0,
                    1 | 2 => 1,
                    3 => g.draw(2, 9),
                    _ => 300,
                };
                for _ in 0..n {
                    let p1 = g.draw(0, 580);
                    let p2 = if r2 % 6 == r1 { p1 } else { g.draw(0, 580) };
                    hsps.push(hsp(&b1, r1, p1, &b2, r2, p2, 14));
                }
            }
        }
        shapes.push((b1, b2, hsps));

        for (_, _, hsps) in &mut shapes {
            hsps.sort_by(Hsp::diag_order);
        }
        shapes
    }

    #[test]
    fn any_pool_size_emits_the_same_groups_in_the_same_order() {
        let c = cfg(8);
        for ((b1, b2, hsps), pairs) in scheduling_shapes().into_iter().zip([2000, 3, 57]) {
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    let mut groups: Vec<Vec<GappedAlignment>> = Vec::new();
                    let mut record = |alns: Vec<GappedAlignment>| groups.push(alns);
                    let stats = gapped_alignments_into(&b1, &b2, &hsps, &c, &mut record);
                    let collected = gapped_alignments(&b1, &b2, &hsps, &c);
                    (groups, stats, collected)
                })
            };
            let (groups, stats, collected) = run(1);
            assert_eq!(stats.extended + stats.skipped_contained, hsps.len() as u64);
            // One emission per record pair that has an HSP, keys ascending.
            let key = |a: &GappedAlignment| (b1.locate(a.start1), b2.locate(a.start2));
            let keys: Vec<_> = groups.iter().map(|g| key(&g[0])).collect();
            assert_eq!(keys.len(), pairs);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
            assert!(groups
                .iter()
                .all(|g| g.iter().all(|a| key(a) == key(&g[0]))));
            assert_eq!(collected, (groups.concat(), stats));
            for threads in [2, 4, 7] {
                assert_eq!(run(threads), (groups.clone(), stats, collected.clone()));
            }
        }
    }
}
