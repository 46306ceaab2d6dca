//! The BLASTN-style subject scan with per-diagonal duplicate suppression.
//!
//! For each subject (bank 2) position, the rolling W-mer probes the query
//! lookup table; every occurrence of that word in bank 1 is a *hit*.
//! Before extending, the scanner consults the diagonal array: if a
//! previous extension on the same diagonal already covered this position,
//! the hit is dropped (it would regenerate the same HSP — BLASTN's
//! classic suppression, the counterpart of ORIS's ordering rule). The
//! dict probe per subject position is inherently random-access — the
//! cache-hostile pattern the paper contrasts with ORIS's grouped
//! enumeration.
//!
//! The scan parallelizes over subject sequences: each worker carries a
//! reusable epoch-stamped diagonal table (one slot per possible diagonal)
//! so per-sequence resets are O(1).

use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
use oris_core::{Hsp, OrisConfig};
use oris_index::BankIndex;
use oris_seqio::Bank;
use rayon::prelude::*;

/// Counters reported by the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Subject positions probed against the lookup table.
    pub probes: u64,
    /// Raw hits returned by the lookup table.
    pub hits: u64,
    /// Hits suppressed by the diagonal array.
    pub suppressed: u64,
    /// Ungapped extensions performed.
    pub extensions: u64,
    /// HSPs kept (score above threshold).
    pub kept: u64,
}

impl ScanStats {
    pub(crate) fn merge(mut self, o: ScanStats) -> ScanStats {
        self.probes += o.probes;
        self.hits += o.hits;
        self.suppressed += o.suppressed;
        self.extensions += o.extensions;
        self.kept += o.kept;
        self
    }
}

/// Epoch-stamped per-diagonal "last covered end on bank 1" table.
struct DiagTable {
    /// `(end1, epoch)` per diagonal slot.
    slots: Vec<(u32, u32)>,
    epoch: u32,
    /// `diag_offset` maps diagonal `p1 − p2` to a slot index.
    offset: i64,
}

impl DiagTable {
    fn new(len1: usize, len2: usize) -> DiagTable {
        DiagTable {
            slots: vec![(0, 0); len1 + len2 + 2],
            epoch: 0,
            offset: len2 as i64 + 1,
        }
    }

    /// Starts a fresh subject sequence (O(1)).
    fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrapped: clear physically once every 2^32 resets
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    #[inline]
    fn slot(&self, diag: i64) -> usize {
        (diag + self.offset) as usize
    }

    /// End of the last extension on `diag`, if any this epoch.
    #[inline]
    fn last_end(&self, diag: i64) -> Option<u32> {
        let (end, ep) = self.slots[self.slot(diag)];
        (ep == self.epoch).then_some(end)
    }

    #[inline]
    fn set_end(&mut self, diag: i64, end1: u32) {
        let s = self.slot(diag);
        self.slots[s] = (end1, self.epoch);
    }
}

/// Scans one subject record against the query lookup table.
fn scan_record(
    bank1: &Bank,
    lookup: &BankIndex,
    bank2: &Bank,
    rec2: usize,
    params: &UngappedParams,
    min_score: i32,
    diags: &mut DiagTable,
    masked2: Option<&oris_index::MaskSet>,
    out: &mut Vec<Hsp>,
) -> ScanStats {
    let d1 = bank1.data();
    let d2 = bank2.data();
    let coder = lookup.coder();
    let w = params.w;
    let rec = bank2.record(rec2);
    let mut stats = ScanStats::default();
    diags.reset();

    let window = &d2[rec.start..rec.end()];
    for (local, code) in oris_index::RollingCoder::new(coder, window) {
        let p2 = rec.start + local;
        if let Some(m) = masked2 {
            if m.contains(p2) {
                continue;
            }
        }
        stats.probes += 1;
        for p1 in lookup.occurrences(code) {
            stats.hits += 1;
            // Table key: diagonal in record-local subject coordinates
            // (the table is sized for one record and reset per record).
            let diag = p1 as i64 - local as i64;
            if let Some(end) = diags.last_end(diag) {
                if end > p1 {
                    stats.suppressed += 1;
                    continue;
                }
            }
            stats.extensions += 1;
            match extend_hit(
                d1,
                d2,
                p1 as usize,
                p2,
                code,
                coder,
                params,
                OrderGuard::None,
            ) {
                ExtensionOutcome::Hsp { score, left, right } => {
                    let start1 = p1 - left as u32;
                    let len = left as u32 + w as u32 + right as u32;
                    // Mark the diagonal as covered up to the extension end
                    // so later seeds inside this HSP are suppressed.
                    diags.set_end(diag, start1 + len);
                    // `>=`: min_hsp_score is the minimum score to keep —
                    // kept in lockstep with ORIS step 2 so the HSP-set
                    // agreement tests compare like for like.
                    if score >= min_score {
                        stats.kept += 1;
                        out.push(Hsp {
                            start1,
                            start2: p2 as u32 - left as u32,
                            len,
                            score,
                        });
                    }
                }
                ExtensionOutcome::Aborted => unreachable!("guard disabled"),
            }
        }
    }
    stats
}

/// Scans the whole subject bank, parallel over subject sequences.
///
/// Returns HSPs sorted by diagonal (the shared step-3 input order).
pub fn scan_bank(
    bank1: &Bank,
    lookup: &BankIndex,
    bank2: &Bank,
    cfg: &OrisConfig,
    masked2: Option<&oris_index::MaskSet>,
) -> (Vec<Hsp>, ScanStats) {
    let params = UngappedParams {
        w: cfg.w,
        xdrop: cfg.xdrop_ungapped,
        scheme: cfg.scheme,
    };
    let len1 = bank1.data().len();
    let max_len2 = bank2.records().iter().map(|r| r.len).max().unwrap_or(0);

    let results: Vec<(Vec<Hsp>, ScanStats)> = (0..bank2.num_sequences())
        .into_par_iter()
        .map_init(
            || DiagTable::new(len1, max_len2),
            |diags, rec2| {
                let mut out = Vec::new();
                let stats = scan_record(
                    bank1,
                    lookup,
                    bank2,
                    rec2,
                    &params,
                    cfg.min_hsp_score,
                    diags,
                    masked2,
                    &mut out,
                );
                (out, stats)
            },
        )
        .collect();

    let mut stats = ScanStats::default();
    let mut hsps = Vec::with_capacity(results.iter().map(|(v, _)| v.len()).sum());
    for (v, s) in results {
        hsps.extend(v);
        stats = stats.merge(s);
    }
    hsps.sort_by(Hsp::diag_order);
    hsps.dedup();
    (hsps, stats)
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

    fn run(b1: &Bank, b2: &Bank, cfg: &OrisConfig) -> (Vec<Hsp>, ScanStats) {
        let lookup = BankIndex::build(b1, IndexConfig::full(cfg.w));
        scan_bank(b1, &lookup, b2, cfg, None)
    }

    fn cfg(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: w as i32,
            ..OrisConfig::small(w)
        }
    }

    #[test]
    fn identical_sequences_one_hsp() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let (hsps, stats) = run(&b1, &b2, &cfg(6));
        assert_eq!(hsps.len(), 1, "{hsps:?}");
        assert_eq!(hsps[0].len as usize, s.len());
        // Later seeds on the diagonal were suppressed, not re-extended.
        assert!(stats.suppressed > 0);
        assert_eq!(stats.extensions, 1);
    }

    #[test]
    fn diagonal_suppression_counts_every_inner_seed() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let (_, stats) = run(&b1, &b2, &cfg(6));
        // hits = extensions + suppressed (all on the main diagonal here)
        assert_eq!(stats.hits, stats.extensions + stats.suppressed);
    }

    #[test]
    fn scan_matches_oris_hsp_set() {
        // Same inputs, both engines at the same thresholds: the HSP sets
        // must coincide (this is the cross-engine agreement the paper's
        // sensitivity tables quantify at the alignment level).
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGG";
        let b1 = bank(&[&format!("TTAACC{core}GGTTAA"), "GGCCAATTGGCCAATT"]);
        let b2 = bank(&[&format!("CCGG{core}AATT")]);
        let c = cfg(6);
        let (blast_hsps, _) = run(&b1, &b2, &c);

        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (oris_hsps, _) = oris_core::step2::find_hsps(&b1, &i1, &b2, &i2, &c);

        let a: std::collections::HashSet<(u32, u32, u32)> = blast_hsps
            .iter()
            .map(|h| (h.start1, h.start2, h.len))
            .collect();
        let b: std::collections::HashSet<(u32, u32, u32)> = oris_hsps
            .iter()
            .map(|h| (h.start1, h.start2, h.len))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_over_subjects_is_deterministic() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTA";
        let seqs: Vec<String> = (0..12)
            .map(|i| format!("{}{core}{}", "GT".repeat(i), "CA".repeat(12 - i)))
            .collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let b1 = bank(&[core]);
        let b2 = bank(&refs);
        let c = cfg(8);
        let lookup = BankIndex::build(&b1, IndexConfig::full(c.w));
        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (h1, s1) = pool1.install(|| scan_bank(&b1, &lookup, &b2, &c, None));
        let (h4, s4) = pool4.install(|| scan_bank(&b1, &lookup, &b2, &c, None));
        assert_eq!(h1, h4);
        assert_eq!(s1, s4);
        assert_eq!(h1.len(), 12);
    }

    #[test]
    fn masked_subject_positions_skipped() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let c = cfg(6);
        let lookup = BankIndex::build(&b1, IndexConfig::full(c.w));
        let mut mask = oris_index::MaskSet::new(b2.data().len());
        mask.set_range(0, b2.data().len());
        let (hsps, stats) = scan_bank(&b1, &lookup, &b2, &c, Some(&mask));
        assert!(hsps.is_empty());
        assert_eq!(stats.probes, 0);
    }

    #[test]
    fn empty_banks() {
        let b = bank(&["ACGTACGTACGT"]);
        let empty = Bank::empty();
        let c = cfg(6);
        let (h, _) = run(&empty, &b, &c);
        assert!(h.is_empty());
        let (h, _) = run(&b, &empty, &c);
        assert!(h.is_empty());
    }
}
