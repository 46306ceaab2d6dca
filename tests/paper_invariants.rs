//! Property-based tests of the paper's central claims, spanning crates.
//!
//! The exactly-once property is also the order guards' oracle: step 2 has
//! one guard per index provenance and no second implementation to compare
//! it with, so the guards are held to the rule itself — here over full,
//! masked and strided indexes, and on fixtures in `oris-align`'s
//! `ungapped` tests (`OrderedIndexed` against `OrderedFull` and the
//! unguarded extent).

use oris::prelude::*;
use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
use oris_index::IndexConfig;
use oris_seqio::BankBuilder;
use proptest::prelude::*;

fn bank_from(seqs: &[String]) -> Bank {
    let mut b = BankBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(&format!("s{i}"), s).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// THE paper invariant (section 2.2): with the ordered-seed rule no
    /// HSP is generated twice, and every HSP it generates is one that
    /// unguarded extension of an enumerated hit produces. The rule
    /// guarantees no more than that: under a saturating X-drop the walk
    /// carries the abort test far beyond the final extent, so a
    /// smaller-code seed elsewhere on the diagonal may take over a short
    /// HSP and then itself score below the threshold — set *equality*
    /// with brute force does not hold. The index shape is an input: full,
    /// every `m`-th bank-1 position masked, bank 2 at stride 1 or 2 —
    /// "enumerated" always means "in both indexes".
    #[test]
    fn ordered_rule_generates_each_hsp_exactly_once(
        seqs1 in proptest::collection::vec("[ACGT]{30,90}", 1..3),
        seqs2 in proptest::collection::vec("[ACGT]{30,90}", 1..3),
        core in "[ACGT]{25,50}",
        w in 5usize..8,
        mask_mod in 1usize..9,
        stride in 1usize..3,
    ) {
        // Plant the shared core into both banks so real HSPs exist.
        let mut v1 = seqs1.clone();
        let mut v2 = seqs2.clone();
        v1[0] = format!("{}{core}{}", &v1[0][..10], &v1[0][10..]);
        v2[0] = format!("{}{core}", &v2[0][..15]);
        let b1 = bank_from(&v1);
        let b2 = bank_from(&v2);

        let cfg = oris::core::OrisConfig {
            w,
            min_hsp_score: w as i32 + 1,
            xdrop_ungapped: 10_000,
            ..oris::core::OrisConfig::small(w)
        };
        // mask_mod 1 stands for "nothing masked": with stride 1 that is
        // the fully indexed pair and the probe-free guard.
        let i1 = BankIndex::build_filtered(&b1, IndexConfig::full(w), |p| {
            mask_mod >= 2 && p % mask_mod == 0
        });
        let i2 = BankIndex::build(&b2, IndexConfig { stride, ..IndexConfig::full(w) });

        // Ordered generation.
        let (ordered, stats) = oris::core::step2::find_hsps(&b1, &i1, &b2, &i2, &cfg);

        // Brute force over the same indexes: extend every enumerated hit
        // unguarded, dedup by extent.
        let params = UngappedParams {
            w,
            xdrop: cfg.xdrop_ungapped,
            scheme: cfg.scheme,
        };
        let coder = i1.coder();
        let mut brute = std::collections::HashSet::new();
        // Per diagonal of a record pair, the enumerated hit that owns it:
        // smallest code, leftmost among equals — with what its unguarded
        // extension yields.
        let mut owners = std::collections::HashMap::new();
        for code in 0..coder.num_seeds() as u32 {
            for a in i1.occurrences(code) {
                for b in i2.occurrences(code) {
                    let ExtensionOutcome::Hsp { score, left, right } = extend_hit(
                        b1.data(), b2.data(), a as usize, b as usize,
                        code, coder, &params, OrderGuard::None,
                    ) else {
                        unreachable!("no guard, no abort");
                    };
                    let extent = (a - left as u32, b - left as u32,
                                  left as u32 + w as u32 + right as u32);
                    // `>=`: min_hsp_score is the minimum score to keep
                    // (matches step 2's corrected threshold).
                    let kept = score >= cfg.min_hsp_score;
                    if kept {
                        brute.insert(extent);
                    }
                    let diagonal = (b1.locate(a as usize), b2.locate(b as usize),
                                    a as i64 - b as i64);
                    let owner = owners.entry(diagonal).or_insert((code, a, extent, kept));
                    if (code, a) < (owner.0, owner.1) {
                        *owner = (code, a, extent, kept);
                    }
                }
            }
        }

        // Exactly once: no extent twice in the output, and none removed
        // by step 2's own sort + dedup either.
        let mut seen = std::collections::HashSet::new();
        for h in &ordered {
            prop_assert!(seen.insert((h.start1, h.start2, h.len)),
                "duplicate HSP {h:?}");
        }
        prop_assert_eq!(stats.kept as usize, ordered.len());
        // Nothing invented: ordered ⊆ brute force.
        prop_assert!(seen.is_subset(&brute), "{:?}", seen.difference(&brute));
        // Nothing lost: the X-drop saturates, so every walk spans its
        // whole diagonal, the owner's never meets a seed it must defer to,
        // and its HSP is there whenever it clears the threshold.
        for (diagonal, (code, a, extent, kept)) in &owners {
            prop_assert!(!kept || seen.contains(extent),
                "owner (code {code}, p1 {a}) of {diagonal:?} lost {extent:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planted homologies are found end-to-end whenever they contain a
    /// clean seed, and the reported alignment covers most of the core.
    #[test]
    fn planted_homology_is_recovered(
        prefix1 in "[ACGT]{0,40}", suffix1 in "[ACGT]{0,40}",
        prefix2 in "[ACGT]{0,40}", suffix2 in "[ACGT]{0,40}",
        core in "[ACGT]{40,80}",
    ) {
        let b1 = bank_from(&[format!("{prefix1}{core}{suffix1}")]);
        let b2 = bank_from(&[format!("{prefix2}{core}{suffix2}")]);
        let cfg = oris::core::OrisConfig::small(8);
        let r = compare_banks(&b1, &b2, &cfg);
        prop_assert!(!r.alignments.is_empty(), "planted core not found");
        let best = &r.alignments[0];
        prop_assert!(best.length >= core.len() * 8 / 10,
            "alignment too short: {} vs core {}", best.length, core.len());
    }

    /// Both engines find the same planted homology.
    #[test]
    fn engines_agree_on_planted_homology(
        noise1 in "[ACGT]{10,50}",
        noise2 in "[ACGT]{10,50}",
        core in "[ACGT]{40,70}",
    ) {
        let b1 = bank_from(&[format!("{noise1}{core}")]);
        let b2 = bank_from(&[format!("{core}{noise2}")]);
        let cfg = oris::core::OrisConfig::small(8);
        let r1 = compare_banks(&b1, &b2, &cfg);
        let r2 = blast_compare_banks(&b1, &b2, &cfg);
        prop_assert!(!r1.alignments.is_empty());
        prop_assert!(!r2.alignments.is_empty());
        prop_assert!(oris::eval::equivalent(&r1.alignments[0], &r2.alignments[0], 0.8),
            "engines disagree: {} vs {}", r1.alignments[0], r2.alignments[0]);
    }

    /// The heuristic never reports an alignment scoring above the exact
    /// local optimum (Smith–Waterman-style upper bound via Gotoh).
    #[test]
    fn reported_alignments_respect_the_exact_optimum(
        s1 in "[ACGT]{30,80}",
        core in "[ACGT]{30,50}",
    ) {
        let b1 = bank_from(&[format!("{s1}{core}")]);
        let b2 = bank_from(std::slice::from_ref(&core));
        let cfg = oris::core::OrisConfig::small(7);
        let r = compare_banks(&b1, &b2, &cfg);
        if let Some(best) = r.alignments.first() {
            let oracle = oris::align::gotoh_local(
                b1.sequence(0),
                b2.sequence(0),
                &cfg.scheme,
            );
            // convert reported stats back to a score
            let rescore = best.length as i32 - (best.mismatch as i32) * 4
                - best.gapopen as i32 * 5; // upper bound on our scheme
            prop_assert!(rescore <= oracle.score + 1,
                "reported {} vs oracle {}", rescore, oracle.score);
        }
    }
}

use oris_index::BankIndex;

#[test]
fn full_paper_configuration_smoke() {
    // One end-to-end run with every paper feature on: W=11, filters,
    // e-value threshold, parallel steps — verifying the library in its
    // defaults rather than test-sized configs.
    let b1 = paper_banks(&["EST1"], 0.08).remove(0).bank;
    let b2 = paper_banks(&["EST2"], 0.08).remove(0).bank;
    let r = compare_banks(&b1, &b2, &OrisConfig::default());
    // Deterministic generated banks → deterministic expectations.
    assert!(r.stats.hsps >= r.alignments.len());
    for a in &r.alignments {
        assert!(a.pident > 0.0 && a.pident <= 100.0);
        assert!(a.qstart <= a.qend);
        assert!(a.sstart <= a.send);
    }
}
