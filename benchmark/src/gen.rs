//! Seeded input generators, one per workload, each with the truth table
//! `planted_recall` is computed from. The product binaries only ever see
//! the FASTA files written from these banks.
//!
//! The EST and genome banks are the `oris-simulate` analogues of the
//! paper's banks — same gene pool and repeat libraries, same length,
//! spacing and mutation models, sizes from the paper's data-set table —
//! with one change: where `oris_simulate::build` draws each sequence's
//! gene (or each repeat copy's family) independently, these deal them
//! from a shuffled deck. Drawn independently, the number of homologous
//! pairs between two banks of this size swings ±10 % from seed to seed,
//! and the run time with it; dealt, every seed gives different sequences
//! but the same amount of work, and a run-time difference means the code
//! changed.

use oris_seqio::alphabet::CODE_A;
use oris_seqio::{Bank, BankBuilder};
use oris_simulate::banks::{spec_by_name, BankKind};
use oris_simulate::dna::lognormal_len;
use oris_simulate::{
    mutate, random_codes, EstBankConfig, GenePool, GenomeConfig, MutationModel, RepeatLibrary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 5] = [
    "est_x_est",
    "genome_repeats",
    "genome_null",
    "reads_db_batch",
    "repeat_family",
];

/// Read length of `reads_db_batch`.
const READ_LEN: usize = 150;
/// Every fifth read of `reads_db_batch` is an earlier read submitted
/// again: same name, same bases (the result cache keys on both).
const DUPLICATE_EVERY: usize = 5;
/// The dispersed repeat every `repeat_family` sequence carries one copy
/// of (the `planted_bank` construction of `oris-bench`).
const MOTIF: &str = "GTCCGGATTACGCTAGGTCAACGGTTAGCCAT";
const FAMILY_SEQ_LEN: usize = 250;

/// Where a sampled read came from: subject record and 1-based inclusive
/// interval on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOrigin {
    pub subject: String,
    pub start: usize,
    pub end: usize,
}

/// What the generator knows the search must find.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truth {
    /// Nothing is planted (recall is 1 by convention).
    None,
    /// Nothing is planted and the banks share no homology: more than a
    /// handful of chance records means the statistics are off.
    NoHomology,
    /// `origins[i]` is where query record `i` was sampled from.
    Reads(Vec<ReadOrigin>),
    /// Every (query, subject) sequence pair shares the repeat.
    AllPairs,
}

/// One workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub query: Bank,
    pub subject: Bank,
    pub truth: Truth,
    /// Query records are independent searches (`--batch --db`) rather
    /// than one bank.
    pub db_batch: bool,
}

/// Decorrelates the run seed from a generator's own stream id, so
/// neighbouring seeds and neighbouring streams share nothing.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..n` in seeded random order.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck
}

/// The paper bank `name` at `scale`: its kind, residues, sequence count,
/// and a generator seeded from the run seed and the bank's own stream.
fn paper_bank(name: &str, scale: f64, seed: u64) -> (BankKind, usize, usize, StdRng) {
    let spec = spec_by_name(name).expect("a name from the paper's data-set table");
    let nt = ((spec.unit_nt as f64 * scale) as usize).max(2_000);
    let rng = StdRng::seed_from_u64(mix(seed, spec.seed));
    (spec.kind, nt, spec.unit_seqs.max(1), rng)
}

/// Every seventh EST is novel sequence (`EstBankConfig::novel_fraction`
/// is 0.15); the rest are mutated fragments of pool genes.
const NOVEL_EVERY: usize = 7;

/// The analogue of EST bank `name`: `oris_simulate::est_bank` with the
/// genes dealt from a shuffled deck instead of drawn independently.
fn est_bank(pool: &GenePool, name: &str, scale: f64, seed: u64) -> Bank {
    let (_, target_nt, _, mut rng) = paper_bank(name, scale, seed);
    let cfg = EstBankConfig::default();
    let deck = shuffled(pool.len(), &mut rng);
    let mut dealt = 0;
    let mut b = BankBuilder::with_capacity(target_nt + target_nt / 10, target_nt / cfg.mean_len);
    let mut idx = 0;
    while b.residues() < target_nt {
        let len = lognormal_len(&mut rng, cfg.mean_len as f64, 0.45, 80, cfg.mean_len * 6);
        let mut codes = if idx % NOVEL_EVERY == NOVEL_EVERY - 1 {
            random_codes(&mut rng, len, 0.45)
        } else {
            let gene = pool.gene(deck[dealt % deck.len()]);
            dealt += 1;
            let flen = len.min(gene.len());
            let start = rng.gen_range(0..=gene.len() - flen);
            mutate(&mut rng, &gene[start..start + flen], &cfg.mutation)
        };
        if rng.gen::<f64>() < cfg.polya_prob {
            let tail = 1 + rng.gen_range(0..cfg.polya_mean_len * 2);
            codes.extend(std::iter::repeat_n(CODE_A, tail));
        }
        b.push_codes(&format!("{name}_{idx}"), &codes);
        idx += 1;
    }
    b.finish()
}

/// The analogue of genome bank `name`: `oris_simulate::genome_bank` with
/// the repeat families dealt from a shuffled deck.
fn genome_bank(name: &str, scale: f64, seed: u64) -> Bank {
    let (kind, nt, num_seqs, mut rng) = paper_bank(name, scale, seed);
    let (library, cfg) = match kind {
        BankKind::Chromosome => (
            RepeatLibrary::paper_default(),
            GenomeConfig::chromosome_like(num_seqs, nt),
        ),
        BankKind::Bacterial => (
            RepeatLibrary::bacterial_default(),
            GenomeConfig::bacterial_like(num_seqs, nt),
        ),
        other => panic!("{name} is a {other:?} bank, not a genome"),
    };
    let deck = shuffled(library.len(), &mut rng);
    let mut dealt = 0;
    let model = MutationModel::divergence(cfg.copy_divergence);
    let per_seq = nt / num_seqs;
    let mut b = BankBuilder::with_capacity(nt + 1024, num_seqs);
    for s in 0..num_seqs {
        let mut codes: Vec<u8> = Vec::with_capacity(per_seq + 512);
        while codes.len() < per_seq {
            let gap = rng.gen_range(cfg.repeat_spacing / 2..=cfg.repeat_spacing * 3 / 2);
            codes.extend(random_codes(
                &mut rng,
                gap.min(per_seq - codes.len()),
                cfg.gc,
            ));
            if codes.len() >= per_seq {
                break;
            }
            let element = library.element(deck[dealt % deck.len()]);
            dealt += 1;
            // Three copies in ten are 5'-truncated, as old insertions are.
            let start = if rng.gen::<f64>() < 0.3 {
                rng.gen_range(0..element.len() / 2)
            } else {
                0
            };
            codes.extend(mutate(&mut rng, &element[start..], &model));
        }
        codes.truncate(per_seq);
        b.push_codes(&format!("{name}_{s}"), &codes);
    }
    b.finish()
}

fn plain(query: Bank, subject: Bank, truth: Truth) -> Inputs {
    Inputs {
        query,
        subject,
        truth,
        db_batch: false,
    }
}

/// `num_reads` reads of [`READ_LEN`] nt sampled from `subject` with 2 %
/// substitutions; every [`DUPLICATE_EVERY`]-th read repeats an earlier
/// record, name and bases — never the one just before it, so each
/// submission keeps its own segment of the output.
fn sample_reads(subject: &Bank, num_reads: usize, seed: u64) -> (Bank, Vec<ReadOrigin>) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EAD));
    let model = MutationModel::substitutions_only(0.02);
    let long_enough: Vec<usize> = (0..subject.num_sequences())
        .filter(|&i| subject.record(i).len >= READ_LEN)
        .collect();
    assert!(!long_enough.is_empty(), "subject has no record to sample");
    let mut reads: Vec<(String, Vec<u8>)> = Vec::with_capacity(num_reads);
    let mut origins: Vec<ReadOrigin> = Vec::with_capacity(num_reads);
    for i in 0..num_reads {
        if i % DUPLICATE_EVERY == DUPLICATE_EVERY - 1 {
            let earlier = rng.gen_range(0..i - 1);
            reads.push(reads[earlier].clone());
            origins.push(origins[earlier].clone());
            continue;
        }
        let r = long_enough[rng.gen_range(0..long_enough.len())];
        let rec = subject.record(r);
        let start = rng.gen_range(0..=rec.len - READ_LEN);
        let source = &subject.sequence(r)[start..start + READ_LEN];
        reads.push((format!("read_{i}"), mutate(&mut rng, source, &model)));
        origins.push(ReadOrigin {
            subject: rec.name.clone(),
            start: start + 1,
            end: start + READ_LEN,
        });
    }
    let mut b = BankBuilder::with_capacity(num_reads * READ_LEN, num_reads);
    for (name, codes) in &reads {
        b.push_codes(name, codes);
    }
    (b.finish(), origins)
}

/// `num_seqs` random sequences, each with one [`MOTIF`] copy at a random
/// offset in random flanks.
fn family_bank(prefix: &str, num_seqs: usize, seed: u64) -> Bank {
    let mut rng = StdRng::seed_from_u64(seed);
    let motif: Vec<u8> = MOTIF.bytes().map(oris_seqio::nuc_from_char).collect();
    let mut b = BankBuilder::with_capacity(num_seqs * FAMILY_SEQ_LEN, num_seqs);
    for i in 0..num_seqs {
        let mut codes = random_codes(&mut rng, FAMILY_SEQ_LEN, 0.5);
        let at = rng.gen_range(0..=FAMILY_SEQ_LEN - motif.len());
        codes[at..at + motif.len()].copy_from_slice(&motif);
        b.push_codes(&format!("{prefix}_{i}"), &codes);
    }
    b.finish()
}

/// Generates `workload`'s inputs from `seed`. `shrink` divides the work
/// (1 = the measured size, 20 = `--smoke`).
///
/// # Panics
/// Panics on a name outside [`WORKLOADS`].
pub fn generate(workload: &str, seed: u64, shrink: usize) -> Inputs {
    let shrink = shrink.max(1);
    let scale = |full: f64| full / shrink as f64;
    let count = |full: usize| (full / shrink).max(2);
    match workload {
        "est_x_est" => {
            let pool = GenePool::paper_default();
            plain(
                est_bank(&pool, "EST3", scale(1.0), seed),
                est_bank(&pool, "EST4", scale(1.0), seed),
                Truth::None,
            )
        }
        "genome_repeats" => plain(
            genome_bank("H19", scale(0.2), seed),
            genome_bank("H10", scale(0.2), seed),
            Truth::None,
        ),
        "genome_null" => plain(
            genome_bank("H19", scale(1.0), seed),
            genome_bank("BCT", scale(1.0), seed),
            Truth::NoHomology,
        ),
        "reads_db_batch" => {
            let subject = est_bank(&GenePool::paper_default(), "EST4", scale(1.0), seed);
            let (query, origins) = sample_reads(&subject, count(3000), seed);
            Inputs {
                query,
                subject,
                truth: Truth::Reads(origins),
                db_batch: true,
            }
        }
        "repeat_family" => plain(
            family_bank("fq", count(20), mix(seed, 0xFA01)),
            family_bank("fs", count(650), mix(seed, 0xFA02)),
            Truth::AllPairs,
        ),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = generate(w, 7, 20);
            assert_eq!(a, generate(w, 7, 20), "{w}");
            let b = generate(w, 8, 20);
            assert_ne!(a.query, b.query, "{w}: the seed must reach the query");
            assert_ne!(a.subject, b.subject, "{w}: the seed must reach the subject");
        }
    }

    #[test]
    fn reads_carry_their_origin_and_a_fifth_are_duplicates() {
        let inputs = generate("reads_db_batch", 3, 20);
        let Truth::Reads(origins) = &inputs.truth else {
            panic!("reads workload must carry read origins");
        };
        let n = inputs.query.num_sequences();
        assert_eq!(origins.len(), n);
        let mut duplicates = 0;
        for (i, origin) in origins.iter().enumerate() {
            assert_eq!(inputs.query.record(i).len, READ_LEN);
            assert_eq!(origin.end - origin.start + 1, READ_LEN);
            let same = |j: usize| {
                inputs.query.record(j).name == inputs.query.record(i).name
                    && inputs.query.sequence(j) == inputs.query.sequence(i)
            };
            assert!(
                i == 0 || !same(i - 1),
                "a resubmission must not follow its source"
            );
            if (0..i).any(same) {
                duplicates += 1;
            }
        }
        assert_eq!(duplicates, n / DUPLICATE_EVERY);
    }

    #[test]
    fn every_family_sequence_carries_the_motif() {
        let inputs = generate("repeat_family", 5, 20);
        for bank in [&inputs.query, &inputs.subject] {
            for i in 0..bank.num_sequences() {
                assert!(bank.sequence_string(i).contains(MOTIF));
            }
        }
    }
}
