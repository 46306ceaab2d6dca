//! Criterion micro-benchmarks for the extension kernels (paper §2.2/§2.3).
//!
//! Measures the two hot loops every experiment depends on: ungapped
//! X-drop extension (with and without the order guard) and gapped X-drop
//! extension with traceback, plus the exact Gotoh oracle for context.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oris_align::{
    extend_gapped_both, extend_hit, gotoh_local, GappedParams, GappedScratch, OrderGuard,
    ScoringScheme, UngappedParams,
};
use oris_index::SeedCoder;
use oris_simulate::{mutate, MutationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A pair of ~2 kb homologous sequences (3 % divergence), sentinel-framed.
fn homologous_pair() -> (Vec<u8>, Vec<u8>, usize) {
    let mut rng = StdRng::seed_from_u64(42);
    let base = oris_simulate::random_codes(&mut rng, 2000, 0.5);
    let variant = mutate(&mut rng, &base, &MutationModel::substitutions_only(0.03));
    let frame = |v: &[u8]| {
        let mut out = vec![oris_seqio::SENTINEL];
        out.extend_from_slice(v);
        out.push(oris_seqio::SENTINEL);
        out
    };
    // find a shared 11-mer near the middle
    let w = 11;
    let mid = base.len() / 2;
    let seed_pos = (mid..base.len() - w)
        .find(|&p| base[p..p + w] == variant[p..p + w])
        .expect("no common seed in homologous pair");
    (frame(&base), frame(&variant), seed_pos + 1)
}

fn bench_ungapped(c: &mut Criterion) {
    let (d1, d2, pos) = homologous_pair();
    let coder = SeedCoder::new(11);
    let code = coder.encode(&d1[pos..pos + 11]).unwrap();
    let params = UngappedParams::new(11);
    let mut g = c.benchmark_group("ungapped_extension");
    g.throughput(Throughput::Elements(1));
    g.bench_function("unguarded", |b| {
        b.iter(|| extend_hit(&d1, &d2, pos, pos, code, coder, &params, OrderGuard::None))
    });
    g.bench_function("order_guarded", |b| {
        b.iter(|| {
            extend_hit(
                &d1,
                &d2,
                pos,
                pos,
                code,
                coder,
                &params,
                OrderGuard::OrderedFull,
            )
        })
    });
    g.finish();
}

fn bench_gapped(c: &mut Criterion) {
    let (d1, d2, pos) = homologous_pair();
    let params = GappedParams::default();
    // One scratch across iterations, as a step-3 worker keeps one across HSPs.
    let mut scratch = GappedScratch::new();
    let mut g = c.benchmark_group("gapped_extension");
    g.throughput(Throughput::Elements(1));
    g.bench_function("xdrop25_2kb", |b| {
        b.iter(|| {
            let (ext, start1, start2) =
                extend_gapped_both(&d1, &d2, pos, pos, &params, &mut scratch);
            (ext.score, ext.ops.len(), start1, start2)
        })
    });
    g.finish();
}

fn bench_gotoh_oracle(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = oris_simulate::random_codes(&mut rng, 300, 0.5);
    let b2 = mutate(&mut rng, &a, &MutationModel::est_default());
    let scheme = ScoringScheme::blastn();
    let mut g = c.benchmark_group("exact_oracle");
    g.sample_size(20);
    g.bench_function("gotoh_300x300", |b| {
        b.iter(|| gotoh_local(&a, &b2, &scheme))
    });
    g.finish();
}

criterion_group!(benches, bench_ungapped, bench_gapped, bench_gotoh_oracle);
criterion_main!(benches);
