//! Criterion micro-benchmarks for step 1: bank indexing (paper §2.1).
//!
//! Covers the kernels behind experiments E1/E7: rolling seed coding, index
//! construction at several bank sizes, full vs asymmetric stride, masked
//! construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oris_dust::Masker;
use oris_index::{BankIndex, IndexConfig, RollingCoder, SeedCoder};

fn bench_rolling_coder(c: &mut Criterion) {
    let bank = oris_simulate::paper_bank("EST1", 0.2).bank;
    let coder = SeedCoder::new(11);
    let mut g = c.benchmark_group("rolling_coder");
    g.throughput(Throughput::Bytes(bank.data().len() as u64));
    g.bench_function("w11", |b| {
        b.iter(|| {
            RollingCoder::new(coder, bank.data())
                .map(|(_, c)| c as u64)
                .sum::<u64>()
        })
    });
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_build");
    g.sample_size(10);
    for scale in [0.1, 0.3] {
        let bank = oris_simulate::paper_bank("EST3", scale).bank;
        g.throughput(Throughput::Bytes(bank.data().len() as u64));
        g.bench_with_input(
            BenchmarkId::new("full_w11", format!("{}kb", bank.num_residues() / 1000)),
            &bank,
            |b, bank| b.iter(|| BankIndex::build(bank, IndexConfig::full(11))),
        );
        g.bench_with_input(
            BenchmarkId::new(
                "asymmetric_w10",
                format!("{}kb", bank.num_residues() / 1000),
            ),
            &bank,
            |b, bank| b.iter(|| BankIndex::build(bank, IndexConfig::asymmetric(10))),
        );
    }
    g.finish();
}

fn bench_index_build_masked(c: &mut Criterion) {
    let bank = oris_simulate::paper_bank("EST1", 0.2).bank;
    let mask = oris_dust::EntropyMasker::default()
        .mask_bank(&bank)
        .dilated_left(11);
    let mut g = c.benchmark_group("index_build_masked");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bank.data().len() as u64));
    g.bench_function("entropy_masked_w11", |b| {
        b.iter(|| BankIndex::build_filtered(&bank, IndexConfig::full(11), |p| mask.contains(p)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rolling_coder,
    bench_index_build,
    bench_index_build_masked
);
criterion_main!(benches);
