//! Criterion benchmarks for the statistics layer (paper §2.4/§3.1).
//!
//! Karlin–Altschul parameters are solved once per scoring scheme per
//! process (`KarlinParams::dna` memoises, so the solve is measured
//! through `from_pmf`); e-value evaluation runs once per candidate
//! alignment — both are measured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oris_stats::{EValueModel, KarlinParams, ScorePmf, SearchSpace};

fn bench_karlin(c: &mut Criterion) {
    let mut g = c.benchmark_group("karlin_params");
    g.sample_size(20);
    for (name, m, x) in [("dna_1_m3", 1, -3), ("dna_2_m3", 2, -3)] {
        let pmf = ScorePmf::dna_uniform(m, x);
        g.bench_function(name, |b| b.iter(|| KarlinParams::from_pmf(&pmf)));
    }
    g.finish();
}

fn bench_evalue(c: &mut Criterion) {
    let model = EValueModel::dna(1, -3);
    let space = SearchSpace::scoris(25_000_000, 600);
    let mut g = c.benchmark_group("evalue");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("evalue_1000_scores", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for s in 18..1018 {
                acc += model.evalue(s, space);
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_karlin, bench_evalue);
criterion_main!(benches);
