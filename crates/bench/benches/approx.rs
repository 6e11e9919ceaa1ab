//! LSH ablations (Figure 8 as a Criterion bench): SimHash vs k-partition
//! MinHash vs standard MinHash sketching cost, and the §6.3 degree
//! heuristic on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parscan_approx::approx_index::approx_similarities;
use parscan_approx::{ApproxConfig, ApproxMethod};
use parscan_core::similarity_exact::compute_merge_based;
use parscan_core::SimilarityMeasure;
use parscan_graph::generators;

fn bench_approx(c: &mut Criterion) {
    let (g, _) = generators::planted_partition(6000, 30, 60.0, 6.0, 13);
    let mut group = c.benchmark_group("approx_similarities_dense_sbm");
    group.sample_size(10);
    group.bench_function("exact_merge_based", |b| {
        b.iter(|| compute_merge_based(std::hint::black_box(&g), SimilarityMeasure::Cosine))
    });
    for k in [64usize, 256] {
        for (method, name) in [
            (ApproxMethod::SimHashCosine, "simhash"),
            (ApproxMethod::KPartitionMinHashJaccard, "kpartition_minhash"),
            (ApproxMethod::StandardMinHashJaccard, "standard_minhash"),
        ] {
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, &k| {
                b.iter(|| {
                    approx_similarities(
                        &g,
                        &ApproxConfig {
                            method,
                            samples: k,
                            seed: 1,
                            degree_heuristic: true,
                        },
                    )
                })
            });
        }
        group.bench_with_input(
            BenchmarkId::new("simhash_no_degree_heuristic", k),
            &k,
            |b, &k| {
                b.iter(|| {
                    approx_similarities(
                        &g,
                        &ApproxConfig {
                            method: ApproxMethod::SimHashCosine,
                            samples: k,
                            seed: 1,
                            degree_heuristic: false,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_approx);
criterion_main!(benches);
