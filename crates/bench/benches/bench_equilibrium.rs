//! Equilibrium-solver cost (backs Table 1): how fast can the performance
//! model evaluate a co-scheduled set? Times the bisection oracle against
//! the default curve-inversion solver.

use bench::synthetic_feature;
use cmpsim::machine::MachineConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mathkit::sync::CancelToken;
use mpmc_model::equilibrium::{self, SolverKind};
use mpmc_model::feature::FeatureVector;
use std::hint::black_box;

fn features(machine: &MachineConfig, k: usize) -> Vec<FeatureVector> {
    (0..k)
        .map(|i| {
            synthetic_feature(
                &format!("p{i}"),
                machine,
                8 + 2 * i,
                0.1 + 0.08 * i as f64,
                0.005 + 0.01 * i as f64,
            )
        })
        .collect()
}

fn bench_solvers(c: &mut Criterion) {
    let machine = MachineConfig::four_core_server();
    let mut group = c.benchmark_group("equilibrium");
    for k in [2usize, 3, 4] {
        let feats = features(&machine, k);
        let refs: Vec<&FeatureVector> = feats.iter().collect();
        group.bench_with_input(BenchmarkId::new("bisection", k), &k, |b, _| {
            b.iter(|| equilibrium::solve(black_box(&refs), 16).expect("solve"))
        });
        group.bench_with_input(BenchmarkId::new("inversion", k), &k, |b, _| {
            let never = CancelToken::never();
            b.iter(|| {
                let kind = SolverKind::CurveInversion;
                equilibrium::solve_cancellable(black_box(&refs), 16, kind, &never).expect("solve")
            })
        });
    }
    group.finish();
}

fn bench_feature_construction(c: &mut Criterion) {
    // Building a feature vector includes tabulating G(n) (Eq. 4/5).
    let machine = MachineConfig::four_core_server();
    c.bench_function("feature_vector_construction", |b| {
        b.iter(|| synthetic_feature(black_box("p"), &machine, 12, 0.15, 0.02))
    });
}

criterion_group!(benches, bench_solvers, bench_feature_construction);
criterion_main!(benches);
