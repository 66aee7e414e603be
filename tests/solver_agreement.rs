//! The default curve-inversion solver against the nested-bisection
//! oracle on the corpora the model is judged on: every co-run set the
//! differential validation sweeps (plus the duo study's two extra
//! presets), and the Table 1 features as the stressmark profiler
//! recovers them (noisier than ground truth). Each set must agree within
//! 1e-7 ways, both solvers must agree on whether the cache fills, and
//! the inversion must take few outer evaluations.

use mpmc::math::sync::CancelToken;
use mpmc::model::equilibrium::{self, SolveMethod, SolverKind};
use mpmc::model::feature::FeatureVector;
use mpmc::model::profile::{ProfileOptions, Profiler};
use mpmc::sim::machine::MachineConfig;
use mpmc::workloads::spec::SpecWorkload;

const AGREE_WAYS: f64 = 1e-7;

/// Solves `set` both ways and returns the largest size difference.
fn disagreement(set: &[&FeatureVector], assoc: usize) -> f64 {
    let oracle = equilibrium::solve(set, assoc).expect("oracle solves");
    let inv = equilibrium::solve_cancellable(
        set,
        assoc,
        SolverKind::CurveInversion,
        &CancelToken::never(),
    )
    .expect("curve inversion solves");
    assert_eq!(oracle.cache_filled, inv.cache_filled);
    if set.len() > 1 {
        assert_eq!(inv.diagnostics.method, SolveMethod::CurveInversion);
        assert!(inv.diagnostics.iterations < 20, "{:?}", inv.diagnostics);
    }
    oracle.sizes.iter().zip(&inv.sizes).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Every pair and every third-member triple of `features`.
fn worst_over_sets(features: &[FeatureVector], assoc: usize) -> f64 {
    let n = features.len();
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            worst = worst.max(disagreement(&[&features[i], &features[j]], assoc));
            let third = &features[(i + j + 1) % n];
            worst = worst.max(disagreement(&[&features[i], &features[j], third], assoc));
        }
    }
    worst
}

/// The differential sweep's corpus: the presets' ground-truth features
/// in every pairing, on each machine preset. The duo suite holds the
/// eight Table 1 presets diffval sweeps, plus gcc and parser.
#[test]
fn diffval_corpus_agrees_with_the_oracle() {
    for machine in [
        MachineConfig::four_core_server(),
        MachineConfig::two_core_workstation(),
        MachineConfig::duo_laptop(),
    ] {
        let features: Vec<FeatureVector> = SpecWorkload::duo_suite()
            .iter()
            .map(|w| FeatureVector::from_workload(&w.params(), &machine).expect("preset"))
            .collect();
        let worst = worst_over_sets(&features, machine.l2_assoc());
        assert!(worst < AGREE_WAYS, "{}: worst disagreement {worst} ways", machine.name);
    }
}

/// Profiled (not ground-truth) Table 1 features, on a small machine so
/// the profiling runs stay quick.
#[test]
fn profiled_table1_features_agree_with_the_oracle() {
    let machine =
        MachineConfig { l2_sets: 64, l2_assoc: 8, ..MachineConfig::two_core_workstation() };
    let opts = ProfileOptions { duration_s: 0.3, warmup_s: 0.1, seed: 7, ..Default::default() };
    let profiler = Profiler::new(machine.clone()).with_options(opts);
    let params: Vec<_> = SpecWorkload::table1_suite().iter().map(|w| w.params()).collect();
    let features = profiler.profile_batch(&params).expect("profiles");
    let worst = worst_over_sets(&features, machine.l2_assoc());
    assert!(worst < AGREE_WAYS, "worst disagreement {worst} ways");
}
