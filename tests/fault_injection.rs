//! Fault-injection robustness tests.
//!
//! Every fault a [`cmpsim::faults::FaultPlan`] can inject — corrupted
//! trace files, scrambled persisted profiles, NaN/negative histogram
//! mass, dropped measurement samples, starved solver budgets — must
//! surface as a typed [`ModelError`] or a degraded-but-finite
//! prediction. A panic anywhere in these tests is a bug.

use cmpsim::faults::{Fault, FaultPlan};
use mpmc::math::sync::CancelToken;
use mpmc::model::equilibrium::{self, SolveMethod, SolveOptions, SolverKind};
use mpmc::model::feature::FeatureVector;
use mpmc::model::histogram::ReuseHistogram;
use mpmc::model::persist;
use mpmc::model::spi::SpiModel;
use mpmc::model::ModelError;
use mpmc::sim::machine::MachineConfig;
use mpmc::sim::process::Step;
use mpmc::sim::trace::{miss_ratio_curve, stack_distance_histogram, Trace};
use mpmc::sim::types::LineAddr;
use mpmc::workloads::spec::SpecWorkload;

fn sample_trace(n: usize) -> Trace {
    let mut t = Trace::new();
    for i in 0..n {
        t.push(Step {
            instructions: 12,
            l1_refs: 4,
            branches: 2,
            fp_ops: 1,
            stall_cycles: 0,
            access: Some(LineAddr((i as u64 * 7) % 251 * 64)),
        });
    }
    t
}

fn serialized_feature() -> String {
    let machine = MachineConfig::four_core_server();
    let fv = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &machine)
        .expect("built-in workload always yields a feature vector");
    let mut buf = Vec::new();
    persist::write_feature(&fv, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("profiles serialize as UTF-8")
}

/// Bit-rotted trace files parse to a typed error or a usable trace —
/// and a trace that does parse yields finite curves.
#[test]
fn scrambled_trace_text_never_panics() {
    let mut buf = Vec::new();
    sample_trace(200).write_text(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("traces serialize as UTF-8");

    for seed in 0..25u64 {
        let plan = FaultPlan::new(seed).with(Fault::ScrambleText { bytes: 48 });
        let corrupted = plan.corrupt_text(&text);
        match Trace::read_text(corrupted.as_bytes()) {
            Err(_) => {} // typed error: acceptable
            Ok(trace) => {
                let addrs: Vec<LineAddr> = trace.accesses().collect();
                if addrs.is_empty() {
                    continue;
                }
                for m in miss_ratio_curve(&addrs, 16, 8) {
                    assert!(m.is_finite() && (0.0..=1.0).contains(&m), "seed {seed}: MRC {m}");
                }
            }
        }
    }
}

/// Random addresses change the curves but never their sanity.
#[test]
fn corrupted_addresses_still_yield_finite_curves() {
    let mut trace = sample_trace(500);
    FaultPlan::new(11)
        .with(Fault::CorruptTraceAddresses { rate: 0.5 })
        .with(Fault::TruncateTrace { keep_fraction: 0.8 })
        .apply_to_trace(&mut trace);
    let addrs: Vec<LineAddr> = trace.accesses().collect();
    assert!(!addrs.is_empty());
    for m in miss_ratio_curve(&addrs, 16, 8) {
        assert!(m.is_finite() && (0.0..=1.0).contains(&m));
    }
    let hist = stack_distance_histogram(&addrs, 16);
    let counted: u64 = hist.iter().sum();
    assert!(counted <= addrs.len() as u64);
}

/// NaN or negative probability mass is rejected at histogram
/// construction with a typed error.
#[test]
fn poisoned_histograms_are_rejected() {
    for fault in [Fault::NanHistogram { count: 2 }, Fault::NegateHistogram { count: 2 }] {
        let mut probs = vec![0.1; 8];
        FaultPlan::new(5).with(fault).apply_to_histogram(&mut probs);
        match ReuseHistogram::new(probs, 0.2) {
            Err(ModelError::InvalidDistribution(_)) => {}
            other => panic!("expected InvalidDistribution for {fault:?}, got {other:?}"),
        }
    }
}

/// Scrambled or torn profile files load as typed errors or as profiles
/// that still pass validation — never as silent garbage, never a panic.
#[test]
fn corrupted_profile_files_are_typed_errors() {
    let text = serialized_feature();

    for seed in 0..30u64 {
        let plan = FaultPlan::new(seed).with(Fault::ScrambleText { bytes: 8 });
        let corrupted = plan.corrupt_text(&text);
        if let Ok(fv) = persist::read_feature(corrupted.as_bytes()) {
            // If the parser accepted it, the result must be fully valid.
            mpmc::model::validate::feature_vector(&fv)
                .expect("read_feature returned an invalid feature vector");
        }
    }

    // A file torn mid-way has lost required keys: always a typed error.
    let torn = &text[..text.len() / 2];
    assert!(matches!(persist::read_feature(torn.as_bytes()), Err(ModelError::UnusableProfile(_))));
}

/// Explicit NaN in a numeric field is a typed error, not a NaN that
/// leaks into the model.
#[test]
fn nan_profile_fields_are_typed_errors() {
    let text = serialized_feature();
    let poisoned: String = text
        .lines()
        .map(|l| if l.starts_with("api ") { "api NaN".to_string() } else { l.to_string() })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(poisoned, text, "expected an 'api' line to poison");
    assert!(matches!(
        persist::read_feature(poisoned.as_bytes()),
        Err(ModelError::UnusableProfile(_))
    ));
}

/// A sample series thinned by dropped HPC interrupts degrades the fit
/// or fails typed — it does not panic.
#[test]
fn dropped_samples_never_panic() {
    for rate in [0.5, 0.95, 1.0] {
        let mut pts: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 / 40.0, 2e-6 * i as f64 / 40.0 + 5e-8)).collect();
        FaultPlan::new(17).with(Fault::DropSamples { rate }).apply_to_samples(&mut pts);
        // A typed error (too few samples left) is also acceptable.
        if let Ok(m) = SpiModel::fit(&pts) {
            assert!(m.alpha().is_finite() && m.beta().is_finite());
        }
    }
}

/// A starved solver budget walks the fallback chain and still returns a
/// finite, capacity-respecting answer with the fallbacks on record.
#[test]
fn starved_solver_budget_degrades_gracefully() {
    let machine = MachineConfig::four_core_server();
    let assoc = machine.l2_assoc();
    let features: Vec<FeatureVector> = [SpecWorkload::Mcf, SpecWorkload::Art, SpecWorkload::Gzip]
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), &machine).expect("built-in"))
        .collect();
    let refs: Vec<&FeatureVector> = features.iter().collect();

    // Newton cannot converge to tol = 0; the chain must move on.
    let opts =
        SolveOptions { tol: 0.0, max_newton_iter: 2, newton_retries: 1, ..SolveOptions::default() };
    let eq = equilibrium::solve_cancellable(
        &refs,
        assoc,
        SolverKind::Robust(opts),
        &CancelToken::never(),
    )
    .expect("chain never fails");
    assert!(!eq.diagnostics.fallbacks.is_empty(), "expected recorded fallbacks");
    let total: f64 = eq.sizes.iter().sum();
    assert!((total - assoc as f64).abs() < 1e-2 * assoc as f64, "sum of ways {total}");
    for i in 0..refs.len() {
        assert!(eq.sizes[i].is_finite() && eq.spis[i].is_finite() && eq.spis[i] > 0.0);
    }

    // No budget at all (Newton cannot converge, fixed point skipped):
    // the heuristic last resort, flagged degraded.
    let opts =
        SolveOptions { tol: 0.0, max_newton_iter: 2, newton_retries: 0, max_fixed_point_iter: 0 };
    let eq = equilibrium::solve_cancellable(
        &refs,
        assoc,
        SolverKind::Robust(opts),
        &CancelToken::never(),
    )
    .expect("chain never fails");
    assert_eq!(eq.diagnostics.method, SolveMethod::ProportionalShare);
    assert!(eq.diagnostics.degraded);
    let total: f64 = eq.sizes.iter().sum();
    assert!((total - assoc as f64).abs() < 1e-9);
    assert!(eq.spis.iter().all(|s| s.is_finite()));
}
