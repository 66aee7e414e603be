//! Fault-injection robustness tests.
//!
//! Every fault a [`cmpsim::faults::FaultPlan`] can inject — corrupted
//! trace files, scrambled persisted profiles, NaN/negative histogram
//! mass, dropped measurement samples, a window the solver cannot
//! bracket — must surface as a typed [`ModelError`] or a
//! degraded-but-finite prediction. A panic anywhere in these tests is a
//! bug.

use cmpsim::faults::{Fault, FaultPlan};
use mpmc::model::equilibrium::{self, SolveMethod, SolverKind};
use mpmc::model::feature::FeatureVector;
use mpmc::model::histogram::ReuseHistogram;
use mpmc::model::perf::PerformanceModel;
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

/// A profile whose API is one denormal step validates, but its window
/// `T = G⁻¹·SPI/API` overflows: the curve inversion fails typed, and the
/// robust solver `mpmc predict` runs degrades to the proportional split,
/// flagged, instead of failing.
#[test]
fn solver_error_degrades_predict_to_proportional_share() {
    let machine = MachineConfig::four_core_server();
    let assoc = machine.l2_assoc();
    let mut features: Vec<FeatureVector> = [SpecWorkload::Mcf, SpecWorkload::Art]
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), &machine).expect("built-in"))
        .collect();
    let gzip = FeatureVector::from_workload(&SpecWorkload::Gzip.params(), &machine).expect("gzip");
    let starved = FeatureVector::new(
        "denormal-api",
        gzip.histogram().clone(),
        f64::from_bits(1),
        *gzip.spi_model(),
        assoc,
    )
    .expect("a denormal API is in [0, 1]");
    mpmc::model::validate::feature_vector(&starved).expect("passes input validation");
    features.push(starved);
    let refs: Vec<&FeatureVector> = features.iter().collect();

    let exact = PerformanceModel::new(assoc).solve(&refs);
    assert!(matches!(exact, Err(ModelError::EquilibriumFailed(_))), "{exact:?}");

    let eq = PerformanceModel::new(assoc)
        .with_solver(SolverKind::Robust)
        .solve(&refs)
        .expect("the robust solver never fails on valid inputs");
    assert_eq!(eq.diagnostics.method, SolveMethod::ProportionalShare);
    assert!(eq.diagnostics.degraded);
    let stages: Vec<SolveMethod> = eq.diagnostics.fallbacks.iter().map(|f| f.stage).collect();
    assert_eq!(stages, [SolveMethod::CurveInversion]);
    let total: f64 = eq.sizes.iter().sum();
    assert!((total - assoc as f64).abs() < 1e-9, "sum of ways {total}");
    for i in 0..refs.len() {
        assert!(eq.sizes[i].is_finite() && eq.spis[i].is_finite() && eq.spis[i] > 0.0);
    }
    assert!(eq.diagnostics.summary().contains("DEGRADED"));
    // The fallback is exactly the serving breaker's no-solve split.
    let direct = equilibrium::solve_proportional(&refs, assoc).expect("valid inputs");
    for (x, y) in eq.sizes.iter().zip(&direct.sizes) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// Features that survive fault injection — profiles read back from
/// scrambled files, histograms measured on corrupted and truncated
/// traces, SPI lines fitted to thinned samples — are solved by the
/// default curve inversion exactly as by the bisection oracle.
#[test]
fn fault_injected_features_solve_like_the_oracle() {
    let machine = MachineConfig::four_core_server();
    let assoc = machine.l2_assoc();
    let mcf = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &machine).expect("mcf");
    let mut survivors: Vec<FeatureVector> = Vec::new();

    let text = serialized_feature();
    for seed in 0..30u64 {
        let corrupted =
            FaultPlan::new(seed).with(Fault::ScrambleText { bytes: 8 }).corrupt_text(&text);
        if let Ok(fv) = persist::read_feature(corrupted.as_bytes()) {
            if mpmc::model::validate::feature_vector(&fv).is_ok() && fv.assoc() == assoc {
                survivors.push(fv);
            }
        }
    }
    for (seed, rate) in [(3u64, 0.1), (11, 0.5), (19, 0.9)] {
        let mut trace = sample_trace(4000);
        FaultPlan::new(seed)
            .with(Fault::CorruptTraceAddresses { rate })
            .with(Fault::TruncateTrace { keep_fraction: 0.7 })
            .apply_to_trace(&mut trace);
        let addrs: Vec<LineAddr> = trace.accesses().collect();
        let counts = stack_distance_histogram(&addrs, 16);
        let n = addrs.len() as f64;
        let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
        let p_inf = (1.0 - probs.iter().sum::<f64>()).max(0.0);
        let hist = ReuseHistogram::new(probs, p_inf).expect("counts normalize");
        survivors.push(
            FeatureVector::new(format!("trace-{seed}"), hist, 0.02, *mcf.spi_model(), assoc)
                .expect("trace feature"),
        );
    }
    for rate in [0.5, 0.9] {
        let mut pts: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 / 40.0, 2e-6 * i as f64 / 40.0 + 5e-8)).collect();
        FaultPlan::new(17).with(Fault::DropSamples { rate }).apply_to_samples(&mut pts);
        if let Ok(spi) = SpiModel::fit(&pts) {
            survivors.push(
                FeatureVector::new("thinned", mcf.histogram().clone(), 0.03, spi, assoc)
                    .expect("thinned feature"),
            );
        }
    }
    assert!(survivors.len() >= 5, "only {} survivors", survivors.len());

    let partners: Vec<FeatureVector> = [SpecWorkload::Gzip, SpecWorkload::Art]
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), &machine).expect("built-in"))
        .collect();
    for f in &survivors {
        for set in [vec![f, &partners[0]], vec![f, &partners[0], &partners[1]]] {
            let oracle = equilibrium::solve(&set, assoc).expect("oracle");
            let inv = PerformanceModel::new(assoc).solve(&set).expect("curve inversion");
            assert_eq!(oracle.cache_filled, inv.cache_filled, "{}", f.name());
            for (x, y) in oracle.sizes.iter().zip(&inv.sizes) {
                assert!((x - y).abs() < 1e-7, "{}: oracle {x} vs inversion {y}", f.name());
            }
        }
    }
}
