//! The equilibrium solvers through the public API: the default curve
//! inversion, the bisection oracle and the robust kind on the SPEC
//! presets and on hand-built edge cases — capacity, ordering, idle and
//! lone processes, unit associativity, cancellation, and dipping
//! response curves. The robust kind's degraded fallback is exercised in
//! `tests/fault_injection.rs`.

use mpmc::math::sync::CancelToken;
use mpmc::model::equilibrium::{
    solve, solve_cancellable, solve_proportional, Equilibrium, SolveMethod, SolverKind,
};
use mpmc::model::feature::FeatureVector;
use mpmc::model::histogram::ReuseHistogram;
use mpmc::model::spi::SpiModel;
use mpmc::model::ModelError;
use mpmc::sim::machine::MachineConfig;
use mpmc::workloads::spec::SpecWorkload;

fn fv(w: SpecWorkload) -> FeatureVector {
    FeatureVector::from_workload(&w.params(), &MachineConfig::four_core_server()).unwrap()
}

fn solve_kind(
    features: &[&FeatureVector],
    assoc: usize,
    kind: SolverKind,
) -> Result<Equilibrium, ModelError> {
    solve_cancellable(features, assoc, kind, &CancelToken::never())
}

const KINDS: [SolverKind; 3] =
    [SolverKind::CurveInversion, SolverKind::Bisection, SolverKind::Robust];

#[test]
fn pair_fills_cache_exactly() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Art);
    for kind in KINDS {
        let eq = solve_kind(&[&a, &b], 16, kind).unwrap();
        assert!(eq.cache_filled);
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-9, "{kind:?}");
        assert!(eq.sizes.iter().all(|&s| s > 0.0));
    }
}

#[test]
fn hog_beats_friendly_workload() {
    let hog = fv(SpecWorkload::Mcf);
    let friendly = fv(SpecWorkload::Gzip);
    let eq = solve(&[&hog, &friendly], 16).unwrap();
    assert!(eq.sizes[0] > 3.0 * eq.sizes[1], "mcf {} vs gzip {}", eq.sizes[0], eq.sizes[1]);
}

#[test]
fn symmetric_pair_splits_evenly() {
    let a = fv(SpecWorkload::Twolf);
    let b = fv(SpecWorkload::Twolf);
    for kind in KINDS {
        let eq = solve_kind(&[&a, &b], 16, kind).unwrap();
        assert!((eq.sizes[0] - eq.sizes[1]).abs() < 1e-4, "{kind:?} {:?}", eq.sizes);
        assert!((eq.sizes[0] - 8.0).abs() < 1e-3);
    }
}

#[test]
fn contention_degrades_both() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Art);
    let alone_a = solve(&[&a], 16).unwrap();
    let eq = solve_kind(&[&a, &b], 16, SolverKind::CurveInversion).unwrap();
    assert!(eq.spis[0] > alone_a.spis[0], "shared must be slower");
    assert!(eq.mpas[0] > alone_a.mpas[0]);
}

#[test]
fn single_process_takes_whole_cache_if_hungry() {
    let a = fv(SpecWorkload::Mcf);
    let eq = solve(&[&a], 16).unwrap();
    assert!(eq.sizes[0] > 15.9, "{}", eq.sizes[0]);
    assert!(eq.cache_filled);
}

#[test]
fn spi_consistent_with_mpa() {
    let a = fv(SpecWorkload::Vpr);
    let b = fv(SpecWorkload::Ammp);
    let eq = solve_kind(&[&a, &b], 16, SolverKind::CurveInversion).unwrap();
    for (i, f) in [&a, &b].iter().enumerate() {
        assert!((eq.mpas[i] - f.mpa(eq.sizes[i])).abs() < 1e-9);
        assert!((eq.spis[i] - f.spi_model().spi(eq.mpas[i])).abs() < 1e-15);
        assert!((eq.apss[i] - f.api() / eq.spis[i]).abs() < 1e-6);
    }
}

#[test]
fn four_way_sharing() {
    let feats = [
        fv(SpecWorkload::Mcf),
        fv(SpecWorkload::Gzip),
        fv(SpecWorkload::Art),
        fv(SpecWorkload::Twolf),
    ];
    let refs: Vec<&FeatureVector> = feats.iter().collect();
    for kind in KINDS {
        let eq = solve_kind(&refs, 16, kind).unwrap();
        assert!(eq.cache_filled);
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-6);
        // The memory hogs should outrank the friendly ones.
        assert!(eq.sizes[0] > eq.sizes[1], "{kind:?} {:?}", eq.sizes);
        assert!(eq.sizes[2] > eq.sizes[1], "{kind:?} {:?}", eq.sizes);
    }
}

#[test]
fn empty_input_rejected() {
    assert!(matches!(solve(&[], 16), Err(ModelError::EmptyInput(_))));
}

#[test]
fn assoc_mismatch_rejected() {
    let a = fv(SpecWorkload::Gzip); // built for 16 ways
    for kind in KINDS {
        assert!(matches!(solve_kind(&[&a], 12, kind), Err(ModelError::EquilibriumFailed(_))));
    }
}

#[test]
fn window_is_positive() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Gzip);
    let eq = solve_kind(&[&a, &b], 16, SolverKind::CurveInversion).unwrap();
    assert!(eq.window > 0.0);
    let bis = solve(&[&a, &b], 16).unwrap();
    assert!((eq.window / bis.window - 1.0).abs() < 1e-6, "{} vs {}", eq.window, bis.window);
}

#[test]
fn solvers_report_their_diagnostics() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Gzip);
    for (kind, method, name) in [
        (SolverKind::Bisection, SolveMethod::NestedBisection, "nested-bisection"),
        (SolverKind::CurveInversion, SolveMethod::CurveInversion, "curve-inversion"),
        (SolverKind::Robust, SolveMethod::CurveInversion, "curve-inversion"),
    ] {
        let eq = solve_kind(&[&a, &b], 16, kind).unwrap();
        assert_eq!(eq.diagnostics.method, method);
        assert!(eq.diagnostics.iterations > 0);
        assert!(eq.diagnostics.fallbacks.is_empty());
        assert!(!eq.diagnostics.degraded);
        assert!(eq.diagnostics.summary().contains(name));
    }
    assert_eq!(SolverKind::default(), SolverKind::CurveInversion);
}

#[test]
fn robust_is_the_inversion_on_valid_inputs() {
    let a = fv(SpecWorkload::Art);
    let b = fv(SpecWorkload::Twolf);
    let inv = solve_kind(&[&a, &b], 16, SolverKind::CurveInversion).unwrap();
    let rob = solve_kind(&[&a, &b], 16, SolverKind::Robust).unwrap();
    assert_eq!(inv, rob);
}

fn idle_fv(assoc: usize) -> FeatureVector {
    FeatureVector::new(
        "idle",
        ReuseHistogram::new(vec![], 1.0).unwrap(),
        0.0,
        SpiModel::new(0.0, 1e-9).unwrap(),
        assoc,
    )
    .unwrap()
}

#[test]
fn single_hungry_process_is_closed_form() {
    // k = 1 must not iterate: exact A ways, ClosedForm method, zero
    // iterations.
    let a = fv(SpecWorkload::Mcf);
    for kind in KINDS {
        let eq = solve_kind(&[&a], 16, kind).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
        assert_eq!(eq.diagnostics.iterations, 0);
        assert_eq!(eq.sizes[0], 16.0, "exact, not asymptotic");
        assert!(eq.cache_filled);
        assert!(eq.window > 0.0 && eq.window.is_finite());
    }
}

#[test]
fn single_saturating_process_is_closed_form() {
    let h = ReuseHistogram::new(vec![0.7, 0.3], 0.0).unwrap();
    let f = FeatureVector::new("tiny", h, 0.01, SpiModel::new(2e-8, 1e-8).unwrap(), 8).unwrap();
    let eq = solve(&[&f], 8).unwrap();
    assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
    assert!(!eq.cache_filled);
    assert!(eq.sizes[0] < 3.0 && eq.sizes[0] > 1.5, "{}", eq.sizes[0]);
    assert!((eq.sizes[0] - f.occupancy().saturation()).abs() < 1e-12);
}

#[test]
fn unit_associativity_inverts_exactly() {
    let a = fv(SpecWorkload::Mcf).with_assoc(1).unwrap();
    let b = fv(SpecWorkload::Gzip).with_assoc(1).unwrap();
    let eq = solve_kind(&[&a, &b], 1, SolverKind::CurveInversion).unwrap();
    assert_eq!(eq.diagnostics.method, SolveMethod::CurveInversion);
    assert!(eq.cache_filled);
    assert!((eq.sizes.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{:?}", eq.sizes);
    assert!(eq.sizes.iter().all(|&s| s > 0.0 && s < 1.0), "{:?}", eq.sizes);
    // The hungrier process holds more of the single way.
    assert!(eq.sizes[0] > eq.sizes[1], "{:?}", eq.sizes);
    // G(n) = min(n, 1), so each size solves the quadratic
    // S·SPI(S) = API·T exactly.
    for (i, f) in [&a, &b].iter().enumerate() {
        let implied = eq.sizes[i] * f.spi_at(eq.sizes[i]);
        let expect = f.api() * eq.window;
        assert!((implied - expect).abs() < 1e-9 * expect, "proc {i}: {implied} vs {expect}");
    }
    let bis = solve(&[&a, &b], 1).unwrap();
    for (x, y) in bis.sizes.iter().zip(&eq.sizes) {
        assert!((x - y).abs() < 1e-7, "{x} vs {y}");
    }
}

#[test]
fn zero_api_process_occupies_nothing() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Gzip);
    let idle = idle_fv(16);
    for kind in KINDS {
        let with_idle = solve_kind(&[&a, &idle, &b], 16, kind).unwrap();
        assert_eq!(with_idle.sizes[1], 0.0, "idle process holds no ways");
        assert!((with_idle.apss[1] - 0.0).abs() < 1e-18);
        // Metamorphic: adding an idle process must not change the
        // others' occupancy — bit for bit, because idles are
        // partitioned out before the core solve.
        let without = solve_kind(&[&a, &b], 16, kind).unwrap();
        assert_eq!(without.sizes[0].to_bits(), with_idle.sizes[0].to_bits());
        assert_eq!(without.sizes[1].to_bits(), with_idle.sizes[2].to_bits());
        assert_eq!(without.window.to_bits(), with_idle.window.to_bits());
    }
}

#[test]
fn all_idle_processes_closed_form() {
    let i1 = idle_fv(16);
    let i2 = idle_fv(16);
    for kind in KINDS {
        let eq = solve_kind(&[&i1, &i2], 16, kind).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
        assert_eq!(eq.sizes, vec![0.0, 0.0]);
        assert!(!eq.cache_filled);
        assert!(!eq.diagnostics.degraded);
    }
}

#[test]
fn solver_results_are_order_independent_bit_for_bit() {
    let feats = [
        fv(SpecWorkload::Mcf),
        fv(SpecWorkload::Gzip),
        fv(SpecWorkload::Art),
        fv(SpecWorkload::Twolf),
    ];
    let base: Vec<&FeatureVector> = feats.iter().collect();
    let perms: Vec<Vec<usize>> =
        vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2], vec![2, 0, 3, 1]];
    for kind in KINDS {
        let reference = solve_kind(&base, 16, kind).unwrap();
        for perm in &perms {
            let permuted: Vec<&FeatureVector> = perm.iter().map(|&i| base[i]).collect();
            let eq = solve_kind(&permuted, 16, kind).unwrap();
            for (slot, &orig) in perm.iter().enumerate() {
                assert_eq!(
                    eq.sizes[slot].to_bits(),
                    reference.sizes[orig].to_bits(),
                    "{kind:?} perm {perm:?} slot {slot}"
                );
                assert_eq!(
                    eq.spis[slot].to_bits(),
                    reference.spis[orig].to_bits(),
                    "{kind:?} SPI perm {perm:?} slot {slot}"
                );
            }
            assert_eq!(eq.window.to_bits(), reference.window.to_bits(), "{kind:?}");
        }
    }
}

#[test]
fn proportional_split_is_exact_degraded_and_order_independent() {
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Gzip);
    let idle = idle_fv(16);
    let eq = solve_proportional(&[&a, &idle, &b], 16).unwrap();
    assert_eq!(eq.diagnostics.method, SolveMethod::ProportionalShare);
    assert!(eq.diagnostics.degraded);
    assert_eq!(eq.sizes[1], 0.0, "idle process holds no ways");
    assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-9);
    assert!(eq.spis.iter().all(|s| s.is_finite() && *s > 0.0));
    // Shares follow API ratios exactly.
    assert!((eq.sizes[0] / eq.sizes[2] - a.api() / b.api()).abs() < 1e-12);
    // Bit-independent of caller order, like the full solvers.
    let flipped = solve_proportional(&[&b, &idle, &a], 16).unwrap();
    assert_eq!(eq.sizes[0].to_bits(), flipped.sizes[2].to_bits());
    assert_eq!(eq.sizes[2].to_bits(), flipped.sizes[0].to_bits());
}

#[test]
fn fired_token_cancels_every_solver_with_typed_error() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let fired = CancelToken::flag(Arc::new(AtomicBool::new(true)));
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Gzip);
    for kind in KINDS {
        let r = solve_cancellable(&[&a, &b], 16, kind, &fired);
        assert!(matches!(r, Err(ModelError::Math(mpmc::math::MathError::Cancelled))), "{r:?}");
    }
}

#[test]
fn never_token_is_bit_exact_with_plain_solvers() {
    let never = CancelToken::never();
    let a = fv(SpecWorkload::Mcf);
    let b = fv(SpecWorkload::Art);
    let plain = solve(&[&a, &b], 16).unwrap();
    let cancl = solve_cancellable(&[&a, &b], 16, SolverKind::Bisection, &never).unwrap();
    for i in 0..2 {
        assert_eq!(plain.sizes[i].to_bits(), cancl.sizes[i].to_bits());
        assert_eq!(plain.spis[i].to_bits(), cancl.spis[i].to_bits());
    }
    assert_eq!(plain.window.to_bits(), cancl.window.to_bits());
}

#[test]
fn saturating_demand_leaves_the_cache_unfilled() {
    // All reuse within 2 ways and no streaming tail: each process can
    // never hold more than ~2 of the 8 ways.
    let spi = SpiModel::new(2e-8, 1e-8).unwrap();
    let f =
        FeatureVector::new("tiny", ReuseHistogram::new(vec![0.7, 0.3], 0.0).unwrap(), 0.01, spi, 8)
            .unwrap();
    let g = FeatureVector::new(
        "tiny2",
        ReuseHistogram::new(vec![0.6, 0.4], 0.0).unwrap(),
        0.02,
        spi,
        8,
    )
    .unwrap();
    let bis = solve(&[&f, &g], 8).unwrap();
    assert!(!bis.cache_filled);
    for kind in [SolverKind::CurveInversion, SolverKind::Robust] {
        let eq = solve_kind(&[&f, &g], 8, kind).unwrap();
        assert!(!eq.cache_filled);
        assert!(!eq.diagnostics.degraded);
        assert_eq!(eq.window, bis.window, "the oracle's effectively infinite window");
        for (x, y) in bis.sizes.iter().zip(&eq.sizes) {
            assert!(*y < 2.0 + 1e-6, "{y}");
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }
}

/// A hand-built process whose response curve dips: MPA stays at 1 up to
/// 9 ways and then collapses (95% of reuse sits at distance 10), and
/// misses dominate its SPI, so `T(S)` peaks at 9 ways, falls by an
/// order of magnitude by 10, and does not climb back within 16 ways.
fn dipping(api: f64) -> FeatureVector {
    let mut probs = vec![0.0; 10];
    probs[9] = 0.95;
    let h = ReuseHistogram::new(probs, 0.05).unwrap();
    FeatureVector::new("dip", h, api, SpiModel::new(1e-7, 1e-9).unwrap(), 16).unwrap()
}

#[test]
fn dipping_curve_takes_its_smallest_crossing() {
    let dip = dipping(0.002);
    let t = |s: f64| dip.occupancy().g_inverse(s) * dip.spi_at(s) / dip.api();
    assert!(t(10.0) < 0.2 * t(9.0), "T(9) {} vs T(10) {}", t(9.0), t(10.0));
    // Against mcf the dip process settles below its peak, at a window
    // that T(S) crosses twice more past the dip; the inversion takes the
    // first crossing, which is the oracle's root too.
    let mcf = fv(SpecWorkload::Mcf);
    let bis = solve(&[&dip, &mcf], 16).unwrap();
    let inv = solve_kind(&[&dip, &mcf], 16, SolverKind::CurveInversion).unwrap();
    let s = inv.sizes[0];
    assert!(s > 1.0 && s < 8.0, "{s}");
    assert!(t(10.0) < t(s) && t(s) < t(9.0), "{} {} {}", t(10.0), t(s), t(9.0));
    for (x, y) in bis.sizes.iter().zip(&inv.sizes) {
        assert!((x - y).abs() < 1e-7, "{x} vs {y}");
    }
    // A hotter dip process against vpr is pushed past its peak: its size
    // jumps over the dip as the window grows, and the capacity
    // constraint holds by splitting the jump.
    let hot = dipping(0.008);
    let vpr = fv(SpecWorkload::Vpr);
    let eq = solve_kind(&[&hot, &vpr], 16, SolverKind::CurveInversion).unwrap();
    assert_eq!(eq.diagnostics.method, SolveMethod::CurveInversion);
    assert!(eq.cache_filled);
    assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-9, "{:?}", eq.sizes);
    assert!(eq.sizes[0] > 9.0, "{:?}", eq.sizes);
}
