//! Invariant and metamorphic cross-checks for the paper's models.
//!
//! Every check here encodes a property the DAC 2010 model must satisfy
//! *by construction* — capacity conservation (Eq. 7), monotone miss
//! curves (Eq. 2), the occupancy bound `G(n) <= A` (Eq. 5), power at or
//! above the idle floor (Eq. 9), and order-independence of the
//! equilibrium. They are cheap (no simulation), return structured
//! [`Violation`]s instead of panicking, and are exercised from three
//! places:
//!
//! 1. unit/integration tests (`cargo test`),
//! 2. the differential validation harness (`experiments::diffval`),
//! 3. the CLI gate (`mpmc validate`).
//!
//! The *metamorphic* checks perturb an input in a direction with a known
//! qualitative effect (scaling a histogram's tail mass cannot lower the
//! miss ratio; adding an idle process cannot change anyone's occupancy)
//! and verify the model moves the right way.

use crate::equilibrium::{self, Equilibrium, SolverKind};
use crate::feature::FeatureVector;
use crate::histogram::ReuseHistogram;
use crate::spi::SpiModel;
use crate::ModelError;
use mathkit::sync::CancelToken;
use std::fmt;

/// Slack for capacity and bound checks: solver outer loops accept a
/// capacity residual of `1e-4` ways before the cosmetic rescale.
const CAPACITY_TOL: f64 = 1e-4;

/// Slack for the per-process fixed-point residual `|S - G(APS(S)*T)|`
/// of a converged, non-degraded equilibrium, in ways.
const FIXED_POINT_TOL: f64 = 1e-2;

/// One failed invariant: which check tripped and a display-ready detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable check name (e.g. `"capacity"`).
    pub check: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl Violation {
    fn new(check: &'static str, detail: impl Into<String>) -> Self {
        Violation { check, detail: detail.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Checks a solved [`Equilibrium`] against the features it was solved
/// for: array shapes, finite bounds, capacity conservation (Eq. 7),
/// consistency of the derived MPA/SPI/APS arrays with the feature
/// vectors, and — for converged non-degraded solutions — the per-process
/// fixed point `S_i = G_i(APS_i(S_i) * T)` (Eq. 1).
pub fn check_equilibrium(
    features: &[&FeatureVector],
    assoc: usize,
    eq: &Equilibrium,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let a = assoc as f64;
    let k = features.len();
    if eq.sizes.len() != k || eq.mpas.len() != k || eq.spis.len() != k || eq.apss.len() != k {
        out.push(Violation::new(
            "shape",
            format!("equilibrium arrays do not all have {k} entries"),
        ));
        return out; // the element-wise checks below would index out of bounds
    }
    let total: f64 = eq.sizes.iter().sum();
    if !total.is_finite() || total > a + CAPACITY_TOL {
        out.push(Violation::new(
            "capacity",
            format!("sum of sizes {total} exceeds associativity {assoc}"),
        ));
    }
    if eq.cache_filled && (total - a).abs() > CAPACITY_TOL {
        out.push(Violation::new(
            "capacity",
            format!("cache_filled but sum of sizes {total} != {assoc}"),
        ));
    }
    if !(eq.window.is_finite() && eq.window >= 0.0) {
        out.push(Violation::new("window", format!("window {} not finite/non-negative", eq.window)));
    }
    for (i, f) in features.iter().enumerate() {
        let name = f.name();
        let s = eq.sizes[i];
        if !(s.is_finite() && (-CAPACITY_TOL..=a + CAPACITY_TOL).contains(&s)) {
            out.push(Violation::new("size-bounds", format!("{name}: size {s} outside [0, {a}]")));
            continue;
        }
        let m = eq.mpas[i];
        if !((-1e-9..=1.0 + 1e-9).contains(&m)) {
            out.push(Violation::new("mpa-bounds", format!("{name}: MPA {m} outside [0, 1]")));
        }
        if (m - f.mpa(s)).abs() > 1e-9 {
            out.push(Violation::new(
                "mpa-consistency",
                format!("{name}: recorded MPA {m} != MPA({s}) = {}", f.mpa(s)),
            ));
        }
        let spi = eq.spis[i];
        if !(spi.is_finite() && spi > 0.0) {
            out.push(Violation::new("spi-bounds", format!("{name}: SPI {spi} not positive")));
        } else {
            let expect = f.spi_model().spi(f.mpa(s));
            if ((spi - expect) / expect).abs() > 1e-9 {
                out.push(Violation::new(
                    "spi-consistency",
                    format!("{name}: recorded SPI {spi} != alpha*MPA+beta = {expect}"),
                ));
            }
            let aps = eq.apss[i];
            if (aps * spi - f.api()).abs() > 1e-9 * f.api().max(1.0) {
                out.push(Violation::new(
                    "aps-consistency",
                    format!("{name}: APS {aps} * SPI {spi} != API {}", f.api()),
                ));
            }
        }
        // Eq. 1 residual: only meaningful for converged equilibria of
        // active processes (degraded heuristic splits skip it by design,
        // and saturated/unfilled caches pin S at the saturation point).
        if eq.cache_filled && !eq.diagnostics.degraded && f.api() > 0.0 {
            let implied = f.occupancy().g(f.aps_at(s) * eq.window);
            if (s - implied).abs() > FIXED_POINT_TOL {
                out.push(Violation::new(
                    "fixed-point",
                    format!("{name}: S = {s} but G(APS(S)*T) = {implied}"),
                ));
            }
        }
    }
    out
}

/// Checks a reuse-distance histogram and its derived miss-ratio curve:
/// unit mass, `MPA in [0, 1]`, and monotone non-increasing in the cache
/// size over `0..=max_ways` (Eq. 2 — more cache cannot miss more).
pub fn check_histogram_invariants(h: &ReuseHistogram, max_ways: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = crate::validate::histogram(h) {
        out.push(Violation::new("histogram-mass", e.to_string()));
    }
    let mut prev = f64::INFINITY;
    for s in 0..=max_ways {
        let m = h.mpa_int(s);
        if !((-1e-9..=1.0 + 1e-9).contains(&m)) {
            out.push(Violation::new("mpa-bounds", format!("MPA({s}) = {m} outside [0, 1]")));
        }
        if m > prev + crate::validate::TOLERANCE {
            out.push(Violation::new(
                "mpa-monotone",
                format!("MPA({s}) = {m} > MPA({}) = {prev}", s - 1),
            ));
        }
        prev = m;
    }
    out
}

/// Checks the derived occupancy curve: `G(0) = 0`, `G` monotone
/// non-decreasing, and `G(n) <= A` for all `n` (the Eq. 5 bound — a
/// process can never occupy more ways than the cache has).
pub fn check_occupancy_invariants(f: &FeatureVector) -> Vec<Violation> {
    let mut out = Vec::new();
    let occ = f.occupancy();
    let a = f.assoc() as f64;
    if occ.g(0.0).abs() > 1e-9 {
        out.push(Violation::new("occupancy-origin", format!("G(0) = {} != 0", occ.g(0.0))));
    }
    let n_max = occ.n_max();
    let mut prev = -1e-9;
    for step in 0..=64 {
        // Geometric sweep reaching past the tabulated range.
        let n = n_max * 1.5 * f64::from(step) / 64.0;
        let g = occ.g(n);
        if g > a + 1e-6 {
            out.push(Violation::new(
                "occupancy-bound",
                format!("G({n}) = {g} exceeds associativity {a}"),
            ));
        }
        if g < prev - 1e-9 {
            out.push(Violation::new(
                "occupancy-monotone",
                format!("G({n}) = {g} < previous sample {prev}"),
            ));
        }
        prev = g;
    }
    out
}

/// The robust solver (validated curve inversion), the one every check
/// here runs.
fn robust_equilibrium(
    features: &[&FeatureVector],
    assoc: usize,
) -> Result<Equilibrium, ModelError> {
    equilibrium::solve_cancellable(features, assoc, SolverKind::Robust, &CancelToken::never())
}

/// Checks that the equilibrium is independent of process ordering: the
/// same feature set solved in reversed and rotated order must yield
/// *bit-identical* per-process results (sizes, window, filled flag) once
/// mapped back. The solvers guarantee this by solving in a canonical
/// content-fingerprint order internally.
///
/// # Errors
///
/// Propagates solver errors (the check itself never fails the solve).
pub fn check_order_independence(
    features: &[&FeatureVector],
    assoc: usize,
) -> Result<Vec<Violation>, ModelError> {
    let mut out = Vec::new();
    if features.len() < 2 {
        return Ok(out);
    }
    let base = robust_equilibrium(features, assoc)?;
    let k = features.len();
    let perms: [Vec<usize>; 2] = [
        (0..k).rev().collect(),
        (0..k).map(|i| (i + 1) % k).collect(), // one rotation
    ];
    for perm in &perms {
        let permuted: Vec<&FeatureVector> = perm.iter().map(|&i| features[i]).collect();
        let eq = robust_equilibrium(&permuted, assoc)?;
        for (pi, &i) in perm.iter().enumerate() {
            if eq.sizes[pi].to_bits() != base.sizes[i].to_bits()
                || eq.spis[pi].to_bits() != base.spis[i].to_bits()
            {
                out.push(Violation::new(
                    "order-independence",
                    format!(
                        "process '{}': size {} (order {perm:?}) != {} (identity order)",
                        features[i].name(),
                        eq.sizes[pi],
                        base.sizes[i]
                    ),
                ));
            }
        }
        if eq.window.to_bits() != base.window.to_bits() || eq.cache_filled != base.cache_filled {
            out.push(Violation::new(
                "order-independence",
                format!("window/filled differ under order {perm:?}"),
            ));
        }
    }
    Ok(out)
}

/// Checks the power floor: an estimate for `num_cores` cores can never
/// fall below the all-idle power `num_cores * idle_core_w` (beyond half
/// a watt of measurement-quantization headroom, matching
/// [`crate::validate::profile`]).
pub fn check_power_floor(estimate_w: f64, num_cores: usize, idle_core_w: f64) -> Vec<Violation> {
    let floor = num_cores as f64 * idle_core_w;
    if !estimate_w.is_finite() || estimate_w < floor - 0.5 {
        vec![Violation::new(
            "power-floor",
            format!("estimate {estimate_w} W below idle floor {floor} W ({num_cores} cores)"),
        )]
    } else {
        Vec::new()
    }
}

/// Metamorphic check: scaling a histogram's tail mass up by
/// `factor >= 1` (more never-reused accesses) and renormalizing must not
/// *decrease* the predicted miss ratio at any cache size.
///
/// # Errors
///
/// Rejects `factor < 1` (the property only holds in that direction) and
/// propagates histogram-construction errors.
pub fn metamorphic_tail_scaling(
    f: &FeatureVector,
    factor: f64,
) -> Result<Vec<Violation>, ModelError> {
    if factor.is_nan() || factor < 1.0 {
        return Err(ModelError::InvalidDistribution(format!(
            "tail-scaling metamorphic check needs factor >= 1, got {factor}"
        )));
    }
    let scaled = f.histogram().with_scaled_tail(factor)?;
    let mut out = Vec::new();
    for step in 0..=(2 * f.assoc()) {
        let s = f64::from(u32::try_from(step).unwrap_or(u32::MAX)) * 0.5;
        let before = f.histogram().mpa(s);
        let after = scaled.mpa(s);
        if after < before - 1e-12 {
            out.push(Violation::new(
                "metamorphic-tail",
                format!(
                    "'{}': scaling tail x{factor} lowered MPA({s}) from {before} to {after}",
                    f.name()
                ),
            ));
        }
    }
    Ok(out)
}

/// Metamorphic check: appending an *idle* process (`API == 0`) to a
/// co-run set must leave every other process's equilibrium bit-identical
/// and give the idle process exactly zero occupancy.
///
/// # Errors
///
/// Propagates solver and construction errors.
pub fn metamorphic_idle_process(
    features: &[&FeatureVector],
    assoc: usize,
) -> Result<Vec<Violation>, ModelError> {
    let base = robust_equilibrium(features, assoc)?;
    let idle = idle_feature(assoc)?;
    let mut with_idle: Vec<&FeatureVector> = features.to_vec();
    with_idle.push(&idle);
    let eq = robust_equilibrium(&with_idle, assoc)?;
    let mut out = Vec::new();
    let k = features.len();
    if !mathkit::float::exactly_zero(eq.sizes[k]) || !mathkit::float::exactly_zero(eq.apss[k]) {
        out.push(Violation::new(
            "metamorphic-idle",
            format!(
                "idle process got {} ways, {} APS; expected exactly 0",
                eq.sizes[k], eq.apss[k]
            ),
        ));
    }
    for (i, f) in features.iter().enumerate() {
        if eq.sizes[i].to_bits() != base.sizes[i].to_bits() {
            out.push(Violation::new(
                "metamorphic-idle",
                format!(
                    "'{}': size changed from {} to {} when an idle process joined",
                    f.name(),
                    base.sizes[i],
                    eq.sizes[i]
                ),
            ));
        }
    }
    Ok(out)
}

/// A well-formed idle (L2-silent) feature vector for `assoc` ways.
///
/// # Errors
///
/// Propagates construction errors (none expected for valid `assoc`).
pub fn idle_feature(assoc: usize) -> Result<FeatureVector, ModelError> {
    let hist = ReuseHistogram::new(vec![], 1.0)?;
    let spi = SpiModel::new(0.0, 1e-9)?;
    FeatureVector::new("idle", hist, 0.0, spi, assoc)
}

/// Runs the full static battery on one co-run set: histogram and
/// occupancy invariants per feature, a robust solve checked with
/// [`check_equilibrium`], order independence, the idle-process
/// metamorphic check, and tail scaling (x2) per feature. Returns every
/// violation found; an empty vector means the set is clean.
///
/// # Errors
///
/// Propagates solver errors (a *failed solve* is an error, not a
/// violation — the caller decides how to report it).
pub fn check_corun_set(
    features: &[&FeatureVector],
    assoc: usize,
) -> Result<Vec<Violation>, ModelError> {
    let mut out = Vec::new();
    for f in features {
        out.extend(check_histogram_invariants(f.histogram(), assoc));
        out.extend(check_occupancy_invariants(f));
        out.extend(metamorphic_tail_scaling(f, 2.0)?);
    }
    let eq = robust_equilibrium(features, assoc)?;
    out.extend(check_equilibrium(features, assoc, &eq));
    out.extend(check_order_independence(features, assoc)?);
    out.extend(metamorphic_idle_process(features, assoc)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::machine::MachineConfig;
    use workloads::spec::SpecWorkload;

    fn fv(w: SpecWorkload) -> FeatureVector {
        FeatureVector::from_workload(&w.params(), &MachineConfig::four_core_server()).unwrap()
    }

    #[test]
    fn clean_corun_set_has_no_violations() {
        let (mcf, gzip) = (fv(SpecWorkload::Mcf), fv(SpecWorkload::Gzip));
        let violations = check_corun_set(&[&mcf, &gzip], 16).unwrap();
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn corrupted_equilibrium_is_caught() {
        let (mcf, gzip) = (fv(SpecWorkload::Mcf), fv(SpecWorkload::Gzip));
        let features = [&mcf, &gzip];
        let mut eq = equilibrium::solve(&features, 16).unwrap();
        assert!(check_equilibrium(&features, 16, &eq).is_empty());
        // Break capacity conservation.
        eq.sizes[0] += 3.0;
        let v = check_equilibrium(&features, 16, &eq);
        assert!(v.iter().any(|v| v.check == "capacity"), "{v:?}");
        // Break derived-array consistency.
        let mut eq2 = equilibrium::solve(&features, 16).unwrap();
        eq2.mpas[1] = 0.9;
        let v = check_equilibrium(&features, 16, &eq2);
        assert!(v.iter().any(|v| v.check == "mpa-consistency"), "{v:?}");
        // Wrong shape short-circuits.
        let mut eq3 = equilibrium::solve(&features, 16).unwrap();
        eq3.sizes.pop();
        let v = check_equilibrium(&features, 16, &eq3);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "shape");
    }

    #[test]
    fn histogram_invariants_catch_bad_mass() {
        let h = ReuseHistogram::new(vec![0.6, 0.2], 0.2).unwrap();
        assert!(check_histogram_invariants(&h, 8).is_empty());
        // A histogram built via from_parts with bad mass is caught.
        let bad = ReuseHistogram::from_parts(vec![0.6, 0.2], 0.5);
        let v = check_histogram_invariants(&bad, 8);
        assert!(v.iter().any(|v| v.check == "histogram-mass"), "{v:?}");
    }

    #[test]
    fn occupancy_invariants_hold_for_all_specs() {
        for w in SpecWorkload::duo_suite() {
            let f = fv(w);
            let v = check_occupancy_invariants(&f);
            assert!(v.is_empty(), "{}: {v:?}", f.name());
        }
    }

    #[test]
    fn power_floor_check() {
        assert!(check_power_floor(130.0, 4, 30.0).is_empty());
        assert!(check_power_floor(119.6, 4, 30.0).is_empty(), "inside quantization headroom");
        let v = check_power_floor(100.0, 4, 30.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "power-floor");
        assert!(!check_power_floor(f64::NAN, 4, 30.0).is_empty());
    }

    #[test]
    fn tail_scaling_rejects_factor_below_one() {
        let mcf = fv(SpecWorkload::Mcf);
        assert!(metamorphic_tail_scaling(&mcf, 0.5).is_err());
        assert!(metamorphic_tail_scaling(&mcf, 1.0).unwrap().is_empty());
        assert!(metamorphic_tail_scaling(&mcf, 4.0).unwrap().is_empty());
    }

    #[test]
    fn idle_process_check_passes_for_pairs() {
        let (art, twolf) = (fv(SpecWorkload::Art), fv(SpecWorkload::Twolf));
        let v = metamorphic_idle_process(&[&art, &twolf], 16).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn order_independence_check_passes() {
        let (mcf, gzip, art) =
            (fv(SpecWorkload::Mcf), fv(SpecWorkload::Gzip), fv(SpecWorkload::Art));
        let v = check_order_independence(&[&mcf, &gzip, &art], 16).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violation_displays_check_name() {
        let v = Violation::new("capacity", "sum too big");
        assert_eq!(v.to_string(), "[capacity] sum too big");
    }
}
