//! The steady-state cache-sharing equilibrium (paper §3.3, Eq. 1 + Eq. 7).
//!
//! Given `k` co-scheduled processes sharing an `A`-way LRU cache, find the
//! effective cache sizes `S_1..S_k`. The paper's derivation: there is a
//! window `T` such that exactly the data accessed during the last `T`
//! seconds is resident, so every process satisfies
//! `S_i = G_i(APS_i(S_i) * T)` with a *common* `T`, plus the capacity
//! constraint `sum_i S_i = A`.
//!
//! One [`SolverKind`] selects the solver, and every solve goes through one
//! of two front doors: [`solve_cancellable`] for a single co-scheduled set
//! and [`solve_batch_cancellable`] for many. The kinds are:
//!
//! - [`SolverKind::Bisection`] — a guaranteed-convergent nested bisection:
//!   the inner solve finds `S_i(T)` per process (monotone in `T`), the
//!   outer solve adjusts `T` until the capacity constraint holds. This is
//!   the default, and [`solve`] is its plain shorthand.
//! - [`SolverKind::Newton`] — Newton–Raphson on the `(S_1..S_k, T)`
//!   system, the method the paper names. Equivalent at the solution;
//!   cross-checked against bisection in tests.
//! - [`SolverKind::Robust`] — a staged fallback chain for untrusted or
//!   adversarial inputs: damped Newton, then perturbed Newton restarts,
//!   then a bounded fixed-point/bisection solve, and finally a
//!   proportional-to-API heuristic split that cannot fail. Every stage
//!   transition is recorded in [`SolveDiagnostics`].
//!
//! One special-purpose entry remains beside the front doors:
//! [`solve_proportional`] (the serving breaker's no-solve degraded tier).
//!
//! If the combined demand cannot fill the cache (every process saturates
//! below its share), the capacity constraint is infeasible; the solvers
//! then return the saturated sizes with [`Equilibrium::cache_filled`] set
//! to `false` — physically, part of the cache simply stays empty.

use crate::feature::FeatureVector;
use crate::ModelError;
use mathkit::newton::{newton_raphson_workspace_cancellable, NewtonOptions, NewtonWorkspace};
use mathkit::parallel::{par_map, resolve_workers};
use mathkit::roots::{
    bisect_cancellable, bisect_seeded_cancellable, fixed_point, BisectOptions, FixedPointOptions,
};
use mathkit::sync::CancelToken;
use std::cell::Cell;
use std::fmt;

/// Which stage of the solver chain produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Exact closed-form answer for a degenerate input: no active
    /// process, a single active process (which takes `min(saturation, A)`
    /// ways outright), or a unit-associativity cache (where the inner
    /// occupancy solve reduces to a quadratic).
    ClosedForm,
    /// Guaranteed nested bisection ([`solve`]).
    NestedBisection,
    /// Damped Newton–Raphson on the full system.
    DampedNewton,
    /// Newton–Raphson restarted from a perturbed seed.
    ReseededNewton,
    /// Bounded damped fixed-point iteration on the inner occupancy solves.
    FixedPoint,
    /// Heuristic split proportional to each process's API. Always
    /// succeeds but ignores the equilibrium condition; results carrying
    /// this method are flagged [`SolveDiagnostics::degraded`].
    ProportionalShare,
}

impl fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolveMethod::ClosedForm => "closed-form",
            SolveMethod::NestedBisection => "nested-bisection",
            SolveMethod::DampedNewton => "damped-newton",
            SolveMethod::ReseededNewton => "reseeded-newton",
            SolveMethod::FixedPoint => "fixed-point",
            SolveMethod::ProportionalShare => "proportional-share",
        };
        f.write_str(s)
    }
}

/// One abandoned stage of the fallback chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvent {
    /// The stage that failed.
    pub stage: SolveMethod,
    /// Why it was abandoned (solver error, or a zero budget disabled it).
    pub reason: String,
}

/// A structured report of how an [`Equilibrium`] was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// The stage that produced the accepted result.
    pub method: SolveMethod,
    /// Iterations (or function evaluations, for bisection-based stages)
    /// spent by the accepted stage.
    pub iterations: usize,
    /// Residual norm of the accepted result: the capacity-constraint
    /// violation for bisection, the infinity norm of the full system for
    /// Newton.
    pub residual: f64,
    /// Stages tried and abandoned before the accepted one, in order.
    pub fallbacks: Vec<FallbackEvent>,
    /// `true` when the result came from the heuristic last resort and
    /// does not satisfy the equilibrium condition.
    pub degraded: bool,
}

impl SolveDiagnostics {
    fn direct(method: SolveMethod, iterations: usize, residual: f64) -> Self {
        SolveDiagnostics { method, iterations, residual, fallbacks: Vec::new(), degraded: false }
    }

    /// One-line human-readable summary (used by the CLI).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "solved via {} ({} iterations, residual {:.2e})",
            self.method, self.iterations, self.residual
        );
        if !self.fallbacks.is_empty() {
            let stages: Vec<String> = self.fallbacks.iter().map(|f| f.stage.to_string()).collect();
            s.push_str(&format!("; fell back from {}", stages.join(", ")));
        }
        if self.degraded {
            s.push_str("; DEGRADED (heuristic split, equilibrium condition not met)");
        }
        s
    }
}

/// Iteration budgets for the [`SolverKind::Robust`] fallback chain. The
/// budgets are counts, never wall time, so the answer depends only on the
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Residual tolerance for the Newton stages.
    pub tol: f64,
    /// Iteration cap per Newton attempt.
    pub max_newton_iter: usize,
    /// Perturbed restarts after the first Newton attempt fails.
    pub newton_retries: usize,
    /// Iteration cap for each inner fixed-point solve. `0` skips the
    /// fixed-point stage.
    pub max_fixed_point_iter: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-7,
            max_newton_iter: 200,
            newton_retries: 2,
            max_fixed_point_iter: 400,
        }
    }
}

/// Which equilibrium solver a solve runs (see the module docs).
///
/// Production callers pick: `CombinedModel` and `mpmc serve` use the
/// default [`SolverKind::Bisection`]; `mpmc predict` and the diffval
/// cross-check use [`SolverKind::Robust`] with default options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverKind {
    /// Guaranteed-convergent nested bisection (default).
    #[default]
    Bisection,
    /// Newton–Raphson, the paper's named method: the analytic-Jacobian
    /// fast path, falling back to a bisection-seeded finite-difference
    /// Newton when the fast path rejects an input.
    Newton,
    /// The staged fallback chain under the given budgets: Newton,
    /// perturbed restarts, bounded fixed point, heuristic split. Never
    /// fails on solver trouble, only on invalid inputs (each feature
    /// vector is checked with [`crate::validate::feature_vector`]); check
    /// [`Equilibrium::diagnostics`] for degradation.
    Robust(SolveOptions),
}

/// The solved steady state for one co-scheduled set.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Effective cache size per process (ways).
    pub sizes: Vec<f64>,
    /// Predicted misses per access per process at those sizes.
    pub mpas: Vec<f64>,
    /// Predicted seconds per instruction per process.
    pub spis: Vec<f64>,
    /// Predicted L2 accesses per second per process.
    pub apss: Vec<f64>,
    /// The shared window parameter `T` (in scaled units; only ratios are
    /// meaningful).
    pub window: f64,
    /// Whether the capacity constraint `sum S_i = A` could be met. `false`
    /// means total demand saturates below the cache size.
    pub cache_filled: bool,
    /// How this equilibrium was obtained (method, iterations, residual,
    /// and any fallbacks taken along the way).
    pub diagnostics: SolveDiagnostics,
}

impl Equilibrium {
    /// Derives per-process MPA/SPI/APS from each feature's own curves at
    /// the given sizes.
    fn from_sizes(
        features: &[&FeatureVector],
        sizes: Vec<f64>,
        window: f64,
        filled: bool,
        diagnostics: SolveDiagnostics,
    ) -> Self {
        let mpas: Vec<f64> = features.iter().zip(&sizes).map(|(f, &s)| f.mpa(s)).collect();
        let spis: Vec<f64> =
            features.iter().zip(&mpas).map(|(f, &m)| f.spi_model().spi(m)).collect();
        let apss: Vec<f64> = features.iter().zip(&spis).map(|(f, &s)| f.api() / s).collect();
        Equilibrium { sizes, mpas, spis, apss, window, cache_filled: filled, diagnostics }
    }
}

/// Inner solve: the occupancy `S` of one process given the window `T`.
///
/// `S` is the smallest fixed point of `S = G(APS(S) * T)`, found by
/// bisection on `phi(S) = S - G(APS(S) * T)` over `[0, A]` (`phi(0) <= 0`,
/// `phi(A) >= 0` because `G <= A`).
///
/// `cursor` is the caller's segment hint into `f`'s occupancy knots (see
/// [`OccupancyCurve::g_with_cursor`](crate::occupancy::OccupancyCurve::g_with_cursor)):
/// it changes how fast `G` is looked up, never the result.
fn size_for_window(f: &FeatureVector, a: f64, t: f64, cursor: &mut usize) -> f64 {
    let mut phi = |s: f64| s - f.occupancy().g_with_cursor(f.aps_at(s) * t, cursor);
    let phi_a = phi(a);
    if phi_a <= 0.0 {
        return a; // demand saturates the whole cache within this window
    }
    // phi(0) = -G(APS(0) * T) <= 0; find the crossing. The endpoint values
    // are seeded so the already-computed phi(a) is not evaluated again.
    let phi_0 = phi(0.0);
    bisect_seeded_cancellable(
        phi,
        0.0,
        a,
        phi_0,
        phi_a,
        BisectOptions { x_tol: 1e-9, f_tol: 1e-12, max_iter: 300 },
        &CancelToken::never(),
    )
    .unwrap_or(a)
}

/// Solves the equilibrium for `features` sharing an `assoc`-way cache by
/// nested bisection (see module docs).
///
/// # Errors
///
/// - [`ModelError::EmptyInput`] if `features` is empty.
/// - [`ModelError::EquilibriumFailed`] if features were built for a
///   different associativity than `assoc`.
///
/// # Examples
///
/// ```
/// use mpmc_model::equilibrium::solve;
/// use mpmc_model::feature::FeatureVector;
/// use cmpsim::machine::MachineConfig;
/// use workloads::spec::SpecWorkload;
///
/// # fn main() -> Result<(), mpmc_model::ModelError> {
/// let m = MachineConfig::four_core_server();
/// let mcf = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &m)?;
/// let gzip = FeatureVector::from_workload(&SpecWorkload::Gzip.params(), &m)?;
/// let eq = solve(&[&mcf, &gzip], 16)?;
/// assert!((eq.sizes[0] + eq.sizes[1] - 16.0).abs() < 1e-6);
/// assert!(eq.sizes[0] > eq.sizes[1]); // mcf is the cache hog
/// # Ok(())
/// # }
/// ```
pub fn solve(features: &[&FeatureVector], assoc: usize) -> Result<Equilibrium, ModelError> {
    solve_cancellable(features, assoc, SolverKind::Bisection, &CancelToken::never())
}

/// Solves the equilibrium for `features` sharing an `assoc`-way cache with
/// the solver `kind`, polling `cancel` in every iteration loop.
///
/// With a never-firing token the result is bit-identical to an
/// uncancellable solve; once `cancel` fires the solve stops with
/// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` within one
/// inner-solve evaluation. A fired token never falls through to the
/// robust chain's heuristic split: a caller that imposed a deadline wants
/// the worker back, not a degraded answer.
///
/// # Errors
///
/// - [`ModelError::EmptyInput`] if `features` is empty.
/// - [`ModelError::EquilibriumFailed`] if features were built for a
///   different associativity than `assoc`, or (Newton only) on rare
///   non-convergence.
/// - [`ModelError::UnusableProfile`] / [`ModelError::NonFinite`] /
///   [`ModelError::InvalidDistribution`] when a feature vector fails
///   [`SolverKind::Robust`]'s input validation.
/// - The cancellation error above.
pub fn solve_cancellable(
    features: &[&FeatureVector],
    assoc: usize,
    kind: SolverKind,
    cancel: &CancelToken,
) -> Result<Equilibrium, ModelError> {
    solve_one(features, assoc, kind, cancel, &mut NewtonScratch::default())
}

/// Window value reported when the capacity constraint is infeasible: the
/// effectively infinite window the saturated sizes were evaluated at.
const WINDOW_CAP: f64 = 1e9;

/// A solver core's answer over the *canonically ordered active* features;
/// the front-end scatters it back to the caller's process order.
struct CoreSolution {
    sizes: Vec<f64>,
    window: f64,
    filled: bool,
    diagnostics: SolveDiagnostics,
}

/// The per-set path both front doors share: input validation, then the
/// front end with `kind`'s core. `scratch` is caller-owned so a batch pays
/// the Newton buffer allocations once per chunk instead of once per set;
/// it carries no numeric state between solves.
fn solve_one(
    features: &[&FeatureVector],
    assoc: usize,
    kind: SolverKind,
    cancel: &CancelToken,
    scratch: &mut NewtonScratch,
) -> Result<Equilibrium, ModelError> {
    validate(features, assoc)?;
    if matches!(kind, SolverKind::Robust(_)) {
        for f in features {
            crate::validate::feature_vector(f)?;
        }
    }
    let a = assoc as f64;
    solve_with(features, assoc, cancel, |canon, _| match kind {
        SolverKind::Bisection => bisection_core(canon, a, cancel),
        SolverKind::Newton => newton_core(canon, a, cancel, scratch),
        SolverKind::Robust(opts) => robust_core(canon, a, &opts, cancel),
    })
}

/// Active (`API > 0`) process indices in canonical content-fingerprint
/// order.
fn canonical_active(features: &[&FeatureVector]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..features.len()).filter(|&i| features[i].api() > 0.0).collect();
    order.sort_by_key(|&i| (features[i].content_fingerprint(), i));
    order
}

/// The closed form when nobody touches the cache: it stays empty and no
/// window exists.
fn all_idle(features: &[&FeatureVector]) -> Equilibrium {
    let diag = SolveDiagnostics::direct(SolveMethod::ClosedForm, 0, 0.0);
    Equilibrium::from_sizes(features, vec![0.0; features.len()], 0.0, false, diag)
}

/// Scatters a core's canonical-order answer back to caller order (idle
/// processes keep zero ways).
fn scatter(features: &[&FeatureVector], order: &[usize], core: CoreSolution) -> Equilibrium {
    let mut sizes = vec![0.0; features.len()];
    for (ci, &i) in order.iter().enumerate() {
        sizes[i] = core.sizes[ci];
    }
    Equilibrium::from_sizes(features, sizes, core.window, core.filled, core.diagnostics)
}

/// Shared front end of every iterative solve:
///
/// 1. Partition out idle (`API == 0`) processes — they occupy nothing and
///    must not reach an iterative core (their `APS` is identically zero,
///    which Newton's normalized residual cannot drive to zero).
/// 2. Dispatch degenerate inputs (no active process, one active process,
///    unit associativity) to exact closed forms.
/// 3. Re-order the remaining active processes canonically by content
///    fingerprint, so float summation order inside the cores — and hence
///    every bit of the result — is independent of the caller's process
///    order, run `core` on them (it also gets the canonical-to-caller
///    index map), and scatter its answer back to input order.
fn solve_with(
    features: &[&FeatureVector],
    assoc: usize,
    cancel: &CancelToken,
    core: impl FnOnce(&[&FeatureVector], &[usize]) -> Result<CoreSolution, ModelError>,
) -> Result<Equilibrium, ModelError> {
    let order = canonical_active(features);
    match order.as_slice() {
        [] => return Ok(all_idle(features)),
        &[only] => return solve_single_active(features, only, assoc as f64),
        _ => {}
    }
    let canon: Vec<&FeatureVector> = order.iter().map(|&i| features[i]).collect();
    let core = if assoc == 1 { unit_assoc_core(&canon, cancel)? } else { core(&canon, &order)? };
    Ok(scatter(features, &order, core))
}

/// Closed form for exactly one active process (possibly among idles): it
/// faces no contention, so it simply gets `min(saturation, A)` ways — no
/// Newton iteration, no bisection.
fn solve_single_active(
    features: &[&FeatureVector],
    idx: usize,
    a: f64,
) -> Result<Equilibrium, ModelError> {
    let f = features[idx];
    let sat = f.occupancy().saturation().min(a);
    let mut sizes = vec![0.0; features.len()];
    let diag = SolveDiagnostics::direct(SolveMethod::ClosedForm, 0, 0.0);
    if sat >= a - 1e-4 {
        // Hungry process: takes the whole cache; the implied window is
        // read straight off the tabulated occupancy curve.
        sizes[idx] = a;
        let window = f.occupancy().g_inverse(a) / f.aps_at(a);
        return Ok(Equilibrium::from_sizes(features, sizes, window, true, diag));
    }
    // Demand saturates below capacity: part of the cache stays empty
    // (same epsilon policy as the iterative cores' infeasible branch).
    sizes[idx] = sat;
    Ok(Equilibrium::from_sizes(features, sizes, WINDOW_CAP, sat >= a - 1e-2, diag))
}

/// Unit-associativity core (`A == 1`, two or more active processes). The
/// occupancy curve is exactly `G(n) = min(n, 1)` and MPA is linear on
/// `[0, 1]`, so the inner solve `S = G(APS(S)·T)` reduces to the smallest
/// root of the quadratic `S·SPI(S) = API·T` — computed exactly. Only the
/// scalar capacity bracket on `T` remains iterative.
fn unit_assoc_core(
    features: &[&FeatureVector],
    cancel: &CancelToken,
) -> Result<CoreSolution, ModelError> {
    let a = 1.0;
    let evals = Cell::new(0usize);
    let size_at = |f: &FeatureVector, t: f64| -> f64 {
        // SPI(S) = alpha·(1 − (1 − m1)·S) + beta on S ∈ [0, 1], where m1
        // is the miss probability at the full single way.
        let m1 = f.histogram().mpa_int(1);
        let curv = f.spi_model().alpha() * (1.0 - m1);
        let b = f.spi_model().alpha() + f.spi_model().beta();
        let rhs = f.api() * t;
        let s = if curv <= 0.0 {
            rhs / b
        } else {
            let disc = b * b - 4.0 * curv * rhs;
            if disc <= 0.0 {
                return 1.0; // no interior fixed point: the way saturates
            }
            (b - disc.sqrt()) / (2.0 * curv)
        };
        s.clamp(0.0, 1.0)
    };
    let total = |t: f64| -> f64 {
        evals.set(evals.get() + 1);
        features.iter().map(|f| size_at(f, t)).sum()
    };

    let fill_eps = 1e-4;
    let mut t_lo = 1e-12;
    let mut t_hi = 1e-9;
    while total(t_hi) < a - fill_eps {
        cancel.check()?;
        t_lo = t_hi;
        t_hi *= 4.0;
        if t_hi > WINDOW_CAP {
            // Unreachable for two or more active processes (each S_i → 1
            // as T grows), kept for symmetry with the generic core.
            let sizes: Vec<f64> = features.iter().map(|f| size_at(f, WINDOW_CAP)).collect();
            let sum: f64 = sizes.iter().sum();
            let diag =
                SolveDiagnostics::direct(SolveMethod::ClosedForm, evals.get(), (sum - a).abs());
            return Ok(CoreSolution {
                sizes,
                window: WINDOW_CAP,
                filled: sum >= a - 1e-2,
                diagnostics: diag,
            });
        }
    }
    let t = if total(t_hi) <= a + fill_eps {
        t_hi
    } else {
        bisect_cancellable(
            |t| total(t) - a,
            t_lo,
            t_hi,
            BisectOptions { x_tol: 0.0, f_tol: 1e-9, max_iter: 500 },
            cancel,
        )
        .map_err(|e| outer_bisection_error("unit-assoc outer bisection", e))?
    };
    let mut sizes: Vec<f64> = features.iter().map(|f| size_at(f, t)).collect();
    let sum: f64 = sizes.iter().sum();
    let residual = (sum - a).abs();
    if sum > 0.0 {
        let scale = a / sum;
        if (scale - 1.0).abs() < 1e-3 {
            for s in &mut sizes {
                *s *= scale;
            }
        }
    }
    let diag = SolveDiagnostics::direct(SolveMethod::ClosedForm, evals.get(), residual);
    Ok(CoreSolution { sizes, window: t, filled: true, diagnostics: diag })
}

/// Keeps a cancellation firing distinguishable from genuine bracket
/// trouble: `Cancelled` stays a typed [`ModelError::Math`] (the serving
/// layer maps it to `deadline_exceeded`), everything else becomes the
/// usual [`ModelError::EquilibriumFailed`].
fn outer_bisection_error(context: &str, e: mathkit::MathError) -> ModelError {
    match e {
        mathkit::MathError::Cancelled => ModelError::Math(e),
        e => ModelError::EquilibriumFailed(format!("{context}: {e}")),
    }
}

/// The nested-bisection core over canonically ordered active features.
fn bisection_core(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
) -> Result<CoreSolution, ModelError> {
    // Total occupancy as a function of the window T (monotone
    // non-decreasing in T). The counter makes outer-solve effort visible
    // in the diagnostics. Each process keeps one occupancy cursor for the
    // whole solve: successive windows query nearby `G` segments.
    let evals = Cell::new(0usize);
    let mut cursors = vec![0usize; features.len()];
    let mut total = |t: f64| -> f64 {
        evals.set(evals.get() + 1);
        features.iter().zip(&mut cursors).map(|(f, c)| size_for_window(f, a, t, c)).sum()
    };

    // Bracket T: expand upward until the cache is filled (to tolerance)
    // or the inner sizes saturate. `G` approaches the associativity
    // asymptotically, so "filled" must be judged with an epsilon: a lone
    // hungry process reaches `a - 1e-9` ways but never exactly `a`.
    let fill_eps = 1e-4;
    let mut t_lo = 1e-12;
    let mut t_hi = 1e-9;
    while total(t_hi) < a - fill_eps {
        cancel.check()?;
        t_lo = t_hi;
        t_hi *= 4.0;
        if t_hi > WINDOW_CAP {
            // Demand can never fill the cache: return saturated sizes.
            let sizes: Vec<f64> =
                features.iter().map(|f| size_for_window(f, a, WINDOW_CAP, &mut 0)).collect();
            let sum: f64 = sizes.iter().sum();
            let diag = SolveDiagnostics::direct(
                SolveMethod::NestedBisection,
                evals.get(),
                (sum - a).abs(),
            );
            return Ok(CoreSolution {
                sizes,
                window: WINDOW_CAP,
                filled: sum >= a - 1e-2,
                diagnostics: diag,
            });
        }
    }

    // If the expansion landed essentially on the constraint (asymptotic
    // approach from below), accept it; otherwise bisect the crossing.
    let t = if total(t_hi) <= a + fill_eps {
        t_hi
    } else {
        bisect_cancellable(
            |t| total(t) - a,
            t_lo,
            t_hi,
            BisectOptions { x_tol: 0.0, f_tol: 1e-9, max_iter: 500 },
            cancel,
        )
        .map_err(|e| outer_bisection_error("outer bisection", e))?
    };

    let mut sizes: Vec<f64> =
        features.iter().zip(&mut cursors).map(|(f, c)| size_for_window(f, a, t, c)).collect();
    // Distribute any residual capacity error proportionally so the
    // constraint holds exactly (cosmetic: the residual is < 1e-6 ways).
    let sum: f64 = sizes.iter().sum();
    let residual = (sum - a).abs();
    if sum > 0.0 {
        let scale = a / sum;
        if (scale - 1.0).abs() < 1e-3 {
            for s in &mut sizes {
                *s *= scale;
            }
        }
    }
    let diag = SolveDiagnostics::direct(SolveMethod::NestedBisection, evals.get(), residual);
    Ok(CoreSolution { sizes, window: t, filled: true, diagnostics: diag })
}

/// One co-scheduled set in a batched solve: borrowed feature vectors in
/// the caller's slot order. Results come back in the same per-set order.
#[derive(Debug, Clone)]
pub struct CorunSet<'a> {
    /// The co-runners sharing one cache.
    pub features: Vec<&'a FeatureVector>,
}

/// Solves many co-run sets with the solver `kind`, returning one `Result`
/// per set in set order (so callers like the candidate prestage can keep
/// going past individual failures).
///
/// Each set's result is **bit-identical** to a standalone
/// [`solve_cancellable`] call with the same `kind`, errors included:
///
/// - Work is deduplicated on the ordered tuple of content fingerprints.
///   Identical sets solve once and the answer is cloned; the solver is
///   deterministic in exactly those inputs, so a clone is bit-identical to
///   a re-solve. A duplicate of a failed set re-solves, which reproduces
///   the representative's error exactly.
/// - Unique sets are chunked contiguously over `min(workers, n)` parallel
///   workers (`0` = auto), each chunk reusing one scratch allocation.
///   Chunking only changes which thread runs a set, never the arithmetic.
///
/// Once `cancel` fires, the remaining sets fail with
/// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
pub fn solve_batch_cancellable(
    sets: &[CorunSet<'_>],
    assoc: usize,
    kind: SolverKind,
    workers: usize,
    cancel: &CancelToken,
) -> Vec<Result<Equilibrium, ModelError>> {
    use std::collections::BTreeMap;

    // Dedup identical ordered fingerprint tuples.
    let mut first_of: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
    let mut rep_of: Vec<usize> = Vec::with_capacity(sets.len());
    let mut uniques: Vec<usize> = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let key: Vec<u64> = set.features.iter().map(|f| f.content_fingerprint()).collect();
        let rep = *first_of.entry(key).or_insert(i);
        if rep == i {
            uniques.push(i);
        }
        rep_of.push(rep);
    }

    // Contiguous chunks over the unique sets; each chunk runs sequentially
    // with one scratch, chunks run in parallel.
    let n = uniques.len();
    let workers = resolve_workers(workers).min(n).max(1);
    let chunk_len = n.div_ceil(workers.max(1)).max(1);
    let ranges: Vec<(usize, usize)> =
        (0..workers).map(|c| (c * chunk_len, ((c + 1) * chunk_len).min(n))).collect();
    let chunk_results: Vec<Vec<(usize, Result<Equilibrium, ModelError>)>> =
        par_map(ranges, workers, |_, (lo, hi)| {
            let mut scratch = NewtonScratch::default();
            let mut out = Vec::with_capacity(hi.saturating_sub(lo));
            for &set_idx in &uniques[lo.min(n)..hi] {
                let features = &sets[set_idx].features;
                out.push((set_idx, solve_one(features, assoc, kind, cancel, &mut scratch)));
            }
            out
        });

    let mut solved: BTreeMap<usize, Result<Equilibrium, ModelError>> = BTreeMap::new();
    for chunk in chunk_results {
        for (set_idx, res) in chunk {
            solved.insert(set_idx, res);
        }
    }

    let mut scratch = NewtonScratch::default();
    let mut out: Vec<Result<Equilibrium, ModelError>> = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let res = match solved.get(&rep_of[i]) {
            Some(Ok(eq)) => Ok(eq.clone()),
            _ => solve_one(&set.features, assoc, kind, cancel, &mut scratch),
        };
        out.push(res);
    }
    out
}

/// The damped-Newton core over canonically ordered active features.
///
/// Dispatch: a cheap O(k) saturation precheck sends infeasible inputs to
/// [`bisection_core`] (which produces the canonical saturated answer, same
/// as the legacy path that seeded Newton from a full bisection solve);
/// feasible inputs go to the analytic-Jacobian fast path, and any fast-path
/// failure falls back to the legacy bisection-seeded finite-difference
/// Newton so the result is always well-defined.
fn newton_core(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
    scratch: &mut NewtonScratch,
) -> Result<CoreSolution, ModelError> {
    // If total saturated demand cannot fill the cache there is no root for
    // Newton to find; the bisection core's saturated branch is the answer
    // (bit-identical to what the legacy seed-then-return path produced).
    let sat_sum: f64 = features.iter().map(|f| f.occupancy().saturation().min(a)).sum();
    if sat_sum < a - 1e-2 {
        return bisection_core(features, a, cancel);
    }
    match fast_newton_core(features, a, cancel, scratch) {
        Ok(core) => Ok(core),
        Err(mathkit::MathError::Cancelled) => Err(ModelError::Math(mathkit::MathError::Cancelled)),
        // Near-infeasible or pathological curvature: the legacy path is
        // slower but seeds from a guaranteed bisection solve.
        Err(_) => newton_core_legacy(features, a, cancel),
    }
}

/// The pre-optimization Newton core: seed from a full nested-bisection
/// solve, then polish with finite-difference Newton. Kept as the fallback
/// for inputs the analytic fast path rejects.
fn newton_core_legacy(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
) -> Result<CoreSolution, ModelError> {
    let k = features.len();

    // Initial guess: proportional to demand at a common mid-range window.
    let bisection_seed = bisection_core(features, a, cancel)?;
    if !bisection_seed.filled {
        // Infeasible constraint: Newton has no root to find; return the
        // saturated solution directly (same as the paper would observe —
        // the cache simply is not full).
        return Ok(bisection_seed);
    }
    let mut x0: Vec<f64> = bisection_seed.sizes.iter().map(|&s| s * 0.9 + 0.1).collect();
    x0.push(bisection_seed.window * 1.1);

    let opts = NewtonOptions { tol: 1e-7, max_iter: 200, fd_step: 1e-6, max_backtrack: 40 };
    let sol = newton_system(features, a, &x0, opts, cancel, &mut NewtonWorkspace::default())
        .map_err(|e| outer_bisection_error("newton", e))?;

    let sizes = sol.x[..k].to_vec();
    let window = sol.x[k];
    let diag = SolveDiagnostics::direct(SolveMethod::DampedNewton, sol.iterations, sol.residual);
    Ok(CoreSolution { sizes, window, filled: true, diagnostics: diag })
}

/// Reusable buffers for [`fast_newton_core`]: one allocation set per batch
/// chunk instead of per solve. Buffers are fully overwritten before use, so
/// a shared scratch is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub(crate) struct NewtonScratch {
    sizes: Vec<f64>,
    res: Vec<f64>,
    diag: Vec<f64>,
    wcol: Vec<f64>,
    step: Vec<f64>,
    cand: Vec<f64>,
    cand_res: Vec<f64>,
    cand_diag: Vec<f64>,
    cand_wcol: Vec<f64>,
}

/// Residual tolerance of the fast Newton path — same as the legacy
/// finite-difference path so both converge to the same fixed points.
const FAST_TOL: f64 = 1e-7;
const FAST_MAX_ITER: usize = 200;
const FAST_MAX_BACKTRACK: usize = 40;
/// A finite stand-in for "infinitely wrong": steers the line search away
/// without non-finite contagion (same constant as [`newton_system`]).
const FAST_PENALTY: f64 = 1e6;

/// Evaluates the normalized residual system *and* its analytic arrow-shaped
/// Jacobian structure in one pass over the flattened curve tables:
///
/// - `r[i] = 1 - APS_i(S_i)·T / G_i⁻¹(S_i)` for each process,
///   `r[k] = (ΣS_i - A)/A` for the capacity row;
/// - `d[i] = ∂r_i/∂S_i = -T·(APS_i'·G⁻¹ - APS_i·(G⁻¹)') / (G⁻¹)²`;
/// - `w[i] = ∂r_i/∂T  = -APS_i / G⁻¹`.
///
/// Off-diagonal size couplings are exactly zero (process `i`'s window
/// condition only sees its own size), which is what makes the Newton step
/// solvable in O(k) instead of O(k³). Returns the residual infinity norm.
fn fast_eval(
    features: &[&FeatureVector],
    a: f64,
    sizes: &[f64],
    t: f64,
    r: &mut [f64],
    d: &mut [f64],
    w: &mut [f64],
) -> f64 {
    let k = features.len();
    let mut norm = 0.0f64;
    let mut sum = 0.0f64;
    for i in 0..k {
        let s = sizes[i];
        sum += s;
        let (aps, daps) = features[i].aps_with_slope(s);
        let (g0, gs) = features[i].occupancy().g_inverse_with_slope(s);
        let ginv = g0.max(1e-12);
        let ri = 1.0 - aps * t / ginv;
        let ri = if ri.is_finite() { ri } else { FAST_PENALTY };
        r[i] = ri;
        d[i] = -t * (daps * ginv - aps * gs) / (ginv * ginv);
        w[i] = -aps / ginv;
        norm = norm.max(ri.abs());
    }
    let rc = (sum - a) / a;
    let rc = if rc.is_finite() { rc } else { FAST_PENALTY };
    r[k] = rc;
    norm.max(rc.abs())
}

/// Damped Newton on the `(S_1..S_k, T)` system with the analytic arrow
/// Jacobian from [`fast_eval`], seeded cold: demand-proportional sizes at
/// a geometric-mean window, the same shape as the robust chain's first
/// attempt. Errors are typed so the caller can fall back; `Cancelled`
/// always propagates.
fn fast_newton_core(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
    scratch: &mut NewtonScratch,
) -> Result<CoreSolution, mathkit::MathError> {
    let k = features.len();
    let NewtonScratch { sizes, res, diag, wcol, step, cand, cand_res, cand_diag, cand_wcol } =
        scratch;
    sizes.clear();
    let api_total: f64 = features.iter().map(|f| f.api()).sum();
    if api_total.is_nan() || api_total <= 0.0 {
        return Err(mathkit::MathError::NonFinite("zero total API".into()));
    }
    sizes.extend(features.iter().map(|f| (a * f.api() / api_total).clamp(0.05, a)));
    let mut log_t = 0.0;
    for (i, f) in features.iter().enumerate() {
        let ginv = f.occupancy().g_inverse_with_slope(sizes[i]).0.max(1e-12);
        let aps = f.aps_with_slope(sizes[i]).0.max(1e-12);
        log_t += (ginv / aps).ln();
    }
    let t0 = (log_t / k as f64).exp();
    if !t0.is_finite() {
        return Err(mathkit::MathError::NonFinite("cold window seed".into()));
    }
    let mut t = t0.clamp(1e-15, 1e12);
    res.clear();
    res.resize(k + 1, 0.0);
    diag.clear();
    diag.resize(k, 0.0);
    wcol.clear();
    wcol.resize(k, 0.0);
    step.clear();
    step.resize(k, 0.0);
    cand.clear();
    cand.resize(k, 0.0);
    cand_res.clear();
    cand_res.resize(k + 1, 0.0);
    cand_diag.clear();
    cand_diag.resize(k, 0.0);
    cand_wcol.clear();
    cand_wcol.resize(k, 0.0);

    let mut norm = fast_eval(features, a, sizes, t, res, diag, wcol);
    for iter in 0..FAST_MAX_ITER {
        cancel.check()?;
        if norm <= FAST_TOL {
            return Ok(CoreSolution {
                sizes: sizes.clone(),
                window: t,
                filled: true,
                diagnostics: SolveDiagnostics::direct(SolveMethod::DampedNewton, iter, norm),
            });
        }

        // Arrow solve for the Newton step: eliminate each ΔS_i from its own
        // row (ΔS_i = (-r_i - w_i·ΔT)/d_i), substitute into the capacity
        // row Σ ΔS_i = -A·r_c, and solve the remaining scalar for ΔT.
        let mut sum_rinv = 0.0f64;
        let mut sum_winv = 0.0f64;
        for i in 0..k {
            let di = diag[i];
            if !di.is_finite() || di.abs() < 1e-300 {
                return Err(mathkit::MathError::Singular);
            }
            sum_rinv += -res[i] / di;
            sum_winv += wcol[i] / di;
        }
        if !sum_winv.is_finite() || sum_winv.abs() < 1e-300 {
            return Err(mathkit::MathError::Singular);
        }
        let dt = (sum_rinv + a * res[k]) / sum_winv;
        if !dt.is_finite() {
            return Err(mathkit::MathError::NonFinite(format!("newton step at iteration {iter}")));
        }
        for i in 0..k {
            step[i] = (-res[i] - wcol[i] * dt) / diag[i];
        }

        // Backtracking line search on the residual norm (same clamps as
        // the legacy newton_system: sizes in [0.02, A], window >= 1e-15).
        let mut tau = 1.0f64;
        let mut accepted = false;
        for _ in 0..=FAST_MAX_BACKTRACK {
            for i in 0..k {
                cand[i] = (sizes[i] + tau * step[i]).clamp(0.02, a);
            }
            let tc = (t + tau * dt).max(1e-15);
            let rn = fast_eval(features, a, cand, tc, cand_res, cand_diag, cand_wcol);
            // fast_eval maps non-finite residual components to a finite
            // penalty, so accepting on rn < norm cannot smuggle a NaN in.
            if rn < norm {
                std::mem::swap(sizes, cand);
                std::mem::swap(res, cand_res);
                std::mem::swap(diag, cand_diag);
                std::mem::swap(wcol, cand_wcol);
                t = tc;
                norm = rn;
                accepted = true;
                break;
            }
            tau *= 0.5;
        }
        if !accepted {
            // Stuck: no descent even with tiny steps. Accept the best point
            // if it is reasonably converged (same policy as mathkit's
            // finite-difference Newton), otherwise report non-convergence.
            if norm <= FAST_TOL * 100.0 {
                return Ok(CoreSolution {
                    sizes: sizes.clone(),
                    window: t,
                    filled: true,
                    diagnostics: SolveDiagnostics::direct(
                        SolveMethod::DampedNewton,
                        iter + 1,
                        norm,
                    ),
                });
            }
            return Err(mathkit::MathError::NoConvergence { iterations: iter + 1, residual: norm });
        }
    }

    if norm <= FAST_TOL {
        Ok(CoreSolution {
            sizes: sizes.clone(),
            window: t,
            filled: true,
            diagnostics: SolveDiagnostics::direct(SolveMethod::DampedNewton, FAST_MAX_ITER, norm),
        })
    } else {
        Err(mathkit::MathError::NoConvergence { iterations: FAST_MAX_ITER, residual: norm })
    }
}

/// Runs finite-difference damped Newton on the `(S_1..S_k, T)` system
/// from `x0`, with caller-owned Jacobian scratch (reused across the robust
/// chain's retry attempts) — shared by the legacy Newton core and the
/// chain's first stages.
///
/// The residual is guarded against NaN/Inf poisoning: any non-finite
/// intermediate (a corrupted MPA sample, a zero SPI, a wild `G⁻¹`) is
/// mapped to a large finite penalty so the line search backs away from it
/// instead of propagating the NaN through the Jacobian.
fn newton_system(
    features: &[&FeatureVector],
    a: f64,
    x0: &[f64],
    opts: NewtonOptions,
    cancel: &CancelToken,
    ws: &mut NewtonWorkspace,
) -> Result<mathkit::newton::NewtonSolution, mathkit::MathError> {
    let k = features.len();
    let lo = 0.02;
    let clamp = move |v: &[f64]| -> Vec<f64> {
        let mut out = Vec::with_capacity(v.len());
        for (i, &x) in v.iter().enumerate() {
            if i < k {
                out.push(x.clamp(lo, a));
            } else {
                out.push(x.max(1e-15));
            }
        }
        out
    };

    // A finite stand-in for "infinitely wrong": steers the line search
    // away without the non-finite contagion that would sink the Jacobian.
    const PENALTY: f64 = 1e6;
    let feats: Vec<&FeatureVector> = features.to_vec();
    let residual = move |v: &[f64]| -> Vec<f64> {
        let t = v[k];
        let mut r = Vec::with_capacity(k + 1);
        for (i, f) in feats.iter().enumerate() {
            let s = v[i];
            let ginv = f.occupancy().g_inverse(s).max(1e-12);
            let ri = 1.0 - f.aps_at(s) * t / ginv;
            r.push(if ri.is_finite() { ri } else { PENALTY });
        }
        let sum: f64 = v[..k].iter().sum();
        let rc = (sum - a) / a;
        r.push(if rc.is_finite() { rc } else { PENALTY });
        r
    };

    newton_raphson_workspace_cancellable(residual, x0, clamp, opts, cancel, ws)
}

/// The proportional-to-API closed-form split — the robust chain's stage-4
/// last resort, exposed directly so the serving layer's circuit breaker
/// can answer degraded requests without running (and failing) the full
/// chain first.
///
/// Always succeeds on valid inputs, never iterates, and is explicitly
/// flagged [`SolveDiagnostics::degraded`] (method
/// [`SolveMethod::ProportionalShare`], window 0): the split ignores the
/// equilibrium condition entirely. Idle (`API == 0`) processes get zero
/// ways, actives split `A` proportionally to API; the shares are summed
/// in canonical fingerprint order so the result is bit-independent of
/// the caller's process order, like the full solvers.
///
/// # Errors
///
/// [`ModelError::EmptyInput`] / [`ModelError::EquilibriumFailed`] for
/// structurally invalid inputs, as for [`solve`].
pub fn solve_proportional(
    features: &[&FeatureVector],
    assoc: usize,
) -> Result<Equilibrium, ModelError> {
    validate(features, assoc)?;
    let order = canonical_active(features);
    if order.is_empty() {
        return Ok(all_idle(features));
    }
    let canon: Vec<&FeatureVector> = order.iter().map(|&i| features[i]).collect();
    Ok(scatter(features, &order, proportional_core(&canon, assoc as f64, Vec::new())))
}

/// The proportional-to-API split over canonically ordered active features,
/// flagged degraded, with the abandoned stages that led here. Every API is
/// positive, so the split is well defined, finite, and sums to `A`. The
/// window is not meaningful here and reported as 0.
fn proportional_core(
    features: &[&FeatureVector],
    a: f64,
    fallbacks: Vec<FallbackEvent>,
) -> CoreSolution {
    let api_total: f64 = features.iter().map(|f| f.api()).sum();
    let sizes: Vec<f64> = features.iter().map(|f| a * f.api() / api_total).collect();
    let diag = SolveDiagnostics {
        method: SolveMethod::ProportionalShare,
        iterations: 0,
        residual: 0.0,
        fallbacks,
        degraded: true,
    };
    CoreSolution { sizes, window: 0.0, filled: true, diagnostics: diag }
}

/// The staged fallback chain over canonically ordered active features:
///
/// 1. **Damped Newton** from a demand-proportional seed.
/// 2. **Perturbed Newton restarts** (`newton_retries` of them) when the
///    first attempt diverges or converges to an infeasible point.
/// 3. **Bounded fixed-point iteration** on the inner occupancy solves
///    with a bisection outer loop (guaranteed for monotone curves);
///    skipped when `max_fixed_point_iter` is 0.
/// 4. **Proportional-to-API heuristic split** ([`proportional_core`]) — a
///    last resort that always produces finite sizes summing to `A`,
///    flagged [`SolveDiagnostics::degraded`].
///
/// Every abandoned stage is recorded in the diagnostics' fallbacks. Only
/// cancellation escapes as an error.
fn robust_core(
    features: &[&FeatureVector],
    a: f64,
    opts: &SolveOptions,
    cancel: &CancelToken,
) -> Result<CoreSolution, ModelError> {
    let k = features.len();
    let mut fallbacks: Vec<FallbackEvent> = Vec::new();
    cancel.check()?;

    // Infeasible capacity constraint: if demand saturates below `A` even
    // at an effectively infinite window, no equilibrium root exists.
    // Answer with the saturated sizes directly, as `solve` does.
    let sat_sizes: Vec<f64> =
        features.iter().map(|f| size_for_window(f, a, WINDOW_CAP, &mut 0)).collect();
    let sat_sum: f64 = sat_sizes.iter().sum();
    if sat_sum < a - 1e-2 {
        let diag = SolveDiagnostics::direct(SolveMethod::NestedBisection, k, 0.0);
        return Ok(CoreSolution {
            sizes: sat_sizes,
            window: WINDOW_CAP,
            filled: false,
            diagnostics: diag,
        });
    }

    // Stages 1 + 2: damped Newton from a demand-proportional seed, then
    // deterministic perturbed restarts. The perturbations shift both the
    // size split and the window guess so a restart explores a genuinely
    // different basin instead of retracing the failed path.
    let api_total: f64 = features.iter().map(|f| f.api()).sum();
    let newton_opts = NewtonOptions {
        tol: opts.tol,
        max_iter: opts.max_newton_iter,
        fd_step: 1e-6,
        max_backtrack: 40,
    };
    let window_factors = [1.0, 0.25, 4.0, 0.05, 20.0];
    let mut nws = NewtonWorkspace::default();
    for attempt in 0..=opts.newton_retries {
        let stage =
            if attempt == 0 { SolveMethod::DampedNewton } else { SolveMethod::ReseededNewton };
        cancel.check()?;
        let mut x0 = Vec::with_capacity(k + 1);
        for (i, f) in features.iter().enumerate() {
            let base = a * f.api() / api_total;
            let sign = if (i + attempt) % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = 1.0 + 0.3 * attempt as f64 * sign;
            x0.push((base * jitter).clamp(0.05, a));
        }
        // Window seed: geometric mean of each process's implied window
        // G⁻¹(S_i) / APS(S_i) at the seed sizes.
        let mut log_t = 0.0;
        for (f, &s) in features.iter().zip(&x0) {
            let ginv = f.occupancy().g_inverse(s).max(1e-12);
            let aps = f.aps_at(s).max(1e-12);
            log_t += (ginv / aps).ln();
        }
        let t0 = (log_t / k as f64).exp() * window_factors[attempt % window_factors.len()];
        x0.push(t0.clamp(1e-15, 1e12));

        match newton_system(features, a, &x0, newton_opts, cancel, &mut nws) {
            Err(mathkit::MathError::Cancelled) => {
                return Err(ModelError::Math(mathkit::MathError::Cancelled))
            }
            Ok(sol) => {
                let sizes = sol.x[..k].to_vec();
                let window = sol.x[k];
                let sum: f64 = sizes.iter().sum();
                let feasible = sizes.iter().all(|s| s.is_finite() && *s >= 0.0)
                    && window.is_finite()
                    && window > 0.0
                    && (sum - a).abs() <= 0.01 * a;
                if feasible {
                    let diag = SolveDiagnostics {
                        method: stage,
                        iterations: sol.iterations,
                        residual: sol.residual,
                        fallbacks,
                        degraded: false,
                    };
                    return Ok(CoreSolution { sizes, window, filled: true, diagnostics: diag });
                }
                fallbacks.push(FallbackEvent {
                    stage,
                    reason: format!(
                        "converged to infeasible point (sizes sum {sum:.4} vs capacity {a})"
                    ),
                });
            }
            Err(e) => fallbacks.push(FallbackEvent { stage, reason: e.to_string() }),
        }
    }

    // Stage 3: bounded fixed-point iteration (bisection outer loop).
    if opts.max_fixed_point_iter == 0 {
        fallbacks.push(FallbackEvent {
            stage: SolveMethod::FixedPoint,
            reason: "skipped (max_fixed_point_iter = 0)".into(),
        });
    } else {
        match solve_fixed_point_stage(features, a, opts, cancel) {
            Err(ModelError::Math(mathkit::MathError::Cancelled)) => {
                return Err(ModelError::Math(mathkit::MathError::Cancelled))
            }
            Ok((sizes, t, iterations, residual)) => {
                let diag = SolveDiagnostics {
                    method: SolveMethod::FixedPoint,
                    iterations,
                    residual,
                    fallbacks,
                    degraded: false,
                };
                return Ok(CoreSolution { sizes, window: t, filled: true, diagnostics: diag });
            }
            Err(e) => fallbacks
                .push(FallbackEvent { stage: SolveMethod::FixedPoint, reason: e.to_string() }),
        }
    }

    // Stage 4: the proportional-to-API heuristic (the front-end guarantees
    // every API here is positive).
    Ok(proportional_core(features, a, fallbacks))
}

/// The chain's stage 3: inner occupancy solves by bounded damped
/// fixed-point iteration (falling back to bisection per-evaluation if the
/// iteration stalls), outer capacity solve by bracketed bisection.
/// Returns `(sizes, window, iterations, residual)`.
fn solve_fixed_point_stage(
    features: &[&FeatureVector],
    a: f64,
    opts: &SolveOptions,
    cancel: &CancelToken,
) -> Result<(Vec<f64>, f64, usize, f64), ModelError> {
    let fp_opts =
        FixedPointOptions { tol: 1e-9, max_iter: opts.max_fixed_point_iter, damping: 0.5 };
    let iters = Cell::new(0usize);
    // `S = G(APS(S)·T)` is a monotone map; iterating up from 0 with
    // damping converges to the smallest fixed point. If the iteration
    // budget runs out (slowly saturating curves), the guaranteed
    // bisection inner solve answers for that evaluation instead.
    let size_at = |f: &FeatureVector, t: f64| -> f64 {
        match fixed_point(|s| f.occupancy().g(f.aps_at(s) * t), 0.0, 0.0, a, fp_opts) {
            Ok(sol) => {
                iters.set(iters.get() + sol.iterations + 1);
                sol.x
            }
            Err(_) => {
                iters.set(iters.get() + opts.max_fixed_point_iter);
                size_for_window(f, a, t, &mut 0)
            }
        }
    };
    let total = |t: f64| -> f64 { features.iter().map(|f| size_at(f, t)).sum() };

    let fill_eps = 1e-4;
    let mut t_lo = 1e-12;
    let mut t_hi = 1e-9;
    let cap = 1e9;
    while total(t_hi) < a - fill_eps {
        cancel.check()?;
        t_lo = t_hi;
        t_hi *= 4.0;
        if t_hi > cap {
            return Err(ModelError::EquilibriumFailed(
                "fixed-point stage: demand saturates below capacity".into(),
            ));
        }
    }
    let t = if total(t_hi) <= a + fill_eps {
        t_hi
    } else {
        bisect_cancellable(
            |t| total(t) - a,
            t_lo,
            t_hi,
            BisectOptions { x_tol: 0.0, f_tol: 1e-9, max_iter: 500 },
            cancel,
        )
        .map_err(|e| outer_bisection_error("fixed-point outer bisection", e))?
    };

    let mut sizes: Vec<f64> = features.iter().map(|f| size_at(f, t)).collect();
    let sum: f64 = sizes.iter().sum();
    let residual = (sum - a).abs();
    if !residual.is_finite() {
        return Err(ModelError::NonFinite("fixed-point stage produced non-finite sizes".into()));
    }
    if sum > 0.0 {
        let scale = a / sum;
        if (scale - 1.0).abs() < 1e-3 {
            for s in &mut sizes {
                *s *= scale;
            }
        }
    }
    Ok((sizes, t, iters.get(), residual))
}

fn validate(features: &[&FeatureVector], assoc: usize) -> Result<(), ModelError> {
    if features.is_empty() {
        return Err(ModelError::EmptyInput("equilibrium needs at least one process"));
    }
    if assoc == 0 {
        return Err(ModelError::EquilibriumFailed("associativity must be positive".into()));
    }
    for f in features {
        if f.assoc() != assoc {
            return Err(ModelError::EquilibriumFailed(format!(
                "feature vector '{}' was built for {} ways, cache has {assoc}",
                f.name(),
                f.assoc()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::machine::MachineConfig;
    use workloads::spec::SpecWorkload;

    fn fv(w: SpecWorkload) -> FeatureVector {
        FeatureVector::from_workload(&w.params(), &MachineConfig::four_core_server()).unwrap()
    }

    fn robust() -> SolverKind {
        SolverKind::Robust(SolveOptions::default())
    }

    fn solve_kind(
        features: &[&FeatureVector],
        assoc: usize,
        kind: SolverKind,
    ) -> Result<Equilibrium, ModelError> {
        solve_cancellable(features, assoc, kind, &CancelToken::never())
    }

    /// Budgets that force the chain through to its stage-4 heuristic:
    /// Newton cannot reach `tol = 0` and the fixed-point stage is off.
    fn forced_stage4() -> SolverKind {
        SolverKind::Robust(SolveOptions {
            tol: 0.0,
            max_newton_iter: 2,
            newton_retries: 0,
            max_fixed_point_iter: 0,
        })
    }

    #[test]
    fn pair_fills_cache_exactly() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Art);
        let eq = solve(&[&a, &b], 16).unwrap();
        assert!(eq.cache_filled);
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-6);
        assert!(eq.sizes.iter().all(|&s| s > 0.0));
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
        let eq = solve(&[&a, &b], 16).unwrap();
        assert!((eq.sizes[0] - eq.sizes[1]).abs() < 1e-4, "{:?}", eq.sizes);
        assert!((eq.sizes[0] - 8.0).abs() < 1e-3);
    }

    #[test]
    fn contention_degrades_both() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Art);
        let alone_a = solve(&[&a], 16).unwrap();
        let eq = solve(&[&a, &b], 16).unwrap();
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
        let eq = solve(&[&a, &b], 16).unwrap();
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
        let eq = solve(&refs, 16).unwrap();
        assert!(eq.cache_filled);
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-6);
        // The memory hogs should outrank the friendly ones.
        assert!(eq.sizes[0] > eq.sizes[1], "{:?}", eq.sizes);
        assert!(eq.sizes[2] > eq.sizes[1], "{:?}", eq.sizes);
    }

    #[test]
    fn newton_agrees_with_bisection() {
        let pairs = [
            (SpecWorkload::Mcf, SpecWorkload::Gzip),
            (SpecWorkload::Art, SpecWorkload::Twolf),
            (SpecWorkload::Equake, SpecWorkload::Ammp),
            (SpecWorkload::Vpr, SpecWorkload::Bzip2),
        ];
        for (wa, wb) in pairs {
            let a = fv(wa);
            let b = fv(wb);
            let bis = solve(&[&a, &b], 16).unwrap();
            let newt = solve_kind(&[&a, &b], 16, SolverKind::Newton).unwrap();
            for i in 0..2 {
                assert!(
                    (bis.sizes[i] - newt.sizes[i]).abs() < 0.05,
                    "{wa}/{wb} proc {i}: bisect {} vs newton {}",
                    bis.sizes[i],
                    newt.sizes[i]
                );
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(solve(&[], 16), Err(ModelError::EmptyInput(_))));
    }

    #[test]
    fn assoc_mismatch_rejected() {
        let a = fv(SpecWorkload::Gzip); // built for 16 ways
        assert!(matches!(solve(&[&a], 12), Err(ModelError::EquilibriumFailed(_))));
    }

    #[test]
    fn window_is_positive() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        let eq = solve(&[&a, &b], 16).unwrap();
        assert!(eq.window > 0.0);
    }

    #[test]
    fn solve_reports_bisection_diagnostics() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        let eq = solve(&[&a, &b], 16).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::NestedBisection);
        assert!(eq.diagnostics.iterations > 0);
        assert!(eq.diagnostics.fallbacks.is_empty());
        assert!(!eq.diagnostics.degraded);
        assert!(eq.diagnostics.summary().contains("nested-bisection"));
    }

    #[test]
    fn robust_agrees_with_bisection() {
        let pairs = [
            (SpecWorkload::Mcf, SpecWorkload::Gzip),
            (SpecWorkload::Art, SpecWorkload::Twolf),
            (SpecWorkload::Vpr, SpecWorkload::Bzip2),
        ];
        for (wa, wb) in pairs {
            let a = fv(wa);
            let b = fv(wb);
            let bis = solve(&[&a, &b], 16).unwrap();
            let rob = solve_kind(&[&a, &b], 16, robust()).unwrap();
            assert!(!rob.diagnostics.degraded, "{wa}/{wb}: {:?}", rob.diagnostics);
            for i in 0..2 {
                assert!(
                    (bis.sizes[i] - rob.sizes[i]).abs() < 0.05,
                    "{wa}/{wb} proc {i}: bisect {} vs robust {}",
                    bis.sizes[i],
                    rob.sizes[i]
                );
            }
        }
    }

    #[test]
    fn robust_falls_back_when_newton_budget_is_tiny() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Art);
        // tol = 0 makes Newton convergence impossible: the chain must fall
        // through to the fixed-point stage and still nail the constraint.
        let opts =
            SolveOptions { tol: 0.0, max_newton_iter: 2, newton_retries: 1, ..Default::default() };
        let eq = solve_kind(&[&a, &b], 16, SolverKind::Robust(opts)).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::FixedPoint, "{:?}", eq.diagnostics);
        assert_eq!(eq.diagnostics.fallbacks.len(), 2, "{:?}", eq.diagnostics.fallbacks);
        assert!(!eq.diagnostics.degraded);
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-6);
        assert!(eq.spis.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn robust_exhausted_budget_degrades_to_heuristic() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        let eq = solve_kind(&[&a, &b], 16, forced_stage4()).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::ProportionalShare);
        assert!(eq.diagnostics.degraded);
        assert!(!eq.diagnostics.fallbacks.is_empty());
        assert!((eq.sizes.iter().sum::<f64>() - 16.0).abs() < 1e-9);
        assert!(eq.sizes.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(eq.spis.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(eq.diagnostics.summary().contains("DEGRADED"));
    }

    fn idle_fv(assoc: usize) -> FeatureVector {
        use crate::histogram::ReuseHistogram;
        use crate::spi::SpiModel;
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
        for eq in [
            solve(&[&a], 16).unwrap(),
            solve_kind(&[&a], 16, SolverKind::Newton).unwrap(),
            solve_kind(&[&a], 16, robust()).unwrap(),
        ] {
            assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
            assert_eq!(eq.diagnostics.iterations, 0);
            assert_eq!(eq.sizes[0], 16.0, "exact, not asymptotic");
            assert!(eq.cache_filled);
            assert!(eq.window > 0.0 && eq.window.is_finite());
        }
    }

    #[test]
    fn single_saturating_process_is_closed_form() {
        use crate::histogram::ReuseHistogram;
        use crate::spi::SpiModel;
        let h = ReuseHistogram::new(vec![0.7, 0.3], 0.0).unwrap();
        let f = FeatureVector::new("tiny", h, 0.01, SpiModel::new(2e-8, 1e-8).unwrap(), 8).unwrap();
        let eq = solve(&[&f], 8).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
        assert!(!eq.cache_filled);
        assert!(eq.sizes[0] < 3.0 && eq.sizes[0] > 1.5, "{}", eq.sizes[0]);
        assert!((eq.sizes[0] - f.occupancy().saturation()).abs() < 1e-12);
    }

    #[test]
    fn unit_associativity_closed_form() {
        let a = fv(SpecWorkload::Mcf).with_assoc(1).unwrap();
        let b = fv(SpecWorkload::Gzip).with_assoc(1).unwrap();
        let eq = solve(&[&a, &b], 1).unwrap();
        assert_eq!(eq.diagnostics.method, SolveMethod::ClosedForm);
        assert!(eq.cache_filled);
        assert!((eq.sizes.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{:?}", eq.sizes);
        assert!(eq.sizes.iter().all(|&s| s > 0.0 && s < 1.0), "{:?}", eq.sizes);
        // The hungrier process holds more of the single way.
        assert!(eq.sizes[0] > eq.sizes[1], "{:?}", eq.sizes);
        // Exact inner solve: each size satisfies S·SPI(S) = API·T (up to
        // the outer bracket's fill tolerance and cosmetic rescale).
        for (i, f) in [&a, &b].iter().enumerate() {
            let implied = eq.sizes[i] * f.spi_at(eq.sizes[i]);
            let expect = f.api() * eq.window;
            assert!((implied - expect).abs() < 1e-3 * expect, "proc {i}: {implied} vs {expect}");
        }
        // All strategies route A = 1 through the same closed form.
        let newt = solve_kind(&[&a, &b], 1, SolverKind::Newton).unwrap();
        let rob = solve_kind(&[&a, &b], 1, robust()).unwrap();
        assert_eq!(eq.sizes, newt.sizes);
        assert_eq!(eq.sizes, rob.sizes);
    }

    #[test]
    fn zero_api_process_occupies_nothing() {
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        let idle = idle_fv(16);
        let with_idle = solve(&[&a, &idle, &b], 16).unwrap();
        assert_eq!(with_idle.sizes[1], 0.0, "idle process holds no ways");
        assert!((with_idle.apss[1] - 0.0).abs() < 1e-18);
        // Metamorphic: adding an idle process must not change the others'
        // occupancy — bit for bit, because idles are partitioned out
        // before the core solve.
        let without = solve(&[&a, &b], 16).unwrap();
        assert_eq!(without.sizes[0].to_bits(), with_idle.sizes[0].to_bits());
        assert_eq!(without.sizes[1].to_bits(), with_idle.sizes[2].to_bits());
        assert_eq!(without.window.to_bits(), with_idle.window.to_bits());
    }

    #[test]
    fn all_idle_processes_closed_form() {
        let i1 = idle_fv(16);
        let i2 = idle_fv(16);
        for eq in [solve(&[&i1, &i2], 16).unwrap(), solve_kind(&[&i1, &i2], 16, robust()).unwrap()]
        {
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
        let ref_bis = solve(&base, 16).unwrap();
        let ref_rob = solve_kind(&base, 16, robust()).unwrap();
        for perm in &perms {
            let permuted: Vec<&FeatureVector> = perm.iter().map(|&i| base[i]).collect();
            let bis = solve(&permuted, 16).unwrap();
            let rob = solve_kind(&permuted, 16, robust()).unwrap();
            for (slot, &orig) in perm.iter().enumerate() {
                assert_eq!(
                    bis.sizes[slot].to_bits(),
                    ref_bis.sizes[orig].to_bits(),
                    "bisection perm {perm:?} slot {slot}"
                );
                assert_eq!(
                    bis.spis[slot].to_bits(),
                    ref_bis.spis[orig].to_bits(),
                    "bisection SPI perm {perm:?} slot {slot}"
                );
                assert_eq!(
                    rob.sizes[slot].to_bits(),
                    ref_rob.sizes[orig].to_bits(),
                    "robust perm {perm:?} slot {slot}"
                );
            }
            assert_eq!(bis.window.to_bits(), ref_bis.window.to_bits());
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
        // Matches robust's stage-4 answer when the chain is forced there.
        let forced = solve_kind(&[&a, &idle, &b], 16, forced_stage4()).unwrap();
        for i in 0..3 {
            assert_eq!(eq.sizes[i].to_bits(), forced.sizes[i].to_bits(), "proc {i}");
        }
    }

    #[test]
    fn fired_token_cancels_every_solver_with_typed_error() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let fired = CancelToken::flag(Arc::new(AtomicBool::new(true)));
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        for r in [
            solve_cancellable(&[&a, &b], 16, SolverKind::Bisection, &fired),
            solve_cancellable(&[&a, &b], 16, SolverKind::Newton, &fired),
            solve_cancellable(&[&a, &b], 16, robust(), &fired),
        ] {
            assert!(matches!(r, Err(ModelError::Math(mathkit::MathError::Cancelled))), "{r:?}");
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
        let rob = solve_kind(&[&a, &b], 16, robust()).unwrap();
        let robc = solve_cancellable(&[&a, &b], 16, robust(), &never).unwrap();
        for i in 0..2 {
            assert_eq!(rob.sizes[i].to_bits(), robc.sizes[i].to_bits());
        }
    }

    #[test]
    fn robust_handles_saturating_demand() {
        use crate::histogram::ReuseHistogram;
        use crate::spi::SpiModel;
        // All reuse within 2 ways and no streaming tail: the process can
        // never hold more than ~2 of the 8 ways.
        let h = ReuseHistogram::new(vec![0.7, 0.3], 0.0).unwrap();
        let f = FeatureVector::new("tiny", h, 0.01, SpiModel::new(2e-8, 1e-8).unwrap(), 8).unwrap();
        let eq = solve_kind(&[&f], 8, robust()).unwrap();
        assert!(!eq.cache_filled);
        assert!(eq.sizes[0] < 3.0, "{}", eq.sizes[0]);
        assert!(!eq.diagnostics.degraded);
    }
}
