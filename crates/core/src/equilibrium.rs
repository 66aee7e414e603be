//! The steady-state cache-sharing equilibrium (paper §3.3, Eq. 1 + Eq. 7).
//!
//! Given `k` co-scheduled processes sharing an `A`-way LRU cache, find the
//! effective cache sizes `S_1..S_k`. The paper's derivation: there is a
//! window `T` such that exactly the data accessed during the last `T`
//! seconds is resident, so every process satisfies
//! `S_i = G_i(APS_i(S_i) * T)` with a *common* `T`, plus the capacity
//! constraint `sum_i S_i = A`.
//!
//! Read the other way round, each process has a *response curve*: the
//! window at which it holds `S` ways,
//! `T_i(S) = G_i⁻¹(S) · SPI_i(S) / API_i`. `G⁻¹` is piecewise linear in
//! `S` and so is `MPA` (knots at the integers), so on every merged segment
//! `T_i` is a product of two affine functions and `S_i(T)` is one table
//! walk plus one quadratic root. Only the scalar capacity equation in `T`
//! remains iterative.
//!
//! One [`SolverKind`] selects the solver: the default curve inversion,
//! the nested-bisection oracle it is checked against ([`solve`] is its
//! shorthand), or the robust kind for untrusted inputs. Every solve goes
//! through one of two front doors, [`solve_cancellable`] for a single
//! co-scheduled set and [`solve_batch_cancellable`] for many;
//! [`solve_proportional`] is the serving breaker's no-solve degraded
//! tier.
//!
//! If the combined demand cannot fill the cache (every process saturates
//! below its share), the capacity constraint is infeasible; the solvers
//! then return the saturated sizes with [`Equilibrium::cache_filled`] set
//! to `false` — physically, part of the cache simply stays empty.

use crate::feature::FeatureVector;
use crate::ModelError;
use mathkit::parallel::{par_map, resolve_workers};
use mathkit::roots::{bisect_cancellable, bisect_seeded_cancellable, BisectOptions};
use mathkit::sync::CancelToken;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Which solver produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Exact closed-form answer for a degenerate input: no active
    /// process, or a single active process (which takes
    /// `min(saturation, A)` ways outright).
    ClosedForm,
    /// Guaranteed nested bisection ([`solve`]), the oracle.
    NestedBisection,
    /// Exact response-curve inversion with an Illinois outer iteration
    /// (the default solver).
    CurveInversion,
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
            SolveMethod::CurveInversion => "curve-inversion",
            SolveMethod::ProportionalShare => "proportional-share",
        };
        f.write_str(s)
    }
}

/// One abandoned solver attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvent {
    /// The solver that failed.
    pub stage: SolveMethod,
    /// Why it was abandoned (the solver's error).
    pub reason: String,
}

/// A structured report of how an [`Equilibrium`] was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// The solver that produced the accepted result.
    pub method: SolveMethod,
    /// Outer evaluations of the total occupancy `Σ S_i(T)` spent by the
    /// accepted solver.
    pub iterations: usize,
    /// Capacity-constraint violation `|Σ S_i − A|` of the accepted result
    /// before the final cosmetic rescale.
    pub residual: f64,
    /// Solvers tried and abandoned before the accepted one, in order.
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

/// Which equilibrium solver a solve runs (see the module docs).
///
/// `CombinedModel`, `mpmc estimate`, `assign --optimize` and `mpmc serve`
/// use the default [`SolverKind::CurveInversion`]; `mpmc predict` and the
/// diffval cross-check use [`SolverKind::Robust`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Exact response-curve inversion (default).
    #[default]
    CurveInversion,
    /// Guaranteed-convergent nested bisection: the reference oracle.
    Bisection,
    /// Input validation (each feature vector is checked with
    /// [`crate::validate::feature_vector`]), then the curve inversion;
    /// a typed solver error degrades to the proportional-to-API split
    /// instead of failing. Check [`Equilibrium::diagnostics`] for
    /// degradation.
    Robust,
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
/// nested bisection, the reference oracle (see module docs).
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
/// the solver `kind`, polling `cancel` in every outer iteration.
///
/// With a never-firing token the result is bit-identical to an
/// uncancellable solve; once `cancel` fires the solve stops with
/// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` within one
/// outer evaluation. A fired token never falls through to the robust
/// kind's heuristic split: a caller that imposed a deadline wants the
/// worker back, not a degraded answer.
///
/// # Errors
///
/// - [`ModelError::EmptyInput`] if `features` is empty.
/// - [`ModelError::EquilibriumFailed`] if features were built for a
///   different associativity than `assoc`, or (curve inversion only) when
///   a response curve cannot bracket a finite window.
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
    validate(features, assoc)?;
    if kind == SolverKind::Robust {
        for f in features {
            crate::validate::feature_vector(f)?;
        }
    }
    let a = assoc as f64;
    solve_with(features, assoc, |canon| match kind {
        SolverKind::CurveInversion => inversion_core(canon, a, cancel),
        SolverKind::Bisection => bisection_core(canon, a, cancel),
        SolverKind::Robust => match inversion_core(canon, a, cancel) {
            Err(e @ ModelError::Math(mathkit::MathError::Cancelled)) => Err(e),
            Err(e) => {
                let failed =
                    FallbackEvent { stage: SolveMethod::CurveInversion, reason: e.to_string() };
                Ok(proportional_core(canon, a, vec![failed]))
            }
            solved => solved,
        },
    })
}

/// Window value reported when the capacity constraint is infeasible: the
/// effectively infinite window the saturated sizes were evaluated at.
const WINDOW_CAP: f64 = 1e9;

/// The capacity tolerance both iterative cores accept as "filled": `G`
/// approaches the associativity asymptotically, so a lone hungry process
/// reaches `a - 1e-9` ways but never exactly `a`.
const FILL_EPS: f64 = 1e-4;

/// A solver core's answer over the *canonically ordered active* features;
/// the front-end scatters it back to the caller's process order.
struct CoreSolution {
    sizes: Vec<f64>,
    window: f64,
    filled: bool,
    diagnostics: SolveDiagnostics,
}

impl CoreSolution {
    /// The answer when demand saturates below capacity: the saturated
    /// `sizes` at [`WINDOW_CAP`], `filled` within 1e-2 ways.
    fn saturated(sizes: Vec<f64>, a: f64, method: SolveMethod, evals: usize) -> Self {
        let sum: f64 = sizes.iter().sum();
        let diagnostics = SolveDiagnostics::direct(method, evals, (sum - a).abs());
        CoreSolution { sizes, window: WINDOW_CAP, filled: sum >= a - 1e-2, diagnostics }
    }

    /// A filled answer at window `t`. Any residual capacity error is
    /// distributed proportionally so the constraint holds exactly
    /// (cosmetic: the residual is within the solver's tolerance).
    fn filled(mut sizes: Vec<f64>, t: f64, a: f64, method: SolveMethod, evals: usize) -> Self {
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
        let diagnostics = SolveDiagnostics::direct(method, evals, residual);
        CoreSolution { sizes, window: t, filled: true, diagnostics }
    }
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
///    have no response curve (their window `T(S)` is infinite).
/// 2. Dispatch degenerate inputs (no active process, one active process)
///    to exact closed forms.
/// 3. Re-order the remaining active processes canonically by content
///    fingerprint, so float summation order inside the cores — and hence
///    every bit of the result — is independent of the caller's process
///    order, run `core` on them, and scatter its answer back to input
///    order.
fn solve_with(
    features: &[&FeatureVector],
    assoc: usize,
    core: impl FnOnce(&[&FeatureVector]) -> Result<CoreSolution, ModelError>,
) -> Result<Equilibrium, ModelError> {
    let order = canonical_active(features);
    match order.as_slice() {
        [] => return Ok(all_idle(features)),
        &[only] => return solve_single_active(features, only, assoc as f64),
        _ => {}
    }
    let canon: Vec<&FeatureVector> = order.iter().map(|&i| features[i]).collect();
    let core = core(&canon)?;
    Ok(scatter(features, &order, core))
}

/// Closed form for exactly one active process (possibly among idles): it
/// faces no contention, so it simply gets `min(saturation, A)` ways — no
/// iteration at all.
fn solve_single_active(
    features: &[&FeatureVector],
    idx: usize,
    a: f64,
) -> Result<Equilibrium, ModelError> {
    let f = features[idx];
    let sat = f.occupancy().saturation().min(a);
    let mut sizes = vec![0.0; features.len()];
    let diag = SolveDiagnostics::direct(SolveMethod::ClosedForm, 0, 0.0);
    if sat >= a - FILL_EPS {
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
    // or the inner sizes saturate.
    let mut t_lo = 1e-12;
    let mut t_hi = 1e-9;
    while total(t_hi) < a - FILL_EPS {
        cancel.check()?;
        t_lo = t_hi;
        t_hi *= 4.0;
        if t_hi > WINDOW_CAP {
            // Demand can never fill the cache: return saturated sizes.
            let sizes: Vec<f64> =
                features.iter().map(|f| size_for_window(f, a, WINDOW_CAP, &mut 0)).collect();
            return Ok(CoreSolution::saturated(
                sizes,
                a,
                SolveMethod::NestedBisection,
                evals.get(),
            ));
        }
    }

    // If the expansion landed essentially on the constraint (asymptotic
    // approach from below), accept it; otherwise bisect the crossing.
    let t = if total(t_hi) <= a + FILL_EPS {
        t_hi
    } else {
        bisect_cancellable(
            |t| total(t) - a,
            t_lo,
            t_hi,
            BisectOptions { x_tol: 0.0, f_tol: 1e-9, max_iter: 500 },
            cancel,
        )
        .map_err(|e| match e {
            // A cancellation stays a typed `Math` error (the serving
            // layer maps it to `deadline_exceeded`).
            mathkit::MathError::Cancelled => ModelError::Math(e),
            e => ModelError::EquilibriumFailed(format!("outer bisection: {e}")),
        })?
    };

    let sizes: Vec<f64> =
        features.iter().zip(&mut cursors).map(|(f, c)| size_for_window(f, a, t, c)).collect();
    Ok(CoreSolution::filled(sizes, t, a, SolveMethod::NestedBisection, evals.get()))
}

/// Absolute capacity tolerance (ways) at which the curve inversion
/// accepts a window: two orders tighter than the bisection oracle's.
const INVERSION_TOL: f64 = 1e-11;

/// Outer-evaluation budget of the Illinois iteration. It converges
/// superlinearly, in about eight evaluations on real profiles.
const INVERSION_MAX_EVALS: usize = 200;

/// Steps allowed for widening the initial window bracket by ×4 or ÷4
/// (4^40 ≈ 1e24, far past [`WINDOW_CAP`] from any finite seed).
const BRACKET_STEPS: usize = 40;

/// One piece of a response curve: on `[s0, s1]` both `G⁻¹` and `SPI` are
/// affine, so with `u = S − s0`
/// `R(S) = G⁻¹(S)·SPI(S) = (x0 + σu)·(q + ru)`, where `R = API·T`.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    s0: f64,
    s1: f64,
    x0: f64,
    sigma: f64,
    q: f64,
    r: f64,
    /// Running maximum of `R` over `[0, s1]` (the envelope).
    env: f64,
}

impl Piece {
    fn value(&self, u: f64) -> f64 {
        (self.x0 + self.sigma * u) * (self.q + self.r * u)
    }
}

/// One active process's response curve `R(S) = API·T(S)`, cut lazily
/// into [`Piece`]s at the merged knots of `G⁻¹` (the occupancy curve's
/// inverse knots) and of `MPA` (the integers), up to
/// `cap = min(top knot, A)`.
///
/// The pieces live for one solve, in storage the solve lends, and are
/// only built as far as the queried windows reach; nothing is stored on
/// the feature vector. Every piece and every answer is a function of the
/// feature and the query alone, so how far earlier queries walked never
/// changes a bit.
struct ResponseCurve<'a> {
    f: &'a FeatureVector,
    /// `G⁻¹` knots: strictly increasing occupancies, their access counts,
    /// and the per-segment slopes `dG⁻¹/dS`.
    ys: &'a [f64],
    xs: &'a [f64],
    slopes: &'a [f64],
    cap: f64,
    /// Right end of the `G⁻¹` segment the walk is in.
    next: usize,
    /// Where the next piece starts, and the integer below it with the
    /// MPA at that integer and the next: MPA is linear between them.
    s: f64,
    floor: f64,
    m0: f64,
    m1: f64,
    env: f64,
    /// Room for every piece ([`ResponseCurve::max_pieces`]); the first
    /// `built` are the walk so far.
    pieces: &'a mut [Piece],
    built: usize,
}

impl<'a> ResponseCurve<'a> {
    /// The walk's ceiling `min(top knot, A)`: 0 when `G` never grows.
    fn cap(f: &FeatureVector, a: f64) -> f64 {
        match f.occupancy().inverse_knots().0 {
            [_, .., top] => top.min(a),
            _ => 0.0,
        }
    }

    /// The most pieces the walk can produce: one per `G⁻¹` segment plus
    /// one per integer split.
    fn max_pieces(f: &FeatureVector, a: f64) -> usize {
        f.occupancy().inverse_knots().0.len() + Self::cap(f, a) as usize + 1
    }

    fn new(f: &'a FeatureVector, a: f64, pieces: &'a mut [Piece]) -> Self {
        let (ys, xs, slopes) = f.occupancy().inverse_knots();
        let (m0, m1) = (f.histogram().mpa_int(0), f.histogram().mpa_int(1));
        let cap = Self::cap(f, a);
        ResponseCurve {
            f,
            ys,
            xs,
            slopes,
            cap,
            next: 1,
            s: 0.0,
            floor: 0.0,
            m0,
            m1,
            env: 0.0,
            pieces,
            built: 0,
        }
    }

    /// Appends the next piece; `false` once the walk has reached `cap`.
    fn grow(&mut self) -> bool {
        let (k, s) = (self.next, self.s);
        let (Some(&y0), Some(&y1), Some(&x), Some(&sigma)) =
            (self.ys.get(k - 1), self.ys.get(k), self.xs.get(k - 1), self.slopes.get(k - 1))
        else {
            return false;
        };
        if s >= self.cap {
            return false;
        }
        let int_end = self.floor + 1.0;
        let s1 = y1.min(int_end).min(self.cap);
        let x0 = x + (s - y0) * sigma;
        let spi = self.f.spi_model();
        let (m0, dm) = (self.m0, self.m1 - self.m0);
        let q = spi.alpha() * (m0 + dm * (s - self.floor)) + spi.beta();
        let r = spi.alpha() * dm;
        let mut piece = Piece { s0: s, s1, x0, sigma, q, r, env: 0.0 };
        let len = s1 - s;
        let mut peak = piece.value(len);
        // A concave piece (MPA falling faster than G⁻¹ rises) can peak
        // inside, where R' = b + 2·σr·u changes sign; that interior
        // maximum belongs to the envelope too.
        let (curv, b) = (sigma * r, sigma * q + x0 * r);
        if b > 0.0 && b + 2.0 * curv * len < 0.0 {
            peak = peak.max(piece.value(-b / (2.0 * curv)));
        }
        self.env = self.env.max(peak);
        piece.env = self.env;
        let Some(slot) = self.pieces.get_mut(self.built) else {
            return false;
        };
        *slot = piece;
        self.built += 1;
        self.s = s1;
        if s1 >= y1 {
            self.next += 1;
        }
        if s1 >= int_end {
            self.floor = int_end;
            self.m0 = self.m1;
            self.m1 = self.f.histogram().mpa_int(int_end as usize + 1);
        }
        true
    }

    /// `S(T)` for `target = API·T`: the smallest `S` with
    /// `R(S) >= target` — the first crossing of the running-maximum
    /// envelope, so a curve that dips still answers monotonically in `T`
    /// — or `cap` when the curve never reaches `target` (the same
    /// saturation as the bisection oracle's inner solve).
    fn size_at(&mut self, target: f64) -> f64 {
        for _ in self.built..self.pieces.len() {
            if self.env >= target || !self.grow() {
                break;
            }
        }
        let built = &self.pieces[..self.built];
        let j = built.partition_point(|p| p.env < target);
        let Some(p) = built.get(j).filter(|p| p.env >= target) else {
            return self.cap;
        };
        // Smallest root u in [0, s1 - s0] of (x0 + σu)(q + ru) = target,
        // i.e. a·u² + b·u + c = 0, by the cancellation-free formula. R at
        // the piece start is below target (the previous envelope was), so
        // c < 0 up to rounding.
        let (a2, b, c) = (p.sigma * p.r, p.sigma * p.q + p.x0 * p.r, p.x0 * p.q - target);
        if c >= 0.0 {
            return p.s0;
        }
        let disc = (b * b - 4.0 * a2 * c).max(0.0).sqrt();
        let u = if b > 0.0 {
            -2.0 * c / (b + disc)
        } else if a2 > 0.0 {
            (disc - b) / (2.0 * a2)
        } else {
            p.s1 - p.s0
        };
        p.s0 + u.clamp(0.0, p.s1 - p.s0)
    }
}

/// Writes `S_i(t)` of every curve into `out` and returns their sum, in
/// canonical order.
fn occupancy_at(curves: &mut [ResponseCurve<'_>], t: f64, out: &mut [f64]) -> f64 {
    let mut sum = 0.0;
    for (c, o) in curves.iter_mut().zip(out.iter_mut()) {
        *o = c.size_at(c.f.api() * t);
        sum += *o;
    }
    sum
}

/// The curve-inversion core over canonically ordered active features.
///
/// 1. If the processes' saturated occupancies cannot fill the cache, the
///    answer is the saturated sizes at [`WINDOW_CAP`], as for bisection.
/// 2. Bracket the window by `[min_i T_i(A/k), max_i T_i(A/k)]`: at the
///    lower end every process holds at most its fair share, at the upper
///    end (for monotone curves) at least it. Widen by ×4 where a capped
///    process leaves the upper end short, or rounding the lower end
///    high.
/// 3. Illinois iteration on `ln T` until `|Σ S_i(T) − A| <= 1e-11` ways.
///    If the bracket collapses first (the sum jumps across `A` where a
///    dipping curve's envelope is flat), the sizes are interpolated
///    between its ends, so the capacity constraint still holds.
///
/// A curve with no finite window (e.g. an API so small that `T`
/// overflows) is a typed [`ModelError::EquilibriumFailed`].
fn inversion_core(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
) -> Result<CoreSolution, ModelError> {
    thread_local! {
        /// Piece storage reused by every solve on this thread, so a solve
        /// allocates none. Each piece is written before it is read.
        static ARENA: RefCell<Vec<Piece>> = const { RefCell::new(Vec::new()) };
    }
    ARENA.with(|arena| match arena.try_borrow_mut() {
        Ok(mut pieces) => invert(features, a, cancel, &mut pieces),
        Err(_) => invert(features, a, cancel, &mut Vec::new()),
    })
}

/// [`inversion_core`] with `arena` as the piece storage.
fn invert(
    features: &[&FeatureVector],
    a: f64,
    cancel: &CancelToken,
    arena: &mut Vec<Piece>,
) -> Result<CoreSolution, ModelError> {
    const METHOD: SolveMethod = SolveMethod::CurveInversion;
    let k = features.len();
    let bounds: Vec<usize> = features.iter().map(|f| ResponseCurve::max_pieces(f, a)).collect();
    let total: usize = bounds.iter().sum();
    if arena.len() < total {
        arena.resize(total, Piece::default());
    }
    let mut rest: &mut [Piece] = arena;
    let mut curves: Vec<ResponseCurve<'_>> = Vec::with_capacity(k);
    for (f, &n) in features.iter().zip(&bounds) {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(n);
        curves.push(ResponseCurve::new(f, a, mine));
        rest = tail;
    }
    let mut sizes = vec![0.0; k];
    let cap_sum: f64 = curves.iter().map(|c| c.cap).sum();
    if cap_sum < a - FILL_EPS {
        occupancy_at(&mut curves, WINDOW_CAP, &mut sizes);
        return Ok(CoreSolution::saturated(sizes, a, METHOD, 1));
    }

    let mut evals = 0usize;
    let mut eval = |curves: &mut [ResponseCurve<'_>], t: f64, out: &mut [f64]| {
        cancel.check()?;
        evals += 1;
        Ok::<f64, ModelError>(occupancy_at(curves, t, out) - a)
    };

    let share = a / k as f64;
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for c in &curves {
        let (f, s) = (c.f, share.min(c.cap));
        let t = f.occupancy().g_inverse(s) * f.spi_at(s) / f.api();
        if !(t > 0.0 && t.is_finite()) {
            return Err(ModelError::EquilibriumFailed(format!(
                "response curve of '{}' has no finite window at {s} ways (T = {t})",
                f.name()
            )));
        }
        lo = lo.min(t);
        hi = hi.max(t);
    }

    let mut sizes_hi = vec![0.0; k];
    let mut f_hi = eval(&mut curves, hi, &mut sizes_hi)?;
    let mut sizes_lo = vec![0.0; k];
    let mut f_lo = f64::NAN;
    for _ in 0..BRACKET_STEPS {
        if f_hi >= 0.0 {
            break;
        }
        (lo, f_lo) = (hi, f_hi);
        std::mem::swap(&mut sizes_lo, &mut sizes_hi);
        hi *= 4.0;
        if hi > WINDOW_CAP {
            let sum = occupancy_at(&mut curves, WINDOW_CAP, &mut sizes);
            return Ok(if sum >= a - FILL_EPS {
                CoreSolution::filled(sizes, WINDOW_CAP, a, METHOD, evals)
            } else {
                CoreSolution::saturated(sizes, a, METHOD, evals)
            });
        }
        f_hi = eval(&mut curves, hi, &mut sizes_hi)?;
    }
    if f_lo.is_nan() {
        f_lo = eval(&mut curves, lo, &mut sizes_lo)?;
    }
    for _ in 0..BRACKET_STEPS {
        if f_lo <= 0.0 {
            break;
        }
        (hi, f_hi) = (lo, f_lo);
        std::mem::swap(&mut sizes_lo, &mut sizes_hi);
        lo /= 4.0;
        f_lo = eval(&mut curves, lo, &mut sizes_lo)?;
    }
    if !(f_lo <= 0.0 && f_hi >= 0.0) {
        return Err(ModelError::EquilibriumFailed(format!(
            "curve inversion could not bracket the window: Σ S − A = {f_lo} at T = {lo}, \
             {f_hi} at T = {hi}"
        )));
    }
    if -f_lo <= INVERSION_TOL {
        return Ok(CoreSolution::filled(sizes_lo, lo, a, METHOD, evals));
    }
    if f_hi <= INVERSION_TOL {
        return Ok(CoreSolution::filled(sizes_hi, hi, a, METHOD, evals));
    }

    // Illinois: regula falsi on ln T, halving the retained end's value
    // whenever the same end is kept twice, so the bracket shrinks from
    // both sides.
    let (mut u_lo, mut u_hi) = (lo.ln(), hi.ln());
    let mut moved = 0i8;
    for _ in 0..INVERSION_MAX_EVALS {
        let mut u = u_hi - f_hi * (u_hi - u_lo) / (f_hi - f_lo);
        if !(u > u_lo && u < u_hi) {
            u = 0.5 * (u_lo + u_hi);
            if !(u > u_lo && u < u_hi) {
                break; // the bracket is down to adjacent floats
            }
        }
        let t = u.exp();
        let f = eval(&mut curves, t, &mut sizes)?;
        if f.abs() <= INVERSION_TOL {
            return Ok(CoreSolution::filled(sizes, t, a, METHOD, evals));
        }
        if f < 0.0 {
            (u_lo, f_lo) = (u, f);
            std::mem::swap(&mut sizes_lo, &mut sizes);
            if moved < 0 {
                f_hi *= 0.5;
            }
            moved = -1;
        } else {
            (u_hi, f_hi) = (u, f);
            std::mem::swap(&mut sizes_hi, &mut sizes);
            if moved > 0 {
                f_lo *= 0.5;
            }
            moved = 1;
        }
    }
    // The bracket collapsed with the sum jumping across A: split the jump.
    let (sum_lo, sum_hi): (f64, f64) = (sizes_lo.iter().sum(), sizes_hi.iter().sum());
    let theta =
        if sum_hi > sum_lo { ((a - sum_lo) / (sum_hi - sum_lo)).clamp(0.0, 1.0) } else { 1.0 };
    for ((s, &l), &h) in sizes.iter_mut().zip(&sizes_lo).zip(&sizes_hi) {
        *s = l + theta * (h - l);
    }
    Ok(CoreSolution::filled(sizes, u_hi.exp(), a, METHOD, evals))
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
///   workers (`0` = auto). Chunking only changes which thread runs a set,
///   never the arithmetic.
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

    // Contiguous chunks over the unique sets; each chunk runs
    // sequentially, chunks run in parallel.
    let n = uniques.len();
    let workers = resolve_workers(workers).min(n).max(1);
    let chunk_len = n.div_ceil(workers.max(1)).max(1);
    let ranges: Vec<(usize, usize)> =
        (0..workers).map(|c| (c * chunk_len, ((c + 1) * chunk_len).min(n))).collect();
    let chunk_results: Vec<Vec<(usize, Result<Equilibrium, ModelError>)>> =
        par_map(ranges, workers, |_, (lo, hi)| {
            let mut out = Vec::with_capacity(hi.saturating_sub(lo));
            for &set_idx in &uniques[lo.min(n)..hi] {
                let features = &sets[set_idx].features;
                out.push((set_idx, solve_cancellable(features, assoc, kind, cancel)));
            }
            out
        });

    let mut solved: BTreeMap<usize, Result<Equilibrium, ModelError>> = BTreeMap::new();
    for chunk in chunk_results {
        for (set_idx, res) in chunk {
            solved.insert(set_idx, res);
        }
    }

    let mut out: Vec<Result<Equilibrium, ModelError>> = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let res = match solved.get(&rep_of[i]) {
            Some(Ok(eq)) => Ok(eq.clone()),
            _ => solve_cancellable(&set.features, assoc, kind, cancel),
        };
        out.push(res);
    }
    out
}

/// The proportional-to-API closed-form split — the robust kind's last
/// resort, exposed directly so the serving layer's circuit breaker can
/// answer degraded requests without running (and failing) a solve first.
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
/// flagged degraded, with the failed solve that led here. Every API is
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
