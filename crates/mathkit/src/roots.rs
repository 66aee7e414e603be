//! Robust 1-D root finding.
//!
//! The performance model needs guaranteed-convergent scalar solves in the
//! bisection equilibrium oracle: the inner occupancy solve
//! `S = G(APS(S)·T)` and the outer solve on the shared cache window `T`.
//! Bisection (optionally accelerated with secant steps, i.e. a simplified
//! Brent scheme) is used because the functions involved are monotone but
//! only piecewise smooth.

use crate::sync::CancelToken;
use crate::MathError;

/// Options controlling a bisection solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectOptions {
    /// Absolute tolerance on the bracket width.
    pub x_tol: f64,
    /// Absolute tolerance on |f(x)|; either tolerance terminates.
    pub f_tol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions { x_tol: 1e-10, f_tol: 1e-12, max_iter: 200 }
    }
}

/// Finds a root of `f` in `[lo, hi]` by bisection with secant acceleration.
///
/// The bracket must satisfy `f(lo) * f(hi) <= 0`. The returned point `x`
/// satisfies `|f(x)| <= f_tol` or lies within `x_tol` of a sign change.
///
/// # Errors
///
/// - [`MathError::InvalidBracket`] if `lo >= hi` or the bracket does not
///   contain a sign change.
/// - [`MathError::NoConvergence`] if the iteration budget is exhausted
///   (practically unreachable for a valid bracket, since the bracket halves
///   on every non-accelerated step).
///
/// # Examples
///
/// ```
/// use mathkit::roots::{bisect, BisectOptions};
///
/// # fn main() -> Result<(), mathkit::MathError> {
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, BisectOptions::default())?;
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn bisect<F: FnMut(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    opts: BisectOptions,
) -> Result<f64, MathError> {
    bisect_cancellable(f, lo, hi, opts, &CancelToken::never())
}

/// [`bisect`] with a cooperative cancellation point at the top of every
/// iteration.
///
/// # Errors
///
/// Everything [`bisect`] returns, plus [`MathError::Cancelled`] once
/// `cancel` fires.
pub fn bisect_cancellable<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    opts: BisectOptions,
    cancel: &CancelToken,
) -> Result<f64, MathError> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(MathError::InvalidBracket { lo, hi });
    }
    let flo = f(lo);
    let fhi = f(hi);
    bisect_seeded_cancellable(f, lo, hi, flo, fhi, opts, cancel)
}

/// [`bisect_cancellable`] with caller-supplied endpoint values `f(lo)` and
/// `f(hi)`, for hot paths that already evaluated the endpoints (e.g. to
/// decide whether a bracketed solve is needed at all). With correctly
/// seeded values the iteration sequence — and hence every bit of the
/// result — is identical to [`bisect_cancellable`], minus the two
/// endpoint evaluations.
///
/// # Errors
///
/// Everything [`bisect_cancellable`] returns.
pub fn bisect_seeded_cancellable<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    flo: f64,
    fhi: f64,
    opts: BisectOptions,
    cancel: &CancelToken,
) -> Result<f64, MathError> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(MathError::InvalidBracket { lo, hi });
    }
    let mut a = lo;
    let mut b = hi;
    let mut fa = flo;
    let mut fb = fhi;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(MathError::InvalidBracket { lo, hi });
    }

    let mut last_f = fa.abs().min(fb.abs());
    for iter in 0..opts.max_iter {
        cancel.check()?;
        // Candidate: secant point if it lands strictly inside the bracket,
        // otherwise the midpoint. Alternate with plain bisection every other
        // step to guarantee geometric bracket shrinkage.
        let mid = 0.5 * (a + b);
        let mut x = mid;
        if iter % 2 == 0 && fb != fa {
            let secant = b - fb * (b - a) / (fb - fa);
            let margin = 0.01 * (b - a);
            if secant > a + margin && secant < b - margin {
                x = secant;
            }
        }
        let fx = f(x);
        last_f = fx.abs();
        if fx.abs() <= opts.f_tol || (b - a) <= opts.x_tol {
            return Ok(x);
        }
        if fa * fx < 0.0 {
            b = x;
            fb = fx;
        } else {
            a = x;
            fa = fx;
        }
    }
    Err(MathError::NoConvergence { iterations: opts.max_iter, residual: last_f })
}

/// Expands `[lo, hi]` geometrically upward until `f` changes sign, then
/// bisects. Intended for monotone functions where only a lower bound of the
/// root is known (e.g. inverting `G(n)` where `n` is unbounded above).
///
/// `hi_limit` caps the expansion; if the sign never changes before the cap,
/// the cap itself is returned when `f` is still on the same side (saturated
/// monotone functions), which callers treat as "root at or beyond the cap".
///
/// # Errors
///
/// Returns [`MathError::InvalidBracket`] if `lo >= hi` or the inputs are not
/// finite, and propagates [`bisect`] errors.
pub fn bisect_expanding<F: FnMut(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    hi_limit: f64,
    opts: BisectOptions,
) -> Result<f64, MathError> {
    bisect_expanding_cancellable(f, lo, hi, hi_limit, opts, &CancelToken::never())
}

/// [`bisect_expanding`] with cooperative cancellation points in both the
/// expansion loop and the inner bisection.
///
/// # Errors
///
/// Everything [`bisect_expanding`] returns, plus [`MathError::Cancelled`]
/// once `cancel` fires.
pub fn bisect_expanding_cancellable<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    hi_limit: f64,
    opts: BisectOptions,
    cancel: &CancelToken,
) -> Result<f64, MathError> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(MathError::InvalidBracket { lo, hi });
    }
    let flo = f(lo);
    if flo == 0.0 {
        return Ok(lo);
    }
    let mut b = hi;
    let mut fb = f(b);
    let mut a = lo;
    while flo * fb > 0.0 {
        cancel.check()?;
        if b >= hi_limit {
            return Ok(hi_limit);
        }
        a = b;
        b = (b * 2.0).min(hi_limit);
        fb = f(b);
    }
    bisect_cancellable(f, a, b, opts, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sqrt_two() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, BisectOptions::default()).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn exact_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, BisectOptions::default()).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, BisectOptions::default()).unwrap(), 1.0);
    }

    #[test]
    fn rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, BisectOptions::default()).is_err());
        assert!(bisect(|x| x, 1.0, 0.0, BisectOptions::default()).is_err());
        assert!(bisect(|x| x, f64::NAN, 1.0, BisectOptions::default()).is_err());
    }

    #[test]
    fn decreasing_function() {
        let r = bisect(|x| 1.0 - x, 0.0, 5.0, BisectOptions::default()).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_kinked_function() {
        // Piecewise-linear with a kink, like an MPA curve.
        let f = |x: f64| if x < 2.0 { 3.0 - x } else { 5.0 - 2.0 * x };
        let r = bisect(f, 0.0, 10.0, BisectOptions::default()).unwrap();
        assert!((r - 2.5).abs() < 1e-9);
    }

    #[test]
    fn expanding_bracket_finds_distant_root() {
        let r = bisect_expanding(|x| x - 1000.0, 0.0, 1.0, 1e9, BisectOptions::default()).unwrap();
        assert!((r - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn expanding_bracket_saturates_at_cap() {
        // f never crosses zero below the cap -> cap returned.
        let r = bisect_expanding(|x| x - 100.0, 0.0, 1.0, 50.0, BisectOptions::default()).unwrap();
        assert_eq!(r, 50.0);
    }

    #[test]
    fn cancelled_token_stops_every_solver() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let fired = CancelToken::flag(Arc::new(AtomicBool::new(true)));
        let b = bisect_cancellable(|x| x * x - 2.0, 0.0, 2.0, BisectOptions::default(), &fired);
        assert_eq!(b.unwrap_err(), MathError::Cancelled);
        let e = bisect_expanding_cancellable(
            |x| x - 1000.0,
            0.0,
            1.0,
            1e9,
            BisectOptions::default(),
            &fired,
        );
        assert_eq!(e.unwrap_err(), MathError::Cancelled);
    }

    #[test]
    fn never_token_is_bit_exact_with_plain_solvers() {
        let never = CancelToken::never();
        let plain = bisect(|x| x * x - 2.0, 0.0, 2.0, BisectOptions::default()).unwrap();
        let cancl = bisect_cancellable(|x| x * x - 2.0, 0.0, 2.0, BisectOptions::default(), &never)
            .unwrap();
        assert_eq!(plain.to_bits(), cancl.to_bits());
    }

    #[test]
    fn seeded_bisection_is_bit_exact_with_plain() {
        let f = |x: f64| x * x - 2.0;
        let plain = bisect(f, 0.0, 2.0, BisectOptions::default()).unwrap();
        let seeded = bisect_seeded_cancellable(
            f,
            0.0,
            2.0,
            f(0.0),
            f(2.0),
            BisectOptions::default(),
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(plain.to_bits(), seeded.to_bits());
        // Endpoint roots and bad brackets behave like the plain entry too.
        let seeded_root = bisect_seeded_cancellable(
            |x| x,
            0.0,
            1.0,
            0.0,
            1.0,
            BisectOptions::default(),
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(seeded_root, 0.0);
        let bad = bisect_seeded_cancellable(
            |x| x * x + 1.0,
            -1.0,
            1.0,
            2.0,
            2.0,
            BisectOptions::default(),
            &CancelToken::never(),
        );
        assert!(matches!(bad, Err(MathError::InvalidBracket { .. })), "{bad:?}");
    }

    #[test]
    fn tight_tolerance_respected() {
        let opts = BisectOptions { x_tol: 1e-14, f_tol: 0.0, max_iter: 500 };
        let r = bisect(|x| (x - std::f64::consts::PI).powi(3), 0.0, 10.0, opts).unwrap();
        assert!((r - std::f64::consts::PI).abs() < 1e-4);
    }
}
