//! Monotone piecewise-linear interpolation and inversion.
//!
//! The performance model manipulates curves that exist only as tables:
//! MPA as a function of effective cache size, and the occupancy function
//! `G(n)`. Both are monotone, so a piecewise-linear interpolant with a
//! monotone-aware inverse is exactly what the solvers need.

use crate::MathError;

/// A piecewise-linear function through a strictly increasing set of knots.
///
/// The function extrapolates flat beyond its endpoints (curve values clamp
/// to the first/last knot), matching the saturating behaviour of MPA and
/// occupancy curves.
///
/// # Examples
///
/// ```
/// use mathkit::interp::PiecewiseLinear;
///
/// # fn main() -> Result<(), mathkit::MathError> {
/// let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 12.0])?;
/// assert_eq!(f.eval(0.5), 5.0);
/// assert_eq!(f.eval(-1.0), 0.0);  // clamped
/// assert_eq!(f.eval(5.0), 12.0);  // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Whether `ys` is non-decreasing (within the inversion tolerance),
    /// decided once at construction. [`PiecewiseLinear::inverse_monotone`]
    /// sits in the equilibrium solvers' innermost loop; re-validating
    /// monotonicity with an O(n) sweep on every call dominated the solve
    /// cost, so the answer is cached here.
    nondecreasing: bool,
}

impl PiecewiseLinear {
    /// Builds an interpolant through `(xs[i], ys[i])`.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
    /// - [`MathError::InvalidArgument`] if fewer than two knots are given,
    ///   any value is non-finite, or `xs` is not strictly increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, MathError> {
        if xs.len() != ys.len() {
            return Err(MathError::DimensionMismatch {
                expected: format!("{} ordinates", xs.len()),
                found: format!("{} ordinates", ys.len()),
            });
        }
        if xs.len() < 2 {
            return Err(MathError::InvalidArgument("need at least two knots".into()));
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(MathError::InvalidArgument("knots must be finite".into()));
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MathError::InvalidArgument("abscissae must be strictly increasing".into()));
        }
        let nondecreasing = !ys.windows(2).any(|w| w[0] > w[1] + 1e-12);
        Ok(PiecewiseLinear { xs, ys, nondecreasing })
    }

    /// Evaluates the interpolant at `x`, clamping outside the knot range.
    /// A NaN input yields NaN rather than a panic, so callers can detect
    /// poisoned values downstream.
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_with_cursor(x, &mut (self.xs.len() / 2))
    }

    /// [`PiecewiseLinear::eval`] with a segment search that starts from
    /// `cursor`, a hint the caller keeps between calls: the index of the
    /// knot that ended the segment used last time. Any value is a valid
    /// cursor (out-of-range ones are clamped), and the result does not
    /// depend on it: the knots are strictly increasing, so exactly one
    /// segment contains `x`. The search tests the cursor's segment first,
    /// gallops outward, then bisects inside the bracket, so a caller
    /// whose successive arguments stay close pays O(1) instead of a full
    /// O(log n) search. An in-range `x` leaves the cursor on its segment.
    pub fn eval_with_cursor(&self, x: f64, cursor: &mut usize) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let idx = self.segment_end(x, *cursor);
        *cursor = idx;
        if self.xs[idx].total_cmp(&x).is_eq() {
            return self.ys[idx];
        }
        // xs[idx-1] < x < xs[idx]
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The first knot index `i` with `xs[i] >= x`, for a non-NaN `x`
    /// strictly inside the knot range (so `1 <= i <= n - 1`), searched
    /// outward from `hint`. Comparisons use `total_cmp`, the order the
    /// knots were always searched in; for non-NaN values it differs from
    /// `<` only between `-0.0` and `+0.0`.
    fn segment_end(&self, x: f64, hint: usize) -> usize {
        let xs = &self.xs;
        let last = xs.len() - 1;
        let below = |v: f64| v.total_cmp(&x).is_lt();
        let c = hint.clamp(1, last);
        // Bracket the answer in (lo, hi] with xs[lo] < x <= xs[hi]; the
        // range guards of the caller make xs[0] and xs[last] valid ends.
        let (mut lo, mut hi) = (c - 1, c);
        let mut step = 1;
        if below(xs[c]) {
            lo = c;
            // lint:allow(cancellation_propagation) -- gallop: the probe doubles toward the last knot every iteration
            loop {
                let probe = (lo + step).min(last);
                if probe == last || !below(xs[probe]) {
                    hi = probe;
                    break;
                }
                lo = probe;
                step *= 2;
            }
        } else if !below(xs[c - 1]) {
            hi = c - 1;
            // lint:allow(cancellation_propagation) -- gallop: the probe halves toward the first knot every iteration
            loop {
                let probe = hi.saturating_sub(step);
                if probe == 0 || below(xs[probe]) {
                    lo = probe;
                    break;
                }
                hi = probe;
                step *= 2;
            }
        }
        lo + 1 + xs[lo + 1..hi].partition_point(|&v| below(v))
    }

    /// Inverts a (weakly) monotone non-decreasing interpolant: returns the
    /// smallest `x` in the knot range with `eval(x) >= y`.
    ///
    /// If `y` is below the curve's minimum the first knot is returned; if it
    /// is above the maximum, the last knot is returned. This saturating
    /// behaviour mirrors the semantics of `G⁻¹(S)` in the paper: an
    /// occupancy at or beyond the curve's reach maps to the extreme access
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if the curve is decreasing
    /// anywhere (inverse undefined).
    pub fn inverse_monotone(&self, y: f64) -> Result<f64, MathError> {
        if !self.nondecreasing {
            return Err(MathError::InvalidArgument(
                "inverse requires a non-decreasing curve".into(),
            ));
        }
        let n = self.xs.len();
        if y <= self.ys[0] {
            return Ok(self.xs[0]);
        }
        if y > self.ys[n - 1] {
            return Ok(self.xs[n - 1]);
        }
        // First segment whose right endpoint reaches y. `ys` is
        // non-decreasing and y is comparable (the guards above weed out
        // NaN), so the partition point is exactly the index the old
        // linear scan found — same index, same interpolation arithmetic,
        // bit-identical result in O(log n).
        let idx = self.ys.partition_point(|&v| v < y).max(1);
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        if y1 == y0 {
            return Ok(x0);
        }
        Ok(x0 + (x1 - x0) * (y - y0) / (y1 - y0))
    }

    /// The knot abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The knot ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Domain of the interpolant, `(first knot, last knot)`.
    pub fn domain(&self) -> (f64, f64) {
        // lint:allow(panic_free) -- constructor rejects fewer than two knots, so first/last always exist
        (self.xs[0], *self.xs.last().expect("at least two knots"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PiecewiseLinear {
        PiecewiseLinear::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 2.5]).unwrap()
    }

    #[test]
    fn eval_at_knots_and_between() {
        let f = ramp();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(3.0), 2.5);
        assert_eq!(f.eval(0.5), 1.0);
        assert_eq!(f.eval(2.0), 2.25);
    }

    #[test]
    fn eval_clamps_outside_domain() {
        let f = ramp();
        assert_eq!(f.eval(-10.0), 0.0);
        assert_eq!(f.eval(10.0), 2.5);
    }

    #[test]
    fn inverse_roundtrip() {
        let f = ramp();
        for &x in &[0.0, 0.25, 0.5, 1.0, 1.7, 2.9, 3.0] {
            let y = f.eval(x);
            let xi = f.inverse_monotone(y).unwrap();
            assert!((f.eval(xi) - y).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn inverse_saturates() {
        let f = ramp();
        assert_eq!(f.inverse_monotone(-1.0).unwrap(), 0.0);
        assert_eq!(f.inverse_monotone(100.0).unwrap(), 3.0);
    }

    #[test]
    fn inverse_of_flat_segment_returns_left_edge() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 1.0]).unwrap();
        assert_eq!(f.inverse_monotone(1.0).unwrap(), 1.0);
    }

    #[test]
    fn inverse_rejects_decreasing() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(f.inverse_monotone(0.5).is_err());
    }

    #[test]
    fn constructor_validation() {
        assert!(PiecewiseLinear::new(vec![0.0], vec![0.0]).is_err());
        assert!(PiecewiseLinear::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(PiecewiseLinear::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(PiecewiseLinear::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(PiecewiseLinear::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn domain_reported() {
        assert_eq!(ramp().domain(), (0.0, 3.0));
    }

    /// The full binary search `eval` used before the cursor existed: the
    /// reference the cursor search must reproduce bit for bit.
    fn eval_by_binary_search(f: &PiecewiseLinear, x: f64) -> f64 {
        let (xs, ys) = (f.xs(), f.ys());
        let n = xs.len();
        if x.is_nan() {
            return f64::NAN;
        }
        if x <= xs[0] {
            return ys[0];
        }
        if x >= xs[n - 1] {
            return ys[n - 1];
        }
        let idx = match xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => return ys[i],
            Err(i) => i,
        };
        let (x0, x1) = (xs[idx - 1], xs[idx]);
        let (y0, y1) = (ys[idx - 1], ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Queries at and between every knot, beyond both ends, at the signed
    /// zeros and NaN.
    fn probes(xs: &[f64], fracs: &[f64]) -> Vec<f64> {
        let (first, last) = (xs[0], xs[xs.len() - 1]);
        let mut out = vec![first - 1.0, last + 1.0, f64::NEG_INFINITY, f64::INFINITY];
        out.extend([f64::NAN, 0.0, -0.0]);
        out.extend_from_slice(xs);
        for (w, &t) in xs.windows(2).zip(fracs.iter().cycle()) {
            out.push(w[0] + (w[1] - w[0]) * t);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn cursor_search_returns_the_bits_of_eval_from_every_cursor(
            start in -5.0f64..5.0,
            gaps in proptest::collection::vec(0.001f64..10.0, 1..40),
            ys_raw in proptest::collection::vec(-100.0f64..100.0, 41),
            fracs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let mut xs = vec![start];
            for g in &gaps {
                let next = xs[xs.len() - 1] + g;
                xs.push(next);
            }
            let ys = ys_raw[..xs.len()].to_vec();
            let f = PiecewiseLinear::new(xs.clone(), ys).unwrap();
            let n = xs.len();
            let cursors = (0..n + 3).chain([usize::MAX]);
            for x in probes(&xs, &fracs) {
                let want = eval_by_binary_search(&f, x).to_bits();
                proptest::prop_assert_eq!(f.eval(x).to_bits(), want, "eval at {}", x);
                for c in cursors.clone() {
                    let mut cursor = c;
                    let got = f.eval_with_cursor(x, &mut cursor).to_bits();
                    proptest::prop_assert_eq!(got, want, "x {} from cursor {}", x, c);
                    // A held cursor keeps giving the same bits.
                    let again = f.eval_with_cursor(x, &mut cursor).to_bits();
                    proptest::prop_assert_eq!(again, want, "x {} from held cursor {}", x, cursor);
                }
            }
        }
    }

    #[test]
    fn cursor_lands_on_the_segment_of_an_in_range_query() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0, 4.0, 8.0], vec![0.0; 5]).unwrap();
        for (x, end) in [(0.5, 1), (1.0, 1), (1.5, 2), (3.0, 3), (7.9, 4)] {
            for start in [0, 2, 4, 99] {
                let mut cursor = start;
                f.eval_with_cursor(x, &mut cursor);
                assert_eq!(cursor, end, "x {x} from {start}");
            }
        }
        // A knot at zero: -0.0 sorts below it, as in the old search.
        let z = PiecewiseLinear::new(vec![-1.0, 0.0, 1.0], vec![3.0, 0.1, 7.0]).unwrap();
        for x in [0.0, -0.0] {
            let mut cursor = 2;
            let got = z.eval_with_cursor(x, &mut cursor).to_bits();
            assert_eq!(got, eval_by_binary_search(&z, x).to_bits(), "x {x}");
        }
        // Out-of-range and NaN queries leave the cursor alone.
        for x in [-1.0, 9.0, f64::NAN] {
            let mut cursor = 3;
            f.eval_with_cursor(x, &mut cursor);
            assert_eq!(cursor, 3, "x {x}");
        }
    }
}
