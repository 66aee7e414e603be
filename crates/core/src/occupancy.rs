//! Transient cache occupancy: the recursion of Eq. 4 and the expected
//! effective size `G(n)` of Eq. 5.
//!
//! `P_{i,n}` is the probability that a process occupies `i` ways of a set
//! after `n` of its accesses landed in that set, starting from holding
//! nothing. Growth happens on misses (probability `MPA(i)` at size `i`),
//! giving the paper's recursion
//!
//! ```text
//! P_{i,n} = P_{i,n-1} * (1 - MPA(i)) + P_{i-1,n-1} * MPA(i-1)
//! ```
//!
//! capped at the associativity `A` (at full size, further misses evict the
//! process's own lines). `G(n) = sum_i i * P_{i,n}` is monotone
//! non-decreasing in `n`, so it has a well-defined inverse `G^{-1}(S)` —
//! the number of per-set accesses needed to reach an expected occupancy of
//! `S` ways — which is the quantity the equilibrium condition (Eq. 6/7)
//! ratios against the access rate.

use crate::histogram::ReuseHistogram;
use crate::ModelError;
use mathkit::interp::PiecewiseLinear;

/// Options for tabulating `G(n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyOptions {
    /// Maximum number of per-set accesses to tabulate.
    pub n_max: usize,
    /// Stop early when the expected growth per access falls below this.
    pub growth_eps: f64,
}

impl Default for OccupancyOptions {
    fn default() -> Self {
        OccupancyOptions { n_max: 200_000, growth_eps: 1e-9 }
    }
}

/// The tabulated occupancy curve `G(n)` of one process on an `A`-way cache.
///
/// # Examples
///
/// ```
/// use mpmc_model::histogram::ReuseHistogram;
/// use mpmc_model::occupancy::OccupancyCurve;
///
/// # fn main() -> Result<(), mpmc_model::ModelError> {
/// // A pure streaming process (every access new): G(n) = min(n, A).
/// let h = ReuseHistogram::new(vec![], 1.0)?;
/// let g = OccupancyCurve::from_histogram(&h, 8, Default::default())?;
/// assert!((g.g(4.0) - 4.0).abs() < 1e-9);
/// assert!((g.g(100.0) - 8.0).abs() < 1e-9);
/// assert!((g.g_inverse(6.0) - 6.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyCurve {
    curve: PiecewiseLinear,
    max_ways: usize,
    saturation: f64,
    flat_inv: FlatInverse,
}

/// Dense, contiguous tables for inverting `G`: strictly increasing
/// occupancy knots `ys`, the access counts `xs` reaching them, and the
/// precomputed per-segment slopes `d G⁻¹ / d S`. The curve-inversion
/// equilibrium solver walks them segment by segment, so `G⁻¹` on a
/// segment is one multiply-add with no division.
#[derive(Debug, Clone)]
struct FlatInverse {
    ys: Vec<f64>,
    xs: Vec<f64>,
    slopes: Vec<f64>,
}

impl FlatInverse {
    /// Builds the inverse tables from the (weakly monotone) forward knots.
    /// Flat runs collapse to their leftmost knot, matching
    /// `inverse_monotone`'s "smallest x with eval(x) >= y" convention.
    fn build(xs: &[f64], ys: &[f64]) -> Self {
        let mut inv_xs = Vec::with_capacity(xs.len());
        let mut inv_ys = Vec::with_capacity(ys.len());
        for (&x, &y) in xs.iter().zip(ys) {
            if inv_ys.last().is_none_or(|&last| y > last) {
                inv_xs.push(x);
                inv_ys.push(y);
            }
        }
        let mut slopes = Vec::with_capacity(inv_ys.len().saturating_sub(1));
        for i in 1..inv_ys.len() {
            slopes.push((inv_xs[i] - inv_xs[i - 1]) / (inv_ys[i] - inv_ys[i - 1]));
        }
        FlatInverse { ys: inv_ys, xs: inv_xs, slopes }
    }
}

impl OccupancyCurve {
    /// Tabulates `G(n)` for `hist` on a `max_ways`-associative cache.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if `max_ways == 0`.
    pub fn from_histogram(
        hist: &ReuseHistogram,
        max_ways: usize,
        opts: OccupancyOptions,
    ) -> Result<Self, ModelError> {
        if max_ways == 0 {
            return Err(ModelError::InvalidDistribution("cache needs at least one way".into()));
        }
        let a = max_ways;
        // Miss probability at integer sizes 0..=a (size 0 always misses).
        let mpa: Vec<f64> = (0..=a).map(|s| hist.mpa_int(s)).collect();

        // p[i] = probability of occupying i ways; start before any access.
        let mut p = vec![0.0; a + 1];
        p[0] = 1.0;
        let mut xs = vec![0.0];
        let mut ys = vec![0.0];
        let mut g = 0.0;
        let mut next_record = 1.0_f64;

        for n in 1..=opts.n_max {
            // One access: size i grows to i+1 with probability MPA(i).
            // Iterate downward so each p[i] is updated from the old p[i-1].
            for i in (1..=a).rev() {
                let gain = p[i - 1] * mpa[i - 1];
                let loss = if i < a { p[i] * mpa[i] } else { 0.0 };
                p[i] += gain - loss;
            }
            p[0] *= 1.0 - mpa[0]; // mpa[0] = 1, so p[0] -> 0 after access 1
            let new_g: f64 = p.iter().enumerate().map(|(i, &pi)| i as f64 * pi).sum();
            let growth = new_g - g;
            g = new_g;

            if n as f64 >= next_record || growth < opts.growth_eps || n == opts.n_max {
                xs.push(n as f64);
                ys.push(g);
                next_record = (next_record * 1.05).max(next_record + 1.0);
            }
            if growth < opts.growth_eps {
                break;
            }
        }
        // Enforce exact monotonicity against floating-point wiggle.
        for i in 1..ys.len() {
            if ys[i] < ys[i - 1] {
                ys[i] = ys[i - 1];
            }
        }
        let saturation = ys.last().copied().unwrap_or(0.0);
        let flat_inv = FlatInverse::build(&xs, &ys);
        Ok(OccupancyCurve { curve: PiecewiseLinear::new(xs, ys)?, max_ways, saturation, flat_inv })
    }

    /// Expected occupancy after `n` per-set accesses (clamped to the
    /// tabulated range).
    pub fn g(&self, n: f64) -> f64 {
        self.curve.eval(n)
    }

    /// [`OccupancyCurve::g`] with a segment search that starts from
    /// `cursor` (see [`PiecewiseLinear::eval_with_cursor`]): the same
    /// bits for any cursor, O(1) when successive arguments stay close.
    pub(crate) fn g_with_cursor(&self, n: f64, cursor: &mut usize) -> f64 {
        self.curve.eval_with_cursor(n, cursor)
    }

    /// Smallest per-set access count with expected occupancy `s`; returns
    /// the tabulation limit if `s` is at or beyond the saturation level.
    pub fn g_inverse(&self, s: f64) -> f64 {
        // G is non-decreasing by construction (the tabulation loop
        // clamps), so inversion cannot fail; degrade to the tabulation
        // limit rather than panicking if that ever changes.
        self.curve.inverse_monotone(s).unwrap_or_else(|_| self.curve.domain().1)
    }

    /// The inverse knots `(ys, xs, slopes)`: strictly increasing
    /// occupancies, the access counts reaching them, and the slope
    /// `d G⁻¹ / d S` of each segment between them. Flat runs of `G`
    /// collapse to their leftmost knot, as in [`OccupancyCurve::g_inverse`].
    pub(crate) fn inverse_knots(&self) -> (&[f64], &[f64], &[f64]) {
        let t = &self.flat_inv;
        (&t.ys, &t.xs, &t.slopes)
    }

    /// The associativity this curve was built for.
    pub fn max_ways(&self) -> usize {
        self.max_ways
    }

    /// The occupancy `G` converges to (equals `max_ways` whenever the
    /// histogram has any infinite-distance mass).
    pub fn saturation(&self) -> f64 {
        self.saturation
    }

    /// Largest `n` in the tabulation (inverse queries saturate here).
    pub fn n_max(&self) -> f64 {
        self.curve.domain().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(probs: Vec<f64>, p_inf: f64) -> ReuseHistogram {
        ReuseHistogram::new(probs, p_inf).unwrap()
    }

    #[test]
    fn streaming_grows_one_way_per_access() {
        let g = OccupancyCurve::from_histogram(&hist(vec![], 1.0), 4, Default::default()).unwrap();
        assert!((g.g(1.0) - 1.0).abs() < 1e-12);
        assert!((g.g(3.0) - 3.0).abs() < 1e-12);
        assert!((g.g(50.0) - 4.0).abs() < 1e-9);
        assert_eq!(g.saturation(), 4.0);
    }

    #[test]
    fn first_access_always_occupies_one_line() {
        // Paper: P_{1,1} = 1 regardless of the histogram.
        for h in [hist(vec![0.9], 0.1), hist(vec![0.2, 0.3], 0.5)] {
            let g = OccupancyCurve::from_histogram(&h, 8, Default::default()).unwrap();
            assert!((g.g(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_friendly_grows_slowly() {
        let friendly = hist(vec![0.9], 0.1);
        let hungry = hist(vec![0.1], 0.9);
        let gf = OccupancyCurve::from_histogram(&friendly, 8, Default::default()).unwrap();
        let gh = OccupancyCurve::from_histogram(&hungry, 8, Default::default()).unwrap();
        for n in [4.0, 8.0, 16.0, 32.0] {
            assert!(gf.g(n) < gh.g(n), "n={n}: {} vs {}", gf.g(n), gh.g(n));
        }
    }

    #[test]
    fn zero_tail_histogram_saturates_below_assoc() {
        // All reuse within 2 ways and no new lines after warmup: the
        // process can never hold more than 2 ways.
        let h = hist(vec![0.7, 0.3], 0.0);
        let g = OccupancyCurve::from_histogram(&h, 8, Default::default()).unwrap();
        assert!(g.saturation() <= 2.0 + 1e-6, "{}", g.saturation());
        assert!(g.saturation() > 1.9, "{}", g.saturation());
    }

    #[test]
    fn g_is_monotone() {
        let h = hist(vec![0.5, 0.2, 0.1], 0.2);
        let g = OccupancyCurve::from_histogram(&h, 16, Default::default()).unwrap();
        let mut prev = -1.0;
        for i in 0..200 {
            let v = g.g(i as f64 * 7.3);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn inverse_roundtrips() {
        let h = hist(vec![0.5, 0.2, 0.1], 0.2);
        let g = OccupancyCurve::from_histogram(&h, 16, Default::default()).unwrap();
        for s in [0.5, 1.0, 3.0, 7.5, 12.0] {
            let n = g.g_inverse(s);
            assert!((g.g(n) - s).abs() < 1e-6, "s={s}: g({n}) = {}", g.g(n));
        }
    }

    #[test]
    fn inverse_saturates_at_n_max() {
        let h = hist(vec![0.7, 0.3], 0.0); // saturation ~2 ways
        let g = OccupancyCurve::from_histogram(&h, 8, Default::default()).unwrap();
        assert_eq!(g.g_inverse(7.0), g.n_max());
    }

    /// `G⁻¹` read off the inverse knots, as the curve inversion does.
    fn knot_inverse(g: &OccupancyCurve, s: f64) -> f64 {
        let (ys, xs, slopes) = g.inverse_knots();
        let k = ys.partition_point(|&v| v < s).clamp(1, ys.len() - 1);
        xs[k - 1] + (s - ys[k - 1]) * slopes[k - 1]
    }

    #[test]
    fn inverse_knots_agree_with_inverse_monotone() {
        let h = hist(vec![0.5, 0.2, 0.1], 0.2);
        let g = OccupancyCurve::from_histogram(&h, 16, Default::default()).unwrap();
        let (ys, xs, slopes) = g.inverse_knots();
        assert_eq!(xs.len(), ys.len());
        assert_eq!(slopes.len() + 1, ys.len());
        assert!(ys.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        for i in 0..=60 {
            let s = (i as f64 * 0.25).min(*ys.last().unwrap());
            let fast = knot_inverse(&g, s);
            let slow = g.g_inverse(s);
            // Same segment, same endpoints: agreement to interpolation
            // round-off (the two use different but equivalent arithmetic).
            let tol = 1e-9 * slow.abs().max(1.0);
            assert!((fast - slow).abs() <= tol, "s={s}: {fast} vs {slow}");
        }
    }

    #[test]
    fn inverse_knot_slopes_match_finite_difference() {
        let h = hist(vec![0.5, 0.2, 0.1], 0.2);
        let g = OccupancyCurve::from_histogram(&h, 16, Default::default()).unwrap();
        let (ys, _, slopes) = g.inverse_knots();
        for s in [0.7, 2.3, 5.1, 9.9] {
            let slope = slopes[ys.partition_point(|&v| v < s) - 1];
            let eps = 1e-7;
            let fd = (g.g_inverse(s + eps) - g.g_inverse(s - eps)) / (2.0 * eps);
            assert!(
                (slope - fd).abs() <= 1e-3 * fd.abs().max(1.0),
                "s={s}: slope {slope} vs fd {fd}"
            );
        }
    }

    #[test]
    fn probability_mass_is_conserved() {
        // Expected size can never exceed the associativity.
        let h = hist(vec![0.3, 0.3], 0.4);
        let g = OccupancyCurve::from_histogram(&h, 4, Default::default()).unwrap();
        assert!(g.g(1e9) <= 4.0 + 1e-9);
    }

    #[test]
    fn zero_ways_rejected() {
        let h = hist(vec![], 1.0);
        assert!(OccupancyCurve::from_histogram(&h, 0, Default::default()).is_err());
    }

    #[test]
    fn analytic_two_way_check() {
        // Size-1 -> size-2 transition with constant miss prob m at size 1:
        // E[G(n)] = 2 - (1-m)^(n-1) - ... derive simply: after first access
        // size is 1; each later access grows w.p. m until size 2.
        // P(still size 1 after n accesses) = (1-m)^(n-1).
        let m = 0.3;
        let h = hist(vec![1.0 - m], m);
        let g = OccupancyCurve::from_histogram(&h, 2, Default::default()).unwrap();
        for n in [2u32, 4, 8] {
            let expect = 2.0 - (1.0 - m).powi(n as i32 - 1);
            assert!((g.g(n as f64) - expect).abs() < 1e-9, "n={n}");
        }
    }
}
