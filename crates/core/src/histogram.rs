//! Reuse-distance histograms and MPA curves (paper §3.1, Eq. 2).
//!
//! # Distance convention
//!
//! The histogram is indexed by **stack position** `p >= 1`: an access at
//! position `p` touches the process's `p`-th most-recently-used line in a
//! set. Under LRU, a process whose effective cache size is `S` ways hits
//! exactly when `p <= S`, so Eq. 2 becomes
//!
//! ```text
//! MPA(S) = sum_{p > S} hist(p) + p_inf
//! ```
//!
//! where `p_inf` is the probability mass of accesses to lines that can
//! never hit (new lines, streaming accesses, reuse deeper than the
//! histogram's support).

use crate::ModelError;
use mathkit::interp::PiecewiseLinear;

/// The total mass of `probs` plus `p_inf`, after checking that every
/// mass is finite and non-negative and that the total is within 1e-6 of 1.
fn checked_mass(probs: &[f64], p_inf: f64) -> Result<f64, ModelError> {
    if probs.iter().chain(std::iter::once(&p_inf)).any(|&p| !p.is_finite() || p < 0.0) {
        return Err(ModelError::InvalidDistribution(
            "probabilities must be finite and non-negative".into(),
        ));
    }
    let total: f64 = probs.iter().sum::<f64>() + p_inf;
    if (total - 1.0).abs() > 1e-6 {
        return Err(ModelError::InvalidDistribution(format!(
            "histogram mass is {total}, expected 1"
        )));
    }
    Ok(total)
}

/// A normalized reuse-distance histogram.
///
/// # Examples
///
/// ```
/// use mpmc_model::histogram::ReuseHistogram;
///
/// # fn main() -> Result<(), mpmc_model::ModelError> {
/// // 60% of accesses re-touch the MRU line, 30% position 2, 10% new.
/// let h = ReuseHistogram::new(vec![0.6, 0.3], 0.1)?;
/// assert!((h.mpa(1.0) - 0.4).abs() < 1e-12); // misses: position 2 + new
/// assert!((h.mpa(2.0) - 0.1).abs() < 1e-12); // only new lines miss
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseHistogram {
    probs: Vec<f64>,
    p_inf: f64,
    /// Precomputed tail masses: `tail[s] = sum_{p > s} probs + p_inf`, so
    /// `tail[s] == mpa_int(s)` for `s <= probs.len()`. The equilibrium
    /// solvers call `mpa` in their innermost loop; caching the suffix sums
    /// makes each lookup O(1) instead of O(depth).
    tail: Vec<f64>,
}

impl ReuseHistogram {
    /// Finishes construction from normalized parts, building the suffix-sum
    /// table. Crate-visible so fault-injection tests and cross-checks can
    /// build deliberately unnormalized histograms.
    pub(crate) fn from_parts(probs: Vec<f64>, p_inf: f64) -> Self {
        let mut tail = vec![0.0; probs.len() + 1];
        tail[probs.len()] = p_inf;
        for s in (0..probs.len()).rev() {
            tail[s] = probs[s] + tail[s + 1];
        }
        ReuseHistogram { probs, p_inf, tail }
    }

    /// Creates a histogram from per-position probabilities (`probs[i]` is
    /// the mass at position `i + 1`) and the infinite-distance mass.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if any probability is
    /// negative/non-finite or the total differs from 1 by more than 1e-6
    /// (small measurement slack is renormalized away).
    pub fn new(probs: Vec<f64>, p_inf: f64) -> Result<Self, ModelError> {
        let total = checked_mass(&probs, p_inf)?;
        // Renormalize the tiny numerical slack.
        let probs = probs.iter().map(|p| p / total).collect();
        Ok(ReuseHistogram::from_parts(probs, p_inf / total))
    }

    /// Rebuilds a histogram from stored masses: validated exactly as
    /// [`ReuseHistogram::new`] validates, but kept as written rather than
    /// renormalized, so a histogram that was written out reads back with
    /// the same bits (and its feature vector with the same fingerprint).
    ///
    /// # Errors
    ///
    /// As for [`ReuseHistogram::new`].
    pub(crate) fn from_stored(probs: Vec<f64>, p_inf: f64) -> Result<Self, ModelError> {
        checked_mass(&probs, p_inf)?;
        Ok(ReuseHistogram::from_parts(probs, p_inf))
    }

    /// Builds a histogram from a measured MPA curve (Eq. 8):
    /// `mpa_at[s]` is the misses-per-access observed at an effective cache
    /// size of `s` ways, for `s = 0..=A`. Position masses are the
    /// differences `hist(s) = MPA(s-1) - MPA(s)`, and the residual
    /// `MPA(A)` becomes the infinite-distance mass.
    ///
    /// Non-monotonicity from measurement noise is clipped to zero mass.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if fewer than two points
    /// are provided or values leave `[0, 1 + eps]`.
    pub fn from_mpa_curve(mpa_at: &[f64]) -> Result<Self, ModelError> {
        if mpa_at.len() < 2 {
            return Err(ModelError::InvalidDistribution(
                "an MPA curve needs at least sizes 0 and 1".into(),
            ));
        }
        if mpa_at.iter().any(|&m| !m.is_finite() || !(0.0..=1.0 + 1e-9).contains(&m)) {
            return Err(ModelError::InvalidDistribution("MPA values must lie in [0, 1]".into()));
        }
        let mut probs = Vec::with_capacity(mpa_at.len() - 1);
        for w in mpa_at.windows(2) {
            probs.push((w[0] - w[1]).max(0.0));
        }
        let p_inf = match mpa_at.last() {
            Some(&m) => m,
            None => return Err(ModelError::EmptyInput("MPA curve")),
        };
        // The curve may not start exactly at MPA(0) = 1 (noise, or the
        // caller measured from s=1); renormalize to total mass 1.
        let total: f64 = probs.iter().sum::<f64>() + p_inf;
        if total <= 0.0 {
            return Err(ModelError::InvalidDistribution("MPA curve is identically zero".into()));
        }
        Ok(ReuseHistogram::from_parts(probs.iter().map(|p| p / total).collect(), p_inf / total))
    }

    /// Scales the infinite-distance (tail) mass by `factor` in place and
    /// renormalizes the whole distribution back to total mass 1. Used by
    /// the metamorphic validation layer: for `factor >= 1` the predicted
    /// MPA at every size can only go up (more of the access stream can
    /// never hit), and conversely for `factor < 1`.
    ///
    /// The cached suffix sums are rebuilt, so `mpa()`/`mpa_int()` reflect
    /// the mutated distribution immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if `factor` is negative
    /// or non-finite, or if scaling leaves no mass at all (a pure-tail
    /// histogram scaled by 0).
    pub fn scale_tail(&mut self, factor: f64) -> Result<(), ModelError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(ModelError::InvalidDistribution(format!(
                "tail scale factor must be finite and non-negative, got {factor}"
            )));
        }
        let finite_mass: f64 = self.probs.iter().sum();
        let total = finite_mass + self.p_inf * factor;
        if total <= 0.0 {
            return Err(ModelError::InvalidDistribution(
                "scaling removed all histogram mass".into(),
            ));
        }
        let probs: Vec<f64> = self.probs.iter().map(|p| p / total).collect();
        *self = ReuseHistogram::from_parts(probs, self.p_inf * factor / total);
        Ok(())
    }

    /// A copy with the tail mass scaled by `factor` (see
    /// [`ReuseHistogram::scale_tail`]).
    ///
    /// # Errors
    ///
    /// As for [`ReuseHistogram::scale_tail`].
    pub fn with_scaled_tail(&self, factor: f64) -> Result<Self, ModelError> {
        let mut h = self.clone();
        h.scale_tail(factor)?;
        Ok(h)
    }

    /// Per-position probabilities (`probs()[i]` is position `i + 1`).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Infinite-distance mass.
    pub fn p_inf(&self) -> f64 {
        self.p_inf
    }

    /// Miss probability at a (possibly fractional) effective cache size of
    /// `s` ways: Eq. 2 with linear interpolation between integer sizes.
    /// Fractional sizes arise because the equilibrium solver works in a
    /// continuous relaxation of the way count.
    pub fn mpa(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return 1.0;
        }
        let floor = s.floor() as usize;
        let frac = s - floor as f64;
        let m0 = self.mpa_int(floor);
        if mathkit::float::exactly_zero(frac) {
            return m0;
        }
        let m1 = self.mpa_int(floor + 1);
        m0 + (m1 - m0) * frac
    }

    /// Miss probability at an integer size (tail mass beyond position `s`).
    pub fn mpa_int(&self, s: usize) -> f64 {
        self.tail[s.min(self.probs.len())]
    }

    /// The MPA curve tabulated at integer sizes `0..=max_ways`, as a
    /// monotone piecewise-linear function usable by the solvers.
    ///
    /// # Errors
    ///
    /// Propagates interpolant construction errors (cannot occur for
    /// `max_ways >= 1`).
    pub fn mpa_curve(&self, max_ways: usize) -> Result<PiecewiseLinear, ModelError> {
        let xs: Vec<f64> = (0..=max_ways).map(|s| s as f64).collect();
        let ys: Vec<f64> = (0..=max_ways).map(|s| self.mpa_int(s)).collect();
        Ok(PiecewiseLinear::new(xs, ys)?)
    }

    /// Deepest position with non-zero mass (0 if all mass is at infinity).
    pub fn depth(&self) -> usize {
        self.probs.iter().rposition(|&p| p > 0.0).map_or(0, |i| i + 1)
    }

    /// The largest effective cache size this process can benefit from: one
    /// way beyond its depth adds no hits. Processes with `p_inf > 0` still
    /// miss at this size.
    pub fn saturation_ways(&self) -> usize {
        self.depth()
    }

    /// Mean finite stack position (a locality summary; lower is more
    /// cache-friendly), or 0 if all mass is infinite.
    pub fn mean_position(&self) -> f64 {
        let finite: f64 = self.probs.iter().sum();
        if mathkit::float::exactly_zero(finite) {
            return 0.0;
        }
        self.probs.iter().enumerate().map(|(i, &p)| (i + 1) as f64 * p).sum::<f64>() / finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> ReuseHistogram {
        ReuseHistogram::new(vec![0.4, 0.3, 0.2], 0.1).unwrap()
    }

    #[test]
    fn mpa_integer_points() {
        let h = simple();
        assert!((h.mpa(0.0) - 1.0).abs() < 1e-12);
        assert!((h.mpa(1.0) - 0.6).abs() < 1e-12);
        assert!((h.mpa(2.0) - 0.3).abs() < 1e-12);
        assert!((h.mpa(3.0) - 0.1).abs() < 1e-12);
        assert!((h.mpa(10.0) - 0.1).abs() < 1e-12); // saturates at p_inf
    }

    #[test]
    fn mpa_interpolates() {
        let h = simple();
        assert!((h.mpa(1.5) - 0.45).abs() < 1e-12);
        assert!((h.mpa(0.5) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mpa_monotone_nonincreasing() {
        let h = simple();
        let mut prev = f64::INFINITY;
        for i in 0..40 {
            let m = h.mpa(i as f64 * 0.25);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn normalization_enforced() {
        assert!(ReuseHistogram::new(vec![0.5, 0.4], 0.5).is_err());
        assert!(ReuseHistogram::new(vec![-0.1, 1.0], 0.1).is_err());
        assert!(ReuseHistogram::new(vec![f64::NAN], 0.0).is_err());
        // Tiny slack is fine and renormalized.
        let h = ReuseHistogram::new(vec![0.6, 0.4 + 1e-9], 0.0).unwrap();
        let total: f64 = h.probs().iter().sum::<f64>() + h.p_inf();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_mpa_curve_roundtrip() {
        let h = simple();
        let curve: Vec<f64> = (0..=5).map(|s| h.mpa_int(s)).collect();
        let h2 = ReuseHistogram::from_mpa_curve(&curve).unwrap();
        assert!((h2.probs()[0] - 0.4).abs() < 1e-12);
        assert!((h2.probs()[1] - 0.3).abs() < 1e-12);
        assert!((h2.probs()[2] - 0.2).abs() < 1e-12);
        assert!((h2.p_inf() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_mpa_curve_clips_noise() {
        // Noisy curve with a non-monotone wiggle.
        let h = ReuseHistogram::from_mpa_curve(&[1.0, 0.5, 0.52, 0.2]).unwrap();
        assert_eq!(h.probs()[1], 0.0); // clipped
        assert!(h.probs()[0] > 0.0);
        let total: f64 = h.probs().iter().sum::<f64>() + h.p_inf();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_mpa_curve_validation() {
        assert!(ReuseHistogram::from_mpa_curve(&[1.0]).is_err());
        assert!(ReuseHistogram::from_mpa_curve(&[1.0, -0.1]).is_err());
        assert!(ReuseHistogram::from_mpa_curve(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn depth_and_saturation() {
        assert_eq!(simple().depth(), 3);
        assert_eq!(simple().saturation_ways(), 3);
        let h = ReuseHistogram::new(vec![0.0, 0.0], 1.0).unwrap();
        assert_eq!(h.depth(), 0);
    }

    #[test]
    fn mean_position() {
        let h = simple();
        // (1*0.4 + 2*0.3 + 3*0.2) / 0.9
        assert!((h.mean_position() - 1.6 / 0.9).abs() < 1e-12);
        let all_inf = ReuseHistogram::new(vec![], 1.0).unwrap();
        assert_eq!(all_inf.mean_position(), 0.0);
    }

    #[test]
    fn cached_tail_matches_naive_sum() {
        let h = ReuseHistogram::new(vec![0.25, 0.2, 0.15, 0.1, 0.05], 0.25).unwrap();
        for s in 0..=8 {
            let naive: f64 = h.probs().iter().skip(s).sum::<f64>() + h.p_inf();
            assert!((h.mpa_int(s) - naive).abs() < 1e-12, "s={s}");
        }
    }

    #[test]
    fn mutation_rebuilds_suffix_cache() {
        // Audit for the suffix-sum cache: query mpa() first (so the cache
        // is live), mutate, then check every size against a histogram
        // built fresh from the mutated parts. A stale cache would keep
        // answering with pre-mutation tail masses.
        let mut h = simple();
        let before = h.mpa(1.0);
        h.scale_tail(3.0).unwrap();
        let fresh = ReuseHistogram::new(h.probs().to_vec(), h.p_inf()).unwrap();
        for s in 0..=6 {
            assert_eq!(
                h.mpa_int(s).to_bits(),
                fresh.mpa_int(s).to_bits(),
                "stale suffix cache at s={s}"
            );
        }
        assert!(h.mpa(1.0) > before, "tripled tail must raise the miss rate");
        let total: f64 = h.probs().iter().sum::<f64>() + h.p_inf();
        assert!((total - 1.0).abs() < 1e-12, "mutation must renormalize");
    }

    #[test]
    fn tail_scaling_is_monotone_in_mpa() {
        let h = simple();
        for factor in [1.0, 1.5, 4.0] {
            let scaled = h.with_scaled_tail(factor).unwrap();
            for i in 0..=24 {
                let s = i as f64 * 0.25;
                assert!(
                    scaled.mpa(s) >= h.mpa(s) - 1e-12,
                    "factor {factor}, s={s}: {} < {}",
                    scaled.mpa(s),
                    h.mpa(s)
                );
            }
        }
        // Shrinking the tail can only lower the miss rate.
        let shrunk = h.with_scaled_tail(0.5).unwrap();
        assert!(shrunk.mpa(3.0) <= h.mpa(3.0) + 1e-12);
    }

    #[test]
    fn tail_scaling_rejects_bad_factors() {
        let mut h = simple();
        assert!(h.scale_tail(-1.0).is_err());
        assert!(h.scale_tail(f64::NAN).is_err());
        let mut pure_tail = ReuseHistogram::new(vec![], 1.0).unwrap();
        assert!(pure_tail.scale_tail(0.0).is_err(), "no mass left");
        // Factor 1 is the identity (up to renormalization round-off).
        let same = h.with_scaled_tail(1.0).unwrap();
        for s in 0..=4 {
            assert!((same.mpa_int(s) - h.mpa_int(s)).abs() < 1e-15);
        }
    }

    #[test]
    fn mpa_curve_is_invertible_monotone() {
        let c = simple().mpa_curve(8).unwrap();
        assert_eq!(c.domain(), (0.0, 8.0));
        // Decreasing curve: inverse_monotone must reject it (it requires
        // non-decreasing), confirming orientation.
        assert!(c.inverse_monotone(0.5).is_err());
        assert!((c.eval(1.0) - 0.6).abs() < 1e-12);
    }
}
