//! The user-facing performance model (paper §3).
//!
//! [`PerformanceModel`] wraps the equilibrium solver into the prediction
//! interface the paper describes: given the feature vectors of processes
//! assigned to cores sharing one last-level cache, predict each process's
//! effective cache size, MPA, and SPI *before running them together*.
//!
//! A model carries one [`SolverKind`] and routes every solve through the
//! equilibrium module's two front doors:
//! [`PerformanceModel::solve_cancellable`] for one set and
//! [`PerformanceModel::solve_batch_cancellable`] for many.

use crate::equilibrium::{self, Equilibrium, SolverKind};
use crate::feature::FeatureVector;
use crate::ModelError;
use mathkit::sync::CancelToken;

/// Prediction for one process in a co-scheduled set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessPrediction {
    /// Effective cache size in ways.
    pub ways: f64,
    /// Misses per L2 access.
    pub mpa: f64,
    /// Seconds per instruction.
    pub spi: f64,
    /// L2 accesses per second.
    pub aps: f64,
}

/// The performance model for one shared cache.
///
/// # Examples
///
/// ```
/// use mpmc_model::perf::PerformanceModel;
/// use mpmc_model::feature::FeatureVector;
/// use cmpsim::machine::MachineConfig;
/// use workloads::spec::SpecWorkload;
///
/// # fn main() -> Result<(), mpmc_model::ModelError> {
/// let m = MachineConfig::four_core_server();
/// let model = PerformanceModel::new(m.l2_assoc());
/// let mcf = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &m)?;
/// let art = FeatureVector::from_workload(&SpecWorkload::Art.params(), &m)?;
/// let pred = model.predict(&[mcf, art])?;
/// assert!(pred[0].spi > 0.0 && pred[1].mpa > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    assoc: usize,
    solver: SolverKind,
}

impl PerformanceModel {
    /// Creates a model for an `assoc`-way shared cache using the default
    /// solver.
    pub fn new(assoc: usize) -> Self {
        PerformanceModel { assoc, solver: SolverKind::default() }
    }

    /// Selects the equilibrium solver (builder style).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// The cache associativity this model targets.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Predicts the steady state of `features` sharing the cache. Accepts
    /// owned or borrowed feature vectors.
    ///
    /// # Errors
    ///
    /// Propagates equilibrium-solver errors (empty input, associativity
    /// mismatch, non-convergence).
    pub fn predict<F: AsRef<FeatureVector>>(
        &self,
        features: &[F],
    ) -> Result<Vec<ProcessPrediction>, ModelError> {
        let eq = self.solve(features)?;
        Ok((0..eq.sizes.len())
            .map(|i| ProcessPrediction {
                ways: eq.sizes[i],
                mpa: eq.mpas[i],
                spi: eq.spis[i],
                aps: eq.apss[i],
            })
            .collect())
    }

    /// Like [`PerformanceModel::predict`] but exposes the full
    /// [`Equilibrium`] (window, feasibility flag) for callers that need
    /// the intermediates.
    ///
    /// # Errors
    ///
    /// Propagates equilibrium-solver errors.
    pub fn solve<F: AsRef<FeatureVector>>(
        &self,
        features: &[F],
    ) -> Result<Equilibrium, ModelError> {
        self.solve_cancellable(features, &CancelToken::never())
    }

    /// [`PerformanceModel::solve`] with a cooperative cancellation token
    /// threaded into the selected solver's iteration loops. Bit-identical
    /// to [`PerformanceModel::solve`] under a never-firing token.
    ///
    /// # Errors
    ///
    /// Everything [`PerformanceModel::solve`] returns, plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` once
    /// the token fires.
    pub fn solve_cancellable<F: AsRef<FeatureVector>>(
        &self,
        features: &[F],
        cancel: &CancelToken,
    ) -> Result<Equilibrium, ModelError> {
        let refs: Vec<&FeatureVector> = features.iter().map(|f| f.as_ref()).collect();
        equilibrium::solve_cancellable(&refs, self.assoc, self.solver, cancel)
    }

    /// Solves many co-run sets in one pass with the configured solver,
    /// amortizing scratch allocations and fanning chunks out over
    /// `workers` threads (`0` = auto). Returns one `Result` per set, in
    /// set order, each bit-identical to a standalone
    /// [`PerformanceModel::solve`] of the same features — errors included —
    /// so callers that tolerate individual failures (the candidate
    /// prestage) keep going.
    pub fn solve_batch_cancellable(
        &self,
        sets: &[equilibrium::CorunSet<'_>],
        workers: usize,
        cancel: &CancelToken,
    ) -> Vec<Result<Equilibrium, ModelError>> {
        equilibrium::solve_batch_cancellable(sets, self.assoc, self.solver, workers, cancel)
    }
}

impl AsRef<FeatureVector> for FeatureVector {
    fn as_ref(&self) -> &FeatureVector {
        self
    }
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
    fn predict_matches_solve() {
        let model = PerformanceModel::new(16);
        let feats = vec![fv(SpecWorkload::Mcf), fv(SpecWorkload::Gzip)];
        let pred = model.predict(&feats).unwrap();
        let eq = model.solve(&feats).unwrap();
        assert_eq!(pred.len(), 2);
        assert_eq!(pred[0].ways, eq.sizes[0]);
        assert_eq!(pred[1].spi, eq.spis[1]);
    }

    #[test]
    fn solver_kinds_agree() {
        let feats = vec![fv(SpecWorkload::Art), fv(SpecWorkload::Twolf)];
        let default = PerformanceModel::new(16).predict(&feats).unwrap();
        for kind in [SolverKind::Bisection, SolverKind::Robust] {
            let p = PerformanceModel::new(16).with_solver(kind).predict(&feats).unwrap();
            for (x, y) in default.iter().zip(&p) {
                assert!((x.ways - y.ways).abs() < 1e-7, "{kind:?}");
                assert!((x.mpa - y.mpa).abs() < 1e-7, "{kind:?}");
            }
        }
    }

    #[test]
    fn accepts_references() {
        let a = fv(SpecWorkload::Vpr);
        let b = fv(SpecWorkload::Bzip2);
        let model = PerformanceModel::new(16);
        let pred = model.predict(&[&a, &b]).unwrap();
        assert_eq!(pred.len(), 2);
    }

    #[test]
    fn assoc_accessor() {
        assert_eq!(PerformanceModel::new(12).assoc(), 12);
    }

    #[test]
    fn batch_matches_sequential_for_every_solver() {
        use crate::equilibrium::CorunSet;
        let a = fv(SpecWorkload::Mcf);
        let b = fv(SpecWorkload::Gzip);
        let c = fv(SpecWorkload::Art);
        let d = fv(SpecWorkload::Twolf);
        // Built for 8 ways: every set containing it fails validation.
        let wrong = fv(SpecWorkload::Vpr).with_assoc(8).unwrap();
        let sets = vec![
            CorunSet { features: vec![&a, &b] },
            CorunSet { features: vec![&c, &d] },
            CorunSet { features: vec![&a, &b] }, // duplicate: solved once, cloned
            CorunSet { features: vec![&wrong, &c] },
            CorunSet { features: vec![&a, &c, &d] },
            CorunSet { features: vec![&wrong, &c] }, // duplicate of a failed set
        ];
        for kind in [SolverKind::CurveInversion, SolverKind::Bisection, SolverKind::Robust] {
            let model = PerformanceModel::new(16).with_solver(kind);
            let batch = model.solve_batch_cancellable(&sets, 2, &CancelToken::never());
            assert_eq!(batch.len(), sets.len(), "{kind:?}");
            for (i, (set, got)) in sets.iter().zip(&batch).enumerate() {
                // Only the two sets built to fail may take the `Err` arm.
                assert_eq!(got.is_err(), matches!(i, 3 | 5), "{kind:?} set {i}");
                let (solo, got) = match (model.solve(&set.features), got) {
                    (Ok(solo), Ok(got)) => (solo, got),
                    (Err(solo), Err(got)) => {
                        assert!(matches!(solo, ModelError::EquilibriumFailed(_)), "{kind:?}");
                        assert_eq!(format!("{solo:?}"), format!("{got:?}"), "{kind:?} set {i}");
                        continue;
                    }
                    (solo, got) => panic!("{kind:?} set {i}: solo {solo:?} vs batch {got:?}"),
                };
                assert_eq!(solo.sizes.len(), got.sizes.len(), "{kind:?}");
                for (x, y) in solo.sizes.iter().zip(&got.sizes) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind:?}");
                }
                assert_eq!(solo.window.to_bits(), got.window.to_bits(), "{kind:?}");
            }
        }
    }
}
