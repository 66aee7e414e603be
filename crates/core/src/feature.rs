//! The per-process *feature vector* of §3.4.
//!
//! Profiling a process yields four things: its reuse-distance histogram,
//! its L2 access rate per instruction (API), and the SPI–MPA coefficients
//! `(alpha, beta)`. Together they are everything the performance model
//! needs to predict the process's behaviour in any co-scheduled set —
//! which is the paper's headline complexity win: `O(k)` profiling runs
//! cover all `2^k - 1` subsets.

use crate::histogram::ReuseHistogram;
use crate::occupancy::{OccupancyCurve, OccupancyOptions};
use crate::spi::SpiModel;
use crate::ModelError;
use cmpsim::machine::MachineConfig;
use workloads::spec::WorkloadParams;

/// The profiled feature vector of one process, with the derived occupancy
/// curve cached for the solvers.
///
/// # Examples
///
/// ```
/// use mpmc_model::feature::FeatureVector;
/// use cmpsim::machine::MachineConfig;
/// use workloads::spec::SpecWorkload;
///
/// # fn main() -> Result<(), mpmc_model::ModelError> {
/// let machine = MachineConfig::four_core_server();
/// let fv = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &machine)?;
/// assert_eq!(fv.name(), "mcf");
/// assert!(fv.mpa(4.0) > fv.mpa(12.0)); // more cache, fewer misses
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FeatureVector {
    name: String,
    hist: ReuseHistogram,
    api: f64,
    spi: SpiModel,
    occupancy: OccupancyCurve,
    /// [`FeatureVector::content_fingerprint`], computed once in
    /// [`FeatureVector::new`]: every field it covers is immutable.
    fingerprint: u64,
}

impl FeatureVector {
    /// Assembles a feature vector for a cache of `assoc` ways.
    ///
    /// `api == 0` denotes an *idle* (L2-silent) process: it issues no L2
    /// accesses, occupies no cache, and is partitioned out by the
    /// equilibrium solvers before any iteration.
    ///
    /// # Errors
    ///
    /// - [`ModelError::UnusableProfile`] if `api` is not in `[0, 1]`.
    /// - Propagates occupancy-curve construction errors.
    pub fn new(
        name: impl Into<String>,
        hist: ReuseHistogram,
        api: f64,
        spi: SpiModel,
        assoc: usize,
    ) -> Result<Self, ModelError> {
        if !api.is_finite() || !(0.0..=1.0).contains(&api) {
            return Err(ModelError::UnusableProfile(format!("API must be in [0, 1], got {api}")));
        }
        let occupancy = OccupancyCurve::from_histogram(&hist, assoc, OccupancyOptions::default())?;
        let fingerprint = fnv_fingerprint(&hist, api, &spi, occupancy.max_ways());
        Ok(FeatureVector { name: name.into(), hist, api, spi, occupancy, fingerprint })
    }

    /// Builds the *ground-truth* feature vector of a synthetic workload
    /// from its generator parameters and the machine's timing model,
    /// bypassing profiling. Used to validate the profiler and to study
    /// model error in isolation from measurement error.
    ///
    /// The SPI coefficients follow from the timing model: a block of `1`
    /// instruction costs `cpi_base` cycles plus, per L2 access, the hit
    /// latency or the memory latency, so
    /// `alpha = API * (mem - l2_hit) / f` and
    /// `beta = (cpi_base + API * l2_hit) / f`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors for degenerate parameters.
    pub fn from_workload(
        params: &WorkloadParams,
        machine: &MachineConfig,
    ) -> Result<Self, ModelError> {
        let pattern = &params.pattern;
        let f_run = pattern.streaming_fraction();
        let probs: Vec<f64> = pattern.dist.iter().map(|p| p * (1.0 - f_run)).collect();
        let p_inf = f_run + (1.0 - f_run) * pattern.p_new;
        let hist = ReuseHistogram::new(probs, p_inf)?;
        let api = params.mix.api;
        let alpha =
            api * (machine.mem_cycles as f64 - machine.l2_hit_cycles as f64) / machine.freq_hz;
        let beta = (machine.cpi_base + api * machine.l2_hit_cycles as f64) / machine.freq_hz;
        let spi = SpiModel::new(alpha, beta)?;
        FeatureVector::new(params.name, hist, api, spi, machine.l2_assoc())
    }

    /// The process's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reuse-distance histogram.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.hist
    }

    /// L2 accesses per instruction.
    pub fn api(&self) -> f64 {
        self.api
    }

    /// The fitted SPI model.
    pub fn spi_model(&self) -> &SpiModel {
        &self.spi
    }

    /// The derived occupancy curve `G(n)`.
    pub fn occupancy(&self) -> &OccupancyCurve {
        &self.occupancy
    }

    /// Miss probability at effective size `s` ways (Eq. 2).
    pub fn mpa(&self, s: f64) -> f64 {
        self.hist.mpa(s)
    }

    /// Predicted seconds per instruction at effective size `s` (Eq. 3).
    pub fn spi_at(&self, s: f64) -> f64 {
        self.spi.spi(self.mpa(s))
    }

    /// Predicted L2 accesses per second at effective size `s` (Eq. 6):
    /// `APS = API / SPI`.
    pub fn aps_at(&self, s: f64) -> f64 {
        self.api / self.spi_at(s)
    }

    /// The associativity the cached occupancy curve was built for.
    pub fn assoc(&self) -> usize {
        self.occupancy.max_ways()
    }

    /// Rebuilds the feature vector for a different associativity (e.g.
    /// when re-targeting a profile from the 16-way server to the 12-way
    /// duo machine).
    ///
    /// # Errors
    ///
    /// Propagates occupancy-curve construction errors.
    pub fn with_assoc(&self, assoc: usize) -> Result<Self, ModelError> {
        FeatureVector::new(self.name.clone(), self.hist.clone(), self.api, self.spi, assoc)
    }

    /// Content fingerprint: FNV-1a over the exact bit patterns of
    /// everything an equilibrium solve consumes (histogram mass, API, SPI
    /// coefficients, associativity — the occupancy curve is a pure
    /// function of histogram and associativity). Two feature vectors with
    /// equal fingerprints produce bit-identical solver behaviour, which is
    /// what the equilibrium memo cache and the solvers' canonical process
    /// ordering key on. The display name is deliberately excluded.
    ///
    /// Computed once at construction, so a lookup costs no histogram walk.
    pub fn content_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The FNV-1a fold behind [`FeatureVector::content_fingerprint`].
fn fnv_fingerprint(hist: &ReuseHistogram, api: f64, spi: &SpiModel, assoc: usize) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    fold(api.to_bits());
    fold(spi.alpha().to_bits());
    fold(spi.beta().to_bits());
    fold(assoc as u64);
    fold(hist.p_inf().to_bits());
    fold(hist.probs().len() as u64);
    for &p in hist.probs() {
        fold(p.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::SpecWorkload;

    fn server() -> MachineConfig {
        MachineConfig::four_core_server()
    }

    #[test]
    fn from_workload_all_specs() {
        for w in SpecWorkload::duo_suite() {
            let fv = FeatureVector::from_workload(&w.params(), &server()).unwrap();
            assert_eq!(fv.name(), w.name());
            assert_eq!(fv.assoc(), 16);
            assert!(fv.api() > 0.0);
        }
    }

    #[test]
    fn ground_truth_hist_matches_pattern_mpa() {
        let params = SpecWorkload::Mcf.params();
        let fv = FeatureVector::from_workload(&params, &server()).unwrap();
        for s in 0..=16 {
            let expect = params.pattern.true_mpa(s);
            let got = fv.mpa(s as f64);
            assert!((got - expect).abs() < 1e-9, "s={s}: {got} vs {expect}");
        }
    }

    #[test]
    fn streaming_fraction_included_for_equake() {
        let params = SpecWorkload::Equake.params();
        let fv = FeatureVector::from_workload(&params, &server()).unwrap();
        assert!(fv.histogram().p_inf() > params.pattern.p_new, "streaming mass must be in p_inf");
    }

    #[test]
    fn spi_coefficients_match_timing_model() {
        let m = server();
        let params = SpecWorkload::Gzip.params();
        let fv = FeatureVector::from_workload(&params, &m).unwrap();
        let api = params.mix.api;
        let alpha = api * (m.mem_cycles as f64 - m.l2_hit_cycles as f64) / m.freq_hz;
        let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
        assert!((fv.spi_model().alpha() - alpha).abs() < 1e-18);
        assert!((fv.spi_model().beta() - beta).abs() < 1e-18);
    }

    #[test]
    fn aps_increases_with_cache() {
        // More cache -> fewer misses -> faster -> more accesses per second.
        let fv = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &server()).unwrap();
        assert!(fv.aps_at(12.0) > fv.aps_at(2.0));
    }

    #[test]
    fn api_validation() {
        let hist = ReuseHistogram::new(vec![0.5], 0.5).unwrap();
        let spi = SpiModel::new(1e-8, 1e-8).unwrap();
        assert!(FeatureVector::new("x", hist.clone(), -0.1, spi, 8).is_err());
        assert!(FeatureVector::new("x", hist.clone(), 1.5, spi, 8).is_err());
        assert!(FeatureVector::new("x", hist.clone(), f64::NAN, spi, 8).is_err());
        // API 0 is the idle (L2-silent) process, explicitly allowed.
        assert!(FeatureVector::new("x", hist.clone(), 0.0, spi, 8).is_ok());
        assert!(FeatureVector::new("x", hist, 0.5, spi, 8).is_ok());
    }

    #[test]
    fn content_fingerprint_tracks_content_not_name() {
        let a = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &server()).unwrap();
        let b = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &server()).unwrap();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        let other = FeatureVector::from_workload(&SpecWorkload::Gzip.params(), &server()).unwrap();
        assert_ne!(a.content_fingerprint(), other.content_fingerprint());
        // Same content, different associativity: distinct.
        let narrower = a.with_assoc(12).unwrap();
        assert_ne!(a.content_fingerprint(), narrower.content_fingerprint());
    }

    /// Byte-wise FNV-1a over the fingerprinted fields, written out
    /// independently of the constructor's fold.
    fn fnv_from_scratch(fv: &FeatureVector) -> u64 {
        let mut words = vec![
            fv.api().to_bits(),
            fv.spi_model().alpha().to_bits(),
            fv.spi_model().beta().to_bits(),
            fv.assoc() as u64,
            fv.histogram().p_inf().to_bits(),
            fv.histogram().probs().len() as u64,
        ];
        words.extend(fv.histogram().probs().iter().map(|p| p.to_bits()));
        words.iter().flat_map(|w| w.to_le_bytes()).fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn stored_fingerprint_equals_a_from_scratch_recompute() {
        for w in SpecWorkload::table1_suite() {
            let fresh = FeatureVector::from_workload(&w.params(), &server()).unwrap();
            let clone = fresh.clone();
            let narrower = fresh.with_assoc(12).unwrap();
            let mut text = Vec::new();
            crate::persist::write_feature(&fresh, &mut text).unwrap();
            let reloaded = crate::persist::read_feature(text.as_slice()).unwrap();
            for fv in [&fresh, &clone, &narrower, &reloaded] {
                assert_eq!(fv.content_fingerprint(), fnv_from_scratch(fv), "{w:?} {}", fv.assoc());
            }
            // A written profile reads back as the same content.
            assert_eq!(reloaded.content_fingerprint(), fresh.content_fingerprint(), "{w:?}");
        }
    }

    #[test]
    fn with_assoc_rebuilds() {
        let fv = FeatureVector::from_workload(&SpecWorkload::Vpr.params(), &server()).unwrap();
        let duo = fv.with_assoc(12).unwrap();
        assert_eq!(duo.assoc(), 12);
        assert_eq!(duo.name(), fv.name());
        // Histogram unchanged.
        assert_eq!(duo.histogram(), fv.histogram());
    }
}
