//! Shared infrastructure for the experiment binaries: suite profiling,
//! random assignment generation, co-run measurement, power-model training,
//! and report formatting.

use cmpsim::engine::{simulate, Placement, SimOptions, SimResult};
use cmpsim::hpc::EventRates;
use cmpsim::machine::MachineConfig;
use cmpsim::process::ProcessSpec;
use mpmc_model::power::{build_training_set, CorePowerModel, PowerModel, TrainingOptions};
use mpmc_model::profile::{ProcessProfile, ProfileOptions, Profiler};
use mpmc_model::ModelError;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use workloads::spec::{SpecWorkload, WorkloadParams};

/// Speed/fidelity knobs shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScale {
    /// Duration of profiling runs (seconds, scaled clock).
    pub profile_duration_s: f64,
    /// Warmup of profiling runs.
    pub profile_warmup_s: f64,
    /// Duration of validation co-runs.
    pub run_duration_s: f64,
    /// Warmup of validation co-runs.
    pub run_warmup_s: f64,
    /// Duration of runs that time-share cores (must span many slices).
    pub share_duration_s: f64,
    /// Warmup of time-shared runs.
    pub share_warmup_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for profiling and validation-run fan-outs (`0` =
    /// auto). Seeds depend only on each run's identity, never on
    /// execution order, so results are identical for any worker count.
    pub workers: usize,
}

impl RunScale {
    /// Full fidelity: the scale used for the reported results.
    pub fn full() -> Self {
        RunScale {
            profile_duration_s: 1.0,
            profile_warmup_s: 0.35,
            run_duration_s: 3.0,
            run_warmup_s: 0.6,
            // Post-warmup window = 16 slices of 1 s: every process in a
            // run queue of 1, 2, or 4 gets the same whole number of
            // slices, so measured averages are not biased by a truncated
            // final rotation.
            share_duration_s: 17.0,
            share_warmup_s: 1.0,
            seed: 0xDAC2_0100,
            workers: 0,
        }
    }

    /// Reduced fidelity for smoke tests (`--fast`).
    pub fn fast() -> Self {
        RunScale {
            profile_duration_s: 0.4,
            profile_warmup_s: 0.15,
            run_duration_s: 1.2,
            run_warmup_s: 0.3,
            share_duration_s: 8.5,
            share_warmup_s: 0.5,
            seed: 0xDAC2_0100,
            workers: 0,
        }
    }

    /// Parses `--fast` and `--workers N` from the command line of an
    /// experiment binary. Any other `--` argument is a usage error (exit
    /// code 2, like the CLI), never silently ignored.
    pub fn from_args() -> Self {
        let mut scale = if std::env::args().any(|a| a == "--fast") {
            RunScale::fast()
        } else {
            RunScale::full()
        };
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--workers" {
                // Zero or garbage is a usage error, never a silent
                // fallback to auto (exit code 2, like the CLI).
                let raw = args.next().unwrap_or_default();
                match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => scale.workers = n,
                    _ => {
                        eprintln!(
                            "--workers must be a positive integer, got '{raw}' \
                             (omit the flag for auto)"
                        );
                        std::process::exit(2);
                    }
                }
            } else if a.starts_with("--") && a != "--fast" {
                eprintln!("unknown option '{a}' (expected --fast or --workers N)");
                std::process::exit(2);
            }
        }
        scale
    }

    /// Profiling options derived from this scale.
    pub fn profile_options(&self) -> ProfileOptions {
        ProfileOptions {
            duration_s: self.profile_duration_s,
            warmup_s: self.profile_warmup_s,
            seed: self.seed ^ 0x9_0F11E,
            workers: self.workers,
            ..Default::default()
        }
    }

    /// Simulation options for a validation run, salted by `salt` so every
    /// run draws independent noise.
    pub fn sim_options(&self, salt: u64) -> SimOptions {
        SimOptions {
            duration_s: self.run_duration_s,
            warmup_s: self.run_warmup_s,
            seed: self.seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..Default::default()
        }
    }

    /// Power-model training options derived from this scale.
    pub fn training_options(&self) -> TrainingOptions {
        TrainingOptions {
            duration_s: self.run_duration_s.max(0.6),
            warmup_s: self.run_warmup_s,
            seed: self.seed ^ 0x7EA1,
            microbench_level_instructions: if self.run_duration_s < 1.0 {
                120_000
            } else {
                400_000
            },
            microbench_duration_s: if self.run_duration_s < 1.0 { 1.2 } else { 3.0 },
            ..Default::default()
        }
    }
}

/// Profiles every workload in `suite` on `machine`, returning the full §5
/// process profiles in suite order.
///
/// # Errors
///
/// Propagates profiling errors.
pub fn profile_suite(
    machine: &MachineConfig,
    suite: &[SpecWorkload],
    scale: &RunScale,
) -> Result<Vec<ProcessProfile>, ModelError> {
    let profiler = Profiler::new(machine.clone()).with_options(scale.profile_options());
    let params: Vec<WorkloadParams> = suite.iter().map(|w| w.params()).collect();
    profiler.profile_full_batch(&params)
}

/// A multi-process placement description by suite index:
/// `per_core[c]` lists suite indices of the processes on core `c`.
pub type IndexPlacement = Vec<Vec<usize>>;

/// Builds an engine placement from suite indices, giving every process a
/// distinct address region.
///
/// # Errors
///
/// [`cmpsim::engine::SimError::InvalidPlacement`] (as a [`ModelError`])
/// if the index placement names a core the machine does not have.
pub fn build_placement(
    machine: &MachineConfig,
    suite: &[SpecWorkload],
    placement: &IndexPlacement,
) -> Result<Placement, ModelError> {
    let mut pl = Placement::idle(machine.num_cores());
    let mut region = 1u64;
    for (core, idxs) in placement.iter().enumerate() {
        for &i in idxs {
            let params: WorkloadParams = suite[i].params();
            pl.assign(
                core,
                ProcessSpec::new(params.name, Box::new(params.generator(machine.l2_sets, region))),
            )?;
            region += 1;
        }
    }
    Ok(pl)
}

/// Runs one validation assignment and returns the simulation result.
/// Placements that time-share any core automatically get the longer
/// `share_duration_s` so enough scheduler slices elapse.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_assignment(
    machine: &MachineConfig,
    suite: &[SpecWorkload],
    placement: &IndexPlacement,
    scale: &RunScale,
    salt: u64,
) -> Result<SimResult, ModelError> {
    let mut opts = scale.sim_options(salt);
    if placement.iter().any(|q| q.len() > 1) {
        opts.duration_s = scale.share_duration_s;
        opts.warmup_s = scale.share_warmup_s;
    }
    Ok(simulate(machine, build_placement(machine, suite, placement)?, opts)?)
}

/// Runs a batch of validation assignments across `scale.workers` threads,
/// returning the results in placement order. Assignment `i` uses salt
/// `salt_base + i`, exactly as the sequential loops this replaces, so the
/// outputs are bit-identical for any worker count.
///
/// # Errors
///
/// The error of the first (lowest-index) failing run.
pub fn run_assignments(
    machine: &MachineConfig,
    suite: &[SpecWorkload],
    placements: &[IndexPlacement],
    scale: &RunScale,
    salt_base: u64,
) -> Result<Vec<SimResult>, ModelError> {
    mathkit::parallel::try_par_map(
        (0..placements.len()).collect::<Vec<usize>>(),
        scale.workers,
        |_, i| run_assignment(machine, suite, &placements[i], scale, salt_base + i as u64),
    )
}

/// Trains the paper's MVLR power model on `machine` using the full §4.1
/// corpus (the 8-benchmark suite + microbenchmark).
///
/// # Errors
///
/// Propagates simulation and regression errors.
pub fn train_power_model(
    machine: &MachineConfig,
    scale: &RunScale,
) -> Result<PowerModel, ModelError> {
    let suite: Vec<WorkloadParams> =
        SpecWorkload::table1_suite().iter().map(|w| w.params()).collect();
    let obs = build_training_set(machine, &suite, &scale.training_options())?;
    PowerModel::fit_mvlr(&obs)
}

/// Per-sample power comparison of a finished run against a model applied
/// to the measured HPC rates (the §6.3 validation method). Returns
/// `(per-sample relative errors, avg-power relative error)`.
pub fn power_validation_errors<M: CorePowerModel>(model: &M, run: &SimResult) -> (Vec<f64>, f64) {
    let mut sample_errors = Vec::new();
    let mut est_sum = 0.0;
    let mut meas_sum = 0.0;
    for sample in run.settled_power() {
        let rates: Vec<EventRates> = run.core_samples.iter().map(|cs| cs[sample.period]).collect();
        let est = model.predict_processor(&rates);
        let meas = sample.measured_watts;
        sample_errors.push((est - meas).abs() / meas);
        est_sum += est;
        meas_sum += meas;
    }
    let n = sample_errors.len().max(1) as f64;
    let avg_err = ((est_sum / n) - (meas_sum / n)).abs() / (meas_sum / n).max(1e-9);
    (sample_errors, avg_err)
}

/// Deterministic RNG for assignment sampling.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Draws `count` random assignments, each placing one process (sampled
/// with replacement from `suite_len` workloads) on each core in `cores`.
pub fn random_one_per_core(
    count: usize,
    suite_len: usize,
    cores: &[usize],
    num_cores: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<IndexPlacement> {
    (0..count)
        .map(|_| {
            let mut pl = vec![Vec::new(); num_cores];
            for &c in cores {
                pl[c].push(rng.gen_range(0..suite_len));
            }
            pl
        })
        .collect()
}

/// Draws `count` random assignments with `per_core` processes on each of
/// the `cores`.
pub fn random_multi_per_core(
    count: usize,
    suite_len: usize,
    cores: &[usize],
    per_core: usize,
    num_cores: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<IndexPlacement> {
    (0..count)
        .map(|_| {
            let mut pl = vec![Vec::new(); num_cores];
            for &c in cores {
                for _ in 0..per_core {
                    pl[c].push(rng.gen_range(0..suite_len));
                }
            }
            pl
        })
        .collect()
}

/// Draws `count` assignments of `total_procs` processes spread over a
/// random choice of `used_cores` cores (the "unused cores" scenarios).
pub fn random_spread(
    count: usize,
    suite_len: usize,
    total_procs: usize,
    used_cores: usize,
    num_cores: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<IndexPlacement> {
    (0..count)
        .map(|_| {
            let mut cores: Vec<usize> = (0..num_cores).collect();
            cores.shuffle(rng);
            let cores = &cores[..used_cores];
            let mut pl = vec![Vec::new(); num_cores];
            for p in 0..total_procs {
                pl[cores[p % used_cores]].push(rng.gen_range(0..suite_len));
            }
            pl
        })
        .collect()
}

/// Formats a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Writes `report` to `results/<name>.txt` (best effort) and returns it.
pub fn save_report(name: &str, report: String) -> String {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), &report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(RunScale::fast().run_duration_s < RunScale::full().run_duration_s);
    }

    #[test]
    fn random_assignment_shapes() {
        let mut r = rng(1);
        let one = random_one_per_core(5, 8, &[0, 1], 4, &mut r);
        assert_eq!(one.len(), 5);
        for pl in &one {
            assert_eq!(pl.len(), 4);
            assert_eq!(pl[0].len(), 1);
            assert_eq!(pl[1].len(), 1);
            assert!(pl[2].is_empty() && pl[3].is_empty());
            assert!(pl[0][0] < 8);
        }
        let multi = random_multi_per_core(3, 8, &[0, 1, 2, 3], 2, 4, &mut r);
        for pl in &multi {
            assert!(pl.iter().all(|q| q.len() == 2));
        }
        let spread = random_spread(4, 8, 4, 2, 4, &mut r);
        for pl in &spread {
            let used = pl.iter().filter(|q| !q.is_empty()).count();
            assert_eq!(used, 2);
            assert_eq!(pl.iter().map(Vec::len).sum::<usize>(), 4);
        }
    }

    #[test]
    fn placement_builder_counts() {
        let m = MachineConfig::four_core_server();
        let suite = SpecWorkload::table1_suite();
        let pl = build_placement(&m, &suite, &vec![vec![0], vec![1, 2], vec![], vec![]]).unwrap();
        assert_eq!(pl.num_processes(), 3);
    }

    #[test]
    fn placement_builder_rejects_out_of_range_core() {
        let m = MachineConfig::four_core_server();
        let suite = SpecWorkload::table1_suite();
        let bad = vec![vec![], vec![], vec![], vec![], vec![0]];
        assert!(build_placement(&m, &suite, &bad).is_err());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.0338), "3.38");
    }
}
