//! Determinism parity: every parallel fan-out in the pipeline must be
//! bit-identical to its sequential equivalent, for any worker count.
//!
//! The parallel primitives write results into per-index slots and derive
//! all randomness from the task index, never from scheduling order, so
//! `workers ∈ {1, 2, 8}` (and the sequential baseline) must agree on
//! every output bit. These tests pin that contract for the three wired
//! fan-outs: stressmark co-runs inside one profile, batch profiling, and
//! candidate-assignment evaluation.

use mpmc::model::assignment::{Assignment, CombinedModel};
use mpmc::model::feature::FeatureVector;
use mpmc::model::histogram::ReuseHistogram;
use mpmc::model::power::{PowerModel, PowerObservation};
use mpmc::model::profile::{ProcessProfile, ProfileOptions, Profiler};
use mpmc::model::spi::SpiModel;
use mpmc::sim::machine::MachineConfig;
use mpmc::workloads::spec::{SpecWorkload, WorkloadParams};
use rand::Rng;
use rand::SeedableRng;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_machine() -> MachineConfig {
    MachineConfig { l2_sets: 64, l2_assoc: 8, ..MachineConfig::two_core_workstation() }
}

fn quick_opts(workers: usize) -> ProfileOptions {
    ProfileOptions { duration_s: 0.06, warmup_s: 0.02, seed: 42, workers, ..Default::default() }
}

fn suite() -> Vec<WorkloadParams> {
    [SpecWorkload::Mcf, SpecWorkload::Gzip, SpecWorkload::Art].iter().map(|w| w.params()).collect()
}

/// Exact (bitwise) equality of two feature vectors via their public
/// surface: histogram masses, API, and SPI coefficients determine every
/// derived quantity.
fn assert_features_identical(a: &FeatureVector, b: &FeatureVector, what: &str) {
    assert_eq!(a.name(), b.name(), "{what}: name");
    assert_eq!(a.assoc(), b.assoc(), "{what}: assoc");
    assert_eq!(a.api().to_bits(), b.api().to_bits(), "{what}: api");
    assert_eq!(a.spi_model().alpha().to_bits(), b.spi_model().alpha().to_bits(), "{what}: alpha");
    assert_eq!(a.spi_model().beta().to_bits(), b.spi_model().beta().to_bits(), "{what}: beta");
    assert_eq!(a.histogram().p_inf().to_bits(), b.histogram().p_inf().to_bits(), "{what}: p_inf");
    let (pa, pb) = (a.histogram().probs(), b.histogram().probs());
    assert_eq!(pa.len(), pb.len(), "{what}: histogram depth");
    for (i, (x, y)) in pa.iter().zip(pb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: histogram position {}", i + 1);
    }
}

fn assert_profiles_identical(a: &ProcessProfile, b: &ProcessProfile, what: &str) {
    assert_features_identical(&a.feature, &b.feature, what);
    for (x, y, field) in [
        (a.l1rpi, b.l1rpi, "l1rpi"),
        (a.l2rpi, b.l2rpi, "l2rpi"),
        (a.brpi, b.brpi, "brpi"),
        (a.fppi, b.fppi, "fppi"),
        (a.processor_alone_w, b.processor_alone_w, "processor_alone_w"),
        (a.idle_processor_w, b.idle_processor_w, "idle_processor_w"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field}");
    }
}

#[test]
fn single_profile_is_worker_count_invariant() {
    // The stressmark co-run loop inside one profile fans out over the
    // stress sizes; the derived feature vector must not depend on how
    // many workers ran it.
    let machine = tiny_machine();
    let params = SpecWorkload::Twolf.params();
    let baseline =
        Profiler::new(machine.clone()).with_options(quick_opts(1)).profile(&params).unwrap();
    for workers in [2, 8] {
        let fv = Profiler::new(machine.clone())
            .with_options(quick_opts(workers))
            .profile(&params)
            .unwrap();
        assert_features_identical(&baseline, &fv, &format!("profile workers={workers}"));
    }
}

#[test]
fn batch_profiling_matches_sequential_loop() {
    let machine = tiny_machine();
    let suite = suite();
    // Sequential ground truth: one profile() call per workload.
    let sequential: Vec<FeatureVector> = {
        let p = Profiler::new(machine.clone()).with_options(quick_opts(1));
        suite.iter().map(|w| p.profile(w).unwrap()).collect()
    };
    for workers in WORKER_COUNTS {
        let batch = Profiler::new(machine.clone())
            .with_options(quick_opts(workers))
            .profile_batch(&suite)
            .unwrap();
        assert_eq!(batch.len(), sequential.len());
        for (i, (s, b)) in sequential.iter().zip(&batch).enumerate() {
            assert_features_identical(s, b, &format!("batch[{i}] workers={workers}"));
        }
    }
}

#[test]
fn full_batch_profiling_matches_sequential_loop() {
    let machine = tiny_machine();
    let suite = suite();
    let sequential: Vec<ProcessProfile> = {
        let p = Profiler::new(machine.clone()).with_options(quick_opts(1));
        suite.iter().map(|w| p.profile_full(w).unwrap()).collect()
    };
    for workers in WORKER_COUNTS {
        let batch = Profiler::new(machine.clone())
            .with_options(quick_opts(workers))
            .profile_full_batch(&suite)
            .unwrap();
        for (i, (s, b)) in sequential.iter().zip(&batch).enumerate() {
            assert_profiles_identical(s, b, &format!("full_batch[{i}] workers={workers}"));
        }
    }
}

/// A hand-built profile so the assignment test needs no simulation runs.
fn synthetic_profile(name: &str, tail: f64, api: f64, machine: &MachineConfig) -> ProcessProfile {
    let head = 1.0 - tail;
    let hist =
        ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail).unwrap();
    let alpha = api * (machine.mem_cycles - machine.l2_hit_cycles) as f64 / machine.freq_hz;
    let beta = (machine.cpi_base + api * machine.l2_hit_cycles as f64) / machine.freq_hz;
    let feature = FeatureVector::new(
        name,
        hist,
        api,
        SpiModel::new(alpha, beta).unwrap(),
        machine.l2_assoc(),
    )
    .unwrap();
    ProcessProfile {
        feature,
        l1rpi: 0.35,
        l2rpi: api,
        brpi: 0.2,
        fppi: 0.1,
        processor_alone_w: 60.0,
        idle_processor_w: 44.0,
    }
}

/// A power model fitted on synthetic observations from the machine's
/// ground truth (cheap: no simulator involved).
fn synthetic_power_model(machine: &MachineConfig) -> PowerModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let n = machine.num_cores() as f64;
    let mut obs = Vec::new();
    for _ in 0..200 {
        let ips = rng.gen_range(1e6..2.4e7);
        let rates = mpmc::sim::hpc::EventRates {
            ips,
            l1rps: ips * rng.gen_range(0.2..0.5),
            l2rps: ips * rng.gen_range(0.001..0.05),
            l2mps: ips * rng.gen_range(0.0..0.02),
            brps: ips * rng.gen_range(0.05..0.3),
            fpps: ips * rng.gen_range(0.0..0.3),
        };
        let watts = machine.power.core_power(&rates) + machine.power.uncore_w / n;
        obs.push(PowerObservation { rates, core_watts: watts });
    }
    PowerModel::fit_mvlr(&obs).unwrap()
}

#[test]
fn candidate_estimation_matches_sequential_loop() {
    let machine = MachineConfig::four_core_server();
    let power = synthetic_power_model(&machine);
    let profiles: Vec<ProcessProfile> = [
        ("heavy", 0.30, 0.030),
        ("medium", 0.15, 0.015),
        ("light", 0.05, 0.004),
        ("stream", 0.45, 0.040),
    ]
    .iter()
    .map(|&(name, tail, api)| synthetic_profile(name, tail, api, &machine))
    .collect();

    let mut current = Assignment::new(machine.num_cores());
    current.assign(0, 0).assign(2, 1).assign(3, 3);
    let cores: Vec<usize> = (0..machine.num_cores()).collect();

    // Sequential ground truth on a fresh model (empty memo cache).
    let combined = CombinedModel::new(&machine, &power);
    let sequential: Vec<f64> = cores
        .iter()
        .map(|&c| combined.estimate_after_assigning(&profiles, &current, 2, c).unwrap())
        .collect();

    for workers in WORKER_COUNTS {
        // Fresh model per worker count so the memo cache cannot leak
        // state between configurations.
        let combined = CombinedModel::new(&machine, &power);
        let parallel =
            combined.estimate_candidates(&profiles, &current, 2, &cores, workers).unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "candidate core {i} diverged at workers={workers}: {s} vs {p}"
            );
        }
        assert!(combined.cached_equilibria() > 0, "memo cache should have been populated");
    }
}

#[test]
fn solve_batch_matches_sequential_for_all_worker_counts() {
    use mpmc::math::sync::CancelToken;
    use mpmc::model::equilibrium::CorunSet;
    use mpmc::model::equilibrium::SolverKind;
    use mpmc::model::perf::PerformanceModel;

    let machine = MachineConfig::four_core_server();
    let profiles: Vec<ProcessProfile> = [
        ("heavy", 0.30, 0.030),
        ("medium", 0.15, 0.015),
        ("light", 0.05, 0.004),
        ("stream", 0.45, 0.040),
        ("spiky", 0.22, 0.026),
    ]
    .iter()
    .map(|&(name, tail, api)| synthetic_profile(name, tail, api, &machine))
    .collect();
    let fv: Vec<&FeatureVector> = profiles.iter().map(|p| &p.feature).collect();

    // A mix of cardinalities, permuted member orders, and duplicates.
    let sets = vec![
        CorunSet { features: vec![fv[0], fv[1]] },
        CorunSet { features: vec![fv[2], fv[3], fv[4]] },
        CorunSet { features: vec![fv[1], fv[0]] }, // permuted pair
        CorunSet { features: vec![fv[0], fv[1]] }, // exact duplicate
        CorunSet { features: vec![fv[3], fv[2]] },
        CorunSet { features: vec![fv[0], fv[2], fv[3], fv[4]] },
    ];
    // The same sets fed in a scrambled order.
    let scramble = [5usize, 2, 0, 4, 1, 3];
    let scrambled: Vec<CorunSet<'_>> =
        scramble.iter().map(|&i| CorunSet { features: sets[i].features.clone() }).collect();

    for kind in [SolverKind::CurveInversion, SolverKind::Bisection, SolverKind::Robust] {
        let model = PerformanceModel::new(machine.l2_assoc()).with_solver(kind);
        let sequential: Vec<_> =
            sets.iter().map(|s| model.solve(&s.features).expect("sequential solve")).collect();
        // Cold versus after other solves: a solve carries no state into
        // the next one, so re-solving in reverse order after the whole
        // sequence gives the same bits.
        for (i, s) in sets.iter().enumerate().rev() {
            let again = model.solve(&s.features).expect("repeat solve");
            assert_eq!(again.window.to_bits(), sequential[i].window.to_bits(), "{kind:?} {i}");
            for (x, y) in again.sizes.iter().zip(&sequential[i].sizes) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} repeat set {i}");
            }
        }
        for workers in WORKER_COUNTS {
            let batch = model
                .solve_batch_cancellable(&sets, workers, &CancelToken::never())
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("batch solve");
            for (i, (s, b)) in sequential.iter().zip(&batch).enumerate() {
                assert_eq!(s.window.to_bits(), b.window.to_bits(), "{kind:?} set {i} w={workers}");
                for (x, y) in s.sizes.iter().zip(&b.sizes) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} set {i} workers={workers}");
                }
            }
            // Scrambled submission order: each set's answer depends only
            // on its own contents, never on batch position.
            let shuffled = model
                .solve_batch_cancellable(&scrambled, workers, &CancelToken::never())
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("scrambled batch solve");
            for (pos, &orig) in scramble.iter().enumerate() {
                let (s, b) = (&sequential[orig], &shuffled[pos]);
                assert_eq!(s.window.to_bits(), b.window.to_bits(), "{kind:?} scrambled {pos}");
                for (x, y) in s.sizes.iter().zip(&b.sizes) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} scrambled {pos} w={workers}");
                }
            }
        }
    }
}

#[test]
fn cold_sweep_is_bit_stable_across_workers_and_uncached() {
    // Every cache miss is solved cold, so a candidate sweep must give the
    // same bits for any worker count and the same bits as a model with
    // the cache (and its batch prestage) disabled.
    let machine = MachineConfig::four_core_server();
    let power = synthetic_power_model(&machine);
    let profiles: Vec<ProcessProfile> = [
        ("heavy", 0.30, 0.030),
        ("medium", 0.15, 0.015),
        ("light", 0.05, 0.004),
        ("stream", 0.45, 0.040),
    ]
    .iter()
    .map(|&(name, tail, api)| synthetic_profile(name, tail, api, &machine))
    .collect();
    let mut current = Assignment::new(machine.num_cores());
    current.assign(0, 0).assign(1, 1).assign(2, 3);
    let cores: Vec<usize> = (0..machine.num_cores()).collect();

    let sweep = |workers: usize| -> Vec<u64> {
        let cm = CombinedModel::new(&machine, &power);
        let mut bits = Vec::new();
        for round in 0..2 {
            let est = cm.estimate_candidates(&profiles, &current, 2, &cores, workers).unwrap();
            bits.extend(est.iter().map(|x| x.to_bits()));
            assert!(round == 0 || !bits.is_empty());
        }
        bits
    };

    let cold_ref = sweep(1);
    for workers in WORKER_COUNTS {
        assert_eq!(sweep(workers), cold_ref, "cold workers={workers}");
    }
    let uncached = CombinedModel::new(&machine, &power).with_equilibrium_cache_capacity(0);
    let plain: Vec<u64> = cores
        .iter()
        .map(|&c| uncached.estimate_after_assigning(&profiles, &current, 2, c).unwrap().to_bits())
        .collect();
    assert_eq!(&cold_ref[..cores.len()], &plain[..], "prestage must not change cold answers");
}

/// The placement optimizer's contract: same answer bits for any worker
/// count and any submission order of the process list, on all three
/// objectives — and the answer is the exhaustive optimum whenever the
/// exact engine runs. Pinned on a seeded 4-core/8-process instance
/// (the ISSUE acceptance instance).
#[test]
fn optimizer_is_worker_count_and_order_invariant_and_exact() {
    use mpmc::math::sync::CancelToken;
    use mpmc::model::optimize::{self, Objective, OptimizeOptions, SearchMethod};

    let machine = MachineConfig::four_core_server();
    let power = synthetic_power_model(&machine);
    let combined = CombinedModel::new(&machine, &power);
    let profiles: Vec<ProcessProfile> = [
        ("heavy", 0.30, 0.030),
        ("medium", 0.15, 0.015),
        ("light", 0.05, 0.004),
        ("stream", 0.45, 0.040),
        ("spiky", 0.22, 0.026),
        ("cool", 0.10, 0.008),
    ]
    .iter()
    .map(|&(name, tail, api)| synthetic_profile(name, tail, api, &machine))
    .collect();
    // Eight processes over six distinct profiles: duplicates exercise the
    // symmetry pruning without making every placement equivalent.
    let processes = [0usize, 1, 2, 3, 4, 5, 0, 3];
    let scrambled = [3usize, 0, 5, 4, 3, 2, 1, 0];
    let cancel = CancelToken::never();

    let objectives =
        [Objective::MinPower, Objective::MinMakespan, Objective::PowerCapped { cap_w: 1e6 }];
    for objective in objectives {
        let truth = optimize::brute_force(&combined, &profiles, &processes, objective, &cancel)
            .expect("brute force");
        let baseline = optimize::optimize(
            &combined,
            &profiles,
            &processes,
            objective,
            &OptimizeOptions { workers: 1, ..OptimizeOptions::default() },
            &cancel,
        )
        .expect("optimize");
        assert_eq!(baseline.method, SearchMethod::Exact, "{objective:?} should fit the limit");
        assert_eq!(
            baseline.power_w.to_bits(),
            truth.power_w.to_bits(),
            "{objective:?}: exact engine must reproduce the exhaustive optimum's power"
        );
        assert_eq!(
            baseline.makespan.to_bits(),
            truth.makespan.to_bits(),
            "{objective:?}: exact engine must reproduce the exhaustive optimum's makespan"
        );
        for workers in WORKER_COUNTS {
            for procs in [&processes[..], &scrambled[..]] {
                let got = optimize::optimize(
                    &combined,
                    &profiles,
                    procs,
                    objective,
                    &OptimizeOptions { workers, ..OptimizeOptions::default() },
                    &cancel,
                )
                .expect("optimize");
                // Scrambled submission holds the same multiset of
                // profiles only when indices repeat identically; here
                // both orders place the same eight profile draws.
                let same_multiset = {
                    let mut a = procs.to_vec();
                    let mut b = processes.to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    a == b
                };
                assert!(same_multiset, "test bug: orders must be permutations of each other");
                assert_eq!(
                    got.power_w.to_bits(),
                    baseline.power_w.to_bits(),
                    "{objective:?} power diverged at workers={workers}"
                );
                assert_eq!(
                    got.makespan.to_bits(),
                    baseline.makespan.to_bits(),
                    "{objective:?} makespan diverged at workers={workers}"
                );
                assert_eq!(
                    got.assignment.to_queues(),
                    baseline.assignment.to_queues(),
                    "{objective:?} placement diverged at workers={workers}"
                );
            }
        }
    }

    // The large-machine path keeps the same contract (bit-stability
    // across workers), even though it is not required to be exact.
    let local_base = optimize::optimize(
        &combined,
        &profiles,
        &processes,
        Objective::MinPower,
        &OptimizeOptions { workers: 1, exhaustive_leaf_limit: 0, ..OptimizeOptions::default() },
        &cancel,
    )
    .expect("local search");
    assert_eq!(local_base.method, SearchMethod::LocalSearch);
    for workers in WORKER_COUNTS {
        let got = optimize::optimize(
            &combined,
            &profiles,
            &processes,
            Objective::MinPower,
            &OptimizeOptions { workers, exhaustive_leaf_limit: 0, ..OptimizeOptions::default() },
            &cancel,
        )
        .expect("local search");
        assert_eq!(
            got.power_w.to_bits(),
            local_base.power_w.to_bits(),
            "local search diverged at workers={workers}"
        );
        assert_eq!(got.assignment.to_queues(), local_base.assignment.to_queues());
    }
}

// ---------------------------------------------------------------------
// Event-kernel golden digests and determinism battery.
// ---------------------------------------------------------------------

mod event_kernel {
    use super::WORKER_COUNTS;
    use mpmc::math::parallel::par_map;
    use mpmc::sim::engine::{simulate, Placement, SimOptions, SimResult};
    use mpmc::sim::machine::MachineConfig;
    use mpmc::sim::process::ProcessSpec;
    use mpmc::workloads::spec::SpecWorkload;

    /// Short slices so sub-second corpus runs still context-switch.
    fn sliced(base: MachineConfig) -> MachineConfig {
        MachineConfig { timeslice_s: 0.008, ..base }
    }

    fn spec(w: SpecWorkload, sets: usize, region: u64) -> ProcessSpec {
        let p = w.params();
        ProcessSpec::new(p.name, Box::new(p.generator(sets, region)))
    }

    /// The seeded parity corpus: machine + placement + options, covering
    /// solo cores, time-shared cores (2- and 3-deep), idle cores, both
    /// dies of the server, and non-default scheduler weights.
    fn corpus() -> Vec<(MachineConfig, Placement, SimOptions)> {
        use SpecWorkload::{Art, Equake, Gzip, Mcf, Twolf, Vpr};
        let opts = |seed: u64| SimOptions {
            duration_s: 0.08,
            warmup_s: 0.02,
            seed,
            ..SimOptions::default()
        };
        let mut corpus = Vec::new();

        // 1. Solo process, one idle core.
        let m = sliced(MachineConfig::two_core_workstation());
        let mut pl = Placement::idle(2);
        pl.assign(0, spec(Mcf, m.l2_sets, 1)).unwrap();
        corpus.push((m, pl, opts(101)));

        // 2. Time-shared pair vs solo neighbor.
        let m = sliced(MachineConfig::two_core_workstation());
        let mut pl = Placement::idle(2);
        pl.assign(0, spec(Mcf, m.l2_sets, 1)).unwrap();
        pl.assign(0, spec(Gzip, m.l2_sets, 2)).unwrap();
        pl.assign(1, spec(Art, m.l2_sets, 3)).unwrap();
        corpus.push((m, pl, opts(202)));

        // 3. Deep time-sharing: three processes on one core, two on the
        //    other.
        let m = sliced(MachineConfig::two_core_workstation());
        let mut pl = Placement::idle(2);
        pl.assign(0, spec(Twolf, m.l2_sets, 1)).unwrap();
        pl.assign(0, spec(Vpr, m.l2_sets, 2)).unwrap();
        pl.assign(0, spec(Equake, m.l2_sets, 3)).unwrap();
        pl.assign(1, spec(Mcf, m.l2_sets, 4)).unwrap();
        pl.assign(1, spec(Gzip, m.l2_sets, 5)).unwrap();
        corpus.push((m, pl, opts(303)));

        // 4. Four-core server, one process per core (both dies busy).
        let m = sliced(MachineConfig::four_core_server());
        let mut pl = Placement::idle(4);
        for (c, w) in [Mcf, Gzip, Art, Twolf].into_iter().enumerate() {
            pl.assign(c, spec(w, m.l2_sets, c as u64 + 1)).unwrap();
        }
        corpus.push((m, pl, opts(404)));

        // 5. Server with pairs on cores 0 and 2, cores 1 and 3 idle:
        //    one contended core per die plus idle cores.
        let m = sliced(MachineConfig::four_core_server());
        let mut pl = Placement::idle(4);
        pl.assign(0, spec(Mcf, m.l2_sets, 1)).unwrap();
        pl.assign(0, spec(Art, m.l2_sets, 2)).unwrap();
        pl.assign(2, spec(Equake, m.l2_sets, 3)).unwrap();
        pl.assign(2, spec(Vpr, m.l2_sets, 4)).unwrap();
        corpus.push((m, pl, opts(505)));

        // 6. Weighted time-sharing (non-default scheduler weights).
        let m = sliced(MachineConfig::two_core_workstation());
        let mut pl = Placement::idle(2);
        pl.assign(0, spec(Mcf, m.l2_sets, 1)).unwrap();
        pl.assign(0, spec(Gzip, m.l2_sets, 2)).unwrap();
        let o = SimOptions { weights: Some(vec![vec![3.0, 1.0], vec![]]), ..opts(606) };
        corpus.push((m, pl, o));

        // 7. Laptop preset, whole machine idle except one core.
        let m = sliced(MachineConfig::duo_laptop());
        let mut pl = Placement::idle(m.num_cores());
        pl.assign(1, spec(Twolf, m.l2_sets, 1)).unwrap();
        corpus.push((m, pl, opts(707)));

        corpus
    }

    fn run(entry: usize) -> SimResult {
        let (m, pl, opts) = corpus().remove(entry);
        simulate(&m, pl, opts).expect("corpus entry must simulate")
    }

    /// Every corpus entry keeps its committed digest — processes, HPC
    /// buckets, power samples, switch counts — when the corpus is fanned
    /// out through the parallel map at every worker count.
    #[test]
    fn corpus_digests_hold_at_every_worker_count() {
        let n = corpus().len();
        assert!(n >= 6, "corpus must stay at >= 6 seeded placements");
        let golden = golden_digests();
        for workers in WORKER_COUNTS {
            let runs: Vec<SimResult> = par_map((0..n).collect(), workers, |_, i| run(i));
            // Sanity: the corpus actually exercises scheduling.
            assert!(runs.iter().any(|r| r.context_switches > 0));
            assert!(runs.iter().all(|r| r.slice_expiries > 0));
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(
                    result_digest(r),
                    golden[i],
                    "corpus entry {i} diverged at workers={workers}"
                );
            }
        }
    }

    /// A churn placement (arrivals and departures) built by assigning
    /// cores in the given order; the per-core spec lists are identical
    /// regardless, so results must be too.
    fn churn_placement(m: &MachineConfig, core_order: &[usize]) -> Placement {
        let end = (0.08 * m.freq_hz) as u64;
        let mut pl = Placement::idle(2);
        for &c in core_order {
            if c == 0 {
                pl.assign(0, spec(SpecWorkload::Mcf, m.l2_sets, 1)).unwrap();
                pl.assign(0, spec(SpecWorkload::Gzip, m.l2_sets, 2).with_arrival(end / 3)).unwrap();
            } else {
                pl.assign(
                    1,
                    spec(SpecWorkload::Art, m.l2_sets, 3)
                        .with_arrival(end / 5)
                        .with_departure(3 * end / 4),
                )
                .unwrap();
                pl.assign(1, spec(SpecWorkload::Twolf, m.l2_sets, 4).with_departure(end / 2))
                    .unwrap();
            }
        }
        pl
    }

    /// Scrambled construction order and parallel fan-out leave a churn
    /// run bit-identical: event ordering is `(time, seq)`, never
    /// insertion order, and arrival specs are keyed by placement
    /// position.
    #[test]
    fn churn_runs_are_order_and_worker_count_invariant() {
        let m = sliced(MachineConfig::two_core_workstation());
        let opts =
            SimOptions { duration_s: 0.08, warmup_s: 0.02, seed: 909, ..SimOptions::default() };
        let baseline = simulate(&m, churn_placement(&m, &[0, 1]), opts.clone()).unwrap();
        // The windows took effect: the departing process is cheaper than
        // its full-run core mate would be, and switching happened.
        assert!(baseline.context_switches > 0);
        assert!(baseline.processes.iter().all(|p| p.counters.instructions > 0));
        let scrambled = simulate(&m, churn_placement(&m, &[1, 0]), opts.clone()).unwrap();
        assert_eq!(baseline, scrambled, "construction order leaked into the schedule");
        for workers in WORKER_COUNTS {
            let runs: Vec<SimResult> = par_map(vec![0u8; 4], workers, |_, _| {
                simulate(&m, churn_placement(&m, &[0, 1]), opts.clone()).unwrap()
            });
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r, &baseline, "churn run {i} diverged at workers={workers}");
            }
        }
    }

    /// A churn placement on the four-core server, built by assigning cores
    /// in the given order: arrivals and departures on both dies, and die
    /// 0 empty for good halfway through while die 1 runs to the end.
    fn server_churn_placement(m: &MachineConfig, core_order: &[usize]) -> Placement {
        use SpecWorkload::{Art, Equake, Gzip, Mcf, Twolf, Vpr};
        let end = (0.08 * m.freq_hz) as u64;
        let mut pl = Placement::idle(4);
        for &c in core_order {
            let specs = match c {
                0 => vec![
                    spec(Mcf, m.l2_sets, 1).with_departure(end / 2),
                    spec(Gzip, m.l2_sets, 2).with_arrival(end / 5).with_departure(end / 3),
                ],
                1 => vec![spec(Art, m.l2_sets, 3).with_arrival(end / 6).with_departure(end / 4)],
                2 => vec![spec(Twolf, m.l2_sets, 4), spec(Vpr, m.l2_sets, 5).with_arrival(end / 3)],
                _ => vec![spec(Equake, m.l2_sets, 6).with_departure(3 * end / 4)],
            };
            for s in specs {
                pl.assign(c, s).unwrap();
            }
        }
        pl
    }

    fn server_churn_opts() -> SimOptions {
        SimOptions { duration_s: 0.08, warmup_s: 0.02, seed: 808, ..SimOptions::default() }
    }

    /// The server churn case runs each die on its own worker: it must be
    /// invariant to construction order and to how many runs go in
    /// parallel beside it.
    #[test]
    fn server_churn_runs_are_order_and_worker_count_invariant() {
        let m = sliced(MachineConfig::four_core_server());
        let run = |order: &[usize]| {
            simulate(&m, server_churn_placement(&m, order), server_churn_opts()).unwrap()
        };
        let baseline = run(&[0, 1, 2, 3]);
        assert!(baseline.context_switches > 0);
        assert!(baseline.processes.iter().all(|p| p.counters.instructions > 0));
        assert_eq!(baseline, run(&[3, 1, 2, 0]), "construction order leaked into the schedule");
        for workers in WORKER_COUNTS {
            let runs: Vec<SimResult> = par_map(vec![0u8; 4], workers, |_, _| run(&[2, 0, 3, 1]));
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r, &baseline, "server churn run {i} diverged at workers={workers}");
            }
        }
    }

    /// FNV-1a over 64-bit words.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// A digest of every bit of a result: process ids, names, counters,
    /// active time and `avg_ways`; every per-core rate sample; every power
    /// sample; and the run-level counts.
    fn result_digest(r: &SimResult) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.word(r.processes.len() as u64);
        for p in &r.processes {
            h.word(u64::from(p.pid.0));
            p.name.bytes().for_each(|b| h.word(u64::from(b)));
            h.word(p.core as u64);
            let c = &p.counters;
            for x in [
                c.instructions,
                c.l1_refs,
                c.l2_refs,
                c.l2_misses,
                c.branches,
                c.fp_ops,
                c.prefetches,
            ] {
                h.word(x);
            }
            h.word(p.active_seconds.to_bits());
            h.word(p.avg_ways.to_bits());
        }
        h.word(r.core_samples.len() as u64);
        for samples in &r.core_samples {
            h.word(samples.len() as u64);
            for s in samples {
                for x in [s.ips, s.l1rps, s.l2rps, s.l2mps, s.brps, s.fpps] {
                    h.word(x.to_bits());
                }
            }
        }
        h.word(r.power.len() as u64);
        for s in &r.power {
            h.word(s.period as u64);
            for x in [s.t_start, s.true_watts, s.measured_watts] {
                h.word(x.to_bits());
            }
        }
        for x in
            [r.warmup_periods as u64, r.context_switches, r.slice_expiries, r.prefetches_issued]
        {
            h.word(x);
        }
        h.word(r.sample_period_s.to_bits());
        h.0
    }

    /// The committed digests: one per corpus entry, then the server churn
    /// case.
    fn golden_digests() -> Vec<u64> {
        include_str!("golden/sim_parity_corpus.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_whitespace().next())
            .map(|hex| u64::from_str_radix(hex, 16).expect("golden digests are hex"))
            .collect()
    }

    /// The committed digests pin the simulator's bits. An intended change
    /// of the simulator's output replaces the file with the digests this
    /// test prints.
    #[test]
    fn golden_digests_pin_the_parity_corpus_and_server_churn() {
        let golden = golden_digests();
        let mut got: Vec<u64> = (0..corpus().len()).map(|i| result_digest(&run(i))).collect();
        let m = sliced(MachineConfig::four_core_server());
        let churn = simulate(&m, server_churn_placement(&m, &[0, 1, 2, 3]), server_churn_opts());
        got.push(result_digest(&churn.unwrap()));
        let printed: Vec<String> = got.iter().map(|d| format!("{d:016x}")).collect();
        assert_eq!(got, golden, "simulator bits changed; digests now:\n{}", printed.join("\n"));
    }
}

/// The serving layer must not cost a single bit of determinism: answers
/// produced under concurrency — through admission control, single-flight
/// coalescing, and the cancellable (deadline-carrying) solver entry
/// point — are bit-identical to a sequential `CombinedModel` solve of
/// the same placement. Degraded answers are excluded by construction:
/// the breaker never trips here, and the test asserts no response
/// carries the `degraded` tag.
#[test]
fn service_answers_match_sequential_solves_bit_for_bit() {
    use mpmc_service::json::{self, Json};
    use mpmc_service::{PredictionService, ServeOptions};
    use std::io::{BufRead, BufReader, Write};

    let machine = MachineConfig::two_core_workstation();
    let power = synthetic_power_model(&machine);
    let a = synthetic_profile("a", 0.4, 0.03, &machine);
    let b = synthetic_profile("b", 0.1, 0.01, &machine);

    // Sequential ground truth: both processes share the L2, so this is
    // a real contended equilibrium solve.
    let mut asg = Assignment::new(machine.num_cores());
    asg.assign(0, 0).assign(1, 1);
    let reference = CombinedModel::new(&machine, &power);
    let truth = reference
        .estimate_processor_power(&[a.clone(), b.clone()], &asg)
        .expect("sequential solve");

    // A service with room for everyone: nothing sheds, nothing
    // degrades; concurrency and single-flight are the only variables.
    let opts = ServeOptions {
        workers: 2,
        max_inflight: 16,
        max_queued: 16,
        singleflight_wait_ms: 30_000,
        ..ServeOptions::default()
    };
    let service = PredictionService::with_options(machine.clone(), power.clone(), opts);
    service.register_profile("a", a).expect("register a");
    service.register_profile("b", b).expect("register b");

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || service.run_tcp(listener));

        let clients = 8;
        let rounds = 3;
        let mut workers = Vec::new();
        for c in 0..clients {
            workers.push(scope.spawn(move || -> Vec<u64> {
                let stream = std::net::TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut bits = Vec::new();
                for r in 0..rounds {
                    // Odd clients route through the deadline-carrying
                    // (cancellable) solver entry point; the budget is
                    // far too generous to ever fire.
                    let req = if c % 2 == 1 {
                        format!(
                            r#"{{"id":{r},"op":"estimate","assignment":[["a"],["b"]],"deadline_ms":600000}}"#
                        )
                    } else {
                        format!(r#"{{"id":{r},"op":"estimate","assignment":[["a"],["b"]]}}"#)
                    };
                    writer.write_all(req.as_bytes()).expect("send");
                    writer.write_all(b"\n").expect("send");
                    writer.flush().expect("flush");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("recv");
                    let resp = json::parse(line.trim()).expect("well-formed response");
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
                    assert_eq!(resp.get("degraded"), None, "healthy answers are untagged");
                    bits.push(
                        resp.get("power_w").and_then(Json::as_f64).expect("power_w").to_bits(),
                    );
                }
                bits
            }));
        }
        for worker in workers {
            for (r, got) in worker.join().expect("client").into_iter().enumerate() {
                assert_eq!(
                    got,
                    truth.to_bits(),
                    "round {r}: service answer diverged from the sequential solve"
                );
            }
        }

        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(b"{\"op\":\"shutdown\"}\n").expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        server.join().expect("server thread").expect("run_tcp");
    });
}
