//! Cross-crate integration: the full §3 pipeline — profile on the
//! simulator, predict with the model, validate against a measured co-run.

use mpmc::model::equilibrium::SolverKind;
use mpmc::model::perf::PerformanceModel;
use mpmc::model::profile::{ProfileOptions, Profiler};
use mpmc::sim::engine::{simulate, Placement, SimOptions};
use mpmc::sim::machine::MachineConfig;
use mpmc::sim::process::ProcessSpec;
use mpmc::workloads::spec::SpecWorkload;

/// A small machine that keeps debug-mode tests quick: same physics,
/// fewer sets.
fn tiny_machine() -> MachineConfig {
    MachineConfig { l2_sets: 64, l2_assoc: 8, ..MachineConfig::two_core_workstation() }
}

fn quick_profile() -> ProfileOptions {
    ProfileOptions { duration_s: 0.35, warmup_s: 0.12, seed: 99, ..Default::default() }
}

#[test]
fn profile_predict_measure_pipeline() {
    let machine = tiny_machine();
    let profiler = Profiler::new(machine.clone()).with_options(quick_profile());
    let a = profiler.profile(&SpecWorkload::Mcf.params()).unwrap();
    let b = profiler.profile(&SpecWorkload::Gzip.params()).unwrap();

    let model = PerformanceModel::new(machine.l2_assoc());
    let pred = model.predict(&[&a, &b]).unwrap();

    // Measured co-run.
    let mut placement = Placement::idle(2);
    placement
        .assign(
            0,
            ProcessSpec::new(
                "mcf",
                Box::new(SpecWorkload::Mcf.params().generator(machine.l2_sets, 1)),
            ),
        )
        .unwrap();
    placement
        .assign(
            1,
            ProcessSpec::new(
                "gzip",
                Box::new(SpecWorkload::Gzip.params().generator(machine.l2_sets, 2)),
            ),
        )
        .unwrap();
    let run = simulate(
        &machine,
        placement,
        SimOptions { duration_s: 0.6, warmup_s: 0.2, seed: 7, ..Default::default() },
    )
    .unwrap();

    for (i, p) in run.processes.iter().enumerate() {
        let spi_err = (pred[i].spi - p.spi()).abs() / p.spi();
        assert!(
            spi_err < 0.10,
            "{}: predicted SPI {:.3e} vs measured {:.3e} ({:.1}% off)",
            p.name,
            pred[i].spi,
            p.spi(),
            spi_err * 100.0
        );
        let mpa_err = (pred[i].mpa - p.mpa()).abs();
        assert!(mpa_err < 0.08, "{}: MPA {:.3} vs {:.3}", p.name, pred[i].mpa, p.mpa());
    }
    // The hog takes the bigger share, as measured.
    assert!(pred[0].ways > pred[1].ways);
    assert!(run.processes[0].avg_ways > run.processes[1].avg_ways);
}

#[test]
fn curve_inversion_and_bisection_agree_on_profiled_features() {
    let machine = tiny_machine();
    let profiler = Profiler::new(machine.clone()).with_options(quick_profile());
    let a = profiler.profile(&SpecWorkload::Art.params()).unwrap();
    let b = profiler.profile(&SpecWorkload::Twolf.params()).unwrap();

    let bis =
        PerformanceModel::new(8).with_solver(SolverKind::Bisection).predict(&[&a, &b]).unwrap();
    let inv = PerformanceModel::new(8).predict(&[&a, &b]).unwrap();
    for i in 0..2 {
        assert!(
            (bis[i].ways - inv[i].ways).abs() < 1e-7,
            "solver disagreement: {} vs {}",
            bis[i].ways,
            inv[i].ways
        );
    }
}

#[test]
fn prediction_capacity_constraint_holds() {
    let machine = tiny_machine();
    let profiler = Profiler::new(machine.clone()).with_options(quick_profile());
    let feats: Vec<_> = [SpecWorkload::Mcf, SpecWorkload::Vpr]
        .iter()
        .map(|w| profiler.profile(&w.params()).unwrap())
        .collect();
    let pred = PerformanceModel::new(8).predict(&feats).unwrap();
    let total: f64 = pred.iter().map(|p| p.ways).sum();
    assert!((total - 8.0).abs() < 1e-3, "ways sum to {total}");
    for p in &pred {
        assert!(p.ways > 0.0 && p.ways < 8.0);
        assert!((0.0..=1.0).contains(&p.mpa));
        assert!(p.spi > 0.0 && p.aps > 0.0);
    }
}

#[test]
fn contention_hurts_both_processes_in_measurement_and_model() {
    let machine = tiny_machine();
    let profiler = Profiler::new(machine.clone()).with_options(quick_profile());
    let a = profiler.profile(&SpecWorkload::Mcf.params()).unwrap();
    let b = profiler.profile(&SpecWorkload::Art.params()).unwrap();

    let model = PerformanceModel::new(8);
    let alone_a = model.predict(std::slice::from_ref(&a)).unwrap();
    let pair = model.predict(&[&a, &b]).unwrap();
    assert!(pair[0].spi > alone_a[0].spi, "model: sharing must slow mcf down");

    // And the simulator agrees.
    let run_alone = {
        let mut pl = Placement::idle(2);
        pl.assign(
            0,
            ProcessSpec::new("mcf", Box::new(SpecWorkload::Mcf.params().generator(64, 1))),
        )
        .unwrap();
        simulate(
            &machine,
            pl,
            SimOptions { duration_s: 0.5, warmup_s: 0.15, seed: 5, ..Default::default() },
        )
        .unwrap()
    };
    let run_pair = {
        let mut pl = Placement::idle(2);
        pl.assign(
            0,
            ProcessSpec::new("mcf", Box::new(SpecWorkload::Mcf.params().generator(64, 1))),
        )
        .unwrap();
        pl.assign(
            1,
            ProcessSpec::new("art", Box::new(SpecWorkload::Art.params().generator(64, 2))),
        )
        .unwrap();
        simulate(
            &machine,
            pl,
            SimOptions { duration_s: 0.5, warmup_s: 0.15, seed: 5, ..Default::default() },
        )
        .unwrap()
    };
    assert!(run_pair.processes[0].spi() > run_alone.processes[0].spi());
}
