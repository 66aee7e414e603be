//! Churn study: process arrival/departure vs model re-equilibration.
//!
//! A die whose resident process set *changes mid-run*. A long-lived
//! process holds core 0 for the whole run; a second process arrives on
//! core 1 a third of the way in and departs at two thirds, splitting the
//! run into three phases — solo, co-run, solo again.
//!
//! The paper's equilibrium model is stateless in time: it predicts the
//! steady state of whatever process set is resident. Re-equilibration is
//! therefore modeled as one solve per phase (solo / pair / solo), and the
//! simulator's per-phase HPC buckets — with the front of each phase
//! trimmed while the cache re-converges — are the ground truth the solves
//! are gated against, with the tolerances below declared up front.

use crate::harness::RunScale;
use cmpsim::engine::{simulate, Placement, SimOptions, SimResult};
use cmpsim::machine::MachineConfig;
use cmpsim::process::ProcessSpec;
use mpmc_model::feature::FeatureVector;
use mpmc_model::perf::PerformanceModel;
use mpmc_model::ModelError;
use std::fmt::Write as _;
use workloads::spec::SpecWorkload;

/// Acceptance thresholds for the churn gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnTolerances {
    /// Max absolute MPA error per phase, model vs trimmed measurement.
    pub mpa_abs: f64,
    /// Max relative IPS error per phase.
    pub ips_rel: f64,
    /// Max absolute MPA drift between the two solo phases — the
    /// simulator must *re-equilibrate* after the visitor departs.
    pub reequil_mpa_abs: f64,
}

impl Default for ChurnTolerances {
    fn default() -> Self {
        // mpa_abs/ips_rel follow the differential-validation defaults
        // (paper Table 1 accuracy with short-run headroom); the
        // re-equilibration bound is tighter because it compares the
        // simulator against itself.
        ChurnTolerances { mpa_abs: 0.08, ips_rel: 0.15, reequil_mpa_abs: 0.04 }
    }
}

/// One phase-level model-vs-simulator comparison.
#[derive(Debug, Clone)]
pub struct PhaseCheck {
    /// Phase label (`"solo-before"`, `"co-run"`, `"solo-after"`).
    pub phase: &'static str,
    /// Workload name.
    pub name: &'static str,
    /// Predicted (mpa, ips) from the per-phase equilibrium solve.
    pub predicted: (f64, f64),
    /// Measured (mpa, ips) from the trimmed phase buckets.
    pub measured: (f64, f64),
    /// Inside `mpa_abs` and `ips_rel`.
    pub pass: bool,
}

/// The churn study's outcome.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Per-phase, per-process checks.
    pub checks: Vec<PhaseCheck>,
    /// Absolute MPA drift of the resident process between solo phases.
    pub reequil_drift: f64,
    /// Thresholds the run was judged against.
    pub tolerances: ChurnTolerances,
    /// Every check passed and the solo phases agree.
    pub pass: bool,
    /// Rendered report text.
    pub text: String,
}

/// Mean MPA and IPS over the bucket range `[from, to)` of one core.
fn phase_rates(run: &SimResult, core: usize, from: usize, to: usize) -> (f64, f64) {
    let buckets = &run.core_samples[core][from..to];
    let period_s = run.sample_period_s;
    let refs: f64 = buckets.iter().map(|b| b.l2rps * period_s).sum();
    let misses: f64 = buckets.iter().map(|b| b.l2mps * period_s).sum();
    let instr: f64 = buckets.iter().map(|b| b.ips * period_s).sum();
    let span = (to - from) as f64 * period_s;
    (if refs > 0.0 { misses / refs } else { 0.0 }, instr / span)
}

/// Runs the churn scenario and gates it.
///
/// # Errors
///
/// Propagates simulation and solver errors (a *failed gate* is reported
/// in [`ChurnReport::pass`], not as an error).
pub fn run_study(scale: &RunScale, tol: ChurnTolerances) -> Result<ChurnReport, ModelError> {
    // The shrunken cache from the validation sweeps: real contention and
    // a re-convergence time that fits inside a phase.
    let mut machine = MachineConfig::four_core_server();
    machine.l2_sets = 64;

    // Three equal phases, each a whole number of sampling periods and
    // long enough that trimming the re-convergence front still leaves a
    // stable window (cache fill takes ~0.4 s at this size).
    let period_cycles = machine.sample_period_cycles();
    let phase_s = (scale.run_duration_s / 3.0).max(0.8);
    let phase_periods = (phase_s / machine.sample_period_s).ceil() as usize;
    let phase_cycles = phase_periods as u64 * period_cycles;
    let duration_s = (3 * phase_cycles) as f64 / machine.freq_hz;
    let trim = phase_periods.saturating_mul(5) / 8; // settle: drop the front 5/8

    let resident = SpecWorkload::Mcf;
    let visitor = SpecWorkload::Art;
    let (rp, vp) = (resident.params(), visitor.params());

    let mut pl = Placement::idle(machine.num_cores());
    pl.assign(0, ProcessSpec::new(rp.name, Box::new(rp.generator(machine.l2_sets, 1))))?;
    pl.assign(
        1,
        ProcessSpec::new(vp.name, Box::new(vp.generator(machine.l2_sets, 2)))
            .with_arrival(phase_cycles)
            .with_departure(2 * phase_cycles),
    )?;
    let run = simulate(
        &machine,
        pl,
        SimOptions {
            duration_s,
            warmup_s: 0.0, // phases are trimmed individually below
            seed: scale.seed ^ 0xC4,
            ..SimOptions::default()
        },
    )?;

    // Per-phase model predictions: one equilibrium solve per resident set.
    let fv_r = FeatureVector::from_workload(&rp, &machine)?;
    let fv_v = FeatureVector::from_workload(&vp, &machine)?;
    let model = PerformanceModel::new(machine.l2_assoc());
    let solo = model.predict(&[&fv_r])?;
    let pair = model.predict(&[&fv_r, &fv_v])?;

    let phases: [(&'static str, usize, usize); 3] = [
        ("solo-before", 0, phase_periods),
        ("co-run", phase_periods, 2 * phase_periods),
        ("solo-after", 2 * phase_periods, 3 * phase_periods),
    ];
    let mut checks = Vec::new();
    let mut check = |phase: &'static str,
                     name: &'static str,
                     core: usize,
                     (from, to): (usize, usize),
                     pred_mpa: f64,
                     pred_spi: f64| {
        let (meas_mpa, meas_ips) = phase_rates(&run, core, from + trim, to);
        let pred_ips = 1.0 / pred_spi;
        let pass = (pred_mpa - meas_mpa).abs() <= tol.mpa_abs
            && (pred_ips - meas_ips).abs() / meas_ips.max(1e-9) <= tol.ips_rel;
        checks.push(PhaseCheck {
            phase,
            name,
            predicted: (pred_mpa, pred_ips),
            measured: (meas_mpa, meas_ips),
            pass,
        });
    };
    for (i, &(label, from, to)) in phases.iter().enumerate() {
        let pred = if i == 1 { &pair[0] } else { &solo[0] };
        check(label, resident.name(), 0, (from, to), pred.mpa, pred.spi);
    }
    check("co-run", visitor.name(), 1, (phases[1].1, phases[1].2), pair[1].mpa, pair[1].spi);

    // Re-equilibration: after the visitor departs, the resident's miss
    // ratio must return to its pre-arrival level.
    let (before, _) = phase_rates(&run, 0, trim, phase_periods);
    let (after, _) = phase_rates(&run, 0, 2 * phase_periods + trim, 3 * phase_periods);
    let reequil_drift = (before - after).abs();

    let pass = checks.iter().all(|c| c.pass) && reequil_drift <= tol.reequil_mpa_abs;

    let title = "Churn study: arrival/departure vs model re-equilibration";
    let mut out = format!("{title}\n{}\n", "=".repeat(title.len()));
    let _ = writeln!(
        out,
        "machine: {} (l2_sets={}), phases of {:.2} s, front {:.0}% trimmed\n\
         resident: {} on core 0 all run; visitor: {} on core 1, arrives t/3, departs 2t/3\n\
         tolerances: |MPA err| <= {}, IPS err <= {:.0}%, solo-phase drift <= {}\n",
        machine.name,
        machine.l2_sets,
        phase_cycles as f64 / machine.freq_hz,
        100.0 * trim as f64 / phase_periods as f64,
        resident.name(),
        visitor.name(),
        tol.mpa_abs,
        tol.ips_rel * 100.0,
        tol.reequil_mpa_abs,
    );
    let _ = writeln!(
        out,
        "{:<12}{:<8}{:>10}{:>10}{:>14}{:>14}{:>7}",
        "phase", "proc", "pred MPA", "meas MPA", "pred IPS", "meas IPS", "ok"
    );
    for c in &checks {
        let _ = writeln!(
            out,
            "{:<12}{:<8}{:>10.4}{:>10.4}{:>14.0}{:>14.0}{:>7}",
            c.phase,
            c.name,
            c.predicted.0,
            c.measured.0,
            c.predicted.1,
            c.measured.1,
            if c.pass { "ok" } else { "FAIL" }
        );
    }
    let _ = writeln!(
        out,
        "\nsolo-phase MPA drift: {:.4} (re-equilibrated: {})\nverdict: {}",
        reequil_drift,
        reequil_drift <= tol.reequil_mpa_abs,
        if pass { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(
        out,
        "context switches: {}, slice expiries: {}",
        run.context_switches, run.slice_expiries
    );

    Ok(ChurnReport { checks, reequil_drift, tolerances: tol, pass, text: out })
}

/// Entry point used by the `churn_study` binary and `all`: runs the
/// study, saves `results/churn.txt`, and returns the rendered report
/// (verdict embedded; the `churn_study` binary turns a failed gate into
/// a non-zero exit, like `mpmc validate`).
///
/// # Errors
///
/// Propagates simulation and solver errors.
pub fn report(scale: &RunScale) -> Result<String, ModelError> {
    let r = run_study(scale, ChurnTolerances::default())?;
    Ok(crate::harness::save_report("churn", r.text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffval::tiny_scale;

    #[test]
    fn churn_gate_passes_at_tiny_scale() {
        let r = run_study(&tiny_scale(), ChurnTolerances::default()).expect("study runs");
        assert!(r.pass, "churn gate failed:\n{}", r.text);
        // The co-run phase is genuinely different: contention raises the
        // resident's miss ratio above both solo phases.
        let solo = r.checks[0].measured.0;
        let corun = r.checks[1].measured.0;
        assert!(corun > solo, "no contention visible: solo {solo} vs co-run {corun}");
        assert_eq!(r.checks.len(), 4);
    }
}
