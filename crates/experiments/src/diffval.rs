//! Differential validation: model-vs-simulator oracle sweep.
//!
//! This is the correctness gate behind `mpmc validate`. For a set of
//! co-run mixes it runs three layers of checks:
//!
//! 1. **Differential**: predict each process's effective cache size
//!    `S_i`, miss ratio `MPA_i`, and speed `SPI_i` from ground-truth
//!    feature vectors, replay the same mix in the `cmpsim` oracle, and
//!    require the relative/absolute errors to stay inside configurable
//!    tolerances. Bisection and robust solvers are cross-checked against
//!    each other on every mix (they must agree to solver precision —
//!    divergence means a solver bug, not model error).
//! 2. **Invariants**: the full static battery of
//!    [`mpmc_model::crosscheck`] — capacity conservation, monotone miss
//!    curves, the `G(n) <= A` occupancy bound, order independence, and
//!    the idle-process and tail-scaling metamorphic checks — plus the
//!    power floor against the simulator's ground-truth power and
//!    bit-identical results across harness worker counts.
//! 3. **Reporting**: a machine-readable `VALIDATION.json` (hand-rolled,
//!    dependency-free) plus a human summary, so CI can gate on `pass`
//!    and archive the artifact.

use crate::harness::{self, RunScale};
use cmpsim::machine::MachineConfig;
use mpmc_model::crosscheck;
use mpmc_model::equilibrium::SolverKind;
use mpmc_model::feature::FeatureVector;
use mpmc_model::perf::PerformanceModel;
use mpmc_model::ModelError;
use std::fmt::Write as _;
use workloads::spec::SpecWorkload;

/// Acceptance thresholds for the differential layer. Defaults are set
/// from the paper's reported accuracy (Table 1: MPA ~1.8 points, SPI
/// ~3.4 %) with headroom for short validation runs and worst cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerances {
    /// Max absolute MPA error (miss-ratio points, e.g. 0.08 = 8 points).
    pub mpa_abs: f64,
    /// Max relative SPI error.
    pub spi_rel: f64,
    /// Max absolute effective-cache-size error (ways).
    pub ways_abs: f64,
    /// Max disagreement between the bisection and robust solvers (ways).
    pub solver_agree_ways: f64,
}

impl Default for DiffTolerances {
    fn default() -> Self {
        DiffTolerances { mpa_abs: 0.08, spi_rel: 0.15, ways_abs: 2.5, solver_agree_ways: 0.05 }
    }
}

/// One process's predicted-vs-measured comparison within a mix.
#[derive(Debug, Clone)]
pub struct ProcessCheck {
    /// Workload name.
    pub name: String,
    /// Model prediction: effective ways, MPA, SPI.
    pub predicted: (f64, f64, f64),
    /// Simulator oracle: time-averaged ways, MPA, SPI.
    pub measured: (f64, f64, f64),
    /// Absolute errors / relative error: (ways_abs, mpa_abs, spi_rel).
    pub errors: (f64, f64, f64),
    /// Whether all three errors are inside tolerance.
    pub pass: bool,
}

/// The outcome of one co-run mix.
#[derive(Debug, Clone)]
pub struct MixReport {
    /// Display label, e.g. `"mcf+gzip"`.
    pub label: String,
    /// Per-process differential comparisons.
    pub processes: Vec<ProcessCheck>,
    /// Invariant/metamorphic violations (display strings), empty = clean.
    pub violations: Vec<String>,
    /// Differential + invariant layers both clean.
    pub pass: bool,
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Machine preset name.
    pub machine: String,
    /// Scale label (`"tiny"`, `"fast"`, `"full"`).
    pub scale: String,
    /// Thresholds the sweep was judged against.
    pub tolerances: DiffTolerances,
    /// Per-mix outcomes.
    pub mixes: Vec<MixReport>,
    /// Total invariant violations across mixes.
    pub invariant_violations: usize,
    /// Total per-process differential failures across mixes.
    pub differential_failures: usize,
    /// Overall verdict.
    pub pass: bool,
}

impl ValidationReport {
    /// Renders the machine-readable `VALIDATION.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"machine\": \"{}\",", json_escape(&self.machine));
        let _ = writeln!(s, "  \"scale\": \"{}\",", json_escape(&self.scale));
        let _ = writeln!(
            s,
            "  \"tolerances\": {{\"mpa_abs\": {}, \"spi_rel\": {}, \"ways_abs\": {}, \"solver_agree_ways\": {}}},",
            self.tolerances.mpa_abs,
            self.tolerances.spi_rel,
            self.tolerances.ways_abs,
            self.tolerances.solver_agree_ways
        );
        s.push_str("  \"mixes\": [\n");
        for (mi, mix) in self.mixes.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"label\": \"{}\",", json_escape(&mix.label));
            let _ = writeln!(s, "      \"pass\": {},", mix.pass);
            s.push_str("      \"violations\": [");
            for (vi, v) in mix.violations.iter().enumerate() {
                if vi > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\"", json_escape(v));
            }
            s.push_str("],\n");
            s.push_str("      \"processes\": [\n");
            for (pi, p) in mix.processes.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{\"name\": \"{}\", \"pass\": {}, \"pred_ways\": {:.4}, \"meas_ways\": {:.4}, \"pred_mpa\": {:.5}, \"meas_mpa\": {:.5}, \"pred_spi\": {:.4e}, \"meas_spi\": {:.4e}, \"ways_abs_err\": {:.4}, \"mpa_abs_err\": {:.5}, \"spi_rel_err\": {:.5}}}",
                    json_escape(&p.name),
                    p.pass,
                    p.predicted.0,
                    p.measured.0,
                    p.predicted.1,
                    p.measured.1,
                    p.predicted.2,
                    p.measured.2,
                    p.errors.0,
                    p.errors.1,
                    p.errors.2
                );
                s.push_str(if pi + 1 < mix.processes.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ]\n");
            s.push_str(if mi + 1 < self.mixes.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"summary\": {{\"mixes\": {}, \"invariant_violations\": {}, \"differential_failures\": {}}},",
            self.mixes.len(),
            self.invariant_violations,
            self.differential_failures
        );
        let _ = writeln!(s, "  \"pass\": {}", self.pass);
        s.push_str("}\n");
        s
    }

    /// One-screen human summary for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "differential validation: {} on machine '{}' ({} mixes)",
            self.scale,
            self.machine,
            self.mixes.len()
        );
        for mix in &self.mixes {
            let worst = mix.processes.iter().map(|p| p.errors.2).fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "  {:<24} {}  (worst SPI err {:.2}%)",
                mix.label,
                if mix.pass { "ok" } else { "FAIL" },
                worst * 100.0
            );
            for v in &mix.violations {
                let _ = writeln!(out, "    violation: {v}");
            }
            for p in mix.processes.iter().filter(|p| !p.pass) {
                let _ = writeln!(
                    out,
                    "    {}: ways {:.2} vs {:.2}, MPA {:.3} vs {:.3}, SPI err {:.2}%",
                    p.name,
                    p.predicted.0,
                    p.measured.0,
                    p.predicted.1,
                    p.measured.1,
                    p.errors.2 * 100.0
                );
            }
        }
        let _ = writeln!(
            out,
            "invariant violations: {}; differential failures: {}; verdict: {}",
            self.invariant_violations,
            self.differential_failures,
            if self.pass { "PASS" } else { "FAIL" }
        );
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Machine to validate on (possibly with shrunken `l2_sets`).
    pub machine: MachineConfig,
    /// Fidelity of the simulation runs.
    pub scale: RunScale,
    /// Label recorded in the report (`"tiny"`, `"fast"`, `"full"`).
    pub scale_label: String,
    /// Acceptance thresholds.
    pub tolerances: DiffTolerances,
    /// Cap on the number of co-run mixes (solos count too). `0` = all.
    pub max_mixes: usize,
}

impl DiffConfig {
    /// The CI smoke configuration: shrunken cache, short runs, a handful
    /// of mixes. Finishes in seconds.
    pub fn tiny(mut machine: MachineConfig) -> Self {
        machine.l2_sets = 64;
        DiffConfig {
            machine,
            scale: tiny_scale(),
            scale_label: "tiny".into(),
            tolerances: DiffTolerances::default(),
            max_mixes: 6,
        }
    }

    /// Reduced-fidelity sweep over every mix (`--fast`).
    pub fn fast(machine: MachineConfig) -> Self {
        DiffConfig {
            machine,
            scale: RunScale::fast(),
            scale_label: "fast".into(),
            tolerances: DiffTolerances::default(),
            max_mixes: 0,
        }
    }

    /// Full-fidelity sweep over every mix.
    pub fn full(machine: MachineConfig) -> Self {
        DiffConfig {
            machine,
            scale: RunScale::full(),
            scale_label: "full".into(),
            tolerances: DiffTolerances::default(),
            max_mixes: 0,
        }
    }
}

/// The reduced [`RunScale`] used by [`DiffConfig::tiny`].
///
/// The warmup must exceed the cache *fill time*: the model predicts
/// steady-state occupancy, but the simulator's time-averaged ways
/// include the cold-start ramp while a process's misses stream lines
/// into the empty cache (~`A * sets / (APS * MPA)` seconds — about
/// 0.4 s for the slowest-filling solo benchmark at 64 sets). A 0.15 s
/// warmup made gzip-solo read 11.8 of 16 ways and fail the sweep.
pub fn tiny_scale() -> RunScale {
    RunScale {
        profile_duration_s: 0.2,
        profile_warmup_s: 0.05,
        run_duration_s: 2.0,
        run_warmup_s: 1.0,
        share_duration_s: 4.5,
        share_warmup_s: 1.0,
        seed: 0xD1FF,
        workers: 0,
    }
}

/// The mixes the sweep covers: every workload solo on core 0, then
/// same-die pairs on cores 0 and 1, in deterministic suite order.
fn mix_list(suite_len: usize, max_mixes: usize) -> Vec<Vec<usize>> {
    let mut mixes: Vec<Vec<usize>> = (0..suite_len).map(|i| vec![i]).collect();
    for i in 0..suite_len {
        for j in (i + 1)..suite_len {
            mixes.push(vec![i, j]);
        }
    }
    if max_mixes > 0 && mixes.len() > max_mixes {
        // Keep a balanced sample: alternate solos and pairs so both
        // differential regimes stay covered.
        let solos = suite_len.min(max_mixes / 2);
        let mut kept: Vec<Vec<usize>> = mixes[..solos].to_vec();
        kept.extend(mixes[suite_len..].iter().take(max_mixes - solos).cloned());
        return kept;
    }
    mixes
}

/// Runs the full differential + invariant sweep.
///
/// A failed check becomes a `false` in the report, never an `Err`:
/// errors are reserved for infrastructure trouble (simulation or solver
/// refusing to run at all).
///
/// # Errors
///
/// Propagates simulation and solver errors.
pub fn run(cfg: &DiffConfig) -> Result<ValidationReport, ModelError> {
    let suite = SpecWorkload::table1_suite().to_vec();
    let machine = &cfg.machine;
    let assoc = machine.l2_assoc();
    let features: Vec<FeatureVector> = suite
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), machine))
        .collect::<Result<_, _>>()?;

    let mixes = mix_list(suite.len(), cfg.max_mixes);
    let bisect = PerformanceModel::new(assoc).with_solver(SolverKind::Bisection);
    let robust = PerformanceModel::new(assoc).with_solver(SolverKind::Robust);

    // Simulate every mix (placement: one process per core, first die).
    let placements: Vec<harness::IndexPlacement> = mixes
        .iter()
        .map(|mix| {
            let mut pl = vec![Vec::new(); machine.num_cores()];
            for (slot, &w) in mix.iter().enumerate() {
                pl[slot].push(w);
            }
            pl
        })
        .collect();
    let runs = harness::run_assignments(machine, &suite, &placements, &cfg.scale, 0x51)?;

    // Worker-count independence: re-running a prefix of the batch with a
    // different worker count must reproduce the measurements bit for bit
    // (seeds depend on run identity, not execution order).
    let mut worker_violations: Vec<String> = Vec::new();
    if placements.len() >= 2 {
        let mut serial = cfg.scale;
        serial.workers = 1;
        let mut wide = cfg.scale;
        wide.workers = 2;
        let prefix = &placements[..2];
        let a = harness::run_assignments(machine, &suite, prefix, &serial, 0x51)?;
        let b = harness::run_assignments(machine, &suite, prefix, &wide, 0x51)?;
        for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
            let oa = ra.oracle_observables();
            let ob = rb.oracle_observables();
            if oa != ob {
                worker_violations.push(format!(
                    "[worker-independence] mix {i}: results differ between 1 and 2 workers"
                ));
            }
        }
    }

    let mut reports = Vec::new();
    let mut invariant_violations = 0usize;
    let mut differential_failures = 0usize;

    for (mi, (mix, run)) in mixes.iter().zip(&runs).enumerate() {
        let fvs: Vec<&FeatureVector> = mix.iter().map(|&w| &features[w]).collect();
        let label: Vec<&str> = mix.iter().map(|&w| suite[w].name()).collect();
        let label = label.join("+");

        let mut violations: Vec<String> =
            crosscheck::check_corun_set(&fvs, assoc)?.iter().map(ToString::to_string).collect();
        if mi == 0 {
            violations.append(&mut worker_violations);
        }

        // Differential layer: predictions vs the simulator oracle.
        let pred = bisect.predict(&fvs)?;
        let pred_robust = robust.predict(&fvs)?;
        for (p, pr) in pred.iter().zip(&pred_robust) {
            if (p.ways - pr.ways).abs() > cfg.tolerances.solver_agree_ways {
                violations.push(format!(
                    "[solver-agreement] bisection {} vs robust {} ways",
                    p.ways, pr.ways
                ));
            }
        }
        violations.extend(
            crosscheck::check_power_floor(
                run.avg_true_power(),
                machine.num_cores(),
                machine.power.core_idle_w,
            )
            .iter()
            .map(ToString::to_string),
        );

        let oracle = run.oracle_observables();
        let mut processes = Vec::new();
        for (slot, p) in pred.iter().enumerate() {
            let o = &oracle[slot];
            let ways_err = (p.ways - o.avg_ways).abs();
            let mpa_err = (p.mpa - o.mpa).abs();
            let spi_err = (p.spi - o.spi).abs() / o.spi;
            let pass = ways_err <= cfg.tolerances.ways_abs
                && mpa_err <= cfg.tolerances.mpa_abs
                && spi_err <= cfg.tolerances.spi_rel;
            if !pass {
                differential_failures += 1;
            }
            processes.push(ProcessCheck {
                name: o.name.clone(),
                predicted: (p.ways, p.mpa, p.spi),
                measured: (o.avg_ways, o.mpa, o.spi),
                errors: (ways_err, mpa_err, spi_err),
                pass,
            });
        }

        invariant_violations += violations.len();
        let pass = violations.is_empty() && processes.iter().all(|p| p.pass);
        reports.push(MixReport { label, processes, violations, pass });
    }

    let pass = reports.iter().all(|m| m.pass);
    Ok(ValidationReport {
        machine: machine.name.clone(),
        scale: cfg.scale_label.clone(),
        tolerances: cfg.tolerances,
        mixes: reports,
        invariant_violations,
        differential_failures,
        pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_list_covers_solos_and_pairs() {
        let mixes = mix_list(4, 0);
        assert_eq!(mixes.len(), 4 + 6);
        assert_eq!(mixes[0], vec![0]);
        assert_eq!(mixes[4], vec![0, 1]);
        // Capping keeps both regimes.
        let capped = mix_list(8, 6);
        assert_eq!(capped.len(), 6);
        assert!(capped.iter().any(|m| m.len() == 1));
        assert!(capped.iter().any(|m| m.len() == 2));
    }

    #[test]
    fn tiny_sweep_passes_end_to_end() {
        let cfg = DiffConfig::tiny(MachineConfig::four_core_server());
        let report = run(&cfg).unwrap();
        assert_eq!(report.scale, "tiny");
        assert!(!report.mixes.is_empty());
        assert!(report.pass, "tiny differential sweep must be clean:\n{}", report.summary());
        let json = report.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"mixes\""));
        // The JSON is well-bracketed (cheap sanity without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn report_flags_differential_failures() {
        // Build a synthetic failing report and check the bookkeeping.
        let report = ValidationReport {
            machine: "m".into(),
            scale: "tiny".into(),
            tolerances: DiffTolerances::default(),
            mixes: vec![MixReport {
                label: "x".into(),
                processes: vec![ProcessCheck {
                    name: "x".into(),
                    predicted: (1.0, 0.5, 1e-9),
                    measured: (8.0, 0.1, 2e-9),
                    errors: (7.0, 0.4, 0.5),
                    pass: false,
                }],
                violations: vec!["[capacity] boom".into()],
                pass: false,
            }],
            invariant_violations: 1,
            differential_failures: 1,
            pass: false,
        };
        assert!(!report.pass);
        let json = report.to_json();
        assert!(json.contains("\"pass\": false"));
        assert!(json.contains("capacity"));
        let text = report.summary();
        assert!(text.contains("FAIL"));
        assert!(text.contains("violation"));
    }
}
