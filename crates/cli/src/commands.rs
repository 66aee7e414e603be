//! CLI command implementations. Each command returns the text it would
//! print, so commands are unit-testable without capturing stdout.

use crate::args::ParsedArgs;
use crate::resolve::{self, CliError};
use cmpsim::engine::{simulate, Placement, SimOptions};
use cmpsim::process::ProcessSpec;
use cmpsim::trace::{miss_ratio_curve, stack_distance_histogram, Trace, TraceRecorder};
use cmpsim::types::LineAddr;
use mpmc_model::assignment::{Assignment, CombinedModel};
use mpmc_model::equilibrium::SolverKind;
use mpmc_model::perf::PerformanceModel;
use mpmc_model::persist;
use mpmc_model::power::{build_training_set, CorePowerModel, TrainingOptions};
use mpmc_model::profile::Profiler;
use workloads::spec::SpecWorkload;

/// Top-level usage text.
pub const USAGE: &str = "\
mpmc — performance and power modeling for multi-programmed multi-cores
       (DAC 2010 reproduction)

usage: mpmc <command> [args]

commands:
  machines                              list machine presets
  workloads                             list built-in workloads
  profile <workload> [--machine M] [--out FILE] [--fast] [--sets N]
                                        stressmark-profile a workload
  predict <spec> <spec> [...] [--machine M] [--strict]
                                        predict co-run MPA/SPI (specs are
                                        profile files or workload names);
                                        --strict fails instead of accepting
                                        a degraded/fallback solve
  train [--machine M] [--out FILE] [--fast] [--sets N]
                                        train the Eq. 9 power model
  estimate --assign A [--machine M] [--power FILE] [--fast] [--sets N]
                                        combined-model power of a tentative
                                        assignment (profiles only)
  assign <spec> <spec> [...] --optimize [--objective O] [--machine M]
         [--power FILE] [--fast] [--sets N] [--workers N] [--seed N]
         [--brute] [--baseline P]       search for the best placement of the
                                        processes (specs are profile files or
                                        workload names; repeats are separate
                                        processes). Objectives: power
                                        (default), makespan, capped:<watts>.
                                        Prints machine-readable JSON. --brute
                                        scores every raw placement (tiny
                                        instances only); --baseline P scores
                                        a reference placement P given as
                                        per-core process indices, e.g.
                                        \"0,2;1\". An infeasible power cap
                                        exits 4 and reports the least-power
                                        placement found.
  simulate --assign A [--machine M] [--duration S] [--seed N] [--sets N]
           [--json]                     run the assignment on the simulator
                                        (--json prints a machine-readable
                                        summary)
  trace <workload> [--steps N] [--out FILE] [--sets N]
                                        record an access trace
  mrc <tracefile> [--sets N] [--assoc A]
                                        miss-ratio curve of a trace
  validate [--tiny | --fast] [--machine M] [--sets N] [--mixes N] [--seed N]
           [--workers N] [--out FILE]
                                        differential model-vs-simulator
                                        validation plus invariant and
                                        metamorphic checks; writes a
                                        machine-readable VALIDATION.json
  serve --power FILE [--stdio | --listen ADDR] [--machine M] [--sets N]
        [--workers N] [--cache-capacity N]
        [--max-line-bytes N] [--max-connections N]
        [--max-inflight N] [--max-queued N] [--queue-wait-ms MS]
        [--default-deadline-ms MS] [--breaker-window N]
        [--breaker-threshold N] [--breaker-cooldown N]
        [--singleflight-wait-ms MS]
                                        long-running prediction daemon:
                                        newline-delimited JSON requests
                                        (register/estimate/assign/stats)
                                        over TCP, or stdin/stdout with
                                        --stdio; overload limits per
                                        README \"Operational robustness\"
  lint [--format text|json] [--config FILE]
                                        run the workspace static analyzer
                                        (mpmc-lint) from the enclosing
                                        workspace root; see README
                                        \"Static analysis\"

Each command refuses options it does not list (exit 2).

assignment syntax: per-core lists, ';' between cores, ',' within a core,
e.g. \"mcf,art;gzip\" = mcf+art time-shared on core 0, gzip on core 1.
machines: server (4 cores, 16-way), workstation (2, 8-way), duo (2, 12-way).
--workers N overrides the MPMC_WORKERS environment variable; N must be
positive (omit the flag for auto).

exit codes: 0 success, 2 usage, 3 invalid input data (bad profile/trace/
histogram), 4 solver or simulation failure, 5 I/O failure, 6 degraded
result rejected by --strict, 7 validation divergence (the model-vs-
simulator sweep completed but disagreed beyond tolerance), 8 unwaived
deny-level lint findings. Service responses additionally use 9 request
shed under overload, 10 deadline exceeded, 11 request line too long,
12 connection cap reached (wire `error.code` values, mirrored as exit
codes by clients).
";

fn machine_from(args: &ParsedArgs) -> Result<cmpsim::machine::MachineConfig, CliError> {
    let sets = match args.opt("sets") {
        Some(raw) => {
            Some(raw.parse::<usize>().map_err(|_| CliError::usage(format!("bad --sets '{raw}'")))?)
        }
        None => None,
    };
    resolve::machine(args.opt("machine").unwrap_or("server"), sets)
}

/// `mpmc machines`
pub fn machines() -> String {
    let mut out = String::from("machine       cores  dies  L2 ways  L2 sets  timeslice\n");
    for (name, m) in [
        ("server", cmpsim::machine::MachineConfig::four_core_server()),
        ("workstation", cmpsim::machine::MachineConfig::two_core_workstation()),
        ("duo", cmpsim::machine::MachineConfig::duo_laptop()),
    ] {
        out.push_str(&format!(
            "{name:<13}{:>5}{:>6}{:>9}{:>9}{:>9.2}s\n",
            m.num_cores(),
            m.dies,
            m.l2_assoc,
            m.l2_sets,
            m.timeslice_s
        ));
    }
    out
}

/// `mpmc workloads`
pub fn workloads_cmd() -> String {
    let mut out = String::from("workload   API      L1RPI  BRPI   FPPI   reuse depth  streaming\n");
    for w in SpecWorkload::duo_suite() {
        let p = w.params();
        out.push_str(&format!(
            "{:<10} {:<8.4} {:<6.2} {:<6.2} {:<6.2} {:<12} {:.3}\n",
            w.name(),
            p.mix.api,
            p.mix.l1rpi,
            p.mix.brpi,
            p.mix.fppi,
            p.pattern.depth(),
            p.pattern.streaming_fraction()
        ));
    }
    out
}

/// `mpmc profile <workload> ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn profile(args: &ParsedArgs) -> Result<String, CliError> {
    let name =
        args.positionals().first().ok_or("profile: which workload? (try 'mpmc workloads')")?;
    let machine = machine_from(args)?;
    let w = resolve::workload(name)?;
    let profiler =
        Profiler::new(machine.clone()).with_options(resolve::profile_options(args.flag("fast")));
    let prof = profiler.profile_full(&w.params()).map_err(CliError::from)?;

    let mut out =
        format!("profiled '{}' on {} ({} runs)\n", name, machine.name, machine.l2_assoc());
    out.push_str(&format!(
        "API {:.4}  alpha {:.3e}  beta {:.3e}\n",
        prof.feature.api(),
        prof.feature.spi_model().alpha(),
        prof.feature.spi_model().beta()
    ));
    out.push_str(&format!(
        "L1RPI {:.3}  BRPI {:.3}  FPPI {:.3}  P_alone {:.2} W (idle {:.2} W)\n",
        prof.l1rpi, prof.brpi, prof.fppi, prof.processor_alone_w, prof.idle_processor_w
    ));
    out.push_str("MPA curve:");
    for s in 0..=machine.l2_assoc() {
        out.push_str(&format!(" {:.3}", prof.feature.mpa(s as f64)));
    }
    out.push('\n');
    if let Some(path) = args.opt("out") {
        let file = std::fs::File::create(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
        persist::write_profile(&prof, file).map_err(|e| CliError::io(format!("{path}: {e}")))?;
        out.push_str(&format!("saved to {path}\n"));
    }
    Ok(out)
}

/// `mpmc predict <spec> <spec> ...`
///
/// Solves with the robust solver (validated curve inversion, falling back
/// to the proportional split) and reports its diagnostics.
/// Under `--strict`, any fallback or degraded result is a hard error
/// (exit code 6) instead of a best-effort answer.
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn predict(args: &ParsedArgs) -> Result<String, CliError> {
    if args.positionals().len() < 2 {
        return Err("predict: need at least two specs (files or workload names)".into());
    }
    let machine = machine_from(args)?;
    let features: Vec<_> = args
        .positionals()
        .iter()
        .map(|spec| resolve::feature(spec, &machine))
        .collect::<Result<_, _>>()?;
    let model = PerformanceModel::new(machine.l2_assoc()).with_solver(SolverKind::Robust);
    let eq = model.solve(&features).map_err(CliError::from)?;
    if args.flag("strict") && (eq.diagnostics.degraded || !eq.diagnostics.fallbacks.is_empty()) {
        return Err(CliError::strict(format!(
            "--strict: refusing fallback result ({})",
            eq.diagnostics.summary()
        )));
    }

    let mut out =
        format!("equilibrium on a {}-way shared cache ({}):\n", machine.l2_assoc(), machine.name);
    out.push_str(&format!(
        "{:<12}{:>8}{:>9}{:>13}{:>14}\n",
        "process", "ways", "MPA", "SPI", "IPS"
    ));
    for (i, fv) in features.iter().enumerate() {
        out.push_str(&format!(
            "{:<12}{:>8.2}{:>9.3}{:>13.3e}{:>14.3e}\n",
            fv.name(),
            eq.sizes[i],
            eq.mpas[i],
            eq.spis[i],
            1.0 / eq.spis[i]
        ));
    }
    out.push_str(&format!("solver: {}\n", eq.diagnostics.summary()));
    Ok(out)
}

/// `mpmc train ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn train(args: &ParsedArgs) -> Result<String, CliError> {
    let machine = machine_from(args)?;
    let fast = args.flag("fast");
    let opts = if fast {
        TrainingOptions {
            duration_s: 0.35,
            warmup_s: 0.1,
            microbench_level_instructions: 100_000,
            microbench_duration_s: 1.0,
            ..Default::default()
        }
    } else {
        TrainingOptions::default()
    };
    let suite: Vec<_> = SpecWorkload::table1_suite().iter().map(|w| w.params()).collect();
    let obs = build_training_set(&machine, &suite, &opts).map_err(CliError::from)?;
    let model = mpmc_model::power::PowerModel::fit_mvlr(&obs).map_err(CliError::from)?;

    let mut out = format!(
        "trained Eq. 9 power model on {} ({} observations, R^2 {:.4})\n",
        machine.name,
        obs.len(),
        model.r_squared()
    );
    out.push_str(&format!("idle core: {:.2} W\n", model.idle_core_watts()));
    out.push_str(&format!(
        "coefficients (L1RPS, L2RPS, L2MPS, BRPS, FPPS): {:?}\n",
        model.coefficients()
    ));
    if let Some(path) = args.opt("out") {
        let file = std::fs::File::create(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
        persist::write_power_model(&model, file)
            .map_err(|e| CliError::io(format!("{path}: {e}")))?;
        out.push_str(&format!("saved to {path}\n"));
    }
    Ok(out)
}

/// Resolves the power model shared by `estimate` and `assign`: read from
/// `--power FILE` when given, otherwise trained on the fly.
fn power_model_from(
    args: &ParsedArgs,
    machine: &cmpsim::machine::MachineConfig,
    fast: bool,
) -> Result<mpmc_model::power::PowerModel, CliError> {
    match args.opt("power") {
        Some(path) => {
            let file =
                std::fs::File::open(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
            persist::read_power_model(file).map_err(|e| CliError::from(e).context(path))
        }
        None => {
            let opts = TrainingOptions {
                duration_s: if fast { 0.35 } else { 0.9 },
                warmup_s: if fast { 0.1 } else { 0.3 },
                microbench_level_instructions: if fast { 100_000 } else { 500_000 },
                microbench_duration_s: if fast { 1.0 } else { 2.4 },
                ..Default::default()
            };
            let suite: Vec<_> = SpecWorkload::table1_suite().iter().map(|w| w.params()).collect();
            let obs = build_training_set(machine, &suite, &opts).map_err(CliError::from)?;
            mpmc_model::power::PowerModel::fit_mvlr(&obs).map_err(CliError::from)
        }
    }
}

/// `mpmc estimate --assign A ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn estimate(args: &ParsedArgs) -> Result<String, CliError> {
    let machine = machine_from(args)?;
    let assign = args.opt("assign").ok_or("estimate: --assign is required")?;
    let per_core = resolve::assignment_string(assign, machine.num_cores())?;
    let fast = args.flag("fast");
    let power = power_model_from(args, &machine, fast)?;

    // Profiles: deduplicate specs so each is profiled once.
    let mut specs: Vec<String> = Vec::new();
    for q in &per_core {
        for s in q {
            if !specs.contains(s) {
                specs.push(s.clone());
            }
        }
    }
    if specs.is_empty() {
        return Err("estimate: the assignment is empty".into());
    }
    let profiles: Vec<_> =
        specs.iter().map(|s| resolve::profile(s, &machine, fast)).collect::<Result<_, _>>()?;
    let mut asg = Assignment::new(machine.num_cores());
    for (core, q) in per_core.iter().enumerate() {
        for s in q {
            let idx = specs.iter().position(|x| x == s).ok_or_else(|| {
                CliError::solver(format!("estimate: internal error: spec '{s}' lost in dedup"))
            })?;
            asg.try_assign(core, idx).map_err(CliError::from)?;
        }
    }

    let combined = CombinedModel::new(&machine, &power);
    let total = combined.estimate_processor_power(&profiles, &asg).map_err(CliError::from)?;
    let mut out = format!("combined-model estimate for \"{assign}\" on {}:\n", machine.name);
    for die in 0..machine.dies {
        let die_power = combined
            .estimate_die_power(&profiles, &asg, cmpsim::types::DieId(die as u32))
            .map_err(CliError::from)?;
        out.push_str(&format!("  die {die}: {die_power:.2} W\n"));
    }
    out.push_str(&format!("estimated processor power: {total:.2} W\n"));
    Ok(out)
}

/// `mpmc assign <spec> <spec> ... --optimize [--objective O] ...`
///
/// Searches for the best placement of the named processes with
/// [`mpmc_model::optimize`] and prints a machine-readable JSON object:
/// the chosen placement (per-core queues of spec names), both metrics
/// (`power_w`, `makespan`), the engine used (`method`), and search
/// diagnostics (`evaluated`, `pruned`). With `--brute` every raw
/// placement is scored instead (the CI gate compares the two). With
/// `--baseline P` a reference placement — per-core process indices like
/// `"0,2;1"` — is scored alongside for a chosen-vs-baseline comparison.
///
/// # Errors
///
/// Returns a display-ready message on any failure. An infeasible
/// `capped:<watts>` objective maps to
/// [`exit_code::SOLVER`](crate::resolve::exit_code::SOLVER) and the
/// message carries the least-power placement found as a diagnostic.
pub fn assign_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    use mpmc_model::optimize::{self, Objective, OptimizeOptions};
    use mpmc_service::json::Json;

    let machine = machine_from(args)?;
    if !args.flag("optimize") {
        return Err(CliError::usage(
            "assign: --optimize is required (placement search is this command's only mode)",
        ));
    }
    if args.positionals().is_empty() {
        return Err(CliError::usage(
            "assign: which processes? (profile files or workload names; repeats are \
             separate processes)",
        ));
    }
    let objective = Objective::from_spec(args.opt("objective").unwrap_or("power"))
        .map_err(|m| CliError::usage(format!("assign: {m}")))?;
    let fast = args.flag("fast");
    let power = power_model_from(args, &machine, fast)?;

    // Deduplicate specs so each is profiled once; every positional is
    // its own process instance.
    let mut specs: Vec<String> = Vec::new();
    let mut processes: Vec<usize> = Vec::new();
    for s in args.positionals() {
        let idx = match specs.iter().position(|x| x == s) {
            Some(i) => i,
            None => {
                specs.push(s.clone());
                specs.len() - 1
            }
        };
        processes.push(idx);
    }
    let profiles: Vec<_> =
        specs.iter().map(|s| resolve::profile(s, &machine, fast)).collect::<Result<_, _>>()?;

    // The baseline is parsed before the search so a bad placement string
    // fails fast as a usage error.
    let baseline = match args.opt("baseline") {
        Some(spec) => {
            let per_core = resolve::assignment_indices(spec, machine.num_cores(), processes.len())?;
            let placed: usize = per_core.iter().map(Vec::len).sum();
            if placed != processes.len() {
                return Err(CliError::usage(format!(
                    "assign: baseline places {placed} of {} processes; a fair \
                     comparison needs all of them",
                    processes.len()
                )));
            }
            Some(per_core)
        }
        None => None,
    };

    let opts = OptimizeOptions {
        workers: resolve::workers(args)?,
        seed: args.opt_parse("seed", 0u64)?,
        ..Default::default()
    };
    let combined = CombinedModel::new(&machine, &power);
    let cancel = mathkit::sync::CancelToken::never();
    let got = if args.flag("brute") {
        optimize::brute_force(&combined, &profiles, &processes, objective, &cancel)
    } else {
        optimize::optimize(&combined, &profiles, &processes, objective, &opts, &cancel)
    }
    .map_err(CliError::from)?;

    let queues_json = |queues: &[Vec<usize>]| {
        Json::Arr(
            queues
                .iter()
                .map(|q| Json::Arr(q.iter().map(|&p| Json::str(specs[p].as_str())).collect()))
                .collect(),
        )
    };
    let mut fields = vec![
        ("machine".to_string(), Json::str(machine.name.as_str())),
        ("objective".to_string(), Json::str(objective.spec())),
        ("method".to_string(), Json::str(got.method.name())),
        ("placement".to_string(), queues_json(&got.assignment.to_queues())),
        ("power_w".to_string(), Json::Num(got.power_w)),
        ("makespan".to_string(), Json::Num(got.makespan)),
        ("evaluated".to_string(), Json::Num(got.evaluated as f64)),
        ("pruned".to_string(), Json::Num(got.pruned as f64)),
    ];
    if let Some(per_core) = baseline {
        let mut asg = Assignment::new(machine.num_cores());
        for (core, q) in per_core.iter().enumerate() {
            for &proc_idx in q {
                asg.try_assign(core, processes[proc_idx]).map_err(CliError::from)?;
            }
        }
        let power_w = combined.estimate_processor_power(&profiles, &asg).map_err(CliError::from)?;
        let makespan = combined.estimate_makespan(&profiles, &asg).map_err(CliError::from)?;
        fields.push((
            "baseline".to_string(),
            Json::Obj(vec![
                ("placement".to_string(), queues_json(&asg.to_queues())),
                ("power_w".to_string(), Json::Num(power_w)),
                ("makespan".to_string(), Json::Num(makespan)),
            ]),
        ));
    }
    let mut out = Json::Obj(fields).render();
    out.push('\n');
    Ok(out)
}

/// `mpmc simulate --assign A ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn simulate_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let machine = machine_from(args)?;
    let assign = args.opt("assign").ok_or("simulate: --assign is required")?;
    let per_core = resolve::assignment_string(assign, machine.num_cores())?;
    let duration: f64 = args.opt_parse("duration", 2.0)?;
    let seed: u64 = args.opt_parse("seed", 0xC11u64)?;

    let mut placement = Placement::idle(machine.num_cores());
    let mut region = 1u64;
    for (core, q) in per_core.iter().enumerate() {
        for name in q {
            let w = resolve::workload(name)?;
            placement
                .assign(
                    core,
                    ProcessSpec::new(
                        w.name(),
                        Box::new(w.params().generator(machine.l2_sets, region)),
                    ),
                )
                .map_err(mpmc_model::ModelError::from)?;
            region += 1;
        }
    }
    let run = simulate(
        &machine,
        placement,
        SimOptions {
            duration_s: duration,
            warmup_s: (duration * 0.25).min(1.0),
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| CliError::solver(e.to_string()))?;

    if args.flag("json") {
        use mpmc_service::json::Json;
        let procs = run
            .processes
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".to_string(), Json::str(p.name.as_str())),
                    ("core".to_string(), Json::Num(p.core as f64)),
                    ("ways".to_string(), Json::Num(p.avg_ways)),
                    ("mpa".to_string(), Json::Num(p.mpa())),
                    ("spi".to_string(), Json::Num(p.spi())),
                    ("api".to_string(), Json::Num(p.api())),
                ])
            })
            .collect();
        // Json renders f64 with shortest-round-trip formatting, so equal
        // results render identically: the CI parity gate compares this
        // summary byte for byte against committed golden files.
        let summary = Json::Obj(vec![
            ("machine".to_string(), Json::str(machine.name.as_str())),
            ("assignment".to_string(), Json::str(assign)),
            ("duration_s".to_string(), Json::Num(duration)),
            ("seed".to_string(), Json::Num(seed as f64)),
            ("processes".to_string(), Json::Arr(procs)),
            ("power_w".to_string(), Json::Num(run.avg_measured_power())),
            ("power_samples".to_string(), Json::Num(run.settled_power().len() as f64)),
            ("context_switches".to_string(), Json::Num(run.context_switches as f64)),
            ("slice_expiries".to_string(), Json::Num(run.slice_expiries as f64)),
        ]);
        let mut out = summary.render();
        out.push('\n');
        return Ok(out);
    }

    let mut out = format!("simulated \"{assign}\" on {} for {duration} s:\n", machine.name);
    out.push_str(&format!(
        "{:<10}{:>5}{:>9}{:>9}{:>13}{:>9}\n",
        "process", "core", "ways", "MPA", "SPI", "API"
    ));
    for p in &run.processes {
        out.push_str(&format!(
            "{:<10}{:>5}{:>9.2}{:>9.3}{:>13.3e}{:>9.4}\n",
            p.name,
            p.core,
            p.avg_ways,
            p.mpa(),
            p.spi(),
            p.api()
        ));
    }
    out.push_str(&format!(
        "measured processor power: {:.2} W over {} samples ({} context switches)\n",
        run.avg_measured_power(),
        run.settled_power().len(),
        run.context_switches
    ));
    Ok(out)
}

/// `mpmc trace <workload> ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn trace(args: &ParsedArgs) -> Result<String, CliError> {
    let name = args.positionals().first().ok_or("trace: which workload?")?;
    let machine = machine_from(args)?;
    let steps: u64 = args.opt_parse("steps", 100_000u64)?;
    let w = resolve::workload(name)?;
    let gen = w.params().generator(machine.l2_sets, 0);
    let (mut rec, handle) = TraceRecorder::new(Box::new(gen));
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xC11);
    for _ in 0..steps {
        cmpsim::process::AccessGenerator::next_step(&mut rec, &mut rng);
    }
    let trace =
        handle.lock().map_err(|_| CliError::solver("trace: recorder buffer poisoned"))?.clone();
    let mut out = format!("recorded {} steps of '{name}'\n", trace.len());
    if let Some(path) = args.opt("out") {
        let file = std::fs::File::create(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
        trace.write_text(file).map_err(|e| CliError::io(format!("{path}: {e}")))?;
        out.push_str(&format!("saved to {path}\n"));
    } else {
        out.push_str("(use --out FILE to save it)\n");
    }
    Ok(out)
}

/// `mpmc mrc <tracefile> ...`
///
/// # Errors
///
/// Returns a display-ready message on any failure.
pub fn mrc(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args.positionals().first().ok_or("mrc: which trace file?")?;
    let sets: usize = args.opt_parse("sets", 64usize)?;
    let assoc: usize = args.opt_parse("assoc", 16usize)?;
    if sets == 0 || assoc == 0 {
        return Err("mrc: --sets and --assoc must be positive".into());
    }
    let file = std::fs::File::open(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    // A readable file that does not parse is bad data, not an I/O fault.
    let trace = Trace::read_text(file).map_err(|e| CliError::data(format!("{path}: {e}")))?;
    let addrs: Vec<LineAddr> = trace.accesses().collect();
    if addrs.is_empty() {
        return Err(CliError::data(format!("{path}: trace contains no memory accesses")));
    }
    let mrc = miss_ratio_curve(&addrs, sets, assoc);
    let hist = stack_distance_histogram(&addrs, sets);
    let total = addrs.len() as f64;

    let mut out = format!("{path}: {} accesses, {sets} sets\n", addrs.len());
    out.push_str("ways  miss ratio\n");
    for (a, m) in mrc.iter().enumerate() {
        out.push_str(&format!("{:>4}  {m:.4}\n", a + 1));
    }
    out.push_str("\nstack-position histogram (top 8):\n");
    for (i, &c) in hist.iter().take(8).enumerate() {
        out.push_str(&format!("  pos {:>2}: {:.4}\n", i + 1, c as f64 / total));
    }
    Ok(out)
}

/// `mpmc validate [--tiny | --fast] ...`
///
/// Runs the differential model-vs-simulator sweep plus the invariant
/// and metamorphic battery (see `experiments::diffval`), writes the
/// machine-readable report to `--out` (default `VALIDATION.json`), and
/// fails with the divergence exit code if any check disagrees.
///
/// # Errors
///
/// Returns a display-ready message on any failure. A completed run whose
/// numbers disagree maps to
/// [`exit_code::DIVERGENCE`](crate::resolve::exit_code::DIVERGENCE) —
/// distinct from [`exit_code::SOLVER`](crate::resolve::exit_code::SOLVER),
/// which means the pipeline itself failed to produce a result.
pub fn validate(args: &ParsedArgs) -> Result<String, CliError> {
    use experiments::diffval::{self, DiffConfig};

    let machine = machine_from(args)?;
    let explicit_sets = args.opt("sets").is_some().then_some(machine.l2_sets);
    let mut cfg = if args.flag("tiny") {
        DiffConfig::tiny(machine)
    } else if args.flag("fast") {
        DiffConfig::fast(machine)
    } else {
        DiffConfig::full(machine)
    };
    // `tiny` shrinks the cache itself; an explicit --sets wins.
    if let Some(sets) = explicit_sets {
        cfg.machine.l2_sets = sets;
    }
    cfg.max_mixes = args.opt_parse("mixes", cfg.max_mixes)?;
    cfg.scale.seed = args.opt_parse("seed", cfg.scale.seed)?;
    cfg.scale.workers = resolve::workers(args)?;

    let report = diffval::run(&cfg).map_err(CliError::from)?;
    let out_path = args.opt("out").unwrap_or("VALIDATION.json");
    std::fs::write(out_path, report.to_json())
        .map_err(|e| CliError::io(format!("{out_path}: {e}")))?;
    let mut text = report.summary();
    text.push_str(&format!("report written to {out_path}\n"));
    if !report.pass {
        return Err(CliError::divergence(format!("validation FAILED\n{text}")));
    }
    Ok(text)
}

/// `mpmc serve ...` — the long-running prediction daemon.
///
/// With `--stdio` the session runs over stdin/stdout and the process
/// exits at end of input or after a `shutdown` request. Otherwise the
/// daemon binds `--listen` (default `127.0.0.1:0`), prints the bound
/// address as `listening on HOST:PORT`, and serves connections until a
/// `shutdown` request arrives. See the README's "Serving" section for
/// the wire protocol.
///
/// # Errors
///
/// Returns a display-ready message on any failure (a missing or bad
/// `--power` file, an unbindable address, or session I/O trouble).
pub fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    let machine = machine_from(args)?;
    let power_path = args
        .opt("power")
        .ok_or("serve: --power FILE is required (train one with 'mpmc train --out FILE')")?;
    let file =
        std::fs::File::open(power_path).map_err(|e| CliError::io(format!("{power_path}: {e}")))?;
    let power =
        persist::read_power_model(file).map_err(|e| CliError::from(e).context(power_path))?;
    // Resolve the worker count once, up front: the flag beats
    // MPMC_WORKERS, and a concrete value makes `stats` reporting honest.
    let workers = mathkit::parallel::resolve_workers(resolve::workers(args)?);
    let capacity: usize =
        args.opt_parse("cache-capacity", mpmc_model::eqcache::DEFAULT_CAPACITY)?;
    let defaults = mpmc_service::ServeOptions::default();
    let opts = mpmc_service::ServeOptions {
        workers,
        cache_capacity: capacity,
        max_line_bytes: args.opt_parse("max-line-bytes", defaults.max_line_bytes)?,
        max_connections: args.opt_parse("max-connections", defaults.max_connections)?,
        max_inflight: args.opt_parse("max-inflight", defaults.max_inflight)?,
        max_queued: args.opt_parse("max-queued", defaults.max_queued)?,
        queue_wait_ms: args.opt_parse("queue-wait-ms", defaults.queue_wait_ms)?,
        default_deadline_ms: args.opt_parse("default-deadline-ms", defaults.default_deadline_ms)?,
        breaker_window: args.opt_parse("breaker-window", defaults.breaker_window)?,
        breaker_threshold: args.opt_parse("breaker-threshold", defaults.breaker_threshold)?,
        breaker_cooldown: args.opt_parse("breaker-cooldown", defaults.breaker_cooldown)?,
        singleflight_wait_ms: args
            .opt_parse("singleflight-wait-ms", defaults.singleflight_wait_ms)?,
    };
    if opts.max_connections == 0 || opts.max_inflight == 0 {
        return Err(CliError::usage(
            "serve: --max-connections and --max-inflight must be positive",
        ));
    }
    let service = mpmc_service::PredictionService::with_options(machine, power, opts);

    if args.flag("stdio") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        service
            .run_stdio(stdin.lock(), stdout.lock())
            .map_err(|e| CliError::io(format!("serve: {e}")))?;
        return Ok(String::new());
    }

    let addr = args.opt("listen").unwrap_or("127.0.0.1:0");
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let local = listener.local_addr().map_err(|e| CliError::io(format!("serve: {e}")))?;
    // Announce the bound address immediately (port 0 binds an ephemeral
    // port) so scripts can connect before the daemon returns.
    println!("listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    service.run_tcp(listener).map_err(|e| CliError::io(format!("serve: {e}")))?;
    Ok(format!("service on {local} stopped after shutdown request\n"))
}

/// `mpmc lint [--format text|json] [--config FILE]`
///
/// Runs the workspace static analyzer from the enclosing workspace root
/// (found by walking up from the current directory). `--config` defaults
/// to `<root>/lint.toml` when that file exists.
fn lint_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let format = args.opt("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(CliError::usage(format!("--format must be text or json, got '{format}'")));
    }
    let cwd = std::env::current_dir().map_err(|e| CliError::io(format!("getcwd: {e}")))?;
    let root = mpmc_lint::find_workspace_root(&cwd).map_err(CliError::io)?;
    let mut cfg = mpmc_lint::Config::default();
    match args.opt("config") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
            cfg.apply_toml(&text).map_err(CliError::data)?;
        }
        None => {
            let default = root.join("lint.toml");
            if default.is_file() {
                let text = std::fs::read_to_string(&default)
                    .map_err(|e| CliError::io(format!("{}: {e}", default.display())))?;
                cfg.apply_toml(&text).map_err(CliError::data)?;
            }
        }
    }
    let report = mpmc_lint::run(&root, &cfg).map_err(CliError::io)?;
    let rendered = if format == "json" { report.render_json() } else { report.render_text() };
    if report.exit_code() == 0 {
        Ok(rendered)
    } else {
        // The findings themselves are the error message; stderr + exit 8.
        Err(CliError::lint(rendered))
    }
}

/// A subcommand implementation.
type Command = fn(&ParsedArgs) -> Result<String, CliError>;

/// The boolean switches; every other `--name` takes a value.
const FLAGS: &[&str] = &["fast", "strict", "tiny", "stdio", "optimize", "brute", "json"];

/// Every subcommand with the options and flags it reads, separated by
/// spaces. [`dispatch`] refuses any other `--name`, so a misspelt or
/// retired option is a usage error instead of a silent default.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("machines", "", |_| Ok(machines())),
    ("workloads", "", |_| Ok(workloads_cmd())),
    ("profile", "machine sets fast out", profile),
    ("predict", "machine sets strict", predict),
    ("train", "machine sets fast out", train),
    ("estimate", "assign machine sets power fast", estimate),
    (
        "assign",
        "machine sets optimize objective power fast workers seed brute baseline",
        assign_cmd,
    ),
    ("simulate", "assign machine sets duration seed json", simulate_cmd),
    ("trace", "machine sets steps out", trace),
    ("mrc", "sets assoc", mrc),
    ("validate", "tiny fast machine sets mixes seed workers out", validate),
    (
        "serve",
        "power stdio listen machine sets workers cache-capacity max-line-bytes max-connections \
         max-inflight max-queued queue-wait-ms default-deadline-ms breaker-window \
         breaker-threshold breaker-cooldown singleflight-wait-ms",
        serve,
    ),
    ("lint", "format config", lint_cmd),
];

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] carrying a display-ready message and the
/// process exit code for the failure class (see
/// [`resolve::exit_code`](crate::resolve::exit_code)).
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some(&(_, accepted, command)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(CliError::usage(format!("unknown command '{cmd}'\n\n{USAGE}")));
    };
    let args = ParsedArgs::parse(rest.iter().cloned(), FLAGS)?;
    if let Some(name) = args.names().find(|name| !accepted.split_whitespace().any(|a| a == *name)) {
        return Err(CliError::usage(format!("{cmd}: unknown option --{name} (see 'mpmc help')")));
    }
    command(&args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::exit_code;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_and_listings() {
        assert!(run(&["help"]).unwrap().contains("usage"));
        assert!(run(&["machines"]).unwrap().contains("server"));
        assert!(run(&["workloads"]).unwrap().contains("mcf"));
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn predict_with_builtin_names() {
        let out = run(&["predict", "mcf", "gzip"]).unwrap();
        assert!(out.contains("mcf"));
        assert!(out.contains("gzip"));
        assert!(out.contains("ways"));
        assert!(out.contains("solver:"), "diagnostics line missing: {out}");
        assert!(run(&["predict", "mcf"]).is_err());
        assert!(run(&["predict", "mcf", "nope"]).is_err());
    }

    #[test]
    fn predict_strict_accepts_clean_solves() {
        // A well-conditioned pair solves directly; --strict must not
        // reject it, and the diagnostics line still prints.
        let out = run(&["predict", "mcf", "gzip", "--strict"]).unwrap();
        assert!(out.contains("solver:"));
        assert!(!out.contains("DEGRADED"));
    }

    #[test]
    fn exit_codes_classify_failures() {
        // Usage: unknown command, unknown machine, missing args.
        assert_eq!(run(&["frobnicate"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["predict", "mcf", "gzip", "--machine", "toaster"]).unwrap_err().code,
            exit_code::USAGE
        );
        assert_eq!(run(&["predict", "mcf"]).unwrap_err().code, exit_code::USAGE);

        // I/O: a path that does not exist at all (mrc requires a file).
        assert_eq!(run(&["mrc", "/nonexistent/file"]).unwrap_err().code, exit_code::IO);

        // Invalid data: a file that exists but fails validation.
        let path = std::env::temp_dir().join("mpmc_cli_bad_profile.txt");
        std::fs::write(&path, "api NaN\nassoc 16\n").unwrap();
        let err = run(&["predict", path.to_str().unwrap(), "mcf"]).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA, "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lint_subcommand_runs_clean_on_this_workspace() {
        let out = run(&["lint"]).expect("the workspace must stay lint-clean");
        assert!(out.contains("0 errors"), "{out}");
        let out = run(&["lint", "--format", "json"]).expect("json format");
        assert!(
            out.contains("\"tool\": \"mpmc-lint\"") || out.contains("\"tool\":\"mpmc-lint\""),
            "{out}"
        );
        assert_eq!(run(&["lint", "--format", "yaml"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["lint", "--config", "/nonexistent-lint.toml"]).unwrap_err().code,
            exit_code::IO
        );
    }

    #[test]
    fn simulate_small_machine() {
        let out = run(&[
            "simulate",
            "--assign",
            "gzip;twolf",
            "--machine",
            "workstation",
            "--sets",
            "64",
            "--duration",
            "0.3",
        ])
        .unwrap();
        assert!(out.starts_with("simulated \"gzip;twolf\" on "), "{out}");
        assert!(out.contains("gzip"));
        assert!(out.contains("measured processor power"));
        assert!(run(&["simulate"]).is_err());
        assert!(run(&["simulate", "--assign", "a;b;c", "--machine", "duo"]).is_err());
    }

    #[test]
    fn commands_reject_options_they_do_not_read() {
        let base = [
            "simulate",
            "--assign",
            "gzip;twolf",
            "--machine",
            "workstation",
            "--sets",
            "64",
            "--duration",
            "0.3",
        ];
        let with = |extra: &[&str]| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            run(&argv)
        };
        // A retired option and a misspelt one: both refused by name
        // before anything runs.
        for (extra, name) in [(["--engine", "lockstep"], "--engine"), (["--sest", "64"], "--sest")]
        {
            let err = with(&extra).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{extra:?}");
            assert!(err.message.contains(name), "{}", err.message);
        }
        // Flags are per command too.
        let err = run(&["predict", "mcf", "gzip", "--fast"]).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
        assert!(err.message.contains("--fast"), "{}", err.message);
        assert_eq!(run(&["machines", "--machine", "duo"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["validate", "--tiny", "--engine", "nope"]).unwrap_err().code,
            exit_code::USAGE
        );
        // Warm start is retired: its old switch is refused by name in
        // either position, before `serve` looks for its power model.
        for argv in [["serve", "--stdio", "--warm-start"], ["serve", "--warm-start", "--stdio"]] {
            let err = run(&argv).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{argv:?}");
            assert!(err.message.contains("--warm-start"), "{}", err.message);
        }
    }

    #[test]
    fn simulate_json_matches_the_committed_workstation_golden() {
        // CI's workstation parity run, byte for byte against the file the
        // CI gate `cmp`s. The duration exceeds the 1 s preset timeslice,
        // so the time-shared pair switches.
        let out = run(&[
            "simulate",
            "--assign",
            "mcf,gzip;art",
            "--machine",
            "workstation",
            "--sets",
            "64",
            "--duration",
            "2.2",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        assert_eq!(out, include_str!("../../../tests/golden/simulate_workstation.json"));
        let parsed = mpmc_service::json::parse(out.trim()).unwrap();
        assert_eq!(parsed.get("processes").and_then(|p| p.as_arr()).unwrap().len(), 3);
        assert!(parsed.get("slice_expiries").and_then(|n| n.as_f64()).unwrap() > 0.0);
        assert!(parsed.get("context_switches").and_then(|n| n.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn trace_and_mrc_roundtrip() {
        let path = std::env::temp_dir().join("mpmc_cli_trace_test.txt");
        let path_s = path.to_str().unwrap();
        let out =
            run(&["trace", "twolf", "--steps", "3000", "--out", path_s, "--sets", "32"]).unwrap();
        assert!(out.contains("recorded 3000"));
        let out = run(&["mrc", path_s, "--sets", "32", "--assoc", "8"]).unwrap();
        assert!(out.contains("miss ratio"));
        let _ = std::fs::remove_file(&path);
        assert!(run(&["mrc", "/nonexistent/file"]).is_err());
    }

    #[test]
    fn validate_tiny_writes_report() {
        let path = std::env::temp_dir().join("mpmc_cli_validation_test.json");
        let path_s = path.to_str().unwrap();
        let out = run(&["validate", "--tiny", "--mixes", "2", "--out", path_s]).unwrap();
        assert!(out.contains("verdict: PASS"), "{out}");
        assert!(out.contains("report written to"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"mixes\""));
        let _ = std::fs::remove_file(&path);
        // Unwritable report path is an I/O failure.
        let err = run(&["validate", "--tiny", "--mixes", "2", "--out", "/nonexistent-dir/v.json"])
            .unwrap_err();
        assert_eq!(err.code, exit_code::IO);
    }

    #[test]
    fn serve_argument_errors() {
        // Missing --power is usage; an unreadable file is I/O; a bad
        // worker count is usage — all without ever binding a socket.
        assert_eq!(run(&["serve"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["serve", "--power", "/nonexistent/power.txt"]).unwrap_err().code,
            exit_code::IO
        );
        let path = std::env::temp_dir().join("mpmc_cli_serve_power_test.txt");
        let model =
            mpmc_model::power::PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7])
                .unwrap();
        let file = std::fs::File::create(&path).unwrap();
        persist::write_power_model(&model, file).unwrap();
        let path_s = path.to_str().unwrap();
        for bad_workers in ["0", "many"] {
            let err = run(&["serve", "--power", path_s, "--workers", bad_workers]).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "--workers {bad_workers}");
        }
        // Overload-limit flags must parse; zero caps that would make the
        // daemon unreachable are rejected up front.
        for bad in [
            ["--max-inflight", "none"],
            ["--queue-wait-ms", "-1"],
            ["--max-line-bytes", "big"],
            ["--max-connections", "0"],
            ["--max-inflight", "0"],
        ] {
            let err = run(&["serve", "--power", path_s, bad[0], bad[1]]).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{bad:?}");
        }
        // A power file that parses but is not a power model is bad data.
        let bad = std::env::temp_dir().join("mpmc_cli_serve_bad_power_test.txt");
        std::fs::write(&bad, "mpmc-power v1\nidle nope\n").unwrap();
        let err = run(&["serve", "--power", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA, "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn assign_argument_errors() {
        // All of these fail before any profiling or training happens.
        assert_eq!(run(&["assign", "gzip", "twolf"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(run(&["assign", "--optimize"]).unwrap_err().code, exit_code::USAGE);
        let err = run(&["assign", "gzip", "--optimize", "--objective", "speed"]).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
        assert!(err.message.contains("unknown objective"), "{}", err.message);
        assert_eq!(
            run(&["assign", "gzip", "--optimize", "--objective", "capped:-1"]).unwrap_err().code,
            exit_code::USAGE
        );
    }

    #[test]
    fn assign_optimize_reports_placement_brute_agrees_and_infeasible_cap_exits_solver() {
        // Profile once to a file and train nothing: the power model comes
        // from a synthetic file, so the optimizer dominates the runtime.
        let dir = std::env::temp_dir();
        let power_path = dir.join("mpmc_cli_assign_power_test.txt");
        let model =
            mpmc_model::power::PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7])
                .unwrap();
        persist::write_power_model(&model, std::fs::File::create(&power_path).unwrap()).unwrap();
        let prof_path = dir.join("mpmc_cli_assign_prof_test.txt");
        let prof_s = prof_path.to_str().unwrap();
        run(&[
            "profile",
            "gzip",
            "--machine",
            "workstation",
            "--sets",
            "32",
            "--fast",
            "--out",
            prof_s,
        ])
        .unwrap();
        let power_s = power_path.to_str().unwrap();
        let base = [
            "assign",
            prof_s,
            prof_s,
            "--optimize",
            "--machine",
            "workstation",
            "--sets",
            "32",
            "--power",
            power_s,
            "--baseline",
            "0,1",
        ];

        let out = run(&base).unwrap();
        let got = mpmc_service::json::parse(&out).unwrap();
        assert_eq!(got.get("method").and_then(|j| j.as_str()), Some("exact"));
        assert_eq!(got.get("objective").and_then(|j| j.as_str()), Some("power"));
        let placement = got.get("placement").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(placement.len(), 2, "one queue per workstation core");
        let placed: usize = placement.iter().map(|q| q.as_arr().map_or(0, <[_]>::len)).sum();
        assert_eq!(placed, 2, "both processes placed: {out}");
        let power_w = got.get("power_w").and_then(|j| j.as_f64()).unwrap();
        assert!(power_w.is_finite() && power_w > 0.0, "{out}");
        assert!(got.get("makespan").and_then(|j| j.as_f64()).unwrap() > 0.0, "{out}");
        // The baseline piles both processes on core 0; the optimizer can
        // never do worse than it.
        let baseline = got.get("baseline").unwrap();
        let baseline_power = baseline.get("power_w").and_then(|j| j.as_f64()).unwrap();
        assert!(power_w <= baseline_power, "{out}");

        // Brute force over all 4 raw placements lands on the same power.
        let brute_argv: Vec<&str> = base.iter().copied().chain(["--brute"]).collect();
        let brute = mpmc_service::json::parse(&run(&brute_argv).unwrap()).unwrap();
        let brute_power = brute.get("power_w").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(power_w.to_bits(), brute_power.to_bits());
        assert!(
            got.get("evaluated").and_then(|j| j.as_f64()).unwrap()
                <= brute.get("evaluated").and_then(|j| j.as_f64()).unwrap(),
            "symmetry pruning never evaluates more than brute force"
        );

        // A baseline that misses a process, duplicates one, or names too
        // many cores is a usage error before any solving happens.
        for bad in ["0", "0;0", "0;1;0"] {
            let argv: Vec<String> = base
                .iter()
                .map(|s| if *s == "0,1" { bad.to_string() } else { (*s).to_string() })
                .collect();
            assert_eq!(dispatch(&argv).unwrap_err().code, exit_code::USAGE, "baseline {bad}");
        }

        // An impossible power cap is a solver-domain failure (exit 4)
        // carrying the least-power placement as a diagnostic.
        let argv: Vec<&str> = base.iter().copied().chain(["--objective", "capped:0.5"]).collect();
        let err = dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err();
        assert_eq!(err.code, exit_code::SOLVER, "{err}");
        assert!(err.message.contains("infeasible"), "{err}");

        let _ = std::fs::remove_file(&power_path);
        let _ = std::fs::remove_file(&prof_path);
    }

    #[test]
    fn profile_and_estimate_on_tiny_machine() {
        let path = std::env::temp_dir().join("mpmc_cli_prof_test.txt");
        let path_s = path.to_str().unwrap();
        let out = run(&[
            "profile",
            "gzip",
            "--machine",
            "workstation",
            "--sets",
            "32",
            "--fast",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("API"));
        assert!(out.contains("saved"));
        // The saved profile feeds predict.
        let out =
            run(&["predict", path_s, "mcf", "--machine", "workstation", "--sets", "32"]).unwrap();
        assert!(out.contains("gzip"));
        let _ = std::fs::remove_file(&path);
    }
}
