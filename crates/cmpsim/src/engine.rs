//! Multi-core simulation: shared world state, the run entry point, and
//! the result types.
//!
//! Each core advances a local clock in cycles; steps execute in global
//! start-time order, so accesses to a die's shared L2 interleave in global
//! time order. The feedback loop the paper's equilibrium model captures
//! arises naturally here: a process that misses more runs slower, therefore
//! issues fewer L2 accesses per second, therefore inserts lines more slowly
//! and holds less of the cache.
//!
//! The schedule is the min-clock rule: the next step belongs to the live
//! core with the smallest clock, ties going to the lowest core index (a
//! strict `<` over cores in index order). Before that step picks its
//! process, every slice boundary at or before its start rotates the core's
//! scheduler, and every occupancy snapshot on the sampling grid at or
//! before its start fires. [`simulate`] runs this schedule on the
//! discrete-event kernel in `crate::events`, one event heap per busy die,
//! which also places processes that arrive or depart mid-run
//! ([`crate::process::ProcessSpec::with_arrival`] /
//! [`with_departure`](crate::process::ProcessSpec::with_departure)).
//!
//! The engine also emulates the measurement infrastructure: per-core HPC
//! sampling at the machine's sampling period and the current-clamp power
//! measurement chain of [`crate::power`].

use crate::cache::SetAssocCache;
use crate::hpc::{CounterSet, EventRates};
use crate::machine::MachineConfig;
use crate::power::measure_power;
use crate::prefetch::{NextLinePrefetcher, PrefetchConfig};
use crate::process::ProcessSpec;
use crate::sched::TimeSliceScheduler;
use crate::types::{Cycles, ProcessId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Error type for simulation setup problems.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The placement does not match the machine topology or is malformed.
    InvalidPlacement(String),
    /// Options are out of domain (e.g. non-positive duration).
    InvalidOptions(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
            SimError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A process-to-core placement: `per_core[c]` lists the processes that
/// time-share core `c` (may be empty for an idle core).
#[derive(Debug, Default)]
pub struct Placement {
    /// Processes per core, indexed by core id.
    pub per_core: Vec<Vec<ProcessSpec>>,
}

impl Placement {
    /// Creates an all-idle placement for `num_cores` cores.
    pub fn idle(num_cores: usize) -> Self {
        Placement { per_core: (0..num_cores).map(|_| Vec::new()).collect() }
    }

    /// Adds a process to `core`'s run queue.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlacement`] if `core` is out of range.
    pub fn assign(&mut self, core: usize, spec: ProcessSpec) -> Result<&mut Self, SimError> {
        let num_cores = self.per_core.len();
        match self.per_core.get_mut(core) {
            Some(queue) => {
                queue.push(spec);
                Ok(self)
            }
            None => Err(SimError::InvalidPlacement(format!(
                "core {core} out of range for {num_cores} cores"
            ))),
        }
    }

    /// Total number of processes in the placement.
    pub fn num_processes(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }
}

/// Options controlling one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Simulated duration in (scaled) seconds.
    pub duration_s: f64,
    /// Leading warmup excluded from process statistics (seconds).
    pub warmup_s: f64,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Hardware prefetcher configuration; `None` disables prefetching
    /// (the paper's default assumption).
    pub prefetch: Option<PrefetchConfig>,
    /// Per-core scheduler weights (`weights[c][p]`); `None` means equal
    /// weights, the paper's assumption.
    pub weights: Option<Vec<Vec<f64>>>,
    /// Way-partitioning quotas: `(process index in placement order, ways)`
    /// pairs applied to the process's shared L2. Empty means free LRU
    /// sharing (the paper's setting).
    pub way_quotas: Vec<(u32, usize)>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            duration_s: 2.0,
            warmup_s: 0.5,
            seed: 0xD1C5,
            prefetch: None,
            weights: None,
            way_quotas: Vec::new(),
        }
    }
}

/// Per-process statistics over the post-warmup window.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessStats {
    /// Dense process id (placement order).
    pub pid: ProcessId,
    /// Display name from the [`ProcessSpec`].
    pub name: String,
    /// Core the process ran on.
    pub core: usize,
    /// Post-warmup event totals.
    pub counters: CounterSet,
    /// Seconds the process was actually scheduled post-warmup.
    pub active_seconds: f64,
    /// Time-averaged ways per set occupied in the shared L2 — the measured
    /// *effective cache size* `S_i`.
    pub avg_ways: f64,
}

impl ProcessStats {
    /// Seconds per instruction while scheduled (the paper's SPI).
    pub fn spi(&self) -> f64 {
        if self.counters.instructions == 0 {
            return f64::INFINITY;
        }
        self.active_seconds / self.counters.instructions as f64
    }

    /// L2 misses per L2 access (the paper's MPA).
    pub fn mpa(&self) -> f64 {
        if self.counters.l2_refs == 0 {
            return 0.0;
        }
        self.counters.l2_misses as f64 / self.counters.l2_refs as f64
    }

    /// L2 accesses per instruction (the paper's API).
    pub fn api(&self) -> f64 {
        if self.counters.instructions == 0 {
            return 0.0;
        }
        self.counters.l2_refs as f64 / self.counters.instructions as f64
    }

    /// L1 references per instruction (paper: L1RPI).
    pub fn l1rpi(&self) -> f64 {
        safe_div(self.counters.l1_refs, self.counters.instructions)
    }

    /// L2 references per instruction (paper: L2RPI, identical to API for
    /// the L2-last-level machines modeled here).
    pub fn l2rpi(&self) -> f64 {
        self.api()
    }

    /// Branches per instruction (paper: BRPI).
    pub fn brpi(&self) -> f64 {
        safe_div(self.counters.branches, self.counters.instructions)
    }

    /// FP operations per instruction (paper: FPPI).
    pub fn fppi(&self) -> f64 {
        safe_div(self.counters.fp_ops, self.counters.instructions)
    }
}

fn safe_div(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One processor-level power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sampling period index from simulation start.
    pub period: usize,
    /// Period start time in seconds.
    pub t_start: f64,
    /// Noise-free ground-truth processor power (W) — available only
    /// because this is a simulator; the models never see it.
    pub true_watts: f64,
    /// Power as seen through the clamp/DAQ chain (W) — what the paper's
    /// experiments compare against.
    pub measured_watts: f64,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-process post-warmup statistics, in placement order.
    pub processes: Vec<ProcessStats>,
    /// Per-core, per-period event rates: `core_samples[core][period]`.
    pub core_samples: Vec<Vec<EventRates>>,
    /// Processor-level power samples, one per period.
    pub power: Vec<PowerSample>,
    /// Sampling period in seconds.
    pub sample_period_s: f64,
    /// Index of the first post-warmup period.
    pub warmup_periods: usize,
    /// Total context switches across all cores.
    pub context_switches: u64,
    /// Total scheduler slice expiries across all cores. Solo processes
    /// expire slices without switching (the paper's §4.2 accounting still
    /// slices them), so this exceeds `context_switches` whenever a core
    /// runs exactly one process.
    pub slice_expiries: u64,
    /// Total prefetch lines inserted (0 when prefetching is disabled).
    pub prefetches_issued: u64,
}

impl SimResult {
    /// Power samples from the post-warmup window only.
    pub fn settled_power(&self) -> &[PowerSample] {
        &self.power[self.warmup_periods.min(self.power.len())..]
    }

    /// Mean measured processor power over the post-warmup window.
    pub fn avg_measured_power(&self) -> f64 {
        let s = self.settled_power();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(|p| p.measured_watts).sum::<f64>() / s.len() as f64
    }

    /// Per-core event rates for post-warmup periods:
    /// `rates[period - warmup][core]`.
    pub fn settled_core_rates(&self) -> Vec<Vec<EventRates>> {
        let start = self.warmup_periods;
        let periods = self.power.len();
        (start..periods).map(|p| self.core_samples.iter().map(|cs| cs[p]).collect()).collect()
    }

    /// Finds the stats of the process named `name`.
    pub fn process(&self, name: &str) -> Option<&ProcessStats> {
        self.processes.iter().find(|p| p.name == name)
    }

    /// Mean *ground-truth* processor power over the post-warmup window
    /// (no clamp/DAQ noise). Only a simulator can provide this; the
    /// differential validation harness uses it as the oracle the power
    /// model is judged against, separating model error from
    /// measurement-chain error.
    pub fn avg_true_power(&self) -> f64 {
        let s = self.settled_power();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(|p| p.true_watts).sum::<f64>() / s.len() as f64
    }

    /// Extracts, per process in placement order, the measured quantities
    /// the performance model predicts — the replay oracle for
    /// differential (model-vs-simulator) validation.
    pub fn oracle_observables(&self) -> Vec<OracleObservables> {
        self.processes
            .iter()
            .map(|p| OracleObservables {
                name: p.name.clone(),
                avg_ways: p.avg_ways,
                mpa: p.mpa(),
                spi: p.spi(),
                api: p.api(),
            })
            .collect()
    }
}

/// The per-process measurements a differential check compares model
/// predictions against: effective cache size `S_i` (time-averaged ways),
/// miss ratio `MPA_i`, speed `SPI_i`, and access rate `API_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleObservables {
    /// Display name from the [`ProcessSpec`].
    pub name: String,
    /// Time-averaged ways per set occupied in the shared L2.
    pub avg_ways: f64,
    /// L2 misses per L2 access.
    pub mpa: f64,
    /// Seconds per instruction while scheduled.
    pub spi: f64,
    /// L2 accesses per instruction.
    pub api: f64,
}

pub(crate) struct ProcState {
    pub(crate) pid: ProcessId,
    pub(crate) name: String,
    pub(crate) core: usize,
    pub(crate) weight: f64,
    /// Arrival time in cycles (0 = present from the start).
    pub(crate) arrival: Cycles,
    /// Departure time in cycles (`Cycles::MAX` = runs to the end).
    pub(crate) departure: Cycles,
    pub(crate) gen: Box<dyn crate::process::AccessGenerator>,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) counters: CounterSet,
    pub(crate) active_cycles: Cycles,
    pub(crate) occupancy_sum: f64,
    pub(crate) occupancy_snaps: u64,
}

pub(crate) struct CoreState {
    pub(crate) clock: Cycles,
    pub(crate) die: usize,
    /// Currently runnable processes (global indices) in placement order;
    /// arrivals append to it and departures remove from it.
    pub(crate) run: Vec<usize>,
    pub(crate) sched: Option<TimeSliceScheduler>,
    /// Slice expiries retired with the schedulers of emptied cores.
    pub(crate) retired_expiries: u64,
    /// Processes placed here that have not arrived yet.
    pub(crate) pending_arrivals: usize,
    pub(crate) buckets: Vec<CounterSet>,
    /// Current HPC bucket (`clock / period_cycles`, capped at the
    /// overflow bucket) tracked incrementally so the per-step attribution
    /// needs no division.
    pub(crate) bucket: usize,
    /// Clock at which `bucket` advances (`(bucket + 1) * period_cycles`).
    pub(crate) bucket_edge: Cycles,
    pub(crate) done: bool,
}

/// The validated, constructed simulation state plus the derived timing
/// constants. The kernel runs it to completion, then [`SimResult`] is
/// assembled from it; every RNG stream is seeded here, before the first
/// step, so a run's results depend only on its schedule.
pub(crate) struct SimWorld {
    pub(crate) procs: Vec<ProcState>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) l2s: Vec<SetAssocCache>,
    pub(crate) prefetchers: Vec<Option<NextLinePrefetcher>>,
    pub(crate) end_cycles: Cycles,
    pub(crate) warmup_cycles: Cycles,
    pub(crate) period_cycles: Cycles,
    pub(crate) num_buckets: usize,
    pub(crate) timeslice: Cycles,
    /// Seed for the power-measurement RNG, drawn from the master RNG at a
    /// fixed point in its stream (after per-process seeding), so the noise
    /// does not depend on how the run was scheduled.
    power_seed: u64,
    pub(crate) context_switches: u64,
    pub(crate) slice_expiries: u64,
}

/// Cycle counts stay safely below this so bucket-edge and clock arithmetic
/// cannot overflow `u64` even after whole-run additions.
const MAX_SIM_CYCLES: f64 = (1u64 << 62) as f64;

/// Runs one simulation on the event kernel.
///
/// # Errors
///
/// Returns [`SimError`] if the placement does not match the machine's core
/// count, weights are malformed, options are out of domain (including a
/// duration whose cycle count would overflow), or a residency window is
/// inverted or starts after the run ends.
///
/// # Examples
///
/// See the `workloads` crate and `examples/quickstart.rs` for realistic
/// generators; a minimal run with an idle machine:
///
/// ```
/// use cmpsim::engine::{simulate, Placement, SimOptions};
/// use cmpsim::machine::MachineConfig;
///
/// # fn main() -> Result<(), cmpsim::engine::SimError> {
/// let m = MachineConfig::two_core_workstation();
/// let r = simulate(&m, Placement::idle(2), SimOptions { duration_s: 0.2, warmup_s: 0.0, ..Default::default() })?;
/// assert!(r.avg_measured_power() > 0.0); // idle power is still power
/// # Ok(())
/// # }
/// ```
pub fn simulate(
    machine: &MachineConfig,
    placement: Placement,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let mut world = build_world(machine, placement, &opts)?;
    crate::events::run(&mut world, machine)?;
    Ok(finish(world, machine))
}

/// Validates options and placement and constructs the shared world.
fn build_world(
    machine: &MachineConfig,
    placement: Placement,
    opts: &SimOptions,
) -> Result<SimWorld, SimError> {
    let num_cores = machine.num_cores();
    if placement.per_core.len() != num_cores {
        return Err(SimError::InvalidPlacement(format!(
            "placement has {} cores, machine has {num_cores}",
            placement.per_core.len()
        )));
    }
    if !opts.duration_s.is_finite() || opts.duration_s <= 0.0 {
        return Err(SimError::InvalidOptions("duration must be positive".into()));
    }
    if opts.warmup_s < 0.0 || opts.warmup_s >= opts.duration_s {
        return Err(SimError::InvalidOptions("warmup must lie in [0, duration)".into()));
    }
    // The f64 -> u64 cast saturates silently; a duration whose cycle count
    // leaves the representable range must be a typed error, not a silent
    // truncation of the run.
    let end_f = opts.duration_s * machine.freq_hz;
    if !end_f.is_finite() || end_f >= MAX_SIM_CYCLES {
        return Err(SimError::InvalidOptions(format!(
            "duration {} s at {} Hz does not fit the cycle clock",
            opts.duration_s, machine.freq_hz
        )));
    }
    if let Some(w) = &opts.weights {
        if w.len() != num_cores {
            return Err(SimError::InvalidOptions(format!(
                "weights cover {} cores, machine has {num_cores}",
                w.len()
            )));
        }
    }

    let end_cycles = end_f.round() as Cycles;
    let warmup_cycles = (opts.warmup_s * machine.freq_hz).round() as Cycles;
    let period_cycles = machine.sample_period_cycles().max(1);
    let num_buckets = (end_cycles / period_cycles) as usize;
    let timeslice = machine.timeslice_cycles().max(1);

    let mut master_rng = ChaCha8Rng::seed_from_u64(opts.seed);

    // Flatten processes; build cores. Process ids, RNG seeds, and weights
    // are assigned in placement order regardless of arrival times, so a
    // run's identity never depends on its schedule.
    let mut procs: Vec<ProcState> = Vec::new();
    let mut cores: Vec<CoreState> = Vec::new();
    for (c, specs) in placement.per_core.into_iter().enumerate() {
        let die = machine.die_of(crate::types::CoreId(c as u32)).0 as usize;
        if let Some(w) = &opts.weights {
            if w[c].len() != specs.len() {
                return Err(SimError::InvalidOptions(format!(
                    "core {c} has {} processes but {} weights",
                    specs.len(),
                    w[c].len()
                )));
            }
            // Validate values up front: a late-arriving process must not
            // surface a weight error mid-run.
            if w[c].iter().any(|&x| !x.is_finite() || x <= 0.0) {
                return Err(SimError::InvalidOptions(format!(
                    "core {c} weights must be positive and finite"
                )));
            }
        }
        let mut run = Vec::new();
        let mut pending_arrivals = 0usize;
        for (k, spec) in specs.into_iter().enumerate() {
            let arrival = spec.arrival_cycles.unwrap_or(0);
            let departure = spec.departure_cycles.unwrap_or(Cycles::MAX);
            if spec.arrival_cycles.is_some() || spec.departure_cycles.is_some() {
                if departure <= arrival {
                    return Err(SimError::InvalidPlacement(format!(
                        "process '{}' on core {c} departs at {departure} cycles, at or \
                         before its arrival at {arrival}",
                        spec.name
                    )));
                }
                if arrival >= end_cycles {
                    return Err(SimError::InvalidPlacement(format!(
                        "process '{}' on core {c} arrives at {arrival} cycles, at or after \
                         the end of the run ({end_cycles})",
                        spec.name
                    )));
                }
            }
            let pid = ProcessId(procs.len() as u32);
            if arrival == 0 {
                run.push(procs.len());
            } else {
                pending_arrivals += 1;
            }
            procs.push(ProcState {
                pid,
                name: spec.name,
                core: c,
                weight: opts.weights.as_ref().map_or(1.0, |w| w[c][k]),
                arrival,
                departure,
                gen: spec.generator,
                rng: ChaCha8Rng::seed_from_u64(master_rng.gen()),
                counters: CounterSet::new(),
                active_cycles: 0,
                occupancy_sum: 0.0,
                occupancy_snaps: 0,
            });
        }
        let sched = if run.is_empty() {
            None
        } else {
            let weights: Vec<f64> = run.iter().map(|&pi| procs[pi].weight).collect();
            Some(
                TimeSliceScheduler::new(run.len(), timeslice, &weights)
                    .map_err(SimError::InvalidOptions)?,
            )
        };
        let done = run.is_empty() && pending_arrivals == 0;
        cores.push(CoreState {
            clock: 0,
            die,
            run,
            sched,
            retired_expiries: 0,
            pending_arrivals,
            buckets: vec![CounterSet::new(); num_buckets + 1],
            bucket: 0,
            bucket_edge: period_cycles,
            done,
        });
    }

    let mut l2s: Vec<SetAssocCache> =
        (0..machine.dies).map(|_| SetAssocCache::new(machine.l2_sets, machine.l2_assoc)).collect();
    for &(pid, ways) in &opts.way_quotas {
        if pid as usize >= procs.len() {
            return Err(SimError::InvalidOptions(format!(
                "way quota for process {pid}, but only {} processes placed",
                procs.len()
            )));
        }
        if ways == 0 || ways > machine.l2_assoc {
            return Err(SimError::InvalidOptions(format!(
                "way quota {ways} out of range 1..={}",
                machine.l2_assoc
            )));
        }
        let die = cores[procs[pid as usize].core].die;
        l2s[die].set_way_quota(ProcessId(pid), ways);
    }
    let prefetchers: Vec<Option<NextLinePrefetcher>> =
        (0..machine.dies).map(|_| opts.prefetch.map(NextLinePrefetcher::new)).collect();

    let power_seed = master_rng.gen();
    Ok(SimWorld {
        procs,
        cores,
        l2s,
        prefetchers,
        end_cycles,
        warmup_cycles,
        period_cycles,
        num_buckets,
        timeslice,
        power_seed,
        context_switches: 0,
        slice_expiries: 0,
    })
}

impl SimWorld {
    /// A world with this one's timing constants and power seed, the given
    /// die state, and empty core and process tables.
    fn sub_world(&self, l2: SetAssocCache, prefetcher: Option<NextLinePrefetcher>) -> SimWorld {
        SimWorld {
            procs: Vec::new(),
            cores: Vec::new(),
            l2s: vec![l2],
            prefetchers: vec![prefetcher],
            end_cycles: self.end_cycles,
            warmup_cycles: self.warmup_cycles,
            period_cycles: self.period_cycles,
            num_buckets: self.num_buckets,
            timeslice: self.timeslice,
            power_seed: self.power_seed,
            context_switches: 0,
            slice_expiries: 0,
        }
    }

    /// Moves this world's state into one single-die sub-world per die, in
    /// die order, and leaves `self` with empty tables.
    ///
    /// A die owns a contiguous range of cores (`MachineConfig::die_of`)
    /// and `build_world` flattens processes in core order, so each die's
    /// cores and processes are contiguous runs of the world's tables. A
    /// sub-world indexes them locally, by subtracting the start of the
    /// run; process ids stay global, because the L2 keys line ownership
    /// and way quotas by them.
    pub(crate) fn split_by_die(&mut self) -> Vec<SimWorld> {
        debug_assert!(self.cores.windows(2).all(|w| w[0].die <= w[1].die), "dies not contiguous");
        let mut dies: Vec<SimWorld> = std::mem::take(&mut self.l2s)
            .into_iter()
            .zip(std::mem::take(&mut self.prefetchers))
            .map(|(l2, prefetcher)| self.sub_world(l2, prefetcher))
            .collect();
        // Both die columns are sorted, so a die's run starts where the
        // earlier dies' entries end.
        let core_die: Vec<usize> = self.cores.iter().map(|c| c.die).collect();
        let proc_die: Vec<usize> = self.procs.iter().map(|p| core_die[p.core]).collect();
        for mut core in std::mem::take(&mut self.cores) {
            let die = core.die;
            let first_proc = proc_die.partition_point(|&d| d < die);
            core.die = 0;
            core.run.iter_mut().for_each(|pi| *pi -= first_proc);
            dies[die].cores.push(core);
        }
        for (mut p, die) in std::mem::take(&mut self.procs).into_iter().zip(proc_die) {
            p.core -= core_die.partition_point(|&d| d < die);
            dies[die].procs.push(p);
        }
        dies
    }

    /// Inverse of [`SimWorld::split_by_die`]: appends the sub-worlds, which
    /// must come in die order, back to the tables with global indices, and
    /// sums their context-switch and slice-expiry counts.
    pub(crate) fn merge_dies(&mut self, dies: Vec<SimWorld>) {
        for (die, mut sub) in dies.into_iter().enumerate() {
            let (core_start, proc_start) = (self.cores.len(), self.procs.len());
            for mut core in sub.cores {
                core.die = die;
                core.run.iter_mut().for_each(|pi| *pi += proc_start);
                self.cores.push(core);
            }
            for mut p in sub.procs {
                p.core += core_start;
                self.procs.push(p);
            }
            self.l2s.append(&mut sub.l2s);
            self.prefetchers.append(&mut sub.prefetchers);
            self.context_switches += sub.context_switches;
            self.slice_expiries += sub.slice_expiries;
        }
    }
}

/// Records one occupancy snapshot at global time `at` for every resident
/// process. The kernel fires it on a causally consistent frontier: no
/// step starting at or after `at` has executed yet.
pub(crate) fn snapshot_occupancy(world: &mut SimWorld, at: Cycles) {
    if at < world.warmup_cycles {
        return;
    }
    for p in world.procs.iter_mut() {
        if p.arrival <= at && at < p.departure {
            let die = world.cores[p.core].die;
            p.occupancy_sum += world.l2s[die].avg_ways_of(p.pid);
            p.occupancy_snaps += 1;
        }
    }
}

/// Executes one step of process `proc` on `core`: generates the step,
/// performs the L2 access, charges cycles, and attributes HPC/process
/// counters at completion time. This is the single definition of what a
/// "step" does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_core(
    machine: &MachineConfig,
    core: &mut CoreState,
    proc: &mut ProcState,
    l2: &mut SetAssocCache,
    prefetcher: &mut Option<NextLinePrefetcher>,
    warmup_cycles: Cycles,
    end_cycles: Cycles,
    period_cycles: Cycles,
    num_buckets: usize,
) {
    let step = proc.gen.next_step(&mut proc.rng);
    debug_assert!(step.instructions > 0 || step.access.is_some(), "generator produced a zero step");
    let mut cycles =
        ((step.instructions as f64) * machine.cpi_base).round() as Cycles + step.stall_cycles;
    let mut misses = 0u64;
    let mut l2_refs = 0u64;
    let mut prefetches = 0u64;

    if let Some(addr) = step.access {
        l2_refs = 1;
        let outcome = l2.access(addr, proc.pid);
        match outcome {
            crate::cache::AccessOutcome::Hit { prefetch_covered: false } => {
                cycles += machine.l2_hit_cycles;
            }
            crate::cache::AccessOutcome::Hit { prefetch_covered: true } => {
                // First touch of a prefetched line: the fill may still
                // be in flight, so only part of the memory latency is
                // hidden.
                cycles += machine.prefetch_covered_cycles;
            }
            crate::cache::AccessOutcome::Miss { .. } => {
                cycles += machine.mem_cycles;
                misses = 1;
            }
        }
        if let Some(pf) = prefetcher {
            let issued = pf.observe(l2, proc.pid, addr);
            prefetches = issued;
            cycles += issued * machine.prefetch_issue_cycles;
        }
    }
    if cycles == 0 {
        cycles = 1; // guarantee progress even for degenerate steps
    }
    core.clock += cycles;

    let delta = CounterSet {
        instructions: step.instructions,
        l1_refs: step.l1_refs,
        l2_refs,
        l2_misses: misses,
        branches: step.branches,
        fp_ops: step.fp_ops,
        prefetches,
    };

    // Core-level HPC bucket (completion-time attribution).
    while core.clock >= core.bucket_edge && core.bucket < num_buckets {
        core.bucket += 1;
        core.bucket_edge += period_cycles;
    }
    core.buckets[core.bucket].merge(&delta);

    // Process-level post-warmup totals.
    if core.clock >= warmup_cycles {
        proc.counters.merge(&delta);
        proc.active_cycles += cycles;
    }

    if core.clock >= end_cycles {
        core.done = true;
    }
}

/// Assembles per-core rates, power samples, and process statistics from a
/// finished world.
fn finish(world: SimWorld, machine: &MachineConfig) -> SimResult {
    let num_buckets = world.num_buckets;
    let period_s = world.period_cycles as f64 / machine.freq_hz;
    let mut core_samples: Vec<Vec<EventRates>> = Vec::with_capacity(world.cores.len());
    for core in &world.cores {
        core_samples.push((0..num_buckets).map(|b| core.buckets[b].rates(period_s)).collect());
    }
    let mut power_rng = ChaCha8Rng::seed_from_u64(world.power_seed);
    let mut power = Vec::with_capacity(num_buckets);
    let mut rates: Vec<EventRates> = Vec::with_capacity(world.cores.len());
    for b in 0..num_buckets {
        rates.clear();
        rates.extend(core_samples.iter().map(|cs| cs[b]));
        let true_watts = machine.power.processor_power(&rates);
        let measured_watts = measure_power(&machine.power, true_watts, period_s, &mut power_rng);
        power.push(PowerSample {
            period: b,
            t_start: b as f64 * period_s,
            true_watts,
            measured_watts,
        });
    }

    let prefetches_issued = world.procs.iter().map(|p| p.counters.prefetches).sum();
    let processes = world
        .procs
        .into_iter()
        .map(|p| ProcessStats {
            pid: p.pid,
            name: p.name,
            core: p.core,
            counters: p.counters,
            active_seconds: p.active_cycles as f64 / machine.freq_hz,
            avg_ways: if p.occupancy_snaps > 0 {
                p.occupancy_sum / p.occupancy_snaps as f64
            } else {
                0.0
            },
        })
        .collect();

    SimResult {
        processes,
        core_samples,
        power,
        sample_period_s: period_s,
        warmup_periods: (world.warmup_cycles / world.period_cycles) as usize,
        context_switches: world.context_switches,
        slice_expiries: world.slice_expiries,
        prefetches_issued,
    }
}

/// Test-only seams: `events::tests` drives the kernel with a hand-seeded
/// event order around a normally-built world, and both test modules
/// compare the kernel against the min-clock scan below.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Runs one simulation on the reference scan: a direct transcription
    /// of the min-clock rule in the module docs, with no event queue and
    /// no per-die split. Churn-free placements only.
    pub(crate) fn simulate_lockstep(
        machine: &MachineConfig,
        placement: Placement,
        opts: &SimOptions,
    ) -> SimResult {
        let mut world = build_world_for_tests(machine, placement, opts);
        assert!(
            world.procs.iter().all(|p| p.arrival == 0 && p.departure == Cycles::MAX),
            "the lockstep scan has no arrivals or departures"
        );
        run_lockstep(&mut world, machine);
        finish(world, machine)
    }

    /// The lockstep scan: always step the live core with the smallest
    /// clock (ties broken by lowest core index via the strict `<` scan).
    fn run_lockstep(world: &mut SimWorld, machine: &MachineConfig) {
        let mut next_snapshot: Cycles = world.period_cycles;
        loop {
            let mut min_core: Option<usize> = None;
            let mut min_clock = Cycles::MAX;
            for (i, core) in world.cores.iter().enumerate() {
                if !core.done && core.clock < min_clock {
                    min_clock = core.clock;
                    min_core = Some(i);
                }
            }
            let Some(ci) = min_core else { break };

            // Occupancy snapshots keyed to the global frontier (the minimum
            // active clock), so every snapshot reflects a causally consistent
            // cache state.
            while min_clock >= next_snapshot {
                snapshot_occupancy(world, next_snapshot);
                next_snapshot += world.period_cycles;
            }

            let core = &mut world.cores[ci];
            // Context switch check at step granularity: boundaries crossed
            // since the last step on this core all expire now.
            if let Some(sched) = &mut core.sched {
                world.context_switches += sched.maybe_switch(core.clock);
            }
            let pi = core.run[core.sched.as_ref().map_or(0, |s| s.current())];
            let die = core.die;
            step_core(
                machine,
                core,
                &mut world.procs[pi],
                &mut world.l2s[die],
                &mut world.prefetchers[die],
                world.warmup_cycles,
                world.end_cycles,
                world.period_cycles,
                world.num_buckets,
            );
        }
        world.slice_expiries =
            world.cores.iter().filter_map(|c| c.sched.as_ref()).map(|s| s.expiries()).sum();
    }

    pub(crate) fn build_world_for_tests(
        machine: &MachineConfig,
        placement: Placement,
        opts: &SimOptions,
    ) -> SimWorld {
        build_world(machine, placement, opts).expect("test world must validate")
    }

    pub(crate) fn finish_for_tests(world: SimWorld, machine: &MachineConfig) -> SimResult {
        finish(world, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::testutil::CyclicGenerator;
    use crate::process::ProcessSpec;

    fn small_machine() -> MachineConfig {
        MachineConfig {
            l2_sets: 16,
            l2_assoc: 4,
            // Short slices so time-sharing tests see many switches within
            // a sub-second run.
            timeslice_s: 0.01,
            ..MachineConfig::two_core_workstation()
        }
    }

    fn cyclic(base: u64, footprint: u64, gap: u64) -> ProcessSpec {
        ProcessSpec::new(format!("cyc{base}"), Box::new(CyclicGenerator::new(base, footprint, gap)))
    }

    fn quick_opts() -> SimOptions {
        SimOptions { duration_s: 0.3, warmup_s: 0.1, seed: 7, ..Default::default() }
    }

    #[test]
    fn placement_validation() {
        let m = small_machine();
        let err = simulate(&m, Placement::idle(3), quick_opts()).unwrap_err();
        assert!(matches!(err, SimError::InvalidPlacement(_)));
    }

    #[test]
    fn options_validation() {
        let m = small_machine();
        let bad = SimOptions { duration_s: 0.0, ..Default::default() };
        assert!(matches!(simulate(&m, Placement::idle(2), bad), Err(SimError::InvalidOptions(_))));
        let bad = SimOptions { duration_s: 1.0, warmup_s: 1.0, ..Default::default() };
        assert!(matches!(simulate(&m, Placement::idle(2), bad), Err(SimError::InvalidOptions(_))));
    }

    #[test]
    fn huge_duration_is_an_error_not_a_truncation() {
        // Regression: `duration_s * freq_hz` used to be cast straight to
        // u64, silently saturating for huge-but-finite products.
        let m = small_machine();
        for dur in [1e300, f64::MAX, (1u64 << 62) as f64 / m.freq_hz + 1.0] {
            let bad = SimOptions { duration_s: dur, ..Default::default() };
            let err = simulate(&m, Placement::idle(2), bad).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidOptions(ref msg) if msg.contains("cycle clock")),
                "duration {dur}: {err}"
            );
        }
    }

    #[test]
    fn nan_and_infinite_durations_are_errors() {
        let m = small_machine();
        for dur in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = SimOptions { duration_s: dur, ..Default::default() };
            assert!(
                matches!(simulate(&m, Placement::idle(2), bad), Err(SimError::InvalidOptions(_))),
                "duration {dur}"
            );
        }
    }

    #[test]
    fn residency_window_validation() {
        let m = small_machine();
        // Departure at or before arrival.
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 16, 20).with_arrival(500).with_departure(500)).unwrap();
        let err = simulate(&m, pl, quick_opts()).unwrap_err();
        assert!(matches!(err, SimError::InvalidPlacement(_)), "{err}");
        // Arrival past the end of the run.
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 16, 20).with_arrival(u64::MAX / 2)).unwrap();
        let err = simulate(&m, pl, quick_opts()).unwrap_err();
        assert!(matches!(err, SimError::InvalidPlacement(ref msg) if msg.contains("end")), "{err}");
    }

    #[test]
    fn idle_machine_draws_idle_power() {
        let m = small_machine();
        let r = simulate(&m, Placement::idle(2), quick_opts()).unwrap();
        let expect = m.power.uncore_w + 2.0 * m.power.core_idle_w;
        assert!((r.avg_measured_power() - expect).abs() < 1.0, "{}", r.avg_measured_power());
        assert_eq!(r.processes.len(), 0);
        assert_eq!(r.context_switches, 0);
        assert_eq!(r.slice_expiries, 0);
    }

    #[test]
    fn single_process_fits_in_cache() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        // Footprint 32 lines in a 64-line cache: after warmup, ~no misses.
        pl.assign(0, cyclic(0, 32, 20)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        let p = &r.processes[0];
        assert!(p.mpa() < 0.02, "mpa {}", p.mpa());
        assert!(p.counters.instructions > 0);
        // Occupancy: 32 lines over 16 sets = 2 ways.
        assert!((p.avg_ways - 2.0).abs() < 0.3, "ways {}", p.avg_ways);
    }

    #[test]
    fn solo_process_slices_expire_without_switching() {
        // Satellite pin: a solo process's slice expiries are no longer
        // silently invisible — `slice_expiries` counts them while
        // `context_switches` stays 0.
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 32, 20)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        assert_eq!(r.context_switches, 0);
        // 0.3 s at 10 ms slices: ~30 boundaries, minus scheduling slack.
        assert!(r.slice_expiries >= 25, "{}", r.slice_expiries);
    }

    #[test]
    fn oversized_footprint_always_misses() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        // Footprint 256 lines cycled in order through a 64-line LRU cache:
        // classic worst case, everything misses.
        pl.assign(0, cyclic(0, 256, 20)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        assert!(r.processes[0].mpa() > 0.95, "mpa {}", r.processes[0].mpa());
    }

    #[test]
    fn misses_slow_a_process_down() {
        let m = small_machine();
        let mut fit = Placement::idle(2);
        fit.assign(0, cyclic(0, 32, 20)).unwrap();
        let mut thrash = Placement::idle(2);
        thrash.assign(0, cyclic(0, 1024, 20)).unwrap();
        let fast = simulate(&m, fit, quick_opts()).unwrap();
        let slow = simulate(&m, thrash, quick_opts()).unwrap();
        assert!(slow.processes[0].spi() > 2.0 * fast.processes[0].spi());
    }

    #[test]
    fn contention_splits_cache_between_cores() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        // Both want 48 of 64 lines; they must share.
        pl.assign(0, cyclic(0, 48, 20)).unwrap();
        pl.assign(1, cyclic(10_000, 48, 20)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        let w0 = r.processes[0].avg_ways;
        let w1 = r.processes[1].avg_ways;
        assert!(w0 + w1 <= m.l2_assoc as f64 + 1e-9);
        assert!(w0 > 0.5 && w1 > 0.5, "w0={w0} w1={w1}");
        // Symmetric demands -> roughly symmetric split.
        assert!((w0 - w1).abs() < 1.0, "w0={w0} w1={w1}");
        // Both now miss, unlike when running alone.
        assert!(r.processes[0].mpa() > 0.05);
    }

    #[test]
    fn time_sharing_context_switches() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 16, 20)).unwrap();
        pl.assign(0, cyclic(5_000, 16, 20)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        assert!(r.context_switches > 5, "{}", r.context_switches);
        // Both processes made progress.
        assert!(r.processes[0].counters.instructions > 0);
        assert!(r.processes[1].counters.instructions > 0);
        // Active time splits the post-warmup window roughly evenly.
        let ratio = r.processes[0].active_seconds / r.processes[1].active_seconds;
        assert!(ratio > 0.6 && ratio < 1.6, "{ratio}");
    }

    #[test]
    fn weighted_time_sharing() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 16, 20)).unwrap();
        pl.assign(0, cyclic(5_000, 16, 20)).unwrap();
        let opts = SimOptions { weights: Some(vec![vec![3.0, 1.0], vec![]]), ..quick_opts() };
        let r = simulate(&m, pl, opts).unwrap();
        let ratio = r.processes[0].active_seconds / r.processes[1].active_seconds;
        assert!(ratio > 2.0 && ratio < 4.5, "{ratio}");
    }

    #[test]
    fn busy_power_exceeds_idle_power() {
        let m = small_machine();
        let idle = simulate(&m, Placement::idle(2), quick_opts()).unwrap();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 32, 10)).unwrap();
        pl.assign(1, cyclic(10_000, 32, 10)).unwrap();
        let busy = simulate(&m, pl, quick_opts()).unwrap();
        assert!(busy.avg_measured_power() > idle.avg_measured_power() + 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = small_machine();
        let run = |seed| {
            let mut pl = Placement::idle(2);
            pl.assign(0, cyclic(0, 48, 20)).unwrap();
            pl.assign(1, cyclic(10_000, 24, 30)).unwrap();
            simulate(&m, pl, SimOptions { seed, ..quick_opts() }).unwrap()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a.processes[0].counters, b.processes[0].counters);
        assert_eq!(a.avg_measured_power(), b.avg_measured_power());
        // Different seed shifts the noise (power) even if counters agree.
        assert_ne!(a.avg_measured_power(), c.avg_measured_power());
    }

    #[test]
    fn engines_agree_bit_exactly_without_churn() {
        // The kernel against the reference scan; the seeded corpus in
        // tests/parallel_determinism.rs is pinned by golden digests.
        let m = small_machine();
        let build = || {
            let mut pl = Placement::idle(2);
            pl.assign(0, cyclic(0, 48, 20)).unwrap();
            pl.assign(0, cyclic(20_000, 16, 35)).unwrap();
            pl.assign(1, cyclic(10_000, 24, 30)).unwrap();
            pl
        };
        let ev = simulate(&m, build(), quick_opts()).unwrap();
        let ls = testutil::simulate_lockstep(&m, build(), &quick_opts());
        assert_eq!(ev, ls);
        assert!(ev.context_switches > 0);
    }

    #[test]
    fn sample_counts_match_duration() {
        let m = small_machine();
        let opts = SimOptions { duration_s: 0.31, warmup_s: 0.09, seed: 1, ..Default::default() };
        let r = simulate(&m, Placement::idle(2), opts).unwrap();
        // 0.31 s at 30 ms period -> 10 full periods; warmup 0.09 -> 3.
        assert_eq!(r.power.len(), 10);
        assert_eq!(r.warmup_periods, 3);
        assert_eq!(r.settled_power().len(), 7);
        assert_eq!(r.core_samples.len(), 2);
        assert_eq!(r.core_samples[0].len(), 10);
    }

    #[test]
    fn prefetch_helps_streaming_access() {
        let m = small_machine();
        // A pure streaming generator: every access is to the next line.
        struct Stream(u64);
        impl crate::process::AccessGenerator for Stream {
            fn next_step(&mut self, _rng: &mut dyn rand::RngCore) -> crate::process::Step {
                self.0 += 1;
                crate::process::Step {
                    instructions: 20,
                    l1_refs: 6,
                    branches: 2,
                    fp_ops: 4,
                    stall_cycles: 0,
                    access: Some(crate::types::LineAddr(self.0)),
                }
            }
            fn label(&self) -> &str {
                "stream"
            }
        }
        let mut off = Placement::idle(2);
        off.assign(0, ProcessSpec::new("s", Box::new(Stream(0)))).unwrap();
        let mut on = Placement::idle(2);
        on.assign(0, ProcessSpec::new("s", Box::new(Stream(0)))).unwrap();
        let base = simulate(&m, off, quick_opts()).unwrap();
        let pf = simulate(
            &m,
            on,
            SimOptions { prefetch: Some(PrefetchConfig::default()), ..quick_opts() },
        )
        .unwrap();
        assert!(pf.prefetches_issued > 0);
        assert!(
            pf.processes[0].spi() < 0.9 * base.processes[0].spi(),
            "prefetch {} vs base {}",
            pf.processes[0].spi(),
            base.processes[0].spi()
        );
    }

    #[test]
    fn process_lookup_by_name() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 8, 10)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        assert!(r.process("cyc0").is_some());
        assert!(r.process("nope").is_none());
    }

    #[test]
    fn oracle_observables_mirror_process_stats() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 48, 20)).unwrap();
        pl.assign(1, cyclic(10_000, 24, 30)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        let oracle = r.oracle_observables();
        assert_eq!(oracle.len(), r.processes.len());
        for (o, p) in oracle.iter().zip(&r.processes) {
            assert_eq!(o.name, p.name);
            assert_eq!(o.avg_ways, p.avg_ways);
            assert_eq!(o.mpa, p.mpa());
            assert_eq!(o.spi, p.spi());
            assert_eq!(o.api, p.api());
            assert!(o.avg_ways > 0.0 && o.mpa >= 0.0 && o.spi > 0.0);
        }
    }

    #[test]
    fn true_power_tracks_measured_power() {
        let m = small_machine();
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic(0, 32, 10)).unwrap();
        let r = simulate(&m, pl, quick_opts()).unwrap();
        let truth = r.avg_true_power();
        let measured = r.avg_measured_power();
        assert!(truth > 0.0);
        // The measurement chain adds noise and quantization, not bias:
        // averages must stay within a watt of each other here.
        assert!((truth - measured).abs() < 1.0, "true {truth} vs measured {measured}");
    }
}
