//! The combined performance + power model for assignment-time power
//! estimation (paper §5, Fig. 1, Eq. 11).
//!
//! The power model alone cannot evaluate a *tentative* assignment: its
//! inputs are HPC rates that exist only after the processes run. The
//! combined model closes the loop with profiling data. Instruction-related
//! event rates (L1RPI, L2RPI, BRPI, FPPI) are process properties fixed by
//! the input data; contention only changes SPI and the miss ratio L2MPR —
//! both of which the performance model predicts. Each per-second rate is
//! then `rate = per-instruction rate / SPI`, and Eq. 9 turns the rates
//! into power. Averaging over the Eq. 10 process combinations yields the
//! processor power of the assignment — using profiling data only.

use crate::eqcache::{EqCacheStats, EquilibriumCache};
use crate::equilibrium::{self, Equilibrium};
use crate::feature::FeatureVector;
use crate::perf::PerformanceModel;
use crate::power::CorePowerModel;
use crate::profile::ProcessProfile;
use crate::sharing::combination_average_cancellable;
use crate::ModelError;
use cmpsim::hpc::EventRates;
use cmpsim::machine::MachineConfig;
use cmpsim::types::DieId;
use mathkit::sync::CancelToken;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// A tentative process-to-core mapping over profile indices.
///
/// # Examples
///
/// ```
/// use mpmc_model::assignment::Assignment;
///
/// let mut asg = Assignment::new(4);
/// asg.assign(0, 2).assign(0, 1).assign(3, 0);
/// assert_eq!(asg.processes_on(0), &[2, 1]);
/// assert_eq!(asg.num_processes(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    per_core: Vec<Vec<usize>>,
}

impl Assignment {
    /// An empty assignment over `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        Assignment { per_core: vec![Vec::new(); num_cores] }
    }

    /// Adds process `profile_idx` to `core`'s run queue.
    ///
    /// Prefer [`Assignment::try_assign`] anywhere `core` comes from the
    /// outside world (wire requests, CLI arguments); this infallible name
    /// is for call sites whose index is locally proved in range.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn assign(&mut self, core: usize, profile_idx: usize) -> &mut Self {
        self.per_core[core].push(profile_idx);
        self
    }

    /// Fallible [`Assignment::assign`]: rejects an out-of-range `core`
    /// with a typed error instead of panicking, so wire- and CLI-driven
    /// callers cannot crash the process with a bad index.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_assign(&mut self, core: usize, profile_idx: usize) -> Result<&mut Self, ModelError> {
        if core >= self.per_core.len() {
            return Err(ModelError::InvalidCore { core, num_cores: self.per_core.len() });
        }
        self.per_core[core].push(profile_idx);
        Ok(self)
    }

    /// The processes queued on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; see
    /// [`Assignment::try_processes_on`] for untrusted indices.
    pub fn processes_on(&self, core: usize) -> &[usize] {
        &self.per_core[core]
    }

    /// Fallible [`Assignment::processes_on`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_processes_on(&self, core: usize) -> Result<&[usize], ModelError> {
        self.per_core
            .get(core)
            .map(Vec::as_slice)
            .ok_or(ModelError::InvalidCore { core, num_cores: self.per_core.len() })
    }

    /// Number of cores this assignment covers.
    pub fn num_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Total processes assigned.
    pub fn num_processes(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// A copy with `profile_idx` additionally assigned to `core` — the
    /// "what if process K goes on core C" primitive of Fig. 1.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; see
    /// [`Assignment::try_with_assigned`] for untrusted indices.
    pub fn with_assigned(&self, core: usize, profile_idx: usize) -> Assignment {
        let mut next = self.clone();
        next.assign(core, profile_idx);
        next
    }

    /// Fallible [`Assignment::with_assigned`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_with_assigned(
        &self,
        core: usize,
        profile_idx: usize,
    ) -> Result<Assignment, ModelError> {
        let mut next = self.clone();
        next.try_assign(core, profile_idx)?;
        Ok(next)
    }

    /// The per-core run queues as owned index lists (wire/diagnostic
    /// serialization helper).
    pub fn to_queues(&self) -> Vec<Vec<usize>> {
        self.per_core.clone()
    }
}

/// Where a degraded estimate's equilibria came from, ordered best to
/// worst. When one estimate mixes tiers across its Eq. 10 combinations,
/// the *worst* tier used is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedSource {
    /// Every contended combination was answered from a (possibly stale)
    /// exact cache entry — numerically identical to a fresh solve.
    ExactCache,
    /// At least one combination fell through to the proportional-to-API
    /// closed-form split ([`equilibrium::solve_proportional`]).
    ProportionalSplit,
}

impl Ord for DegradedSource {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for DegradedSource {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl DegradedSource {
    /// Stable lowercase label for wire protocols and logs.
    pub fn name(self) -> &'static str {
        match self {
            DegradedSource::ExactCache => "exact_cache",
            DegradedSource::ProportionalSplit => "proportional_split",
        }
    }
}

/// A degraded-tier power estimate: the value plus an honest account of
/// where its equilibria came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedEstimate {
    /// Estimated average processor power (watts).
    pub power_w: f64,
    /// The worst equilibrium source any combination needed.
    pub source: DegradedSource,
}

/// How [`CombinedModel::combination_power`] obtains equilibria: the
/// exact solver (with a cancellation token) or the no-solve degraded
/// tier (tracking the worst source used).
enum SolveMode<'c> {
    Exact(&'c CancelToken),
    Degraded(&'c Cell<DegradedSource>),
    /// Dry run for the batch prestage: records each contended co-run
    /// set's profile indices (in combination-enumeration order) instead
    /// of solving. The power values returned under this mode are
    /// meaningless and must be discarded.
    Collect(&'c RefCell<Vec<Vec<usize>>>),
}

/// The combined model: performance model + power model + profiles.
///
/// Equilibrium solves are memoized: the same set of co-runners on the
/// same cache recurs constantly — across the Eq. 10 combinations of one
/// assignment, and across the candidate assignments of a Fig. 1 greedy
/// sweep (dies the tentative process does not land on are unchanged).
/// The cache key is the *canonically ordered* list of co-runner content
/// fingerprints (histogram + API + SPI coefficients + associativity), so
/// it stays valid even if callers re-index, re-order, or rebuild their
/// profile slices, and permuted co-runner sets share one entry.
///
/// Die powers are memoized too. Dies share nothing, so a die's Eq. 10/11
/// power depends only on the ordered queues of its cores: the key lists,
/// per core in core order, the queue length and one word per queued
/// process (its feature fingerprint folded with the bits of every other
/// profile field the walk reads), stored as a 128-bit digest of that
/// list. Keys are never sorted, because the combination order fixes the
/// `f64` sum, and the dies are summed in die order, so a memoized
/// estimate is bit-identical to a fresh one. A placement search
/// scores thousands of placements over far fewer distinct dies; each
/// distinct die is walked once. Only exact estimates use the die memo:
/// degraded estimates bypass it, and errors are never stored.
///
/// Both memos are bounded (sharded LRU, default
/// [`eqcache::DEFAULT_CAPACITY`](crate::eqcache::DEFAULT_CAPACITY)
/// entries each) so long-running services never grow without limit; an
/// evicted entry simply recomputes to the same bits on its next
/// appearance.
pub struct CombinedModel<'a, M: CorePowerModel> {
    machine: &'a MachineConfig,
    power: &'a M,
    perf: PerformanceModel,
    eq_cache: EquilibriumCache,
}

impl<'a, M: CorePowerModel> CombinedModel<'a, M> {
    /// Creates a combined model for `machine` using the fitted core power
    /// model `power`.
    pub fn new(machine: &'a MachineConfig, power: &'a M) -> Self {
        CombinedModel {
            machine,
            power,
            perf: PerformanceModel::new(machine.l2_assoc()),
            eq_cache: EquilibriumCache::new(crate::eqcache::DEFAULT_CAPACITY),
        }
    }

    /// Replaces the memo caches (equilibria and die powers) with ones
    /// bounded at `capacity` entries each (rounded up to a multiple of
    /// the shard count; 0 disables memoization). Estimates are
    /// bit-identical for any capacity — the bound only affects time and
    /// memory.
    #[must_use]
    pub fn with_equilibrium_cache_capacity(mut self, capacity: usize) -> Self {
        self.eq_cache = EquilibriumCache::new(capacity);
        self
    }

    /// The machine this model estimates for (the placement optimizer
    /// needs the core/die topology to enumerate candidates).
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// Number of distinct co-runner sets whose equilibrium is currently
    /// memoized (diagnostics / tests).
    pub fn cached_equilibria(&self) -> usize {
        self.eq_cache.entries()
    }

    /// A snapshot of the memo-cache counters (hits, misses, evictions,
    /// occupancy, capacity, and the die memo's hits, misses and
    /// occupancy).
    pub fn equilibrium_cache_stats(&self) -> EqCacheStats {
        self.eq_cache.stats()
    }

    /// Fresh equilibrium solves that fell back from their solver or came
    /// back degraded (service diagnostics).
    pub fn solver_fallbacks(&self) -> u64 {
        self.eq_cache.fallback_solves()
    }

    /// Drops all memoized equilibrium solves and die powers.
    pub fn clear_equilibrium_cache(&self) {
        self.eq_cache.clear();
    }

    /// Estimated average processor power of `assignment`, from profiling
    /// data only (Eq. 11 summed over dies).
    ///
    /// Runs on the calling thread: a die the die memo does not know is
    /// walked over its Eq. 10 combinations, and each contended co-run the
    /// equilibrium memo misses is solved in walk order. One estimate
    /// misses too few sets to pay for a thread scope; sweeps over many
    /// candidates batch their solves through
    /// [`CombinedModel::estimate_candidates`] or
    /// [`CombinedModel::prestage_assignments`].
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidAssignment`] if the assignment shape or any
    ///   profile index is invalid.
    /// - Equilibrium errors from the performance model.
    pub fn estimate_processor_power(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<f64, ModelError> {
        self.estimate_processor_power_cancellable(profiles, assignment, &CancelToken::never())
    }

    /// [`CombinedModel::estimate_processor_power`] with a cooperative
    /// cancellation token threaded into every equilibrium solve, so a
    /// serving deadline can reclaim the worker mid-estimate. Bit-identical
    /// to the plain method under a never-firing token.
    ///
    /// # Errors
    ///
    /// Everything the plain method returns, plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` once
    /// the token fires.
    pub fn estimate_processor_power_cancellable(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        self.estimate_power_mode(profiles, assignment, &SolveMode::Exact(cancel))
    }

    /// Degraded-tier estimate: answers **without running the equilibrium
    /// solvers**, for a serving layer whose circuit breaker has tripped.
    /// Each contended combination is answered from the best available
    /// no-solve source — a (possibly stale) exact memo-cache entry, else
    /// the proportional-to-API closed form — and the *worst* tier any
    /// combination needed is reported alongside the estimate. A miss is
    /// one shard lookup, never a cache scan. Degraded lookups never
    /// promote, insert, or count toward cache/fallback statistics.
    ///
    /// # Errors
    ///
    /// Validation errors as for
    /// [`CombinedModel::estimate_processor_power`]; the no-solve tiers
    /// themselves cannot fail on valid inputs.
    pub fn estimate_processor_power_degraded(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<DegradedEstimate, ModelError> {
        let worst = Cell::new(DegradedSource::ExactCache);
        let power_w =
            self.estimate_power_mode(profiles, assignment, &SolveMode::Degraded(&worst))?;
        Ok(DegradedEstimate { power_w, source: worst.get() })
    }

    fn estimate_power_mode(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        mode: &SolveMode<'_>,
    ) -> Result<f64, ModelError> {
        self.validate(profiles, assignment)?;
        let dies = (0..self.machine.dies).map(|d| DieId(d as u32));
        let SolveMode::Exact(cancel) = mode else {
            let mut total = 0.0;
            for die in dies {
                total += self.die_power_mode(profiles, assignment, die, mode)?;
            }
            return Ok(total);
        };
        // One die at a time, in die order: look it up, and on a miss walk
        // it (each contended co-run solved in order through the
        // equilibrium memo) and insert it, so a later die with the same
        // queues hits.
        let memo = self.eq_cache.capacity() > 0;
        let mut total = 0.0;
        for die in dies {
            let key = if memo { self.die_key(profiles, assignment, die) } else { None };
            total += match key.and_then(|k| self.eq_cache.get_die(&k)) {
                Some(watts) => {
                    // The walk a hit stands for is a cancellation point.
                    cancel.check()?;
                    watts
                }
                None => {
                    let watts = self.die_power_mode(profiles, assignment, die, mode)?;
                    if let Some(key) = key {
                        self.eq_cache.insert_die(key, watts);
                    }
                    watts
                }
            };
        }
        Ok(total)
    }

    /// The die memo's key for `die` under `assignment`. The list it
    /// stands for is, per core in core order, the queue length and then
    /// [`die_key_word`] per queued process in queue order; the key is two
    /// independent 64-bit folds of that list (SplitMix64's and
    /// MurmurHash3's finalizers), so a collision is far less likely than
    /// one between the 64-bit feature fingerprints every memo already
    /// trusts. `None` for an all-idle die, which costs nothing to
    /// recompute.
    fn die_key(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        die: DieId,
    ) -> Option<[u64; 2]> {
        let mut key = [0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344];
        let mut fold = |word: u64| {
            key = [splitmix_finalize(key[0] ^ word), murmur_finalize(key[1] ^ word)];
        };
        let mut busy = false;
        for core in self.machine.cores_of(die) {
            let queue = assignment.processes_on(core.0 as usize);
            busy |= !queue.is_empty();
            fold(queue.len() as u64);
            queue.iter().for_each(|&p| fold(die_key_word(&profiles[p])));
        }
        busy.then_some(key)
    }

    /// The contended co-run sets (profile indices) exact estimates of
    /// `assignments` will need, in combination-enumeration order, without
    /// solving anything. Invalid assignments are skipped: they report
    /// their own error when estimated. With the die memo on, a die that
    /// is already memoized, or that an earlier assignment in the batch
    /// repeats, is not walked at all.
    fn collect_contended_sets<'x>(
        &self,
        profiles: &[ProcessProfile],
        assignments: impl IntoIterator<Item = &'x Assignment>,
    ) -> Result<Vec<Vec<usize>>, ModelError> {
        let memo = self.eq_cache.capacity() > 0;
        let mut seen: BTreeSet<[u64; 2]> = BTreeSet::new();
        let mut sets = Vec::new();
        for asg in assignments {
            if self.validate(profiles, asg).is_err() {
                continue;
            }
            let dies = (0..self.machine.dies).map(|d| DieId(d as u32)).filter(|&die| {
                match memo.then(|| self.die_key(profiles, asg, die)).flatten() {
                    Some(key) => self.eq_cache.peek_die(&key).is_none() && seen.insert(key),
                    None => true,
                }
            });
            sets.extend(self.collect_die_sets(profiles, asg, dies)?);
        }
        Ok(sets)
    }

    /// The contended co-run sets (profile indices) that exact walks of
    /// `dies` under `assignment` will solve, in combination-enumeration
    /// order, without solving anything.
    fn collect_die_sets(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        dies: impl Iterator<Item = DieId>,
    ) -> Result<Vec<Vec<usize>>, ModelError> {
        let sink = RefCell::new(Vec::new());
        for die in dies {
            self.die_power_mode(profiles, assignment, die, &SolveMode::Collect(&sink))?;
        }
        Ok(sink.into_inner())
    }

    /// Batch-prestages the equilibrium cache for a multi-candidate sweep
    /// ([`CombinedModel::prestage_assignments`]): deduplicates `sets` on
    /// the canonical fingerprint key, drops the ones already cached
    /// (peeked, so no lookup counter moves), and solves the rest into the
    /// cache in one `solve_batch_cancellable` pass so the per-candidate
    /// walks afterwards run on cache hits. Each set it solves counts as
    /// one eq-cache miss, so `misses` equals fresh solves on this path as
    /// on the walk's.
    ///
    /// Single estimates do not come here: at tens of microseconds per
    /// bisection solve, a thread scope costs about as much as it splits
    /// over the few sets one estimate misses, so their Eq. 10 walks solve
    /// each miss in order through [`CombinedModel::solve_cached`].
    ///
    /// Only engages when at least two distinct sets are missing: a single
    /// missing set gains nothing from batching.
    ///
    /// Per-set solve errors are *not* surfaced here: a failed set is left
    /// uncached and the main walk re-encounters the same deterministic
    /// error at its proper (lowest-index) position. Cancellation does
    /// surface immediately.
    fn prestage_sets(
        &self,
        profiles: &[ProcessProfile],
        sets: Vec<Vec<usize>>,
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<(), ModelError> {
        if self.eq_cache.capacity() == 0 || sets.len() < 2 {
            return Ok(());
        }
        let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
        let mut missing: Vec<Vec<usize>> = Vec::new();
        for idxs in sets {
            let running: Vec<(usize, &ProcessProfile)> =
                idxs.iter().map(|&p| (0, &profiles[p])).collect();
            let (_, key) = Self::canonical_key(&running);
            if !seen.insert(key.clone()) || self.eq_cache.peek(&key).is_some() {
                continue;
            }
            missing.push(idxs);
        }
        if missing.len() < 2 {
            return Ok(());
        }

        let corun_sets: Vec<equilibrium::CorunSet<'_>> = missing
            .iter()
            .map(|idxs| equilibrium::CorunSet {
                features: idxs.iter().map(|&p| &profiles[p].feature).collect(),
            })
            .collect();
        let results = self.perf.solve_batch_cancellable(&corun_sets, workers, cancel);
        for (idxs, res) in missing.iter().zip(results) {
            if !matches!(res, Err(ModelError::Math(mathkit::MathError::Cancelled))) {
                self.eq_cache.note_prestaged_solve();
            }
            match res {
                Ok(eq) => {
                    let running: Vec<(usize, &ProcessProfile)> =
                        idxs.iter().map(|&p| (0, &profiles[p])).collect();
                    let (order, key) = Self::canonical_key(&running);
                    self.memoize(&order, key, &eq);
                }
                Err(ModelError::Math(mathkit::MathError::Cancelled)) => {
                    return Err(ModelError::Math(mathkit::MathError::Cancelled))
                }
                Err(_) => {} // leave uncached; the main walk reports it in order
            }
        }
        Ok(())
    }

    /// Estimated average power of one die's cores under `assignment`
    /// (exposed so callers can inspect the per-die split).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_die_power(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        die: DieId,
    ) -> Result<f64, ModelError> {
        self.die_power_mode(profiles, assignment, die, &SolveMode::Exact(&CancelToken::never()))
    }

    /// Estimated makespan of `assignment`: the worst per-process relative
    /// completion time under Eq. 10 round-robin time sharing. Each process
    /// retiring a fixed instruction budget on a queue of length `q`
    /// finishes in time proportional to `q * mean_spi`, where `mean_spi`
    /// is its seconds-per-instruction averaged over the Eq. 10
    /// combinations it runs in (contended SPIs come from the equilibrium
    /// cache; a process running alone in a combination uses its predicted
    /// full-cache SPI). The makespan is the maximum over all assigned
    /// processes; an empty assignment has makespan `0.0`. Units are
    /// seconds per instruction of budget — meaningful relative to other
    /// placements of the same process set on the same machine.
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_makespan(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<f64, ModelError> {
        self.estimate_makespan_cancellable(profiles, assignment, &CancelToken::never())
    }

    /// [`CombinedModel::estimate_makespan`] with a cooperative
    /// cancellation token (see
    /// [`CombinedModel::estimate_processor_power_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_makespan`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_makespan_cancellable(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        self.validate(profiles, assignment)?;
        let mut makespan: f64 = 0.0;
        for die in 0..self.machine.dies {
            let cores = self.machine.cores_of(DieId(die as u32));
            let queues: Vec<&[usize]> =
                cores.iter().map(|c| assignment.processes_on(c.0 as usize)).collect();
            let sizes: Vec<usize> = queues.iter().map(|q| q.len()).collect();
            if sizes.iter().all(|&s| s == 0) {
                continue;
            }
            // Average each process's SPI over the combinations it runs in
            // (same odometer walk as the power estimate, same memoized
            // equilibria), then scale by its queue length.
            let mut spi_sum: Vec<Vec<f64>> = sizes.iter().map(|&s| vec![0.0; s]).collect();
            let mut spi_n: Vec<Vec<u64>> = sizes.iter().map(|&s| vec![0u64; s]).collect();
            let assoc = self.machine.l2_assoc() as f64;
            let mut first_err: Option<ModelError> = None;
            combination_average_cancellable(&sizes, cancel, |combo| {
                if first_err.is_some() {
                    return 0.0;
                }
                let mut running: Vec<(usize, &ProcessProfile)> = Vec::new();
                for (slot, (&q, &pick)) in queues.iter().zip(combo).enumerate() {
                    if pick == usize::MAX {
                        continue;
                    }
                    running.push((slot, &profiles[q[pick]]));
                }
                if running.len() == 1 {
                    // Alone on the die: no contention, predicted
                    // full-cache SPI (mirrors the alone-power shortcut
                    // of the power walk).
                    let (slot, prof) = running[0];
                    spi_sum[slot][combo[slot]] += prof.feature.spi_at(assoc);
                    spi_n[slot][combo[slot]] += 1;
                    return 0.0;
                }
                match self.solve_cached(&running, cancel) {
                    Ok(eq) => {
                        for (i, &(slot, _)) in running.iter().enumerate() {
                            spi_sum[slot][combo[slot]] += eq.spis[i];
                            spi_n[slot][combo[slot]] += 1;
                        }
                    }
                    Err(e) => first_err = Some(e),
                }
                0.0
            })?;
            if let Some(e) = first_err {
                return Err(e);
            }
            for (slot, sums) in spi_sum.iter().enumerate() {
                for (pos, &sum) in sums.iter().enumerate() {
                    let n = spi_n[slot][pos];
                    if n == 0 {
                        continue;
                    }
                    let completion = sizes[slot] as f64 * (sum / n as f64);
                    makespan = makespan.max(completion);
                }
            }
        }
        Ok(makespan)
    }

    /// Batch-prestages the equilibrium memo cache for a set of candidate
    /// assignments in one `solve_batch_cancellable` pass (`workers = 0` means auto),
    /// so subsequent per-assignment estimates run mostly on cache hits.
    /// Invalid assignments are skipped — they report their own error when
    /// actually estimated. Estimates are bit-identical with or without
    /// prestaging, for any worker count.
    ///
    /// # Errors
    ///
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` once
    /// the token fires; per-set solve errors are deferred to the actual
    /// estimates.
    pub fn prestage_assignments(
        &self,
        profiles: &[ProcessProfile],
        assignments: &[Assignment],
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<(), ModelError> {
        let sets = self.collect_contended_sets(profiles, assignments)?;
        self.prestage_sets(profiles, sets, workers, cancel)
    }

    fn die_power_mode(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        die: DieId,
        mode: &SolveMode<'_>,
    ) -> Result<f64, ModelError> {
        let cores = self.machine.cores_of(die);
        let queues: Vec<&[usize]> =
            cores.iter().map(|c| assignment.processes_on(c.0 as usize)).collect();
        let sizes: Vec<usize> = queues.iter().map(|q| q.len()).collect();
        let idle_w = self.power.idle_core_watts();

        if sizes.iter().all(|&s| s == 0) {
            return Ok(idle_w * cores.len() as f64);
        }

        // Eq. 10: average the die power over all process combinations.
        // Exact solves carry the caller's token into the walk; degraded
        // and collect passes are uncancellable by design (bounded, and
        // the prestage must record every set).
        let never = CancelToken::never();
        let cancel = match mode {
            SolveMode::Exact(c) => *c,
            _ => &never,
        };
        let mut first_err: Option<ModelError> = None;
        let avg = combination_average_cancellable(&sizes, cancel, |combo| {
            if first_err.is_some() {
                return 0.0;
            }
            match self.combination_power(profiles, &queues, combo, idle_w, mode) {
                Ok(p) => p,
                Err(e) => {
                    first_err = Some(e);
                    0.0
                }
            }
        })?;
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(avg)
    }

    /// Fig. 1's incremental query: estimated processor power after
    /// additionally assigning `profile_idx` to `core`.
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_after_assigning(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        core: usize,
    ) -> Result<f64, ModelError> {
        self.estimate_after_assigning_cancellable(
            profiles,
            current,
            profile_idx,
            core,
            &CancelToken::never(),
        )
    }

    /// [`CombinedModel::estimate_after_assigning`] with a cooperative
    /// cancellation token (see
    /// [`CombinedModel::estimate_processor_power_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_after_assigning`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_after_assigning_cancellable(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        core: usize,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        self.estimate_processor_power_cancellable(
            profiles,
            &current.try_with_assigned(core, profile_idx)?,
            cancel,
        )
    }

    /// Evaluates [`CombinedModel::estimate_after_assigning`] for every
    /// candidate core, returning one estimate per entry of `cores` in
    /// order. The contended co-run sets of all candidates are first
    /// batch-solved into the equilibrium memo cache on `workers` threads
    /// (`0` means auto), each distinct set once; the candidates are then
    /// walked in order on cache hits. Estimation is deterministic, so the
    /// result is identical to a sequential loop for any worker count.
    ///
    /// # Errors
    ///
    /// The error of the first (lowest-index) failing candidate, exactly
    /// as a sequential loop would report.
    pub fn estimate_candidates(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        cores: &[usize],
        workers: usize,
    ) -> Result<Vec<f64>, ModelError> {
        self.estimate_candidates_cancellable(
            profiles,
            current,
            profile_idx,
            cores,
            workers,
            &CancelToken::never(),
        )
    }

    /// [`CombinedModel::estimate_candidates`] with one cooperative
    /// cancellation token shared by the batch solve and the candidate
    /// walk: when it fires, the in-flight solve stops at its next solver
    /// iteration and the sweep reports [`mathkit::MathError::Cancelled`].
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_candidates`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_candidates_cancellable(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        cores: &[usize],
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, ModelError> {
        // Prestage the union of every candidate's contended co-run sets so
        // the per-candidate estimates below mostly hit the shared memo
        // cache. Invalid candidates are skipped here — they report their
        // own error at the proper position in the sweep.
        let tentatives: Vec<Assignment> = cores
            .iter()
            .filter(|&&core| core < current.num_cores())
            .map(|&core| current.with_assigned(core, profile_idx))
            .collect();
        self.prestage_assignments(profiles, &tentatives, workers, cancel)?;

        // After the prestage each candidate is cache hits plus the Eq. 10/11
        // walk, a few microseconds: less than a thread spawn, so in order.
        cores
            .iter()
            .map(|&core| {
                self.estimate_after_assigning_cancellable(
                    profiles,
                    current,
                    profile_idx,
                    core,
                    cancel,
                )
            })
            .collect()
    }

    /// Power of the die for one concrete process combination: the chosen
    /// processes run simultaneously and share the die's cache.
    fn combination_power(
        &self,
        profiles: &[ProcessProfile],
        queues: &[&[usize]],
        combo: &[usize],
        idle_w: f64,
        mode: &SolveMode<'_>,
    ) -> Result<f64, ModelError> {
        // Gather the simultaneously running processes.
        let mut running: Vec<(usize, &ProcessProfile)> = Vec::new(); // (core slot, profile)
        for (slot, (&q, &pick)) in queues.iter().zip(combo).enumerate() {
            if pick == usize::MAX {
                continue;
            }
            running.push((slot, &profiles[q[pick]]));
        }
        let idle_cores = queues.len() - running.len();

        if running.len() == 1 {
            // Fig. 1 scenario (1)/(2): no cache contention — use the
            // measured alone power from the profiling vector.
            return Ok(running[0].1.core_power_alone(idle_w) + idle_cores as f64 * idle_w);
        }

        // Contended: performance model predicts SPI and MPA per process.
        let eq = match mode {
            SolveMode::Exact(cancel) => self.solve_cached(&running, cancel)?,
            SolveMode::Degraded(worst) => self.solve_degraded(&running, worst)?,
            SolveMode::Collect(sink) => {
                let idxs: Vec<usize> = queues
                    .iter()
                    .zip(combo)
                    .filter(|&(_, &pick)| pick != usize::MAX)
                    .map(|(&q, &pick)| q[pick])
                    .collect();
                sink.borrow_mut().push(idxs);
                return Ok(0.0);
            }
        };
        let mut power = idle_cores as f64 * idle_w;
        for (i, (_slot, prof)) in running.iter().enumerate() {
            let spi = eq.spis[i];
            let mpa = eq.mpas[i];
            let rates = EventRates {
                ips: 1.0 / spi,
                l1rps: prof.l1rpi / spi,
                l2rps: prof.l2rpi / spi,
                l2mps: prof.l2rpi * mpa / spi,
                brps: prof.brpi / spi,
                fpps: prof.fppi / spi,
            };
            power += self.power.predict_core(&rates);
        }
        Ok(power)
    }

    /// Memoized equilibrium solve for a co-runner set. The memo key is the
    /// *canonically ordered* list of content fingerprints, so permuted
    /// co-runner sets (`[a, b]` vs `[b, a]`) share one entry; the cached
    /// per-process results are stored in canonical order and permuted back
    /// to the caller's order on a hit. Because the solvers themselves work
    /// in the same canonical order internally, a cache hit is bit-equal to
    /// a fresh solve. Failed solves are not cached so transient-looking
    /// errors keep surfacing.
    fn solve_cached(
        &self,
        running: &[(usize, &ProcessProfile)],
        cancel: &CancelToken,
    ) -> Result<Equilibrium, ModelError> {
        let (order, key) = Self::canonical_key(running);
        if let Some(canon) = self.eq_cache.get(&key) {
            return Ok(Self::permute_back(&canon, &order));
        }
        let features: Vec<&FeatureVector> = running.iter().map(|(_, p)| &p.feature).collect();
        let eq = self.perf.solve_cancellable(&features, cancel)?;
        if eq.diagnostics.degraded || !eq.diagnostics.fallbacks.is_empty() {
            self.eq_cache.note_fallback();
        }
        self.memoize(&order, key, &eq);
        Ok(eq)
    }

    /// Stores `eq` (given in caller order) in the memo cache in canonical
    /// order under `key`.
    fn memoize(&self, order: &[usize], key: Vec<u64>, eq: &Equilibrium) {
        let mut canon = eq.clone();
        for (ci, &i) in order.iter().enumerate() {
            canon.sizes[ci] = eq.sizes[i];
            canon.mpas[ci] = eq.mpas[i];
            canon.spis[ci] = eq.spis[i];
            canon.apss[ci] = eq.apss[i];
        }
        self.eq_cache.insert(key, canon);
    }

    /// No-solve equilibrium for the degraded tier: exact (possibly stale)
    /// cache entry, else the proportional closed form. Never iterates,
    /// never scans the cache, never touches the fallback counter, and
    /// never promotes or inserts cache entries — degraded traffic must
    /// not distort the healthy path's statistics or recency order.
    fn solve_degraded(
        &self,
        running: &[(usize, &ProcessProfile)],
        worst: &Cell<DegradedSource>,
    ) -> Result<Equilibrium, ModelError> {
        let (order, key) = Self::canonical_key(running);
        if let Some(canon) = self.eq_cache.peek(&key) {
            return Ok(Self::permute_back(&canon, &order));
        }
        let features: Vec<&FeatureVector> = running.iter().map(|(_, p)| &p.feature).collect();
        Self::note_worst(worst, DegradedSource::ProportionalSplit);
        equilibrium::solve_proportional(&features, self.machine.l2_assoc())
    }

    /// Canonical solve order and memo key for a co-runner set: indices
    /// sorted by (content fingerprint, index), and the fingerprints in
    /// that order.
    fn canonical_key(running: &[(usize, &ProcessProfile)]) -> (Vec<usize>, Vec<u64>) {
        let fps: Vec<u64> = running.iter().map(|(_, p)| p.feature.content_fingerprint()).collect();
        let mut order: Vec<usize> = (0..running.len()).collect();
        order.sort_by_key(|&i| (fps[i], i));
        let key: Vec<u64> = order.iter().map(|&i| fps[i]).collect();
        (order, key)
    }

    /// Scatters a canonical-order equilibrium back to the caller's
    /// process order.
    fn permute_back(canon: &Equilibrium, order: &[usize]) -> Equilibrium {
        let mut eq = canon.clone();
        for (ci, &i) in order.iter().enumerate() {
            eq.sizes[i] = canon.sizes[ci];
            eq.mpas[i] = canon.mpas[ci];
            eq.spis[i] = canon.spis[ci];
            eq.apss[i] = canon.apss[ci];
        }
        eq
    }

    /// Records `tier` if it is worse than anything seen so far.
    fn note_worst(worst: &Cell<DegradedSource>, tier: DegradedSource) {
        if tier > worst.get() {
            worst.set(tier);
        }
    }

    fn validate(&self, profiles: &[ProcessProfile], asg: &Assignment) -> Result<(), ModelError> {
        if asg.num_cores() != self.machine.num_cores() {
            return Err(ModelError::InvalidAssignment(format!(
                "assignment covers {} cores, machine has {}",
                asg.num_cores(),
                self.machine.num_cores()
            )));
        }
        for c in 0..asg.num_cores() {
            for &p in asg.processes_on(c) {
                if p >= profiles.len() {
                    return Err(ModelError::InvalidAssignment(format!(
                        "profile index {p} out of range for {} profiles",
                        profiles.len()
                    )));
                }
                if profiles[p].feature.assoc() != self.machine.l2_assoc() {
                    return Err(ModelError::InvalidAssignment(format!(
                        "profile '{}' was built for {} ways, machine cache has {}",
                        profiles[p].feature.name(),
                        profiles[p].feature.assoc(),
                        self.machine.l2_assoc()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One die-key word per queued process: its feature fingerprint folded
/// with the bits of every other [`ProcessProfile`] field the die walk
/// reads (the event rates per instruction and the two measured powers),
/// so two profiles that share a feature vector but differ elsewhere get
/// distinct keys.
fn die_key_word(p: &ProcessProfile) -> u64 {
    let fields = [p.l1rpi, p.l2rpi, p.brpi, p.fppi, p.processor_alone_w, p.idle_processor_w];
    fields.iter().fold(p.feature.content_fingerprint(), |h, f| splitmix_finalize(h ^ f.to_bits()))
}

/// SplitMix64's output finalizer.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// MurmurHash3's 64-bit finalizer (`fmix64`).
fn murmur_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::ReuseHistogram;
    use crate::power::{PowerModel, PowerObservation};
    use crate::spi::SpiModel;
    use rand::Rng;
    use rand::SeedableRng;

    /// A hand-built profile so tests do not need simulation runs.
    fn synthetic_profile(
        name: &str,
        tail: f64,
        api: f64,
        machine: &MachineConfig,
    ) -> ProcessProfile {
        let head = 1.0 - tail;
        let hist =
            ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail)
                .unwrap();
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

    /// A power model fitted on synthetic observations derived from the
    /// machine's ground truth.
    fn synthetic_power_model(machine: &MachineConfig) -> PowerModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = machine.num_cores() as f64;
        let mut obs = Vec::new();
        for _ in 0..200 {
            let ips = rng.gen_range(1e6..2.4e7);
            let rates = cmpsim::hpc::EventRates {
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

    fn server() -> MachineConfig {
        MachineConfig::four_core_server()
    }

    #[test]
    fn assignment_builder() {
        let mut a = Assignment::new(2);
        a.assign(1, 0);
        assert_eq!(a.num_processes(), 1);
        assert_eq!(a.processes_on(0), &[] as &[usize]);
        let b = a.with_assigned(0, 1);
        assert_eq!(b.num_processes(), 2);
        assert_eq!(a.num_processes(), 1, "with_assigned must not mutate");
    }

    #[test]
    fn empty_assignment_is_all_idle() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let est = cm.estimate_processor_power(&[], &Assignment::new(4)).unwrap();
        let idle = 4.0 * pm.idle_core_watts();
        assert!((est - idle).abs() < 1e-9);
    }

    #[test]
    fn single_process_uses_alone_power() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let p = synthetic_profile("solo", 0.3, 0.02, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0);
        let est = cm.estimate_processor_power(std::slice::from_ref(&p), &asg).unwrap();
        // core 0: alone power; cores 1-3 idle.
        let expect = p.core_power_alone(pm.idle_core_watts()) + 3.0 * pm.idle_core_watts();
        assert!((est - expect).abs() < 1e-9, "{est} vs {expect}");
    }

    #[test]
    fn contended_pair_uses_model_power() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1); // same die -> contention
        let est = cm.estimate_processor_power(&[a, b], &asg).unwrap();
        // Sanity range: above idle, below silly.
        let idle = 4.0 * pm.idle_core_watts();
        assert!(est > idle + 4.0, "{est} vs idle {idle}");
        assert!(est < idle + 60.0, "{est}");
    }

    #[test]
    fn separate_dies_do_not_contend() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.4, 0.03, &m);
        let mut same_die = Assignment::new(4);
        same_die.assign(0, 0).assign(1, 1);
        let mut diff_die = Assignment::new(4);
        diff_die.assign(0, 0).assign(2, 1);
        let ps = vec![a, b];
        let p_same = cm.estimate_processor_power(&ps, &same_die).unwrap();
        let p_diff = cm.estimate_processor_power(&ps, &diff_die).unwrap();
        // Across dies each runs alone (profiled alone power); same-die
        // estimates must differ because contention changes the rates.
        assert!((p_same - p_diff).abs() > 0.05, "same {p_same} vs diff {p_diff}");
    }

    #[test]
    fn time_sharing_averages_combinations() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.3, 0.02, &m);
        // Both on core 0, partner idle: average of two alone powers.
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(0, 1);
        let est = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        let expect = (a.core_power_alone(pm.idle_core_watts())
            + b.core_power_alone(pm.idle_core_watts()))
            / 2.0
            + 3.0 * pm.idle_core_watts();
        assert!((est - expect).abs() < 1e-9, "{est} vs {expect}");
    }

    #[test]
    fn incremental_matches_full() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let ps = vec![a, b];
        let mut current = Assignment::new(4);
        current.assign(0, 0);
        let inc = cm.estimate_after_assigning(&ps, &current, 1, 1).unwrap();
        let full = cm.estimate_processor_power(&ps, &current.with_assigned(1, 1)).unwrap();
        assert_eq!(inc, full);
    }

    #[test]
    fn validation_errors() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        // Wrong core count.
        assert!(cm.estimate_processor_power(&[], &Assignment::new(2)).is_err());
        // Bad profile index.
        let mut asg = Assignment::new(4);
        asg.assign(0, 5);
        assert!(cm.estimate_processor_power(&[], &asg).is_err());
        // Out-of-range core in incremental query.
        assert!(cm.estimate_after_assigning(&[], &Assignment::new(4), 0, 9).is_err());
    }

    #[test]
    fn memoized_estimates_are_identical_and_cached() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let cold = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1, "one contended pair solved");
        let warm = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits(), "cache must not change results");
        cm.clear_equilibrium_cache();
        assert_eq!(cm.cached_equilibria(), 0);
        let refilled = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cold.to_bits(), refilled.to_bits());
    }

    #[test]
    fn cache_distinguishes_profile_content_not_index() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let ab = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        // Same indices, swapped contents: must NOT hit the stale entry.
        let ba = cm.estimate_processor_power(&[b.clone(), a.clone()], &asg).unwrap();
        let fresh = CombinedModel::new(&m, &pm);
        let ba_ref = fresh.estimate_processor_power(&[b, a], &asg).unwrap();
        assert_eq!(ba.to_bits(), ba_ref.to_bits(), "stale cache hit");
        // Symmetric pair, so powers agree loosely but the solves differ.
        assert!((ab - ba).abs() < 1.0);
    }

    #[test]
    fn estimate_candidates_matches_sequential_for_all_worker_counts() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let ps = vec![a, b, c];
        let mut current = Assignment::new(4);
        current.assign(0, 0).assign(2, 1);
        let cores = [0usize, 1, 2, 3];
        let seq: Vec<f64> = {
            let cm = CombinedModel::new(&m, &pm);
            cores
                .iter()
                .map(|&core| cm.estimate_after_assigning(&ps, &current, 2, core).unwrap())
                .collect()
        };
        for workers in [1usize, 2, 8] {
            let cm = CombinedModel::new(&m, &pm);
            let par = cm.estimate_candidates(&ps, &current, 2, &cores, workers).unwrap();
            let seq_bits: Vec<u64> = seq.iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "workers = {workers}");
            assert!(cm.cached_equilibria() >= 1);
        }
    }

    #[test]
    fn candidate_sweep_counts_one_miss_per_fresh_solve() {
        // Two busy dies; the candidates put `c` next to `a`, `b` and `d`
        // in turn, so the batch prestage solves four distinct sets
        // ({a,b}, {b,c}, {a,c}, {c,d}) and the walks then hit them.
        let m = server();
        let pm = synthetic_power_model(&m);
        let ps = vec![
            synthetic_profile("a", 0.3, 0.02, &m),
            synthetic_profile("b", 0.2, 0.015, &m),
            synthetic_profile("c", 0.5, 0.04, &m),
            synthetic_profile("d", 0.4, 0.03, &m),
        ];
        let mut current = Assignment::new(4);
        current.assign(0, 0).assign(1, 1).assign(2, 3);
        let cores = [0usize, 1, 2, 3];
        let sweep = CombinedModel::new(&m, &pm);
        sweep.estimate_candidates(&ps, &current, 2, &cores, 2).unwrap();
        let st = sweep.equilibrium_cache_stats();
        assert_eq!((st.misses, st.evictions), (4, 0), "{st:?}");
        assert_eq!(st.misses as usize, sweep.cached_equilibria(), "{st:?}");
        // A sequential loop of single estimates solves the same sets.
        let serial = CombinedModel::new(&m, &pm);
        for &core in &cores {
            serial.estimate_after_assigning(&ps, &current, 2, core).unwrap();
        }
        assert_eq!(serial.equilibrium_cache_stats().misses, st.misses);
    }

    #[test]
    fn permuted_corunners_share_one_cache_entry_bit_equal() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let ab = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1);
        // Swapped profile order: same co-runner *set*, so the canonical
        // memo key must hit the existing entry...
        let ba = cm.estimate_processor_power(&[b.clone(), a.clone()], &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1, "permutation must not add an entry");
        // ...and the permuted cached result must be bit-equal to a fresh
        // solve in the swapped order.
        let fresh = CombinedModel::new(&m, &pm);
        let ba_ref = fresh.estimate_processor_power(&[b, a], &asg).unwrap();
        assert_eq!(ba.to_bits(), ba_ref.to_bits());
        // Same physical co-run, so the totals agree (summation order over
        // cores differs, so only up to rounding).
        assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
    }

    #[test]
    fn estimate_candidates_order_independent_through_memo_cache() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let cores = [0usize, 1, 2, 3];
        // Reference: profiles in order [a, b, c], tentative process = c.
        let ps_ref = vec![a.clone(), b.clone(), c.clone()];
        let mut cur_ref = Assignment::new(4);
        cur_ref.assign(0, 0).assign(1, 1);
        let cm_ref = CombinedModel::new(&m, &pm);
        let est_ref = cm_ref.estimate_candidates(&ps_ref, &cur_ref, 2, &cores, 2).unwrap();
        // Permuted: profiles in order [c, b, a]; the same physical
        // placement (a on core 0, b on core 1, c tentative).
        let ps_perm = vec![c, b, a];
        let mut cur_perm = Assignment::new(4);
        cur_perm.assign(0, 2).assign(1, 1);
        let cm_perm = CombinedModel::new(&m, &pm);
        // Warm the permuted model's cache with the reference order first,
        // so the permuted estimates flow through permuted cache hits.
        let full_ref = cm_ref.estimate_processor_power(&ps_ref, &cur_ref.with_assigned(1, 2));
        let warm = cm_perm.estimate_processor_power(&ps_perm, &cur_perm.with_assigned(1, 0));
        assert_eq!(full_ref.unwrap().to_bits(), warm.unwrap().to_bits());
        let est_perm = cm_perm.estimate_candidates(&ps_perm, &cur_perm, 0, &cores, 2).unwrap();
        let ref_bits: Vec<u64> = est_ref.iter().map(|x| x.to_bits()).collect();
        let perm_bits: Vec<u64> = est_perm.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ref_bits, perm_bits, "physical placement is identical");
    }

    #[test]
    fn cache_stays_bounded_and_evicted_entries_resolve_bit_identical() {
        let m = server();
        let pm = synthetic_power_model(&m);
        // A deliberately tiny bound so a modest sweep overflows it.
        let cm = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(8);
        let cap = cm.equilibrium_cache_stats().capacity;
        assert!((8..=16).contains(&cap), "rounded-up capacity, got {cap}");

        // Sweep far more distinct contended pairs than the bound holds.
        let partner = synthetic_profile("partner", 0.2, 0.015, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let mut cold = Vec::new();
        for i in 0..3 * cap {
            let p = synthetic_profile("p", 0.1 + 0.7 * (i as f64) / (3 * cap) as f64, 0.02, &m);
            let ps = vec![p, partner.clone()];
            cold.push(cm.estimate_processor_power(&ps, &asg).unwrap());
            let st = cm.equilibrium_cache_stats();
            assert!(st.entries <= st.capacity, "iteration {i}: {st:?}");
        }
        let st = cm.equilibrium_cache_stats();
        assert!(st.evictions > 0, "sweep must overflow the bound: {st:?}");
        assert_eq!(st.misses as usize, 3 * cap, "each distinct pair solves once");

        // Replaying the sweep forces re-solves of evicted pairs (the die
        // memo is just as overflowed, so it cannot answer the pass on its
        // own); every estimate must be bit-identical to its cold pass.
        for (i, &cold_est) in cold.iter().enumerate() {
            let p = synthetic_profile("p", 0.1 + 0.7 * (i as f64) / (3 * cap) as f64, 0.02, &m);
            let ps = vec![p, partner.clone()];
            let warm = cm.estimate_processor_power(&ps, &asg).unwrap();
            assert_eq!(cold_est.to_bits(), warm.to_bits(), "iteration {i}");
        }
        let replayed = cm.equilibrium_cache_stats();
        assert!(replayed.misses > st.misses, "the replay must re-solve: {st:?} -> {replayed:?}");
    }

    #[test]
    fn die_memo_stays_within_the_capacity() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(8);
        let cap = cm.equilibrium_cache_stats().capacity;
        let partner = synthetic_profile("partner", 0.2, 0.015, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1).assign(2, 0).assign(3, 1);
        for i in 0..4 * cap {
            let p = synthetic_profile("p", 0.1 + 0.7 * (i as f64) / (4 * cap) as f64, 0.02, &m);
            let ps = [p, partner.clone()];
            let cold = cm.estimate_processor_power(&ps, &asg).unwrap();
            let warm = cm.estimate_processor_power(&ps, &asg).unwrap();
            assert_eq!(cold.to_bits(), warm.to_bits());
            let st = cm.equilibrium_cache_stats();
            assert!(st.die_entries <= st.capacity, "iteration {i}: {st:?}");
        }
        // Both dies hold the same queues, so they share one entry: the
        // first estimate of each pair misses on die 0 and hits on die 1,
        // and the second hits twice.
        let st = cm.equilibrium_cache_stats();
        let cap = cap as u64;
        assert_eq!((st.die_hits, st.die_misses), (12 * cap, 4 * cap), "{st:?}");
        cm.clear_equilibrium_cache();
        let st = cm.equilibrium_cache_stats();
        assert_eq!((st.entries, st.die_entries), (0, 0), "clear drops both memos");
    }

    #[test]
    fn die_memo_key_covers_every_profile_field_it_reads() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        // Same feature vector (so the same fingerprint), different
        // event rate; then the same again with a different alone power.
        let hotter = ProcessProfile { l1rpi: a.l1rpi * 1.5, ..a.clone() };
        let louder = ProcessProfile { processor_alone_w: a.processor_alone_w + 7.0, ..a.clone() };
        assert_eq!(hotter.feature.content_fingerprint(), a.feature.content_fingerprint());
        let mut pair = Assignment::new(4);
        pair.assign(0, 0).assign(1, 1);
        let mut solo = Assignment::new(4);
        solo.assign(0, 0);
        let cm = CombinedModel::new(&m, &pm);
        let uncached = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        for asg in [&pair, &solo] {
            for variant in [&a, &hotter, &louder] {
                let ps = [variant.clone(), b.clone()];
                let got = cm.estimate_processor_power(&ps, asg).unwrap();
                let want = uncached.estimate_processor_power(&ps, asg).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{asg:?}");
            }
        }
        let st = cm.equilibrium_cache_stats();
        assert_eq!(st.die_hits, 0, "every variant is a distinct die: {st:?}");
        assert_eq!(uncached.equilibrium_cache_stats().die_entries, 0);
    }

    #[test]
    fn degraded_estimates_bypass_the_die_memo() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let ps = vec![synthetic_profile("a", 0.4, 0.03, &m), synthetic_profile("b", 0.1, 0.01, &m)];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let cm = CombinedModel::new(&m, &pm);
        cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        let st = cm.equilibrium_cache_stats();
        assert_eq!((st.die_hits, st.die_misses, st.die_entries), (0, 0, 0), "{st:?}");
    }

    #[test]
    fn zero_capacity_cache_still_estimates_identically() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let cached = CombinedModel::new(&m, &pm);
        let uncached = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        let x = cached.estimate_processor_power(&ps, &asg).unwrap();
        let y = uncached.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(x.to_bits(), y.to_bits());
        assert_eq!(uncached.cached_equilibria(), 0);
        assert_eq!(uncached.equilibrium_cache_stats().capacity, 0);
    }

    #[test]
    fn cancellable_with_never_token_is_bit_exact() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let plain = cm.estimate_processor_power(&ps, &asg).unwrap();
        cm.clear_equilibrium_cache();
        let never =
            cm.estimate_processor_power_cancellable(&ps, &asg, &CancelToken::never()).unwrap();
        assert_eq!(plain.to_bits(), never.to_bits());
        let cands = cm.estimate_candidates(&ps, &Assignment::new(4), 0, &[0, 1], 2).unwrap();
        let cands_c = cm
            .estimate_candidates_cancellable(
                &ps,
                &Assignment::new(4),
                0,
                &[0, 1],
                2,
                &CancelToken::never(),
            )
            .unwrap();
        let xb: Vec<u64> = cands.iter().map(|x| x.to_bits()).collect();
        let yb: Vec<u64> = cands_c.iter().map(|x| x.to_bits()).collect();
        assert_eq!(xb, yb);
    }

    #[test]
    fn fired_token_propagates_typed_cancellation() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let fired = CancelToken::from_fn(|| true);
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(
            matches!(err, ModelError::Math(mathkit::MathError::Cancelled)),
            "want typed cancellation, got {err:?}"
        );
        // Candidate sweep: core 1 shares core 0's die, so the candidate
        // co-run is contended and must hit the cancellation point.
        let mut cur = Assignment::new(4);
        cur.assign(0, 0);
        let err = cm.estimate_candidates_cancellable(&ps, &cur, 1, &[1], 2, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
        // The combination walk itself is a cancellation point, so a
        // fired token stops the estimate even when every equilibrium is
        // already cached and no solver would run.
        let _ = cm.estimate_processor_power(&ps, &asg).unwrap();
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
    }

    #[test]
    fn fired_token_cancels_solver_free_paths() {
        // One process alone on its die: the makespan walk takes the
        // alone-on-die shortcut and never enters an equilibrium solve,
        // so only the combination walk's own poll can observe the token.
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let ps = vec![synthetic_profile("a", 0.4, 0.03, &m)];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0);
        let fired = CancelToken::from_fn(|| true);
        let err = cm.estimate_makespan_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(
            matches!(err, ModelError::Math(mathkit::MathError::Cancelled)),
            "solver-free makespan path must still cancel, got {err:?}"
        );
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
    }

    #[test]
    fn degraded_exact_cache_tier_is_bit_exact_with_healthy_estimate() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let healthy = cm.estimate_processor_power(&ps, &asg).unwrap();
        let stats_before = cm.equilibrium_cache_stats();
        let deg = cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::ExactCache);
        assert_eq!(deg.power_w.to_bits(), healthy.to_bits());
        let stats_after = cm.equilibrium_cache_stats();
        assert_eq!(stats_before, stats_after, "degraded reads must not touch counters");
        assert_eq!(cm.solver_fallbacks(), 0, "degraded answers are not solver fallbacks");
    }

    #[test]
    fn degraded_miss_is_proportional_whatever_is_cached() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let uncached = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let c = synthetic_profile("c", 0.45, 0.032, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        // Warm the cache with the (a, b) pair exactly; (c, b) shares b's
        // fingerprint but misses, so it gets the closed form, as if
        // nothing were cached.
        cm.estimate_processor_power(&[a, b.clone()], &asg).unwrap();
        let ps = vec![c, b];
        let deg = cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::ProportionalSplit);
        let bare = uncached.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(bare.source, DegradedSource::ProportionalSplit);
        assert_eq!(deg.power_w.to_bits(), bare.power_w.to_bits());
    }

    #[test]
    fn degraded_cold_cache_falls_back_to_proportional_split() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let deg = cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::ProportionalSplit);
        assert!(deg.power_w.is_finite() && deg.power_w > 0.0);
        assert_eq!(cm.cached_equilibria(), 0, "degraded solves must not populate the cache");
        // Uncontended shapes never need an equilibrium, so even the
        // proportional tier reports the exact-cache (best) source.
        let mut solo = Assignment::new(4);
        solo.assign(0, 0);
        let deg_solo = cm.estimate_processor_power_degraded(&ps, &solo).unwrap();
        assert_eq!(deg_solo.source, DegradedSource::ExactCache);
        let healthy_solo = cm.estimate_processor_power(&ps, &solo).unwrap();
        assert_eq!(deg_solo.power_w.to_bits(), healthy_solo.to_bits());
    }

    #[test]
    fn degraded_source_order_and_names() {
        assert!(DegradedSource::ExactCache < DegradedSource::ProportionalSplit);
        assert_eq!(DegradedSource::ExactCache.name(), "exact_cache");
        assert_eq!(DegradedSource::ProportionalSplit.name(), "proportional_split");
    }

    #[test]
    fn candidate_prestage_leaves_results_bit_identical() {
        // The candidate sweep prestages the union of all candidates'
        // co-run sets through the batch solver; estimates must stay
        // bit-identical to a model that never prestages (capacity 0
        // disables the cache and with it the prestage).
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let ps = vec![a, b, c];
        let mut current = Assignment::new(4);
        current.assign(0, 0).assign(2, 1);
        let cores = [0usize, 1, 2, 3];
        let plain = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        let staged = CombinedModel::new(&m, &pm);
        let x = plain.estimate_candidates(&ps, &current, 2, &cores, 2).unwrap();
        let y = staged.estimate_candidates(&ps, &current, 2, &cores, 2).unwrap();
        let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb);
        assert!(staged.cached_equilibria() >= 2, "prestage should have populated the cache");
    }

    #[test]
    fn assignment_on_lower_power_machine_costs_less() {
        let big = server();
        let small = MachineConfig::duo_laptop();
        let pm_big = synthetic_power_model(&big);
        let pm_small = synthetic_power_model(&small);
        let p_big = synthetic_profile("x", 0.3, 0.02, &big);
        let p_small = synthetic_profile("x", 0.3, 0.02, &small);
        let mut asg_big = Assignment::new(4);
        asg_big.assign(0, 0);
        let mut asg_small = Assignment::new(2);
        asg_small.assign(0, 0);
        let e_big =
            CombinedModel::new(&big, &pm_big).estimate_processor_power(&[p_big], &asg_big).unwrap();
        let e_small = CombinedModel::new(&small, &pm_small)
            .estimate_processor_power(&[p_small], &asg_small)
            .unwrap();
        assert!(e_big > e_small);
    }
}
