//! The discrete-event simulation kernel.
//!
//! Every step of the min-clock schedule (see `crate::engine`), every
//! scheduler slice expiry, every occupancy snapshot, and every mid-run
//! process arrival and departure is a [`QueuedEvent`] on a
//! `BinaryHeap<Reverse<QueuedEvent>>`.
//!
//! # Ordering contract
//!
//! Events are totally ordered by `(time, seq)`, popped smallest-first.
//! `seq` packs a *kind band* in its high bits and an identity (process or
//! core index) in its low bits, so ties at equal time resolve:
//!
//! 1. **Departure** — a process leaving at `t` is gone before anything
//!    else at `t` observes the core;
//! 2. **Arrival** — a newcomer at `t` joins the rotation before slices
//!    expire or steps start at `t`;
//! 3. **Snapshot** — a grid point at `t` fires before any step *starting*
//!    at `t`, since a snapshot fires once the smallest live clock reaches
//!    it;
//! 4. **SliceExpiry** — a boundary at `t` rotates the scheduler before a
//!    step starting at `t` picks its process (the boundary test at step
//!    start is inclusive, `now >= slice_end`);
//! 5. **StepReady** — ties between cores break by lowest core index, the
//!    strict `<` of the min-clock rule.
//!
//! Each identity schedules at most one live event of a kind at a time, so
//! heap insertion order cannot affect the pop order of distinct events and
//! the kernel is insertion-order deterministic (pinned by tests here and
//! the scrambled-placement battery in `tests/parallel_determinism.rs`).
//!
//! # Termination
//!
//! A loop ends on a live-core count, not on heap exhaustion: it stops
//! right after the event that retires its last live core, either the step
//! that carries the core's clock past the end of the run or the departure
//! that empties it for good. Snapshots and expiries queued past that event
//! never fire: once no core is live, no step is left for them to precede.
//! The loop reports where it stopped as a [`LoopEnd`].
//!
//! # Per-die decomposition
//!
//! [`run`] does not drive the whole machine through one heap. Dies share
//! nothing at run time: each has its own L2 and prefetcher, memory
//! latency is a constant, and every process RNG is seeded before the
//! first step. So the world splits into one sub-world per busy die, each
//! runs the same loop ([`run_from`]) on its own worker, and the pieces
//! merge back in die order. Two things couple dies in the single loop,
//! and the merge restores both:
//!
//! - switch and expiry counts are sums, so the per-die counts add up;
//! - snapshots are global: the single loop keeps firing them until the
//!   last core *anywhere* retires. A die that finished earlier has a
//!   frozen L2 from then on, so its missing snapshots are the grid points
//!   whose key lies between its own [`LoopEnd`] and the latest one across
//!   dies, taken on that frozen cache afterwards.
//!
//! # Pinned bits
//!
//! Golden digests of a seeded placement corpus in
//! `tests/parallel_determinism.rs` pin every `SimResult` field at every
//! worker count, and the unit tests compare churn-free runs against a
//! test-only transcription of the min-clock rule as a plain scan.

use crate::engine::{snapshot_occupancy, step_core, SimError, SimWorld};
use crate::machine::MachineConfig;
use crate::sched::TimeSliceScheduler;
use crate::types::Cycles;
use mathkit::parallel::try_par_map;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What a queued event does when it fires. Payloads are indices into the
/// process/core tables of the world the loop runs, which is one die's
/// sub-world in production.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Process `pid` leaves its core's run queue.
    Departure(usize),
    /// Process `pid` joins its core's run queue.
    Arrival(usize),
    /// Global occupancy snapshot on the sampling grid.
    Snapshot,
    /// A slice boundary on core `c`; stale if the scheduler re-anchored.
    SliceExpiry(usize),
    /// Core `c` is ready to start its next step.
    StepReady(usize),
}

impl EventKind {
    /// Tie-break sequence: kind band (ordering contract above) in the
    /// high bits, identity in the low bits.
    fn seq(self) -> u64 {
        match self {
            EventKind::Departure(pid) => pid as u64,
            EventKind::Arrival(pid) => (1 << 32) | pid as u64,
            EventKind::Snapshot => 2 << 32,
            EventKind::SliceExpiry(c) => (3 << 32) | c as u64,
            EventKind::StepReady(c) => (4 << 32) | c as u64,
        }
    }
}

/// A timestamped event; ordered by `(time, seq)` only, so equal-time
/// events pop in the documented band order regardless of insertion order.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: Cycles,
    seq: u64,
    kind: EventKind,
}

impl QueuedEvent {
    fn new(time: Cycles, kind: EventKind) -> Self {
        QueuedEvent { time, seq: kind.seq(), kind }
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueuedEvent {}

/// Where an event loop stopped (see the module docs on termination).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopEnd {
    /// `(time, seq)` of the last event popped; `None` if no core was live.
    last: Option<(Cycles, u64)>,
    /// The snapshot time queued but not fired.
    next_snapshot: Cycles,
}

/// Runs the world to completion on the event kernel, each busy die on its
/// own worker (see the module docs on the per-die decomposition). Workers
/// come from `mathkit::parallel`; one busy die runs inline.
///
/// Returns how many trailing snapshots were taken on finished dies.
///
/// # Errors
///
/// Only scheduler construction for an arriving process can fail, and its
/// weight was validated at build time, so errors are unreachable in
/// practice; they are propagated rather than panicking to honor the
/// crate's panic-freedom policy.
pub(crate) fn run(world: &mut SimWorld, machine: &MachineConfig) -> Result<usize, SimError> {
    let mut dies = world.split_by_die();
    let busy: Vec<&mut SimWorld> = dies.iter_mut().filter(|die| !die.procs.is_empty()).collect();
    let ran = try_par_map(busy, 0, |_, die| {
        let initial = seed_events(die);
        run_from(die, machine, initial).map(|end| (die, end))
    })?;
    // The single loop would have stopped at the latest end across dies.
    let mut trailing = 0;
    if let Some(last) = ran.iter().filter_map(|(_, end)| end.last).max() {
        for (die, end) in ran {
            trailing += fire_trailing_snapshots(die, end.next_snapshot, last);
        }
    }
    world.merge_dies(dies);
    Ok(trailing)
}

/// Takes the snapshots a finished die missed: grid points from `from` on
/// whose key precedes `until`, the key the single loop would have stopped
/// at. Keys compare correctly across dies although their identities are
/// die-local: a loop only ends on a departure or a step, and the snapshot
/// band lies strictly between those two bands. Returns how many it took.
fn fire_trailing_snapshots(world: &mut SimWorld, from: Cycles, until: (Cycles, u64)) -> usize {
    let mut at = from;
    let mut taken = 0;
    while (at, EventKind::Snapshot.seq()) < until {
        snapshot_occupancy(world, at);
        at += world.period_cycles;
        taken += 1;
    }
    taken
}

/// The initial event set: one `StepReady` per running core, the first
/// snapshot, and every arrival/departure from the residency windows.
fn seed_events(world: &SimWorld) -> Vec<QueuedEvent> {
    let mut initial = Vec::new();
    initial.push(QueuedEvent::new(world.period_cycles, EventKind::Snapshot));
    for (c, core) in world.cores.iter().enumerate() {
        if !core.run.is_empty() {
            initial.push(QueuedEvent::new(0, EventKind::StepReady(c)));
            if let Some(s) = &core.sched {
                initial.push(QueuedEvent::new(s.slice_end(), EventKind::SliceExpiry(c)));
            }
        }
    }
    for (pid, p) in world.procs.iter().enumerate() {
        if p.arrival > 0 {
            initial.push(QueuedEvent::new(p.arrival, EventKind::Arrival(pid)));
        }
        if p.departure < world.end_cycles {
            initial.push(QueuedEvent::new(p.departure, EventKind::Departure(pid)));
        }
    }
    initial
}

/// The event loop proper, generic over the initial event order so tests
/// can scramble it. Runs any world, one die or the whole machine.
fn run_from(
    world: &mut SimWorld,
    machine: &MachineConfig,
    initial: Vec<QueuedEvent>,
) -> Result<LoopEnd, SimError> {
    let mut heap: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::with_capacity(initial.len() + 8);
    for ev in initial {
        heap.push(Reverse(ev));
    }
    // Whether a StepReady is already queued for each core (at most one).
    let mut step_pending: Vec<bool> = world.cores.iter().map(|c| !c.run.is_empty()).collect();
    // Cores that can still start a step now or in the future. When this
    // hits zero the run is over (see the module docs on termination).
    let mut live = world.cores.iter().filter(|c| !c.done).count();
    // `seed_events` queues the first snapshot one period in.
    let mut end = LoopEnd { last: None, next_snapshot: world.period_cycles };

    while live > 0 {
        let Some(Reverse(ev)) = heap.pop() else {
            debug_assert!(false, "live cores but an empty event heap");
            break;
        };
        end.last = Some((ev.time, ev.seq));
        match ev.kind {
            EventKind::Snapshot => {
                snapshot_occupancy(world, ev.time);
                end.next_snapshot = ev.time + world.period_cycles;
                heap.push(Reverse(QueuedEvent::new(
                    ev.time + world.period_cycles,
                    EventKind::Snapshot,
                )));
            }
            EventKind::StepReady(c) => {
                step_pending[c] = false;
                let core = &mut world.cores[c];
                if core.done || core.run.is_empty() {
                    continue;
                }
                debug_assert_eq!(ev.time, core.clock, "step must start at the core clock");
                let pi = core.run[core.sched.as_ref().map_or(0, TimeSliceScheduler::current)];
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
                let core = &world.cores[c];
                if core.done {
                    live -= 1;
                } else {
                    heap.push(Reverse(QueuedEvent::new(core.clock, EventKind::StepReady(c))));
                    step_pending[c] = true;
                }
            }
            EventKind::SliceExpiry(c) => {
                let core = &mut world.cores[c];
                if core.done {
                    continue;
                }
                let Some(sched) = &mut core.sched else { continue };
                // Stale if the scheduler re-anchored (departure handoff or
                // idle-to-running arrival) since this boundary was queued.
                if ev.time != sched.slice_end() {
                    continue;
                }
                world.context_switches += sched.maybe_switch(ev.time);
                heap.push(Reverse(QueuedEvent::new(sched.slice_end(), EventKind::SliceExpiry(c))));
            }
            EventKind::Arrival(pid) => {
                let c = world.procs[pid].core;
                let weight = world.procs[pid].weight;
                let core = &mut world.cores[c];
                core.pending_arrivals -= 1;
                if core.done {
                    // The core ran past the end of the simulation before
                    // this arrival; the process never runs.
                    continue;
                }
                let was_empty = core.run.is_empty();
                core.run.push(pid);
                if was_empty {
                    // Idle-to-running: the first step starts at the later
                    // of the arrival time and the clock the core stopped
                    // at, with a fresh slice anchored there.
                    let start = core.clock.max(ev.time);
                    core.clock = start;
                    let mut sched = TimeSliceScheduler::new(1, world.timeslice, &[weight])
                        .map_err(SimError::InvalidOptions)?;
                    sched.anchor(start);
                    heap.push(Reverse(QueuedEvent::new(
                        sched.slice_end(),
                        EventKind::SliceExpiry(c),
                    )));
                    core.sched = Some(sched);
                    if !step_pending[c] {
                        heap.push(Reverse(QueuedEvent::new(start, EventKind::StepReady(c))));
                        step_pending[c] = true;
                    }
                } else if let Some(sched) = &mut core.sched {
                    sched.push(weight).map_err(SimError::InvalidOptions)?;
                }
            }
            EventKind::Departure(pid) => {
                let c = world.procs[pid].core;
                let core = &mut world.cores[c];
                if core.done {
                    continue;
                }
                let Some(k) = core.run.iter().position(|&x| x == pid) else { continue };
                core.run.remove(k);
                if core.run.is_empty() {
                    // Last process gone: retire the scheduler, banking its
                    // expiry count for the final tally.
                    if let Some(s) = core.sched.take() {
                        core.retired_expiries += s.expiries();
                    }
                    if core.pending_arrivals == 0 {
                        core.done = true;
                        live -= 1;
                    }
                } else if let Some(sched) = &mut core.sched {
                    if sched.remove(k, ev.time) {
                        // The running process left: the handoff counts as
                        // a switch and re-anchors the slice, so start a
                        // fresh expiry chain (the old one is now stale).
                        world.context_switches += 1;
                        heap.push(Reverse(QueuedEvent::new(
                            sched.slice_end(),
                            EventKind::SliceExpiry(c),
                        )));
                    }
                }
            }
        }
    }

    world.slice_expiries = world
        .cores
        .iter()
        .map(|c| c.retired_expiries + c.sched.as_ref().map_or(0, TimeSliceScheduler::expiries))
        .sum();
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{build_world_for_tests, finish_for_tests, simulate_lockstep};
    use crate::engine::{simulate, Placement, SimOptions, SimResult};
    use crate::machine::MachineConfig;
    use crate::process::testutil::CyclicGenerator;
    use crate::process::ProcessSpec;

    fn machine() -> MachineConfig {
        MachineConfig {
            l2_sets: 16,
            l2_assoc: 4,
            timeslice_s: 0.01,
            ..MachineConfig::two_core_workstation()
        }
    }

    fn cyclic(name: &str, base: u64, footprint: u64, gap: u64) -> ProcessSpec {
        ProcessSpec::new(name, Box::new(CyclicGenerator::new(base, footprint, gap)))
    }

    fn opts() -> SimOptions {
        SimOptions { duration_s: 0.25, warmup_s: 0.05, seed: 42, ..Default::default() }
    }

    #[test]
    fn event_ordering_bands() {
        // Equal-time events pop in the documented band order; StepReady
        // ties break by core index.
        let evs = [
            QueuedEvent::new(100, EventKind::StepReady(1)),
            QueuedEvent::new(100, EventKind::StepReady(0)),
            QueuedEvent::new(100, EventKind::SliceExpiry(0)),
            QueuedEvent::new(100, EventKind::Snapshot),
            QueuedEvent::new(100, EventKind::Arrival(3)),
            QueuedEvent::new(100, EventKind::Departure(7)),
            QueuedEvent::new(99, EventKind::StepReady(5)),
        ];
        let mut heap: BinaryHeap<Reverse<QueuedEvent>> = evs.iter().map(|&e| Reverse(e)).collect();
        let mut order = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            order.push((e.time, e.seq));
        }
        let sorted = {
            let mut s = order.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(order, sorted);
        assert_eq!(order[0].0, 99);
        assert_eq!(order[1], (100, 7)); // departure first
        assert_eq!(order[2], (100, (1 << 32) | 3)); // then arrival
        assert_eq!(order[3], (100, 2 << 32)); // then snapshot
        assert_eq!(order[4], (100, 3 << 32)); // then expiry
        assert_eq!(order[5], (100, 4 << 32)); // StepReady core 0 ...
        assert_eq!(order[6], (100, (4 << 32) | 1)); // ... before core 1
    }

    fn churn_placement() -> Placement {
        let m = machine();
        let third = (0.25 * m.freq_hz / 3.0) as u64;
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic("steady", 0, 48, 20)).unwrap();
        pl.assign(0, cyclic("late", 5_000, 16, 25).with_arrival(third)).unwrap();
        pl.assign(
            1,
            cyclic("brief", 10_000, 24, 30).with_arrival(third / 2).with_departure(2 * third),
        )
        .unwrap();
        pl
    }

    fn run_scrambled(rotate: usize) -> SimResult {
        // Drives the kernel with a rotated initial-event order through the
        // internal seam; results must not depend on insertion order.
        let m = machine();
        let mut world = build_world_for_tests(&m, churn_placement(), &opts());
        let mut initial = seed_events(&world);
        let split = rotate % initial.len();
        initial.rotate_left(split);
        run_from(&mut world, &m, initial).unwrap();
        finish_for_tests(world, &m)
    }

    /// Runs `placement` both ways: per die through [`run`], and as one
    /// whole-machine loop through [`run_from`]. Returns both results and
    /// the number of trailing snapshots the per-die run took.
    fn per_die_and_whole(
        m: &MachineConfig,
        placement: impl Fn() -> Placement,
        o: &SimOptions,
    ) -> (SimResult, SimResult, usize) {
        let mut world = build_world_for_tests(m, placement(), o);
        let trailing = run(&mut world, m).unwrap();
        let per_die = finish_for_tests(world, m);
        let mut whole = build_world_for_tests(m, placement(), o);
        let initial = seed_events(&whole);
        run_from(&mut whole, m, initial).unwrap();
        (per_die, finish_for_tests(whole, m), trailing)
    }

    fn server() -> MachineConfig {
        MachineConfig {
            l2_sets: 16,
            l2_assoc: 4,
            timeslice_s: 0.01,
            ..MachineConfig::four_core_server()
        }
    }

    #[test]
    fn trailing_snapshots_fire_on_a_finished_die() {
        // Footprints fit the 64-line L2s and gaps are fixed, so step start
        // times are exact. Die 0's only process misses on every step (16
        // distinct lines, 12 steps), each step taking 100_000 + 240
        // cycles: its last step starts at 11 * 100_240 = 1_102_640 of the
        // run's 1_200_000 cycles. Die 1 steps every few dozen cycles up to
        // the end. The 1 ms (24_000-cycle) grid points 1_104_000 through
        // 1_176_000 fall in between, so die 0's loop stops before them and
        // they must be taken on its frozen L2, where its occupancy (12 of
        // 16 sets filled) differs from every earlier snapshot's.
        let m = MachineConfig { sample_period_s: 0.001, ..server() };
        let placement = || {
            let mut pl = Placement::idle(4);
            pl.assign(0, cyclic("slow", 0, 16, 100_000)).unwrap();
            pl.assign(2, cyclic("fast", 9_000, 16, 20)).unwrap();
            pl.assign(2, cyclic("shared", 19_000, 24, 30)).unwrap();
            pl
        };
        let o = SimOptions { duration_s: 0.05, warmup_s: 0.01, seed: 3, ..Default::default() };
        let (per_die, whole, trailing) = per_die_and_whole(&m, placement, &o);
        assert_eq!(trailing, 4);
        assert_eq!(per_die, whole);
        assert_eq!(per_die, simulate_lockstep(&m, placement(), &o));
        assert!(per_die.context_switches > 0);
    }

    /// Arrivals and departures on both dies of the server; die 0 empties
    /// for good a third of the way in.
    fn server_churn_placement() -> Placement {
        let end = (0.25 * server().freq_hz) as u64;
        let mut pl = Placement::idle(4);
        pl.assign(0, cyclic("d0-resident", 0, 24, 20).with_departure(end / 4)).unwrap();
        pl.assign(
            0,
            cyclic("d0-visitor", 3_000, 16, 25).with_arrival(end / 10).with_departure(end / 3),
        )
        .unwrap();
        pl.assign(1, cyclic("d0-brief", 6_000, 32, 30).with_departure(end / 5)).unwrap();
        pl.assign(2, cyclic("d1-resident", 10_000, 48, 20)).unwrap();
        pl.assign(2, cyclic("d1-late", 14_000, 16, 35).with_arrival(end / 3)).unwrap();
        pl.assign(
            3,
            cyclic("d1-visitor", 18_000, 24, 30).with_arrival(end / 5).with_departure(2 * end / 3),
        )
        .unwrap();
        pl
    }

    #[test]
    fn two_die_churn_matches_the_whole_machine_loop() {
        // The lockstep scan has no churn, so the whole-machine loop is the
        // reference here.
        let (per_die, whole, trailing) =
            per_die_and_whole(&server(), server_churn_placement, &opts());
        assert_eq!(per_die, whole);
        // Die 0 stopped early, so the snapshots after it were trailing.
        assert!(trailing > 0);
        assert!(per_die.processes.iter().all(|p| p.counters.instructions > 0));
        assert!(per_die.context_switches > 0);
        assert_eq!(simulate(&server(), server_churn_placement(), opts()).unwrap(), per_die);
    }

    #[test]
    fn insertion_order_does_not_change_results() {
        let baseline = run_scrambled(0);
        assert!(baseline.processes.iter().any(|p| p.counters.instructions > 0));
        for rotate in 1..6 {
            assert_eq!(baseline, run_scrambled(rotate), "rotation {rotate}");
        }
    }

    #[test]
    fn arrival_and_departure_take_effect() {
        let m = machine();
        let r = simulate(&m, churn_placement(), opts()).unwrap();
        let steady = r.process("steady").unwrap();
        let late = r.process("late").unwrap();
        let brief = r.process("brief").unwrap();
        // The latecomer shares core 0 for ~2/3 of the run: it must run,
        // but strictly less than the from-the-start process.
        assert!(late.counters.instructions > 0);
        assert!(late.active_seconds < steady.active_seconds);
        // The brief process runs alone on core 1 for ~half the run.
        assert!(brief.counters.instructions > 0);
        assert!(brief.active_seconds < 0.7 * 0.25);
        // Arrival/departure on a time-shared core forces switches.
        assert!(r.context_switches > 0);
    }

    #[test]
    fn departure_of_solo_process_idles_the_core() {
        let m = machine();
        let quarter = (0.25 * m.freq_hz / 4.0) as u64;
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic("solo", 0, 16, 20).with_departure(quarter)).unwrap();
        pl.assign(1, cyclic("full", 9_000, 16, 20)).unwrap();
        let r = simulate(&m, pl, opts()).unwrap();
        let solo = r.process("solo").unwrap();
        let full = r.process("full").unwrap();
        assert!(solo.counters.instructions > 0);
        // Departing a quarter in, with a 0.05 s warmup, leaves ~0.0125 s
        // of counted activity vs ~0.2 s for the full-run process.
        assert!(solo.active_seconds < 0.3 * full.active_seconds);
        assert_eq!(r.context_switches, 0); // solo processes never switch
    }

    #[test]
    fn arrival_after_core_finishes_is_harmless() {
        let m = machine();
        // Arrives just shy of the end: validated, but the core's last step
        // may overshoot past it. Must not panic and the latecomer's stats
        // stay near-empty.
        let end = (0.25 * m.freq_hz) as u64;
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic("a", 0, 16, 20)).unwrap();
        pl.assign(0, cyclic("tail", 4_000, 16, 20).with_arrival(end - 1)).unwrap();
        let r = simulate(&m, pl, opts()).unwrap();
        let tail = r.process("tail").unwrap();
        assert!(tail.counters.instructions < 1_000, "{}", tail.counters.instructions);
    }

    #[test]
    fn back_to_back_residency_on_one_core() {
        // One process departs, the core idles, a second arrives later:
        // exercises scheduler retirement and idle-to-running re-anchoring.
        let m = machine();
        let end = (0.25 * m.freq_hz) as u64;
        let mut pl = Placement::idle(2);
        pl.assign(0, cyclic("first", 0, 16, 20).with_departure(end / 4)).unwrap();
        pl.assign(0, cyclic("second", 6_000, 16, 20).with_arrival(end / 2)).unwrap();
        let r = simulate(&m, pl, opts()).unwrap();
        assert!(r.process("first").unwrap().counters.instructions > 0);
        assert!(r.process("second").unwrap().counters.instructions > 0);
        assert_eq!(r.context_switches, 0);
        // Both schedulers' expiries are tallied (retired + live).
        assert!(r.slice_expiries > 0);
    }
}
