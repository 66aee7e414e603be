//! The process abstraction the engine executes.
//!
//! A simulated process is an [`AccessGenerator`]: a stream of *steps*, each
//! consisting of a block of non-memory work (instructions, L1 references,
//! branches, FP operations) optionally terminated by one L2 reference.
//! Concrete generators live in the `workloads` crate; the engine only
//! consumes the trait.

use crate::types::{Cycles, LineAddr};
use rand::RngCore;

/// One unit of work emitted by a generator.
///
/// The engine charges `instructions * cpi_base` cycles for the block, plus
/// the L2 access latency (hit or miss) if `access` is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Step {
    /// Instructions retired in this block (should be >= 1 so time always
    /// advances; the engine treats an all-zero step as a fatal generator
    /// bug via `debug_assert`).
    pub instructions: u64,
    /// L1 data references in this block.
    pub l1_refs: u64,
    /// Branch instructions in this block.
    pub branches: u64,
    /// Floating-point operations in this block.
    pub fp_ops: u64,
    /// Extra cycles the core spends stalled (no instructions retiring)
    /// during this block — lets generators model halted/sleeping phases.
    pub stall_cycles: u64,
    /// The L2 reference that ends the block, if any.
    pub access: Option<LineAddr>,
}

/// A deterministic (given an RNG) source of [`Step`]s.
///
/// Generators are driven by the engine's per-process RNG so that whole
/// simulations are reproducible from a single seed.
///
/// A generator must not share mutable state with another process's
/// generator (through an `Arc<Mutex<_>>`, an atomic, a global, ...). The
/// event engine steps each die's processes on its own thread, in no fixed
/// order relative to other dies, so shared state would make a run depend
/// on thread timing. State a generator owns is fine.
pub trait AccessGenerator: Send {
    /// Produces the next step of the process.
    fn next_step(&mut self, rng: &mut dyn RngCore) -> Step;

    /// Short human-readable label (workload name) for reports.
    fn label(&self) -> &str;
}

/// A process specification handed to the engine: a label plus the
/// generator that produces its reference stream, and an optional
/// residency window for the event kernel's arrival/departure support.
pub struct ProcessSpec {
    /// Display name (e.g. `"mcf"`).
    pub name: String,
    /// The generator that produces the process's work.
    pub generator: Box<dyn AccessGenerator>,
    /// When the process arrives (cycles from simulation start); `None`
    /// means present from the start. Requires the event engine.
    pub arrival_cycles: Option<Cycles>,
    /// When the process departs (cycles from simulation start); `None`
    /// means it runs to the end. Requires the event engine.
    pub departure_cycles: Option<Cycles>,
}

impl ProcessSpec {
    /// Convenience constructor: present for the whole run.
    pub fn new(name: impl Into<String>, generator: Box<dyn AccessGenerator>) -> Self {
        ProcessSpec { name: name.into(), generator, arrival_cycles: None, departure_cycles: None }
    }

    /// Sets an arrival time (cycles from simulation start). The process
    /// joins its core's run queue only once this time is reached.
    #[must_use]
    pub fn with_arrival(mut self, cycles: Cycles) -> Self {
        self.arrival_cycles = Some(cycles);
        self
    }

    /// Sets a departure time (cycles from simulation start). A step
    /// already in flight at the departure time completes; the process
    /// leaves the run queue immediately afterwards.
    #[must_use]
    pub fn with_departure(mut self, cycles: Cycles) -> Self {
        self.departure_cycles = Some(cycles);
        self
    }
}

impl std::fmt::Debug for ProcessSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessSpec")
            .field("name", &self.name)
            .field("generator", &self.generator.label())
            .field("arrival_cycles", &self.arrival_cycles)
            .field("departure_cycles", &self.departure_cycles)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A trivial generator for engine tests: fixed gap, cycles over
    /// `footprint` consecutive lines starting at `base`.
    pub struct CyclicGenerator {
        pub base: u64,
        pub footprint: u64,
        pub gap: u64,
        pub next: u64,
        pub label: String,
    }

    impl CyclicGenerator {
        pub fn new(base: u64, footprint: u64, gap: u64) -> Self {
            CyclicGenerator { base, footprint, gap, next: 0, label: "cyclic".into() }
        }
    }

    impl AccessGenerator for CyclicGenerator {
        fn next_step(&mut self, _rng: &mut dyn RngCore) -> Step {
            let line = LineAddr(self.base + self.next % self.footprint);
            self.next += 1;
            Step {
                instructions: self.gap,
                l1_refs: self.gap / 3,
                branches: self.gap / 5,
                fp_ops: 0,
                stall_cycles: 0,
                access: Some(line),
            }
        }

        fn label(&self) -> &str {
            &self.label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::CyclicGenerator;
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cyclic_generator_cycles() {
        let mut g = CyclicGenerator::new(100, 3, 10);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let seq: Vec<u64> =
            (0..6).map(|_| g.next_step(&mut rng).access.expect("always accesses").0).collect();
        assert_eq!(seq, vec![100, 101, 102, 100, 101, 102]);
    }

    #[test]
    fn spec_debug_is_informative() {
        let spec = ProcessSpec::new("mcf", Box::new(CyclicGenerator::new(0, 2, 5)));
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("mcf"));
        assert!(dbg.contains("cyclic"));
    }

    #[test]
    fn residency_window_builders() {
        let spec = ProcessSpec::new("mcf", Box::new(CyclicGenerator::new(0, 2, 5)));
        assert_eq!(spec.arrival_cycles, None);
        assert_eq!(spec.departure_cycles, None);
        let spec = spec.with_arrival(100).with_departure(900);
        assert_eq!(spec.arrival_cycles, Some(100));
        assert_eq!(spec.departure_cycles, Some(900));
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("arrival_cycles"));
    }

    #[test]
    fn generators_are_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn AccessGenerator>>();
    }
}
