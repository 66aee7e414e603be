//! Facade crate for the `mpmc` workspace: a Rust reproduction of
//! *Performance and Power Modeling in a Multi-Programmed Multi-Core
//! Environment* (Chen, Xu, Dick, Mao — DAC 2010).
//!
//! This crate re-exports the member crates so examples and downstream users
//! can depend on a single package:
//!
//! - [`model`] (`mpmc-model`): the paper's contribution — the reuse-distance
//!   performance model, the MVLR power model, and the combined
//!   assignment-time power estimator.
//! - [`sim`] (`cmpsim`): the chip-multiprocessor simulator substrate that
//!   stands in for the paper's physical test machines.
//! - [`workloads`]: synthetic SPEC-CPU2000-like workloads, the profiling
//!   stressmark, and the power-training microbenchmark.
//! - [`math`] (`mathkit`): the numerical substrate (QR least squares, MVLR,
//!   bisection, a sigmoid neural network).
//!
//! # Quickstart
//!
//! Predict how two processes degrade each other when sharing a last-level
//! cache (see `examples/quickstart.rs` for the full program):
//!
//! ```
//! use mpmc::model::perf::PerformanceModel;
//! use mpmc::model::profile::Profiler;
//! use mpmc::sim::machine::MachineConfig;
//! use mpmc::workloads::spec::SpecWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = MachineConfig::four_core_server();
//! let profiler = Profiler::new(machine.clone());
//! let art = profiler.profile(&SpecWorkload::Art.params())?;
//! let gzip = profiler.profile(&SpecWorkload::Gzip.params())?;
//!
//! let model = PerformanceModel::new(machine.l2_assoc());
//! let prediction = model.predict(&[art, gzip])?;
//! assert_eq!(prediction.len(), 2);
//! # Ok(())
//! # }
//! ```

// The models need no unsafe code anywhere; enforced by mpmc-lint's
// unsafe_audit rule workspace-wide.
#![forbid(unsafe_code)]

pub use cmpsim as sim;
pub use mathkit as math;
pub use mpmc_model as model;
pub use workloads;
