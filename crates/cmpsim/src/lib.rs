//! Chip-multiprocessor simulator substrate for the `mpmc` workspace.
//!
//! This crate stands in for the physical test machines of the DAC 2010
//! paper (*Performance and Power Modeling in a Multi-Programmed Multi-Core
//! Environment*): multi-core dies with shared set-associative LRU L2
//! caches, hardware performance counters sampled periodically, a
//! round-robin time-slicing scheduler, and a current-clamp power
//! measurement chain.
//!
//! The modules:
//!
//! - [`types`]: identifier newtypes ([`types::LineAddr`],
//!   [`types::ProcessId`], [`types::CoreId`], [`types::DieId`]).
//! - [`cache`]: the shared L2 with per-owner occupancy accounting.
//! - [`machine`]: machine presets mirroring the paper's three testbeds.
//! - [`process`]: the [`process::AccessGenerator`] trait the engine runs.
//! - [`sched`]: per-core round-robin time slicing (paper §4.2).
//! - [`engine`]: simulation setup, the min-clock schedule, and results.
//! - `events`: the discrete-event kernel that runs every simulation, with
//!   first-class process arrival/departure.
//! - [`hpc`]: performance-counter emulation (the PAPI stand-in).
//! - [`power`]: ground-truth power synthesis and the measurement chain.
//! - [`prefetch`]: the optional next-line prefetcher (paper §3.1 study).
//! - [`trace`]: trace capture/replay and Dinero-style trace-driven
//!   analysis (the paper's reference [1]).
//! - `faults` (behind the `faults` cargo feature): deterministic fault
//!   injection for robustness testing.
//!
//! # Examples
//!
//! ```
//! use cmpsim::engine::{simulate, Placement, SimOptions};
//! use cmpsim::machine::MachineConfig;
//!
//! # fn main() -> Result<(), cmpsim::engine::SimError> {
//! let machine = MachineConfig::four_core_server();
//! let result = simulate(
//!     &machine,
//!     Placement::idle(machine.num_cores()),
//!     SimOptions { duration_s: 0.2, warmup_s: 0.0, ..Default::default() },
//! )?;
//! assert!(result.avg_measured_power() > 40.0); // idle server still burns watts
//! # Ok(())
//! # }
//! ```

// The models need no unsafe code anywhere; enforced by mpmc-lint's
// unsafe_audit rule workspace-wide.
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
mod events;
#[cfg(feature = "faults")]
pub mod faults;
pub mod hpc;
pub mod machine;
pub mod power;
pub mod prefetch;
pub mod process;
pub mod sched;
pub mod trace;
pub mod types;
