//! Numerical substrate for the `mpmc` workspace.
//!
//! This crate provides the from-scratch numerics that the DAC 2010
//! reproduction needs:
//!
//! - [`matrix`]: small dense row-major matrices and vector helpers.
//! - [`decomp`]: Householder QR factorization and least-squares solving.
//! - [`linreg`]: multi-variable linear regression (the paper's MVLR).
//! - [`roots`]: robust 1-D root bracketing and bisection.
//! - [`nn`]: a three-layer sigmoid-activation neural network (the power
//!   model alternative the paper evaluates and rejects).
//! - [`stats`]: error metrics used throughout the evaluation.
//! - [`interp`]: monotone piecewise-linear interpolation and inversion.
//! - [`parallel`]: deterministic bounded-worker `par_map` on std threads
//!   (order-preserving, with per-task seed derivation).
//! - [`lru`]: a capacity-bounded LRU map with eviction counters.
//! - [`latency`]: a fixed-bucket concurrent latency histogram.
//! - [`sync`]: cooperative cancellation tokens and a bounded counting
//!   semaphore for the serving path's admission control.
//! - [`float`]: the blessed NaN-aware comparison helpers (`mpmc-lint`
//!   forbids raw float `==`/`!=` outside this crate).
//!
//! # Examples
//!
//! Fitting a linear model with [`linreg::LinearRegression`]:
//!
//! ```
//! use mathkit::linreg::LinearRegression;
//!
//! # fn main() -> Result<(), mathkit::MathError> {
//! // y = 1 + 2*x0 + 3*x1
//! let xs = vec![
//!     vec![0.0, 0.0],
//!     vec![1.0, 0.0],
//!     vec![0.0, 1.0],
//!     vec![1.0, 1.0],
//! ];
//! let ys = vec![1.0, 3.0, 4.0, 6.0];
//! let fit = LinearRegression::fit(&xs, &ys)?;
//! assert!((fit.intercept() - 1.0).abs() < 1e-9);
//! assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

// The models need no unsafe code anywhere; enforced by mpmc-lint's
// unsafe_audit rule workspace-wide.
#![forbid(unsafe_code)]

pub mod decomp;
pub mod float;
pub mod interp;
pub mod latency;
pub mod linreg;
pub mod lru;
pub mod matrix;
pub mod nn;
pub mod parallel;
pub mod roots;
pub mod stats;
pub mod sync;

mod error;

pub use error::MathError;
