//! Statistics and probability substrate for the `multibus` workspace.
//!
//! The paper this workspace reproduces (Chen & Sheu, *Performance Analysis of
//! Multiple Bus Interconnection Networks with Hierarchical Requesting Model*,
//! ICDCS 1988) is an analytical bandwidth study backed here by a discrete-event
//! simulator. Both sides need a small, dependable statistics toolkit:
//!
//! * [`Welford`] — numerically stable streaming mean/variance accumulator,
//!   used by every simulator metric.
//! * [`BatchMeans`] — batch-means variance estimation and
//!   [`ConfidenceInterval`]s for steady-state simulation output.
//! * [`Histogram`] — integer-valued histograms (e.g. "requests served per
//!   cycle") with exact quantiles.
//! * [`parallel`] — [`parallel::parallel_map`], a dependency-free
//!   order-preserving map on scoped threads that pull batches from one
//!   shared queue — the engine behind multi-point sweeps, fault campaigns,
//!   table regeneration, and replicated simulation.
//! * [`cache`] — a sharded, bounded memoization cache ([`cache::MemoCache`])
//!   shared by sweeps, table builders, and fault campaigns so identical
//!   subproblems (served-set tables, containment-power vectors, degraded
//!   breakdowns) are computed once.
//! * [`prob`] — probability building blocks: stable binomial coefficients and
//!   pmfs, the Poisson-binomial distribution (heterogeneous success
//!   probabilities, needed for the generalized bus-interference analysis),
//!   tail-expectation helpers used by the paper's equations (4), (8), (9),
//!   and inverse-normal / Student-t quantiles for confidence intervals.
//!
//! # Examples
//!
//! ```
//! use mbus_stats::Welford;
//!
//! let mut acc = Welford::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     acc.push(x);
//! }
//! assert_eq!(acc.mean(), 2.5);
//! assert!((acc.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cache;
mod ci;
mod histogram;
pub mod parallel;
pub mod prob;
mod welford;

pub use batch::BatchMeans;
pub use ci::{normal_quantile, student_t_quantile, ConfidenceInterval};
pub use histogram::Histogram;
pub use welford::Welford;
