//! Closed-form memory-bandwidth analysis of multiple-bus networks under the
//! hierarchical requesting model — the analytical core of Chen & Sheu
//! (ICDCS 1988).
//!
//! The paper's measure of performance is the **effective memory bandwidth**:
//! the expected number of successful memory requests per cycle. A request
//! succeeds when it survives both
//!
//! 1. **memory interference** — several processors racing for one module, of
//!    which exactly one is selected (per-memory arbiter), and
//! 2. **bus interference** — more selected modules than buses able to carry
//!    them (B-of-M arbiter).
//!
//! The analysis layers:
//!
//! * [`paper`] — the paper's equations verbatim, for homogeneous per-memory
//!   request probability `X`: eq (2) `X`, eq (4) `MBW_f`, eq (6) `MBW_s`,
//!   eq (9) `MBW_p`, eq (12) `MBW_p′`, plus the crossbar bound.
//! * [`bandwidth`] — the workspace's generalized dispatch: computes the
//!   *per-memory* probabilities `X_j` exactly from any
//!   [`mbus_workload::RequestMatrix`] and evaluates each scheme with
//!   Poisson-binomial bus interference, which reduces to the paper's
//!   formulas when traffic is homogeneous (tested both ways).
//! * [`degraded`] — the same evaluation through a
//!   [`mbus_topology::FaultMask`]: renormalized over alive buses,
//!   unreachable modules contributing zero, per-class K-class breakdowns.
//! * [`sweep`] — the §IV ratios over bus counts: the single-connection
//!   halving ratio and the buses needed to reach a crossbar fraction.
//! * [`cost_effectiveness`] — §IV's performance-cost comparisons.
//!
//! # A worked example (Table II, N = 8, B = 4, hierarchical, r = 1)
//!
//! ```
//! use mbus_analysis::bandwidth::memory_bandwidth;
//! use mbus_topology::{BusNetwork, ConnectionScheme};
//! use mbus_workload::{HierarchicalModel, RequestModel};
//!
//! let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
//! let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?;
//! let mbw = memory_bandwidth(&net, &model.matrix(), 1.0)?;
//! assert!((mbw - 3.97).abs() < 0.005); // the paper's printed cell
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod cost_effectiveness;
pub mod degraded;
mod error;
pub mod paper;
pub mod sweep;

pub use bandwidth::{memory_bandwidth, BandwidthBreakdown};
pub use degraded::{degraded_analyze, degraded_bandwidth, DegradedBreakdown};
pub use error::AnalysisError;
