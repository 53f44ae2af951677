//! Cycle-accurate discrete-event simulator for multiple-bus multiprocessor
//! interconnects.
//!
//! This crate is the measurement side of the workspace: it simulates the
//! synchronous `N × M × B` system of Chen & Sheu (ICDCS 1988) cycle by
//! cycle, faithfully implementing the **two-stage arbitration** of §II-A:
//!
//! 1. *Memory arbiters* — one `N`-user/1-server arbiter per memory module
//!    selects, uniformly at random, one of the processors requesting it.
//! 2. *Bus arbiters* — scheme-specific: a round-robin B-of-M arbiter for the
//!    full connection, per-bus arbiters for the single connection, per-group
//!    arbiters for partial bus networks, and the two-step class assignment
//!    procedure of §III-D for partial bus networks with `K` classes.
//!
//! Beyond the paper's assumptions, the simulator supports two extensions:
//!
//! * **fault injection** ([`FaultSchedule`]) — buses fail and are repaired
//!   at scheduled cycles, exercising each scheme's degraded mode;
//! * **resubmission semantics** ([`SimConfig::resubmission`]) — blocked
//!   requests are retried with the same destination next cycle (the
//!   Marsan/Mudge regime) instead of being dropped (the paper's
//!   assumption 5), with request latency measured.
//!
//! Statistics come from `mbus-stats`: batch-means confidence intervals for
//! the bandwidth, exact histograms for per-cycle service counts, and
//! replicated runs across threads ([`runner`]). Replicated runs ride the
//! [`batched`] SoA engine when the system fits its 64-lane envelope,
//! packing up to 64 seeds into `u64` words per cycle; traced runs and
//! single replications always use the scalar engine.
//!
//! # Examples
//!
//! ```
//! use mbus_sim::{SimConfig, Simulator};
//! use mbus_topology::{BusNetwork, ConnectionScheme};
//! use mbus_workload::{HierarchicalModel, RequestModel};
//!
//! let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
//! let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?;
//! let config = SimConfig::new(20_000).with_warmup(1_000).with_seed(42);
//! let report = Simulator::build(&net, &model.matrix(), 1.0)?.run(&config)?;
//! // Table II says ≈ 3.97 at N = 8, B = 4.
//! assert!((report.bandwidth.mean() - 3.97).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

// Lets the golden scenario grid shared with the integration tests name
// this crate as `mbus_sim` inside unit tests too.
#[cfg(test)]
extern crate self as mbus_sim;

mod arbiter;
pub mod batched;
mod config;
mod engine;
mod error;
mod fault;
mod metrics;
pub mod runner;

pub use config::{SimConfig, CONFIDENCE_LEVEL};
pub use engine::{CycleOutcome, Grant, Simulator};
pub use error::SimError;
pub use fault::{FaultEvent, FaultEventKind, FaultSchedule};
pub use metrics::SimReport;
