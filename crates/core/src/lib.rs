//! High-level API for the `multibus` workspace — a faithful, tested
//! reproduction of Chen & Sheu, *Performance Analysis of Multiple Bus
//! Interconnection Networks with Hierarchical Requesting Model*
//! (ICDCS 1988).
//!
//! The workspace models `N × M × B` multiprocessor interconnects (processors
//! × shared memories × time-shared buses) under the paper's hierarchical
//! requesting model, three ways:
//!
//! * **analytically** — the paper's closed-form equations (2)–(12) and
//!   their heterogeneous-traffic generalizations (`mbus-analysis`);
//! * **exactly** — approximation-free subset-transform enumeration and
//!   resubmission Markov chains (`mbus-exact`);
//! * **by simulation** — a cycle-accurate two-stage-arbitration simulator
//!   with fault injection and resubmission extensions (`mbus-sim`).
//!
//! This crate ties those layers together:
//!
//! * [`System`] — one network × workload × rate combination with
//!   [`System::analytic`], [`System::exact`], and [`System::simulate`]
//!   evaluation, plus cost and fault-tolerance reporting;
//! * [`paper_params`] — the exact experimental configuration of the paper's
//!   §IV (four clusters, 0.6/0.3/0.1 shares);
//! * [`tables`] — regenerates every table of the paper (I–VI) with the
//!   paper's printed values attached cell by cell (`reference`), and the
//!   paper's figures 1–4 as ASCII diagrams;
//! * [`report`] — markdown / CSV rendering for all of the above;
//! * [`campaign`] (re-export of `mbus-campaign`) — fault campaigns turning
//!   Table I's symbolic fault-tolerance degrees into quantitative
//!   degraded-mode bandwidth curves;
//! * [`query`] — the one typed description of an experiment (field names,
//!   defaults, validation) that the `mbus` CLI and the HTTP service share.
//!
//! # Quickstart
//!
//! ```
//! use mbus_core::prelude::*;
//!
//! // The paper's Table II cell: N = 8, B = 4, hierarchical, r = 1.0.
//! let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
//! let model = paper_params::hierarchical(8)?;
//! let system = System::new(net, &model, 1.0)?;
//! assert!((system.analytic()?.bandwidth - 3.97).abs() < 0.011);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper_params;
pub mod query;
pub(crate) mod reference;
pub mod report;
pub(crate) mod system;
pub mod tables;

pub(crate) use system::System;

/// Convenient single-import surface: the core types of every layer.
pub mod prelude {
    pub use crate::paper_params;
    pub use crate::system::{Evaluation, System, SystemError};
    pub use crate::tables;
    pub use mbus_analysis::{
        degraded_analyze, memory_bandwidth, AnalysisError, BandwidthBreakdown, DegradedBreakdown,
    };
    pub use mbus_campaign::{run_campaign, CampaignConfig, CampaignError, CampaignReport};
    pub use mbus_sim::{SimConfig, SimReport, Simulator};
    pub use mbus_stats::ConfidenceInterval;
    pub use mbus_topology::{
        BusNetwork, ConnectionScheme, DegradedView, FaultMask, SchemeKind, TopologyError,
    };
    pub use mbus_workload::{
        FavoriteModel, Fractions, HierarchicalModel, Hierarchy, RequestMatrix, RequestModel,
        UniformModel, WorkloadError,
    };
}

// Re-export the component crates for direct access to their full APIs.
pub use mbus_analysis as analysis;
pub use mbus_campaign as campaign;
pub use mbus_exact as exact;
pub use mbus_fabric as fabric;
pub use mbus_sim as sim;
pub use mbus_stats as stats;
pub use mbus_topology as topology;
pub use mbus_trace as trace;
pub use mbus_workload as workload;
