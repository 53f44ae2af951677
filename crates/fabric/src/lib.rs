//! Hierarchical cluster-of-buses fabric.
//!
//! The paper's hierarchical *requesting* model (`N = k₁k₂⋯kₙ`, eqs
//! (11)/(12)) runs over a flat single-stage bus network: the traffic is
//! hierarchical but the interconnect never is. This crate completes the
//! picture with a cluster-of-buses interconnect whose levels mirror the
//! request tree:
//!
//! * [`ClusteredBuses`] — the routed topology: one local Full bus
//!   group per leaf cluster, one uplink per non-root tree node, routes
//!   climbing to the lowest common ancestor and back down. At depth 1
//!   it degenerates to the flat [`mbus_topology::BusNetwork`].
//! * [`FabricSimulator`] — a cycle-accurate engine advancing requests
//!   hop by hop with per-link arbitration, per-link
//!   utilization/backpressure counters, link fault schedules, and
//!   `MBT1` trace capture. Depth-1 runs delegate to
//!   [`mbus_sim::Simulator`] bit for bit.
//! * [`analytic::analyze_fabric`] — a level-by-level decomposition in
//!   the style of hierarchical-analysis surveys: local traffic via the
//!   paper's closed forms per cluster, escape traffic offered upward as
//!   a thinned Bernoulli stream, coupled through a damped fixed point
//!   on per-link acceptance probabilities.
//! * [`FabricSpec`] / [`locality_shares`] — the shared
//!   depth/branching/locality parameterization behind `mbus fabric`,
//!   `POST /v1/fabric`, the campaign engine, and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod engine;
mod error;
mod spec;
mod topology;

pub use analytic::{analyze_fabric, FabricAnalysis, LinkLoad};
pub use engine::{FabricReport, FabricSimulator};
pub use error::FabricError;
pub use spec::{locality_shares, FabricSpec};
pub use topology::{ClusteredBuses, Link, LinkId, LinkKind};
