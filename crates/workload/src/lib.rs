//! Memory-request workload models for multiple-bus multiprocessors.
//!
//! This crate implements the *hierarchical requesting model* of Chen & Sheu
//! (ICDCS 1988) together with the baseline reference models the paper
//! compares against:
//!
//! * [`HierarchicalModel`] — the paper's n-level cluster model. Processors
//!   and memories are organized into nested clusters described by a
//!   [`Hierarchy`]; a processor requests its favorite memory (or memories)
//!   with fraction `m₀` and memories in ever-larger enclosing clusters with
//!   decreasing fractions `m₁ > m₂ > …`, held by a validated [`Fractions`]
//!   vector.
//! * [`UniformModel`] — every processor requests every memory with equal
//!   probability `1/M` (the classical model, a special case the paper's
//!   tables pair with the hierarchical columns).
//! * [`FavoriteModel`] — Das & Bhuyan's favorite-memory model: one hot
//!   memory per processor with probability `α`, the rest uniform. Used by
//!   this workspace's heterogeneous-traffic extensions.
//!
//! All models implement [`RequestModel`], which exposes the row-stochastic
//! request-probability matrix ([`RequestMatrix`]). From the matrix the
//! analytical crates compute per-memory request probabilities, and the
//! simulator draws destinations with alias-method samplers
//! ([`AliasSampler`], [`WorkloadSampler`]).
//!
//! The crate also contains the paper's §III-A *motivation pipeline*: a
//! synthetic communicating-task-graph generator whose cluster assignment
//! induces hierarchical traffic ([`taskgraph`]).
//!
//! # Examples
//!
//! The two-level configuration used throughout the paper's §IV (four
//! clusters; 0.6 / 0.3 / 0.1 aggregate shares):
//!
//! ```
//! use mbus_workload::{HierarchicalModel, RequestModel};
//!
//! let model = HierarchicalModel::two_level_paired(16, 4, [0.6, 0.3, 0.1])?;
//! let matrix = model.matrix();
//! // Favorite memory: fraction m0 = 0.6.
//! assert!((matrix.prob(0, 0) - 0.6).abs() < 1e-12);
//! // Same cluster (memories 1..4): 0.3 split over 3 modules.
//! assert!((matrix.prob(0, 1) - 0.1).abs() < 1e-12);
//! // Other clusters: 0.1 split over 12 modules.
//! assert!((matrix.prob(0, 15) - 0.1 / 12.0).abs() < 1e-12);
//! # Ok::<(), mbus_workload::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod favorite;
mod fractions;
mod groups;
mod hierarchical;
mod hierarchy;
mod matrix;
mod model;
mod sampler;
pub mod taskgraph;
mod uniform;

pub use error::WorkloadError;
pub use favorite::FavoriteModel;
pub use fractions::Fractions;
pub use groups::{RowGroups, WorkloadFingerprint};
pub use hierarchical::HierarchicalModel;
pub use hierarchy::{Hierarchy, LeafKind};
pub use matrix::RequestMatrix;
pub use model::RequestModel;
pub use sampler::{AliasSampler, WorkloadSampler};
pub use uniform::UniformModel;
