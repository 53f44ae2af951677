//! Multiple-bus interconnection network topologies.
//!
//! This crate models the `N × M × B` multiprocessor interconnection networks
//! studied by Chen & Sheu (*Performance Analysis of Multiple Bus
//! Interconnection Networks with Hierarchical Requesting Model*, ICDCS 1988):
//! `N` processors and `M` shared memory modules joined by `B` time-shared
//! buses, `B ≤ min(M, N)`. Every processor is connected to every bus; the
//! schemes differ in how *memories* attach to buses:
//!
//! * [`ConnectionScheme::Full`] — every memory on every bus (the classic
//!   multiple-bus network, paper Fig. 1);
//! * [`ConnectionScheme::Single`] — each memory on exactly one bus
//!   (paper Fig. 4);
//! * [`ConnectionScheme::PartialGroups`] — Lang et al.'s partial bus network:
//!   memories and buses split into `g` groups, each memory group on its own
//!   `B/g` buses (paper Fig. 2);
//! * [`ConnectionScheme::KClasses`] — the paper's proposed *partial bus
//!   network with K classes*: memories in class `C_j` attach to buses
//!   `1 … j+B−K` (paper Fig. 3);
//! * [`ConnectionScheme::Crossbar`] — the `N × M` crossbar baseline (no bus
//!   contention at all).
//!
//! On top of the connectivity model the crate provides the paper's **cost
//! analysis** (Table I: connection counts, per-bus loads, degree of fault
//! tolerance — module `cost`), **fault masks and degraded views** (module
//! `fault`), and **renderers** that regenerate the paper's Figures 1–4 as
//! ASCII or Graphviz DOT (module [`render`]).
//!
//! Bus, memory, processor, class, and group indices are all **0-based** in
//! this crate; the paper is 1-based. The mapping is `paper bus i` ↔
//! `index i − 1`, and `paper class C_j` ↔ `class index j − 1`.
//!
//! # Examples
//!
//! ```
//! use mbus_topology::{BusNetwork, ConnectionScheme};
//!
//! // The paper's running example: a 3 × 6 × 4 partial bus network with
//! // three classes of two memories each (Fig. 3).
//! let net = BusNetwork::new(3, 6, 4, ConnectionScheme::uniform_classes(6, 3)?)?;
//! assert_eq!(net.buses_of_memory(0).count(), 2); // class C_1: buses 1..2
//! assert_eq!(net.buses_of_memory(5).count(), 4); // class C_3: buses 1..4
//! assert_eq!(net.cost().connections, 3 * 4 + 2 * (2 + 3 + 4));
//! assert_eq!(net.fault_tolerance_degree(), 1); // B − K
//! # Ok::<(), mbus_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cost;
mod error;
pub(crate) mod fault;
mod network;
pub mod render;
mod scheme;
pub(crate) mod served;

pub use cost::{CostSummary, SchemeCostRow};
pub use error::TopologyError;
pub use fault::{DegradedView, FaultMask};
pub use network::BusNetwork;
pub use scheme::{ConnectionScheme, SchemeKind};
pub use served::{served_count, ServedTable, MAX_TABLE_MEMORIES};
