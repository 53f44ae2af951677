//! Exact (approximation-free) bandwidth references for multiple-bus
//! networks.
//!
//! The paper's analysis makes one key simplification: it treats the
//! indicators "memory `j` is requested" as **independent** across memories,
//! so the number of requested modules becomes binomial (equations (3), (7),
//! (10)). In reality each processor issues at most one request per cycle, so
//! the indicators are negatively correlated and the binomial slightly
//! misstates the tail. This crate computes the *true* expectations:
//!
//! * [`transform`] — the symmetry-exploiting fast path: closed-form
//!   containment products per *group* of identical workload rows plus one
//!   Möbius (subset) transform recover the exact requested-set pmf in
//!   `O(G · 2^M + 2^M · M)` — essentially free in `N`, feasible up to 20
//!   memories. The public enumeration entry point delegates here.
//! * [`enumerate`] — exhaustive enumeration over all request outcomes via a
//!   bitmask dynamic program (`O(N · 2^M · M)`), exact for any scheme and
//!   any workload matrix; retained as the independent differential
//!   reference. Also exposes the deterministic stage-2 service count
//!   [`enumerate::served_given_requested`], used as an oracle by the
//!   simulator's tests.
//! * [`markov`] — an exact Markov-chain steady state for *resubmission*
//!   semantics (the Marsan/Mudge regime the paper cites as \[11\], \[12\]),
//!   validating the simulator's queueing behaviour on small systems: its
//!   `(M+1)^N` states stay under `markov::MAX_STATES`.
//! * [`memo`] — process-wide memoization of served-set tables, keyed by
//!   the network, so a sweep over request rates builds each table once.
//! * [`compare`] — reports quantifying the paper's independence
//!   approximation error against these exact references.
//!
//! # Examples
//!
//! ```
//! use mbus_exact::enumerate::exact_bandwidth;
//! use mbus_analysis::memory_bandwidth;
//! use mbus_topology::{BusNetwork, ConnectionScheme};
//! use mbus_workload::{HierarchicalModel, RequestModel};
//!
//! let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
//! let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?.matrix();
//! let exact = exact_bandwidth(&net, &matrix, 1.0)?;
//! let approx = memory_bandwidth(&net, &matrix, 1.0)?;
//! // The paper's approximation is good but not exact:
//! assert!((exact - approx).abs() > 1e-6);
//! assert!((exact - approx).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod enumerate;
mod error;
pub mod markov;
pub mod memo;
pub mod transform;

pub use error::ExactError;
