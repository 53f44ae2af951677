//! Probability building blocks used across the analytical models.
//!
//! The paper's bandwidth equations are built from binomial probabilities
//! ([`binomial_pmf`], equations (3), (7), (10)) and truncated binomial
//! expectations (`Binomial::expected_excess_over`, equations (4), (8), (9)).
//! The workspace's *generalized* analysis replaces the homogeneous binomial
//! with a [`PoissonBinomial`] when per-memory request probabilities differ
//! (e.g. Das–Bhuyan favorite-memory traffic). The [`check`] submodule holds
//! the debug-time probability-invariant assertions every formula layer
//! routes its results through.

mod binomial;
pub mod check;
mod comb;
mod poisson_binomial;

pub use binomial::{binomial_pmf, Binomial};
pub use comb::{choose, choose_f64};
pub use poisson_binomial::{InvalidProbability, PoissonBinomial};
