//! Simulation run configuration.

use crate::FaultSchedule;
use serde::{Deserialize, Serialize};

/// The confidence level of every bandwidth interval a run reports.
pub const CONFIDENCE_LEVEL: f64 = 0.95;

/// Configuration for one simulation run.
///
/// Built with a fluent API:
///
/// ```
/// use mbus_sim::SimConfig;
///
/// let config = SimConfig::new(100_000)
///     .with_warmup(5_000)
///     .with_seed(7)
///     .with_batch_len(500)
///     .with_resubmission(true);
/// assert_eq!(config.cycles, 100_000);
/// assert!(config.resubmission);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Measured cycles (after warmup).
    pub cycles: u64,
    /// Warmup cycles excluded from statistics.
    pub warmup: u64,
    /// RNG seed; the same seed reproduces the run bit for bit.
    pub seed: u64,
    /// Batch length for batch-means confidence intervals.
    pub batch_len: u64,
    /// When `true`, blocked requests are resubmitted to the same memory next
    /// cycle (overriding the paper's assumption 5) and latency is measured.
    pub resubmission: bool,
    /// Scheduled bus failures/repairs (cycle indices count measured +
    /// warmup cycles from 0).
    pub faults: FaultSchedule,
}

impl SimConfig {
    /// A configuration measuring `cycles` cycles with no warmup, seed 0,
    /// batch length `max(cycles/100, 1)`, paper semantics (no
    /// resubmission), and no faults.
    pub fn new(cycles: u64) -> Self {
        Self {
            cycles,
            warmup: 0,
            seed: 0,
            batch_len: (cycles / 100).max(1),
            resubmission: false,
            faults: FaultSchedule::none(),
        }
    }

    /// Sets the warmup cycle count.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the batch length for confidence intervals.
    ///
    /// # Panics
    ///
    /// Panics if `batch_len == 0`.
    #[must_use]
    pub fn with_batch_len(mut self, batch_len: u64) -> Self {
        assert!(batch_len > 0, "batch length must be positive");
        self.batch_len = batch_len;
        self
    }

    /// Enables or disables resubmission semantics.
    #[must_use]
    pub fn with_resubmission(mut self, resubmission: bool) -> Self {
        self.resubmission = resubmission;
        self
    }

    /// Attaches a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::new(1000);
        assert_eq!(c.warmup, 0);
        assert_eq!(c.batch_len, 10);
        assert_eq!(CONFIDENCE_LEVEL, 0.95);
        assert!(!c.resubmission);
        // Tiny runs still get a positive batch length.
        assert_eq!(SimConfig::new(10).batch_len, 1);
    }

    #[test]
    #[should_panic(expected = "batch length")]
    fn zero_batch_rejected() {
        let _ = SimConfig::new(100).with_batch_len(0);
    }
}
