//! Error type for fabric construction and runs.

use mbus_sim::SimError;
use mbus_topology::TopologyError;
use mbus_workload::WorkloadError;

/// Error returned when a fabric is configured inconsistently or a run
/// fails.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FabricError {
    /// The fabric parameters are inconsistent (zero width, local bus group
    /// wider than the leaf it serves, …).
    BadFabric {
        /// Human-readable reason.
        reason: String,
    },
    /// The fabric and workload disagree on a dimension.
    DimensionMismatch {
        /// What disagreed.
        what: &'static str,
        /// The fabric's count.
        fabric: usize,
        /// The workload's count.
        workload: usize,
    },
    /// The analytic fixed point did not converge within its iteration
    /// cap; the unconverged acceptance vector is not evaluated.
    NoConvergence {
        /// Fixed-point iterations run.
        iterations: usize,
        /// Largest per-link acceptance change in the last iteration.
        residual: f64,
    },
    /// The request rate is not a probability.
    BadRate {
        /// The offending rate.
        rate: f64,
    },
    /// The underlying topology operation failed.
    Topology(TopologyError),
    /// The underlying workload is invalid.
    Workload(WorkloadError),
    /// The underlying flat simulator failed (depth-1 delegation, fault
    /// schedules, trace sinks).
    Sim(SimError),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadFabric { reason } => write!(f, "bad fabric: {reason}"),
            Self::DimensionMismatch {
                what,
                fabric,
                workload,
            } => write!(
                f,
                "fabric has {fabric} {what} but the workload describes {workload}"
            ),
            Self::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "fabric fixed point did not converge in {iterations} iterations \
                 (residual {residual:e})"
            ),
            Self::BadRate { rate } => {
                write!(f, "request rate {rate} is not a probability in [0, 1]")
            }
            Self::Topology(err) => write!(f, "topology error: {err}"),
            Self::Workload(err) => write!(f, "workload error: {err}"),
            Self::Sim(err) => write!(f, "simulator error: {err}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Topology(err) => Some(err),
            Self::Workload(err) => Some(err),
            Self::Sim(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TopologyError> for FabricError {
    fn from(err: TopologyError) -> Self {
        Self::Topology(err)
    }
}

impl From<WorkloadError> for FabricError {
    fn from(err: WorkloadError) -> Self {
        Self::Workload(err)
    }
}

impl From<SimError> for FabricError {
    fn from(err: SimError) -> Self {
        Self::Sim(err)
    }
}
