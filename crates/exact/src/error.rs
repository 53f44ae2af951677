//! Error type for the exact models.

use mbus_analysis::AnalysisError;
use mbus_workload::WorkloadError;

/// Error returned by exact bandwidth computations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExactError {
    /// The exhaustive enumeration would need more states than the configured
    /// limit allows.
    TooLarge {
        /// Number of memories requested.
        memories: usize,
        /// Maximum supported by the bitmask enumeration.
        limit: usize,
    },
    /// The network/workload combination is inconsistent.
    Analysis(AnalysisError),
    /// The workload itself is invalid.
    Workload(WorkloadError),
    /// The network or workload shape is outside what the chosen exact
    /// model covers (for example a resubmission chain on a scheme other
    /// than full connection or crossbar).
    UnsupportedShape {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A resubmission chain's power iteration hit its step cap before
    /// one step moved the distribution by less than the tolerance: the
    /// vector it holds is not a stationary distribution.
    NoConvergence {
        /// Power steps taken (the cap).
        iterations: usize,
        /// `Σ|Δπ|` of the last step.
        residual: f64,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge { memories, limit } => write!(
                f,
                "exact enumeration supports at most {limit} memories, got {memories} \
                 (use the simulator instead)"
            ),
            Self::Analysis(err) => write!(f, "analysis error: {err}"),
            Self::Workload(err) => write!(f, "workload error: {err}"),
            Self::UnsupportedShape { reason } => {
                write!(f, "unsupported shape for this exact model: {reason}")
            }
            Self::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "power iteration did not converge in {iterations} steps \
                 (last step moved the distribution by {residual:e})"
            ),
        }
    }
}

impl std::error::Error for ExactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Analysis(err) => Some(err),
            Self::Workload(err) => Some(err),
            _ => None,
        }
    }
}

impl From<AnalysisError> for ExactError {
    fn from(err: AnalysisError) -> Self {
        Self::Analysis(err)
    }
}

impl From<WorkloadError> for ExactError {
    fn from(err: WorkloadError) -> Self {
        Self::Workload(err)
    }
}
