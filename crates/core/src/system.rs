//! The [`System`] type: one network × workload × rate combination,
//! evaluable three ways.

use mbus_analysis::bandwidth::analyze;
use mbus_analysis::{AnalysisError, BandwidthBreakdown};
use mbus_exact::{enumerate, ExactError};
use mbus_sim::{runner::ReplicationReport, SimConfig, SimError, SimReport, Simulator};
use mbus_topology::{BusNetwork, CostSummary, SchemeKind};
use mbus_workload::{RequestMatrix, RequestModel};
use serde::{Deserialize, Serialize};

/// Error type of the high-level API.
#[derive(Debug)]
#[non_exhaustive]
pub enum SystemError {
    /// The analytical layer rejected the inputs.
    Analysis(AnalysisError),
    /// The exact layer rejected the inputs (usually: too large to
    /// enumerate and no closed form applies).
    Exact(ExactError),
    /// The simulator rejected the inputs.
    Sim(SimError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Analysis(e) => write!(f, "analysis: {e}"),
            Self::Exact(e) => write!(f, "exact model: {e}"),
            Self::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Analysis(e) => Some(e),
            Self::Exact(e) => Some(e),
            Self::Sim(e) => Some(e),
        }
    }
}

impl From<AnalysisError> for SystemError {
    fn from(e: AnalysisError) -> Self {
        Self::Analysis(e)
    }
}
impl From<ExactError> for SystemError {
    fn from(e: ExactError) -> Self {
        Self::Exact(e)
    }
}
impl From<SimError> for SystemError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// A combined evaluation: the three layers' answers side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The paper's analytical bandwidth and derived quantities.
    pub analytic: BandwidthBreakdown,
    /// The exact bandwidth, when a reference model applies.
    pub exact: Option<f64>,
    /// A simulated report, when simulation was requested.
    pub simulated: Option<SimReport>,
}

/// One concrete system: an `N × M × B` network, a request matrix, and a
/// request rate `r`.
///
/// # Examples
///
/// ```
/// use mbus_core::prelude::*;
///
/// let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
/// let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?;
/// let system = System::new(net, &model, 1.0)?;
/// let eval = system.evaluate(Some(&SimConfig::new(5_000).with_seed(1)))?;
/// let exact = eval.exact.unwrap();
/// assert!((eval.analytic.bandwidth - exact).abs() < 0.05);
/// assert!((eval.simulated.unwrap().bandwidth.mean() - exact).abs() < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    network: BusNetwork,
    matrix: RequestMatrix,
    rate: f64,
}

impl System {
    /// Builds a system from a network, any [`RequestModel`], and rate `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Analysis`] for dimension mismatches or an
    /// invalid rate.
    pub fn new(
        network: BusNetwork,
        model: &dyn RequestModel,
        rate: f64,
    ) -> Result<Self, SystemError> {
        Self::from_matrix(network, model.matrix(), rate)
    }

    /// Builds a system from an explicit request matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Analysis`] for dimension mismatches or an
    /// invalid rate.
    pub fn from_matrix(
        network: BusNetwork,
        matrix: RequestMatrix,
        rate: f64,
    ) -> Result<Self, SystemError> {
        // The only inputs the closed-form analysis can refuse for a
        // validated network and matrix, checked in its order and with its
        // errors; the analysis itself first runs in `analytic`.
        for (what, network_count, workload) in [
            ("processors", network.processors(), matrix.processors()),
            ("memories", network.memories(), matrix.memories()),
        ] {
            if network_count != workload {
                return Err(SystemError::Analysis(AnalysisError::DimensionMismatch {
                    what,
                    network: network_count,
                    workload,
                }));
            }
        }
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(SystemError::Analysis(AnalysisError::InvalidRate {
                value: rate,
            }));
        }
        Ok(Self {
            network,
            matrix,
            rate,
        })
    }

    /// The network.
    pub fn network(&self) -> &BusNetwork {
        &self.network
    }

    /// The request matrix.
    pub fn matrix(&self) -> &RequestMatrix {
        &self.matrix
    }

    /// The request rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The paper's analytical bandwidth breakdown (equations (2)–(12) /
    /// their heterogeneous generalizations).
    ///
    /// # Errors
    ///
    /// Cannot fail for a constructed `System`; the `Result` mirrors the
    /// underlying API.
    pub fn analytic(&self) -> Result<BandwidthBreakdown, SystemError> {
        Ok(analyze(&self.network, &self.matrix, self.rate)?)
    }

    /// The exact (approximation-free) bandwidth, when a reference model
    /// applies: exhaustive enumeration for up to 20 memories, otherwise the
    /// crossbar closed form.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Exact`] when no exact reference is feasible
    /// (large non-crossbar networks; use the simulator instead).
    pub fn exact(&self) -> Result<f64, SystemError> {
        if self.network.memories() <= enumerate::MAX_MEMORIES {
            return Ok(enumerate::exact_bandwidth(
                &self.network,
                &self.matrix,
                self.rate,
            )?);
        }
        if self.network.kind() == SchemeKind::Crossbar {
            // E[D] = Σ X_j is exact regardless of size.
            let xs = self
                .matrix
                .memory_request_probs(self.rate)
                .map_err(|e| SystemError::Analysis(e.into()))?;
            return Ok(xs.iter().sum());
        }
        Err(SystemError::Exact(ExactError::TooLarge {
            memories: self.network.memories(),
            limit: enumerate::MAX_MEMORIES,
        }))
    }

    /// Runs one simulation.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors and invalid fault
    /// schedules in `config`.
    pub fn simulate(&self, config: &SimConfig) -> Result<SimReport, SystemError> {
        let mut sim = Simulator::build(&self.network, &self.matrix, self.rate)?;
        Ok(sim.run(config)?)
    }

    /// Runs one simulation while streaming a binary event trace into
    /// `sink` (see `mbus_trace`); returns the report and the sink.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors, invalid fault schedules
    /// in `config`, and trace-sink I/O failures.
    pub fn simulate_traced<W: std::io::Write>(
        &self,
        config: &SimConfig,
        sink: W,
    ) -> Result<(SimReport, W), SystemError> {
        let mut sim = Simulator::build(&self.network, &self.matrix, self.rate)?;
        Ok(sim.run_traced(config, sink)?)
    }

    /// Runs `replications` independent simulations in parallel.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn simulate_replicated(
        &self,
        config: &SimConfig,
        replications: usize,
    ) -> Result<ReplicationReport, SystemError> {
        Ok(mbus_sim::runner::run_replications(
            &self.network,
            &self.matrix,
            self.rate,
            config,
            replications,
        )?)
    }

    /// Evaluates all available layers at once: analysis always, exact when
    /// feasible, simulation when a config is supplied.
    ///
    /// # Errors
    ///
    /// Propagates analysis and simulation errors; an infeasible exact model
    /// yields `exact: None` rather than an error.
    pub fn evaluate(&self, sim: Option<&SimConfig>) -> Result<Evaluation, SystemError> {
        let analytic = self.analytic()?;
        let exact = self.exact().ok();
        let simulated = match sim {
            Some(config) => Some(self.simulate(config)?),
            None => None,
        };
        Ok(Evaluation {
            analytic,
            exact,
            simulated,
        })
    }

    /// Cost and fault-tolerance summary of the network (Table I row).
    pub fn cost(&self) -> CostSummary {
        self.network.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_params;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::UniformModel;

    fn system(n: usize, b: usize) -> System {
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let model = paper_params::hierarchical(n).unwrap();
        System::new(net, &model, 1.0).unwrap()
    }

    #[test]
    fn three_layers_agree_on_small_system() {
        let sys = system(8, 4);
        let analytic = sys.analytic().unwrap().bandwidth;
        let exact = sys.exact().unwrap();
        let sim = sys
            .simulate(&SimConfig::new(40_000).with_warmup(1_000).with_seed(3))
            .unwrap();
        assert!((analytic - exact).abs() < 0.05); // independence-approximation gap
        assert!(
            (sim.bandwidth.mean() - exact).abs() < 0.05,
            "sim {} vs exact {exact}",
            sim.bandwidth
        );
    }

    #[test]
    fn construction_validates() {
        // Texts recorded from the build that ran the whole analysis in
        // `from_matrix`; the same for every scheme.
        let schemes = [
            ConnectionScheme::Full,
            ConnectionScheme::balanced_single(8, 4).unwrap(),
            ConnectionScheme::PartialGroups { groups: 2 },
            ConnectionScheme::uniform_classes(8, 4).unwrap(),
            ConnectionScheme::Crossbar,
        ];
        let uniform = |n, m| UniformModel::new(n, m).unwrap().matrix();
        let cases = [
            (
                uniform(4, 8),
                1.0,
                "analysis: network has 8 processors but the workload describes 4",
            ),
            (
                uniform(8, 4),
                1.0,
                "analysis: network has 8 memories but the workload describes 4",
            ),
            (
                uniform(4, 4),
                f64::NAN,
                "analysis: network has 8 processors but the workload describes 4",
            ),
            (
                uniform(8, 8),
                -0.1,
                "analysis: request rate r = -0.1 must lie in [0, 1]",
            ),
            (
                uniform(8, 8),
                1.7,
                "analysis: request rate r = 1.7 must lie in [0, 1]",
            ),
            (
                uniform(8, 8),
                f64::NAN,
                "analysis: request rate r = NaN must lie in [0, 1]",
            ),
            (
                uniform(8, 8),
                f64::INFINITY,
                "analysis: request rate r = inf must lie in [0, 1]",
            ),
        ];
        for scheme in schemes {
            let net = BusNetwork::new(8, 8, 4, scheme).unwrap();
            for (matrix, rate, text) in &cases {
                let err = System::from_matrix(net.clone(), matrix.clone(), *rate).unwrap_err();
                assert!(matches!(err, SystemError::Analysis(_)), "{err:?}");
                assert_eq!(err.to_string(), *text, "{:?}", net.kind());
            }
            // The edges of [0, 1] are valid rates.
            for rate in [0.0, 1.0] {
                assert!(System::from_matrix(net.clone(), uniform(8, 8), rate).is_ok());
            }
        }
    }

    #[test]
    fn exact_feasibility() {
        // Small: enumeration works.
        assert!(system(8, 4).exact().is_ok());
        // Large non-crossbar: refused.
        let large = system(32, 16);
        assert!(matches!(
            large.exact(),
            Err(SystemError::Exact(ExactError::TooLarge { .. }))
        ));
        // Large crossbar: closed form.
        let net = BusNetwork::new(32, 32, 32, ConnectionScheme::Crossbar).unwrap();
        let model = paper_params::hierarchical(32).unwrap();
        let sys = System::new(net, &model, 1.0).unwrap();
        let exact = sys.exact().unwrap();
        assert!((exact - 23.48).abs() < 0.011);
    }

    #[test]
    fn evaluate_bundles_everything() {
        let sys = system(8, 4);
        let eval = sys
            .evaluate(Some(&SimConfig::new(2_000).with_seed(9)))
            .unwrap();
        assert!(eval.exact.is_some());
        assert!(eval.simulated.is_some());
        assert!(eval.analytic.bandwidth > 3.5);
        // Without a sim config, no simulation runs.
        let eval = sys.evaluate(None).unwrap();
        assert!(eval.simulated.is_none());
    }

    #[test]
    fn cost_is_exposed() {
        let sys = system(8, 4);
        assert_eq!(sys.cost().connections, 4 * 16);
    }
}
