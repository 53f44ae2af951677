//! The typed description of one experiment, shared by the `mbus` CLI and
//! the HTTP service.
//!
//! An experiment is an `N × M × B` network with a connection scheme, a
//! request model and a rate `r` (or a cluster-of-buses fabric), plus an
//! optional simulation budget. This module owns its field names, defaults
//! and validation. A front end supplies fields through [`Fields`] and words
//! its own type errors; every other check lives here, so the CLI and the
//! server cannot drift apart.
//!
//! Parsing has two steps. `read` turns fields into a plain spec
//! ([`FlatSpec`], [`SimSpec`], [`DegradedSpec`], [`FabricQuery`]) of
//! numbers and enums. `build` then constructs a [`System`], or a
//! [`ClusteredBuses`] fabric and its request matrix. The server applies its
//! service limits between the two, before any request matrix is allocated.
//!
//! Field names are the JSON API's. The CLI spells them `--name`, except
//! that `failed_links` and `failed_buses` are `--failed` and
//! `trace_summary` is the presence of `--trace <path>`.

use crate::{paper_params, System};
use mbus_fabric::{ClusteredBuses, FabricSpec};
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask};
use mbus_workload::{FavoriteModel, HierarchicalModel, RequestMatrix, RequestModel, UniformModel};

/// Fields read by [`FlatSpec::read`].
pub const FLAT_FIELDS: [&str; 10] = [
    "n", "m", "b", "rate", "scheme", "groups", "classes", "workload", "clusters", "alpha",
];
/// Fields read by [`SimSpec::read`].
pub const SIM_FIELDS: [&str; 6] = [
    "cycles",
    "warmup",
    "seed",
    "resubmission",
    "trace_summary",
    "replications",
];
/// Fields read by [`DegradedSpec::read`].
pub const DEGRADED_FIELDS: [&str; 1] = ["failed_buses"];
/// Fields read by [`FabricQuery::read`]: a cluster tree shares no topology
/// field with an `n x m x b` grid.
pub const FABRIC_FIELDS: [&str; 9] = [
    "ks",
    "buses",
    "uplink",
    "rate",
    "locality",
    "cycles",
    "warmup",
    "seed",
    "failed_links",
];

/// Why a query was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A field is mistyped or out of its domain (HTTP 400).
    Invalid(String),
    /// Well-formed fields the engines cannot run together (HTTP 422).
    Unsupported(String),
}

impl QueryError {
    fn invalid(error: impl std::fmt::Display) -> Self {
        QueryError::Invalid(error.to_string())
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Invalid(message) | QueryError::Unsupported(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for QueryError {}

/// A front end's fields, looked up by canonical name.
///
/// Each getter returns `Ok(None)` for an absent field, so the defaults live
/// in this module alone, and [`QueryError::Invalid`], in the front end's
/// own wording, for a field of the wrong type.
pub trait Fields {
    /// A non-negative integer that fits `usize`.
    fn usize_field(&self, key: &str) -> Result<Option<usize>, QueryError>;
    /// A non-negative integer.
    fn u64_field(&self, key: &str) -> Result<Option<u64>, QueryError>;
    /// A number.
    fn f64_field(&self, key: &str) -> Result<Option<f64>, QueryError>;
    /// A boolean.
    fn bool_field(&self, key: &str) -> Result<Option<bool>, QueryError>;
    /// A string.
    fn str_field(&self, key: &str) -> Result<Option<&str>, QueryError>;
    /// A list of non-negative integers; `what` names the entries (e.g.
    /// `"bus indices"`) for error messages.
    fn usize_list(&self, key: &str, what: &str) -> Result<Option<Vec<usize>>, QueryError>;
}

/// A bus–memory connection scheme, by name and parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SchemeSpec {
    /// `full`: every memory on every bus.
    Full,
    /// `single`: each memory on one bus, balanced.
    Single,
    /// `partial`: buses and memories split into `groups` groups
    /// (default 2).
    Partial(usize),
    /// `kclass`: `classes` equal memory classes (default `b`).
    KClass(usize),
    /// `crossbar`: the crossbar baseline.
    Crossbar,
}

/// A request model, by name and parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// `hier` / `hierarchical`: the paper's two-level paired hierarchy with
    /// the §IV shares, in `clusters` clusters (default 4).
    Hierarchical(usize),
    /// `uniform`: every memory equally likely.
    Uniform,
    /// `favorite`: the favorite memory with probability `alpha` (default
    /// 0.5).
    Favorite(f64),
}

impl WorkloadSpec {
    /// Reads `workload` (default `hier`) and its `clusters` or `alpha`.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for an unknown workload or a mistyped field.
    pub fn read(src: &impl Fields) -> Result<Self, QueryError> {
        match src.str_field("workload")?.unwrap_or("hier") {
            "hier" | "hierarchical" => Ok(WorkloadSpec::Hierarchical(
                src.usize_field("clusters")?
                    .unwrap_or(paper_params::CLUSTERS),
            )),
            "uniform" => Ok(WorkloadSpec::Uniform),
            "favorite" => Ok(WorkloadSpec::Favorite(
                src.f64_field("alpha")?.unwrap_or(0.5),
            )),
            other => Err(QueryError::Invalid(format!(
                "unknown workload '{other}' (expected hier|uniform|favorite)"
            ))),
        }
    }

    /// The `n × m` request matrix.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] when the model rejects the shape.
    pub fn matrix(self, n: usize, m: usize) -> Result<RequestMatrix, QueryError> {
        match self {
            WorkloadSpec::Hierarchical(_) if n != m => {
                return Err(QueryError::Invalid(
                    "hierarchical workload requires n = m (paired leaves)".to_owned(),
                ))
            }
            WorkloadSpec::Hierarchical(clusters) => {
                HierarchicalModel::two_level_paired(n, clusters, paper_params::SHARES)
                    .map(|model| model.matrix())
            }
            WorkloadSpec::Uniform => UniformModel::new(n, m).map(|model| model.matrix()),
            WorkloadSpec::Favorite(alpha) => {
                FavoriteModel::new(n, m, alpha).map(|model| model.matrix())
            }
        }
        .map_err(QueryError::invalid)
    }
}

/// A flat single-stage experiment: an `n × m × b` network, its connection
/// scheme, a request rate and a request model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatSpec {
    /// Processors (default 8).
    pub n: usize,
    /// Memories (default `n`).
    pub m: usize,
    /// Buses (default 4).
    pub b: usize,
    /// Connection scheme (default `full`).
    pub(crate) scheme: SchemeSpec,
    /// Request rate `r` (default 1).
    pub(crate) rate: f64,
    /// The request model.
    pub(crate) workload: WorkloadSpec,
}

impl FlatSpec {
    /// Reads every field in [`FLAT_FIELDS`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for a zero dimension, an unknown scheme or
    /// workload, or a mistyped field.
    pub fn read(src: &impl Fields) -> Result<Self, QueryError> {
        let n = src.usize_field("n")?.unwrap_or(8);
        let m = src.usize_field("m")?.unwrap_or(n);
        let b = src.usize_field("b")?.unwrap_or(4);
        for (name, value) in [("n", n), ("m", m), ("b", b)] {
            if value == 0 {
                return Err(QueryError::Invalid(format!("`{name}` must be positive")));
            }
        }
        let scheme = match src.str_field("scheme")?.unwrap_or("full") {
            "full" => SchemeSpec::Full,
            "crossbar" => SchemeSpec::Crossbar,
            "single" => SchemeSpec::Single,
            "partial" => SchemeSpec::Partial(src.usize_field("groups")?.unwrap_or(2)),
            "kclass" => SchemeSpec::KClass(src.usize_field("classes")?.unwrap_or(b)),
            other => {
                return Err(QueryError::Invalid(format!(
                    "unknown scheme '{other}' (expected full|single|partial|kclass|crossbar)"
                )))
            }
        };
        Ok(FlatSpec {
            n,
            m,
            b,
            scheme,
            rate: src.f64_field("rate")?.unwrap_or(1.0),
            workload: WorkloadSpec::read(src)?,
        })
    }

    /// Builds the network alone.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] when the topology rejects the shape.
    pub fn network(&self) -> Result<BusNetwork, QueryError> {
        let scheme = match self.scheme {
            SchemeSpec::Full => Ok(ConnectionScheme::Full),
            SchemeSpec::Single => ConnectionScheme::balanced_single(self.m, self.b),
            SchemeSpec::Partial(groups) => Ok(ConnectionScheme::PartialGroups { groups }),
            SchemeSpec::KClass(classes) => ConnectionScheme::uniform_classes(self.m, classes),
            SchemeSpec::Crossbar => Ok(ConnectionScheme::Crossbar),
        }
        .map_err(QueryError::invalid)?;
        BusNetwork::new(self.n, self.m, self.b, scheme).map_err(QueryError::invalid)
    }

    /// Builds the system. [`System::from_matrix`] checks the network and
    /// matrix dimensions and that the rate lies in `[0, 1]`, so a bad rate
    /// is refused here, not at evaluation.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for any shape or rate the builders reject.
    pub fn build(&self) -> Result<System, QueryError> {
        let network = self.network()?;
        let matrix = self.workload.matrix(self.n, self.m)?;
        System::from_matrix(network, matrix, self.rate).map_err(QueryError::invalid)
    }
}

/// A simulation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpec {
    /// Measured cycles (default 100 000).
    pub cycles: u64,
    /// Warmup cycles (default `cycles / 20`).
    pub warmup: u64,
    /// RNG seed (default 0).
    pub seed: u64,
    /// Whether blocked requests are resubmitted instead of dropped.
    pub resubmission: bool,
    /// Independent replications, seeded `seed`, `seed + 1`, … (default 1).
    pub replications: usize,
    /// Whether the run captures a trace (`trace_summary`).
    pub trace: bool,
}

impl SimSpec {
    /// Reads every field in [`SIM_FIELDS`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for zero cycles or replications or a
    /// mistyped field; [`QueryError::Unsupported`] for a trace over more
    /// than one replication.
    pub fn read(src: &impl Fields) -> Result<Self, QueryError> {
        let cycles = src.u64_field("cycles")?.unwrap_or(100_000);
        let warmup = src.u64_field("warmup")?.unwrap_or(cycles / 20);
        if cycles == 0 {
            return Err(QueryError::Invalid("`cycles` must be positive".to_owned()));
        }
        let replications = src.usize_field("replications")?.unwrap_or(1);
        if replications == 0 {
            return Err(QueryError::Invalid(
                "`replications` must be positive".to_owned(),
            ));
        }
        let trace = src.bool_field("trace_summary")?.unwrap_or(false);
        if trace && replications > 1 {
            // Refuse rather than silently trace one replication.
            return Err(QueryError::Unsupported(
                "`trace_summary` requires a single replication: trace capture runs the \
                 scalar engine, replications run the batched engine"
                    .to_owned(),
            ));
        }
        Ok(SimSpec {
            cycles,
            warmup,
            seed: src.u64_field("seed")?.unwrap_or(0),
            resubmission: src.bool_field("resubmission")?.unwrap_or(false),
            replications,
            trace,
        })
    }

    /// Every simulated cycle, `(cycles + warmup) × replications`
    /// (saturating): each replication pays its own warmup.
    pub fn total_cycles(&self) -> u64 {
        let replications = u64::try_from(self.replications).unwrap_or(u64::MAX);
        self.cycles
            .saturating_add(self.warmup)
            .saturating_mul(replications)
    }

    /// The simulator configuration of one replication.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.cycles)
            .with_warmup(self.warmup)
            .with_seed(self.seed)
            .with_resubmission(self.resubmission)
    }
}

/// The bus fault mask of a degraded-mode query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedSpec {
    /// Failed bus indices, as given (default none).
    pub failed_buses: Vec<usize>,
}

impl DegradedSpec {
    /// Reads every field in [`DEGRADED_FIELDS`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for a malformed list.
    pub fn read(src: &impl Fields) -> Result<Self, QueryError> {
        Ok(DegradedSpec {
            failed_buses: src
                .usize_list("failed_buses", "bus indices")?
                .unwrap_or_default(),
        })
    }

    /// The fault mask over `buses` buses.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for a bus index out of range.
    pub fn mask(&self, buses: usize) -> Result<FaultMask, QueryError> {
        FaultMask::with_failures(buses, &self.failed_buses).map_err(QueryError::invalid)
    }
}

/// A cluster-of-buses fabric experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricQuery {
    /// Tree shape `ks` (default `[4, 4]`), local bus group width `buses`
    /// (default 2), uplink width `uplink` (default 1) and `locality`
    /// (default 0.6).
    pub spec: FabricSpec,
    /// Request rate `r` (default 0.5).
    pub rate: f64,
    /// Simulated cycles (default 20 000); 0 runs the analytic model alone.
    pub cycles: u64,
    /// Warmup cycles (default `cycles / 10`).
    pub warmup: u64,
    /// RNG seed (default 42).
    pub seed: u64,
    /// Links failed for the whole run (default none).
    pub failed_links: Vec<usize>,
}

impl FabricQuery {
    /// Reads every field in [`FABRIC_FIELDS`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for a rate outside `[0, 1]` or a mistyped
    /// field.
    pub fn read(src: &impl Fields) -> Result<Self, QueryError> {
        let ks = src.usize_list("ks", "branching factors")?;
        let rate = src.f64_field("rate")?.unwrap_or(0.5);
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(QueryError::Invalid(
                "`rate` must be a probability in [0, 1]".to_owned(),
            ));
        }
        let spec = FabricSpec {
            ks: ks.unwrap_or_else(|| vec![4, 4]),
            local_buses: src.usize_field("buses")?.unwrap_or(2),
            uplink_width: src.usize_field("uplink")?.unwrap_or(1),
            locality: src.f64_field("locality")?.unwrap_or(0.6),
        };
        let failed_links = src.usize_list("failed_links", "link indices")?;
        let cycles = src.u64_field("cycles")?.unwrap_or(20_000);
        Ok(FabricQuery {
            spec,
            rate,
            cycles,
            warmup: src.u64_field("warmup")?.unwrap_or(cycles / 10),
            seed: src.u64_field("seed")?.unwrap_or(42),
            failed_links: failed_links.unwrap_or_default(),
        })
    }

    /// Processors of the fabric, `∏ ks` (saturating).
    pub fn processors(&self) -> usize {
        self.spec
            .ks
            .iter()
            .try_fold(1usize, |acc, &k| acc.checked_mul(k))
            .unwrap_or(usize::MAX)
    }

    /// Builds the fabric and its request matrix, and checks the failed
    /// links against it.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] for a shape the builders reject or a failed
    /// link out of range.
    pub fn build(&self) -> Result<(ClusteredBuses, RequestMatrix), QueryError> {
        let (topo, matrix) = self.spec.build().map_err(QueryError::invalid)?;
        let links = topo.links().len();
        if let Some(link) = self.failed_links.iter().find(|&&link| link >= links) {
            return Err(QueryError::Invalid(format!(
                "failed link {link} is out of range for a fabric with {links} links"
            )));
        }
        Ok((topo, matrix))
    }

    /// The simulator configuration, with every failed link failed from
    /// cycle 0 to match the analytic model's whole-run failures.
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] when the fault schedule is rejected.
    pub fn sim_config(&self) -> Result<SimConfig, QueryError> {
        let events = self
            .failed_links
            .iter()
            .map(|&bus| FaultEvent {
                cycle: 0,
                bus,
                kind: FaultEventKind::Fail,
            })
            .collect();
        let schedule = FaultSchedule::from_events(events).map_err(QueryError::invalid)?;
        Ok(SimConfig::new(self.cycles)
            .with_warmup(self.warmup)
            .with_seed(self.seed)
            .with_faults(schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Answers `scheme` and `workload` from a fixed pair, leaves every
    /// other field absent, and records each key it is asked for.
    struct Recorder {
        scheme: &'static str,
        workload: &'static str,
        asked: RefCell<Vec<String>>,
    }

    impl Recorder {
        fn absent<T>(&self, key: &str) -> Result<Option<T>, QueryError> {
            self.asked.borrow_mut().push(key.to_owned());
            Ok(None)
        }
    }

    impl Fields for Recorder {
        fn usize_field(&self, key: &str) -> Result<Option<usize>, QueryError> {
            self.absent(key)
        }
        fn u64_field(&self, key: &str) -> Result<Option<u64>, QueryError> {
            self.absent(key)
        }
        fn f64_field(&self, key: &str) -> Result<Option<f64>, QueryError> {
            self.absent(key)
        }
        fn bool_field(&self, key: &str) -> Result<Option<bool>, QueryError> {
            self.absent(key)
        }
        fn str_field(&self, key: &str) -> Result<Option<&str>, QueryError> {
            self.asked.borrow_mut().push(key.to_owned());
            Ok(match key {
                "scheme" => Some(self.scheme),
                "workload" => Some(self.workload),
                _ => None,
            })
        }
        fn usize_list(&self, key: &str, _: &str) -> Result<Option<Vec<usize>>, QueryError> {
            self.absent(key)
        }
    }

    fn sorted<S: ToString>(keys: impl IntoIterator<Item = S>) -> Vec<String> {
        let mut keys: Vec<String> = keys.into_iter().map(|k| k.to_string()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn field_lists_match_what_the_readers_ask_for() {
        // The server's strict unknown-field check uses the lists and the
        // readers use the names; across every scheme and workload modifier
        // they must be the same set.
        let record = |scheme, workload| Recorder {
            scheme,
            workload,
            asked: RefCell::new(Vec::new()),
        };
        let (a, b) = (record("partial", "favorite"), record("kclass", "hier"));
        FlatSpec::read(&a).unwrap();
        FlatSpec::read(&b).unwrap();
        let asked = a.asked.take().into_iter().chain(b.asked.take());
        assert_eq!(sorted(asked), sorted(FLAT_FIELDS));

        let src = record("full", "hier");
        SimSpec::read(&src).unwrap();
        assert_eq!(sorted(src.asked.take()), sorted(SIM_FIELDS));
        DegradedSpec::read(&src).unwrap();
        assert_eq!(sorted(src.asked.take()), sorted(DEGRADED_FIELDS));
        FabricQuery::read(&src).unwrap();
        assert_eq!(sorted(src.asked.take()), sorted(FABRIC_FIELDS));
    }
}
