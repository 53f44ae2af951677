//! Fault-campaign engine: degraded-mode bandwidth over bus-failure
//! combinations.
//!
//! Table I of the paper grades every connection scheme by a symbolic
//! *degree* of fault tolerance. This crate turns that into numbers: for
//! each failure count `f` it evaluates the analytical degraded bandwidth
//! ([`mbus_analysis::degraded`]) over the `C(B, f)` ways `f` buses can
//! fail — exhaustively while the combination count is small, by seeded
//! Monte-Carlo sampling beyond [`CampaignConfig::exhaustive_limit`] — and
//! aggregates mean/min/max bandwidth, accessible-memory fractions, and the
//! worst-case mask per level.
//!
//! Each mask is evaluated once per bus-permutation *orbit*. Buses wired to
//! the same memories form one type, and permuting buses of one type leaves
//! the network unchanged, so a degraded breakdown depends only on how many
//! buses of each type failed. That gives one type for full and crossbar
//! networks, one per group for partial ones, the `B − K + 1` shared low
//! buses plus `K − 1` singletons for K-class ones (the structure behind
//! Table I's per-class fault tolerance), and one per bus for single ones.
//! Every mask maps to its orbit's canonical mask (each type's
//! lowest-numbered buses fail), each distinct orbit runs once over the
//! shared-queue pool of [`mbus_stats::parallel::parallel_map`], and each
//! level then aggregates its masks' orbit results in lexicographic (or
//! draw) order, so the report keeps the bits of a per-mask sweep. A level
//! with a single orbit — every level of a full or crossbar network —
//! lists no masks and aggregates its one result once per mask.
//!
//! Given a per-bus failure probability `q`, the per-level means combine
//! into an **availability-weighted expected bandwidth**
//! `Σ_f C(B,f)·q^f·(1−q)^(B−f) · mean_bw(f)` — the long-run bandwidth of a
//! machine whose buses are each up with probability `1 − q`.
//!
//! For K-class networks the campaign additionally tabulates the per-class
//! decay under worst-case (lowest-bus-first) failures, exhibiting the
//! paper's claim that class `C_j` dies after exactly `j + B − K` failures
//! while higher classes degrade gracefully.
//!
//! [`run_fabric_campaign`] runs the same sweep over the uplinks of a
//! hierarchical fabric, every uplink its own type.
//!
//! [`cross_validate`] pins a single mask's analytical bandwidth against a
//! fault-scheduled simulation of the same mask, the loop the report's
//! credibility rests on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod render;

pub use fabric::{
    render_fabric_markdown, run_fabric_campaign, FabricCampaignReport, FabricFailureLevel,
};
pub use render::render_markdown;

use mbus_analysis::degraded::degraded_analyze;
use mbus_analysis::AnalysisError;
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, SimError, Simulator};
use mbus_stats::parallel::{available_workers, parallel_map};
use mbus_stats::prob::{choose, choose_f64};
use mbus_topology::{BusNetwork, FaultMask};
use mbus_workload::RequestMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Error type of the campaign engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// A degraded-analysis evaluation failed.
    Analysis(AnalysisError),
    /// A cross-validation simulation failed.
    Sim(SimError),
    /// The campaign configuration is invalid.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// An internal invariant of the campaign engine was violated — should
    /// never surface; reported instead of panicking.
    Internal {
        /// Human-readable reason.
        reason: String,
    },
    /// A fabric analytic evaluation failed (uplink-failure campaigns).
    Fabric(mbus_fabric::FabricError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Analysis(err) => write!(f, "analysis error: {err}"),
            Self::Sim(err) => write!(f, "simulation error: {err}"),
            Self::BadConfig { reason } => write!(f, "bad campaign config: {reason}"),
            Self::Internal { reason } => write!(f, "internal campaign error: {reason}"),
            Self::Fabric(err) => write!(f, "fabric error: {err}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Analysis(err) => Some(err),
            Self::Sim(err) => Some(err),
            Self::Fabric(err) => Some(err),
            Self::BadConfig { .. } | Self::Internal { .. } => None,
        }
    }
}

impl From<AnalysisError> for CampaignError {
    fn from(err: AnalysisError) -> Self {
        Self::Analysis(err)
    }
}

impl From<SimError> for CampaignError {
    fn from(err: SimError) -> Self {
        Self::Sim(err)
    }
}

/// Configuration of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Largest failure count to evaluate; `None` = all `B` buses.
    pub max_failures: Option<usize>,
    /// Evaluate a failure level exhaustively while `C(B, f)` is at most
    /// this; Monte-Carlo sample otherwise.
    pub exhaustive_limit: u128,
    /// Masks drawn per Monte-Carlo level.
    pub samples: usize,
    /// Seed of the Monte-Carlo mask draws (the campaign is deterministic
    /// for a fixed seed).
    pub seed: u64,
    /// Worker threads for the evaluation sweep; 0 = all available cores.
    pub workers: usize,
    /// Per-bus failure probability `q` for availability weighting; the
    /// fabric campaign reads it as a per-uplink probability.
    pub bus_failure_prob: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            max_failures: None,
            exhaustive_limit: 5_000,
            samples: 512,
            seed: 0x5eed,
            workers: 0,
            bus_failure_prob: 0.05,
        }
    }
}

/// Aggregates of one failure level (a fixed failure count `f`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureLevelSummary {
    /// Number of failed buses at this level.
    pub failures: usize,
    /// Masks evaluated at this level.
    pub combos_evaluated: usize,
    /// Whether every `C(B, f)` combination was evaluated (vs sampled).
    pub exhaustive: bool,
    /// Mean bandwidth over the evaluated masks.
    pub mean_bandwidth: f64,
    /// Worst-case bandwidth over the evaluated masks.
    pub min_bandwidth: f64,
    /// Best-case bandwidth over the evaluated masks.
    pub max_bandwidth: f64,
    /// Mean fraction of memories still reachable.
    pub mean_accessible_fraction: f64,
    /// Worst-case fraction of memories still reachable.
    pub min_accessible_fraction: f64,
    /// The failed buses of the worst (minimum-bandwidth) evaluated mask.
    pub worst_mask: Vec<usize>,
}

/// The full result of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Scheme display name (e.g. "full bus-memory connection").
    pub scheme: String,
    /// Processor count.
    pub processors: usize,
    /// Memory-module count.
    pub memories: usize,
    /// Bus count.
    pub buses: usize,
    /// Request rate `r`.
    pub rate: f64,
    /// Per-bus failure probability `q` used for the availability weighting.
    pub bus_failure_prob: f64,
    /// Healthy (no-failure) bandwidth, for normalization.
    pub healthy_bandwidth: f64,
    /// One summary per failure count, `f = 0` first.
    pub levels: Vec<FailureLevelSummary>,
    /// Availability-weighted expected bandwidth
    /// `Σ_f C(B,f)·q^f·(1−q)^(B−f)·mean_bw(f)`. When
    /// [`CampaignConfig::max_failures`] truncates the levels, the missing
    /// tail is counted as zero bandwidth, making this a lower bound.
    pub expected_bandwidth: f64,
    /// For K-class networks: `per_class_decay[f][c]` is class `C_(c+1)`'s
    /// bandwidth after the *worst-case* `f` failures (lowest buses first).
    /// `None` for other schemes.
    pub per_class_decay: Option<Vec<Vec<f64>>>,
}

/// Calls `visit` on every f-subset of `0..b`, sorted, in lexicographic
/// order, through one reused buffer. Only invoked when the caller has
/// bounded the count.
fn for_each_combination(b: usize, f: usize, mut visit: impl FnMut(&[usize])) {
    if f > b {
        return;
    }
    let mut current: Vec<usize> = (0..f).collect();
    loop {
        visit(&current);
        // Advance the rightmost index that can still move, then reset the
        // ones after it to follow it.
        let Some(i) = (0..f).rev().find(|&i| current[i] != i + b - f) else {
            return;
        };
        current[i] += 1;
        for j in i + 1..f {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// Calls `visit` on `samples` sorted f-subsets of `0..b`, drawn uniformly
/// (independent draws; duplicates across draws possible and harmless for a
/// mean).
fn for_each_sample(b: usize, f: usize, samples: usize, seed: u64, mut visit: impl FnMut(&[usize])) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..b).collect();
    let mut subset = Vec::with_capacity(f);
    for _ in 0..samples {
        for i in 0..f {
            let j = rng.random_range(i..b);
            pool.swap(i, j);
        }
        subset.clear();
        subset.extend_from_slice(&pool[..f]);
        subset.sort_unstable();
        visit(&subset);
    }
}

/// The bus type of every bus of `net`: buses wired to the same memories
/// share a type, numbered in order of their lowest bus. That gives one type
/// for full and crossbar networks, one per group for partial ones, the
/// shared low buses plus `K − 1` singletons for K-class ones, and one per
/// bus for single ones.
fn bus_types(net: &BusNetwork) -> Vec<usize> {
    let mut wirings: Vec<Vec<usize>> = Vec::new();
    (0..net.buses())
        .map(|bus| {
            let memories: Vec<usize> = net.memories_of_bus(bus).collect();
            wirings
                .iter()
                .position(|w| *w == memories)
                .unwrap_or_else(|| {
                    wirings.push(memories);
                    wirings.len() - 1
                })
        })
        .collect()
}

/// Failure masks grouped into bus-permutation orbits. Permuting buses of
/// one type leaves the network, and so every degraded breakdown, unchanged
/// — up to the order of `per_bus_busy` — so an orbit is the vector of
/// failure counts per type, and its canonical mask fails each type's
/// lowest-numbered buses.
struct Orbits {
    type_of: Vec<usize>,
    /// Orbit index by failure counts per type.
    index: HashMap<Vec<usize>, usize>,
    /// The canonical failed buses of each orbit, in first-seen order.
    canonical: Vec<Vec<usize>>,
    /// Scratch failure counts per type.
    counts: Vec<usize>,
}

impl Orbits {
    fn new(type_of: Vec<usize>) -> Self {
        let types = type_of.iter().max().map_or(0, |&t| t + 1);
        Self {
            type_of,
            index: HashMap::new(),
            canonical: Vec::new(),
            counts: vec![0; types],
        }
    }

    /// The orbit index of the mask failing `failed`.
    fn of(&mut self, failed: &[usize]) -> usize {
        self.counts.fill(0);
        for &bus in failed {
            self.counts[self.type_of[bus]] += 1;
        }
        if let Some(&orbit) = self.index.get(self.counts.as_slice()) {
            return orbit;
        }
        // Fail the lowest-numbered `counts[t]` buses of each type `t`.
        let mut left = self.counts.clone();
        let canonical = (0..self.type_of.len()).filter(|&bus| {
            let left = &mut left[self.type_of[bus]];
            let failed = *left > 0;
            *left -= usize::from(failed);
            failed
        });
        let orbit = self.canonical.len();
        self.canonical.push(canonical.collect());
        self.index.insert(self.counts.clone(), orbit);
        orbit
    }
}

/// One failure level's masks in evaluation order.
struct LevelPlan {
    exhaustive: bool,
    /// The failed resources of each listed mask, `f` per mask, back to back.
    masks: Vec<usize>,
    /// The orbit of each listed mask and how many consecutive masks it
    /// stands for: one entry per mask, or a single entry for the whole
    /// level when it has one orbit.
    entries: Vec<(usize, usize)>,
}

/// What a sweep keeps of one evaluated mask.
struct Outcome<D> {
    /// Delivered bandwidth, which also picks the worst mask.
    bandwidth: f64,
    /// A second figure: the accessible memory fraction of a bus campaign,
    /// the unreachable rate of an uplink campaign.
    other: f64,
    /// What the lowest-first decay table records of the mask.
    decay: D,
}

/// Mean, minimum and maximum of one figure over a level's masks.
#[derive(Clone, Copy)]
struct Spread {
    mean: f64,
    min: f64,
    max: f64,
}

/// One failure level of a sweep, aggregated over its masks.
struct Level {
    failures: usize,
    combos_evaluated: usize,
    exhaustive: bool,
    bandwidth: Spread,
    other: Spread,
    /// The failed resources of the first mask that reaches the level's
    /// minimum bandwidth.
    worst_mask: Vec<usize>,
}

/// The summary of failure level `f` from its plan and the outcome of
/// every orbit: the masks aggregate in plan order, and the worst mask is
/// the first one that reaches the level's minimum bandwidth.
fn summarize<D>(f: usize, plan: &LevelPlan, outcomes: &[Outcome<D>]) -> Level {
    let mut n = 0usize;
    let empty = Spread {
        mean: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
    // The means hold running sums until the division after the loop.
    let (mut bandwidth, mut other) = (empty, empty);
    let mut worst = 0;
    for (i, &(orbit, copies)) in plan.entries.iter().enumerate() {
        let outcome = &outcomes[orbit];
        n += copies;
        for _ in 0..copies {
            bandwidth.mean += outcome.bandwidth;
            other.mean += outcome.other;
        }
        bandwidth.max = bandwidth.max.max(outcome.bandwidth);
        other.min = other.min.min(outcome.other);
        other.max = other.max.max(outcome.other);
        if outcome.bandwidth < bandwidth.min {
            bandwidth.min = outcome.bandwidth;
            worst = i;
        }
    }
    debug_assert!(n > 0, "every level evaluates at least one mask");
    bandwidth.mean /= n as f64;
    other.mean /= n as f64;
    Level {
        failures: f,
        combos_evaluated: n,
        exhaustive: plan.exhaustive,
        bandwidth,
        other,
        worst_mask: plan.masks[worst * f..(worst + 1) * f].to_vec(),
    }
}

/// The level machinery of both campaigns, over a pool of `n =
/// type_of.len()` failable resources of types `type_of` (`noun` names one
/// in error texts): validates `config`, plans every level's masks,
/// evaluates each orbit once through `evaluate` on the shared pool and
/// aggregates every level. Returns the levels (`f = 0` first), the
/// availability-weighted expected bandwidth
/// `Σ_f C(n,f)·q^f·(1−q)^(n−f)·mean_bw(f)` and, with `decay`, the decay
/// figure of failing resources `0..f` for every level `f` (else nothing).
fn sweep<D: Clone + Send>(
    noun: &str,
    type_of: Vec<usize>,
    config: &CampaignConfig,
    decay: bool,
    evaluate: impl Fn(&[usize]) -> Result<Outcome<D>, CampaignError> + Sync,
) -> Result<(Vec<Level>, f64, Vec<D>), CampaignError> {
    let b = type_of.len();
    if config.samples == 0 || config.exhaustive_limit == 0 {
        return Err(CampaignError::BadConfig {
            reason: "samples and exhaustive_limit must be positive".into(),
        });
    }
    let q = config.bus_failure_prob;
    if !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return Err(CampaignError::BadConfig {
            reason: format!("{noun} failure probability {q} outside [0, 1]"),
        });
    }
    let max_failures = config.max_failures.unwrap_or(b);
    if max_failures > b {
        return Err(CampaignError::BadConfig {
            reason: format!("max_failures {max_failures} exceeds {noun} count {b}"),
        });
    }

    // List every level's masks in evaluation order, each tagged with its
    // orbit. With two or more types, some failure can always move to
    // another type unless nothing or everything failed; otherwise the
    // level has one orbit and lists only its first mask, standing for all.
    let mut orbits = Orbits::new(type_of);
    let mut plans = Vec::with_capacity(max_failures + 1);
    for f in 0..=max_failures {
        let count = choose(b as u64, f as u64);
        let exhaustive = matches!(count, Some(c) if c <= config.exhaustive_limit);
        let single_orbit = orbits.counts.len() <= 1 || f == 0 || f == b;
        let mut plan = LevelPlan {
            exhaustive,
            masks: Vec::new(),
            entries: Vec::new(),
        };
        let mut visit = |failed: &[usize]| {
            plan.masks.extend_from_slice(failed);
            plan.entries.push((orbits.of(failed), 1));
        };
        let copies = match count {
            Some(c) if exhaustive => {
                if single_orbit {
                    visit(&(0..f).collect::<Vec<_>>());
                } else {
                    for_each_combination(b, f, &mut visit);
                }
                usize::try_from(c).map_err(|_| CampaignError::BadConfig {
                    reason: format!("C({b}, {f}) = {c} masks exceed the address space"),
                })?
            }
            // Draws are independent, so the first of one draw is the
            // first of `samples` draws.
            _ => {
                let draws = if single_orbit { 1 } else { config.samples };
                for_each_sample(b, f, draws, config.seed.wrapping_add(f as u64), &mut visit);
                config.samples
            }
        };
        if single_orbit {
            plan.entries[0].1 = copies;
        }
        plans.push(plan);
    }
    // The worst-case decay fails the lowest-numbered resources first.
    let decay_levels = if decay { max_failures + 1 } else { 0 };
    let decay: Vec<usize> = (0..decay_levels)
        .map(|f| orbits.of(&(0..f).collect::<Vec<_>>()))
        .collect();

    // Evaluate each orbit once, through its canonical mask.
    let workers = if config.workers == 0 {
        available_workers()
    } else {
        config.workers
    };
    let outcomes = parallel_map(orbits.canonical, workers, |failed| evaluate(&failed))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let levels: Vec<Level> = (plans.iter().enumerate())
        .map(|(f, plan)| summarize(f, plan, &outcomes))
        .collect();
    let expected_bandwidth = levels
        .iter()
        .map(|level| {
            let f = level.failures as u64;
            let weight =
                choose_f64(b as u64, f) * q.powi(f as i32) * (1.0 - q).powi((b as u64 - f) as i32);
            weight * level.bandwidth.mean
        })
        .sum();
    let decay = decay.iter().map(|&orbit| outcomes[orbit].decay.clone());
    Ok((levels, expected_bandwidth, decay.collect()))
}

/// Runs a fault campaign: evaluates the analytical degraded bandwidth of
/// every (or a sample of every) f-bus failure combination for
/// `f = 0..=max_failures` and aggregates per-level summaries.
///
/// # Errors
///
/// * invalid `config` (zero samples / exhaustive limit, `q ∉ [0, 1]`,
///   `max_failures > B`) → [`CampaignError::BadConfig`];
/// * analysis failures (dimension mismatches, invalid rate, unsupported
///   scheme) → [`CampaignError::Analysis`].
pub fn run_campaign(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_with(net, matrix, r, config, bus_types(net))
}

/// [`run_campaign`] over the given bus types; giving every bus its own
/// type evaluates every mask, the reference the orbit sweep is tested
/// against.
fn run_campaign_with(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &CampaignConfig,
    type_of: Vec<usize>,
) -> Result<CampaignReport, CampaignError> {
    let b = net.buses();
    // K-class networks also tabulate per-class bandwidth under worst-case
    // (lowest-bus-first) failures.
    let kclass = net.class_count().is_some();
    let (levels, expected_bandwidth, decay) = sweep("bus", type_of, config, kclass, |failed| {
        let mask = FaultMask::with_failures(b, failed).map_err(AnalysisError::from)?;
        let breakdown = degraded_analyze(net, matrix, r, &mask)?;
        Ok(Outcome {
            bandwidth: breakdown.bandwidth,
            other: breakdown.accessible_fraction,
            decay: breakdown.per_class_bandwidth,
        })
    })?;
    let per_class_decay = if kclass {
        let decay = decay.into_iter().collect::<Option<Vec<_>>>();
        Some(decay.ok_or_else(|| CampaignError::Internal {
            reason: "K-class analysis reported no per-class bandwidth".to_owned(),
        })?)
    } else {
        None
    };
    let levels: Vec<FailureLevelSummary> = (levels.into_iter())
        .map(|level| FailureLevelSummary {
            failures: level.failures,
            combos_evaluated: level.combos_evaluated,
            exhaustive: level.exhaustive,
            mean_bandwidth: level.bandwidth.mean,
            min_bandwidth: level.bandwidth.min,
            max_bandwidth: level.bandwidth.max,
            mean_accessible_fraction: level.other.mean,
            min_accessible_fraction: level.other.min,
            worst_mask: level.worst_mask,
        })
        .collect();

    Ok(CampaignReport {
        scheme: net.kind().to_string(),
        processors: net.processors(),
        memories: net.memories(),
        buses: b,
        rate: r,
        bus_failure_prob: config.bus_failure_prob,
        healthy_bandwidth: levels[0].mean_bandwidth,
        levels,
        expected_bandwidth,
        per_class_decay,
    })
}

/// One analytical-vs-simulated comparison for a fixed mask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossCheck {
    /// The failed buses.
    pub failed_buses: Vec<usize>,
    /// Analytical degraded bandwidth.
    pub analytical: f64,
    /// Simulated mean bandwidth under a cycle-0 failure schedule of the
    /// same buses.
    pub simulated: f64,
    /// Batch-means confidence half-width of the simulated mean.
    pub sim_half_width: f64,
    /// `analytical − simulated`.
    pub gap: f64,
}

/// Cross-validates the analytical degraded bandwidth of `mask` against a
/// simulation that fails the same buses at cycle 0.
///
/// # Errors
///
/// * analysis failures → [`CampaignError::Analysis`];
/// * simulator construction / schedule failures → [`CampaignError::Sim`].
pub fn cross_validate(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
    cycles: u64,
    seed: u64,
) -> Result<CrossCheck, CampaignError> {
    let analytical = degraded_analyze(net, matrix, r, mask)?;
    let events: Vec<FaultEvent> = mask
        .iter_failed()
        .map(|bus| FaultEvent {
            cycle: 0,
            bus,
            kind: FaultEventKind::Fail,
        })
        .collect();
    let schedule = FaultSchedule::from_events(events)?;
    let config = SimConfig::new(cycles)
        .with_warmup(cycles / 20)
        .with_seed(seed)
        .with_faults(schedule);
    let report = Simulator::build(net, matrix, r)?.run(&config)?;
    let simulated = report.bandwidth.mean();
    Ok(CrossCheck {
        failed_buses: mask.iter_failed().collect(),
        analytical: analytical.bandwidth,
        simulated,
        sim_half_width: report.bandwidth.half_width(),
        gap: analytical.bandwidth - simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    fn combinations(b: usize, f: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_combination(b, f, |mask| out.push(mask.to_vec()));
        out
    }

    fn samples(b: usize, f: usize, samples: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_sample(b, f, samples, seed, |mask| out.push(mask.to_vec()));
        out
    }

    #[test]
    fn combination_enumeration_is_complete_and_lexicographic() {
        let combos = combinations(5, 3);
        assert_eq!(combos.len(), 10);
        assert_eq!(combos[0], vec![0, 1, 2]);
        assert_eq!(combos[9], vec![2, 3, 4]);
        assert!(
            combos.windows(2).all(|w| w[0] < w[1]),
            "strictly lexicographic"
        );
        assert_eq!(combinations(4, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let a = samples(16, 5, 50, 42);
        let b = samples(16, 5, 50, 42);
        assert_eq!(a, b);
        for subset in &a {
            assert_eq!(subset.len(), 5);
            assert!(subset.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(subset.iter().all(|&bus| bus < 16));
        }
        assert_ne!(a, samples(16, 5, 50, 43), "seed matters");
    }

    /// Every scheme at `n × b`, partial and K-class at two widths each.
    fn schemes(n: usize, b: usize) -> Vec<(&'static str, ConnectionScheme)> {
        vec![
            ("full", ConnectionScheme::Full),
            ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
            ("partial-g2", ConnectionScheme::PartialGroups { groups: 2 }),
            ("partial-g4", ConnectionScheme::PartialGroups { groups: 4 }),
            (
                "kclass-k2",
                ConnectionScheme::uniform_classes(n, 2).unwrap(),
            ),
            (
                "kclass-k4",
                ConnectionScheme::uniform_classes(n, 4).unwrap(),
            ),
            ("crossbar", ConnectionScheme::Crossbar),
        ]
    }

    #[test]
    fn bus_types_follow_the_wiring() {
        let types = |scheme| bus_types(&BusNetwork::new(16, 16, 8, scheme).unwrap());
        let expected: [&[usize]; 7] = [
            &[0; 8],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[0, 0, 0, 0, 1, 1, 1, 1],
            &[0, 0, 1, 1, 2, 2, 3, 3],
            &[0, 0, 0, 0, 0, 0, 0, 1],
            &[0, 0, 0, 0, 0, 1, 2, 3],
            &[0; 8],
        ];
        for ((name, scheme), expected) in schemes(16, 8).into_iter().zip(expected) {
            assert_eq!(types(scheme), expected, "{name}");
        }
    }

    /// A random row-stochastic `n × n` matrix: heterogeneous traffic, so no
    /// symmetry of the workload can hide an asymmetry of the network.
    fn random_matrix(n: usize, rng: &mut StdRng) -> RequestMatrix {
        let rows = (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..1.0)).collect();
                let sum: f64 = row.iter().sum();
                row.iter().map(|x| x / sum).collect()
            })
            .collect();
        RequestMatrix::from_rows(rows).unwrap()
    }

    /// The invariant the orbit sweep rests on: a mask and its orbit's
    /// canonical mask give bit-identical breakdowns, except that
    /// `per_bus_busy` is permuted along with the buses.
    #[test]
    fn masks_and_their_canonical_masks_give_identical_breakdowns() {
        let mut rng = StdRng::seed_from_u64(0x0b17);
        let mut checked = 0;
        for (n, b) in [(16, 8), (32, 16)] {
            let matrices = [hier_matrix(n), random_matrix(n, &mut rng)];
            for (name, scheme) in schemes(n, b) {
                let net = BusNetwork::new(n, n, b, scheme).unwrap();
                let mut orbits = Orbits::new(bus_types(&net));
                for matrix in &matrices {
                    for _ in 0..40 {
                        let f = rng.random_range(0..=b);
                        let failed = samples(b, f, 1, rng.random_range(0..u64::MAX)).remove(0);
                        let orbit = orbits.of(&failed);
                        let canonical = orbits.canonical[orbit].clone();
                        assert_eq!(canonical.len(), f, "{name}");
                        assert_eq!(
                            orbits.of(&canonical),
                            orbit,
                            "{name}: canonical is in its orbit"
                        );
                        let r = rng.random_range(0.1..=1.0);
                        let analyze = |failed: &[usize]| {
                            let mask = FaultMask::with_failures(b, failed).unwrap();
                            degraded_analyze(&net, matrix, r, &mask).unwrap()
                        };
                        let (a, c) = (analyze(&failed), analyze(&canonical));
                        let context = format!("{name} {n}x{b} {failed:?} -> {canonical:?}");
                        assert_eq!(a.bandwidth.to_bits(), c.bandwidth.to_bits(), "{context}");
                        assert_eq!(
                            a.accessible_fraction.to_bits(),
                            c.accessible_fraction.to_bits(),
                            "{context}"
                        );
                        assert_eq!(
                            a.unreachable_load.to_bits(),
                            c.unreachable_load.to_bits(),
                            "{context}"
                        );
                        let bits = |v: &Option<Vec<f64>>| {
                            v.as_ref()
                                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                        };
                        assert_eq!(
                            bits(&a.per_class_bandwidth),
                            bits(&c.per_class_bandwidth),
                            "{context}"
                        );
                        let sorted = |v: &[f64]| {
                            let mut bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                            bits.sort_unstable();
                            bits
                        };
                        assert_eq!(
                            sorted(&a.per_bus_busy),
                            sorted(&c.per_bus_busy),
                            "{context}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 7 * 2 * 40);
    }

    #[test]
    fn full_campaign_levels_are_monotone() {
        let n = 8;
        let b = 4;
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(n);
        let report = run_campaign(&net, &matrix, 1.0, &CampaignConfig::default()).unwrap();
        assert_eq!(report.levels.len(), b + 1);
        assert!(report.levels.iter().all(|level| level.exhaustive));
        assert_eq!(report.levels[0].combos_evaluated, 1);
        assert_eq!(report.levels[2].combos_evaluated, 6);
        // Bandwidth decays monotonically in f; the full scheme's levels are
        // permutation-symmetric so min == max.
        for pair in report.levels.windows(2) {
            assert!(pair[0].mean_bandwidth >= pair[1].mean_bandwidth);
        }
        for level in &report.levels {
            assert!((level.min_bandwidth - level.max_bandwidth).abs() < 1e-12);
        }
        assert_eq!(report.levels[b].mean_bandwidth, 0.0);
        assert_eq!(report.levels[b].min_accessible_fraction, 0.0);
        // Availability weighting sits between dead and healthy.
        assert!(report.expected_bandwidth > 0.0);
        assert!(report.expected_bandwidth <= report.healthy_bandwidth + 1e-12);
        assert!(report.per_class_decay.is_none());
    }

    #[test]
    fn kclass_decay_table_obeys_death_law() {
        let n = 8;
        let b = 4;
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        let matrix = hier_matrix(n);
        let report = run_campaign(&net, &matrix, 1.0, &CampaignConfig::default()).unwrap();
        let decay = report.per_class_decay.as_ref().unwrap();
        assert_eq!(decay.len(), b + 1);
        for (f, row) in decay.iter().enumerate() {
            for (c, &bw) in row.iter().enumerate() {
                // Class C_(c+1) connects buses 0..=c (K = B here): dead at
                // f > c, alive otherwise.
                if f >= net.kclass_bus_count(c) {
                    assert_eq!(bw, 0.0, "f={f} c={c}");
                } else {
                    assert!(bw > 0.0, "f={f} c={c}");
                }
            }
        }
    }

    #[test]
    fn monte_carlo_kicks_in_past_the_limit() {
        let n = 8;
        let b = 8;
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let matrix = UniformModel::new(n, n).unwrap().matrix();
        let config = CampaignConfig {
            exhaustive_limit: 8,
            samples: 16,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&net, &matrix, 1.0, &config).unwrap();
        // C(8,0)=1 and C(8,1)=8 fit; C(8,2)=28 must be sampled.
        assert!(report.levels[0].exhaustive);
        assert!(report.levels[1].exhaustive);
        assert!(!report.levels[2].exhaustive);
        assert_eq!(report.levels[2].combos_evaluated, 16);
        // Determinism: same config, same report.
        let again = run_campaign(&net, &matrix, 1.0, &config).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn symmetry_collapse_matches_uncollapsed_reference() {
        let (n, b) = (16, 8);
        let matrix = hier_matrix(n);
        let mc = CampaignConfig {
            exhaustive_limit: 20,
            samples: 24,
            ..CampaignConfig::default()
        };
        for (name, scheme) in schemes(n, b) {
            let net = BusNetwork::new(n, n, b, scheme).unwrap();
            // Exhaustive levels, then Monte-Carlo levels past C(8, 2) = 28.
            for config in [CampaignConfig::default(), mc.clone()] {
                let collapsed = run_campaign(&net, &matrix, 0.9, &config).unwrap();
                // Every bus its own type: every mask is its own orbit.
                let reference =
                    run_campaign_with(&net, &matrix, 0.9, &config, (0..b).collect()).unwrap();
                // Exact structural equality: same per-level aggregates, same
                // worst masks, same availability weighting — the orbits are
                // invisible in the report.
                assert_eq!(collapsed, reference, "{name}");
            }
        }
    }

    #[test]
    fn truncated_campaign_is_a_lower_bound() {
        let n = 8;
        let b = 4;
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(n);
        let full = run_campaign(&net, &matrix, 1.0, &CampaignConfig::default()).unwrap();
        let truncated = run_campaign(
            &net,
            &matrix,
            1.0,
            &CampaignConfig {
                max_failures: Some(2),
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(truncated.levels.len(), 3);
        assert!(truncated.expected_bandwidth <= full.expected_bandwidth + 1e-12);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(8);
        let bad = |config: CampaignConfig| {
            assert!(matches!(
                run_campaign(&net, &matrix, 1.0, &config),
                Err(CampaignError::BadConfig { .. })
            ));
        };
        bad(CampaignConfig {
            samples: 0,
            ..CampaignConfig::default()
        });
        bad(CampaignConfig {
            bus_failure_prob: 1.5,
            ..CampaignConfig::default()
        });
        bad(CampaignConfig {
            max_failures: Some(9),
            ..CampaignConfig::default()
        });
        // Analysis errors propagate.
        assert!(matches!(
            run_campaign(&net, &matrix, 2.0, &CampaignConfig::default()),
            Err(CampaignError::Analysis(_))
        ));
    }

    #[test]
    fn cross_validation_on_a_single_connection_mask_is_tight() {
        // B = M single connection: the analytical busy probability is exact
        // per bus, so the gap is pure simulation noise.
        let n = 8;
        let net =
            BusNetwork::new(n, n, 8, ConnectionScheme::balanced_single(n, 8).unwrap()).unwrap();
        let matrix = hier_matrix(n);
        let mask = FaultMask::with_failures(8, &[0, 3]).unwrap();
        let check = cross_validate(&net, &matrix, 1.0, &mask, 40_000, 7).unwrap();
        assert_eq!(check.failed_buses, vec![0, 3]);
        assert!(
            check.gap.abs() < 0.02,
            "analytical {} vs simulated {}",
            check.analytical,
            check.simulated
        );
    }
}
