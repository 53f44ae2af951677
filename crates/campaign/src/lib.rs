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
//! worst-case mask per level. Mask evaluations run over the shared-queue
//! pool through [`mbus_stats::parallel::parallel_map`] — level
//! sizes are wildly uneven (`C(B, f)` peaks at `f = B/2`), so the masks
//! go into one flat list and workers claim shrinking batches of it.
//!
//! For bus-permutation-symmetric schemes (full, crossbar) every bus is
//! interchangeable, so a degraded breakdown depends only on the failure
//! *count*, not on which buses failed. For those schemes the campaign
//! evaluates one canonical mask per level — at most `B + 1` analytical
//! calls instead of `2^B` — and lists no masks: each level aggregates its
//! canonical result once per mask, reporting the same per-mask aggregates
//! as evaluating every mask.
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

use mbus_analysis::degraded::{degraded_analyze, DegradedBreakdown};
use mbus_analysis::AnalysisError;
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, SimError, Simulator};
use mbus_stats::parallel::{available_workers, parallel_map};
use mbus_stats::prob::{choose, choose_f64};
use mbus_topology::{BusNetwork, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

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
    /// Per-bus failure probability `q` for availability weighting.
    pub bus_failure_prob: f64,
}

impl CampaignConfig {
    /// The failure probability read as a per-**uplink** probability by the
    /// fabric campaign (same knob as [`CampaignConfig::bus_failure_prob`]:
    /// one field, interpreted against whichever resource pool is swept).
    pub fn uplink_failure_prob(&self) -> f64 {
        self.bus_failure_prob
    }
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

/// All `C(b, f)`-choose combinations, lexicographic. Only invoked when the
/// caller has bounded the count.
fn all_combinations(b: usize, f: usize) -> Vec<Vec<usize>> {
    if f == 0 {
        return vec![Vec::new()];
    }
    if f > b {
        return Vec::new();
    }
    let mut combos = Vec::new();
    let mut current: Vec<usize> = (0..f).collect();
    loop {
        combos.push(current.clone());
        // Advance to the next combination.
        let mut i = f;
        loop {
            if i == 0 {
                return combos;
            }
            i -= 1;
            if current[i] != i + b - f {
                break;
            }
            if i == 0 {
                return combos;
            }
        }
        current[i] += 1;
        for j in i + 1..f {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// `samples` sorted f-subsets of `0..b`, drawn uniformly (independent
/// draws; duplicates across draws possible and harmless for a mean).
fn sampled_combinations(b: usize, f: usize, samples: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..b).collect();
    (0..samples)
        .map(|_| {
            for i in 0..f {
                let j = rng.random_range(i..b);
                pool.swap(i, j);
            }
            let mut subset = pool[..f].to_vec();
            subset.sort_unstable();
            subset
        })
        .collect()
}

/// The summary of failure level `f` over its masks' failed buses and
/// breakdowns, in evaluation order: the worst mask is the first one that
/// reaches the level's minimum bandwidth.
fn summarize<'a>(
    f: usize,
    exhaustive: bool,
    masks: impl Iterator<Item = (&'a [usize], &'a DegradedBreakdown)>,
) -> FailureLevelSummary {
    let mut n = 0usize;
    let mut mean_bw = 0.0;
    let mut mean_reach = 0.0;
    let mut min_bw = f64::INFINITY;
    let mut max_bw = f64::NEG_INFINITY;
    let mut min_reach = f64::INFINITY;
    let mut worst_mask = Vec::new();
    for (failed, breakdown) in masks {
        n += 1;
        mean_bw += breakdown.bandwidth;
        mean_reach += breakdown.accessible_fraction;
        max_bw = max_bw.max(breakdown.bandwidth);
        min_reach = min_reach.min(breakdown.accessible_fraction);
        if breakdown.bandwidth < min_bw {
            min_bw = breakdown.bandwidth;
            worst_mask = failed.to_vec();
        }
    }
    debug_assert!(n > 0, "every level evaluates at least one mask");
    FailureLevelSummary {
        failures: f,
        combos_evaluated: n,
        exhaustive,
        mean_bandwidth: mean_bw / n as f64,
        min_bandwidth: min_bw,
        max_bandwidth: max_bw,
        mean_accessible_fraction: mean_reach / n as f64,
        min_accessible_fraction: min_reach,
        worst_mask,
    }
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
    run_campaign_with(net, matrix, r, config, true)
}

/// [`run_campaign`] with the bus-permutation symmetry collapse switchable;
/// `collapse = false` evaluates every mask, the reference the collapsed
/// sweep is tested against.
fn run_campaign_with(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &CampaignConfig,
    collapse: bool,
) -> Result<CampaignReport, CampaignError> {
    let b = net.buses();
    if config.samples == 0 || config.exhaustive_limit == 0 {
        return Err(CampaignError::BadConfig {
            reason: "samples and exhaustive_limit must be positive".into(),
        });
    }
    let q = config.bus_failure_prob;
    if !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return Err(CampaignError::BadConfig {
            reason: format!("bus failure probability {q} outside [0, 1]"),
        });
    }
    let max_failures = config.max_failures.unwrap_or(b);
    if max_failures > b {
        return Err(CampaignError::BadConfig {
            reason: format!("max_failures {max_failures} exceeds bus count {b}"),
        });
    }

    // Bus-permutation symmetry: on full/crossbar schemes any two equal-`f`
    // masks yield bit-identical breakdowns, so one canonical evaluation
    // per level (the mask `{0..f}`) stands for every mask of the level,
    // and those levels list no masks at all.
    let symmetric = collapse && matches!(net.kind(), SchemeKind::Full | SchemeKind::Crossbar);

    // Gather every mask to evaluate, tagged by level, and sweep them in one
    // parallel pass (flat work list → balanced chunks). A symmetric level
    // keeps only its mask count and its first mask.
    let mut work: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut level_exhaustive = Vec::with_capacity(max_failures + 1);
    let mut level_first: Vec<(usize, Vec<usize>)> = Vec::new();
    for f in 0..=max_failures {
        let count = choose(b as u64, f as u64);
        let exhaustive = matches!(count, Some(c) if c <= config.exhaustive_limit);
        let seed = config.seed.wrapping_add(f as u64);
        level_exhaustive.push(exhaustive);
        if symmetric {
            level_first.push(match count {
                Some(c) if exhaustive => (
                    usize::try_from(c).map_err(|_| CampaignError::BadConfig {
                        reason: format!("C({b}, {f}) = {c} masks exceed the address space"),
                    })?,
                    (0..f).collect(),
                ),
                // Draws are independent, so the first of one draw is the
                // first of `samples` draws.
                _ => (
                    config.samples,
                    sampled_combinations(b, f, 1, seed).swap_remove(0),
                ),
            });
            continue;
        }
        let masks = if exhaustive {
            all_combinations(b, f)
        } else {
            sampled_combinations(b, f, config.samples, seed)
        };
        work.extend(masks.into_iter().map(|mask| (f, mask)));
    }

    let levels = if symmetric {
        level_first
            .iter()
            .enumerate()
            .map(|(f, (count, first))| {
                let canonical = FaultMask::with_failures(b, &(0..f).collect::<Vec<_>>())?;
                let breakdown = degraded_analyze(net, matrix, r, &canonical)?;
                // Every mask of the level reads the canonical breakdown:
                // aggregate it `count` times in mask order, so the means
                // keep the bits of a per-mask sweep.
                let masks = std::iter::repeat_n((first.as_slice(), &breakdown), *count);
                Ok(summarize(f, level_exhaustive[f], masks))
            })
            .collect::<Result<Vec<_>, AnalysisError>>()?
    } else {
        let workers = if config.workers == 0 {
            available_workers()
        } else {
            config.workers
        };
        type Evaluated = Result<(usize, Vec<usize>, DegradedBreakdown), AnalysisError>;
        let evaluated: Vec<Evaluated> = parallel_map(work, workers, |(f, failed)| {
            let mask = FaultMask::with_failures(b, &failed).map_err(AnalysisError::from)?;
            Ok((f, failed, degraded_analyze(net, matrix, r, &mask)?))
        });
        let mut per_level: Vec<Vec<(Vec<usize>, DegradedBreakdown)>> =
            (0..=max_failures).map(|_| Vec::new()).collect();
        for item in evaluated {
            let (f, failed, breakdown) = item?;
            per_level[f].push((failed, breakdown));
        }
        per_level
            .iter()
            .enumerate()
            .map(|(f, results)| {
                let masks = results.iter().map(|(failed, bd)| (failed.as_slice(), bd));
                summarize(f, level_exhaustive[f], masks)
            })
            .collect()
    };

    let expected_bandwidth = levels
        .iter()
        .map(|level| {
            let f = level.failures as u64;
            let weight =
                choose_f64(b as u64, f) * q.powi(f as i32) * (1.0 - q).powi((b as u64 - f) as i32);
            weight * level.mean_bandwidth
        })
        .sum();

    let per_class_decay = if net.kind() == SchemeKind::KClasses {
        let mut decay = Vec::with_capacity(max_failures + 1);
        for f in 0..=max_failures {
            let failed: Vec<usize> = (0..f).collect();
            let mask = FaultMask::with_failures(b, &failed).map_err(AnalysisError::from)?;
            let breakdown = degraded_analyze(net, matrix, r, &mask)?;
            let Some(per_class) = breakdown.per_class_bandwidth else {
                return Err(CampaignError::Internal {
                    reason: "K-class analysis reported no per-class bandwidth".to_owned(),
                });
            };
            decay.push(per_class);
        }
        Some(decay)
    } else {
        None
    };

    Ok(CampaignReport {
        scheme: net.kind().to_string(),
        processors: net.processors(),
        memories: net.memories(),
        buses: b,
        rate: r,
        bus_failure_prob: q,
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

    #[test]
    fn combination_enumeration_is_complete_and_lexicographic() {
        let combos = all_combinations(5, 3);
        assert_eq!(combos.len(), 10);
        assert_eq!(combos[0], vec![0, 1, 2]);
        assert_eq!(combos[9], vec![2, 3, 4]);
        let mut seen = combos.clone();
        seen.dedup();
        assert_eq!(seen.len(), 10, "no duplicates");
        assert_eq!(all_combinations(4, 0), vec![Vec::<usize>::new()]);
        assert_eq!(all_combinations(3, 3), vec![vec![0, 1, 2]]);
        assert!(all_combinations(2, 3).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let a = sampled_combinations(16, 5, 50, 42);
        let b = sampled_combinations(16, 5, 50, 42);
        assert_eq!(a, b);
        for subset in &a {
            assert_eq!(subset.len(), 5);
            assert!(subset.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(subset.iter().all(|&bus| bus < 16));
        }
        assert_ne!(a, sampled_combinations(16, 5, 50, 43), "seed matters");
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
        let n = 8;
        let b = 6;
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(n);
        let collapsed = run_campaign(&net, &matrix, 0.9, &CampaignConfig::default()).unwrap();
        let reference =
            run_campaign_with(&net, &matrix, 0.9, &CampaignConfig::default(), false).unwrap();
        // Exact structural equality: same per-level aggregates, same worst
        // masks, same availability weighting — the collapse is invisible in
        // the report.
        assert_eq!(collapsed, reference);

        // Monte-Carlo levels collapse too (all sampled masks read the same
        // canonical breakdown).
        let mc = CampaignConfig {
            exhaustive_limit: 4,
            samples: 24,
            ..CampaignConfig::default()
        };
        let mc_collapsed = run_campaign(&net, &matrix, 0.9, &mc).unwrap();
        let mc_reference = run_campaign_with(&net, &matrix, 0.9, &mc, false).unwrap();
        assert_eq!(mc_collapsed, mc_reference);

        // Asymmetric schemes are untouched by the switch: the collapse gate
        // never fires for K-class networks.
        let kc =
            BusNetwork::new(n, n, 4, ConnectionScheme::uniform_classes(n, 4).unwrap()).unwrap();
        let a = run_campaign(&kc, &matrix, 0.9, &CampaignConfig::default()).unwrap();
        let b = run_campaign_with(&kc, &matrix, 0.9, &CampaignConfig::default(), false).unwrap();
        assert_eq!(a, b);
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
