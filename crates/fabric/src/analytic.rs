//! Level-by-level analytic decomposition of the fabric.
//!
//! The flat paper model computes bandwidth in one shot: per-memory
//! request probabilities `X_j` feed a Poisson-binomial "requested
//! modules" count whose expectation, capped at the bus count, is eq (4).
//! The fabric generalizes this by treating **every link as one such
//! stage** and coupling the stages through per-link acceptance
//! probabilities:
//!
//! * `α_k` — the probability a request offered to link `k` wins its
//!   arbitration there. A request from processor `p` to memory `j`
//!   reaches hop `h` of its route with probability
//!   `r·q_pj · ∏_{h' < h} α_{route[h']}` — upstream stages *thin* the
//!   Bernoulli stream exactly like assumption 5 drops flat losers.
//! * At the final hop (the destination leaf's local group) the paper's
//!   two-stage structure applies: memory `j`'s arbiter admits one
//!   contender with probability `u_j = 1 − ∏_p (1 − r·q_pj·pre_pj)` —
//!   the fabric's `X_j` — and the link's width is then shared between
//!   these memory winners and the leaf's *outbound* first-hop traffic.
//! * Every link's carried load is `E[min(D_k, width_k)]` with `D_k`
//!   Poisson-binomial over its offered streams, and
//!   `α_k = carried_k / offered_k`.
//!
//! The `α` vector is solved by damped fixed-point iteration. Failed
//! links pin `α_k = 0`; flows whose route crosses a failed link are
//! dropped at issue (they never contend), reproducing the simulator's
//! unreachable accounting and the death law — a severed cluster's
//! service rate is exactly zero.
//!
//! # Approximations
//!
//! The decomposition treats the streams offered to one link as
//! independent Bernoulli sources (they share issue events upstream).
//! The approximation vanishes at depth 1, where the model collapses to
//! the paper's closed form bit-for-bit (`u_j = X_j`, one link,
//! `E[min(D, B)]`); the depth-2/3 agreement
//! with the cycle-accurate simulator is asserted within tolerance by
//! `tests/analytic_grid.rs`.

use crate::topology::{ClusteredBuses, LinkId};
use crate::FabricError;
use mbus_stats::prob::{check, PoissonBinomial};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};

/// Convergence tolerance on the acceptance vector (max abs step).
const TOLERANCE: f64 = 1e-10;
/// Damping factor for the fixed-point update.
const DAMPING: f64 = 0.5;
/// Iteration cap; the damped map converges geometrically long before
/// this on every grid the tests sweep. A run that reaches it without
/// converging is [`FabricError::NoConvergence`], never a result.
const MAX_ITERATIONS: usize = 200;

/// Steady-state load on one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkLoad {
    /// Expected streams offered per cycle (post-thinning).
    pub offered: f64,
    /// Expected grants per cycle, `E[min(D, width)]`.
    pub carried: f64,
    /// `carried / offered` (1 when nothing is offered, 0 when failed).
    pub acceptance: f64,
    /// `carried / width`: mean per-channel occupancy.
    pub utilization: f64,
}

/// The analytic model's full output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricAnalysis {
    /// Expected delivered requests per cycle.
    pub bandwidth: f64,
    /// Offered load `N·r` (unreachable issues included, as in the sim).
    pub offered_load: f64,
    /// `bandwidth / offered_load` (1 when nothing is offered).
    pub acceptance: f64,
    /// Expected requests dropped at issue per cycle because their route
    /// crosses a failed link.
    pub unreachable_rate: f64,
    /// Per-link steady-state loads, indexed by [`LinkId`].
    pub links: Vec<LinkLoad>,
    /// Per-leaf-cluster delivered rates.
    pub cluster_bandwidth: Vec<f64>,
    /// Per-memory delivered rates.
    pub memory_service: Vec<f64>,
    /// Per-processor delivered rates.
    pub processor_service: Vec<f64>,
    /// Mean route length of delivered requests.
    pub mean_hops: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
    /// Largest per-link acceptance change in the last fixed-point step
    /// (below the convergence tolerance, 1e-10).
    pub residual: f64,
}

/// Scratch shared by the fixed-point passes: one offered-stream term
/// list per link, plus per-(leaf,leaf) flow metadata.
struct Decomposition<'a> {
    topo: &'a ClusteredBuses,
    /// `r·q_pj`, row-major `n × m`.
    bprob: Vec<f64>,
    /// `Σ_{j ∈ leaf d} r·q_pj`, row-major `n × leaves`.
    cross: Vec<f64>,
    /// Whether the (src leaf, dst leaf) route avoids every failed link.
    route_alive: Vec<bool>,
    failed: Vec<bool>,
    proc_leaf: Vec<usize>,
    mem_leaf: Vec<usize>,
}

impl<'a> Decomposition<'a> {
    fn new(
        topo: &'a ClusteredBuses,
        matrix: &RequestMatrix,
        rate: f64,
        failed_links: &[LinkId],
    ) -> Result<Self, FabricError> {
        let (n, m, leaves) = (topo.processors(), topo.memories(), topo.leaves());
        let nlinks = topo.links().len();
        let mut failed = vec![false; nlinks];
        for &link in failed_links {
            if link >= nlinks {
                return Err(FabricError::BadFabric {
                    reason: format!("failed link {link} out of range (fabric has {nlinks} links)"),
                });
            }
            failed[link] = true;
        }
        let proc_leaf: Vec<usize> = (0..n).map(|p| topo.leaf_of_processor(p)).collect();
        let mem_leaf: Vec<usize> = (0..m).map(|j| topo.leaf_of_memory(j)).collect();
        let mut route_alive = vec![true; leaves * leaves];
        for src in 0..leaves {
            for dst in 0..leaves {
                route_alive[src * leaves + dst] =
                    topo.leaf_route(src, dst).iter().all(|&link| !failed[link]);
            }
        }
        let mut bprob = vec![0.0; n * m];
        let mut cross = vec![0.0; n * leaves];
        for p in 0..n {
            for j in 0..m {
                let b = rate * matrix.prob(p, j);
                bprob[p * m + j] = b;
                cross[p * leaves + mem_leaf[j]] += b;
            }
        }
        Ok(Self {
            topo,
            bprob,
            cross,
            route_alive,
            failed,
            proc_leaf,
            mem_leaf,
        })
    }

    /// Prefix products of `alpha` along every leaf-pair route, taken
    /// over the hops *before* the final one — the thinning a request
    /// experiences before reaching its destination's local group.
    fn final_prefixes(&self, alpha: &[f64]) -> Vec<f64> {
        let leaves = self.topo.leaves();
        let mut pre_final = vec![0.0; leaves * leaves];
        for src in 0..leaves {
            for dst in 0..leaves {
                if !self.route_alive[src * leaves + dst] {
                    continue;
                }
                let route = self.topo.leaf_route(src, dst);
                let mut pre = 1.0;
                for &link in &route[..route.len() - 1] {
                    pre *= alpha[link];
                }
                pre_final[src * leaves + dst] = pre;
            }
        }
        pre_final
    }

    /// Per-memory arrival probabilities `u_j` (the fabric's `X_j`) under
    /// the thinning `alpha` induces.
    fn arrival_probabilities(&self, pre_final: &[f64]) -> Vec<f64> {
        let (n, m, leaves) = (
            self.topo.processors(),
            self.topo.memories(),
            self.topo.leaves(),
        );
        let mut ucomp = vec![1.0; m];
        for p in 0..n {
            let src = self.proc_leaf[p];
            for j in 0..m {
                let pre = pre_final[src * leaves + self.mem_leaf[j]];
                if pre > 0.0 {
                    ucomp[j] *= 1.0 - self.bprob[p * m + j] * pre;
                }
            }
        }
        ucomp.iter().map(|&c| (1.0 - c).clamp(0.0, 1.0)).collect()
    }

    /// Per-link offered-stream term lists: for a local group, one term
    /// per homed memory (`u_j`, the stage-1 winner) plus one outbound
    /// transit term per resident processor; for an uplink, one term per
    /// processor routing through it.
    fn offered_terms(&self, alpha: &[f64], u: &[f64]) -> Vec<Vec<f64>> {
        let (n, leaves) = (self.topo.processors(), self.topo.leaves());
        let nlinks = self.topo.links().len();
        let mut terms: Vec<Vec<f64>> = vec![Vec::new(); nlinks];
        for (j, &uj) in u.iter().enumerate() {
            if uj > 0.0 {
                terms[self.topo.local_link(self.mem_leaf[j])].push(uj);
            }
        }
        // Transit traffic: every non-final hop of every live flow,
        // aggregated into one Bernoulli stream per (link, processor).
        let mut transit = vec![0.0; nlinks];
        for p in 0..n {
            let src = self.proc_leaf[p];
            for link in transit.iter_mut() {
                *link = 0.0;
            }
            for dst in 0..leaves {
                if dst == src || !self.route_alive[src * leaves + dst] {
                    continue;
                }
                let crossing = self.cross[p * leaves + dst];
                if crossing <= 0.0 {
                    continue;
                }
                let route = self.topo.leaf_route(src, dst);
                let mut pre = crossing;
                for &link in &route[..route.len() - 1] {
                    transit[link] += pre;
                    pre *= alpha[link];
                }
            }
            for (link, &offered) in transit.iter().enumerate() {
                if offered > 0.0 {
                    terms[link].push(offered.clamp(0.0, 1.0));
                }
            }
        }
        terms
    }

    /// One fixed-point step: fresh acceptance vector from the current one.
    fn step(&self, alpha: &[f64]) -> Result<Vec<f64>, FabricError> {
        let pre_final = self.final_prefixes(alpha);
        let u = self.arrival_probabilities(&pre_final);
        let terms = self.offered_terms(alpha, &u);
        let links = self.topo.links();
        let mut next = vec![0.0; links.len()];
        for (k, terms) in terms.iter().enumerate() {
            if self.failed[k] {
                continue;
            }
            let offered: f64 = terms.iter().sum();
            if offered <= f64::EPSILON {
                next[k] = 1.0;
                continue;
            }
            let pb = PoissonBinomial::new(terms).map_err(|err| FabricError::BadFabric {
                reason: format!("offered stream is not a probability: {err}"),
            })?;
            let carried = pb.expected_min_with(links[k].width);
            next[k] = (carried / offered).clamp(0.0, 1.0);
        }
        Ok(next)
    }
}

/// Analyzes `topo` under the workload `matrix` at request rate `rate`
/// with the listed links failed, by level-by-level decomposition.
///
/// The returned quantities use the same open-loop drop-on-block
/// semantics as [`crate::FabricSimulator`]: `offered_load = N·r`
/// counts unreachable issues, `acceptance = bandwidth / offered_load`,
/// and requests whose route crosses a failed link contribute only to
/// `unreachable_rate`.
///
/// # Errors
///
/// [`FabricError::DimensionMismatch`] for a workload that does not fit
/// the fabric, [`FabricError::BadRate`] for `rate ∉ [0, 1]`,
/// [`FabricError::BadFabric`] for a failed-link id outside the link
/// table, and [`FabricError::NoConvergence`] when the fixed point has not
/// converged after 200 iterations.
pub fn analyze_fabric(
    topo: &ClusteredBuses,
    matrix: &RequestMatrix,
    rate: f64,
    failed_links: &[LinkId],
) -> Result<FabricAnalysis, FabricError> {
    analyze_capped(topo, matrix, rate, failed_links, MAX_ITERATIONS)
}

/// [`analyze_fabric`] with an explicit iteration cap, so tests can reach
/// the non-convergence path.
fn analyze_capped(
    topo: &ClusteredBuses,
    matrix: &RequestMatrix,
    rate: f64,
    failed_links: &[LinkId],
    max_iterations: usize,
) -> Result<FabricAnalysis, FabricError> {
    if matrix.processors() != topo.processors() {
        return Err(FabricError::DimensionMismatch {
            what: "processors",
            fabric: topo.processors(),
            workload: matrix.processors(),
        });
    }
    if matrix.memories() != topo.memories() {
        return Err(FabricError::DimensionMismatch {
            what: "memories",
            fabric: topo.memories(),
            workload: matrix.memories(),
        });
    }
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(FabricError::BadRate { rate });
    }

    let decomposition = Decomposition::new(topo, matrix, rate, failed_links)?;
    let (n, m, leaves) = (topo.processors(), topo.memories(), topo.leaves());
    let links = topo.links();
    let nlinks = links.len();

    // Damped fixed point on the acceptance vector.
    let mut alpha: Vec<f64> = (0..nlinks)
        .map(|k| if decomposition.failed[k] { 0.0 } else { 1.0 })
        .collect();
    let mut iterations = 0;
    let residual = loop {
        iterations += 1;
        let next = decomposition.step(&alpha)?;
        let delta = max_step(&alpha, &next);
        if delta < TOLERANCE {
            // Land on the un-damped image so a converged vector is an
            // actual fixed point of the map, not half a step short.
            alpha = next;
            break delta;
        }
        if iterations == max_iterations {
            // `alpha` is not a fixed point: evaluating it would give a
            // plausible number the model does not support.
            return Err(FabricError::NoConvergence {
                iterations,
                residual: delta,
            });
        }
        for (a, &n) in alpha.iter_mut().zip(&next) {
            *a += DAMPING * (n - *a);
        }
    };
    check::assert_probabilities("fabric link acceptance", &alpha);

    // Final evaluation pass under the converged acceptance vector.
    let pre_final = decomposition.final_prefixes(&alpha);
    let u = decomposition.arrival_probabilities(&pre_final);
    check::assert_probabilities("fabric per-memory arrival probability", &u);
    let terms = decomposition.offered_terms(&alpha, &u);
    let mut link_loads = Vec::with_capacity(nlinks);
    for (k, terms) in terms.iter().enumerate() {
        let offered: f64 = terms.iter().sum();
        let carried = if decomposition.failed[k] || offered <= f64::EPSILON {
            0.0
        } else {
            let pb = PoissonBinomial::new(terms).map_err(|err| FabricError::BadFabric {
                reason: format!("offered stream is not a probability: {err}"),
            })?;
            pb.expected_min_with(links[k].width)
        };
        let acceptance = if decomposition.failed[k] {
            0.0
        } else if offered <= f64::EPSILON {
            1.0
        } else {
            (carried / offered).clamp(0.0, 1.0)
        };
        link_loads.push(LinkLoad {
            offered,
            carried,
            acceptance,
            utilization: carried / links[k].width as f64,
        });
    }

    // Delivered rates: the stage-1 winner for memory `j` exists with
    // probability u_j and survives stage 2 with its local link's
    // acceptance; processor shares split each memory's deliveries
    // proportionally to the thinned per-processor arrival rates.
    let mut memory_service = vec![0.0; m];
    let mut arrivals = vec![0.0; m];
    for j in 0..m {
        let local = topo.local_link(decomposition.mem_leaf[j]);
        memory_service[j] = u[j] * alpha[local];
    }
    for p in 0..n {
        let src = decomposition.proc_leaf[p];
        for j in 0..m {
            arrivals[j] += decomposition.bprob[p * m + j]
                * pre_final[src * leaves + decomposition.mem_leaf[j]];
        }
    }
    let mut processor_service = vec![0.0; n];
    let mut hops_weighted = 0.0;
    for (p, service) in processor_service.iter_mut().enumerate() {
        let src = decomposition.proc_leaf[p];
        for j in 0..m {
            if arrivals[j] <= 0.0 {
                continue;
            }
            let dst = decomposition.mem_leaf[j];
            let share = decomposition.bprob[p * m + j] * pre_final[src * leaves + dst]
                / arrivals[j]
                * memory_service[j];
            *service += share;
            hops_weighted += share * topo.leaf_route(src, dst).len() as f64;
        }
    }
    let mut cluster_bandwidth = vec![0.0; leaves];
    for j in 0..m {
        cluster_bandwidth[decomposition.mem_leaf[j]] += memory_service[j];
    }
    let bandwidth: f64 = memory_service.iter().sum();
    let mut unreachable_rate = 0.0;
    for p in 0..n {
        let src = decomposition.proc_leaf[p];
        for dst in 0..leaves {
            if !decomposition.route_alive[src * leaves + dst] {
                unreachable_rate += decomposition.cross[p * leaves + dst];
            }
        }
    }
    let offered_load = n as f64 * rate;
    let acceptance = if offered_load > 0.0 {
        bandwidth / offered_load
    } else {
        1.0
    };
    check::assert_probability("fabric acceptance probability", acceptance);
    check::assert_bandwidth_bounds(
        bandwidth,
        leaves * topo.local_buses(),
        topo.processors(),
        topo.memories(),
    );

    Ok(FabricAnalysis {
        bandwidth,
        offered_load,
        acceptance,
        unreachable_rate,
        links: link_loads,
        cluster_bandwidth,
        memory_service,
        processor_service,
        mean_hops: if bandwidth > 0.0 {
            hops_weighted / bandwidth
        } else {
            0.0
        },
        iterations,
        residual,
    })
}

/// Largest per-link change between two acceptance vectors.
fn max_step(alpha: &[f64], next: &[f64]) -> f64 {
    alpha
        .iter()
        .zip(next)
        .fold(0.0f64, |delta, (&a, &n)| delta.max((n - a).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality_shares;
    use mbus_workload::{HierarchicalModel, Hierarchy, RequestModel};

    fn workload(topo: &ClusteredBuses, locality: f64) -> RequestMatrix {
        let shares = locality_shares(topo.depth(), locality);
        HierarchicalModel::with_aggregate_shares(topo.hierarchy().clone(), &shares)
            .unwrap()
            .matrix()
    }

    #[test]
    fn depth_one_collapses_to_the_paper_closed_form() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[16]).unwrap(), 6, 1).unwrap();
        let matrix = workload(&topo, 0.4);
        for rate in [0.2, 0.5, 1.0] {
            let fabric = analyze_fabric(&topo, &matrix, rate, &[]).unwrap();
            let flat =
                mbus_analysis::bandwidth::analyze(&topo.flatten().unwrap(), &matrix, rate).unwrap();
            assert!(
                (fabric.bandwidth - flat.bandwidth).abs() < 1e-9,
                "r={rate}: {} vs {}",
                fabric.bandwidth,
                flat.bandwidth
            );
            assert!((fabric.acceptance - flat.acceptance).abs() < 1e-9);
            assert_eq!(fabric.links.len(), 1);
            assert!((fabric.mean_hops - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn purely_local_traffic_decomposes_into_independent_clusters() {
        // locality 1 sends every request to the processor's own paired
        // memory: each leaf is an isolated M=4, B=2 Full network with
        // homogeneous X = r, so the fabric total is `leaves × eq (4)`.
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        let matrix = workload(&topo, 1.0);
        let rate = 0.7;
        let analysis = analyze_fabric(&topo, &matrix, rate, &[]).unwrap();
        let per_cluster = mbus_analysis::paper::eq4_full_bandwidth(4, 2, rate).unwrap();
        assert!(
            (analysis.bandwidth - 4.0 * per_cluster).abs() < 1e-9,
            "{} vs {}",
            analysis.bandwidth,
            4.0 * per_cluster
        );
        for (link, load) in analysis.links.iter().enumerate().skip(topo.leaves()) {
            assert_eq!(load.offered, 0.0, "uplink {link} offered local traffic");
        }
    }

    #[test]
    fn uplink_failure_kills_exactly_the_unreachable_flows() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        // Pure-remote traffic: every request crosses the root.
        let matrix = workload(&topo, 0.0);
        // Fail leaf 1's uplink (links: 4 local groups, then 4 uplinks).
        let failed = [topo.leaves() + 1];
        let analysis = analyze_fabric(&topo, &matrix, 0.6, &failed).unwrap();
        // Nothing can reach cluster 1's memories, and cluster 1's
        // processors can reach nothing.
        assert_eq!(analysis.cluster_bandwidth[1], 0.0);
        for p in 4..8 {
            assert_eq!(analysis.processor_service[p], 0.0);
        }
        assert!(analysis.unreachable_rate > 0.0);
        assert_eq!(analysis.links[5].acceptance, 0.0);
        // The surviving clusters still move traffic.
        assert!(analysis.cluster_bandwidth[0] > 0.0);
    }

    #[test]
    fn acceptance_falls_as_locality_drops() {
        // Remote traffic crosses narrow uplinks, so pushing traffic
        // outward can only lose bandwidth.
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        let mut last = f64::INFINITY;
        for locality in [0.9, 0.6, 0.3, 0.0] {
            let analysis = analyze_fabric(&topo, &workload(&topo, locality), 0.8, &[]).unwrap();
            assert!(
                analysis.bandwidth <= last + 1e-9,
                "locality {locality} raised bandwidth: {} > {last}",
                analysis.bandwidth
            );
            last = analysis.bandwidth;
        }
    }

    #[test]
    fn conservation_and_ranges_hold_across_depths() {
        for (ks, buses, uplink) in [
            (vec![4usize, 4], 2usize, 1usize),
            (vec![2, 2, 2], 1, 1),
            (vec![3, 2, 2], 2, 2),
        ] {
            let topo = ClusteredBuses::new(Hierarchy::paired(&ks).unwrap(), buses, uplink).unwrap();
            let matrix = workload(&topo, 0.5);
            let analysis = analyze_fabric(&topo, &matrix, 0.9, &[]).unwrap();
            let mem_sum: f64 = analysis.memory_service.iter().sum();
            let proc_sum: f64 = analysis.processor_service.iter().sum();
            let cluster_sum: f64 = analysis.cluster_bandwidth.iter().sum();
            assert!((mem_sum - analysis.bandwidth).abs() < 1e-9);
            assert!((proc_sum - analysis.bandwidth).abs() < 1e-9);
            assert!((cluster_sum - analysis.bandwidth).abs() < 1e-9);
            assert!(analysis.mean_hops >= 1.0);
            assert!(analysis.iterations >= 1 && analysis.iterations <= 200);
            for load in &analysis.links {
                assert!(load.carried <= load.offered + 1e-12);
                assert!((0.0..=1.0).contains(&load.acceptance));
            }
        }
    }

    #[test]
    fn an_unconverged_fixed_point_is_an_error_not_a_result() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        let matrix = workload(&topo, 0.2);
        let converged = analyze_fabric(&topo, &matrix, 0.9, &[]).unwrap();
        assert!(converged.iterations > 2);
        assert!(converged.residual < TOLERANCE);
        // The same query one iteration short of convergence.
        let capped = converged.iterations - 1;
        match analyze_capped(&topo, &matrix, 0.9, &[], capped) {
            Err(FabricError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, capped);
                assert!(residual >= TOLERANCE && residual.is_finite());
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        // A cap the run fits under changes nothing.
        let exact_cap = analyze_capped(&topo, &matrix, 0.9, &[], converged.iterations);
        assert_eq!(exact_cap.unwrap(), converged);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        let matrix = workload(&topo, 0.5);
        assert!(matches!(
            analyze_fabric(&topo, &matrix, 1.5, &[]),
            Err(FabricError::BadRate { .. })
        ));
        assert!(matches!(
            analyze_fabric(&topo, &matrix, 0.5, &[99]),
            Err(FabricError::BadFabric { .. })
        ));
        let other = ClusteredBuses::new(Hierarchy::paired(&[8]).unwrap(), 2, 1).unwrap();
        assert!(matches!(
            analyze_fabric(&other, &matrix, 0.5, &[]),
            Err(FabricError::DimensionMismatch { .. })
        ));
    }
}
