//! Exact steady-state analysis of **resubmission** semantics via a Markov
//! chain.
//!
//! The paper's assumption 5 drops blocked requests so that cycles are
//! independent; the contemporaneous Markov-model literature it cites
//! (Marsan & Gerla \[11\], Mudge & Al-Sadoun \[12\]) instead lets blocked
//! requests *resubmit*. This module builds that chain exactly for small
//! full-connection (or crossbar) systems:
//!
//! * **state** — the vector of pending destinations (one optional memory
//!   per processor), `(M+1)^N` states;
//! * **transition** — free processors draw fresh requests from the request
//!   matrix; per-memory arbiters pick winners uniformly; an idealized
//!   *random* B-of-D bus arbiter serves a uniform `min(D, B)`-subset of the
//!   requested memories (the simulator's round-robin arbiter matches this
//!   in distribution by symmetry, which the tests verify);
//! * **outputs** — steady-state throughput, mean queue, and mean waiting
//!   age via Little's law, directly comparable to
//!   [`mbus_sim`](https://docs.rs/mbus-sim)'s resubmission reports.

use crate::{memo, ExactError};
use mbus_stats::prob::{check, choose};
use mbus_topology::{BusNetwork, SchemeKind};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Upper bound on `(M+1)^N` for the chain to be built.
pub(crate) const MAX_STATES: usize = 20_000;

/// Power-step cap of the chain. A chain that reaches it unconverged is
/// [`ExactError::NoConvergence`], never a result.
const MAX_POWER_STEPS: usize = 20_000;

/// Power iteration stops once one step moves `π` by less than this
/// (`Σ|Δπ|`).
const TOLERANCE: f64 = 1e-13;

/// Steady-state quantities of the resubmission chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResubmissionSteadyState {
    /// Number of states in the chain.
    pub(crate) states: usize,
    /// Expected requests served per cycle (throughput).
    pub throughput: f64,
    /// Expected processors holding a blocked request at a cycle start.
    pub(crate) mean_pending: f64,
    /// Expected requesting processors per cycle (pending + fresh).
    pub(crate) mean_active: f64,
    /// Mean *waiting age* at completion, in cycles (0 = served in its issue
    /// cycle) — the same convention as the simulator's `mean_wait`.
    pub mean_wait: f64,
    /// Power steps until the stationary distribution converged.
    pub(crate) iterations: usize,
    /// `Σ|Δπ|` of the last power step (below the convergence tolerance).
    pub(crate) residual: f64,
}

/// A stationary distribution found by [`power_iterate`].
struct Stationary {
    pi: Vec<f64>,
    iterations: usize,
    residual: f64,
}

/// Stationary distribution of the chain with sparse transition rows
/// `rows[s][t] = P(s → t)`, by power iteration from the uniform
/// distribution: converged once a step moves `π` by less than the
/// tolerance, [`ExactError::NoConvergence`] if `max_steps` steps do not.
fn power_iterate(rows: &[HashMap<usize, f64>], max_steps: usize) -> Result<Stationary, ExactError> {
    let state_count = rows.len();
    let mut pi = vec![1.0 / state_count as f64; state_count];
    let mut next = vec![0.0f64; state_count];
    let mut residual = f64::INFINITY;
    for iterations in 1..=max_steps {
        next.iter_mut().for_each(|v| *v = 0.0);
        for (s, row) in rows.iter().enumerate() {
            let mass = pi[s];
            if mass == 0.0 {
                continue;
            }
            for (&t, &p) in row {
                next[t] += mass * p;
            }
        }
        residual = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if residual < TOLERANCE {
            return Ok(Stationary {
                pi,
                iterations,
                residual,
            });
        }
    }
    Err(ExactError::NoConvergence {
        iterations: max_steps,
        residual,
    })
}

/// Builds the resubmission Markov chain for `net` under `matrix` at rate
/// `r` and solves for its steady state by power iteration.
///
/// # Errors
///
/// * schemes other than full connection / crossbar →
///   [`ExactError::UnsupportedShape`] (the random-subset bus arbiter only
///   models those);
/// * `(M+1)^N > MAX_STATES` → [`ExactError::TooLarge`];
/// * invalid rate → [`ExactError::Analysis`];
/// * no convergence within 20 000 power steps →
///   [`ExactError::NoConvergence`].
pub fn resubmission_steady_state(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<ResubmissionSteadyState, ExactError> {
    steady_state_capped(net, matrix, r, MAX_POWER_STEPS)
}

/// [`resubmission_steady_state`] with an explicit power-step cap, so
/// tests can reach the non-convergence path.
fn steady_state_capped(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    max_steps: usize,
) -> Result<ResubmissionSteadyState, ExactError> {
    if !matches!(net.kind(), SchemeKind::Full | SchemeKind::Crossbar) {
        return Err(ExactError::UnsupportedShape {
            reason: "the Markov resubmission model covers full connection and crossbar",
        });
    }
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::InvalidRate { value: r },
        ));
    }
    let n = net.processors();
    let m = net.memories();
    if n != matrix.processors() || m != matrix.memories() {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::DimensionMismatch {
                what: "memories",
                network: m,
                workload: matrix.memories(),
            },
        ));
    }
    let radix = m + 1;
    let state_count = radix
        .checked_pow(n as u32)
        .filter(|&s| s <= MAX_STATES)
        .ok_or(ExactError::TooLarge {
            memories: m,
            limit: MAX_STATES,
        })?;
    let capacity = net.capacity();
    // Shared (memoized) served-set table: the chain state bound keeps M
    // tiny in practice, but an N = 1 network can have
    // M > MAX_TABLE_MEMORIES, so fall back to the closed form (exact for
    // full/crossbar) when it doesn't fit.
    let served_table = memo::served_table(net).ok();

    // Encode state: digit p = 0 for "no pending", j+1 for "pending on j".
    let decode = |mut s: usize| -> Vec<Option<usize>> {
        (0..n)
            .map(|_| {
                let digit = s % radix;
                s /= radix;
                if digit == 0 {
                    None
                } else {
                    Some(digit - 1)
                }
            })
            .collect()
    };
    let encode = |pending: &[Option<usize>]| -> usize {
        pending
            .iter()
            .rev()
            .fold(0usize, |acc, p| acc * radix + p.map_or(0, |j| j + 1))
    };

    // Build transition rows lazily: row[s] = (served_expectation,
    // map next_state -> prob).
    let mut rows: Vec<HashMap<usize, f64>> = Vec::with_capacity(state_count);
    let mut served_expectation = vec![0.0f64; state_count];

    #[allow(clippy::needless_range_loop)] // s is a state id fed to decode()
    for s in 0..state_count {
        let pending = decode(s);
        let mut row: HashMap<usize, f64> = HashMap::new();

        // Enumerate fresh draws of the free processors recursively.
        // destinations[p] holds each processor's request this cycle.
        let mut destinations: Vec<Option<usize>> = pending.clone();
        enumerate_draws(
            &mut destinations,
            &pending,
            0,
            1.0,
            r,
            matrix,
            &mut |destinations, prob| {
                // Requesters per memory.
                let mut requesters: Vec<Vec<usize>> = vec![Vec::new(); m];
                for (p, d) in destinations.iter().enumerate() {
                    if let Some(j) = *d {
                        requesters[j].push(p);
                    }
                }
                let requested: Vec<usize> = (0..m).filter(|&j| !requesters[j].is_empty()).collect();
                let d_count = requested.len();
                let served_count = match &served_table {
                    Some(table) => {
                        let mask = requested.iter().fold(0u64, |acc, &j| acc | (1 << j));
                        table.served(mask)
                    }
                    None => d_count.min(capacity),
                };
                served_expectation[s] += prob * served_count as f64;
                // Enumerate served subsets uniformly.
                let subsets = subsets_of_size(&requested, served_count);
                let subset_prob = prob / subsets.len() as f64;
                for served in &subsets {
                    // Enumerate winner choices per served memory.
                    enumerate_winners(
                        served,
                        &requesters,
                        0,
                        subset_prob,
                        &mut Vec::new(),
                        &mut |winners, p_total| {
                            // Next pending: every requester not a winner.
                            let mut next: Vec<Option<usize>> = vec![None; n];
                            for (p, d) in destinations.iter().enumerate() {
                                if let Some(j) = *d {
                                    if !winners.contains(&(j, p)) {
                                        next[p] = Some(j);
                                    }
                                }
                            }
                            *row.entry(encode(&next)).or_insert(0.0) += p_total;
                        },
                    );
                }
            },
        );
        rows.push(row);
    }

    let Stationary {
        pi,
        iterations,
        residual,
    } = power_iterate(&rows, max_steps)?;
    check::assert_distribution_sums_to_one("stationary distribution pi", &pi);
    let throughput: f64 = pi
        .iter()
        .zip(&served_expectation)
        .map(|(&p, &e)| p * e)
        .sum();
    check::assert_bandwidth_bounds(throughput, capacity, n, m);
    let mean_pending: f64 = pi
        .iter()
        .enumerate()
        .map(|(s, &p)| p * decode(s).iter().filter(|d| d.is_some()).count() as f64)
        .sum();
    // Fresh issues per cycle: free processors each issue w.p. r.
    let mean_fresh: f64 = pi
        .iter()
        .enumerate()
        .map(|(s, &p)| {
            let free = n - decode(s).iter().filter(|d| d.is_some()).count();
            p * free as f64 * r
        })
        .sum();
    let mean_active = mean_pending + mean_fresh;
    // Little's law: time in system = active / throughput cycles; the
    // simulator's wait convention excludes the service cycle itself.
    let mean_wait = if throughput > 0.0 {
        mean_active / throughput - 1.0
    } else {
        0.0
    };
    Ok(ResubmissionSteadyState {
        states: state_count,
        throughput,
        mean_pending,
        mean_active,
        mean_wait: mean_wait.max(0.0),
        iterations,
        residual,
    })
}

/// Recursively enumerates fresh request draws for free processors.
fn enumerate_draws(
    destinations: &mut Vec<Option<usize>>,
    pending: &[Option<usize>],
    p: usize,
    prob: f64,
    r: f64,
    matrix: &RequestMatrix,
    visit: &mut impl FnMut(&Vec<Option<usize>>, f64),
) {
    if prob == 0.0 {
        return;
    }
    if p == pending.len() {
        visit(destinations, prob);
        return;
    }
    if pending[p].is_some() {
        // Resubmitted request: destination already fixed.
        enumerate_draws(destinations, pending, p + 1, prob, r, matrix, visit);
        return;
    }
    // Idle this cycle.
    destinations[p] = None;
    enumerate_draws(
        destinations,
        pending,
        p + 1,
        prob * (1.0 - r),
        r,
        matrix,
        visit,
    );
    // Fresh request to memory j.
    if r > 0.0 {
        for j in 0..matrix.memories() {
            let pj = matrix.prob(p, j);
            if pj > 0.0 {
                destinations[p] = Some(j);
                enumerate_draws(
                    destinations,
                    pending,
                    p + 1,
                    prob * r * pj,
                    r,
                    matrix,
                    visit,
                );
            }
        }
    }
    destinations[p] = None;
}

/// All `size`-subsets of `items`.
fn subsets_of_size(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    debug_assert!(choose(items.len() as u64, size as u64).is_some());
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn recurse(
        items: &[usize],
        start: usize,
        size: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            recurse(items, i + 1, size, current, out);
            current.pop();
        }
    }
    recurse(items, 0, size, &mut current, &mut out);
    out
}

/// Recursively enumerates stage-1 winner choices over the served memories,
/// yielding `(memory, winner)` pair lists with their probability.
fn enumerate_winners(
    served: &[usize],
    requesters: &[Vec<usize>],
    idx: usize,
    prob: f64,
    winners: &mut Vec<(usize, usize)>,
    visit: &mut impl FnMut(&Vec<(usize, usize)>, f64),
) {
    if idx == served.len() {
        visit(winners, prob);
        return;
    }
    let memory = served[idx];
    let list = &requesters[memory];
    let share = prob / list.len() as f64;
    for &p in list {
        winners.push((memory, p));
        enumerate_winners(served, requesters, idx + 1, share, winners, visit);
        winners.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    #[test]
    fn an_unconverged_chain_is_an_error_not_a_result() {
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        let converged = resubmission_steady_state(&net, &matrix, 0.8).unwrap();
        assert!(converged.iterations > 2);
        assert!(converged.residual < TOLERANCE);
        // The same chain one power step short of convergence.
        let capped = converged.iterations - 1;
        match steady_state_capped(&net, &matrix, 0.8, capped) {
            Err(ExactError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, capped);
                assert!(residual >= TOLERANCE && residual.is_finite());
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        // A cap the run fits under changes nothing.
        let exact_cap = steady_state_capped(&net, &matrix, 0.8, converged.iterations);
        assert_eq!(exact_cap.unwrap(), converged);
    }

    #[test]
    fn disjoint_favorites_single_bus_hand_check() {
        // Two processors always requesting two distinct memories over one
        // bus: each cycle both are active, one is served. Throughput 1,
        // active 2, wait = 2/1 − 1 = 1 cycle.
        let matrix = RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        let ss = resubmission_steady_state(&net, &matrix, 1.0).unwrap();
        assert!((ss.throughput - 1.0).abs() < 1e-9);
        assert!((ss.mean_active - 2.0).abs() < 1e-9);
        assert!((ss.mean_wait - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crossbar_never_queues() {
        // Crossbar with distinct favorites: everyone served immediately.
        let matrix = RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Crossbar).unwrap();
        let ss = resubmission_steady_state(&net, &matrix, 1.0).unwrap();
        assert!((ss.throughput - 2.0).abs() < 1e-9);
        assert!(ss.mean_pending < 1e-9);
        assert!(ss.mean_wait < 1e-9);
    }

    #[test]
    fn light_load_matches_drop_semantics() {
        // At low rate the queue is empty almost always, so throughput equals
        // the offered load.
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let net = BusNetwork::new(3, 3, 2, ConnectionScheme::Full).unwrap();
        let ss = resubmission_steady_state(&net, &matrix, 0.05).unwrap();
        assert!((ss.throughput - 3.0 * 0.05).abs() < 1e-3);
        assert!(ss.mean_wait < 0.05);
    }

    #[test]
    fn chain_matches_simulator() {
        let uniform = UniformModel::new(3, 3).unwrap().matrix();
        // (M+1)^N = 625 states, under MAX_STATES.
        let hierarchical = HierarchicalModel::two_level_paired(4, 2, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let cases = [
            ("3x3x1 full", (3, 1, ConnectionScheme::Full), &uniform),
            ("3x3x2 full", (3, 2, ConnectionScheme::Full), &uniform),
            ("3x3 crossbar", (3, 1, ConnectionScheme::Crossbar), &uniform),
            ("4x4x2 hier", (4, 2, ConnectionScheme::Full), &hierarchical),
        ];
        for (name, (n, b, scheme), matrix) in cases {
            let net = BusNetwork::new(n, n, b, scheme).unwrap();
            let ss = resubmission_steady_state(&net, matrix, 0.8).unwrap();
            let mut sim = mbus_sim::Simulator::build(&net, matrix, 0.8).unwrap();
            let report = sim
                .run(
                    &mbus_sim::SimConfig::new(400_000)
                        .with_warmup(20_000)
                        .with_seed(31)
                        .with_resubmission(true),
                )
                .unwrap();
            assert!(
                (report.bandwidth.mean() - ss.throughput).abs() < 0.01,
                "{name}: sim {} vs chain {}",
                report.bandwidth,
                ss.throughput
            );
            assert!(
                (report.mean_wait - ss.mean_wait).abs() < 0.05,
                "{name}: sim wait {} vs chain {}",
                report.mean_wait,
                ss.mean_wait
            );
        }
    }

    #[test]
    fn saturation_throughput_equals_buses() {
        // r = 1 with plenty of contention: the bus is always busy.
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        let ss = resubmission_steady_state(&net, &matrix, 1.0).unwrap();
        assert!((ss.throughput - 1.0).abs() < 1e-9);
        assert!(ss.mean_wait > 0.5);
    }

    #[test]
    fn shape_and_size_guards() {
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let single =
            BusNetwork::new(3, 3, 2, ConnectionScheme::balanced_single(3, 2).unwrap()).unwrap();
        assert!(matches!(
            resubmission_steady_state(&single, &matrix, 1.0),
            Err(ExactError::UnsupportedShape { .. })
        ));
        let big_matrix = UniformModel::new(8, 8).unwrap().matrix();
        let big = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            resubmission_steady_state(&big, &big_matrix, 1.0),
            Err(ExactError::TooLarge { .. })
        ));
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        assert!(resubmission_steady_state(&net, &matrix, 1.5).is_err());
    }
}
