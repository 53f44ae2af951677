//! Symmetry-**lumped** exact resubmission chain.
//!
//! The unlumped chain in [`crate::markov`] tracks *which* processor holds
//! *which* pending request — `(M+1)^N` states, confining it to toy systems
//! (N ≤ 3 at M = 8 under its `MAX_STATES` budget). But the hierarchical
//! requesting model (paper eq (1)) makes processors within a cluster
//! exchangeable, and when **all** rows are identical the chain's dynamics
//! are equivariant under every processor permutation: the per-memory
//! pending **counts** `(c_1, …, c_M)` form an exactly lumped chain
//! (Kemeny–Snell lumpability — every state of an orbit has the same
//! aggregate transition probability into each other orbit). Winner
//! identities integrate out: a served memory with `t` requesters simply
//! drops to `t − 1` pending.
//!
//! Two lumping tiers, picked automatically:
//!
//! * **processor-lumped** (identical rows, labeled memories): states are
//!   count vectors, at most `C(N+M, M)` and usually far fewer reachable;
//! * **orbit-lumped** (uniform rows, `q_j = 1/M`): the chain is *also*
//!   equivariant under memory permutations (full/crossbar arbiters are
//!   memory-symmetric), so states collapse to sorted count multisets —
//!   partitions — reaching `N = 16, M = 8` in under a thousand states
//!   where the unlumped chain needs `9^16 ≈ 1.8·10^15`.
//!
//! Transition weights are multinomial (fresh draws: idle `1 − r`, memory
//! `j` w.p. `r·q_j`) times multivariate-hypergeometric service splits
//! (`Π_t C(d_t, s_t) / C(D, S)` for a uniform `S = min(D, B)`-subset of
//! the `D` requested memories), mirroring eq (2)'s request model and the
//! same idealized bus arbiter as the unlumped chain. Outputs are
//! validated against [`crate::markov`] wherever both fit (see
//! `tests/differential.rs`).

use crate::markov::{
    power_iterate, subsets_of_size, ResubmissionSteadyState, Stationary, MAX_POWER_STEPS,
    MAX_STATES,
};
use crate::ExactError;
use mbus_stats::prob::{check, choose_f64};
use mbus_topology::{BusNetwork, SchemeKind};
use mbus_workload::RequestMatrix;
use std::collections::{BTreeMap, HashMap};

/// A lumped state: per-memory pending counts (sorted descending in orbit
/// mode). Successor rows are `BTreeMap`s keyed by it, so states are
/// numbered in a fixed order.
type State = Vec<u16>;

/// Sparse chain: transition row, expected service, and pending total per
/// state.
struct Chain {
    rows: Vec<HashMap<usize, f64>>,
    served: Vec<f64>,
    pending: Vec<usize>,
}

/// Exact steady state of the resubmission chain for exchangeable
/// processors, by symmetry lumping — same semantics and outputs as
/// [`crate::markov::resubmission_steady_state`], reachable for systems
/// orders of magnitude beyond the unlumped `(M+1)^N` bound.
///
/// # Errors
///
/// * schemes other than full connection / crossbar →
///   [`ExactError::UnsupportedShape`];
/// * non-identical workload rows (processors not exchangeable) →
///   [`ExactError::UnsupportedShape`];
/// * more than [`MAX_STATES`] reachable lumped states →
///   [`ExactError::TooLarge`];
/// * invalid rate / dimensions → [`ExactError::Analysis`];
/// * no convergence within 20 000 power steps →
///   [`ExactError::NoConvergence`].
pub fn lumped_steady_state(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<ResubmissionSteadyState, ExactError> {
    lumped_steady_state_capped(net, matrix, r, MAX_POWER_STEPS)
}

/// [`lumped_steady_state`] with an explicit power-step cap, so tests can
/// reach the non-convergence path.
fn lumped_steady_state_capped(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    max_steps: usize,
) -> Result<ResubmissionSteadyState, ExactError> {
    if !matches!(net.kind(), SchemeKind::Full | SchemeKind::Crossbar) {
        return Err(ExactError::UnsupportedShape {
            reason: "the lumped resubmission model covers full connection and crossbar",
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
    let groups = matrix.groups();
    if groups.len() != 1 {
        return Err(ExactError::UnsupportedShape {
            reason: "the lumped chain needs exchangeable processors: all workload rows identical",
        });
    }
    let row = matrix.row(0);
    // Uniform rows add memory-exchangeability: lump over memory
    // permutations too (exact fp equality; the uniform generator emits
    // identical 1/M entries).
    let orbit = m > 1 && row.iter().all(|&q| q.to_bits() == row[0].to_bits());
    let chain = if orbit {
        build_orbit_chain(net, n, m, r)?
    } else {
        build_labeled_chain(net, n, row, r)?
    };
    solve_steady_state(net, n, m, r, chain, max_steps)
}

/// Interns `state`, growing the reachable set; errs past the state budget.
fn intern(
    index: &mut HashMap<State, usize>,
    states: &mut Vec<State>,
    state: State,
    m: usize,
) -> Result<usize, ExactError> {
    if let Some(&id) = index.get(&state) {
        return Ok(id);
    }
    let id = states.len();
    if id >= MAX_STATES {
        return Err(ExactError::TooLarge {
            memories: m,
            limit: MAX_STATES,
        });
    }
    index.insert(state.clone(), id);
    states.push(state);
    Ok(id)
}

/// Processor-lumped chain over labeled per-memory pending counts.
fn build_labeled_chain(
    net: &BusNetwork,
    n: usize,
    q: &[f64],
    r: f64,
) -> Result<Chain, ExactError> {
    let m = q.len();
    let capacity = net.capacity();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    intern(&mut index, &mut states, vec![0u16; m], m)?;

    let mut rows: Vec<HashMap<usize, f64>> = Vec::new();
    let mut served = Vec::new();
    let mut pending = Vec::new();
    let mut s = 0;
    while s < states.len() {
        let state = states[s].clone();
        let pending_count: usize = state.iter().map(|&c| usize::from(c)).sum();
        let free = n - pending_count;
        let mut served_exp = 0.0;
        let mut out: BTreeMap<State, f64> = BTreeMap::new();
        let mut arrivals = vec![0u16; m];
        labeled_arrivals(
            0,
            free,
            1.0,
            r,
            q,
            &state,
            &mut arrivals,
            capacity,
            &mut served_exp,
            &mut out,
        );
        rows.push(index_row(&mut index, &mut states, out, m)?);
        served.push(served_exp);
        pending.push(pending_count);
        s += 1;
    }
    Ok(Chain {
        rows,
        served,
        pending,
    })
}

/// DFS over per-memory fresh-arrival counts: memory `j` receives `a_j`
/// fresh requests with multinomial weight `Π_j C(rem_j, a_j)·(r·q_j)^{a_j}
/// · (1 − r)^{idle}` (the telescoping-binomial form of eq (2)'s
/// independent draws).
#[allow(clippy::too_many_arguments)] // flat DFS state beats a one-off struct here
fn labeled_arrivals(
    j: usize,
    rem: usize,
    weight: f64,
    r: f64,
    q: &[f64],
    state: &[u16],
    arrivals: &mut Vec<u16>,
    capacity: usize,
    served_exp: &mut f64,
    out: &mut BTreeMap<State, f64>,
) {
    if weight == 0.0 {
        return;
    }
    if j == q.len() {
        let idle_weight = weight * (1.0 - r).powi(i32::try_from(rem).unwrap_or(i32::MAX));
        labeled_outcome(state, arrivals, idle_weight, capacity, served_exp, out);
        return;
    }
    let p_j = r * q[j];
    for a in 0..=rem {
        let w = weight
            * choose_f64(rem as u64, a as u64)
            * p_j.powi(i32::try_from(a).unwrap_or(i32::MAX));
        if w == 0.0 && a > 0 {
            break;
        }
        arrivals[j] = a as u16;
        labeled_arrivals(
            j + 1,
            rem - a,
            w,
            r,
            q,
            state,
            arrivals,
            capacity,
            served_exp,
            out,
        );
    }
    arrivals[j] = 0;
}

/// Service stage for one labeled arrival outcome: a uniform
/// `min(D, B)`-subset of the requested memories is served; each served
/// memory's count drops by one.
fn labeled_outcome(
    state: &[u16],
    arrivals: &[u16],
    weight: f64,
    capacity: usize,
    served_exp: &mut f64,
    out: &mut BTreeMap<State, f64>,
) {
    if weight == 0.0 {
        return;
    }
    let totals: Vec<u16> = state.iter().zip(arrivals).map(|(&c, &a)| c + a).collect();
    let requested: Vec<usize> = (0..totals.len()).filter(|&j| totals[j] > 0).collect();
    let d = requested.len();
    let s_count = d.min(capacity);
    *served_exp += weight * s_count as f64;
    if s_count == d {
        let mut next = totals;
        for &j in &requested {
            next[j] -= 1;
        }
        *out.entry(next).or_insert(0.0) += weight;
        return;
    }
    let subsets = subsets_of_size(&requested, s_count);
    let share = weight / subsets.len() as f64;
    for subset in &subsets {
        let mut next = totals.clone();
        for &j in subset {
            next[j] -= 1;
        }
        *out.entry(next).or_insert(0.0) += share;
    }
}

/// Orbit-lumped chain over sorted pending-count multisets (uniform rows:
/// both processors and memories exchangeable).
fn build_orbit_chain(net: &BusNetwork, n: usize, m: usize, r: f64) -> Result<Chain, ExactError> {
    let capacity = net.capacity();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    intern(&mut index, &mut states, vec![0u16; m], m)?;

    let mut rows: Vec<HashMap<usize, f64>> = Vec::new();
    let mut served = Vec::new();
    let mut pending = Vec::new();
    let mut s = 0;
    while s < states.len() {
        let state = states[s].clone();
        let pending_count: usize = state.iter().map(|&c| usize::from(c)).sum();
        let free = n - pending_count;
        // Classes of memories with equal pending count (state is sorted
        // descending, so classes are contiguous runs).
        let mut classes: Vec<(u16, usize)> = Vec::new();
        for &v in &state {
            match classes.last_mut() {
                Some((value, count)) if *value == v => *count += 1,
                _ => classes.push((v, 1)),
            }
        }
        let mut served_exp = 0.0;
        let mut out: BTreeMap<State, f64> = BTreeMap::new();
        let mut arrivals: Vec<Vec<u16>> = classes.iter().map(|&(_, c)| vec![0u16; c]).collect();
        orbit_arrivals(
            0,
            free,
            1.0,
            r,
            m,
            &classes,
            &mut arrivals,
            capacity,
            &mut served_exp,
            &mut out,
        );
        rows.push(index_row(&mut index, &mut states, out, m)?);
        served.push(served_exp);
        pending.push(pending_count);
        s += 1;
    }
    Ok(Chain {
        rows,
        served,
        pending,
    })
}

/// DFS over per-class arrival *multisets* (non-increasing within a class to
/// enumerate each memory-orbit once), weighting by the multinomial labeled
/// probability times the class permutation multiplicity `m_v!/Π_a n_a!`.
#[allow(clippy::too_many_arguments)] // flat DFS state beats a one-off struct here
fn orbit_arrivals(
    ci: usize,
    rem: usize,
    weight: f64,
    r: f64,
    m: usize,
    classes: &[(u16, usize)],
    arrivals: &mut [Vec<u16>],
    capacity: usize,
    served_exp: &mut f64,
    out: &mut BTreeMap<State, f64>,
) {
    if weight == 0.0 {
        return;
    }
    if ci == classes.len() {
        let idle_weight = weight * (1.0 - r).powi(i32::try_from(rem).unwrap_or(i32::MAX));
        orbit_outcome(classes, arrivals, idle_weight, capacity, served_exp, out);
        return;
    }
    let class_size = classes[ci].1;
    orbit_class_member(
        ci, 0, usize::MAX, rem, weight, r, m, classes, arrivals, capacity, served_exp, out,
    );
    // Reset this class's scratch (callee leaves last assignment behind).
    for a in arrivals[ci].iter_mut().take(class_size) {
        *a = 0;
    }
}

/// Assigns arrival counts to the members of class `ci` in non-increasing
/// order, then recurses into the next class with the permutation factor
/// applied.
#[allow(clippy::too_many_arguments)] // flat DFS state beats a one-off struct here
fn orbit_class_member(
    ci: usize,
    k: usize,
    prev: usize,
    rem: usize,
    weight: f64,
    r: f64,
    m: usize,
    classes: &[(u16, usize)],
    arrivals: &mut [Vec<u16>],
    capacity: usize,
    served_exp: &mut f64,
    out: &mut BTreeMap<State, f64>,
) {
    let class_size = classes[ci].1;
    if k == class_size {
        // Multiplicity: how many labeled assignments within the class share
        // this multiset — `class_size! / Π_a (run of a)!`, as a product of
        // binomials over the runs.
        let mut perm = 1.0;
        let mut left = class_size;
        let mut run = 0usize;
        for i in 0..class_size {
            run += 1;
            let next_differs = i + 1 == class_size || arrivals[ci][i + 1] != arrivals[ci][i];
            if next_differs {
                perm *= choose_f64(left as u64, run as u64);
                left -= run;
                run = 0;
            }
        }
        orbit_arrivals(
            ci + 1,
            rem,
            weight * perm,
            r,
            m,
            classes,
            arrivals,
            capacity,
            served_exp,
            out,
        );
        return;
    }
    let p_j = r / m as f64;
    for a in 0..=prev.min(rem) {
        let w = weight
            * choose_f64(rem as u64, a as u64)
            * p_j.powi(i32::try_from(a).unwrap_or(i32::MAX));
        if w == 0.0 && a > 0 {
            break;
        }
        arrivals[ci][k] = a as u16;
        orbit_class_member(
            ci,
            k + 1,
            a,
            rem - a,
            w,
            r,
            m,
            classes,
            arrivals,
            capacity,
            served_exp,
            out,
        );
    }
}

/// Service stage for one orbit arrival outcome: totals are histogrammed by
/// value, and the uniform `S`-subset splits multivariate-hypergeometrically
/// across equal-total classes (`Π_t C(d_t, s_t) / C(D, S)`).
fn orbit_outcome(
    classes: &[(u16, usize)],
    arrivals: &[Vec<u16>],
    weight: f64,
    capacity: usize,
    served_exp: &mut f64,
    out: &mut BTreeMap<State, f64>,
) {
    if weight == 0.0 {
        return;
    }
    // Histogram of post-arrival totals t -> d_t (t > 0 only), plus zeros.
    let mut histogram: BTreeMap<u16, usize> = BTreeMap::new();
    let mut zeros = 0usize;
    for (&(v, _), class_arrivals) in classes.iter().zip(arrivals) {
        for &a in class_arrivals {
            let t = v + a;
            if t == 0 {
                zeros += 1;
            } else {
                *histogram.entry(t).or_insert(0) += 1;
            }
        }
    }
    let totals: Vec<(u16, usize)> = histogram.into_iter().collect();
    let d: usize = totals.iter().map(|&(_, c)| c).sum();
    let s_count = d.min(capacity);
    *served_exp += weight * s_count as f64;
    let denominator = choose_f64(d as u64, s_count as u64);
    let mut split = vec![0usize; totals.len()];
    orbit_split(
        0,
        s_count,
        weight / denominator,
        &totals,
        zeros,
        &mut split,
        out,
    );
}

/// DFS over service splits `{s_t}` with `Σ s_t = S`, `0 ≤ s_t ≤ d_t`.
fn orbit_split(
    ti: usize,
    remaining: usize,
    weight: f64,
    totals: &[(u16, usize)],
    zeros: usize,
    split: &mut Vec<usize>,
    out: &mut BTreeMap<State, f64>,
) {
    if ti == totals.len() {
        if remaining > 0 {
            return;
        }
        // Build the sorted-descending next state.
        let mut next: State = Vec::with_capacity(zeros + totals.iter().map(|&(_, c)| c).sum::<usize>());
        for (&(t, d_t), &s_t) in totals.iter().zip(split.iter()) {
            for _ in 0..s_t {
                next.push(t - 1);
            }
            for _ in 0..(d_t - s_t) {
                next.push(t);
            }
        }
        next.resize(next.len() + zeros, 0);
        next.sort_unstable_by(|a, b| b.cmp(a));
        *out.entry(next).or_insert(0.0) += weight;
        return;
    }
    let (_, d_t) = totals[ti];
    let max_here = d_t.min(remaining);
    // Feasibility: later classes must be able to absorb the rest.
    let later_capacity: usize = totals[ti + 1..].iter().map(|&(_, c)| c).sum();
    for s_t in 0..=max_here {
        if remaining - s_t > later_capacity {
            continue;
        }
        split[ti] = s_t;
        let w = weight * choose_f64(d_t as u64, s_t as u64);
        orbit_split(ti + 1, remaining - s_t, w, totals, zeros, split, out);
    }
    split[ti] = 0;
}

/// Converts a state-keyed row into an index-keyed row, interning newly
/// discovered states in ascending state order, so every build of one
/// chain numbers its states (and sums π) identically.
fn index_row(
    index: &mut HashMap<State, usize>,
    states: &mut Vec<State>,
    out: BTreeMap<State, f64>,
    m: usize,
) -> Result<HashMap<usize, f64>, ExactError> {
    debug_assert!(
        (out.values().sum::<f64>() - 1.0).abs() < 1e-9,
        "lumped transition row must be stochastic"
    );
    let mut row = HashMap::with_capacity(out.len());
    for (state, p) in out {
        let id = intern(index, states, state, m)?;
        *row.entry(id).or_insert(0.0) += p;
    }
    Ok(row)
}

/// Power iteration + Little's-law outputs, identical in form to the
/// unlumped solver.
fn solve_steady_state(
    net: &BusNetwork,
    n: usize,
    m: usize,
    r: f64,
    chain: Chain,
    max_steps: usize,
) -> Result<ResubmissionSteadyState, ExactError> {
    let state_count = chain.rows.len();
    let Stationary {
        pi,
        iterations,
        residual,
    } = power_iterate(&chain.rows, max_steps)?;
    check::assert_distribution_sums_to_one("lumped stationary distribution pi", &pi);
    let throughput: f64 = pi.iter().zip(&chain.served).map(|(&p, &e)| p * e).sum();
    check::assert_bandwidth_bounds(throughput, net.capacity(), n, m);
    let mean_pending: f64 = pi
        .iter()
        .zip(&chain.pending)
        .map(|(&p, &c)| p * c as f64)
        .sum();
    let mean_fresh: f64 = pi
        .iter()
        .zip(&chain.pending)
        .map(|(&p, &c)| p * (n - c) as f64 * r)
        .sum();
    let mean_active = mean_pending + mean_fresh;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::resubmission_steady_state;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{RequestModel, UniformModel};

    #[test]
    fn an_unconverged_lumped_chain_is_an_error_not_a_result() {
        // Non-uniform rows: the labelled (not orbit) lumping.
        let matrix = RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 4]).unwrap();
        let net = BusNetwork::new(4, 3, 2, ConnectionScheme::Full).unwrap();
        let converged = lumped_steady_state(&net, &matrix, 0.9).unwrap();
        assert!(converged.iterations > 2);
        let capped = converged.iterations / 2;
        match lumped_steady_state_capped(&net, &matrix, 0.9, capped) {
            Err(ExactError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, capped);
                assert!(residual >= crate::markov::TOLERANCE && residual.is_finite());
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        let roomy =
            lumped_steady_state_capped(&net, &matrix, 0.9, converged.iterations + 10).unwrap();
        assert!(roomy.residual < crate::markov::TOLERANCE);
        assert_eq!(roomy.throughput.to_bits(), converged.throughput.to_bits());
    }

    #[test]
    fn rebuilt_chains_are_bit_identical() {
        // The labeled tier (non-uniform rows), then the orbit tier.
        let net = BusNetwork::new(4, 3, 2, ConnectionScheme::Full).unwrap();
        let rows = [vec![vec![0.5, 0.3, 0.2]; 4], vec![vec![1.0 / 3.0; 3]; 4]];
        for matrix in rows.map(|rows| RequestMatrix::from_rows(rows).unwrap()) {
            let throughput = || lumped_steady_state(&net, &matrix, 0.9).unwrap().throughput;
            assert_eq!(throughput().to_bits(), throughput().to_bits());
        }
    }

    #[test]
    fn matches_unlumped_uniform() {
        // 3×3, B = 1, uniform: both engines fit; the orbit tier must agree.
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        for r in [0.3, 0.8, 1.0] {
            let a = resubmission_steady_state(&net, &matrix, r).unwrap();
            let b = lumped_steady_state(&net, &matrix, r).unwrap();
            assert!(
                (a.throughput - b.throughput).abs() < 1e-9,
                "r={r}: {} vs {}",
                a.throughput,
                b.throughput
            );
            assert!((a.mean_pending - b.mean_pending).abs() < 1e-9);
            assert!((a.mean_wait - b.mean_wait).abs() < 1e-9);
            assert!(b.states < a.states, "lumping must shrink the chain");
        }
    }

    #[test]
    fn matches_unlumped_identical_nonuniform_rows() {
        // Identical but non-uniform rows exercise the labeled tier.
        let matrix = mbus_workload::RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 3]).unwrap();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        let a = resubmission_steady_state(&net, &matrix, 0.9).unwrap();
        let b = lumped_steady_state(&net, &matrix, 0.9).unwrap();
        assert!((a.throughput - b.throughput).abs() < 1e-9);
        assert!((a.mean_wait - b.mean_wait).abs() < 1e-9);
    }

    #[test]
    fn reaches_sizes_the_unlumped_chain_rejects() {
        // N = 16, M = 8: (M+1)^N ≈ 1.8e15 states unlumped — rejected — but
        // well under a thousand orbit-lumped states.
        let matrix = UniformModel::new(16, 8).unwrap().matrix();
        let net = BusNetwork::new(16, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            resubmission_steady_state(&net, &matrix, 1.0),
            Err(ExactError::TooLarge { .. })
        ));
        let ss = lumped_steady_state(&net, &matrix, 1.0).unwrap();
        assert!(ss.states <= MAX_STATES);
        // r = 1 with N ≫ B: the four buses nearly saturate (all 16 requests
        // landing on < 4 distinct memories keeps throughput a hair under B).
        assert!(
            ss.throughput > 3.99 && ss.throughput <= 4.0 + 1e-9,
            "throughput {}",
            ss.throughput
        );
        // All 16 processors are always active at r = 1.
        assert!((ss.mean_active - 16.0).abs() < 1e-9);
        assert!(ss.mean_wait > 1.0);
    }

    #[test]
    fn saturated_single_bus_hand_check() {
        // Uniform 4×2, B = 1, r = 1: the bus is always busy once warm.
        let matrix = UniformModel::new(4, 2).unwrap().matrix();
        let net = BusNetwork::new(4, 2, 1, ConnectionScheme::Full).unwrap();
        let ss = lumped_steady_state(&net, &matrix, 1.0).unwrap();
        assert!((ss.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crossbar_uniform_never_queues_less_than_drop() {
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Crossbar).unwrap();
        let a = resubmission_steady_state(&net, &matrix, 0.7).unwrap();
        let b = lumped_steady_state(&net, &matrix, 0.7).unwrap();
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_is_trivial() {
        let matrix = UniformModel::new(8, 4).unwrap().matrix();
        let net = BusNetwork::new(8, 4, 2, ConnectionScheme::Full).unwrap();
        let ss = lumped_steady_state(&net, &matrix, 0.0).unwrap();
        assert_eq!(ss.states, 1);
        assert_eq!(ss.throughput, 0.0);
        assert_eq!(ss.mean_wait, 0.0);
    }

    #[test]
    fn shape_guards() {
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let single =
            BusNetwork::new(4, 4, 2, ConnectionScheme::balanced_single(4, 2).unwrap()).unwrap();
        assert!(matches!(
            lumped_steady_state(&single, &matrix, 1.0),
            Err(ExactError::UnsupportedShape { .. })
        ));
        // Non-exchangeable processors.
        let mixed = mbus_workload::RequestMatrix::from_rows(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            lumped_steady_state(&net, &mixed, 1.0),
            Err(ExactError::UnsupportedShape { .. })
        ));
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        assert!(lumped_steady_state(&net, &matrix, f64::NAN).is_err());
    }
}
