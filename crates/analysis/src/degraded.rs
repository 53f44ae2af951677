//! Degraded-mode analytical bandwidth: the paper's equations evaluated
//! through a [`FaultMask`] — the workspace's one per-scheme bandwidth model.
//!
//! The paper motivates every multiple-bus scheme with its *degree* of fault
//! tolerance (Table I) but never quantifies what a failure costs. This
//! module closes that gap: it re-derives the eq (2)–(6)/(9)/(12) bandwidth
//! structure for a network observed through a fault mask, matching the
//! simulator's degraded semantics exactly:
//!
//! * requests aimed at memories with no alive bus are **dropped** (they
//!   contribute to `unreachable_load`, not to bandwidth, and they do not
//!   interfere with other memories — per-memory arbitration is
//!   independent);
//! * full connection serves `E[min(D, alive buses)]`;
//! * single connection sums busy probabilities over alive buses only;
//! * partial groups become independent subnetworks with their *surviving*
//!   bus counts;
//! * K-class networks assign each class's winners top-down over the alive
//!   buses of the class's range, so an alive bus `i` carries a class-`c`
//!   contender with probability `P(D_c > A_c(i))` where `A_c(i)` counts the
//!   alive buses above `i` that class `c` can also reach. With no failures
//!   `A_c(i)` equals the paper's eq (11) allowance `j − a`.
//!
//! The healthy analysis, [`crate::bandwidth::analyze`], is this model under
//! the all-alive mask. The same independence approximation applies to
//! both: per-memory request indicators are treated as independent across
//! modules. The cross-validation suite pins the result against
//! fault-scheduled simulation.

use crate::AnalysisError;
use mbus_stats::prob::{check, PoissonBinomial};
use mbus_topology::{BusNetwork, ConnectionScheme, DegradedView, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};

/// A degraded-mode bandwidth result with its derived quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedBreakdown {
    /// Effective memory bandwidth under the mask: expected successful
    /// requests per cycle.
    pub bandwidth: f64,
    /// Offered load `Σ_p r·Σ_j prob(p,j)`: expected issued requests per
    /// cycle (unchanged by faults — processors keep issuing).
    pub offered_load: f64,
    /// Probability a request is accepted, `bandwidth / offered_load`
    /// (1 when nothing is offered).
    pub acceptance: f64,
    /// Expected requests per cycle aimed at unreachable memories (dropped
    /// before arbitration) — the analytical counterpart of the simulator's
    /// `unreachable_rate`.
    pub unreachable_load: f64,
    /// Number of memories still reachable under the mask.
    pub accessible_memories: usize,
    /// Fraction of memories still reachable, in `[0, 1]`.
    pub accessible_fraction: f64,
    /// Per-bus busy probabilities, length `B`; failed buses report 0. For
    /// full-connection networks the scheme's round-robin arbiter spreads
    /// load symmetrically over the alive buses, so each alive bus gets the
    /// mean; the crossbar (no shared buses) reports an empty vector.
    pub per_bus_busy: Vec<f64>,
    /// For K-class networks: expected requests served per cycle *per
    /// class*, `C_1` first. `None` for other schemes. Class `C_j` reaches
    /// exactly 0 once all `j + B − K` of its buses are failed, while higher
    /// classes stay positive — Table I's "flexible" fault tolerance made
    /// quantitative.
    pub per_class_bandwidth: Option<Vec<f64>>,
}

/// Degraded-mode effective memory bandwidth of `net` under `mask`.
///
/// # Errors
///
/// Same as [`degraded_analyze`].
pub fn degraded_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
) -> Result<f64, AnalysisError> {
    Ok(degraded_analyze(net, matrix, r, mask)?.bandwidth)
}

/// Full degraded-mode breakdown of `net` under the workload `matrix` at
/// request rate `r`, observed through `mask`.
///
/// With an all-alive mask its bandwidth, acceptance and per-bus busy
/// probabilities are the healthy analysis,
/// [`crate::bandwidth::analyze`], under the all-alive mask.
///
/// # Errors
///
/// * network/workload dimension mismatch →
///   [`AnalysisError::DimensionMismatch`];
/// * `r ∉ [0, 1]` → [`AnalysisError::InvalidRate`];
/// * mask covering a different bus count than the network →
///   [`AnalysisError::Topology`];
/// * schemes outside the paper's five → [`AnalysisError::UnsupportedScheme`].
pub fn degraded_analyze(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
) -> Result<DegradedBreakdown, AnalysisError> {
    let core = masked_bandwidth(net, matrix, r, mask)?;
    let view = DegradedView::new(net, mask)?;

    // Requests to unreachable memories are dropped before arbitration; the
    // expected dropped load is the per-processor traffic into those
    // columns. Reachable memories keep their exact X_j: dropping a request
    // removes it from *its own* (dead) memory's arbitration only.
    let mut unreachable_load = 0.0;
    for j in 0..net.memories() {
        if !view.is_memory_accessible(j) {
            for p in 0..net.processors() {
                unreachable_load += r * matrix.prob(p, j);
            }
        }
    }

    // Per-class service of a K-class network: class c wins alive bus i
    // with probability p_c(i)·E[1/(1+T)], T the number of *other* classes
    // contending at i (cross-class ties broken uniformly by the arbiter).
    let per_class_bandwidth = match (&core.contender, net.class_count()) {
        (Some(contender), Some(k)) => {
            let mut per_class = vec![0.0f64; k];
            for (i, row) in contender.chunks_exact(k).enumerate() {
                if mask.is_failed(i) {
                    continue;
                }
                for c in 0..k {
                    let p_c = row[c];
                    if p_c == 0.0 {
                        continue;
                    }
                    let others: Vec<f64> = (0..k).filter(|&o| o != c).map(|o| row[o]).collect();
                    let win: f64 = poisson_binomial(&others)?
                        .pmf_slice()
                        .iter()
                        .enumerate()
                        .map(|(extra, &p)| p / (extra as f64 + 1.0))
                        .sum();
                    per_class[c] += p_c * win;
                }
            }
            debug_assert!(
                (per_class.iter().sum::<f64>() - core.bandwidth).abs() < 1e-9,
                "per-class decomposition must resum to total bandwidth"
            );
            Some(per_class)
        }
        _ => None,
    };
    check::assert_probability("accessible memory fraction", view.accessible_fraction());
    Ok(DegradedBreakdown {
        bandwidth: core.bandwidth,
        offered_load: core.offered_load,
        acceptance: core.acceptance,
        unreachable_load,
        accessible_memories: view.accessible_memory_count(),
        accessible_fraction: view.accessible_fraction(),
        per_bus_busy: core.per_bus_busy,
        per_class_bandwidth,
    })
}

/// What the bandwidth model yields for one network, workload, rate and
/// mask; the fields read as in [`DegradedBreakdown`].
pub(crate) struct MaskedBandwidth {
    pub(crate) bandwidth: f64,
    pub(crate) offered_load: f64,
    pub(crate) acceptance: f64,
    pub(crate) per_bus_busy: Vec<f64>,
    /// K-class networks only, `B × K` row-major: `contender[i * K + c]` is
    /// the probability that alive bus `i` holds a class-`c` winner (0 on
    /// failed buses).
    pub(crate) contender: Option<Vec<f64>>,
}

/// The bandwidth model, shared by [`degraded_analyze`] and
/// [`crate::bandwidth::analyze`]: `net` under the workload `matrix` at
/// request rate `r`, observed through `mask`.
///
/// # Errors
///
/// Same as [`degraded_analyze`].
pub(crate) fn masked_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
) -> Result<MaskedBandwidth, AnalysisError> {
    if net.processors() != matrix.processors() {
        return Err(AnalysisError::DimensionMismatch {
            what: "processors",
            network: net.processors(),
            workload: matrix.processors(),
        });
    }
    if net.memories() != matrix.memories() {
        return Err(AnalysisError::DimensionMismatch {
            what: "memories",
            network: net.memories(),
            workload: matrix.memories(),
        });
    }
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(AnalysisError::InvalidRate { value: r });
    }
    DegradedView::new(net, mask)?;
    let xs = matrix.memory_request_probs(r)?;
    let b = net.buses();
    let mut contender = None;
    let (bandwidth, per_bus_busy) = match net.scheme() {
        // The crossbar has no shared buses to fail: every requested module
        // is served.
        ConnectionScheme::Crossbar => (xs.iter().sum(), Vec::new()),
        // Full connection: every memory rides any alive bus, so the network
        // behaves like a healthy one with `alive` buses — E[min(D, alive)]
        // with D the number of requested modules.
        ConnectionScheme::Full => {
            let alive = mask.alive_count();
            if alive == 0 {
                (0.0, vec![0.0; b])
            } else {
                let total = poisson_binomial(&xs)?.expected_min_with(alive);
                // Round-robin rotation spreads grants evenly over alive
                // buses; failed buses carry nothing.
                let share = total / alive as f64;
                let busy = (0..b)
                    .map(|bus| if mask.is_alive(bus) { share } else { 0.0 })
                    .collect();
                (total, busy)
            }
        }
        // Single connection: a bus is busy iff alive and any of its own
        // modules is requested; a failed bus's modules are unreachable.
        // Like the paper's eq (5), the modules of a bus are treated as
        // independently requested — exact when each bus owns one module
        // (B = M), a close approximation otherwise.
        ConnectionScheme::Single { .. } => {
            let busy: Vec<f64> = (0..b)
                .map(|bus| {
                    if mask.is_failed(bus) {
                        return 0.0;
                    }
                    let idle: f64 = net.memories_of_bus(bus).map(|j| 1.0 - xs[j]).product();
                    1.0 - idle
                })
                .collect();
            (busy.iter().sum(), busy)
        }
        // Partial groups: independent subnetworks, each serving
        // E[min(D_q, alive_q)] on its surviving buses.
        ConnectionScheme::PartialGroups { groups } => {
            let g = *groups;
            let per_group_mem = net.memories() / g;
            let per_group_bus = b / g;
            let mut total = 0.0;
            let mut busy = vec![0.0; b];
            for q in 0..g {
                let group_buses = q * per_group_bus..(q + 1) * per_group_bus;
                let alive = group_buses.clone().filter(|&i| mask.is_alive(i)).count();
                if alive == 0 {
                    continue;
                }
                let slice = &xs[q * per_group_mem..(q + 1) * per_group_mem];
                let group_bw = poisson_binomial(slice)?.expected_min_with(alive);
                total += group_bw;
                let share = group_bw / alive as f64;
                for i in group_buses.filter(|&i| mask.is_alive(i)) {
                    busy[i] = share;
                }
            }
            (total, busy)
        }
        // K classes: top-down assignment over each class's *alive* buses.
        ConnectionScheme::KClasses { class_sizes } => {
            let k = class_sizes.len();
            // table[i * k + c] = P(an alive bus i holds a class-c winner):
            // class c reaches buses 0..kclass_bus_count(c) and fills its
            // alive ones top-down, so bus i is reached once the class has
            // more winners than alive buses above i.
            let mut table = vec![0.0f64; b * k];
            for c in 0..k {
                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                let range = net.memories_of_class(c).expect("validated K-class");
                let pb = poisson_binomial(&xs[range])?;
                let pmf = pb.pmf_slice();
                // P(D_c ≤ above), summed from the bottom of the pmf one
                // alive bus at a time.
                let mut cdf = 0.0;
                let mut above = 0;
                for i in (0..net.kclass_bus_count(c)).rev() {
                    if mask.is_failed(i) {
                        continue;
                    }
                    cdf += pmf.get(above).copied().unwrap_or(0.0);
                    table[i * k + c] = 1.0 - f64::min(cdf, 1.0);
                    above += 1;
                }
            }
            let busy: Vec<f64> = table
                .chunks_exact(k)
                .enumerate()
                .map(|(i, row)| {
                    if mask.is_failed(i) {
                        return 0.0;
                    }
                    let idle: f64 = row.iter().map(|&p| 1.0 - p).product();
                    1.0 - idle
                })
                .collect();
            contender = Some(table);
            (busy.iter().sum(), busy)
        }
        other => {
            return Err(AnalysisError::UnsupportedScheme {
                scheme: other.kind().to_string(),
            })
        }
    };
    let offered_load = matrix.offered_load(r);
    let acceptance = if offered_load > 0.0 {
        bandwidth / offered_load
    } else {
        1.0
    };
    check::assert_probability("request acceptance probability", acceptance);
    check::assert_probabilities("per-bus busy probabilities", &per_bus_busy);
    // A network serves at most min(alive buses, N, M) requests per cycle
    // (the crossbar has no shared buses to fail, so it keeps min(N, M)).
    let alive_capacity = match net.kind() {
        SchemeKind::Crossbar => net.capacity(),
        _ => mask.alive_count(),
    };
    check::assert_bandwidth_bounds(bandwidth, alive_capacity, net.processors(), net.memories());
    Ok(MaskedBandwidth {
        bandwidth,
        offered_load,
        acceptance,
        per_bus_busy,
        contender,
    })
}

fn poisson_binomial(xs: &[f64]) -> Result<PoissonBinomial, AnalysisError> {
    PoissonBinomial::new(xs).map_err(|_| AnalysisError::InvalidProbability {
        name: "per-memory request probability",
        value: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::analyze;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    fn schemes(n: usize, b: usize) -> Vec<(&'static str, ConnectionScheme)> {
        vec![
            ("full", ConnectionScheme::Full),
            ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
            ("partial", ConnectionScheme::PartialGroups { groups: 2 }),
            ("kclass", ConnectionScheme::uniform_classes(n, b).unwrap()),
        ]
    }

    #[test]
    fn no_fault_mask_reproduces_healthy_analysis() {
        let n = 16;
        let b = 4;
        let matrix = hier_matrix(n);
        let mut all = schemes(n, b);
        all.push(("crossbar", ConnectionScheme::Crossbar));
        for (name, scheme) in all {
            let net = BusNetwork::new(n, n, b, scheme).unwrap();
            for r in [1.0, 0.6] {
                let healthy = analyze(&net, &matrix, r).unwrap();
                let degraded = degraded_analyze(&net, &matrix, r, &FaultMask::none(b)).unwrap();
                // One model: the healthy analysis is the all-alive case, bit
                // for bit.
                assert_eq!(
                    healthy.bandwidth.to_bits(),
                    degraded.bandwidth.to_bits(),
                    "{name}/r={r}"
                );
                assert_eq!(healthy.acceptance.to_bits(), degraded.acceptance.to_bits());
                assert_eq!(degraded.unreachable_load, 0.0);
                assert_eq!(degraded.accessible_memories, n);
                match &healthy.per_bus_busy {
                    Some(busy) => assert_eq!(busy, &degraded.per_bus_busy, "{name}"),
                    None => assert!(
                        matches!(name, "full" | "partial" | "crossbar"),
                        "{name}: a deterministic scheme lost its per-bus busy"
                    ),
                }
            }
        }
    }

    #[test]
    fn full_with_failures_equals_smaller_network() {
        let n = 16;
        let matrix = hier_matrix(n);
        let net = BusNetwork::new(n, n, 6, ConnectionScheme::Full).unwrap();
        for failed in 1..=5usize {
            let mask = FaultMask::with_failures(6, &(0..failed).collect::<Vec<_>>()).unwrap();
            let degraded = degraded_bandwidth(&net, &matrix, 1.0, &mask).unwrap();
            let shrunk = BusNetwork::new(n, n, 6 - failed, ConnectionScheme::Full).unwrap();
            let healthy = analyze(&shrunk, &matrix, 1.0).unwrap().bandwidth;
            assert!(
                (degraded - healthy).abs() < 1e-12,
                "{failed} failures: {degraded} vs B-{failed} healthy {healthy}"
            );
        }
        // All buses dead: zero.
        let mask = FaultMask::with_failures(6, &[0, 1, 2, 3, 4, 5]).unwrap();
        let dead = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert_eq!(dead.bandwidth, 0.0);
        assert_eq!(dead.accessible_memories, 0);
        assert!((dead.unreachable_load - dead.offered_load).abs() < 1e-12);
    }

    #[test]
    fn single_failed_bus_drops_exactly_its_modules() {
        let n = 8;
        let matrix = UniformModel::new(n, n).unwrap().matrix();
        let net =
            BusNetwork::new(n, n, 4, ConnectionScheme::balanced_single(n, 4).unwrap()).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap();
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        // Uniform traffic over a balanced placement: losing 1 of 4 buses
        // loses exactly a quarter of the busy probability mass.
        assert!((degraded.bandwidth - healthy.bandwidth * 0.75).abs() < 1e-12);
        assert_eq!(degraded.per_bus_busy[0], 0.0);
        assert_eq!(degraded.accessible_memories, 6);
        // 8 processors each sending 1/4 of their traffic to dead modules.
        assert!((degraded.unreachable_load - 8.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn partial_group_loss_halves_symmetric_network() {
        let n = 8;
        let matrix = UniformModel::new(n, n).unwrap().matrix();
        let net = BusNetwork::new(n, n, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap().bandwidth;
        let mask = FaultMask::with_failures(4, &[0, 1]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert!((degraded.bandwidth - healthy / 2.0).abs() < 1e-12);
        assert_eq!(degraded.accessible_memories, 4);
    }

    #[test]
    fn kclass_class_dies_after_its_bus_count_fails() {
        // N = M = 8, B = K = 4: class C_j (1-based) reaches buses 0..j, so
        // it dies exactly once buses 0..j−1 (j of them? no: j + B − K = j
        // buses) are down.
        let n = 8;
        let b = 4;
        let matrix = hier_matrix(n);
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        for f in 0..=b {
            let mask = FaultMask::with_failures(b, &(0..f).collect::<Vec<_>>()).unwrap();
            let breakdown = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
            let per_class = breakdown.per_class_bandwidth.unwrap();
            for (c, &bw) in per_class.iter().enumerate() {
                let class_buses = net.kclass_bus_count(c);
                if f >= class_buses {
                    assert_eq!(bw, 0.0, "f={f}: class C_{} must be dead", c + 1);
                } else {
                    assert!(bw > 0.0, "f={f}: class C_{} must survive", c + 1);
                }
            }
        }
    }

    #[test]
    fn kclass_high_bus_failures_are_absorbed() {
        // Failing the top bus costs bandwidth but disconnects nobody;
        // failing the bottom bus kills class C_1.
        let n = 8;
        let b = 4;
        let matrix = hier_matrix(n);
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        let high = degraded_analyze(
            &net,
            &matrix,
            1.0,
            &FaultMask::with_failures(b, &[3]).unwrap(),
        )
        .unwrap();
        let low = degraded_analyze(
            &net,
            &matrix,
            1.0,
            &FaultMask::with_failures(b, &[0]).unwrap(),
        )
        .unwrap();
        assert_eq!(high.accessible_memories, n);
        assert_eq!(high.unreachable_load, 0.0);
        assert_eq!(low.accessible_memories, n - 2);
        assert!(low.unreachable_load > 0.0);
        assert!(high.bandwidth > low.bandwidth);
    }

    #[test]
    fn crossbar_ignores_masks() {
        let n = 8;
        let matrix = hier_matrix(n);
        let net = BusNetwork::new(n, n, 1, ConnectionScheme::Crossbar).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap().bandwidth;
        let mask = FaultMask::with_failures(1, &[0]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert!((degraded.bandwidth - healthy).abs() < 1e-12);
        assert_eq!(degraded.unreachable_load, 0.0);
    }

    #[test]
    fn validation_errors() {
        let matrix = hier_matrix(8);
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        // Wrong mask width.
        assert!(matches!(
            degraded_analyze(&net, &matrix, 1.0, &FaultMask::none(3)),
            Err(AnalysisError::Topology(_))
        ));
        // Bad rate.
        assert!(matches!(
            degraded_analyze(&net, &matrix, 2.0, &FaultMask::none(4)),
            Err(AnalysisError::InvalidRate { .. })
        ));
        // Dimension mismatch.
        let wrong_net = BusNetwork::new(4, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            degraded_analyze(&wrong_net, &matrix, 1.0, &FaultMask::none(4)),
            Err(AnalysisError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn failing_one_more_bus_never_raises_bandwidth() {
        // Seeded splitmix64 stream for the random rows and masks.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (n, b) in [(16, 8), (12, 6)] {
            let rows = (0..n)
                .map(|_| {
                    let row: Vec<f64> = (0..n).map(|_| 0.01 + (next() >> 11) as f64).collect();
                    let total: f64 = row.iter().sum();
                    row.iter().map(|w| w / total).collect()
                })
                .collect();
            let matrices = [
                ("hier", hier_matrix(n)),
                ("random", RequestMatrix::from_rows(rows).unwrap()),
            ];
            let mut all = vec![
                ("full", ConnectionScheme::Full),
                ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
                ("partial", ConnectionScheme::PartialGroups { groups: 2 }),
            ];
            for k in [2, 4, b] {
                all.push(("kclass", ConnectionScheme::uniform_classes(n, k).unwrap()));
            }
            for (name, scheme) in all {
                let net = BusNetwork::new(n, n, b, scheme).unwrap();
                for ((traffic, matrix), r) in matrices.iter().flat_map(|m| [(m, 1.0), (m, 0.5)]) {
                    let bandwidth = |failed: &[usize]| {
                        let mask = FaultMask::with_failures(b, failed).unwrap();
                        degraded_bandwidth(&net, matrix, r, &mask).unwrap()
                    };
                    for _ in 0..32 {
                        let failed: Vec<usize> = (0..b).filter(|_| next() & 1 == 1).collect();
                        let before = bandwidth(&failed);
                        for extra in (0..b).filter(|bus| !failed.contains(bus)) {
                            let more = [failed.as_slice(), &[extra]].concat();
                            let after = bandwidth(&more);
                            assert!(
                                after <= before + 1e-12,
                                "{name} {n}x{b} {traffic} r = {r}: failing bus {extra} \
                                 on top of {failed:?} raised {before} to {after}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// K-class at 16×16×8 with K = 4: buses `0..5` reach every class.
    fn kclass_16x8() -> BusNetwork {
        let scheme = ConnectionScheme::uniform_classes(16, 4).unwrap();
        BusNetwork::new(16, 16, 8, scheme).unwrap()
    }

    #[test]
    fn kclass_shared_low_buses_are_interchangeable() {
        // The `B − K + 1` low buses are wired to every class, so failing
        // any one of them leaves the same network up to a bus permutation:
        // every figure is bit-identical and `per_bus_busy` is permuted.
        let net = kclass_16x8();
        let shared = net.kclass_bus_count(0);
        assert_eq!(shared, 5);
        let matrices = [hier_matrix(16), UniformModel::new(16, 16).unwrap().matrix()];
        for (matrix, r) in matrices.iter().flat_map(|m| [(m, 1.0), (m, 0.5)]) {
            let fail = |bus| {
                let mask = FaultMask::with_failures(8, &[bus]).unwrap();
                degraded_analyze(&net, matrix, r, &mask).unwrap()
            };
            let bits = |d: &DegradedBreakdown| {
                let mut busy: Vec<u64> = d.per_bus_busy.iter().map(|x| x.to_bits()).collect();
                busy.sort_unstable();
                let figures = [
                    d.bandwidth,
                    d.offered_load,
                    d.acceptance,
                    d.unreachable_load,
                ];
                let per_class = d.per_class_bandwidth.as_ref().unwrap();
                let scalars = figures
                    .iter()
                    .chain(per_class)
                    .chain([&d.accessible_fraction]);
                (
                    scalars.map(|x| x.to_bits()).collect::<Vec<_>>(),
                    busy,
                    d.accessible_memories,
                )
            };
            let reference = bits(&fail(0));
            for bus in 1..shared {
                assert_eq!(bits(&fail(bus)), reference, "bus {bus} at r = {r}");
            }
        }
    }

    #[test]
    fn kclass_mask_below_an_alive_bus_matches_simulation() {
        use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, Simulator};
        // Private traffic (processor p only requests memory p): requests
        // to distinct memories are independent, so the model is exact and
        // must land inside the simulation's confidence interval. Each mask
        // fails a shared bus below alive ones, so the top-down assignment
        // has to skip it.
        let net = kclass_16x8();
        let rows = (0..16)
            .map(|p| (0..16).map(|j| f64::from(u8::from(j == p))).collect())
            .collect();
        let matrix = RequestMatrix::from_rows(rows).unwrap();
        let r = 0.5;
        for failed in [vec![2], vec![1, 3]] {
            let mask = FaultMask::with_failures(8, &failed).unwrap();
            let analytical = degraded_bandwidth(&net, &matrix, r, &mask).unwrap();
            let events = failed.iter().map(|&bus| FaultEvent {
                cycle: 0,
                bus,
                kind: FaultEventKind::Fail,
            });
            let config = SimConfig::new(100_000)
                .with_warmup(5_000)
                .with_seed(7)
                .with_faults(FaultSchedule::from_events(events.collect()).unwrap());
            let report = Simulator::build(&net, &matrix, r)
                .unwrap()
                .run(&config)
                .unwrap();
            assert!(
                report.bandwidth.contains(analytical),
                "{failed:?}: analytical {analytical} outside simulated {} ± {}",
                report.bandwidth.mean(),
                report.bandwidth.half_width()
            );
        }
    }
}
