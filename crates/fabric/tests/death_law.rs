//! Fault death laws: which traffic a link failure kills, in both the
//! routed simulator and the analytic decomposition.
//!
//! * A failed **local group** is the only medium inside its cluster, so
//!   the cluster serves nothing — and nothing routed *through* it (remote
//!   requests addressed to its memories) is delivered either.
//! * A failed **uplink** severs its subtree's escape path. With pure
//!   remote traffic (locality 0) the subtree's processors have nowhere
//!   reachable to go and its memories are unreachable from outside, so
//!   the cluster's delivered rate goes to zero while sibling clusters
//!   keep exchanging traffic.

use mbus_fabric::{analyze_fabric, ClusteredBuses, FabricSimulator, FabricSpec};
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
use mbus_workload::RequestMatrix;

fn fabric(locality: f64) -> (ClusteredBuses, RequestMatrix) {
    FabricSpec {
        ks: vec![4, 4],
        local_buses: 2,
        uplink_width: 1,
        locality,
    }
    .build()
    .unwrap()
}

fn run_with_failures(
    topo: &ClusteredBuses,
    matrix: &RequestMatrix,
    failed: &[usize],
) -> mbus_fabric::FabricReport {
    let schedule = FaultSchedule::from_events(
        failed
            .iter()
            .map(|&link| FaultEvent {
                cycle: 0,
                bus: link,
                kind: FaultEventKind::Fail,
            })
            .collect(),
    )
    .unwrap();
    let config = SimConfig::new(6_000)
        .with_warmup(600)
        .with_seed(99)
        .with_faults(schedule);
    FabricSimulator::build(topo, matrix, 0.6)
        .unwrap()
        .run(&config)
        .unwrap()
}

/// Failing leaf 0's local group kills cluster 0 in sim and analysis
/// alike; the other clusters keep serving.
#[test]
fn dead_local_group_kills_its_cluster() {
    let (topo, matrix) = fabric(0.6);
    let local0 = topo.local_link(0);

    let analysis = analyze_fabric(&topo, &matrix, 0.6, &[local0]).unwrap();
    assert_eq!(analysis.cluster_bandwidth[0], 0.0);
    for c in 1..topo.leaves() {
        assert!(analysis.cluster_bandwidth[c] > 0.0, "cluster {c}");
    }
    // Cluster 0's memories serve nothing; its processors reach nothing
    // (every route of theirs starts on the dead local group).
    for j in 0..topo.memories() {
        if topo.leaf_of_memory(j) == 0 {
            assert_eq!(analysis.memory_service[j], 0.0, "memory {j}");
        }
    }
    for p in 0..topo.processors() {
        if topo.leaf_of_processor(p) == 0 {
            assert_eq!(analysis.processor_service[p], 0.0, "processor {p}");
        }
    }
    assert!(analysis.unreachable_rate > 0.0);

    let report = run_with_failures(&topo, &matrix, &[local0]);
    assert_eq!(report.cluster_service_rates[0], 0.0);
    for c in 1..topo.leaves() {
        assert!(report.cluster_service_rates[c] > 0.0, "sim cluster {c}");
    }
    assert!(report.unreachable_rate > 0.0);
}

/// At locality 0 a failed uplink starves its whole cluster: no request of
/// its processors can escape and no remote request can enter.
#[test]
fn dead_uplink_starves_a_pure_remote_cluster() {
    let (topo, matrix) = fabric(0.0);
    // Uplinks follow the local groups in the link table; leaf 0's uplink
    // is the first of them.
    let uplink0 = topo.leaves();
    assert_ne!(uplink0, topo.local_link(0));

    let analysis = analyze_fabric(&topo, &matrix, 0.6, &[uplink0]).unwrap();
    assert_eq!(analysis.cluster_bandwidth[0], 0.0);
    for c in 1..topo.leaves() {
        assert!(analysis.cluster_bandwidth[c] > 0.0, "cluster {c}");
    }
    // The severed mass is exactly cluster 0's offered traffic plus
    // everyone else's traffic addressed to cluster 0's memories.
    assert!(analysis.unreachable_rate > 0.0);

    let report = run_with_failures(&topo, &matrix, &[uplink0]);
    assert_eq!(report.cluster_service_rates[0], 0.0);
    for c in 1..topo.leaves() {
        assert!(report.cluster_service_rates[c] > 0.0, "sim cluster {c}");
    }
    // Sim and analysis agree on the severed mass (both count drops at
    // issue time; the sim's is an empirical mean).
    assert!(
        (report.unreachable_rate - analysis.unreachable_rate).abs()
            <= 0.1 * analysis.unreachable_rate + 0.05,
        "unreachable: sim {} vs analytic {}",
        report.unreachable_rate,
        analysis.unreachable_rate,
    );
}

/// With locality in the mix, a dead uplink leaves the cluster's *local*
/// traffic alive: delivered rate drops but stays positive, and the
/// severed mass matches the cluster's remote share.
#[test]
fn dead_uplink_leaves_local_traffic_alive() {
    let (topo, matrix) = fabric(0.6);
    let uplink0 = topo.leaves();

    let healthy = analyze_fabric(&topo, &matrix, 0.6, &[]).unwrap();
    let degraded = analyze_fabric(&topo, &matrix, 0.6, &[uplink0]).unwrap();
    assert!(degraded.cluster_bandwidth[0] > 0.0);
    assert_eq!(healthy.unreachable_rate, 0.0);
    assert!(degraded.unreachable_rate > 0.0);

    let report = run_with_failures(&topo, &matrix, &[uplink0]);
    assert!(report.cluster_service_rates[0] > 0.0);
    assert!(report.unreachable_rate > 0.0);
}

/// Failing every uplink reduces the fabric to isolated clusters: total
/// bandwidth equals the sum of purely local service, and at locality 0
/// that sum is zero.
#[test]
fn all_uplinks_dead_isolates_the_clusters() {
    let (topo, matrix) = fabric(0.0);
    let uplinks: Vec<usize> = (topo.leaves()..topo.links().len()).collect();
    let analysis = analyze_fabric(&topo, &matrix, 0.6, &uplinks).unwrap();
    assert!(analysis.bandwidth.abs() < 1e-12);
    // Everything offered is unreachable.
    assert!((analysis.unreachable_rate - analysis.offered_load).abs() < 1e-9);

    let report = run_with_failures(&topo, &matrix, &uplinks);
    assert_eq!(report.bandwidth.mean(), 0.0);
}
