//! The batched engine's golden scenario grid, shared by the golden hash
//! test (`tests/batched_golden.rs`) and the in-crate test that runs both
//! builds of the cycle loop over every scenario.

use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel, UniformModel};

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

fn uniform_matrix(n: usize) -> RequestMatrix {
    UniformModel::new(n, n).unwrap().matrix()
}

fn network(n: usize, b: usize, scheme: ConnectionScheme) -> BusNetwork {
    BusNetwork::new(n, n, b, scheme).unwrap()
}

/// Fail bus 1 early in the measured window and repair it later, so the
/// unreachable filter and the degraded scans run across flush boundaries.
fn fail_repair() -> FaultSchedule {
    FaultSchedule::from_events(vec![
        FaultEvent {
            cycle: 300,
            bus: 1,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 800,
            bus: 1,
            kind: FaultEventKind::Repair,
        },
    ])
    .unwrap()
}

/// Fail bus 0, then bus 1, and repair them in turn: on a K-class network
/// with `K = B` class 0 (bus 0 only) and class 1 (buses 0–1) lose every
/// bus for a while, so their memories go unreachable and every class's
/// alive list shrinks and regrows.
fn class_outage() -> FaultSchedule {
    let event = |cycle, bus, kind| FaultEvent { cycle, bus, kind };
    FaultSchedule::from_events(vec![
        event(300, 0, FaultEventKind::Fail),
        event(500, 1, FaultEventKind::Fail),
        event(700, 0, FaultEventKind::Repair),
        event(900, 1, FaultEventKind::Repair),
    ])
    .unwrap()
}

pub struct Scenario {
    pub name: &'static str,
    pub net: BusNetwork,
    pub matrix: RequestMatrix,
    pub r: f64,
    pub config: SimConfig,
}

/// The scenario grid; every run is 1 100 measured cycles after 100 of
/// warm-up, 8 lanes with consecutive seeds.
pub fn scenarios() -> Vec<Scenario> {
    let base = || SimConfig::new(1_100).with_warmup(100).with_batch_len(100);
    let scenario = |name, net: BusNetwork, matrix, r, config| Scenario {
        name,
        net,
        matrix,
        r,
        config,
    };
    vec![
        scenario(
            "full-8-hier-r1",
            network(8, 4, ConnectionScheme::Full),
            hier_matrix(8),
            1.0,
            base(),
        ),
        scenario(
            "partial-8-uniform-r05-resubmission",
            network(8, 4, ConnectionScheme::PartialGroups { groups: 2 }),
            uniform_matrix(8),
            0.5,
            base().with_resubmission(true),
        ),
        scenario(
            "single-16-hier-r1-faulted",
            network(16, 8, ConnectionScheme::balanced_single(16, 8).unwrap()),
            hier_matrix(16),
            1.0,
            base().with_faults(fail_repair()),
        ),
        scenario(
            "kclass-16-uniform-r05",
            network(16, 8, ConnectionScheme::uniform_classes(16, 8).unwrap()),
            uniform_matrix(16),
            0.5,
            base(),
        ),
        scenario(
            "full-64-uniform-r1-resubmission",
            network(64, 16, ConnectionScheme::Full),
            uniform_matrix(64),
            1.0,
            base().with_resubmission(true),
        ),
        scenario(
            "single-64-hier-r05",
            network(64, 16, ConnectionScheme::balanced_single(64, 16).unwrap()),
            hier_matrix(64),
            0.5,
            base(),
        ),
        scenario(
            "partial-64-hier-r1-faulted-resubmission",
            network(64, 16, ConnectionScheme::PartialGroups { groups: 4 }),
            hier_matrix(64),
            1.0,
            base().with_resubmission(true).with_faults(fail_repair()),
        ),
        scenario(
            "kclass-64-hier-r1",
            network(64, 16, ConnectionScheme::uniform_classes(64, 16).unwrap()),
            hier_matrix(64),
            1.0,
            base(),
        ),
        scenario(
            "crossbar-64-uniform-r05",
            network(64, 16, ConnectionScheme::Crossbar),
            uniform_matrix(64),
            0.5,
            base(),
        ),
        scenario(
            "kclass-8-hier-r1",
            network(8, 4, ConnectionScheme::uniform_classes(8, 4).unwrap()),
            hier_matrix(8),
            1.0,
            base(),
        ),
        scenario(
            "crossbar-8-uniform-r05",
            network(8, 4, ConnectionScheme::Crossbar),
            uniform_matrix(8),
            0.5,
            base(),
        ),
        scenario(
            "kclass-16-hier-r1-faulted",
            network(16, 8, ConnectionScheme::uniform_classes(16, 8).unwrap()),
            hier_matrix(16),
            1.0,
            base().with_faults(fail_repair()),
        ),
        scenario(
            "kclass-8-uniform-r1-class-outage",
            network(8, 4, ConnectionScheme::uniform_classes(8, 4).unwrap()),
            uniform_matrix(8),
            1.0,
            base().with_faults(class_outage()),
        ),
        scenario(
            "kclass-16-uniform-r05-resubmission",
            // K = 5 < B = 8 with uneven classes (4, 3, 3, 3, 3).
            network(16, 8, ConnectionScheme::uniform_classes(16, 5).unwrap()),
            uniform_matrix(16),
            0.5,
            base().with_resubmission(true),
        ),
    ]
}
