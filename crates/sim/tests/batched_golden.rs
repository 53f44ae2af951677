//! Golden determinism tests for the batched replication engine.
//!
//! [`run_batch`] must reproduce, bit for bit, the reports pinned below for
//! fixed seeds and configurations. The differential suite holds the
//! batched engine to the per-seed reference, but both feed the same
//! metric collector, so a collector bug moves both sides at once; these
//! hashes pin the batched sampling spec itself, collector included.
//!
//! The scenarios cover every connection scheme at 8 × 8 × 4, 16 × 16 × 8
//! and 64 × 64 × 16, hierarchical and uniform traffic, r = 0.5 and 1.0,
//! resubmission, and a fail/repair schedule. Each runs 1 100 measured
//! cycles, so any per-unit tally that is kept in narrow counters and
//! flushed periodically crosses its flush boundary several times.
//!
//! The hash folds every field of every lane's [`SimReport`] (f64 bit
//! patterns included), so a mismatch means an observable behavior change.

use mbus_sim::batched::run_batch;
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, SimReport};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel, UniformModel};

/// FNV-1a over every field of every report, in declaration order.
fn reports_hash(reports: &[SimReport]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    struct Fnv(u64);
    impl Fnv {
        fn u64(&mut self, value: u64) {
            for byte in value.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(PRIME);
            }
        }
        fn f64(&mut self, value: f64) {
            self.u64(value.to_bits());
        }
    }
    let mut h = Fnv(OFFSET);
    for report in reports {
        h.u64(report.cycles);
        h.u64(report.warmup);
        h.f64(report.bandwidth.mean());
        h.f64(report.bandwidth.half_width());
        h.f64(report.bandwidth.level());
        h.f64(report.offered_load);
        h.f64(report.acceptance);
        h.f64(report.unreachable_rate);
        for &u in &report.bus_utilization {
            h.f64(u);
        }
        for &alive in &report.bus_alive_cycles {
            h.u64(alive);
        }
        for &rate in &report.memory_service_rates {
            h.f64(rate);
        }
        for &rate in &report.processor_service_rates {
            h.f64(rate);
        }
        for (value, count) in report.served_histogram.iter() {
            h.u64(value as u64);
            h.u64(count);
        }
        h.f64(report.mean_wait);
        h.u64(report.max_wait);
    }
    h.0
}

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

struct Scenario {
    name: &'static str,
    net: BusNetwork,
    matrix: RequestMatrix,
    r: f64,
    config: SimConfig,
}

/// The scenario grid; every run is 1 100 measured cycles after 100 of
/// warm-up, 8 lanes with consecutive seeds.
fn scenarios() -> Vec<Scenario> {
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
    ]
}

/// Golden hashes (same order as [`scenarios`]), captured from the batched
/// engine before its grant scans and per-unit tallies were rewritten; the
/// rewrite reproduces them unchanged. Regenerate only for a deliberate,
/// documented change to the batched sampling spec.
const EXPECTED: &[(&str, u64)] = &[
    ("full-8-hier-r1", 0x496e88233e892800),
    ("partial-8-uniform-r05-resubmission", 0x5f3545a0002abbfd),
    ("single-16-hier-r1-faulted", 0x956bb8a2fa02dcee),
    ("kclass-16-uniform-r05", 0x1ee48929d7674ed9),
    ("full-64-uniform-r1-resubmission", 0x496daa2469d9ddc8),
    ("single-64-hier-r05", 0xcf80d1e911de78f2),
    ("partial-64-hier-r1-faulted-resubmission", 0x6c9c596e834a7f71),
    ("kclass-64-hier-r1", 0xcdc82c24bd235d86),
    ("crossbar-64-uniform-r05", 0xa423e0f876e17a22),
];

#[test]
#[cfg_attr(miri, ignore)]
fn batched_engine_matches_golden_reports() {
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), EXPECTED.len(), "one hash per scenario");
    let seeds: Vec<u64> = (0..8u64).map(|i| 4_242 + i).collect();
    let mut mismatches = Vec::new();
    for (scenario, &(expected_name, expected_hash)) in scenarios.iter().zip(EXPECTED) {
        assert_eq!(scenario.name, expected_name, "scenario order drifted");
        let reports = run_batch(
            &scenario.net,
            &scenario.matrix,
            scenario.r,
            &scenario.config,
            &seeds,
        )
        .unwrap();
        let hash = reports_hash(&reports);
        if hash != expected_hash {
            mismatches.push(format!(
                "{}: report hash {hash:#018x} != golden {expected_hash:#018x}",
                scenario.name
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
