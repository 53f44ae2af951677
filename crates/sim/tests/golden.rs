//! Golden determinism tests for the scalar simulation engine.
//!
//! [`Simulator`] must reproduce, bit for bit, the reports pinned below for
//! fixed seeds and configurations. The hashes are the only pin on the
//! engine: any change to the RNG draw order, an arbitration policy, fault
//! handling, resubmission, or metric collection shows up as a mismatch.
//!
//! The scenarios cover every connection scheme, resubmission, a fault
//! schedule, the hierarchical, uniform and favorite-memory workloads, a
//! non-square network, and the dense path taken when `N` or `M` exceeds 64
//! (the requested-set and requester bitmasks no longer fit one `u64`).
//!
//! The hash folds every field of [`SimReport`] (f64 bit patterns included),
//! so a mismatch means an observable behavior change, not just noise.

use mbus_sim::{SimConfig, SimReport, Simulator};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{FavoriteModel, HierarchicalModel, RequestMatrix, RequestModel, UniformModel};

/// FNV-1a over every field of the report, in declaration order.
fn report_hash(report: &SimReport) -> u64 {
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
    h.0
}

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

/// The scenario grid: every connection scheme, plus resubmission,
/// fault-schedule and dense (`N, M > 64`) paths, at mixed request rates.
fn scenarios() -> Vec<(&'static str, BusNetwork, RequestMatrix, f64, SimConfig)> {
    let base = |seed: u64| SimConfig::new(5_000).with_warmup(500).with_seed(seed);
    vec![
        (
            "crossbar",
            BusNetwork::new(16, 16, 1, ConnectionScheme::Crossbar).unwrap(),
            hier_matrix(16),
            0.75,
            base(12345),
        ),
        (
            "full",
            BusNetwork::new(16, 16, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(16),
            0.75,
            base(23456),
        ),
        (
            "single",
            BusNetwork::new(16, 16, 4, ConnectionScheme::balanced_single(16, 4).unwrap()).unwrap(),
            hier_matrix(16),
            0.75,
            base(34567),
        ),
        (
            "partial",
            BusNetwork::new(16, 16, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
            hier_matrix(16),
            0.75,
            base(45678),
        ),
        (
            "kclass",
            BusNetwork::new(16, 16, 4, ConnectionScheme::uniform_classes(16, 4).unwrap()).unwrap(),
            hier_matrix(16),
            0.75,
            base(56789),
        ),
        (
            "full-resubmission",
            BusNetwork::new(16, 16, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(16),
            0.9,
            base(67890).with_resubmission(true),
        ),
        (
            "full-faulted",
            BusNetwork::new(16, 16, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(16),
            1.0,
            base(78901).with_faults(
                mbus_sim::FaultSchedule::from_events(vec![
                    mbus_sim::FaultEvent {
                        cycle: 1_000,
                        bus: 1,
                        kind: mbus_sim::FaultEventKind::Fail,
                    },
                    mbus_sim::FaultEvent {
                        cycle: 3_000,
                        bus: 1,
                        kind: mbus_sim::FaultEventKind::Repair,
                    },
                ])
                .unwrap(),
            ),
        ),
        (
            "full-32-resubmission",
            BusNetwork::new(32, 32, 16, ConnectionScheme::Full).unwrap(),
            hier_matrix(32),
            0.6,
            base(42).with_resubmission(true),
        ),
        (
            "dense-full-80",
            BusNetwork::new(80, 80, 24, ConnectionScheme::Full).unwrap(),
            hier_matrix(80),
            0.4,
            base(11),
        ),
        (
            "dense-kclass-80-resubmission",
            BusNetwork::new(80, 80, 16, ConnectionScheme::uniform_classes(80, 16).unwrap())
                .unwrap(),
            hier_matrix(80),
            0.3,
            base(12).with_resubmission(true),
        ),
        (
            "dense-partial-72-uniform",
            BusNetwork::new(72, 72, 24, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
            UniformModel::new(72, 72).unwrap().matrix(),
            0.4,
            base(13),
        ),
        (
            "single-24x12-favorite",
            BusNetwork::new(24, 12, 4, ConnectionScheme::balanced_single(12, 4).unwrap()).unwrap(),
            FavoriteModel::new(24, 12, 0.7).unwrap().matrix(),
            0.6,
            base(14),
        ),
    ]
}

/// Golden report hashes (same order as [`scenarios`]). Regenerate only for
/// a deliberate, documented behavior change — these pin the RNG draw order
/// and every arbitration policy.
///
/// The first seven were captured from the pre-refactor engine and
/// regenerated once, when `bus_utilization` switched to an alive-cycle
/// denominator and `SimReport` gained `bus_alive_cycles`. The last five
/// (the 32×32 resubmission run, the three `N, M > 64` dense-path runs and
/// the 24×12 favorite-memory run) were captured while a frozen copy of the
/// pre-refactor engine still existed, and both engines produced equal
/// reports on all twelve scenarios.
const EXPECTED: &[(&str, u64)] = &[
    ("crossbar", 0xff46064047f5b948),
    ("full", 0x1c378e7b47081c29),
    ("single", 0x4684389fd32101a3),
    ("partial", 0x10b7867ee8dea5bb),
    ("kclass", 0x2d188ee30ae2b64e),
    ("full-resubmission", 0x63e0ca15f8eda29b),
    ("full-faulted", 0x17fbfe9a826f3bba),
    ("full-32-resubmission", 0x175eeb6c559a4cd4),
    ("dense-full-80", 0x19b57708bca8fd2a),
    ("dense-kclass-80-resubmission", 0x900a14c9f009613c),
    ("dense-partial-72-uniform", 0xbfb2c628b726adbf),
    ("single-24x12-favorite", 0x501ef9583fd95c28),
];

#[test]
fn engine_matches_golden_reports() {
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), EXPECTED.len(), "one hash per scenario");
    for ((name, net, matrix, r, config), &(expected_name, expected_hash)) in
        scenarios.into_iter().zip(EXPECTED)
    {
        assert_eq!(name, expected_name, "scenario order drifted");
        let mut sim = Simulator::build(&net, &matrix, r).unwrap();
        let report = sim.run(&config).unwrap();
        let hash = report_hash(&report);
        assert_eq!(
            hash, expected_hash,
            "{name}: report hash {hash:#018x} != golden {expected_hash:#018x}"
        );
    }
}
