//! Golden determinism tests for the scalar simulation engine.
//!
//! [`Simulator`] must reproduce, bit for bit, the reports pinned below for
//! fixed seeds and configurations. The hashes are the only pin on the
//! engine: any change to the RNG draw order, an arbitration policy, fault
//! handling, resubmission, or metric collection shows up as a mismatch.
//!
//! The scenarios cover every connection scheme, resubmission, a fault
//! schedule, the hierarchical, uniform and favorite-memory workloads, a
//! non-square network, the dense path taken when `N` or `M` exceeds 64
//! (the requested-set and requester bitmasks no longer fit one `u64`),
//! the gate-free `r = 1` path, and resubmission through a total outage
//! (pending requests dropped as unreachable).
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
            BusNetwork::new(
                80,
                80,
                16,
                ConnectionScheme::uniform_classes(80, 16).unwrap(),
            )
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
        (
            "full-8-rate-one",
            BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(8),
            1.0,
            base(15),
        ),
        (
            "full-16-cold-rate",
            BusNetwork::new(16, 16, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(16),
            cold_rate(),
            base(16),
        ),
        (
            "full-8-resubmission-outage",
            BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap(),
            hier_matrix(8),
            0.8,
            base(17)
                .with_resubmission(true)
                .with_faults(outage_schedule()),
        ),
    ]
}

/// A rate shaped like the server's cold-path grid: `0.5 + j·2^-53` for an
/// odd `j`, i.e. a value in `[0.5, 1)` whose lowest mantissa bit is set,
/// so the rate gate's threshold sits exactly on a 53-bit grid point.
fn cold_rate() -> f64 {
    let j = 0x9_e377; // odd
    f64::from_bits(0.5f64.to_bits() + j)
}

/// Bus 1 fails, then the other three follow it (a total outage, so every
/// request is unreachable and dropped, pending ones included), then the
/// buses come back in two steps.
fn outage_schedule() -> mbus_sim::FaultSchedule {
    use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule};
    let event = |cycle, bus, kind| FaultEvent { cycle, bus, kind };
    FaultSchedule::from_events(vec![
        event(1_000, 1, FaultEventKind::Fail),
        event(2_000, 0, FaultEventKind::Fail),
        event(2_000, 2, FaultEventKind::Fail),
        event(2_000, 3, FaultEventKind::Fail),
        event(2_400, 0, FaultEventKind::Repair),
        event(2_400, 2, FaultEventKind::Repair),
        event(2_400, 3, FaultEventKind::Repair),
        event(3_000, 1, FaultEventKind::Repair),
    ])
    .unwrap()
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
/// reports on all twelve scenarios. The last three (the gate-free
/// `r = 1` run, a cold-path-style rate on the 53-bit grid, and
/// resubmission through a total bus outage) pin the shapes the fused
/// per-processor pass owns; they were recorded on the engine that still
/// ran issue, the unreachable drop and stage-1 registration as separate
/// loops.
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
    ("full-8-rate-one", 0xbc8a4590722ab035),
    ("full-16-cold-rate", 0x38e2e21407ff0622),
    ("full-8-resubmission-outage", 0xafec04228eddae58),
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

/// A clone reseeded with [`Simulator::reset`] must be indistinguishable
/// from a freshly built simulator with the same seed: cloning drops the
/// RNG, arbitration, resubmission and fault state, and any table the
/// engine caches per fault mask must follow.
#[test]
fn clone_then_reset_matches_a_fresh_simulator() {
    let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
    let matrix = hier_matrix(8);
    let config = SimConfig::new(3_000)
        .with_warmup(300)
        .with_seed(18)
        .with_resubmission(true)
        .with_faults(outage_schedule());

    // Leave the original mid-run: pending requests, rotated pointers and
    // a failed bus all differ from a fresh simulator's.
    let mut original = Simulator::build(&net, &matrix, 0.8).unwrap();
    original.reset(99);
    original.set_resubmission(true);
    original.fault_mask_mut().fail(2).unwrap();
    for _ in 0..257 {
        let _ = original.step();
    }

    let mut clone = original.clone();
    let mut fresh = Simulator::build(&net, &matrix, 0.8).unwrap();
    clone.reset(18);
    fresh.reset(18);
    clone.set_resubmission(true);
    fresh.set_resubmission(true);
    for cycle in 0..2_000u64 {
        if cycle == 500 {
            clone.fault_mask_mut().fail(0).unwrap();
            fresh.fault_mask_mut().fail(0).unwrap();
        }
        if cycle == 900 {
            for sim in [&mut clone, &mut fresh] {
                for bus in 1..4 {
                    sim.fault_mask_mut().fail(bus).unwrap();
                }
            }
        }
        if cycle == 1_100 {
            for sim in [&mut clone, &mut fresh] {
                for bus in 0..4 {
                    sim.fault_mask_mut().repair(bus).unwrap();
                }
            }
        }
        let a = clone.step().clone();
        let b = fresh.step();
        assert_eq!(a.issued, b.issued, "cycle {cycle}: issued");
        assert_eq!(a.active, b.active, "cycle {cycle}: active");
        assert_eq!(a.unreachable, b.unreachable, "cycle {cycle}: unreachable");
        assert_eq!(a.grants, b.grants, "cycle {cycle}: grants");
        assert_eq!(a.waits, b.waits, "cycle {cycle}: waits");
    }

    // Whole runs too: a clone of a used simulator reports what a fresh one
    // does.
    let from_clone = original.clone().run(&config).unwrap();
    let from_fresh = Simulator::build(&net, &matrix, 0.8)
        .unwrap()
        .run(&config)
        .unwrap();
    assert_eq!(report_hash(&from_clone), report_hash(&from_fresh));
    assert_eq!(from_clone, from_fresh);
}
