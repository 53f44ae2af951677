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
//! resubmission, and a fail/repair schedule. One-word (`N ≤ 8`) and
//! multi-word outcome-byte rows both run the K-class and crossbar scans;
//! the K-class runs add a fail/repair schedule, an outage that leaves
//! whole classes without a bus, and resubmission on uneven classes with
//! `K < B`. No K-class layout here has a class wider than eight memories,
//! so on a CPU with AVX-512F and AVX-512BW every one of them runs stage 2
//! through the eight-lane kernel, and elsewhere through the per-lane draw
//! (`batched::dispatch`). Each runs 1 100 measured
//! cycles, so any per-unit tally that is kept in narrow counters and
//! flushed periodically crosses its flush boundary several times.
//!
//! The hash folds every field of every lane's [`SimReport`] (f64 bit
//! patterns included), so a mismatch means an observable behavior change.

#[path = "support/batched_scenarios.rs"]
mod batched_scenarios;

use batched_scenarios::scenarios;
use mbus_sim::batched::run_batch;
use mbus_sim::SimReport;

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

/// Golden hashes (same order as [`scenarios`]). The first nine were
/// captured before the grant scans and per-unit tallies were rewritten,
/// the last five before the stage-1 picks gained a BMI2 build; both
/// rewrites reproduce them unchanged. Regenerate only for a deliberate,
/// documented change to the batched sampling spec.
const EXPECTED: &[(&str, u64)] = &[
    ("full-8-hier-r1", 0x496e88233e892800),
    ("partial-8-uniform-r05-resubmission", 0x5f3545a0002abbfd),
    ("single-16-hier-r1-faulted", 0x956bb8a2fa02dcee),
    ("kclass-16-uniform-r05", 0x1ee48929d7674ed9),
    ("full-64-uniform-r1-resubmission", 0x496daa2469d9ddc8),
    ("single-64-hier-r05", 0xcf80d1e911de78f2),
    (
        "partial-64-hier-r1-faulted-resubmission",
        0x6c9c596e834a7f71,
    ),
    ("kclass-64-hier-r1", 0xcdc82c24bd235d86),
    ("crossbar-64-uniform-r05", 0xa423e0f876e17a22),
    ("kclass-8-hier-r1", 0x3a78a5f010cb2bfc),
    ("crossbar-8-uniform-r05", 0xd0c2c844d2ff121a),
    ("kclass-16-hier-r1-faulted", 0x321775d594682261),
    ("kclass-8-uniform-r1-class-outage", 0x6635f462586153ba),
    ("kclass-16-uniform-r05-resubmission", 0xb723fcafc025377c),
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
