//! Property tests for the arbiter's fault-path invariants.
//!
//! The two-stage arbiter holds `winners[memory]` entries for exactly the
//! memories that elected a stage-1 winner, and its scheme-specific stage-2
//! paths recover the winning processor with `winners[memory].expect(...)`
//! (see `arbiter.rs`). That invariant must survive every fault schedule:
//! buses dying mid-cycle-stream, dying before measurement starts, dying
//! and being repaired repeatedly, or all dying at once — with and without
//! resubmission, on every connection scheme. These properties drive random
//! fault schedules through full runs and assert the engine finishes with a
//! self-consistent report instead of panicking.

use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, Simulator};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::RequestMatrix;
use proptest::prelude::*;

/// Builds one of the five connection schemes over an `m`-memory,
/// `b`-bus network; `m` is kept a multiple of `b` (and of 2) so the
/// partitioned schemes are always constructible.
fn scheme(index: usize, m: usize, b: usize) -> ConnectionScheme {
    match index {
        0 => ConnectionScheme::Full,
        1 => ConnectionScheme::balanced_single(m, b).unwrap(),
        2 => ConnectionScheme::PartialGroups { groups: 2 },
        3 => ConnectionScheme::uniform_classes(m, b).unwrap(),
        _ => ConnectionScheme::Crossbar,
    }
}

/// A skewed but valid request row: mass concentrated on the first
/// memories, so faulted buses see real backpressure.
fn skewed_matrix(n: usize, m: usize) -> RequestMatrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|p| {
            let favorite = p % m;
            (0..m)
                .map(|j| {
                    if j == favorite {
                        0.5
                    } else {
                        0.5 / (m - 1) as f64
                    }
                })
                .collect()
        })
        .collect();
    RequestMatrix::from_rows(rows).unwrap()
}

/// Random fault events over `b` buses and the first 600 cycles. Same-cycle
/// Fail/Repair conflicts on one bus are rejected by `from_events`, so the
/// strategy spreads events across distinct (cycle, bus) slots.
fn fault_schedule_strategy(b: usize) -> impl Strategy<Value = FaultSchedule> {
    proptest::collection::vec((0u64..600, 0..b, any::<bool>()), 0..12).prop_map(move |raw| {
        let mut seen = std::collections::HashSet::new();
        let events: Vec<FaultEvent> = raw
            .into_iter()
            .filter(|(cycle, bus, _)| seen.insert((*cycle, *bus)))
            .map(|(cycle, bus, fail)| FaultEvent {
                cycle,
                bus,
                kind: if fail {
                    FaultEventKind::Fail
                } else {
                    FaultEventKind::Repair
                },
            })
            .collect();
        FaultSchedule::from_events(events).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fault schedule, any scheme, any request pressure: `run` must
    /// return `Ok` (the arbiter's winner invariant holds) and the report
    /// must stay self-consistent.
    #[test]
    fn arbiter_survives_random_fault_schedules(
        scheme_index in 0usize..5,
        n in 2usize..=12,
        b in prop_oneof![Just(2usize), Just(4usize)],
        r in 0.1f64..=1.0,
        resubmission in any::<bool>(),
        seed in any::<u64>(),
        warmup in 0u64..=100,
        faults in fault_schedule_strategy(4),
    ) {
        let m = b * 4;
        // Keep fault events inside the actual bus range for this b.
        let faults = FaultSchedule::from_events(
            faults
                .events()
                .iter()
                .map(|e| FaultEvent { bus: e.bus % b, ..*e })
                .collect(),
        );
        prop_assume!(faults.is_ok());
        let faults = faults.unwrap();
        let buses = if scheme_index == 4 { 1 } else { b };
        let net = BusNetwork::new(n, m, buses, scheme(scheme_index, m, b)).unwrap();
        let matrix = skewed_matrix(n, m);
        let mut config = SimConfig::new(400)
            .with_warmup(warmup)
            .with_seed(seed)
            .with_resubmission(resubmission);
        if scheme_index != 4 {
            // The crossbar has no buses to fail; everywhere else, apply
            // the random schedule.
            config = config.with_faults(faults);
        }
        let report = Simulator::build(&net, &matrix, r).unwrap().run(&config).unwrap();
        prop_assert_eq!(report.cycles, 400);
        prop_assert!(report.bandwidth.mean() >= 0.0);
        prop_assert!(report.bandwidth.mean() <= n as f64 + 1e-9);
        for (bus, &alive) in report.bus_alive_cycles.iter().enumerate() {
            prop_assert!(alive <= report.cycles, "bus {} alive > cycles", bus);
            prop_assert!(
                report.bus_utilization[bus] >= 0.0 && report.bus_utilization[bus] <= 1.0,
                "bus {} utilization out of range", bus
            );
        }
    }

    /// The degenerate extreme: every bus fails at cycle 0 and nothing is
    /// repaired. Every request is unreachable; the arbiter must grant
    /// nothing rather than panic on an empty alive set.
    #[test]
    fn arbiter_survives_total_bus_failure(
        scheme_index in 0usize..4,
        n in 2usize..=12,
        resubmission in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, b) = (8, 2);
        let all_dead = FaultSchedule::from_events(
            (0..b)
                .map(|bus| FaultEvent { cycle: 0, bus, kind: FaultEventKind::Fail })
                .collect(),
        )
        .unwrap();
        let net = BusNetwork::new(n, m, b, scheme(scheme_index, m, b)).unwrap();
        let matrix = skewed_matrix(n, m);
        let config = SimConfig::new(200)
            .with_seed(seed)
            .with_resubmission(resubmission)
            .with_faults(all_dead);
        let report = Simulator::build(&net, &matrix, 1.0).unwrap().run(&config).unwrap();
        prop_assert_eq!(report.bandwidth.mean(), 0.0);
        prop_assert!(report.unreachable_rate > 0.0);
        for &alive in &report.bus_alive_cycles {
            prop_assert_eq!(alive, 0);
        }
    }
}
