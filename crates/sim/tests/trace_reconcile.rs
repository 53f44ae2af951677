//! Differential suite for the trace capture path.
//!
//! Two guarantees, per ISSUE acceptance:
//!
//! 1. **Tracing must be free when disabled and invisible when enabled**:
//!    `run_traced` must produce a [`SimReport`] equal, field for field
//!    (f64 bit patterns included), to the untraced `run` — which is itself
//!    pinned to the golden hashes in `tests/golden.rs`. Any RNG draw or
//!    arbitration reorder introduced by the trace hook shows up here.
//!
//! 2. **The analyzer must reconcile exactly with the collector**: per-bus
//!    busy/alive/utilization bitwise equal, per-memory and per-processor
//!    served counts equal, wait histogram totals equal, and — under
//!    resubmission — grant delays summing to the blocked-request counts.

use mbus_sim::{SimConfig, SimReport, Simulator};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_trace::{analyze, CycleRecord, TraceReader};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel};

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

/// The same scenario grid as `tests/golden.rs`: every connection scheme,
/// plus the resubmission and fault-schedule paths.
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
    ]
}

fn traced(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
) -> (SimReport, Vec<u8>) {
    Simulator::build(net, matrix, r)
        .unwrap()
        .run_traced(config, Vec::new())
        .unwrap()
}

fn served_total(report: &SimReport) -> u64 {
    report
        .served_histogram
        .iter()
        .map(|(value, count)| value as u64 * count)
        .sum()
}

/// A traced run must return the exact report an untraced run returns —
/// which `tests/golden.rs` pins to the golden hashes, so this transitively
/// asserts trace capture never perturbs the golden behavior.
#[test]
fn traced_runs_match_untraced_reports_exactly() {
    for (name, net, matrix, r, config) in scenarios() {
        let untraced = Simulator::build(&net, &matrix, r)
            .unwrap()
            .run(&config)
            .unwrap();
        let (report, bytes) = traced(&net, &matrix, r, &config);
        assert_eq!(untraced, report, "{name}: tracing changed the report");
        assert!(!bytes.is_empty(), "{name}: trace sink stayed empty");
    }
}

/// The analyzer's per-bus, per-memory, per-processor, and wait totals must
/// reconcile *exactly* (bitwise for the f64s) with the collector's report.
#[test]
fn analyzer_reconciles_with_sim_report() {
    for (name, net, matrix, r, config) in scenarios() {
        let (report, bytes) = traced(&net, &matrix, r, &config);
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let analysis = analyze(&mut reader).unwrap();

        assert_eq!(analysis.cycles, report.cycles, "{name}: cycle count");
        assert_eq!(
            analysis.bus_alive_cycles(),
            report.bus_alive_cycles,
            "{name}: alive cycles"
        );
        let util = analysis.bus_utilization();
        assert_eq!(util.len(), report.bus_utilization.len(), "{name}");
        for (bus, (a, b)) in util.iter().zip(&report.bus_utilization).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: bus {bus} utilization {a} != {b} (not bitwise equal)"
            );
        }

        // Served counts: the collector reports rates (count / cycles); the
        // analyzer keeps raw counts. Recompute with the identical
        // expression and demand bitwise equality.
        let cycles = report.cycles.max(1) as f64;
        for (memory, stats) in analysis.memories.iter().enumerate() {
            let rate = stats.served as f64 / cycles;
            assert_eq!(
                rate.to_bits(),
                report.memory_service_rates[memory].to_bits(),
                "{name}: memory {memory} service rate"
            );
        }
        for (processor, &count) in analysis.processor_served.iter().enumerate() {
            let rate = count as f64 / cycles;
            assert_eq!(
                rate.to_bits(),
                report.processor_service_rates[processor].to_bits(),
                "{name}: processor {processor} service rate"
            );
        }

        // Grand totals: analyzer served == histogram mass == Σ bus busy
        // (every grant occupies exactly one bus; crossbar grants carry no
        // bus, so skip that side there).
        let served = served_total(&report);
        assert_eq!(analysis.served, served, "{name}: served total");
        assert_eq!(
            analysis.wait_histogram.count(),
            served,
            "{name}: one wait sample per grant"
        );
        let busy: u64 = analysis.buses.iter().map(|b| b.busy_cycles).sum();
        if net.scheme().kind() != mbus_topology::SchemeKind::Crossbar {
            assert_eq!(busy, served, "{name}: grants must map 1:1 onto buses");
        }

        // Wait moments: max exact, mean within float-summation slack (the
        // collector uses a streaming Welford mean).
        assert_eq!(
            analysis.wait_histogram.max_value().unwrap_or(0) as u64,
            report.max_wait,
            "{name}: max wait"
        );
        let mean = if served == 0 {
            0.0
        } else {
            analysis.waits_total as f64 / served as f64
        };
        assert!(
            (mean - report.mean_wait).abs() < 1e-9,
            "{name}: mean wait {mean} vs {}",
            report.mean_wait
        );

        // Identities that must hold for any trace.
        assert_eq!(
            analysis.blocked_histogram.count(),
            analysis.cycles,
            "{name}: one blocked sample per cycle"
        );
        assert!(
            analysis.active >= analysis.unreachable + analysis.served,
            "{name}: active covers drops and grants"
        );
        if !config.resubmission {
            assert_eq!(
                analysis.waits_total, 0,
                "{name}: drop semantics serve same-cycle only"
            );
        }
    }
}

/// Under resubmission, grant delays must sum to the resubmission
/// (blocked-request) counts: every cycle a request spends blocked either
/// lands in some grant's `wait` or in the backlog still pending when the
/// run ends. With `r = 1` every processor always has a request in flight,
/// so the final backlog ages are exactly `last_cycle - last_grant_cycle`
/// per processor — recoverable from the trace itself.
#[test]
fn resubmission_delays_sum_to_blocked_counts() {
    let n = 4;
    let net = BusNetwork::new(n, n, 1, ConnectionScheme::Full).unwrap();
    let matrix = RequestMatrix::from_rows(
        (0..n)
            .map(|p| (0..n).map(|m| f64::from(u8::from(m == p))).collect())
            .collect(),
    )
    .unwrap();
    // No warmup: waits accrued before measurement would otherwise leak
    // into grant delays without appearing in the trace's blocked counts.
    let config = SimConfig::new(2_000)
        .with_seed(424_242)
        .with_resubmission(true);
    let (report, bytes) = traced(&net, &matrix, 1.0, &config);

    // Walk the raw trace: when was each processor last granted?
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let mut record = CycleRecord::default();
    let mut last_grant = vec![-1i64; n];
    let mut cycle = 0i64;
    while reader.next_cycle(&mut record).unwrap() {
        for grant in &record.grants {
            last_grant[grant.processor] = cycle;
        }
        cycle += 1;
    }
    let backlog_age: i64 = last_grant.iter().map(|&t| cycle - 1 - t).sum();

    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let analysis = analyze(&mut reader).unwrap();
    assert_eq!(analysis.cycles, report.cycles);
    // One bus, four always-on processors: one grant and three blocked
    // requests per cycle, every cycle.
    assert_eq!(analysis.served, report.cycles);
    assert_eq!(analysis.blocked_total, 3 * report.cycles);
    assert_eq!(
        analysis.waits_total + backlog_age as u64,
        analysis.blocked_total,
        "every blocked cycle-request is either a served delay or final backlog"
    );
    assert!(report.mean_wait > 0.0);
}

/// The acceptance scenario: a single-assignment network where all traffic
/// targets bus 0's memories. The analyzer must rank bus 0 first, and the
/// ranking must be driven by pressure (queue left unserved), not bare
/// utilization.
#[test]
fn analyzer_ranks_the_known_bottleneck_bus() {
    let scheme = ConnectionScheme::balanced_single(4, 2).unwrap();
    let net = BusNetwork::new(8, 4, 2, scheme).unwrap();
    // Memories {0, 1} live on bus 0, {2, 3} on bus 1. 90% of every
    // processor's traffic goes to bus 0's memories.
    let row = vec![0.45, 0.45, 0.05, 0.05];
    let matrix = RequestMatrix::from_rows(vec![row; 8]).unwrap();
    let config = SimConfig::new(4_000)
        .with_warmup(200)
        .with_seed(9_876)
        .with_resubmission(true);
    let (report, bytes) = traced(&net, &matrix, 1.0, &config);
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let analysis = analyze(&mut reader).unwrap();

    assert_eq!(
        analysis.bottlenecks.first(),
        Some(&0),
        "bus 0 is overloaded"
    );
    assert!(
        analysis.buses[0].pressure > analysis.buses[1].pressure,
        "pressure separates the buses: {:?}",
        analysis.bottlenecks
    );
    assert!(
        analysis.buses[0].blocked_share > analysis.buses[1].blocked_share,
        "backpressure concentrates on bus 0"
    );
    // Sanity: the ranking agrees with the collector's view of the run.
    assert!(report.bus_utilization[0] >= report.bus_utilization[1]);
    assert!(analysis.memories[0].blocked + analysis.memories[1].blocked > 0);
}
