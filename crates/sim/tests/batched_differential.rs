//! Differential suite for the batched SoA replication engine.
//!
//! The batched engine (`mbus_sim::batched::run_batch`) and the naive
//! per-seed reference (`run_reference`) implement one sampling spec with
//! deliberately disjoint machinery: lane-wide mask algebra with
//! mask-specialized grant scans on one side, `Vec`-based scalar
//! bookkeeping driving the *production* `grant_buses` arbiters on the
//! other. These tests hold every lane of a batch bit-identical
//! (`SimReport` `PartialEq`, which compares every `f64` exactly) to the
//! corresponding reference seed — across all five connection schemes,
//! fault schedules, resubmission, and a randomized configuration sweep —
//! and cross-check the batched spec statistically against the scalar
//! `Simulator`.

use mbus_sim::batched::{run_batch, run_reference, MAX_LANES};
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, Simulator};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

fn uniform_matrix(n: usize, m: usize) -> RequestMatrix {
    RequestMatrix::from_rows(vec![vec![1.0 / m as f64; m]; n]).unwrap()
}

/// The five schemes of the paper at a fixed 8 × 8 × 4 geometry
/// (crossbar: B is a placeholder).
fn schemes() -> Vec<(&'static str, BusNetwork)> {
    vec![
        (
            "full",
            BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap(),
        ),
        (
            "single",
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap(),
        ),
        (
            "partial",
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
        ),
        (
            "kclasses",
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 4).unwrap()).unwrap(),
        ),
        (
            "crossbar",
            BusNetwork::new(8, 8, 1, ConnectionScheme::Crossbar).unwrap(),
        ),
    ]
}

fn assert_lanes_match(
    label: &str,
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    seeds: &[u64],
) {
    let batched = run_batch(net, matrix, r, config, seeds).expect("batched run");
    let reference = run_reference(net, matrix, r, config, seeds).expect("reference run");
    assert_eq!(batched.len(), seeds.len());
    for (lane, (got, want)) in batched.iter().zip(&reference).enumerate() {
        assert_eq!(
            got, want,
            "{label}: lane {lane} (seed {}) diverged from the reference",
            seeds[lane]
        );
    }
}

#[test]
fn every_scheme_matches_reference_on_a_full_64_lane_batch() {
    let seeds: Vec<u64> = (0..MAX_LANES as u64).map(|i| 9_000 + i).collect();
    let config = SimConfig::new(400).with_warmup(50).with_batch_len(40);
    for (label, net) in schemes() {
        let matrix = hier_matrix(net.processors());
        assert_lanes_match(label, &net, &matrix, 0.8, &config, &seeds);
    }
}

#[test]
fn resubmission_lanes_match_reference() {
    let seeds: Vec<u64> = (0..16u64).map(|i| 33 * i + 5).collect();
    let config = SimConfig::new(300)
        .with_warmup(30)
        .with_batch_len(25)
        .with_resubmission(true);
    for (label, net) in schemes() {
        let matrix = hier_matrix(net.processors());
        assert_lanes_match(label, &net, &matrix, 0.9, &config, &seeds);
    }
}

#[test]
fn fault_schedules_match_reference() {
    // Fail two buses mid-warmup, repair one mid-measurement: exercises the
    // unreachable filter, degraded grant scans, and pointer gating.
    let seeds: Vec<u64> = (0..24u64).map(|i| 7_777 + i).collect();
    let faults = FaultSchedule::from_events(vec![
        FaultEvent {
            cycle: 20,
            bus: 0,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 60,
            bus: 1,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 180,
            bus: 0,
            kind: FaultEventKind::Repair,
        },
    ])
    .unwrap();
    for resubmission in [false, true] {
        let config = SimConfig::new(250)
            .with_warmup(40)
            .with_batch_len(25)
            .with_resubmission(resubmission)
            .with_faults(faults.clone());
        for (label, net) in schemes() {
            if net.buses() < 2 {
                continue; // crossbar: bus 1 does not exist
            }
            let matrix = hier_matrix(net.processors());
            assert_lanes_match(label, &net, &matrix, 1.0, &config, &seeds);
        }
    }
}

#[test]
fn extreme_rates_match_reference() {
    let seeds = [1u64, 2, 3, 4];
    let config = SimConfig::new(120).with_warmup(10).with_batch_len(12);
    for (label, net) in schemes() {
        let matrix = hier_matrix(net.processors());
        for r in [0.0, 1.0] {
            assert_lanes_match(label, &net, &matrix, r, &config, &seeds);
        }
    }
}

/// Hand-rolled property sweep (the workspace vendors no proptest):
/// randomized geometry, scheme, rate, resubmission, and fault schedule,
/// every case checked lane-for-lane against the reference. The sweep
/// must reach K-class networks with fewer classes than buses and with
/// uneven class sizes.
#[test]
fn randomized_configurations_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let (mut fewer_classes_than_buses, mut uneven_classes) = (0, 0);
    for case in 0..60 {
        let n = rng.random_range(1..17usize);
        let m = rng.random_range(1..17usize);
        let scheme_pick = rng.random_range(0..5usize);
        let (scheme, b) = match scheme_pick {
            0 => (ConnectionScheme::Full, rng.random_range(1..=m.min(8))),
            1 => {
                let b = rng.random_range(1..=m.min(6));
                (ConnectionScheme::balanced_single(m, b).unwrap(), b)
            }
            2 => {
                // groups must divide both M and B.
                let g = *[1usize, 2, 4].iter().rfind(|&&g| m % g == 0).unwrap();
                (ConnectionScheme::PartialGroups { groups: g }, g)
            }
            3 => {
                // K ≤ B buses, classes either as even as `uniform_classes`
                // makes them (it spreads `m % k` over the lowest classes)
                // or an explicit random split of the memories.
                let k = rng.random_range(1..=m.min(4));
                let b = rng.random_range(k..=m.min(6).max(k));
                let scheme = if rng.random::<bool>() {
                    ConnectionScheme::uniform_classes(m, k).unwrap()
                } else {
                    let mut class_sizes = vec![1usize; k];
                    for _ in k..m {
                        class_sizes[rng.random_range(0..k)] += 1;
                    }
                    ConnectionScheme::KClasses { class_sizes }
                };
                (scheme, b)
            }
            _ => (ConnectionScheme::Crossbar, 1),
        };
        let net = match BusNetwork::new(n, m, b, scheme) {
            Ok(net) => net,
            Err(_) => continue,
        };
        let r = rng.random::<f64>();
        let resubmission = rng.random::<f64>() < 0.5;
        let cycles = rng.random_range(40..160u64);
        let warmup = rng.random_range(0..30u64);
        let mut events = Vec::new();
        let mut mask_alive = vec![true; net.buses()];
        for _ in 0..rng.random_range(0..4usize) {
            let bus = rng.random_range(0..net.buses());
            let cycle = rng.random_range(0..cycles + warmup);
            let kind = if mask_alive[bus] {
                FaultEventKind::Fail
            } else {
                FaultEventKind::Repair
            };
            mask_alive[bus] = !mask_alive[bus];
            events.push(FaultEvent { cycle, bus, kind });
        }
        events.sort_by_key(|e| e.cycle);
        let faults = match FaultSchedule::from_events(events) {
            Ok(faults) => faults,
            Err(_) => continue, // duplicate same-cycle event on one bus
        };
        let config = SimConfig::new(cycles)
            .with_warmup(warmup)
            .with_batch_len(rng.random_range(1..20u64))
            .with_resubmission(resubmission)
            .with_faults(faults);
        let lanes = rng.random_range(1..=MAX_LANES);
        let seeds: Vec<u64> = (0..lanes as u64).map(|i| case * 1_000 + i).collect();
        let matrix = uniform_matrix(n, m);
        assert_lanes_match(
            &format!("case {case} (N={n} M={m} B={b} scheme {scheme_pick})"),
            &net,
            &matrix,
            r,
            &config,
            &seeds,
        );
        if let ConnectionScheme::KClasses { class_sizes } = net.scheme() {
            fewer_classes_than_buses += usize::from(class_sizes.len() < b);
            uneven_classes += usize::from(class_sizes.iter().any(|&c| c != class_sizes[0]));
        }
    }
    assert!(fewer_classes_than_buses > 0, "no K < B case was drawn");
    assert!(uneven_classes > 0, "no uneven K-class case was drawn");
}

/// The batched spec must agree with the scalar engine *statistically*: at
/// r = 1 on the paper's 8 × 8 × 4 full network both should reproduce the
/// analytical bandwidth ≈ 3.99 (Table II) within tight tolerance.
#[test]
fn batched_agrees_with_scalar_engine_statistically() {
    let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
    let matrix = hier_matrix(8);
    let config = SimConfig::new(10_000).with_warmup(500).with_seed(7);
    let seeds: Vec<u64> = (0..8u64).map(|i| 7 + i).collect();
    let batched = run_batch(&net, &matrix, 1.0, &config, &seeds).expect("batched");
    let batched_mean =
        batched.iter().map(|r| r.bandwidth.mean()).sum::<f64>() / batched.len() as f64;
    let mut scalar_mean = 0.0;
    for &seed in &seeds {
        let report = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config.clone().with_seed(seed))
            .unwrap();
        scalar_mean += report.bandwidth.mean();
    }
    scalar_mean /= seeds.len() as f64;
    assert!(
        (batched_mean - scalar_mean).abs() < 0.05,
        "batched {batched_mean} vs scalar {scalar_mean}"
    );
    assert!(
        (batched_mean - 3.99).abs() < 0.05,
        "Table II: {batched_mean}"
    );
}

/// Lane independence: a lane's report depends only on its seed, not on
/// which other seeds share the batch — the property that lets the runner
/// chunk replications freely across workers.
#[test]
fn lane_reports_are_independent_of_batch_composition() {
    let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
    let matrix = hier_matrix(8);
    let config = SimConfig::new(300).with_warmup(30).with_batch_len(30);
    let wide = run_batch(&net, &matrix, 0.7, &config, &[10, 11, 12, 13, 14]).unwrap();
    let narrow = run_batch(&net, &matrix, 0.7, &config, &[12]).unwrap();
    assert_eq!(wide[2], narrow[0]);
    let pair = run_batch(&net, &matrix, 0.7, &config, &[14, 10]).unwrap();
    assert_eq!(pair[0], wide[4]);
    assert_eq!(pair[1], wide[0]);
}

/// The engine switches contender representation at N = 8 (packed outcome
/// word below, per-memory requester table above). Pin the table path with
/// deterministic large geometries on both sides of the resubmission
/// switch, full 64-lane batches included: N < M, an idle-heavy N > M + 1
/// network (idle processors' zero writes land on real table slots), the
/// saturated r = 1, and the crossbar and K-class scans at 64 × 64.
#[test]
fn large_networks_use_table_path_and_match_reference() {
    let cases = [
        (16usize, 16usize, 8usize, ConnectionScheme::Full, 0.8),
        (
            24,
            12,
            6,
            ConnectionScheme::balanced_single(12, 6).unwrap(),
            0.8,
        ),
        (64, 64, 16, ConnectionScheme::Full, 0.8),
        (12, 40, 10, ConnectionScheme::Full, 0.8),
        (40, 12, 6, ConnectionScheme::Full, 0.3),
        (
            32,
            32,
            8,
            ConnectionScheme::PartialGroups { groups: 2 },
            1.0,
        ),
        (64, 64, 1, ConnectionScheme::Crossbar, 0.8),
        (
            64,
            64,
            4,
            ConnectionScheme::uniform_classes(64, 4).unwrap(),
            0.8,
        ),
    ];
    let seeds: Vec<u64> = (0..MAX_LANES as u64).map(|i| 9_000 + i).collect();
    for (n, m, b, scheme, r) in cases {
        let net = BusNetwork::new(n, m, b, scheme).unwrap();
        let matrix = uniform_matrix(n, m);
        for resubmission in [false, true] {
            let config = SimConfig::new(120)
                .with_warmup(20)
                .with_batch_len(20)
                .with_resubmission(resubmission);
            assert_lanes_match(
                &format!("large N={n} M={m} B={b} r={r} resub={resubmission}"),
                &net,
                &matrix,
                r,
                &config,
                &seeds,
            );
        }
    }
}

/// The scans that walk a bus's or a group's memories in rotating order,
/// at the widths where their masks and shifts reach their limits: the
/// strided single placement (each bus serves a non-contiguous memory
/// set), partial groups of 64 and 32 memories, and K classes at 64 × 64.
/// A mid-run fail/repair schedule changes the alive-bus sets while the
/// per-bus and per-group pointers are live, and 300 measured cycles
/// cross the per-unit tallies' 255-cycle flush boundary.
#[test]
#[cfg_attr(miri, ignore)]
fn rotating_scans_at_full_width_match_reference() {
    let cases = [
        (
            16usize,
            4usize,
            ConnectionScheme::strided_single(16, 4).unwrap(),
        ),
        (64, 16, ConnectionScheme::strided_single(64, 16).unwrap()),
        (64, 16, ConnectionScheme::PartialGroups { groups: 1 }),
        (64, 16, ConnectionScheme::PartialGroups { groups: 2 }),
        (64, 16, ConnectionScheme::uniform_classes(64, 16).unwrap()),
    ];
    let faults = FaultSchedule::from_events(vec![
        FaultEvent {
            cycle: 90,
            bus: 1,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 150,
            bus: 2,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 240,
            bus: 1,
            kind: FaultEventKind::Repair,
        },
    ])
    .unwrap();
    let seeds: Vec<u64> = (0..MAX_LANES as u64).map(|i| 31_000 + 7 * i).collect();
    for (n, b, scheme) in cases {
        let net = BusNetwork::new(n, n, b, scheme).unwrap();
        let matrix = hier_matrix(n);
        for resubmission in [false, true] {
            let config = SimConfig::new(300)
                .with_warmup(40)
                .with_batch_len(30)
                .with_resubmission(resubmission)
                .with_faults(faults.clone());
            assert_lanes_match(
                &format!("{:?} N=M={n} B={b} resub={resubmission}", net.kind()),
                &net,
                &matrix,
                0.9,
                &config,
                &seeds,
            );
        }
    }
}

/// A Miri-sized run of the rotating partial-group scan: 2 lanes, 300
/// measured cycles (one tally flush), resubmission on.
#[test]
fn small_partial_batch_matches_reference() {
    let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
    let config = SimConfig::new(300)
        .with_batch_len(30)
        .with_resubmission(true);
    assert_lanes_match(
        "small partial",
        &net,
        &hier_matrix(8),
        0.9,
        &config,
        &[17, 18],
    );
}

/// Every bus fails for a stretch of the measured window and then comes
/// back, so each bus scheme scans with no alive bus at all and then
/// resumes its rotation.
#[test]
fn total_bus_outage_matches_reference() {
    let mut events = Vec::new();
    for bus in 0..4 {
        events.push(FaultEvent {
            cycle: 60,
            bus,
            kind: FaultEventKind::Fail,
        });
        events.push(FaultEvent {
            cycle: 90 + 10 * bus as u64,
            bus,
            kind: FaultEventKind::Repair,
        });
    }
    events.sort_by_key(|e| e.cycle);
    let faults = FaultSchedule::from_events(events).unwrap();
    let seeds: Vec<u64> = (0..8u64).map(|i| 515 + i).collect();
    for resubmission in [false, true] {
        let config = SimConfig::new(200)
            .with_warmup(20)
            .with_batch_len(20)
            .with_resubmission(resubmission)
            .with_faults(faults.clone());
        for (label, net) in schemes() {
            if net.buses() < 4 {
                continue; // crossbar: no shared buses to lose
            }
            let matrix = hier_matrix(net.processors());
            assert_lanes_match(label, &net, &matrix, 0.9, &config, &seeds);
        }
    }
}
