//! Depth-1 reconciliation: a one-level fabric *is* the flat network.
//!
//! [`FabricSimulator`] delegates depth-1 fabrics to the flat engine over
//! [`ClusteredBuses::flatten`], so its [`FabricReport::flat`] report must
//! be **bit-identical** to running [`mbus_sim::Simulator`] directly — and
//! must therefore also hash to the flat engine's golden values from
//! `crates/sim/tests/golden.rs` for the Full-connection scenarios (a
//! depth-1 fabric flattens to a Full network by construction).

use mbus_fabric::{ClusteredBuses, FabricSimulator};
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig, SimReport, Simulator};
use mbus_workload::{HierarchicalModel, Hierarchy, RequestMatrix, RequestModel};

/// FNV-1a over every field of the report, in declaration order — the same
/// fold as `crates/sim/tests/golden.rs` so hashes are comparable.
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

fn depth1_fabric(n: usize, buses: usize) -> ClusteredBuses {
    ClusteredBuses::new(Hierarchy::paired(&[n]).unwrap(), buses, 1).unwrap()
}

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

/// The flat-engine golden scenarios a depth-1 fabric can express (Full
/// connection, 16×16×4): name, rate, config, expected hash from
/// `crates/sim/tests/golden.rs`.
fn golden_scenarios() -> Vec<(&'static str, f64, SimConfig, u64)> {
    let base = |seed: u64| SimConfig::new(5_000).with_warmup(500).with_seed(seed);
    vec![
        ("full", 0.75, base(23456), 0x1c378e7b47081c29),
        (
            "full-resubmission",
            0.9,
            base(67890).with_resubmission(true),
            0x63e0ca15f8eda29b,
        ),
        (
            "full-faulted",
            1.0,
            base(78901).with_faults(
                FaultSchedule::from_events(vec![
                    FaultEvent {
                        cycle: 1_000,
                        bus: 1,
                        kind: FaultEventKind::Fail,
                    },
                    FaultEvent {
                        cycle: 3_000,
                        bus: 1,
                        kind: FaultEventKind::Repair,
                    },
                ])
                .unwrap(),
            ),
            0x17fbfe9a826f3bba,
        ),
    ]
}

/// The depth-1 fabric's embedded flat report equals a direct flat run,
/// field for field (f64 bit patterns included).
#[test]
fn depth1_report_is_bit_identical_to_flat_simulator() {
    for (name, rate, config, _) in golden_scenarios() {
        let topo = depth1_fabric(16, 4);
        let matrix = hier_matrix(16);
        let fabric_report = FabricSimulator::build(&topo, &matrix, rate)
            .unwrap()
            .run(&config)
            .unwrap();
        let flat = fabric_report
            .flat
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: depth-1 run carries no flat report"));
        let direct = Simulator::build(&topo.flatten().unwrap(), &matrix, rate)
            .unwrap()
            .run(&config)
            .unwrap();
        assert_eq!(*flat, direct, "{name}: depth-1 diverged from flat engine");
        // The fabric-level aggregates must agree with the flat report too.
        assert_eq!(fabric_report.bandwidth, direct.bandwidth, "{name}");
        assert_eq!(fabric_report.acceptance, direct.acceptance, "{name}");
        // The whole flat network is the fabric's single local link, so the
        // link utilization is the alive-weighted pool of the bus values.
        assert_eq!(fabric_report.link_utilization.len(), 1, "{name}");
        let busy: f64 = direct
            .bus_utilization
            .iter()
            .zip(&direct.bus_alive_cycles)
            .map(|(&util, &alive)| (util * alive as f64).round())
            .sum();
        let alive: u64 = direct.bus_alive_cycles.iter().sum();
        assert!(
            (fabric_report.link_utilization[0] - busy / alive as f64).abs() < 1e-12,
            "{name}: pooled link utilization drifted"
        );
    }
}

/// Depth-1 runs hash to the flat engine's golden values — the fabric is
/// pinned to the same frozen behavior as the flat engine.
#[test]
fn depth1_reports_match_flat_goldens() {
    for (name, rate, config, expected) in golden_scenarios() {
        let topo = depth1_fabric(16, 4);
        let matrix = hier_matrix(16);
        let report = FabricSimulator::build(&topo, &matrix, rate)
            .unwrap()
            .run(&config)
            .unwrap();
        let flat = report
            .flat
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: depth-1 run carries no flat report"));
        let hash = report_hash(flat);
        assert_eq!(
            hash, expected,
            "{name}: depth-1 hash {hash:#018x} != flat golden {expected:#018x}"
        );
    }
}
