//! Golden hashes for routed (depth ≥ 2) fabric runs.
//!
//! `golden_depth1.rs` pins only the depth-1 delegation to the flat engine;
//! these cases pin the routed engine itself. Each case folds every
//! [`FabricReport`] field into an FNV-1a hash (f64 bit patterns
//! included), so any change to the RNG call order, the per-link
//! arbitration, the fault handling or the tallies shows up as a changed
//! hash. The hashes were recorded before the engine's route lookup was
//! restructured and must never change without a deliberate behavior
//! change.

use mbus_fabric::{locality_shares, ClusteredBuses, FabricReport, FabricSimulator};
use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
use mbus_workload::{HierarchicalModel, Hierarchy, RequestModel};

struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }
    fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for &value in values {
            self.f64(value);
        }
    }
    fn u64s(&mut self, values: &[u64]) {
        self.u64(values.len() as u64);
        for &value in values {
            self.u64(value);
        }
    }
}

/// FNV-1a over every field of a routed report, in declaration order.
fn report_hash(report: &FabricReport) -> u64 {
    assert!(report.flat.is_none(), "routed runs carry no flat report");
    let mut h = Fnv(Fnv::OFFSET);
    h.u64(report.cycles);
    h.u64(report.warmup);
    h.f64(report.bandwidth.mean());
    h.f64(report.bandwidth.half_width());
    h.f64(report.bandwidth.level());
    h.f64(report.offered_load);
    h.f64(report.acceptance);
    h.f64(report.unreachable_rate);
    h.f64s(&report.link_utilization);
    h.u64s(&report.link_carried);
    h.u64s(&report.link_blocked);
    h.u64s(&report.link_alive_cycles);
    h.f64s(&report.memory_service_rates);
    h.f64s(&report.processor_service_rates);
    h.f64s(&report.cluster_service_rates);
    h.f64(report.mean_wait);
    h.u64(report.max_wait);
    h.f64(report.mean_hops);
    h.0
}

/// One pinned routed run.
struct Case {
    name: String,
    ks: Vec<usize>,
    local_buses: usize,
    uplink_width: usize,
    locality: f64,
    rate: f64,
    config: SimConfig,
}

impl Case {
    fn simulator(&self) -> FabricSimulator {
        let hierarchy = Hierarchy::paired(&self.ks).unwrap();
        let topo = ClusteredBuses::new(hierarchy, self.local_buses, self.uplink_width).unwrap();
        let shares = locality_shares(topo.depth(), self.locality);
        let matrix = HierarchicalModel::with_aggregate_shares(topo.hierarchy().clone(), &shares)
            .unwrap()
            .matrix();
        let sim = FabricSimulator::build(&topo, &matrix, self.rate).unwrap();
        assert!(!sim.is_flat(), "{}: golden cases must be routed", self.name);
        sim
    }
}

fn config(seed: u64) -> SimConfig {
    SimConfig::new(4_000).with_warmup(400).with_seed(seed)
}

/// The shape × rate × locality grid, plus an uplink-width-2 run (the
/// Fisher–Yates width draw on uplinks) and a link fail/repair run.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut seed = 1_000;
    for (ks, local_buses) in [
        (vec![2usize, 4], 2usize),
        (vec![4, 4], 2),
        (vec![2, 2, 2], 1),
    ] {
        for rate in [0.5, 0.75, 1.0] {
            for locality in [0.7, 0.2] {
                seed += 1;
                cases.push(Case {
                    name: format!("ks{ks:?} r{rate} loc{locality}"),
                    ks: ks.clone(),
                    local_buses,
                    uplink_width: 1,
                    locality,
                    rate,
                    config: config(seed),
                });
            }
        }
    }
    cases.push(Case {
        name: "ks[4, 4] uplink-width-2".into(),
        ks: vec![4, 4],
        local_buses: 3,
        uplink_width: 2,
        locality: 0.2,
        rate: 0.9,
        config: config(2_001),
    });
    // ks [4, 4] links: local groups 0..4, uplinks 4..8. Fail leaf 1's
    // uplink and leaf 2's local group mid-run and repair them later.
    let schedule = FaultSchedule::from_events(vec![
        FaultEvent {
            cycle: 900,
            bus: 5,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 1_500,
            bus: 2,
            kind: FaultEventKind::Fail,
        },
        FaultEvent {
            cycle: 2_600,
            bus: 5,
            kind: FaultEventKind::Repair,
        },
        FaultEvent {
            cycle: 3_300,
            bus: 2,
            kind: FaultEventKind::Repair,
        },
    ])
    .unwrap();
    cases.push(Case {
        name: "ks[4, 4] fail-repair".into(),
        ks: vec![4, 4],
        local_buses: 2,
        uplink_width: 1,
        locality: 0.2,
        rate: 0.75,
        config: config(2_002).with_faults(schedule),
    });
    cases
}

/// Expected hashes, in [`cases`] order.
const GOLDEN: [u64; 20] = [
    // ks [2, 4]: (r 0.5, 0.75, 1.0) × (locality 0.7, 0.2)
    0xb49697368d2eca0b,
    0x0633412ad5f442e6,
    0x2db6ccad63fe8d6b,
    0xce9922b8fe89aaad,
    0x569eff7383ac9517,
    0xf2da3c3de57b398f,
    // ks [4, 4]
    0xe425b49c05e54a5a,
    0x08f673d1abbf7d59,
    0x8a5ecd3047769382,
    0x50f02beeb2781f17,
    0x2cb7cddd446e60b7,
    0xd56d69087a7ee151,
    // ks [2, 2, 2]
    0x5f84123cc1056274,
    0x38925a39ca5c219b,
    0x154ebdc107eb98c5,
    0x51d4b471d5f57cf1,
    0xe7fd992670e9945b,
    0x0b7d323ba52d25fd,
    // uplink width 2
    0xffe1cfbfbd8f250d,
    // fail/repair schedule
    0xd893075de70c9f56,
];

#[test]
fn routed_reports_match_goldens() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let mut failures = Vec::new();
    for (case, &expected) in cases.iter().zip(&GOLDEN) {
        let report = case.simulator().run(&case.config).unwrap();
        assert!(report.cycles >= 4_000, "{}: too few cycles", case.name);
        if case.uplink_width > 1 {
            // Uplinks have no stage 1, so a blocked uplink grant means the
            // width draw ran there.
            let uplink_blocked: u64 = report.link_blocked[4..].iter().sum();
            assert!(uplink_blocked > 0, "{}: width draw never ran", case.name);
        }
        if !case.config.faults.is_empty() {
            assert!(report.unreachable_rate > 0.0, "{}: no fault bit", case.name);
        }
        // One hop per cycle: losers are dropped, so a delivered request
        // won a hop on every cycle it was in flight, and no route is
        // longer than 2 · depth links.
        assert!(
            (report.mean_wait - (report.mean_hops - 1.0)).abs() < 1e-9,
            "{}: mean wait {} != mean hops {} - 1",
            case.name,
            report.mean_wait,
            report.mean_hops
        );
        assert!(
            report.max_wait < 2 * case.ks.len() as u64,
            "{}: max wait {} reaches 2 · depth",
            case.name,
            report.max_wait
        );
        let hash = report_hash(&report);
        if hash != expected {
            failures.push(format!(
                "{}: hash {hash:#018x} != golden {expected:#018x}",
                case.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "routed goldens moved:\n{}",
        failures.join("\n")
    );
}

/// The `MBT1` trace of a routed run records every per-hop grant; pin its
/// bytes too, so the grant order within a cycle cannot drift.
#[test]
fn routed_trace_bytes_match_golden() {
    let case = Case {
        name: "ks[2, 2, 2] traced".into(),
        ks: vec![2, 2, 2],
        local_buses: 1,
        uplink_width: 1,
        locality: 0.2,
        rate: 0.75,
        config: config(3_001),
    };
    let (report, bytes) = case
        .simulator()
        .run_traced(&case.config, Vec::new())
        .unwrap();
    let mut h = Fnv(Fnv::OFFSET);
    h.bytes(&bytes);
    let (trace_hash, hash) = (h.0, report_hash(&report));
    assert_eq!(
        (trace_hash, hash),
        (0x3255b31442c01e48, 0xb48b569e88c6a936),
        "trace {trace_hash:#018x}, report {hash:#018x}"
    );
}
