//! Golden pins for the fault-campaign engine.
//!
//! [`run_campaign`] and [`run_fabric_campaign`] must reproduce, bit for
//! bit, the reports pinned below.
//! The shapes cover every connection scheme (partial at two group counts,
//! K-class at two class counts) at 8×4, 16×8 and 32×16, to ten failures.
//! At 32×16 the levels past `C(16, 5) = 4 368` masks are Monte-Carlo
//! sampled, so both the exhaustive and the sampled paths are pinned. A
//! full 32×20 campaign to nine failures at an exhaustive limit of 10⁶
//! pins the largest exhaustive levels.
//!
//! The hash folds every field of every [`FailureLevelSummary`] (f64 bit
//! patterns included), the healthy and availability-weighted expected
//! bandwidths and the K-class per-class decay table, so any change in the
//! order masks are aggregated in, in which mask is reported as the worst,
//! or in a single breakdown shows up as a mismatch.
//!
//! The fabric pins cover depth 1 to 4 trees, two localities, a truncated
//! campaign and sampled uplink levels; their hash folds every field of
//! the [`FabricCampaignReport`] the same way.

use mbus_campaign::{
    run_campaign, run_fabric_campaign, CampaignConfig, CampaignReport, FabricCampaignReport,
};
use mbus_fabric::FabricSpec;
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestModel};

/// FNV-1a over a stream of integers and f64 bit patterns.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }
    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }
}

/// FNV-1a over the report's numeric fields, in declaration order.
fn report_hash(report: &CampaignReport) -> u64 {
    let mut h = Fnv(Fnv::OFFSET);
    h.f64(report.healthy_bandwidth);
    h.usize(report.levels.len());
    for level in &report.levels {
        h.usize(level.failures);
        h.usize(level.combos_evaluated);
        h.u64(u64::from(level.exhaustive));
        h.f64(level.mean_bandwidth);
        h.f64(level.min_bandwidth);
        h.f64(level.max_bandwidth);
        h.f64(level.mean_accessible_fraction);
        h.f64(level.min_accessible_fraction);
        h.usize(level.worst_mask.len());
        for &bus in &level.worst_mask {
            h.usize(bus);
        }
    }
    h.f64(report.expected_bandwidth);
    match &report.per_class_decay {
        None => h.u64(0),
        Some(decay) => {
            h.u64(1);
            for row in decay {
                h.usize(row.len());
                for &bw in row {
                    h.f64(bw);
                }
            }
        }
    }
    h.0
}

/// The scheme grid at one `n × b` shape.
fn schemes(n: usize, b: usize) -> Vec<(&'static str, ConnectionScheme)> {
    vec![
        ("full", ConnectionScheme::Full),
        ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
        ("partial-g2", ConnectionScheme::PartialGroups { groups: 2 }),
        ("partial-g4", ConnectionScheme::PartialGroups { groups: 4 }),
        (
            "kclass-k2",
            ConnectionScheme::uniform_classes(n, 2).unwrap(),
        ),
        (
            "kclass-k4",
            ConnectionScheme::uniform_classes(n, 4).unwrap(),
        ),
        ("crossbar", ConnectionScheme::Crossbar),
    ]
}

/// Every scenario: a name, the network, the rate and the configuration.
fn scenarios() -> Vec<(String, BusNetwork, f64, CampaignConfig)> {
    let mut out = Vec::new();
    for (n, b) in [(8, 4), (16, 8), (32, 16)] {
        for (name, scheme) in schemes(n, b) {
            let config = CampaignConfig {
                max_failures: Some(b.min(10)),
                ..CampaignConfig::default()
            };
            let net = BusNetwork::new(n, n, b, scheme).unwrap();
            out.push((format!("{name}-{n}x{b}"), net, 0.9, config));
        }
    }
    let config = CampaignConfig {
        max_failures: Some(9),
        exhaustive_limit: 1_000_000,
        ..CampaignConfig::default()
    };
    let net = BusNetwork::new(32, 32, 20, ConnectionScheme::Full).unwrap();
    out.push(("full-32x20-limit-1e6".to_owned(), net, 1.0, config));
    out
}

const EXPECTED: &[(&str, u64)] = &[
    ("full-8x4", 0x6dca680c66700b73),
    ("single-8x4", 0xdf66b9488af0ac68),
    ("partial-g2-8x4", 0x27ada7bdb203d7e8),
    ("partial-g4-8x4", 0x692ae8d05cff187c),
    ("kclass-k2-8x4", 0xc40b629cdb03a3b7),
    ("kclass-k4-8x4", 0x4ba097cdff086688),
    ("crossbar-8x4", 0xccc5729f7057be2d),
    ("full-16x8", 0xfbb2d0399ea6f07a),
    ("single-16x8", 0x480f4ec12f603095),
    ("partial-g2-16x8", 0x9d51c17b4eea2519),
    ("partial-g4-16x8", 0xdc67f7ad07049af0),
    ("kclass-k2-16x8", 0x570010c13ecac015),
    ("kclass-k4-16x8", 0xd39aac79d6a1196a),
    ("crossbar-16x8", 0x05091b4e558af40b),
    ("full-32x16", 0x4b5cdc44c4c16812),
    ("single-32x16", 0x220e65d86bea56d3),
    ("partial-g2-32x16", 0xd1380d0a167b608c),
    ("partial-g4-32x16", 0x07b6b6db14e895cb),
    ("kclass-k2-32x16", 0xc45f2c29c4921d01),
    ("kclass-k4-32x16", 0xfeb72b79ee7d8398),
    ("crossbar-32x16", 0xbc0a2f9ef696a62e),
    ("full-32x20-limit-1e6", 0xac02da4b71f252cb),
];

#[test]
fn campaigns_match_golden_reports() {
    let scenarios = scenarios();
    let mut mismatches = Vec::new();
    for (i, (name, net, r, config)) in scenarios.iter().enumerate() {
        let matrix = HierarchicalModel::two_level_paired(net.processors(), 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let hash = report_hash(&run_campaign(net, &matrix, *r, config).unwrap());
        match EXPECTED.get(i) {
            Some(&(expected_name, expected)) if expected_name == name && expected == hash => {}
            _ => mismatches.push(format!("    (\"{name}\", {hash:#018x}),")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "campaign reports drifted from the golden hashes:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(scenarios.len(), EXPECTED.len(), "one hash per scenario");
}

/// FNV-1a over every field of the fabric report, in declaration order.
fn fabric_hash(report: &FabricCampaignReport) -> u64 {
    let mut h = Fnv(Fnv::OFFSET);
    h.usize(report.ks.len());
    for &k in &report.ks {
        h.usize(k);
    }
    h.usize(report.processors);
    h.usize(report.links);
    h.usize(report.uplinks);
    h.f64(report.rate);
    h.f64(report.uplink_failure_prob);
    h.f64(report.healthy_bandwidth);
    h.usize(report.levels.len());
    for level in &report.levels {
        h.usize(level.failures);
        h.usize(level.combos_evaluated);
        h.u64(u64::from(level.exhaustive));
        h.f64(level.mean_bandwidth);
        h.f64(level.min_bandwidth);
        h.f64(level.max_bandwidth);
        h.f64(level.mean_unreachable);
        h.f64(level.max_unreachable);
        h.usize(level.worst_mask.len());
        for &link in &level.worst_mask {
            h.usize(link);
        }
    }
    h.f64(report.expected_bandwidth);
    h.usize(report.cluster_decay.len());
    for row in &report.cluster_decay {
        h.usize(row.len());
        for &bw in row {
            h.f64(bw);
        }
    }
    h.0
}

/// Every fabric scenario: a name, the tree shape, the locality and the
/// configuration, all at rate 0.5 over two-bus leaf groups and one-channel
/// uplinks.
fn fabric_scenarios() -> Vec<(&'static str, Vec<usize>, f64, CampaignConfig)> {
    let default = CampaignConfig::default;
    vec![
        ("4x4-loc0.3", vec![4, 4], 0.3, default()),
        ("4x4-loc0.6", vec![4, 4], 0.6, default()),
        ("2x2x2", vec![2, 2, 2], 0.6, default()),
        (
            "2x2x2x2-limit50-samples64",
            vec![2, 2, 2, 2],
            0.6,
            CampaignConfig {
                exhaustive_limit: 50,
                samples: 64,
                ..default()
            },
        ),
        ("8", vec![8], 0.6, default()),
        (
            "4x4-max2",
            vec![4, 4],
            0.6,
            CampaignConfig {
                max_failures: Some(2),
                ..default()
            },
        ),
    ]
}

const FABRIC_EXPECTED: &[(&str, u64)] = &[
    ("4x4-loc0.3", 0xed586940abf2b9ba),
    ("4x4-loc0.6", 0x70916fb76c443408),
    ("2x2x2", 0xaa73492a644e2ef4),
    ("2x2x2x2-limit50-samples64", 0x681708fb2398bbab),
    ("8", 0x5e572c54d7277b14),
    ("4x4-max2", 0xfb76321dc45a5581),
];

#[test]
fn fabric_campaigns_match_golden_reports() {
    let scenarios = fabric_scenarios();
    let mut mismatches = Vec::new();
    for (i, (name, ks, locality, config)) in scenarios.iter().enumerate() {
        let spec = FabricSpec {
            ks: ks.clone(),
            local_buses: 2,
            uplink_width: 1,
            locality: *locality,
        };
        let (topo, matrix) = spec.build().unwrap();
        let hash = fabric_hash(&run_fabric_campaign(&topo, &matrix, 0.5, config).unwrap());
        match FABRIC_EXPECTED.get(i) {
            Some(&(expected_name, expected)) if expected_name == *name && expected == hash => {}
            _ => mismatches.push(format!("    (\"{name}\", {hash:#018x}),")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "fabric campaign reports drifted from the golden hashes:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        scenarios.len(),
        FABRIC_EXPECTED.len(),
        "one hash per scenario"
    );
}
