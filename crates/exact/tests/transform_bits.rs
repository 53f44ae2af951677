//! Bit-level pins on the subset transform.
//!
//! The DP-vs-transform differential tests compare to within 1e-12, so a
//! reordered product or a replaced `powi` that moves the last bit of a
//! pmf entry passes them. These pins hash the `to_bits()` pattern of every
//! entry of [`requested_set_pmf`] and of [`transform_bandwidth`] for each
//! scheme, so any change in the transform's floating-point operations
//! shows up. The hashes were recorded before the transform's inner loops
//! were restructured and must never change.

use mbus_exact::transform::{requested_set_pmf, transform_bandwidth};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel, UniformModel};

/// Request rates each matrix is pinned at; the middle one has a low-order
/// bit set so `1 − r` and `r·Σq` are not exact in binary.
const RATES: [f64; 3] = [0.25, 0.5 + 1.0 / (1u64 << 40) as f64, 1.0];

fn fnv_bits(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The paper's 16 × 16 hierarchical workload: every processor has its own
/// row, so every group has multiplicity 1.
fn paired() -> RequestMatrix {
    HierarchicalModel::two_level_paired(16, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

/// Seven groups of identical rows with multiplicities 2 through 8 over 16
/// memories (35 processors): each group favors a different memory pair.
fn mixed() -> RequestMatrix {
    let mut rows = Vec::new();
    for (group, count) in (2..=8usize).enumerate() {
        let mut row = vec![0.02f64; 16];
        row[group] += 0.4;
        row[15 - group] += 0.28;
        let total: f64 = row.iter().sum();
        for q in &mut row {
            *q /= total;
        }
        rows.extend(std::iter::repeat_n(row, count));
    }
    RequestMatrix::from_rows(rows).unwrap()
}

fn pmf_hashes(matrix: &RequestMatrix) -> Vec<u64> {
    RATES
        .iter()
        .map(|&r| fnv_bits(&requested_set_pmf(matrix, r).unwrap()))
        .collect()
}

#[test]
fn multiplicities_are_what_the_pins_claim() {
    let powers = |matrix: &RequestMatrix| -> Vec<usize> {
        matrix.groups().iter().map(|(_, count)| count).collect()
    };
    assert_eq!(powers(&paired()), vec![1; 16]);
    assert_eq!(
        powers(&UniformModel::new(16, 16).unwrap().matrix()),
        vec![16]
    );
    let mut mixed = powers(&mixed());
    mixed.sort_unstable();
    assert_eq!(mixed, (2..=8).collect::<Vec<_>>());
}

#[test]
fn paired_hierarchy_pmf_bits_are_pinned() {
    assert_eq!(
        pmf_hashes(&paired()),
        [0x69c98b977b09ce5f, 0xddac0a0ffbb58689, 0x6ab3f07b417bdd0c]
    );
}

#[test]
fn uniform_pmf_bits_are_pinned() {
    let matrix = UniformModel::new(16, 16).unwrap().matrix();
    assert_eq!(
        pmf_hashes(&matrix),
        [0x00b0ee880d7deec1, 0x1add1429abe52283, 0x870f27c770909f1c]
    );
}

#[test]
fn mixed_multiplicity_pmf_bits_are_pinned() {
    assert_eq!(
        pmf_hashes(&mixed()),
        [0xad80624dbc332000, 0x1feb0d4ed0286ed7, 0x1ddc41b7ea28fb46]
    );
}

#[test]
fn transform_bandwidth_bits_are_pinned_for_every_scheme() {
    let schemes = [
        ConnectionScheme::Full,
        ConnectionScheme::balanced_single(16, 4).unwrap(),
        ConnectionScheme::PartialGroups { groups: 2 },
        ConnectionScheme::uniform_classes(16, 4).unwrap(),
        ConnectionScheme::Crossbar,
    ];
    let matrix = paired();
    let bits: Vec<[u64; 3]> = schemes
        .into_iter()
        .map(|scheme| {
            let net = BusNetwork::new(16, 16, 4, scheme).unwrap();
            RATES.map(|r| transform_bandwidth(&net, &matrix, r).unwrap().to_bits())
        })
        .collect();
    let expected: [[u64; 3]; 5] = [
        // Full
        [0x4009dd88870d50b2, 0x400fcf4d70e07872, 0x40100000000000f0],
        // Single (balanced)
        [0x40058f1576163033, 0x400d9b4c17ead7d3, 0x400fff74610467ba],
        // Partial, 2 groups
        [0x4007f05c8a113301, 0x400f15a529fab189, 0x400fffff7eb39375],
        // K-class, 4 uniform classes
        [0x400779e449b13f62, 0x400ed0ddbf16f024, 0x400fffdcf55db2a3],
        // Crossbar
        [0x400da66afda75e45, 0x401b777a8c01a670, 0x40278f71006f8aa5],
    ];
    assert_eq!(bits, expected, "{bits:#x?}");
}
