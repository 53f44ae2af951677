//! Cost and fault-tolerance analysis (the paper's §II-B and Table I).
//!
//! The paper measures network cost by (a) the total number of bus
//! connections, and (b) the capacitive load of each bus, proportional to the
//! number of devices attached to it. Both are reproduced here, together with
//! the degree of fault tolerance, for each connection scheme.

use crate::{BusNetwork, ConnectionScheme, SchemeKind};
use serde::{Deserialize, Serialize};

/// Instantiated cost figures for one concrete network — a numeric row of the
/// paper's Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostSummary {
    /// Which scheme the summary describes.
    pub(crate) kind: SchemeKind,
    /// Total number of connections to buses (processor-side plus
    /// memory-side); `N · M` crosspoints for the crossbar.
    pub connections: usize,
    /// Load of each bus, proportional to the number of devices attached
    /// (processors + memories). Empty for the crossbar, which has no shared
    /// buses.
    pub bus_loads: Vec<usize>,
    /// The paper's degree of fault tolerance: guaranteed number of bus
    /// failures survivable with all memories still reachable.
    pub fault_tolerance_degree: usize,
}

impl CostSummary {
    /// Computes the cost summary for a network.
    pub(crate) fn for_network(net: &BusNetwork) -> Self {
        let (n, m, b) = (net.processors(), net.memories(), net.buses());
        let (connections, bus_loads) = match net.scheme() {
            // B(N + M); each bus carries all N processors and M memories.
            ConnectionScheme::Full => (b * (n + m), vec![n + m; b]),
            // BN + M; bus i carries N processors and its own M_i memories.
            ConnectionScheme::Single { .. } => {
                let loads: Vec<usize> = (0..b)
                    .map(|bus| n + net.memories_of_bus(bus).count())
                    .collect();
                (b * n + m, loads)
            }
            // B(N + M/g); each bus carries N processors and its group's M/g
            // memories.
            ConnectionScheme::PartialGroups { groups } => {
                (b * (n + m / groups), vec![n + m / groups; b])
            }
            // BN + Σ_j M_j (j + B − K); bus i carries N processors plus the
            // memories of classes C_K … C_max(i+K−B, 1).
            ConnectionScheme::KClasses { class_sizes } => {
                let k = class_sizes.len();
                let memory_side: usize = class_sizes
                    .iter()
                    .enumerate()
                    .map(|(c, &size)| size * (c + 1 + b - k))
                    .sum();
                let loads: Vec<usize> = (0..b)
                    .map(|bus| n + net.memories_of_bus(bus).count())
                    .collect();
                (b * n + memory_side, loads)
            }
            // N · M crosspoints; there are no shared buses to load.
            ConnectionScheme::Crossbar => (n * m, Vec::new()),
        };
        Self {
            kind: net.kind(),
            connections,
            bus_loads,
            fault_tolerance_degree: net.fault_tolerance_degree(),
        }
    }

    /// Maximum per-bus load, or 0 for the crossbar.
    pub(crate) fn max_bus_load(&self) -> usize {
        self.bus_loads.iter().copied().max().unwrap_or(0)
    }

    /// Performance-per-connection ratio for a given bandwidth — the paper's
    /// §IV "performance-cost ratio" comparisons.
    ///
    /// # Panics
    ///
    /// Panics if the summary reports zero connections (impossible for a
    /// validated network).
    pub fn performance_cost_ratio(&self, bandwidth: f64) -> f64 {
        assert!(self.connections > 0, "network must have connections");
        bandwidth / self.connections as f64
    }
}

/// A symbolic row of the paper's Table I, with both the formula strings from
/// the paper and their instantiated values for a concrete network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeCostRow {
    /// Human-readable scheme name (Table I's "connection schemes" column).
    pub scheme: String,
    /// The paper's symbolic connection-count formula.
    pub connections_formula: String,
    /// The paper's symbolic per-bus load formula.
    pub(crate) load_formula: String,
    /// The paper's symbolic degree-of-fault-tolerance formula.
    pub fault_tolerance_formula: String,
    /// Instantiated connection count.
    pub connections: usize,
    /// Instantiated worst-case bus load.
    pub max_bus_load: usize,
    /// Instantiated degree of fault tolerance.
    pub fault_tolerance: usize,
}

impl SchemeCostRow {
    /// Builds the Table I row for a concrete network, pairing the paper's
    /// symbolic formulas with the instantiated numbers.
    pub fn for_network(net: &BusNetwork) -> Self {
        let summary = net.cost();
        let (connections_formula, load_formula, fault_tolerance_formula) = match net.scheme() {
            ConnectionScheme::Full => ("B(N+M)", "N + M", "B - 1"),
            ConnectionScheme::Single { .. } => ("BN + M", "N + M_i", "0"),
            ConnectionScheme::PartialGroups { .. } => ("B(N + M/g)", "N + M/g", "B/g - 1"),
            ConnectionScheme::KClasses { .. } => (
                "BN + sum_j M_j (j + B - K)",
                "N + sum_{j >= max(i+K-B, 1)} M_j",
                "B - K",
            ),
            ConnectionScheme::Crossbar => ("N * M", "-", "0"),
        };
        Self {
            scheme: net.kind().to_string(),
            connections_formula: connections_formula.to_owned(),
            load_formula: load_formula.to_owned(),
            fault_tolerance_formula: fault_tolerance_formula.to_owned(),
            connections: summary.connections,
            max_bus_load: summary.max_bus_load(),
            fault_tolerance: summary.fault_tolerance_degree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusNetwork;

    #[test]
    fn full_connection_cost() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let cost = net.cost();
        assert_eq!(cost.connections, 4 * (8 + 8));
        assert_eq!(cost.bus_loads, vec![16; 4]);
        assert_eq!(cost.fault_tolerance_degree, 3);
    }

    #[test]
    fn single_connection_cost() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let cost = net.cost();
        assert_eq!(cost.connections, 4 * 8 + 8);
        assert_eq!(cost.bus_loads, vec![8 + 2; 4]);
        assert_eq!(cost.fault_tolerance_degree, 0);
    }

    #[test]
    fn partial_groups_cost() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let cost = net.cost();
        assert_eq!(cost.connections, 4 * (8 + 4));
        assert_eq!(cost.bus_loads, vec![12; 4]);
        assert_eq!(cost.fault_tolerance_degree, 1);
    }

    #[test]
    fn kclass_cost_matches_paper_formula() {
        // Fig. 3: 3 × 6 × 4 with classes of size 2 each (K = 3).
        // Connections = BN + Σ M_j (j + B − K) = 12 + 2·(2 + 3 + 4) = 30.
        let net =
            BusNetwork::new(3, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let cost = net.cost();
        assert_eq!(cost.connections, 30);
        // Bus loads: bus 0 sees all 6 memories, bus 1 all 6, bus 2 classes
        // C_2, C_3 (4 memories), bus 3 class C_3 (2 memories); plus N = 3.
        assert_eq!(cost.bus_loads, vec![9, 9, 7, 5]);
        assert_eq!(cost.fault_tolerance_degree, 1);
    }

    #[test]
    fn kclass_with_k_equals_b_connection_count() {
        // Paper §IV: with K = B and N/K memories per class the connection
        // count is NB + (B+1)N/2.
        for (n, b) in [(8usize, 4usize), (16, 8), (32, 8)] {
            let net =
                BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
            assert_eq!(net.cost().connections, n * b + (b + 1) * n / 2);
        }
    }

    #[test]
    fn crossbar_cost_is_crosspoints() {
        let net = BusNetwork::new(8, 6, 1, ConnectionScheme::Crossbar).unwrap();
        let cost = net.cost();
        assert_eq!(cost.connections, 48);
        assert!(cost.bus_loads.is_empty());
        assert_eq!(cost.max_bus_load(), 0);
    }

    #[test]
    fn performance_cost_ratio_ordering_matches_paper() {
        // §IV: single connection is the most cost-effective, full the least,
        // at equal bandwidth-per-connection ratios computed from cost alone.
        let n = 16;
        let b = 8;
        let full = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
        let single =
            BusNetwork::new(n, n, b, ConnectionScheme::balanced_single(n, b).unwrap()).unwrap();
        // For identical bandwidth, fewer connections → better ratio.
        let bw = 7.0;
        assert!(single.cost().performance_cost_ratio(bw) > full.cost().performance_cost_ratio(bw));
    }

    #[test]
    fn table_one_rows_have_formulas() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let row = SchemeCostRow::for_network(&net);
        assert_eq!(row.connections_formula, "B(N+M)");
        assert_eq!(row.connections, 64);
        assert_eq!(row.fault_tolerance, 3);
    }
}
