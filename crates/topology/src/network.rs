//! The `N × M × B` network type.

use crate::{ConnectionScheme, CostSummary, SchemeKind, TopologyError};
use serde::{Deserialize, Serialize};

/// An `N × M × B` multiprocessor interconnection network: `N` processors,
/// `M` shared memory modules, and `B` buses wired according to a
/// [`ConnectionScheme`].
///
/// The type is immutable after construction and all invariants are validated
/// by [`BusNetwork::new`], so downstream code (analysis, simulation) can rely
/// on e.g. "every class is non-empty" without re-checking.
///
/// # Examples
///
/// ```
/// use mbus_topology::{BusNetwork, ConnectionScheme};
///
/// let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full)?;
/// assert_eq!(net.processors(), 8);
/// assert!(net.connects(3, 7)); // full connection: every bus, every memory
/// # Ok::<(), mbus_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusNetwork {
    n: usize,
    m: usize,
    b: usize,
    scheme: ConnectionScheme,
    /// For `KClasses`: memory index at which each class starts, plus a final
    /// sentinel equal to `m`. Empty for other schemes.
    class_offsets: Vec<usize>,
}

impl BusNetwork {
    /// Builds and validates a network of `n` processors, `m` memories, and
    /// `b` buses.
    ///
    /// # Errors
    ///
    /// * any dimension of zero → [`TopologyError::ZeroDimension`];
    /// * `b > min(m, n)` for a bus-based scheme → [`TopologyError::TooManyBuses`]
    ///   (the crossbar baseline ignores `b` for capacity but still validates it);
    /// * scheme-specific inconsistencies → see [`TopologyError`].
    pub fn new(
        n: usize,
        m: usize,
        b: usize,
        scheme: ConnectionScheme,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::ZeroDimension {
                dimension: "processors",
            });
        }
        if m == 0 {
            return Err(TopologyError::ZeroDimension {
                dimension: "memories",
            });
        }
        if b == 0 {
            return Err(TopologyError::ZeroDimension { dimension: "buses" });
        }
        // The paper states B ≤ min(M, N), yet its own Fig. 3 example is a
        // 3 × 6 × 4 network (B > N). We therefore enforce only B ≤ M — more
        // buses than memories can never be used, but more buses than
        // processors is merely wasteful in a given cycle, not ill-formed.
        if scheme.kind() != SchemeKind::Crossbar && b > m {
            return Err(TopologyError::TooManyBuses { buses: b, limit: m });
        }

        let mut class_offsets = Vec::new();
        match &scheme {
            ConnectionScheme::Full | ConnectionScheme::Crossbar => {}
            ConnectionScheme::Single { assignment } => {
                if assignment.len() != m {
                    return Err(TopologyError::BadSingleAssignment {
                        assigned: assignment.len(),
                        memories: m,
                    });
                }
                let mut seen = vec![false; b];
                for (memory, &bus) in assignment.iter().enumerate() {
                    if bus >= b {
                        return Err(TopologyError::SingleAssignmentBusOutOfRange {
                            memory,
                            bus,
                            buses: b,
                        });
                    }
                    seen[bus] = true;
                }
                if let Some(bus) = seen.iter().position(|&s| !s) {
                    return Err(TopologyError::EmptyBus { bus });
                }
            }
            ConnectionScheme::PartialGroups { groups } => {
                let g = *groups;
                if g == 0 || g > b {
                    return Err(TopologyError::InvalidGroupCount {
                        groups: g,
                        buses: b,
                    });
                }
                if !m.is_multiple_of(g) || !b.is_multiple_of(g) {
                    return Err(TopologyError::GroupsDontDivide {
                        groups: g,
                        memories: m,
                        buses: b,
                    });
                }
            }
            ConnectionScheme::KClasses { class_sizes } => {
                let k = class_sizes.len();
                if k == 0 || k > b {
                    return Err(TopologyError::InvalidClassCount {
                        classes: k,
                        buses: b,
                    });
                }
                let total: usize = class_sizes.iter().sum();
                if total != m || class_sizes.contains(&0) {
                    return Err(TopologyError::BadClassSizes { total, memories: m });
                }
                class_offsets.reserve(k + 1);
                let mut acc = 0;
                for &size in class_sizes {
                    class_offsets.push(acc);
                    acc += size;
                }
                class_offsets.push(acc);
            }
        }

        Ok(Self {
            n,
            m,
            b,
            scheme,
            class_offsets,
        })
    }

    /// Number of processors `N`.
    pub fn processors(&self) -> usize {
        self.n
    }

    /// Number of memory modules `M`.
    pub fn memories(&self) -> usize {
        self.m
    }

    /// Number of buses `B`.
    pub fn buses(&self) -> usize {
        self.b
    }

    /// The connection scheme.
    pub fn scheme(&self) -> &ConnectionScheme {
        &self.scheme
    }

    /// Discriminant-only scheme kind.
    pub fn kind(&self) -> SchemeKind {
        self.scheme.kind()
    }

    /// How many requests the interconnect can serve per cycle: `B` for bus
    /// schemes, `min(N, M)` for the crossbar.
    pub fn capacity(&self) -> usize {
        match self.kind() {
            SchemeKind::Crossbar => self.n.min(self.m),
            _ => self.b,
        }
    }

    /// Whether bus `bus` is wired to memory `memory`.
    ///
    /// For the crossbar this is `true` for every pair (a crossbar behaves
    /// like a network where connectivity never constrains anything).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn connects(&self, bus: usize, memory: usize) -> bool {
        assert!(bus < self.b, "bus index {bus} out of range ({})", self.b);
        assert!(
            memory < self.m,
            "memory index {memory} out of range ({})",
            self.m
        );
        match &self.scheme {
            ConnectionScheme::Full | ConnectionScheme::Crossbar => true,
            ConnectionScheme::Single { assignment } => assignment[memory] == bus,
            ConnectionScheme::PartialGroups { groups } => {
                let g = *groups;
                memory / (self.m / g) == bus / (self.b / g)
            }
            ConnectionScheme::KClasses { .. } => {
                // lint:allow(no_panic, every memory belongs to a class; BusNetwork::new validated the K-class layout)
                let c = self.class_of_memory(memory).expect("validated k-class");
                bus < self.kclass_bus_count(c)
            }
        }
    }

    /// Iterator over the bus indices wired to `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `memory` is out of range.
    pub fn buses_of_memory(&self, memory: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(
            memory < self.m,
            "memory index {memory} out of range ({})",
            self.m
        );

        match &self.scheme {
            ConnectionScheme::Full | ConnectionScheme::Crossbar => 0..self.b,
            ConnectionScheme::Single { assignment } => assignment[memory]..assignment[memory] + 1,
            ConnectionScheme::PartialGroups { groups } => {
                let per = self.b / groups;
                let q = memory / (self.m / groups);
                q * per..(q + 1) * per
            }
            ConnectionScheme::KClasses { .. } => {
                // lint:allow(no_panic, every memory belongs to a class; BusNetwork::new validated the K-class layout)
                let c = self.class_of_memory(memory).expect("validated k-class");
                0..self.kclass_bus_count(c)
            }
        }
    }

    /// Iterator over the memory indices wired to `bus`.
    ///
    /// # Panics
    ///
    /// Panics if `bus` is out of range.
    pub fn memories_of_bus(&self, bus: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(bus < self.b, "bus index {bus} out of range ({})", self.b);
        (0..self.m).filter(move |&j| self.connects(bus, j))
    }

    /// Number of classes `K` (only for [`ConnectionScheme::KClasses`]).
    pub fn class_count(&self) -> Option<usize> {
        match &self.scheme {
            ConnectionScheme::KClasses { class_sizes } => Some(class_sizes.len()),
            _ => None,
        }
    }

    /// The 0-based class index of `memory` (paper class `C_{c+1}`), or `None`
    /// for non-K-class schemes.
    pub(crate) fn class_of_memory(&self, memory: usize) -> Option<usize> {
        if self.class_offsets.is_empty() || memory >= self.m {
            return None;
        }
        // class_offsets = [start_0, start_1, ..., m]; find the class whose
        // range contains `memory`.
        Some(
            self.class_offsets
                .partition_point(|&start| start <= memory)
                .saturating_sub(1),
        )
    }

    /// Memory indices of class `c` (0-based), or `None` for other schemes or
    /// out-of-range classes.
    pub fn memories_of_class(&self, c: usize) -> Option<std::ops::Range<usize>> {
        match &self.scheme {
            ConnectionScheme::KClasses { class_sizes } if c < class_sizes.len() => {
                Some(self.class_offsets[c]..self.class_offsets[c + 1])
            }
            _ => None,
        }
    }

    /// Number of buses class `c` (0-based) attaches to: the paper's
    /// `j + B − K` with `j = c + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not K-class (internal helper exposed for the
    /// arbiters; use [`BusNetwork::class_count`] to guard).
    pub fn kclass_bus_count(&self, c: usize) -> usize {
        let k = self
            .class_count()
            // lint:allow(no_panic, documented `# Panics` precondition of this internal arbiter helper)
            .expect("kclass_bus_count requires a K-class scheme");
        assert!(c < k, "class index {c} out of range ({k})");
        c + 1 + self.b - k
    }

    /// Number of groups `g` (only for [`ConnectionScheme::PartialGroups`]).
    pub fn group_count(&self) -> Option<usize> {
        match &self.scheme {
            ConnectionScheme::PartialGroups { groups } => Some(*groups),
            _ => None,
        }
    }

    /// Cost and fault-tolerance summary (the paper's Table I row for this
    /// network).
    pub fn cost(&self) -> CostSummary {
        CostSummary::for_network(self)
    }

    /// The paper's *degree of fault tolerance*: the largest number of bus
    /// failures the network is guaranteed to survive with every memory still
    /// reachable.
    ///
    /// * full: `B − 1`;
    /// * single: `0`;
    /// * partial with `g` groups: `B/g − 1`;
    /// * `K` classes: `B − K` (class `C_1` has `B − K + 1` buses);
    /// * crossbar: `0` (no bus redundancy to speak of — each processor-memory
    ///   pair has exactly one crosspoint).
    pub fn fault_tolerance_degree(&self) -> usize {
        match &self.scheme {
            ConnectionScheme::Full => self.b - 1,
            ConnectionScheme::Single { .. } | ConnectionScheme::Crossbar => 0,
            ConnectionScheme::PartialGroups { groups } => self.b / groups - 1,
            ConnectionScheme::KClasses { class_sizes } => self.b - class_sizes.len(),
        }
    }
}

impl std::fmt::Display for BusNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{}x{} network with {}",
            self.n,
            self.m,
            self.b,
            self.kind()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3() -> BusNetwork {
        // Paper Fig. 3: 3 × 6 × 4 partial bus network with three classes.
        BusNetwork::new(3, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap()
    }

    #[test]
    fn full_connectivity() {
        let net = BusNetwork::new(4, 8, 3, ConnectionScheme::Full).unwrap();
        for bus in 0..3 {
            for mem in 0..8 {
                assert!(net.connects(bus, mem));
            }
        }
        assert_eq!(net.capacity(), 3);
        assert_eq!(net.fault_tolerance_degree(), 2);
    }

    #[test]
    fn rejects_too_many_buses() {
        assert_eq!(
            BusNetwork::new(8, 4, 5, ConnectionScheme::Full).unwrap_err(),
            TopologyError::TooManyBuses { buses: 5, limit: 4 }
        );
        // B > N alone is allowed: the paper's own Fig. 3 is 3 × 6 × 4.
        assert!(BusNetwork::new(3, 6, 4, ConnectionScheme::Full).is_ok());
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(matches!(
            BusNetwork::new(0, 8, 2, ConnectionScheme::Full),
            Err(TopologyError::ZeroDimension {
                dimension: "processors"
            })
        ));
        assert!(matches!(
            BusNetwork::new(8, 0, 2, ConnectionScheme::Full),
            Err(TopologyError::ZeroDimension {
                dimension: "memories"
            })
        ));
        assert!(matches!(
            BusNetwork::new(8, 8, 0, ConnectionScheme::Full),
            Err(TopologyError::ZeroDimension { dimension: "buses" })
        ));
    }

    #[test]
    fn single_connectivity_and_validation() {
        let scheme = ConnectionScheme::balanced_single(8, 4).unwrap();
        let net = BusNetwork::new(8, 8, 4, scheme).unwrap();
        assert!(net.connects(0, 0));
        assert!(net.connects(0, 1));
        assert!(!net.connects(0, 2));
        assert_eq!(net.buses_of_memory(5).collect::<Vec<_>>(), vec![2]);
        assert_eq!(net.memories_of_bus(3).collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(net.fault_tolerance_degree(), 0);
    }

    #[test]
    fn single_rejects_bad_assignments() {
        // Wrong length.
        let err = BusNetwork::new(
            4,
            4,
            2,
            ConnectionScheme::Single {
                assignment: vec![0, 1],
            },
        )
        .unwrap_err();
        assert!(matches!(err, TopologyError::BadSingleAssignment { .. }));
        // Bus out of range.
        let err = BusNetwork::new(
            4,
            4,
            2,
            ConnectionScheme::Single {
                assignment: vec![0, 1, 0, 7],
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TopologyError::SingleAssignmentBusOutOfRange {
                memory: 3,
                bus: 7,
                buses: 2
            }
        ));
        // Empty bus.
        let err = BusNetwork::new(
            4,
            4,
            2,
            ConnectionScheme::Single {
                assignment: vec![0, 0, 0, 0],
            },
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::EmptyBus { bus: 1 });
    }

    #[test]
    fn partial_groups_connectivity() {
        // Paper Fig. 2 shape: g = 2, memories split in halves, buses too.
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        // Group 0: memories 0..4 on buses 0..2.
        assert!(net.connects(0, 0));
        assert!(net.connects(1, 3));
        assert!(!net.connects(2, 0));
        // Group 1: memories 4..8 on buses 2..4.
        assert!(net.connects(2, 4));
        assert!(!net.connects(0, 7));
        assert!(net.connects(3, 5) && !net.connects(1, 5));
        assert_eq!(net.fault_tolerance_degree(), 1);
    }

    #[test]
    fn partial_groups_validation() {
        assert!(matches!(
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 3 }),
            Err(TopologyError::GroupsDontDivide { .. })
        ));
        assert!(matches!(
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 0 }),
            Err(TopologyError::InvalidGroupCount { .. })
        ));
        assert!(matches!(
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 5 }),
            Err(TopologyError::InvalidGroupCount { .. })
        ));
    }

    #[test]
    fn kclass_fig3_connectivity() {
        let net = fig3();
        // Class C_1 (memories 0, 1): buses 1..(1+4-3) = buses 0..2 (0-based).
        assert_eq!(net.buses_of_memory(0).collect::<Vec<_>>(), vec![0, 1]);
        // Class C_2 (memories 2, 3): buses 0..3.
        assert_eq!(net.buses_of_memory(2).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Class C_3 (memories 4, 5): all four buses.
        assert_eq!(net.buses_of_memory(4).count(), 4);
        // Bus 3 is touched only by class C_3; bus 0 by everyone.
        assert_eq!(net.memories_of_bus(3).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(net.memories_of_bus(0).count(), 6);
        assert_eq!(net.class_of_memory(0), Some(0));
        assert_eq!(net.class_of_memory(3), Some(1));
        assert_eq!(net.class_of_memory(5), Some(2));
        assert_eq!(net.memories_of_class(1), Some(2..4));
        assert_eq!(net.fault_tolerance_degree(), 1);
    }

    #[test]
    fn kclass_validation() {
        // K > B.
        assert!(matches!(
            BusNetwork::new(
                8,
                8,
                2,
                ConnectionScheme::KClasses {
                    class_sizes: vec![2, 2, 4]
                }
            ),
            Err(TopologyError::InvalidClassCount { .. })
        ));
        // Sizes don't sum to M.
        assert!(matches!(
            BusNetwork::new(
                8,
                8,
                4,
                ConnectionScheme::KClasses {
                    class_sizes: vec![2, 2]
                }
            ),
            Err(TopologyError::BadClassSizes { .. })
        ));
        // Empty class.
        assert!(matches!(
            BusNetwork::new(
                8,
                8,
                4,
                ConnectionScheme::KClasses {
                    class_sizes: vec![0, 4, 4]
                }
            ),
            Err(TopologyError::BadClassSizes { .. })
        ));
    }

    #[test]
    fn crossbar_capacity_ignores_buses() {
        let net = BusNetwork::new(8, 6, 1, ConnectionScheme::Crossbar).unwrap();
        assert_eq!(net.capacity(), 6);
        assert!(net.connects(0, 5));
    }

    #[test]
    fn k_equals_one_is_full_connection() {
        // With K = 1 every memory is in class C_1 attached to B buses.
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 1).unwrap()).unwrap();
        for mem in 0..8 {
            assert_eq!(net.buses_of_memory(mem).count(), 4);
        }
        assert_eq!(net.fault_tolerance_degree(), 3);
    }

    #[test]
    fn display_is_informative() {
        let net = fig3();
        assert_eq!(
            net.to_string(),
            "3x6x4 network with partial bus network with K classes"
        );
    }
}
