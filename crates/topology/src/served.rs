//! Served-set lookup tables.
//!
//! For every connection scheme of the paper, the number of requests served
//! in a cycle is a deterministic function of *which set of memories has at
//! least one pending request* (the per-memory stage-1 arbiters collapse
//! duplicates, and stage 2 only sees the selected memories). That function
//! is pure topology, so it lives here: [`served_count`] evaluates one
//! requested-set bitmask, and [`ServedTable`] tabulates all `2^M` of them
//! once so the exact enumerators and the simulator's arbiter can replace
//! per-cycle recomputation with an indexed load.
//!
//! Counts fit in a `u8` because `M ≤ MAX_TABLE_MEMORIES = 20 < 256`; the
//! full table for `M = 20` is one `2^20`-byte (1 MiB) allocation.
//!
//! All counts assume a fault-free network — a failed bus changes the
//! served function, so callers with an active
//! [`FaultMask`](crate::FaultMask) must fall back to direct arbitration.

use crate::{BusNetwork, ConnectionScheme, TopologyError};

/// Largest `M` for which a `2^M`-entry table is built (1 MiB of `u8`s).
pub const MAX_TABLE_MEMORIES: usize = 20;

/// Per-scheme mask data for evaluating one requested set in `O(B)` or
/// better, without touching per-memory iterators.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MaskPlan {
    /// Crossbar: every requested module is served.
    Crossbar,
    /// Full connection: `min(|requested|, B)`.
    Full { buses: usize },
    /// Single connection: one service per bus whose memory set intersects
    /// the requested set.
    Single { bus_masks: Vec<u64> },
    /// Partial groups: `min(|requested ∩ group|, B/g)` per group.
    Partial {
        group_masks: Vec<u64>,
        per_bus: usize,
    },
    /// K classes: bus `i` (1-based) is busy iff some class `j` with
    /// `R_j > 0` spills onto it, i.e. `top_j − R_j < i ≤ top_j`; the busy
    /// buses are a union of intervals, collected as a bitmask.
    KClasses {
        class_masks: Vec<u64>,
        tops: Vec<usize>,
    },
}

impl MaskPlan {
    fn build(net: &BusNetwork) -> Self {
        match net.scheme() {
            ConnectionScheme::Crossbar => Self::Crossbar,
            ConnectionScheme::Full => Self::Full { buses: net.buses() },
            ConnectionScheme::Single { .. } => Self::Single {
                bus_masks: (0..net.buses())
                    .map(|bus| net.memories_of_bus(bus).fold(0u64, |m, j| m | (1 << j)))
                    .collect(),
            },
            ConnectionScheme::PartialGroups { groups } => {
                let per_mem = net.memories() / groups;
                Self::Partial {
                    group_masks: (0..*groups)
                        .map(|q| (q * per_mem..(q + 1) * per_mem).fold(0u64, |m, j| m | (1 << j)))
                        .collect(),
                    per_bus: net.buses() / groups,
                }
            }
            ConnectionScheme::KClasses { class_sizes } => {
                let k = class_sizes.len();
                Self::KClasses {
                    class_masks: (0..k)
                        .map(|c| {
                            net.memories_of_class(c)
                                // lint:allow(no_panic, class ranges exist for every class index; validated by BusNetwork::new)
                                .expect("validated K-class")
                                .fold(0u64, |m, j| m | (1 << j))
                        })
                        .collect(),
                    tops: (0..k).map(|c| net.kclass_bus_count(c)).collect(),
                }
            }
        }
    }

    #[inline]
    fn served(&self, mask: u64) -> usize {
        match self {
            Self::Crossbar => mask.count_ones() as usize,
            Self::Full { buses } => (mask.count_ones() as usize).min(*buses),
            Self::Single { bus_masks } => bus_masks
                .iter()
                .filter(|&&bus_mask| mask & bus_mask != 0)
                .count(),
            Self::Partial {
                group_masks,
                per_bus,
            } => group_masks
                .iter()
                .map(|&group_mask| ((mask & group_mask).count_ones() as usize).min(*per_bus))
                .sum(),
            Self::KClasses { class_masks, tops } => {
                // Busy buses form a union of intervals (top_j − R_j, top_j];
                // accumulate it as a bus bitmask and count.
                let mut busy = 0u64;
                for (&class_mask, &top) in class_masks.iter().zip(tops) {
                    let requested = (mask & class_mask).count_ones() as usize;
                    if requested == 0 {
                        continue;
                    }
                    let low = top.saturating_sub(requested);
                    busy |= ((1u64 << top) - 1) & !((1u64 << low) - 1);
                }
                busy.count_ones() as usize
            }
        }
    }
}

/// The number of requests served in one fault-free cycle, given the
/// requested-set bitmask (bit `j` set ⇔ memory `j` has at least one
/// pending request).
///
/// This is the single-mask oracle behind [`ServedTable`]; prefer the table
/// when evaluating many masks for the same network.
///
/// # Panics
///
/// Panics if `mask` has bits at or above `net.memories()` (debug builds
/// assert; release builds may silently count phantom memories).
pub fn served_count(net: &BusNetwork, mask: u64) -> usize {
    debug_assert!(
        net.memories() >= 64 || mask < (1u64 << net.memories()),
        "mask {mask:#x} exceeds 2^M"
    );
    MaskPlan::build(net).served(mask)
}

/// A `2^M`-entry lookup table of served counts, indexed by requested-set
/// bitmask.
///
/// # Examples
///
/// ```
/// use mbus_topology::{BusNetwork, ConnectionScheme, ServedTable};
///
/// let net = BusNetwork::new(8, 8, 3, ConnectionScheme::Full)?;
/// let table = ServedTable::build(&net)?;
/// // Five memories requested, three buses: three served.
/// assert_eq!(table.served(0b10111001), 3);
/// # Ok::<(), mbus_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedTable {
    counts: Vec<u8>,
}

impl ServedTable {
    /// Tabulates the served count for every requested set of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TableTooLarge`] when
    /// `net.memories() > MAX_TABLE_MEMORIES`.
    pub fn build(net: &BusNetwork) -> Result<Self, TopologyError> {
        let m = net.memories();
        if m > MAX_TABLE_MEMORIES {
            return Err(TopologyError::TableTooLarge {
                memories: m,
                limit: MAX_TABLE_MEMORIES,
            });
        }
        let plan = MaskPlan::build(net);
        // lint:allow(lossy_cast, served counts are bounded by M <= MAX_TABLE_MEMORIES = 20 < 256)
        let counts = (0..1u64 << m).map(|mask| plan.served(mask) as u8).collect();
        Ok(Self { counts })
    }

    /// Served count for the requested-set bitmask `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `mask >= 2^M`.
    #[inline]
    pub fn served(&self, mask: u64) -> usize {
        self.counts[mask as usize] as usize
    }

    /// The raw table, indexed by mask.
    pub fn as_slice(&self) -> &[u8] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(net: &BusNetwork) -> ServedTable {
        ServedTable::build(net).unwrap()
    }

    #[test]
    fn crossbar_counts_population() {
        let net = BusNetwork::new(6, 6, 1, ConnectionScheme::Crossbar).unwrap();
        let t = table(&net);
        assert_eq!(t.counts.len(), 64);
        for mask in 0u64..64 {
            assert_eq!(t.served(mask), mask.count_ones() as usize);
        }
    }

    #[test]
    fn full_caps_at_buses() {
        let net = BusNetwork::new(8, 8, 3, ConnectionScheme::Full).unwrap();
        let t = table(&net);
        for mask in 0u64..256 {
            assert_eq!(t.served(mask), (mask.count_ones() as usize).min(3));
        }
    }

    #[test]
    fn single_counts_busy_buses() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let t = table(&net);
        // Memories 0, 1 share bus 0.
        assert_eq!(t.served(0b11), 1);
        // Adding memory 7 (bus 3) adds one service.
        assert_eq!(t.served(0b1000_0011), 2);
        assert_eq!(t.served((1 << 8) - 1), 4);
    }

    #[test]
    fn partial_groups_cap_per_group() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let t = table(&net);
        // Three requests in group 0 (cap 2), one in group 1.
        assert_eq!(t.served(0b0010_0111), 3);
        assert_eq!(t.served((1 << 8) - 1), 4);
    }

    #[test]
    fn kclass_matches_fig3_hand_checks() {
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let t = table(&net);
        // Both C_1 modules: buses 1 and 2 (1-based) busy.
        assert_eq!(t.served(0b000011), 2);
        // Plus one C_3 module on bus 4.
        assert_eq!(t.served(0b010011), 3);
        // Everything requested: all four buses busy.
        assert_eq!(t.served(0b111111), 4);
        // A single C_2 module takes its top bus.
        assert_eq!(t.served(0b000100), 1);
    }

    #[test]
    fn oracle_agrees_with_table_everywhere() {
        let nets = [
            BusNetwork::new(6, 6, 3, ConnectionScheme::Full).unwrap(),
            BusNetwork::new(6, 6, 3, ConnectionScheme::balanced_single(6, 3).unwrap()).unwrap(),
            BusNetwork::new(6, 6, 2, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap(),
            BusNetwork::new(6, 6, 1, ConnectionScheme::Crossbar).unwrap(),
        ];
        for net in &nets {
            let t = table(net);
            for mask in 0u64..t.counts.len() as u64 {
                assert_eq!(
                    t.served(mask),
                    served_count(net, mask),
                    "{net} mask {mask:#b}"
                );
            }
        }
    }

    #[test]
    fn size_limit() {
        let net = BusNetwork::new(4, 24, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            ServedTable::build(&net),
            Err(TopologyError::TableTooLarge {
                memories: 24,
                limit: MAX_TABLE_MEMORIES
            })
        ));
    }
}
