//! Bus-failure modeling: fault masks and degraded network views.
//!
//! The paper motivates multiple-bus networks partly by fault tolerance ("in
//! case a bus fails, the multiprocessor system can still function with other
//! nonfaulty ones") and assigns each scheme a *degree* of fault tolerance in
//! Table I. This module makes that operational: a [`FaultMask`] records which
//! buses are down, and a [`DegradedView`] answers reachability and residual-
//! redundancy questions that the analysis and simulator use to quantify
//! degraded-mode bandwidth.

use crate::{BusNetwork, TopologyError};
use serde::{Deserialize, Serialize};

/// A set of failed buses in a `B`-bus network.
///
/// # Examples
///
/// ```
/// use mbus_topology::FaultMask;
///
/// let mut mask = FaultMask::none(4);
/// mask.fail(2)?;
/// assert!(mask.is_failed(2));
/// assert_eq!(mask.alive_count(), 3);
/// # Ok::<(), mbus_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultMask {
    failed: Vec<bool>,
}

impl FaultMask {
    /// A mask over `buses` buses with no failures.
    pub fn none(buses: usize) -> Self {
        Self {
            failed: vec![false; buses],
        }
    }

    /// A mask with the listed buses failed.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IndexOutOfRange`] if any index is `≥ buses`.
    pub fn with_failures(buses: usize, failures: &[usize]) -> Result<Self, TopologyError> {
        let mut mask = Self::none(buses);
        for &bus in failures {
            mask.fail(bus)?;
        }
        Ok(mask)
    }

    /// Number of buses the mask covers.
    pub(crate) fn buses(&self) -> usize {
        self.failed.len()
    }

    /// Marks `bus` failed (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IndexOutOfRange`] if `bus` is out of range.
    pub fn fail(&mut self, bus: usize) -> Result<(), TopologyError> {
        match self.failed.get_mut(bus) {
            Some(slot) => {
                *slot = true;
                Ok(())
            }
            None => Err(TopologyError::IndexOutOfRange {
                kind: "bus",
                index: bus,
                len: self.failed.len(),
            }),
        }
    }

    /// Marks `bus` repaired (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IndexOutOfRange`] if `bus` is out of range.
    pub fn repair(&mut self, bus: usize) -> Result<(), TopologyError> {
        match self.failed.get_mut(bus) {
            Some(slot) => {
                *slot = false;
                Ok(())
            }
            None => Err(TopologyError::IndexOutOfRange {
                kind: "bus",
                index: bus,
                len: self.failed.len(),
            }),
        }
    }

    /// Whether `bus` is failed; out-of-range buses read as not failed.
    pub fn is_failed(&self, bus: usize) -> bool {
        self.failed.get(bus).copied().unwrap_or(false)
    }

    /// Whether `bus` is alive.
    pub fn is_alive(&self, bus: usize) -> bool {
        !self.is_failed(bus)
    }

    /// Number of failed buses.
    pub fn failed_count(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Number of alive buses.
    pub fn alive_count(&self) -> usize {
        self.failed.len() - self.failed_count()
    }

    /// Iterator over failed bus indices.
    pub fn iter_failed(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
    }

    /// Iterator over alive bus indices.
    pub fn iter_alive(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| !f)
            .map(|(i, _)| i)
    }
}

/// The canonical text form `"buses:failed,failed,..."` — e.g. `"4:1,3"` for
/// a 4-bus mask with buses 1 and 3 down, `"4:"` for a healthy one. Round-
/// trips through [`FaultMask::from_str`](std::str::FromStr), which is how
/// masks persist in campaign reports and CLI arguments.
impl std::fmt::Display for FaultMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:", self.buses())?;
        for (i, bus) in self.iter_failed().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{bus}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultMask {
    type Err = TopologyError;

    /// Parses the [`Display`](std::fmt::Display) form. Failed buses may come
    /// in any order and repeat; they must all lie below the bus count.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: String| TopologyError::BadMaskSyntax { reason };
        let (buses, failed) = s
            .split_once(':')
            .ok_or_else(|| bad(format!("'{s}' is missing the ':' separator")))?;
        let buses: usize = buses
            .parse()
            .map_err(|_| bad(format!("bad bus count '{buses}'")))?;
        if buses == 0 {
            return Err(bad("bus count must be positive".into()));
        }
        let mut mask = Self::none(buses);
        if failed.is_empty() {
            return Ok(mask);
        }
        for part in failed.split(',') {
            let bus: usize = part
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad bus index '{part}'")))?;
            mask.fail(bus)?;
        }
        Ok(mask)
    }
}

/// A network observed through a fault mask.
///
/// # Examples
///
/// ```
/// use mbus_topology::{BusNetwork, ConnectionScheme, DegradedView, FaultMask};
///
/// let net = BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4)?)?;
/// let mask = FaultMask::with_failures(4, &[1])?;
/// let view = DegradedView::new(&net, &mask)?;
/// // Single connection: the two memories on bus 1 become unreachable.
/// assert_eq!(view.accessible_memory_count(), 6);
/// # Ok::<(), mbus_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DegradedView<'a> {
    network: &'a BusNetwork,
    mask: &'a FaultMask,
}

impl<'a> DegradedView<'a> {
    /// Pairs a network with a fault mask.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IndexOutOfRange`] if the mask covers a
    /// different number of buses than the network has.
    pub fn new(network: &'a BusNetwork, mask: &'a FaultMask) -> Result<Self, TopologyError> {
        if mask.buses() != network.buses() {
            return Err(TopologyError::IndexOutOfRange {
                kind: "bus",
                index: mask.buses(),
                len: network.buses(),
            });
        }
        Ok(Self { network, mask })
    }

    /// Number of *alive* buses wired to `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `memory` is out of range.
    pub(crate) fn alive_buses_of_memory(&self, memory: usize) -> usize {
        self.network
            .buses_of_memory(memory)
            .filter(|&bus| self.mask.is_alive(bus))
            .count()
    }

    /// Whether `memory` is still reachable (at least one alive bus).
    ///
    /// The crossbar never loses reachability to bus failures (it has no
    /// buses), so this is always `true` there.
    ///
    /// # Panics
    ///
    /// Panics if `memory` is out of range.
    pub fn is_memory_accessible(&self, memory: usize) -> bool {
        use crate::SchemeKind;
        if self.network.kind() == SchemeKind::Crossbar {
            return true;
        }
        self.alive_buses_of_memory(memory) > 0
    }

    /// Number of memories still reachable.
    pub fn accessible_memory_count(&self) -> usize {
        (0..self.network.memories())
            .filter(|&j| self.is_memory_accessible(j))
            .count()
    }

    /// Fraction of memories still reachable, in `[0, 1]`.
    pub fn accessible_fraction(&self) -> f64 {
        self.accessible_memory_count() as f64 / self.network.memories() as f64
    }

    /// Whether every memory is still reachable.
    pub fn fully_connected(&self) -> bool {
        self.accessible_memory_count() == self.network.memories()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConnectionScheme;

    fn full_net() -> BusNetwork {
        BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap()
    }

    #[test]
    fn mask_basics() {
        let mut mask = FaultMask::none(4);
        assert_eq!(mask.alive_count(), 4);
        mask.fail(0).unwrap();
        mask.fail(0).unwrap(); // idempotent
        assert_eq!(mask.failed_count(), 1);
        assert_eq!(mask.iter_failed().collect::<Vec<_>>(), vec![0]);
        assert_eq!(mask.iter_alive().collect::<Vec<_>>(), vec![1, 2, 3]);
        mask.repair(0).unwrap();
        assert_eq!(mask.failed_count(), 0);
        assert!(mask.fail(9).is_err());
        assert!(mask.repair(9).is_err());
    }

    #[test]
    fn mask_length_must_match_network() {
        let net = full_net();
        let mask = FaultMask::none(3);
        assert!(DegradedView::new(&net, &mask).is_err());
    }

    #[test]
    fn full_scheme_survives_to_the_degree() {
        let net = full_net();
        let degree = net.fault_tolerance_degree();
        assert_eq!(degree, 3);
        // Fail exactly `degree` buses: still fully connected.
        let mask = FaultMask::with_failures(4, &[0, 1, 2]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(view.fully_connected());
        // Every memory is down to its last bus.
        assert!((0..8).all(|j| view.alive_buses_of_memory(j) == 1));
        // One more failure disconnects everything.
        let mask = FaultMask::with_failures(4, &[0, 1, 2, 3]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert_eq!(view.accessible_memory_count(), 0);
    }

    #[test]
    fn single_scheme_loses_bus_memories() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let mask = FaultMask::with_failures(4, &[3]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(!view.is_memory_accessible(6));
        assert!(!view.is_memory_accessible(7));
        assert!(view.is_memory_accessible(0));
        assert_eq!(view.accessible_fraction(), 0.75);
    }

    #[test]
    fn partial_groups_survive_within_group() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        // Lose one bus of group 0: group 0 memories survive on the other.
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(view.fully_connected());
        // Lose both buses of group 0: its four memories are gone.
        let mask = FaultMask::with_failures(4, &[0, 1]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert_eq!(view.accessible_memory_count(), 4);
    }

    #[test]
    fn kclass_flexible_fault_tolerance() {
        // Fig. 3 network: class C_1 on buses {0,1}, C_2 on {0,1,2},
        // C_3 on {0,1,2,3}.
        let net =
            BusNetwork::new(3, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        // Failing the two low buses isolates class C_1 only.
        let mask = FaultMask::with_failures(4, &[0, 1]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(!view.is_memory_accessible(0));
        assert!(!view.is_memory_accessible(1));
        assert!(view.is_memory_accessible(2)); // C_2 still has bus 2
        assert!(view.is_memory_accessible(4)); // C_3 still has buses 2, 3
                                               // Failing the two high buses harms nobody's reachability.
        let mask = FaultMask::with_failures(4, &[2, 3]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(view.fully_connected());
    }

    #[test]
    fn crossbar_is_immune_to_bus_masks() {
        let net = BusNetwork::new(4, 4, 1, ConnectionScheme::Crossbar).unwrap();
        let mask = FaultMask::with_failures(1, &[0]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        assert!(view.fully_connected());
    }

    #[test]
    fn mask_text_round_trips() {
        let mask = FaultMask::with_failures(4, &[1, 3]).unwrap();
        assert_eq!(mask.to_string(), "4:1,3");
        assert_eq!("4:1,3".parse::<FaultMask>().unwrap(), mask);
        // A healthy mask renders with an empty failure list.
        let healthy = FaultMask::none(6);
        assert_eq!(healthy.to_string(), "6:");
        assert_eq!("6:".parse::<FaultMask>().unwrap(), healthy);
        // Order and duplicates in the input are normalized away.
        assert_eq!("4:3,1,3".parse::<FaultMask>().unwrap(), mask);
        assert_eq!("4: 3 , 1 ".parse::<FaultMask>().unwrap(), mask);
    }

    #[test]
    fn mask_parse_rejects_malformed_specs() {
        let syntax = |s: &str| {
            assert!(
                matches!(
                    s.parse::<FaultMask>(),
                    Err(TopologyError::BadMaskSyntax { .. })
                ),
                "'{s}' should be a syntax error"
            );
        };
        syntax("4"); // no separator
        syntax("x:1");
        syntax("0:"); // zero buses
        syntax("4:a");
        syntax("4:1,,3"); // empty element
                          // Out-of-range failures surface as the usual index error.
        assert!(matches!(
            "4:4".parse::<FaultMask>(),
            Err(TopologyError::IndexOutOfRange {
                index: 4,
                len: 4,
                ..
            })
        ));
    }

    #[test]
    fn degraded_view_exposes_its_parts() {
        let net = full_net();
        let mask = FaultMask::with_failures(4, &[2]).unwrap();
        let view = DegradedView::new(&net, &mask).unwrap();
        // Full connection: redundancy degrades uniformly with each failure.
        assert!((0..8).all(|j| view.alive_buses_of_memory(j) == 3));
    }

    proptest::proptest! {
        #[test]
        fn mask_display_parse_round_trip(
            buses in 1usize..32,
            failures in proptest::collection::vec(0usize..32, 0..8),
        ) {
            let failures: Vec<usize> =
                failures.into_iter().filter(|&bus| bus < buses).collect();
            let mask = FaultMask::with_failures(buses, &failures).unwrap();
            let parsed: FaultMask = mask.to_string().parse().unwrap();
            proptest::prop_assert_eq!(parsed, mask);
        }
    }
}
