//! Scheduled bus failures and repairs.

use crate::SimError;
use serde::{Deserialize, Serialize};

/// What happens to a bus at a scheduled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultEventKind {
    /// The bus stops carrying traffic.
    Fail,
    /// The bus returns to service.
    Repair,
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle (counting warmup + measured cycles from 0) at whose *start*
    /// the event takes effect.
    pub cycle: u64,
    /// Affected bus.
    pub bus: usize,
    /// Failure or repair.
    pub kind: FaultEventKind,
}

/// A cycle-ordered schedule of bus failures and repairs.
///
/// # Examples
///
/// ```
/// use mbus_sim::{FaultEvent, FaultEventKind, FaultSchedule};
///
/// let schedule = FaultSchedule::from_events(vec![
///     FaultEvent { cycle: 100, bus: 2, kind: FaultEventKind::Fail },
///     FaultEvent { cycle: 500, bus: 2, kind: FaultEventKind::Repair },
/// ])?;
/// assert_eq!(schedule.len(), 2);
/// # Ok::<(), mbus_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub(crate) fn none() -> Self {
        Self::default()
    }

    /// Builds a schedule, sorting events by `(cycle, bus)` (stable for
    /// ties), so the order events apply in never depends on caller input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFaultSchedule`] if the same bus has both a
    /// `Fail` and a `Repair` scheduled for the same cycle: the two orders
    /// leave the bus in opposite states, so there is no deterministic
    /// interpretation to pick. Duplicate same-kind events are allowed (they
    /// are idempotent).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Result<Self, SimError> {
        events.sort_by_key(|e| (e.cycle, e.bus));
        for pair in events.windows(2) {
            if pair[0].cycle == pair[1].cycle
                && pair[0].bus == pair[1].bus
                && pair[0].kind != pair[1].kind
            {
                return Err(SimError::BadFaultSchedule {
                    reason: format!(
                        "bus {} has both Fail and Repair scheduled at cycle {}",
                        pair[0].bus, pair[0].cycle
                    ),
                });
            }
        }
        Ok(Self { events })
    }

    /// A single permanent failure of `bus` at `cycle`.
    pub fn fail_at(cycle: u64, bus: usize) -> Self {
        Self {
            events: vec![FaultEvent {
                cycle,
                bus,
                kind: FaultEventKind::Fail,
            }],
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, cycle-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Validates every referenced bus against a bus count, and re-checks
    /// the same-cycle Fail/Repair conflict rule enforced by
    /// [`FaultSchedule::from_events`] (defense in depth for schedules built
    /// through other paths).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFaultSchedule`] if any event references a bus
    /// `≥ buses`, or if one bus has conflicting events at one cycle.
    pub fn validate(&self, buses: usize) -> Result<(), SimError> {
        for event in &self.events {
            if event.bus >= buses {
                return Err(SimError::BadFaultSchedule {
                    reason: format!(
                        "event at cycle {} references bus {} but the network has {buses}",
                        event.cycle, event.bus
                    ),
                });
            }
        }
        for (i, a) in self.events.iter().enumerate() {
            for b in &self.events[i + 1..] {
                if a.cycle == b.cycle && a.bus == b.bus && a.kind != b.kind {
                    return Err(SimError::BadFaultSchedule {
                        reason: format!(
                            "bus {} has both Fail and Repair scheduled at cycle {}",
                            a.bus, a.cycle
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sorted() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent {
                cycle: 50,
                bus: 1,
                kind: FaultEventKind::Repair,
            },
            FaultEvent {
                cycle: 10,
                bus: 1,
                kind: FaultEventKind::Fail,
            },
        ])
        .unwrap();
        assert_eq!(schedule.events()[0].cycle, 10);
        assert_eq!(schedule.events()[1].cycle, 50);
    }

    #[test]
    fn validation_catches_bad_bus() {
        let schedule = FaultSchedule::fail_at(10, 9);
        assert!(schedule.validate(4).is_err());
        assert!(schedule.validate(10).is_ok());
    }

    #[test]
    fn empty_schedule() {
        let schedule = FaultSchedule::none();
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        assert!(schedule.validate(1).is_ok());
    }

    #[test]
    fn same_cycle_conflict_is_rejected_regardless_of_input_order() {
        let fail = FaultEvent {
            cycle: 100,
            bus: 2,
            kind: FaultEventKind::Fail,
        };
        let repair = FaultEvent {
            cycle: 100,
            bus: 2,
            kind: FaultEventKind::Repair,
        };
        for events in [vec![fail, repair], vec![repair, fail]] {
            let err = FaultSchedule::from_events(events).unwrap_err();
            assert!(
                matches!(err, SimError::BadFaultSchedule { ref reason }
                    if reason.contains("bus 2") && reason.contains("cycle 100")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn same_cycle_different_bus_or_same_kind_is_fine() {
        // Different buses at one cycle: allowed.
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent {
                cycle: 5,
                bus: 1,
                kind: FaultEventKind::Repair,
            },
            FaultEvent {
                cycle: 5,
                bus: 0,
                kind: FaultEventKind::Fail,
            },
        ])
        .unwrap();
        // Sorted by (cycle, bus), independent of input order.
        assert_eq!(schedule.events()[0].bus, 0);
        assert_eq!(schedule.events()[1].bus, 1);
        // Duplicate same-kind events are idempotent, so allowed.
        let dup = FaultEvent {
            cycle: 7,
            bus: 3,
            kind: FaultEventKind::Fail,
        };
        assert!(FaultSchedule::from_events(vec![dup, dup]).is_ok());
    }

    #[test]
    fn sort_is_deterministic_for_same_cycle_events() {
        let a = FaultEvent {
            cycle: 10,
            bus: 3,
            kind: FaultEventKind::Fail,
        };
        let b = FaultEvent {
            cycle: 10,
            bus: 1,
            kind: FaultEventKind::Fail,
        };
        let s1 = FaultSchedule::from_events(vec![a, b]).unwrap();
        let s2 = FaultSchedule::from_events(vec![b, a]).unwrap();
        assert_eq!(s1, s2, "schedule must not depend on input order");
    }
}
