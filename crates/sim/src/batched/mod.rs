//! Batched SoA replication engine: up to 64 seeds advanced in lock-step.
//!
//! Replicated simulation (`run_replications`) used to pay the full scalar
//! engine once per replication. This module amortizes that cost by
//! packing up to [`MAX_LANES`] = 64 independent replications — one seed
//! per *lane* — into `u64` words and advancing them together through a
//! single cycle loop ([`run_batch`]): per-lane request sets, served sets
//! and resubmission queues are bitmasks manipulated with lane-wide
//! boolean algebra, each lane's requests are one outcome byte per
//! processor, request issue costs one RNG draw per processor per cycle
//! (`issue::IssueTable`), and stage-1 winners are ranked branchlessly
//! out of pre-drawn arbitration words among the bytes that match the
//! granted memory. Only the K-class random subset selection genuinely
//! diverges between lanes and falls back to per-lane scalar RNG
//! stepping. The cycle loop is built three times — portable, with
//! BMI2/POPCNT/AVX2, and with those plus AVX-512F/BW — and `dispatch`
//! picks one per call from CPUID; the AVX-512 build also runs the lane
//! RNG fill and the request issue eight lanes per vector. Every build
//! produces identical reports.
//!
//! The batched engine defines its own *sampling spec* — same per-cycle
//! marginal distributions as the scalar [`crate::Simulator`], different
//! RNG consumption — so its reports are statistically equivalent to, but
//! not bit-identical with, scalar reports. Verification is therefore
//! two-pronged:
//!
//! * [`reference::run_reference`] implements the identical spec naively
//!   (one scalar `rng::LaneRng` per seed, the production `grant_buses`
//!   arbiters) and
//!   must match [`run_batch`] **bit for bit, per lane** — the
//!   differential suite in `tests/batched_differential.rs` enforces this
//!   across every scheme, with and without faults and resubmission;
//! * the replication runner cross-checks batched results against the
//!   scalar engine statistically, and the scalar engine remains the sole
//!   path for traced runs and the PR 1 golden reports.
//!
//! Eligibility: `N ≤ 64`, `M ≤ 64`, and at least two replications
//! ([`eligible`]); everything else stays on the scalar engine.

pub(crate) mod collect;
pub(crate) mod dispatch;
#[cfg(test)]
#[path = "../../tests/support/batched_scenarios.rs"]
mod golden_scenarios;
pub(crate) mod issue;
pub mod lanes;
pub mod reference;
pub(crate) mod rng;

pub use lanes::run_batch;
pub use reference::run_reference;
pub use rng::MAX_LANES;

use mbus_topology::BusNetwork;

/// Whether the batched engine can and should run `replications`
/// replications on `net`: every per-lane set must fit a `u64` word, and a
/// single replication gains nothing from batching.
pub fn eligible(net: &BusNetwork, replications: usize) -> bool {
    net.processors() <= MAX_LANES && net.memories() <= MAX_LANES && replications >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;

    #[test]
    fn eligibility_envelope() {
        let small = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(eligible(&small, 2));
        assert!(eligible(&small, 64));
        assert!(!eligible(&small, 1));
        let wide = BusNetwork::new(100, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(!eligible(&wide, 8));
        let deep = BusNetwork::new(8, 100, 4, ConnectionScheme::Full).unwrap();
        assert!(!eligible(&deep, 8));
    }
}
