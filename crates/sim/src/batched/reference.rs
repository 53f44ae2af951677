//! Naive per-seed reference for the batched sampling spec.
//!
//! [`run_reference`] executes the exact specification of
//! [`super::lanes::run_batch`] one replication at a time, with none of the
//! SoA machinery: a scalar `LaneRng` per seed, `Vec`-based requester
//! lists,
//! and — crucially — the *production* stage-2 arbiters
//! (`arbiter::grant_buses`, the same code the scalar
//! [`crate::Simulator`] runs). The two implementations share only the
//! `IssueTable` and the metric `LaneCollector`; request bookkeeping,
//! grant scanning, and winner selection are written independently (mask
//! algebra vs. scalar scans), which is what makes the differential suite
//! a genuine cross-implementation check rather than a tautology.
//!
//! Spec recap (where it differs from the scalar engine):
//!
//! * one `u64` draw per processor per cycle, decoded by the composite
//!   `IssueTable` — drawn *unconditionally* and discarded when a
//!   resubmitted request overrides it;
//! * after the issue draws, each cycle consumes `⌈capacity / 4⌉`
//!   further *arbitration words*;
//! * stage-1 winners are resolved lazily, per *grant*, in grant order
//!   (`grant_buses` runs with placeholder winners — every policy
//!   depends only on the requested set, so the grants are unaffected):
//!   grant `g` picks contender `chunk · count >> 16` of its ascending
//!   contender list, where `chunk` is the `g`-th 16-bit chunk of the
//!   cycle's arbitration words (uniform up to a bias below
//!   `count / 2^16`);
//! * everything else (unreachable filtering, stage-2 policies, waits,
//!   resubmission aging, metrics) matches the scalar engine exactly.

use super::collect::{LaneCollector, ServedUnits};
use super::issue::IssueTable;
use super::rng::{LaneRng, MAX_LANES};
use crate::arbiter::{grant_buses, Stage2State};
use crate::{CycleOutcome, FaultEventKind, SimConfig, SimError, SimReport};
use mbus_topology::{BusNetwork, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use rand::RngCore;

/// Runs the batched sampling spec naively, one seed at a time, returning
/// one [`SimReport`] per seed — bit-identical to the corresponding lane
/// of [`super::lanes::run_batch`].
///
/// # Errors
///
/// Same contract as [`super::lanes::run_batch`].
///
/// # Panics
///
/// Panics if the network exceeds the 64-lane envelope (`N ≤ 64`,
/// `M ≤ 64`) the batched spec is defined for.
pub fn run_reference(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
    if net.processors() != matrix.processors() {
        return Err(SimError::DimensionMismatch {
            what: "processors",
            network: net.processors(),
            workload: matrix.processors(),
        });
    }
    if net.memories() != matrix.memories() {
        return Err(SimError::DimensionMismatch {
            what: "memories",
            network: net.memories(),
            workload: matrix.memories(),
        });
    }
    config.faults.validate(net.buses())?;
    assert!(
        net.processors() <= MAX_LANES && net.memories() <= MAX_LANES,
        "the batched spec requires N ≤ {MAX_LANES} and M ≤ {MAX_LANES}"
    );
    let table = IssueTable::new(matrix, r)?;
    seeds
        .iter()
        .map(|&seed| run_one(net, &table, config, seed))
        .collect()
}

fn run_one(
    net: &BusNetwork,
    table: &IssueTable,
    config: &SimConfig,
    seed: u64,
) -> Result<SimReport, SimError> {
    let (n, m) = (net.processors(), net.memories());
    let resubmission = config.resubmission;
    let crossbar = net.kind() == SchemeKind::Crossbar;
    let bus_memories: Vec<Vec<usize>> = (0..net.buses())
        .map(|bus| net.memories_of_bus(bus).collect())
        .collect();

    let mut rng = LaneRng::seed_from_u64(seed);
    let mut mask = FaultMask::none(net.buses());
    let mut state = Stage2State::new(net);
    let mut collector = LaneCollector::new(net, config);
    let mut bus_alive = vec![0u64; net.buses()];

    let mut destinations: Vec<Option<usize>> = vec![None; n];
    let mut pending_memory: Vec<Option<usize>> = vec![None; n];
    let mut ages = vec![0u64; n];
    let mut requesters: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut winners: Vec<Option<usize>> = vec![None; m];
    let mut served = vec![false; n];
    let mut arb = vec![0u64; net.capacity().div_ceil(4)];
    let mut outcome = CycleOutcome::default();

    let total = config.warmup + config.cycles;
    let events = config.faults.events();
    let mut fault_cursor = 0usize;
    for cycle in 0..total {
        while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
            let event = events[fault_cursor];
            match event.kind {
                FaultEventKind::Fail => mask.fail(event.bus).map_err(SimError::Topology)?,
                FaultEventKind::Repair => mask.repair(event.bus).map_err(SimError::Topology)?,
            }
            fault_cursor += 1;
        }
        let measured = cycle >= config.warmup;
        if measured {
            if mask.failed_count() == 0 {
                for alive in &mut bus_alive {
                    *alive += 1;
                }
            } else {
                for (bus, alive) in bus_alive.iter_mut().enumerate() {
                    *alive += u64::from(mask.is_alive(bus));
                }
            }
        }
        outcome.issued = 0;
        outcome.active = 0;
        outcome.unreachable = 0;
        outcome.grants.clear();
        outcome.waits.clear();

        // 1. Issue: one unconditional draw per processor.
        for p in 0..n {
            let draw = rng.next_u64();
            destinations[p] = match pending_memory[p] {
                Some(memory) if resubmission => {
                    outcome.active += 1;
                    Some(memory)
                }
                _ => match table.decode(p, draw) {
                    Some(memory) => {
                        outcome.active += 1;
                        outcome.issued += 1;
                        Some(memory)
                    }
                    None => None,
                },
            };
        }

        // 1b. The cycle's arbitration words, drawn right after the issue
        // draws (the SoA engine fills both matrices before its lane pass).
        for slot in &mut arb {
            *slot = rng.next_u64();
        }

        // 2. Drop requests to unreachable memories.
        let all_alive = mask.failed_count() == 0;
        if !all_alive {
            for p in 0..n {
                if let Some(memory) = destinations[p] {
                    let reachable =
                        crossbar || net.buses_of_memory(memory).any(|bus| mask.is_alive(bus));
                    if !reachable {
                        outcome.unreachable += 1;
                        destinations[p] = None;
                        pending_memory[p] = None;
                    }
                }
            }
        }

        // 3. Requester lists; placeholder winners (lowest-index requester)
        // stand in for stage 1 — no policy reads the winner's identity.
        for list in &mut requesters {
            list.clear();
        }
        let mut requested_mask = 0u64;
        for (p, dest) in destinations.iter().enumerate() {
            if let Some(memory) = *dest {
                requesters[memory].push(p);
                requested_mask |= 1 << memory;
            }
        }
        for (memory, winner) in winners.iter_mut().enumerate() {
            *winner = requesters[memory].first().copied();
        }

        // 4. Stage 2 via the production arbiters.
        grant_buses(
            net,
            &mask,
            &bus_memories,
            &winners,
            requested_mask,
            true,
            all_alive,
            &mut state,
            &mut rng,
            &mut outcome.grants,
        );

        // 5. Winners resolved in grant order from the arbitration chunks,
        // then completion bookkeeping fed straight to the shared collector:
        // one `grant` per grant in grant order, then the cycle's served
        // units. Requester lists are ascending, matching the SoA engine's
        // bit order, so index `chunk · count >> 16` picks the identical
        // processor.
        served.iter_mut().for_each(|s| *s = false);
        let mut units = ServedUnits::default();
        for (g, grant) in outcome.grants.iter_mut().enumerate() {
            let list = &requesters[grant.memory];
            let chunk = arb[g >> 2] >> ((g & 3) * 16) & 0xffff;
            grant.processor = list[((chunk * list.len() as u64) >> 16) as usize];
            served[grant.processor] = true;
            units.processors |= 1 << grant.processor;
            units.memories |= 1 << grant.memory;
            if let Some(bus) = grant.bus {
                units.buses |= 1 << bus;
            }
            if measured {
                let age = if pending_memory[grant.processor].is_some() {
                    ages[grant.processor]
                } else {
                    0
                };
                collector.grant(age);
            }
            pending_memory[grant.processor] = None;
        }
        if resubmission {
            for p in 0..n {
                if served[p] {
                    continue;
                }
                match destinations[p] {
                    Some(memory) => {
                        ages[p] = if pending_memory[p].is_some() {
                            ages[p] + 1
                        } else {
                            1
                        };
                        pending_memory[p] = Some(memory);
                    }
                    None => pending_memory[p] = None,
                }
            }
        } else {
            pending_memory.iter_mut().for_each(|slot| *slot = None);
        }

        if measured {
            // lint:allow(lossy_cast, per-cycle counts are bounded by N ≤ 64)
            let grants = outcome.grants.len() as u32;
            // lint:allow(lossy_cast, per-cycle counts are bounded by N ≤ 64)
            let issued = outcome.issued as u32;
            // lint:allow(lossy_cast, per-cycle counts are bounded by N ≤ 64)
            let unreachable = outcome.unreachable as u32;
            collector.end_cycle(grants, issued, unreachable, units);
        }
    }
    Ok(collector.finish(config, &bus_alive))
}
