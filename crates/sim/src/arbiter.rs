//! Stage-2 (bus) arbitration, per connection scheme.
//!
//! Stage 1 has already collapsed each memory's requester list to a single
//! winner; stage 2 decides which of those *selected memories* obtain a bus
//! this cycle. The policies follow §II-A and §III-D of the paper:
//!
//! * **full** — a B-of-M arbiter assigns buses round-robin over memory
//!   modules (a rotating scan pointer guarantees long-run fairness);
//! * **single** — each bus arbitrates among its own modules with a rotating
//!   per-bus pointer;
//! * **partial groups** — an independent B/g-of-M/g arbiter per group;
//! * **K classes** — the two-step procedure: each class `C_j` selects up to
//!   `j+B−K` of its requested modules and assigns them to its buses from the
//!   top down, then each bus resolves cross-class contention by random
//!   selection;
//! * **crossbar** — every selected memory is served.
//!
//! All policies honor a [`FaultMask`]: failed buses grant nothing, and
//! memories with no surviving bus cannot be served.
//!
//! # Performance
//!
//! [`Stage2State`] owns every scratch vector the policies need, so a cycle
//! in steady state performs no heap allocation. When `M ≤ 64` the engine
//! also hands over the requested-set bitmask, which lets the non-random
//! policies skip empty buses/groups/classes with one `AND`, and — on a
//! fault-free full-connection network — terminate the grant scan as soon as
//! the served count `min(popcount, B)` is reached. A fault-free full
//! network also assigns buses arithmetically, `(rr_bus + g) mod B` for
//! grant `g`, instead of rotating an alive-bus list. Every fast path is
//! *draw-order neutral*: it only skips work that consumes no randomness and
//! mutates no state, so reports stay bit-identical (the `golden`
//! integration test pins them).

use crate::engine::Grant;
use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask};
use rand::Rng;

/// Rotating pointers that give the round-robin arbiters long-run fairness,
/// plus reusable scratch buffers and precomputed fast-path data.
#[derive(Debug, Clone)]
pub(crate) struct Stage2State {
    /// Full scheme: scan start over memory indices.
    rr_memory: usize,
    /// Full scheme: rotation of the bus assignment (the first grant's bus
    /// when every bus is alive).
    rr_bus: usize,
    /// Single scheme: per-bus pointer into that bus's memory list.
    rr_per_bus: Vec<usize>,
    /// Partial scheme: per-group scan start (relative to the group).
    rr_group: Vec<usize>,
    /// Scratch: alive buses (full scheme under faults) or alive group
    /// buses (partial).
    alive: Vec<usize>,
    /// Scratch: requested memories of the current class (K classes).
    requested: Vec<usize>,
    /// Scratch: the current class's alive buses, top-down (K classes).
    alive_desc: Vec<usize>,
    /// Scratch: per-bus `(memory, processor)` contenders (K classes).
    contenders: Vec<Vec<(usize, usize)>>,
    /// Single scheme, `M ≤ 64`: bitmask of each bus's memories.
    bus_masks: Vec<u64>,
    /// Partial scheme, `M ≤ 64`: bitmask of each group's memories.
    group_masks: Vec<u64>,
    /// K classes, `M ≤ 64`: bitmask of each class's memories.
    class_masks: Vec<u64>,
}

impl Stage2State {
    pub(crate) fn new(net: &BusNetwork) -> Self {
        let groups = net.group_count().unwrap_or(0);
        let m = net.memories();
        let masks_fit = m <= 64;
        let bus_masks = if masks_fit && matches!(net.scheme(), ConnectionScheme::Single { .. }) {
            (0..net.buses())
                .map(|bus| net.memories_of_bus(bus).fold(0u64, |acc, j| acc | (1 << j)))
                .collect()
        } else {
            Vec::new()
        };
        let group_masks = if masks_fit && groups > 0 {
            let per_mem = m / groups;
            (0..groups)
                .map(|q| (q * per_mem..(q + 1) * per_mem).fold(0u64, |acc, j| acc | (1 << j)))
                .collect()
        } else {
            Vec::new()
        };
        let class_masks = match net.scheme() {
            ConnectionScheme::KClasses { class_sizes } if masks_fit => (0..class_sizes.len())
                .map(|c| {
                    net.memories_of_class(c)
                        // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                        .expect("validated K-class")
                        .fold(0u64, |acc, j| acc | (1 << j))
                })
                .collect(),
            _ => Vec::new(),
        };
        Self {
            rr_memory: 0,
            rr_bus: 0,
            rr_per_bus: vec![0; net.buses()],
            rr_group: vec![0; groups],
            alive: Vec::with_capacity(net.buses()),
            requested: Vec::with_capacity(m),
            alive_desc: Vec::with_capacity(net.buses()),
            // Each class contributes at most one contender per bus.
            contenders: (0..net.buses())
                .map(|_| Vec::with_capacity(net.class_count().unwrap_or(0)))
                .collect(),
            bus_masks,
            group_masks,
            class_masks,
        }
    }

    /// Rewinds the rotating pointers to the post-construction state without
    /// dropping scratch capacity or precomputed tables.
    pub(crate) fn reset(&mut self) {
        self.rr_memory = 0;
        self.rr_bus = 0;
        self.rr_per_bus.iter_mut().for_each(|p| *p = 0);
        self.rr_group.iter_mut().for_each(|p| *p = 0);
    }
}

/// Runs stage-2 arbitration for one cycle.
///
/// `winners[j]` is the stage-1 winning processor for memory `j` (or `None`
/// if nobody requested `j`). `requested_mask` has bit `j` set iff
/// `winners[j]` is `Some` — only meaningful when `masks_valid` (`M ≤ 64`).
/// `all_alive` asserts the fault mask has no failures. Grants are appended
/// to `out`.
#[allow(clippy::too_many_arguments)] // one call site, in the engine
pub(crate) fn grant_buses<R: Rng + ?Sized>(
    net: &BusNetwork,
    mask: &FaultMask,
    bus_memories: &[Vec<usize>],
    winners: &[Option<usize>],
    requested_mask: u64,
    masks_valid: bool,
    all_alive: bool,
    state: &mut Stage2State,
    rng: &mut R,
    out: &mut Vec<Grant>,
) {
    match net.scheme() {
        ConnectionScheme::Crossbar => {
            for (memory, winner) in winners.iter().enumerate() {
                if let Some(processor) = *winner {
                    out.push(Grant {
                        processor,
                        memory,
                        bus: None,
                    });
                }
            }
        }
        ConnectionScheme::Full => {
            let m = net.memories();
            let b = net.buses();
            // Which bus carries which request rotates for fairness
            // (bandwidth-neutral, utilization-relevant): grant `g` rides
            // the `g`-th alive bus after a rotation by `rr_bus`. Fault-free
            // that is bus `(rr_bus + g) mod B`, with no list to build.
            if !all_alive {
                state.alive.clear();
                state.alive.extend(mask.iter_alive());
                if state.alive.is_empty() {
                    return;
                }
                let rot = state.rr_bus % state.alive.len();
                state.alive.rotate_left(rot);
            }
            let rr_bus = state.rr_bus;
            let alive = &state.alive;
            let carrier = |g: usize| {
                if all_alive {
                    // `rr_bus < B` and `g < B`: one subtraction wraps.
                    let bus = rr_bus + g;
                    if bus >= b {
                        bus - b
                    } else {
                        bus
                    }
                } else {
                    alive[g]
                }
            };
            // Fault-free, the served count is the full scheme's closed
            // form `min(popcount, B)`, so the scan stops at the last grant
            // instead of walking all M memories.
            let limit = if all_alive {
                if masks_valid {
                    (requested_mask.count_ones() as usize).min(b)
                } else {
                    b
                }
            } else {
                alive.len()
            };
            let mut granted = 0usize;
            if masks_valid {
                // Visit the requested memories cyclically from the scan
                // pointer by splitting the mask at it — same order as the
                // dense scan, without its data-dependent winner branches
                // (`rr_memory < m ≤ 64`, so the shift cannot overflow).
                let below_pointer = (1u64 << state.rr_memory) - 1;
                for part in [
                    requested_mask & !below_pointer,
                    requested_mask & below_pointer,
                ] {
                    let mut bits = part;
                    while bits != 0 && granted < limit {
                        let memory = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        // lint:allow(no_panic, the requested mask only has bits for memories that elected a winner)
                        let processor = winners[memory].expect("requested memory has a winner");
                        out.push(Grant {
                            processor,
                            memory,
                            bus: Some(carrier(granted)),
                        });
                        granted += 1;
                    }
                }
            } else {
                let mut memory = state.rr_memory;
                for _ in 0..m {
                    if granted == limit {
                        break;
                    }
                    if let Some(processor) = winners[memory] {
                        out.push(Grant {
                            processor,
                            memory,
                            bus: Some(carrier(granted)),
                        });
                        granted += 1;
                    }
                    memory += 1;
                    if memory == m {
                        memory = 0;
                    }
                }
            }
            state.rr_memory += 1;
            if state.rr_memory == m {
                state.rr_memory = 0;
            }
            state.rr_bus += 1;
            if state.rr_bus == b {
                state.rr_bus = 0;
            }
        }
        ConnectionScheme::Single { .. } => {
            for bus in mask.iter_alive() {
                // A bus none of whose memories are requested grants nothing
                // and moves no pointer: skip the scan outright.
                if masks_valid && state.bus_masks[bus] & requested_mask == 0 {
                    continue;
                }
                let mems = &bus_memories[bus];
                if mems.is_empty() {
                    continue;
                }
                let start = state.rr_per_bus[bus] % mems.len();
                for offset in 0..mems.len() {
                    let idx = (start + offset) % mems.len();
                    let memory = mems[idx];
                    if let Some(processor) = winners[memory] {
                        out.push(Grant {
                            processor,
                            memory,
                            bus: Some(bus),
                        });
                        state.rr_per_bus[bus] = (idx + 1) % mems.len();
                        break;
                    }
                }
            }
        }
        ConnectionScheme::PartialGroups { groups } => {
            let g = *groups;
            let per_mem = net.memories() / g;
            let per_bus = net.buses() / g;
            for q in 0..g {
                // Fault-free group with no requests: the scan would grant
                // nothing and advance the pointer — do just that. (Under
                // faults the pointer only advances when the group has an
                // alive bus, so the skip is gated on `all_alive`.)
                if masks_valid && all_alive && state.group_masks[q] & requested_mask == 0 {
                    state.rr_group[q] = (state.rr_group[q] + 1) % per_mem;
                    continue;
                }
                state.alive.clear();
                state
                    .alive
                    .extend((q * per_bus..(q + 1) * per_bus).filter(|&bus| mask.is_alive(bus)));
                if state.alive.is_empty() {
                    continue;
                }
                let mut granted = 0usize;
                for offset in 0..per_mem {
                    if granted == state.alive.len() {
                        break;
                    }
                    let memory = q * per_mem + (state.rr_group[q] + offset) % per_mem;
                    if let Some(processor) = winners[memory] {
                        out.push(Grant {
                            processor,
                            memory,
                            bus: Some(state.alive[granted]),
                        });
                        granted += 1;
                    }
                }
                state.rr_group[q] = (state.rr_group[q] + 1) % per_mem;
            }
        }
        ConnectionScheme::KClasses { class_sizes } => {
            let k = class_sizes.len();
            // Step 1: per class, select up to cap requested modules and
            // assign them to the class's alive buses from the top down.
            // contenders[bus] collects (memory, processor) pairs.
            for list in &mut state.contenders {
                list.clear();
            }
            for c in 0..k {
                // Class with no requests: identical to the empty-`requested`
                // continue below, minus the walk over its memory range.
                if masks_valid && state.class_masks[c] & requested_mask == 0 {
                    continue;
                }
                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                let range = net.memories_of_class(c).expect("validated K-class");
                state.requested.clear();
                state
                    .requested
                    .extend(range.filter(|&j| winners[j].is_some()));
                if state.requested.is_empty() {
                    continue;
                }
                let top = net.kclass_bus_count(c); // buses 0..top (exclusive)
                state.alive_desc.clear();
                state
                    .alive_desc
                    .extend((0..top).rev().filter(|&bus| mask.is_alive(bus)));
                if state.alive_desc.is_empty() {
                    continue;
                }
                let cap = state.alive_desc.len().min(state.requested.len());
                // Fair selection: random `cap`-subset via partial
                // Fisher–Yates (the paper leaves the choice unspecified).
                for i in 0..cap {
                    let j = rng.random_range(i..state.requested.len());
                    state.requested.swap(i, j);
                }
                for (slot, &memory) in state.requested[..cap].iter().enumerate() {
                    let bus = state.alive_desc[slot];
                    // lint:allow(no_panic, state.requested only holds memories whose winner is Some)
                    let processor = winners[memory].expect("selected above");
                    state.contenders[bus].push((memory, processor));
                }
            }
            // Step 2: each bus arbiter picks one contender at random.
            for (bus, list) in state.contenders.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let (memory, processor) = list[rng.random_range(0..list.len())];
                out.push(Grant {
                    processor,
                    memory,
                    bus: Some(bus),
                });
            }
        }
        // lint:allow(no_panic, ConnectionScheme is non_exhaustive but BusNetwork::new rejects schemes outside the paper's five)
        other => unreachable!("unsupported scheme {:?}", other.kind()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bus_memories(net: &BusNetwork) -> Vec<Vec<usize>> {
        (0..net.buses())
            .map(|bus| net.memories_of_bus(bus).collect())
            .collect()
    }

    fn run(
        net: &BusNetwork,
        mask: &FaultMask,
        winners: &[Option<usize>],
        state: &mut Stage2State,
    ) -> Vec<Grant> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        let requested_mask = winners
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_some())
            .fold(0u64, |acc, (j, _)| acc | (1 << j));
        grant_buses(
            net,
            mask,
            &bus_memories(net),
            winners,
            requested_mask,
            winners.len() <= 64,
            mask.failed_count() == 0,
            state,
            &mut rng,
            &mut out,
        );
        out
    }

    #[test]
    fn full_grants_up_to_b() {
        let net = BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap();
        let mask = FaultMask::none(2);
        let mut state = Stage2State::new(&net);
        let winners: Vec<Option<usize>> = (0..8).map(|j| (j % 2 == 0).then_some(j)).collect();
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 2);
        // Distinct buses.
        let buses: Vec<_> = grants.iter().map(|g| g.bus.unwrap()).collect();
        assert_ne!(buses[0], buses[1]);
    }

    #[test]
    fn full_round_robin_is_fair_over_cycles() {
        // Two permanently-contending memories, one bus: alternate service.
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        let mask = FaultMask::none(1);
        let mut state = Stage2State::new(&net);
        let winners = vec![Some(0), Some(1)];
        let mut served = [0usize; 2];
        for _ in 0..10 {
            let grants = run(&net, &mask, &winners, &mut state);
            assert_eq!(grants.len(), 1);
            served[grants[0].memory] += 1;
        }
        assert_eq!(served, [5, 5]);
    }

    #[test]
    fn full_with_failed_buses_grants_fewer() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mask = FaultMask::with_failures(4, &[0, 1, 2]).unwrap();
        let mut state = Stage2State::new(&net);
        let winners: Vec<Option<usize>> = (0..8).map(Some).collect();
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].bus, Some(3));
    }

    #[test]
    fn single_serves_one_per_busy_bus() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let mask = FaultMask::none(4);
        let mut state = Stage2State::new(&net);
        // Memories 0, 1 (bus 0) and 6 (bus 3) requested.
        let mut winners = vec![None; 8];
        winners[0] = Some(0);
        winners[1] = Some(1);
        winners[6] = Some(6);
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 2);
        // Per-bus rotation alternates between the two contenders of bus 0.
        let mut first_served = Vec::new();
        for _ in 0..4 {
            let gs = run(&net, &mask, &winners, &mut state);
            first_served.push(gs.iter().find(|g| g.bus == Some(0)).unwrap().memory);
        }
        assert_eq!(first_served, vec![1, 0, 1, 0]);
    }

    #[test]
    fn single_failed_bus_serves_nothing() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let mut state = Stage2State::new(&net);
        let mut winners = vec![None; 8];
        winners[0] = Some(0);
        let grants = run(&net, &mask, &winners, &mut state);
        assert!(grants.is_empty());
    }

    #[test]
    fn partial_caps_per_group() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let mask = FaultMask::none(4);
        let mut state = Stage2State::new(&net);
        // Three requests in group 0 (cap 2), one in group 1.
        let mut winners = vec![None; 8];
        winners[0] = Some(0);
        winners[1] = Some(1);
        winners[2] = Some(2);
        winners[5] = Some(5);
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 3);
        // Group-0 grants use buses 0/1; group-1 grant uses bus 2 or 3.
        for g in &grants {
            if g.memory < 4 {
                assert!(g.bus.unwrap() < 2);
            } else {
                assert!(g.bus.unwrap() >= 2);
            }
        }
    }

    #[test]
    fn partial_empty_group_still_rotates_pointer() {
        // Group 1 idle for a few cycles, then requested: its pointer must
        // have kept rotating exactly as the reference engine's does.
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let mask = FaultMask::none(4);
        let mut fast = Stage2State::new(&net);
        let mut winners = vec![None; 8];
        winners[0] = Some(0);
        for _ in 0..3 {
            let _ = run(&net, &mask, &winners, &mut fast);
        }
        // After 3 rotations the group-1 pointer sits at 3 % 4 = 3, so with
        // all of group 1 requested, memory 4 + 3 = 7 is scanned first.
        winners[4] = Some(4);
        winners[5] = Some(5);
        winners[6] = Some(6);
        winners[7] = Some(7);
        let grants = run(&net, &mask, &winners, &mut fast);
        let group1_first = grants.iter().find(|g| g.memory >= 4).unwrap();
        assert_eq!(group1_first.memory, 7);
    }

    #[test]
    fn kclass_spills_down_and_respects_caps() {
        // Fig. 3-like: 6 memories in 3 classes, 4 buses.
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let mask = FaultMask::none(4);
        let mut state = Stage2State::new(&net);
        // Everything requested: every bus must be busy (4 grants).
        let winners: Vec<Option<usize>> = (0..6).map(Some).collect();
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 4);
        let mut buses: Vec<_> = grants.iter().map(|g| g.bus.unwrap()).collect();
        buses.sort_unstable();
        assert_eq!(buses, vec![0, 1, 2, 3]);
        // Bus 3 can only carry class C_3 memories (4 or 5).
        let top = grants.iter().find(|g| g.bus == Some(3)).unwrap();
        assert!(top.memory >= 4);
    }

    #[test]
    fn kclass_single_low_class_request_takes_its_top_bus() {
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let mask = FaultMask::none(4);
        let mut state = Stage2State::new(&net);
        let mut winners = vec![None; 6];
        winners[2] = Some(2); // class C_2, top bus index 2 (1-based bus 3)
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].bus, Some(2));
    }

    #[test]
    fn kclass_failed_top_bus_spills_to_next_alive() {
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let mask = FaultMask::with_failures(4, &[2]).unwrap();
        let mut state = Stage2State::new(&net);
        let mut winners = vec![None; 6];
        winners[2] = Some(2); // class C_2: buses {0,1,2}, 2 is dead
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].bus, Some(1));
    }

    #[test]
    fn crossbar_serves_everyone() {
        let net = BusNetwork::new(4, 4, 1, ConnectionScheme::Crossbar).unwrap();
        let mask = FaultMask::none(1);
        let mut state = Stage2State::new(&net);
        let winners: Vec<Option<usize>> = (0..4).map(Some).collect();
        let grants = run(&net, &mask, &winners, &mut state);
        assert_eq!(grants.len(), 4);
        assert!(grants.iter().all(|g| g.bus.is_none()));
    }

    #[test]
    fn full_limit_fast_path_matches_reference_scan() {
        // Sparse winners on a fault-free full network: the count-limited
        // scan must produce the same grants as a limitless scan would.
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mask = FaultMask::none(4);
        let mut state = Stage2State::new(&net);
        let mut winners = vec![None; 8];
        winners[6] = Some(6);
        for cycle in 0..8 {
            let grants = run(&net, &mask, &winners, &mut state);
            assert_eq!(grants.len(), 1, "cycle {cycle}");
            assert_eq!(grants[0].memory, 6);
            // Bus rotation still advances every cycle.
            assert_eq!(grants[0].bus, Some(cycle % 4));
        }
    }

    #[test]
    fn full_arithmetic_bus_assignment_matches_the_alive_list() {
        // With every bus alive, the fault-free path (bus `(rr_bus + g) mod
        // B`, served count `min(popcount, B)`) must grant exactly what the
        // alive-list path does, cycle after cycle, on both the mask and
        // the dense scans.
        use rand::RngExt;
        for (m, b) in [(8, 3), (16, 4), (80, 24)] {
            let net = BusNetwork::new(m, m, b, ConnectionScheme::Full).unwrap();
            let mask = FaultMask::none(b);
            let buses = bus_memories(&net);
            let mut fast = Stage2State::new(&net);
            let mut listed = Stage2State::new(&net);
            let mut draws = StdRng::seed_from_u64(5);
            let mut rng = StdRng::seed_from_u64(6);
            for cycle in 0..500 {
                let winners: Vec<Option<usize>> = (0..m)
                    .map(|j| (draws.random::<f64>() < 0.4).then_some(j))
                    .collect();
                let requested = winners
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.is_some())
                    .fold(0u64, |acc, (j, _)| acc | (1 << (j % 64)));
                let masks_valid = m <= 64;
                let (mut a, mut z) = (Vec::new(), Vec::new());
                for (all_alive, state, out) in
                    [(true, &mut fast, &mut a), (false, &mut listed, &mut z)]
                {
                    grant_buses(
                        &net,
                        &mask,
                        &buses,
                        &winners,
                        requested,
                        masks_valid,
                        all_alive,
                        state,
                        &mut rng,
                        out,
                    );
                }
                assert_eq!(a, z, "{m}x{b}, cycle {cycle}");
            }
        }
    }
}
