//! The cycle-by-cycle simulation engine.

use crate::arbiter::{grant_buses, Stage2State};
use crate::metrics::Collector;
use crate::{SimConfig, SimError, SimReport};
use mbus_topology::{BusNetwork, FaultMask, SchemeKind};
use mbus_trace::writer::{TraceGrant, TraceWriter};
use mbus_workload::{RequestMatrix, WorkloadSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One served request: processor `processor` accessed memory `memory`,
/// carried by `bus` (`None` for the crossbar, which has no shared buses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The processor whose request completed.
    pub processor: usize,
    /// The memory module accessed.
    pub memory: usize,
    /// The granting bus, if the scheme uses buses.
    pub bus: Option<usize>,
}

/// Everything that happened in one simulated cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleOutcome {
    /// Requests newly issued this cycle.
    pub issued: usize,
    /// Total requesting processors this cycle (new + resubmitted).
    pub active: usize,
    /// Requests aimed at memories with no surviving bus (dropped).
    pub unreachable: usize,
    /// Requests served, with their carriers.
    pub grants: Vec<Grant>,
    /// For each grant, how many cycles its request waited (0 = served on
    /// the cycle it was issued; only nonzero under resubmission).
    pub waits: Vec<u64>,
}

impl CycleOutcome {
    /// Rewinds the outcome for the next cycle, keeping vector capacity.
    fn clear(&mut self) {
        self.issued = 0;
        self.active = 0;
        self.unreachable = 0;
        self.grants.clear();
        self.waits.clear();
    }

    /// An outcome with capacity for the worst cycle of an `N × M` system
    /// (at most `min(N, M)` grants), so steady-state stepping never grows
    /// it.
    fn with_capacity(net: &BusNetwork) -> Self {
        let worst = net.processors().min(net.memories());
        Self {
            grants: Vec::with_capacity(worst),
            waits: Vec::with_capacity(worst),
            ..Self::default()
        }
    }
}

/// A resubmission-mode in-flight request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    memory: usize,
    age: u64,
}

/// The discrete-event simulator for one network × workload × rate
/// combination.
///
/// [`Simulator::run`] executes a full configured run; [`Simulator::step`]
/// advances a single cycle for fine-grained experiments. The paper's
/// assumptions 1–5 (§III-A) hold by default; resubmission mode relaxes
/// assumption 5.
///
/// The simulator owns every buffer a cycle needs — including the
/// [`CycleOutcome`] that [`Simulator::step`] returns by reference — so the
/// steady-state hot loop performs **no heap allocation** (verified by the
/// `alloc` integration test). The `golden` integration test pins its
/// reports, bit for bit, by hashes over every [`SimReport`] field on
/// fifteen fixed-seed scenarios, including the dense `N, M > 64` path.
///
/// Cloning produces a simulator with identical configuration but *fresh*
/// RNG and arbitration state (call [`Simulator::reset`] with a seed before
/// use) — `StdRng` is deliberately not cloneable, and replications want
/// independent streams anyway.
#[derive(Debug)]
pub struct Simulator {
    net: BusNetwork,
    sampler: WorkloadSampler,
    rng: StdRng,
    mask: FaultMask,
    state: Stage2State,
    bus_memories: Vec<Vec<usize>>,
    resubmission: bool,
    pending: Vec<Option<Pending>>,
    // Scratch buffers reused across cycles.
    stage1: Stage1,
    outcome: CycleOutcome,
}

impl Clone for Simulator {
    fn clone(&self) -> Self {
        Self::assemble(
            &self.net,
            self.sampler.clone(),
            self.bus_memories.clone(),
            self.resubmission,
        )
    }
}

/// What one issue pass produced, beyond the queues themselves.
#[derive(Debug)]
struct Issued {
    /// Requesting processors, fresh and resubmitted.
    active: usize,
    /// Freshly issued requests.
    fresh: usize,
    /// Requests dropped because their memory had no alive bus.
    unreachable: usize,
}

/// Stage 1's state for one cycle: each memory's queue of requesting
/// processors and its elected winner.
#[derive(Debug, Clone)]
struct Stage1 {
    /// `N`, the queue stride.
    processors: usize,
    /// The queues, flat with stride `N`: memory `j`'s queued processors
    /// are `queues[j·N .. j·N + counts[j]]`, in processor order. Worst
    /// case every processor requests one memory, so each queue has `N`
    /// slots up front and the hot loop never grows a buffer.
    queues: Vec<u32>,
    counts: Vec<u32>,
    /// `winners[j]`: memory `j`'s elected requester.
    winners: Vec<Option<usize>>,
    /// Bit `j` set iff memory `j` has a requester (valid when `M ≤ 64`);
    /// stage 2's fast paths read it.
    requested_mask: u64,
}

impl Stage1 {
    fn new(processors: usize, memories: usize) -> Self {
        Self {
            processors,
            queues: vec![0; memories * processors],
            counts: vec![0; memories],
            winners: vec![None; memories],
            requested_mask: 0,
        }
    }

    /// Whether `M ≤ 64`, i.e. requested sets fit one `u64` bitmask.
    fn masks_valid(&self) -> bool {
        self.counts.len() <= 64
    }

    /// The fused per-processor pass. For each processor `p` in order, a
    /// pending request is re-issued under `resubmission`; otherwise `p`
    /// draws its rate gate and destination afresh. A request to a memory
    /// that is not [`reachable`] under `faults` (`None` when every bus is
    /// alive) is dropped along with its pending state, and every other
    /// request joins its memory's queue. Under `resubmission` a registered
    /// request is also recorded as pending (keeping its age), so completion
    /// only has to clear the served ones and age the rest.
    ///
    /// The drop and the registration consume no randomness, so running
    /// them inside the issue loop leaves the RNG draw order unchanged.
    #[inline(always)]
    fn issue(
        &mut self,
        sampler: &WorkloadSampler,
        rng: &mut StdRng,
        pending: &mut [Option<Pending>],
        faults: Option<(&BusNetwork, &FaultMask)>,
        resubmission: bool,
    ) -> Issued {
        let n = self.processors;
        self.counts.iter_mut().for_each(|c| *c = 0);
        // Tallies and the mask accumulate in locals, written back once.
        let (mut active, mut fresh_count, mut unreachable) = (0, 0, 0);
        let mut requested_mask = 0u64;
        for (p, pending) in pending.iter_mut().enumerate() {
            let (memory, fresh) = match *pending {
                Some(retry) if resubmission => (retry.memory, false),
                _ => match sampler.sample_processor(p, rng) {
                    Some(memory) => (memory, true),
                    None => continue,
                },
            };
            active += 1;
            fresh_count += usize::from(fresh);
            // Drop requests to unreachable memories (even under
            // resubmission, else a permanent failure deadlocks the
            // processor). With every bus alive nothing is unreachable:
            // each memory is wired to at least one bus.
            if let Some((net, mask)) = faults {
                if !reachable(net, mask, memory) {
                    unreachable += 1;
                    *pending = None;
                    continue;
                }
            }
            if resubmission {
                let age = pending.map_or(0, |pending| pending.age);
                *pending = Some(Pending { memory, age });
            }
            let count = &mut self.counts[memory];
            // lint:allow(lossy_cast, p < N, and the N×M u32 requester buffer caps N far below 2^32)
            self.queues[memory * n + *count as usize] = p as u32;
            *count += 1;
            // Meaningless when M > 64, where nothing reads it.
            requested_mask |= 1 << (memory % 64);
        }
        self.requested_mask = requested_mask;
        Issued {
            active,
            fresh: fresh_count,
            unreachable,
        }
    }

    /// Stage 1: each requested memory's arbiter picks one of its queued
    /// processors uniformly, in ascending memory order.
    #[inline(always)]
    fn elect(&mut self, rng: &mut StdRng) {
        let n = self.processors;
        let queues = &self.queues;
        let mut pick = |memory: usize, count: u32| {
            queues[memory * n + rng.random_range(0..count as usize)] as usize
        };
        if self.masks_valid() {
            // Visit exactly the requested memories: same draws as the
            // dense scan, none of its data-dependent empty-queue branches.
            self.winners.iter_mut().for_each(|w| *w = None);
            let mut bits = self.requested_mask;
            while bits != 0 {
                let memory = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.winners[memory] = Some(pick(memory, self.counts[memory]));
            }
        } else {
            for (memory, (winner, &count)) in self.winners.iter_mut().zip(&self.counts).enumerate()
            {
                *winner = (count > 0).then(|| pick(memory, count));
            }
        }
    }
}

/// Whether `memory` can currently be served (has an alive bus, or the
/// scheme is a crossbar).
fn reachable(net: &BusNetwork, mask: &FaultMask, memory: usize) -> bool {
    if net.kind() == SchemeKind::Crossbar {
        return true;
    }
    net.buses_of_memory(memory).any(|bus| mask.is_alive(bus))
}

impl Simulator {
    /// Builds a simulator for `net` under the workload `matrix` at request
    /// rate `r`.
    ///
    /// # Errors
    ///
    /// * dimension mismatches → [`SimError::DimensionMismatch`];
    /// * invalid `r` → [`SimError::Workload`].
    pub fn build(net: &BusNetwork, matrix: &RequestMatrix, r: f64) -> Result<Self, SimError> {
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
        let sampler = WorkloadSampler::new(matrix, r)?;
        let bus_memories = (0..net.buses())
            .map(|bus| net.memories_of_bus(bus).collect())
            .collect();
        Ok(Self::assemble(net, sampler, bus_memories, false))
    }

    /// A simulator with fresh RNG, arbitration, resubmission and fault
    /// state — shared by [`Simulator::build`] and `Clone`.
    fn assemble(
        net: &BusNetwork,
        sampler: WorkloadSampler,
        bus_memories: Vec<Vec<usize>>,
        resubmission: bool,
    ) -> Self {
        let (n, m) = (net.processors(), net.memories());
        Self {
            state: Stage2State::new(net),
            mask: FaultMask::none(net.buses()),
            bus_memories,
            sampler,
            rng: StdRng::seed_from_u64(0),
            resubmission,
            pending: vec![None; n],
            stage1: Stage1::new(n, m),
            outcome: CycleOutcome::with_capacity(net),
            net: net.clone(),
        }
    }

    /// The simulated network.
    pub fn network(&self) -> &BusNetwork {
        &self.net
    }

    /// Mutable access to the fault mask, for manual fault injection between
    /// [`Simulator::step`] calls.
    pub fn fault_mask_mut(&mut self) -> &mut FaultMask {
        &mut self.mask
    }

    /// Enables or disables resubmission semantics for subsequent cycles.
    pub fn set_resubmission(&mut self, resubmission: bool) {
        self.resubmission = resubmission;
        if !resubmission {
            self.pending.iter_mut().for_each(|p| *p = None);
        }
    }

    /// Reseeds the RNG and clears all arbitration / resubmission state.
    pub fn reset(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.state.reset();
        self.mask = FaultMask::none(self.net.buses());
        self.pending.iter_mut().for_each(|p| *p = None);
    }

    /// Advances one cycle and reports what happened.
    ///
    /// The returned outcome borrows the simulator's reusable cycle buffer —
    /// copy out whatever must outlive the next [`Simulator::step`] call.
    /// Reusing the buffer is what keeps steady-state stepping free of heap
    /// allocation.
    pub fn step(&mut self) -> &CycleOutcome {
        self.outcome.clear();
        let all_alive = self.mask.failed_count() == 0;
        let faults = (!all_alive).then_some((&self.net, &self.mask));

        // Steps 1 and 2 draw from a local generator, swapped in for their
        // duration: a local's state stays in registers across the loops,
        // while stores through the engine's buffers would force a field's
        // state to round-trip through memory on every draw. The
        // placeholder swapped into `self.rng` is never drawn from.
        let mut rng = StdRng::seed_from_u64(0);
        std::mem::swap(&mut rng, &mut self.rng);

        // 1. Issue, drop and register.
        let issued = self.stage1.issue(
            &self.sampler,
            &mut rng,
            &mut self.pending,
            faults,
            self.resubmission,
        );
        self.outcome.active = issued.active;
        self.outcome.issued = issued.fresh;
        self.outcome.unreachable = issued.unreachable;

        // 2. Stage 1: per-memory arbiters pick one requester uniformly.
        self.stage1.elect(&mut rng);
        std::mem::swap(&mut rng, &mut self.rng);

        // 3. Stage 2: scheme-specific bus assignment.
        grant_buses(
            &self.net,
            &self.mask,
            &self.bus_memories,
            &self.stage1.winners,
            self.stage1.requested_mask,
            self.stage1.masks_valid(),
            all_alive,
            &mut self.state,
            &mut self.rng,
            &mut self.outcome.grants,
        );

        // 4. Completion bookkeeping: grants finish, reporting how long
        // their request waited; under resubmission every other registered
        // request stays pending, one cycle older.
        for grant in &self.outcome.grants {
            let pending = self.pending[grant.processor].take();
            self.outcome.waits.push(pending.map_or(0, |p| p.age));
        }
        if self.resubmission {
            for pending in self.pending.iter_mut().flatten() {
                pending.age += 1;
            }
        }
        &self.outcome
    }

    /// Runs a full configured simulation: applies the fault schedule,
    /// discards `config.warmup` cycles, measures `config.cycles` cycles,
    /// and aggregates a [`SimReport`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFaultSchedule`] if `config.faults` references
    /// a bus outside the network or schedules conflicting same-cycle events
    /// — fault schedules come from user input (`--faults`), so an invalid
    /// one must not abort the process.
    pub fn run(&mut self, config: &SimConfig) -> Result<SimReport, SimError> {
        // The `None` observer compiles the trace hook down to a dead
        // branch: the golden tests pin this path bit-identical to the
        // pre-trace engine.
        self.run_impl(config, None::<&mut TraceWriter<std::io::Sink>>)
    }

    /// Runs like [`Simulator::run`] while streaming one binary trace
    /// record per *measured* cycle into `sink` (the `MBT1` format of
    /// `mbus-trace`). Returns the report together with the finished sink.
    ///
    /// The trace hook observes each cycle strictly *after* the engine has
    /// stepped, so a traced run consumes the RNG identically to an
    /// untraced one — same seed, same `SimReport`, bit for bit (the
    /// `trace_reconcile` differential suite enforces this).
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run`] returns, plus [`SimError::TraceIo`]
    /// when writing `sink` failed at any point during the run.
    pub fn run_traced<W: std::io::Write>(
        &mut self,
        config: &SimConfig,
        sink: W,
    ) -> Result<(SimReport, W), SimError> {
        let mut writer = TraceWriter::new(sink, &self.net, config.resubmission);
        let report = self.run_impl(config, Some(&mut writer))?;
        let sink = writer.finish().map_err(|err| SimError::TraceIo {
            message: err.to_string(),
        })?;
        Ok((report, sink))
    }

    /// The shared run loop behind [`Simulator::run`] and
    /// [`Simulator::run_traced`]. The optional trace writer is consulted
    /// once per measured cycle, after [`Simulator::step`] — it reads the
    /// cycle outcome plus the engine's post-arbitration scratch state
    /// (fault mask, per-memory requester counts) and never touches the RNG
    /// or any buffer the hot loop writes.
    fn run_impl<W: std::io::Write>(
        &mut self,
        config: &SimConfig,
        mut trace: Option<&mut TraceWriter<W>>,
    ) -> Result<SimReport, SimError> {
        config.faults.validate(self.net.buses())?;
        self.reset(config.seed);
        self.set_resubmission(config.resubmission);
        let mut collector = Collector::new(&self.net, config);
        let total = config.warmup + config.cycles;
        let mut fault_cursor = 0usize;
        let events = config.faults.events();
        for cycle in 0..total {
            while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
                let event = events[fault_cursor];
                match event.kind {
                    crate::FaultEventKind::Fail => {
                        self.mask.fail(event.bus).map_err(SimError::Topology)?;
                    }
                    crate::FaultEventKind::Repair => {
                        self.mask.repair(event.bus).map_err(SimError::Topology)?;
                    }
                }
                fault_cursor += 1;
            }
            let measured = cycle >= config.warmup;
            if measured {
                collector.record_alive(&self.mask);
            }
            // Dropping `step`'s returned reference releases its `&mut self`
            // borrow; the outcome lives in the simulator-owned cycle buffer,
            // which the collector and trace hook read alongside the fault
            // mask and requester counts.
            self.step();
            if measured {
                let outcome = &self.outcome;
                collector.record(outcome);
                if let Some(writer) = trace.as_deref_mut() {
                    writer.record_cycle(
                        outcome.issued as u64,
                        outcome.active as u64,
                        outcome.unreachable as u64,
                        self.mask.iter_failed(),
                        self.stage1
                            .counts
                            .iter()
                            .enumerate()
                            .filter(|(_, &count)| count > 0)
                            .map(|(memory, &count)| (memory, u64::from(count))),
                        outcome
                            .grants
                            .iter()
                            .zip(&outcome.waits)
                            .map(|(grant, &wait)| TraceGrant {
                                bus: grant.bus,
                                memory: grant.memory,
                                processor: grant.processor,
                                wait,
                            }),
                    );
                }
            }
        }
        Ok(collector.finish(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    #[test]
    fn build_validates_dimensions() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let wrong = UniformModel::new(4, 8).unwrap().matrix();
        assert!(matches!(
            Simulator::build(&net, &wrong, 1.0),
            Err(SimError::DimensionMismatch { .. })
        ));
        let wrong = UniformModel::new(8, 4).unwrap().matrix();
        assert!(Simulator::build(&net, &wrong, 1.0).is_err());
    }

    #[test]
    fn step_counts_are_consistent() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 1.0).unwrap();
        sim.reset(3);
        for _ in 0..100 {
            let outcome = sim.step();
            // r = 1: every processor requests every cycle.
            assert_eq!(outcome.issued, 8);
            assert_eq!(outcome.active, 8);
            assert!(outcome.grants.len() <= 4);
            assert!(!outcome.grants.is_empty());
            assert_eq!(outcome.waits.len(), outcome.grants.len());
            // Distinct memories and buses per cycle.
            let mut mems: Vec<_> = outcome.grants.iter().map(|g| g.memory).collect();
            mems.sort_unstable();
            mems.dedup();
            assert_eq!(mems.len(), outcome.grants.len());
        }
    }

    #[test]
    fn same_seed_reproduces_run() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(8);
        let config = SimConfig::new(2_000).with_seed(11);
        let r1 = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        let r2 = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        assert_eq!(r1.bandwidth.mean(), r2.bandwidth.mean());
        assert_eq!(r1.bus_utilization, r2.bus_utilization);
    }

    #[test]
    fn zero_rate_serves_nothing() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 0.0).unwrap();
        let report = sim.run(&SimConfig::new(500)).unwrap();
        assert_eq!(report.bandwidth.mean(), 0.0);
        assert_eq!(report.offered_load, 0.0);
    }

    #[test]
    fn all_buses_failed_serves_nothing() {
        let net = BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 1.0).unwrap();
        sim.reset(5);
        sim.fault_mask_mut().fail(0).unwrap();
        sim.fault_mask_mut().fail(1).unwrap();
        let outcome = sim.step();
        assert!(outcome.grants.is_empty());
        assert_eq!(outcome.unreachable, 8);
    }

    #[test]
    fn resubmission_retries_same_destination() {
        // One bus, two processors always requesting distinct memories: the
        // loser must retry and eventually be served with wait ≥ 1.
        let matrix = RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &matrix, 1.0).unwrap();
        sim.reset(1);
        sim.set_resubmission(true);
        let mut waits_seen = Vec::new();
        for _ in 0..10 {
            let outcome = sim.step();
            assert_eq!(outcome.grants.len(), 1);
            waits_seen.extend(outcome.waits.iter().copied());
        }
        assert!(waits_seen.iter().any(|&w| w >= 1), "some request waited");
    }

    #[test]
    fn run_applies_fault_schedule() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(8);
        // Healthy.
        let healthy = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&SimConfig::new(20_000).with_seed(2))
            .unwrap();
        // Three of four buses die at cycle 0.
        let config = SimConfig::new(20_000).with_seed(2).with_faults(
            crate::FaultSchedule::from_events(vec![
                crate::FaultEvent {
                    cycle: 0,
                    bus: 0,
                    kind: crate::FaultEventKind::Fail,
                },
                crate::FaultEvent {
                    cycle: 0,
                    bus: 1,
                    kind: crate::FaultEventKind::Fail,
                },
                crate::FaultEvent {
                    cycle: 0,
                    bus: 2,
                    kind: crate::FaultEventKind::Fail,
                },
            ])
            .unwrap(),
        );
        let degraded = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        assert!(degraded.bandwidth.mean() <= 1.0 + 1e-9);
        assert!(healthy.bandwidth.mean() > 3.5);
        // Dead buses report zero utilization.
        assert_eq!(degraded.bus_utilization[0], 0.0);
        assert!(degraded.bus_utilization[3] > 0.9);
    }

    #[test]
    fn run_rejects_invalid_fault_schedule() {
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let config = SimConfig::new(10).with_faults(crate::FaultSchedule::fail_at(0, 9));
        let err = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap_err();
        assert!(
            matches!(err, SimError::BadFaultSchedule { ref reason } if reason.contains("bus 9")),
            "unexpected error: {err}"
        );
    }
}
