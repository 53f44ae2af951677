//! Cycle-accurate routed fabric simulator.
//!
//! [`FabricSimulator`] advances in-flight requests hop by hop across a
//! [`ClusteredBuses`] fabric, arbitrating each link independently every
//! cycle. The per-link arbitration mirrors the flat engine's two-stage
//! scheme on the *final* hop (memory arbiters pick one contender per
//! module, then the link's width is allocated among memory winners and
//! transit traffic), and is single-stage everywhere else — an uplink has
//! no per-module structure, only channels.
//!
//! # Request lifecycle (open-loop, drop-on-block)
//!
//! Every processor issues a fresh request each cycle with probability
//! `r`, independent of any requests it already has in flight — the
//! multi-hop analog of the paper's Bernoulli source. One hop takes one
//! cycle: a request contends for the next link of its route on every
//! cycle it is in flight, starting with the cycle it is issued. A
//! request that loses arbitration at **any** hop is dropped, exactly as
//! the paper's assumption 5 drops flat-network losers; the drop is
//! charged to the losing link's backpressure counter. A request whose
//! route is severed by a link fault — at issue or mid-flight — is
//! dropped as *unreachable*, matching the flat simulator's fault
//! accounting.
//! Resubmission has no routed analog (a retry would have to re-traverse
//! won hops), so `SimConfig::resubmission` is ignored outside depth 1.
//!
//! # Depth-1 delegation
//!
//! A depth-1 fabric *is* the flat network, so [`FabricSimulator::build`]
//! detects it and delegates wholly to [`mbus_sim::Simulator`] over
//! [`ClusteredBuses::flatten`] — same RNG, same arbitration, same
//! report, bit for bit. The inner [`SimReport`] is surfaced as
//! [`FabricReport::flat`] so differential tests can reconcile against
//! the flat goldens; in this mode `SimConfig` is honored in full,
//! including resubmission, and fault schedules address *buses* of the
//! flattened network rather than fabric links.

use crate::topology::{ClusteredBuses, LinkId};
use crate::FabricError;
use mbus_sim::{FaultEventKind, SimConfig, SimError, SimReport, Simulator, CONFIDENCE_LEVEL};
use mbus_stats::{BatchMeans, ConfidenceInterval};
use mbus_topology::ConnectionScheme;
use mbus_trace::{TraceGrant, TraceWriter};
use mbus_workload::RequestMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Aggregated results of one fabric run.
///
/// The per-link vectors are indexed by [`crate::LinkId`]. For a depth-1
/// run they describe the single local link as a whole (per-bus detail
/// lives in [`FabricReport::flat`]); `link_blocked` is zero there
/// because the flat engine resolves all contention inside its two-stage
/// arbitration rather than at a link boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricReport {
    /// Measured cycles.
    pub cycles: u64,
    /// Warmup cycles discarded before measurement.
    pub warmup: u64,
    /// Delivered requests per cycle (batch-means confidence interval).
    pub bandwidth: ConfidenceInterval,
    /// Fresh requests issued per cycle.
    pub offered_load: f64,
    /// Delivered / offered.
    pub acceptance: f64,
    /// Requests dropped per cycle because a route link was failed.
    pub unreachable_rate: f64,
    /// Per-link carried grants / (width × alive cycles).
    pub link_utilization: Vec<f64>,
    /// Per-link grants (hop traversals) during measured cycles.
    pub link_carried: Vec<u64>,
    /// Per-link arbitration losers dropped during measured cycles — the
    /// fabric's backpressure signal.
    pub link_blocked: Vec<u64>,
    /// Per-link in-service cycle counts under the fault schedule.
    pub link_alive_cycles: Vec<u64>,
    /// Per-memory delivery rates.
    pub memory_service_rates: Vec<f64>,
    /// Per-processor delivery rates.
    pub processor_service_rates: Vec<f64>,
    /// Per-leaf-cluster delivery rates (sum of the leaf's memory rates).
    pub cluster_service_rates: Vec<f64>,
    /// Mean delivery age in cycles (0 = delivered the cycle it was
    /// issued). A delivered request won one hop on every cycle it was in
    /// flight, so this equals `mean_hops − 1`.
    pub mean_wait: f64,
    /// Largest delivery age observed.
    pub max_wait: u64,
    /// Mean route length of delivered requests.
    pub mean_hops: f64,
    /// The flat engine's report when the run was a depth-1 delegation
    /// (`None` for routed runs) — bit-identical to running
    /// [`mbus_sim::Simulator`] on [`ClusteredBuses::flatten`] directly.
    pub flat: Option<SimReport>,
}

/// One request in flight across the fabric. Its route is resolved once,
/// at issue, so every later hop is a plain load.
#[derive(Debug, Clone, Copy)]
struct Flight<'r> {
    processor: usize,
    memory: usize,
    /// Hop-ordered links from the source leaf to the memory's leaf.
    route: &'r [LinkId],
    /// Index into `route` of the next link to win.
    hop: usize,
    /// Whether `route[hop]` is the final hop (the memory's local group).
    last: bool,
    /// Cycles since issue.
    age: u64,
    /// Whether the flight stays in the fabric after this cycle: it won a
    /// non-final hop. Losers and deliveries are dropped.
    survives: bool,
}

impl Flight<'_> {
    /// The link this flight contends for next.
    fn link(&self) -> LinkId {
        debug_assert!(self.hop < self.route.len(), "hop past the route's end");
        debug_assert_eq!(self.last, self.hop + 1 == self.route.len());
        self.route[self.hop]
    }
}

/// Cycle-accurate simulator for a [`ClusteredBuses`] fabric.
///
/// # Examples
///
/// ```
/// use mbus_fabric::{ClusteredBuses, FabricSimulator};
/// use mbus_sim::SimConfig;
/// use mbus_workload::{Hierarchy, HierarchicalModel, RequestModel};
///
/// let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4])?, 2, 1)?;
/// let model = HierarchicalModel::with_aggregate_shares(
///     topo.hierarchy().clone(),
///     &[0.7, 0.2, 0.1],
/// )?;
/// let mut sim = FabricSimulator::build(&topo, &model.matrix(), 0.5)?;
/// let report = sim.run(&SimConfig::new(2_000).with_warmup(200))?;
/// assert!(report.bandwidth.mean() > 0.0);
/// assert_eq!(report.link_utilization.len(), topo.links().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FabricSimulator {
    topo: ClusteredBuses,
    rate: f64,
    /// Per-processor cumulative destination rows (`n × m`), empty when
    /// the run delegates to the flat engine.
    cum: Vec<f64>,
    proc_leaf: Vec<usize>,
    mem_leaf: Vec<usize>,
    flat: Option<Simulator>,
}

impl FabricSimulator {
    /// Builds a simulator for `topo` under the request-probability
    /// `matrix` and per-cycle request rate `rate`.
    ///
    /// # Errors
    ///
    /// [`FabricError::DimensionMismatch`] when the matrix shape disagrees
    /// with the fabric, [`FabricError::BadRate`] when `rate` is not a
    /// probability, and construction errors of the delegated flat engine
    /// at depth 1.
    pub fn build(
        topo: &ClusteredBuses,
        matrix: &RequestMatrix,
        rate: f64,
    ) -> Result<Self, FabricError> {
        if matrix.processors() != topo.processors() {
            return Err(FabricError::DimensionMismatch {
                what: "processors",
                fabric: topo.processors(),
                workload: matrix.processors(),
            });
        }
        if matrix.memories() != topo.memories() {
            return Err(FabricError::DimensionMismatch {
                what: "memories",
                fabric: topo.memories(),
                workload: matrix.memories(),
            });
        }
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(FabricError::BadRate { rate });
        }
        let flat = if topo.depth() == 1 {
            Some(Simulator::build(&topo.flatten()?, matrix, rate)?)
        } else {
            None
        };
        let (n, m) = (topo.processors(), topo.memories());
        let mut cum = Vec::new();
        if flat.is_none() {
            cum.reserve(n * m);
            for p in 0..n {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += matrix.prob(p, j);
                    cum.push(acc);
                }
            }
        }
        Ok(Self {
            topo: topo.clone(),
            rate,
            cum,
            proc_leaf: (0..n).map(|p| topo.leaf_of_processor(p)).collect(),
            mem_leaf: (0..m).map(|j| topo.leaf_of_memory(j)).collect(),
            flat,
        })
    }

    /// The fabric this simulator runs over.
    pub fn topology(&self) -> &ClusteredBuses {
        &self.topo
    }

    /// The per-cycle request rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether runs delegate to the flat engine (depth 1).
    pub fn is_flat(&self) -> bool {
        self.flat.is_some()
    }

    /// Runs a full configured simulation: applies the fault schedule
    /// (over *link* ids; depth-1 delegation interprets it over the flat
    /// network's buses), discards `config.warmup` cycles, measures
    /// `config.cycles` cycles.
    ///
    /// # Errors
    ///
    /// [`SimError::NoCycles`] (wrapped) for a zero-cycle config,
    /// [`SimError::BadFaultSchedule`] when `config.faults` references a
    /// link outside the fabric, plus anything the delegated flat engine
    /// returns at depth 1.
    pub fn run(&mut self, config: &SimConfig) -> Result<FabricReport, FabricError> {
        if let Some(sim) = self.flat.as_mut() {
            let report = sim.run(config)?;
            return Ok(flat_report(report));
        }
        self.run_routed::<std::io::Sink>(config, None)
    }

    /// Runs like [`FabricSimulator::run`] while streaming one `MBT1`
    /// trace record per *measured* cycle into `sink`. The trace's "bus"
    /// axis is the fabric's **link** table — every per-hop grant is
    /// recorded against the link that carried it, so
    /// `mbus trace analyze` ranks links, and the trace's grant count
    /// exceeds the delivered-request count on multi-hop routes.
    ///
    /// # Errors
    ///
    /// Everything [`FabricSimulator::run`] returns, plus
    /// [`SimError::TraceIo`] (wrapped) when writing `sink` failed.
    pub fn run_traced<W: std::io::Write>(
        &mut self,
        config: &SimConfig,
        sink: W,
    ) -> Result<(FabricReport, W), FabricError> {
        if let Some(sim) = self.flat.as_mut() {
            let (report, sink) = sim.run_traced(config, sink)?;
            return Ok((flat_report(report), sink));
        }
        let mut writer = TraceWriter::with_dimensions(
            sink,
            self.topo.processors(),
            self.topo.memories(),
            self.topo.links().len(),
            &ConnectionScheme::Full,
            false,
        );
        let report = self.run_routed(config, Some(&mut writer))?;
        let sink = writer.finish().map_err(|err| {
            FabricError::Sim(SimError::TraceIo {
                message: err.to_string(),
            })
        })?;
        Ok((report, sink))
    }

    /// The shared routed run loop behind [`FabricSimulator::run`] and
    /// [`FabricSimulator::run_traced`]. The trace hook observes each
    /// measured cycle after arbitration and never touches the RNG, so a
    /// traced run reproduces an untraced one bit for bit.
    fn run_routed<W: std::io::Write>(
        &self,
        config: &SimConfig,
        mut trace: Option<&mut TraceWriter<W>>,
    ) -> Result<FabricReport, FabricError> {
        if config.cycles == 0 {
            return Err(FabricError::Sim(SimError::NoCycles));
        }
        assert!(config.batch_len > 0, "batch length must be positive");
        let links = self.topo.links();
        let nlinks = links.len();
        config.faults.validate(nlinks).map_err(FabricError::Sim)?;
        let n = self.topo.processors();
        let m = self.topo.memories();
        let leaves = self.topo.leaves();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut link_alive = vec![true; nlinks];
        // Per (source leaf, destination leaf): the route, and whether every
        // link on it is alive.
        let routes: Vec<&[LinkId]> = (0..leaves * leaves)
            .map(|pair| self.topo.leaf_route(pair / leaves, pair % leaves))
            .collect();
        let mut route_ok = vec![true; leaves * leaves];

        let mut flights: Vec<Flight> = Vec::new();
        let mut contenders: Vec<Vec<usize>> = vec![Vec::new(); nlinks];
        let mut cands: Vec<usize> = Vec::new();
        // Final-hop memory arbitration scratch: uniform reservoir winner
        // per module, reset via the touched list.
        let mut mem_winner = vec![usize::MAX; m];
        let mut mem_count = vec![0usize; m];
        let mut touched: Vec<usize> = Vec::new();

        let mut batches = BatchMeans::new(config.batch_len);
        let mut served_total = 0u64;
        let mut issued_total = 0u64;
        let mut unreachable_total = 0u64;
        let mut carried = vec![0u64; nlinks];
        let mut blocked = vec![0u64; nlinks];
        let mut alive_cycles = vec![0u64; nlinks];
        let mut mem_served = vec![0u64; m];
        let mut proc_served = vec![0u64; n];
        let mut leaf_served = vec![0u64; leaves];
        let mut wait_sum = 0u64;
        let mut wait_count = 0u64;
        let mut max_wait = 0u64;
        let mut hops_sum = 0u64;
        let mut measured_cycles = 0u64;

        let mut grants_scratch: Vec<TraceGrant> = Vec::new();
        let mut requested_scratch: Vec<(usize, u64)> = Vec::new();

        let total = config.warmup + config.cycles;
        let events = config.faults.events();
        let mut fault_cursor = 0usize;

        for cycle in 0..total {
            // Fault events flip link liveness; reachability is a pure
            // function of the mask, so recompute it only on transitions.
            let mut faults_changed = false;
            while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
                let event = events[fault_cursor];
                link_alive[event.bus] = matches!(event.kind, FaultEventKind::Repair);
                faults_changed = true;
                fault_cursor += 1;
            }
            if faults_changed {
                for (ok, route) in route_ok.iter_mut().zip(&routes) {
                    *ok = route.iter().all(|&link| link_alive[link]);
                }
            }
            let measured = cycle >= config.warmup;

            // Fresh issues: every processor is an independent Bernoulli
            // source, and a severed route drops the request immediately.
            let mut issued = 0u64;
            let mut unreachable = 0u64;
            for p in 0..n {
                if rng.random::<f64>() >= self.rate {
                    continue;
                }
                issued += 1;
                let pick: f64 = rng.random();
                let row = &self.cum[p * m..(p + 1) * m];
                let dst = row.partition_point(|&c| c <= pick).min(m - 1);
                let pair = self.proc_leaf[p] * leaves + self.mem_leaf[dst];
                if route_ok[pair] {
                    let route = routes[pair];
                    flights.push(Flight {
                        processor: p,
                        memory: dst,
                        route,
                        hop: 0,
                        last: route.len() == 1,
                        age: 0,
                        survives: false,
                    });
                } else {
                    unreachable += 1;
                }
            }
            let active = flights.len() as u64;

            // Contender build: every flight contends for its next link; a
            // flight facing a freshly failed link is dropped as unreachable.
            for list in contenders.iter_mut() {
                list.clear();
            }
            for (idx, flight) in flights.iter_mut().enumerate() {
                flight.survives = false;
                let link = flight.link();
                if link_alive[link] {
                    contenders[link].push(idx);
                } else {
                    unreachable += 1;
                }
            }

            // Per-link arbitration, in link-id order for determinism.
            let mut served = 0u64;
            grants_scratch.clear();
            requested_scratch.clear();
            for link in 0..nlinks {
                if contenders[link].is_empty() {
                    continue;
                }
                // Stage 1 (final hop only): each memory module accepts one
                // contender, chosen uniformly by reservoir.
                touched.clear();
                for &idx in &contenders[link] {
                    let flight = &flights[idx];
                    if !flight.last {
                        continue;
                    }
                    let memory = flight.memory;
                    mem_count[memory] += 1;
                    if mem_count[memory] == 1 {
                        touched.push(memory);
                        mem_winner[memory] = idx;
                    } else if rng.random_range(0..mem_count[memory]) == 0 {
                        mem_winner[memory] = idx;
                    }
                }
                if measured && trace.is_some() {
                    for &memory in &touched {
                        requested_scratch.push((memory, mem_count[memory] as u64));
                    }
                }

                // Stage 2: memory winners and transit traffic share the
                // link's width; excess contenders are picked off uniformly
                // (partial Fisher–Yates) and the rest dropped.
                cands.clear();
                for &idx in &contenders[link] {
                    let flight = &flights[idx];
                    if !flight.last || mem_winner[flight.memory] == idx {
                        cands.push(idx);
                    } else if measured {
                        blocked[link] += 1;
                    }
                }
                for &memory in &touched {
                    mem_count[memory] = 0;
                    mem_winner[memory] = usize::MAX;
                }
                let width = links[link].width;
                let winners: &[usize] = if cands.len() > width {
                    if measured {
                        blocked[link] += (cands.len() - width) as u64;
                    }
                    for slot in 0..width {
                        let pick = slot + rng.random_range(0..cands.len() - slot);
                        cands.swap(slot, pick);
                    }
                    &cands[..width]
                } else {
                    &cands[..]
                };
                for &idx in winners {
                    if measured {
                        carried[link] += 1;
                    }
                    let flight = &mut flights[idx];
                    if measured && trace.is_some() {
                        grants_scratch.push(TraceGrant {
                            bus: Some(link),
                            memory: flight.memory,
                            processor: flight.processor,
                            wait: flight.age,
                        });
                    }
                    if flight.last {
                        served += 1;
                        if measured {
                            mem_served[flight.memory] += 1;
                            proc_served[flight.processor] += 1;
                            leaf_served[self.mem_leaf[flight.memory]] += 1;
                            wait_sum += flight.age;
                            wait_count += 1;
                            if flight.age > max_wait {
                                max_wait = flight.age;
                            }
                            hops_sum += flight.route.len() as u64;
                        }
                        // Delivered: the flight leaves the fabric.
                    } else {
                        flight.hop += 1;
                        flight.last = flight.hop + 1 == flight.route.len();
                        flight.survives = true;
                    }
                }
            }

            if measured {
                measured_cycles += 1;
                served_total += served;
                issued_total += issued;
                unreachable_total += unreachable;
                batches.push(served as f64);
                for link in 0..nlinks {
                    if link_alive[link] {
                        alive_cycles[link] += 1;
                    }
                }
                if let Some(writer) = trace.as_mut() {
                    writer.record_cycle(
                        issued,
                        active,
                        unreachable,
                        link_alive
                            .iter()
                            .enumerate()
                            .filter(|&(_, &alive)| !alive)
                            .map(|(link, _)| link),
                        requested_scratch.iter().copied(),
                        grants_scratch.iter().copied(),
                    );
                }
            }

            // Compact survivors in place, aging everything still in flight.
            flights.retain_mut(|flight| {
                flight.age += 1;
                flight.survives
            });
        }

        let cycles = measured_cycles.max(1);
        let grand_mean = served_total as f64 / cycles as f64;
        let bandwidth = match batches.confidence_interval(CONFIDENCE_LEVEL) {
            Some(ci) => ci,
            None => ConfidenceInterval::degenerate(grand_mean),
        };
        let offered = issued_total as f64 / cycles as f64;
        let acceptance = if offered > 0.0 {
            grand_mean / offered
        } else {
            1.0
        };
        Ok(FabricReport {
            cycles: measured_cycles,
            warmup: config.warmup,
            bandwidth,
            offered_load: offered,
            acceptance,
            unreachable_rate: unreachable_total as f64 / cycles as f64,
            link_utilization: (0..nlinks)
                .map(|link| {
                    let slots = links[link].width as u64 * alive_cycles[link];
                    if slots == 0 {
                        0.0
                    } else {
                        carried[link] as f64 / slots as f64
                    }
                })
                .collect(),
            link_carried: carried,
            link_blocked: blocked,
            link_alive_cycles: alive_cycles,
            memory_service_rates: mem_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            processor_service_rates: proc_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            cluster_service_rates: leaf_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            mean_wait: if wait_count == 0 {
                0.0
            } else {
                wait_sum as f64 / wait_count as f64
            },
            max_wait,
            mean_hops: if served_total == 0 {
                0.0
            } else {
                hops_sum as f64 / served_total as f64
            },
            flat: None,
        })
    }
}

/// Lifts a depth-1 delegated [`SimReport`] into the fabric's report
/// shape: the whole flat network is the fabric's single local link.
fn flat_report(report: SimReport) -> FabricReport {
    let busy: u64 = report
        .bus_utilization
        .iter()
        .zip(&report.bus_alive_cycles)
        .map(|(&util, &alive)| (util * alive as f64).round() as u64)
        .sum();
    let alive_total: u64 = report.bus_alive_cycles.iter().sum();
    let link_utilization = if alive_total == 0 {
        0.0
    } else {
        busy as f64 / alive_total as f64
    };
    let alive_max = report.bus_alive_cycles.iter().copied().max().unwrap_or(0);
    let cluster = vec![report.memory_service_rates.iter().sum::<f64>()];
    FabricReport {
        cycles: report.cycles,
        warmup: report.warmup,
        bandwidth: report.bandwidth,
        offered_load: report.offered_load,
        acceptance: report.acceptance,
        unreachable_rate: report.unreachable_rate,
        link_utilization: vec![link_utilization],
        link_carried: vec![busy],
        link_blocked: vec![0],
        link_alive_cycles: vec![alive_max],
        memory_service_rates: report.memory_service_rates.clone(),
        processor_service_rates: report.processor_service_rates.clone(),
        cluster_service_rates: cluster,
        mean_wait: report.mean_wait,
        max_wait: report.max_wait,
        mean_hops: 1.0,
        flat: Some(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_sim::FaultSchedule;
    use mbus_workload::{HierarchicalModel, Hierarchy, RequestModel};

    fn two_level(ks: &[usize], buses: usize, uplink: usize, local: f64) -> FabricSimulator {
        let topo = ClusteredBuses::new(Hierarchy::paired(ks).unwrap(), buses, uplink).unwrap();
        let shares = crate::locality_shares(topo.depth(), local);
        let model =
            HierarchicalModel::with_aggregate_shares(topo.hierarchy().clone(), &shares).unwrap();
        FabricSimulator::build(&topo, &model.matrix(), 0.6).unwrap()
    }

    #[test]
    fn routed_run_is_deterministic_and_conserves_requests() {
        let mut sim = two_level(&[4, 4], 2, 1, 0.7);
        let config = SimConfig::new(3_000).with_warmup(300).with_seed(7);
        let a = sim.run(&config).unwrap();
        let b = sim.run(&config).unwrap();
        assert_eq!(a, b);
        // Delivered + blocked + unreachable = issued (per measured cycle,
        // modulo the in-flight boundary population which is O(route len)).
        let delivered = a.bandwidth.mean() * a.cycles as f64;
        let blocked: u64 = a.link_blocked.iter().sum();
        let issued = a.offered_load * a.cycles as f64;
        let unreachable = a.unreachable_rate * a.cycles as f64;
        let boundary = 64.0; // generous slack for flights crossing warmup/end edges
        assert!(
            (delivered + blocked as f64 + unreachable - issued).abs() <= boundary,
            "conservation violated: {delivered} + {blocked} + {unreachable} vs {issued}"
        );
        assert!(a.acceptance > 0.0 && a.acceptance <= 1.0);
        assert!(a.mean_hops >= 1.0);
        // Per-axis tallies agree with the aggregate.
        let mem_sum: f64 = a.memory_service_rates.iter().sum();
        let proc_sum: f64 = a.processor_service_rates.iter().sum();
        let leaf_sum: f64 = a.cluster_service_rates.iter().sum();
        assert!((mem_sum - a.bandwidth.mean()).abs() < 1e-9);
        assert!((proc_sum - a.bandwidth.mean()).abs() < 1e-9);
        assert!((leaf_sum - a.bandwidth.mean()).abs() < 1e-9);
    }

    #[test]
    fn purely_local_traffic_never_touches_uplinks() {
        let mut sim = two_level(&[4, 4], 2, 1, 1.0);
        let report = sim.run(&SimConfig::new(2_000).with_warmup(200)).unwrap();
        for (link, &carried) in report.link_carried.iter().enumerate() {
            if link >= sim.topology().leaves() {
                assert_eq!(carried, 0, "uplink {link} carried local-only traffic");
            }
        }
        assert!((report.mean_hops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failed_local_link_zeroes_its_cluster() {
        let mut sim = two_level(&[4, 4], 2, 1, 0.7);
        let config = SimConfig::new(2_000)
            .with_warmup(100)
            .with_faults(FaultSchedule::fail_at(0, 1));
        let report = sim.run(&config).unwrap();
        assert_eq!(report.cluster_service_rates[1], 0.0);
        assert!(report.unreachable_rate > 0.0);
        assert_eq!(report.link_alive_cycles[1], 0);
        assert!(report.cluster_service_rates[0] > 0.0);
    }

    #[test]
    fn depth_one_delegates_to_the_flat_engine() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[8]).unwrap(), 4, 1).unwrap();
        let model = HierarchicalModel::with_aggregate_shares(topo.hierarchy().clone(), &[0.6, 0.4])
            .unwrap();
        let matrix = model.matrix();
        let mut fabric = FabricSimulator::build(&topo, &matrix, 0.5).unwrap();
        assert!(fabric.is_flat());
        let config = SimConfig::new(1_000).with_warmup(100).with_seed(99);
        let report = fabric.run(&config).unwrap();
        let mut flat = Simulator::build(&topo.flatten().unwrap(), &matrix, 0.5).unwrap();
        let expected = flat.run(&config).unwrap();
        assert_eq!(report.flat.as_ref(), Some(&expected));
        assert_eq!(report.bandwidth, expected.bandwidth);
        assert_eq!(report.mean_hops, 1.0);
    }

    #[test]
    fn traced_run_matches_untraced_bit_for_bit() {
        let mut sim = two_level(&[2, 2, 2], 1, 1, 0.6);
        let config = SimConfig::new(1_500).with_warmup(150).with_seed(21);
        let untraced = sim.run(&config).unwrap();
        let (traced, bytes) = sim.run_traced(&config, Vec::new()).unwrap();
        assert_eq!(untraced, traced);
        assert_eq!(&bytes[..4], b"MBT1");
    }

    #[test]
    fn zero_cycles_is_rejected() {
        let mut sim = two_level(&[2, 2], 1, 1, 0.5);
        assert!(matches!(
            sim.run(&SimConfig::new(0)),
            Err(FabricError::Sim(SimError::NoCycles))
        ));
    }

    #[test]
    fn bad_dimensions_and_rates_are_rejected() {
        let topo = ClusteredBuses::new(Hierarchy::paired(&[4, 4]).unwrap(), 2, 1).unwrap();
        let small =
            HierarchicalModel::with_aggregate_shares(Hierarchy::paired(&[8]).unwrap(), &[0.6, 0.4])
                .unwrap();
        assert!(matches!(
            FabricSimulator::build(&topo, &small.matrix(), 0.5),
            Err(FabricError::DimensionMismatch { .. })
        ));
        let model =
            HierarchicalModel::with_aggregate_shares(topo.hierarchy().clone(), &[0.6, 0.3, 0.1])
                .unwrap();
        let matrix = model.matrix();
        assert!(matches!(
            FabricSimulator::build(&topo, &matrix, 1.5),
            Err(FabricError::BadRate { .. })
        ));
        assert!(matches!(
            FabricSimulator::build(&topo, &matrix, f64::NAN),
            Err(FabricError::BadRate { .. })
        ));
    }
}
