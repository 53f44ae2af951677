//! Metric collection and the simulation report.

use crate::{CycleOutcome, SimConfig, CONFIDENCE_LEVEL};
use mbus_stats::{BatchMeans, ConfidenceInterval, Histogram, Welford};
use mbus_topology::{BusNetwork, FaultMask};
use serde::{Deserialize, Serialize};

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Measured cycles.
    pub cycles: u64,
    /// Warmup cycles that were discarded.
    pub warmup: u64,
    /// Effective memory bandwidth (requests served per cycle) with a
    /// batch-means confidence interval.
    pub bandwidth: ConfidenceInterval,
    /// Mean requests issued per cycle (the measured offered load; under
    /// resubmission this counts only *fresh* requests).
    pub offered_load: f64,
    /// Fraction of issued requests eventually served:
    /// `bandwidth / offered_load` (1 when nothing was offered). Under the
    /// paper's drop semantics this is the probability of acceptance.
    pub acceptance: f64,
    /// Mean requests dropped per cycle because their memory had no alive
    /// bus.
    pub unreachable_rate: f64,
    /// Per-bus fraction of *alive* measured cycles each bus carried a
    /// request. A bus failed for part of the run is judged only over the
    /// cycles it was in service, so a half-dead bus is not reported as
    /// half-idle; a bus that was never alive during measurement reports
    /// 0.0. With no fault schedule this is identical to the fraction of all
    /// measured cycles.
    pub bus_utilization: Vec<f64>,
    /// Per-bus count of measured cycles the bus was in service (equal to
    /// [`SimReport::cycles`] for every bus when no faults occurred).
    pub bus_alive_cycles: Vec<u64>,
    /// Per-memory service rate (accesses per cycle).
    pub memory_service_rates: Vec<f64>,
    /// Per-processor completion rate (requests served per cycle).
    pub processor_service_rates: Vec<f64>,
    /// Exact histogram of requests served per cycle.
    pub served_histogram: Histogram,
    /// Mean request latency in cycles (0 = served immediately); only
    /// meaningful under resubmission, but always reported.
    pub mean_wait: f64,
    /// Largest observed request latency.
    pub max_wait: u64,
}

impl SimReport {
    /// Jain's fairness index over the per-processor completion rates:
    /// `(Σ xᵢ)² / (n · Σ xᵢ²)`, 1.0 = perfectly fair, `1/n` = one
    /// processor monopolizes the interconnect. Returns 1.0 when nothing
    /// was served.
    pub fn processor_fairness(&self) -> f64 {
        let xs = &self.processor_service_rates;
        let sum: f64 = xs.iter().sum();
        if sum == 0.0 {
            return 1.0;
        }
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        sum * sum / (xs.len() as f64 * sum_sq)
    }
}

/// Streaming collector the engine feeds once per measured cycle.
#[derive(Debug)]
pub(crate) struct Collector {
    served: BatchMeans,
    issued: Welford,
    unreachable: Welford,
    bus_busy: Vec<u64>,
    bus_alive: Vec<u64>,
    memory_served: Vec<u64>,
    processor_served: Vec<u64>,
    served_histogram: Histogram,
    waits: Welford,
    max_wait: u64,
    cycles: u64,
}

impl Collector {
    pub(crate) fn new(net: &BusNetwork, config: &SimConfig) -> Self {
        Self {
            served: BatchMeans::new(config.batch_len),
            issued: Welford::new(),
            unreachable: Welford::new(),
            bus_busy: vec![0; net.buses()],
            bus_alive: vec![0; net.buses()],
            memory_served: vec![0; net.memories()],
            processor_served: vec![0; net.processors()],
            served_histogram: Histogram::with_max_value(net.capacity()),
            waits: Welford::new(),
            max_wait: 0,
            cycles: 0,
        }
    }

    /// Credits each alive bus with one in-service measured cycle. Call once
    /// per measured cycle with the fault mask in force for that cycle
    /// (masks change only at cycle starts, so before or after the step is
    /// equivalent — the engines call it before, which the borrow of the
    /// step's returned outcome requires).
    pub(crate) fn record_alive(&mut self, mask: &FaultMask) {
        if mask.failed_count() == 0 {
            for alive in &mut self.bus_alive {
                *alive += 1;
            }
        } else {
            for (bus, alive) in self.bus_alive.iter_mut().enumerate() {
                *alive += u64::from(mask.is_alive(bus));
            }
        }
    }

    pub(crate) fn record(&mut self, outcome: &CycleOutcome) {
        self.cycles += 1;
        self.served.push(outcome.grants.len() as f64);
        self.issued.push(outcome.issued as f64);
        self.unreachable.push(outcome.unreachable as f64);
        self.served_histogram.record(outcome.grants.len());
        for grant in &outcome.grants {
            if let Some(bus) = grant.bus {
                self.bus_busy[bus] += 1;
            }
            self.memory_served[grant.memory] += 1;
            self.processor_served[grant.processor] += 1;
        }
        for &wait in &outcome.waits {
            self.waits.push(wait as f64);
            self.max_wait = self.max_wait.max(wait);
        }
    }

    pub(crate) fn finish(self, config: &SimConfig) -> SimReport {
        let cycles = self.cycles.max(1);
        let bandwidth = self
            .served
            .confidence_interval(CONFIDENCE_LEVEL)
            .unwrap_or_else(|| ConfidenceInterval::degenerate(self.served.mean()));
        let offered = self.issued.mean();
        let acceptance = if offered > 0.0 {
            self.served.mean() / offered
        } else {
            1.0
        };
        SimReport {
            cycles: self.cycles,
            warmup: config.warmup,
            bandwidth,
            offered_load: offered,
            acceptance,
            unreachable_rate: self.unreachable.mean(),
            bus_utilization: self
                .bus_busy
                .iter()
                .zip(&self.bus_alive)
                .map(|(&busy, &alive)| {
                    if alive == 0 {
                        0.0
                    } else {
                        busy as f64 / alive as f64
                    }
                })
                .collect(),
            bus_alive_cycles: self.bus_alive,
            memory_service_rates: self
                .memory_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            processor_service_rates: self
                .processor_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            served_histogram: self.served_histogram,
            mean_wait: self.waits.mean(),
            max_wait: self.max_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grant;
    use mbus_topology::ConnectionScheme;

    fn net() -> BusNetwork {
        BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap()
    }

    fn outcome(served: usize) -> CycleOutcome {
        CycleOutcome {
            issued: 4,
            active: 4,
            unreachable: 0,
            grants: (0..served)
                .map(|i| Grant {
                    processor: i,
                    memory: i,
                    bus: Some(i % 2),
                })
                .collect(),
            waits: vec![0; served],
        }
    }

    #[test]
    fn collector_aggregates_basic_rates() {
        let config = SimConfig::new(4).with_batch_len(2);
        let mask = FaultMask::none(2);
        let mut c = Collector::new(&net(), &config);
        for served in [2, 1, 2, 1] {
            c.record_alive(&mask);
            c.record(&outcome(served));
        }
        let report = c.finish(&config);
        assert_eq!(report.cycles, 4);
        assert_eq!(report.bus_alive_cycles, vec![4, 4]);
        assert!((report.bandwidth.mean() - 1.5).abs() < 1e-12);
        assert!((report.offered_load - 4.0).abs() < 1e-12);
        assert!((report.acceptance - 0.375).abs() < 1e-12);
        assert_eq!(report.served_histogram.frequency(2), 2);
        // Memory 0 served every cycle; memory 1 on the two 2-grant cycles.
        assert!((report.memory_service_rates[0] - 1.0).abs() < 1e-12);
        assert!((report.memory_service_rates[1] - 0.5).abs() < 1e-12);
        // Bus 0 carried memory 0 always.
        assert!((report.bus_utilization[0] - 1.0).abs() < 1e-12);
        // Processors 0 and 1 completed 4 and 2 requests over 4 cycles.
        assert!((report.processor_service_rates[0] - 1.0).abs() < 1e-12);
        assert!((report.processor_service_rates[1] - 0.5).abs() < 1e-12);
        assert!(report.processor_fairness() < 1.0);
    }

    #[test]
    fn fairness_index_extremes() {
        let config = SimConfig::new(2);
        let mut c = Collector::new(&net(), &config);
        // Only processor 0 ever served: fairness = 1/4.
        c.record_alive(&FaultMask::none(2));
        c.record(&CycleOutcome {
            issued: 4,
            active: 4,
            unreachable: 0,
            grants: vec![Grant {
                processor: 0,
                memory: 0,
                bus: Some(0),
            }],
            waits: vec![0],
        });
        let report = c.finish(&config);
        assert!((report.processor_fairness() - 0.25).abs() < 1e-12);
        // Empty run: defined as fair.
        let empty = Collector::new(&net(), &config).finish(&config);
        assert_eq!(empty.processor_fairness(), 1.0);
    }

    #[test]
    fn empty_run_is_degenerate_but_valid() {
        let config = SimConfig::new(1);
        let c = Collector::new(&net(), &config);
        let report = c.finish(&config);
        assert_eq!(report.cycles, 0);
        assert_eq!(report.bandwidth.mean(), 0.0);
        assert_eq!(report.acceptance, 1.0);
        assert_eq!(report.mean_wait, 0.0);
        assert_eq!(report.bus_utilization, vec![0.0, 0.0]);
        assert_eq!(report.bus_alive_cycles, vec![0, 0]);
    }

    #[test]
    fn bus_utilization_is_over_alive_cycles() {
        // Bus 0 is busy every cycle it is alive, but is failed for two of
        // the four measured cycles: utilization must be 1.0, not 0.5.
        let config = SimConfig::new(4);
        let mut c = Collector::new(&net(), &config);
        let busy0 = CycleOutcome {
            issued: 4,
            active: 4,
            unreachable: 0,
            grants: vec![Grant {
                processor: 0,
                memory: 0,
                bus: Some(0),
            }],
            waits: vec![0],
        };
        let idle = CycleOutcome {
            issued: 4,
            active: 4,
            unreachable: 4,
            grants: vec![],
            waits: vec![],
        };
        let healthy = FaultMask::none(2);
        let mut degraded = FaultMask::none(2);
        degraded.fail(0).unwrap();
        for (out, mask) in [
            (&busy0, &healthy),
            (&idle, &degraded),
            (&idle, &degraded),
            (&busy0, &healthy),
        ] {
            c.record_alive(mask);
            c.record(out);
        }
        let report = c.finish(&config);
        assert_eq!(report.bus_alive_cycles, vec![2, 4]);
        assert!((report.bus_utilization[0] - 1.0).abs() < 1e-12);
        assert_eq!(report.bus_utilization[1], 0.0);
    }
}
