//! Integer-accumulator metric collection for the batched sampling spec.
//!
//! [`LaneCollector`] is the batched engines' counterpart of the scalar
//! [`crate::metrics::Collector`]: it produces the same [`SimReport`]
//! shape, but accumulates integers per grant / per cycle instead of
//! streaming `f64` observations, deferring every floating-point
//! computation to [`LaneCollector::finish`]. Per measured cycle that
//! turns three Welford updates, a `BatchMeans` push, and two `Vec`
//! walks into a handful of integer adds — the difference between the
//! batched engine merely matching the scalar engine and actually
//! beating it.
//!
//! Both [`super::lanes::run_batch`] and the naive reference
//! [`super::reference::run_reference`] feed this collector with the
//! identical call sequence (one [`LaneCollector::grant`] per grant in
//! grant order, one [`LaneCollector::end_cycle`] per measured cycle),
//! so the differential suite's bit-identity holds through the metric
//! layer by construction. The floating-point results differ from the
//! scalar `Collector` only at the ulp level (sum-then-divide versus
//! streaming means); the batched spec was never bit-compatible with the
//! scalar engine, and the statistical-agreement tests bound the drift.
//!
//! Bus in-service accounting is lane-uniform (every lane lives under
//! the same fault schedule), so the per-bus alive counts are kept once
//! by the caller and passed to [`LaneCollector::finish`] rather than
//! recounted per lane per cycle.

use crate::{SimConfig, SimReport};
use mbus_stats::{student_t_quantile, ConfidenceInterval, Histogram, Welford};
use mbus_topology::BusNetwork;

/// Streaming integer collector for one lane (one replication).
#[derive(Debug)]
pub(crate) struct LaneCollector {
    batch_len: u64,
    batch_sum: u64,
    batch_pos: u64,
    /// Welford over completed batch means — the only per-run floating
    /// point state, updated once every `batch_len` cycles.
    batches: Welford,
    served_total: u64,
    issued_total: u64,
    unreachable_total: u64,
    wait_sum: u64,
    wait_count: u64,
    max_wait: u64,
    /// Dense served-per-cycle frequencies, grown on demand like
    /// [`Histogram::record`].
    served_counts: Vec<u64>,
    bus_busy: Vec<u64>,
    memory_served: Vec<u64>,
    processor_served: Vec<u64>,
    cycles: u64,
}

impl LaneCollector {
    /// Creates a collector sized for `net`.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_len == 0`, with the same message as
    /// [`mbus_stats::BatchMeans::new`] — the replication runner's panic
    /// capture relies on the two engines failing identically.
    pub(crate) fn new(net: &BusNetwork, config: &SimConfig) -> Self {
        assert!(config.batch_len > 0, "batch length must be positive");
        Self {
            batch_len: config.batch_len,
            batch_sum: 0,
            batch_pos: 0,
            batches: Welford::new(),
            served_total: 0,
            issued_total: 0,
            unreachable_total: 0,
            wait_sum: 0,
            wait_count: 0,
            max_wait: 0,
            served_counts: vec![0; net.capacity() + 1],
            bus_busy: vec![0; net.buses()],
            memory_served: vec![0; net.memories()],
            processor_served: vec![0; net.processors()],
            cycles: 0,
        }
    }

    /// Credits one served request: processor/memory tallies, the bus-busy
    /// tally (`None` for the crossbar's dedicated paths), and the grant's
    /// wait. Call only for measured cycles, in grant order.
    #[inline]
    pub(crate) fn grant(&mut self, processor: usize, memory: usize, bus: Option<usize>, wait: u64) {
        if let Some(bus) = bus {
            self.bus_busy[bus] += 1;
        }
        self.memory_served[memory] += 1;
        self.processor_served[processor] += 1;
        self.wait_sum += wait;
        self.wait_count += 1;
        if wait > self.max_wait {
            self.max_wait = wait;
        }
    }

    /// Closes one measured cycle with its served / fresh-issue /
    /// unreachable-drop counts.
    #[inline]
    pub(crate) fn end_cycle(&mut self, served: u32, issued: u32, unreachable: u32) {
        self.cycles += 1;
        self.served_total += u64::from(served);
        self.issued_total += u64::from(issued);
        self.unreachable_total += u64::from(unreachable);
        let slot = served as usize;
        if slot >= self.served_counts.len() {
            self.served_counts.resize(slot + 1, 0);
        }
        self.served_counts[slot] += 1;
        self.batch_sum += u64::from(served);
        self.batch_pos += 1;
        if self.batch_pos == self.batch_len {
            self.batches.push(self.batch_sum as f64 / self.batch_len as f64);
            self.batch_sum = 0;
            self.batch_pos = 0;
        }
    }

    /// Produces the [`SimReport`], with `bus_alive` the caller's shared
    /// per-bus in-service cycle counts.
    pub(crate) fn finish(self, config: &SimConfig, bus_alive: &[u64]) -> SimReport {
        let cycles = self.cycles.max(1);
        let grand_mean = self.served_total as f64 / cycles as f64;
        let completed = self.batches.count();
        let bandwidth = if completed >= 2 {
            let half = student_t_quantile(completed - 1, config.confidence_level)
                * self.batches.standard_error();
            ConfidenceInterval::new(self.batches.mean(), half, config.confidence_level)
        } else {
            ConfidenceInterval::degenerate(grand_mean)
        };
        let offered = self.issued_total as f64 / cycles as f64;
        let acceptance = if offered > 0.0 {
            grand_mean / offered
        } else {
            1.0
        };
        let mut served_histogram = Histogram::with_max_value(self.served_counts.len() - 1);
        for (value, &count) in self.served_counts.iter().enumerate() {
            served_histogram.record_n(value, count);
        }
        SimReport {
            cycles: self.cycles,
            warmup: config.warmup,
            bandwidth,
            offered_load: offered,
            acceptance,
            unreachable_rate: self.unreachable_total as f64 / cycles as f64,
            bus_utilization: self
                .bus_busy
                .iter()
                .zip(bus_alive)
                .map(|(&busy, &alive)| {
                    if alive == 0 {
                        0.0
                    } else {
                        busy as f64 / alive as f64
                    }
                })
                .collect(),
            bus_alive_cycles: bus_alive.to_vec(),
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
            served_histogram,
            mean_wait: if self.wait_count == 0 {
                0.0
            } else {
                self.wait_sum as f64 / self.wait_count as f64
            },
            max_wait: self.max_wait,
        }
    }
}
