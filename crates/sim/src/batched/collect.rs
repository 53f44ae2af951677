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
//! Per-unit tallies (cycles each processor and memory was served, each
//! bus was busy) arrive once per cycle as three unit-set words
//! ([`ServedUnits`]) rather than as one counter write per grant. Each
//! set is added into an 8-plane *bit-sliced* counter: plane `i` holds
//! bit `i` of every unit's count, and adding a set is an 8-step ripple
//! carry of ANDs and XORs across the planes — 16 register ops per set
//! however many units it names. Eight planes count to 255, so the planes
//! are flushed into the `u64` per-unit totals every 255 measured cycles
//! and at [`LaneCollector::finish`].
//!
//! Both [`super::lanes::run_batch`] and the naive reference
//! [`super::reference::run_reference`] feed this collector with the
//! same call sequence (one [`LaneCollector::grant`] per grant in grant
//! order, one [`LaneCollector::end_cycle`] per measured cycle; the
//! batched engine skips the `grant` calls without resubmission, where
//! every wait is 0), so the differential suite's bit-identity holds
//! through the metric layer by construction; `tests/batched_golden.rs`
//! pins the collector itself. The floating-point results differ from the scalar
//! `Collector` only at the ulp level (sum-then-divide versus streaming
//! means); the batched spec was never bit-compatible with the scalar
//! engine, and the statistical-agreement tests bound the drift.
//!
//! Bus in-service accounting is lane-uniform (every lane lives under
//! the same fault schedule), so the per-bus alive counts are kept once
//! by the caller and passed to [`LaneCollector::finish`] rather than
//! recounted per lane per cycle.

use crate::{SimConfig, SimReport, CONFIDENCE_LEVEL};
use mbus_stats::{student_t_quantile, ConfidenceInterval, Histogram, Welford};
use mbus_topology::BusNetwork;

/// Planes of a bit-sliced counter; `2^PLANES - 1` is its capacity.
const PLANES: usize = 8;

/// Measured cycles between flushes: the most an 8-plane counter holds.
const FLUSH_EVERY: u32 = (1 << PLANES) - 1;

/// One cycle's served units, one bit per unit: processors that won a
/// grant, memories that were served, and buses that carried a grant
/// (none for the crossbar's dedicated paths).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServedUnits {
    pub(crate) processors: u64,
    pub(crate) memories: u64,
    pub(crate) buses: u64,
}

/// Per-unit counters for up to 64 units, bit-sliced: bit `u` of
/// `planes[i]` is bit `i` of unit `u`'s count since the last flush.
#[derive(Debug, Default)]
struct SlicedCounter {
    planes: [u64; PLANES],
}

impl SlicedCounter {
    /// Adds one to every unit in `units`: a ripple-carry add across the
    /// planes, with the carry word holding the units still carrying.
    #[inline]
    fn add(&mut self, units: u64) {
        let mut carry = units;
        for plane in &mut self.planes {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0, "bit-sliced counter overflowed its top plane");
    }

    /// Adds every unit's count into `totals[u]` and clears the planes.
    /// Units past the 64th (only a crossbar's unused bus slots) are never
    /// set and stay untouched.
    fn flush_into(&mut self, totals: &mut [u64]) {
        for (total, u) in totals.iter_mut().zip(0..u64::BITS) {
            *total += self
                .planes
                .iter()
                .enumerate()
                .map(|(i, &plane)| (plane >> u & 1) << i)
                .sum::<u64>();
        }
        self.planes = [0; PLANES];
    }
}

/// Streaming integer collector for one lane (one replication).
#[derive(Debug)]
pub(crate) struct LaneCollector {
    batch_len: u64,
    batch_sum: u64,
    batch_pos: u64,
    /// Welford over completed batch means — the only per-run floating
    /// point state, updated once every `batch_len` cycles.
    batches: Welford,
    /// Requests served; also the mean wait's denominator, since every
    /// served request waited (0 cycles unless it was queued).
    served_total: u64,
    issued_total: u64,
    unreachable_total: u64,
    wait_sum: u64,
    max_wait: u64,
    /// Dense served-per-cycle frequencies, one slot per possible count
    /// (`0..=capacity`).
    served_counts: Vec<u64>,
    /// Bit-sliced per-unit counts of the cycles since the last flush.
    processor_sliced: SlicedCounter,
    memory_sliced: SlicedCounter,
    bus_sliced: SlicedCounter,
    /// Measured cycles since the last flush.
    unflushed: u32,
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
            max_wait: 0,
            served_counts: vec![0; net.capacity() + 1],
            processor_sliced: SlicedCounter::default(),
            memory_sliced: SlicedCounter::default(),
            bus_sliced: SlicedCounter::default(),
            unflushed: 0,
            bus_busy: vec![0; net.buses()],
            memory_served: vec![0; net.memories()],
            processor_served: vec![0; net.processors()],
            cycles: 0,
        }
    }

    /// Records the wait of one served request that had queued. Call only
    /// for measured cycles; the order of calls does not matter, and a
    /// request served in its issue cycle (wait 0) needs no call.
    #[inline]
    pub(crate) fn grant(&mut self, wait: u64) {
        self.wait_sum += wait;
        if wait > self.max_wait {
            self.max_wait = wait;
        }
    }

    /// Closes one measured cycle with its served / fresh-issue /
    /// unreachable-drop counts and its served units. `served` never
    /// exceeds the network's capacity.
    #[inline]
    pub(crate) fn end_cycle(
        &mut self,
        served: u32,
        issued: u32,
        unreachable: u32,
        units: ServedUnits,
    ) {
        self.cycles += 1;
        self.served_total += u64::from(served);
        self.issued_total += u64::from(issued);
        self.unreachable_total += u64::from(unreachable);
        let slot = served as usize;
        debug_assert!(slot < self.served_counts.len(), "more grants than capacity");
        self.served_counts[slot] += 1;
        self.processor_sliced.add(units.processors);
        self.memory_sliced.add(units.memories);
        self.bus_sliced.add(units.buses);
        self.unflushed += 1;
        if self.unflushed == FLUSH_EVERY {
            self.flush();
        }
        self.batch_sum += u64::from(served);
        self.batch_pos += 1;
        if self.batch_pos == self.batch_len {
            self.batches
                .push(self.batch_sum as f64 / self.batch_len as f64);
            self.batch_sum = 0;
            self.batch_pos = 0;
        }
    }

    /// Moves the bit-sliced counts into the per-unit totals.
    fn flush(&mut self) {
        self.processor_sliced.flush_into(&mut self.processor_served);
        self.memory_sliced.flush_into(&mut self.memory_served);
        self.bus_sliced.flush_into(&mut self.bus_busy);
        self.unflushed = 0;
    }

    /// Produces the [`SimReport`], with `bus_alive` the caller's shared
    /// per-bus in-service cycle counts.
    pub(crate) fn finish(mut self, config: &SimConfig, bus_alive: &[u64]) -> SimReport {
        self.flush();
        let cycles = self.cycles.max(1);
        let grand_mean = self.served_total as f64 / cycles as f64;
        let completed = self.batches.count();
        let bandwidth = if completed >= 2 {
            let half =
                student_t_quantile(completed - 1, CONFIDENCE_LEVEL) * self.batches.standard_error();
            ConfidenceInterval::new(self.batches.mean(), half, CONFIDENCE_LEVEL)
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
            mean_wait: if self.served_total == 0 {
                0.0
            } else {
                self.wait_sum as f64 / self.served_total as f64
            },
            max_wait: self.max_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Feeds `cycles` random unit sets to a 64 × 64 × 64 collector and
    /// checks its flushed totals against naive per-bit counting.
    fn check_against_naive(cycles: usize) {
        let net = BusNetwork::new(64, 64, 64, ConnectionScheme::Full).unwrap();
        let mut collector = LaneCollector::new(&net, &SimConfig::new(1));
        let mut rng = StdRng::seed_from_u64(0x511C + cycles as u64);
        let mut naive = [[0u64; 64]; 3];
        for _ in 0..cycles {
            // Dense, sparse and full words, so every carry depth occurs.
            let units = ServedUnits {
                processors: rng.next_u64(),
                memories: rng.next_u64() & rng.next_u64() & rng.next_u64(),
                buses: rng.next_u64() | rng.next_u64() | rng.next_u64(),
            };
            for (counts, word) in
                naive
                    .iter_mut()
                    .zip([units.processors, units.memories, units.buses])
            {
                for (u, count) in counts.iter_mut().enumerate() {
                    *count += word >> u & 1;
                }
            }
            collector.end_cycle(0, 0, 0, units);
        }
        collector.flush();
        assert_eq!(collector.processor_served, naive[0], "{cycles} cycles");
        assert_eq!(collector.memory_served, naive[1], "{cycles} cycles");
        assert_eq!(collector.bus_busy, naive[2], "{cycles} cycles");
    }

    #[test]
    fn sliced_tallies_match_naive_counting_across_flushes() {
        for cycles in [0, 1, 254, 255, 256, 1_000] {
            check_against_naive(cycles);
        }
    }

    #[test]
    fn every_unit_every_cycle_fills_the_counter_exactly() {
        // All-ones words drive every unit to the 255 capacity right at a
        // flush; a missed flush trips the top-plane debug assertion.
        let net = BusNetwork::new(64, 64, 64, ConnectionScheme::Full).unwrap();
        let mut collector = LaneCollector::new(&net, &SimConfig::new(1));
        let all = ServedUnits {
            processors: u64::MAX,
            memories: u64::MAX,
            buses: u64::MAX,
        };
        for _ in 0..600 {
            collector.end_cycle(0, 0, 0, all);
        }
        collector.flush();
        assert!(collector.processor_served.iter().all(|&c| c == 600));
        assert!(collector.bus_busy.iter().all(|&c| c == 600));
    }

    #[test]
    fn crossbar_lane_keeps_bus_busy_at_zero() {
        // The crossbar's bus count is a placeholder and may exceed 64.
        let net = BusNetwork::new(8, 8, 70, ConnectionScheme::Crossbar).unwrap();
        let config = SimConfig::new(300).with_batch_len(30);
        let mut collector = LaneCollector::new(&net, &config);
        let units = ServedUnits {
            processors: 0b1011,
            memories: 0b0111,
            buses: 0,
        };
        for _ in 0..300 {
            collector.end_cycle(3, 3, 0, units);
        }
        let report = collector.finish(&config, &[300; 70]);
        assert_eq!(report.bus_utilization, vec![0.0; 70]);
        assert_eq!(report.processor_service_rates[..4], [1.0, 1.0, 0.0, 1.0]);
        assert_eq!(report.memory_service_rates[..4], [1.0, 1.0, 1.0, 0.0]);
    }
}
