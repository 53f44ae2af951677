//! Lane-major integer metric collection for the batched sampling spec.
//!
//! [`LaneTallies`] is the batched engines' counterpart of the scalar
//! [`crate::metrics::Collector`]: it produces one [`SimReport`] per lane,
//! of the same shape, but accumulates integers per cycle instead of
//! streaming `f64` observations, deferring every floating-point
//! computation to [`LaneTallies::finish`] (and to one Welford push per
//! lane per completed batch).
//!
//! One `LaneTallies` serves every lane of a batch. A measured cycle
//! reaches it in two steps:
//!
//! * **the per-lane pass** only stores the lane's cycle inputs into its
//!   slots ([`LaneTallies::record`]): the served and unreachable counts
//!   and three unit-set words ([`ServedUnits`]) — processors that won a
//!   grant, memories that were served, buses that carried a grant — and
//!   records the waits of queued winners ([`LaneTallies::grant`]);
//! * **after the pass**, one [`LaneTallies::end_cycle`] closes every
//!   lane at once. It adds the integer totals across lanes, bumps each
//!   lane's served-count histogram slot, and adds each unit-set word into
//!   an 8-plane *bit-sliced* counter: plane `i` holds bit `i` of every
//!   unit's count, and adding a set is an 8-step ripple carry of ANDs and
//!   XORs across the planes. The planes are stored plane-major,
//!   `[plane][lane]`, so the ripple runs across lanes in vector
//!   registers. Eight planes count to 255, so the planes are flushed into
//!   the `u64` per-unit totals every 255 measured cycles and at `finish`.
//!
//! The cycle count, the flush countdown and the position within the
//! current batch are lane-uniform — every lane closes the same measured
//! cycles — so they are kept once. At each batch boundary every lane's
//! batch mean goes into that lane's Welford accumulator.
//!
//! Both [`super::lanes::run_batch`] (every lane) and the naive reference
//! [`super::reference::run_reference`] (one lane per seed) drive this
//! type with the same call sequence, so the differential suite's
//! bit-identity holds through the metric layer by construction;
//! `tests/batched_golden.rs` pins the tallies themselves. Every tally is
//! an integer until `finish`, which computes each lane's report with the
//! same float expressions as a single-lane run. The floating-point
//! results differ from the scalar `Collector` only at the ulp level
//! (sum-then-divide versus streaming means); the batched spec was never
//! bit-compatible with the scalar engine, and the statistical-agreement
//! tests bound the drift.
//!
//! Bus in-service accounting is lane-uniform too (every lane lives under
//! the same fault schedule), so the per-bus alive counts are kept once by
//! the caller and passed to [`LaneTallies::finish`].

use super::rng::MAX_LANES;
use crate::{SimConfig, SimReport, CONFIDENCE_LEVEL};
use mbus_stats::{student_t_quantile, ConfidenceInterval, Histogram, Welford};
use mbus_topology::BusNetwork;

/// Planes of a bit-sliced counter; `2^PLANES - 1` is its capacity.
const PLANES: usize = 8;

/// Measured cycles between flushes: the most an 8-plane counter holds.
const FLUSH_EVERY: u32 = (1 << PLANES) - 1;

/// The per-unit tallies, in the order of [`LaneTallies::units`]: served
/// processors, served memories, busy buses.
const KINDS: usize = 3;

/// One lane's served units in one cycle, one bit per unit: processors
/// that won a grant, memories that were served, and buses that carried a
/// grant (none for the crossbar's dedicated paths).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServedUnits {
    pub(crate) processors: u64,
    pub(crate) memories: u64,
    pub(crate) buses: u64,
}

/// Bit-sliced per-unit counters of every lane, for up to 64 units: bit
/// `u` of `planes[i][l]` is bit `i` of unit `u`'s count in lane `l` since
/// the last flush.
type Planes = [[u64; MAX_LANES]; PLANES];

/// Adds one to every unit of `words[l]` in lane `l`'s counter, for the
/// first `lanes` lanes: a ripple-carry add across the planes, with the
/// carry word holding the units still carrying. The planes are indexed
/// by lane inside, so the lane loop vectorizes.
#[inline(always)]
fn ripple(planes: &mut Planes, words: &[u64; MAX_LANES], lanes: usize) {
    // Bound the lane loop by the arrays' length, so no index is checked.
    let lanes = lanes.min(MAX_LANES);
    let mut overflow = 0;
    for l in 0..lanes {
        let mut carry = words[l];
        for plane in planes.iter_mut() {
            let next = plane[l] & carry;
            plane[l] ^= carry;
            carry = next;
        }
        overflow |= carry;
    }
    debug_assert_eq!(overflow, 0, "bit-sliced counter overflowed its top plane");
}

/// Streaming integer tallies for every lane (one replication each) of a
/// batch.
#[derive(Debug)]
pub(crate) struct LaneTallies {
    lanes: usize,
    batch_len: u64,
    /// Measured cycles closed so far.
    cycles: u64,
    /// Measured cycles since the last flush.
    unflushed: u32,
    /// Measured cycles into the current batch.
    batch_pos: u64,
    /// This cycle's inputs, one slot per lane, written by
    /// [`LaneTallies::record`]: grants served, requests dropped as
    /// unreachable, and the served units by kind.
    served: [u32; MAX_LANES],
    unreachable: [u32; MAX_LANES],
    words: [[u64; MAX_LANES]; KINDS],
    /// Requests served; also the mean wait's denominator, since every
    /// served request waited (0 cycles unless it was queued).
    served_total: [u64; MAX_LANES],
    issued_total: [u64; MAX_LANES],
    unreachable_total: [u64; MAX_LANES],
    batch_sum: [u64; MAX_LANES],
    wait_sum: [u64; MAX_LANES],
    max_wait: [u64; MAX_LANES],
    /// Welford over each lane's completed batch means — the only per-run
    /// floating point state, updated once every `batch_len` cycles.
    batches: [Welford; MAX_LANES],
    /// Dense served-per-cycle frequencies, `slots = capacity + 1` per
    /// lane: `served_counts[l·slots + s]` counts lane `l`'s cycles that
    /// served `s`.
    slots: usize,
    served_counts: Vec<u64>,
    /// Bit-sliced per-unit counts of the cycles since the last flush, by
    /// kind.
    planes: [Planes; KINDS],
    /// Unit counts by kind: processors, memories, buses.
    units: [usize; KINDS],
    /// Per-unit totals by kind, lane after lane: `totals[k][l·units[k] +
    /// u]` is unit `u`'s count in lane `l`.
    totals: [Vec<u64>; KINDS],
}

impl LaneTallies {
    /// Creates tallies for `lanes` lanes on `net`.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_len == 0`, with the same message as
    /// [`mbus_stats::BatchMeans::new`] — the replication runner's panic
    /// capture relies on the two engines failing identically — or if
    /// `lanes` exceeds [`MAX_LANES`].
    pub(crate) fn new(net: &BusNetwork, config: &SimConfig, lanes: usize) -> Self {
        assert!(config.batch_len > 0, "batch length must be positive");
        assert!(lanes <= MAX_LANES, "at most {MAX_LANES} lanes");
        let slots = net.capacity() + 1;
        let units = [net.processors(), net.memories(), net.buses()];
        Self {
            lanes,
            batch_len: config.batch_len,
            cycles: 0,
            unflushed: 0,
            batch_pos: 0,
            served: [0; MAX_LANES],
            unreachable: [0; MAX_LANES],
            words: [[0; MAX_LANES]; KINDS],
            served_total: [0; MAX_LANES],
            issued_total: [0; MAX_LANES],
            unreachable_total: [0; MAX_LANES],
            batch_sum: [0; MAX_LANES],
            wait_sum: [0; MAX_LANES],
            max_wait: [0; MAX_LANES],
            batches: [Welford::new(); MAX_LANES],
            slots,
            served_counts: vec![0; lanes * slots],
            planes: [[[0; MAX_LANES]; PLANES]; KINDS],
            units,
            totals: units.map(|count| vec![0; lanes * count]),
        }
    }

    /// Records the wait of one served request of lane `l` that had
    /// queued. Call only for measured cycles; the order of calls does not
    /// matter, and a request served in its issue cycle (wait 0) needs no
    /// call.
    #[inline]
    pub(crate) fn grant(&mut self, l: usize, wait: u64) {
        self.wait_sum[l] += wait;
        self.max_wait[l] = self.max_wait[l].max(wait);
    }

    /// Stores lane `l`'s inputs for the measured cycle that the next
    /// [`LaneTallies::end_cycle`] closes: its served and unreachable-drop
    /// counts and its served units. `served` never exceeds the network's
    /// capacity.
    #[inline]
    pub(crate) fn record(&mut self, l: usize, served: u32, unreachable: u32, units: ServedUnits) {
        self.served[l] = served;
        self.unreachable[l] = unreachable;
        self.words[0][l] = units.processors;
        self.words[1][l] = units.memories;
        self.words[2][l] = units.buses;
    }

    /// Closes one measured cycle in every lane, from the slots
    /// [`LaneTallies::record`] filled and each lane's fresh issues,
    /// `issued[l]`. Always inlined, so each build of the cycle loop
    /// vectorizes the close for its own features.
    #[inline(always)]
    pub(crate) fn end_cycle(&mut self, issued: &[u32]) {
        let lanes = self.lanes;
        self.cycles += 1;
        let sums = self.served_total[..lanes]
            .iter_mut()
            .zip(&mut self.batch_sum)
            .zip(&self.served);
        for ((total, batch), &served) in sums {
            *total += u64::from(served);
            *batch += u64::from(served);
        }
        for (total, &count) in self.issued_total[..lanes].iter_mut().zip(issued) {
            *total += u64::from(count);
        }
        for (total, &count) in self.unreachable_total[..lanes]
            .iter_mut()
            .zip(&self.unreachable)
        {
            *total += u64::from(count);
        }
        let slots = self.slots;
        for (counts, &served) in self.served_counts.chunks_exact_mut(slots).zip(&self.served) {
            let slot = served as usize;
            debug_assert!(slot < slots, "more grants than capacity");
            counts[slot] += 1;
        }
        for (planes, words) in self.planes.iter_mut().zip(&self.words) {
            ripple(planes, words, lanes);
        }
        self.unflushed += 1;
        if self.unflushed == FLUSH_EVERY {
            self.flush();
        }
        self.batch_pos += 1;
        if self.batch_pos == self.batch_len {
            let means = self.batches[..lanes].iter_mut().zip(&mut self.batch_sum);
            for (batches, sum) in means {
                batches.push(*sum as f64 / self.batch_len as f64);
                *sum = 0;
            }
            self.batch_pos = 0;
        }
    }

    /// Moves the bit-sliced counts into the per-unit totals and clears the
    /// planes. Units past the 64th (only a crossbar's unused bus slots)
    /// are never set and stay untouched.
    fn flush(&mut self) {
        let kinds = self.planes.iter_mut().zip(&mut self.totals).zip(self.units);
        for ((planes, totals), units) in kinds {
            for (l, lane_totals) in totals.chunks_exact_mut(units).enumerate() {
                for (total, u) in lane_totals.iter_mut().zip(0..u64::BITS) {
                    *total += planes
                        .iter()
                        .enumerate()
                        .map(|(i, plane)| (plane[l] >> u & 1) << i)
                        .sum::<u64>();
                }
            }
            *planes = [[0; MAX_LANES]; PLANES];
        }
        self.unflushed = 0;
    }

    /// Produces one [`SimReport`] per lane, in lane order, with
    /// `bus_alive` the caller's shared per-bus in-service cycle counts.
    pub(crate) fn finish(mut self, config: &SimConfig, bus_alive: &[u64]) -> Vec<SimReport> {
        self.flush();
        (0..self.lanes)
            .map(|l| self.report(l, config, bus_alive))
            .collect()
    }

    /// Lane `l`'s report from its flushed tallies.
    fn report(&self, l: usize, config: &SimConfig, bus_alive: &[u64]) -> SimReport {
        let cycles = self.cycles.max(1);
        let served_total = self.served_total[l];
        let grand_mean = served_total as f64 / cycles as f64;
        let batches = &self.batches[l];
        let completed = batches.count();
        let bandwidth = if completed >= 2 {
            let half =
                student_t_quantile(completed - 1, CONFIDENCE_LEVEL) * batches.standard_error();
            ConfidenceInterval::new(batches.mean(), half, CONFIDENCE_LEVEL)
        } else {
            ConfidenceInterval::degenerate(grand_mean)
        };
        let offered = self.issued_total[l] as f64 / cycles as f64;
        let acceptance = if offered > 0.0 {
            grand_mean / offered
        } else {
            1.0
        };
        let mut served_histogram = Histogram::with_max_value(self.slots - 1);
        let counts = &self.served_counts[l * self.slots..][..self.slots];
        for (value, &count) in counts.iter().enumerate() {
            served_histogram.record_n(value, count);
        }
        let [processor_served, memory_served, bus_busy] =
            [0, 1, 2].map(|k| &self.totals[k][l * self.units[k]..][..self.units[k]]);
        SimReport {
            cycles: self.cycles,
            warmup: config.warmup,
            bandwidth,
            offered_load: offered,
            acceptance,
            unreachable_rate: self.unreachable_total[l] as f64 / cycles as f64,
            bus_utilization: bus_busy
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
            memory_service_rates: memory_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            processor_service_rates: processor_served
                .iter()
                .map(|&c| c as f64 / cycles as f64)
                .collect(),
            served_histogram,
            mean_wait: if served_total == 0 {
                0.0
            } else {
                self.wait_sum[l] as f64 / served_total as f64
            },
            max_wait: self.max_wait[l],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Lane counts the tests cover: one, odd, half and full batches.
    const LANE_COUNTS: [usize; 4] = [1, 7, 32, 64];

    /// Feeds `cycles` random unit sets, different in every lane, to
    /// 64 × 64 × 64 tallies of `lanes` lanes and checks each lane's flushed
    /// totals against naive per-bit counting.
    fn check_against_naive(lanes: usize, cycles: usize) {
        let net = BusNetwork::new(64, 64, 64, ConnectionScheme::Full).unwrap();
        let mut tallies = LaneTallies::new(&net, &SimConfig::new(1), lanes);
        let mut rng = StdRng::seed_from_u64(0x511C + (lanes * 10_000 + cycles) as u64);
        let mut naive = vec![[[0u64; 64]; KINDS]; lanes];
        for _ in 0..cycles {
            for (l, lane_naive) in naive.iter_mut().enumerate() {
                // Dense, sparse and full words, so every carry depth occurs.
                let units = ServedUnits {
                    processors: rng.next_u64(),
                    memories: rng.next_u64() & rng.next_u64() & rng.next_u64(),
                    buses: rng.next_u64() | rng.next_u64() | rng.next_u64(),
                };
                let words = [units.processors, units.memories, units.buses];
                for (counts, word) in lane_naive.iter_mut().zip(words) {
                    for (u, count) in counts.iter_mut().enumerate() {
                        *count += word >> u & 1;
                    }
                }
                tallies.record(l, 0, 0, units);
            }
            tallies.end_cycle(&[0; MAX_LANES][..lanes]);
        }
        tallies.flush();
        for (l, lane_naive) in naive.iter().enumerate() {
            for (k, counts) in lane_naive.iter().enumerate() {
                assert_eq!(
                    tallies.totals[k][l * 64..][..64],
                    counts[..],
                    "kind {k}, lane {l} of {lanes}, {cycles} cycles"
                );
            }
        }
    }

    #[test]
    fn sliced_tallies_match_naive_counting_across_flushes() {
        for lanes in LANE_COUNTS {
            for cycles in [0, 1, 254, 255, 256, 1_000] {
                check_against_naive(lanes, cycles);
            }
        }
    }

    #[test]
    fn every_unit_every_cycle_fills_the_counter_exactly() {
        // All-ones words drive every unit of every lane to the 255
        // capacity right at a flush; a missed flush trips the top-plane
        // debug assertion.
        let net = BusNetwork::new(64, 64, 64, ConnectionScheme::Full).unwrap();
        let all = ServedUnits {
            processors: u64::MAX,
            memories: u64::MAX,
            buses: u64::MAX,
        };
        for lanes in LANE_COUNTS {
            let mut tallies = LaneTallies::new(&net, &SimConfig::new(1), lanes);
            for _ in 0..600 {
                for l in 0..lanes {
                    tallies.record(l, 0, 0, all);
                }
                tallies.end_cycle(&[0; MAX_LANES][..lanes]);
            }
            tallies.flush();
            for totals in &tallies.totals {
                assert_eq!(totals.len(), lanes * 64);
                assert!(totals.iter().all(|&c| c == 600), "{lanes} lanes");
            }
        }
    }

    #[test]
    fn crossbar_lane_keeps_bus_busy_at_zero() {
        // The crossbar's bus count is a placeholder and may exceed 64.
        let net = BusNetwork::new(8, 8, 70, ConnectionScheme::Crossbar).unwrap();
        let config = SimConfig::new(300).with_batch_len(30);
        let mut tallies = LaneTallies::new(&net, &config, 1);
        let units = ServedUnits {
            processors: 0b1011,
            memories: 0b0111,
            buses: 0,
        };
        for _ in 0..300 {
            tallies.record(0, 3, 0, units);
            tallies.end_cycle(&[3]);
        }
        let report = &tallies.finish(&config, &[300; 70])[0];
        assert_eq!(report.bus_utilization, vec![0.0; 70]);
        assert_eq!(report.processor_service_rates[..4], [1.0, 1.0, 0.0, 1.0]);
        assert_eq!(report.memory_service_rates[..4], [1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn every_lane_reports_what_its_own_one_lane_tallies_report() {
        // Random counts, waits and unit sets in every lane, closed by one
        // shared `end_cycle`, must give each lane the report that a
        // one-lane run of its inputs gives: counts, histogram slots,
        // waits, batch means and per-unit rates all stay in their lane.
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let config = SimConfig::new(700).with_batch_len(50);
        let capacity = net.capacity() as u32;
        for lanes in LANE_COUNTS {
            let mut rng = StdRng::seed_from_u64(0xC0_11EC + lanes as u64);
            let mut shared = LaneTallies::new(&net, &config, lanes);
            let mut single: Vec<LaneTallies> = (0..lanes)
                .map(|_| LaneTallies::new(&net, &config, 1))
                .collect();
            for _ in 0..700 {
                let mut issued = [0u32; MAX_LANES];
                for (l, one) in single.iter_mut().enumerate() {
                    let served = rng.random_range(0..=capacity);
                    let unreachable = rng.random_range(0..3u32);
                    issued[l] = served + rng.random_range(0..4u32);
                    let units = ServedUnits {
                        processors: rng.next_u64() & 0xff,
                        memories: rng.next_u64() & 0xff,
                        buses: rng.next_u64() & 0xf,
                    };
                    for _ in 0..rng.random_range(0..3) {
                        let wait = rng.random_range(1..40u64);
                        shared.grant(l, wait);
                        one.grant(0, wait);
                    }
                    shared.record(l, served, unreachable, units);
                    one.record(0, served, unreachable, units);
                    one.end_cycle(&issued[l..=l]);
                }
                shared.end_cycle(&issued[..lanes]);
            }
            let alive = [700; 4];
            let reports = shared.finish(&config, &alive);
            assert_eq!(reports.len(), lanes);
            for (l, (report, one)) in reports.iter().zip(single).enumerate() {
                let want = &one.finish(&config, &alive)[0];
                assert_eq!(
                    format!("{report:?}"),
                    format!("{want:?}"),
                    "lane {l} of {lanes}"
                );
            }
        }
    }
}
