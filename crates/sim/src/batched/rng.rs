//! Structure-of-arrays xoshiro256+ lane RNGs.
//!
//! Each lane carries one replication's generator: xoshiro256 state
//! expanded from the seed via SplitMix64 (the same expansion
//! `StdRng::seed_from_u64` performs), emitting the xoshiro256+ output
//! `s0 + s3`. The `+` output function is deliberate: unlike the `**`
//! scrambler there is no 64-bit multiply anywhere in the step, so the
//! full-width advance is pure shifts/XORs/adds the compiler vectorizes
//! at the baseline target ISA. [`LaneRngs::fill_into`] loads and stores
//! the state once per row of draws; on AVX-512F the fast build's fill
//! (`batched::dispatch`) instead holds each block of eight lanes' state
//! in registers across every row of a cycle, through
//! [`LaneRngs::state_mut`]. The four state words are stored
//! lane-major (`s[w][lane]`); lanes that diverge (K-class stage 2)
//! copy one lane's state into a register-resident [`LaneRng`]
//! ([`LaneRngs::take_lane`]), step it as often as the lane needs, and
//! write it back ([`LaneRngs::put_lane`]) without disturbing the others,
//! or, in the AVX-512 build, step eight lanes per vector under a mask of
//! the lanes that draw.
//!
//! Determinism contract: the batched sampling spec owns this stream.
//! [`LaneRng`] is the scalar twin the per-seed reference engine runs —
//! `lane_streams_match_scalar` pins the two steppers to each other, and
//! the differential suite pins every consumer. The scalar
//! [`crate::Simulator`] keeps its vendored `StdRng` stream untouched
//! (along with the simulation goldens).

use rand::RngCore;

/// Maximum lanes per batch: one `u64` bitmask word.
pub const MAX_LANES: usize = 64;

/// SplitMix64, exactly as `vendor/rand` uses it to expand seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands a seed into the four xoshiro256 state words.
#[inline]
fn expand_seed(seed: u64) -> [u64; 4] {
    let mut state = seed;
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = splitmix64(&mut state);
    }
    s
}

/// Up to [`MAX_LANES`] independent xoshiro256+ generators in SoA layout.
#[derive(Debug)]
pub(crate) struct LaneRngs {
    lanes: usize,
    /// `s[w][l]` is state word `w` of lane `l`.
    s: [[u64; MAX_LANES]; 4],
}

impl LaneRngs {
    /// One generator per seed, each carrying the same SplitMix64-expanded
    /// state a `StdRng::seed_from_u64` call would start from.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or holds more than [`MAX_LANES`] seeds.
    pub(crate) fn new(seeds: &[u64]) -> Self {
        assert!(
            !seeds.is_empty() && seeds.len() <= MAX_LANES,
            "lane count must be in 1..={MAX_LANES}"
        );
        let mut s = [[0u64; MAX_LANES]; 4];
        for (l, &seed) in seeds.iter().enumerate() {
            let expanded = expand_seed(seed);
            for (word, &value) in s.iter_mut().zip(&expanded) {
                word[l] = value;
            }
        }
        Self {
            lanes: seeds.len(),
            s,
        }
    }

    /// Number of live lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Advances every lane one step into an exactly-lane-sized slice,
    /// writing lane `l`'s output to `out[l]`. One call is one `next_u64`
    /// on each lane's [`LaneRng`]; callers fill a packed draw matrix one
    /// lane-row at a time.
    #[inline]
    pub(crate) fn fill_into(&mut self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.lanes);
        let [s0, s1, s2, s3] = &mut self.s;
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = s0[l].wrapping_add(s3[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
    }

    /// The state words, `s[w][l]` being word `w` of lane `l` (lanes at
    /// and above [`LaneRngs::lanes`] are unused): the AVX-512 fill and
    /// K-class kernels in `batched::dispatch` step them eight lanes per
    /// vector.
    #[inline]
    pub(super) fn state_mut(&mut self) -> &mut [[u64; MAX_LANES]; 4] {
        &mut self.s
    }

    /// Copies lane `lane`'s generator out — the divergent-arbitration
    /// path steps the copy in registers and hands it back through
    /// [`LaneRngs::put_lane`].
    #[inline]
    pub(crate) fn take_lane(&self, lane: usize) -> LaneRng {
        debug_assert!(lane < self.lanes);
        LaneRng {
            s: [
                self.s[0][lane],
                self.s[1][lane],
                self.s[2][lane],
                self.s[3][lane],
            ],
        }
    }

    /// Writes a generator taken by [`LaneRngs::take_lane`] back to lane
    /// `lane`.
    #[inline]
    pub(crate) fn put_lane(&mut self, lane: usize, rng: &LaneRng) {
        debug_assert!(lane < self.lanes);
        for (word, &value) in self.s.iter_mut().zip(&rng.s) {
            word[lane] = value;
        }
    }
}

/// Scalar twin of one [`LaneRngs`] lane: the per-seed reference engine
/// drives the production arbiters with this through [`RngCore`], so both
/// engines consume the identical stream.
#[derive(Debug, Clone)]
pub(crate) struct LaneRng {
    s: [u64; 4],
}

impl LaneRng {
    /// Seeds exactly like lane `l` of `LaneRngs::new(&[.., seed, ..])`.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        Self {
            s: expand_seed(seed),
        }
    }
}

impl RngCore for LaneRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }
}

/// Uniform draw from `0..span` via the same multiply-shift reduction the
/// vendored `rand::Rng::random_range` applies, so one lane draw decodes
/// to the identical index a `random_range` call site would produce.
#[inline]
pub(crate) fn reduce(draw: u64, span: usize) -> usize {
    debug_assert!(span > 0);
    (((draw as u128) * (span as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn lane_streams_match_scalar() {
        let seeds: Vec<u64> = (0..7u64).map(|i| 1000 + 13 * i).collect();
        let mut lanes = LaneRngs::new(&seeds);
        let mut scalars: Vec<LaneRng> = seeds.iter().map(|&s| LaneRng::seed_from_u64(s)).collect();
        let mut out = vec![0u64; seeds.len()];
        for _ in 0..200 {
            lanes.fill_into(&mut out);
            for (l, rng) in scalars.iter_mut().enumerate() {
                assert_eq!(out[l], rng.next_u64());
            }
        }
    }

    #[test]
    fn seeding_matches_stdrng_expansion() {
        // The state expansion is the same SplitMix64 run StdRng's
        // seed_from_u64 performs; only the output scrambler differs.
        // Pin the expansion by checking it is seed-sensitive and stable.
        let a = LaneRng::seed_from_u64(42).next_u64();
        let b = LaneRng::seed_from_u64(42).next_u64();
        let c = LaneRng::seed_from_u64(43).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn take_put_advances_only_that_lane() {
        let mut lanes = LaneRngs::new(&[5, 6, 7]);
        let mut a = LaneRng::seed_from_u64(5);
        let mut b = LaneRng::seed_from_u64(6);
        let mut c = LaneRng::seed_from_u64(7);
        // Interleave per-lane and full-width steps.
        let mut lane = lanes.take_lane(1);
        assert_eq!(lane.next_u64(), b.next_u64());
        assert_eq!(lane.next_u64(), b.next_u64());
        lanes.put_lane(1, &lane);
        let mut lane = lanes.take_lane(2);
        assert_eq!(lane.next_u64(), c.next_u64());
        lanes.put_lane(2, &lane);
        let mut out = vec![0u64; 3];
        lanes.fill_into(&mut out);
        assert_eq!(out[0], a.next_u64());
        assert_eq!(out[1], b.next_u64());
        assert_eq!(out[2], c.next_u64());
    }

    #[test]
    fn reduce_matches_random_range() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut mirror = StdRng::seed_from_u64(99);
        for span in [1usize, 2, 3, 7, 64, 1000] {
            let expect = rng.random_range(0..span);
            assert_eq!(reduce(mirror.next_u64(), span), expect);
        }
    }

    #[test]
    fn reduce_matches_random_range_on_lane_rng() {
        // The K-class arbiters call random_range through the RngCore
        // impl; the SoA engine mirrors them with reduce on a taken lane.
        let mut rng = LaneRng::seed_from_u64(7);
        let mut mirror = LaneRng::seed_from_u64(7);
        for span in [1usize, 2, 3, 7, 64, 1000] {
            let expect = rng.random_range(0..span);
            assert_eq!(reduce(mirror.next_u64(), span), expect);
        }
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn rejects_empty_seed_list() {
        let _ = LaneRngs::new(&[]);
    }
}
