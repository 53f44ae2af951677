//! Runtime choice between the two builds of the batched cycle loop.
//!
//! [`super::run_batch`] is compiled twice from one generic source
//! ([`super::lanes::run_lanes`]): once for the baseline target with the
//! portable SWAR picks ([`super::lanes::Swar`]), and once under
//! `#[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt,avx2")]` with the
//! [`FastBuild`] picks. Those rank a grant's contenders with `popcnt`,
//! select the winner with `pdep` + `tzcnt`, and every other `count_ones`
//! and `trailing_zeros` in the loop becomes one instruction (`lzcnt`
//! comes with the set; the loop has no `leading_zeros` today). AVX2 is
//! there for the lane RNG fill, which it runs four lanes per instruction
//! instead of two. Both builds select the same winner by construction,
//! so every report is bit-identical whichever build ran.
//!
//! Each call picks its build from CPUID ([`FastBuild::detect`]); there is
//! no setting. The portable build runs on non-x86_64 targets, under
//! Miri, on CPUs without one of the five features, and on AMD family 17h
//! (Zen 1 and Zen 2) and its Hygon family 18h derivative, whose `pdep`
//! is microcoded at tens to hundreds of cycles — slower than the SWAR
//! pick it would replace.
//!
//! This module is the crate's one `unsafe` island: entering the
//! feature-enabled build and calling `pdep` are sound only on a CPU that
//! has the features, which the [`FastBuild`] token proves.

#![allow(unsafe_code)]
// overrides the crate-level deny; every site below carries a SAFETY argument
// Off x86_64 nothing enters the fast build; only the tests read the
// predicate there.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

/// What the fallback predicate reads about the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Host {
    x86_64: bool,
    miri: bool,
    bmi1: bool,
    bmi2: bool,
    popcnt: bool,
    lzcnt: bool,
    avx2: bool,
    /// CPUID leaf 0 vendor string.
    vendor: [u8; 12],
    /// CPUID leaf 1 display family (base family plus, at base 0xF, the
    /// extended family).
    family: u32,
}

impl Host {
    /// The running CPU. Miri cannot execute `cpuid`, so under Miri the
    /// host reads as featureless.
    fn current() -> Self {
        #[cfg(target_arch = "x86_64")]
        if !cfg!(miri) {
            use std::arch::x86_64::__cpuid;
            // SAFETY: `cpuid` leaves 0 and 1 exist on every x86_64 CPU.
            // (`__cpuid` became a safe fn after this crate's minimum Rust
            // version, hence the allow.)
            #[allow(unused_unsafe)]
            let (leaf0, leaf1) = unsafe { (__cpuid(0), __cpuid(1)) };
            let mut vendor = [0u8; 12];
            for (dst, word) in vendor
                .chunks_exact_mut(4)
                .zip([leaf0.ebx, leaf0.edx, leaf0.ecx])
            {
                dst.copy_from_slice(&word.to_le_bytes());
            }
            let base = leaf1.eax >> 8 & 0xf;
            let family = if base == 0xf {
                base + (leaf1.eax >> 20 & 0xff)
            } else {
                base
            };
            return Self {
                x86_64: true,
                miri: false,
                bmi1: std::arch::is_x86_feature_detected!("bmi1"),
                bmi2: std::arch::is_x86_feature_detected!("bmi2"),
                popcnt: std::arch::is_x86_feature_detected!("popcnt"),
                lzcnt: std::arch::is_x86_feature_detected!("lzcnt"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                vendor,
                family,
            };
        }
        Self {
            x86_64: cfg!(target_arch = "x86_64"),
            miri: cfg!(miri),
            ..Self::default()
        }
    }

    /// Whether the CPU has every feature the fast build is compiled with.
    fn has_features(&self) -> bool {
        let features = [self.bmi1, self.bmi2, self.popcnt, self.lzcnt, self.avx2];
        self.x86_64 && !self.miri && features.iter().all(|&f| f)
    }

    /// Zen 1 / Zen 2 (AMD family 17h, Hygon family 18h): `pdep` is
    /// microcoded there.
    fn slow_pdep(&self) -> bool {
        (&self.vendor == b"AuthenticAMD" && self.family == 0x17)
            || (&self.vendor == b"HygonGenuine" && self.family == 0x18)
    }

    /// The fallback predicate: the fast build runs only where it is
    /// available and faster.
    fn fast_build_pays(&self) -> bool {
        self.has_features() && !self.slow_pdep()
    }
}

/// Proof that the running CPU has BMI1, BMI2, POPCNT, LZCNT and AVX2:
/// only [`FastBuild::detect`] (and, in tests, `FastBuild::supported`)
/// makes one, after `is_x86_feature_detected!` reported all five.
/// Holding it is what makes the feature-enabled build and its `pdep`
/// calls sound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastBuild(());

impl FastBuild {
    /// The token, if this CPU should run the fast build (the
    /// [`Host::fast_build_pays`] predicate, evaluated once per process).
    pub(crate) fn detect() -> Option<Self> {
        static PAYS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        PAYS.get_or_init(|| Host::current().fast_build_pays())
            .then_some(Self(()))
    }

    /// The token wherever the features exist, slow `pdep` or not: tests
    /// compare the builds on every CPU that can run both.
    #[cfg(test)]
    fn supported() -> Option<Self> {
        Host::current().has_features().then_some(Self(()))
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::lanes::{byte_matches, run_lanes, Picks};
    use super::FastBuild;
    use crate::{SimConfig, SimError, SimReport};
    use mbus_topology::BusNetwork;
    use mbus_workload::RequestMatrix;
    use std::arch::x86_64::_pdep_u64;

    impl FastBuild {
        /// [`super::super::run_batch`] in the feature-enabled build.
        pub(crate) fn run_batch(
            self,
            net: &BusNetwork,
            matrix: &RequestMatrix,
            r: f64,
            config: &SimConfig,
            seeds: &[u64],
        ) -> Result<Vec<SimReport>, SimError> {
            // SAFETY: `self` exists only after `is_x86_feature_detected!`
            // reported bmi1, bmi2, popcnt, lzcnt and avx2 (see
            // `Host::has_features`), the features `run_batch_fast` is
            // compiled with.
            unsafe { run_batch_fast(self, net, matrix, r, config, seeds) }
        }

        /// Position of set bit number `rank` (0-based, ascending) of
        /// `bits`: deposit a lone 1 at that set bit, then count the zeros
        /// below it.
        #[inline(always)]
        fn select(self, bits: u64, rank: u64) -> usize {
            debug_assert!(rank < u64::from(bits.count_ones()));
            // SAFETY: `self` exists only after `is_x86_feature_detected!`
            // reported bmi2 (see `Host::has_features`).
            let winner = unsafe { _pdep_u64(1 << rank, bits) };
            winner.trailing_zeros() as usize
        }
    }

    impl Picks for FastBuild {
        #[inline(always)]
        fn pick_bit(self, bits: u64, chunk: u64) -> usize {
            let count = u64::from(bits.count_ones());
            self.select(bits, (chunk * count) >> 16)
        }

        #[inline(always)]
        fn pick_in_word(self, word: u64, needle: u64, chunk: u64) -> usize {
            // One flag per matching byte at bit `8·p`: the winner's flag
            // position divided by 8 is its processor.
            self.pick_bit(byte_matches(word, needle), chunk) >> 3
        }
    }

    /// [`super::super::lanes::run_lanes`] compiled for the five features.
    ///
    /// # Safety
    ///
    /// The CPU must have bmi1, bmi2, popcnt, lzcnt and avx2.
    // SAFETY: the only caller holds a `FastBuild` token, which is made
    // only after `is_x86_feature_detected!` reported all five features
    // (see `Host::has_features`).
    #[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt,avx2")]
    unsafe fn run_batch_fast(
        picks: FastBuild,
        net: &BusNetwork,
        matrix: &RequestMatrix,
        r: f64,
        config: &SimConfig,
        seeds: &[u64],
    ) -> Result<Vec<SimReport>, SimError> {
        run_lanes(picks, net, matrix, r, config, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_host() -> Host {
        Host {
            x86_64: true,
            miri: false,
            bmi1: true,
            bmi2: true,
            popcnt: true,
            lzcnt: true,
            avx2: true,
            vendor: *b"GenuineIntel",
            family: 6,
        }
    }

    #[test]
    fn fallback_predicate_excludes_each_condition() {
        assert!(fast_host().fast_build_pays());
        let without = |change: fn(&mut Host)| {
            let mut host = fast_host();
            change(&mut host);
            host.fast_build_pays()
        };
        assert!(!without(|h| h.x86_64 = false), "non-x86_64 target");
        assert!(!without(|h| h.miri = true), "under Miri");
        assert!(!without(|h| h.bmi1 = false), "no BMI1");
        assert!(!without(|h| h.bmi2 = false), "no BMI2");
        assert!(!without(|h| h.popcnt = false), "no POPCNT");
        assert!(!without(|h| h.lzcnt = false), "no LZCNT");
        assert!(!without(|h| h.avx2 = false), "no AVX2");
        assert!(!Host::default().fast_build_pays(), "featureless host");
    }

    #[test]
    fn fallback_predicate_excludes_microcoded_pdep_only() {
        let on = |vendor: &[u8; 12], family| Host {
            vendor: *vendor,
            family,
            ..fast_host()
        };
        // Zen 1 / Zen 2 and Hygon's Zen 1 derivative: microcoded pdep.
        assert!(!on(b"AuthenticAMD", 0x17).fast_build_pays());
        assert!(!on(b"HygonGenuine", 0x18).fast_build_pays());
        // Their features are there; only the speed rules them out.
        assert!(on(b"AuthenticAMD", 0x17).has_features());
        // Zen 3 onwards and older AMD families with BMI2 run it.
        assert!(on(b"AuthenticAMD", 0x19).fast_build_pays());
        assert!(on(b"AuthenticAMD", 0x1a).fast_build_pays());
        assert!(on(b"AuthenticAMD", 0x15).fast_build_pays());
        // Family 0x17 is only special for AMD.
        assert!(on(b"GenuineIntel", 0x17).fast_build_pays());
    }

    #[test]
    fn current_host_matches_the_target() {
        let host = Host::current();
        assert_eq!(host.x86_64, cfg!(target_arch = "x86_64"));
        assert_eq!(host.miri, cfg!(miri));
        if !host.x86_64 || host.miri {
            assert!(!host.has_features() && FastBuild::detect().is_none());
        }
        // The cached decision agrees with a fresh evaluation.
        assert_eq!(FastBuild::detect().is_some(), host.fast_build_pays());
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use crate::batched::dispatch::FastBuild;
        use crate::batched::golden_scenarios::scenarios;
        use crate::batched::lanes::tests::{chunk_for_rank, naive_pick};
        use crate::batched::lanes::{byte_matches, run_lanes, Picks, Swar};
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        /// The fast-build token, or `None` after saying why the test skips.
        fn fast_or_skip(test: &str) -> Option<FastBuild> {
            let token = FastBuild::supported();
            if token.is_none() {
                eprintln!(
                    "{test}: skipped, this CPU lacks bmi1/bmi2/popcnt/lzcnt/avx2 (or runs Miri)"
                );
            }
            token
        }

        #[test]
        fn bmi2_picks_equal_swar_for_every_byte_value_and_rank() {
            let Some(fast) = fast_or_skip("bmi2_picks_equal_swar_for_every_byte_value_and_rank")
            else {
                return;
            };
            for value in 1..256u64 {
                let count = u64::from(value.count_ones());
                for rank in 0..count {
                    let chunk = chunk_for_rank(rank, count);
                    for byte in 0..8 {
                        let bits = value << (byte * 8);
                        let want = Swar.pick_bit(bits, chunk);
                        assert_eq!(want, naive_pick(bits, chunk));
                        assert_eq!(fast.pick_bit(bits, chunk), want, "{bits:#x} rank {rank}");
                    }
                    // The same contender set as eight outcome bytes: byte
                    // `p` names memory 1 iff bit `p` of `value` is set.
                    let word = (0..8).fold(0u64, |acc, p| acc | (value >> p & 1) << (8 * p));
                    let needle = 0x0101_0101_0101_0101;
                    let want = Swar.pick_in_word(word, needle, chunk);
                    assert_eq!(want, naive_pick(value, chunk));
                    assert_eq!(fast.pick_in_word(word, needle, chunk), want, "{value:#04x}");
                }
            }
        }

        #[test]
        fn bmi2_picks_equal_swar_on_a_million_random_words() {
            let Some(fast) = fast_or_skip("bmi2_picks_equal_swar_on_a_million_random_words") else {
                return;
            };
            let mut rng = StdRng::seed_from_u64(0xB312);
            let mut checked = 0;
            while checked < 1_000_000 {
                let draw = rng.next_u64();
                // Dense, sparse and very sparse words.
                let bits = match draw % 3 {
                    0 => rng.next_u64(),
                    1 => rng.next_u64() & rng.next_u64(),
                    _ => rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64(),
                };
                if bits == 0 {
                    continue;
                }
                let chunk = draw >> 48;
                assert_eq!(
                    fast.pick_bit(bits, chunk),
                    Swar.pick_bit(bits, chunk),
                    "{bits:#x} chunk {chunk:#x}"
                );
                // Eight outcome bytes over three memories and idle, one
                // memory the needle.
                let word = rng.next_u64() & 0x0303_0303_0303_0303;
                let needle = ((draw >> 32) % 3 + 1) * 0x0101_0101_0101_0101;
                if byte_matches(word, needle) == 0 {
                    continue;
                }
                assert_eq!(
                    fast.pick_in_word(word, needle, chunk),
                    Swar.pick_in_word(word, needle, chunk),
                    "{word:#x} needle {needle:#x} chunk {chunk:#x}"
                );
                checked += 1;
            }
        }

        #[test]
        #[cfg_attr(miri, ignore)]
        fn both_builds_agree_on_every_golden_scenario() {
            let Some(fast) = fast_or_skip("both_builds_agree_on_every_golden_scenario") else {
                return;
            };
            let seeds: Vec<u64> = (0..8u64).map(|i| 4_242 + i).collect();
            for s in scenarios() {
                let portable = run_lanes(Swar, &s.net, &s.matrix, s.r, &s.config, &seeds).unwrap();
                let bmi2 = fast
                    .run_batch(&s.net, &s.matrix, s.r, &s.config, &seeds)
                    .unwrap();
                assert_eq!(portable, bmi2, "{}: the builds disagree", s.name);
            }
        }
    }
}
