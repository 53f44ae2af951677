//! Runtime choice between the builds of the batched cycle loop.
//!
//! [`super::run_batch`] is compiled three times from one generic source
//! ([`super::lanes::run_lanes`]):
//!
//! * for the baseline target with the portable picks
//!   ([`super::lanes::Swar`]): SWAR ranks, and on x86_64 an SSE2 row
//!   compare (`pcmpeqb` + `pmovmskb` per pair of row words, `Sse2Row`),
//!   SSE2 being part of that target's baseline;
//! * under `#[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt,avx2")]`
//!   with the [`FastBuild`] picks. Those rank a grant's contenders with
//!   `popcnt`, select the winner with `pdep` + `tzcnt`, and match a row
//!   with one AVX2 `vpcmpeqb` + `vpmovmskb` per 32-byte half; every other
//!   `count_ones` and `trailing_zeros` in the loop becomes one instruction
//!   (`lzcnt` comes with the set; the loop has no `leading_zeros` today),
//!   and AVX2 lets the compiler run the portable lane RNG fill four lanes
//!   per instruction instead of two;
//! * on a CPU that also has AVX-512F and AVX-512BW, under those seven
//!   features with the `Avx512Build` picks, whose hand-written kernels
//!   replace the portable bodies of the [`super::lanes::Picks`] hooks:
//!   - **RNG fill** — eight lanes per vector, each block's xoshiro256+
//!     state held in four registers across every draw row and arbitration
//!     row of the cycle (`vprolq` is the rotate), instead of a load and a
//!     store of the state per row.
//!   - **Issue** (no resubmission, every `N`) — eight lanes per vector:
//!     column and fraction from two `vpmuludq` products (exactly `draw as
//!     u128 * K` split at bit 64), threshold and alias gathered from the
//!     processor's alias row, accept as an unsigned mask compare, then the
//!     outcome byte shifted into place and written to the lanes' row words
//!     with one contiguous masked store, plus masked `req`/`issued`
//!     accumulation. With resubmission the portable issue loop runs.
//!   - **Row match** — a lane's row is one register (a masked gather of its
//!     words, or a broadcast for a one-word row), and a grant's contenders
//!     are one `vpcmpeqb` straight into a mask register.
//!
//! All builds select the same winner by construction, and each lane's RNG
//! stream order and every decode are unchanged, so every report is
//! bit-identical whichever build ran; only the instruction mix differs.
//! Lane counts that are not a multiple of eight run their last block
//! under a lane mask. The kernels were measured on an Intel Xeon with
//! AVX-512 (DESIGN §14); AMD Zen 4's AVX-512 gathers are unmeasured here.
//!
//! Each call picks its build from CPUID ([`FastBuild::detect`],
//! [`Avx512::detect`]); there is no setting. The portable build runs on
//! non-x86_64 targets, under Miri, on CPUs without one of the five
//! features, and on AMD family 17h (Zen 1 and Zen 2) and its Hygon family
//! 18h derivative, whose `pdep` is microcoded at tens to hundreds of
//! cycles — slower than the SWAR pick it would replace.
//!
//! This module is the crate's one `unsafe` island: entering the
//! feature-enabled builds, calling `pdep` and calling the SSE2, AVX2 and
//! AVX-512 kernels are sound only on a CPU that has the features, which
//! the [`FastBuild`] and [`Avx512`] tokens prove (SSE2 is enabled for
//! every x86_64 build); the kernels' vector loads, stores and gathers are
//! sound because every index they use is in bounds.

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
    avx512f: bool,
    avx512bw: bool,
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
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
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

    /// Whether the CPU has AVX-512F and AVX-512BW, which the fast build's
    /// vector kernels and its AVX-512 cycle loop are compiled with.
    fn has_avx512(&self) -> bool {
        self.x86_64 && !self.miri && self.avx512f && self.avx512bw
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

/// Proof that the running CPU has AVX-512F and AVX-512BW: only
/// [`Avx512::detect`] makes one, after `is_x86_feature_detected!`
/// reported both. Holding it is what makes entering the fast build's
/// AVX-512 cycle loop and kernels sound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// The token, if this CPU has AVX-512F and AVX-512BW (evaluated once
    /// per process).
    pub(crate) fn detect() -> Option<Self> {
        static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        HAS.get_or_init(|| Host::current().has_avx512())
            .then_some(Self(()))
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use x86::Sse2Row;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::issue::IssueTable;
    use super::super::lanes::{run_lanes, LaneIssue, Picks};
    use super::super::rng::{LaneRngs, MAX_LANES};
    use super::{Avx512, FastBuild};
    use crate::{SimConfig, SimError, SimReport};
    use mbus_topology::BusNetwork;
    use mbus_workload::RequestMatrix;
    use std::arch::x86_64::{
        __m128i, __m256i, __m512i, __mmask8, _mm256_cmpeq_epi8, _mm256_movemask_epi8,
        _mm256_set1_epi8, _mm256_set_epi64x, _mm256_setzero_si256, _mm512_add_epi64,
        _mm512_and_si512, _mm512_cmpeq_epi8_mask, _mm512_cmplt_epu64_mask, _mm512_mask_add_epi64,
        _mm512_mask_blend_epi64, _mm512_mask_i64gather_epi64, _mm512_mask_or_epi64,
        _mm512_mask_storeu_epi64, _mm512_mask_test_epi64_mask, _mm512_maskz_loadu_epi64,
        _mm512_maskz_set1_epi64, _mm512_mul_epu32, _mm512_or_si512, _mm512_rol_epi64,
        _mm512_set1_epi64, _mm512_set1_epi8, _mm512_setr_epi64, _mm512_setzero_si512,
        _mm512_slli_epi64, _mm512_sllv_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
        _mm512_xor_si512, _mm_cmpeq_epi8, _mm_movemask_epi8, _mm_set1_epi8, _mm_set_epi64x,
        _mm_setzero_si128, _pdep_u64,
    };

    // SSE2 is part of the x86_64 baseline: every build of this crate for
    // the target enables it, which `Sse2Row` relies on.
    const _: () = assert!(cfg!(target_feature = "sse2"), "x86_64 without SSE2");

    /// The portable build's row on x86_64: the row's words in pairs, one
    /// 16-byte vector per pair, matched with `pcmpeqb` + `pmovmskb`. Only
    /// the pairs that hold the row's `words` words are compared.
    #[derive(Clone, Copy, Debug)]
    pub(in crate::batched) struct Sse2Row {
        pairs: [__m128i; 4],
        words: usize,
    }

    impl Sse2Row {
        /// Lane `l`'s row of the word-major `rows`.
        #[inline(always)]
        pub(in crate::batched) fn load(rows: &[u64], lanes: usize, l: usize) -> Self {
            // SAFETY: sse2, the feature `load_sse2` is compiled with, is
            // enabled for every x86_64 build (the assertion above).
            unsafe { load_sse2(rows, lanes, l) }
        }

        /// The row's word count, `⌈N / 8⌉`.
        #[inline(always)]
        pub(in crate::batched) fn words(&self) -> usize {
            self.words
        }

        /// Bit `p` of the result is set iff byte `p` of the row is
        /// `1 + memory`.
        #[inline(always)]
        pub(in crate::batched) fn contenders(&self, memory: u8) -> u64 {
            // SAFETY: sse2, the feature `contenders_sse2` is compiled
            // with, is enabled for every x86_64 build (the assertion above).
            unsafe { contenders_sse2(self, memory) }
        }
    }

    /// The row words of lane `l` of the word-major `rows` as a closure
    /// over the word index, zero at and past `words`.
    #[inline(always)]
    fn row_words(rows: &[u64], lanes: usize, l: usize, words: usize) -> impl Fn(usize) -> i64 + '_ {
        move |w| {
            if w < words {
                // lint:allow(lossy_cast, the word's bits reinterpreted signed for the intrinsics)
                rows[w * lanes + l] as i64
            } else {
                0
            }
        }
    }

    /// [`Sse2Row::load`]'s body: each pair built from two scalar loads.
    // SAFETY: only `Sse2Row::load` calls it, and sse2 is enabled for every
    // x86_64 build (the assertion above).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_sse2(rows: &[u64], lanes: usize, l: usize) -> Sse2Row {
        let words = (rows.len() / lanes).min(8);
        let word = row_words(rows, lanes, l, words);
        let mut pairs = [_mm_setzero_si128(); 4];
        for (q, pair) in pairs.iter_mut().enumerate().take(words.div_ceil(2)) {
            *pair = _mm_set_epi64x(word(2 * q + 1), word(2 * q));
        }
        Sse2Row { pairs, words }
    }

    /// [`Sse2Row::contenders`]'s body.
    // SAFETY: only `Sse2Row::contenders` calls it, and sse2 is enabled for
    // every x86_64 build (the assertion above).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn contenders_sse2(row: &Sse2Row, memory: u8) -> u64 {
        // lint:allow(lossy_cast, outcome bytes are 1 + memory ≤ 64)
        let needle = _mm_set1_epi8((memory + 1) as i8);
        let mut bits = 0;
        for (q, &pair) in row.pairs.iter().enumerate().take(row.words.div_ceil(2)) {
            // lint:allow(lossy_cast, the mask's 16 bits reinterpreted unsigned)
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(pair, needle)) as u16;
            bits |= u64::from(mask) << (16 * q);
        }
        bits
    }

    impl FastBuild {
        /// [`super::super::run_batch`] in the feature-enabled build, with
        /// the AVX-512 cycle loop where the CPU has it.
        pub(crate) fn run_batch(
            self,
            net: &BusNetwork,
            matrix: &RequestMatrix,
            r: f64,
            config: &SimConfig,
            seeds: &[u64],
        ) -> Result<Vec<SimReport>, SimError> {
            match Avx512::detect() {
                Some(avx512) => self.with_avx512(avx512).run(net, matrix, r, config, seeds),
                None => self.run(net, matrix, r, config, seeds),
            }
        }

        /// The fast picks plus the AVX-512 kernels.
        pub(super) fn with_avx512(self, avx512: Avx512) -> Avx512Build {
            Avx512Build { fast: self, avx512 }
        }

        /// [`run_lanes`] with the fast picks, in the BMI2/AVX2 build.
        pub(super) fn run(
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
        type Row = Avx2Row;

        #[inline(always)]
        fn pick_bit(self, bits: u64, chunk: u64) -> usize {
            let count = u64::from(bits.count_ones());
            self.select(bits, (chunk * count) >> 16)
        }

        #[inline(always)]
        fn load_row(self, rows: &[u64], lanes: usize, l: usize) -> Avx2Row {
            // SAFETY: `self` exists only after `is_x86_feature_detected!`
            // reported avx2 (see `Host::has_features`), the feature
            // `load_avx2` is compiled with.
            unsafe { load_avx2(self, rows, lanes, l) }
        }

        #[inline(always)]
        fn contenders(self, row: &Avx2Row, memory: u8) -> u64 {
            // SAFETY: `self` exists only after `is_x86_feature_detected!`
            // reported avx2 (see `Host::has_features`), the feature
            // `contenders_avx2` is compiled with.
            unsafe { contenders_avx2(self, row, memory) }
        }
    }

    /// The fast build's row: its words in two 32-byte halves, matched with
    /// `vpcmpeqb` + `vpmovmskb`. Rows of at most four words (N ≤ 32) leave
    /// the upper half zero, so it is compared only for longer rows.
    #[derive(Clone, Copy, Debug)]
    pub(in crate::batched) struct Avx2Row {
        halves: [__m256i; 2],
        wide: bool,
    }

    /// [`Picks::load_row`] with AVX2: each half built from four scalar
    /// loads.
    // SAFETY: only `FastBuild::load_row` calls it, holding a `FastBuild`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx2 (see `Host::has_features`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_avx2(_: FastBuild, rows: &[u64], lanes: usize, l: usize) -> Avx2Row {
        let words = (rows.len() / lanes).min(8);
        let word = row_words(rows, lanes, l, words);
        let low = _mm256_set_epi64x(word(3), word(2), word(1), word(0));
        let wide = words > 4;
        let high = if wide {
            _mm256_set_epi64x(word(7), word(6), word(5), word(4))
        } else {
            _mm256_setzero_si256()
        };
        Avx2Row {
            halves: [low, high],
            wide,
        }
    }

    /// [`Picks::contenders`] with AVX2: `vpcmpeqb` of each half against
    /// the broadcast outcome byte, packed into one bit per processor by
    /// `vpmovmskb`.
    // SAFETY: only `FastBuild::contenders` calls it, holding a `FastBuild`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx2 (see `Host::has_features`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn contenders_avx2(_: FastBuild, row: &Avx2Row, memory: u8) -> u64 {
        // lint:allow(lossy_cast, outcome bytes are 1 + memory ≤ 64)
        let needle = _mm256_set1_epi8((memory + 1) as i8);
        let [low, high] = row.halves;
        // lint:allow(lossy_cast, the mask's 32 bits reinterpreted unsigned)
        let low = u64::from(_mm256_movemask_epi8(_mm256_cmpeq_epi8(low, needle)) as u32);
        if !row.wide {
            return low;
        }
        // lint:allow(lossy_cast, the mask's 32 bits reinterpreted unsigned)
        let high = u64::from(_mm256_movemask_epi8(_mm256_cmpeq_epi8(high, needle)) as u32);
        low | high << 32
    }

    /// The fast build's picks with the AVX-512 kernels in the [`Picks`]
    /// hooks: the BMI2 picks, the register-resident RNG fill, the
    /// eight-lane outcome-row issue (without resubmission) and the
    /// `vpcmpeqb` row match.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Avx512Build {
        fast: FastBuild,
        avx512: Avx512,
    }

    impl Avx512Build {
        /// [`run_lanes`] with these picks, in the AVX-512 build.
        pub(super) fn run(
            self,
            net: &BusNetwork,
            matrix: &RequestMatrix,
            r: f64,
            config: &SimConfig,
            seeds: &[u64],
        ) -> Result<Vec<SimReport>, SimError> {
            // SAFETY: `self.fast` is a `FastBuild` token (bmi1, bmi2,
            // popcnt, lzcnt and avx2, see `Host::has_features`) and
            // `self.avx512` an `Avx512` token (avx512f and avx512bw, see
            // `Host::has_avx512`): together the features `run_batch_avx512`
            // is compiled with.
            unsafe { run_batch_avx512(self, net, matrix, r, config, seeds) }
        }
    }

    impl Picks for Avx512Build {
        type Row = __m512i;

        #[inline(always)]
        fn pick_bit(self, bits: u64, chunk: u64) -> usize {
            self.fast.pick_bit(bits, chunk)
        }

        #[inline(always)]
        fn load_row(self, rows: &[u64], lanes: usize, l: usize) -> __m512i {
            // SAFETY: `self.avx512` is an `Avx512` token, made only after
            // `is_x86_feature_detected!` reported avx512f (see
            // `Host::has_avx512`), the feature `load_avx512` is compiled
            // with.
            unsafe { load_avx512(self.avx512, rows, lanes, l) }
        }

        #[inline(always)]
        fn contenders(self, row: &__m512i, memory: u8) -> u64 {
            // SAFETY: `self.avx512` is an `Avx512` token, made only after
            // `is_x86_feature_detected!` reported avx512f and avx512bw (see
            // `Host::has_avx512`), the features `contenders_avx512` is
            // compiled with.
            unsafe { contenders_avx512(self.avx512, row, memory) }
        }

        #[inline(always)]
        fn fill_rows(self, rngs: &mut LaneRngs, draws: &mut [u64], arbs: &mut [u64]) {
            let lanes = rngs.lanes();
            // SAFETY: `self.avx512` is an `Avx512` token, made only after
            // `is_x86_feature_detected!` reported avx512f (see
            // `Host::has_avx512`), the feature `fill_rows_avx512` is
            // compiled with.
            unsafe { fill_rows_avx512(self.avx512, rngs.state_mut(), lanes, draws, arbs) }
        }

        #[inline(always)]
        fn issue_rows<const RESUB: bool>(
            self,
            issue: &mut LaneIssue,
            table: &IssueTable,
            draws: &[u64],
            rows: &mut [u64],
            pending_mask: &[u64],
        ) {
            if RESUB {
                // Resubmission keeps the portable issue loop.
                issue.issue_rows::<RESUB>(table, draws, rows, pending_mask);
            } else {
                // SAFETY: `self.avx512` is an `Avx512` token, made only
                // after `is_x86_feature_detected!` reported avx512f (see
                // `Host::has_avx512`), the feature `issue_rows_avx512` is
                // compiled with.
                unsafe {
                    issue_rows_avx512(self.avx512, issue, table, draws, rows, pending_mask.len())
                }
            }
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

    /// [`super::super::lanes::run_lanes`] compiled for the five features
    /// plus AVX-512F and AVX-512BW, so the AVX-512 row match inlines into
    /// the winner loop.
    ///
    /// # Safety
    ///
    /// The CPU must have bmi1, bmi2, popcnt, lzcnt, avx2, avx512f and
    /// avx512bw.
    // SAFETY: the only caller holds an `Avx512Build`, which holds a
    // `FastBuild` token (made only after `is_x86_feature_detected!`
    // reported the five features, see `Host::has_features`) and an `Avx512`
    // token (made only after it reported avx512f and avx512bw, see
    // `Host::has_avx512`).
    #[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt,avx2,avx512f,avx512bw")]
    unsafe fn run_batch_avx512(
        picks: Avx512Build,
        net: &BusNetwork,
        matrix: &RequestMatrix,
        r: f64,
        config: &SimConfig,
        seeds: &[u64],
    ) -> Result<Vec<SimReport>, SimError> {
        run_lanes(picks, net, matrix, r, config, seeds)
    }

    /// [`Picks::load_row`] with AVX-512F: one masked gather of the row's
    /// words, `lanes` apart, with zero past them.
    // SAFETY: only `Avx512Build::load_row` calls it, holding an `Avx512`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx512f (see `Host::has_avx512`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_avx512(_: Avx512, rows: &[u64], lanes: usize, l: usize) -> __m512i {
        // The gather below relies on it: word `w < words` of lane `l` is
        // `rows[w·lanes + l]`, inside `rows` for `l < lanes`.
        assert!(l < lanes, "lane out of range");
        let words = (rows.len() / lanes).min(8);
        if words == 1 {
            // A one-word row (N ≤ 8) needs no gather.
            // lint:allow(lossy_cast, the word's bits reinterpreted signed for the intrinsic)
            return _mm512_maskz_set1_epi64(1, rows[l] as i64);
        }
        // lint:allow(lossy_cast, 2^words − 1 ≤ 255)
        let k = ((1u16 << words) - 1) as u8;
        // lint:allow(lossy_cast, lanes ≤ rows.len() is far below 2^32)
        let stride = _mm512_set1_epi64(lanes as i64);
        let at = _mm512_mul_epu32(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), stride);
        // SAFETY: the `Avx512` token behind this call proves avx512f. The
        // mask `k` limits the gather to words `w < words`, whose word
        // `w·lanes + l < words·lanes ≤ rows.len()` lies in `rows`.
        unsafe {
            _mm512_mask_i64gather_epi64::<8>(
                _mm512_setzero_si512(),
                k,
                at,
                rows.as_ptr().wrapping_add(l).cast(),
            )
        }
    }

    /// [`Picks::contenders`] with AVX-512BW: one `vpcmpeqb` of the whole
    /// 64-byte row against the broadcast outcome byte, straight into a
    /// mask register whose bit `p` is processor `p`.
    // SAFETY: only `Avx512Build::contenders` calls it, holding an `Avx512`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx512f and avx512bw (see `Host::has_avx512`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn contenders_avx512(_: Avx512, row: &__m512i, memory: u8) -> u64 {
        // lint:allow(lossy_cast, outcome bytes are 1 + memory ≤ 64)
        _mm512_cmpeq_epi8_mask(*row, _mm512_set1_epi8((memory + 1) as i8))
    }

    /// The write mask of the live lanes among the eight from `base`
    /// (`base < lanes`).
    #[inline(always)]
    fn lane_mask(lanes: usize, base: usize) -> __mmask8 {
        u8::MAX >> (8 - (lanes - base).min(8))
    }

    /// [`Picks::fill_rows`] eight lanes per vector: each block of eight
    /// lanes loads its four state words once, steps them in registers
    /// through every row of `draws` and then of `arbs` (each `lanes`
    /// wide), and stores them back once.
    // SAFETY: only `Avx512Build::fill_rows` calls it, holding an `Avx512`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx512f (see `Host::has_avx512`).
    #[target_feature(enable = "avx512f")]
    fn fill_rows_avx512(
        _: Avx512,
        state: &mut [[u64; MAX_LANES]; 4],
        lanes: usize,
        draws: &mut [u64],
        arbs: &mut [u64],
    ) {
        // The state words hold `MAX_LANES` lanes; the masked loads and
        // stores below rely on it.
        assert!((1..=MAX_LANES).contains(&lanes), "lane count out of range");
        let [w0, w1, w2, w3] = state;
        for base in (0..lanes).step_by(8) {
            let k = lane_mask(lanes, base);
            let words = [
                &mut w0[base..],
                &mut w1[base..],
                &mut w2[base..],
                &mut w3[base..],
            ]
            .map(|word| word.as_mut_ptr().cast::<i64>());
            // SAFETY: the `Avx512` token behind this call proves avx512f.
            // Each pointer starts inside its state word at lane `base`,
            // and the mask `k` limits the loads to lanes `base..lanes`.
            let [mut s0, mut s1, mut s2, mut s3] = unsafe {
                [
                    _mm512_maskz_loadu_epi64(k, words[0]),
                    _mm512_maskz_loadu_epi64(k, words[1]),
                    _mm512_maskz_loadu_epi64(k, words[2]),
                    _mm512_maskz_loadu_epi64(k, words[3]),
                ]
            };
            for row in draws
                .chunks_exact_mut(lanes)
                .chain(arbs.chunks_exact_mut(lanes))
            {
                let out = _mm512_add_epi64(s0, s3);
                // SAFETY: the `Avx512` token behind this call proves
                // avx512f. `base < lanes = row.len()`, and the mask `k`
                // limits the store to the row's lanes `base..lanes`.
                unsafe { _mm512_mask_storeu_epi64(row[base..].as_mut_ptr().cast(), k, out) };
                let t = _mm512_slli_epi64::<17>(s1);
                s2 = _mm512_xor_si512(s2, s0);
                s3 = _mm512_xor_si512(s3, s1);
                s1 = _mm512_xor_si512(s1, s2);
                s0 = _mm512_xor_si512(s0, s3);
                s2 = _mm512_xor_si512(s2, t);
                s3 = _mm512_rol_epi64::<45>(s3);
            }
            for (word, value) in words.into_iter().zip([s0, s1, s2, s3]) {
                // SAFETY: the `Avx512` token behind this call proves
                // avx512f; the stores cover the lanes the loads read.
                unsafe { _mm512_mask_storeu_epi64(word, k, value) };
            }
        }
    }

    /// `draw as u128 * k` split at bit 64 for eight draws: the high words
    /// (the alias column, below `k`) and the low words (the fraction).
    /// Every `k` must be below 2^32 (alias rows hold at most 65 cells).
    ///
    /// With `draw = hi · 2^32 + lo` the product is `mid · 2^32 + (lo · k
    /// mod 2^32)`, where `mid = hi · k + (lo · k >> 32)` is below 2^64.
    // SAFETY: only `issue_rows_avx512` and the tests call it, all holding
    // an `Avx512` token, which is made only after
    // `is_x86_feature_detected!` reported avx512f.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn split(draw: __m512i, k: __m512i) -> (__m512i, __m512i) {
        let lo = _mm512_mul_epu32(draw, k);
        let hi = _mm512_mul_epu32(_mm512_srli_epi64::<32>(draw), k);
        let mid = _mm512_add_epi64(hi, _mm512_srli_epi64::<32>(lo));
        let low_half = _mm512_set1_epi64(0xffff_ffff);
        let fraction =
            _mm512_or_si512(_mm512_slli_epi64::<32>(mid), _mm512_and_si512(lo, low_half));
        (_mm512_srli_epi64::<32>(mid), fraction)
    }

    /// [`LaneIssue::issue_rows`] without resubmission, eight lanes per
    /// vector: processor-major like the portable loop, with the decode,
    /// the accept-or-alias select and the outcome-byte write done for a
    /// block of lanes at once. The byte lands in the lanes' row words with
    /// one contiguous masked store: the word's first processor overwrites
    /// it, every later one ORs into it.
    // SAFETY: only `Avx512Build::issue_rows` calls it, holding an `Avx512`
    // token, which is made only after `is_x86_feature_detected!` reported
    // avx512f (see `Host::has_avx512`).
    #[target_feature(enable = "avx512f")]
    fn issue_rows_avx512(
        _: Avx512,
        issue: &mut LaneIssue,
        table: &IssueTable,
        draws: &[u64],
        rows: &mut [u64],
        lanes: usize,
    ) {
        // The masked loads and stores below rely on these: `req` and
        // `issued` hold `MAX_LANES` lanes, and each processor's row words
        // are `lanes` long.
        assert!((1..=MAX_LANES).contains(&lanes), "lane count out of range");
        let n = draws.len() / lanes;
        assert_eq!(rows.len(), n.div_ceil(8) * lanes, "one row word per lane");
        issue.req[..lanes].fill(0);
        issue.active[..lanes].fill(0);
        let mut issued = [0u64; MAX_LANES];
        let (zero, one) = (_mm512_setzero_si512(), _mm512_set1_epi64(1));
        for (p, row_draws) in draws.chunks_exact(lanes).enumerate() {
            let cells = table.row(p).cells();
            let cell_words = cells.as_ptr().cast::<i64>();
            // lint:allow(lossy_cast, an alias row holds M + 1 ≤ 65 cells)
            let columns = _mm512_set1_epi64(cells.len() as i64);
            // lint:allow(lossy_cast, byte offsets within a word are < 64)
            let shift = _mm512_set1_epi64((p % 8 * 8) as i64);
            let first = p % 8 == 0;
            let row_words = &mut rows[(p / 8) * lanes..][..lanes];
            for base in (0..lanes).step_by(8) {
                let k = lane_mask(lanes, base);
                let draw_words = row_draws[base..].as_ptr().cast();
                // SAFETY: the `Avx512` token behind this call proves
                // avx512f. `base < lanes = row_draws.len()`, and the mask
                // `k` limits the load to lanes `base..lanes`.
                let draw = unsafe { _mm512_maskz_loadu_epi64(k, draw_words) };
                let (column, fraction) = split(draw, columns);
                // Cell `c` is two words: the threshold, then the alias
                // with its zero padding (`IssueCell` is `repr(C)`).
                let threshold_at = _mm512_slli_epi64::<1>(column);
                let alias_at = _mm512_add_epi64(threshold_at, one);
                // SAFETY: the `Avx512` token behind this call proves
                // avx512f. Every column is below `cells.len()` (the high
                // word of `draw · cells.len()`), so words `2c` and `2c + 1`
                // lie in the row, and no cell has uninitialized bytes.
                let (threshold, alias) = unsafe {
                    (
                        _mm512_mask_i64gather_epi64::<8>(zero, k, threshold_at, cell_words),
                        _mm512_mask_i64gather_epi64::<8>(zero, k, alias_at, cell_words),
                    )
                };
                let accept = _mm512_cmplt_epu64_mask(fraction, threshold);
                // 0 for idle, `1 + memory` for a request.
                let outcome = _mm512_mask_blend_epi64(accept, alias, column);
                let requests = _mm512_mask_test_epi64_mask(k, outcome, outcome);
                let memory = _mm512_sub_epi64(outcome, one);
                let byte = _mm512_sllv_epi64(outcome, shift);
                let req_words = issue.req[base..].as_mut_ptr().cast::<i64>();
                let issued_words = issued[base..].as_mut_ptr().cast::<i64>();
                let outcome_words = row_words[base..].as_mut_ptr().cast::<i64>();
                // SAFETY: the `Avx512` token behind this call proves
                // avx512f. `req` and `issued` hold `MAX_LANES` words,
                // `row_words` holds `lanes`, and the mask `k` limits every
                // load and store to lanes `base..lanes`.
                unsafe {
                    let req = _mm512_maskz_loadu_epi64(k, req_words);
                    let req =
                        _mm512_mask_or_epi64(req, requests, req, _mm512_sllv_epi64(one, memory));
                    _mm512_mask_storeu_epi64(req_words, k, req);
                    let count = _mm512_maskz_loadu_epi64(k, issued_words);
                    let count = _mm512_mask_add_epi64(count, requests, count, one);
                    _mm512_mask_storeu_epi64(issued_words, k, count);
                    let word = if first {
                        byte
                    } else {
                        _mm512_or_si512(_mm512_maskz_loadu_epi64(k, outcome_words), byte)
                    };
                    _mm512_mask_storeu_epi64(outcome_words, k, word);
                }
            }
        }
        for (slot, &count) in issue.issued[..lanes].iter_mut().zip(&issued) {
            // lint:allow(lossy_cast, at most N ≤ 64 requests per lane)
            *slot = count as u32;
        }
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
            avx512f: false,
            avx512bw: false,
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

    #[test]
    fn avx512_predicate_needs_the_feature_on_x86_64_outside_miri() {
        let avx512 = Host {
            avx512f: true,
            avx512bw: true,
            ..fast_host()
        };
        assert!(avx512.has_avx512());
        assert!(!fast_host().has_avx512(), "neither feature");
        let without = |change: fn(&mut Host)| {
            let mut host = avx512;
            change(&mut host);
            host.has_avx512()
        };
        assert!(!without(|h| h.avx512f = false), "no AVX-512F");
        assert!(!without(|h| h.avx512bw = false), "no AVX-512BW");
        assert!(!without(|h| h.miri = true), "under Miri");
        assert!(!without(|h| h.x86_64 = false), "non-x86_64 target");
        // The cached decision agrees with a fresh evaluation.
        assert_eq!(Avx512::detect().is_some(), Host::current().has_avx512());
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use crate::batched::dispatch::x86::split;
        use crate::batched::dispatch::{Avx512, FastBuild};
        use crate::batched::golden_scenarios::scenarios;
        use crate::batched::issue::IssueTable;
        use crate::batched::lanes::tests::{check_row_match, chunk_for_rank, naive_pick};
        use crate::batched::lanes::{run_lanes, LaneIssue, Picks, Swar};
        use crate::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
        use mbus_topology::{BusNetwork, ConnectionScheme};
        use mbus_workload::RequestMatrix;
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        use std::arch::x86_64::{_mm512_loadu_epi64, _mm512_set1_epi64, _mm512_storeu_epi64};

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

        /// The fast-build and AVX-512 tokens, or `None` after saying why
        /// the test skips.
        fn avx512_or_skip(test: &str) -> Option<(FastBuild, Avx512)> {
            let fast = fast_or_skip(test)?;
            let avx512 = Avx512::detect();
            if avx512.is_none() {
                eprintln!("{test}: skipped, this CPU lacks avx512f/avx512bw (or runs Miri)");
            }
            Some((fast, avx512?))
        }

        /// [`split`] on eight draws, all against the same `k`.
        // SAFETY: the caller holds an `Avx512` token, made only after
        // `is_x86_feature_detected!` reported avx512f.
        #[target_feature(enable = "avx512f")]
        fn split_eight(_: Avx512, draws: [u64; 8], k: u64) -> ([u64; 8], [u64; 8]) {
            let (mut column, mut fraction) = ([0u64; 8], [0u64; 8]);
            // SAFETY: the `Avx512` token proves avx512f, and every pointer
            // covers exactly eight `u64` words.
            unsafe {
                let draws = _mm512_loadu_epi64(draws.as_ptr().cast());
                let (high, low) = split(draws, _mm512_set1_epi64(k as i64));
                _mm512_storeu_epi64(column.as_mut_ptr().cast(), high);
                _mm512_storeu_epi64(fraction.as_mut_ptr().cast(), low);
            }
            (column, fraction)
        }

        #[test]
        fn avx512_split_equals_the_u128_product() {
            let Some((_, avx512)) = avx512_or_skip("avx512_split_equals_the_u128_product") else {
                return;
            };
            let mut draws = vec![0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, u64::MAX];
            let mut rng = StdRng::seed_from_u64(0x5B17);
            draws.extend((0..100_000).map(|_| rng.next_u64()));
            for k in 2..=65u64 {
                for chunk in draws.chunks(8) {
                    let mut eight = [0u64; 8];
                    eight[..chunk.len()].copy_from_slice(chunk);
                    // SAFETY: `avx512` is an `Avx512` token, made only
                    // after `is_x86_feature_detected!` reported avx512f.
                    let (column, fraction) = unsafe { split_eight(avx512, eight, k) };
                    for (i, &draw) in eight.iter().enumerate() {
                        let wide = u128::from(draw) * u128::from(k);
                        let want = ((wide >> 64) as u64, wide as u64);
                        assert_eq!((column[i], fraction[i]), want, "draw {draw:#x}, k {k}");
                    }
                }
            }
        }

        /// A skewed random `n × n` request matrix: a few hot memories per
        /// row, so the alias rows mix accepted columns and aliases.
        fn skewed_matrix(n: usize, seed: u64) -> RequestMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut weight = || {
                let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                x * x * x + 1e-3
            };
            let rows = (0..n)
                .map(|_| {
                    let row: Vec<f64> = (0..n).map(|_| weight()).collect();
                    let total: f64 = row.iter().sum();
                    row.iter().map(|w| w / total).collect()
                })
                .collect();
            RequestMatrix::from_rows(rows).unwrap()
        }

        /// All five schemes on an `n × n` network, with each one's bus
        /// count.
        fn networks(n: usize) -> Vec<BusNetwork> {
            let (b, groups) = match n {
                8 => (4, 2),
                9 => (3, 3),
                16 => (8, 2),
                33 => (6, 3),
                64 => (16, 4),
                _ => unreachable!("no shape for n = {n}"),
            };
            [
                ConnectionScheme::Full,
                ConnectionScheme::balanced_single(n, b).unwrap(),
                ConnectionScheme::PartialGroups { groups },
                ConnectionScheme::uniform_classes(n, b).unwrap(),
                ConnectionScheme::Crossbar,
            ]
            .into_iter()
            .map(|scheme| BusNetwork::new(n, n, b, scheme).unwrap())
            .collect()
        }

        #[test]
        #[cfg_attr(miri, ignore)]
        fn avx512_kernels_keep_every_report() {
            let Some((fast, avx512)) = avx512_or_skip("avx512_kernels_keep_every_report") else {
                return;
            };
            let wide = fast.with_avx512(avx512);
            let agree = |net: &BusNetwork, matrix: &RequestMatrix, r, config: &SimConfig, lanes| {
                let seeds: Vec<u64> = (0..lanes).map(|i| 9_000 + 31 * i).collect();
                let off = fast.run(net, matrix, r, config, &seeds).unwrap();
                let on = wide.run(net, matrix, r, config, &seeds).unwrap();
                assert_eq!(
                    off,
                    on,
                    "{:?} {}x{}x{}, r = {r}, {lanes} lanes: the kernels change the reports",
                    net.kind(),
                    net.processors(),
                    net.memories(),
                    net.buses()
                );
            };
            let config = SimConfig::new(28).with_warmup(4).with_batch_len(7);
            let resubmission = config.clone().with_resubmission(true);
            for n in [8, 9, 16, 33, 64] {
                let matrix = skewed_matrix(n, n as u64);
                for net in networks(n) {
                    for r in [0.0, 0.37, 1.0] {
                        for lanes in [1, 7, 8, 9, 31, 32, 33, 63, 64] {
                            agree(&net, &matrix, r, &config, lanes);
                        }
                    }
                    // Resubmission: the portable issue into persistent
                    // rows, then the AVX-512 fill and row match.
                    for lanes in [7, 64] {
                        agree(&net, &matrix, 0.8, &resubmission, lanes);
                    }
                }
            }
            // A bus failing and coming back (unreachable memories on the
            // single scheme), and resubmission, both with a tail block.
            let faults = FaultSchedule::from_events(vec![
                FaultEvent {
                    cycle: 12,
                    bus: 1,
                    kind: FaultEventKind::Fail,
                },
                FaultEvent {
                    cycle: 30,
                    bus: 1,
                    kind: FaultEventKind::Repair,
                },
            ])
            .unwrap();
            let matrix = skewed_matrix(33, 3);
            let [full, single, ..] = &networks(33)[..] else {
                unreachable!("five schemes")
            };
            agree(
                single,
                &matrix,
                0.8,
                &config.clone().with_faults(faults),
                37,
            );
            agree(full, &matrix, 0.8, &config.with_resubmission(true), 37);
        }

        /// One issue pass (no resubmission) with `picks` over rows that
        /// start as `stale` words: the lanes' request sets, fresh-issue
        /// counts and outcome rows.
        fn issue_with<P: Picks>(
            picks: P,
            table: &IssueTable,
            draws: &[u64],
            lanes: usize,
            stale: u64,
        ) -> ([u64; 64], [u32; 64], Vec<u64>) {
            let mut issue = LaneIssue::new();
            let n = draws.len() / lanes;
            let mut rows = vec![stale; n.div_ceil(8) * lanes];
            let pending = vec![0u64; lanes];
            picks.issue_rows::<false>(&mut issue, table, draws, &mut rows, &pending);
            (issue.req, issue.issued, rows)
        }

        #[test]
        fn avx512_issue_matches_portable_at_accept_boundaries() {
            let Some((fast, avx512)) =
                avx512_or_skip("avx512_issue_matches_portable_at_accept_boundaries")
            else {
                return;
            };
            let wide = fast.with_avx512(avx512);
            let mut rng = StdRng::seed_from_u64(0xB0D7);
            let mut boundary_draws = 0;
            for n in [1, 5, 8, 9, 15, 16, 33, 64] {
                let matrix = skewed_matrix(n, 100 + n as u64);
                for r in [0.37, 0.9] {
                    let table = IssueTable::new(&matrix, r).unwrap();
                    let k = table.columns() as u128;
                    // Per processor, every draw whose fraction equals a
                    // cell's threshold exactly (`draw · K = c · 2^64 +
                    // threshold`), each followed by the draw one below it.
                    let aimed: Vec<Vec<u64>> = (0..n)
                        .map(|p| {
                            let cells = table.row(p).cells().iter().enumerate();
                            cells
                                .map(|(c, cell)| (c as u128) << 64 | u128::from(cell.threshold()))
                                .filter(|target| target % k == 0)
                                .flat_map(|target| {
                                    let draw = (target / k) as u64;
                                    [draw, draw.wrapping_sub(1)]
                                })
                                .collect()
                        })
                        .collect();
                    boundary_draws += aimed.iter().map(Vec::len).sum::<usize>() / 2;
                    for lanes in [7, 8, 33, 64] {
                        // Each processor's aimed draws lead its row of lane
                        // draws; random draws fill the rest.
                        let mut draws = Vec::with_capacity(n * lanes);
                        for row in &aimed {
                            for l in 0..lanes {
                                draws.push(row.get(l).copied().unwrap_or_else(|| rng.next_u64()));
                            }
                        }
                        // Stale rows: the first processor of each word must
                        // overwrite it.
                        let stale = rng.next_u64();
                        assert_eq!(
                            issue_with(fast, &table, &draws, lanes, stale),
                            issue_with(wide, &table, &draws, lanes, stale),
                            "n = {n}, r = {r}, {lanes} lanes"
                        );
                    }
                }
            }
            assert!(
                boundary_draws >= 100,
                "only {boundary_draws} boundary draws"
            );
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
                checked += 1;
            }
        }

        #[test]
        fn avx2_row_match_equals_the_naive_contender_set() {
            let Some(fast) = fast_or_skip("avx2_row_match_equals_the_naive_contender_set") else {
                return;
            };
            check_row_match(|rows, lanes, l, memory| {
                fast.contenders(&fast.load_row(rows, lanes, l), memory)
            });
        }

        #[test]
        fn avx512_row_match_equals_the_naive_contender_set() {
            let Some((fast, avx512)) =
                avx512_or_skip("avx512_row_match_equals_the_naive_contender_set")
            else {
                return;
            };
            let wide = fast.with_avx512(avx512);
            check_row_match(|rows, lanes, l, memory| {
                wide.contenders(&wide.load_row(rows, lanes, l), memory)
            });
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
