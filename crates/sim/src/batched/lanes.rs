//! The 64-lane structure-of-arrays replication engine.
//!
//! One call to [`run_batch`] advances up to [`MAX_LANES`] independent
//! replications (one seed per lane) through the *same* cycle loop. The
//! only per-lane state that persists across cycles lives in flat SoA
//! buffers — `dest_mem`/`ages` (per-processor outcome byte and retry
//! age) and the `pending_mask` of queued processors. Everything computed
//! within a cycle (requested-memory set, packed outcome words, grant
//! list, served-unit sets) stays in registers of a single lane-major
//! pass.
//!
//! Request issue consumes exactly one full-width RNG step per processor
//! per cycle (`IssueTable`: rate gate + destination in a single `u64`
//! draw, drawn for every lane and discarded where a resubmission
//! overrides it — uniform consumption is what keeps lanes steppable in
//! lock-step). After the issue rows, each cycle draws
//! `⌈capacity / 4⌉` further full-width *arbitration words* per lane.
//! All of these are generated up front into packed matrices so the
//! xoshiro step vectorizes across lanes; only the K-class Fisher–Yates
//! subset draws genuinely diverge, and they step a register copy of one
//! lane's generator (`LaneRngs::take_lane`) that is written back once
//! per lane-cycle.
//!
//! Winner selection is *lazy and draw-free*: every stage-2 policy
//! depends only on the requested-memory set, never on which processor
//! won stage 1, so grants are first scanned into a fixed scratch list
//! with no winner attached. Grant `g` then selects its winner with the
//! `g`-th 16-bit chunk of the cycle's arbitration words
//! (`index = chunk · count >> 16`, a uniform pick up to a bias below
//! `count / 2^16`) — no per-grant RNG stepping, no data-dependent
//! branch. The contender-set representation switches at `N = 8`: small
//! networks pack all outcome bytes into one register word and recover
//! contenders by SWAR byte-compare (`pick_in_word`); larger ones
//! scatter requester bits into a per-memory table during issue and rank
//! into it with a branchless bit-select (`pick_bit`). Neither portable
//! pick calls `count_ones`: the workspace builds for baseline x86-64,
//! which has no `popcnt`, so every population count is a multiply-sum
//! over SWAR byte counts. The cycle loop is therefore compiled twice
//! from one generic source (`Picks`): this portable build, and a copy
//! with BMI2/POPCNT (and AVX2, for the RNG fill) enabled whose picks are
//! `popcnt`, `pdep` and `tzcnt` (`batched::dispatch` picks one per call
//! from CPUID). Both select the same winner, so the reports do not
//! depend on the build. The table path also issues *processor-major*,
//! in its own pass ahead of the per-lane pass: one processor's alias row
//! and its contiguous row of lane draws stay hot while every lane
//! decodes, instead of each lane walking the whole `IssueTable`. The
//! per-lane reference engine in [`super::reference`] implements the identical
//! spec naively — one scalar `LaneRng` per seed, the
//! production `grant_buses` arbiters — and the differential suite holds
//! the two bit-identical per lane; both feed the same integer
//! `LaneCollector`.
//!
//! Round-robin arbiter pointers are lane-*uniform*: the full scheme's
//! memory/bus pointers and the partial scheme's group pointers advance on
//! fixed, fault-dependent (never request-dependent) schedules, so one
//! copy serves all lanes. The single scheme's per-bus pointers advance on
//! grant and are therefore per-lane state.
//!
//! The rotating grant scans do no division and take no per-memory
//! branch:
//!
//! * **Full** rotates the request word right by the memory pointer, so
//!   the cyclic visit order is plain ascending bit order.
//! * **Partial** shifts each group's request bits down, splits them at
//!   the group pointer and joins the two halves into one rotated word —
//!   the memories at or above the pointer first, then the wrapped-around
//!   ones — popped in a loop whose trip count is the group's alive-bus
//!   count (lane-uniform).
//! * **Single** keeps each lane's per-bus pointer as a *memory threshold*
//!   (`0..=M`) rather than an index into the bus's memory list. A bus
//!   grants the lowest requested memory of its bit set at or above the
//!   threshold, else the lowest requested one, and the threshold moves to
//!   that memory plus one. Memory lists are ascending (strided
//!   placements included), so this is the list-index round robin of
//!   `grant_buses` without the `%`.
//!
//! The scans also yield the cycle's busy-bus set — for the full and
//! partial schemes as lane-uniform prefix sets of the alive buses indexed
//! by the grant count — and the winner loop ORs up the served processors
//! and memories, so per-unit tallies reach the `LaneCollector` as three
//! words per cycle instead of three counter writes per grant.

use super::collect::{LaneCollector, ServedUnits};
use super::issue::IssueTable;
use super::rng::{reduce, LaneRngs, MAX_LANES};
use crate::{FaultEventKind, SimConfig, SimError, SimReport};
use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use rand::RngCore;

/// Immutable per-scheme topology data the grant scans need.
enum SchemeData {
    Crossbar,
    Full,
    Single {
        /// Each bus's memories as a bit set.
        bus_masks: Vec<u64>,
    },
    Partial {
        groups: usize,
        per_mem: usize,
        per_bus: usize,
        /// The low `per_mem` bits: a group's memories once shifted down.
        group_low: u64,
    },
    KClasses {
        class_masks: Vec<u64>,
        /// Buses `0..top` serve class `c`.
        class_tops: Vec<usize>,
    },
}

impl SchemeData {
    fn new(net: &BusNetwork) -> Self {
        let m = net.memories();
        match net.scheme() {
            ConnectionScheme::Crossbar => Self::Crossbar,
            ConnectionScheme::Full => Self::Full,
            ConnectionScheme::Single { .. } => Self::Single {
                bus_masks: (0..net.buses())
                    .map(|bus| net.memories_of_bus(bus).fold(0u64, |acc, j| acc | (1 << j)))
                    .collect(),
            },
            ConnectionScheme::PartialGroups { groups } => {
                let g = *groups;
                let per_mem = m / g;
                Self::Partial {
                    groups: g,
                    per_mem,
                    per_bus: net.buses() / g,
                    // 1 ≤ per_mem ≤ M ≤ 64, so the shift is at most 63.
                    group_low: u64::MAX >> (64 - per_mem),
                }
            }
            ConnectionScheme::KClasses { class_sizes } => {
                let k = class_sizes.len();
                Self::KClasses {
                    class_masks: (0..k)
                        .map(|c| {
                            net.memories_of_class(c)
                                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                                .expect("validated K-class")
                                .fold(0u64, |acc, j| acc | (1 << j))
                        })
                        .collect(),
                    class_tops: (0..k).map(|c| net.kclass_bus_count(c)).collect(),
                }
            }
            // lint:allow(no_panic, ConnectionScheme is non_exhaustive but BusNetwork::new rejects schemes outside the paper's five)
            other => unreachable!("unsupported scheme {:?}", other.kind()),
        }
    }
}

/// Fault-dependent caches, recomputed only when the mask changes. All of
/// this is lane-uniform: every lane lives under the same fault schedule.
struct AliveCaches {
    all_alive: bool,
    /// Alive buses, ascending.
    alive: Vec<usize>,
    /// Memories with no surviving bus (always 0 for the crossbar).
    unreachable: u64,
    /// Partial groups: entry `k` of group `q`'s list is the set of its
    /// first `k` alive buses (ascending), so a group with `a` alive buses
    /// has `a + 1` entries and `k` grants keep buses `list[k]` busy.
    group_busy: Vec<Vec<u64>>,
    /// K classes: each class's alive buses, top-down.
    class_alive_desc: Vec<Vec<usize>>,
}

impl AliveCaches {
    fn new(net: &BusNetwork, scheme: &SchemeData, mask: &FaultMask) -> Self {
        let mut caches = Self {
            all_alive: true,
            alive: Vec::with_capacity(net.buses()),
            unreachable: 0,
            group_busy: match scheme {
                SchemeData::Partial { groups, .. } => vec![Vec::new(); *groups],
                _ => Vec::new(),
            },
            class_alive_desc: match scheme {
                SchemeData::KClasses { class_tops, .. } => vec![Vec::new(); class_tops.len()],
                _ => Vec::new(),
            },
        };
        caches.refresh(net, scheme, mask);
        caches
    }

    fn refresh(&mut self, net: &BusNetwork, scheme: &SchemeData, mask: &FaultMask) {
        self.all_alive = mask.failed_count() == 0;
        self.alive.clear();
        self.alive.extend(mask.iter_alive());
        self.unreachable = 0;
        if !self.all_alive && net.kind() != SchemeKind::Crossbar {
            for j in 0..net.memories() {
                if !net.buses_of_memory(j).any(|bus| mask.is_alive(bus)) {
                    self.unreachable |= 1 << j;
                }
            }
        }
        match scheme {
            SchemeData::Partial {
                groups, per_bus, ..
            } => {
                for (q, list) in self.group_busy.iter_mut().enumerate() {
                    debug_assert!(q < *groups);
                    list.clear();
                    list.push(0);
                    let mut busy = 0u64;
                    for bus in (q * per_bus..(q + 1) * per_bus).filter(|&bus| mask.is_alive(bus)) {
                        busy |= 1 << bus;
                        list.push(busy);
                    }
                }
            }
            SchemeData::KClasses { class_tops, .. } => {
                for (c, list) in self.class_alive_desc.iter_mut().enumerate() {
                    list.clear();
                    list.extend((0..class_tops[c]).rev().filter(|&bus| mask.is_alive(bus)));
                }
            }
            _ => {}
        }
    }
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH8: u64 = 0x8080_8080_8080_8080;
const ONES: u64 = 0x0101_0101_0101_0101;
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Number of set flags in `flags`, a word whose only set bits are byte
/// top bits (`flags & !HIGH8 == 0`): the `· ONES` multiply sums the
/// eight 0/1 bytes into the top byte. This is `count_ones` for such
/// words, in two ops rather than the software popcount sequence.
#[inline]
fn byte_flag_count(flags: u64) -> u64 {
    debug_assert_eq!(flags & !HIGH8, 0);
    (flags >> 7).wrapping_mul(ONES) >> 56
}

/// `SELECT_IN_BYTE[r][v]`: position of the `r`-th (0-based) set bit of
/// the byte `v` (0 where `v` has at most `r` set bits).
const SELECT_IN_BYTE: [[u8; 256]; 8] = {
    let mut table = [[0u8; 256]; 8];
    let mut value = 0;
    while value < 256 {
        let (mut rank, mut bit) = (0, 0);
        while bit < 8 {
            if value >> bit & 1 == 1 {
                // lint:allow(lossy_cast, bit positions are < 8)
                table[rank][value] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        value += 1;
    }
    table
};

/// Branch-free stage-1 pick on the requester table: the index of set bit
/// number `chunk · count >> 16` (0-based, ascending) of `bits`, where
/// `count` is the number of set bits and `chunk` the grant's 16-bit
/// arbitration chunk. `bits` must be non-zero.
///
/// Per-byte SWAR bit counts and their in-word prefix sums (the `· ONES`
/// multiply) give the count in the top byte and locate the byte holding
/// the winner by one rank comparison, as in [`pick_in_word`]; a 2 KB
/// table resolves the bit within that byte. The rank is data-random, so
/// a clear-bits loop would mispredict on nearly every multi-contender
/// grant, and `count_ones` is a dozen-op software sequence without
/// `popcnt`.
#[inline]
fn pick_bit(bits: u64, chunk: u64) -> usize {
    let pairs = bits - ((bits >> 1) & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte `i` holds the set bits of bytes `0..=i` (≤ 64, no carries).
    let prefix = bytes.wrapping_mul(ONES);
    let count = prefix >> 56;
    let rank = (chunk * count) >> 16;
    debug_assert!(rank < count, "pick_bit on an empty contender set");
    // Byte `i` gains its top bit iff `prefix_i ≥ rank + 1` (at most
    // 64 + 127, so the add stays within each byte); the winner's byte
    // is the number of bytes without it.
    let ge = prefix.wrapping_add((0x7f - rank).wrapping_mul(ONES)) & HIGH8;
    let shift = (8 - byte_flag_count(ge)) * 8;
    // Set bits in the bytes below the winner's byte.
    let below = (prefix << 8) >> shift & 0xff;
    let (local, value) = ((rank - below) as usize, (bits >> shift & 0xff) as usize);
    shift as usize + usize::from(SELECT_IN_BYTE[local][value])
}

/// Per-byte equality: bit `i` of the result is set iff byte `i` of
/// `word` equals byte `i` of `needle` (a broadcast value in practice).
///
/// Exact SWAR zero-byte detection — the carry out of each 7-bit add
/// lands in that byte's own top bit, so unlike the classic
/// `(x - LO) & !x & HI` form there is no inter-byte borrow and the
/// *position* of every zero byte is reliable — followed by an MSB-gather
/// multiply that packs the eight per-byte flags into the low byte.
#[inline]
fn eq_bytes(word: u64, needle: u64) -> u64 {
    byte_matches(word, needle).wrapping_mul(GATHER) >> 56
}

/// Per-byte equality as byte flags: bit `8·i` of the result is set iff
/// byte `i` of `word` equals byte `i` of `needle`.
#[inline]
pub(super) fn byte_matches(word: u64, needle: u64) -> u64 {
    let x = word ^ needle;
    // Top bit of each byte set iff that byte of `x` is non-zero.
    let nonzero = ((x & LOW7) + LOW7) | x;
    (!nonzero >> 7) & ONES
}

/// Branch-free stage-1 pick for networks with at most eight processors
/// (outcome bytes fit one word): per-byte match flags, their in-word
/// prefix sums (a `· 0x0101…` multiply accumulates byte `i` into every
/// byte above it), and a rank comparison resolve a grant in a fixed
/// handful of ALU ops regardless of the contender count.
///
/// `chunk` is the grant's 16-bit arbitration chunk; the selected rank is
/// `chunk · count >> 16` and the returned index is the position of the
/// rank-th matching byte.
#[inline]
fn pick_in_word(word: u64, needle: u64, chunk: u64) -> usize {
    let prefix = byte_matches(word, needle).wrapping_mul(ONES);
    let count = prefix >> 56;
    let rank = (chunk * count) >> 16;
    // Byte `i` gains its top bit iff `prefix_i ≥ rank + 1`; the winner
    // is the first such byte, i.e. the number of bytes strictly below
    // it (prefix bytes are ≤ 8 and `rank ≤ 7`, so the add stays within
    // each byte).
    let ge = prefix.wrapping_add((0x7f - rank).wrapping_mul(ONES)) & HIGH8;
    (8 - byte_flag_count(ge)) as usize
}

/// The stage-1 winner picks one build of the cycle loop uses. Every
/// implementation selects the same winner: contender number
/// `chunk · count >> 16` in ascending order, `chunk` being the grant's
/// 16-bit arbitration chunk and `count` the number of contenders.
pub(super) trait Picks: Copy {
    /// The winner among the set bits of `bits`, which must be non-zero.
    fn pick_bit(self, bits: u64, chunk: u64) -> usize;

    /// The winner among the bytes of `word` equal to the broadcast byte
    /// `needle` (at least one must match).
    fn pick_in_word(self, word: u64, needle: u64, chunk: u64) -> usize;
}

/// The portable SWAR picks: the build for every CPU, and the reference
/// the fast build's BMI2 picks are tested against.
#[derive(Clone, Copy, Debug)]
pub(super) struct Swar;

impl Picks for Swar {
    #[inline(always)]
    fn pick_bit(self, bits: u64, chunk: u64) -> usize {
        pick_bit(bits, chunk)
    }

    #[inline(always)]
    fn pick_in_word(self, word: u64, needle: u64, chunk: u64) -> usize {
        pick_in_word(word, needle, chunk)
    }
}

/// Per-lane results of the requester-table path's issue pass; all zero
/// on the packed-word path, which issues inside its per-lane pass.
struct LaneIssue {
    /// Memories with at least one requester.
    req: [u64; MAX_LANES],
    /// Requesting processors (with resubmission; nothing reads it
    /// otherwise).
    active: [u64; MAX_LANES],
    /// Fresh (not resubmitted) requests.
    issued: [u32; MAX_LANES],
}

impl LaneIssue {
    fn new() -> Self {
        Self {
            req: [0; MAX_LANES],
            active: [0; MAX_LANES],
            issued: [0; MAX_LANES],
        }
    }

    /// One cycle's requester-table issue, processor-major: processor
    /// `p`'s alias row and its row of lane draws (`draws[p·lanes + l]`)
    /// serve every lane before moving on, scattering requester bits into
    /// each lane's `M + 1`-slot table of `requesters`. With `RESUB`, a
    /// processor queued in `pending_mask` re-issues its `dest_mem` byte
    /// and its draw is discarded (uniform consumption keeps lanes in
    /// lock-step); without, nothing queues and `dest_mem` goes untouched.
    ///
    /// Every step is a mask select or a masked write — the idle/request
    /// and accept/alias outcomes are data-random, and branching on them
    /// would mispredict half the time. An idle processor `p` writes zero
    /// to slot `p % (M + 1)`.
    fn issue_table<const RESUB: bool>(
        &mut self,
        table: &IssueTable,
        draws: &[u64],
        requesters: &mut [u64],
        dest_mem: &mut [u8],
        pending_mask: &[u64],
    ) {
        let lanes = pending_mask.len();
        let slots = requesters.len() / lanes;
        let n = dest_mem.len() / lanes;
        self.req[..lanes].fill(0);
        self.active[..lanes].fill(0);
        self.issued[..lanes].fill(0);
        for (p, row_draws) in draws.chunks_exact(lanes).enumerate() {
            let row = table.row(p);
            let bit = 1u64 << p;
            let idle_slot = p % slots;
            let lanes_iter = row_draws
                .iter()
                .zip(requesters.chunks_exact_mut(slots))
                .zip(dest_mem.chunks_exact_mut(n))
                .zip(pending_mask)
                .zip(&mut self.req)
                .zip(&mut self.active)
                .zip(&mut self.issued);
            for ((((((&draw, reqm), dest), &pending), req), active), issued) in lanes_iter {
                // A queued processor re-issues last cycle's outcome.
                let qmask = if RESUB {
                    u64::from(pending & bit != 0).wrapping_neg()
                } else {
                    0
                };
                let decoded = row.decode_raw(draw) as u64;
                let outcome = if RESUB {
                    (u64::from(dest[p]) & qmask) | (decoded & !qmask)
                } else {
                    decoded
                };
                let amask = u64::from(outcome != 0).wrapping_neg();
                let j = ((outcome.wrapping_sub(1) & amask) | (idle_slot as u64 & !amask)) as usize;
                reqm[j] |= bit & amask;
                *req |= (1u64 << (j & 63)) & amask;
                // lint:allow(lossy_cast, the masked value is 0 or 1)
                *issued += (amask & !qmask & 1) as u32;
                if RESUB {
                    *active |= bit & amask;
                    // lint:allow(lossy_cast, outcomes are ≤ M ≤ 64)
                    dest[p] = outcome as u8;
                }
            }
        }
    }
}

/// Runs one replication per seed (at most [`MAX_LANES`]) in SoA lock-step
/// and returns one [`SimReport`] per lane, in seed order.
///
/// The reports follow the batched engine's sampling spec (see the module
/// docs of [`super`]): per-lane results are bit-identical to
/// [`super::reference::run_reference`] for the same seeds, and
/// statistically indistinguishable from — but not bit-identical to — the
/// scalar [`crate::Simulator`].
///
/// # Errors
///
/// Same contract as [`crate::Simulator::build`] plus
/// [`SimError::BadFaultSchedule`] for an invalid `config.faults`.
///
/// # Panics
///
/// Panics if `seeds` is empty or exceeds [`MAX_LANES`], or if the network
/// has more than 64 processors or memories — callers gate on
/// [`super::eligible`].
pub fn run_batch(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
    #[cfg(target_arch = "x86_64")]
    if let Some(fast) = super::dispatch::FastBuild::detect() {
        return fast.run_batch(net, matrix, r, config, seeds);
    }
    run_lanes(Swar, net, matrix, r, config, seeds)
}

/// The cycle loop of [`run_batch`], generic over its stage-1 picks and
/// inlined into each entry point, so the fast entry compiles all of it
/// (the RNG fill and every `count_ones` and `trailing_zeros` included)
/// for its features.
#[inline(always)]
pub(super) fn run_lanes<P: Picks>(
    picks: P,
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
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
    config.faults.validate(net.buses())?;
    let (n, m, b) = (net.processors(), net.memories(), net.buses());
    assert!(
        n <= MAX_LANES && m <= MAX_LANES,
        "batched engine requires N ≤ {MAX_LANES} and M ≤ {MAX_LANES}"
    );
    let table = IssueTable::new(matrix, r)?;
    let mut rngs = LaneRngs::new(seeds);
    let lanes = rngs.lanes();
    let scheme = SchemeData::new(net);
    let resubmission = config.resubmission;

    let mut mask = FaultMask::none(b);
    let mut caches = AliveCaches::new(net, &scheme, &mask);
    let mut collectors: Vec<LaneCollector> =
        (0..lanes).map(|_| LaneCollector::new(net, config)).collect();
    // Shared per-bus in-service counts — the fault schedule is
    // lane-uniform, so one tally serves every lane's report.
    let mut bus_alive = vec![0u64; b];

    // Lane-major SoA state that persists across cycles.
    let mut pending_mask = [0u64; MAX_LANES];
    let mut dest_mem = vec![0u8; lanes * n];
    let mut ages = vec![0u64; lanes * n];
    // Single scheme: per-lane per-bus memory thresholds (0..=M ≤ 64).
    let mut thresholds = vec![0u8; lanes * b];
    // Lane-uniform rotating pointers (full / partial schemes).
    let mut rr_memory = 0usize;
    let mut rr_bus = 0usize;
    let mut rr_group = match &scheme {
        SchemeData::Partial { groups, .. } => vec![0usize; *groups],
        _ => Vec::new(),
    };
    // Full scheme: entry `k` is the set of the first `k` buses of the
    // alive list rotated by `rr_bus` — the buses `k` grants keep busy.
    let mut full_busy: Vec<u64> = Vec::with_capacity(b + 1);
    // Per-cycle draw matrix, processor-major: `draw_buf[p·lanes + l]`.
    let mut draw_buf = vec![0u64; n * lanes];
    // Per-cycle arbitration words, word-major: grant `g` of lane `l`
    // reads 16-bit chunk `g & 3` of `arb_buf[(g >> 2)·lanes + l]`. The
    // network's capacity bounds the grants of any cycle, so
    // `⌈capacity / 4⌉` words cover every grant.
    let warb = net.capacity().div_ceil(4);
    let mut arb_buf = vec![0u64; warb * lanes];
    // Contender-set representation: with N ≤ 8 a lane's outcome bytes
    // pack into one register word and the winner loop recovers contender
    // sets by SWAR byte-compare; larger networks scatter requester bits
    // into a per-memory table instead. An idle processor `p` still
    // stores, with an all-zero write mask, to slot `p % (M + 1)`, so the
    // issue loop never branches on "did this processor request at all".
    // Spreading those harmless writes over the slots (rather than one
    // shared sentinel) keeps them from forming a store-to-load chain on
    // a single address. Slot `M` is never read.
    let small = n <= 8;
    let mut requesters = if small {
        Vec::new()
    } else {
        vec![0u64; lanes * (m + 1)]
    };
    let mut lane_issue = LaneIssue::new();
    // Per-lane grant scratch: at most one grant per distinct requested
    // memory, and M ≤ 64.
    let mut grant_mem = [0u8; MAX_LANES];
    // K classes: per-lane Fisher–Yates list and per-bus contender lists
    // (B ≤ M ≤ 64 buses, at most one contender per class), reused.
    let mut fy_list = [0u8; MAX_LANES];
    let mut contenders = [[0u8; MAX_LANES]; MAX_LANES];
    let mut contender_len = [0u8; MAX_LANES];

    let total = config.warmup + config.cycles;
    let events = config.faults.events();
    let mut fault_cursor = 0usize;
    for cycle in 0..total {
        let mut faults_changed = false;
        while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
            let event = events[fault_cursor];
            match event.kind {
                FaultEventKind::Fail => mask.fail(event.bus).map_err(SimError::Topology)?,
                FaultEventKind::Repair => mask.repair(event.bus).map_err(SimError::Topology)?,
            }
            faults_changed = true;
            fault_cursor += 1;
        }
        if faults_changed {
            caches.refresh(net, &scheme, &mask);
        }
        let measured = cycle >= config.warmup;
        if measured {
            if caches.all_alive {
                for alive in &mut bus_alive {
                    *alive += 1;
                }
            } else {
                for (bus, alive) in bus_alive.iter_mut().enumerate() {
                    *alive += u64::from(mask.is_alive(bus));
                }
            }
        }

        // 1. Issue draws (one full-width RNG step per processor) followed
        // by the cycle's arbitration words, all lanes advanced together
        // so the xoshiro recurrence vectorizes.
        for chunk in draw_buf.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }
        for chunk in arb_buf.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }

        // Full scheme: one rotated alive list serves every lane this
        // cycle, kept only as its busy-set prefixes.
        if matches!(scheme, SchemeData::Full) {
            full_busy.clear();
            full_busy.push(0);
            if !caches.alive.is_empty() {
                let (head, tail) = caches.alive.split_at(rr_bus % caches.alive.len());
                let mut busy = 0u64;
                for &bus in tail.iter().chain(head) {
                    busy |= 1 << bus;
                    full_busy.push(busy);
                }
            }
        }

        // 2. Requester-table issue, processor-major, for every lane.
        if !small {
            let issue = if resubmission {
                LaneIssue::issue_table::<true>
            } else {
                LaneIssue::issue_table::<false>
            };
            issue(
                &mut lane_issue,
                &table,
                &draw_buf,
                &mut requesters,
                &mut dest_mem,
                &pending_mask[..lanes],
            );
        }

        // 3–6. One pass per lane: (small networks) decode issues, drop
        // unreachable targets, scan grants, draw winners lazily,
        // retire/resubmit, collect.
        for l in 0..lanes {
            let dest = &mut dest_mem[l * n..(l + 1) * n];
            let age = &mut ages[l * n..(l + 1) * n];
            let reqm = if small {
                &mut [] as &mut [u64]
            } else {
                &mut requesters[l * (m + 1)..(l + 1) * (m + 1)]
            };
            let collector = &mut collectors[l];
            let mut pending = pending_mask[l];
            // Memories with at least one requester, requesting processors
            // and fresh issues (all zero for small networks until their
            // issue below).
            let mut req = lane_issue.req[l];
            let mut active = lane_issue.active[l];
            let mut issued = lane_issue.issued[l];
            // Packed outcome bytes (small networks only): byte `p` is 0
            // for idle, `1 + j` for a request to memory `j`.
            let mut packed = 0u64;

            // Small-network issue, same masked scheme as the table path.
            match (small, resubmission) {
                (true, true) => {
                    for (p, slot) in dest.iter_mut().enumerate() {
                        let bit = 1u64 << p;
                        let decoded = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let qmask = usize::from(pending & bit != 0).wrapping_neg();
                        // A queued processor re-issues last cycle's outcome.
                        let outcome = (usize::from(*slot) & qmask) | (decoded & !qmask);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        req |= (1u64 << (outcome.wrapping_sub(1) & 63)) & amask;
                        active |= bit & amask;
                        // lint:allow(lossy_cast, outcomes are ≤ M ≤ 64)
                        *slot = outcome as u8;
                        packed |= (outcome as u64) << (p * 8);
                    }
                    // Fresh issues are the active requesters that were not
                    // carried over from the retry queue.
                    issued = (active & !pending).count_ones();
                }
                (true, false) => {
                    // Without resubmission nothing reads `dest` or the
                    // retry bookkeeping: decode + pack only, and `active`
                    // stays 0 (nothing downstream reads it).
                    for p in 0..n {
                        let outcome = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        req |= (1u64 << (outcome.wrapping_sub(1) & 63)) & amask;
                        // lint:allow(lossy_cast, amask & 1 is 0 or 1)
                        issued += (amask & 1) as u32;
                        packed |= (outcome as u64) << (p * 8);
                    }
                }
                (false, _) => {}
            }

            // Drop requests to unreachable memories (the unreachable set is
            // lane-uniform, the victims are not). Victims' outcome bytes
            // are zeroed so they never surface as contenders; their stale
            // `dest` bytes are harmless because `pending` is cleared.
            let mut unreachable = 0u32;
            // lint:allow(no_panic, `unreachable` here is a bitmask field compared with !=, not the macro)
            if caches.unreachable != 0 {
                let mut dropped = req & caches.unreachable;
                if dropped != 0 {
                    req &= !caches.unreachable;
                    while dropped != 0 {
                        let j = dropped.trailing_zeros() as usize;
                        dropped &= dropped - 1;
                        let victims = if small {
                            let needle = (j as u64 + 1).wrapping_mul(ONES);
                            let victims = eq_bytes(packed, needle);
                            let mut bits = victims;
                            while bits != 0 {
                                let p = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                packed &= !(0xffu64 << (p * 8));
                            }
                            victims
                        } else {
                            let victims = reqm[j];
                            reqm[j] = 0;
                            victims
                        };
                        unreachable += victims.count_ones();
                        active &= !victims;
                        pending &= !victims;
                    }
                }
            }

            // Grant scan (no winner drawn yet) into the fixed scratch list,
            // with the set of buses the grants keep busy.
            let mut grants = 0usize;
            let mut busy = 0u64;
            match &scheme {
                SchemeData::Crossbar => {
                    let mut bits = req;
                    while bits != 0 {
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                        grant_mem[grants] = bits.trailing_zeros() as u8;
                        grants += 1;
                        bits &= bits - 1;
                    }
                }
                SchemeData::Full => {
                    // Cyclic visit from the scan pointer: rotating the
                    // request word right by `rr_memory` puts the memories
                    // at or above the pointer (ascending) below the
                    // wrapped-around ones, so one scan replaces a two-part
                    // mask split. The trip count is the lane-uniform alive
                    // count (an exhausted word parks at zero, counts no
                    // grant and its slots are discarded), keeping the loop
                    // exit off the data-dependent request population.
                    // lint:allow(lossy_cast, rr_memory < M ≤ 64 fits u32)
                    let rot = rr_memory as u32;
                    let mut bits = req.rotate_right(rot);
                    for slot in &mut grant_mem[..full_busy.len() - 1] {
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                        *slot = (bits.trailing_zeros().wrapping_add(rot) & 63) as u8;
                        grants += usize::from(bits != 0);
                        bits &= bits.wrapping_sub(1);
                    }
                    busy = full_busy[grants];
                }
                SchemeData::Single { bus_masks } => {
                    // Each bus grants its lowest requested memory at or
                    // above the bus's threshold, wrapping to its lowest
                    // requested memory, and moves the threshold past the
                    // grant. Bus memory lists are ascending, so this grants
                    // what `grant_buses`' index pointer over the list does.
                    // Branch-free: a bus with no requested memory writes a
                    // discarded slot and keeps its threshold.
                    let lane_thresholds = &mut thresholds[l * b..(l + 1) * b];
                    for &bus in &caches.alive {
                        let candidates = bus_masks[bus] & req;
                        let threshold = u32::from(lane_thresholds[bus]);
                        let above = candidates & u64::MAX.checked_shl(threshold).unwrap_or(0);
                        let pick = if above != 0 { above } else { candidates };
                        let memory = pick.trailing_zeros();
                        let hit = candidates != 0;
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64; a missed bus writes a discarded slot)
                        grant_mem[grants] = memory as u8;
                        grants += usize::from(hit);
                        busy |= u64::from(hit) << bus;
                        lane_thresholds[bus] = if hit {
                            // lint:allow(lossy_cast, memory + 1 ≤ M ≤ 64)
                            (memory + 1) as u8
                        } else {
                            lane_thresholds[bus]
                        };
                    }
                }
                SchemeData::Partial {
                    per_mem, group_low, ..
                } => {
                    // Each group's request bits, rotated within the group
                    // so the memories at or above its pointer come first,
                    // ascending, then the wrapped-around ones — the cyclic
                    // scan order with no `%` and no per-memory branch. As
                    // in the full scheme, the trip count is the group's
                    // lane-uniform alive-bus count and an exhausted word
                    // writes discarded slots.
                    // lint:allow(lossy_cast, per_mem ≤ M ≤ 64 fits u32)
                    let width = *per_mem as u32;
                    for (q, (group_busy, &rr)) in
                        caches.group_busy.iter().zip(&rr_group).enumerate()
                    {
                        let cap = group_busy.len() - 1;
                        // lint:allow(lossy_cast, q · per_mem < M ≤ 64 and rr < per_mem)
                        let (base, rr) = ((q * per_mem) as u32, rr as u32);
                        let bits = (req >> base) & group_low;
                        // rr < per_mem ≤ 64, so the shift is at most 63;
                        // the wrapped part is empty when rr = 0, so the
                        // wrapping shift by per_mem (64 included) is moot.
                        let high = u64::MAX << rr;
                        let mut rotated = (bits >> rr) | (bits & !high).wrapping_shl(width - rr);
                        let mut granted = 0usize;
                        for slot in &mut grant_mem[grants..grants + cap] {
                            let pos = rotated.trailing_zeros() + rr;
                            let pos = pos - if pos >= width { width } else { 0 };
                            // lint:allow(lossy_cast, memory indices are < M ≤ 64; an exhausted word writes a discarded slot)
                            *slot = (base + pos) as u8;
                            granted += usize::from(rotated != 0);
                            rotated &= rotated.wrapping_sub(1);
                        }
                        grants += granted;
                        busy |= group_busy[granted];
                    }
                }
                SchemeData::KClasses { class_masks, .. } => {
                    // The only per-lane RNG consumer in stage 2: subset
                    // selection and cross-class contention are genuinely
                    // divergent, so this path mirrors `grant_buses` draw
                    // for draw on a register copy of this lane's RNG.
                    let mut rng = rngs.take_lane(l);
                    for (c, &class_mask) in class_masks.iter().enumerate() {
                        let creq = class_mask & req;
                        let alive_desc = &caches.class_alive_desc[c];
                        if creq == 0 || alive_desc.is_empty() {
                            continue;
                        }
                        let mut len = 0usize;
                        let mut bits = creq;
                        while bits != 0 {
                            // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                            fy_list[len] = bits.trailing_zeros() as u8;
                            len += 1;
                            bits &= bits - 1;
                        }
                        let cap = alive_desc.len().min(len);
                        for i in 0..cap {
                            let pick = i + reduce(rng.next_u64(), len - i);
                            fy_list.swap(i, pick);
                        }
                        for (&bus, &memory) in alive_desc.iter().zip(&fy_list[..cap]) {
                            let len = &mut contender_len[bus];
                            contenders[bus][usize::from(*len)] = memory;
                            *len += 1;
                        }
                    }
                    for (bus, len) in contender_len.iter_mut().enumerate().take(b) {
                        if *len == 0 {
                            continue;
                        }
                        let pick = reduce(rng.next_u64(), usize::from(*len));
                        grant_mem[grants] = contenders[bus][pick];
                        grants += 1;
                        busy |= 1 << bus;
                        *len = 0;
                    }
                    rngs.put_lane(l, &rng);
                }
            }

            // Lazy stage-1 winners, resolved per grant from the pre-drawn
            // arbitration chunks: recover the contender set, then pick
            // contender `chunk · count >> 16`. A single contender
            // degenerates to index 0 — no branch, no divergent RNG
            // stepping. The winner loop only ORs up the served
            // processors, one loop per contender representation: a
            // processor contends for one memory, so no grant's pick
            // depends on another's.
            // The first arbitration word covers four grants; hoisting it
            // keeps the common small-capacity case to one load per lane.
            let arb0 = arb_buf[l];
            let chunk = |g: usize| {
                let aword = if g < 4 {
                    arb0
                } else {
                    arb_buf[(g >> 2) * lanes + l]
                };
                aword >> ((g & 3) * 16) & 0xffff
            };
            let granted = grant_mem[..grants].iter().enumerate();
            let served_bits = if small {
                granted.fold(0u64, |served, (g, &memory)| {
                    let needle = (u64::from(memory) + 1).wrapping_mul(ONES);
                    served | 1u64 << picks.pick_in_word(packed, needle, chunk(g))
                })
            } else {
                granted.fold(0u64, |served, (g, &memory)| {
                    served | 1u64 << picks.pick_bit(reqm[usize::from(memory)], chunk(g))
                })
            };
            let served_mems = grant_mem[..grants]
                .iter()
                .fold(0u64, |served, &memory| served | 1 << memory);
            if measured && resubmission {
                // Only a queued winner waited. Without resubmission
                // nothing queues and every wait is 0, which the
                // collector's zero state already says.
                let mut queued = served_bits & pending;
                while queued != 0 {
                    let p = queued.trailing_zeros() as usize;
                    queued &= queued - 1;
                    collector.grant(age[p]);
                }
            }
            pending &= !served_bits;

            if resubmission {
                let retry = active & !served_bits;
                let mut bits = retry;
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // Branch-free age bump: fresh entrants restart at 1.
                    age[p] = age[p] * (pending >> p & 1) + 1;
                }
                pending = retry;
            } else {
                pending = 0;
            }

            if measured {
                let units = ServedUnits {
                    processors: served_bits,
                    memories: served_mems,
                    buses: busy,
                };
                // lint:allow(lossy_cast, at most 64 grants per cycle)
                collector.end_cycle(grants as u32, issued, unreachable, units);
            }
            if !small {
                // Selective clear: only the requested slots were dirtied
                // (idle processors' writes OR in zero).
                let mut bits = req;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    reqm[j] = 0;
                }
            }
            pending_mask[l] = pending;
        }

        // Lane-uniform pointer advance, matching the scalar arbiters'
        // schedule: the full scheme rotates whenever any bus is alive, the
        // partial scheme rotates each group with an alive bus.
        match &scheme {
            SchemeData::Full if !caches.alive.is_empty() => {
                rr_memory = (rr_memory + 1) % m;
                rr_bus = (rr_bus + 1) % b;
            }
            SchemeData::Partial { per_mem, .. } => {
                for (rr, group_busy) in rr_group.iter_mut().zip(&caches.group_busy) {
                    if group_busy.len() > 1 {
                        *rr = (*rr + 1) % per_mem;
                    }
                }
            }
            _ => {}
        }
    }

    Ok(collectors
        .into_iter()
        .map(|collector| collector.finish(config, &bus_alive))
        .collect())
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Naive spec of both picks: rank `chunk · count >> 16` among the
    /// ascending set bits, found by counting and scanning.
    pub(in crate::batched) fn naive_pick(bits: u64, chunk: u64) -> usize {
        let count = u64::from(bits.count_ones());
        let rank = (chunk * count) >> 16;
        (0..64)
            .filter(|&i| bits >> i & 1 == 1)
            .nth(usize::try_from(rank).unwrap())
            .unwrap()
    }

    /// Smallest chunk that selects `rank` among `count` contenders.
    pub(in crate::batched) fn chunk_for_rank(rank: u64, count: u64) -> u64 {
        let chunk = (rank << 16).div_ceil(count);
        assert!(chunk <= 0xffff && (chunk * count) >> 16 == rank);
        chunk
    }

    #[test]
    fn pick_bit_matches_naive_for_every_byte_value_and_rank() {
        for value in 1..256u64 {
            let count = u64::from(value.count_ones());
            for rank in 0..count {
                let chunk = chunk_for_rank(rank, count);
                for byte in 0..8 {
                    let bits = value << (byte * 8);
                    assert_eq!(
                        pick_bit(bits, chunk),
                        naive_pick(bits, chunk),
                        "value {value:#04x} in byte {byte}, rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn pick_bit_matches_naive_on_random_words() {
        let mut rng = StdRng::seed_from_u64(0x91C4);
        for _ in 0..10_000 {
            // Mix dense and sparse words: AND-ing draws thins the bits.
            let bits = match rng.random_range(0..3) {
                0 => rng.next_u64(),
                1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                _ => rng.next_u64() | rng.next_u64(),
            };
            if bits == 0 {
                continue;
            }
            let chunk = rng.next_u64() & 0xffff;
            assert_eq!(
                pick_bit(bits, chunk),
                naive_pick(bits, chunk),
                "{bits:#x} chunk {chunk:#x}"
            );
        }
    }

    #[test]
    fn pick_bit_handles_edge_words_and_extreme_chunks() {
        let mut words: Vec<u64> = (0..64).map(|i| 1u64 << i).collect();
        words.extend([
            u64::MAX,
            0xff << 56,
            0x8000_0000_0000_0001,
            0x0101_0101_0101_0101,
        ]);
        for bits in words {
            for chunk in [0, 1, 0x7fff, 0x8000, 0xfffe, 0xffff] {
                assert_eq!(
                    pick_bit(bits, chunk),
                    naive_pick(bits, chunk),
                    "{bits:#x} chunk {chunk:#x}"
                );
            }
        }
        // The extremes pick the lowest and the highest contender.
        assert_eq!(pick_bit(u64::MAX, 0), 0);
        assert_eq!(pick_bit(u64::MAX, 0xffff), 63);
        assert_eq!(pick_bit(0xff << 56, 0xffff), 63);
        assert_eq!(pick_bit(0xff << 56, 0), 56);
    }

    #[test]
    fn byte_flag_count_is_count_ones_of_byte_flags() {
        let mut rng = StdRng::seed_from_u64(0xF1A6);
        for _ in 0..10_000 {
            let flags = rng.next_u64() & HIGH8;
            assert_eq!(
                byte_flag_count(flags),
                u64::from(flags.count_ones()),
                "{flags:#x}"
            );
        }
        assert_eq!(byte_flag_count(0), 0);
        assert_eq!(byte_flag_count(HIGH8), 8);
    }

    #[test]
    fn pick_in_word_matches_naive_on_random_outcome_words() {
        let mut rng = StdRng::seed_from_u64(0x5AA4);
        for _ in 0..10_000 {
            // Eight outcome bytes over a few memories, so contenders repeat.
            let outcomes: Vec<u64> = (0..8).map(|_| rng.random_range(0..4u64)).collect();
            let packed = outcomes
                .iter()
                .enumerate()
                .fold(0u64, |acc, (p, &o)| acc | o << (p * 8));
            let target = rng.random_range(1..4u64);
            let contenders = outcomes
                .iter()
                .enumerate()
                .fold(0u64, |acc, (p, &o)| acc | u64::from(o == target) << p);
            if contenders == 0 {
                continue;
            }
            let chunk = rng.next_u64() & 0xffff;
            assert_eq!(
                pick_in_word(packed, target.wrapping_mul(ONES), chunk),
                naive_pick(contenders, chunk),
                "{packed:#x} memory {target} chunk {chunk:#x}"
            );
        }
    }
}
