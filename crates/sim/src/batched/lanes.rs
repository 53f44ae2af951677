//! The 64-lane structure-of-arrays replication engine.
//!
//! One call to [`run_batch`] advances up to [`MAX_LANES`] independent
//! replications (one seed per lane) through the *same* cycle loop. The
//! only per-lane state that persists across cycles lives in flat SoA
//! buffers — the outcome-byte `rows`, the retry `ages` and the
//! `pending_mask` of queued processors. Everything else computed within a
//! cycle (requested-memory set, grant list, served-unit sets) stays in
//! registers of a single lane-major pass.
//!
//! Request issue consumes exactly one full-width RNG step per processor
//! per cycle (`IssueTable`: rate gate + destination in a single `u64`
//! draw, drawn for every lane and discarded where a resubmission
//! overrides it — uniform consumption is what keeps lanes steppable in
//! lock-step). After the issue rows, each cycle draws
//! `⌈capacity / 4⌉` further full-width *arbitration words* per lane.
//! All of these are generated up front into packed matrices so the
//! xoshiro step vectorizes across lanes (`Picks::fill_rows`; on AVX-512F
//! the fast build keeps each block of eight lanes' state in registers
//! across all of the cycle's rows). Only K-class stage 2 draws a
//! lane-dependent number of words — a Fisher–Yates step per selected
//! member of each class, then one draw per contended bus. The portable
//! and BMI2 builds draw it in each lane's pass on a register copy of the
//! lane's generator (`LaneRngs::take_lane`, `Picks::kclass_lane`). On
//! AVX-512F/BW, for layouts whose classes are at most eight memories
//! wide, the fast build draws it for every lane after the issue rows and
//! ahead of the per-lane pass, eight lanes per vector under lane masks
//! (`Picks::kclass_grants`), and each lane's pass reads back its busy
//! buses and their granted memories.
//!
//! Contenders have one representation at every `N`: per-lane
//! *outcome-byte rows*. Byte `p` of a lane's row is 0 for an idle
//! processor `p` and `1 + j` for a request to memory `j`; the rows are
//! stored word-major, byte `p % 8` of `rows[(p / 8)·lanes + l]`, so one
//! processor's bytes across the lanes are contiguous. The issue pass
//! (`Picks::issue_rows`) writes them *processor-major*, ahead of the
//! per-lane pass: one processor's alias row and its contiguous row of
//! lane draws stay hot while every lane decodes, and its byte lands in
//! contiguous row words. With resubmission the rows persist, and a
//! queued processor keeps its byte. On AVX-512F, without resubmission,
//! the fast build issues eight lanes per vector at every `N`.
//!
//! Winner selection is *lazy and draw-free*: every stage-2 policy
//! depends only on the requested-memory set, never on which processor
//! won stage 1, so grants are first scanned into a fixed scratch list
//! with no winner attached. Grant `g` then selects its winner with the
//! `g`-th 16-bit chunk of the cycle's arbitration words
//! (`index = chunk · count >> 16`, a uniform pick up to a bias below
//! `count / 2^16`) — no per-grant RNG stepping, no data-dependent
//! branch. The contenders of a granted memory `j` are a byte compare of
//! the lane's row against `1 + j` (`Picks::contenders`), ranked by a
//! branchless bit-select (`pick_bit`). The portable pick calls no
//! `count_ones`: the workspace builds for baseline x86-64, which has no
//! `popcnt`, so every population count is a multiply-sum over SWAR byte
//! counts, and a one-word row's pick is two table lookups. The cycle
//! loop is therefore compiled more than once from one generic source
//! (`Picks`): this portable build, whose row compare is SSE2 on x86_64
//! (part of its baseline) and SWAR elsewhere, and copies with
//! BMI2/POPCNT/AVX2 and AVX-512 enabled whose picks are `popcnt`, `pdep`
//! and `tzcnt` and whose compares are `vpcmpeqb` (`batched::dispatch`
//! picks one per call from CPUID). All select the same winner, so the
//! reports do not depend on the build. The per-lane reference engine in
//! [`super::reference`] implements the identical spec naively — one
//! scalar `LaneRng` per seed, the production `grant_buses` arbiters —
//! and the differential suite holds the two bit-identical per lane; both
//! feed the same integer `LaneTallies` (the reference one lane per seed).
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
//! and memories, so per-unit tallies reach the `LaneTallies` as three
//! words per lane-cycle instead of three counter writes per grant. Each
//! lane's pass only stores its words and counts into its slots; one
//! `LaneTallies::end_cycle` after the pass closes the cycle in every lane,
//! its bit-sliced ripple running across lanes.

use super::collect::{LaneTallies, ServedUnits};
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
    /// The layout lives in [`AliveCaches::classes`], next to the
    /// fault-dependent lists stage 2 reads with it.
    KClasses,
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
            ConnectionScheme::KClasses { .. } => Self::KClasses,
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
    /// K classes: the layout and its fault-dependent lists.
    classes: Option<ClassPlan>,
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
            classes: match scheme {
                SchemeData::KClasses => Some(ClassPlan::new(net)),
                _ => None,
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
            SchemeData::KClasses => {
                if let Some(classes) = &mut self.classes {
                    classes.refresh(mask);
                }
            }
            _ => {}
        }
    }
}

/// What K-class stage 2 reads about the network: the class layout, and
/// under the current fault mask each class's slots and each bus's reach
/// list, which [`AliveCaches::refresh`] rebuilds. All of it is
/// lane-uniform.
///
/// Step `i` of class `c`'s Fisher–Yates draw hands its pick to the
/// class's `i`-th alive bus, top-down, so only the steps below
/// `min(alive, width)` can contribute. Those are the class's *slots*,
/// numbered class-major; a bus's contenders are its slots' picks in slot
/// order, which is the push order of the per-lane draw.
pub(super) struct ClassPlan {
    buses: usize,
    /// Each class's memories as a bit set.
    masks: Vec<u64>,
    /// Buses `0..top` serve class `c`.
    tops: Vec<usize>,
    /// Each class's first memory: classes are contiguous memory ranges.
    pub(super) firsts: Vec<u32>,
    /// Each class's memory count.
    pub(super) widths: Vec<u32>,
    /// Whether every class is at most eight memories wide, so a class's
    /// Fisher–Yates list fits one `u64` of bytes.
    pub(super) narrow: bool,
    /// Each class's slot count, `min(alive, width)`.
    pub(super) steps: Vec<usize>,
    /// The bus each slot hands its pick to: a class's slots are its
    /// first alive buses, top-down.
    pub(super) slot_bus: Vec<u8>,
    /// Every bus's slots, ascending, bus after bus: bus `bus`'s are
    /// `reach[reach_ends[bus - 1]..reach_ends[bus]]` (from 0 for bus 0).
    reach: Vec<u8>,
    reach_ends: Vec<usize>,
}

impl ClassPlan {
    /// The layout of a K-class network, with every bus alive.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a K-class network.
    pub(super) fn new(net: &BusNetwork) -> Self {
        // lint:allow(no_panic, only K-class networks build a plan; the caller matched the scheme)
        let k = net.class_count().expect("a K-class network");
        let ranges: Vec<(usize, usize)> = (0..k)
            .map(|c| {
                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                let mut members = net.memories_of_class(c).expect("validated K-class");
                let first = members.next().unwrap_or(0);
                (first, 1 + members.count())
            })
            .collect();
        let mut plan = Self {
            buses: net.buses(),
            masks: ranges
                .iter()
                .map(|&(first, width)| (u64::MAX >> (64 - width)) << first)
                .collect(),
            tops: (0..k).map(|c| net.kclass_bus_count(c)).collect(),
            // lint:allow(lossy_cast, memory indices and counts are ≤ M ≤ 64)
            firsts: ranges.iter().map(|&(first, _)| first as u32).collect(),
            // lint:allow(lossy_cast, memory indices and counts are ≤ M ≤ 64)
            widths: ranges.iter().map(|&(_, width)| width as u32).collect(),
            narrow: ranges.iter().all(|&(_, width)| width <= 8),
            steps: Vec::with_capacity(k),
            slot_bus: Vec::with_capacity(net.memories()),
            reach: Vec::with_capacity(net.memories()),
            reach_ends: Vec::with_capacity(net.buses()),
        };
        plan.refresh(&FaultMask::none(net.buses()));
        plan
    }

    /// Rebuilds the slots and reach lists for `mask`.
    pub(super) fn refresh(&mut self, mask: &FaultMask) {
        self.steps.clear();
        self.slot_bus.clear();
        for (&top, &width) in self.tops.iter().zip(&self.widths) {
            let alive = (0..top).rev().filter(|&bus| mask.is_alive(bus));
            let before = self.slot_bus.len();
            for bus in alive.take(width as usize) {
                // lint:allow(lossy_cast, bus indices are < B ≤ 64)
                self.slot_bus.push(bus as u8);
            }
            self.steps.push(self.slot_bus.len() - before);
        }
        self.reach.clear();
        self.reach_ends.clear();
        for bus in 0..self.buses {
            for (slot, &to) in self.slot_bus.iter().enumerate() {
                if usize::from(to) == bus {
                    // lint:allow(lossy_cast, there are at most M ≤ 64 slots)
                    self.reach.push(slot as u8);
                }
            }
            self.reach_ends.push(self.reach.len());
        }
    }

    /// The bus count `B`.
    pub(super) fn buses(&self) -> usize {
        self.buses
    }

    /// The slots that can hand bus `bus` a contender, in push order.
    pub(super) fn reach(&self, bus: usize) -> &[u8] {
        let start = if bus == 0 {
            0
        } else {
            self.reach_ends[bus - 1]
        };
        &self.reach[start..self.reach_ends[bus]]
    }
}

/// K-class stage 2's per-cycle state: the per-lane draw's scratch, and
/// what a build that draws every lane ahead of the per-lane pass
/// ([`Picks::kclass_grants`]) leaves for [`Picks::kclass_lane`] to read
/// back.
pub(super) struct ClassGrants {
    /// Bit `bus` of `busy[l]` is set iff bus `bus` grants in lane `l`.
    pub(super) busy: [u64; MAX_LANES],
    /// `win[bus·64 + l]`: the memory bus `bus` grants in lane `l` (stale
    /// where the bus is idle).
    pub(super) win: [u8; MAX_LANES * MAX_LANES],
    /// The per-lane draw's scratch: the Fisher–Yates list and per-bus
    /// contender lists (B ≤ M ≤ 64 buses, at most one contender per
    /// class).
    fy_list: [u8; MAX_LANES],
    contenders: [[u8; MAX_LANES]; MAX_LANES],
    contender_len: [u8; MAX_LANES],
}

impl ClassGrants {
    pub(super) fn new() -> Self {
        Self {
            busy: [0; MAX_LANES],
            win: [0; MAX_LANES * MAX_LANES],
            fy_list: [0; MAX_LANES],
            contenders: [[0; MAX_LANES]; MAX_LANES],
            contender_len: [0; MAX_LANES],
        }
    }

    /// Lane `l`'s stage 2, mirroring `grant_buses` draw for draw on a
    /// register copy of the lane's RNG: per class in class order, a
    /// Fisher–Yates draw of `min(alive, requested)` of its requested
    /// memories onto its alive buses, top-down; then per bus in
    /// ascending order, one draw among the bus's contenders. `req` is the
    /// lane's requested-memory set. Writes the granted memories to
    /// `grant_mem` in ascending bus order and returns their count and the
    /// busy-bus word. Unreachable memories need no filtering: they are
    /// exactly the memories of classes without an alive bus, which draw
    /// nothing.
    #[inline(always)]
    pub(super) fn draw_lane(
        &mut self,
        plan: &ClassPlan,
        rngs: &mut LaneRngs,
        l: usize,
        req: u64,
        grant_mem: &mut [u8; MAX_LANES],
    ) -> (usize, u64) {
        let mut rng = rngs.take_lane(l);
        // The buses handed at least one contender.
        let mut busy = 0u64;
        let mut slots = &plan.slot_bus[..];
        for (&class_mask, &steps) in plan.masks.iter().zip(&plan.steps) {
            // The class's first alive buses, top-down.
            let (class_buses, rest) = slots.split_at(steps);
            slots = rest;
            let creq = class_mask & req;
            if creq == 0 || steps == 0 {
                continue;
            }
            let mut len = 0usize;
            let mut bits = creq;
            while bits != 0 {
                // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                self.fy_list[len] = bits.trailing_zeros() as u8;
                len += 1;
                bits &= bits - 1;
            }
            let cap = steps.min(len);
            for i in 0..cap {
                let pick = i + reduce(rng.next_u64(), len - i);
                self.fy_list.swap(i, pick);
            }
            for (&bus, &memory) in class_buses.iter().zip(&self.fy_list[..cap]) {
                let bus = usize::from(bus);
                let len = &mut self.contender_len[bus];
                self.contenders[bus][usize::from(*len)] = memory;
                *len += 1;
                busy |= 1 << bus;
            }
        }
        // One draw per busy bus, in ascending order.
        let mut grants = 0;
        let mut bits = busy;
        while bits != 0 {
            let bus = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let len = &mut self.contender_len[bus];
            let pick = reduce(rng.next_u64(), usize::from(*len));
            grant_mem[grants] = self.contenders[bus][pick];
            grants += 1;
            *len = 0;
        }
        rngs.put_lane(l, &rng);
        (grants, busy)
    }

    /// Lane `l`'s stage 2 as a draw for every lane left it in `busy` and
    /// `win`, in [`ClassGrants::draw_lane`]'s form. The trip count is the
    /// bus count `buses`, and an idle bus writes a discarded slot.
    #[inline(always)]
    pub(super) fn read_lane(
        &self,
        l: usize,
        buses: usize,
        grant_mem: &mut [u8; MAX_LANES],
    ) -> (usize, u64) {
        let busy = self.busy[l];
        let mut grants = 0;
        for bus in 0..buses {
            grant_mem[grants] = self.win[bus * MAX_LANES + l];
            grants += usize::from(busy >> bus & 1 != 0);
        }
        (grants, busy)
    }
}

#[cfg(any(test, not(target_arch = "x86_64")))]
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH8: u64 = 0x8080_8080_8080_8080;
const ONES: u64 = 0x0101_0101_0101_0101;
/// Bits `0, 7, …, 49`: multiplying moves bit `8i + 7` to bit `56 + i`.
#[cfg(any(test, not(target_arch = "x86_64")))]
const MSB_GATHER: u64 = 0x0002_0408_1020_4081;

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

/// `BITS_IN_BYTE[v]`: the number of set bits of the byte `v`.
const BITS_IN_BYTE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut value = 1;
    while value < 256 {
        // lint:allow(lossy_cast, value & 1 is 0 or 1)
        table[value] = table[value >> 1] + (value & 1) as u8;
        value += 1;
    }
    table
};

/// [`pick_bit`] for a contender set inside the low byte, as a one-word
/// row's always is: the count and the select are one table lookup each.
#[inline]
fn pick_in_byte(bits: u64, chunk: u64) -> usize {
    debug_assert!(bits != 0 && bits <= 0xff, "pick_in_byte on {bits:#x}");
    let byte = (bits & 0xff) as usize;
    let rank = (chunk * u64::from(BITS_IN_BYTE[byte])) >> 16;
    usize::from(SELECT_IN_BYTE[rank as usize][byte])
}

/// Branch-free stage-1 pick on a contender set: the index of set bit
/// number `chunk · count >> 16` (0-based, ascending) of `bits`, where
/// `count` is the number of set bits and `chunk` the grant's 16-bit
/// arbitration chunk. `bits` must be non-zero.
///
/// Per-byte SWAR bit counts and their in-word prefix sums (the `· ONES`
/// multiply) give the count in the top byte and locate the byte holding
/// the winner by one rank comparison (each byte's top bit is set iff its
/// prefix exceeds the rank); a 2 KB table resolves the bit within that
/// byte. The rank is data-random, so
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

/// Per-byte equality of outcome words: bit `i` of the result is set iff
/// byte `i` of `word` equals byte `i` of `needle` (a broadcast outcome in
/// practice). Every byte of both is an outcome, at most 64.
///
/// Both bytes below 0x80 make their XOR below 0x80 too, so adding 0x7f
/// to it sets the byte's top bit iff the byte is non-zero, with no carry
/// into the next byte. The multiply then moves the top bit of byte `i`
/// (bit `8i + 7`) to bit `56 + i`; its other partial products land on
/// distinct bits below 56 or above 63, so nothing carries into the result.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn eq_bytes(word: u64, needle: u64) -> u64 {
    debug_assert_eq!((word | needle) & HIGH8, 0, "outcome bytes are below 0x80");
    let zero = !((word ^ needle) + LOW7) & HIGH8;
    zero.wrapping_mul(MSB_GATHER) >> 56
}

/// One lane's outcome-byte words for the SWAR row match: the lane's words
/// of the word-major rows (`rows[w·lanes + l]`), of which the first
/// `words` hold the row.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy, Debug)]
pub(super) struct WordRow {
    row: [u64; 8],
    words: usize,
}

#[cfg(any(test, not(target_arch = "x86_64")))]
impl WordRow {
    /// Lane `l`'s row of the word-major `rows`.
    #[inline]
    pub(super) fn load(rows: &[u64], lanes: usize, l: usize) -> Self {
        let mut row = [0; 8];
        for (word, &value) in row.iter_mut().zip(rows[l..].iter().step_by(lanes)) {
            *word = value;
        }
        Self {
            row,
            words: (rows.len() / lanes).min(8),
        }
    }

    /// The row's word count, `⌈N / 8⌉`.
    #[inline]
    pub(super) fn words(&self) -> usize {
        self.words
    }

    /// Bit `p` of the result is set iff byte `p` of the row is
    /// `1 + memory`.
    #[inline]
    pub(super) fn contenders(&self, memory: u8) -> u64 {
        let needle = (u64::from(memory) + 1).wrapping_mul(ONES);
        self.row[..self.words]
            .iter()
            .enumerate()
            .fold(0, |bits, (w, &word)| {
                bits | eq_bytes(word, needle) << (8 * w)
            })
    }
}

/// The portable build's row: the SSE2 row of `batched::dispatch` on
/// x86_64, whose baseline includes SSE2, and the SWAR row elsewhere.
#[cfg(target_arch = "x86_64")]
use super::dispatch::Sse2Row as PortableRow;
#[cfg(not(target_arch = "x86_64"))]
use WordRow as PortableRow;

/// The stage-1 picks and per-cycle passes one build of the cycle loop
/// uses. Every implementation selects the same winner — contender number
/// `chunk · count >> 16` in ascending order, `chunk` being the grant's
/// 16-bit arbitration chunk and `count` the number of contenders — and
/// the overridable passes leave the same state behind.
pub(super) trait Picks: Copy {
    /// One lane's outcome bytes, held the way this build's row match
    /// reads them.
    type Row;

    /// The winner among the set bits of `bits`, which must be non-zero.
    fn pick_bit(self, bits: u64, chunk: u64) -> usize;

    /// Lane `l`'s row of the word-major outcome rows: byte `p % 8` of
    /// `rows[(p / 8)·lanes + l]` is processor `p`'s outcome, for the
    /// `rows.len() / lanes` words of the row.
    fn load_row(self, rows: &[u64], lanes: usize, l: usize) -> Self::Row;

    /// The contenders for `memory` in `row`: bit `p` is set iff byte `p`
    /// is `1 + memory`.
    fn contenders(self, row: &Self::Row, memory: u8) -> u64;

    /// The winner among the contenders for `memory` in `row`, of which
    /// there must be at least one.
    #[inline(always)]
    fn pick(self, row: &Self::Row, memory: u8, chunk: u64) -> usize {
        self.pick_bit(self.contenders(row, memory), chunk)
    }

    /// One cycle's lane RNG fill: every issue row of `draws`, then every
    /// arbitration row of `arbs`, each row one [`LaneRngs::fill_into`]
    /// step of every lane. An override must leave each lane's stream in
    /// the same order.
    #[inline(always)]
    fn fill_rows(self, rngs: &mut LaneRngs, draws: &mut [u64], arbs: &mut [u64]) {
        let lanes = rngs.lanes();
        for chunk in draws.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }
        for chunk in arbs.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }
    }

    /// One cycle's issue into the outcome rows: [`LaneIssue::issue_rows`].
    /// An override must produce the same rows and per-lane results.
    #[inline(always)]
    fn issue_rows<const RESUB: bool>(
        self,
        issue: &mut LaneIssue,
        table: &IssueTable,
        draws: &[u64],
        rows: &mut [u64],
        pending_mask: &[u64],
    ) {
        issue.issue_rows::<RESUB>(table, draws, rows, pending_mask);
    }

    /// One cycle's K-class stage 2 for every lane at once, ahead of the
    /// per-lane pass, on the lanes' requested-memory sets `req`, for
    /// [`Picks::kclass_lane`] to read back. By default each lane draws in
    /// its own pass instead, and this does nothing.
    #[inline(always)]
    fn kclass_grants(
        self,
        _plan: &ClassPlan,
        _rngs: &mut LaneRngs,
        _req: &[u64],
        _grants: &mut ClassGrants,
    ) {
    }

    /// Lane `l`'s K-class stage 2 in its per-lane pass, in
    /// [`ClassGrants::draw_lane`]'s form: by default that per-lane draw.
    /// An override, with [`Picks::kclass_grants`], must grant the same
    /// memories on the same buses and leave each lane's stream advanced
    /// by the same draws.
    #[inline(always)]
    fn kclass_lane(
        self,
        plan: &ClassPlan,
        rngs: &mut LaneRngs,
        grants: &mut ClassGrants,
        l: usize,
        req: u64,
        grant_mem: &mut [u8; MAX_LANES],
    ) -> (usize, u64) {
        grants.draw_lane(plan, rngs, l, req, grant_mem)
    }
}

/// The portable picks: the build for every CPU, and the reference the
/// fast build's BMI2 picks are tested against. Ranks are SWAR, and a
/// one-word row's winner is two table lookups.
#[derive(Clone, Copy, Debug)]
pub(super) struct Swar;

impl Picks for Swar {
    type Row = PortableRow;

    #[inline(always)]
    fn pick_bit(self, bits: u64, chunk: u64) -> usize {
        pick_bit(bits, chunk)
    }

    #[inline(always)]
    fn load_row(self, rows: &[u64], lanes: usize, l: usize) -> PortableRow {
        PortableRow::load(rows, lanes, l)
    }

    #[inline(always)]
    fn contenders(self, row: &PortableRow, memory: u8) -> u64 {
        row.contenders(memory)
    }

    #[inline(always)]
    fn pick(self, row: &PortableRow, memory: u8, chunk: u64) -> usize {
        let bits = row.contenders(memory);
        if row.words() == 1 {
            pick_in_byte(bits, chunk)
        } else {
            pick_bit(bits, chunk)
        }
    }
}

/// Per-lane results of a cycle's issue pass.
pub(super) struct LaneIssue {
    /// Memories with at least one requester.
    pub(super) req: [u64; MAX_LANES],
    /// Requesting processors (with resubmission; nothing reads it
    /// otherwise).
    pub(super) active: [u64; MAX_LANES],
    /// Fresh (not resubmitted) requests.
    pub(super) issued: [u32; MAX_LANES],
}

impl LaneIssue {
    pub(super) fn new() -> Self {
        Self {
            req: [0; MAX_LANES],
            active: [0; MAX_LANES],
            issued: [0; MAX_LANES],
        }
    }

    /// One cycle's issue, processor-major: processor `p`'s alias row and
    /// its row of lane draws (`draws[p·lanes + l]`) serve every lane
    /// before moving on, writing outcome byte `p` of each lane's row —
    /// byte `p % 8` of `rows[(p / 8)·lanes + l]`. With `RESUB` the rows
    /// persist across cycles: a processor queued in `pending_mask` keeps
    /// its byte and its draw is discarded (uniform consumption keeps
    /// lanes in lock-step). Without, the first processor of each word
    /// overwrites the word, so the rows need no clearing.
    ///
    /// Every step is a mask select — the idle/request and accept/alias
    /// outcomes are data-random, and branching on them would mispredict
    /// half the time.
    pub(super) fn issue_rows<const RESUB: bool>(
        &mut self,
        table: &IssueTable,
        draws: &[u64],
        rows: &mut [u64],
        pending_mask: &[u64],
    ) {
        let lanes = pending_mask.len();
        self.req[..lanes].fill(0);
        self.active[..lanes].fill(0);
        self.issued[..lanes].fill(0);
        for (p, row_draws) in draws.chunks_exact(lanes).enumerate() {
            let alias = table.row(p);
            let bit = 1u64 << p;
            let shift = (p % 8) * 8;
            // The bits of a lane's word that survive this processor's write.
            let keep = if !RESUB && shift == 0 {
                0
            } else {
                !(0xff << shift)
            };
            let lanes_iter = row_draws
                .iter()
                .zip(&mut rows[(p / 8) * lanes..][..lanes])
                .zip(pending_mask)
                .zip(&mut self.req)
                .zip(&mut self.active)
                .zip(&mut self.issued);
            for (((((&draw, word), &pending), req), active), issued) in lanes_iter {
                let decoded = alias.decode_raw(draw) as u64;
                // A queued processor re-issues last cycle's outcome.
                let qmask = if RESUB {
                    u64::from(pending & bit != 0).wrapping_neg()
                } else {
                    0
                };
                let outcome = (*word >> shift & 0xff & qmask) | (decoded & !qmask);
                let amask = u64::from(outcome != 0).wrapping_neg();
                *word = (*word & keep) | outcome << shift;
                *req |= (1u64 << (outcome.wrapping_sub(1) & 63)) & amask;
                // lint:allow(lossy_cast, the masked value is 0 or 1)
                *issued += (amask & !qmask & 1) as u32;
                if RESUB {
                    *active |= bit & amask;
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
    let mut tallies = LaneTallies::new(net, config, lanes);
    // Shared per-bus in-service counts — the fault schedule is
    // lane-uniform, so one tally serves every lane's report.
    let mut bus_alive = vec![0u64; b];

    // Lane-major SoA state that persists across cycles.
    let mut pending_mask = [0u64; MAX_LANES];
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
    // Outcome-byte rows, word-major: byte `p % 8` of `rows[(p / 8)·lanes
    // + l]` is processor `p`'s outcome in lane `l` (0 idle, `1 + j` a
    // request to memory `j`). The issue pass writes them processor-major,
    // each lane's winner loop reads its row back, and with resubmission
    // they carry a queued processor's outcome into the next cycle.
    let mut rows = vec![0u64; n.div_ceil(8) * lanes];
    let mut lane_issue = LaneIssue::new();
    // Per-lane grant scratch: at most one grant per distinct requested
    // memory, and M ≤ 64.
    let mut grant_mem = [0u8; MAX_LANES];
    // K classes: the per-lane draw's scratch, and what a build that draws
    // every lane ahead of the per-lane pass leaves for each lane's pass.
    let mut class_grants = ClassGrants::new();

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
        picks.fill_rows(&mut rngs, &mut draw_buf, &mut arb_buf);

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

        // 2. Issue into the outcome rows, processor-major, for every lane.
        let issue = if resubmission {
            P::issue_rows::<true>
        } else {
            P::issue_rows::<false>
        };
        issue(
            picks,
            &mut lane_issue,
            &table,
            &draw_buf,
            &mut rows,
            &pending_mask[..lanes],
        );

        // 2b. K classes: a build may run stage 2 — per-class subset
        // selection, then cross-class contention per bus — for every lane
        // here. Each lane's draws come from its own stream, which nothing
        // else steps until the next fill, so they match the per-lane draw.
        if let Some(plan) = &caches.classes {
            picks.kclass_grants(plan, &mut rngs, &lane_issue.req[..lanes], &mut class_grants);
        }

        // 3–6. One pass per lane: drop unreachable targets, scan grants,
        // draw winners lazily, retire/resubmit, and store the lane's cycle
        // inputs for the tallies.
        for l in 0..lanes {
            let row = picks.load_row(&rows, lanes, l);
            let age = &mut ages[l * n..(l + 1) * n];
            let mut pending = pending_mask[l];
            // Memories with at least one requester, and requesting
            // processors.
            let mut req = lane_issue.req[l];
            let mut active = lane_issue.active[l];

            // Drop requests to unreachable memories (the unreachable set is
            // lane-uniform, the victims are not). No grant reaches those
            // memories, so the victims' outcome bytes never surface as
            // contenders, and with `pending` cleared the next cycle's
            // issue overwrites them.
            let mut unreachable = 0u32;
            // lint:allow(no_panic, `unreachable` here is a bitmask field compared with !=, not the macro)
            if caches.unreachable != 0 {
                let mut dropped = req & caches.unreachable;
                if dropped != 0 {
                    req &= !caches.unreachable;
                    while dropped != 0 {
                        let j = dropped.trailing_zeros() as usize;
                        dropped &= dropped - 1;
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                        let victims = picks.contenders(&row, j as u8);
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
                SchemeData::KClasses => {
                    // Grants in ascending bus order, the order their
                    // arbitration chunks follow.
                    if let Some(plan) = &caches.classes {
                        (grants, busy) = picks.kclass_lane(
                            plan,
                            &mut rngs,
                            &mut class_grants,
                            l,
                            req,
                            &mut grant_mem,
                        );
                    }
                }
            }

            // Lazy stage-1 winners, resolved per grant from the pre-drawn
            // arbitration chunks: match the row's bytes against the
            // granted memory, then pick contender `chunk · count >> 16`.
            // A single contender degenerates to index 0 — no branch, no
            // divergent RNG stepping. The winner loop only ORs up the
            // served processors: a processor contends for one memory, so
            // no grant's pick depends on another's.
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
            let served_bits = grant_mem[..grants]
                .iter()
                .enumerate()
                .fold(0u64, |served, (g, &memory)| {
                    served | 1u64 << picks.pick(&row, memory, chunk(g))
                });
            let served_mems = grant_mem[..grants]
                .iter()
                .fold(0u64, |served, &memory| served | 1 << memory);
            if measured && resubmission {
                // Only a queued winner waited. Without resubmission
                // nothing queues and every wait is 0, which the
                // tallies' zero state already says.
                let mut queued = served_bits & pending;
                while queued != 0 {
                    let p = queued.trailing_zeros() as usize;
                    queued &= queued - 1;
                    tallies.grant(l, age[p]);
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
                tallies.record(l, grants as u32, unreachable, units);
            }
            pending_mask[l] = pending;
        }
        // 7. Close the measured cycle in every lane at once; the fresh
        // issues are the issue pass's per-lane counts.
        if measured {
            tallies.end_cycle(&lane_issue.issued[..lanes]);
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

    Ok(tallies.finish(config, &bus_alive))
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
    fn pick_in_byte_matches_naive_for_every_byte_value_and_rank() {
        for value in 1..256u64 {
            let count = u64::from(value.count_ones());
            assert_eq!(u64::from(BITS_IN_BYTE[value as usize]), count);
            for rank in 0..count {
                let chunk = chunk_for_rank(rank, count);
                assert_eq!(pick_in_byte(value, chunk), naive_pick(value, chunk));
            }
            for chunk in [0, 0x7fff, 0xffff] {
                assert_eq!(pick_in_byte(value, chunk), naive_pick(value, chunk));
            }
        }
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

    /// Checks a row load and match against the naive contender set:
    /// random rows for every `N` in `1..=64`, their bytes drawn from
    /// `0..=64` (zero past `N`) or from a few memories so contenders
    /// repeat, each matched against every memory. The row is one lane of
    /// word-major rows whose other lanes hold random words.
    pub(in crate::batched) fn check_row_match(
        load_and_match: impl Fn(&[u64], usize, usize, u8) -> u64,
    ) {
        let mut rng = StdRng::seed_from_u64(0x20E5);
        // Miri interprets every step; a few rows per `N` still reach every
        // word count and lane geometry there.
        let rows_per_n = if cfg!(miri) { 2 } else { 40 };
        for n in 1..=64usize {
            let words = n.div_ceil(8);
            for _ in 0..rows_per_n {
                let span: u64 = if rng.random_range(0..2) == 0 { 4 } else { 65 };
                let bytes: Vec<u64> = (0..n).map(|_| rng.random_range(0..span)).collect();
                let lanes = rng.random_range(1..10usize);
                let l = rng.random_range(0..lanes);
                let mut rows: Vec<u64> = (0..words * lanes).map(|_| rng.next_u64()).collect();
                for w in 0..words {
                    rows[w * lanes + l] = 0;
                }
                for (p, &byte) in bytes.iter().enumerate() {
                    rows[p / 8 * lanes + l] |= byte << (p % 8 * 8);
                }
                for memory in 0..64u8 {
                    let want = bytes.iter().enumerate().fold(0u64, |acc, (p, &byte)| {
                        acc | u64::from(byte == u64::from(memory) + 1) << p
                    });
                    assert_eq!(
                        load_and_match(&rows, lanes, l, memory),
                        want,
                        "n = {n}, lane {l} of {lanes}, memory {memory}, rows {rows:x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn swar_row_match_equals_the_naive_contender_set() {
        check_row_match(|rows, lanes, l, memory| {
            let row = WordRow::load(rows, lanes, l);
            assert_eq!(row.words(), rows.len() / lanes);
            row.contenders(memory)
        });
    }

    #[test]
    fn portable_row_match_equals_the_naive_contender_set() {
        check_row_match(|rows, lanes, l, memory| {
            Swar.contenders(&Swar.load_row(rows, lanes, l), memory)
        });
    }
}
