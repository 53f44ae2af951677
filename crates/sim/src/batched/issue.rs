//! One-draw request issue: a composite alias table per processor.
//!
//! The scalar simulator spends up to three RNG draws per processor per
//! cycle (rate gate, alias column, alias coin). The batched engine folds
//! all three into a single `u64` draw against a Walker/Vose alias table
//! built over the *composite* outcome space of `M + 1` events: outcome
//! `0` is "idle" with weight `1 - r`, outcome `1 + j` is "request memory
//! `j`" with weight `r * p_j`. Acceptance thresholds are fixed-point
//! `u64` values, so the decode is pure integer arithmetic: split the draw
//! into a column (`high 64 bits of draw * K`) and a fraction (`low 64
//! bits`), then accept the column or take its alias.
//!
//! Each cell is 16 bytes with a fixed layout (`IssueCell`): the threshold
//! word, then the `u16` alias followed by zeroed padding. The AVX-512
//! issue kernel in `batched::dispatch` gathers both words of eight
//! lanes' cells at once, so the padding is an explicit zero field rather
//! than uninitialized bytes.
//!
//! This is the batched engine's own sampling spec — deliberately *not*
//! draw-compatible with `WorkloadSampler` (which the scalar engine keeps,
//! byte-identical, for the golden traces). The per-processor marginal
//! distribution is identical; only the RNG consumption pattern differs.
//! The batched differential suite pins it against the naive per-lane
//! reference in [`super::reference`], which shares this table.

use mbus_workload::{RequestMatrix, WorkloadError};

/// Fixed-point acceptance threshold: probability `p` scaled to `u64`.
///
/// `p >= 1` saturates to `u64::MAX` so a fraction comparison always
/// accepts; this loses one part in 2^64 for exactly-full columns, which
/// the differential suite shows is invisible (both engines share the
/// table, so both decode identically).
fn prob_to_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&p));
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * (u64::MAX as f64 + 1.0)) as u64
    }
}

/// One alias-table cell: accept `column` when the draw fraction is below
/// `threshold`, otherwise emit `alias`.
///
/// The layout is fixed (`repr(C)`, 16 bytes): `threshold` is the 64-bit
/// word at offset 0 and `alias` plus the always-zero `zero` padding is
/// the word at offset 8, so a 64-bit read of that word — the AVX-512
/// issue kernel in `batched::dispatch` gathers it — is exactly `alias`
/// and touches only initialized bytes. `alias` itself stays `u16`:
/// widening it to `u64` once made the N ≤ 8 issue, which then read cells
/// only through the scalar decode's branch-free select, about a third
/// slower (DESIGN §14). The portable and BMI2 builds still issue through
/// that select at every `N`, while the AVX-512 build's kernel gathers
/// the cells at every `N` too, so re-measure both after any change here.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(super) struct IssueCell {
    threshold: u64,
    alias: u16,
    zero: [u16; 3],
}

const _: () = assert!(std::mem::size_of::<IssueCell>() == 16);

impl IssueCell {
    fn new(threshold: u64, alias: u16) -> Self {
        Self {
            threshold,
            alias,
            zero: [0; 3],
        }
    }

    /// The acceptance threshold, for tests that aim draws at it.
    #[cfg(test)]
    pub(super) fn threshold(&self) -> u64 {
        self.threshold
    }
}

/// Per-processor composite alias tables over `M + 1` outcomes.
#[derive(Debug, Clone)]
pub(crate) struct IssueTable {
    /// `M + 1`: idle plus one outcome per memory.
    columns: usize,
    /// `N × columns` cells, processor-major.
    cells: Vec<IssueCell>,
}

impl IssueTable {
    /// Builds the composite table for every processor row of `matrix` at
    /// request rate `r`.
    pub(crate) fn new(matrix: &RequestMatrix, r: f64) -> Result<Self, WorkloadError> {
        if !r.is_finite() || !(0.0..=1.0).contains(&r) {
            return Err(WorkloadError::InvalidProbability {
                name: "request rate r",
                value: r,
            });
        }
        let columns = matrix.memories() + 1;
        assert!(
            columns <= usize::from(u16::MAX),
            "issue table alias indices are u16"
        );
        let mut cells = Vec::with_capacity(matrix.processors() * columns);
        for p in 0..matrix.processors() {
            let row = matrix.row(p);
            let total: f64 = row.iter().sum();
            // Composite weights: idle mass then per-memory request mass.
            // Rows are validated (finite, non-negative, positive sum) by
            // RequestMatrix, so normalizing here cannot divide by zero.
            let weight = |o: usize| -> f64 {
                if o == 0 {
                    1.0 - r
                } else {
                    r * row[o - 1] / total
                }
            };
            build_alias_row(columns, weight, &mut cells);
        }
        Ok(Self { columns, cells })
    }

    /// Cells per processor row: `M + 1`, for tests that aim draws at
    /// the cells.
    #[cfg(test)]
    pub(super) fn columns(&self) -> usize {
        self.columns
    }

    /// Decodes one full-width draw for processor `p`: `Some(memory)` or
    /// `None` for idle. Consumes exactly one `u64` of entropy.
    #[inline]
    pub(crate) fn decode(&self, p: usize, draw: u64) -> Option<usize> {
        self.decode_raw(p, draw).checked_sub(1)
    }

    /// Branch-free decode: `0` for idle, `1 + memory` otherwise. The
    /// accept-or-alias choice is a mask select rather than a branch — the
    /// comparison outcome is data-random, and a conditional jump here
    /// would mispredict half the time in the engine's hottest loop.
    #[inline]
    pub(crate) fn decode_raw(&self, p: usize, draw: u64) -> usize {
        self.row(p).decode_raw(draw)
    }

    /// Processor `p`'s alias row, for loops that decode many draws of one
    /// processor (one per lane) back to back.
    #[inline]
    pub(crate) fn row(&self, p: usize) -> IssueRow<'_> {
        IssueRow {
            cells: &self.cells[p * self.columns..(p + 1) * self.columns],
        }
    }
}

/// One processor's `M + 1` alias cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueRow<'a> {
    cells: &'a [IssueCell],
}

impl<'a> IssueRow<'a> {
    /// The row's `M + 1` cells, for the AVX-512 issue kernel's gathers.
    #[inline]
    pub(super) fn cells(&self) -> &'a [IssueCell] {
        self.cells
    }

    /// Same decode as [`IssueTable::decode_raw`] for this row's processor.
    #[inline]
    pub(crate) fn decode_raw(&self, draw: u64) -> usize {
        // Split the draw: high bits pick a column uniformly from 0..K,
        // low bits are a fixed-point fraction in [0, 1).
        let wide = u128::from(draw) * self.cells.len() as u128;
        let (column, fraction) = ((wide >> 64) as usize, wide as u64);
        let cell = self.cells[column];
        let accept = usize::from(fraction < cell.threshold).wrapping_neg();
        (column & accept) | (usize::from(cell.alias) & !accept)
    }
}

/// Walker/Vose construction over `columns` outcomes given by `weight`,
/// appending one cell per outcome to `cells`.
fn build_alias_row(columns: usize, weight: impl Fn(usize) -> f64, cells: &mut Vec<IssueCell>) {
    // Scale so the average column holds exactly 1.0 of probability mass.
    let total: f64 = (0..columns).map(&weight).sum();
    debug_assert!(total > 0.0);
    let scaled: Vec<f64> = (0..columns)
        .map(|o| weight(o) * columns as f64 / total)
        .collect();
    let mut small: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    for (o, &w) in scaled.iter().enumerate() {
        if w < 1.0 {
            small.push(o);
        } else {
            large.push(o);
        }
    }
    let mut prob = scaled;
    let base = cells.len();
    cells.extend((0..columns).map(|o| {
        // lint:allow(lossy_cast, alias indices were bounds-checked against u16::MAX at construction)
        IssueCell::new(u64::MAX, o as u16)
    }));
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        // Column s keeps prob[s] of its own mass; the remainder aliases to l.
        // lint:allow(lossy_cast, alias indices were bounds-checked against u16::MAX at construction)
        cells[base + s] = IssueCell::new(prob_to_threshold(prob[s]), l as u16);
        prob[l] -= 1.0 - prob[s];
        if prob[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers (numerical drift) saturate to always-accept.
    for o in small.into_iter().chain(large) {
        // lint:allow(lossy_cast, alias indices were bounds-checked against u16::MAX at construction)
        cells[base + o] = IssueCell::new(u64::MAX, o as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn uniform_matrix(n: usize, m: usize) -> RequestMatrix {
        RequestMatrix::from_rows(vec![vec![1.0 / m as f64; m]; n]).expect("valid dims")
    }

    #[test]
    fn marginals_match_configuration() {
        let matrix = RequestMatrix::from_rows(vec![vec![0.5, 0.25, 0.25], vec![0.1, 0.1, 0.8]])
            .expect("valid matrix");
        let r = 0.7;
        let table = IssueTable::new(&matrix, r).expect("valid rate");
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 200_000u64;
        let mut counts = [[0u64; 4]; 2];
        for _ in 0..draws {
            for (p, row) in counts.iter_mut().enumerate() {
                match table.decode(p, rng.next_u64()) {
                    None => row[0] += 1,
                    Some(j) => row[1 + j] += 1,
                }
            }
        }
        for (p, row) in counts.iter().enumerate() {
            let idle = row[0] as f64 / draws as f64;
            assert!((idle - (1.0 - r)).abs() < 0.01, "p{p} idle {idle}");
            for j in 0..3 {
                let got = row[1 + j] as f64 / draws as f64;
                let want = r * matrix.prob(p, j);
                assert!((got - want).abs() < 0.01, "p{p} mem{j}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn rate_zero_is_always_idle_and_rate_one_never_idle() {
        let matrix = uniform_matrix(2, 4);
        let idle = IssueTable::new(&matrix, 0.0).expect("valid");
        let busy = IssueTable::new(&matrix, 1.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let draw = rng.next_u64();
            assert_eq!(idle.decode(0, draw), None);
            assert!(busy.decode(1, draw).is_some());
        }
    }

    #[test]
    fn rejects_bad_rates() {
        let matrix = uniform_matrix(2, 2);
        assert!(IssueTable::new(&matrix, -0.1).is_err());
        assert!(IssueTable::new(&matrix, 1.1).is_err());
        assert!(IssueTable::new(&matrix, f64::NAN).is_err());
    }
}
