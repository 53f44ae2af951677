//! The paper's printed table values, transcribed cell by cell.
//!
//! These are the ground truth the regeneration code is tested against.
//! Cells the source scan garbled beyond confident reading are `None`
//! (notably parts of Table II's uniform N = 16 column, two rows of
//! Table III, and most of Table IV's r = 0.5 block for N ∈ {8, 16}); they
//! are still *regenerated* by [`crate::tables`], just not asserted against
//! the paper. Every `Some` cell is asserted within ±0.011 — the paper's
//! two-decimal print precision plus its own occasional last-digit rounding
//! slack.

use serde::{Deserialize, Serialize};

/// One table row: bandwidth at `buses` buses for both request models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReferenceCell {
    /// Number of buses `B`.
    pub(crate) buses: usize,
    /// The paper's hierarchical-model value, if legible.
    pub(crate) hier: Option<f64>,
    /// The paper's uniform-model value, if legible.
    pub(crate) unif: Option<f64>,
}

/// One `(N, r)` block of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReferenceBlock {
    /// Network size `N` (processors = memories).
    pub(crate) n: usize,
    /// Request rate `r`.
    pub(crate) r: f64,
    /// Per-bus-count rows.
    pub(crate) cells: Vec<ReferenceCell>,
    /// The `N × N` crossbar row, when the table prints one.
    pub(crate) crossbar: Option<(f64, f64)>,
}

fn cells(buses: &[usize], hier: &[Option<f64>], unif: &[Option<f64>]) -> Vec<ReferenceCell> {
    assert_eq!(buses.len(), hier.len());
    assert_eq!(buses.len(), unif.len());
    buses
        .iter()
        .zip(hier.iter().zip(unif))
        .map(|(&buses, (&hier, &unif))| ReferenceCell { buses, hier, unif })
        .collect()
}

fn some(values: &[f64]) -> Vec<Option<f64>> {
    values.iter().map(|&v| Some(v)).collect()
}

/// Table II — full bus–memory connection, r = 1.0.
pub(crate) fn table2() -> Vec<ReferenceBlock> {
    vec![
        ReferenceBlock {
            n: 8,
            r: 1.0,
            cells: cells(
                &(1..=8).collect::<Vec<_>>(),
                &some(&[1.0, 2.0, 3.0, 3.97, 4.85, 5.52, 5.88, 5.98]),
                &some(&[1.0, 2.0, 2.97, 3.87, 4.59, 5.04, 5.22, 5.25]),
            ),
            crossbar: Some((5.98, 5.25)),
        },
        ReferenceBlock {
            n: 12,
            r: 1.0,
            cells: cells(
                &(1..=12).collect::<Vec<_>>(),
                &some(&[
                    1.0, 2.0, 3.0, 4.0, 5.0, 5.98, 6.91, 7.73, 8.34, 8.70, 8.84, 8.86,
                ]),
                &some(&[
                    1.0, 2.0, 3.0, 3.99, 4.97, 5.88, 6.66, 7.24, 7.58, 7.73, 7.77, 7.78,
                ]),
            ),
            crossbar: Some((8.86, 7.78)),
        },
        ReferenceBlock {
            n: 16,
            r: 1.0,
            cells: cells(
                &(1..=16).collect::<Vec<_>>(),
                &[
                    Some(1.0),
                    Some(2.0),
                    Some(3.0),
                    Some(4.0),
                    Some(5.0),
                    Some(6.0),
                    Some(7.0),
                    Some(7.99),
                    Some(8.95),
                    Some(9.85),
                    Some(10.62),
                    Some(11.20),
                    Some(11.56),
                    Some(11.72),
                    Some(11.77),
                    None, // scan drops the B = 16 row; the crossbar says 11.78
                ],
                &[
                    Some(1.0),
                    Some(2.0),
                    Some(3.0),
                    Some(4.0),
                    Some(5.0),
                    Some(6.0),
                    Some(6.97),
                    Some(7.89),
                    // The scan runs rows together here; B = 9..15 unreadable.
                    None,
                    None,
                    None,
                    None,
                    None,
                    None,
                    None,
                    Some(10.30),
                ],
            ),
            crossbar: Some((11.78, 10.30)),
        },
    ]
}

/// Table III — full bus–memory connection, r = 0.5.
pub(crate) fn table3() -> Vec<ReferenceBlock> {
    vec![
        ReferenceBlock {
            n: 8,
            r: 0.5,
            cells: cells(
                &(1..=8).collect::<Vec<_>>(),
                &some(&[0.99, 1.91, 2.67, 3.15, 3.38, 3.46, 3.47, 3.47]),
                &some(&[0.98, 1.88, 2.57, 2.99, 3.16, 3.22, 3.23, 3.23]),
            ),
            crossbar: Some((3.47, 3.23)),
        },
        ReferenceBlock {
            n: 12,
            r: 0.5,
            cells: cells(
                &(1..=12).collect::<Vec<_>>(),
                &[
                    Some(1.0),
                    Some(1.99),
                    Some(2.93),
                    Some(3.76),
                    Some(4.41),
                    Some(4.83),
                    Some(5.04),
                    Some(5.13),
                    Some(5.16),
                    Some(5.16),
                    Some(5.16),
                    None, // B = 12 row missing from the scan
                ],
                &[
                    Some(1.0),
                    Some(1.98),
                    Some(2.89),
                    Some(3.67),
                    Some(4.23),
                    Some(4.57),
                    Some(4.72),
                    Some(4.78),
                    Some(4.80),
                    Some(4.80),
                    Some(4.80),
                    None,
                ],
            ),
            crossbar: Some((5.16, 4.80)),
        },
        ReferenceBlock {
            n: 16,
            r: 0.5,
            cells: cells(
                &(1..=16).collect::<Vec<_>>(),
                &[
                    Some(1.0),
                    Some(2.0),
                    Some(2.99),
                    Some(3.95),
                    Some(4.83),
                    None, // B = 6 row missing from the scan
                    Some(6.15),
                    Some(6.52),
                    Some(6.73),
                    Some(6.82),
                    Some(6.85),
                    Some(6.87),
                    Some(6.87),
                    Some(6.87),
                    Some(6.87),
                    None, // B = 16 row missing from the scan
                ],
                &[
                    Some(1.0),
                    Some(2.0),
                    Some(2.98),
                    Some(3.91),
                    Some(4.74),
                    None,
                    Some(5.87),
                    Some(6.15),
                    Some(6.29),
                    Some(6.35),
                    Some(6.37),
                    Some(6.37),
                    Some(6.37),
                    Some(6.37),
                    Some(6.37),
                    None,
                ],
            ),
            crossbar: Some((6.87, 6.37)),
        },
    ]
}

/// Table IV — single bus–memory connection, both rates.
pub(crate) fn table4() -> Vec<ReferenceBlock> {
    vec![
        ReferenceBlock {
            n: 8,
            r: 1.0,
            cells: cells(
                &[1, 2, 4, 8],
                &some(&[1.0, 1.99, 3.74, 5.97]),
                &some(&[1.0, 1.97, 3.53, 5.25]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 1.0,
            cells: cells(
                &[1, 2, 4, 8, 16],
                &some(&[1.0, 2.0, 3.98, 7.44, 11.78]),
                &some(&[1.0, 2.0, 3.94, 6.99, 10.30]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 1.0,
            cells: cells(
                &[1, 2, 4, 8, 16, 32],
                &some(&[1.0, 2.0, 4.0, 7.96, 14.87, 23.48]),
                &some(&[1.0, 2.0, 4.0, 7.86, 13.90, 20.41]),
            ),
            crossbar: None,
        },
        // The r = 0.5 sub-table is badly garbled in the scan; only the
        // cleanly readable cells are asserted.
        ReferenceBlock {
            n: 8,
            r: 0.5,
            cells: cells(
                &[1, 2, 4, 8],
                &[Some(0.99), None, None, Some(3.47)],
                &[Some(0.98), None, None, Some(3.23)],
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 0.5,
            cells: cells(
                &[1, 2, 4, 8, 16],
                &[Some(1.0), Some(1.98), Some(3.58), Some(5.39), Some(6.87)],
                &[Some(1.0), None, None, None, Some(6.37)],
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 0.5,
            cells: cells(
                &[1, 2, 4, 8, 16, 32],
                &some(&[1.0, 2.0, 3.95, 7.14, 10.76, 13.69]),
                &some(&[1.0, 2.0, 3.93, 6.93, 10.16, 12.67]),
            ),
            crossbar: None,
        },
    ]
}

/// Table V — partial bus networks with g = 2, both rates.
pub(crate) fn table5() -> Vec<ReferenceBlock> {
    vec![
        ReferenceBlock {
            n: 8,
            r: 1.0,
            cells: cells(
                &[2, 4, 8],
                &some(&[1.99, 3.89, 5.97]),
                &some(&[1.97, 3.73, 5.25]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 1.0,
            cells: cells(
                &[2, 4, 8, 16],
                &some(&[2.0, 4.0, 7.92, 11.78]),
                &some(&[2.0, 3.99, 7.71, 10.30]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 1.0,
            cells: cells(
                &[2, 4, 8, 16, 32],
                &some(&[2.0, 4.0, 8.0, 15.97, 23.48]),
                &some(&[2.0, 4.0, 8.0, 15.76, 20.41]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 8,
            r: 0.5,
            cells: cells(
                &[2, 4, 8],
                &some(&[1.79, 2.96, 3.47]),
                &some(&[1.75, 2.81, 3.23]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 0.5,
            cells: cells(
                &[2, 4, 8, 16],
                &some(&[1.98, 3.82, 6.25, 6.87]),
                &some(&[1.97, 3.75, 5.92, 6.37]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 0.5,
            cells: cells(
                &[2, 4, 8, 16, 32],
                &some(&[2.0, 4.0, 7.89, 13.02, 13.69]),
                &some(&[2.0, 3.99, 7.81, 12.24, 12.67]),
            ),
            crossbar: None,
        },
    ]
}

/// Table VI — partial bus networks with K = B classes, both rates.
pub(crate) fn table6() -> Vec<ReferenceBlock> {
    vec![
        ReferenceBlock {
            n: 8,
            r: 1.0,
            cells: cells(
                &[2, 4, 8],
                &some(&[2.0, 3.85, 5.97]),
                &some(&[1.98, 3.68, 5.25]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 1.0,
            cells: cells(
                &[2, 4, 8, 16],
                &some(&[2.0, 3.99, 7.71, 11.78]),
                &some(&[2.0, 3.98, 7.35, 10.30]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 1.0,
            cells: cells(
                &[2, 4, 8, 16, 32],
                &some(&[2.0, 4.0, 7.99, 15.44, 23.48]),
                &some(&[2.0, 4.0, 7.97, 14.70, 20.41]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 8,
            r: 0.5,
            cells: cells(
                &[2, 4, 8],
                &some(&[1.85, 2.90, 3.47]),
                &some(&[1.81, 2.75, 3.23]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 16,
            r: 0.5,
            cells: cells(
                &[2, 4, 8, 16],
                &some(&[1.99, 3.78, 5.81, 6.87]),
                &some(&[1.98, 3.70, 5.51, 6.37]),
            ),
            crossbar: None,
        },
        ReferenceBlock {
            n: 32,
            r: 0.5,
            cells: cells(
                &[2, 4, 8, 16, 32],
                &some(&[2.0, 3.99, 7.64, 11.66, 13.69]),
                &some(&[2.0, 3.98, 7.49, 11.02, 12.67]),
            ),
            crossbar: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_well_formed() {
        for (name, blocks) in [
            ("II", table2()),
            ("III", table3()),
            ("IV", table4()),
            ("V", table5()),
            ("VI", table6()),
        ] {
            for block in &blocks {
                assert!(!block.cells.is_empty(), "table {name}");
                // Bus counts strictly increasing.
                for pair in block.cells.windows(2) {
                    assert!(pair[0].buses < pair[1].buses, "table {name}");
                }
                // Legible values are monotone non-decreasing in B.
                let mut prev = 0.0;
                for cell in &block.cells {
                    if let Some(h) = cell.hier {
                        assert!(h >= prev - 1e-9, "table {name} N={}", block.n);
                        prev = h;
                    }
                }
            }
        }
    }

    #[test]
    fn legible_cell_counts() {
        // Keep a tally so accidental deletions are caught: Tables II-VI
        // carry this many Some() values in each column direction.
        let count = |blocks: &[ReferenceBlock]| {
            blocks
                .iter()
                .flat_map(|b| &b.cells)
                .map(|c| usize::from(c.hier.is_some()) + usize::from(c.unif.is_some()))
                .sum::<usize>()
        };
        assert_eq!(count(&table2()), 64);
        assert_eq!(count(&table3()), 66);
        assert_eq!(count(&table4()), 53);
        assert_eq!(count(&table5()), 48);
        assert_eq!(count(&table6()), 48);
    }
}
