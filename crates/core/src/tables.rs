//! Regeneration of every table and figure in the paper.
//!
//! Each `tableN()` function computes the analytical bandwidth for exactly
//! the parameter grid the paper evaluates, pairs each cell with the paper's
//! printed value (from [`crate::reference`]), and returns a [`PaperTable`]
//! that renders to markdown/CSV and knows its own worst deviation. The
//! `figures()` function re-draws the paper's four topology diagrams.
//!
//! Table blocks are independent `(N, r)` grids of very uneven cost (cost
//! climbs steeply with `N`), so regeneration shards them over the
//! shared-queue pool via
//! [`mbus_stats::parallel::parallel_map`]; results are identical
//! to a serial evaluation (same cells, same order, same floating-point
//! values).

use crate::paper_params;
use crate::reference::{self, ReferenceBlock};
use crate::report;
use mbus_analysis::memory_bandwidth;
use mbus_stats::parallel::{available_workers, parallel_map};
use mbus_topology::{render, BusNetwork, ConnectionScheme, SchemeCostRow, TopologyError};
use mbus_workload::{RequestMatrix, RequestModel, UniformModel};
use serde::{Deserialize, Serialize};

/// The paper's hierarchical request matrix for an `N × N` grid.
fn hier_matrix(n: usize) -> RequestMatrix {
    paper_params::hierarchical(n)
        .expect("paper sizes divide into clusters")
        .matrix()
}

/// The uniform request matrix for an `N × N` grid.
fn unif_matrix(n: usize) -> RequestMatrix {
    UniformModel::new(n, n).expect("positive sizes").matrix()
}

/// One regenerated cell: computed values paired with the paper's printed
/// ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputedCell {
    /// Number of buses `B`.
    pub buses: usize,
    /// Computed hierarchical-model bandwidth.
    pub hier: f64,
    /// Computed uniform-model bandwidth.
    pub unif: f64,
    /// The paper's hierarchical value, where legible.
    pub hier_ref: Option<f64>,
    /// The paper's uniform value, where legible.
    pub unif_ref: Option<f64>,
}

/// One `(N, r)` block of a regenerated table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputedBlock {
    /// Network size.
    pub n: usize,
    /// Request rate.
    pub r: f64,
    /// Regenerated rows.
    pub cells: Vec<ComputedCell>,
    /// Computed crossbar row (hier, unif) when the paper prints one, with
    /// its reference.
    pub crossbar: Option<(f64, f64)>,
    /// The paper's crossbar row.
    pub crossbar_ref: Option<(f64, f64)>,
}

/// A fully regenerated paper table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperTable {
    /// Table identifier ("II" … "VI").
    pub id: &'static str,
    /// Table caption.
    pub title: String,
    /// Blocks, one per `(N, r)` combination.
    pub blocks: Vec<ComputedBlock>,
}

impl PaperTable {
    /// The largest absolute deviation between a computed cell and its
    /// legible paper reference (including crossbar rows).
    pub fn max_abs_deviation(&self) -> f64 {
        let mut max: f64 = 0.0;
        for block in &self.blocks {
            for cell in &block.cells {
                if let Some(r) = cell.hier_ref {
                    max = max.max((cell.hier - r).abs());
                }
                if let Some(r) = cell.unif_ref {
                    max = max.max((cell.unif - r).abs());
                }
            }
            if let (Some((ch, cu)), Some((rh, ru))) = (block.crossbar, block.crossbar_ref) {
                max = max.max((ch - rh).abs()).max((cu - ru).abs());
            }
        }
        max
    }

    /// Number of legible reference cells this table is checked against.
    pub fn reference_cell_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.cells)
            .map(|c| usize::from(c.hier_ref.is_some()) + usize::from(c.unif_ref.is_some()))
            .sum()
    }

    /// Renders the table as GitHub-flavored markdown, paper values in
    /// parentheses.
    pub fn to_markdown(&self) -> String {
        report::paper_table_markdown(self)
    }

    /// Renders the table as CSV
    /// (`table,n,r,buses,hier,unif,hier_ref,unif_ref`).
    pub fn to_csv(&self) -> String {
        report::paper_table_csv(self)
    }
}

/// How a bandwidth cell is computed for a given scheme family.
fn bandwidth_for(
    scheme: ConnectionScheme,
    n: usize,
    b: usize,
    matrix: &mbus_workload::RequestMatrix,
    r: f64,
) -> f64 {
    let net = BusNetwork::new(n, n, b, scheme).expect("paper-grid networks are valid");
    memory_bandwidth(&net, matrix, r).expect("paper-grid parameters are valid")
}

fn build_table(
    id: &'static str,
    title: &str,
    refs: Vec<ReferenceBlock>,
    scheme_at: impl Fn(usize, usize) -> ConnectionScheme + Sync,
    with_crossbar: bool,
) -> PaperTable {
    let scheme_at = &scheme_at;
    let blocks = parallel_map(refs, available_workers(), |block| {
        let hier_model = hier_matrix(block.n);
        let unif_model = unif_matrix(block.n);
        let cells = block
            .cells
            .iter()
            .map(|cell| ComputedCell {
                buses: cell.buses,
                hier: bandwidth_for(
                    scheme_at(block.n, cell.buses),
                    block.n,
                    cell.buses,
                    &hier_model,
                    block.r,
                ),
                unif: bandwidth_for(
                    scheme_at(block.n, cell.buses),
                    block.n,
                    cell.buses,
                    &unif_model,
                    block.r,
                ),
                hier_ref: cell.hier,
                unif_ref: cell.unif,
            })
            .collect();
        let crossbar = with_crossbar.then(|| {
            (
                bandwidth_for(
                    ConnectionScheme::Crossbar,
                    block.n,
                    block.n,
                    &hier_model,
                    block.r,
                ),
                bandwidth_for(
                    ConnectionScheme::Crossbar,
                    block.n,
                    block.n,
                    &unif_model,
                    block.r,
                ),
            )
        });
        ComputedBlock {
            n: block.n,
            r: block.r,
            cells,
            crossbar,
            crossbar_ref: block.crossbar,
        }
    });
    PaperTable {
        id,
        title: title.to_owned(),
        blocks,
    }
}

/// Table I: cost and fault tolerance of every connection scheme,
/// instantiated for a concrete `(n, b, g, k)`.
///
/// # Errors
///
/// Returns the topology error when the parameters do not form valid
/// networks (e.g. `g ∤ n`) — the parameters come straight from CLI flags.
pub fn table1(n: usize, b: usize, g: usize, k: usize) -> Result<Vec<SchemeCostRow>, TopologyError> {
    let nets = [
        BusNetwork::new(n, n, b, ConnectionScheme::Full)?,
        BusNetwork::new(n, n, b, ConnectionScheme::balanced_single(n, b)?)?,
        BusNetwork::new(n, n, b, ConnectionScheme::PartialGroups { groups: g })?,
        BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, k)?)?,
        BusNetwork::new(n, n, b, ConnectionScheme::Crossbar)?,
    ];
    Ok(nets.iter().map(SchemeCostRow::for_network).collect())
}

/// Table II: full bus–memory connection, r = 1.0.
pub fn table2() -> PaperTable {
    build_table(
        "II",
        "Memory bandwidth of NxNxB networks with full bus-memory connection for r=1.0",
        reference::table2(),
        |_, _| ConnectionScheme::Full,
        true,
    )
}

/// Table III: full bus–memory connection, r = 0.5.
pub fn table3() -> PaperTable {
    build_table(
        "III",
        "Memory bandwidth of NxNxB networks with full bus-memory connection for r=0.5",
        reference::table3(),
        |_, _| ConnectionScheme::Full,
        true,
    )
}

/// Table IV: single bus–memory connection, r ∈ {1.0, 0.5}.
pub fn table4() -> PaperTable {
    build_table(
        "IV",
        "Memory bandwidth of NxNxB networks with single bus-memory connection",
        reference::table4(),
        |n, b| ConnectionScheme::balanced_single(n, b).expect("power-of-two grids divide"),
        false,
    )
}

/// Table V: partial bus networks with g = 2, r ∈ {1.0, 0.5}.
pub fn table5() -> PaperTable {
    build_table(
        "V",
        "Memory bandwidth of NxNxB partial bus networks with g=2",
        reference::table5(),
        |_, _| ConnectionScheme::PartialGroups { groups: 2 },
        false,
    )
}

/// Table VI: partial bus networks with K = B classes, r ∈ {1.0, 0.5}.
pub fn table6() -> PaperTable {
    build_table(
        "VI",
        "Memory bandwidth of NxNxB partial bus networks with K=B classes",
        reference::table6(),
        |n, b| ConnectionScheme::uniform_classes(n, b).expect("power-of-two grids divide"),
        false,
    )
}

/// All five bandwidth tables.
pub fn all_bandwidth_tables() -> Vec<PaperTable> {
    vec![table2(), table3(), table4(), table5(), table6()]
}

/// The paper's four figures as `(caption, ascii art)` pairs.
///
/// Fig. 1: full connection; Fig. 2: partial bus network with g = 2;
/// Fig. 3: the 3 × 6 × 4 three-class example; Fig. 4: single connection.
pub fn figures() -> Vec<(String, String)> {
    let fig1 = BusNetwork::new(6, 6, 3, ConnectionScheme::Full).expect("valid");
    let fig2 =
        BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).expect("valid");
    let fig3 = BusNetwork::new(
        3,
        6,
        4,
        ConnectionScheme::uniform_classes(6, 3).expect("valid"),
    )
    .expect("valid");
    let fig4 = BusNetwork::new(
        8,
        8,
        4,
        ConnectionScheme::balanced_single(8, 4).expect("valid"),
    )
    .expect("valid");
    vec![
        (
            "Fig. 1: An NxMxB multiple bus network (full bus-memory connection)".to_owned(),
            render::ascii_diagram(&fig1),
        ),
        (
            "Fig. 2: An NxMxB partial bus network with g=2".to_owned(),
            render::ascii_diagram(&fig2),
        ),
        (
            "Fig. 3: A 3x6x4 partial bus network with three classes".to_owned(),
            render::ascii_diagram(&fig3),
        ),
        (
            "Fig. 4: An NxMxB network with single bus-memory connection".to_owned(),
            render::ascii_diagram(&fig4),
        ),
    ]
}

/// Extension (not in the paper): bandwidth of `N × M × B` networks with the
/// **shared-leaf** hierarchical model the paper sketches in §III-A but never
/// evaluates.
///
/// Uses a three-level hierarchy `k = (2, 2, 3)` with `k₃′ = 2` favorite
/// memories per leaf — 12 processors sharing 8 memories — and sweeps every
/// scheme over bus counts. Returns `(scheme, B, bandwidth)` rows for
/// `r = 1.0`.
pub fn extension_nm_table() -> Vec<(String, usize, f64)> {
    use mbus_workload::{HierarchicalModel, Hierarchy};
    let hierarchy = Hierarchy::shared(&[2, 2, 3], 2).expect("valid shape");
    let model = HierarchicalModel::with_aggregate_shares(hierarchy, &[0.6, 0.3, 0.1])
        .expect("valid shares");
    let matrix = model.matrix();
    let n = model.processors(); // 12
    let m = model.memories(); // 8
    let mut rows = Vec::new();
    for b in [2usize, 4, 8] {
        let schemes: Vec<(&str, ConnectionScheme)> = vec![
            ("full", ConnectionScheme::Full),
            (
                "single",
                ConnectionScheme::balanced_single(m, b).expect("b <= m"),
            ),
            ("partial g=2", ConnectionScheme::PartialGroups { groups: 2 }),
            (
                "kclass K=2",
                ConnectionScheme::uniform_classes(m, 2).expect("2 <= m"),
            ),
        ];
        for (name, scheme) in schemes {
            let net = BusNetwork::new(n, m, b, scheme).expect("valid");
            let bw = memory_bandwidth(&net, &matrix, 1.0).expect("valid");
            rows.push((name.to_owned(), b, bw));
        }
    }
    rows
}

/// The §IV bus-halving ratios (see
/// [`mbus_analysis::sweep::single_connection_halving_ratio`]), computed for
/// `n = 32`: `(r, hierarchical ratio, uniform ratio)`.
pub fn bus_halving_ratios() -> Vec<(f64, f64, f64)> {
    let hier = hier_matrix(32);
    let unif = unif_matrix(32);
    paper_params::RATES
        .iter()
        .map(|&r| {
            (
                r,
                mbus_analysis::sweep::single_connection_halving_ratio(32, &hier, r).expect("valid"),
                mbus_analysis::sweep::single_connection_halving_ratio(32, &unif, r).expect("valid"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every legible cell of every table must reproduce within the paper's
    /// print precision (±0.011 absorbs the paper's own last-digit rounding).
    #[test]
    fn every_legible_cell_reproduces() {
        for table in all_bandwidth_tables() {
            let deviation = table.max_abs_deviation();
            assert!(
                deviation < 0.011,
                "Table {}: max deviation {deviation}",
                table.id
            );
        }
    }

    #[test]
    fn reference_coverage_is_complete() {
        let tables = all_bandwidth_tables();
        let total: usize = tables.iter().map(|t| t.reference_cell_count()).sum();
        // 64 + 66 + 53 + 48 + 48 legible cells across Tables II–VI.
        assert_eq!(total, 279);
    }

    #[test]
    fn table1_rows_cover_all_schemes() {
        let rows = table1(16, 8, 2, 8).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].connections, 8 * 32); // full: B(N+M)
        assert_eq!(rows[1].connections, 8 * 16 + 16); // single: BN+M
        assert_eq!(rows[2].connections, 8 * (16 + 8)); // partial: B(N+M/g)
        assert_eq!(rows[4].connections, 256); // crossbar: N*M
    }

    #[test]
    fn figures_render_nonempty() {
        let figs = figures();
        assert_eq!(figs.len(), 4);
        for (caption, art) in &figs {
            assert!(caption.starts_with("Fig."));
            assert!(art.lines().count() > 4, "{caption}");
        }
    }

    #[test]
    fn halving_ratios_match_section_four() {
        let ratios = bus_halving_ratios();
        // r = 1.0: hier ≈ 1.58, unif ≈ 1.47; r = 0.5: 1.27 / 1.25.
        let (r1, h1, u1) = ratios[0];
        assert_eq!(r1, 1.0);
        assert!((h1 - 1.579).abs() < 0.01);
        assert!((u1 - 1.468).abs() < 0.01);
        let (r2, h2, u2) = ratios[1];
        assert_eq!(r2, 0.5);
        assert!((h2 - 1.272).abs() < 0.01);
        assert!((u2 - 1.247).abs() < 0.01);
    }

    #[test]
    fn extension_nm_table_is_sane() {
        let rows = extension_nm_table();
        assert_eq!(rows.len(), 12); // 4 schemes × 3 bus counts
        for (scheme, b, bw) in &rows {
            assert!(*bw > 0.0 && *bw <= *b as f64 + 1e-9, "{scheme} B={b}: {bw}");
        }
        // Full dominates single at every B.
        for b in [2usize, 4, 8] {
            let at = |name: &str| {
                rows.iter()
                    .find(|(s, bb, _)| s == name && *bb == b)
                    .unwrap()
                    .2
            };
            assert!(at("full") >= at("single") - 1e-9);
            assert!(at("full") >= at("partial g=2") - 1e-9);
        }
    }

    #[test]
    fn markdown_and_csv_render() {
        let table = table2();
        let md = table.to_markdown();
        assert!(md.contains("Table II"));
        assert!(md.contains("| 4 |"));
        let csv = table.to_csv();
        assert!(csv.starts_with("table,n,r,buses,"));
        assert!(csv.lines().count() > 30);
    }
}
