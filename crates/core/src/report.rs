//! Rendering helpers: markdown and CSV emission for tables and reports.

use crate::tables::PaperTable;
use mbus_topology::SchemeCostRow;

/// Formats one bandwidth value with its optional paper reference as
/// `computed (paper)`.
fn cell(computed: f64, reference: Option<f64>) -> String {
    match reference {
        Some(r) => format!("{computed:.2} ({r:.2})"),
        None => format!("{computed:.2} (–)"),
    }
}

/// Renders a regenerated paper table as GitHub-flavored markdown.
pub(crate) fn paper_table_markdown(table: &PaperTable) -> String {
    let mut out = format!("## Table {} — {}\n\n", table.id, table.title);
    out.push_str("Values are `computed (paper)`; `(–)` marks cells illegible in the scan.\n\n");
    for block in &table.blocks {
        out.push_str(&format!("### N = {}, r = {}\n\n", block.n, block.r));
        out.push_str("| B | hierarchical | uniform |\n|---|---|---|\n");
        for c in &block.cells {
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                c.buses,
                cell(c.hier, c.hier_ref),
                cell(c.unif, c.unif_ref)
            ));
        }
        if let Some((hier, unif)) = block.crossbar {
            let (hr, ur) = match block.crossbar_ref {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };
            out.push_str(&format!(
                "| NxN crossbar | {} | {} |\n",
                cell(hier, hr),
                cell(unif, ur)
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders a regenerated paper table as CSV with header
/// `table,n,r,buses,hier,unif,hier_ref,unif_ref`.
pub(crate) fn paper_table_csv(table: &PaperTable) -> String {
    let mut out = String::from("table,n,r,buses,hier,unif,hier_ref,unif_ref\n");
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x}"));
    for block in &table.blocks {
        for c in &block.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                table.id,
                block.n,
                block.r,
                c.buses,
                c.hier,
                c.unif,
                opt(c.hier_ref),
                opt(c.unif_ref)
            ));
        }
    }
    out
}

/// Renders Table I (cost/fault-tolerance rows) as markdown.
pub fn cost_table_markdown(rows: &[SchemeCostRow]) -> String {
    let mut out = String::from(
        "## Table I — Cost and fault tolerance\n\n\
         | Connection scheme | No. of connections | Max bus load | Degree of fault tolerance |\n\
         |---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} = {} | {} | {} = {} |\n",
            row.scheme,
            row.connections_formula,
            row.connections,
            row.max_bus_load,
            row.fault_tolerance_formula,
            row.fault_tolerance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables;

    #[test]
    fn markdown_marks_illegible_cells() {
        let md = paper_table_markdown(&tables::table2());
        assert!(md.contains("(–)"), "illegible markers present");
        assert!(md.contains("3.97"), "paper values present");
    }

    #[test]
    fn csv_has_empty_reference_columns_for_illegible() {
        let csv = paper_table_csv(&tables::table4());
        let garbled_row = csv
            .lines()
            .find(|l| l.starts_with("IV,8,0.5,2,"))
            .expect("row exists");
        assert!(garbled_row.ends_with(",,"), "empty refs: {garbled_row}");
    }

    #[test]
    fn cost_markdown_contains_formulas() {
        let md = cost_table_markdown(&tables::table1(8, 4, 2, 4).unwrap());
        assert!(md.contains("B(N+M)"));
        assert!(md.contains("| full bus-memory connection |"));
    }
}
