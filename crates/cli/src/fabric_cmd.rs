//! The `mbus fabric` subcommand: hierarchical cluster-of-buses
//! evaluation — analytic decomposition, routed simulation, and the
//! depth/branching/locality sweep.

use crate::args::{parse_list, Args};
use crate::CliResult;
use mbus_core::campaign::FabricCampaignReport;
use mbus_core::fabric::{
    analyze_fabric, FabricAnalysis, FabricReport, FabricSimulator, FabricSpec, LinkKind,
};
use mbus_core::query::FabricQuery;
use mbus_core::sim::SimConfig;
use mbus_server::json::{self, obj, Json};
use mbus_server::service::fabric_json;
use std::fmt::Write as _;

fn link_label(kind: LinkKind) -> String {
    match kind {
        LinkKind::Local { leaf } => format!("local({leaf})"),
        LinkKind::Uplink { level, node } => format!("uplink(L{level}.{node})"),
    }
}

/// `mbus fabric` / `mbus fabric --sweep` / `mbus fabric --campaign`.
pub(crate) fn fabric(args: &Args) -> CliResult {
    // `--sweep` and `--campaign` are bare flags; a stray value (e.g.
    // `--sweep locality`) would otherwise parse as a non-"true" option
    // and silently fall through to a single run.
    for mode in ["sweep", "campaign"] {
        if let Some(value) = args.get(mode) {
            if value != "true" {
                return Err(format!(
                    "--{mode} takes no value (got '{value}'); the sweep grids \
                     depth x locality from --n/--max-depth/--localities"
                )
                .into());
            }
        }
    }
    if args.flag("sweep") {
        return sweep(args);
    }
    if args.flag("campaign") {
        return campaign(args);
    }
    print!("{}", document(args)?);
    Ok(())
}

/// One fabric evaluation, as `mbus fabric` prints it: the analytic
/// decomposition and, when `cycles > 0`, the routed simulation (recorded
/// to `--trace FILE` when given). Markdown by default; with `--json`, the
/// `/v1/fabric` result body on one line.
pub(crate) fn document(args: &Args) -> CliResult<String> {
    let request = FabricQuery::read(args)?;
    let (topo, matrix) = request.build()?;
    let analysis = analyze_fabric(&topo, &matrix, request.rate, &request.failed_links)?;
    let report = if request.cycles > 0 {
        let mut sim = FabricSimulator::build(&topo, &matrix, request.rate)?;
        let config = request.sim_config()?;
        Some(match args.get("trace") {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
                let (report, file) = sim.run_traced(&config, std::io::BufWriter::new(file))?;
                file.into_inner()
                    .map_err(|e| format!("flushing trace file: {e}"))?
                    .sync_all()?;
                report
            }
            None => sim.run(&config)?,
        })
    } else {
        None
    };
    Ok(if args.flag("json") {
        let body = fabric_json(&request, &topo, &analysis, report.as_ref());
        format!("{}\n", body.render())
    } else {
        render_markdown(&request, &topo, &analysis, report.as_ref())
    })
}

fn shape_string(ks: &[usize]) -> String {
    ks.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn render_markdown(
    request: &FabricQuery,
    topo: &mbus_core::fabric::ClusteredBuses,
    analysis: &FabricAnalysis,
    report: Option<&FabricReport>,
) -> String {
    let mut out = String::new();
    let links = topo.links();
    let uplinks = links
        .iter()
        .filter(|link| matches!(link.kind, LinkKind::Uplink { .. }))
        .count();
    let _ = writeln!(out, "# Fabric evaluation\n");
    let _ = writeln!(
        out,
        "shape {} (N = M = {}), {} leaves, {} local buses/leaf, uplink width {}, \
         locality {:.2}, rate {:.3}",
        shape_string(&request.spec.ks),
        topo.processors(),
        topo.leaves(),
        topo.local_buses(),
        topo.uplink_width(),
        request.spec.locality,
        request.rate,
    );
    let failed: Vec<String> = request.failed_links.iter().map(usize::to_string).collect();
    let _ = writeln!(
        out,
        "links: {} ({} local + {} uplink), failed: {{{}}}\n",
        links.len(),
        topo.leaves(),
        uplinks,
        failed.join(","),
    );
    let _ = writeln!(out, "## Analytic decomposition\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| bandwidth (req/cycle) | {:.4} |", analysis.bandwidth);
    let _ = writeln!(out, "| offered load | {:.4} |", analysis.offered_load);
    let _ = writeln!(
        out,
        "| acceptance probability | {:.4} |",
        analysis.acceptance
    );
    let _ = writeln!(
        out,
        "| unreachable rate | {:.4} |",
        analysis.unreachable_rate
    );
    let _ = writeln!(
        out,
        "| mean hops per delivery | {:.3} |",
        analysis.mean_hops
    );
    let _ = writeln!(out, "| fixed-point iterations | {} |", analysis.iterations);
    let _ = writeln!(out, "| fixed-point residual | {:.1e} |", analysis.residual);
    let _ = writeln!(
        out,
        "\n| link | offered | carried | acceptance | utilization |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (id, load) in analysis.links.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} |",
            link_label(links[id].kind),
            load.offered,
            load.carried,
            load.acceptance,
            load.utilization,
        );
    }
    let clusters: Vec<String> = analysis
        .cluster_bandwidth
        .iter()
        .map(|bw| format!("{bw:.4}"))
        .collect();
    let _ = writeln!(out, "\nper-cluster bandwidth: [{}]", clusters.join(", "));
    if let Some(report) = report {
        let _ = writeln!(
            out,
            "\n## Simulation ({} cycles, warmup {}, seed {})\n",
            report.cycles, report.warmup, request.seed
        );
        let _ = writeln!(out, "| metric | analytic | simulated | gap |");
        let _ = writeln!(out, "|---|---|---|---|");
        let sim_bw = report.bandwidth.mean();
        let _ = writeln!(
            out,
            "| bandwidth | {:.4} | {:.4} ± {:.4} | {:+.4} |",
            analysis.bandwidth,
            sim_bw,
            report.bandwidth.half_width(),
            analysis.bandwidth - sim_bw,
        );
        let _ = writeln!(
            out,
            "| acceptance | {:.4} | {:.4} | {:+.4} |",
            analysis.acceptance,
            report.acceptance,
            analysis.acceptance - report.acceptance,
        );
        let _ = writeln!(
            out,
            "| mean hops | {:.3} | {:.3} | {:+.3} |",
            analysis.mean_hops,
            report.mean_hops,
            analysis.mean_hops - report.mean_hops,
        );
        if !report.link_utilization.is_empty() {
            let _ = writeln!(
                out,
                "\n| link | util (sim) | util (analytic) | carried | blocked | alive cycles |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
            for (id, link) in links.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "| {} | {:.4} | {:.4} | {} | {} | {} |",
                    link_label(link.kind),
                    report.link_utilization[id],
                    analysis.links[id].utilization,
                    report.link_carried[id],
                    report.link_blocked[id],
                    report.link_alive_cycles[id],
                );
            }
        }
    }
    out
}

/// `mbus fabric --campaign`: degraded-mode uplink-failure sweep — analytic
/// bandwidth over every (or a sample of every) f-uplink failure combo,
/// availability-weighted expectation, and the per-cluster decay table.
fn campaign(args: &Args) -> CliResult {
    let request = FabricQuery::read(args)?;
    if !request.failed_links.is_empty() {
        return Err("--failed conflicts with --campaign (the campaign sweeps failures)".into());
    }
    let (topo, matrix) = request.build()?;
    let config = mbus_core::campaign::CampaignConfig {
        seed: request.seed,
        ..crate::commands::campaign_config_from(args)?
    };
    let report = mbus_core::campaign::run_fabric_campaign(&topo, &matrix, request.rate, &config)?;
    if args.flag("json") {
        println!("{}", campaign_json(&report).render());
    } else {
        print!("{}", mbus_core::campaign::render_fabric_markdown(&report));
    }
    Ok(())
}

/// The `mbus fabric --campaign --json` document: the fabric, the
/// availability weighting, one object per uplink-failure level and the
/// per-cluster decay table.
fn campaign_json(report: &FabricCampaignReport) -> Json {
    let levels = report
        .levels
        .iter()
        .map(|level| {
            obj(vec![
                ("failures", Json::Num(level.failures as f64)),
                ("combos", Json::Num(level.combos_evaluated as f64)),
                ("exhaustive", Json::Bool(level.exhaustive)),
                ("mean_bandwidth", Json::Num(level.mean_bandwidth)),
                ("min_bandwidth", Json::Num(level.min_bandwidth)),
                ("max_bandwidth", Json::Num(level.max_bandwidth)),
                ("mean_unreachable", Json::Num(level.mean_unreachable)),
                ("max_unreachable", Json::Num(level.max_unreachable)),
                ("worst_mask", json::count_array(&level.worst_mask)),
            ])
        })
        .collect();
    let decay = report
        .cluster_decay
        .iter()
        .map(|row| json::num_array(row))
        .collect();
    obj(vec![
        ("ks", json::count_array(&report.ks)),
        ("processors", Json::Num(report.processors as f64)),
        ("links", Json::Num(report.links as f64)),
        ("uplinks", Json::Num(report.uplinks as f64)),
        ("rate", Json::Num(report.rate)),
        ("uplink_failure_prob", Json::Num(report.uplink_failure_prob)),
        ("healthy_bandwidth", Json::Num(report.healthy_bandwidth)),
        ("expected_bandwidth", Json::Num(report.expected_bandwidth)),
        ("levels", Json::Arr(levels)),
        ("cluster_decay", Json::Arr(decay)),
    ])
}

/// Splits `n` into `parts` factors, each at least 2, as balanced as the
/// divisor structure of `n` allows (used to derive the sweep's deeper
/// shapes from `--n`). Returns `None` when no such factorization exists.
fn balanced_factors(n: usize, parts: usize) -> Option<Vec<usize>> {
    if parts == 1 {
        return (n >= 2).then(|| vec![n]);
    }
    let target = (n as f64).powf(1.0 / parts as f64).round() as usize;
    let mut candidates: Vec<usize> = (2..=n).filter(|d| n.is_multiple_of(*d)).collect();
    // Ties around the target break toward the larger divisor so shapes
    // come out non-increasing ([4, 2, 2], not [2, 2, 4]), matching the
    // branching-vector convention used everywhere else.
    candidates.sort_by_key(|&d| (d.abs_diff(target), std::cmp::Reverse(d)));
    for head in candidates {
        if let Some(mut rest) = balanced_factors(n / head, parts - 1) {
            let mut shape = vec![head];
            shape.append(&mut rest);
            return Some(shape);
        }
    }
    None
}

/// `mbus fabric --sweep`: analytic-vs-simulated bandwidth over a grid of
/// tree depths (derived from `--n`) and locality values.
fn sweep(args: &Args) -> CliResult {
    let n = args.get_or("n", 16usize)?;
    let rate = args.get_or("rate", 0.5f64)?;
    let cycles = args.get_or("cycles", 10_000u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let local_buses = args.get_or("buses", 2usize)?;
    let uplink_width = args.get_or("uplink", 1usize)?;
    let localities: Vec<f64> = match args.get("localities") {
        Some(raw) => parse_list(raw, "localities")?,
        None => vec![0.9, 0.6, 0.3, 0.0],
    };
    let max_depth = args.get_or("max-depth", 3usize)?;
    let shapes: Vec<Vec<usize>> = (1..=max_depth)
        .filter_map(|depth| balanced_factors(n, depth))
        .collect();
    if shapes.is_empty() {
        return Err(format!("--n {n}: no factorization into clusters").into());
    }
    let json = args.flag("json");
    if !json {
        println!("| shape | locality | analytic | simulated | ±CI | gap | mean hops |");
        println!("|---|---|---|---|---|---|---|");
    }
    let mut rows = Vec::new();
    for shape in &shapes {
        for &locality in &localities {
            let spec = FabricSpec {
                ks: shape.clone(),
                local_buses,
                uplink_width,
                locality,
            };
            let (topo, matrix) = spec.build()?;
            let analysis = analyze_fabric(&topo, &matrix, rate, &[])?;
            let mut sim = FabricSimulator::build(&topo, &matrix, rate)?;
            let config = SimConfig::new(cycles)
                .with_warmup(cycles / 10)
                .with_seed(seed);
            let report = sim.run(&config)?;
            let sim_bw = report.bandwidth.mean();
            if json {
                rows.push(obj(vec![
                    ("shape", Json::Str(shape_string(shape))),
                    ("locality", Json::Num(locality)),
                    ("analytic", Json::Num(analysis.bandwidth)),
                    ("simulated", Json::Num(sim_bw)),
                    ("half_width", Json::Num(report.bandwidth.half_width())),
                    ("gap", Json::Num(analysis.bandwidth - sim_bw)),
                    ("mean_hops", Json::Num(report.mean_hops)),
                ]));
            } else {
                println!(
                    "| {} | {:.2} | {:.4} | {:.4} | {:.4} | {:+.4} | {:.3} |",
                    shape_string(shape),
                    locality,
                    analysis.bandwidth,
                    sim_bw,
                    report.bandwidth.half_width(),
                    analysis.bandwidth - sim_bw,
                    report.mean_hops,
                );
            }
        }
    }
    if json {
        println!("{}", Json::Arr(rows).render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_factors_cover_the_depths() {
        assert_eq!(balanced_factors(16, 1), Some(vec![16]));
        assert_eq!(balanced_factors(16, 2), Some(vec![4, 4]));
        assert_eq!(balanced_factors(16, 3), Some(vec![4, 2, 2]));
        assert_eq!(balanced_factors(64, 3), Some(vec![4, 4, 4]));
        assert_eq!(balanced_factors(7, 2), None);
        assert_eq!(balanced_factors(1, 1), None);
    }

    #[test]
    fn json_output_reports_the_fixed_point_residual() {
        let args = Args::parse(
            "fabric --ks 4,4 --rate 0.8 --cycles 0 --json"
                .split_whitespace()
                .map(String::from),
        );
        let request = FabricQuery::read(&args).unwrap();
        let (topo, matrix) = request.build().unwrap();
        let analysis = analyze_fabric(&topo, &matrix, request.rate, &[]).unwrap();
        let text = document(&args).unwrap();
        let json = json::parse(&text).expect("fabric --json renders valid JSON");
        let analytic = json.get("analytic").unwrap();
        let residual = analytic.get("residual").unwrap().as_f64().unwrap();
        assert_eq!(residual, analysis.residual);
        assert!(residual < 1e-10);
    }

    #[test]
    fn campaign_json_carries_the_report() {
        use mbus_core::campaign::{run_fabric_campaign, CampaignConfig};
        let args = Args::parse(["fabric", "--ks", "2,2"].map(String::from));
        let (topo, matrix) = FabricQuery::read(&args).unwrap().build().unwrap();
        let config = CampaignConfig::default();
        let report = run_fabric_campaign(&topo, &matrix, 0.8, &config).unwrap();
        let doc = json::parse(&campaign_json(&report).render()).unwrap();
        assert_eq!(doc.get("uplinks").and_then(Json::as_usize), Some(2));
        let levels = doc.get("levels").and_then(Json::as_array).unwrap();
        assert_eq!(levels.len(), report.levels.len());
        for (level, summary) in levels.iter().zip(&report.levels) {
            let combos = level.get("combos").and_then(Json::as_usize);
            assert_eq!(combos, Some(summary.combos_evaluated));
            let unreachable = level.get("max_unreachable").and_then(Json::as_f64);
            assert_eq!(unreachable, Some(summary.max_unreachable));
        }
        let decay = report.cluster_decay.iter().map(|row| json::num_array(row));
        assert_eq!(doc.get("cluster_decay"), Some(&Json::Arr(decay.collect())));
    }
}
