//! Implementations of the `mbus` subcommands.

use crate::args::Args;
use crate::CliResult;
use mbus_core::prelude::*;
use mbus_core::query::{Fields, FlatSpec, SimSpec, WorkloadSpec};
use mbus_core::report::cost_table_markdown;
use mbus_core::{exact, tables, topology};
use mbus_server::json::{self, obj, Json};

/// `mbus table <id>`.
pub fn table(args: &Args) -> CliResult {
    let id = args
        .positional
        .first()
        .ok_or("table needs a number (1-6)")?
        .as_str();
    if id == "1" {
        let n = args.get_or("n", 16usize)?;
        let b = args.get_or("b", 8usize)?;
        let g = args.get_or("g", 2usize)?;
        let k = args.get_or("k", b)?;
        let rows = tables::table1(n, b, g, k)?;
        print!("{}", cost_table_markdown(&rows));
        return Ok(());
    }
    let table = match id {
        "2" => tables::table2(),
        "3" => tables::table3(),
        "4" => tables::table4(),
        "5" => tables::table5(),
        "6" => tables::table6(),
        other => return Err(format!("unknown table '{other}'").into()),
    };
    if args.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_markdown());
        println!(
            "max |computed - paper| over {} legible cells: {:.4}",
            table.reference_cell_count(),
            table.max_abs_deviation()
        );
    }
    Ok(())
}

/// `mbus tables`.
pub fn tables(args: &Args) -> CliResult {
    for table in tables::all_bandwidth_tables() {
        if args.flag("csv") {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.to_markdown());
        }
    }
    Ok(())
}

/// `mbus figures`.
pub fn figures() -> CliResult {
    for (caption, art) in tables::figures() {
        println!("{caption}\n");
        println!("{art}");
    }
    Ok(())
}

/// `mbus render`.
pub fn render(args: &Args) -> CliResult {
    // Rendering needs only the topology — no workload — so N ≠ M shapes
    // like the paper's Fig. 3 (3x6x4) work without a workload flag.
    let net = FlatSpec::read(args)?.network()?;
    if args.flag("dot") {
        print!("{}", topology::render::dot_graph(&net));
    } else {
        print!("{}", topology::render::ascii_diagram(&net));
    }
    Ok(())
}

/// `mbus ratios`.
pub fn ratios() -> CliResult {
    println!("Section IV bus-halving ratios (single connection, N = 32):");
    println!("MBW(B = N) / MBW(B = N/2)\n");
    println!("| r | hierarchical | uniform |");
    println!("|---|---|---|");
    for (r, hier, unif) in tables::bus_halving_ratios() {
        println!("| {r} | {hier:.3} | {unif:.3} |");
    }
    println!("\nPaper quotes: ~1.6 / ~1.5 at r = 1.0, 1.28 / 1.2 at r = 0.5.");
    Ok(())
}

/// `mbus analyze`.
pub fn analyze(args: &Args) -> CliResult {
    let system = FlatSpec::read(args)?.build()?;
    let rate = system.rate();
    let breakdown = system.analytic()?;
    println!("network:        {}", system.network());
    println!("request rate r: {rate}");
    println!(
        "offered load:   {:.4} requests/cycle",
        breakdown.offered_load
    );
    println!(
        "bandwidth:      {:.4} requests/cycle (analytical)",
        breakdown.bandwidth
    );
    println!("acceptance:     {:.4}", breakdown.acceptance);
    if let Some(busy) = &breakdown.per_bus_busy {
        let formatted: Vec<String> = busy.iter().map(|p| format!("{p:.3}")).collect();
        println!("per-bus busy:   [{}]", formatted.join(", "));
    }
    match system.exact() {
        Ok(exact) => {
            println!("exact:          {exact:.4} requests/cycle");
            println!(
                "approx. error:  {:+.3}%",
                100.0 * (breakdown.bandwidth - exact) / exact
            );
        }
        Err(_) => println!("exact:          (network too large to enumerate)"),
    }
    let cost = system.cost();
    println!("connections:    {}", cost.connections);
    println!("fault degree:   {}", cost.fault_tolerance_degree);
    println!(
        "perf/cost:      {:.4} bandwidth per 1000 connections",
        1000.0 * breakdown.bandwidth / cost.connections as f64
    );
    Ok(())
}

/// Parses a `--fail` spec: comma-separated `bus@cycle` (permanent failure)
/// or `bus@start-end` (failure window: fail at `start`, repair at `end`).
/// Every cycle must lie inside the run (`< warmup + cycles`); windows must
/// have `end > start`.
fn parse_faults(spec: &str, total_cycles: u64) -> Result<mbus_core::sim::FaultSchedule, String> {
    use mbus_core::sim::{FaultEvent, FaultEventKind};
    let check = |cycle: u64| {
        if cycle >= total_cycles {
            Err(format!(
                "fault cycle {cycle} beyond run length {total_cycles}"
            ))
        } else {
            Ok(cycle)
        }
    };
    let mut events = Vec::new();
    for part in spec.split(',') {
        let (bus, when) = part
            .split_once('@')
            .ok_or_else(|| format!("--fail expects bus@cycle or bus@start-end, got '{part}'"))?;
        let bus: usize = bus.parse().map_err(|_| format!("bad bus '{bus}'"))?;
        if let Some((start, end)) = when.split_once('-') {
            let start: u64 = start.parse().map_err(|_| format!("bad cycle '{start}'"))?;
            let end: u64 = end.parse().map_err(|_| format!("bad cycle '{end}'"))?;
            if end <= start {
                return Err(format!("failure window '{part}' must end after it starts"));
            }
            events.push(FaultEvent {
                cycle: check(start)?,
                bus,
                kind: FaultEventKind::Fail,
            });
            events.push(FaultEvent {
                cycle: check(end)?,
                bus,
                kind: FaultEventKind::Repair,
            });
        } else {
            let cycle: u64 = when.parse().map_err(|_| format!("bad cycle '{when}'"))?;
            events.push(FaultEvent {
                cycle: check(cycle)?,
                bus,
                kind: FaultEventKind::Fail,
            });
        }
    }
    mbus_core::sim::FaultSchedule::from_events(events).map_err(|e| e.to_string())
}

/// `mbus simulate`.
pub fn simulate(args: &Args) -> CliResult {
    let flat = FlatSpec::read(args)?;
    let sim = SimSpec::read(args)?;
    let system = flat.build()?;
    let mut config = sim.config();
    if let Some(spec) = args.get("fail") {
        config = config.with_faults(parse_faults(spec, sim.cycles + sim.warmup)?);
    }

    if sim.replications > 1 {
        let report = system.simulate_replicated(&config, sim.replications)?;
        println!("replications:  {}", report.replications);
        println!("bandwidth:     {}", report.bandwidth);
        println!("acceptance:    {:.4}", report.acceptance);
    } else {
        let report = match args.get("trace") {
            Some(path) => {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
                let sink = std::io::BufWriter::new(file);
                let (report, sink) = system.simulate_traced(&config, sink)?;
                use std::io::Write as _;
                sink.into_inner()
                    .map_err(|e| format!("--trace {path}: {e}"))?
                    .flush()
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                println!("trace:         {path} ({} measured cycles)", report.cycles);
                report
            }
            None => system.simulate(&config)?,
        };
        println!(
            "cycles:        {} (+{} warmup)",
            report.cycles, report.warmup
        );
        println!("bandwidth:     {}", report.bandwidth);
        println!("offered load:  {:.4}", report.offered_load);
        println!("acceptance:    {:.4}", report.acceptance);
        if report.unreachable_rate > 0.0 {
            println!(
                "unreachable:   {:.4} requests/cycle",
                report.unreachable_rate
            );
        }
        let busy: Vec<String> = report
            .bus_utilization
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect();
        println!("bus util:      [{}]", busy.join(", "));
        if sim.resubmission {
            println!(
                "mean wait:     {:.4} cycles (max {})",
                report.mean_wait, report.max_wait
            );
        }
    }
    let analytic = system.analytic()?;
    println!(
        "analytical:    {:.4} (no-fault reference)",
        analytic.bandwidth
    );
    Ok(())
}

/// Builds a [`mbus_core::campaign::CampaignConfig`] from `--max-failures --samples
/// --limit --seed --workers --q`; shared with `mbus fabric --campaign`.
pub fn campaign_config_from(args: &Args) -> CliResult<mbus_core::campaign::CampaignConfig> {
    let mut config = mbus_core::campaign::CampaignConfig::default();
    config.max_failures = args.usize_field("max-failures")?;
    config.samples = args.get_or("samples", config.samples)?;
    config.exhaustive_limit = args.get_or("limit", config.exhaustive_limit)?;
    config.seed = args.get_or("seed", config.seed)?;
    config.workers = args.get_or("workers", config.workers)?;
    config.bus_failure_prob = args.get_or("q", config.bus_failure_prob)?;
    Ok(config)
}

/// `mbus faults`: degraded-mode bandwidth campaign over bus-failure
/// combinations, with optional simulator cross-validation.
pub fn faults(args: &Args) -> CliResult {
    use mbus_core::campaign;
    let system = FlatSpec::read(args)?.build()?;
    let (net, matrix, rate) = (system.network(), system.matrix(), system.rate());
    let config = campaign_config_from(args)?;
    let report = campaign::run_campaign(net, matrix, rate, &config)?;
    if args.flag("json") {
        println!("{}", campaign_json(&report).render());
    } else {
        print!("{}", campaign::render_markdown(&report));
    }
    if args.flag("check") {
        let cycles = args.get_or("check-cycles", 100_000u64)?;
        println!("\nCross-validation against the simulator ({cycles} cycles, worst mask per f):\n");
        println!("| mask | analytical | simulated | ±CI | gap |");
        println!("|---|---|---|---|---|");
        for level in report.levels.iter().filter(|level| level.failures > 0) {
            let mask = FaultMask::with_failures(net.buses(), &level.worst_mask)?;
            let check = campaign::cross_validate(net, matrix, rate, &mask, cycles, config.seed)?;
            let failed: Vec<String> = check.failed_buses.iter().map(usize::to_string).collect();
            println!(
                "| {{{}}} | {:.4} | {:.4} | {:.4} | {:+.4} |",
                failed.join(","),
                check.analytical,
                check.simulated,
                check.sim_half_width,
                check.gap,
            );
        }
    }
    Ok(())
}

/// The `mbus faults --json` document: the network, the availability
/// weighting, one object per failure level and, for K-class networks,
/// the per-class decay table.
fn campaign_json(report: &mbus_core::campaign::CampaignReport) -> Json {
    let levels = report
        .levels
        .iter()
        .map(|level| {
            obj(vec![
                ("failures", Json::Num(level.failures as f64)),
                ("combos_evaluated", Json::Num(level.combos_evaluated as f64)),
                ("exhaustive", Json::Bool(level.exhaustive)),
                ("mean_bandwidth", Json::Num(level.mean_bandwidth)),
                ("min_bandwidth", Json::Num(level.min_bandwidth)),
                ("max_bandwidth", Json::Num(level.max_bandwidth)),
                (
                    "mean_accessible_fraction",
                    Json::Num(level.mean_accessible_fraction),
                ),
                (
                    "min_accessible_fraction",
                    Json::Num(level.min_accessible_fraction),
                ),
                ("worst_mask", json::count_array(&level.worst_mask)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("scheme", Json::Str(report.scheme.clone())),
        ("processors", Json::Num(report.processors as f64)),
        ("memories", Json::Num(report.memories as f64)),
        ("buses", Json::Num(report.buses as f64)),
        ("rate", Json::Num(report.rate)),
        ("bus_failure_prob", Json::Num(report.bus_failure_prob)),
        ("healthy_bandwidth", Json::Num(report.healthy_bandwidth)),
        ("expected_bandwidth", Json::Num(report.expected_bandwidth)),
        ("levels", Json::Arr(levels)),
    ];
    if let Some(decay) = &report.per_class_decay {
        let rows = decay.iter().map(|row| json::num_array(row)).collect();
        fields.push(("per_class_decay", Json::Arr(rows)));
    }
    obj(fields)
}

/// The EXPERIMENTS.md "Degraded-mode bandwidth" section, shared between
/// `mbus experiments` and the fault-campaign documentation flow.
pub fn degraded_section() -> CliResult<String> {
    use mbus_core::campaign::{run_campaign, CampaignConfig};
    let n = 8;
    let b = 4;
    let rate = 1.0;
    let matrix = mbus_core::paper_params::hierarchical(n)?.matrix();
    let config = CampaignConfig::default();
    let mut out = String::new();
    out.push_str("\n## Degraded-mode bandwidth (Table I, quantified)\n\n");
    out.push_str(
        "Table I grades each scheme's fault tolerance symbolically; the fault \
         campaign (`mbus faults`) makes it quantitative. Mean analytical \
         bandwidth over every C(B, f) bus-failure combination \
         (8x8x4, hierarchical, r = 1):\n\n",
    );
    let schemes: Vec<(&str, ConnectionScheme)> = vec![
        ("full", ConnectionScheme::Full),
        ("single", ConnectionScheme::balanced_single(n, b)?),
        ("partial g=2", ConnectionScheme::PartialGroups { groups: 2 }),
        ("kclass K=4", ConnectionScheme::uniform_classes(n, b)?),
        ("crossbar", ConnectionScheme::Crossbar),
    ];
    out.push_str("| scheme | f=0 | f=1 | f=2 | f=3 | f=4 | E[BW], q=0.05 |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    let mut kclass_decay: Option<Vec<Vec<f64>>> = None;
    for (name, scheme) in schemes {
        let net = BusNetwork::new(n, n, b, scheme)?;
        let report = run_campaign(&net, &matrix, rate, &config)?;
        let cells: Vec<String> = report
            .levels
            .iter()
            .map(|level| format!("{:.3}", level.mean_bandwidth))
            .collect();
        out.push_str(&format!(
            "| {name} | {} | {:.3} |\n",
            cells.join(" | "),
            report.expected_bandwidth
        ));
        if report.per_class_decay.is_some() {
            kclass_decay = report.per_class_decay;
        }
    }
    out.push_str(
        "\nThe crossbar row is flat (no buses to lose); the full connection \
         degrades gracefully, losing one bus' worth of service per failure; \
         single and partial connections also strand the memories behind each \
         dead bus.\n\n",
    );
    out.push_str(
        "Per-class bandwidth of the K-class network under worst-case \
         (lowest-bus-first) failures — class C_j dies after exactly \
         j + B − K failures, higher classes degrade gracefully:\n\n",
    );
    if let Some(decay) = kclass_decay {
        let classes = decay.first().map(Vec::len).unwrap_or(0);
        out.push_str("| f |");
        for c in 0..classes {
            out.push_str(&format!(" C{} |", c + 1));
        }
        out.push_str("\n|---|");
        for _ in 0..classes {
            out.push_str("----|");
        }
        out.push('\n');
        for (f, row) in decay.iter().enumerate() {
            out.push_str(&format!("| {f} |"));
            for &bw in row {
                out.push_str(&format!(" {bw:.3} |"));
            }
            out.push('\n');
        }
    }
    out.push_str(
        "\nAnalytical degraded bandwidth is cross-validated against the \
         fault-injecting simulator in `tests/degraded_faults.rs` and by \
         `mbus faults --check`.\n",
    );
    Ok(out)
}

/// `mbus sweep`: CSV series of bandwidth over bus counts for every scheme.
pub fn sweep(args: &Args) -> CliResult {
    let n = args.get_or("n", 16usize)?;
    let rate = args.get_or("rate", 1.0f64)?;
    let matrix = WorkloadSpec::read(args)?.matrix(n, n)?;
    println!("scheme,n,r,buses,bandwidth");
    let bus_counts: Vec<usize> = (1..=n).collect();
    /// Builds the scheme to sweep at a given bus count, or `None` to skip.
    type SchemeAt = Box<dyn Fn(usize) -> Option<ConnectionScheme>>;
    let schemes: Vec<(&str, SchemeAt)> = vec![
        ("full", Box::new(|_| Some(ConnectionScheme::Full))),
        (
            "single",
            Box::new(move |b| ConnectionScheme::balanced_single(n, b).ok()),
        ),
        (
            "partial_g2",
            Box::new(|b| (b % 2 == 0).then_some(ConnectionScheme::PartialGroups { groups: 2 })),
        ),
        (
            "kclass_kb",
            Box::new(move |b| ConnectionScheme::uniform_classes(n, b).ok()),
        ),
        ("crossbar", Box::new(|_| Some(ConnectionScheme::Crossbar))),
    ];
    for (name, factory) in schemes {
        for &b in &bus_counts {
            let Some(scheme) = factory(b) else { continue };
            let Ok(net) = BusNetwork::new(n, n, b, scheme) else {
                continue;
            };
            let bw = memory_bandwidth(&net, &matrix, rate)?;
            println!("{name},{n},{rate},{b},{bw:.6}");
        }
    }
    Ok(())
}

/// `mbus validate`.
pub fn validate(args: &Args) -> CliResult {
    let n = args.get_or("n", 8usize)?;
    let cycles = args.get_or("cycles", 200_000u64)?;
    println!("analysis vs exact vs simulation, N = {n}, hierarchical r = 1.0\n");
    println!("| scheme | B | analytic | exact | simulated | an-err% | sim-err% |");
    println!("|---|---|---|---|---|---|---|");
    let model = mbus_core::paper_params::hierarchical(n)?;
    let b = n / 2;
    let schemes: Vec<(&str, ConnectionScheme)> = vec![
        ("full", ConnectionScheme::Full),
        ("single", ConnectionScheme::balanced_single(n, b)?),
        ("partial g=2", ConnectionScheme::PartialGroups { groups: 2 }),
        ("kclass K=B", ConnectionScheme::uniform_classes(n, b)?),
        ("crossbar", ConnectionScheme::Crossbar),
    ];
    for (name, scheme) in schemes {
        let net = BusNetwork::new(n, n, b, scheme)?;
        let system = System::new(net, &model, 1.0)?;
        let analytic = system.analytic()?.bandwidth;
        let exact = system.exact()?;
        let sim = system
            .simulate(
                &SimConfig::new(cycles)
                    .with_warmup(cycles / 20)
                    .with_seed(17),
            )?
            .bandwidth
            .mean();
        println!(
            "| {name} | {b} | {analytic:.4} | {exact:.4} | {sim:.4} | {:+.2} | {:+.2} |",
            100.0 * (analytic - exact) / exact,
            100.0 * (sim - exact) / exact,
        );
    }
    Ok(())
}

/// `mbus experiments`: the full EXPERIMENTS.md body.
pub fn experiments() -> CliResult {
    println!("# EXPERIMENTS — paper vs computed\n");
    println!(
        "Every value below is regenerated by this repository \
         (`mbus experiments`). Computed values come from the analytical \
         models; paper values are the printed tables. `(–)` marks cells \
         illegible in the source scan — regenerated but not asserted.\n"
    );
    let rows = tables::table1(16, 8, 2, 8)?;
    println!("{}", cost_table_markdown(&rows));
    println!("(Table I instantiated at N = 16, B = 8, g = 2, K = 8.)\n");
    for table in tables::all_bandwidth_tables() {
        print!("{}", table.to_markdown());
        println!(
            "**Fidelity:** max |computed − paper| over {} legible cells = {:.4} \
             (print precision is 0.01).\n",
            table.reference_cell_count(),
            table.max_abs_deviation()
        );
    }
    println!("## Section IV ratios\n");
    println!("| quantity | computed | paper |");
    println!("|---|---|---|");
    let ratios = tables::bus_halving_ratios();
    println!(
        "| halving ratio, hier, r=1.0 | {:.3} | \"almost 1.6\" |",
        ratios[0].1
    );
    println!(
        "| halving ratio, unif, r=1.0 | {:.3} | \"nearly 1.5\" |",
        ratios[0].2
    );
    println!("| halving ratio, hier, r=0.5 | {:.3} | 1.28 |", ratios[1].1);
    println!("| halving ratio, unif, r=0.5 | {:.3} | 1.2 |", ratios[1].2);

    println!("\n## Beyond the paper: independence-approximation error\n");
    println!(
        "The paper's bus-interference analysis treats per-memory request \
         indicators as independent. The exact reference (subset-transform \
         enumeration) quantifies the error:\n"
    );
    println!("| scheme (N=8, B=4, hier, r=1) | approximate | exact | rel. error |");
    println!("|---|---|---|---|");
    let model = mbus_core::paper_params::hierarchical(8)?;
    let report = exact::compare::all_schemes_error_report(8, 4, &model, 1.0)?;
    for (scheme, row) in report {
        println!(
            "| {scheme} | {:.4} | {:.4} | {:+.2}% |",
            row.approximate,
            row.exact,
            100.0 * row.relative_error
        );
    }
    println!(
        "\nThe single-connection row peaks near −6%: the balanced placement \
         aligns whole clusters with buses, which the independence \
         approximation underestimates."
    );

    println!("\n## Beyond the paper: single-connection memory placement\n");
    println!(
        "Table IV fixes only \"N/B modules per bus\"; the assignment is a \
         free design choice the paper does not explore. Under hierarchical \
         traffic it matters (N = 8, B = 4, r = 1):\n"
    );
    println!("| placement | eq (6) approximation | exact bandwidth |");
    println!("|---|---|---|");
    for (name, row) in exact::compare::single_placement_report(8, 4, &model, 1.0)? {
        println!("| {name} | {:.4} | {:.4} |", row.approximate, row.exact);
    }
    println!(
        "\nAligning clusters with buses *helps* (a cluster's 0.9 aggregate \
         share keeps its bus busy); the paper's formula cannot see the \
         difference."
    );

    println!("\n## Beyond the paper: resubmission semantics (exact Markov chain)\n");
    println!(
        "Relaxing assumption 5 (blocked requests retry instead of being \
         dropped), solved exactly for a 3x3x1 full-connection system under \
         uniform traffic and validated against the simulator:\n"
    );
    println!("| r | throughput | mean wait (cycles) |");
    println!("|---|---|---|");
    let matrix = mbus_core::workload::UniformModel::new(3, 3)?.matrix();
    let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full)?;
    for r in [0.2, 0.5, 0.8, 1.0] {
        let ss = exact::markov::resubmission_steady_state(&net, &matrix, r)?;
        println!("| {r} | {:.4} | {:.4} |", ss.throughput, ss.mean_wait);
    }

    println!("\n## Beyond the paper: NxMxB shared-leaf hierarchy\n");
    println!(
        "The paper sketches the N x M x B variant (k_n' favorite memories \
         per leaf) but only evaluates N x N x B. A 12x8xB sweep with \
         k = (2,2,3), k3' = 2, shares 0.6/0.3/0.1, r = 1:\n"
    );
    println!("| scheme | B=2 | B=4 | B=8 |");
    println!("|---|---|---|---|");
    let rows = tables::extension_nm_table();
    for scheme in ["full", "single", "partial g=2", "kclass K=2"] {
        let by_b = |b: usize| {
            rows.iter()
                .find(|(s, bb, _)| s == scheme && *bb == b)
                .map(|(_, _, bw)| format!("{bw:.3}"))
                .unwrap_or_default()
        };
        println!("| {scheme} | {} | {} | {} |", by_b(2), by_b(4), by_b(8));
    }
    println!(
        "\nNote the K = 2 row at B = 8: the paper's two-step bus assignment \
         routes class C_j only downward from bus j+B-K, so with small \
         classes the low buses are unreachable (here classes of 4 modules \
         spill at most to bus 4, leaving buses 1-3 permanently idle and \
         capping service at 5 of 8 buses). This is faithful to equation \
         (12) — a real limitation of the proposed procedure when K << B."
    );

    println!("\n## Beyond the paper: locality depth (n-level hierarchies)\n");
    println!(
        "The paper defines the model for any n but evaluates only n = 2. \
         Holding the remote share at 0.1 and deepening the hierarchy of a \
         16-processor machine (full connection, r = 1):\n"
    );
    println!("| workload | B=12 | B=16 (crossbar-like) |");
    println!("|---|---|---|");
    let configs: Vec<(&str, RequestMatrix)> = vec![
        (
            "uniform",
            mbus_core::workload::UniformModel::new(16, 16)?.matrix(),
        ),
        (
            "2-level k=(4,4), shares .6/.3/.1",
            mbus_core::paper_params::hierarchical(16)?.matrix(),
        ),
        ("3-level k=(2,2,4), shares .6/.2/.1/.1", {
            let h = mbus_core::workload::Hierarchy::paired(&[2, 2, 4])?;
            mbus_core::workload::HierarchicalModel::with_aggregate_shares(h, &[0.6, 0.2, 0.1, 0.1])?
                .matrix()
        }),
    ];
    for (name, matrix) in &configs {
        let bw = |b: usize| -> CliResult<f64> {
            let net = BusNetwork::new(16, 16, b, ConnectionScheme::Full)?;
            Ok(memory_bandwidth(&net, matrix, 1.0)?)
        };
        println!("| {name} | {:.3} | {:.3} |", bw(12)?, bw(16)?);
    }
    println!(
        "\nWith the favorite share fixed at 0.6 the depth effect is small: \
         X is dominated by m0, so a third level buys only a second-decimal \
         improvement. The model's locality benefit comes almost entirely \
         from the favorite-memory share."
    );

    println!("\n## Beyond the paper: per-processor fairness of the K-class network\n");
    println!(
        "The paper discusses per-class fault tolerance but not its flip \
         side: under hierarchical traffic a processor's favorite memory \
         lives in one class, so class connectivity becomes *processor* \
         throughput (8x8x4, K = 4, hier, r = 1, 200k simulated cycles):\n"
    );
    {
        let n = 8;
        let b = 4;
        let matrix = mbus_core::paper_params::hierarchical(n)?.matrix();
        let rows: Vec<(&str, ConnectionScheme)> = vec![
            ("full", ConnectionScheme::Full),
            ("kclass K=4", ConnectionScheme::uniform_classes(n, b)?),
        ];
        println!("| scheme | Jain fairness | per-processor completions/cycle |");
        println!("|---|---|---|");
        for (name, scheme) in rows {
            let net = BusNetwork::new(n, n, b, scheme)?;
            let mut sim = Simulator::build(&net, &matrix, 1.0)?;
            let report = sim.run(&SimConfig::new(200_000).with_warmup(5_000).with_seed(41))?;
            let rates: Vec<String> = report
                .processor_service_rates
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect();
            println!(
                "| {name} | {:.4} | [{}] |",
                report.processor_fairness(),
                rates.join(", ")
            );
        }
    }
    println!(
        "\nProcessors whose favorites sit in class C_1 (one bus) complete \
         ~40% fewer requests than those in class C_4 — the cost of tunable \
         per-class fault tolerance."
    );
    print!("{}", degraded_section()?);
    Ok(())
}

/// `mbus lint`: run the workspace static-analysis pass (`mbus-lint`).
///
/// Prints every violation (`--json` for machine output, `--sarif` for CI
/// code-scanning upload, `--unsafe-report` for the unsafe-code inventory)
/// and fails with a non-zero exit status when the workspace is not clean.
pub fn lint(args: &Args) -> CliResult {
    let root = match args.get("root") {
        Some(path) => std::path::PathBuf::from(path),
        None => find_workspace_root()?,
    };
    let report = mbus_lint::lint_workspace(&root)?;
    if report.files_scanned == 0 {
        return Err(format!(
            "no Rust sources found under {}; is --root pointing at the workspace?",
            root.display()
        )
        .into());
    }
    if args.flag("unsafe-report") {
        print!("{}", mbus_lint::render_unsafe_report(&report));
        return Ok(());
    }
    if args.flag("sarif") {
        print!("{}", mbus_lint::render_sarif(&report));
    } else if args.flag("json") {
        print!("{}", mbus_lint::render_json(&report));
    } else {
        print!("{}", mbus_lint::render_human(&report));
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", report.violations.len()).into())
    }
}

/// Walks upward from the current directory to the workspace root (the
/// first directory holding both `Cargo.toml` and `crates/`).
fn find_workspace_root() -> Result<std::path::PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(
                "could not locate the workspace root (a directory with both \
                 Cargo.toml and crates/); pass --root <path>"
                    .to_owned(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn fault_spec_parsing() {
        let schedule = parse_faults("2@100,3@200", 1_000).unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule.events()[0].bus, 2);
        assert_eq!(schedule.events()[1].cycle, 200);
        assert!(parse_faults("2-100", 1_000).is_err());
        assert!(parse_faults("x@100", 1_000).is_err());
        assert!(parse_faults("2@100", 50).is_err(), "beyond run length");
        // The run spans cycles 0..total: an event at exactly `total`
        // (= cycles + warmup at the call sites) never takes effect.
        assert!(parse_faults("2@1000", 1_000).is_err(), "at run end");
        assert!(parse_faults("2@999", 1_000).is_ok(), "last cycle is fine");
    }

    #[test]
    fn fault_window_parsing() {
        use mbus_core::sim::FaultEventKind;
        let schedule = parse_faults("1@100-500", 1_000).unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(
            (schedule.events()[0].cycle, schedule.events()[0].kind),
            (100, FaultEventKind::Fail)
        );
        assert_eq!(
            (schedule.events()[1].cycle, schedule.events()[1].kind),
            (500, FaultEventKind::Repair)
        );
        // A window given after a permanent failure of another bus parses
        // into a sorted schedule even though the repair precedes the fail
        // in input order.
        let schedule = parse_faults("3@800,1@100-500", 1_000).unwrap();
        assert_eq!(schedule.len(), 3);
        assert!(schedule
            .events()
            .windows(2)
            .all(|w| w[0].cycle <= w[1].cycle));
        // Degenerate or reversed windows and out-of-run ends are rejected.
        assert!(parse_faults("1@500-500", 1_000).is_err(), "empty window");
        assert!(parse_faults("1@500-100", 1_000).is_err(), "reversed");
        assert!(parse_faults("1@100-1000", 1_000).is_err(), "end at run end");
        // A same-cycle Fail + Repair of one bus is ambiguous -> schedule
        // construction rejects it (deterministic same-cycle rule).
        assert!(parse_faults("1@100-200,1@200", 1_000).is_err());
    }

    #[test]
    fn campaign_config_parsing() {
        let config = campaign_config_from(&args("faults")).unwrap();
        assert_eq!(config, mbus_core::campaign::CampaignConfig::default());
        let config = campaign_config_from(&args(
            "faults --max-failures 2 --samples 64 --limit 100 --seed 9 --workers 3 --q 0.1",
        ))
        .unwrap();
        assert_eq!(config.max_failures, Some(2));
        assert_eq!(config.samples, 64);
        assert_eq!(config.exhaustive_limit, 100);
        assert_eq!(config.seed, 9);
        assert_eq!(config.workers, 3);
        assert_eq!(config.bus_failure_prob, 0.1);
        assert!(campaign_config_from(&args("faults --max-failures x")).is_err());
    }

    #[test]
    fn faults_json_carries_the_report() {
        use mbus_core::campaign::{run_campaign, CampaignConfig, CampaignReport};
        let run = |scheme: &str| -> CampaignReport {
            let spec = args(&format!("faults --scheme {scheme} --n 8 --b 4"));
            let system = FlatSpec::read(&spec).unwrap().build().unwrap();
            let (net, matrix) = (system.network(), system.matrix());
            run_campaign(net, matrix, system.rate(), &CampaignConfig::default()).unwrap()
        };
        let report = run("kclass");
        let doc = json::parse(&campaign_json(&report).render()).unwrap();
        let expected = doc.get("expected_bandwidth").and_then(Json::as_f64);
        assert_eq!(expected, Some(report.expected_bandwidth));
        let levels = doc.get("levels").and_then(Json::as_array).unwrap();
        assert_eq!(levels.len(), report.levels.len());
        for (level, summary) in levels.iter().zip(&report.levels) {
            let combos = level.get("combos_evaluated").and_then(Json::as_usize);
            assert_eq!(combos, Some(summary.combos_evaluated));
            let mask = json::count_array(&summary.worst_mask);
            assert_eq!(level.get("worst_mask"), Some(&mask));
        }
        let decay = report.per_class_decay.as_ref().unwrap();
        let rows = Json::Arr(decay.iter().map(|row| json::num_array(row)).collect());
        assert_eq!(doc.get("per_class_decay"), Some(&rows));
        assert!(campaign_json(&run("full")).get("per_class_decay").is_none());
    }

    #[test]
    fn render_supports_n_not_equal_m() {
        // The paper's Fig. 3 shape must render without a workload flag.
        assert!(render(&args(
            "render --scheme kclass --n 3 --m 6 --b 4 --classes 3"
        ))
        .is_ok());
    }

    #[test]
    fn table_command_validates_id() {
        assert!(table(&args("table 9")).is_err());
        assert!(table(&args("table")).is_err());
    }
}
