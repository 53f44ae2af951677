//! `sim_replicate`: a library-only replicated design sweep.

use crate::gen::{self, DesignPoint, LANE_CYCLES_PER_POINT, REPLICATIONS};
use crate::report::{median, quantile, summarize, Outcome, Sample, FAILED_LATENCY_NS};
use crate::trace::{layer_table, Span, SpanLog};
use mbus_core::prelude::{
    BusNetwork, ConnectionScheme, HierarchicalModel, RequestMatrix, RequestModel, SimConfig,
    System, UniformModel,
};
use mbus_core::sim::runner::{
    run_replications_scalar_with_workers, run_replications_with_workers, ReplicationReport,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Largest accepted |sim mean − exact| / exact over the M ≤ 16 points.
const EXACT_GAP_GATE: f64 = 0.02;
/// Largest M for which the exact reference is computed.
const EXACT_MAX_M: usize = 16;

fn scheme(point: &DesignPoint) -> Result<ConnectionScheme, String> {
    let (m, b) = (point.n, point.b);
    match point.scheme {
        "full" => Ok(ConnectionScheme::Full),
        "single" => ConnectionScheme::balanced_single(m, b).map_err(|e| e.to_string()),
        "partial" => Ok(ConnectionScheme::PartialGroups { groups: 2 }),
        "kclass" => ConnectionScheme::uniform_classes(m, b).map_err(|e| e.to_string()),
        "crossbar" => Ok(ConnectionScheme::Crossbar),
        other => Err(format!("unknown scheme {other}")),
    }
}

fn matrix(point: &DesignPoint) -> Result<RequestMatrix, String> {
    match point.traffic {
        "hier" => HierarchicalModel::two_level_paired(point.n, 4, [0.6, 0.3, 0.1])
            .map(|model| model.matrix())
            .map_err(|e| e.to_string()),
        "uniform" => UniformModel::new(point.n, point.n)
            .map(|model| model.matrix())
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown traffic {other}")),
    }
}

/// Builds every point's request matrix and `System`.
fn prepare(points: &[DesignPoint], log: &mut SpanLog) -> Result<Vec<System>, String> {
    points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let t = log.mark();
            let matrix = matrix(point)?;
            log.close(0, "workload.matrix_build", t, 0, i as u64);
            let t = log.mark();
            let system = BusNetwork::new(point.n, point.n, point.b, scheme(point)?)
                .map_err(|e| e.to_string())
                .and_then(|net| {
                    System::from_matrix(net, matrix, point.rate).map_err(|e| e.to_string())
                });
            log.close(0, "system.new", t, 0, i as u64);
            system
        })
        .collect()
}

/// FNV-1a over every value of every per-replication report.
pub fn digest(report: &ReplicationReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for r in &report.reports {
        eat(r.cycles);
        eat(r.bandwidth.mean().to_bits());
        eat(r.offered_load.to_bits());
        eat(r.acceptance.to_bits());
        eat(r.unreachable_rate.to_bits());
        eat(r.mean_wait.to_bits());
        eat(r.max_wait);
        for x in r
            .bus_utilization
            .iter()
            .chain(&r.memory_service_rates)
            .chain(&r.processor_service_rates)
        {
            eat(x.to_bits());
        }
    }
    h
}

fn config(point: &DesignPoint) -> SimConfig {
    SimConfig::new(gen::CYCLES)
        .with_warmup(gen::WARMUP)
        .with_seed(point.seed)
}

/// What the measurement loop saw.
#[derive(Default)]
struct Window {
    latencies: Vec<Sample>,
    failed: u64,
    wall: f64,
    lane_cycles: u64,
    /// (point index, ns) of each successful `nproc`-worker call.
    point_ns: Vec<(usize, u64)>,
    /// Engine pass only: (point index, 1-worker batched ns, scalar ns).
    engine_ns: Vec<(usize, u64, u64)>,
}

/// Per-point results that must repeat exactly.
struct Seen {
    digest: Vec<Option<u64>>,
    mean: Vec<Option<f64>>,
    problems: Vec<String>,
}

impl Seen {
    /// Records a point's report digest, or checks it against the first one.
    fn check(&mut self, i: usize, report: &ReplicationReport, what: &str) {
        let d = digest(report);
        match self.digest[i] {
            Some(prev) if prev != d => self
                .problems
                .push(format!("point {i}: digest changed ({what})")),
            Some(_) => {}
            None => {
                self.digest[i] = Some(d);
                self.mean[i] = Some(report.bandwidth.mean());
            }
        }
    }
}

/// Which calls a measurement pass makes per point.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// `System::simulate_replicated` on `nproc` workers: the workload.
    Wide,
    /// The batched engine on 1 worker, then the scalar engine on 1 worker:
    /// the per-layer engine figures.
    Engines,
}

/// Runs points in round order from `*next` until `seconds` pass, always
/// finishing the current block so the size mix stays balanced.
fn measure(
    points: &[DesignPoint],
    systems: &[System],
    next: &mut usize,
    seconds: f64,
    pass: Pass,
    log: &mut SpanLog,
    seen: &mut Seen,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let block = gen::BLOCK_SIZES.len();
    while !(next.is_multiple_of(block) && Instant::now() >= deadline) {
        let i = *next % points.len();
        let request = *next as u64;
        *next += 1;
        let (point, system) = (&points[i], &systems[i]);
        let cfg = config(point);
        if pass == Pass::Engines {
            let (net, matrix, rate) = (system.network(), system.matrix(), system.rate());
            let t = log.mark();
            let t0 = Instant::now();
            let single = run_replications_with_workers(net, matrix, rate, &cfg, REPLICATIONS, 1);
            let single_ns = t0.elapsed().as_nanos() as u64;
            log.close(0, "sim.replicate.1worker", t, 0, request);
            let t = log.mark();
            let t0 = Instant::now();
            let scalar =
                run_replications_scalar_with_workers(net, matrix, rate, &cfg, REPLICATIONS, 1);
            let scalar_ns = t0.elapsed().as_nanos() as u64;
            log.close(0, "sim.replicate.scalar", t, 0, request);
            match (single, scalar) {
                (Ok(single), Ok(_)) => {
                    seen.check(i, &single, "1 worker against nproc workers");
                    w.engine_ns.push((i, single_ns, scalar_ns));
                }
                (Err(e), _) | (_, Err(e)) => seen.problems.push(format!("point {i}: {e}")),
            }
            continue;
        }
        let t = log.mark();
        let t0 = Instant::now();
        let report = system.simulate_replicated(&cfg, REPLICATIONS);
        let ns = t0.elapsed().as_nanos() as u64;
        log.close(0, "sim.replicate", t, 0, request);
        let end_ns = start.elapsed().as_nanos() as u64;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                w.failed += 1;
                w.latencies.push(Sample {
                    end_ns,
                    latency_ns: FAILED_LATENCY_NS,
                });
                seen.problems.push(format!("point {i}: {e}"));
                continue;
            }
        };
        w.latencies.push(Sample {
            end_ns,
            latency_ns: ns,
        });
        w.point_ns.push((i, ns));
        w.lane_cycles += LANE_CYCLES_PER_POINT;
        if report.engine != "batched" {
            seen.problems
                .push(format!("point {i}: ran the {} engine", report.engine));
        }
        seen.check(i, &report, "between rounds");
    }
    w.wall = start.elapsed().as_secs_f64();
    w
}

/// Re-runs the first block on one worker: reports must not depend on the
/// worker count.
fn check_worker_counts(points: &[DesignPoint], systems: &[System], seen: &mut Seen) {
    for i in 0..gen::BLOCK_SIZES.len().min(points.len()) {
        if seen.digest[i].is_none() {
            continue;
        }
        let s = &systems[i];
        let cfg = config(&points[i]);
        match run_replications_with_workers(
            s.network(),
            s.matrix(),
            s.rate(),
            &cfg,
            REPLICATIONS,
            1,
        ) {
            Ok(report) => seen.check(i, &report, "1 worker against nproc workers"),
            Err(e) => seen.problems.push(format!("point {i}: {e}")),
        }
    }
}

/// Largest |sim mean − exact| / exact over the points with M ≤ 16 that ran.
fn exact_gap(points: &[DesignPoint], systems: &[System], seen: &mut Seen) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, point) in points.iter().enumerate() {
        let Some(mean) = seen.mean[i] else { continue };
        if point.n > EXACT_MAX_M {
            continue;
        }
        match systems[i].exact() {
            Ok(exact) => worst = worst.max((mean - exact).abs() / exact),
            Err(e) => seen.problems.push(format!("point {i}: exact failed: {e}")),
        }
    }
    worst
}

/// First `nproc`-call time of each point in a window.
fn first_ns(w: &Window) -> HashMap<usize, u64> {
    let mut first = HashMap::new();
    for &(i, ns) in &w.point_ns {
        first.entry(i).or_insert(ns);
    }
    first
}

/// Traced over untraced `nproc`-call time, minus one, summed over the
/// points both windows ran (first run of each).
fn overhead(plain: &Window, traced: &Window) -> f64 {
    let base = first_ns(plain);
    let (mut t, mut p) = (0u64, 0u64);
    for (i, ns) in first_ns(traced) {
        if let Some(&b) = base.get(&i) {
            t += ns;
            p += b;
        }
    }
    if p == 0 {
        0.0
    } else {
        t as f64 / p as f64 - 1.0
    }
}

/// Runs `sim_replicate`; `seconds` is the measured window.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<(Outcome, Vec<Span>), String> {
    let points = gen::design_points(seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let epoch = Instant::now();
    let mut log = SpanLog::new(traced, epoch, 1);

    let mut setup_times = Vec::new();
    let mut systems = Vec::new();
    for _ in 0..if traced { 1 } else { SETUPS } {
        let start = Instant::now();
        systems = prepare(&points, &mut log)?;
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut seen = Seen {
        digest: vec![None; points.len()],
        mean: vec![None; points.len()],
        problems: Vec::new(),
    };
    let mut next = 0;

    if !traced {
        let mut w = measure(
            &points,
            &systems,
            &mut next,
            seconds,
            Pass::Wide,
            &mut log,
            &mut seen,
        );
        check_worker_counts(&points, &systems, &mut seen);
        let gap = exact_gap(&points, &systems, &mut seen);
        if gap > EXACT_GAP_GATE {
            seen.problems
                .push(format!("sim/exact gap {gap:.4} exceeds {EXACT_GAP_GATE}"));
        }
        for p in seen.problems.iter().take(5) {
            out.fail_gate(p.clone());
        }
        out.attempted = w.latencies.len() as u64;
        out.failed = w.failed;
        // A sub-window is one round: every design point once.
        let summary = summarize(&mut w.latencies, points.len()).ok_or("no points ran")?;
        out.check_tail("latency p99", &summary.p99);
        out.notes.push(format!(
            "latency p99 {:.1} us; {} sub-windows of one round ({} points)",
            summary.p99.us,
            summary.windows,
            points.len()
        ));
        out.set("setup_s", median(&setup_times));
        out.set("req_per_s", summary.req_per_s);
        out.set("latency_p50_us", summary.p50.us);
        out.set(
            "ok_frac",
            1.0 - w.failed as f64 / out.attempted.max(1) as f64,
        );
        out.notes.push(format!(
            "sim_lane_cycles_per_s {:.1} (untraced), sim_exact_rel_gap {gap:.6}",
            w.lane_cycles as f64 / w.wall
        ));
        return Ok((out, Vec::new()));
    }

    // Three passes over the same points from the start of the round: an
    // untraced one (the reference), a traced one (the overhead compares the
    // two on shared points), and the 1-worker and scalar engine runs.
    let third = seconds / 3.0;
    let mut plain_log = SpanLog::new(false, epoch, 0);
    let runs = |pass, log: &mut SpanLog, seen: &mut Seen| {
        let mut next = 0;
        measure(&points, &systems, &mut next, third, pass, log, seen)
    };
    let plain_w = runs(Pass::Wide, &mut plain_log, &mut seen);
    let traced_w = runs(Pass::Wide, &mut log, &mut seen);
    let engines_w = runs(Pass::Engines, &mut log, &mut seen);
    let gap = exact_gap(&points, &systems, &mut seen);
    if gap > EXACT_GAP_GATE {
        seen.problems
            .push(format!("sim/exact gap {gap:.4} exceeds {EXACT_GAP_GATE}"));
    }
    for p in seen.problems.iter().take(5) {
        out.fail_gate(p.clone());
    }
    out.attempted =
        (plain_w.latencies.len() + traced_w.latencies.len() + engines_w.engine_ns.len()) as u64;
    out.failed = plain_w.failed + traced_w.failed;

    out.set(
        "sim.lane_cycles_per_s",
        plain_w.lane_cycles as f64 / plain_w.wall,
    );
    out.set("trace.overhead_frac", overhead(&plain_w, &traced_w));
    out.set("sim.exact_rel_gap", gap);
    let mut plain_ns: Vec<u64> = plain_w.latencies.iter().map(|s| s.latency_ns).collect();
    plain_ns.sort_unstable();
    let p99 = quantile(&plain_ns, 0.99).ok_or("no points ran")?;
    out.set("latency.p99_us", p99.us);
    out.set("latency.p99_tail_samples", p99.beyond as f64);

    // Per contender path, SWAR (N <= 8) and requester table (N > 8): summed
    // 1-worker batched ns, scalar ns, lane-cycles; and over all points the
    // 1-worker and untraced nproc ns of the points both passes ran.
    let wide = first_ns(&plain_w);
    let mut sums = [[0u64; 3]; 2];
    let (mut single_all, mut wide_all) = (0u64, 0u64);
    for &(i, single, scalar) in &engines_w.engine_ns {
        let path = usize::from(points[i].n > 8);
        sums[path][0] += single;
        sums[path][1] += scalar;
        sums[path][2] += LANE_CYCLES_PER_POINT;
        if let Some(&ns) = wide.get(&i) {
            single_all += single;
            wide_all += ns;
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set(
        "sim.batched_swar_ns_per_lane_cycle",
        ratio(sums[0][0], sums[0][2]),
    );
    out.set(
        "sim.batched_table_ns_per_lane_cycle",
        ratio(sums[1][0], sums[1][2]),
    );
    out.set("sim.batched_vs_scalar.swar", ratio(sums[0][1], sums[0][0]));
    out.set("sim.batched_vs_scalar.table", ratio(sums[1][1], sums[1][0]));
    out.set("stats.parallel.speedup", ratio(single_all, wide_all));

    let table = layer_table(&log.spans);
    let p50_of = |name: &str| table.get(name).map_or(0.0, |row| row.p50_us);
    out.set("workload.matrix_build_us", p50_of("workload.matrix_build"));
    out.set("system.new_us", p50_of("system.new"));
    out.set("trace.spans", log.spans.len() as f64);
    Ok((out, log.spans))
}
