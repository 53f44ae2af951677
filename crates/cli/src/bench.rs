//! `mbus bench` — the workspace throughput harness.
//!
//! Five measurements, reported to stdout and written as JSON:
//!
//! 1. **Engine throughput**: simulated cycles/sec of the scalar
//!    [`Simulator`] on the 32×32×8 full-connection network under
//!    hierarchical traffic with resubmission — the configuration the
//!    zero-allocation work targets. (The engine's reports are pinned by
//!    the golden hashes in `crates/sim/tests/golden.rs`, not here.)
//! 2. **Sweep throughput**: analytical sweep points/sec of
//!    [`bus_sweep_with_workers`] serial (1 worker) vs parallel (all cores)
//!    on a 64-point full-connection sweep at N = 64. On a single-core
//!    machine the parallel run would just repeat the serial measurement, so
//!    it is skipped and no speedup is reported.
//! 3. **Replication scaling** (`--scaling`):
//!    replications/sec of the batched SoA lane engine against the scalar
//!    engine on a single worker — the per-replication amortization the
//!    batching work targets — on both contender paths: the paper's 8×8×4
//!    network (packed-word SWAR path, `"scaling"`) plus the batched
//!    engine's throughput at 1, 2, 4, … workers (the work-stealing pool's
//!    scaling curve; one point on a single-core machine), and 64×64×16 at
//!    r = 0.5 (requester-table path, `"scaling_table"`, one worker). The
//!    two engines follow different
//!    sampling specs, so the gate is statistical agreement of the mean
//!    bandwidth, plus bit-exact determinism of the batched reports
//!    across worker counts.
//! 4. **Fabric** (`--fabric`): routed fabric simulator cycles/sec at tree
//!    depths 2 and 3 against the flat engine on each fabric's flattened
//!    equivalent network, with the analytic decomposition's bandwidth gap
//!    per depth.
//! 5. **Exact engines** (`--exact`): the
//!    subset-transform requested-set pmf against the retained
//!    per-processor DP on a 256×16 hierarchical workload (identical
//!    results, `O(G·2^M + 2^M·M)` vs `O(N·2^M·M)` work), and the lumped
//!    Markov chain solving a 16×8×4 resubmission model the unlumped chain
//!    rejects as too large.
//!
//! With none of `--scaling`, `--fabric` and `--exact`, every section runs;
//! otherwise exactly the named sections run (engine and sweep throughput
//! have no flag and run only in the full set).
//!
//! Timings take the best of `--reps` repetitions, with the two sides of each
//! comparison interleaved rep by rep so background load on a shared machine
//! penalizes both alike rather than whichever happened to run second.

use crate::args::Args;
use mbus_core::analysis::sweep::bus_sweep_with_workers;
use mbus_core::exact;
use mbus_core::prelude::*;
use mbus_core::sim::runner::{
    run_replications_scalar_with_workers, run_replications_with_workers,
};
use mbus_core::stats::parallel::available_workers;
use std::time::Instant;

/// Best-of-`reps` wall times of `a` and `b`, interleaved (a, b, a, b, …) so
/// background load on a shared machine hits both measurements alike instead
/// of skewing whichever ran second.
fn best_seconds_interleaved<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// Best-of-`reps` wall time of a single measurement.
fn best_seconds<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct EngineResult {
    total_cycles: u64,
    cycles_per_sec: f64,
}

/// Times the scalar engine on one resubmission run.
fn engine_benchmark(
    n: usize,
    b: usize,
    cycles: u64,
    seed: u64,
    reps: usize,
) -> Result<EngineResult, String> {
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let config = SimConfig::new(cycles)
        .with_warmup(cycles / 20)
        .with_seed(seed)
        .with_resubmission(true);
    let total_cycles = cycles + cycles / 20;

    let mut sim = Simulator::build(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    // `run` reseeds from the config, so this checked run does not perturb
    // the timed runs below.
    sim.run(&config).map_err(|e| e.to_string())?;
    let secs = best_seconds(reps, || {
        // lint:allow(no_panic, the same run succeeded above; timing closures must stay Result-free)
        sim.run(&config).expect("checked above");
    });
    Ok(EngineResult {
        total_cycles,
        cycles_per_sec: total_cycles as f64 / secs,
    })
}

struct SweepResult {
    points: usize,
    /// Worker threads detected via `std::thread::available_parallelism`
    /// (reported even when the parallel measurement is skipped).
    workers: usize,
    serial_pps: f64,
    /// `None` on a single-core machine: a "parallel" run with one worker
    /// is the serial run again, and its ≈1.0x "speedup" is pure noise, so
    /// the measurement is skipped rather than reported.
    parallel_pps: Option<f64>,
}

/// Times a full-connection analytical bus sweep serially and — when more
/// than one worker is available — in parallel.
fn sweep_benchmark(n: usize, reps: usize) -> Result<SweepResult, String> {
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let bus_counts: Vec<usize> = (1..=n).collect();
    let factory = |_| Ok(ConnectionScheme::Full);
    let workers = available_workers();

    let serial = bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, 1)
        .map_err(|e| e.to_string())?;

    if workers <= 1 {
        let serial_secs = best_seconds(reps, || {
            // lint:allow(no_panic, the same sweep succeeded above; timing closures must stay Result-free)
            bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, 1).unwrap();
        });
        return Ok(SweepResult {
            points: bus_counts.len(),
            workers,
            serial_pps: bus_counts.len() as f64 / serial_secs,
            parallel_pps: None,
        });
    }

    let parallel = bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, workers)
        .map_err(|e| e.to_string())?;
    if serial != parallel {
        return Err("serial and parallel sweeps diverged — benchmark void".into());
    }

    let (serial_secs, parallel_secs) = best_seconds_interleaved(
        reps,
        || {
            // lint:allow(no_panic, the same sweep succeeded in the divergence check above; timing closures must stay Result-free)
            bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, 1).unwrap();
        },
        || {
            // lint:allow(no_panic, the same sweep succeeded in the divergence check above; timing closures must stay Result-free)
            bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, workers).unwrap();
        },
    );
    Ok(SweepResult {
        points: bus_counts.len(),
        workers,
        serial_pps: bus_counts.len() as f64 / serial_secs,
        parallel_pps: Some(bus_counts.len() as f64 / parallel_secs),
    })
}

/// One `--scaling` geometry: an N×N×B full network under hierarchical
/// traffic at rate `rate`.
struct ScalingCase {
    n: usize,
    b: usize,
    rate: f64,
    /// Also walk the batched engine up the worker counts.
    curve: bool,
}

/// The `--scaling` geometries and their JSON keys: the paper's network
/// (N ≤ 8, the batched engine's packed-word path) with the worker curve,
/// and the largest eligible network (its requester-table path).
const SCALING_CASES: [(&str, ScalingCase); 2] = [
    (
        "scaling",
        ScalingCase {
            n: 8,
            b: 4,
            rate: 1.0,
            curve: true,
        },
    ),
    (
        "scaling_table",
        ScalingCase {
            n: 64,
            b: 16,
            rate: 0.5,
            curve: false,
        },
    ),
];

struct ScalingResult {
    replications: usize,
    /// Cycles per replication (including warmup).
    total_cycles: u64,
    /// Scalar engine, one worker.
    scalar_rps: f64,
    /// Batched SoA engine, one worker.
    batched_rps: f64,
    /// Batched replications/sec at each measured worker count,
    /// ascending; the first entry is always `(1, batched_rps)`.
    curve: Vec<(usize, f64)>,
}

impl ScalingResult {
    /// Single-worker batched-over-scalar speedup — the headline number.
    fn speedup(&self) -> f64 {
        self.batched_rps / self.scalar_rps
    }

    /// Single-worker batched wall time per lane-cycle (one replication
    /// advanced one cycle), in nanoseconds.
    fn batched_ns_per_lane_cycle(&self) -> f64 {
        1e9 / (self.batched_rps * self.total_cycles as f64)
    }
}

/// Times replicated runs on the batched SoA engine against the scalar
/// engine (one worker each), then, if `case.curve`, walks the batched
/// engine up the worker counts. Worker counts double from 1 and always
/// include the detected maximum.
fn scaling_benchmark(
    case: &ScalingCase,
    cycles: u64,
    seed: u64,
    replications: usize,
    reps: usize,
) -> Result<ScalingResult, String> {
    let (n, b, rate) = (case.n, case.b, case.rate);
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let config = SimConfig::new(cycles).with_warmup(cycles / 20).with_seed(seed);
    let total_cycles = cycles + cycles / 20;

    // Gates before timing: the engines follow different sampling specs,
    // so the cross-check is statistical (mean bandwidth) rather than
    // bit-exact; batched reports, however, must be deterministic across
    // worker counts.
    let batched = run_replications_with_workers(&net, &matrix, rate, &config, replications, 1)
        .map_err(|e| e.to_string())?;
    let scalar =
        run_replications_scalar_with_workers(&net, &matrix, rate, &config, replications, 1)
            .map_err(|e| e.to_string())?;
    if batched.engine != "batched" || scalar.engine != "scalar" {
        return Err("engine selection gate failed — benchmark void".into());
    }
    if (batched.bandwidth.mean() - scalar.bandwidth.mean()).abs() > 0.05 {
        return Err(format!(
            "batched ({}) and scalar ({}) means diverged — benchmark void",
            batched.bandwidth.mean(),
            scalar.bandwidth.mean()
        ));
    }

    let (batched_secs, scalar_secs) = best_seconds_interleaved(
        reps,
        || {
            run_replications_with_workers(&net, &matrix, rate, &config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
        || {
            run_replications_scalar_with_workers(&net, &matrix, rate, &config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
    );
    let batched_rps = replications as f64 / batched_secs;

    let mut curve = vec![(1usize, batched_rps)];
    let max_workers = if case.curve { available_workers() } else { 1 };
    let mut counts: Vec<usize> = std::iter::successors(Some(2usize), |w| Some(w * 2))
        .take_while(|&w| w < max_workers)
        .collect();
    if max_workers > 1 {
        counts.push(max_workers);
    }
    for workers in counts {
        let wide =
            run_replications_with_workers(&net, &matrix, rate, &config, replications, workers)
                .map_err(|e| e.to_string())?;
        if wide.reports != batched.reports {
            return Err(format!(
                "batched reports changed at {workers} workers — benchmark void"
            ));
        }
        let secs = best_seconds(reps, || {
            run_replications_with_workers(&net, &matrix, rate, &config, replications, workers)
                // lint:allow(no_panic, the same run succeeded in the determinism gate above; timing closures must stay Result-free)
                .expect("checked above");
        });
        curve.push((workers, replications as f64 / secs));
    }

    Ok(ScalingResult {
        replications,
        total_cycles,
        scalar_rps: replications as f64 / scalar_secs,
        batched_rps,
        curve,
    })
}

struct FabricBenchEntry {
    shape: String,
    links: usize,
    /// Cycles per run (including warmup).
    total_cycles: u64,
    /// Routed fabric simulator, cycles/sec.
    fabric_cps: f64,
    /// Flat [`Simulator`] on the flattened equivalent network, cycles/sec.
    flat_cps: f64,
    /// Analytic decomposition bandwidth.
    analytic_bw: f64,
    /// Simulated mean bandwidth.
    sim_bw: f64,
}

impl FabricBenchEntry {
    /// `|analytic − sim| / sim`: the cross-validation gap.
    fn rel_gap(&self) -> f64 {
        if self.sim_bw == 0.0 {
            0.0
        } else {
            (self.analytic_bw - self.sim_bw).abs() / self.sim_bw
        }
    }
}

/// Times the routed fabric simulator at depths 2 and 3 against the flat
/// engine on each fabric's flattened equivalent network (same processors,
/// same workload, all local buses pooled), and records the analytic
/// decomposition's bandwidth gap at each depth.
fn fabric_benchmark(
    cycles: u64,
    seed: u64,
    reps: usize,
) -> Result<Vec<FabricBenchEntry>, String> {
    use mbus_core::fabric::{analyze_fabric, FabricSimulator, FabricSpec, FabricTopology};
    const RATE: f64 = 0.5;
    const LOCALITY: f64 = 0.6;
    let mut entries = Vec::new();
    for ks in [vec![4usize, 4], vec![4, 2, 2]] {
        let spec = FabricSpec {
            ks: ks.clone(),
            local_buses: 2,
            uplink_width: 1,
            locality: LOCALITY,
        };
        let (topo, matrix) = spec.build().map_err(|e| e.to_string())?;
        let config = SimConfig::new(cycles).with_warmup(cycles / 10).with_seed(seed);
        let total_cycles = cycles + cycles / 10;

        let mut fabric_sim =
            FabricSimulator::build(&topo, &matrix, RATE).map_err(|e| e.to_string())?;
        let report = fabric_sim.run(&config).map_err(|e| e.to_string())?;
        let analysis = analyze_fabric(&topo, &matrix, RATE, &[]).map_err(|e| e.to_string())?;

        let flat_net = topo.flat_equivalent().map_err(|e| e.to_string())?;
        let mut flat = Simulator::build(&flat_net, &matrix, RATE).map_err(|e| e.to_string())?;
        flat.run(&config).map_err(|e| e.to_string())?;

        let (fabric_secs, flat_secs) = best_seconds_interleaved(
            reps,
            || {
                // lint:allow(no_panic, the same run succeeded in the setup pass above; timing closures must stay Result-free)
                fabric_sim.run(&config).expect("checked above");
            },
            || {
                // lint:allow(no_panic, the same run succeeded in the setup pass above; timing closures must stay Result-free)
                flat.run(&config).expect("checked above");
            },
        );
        entries.push(FabricBenchEntry {
            shape: ks
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("x"),
            links: topo.links().len(),
            total_cycles,
            fabric_cps: total_cycles as f64 / fabric_secs,
            flat_cps: total_cycles as f64 / flat_secs,
            analytic_bw: analysis.bandwidth,
            sim_bw: report.bandwidth.mean(),
        });
    }
    Ok(entries)
}

struct ExactResult {
    n: usize,
    m: usize,
    b: usize,
    groups: usize,
    dp_seconds: f64,
    transform_seconds: f64,
    lumped_n: usize,
    lumped_m: usize,
    lumped_b: usize,
    lumped_states: usize,
    lumped_throughput: f64,
    lumped_seconds: f64,
    unlumped_rejected: bool,
    /// Cross-sweep pmf memo counters at the end of the run.
    pmf_cache: mbus_core::stats::cache::CacheStats,
    /// Served-set lookup-table memo counters at the end of the run.
    served_cache: mbus_core::stats::cache::CacheStats,
}

impl ExactResult {
    fn speedup(&self) -> f64 {
        self.dp_seconds / self.transform_seconds
    }
}

/// Times the subset-transform enumeration against the retained DP, and the
/// lumped Markov chain on a size the unlumped chain rejects.
fn exact_benchmark(reps: usize) -> Result<ExactResult, String> {
    // Transform vs DP: 256 processors over 16 memories, hierarchical
    // workload with 16 clusters of 16 (G = 16 distinct rows), full
    // connection with 8 buses.
    let (n, m, b) = (256usize, 16usize, 8usize);
    let hierarchy = Hierarchy::shared(&[16, 16], 1).map_err(|e| e.to_string())?;
    let model = HierarchicalModel::with_aggregate_shares(hierarchy, &[0.6, 0.4])
        .map_err(|e| e.to_string())?;
    let matrix = model.matrix();
    let groups = matrix.groups().len();
    let net = BusNetwork::new(n, m, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;

    // Both engines must agree exactly before their speeds are compared.
    let dp_bw = exact::enumerate::exact_bandwidth_dp(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    let tf_bw = exact::transform::transform_bandwidth(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    if (dp_bw - tf_bw).abs() > 1e-9 {
        return Err(format!(
            "transform ({tf_bw}) and DP ({dp_bw}) engines diverged — benchmark void"
        ));
    }

    // Time the pmf construction (the entire asymptotic difference); the
    // transform side calls the uncached entry point so the cross-sweep
    // cache cannot flatter the measurement.
    let (dp_seconds, transform_seconds) = best_seconds_interleaved(
        reps,
        || {
            // lint:allow(no_panic, the same computation succeeded in the divergence check above; timing closures must stay Result-free)
            exact::enumerate::requested_set_pmf_dp(&matrix, 1.0).expect("checked above");
        },
        || {
            // lint:allow(no_panic, the same computation succeeded in the divergence check above; timing closures must stay Result-free)
            exact::transform::requested_set_pmf(&matrix, 1.0).expect("checked above");
        },
    );

    // Lumped Markov chain: a 16×8×4 uniform resubmission model. The
    // unlumped chain needs (M+1)^N states and must reject it; the lumped
    // chain solves it from occupancy counts.
    let (ln, lm, lb) = (16usize, 8usize, 4usize);
    let lu_net = BusNetwork::new(ln, lm, lb, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let lu_matrix = UniformModel::new(ln, lm).map_err(|e| e.to_string())?.matrix();
    let unlumped_rejected = matches!(
        exact::markov::resubmission_steady_state(&lu_net, &lu_matrix, 1.0),
        Err(exact::ExactError::TooLarge { .. })
    );
    let steady =
        exact::lumped::lumped_steady_state(&lu_net, &lu_matrix, 1.0).map_err(|e| e.to_string())?;
    let lumped_seconds = best_seconds(reps, || {
        // lint:allow(no_panic, the same chain solved successfully above; timing closures must stay Result-free)
        exact::lumped::lumped_steady_state(&lu_net, &lu_matrix, 1.0).expect("solved above");
    });

    Ok(ExactResult {
        n,
        m,
        b,
        groups,
        dp_seconds,
        transform_seconds,
        lumped_n: ln,
        lumped_m: lm,
        lumped_b: lb,
        lumped_states: steady.states,
        lumped_throughput: steady.throughput,
        lumped_seconds,
        unlumped_rejected,
        pmf_cache: exact::transform::pmf_cache_stats(),
        served_cache: exact::memo::served_table_cache_stats(),
    })
}

/// The `"engine"` JSON section.
fn engine_json(n: usize, b: usize, cycles: u64, seed: u64, engine: &EngineResult) -> String {
    format!(
        "  \"engine\": {{\n    \"n\": {n},\n    \"m\": {n},\n    \"b\": {b},\n    \
         \"scheme\": \"full\",\n    \"workload\": \"hierarchical\",\n    \"rate\": 1.0,\n    \
         \"resubmission\": true,\n    \"cycles\": {cycles},\n    \"seed\": {seed},\n    \
         \"total_cycles_per_run\": {total},\n    \
         \"optimized_cycles_per_sec\": {cps:.1}\n  }}",
        total = engine.total_cycles,
        cps = engine.cycles_per_sec,
    )
}

/// The `"sweep"` JSON section. With one worker the parallel measurement is
/// skipped, so neither `parallel_points_per_sec` nor `speedup` is emitted.
fn sweep_json(sweep_n: usize, sweep: &SweepResult) -> String {
    let parallel = match sweep.parallel_pps {
        Some(ppps) => format!(
            ",\n    \"parallel_points_per_sec\": {ppps:.2},\n    \
             \"speedup\": {sspeed:.3}",
            sspeed = ppps / sweep.serial_pps,
        ),
        None => String::new(),
    };
    format!(
        "  \"sweep\": {{\n    \"n\": {sweep_n},\n    \"points\": {points},\n    \
         \"workers\": {workers},\n    \
         \"serial_points_per_sec\": {spps:.2}{parallel}\n  }}",
        points = sweep.points,
        workers = sweep.workers,
        spps = sweep.serial_pps,
    )
}

/// A `"scaling"`-schema JSON section under `key`.
fn scaling_json(key: &str, case: &ScalingCase, seed: u64, scaling: &ScalingResult) -> String {
    let curve = scaling
        .curve
        .iter()
        .map(|&(workers, rps)| {
            format!(
                "      {{ \"workers\": {workers}, \"replications_per_sec\": {rps:.2} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"{key}\": {{\n    \"n\": {n},\n    \"m\": {n},\n    \"b\": {b},\n    \
         \"scheme\": \"full\",\n    \"workload\": \"hierarchical\",\n    \"rate\": {rate:.1},\n    \
         \"resubmission\": false,\n    \"seed\": {seed},\n    \
         \"replications\": {reps},\n    \"total_cycles_per_replication\": {total},\n    \
         \"scalar_replications_per_sec\": {srps:.2},\n    \
         \"batched_replications_per_sec\": {brps:.2},\n    \
         \"batched_ns_per_lane_cycle\": {ns:.1},\n    \
         \"single_worker_speedup\": {speedup:.3},\n    \
         \"workers\": [\n{curve}\n    ]\n  }}",
        n = case.n,
        b = case.b,
        rate = case.rate,
        ns = scaling.batched_ns_per_lane_cycle(),
        reps = scaling.replications,
        total = scaling.total_cycles,
        srps = scaling.scalar_rps,
        brps = scaling.batched_rps,
        speedup = scaling.speedup(),
    )
}

/// The `"fabric"` JSON section: one entry per tree depth.
fn fabric_json(cycles: u64, seed: u64, entries: &[FabricBenchEntry]) -> String {
    let depths = entries
        .iter()
        .map(|entry| {
            format!(
                "      {{ \"shape\": \"{shape}\", \"links\": {links}, \
                 \"total_cycles_per_run\": {total}, \
                 \"fabric_cycles_per_sec\": {fcps:.1}, \
                 \"flat_cycles_per_sec\": {xcps:.1}, \
                 \"routing_cost\": {cost:.3}, \
                 \"analytic_bandwidth\": {abw:.6}, \
                 \"sim_bandwidth\": {sbw:.6}, \
                 \"rel_gap\": {gap:.6} }}",
                shape = entry.shape,
                links = entry.links,
                total = entry.total_cycles,
                fcps = entry.fabric_cps,
                xcps = entry.flat_cps,
                cost = entry.flat_cps / entry.fabric_cps,
                abw = entry.analytic_bw,
                sbw = entry.sim_bw,
                gap = entry.rel_gap(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"fabric\": {{\n    \"locality\": 0.6,\n    \"rate\": 0.5,\n    \
         \"cycles\": {cycles},\n    \"seed\": {seed},\n    \
         \"depths\": [\n{depths}\n    ]\n  }}"
    )
}

/// The `"exact"` JSON section.
fn exact_json(exact: &ExactResult) -> String {
    format!(
        "  \"exact\": {{\n    \"transform\": {{\n      \"n\": {n},\n      \"m\": {m},\n      \
         \"b\": {b},\n      \"workload\": \"hierarchical\",\n      \"groups\": {groups},\n      \
         \"rate\": 1.0,\n      \"dp_seconds\": {dps:.6},\n      \
         \"transform_seconds\": {tfs:.6},\n      \"speedup\": {speedup:.1}\n    }},\n    \
         \"lumped\": {{\n      \"n\": {ln},\n      \"m\": {lm},\n      \"b\": {lb},\n      \
         \"workload\": \"uniform\",\n      \"rate\": 1.0,\n      \"states\": {states},\n      \
         \"throughput\": {tp:.6},\n      \"seconds\": {ls:.6},\n      \
         \"unlumped_rejected\": {rejected}\n    }},\n    \
         \"caches\": {{\n      \"pmf\": {{ \"hits\": {ph}, \"misses\": {pm}, \
         \"inserts\": {pi}, \"entries\": {pl} }},\n      \
         \"served_tables\": {{ \"hits\": {sh}, \"misses\": {sm}, \
         \"inserts\": {si}, \"entries\": {sl} }}\n    }}\n  }}",
        n = exact.n,
        m = exact.m,
        b = exact.b,
        groups = exact.groups,
        dps = exact.dp_seconds,
        tfs = exact.transform_seconds,
        speedup = exact.speedup(),
        ln = exact.lumped_n,
        lm = exact.lumped_m,
        lb = exact.lumped_b,
        states = exact.lumped_states,
        tp = exact.lumped_throughput,
        ls = exact.lumped_seconds,
        rejected = exact.unlumped_rejected,
        ph = exact.pmf_cache.hits,
        pm = exact.pmf_cache.misses,
        pi = exact.pmf_cache.inserts,
        pl = exact.pmf_cache.len,
        sh = exact.served_cache.hits,
        sm = exact.served_cache.misses,
        si = exact.served_cache.inserts,
        sl = exact.served_cache.len,
    )
}

/// Joins the present sections into the top-level JSON object.
fn render_json(sections: &[String]) -> String {
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// Which sections one `mbus bench` run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sections {
    /// Engine and sweep throughput; these have no flag of their own.
    core: bool,
    fabric: bool,
    scaling: bool,
    exact: bool,
}

impl Sections {
    /// No section flag selects every section; otherwise exactly the named
    /// ones run.
    fn select(exact: bool, scaling: bool, fabric: bool) -> Self {
        let all = !(exact || scaling || fabric);
        Sections {
            core: all,
            fabric: all || fabric,
            scaling: all || scaling,
            exact: all || exact,
        }
    }
}

/// Processors (= memories) of the engine section's network.
const ENGINE_N: usize = 32;
/// Buses of the engine section's network.
const ENGINE_B: usize = 8;
/// Seed of every simulated section.
const SEED: u64 = 42;

/// `mbus bench`.
pub fn bench(args: &Args) -> Result<(), String> {
    let cycles = args.get_or("cycles", 200_000u64)?;
    let reps = args.get_or("reps", 5usize)?;
    let sweep_n = args.get_or("sweep-n", 64usize)?;
    let replications = args.get_or("replications", 64usize)?;
    let scaling_cycles = args.get_or("scaling-cycles", 20_000u64)?;
    let out = args.get_or("out", "BENCH_sim.json".to_owned())?;
    let run = Sections::select(args.flag("exact"), args.flag("scaling"), args.flag("fabric"));

    let mut sections = Vec::new();

    if run.core {
        println!(
            "engine: {ENGINE_N}x{ENGINE_N}x{ENGINE_B} full, hierarchical, r = 1.0, resubmission, \
             {cycles} cycles"
        );
        let engine = engine_benchmark(ENGINE_N, ENGINE_B, cycles, SEED, reps)?;
        println!("  optimized: {:>12.0} cycles/sec", engine.cycles_per_sec);
        sections.push(engine_json(ENGINE_N, ENGINE_B, cycles, SEED, &engine));

        println!(
            "\nsweep: {sweep_n} full-connection points at N = {sweep_n}, hierarchical, r = 1.0"
        );
        let sweep = sweep_benchmark(sweep_n, reps)?;
        match sweep.parallel_pps {
            Some(ppps) => println!(
                "  serial:    {:>12.1} points/sec\n  parallel:  {:>12.1} points/sec ({} workers)\n  speedup:   {:>12.2}x",
                sweep.serial_pps,
                ppps,
                sweep.workers,
                ppps / sweep.serial_pps
            ),
            None => println!(
                "  serial:    {:>12.1} points/sec\n  parallel:  skipped (1 worker detected)",
                sweep.serial_pps
            ),
        }
        sections.push(sweep_json(sweep_n, &sweep));
    }

    if run.fabric {
        println!(
            "\nfabric: routed sim vs flat equivalent at depths 2 and 3, \
             locality 0.6, r = 0.5, {scaling_cycles} cycles"
        );
        let entries = fabric_benchmark(scaling_cycles, SEED, reps)?;
        for entry in &entries {
            println!(
                "  {:<6} {:>12.0} cycles/sec routed, {:>12.0} flat ({:.2}x routing cost), \
                 analytic {:.4} vs sim {:.4} ({:.1}% gap)",
                entry.shape,
                entry.fabric_cps,
                entry.flat_cps,
                entry.flat_cps / entry.fabric_cps,
                entry.analytic_bw,
                entry.sim_bw,
                100.0 * entry.rel_gap(),
            );
        }
        sections.push(fabric_json(scaling_cycles, SEED, &entries));
    }

    if run.scaling {
        for (key, case) in &SCALING_CASES {
            let ScalingCase { n: sn, b: sb, rate, .. } = case;
            println!(
                "\n{key}: {replications} replications of {sn}x{sn}x{sb} full, hierarchical, \
                 r = {rate:.1}, {scaling_cycles} cycles, batched vs scalar"
            );
            let scaling = scaling_benchmark(case, scaling_cycles, SEED, replications, reps)?;
            println!(
                "  scalar:    {:>12.1} replications/sec (1 worker)\n  \
                 batched:   {:>12.1} replications/sec (1 worker, {:.1} ns/lane-cycle)\n  \
                 speedup:   {:>12.2}x",
                scaling.scalar_rps,
                scaling.batched_rps,
                scaling.batched_ns_per_lane_cycle(),
                scaling.speedup()
            );
            for &(workers, rps) in scaling.curve.iter().skip(1) {
                println!(
                    "  batched:   {:>12.1} replications/sec ({workers} workers, {:.2}x vs 1)",
                    rps,
                    rps / scaling.batched_rps
                );
            }
            sections.push(scaling_json(key, case, SEED, &scaling));
        }
    }

    if run.exact {
        println!(
            "\nexact: transform vs DP on 256x16 hierarchical; lumped Markov on 16x8x4 uniform"
        );
        let exact = exact_benchmark(reps)?;
        println!(
            "  dp:        {:>12.4} sec/pmf\n  transform: {:>12.4} sec/pmf ({} groups)\n  speedup:   {:>12.1}x",
            exact.dp_seconds,
            exact.transform_seconds,
            exact.groups,
            exact.speedup()
        );
        println!(
            "  lumped:    {:>12} states, throughput {:.4}, {:.4} sec (unlumped rejected: {})",
            exact.lumped_states, exact.lumped_throughput, exact.lumped_seconds, exact.unlumped_rejected
        );
        println!(
            "  caches:    pmf {}/{} hits ({:.0}% hit rate, {} entries), served tables {}/{} hits ({} entries)",
            exact.pmf_cache.hits,
            exact.pmf_cache.hits + exact.pmf_cache.misses,
            exact.pmf_cache.hit_rate() * 100.0,
            exact.pmf_cache.len,
            exact.served_cache.hits,
            exact.served_cache.hits + exact.served_cache.misses,
            exact.served_cache.len,
        );
        sections.push(exact_json(&exact));
    }

    let json = render_json(&sections);
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_benchmark_runs_and_engines_agree() {
        // Tiny run: the point is the plumbing, not the numbers. The scalar
        // engine's reports are pinned by the golden hashes instead.
        let result = engine_benchmark(8, 4, 500, 7, 1).unwrap();
        assert_eq!(result.total_cycles, 525);
        assert!(result.cycles_per_sec > 0.0);
    }

    #[test]
    fn sweep_benchmark_runs_and_sweeps_agree() {
        let result = sweep_benchmark(8, 1).unwrap();
        assert_eq!(result.points, 8);
        assert!(result.serial_pps > 0.0);
        // On multi-core CI the parallel leg runs; on a single core it is
        // skipped but the detected worker count is still reported.
        assert!(result.workers >= 1);
        if result.workers > 1 {
            assert!(result.parallel_pps.is_some());
        } else {
            assert!(result.parallel_pps.is_none());
        }
    }

    #[test]
    fn scaling_benchmark_runs_and_gates_hold() {
        // Tiny run: the agreement + determinism gates and the plumbing are
        // the point, not the throughput numbers.
        let [(_, swar), (_, table)] = &SCALING_CASES;
        let result = scaling_benchmark(swar, 400, 7, 8, 1).unwrap();
        assert_eq!(result.replications, 8);
        assert_eq!(result.total_cycles, 420);
        assert!(result.scalar_rps > 0.0);
        assert!(result.batched_rps > 0.0);
        assert_eq!(result.curve[0].0, 1);
        assert_eq!(result.curve.last().unwrap().0, available_workers().max(1));
        // The requester-table geometry runs on one worker only.
        let result = scaling_benchmark(table, 200, 7, 4, 1).unwrap();
        assert_eq!(result.total_cycles, 210);
        assert!(result.batched_ns_per_lane_cycle() > 0.0);
        assert_eq!(result.curve, vec![(1, result.batched_rps)]);
    }

    #[test]
    fn scaling_json_records_curve_and_speedup() {
        let scaling = ScalingResult {
            replications: 64,
            total_cycles: 21_000,
            scalar_rps: 100.0,
            batched_rps: 300.0,
            curve: vec![(1, 300.0), (2, 580.0), (4, 1100.0)],
        };
        let json = render_json(&[scaling_json("scaling", &SCALING_CASES[0].1, 42, &scaling)]);
        assert!(json.contains("\"single_worker_speedup\": 3.000"));
        assert!(json.contains("\"rate\": 1.0,"));
        // 1e9 / (300 replications/s × 21 000 cycles).
        assert!(json.contains("\"batched_ns_per_lane_cycle\": 158.7,"));
        assert!(json.contains("\"replications\": 64"));
        assert!(json.contains("{ \"workers\": 4, \"replications_per_sec\": 1100.00 }"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let engine = EngineResult {
            total_cycles: 210_000,
            cycles_per_sec: 2.0e6,
        };
        let sweep = SweepResult {
            points: 64,
            workers: 8,
            serial_pps: 10.0,
            parallel_pps: Some(40.0),
        };
        let json = render_json(&[
            engine_json(32, 8, 200_000, 42, &engine),
            sweep_json(64, &sweep),
        ]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup\": 4.000"));
        assert!(json.contains("\"optimized_cycles_per_sec\": 2000000.0\n  }"));
        assert!(!json.contains("reference_cycles_per_sec"));
        assert_eq!(json.matches("\"speedup\"").count(), 1, "only the sweep has one");
    }

    #[test]
    fn section_flags_select_exactly_the_named_sections() {
        let sections = |core, fabric, scaling, exact| Sections {
            core,
            fabric,
            scaling,
            exact,
        };
        assert_eq!(Sections::select(false, false, false), sections(true, true, true, true));
        assert_eq!(Sections::select(true, false, false), sections(false, false, false, true));
        assert_eq!(Sections::select(false, true, false), sections(false, false, true, false));
        assert_eq!(Sections::select(false, false, true), sections(false, true, false, false));
        assert_eq!(Sections::select(true, true, false), sections(false, false, true, true));
        assert_eq!(Sections::select(false, true, true), sections(false, true, true, false));
    }

    #[test]
    fn single_worker_sweep_json_omits_speedup() {
        let sweep = SweepResult {
            points: 64,
            workers: 1,
            serial_pps: 10.0,
            parallel_pps: None,
        };
        let json = render_json(&[sweep_json(64, &sweep)]);
        assert!(json.contains("\"workers\": 1"), "detected value reported");
        assert!(!json.contains("speedup"), "no misleading 1.00x speedup");
        assert!(!json.contains("parallel_points_per_sec"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exact_json_has_both_subsections() {
        let exact = ExactResult {
            n: 256,
            m: 16,
            b: 8,
            groups: 16,
            dp_seconds: 0.8,
            transform_seconds: 0.02,
            lumped_n: 16,
            lumped_m: 8,
            lumped_b: 4,
            lumped_states: 481,
            lumped_throughput: 3.9963,
            lumped_seconds: 0.01,
            unlumped_rejected: true,
            pmf_cache: mbus_core::stats::cache::CacheStats {
                hits: 3,
                misses: 2,
                inserts: 2,
                len: 2,
            },
            served_cache: mbus_core::stats::cache::CacheStats {
                hits: 10,
                misses: 1,
                inserts: 1,
                len: 1,
            },
        };
        let json = render_json(&[exact_json(&exact)]);
        assert!(json.contains("\"speedup\": 40.0"));
        assert!(json.contains("\"unlumped_rejected\": true"));
        assert!(json.contains("\"states\": 481"));
        assert!(json.contains("\"pmf\": { \"hits\": 3, \"misses\": 2"));
        assert!(json.contains("\"served_tables\": { \"hits\": 10"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exact_benchmark_measures_a_real_separation() {
        // One rep keeps this test cheap; the structural claims (agreement
        // gate passed, unlumped rejection observed, transform faster) are
        // what matter, not the exact ratio.
        let result = exact_benchmark(1).unwrap();
        assert_eq!(result.groups, 16);
        assert!(result.unlumped_rejected, "old engine must reject 16x8");
        assert!(result.lumped_states > 0);
        assert!(result.lumped_throughput > 3.9 && result.lumped_throughput <= 4.0 + 1e-9);
        assert!(
            result.speedup() > 1.0,
            "transform slower than DP: {:.3}s vs {:.3}s",
            result.transform_seconds,
            result.dp_seconds
        );
    }
}
