//! Replicated runs across a work-stealing pool, with replication-level
//! confidence intervals.
//!
//! [`run_replications`] fans the replication list out over
//! `mbus_stats::parallel::parallel_map` (the Chase–Lev pool) and
//! picks the faster of two engines per run:
//!
//! * **batched** — when the system fits the [`crate::batched`] envelope
//!   (`N ≤ 64`, `M ≤ 64`, ≥ 2 replications), replications are split into
//!   chunks of at most [`crate::batched::MAX_LANES`] seeds and each chunk
//!   advances all of its lanes in SoA lock-step;
//! * **scalar** — otherwise (or via
//!   [`run_replications_scalar_with_workers`]), one [`Simulator`] per
//!   replication, the engine the golden reports pin.
//!
//! Per-replication reports are deterministic either way — a lane's report
//! depends only on its seed, never on chunk geometry or worker count — but
//! the two engines follow different sampling specs, so forcing the scalar
//! engine changes report values (`ReplicationReport::engine` records which
//! one ran). Worker panics are caught per task and surface as
//! [`SimError::ReplicationPanicked`] after every worker has joined.

use crate::{batched, SimConfig, SimError, SimReport, Simulator};
use mbus_stats::parallel::{available_workers, parallel_map};
use mbus_stats::{student_t_quantile, ConfidenceInterval, Welford};
use mbus_topology::BusNetwork;
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Aggregated results of several independent replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationReport {
    /// Number of replications run.
    pub replications: usize,
    /// Which engine produced the reports: `"batched"` (SoA lanes) or
    /// `"scalar"` (one `Simulator` per replication).
    pub engine: &'static str,
    /// Bandwidth confidence interval across replication means (Student-t
    /// with `replications − 1` degrees of freedom).
    pub bandwidth: ConfidenceInterval,
    /// Mean acceptance probability across replications.
    pub acceptance: f64,
    /// The individual per-replication reports, seed order.
    pub reports: Vec<SimReport>,
}

/// Converts a caught worker panic into the error the runner reports.
fn panicked(replication: usize, payload: Box<dyn std::any::Any + Send>) -> SimError {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    SimError::ReplicationPanicked {
        replication,
        message,
    }
}

/// Runs `replications` independent simulations (seeds `base_seed`,
/// `base_seed + 1`, …) over the work-stealing pool and aggregates the
/// results, batching lanes through the SoA engine where eligible.
///
/// # Errors
///
/// * `replications == 0` or zero measured cycles → [`SimError::NoCycles`];
/// * simulator construction errors are propagated;
/// * a panicking replication worker → [`SimError::ReplicationPanicked`]
///   (the process keeps running; the panic message is preserved; for the
///   batched engine the reported index is the panicking chunk's first
///   replication).
pub fn run_replications(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    replications: usize,
) -> Result<ReplicationReport, SimError> {
    run_replications_impl(net, matrix, r, config, replications, false, available_workers())
}

/// Like [`run_replications`] with an explicit worker count — the knob
/// perfbench's `sim_replicate` workload turns to check that reports do not
/// depend on it (`workers = 1` pins everything to the calling thread).
///
/// Worker count never changes the reports, only the wall clock.
///
/// # Errors
///
/// Same contract as [`run_replications`].
pub fn run_replications_with_workers(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    replications: usize,
    workers: usize,
) -> Result<ReplicationReport, SimError> {
    run_replications_impl(net, matrix, r, config, replications, false, workers.max(1))
}

/// Like [`run_replications_with_workers`], but always on the scalar
/// engine — the baseline side of perfbench's `sim.batched_vs_scalar.*`
/// metrics, and the path whose reports stay bit-identical to historical
/// (pre-batching) replicated runs.
///
/// # Errors
///
/// Same contract as [`run_replications`].
pub fn run_replications_scalar_with_workers(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    replications: usize,
    workers: usize,
) -> Result<ReplicationReport, SimError> {
    run_replications_impl(net, matrix, r, config, replications, true, workers.max(1))
}

fn run_replications_impl(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    replications: usize,
    force_scalar: bool,
    workers: usize,
) -> Result<ReplicationReport, SimError> {
    if replications == 0 || config.cycles == 0 {
        return Err(SimError::NoCycles);
    }
    config.faults.validate(net.buses())?;

    let (engine, reports) = if !force_scalar && batched::eligible(net, replications) {
        // Chunk the seed range so every worker has work while each chunk
        // still packs as many lanes as possible (chunk geometry cannot
        // change results: lanes are independent).
        let per_chunk = replications
            .div_ceil(workers)
            .clamp(1, batched::MAX_LANES);
        let chunks: Vec<(usize, usize)> = (0..replications)
            .step_by(per_chunk)
            .map(|base| (base, per_chunk.min(replications - base)))
            .collect();
        let chunk_reports = parallel_map(chunks, workers, |(base, len)| {
            catch_unwind(AssertUnwindSafe(|| {
                let seeds: Vec<u64> = (0..len)
                    .map(|i| config.seed.wrapping_add((base + i) as u64))
                    .collect();
                batched::run_batch(net, matrix, r, config, &seeds)
            }))
            .unwrap_or_else(|payload| Err(panicked(base, payload)))
        });
        let mut reports = Vec::with_capacity(replications);
        for chunk in chunk_reports {
            reports.extend(chunk?);
        }
        ("batched", reports)
    } else {
        let prototype = Simulator::build(net, matrix, r)?;
        let results = parallel_map((0..replications).collect(), workers, |i| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut sim = prototype.clone();
                let mut cfg = config.clone();
                cfg.seed = config.seed.wrapping_add(i as u64);
                sim.run(&cfg)
            }))
            .unwrap_or_else(|payload| Err(panicked(i, payload)))
        });
        let reports = results.into_iter().collect::<Result<Vec<_>, SimError>>()?;
        ("scalar", reports)
    };

    let mut means = Welford::new();
    let mut acceptance = Welford::new();
    for report in &reports {
        means.push(report.bandwidth.mean());
        acceptance.push(report.acceptance);
    }
    let bandwidth = if replications >= 2 {
        let t = student_t_quantile(replications as u64 - 1, config.confidence_level);
        ConfidenceInterval::new(
            means.mean(),
            t * means.standard_error(),
            config.confidence_level,
        )
    } else {
        reports[0].bandwidth
    };
    Ok(ReplicationReport {
        replications,
        engine,
        bandwidth,
        acceptance: acceptance.mean(),
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel};

    #[test]
    fn replications_agree_with_analysis() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let config = SimConfig::new(10_000).with_warmup(500).with_seed(7);
        let report = run_replications(&net, &matrix, 1.0, &config, 4).unwrap();
        assert_eq!(report.replications, 4);
        assert_eq!(report.reports.len(), 4);
        assert_eq!(report.engine, "batched");
        // Exact value (enumeration) is ≈ 3.99; Table II prints 3.97.
        assert!(
            (report.bandwidth.mean() - 3.99).abs() < 0.05,
            "bandwidth {}",
            report.bandwidth
        );
        // Replications used different seeds → different means.
        let first = report.reports[0].bandwidth.mean();
        assert!(report
            .reports
            .iter()
            .skip(1)
            .any(|r| r.bandwidth.mean() != first));
    }

    #[test]
    fn scalar_and_batched_engines_agree_statistically() {
        // (N = M, B, rate, cycles, replications): the paper's network on
        // the packed-word path, and the largest eligible network on the
        // requester-table path.
        for (n, b, rate, cycles, replications) in
            [(8, 4, 1.0, 10_000, 4), (64, 16, 0.5, 2_000, 16)]
        {
            let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
            let matrix = HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
                .unwrap()
                .matrix();
            let config = SimConfig::new(cycles).with_warmup(cycles / 20).with_seed(7);
            let batched = run_replications(&net, &matrix, rate, &config, replications).unwrap();
            let scalar = run_replications_scalar_with_workers(
                &net,
                &matrix,
                rate,
                &config,
                replications,
                available_workers(),
            )
            .unwrap();
            assert_eq!(batched.engine, "batched");
            assert_eq!(scalar.engine, "scalar");
            assert!(
                (batched.bandwidth.mean() - scalar.bandwidth.mean()).abs() < 0.05,
                "{n}x{n}x{b}: batched {} vs scalar {}",
                batched.bandwidth,
                scalar.bandwidth
            );
        }
    }

    #[test]
    fn oversized_networks_fall_back_to_scalar() {
        // N = 80 > 64 lanes: requested sets no longer fit a word.
        let net = BusNetwork::new(80, 80, 4, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(80, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let config = SimConfig::new(400).with_warmup(50);
        let report = run_replications(&net, &matrix, 0.5, &config, 3).unwrap();
        assert_eq!(report.engine, "scalar");
        assert_eq!(report.reports.len(), 3);
    }

    #[test]
    fn replication_count_beyond_one_chunk_stays_in_seed_order() {
        // More replications than one 64-lane chunk can hold (and more than
        // any worker count will pack per chunk): exercises chunk splitting
        // and re-assembly.
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(4, 2, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let config = SimConfig::new(200).with_warmup(20).with_seed(100);
        let wide = run_replications(&net, &matrix, 0.8, &config, 70).unwrap();
        assert_eq!(wide.reports.len(), 70);
        assert_eq!(wide.engine, "batched");
        // Chunk geometry must not leak into per-replication results: any
        // single replication re-run alone reproduces its slot exactly.
        let solo = crate::batched::run_batch(
            &net,
            &matrix,
            0.8,
            &config,
            &[config.seed.wrapping_add(67)],
        )
        .unwrap();
        assert_eq!(wide.reports[67], solo[0]);
    }

    #[test]
    fn single_replication_falls_back_to_batch_ci() {
        // r < 1 so the offered load itself varies per cycle; at r = 1 with
        // B = 4 the network can serve exactly B requests every single cycle
        // and yield a legitimately zero-width CI.
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let config = SimConfig::new(2_000);
        let report = run_replications(&net, &matrix, 0.6, &config, 1).unwrap();
        assert_eq!(report.replications, 1);
        assert_eq!(report.engine, "scalar");
        assert!(report.bandwidth.half_width() > 0.0);
    }

    #[test]
    fn replication_panic_surfaces_as_error() {
        let net = BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        // `batch_len == 0` slips past the builder's assert via the public
        // field and makes the collector panic inside the worker; the runner
        // must report it instead of aborting the process — on *both*
        // engines, without hanging the pool.
        let mut config = SimConfig::new(100);
        config.batch_len = 0;
        let err = run_replications(&net, &matrix, 1.0, &config, 2).unwrap_err();
        assert!(
            matches!(err, SimError::ReplicationPanicked { replication: 0, ref message }
                if message.contains("batch length")),
            "unexpected batched-engine error: {err}"
        );
        let err =
            run_replications_scalar_with_workers(&net, &matrix, 1.0, &config, 2, available_workers())
                .unwrap_err();
        assert!(
            matches!(err, SimError::ReplicationPanicked { replication: 0, ref message }
                if message.contains("batch length")),
            "unexpected scalar-engine error: {err}"
        );
    }

    #[test]
    fn zero_replications_rejected() {
        let net = BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap();
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        assert!(matches!(
            run_replications(&net, &matrix, 1.0, &SimConfig::new(100), 0),
            Err(SimError::NoCycles)
        ));
        assert!(matches!(
            run_replications(&net, &matrix, 1.0, &SimConfig::new(0), 2),
            Err(SimError::NoCycles)
        ));
    }
}
