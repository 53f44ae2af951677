//! Cross-validation grid: the analytic decomposition must track the
//! routed simulator across tree shapes and locality mixes.
//!
//! Tolerance: **12% relative** with an absolute floor of 0.1 req/cycle,
//! asserted over the model's operating envelope `rate ≤ 0.8` (plus spot
//! checks outside it). The decomposition treats link contention as
//! independent Bernoulli thinning — no queueing correlation between hops —
//! so a single-digit percentage gap is expected inside the envelope and
//! anything past 12% means the model lost the physics. At saturation
//! (`rate → 1`) with near-zero locality the hop-to-hop correlation the
//! model ignores dominates and gaps grow to tens of percent; that regime
//! is documented in DESIGN.md §15 rather than asserted here. The floor
//! keeps near-zero-bandwidth corners from flagging on noise.

use mbus_fabric::{analyze_fabric, FabricSimulator, FabricSpec};
use mbus_sim::SimConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const REL_TOL: f64 = 0.12;
const ABS_FLOOR: f64 = 0.1;

fn check_point(ks: &[usize], locality: f64, rate: f64, seed: u64) {
    let spec = FabricSpec {
        ks: ks.to_vec(),
        local_buses: 2,
        uplink_width: 1,
        locality,
    };
    let (topo, matrix) = spec.build().unwrap();
    let analysis = analyze_fabric(&topo, &matrix, rate, &[]).unwrap();
    let config = SimConfig::new(8_000).with_warmup(800).with_seed(seed);
    let report = FabricSimulator::build(&topo, &matrix, rate)
        .unwrap()
        .run(&config)
        .unwrap();
    let sim = report.bandwidth.mean();
    let gap = (analysis.bandwidth - sim).abs();
    let budget = (REL_TOL * sim).max(ABS_FLOOR);
    assert!(
        gap <= budget,
        "ks={ks:?} locality={locality:.2} rate={rate:.2}: analytic {:.4} vs sim {:.4} \
         (gap {gap:.4} > budget {budget:.4})",
        analysis.bandwidth,
        sim,
    );
    // Sanity on the shared accounting: both sides agree nothing is
    // unreachable in a healthy fabric, and both see the same offered load.
    assert_eq!(analysis.unreachable_rate, 0.0);
    assert_eq!(report.unreachable_rate, 0.0);
    // The sim's offered load is an empirical Bernoulli(N·r) mean; the
    // analytic value is exact — they agree statistically, not bitwise.
    assert!(
        (analysis.offered_load - report.offered_load).abs()
            <= 0.05 * analysis.offered_load + 0.05,
        "offered load drifted: analytic {} vs sim {}",
        analysis.offered_load,
        report.offered_load,
    );
}

/// Fixed representative corners of the (depth, branching, locality) cube.
#[test]
fn analytic_tracks_sim_on_representative_shapes() {
    check_point(&[4, 4], 0.9, 0.5, 11);
    check_point(&[4, 4], 0.3, 0.8, 12);
    check_point(&[2, 2, 2], 0.6, 0.5, 13);
    check_point(&[4, 2, 2], 0.6, 0.4, 14);
    check_point(&[8, 2], 0.0, 0.3, 15);
    check_point(&[2, 8], 0.9, 1.0, 16);
    // Depths 2 and 3 at `mbus fabric`'s default locality and rate; DESIGN
    // §15 archives their last timed gaps (5.9% and 3.4%).
    check_point(&[4, 4], 0.6, 0.5, 17);
    check_point(&[4, 2, 2], 0.6, 0.5, 18);
}

/// Seeded random sweep over depth 2–3 shapes, locality, and rate: the
/// tolerance has to hold across the grid, not just hand-picked corners.
#[test]
fn analytic_tracks_sim_on_randomized_grid() {
    let shapes: &[&[usize]] = &[
        &[2, 2],
        &[4, 2],
        &[2, 4],
        &[4, 4],
        &[2, 2, 2],
        &[4, 2, 2],
        &[2, 2, 4],
    ];
    let mut rng = StdRng::seed_from_u64(0xfab1);
    for trial in 0..10u64 {
        let shape = shapes[rng.random_range(0..shapes.len())];
        // Snap locality and rate to a coarse lattice so failures name a
        // reproducible point; stay inside the documented envelope
        // (rate ≤ 0.8, locality ≥ 0.2).
        let locality = f64::from(rng.random_range(2..=10u32)) / 10.0;
        let rate = f64::from(rng.random_range(2..=8u32)) / 10.0;
        check_point(shape, locality, rate, 100 + trial);
    }
}
