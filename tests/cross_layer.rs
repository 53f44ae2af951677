//! Cross-layer agreement: the analytical, exact, and simulated bandwidths
//! must tell one consistent story on every scheme.

use multibus::exact::enumerate;
use multibus::prelude::*;

fn schemes(n: usize, b: usize) -> Vec<(&'static str, ConnectionScheme)> {
    vec![
        ("full", ConnectionScheme::Full),
        ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
        ("partial", ConnectionScheme::PartialGroups { groups: 2 }),
        ("kclass", ConnectionScheme::uniform_classes(n, b).unwrap()),
        ("crossbar", ConnectionScheme::Crossbar),
    ]
}

/// Simulation must converge to the *exact* bandwidth (not the paper's
/// approximation) for every scheme, both rates, hierarchical and uniform
/// workloads.
#[test]
fn simulation_tracks_exact_for_all_schemes() {
    let n = 8;
    let b = 4;
    let hier = multibus::paper_params::hierarchical(n).unwrap().matrix();
    let unif = UniformModel::new(n, n).unwrap().matrix();
    for (workload_name, matrix) in [("hier", &hier), ("unif", &unif)] {
        for r in [1.0, 0.5] {
            for (name, scheme) in schemes(n, b) {
                let net = BusNetwork::new(n, n, b, scheme).unwrap();
                let exact = enumerate::exact_bandwidth(&net, matrix, r).unwrap();
                let mut sim = Simulator::build(&net, matrix, r).unwrap();
                let report = sim
                    .run(
                        &SimConfig::new(150_000)
                            .with_warmup(5_000)
                            .with_seed(1234)
                            .with_batch_len(1_000),
                    )
                    .unwrap();
                let gap = (report.bandwidth.mean() - exact).abs();
                assert!(
                    gap < 0.04,
                    "{workload_name}/{name}/r={r}: sim {} vs exact {exact}",
                    report.bandwidth
                );
                // The CI should usually cover the exact value; allow a
                // small tolerance beyond the half-width for conservatism.
                assert!(
                    exact >= report.bandwidth.lower() - 0.03
                        && exact <= report.bandwidth.upper() + 0.03,
                    "{workload_name}/{name}/r={r}: exact {exact} far outside {}",
                    report.bandwidth
                );
            }
        }
    }
}

/// The analytical approximation stays within a few percent of exact across
/// the full grid — the quantitative version of "the shape holds".
#[test]
fn analysis_error_is_bounded_across_grid() {
    let n = 8;
    for b in [2, 4, 8] {
        let matrix = multibus::paper_params::hierarchical(n).unwrap().matrix();
        for (name, scheme) in schemes(n, b) {
            for r in [1.0, 0.5, 0.25] {
                let net = BusNetwork::new(n, n, b, scheme.clone()).unwrap();
                let approx = memory_bandwidth(&net, &matrix, r).unwrap();
                let exact = enumerate::exact_bandwidth(&net, &matrix, r).unwrap();
                let rel = (approx - exact).abs() / exact.max(1e-9);
                assert!(
                    rel < 0.07,
                    "{name} B={b} r={r}: approx {approx} vs exact {exact}"
                );
            }
        }
    }
}

/// The System façade agrees with calling the layers directly.
#[test]
fn system_facade_is_consistent() {
    let n = 8;
    let b = 4;
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
    let model = multibus::paper_params::hierarchical(n).unwrap();
    let system = System::new(net.clone(), &model, 1.0).unwrap();
    let direct = memory_bandwidth(&net, &model.matrix(), 1.0).unwrap();
    assert_eq!(system.analytic().unwrap().bandwidth, direct);
    let exact_direct = enumerate::exact_bandwidth(&net, &model.matrix(), 1.0).unwrap();
    assert_eq!(system.exact().unwrap(), exact_direct);
    let eval = system.evaluate(None).unwrap();
    assert_eq!(eval.analytic.bandwidth, direct);
    assert_eq!(eval.exact, Some(exact_direct));
}

/// Replicated simulation tightens the confidence interval.
#[test]
fn replications_tighten_confidence() {
    let n = 8;
    let net = BusNetwork::new(n, n, 4, ConnectionScheme::Full).unwrap();
    let model = multibus::paper_params::hierarchical(n).unwrap();
    let system = System::new(net, &model, 1.0).unwrap();
    let config = SimConfig::new(20_000).with_warmup(1_000).with_seed(5);
    let few = system.simulate_replicated(&config, 2).unwrap();
    let many = system.simulate_replicated(&config, 8).unwrap();
    assert!(many.bandwidth.half_width() < few.bandwidth.half_width());
    // All replication means agree to within a few percent.
    let exact = system.exact().unwrap();
    assert!((many.bandwidth.mean() - exact).abs() < 0.05);
}

/// The two-stage arbitration is fair for the *symmetric* schemes: under
/// the processor-symmetric hierarchical workload, every processor completes
/// requests at the same long-run rate on full / single / partial / crossbar
/// networks. The K-class network is the deliberate exception — a
/// processor's favorite memory sits in a specific class, so processors
/// whose favorites live in poorly-connected classes complete less often
/// (the per-processor face of per-class fault tolerance).
#[test]
fn arbitration_is_fair_across_symmetric_processors() {
    let n = 8;
    let b = 4;
    let matrix = multibus::paper_params::hierarchical(n).unwrap().matrix();
    for (name, scheme) in schemes(n, b) {
        let net = BusNetwork::new(n, n, b, scheme).unwrap();
        let mut sim = Simulator::build(&net, &matrix, 1.0).unwrap();
        let report = sim
            .run(&SimConfig::new(200_000).with_warmup(5_000).with_seed(41))
            .unwrap();
        let fairness = report.processor_fairness();
        if name == "kclass" {
            // Processors 0-1 favor class C_1 memories (one bus of four):
            // markedly lower completion rate than processors 6-7 (class
            // C_4, all buses).
            assert!(fairness < 0.99, "kclass should be unfair: {fairness}");
            assert!(
                report.processor_service_rates[7] > report.processor_service_rates[0] + 0.1,
                "rates {:?}",
                report.processor_service_rates
            );
        } else {
            assert!(
                fairness > 0.999,
                "{name}: fairness {fairness}, rates {:?}",
                report.processor_service_rates
            );
        }
    }
}

/// …and measurably unfair when the workload itself is asymmetric: with
/// N > M favorite traffic, processors sharing a double-favorite memory
/// complete less often.
#[test]
fn asymmetric_workload_shows_in_fairness() {
    // 6 processors, 4 memories, favorite = p mod M: memories 0, 1 are each
    // the favorite of two processors (0 & 4, 1 & 5).
    let model = FavoriteModel::new(6, 4, 0.8).unwrap();
    let net = BusNetwork::new(6, 4, 2, ConnectionScheme::Full).unwrap();
    let mut sim = Simulator::build(&net, &model.matrix(), 1.0).unwrap();
    let report = sim
        .run(&SimConfig::new(200_000).with_warmup(5_000).with_seed(43))
        .unwrap();
    assert!(report.processor_fairness() < 0.999);
    // Processors 2 and 3 own exclusive favorites and finish more often than
    // processor 0, which shares memory 0 with processor 4.
    assert!(
        report.processor_service_rates[2] > report.processor_service_rates[0] + 0.05,
        "{:?}",
        report.processor_service_rates
    );
}
