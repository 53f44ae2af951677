//! The benchmark's own contract: metric names and units, the declaration
//! in `BENCHMARK.json`, deterministic generators, distinct `serve_cold`
//! keys, and every workload emitting every metric it declares.

use mbus_perfbench::gen;
use mbus_perfbench::report::{
    quantile, summarize, Sample, END_TO_END, FAILED_LATENCY_NS, PER_LAYER, WORKLOADS,
};
use mbus_perfbench::run_workload;
use mbus_server::json::{self, Json};
use mbus_server::service::{self, ServiceLimits};
use std::collections::HashSet;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_unique_and_carry_units() {
    let mut seen = HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(name), "bad metric name {name}");
        assert!(is_unit(unit), "bad unit {unit} for {name}");
        assert!(seen.insert(*name), "metric {name} declared twice");
    }
    for w in WORKLOADS {
        assert!(is_name(w));
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let own = |registry: &[(&str, &str)]| -> Vec<(String, String)> {
        registry
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
    {
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(gen::design_points(7), gen::design_points(7));
    assert_ne!(gen::design_points(7), gen::design_points(8));
    assert_eq!(gen::hot_order(7, 0), gen::hot_order(7, 0));
    assert_ne!(gen::hot_order(7, 0), gen::hot_order(7, 1));
    for k in 0..50 {
        assert_eq!(gen::cold_query(7, k), gen::cold_query(7, k));
        assert_ne!(gen::cold_query(7, k).body, gen::cold_query(8, k).body);
    }
    let mut order = gen::hot_order(3, 1);
    order.sort_unstable();
    assert_eq!(
        order,
        (0..gen::GRID_KEYS).collect::<Vec<_>>(),
        "every grid key once"
    );
}

#[test]
fn serve_cold_never_repeats_a_key_and_every_body_is_valid() {
    let limits = ServiceLimits::default();
    let mut keys = HashSet::new();
    for seed in [1, 2] {
        for k in 0..3_000 {
            let q = gen::cold_query(seed, k);
            let body = service::parse_body(q.body.as_bytes()).expect("body parses");
            let parsed = service::parse_query(q.endpoint, &body, &limits)
                .unwrap_or_else(|e| panic!("cold request {k} rejected: {}", e.message));
            assert!(
                keys.insert(parsed.key()),
                "seed {seed} request {k} repeats a key"
            );
        }
    }
}

#[test]
fn design_rounds_cover_every_combination_and_split_lane_cycles_evenly() {
    let points = gen::design_points(5);
    let combos: HashSet<(&str, &str, u64)> = points
        .iter()
        .map(|p| (p.scheme, p.traffic, p.rate.to_bits()))
        .collect();
    assert_eq!(
        combos.len(),
        gen::SCHEMES.len() * gen::TRAFFIC.len() * gen::RATES.len()
    );
    for block in points.chunks(gen::BLOCK_SIZES.len()) {
        let mut sizes: Vec<usize> = block.iter().map(|p| p.n).collect();
        sizes.sort_unstable();
        assert_eq!(
            sizes,
            gen::BLOCK_SIZES,
            "every block holds the full size mix"
        );
    }
    let small = points.iter().filter(|p| p.n <= 8).count() as f64 / points.len() as f64;
    assert!(
        (0.4..=0.6).contains(&small),
        "N <= 8 share of lane-cycles {small}"
    );
}

#[test]
fn failures_stay_in_the_quantiles_and_thin_tails_are_visible() {
    let mut ns: Vec<u64> = vec![1_000; 98];
    ns.extend([FAILED_LATENCY_NS, FAILED_LATENCY_NS]);
    let p99 = quantile(&ns, 0.99).unwrap();
    assert_eq!(
        p99.us,
        FAILED_LATENCY_NS as f64 / 1e3,
        "a failure misses the limit"
    );
    assert_eq!(p99.beyond, 1);
    let mut samples: Vec<Sample> = (0..3_000u64)
        .map(|i| Sample {
            end_ns: i * 1_000_000,
            latency_ns: if i % 100 == 0 { 9_000 } else { 1_000 },
        })
        .collect();
    let s = summarize(&mut samples, 1_000).unwrap();
    assert_eq!(s.windows, 3);
    assert!((s.req_per_s - 1_000.0).abs() < 1.5, "{}", s.req_per_s);
    assert_eq!(s.p50.us, 1.0);
    assert_eq!((s.p99.us, s.p99.beyond), (1.0, 30), "p99 over all 3000");
}

#[test]
fn each_workload_emits_every_metric_it_declares_and_passes_its_gates() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let (out, spans) = run_workload(workload, 3, 0.4, traced)
                .unwrap_or_else(|e| panic!("{workload} (traced {traced}): {e}"));
            assert!(out.correct, "{workload}: {:?}", out.notes);
            assert!(out.attempted >= 1);
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
            let registry = if traced { PER_LAYER } else { END_TO_END };
            for (name, _) in registry {
                let value = out.metrics.get(name).copied();
                assert!(value.is_some_and(f64::is_finite), "{workload} lacks {name}");
            }
            if traced {
                assert!(
                    !spans.is_empty(),
                    "{workload}: traced run recorded no spans"
                );
            } else {
                for (name, _) in END_TO_END {
                    assert!(out.metrics[name] > 0.0, "{workload}: {name} reads 0");
                }
            }
            let line = out.result_line(registry);
            let parsed = json::parse(&line).expect("result line is JSON");
            let metrics = parsed.get("metrics").expect("metrics");
            assert_eq!(
                match metrics {
                    Json::Obj(fields) => fields.len(),
                    _ => 0,
                },
                registry.len()
            );
        }
    }
}
