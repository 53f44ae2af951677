//! Parity between the two front ends of `mbus_core::query`: one table of
//! field sets, rendered as `mbus` options and as a JSON request body, must
//! describe the same experiment or fail with the same class of error. The
//! server's own answer to each body is checked against that class too, and
//! for the fabric rows `mbus fabric --json` must print the server's result
//! body byte for byte.

use crate::args::Args;
use mbus_core::fabric::ClusteredBuses;
use mbus_core::prelude::{BusNetwork, FaultMask};
use mbus_core::query::{DegradedSpec, FabricQuery, Fields, FlatSpec, QueryError, SimSpec};
use mbus_core::workload::WorkloadFingerprint;
use mbus_server::json::{self, Json};
use mbus_server::service::{self, Endpoint, ServiceLimits};

/// One field value, renderable both ways.
#[derive(Clone, Copy)]
enum V {
    Int(u64),
    Num(f64),
    Str(&'static str),
    Bool(bool),
    List(&'static [usize]),
}

type FieldSet = &'static [(&'static str, V)];

/// What a field set built, reduced to comparable parts.
#[derive(Debug, PartialEq)]
struct Outcome {
    network: Option<BusNetwork>,
    fabric: Option<(FabricQuery, ClusteredBuses)>,
    matrix: WorkloadFingerprint,
    rate_bits: u64,
    sim: Option<SimSpec>,
    mask: Option<FaultMask>,
}

fn class(error: &QueryError) -> &'static str {
    match error {
        QueryError::Invalid(_) => "invalid",
        QueryError::Unsupported(_) => "unsupported",
    }
}

/// Reads and builds `fields` the way `endpoint` does.
fn outcome(endpoint: Endpoint, src: &impl Fields) -> Result<Outcome, QueryError> {
    if endpoint == Endpoint::Fabric {
        let query = FabricQuery::read(src)?;
        let (topo, matrix) = query.build()?;
        query.sim_config()?;
        return Ok(Outcome {
            network: None,
            rate_bits: query.rate.to_bits(),
            matrix: matrix.fingerprint(),
            fabric: Some((query, topo)),
            sim: None,
            mask: None,
        });
    }
    let flat = FlatSpec::read(src)?;
    let sim = match endpoint {
        Endpoint::Simulate => Some(SimSpec::read(src)?),
        _ => None,
    };
    let mask = match endpoint {
        Endpoint::Degraded => Some(DegradedSpec::read(src)?.mask(flat.b)?),
        _ => None,
    };
    let system = flat.build()?;
    Ok(Outcome {
        network: Some(system.network().clone()),
        fabric: None,
        matrix: system.matrix().fingerprint(),
        rate_bits: system.rate().to_bits(),
        sim,
        mask,
    })
}

fn to_args(fields: FieldSet) -> Args {
    let mut argv = vec!["query".to_owned()];
    for &(key, value) in fields {
        // The documented flags, spelled out independently of the adapter.
        let flag = match key {
            "failed_links" | "failed_buses" => "failed",
            "trace_summary" => "trace",
            other => other,
        };
        argv.push(format!("--{flag}"));
        argv.push(match value {
            V::Int(x) => x.to_string(),
            V::Num(x) => x.to_string(),
            V::Str(s) => s.to_owned(),
            // `--trace` names the trace file.
            V::Bool(true) if key == "trace_summary" => "run.mbt".to_owned(),
            V::Bool(b) => b.to_string(),
            V::List(items) => items
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        });
    }
    Args::parse(argv)
}

fn to_json(fields: FieldSet) -> Json {
    let member = |&(key, value): &(&str, V)| {
        let value = match value {
            V::Int(x) => Json::Num(x as f64),
            V::Num(x) => Json::Num(x),
            V::Str(s) => Json::Str(s.to_owned()),
            V::Bool(b) => Json::Bool(b),
            V::List(items) => json::count_array(items),
        };
        (key.to_owned(), value)
    };
    Json::Obj(fields.iter().map(member).collect())
}

/// Field sets every front end accepts.
const VALID: &[(Endpoint, FieldSet)] = &[
    // Defaults.
    (Endpoint::Bandwidth, &[]),
    (Endpoint::Simulate, &[]),
    (Endpoint::Degraded, &[]),
    (Endpoint::Fabric, &[]),
    // Each scheme.
    (
        Endpoint::Bandwidth,
        &[("scheme", V::Str("full")), ("b", V::Int(2))],
    ),
    (Endpoint::Bandwidth, &[("scheme", V::Str("single"))]),
    (
        Endpoint::Bandwidth,
        &[("scheme", V::Str("partial")), ("groups", V::Int(4))],
    ),
    (Endpoint::Bandwidth, &[("scheme", V::Str("kclass"))]),
    (
        Endpoint::Bandwidth,
        &[("scheme", V::Str("kclass")), ("classes", V::Int(2))],
    ),
    (
        Endpoint::Exact,
        &[("scheme", V::Str("crossbar")), ("n", V::Int(16))],
    ),
    // Each workload.
    (
        Endpoint::Bandwidth,
        &[("workload", V::Str("hier")), ("clusters", V::Int(2))],
    ),
    (
        Endpoint::Bandwidth,
        &[("workload", V::Str("hierarchical")), ("rate", V::Num(0.5))],
    ),
    (
        Endpoint::Bandwidth,
        &[
            ("workload", V::Str("uniform")),
            ("n", V::Int(8)),
            ("m", V::Int(16)),
        ],
    ),
    (
        Endpoint::Bandwidth,
        &[("workload", V::Str("favorite")), ("alpha", V::Num(0.9))],
    ),
    // The simulation budget.
    (
        Endpoint::Simulate,
        &[
            ("cycles", V::Int(5_000)),
            ("warmup", V::Int(100)),
            ("seed", V::Int(7)),
            ("resubmission", V::Bool(true)),
            ("replications", V::Int(4)),
        ],
    ),
    (
        Endpoint::Simulate,
        &[("cycles", V::Int(2_000)), ("trace_summary", V::Bool(true))],
    ),
    // The degraded mask.
    (Endpoint::Degraded, &[("failed_buses", V::List(&[2, 0]))]),
    (
        Endpoint::Degraded,
        &[("b", V::Int(8)), ("failed_buses", V::List(&[7]))],
    ),
    // The fabric, including failed links.
    (
        Endpoint::Fabric,
        &[
            ("ks", V::List(&[2, 8])),
            ("buses", V::Int(3)),
            ("uplink", V::Int(2)),
            ("locality", V::Num(0.3)),
            ("rate", V::Num(0.25)),
            ("cycles", V::Int(0)),
            ("warmup", V::Int(5)),
            ("seed", V::Int(9)),
            ("failed_links", V::List(&[3, 1])),
        ],
    ),
    (
        Endpoint::Fabric,
        &[
            ("ks", V::List(&[4, 2, 2])),
            ("locality", V::Num(0.3)),
            ("cycles", V::Int(3_000)),
            ("seed", V::Int(5)),
        ],
    ),
];

/// Field sets every front end refuses: the bodies of
/// `domain_errors_map_to_bad_request`, then the budget, trace, fabric and
/// type errors.
const INVALID: &[(Endpoint, FieldSet)] = &[
    (Endpoint::Bandwidth, &[("rate", V::Num(1.5))]),
    (Endpoint::Bandwidth, &[("rate", V::Num(-0.1))]),
    (Endpoint::Bandwidth, &[("scheme", V::Str("warp-drive"))]),
    (Endpoint::Bandwidth, &[("workload", V::Str("astrology"))]),
    (Endpoint::Bandwidth, &[("n", V::Int(8)), ("m", V::Int(4))]),
    (
        Endpoint::Bandwidth,
        &[("workload", V::Str("favorite")), ("alpha", V::Num(7.0))],
    ),
    (Endpoint::Degraded, &[("failed_buses", V::List(&[9]))]),
    (Endpoint::Degraded, &[("failed_buses", V::Str("all"))]),
    (Endpoint::Bandwidth, &[("n", V::Int(0))]),
    (Endpoint::Simulate, &[("cycles", V::Int(0))]),
    (Endpoint::Simulate, &[("replications", V::Int(0))]),
    (
        Endpoint::Simulate,
        &[
            ("replications", V::Int(3)),
            ("trace_summary", V::Bool(true)),
        ],
    ),
    (Endpoint::Fabric, &[("failed_links", V::List(&[99]))]),
    (Endpoint::Fabric, &[("rate", V::Num(1.5))]),
    (Endpoint::Fabric, &[("ks", V::Str("4x4"))]),
    (Endpoint::Bandwidth, &[("n", V::Str("banana"))]),
    (Endpoint::Simulate, &[("resubmission", V::Str("maybe"))]),
];

#[test]
fn cli_and_api_adapters_agree() {
    let cases = VALID.iter().map(|case| (case, true));
    for (&(endpoint, fields), valid) in cases.chain(INVALID.iter().map(|case| (case, false))) {
        let args = to_args(fields);
        let body = to_json(fields);
        let from_cli = outcome(endpoint, &args);
        let from_api = outcome(endpoint, &body);
        let server = service::parse_query(endpoint, &body, &ServiceLimits::default());
        let case = body.render();
        assert_eq!(from_api.is_ok(), valid, "{case}: {from_api:?}");
        match (&from_cli, &from_api) {
            (Ok(cli), Ok(api)) => {
                assert_eq!(
                    cli, api,
                    "{case}: the front ends built different experiments"
                );
                let Ok(query) = server else {
                    panic!("{case}: the server refused a valid query");
                };
                if endpoint == Endpoint::Fabric {
                    // `mbus fabric --json` prints the server's result body.
                    let mut args = args.clone();
                    args.options.insert("json".to_owned(), "true".to_owned());
                    let printed = crate::fabric_cmd::document(&args).expect("mbus fabric --json");
                    let body = service::evaluate(&query).expect("the server evaluates it");
                    assert_eq!(printed, format!("{}\n", body.render()), "{case}");
                }
            }
            (Err(cli), Err(api)) => {
                assert_eq!(class(cli), class(api), "{case}: {cli} vs {api}");
                // Only type errors are worded by each front end (the CLI's
                // all start with the option name).
                if !cli.to_string().starts_with("--") {
                    assert_eq!(cli, api, "{case}");
                }
                let server = server.expect_err("the server accepts what the query refuses");
                let (status, kind) = match api {
                    QueryError::Invalid(_) => (400, "bad_request"),
                    QueryError::Unsupported(_) => (422, "unsupported"),
                };
                assert_eq!(
                    (server.status, server.kind, server.message),
                    (status, kind, api.to_string()),
                    "{case}"
                );
            }
            _ => panic!("{case}: CLI gave {from_cli:?}, API gave {from_api:?}"),
        }
    }
}
