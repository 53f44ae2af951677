//! Endpoint dispatch: JSON bodies in, engine results out.
//!
//! The query endpoints read the same typed experiment description as the
//! `mbus` CLI (`mbus_core::query`: one set of field names, defaults and
//! checks), so a `curl` body and a CLI invocation describe the same
//! experiment:
//!
//! | endpoint | engine |
//! |---|---|
//! | `POST /v1/bandwidth` | closed-form analysis (`System::analytic`) |
//! | `POST /v1/exact` | subset-transform / closed-form exact (`System::exact`) |
//! | `POST /v1/simulate` | bounded-cycle simulation (`System::simulate`, or `System::simulate_replicated` with `replications > 1`) |
//! | `POST /v1/degraded` | fault-mask analysis (`degraded_analyze`) |
//! | `POST /v1/fabric` | hierarchical fabric decomposition (`analyze_fabric`), optionally cross-checked by the routed `FabricSimulator` |
//!
//! Parsing is strict: unknown fields are rejected (a typoed `cylces` must
//! not silently simulate the default budget), every dimension and the cycle
//! budget are capped by [`ServiceLimits`] before anything is built, and
//! every failure — malformed JSON, bad field type, domain error from the
//! engines — maps to a structured [`ApiError`] with an HTTP status, a
//! machine-readable `kind`, and a human-readable message. Nothing in this
//! module panics.
//!
//! Successful parses yield a [`Query`] whose [`Query::key`] is a stable
//! hash key (workload fingerprint, explicit network field encoding, rate
//! bits, and endpoint extras) used by the server's [`MemoCache`] to memoize
//! the rendered result.
//!
//! [`MemoCache`]: mbus_stats::cache::MemoCache

use crate::json::{self, obj, Json};
use mbus_core::fabric::{
    analyze_fabric, ClusteredBuses, FabricAnalysis, FabricReport, FabricSimulator,
};
use mbus_core::prelude::{degraded_analyze, ConnectionScheme, FaultMask, RequestMatrix, System};
use mbus_core::query::{
    DegradedSpec, FabricQuery, FlatSpec, QueryError, SimSpec, DEGRADED_FIELDS, FABRIC_FIELDS,
    FLAT_FIELDS, SIM_FIELDS,
};
use mbus_core::workload::WorkloadFingerprint;

/// Caps protecting the service from abusive (or typoed) workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Largest accepted `n`, `m`, or `b`.
    pub max_dimension: usize,
    /// Largest accepted `cycles + warmup` for `/v1/simulate`.
    pub max_cycles: u64,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            max_dimension: 1024,
            max_cycles: 2_000_000,
        }
    }
}

impl ServiceLimits {
    /// Refuses a network dimension above `max_dimension`.
    fn check_network(&self, flat: &FlatSpec) -> Result<(), ApiError> {
        for (name, value) in [("n", flat.n), ("m", flat.m), ("b", flat.b)] {
            if value > self.max_dimension {
                return Err(ApiError::too_large(format!(
                    "`{name}` = {value} exceeds the service limit of {}",
                    self.max_dimension
                )));
            }
        }
        Ok(())
    }

    /// Refuses a simulation whose whole cycle count exceeds `max_cycles`.
    fn check_sim(&self, sim: &SimSpec) -> Result<(), ApiError> {
        let total = sim.total_cycles();
        if total > self.max_cycles {
            return Err(ApiError::too_large(format!(
                "(cycles + warmup) x replications = {total} exceeds the service budget of {}",
                self.max_cycles
            )));
        }
        Ok(())
    }

    /// Refuses a fabric with more than `max_dimension` processors or a
    /// cycle budget above `max_cycles`.
    fn check_fabric(&self, fabric: &FabricQuery) -> Result<(), ApiError> {
        let processors = fabric.processors();
        if processors > self.max_dimension {
            return Err(ApiError::too_large(format!(
                "fabric with {processors} processors exceeds the service limit of {}",
                self.max_dimension
            )));
        }
        if fabric.cycles.saturating_add(fabric.warmup) > self.max_cycles {
            return Err(ApiError::too_large(format!(
                "cycles + warmup exceeds the service budget of {}",
                self.max_cycles
            )));
        }
        Ok(())
    }
}

/// The five query endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `POST /v1/bandwidth` — closed-form analytical breakdown.
    Bandwidth,
    /// `POST /v1/exact` — approximation-free bandwidth.
    Exact,
    /// `POST /v1/simulate` — cycle-accurate simulation.
    Simulate,
    /// `POST /v1/degraded` — degraded-mode analysis under a bus fault mask.
    Degraded,
    /// `POST /v1/fabric` — hierarchical cluster-of-buses fabric: analytic
    /// decomposition, optionally cross-checked by the routed simulator.
    Fabric,
}

impl Endpoint {
    /// Maps a request path to its endpoint.
    pub fn from_path(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/bandwidth" => Some(Endpoint::Bandwidth),
            "/v1/exact" => Some(Endpoint::Exact),
            "/v1/simulate" => Some(Endpoint::Simulate),
            "/v1/degraded" => Some(Endpoint::Degraded),
            "/v1/fabric" => Some(Endpoint::Fabric),
            _ => None,
        }
    }

    /// Canonical lowercase name (used in responses and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Bandwidth => "bandwidth",
            Endpoint::Exact => "exact",
            Endpoint::Simulate => "simulate",
            Endpoint::Degraded => "degraded",
            Endpoint::Fabric => "fabric",
        }
    }

    /// All endpoints, in dispatch order.
    pub const ALL: [Endpoint; 5] = [
        Endpoint::Bandwidth,
        Endpoint::Exact,
        Endpoint::Simulate,
        Endpoint::Degraded,
        Endpoint::Fabric,
    ];

    /// Index into per-endpoint arrays (metrics slots).
    pub(crate) fn index(self) -> usize {
        usize::from(self.discriminant())
    }

    fn discriminant(self) -> u8 {
        match self {
            Endpoint::Bandwidth => 0,
            Endpoint::Exact => 1,
            Endpoint::Simulate => 2,
            Endpoint::Degraded => 3,
            Endpoint::Fabric => 4,
        }
    }
}

/// A structured request failure: HTTP status, machine-readable kind, and a
/// human-readable message. Rendered as `{"error":{"kind":…,"message":…}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Stable machine-readable category (`bad_json`, `bad_request`, …).
    pub kind: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ApiError {
    /// 400 with kind `bad_json`: the body is not a JSON document.
    pub fn bad_json(message: impl std::fmt::Display) -> Self {
        ApiError {
            status: 400,
            kind: "bad_json",
            message: message.to_string(),
        }
    }

    /// 400 with kind `bad_request`: a field is missing, mistyped, unknown,
    /// or fails domain validation.
    pub fn bad_request(message: impl std::fmt::Display) -> Self {
        ApiError {
            status: 400,
            kind: "bad_request",
            message: message.to_string(),
        }
    }

    /// 422 with kind `unsupported`: a well-formed query the engines cannot
    /// evaluate (e.g. exact enumeration beyond the memory limit).
    pub fn unsupported(message: impl std::fmt::Display) -> Self {
        ApiError {
            status: 422,
            kind: "unsupported",
            message: message.to_string(),
        }
    }

    /// 422 with kind `too_large`: a dimension or budget exceeds
    /// [`ServiceLimits`].
    pub fn too_large(message: impl std::fmt::Display) -> Self {
        ApiError {
            status: 422,
            kind: "too_large",
            message: message.to_string(),
        }
    }

    /// The JSON error body.
    pub fn to_body(&self) -> String {
        obj(vec![(
            "error",
            obj(vec![
                ("kind", Json::Str(self.kind.to_owned())),
                ("message", Json::Str(self.message.clone())),
            ]),
        )])
        .render()
    }
}

impl From<QueryError> for ApiError {
    fn from(error: QueryError) -> Self {
        match error {
            QueryError::Invalid(message) => ApiError::bad_request(message),
            QueryError::Unsupported(message) => ApiError::unsupported(message),
        }
    }
}

/// A validated, evaluatable query: one variant per endpoint.
#[derive(Debug)]
pub enum Query {
    /// `/v1/bandwidth`: the closed-form analysis of a flat system.
    Bandwidth(System),
    /// `/v1/exact`: the approximation-free bandwidth of a flat system.
    Exact(System),
    /// `/v1/simulate`: a flat system and its simulation budget.
    Simulate(System, SimSpec),
    /// `/v1/degraded`: a flat system, its failed buses as requested (the
    /// cache key sorts them) and their validated mask.
    Degraded(System, DegradedSpec, FaultMask),
    /// `/v1/fabric`: the request, the fabric it builds and the fabric's
    /// matching hierarchical workload.
    Fabric(FabricQuery, ClusteredBuses, RequestMatrix),
}

/// Stable cache key: endpoint + explicit network field encoding + workload
/// fingerprint + rate bits + endpoint-specific extras.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    endpoint: u8,
    network: Vec<u64>,
    workload: WorkloadFingerprint,
    rate_bits: u64,
    extra: Vec<u64>,
}

/// Scheme tags for [`encode_network`]. Distinct from anything a length or
/// dimension can collide with only because every variable-length section
/// below is length-prefixed.
const KEY_SCHEME_FULL: u64 = 0;
const KEY_SCHEME_SINGLE: u64 = 1;
const KEY_SCHEME_PARTIAL: u64 = 2;
const KEY_SCHEME_KCLASS: u64 = 3;
const KEY_SCHEME_CROSSBAR: u64 = 4;
/// `ConnectionScheme` is `non_exhaustive`; a variant this crate does not
/// know yet must still produce a *distinct* key rather than colliding with
/// a known one.
const KEY_SCHEME_UNKNOWN: u64 = u64::MAX;

/// Encodes the identity of a network as explicit fields:
/// `[n, m, b, scheme_tag, params…]`, where variable-length scheme params
/// (single-assignment vector, class sizes) are length-prefixed. Only the
/// fields that define the topology enter the key.
fn encode_network(net: &mbus_core::topology::BusNetwork) -> Vec<u64> {
    let mut key = vec![
        net.processors() as u64,
        net.memories() as u64,
        net.buses() as u64,
    ];
    match net.scheme() {
        ConnectionScheme::Full => key.push(KEY_SCHEME_FULL),
        ConnectionScheme::Single { assignment } => {
            key.push(KEY_SCHEME_SINGLE);
            key.push(assignment.len() as u64);
            key.extend(assignment.iter().map(|&bus| bus as u64));
        }
        ConnectionScheme::PartialGroups { groups } => {
            key.push(KEY_SCHEME_PARTIAL);
            key.push(*groups as u64);
        }
        ConnectionScheme::KClasses { class_sizes } => {
            key.push(KEY_SCHEME_KCLASS);
            key.push(class_sizes.len() as u64);
            key.extend(class_sizes.iter().map(|&size| size as u64));
        }
        ConnectionScheme::Crossbar => key.push(KEY_SCHEME_CROSSBAR),
        // A future variant added upstream: refuse to alias a known tag.
        // The kind discriminant keeps unknown variants distinct from each
        // other as far as the type system can see.
        other => {
            key.push(KEY_SCHEME_UNKNOWN);
            key.push(other.kind() as u64);
        }
    }
    key
}

/// Network-section tag for fabric keys. Flat encodings start with
/// `n ≥ 1`, so leading with 0 keeps fabric keys disjoint from every
/// flat network encoding.
const KEY_FABRIC: u64 = 0;

/// Encodes a fabric's identity: `[0, depth, ks…, local_buses,
/// uplink_width, |failed|, failed…]`. The locality knob lives in the
/// workload fingerprint (it only shapes the request matrix).
fn encode_fabric(fabric: &FabricQuery) -> Vec<u64> {
    let mut key = vec![KEY_FABRIC, fabric.spec.ks.len() as u64];
    key.extend(fabric.spec.ks.iter().map(|&k| k as u64));
    key.push(fabric.spec.local_buses as u64);
    key.push(fabric.spec.uplink_width as u64);
    let mut failed: Vec<u64> = fabric
        .failed_links
        .iter()
        .map(|&link| u64::try_from(link).unwrap_or(u64::MAX))
        .collect();
    failed.sort_unstable();
    key.push(failed.len() as u64);
    key.extend(failed);
    key
}

impl Query {
    /// Which endpoint this query targets.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Query::Bandwidth(_) => Endpoint::Bandwidth,
            Query::Exact(_) => Endpoint::Exact,
            Query::Simulate(..) => Endpoint::Simulate,
            Query::Degraded(..) => Endpoint::Degraded,
            Query::Fabric(..) => Endpoint::Fabric,
        }
    }

    /// The memoization key for this query's rendered result.
    pub fn key(&self) -> QueryKey {
        let flat = |system: &System, extra: Vec<u64>| {
            (
                encode_network(system.network()),
                system.matrix().fingerprint(),
                system.rate(),
                extra,
            )
        };
        let (network, workload, rate, extra) = match self {
            Query::Bandwidth(system) | Query::Exact(system) => flat(system, Vec::new()),
            Query::Simulate(system, sim) => flat(
                system,
                vec![
                    sim.cycles,
                    sim.warmup,
                    sim.seed,
                    u64::from(sim.resubmission),
                    u64::from(sim.trace),
                    sim.replications as u64,
                ],
            ),
            Query::Degraded(system, degraded, _) => {
                let mut buses: Vec<u64> = degraded
                    .failed_buses
                    .iter()
                    .map(|&b| u64::try_from(b).unwrap_or(u64::MAX))
                    .collect();
                buses.sort_unstable();
                flat(system, buses)
            }
            // Failed links sit in the network section (they define which
            // fabric is being analyzed); only the sim budget is extra.
            Query::Fabric(query, _, matrix) => (
                encode_fabric(query),
                matrix.fingerprint(),
                query.rate,
                vec![query.cycles, query.warmup, query.seed],
            ),
        };
        QueryKey {
            endpoint: self.endpoint().discriminant(),
            network,
            workload,
            rate_bits: rate.to_bits(),
            extra,
        }
    }
}

/// Parses raw body bytes into a JSON value (empty body ⇒ empty object, so
/// every endpoint works with its CLI defaults).
///
/// # Errors
///
/// [`ApiError::bad_json`] on non-UTF-8 or malformed JSON.
pub fn parse_body(bytes: &[u8]) -> Result<Json, ApiError> {
    if bytes.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(bytes).map_err(|_| ApiError::bad_json("body is not UTF-8"))?;
    json::parse(text).map_err(ApiError::bad_json)
}

/// Parses and validates a request body for `endpoint`.
///
/// Fields are read into `mbus_core::query` specs, the specs are held to
/// `limits`, and only then are the engines' inputs built, so an oversized
/// request is refused before any request matrix is allocated.
///
/// # Errors
///
/// [`ApiError`] with status 400 on structural/domain problems and 422 when
/// a limit in `limits` is exceeded.
pub fn parse_query(
    endpoint: Endpoint,
    body: &Json,
    limits: &ServiceLimits,
) -> Result<Query, ApiError> {
    let Json::Obj(fields) = body else {
        return Err(ApiError::bad_request("body must be a JSON object"));
    };
    for (key, _) in fields {
        let key = key.as_str();
        let known = match endpoint {
            Endpoint::Bandwidth | Endpoint::Exact => FLAT_FIELDS.contains(&key),
            Endpoint::Simulate => FLAT_FIELDS.contains(&key) || SIM_FIELDS.contains(&key),
            Endpoint::Degraded => FLAT_FIELDS.contains(&key) || DEGRADED_FIELDS.contains(&key),
            Endpoint::Fabric => FABRIC_FIELDS.contains(&key),
        };
        if !known {
            return Err(ApiError::bad_request(format!(
                "unknown field `{key}` for /v1/{}",
                endpoint.name()
            )));
        }
    }
    let read_flat = || -> Result<FlatSpec, ApiError> {
        let spec = FlatSpec::read(body)?;
        limits.check_network(&spec)?;
        Ok(spec)
    };
    Ok(match endpoint {
        Endpoint::Bandwidth => Query::Bandwidth(read_flat()?.build()?),
        Endpoint::Exact => Query::Exact(read_flat()?.build()?),
        Endpoint::Simulate => {
            let flat = read_flat()?;
            let sim = SimSpec::read(body)?;
            limits.check_sim(&sim)?;
            Query::Simulate(flat.build()?, sim)
        }
        Endpoint::Degraded => {
            let flat = read_flat()?;
            let degraded = DegradedSpec::read(body)?;
            let mask = degraded.mask(flat.b)?;
            Query::Degraded(flat.build()?, degraded, mask)
        }
        Endpoint::Fabric => {
            let query = FabricQuery::read(body)?;
            limits.check_fabric(&query)?;
            let (topo, matrix) = query.build()?;
            Query::Fabric(query, topo, matrix)
        }
    })
}

/// The trace-analysis document: `mbus trace analyze --json` prints it,
/// and `/v1/simulate` with `"trace_summary": true` attaches it as the
/// `trace` field. Header and totals first, then request-to-grant wait
/// statistics (each quantile and the max `null` when no request was
/// served), then the per-bus scores, per-memory backpressure and the
/// bottleneck ranking.
pub fn trace_json(analysis: &mbus_core::trace::TraceAnalysis) -> Json {
    let header = &analysis.header;
    let count = |x: u64| Json::Num(x as f64);
    let per_bus: Vec<Json> = analysis
        .buses
        .iter()
        .enumerate()
        .map(|(bus, stats)| {
            obj(vec![
                ("bus", Json::Num(bus as f64)),
                ("busy_cycles", count(stats.busy_cycles)),
                ("alive_cycles", count(stats.alive_cycles)),
                ("utilization", Json::Num(stats.utilization)),
                ("blocked_share", Json::Num(stats.blocked_share)),
                ("pressure", Json::Num(stats.pressure)),
            ])
        })
        .collect();
    let per_memory: Vec<Json> = analysis
        .memories
        .iter()
        .enumerate()
        .map(|(memory, stats)| {
            obj(vec![
                ("memory", Json::Num(memory as f64)),
                ("requested", count(stats.requested)),
                ("served", count(stats.served)),
                ("blocked", count(stats.blocked)),
            ])
        })
        .collect();
    let waits = &analysis.wait_histogram;
    let or_null = |value: Option<usize>| value.map_or(Json::Null, |v| Json::Num(v as f64));
    let wait_mean = (waits.count() > 0).then(|| waits.mean());
    obj(vec![
        ("scheme", Json::Str(header.scheme.kind().to_string())),
        ("processors", Json::Num(header.processors as f64)),
        ("memories", Json::Num(header.memories as f64)),
        ("buses", Json::Num(header.buses as f64)),
        ("resubmission", Json::Bool(header.resubmission)),
        ("cycles", count(analysis.cycles)),
        ("issued", count(analysis.issued)),
        ("active", count(analysis.active)),
        ("unreachable", count(analysis.unreachable)),
        ("served", count(analysis.served)),
        ("blocked", count(analysis.blocked_total)),
        ("waits_total", count(analysis.waits_total)),
        ("wait_mean", wait_mean.map_or(Json::Null, Json::Num)),
        ("wait_p50", or_null(waits.quantile(0.5))),
        ("wait_p95", or_null(waits.quantile(0.95))),
        ("wait_p99", or_null(waits.quantile(0.99))),
        ("wait_max", or_null(waits.max_value())),
        ("per_bus", Json::Arr(per_bus)),
        ("per_memory", Json::Arr(per_memory)),
        ("bottlenecks", json::count_array(&analysis.bottlenecks)),
    ])
}

/// Evaluates a parsed query against the engines, returning the result
/// object (the `result` field of the response envelope).
///
/// # Errors
///
/// [`ApiError`] (status 422) when an engine cannot evaluate the query —
/// e.g. exact enumeration beyond the memory limit.
pub fn evaluate(query: &Query) -> Result<Json, ApiError> {
    match query {
        Query::Bandwidth(system) => {
            let breakdown = system.analytic().map_err(ApiError::unsupported)?;
            let per_bus = match &breakdown.per_bus_busy {
                Some(busy) => json::num_array(busy),
                None => Json::Null,
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(breakdown.bandwidth)),
                ("offered_load", Json::Num(breakdown.offered_load)),
                ("acceptance", Json::Num(breakdown.acceptance)),
                ("per_bus_busy", per_bus),
            ]))
        }
        Query::Exact(system) => {
            let bandwidth = system.exact().map_err(ApiError::unsupported)?;
            let method = if system.network().memories() <= mbus_core::exact::enumerate::MAX_MEMORIES
            {
                "enumeration"
            } else {
                "crossbar_closed_form"
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(bandwidth)),
                ("method", Json::Str(method.to_owned())),
            ]))
        }
        Query::Simulate(system, sim) => {
            let config = sim.config();
            if sim.replications > 1 {
                // parse_query rejected trace_summary + replications, so
                // this arm never traces: the runner is free to batch.
                let report = system
                    .simulate_replicated(&config, sim.replications)
                    .map_err(ApiError::unsupported)?;
                let per_replication: Vec<Json> = report
                    .reports
                    .iter()
                    .map(|r| Json::Num(r.bandwidth.mean()))
                    .collect();
                return Ok(obj(vec![
                    ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                    (
                        "bandwidth_half_width",
                        Json::Num(report.bandwidth.half_width()),
                    ),
                    ("confidence_level", Json::Num(report.bandwidth.level())),
                    ("acceptance", Json::Num(report.acceptance)),
                    ("replications", Json::Num(report.replications as f64)),
                    ("engine", Json::Str(report.engine.to_owned())),
                    ("cycles", Json::Num(sim.cycles as f64)),
                    ("warmup", Json::Num(sim.warmup as f64)),
                    ("seed", Json::Num(sim.seed as f64)),
                    ("resubmission", Json::Bool(sim.resubmission)),
                    ("per_replication_bandwidth", Json::Arr(per_replication)),
                ]));
            }
            let (report, trace) = if sim.trace {
                let (report, bytes) = system
                    .simulate_traced(&config, Vec::new())
                    .map_err(ApiError::unsupported)?;
                let mut reader = mbus_core::trace::TraceReader::new(bytes.as_slice())
                    .map_err(ApiError::unsupported)?;
                let analysis =
                    mbus_core::trace::analyze(&mut reader).map_err(ApiError::unsupported)?;
                (report, Some(trace_json(&analysis)))
            } else {
                let report = system.simulate(&config).map_err(ApiError::unsupported)?;
                (report, None)
            };
            let mut fields = vec![
                ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                (
                    "bandwidth_half_width",
                    Json::Num(report.bandwidth.half_width()),
                ),
                ("confidence_level", Json::Num(report.bandwidth.level())),
                ("offered_load", Json::Num(report.offered_load)),
                ("acceptance", Json::Num(report.acceptance)),
                ("unreachable_rate", Json::Num(report.unreachable_rate)),
                ("mean_wait", Json::Num(report.mean_wait)),
                ("max_wait", Json::Num(report.max_wait as f64)),
                ("cycles", Json::Num(report.cycles as f64)),
                ("warmup", Json::Num(report.warmup as f64)),
                ("seed", Json::Num(sim.seed as f64)),
                ("resubmission", Json::Bool(sim.resubmission)),
                ("bus_utilization", json::num_array(&report.bus_utilization)),
            ];
            if let Some(trace) = trace {
                fields.push(("trace", trace));
            }
            Ok(obj(fields))
        }
        Query::Degraded(system, _, mask) => {
            let breakdown =
                degraded_analyze(system.network(), system.matrix(), system.rate(), mask)
                    .map_err(ApiError::unsupported)?;
            let per_class = match &breakdown.per_class_bandwidth {
                Some(values) => json::num_array(values),
                None => Json::Null,
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(breakdown.bandwidth)),
                ("offered_load", Json::Num(breakdown.offered_load)),
                ("acceptance", Json::Num(breakdown.acceptance)),
                ("unreachable_load", Json::Num(breakdown.unreachable_load)),
                (
                    "accessible_memories",
                    Json::Num(breakdown.accessible_memories as f64),
                ),
                (
                    "accessible_fraction",
                    Json::Num(breakdown.accessible_fraction),
                ),
                ("alive_buses", Json::Num(mask.alive_count() as f64)),
                ("per_bus_busy", json::num_array(&breakdown.per_bus_busy)),
                ("per_class_bandwidth", per_class),
            ]))
        }
        Query::Fabric(query, topo, matrix) => evaluate_fabric(query, topo, matrix),
    }
}

/// Evaluates a `/v1/fabric` query: the analytic decomposition always,
/// plus a routed-simulator cross-check when `cycles > 0`.
fn evaluate_fabric(
    query: &FabricQuery,
    topo: &ClusteredBuses,
    matrix: &RequestMatrix,
) -> Result<Json, ApiError> {
    let analysis = analyze_fabric(topo, matrix, query.rate, &query.failed_links)
        .map_err(ApiError::unsupported)?;
    let report = if query.cycles > 0 {
        let config = query.sim_config()?;
        let mut sim =
            FabricSimulator::build(topo, matrix, query.rate).map_err(ApiError::unsupported)?;
        Some(sim.run(&config).map_err(ApiError::unsupported)?)
    } else {
        None
    };
    Ok(fabric_json(query, topo, &analysis, report.as_ref()))
}

/// The `/v1/fabric` result body, which `mbus fabric --json` also prints:
/// the fabric's identity, the analytic decomposition and, when the
/// routed simulator ran, its report and the analytic gap.
pub fn fabric_json(
    query: &FabricQuery,
    topo: &ClusteredBuses,
    analysis: &FabricAnalysis,
    report: Option<&FabricReport>,
) -> Json {
    let analytic_utilization: Vec<f64> =
        analysis.links.iter().map(|load| load.utilization).collect();
    let mut fields = vec![
        ("ks", json::count_array(&query.spec.ks)),
        ("processors", Json::Num(topo.processors() as f64)),
        ("links", Json::Num(topo.links().len() as f64)),
        ("locality", Json::Num(query.spec.locality)),
        ("failed_links", json::count_array(&query.failed_links)),
        (
            "analytic",
            obj(vec![
                ("bandwidth", Json::Num(analysis.bandwidth)),
                ("offered_load", Json::Num(analysis.offered_load)),
                ("acceptance", Json::Num(analysis.acceptance)),
                ("unreachable_rate", Json::Num(analysis.unreachable_rate)),
                ("mean_hops", Json::Num(analysis.mean_hops)),
                ("iterations", Json::Num(analysis.iterations as f64)),
                ("residual", Json::Num(analysis.residual)),
                ("link_utilization", json::num_array(&analytic_utilization)),
                (
                    "cluster_bandwidth",
                    json::num_array(&analysis.cluster_bandwidth),
                ),
            ]),
        ),
    ];
    if let Some(report) = report {
        fields.push((
            "simulated",
            obj(vec![
                ("cycles", Json::Num(report.cycles as f64)),
                ("warmup", Json::Num(report.warmup as f64)),
                ("seed", Json::Num(query.seed as f64)),
                ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                (
                    "bandwidth_half_width",
                    Json::Num(report.bandwidth.half_width()),
                ),
                ("acceptance", Json::Num(report.acceptance)),
                ("unreachable_rate", Json::Num(report.unreachable_rate)),
                ("mean_hops", Json::Num(report.mean_hops)),
                (
                    "link_utilization",
                    json::num_array(&report.link_utilization),
                ),
                (
                    "analytic_gap",
                    Json::Num(analysis.bandwidth - report.bandwidth.mean()),
                ),
            ]),
        ));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(endpoint: Endpoint, body: &str) -> Result<Query, ApiError> {
        parse_query(
            endpoint,
            &json::parse(body).unwrap(),
            &ServiceLimits::default(),
        )
    }

    #[test]
    fn defaults_mirror_the_cli() {
        // `{}` must mean the CLI's default experiment: 8x8x4 full
        // connection, hierarchical workload, r = 1.
        let query = parse(Endpoint::Bandwidth, "{}").unwrap();
        let result = evaluate(&query).unwrap();
        let bw = result.get("bandwidth").unwrap().as_f64().unwrap();
        assert!((bw - 3.97).abs() < 0.011, "Table II cell, got {bw}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = parse(Endpoint::Bandwidth, r#"{"cylces": 10}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("cylces"));
        // `cycles` is fine on /v1/simulate but unknown on /v1/bandwidth.
        assert!(parse(Endpoint::Bandwidth, r#"{"cycles": 10}"#).is_err());
        assert!(parse(Endpoint::Simulate, r#"{"cycles": 10}"#).is_ok());
    }

    #[test]
    fn limits_are_enforced() {
        let err = parse(Endpoint::Bandwidth, r#"{"n": 5000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Simulate, r#"{"cycles": 3000000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Bandwidth, r#"{"n": 0}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn domain_errors_map_to_bad_request() {
        for body in [
            r#"{"rate": 1.5}"#,
            r#"{"rate": -0.1}"#,
            r#"{"scheme": "warp-drive"}"#,
            r#"{"workload": "astrology"}"#,
            r#"{"n": 8, "m": 4}"#,
            r#"{"workload": "favorite", "alpha": 7.0}"#,
        ] {
            let err = parse(Endpoint::Bandwidth, body).unwrap_err();
            assert_eq!(err.status, 400, "{body} should be a 400");
        }
        let err = parse(Endpoint::Degraded, r#"{"failed_buses": [9]}"#).unwrap_err();
        assert_eq!(err.status, 400, "bus 9 of 4 is out of range");
        let err = parse(Endpoint::Degraded, r#"{"failed_buses": "all"}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn cache_keys_distinguish_what_matters() {
        let a = parse(Endpoint::Bandwidth, "{}").unwrap().key();
        let b = parse(Endpoint::Bandwidth, r#"{"n": 8}"#).unwrap().key();
        assert_eq!(a, b, "explicit default == implicit default");
        let c = parse(Endpoint::Exact, "{}").unwrap().key();
        assert_ne!(a, c, "endpoint is part of the key");
        let d = parse(Endpoint::Bandwidth, r#"{"rate": 0.5}"#)
            .unwrap()
            .key();
        assert_ne!(a, d);
        let e = parse(Endpoint::Simulate, r#"{"seed": 1}"#).unwrap().key();
        let f = parse(Endpoint::Simulate, r#"{"seed": 2}"#).unwrap().key();
        assert_ne!(e, f, "seed is part of the simulate key");
        let g = parse(Endpoint::Degraded, r#"{"failed_buses": [1, 2]}"#)
            .unwrap()
            .key();
        let h = parse(Endpoint::Degraded, r#"{"failed_buses": [2, 1]}"#)
            .unwrap()
            .key();
        assert_eq!(g, h, "mask order is canonicalized");
    }

    #[test]
    fn cache_keys_encode_network_fields_explicitly() {
        // Stability: re-parsing the identical body always yields the same
        // key (the key is a pure function of the query's fields).
        let body = r#"{"n": 8, "m": 8, "b": 4, "scheme": "kclass", "classes": 4}"#;
        let a = parse(Endpoint::Bandwidth, body).unwrap().key();
        let b = parse(Endpoint::Bandwidth, body).unwrap().key();
        assert_eq!(a, b, "key must be stable across parses");

        // Every defining network field must separate the key's network
        // component (uniform workload so n ≠ m parses).
        let net = |body: &str| parse(Endpoint::Bandwidth, body).unwrap().key().network;
        let base = net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4}"#);
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 16, "m": 8, "b": 4}"#),
            "n"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 16, "b": 4}"#),
            "m"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 2}"#),
            "b"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "crossbar"}"#),
            "scheme discriminant"
        );
        assert_ne!(
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "partial", "groups": 2}"#
            ),
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "partial", "groups": 4}"#
            ),
            "scheme params"
        );
        assert_ne!(
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "single"}"#),
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "kclass", "classes": 4}"#
            ),
            "different schemes with same dimensions"
        );
    }

    #[test]
    fn network_encoding_has_no_cross_scheme_collisions() {
        use mbus_core::topology::BusNetwork;
        // Same dimensions under every scheme, plus param variations: all
        // encodings must be pairwise distinct. In particular the
        // length-prefixed sections keep a single-assignment vector from
        // aliasing a class-size vector with equal entries.
        let nets = vec![
            BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::strided_single(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 4 }).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 2).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::Crossbar).unwrap(),
            BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap(),
        ];
        let encodings: Vec<Vec<u64>> = nets.iter().map(encode_network).collect();
        for (i, a) in encodings.iter().enumerate() {
            for (j, b) in encodings.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "networks {i} and {j} collide: {a:?}");
                }
            }
        }
        // The encoding leads with the dimensions, in order.
        assert_eq!(&encodings[0][..3], &[8, 8, 4]);
    }

    #[test]
    fn degraded_matches_direct_library_call() {
        use mbus_core::prelude::*;
        let query = parse(Endpoint::Degraded, r#"{"failed_buses": [0]}"#).unwrap();
        let result = evaluate(&query).unwrap();
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = mbus_core::paper_params::hierarchical(8).unwrap().matrix();
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let expected = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert_eq!(
            result.get("bandwidth").unwrap().as_f64(),
            Some(expected.bandwidth)
        );
        assert_eq!(result.get("alive_buses").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn simulate_is_deterministic_per_seed() {
        let body = r#"{"cycles": 2000, "seed": 7}"#;
        let a = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        let b = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn trace_summary_is_opt_in_and_reconciles() {
        let plain = evaluate(&parse(Endpoint::Simulate, r#"{"cycles": 2000, "seed": 9}"#).unwrap())
            .unwrap();
        assert!(plain.get("trace").is_none(), "trace is opt-in");

        let body = r#"{"cycles": 2000, "seed": 9, "scheme": "single", "trace_summary": true}"#;
        let traced = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        let trace = traced.get("trace").expect("trace field attached");
        let bottlenecks = match trace.get("bottlenecks").unwrap() {
            Json::Arr(items) => items.len(),
            other => panic!("bottlenecks not an array: {other:?}"),
        };
        assert_eq!(bottlenecks, 4, "every bus is ranked");
        // The summary's per-bus utilization is the report's, verbatim.
        let report_util = match traced.get("bus_utilization").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("bus_utilization not an array: {other:?}"),
        };
        let per_bus = match trace.get("per_bus").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("per_bus not an array: {other:?}"),
        };
        assert_eq!(per_bus.len(), report_util.len());
        for (entry, util) in per_bus.iter().zip(&report_util) {
            assert_eq!(
                entry.get("utilization").unwrap().as_f64(),
                util.as_f64(),
                "trace utilization reconciles with the report"
            );
        }
        // Tracing must not perturb the simulation itself.
        let plain_same_seed = evaluate(
            &parse(
                Endpoint::Simulate,
                r#"{"cycles": 2000, "seed": 9, "scheme": "single"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            plain_same_seed.get("bandwidth_mean").unwrap().as_f64(),
            traced.get("bandwidth_mean").unwrap().as_f64(),
        );
        // And the cache must key the two variants apart.
        let k_plain = parse(
            Endpoint::Simulate,
            r#"{"cycles": 2000, "seed": 9, "scheme": "single"}"#,
        )
        .unwrap()
        .key();
        let k_traced = parse(Endpoint::Simulate, body).unwrap().key();
        assert_ne!(k_plain, k_traced, "trace_summary is part of the key");
    }

    #[test]
    fn trace_json_carries_the_whole_analysis() {
        use mbus_core::trace::{analyze, TraceReader};
        let body = r#"{"cycles": 2000, "seed": 9, "scheme": "single", "trace_summary": true}"#;
        let Query::Simulate(system, sim) = parse(Endpoint::Simulate, body).unwrap() else {
            panic!("a simulate query");
        };
        let (_, bytes) = system.simulate_traced(&sim.config(), Vec::new()).unwrap();
        let analysis = analyze(&mut TraceReader::new(bytes.as_slice()).unwrap()).unwrap();
        let doc = trace_json(&analysis);
        assert_eq!(json::parse(&doc.render()).unwrap(), doc);
        let Json::Obj(fields) = &doc else {
            panic!("not an object: {doc:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys.join(" "),
            "scheme processors memories buses resubmission cycles issued active unreachable \
             served blocked waits_total wait_mean wait_p50 wait_p95 wait_p99 wait_max per_bus \
             per_memory bottlenecks"
        );
        let count = |key: &str| doc.get(key).and_then(Json::as_u64);
        assert_eq!(count("served"), Some(analysis.served));
        assert_eq!(count("blocked"), Some(analysis.blocked_total));
        let bottlenecks = json::count_array(&analysis.bottlenecks);
        assert_eq!(doc.get("bottlenecks"), Some(&bottlenecks));
        let per_memory = doc.get("per_memory").and_then(Json::as_array).unwrap();
        assert_eq!(per_memory.len(), analysis.memories.len());
        for (entry, stats) in per_memory.iter().zip(&analysis.memories) {
            assert_eq!(
                entry.get("blocked").and_then(Json::as_u64),
                Some(stats.blocked)
            );
        }
        // `/v1/simulate` attaches exactly this document.
        let traced = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(traced.get("trace"), Some(&doc));
    }

    #[test]
    fn trace_json_quantiles_are_null_when_nothing_was_served() {
        let body = r#"{"rate": 0, "cycles": 500, "trace_summary": true}"#;
        let result = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        let trace = result.get("trace").unwrap();
        assert_eq!(trace.get("served").and_then(Json::as_u64), Some(0));
        for key in ["wait_mean", "wait_p50", "wait_p95", "wait_p99", "wait_max"] {
            assert!(trace.get(key).unwrap().is_null(), "{key} of no waits");
        }
    }

    #[test]
    fn replicated_simulate_aggregates_and_reports_engine() {
        let body = r#"{"cycles": 2000, "seed": 7, "replications": 4}"#;
        let result = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(result.get("replications").unwrap().as_usize(), Some(4));
        assert_eq!(result.get("engine").unwrap().as_str(), Some("batched"));
        let per_rep = match result.get("per_replication_bandwidth").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("per_replication_bandwidth not an array: {other:?}"),
        };
        assert_eq!(per_rep.len(), 4);
        // The aggregate CI center is the mean of the per-replication means.
        let mean = per_rep.iter().map(|v| v.as_f64().unwrap()).sum::<f64>() / 4.0;
        let got = result.get("bandwidth_mean").unwrap().as_f64().unwrap();
        assert!((got - mean).abs() < 1e-12, "{got} vs {mean}");
        // Replications are deterministic and keyed into the cache.
        let again = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(result.render(), again.render());
        let k_single = parse(Endpoint::Simulate, r#"{"cycles": 2000, "seed": 7}"#)
            .unwrap()
            .key();
        let k_replicated = parse(Endpoint::Simulate, body).unwrap().key();
        assert_ne!(k_single, k_replicated, "replications is part of the key");
    }

    #[test]
    fn trace_summary_excludes_replications() {
        let body = r#"{"cycles": 2000, "replications": 3, "trace_summary": true}"#;
        let err = parse(Endpoint::Simulate, body).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unsupported"));
        assert!(err.message.contains("trace"), "message: {}", err.message);
        // A single replication may trace: the scalar engine runs anyway.
        let body = r#"{"cycles": 2000, "replications": 1, "trace_summary": true}"#;
        let traced = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert!(traced.get("trace").is_some());
    }

    #[test]
    fn replications_scale_the_cycle_budget() {
        // 800k cycles x 3 replications blows the 2M default budget even
        // though a single replication would fit.
        let err = parse(
            Endpoint::Simulate,
            r#"{"cycles": 800000, "warmup": 0, "replications": 3}"#,
        )
        .unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        assert!(parse(
            Endpoint::Simulate,
            r#"{"cycles": 800000, "warmup": 0, "replications": 2}"#
        )
        .is_ok());
        let err = parse(Endpoint::Simulate, r#"{"replications": 0}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn fabric_endpoint_reconciles_analytic_and_sim() {
        let body = r#"{"ks": [4, 4], "buses": 2, "locality": 0.6, "rate": 0.5,
                       "cycles": 4000, "seed": 11}"#;
        let result = evaluate(&parse(Endpoint::Fabric, body).unwrap()).unwrap();
        let analytic = result.get("analytic").unwrap();
        let simulated = result.get("simulated").unwrap();
        let a = analytic.get("bandwidth").unwrap().as_f64().unwrap();
        let s = simulated.get("bandwidth_mean").unwrap().as_f64().unwrap();
        assert!(a > 0.0 && s > 0.0);
        // Convergence is reported, and only a converged answer is.
        let residual = analytic.get("residual").unwrap().as_f64().unwrap();
        assert!((0.0..1e-10).contains(&residual), "residual {residual}");
        assert!(
            (a - s).abs() / s < 0.15,
            "analytic {a} vs simulated {s} disagree beyond tolerance"
        );
        // 4x4 paired fabric: 4 local groups + 4 uplinks.
        assert_eq!(result.get("links").unwrap().as_usize(), Some(8));
        let utils = match analytic.get("link_utilization").unwrap() {
            Json::Arr(items) => items.len(),
            other => panic!("link_utilization not an array: {other:?}"),
        };
        assert_eq!(utils, 8);
        // Deterministic per seed, like /v1/simulate.
        let again = evaluate(&parse(Endpoint::Fabric, body).unwrap()).unwrap();
        assert_eq!(result.render(), again.render());
    }

    #[test]
    fn fabric_analytic_only_when_cycles_zero() {
        let result = evaluate(&parse(Endpoint::Fabric, r#"{"cycles": 0}"#).unwrap()).unwrap();
        assert!(result.get("analytic").is_some());
        assert!(result.get("simulated").is_none(), "no sim without cycles");
    }

    #[test]
    fn fabric_failed_uplink_degrades_bandwidth() {
        // Pure-remote traffic (locality 0) puts every request over an uplink,
        // so failing one genuinely removes throughput. (At higher locality the
        // drop-on-block model can *raise* total bandwidth: unreachable remote
        // flows leave the system and local links decongest.)
        let healthy = evaluate(
            &parse(
                Endpoint::Fabric,
                r#"{"ks": [4, 4], "locality": 0.0, "cycles": 0}"#,
            )
            .unwrap(),
        )
        .unwrap();
        // Links 0..4 are the local groups, 4..8 the uplinks; fail one uplink.
        let degraded = evaluate(
            &parse(
                Endpoint::Fabric,
                r#"{"ks": [4, 4], "locality": 0.0, "cycles": 0, "failed_links": [4]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let bw = |r: &Json| {
            r.get("analytic")
                .unwrap()
                .get("bandwidth")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(bw(&degraded) < bw(&healthy));
        let unreachable = degraded
            .get("analytic")
            .unwrap()
            .get("unreachable_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(unreachable > 0.0, "cross-uplink traffic is unreachable");
    }

    #[test]
    fn fabric_validation_and_keys() {
        // Flat keys are rejected on the fabric endpoint.
        let err = parse(Endpoint::Fabric, r#"{"n": 8}"#).unwrap_err();
        assert_eq!(err.status, 400);
        // Out-of-range failed link.
        let err = parse(Endpoint::Fabric, r#"{"ks": [4, 4], "failed_links": [99]}"#).unwrap_err();
        assert_eq!(err.status, 400);
        // Dimension and budget limits hold.
        let err = parse(Endpoint::Fabric, r#"{"ks": [64, 64]}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Fabric, r#"{"cycles": 3000000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        // Cache keys: defaults are stable, every knob separates.
        let base = parse(Endpoint::Fabric, "{}").unwrap().key();
        assert_eq!(
            base,
            parse(Endpoint::Fabric, r#"{"ks": [4, 4]}"#).unwrap().key()
        );
        for body in [
            r#"{"ks": [2, 8]}"#,
            r#"{"buses": 3}"#,
            r#"{"uplink": 2}"#,
            r#"{"locality": 0.3}"#,
            r#"{"rate": 0.25}"#,
            r#"{"cycles": 1000}"#,
            r#"{"seed": 7}"#,
            r#"{"failed_links": [0]}"#,
        ] {
            let key = parse(Endpoint::Fabric, body).unwrap().key();
            assert_ne!(base, key, "{body} must change the cache key");
        }
        // Link-failure order is canonicalized.
        assert_eq!(
            parse(Endpoint::Fabric, r#"{"failed_links": [4, 1]}"#)
                .unwrap()
                .key(),
            parse(Endpoint::Fabric, r#"{"failed_links": [1, 4]}"#)
                .unwrap()
                .key(),
        );
        // Fabric keys never collide with a flat endpoint's.
        assert_ne!(
            parse(Endpoint::Fabric, "{}").unwrap().key(),
            parse(Endpoint::Bandwidth, "{}").unwrap().key(),
        );
    }

    #[test]
    fn error_bodies_are_structured_json() {
        let err = ApiError::bad_request("no such scheme `x`");
        let body = json::parse(&err.to_body()).unwrap();
        let error = body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_request"));
        assert_eq!(
            error.get("message").unwrap().as_str(),
            Some("no such scheme `x`")
        );
    }
}
