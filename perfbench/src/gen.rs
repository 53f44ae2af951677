//! Seeded input generators. The same seed always yields the same inputs;
//! the program under test only ever sees the generated request bodies and
//! design points, never the seed.

use mbus_server::json::{self, Json};
use mbus_server::loadgen::grid_request;
use mbus_server::service::Endpoint;

/// SplitMix64: a tiny, well-mixed generator for input construction.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform index in `0..n` (`n > 0`; the modulo bias is irrelevant for
    /// shuffling a few hundred items).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One HTTP query: target endpoint and JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// JSON request body.
    pub body: String,
}

impl Query {
    /// The exact bytes a client sends for this query.
    pub fn request_bytes(&self) -> Vec<u8> {
        format!(
            "POST /v1/{} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.endpoint.name(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Distinct cache keys in the serving grid (`loadgen::grid_request(0..40)`).
pub const GRID_KEYS: usize = 40;

/// The serving grid, in index order.
pub fn grid() -> Vec<Query> {
    (0..GRID_KEYS)
        .map(|i| {
            let (endpoint, body) = grid_request(i);
            Query { endpoint, body }
        })
        .collect()
}

/// `serve_hot`: client `client`'s seeded visiting order over the grid.
/// Every client visits all 40 keys before repeating one.
pub fn hot_order(seed: u64, client: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..GRID_KEYS).collect();
    Rng::new(seed, 0x686F_7400 + client as u64).shuffle(&mut order);
    order
}

/// Values a cold request's `rate` can take: `0.5 + j / 2^53` for
/// `j < 2^52`, every one an exact `f64` in `[0.5, 1)`.
const RATE_SLOTS_LOG2: u32 = 52;

/// `serve_cold`: request `k` of the sequence for `seed`. Endpoints and
/// shapes follow the serving grid round-robin (`grid_request(k % 40)`);
/// the `rate` is replaced by a value no other `k` below `2^52` receives,
/// and `simulate`/`fabric` also get a seeded `seed`, so no two requests
/// share a cache key.
pub fn cold_query(seed: u64, k: u64) -> Query {
    let (endpoint, body) = grid_request((k % GRID_KEYS as u64) as usize);
    // An odd step makes k -> j a bijection modulo 2^52 (a Weyl sequence).
    let slots = 1u64 << RATE_SLOTS_LOG2;
    let j = mix(seed).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1)) & (slots - 1);
    let rate = 0.5 + j as f64 / (2.0 * slots as f64);
    let sim_seed = mix(seed ^ mix(k ^ 0x5EED)) >> 12;
    let Ok(Json::Obj(mut fields)) = json::parse(&body) else {
        unreachable!("grid bodies are JSON objects");
    };
    let mut has_seed = false;
    for (key, value) in &mut fields {
        match key.as_str() {
            "rate" => *value = Json::Num(rate),
            "seed" => {
                *value = Json::Num(sim_seed as f64);
                has_seed = true;
            }
            _ => {}
        }
    }
    if !has_seed && matches!(endpoint, Endpoint::Simulate | Endpoint::Fabric) {
        fields.push(("seed".to_owned(), Json::Num(sim_seed as f64)));
    }
    Query {
        endpoint,
        body: Json::Obj(fields).render(),
    }
}

/// Replications per design point.
pub const REPLICATIONS: usize = 64;
/// Measured cycles per replication.
pub const CYCLES: u64 = 1_000;
/// Warmup cycles per replication.
pub const WARMUP: u64 = 100;
/// Lane-cycles one design point simulates.
pub const LANE_CYCLES_PER_POINT: u64 = REPLICATIONS as u64 * (CYCLES + WARMUP);

/// Network sizes (N = M) of one block. Four of the seven points have
/// N = 8 (the SWAR contender path), so with a fixed cycle count the
/// lane-cycles split roughly evenly between N ≤ 8 and N > 8 (the
/// requester-table path). Four rather than three also keeps the median
/// point inside the N = 8 class instead of on the boundary to N = 16.
pub const BLOCK_SIZES: [usize; 7] = [8, 8, 8, 8, 16, 32, 64];

/// The five connection schemes.
pub const SCHEMES: [&str; 5] = ["full", "single", "partial", "kclass", "crossbar"];

/// Traffic models.
pub const TRAFFIC: [&str; 2] = ["hier", "uniform"];

/// Request rates.
pub const RATES: [f64; 2] = [0.5, 1.0];

/// One replicated design point of `sim_replicate`.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Processors = memories.
    pub n: usize,
    /// Buses.
    pub b: usize,
    /// Connection scheme name (see [`SCHEMES`]).
    pub scheme: &'static str,
    /// Traffic model name (see [`TRAFFIC`]).
    pub traffic: &'static str,
    /// Request rate.
    pub rate: f64,
    /// Base seed of the point's replications.
    pub seed: u64,
}

/// Buses for an `n x n` point: half the memories up to 8 buses, then a
/// quarter.
pub fn buses_for(n: usize) -> usize {
    if n <= 16 {
        n / 2
    } else {
        n / 4
    }
}

/// `sim_replicate`: one round of design points. The round is 20 blocks,
/// one per (scheme, traffic, rate) combination in seeded order; each block
/// holds the seven [`BLOCK_SIZES`] in seeded order, so any prefix of whole
/// blocks keeps the size mix (and the lane-cycle split) of the round.
pub fn design_points(seed: u64) -> Vec<DesignPoint> {
    let mut rng = Rng::new(seed, 0x51_4D00);
    let mut combos = Vec::with_capacity(SCHEMES.len() * TRAFFIC.len() * RATES.len());
    for &scheme in &SCHEMES {
        for &traffic in &TRAFFIC {
            for &rate in &RATES {
                combos.push((scheme, traffic, rate));
            }
        }
    }
    rng.shuffle(&mut combos);
    let mut points = Vec::with_capacity(combos.len() * BLOCK_SIZES.len());
    for (scheme, traffic, rate) in combos {
        let mut sizes = BLOCK_SIZES;
        rng.shuffle(&mut sizes);
        for n in sizes {
            points.push(DesignPoint {
                n,
                b: buses_for(n),
                scheme,
                traffic,
                rate,
                seed: rng.next_u64() >> 16,
            });
        }
    }
    points
}
