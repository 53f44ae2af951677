//! The deterministic serving grid.
//!
//! [`grid_request`] maps a request index to one fixed query: every
//! endpoint, over two network sizes and four request rates, for 40
//! distinct cache keys that repeat with period 40. perfbench drives this
//! grid against an in-process [`Server`](crate::Server): `serve_hot`
//! warms the 40 keys and then re-issues them, so every request is a cache
//! hit, and `serve_cold` uses the same shapes with a fresh rate per
//! request, so every key is new.

use crate::json::{obj, Json};
use crate::service::Endpoint;

/// The deterministic query grid: request `i` always carries the same body
/// to the same endpoint, so `i` and `i + 40` hit the same cache key.
/// Mixes every endpoint over 8 parameter variants (two network sizes ×
/// four request rates): 40 distinct cache keys.
pub fn grid_request(i: usize) -> (Endpoint, String) {
    let endpoint = Endpoint::ALL[i % Endpoint::ALL.len()];
    let variant = (i / Endpoint::ALL.len()) % 8;
    let n = [8.0, 16.0][variant / 4];
    let rate = [1.0, 0.75, 0.5, 0.25][variant % 4];
    if endpoint == Endpoint::Fabric {
        // Fabric speaks its own key set (a cluster tree, not n x m x b);
        // mirror the two network sizes as leaf counts.
        let fields = vec![
            ("ks", Json::Arr(vec![Json::Num(n / 4.0), Json::Num(4.0)])),
            ("rate", Json::Num(rate)),
            ("cycles", Json::Num(4_000.0)),
            ("seed", Json::Num(7.0)),
        ];
        return (endpoint, obj(fields).render());
    }
    let mut fields = vec![
        ("n", Json::Num(n)),
        ("b", Json::Num(4.0)),
        ("rate", Json::Num(rate)),
    ];
    match endpoint {
        Endpoint::Simulate => {
            fields.push(("cycles", Json::Num(20_000.0)));
            fields.push(("warmup", Json::Num(1_000.0)));
            fields.push(("seed", Json::Num(7.0)));
        }
        Endpoint::Degraded => {
            fields.push((
                "failed_buses",
                Json::Arr(vec![Json::Num((variant % 4) as f64)]),
            ));
        }
        Endpoint::Bandwidth | Endpoint::Exact | Endpoint::Fabric => {}
    }
    (endpoint, obj(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::service::{self, ServiceLimits};

    #[test]
    fn grid_is_deterministic_and_mixed() {
        let (e0, b0) = grid_request(0);
        let (e0b, b0b) = grid_request(0);
        assert_eq!((e0, b0.clone()), (e0b, b0b));
        assert_eq!(e0, Endpoint::Bandwidth);
        assert_eq!(grid_request(1).0, Endpoint::Exact);
        assert_eq!(grid_request(2).0, Endpoint::Simulate);
        assert_eq!(grid_request(3).0, Endpoint::Degraded);
        assert_eq!(grid_request(4).0, Endpoint::Fabric);
        // Variants change the rate then the size, repeating with period 40.
        assert_ne!(grid_request(0).1, grid_request(5).1);
        assert_ne!(grid_request(0).1, grid_request(20).1, "n differs");
        assert_eq!(grid_request(0).1, grid_request(40).1);
        // The cache-key contract `serve_hot` relies on: every body is a
        // valid query, the 40 keys are pairwise distinct, and `i + 40`
        // repeats the key of `i`. Keys only; nothing is evaluated.
        let key = |i: usize| {
            let (endpoint, body) = grid_request(i);
            let body = json::parse(&body).unwrap_or_else(|e| panic!("grid body {i}: {e:?}"));
            service::parse_query(endpoint, &body, &ServiceLimits::default())
                .unwrap_or_else(|e| panic!("grid query {i} rejected: {e:?}"))
                .key()
        };
        let keys: Vec<_> = (0..40).map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "grid requests {i} and {j} share a cache key");
            }
            assert_eq!(*a, key(i + 40), "grid request {} repeats {i}", i + 40);
        }
    }
}
