//! Cross-call memoization for the exact engines.
//!
//! A design-space sweep, or a server answering exact queries, evaluates the
//! same network at many request rates, and each evaluation would otherwise
//! rebuild the `2^M`-entry [`ServedTable`] from scratch. This module
//! holds a process-wide [`MemoCache`] of served-set tables keyed by the
//! network's canonical debug rendering (which encodes `N × M × B` and the
//! full scheme, assignment vectors included), so every exact engine —
//! enumeration, transform, and the Markov chain — shares one table per
//! network.
//!
//! The cache is bounded (a handful of tables per shard; a `ServedTable` is
//! at most 1 MiB at `M = 20`), and misses beyond capacity still return a
//! freshly built table — the cache is a fast path, never a correctness
//! dependency.

use mbus_stats::cache::{CacheStats, MemoCache};
use mbus_topology::{BusNetwork, ServedTable, TopologyError};
use std::sync::{Arc, OnceLock};

/// Process-wide served-set table cache: 4 shards × 16 tables ≈ ≤ 64 MiB
/// worst case, far less in practice (tables are `2^M` bytes, typically
/// well under a kilobyte).
fn table_cache() -> &'static MemoCache<String, ServedTable> {
    static CACHE: OnceLock<MemoCache<String, ServedTable>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new(4, 16))
}

/// Returns the (possibly cached) served-set table for `net`.
///
/// # Errors
///
/// Propagates [`TopologyError::TableTooLarge`] when `M` exceeds
/// [`mbus_topology::MAX_TABLE_MEMORIES`].
pub fn served_table(net: &BusNetwork) -> Result<Arc<ServedTable>, TopologyError> {
    let key = format!("{net:?}");
    if let Some(hit) = table_cache().get(&key) {
        return Ok(hit);
    }
    // Build outside the cache so failures propagate instead of being
    // memoized; a lost race merely builds the table twice.
    let built = ServedTable::build(net)?;
    Ok(table_cache().get_or_insert_with(key, move || built))
}

/// Counter snapshot of the process-wide served-set table cache, which the
/// serving layer's `/metrics` renders as `mbus_exact_served_table_cache_*`.
pub fn served_table_cache_stats() -> CacheStats {
    table_cache().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;

    #[test]
    fn same_network_shares_one_table() {
        let a = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        let b = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        let ta = served_table(&a).unwrap();
        let tb = served_table(&b).unwrap();
        assert!(Arc::ptr_eq(&ta, &tb));
        // A different network gets a different table.
        let c = BusNetwork::new(4, 4, 3, ConnectionScheme::Full).unwrap();
        let tc = served_table(&c).unwrap();
        assert!(!Arc::ptr_eq(&ta, &tc));
        assert_eq!(tc.served(0b1111), 3);
    }

    #[test]
    fn oversized_tables_still_error() {
        let net = BusNetwork::new(2, 24, 2, ConnectionScheme::Full).unwrap();
        assert!(served_table(&net).is_err());
    }
}
