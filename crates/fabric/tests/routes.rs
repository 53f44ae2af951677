//! Property tests for [`ClusteredBuses`] routing: every route is acyclic,
//! terminates at the addressed memory's leaf, and crosses the tree the way
//! a nearest-common-ancestor walk must — up from the source leaf, over,
//! down to the destination leaf.

use mbus_fabric::{ClusteredBuses, LinkKind};
use mbus_workload::Hierarchy;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_fabric() -> impl Strategy<Value = (ClusteredBuses, usize, usize)> {
    // Branching vectors up to depth 3 with factors 2..=4 keep N ≤ 64; the
    // local group may not be wider than the leaf (the last factor, ≥ 2).
    (
        proptest::collection::vec(2usize..=4, 1..=3),
        1usize..=2,
        1usize..=2,
    )
        .prop_map(|(ks, buses, uplink)| {
            let hierarchy = Hierarchy::paired(&ks).unwrap();
            ClusteredBuses::new(hierarchy, buses, uplink).unwrap()
        })
        .prop_flat_map(|topo| {
            let n = topo.processors();
            let m = topo.memories();
            (Just(topo), 0..n, 0..m)
        })
}

proptest! {
    /// Routes never repeat a link (acyclic ⇒ the hop-by-hop walk
    /// terminates), start on the source leaf's local group, and end on the
    /// destination leaf's local group.
    #[test]
    fn routes_are_acyclic_and_terminate_at_the_destination((topo, p, j) in arb_fabric()) {
        let src = topo.leaf_of_processor(p);
        let dst = topo.leaf_of_memory(j);
        let route = topo.route(src, j);
        prop_assert!(!route.is_empty());
        let distinct: HashSet<_> = route.iter().copied().collect();
        prop_assert_eq!(distinct.len(), route.len(), "route repeats a link");
        prop_assert!(route.iter().all(|&id| id < topo.links().len()));
        prop_assert_eq!(*route.first().unwrap(), topo.local_link(src));
        prop_assert_eq!(*route.last().unwrap(), topo.local_link(dst));
        // Exactly two local-group hops on remote routes, one on local.
        let locals = route
            .iter()
            .filter(|&&id| matches!(topo.links()[id].kind, LinkKind::Local { .. }))
            .count();
        if src == dst {
            prop_assert_eq!(route.len(), 1);
        } else {
            prop_assert_eq!(locals, 2);
            // Interior hops are all uplinks, and the reverse route has the
            // same length (the tree walk is symmetric).
            let interior_all_uplinks = route[1..route.len() - 1]
                .iter()
                .all(|&id| matches!(topo.links()[id].kind, LinkKind::Uplink { .. }));
            prop_assert!(interior_all_uplinks);
            let back_memory = (0..topo.memories())
                .find(|&mem| topo.leaf_of_memory(mem) == src)
                .unwrap();
            prop_assert_eq!(topo.route(dst, back_memory).len(), route.len());
        }
    }

    /// Route length is bounded by the tree: at most `2·depth` hops
    /// (up the source spine, down the destination spine).
    #[test]
    fn route_length_is_bounded_by_tree_depth((topo, p, j) in arb_fabric()) {
        let src = topo.leaf_of_processor(p);
        let route = topo.route(src, j);
        prop_assert!(route.len() <= 2 * topo.depth());
    }

    /// Every link of the fabric appears on at least one route — no
    /// unreachable hardware in the enumeration.
    #[test]
    fn every_link_is_on_some_route((topo, _p, _j) in arb_fabric()) {
        let mut used: HashSet<usize> = HashSet::new();
        for src in 0..topo.leaves() {
            for j in 0..topo.memories() {
                used.extend(topo.route(src, j).iter().copied());
            }
        }
        prop_assert_eq!(used.len(), topo.links().len());
    }
}
