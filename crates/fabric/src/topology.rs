//! Routed cluster-of-buses topologies.
//!
//! A fabric is a tree of bus groups mirroring the paper's `N = k₁k₂⋯kₙ`
//! cluster hierarchy: every leaf subcluster owns a **local bus group**
//! (a Full-connection bus stage over its own memories, exactly the
//! flat `BusNetwork` of the paper scoped to one cluster), and every
//! non-root tree node owns an **uplink** to its parent. A request from
//! processor `p` to memory `j` crosses
//!
//! ```text
//! local(leaf(p)) → up … up → down … down → local(leaf(j))
//! ```
//!
//! — ascending to the lowest common ancestor of the two leaves and
//! descending again, with the two local bus groups as first and last
//! hop. Intra-cluster traffic uses the single hop `local(leaf(p))`.
//! At depth 1 there is one leaf, one local link, and no uplinks: the
//! fabric *is* the flat network ([`ClusteredBuses::flatten`]).

use crate::FabricError;
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::Hierarchy;
use serde::{Deserialize, Serialize};

/// Index into a fabric's link table.
pub type LinkId = usize;

/// What a link physically is within the cluster tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// The intra-cluster bus group of leaf `leaf`: the only medium inside
    /// that cluster, carrying both its memory traffic and its escape
    /// traffic's first hop.
    Local {
        /// Leaf (deepest subcluster) index.
        leaf: usize,
    },
    /// The uplink from tree node `node` at depth `level` to its parent at
    /// `level − 1` (levels count from the root at 0; leaves sit at
    /// `depth − 1`).
    Uplink {
        /// Depth of the child endpoint.
        level: usize,
        /// Node index within that level (row-major over `k₁⋯k_level`).
        node: usize,
    },
}

/// One link of the fabric: a bus group or uplink with a parallel width
/// (requests granted per cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Requests the link can accept per cycle (bus count of a local
    /// group, channel count of an uplink).
    pub(crate) width: usize,
    /// Position of the link in the cluster tree.
    pub kind: LinkKind,
}

/// The cluster-of-buses fabric over a paired (or shared-leaf)
/// [`Hierarchy`]: one local Full bus group per leaf, one uplink per
/// non-root tree node.
///
/// # Examples
///
/// ```
/// use mbus_fabric::ClusteredBuses;
/// use mbus_workload::Hierarchy;
///
/// // Two clusters of four processor/memory pairs, two local buses each,
/// // one-wide uplinks.
/// let topo = ClusteredBuses::new(Hierarchy::paired(&[2, 4])?, 2, 1)?;
/// assert_eq!(topo.leaves(), 2);
/// assert_eq!(topo.links().len(), 4); // 2 local groups + 2 uplinks
/// // Remote route: local(0) → uplink(0) → uplink(1) → local(1).
/// assert_eq!(topo.route(0, 5).len(), 4);
/// // Intra-cluster route: one hop over the local group.
/// assert_eq!(topo.route(0, 1), &[topo.local_link(0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusteredBuses {
    hierarchy: Hierarchy,
    links: Vec<Link>,
    /// `routes[src_leaf * leaves + dst_leaf]`, hop-ordered.
    routes: Vec<Vec<LinkId>>,
    /// First uplink id per level (index 0 unused: the root has no uplink).
    uplink_base: Vec<usize>,
    local_buses: usize,
    uplink_width: usize,
}

impl ClusteredBuses {
    /// Builds the fabric for `hierarchy` with `local_buses` buses in every
    /// leaf's local group and `uplink_width`-wide uplinks.
    ///
    /// # Errors
    ///
    /// [`FabricError::BadFabric`] when a width is zero or the local group
    /// is wider than the leaf's memory count (a bus that can never be
    /// used, mirroring [`BusNetwork::new`]'s `B ≤ M` rule per cluster).
    pub fn new(
        hierarchy: Hierarchy,
        local_buses: usize,
        uplink_width: usize,
    ) -> Result<Self, FabricError> {
        if local_buses == 0 {
            return Err(FabricError::BadFabric {
                reason: "local bus group width must be positive".into(),
            });
        }
        if uplink_width == 0 {
            return Err(FabricError::BadFabric {
                reason: "uplink width must be positive".into(),
            });
        }
        let memories_per_leaf = hierarchy.memories_per_leaf();
        if local_buses > memories_per_leaf {
            return Err(FabricError::BadFabric {
                reason: format!(
                    "local group of {local_buses} buses exceeds the {memories_per_leaf} \
                     memories per leaf"
                ),
            });
        }

        let depth = hierarchy.levels();
        let leaves = hierarchy.leaf_count();
        let mut links: Vec<Link> = (0..leaves)
            .map(|leaf| Link {
                width: local_buses,
                kind: LinkKind::Local { leaf },
            })
            .collect();
        // Uplinks, level by level from just below the root down to the
        // leaves: level `l` has k₁⋯k_l nodes, each with one uplink.
        let mut uplink_base = vec![0usize; depth];
        let mut nodes_at = 1usize;
        for (level, &k) in hierarchy.branching_factors().iter().enumerate() {
            // `level` here is 0-based over ks; tree level of these nodes
            // is `level + 1`… except the deepest factor describes leaf
            // *contents*, not tree nodes, for paired hierarchies. Tree
            // nodes with uplinks live at levels 1 ..= depth − 1, which is
            // the prefix ks[..depth − 1].
            if level + 1 >= depth {
                break;
            }
            nodes_at *= k;
            uplink_base[level + 1] = links.len();
            for node in 0..nodes_at {
                links.push(Link {
                    width: uplink_width,
                    kind: LinkKind::Uplink {
                        level: level + 1,
                        node,
                    },
                });
            }
        }

        let mut fabric = Self {
            hierarchy,
            links,
            routes: Vec::new(),
            uplink_base,
            local_buses,
            uplink_width,
        };
        fabric.routes = (0..leaves * leaves.max(1))
            .map(|pair| fabric.build_route(pair / leaves, pair % leaves))
            .collect();
        Ok(fabric)
    }

    /// The underlying cluster hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of processors `N`.
    pub fn processors(&self) -> usize {
        self.hierarchy.processors()
    }

    /// Number of memory modules `M`.
    pub fn memories(&self) -> usize {
        self.hierarchy.memories()
    }

    /// Number of leaf clusters.
    pub fn leaves(&self) -> usize {
        self.hierarchy.leaf_count()
    }

    /// The link table; `LinkId`s index into it.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Leaf cluster of processor `p`.
    pub fn leaf_of_processor(&self, p: usize) -> usize {
        self.hierarchy.leaf_of_processor(p)
    }

    /// Leaf cluster of memory `j`.
    pub fn leaf_of_memory(&self, j: usize) -> usize {
        self.hierarchy.leaf_of_memory(j)
    }

    /// The local bus group of `leaf`.
    pub fn local_link(&self, leaf: usize) -> LinkId {
        leaf
    }

    /// Hop-ordered links a request from a processor in `src_leaf` crosses
    /// to reach `dst_memory`. Every route is acyclic (no repeated link)
    /// and ends at the local link of `dst_memory`'s leaf; the fabric
    /// simulator and analytic model rely on both.
    pub fn route(&self, src_leaf: usize, dst_memory: usize) -> &[LinkId] {
        self.leaf_route(src_leaf, self.leaf_of_memory(dst_memory))
    }

    /// Tree depth `n` (number of hierarchy levels).
    pub fn depth(&self) -> usize {
        self.hierarchy.levels()
    }

    /// Buses in every leaf's local group.
    pub fn local_buses(&self) -> usize {
        self.local_buses
    }

    /// Channels on every uplink.
    pub fn uplink_width(&self) -> usize {
        self.uplink_width
    }

    /// Hop-ordered route between two leaf clusters (the
    /// [`ClusteredBuses::route`] of any memory homed in `dst_leaf`).
    pub(crate) fn leaf_route(&self, src_leaf: usize, dst_leaf: usize) -> &[LinkId] {
        &self.routes[src_leaf * self.hierarchy.leaf_count() + dst_leaf]
    }

    /// The ancestor node of `leaf` at tree level `level` (level 0 = root).
    fn node_at(&self, leaf: usize, level: usize) -> usize {
        let nodes: usize = self.hierarchy.branching_factors()[..level].iter().product();
        let per = self.hierarchy.leaf_count() / nodes;
        leaf / per
    }

    /// Hop-ordered route between two leaves.
    fn build_route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        let depth = self.depth();
        if src == dst {
            return vec![src];
        }
        // Deepest level where the two leaves share an ancestor.
        let mut lca = 0;
        for level in (0..depth - 1).rev() {
            if self.node_at(src, level) == self.node_at(dst, level) {
                lca = level;
                break;
            }
        }
        let mut route = Vec::with_capacity(2 * (depth - lca));
        route.push(src); // local group of the source leaf
        for level in (lca + 1..depth).rev() {
            route.push(self.uplink_base[level] + self.node_at(src, level));
        }
        for level in lca + 1..depth {
            route.push(self.uplink_base[level] + self.node_at(dst, level));
        }
        route.push(dst); // local group of the destination leaf
        route
    }

    /// The flat `BusNetwork` a depth-1 fabric degenerates to: its single
    /// local group is exactly an `N × M × B` Full-connection network.
    ///
    /// # Errors
    ///
    /// [`FabricError::BadFabric`] when the depth exceeds 1 — a deeper tree
    /// has no lossless flat equivalent.
    pub fn flatten(&self) -> Result<BusNetwork, FabricError> {
        if self.depth() != 1 {
            return Err(FabricError::BadFabric {
                reason: format!(
                    "only a depth-1 fabric flattens losslessly (depth is {})",
                    self.depth()
                ),
            });
        }
        Ok(BusNetwork::new(
            self.processors(),
            self.memories(),
            self.local_buses,
            ConnectionScheme::Full,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(ks: &[usize], buses: usize, uplink: usize) -> ClusteredBuses {
        ClusteredBuses::new(Hierarchy::paired(ks).unwrap(), buses, uplink).unwrap()
    }

    #[test]
    fn depth_one_has_one_local_link_and_no_uplinks() {
        let topo = fabric(&[8], 4, 1);
        assert_eq!(topo.depth(), 1);
        assert_eq!(topo.leaves(), 1);
        assert_eq!(topo.links().len(), 1);
        assert_eq!(topo.links()[0].kind, LinkKind::Local { leaf: 0 });
        for j in 0..8 {
            assert_eq!(topo.route(0, j), &[0]);
        }
        let flat = topo.flatten().unwrap();
        assert_eq!(
            (flat.processors(), flat.memories(), flat.buses()),
            (8, 8, 4)
        );
    }

    #[test]
    fn depth_two_links_and_routes() {
        // 4 clusters of 4: 4 local + 4 uplinks.
        let topo = fabric(&[4, 4], 2, 1);
        assert_eq!(topo.leaves(), 4);
        assert_eq!(topo.links().len(), 8);
        // Intra: single local hop.
        assert_eq!(topo.route(2, 10), &[2]);
        // Remote 0 → cluster 3 (memories 12..16): up through uplink(0),
        // down through uplink(3).
        assert_eq!(topo.route(0, 13), &[0, 4, 7, 3]);
        assert!(topo.flatten().is_err());
    }

    #[test]
    fn depth_three_routes_stop_at_the_lca() {
        // ks = (2, 2, 2): 4 leaves at level 2, 2 mid nodes at level 1.
        // Links: 4 local (0..4), level-1 uplinks (4, 5), level-2 uplinks
        // (6..10).
        let topo = fabric(&[2, 2, 2], 1, 1);
        assert_eq!(topo.links().len(), 10);
        assert_eq!(topo.uplink_base, vec![0, 4, 6]);
        // Leaves 0 and 1 share the level-1 node: route climbs one level.
        assert_eq!(topo.route(0, 3), &[0, 6, 7, 1]);
        // Leaves 0 and 3 meet only at the root: route climbs two levels.
        assert_eq!(topo.route(0, 7), &[0, 6, 4, 5, 9, 3]);
        // Symmetric shape in the other direction.
        assert_eq!(topo.route(3, 1), &[3, 9, 5, 4, 6, 0]);
    }

    #[test]
    fn routes_are_acyclic_and_end_at_the_destination_leaf() {
        for (ks, buses, uplink) in [
            (vec![8usize], 4usize, 1usize),
            (vec![4, 4], 2, 2),
            (vec![2, 2, 2], 1, 1),
            (vec![3, 2, 2], 2, 1),
        ] {
            let topo = fabric(&ks, buses, uplink);
            for src in 0..topo.leaves() {
                for j in 0..topo.memories() {
                    let route = topo.route(src, j);
                    let mut seen = route.to_vec();
                    seen.sort_unstable();
                    seen.dedup();
                    assert_eq!(seen.len(), route.len(), "cycle in {route:?}");
                    assert_eq!(route[0], topo.local_link(src));
                    assert_eq!(
                        *route.last().unwrap(),
                        topo.local_link(topo.leaf_of_memory(j))
                    );
                }
            }
        }
    }

    #[test]
    fn validation_rejects_degenerate_widths() {
        let h = Hierarchy::paired(&[2, 4]).unwrap();
        assert!(matches!(
            ClusteredBuses::new(h.clone(), 0, 1),
            Err(FabricError::BadFabric { .. })
        ));
        assert!(matches!(
            ClusteredBuses::new(h.clone(), 2, 0),
            Err(FabricError::BadFabric { .. })
        ));
        // Local group wider than the leaf's memories.
        assert!(matches!(
            ClusteredBuses::new(h, 5, 1),
            Err(FabricError::BadFabric { .. })
        ));
    }

    #[test]
    fn shared_leaf_hierarchies_are_supported() {
        // 12 processors over 8 memories: k = (2, 2, 3) with 2 per leaf.
        let h = Hierarchy::shared(&[2, 2, 3], 2).unwrap();
        let topo = ClusteredBuses::new(h, 2, 1).unwrap();
        assert_eq!(topo.processors(), 12);
        assert_eq!(topo.memories(), 8);
        assert_eq!(topo.leaves(), 4);
        assert_eq!(topo.route(0, 7).len(), 6);
    }
}
