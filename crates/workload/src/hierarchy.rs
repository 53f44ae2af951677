//! The n-level cluster hierarchy underlying the hierarchical requesting
//! model (paper §III-A).

use crate::WorkloadError;
use serde::{Deserialize, Serialize};

/// How the innermost (nth-level) subclusters pair processors with memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LeafKind {
    /// The paper's `N × N × B` setting: each leaf subcluster holds `kₙ`
    /// *pairs* `(Pᵢ, MMᵢ)`; every processor has exactly one favorite memory.
    /// A hierarchy of `n` levels then has `n + 1` request fractions
    /// `m₀ … mₙ`.
    Paired,
    /// The paper's `N × M × B` setting: each leaf subcluster holds `kₙ`
    /// processors sharing `kₙ′` favorite memories, each requested with the
    /// same fraction `m₀`. A hierarchy of `n` levels then has `n` request
    /// fractions `m₀ … mₙ₋₁`.
    Shared {
        /// Favorite memories per leaf subcluster (`kₙ′ ≥ 1`).
        memories_per_leaf: usize,
    },
}

/// An n-level hierarchy of processor/memory clusters: `N = k₁·k₂⋯kₙ`
/// processors, partitioned into `k₁` clusters of `k₂` subclusters each, and
/// so on.
///
/// The hierarchy answers two questions for the request models:
///
/// 1. Which fraction `mᵢ` governs processor `p`'s requests to memory `j`
///    ([`Hierarchy::fraction_level`])?
/// 2. How many memories does each processor hit with fraction `mᵢ`
///    ([`Hierarchy::target_counts`], the paper's `Nᵢ` of formula (1)), and
///    how many processors hit each memory with fraction `mᵢ`
///    ([`Hierarchy::requester_counts`])?
///
/// # Examples
///
/// ```
/// use mbus_workload::Hierarchy;
///
/// // Three-level 12-processor hierarchy: k = (3, 2, 2).
/// let h = Hierarchy::paired(&[3, 2, 2])?;
/// assert_eq!(h.processors(), 12);
/// // Paper formula (1): N0=1, N1=k3-1=1, N2=(k2-1)k3=2, N3=(k1-1)k2k3=8.
/// assert_eq!(h.target_counts(), vec![1, 1, 2, 8]);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hierarchy {
    /// Branching factors `k₁ … kₙ` (outermost first).
    ks: Vec<usize>,
    leaf: LeafKind,
}

impl Hierarchy {
    /// A paired (`N × N`) hierarchy with branching factors `k₁ … kₙ`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyHierarchy`] for an empty factor list and
    /// [`WorkloadError::ZeroBranchingFactor`] if any `kᵢ = 0`.
    pub fn paired(ks: &[usize]) -> Result<Self, WorkloadError> {
        Self::validate(ks)?;
        Ok(Self {
            ks: ks.to_vec(),
            leaf: LeafKind::Paired,
        })
    }

    /// A shared-leaf (`N × M`) hierarchy: branching factors `k₁ … kₙ` on the
    /// processor side, with `memories_per_leaf = kₙ′` favorite memories in
    /// each leaf subcluster.
    ///
    /// # Errors
    ///
    /// Same as [`Hierarchy::paired`], plus
    /// [`WorkloadError::ZeroDimension`] when `memories_per_leaf == 0`.
    pub fn shared(ks: &[usize], memories_per_leaf: usize) -> Result<Self, WorkloadError> {
        Self::validate(ks)?;
        if memories_per_leaf == 0 {
            return Err(WorkloadError::ZeroDimension {
                dimension: "memories per leaf",
            });
        }
        Ok(Self {
            ks: ks.to_vec(),
            leaf: LeafKind::Shared { memories_per_leaf },
        })
    }

    /// The paper's §IV configuration: a two-level paired hierarchy of
    /// `clusters` equal clusters over `n` processors (`k₁ = clusters`,
    /// `k₂ = n / clusters`).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::IndivisibleClusters`] when `clusters` does
    /// not divide `n`, plus the [`Hierarchy::paired`] errors.
    pub fn two_level(n: usize, clusters: usize) -> Result<Self, WorkloadError> {
        if clusters == 0 || n == 0 {
            return Err(WorkloadError::EmptyHierarchy);
        }
        if !n.is_multiple_of(clusters) {
            return Err(WorkloadError::IndivisibleClusters {
                processors: n,
                clusters,
            });
        }
        Self::paired(&[clusters, n / clusters])
    }

    fn validate(ks: &[usize]) -> Result<(), WorkloadError> {
        if ks.is_empty() {
            return Err(WorkloadError::EmptyHierarchy);
        }
        for (i, &k) in ks.iter().enumerate() {
            if k == 0 {
                return Err(WorkloadError::ZeroBranchingFactor { level: i + 1 });
            }
        }
        Ok(())
    }

    /// Branching factors `k₁ … kₙ`.
    pub fn branching_factors(&self) -> &[usize] {
        &self.ks
    }

    /// Number of hierarchy levels `n`.
    pub fn levels(&self) -> usize {
        self.ks.len()
    }

    /// Total number of processors `N = k₁⋯kₙ`.
    pub fn processors(&self) -> usize {
        self.ks.iter().product()
    }

    /// Total number of memories: `N` for paired leaves,
    /// `k₁⋯kₙ₋₁·kₙ′` for shared leaves.
    pub fn memories(&self) -> usize {
        match self.leaf {
            LeafKind::Paired => self.processors(),
            LeafKind::Shared { memories_per_leaf } => {
                let leaves: usize = self.ks[..self.ks.len() - 1].iter().product();
                leaves * memories_per_leaf
            }
        }
    }

    /// Number of request fractions the model needs: `n + 1` for paired
    /// leaves (`m₀ … mₙ`), `n` for shared leaves (`m₀ … mₙ₋₁`).
    pub fn fraction_count(&self) -> usize {
        match self.leaf {
            LeafKind::Paired => self.levels() + 1,
            LeafKind::Shared { .. } => self.levels(),
        }
    }

    /// Processors per leaf subcluster (`kₙ`).
    pub fn processors_per_leaf(&self) -> usize {
        // lint:allow(no_panic, Hierarchy constructors reject empty level lists)
        *self.ks.last().expect("validated non-empty")
    }

    /// Memories per leaf subcluster (`kₙ` for paired, `kₙ′` for shared).
    pub fn memories_per_leaf(&self) -> usize {
        match self.leaf {
            LeafKind::Paired => self.processors_per_leaf(),
            LeafKind::Shared { memories_per_leaf } => memories_per_leaf,
        }
    }

    /// Number of leaf subclusters (`k₁⋯kₙ₋₁`).
    pub fn leaf_count(&self) -> usize {
        self.ks[..self.ks.len() - 1].iter().product()
    }

    /// The leaf subcluster containing processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ N`.
    pub fn leaf_of_processor(&self, p: usize) -> usize {
        assert!(p < self.processors(), "processor {p} out of range");
        p / self.processors_per_leaf()
    }

    /// The leaf subcluster containing memory `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ M`.
    pub fn leaf_of_memory(&self, j: usize) -> usize {
        assert!(j < self.memories(), "memory {j} out of range");
        j / self.memories_per_leaf()
    }

    /// The fraction index `i` such that processor `p` requests memory `j`
    /// with fraction `mᵢ`.
    ///
    /// For paired leaves: `0` iff `j` is `p`'s own favorite; otherwise
    /// `n − d` where `d` is the deepest hierarchy level at which `p` and `j`
    /// share a subcluster. For shared leaves: `0` iff `j` lies in `p`'s leaf;
    /// otherwise `(n − 1) − d` over the first `n − 1` levels.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ N` or `j ≥ M`.
    pub fn fraction_level(&self, p: usize, j: usize) -> usize {
        assert!(p < self.processors(), "processor {p} out of range");
        assert!(j < self.memories(), "memory {j} out of range");
        match self.leaf {
            LeafKind::Paired => {
                if p == j {
                    return 0;
                }
                let n = self.levels();
                n - self.shared_depth(p, j)
            }
            LeafKind::Shared { .. } => {
                if self.leaf_of_processor(p) == self.leaf_of_memory(j) {
                    return 0;
                }
                let n = self.levels();
                (n - 1) - self.shared_leaf_depth(self.leaf_of_processor(p), self.leaf_of_memory(j))
            }
        }
    }

    /// Writes `fraction(i)` into every entry `j` of `row` (length `M`) with
    /// [`Hierarchy::fraction_level`]`(p, j) == i`: the whole row gets the
    /// outermost level's value, then each subcluster of `p`, outermost
    /// first, is overwritten as one block by the next level's.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ N` or `row.len() ≠ M`.
    pub(crate) fn fill_row(&self, p: usize, row: &mut [f64], fraction: impl Fn(usize) -> f64) {
        assert!(p < self.processors(), "processor {p} out of range");
        assert_eq!(row.len(), self.memories(), "row length is not M");
        let n = self.levels();
        match self.leaf {
            LeafKind::Paired => {
                // At depth d, p's subcluster holds k_{d+1}·…·kₙ memories,
                // requested with fraction m_{n−d}.
                row.fill(fraction(n));
                let mut size = self.processors();
                for (&k, depth) in self.ks.iter().zip(1..) {
                    size /= k;
                    let start = p / size * size;
                    row[start..start + size].fill(fraction(n - depth));
                }
            }
            LeafKind::Shared { memories_per_leaf } => {
                // The same walk over leaf indices, the first n − 1 levels,
                // with each leaf holding `memories_per_leaf` memories.
                row.fill(fraction(n - 1));
                let leaf = self.leaf_of_processor(p);
                let mut size = self.leaf_count();
                for (&k, depth) in self.ks[..n - 1].iter().zip(1..) {
                    size /= k;
                    let start = leaf / size * size * memories_per_leaf;
                    row[start..start + size * memories_per_leaf].fill(fraction(n - 1 - depth));
                }
            }
        }
    }

    /// Deepest level (0 ..= n) at which processor index `p` and *paired*
    /// memory index `j` fall in the same subcluster. Level 0 is the whole
    /// network; level `n` means `p == j`.
    fn shared_depth(&self, p: usize, j: usize) -> usize {
        // Walk from the outermost partition inwards. At level d the
        // subcluster size is k_{d+1}·…·kₙ.
        let mut size = self.processors();
        let mut depth = 0;
        for &k in &self.ks {
            size /= k;
            if p / size == j / size {
                depth += 1;
                if size == 1 {
                    break;
                }
            } else {
                break;
            }
        }
        depth
    }

    /// Deepest level (0 ..= n−1) at which two *leaf indices* share a
    /// subcluster, comparing the first n−1 branching levels.
    fn shared_leaf_depth(&self, leaf_a: usize, leaf_b: usize) -> usize {
        let mut size = self.leaf_count();
        let mut depth = 0;
        for &k in &self.ks[..self.ks.len() - 1] {
            size /= k;
            if leaf_a / size == leaf_b / size {
                depth += 1;
                if size == 1 {
                    break;
                }
            } else {
                break;
            }
        }
        depth
    }

    /// The paper's `Nᵢ` (formula (1)): the number of memories a processor
    /// requests with fraction `mᵢ`, for `i = 0 … fraction_count−1`.
    ///
    /// Paired: `N₀ = 1`, `Nᵢ = (k_{n−i+1} − 1)·k_{n−i+2}⋯kₙ`. Shared:
    /// `N₀ = kₙ′`, `Nᵢ = (k_{n−i} − 1)·k_{n−i+1}⋯k_{n−1}·kₙ′`.
    pub fn target_counts(&self) -> Vec<usize> {
        let n = self.levels();
        match self.leaf {
            LeafKind::Paired => {
                let mut counts = Vec::with_capacity(n + 1);
                counts.push(1);
                // suffix = k_{n-i+2}·…·kₙ for the current i.
                let mut suffix = 1usize;
                for i in 1..=n {
                    let k = self.ks[n - i];
                    counts.push((k - 1) * suffix);
                    suffix *= k;
                }
                counts
            }
            LeafKind::Shared { memories_per_leaf } => {
                let mut counts = Vec::with_capacity(n);
                counts.push(memories_per_leaf);
                let mut suffix = memories_per_leaf;
                for i in 1..n {
                    let k = self.ks[n - 1 - i];
                    counts.push((k - 1) * suffix);
                    suffix *= k;
                }
                counts
            }
        }
    }

    /// The number of processors that request a given memory with fraction
    /// `mᵢ` — the processor-side mirror of [`Hierarchy::target_counts`],
    /// needed by the analysis' equation (2).
    ///
    /// For paired leaves the hierarchy is symmetric, so the counts coincide
    /// with `target_counts`. For shared leaves `P₀ = kₙ` (all leaf
    /// processors) and `Pᵢ = (k_{n−i} − 1)·k_{n−i+1}⋯kₙ`.
    pub fn requester_counts(&self) -> Vec<usize> {
        let n = self.levels();
        match self.leaf {
            LeafKind::Paired => self.target_counts(),
            LeafKind::Shared { .. } => {
                let per_leaf = self.processors_per_leaf();
                let mut counts = Vec::with_capacity(n);
                counts.push(per_leaf);
                let mut suffix = per_leaf;
                for i in 1..n {
                    let k = self.ks[n - 1 - i];
                    counts.push((k - 1) * suffix);
                    suffix *= k;
                }
                counts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_counts_match_paper_formula_one() {
        // Paper example: three-level, N = k1 k2 k3.
        let h = Hierarchy::paired(&[4, 3, 2]).unwrap();
        assert_eq!(h.processors(), 24);
        assert_eq!(h.memories(), 24);
        assert_eq!(h.fraction_count(), 4);
        // N0=1, N1=k3-1=1, N2=(k2-1)k3=4, N3=(k1-1)k2k3=18.
        assert_eq!(h.target_counts(), vec![1, 1, 4, 18]);
        assert_eq!(h.requester_counts(), vec![1, 1, 4, 18]);
        // Counts partition all N memories.
        assert_eq!(h.target_counts().iter().sum::<usize>(), 24);
    }

    #[test]
    fn two_level_paper_configuration() {
        let h = Hierarchy::two_level(16, 4).unwrap();
        assert_eq!(h.branching_factors(), &[4, 4]);
        assert_eq!(h.target_counts(), vec![1, 3, 12]);
    }

    #[test]
    fn two_level_must_divide() {
        assert_eq!(
            Hierarchy::two_level(10, 4).unwrap_err(),
            WorkloadError::IndivisibleClusters {
                processors: 10,
                clusters: 4
            }
        );
    }

    #[test]
    fn rejects_invalid_factors() {
        assert_eq!(
            Hierarchy::paired(&[]).unwrap_err(),
            WorkloadError::EmptyHierarchy
        );
        assert_eq!(
            Hierarchy::paired(&[3, 0]).unwrap_err(),
            WorkloadError::ZeroBranchingFactor { level: 2 }
        );
        assert!(matches!(
            Hierarchy::shared(&[2, 2], 0).unwrap_err(),
            WorkloadError::ZeroDimension { .. }
        ));
    }

    #[test]
    fn paired_fraction_levels_two_level() {
        // 8 processors in 4 clusters of 2.
        let h = Hierarchy::two_level(8, 4).unwrap();
        // Own favorite.
        assert_eq!(h.fraction_level(0, 0), 0);
        // Same cluster, other member.
        assert_eq!(h.fraction_level(0, 1), 1);
        // Other cluster.
        assert_eq!(h.fraction_level(0, 2), 2);
        assert_eq!(h.fraction_level(0, 7), 2);
        assert_eq!(h.fraction_level(7, 6), 1);
    }

    #[test]
    fn paired_fraction_levels_three_level() {
        // k = (2, 2, 2): leaves {0,1},{2,3},{4,5},{6,7}; clusters {0..4},{4..8}.
        let h = Hierarchy::paired(&[2, 2, 2]).unwrap();
        assert_eq!(h.fraction_level(0, 0), 0);
        assert_eq!(h.fraction_level(0, 1), 1); // same leaf
        assert_eq!(h.fraction_level(0, 3), 2); // same cluster, other leaf
        assert_eq!(h.fraction_level(0, 5), 3); // other cluster
                                               // Level counts seen from any processor match target_counts.
        let counts = h.target_counts();
        for p in 0..8 {
            let mut seen = vec![0usize; 4];
            for j in 0..8 {
                seen[h.fraction_level(p, j)] += 1;
            }
            assert_eq!(seen, counts, "processor {p}");
        }
    }

    #[test]
    fn shared_leaf_three_level() {
        // Paper's N×M example: k = (k1, k2, k3) with k3' memories per leaf.
        // Take k = (2, 2, 3), k3' = 2: N = 12, M = 8.
        let h = Hierarchy::shared(&[2, 2, 3], 2).unwrap();
        assert_eq!(h.processors(), 12);
        assert_eq!(h.memories(), 8);
        assert_eq!(h.fraction_count(), 3);
        // N0 = k3' = 2, N1 = (k2-1)k3' = 2, N2 = (k1-1)k2k3' = 4.
        assert_eq!(h.target_counts(), vec![2, 2, 4]);
        // P0 = k3 = 3, P1 = (k2-1)k3 = 3, P2 = (k1-1)k2k3 = 6.
        assert_eq!(h.requester_counts(), vec![3, 3, 6]);
        // Processor 0 lives in leaf 0 (memories 0, 1 are its favorites).
        assert_eq!(h.fraction_level(0, 0), 0);
        assert_eq!(h.fraction_level(0, 1), 0);
        // Memory in the sibling leaf within the same cluster.
        assert_eq!(h.fraction_level(0, 2), 1);
        // Memory in the other cluster.
        assert_eq!(h.fraction_level(0, 6), 2);
        // Target counts hold per processor.
        for p in 0..12 {
            let mut seen = vec![0usize; 3];
            for j in 0..8 {
                seen[h.fraction_level(p, j)] += 1;
            }
            assert_eq!(seen, vec![2, 2, 4], "processor {p}");
        }
        // Requester counts hold per memory.
        for j in 0..8 {
            let mut seen = vec![0usize; 3];
            for p in 0..12 {
                seen[h.fraction_level(p, j)] += 1;
            }
            assert_eq!(seen, vec![3, 3, 6], "memory {j}");
        }
    }

    #[test]
    fn single_level_degenerates_gracefully() {
        // One level of k processors: favorites plus "everything else".
        let h = Hierarchy::paired(&[4]).unwrap();
        assert_eq!(h.fraction_count(), 2);
        assert_eq!(h.target_counts(), vec![1, 3]);
        assert_eq!(h.fraction_level(2, 2), 0);
        assert_eq!(h.fraction_level(2, 0), 1);
    }

    #[test]
    fn leaf_lookup() {
        let h = Hierarchy::paired(&[2, 3]).unwrap();
        assert_eq!(h.leaf_count(), 2);
        assert_eq!(h.leaf_of_processor(2), 0);
        assert_eq!(h.leaf_of_processor(3), 1);
        assert_eq!(h.leaf_of_memory(5), 1);
    }
}
