//! Identical-row grouping and canonical fingerprints for [`RequestMatrix`].
//!
//! The hierarchical requesting model (paper eq (1)) makes every processor
//! inside a cluster statistically exchangeable: their request rows are
//! *identical* as `f64` values because the generators compute each row from
//! the same cluster-level fractions. [`RowGroups`] detects that structure by
//! exact floating-point equality (bit-for-bit, via `f64::to_bits`), giving
//! the exact engines `G ≪ N` groups to raise to powers instead of `N`
//! per-processor factors.
//!
//! [`WorkloadFingerprint`] is the exact canonical identity of a matrix
//! (dimensions plus every entry's bit pattern) used in the serving layer's
//! query-cache keys; unlike a hash it cannot collide.

use crate::RequestMatrix;

/// A partition of a matrix's processors into groups of bit-identical rows.
///
/// Group indices are assigned in order of first appearance, so group `0`
/// always contains processor `0`, and representatives are strictly
/// increasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGroups {
    /// `assignment[p]` = group index of processor `p`.
    assignment: Vec<usize>,
    /// First processor of each group (a canonical representative row).
    representatives: Vec<usize>,
    /// Number of processors in each group.
    counts: Vec<usize>,
}

impl RowGroups {
    /// Number of distinct groups `G`.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether there are no groups (impossible for a valid matrix, but kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Group index of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn group_of(&self, p: usize) -> usize {
        self.assignment[p]
    }

    /// Number of processors in group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn count(&self, g: usize) -> usize {
        self.counts[g]
    }

    /// The first (representative) processor of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn representative(&self, g: usize) -> usize {
        self.representatives[g]
    }

    /// Iterator over `(representative_processor, group_size)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.representatives
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }
}

/// Exact canonical identity of a [`RequestMatrix`]: dimensions plus the bit
/// pattern of every entry. Used as a collision-free memo-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadFingerprint {
    n: usize,
    m: usize,
    bits: Vec<u64>,
}

impl RequestMatrix {
    /// Partitions processors into groups of bit-identical rows (exact
    /// `f64` equality — the hierarchical generators emit canonical rows, so
    /// exchangeable processors compare equal without any tolerance).
    pub fn groups(&self) -> RowGroups {
        let n = self.processors();
        let mut assignment = Vec::with_capacity(n);
        let mut representatives: Vec<usize> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut seen: std::collections::HashMap<Vec<u64>, usize> = std::collections::HashMap::new();
        for p in 0..n {
            let key: Vec<u64> = self.row(p).iter().map(|x| x.to_bits()).collect();
            let next = representatives.len();
            let g = *seen.entry(key).or_insert(next);
            if g == next && g == representatives.len() {
                representatives.push(p);
                counts.push(0);
            }
            assignment.push(g);
            counts[g] += 1;
        }
        RowGroups {
            assignment,
            representatives,
            counts,
        }
    }

    /// The matrix's exact canonical [`WorkloadFingerprint`].
    pub fn fingerprint(&self) -> WorkloadFingerprint {
        let mut bits = Vec::with_capacity(self.processors() * self.memories());
        for p in 0..self.processors() {
            bits.extend(self.row(p).iter().map(|x| x.to_bits()));
        }
        WorkloadFingerprint {
            n: self.processors(),
            m: self.memories(),
            bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HierarchicalModel, RequestModel, UniformModel};

    #[test]
    fn uniform_matrix_is_one_group() {
        let m = UniformModel::new(8, 4).unwrap().matrix();
        let g = m.groups();
        assert_eq!(g.len(), 1);
        assert_eq!(g.count(0), 8);
        assert_eq!(g.representative(0), 0);
        assert!((0..8).all(|p| g.group_of(p) == 0));
    }

    #[test]
    fn hierarchical_groups_track_clusters() {
        // 16 processors in 4 clusters of 4: each processor's row is unique
        // within its cluster only through its favorite memory, so the
        // two-level paired model yields one group per *processor* favorite —
        // 16 distinct rows. A shared-favorite construction collapses them.
        let m = HierarchicalModel::two_level_paired(16, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let g = m.groups();
        assert_eq!(g.len(), 16, "paired favorites make every row distinct");
        // Identical rows constructed by hand collapse to the cluster count.
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|p| {
                let cluster = p / 4;
                (0..4)
                    .map(|j| if j == cluster { 0.7 } else { 0.1 })
                    .collect()
            })
            .collect();
        let m = RequestMatrix::from_rows(rows).unwrap();
        let g = m.groups();
        assert_eq!(g.len(), 4);
        assert_eq!((0..4).map(|c| g.count(c)).sum::<usize>(), 16);
        for (g_index, (rep, size)) in g.iter().enumerate() {
            assert_eq!(rep, g_index * 4);
            assert_eq!(size, 4);
        }
    }

    #[test]
    fn group_order_is_first_appearance() {
        let m = RequestMatrix::from_rows(vec![
            vec![0.5, 0.5],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let g = m.groups();
        assert_eq!(g.len(), 3);
        assert_eq!(g.group_of(0), 0);
        assert_eq!(g.group_of(1), 1);
        assert_eq!(g.group_of(2), 0);
        assert_eq!(g.group_of(3), 2);
        assert_eq!(g.representative(2), 3);
    }

    #[test]
    fn fingerprint_distinguishes_matrices() {
        let a = UniformModel::new(4, 4).unwrap().matrix();
        let b = UniformModel::new(4, 4).unwrap().matrix();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = UniformModel::new(4, 2).unwrap().matrix();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same dimensions, different entries.
        let d = RequestMatrix::from_rows(vec![vec![0.3, 0.7]; 4]).unwrap();
        let e = RequestMatrix::from_rows(vec![vec![0.7, 0.3]; 4]).unwrap();
        assert_ne!(d.fingerprint(), e.fingerprint());
    }
}
