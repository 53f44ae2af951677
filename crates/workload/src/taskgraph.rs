//! The §III-A motivation pipeline: communicating tasks → cluster assignment
//! → hierarchical traffic.
//!
//! The paper motivates its request model by how multiprocessor jobs are
//! scheduled: "the task assignment procedure should assign those tasks that
//! have large amounts of communications to the same processor or to a
//! cluster of processors with low communication cost", which makes
//! intra-cluster memory traffic dominate. This module reproduces that
//! pipeline end to end:
//!
//! 1. [`TaskGraph::synthetic`] generates a job of communicating task groups
//!    (heavy intra-group, light inter-group edges);
//! 2. [`Assignment::locality_aware`] places each group on one leaf
//!    subcluster of a [`Hierarchy`] (and [`Assignment::scattered`] is the
//!    locality-oblivious control);
//! 3. [`derived_shares`] measures the per-level traffic the placement
//!    induces, and [`derived_model`] turns it into a fitted
//!    [`HierarchicalModel`].
//!
//! The `cluster_workload` example walks the full pipeline.

use crate::{Fractions, HierarchicalModel, Hierarchy, WorkloadError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An undirected weighted communication graph over tasks, with a group label
/// per task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    tasks: usize,
    /// Row-major `tasks × tasks` symmetric weight matrix, zero diagonal.
    weights: Vec<f64>,
    /// Group label per task.
    groups: Vec<usize>,
}

impl TaskGraph {
    /// Generates a synthetic job of `groups × tasks_per_group` tasks where
    /// task pairs inside a group communicate with mean weight `intra_mean`
    /// and pairs across groups with mean weight `inter_mean` (each weight
    /// jittered uniformly by ±50%).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroDimension`] for zero counts and
    /// [`WorkloadError::InvalidFraction`] for negative/non-finite means.
    pub fn synthetic<R: Rng + ?Sized>(
        groups: usize,
        tasks_per_group: usize,
        intra_mean: f64,
        inter_mean: f64,
        rng: &mut R,
    ) -> Result<Self, WorkloadError> {
        if groups == 0 || tasks_per_group == 0 {
            return Err(WorkloadError::ZeroDimension { dimension: "tasks" });
        }
        for (index, mean) in [intra_mean, inter_mean].into_iter().enumerate() {
            if !mean.is_finite() || mean < 0.0 {
                return Err(WorkloadError::InvalidFraction { index, value: mean });
            }
        }
        let tasks = groups * tasks_per_group;
        let group_of = |t: usize| t / tasks_per_group;
        let mut weights = vec![0.0; tasks * tasks];
        for a in 0..tasks {
            for b in (a + 1)..tasks {
                let mean = if group_of(a) == group_of(b) {
                    intra_mean
                } else {
                    inter_mean
                };
                let w = mean * (0.5 + rng.random::<f64>());
                weights[a * tasks + b] = w;
                weights[b * tasks + a] = w;
            }
        }
        Ok(Self {
            tasks,
            weights,
            groups: (0..tasks).map(group_of).collect(),
        })
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.groups.iter().copied().max().map_or(0, |g| g + 1)
    }

    /// Group label of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn group_of(&self, t: usize) -> usize {
        self.groups[t]
    }

    /// Communication weight between tasks `a` and `b` (symmetric, zero on
    /// the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn weight(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.tasks && b < self.tasks, "task index out of range");
        self.weights[a * self.tasks + b]
    }

    /// Sum of all pairwise weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() / 2.0
    }
}

/// A placement of tasks onto processors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    task_to_processor: Vec<usize>,
    processors: usize,
}

impl Assignment {
    /// Places each task group on one leaf subcluster of `hierarchy`
    /// (group `g` → leaf `g mod leaf_count`), spreading the group's tasks
    /// round-robin over the leaf's processors. This is the "good" placement
    /// the paper's model assumes.
    pub fn locality_aware(graph: &TaskGraph, hierarchy: &Hierarchy) -> Self {
        let per_leaf = hierarchy.processors_per_leaf();
        let leaves = hierarchy.leaf_count();
        let mut within_group = vec![0usize; graph.group_count()];
        let task_to_processor = (0..graph.tasks())
            .map(|t| {
                let g = graph.group_of(t);
                let slot = within_group[g];
                within_group[g] += 1;
                let leaf = g % leaves;
                leaf * per_leaf + slot % per_leaf
            })
            .collect();
        Self {
            task_to_processor,
            processors: hierarchy.processors(),
        }
    }

    /// Scatters each group's tasks across *different* processors (member
    /// `i` of group `g` lands on processor `(g + i·G) mod N`), deliberately
    /// destroying locality — the locality-oblivious control.
    pub fn scattered(graph: &TaskGraph, processors: usize) -> Self {
        let group_count = graph.group_count().max(1);
        let mut member_index = vec![0usize; group_count];
        let task_to_processor = (0..graph.tasks())
            .map(|t| {
                let g = graph.group_of(t);
                let i = member_index[g];
                member_index[g] += 1;
                (g + i * group_count) % processors
            })
            .collect();
        Self {
            task_to_processor,
            processors,
        }
    }

    /// Processor hosting task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn processor_of(&self, t: usize) -> usize {
        self.task_to_processor[t]
    }

    /// Number of processors the assignment targets.
    pub(crate) fn processors(&self) -> usize {
        self.processors
    }
}

/// Measures the aggregate per-level traffic shares a placement induces.
///
/// Each communicating task pair `(a, b)` makes the processor of `a` access
/// the favorite memory of the processor of `b` (and vice versa) in
/// proportion to the edge weight; a task also accesses its own processor's
/// favorite memory with its total edge weight (reading its own working set).
/// The returned vector has one entry per hierarchy fraction level, summing
/// to 1.
///
/// # Errors
///
/// Returns [`WorkloadError::IndexOutOfRange`] if the assignment targets a
/// different processor count than the hierarchy provides, and
/// [`WorkloadError::ZeroDimension`] if the graph has no communication at
/// all.
pub fn derived_shares(
    graph: &TaskGraph,
    assignment: &Assignment,
    hierarchy: &Hierarchy,
) -> Result<Vec<f64>, WorkloadError> {
    if assignment.processors() != hierarchy.processors() {
        return Err(WorkloadError::IndexOutOfRange {
            kind: "processor",
            index: assignment.processors(),
            len: hierarchy.processors(),
        });
    }
    let memories_per_leaf = hierarchy.memories_per_leaf();
    let per_leaf = hierarchy.processors_per_leaf();
    // The "home memory" of processor p: the memory sharing p's slot in its
    // leaf (identity for paired hierarchies).
    let home_memory = |p: usize| {
        let leaf = hierarchy.leaf_of_processor(p);
        leaf * memories_per_leaf + (p % per_leaf) % memories_per_leaf
    };
    let mut shares = vec![0.0; hierarchy.fraction_count()];
    for a in 0..graph.tasks() {
        let pa = assignment.processor_of(a);
        for b in 0..graph.tasks() {
            if a == b {
                continue;
            }
            let w = graph.weight(a, b);
            if w == 0.0 {
                continue;
            }
            // a's processor reads b's working set…
            shares[hierarchy.fraction_level(pa, home_memory(assignment.processor_of(b)))] += w;
            // …and touches its own working set while doing so.
            shares[hierarchy.fraction_level(pa, home_memory(pa))] += w;
        }
    }
    let total: f64 = shares.iter().sum();
    if total <= 0.0 {
        return Err(WorkloadError::ZeroDimension {
            dimension: "task communication",
        });
    }
    for s in &mut shares {
        *s /= total;
    }
    Ok(shares)
}

/// Fits a [`HierarchicalModel`] to the traffic a placement induces: the
/// measured [`derived_shares`] are spread uniformly within each level.
///
/// # Errors
///
/// Propagates [`derived_shares`] and fraction-validation errors.
pub fn derived_model(
    graph: &TaskGraph,
    assignment: &Assignment,
    hierarchy: &Hierarchy,
) -> Result<HierarchicalModel, WorkloadError> {
    let shares = derived_shares(graph, assignment, hierarchy)?;
    let fractions = Fractions::from_aggregate_shares(hierarchy, &shares)?;
    Ok(HierarchicalModel::new(hierarchy.clone(), fractions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(rng_seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        TaskGraph::synthetic(4, 4, 10.0, 0.5, &mut rng).unwrap()
    }

    #[test]
    fn synthetic_weights_reflect_groups() {
        let g = graph(1);
        assert_eq!(g.tasks(), 16);
        assert_eq!(g.group_count(), 4);
        // Intra-group edges are much heavier on average.
        let (mut intra, mut inter, mut n_intra, mut n_inter) = (0.0, 0.0, 0, 0);
        for a in 0..16 {
            for b in (a + 1)..16 {
                if g.group_of(a) == g.group_of(b) {
                    intra += g.weight(a, b);
                    n_intra += 1;
                } else {
                    inter += g.weight(a, b);
                    n_inter += 1;
                }
            }
        }
        assert!(intra / n_intra as f64 > 5.0 * (inter / n_inter as f64));
        assert!(g.total_weight() > 0.0);
        // Symmetry and zero diagonal.
        assert_eq!(g.weight(2, 9), g.weight(9, 2));
        assert_eq!(g.weight(3, 3), 0.0);
    }

    #[test]
    fn synthetic_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(TaskGraph::synthetic(0, 3, 1.0, 1.0, &mut rng).is_err());
        assert!(TaskGraph::synthetic(2, 0, 1.0, 1.0, &mut rng).is_err());
        assert!(TaskGraph::synthetic(2, 2, -1.0, 1.0, &mut rng).is_err());
    }

    #[test]
    fn locality_aware_keeps_groups_on_leaves() {
        let g = graph(3);
        let h = Hierarchy::two_level(16, 4).unwrap();
        let a = Assignment::locality_aware(&g, &h);
        for t in 0..g.tasks() {
            let leaf = h.leaf_of_processor(a.processor_of(t));
            assert_eq!(leaf, g.group_of(t) % 4, "task {t}");
        }
    }

    #[test]
    fn locality_aware_induces_decreasing_shares() {
        let g = graph(4);
        let h = Hierarchy::two_level(16, 4).unwrap();
        let local = Assignment::locality_aware(&g, &h);
        let shares = derived_shares(&g, &local, &h).unwrap();
        assert_eq!(shares.len(), 3);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The hallmark of the hierarchical model: local levels dominate.
        assert!(shares[0] + shares[1] > shares[2]);
        // And the fitted model validates.
        let model = derived_model(&g, &local, &h).unwrap();
        assert!(model.fraction(0) > model.fraction(2));
    }

    #[test]
    fn scattered_assignment_loses_locality() {
        let g = graph(5);
        let h = Hierarchy::two_level(16, 4).unwrap();
        let local = derived_shares(&g, &Assignment::locality_aware(&g, &h), &h).unwrap();
        let scattered = derived_shares(&g, &Assignment::scattered(&g, 16), &h).unwrap();
        // Scattering pushes traffic out to the remote level.
        assert!(scattered[2] > local[2]);
    }

    #[test]
    fn derived_shares_checks_processor_count() {
        let g = graph(6);
        let h = Hierarchy::two_level(8, 4).unwrap();
        let wrong = Assignment::scattered(&g, 16);
        assert!(derived_shares(&g, &wrong, &h).is_err());
    }
}
