//! The result of a mapping decision.

use manytest_noc::{Coord, Mesh2D};
use manytest_workload::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// An assignment of every task of an application to a distinct core.
///
/// # Examples
///
/// ```
/// use manytest_map::mapping::Mapping;
/// use manytest_noc::Coord;
/// use manytest_workload::{Task, TaskGraph};
///
/// let mut g = TaskGraph::new("pair");
/// let a = g.add_task(Task { instructions: 100 });
/// let b = g.add_task(Task { instructions: 100 });
/// g.add_edge(a, b, 1_000.0);
/// let m = Mapping::new(vec![Coord::new(0, 0), Coord::new(1, 0)]);
/// assert_eq!(m.coord_of(a), Coord::new(0, 0));
/// assert_eq!(m.weighted_hop_cost(&g), 1_000.0); // 1000 bits × 1 hop
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    slots: Vec<Coord>,
}

impl Mapping {
    /// Creates a mapping from a task-indexed coordinate list
    /// (`slots[i]` hosts `TaskId(i)`).
    ///
    /// # Panics
    ///
    /// Panics if two tasks share a core.
    pub fn new(slots: Vec<Coord>) -> Self {
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "mapping assigns one core twice");
        Mapping { slots }
    }

    /// The core hosting `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn coord_of(&self, task: TaskId) -> Coord {
        self.slots[task.index()]
    }

    /// All occupied cores in task order.
    pub fn coords(&self) -> &[Coord] {
        &self.slots
    }

    /// Sum over application edges of `bits × hop distance` — the standard
    /// communication-cost objective contiguous mappers minimise.
    pub fn weighted_hop_cost(&self, app: &TaskGraph) -> f64 {
        app.edges()
            .iter()
            .map(|e| e.bits * self.coord_of(e.from).manhattan(self.coord_of(e.to)) as f64)
            .sum()
    }

    /// The `(min, max)` corner coordinates of the mapping's bounding box,
    /// or `None` for an empty mapping.
    pub fn bounding_box(&self) -> Option<(Coord, Coord)> {
        let first = *self.slots.first()?;
        let mut min = first;
        let mut max = first;
        for &c in &self.slots[1..] {
            min.x = min.x.min(c.x);
            min.y = min.y.min(c.y);
            max.x = max.x.max(c.x);
            max.y = max.y.max(c.y);
        }
        Some((min, max))
    }

    /// Checks the mapping against a mesh and application: right arity,
    /// all coordinates inside the mesh, no sharing (checked at build time).
    pub fn is_valid_for(&self, mesh: Mesh2D, app: &TaskGraph) -> bool {
        self.slots.len() == app.task_count() && self.slots.iter().all(|&c| mesh.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_workload::Task;

    fn chain(n: usize, bits: f64) -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let ids: Vec<TaskId> = (0..n)
            .map(|_| g.add_task(Task { instructions: 1 }))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], bits);
        }
        g
    }

    #[test]
    fn hop_cost_of_adjacent_chain() {
        let g = chain(3, 10.0);
        let m = Mapping::new(vec![Coord::new(0, 0), Coord::new(1, 0), Coord::new(2, 0)]);
        assert_eq!(m.weighted_hop_cost(&g), 20.0);
    }

    #[test]
    fn hop_cost_penalizes_dispersion() {
        let g = chain(2, 10.0);
        let tight = Mapping::new(vec![Coord::new(0, 0), Coord::new(1, 0)]);
        let loose = Mapping::new(vec![Coord::new(0, 0), Coord::new(4, 4)]);
        assert!(loose.weighted_hop_cost(&g) > tight.weighted_hop_cost(&g));
    }

    #[test]
    #[should_panic(expected = "one core twice")]
    fn duplicate_core_panics() {
        Mapping::new(vec![Coord::new(1, 1), Coord::new(1, 1)]);
    }

    #[test]
    fn bounding_box() {
        let m = Mapping::new(vec![Coord::new(1, 1), Coord::new(3, 2)]);
        assert_eq!(m.bounding_box(), Some((Coord::new(1, 1), Coord::new(3, 2))));
        let empty = Mapping::new(vec![]);
        assert_eq!(empty.bounding_box(), None);
    }

    #[test]
    fn validity_checks() {
        let mesh = Mesh2D::new(4, 4);
        let g = chain(2, 1.0);
        let good = Mapping::new(vec![Coord::new(0, 0), Coord::new(1, 0)]);
        assert!(good.is_valid_for(mesh, &g));
        let wrong_arity = Mapping::new(vec![Coord::new(0, 0)]);
        assert!(!wrong_arity.is_valid_for(mesh, &g));
        let outside = Mapping::new(vec![Coord::new(0, 0), Coord::new(9, 9)]);
        assert!(!outside.is_valid_for(mesh, &g));
    }

    #[test]
    fn edgeless_app_has_zero_mean_distance() {
        let mut g = TaskGraph::new("solo");
        g.add_task(Task { instructions: 1 });
        let m = Mapping::new(vec![Coord::new(2, 2)]);
        assert_eq!(m.weighted_hop_cost(&g), 0.0);
    }
}
