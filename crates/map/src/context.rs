//! Snapshot of platform state consumed by mappers.

use manytest_noc::{Coord, Mesh2D};
use serde::{Deserialize, Serialize};

/// Per-node platform state a mapper may consult.
///
/// The simulator builds one of these each time it attempts a mapping; the
/// vectors are indexed by dense node id (`mesh.node_id(c).index()`).
///
/// # Examples
///
/// ```
/// use manytest_map::context::MapContext;
/// use manytest_noc::{Coord, Mesh2D};
///
/// let mesh = Mesh2D::new(4, 4);
/// let mut ctx = MapContext::all_free(mesh);
/// ctx.set_free(Coord::new(0, 0), false);
/// assert!(!ctx.is_free(Coord::new(0, 0)));
/// assert_eq!(ctx.free_count(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapContext {
    mesh: Mesh2D,
    free: Vec<bool>,
    utilization: Vec<f64>,
    criticality: Vec<f64>,
    /// Health mask: quarantined nodes are `false` and never offered to a
    /// mapper, regardless of occupancy.
    healthy: Vec<bool>,
    /// Maintained count of mappable nodes (free *and* healthy), kept in
    /// lockstep by every mutator so [`MapContext::free_count`] is O(1) —
    /// mappers call it per placement attempt.
    mappable: usize,
}

impl MapContext {
    /// A context where every node is free and healthy with zero
    /// utilisation and zero criticality.
    pub fn all_free(mesh: Mesh2D) -> Self {
        let n = mesh.node_count();
        MapContext {
            mesh,
            free: vec![true; n],
            utilization: vec![0.0; n],
            criticality: vec![0.0; n],
            healthy: vec![true; n],
            mappable: n,
        }
    }

    /// Builds a context from per-node vectors.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `mesh.node_count()`.
    pub fn from_parts(
        mesh: Mesh2D,
        free: Vec<bool>,
        utilization: Vec<f64>,
        criticality: Vec<f64>,
    ) -> Self {
        let n = mesh.node_count();
        assert!(
            free.len() == n && utilization.len() == n && criticality.len() == n,
            "state vectors must have one entry per node"
        );
        let healthy = vec![true; n];
        let mappable = free.iter().filter(|&&f| f).count();
        MapContext {
            mesh,
            free,
            utilization,
            criticality,
            healthy,
            mappable,
        }
    }

    /// Empties the context and re-targets it at `mesh`, keeping the
    /// vectors' capacity. Together with [`MapContext::push_node_health`] this
    /// lets a hot loop rebuild the snapshot every control tick without
    /// touching the heap.
    pub fn reset(&mut self, mesh: Mesh2D) {
        self.mesh = mesh;
        self.free.clear();
        self.utilization.clear();
        self.criticality.clear();
        self.healthy.clear();
        self.mappable = 0;
    }

    /// Appends the state of the next node (dense-id order). Callers must
    /// push exactly `mesh.node_count()` entries after a
    /// [`MapContext::reset`]; [`MapContext::is_complete`] checks that.
    /// Quarantined nodes push `healthy = false` and are invisible to
    /// mappers.
    #[inline]
    pub fn push_node_health(
        &mut self,
        free: bool,
        healthy: bool,
        utilization: f64,
        criticality: f64,
    ) {
        debug_assert!((0.0..=1.0).contains(&utilization));
        debug_assert!(criticality.is_finite() && criticality >= 0.0);
        self.free.push(free);
        self.healthy.push(healthy);
        self.utilization.push(utilization);
        self.criticality.push(criticality);
        if free && healthy {
            self.mappable += 1;
        }
    }

    /// Whether every node of the mesh has an entry.
    pub fn is_complete(&self) -> bool {
        self.free.len() == self.mesh.node_count()
    }

    /// The mesh this context describes.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Whether the node at `c` is mappable: unoccupied *and* healthy.
    #[inline]
    pub fn is_free(&self, c: Coord) -> bool {
        let i = self.mesh.node_id(c).index();
        self.free[i] && self.healthy[i]
    }

    /// Marks the node at `c` free or occupied.
    pub fn set_free(&mut self, c: Coord, free: bool) {
        let i = self.mesh.node_id(c).index();
        if self.free[i] != free {
            if self.healthy[i] {
                if free {
                    self.mappable += 1;
                } else {
                    self.mappable -= 1;
                }
            }
            self.free[i] = free;
        }
    }

    /// Recent utilisation of the node at `c`, in `[0, 1]`.
    #[inline]
    pub fn utilization(&self, c: Coord) -> f64 {
        self.utilization[self.mesh.node_id(c).index()]
    }

    /// Test criticality of the node at `c` (≥ 0; higher = more urgent).
    #[inline]
    pub fn criticality(&self, c: Coord) -> f64 {
        self.criticality[self.mesh.node_id(c).index()]
    }

    /// Sets the test criticality of the node at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    pub fn set_criticality(&mut self, c: Coord, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "criticality must be non-negative"
        );
        let i = self.mesh.node_id(c).index();
        self.criticality[i] = value;
    }

    /// Number of mappable nodes (free *and* healthy), O(1): the count is
    /// maintained by every mutator rather than recomputed by scanning.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.mappable,
            self.free
                .iter()
                .zip(&self.healthy)
                .filter(|&(&f, &h)| f && h)
                .count(),
            "maintained mappable count drifted from the masks"
        );
        self.mappable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_free_starts_clean() {
        let ctx = MapContext::all_free(Mesh2D::new(3, 3));
        assert_eq!(ctx.free_count(), 9);
        assert_eq!(ctx.utilization(Coord::new(1, 1)), 0.0);
        assert_eq!(ctx.criticality(Coord::new(1, 1)), 0.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut ctx = MapContext::all_free(Mesh2D::new(3, 3));
        let c = Coord::new(2, 0);
        ctx.set_free(c, false);
        ctx.set_criticality(Coord::new(1, 2), 3.5);
        assert!(!ctx.is_free(c));
        assert_eq!(ctx.criticality(Coord::new(1, 2)), 3.5);
        assert_eq!(ctx.free_count(), 8);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let mesh = Mesh2D::new(2, 2);
        let ctx = MapContext::from_parts(
            mesh,
            vec![true, false, true, true],
            vec![0.0; 4],
            vec![0.0; 4],
        );
        assert_eq!(ctx.free_count(), 3);
    }

    #[test]
    fn quarantined_nodes_vanish_from_the_free_set() {
        let mesh = Mesh2D::new(3, 3);
        let mut ctx = MapContext::all_free(mesh);
        let c = Coord::new(1, 1);
        ctx.reset(mesh);
        for n in mesh.coords() {
            ctx.push_node_health(true, n != c, 0.0, 0.0);
        }
        assert!(!ctx.is_free(c), "unhealthy implies unmappable");
        assert_eq!(ctx.free_count(), 8);
    }

    #[test]
    fn push_node_health_builds_the_mask_incrementally() {
        let mesh = Mesh2D::new(2, 2);
        let mut ctx = MapContext::all_free(mesh);
        ctx.reset(mesh);
        ctx.push_node_health(true, true, 0.0, 0.0);
        ctx.push_node_health(true, false, 0.0, 0.0);
        ctx.push_node_health(false, true, 0.5, 1.0);
        ctx.push_node_health(true, true, 0.0, 0.0);
        assert!(ctx.is_complete());
        assert_eq!(ctx.free_count(), 2, "the quarantined free node does not count");
    }

    #[test]
    fn maintained_free_count_survives_redundant_mutations() {
        let mesh = Mesh2D::new(3, 3);
        let mut ctx = MapContext::all_free(mesh);
        let c = Coord::new(0, 2);
        // Re-setting the same value must not double-count.
        ctx.set_free(c, false);
        ctx.set_free(c, false);
        assert_eq!(ctx.free_count(), 8);
        ctx.set_free(c, true);
        ctx.set_free(c, true);
        assert_eq!(ctx.free_count(), 9);
        // Occupied-and-quarantined needs both bits back to count again:
        // freeing the quarantined node alone leaves it unmappable.
        ctx.reset(mesh);
        for n in mesh.coords() {
            ctx.push_node_health(n != c, n != c, 0.0, 0.0);
        }
        assert_eq!(ctx.free_count(), 8);
        ctx.set_free(c, true);
        assert_eq!(ctx.free_count(), 8);
        ctx.set_free(c, false);
        assert_eq!(ctx.free_count(), 8);
        // Rebuilding through reset + push keeps the count in lockstep.
        ctx.reset(mesh);
        for i in 0..9 {
            ctx.push_node_health(i % 2 == 0, i % 3 != 0, 0.0, 0.0);
        }
        assert!(ctx.is_complete());
        // free at even i, healthy unless i % 3 == 0 → i in {2, 4, 8}.
        assert_eq!(ctx.free_count(), 3);
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn from_parts_rejects_short_vectors() {
        MapContext::from_parts(Mesh2D::new(2, 2), vec![true; 3], vec![0.0; 4], vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_criticality_panics() {
        MapContext::all_free(Mesh2D::new(2, 2)).set_criticality(Coord::new(0, 0), -1.0);
    }
}
