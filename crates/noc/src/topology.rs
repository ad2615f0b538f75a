//! The 2-D mesh topology.

use crate::coord::{Coord, NodeId};
use serde::{Deserialize, Serialize};

/// A rectangular 2-D mesh of `width × height` tiles.
///
/// The mesh is the single source of truth for the `Coord ↔ NodeId` mapping
/// and for neighbourhood queries.
///
/// # Examples
///
/// ```
/// use manytest_noc::topology::Mesh2D;
/// use manytest_noc::coord::Coord;
///
/// let mesh = Mesh2D::new(3, 2);
/// let id = mesh.node_id(Coord::new(2, 1));
/// assert_eq!(mesh.coord(id), Coord::new(2, 1));
/// assert_eq!(mesh.node_count(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh2D {
    width: u16,
    height: u16,
}

impl Mesh2D {
    /// Creates a mesh of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh2D { width, height }
    }

    /// Number of columns.
    pub const fn width(self) -> u16 {
        self.width
    }

    /// Number of rows.
    pub const fn height(self) -> u16 {
        self.height
    }

    /// Total number of tiles.
    pub const fn node_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// True if `c` lies inside the mesh.
    pub const fn contains(self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Dense id of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    #[inline]
    pub fn node_id(self, c: Coord) -> NodeId {
        if !self.contains(c) {
            self.coord_outside(c);
        }
        NodeId(c.y as u32 * self.width as u32 + c.x as u32)
    }

    /// Coordinate of a dense id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this mesh.
    #[inline]
    pub fn coord(self, id: NodeId) -> Coord {
        if id.index() >= self.node_count() {
            self.id_outside(id);
        }
        Coord {
            x: (id.0 % self.width as u32) as u16,
            y: (id.0 / self.width as u32) as u16,
        }
    }

    // The two panics live out of line, so an inlined `node_id` or `coord`
    // costs its callers one compare and branch, not the message set-up.

    #[cold]
    #[inline(never)]
    fn coord_outside(self, c: Coord) -> ! {
        // lint:allow(hot-path-purity, reason = "the bounds check node_id always made, moved out of line; callers pass in-mesh coordinates")
        panic!("coordinate {c} outside {self:?}")
    }

    #[cold]
    #[inline(never)]
    fn id_outside(self, id: NodeId) -> ! {
        panic!("node id {id} outside {self:?}")
    }

    /// Iterates over all coordinates in row-major order.
    pub fn coords(self) -> impl Iterator<Item = Coord> {
        let w = self.width;
        let h = self.height;
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord { x, y }))
    }

    /// Iterates over all node ids in ascending order.
    pub fn node_ids(self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The 2–4 mesh neighbours of `c` (no wraparound).
    pub fn neighbors(self, c: Coord) -> impl Iterator<Item = Coord> {
        let candidates = [
            (c.x.checked_sub(1), Some(c.y)),
            (c.x.checked_add(1), Some(c.y)),
            (Some(c.x), c.y.checked_sub(1)),
            (Some(c.x), c.y.checked_add(1)),
        ];
        candidates
            .into_iter()
            .filter_map(|(x, y)| Some(Coord { x: x?, y: y? }))
            .filter(move |&n| self.contains(n))
    }

    /// Diameter of the mesh (longest minimal route).
    pub const fn diameter(self) -> u32 {
        (self.width as u32 - 1) + (self.height as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip_all_nodes() {
        let mesh = Mesh2D::new(5, 7);
        for c in mesh.coords() {
            assert_eq!(mesh.coord(mesh.node_id(c)), c);
        }
        for id in mesh.node_ids() {
            assert_eq!(mesh.node_id(mesh.coord(id)), id);
        }
    }

    #[test]
    fn coords_row_major_order() {
        let mesh = Mesh2D::new(3, 2);
        let all: Vec<Coord> = mesh.coords().collect();
        assert_eq!(all[0], Coord::new(0, 0));
        assert_eq!(all[1], Coord::new(1, 0));
        assert_eq!(all[3], Coord::new(0, 1));
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn corner_has_two_neighbors() {
        let mesh = Mesh2D::new(4, 4);
        assert_eq!(mesh.neighbors(Coord::new(0, 0)).count(), 2);
        assert_eq!(mesh.neighbors(Coord::new(3, 3)).count(), 2);
    }

    #[test]
    fn edge_has_three_neighbors() {
        let mesh = Mesh2D::new(4, 4);
        assert_eq!(mesh.neighbors(Coord::new(1, 0)).count(), 3);
        assert_eq!(mesh.neighbors(Coord::new(0, 2)).count(), 3);
    }

    #[test]
    fn interior_has_four_neighbors() {
        let mesh = Mesh2D::new(4, 4);
        assert_eq!(mesh.neighbors(Coord::new(2, 2)).count(), 4);
    }

    #[test]
    fn neighbors_are_adjacent_and_inside() {
        let mesh = Mesh2D::new(6, 3);
        for c in mesh.coords() {
            for n in mesh.neighbors(c) {
                assert!(mesh.contains(n));
                assert_eq!(c.manhattan(n), 1);
            }
        }
    }

    #[test]
    fn contains_rejects_outside() {
        let mesh = Mesh2D::new(2, 2);
        assert!(!mesh.contains(Coord::new(2, 0)));
        assert!(!mesh.contains(Coord::new(0, 2)));
        assert!(mesh.contains(Coord::new(1, 1)));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn node_id_panics_outside() {
        Mesh2D::new(2, 2).node_id(Coord::new(5, 5));
    }

    #[test]
    #[should_panic(expected = "node id n4 outside Mesh2D { width: 2, height: 2 }")]
    fn coord_panics_outside() {
        Mesh2D::new(2, 2).coord(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        Mesh2D::new(0, 4);
    }

    #[test]
    fn diameter_of_known_meshes() {
        assert_eq!(Mesh2D::new(1, 1).diameter(), 0);
        assert_eq!(Mesh2D::new(4, 4).diameter(), 6);
        assert_eq!(Mesh2D::new(12, 12).diameter(), 22);
    }
}
