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
        for id in (0..mesh.node_count() as u32).map(NodeId) {
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
}
