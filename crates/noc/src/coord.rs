//! Mesh coordinates and node identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node (tile) coordinate in a 2-D mesh: `x` is the column, `y` the row.
///
/// # Examples
///
/// ```
/// use manytest_noc::coord::Coord;
///
/// let a = Coord::new(1, 2);
/// let b = Coord::new(4, 0);
/// assert_eq!(a.manhattan(b), 5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Coord {
    /// Column index (0-based, grows east).
    pub x: u16,
    /// Row index (0-based, grows north).
    pub y: u16,
}

/// A dense node identifier: `id = y * width + x` for the owning mesh.
///
/// Dense ids let per-node state live in flat `Vec`s indexed by
/// [`NodeId::index`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan (hop) distance to `other`.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Chebyshev distance to `other` (radius of the smallest covering
    /// square), used by the square-region first-node search.
    #[inline]
    pub fn chebyshev(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) as u32).max(self.y.abs_diff(other.y) as u32)
    }
}

impl NodeId {
    /// The id as a `usize` index into per-node state vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_symmetry_and_identity() {
        let a = Coord::new(3, 7);
        let b = Coord::new(9, 1);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 12);
    }

    #[test]
    fn chebyshev_is_max_axis() {
        let a = Coord::new(0, 0);
        assert_eq!(a.chebyshev(Coord::new(2, 5)), 5);
        assert_eq!(a.chebyshev(Coord::new(5, 2)), 5);
        assert_eq!(a.chebyshev(a), 0);
    }

    #[test]
    fn chebyshev_never_exceeds_manhattan() {
        for x in 0..8u16 {
            for y in 0..8u16 {
                let a = Coord::new(3, 3);
                let b = Coord::new(x, y);
                assert!(a.chebyshev(b) <= a.manhattan(b));
                assert!(a.manhattan(b) <= 2 * a.chebyshev(b));
            }
        }
    }

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(42u32);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Coord::new(1, 2)), "(1,2)");
    }
}
