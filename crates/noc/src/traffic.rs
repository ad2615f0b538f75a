//! Link-utilisation accounting.
//!
//! The mapper's quality shows up as congestion: contiguous mappings keep
//! traffic local and link loads low. [`TrafficMatrix`] charges each hop of a
//! route with the bits it carries and reports per-link and aggregate load
//! statistics, which the evaluation uses as the congestion proxy.

use crate::coord::Coord;
use crate::routing::{xy_route, Direction};
use crate::topology::Mesh2D;
use serde::{Deserialize, Serialize};

/// Accumulated bits carried by every directed link of a mesh.
///
/// # Examples
///
/// ```
/// use manytest_noc::prelude::*;
///
/// let mesh = Mesh2D::new(4, 4);
/// let mut tm = TrafficMatrix::new(mesh);
/// tm.charge_route(Coord::new(0, 0), Coord::new(3, 0), 1_000.0);
/// // Three hops east, each carrying the message.
/// for x in 0..3 {
///     assert_eq!(tm.link_bits(Coord::new(x, 0), Direction::East), 1_000.0);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    mesh: Mesh2D,
    // One slot per (node, direction): index = node_id * 4 + dir.
    link_bits: Vec<f64>,
}

/// The slot of the link leaving `from` in direction `dir`:
/// node id × 4 + direction.
pub(crate) fn link_index(mesh: Mesh2D, from: Coord, dir: Direction) -> usize {
    let dir = match dir {
        Direction::West => 0,
        Direction::East => 1,
        Direction::South => 2,
        Direction::North => 3,
    };
    mesh.node_id(from).index() * 4 + dir
}

impl TrafficMatrix {
    /// Creates an empty accounting matrix for `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        TrafficMatrix {
            mesh,
            link_bits: vec![0.0; mesh.node_count() * 4],
        }
    }

    /// The mesh being accounted.
    pub(crate) fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Charges the links of the XY route from `src` to `dst` with `bits`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh or `bits` is negative.
    pub fn charge_route(&mut self, src: Coord, dst: Coord, bits: f64) {
        assert!(self.mesh.contains(src) && self.mesh.contains(dst), "endpoint outside mesh");
        assert!(bits >= 0.0, "bits must be non-negative");
        for hop in xy_route(src, dst) {
            self.link_bits[link_index(self.mesh, hop.from, hop.dir)] += bits;
        }
    }

    /// Bits accumulated on the link leaving `from` in direction `dir`.
    pub fn link_bits(&self, from: Coord, dir: Direction) -> f64 {
        self.link_bits[link_index(self.mesh, from, dir)]
    }

    /// Resets all accumulated traffic.
    pub(crate) fn clear(&mut self) {
        self.link_bits.iter_mut().for_each(|b| *b = 0.0);
    }

    /// Swaps the accumulated bits with `bits`, a buffer of one slot per
    /// link, and zeroes what comes in: the window's traffic leaves
    /// without a copy and the next window starts empty.
    pub(crate) fn swap_bits(&mut self, bits: &mut Vec<f64>) {
        assert_eq!(bits.len(), self.link_bits.len(), "one slot per link");
        std::mem::swap(&mut self.link_bits, bits);
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hop_charges_one_link() {
        let mesh = Mesh2D::new(3, 3);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(0, 0), Coord::new(1, 0), 64.0);
        assert_eq!(tm.link_bits(Coord::new(0, 0), Direction::East), 64.0);
        assert_eq!(tm.link_bits(Coord::new(1, 0), Direction::West), 0.0);
    }

    #[test]
    fn self_message_charges_nothing() {
        let mesh = Mesh2D::new(3, 3);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(1, 1), Coord::new(1, 1), 512.0);
        assert_eq!(tm, TrafficMatrix::new(mesh));
    }

    #[test]
    fn total_bits_is_bits_times_hops() {
        let mesh = Mesh2D::new(6, 6);
        let mut tm = TrafficMatrix::new(mesh);
        let src = Coord::new(0, 0);
        let dst = Coord::new(4, 3);
        tm.charge_route(src, dst, 100.0);
        let route = xy_route(src, dst);
        assert_eq!(route.len(), src.manhattan(dst) as usize);
        for hop in route {
            assert_eq!(tm.link_bits(hop.from, hop.dir), 100.0);
        }
    }

    #[test]
    fn overlapping_routes_accumulate() {
        let mesh = Mesh2D::new(4, 1);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(0, 0), Coord::new(3, 0), 10.0);
        tm.charge_route(Coord::new(1, 0), Coord::new(3, 0), 10.0);
        // Link 1→2 East carries both.
        assert_eq!(tm.link_bits(Coord::new(1, 0), Direction::East), 20.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mesh = Mesh2D::new(3, 3);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(0, 0), Coord::new(2, 2), 5.0);
        tm.clear();
        assert_eq!(tm, TrafficMatrix::new(mesh));
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn charge_outside_panics() {
        let mesh = Mesh2D::new(2, 2);
        TrafficMatrix::new(mesh).charge_route(Coord::new(0, 0), Coord::new(5, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bits_panics() {
        let mesh = Mesh2D::new(2, 2);
        TrafficMatrix::new(mesh).charge_route(Coord::new(0, 0), Coord::new(1, 0), -1.0);
    }
}
