//! Link-contention (queueing delay) model.
//!
//! The base latency model is zero-load: hops cost a fixed pipeline delay.
//! Under congestion a wormhole link behaves like a queueing server — as
//! offered load ρ approaches the link bandwidth, waiting time blows up
//! like `1/(1−ρ)`. [`LinkLoads`] snapshots per-link utilisation from a
//! [`TrafficMatrix`] window; [`ContentionModel`] turns a route's worst
//! link load into a latency multiplier. The full simulator applies the
//! multiplier to message latencies when congestion modelling is enabled.

use crate::coord::Coord;
use crate::routing::{xy_route, Direction};
use crate::topology::Mesh2D;
use crate::traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Per-link offered-load snapshot over a time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkLoads {
    mesh: Mesh2D,
    utilization: Vec<f64>, // node × 4 directions, in [0, 1]
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::West => 0,
        Direction::East => 1,
        Direction::South => 2,
        Direction::North => 3,
    }
}

impl LinkLoads {
    /// Computes the load of every link from the bits `traffic` carried
    /// during a window of `window_secs` seconds on links of `bandwidth`
    /// bits/second. Loads are clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `window_secs` and `bandwidth` are strictly positive.
    // lint:effect(alloc+panic, reason = "per-epoch constructor by design: builds the link-load matrix from the epoch's traffic; asserts are config validation")
    pub fn from_traffic(traffic: &TrafficMatrix, window_secs: f64, bandwidth: f64) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let mesh = traffic.mesh();
        let capacity = bandwidth * window_secs;
        let mut utilization = vec![0.0; mesh.node_count() * 4];
        for c in mesh.coords() {
            for dir in [
                Direction::West,
                Direction::East,
                Direction::South,
                Direction::North,
            ] {
                let i = mesh.node_id(c).index() * 4 + dir_index(dir);
                utilization[i] = (traffic.link_bits(c, dir) / capacity).clamp(0.0, 1.0);
            }
        }
        LinkLoads { mesh, utilization }
    }

    /// Offered load of the link leaving `from` in direction `dir`.
    pub fn utilization(&self, from: Coord, dir: Direction) -> f64 {
        self.utilization[self.mesh.node_id(from).index() * 4 + dir_index(dir)]
    }

    /// The most loaded link along the XY route `src → dst` (0 for a
    /// self-message).
    pub fn worst_on_route(&self, src: Coord, dst: Coord) -> f64 {
        xy_route(src, dst)
            .map(|hop| self.utilization(hop.from, hop.dir))
            .fold(0.0, f64::max)
    }

    /// The single most loaded link on the chip.
    pub fn peak(&self) -> f64 {
        self.utilization.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// Maps link load to a latency multiplier, `1/(1−ρ)` with a saturation
/// clamp (a real router backpressures rather than diverging).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionModel {
    /// Load at which the multiplier saturates (ρ is clamped here).
    pub saturation: f64,
}

impl ContentionModel {
    /// Default model: saturate at 95 % load (20× zero-load latency).
    pub fn new() -> Self {
        ContentionModel { saturation: 0.95 }
    }

    /// Latency multiplier for a link at load `utilization`.
    ///
    /// # Examples
    ///
    /// ```
    /// use manytest_noc::contention::ContentionModel;
    ///
    /// let m = ContentionModel::new();
    /// assert_eq!(m.delay_factor(0.0), 1.0);
    /// assert!((m.delay_factor(0.5) - 2.0).abs() < 1e-12);
    /// assert!(m.delay_factor(0.99) <= m.delay_factor(1.0));
    /// ```
    pub fn delay_factor(&self, utilization: f64) -> f64 {
        let rho = utilization.clamp(0.0, self.saturation);
        1.0 / (1.0 - rho)
    }

    /// Latency multiplier for the route `src → dst` given the current
    /// link loads (dominated by the worst link, as in wormhole routing).
    pub fn route_factor(&self, loads: &LinkLoads, src: Coord, dst: Coord) -> f64 {
        self.delay_factor(loads.worst_on_route(src, dst))
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_matrix() -> TrafficMatrix {
        let mesh = Mesh2D::new(4, 4);
        let mut tm = TrafficMatrix::new(mesh);
        // Saturate the (0,0) → (1,0) link for a 1 ms window at 128 Gb/s:
        // capacity = 128e9 × 1e-3 = 128e6 bits; charge half of that.
        tm.charge_route(Coord::new(0, 0), Coord::new(1, 0), 64.0e6);
        tm
    }

    #[test]
    fn loads_reflect_charged_traffic() {
        let tm = loaded_matrix();
        let loads = LinkLoads::from_traffic(&tm, 1e-3, 128.0e9);
        assert!((loads.utilization(Coord::new(0, 0), Direction::East) - 0.5).abs() < 1e-9);
        assert_eq!(loads.utilization(Coord::new(2, 2), Direction::East), 0.0);
        assert!((loads.peak() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn loads_are_clamped_to_one() {
        let mesh = Mesh2D::new(2, 1);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(0, 0), Coord::new(1, 0), 1e12);
        let loads = LinkLoads::from_traffic(&tm, 1e-3, 128.0e9);
        assert_eq!(loads.utilization(Coord::new(0, 0), Direction::East), 1.0);
    }

    #[test]
    fn worst_on_route_finds_the_bottleneck() {
        let tm = loaded_matrix();
        let loads = LinkLoads::from_traffic(&tm, 1e-3, 128.0e9);
        // Route crossing the hot link sees its load; a disjoint route sees 0.
        assert!((loads.worst_on_route(Coord::new(0, 0), Coord::new(3, 0)) - 0.5).abs() < 1e-9);
        assert_eq!(loads.worst_on_route(Coord::new(0, 3), Coord::new(3, 3)), 0.0);
        assert_eq!(loads.worst_on_route(Coord::new(1, 1), Coord::new(1, 1)), 0.0);
    }

    #[test]
    fn delay_factor_properties() {
        let m = ContentionModel::new();
        assert_eq!(m.delay_factor(0.0), 1.0);
        assert!((m.delay_factor(0.5) - 2.0).abs() < 1e-12);
        assert!((m.delay_factor(0.9) - 10.0).abs() < 1e-9);
        // Saturation: clamped at ρ = 0.95 → 20×.
        assert!((m.delay_factor(2.0) - 20.0).abs() < 1e-9);
        // Monotone.
        let factors: Vec<f64> = (0..=10).map(|i| m.delay_factor(i as f64 / 10.0)).collect();
        assert!(factors.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn route_factor_uses_worst_link() {
        let tm = loaded_matrix();
        let loads = LinkLoads::from_traffic(&tm, 1e-3, 128.0e9);
        let m = ContentionModel::new();
        let hot = m.route_factor(&loads, Coord::new(0, 0), Coord::new(2, 0));
        let cold = m.route_factor(&loads, Coord::new(0, 3), Coord::new(2, 3));
        assert!((hot - 2.0).abs() < 1e-9);
        assert_eq!(cold, 1.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let tm = loaded_matrix();
        LinkLoads::from_traffic(&tm, 0.0, 1e9);
    }
}
