//! Link-contention (queueing delay) model.
//!
//! The base latency model is zero-load: hops cost a fixed pipeline delay.
//! Under congestion a wormhole link behaves like a queueing server — as
//! offered load ρ approaches the link bandwidth, waiting time blows up
//! like `1/(1−ρ)`. [`LinkLoads`] holds per-link utilisation over one
//! [`TrafficMatrix`] window; [`ContentionModel`] turns a route's worst
//! link load into a latency multiplier. The full simulator applies the
//! multiplier to message latencies when congestion modelling is enabled.

use crate::coord::Coord;
use crate::routing::xy_route;
use crate::topology::Mesh2D;
use crate::traffic::{link_index, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// Per-link offered load over a time window.
///
/// It keeps the bits each link carried and divides by the window's
/// capacity on demand. Dividing by a positive capacity and clamping to
/// `[0, 1]` are both monotone, so the load of the most bits is the
/// largest load: a route's worst link and the chip's peak cost one
/// division each, and return the bits that dividing every link first
/// and taking the maximum would.
///
/// # Examples
///
/// ```
/// use manytest_noc::prelude::*;
///
/// let mesh = Mesh2D::new(4, 4);
/// // 0.5 s windows on 100 bit/s links: 50 bits fill a link.
/// let mut loads = LinkLoads::idle(mesh, 0.5, 100.0);
/// let mut traffic = TrafficMatrix::new(mesh);
/// traffic.charge_route(Coord::new(0, 0), Coord::new(2, 0), 25.0);
/// loads.take_window(&mut traffic);
/// assert_eq!(loads.peak(), 0.5);
/// assert_eq!(traffic, TrafficMatrix::new(mesh), "the next window starts empty");
/// // A route over a half-loaded link takes twice its zero-load latency.
/// let factor = ContentionModel::new().route_factor(&loads, Coord::new(1, 0), Coord::new(3, 0));
/// assert_eq!(factor, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkLoads {
    mesh: Mesh2D,
    /// The window's bits per link, node × 4 directions.
    bits: Vec<f64>,
    /// Bits that fill a link over the window.
    capacity: f64,
}

impl LinkLoads {
    /// Loads of an idle window on `mesh` (every link at 0), for windows
    /// of `window_secs` seconds on links of `bandwidth` bits/second.
    ///
    /// # Panics
    ///
    /// Panics unless `window_secs` and `bandwidth` are strictly positive
    /// and their product is finite.
    pub fn idle(mesh: Mesh2D, window_secs: f64, bandwidth: f64) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let capacity = bandwidth * window_secs;
        assert!(capacity.is_finite(), "link capacity must be finite");
        LinkLoads {
            mesh,
            bits: vec![0.0; mesh.node_count() * 4],
            capacity,
        }
    }

    /// Takes the bits `traffic` carried in the window just closed and
    /// leaves it zeroed for the next one, swapping buffers: nothing is
    /// allocated or divided.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` accounts another mesh.
    pub fn take_window(&mut self, traffic: &mut TrafficMatrix) {
        assert_eq!(traffic.mesh(), self.mesh, "traffic of another mesh");
        traffic.swap_bits(&mut self.bits);
    }

    /// Load of a link that carried `bits`: `bits / capacity`, clamped to
    /// `[0, 1]`.
    fn load(&self, bits: f64) -> f64 {
        (bits / self.capacity).clamp(0.0, 1.0)
    }

    /// The most loaded link along the XY route `src → dst` (0 for a
    /// self-message).
    pub(crate) fn worst_on_route(&self, src: Coord, dst: Coord) -> f64 {
        let most = xy_route(src, dst)
            .map(|hop| self.bits[link_index(self.mesh, hop.from, hop.dir)])
            .fold(0.0, f64::max);
        self.load(most)
    }

    /// The single most loaded link on the chip.
    pub fn peak(&self) -> f64 {
        self.load(self.bits.iter().fold(0.0, |a, &b| a.max(b)))
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
    use crate::routing::Direction;
    use manytest_sim::SimRng;

    impl LinkLoads {
        /// Offered load of the link leaving `from` in direction `dir`.
        fn utilization(&self, from: Coord, dir: Direction) -> f64 {
            self.load(self.bits[link_index(self.mesh, from, dir)])
        }
    }

    const DIRECTIONS: [Direction; 4] = [
        Direction::West,
        Direction::East,
        Direction::South,
        Direction::North,
    ];

    /// The reference the on-demand loads must match bit for bit: the
    /// eager division `LinkLoads` made before, every link's load of
    /// `traffic`'s window up front, indexed node × 4 directions.
    fn utilization_reference(
        traffic: &TrafficMatrix,
        window_secs: f64,
        bandwidth: f64,
    ) -> Vec<f64> {
        let mesh = traffic.mesh();
        let capacity = bandwidth * window_secs;
        let mut utilization = vec![0.0; mesh.node_count() * 4];
        for c in mesh.coords() {
            for dir in DIRECTIONS {
                let i = link_index(mesh, c, dir);
                utilization[i] = (traffic.link_bits(c, dir) / capacity).clamp(0.0, 1.0);
            }
        }
        utilization
    }

    /// Loads of `tm`'s window: 1 ms on 128 Gb/s links.
    fn loads_of(mut tm: TrafficMatrix) -> LinkLoads {
        let mut loads = LinkLoads::idle(tm.mesh(), 1e-3, 128.0e9);
        loads.take_window(&mut tm);
        loads
    }

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
        let loads = loads_of(loaded_matrix());
        assert!((loads.utilization(Coord::new(0, 0), Direction::East) - 0.5).abs() < 1e-9);
        assert_eq!(loads.utilization(Coord::new(2, 2), Direction::East), 0.0);
        assert!((loads.peak() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn loads_are_clamped_to_one() {
        let mesh = Mesh2D::new(2, 1);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(Coord::new(0, 0), Coord::new(1, 0), 1e12);
        let loads = loads_of(tm);
        assert_eq!(loads.utilization(Coord::new(0, 0), Direction::East), 1.0);
    }

    #[test]
    fn worst_on_route_finds_the_bottleneck() {
        let loads = loads_of(loaded_matrix());
        // Route crossing the hot link sees its load; a disjoint route sees 0.
        assert!((loads.worst_on_route(Coord::new(0, 0), Coord::new(3, 0)) - 0.5).abs() < 1e-9);
        assert_eq!(loads.worst_on_route(Coord::new(0, 3), Coord::new(3, 3)), 0.0);
        assert_eq!(loads.worst_on_route(Coord::new(1, 1), Coord::new(1, 1)), 0.0);
    }

    /// Charges one random window of traffic into `tm`: self-messages,
    /// routes of every length, and volumes from 0 to ten times a link's
    /// capacity, with many links left idle.
    fn charge_random_window(rng: &mut SimRng, tm: &mut TrafficMatrix, capacity: f64) {
        let mesh = tm.mesh();
        let coord = |rng: &mut SimRng| {
            let x = rng.gen_range(u64::from(mesh.width())) as u16;
            Coord::new(x, rng.gen_range(u64::from(mesh.height())) as u16)
        };
        for _ in 0..rng.gen_range(3 * mesh.node_count() as u64) {
            let src = coord(rng);
            let dst = match rng.gen_range(8) {
                0 => src,
                _ => coord(rng),
            };
            let bits = match rng.gen_range(6) {
                0 => 0.0,
                1 => capacity * rng.gen_f64_range(1.0, 10.0),
                2 => capacity,
                _ => capacity * rng.gen_f64_range(0.0, 0.3),
            };
            tm.charge_route(src, dst, bits);
        }
    }

    #[test]
    fn on_demand_loads_match_reference() {
        let mut rng = SimRng::seed_from(0x11_4C);
        let (window, bandwidth) = (1e-3, 128.0e9);
        let capacity = bandwidth * window;
        let (mut idle, mut full) = (0, 0);
        for (w, h) in [(1, 1), (2, 1), (4, 4), (5, 3), (7, 12), (12, 12)] {
            let mesh = Mesh2D::new(w, h);
            let mut loads = LinkLoads::idle(mesh, window, bandwidth);
            let mut tm = TrafficMatrix::new(mesh);
            for epoch in 0..8 {
                charge_random_window(&mut rng, &mut tm, capacity);
                let reference = utilization_reference(&tm, window, bandwidth);
                loads.take_window(&mut tm);
                let at = format!("{w}x{h}, epoch {epoch}");
                assert_eq!(tm, TrafficMatrix::new(mesh), "{at}: the matrix is zeroed");
                for c in mesh.coords() {
                    for dir in DIRECTIONS {
                        let want = reference[link_index(mesh, c, dir)];
                        assert_eq!(loads.utilization(c, dir).to_bits(), want.to_bits(), "{at}");
                        idle += usize::from(want == 0.0);
                        full += usize::from(want == 1.0);
                    }
                }
                for src in mesh.coords() {
                    for dst in mesh.coords() {
                        let want = xy_route(src, dst)
                            .map(|hop| reference[link_index(mesh, hop.from, hop.dir)])
                            .fold(0.0, f64::max);
                        let got = loads.worst_on_route(src, dst);
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}: {src:?} → {dst:?}");
                    }
                }
                let peak = reference.iter().fold(0.0, |a: f64, &b| a.max(b));
                assert_eq!(loads.peak().to_bits(), peak.to_bits(), "{at}: peak");
            }
        }
        assert!(idle > 0 && full > 0, "{idle} idle and {full} full links");
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
        let loads = loads_of(loaded_matrix());
        let m = ContentionModel::new();
        let hot = m.route_factor(&loads, Coord::new(0, 0), Coord::new(2, 0));
        let cold = m.route_factor(&loads, Coord::new(0, 3), Coord::new(2, 3));
        assert!((hot - 2.0).abs() < 1e-9);
        assert_eq!(cold, 1.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        LinkLoads::idle(Mesh2D::new(4, 4), 0.0, 1e9);
    }
}
