//! Analytical NoC latency and energy model.
//!
//! The original evaluation ran a flit-accurate RTL NoC. We substitute the
//! standard analytical "bit-energy" model (Ye/Benini/De Micheli; the same
//! family of constants Orion produces): transporting one bit across one hop
//! costs `E_link + E_router`, and a `b`-bit message over `h` hops costs
//! `b · (h · E_link + (h + 1) · E_router)`. This keeps the *relative* cost of
//! mapping decisions (the only thing the policies under study consume) while
//! remaining fast enough for long manycore runs.

use crate::coord::Coord;
use serde::{Deserialize, Serialize};

/// Per-hop energy and latency constants for links and routers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEnergyModel {
    /// Energy to move one bit across one inter-router link, in joules.
    pub link_energy_per_bit: f64,
    /// Energy to move one bit through one router (buffering + crossbar +
    /// arbitration), in joules.
    pub router_energy_per_bit: f64,
    /// Latency of one hop (link + router pipeline), in seconds.
    pub hop_latency: f64,
    /// Serialisation bandwidth of a link, in bits per second.
    pub link_bandwidth: f64,
}

impl LinkEnergyModel {
    /// Constants representative of a 16 nm mesh NoC running near 1 GHz
    /// (≈ 0.1 pJ/bit/link, ≈ 0.2 pJ/bit/router, 3-cycle hops, 128-bit links).
    pub fn nominal_16nm() -> Self {
        LinkEnergyModel {
            link_energy_per_bit: 0.1e-12,
            router_energy_per_bit: 0.2e-12,
            hop_latency: 3.0e-9,
            link_bandwidth: 128.0e9,
        }
    }

    /// Scales the model's energies by `factor` (used by the technology
    /// scaling layer: older nodes burn more energy per bit).
    #[must_use]
    pub fn scaled_energy(mut self, factor: f64) -> Self {
        self.link_energy_per_bit *= factor;
        self.router_energy_per_bit *= factor;
        self
    }
}

impl Default for LinkEnergyModel {
    fn default() -> Self {
        Self::nominal_16nm()
    }
}

/// Computed transport cost of one message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocEnergy {
    /// Total transport energy, joules.
    pub energy: f64,
    /// End-to-end zero-load latency, seconds.
    pub latency: f64,
    /// Hop count of the (minimal) route.
    pub hops: u32,
}

impl LinkEnergyModel {
    /// Cost of sending `bits` bits from `src` to `dst` over the minimal XY
    /// route (hop count = Manhattan distance).
    ///
    /// A message to self (`src == dst`) traverses only the local router.
    ///
    /// # Examples
    ///
    /// ```
    /// use manytest_noc::energy::LinkEnergyModel;
    /// use manytest_noc::coord::Coord;
    ///
    /// let m = LinkEnergyModel::nominal_16nm();
    /// let near = m.message_cost(Coord::new(0, 0), Coord::new(1, 0), 1024.0);
    /// let far = m.message_cost(Coord::new(0, 0), Coord::new(5, 5), 1024.0);
    /// assert!(far.energy > near.energy);
    /// assert!(far.latency > near.latency);
    /// ```
    pub fn message_cost(&self, src: Coord, dst: Coord, bits: f64) -> NocEnergy {
        let hops = src.manhattan(dst);
        let routers = hops as f64 + 1.0;
        let energy =
            bits * (hops as f64 * self.link_energy_per_bit + routers * self.router_energy_per_bit);
        let serialization = if self.link_bandwidth > 0.0 {
            bits / self.link_bandwidth
        } else {
            0.0
        };
        let latency = hops as f64 * self.hop_latency + serialization;
        NocEnergy {
            energy,
            latency,
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hop_message_still_pays_local_router() {
        let m = LinkEnergyModel::nominal_16nm();
        let c = m.message_cost(Coord::new(2, 2), Coord::new(2, 2), 1000.0);
        assert_eq!(c.hops, 0);
        assert!(c.energy > 0.0);
        assert!((c.energy - 1000.0 * m.router_energy_per_bit).abs() < 1e-18);
    }

    #[test]
    fn energy_scales_linearly_with_bits() {
        let m = LinkEnergyModel::nominal_16nm();
        let a = m.message_cost(Coord::new(0, 0), Coord::new(3, 1), 100.0);
        let b = m.message_cost(Coord::new(0, 0), Coord::new(3, 1), 200.0);
        assert!((b.energy - 2.0 * a.energy).abs() < 1e-18);
    }

    #[test]
    fn energy_monotone_in_distance() {
        let m = LinkEnergyModel::nominal_16nm();
        let mut last = 0.0;
        for d in 0..10u16 {
            let c = m.message_cost(Coord::new(0, 0), Coord::new(d, 0), 1.0e3);
            assert!(c.energy > last);
            last = c.energy;
        }
    }

    #[test]
    fn latency_includes_serialization() {
        let m = LinkEnergyModel::nominal_16nm();
        let c = m.message_cost(Coord::new(0, 0), Coord::new(1, 0), 1280.0);
        let expected = m.hop_latency + 1280.0 / m.link_bandwidth;
        assert!((c.latency - expected).abs() < 1e-15);
    }

    #[test]
    fn scaled_energy_multiplies_both_terms() {
        let m = LinkEnergyModel::nominal_16nm().scaled_energy(3.0);
        let base = LinkEnergyModel::nominal_16nm();
        assert!((m.link_energy_per_bit - 3.0 * base.link_energy_per_bit).abs() < 1e-24);
        assert!((m.router_energy_per_bit - 3.0 * base.router_energy_per_bit).abs() < 1e-24);
        assert_eq!(m.hop_latency, base.hop_latency);
    }

    #[test]
    fn energy_per_bit_matches_message_cost() {
        let m = LinkEnergyModel::nominal_16nm();
        let c = m.message_cost(Coord::new(0, 0), Coord::new(2, 3), 1.0);
        // Five hops cross five links and six routers.
        let per_bit = 5.0 * m.link_energy_per_bit + 6.0 * m.router_energy_per_bit;
        assert!((c.energy - per_bit).abs() < 1e-24);
    }

    #[test]
    fn default_is_nominal() {
        assert_eq!(LinkEnergyModel::default(), LinkEnergyModel::nominal_16nm());
    }
}
