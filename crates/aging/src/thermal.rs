//! Transient RC thermal model of the die.
//!
//! The default aging pipeline uses a *steady-state* proxy
//! (`T = T_amb + R_th·P`, see [`crate::model`]), which ignores thermal
//! capacitance (heating takes time) and lateral heat spreading (hot tiles
//! warm their neighbours). This module provides the standard lumped-RC
//! alternative — one thermal node per tile, a vertical resistance to
//! ambient through the heat-sink path, a capacitance giving the tile a
//! realistic ~100 ms time constant, and lateral resistances to the four
//! mesh neighbours:
//!
//! ```text
//! C · dT_i/dt = P_i − (T_i − T_amb)/R_v − Σ_j (T_i − T_j)/R_l
//! ```
//!
//! integrated with sub-stepped explicit Euler (the step size is clamped
//! well below the stability limit). The grid plugs into the same
//! Arrhenius acceleration as the proxy, so the two models are directly
//! comparable (ablation A5 in the bench crate does exactly that).

use serde::{Deserialize, Serialize};

/// Physical constants of the per-tile RC network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Vertical resistance tile → ambient (heat-sink path), kelvin/watt.
    pub r_vertical: f64,
    /// Tile thermal capacitance, joules/kelvin.
    pub capacitance: f64,
    /// Lateral resistance between adjacent tiles, kelvin/watt.
    pub r_lateral: f64,
    /// Ambient temperature, kelvin.
    pub t_ambient: f64,
}

impl ThermalParams {
    /// Constants for a small manycore tile: 30 K/W to ambient (matching
    /// the steady-state proxy so the two models agree in equilibrium),
    /// a ~100 ms time constant, and 10 K/W lateral spreading.
    pub fn new() -> Self {
        ThermalParams {
            r_vertical: 30.0,
            capacitance: 3.3e-3,
            r_lateral: 10.0,
            t_ambient: 318.15, // 45 °C
        }
    }

    /// Largest explicit-Euler step that is stable for an interior tile
    /// (4 lateral neighbours), seconds.
    pub fn stable_step(&self) -> f64 {
        self.capacitance / (1.0 / self.r_vertical + 4.0 / self.r_lateral)
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        Self::new()
    }
}

/// A `width × height` grid of tile temperatures.
///
/// # Examples
///
/// ```
/// use manytest_aging::thermal::{ThermalGrid, ThermalParams};
///
/// let mut grid = ThermalGrid::new(4, 4, ThermalParams::default());
/// let mut powers = vec![0.0; 16];
/// powers[5] = 2.0; // one hot tile
/// for _ in 0..200 {
///     grid.step(&powers, 1e-3);
/// }
/// // The hot tile is hottest; its neighbour is warmer than a far corner.
/// assert!(grid.temperature(5) > grid.temperature(6));
/// assert!(grid.temperature(6) > grid.temperature(15));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalGrid {
    width: usize,
    height: usize,
    params: ThermalParams,
    temps: Vec<f64>,
    // Lateral edge fluxes of the current substep, zero-padded so every
    // tile has four: `flux_x[y * (width + 1) + x]` flows from tile
    // (x − 1, y) into (x, y), and `flux_y[y * width + x]` from (x, y − 1)
    // into (x, y). Only interior edges are ever written; the padding
    // (x = 0 or width, y = 0 or height) stays 0.
    flux_x: Vec<f64>,
    flux_y: Vec<f64>,
    // Double-buffer for the explicit-Euler update, reused across steps.
    scratch: Vec<f64>,
}

// The flux and scratch buffers are per-step workspace; equality is the
// physical state (geometry, constants, temperatures).
impl PartialEq for ThermalGrid {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.params == other.params
            && self.temps == other.temps
    }
}

impl ThermalGrid {
    /// Creates a grid with every tile at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, params: ThermalParams) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        let tiles = width * height;
        ThermalGrid {
            width,
            height,
            params,
            temps: vec![params.t_ambient; tiles],
            flux_x: vec![0.0; (width + 1) * height],
            flux_y: vec![0.0; width * (height + 1)],
            scratch: vec![params.t_ambient; tiles],
        }
    }

    /// Temperature of tile `i`, kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn temperature(&self, i: usize) -> f64 {
        self.temps[i]
    }

    /// All temperatures in tile order.
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// Hottest tile temperature, kelvin.
    pub fn max_temperature(&self) -> f64 {
        self.temps.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
    }

    /// Advances the grid by `dt` seconds with the given per-tile powers
    /// (watts), sub-stepping as needed for numerical stability. Each
    /// substep computes every lateral edge's flux once, then updates the
    /// tiles row by row; stepping never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `powers` does not have one entry per tile or `dt` is
    /// negative.
    pub fn step(&mut self, powers: &[f64], dt: f64) {
        assert_eq!(powers.len(), self.temps.len(), "one power per tile");
        assert!(dt >= 0.0, "time must advance forwards");
        if dt == 0.0 {
            return;
        }
        let max_step = 0.25 * self.params.stable_step();
        let substeps = (dt / max_step).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        let p = self.params;
        let w = self.width;
        for _ in 0..substeps {
            let temps = &self.temps;
            for (y, row) in temps.chunks_exact(w).enumerate() {
                let fx = &mut self.flux_x[y * (w + 1)..(y + 1) * (w + 1)];
                for (f, pair) in fx[1..w].iter_mut().zip(row.windows(2)) {
                    *f = (pair[0] - pair[1]) / p.r_lateral;
                }
                if let Some(below) = temps.get((y + 1) * w..(y + 2) * w) {
                    let fy = &mut self.flux_y[(y + 1) * w..(y + 2) * w];
                    for ((f, &a), &b) in fy.iter_mut().zip(row).zip(below) {
                        *f = (a - b) / p.r_lateral;
                    }
                }
            }
            // A tile gains its left and upper edges' flux and loses its
            // right and lower edges', in the order left, right, up, down.
            // Each term then equals a per-tile `−(t − t_j)/R_l` exactly
            // (IEEE negation is exact), so the result matches
            // `step_reference` bit for bit: only a zero flow's sign can
            // differ, and `t + h·flow/C` absorbs it for any t ≠ 0.
            let rows = self.scratch.chunks_exact_mut(w).zip(temps.chunks_exact(w));
            for (y, (out, row)) in rows.enumerate() {
                let fx = &self.flux_x[y * (w + 1)..(y + 1) * (w + 1)];
                let up = &self.flux_y[y * w..(y + 1) * w];
                let down = &self.flux_y[(y + 1) * w..(y + 2) * w];
                let pw = &powers[y * w..(y + 1) * w];
                for x in 0..w {
                    let t = row[x];
                    let mut flow = pw[x] - (t - p.t_ambient) / p.r_vertical;
                    flow += fx[x];
                    flow -= fx[x + 1];
                    flow += up[x];
                    flow -= down[x];
                    out[x] = t + h * flow / p.capacitance;
                }
            }
            std::mem::swap(&mut self.temps, &mut self.scratch);
        }
    }
}

/// The stencil as first written: every tile divides its own four
/// lateral temperature differences, walking a neighbour list in the
/// order left, right, up, down. [`ThermalGrid::step`] must match it bit
/// for bit.
#[cfg(test)]
impl ThermalGrid {
    fn step_reference(&mut self, powers: &[f64], dt: f64) {
        assert_eq!(powers.len(), self.temps.len(), "one power per tile");
        assert!(dt >= 0.0, "time must advance forwards");
        if dt == 0.0 {
            return;
        }
        let (w, hgt) = (self.width, self.height);
        let neighbors: Vec<Vec<usize>> = (0..self.temps.len())
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let mut n = Vec::new();
                if x > 0 {
                    n.push(i - 1);
                }
                if x + 1 < w {
                    n.push(i + 1);
                }
                if y > 0 {
                    n.push(i - w);
                }
                if y + 1 < hgt {
                    n.push(i + w);
                }
                n
            })
            .collect();
        let max_step = 0.25 * self.params.stable_step();
        let substeps = (dt / max_step).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        let p = self.params;
        for _ in 0..substeps {
            for i in 0..self.temps.len() {
                let t = self.temps[i];
                let mut flow = powers[i] - (t - p.t_ambient) / p.r_vertical;
                for &j in &neighbors[i] {
                    flow -= (t - self.temps[j]) / p.r_lateral;
                }
                self.scratch[i] = t + h * flow / p.capacitance;
            }
            std::mem::swap(&mut self.temps, &mut self.scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::SimRng;

    fn grid(w: usize, h: usize) -> ThermalGrid {
        ThermalGrid::new(w, h, ThermalParams::default())
    }

    #[test]
    fn starts_at_ambient() {
        let g = grid(3, 3);
        for i in 0..9 {
            assert_eq!(g.temperature(i), ThermalParams::default().t_ambient);
        }
    }

    #[test]
    fn uniform_power_converges_to_uniform_steady_state() {
        let mut g = grid(4, 4);
        let powers = vec![1.0; 16];
        for _ in 0..5_000 {
            g.step(&powers, 1e-3);
        }
        // Uniform heating: no lateral flow, every tile at T_amb + R_v·P.
        let p = ThermalParams::default();
        let expected = p.t_ambient + p.r_vertical * 1.0;
        for i in 0..16 {
            assert!(
                (g.temperature(i) - expected).abs() < 0.01,
                "tile {i}: {} vs {expected}",
                g.temperature(i)
            );
        }
    }

    #[test]
    fn heating_follows_an_exponential_transient() {
        let mut g = grid(1, 1);
        let tau = ThermalParams::default().r_vertical * ThermalParams::default().capacitance;
        let powers = vec![1.0];
        g.step(&powers, tau); // one time constant
        let rise = g.temperature(0) - ThermalParams::default().t_ambient;
        let full = ThermalParams::default().r_vertical * 1.0;
        let expected = full * (1.0 - (-1.0f64).exp());
        assert!(
            (rise - expected).abs() < 0.05 * full,
            "rise {rise} vs expected {expected}"
        );
    }

    #[test]
    fn heat_spreads_to_neighbors() {
        let mut g = grid(5, 1);
        let mut powers = vec![0.0; 5];
        powers[0] = 2.0;
        for _ in 0..2_000 {
            g.step(&powers, 1e-3);
        }
        // Monotone decay away from the source.
        for i in 0..4 {
            assert!(
                g.temperature(i) > g.temperature(i + 1),
                "temperature must decay with distance"
            );
        }
        assert!(g.temperature(4) > ThermalParams::default().t_ambient);
    }

    #[test]
    fn cooling_returns_to_ambient() {
        let mut g = grid(2, 2);
        g.step(&vec![5.0; 4], 0.5);
        assert!(g.max_temperature() > ThermalParams::default().t_ambient + 1.0);
        g.step(&vec![0.0; 4], 5.0);
        assert!(
            (g.max_temperature() - ThermalParams::default().t_ambient).abs() < 0.01,
            "die must cool back to ambient"
        );
    }

    #[test]
    fn energy_is_not_created() {
        // Temperatures never exceed the hottest achievable steady state.
        let mut g = grid(3, 3);
        let powers = vec![2.0; 9];
        let p = ThermalParams::default();
        let t_max = p.t_ambient + p.r_vertical * 2.0;
        for _ in 0..10_000 {
            g.step(&powers, 1e-3);
            assert!(g.max_temperature() <= t_max + 0.01);
        }
    }

    #[test]
    fn zero_dt_is_a_noop() {
        let mut g = grid(2, 2);
        let before = g.temperatures().to_vec();
        g.step(&vec![3.0; 4], 0.0);
        assert_eq!(g.temperatures(), &before[..]);
    }

    #[test]
    fn substepping_matches_fine_stepping() {
        let powers: Vec<f64> = (0..9).map(|i| i as f64 * 0.3).collect();
        let mut coarse = grid(3, 3);
        coarse.step(&powers, 0.05); // forces substeps internally
        let mut fine = grid(3, 3);
        for _ in 0..500 {
            fine.step(&powers, 1e-4);
        }
        for i in 0..9 {
            // Explicit Euler is first order: the two step sizes agree to
            // within a few tenths of a kelvin over a 50 ms transient.
            assert!(
                (coarse.temperature(i) - fine.temperature(i)).abs() < 0.3,
                "tile {i} diverged: {} vs {}",
                coarse.temperature(i),
                fine.temperature(i)
            );
        }
    }

    #[test]
    fn stable_step_is_positive_and_small() {
        let p = ThermalParams::default();
        assert!(p.stable_step() > 0.0);
        assert!(p.stable_step() < 0.1);
    }

    #[test]
    #[should_panic(expected = "one power per tile")]
    fn wrong_power_length_panics() {
        grid(2, 2).step(&[1.0; 3], 1e-3);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        ThermalGrid::new(0, 3, ThermalParams::default());
    }

    fn random_powers(rng: &mut SimRng, tiles: usize) -> Vec<f64> {
        let zeros = rng.next_f64();
        (0..tiles)
            .map(|_| {
                if rng.next_f64() < zeros {
                    0.0
                } else {
                    rng.gen_f64_range(0.0, 3.0)
                }
            })
            .collect()
    }

    /// Steps a grid and its reference twin through the same inputs and
    /// demands identical temperature bits after every step.
    fn assert_step_matches_reference(rng: &mut SimRng, w: usize, h: usize, steps: usize) {
        let params = ThermalParams::default();
        let tau = params.r_vertical * params.capacitance;
        let mut fast = ThermalGrid::new(w, h, params);
        if rng.gen_bool(0.5) {
            for t in &mut fast.temps {
                *t = rng.gen_f64_range(250.0, 450.0);
            }
        }
        let mut slow = fast.clone();
        for _ in 0..steps {
            let powers = random_powers(rng, w * h);
            let dt = [1e-3, 0.05, tau][rng.gen_range(3) as usize];
            fast.step(&powers, dt);
            slow.step_reference(&powers, dt);
            let bits = |g: &ThermalGrid| g.temps.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "{w}x{h} grid, dt {dt}");
        }
    }

    #[test]
    fn step_matches_reference_on_every_small_shape() {
        let mut rng = SimRng::seed_from(1414);
        for w in 1..=24 {
            for h in 1..=24 {
                assert_step_matches_reference(&mut rng, w, h, 3);
            }
        }
    }

    #[test]
    fn step_matches_reference_on_large_grids() {
        let mut rng = SimRng::seed_from(6464);
        for _ in 0..4 {
            assert_step_matches_reference(&mut rng, 64, 64, 3);
        }
    }
}
