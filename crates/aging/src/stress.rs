//! Per-core stress accounting.
//!
//! [`StressTracker`] is the bookkeeping layer between the aging model and
//! the scheduling policies: every epoch the system reports each core's
//! drawn power and busy fraction; the tracker integrates damage (total and
//! since-last-test), maintains an exponentially weighted utilisation
//! average, and remembers when each core last completed a test.

use crate::model::AgingModel;
use serde::{Deserialize, Serialize};

/// Snapshot of one core's stress state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreStress {
    /// Lifetime accumulated damage.
    pub total_damage: f64,
    /// Damage accumulated since the last completed test.
    pub damage_since_test: f64,
    /// Exponentially weighted utilisation in `[0, 1]`.
    pub utilization: f64,
    /// Simulation time (seconds) when the core last completed a test;
    /// negative infinity-like sentinel (−1) if never tested.
    pub last_test_time: f64,
}

impl Default for CoreStress {
    fn default() -> Self {
        CoreStress {
            total_damage: 0.0,
            damage_since_test: 0.0,
            utilization: 0.0,
            last_test_time: -1.0,
        }
    }
}

impl CoreStress {
    /// Seconds since the last completed test, treating "never tested" as
    /// since time zero.
    pub(crate) fn time_since_test(&self, now: f64) -> f64 {
        if self.last_test_time < 0.0 {
            now
        } else {
            (now - self.last_test_time).max(0.0)
        }
    }
}

/// What one wear pass over every core ([`StressTracker::record_epoch_all`]
/// or [`StressTracker::record_epoch_all_at_temperature`]) reports, so the
/// epoch close needs no second pass over the cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochWear {
    /// Largest damage charged to any core: no core's
    /// `damage_since_test` grew by more this epoch.
    pub max_damage: f64,
    /// Mean utilisation after the pass, bit for bit
    /// [`StressTracker::mean_utilization`].
    pub mean_utilization: f64,
    /// Largest power (steady-state pass) or temperature (transient pass)
    /// any core was charged at.
    pub max_input: f64,
}

/// Stress bookkeeping for a fixed population of cores.
///
/// # Examples
///
/// ```
/// use manytest_aging::prelude::*;
///
/// let aging = AgingModel::default();
/// let mut tracker = StressTracker::new(4);
/// // Core 0 drew 1.5 W through a whole 1 ms epoch; the others idled.
/// let mut energy = [1.5e-3, 0.0, 0.0, 0.0];
/// let mut busy = [1e-3, 0.0, 0.0, 0.0];
/// tracker.record_epoch_all(&aging, &mut energy, &mut busy, 0.001);
/// assert!(tracker.core(0).total_damage > tracker.core(1).total_damage);
/// assert!(tracker.core(0).utilization > tracker.core(1).utilization);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StressTracker {
    cores: Vec<CoreStress>,
}

impl StressTracker {
    /// Smoothing factor of the utilisation average: the weight of the
    /// newest epoch.
    pub const EMA_ALPHA: f64 = 0.1;

    /// Creates a tracker for `core_count` cores.
    ///
    /// # Panics
    ///
    /// Panics if `core_count` is zero.
    pub fn new(core_count: usize) -> Self {
        assert!(core_count > 0, "need at least one core");
        StressTracker {
            cores: vec![CoreStress::default(); core_count],
        }
    }

    /// Records one epoch of operation for `core`: it drew `power` watts and
    /// was busy for fraction `busy` of the epoch of length `dt` seconds.
    /// The reference that [`Self::record_epoch_all`] must match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `busy` is outside `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn record_epoch(
        &mut self,
        core: usize,
        aging: &AgingModel,
        power: f64,
        busy: f64,
        dt: f64,
    ) {
        assert_busy_fraction(busy);
        let damage = aging.damage(power, dt);
        Self::charge_epoch(&mut self.cores[core], damage, busy);
    }

    /// Records one epoch for every core from its raw accumulators, then
    /// zeroes them: core `i` drew `energy[i]` joules and was busy for
    /// `busy[i]` seconds of the epoch of length `dt`. Bit for bit the
    /// same as calling the single-core loop `record_epoch` (kept as the
    /// test oracle) in core order with power
    /// `energy[i] / dt` and busy fraction `(busy[i] / dt).clamp(0, 1)`.
    ///
    /// An epoch holds few distinct powers (cores at one operating point
    /// and activity draw the same watts), so the pass evaluates
    /// [`AgingModel::damage`] (one `exp`) once per distinct power bits
    /// its direct-mapped cache holds, with the Arrhenius constants
    /// hoisted. For `dt > 0` a core whose accumulators are both `+0.0`
    /// (bits) is power-gated: its power and busy fraction are `+0.0`, so
    /// it skips the divisions, the cache and the zeroing and is charged
    /// the zero-power damage, evaluated once, at the first such core.
    ///
    /// `max_damage` is evaluated once more, at the highest power the pass
    /// charged: damage rises with power, and a running maximum of the
    /// damages themselves slowed the per-core loop measurably. The mean
    /// utilisation is summed in core order, as
    /// [`Self::mean_utilization`] sums it.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from the core count, if a
    /// busy fraction is outside `[0, 1]` (NaN included), or if a power is
    /// negative or NaN (with [`AgingModel::damage`]'s message).
    pub fn record_epoch_all(
        &mut self,
        aging: &AgingModel,
        energy: &mut [f64],
        busy: &mut [f64],
        dt: f64,
    ) -> EpochWear {
        assert_eq!(energy.len(), self.cores.len(), "one energy per core");
        assert_eq!(busy.len(), self.cores.len(), "one busy time per core");
        let n = self.cores.len();
        let fast_path = dt > 0.0;
        let gated = |e: f64, b: f64| fast_path && (e.to_bits() | b.to_bits()) == 0;
        let mut gated_damage: Option<f64> = None;
        let arrhenius = aging.arrhenius();
        let mut cache = DamageCache::new();
        let mut utilization = UTILIZATION_SUM_START;
        let mut i = 0;
        while i < n {
            if gated(energy[i], busy[i]) {
                // A run of gated cores: one damage, no divisions, no cache
                // probe, and accumulators that are already zero.
                let damage = *gated_damage.get_or_insert_with(|| aging.damage(0.0, dt));
                while i < n && gated(energy[i], busy[i]) {
                    let c = &mut self.cores[i];
                    Self::charge_epoch(c, damage, 0.0);
                    utilization += c.utilization;
                    i += 1;
                }
                continue;
            }
            let c = &mut self.cores[i];
            let busy_fraction = (busy[i] / dt).clamp(0.0, 1.0);
            let power = energy[i] / dt;
            assert_busy_fraction(busy_fraction);
            let damage = cache.get_or_eval(power, |p| aging.damage_with(arrhenius, p, dt));
            Self::charge_epoch(c, damage, busy_fraction);
            busy[i] = 0.0;
            energy[i] = 0.0;
            utilization += c.utilization;
            i += 1;
        }
        if gated_damage.is_some() {
            cache.max_input = cache.max_input.max(0.0);
        }
        EpochWear {
            max_damage: aging.damage(cache.max_input, dt),
            mean_utilization: utilization / n as f64,
            max_input: cache.max_input,
        }
    }

    /// Charges one epoch's `damage` to `c` and folds `busy` into its
    /// utilisation average.
    fn charge_epoch(c: &mut CoreStress, damage: f64, busy: f64) {
        c.total_damage += damage;
        c.damage_since_test += damage;
        c.utilization = (1.0 - Self::EMA_ALPHA) * c.utilization + Self::EMA_ALPHA * busy;
    }

    /// Records one epoch like [`Self::record_epoch`], but with the
    /// temperature supplied directly (e.g. from the transient
    /// [`crate::thermal::ThermalGrid`]) instead of the steady-state proxy.
    /// The reference that [`Self::record_epoch_all_at_temperature`] must
    /// match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `busy` is outside `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn record_epoch_at_temperature(
        &mut self,
        core: usize,
        aging: &AgingModel,
        temperature: f64,
        busy: f64,
        dt: f64,
    ) {
        assert_busy_fraction(busy);
        assert!(dt >= 0.0, "time must be non-negative");
        let damage = aging.base_rate * aging.acceleration_at(temperature) * dt;
        Self::charge_epoch(&mut self.cores[core], damage, busy);
    }

    /// [`Self::record_epoch_all`] for the transient thermal path: core
    /// `i` sat at `temps[i]` kelvin. Bit for bit the same as calling the
    /// single-core loop `record_epoch_at_temperature` (kept as the test
    /// oracle) in core order, with one
    /// Arrhenius evaluation per change of temperature bits. Reports the
    /// highest temperature as `max_input` (a memo hit repeats an
    /// evaluated temperature, so the memo's maximum is the fold over all
    /// of them) and the damage there as `max_damage`.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from the core count, if `dt` is
    /// negative, or if a temperature is not positive.
    pub fn record_epoch_all_at_temperature(
        &mut self,
        aging: &AgingModel,
        temps: &[f64],
        energy: &mut [f64],
        busy: &mut [f64],
        dt: f64,
    ) -> EpochWear {
        assert_eq!(temps.len(), self.cores.len(), "one temperature per core");
        assert_eq!(energy.len(), self.cores.len(), "one energy per core");
        assert_eq!(busy.len(), self.cores.len(), "one busy time per core");
        assert!(dt >= 0.0, "time must be non-negative");
        let arrhenius = aging.arrhenius();
        let mut memo = LastEval::new();
        let mut utilization = UTILIZATION_SUM_START;
        let cores = self.cores.iter_mut().zip(temps).zip(energy).zip(busy);
        for (((c, &temperature), e), b) in cores {
            let busy = (*b / dt).clamp(0.0, 1.0);
            assert_busy_fraction(busy);
            let damage =
                memo.get_or_eval(temperature, |t| aging.base_rate * arrhenius.at(t) * dt);
            Self::charge_epoch(c, damage, busy);
            *b = 0.0;
            *e = 0.0;
            utilization += c.utilization;
        }
        EpochWear {
            max_damage: aging.base_rate * arrhenius.at(memo.max_input) * dt,
            mean_utilization: utilization / self.cores.len() as f64,
            max_input: memo.max_input,
        }
    }

    /// Marks a completed test on `core` at time `now` (seconds): the
    /// since-test damage resets and the test time is recorded.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn note_test_complete(&mut self, core: usize, now: f64) {
        let c = &mut self.cores[core];
        c.damage_since_test = 0.0;
        c.last_test_time = now;
    }

    /// Read-only view of one core's state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &CoreStress {
        &self.cores[core]
    }

    /// Iterates over all cores' states in index order.
    pub fn iter(&self) -> impl Iterator<Item = &CoreStress> {
        self.cores.iter()
    }

    /// Mean utilisation over all cores.
    pub fn mean_utilization(&self) -> f64 {
        self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
    }
}

/// The value `Iterator::sum` starts an `f64` sum from, so the wear
/// passes' fused sum is bit for bit [`StressTracker::mean_utilization`]'s.
const UTILIZATION_SUM_START: f64 = -0.0;

fn assert_busy_fraction(busy: f64) {
    assert!((0.0..=1.0).contains(&busy), "busy fraction must be in [0,1]");
}

/// Direct-mapped memo of the steady-state wear pass's damage, keyed by
/// the power's exact bits: a hit returns the bits the evaluation it skips
/// would return. An input probes only its own slot, and each slot starts
/// out holding a key that hashes to another slot ([`Self::EMPTY`]), so
/// no input can match an empty slot. Only inputs the function accepted
/// are stored: an input it rejects (a negative or NaN power) always
/// reaches it and panics. It keeps the largest input it evaluated; a hit
/// repeats a stored input, so the maximum covers every input it was
/// asked for. It lives on the stack for one pass.
struct DamageCache {
    keys: [u64; Self::SLOTS],
    damages: [f64; Self::SLOTS],
    max_input: f64,
}

impl DamageCache {
    /// Slots, a power of two. On saturated 12×12 to 16×16 meshes an
    /// epoch holds 19–25 distinct powers on average.
    const SLOTS: usize = 64;

    /// Each slot's empty key. Every key is `0` (the bits of `+0.0`),
    /// which hashes to slot 0, except slot 0's, which is `1`, and `1`
    /// hashes elsewhere.
    const EMPTY: [u64; Self::SLOTS] = {
        assert!(Self::slot(1) != Self::slot(0));
        let mut keys = [0; Self::SLOTS];
        keys[Self::slot(0)] = 1;
        keys
    };

    /// Fibonacci hashing: the top bits of the key times 2⁶⁴/φ, which
    /// depend on every bit of the key.
    const fn slot(bits: u64) -> usize {
        (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - Self::SLOTS.trailing_zeros()))
            as usize
    }

    fn new() -> Self {
        DamageCache {
            keys: Self::EMPTY,
            damages: [0.0; Self::SLOTS],
            max_input: f64::NEG_INFINITY,
        }
    }

    fn get_or_eval(&mut self, x: f64, f: impl FnOnce(f64) -> f64) -> f64 {
        let bits = x.to_bits();
        let slot = Self::slot(bits);
        if self.keys[slot] == bits {
            return self.damages[slot];
        }
        let y = f(x);
        self.keys[slot] = bits;
        self.damages[slot] = y;
        self.max_input = self.max_input.max(x);
        y
    }
}

/// One-entry memo of the transient wear pass's damage, keyed by the
/// temperature's exact bits. It starts empty, so no sentinel input can
/// match, and it only ever holds inputs the function accepted: an input
/// the function rejects (a temperature that is not positive) always
/// reaches it and panics. It also keeps the largest input it evaluated,
/// which only a miss can raise.
struct LastEval {
    last: Option<(u64, f64)>,
    max_input: f64,
}

impl LastEval {
    fn new() -> Self {
        LastEval {
            last: None,
            max_input: f64::NEG_INFINITY,
        }
    }

    fn get_or_eval(&mut self, x: f64, f: impl FnOnce(f64) -> f64) -> f64 {
        match self.last {
            Some((bits, y)) if bits == x.to_bits() => y,
            _ => {
                let y = f(x);
                self.last = Some((x.to_bits(), y));
                self.max_input = self.max_input.max(x);
                y
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::SimRng;

    fn tracker() -> (AgingModel, StressTracker) {
        (AgingModel::default(), StressTracker::new(4))
    }

    #[test]
    fn damage_accumulates_per_core() {
        let (aging, mut t) = tracker();
        for _ in 0..10 {
            t.record_epoch(0, &aging, 1.0, 1.0, 0.001);
        }
        t.record_epoch(1, &aging, 1.0, 1.0, 0.001);
        assert!(t.core(0).total_damage > t.core(1).total_damage);
        assert_eq!(t.core(2).total_damage, 0.0);
    }

    #[test]
    fn utilization_ema_converges() {
        let (aging, mut t) = tracker();
        for _ in 0..200 {
            t.record_epoch(0, &aging, 0.5, 1.0, 0.001);
        }
        assert!((t.core(0).utilization - 1.0).abs() < 1e-6);
        for _ in 0..200 {
            t.record_epoch(0, &aging, 0.0, 0.0, 0.001);
        }
        assert!(t.core(0).utilization < 1e-6);
    }

    #[test]
    fn test_completion_resets_since_test_damage_only() {
        let (aging, mut t) = tracker();
        for _ in 0..5 {
            t.record_epoch(0, &aging, 1.0, 1.0, 0.001);
        }
        let total_before = t.core(0).total_damage;
        assert!(t.core(0).damage_since_test > 0.0);
        t.note_test_complete(0, 0.005);
        assert_eq!(t.core(0).damage_since_test, 0.0);
        assert_eq!(t.core(0).total_damage, total_before);
        assert_eq!(t.core(0).last_test_time, 0.005);
    }

    #[test]
    fn time_since_test_handles_never_tested() {
        let c = CoreStress::default();
        assert_eq!(c.time_since_test(3.0), 3.0);
        let mut c2 = c;
        c2.last_test_time = 2.0;
        assert_eq!(c2.time_since_test(3.0), 1.0);
        assert_eq!(c2.time_since_test(1.0), 0.0); // clock shear is clamped
    }

    #[test]
    fn mean_utilization_averages() {
        let (aging, mut t) = tracker();
        // Single epoch with alpha 0.1: util = 0.1 on one of four cores.
        t.record_epoch(0, &aging, 0.0, 1.0, 0.001);
        assert!((t.mean_utilization() - 0.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "busy fraction")]
    fn invalid_busy_panics() {
        let (aging, mut t) = tracker();
        t.record_epoch(0, &aging, 0.0, 1.5, 0.001);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        StressTracker::new(0);
    }

    #[test]
    fn iter_visits_all_cores() {
        let (_, t) = tracker();
        assert_eq!(t.iter().count(), 4);
    }

    const DT: f64 = 0.001;

    /// The accumulator patterns the wear-pass oracles draw epochs from.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Mostly gated cores at exactly `+0.0`, a few repeated
        /// wattages, continuous values, and busy times at 0, inside the
        /// epoch and past it.
        Mixed,
        /// Every accumulator `+0.0`: a fully dark epoch.
        Dark,
        /// `+0.0` and `-0.0` side by side, in energies and busy times:
        /// the gated fast path keys on bits, so `-0.0` takes the memo,
        /// and a `+0.0` energy beside a nonzero busy time is a `+0.0`
        /// power on a core that is not gated.
        SignedZeros,
        /// Powers drawn in random order from three times as many
        /// distinct values as the steady pass's cache has slots.
        Distinct,
        /// Powers drawn in random order from four values that share
        /// one cache slot, so each evicts the others.
        Colliding,
    }

    impl Shape {
        fn of_epoch(epoch: usize) -> Self {
            match epoch % 7 {
                1 => Shape::Dark,
                3 => Shape::SignedZeros,
                4 => Shape::Distinct,
                6 => Shape::Colliding,
                _ => Shape::Mixed,
            }
        }
    }

    /// Per-core accumulators for one epoch of the given shape.
    fn random_epoch(rng: &mut SimRng, n: usize, shape: Shape) -> (Vec<f64>, Vec<f64>) {
        let wattages = [0.35, 1.2, 2.5];
        match shape {
            Shape::Mixed => (
                (0..n)
                    .map(|_| match rng.gen_range(10) {
                        0..=5 => 0.0,
                        6 | 7 => wattages[rng.gen_range(3) as usize] * DT,
                        _ => rng.gen_f64_range(0.0, 3.0) * DT,
                    })
                    .collect(),
                (0..n)
                    .map(|_| match rng.gen_range(3) {
                        0 => 0.0,
                        1 => rng.gen_f64_range(0.0, DT),
                        _ => rng.gen_f64_range(DT, 2.0 * DT),
                    })
                    .collect(),
            ),
            Shape::Dark => (vec![0.0; n], vec![0.0; n]),
            Shape::SignedZeros => {
                let zero_or = |rng: &mut SimRng, v: f64| match rng.gen_range(4) {
                    0 => 0.0,
                    1 | 2 => -0.0,
                    _ => v,
                };
                let energy = (0..n).map(|_| zero_or(rng, 1.2 * DT)).collect();
                let busy = (0..n).map(|_| zero_or(rng, 0.5 * DT)).collect();
                (energy, busy)
            }
            Shape::Distinct | Shape::Colliding => {
                let (size, slot) = match shape {
                    Shape::Distinct => (3 * DamageCache::SLOTS, None),
                    _ => (4, Some(rng.gen_range(DamageCache::SLOTS as u64) as usize)),
                };
                let mut pool = Vec::with_capacity(size);
                while pool.len() < size {
                    let e = rng.gen_f64_range(0.0, 3.0) * DT;
                    if slot.is_none_or(|s| DamageCache::slot((e / DT).to_bits()) == s) {
                        pool.push(e);
                    }
                }
                let energy = (0..n)
                    .map(|_| pool[rng.gen_range(size as u64) as usize])
                    .collect();
                let busy = (0..n).map(|_| rng.gen_f64_range(0.0, 2.0 * DT)).collect();
                (energy, busy)
            }
        }
    }

    /// What an epoch's accumulators put the steady pass's cache through:
    /// the distinct powers it probes, the probes that find their slot
    /// taken by another power they evicted earlier, and the `+0.0` and
    /// `-0.0` powers of cores that are not gated.
    #[derive(Default)]
    struct CacheLoad {
        distinct: usize,
        evicted_repeats: usize,
        zero_powers: [usize; 2],
    }

    fn cache_load(energy: &[f64], busy: &[f64]) -> CacheLoad {
        let mut load = CacheLoad::default();
        let mut seen = std::collections::BTreeSet::new();
        let mut slots = [None; DamageCache::SLOTS];
        for (&e, &b) in energy.iter().zip(busy) {
            if (e.to_bits() | b.to_bits()) == 0 {
                continue;
            }
            let bits = (e / DT).to_bits();
            let slot = &mut slots[DamageCache::slot(bits)];
            if !seen.insert(bits) && *slot != Some(bits) {
                load.evicted_repeats += 1;
            }
            *slot = Some(bits);
            if (e / DT) == 0.0 {
                load.zero_powers[usize::from(e.is_sign_negative())] += 1;
            }
        }
        load.distinct = seen.len();
        load
    }

    fn state_bits(t: &StressTracker) -> Vec<[u64; 4]> {
        t.iter()
            .map(|c| {
                [
                    c.total_damage.to_bits(),
                    c.damage_since_test.to_bits(),
                    c.utilization.to_bits(),
                    c.last_test_time.to_bits(),
                ]
            })
            .collect()
    }

    #[test]
    fn record_epoch_all_matches_per_core_loop() {
        let mut rng = SimRng::seed_from(2024);
        // A base rate other than 1 makes the damage product's order show.
        let models = [
            AgingModel::default(),
            AgingModel {
                base_rate: 0.37,
                activation_energy: 0.55,
                ..AgingModel::default()
            },
        ];
        let mut most_distinct = 0;
        let mut evicted_repeats = 0;
        let mut zero_powers = [0; 2];
        let sizes = [1, 2, 7, 64, 333, 4096];
        for (aging, n) in models.iter().flat_map(|m| sizes.map(|n| (m, n))) {
            let mut fast = StressTracker::new(n);
            let mut slow = fast.clone();
            for epoch in 0..20 {
                let shape = Shape::of_epoch(epoch);
                let (mut energy, mut busy) = random_epoch(&mut rng, n, shape);
                let load = cache_load(&energy, &busy);
                most_distinct = most_distinct.max(load.distinct);
                evicted_repeats += load.evicted_repeats;
                zero_powers[0] += load.zero_powers[0];
                zero_powers[1] += load.zero_powers[1];
                let mut largest = 0.0f64;
                let mut hottest = f64::NEG_INFINITY;
                for core in 0..n {
                    let b = (busy[core] / DT).clamp(0.0, 1.0);
                    slow.record_epoch(core, aging, energy[core] / DT, b, DT);
                    largest = largest.max(aging.damage(energy[core] / DT, DT));
                    hottest = hottest.max(energy[core] / DT);
                }
                let wear = fast.record_epoch_all(aging, &mut energy, &mut busy, DT);
                let at = format!("rate {}, n {n}, epoch {epoch} ({shape:?})", aging.base_rate);
                assert_eq!(state_bits(&fast), state_bits(&slow), "{at}");
                assert_eq!(wear.max_damage.to_bits(), largest.to_bits(), "{at}");
                assert_eq!(
                    wear.mean_utilization.to_bits(),
                    slow.mean_utilization().to_bits(),
                    "{at}"
                );
                // Compared as values: a pass may see `-0.0` and
                // `+0.0` powers in either order.
                assert_eq!(wear.max_input, hottest, "{at}");
                assert!(energy.iter().chain(&busy).all(|v| v.to_bits() == 0));
                if epoch % 7 == 3 {
                    let core = rng.gen_range(n as u64) as usize;
                    fast.note_test_complete(core, epoch as f64 * DT);
                    slow.note_test_complete(core, epoch as f64 * DT);
                }
            }
        }
        assert!(most_distinct > DamageCache::SLOTS, "{most_distinct} powers");
        assert!(evicted_repeats > 0, "no power came back to a slot it lost");
        assert!(zero_powers.iter().all(|&z| z > 0), "±0 W {zero_powers:?}");
    }

    #[test]
    fn no_input_matches_an_empty_slot() {
        for (slot, &key) in DamageCache::EMPTY.iter().enumerate() {
            assert_ne!(DamageCache::slot(key), slot, "slot {slot}'s empty key");
        }
    }

    #[test]
    fn record_epoch_all_at_temperature_matches_per_core_loop() {
        let mut rng = SimRng::seed_from(2025);
        let aging = AgingModel::default();
        for n in [1, 2, 7, 64, 333, 4096] {
            let mut fast = StressTracker::new(n);
            let mut slow = fast.clone();
            for epoch in 0..20 {
                let shape = Shape::of_epoch(epoch);
                let (mut energy, mut busy) = random_epoch(&mut rng, n, shape);
                let temps: Vec<f64> = (0..n)
                    .map(|_| match (shape, rng.gen_range(4)) {
                        (Shape::Dark, _) | (_, 0 | 1) => aging.t_ambient,
                        (_, 2) => [330.0, 345.5][rng.gen_range(2) as usize],
                        _ => rng.gen_f64_range(300.0, 400.0),
                    })
                    .collect();
                let mut largest = 0.0f64;
                for core in 0..n {
                    let b = (busy[core] / DT).clamp(0.0, 1.0);
                    slow.record_epoch_at_temperature(core, &aging, temps[core], b, DT);
                    let damage = aging.base_rate * aging.acceleration_at(temps[core]) * DT;
                    largest = largest.max(damage);
                }
                let wear = fast.record_epoch_all_at_temperature(
                    &aging,
                    &temps,
                    &mut energy,
                    &mut busy,
                    DT,
                );
                let at = format!("n {n}, epoch {epoch} ({shape:?})");
                let hottest = temps.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                assert_eq!(state_bits(&fast), state_bits(&slow), "{at}");
                assert_eq!(wear.max_damage.to_bits(), largest.to_bits(), "{at}");
                assert_eq!(
                    wear.mean_utilization.to_bits(),
                    slow.mean_utilization().to_bits(),
                    "{at}"
                );
                assert_eq!(wear.max_input.to_bits(), hottest.to_bits(), "{at}");
                assert!(energy.iter().chain(&busy).all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "busy fraction")]
    fn record_epoch_all_zero_dt_panics_on_busy_fraction() {
        // `dt = 0` skips the gated fast path: `0 / 0` is NaN, as before.
        let mut t = StressTracker::new(4);
        t.record_epoch_all(&AgingModel::default(), &mut [0.0; 4], &mut [0.0; 4], 0.0);
    }

    #[test]
    #[should_panic(expected = "busy fraction")]
    fn record_epoch_all_at_temperature_zero_dt_panics_on_busy_fraction() {
        let mut t = StressTracker::new(2);
        t.record_epoch_all_at_temperature(
            &AgingModel::default(),
            &[320.0; 2],
            &mut [0.0; 2],
            &mut [0.0; 2],
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_energy_after_memo_hits_panics() {
        let mut t = StressTracker::new(4);
        let mut energy = [0.0, 0.0, 0.0, -1e-3];
        t.record_epoch_all(&AgingModel::default(), &mut energy, &mut [0.0; 4], DT);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn nan_energy_after_memo_hits_panics() {
        let mut t = StressTracker::new(4);
        let mut energy = [1e-3, 1e-3, 1e-3, f64::NAN];
        t.record_epoch_all(&AgingModel::default(), &mut energy, &mut [0.0; 4], DT);
    }

    #[test]
    #[should_panic(expected = "absolute temperature must be positive")]
    fn nan_temperature_after_memo_hits_panics() {
        let mut t = StressTracker::new(3);
        let temps = [320.0, 320.0, f64::NAN];
        t.record_epoch_all_at_temperature(
            &AgingModel::default(),
            &temps,
            &mut [0.0; 3],
            &mut [0.0; 3],
            DT,
        );
    }
}
