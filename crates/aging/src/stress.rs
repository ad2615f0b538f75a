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
    /// Number of completed tests.
    pub tests_completed: u64,
    /// Portion of `total_damage` that can still heal (NBTI recovery);
    /// zero unless the aging model enables recovery.
    pub recoverable_damage: f64,
}

impl Default for CoreStress {
    fn default() -> Self {
        CoreStress {
            total_damage: 0.0,
            damage_since_test: 0.0,
            utilization: 0.0,
            last_test_time: -1.0,
            tests_completed: 0,
            recoverable_damage: 0.0,
        }
    }
}

impl CoreStress {
    /// Seconds since the last completed test, treating "never tested" as
    /// since time zero.
    pub fn time_since_test(&self, now: f64) -> f64 {
        if self.last_test_time < 0.0 {
            now
        } else {
            (now - self.last_test_time).max(0.0)
        }
    }
}

/// Stress bookkeeping for a fixed population of cores.
///
/// # Examples
///
/// ```
/// use manytest_aging::prelude::*;
///
/// let aging = AgingModel::default();
/// let mut tracker = StressTracker::new(4, 0.1);
/// tracker.record_epoch(0, &aging, 1.5, 1.0, 0.001);
/// tracker.record_epoch(1, &aging, 0.0, 0.0, 0.001);
/// assert!(tracker.core(0).total_damage > tracker.core(1).total_damage);
/// assert!(tracker.core(0).utilization > tracker.core(1).utilization);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StressTracker {
    cores: Vec<CoreStress>,
    ema_alpha: f64,
}

impl StressTracker {
    /// Creates a tracker for `core_count` cores with utilisation EMA
    /// smoothing factor `ema_alpha` (weight of the newest epoch).
    ///
    /// # Panics
    ///
    /// Panics if `core_count` is zero or `ema_alpha` is outside `(0, 1]`.
    pub fn new(core_count: usize, ema_alpha: f64) -> Self {
        assert!(core_count > 0, "need at least one core");
        assert!(
            ema_alpha > 0.0 && ema_alpha <= 1.0,
            "EMA alpha must be in (0,1]"
        );
        StressTracker {
            cores: vec![CoreStress::default(); core_count],
            ema_alpha,
        }
    }

    /// Number of tracked cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Records one epoch of operation for `core`: it drew `power` watts and
    /// was busy for fraction `busy` of the epoch of length `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `busy` is outside `[0, 1]`.
    pub fn record_epoch(
        &mut self,
        core: usize,
        aging: &AgingModel,
        power: f64,
        busy: f64,
        dt: f64,
    ) {
        assert_busy_fraction(busy);
        let damage = aging.damage(power, dt);
        Self::charge_epoch(&mut self.cores[core], aging, self.ema_alpha, damage, power, busy, dt);
    }

    /// Records one epoch for every core from its raw accumulators, then
    /// zeroes them: core `i` drew `energy[i]` joules and was busy for
    /// `busy[i]` seconds of the epoch of length `dt`. Bit for bit the
    /// same as calling [`Self::record_epoch`] in core order with power
    /// `energy[i] / dt` and busy fraction `(busy[i] / dt).clamp(0, 1)`.
    ///
    /// Power-gated cores draw exactly 0 W, so runs of cores share one
    /// power: the pass evaluates [`AgingModel::damage`] (one `exp`) only
    /// when a core's power bits differ from the previous evaluation's.
    ///
    /// Returns the largest damage charged to any core, before NBTI
    /// recovery: no core's `damage_since_test` grew by more this epoch.
    /// Damage rises with power, so it is evaluated once more, at the
    /// highest power the memo evaluated (a hit repeats the previous
    /// power). A running maximum of the damages themselves slowed the
    /// per-core loop measurably.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from the core count, or if a
    /// power is negative or NaN (with [`AgingModel::damage`]'s message).
    pub fn record_epoch_all(
        &mut self,
        aging: &AgingModel,
        energy: &mut [f64],
        busy: &mut [f64],
        dt: f64,
    ) -> f64 {
        assert_eq!(energy.len(), self.cores.len(), "one energy per core");
        assert_eq!(busy.len(), self.cores.len(), "one busy time per core");
        let mut memo = LastEval::new();
        for ((c, e), b) in self.cores.iter_mut().zip(energy).zip(busy) {
            let busy = (*b / dt).clamp(0.0, 1.0);
            let power = *e / dt;
            assert_busy_fraction(busy);
            let damage = memo.get_or_eval(power, |p| aging.damage(p, dt));
            Self::charge_epoch(c, aging, self.ema_alpha, damage, power, busy, dt);
            *b = 0.0;
            *e = 0.0;
        }
        aging.damage(memo.max_input, dt)
    }

    /// Charges one epoch's `damage` to `c` and folds `busy` into its
    /// utilisation average. When the aging model enables NBTI recovery,
    /// part of the recoverable pool heals if `power` is below the idle
    /// threshold.
    fn charge_epoch(
        c: &mut CoreStress,
        aging: &AgingModel,
        ema_alpha: f64,
        damage: f64,
        power: f64,
        busy: f64,
        dt: f64,
    ) {
        c.total_damage += damage;
        c.damage_since_test += damage;
        if let Some(rec) = aging.recovery {
            c.recoverable_damage += damage * rec.recoverable_fraction;
            if power < rec.idle_power_threshold {
                let healed =
                    c.recoverable_damage * (1.0 - (-dt / rec.time_constant).exp());
                c.recoverable_damage -= healed;
                c.total_damage = (c.total_damage - healed).max(0.0);
                c.damage_since_test = (c.damage_since_test - healed).max(0.0);
            }
        }
        c.utilization = (1.0 - ema_alpha) * c.utilization + ema_alpha * busy;
    }

    /// Records one epoch like [`Self::record_epoch`], but with the
    /// temperature supplied directly (e.g. from the transient
    /// [`crate::thermal::ThermalGrid`]) instead of the steady-state proxy.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `busy` is outside `[0, 1]`.
    pub fn record_epoch_at_temperature(
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
        let power = idle_power_proxy(busy);
        Self::charge_epoch(&mut self.cores[core], aging, self.ema_alpha, damage, power, busy, dt);
    }

    /// [`Self::record_epoch_all`] for the transient thermal path: core
    /// `i` sat at `temps[i]` kelvin. Bit for bit the same as calling
    /// [`Self::record_epoch_at_temperature`] in core order, with one
    /// Arrhenius evaluation per change of temperature bits. Returns the
    /// largest damage charged to any core, as [`Self::record_epoch_all`]
    /// does: the damage at the highest temperature.
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
    ) -> f64 {
        assert_eq!(temps.len(), self.cores.len(), "one temperature per core");
        assert_eq!(energy.len(), self.cores.len(), "one energy per core");
        assert_eq!(busy.len(), self.cores.len(), "one busy time per core");
        assert!(dt >= 0.0, "time must be non-negative");
        let arrhenius = aging.arrhenius();
        let mut memo = LastEval::new();
        let cores = self.cores.iter_mut().zip(temps).zip(energy).zip(busy);
        for (((c, &temperature), e), b) in cores {
            let busy = (*b / dt).clamp(0.0, 1.0);
            assert_busy_fraction(busy);
            let damage =
                memo.get_or_eval(temperature, |t| aging.base_rate * arrhenius.at(t) * dt);
            let power = idle_power_proxy(busy);
            Self::charge_epoch(c, aging, self.ema_alpha, damage, power, busy, dt);
            *b = 0.0;
            *e = 0.0;
        }
        aging.base_rate * arrhenius.at(memo.max_input) * dt
    }

    /// Marks a completed test on `core` at time `now` (seconds): the
    /// since-test damage resets, the test counter increments.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn note_test_complete(&mut self, core: usize, now: f64) {
        let c = &mut self.cores[core];
        c.damage_since_test = 0.0;
        c.last_test_time = now;
        c.tests_completed += 1;
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

    /// The core with the highest lifetime damage.
    pub fn most_worn(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.total_damage
                    .partial_cmp(&b.total_damage)
                    .expect("damage is never NaN")
            })
            .map(|(i, _)| i)
            .expect("tracker has at least one core")
    }

    /// Mean utilisation over all cores.
    pub fn mean_utilization(&self) -> f64 {
        self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
    }
}

fn assert_busy_fraction(busy: f64) {
    assert!((0.0..=1.0).contains(&busy), "busy fraction must be in [0,1]");
}

/// Recovery keys off power; the temperature path approximates
/// "unstressed" as `busy == 0` by translating idleness into a nominal
/// power below any plausible threshold.
fn idle_power_proxy(busy: f64) -> f64 {
    if busy == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// One-entry memo of a pure `f64 → f64` function, keyed by the input's
/// exact bits. It starts empty, so no sentinel input can match, and it
/// only ever holds inputs the function accepted: an input the function
/// rejects (a negative or NaN power) always reaches it and panics. It
/// also keeps the largest input it evaluated, which only a miss can
/// raise.
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
    use crate::model::RecoveryParams;
    use manytest_sim::SimRng;

    fn tracker() -> (AgingModel, StressTracker) {
        (AgingModel::default(), StressTracker::new(4, 0.2))
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
        for _ in 0..100 {
            t.record_epoch(0, &aging, 0.5, 1.0, 0.001);
        }
        assert!((t.core(0).utilization - 1.0).abs() < 1e-6);
        for _ in 0..100 {
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
        assert_eq!(t.core(0).tests_completed, 1);
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
    fn most_worn_finds_hot_core() {
        let (aging, mut t) = tracker();
        t.record_epoch(2, &aging, 2.0, 1.0, 0.01);
        t.record_epoch(1, &aging, 0.5, 1.0, 0.01);
        assert_eq!(t.most_worn(), 2);
    }

    #[test]
    fn mean_utilization_averages() {
        let (aging, mut t) = tracker();
        // Single epoch with alpha 0.2: util = 0.2 on one of four cores.
        t.record_epoch(0, &aging, 0.0, 1.0, 0.001);
        assert!((t.mean_utilization() - 0.05).abs() < 1e-12);
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
        StressTracker::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "EMA alpha")]
    fn bad_alpha_panics() {
        StressTracker::new(1, 0.0);
    }

    #[test]
    fn recovery_heals_idle_cores_only() {
        let aging = AgingModel::default().with_recovery(RecoveryParams::default());
        let mut t = StressTracker::new(2, 0.2);
        // Both cores accumulate identical stress while busy.
        for _ in 0..100 {
            t.record_epoch(0, &aging, 1.0, 1.0, 0.001);
            t.record_epoch(1, &aging, 1.0, 1.0, 0.001);
        }
        let loaded = t.core(0).total_damage;
        let pool_after_load = t.core(0).recoverable_damage;
        assert!(pool_after_load > 0.0);
        // Core 0 rests (power-gated); core 1 keeps working.
        for _ in 0..500 {
            t.record_epoch(0, &aging, 0.0, 0.0, 0.001);
            t.record_epoch(1, &aging, 1.0, 1.0, 0.001);
        }
        // The rested core healed: its damage grew by less than the idle
        // wear it accrued (healing offset part of it)...
        let idle_wear = aging.damage(0.0, 0.5);
        assert!(t.core(0).total_damage < loaded + idle_wear);
        // ...and far less than the still-working core.
        assert!(t.core(1).total_damage > t.core(0).total_damage + 0.5 * idle_wear);
        // The recoverable pool drains towards its idle equilibrium.
        assert!(t.core(0).recoverable_damage < 0.5 * pool_after_load);
    }

    #[test]
    fn no_recovery_without_opt_in() {
        let aging = AgingModel::default();
        let mut t = StressTracker::new(1, 0.2);
        for _ in 0..50 {
            t.record_epoch(0, &aging, 1.0, 1.0, 0.001);
        }
        let peak = t.core(0).total_damage;
        for _ in 0..50 {
            t.record_epoch(0, &aging, 0.0, 0.0, 0.001);
        }
        assert!(t.core(0).total_damage >= peak, "permanent damage never heals");
        assert_eq!(t.core(0).recoverable_damage, 0.0);
    }

    #[test]
    fn iter_visits_all_cores() {
        let (_, t) = tracker();
        assert_eq!(t.iter().count(), 4);
        assert_eq!(t.core_count(), 4);
    }

    const DT: f64 = 0.001;

    fn models() -> [AgingModel; 2] {
        let plain = AgingModel::default();
        [plain, plain.with_recovery(RecoveryParams::default())]
    }

    /// Per-core accumulators shaped like a dark-silicon epoch: mostly
    /// gated cores at exactly 0 J, a few repeated wattages, continuous
    /// values, and busy times at 0, inside the epoch and past it.
    fn random_epoch(rng: &mut SimRng, n: usize) -> (Vec<f64>, Vec<f64>) {
        let wattages = [0.35, 1.2, 2.5];
        let energy = (0..n)
            .map(|_| match rng.gen_range(10) {
                0..=5 => 0.0,
                6 | 7 => *rng.choose(&wattages).expect("non-empty") * DT,
                _ => rng.gen_f64_range(0.0, 3.0) * DT,
            })
            .collect();
        let busy = (0..n)
            .map(|_| match rng.gen_range(3) {
                0 => 0.0,
                1 => rng.gen_f64_range(0.0, DT),
                _ => rng.gen_f64_range(DT, 2.0 * DT),
            })
            .collect();
        (energy, busy)
    }

    fn state_bits(t: &StressTracker) -> Vec<[u64; 6]> {
        t.iter()
            .map(|c| {
                [
                    c.total_damage.to_bits(),
                    c.damage_since_test.to_bits(),
                    c.utilization.to_bits(),
                    c.last_test_time.to_bits(),
                    c.tests_completed,
                    c.recoverable_damage.to_bits(),
                ]
            })
            .collect()
    }

    #[test]
    fn record_epoch_all_matches_per_core_loop() {
        let mut rng = SimRng::seed_from(2024);
        for aging in models() {
            for n in [1, 2, 7, 64, 333] {
                let mut fast = StressTracker::new(n, 0.1);
                let mut slow = fast.clone();
                for epoch in 0..20 {
                    let (mut energy, mut busy) = random_epoch(&mut rng, n);
                    let mut largest = 0.0f64;
                    for core in 0..n {
                        let b = (busy[core] / DT).clamp(0.0, 1.0);
                        slow.record_epoch(core, &aging, energy[core] / DT, b, DT);
                        largest = largest.max(aging.damage(energy[core] / DT, DT));
                    }
                    let max = fast.record_epoch_all(&aging, &mut energy, &mut busy, DT);
                    assert_eq!(state_bits(&fast), state_bits(&slow), "n {n}, epoch {epoch}");
                    assert_eq!(max.to_bits(), largest.to_bits(), "n {n}, epoch {epoch}");
                    assert!(energy.iter().chain(&busy).all(|v| v.to_bits() == 0));
                    if epoch % 7 == 3 {
                        let core = rng.gen_range(n as u64) as usize;
                        fast.note_test_complete(core, epoch as f64 * DT);
                        slow.note_test_complete(core, epoch as f64 * DT);
                    }
                }
            }
        }
    }

    #[test]
    fn record_epoch_all_at_temperature_matches_per_core_loop() {
        let mut rng = SimRng::seed_from(2025);
        for aging in models() {
            for n in [1, 2, 7, 64, 333] {
                let mut fast = StressTracker::new(n, 0.1);
                let mut slow = fast.clone();
                for epoch in 0..20 {
                    let (mut energy, mut busy) = random_epoch(&mut rng, n);
                    let temps: Vec<f64> = (0..n)
                        .map(|_| match rng.gen_range(4) {
                            0 | 1 => aging.t_ambient,
                            2 => *rng.choose(&[330.0, 345.5]).expect("non-empty"),
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
                    let max = fast.record_epoch_all_at_temperature(
                        &aging,
                        &temps,
                        &mut energy,
                        &mut busy,
                        DT,
                    );
                    assert_eq!(state_bits(&fast), state_bits(&slow), "n {n}, epoch {epoch}");
                    assert_eq!(max.to_bits(), largest.to_bits(), "n {n}, epoch {epoch}");
                    assert!(energy.iter().chain(&busy).all(|v| v.to_bits() == 0));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_energy_after_memo_hits_panics() {
        let mut t = StressTracker::new(4, 0.1);
        let mut energy = [0.0, 0.0, 0.0, -1e-3];
        t.record_epoch_all(&AgingModel::default(), &mut energy, &mut [0.0; 4], DT);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn nan_energy_after_memo_hits_panics() {
        let mut t = StressTracker::new(4, 0.1);
        let mut energy = [1e-3, 1e-3, 1e-3, f64::NAN];
        t.record_epoch_all(&AgingModel::default(), &mut energy, &mut [0.0; 4], DT);
    }

    #[test]
    #[should_panic(expected = "absolute temperature must be positive")]
    fn nan_temperature_after_memo_hits_panics() {
        let mut t = StressTracker::new(3, 0.1);
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
