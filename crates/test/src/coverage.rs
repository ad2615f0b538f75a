//! Per-core, per-V/f-level test coverage ledger.
//!
//! The journal version emphasises that tests must eventually run at *every*
//! voltage/frequency level: circuit timing faults can be V/f dependent, so
//! a core tested only at nominal V/f may still harbour near-threshold
//! faults. [`VfCoverageLedger`] records completed routine runs per
//! `(core, level)` and drives the level-rotation policy of the scheduler.

use manytest_power::VfLevel;
use serde::{Deserialize, Serialize};

/// Completed-test bookkeeping per core and DVFS level.
///
/// # Examples
///
/// ```
/// use manytest_sbst::coverage::VfCoverageLedger;
/// use manytest_power::VfLevel;
///
/// let mut ledger = VfCoverageLedger::new(4, 3);
/// ledger.record(0, VfLevel(1));
/// assert_eq!(ledger.tests_at(0, VfLevel(1)), 1);
/// // Rotation points at the least-tested level next.
/// assert_ne!(ledger.next_level_staggered(0), VfLevel(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfCoverageLedger {
    cores: usize,
    levels: usize,
    counts: Vec<u64>, // cores × levels, row-major per core
}

impl VfCoverageLedger {
    /// Creates an empty ledger for `cores` cores and `levels` DVFS levels.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cores: usize, levels: usize) -> Self {
        assert!(cores > 0 && levels > 0, "dimensions must be positive");
        VfCoverageLedger {
            cores,
            levels,
            counts: vec![0; cores * levels],
        }
    }

    #[inline]
    fn idx(&self, core: usize, level: VfLevel) -> usize {
        assert!(core < self.cores, "core {core} out of range");
        assert!(
            (level.0 as usize) < self.levels,
            "level {} out of range",
            level.0
        );
        core * self.levels + level.0 as usize
    }

    /// Number of tracked levels.
    pub fn level_count(&self) -> usize {
        self.levels
    }

    /// Records one completed routine on `core` at `level`.
    #[inline]
    pub fn record(&mut self, core: usize, level: VfLevel) {
        let i = self.idx(core, level);
        self.counts[i] += 1;
    }

    /// Completed routines on `core` at `level`.
    #[inline]
    pub fn tests_at(&self, core: usize, level: VfLevel) -> u64 {
        self.counts[self.idx(core, level)]
    }

    /// Total completed routines on `core` over all levels.
    pub fn tests_on_core(&self, core: usize) -> u64 {
        (0..self.levels)
            .map(|l| self.tests_at(core, VfLevel(l as u8)))
            .sum()
    }

    /// Total completed routines per level over all cores.
    pub fn tests_per_level(&self) -> Vec<u64> {
        (0..self.levels)
            .map(|l| {
                (0..self.cores)
                    .map(|c| self.tests_at(c, VfLevel(l as u8)))
                    .sum()
            })
            .collect()
    }

    /// The level `core` should test at next: its least-tested level,
    /// implementing round-robin V/f coverage. Ties among equally-tested
    /// levels are broken by cyclic distance from `core % levels`.
    /// Staggering each core's starting level spreads the
    /// population's first tests across the whole ladder, so even short
    /// runs exercise every V/f level somewhere on the die.
    ///
    /// The walk visits the levels in order of cyclic distance from the
    /// offset and keeps the first strictly smaller count: the least count
    /// at the least distance, which is the least `(count, distance)` key.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn next_level_staggered(&self, core: usize) -> VfLevel {
        let levels = self.levels;
        let row = &self.counts[core * levels..][..levels];
        let mut level = core % levels;
        let (mut best, mut fewest) = (level, row[level]);
        for _ in 1..levels {
            level = if level + 1 == levels { 0 } else { level + 1 };
            if row[level] < fewest {
                (best, fewest) = (level, row[level]);
            }
        }
        VfLevel(best as u8)
    }

    /// [`Self::next_level_staggered`] as it was written first: one `%`
    /// per level and a `min_by_key` over `(count, distance)`. The oracle
    /// for the walk.
    #[cfg(test)]
    pub(crate) fn next_level_staggered_reference(&self, core: usize) -> VfLevel {
        let offset = core % self.levels;
        (0..self.levels)
            .map(|l| VfLevel(l as u8))
            .min_by_key(|&l| {
                let distance = (l.0 as usize + self.levels - offset) % self.levels;
                (self.tests_at(core, l), distance)
            })
            .expect("ledger has at least one level")
    }

    /// True if `core` has completed at least one routine at every level.
    pub fn core_fully_covered(&self, core: usize) -> bool {
        (0..self.levels).all(|l| self.tests_at(core, VfLevel(l as u8)) > 0)
    }

    /// True if every core has completed at least one routine at every
    /// level (the journal's "cover all voltage and frequency levels").
    pub fn fully_covered(&self) -> bool {
        (0..self.cores).all(|c| self.core_fully_covered(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut l = VfCoverageLedger::new(2, 3);
        l.record(0, VfLevel(2));
        l.record(0, VfLevel(2));
        l.record(1, VfLevel(0));
        assert_eq!(l.tests_at(0, VfLevel(2)), 2);
        assert_eq!(l.tests_on_core(0), 2);
        assert_eq!(l.tests_on_core(1), 1);
        assert_eq!(l.tests_per_level(), vec![1, 0, 2]);
    }

    #[test]
    fn next_level_rotates_through_all() {
        let mut l = VfCoverageLedger::new(1, 4);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let level = l.next_level_staggered(0);
            seen.push(level.0);
            l.record(0, level);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(l.core_fully_covered(0));
    }

    #[test]
    fn next_level_prefers_least_tested() {
        let mut l = VfCoverageLedger::new(1, 3);
        l.record(0, VfLevel(0));
        l.record(0, VfLevel(1));
        assert_eq!(l.next_level_staggered(0), VfLevel(2));
        l.record(0, VfLevel(2));
        l.record(0, VfLevel(2));
        assert_eq!(l.next_level_staggered(0), VfLevel(0));
    }

    #[test]
    fn next_level_staggered_matches_reference() {
        // Tie-heavy counts (0 to 3 tests per cell, all 0 in a quarter of
        // the ledgers) at every offset of ladders of 1 to 9 and 255 levels.
        let mut rng = manytest_sim::SimRng::seed_from(23);
        for levels in (1..=9).chain([255]) {
            let cores = levels + 3;
            for _ in 0..if levels < 10 { 60 } else { 3 } {
                let mut l = VfCoverageLedger::new(cores, levels);
                let spread = rng.gen_range(4);
                for core in 0..cores {
                    for level in 0..levels {
                        for _ in 0..rng.gen_range(spread + 1) {
                            l.record(core, VfLevel(level as u8));
                        }
                    }
                }
                for core in 0..cores {
                    assert_eq!(
                        l.next_level_staggered(core),
                        l.next_level_staggered_reference(core),
                        "{levels} levels, core {core}: {:?}",
                        &l.counts[core * levels..][..levels]
                    );
                }
            }
        }
    }

    #[test]
    fn fully_covered_requires_every_cell() {
        let mut l = VfCoverageLedger::new(2, 2);
        assert!(!l.fully_covered());
        l.record(0, VfLevel(0));
        l.record(0, VfLevel(1));
        l.record(1, VfLevel(0));
        assert!(!l.fully_covered());
        l.record(1, VfLevel(1));
        assert!(l.fully_covered());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        VfCoverageLedger::new(1, 1).tests_at(5, VfLevel(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_level_panics() {
        VfCoverageLedger::new(1, 1).tests_at(0, VfLevel(7));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimensions_panic() {
        VfCoverageLedger::new(0, 3);
    }
}
