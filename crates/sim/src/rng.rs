//! Deterministic, splittable random number generation.
//!
//! Every stochastic subsystem (workload generator, arrival process, fault
//! injector, tie-breaking in the mapper) must draw from its own stream so
//! that changing how many numbers one subsystem consumes does not perturb the
//! others. [`SimRng`] wraps a small, fast `SplitMix64`/`xoshiro256**`-style
//! generator implemented locally so the stream is stable across `rand`
//! versions, plus labelled child-stream derivation.

use serde::{Deserialize, Serialize};

#[cfg(debug_assertions)]
thread_local! {
    /// The batch-job id the current thread is executing, if any.
    static JOB_SCOPE: std::cell::Cell<Option<u64>> =
        const { std::cell::Cell::new(None) };
}

/// Marks the current thread as executing batch job `id` until the guard
/// drops. While a scope is active, every [`SimRng`] binds itself to the
/// job on first draw; a handle that later draws inside a *different* job
/// panics (debug builds only). This is the per-batch RNG audit: a shared
/// RNG handle crossing a job boundary would make results depend on job
/// execution order and silently break the batch runner's determinism
/// guarantee.
///
/// Release builds compile both the guard and the per-draw check to
/// nothing. Scopes nest; the guard restores the previous scope on drop.
pub fn enter_job_scope(id: u64) -> JobScopeGuard {
    #[cfg(debug_assertions)]
    {
        JobScopeGuard {
            prev: JOB_SCOPE.with(|s| s.replace(Some(id))),
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = id;
        JobScopeGuard {}
    }
}

/// RAII guard returned by [`enter_job_scope`]; restores the previous
/// scope (usually "none") when dropped.
#[derive(Debug)]
pub struct JobScopeGuard {
    #[cfg(debug_assertions)]
    prev: Option<u64>,
}

#[cfg(debug_assertions)]
impl Drop for JobScopeGuard {
    fn drop(&mut self) {
        JOB_SCOPE.with(|s| s.set(self.prev));
    }
}

/// A deterministic random number generator with labelled sub-streams.
///
/// # Examples
///
/// ```
/// use manytest_sim::rng::SimRng;
///
/// let mut root = SimRng::seed_from(42);
/// let mut workload = root.derive("workload");
/// let mut faults = root.derive("faults");
/// // Streams are independent: consuming one does not affect the other.
/// let w1 = workload.next_u64();
/// let f1 = faults.next_u64();
/// let mut faults2 = SimRng::seed_from(42).derive("faults");
/// // `derive` only hashes the label and the root seed, so the fault stream
/// // is reproducible even though the workload stream was consumed first.
/// assert_eq!(faults2.next_u64(), f1);
/// assert_ne!(w1, f1);
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
    /// Batch job this handle first drew inside, for the job-boundary
    /// audit. Not part of the generator's value: cloning resets it and
    /// equality ignores it.
    #[cfg(debug_assertions)]
    job_tag: Option<u64>,
}

impl Clone for SimRng {
    fn clone(&self) -> Self {
        // A clone is an independent handle: it may legitimately be used
        // by a different job, so it starts unbound.
        SimRng::from_parts(self.seed, self.state)
    }
}

impl PartialEq for SimRng {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.state == other.state
    }
}

impl Eq for SimRng {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    fn from_parts(seed: u64, state: [u64; 4]) -> Self {
        SimRng {
            seed,
            state,
            #[cfg(debug_assertions)]
            job_tag: None,
        }
    }

    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng::from_parts(seed, state)
    }

    /// Debug-build check that this handle stays inside one batch job.
    #[cfg(debug_assertions)]
    fn audit_job_scope(&mut self) {
        let Some(scope) = JOB_SCOPE.with(std::cell::Cell::get) else {
            return; // not inside a batch job: nothing to audit
        };
        match self.job_tag {
            None => self.job_tag = Some(scope),
            Some(tag) => assert!(
                tag == scope,
                "SimRng handle crossed a batch job boundary (first drawn in job \
                 {tag}, now drawing in job {scope}); every batch job must \
                 construct its own seeded RNG to keep runs deterministic"
            ),
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Derivation depends only on the *original seed* of this generator and
    /// the label, never on how many numbers have been drawn, so subsystem
    /// streams stay stable when unrelated code changes.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::seed_from(h)
    }

    /// Next 64 uniformly distributed bits (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        #[cfg(debug_assertions)]
        self.audit_job_scope();
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless reduction: the high word of
        // `r * bound` is the draw, and a low word below
        // `threshold = 2^64 mod bound` marks the biased zone, which is
        // rejected to keep the distribution exact. `threshold < bound`,
        // so a low word of at least `bound` is accepted without the
        // 64-bit division that computes it.
        let (mut hi, mut lo) = Self::widening_mul(self.next_u64(), bound);
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                (hi, lo) = Self::widening_mul(self.next_u64(), bound);
            }
        }
        hi
    }

    /// The high and low words of the 128-bit product `r * bound`.
    fn widening_mul(r: u64, bound: u64) -> (u64, u64) {
        let wide = u128::from(r) * u128::from(bound);
        ((wide >> 64) as u64, wide as u64)
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range: {lo}..={hi}");
        if lo == hi {
            return lo;
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn gen_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range");
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed draw with the given `rate` (λ), used for
    /// Poisson inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn gen_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // Inverse CDF; guard the log away from 0.
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially disjoint");
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = SimRng::seed_from(99);
        let mut a1 = root.derive("alpha");
        let mut a2 = root.derive("alpha");
        let mut b = root.derive("beta");
        assert_eq!(a1.next_u64(), a2.next_u64());
        let mut a3 = root.derive("alpha");
        a3.next_u64();
        assert_ne!(a3.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_independent_of_consumption() {
        let mut root = SimRng::seed_from(5);
        let before = root.derive("x").next_u64();
        root.next_u64();
        root.next_u64();
        let after = root.derive("x").next_u64();
        assert_eq!(before, after);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = SimRng::seed_from(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.gen_range(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should occur");
    }

    /// `gen_range` as first written: the rejection threshold computed by
    /// a 64-bit division on every call.
    fn gen_range_reference(rng: &mut SimRng, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = rng.next_u64();
            let (hi, lo) = {
                let wide = u128::from(r) * u128::from(bound);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    #[test]
    fn gen_range_matches_reference() {
        let mut bounds: Vec<u64> = vec![
            1,
            2,
            3,
            5,
            7,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            (1 << 63) + (1 << 62),
            u64::MAX - 1,
            u64::MAX,
        ];
        bounds.extend((0..64).map(|k| 1u64 << k));
        let mut picker = SimRng::seed_from(31337);
        for _ in 0..2_000 {
            // Random bounds of every magnitude.
            let bits = picker.gen_range(64) as u32 + 1;
            bounds.push((picker.next_u64() >> (64 - bits)).max(1));
        }
        for (i, &bound) in bounds.iter().enumerate() {
            let mut fast = SimRng::seed_from(i as u64);
            let mut reference = fast.clone();
            for _ in 0..200 {
                assert_eq!(
                    fast.gen_range(bound),
                    gen_range_reference(&mut reference, bound),
                    "bound {bound}"
                );
                assert_eq!(fast, reference, "generator state after bound {bound}");
            }
        }
    }

    #[test]
    fn gen_range_inclusive_hits_both_ends() {
        let mut rng = SimRng::seed_from(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.gen_range_inclusive(2, 4) {
                2 => lo_seen = true,
                4 => hi_seen = true,
                3 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(rng.gen_range_inclusive(9, 9), 9);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SimRng::seed_from(0).gen_range(0);
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from(17);
        let rate = 4.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gen_bool_probability_edges() {
        let mut rng = SimRng::seed_from(37);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn equality_ignores_job_tag_and_clone_resets_it() {
        let mut a = SimRng::seed_from(41);
        {
            let _scope = enter_job_scope(7);
            a.next_u64(); // binds `a` to job 7 in debug builds
        }
        let mut b = a.clone();
        assert_eq!(a, b, "clone equals original regardless of audit tag");
        let from_b = {
            // The clone is a fresh handle: a different job may use it.
            let _scope = enter_job_scope(8);
            b.next_u64()
        };
        assert_eq!(a.next_u64(), from_b, "streams stay in lockstep");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "crossed a batch job boundary")]
    fn drawing_across_job_scopes_panics_in_debug() {
        let mut rng = SimRng::seed_from(43);
        {
            let _scope = enter_job_scope(1);
            rng.next_u64();
        }
        let _scope = enter_job_scope(2);
        rng.next_u64();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn job_scopes_nest_and_restore() {
        let mut rng = SimRng::seed_from(47);
        let outer = enter_job_scope(1);
        rng.next_u64();
        {
            let mut inner_rng = SimRng::seed_from(48);
            let _inner = enter_job_scope(2);
            inner_rng.next_u64();
        }
        // Back in job 1: the original handle is still valid here.
        rng.next_u64();
        drop(outer);
        // Outside any scope the audit is inert.
        rng.next_u64();
    }
}
