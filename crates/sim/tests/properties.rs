//! Property tests of the simulation kernel. Each property runs 96 cases
//! drawn from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_sim::prelude::*;

#[test]
fn event_queue_pops_sorted_stable() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.gen_range(199) as usize;
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(SimTime::from_ns(rng.gen_range(1_000)), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(ev) = queue.pop() {
            popped.push((ev.time, ev.payload));
        }
        assert_eq!(popped.len(), n, "seed {seed}");
        // Sorted by time; FIFO among equals (payload = insertion index).
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed}: {w:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "seed {seed}: {w:?}");
            }
        }
    }
}

#[test]
fn pop_before_partitions_the_timeline() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let times: Vec<u64> = (0..1 + rng.gen_range(99))
            .map(|_| rng.gen_range(1_000))
            .collect();
        let deadline = rng.gen_range(1_000);
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.schedule(SimTime::from_ns(t), t);
        }
        let mut before = Vec::new();
        while let Some(ev) = queue.pop_before(SimTime::from_ns(deadline)) {
            before.push(ev.payload);
        }
        assert!(before.iter().all(|&t| t < deadline), "seed {seed}");
        let due = times.iter().filter(|&&t| t < deadline).count();
        assert_eq!(before.len(), due, "seed {seed}");
        assert_eq!(queue.len(), times.len() - before.len(), "seed {seed}");
    }
}

#[test]
fn histogram_conserves_every_sample() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let samples = rng.gen_range(300);
        let mut h = Histogram::new(0.0, 100.0, 10);
        for _ in 0..samples {
            h.push(rng.gen_f64_range(-100.0, 200.0));
        }
        assert_eq!(h.total(), samples, "seed {seed}");
        let binned: u64 = h.bins().iter().sum();
        assert_eq!(
            binned + h.underflow() + h.overflow(),
            samples,
            "seed {seed}"
        );
    }
}

#[test]
fn time_weighted_matches_manual_integration() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut tw = TimeWeighted::new();
        let mut t = 0.0;
        let mut manual = 0.0;
        for _ in 0..1 + rng.gen_range(49) {
            let dt = (1 + rng.gen_range(999)) as f64 / 1e3;
            let v = rng.gen_f64_range(0.0, 100.0);
            tw.record(t, v);
            manual += v * dt;
            t += dt;
        }
        tw.finish(t);
        let tolerance = 1e-9 * (1.0 + manual);
        assert!((tw.integral() - manual).abs() < tolerance, "seed {seed}");
        assert!((tw.mean() - manual / t).abs() < tolerance, "seed {seed}");
    }
}

#[test]
fn downsample_preserves_endpoints_and_bounds() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let n_points = 2 + rng.gen_range(498) as usize;
        let target = 2 + rng.gen_range(62) as usize;
        let mut s = TraceSeries::new();
        for i in 0..n_points {
            s.push(i as f64, (i * 7 % 13) as f64);
        }
        let d = s.downsample(target);
        assert!(
            d.len() <= n_points.max(target),
            "seed {seed}: {} points",
            d.len()
        );
        assert_eq!(d.points()[0], s.points()[0], "seed {seed}");
        assert_eq!(d.points().last(), s.points().last(), "seed {seed}");
    }
}

#[test]
fn stats_merge_is_associative_enough() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut build = || {
            let mut s = OnlineStats::new();
            for _ in 0..1 + rng.gen_range(49) {
                s.push(rng.gen_f64_range(-1e3, 1e3));
            }
            s
        };
        let (a, b, c) = (build(), build(), build());
        // (a ∪ b) ∪ c vs a ∪ (b ∪ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left.count(), right.count(), "seed {seed}");
        assert!((left.mean() - right.mean()).abs() < 1e-9, "seed {seed}");
        assert!(
            (left.variance() - right.variance()).abs() < 1e-6,
            "seed {seed}"
        );
    }
}

#[test]
fn gen_exp_is_positive_and_finite() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let rate = rng.gen_f64_range(0.001, 1e6);
        for _ in 0..50 {
            let x = rng.gen_exp(rate);
            assert!(x.is_finite() && x > 0.0, "seed {seed}: {x} at rate {rate}");
        }
    }
}

#[test]
fn epoch_partition_is_exact() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let t = SimTime::from_ns(rng.gen_range(1 << 50));
        let len = Duration::from_ms(1 + rng.gen_range(99));
        let e = t.epoch(len);
        assert!(
            e.start(len) <= t && t < e.end(len),
            "seed {seed}: {t:?} in {e:?}"
        );
    }
}
