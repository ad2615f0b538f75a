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
        let after = std::iter::from_fn(|| queue.pop()).count();
        assert_eq!(after, times.len() - before.len(), "seed {seed}");
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
        let e = Epoch(rng.gen_range(1 << 30));
        let len = Duration::from_ms(1 + rng.gen_range(99));
        // Epochs tile the timeline: each is non-empty and ends where the
        // next one starts.
        assert!(e.start(len) < e.end(len), "seed {seed}: {e:?}");
        assert_eq!(e.end(len), Epoch(e.0 + 1).start(len), "seed {seed}: {e:?}");
    }
}
