//! Property tests of the workload substrate. Each property runs 96 cases
//! drawn from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_sim::SimRng;
use manytest_workload::prelude::*;

/// A default-generator application drawn from `seed`.
fn random_app(seed: u64) -> TaskGraph {
    TaskGraphGenerator::default().generate(&mut SimRng::seed_from(seed), "prop")
}

#[test]
fn generator_respects_arbitrary_bounds() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let min_tasks = 1 + rng.gen_range(5) as usize;
        let max_tasks = min_tasks + rng.gen_range(10) as usize;
        let min_instructions = 1_000 + rng.gen_range(99_000);
        let max_instructions = min_instructions + rng.gen_range(1_000_000);
        let config = TaskGraphGenerator {
            min_tasks,
            max_tasks,
            min_instructions,
            max_instructions,
            ..TaskGraphGenerator::default()
        };
        let g = config.generate(&mut rng, "prop");
        assert!(g.validate().is_ok(), "seed {seed}");
        assert!(
            (min_tasks..=max_tasks).contains(&g.task_count()),
            "seed {seed}"
        );
        for t in 0..g.task_count() as u32 {
            let instructions = g.task(TaskId(t)).instructions;
            assert!(
                (min_instructions..=max_instructions).contains(&instructions),
                "seed {seed}: {instructions} instructions"
            );
        }
    }
}

#[test]
fn topological_order_is_a_valid_schedule() {
    for seed in 0..96 {
        let g = random_app(seed);
        let order = g.topological_order().unwrap();
        let position = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in g.edges() {
            assert!(position(e.from) < position(e.to), "seed {seed}: {e:?}");
        }
    }
}

#[test]
fn arrival_gaps_have_the_right_mean() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let rate = rng.gen_f64_range(10.0, 10_000.0);
        let mut proc = ArrivalProcess::poisson(rate);
        let n = 3_000;
        let total: f64 = (0..n)
            .map(|_| proc.next_interarrival(&mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        let expected = 1.0 / rate;
        // 3k samples of an exponential: mean within 10% w.h.p.
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "seed {seed}: mean {mean} vs {expected}"
        );
    }
}

#[test]
fn mix_sampling_yields_valid_apps() {
    for seed in 0..96 {
        let mut mix = WorkloadMix::standard();
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..10 {
            let g = mix.sample(&mut rng);
            assert!(g.validate().is_ok(), "seed {seed}");
            assert!(
                (1..=12).contains(&g.task_count()),
                "seed {seed}: {} tasks",
                g.task_count()
            );
        }
    }
}

#[test]
fn total_volumes_are_consistent() {
    for seed in 0..96 {
        let g = random_app(seed);
        let manual_bits: f64 = g.edges().iter().map(|e| e.bits).sum();
        assert!((g.total_bits() - manual_bits).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn roots_have_no_predecessors_and_exist() {
    for seed in 0..96 {
        let g = random_app(seed);
        let roots = g.roots();
        assert!(!roots.is_empty(), "seed {seed}");
        for r in roots {
            assert_eq!(g.predecessors(r).count(), 0, "seed {seed}: root {r:?}");
        }
    }
}
