//! TGFF-style random task-graph generation.
//!
//! TGFF ("Task Graphs For Free") is the de-facto generator in this
//! literature: it emits layered series-parallel DAGs with configurable
//! size, fan-out, and volume distributions. [`TaskGraphGenerator`]
//! reproduces that shape: tasks are placed in layers, every non-root layer
//! draws edges from the previous layers, and compute/communication volumes
//! are drawn log-uniformly from configured ranges.

use crate::task::{Task, TaskGraph, TaskId};
use manytest_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Configuration and factory for random task graphs.
///
/// # Examples
///
/// ```
/// use manytest_workload::gen::TaskGraphGenerator;
/// use manytest_sim::SimRng;
///
/// let gen = TaskGraphGenerator {
///     min_tasks: 4,
///     max_tasks: 9,
///     ..TaskGraphGenerator::default()
/// };
/// let mut rng = SimRng::seed_from(1);
/// let g = gen.generate(&mut rng, "random");
/// assert!((4..=9).contains(&g.task_count()));
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskGraphGenerator {
    /// Minimum number of tasks (inclusive).
    pub min_tasks: usize,
    /// Maximum number of tasks (inclusive).
    pub max_tasks: usize,
    /// Maximum tasks per layer.
    pub max_layer_width: usize,
    /// Maximum in-degree drawn for a non-root task.
    pub max_in_degree: usize,
    /// Minimum task compute volume, instructions.
    pub min_instructions: u64,
    /// Maximum task compute volume, instructions.
    pub max_instructions: u64,
    /// Minimum edge volume, bits.
    pub min_bits: f64,
    /// Maximum edge volume, bits.
    pub max_bits: f64,
}

impl Default for TaskGraphGenerator {
    /// Applications of 4–12 tasks (the size range of the classic NoC
    /// benchmarks), 2–30 M instructions per task, 8–512 kbit messages.
    fn default() -> Self {
        TaskGraphGenerator {
            min_tasks: 4,
            max_tasks: 12,
            max_layer_width: 4,
            max_in_degree: 3,
            min_instructions: 2_000_000,
            max_instructions: 30_000_000,
            min_bits: 8_000.0,
            max_bits: 512_000.0,
        }
    }
}

impl TaskGraphGenerator {
    /// Draws `x` log-uniformly in `[lo, hi]`.
    #[cfg(test)]
    fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
        LogUniform::new(lo, hi).draw(rng)
    }

    /// Generates one random task graph named `name`.
    ///
    /// The result always validates: it is a connected-enough layered DAG
    /// with positive volumes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (`min_tasks == 0`,
    /// `min_tasks > max_tasks`, zero `max_layer_width`, volume ranges
    /// inverted).
    pub fn generate(&self, rng: &mut SimRng, name: impl Into<String>) -> TaskGraph {
        self.check();
        let instructions =
            LogUniform::new(self.min_instructions as f64, self.max_instructions as f64);
        let bits = LogUniform::new(self.min_bits.max(1.0), self.max_bits);
        let n = rng.gen_range_inclusive(self.min_tasks as u64, self.max_tasks as u64) as usize;
        let mut graph = TaskGraph::new(name);
        graph.reserve(n, 0);
        // Assign tasks to layers; tasks get ids in layer order, so layer
        // `l` holds the ids `starts[l]..starts[l + 1]`.
        let mut starts: Vec<u32> = Vec::with_capacity(n + 1);
        starts.push(0);
        while graph.task_count() < n {
            let width = rng
                .gen_range_inclusive(1, self.max_layer_width as u64)
                .min((n - graph.task_count()) as u64);
            for _ in 0..width {
                let instructions = instructions.draw(rng).round().max(1.0) as u64;
                graph.add_task(Task { instructions });
            }
            starts.push(graph.task_count() as u32);
        }
        // Each child takes at most `max_in_degree` of its layer's parents.
        let max_edges: usize = starts
            .windows(3)
            .map(|l| (l[2] - l[1]) as usize * self.max_in_degree.min((l[1] - l[0]) as usize))
            .sum();
        graph.reserve(0, max_edges);
        // Wire each non-root task to 1..=max_in_degree parents from the
        // previous layer (guaranteeing acyclicity and connectivity between
        // consecutive layers).
        let mut pool: Vec<TaskId> = Vec::with_capacity(self.max_layer_width.min(n));
        for layer in starts.windows(3) {
            let parents = layer[0]..layer[1];
            for child in (layer[1]..layer[2]).map(TaskId) {
                let degree = rng
                    .gen_range_inclusive(1, self.max_in_degree as u64)
                    .min(parents.len() as u64) as usize;
                pool.clear();
                pool.extend(parents.clone().map(TaskId));
                rng.shuffle(&mut pool);
                for &parent in pool.iter().take(degree) {
                    graph.add_edge(parent, child, bits.draw(rng));
                }
            }
        }
        debug_assert!(graph.validate().is_ok());
        graph
    }

    /// The configuration checks [`TaskGraphGenerator::generate`] panics on.
    fn check(&self) {
        assert!(self.min_tasks >= 1, "graphs need at least one task");
        assert!(self.min_tasks <= self.max_tasks, "task range inverted");
        assert!(self.max_layer_width >= 1, "layer width must be positive");
        assert!(
            self.min_instructions >= 1 && self.min_instructions <= self.max_instructions,
            "instruction range invalid"
        );
        assert!(
            self.min_bits >= 0.0 && self.min_bits <= self.max_bits,
            "bit range invalid"
        );
    }
}

/// A log-uniform distribution on `[lo, hi]` with its bounds' logarithms
/// taken once; a degenerate range (`lo >= hi`) always yields `lo` and
/// draws nothing.
#[derive(Debug, Clone, Copy)]
struct LogUniform {
    lo: f64,
    ln_range: Option<(f64, f64)>,
}

impl LogUniform {
    fn new(lo: f64, hi: f64) -> Self {
        LogUniform {
            lo,
            ln_range: if lo >= hi {
                None
            } else {
                Some((lo.ln(), hi.ln()))
            },
        }
    }

    fn draw(self, rng: &mut SimRng) -> f64 {
        match self.ln_range {
            Some((ln_lo, ln_hi)) => rng.gen_f64_range(ln_lo, ln_hi).exp(),
            None => self.lo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0xC0FFEE)
    }

    /// `generate` as first written: one `Vec` per layer, cloned parent
    /// and child lists, a fresh pool per child and both logarithms taken
    /// per draw.
    fn generate_reference(gen: &TaskGraphGenerator, rng: &mut SimRng, name: &str) -> TaskGraph {
        fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
            if lo >= hi {
                return lo;
            }
            (rng.gen_f64_range(lo.ln(), hi.ln())).exp()
        }
        gen.check();
        let n = rng.gen_range_inclusive(gen.min_tasks as u64, gen.max_tasks as u64) as usize;
        let mut graph = TaskGraph::new(name);
        let mut layers: Vec<Vec<TaskId>> = Vec::new();
        let mut placed = 0usize;
        while placed < n {
            let width = rng
                .gen_range_inclusive(1, gen.max_layer_width as u64)
                .min((n - placed) as u64) as usize;
            let layer: Vec<TaskId> = (0..width)
                .map(|_| {
                    let instructions = log_uniform(
                        rng,
                        gen.min_instructions as f64,
                        gen.max_instructions as f64,
                    )
                    .round()
                    .max(1.0) as u64;
                    graph.add_task(Task { instructions })
                })
                .collect();
            placed += width;
            layers.push(layer);
        }
        for li in 1..layers.len() {
            let parents: Vec<TaskId> = layers[li - 1].clone();
            let children: Vec<TaskId> = layers[li].clone();
            for child in children {
                let degree = rng
                    .gen_range_inclusive(1, gen.max_in_degree as u64)
                    .min(parents.len() as u64) as usize;
                let mut pool = parents.clone();
                rng.shuffle(&mut pool);
                for &parent in pool.iter().take(degree) {
                    let bits = log_uniform(rng, gen.min_bits.max(1.0), gen.max_bits);
                    graph.add_edge(parent, child, bits);
                }
            }
        }
        graph
    }

    /// A graph's every field, with volumes as bits.
    fn graph_bits(g: &TaskGraph) -> (String, Vec<u64>, Vec<(u32, u32, u64)>) {
        (
            g.name().to_string(),
            (0..g.task_count() as u32)
                .map(|t| g.task(TaskId(t)).instructions)
                .collect(),
            g.edges()
                .iter()
                .map(|e| (e.from.0, e.to.0, e.bits.to_bits()))
                .collect(),
        )
    }

    #[test]
    fn generate_matches_reference() {
        let base = TaskGraphGenerator::default();
        let configs = [
            base,
            TaskGraphGenerator {
                max_layer_width: 1,
                ..base
            },
            TaskGraphGenerator {
                max_in_degree: 1,
                ..base
            },
            TaskGraphGenerator {
                min_bits: 65_536.0,
                max_bits: 65_536.0,
                ..base
            },
            TaskGraphGenerator {
                min_tasks: 1,
                max_tasks: 40,
                max_layer_width: 9,
                max_in_degree: 7,
                min_instructions: 5,
                max_instructions: 5,
                min_bits: 0.0,
                max_bits: 0.5,
            },
        ];
        for (i, gen) in configs.iter().enumerate() {
            let mut rng = SimRng::seed_from(0x5EED + i as u64);
            let mut reference = rng.clone();
            for k in 0..10_000 {
                let g = gen.generate(&mut rng, "g");
                let r = generate_reference(gen, &mut reference, "g");
                assert_eq!(graph_bits(&g), graph_bits(&r), "config {i}, graph {k}");
                assert_eq!(rng, reference, "config {i}, RNG state after graph {k}");
            }
        }
    }

    #[test]
    fn generated_graphs_validate() {
        let g = TaskGraphGenerator::default();
        let mut rng = rng();
        for i in 0..200 {
            let graph = g.generate(&mut rng, format!("app{i}"));
            assert!(graph.validate().is_ok(), "graph {i} invalid");
        }
    }

    #[test]
    fn task_count_within_bounds() {
        let g = TaskGraphGenerator {
            min_tasks: 3,
            max_tasks: 7,
            ..TaskGraphGenerator::default()
        };
        let mut rng = rng();
        for _ in 0..100 {
            let n = g.generate(&mut rng, "x").task_count();
            assert!((3..=7).contains(&n));
        }
    }

    #[test]
    fn volumes_within_bounds() {
        let g = TaskGraphGenerator {
            min_instructions: 1_000,
            max_instructions: 2_000,
            min_bits: 100.0,
            max_bits: 200.0,
            ..TaskGraphGenerator::default()
        };
        let mut rng = rng();
        let graph = g.generate(&mut rng, "x");
        for t in 0..graph.task_count() as u32 {
            assert!((1_000..=2_000).contains(&graph.task(TaskId(t)).instructions));
        }
        for e in graph.edges() {
            assert!((100.0..=200.0).contains(&e.bits));
        }
    }

    #[test]
    fn non_root_tasks_have_parents() {
        let g = TaskGraphGenerator::default();
        let mut rng = rng();
        for _ in 0..50 {
            let graph = g.generate(&mut rng, "x");
            let roots = graph.roots();
            for t in 0..graph.task_count() as u32 {
                let id = crate::task::TaskId(t);
                if !roots.contains(&id) {
                    assert!(graph.predecessors(id).next().is_some());
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = TaskGraphGenerator::default();
        let a = g.generate(&mut SimRng::seed_from(5), "x");
        let b = g.generate(&mut SimRng::seed_from(5), "x");
        assert_eq!(a, b);
    }

    #[test]
    fn single_task_config() {
        let g = TaskGraphGenerator {
            min_tasks: 1,
            max_tasks: 1,
            ..TaskGraphGenerator::default()
        };
        let graph = g.generate(&mut rng(), "solo");
        assert_eq!(graph.task_count(), 1);
        assert!(graph.edges().is_empty());
        assert!(graph.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "task range inverted")]
    fn inverted_range_panics() {
        let g = TaskGraphGenerator {
            min_tasks: 9,
            max_tasks: 3,
            ..TaskGraphGenerator::default()
        };
        g.generate(&mut rng(), "bad");
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut r = rng();
        for _ in 0..1_000 {
            let x = TaskGraphGenerator::log_uniform(&mut r, 10.0, 1000.0);
            assert!((10.0..=1000.0).contains(&x));
        }
        assert_eq!(TaskGraphGenerator::log_uniform(&mut r, 5.0, 5.0), 5.0);
    }
}
