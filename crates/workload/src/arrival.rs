//! Application arrivals: Poisson process over a weighted application mix.

use crate::gen::TaskGraphGenerator;
use crate::task::TaskGraph;
use manytest_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// A unique identifier for an arrived application instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AppId(pub u64);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// One arrived application: a task graph stamped with identity and time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Instance id (unique per run).
    pub id: AppId,
    /// The task graph to execute.
    pub graph: TaskGraph,
    /// Arrival time.
    pub arrival: SimTime,
}

/// What the mix draws applications from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Source {
    /// A fixed preset graph (cloned per arrival).
    Preset(TaskGraph),
    /// A generator invoked per arrival.
    Random(TaskGraphGenerator),
}

/// A weighted mix of application sources.
///
/// # Examples
///
/// ```
/// use manytest_workload::prelude::*;
/// use manytest_sim::SimRng;
///
/// let mut mix = WorkloadMix::new();
/// mix.add_preset(presets::pip(), 1.0);
/// mix.add_random(TaskGraphGenerator::default(), 3.0);
/// let mut rng = SimRng::seed_from(11);
/// let g = mix.sample(&mut rng);
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    sources: Vec<(Source, f64)>,
    generated: u64,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadMix {
    /// Creates an empty mix.
    pub fn new() -> Self {
        WorkloadMix {
            sources: Vec::new(),
            generated: 0,
        }
    }

    /// The mix used throughout the evaluation: all four benchmark presets
    /// plus TGFF-style random applications, random apps twice as likely.
    pub fn standard() -> Self {
        let mut mix = WorkloadMix::new();
        for preset in crate::presets::all() {
            mix.add_preset(preset, 1.0);
        }
        mix.add_random(TaskGraphGenerator::default(), 8.0);
        mix
    }

    /// Adds a preset graph drawn with relative `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive or the graph is invalid.
    pub fn add_preset(&mut self, graph: TaskGraph, weight: f64) {
        assert!(weight > 0.0, "weight must be positive");
        assert!(graph.validate().is_ok(), "preset must validate");
        self.sources.push((Source::Preset(graph), weight));
    }

    /// Adds a random-graph source drawn with relative `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive.
    pub fn add_random(&mut self, generator: TaskGraphGenerator, weight: f64) {
        assert!(weight > 0.0, "weight must be positive");
        self.sources.push((Source::Random(generator), weight));
    }

    /// Number of sources in the mix.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True if the mix has no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Draws one application graph.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty.
    pub fn sample(&mut self, rng: &mut SimRng) -> TaskGraph {
        assert!(!self.sources.is_empty(), "cannot sample an empty mix");
        let total: f64 = self.sources.iter().map(|(_, w)| w).sum();
        let mut pick = rng.next_f64() * total;
        let chosen = self
            .sources
            .iter()
            .find(|(_, w)| {
                pick -= w;
                pick < 0.0
            })
            .map(|(s, _)| s)
            .unwrap_or(&self.sources.last().expect("non-empty").0);
        match chosen {
            Source::Preset(g) => g.clone(),
            Source::Random(generator) => {
                let name = format!("tgff{}", self.generated);
                self.generated += 1;
                generator.generate(rng, name)
            }
        }
    }
}

/// An application-arrival process: Poisson, modelling independent users.
///
/// # Examples
///
/// ```
/// use manytest_workload::arrival::ArrivalProcess;
/// use manytest_sim::SimRng;
///
/// let mut arrivals = ArrivalProcess::poisson(100.0); // 100 apps/s
/// let mut rng = SimRng::seed_from(3);
/// let gap = arrivals.next_interarrival(&mut rng);
/// assert!(gap.as_ns() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalProcess {
    rate_per_sec: f64,
}

impl ArrivalProcess {
    /// A Poisson process with mean `rate_per_sec` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn poisson(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "arrival rate must be positive"
        );
        ArrivalProcess { rate_per_sec }
    }

    /// The configured mean rate, arrivals per second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Draws the next inter-arrival gap (never zero).
    pub fn next_interarrival(&mut self, rng: &mut SimRng) -> Duration {
        Duration::from_secs_f64(rng.gen_exp(self.rate_per_sec)).max(Duration::from_ns(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn poisson_mean_rate_is_respected() {
        let mut proc = ArrivalProcess::poisson(1_000.0);
        let mut rng = SimRng::seed_from(19);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| proc.next_interarrival(&mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.001).abs() < 0.0001, "mean gap was {mean}");
    }

    #[test]
    fn interarrival_is_never_zero() {
        let mut proc = ArrivalProcess::poisson(1e9);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1_000 {
            assert!(proc.next_interarrival(&mut rng).as_ns() >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        ArrivalProcess::poisson(0.0);
    }

    #[test]
    fn mix_samples_all_sources() {
        let mut mix = WorkloadMix::new();
        mix.add_preset(presets::pip(), 1.0);
        mix.add_preset(presets::vopd(), 1.0);
        let mut rng = SimRng::seed_from(4);
        let mut pip_seen = false;
        let mut vopd_seen = false;
        for _ in 0..100 {
            match mix.sample(&mut rng).name() {
                "pip" => pip_seen = true,
                "vopd" => vopd_seen = true,
                other => panic!("unexpected app {other}"),
            }
        }
        assert!(pip_seen && vopd_seen);
    }

    #[test]
    fn mix_respects_weights_roughly() {
        let mut mix = WorkloadMix::new();
        mix.add_preset(presets::pip(), 9.0);
        mix.add_preset(presets::vopd(), 1.0);
        let mut rng = SimRng::seed_from(8);
        let pip_count = (0..2_000)
            .filter(|_| mix.sample(&mut rng).name() == "pip")
            .count();
        assert!(
            (1_600..=2_000).contains(&pip_count),
            "expected ~90% pip, got {pip_count}/2000"
        );
    }

    #[test]
    fn random_source_names_are_unique() {
        let mut mix = WorkloadMix::new();
        mix.add_random(TaskGraphGenerator::default(), 1.0);
        let mut rng = SimRng::seed_from(21);
        let a = mix.sample(&mut rng);
        let b = mix.sample(&mut rng);
        assert_ne!(a.name(), b.name());
    }

    #[test]
    fn standard_mix_is_nonempty_and_valid() {
        let mut mix = WorkloadMix::standard();
        assert_eq!(mix.len(), 5);
        let mut rng = SimRng::seed_from(30);
        for _ in 0..50 {
            assert!(mix.sample(&mut rng).validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "empty mix")]
    fn sampling_empty_mix_panics() {
        WorkloadMix::new().sample(&mut SimRng::seed_from(1));
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app#3");
    }
}
