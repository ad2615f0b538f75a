//! The benchmark workloads: each is a list of simulator configs derived
//! from the base seed. One sample runs every config of the list once.
//!
//! Arrivals are Poisson, as in every run of the evaluation suite. A run's
//! host time then depends on how many applications its seed draws, so
//! each sample runs several seeds: summing over them keeps the median of a
//! benchmark run steady from one base seed to the next.

use manytest_core::prelude::*;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in the output.
    pub name: &'static str,
    /// Why the workload exists: which layer it loads or bypasses.
    pub why: &'static str,
    configs: fn(u64) -> Vec<SystemBuilder>,
}

impl Workload {
    /// The config list one sample runs, derived from the base `seed`.
    pub fn configs(&self, seed: u64) -> Vec<SystemBuilder> {
        (self.configs)(seed)
    }
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "admit64",
        why: "map-bound: region search and contiguous placement on a mostly free 64x64 mesh",
        configs: admit64,
    },
    Workload {
        name: "quiet64",
        why: "map-bypass: few admissions; epoch close, the thermal grid and the SBST scheduler dominate",
        configs: quiet64,
    },
    Workload {
        name: "lifecycle22",
        why: "saturated, fragmented 12x12 mesh with quarantines, remaps, checkpoints and probes",
        configs: lifecycle22,
    },
    Workload {
        name: "sweep_native",
        why: "16 short runs on native 6x6-16x16 meshes at the quick evaluation suite's rates",
        configs: sweep_native,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `count` run seeds for base seed `base`. Different bases get disjoint
/// sets, so samples on two base seeds share no run.
fn seeds(base: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |i| base.wrapping_mul(count).wrapping_add(i))
}

/// The `repro bench kernels` 64x64 config (N16, 500 ms, 200 apps/s,
/// test-aware mapping): map is about 85 % of its host time.
fn admit64(seed: u64) -> Vec<SystemBuilder> {
    seeds(seed, 8)
        .map(|s| {
            SystemBuilder::new(TechNode::N16)
                .mesh_edge(64)
                .seed(s)
                .sim_time_ms(500)
                .arrival_rate(200.0)
        })
        .collect()
}

/// A lightly loaded 64x64 mesh on the transient thermal grid: about two
/// admissions per run, so map work is small and the epoch close plus SBST
/// scheduling over 4096 idle cores carry the time.
fn quiet64(seed: u64) -> Vec<SystemBuilder> {
    seeds(seed, 8)
        .map(|s| {
            SystemBuilder::new(TechNode::N16)
                .mesh_edge(64)
                .seed(s)
                .sim_time_ms(1000)
                .arrival_rate(2.0)
                .transient_thermal(true)
        })
        .collect()
}

/// The E12 lifecycle setup on the native 22 nm mesh at saturation, with
/// every lifecycle lane on: intermittent faults that cool, false
/// positives, region migration with checkpoints, the probe lane and NoC
/// contention.
fn lifecycle22(seed: u64) -> Vec<SystemBuilder> {
    seeds(seed, 8)
        .map(|s| {
            SystemBuilder::new(TechNode::N22)
                .seed(s)
                .sim_time_ms(400)
                .arrival_rate(1000.0)
                .injected_faults(32)
                .intermittent_faults(1.0)
                .intermittent_cooldown(0.25)
                .test_false_positives(0.001)
                .fault_response(FaultResponsePolicy::MigrateRegion)
                .checkpoint_interval_us(2_000)
                .probe_cadence_us(3_000)
                .model_contention(true)
        })
        .collect()
}

/// A stand-in for the quick evaluation suite (`repro --quick`), a
/// population of 250 ms runs on native meshes: each config is one kind of
/// run the suite makes, at that experiment's arrival rate.
fn sweep_native(seed: u64) -> Vec<SystemBuilder> {
    let run_seeds: Vec<u64> = seeds(seed, 16).collect();
    let run = |node: TechNode, i: usize, rate: f64| {
        SystemBuilder::new(node)
            .seed(run_seeds[i])
            .sim_time_ms(250)
            .arrival_rate(rate)
    };
    // E1: every node with testing off and on.
    let mut list = Vec::with_capacity(16);
    for (n, node) in TechNode::ALL.into_iter().enumerate() {
        for testing in [false, true] {
            list.push(run(node, 2 * n + usize::from(testing), 3_000.0).testing(testing));
        }
    }
    let n16 = |i, rate| run(TechNode::N16, i, rate);
    list.extend([
        // E5: the mappers.
        n16(8, 2_500.0).mapper(MapperKind::Baseline),
        n16(9, 2_500.0).mapper(MapperKind::FirstFit),
        // E8: the governors.
        n16(10, 6_000.0).governor(GovernorKind::Naive),
        n16(11, 6_000.0).governor(GovernorKind::FixedTdp),
        // A5, A6 and A1: transient thermal, contention, intrusive testing.
        n16(12, 2_000.0).transient_thermal(true),
        n16(13, 3_000.0).model_contention(true),
        n16(14, 2_500.0)
            .mapper(MapperKind::Baseline)
            .intrusive_testing(true),
        // E11: quarantine with restarts.
        run(TechNode::N22, 15, 2_000.0)
            .injected_faults(8)
            .fault_response(FaultResponsePolicy::RestartElsewhere),
    ]);
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_builds() {
        for w in WORKLOADS {
            for b in w.configs(1) {
                b.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
