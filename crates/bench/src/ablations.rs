//! Ablation studies of the design choices DESIGN.md calls out: what each
//! ingredient of the proposed scheme is worth.
//!
//! Like the experiments, every driver takes a `jobs` worker count and
//! funnels its runs through one [`Batch`], so the tables are identical
//! for any `jobs` value.

use crate::runner::Batch;
use crate::Scale;
use manytest_aging::CriticalityModel;
use manytest_core::prelude::*;
use manytest_power::TechNode;

// ---------------------------------------------------------------------------
// A1 — non-intrusive vs intrusive testing
// ---------------------------------------------------------------------------

/// One side of the intrusiveness ablation.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// True = tasks wait for sessions (intrusive).
    pub intrusive: bool,
    /// Throughput, MIPS.
    pub mips: f64,
    /// Mean application latency, seconds.
    pub app_latency: f64,
    /// Tests completed.
    pub tests: u64,
    /// Tests aborted.
    pub aborted: u64,
}

/// A1: the paper's scheduler is non-intrusive. Making tests preempt the
/// workload instead shows what that property buys: intrusive testing keeps
/// every session but stretches application latency and costs throughput.
pub fn a1_intrusiveness(scale: Scale, jobs: usize) -> Vec<A1Row> {
    let ms = scale.ms(300);
    let modes = [false, true];
    let mut batch = Batch::new();
    for &intrusive in modes.iter() {
        batch.push(format!("a1/intrusive={intrusive}"), move || {
            let builder = SystemBuilder::new(TechNode::N16)
                .seed(90)
                .sim_time_ms(ms)
                .arrival_rate(2_500.0)
                .mapper(MapperKind::Baseline) // maximise task/test collisions
                .intrusive_testing(intrusive);
            crate::runner::run_system(builder)
        });
    }
    modes
        .iter()
        .zip(batch.run(jobs))
        .map(|(&intrusive, r)| A1Row {
            intrusive,
            mips: r.throughput_mips,
            app_latency: r.mean_app_latency,
            tests: r.tests_completed,
            aborted: r.tests_aborted,
        })
        .collect()
}

/// Prints the A1 table.
pub fn print_a1(rows: &[A1Row]) {
    println!("## A1 — non-intrusive vs intrusive testing (16 nm, 2500 apps/s)");
    println!("mode           MIPS      app_latency(ms)  tests  aborted");
    for r in rows {
        println!(
            "{:<13}  {:>8.0}  {:>15.2}  {:>5}  {:>7}",
            if r.intrusive { "intrusive" } else { "non-intrusive" },
            r.mips,
            r.app_latency * 1e3,
            r.tests,
            r.aborted
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// A2 — criticality metric composition
// ---------------------------------------------------------------------------

/// One criticality-weighting variant.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// Human-readable variant name.
    pub variant: &'static str,
    /// Pearson correlation between per-core damage and test count.
    pub stress_correlation: f64,
    /// Largest same-core test interval, seconds.
    pub max_interval: f64,
    /// Smallest per-core test count.
    pub min_tests: u64,
}

/// A2: the metric mixes a stress term (adaptivity) and a staleness term
/// (bounded intervals). Ablating each shows why both are needed: stress-only
/// correlates best but lets idle cores starve; time-only bounds intervals
/// but ignores wear.
pub fn a2_criticality_weights(scale: Scale, jobs: usize) -> Vec<A2Row> {
    let ms = scale.ms(500);
    let variants: [(&'static str, f64, f64); 3] = [
        ("stress-only", 1.0, 0.0),
        ("time-only", 0.0, 1.0),
        ("balanced", 0.6, 0.4),
    ];
    let mut batch = Batch::new();
    for &(name, w_stress, w_time) in variants.iter() {
        batch.push(format!("a2/{name}"), move || {
            let builder = SystemBuilder::new(TechNode::N16)
                .seed(91)
                .sim_time_ms(ms)
                .arrival_rate(2_000.0)
                .criticality(CriticalityModel::new(w_stress, w_time));
            crate::runner::run_system(builder)
        });
    }
    variants
        .iter()
        .zip(batch.run(jobs))
        .map(|(&(name, _, _), r)| {
            let n = r.damage_per_core.len() as f64;
            let mean_d = r.damage_per_core.iter().sum::<f64>() / n;
            let mean_t = r.tests_per_core.iter().map(|&t| t as f64).sum::<f64>() / n;
            let (mut cov, mut var_d, mut var_t) = (0.0, 0.0, 0.0);
            for c in 0..r.damage_per_core.len() {
                let dd = r.damage_per_core[c] - mean_d;
                let dt = r.tests_per_core[c] as f64 - mean_t;
                cov += dd * dt;
                var_d += dd * dd;
                var_t += dt * dt;
            }
            let stress_correlation = if var_d > 0.0 && var_t > 0.0 {
                cov / (var_d.sqrt() * var_t.sqrt())
            } else {
                0.0
            };
            A2Row {
                variant: name,
                stress_correlation,
                max_interval: r.max_test_interval,
                min_tests: r.min_tests_per_core,
            }
        })
        .collect()
}

/// Prints the A2 table.
pub fn print_a2(rows: &[A2Row]) {
    println!("## A2 — criticality metric composition (16 nm, 2000 apps/s)");
    println!("variant       r(damage,tests)  max_interval(ms)  min_tests/core");
    for r in rows {
        println!(
            "{:<12}  {:>15.3}  {:>16.1}  {:>14}",
            r.variant,
            r.stress_correlation,
            r.max_interval * 1e3,
            r.min_tests
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// A3 — abort overhead sensitivity
// ---------------------------------------------------------------------------

/// One abort-overhead setting.
#[derive(Debug, Clone)]
pub struct A3Row {
    /// Abort overhead, seconds.
    pub overhead: f64,
    /// Throughput penalty vs the no-testing baseline.
    pub penalty: f64,
    /// Aborts in the run.
    pub aborted: u64,
}

/// A3: how the headline sub-1 % penalty depends on the cost of aborting a
/// session — the penalty should scale roughly linearly in the overhead and
/// stay under 1 % for any plausible restore cost.
///
/// Submission order: the per-seed no-testing baselines first, then the
/// overhead sweep (overhead-major, then seed). Everything goes into one
/// batch — the penalty fold against the baselines happens afterwards.
pub fn a3_abort_overhead(scale: Scale, jobs: usize) -> Vec<A3Row> {
    let ms = scale.ms(300);
    let seeds: Vec<u64> = (0..scale.seeds(6) as u64).map(|s| 92 + s).collect();
    let overheads = [0.0, 50e-6, 500e-6, 2e-3];
    let mut batch = Batch::new();
    // The per-run penalty is tiny (≪1 %), so it must be averaged over
    // seeds to rise above scheduling noise.
    for &seed in seeds.iter() {
        batch.push(format!("a3/baseline/seed{seed}"), move || {
            let builder = SystemBuilder::new(TechNode::N16)
                .seed(seed)
                .sim_time_ms(ms)
                .arrival_rate(2_500.0)
                .mapper(MapperKind::Baseline)
                .testing(false);
            crate::runner::run_system(builder)
        });
    }
    for &overhead in overheads.iter() {
        for &seed in seeds.iter() {
            batch.push(format!("a3/overhead{overhead}/seed{seed}"), move || {
                let mut cfg = SystemConfig::for_node(TechNode::N16);
                cfg.seed = seed;
                cfg.horizon = manytest_sim::Duration::from_ms(ms);
                cfg.arrival_rate = 2_500.0;
                cfg.mapper = MapperKind::Baseline;
                cfg.abort_overhead = manytest_sim::Duration::from_secs_f64(overhead);
                crate::runner::run_system(SystemBuilder::from_config(cfg))
            });
        }
    }
    let reports = batch.run(jobs);
    let (baselines, sweeps) = reports.split_at(seeds.len());
    overheads
        .iter()
        .enumerate()
        .map(|(i, &overhead)| {
            let mut penalty = 0.0;
            let mut aborted = 0;
            for (j, r) in sweeps[i * seeds.len()..(i + 1) * seeds.len()].iter().enumerate() {
                penalty += r.throughput_penalty_vs(&baselines[j]);
                aborted += r.tests_aborted;
            }
            A3Row {
                overhead,
                penalty: penalty / seeds.len() as f64,
                aborted: aborted / seeds.len() as u64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A4 — V/f level rotation vs fixed-level testing on voltage-dependent faults
// ---------------------------------------------------------------------------

/// One side of the level-rotation ablation.
#[derive(Debug, Clone)]
pub struct A4Row {
    /// Test-level policy description.
    pub policy: &'static str,
    /// Faults detected (out of the injected population).
    pub detected: u64,
    /// Faults injected.
    pub injected: u64,
    /// Mean detection latency, seconds (0 when nothing detected).
    pub latency: f64,
}

/// A4: inject faults that are each observable at exactly *one* DVFS level
/// (voltage-dependent marginalities). The paper's ladder rotation finds
/// them all; testing only at nominal V/f structurally misses every fault
/// whose window lies below the top level.
pub fn a4_level_rotation(scale: Scale, jobs: usize) -> Vec<A4Row> {
    let ms = scale.ms(1_200);
    let run = move |fixed: Option<u8>| -> Report {
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        cfg.seed = 93;
        cfg.horizon = manytest_sim::Duration::from_ms(ms);
        cfg.arrival_rate = 400.0;
        cfg.injected_faults = 40;
        cfg.vf_windowed_fault_fraction = 1.0;
        cfg.test_scheduler.fixed_level = fixed;
        crate::runner::run_system(SystemBuilder::from_config(cfg))
    };
    let mut batch = Batch::new();
    batch.push("a4/ladder-rotation", move || run(None));
    batch.push("a4/nominal-only", move || run(Some(4)));
    let mut reports = batch.run(jobs).into_iter();
    let rotate = reports.next().expect("rotation run");
    let nominal_only = reports.next().expect("nominal run");
    vec![
        A4Row {
            policy: "ladder rotation (paper)",
            detected: rotate.faults_detected,
            injected: rotate.faults_injected,
            latency: rotate.mean_detection_latency,
        },
        A4Row {
            policy: "nominal V/f only",
            detected: nominal_only.faults_detected,
            injected: nominal_only.faults_injected,
            latency: nominal_only.mean_detection_latency,
        },
    ]
}

/// Prints the A4 table.
pub fn print_a4(rows: &[A4Row]) {
    println!("## A4 — level rotation vs fixed-level testing (voltage-dependent faults)");
    println!("policy                   detected  injected  mean_latency(ms)");
    for r in rows {
        println!(
            "{:<23}  {:>8}  {:>8}  {:>16.1}",
            r.policy,
            r.detected,
            r.injected,
            r.latency * 1e3
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// A5 — steady-state thermal proxy vs transient RC grid
// ---------------------------------------------------------------------------

/// One thermal-model variant's results.
#[derive(Debug, Clone)]
pub struct A5Row {
    /// Model description.
    pub model: &'static str,
    /// Mean per-core lifetime damage.
    pub mean_damage: f64,
    /// Relative damage spread (σ/µ).
    pub damage_spread: f64,
    /// Pearson r(damage, tests) — criticality adaptation strength.
    pub adaptation: f64,
    /// Peak die temperature observed, °C (NaN-free: ambient when proxy).
    pub peak_temp_c: f64,
}

fn damage_adaptation(r: &Report) -> (f64, f64, f64) {
    let n = r.damage_per_core.len() as f64;
    let mean_d = r.damage_per_core.iter().sum::<f64>() / n;
    let mean_t = r.tests_per_core.iter().map(|&t| t as f64).sum::<f64>() / n;
    let (mut cov, mut var_d, mut var_t) = (0.0, 0.0, 0.0);
    for c in 0..r.damage_per_core.len() {
        let dd = r.damage_per_core[c] - mean_d;
        let dt = r.tests_per_core[c] as f64 - mean_t;
        cov += dd * dt;
        var_d += dd * dd;
        var_t += dt * dt;
    }
    let corr = if var_d > 0.0 && var_t > 0.0 {
        cov / (var_d.sqrt() * var_t.sqrt())
    } else {
        0.0
    };
    ((var_d / n).sqrt() / mean_d, mean_d, corr)
}

/// A5: swap the steady-state thermal proxy for the transient RC grid. The
/// RC grid smears heat laterally and in time, so per-core damage spreads
/// less — but the criticality adaptation (worn cores tested more) must
/// survive the model change, showing the scheduler does not depend on the
/// proxy's sharpness.
pub fn a5_thermal_model(scale: Scale, jobs: usize) -> Vec<A5Row> {
    let ms = scale.ms(500);
    let modes = [false, true];
    let mut batch = Batch::new();
    for &transient in modes.iter() {
        batch.push(format!("a5/transient={transient}"), move || {
            let builder = SystemBuilder::new(TechNode::N16)
                .seed(94)
                .sim_time_ms(ms)
                .arrival_rate(2_000.0)
                .transient_thermal(transient);
            crate::runner::run_system(builder)
        });
    }
    modes
        .iter()
        .zip(batch.run(jobs))
        .map(|(&transient, r)| {
            let (spread, mean, corr) = damage_adaptation(&r);
            let peak_temp_c = r
                .trace
                .series("max_temp_k")
                .and_then(|s| s.max_value())
                .map(|k| k - 273.15)
                .unwrap_or(45.0);
            A5Row {
                model: if transient {
                    "transient RC grid"
                } else {
                    "steady-state proxy"
                },
                mean_damage: mean,
                damage_spread: spread,
                adaptation: corr,
                peak_temp_c,
            }
        })
        .collect()
}

/// Prints the A5 table.
pub fn print_a5(rows: &[A5Row]) {
    println!("## A5 — thermal model ablation (16 nm, 2000 apps/s)");
    println!("model               mean_damage  spread(σ/µ)  r(damage,tests)  peak_T(°C)");
    for r in rows {
        println!(
            "{:<18}  {:>11.4}  {:>10.1}%  {:>15.3}  {:>10.1}",
            r.model,
            r.mean_damage,
            r.damage_spread * 100.0,
            r.adaptation,
            r.peak_temp_c
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// A6 — NoC contention model on/off
// ---------------------------------------------------------------------------

/// One side of the contention ablation.
#[derive(Debug, Clone)]
pub struct A6Row {
    /// True = queueing-delay contention enabled.
    pub contention: bool,
    /// Throughput, MIPS.
    pub mips: f64,
    /// Mean application latency, seconds.
    pub app_latency: f64,
    /// Peak link load observed (0 when the model is off).
    pub peak_link_load: f64,
}

/// A6: enabling the queueing-delay contention model inflates message
/// latencies where links run hot. At the evaluation's loads the effect is
/// small (contiguous mapping keeps links cool), which *validates* the
/// zero-load default used for the headline experiments.
pub fn a6_contention(scale: Scale, jobs: usize) -> Vec<A6Row> {
    let ms = scale.ms(300);
    let modes = [false, true];
    let mut batch = Batch::new();
    for &contention in modes.iter() {
        batch.push(format!("a6/contention={contention}"), move || {
            let builder = SystemBuilder::new(TechNode::N16)
                .seed(95)
                .sim_time_ms(ms)
                .arrival_rate(3_000.0)
                .model_contention(contention);
            crate::runner::run_system(builder)
        });
    }
    modes
        .iter()
        .zip(batch.run(jobs))
        .map(|(&contention, r)| A6Row {
            contention,
            mips: r.throughput_mips,
            app_latency: r.mean_app_latency,
            peak_link_load: r
                .trace
                .series("peak_link_load")
                .and_then(|s| s.max_value())
                .unwrap_or(0.0),
        })
        .collect()
}

/// Prints the A6 table.
pub fn print_a6(rows: &[A6Row]) {
    println!("## A6 — NoC contention model (16 nm, 3000 apps/s)");
    println!("contention  MIPS      app_latency(ms)  peak_link_load");
    for r in rows {
        println!(
            "{:<10}  {:>8.0}  {:>15.2}  {:>14.3}",
            if r.contention { "on" } else { "off" },
            r.mips,
            r.app_latency * 1e3,
            r.peak_link_load
        );
    }
    println!();
}

/// Prints the A3 table.
pub fn print_a3(rows: &[A3Row]) {
    println!("## A3 — abort-overhead sensitivity (16 nm, 2500 apps/s, baseline mapper)");
    println!("overhead(us)  penalty%   aborted");
    for r in rows {
        println!(
            "{:>11.0}  {:>8.3}  {:>8}",
            r.overhead * 1e6,
            r.penalty * 100.0,
            r.aborted
        );
    }
    println!();
}
