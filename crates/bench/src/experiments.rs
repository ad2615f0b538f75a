//! The twelve experiments (E1–E12) of the reconstructed evaluation.
//!
//! Every driver takes a `jobs` worker count and submits its independent
//! simulation runs to one [`Batch`]; results come back in submission
//! order, so the folded tables are identical for any `jobs` value (`1`
//! reproduces the old serial loops exactly).

use crate::runner::Batch;
use crate::Scale;
use manytest_core::prelude::*;
use manytest_power::TechNode;

fn build(node: TechNode, seed: u64, ms: u64, rate: f64) -> SystemBuilder {
    SystemBuilder::new(node)
        .seed(seed)
        .sim_time_ms(ms)
        .arrival_rate(rate)
}

// ---------------------------------------------------------------------------
// E1 — throughput penalty of online testing vs technology node
// ---------------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Row {
    /// Technology node.
    pub node: TechNode,
    /// Core count at that node.
    pub cores: usize,
    /// Static dark-silicon fraction.
    pub dark_fraction: f64,
    /// Throughput without testing, MIPS.
    pub mips_off: f64,
    /// Throughput with testing, MIPS.
    pub mips_on: f64,
    /// Relative penalty (positive = testing costs throughput).
    pub penalty: f64,
    /// Tests completed in the tested run.
    pub tests: u64,
}

/// E1: run every node with testing on/off and report the penalty.
///
/// Submission order: node-major, then seed, testing-off before testing-on.
pub fn e1_tech_sweep(scale: Scale, jobs: usize) -> Vec<E1Row> {
    let ms = scale.ms(300);
    let seeds = scale.seeds(3);
    let mut batch = Batch::new();
    for &node in TechNode::ALL.iter() {
        for s in 0..seeds as u64 {
            for testing in [false, true] {
                batch.push(format!("e1/{node}/seed{s}/testing={testing}"), move || {
                    crate::runner::run_system(build(node, 10 + s, ms, 3_000.0).testing(testing))
                });
            }
        }
    }
    let mut reports = batch.run(jobs).into_iter();
    TechNode::ALL
        .iter()
        .map(|&node| {
            let mut mips_off = 0.0;
            let mut mips_on = 0.0;
            let mut tests = 0;
            for _s in 0..seeds {
                let base = reports.next().expect("one off-run per (node, seed)");
                let tested = reports.next().expect("one on-run per (node, seed)");
                mips_off += base.throughput_mips;
                mips_on += tested.throughput_mips;
                tests += tested.tests_completed;
            }
            mips_off /= seeds as f64;
            mips_on /= seeds as f64;
            E1Row {
                node,
                cores: node.core_count(),
                dark_fraction: node.dark_silicon_fraction(),
                mips_off,
                mips_on,
                penalty: (mips_off - mips_on) / mips_off,
                tests: tests / seeds as u64,
            }
        })
        .collect()
}

/// Prints the E1 table.
pub fn print_e1(rows: &[E1Row]) {
    println!("## E1 — throughput penalty of online testing vs technology node");
    println!("node   cores  dark%   MIPS(no test)  MIPS(test)  penalty%  tests");
    for r in rows {
        println!(
            "{:<5}  {:>5}  {:>5.1}  {:>13.0}  {:>10.0}  {:>7.2}%  {:>5}",
            r.node.to_string(),
            r.cores,
            r.dark_fraction * 100.0,
            r.mips_off,
            r.mips_on,
            r.penalty * 100.0,
            r.tests
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E2 — chip power trace under the TDP cap
// ---------------------------------------------------------------------------

/// The E2 result: a downsampled power trace plus compliance stats.
#[derive(Debug, Clone)]
pub struct E2Trace {
    /// `(t, workload_w, test_w, total_w, cap_w)` samples.
    pub samples: Vec<(f64, f64, f64, f64, f64)>,
    /// Configured TDP, watts.
    pub tdp: f64,
    /// Epochs above the TDP.
    pub violations: u64,
    /// Peak epoch power, watts.
    pub peak: f64,
}

/// E2: a bursty 16 nm run; the trace shows test power filling workload
/// troughs while the total stays under the (PID-governed) cap.
pub fn e2_power_trace(scale: Scale, jobs: usize) -> E2Trace {
    let ms = scale.ms(400);
    let mut batch = Batch::new();
    batch.push("e2/trace", move || {
        crate::runner::run_system(build(TechNode::N16, 5, ms, 2_000.0))
    });
    let report = batch.run(jobs).pop().expect("one run");
    let workload = report.trace.series("workload_power_w").expect("series");
    let test = report.trace.series("test_power_w").expect("series");
    let total = report.trace.series("power_w").expect("series");
    let cap = report.trace.series("cap_w").expect("series");
    let n = workload.len().min(40);
    let w = workload.downsample(n);
    let te = test.downsample(n);
    let to = total.downsample(n);
    let ca = cap.downsample(n);
    let samples = (0..w.len())
        .map(|i| {
            (
                w.points()[i].0,
                w.points()[i].1,
                te.points()[i].1,
                to.points()[i].1,
                ca.points()[i].1,
            )
        })
        .collect();
    E2Trace {
        samples,
        tdp: report.tdp,
        violations: report.cap_violations,
        peak: report.peak_power,
    }
}

/// Prints the E2 trace.
pub fn print_e2(t: &E2Trace) {
    println!("## E2 — chip power trace (16 nm, bursty load, TDP {} W)", t.tdp);
    println!("t(ms)   workload_W  test_W  total_W  cap_W");
    for &(ts, w, te, to, ca) in &t.samples {
        println!(
            "{:>6.1}  {:>10.2}  {:>6.2}  {:>7.2}  {:>6.1}",
            ts * 1e3,
            w,
            te,
            to,
            ca
        );
    }
    println!(
        "peak {:.1} W, {} epochs above TDP (target: 0)",
        t.peak, t.violations
    );
    println!();
}

// ---------------------------------------------------------------------------
// E3 — fraction of consumed power dedicated to testing vs load
// ---------------------------------------------------------------------------

/// One row of the E3 sweep.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Application arrival rate, apps/second.
    pub rate: f64,
    /// Mean chip power, watts.
    pub mean_power: f64,
    /// Test share of consumed energy.
    pub test_share: f64,
    /// Tests completed.
    pub tests: u64,
}

/// E3: sweep the arrival rate and report the test-energy share (the TC'16
/// abstract anchors this at ≈ 2 % of consumed power at realistic load).
pub fn e3_test_power_share(scale: Scale, jobs: usize) -> Vec<E3Row> {
    let ms = scale.ms(300);
    let rates = [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0];
    let mut batch = Batch::new();
    for &rate in rates.iter() {
        batch.push(format!("e3/rate{rate}"), move || {
            crate::runner::run_system(build(TechNode::N16, 21, ms, rate))
        });
    }
    rates
        .iter()
        .zip(batch.run(jobs))
        .map(|(&rate, r)| E3Row {
            rate,
            mean_power: r.mean_power,
            test_share: r.test_energy_share,
            tests: r.tests_completed,
        })
        .collect()
}

/// Prints the E3 table.
pub fn print_e3(rows: &[E3Row]) {
    println!("## E3 — test share of consumed power vs load (16 nm)");
    println!("apps/s   mean_W   test_share%   tests");
    for r in rows {
        println!(
            "{:>6.0}  {:>7.2}  {:>11.2}  {:>6}",
            r.rate,
            r.mean_power,
            r.test_share * 100.0,
            r.tests
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — mean test interval vs load
// ---------------------------------------------------------------------------

/// One row of the E4 sweep.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Application arrival rate, apps/second.
    pub rate: f64,
    /// Mean same-core test interval, seconds.
    pub mean_interval: f64,
    /// Max same-core test interval, seconds.
    pub max_interval: f64,
    /// Minimum completed tests over cores.
    pub min_tests: u64,
    /// Sessions aborted (non-intrusive preemption).
    pub aborted: u64,
}

/// E4: test intervals grow with load (fewer idle cores, less headroom) but
/// stay bounded — the scheduler keeps exploiting temporarily free cores.
pub fn e4_test_interval_vs_load(scale: Scale, jobs: usize) -> Vec<E4Row> {
    let ms = scale.ms(400);
    let rates = [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0];
    let mut batch = Batch::new();
    for &rate in rates.iter() {
        batch.push(format!("e4/rate{rate}"), move || {
            crate::runner::run_system(build(TechNode::N16, 33, ms, rate))
        });
    }
    rates
        .iter()
        .zip(batch.run(jobs))
        .map(|(&rate, r)| E4Row {
            rate,
            mean_interval: r.mean_test_interval,
            max_interval: r.max_test_interval,
            min_tests: r.min_tests_per_core,
            aborted: r.tests_aborted,
        })
        .collect()
}

/// Prints the E4 table.
pub fn print_e4(rows: &[E4Row]) {
    println!("## E4 — test interval vs load (16 nm)");
    println!("apps/s   mean_interval(ms)  max_interval(ms)  min_tests/core  aborted");
    for r in rows {
        println!(
            "{:>6.0}  {:>17.1}  {:>16.1}  {:>14}  {:>7}",
            r.rate,
            r.mean_interval * 1e3,
            r.max_interval * 1e3,
            r.min_tests,
            r.aborted
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — mapping comparison: baseline vs test-aware (TUM)
// ---------------------------------------------------------------------------

/// Aggregated metrics for one mapper.
#[derive(Debug, Clone)]
pub struct E5Side {
    /// Mapper under measurement.
    pub mapper: MapperKind,
    /// Mean throughput, MIPS.
    pub mips: f64,
    /// Mean tests completed.
    pub tests: f64,
    /// Mean aborted sessions.
    pub aborted: f64,
    /// Mean of mean same-core test intervals, seconds.
    pub mean_interval: f64,
    /// Mean of max same-core test intervals, seconds.
    pub max_interval: f64,
    /// Mean of the per-run minimum tests on any core.
    pub min_tests: f64,
    /// Mean weighted hop cost per app.
    pub hop_cost: f64,
}

/// E5: same workload/seeds under all three mappers (first-fit lower
/// bound, contiguous baseline, test-aware).
///
/// Submission order: mapper-major, then seed.
pub fn e5_mapping_compare(scale: Scale, jobs: usize) -> Vec<E5Side> {
    let ms = scale.ms(300);
    let seeds = scale.seeds(3);
    let kinds = [MapperKind::FirstFit, MapperKind::Baseline, MapperKind::TestAware];
    let mut batch = Batch::new();
    for &kind in kinds.iter() {
        for s in 0..seeds as u64 {
            batch.push(format!("e5/{kind:?}/seed{s}"), move || {
                crate::runner::run_system(build(TechNode::N16, 40 + s, ms, 2_500.0).mapper(kind))
            });
        }
    }
    let reports = batch.run(jobs);
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut acc = E5Side {
                mapper: kind,
                mips: 0.0,
                tests: 0.0,
                aborted: 0.0,
                mean_interval: 0.0,
                max_interval: 0.0,
                min_tests: 0.0,
                hop_cost: 0.0,
            };
            for r in &reports[i * seeds..(i + 1) * seeds] {
                acc.mips += r.throughput_mips;
                acc.tests += r.tests_completed as f64;
                acc.aborted += r.tests_aborted as f64;
                acc.mean_interval += r.mean_test_interval;
                acc.max_interval += r.max_test_interval;
                acc.min_tests += r.min_tests_per_core as f64;
                acc.hop_cost += r.mean_hop_cost;
            }
            let n = seeds as f64;
            acc.mips /= n;
            acc.tests /= n;
            acc.aborted /= n;
            acc.mean_interval /= n;
            acc.max_interval /= n;
            acc.min_tests /= n;
            acc.hop_cost /= n;
            acc
        })
        .collect()
}

/// Prints the E5 table.
pub fn print_e5(sides: &[E5Side]) {
    println!("## E5 — mapping comparison at high load (16 nm, 2500 apps/s)");
    print!("{:<25}", "metric");
    for s in sides {
        print!("  {:>16}", format!("{:?}", s.mapper));
    }
    println!();
    let rows: [(&str, fn(&E5Side) -> f64); 7] = [
        ("throughput (MIPS)", |s| s.mips),
        ("tests completed", |s| s.tests),
        ("tests aborted", |s| s.aborted),
        ("mean test interval (ms)", |s| s.mean_interval * 1e3),
        ("max test interval (ms)", |s| s.max_interval * 1e3),
        ("min tests on any core", |s| s.min_tests),
        ("hop cost (bit-hops/app)", |s| s.hop_cost),
    ];
    for (name, f) in rows {
        print!("{name:<25}");
        for s in sides {
            print!("  {:>16.1}", f(s));
        }
        println!();
    }
    println!();
}

// ---------------------------------------------------------------------------
// E6 — criticality adaptation: stressed cores get tested more
// ---------------------------------------------------------------------------

/// The E6 result: cores bucketed by lifetime damage.
#[derive(Debug, Clone)]
pub struct E6Adaptation {
    /// Mean tests per core for each damage quintile (least → most worn).
    pub tests_by_damage_quintile: Vec<f64>,
    /// Pearson correlation between per-core damage and test count.
    pub correlation: f64,
}

/// E6: at moderate load, the stress term of the criticality metric makes
/// worn cores test more often; quintile means should rise monotonically.
pub fn e6_criticality_adaptation(scale: Scale, jobs: usize) -> E6Adaptation {
    let ms = scale.ms(500);
    let mut batch = Batch::new();
    batch.push("e6/adaptation", move || {
        crate::runner::run_system(build(TechNode::N16, 55, ms, 2_000.0))
    });
    let r = batch.run(jobs).pop().expect("one run");
    let n = r.damage_per_core.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        r.damage_per_core[a]
            .partial_cmp(&r.damage_per_core[b])
            .expect("damage is finite")
    });
    let quintile = n / 5;
    let tests_by_damage_quintile: Vec<f64> = (0..5)
        .map(|q| {
            let lo = q * quintile;
            let hi = if q == 4 { n } else { (q + 1) * quintile };
            order[lo..hi]
                .iter()
                .map(|&c| r.tests_per_core[c] as f64)
                .sum::<f64>()
                / (hi - lo) as f64
        })
        .collect();
    let mean_d = r.damage_per_core.iter().sum::<f64>() / n as f64;
    let mean_t = r.tests_per_core.iter().map(|&t| t as f64).sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_d = 0.0;
    let mut var_t = 0.0;
    for c in 0..n {
        let dd = r.damage_per_core[c] - mean_d;
        let dt = r.tests_per_core[c] as f64 - mean_t;
        cov += dd * dt;
        var_d += dd * dd;
        var_t += dt * dt;
    }
    let correlation = if var_d > 0.0 && var_t > 0.0 {
        cov / (var_d.sqrt() * var_t.sqrt())
    } else {
        0.0
    };
    E6Adaptation {
        tests_by_damage_quintile,
        correlation,
    }
}

/// Prints the E6 result.
pub fn print_e6(a: &E6Adaptation) {
    println!("## E6 — criticality adaptation (tests follow stress)");
    println!("damage quintile (least→most worn):  mean tests/core");
    for (q, t) in a.tests_by_damage_quintile.iter().enumerate() {
        println!("  Q{}  {:>6.2}", q + 1, t);
    }
    println!("Pearson r(damage, tests) = {:.3}", a.correlation);
    println!();
}

// ---------------------------------------------------------------------------
// E7 — DVFS-level coverage of tests
// ---------------------------------------------------------------------------

/// The E7 result.
#[derive(Debug, Clone)]
pub struct E7Coverage {
    /// Completed routines per DVFS level (lowest first).
    pub tests_per_level: Vec<u64>,
    /// Every core tested at every level at least once?
    pub full_coverage: bool,
    /// Cores × levels.
    pub cells: usize,
}

/// E7: a long, lightly loaded run must distribute tests over all V/f
/// levels (the journal's "cover all the voltage and frequency levels").
pub fn e7_vf_coverage(scale: Scale, jobs: usize) -> E7Coverage {
    let ms = scale.ms(800);
    let mut batch = Batch::new();
    batch.push("e7/coverage", move || {
        crate::runner::run_system(build(TechNode::N16, 60, ms, 500.0))
    });
    let r = batch.run(jobs).pop().expect("one run");
    E7Coverage {
        cells: r.tests_per_core.len() * r.tests_per_level.len(),
        tests_per_level: r.tests_per_level,
        full_coverage: r.full_vf_coverage,
    }
}

/// Prints the E7 histogram.
pub fn print_e7(c: &E7Coverage) {
    println!("## E7 — test distribution over DVFS levels (16 nm)");
    println!("level  tests");
    for (l, t) in c.tests_per_level.iter().enumerate() {
        println!("  L{l}   {t:>6}");
    }
    println!(
        "full per-core × per-level coverage: {} ({} cells)",
        c.full_coverage, c.cells
    );
    println!();
}

// ---------------------------------------------------------------------------
// E8 — PID power budgeting vs baselines
// ---------------------------------------------------------------------------

/// One governor's results.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Governor under measurement.
    pub governor: GovernorKind,
    /// Mean throughput, MIPS.
    pub mips: f64,
    /// Mean chip power, watts.
    pub mean_power: f64,
    /// Peak epoch power, watts.
    pub peak_power: f64,
    /// Epochs above TDP.
    pub violations: u64,
    /// Tests completed.
    pub tests: u64,
}

/// E8: under saturating demand, the PID governor extracts more throughput
/// from the same TDP than the naive bang-bang policy (ICCD'14's >43 %
/// claim is about exactly this gap).
pub fn e8_pid_vs_naive(scale: Scale, jobs: usize) -> Vec<E8Row> {
    let ms = scale.ms(300);
    let governors = [GovernorKind::Pid, GovernorKind::Naive, GovernorKind::FixedTdp];
    let mut batch = Batch::new();
    for &g in governors.iter() {
        batch.push(format!("e8/{g:?}"), move || {
            crate::runner::run_system(build(TechNode::N16, 70, ms, 6_000.0).governor(g))
        });
    }
    governors
        .iter()
        .zip(batch.run(jobs))
        .map(|(&g, r)| E8Row {
            governor: g,
            mips: r.throughput_mips,
            mean_power: r.mean_power,
            peak_power: r.peak_power,
            violations: r.cap_violations,
            tests: r.tests_completed,
        })
        .collect()
}

/// Prints the E8 table.
pub fn print_e8(rows: &[E8Row]) {
    println!("## E8 — power governors under saturating demand (16 nm, TDP 80 W)");
    println!("governor   MIPS      mean_W  peak_W  violations  tests");
    for r in rows {
        println!(
            "{:<9}  {:>8.0}  {:>6.1}  {:>6.1}  {:>10}  {:>5}",
            format!("{:?}", r.governor),
            r.mips,
            r.mean_power,
            r.peak_power,
            r.violations,
            r.tests
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E9 — the dark-silicon premise
// ---------------------------------------------------------------------------

/// One node's dark-silicon numbers.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Technology node.
    pub node: TechNode,
    /// Cores at fixed die area.
    pub cores: usize,
    /// Peak chip demand if everything ran at nominal, watts.
    pub peak_demand: f64,
    /// Fixed TDP, watts.
    pub tdp: f64,
    /// Static dark fraction.
    pub dark_fraction: f64,
    /// Measured mean power under saturating load, watts.
    pub measured_mean: f64,
}

/// E9: the context figure — demand outgrows the fixed TDP with scaling.
pub fn e9_dark_silicon(scale: Scale, jobs: usize) -> Vec<E9Row> {
    let ms = scale.ms(200);
    let mut batch = Batch::new();
    for &node in TechNode::ALL.iter() {
        batch.push(format!("e9/{node}"), move || {
            crate::runner::run_system(build(node, 80, ms, 8_000.0).testing(false))
        });
    }
    TechNode::ALL
        .iter()
        .zip(batch.run(jobs))
        .map(|(&node, r)| E9Row {
            node,
            cores: node.core_count(),
            peak_demand: node.peak_power_all_cores(),
            tdp: node.params().tdp,
            dark_fraction: node.dark_silicon_fraction(),
            measured_mean: r.mean_power,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E10 — lifetime extension through wear-aware mapping (extension experiment)
// ---------------------------------------------------------------------------

/// The E10 result: weakest-link lifetime proxies under both mappers.
#[derive(Debug, Clone)]
pub struct E10Lifetime {
    /// Damage rate of the most worn core under the baseline mapper,
    /// damage/second (averaged over seeds).
    pub baseline_worst_rate: f64,
    /// Same under the test-aware utilization-oriented mapper.
    pub tum_worst_rate: f64,
    /// Relative damage spread (σ/µ) under the baseline.
    pub baseline_spread: f64,
    /// Relative damage spread under TUM.
    pub tum_spread: f64,
    /// Estimated lifetime gain: `baseline_worst / tum_worst − 1`.
    pub lifetime_gain: f64,
}

/// E10 (extension): a chip dies when its *first* core wears out, so
/// lifetime scales inversely with the worst per-core damage rate. The
/// utilization term of the paper's mapper levels wear; this experiment
/// quantifies the resulting weakest-link lifetime gain (the theme the
/// same group develops into DATE'16's lifetime-aware mapping, which
/// reports up to 62 % with a mapper optimised purely for lifetime).
///
/// Submission order: mapper-major (baseline, then TUM), then seed.
pub fn e10_lifetime(scale: Scale, jobs: usize) -> E10Lifetime {
    let ms = scale.ms(800);
    let seeds = scale.seeds(3);
    let kinds = [MapperKind::Baseline, MapperKind::TestAware];
    let mut batch = Batch::new();
    for &kind in kinds.iter() {
        for s in 0..seeds as u64 {
            batch.push(format!("e10/{kind:?}/seed{s}"), move || {
                crate::runner::run_system(build(TechNode::N16, 100 + s, ms, 1_500.0).mapper(kind))
            });
        }
    }
    let reports = batch.run(jobs);
    let mut worst = [0.0f64; 2];
    let mut spread = [0.0f64; 2];
    for (i, _) in kinds.iter().enumerate() {
        for r in &reports[i * seeds..(i + 1) * seeds] {
            let rates: Vec<f64> = r
                .damage_per_core
                .iter()
                .map(|d| d / r.sim_seconds)
                .collect();
            let n = rates.len() as f64;
            let mean = rates.iter().sum::<f64>() / n;
            let var = rates.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            worst[i] += rates.iter().fold(0.0f64, |a, &b| a.max(b));
            spread[i] += var.sqrt() / mean;
        }
        worst[i] /= seeds as f64;
        spread[i] /= seeds as f64;
    }
    E10Lifetime {
        baseline_worst_rate: worst[0],
        tum_worst_rate: worst[1],
        baseline_spread: spread[0],
        tum_spread: spread[1],
        lifetime_gain: worst[0] / worst[1] - 1.0,
    }
}

/// Prints the E10 result.
pub fn print_e10(l: &E10Lifetime) {
    println!("## E10 — weakest-link lifetime under wear-aware mapping (extension)");
    println!(
        "baseline: worst core wears at {:.4}/s (spread {:.1}%)",
        l.baseline_worst_rate,
        l.baseline_spread * 100.0
    );
    println!(
        "TUM:      worst core wears at {:.4}/s (spread {:.1}%)",
        l.tum_worst_rate,
        l.tum_spread * 100.0
    );
    println!(
        "estimated weakest-link lifetime gain: {:+.1}%",
        l.lifetime_gain * 100.0
    );
    println!();
}

/// Prints the E9 table.
pub fn print_e9(rows: &[E9Row]) {
    println!("## E9 — dark silicon across technology nodes (fixed area & TDP)");
    println!("node   cores  peak_demand_W  TDP_W  dark%   measured_mean_W(saturated)");
    for r in rows {
        println!(
            "{:<5}  {:>5}  {:>13.1}  {:>5.0}  {:>5.1}  {:>10.1}",
            r.node.to_string(),
            r.cores,
            r.peak_demand,
            r.tdp,
            r.dark_fraction * 100.0,
            r.measured_mean
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E11 — fault response: quarantine, victim handling, graceful degradation
// ---------------------------------------------------------------------------

/// The four victim-handling policies E11 sweeps, in print order.
pub const E11_POLICIES: [FaultResponsePolicy; 4] = [
    FaultResponsePolicy::Ignore,
    FaultResponsePolicy::Abort,
    FaultResponsePolicy::RestartElsewhere,
    FaultResponsePolicy::MigrateRegion,
];

/// One row of the E11 table: seed-averaged outcomes for one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Row {
    /// Victim-handling policy under test.
    pub policy: FaultResponsePolicy,
    /// Mean cores quarantined by the end of the run.
    pub quarantined: f64,
    /// Mean healthy cores remaining at the end of the run.
    pub healthy_end: f64,
    /// Mean throughput, MIPS.
    pub mips: f64,
    /// Mean victim applications aborted by a quarantine.
    pub aborted: f64,
    /// Mean victim applications restarted elsewhere.
    pub restarted: f64,
    /// Mean victim applications migrated in place.
    pub migrated: f64,
    /// Mean corruption exposure: core-seconds of application work
    /// executed on a core carrying an active fault.
    pub exposure: f64,
}

/// E11: close the detect→respond loop. Injects the same solid faults
/// under each victim-handling policy and reports what quarantining costs
/// (capacity, throughput, victim churn) and buys (corruption exposure).
///
/// Submission order: policy-major, then seed.
pub fn e11_fault_response(scale: Scale, jobs: usize) -> Vec<E11Row> {
    let ms = scale.ms(400);
    let seeds = scale.seeds(3);
    let mut batch = Batch::new();
    for &policy in &E11_POLICIES {
        for s in 0..seeds as u64 {
            batch.push(format!("e11/{policy}/seed{s}"), move || {
                crate::runner::run_system(
                    build(TechNode::N22, 110 + s, ms, 2_000.0)
                        .injected_faults(8)
                        .fault_response(policy),
                )
            });
        }
    }
    let mut reports = batch.run(jobs).into_iter();
    E11_POLICIES
        .iter()
        .map(|&policy| {
            let mut row = E11Row {
                policy,
                quarantined: 0.0,
                healthy_end: 0.0,
                mips: 0.0,
                aborted: 0.0,
                restarted: 0.0,
                migrated: 0.0,
                exposure: 0.0,
            };
            for _s in 0..seeds {
                let r = reports.next().expect("one run per (policy, seed)");
                row.quarantined += r.cores_quarantined as f64;
                row.healthy_end += r.healthy_cores_end as f64;
                row.mips += r.throughput_mips;
                row.aborted += r.apps_aborted as f64;
                row.restarted += r.apps_restarted as f64;
                row.migrated += r.apps_migrated as f64;
                row.exposure += r.corruption_exposure;
            }
            let n = seeds as f64;
            row.quarantined /= n;
            row.healthy_end /= n;
            row.mips /= n;
            row.aborted /= n;
            row.restarted /= n;
            row.migrated /= n;
            row.exposure /= n;
            row
        })
        .collect()
}

/// Prints the E11 table.
pub fn print_e11(rows: &[E11Row]) {
    println!("## E11 — fault response: quarantine cost vs corruption exposure");
    println!("policy    quarantined  healthy_end       MIPS  aborted  restarted  migrated  exposure_cs");
    for r in rows {
        println!(
            "{:<8}  {:>11.1}  {:>11.1}  {:>9.0}  {:>7.1}  {:>9.1}  {:>8.1}  {:>11.4}",
            r.policy.as_str(),
            r.quarantined,
            r.healthy_end,
            r.mips,
            r.aborted,
            r.restarted,
            r.migrated,
            r.exposure
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E12 — core lifecycle: re-admission lane × checkpoint cadence
// ---------------------------------------------------------------------------

/// The re-admission lane settings E12 sweeps: probe cadence in µs, with
/// `None` the terminal-quarantine baseline (lane off).
pub const E12_LANES: [Option<u64>; 2] = [None, Some(3_000)];

/// The checkpoint intervals E12 sweeps, µs (0 = checkpointing off:
/// migrations transfer the full state accumulated since mapping).
pub const E12_CHECKPOINTS: [u64; 3] = [0, 20_000, 2_000];

/// One row of the E12 table: seed-averaged lifecycle outcomes for one
/// (lane, checkpoint interval) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Row {
    /// Probe cadence, µs (`None` = lane off, quarantine terminal).
    pub lane_us: Option<u64>,
    /// Checkpoint interval, µs (0 = off).
    pub checkpoint_us: u64,
    /// Mean cores ever quarantined.
    pub quarantined: f64,
    /// Mean cores re-admitted by the lane.
    pub readmitted: f64,
    /// Mean probes launched.
    pub probes: f64,
    /// Mean healthy cores remaining at the end of the run.
    pub healthy_end: f64,
    /// Mean throughput, MIPS.
    pub mips: f64,
    /// Mean checkpoint images written.
    pub checkpoints: f64,
    /// Mean corruption exposure, core-seconds.
    pub exposure: f64,
}

/// E12: the full core lifecycle on an intermittent-fault workload whose
/// faults *cool* a quarter-horizon after injection. Sweeps the
/// re-admission lane (off = terminal quarantine vs a 3 ms probe cadence)
/// against the checkpoint cadence, reporting how much withdrawn capacity
/// the lane recovers, what it costs in corruption exposure, and how the
/// checkpoint interval trades migration debt against pause overhead.
///
/// Submission order: lane-major, then checkpoint interval, then seed.
pub fn e12_core_lifecycle(scale: Scale, jobs: usize) -> Vec<E12Row> {
    let ms = scale.ms(400);
    let seeds = scale.seeds(3);
    let mut batch = Batch::new();
    for &lane in &E12_LANES {
        for &ck in &E12_CHECKPOINTS {
            for s in 0..seeds as u64 {
                batch.push(
                    format!(
                        "e12/lane-{}/ckpt-{ck}/seed{s}",
                        lane.map_or("off".to_owned(), |us| us.to_string())
                    ),
                    move || {
                        let mut b = build(TechNode::N22, 120 + s, ms, 1_000.0)
                            .injected_faults(32)
                            .intermittent_faults(1.0)
                            .intermittent_cooldown(0.25)
                            .fault_response(FaultResponsePolicy::MigrateRegion)
                            .checkpoint_interval_us(ck);
                        if let Some(us) = lane {
                            b = b.probe_cadence_us(us);
                        }
                        crate::runner::run_system(b)
                    },
                );
            }
        }
    }
    let mut reports = batch.run(jobs).into_iter();
    let mut rows = Vec::new();
    for &lane in &E12_LANES {
        for &ck in &E12_CHECKPOINTS {
            let mut row = E12Row {
                lane_us: lane,
                checkpoint_us: ck,
                quarantined: 0.0,
                readmitted: 0.0,
                probes: 0.0,
                healthy_end: 0.0,
                mips: 0.0,
                checkpoints: 0.0,
                exposure: 0.0,
            };
            for _s in 0..seeds {
                let r = reports.next().expect("one run per (lane, ckpt, seed)");
                row.quarantined += r.cores_quarantined as f64;
                row.readmitted += r.cores_readmitted as f64;
                row.probes += r.probes_launched as f64;
                row.healthy_end += r.healthy_cores_end as f64;
                row.mips += r.throughput_mips;
                row.checkpoints += r.apps_checkpointed as f64;
                row.exposure += r.corruption_exposure;
            }
            let n = seeds as f64;
            row.quarantined /= n;
            row.readmitted /= n;
            row.probes /= n;
            row.healthy_end /= n;
            row.mips /= n;
            row.checkpoints /= n;
            row.exposure /= n;
            rows.push(row);
        }
    }
    rows
}

/// Prints the E12 table.
pub fn print_e12(rows: &[E12Row]) {
    println!("## E12 — core lifecycle: re-admission lane x checkpoint cadence");
    println!("lane_us  ckpt_us  quarantined  readmitted  probes  healthy_end       MIPS  checkpoints  exposure_cs");
    for r in rows {
        println!(
            "{:>7}  {:>7}  {:>11.1}  {:>10.1}  {:>6.1}  {:>11.1}  {:>9.0}  {:>11.1}  {:>11.4}",
            r.lane_us.map_or("off".to_owned(), |us| us.to_string()),
            r.checkpoint_us,
            r.quarantined,
            r.readmitted,
            r.probes,
            r.healthy_end,
            r.mips,
            r.checkpoints,
            r.exposure
        );
    }
    println!();
}
