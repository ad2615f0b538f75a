//! Layer probes: each hot layer function timed in isolation on a fixture
//! drawn from the seed, so a change to one layer shows in its own number.
//!
//! The work counts are the outside view of the search and placement cost:
//! `cells` counts the `is_free` plus `node_score` closure calls of one
//! `RegionSearch::find`, and `candidates` the `node_penalty` calls of one
//! `contiguous::place`. Counting runs in a separate untimed pass, so the
//! timed calls use the same closures the test-aware mapper does.

use crate::calibrate::Reference;
use crate::clock::now_ns;
use crate::outcome::{Kind, Outcome};
use crate::stats::median;
use manytest_aging::{ThermalGrid, ThermalParams};
use manytest_map::{contiguous, MapContext, Mapper, Mapping, TestAwareMapper};
use manytest_noc::{Coord, Mesh2D, RegionSearch};
use manytest_power::TechNode;
use manytest_sbst::{RoutineLibrary, TestCandidate, TestScheduler, TestSchedulerConfig};
use manytest_sim::{EventQueue, SimRng, SimTime};
use manytest_workload::{presets, TaskGraph};
use std::cell::Cell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mesh edge of every probe fixture (4096 cores, like `admit64`).
const EDGE: u16 = 64;
/// Repetitions of the map and NoC probes.
const MAP_REPS: usize = 20;
/// Thermal-grid steps of 1 ms.
const THERMAL_STEPS: usize = 1000;
/// Scheduler planning passes.
const PLAN_REPS: usize = 200;
/// Power headroom the scheduler plans against, watts.
const PLAN_HEADROOM_W: f64 = 20.0;
/// Event-queue repetitions, epochs per repetition and events per epoch.
const QUEUE_REPS: usize = 5;
const QUEUE_EPOCHS: u64 = 2000;
const QUEUE_EVENTS: usize = 64;
const EPOCH_NS: u64 = 1_000_000;

/// Runs every probe batch; `reps_cap` limits repetitions (smoke runs).
pub fn run_probes(seed: u64, reps_cap: Option<usize>, out: &mut Outcome) {
    let cap = |n: usize| reps_cap.map_or(n, |c| c.min(n).max(1));
    let mut rng = SimRng::seed_from(seed);
    let reference = &mut Reference::default();
    for (label, busy) in [("sparse", 0.03), ("half", 0.5)] {
        let ctx = map_fixture(&mut rng, busy);
        batch(out, reference, label, || {
            map_probe(&ctx, label, cap(MAP_REPS))
        });
    }
    let powers: Vec<f64> = (0..usize::from(EDGE).pow(2))
        .map(|_| rng.gen_f64_range(0.0, 0.5))
        .collect();
    batch(out, reference, "thermal", || {
        thermal_probe(&powers, cap(THERMAL_STEPS))
    });
    let candidates: Vec<TestCandidate> = (0..usize::from(EDGE).pow(2))
        .map(|core| TestCandidate {
            core,
            criticality: rng.gen_f64_range(0.0, 3.0),
        })
        .collect();
    batch(out, reference, "scheduler", || {
        plan_probe(&candidates, cap(PLAN_REPS))
    });
    let offsets: Vec<u64> = (0..QUEUE_EPOCHS as usize * QUEUE_EVENTS)
        .map(|_| rng.gen_range(250) * (EPOCH_NS / 250))
        .collect();
    batch(out, reference, "event queue", || {
        queue_probe(&offsets, cap(QUEUE_REPS))
    });
}

type Measured = Vec<(String, &'static str, f64)>;

/// Runs one probe batch as one operation: it fails on a panic or on a
/// failed self-check, and its metrics are kept only when it succeeds.
/// Times are scaled to the reference host speed read before the batch.
fn batch(
    out: &mut Outcome,
    reference: &mut Reference,
    label: &str,
    probe: impl FnOnce() -> Result<Measured, String>,
) {
    let speed = reference.host_speed();
    let result =
        catch_unwind(AssertUnwindSafe(probe)).unwrap_or_else(|_| Err("panicked".to_string()));
    match result {
        Ok(metrics) => {
            for (name, unit, value) in metrics {
                let scale = if unit == "count" { 1.0 } else { speed };
                out.metric(Kind::Layer, name, unit, value * scale);
            }
            out.op(true);
        }
        Err(e) => {
            eprintln!("benchmark: {label} probe: {e}");
            out.op(false);
        }
    }
}

/// A 64x64 context with `busy` of the cores taken, utilisation drawn from
/// [0, 1) and criticality from [0, 3).
fn map_fixture(rng: &mut SimRng, busy: f64) -> MapContext {
    let mesh = Mesh2D::new(EDGE, EDGE);
    let n = mesh.node_count();
    let free = (0..n).map(|_| rng.next_f64() >= busy).collect();
    let utilization = (0..n).map(|_| rng.next_f64()).collect();
    let criticality = (0..n).map(|_| rng.gen_f64_range(0.0, 3.0)).collect();
    MapContext::from_parts(mesh, free, utilization, criticality)
}

/// Median over `reps` of the mean microseconds per call of `f` over `apps`.
fn time_per_app(apps: &[TaskGraph], reps: usize, f: impl Fn(usize, &TaskGraph)) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let start = now_ns();
            for (i, app) in apps.iter().enumerate() {
                f(i, app);
            }
            (now_ns() - start) as f64 / 1e3 / apps.len() as f64
        })
        .collect();
    median(&per_rep)
}

fn map_probe(ctx: &MapContext, label: &str, reps: usize) -> Result<Measured, String> {
    let apps = presets::all();
    let tum = TestAwareMapper::default();
    let penalty = |c: Coord| {
        tum.utilization_weight * ctx.utilization(c) + tum.criticality_weight * ctx.criticality(c)
    };
    let search = RegionSearch::new(ctx.mesh());

    // Untimed pass: work counts, and the placement the timed calls must
    // reproduce.
    let (cells, candidates) = (Cell::new(0u64), Cell::new(0u64));
    for app in &apps {
        let count = |n: &Cell<u64>| n.set(n.get() + 1);
        let choice = search
            .find(
                app.task_count(),
                |c| {
                    count(&cells);
                    ctx.is_free(c)
                },
                |c| {
                    count(&cells);
                    penalty(c)
                },
            )
            .ok_or_else(|| format!("{}: no region found", app.name()))?;
        let scale = contiguous::mean_edge_bits(app);
        let placed = contiguous::place(ctx, choice.region, app, |c| {
            count(&candidates);
            penalty(c) * scale
        });
        check_mapping(ctx, app, placed.as_ref())?;
        if tum.map(ctx, app) != placed {
            return Err(format!(
                "{}: TestAwareMapper::map disagrees with find + place",
                app.name()
            ));
        }
    }

    let find = |app: &TaskGraph| search.find(app.task_count(), |c| ctx.is_free(c), penalty);
    let regions: Vec<_> = apps
        .iter()
        .map(|app| find(app).map(|choice| choice.region))
        .collect::<Option<_>>()
        .ok_or("region search is not deterministic")?;
    let find_us = time_per_app(&apps, reps, |_, app| {
        black_box(find(black_box(app)));
    });
    let place_us = time_per_app(&apps, reps, |i, app| {
        let scale = contiguous::mean_edge_bits(app);
        black_box(contiguous::place(ctx, regions[i], black_box(app), |c| {
            penalty(c) * scale
        }));
    });
    let map_us = time_per_app(&apps, reps, |_, app| {
        black_box(tum.map(black_box(ctx), app));
    });
    let per_app = |n: &Cell<u64>| n.get() as f64 / apps.len() as f64;
    Ok(vec![
        (format!("noc.region_find.{label}_us"), "us", find_us),
        (
            format!("noc.region_find.{label}_cells"),
            "count",
            per_app(&cells),
        ),
        (format!("map.place.{label}_us"), "us", place_us),
        (
            format!("map.place.{label}_candidates"),
            "count",
            per_app(&candidates),
        ),
        (format!("map.tum_map.{label}_us"), "us", map_us),
    ])
}

fn check_mapping(ctx: &MapContext, app: &TaskGraph, m: Option<&Mapping>) -> Result<(), String> {
    let m = m.ok_or_else(|| format!("{}: placement failed", app.name()))?;
    let mut seen: Vec<Coord> = m.coords().to_vec();
    seen.sort_by_key(|c| (c.y, c.x));
    seen.dedup();
    if !m.is_valid_for(ctx.mesh(), app)
        || seen.len() != app.task_count()
        || !m.coords().iter().all(|&c| ctx.is_free(c))
    {
        return Err(format!(
            "{}: placement is not a set of distinct free cores",
            app.name()
        ));
    }
    Ok(())
}

fn thermal_probe(powers: &[f64], steps: usize) -> Result<Measured, String> {
    let params = ThermalParams::default();
    let mut grid = ThermalGrid::new(usize::from(EDGE), usize::from(EDGE), params);
    let per_step: Vec<f64> = (0..steps)
        .map(|_| {
            let start = now_ns();
            grid.step(black_box(powers), 1e-3);
            (now_ns() - start) as f64 / 1e3
        })
        .collect();
    let hottest = grid.max_temperature();
    if !hottest.is_finite() || hottest <= params.t_ambient {
        return Err(format!("grid did not heat: max {hottest} K"));
    }
    Ok(vec![(
        "aging.thermal_step_us".into(),
        "us",
        median(&per_step),
    )])
}

fn plan_probe(candidates: &[TestCandidate], reps: usize) -> Result<Measured, String> {
    let mut sched = TestScheduler::with_library(
        TestSchedulerConfig::default(),
        TechNode::N16,
        RoutineLibrary::standard(),
        candidates.len(),
    );
    let (mut launches, mut denials) = (Vec::new(), Vec::new());
    let mut pops = None;
    let mut per_plan = Vec::with_capacity(reps);
    for _ in 0..reps {
        let before = sched.heap_pops();
        let start = now_ns();
        sched.plan_into(
            black_box(candidates),
            PLAN_HEADROOM_W,
            &mut launches,
            &mut denials,
        );
        per_plan.push((now_ns() - start) as f64 / 1e3);
        let popped = sched.heap_pops() - before;
        if *pops.get_or_insert(popped) != popped {
            return Err("heap pops differ between identical plans".to_string());
        }
    }
    let power: f64 = launches.iter().map(|l| l.power).sum();
    if launches.is_empty() || power > PLAN_HEADROOM_W {
        return Err(format!("{} launches drawing {power} W", launches.len()));
    }
    Ok(vec![
        ("sbst.plan_us".into(), "us", median(&per_plan)),
        (
            "sbst.plan_heap_pops".into(),
            "count",
            pops.unwrap_or(0) as f64,
        ),
    ])
}

fn queue_probe(offsets: &[u64], reps: usize) -> Result<Measured, String> {
    let total = offsets.len();
    let mut per_event = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut queue = EventQueue::with_capacity(QUEUE_EVENTS);
        let mut batch = Vec::with_capacity(QUEUE_EVENTS);
        let (mut popped, mut last) = (0, SimTime::ZERO);
        let start = now_ns();
        for (epoch, chunk) in offsets.chunks(QUEUE_EVENTS).enumerate() {
            let t0 = epoch as u64 * EPOCH_NS;
            for (k, &off) in chunk.iter().enumerate() {
                queue.schedule(SimTime::from_ns(t0 + off), k);
            }
            while queue.pop_batch_before(SimTime::from_ns(t0 + EPOCH_NS), &mut batch) > 0 {
                popped += batch.len();
                if batch[0].time < last {
                    return Err("events popped out of time order".to_string());
                }
                last = batch[0].time;
            }
        }
        per_event.push((now_ns() - start) as f64 / total as f64);
        if popped != total {
            return Err(format!("{popped} of {total} events popped"));
        }
    }
    Ok(vec![(
        "sim.event_queue_ns".into(),
        "ns",
        median(&per_event),
    )])
}
