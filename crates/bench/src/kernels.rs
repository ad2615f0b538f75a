//! `repro bench kernels` — control-loop scaling driver.
//!
//! Runs the standard configuration at a sweep of mesh edges (8×8 up to
//! 128×128 by default) and records the deterministic [`PhaseProfile`]
//! counters plus bench-side wall-clock per grid. The counters are the
//! point: after the struct-of-arrays refactor the per-epoch scan work
//! (`candidates_scanned`, `free_set_queries`, `ctx_rebuilds`, …) must
//! grow roughly linearly with the core count. The committed
//! `BENCH_kernels.json` records that, the golden store that `repro
//! regress` checks pins the 8×8/16×16/32×32 quick counters exactly, and
//! the `kernels_gate` tests check the linear shape.
//!
//! Output discipline matches the rest of the harness: the stdout table
//! contains only deterministic values (byte-identical across reruns and
//! worker counts); wall-clock seconds go to stderr and into
//! `BENCH_kernels.json` only. Each grid runs [`KERNELS_REPEATS`] times:
//! single runs of one binary move by about 30 % on a shared host, so the
//! sweep reports the median wall and its min/max, and checks that every
//! run reproduced the same counters.

use crate::report::WallPhaseTimer;
use crate::Scale;
use manytest_core::prelude::*;
use manytest_sim::{Phase, PhaseProfile};
use std::fmt::Write as _;
use std::time::Instant;

/// Grid edges swept by default: 64 to 16384 cores.
pub const DEFAULT_GRIDS: [u16; 5] = [8, 16, 32, 64, 128];

/// Grid edges used by `--quick` runs and the CI smoke.
pub const QUICK_GRIDS: [u16; 3] = [8, 16, 32];

/// Fixed seed for every kernels run: the sweep varies only the mesh
/// edge, so counter differences between grids are attributable to scale.
pub const KERNELS_SEED: u64 = 42;

/// Runs per grid.
pub const KERNELS_REPEATS: usize = 5;

/// Median, least and greatest of one wall-clock time over the repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallSpread {
    /// Median seconds.
    pub median: f64,
    /// Least seconds.
    pub min: f64,
    /// Greatest seconds.
    pub max: f64,
}

impl WallSpread {
    /// JSON key suffixes of [`WallSpread::stats`], in its order.
    const SUFFIXES: [&'static str; 3] = ["", "_min", "_max"];

    /// Median, min and max, in that order.
    fn stats(self) -> [f64; 3] {
        [self.median, self.min, self.max]
    }

    fn of(mut seconds: Vec<f64>) -> Self {
        seconds.sort_by(f64::total_cmp);
        WallSpread {
            median: seconds[seconds.len() / 2],
            min: seconds[0],
            max: seconds[seconds.len() - 1],
        }
    }
}

/// One grid's outcome: the deterministic counters plus wall diagnostics.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Mesh edge (the run simulates `grid * grid` cores).
    pub grid: u16,
    /// Core count, `grid * grid`.
    pub cores: usize,
    /// Applications that ran to completion.
    pub apps_completed: u64,
    /// SBST sessions that ran to completion.
    pub tests_completed: u64,
    /// The full deterministic phase profile of the run.
    pub profile: PhaseProfile,
    /// Wall-clock seconds for the whole run over the repeats
    /// (non-deterministic; stderr and JSON only, never stdout).
    pub wall_seconds: WallSpread,
    /// Wall-clock seconds per control-loop phase over the repeats
    /// (non-deterministic).
    pub wall_phases: [WallSpread; Phase::COUNT],
}

/// The configuration one kernels run uses: the evaluation's standard
/// 16 nm setup with the mesh edge overridden. Exposed so tests can run
/// the exact config the sweep (and the 64×64 determinism check) uses.
pub fn kernels_builder(grid: u16, scale: Scale) -> SystemBuilder {
    SystemBuilder::new(TechNode::N16)
        .mesh_edge(grid)
        .seed(KERNELS_SEED)
        .sim_time_ms(scale.ms(500))
        .arrival_rate(200.0)
}

/// Runs the sweep serially: [`KERNELS_REPEATS`] runs per grid, smallest
/// grid first.
///
/// # Panics
///
/// Panics if a repeat's counters differ from the first run's.
pub fn run_kernels(grids: &[u16], scale: Scale) -> Vec<KernelRun> {
    grids
        .iter()
        .map(|&grid| {
            let mut walls = Vec::with_capacity(KERNELS_REPEATS);
            let mut phases: [Vec<f64>; Phase::COUNT] = Default::default();
            let mut first = None;
            for _ in 0..KERNELS_REPEATS {
                let mut system = kernels_builder(grid, scale)
                    .build()
                    .expect("kernels config is valid");
                let (timer, acc) = WallPhaseTimer::new();
                system.set_phase_observer(Box::new(timer));
                let start = Instant::now();
                let report = system.run();
                walls.push(start.elapsed().as_secs_f64());
                let wall_phases = *acc.lock().expect("timer accumulator is never poisoned");
                for (times, t) in phases.iter_mut().zip(wall_phases) {
                    times.push(t);
                }
                let counters = (report.apps_completed, report.tests_completed, report.profile);
                let first = first.get_or_insert(counters);
                assert_eq!(
                    *first, counters,
                    "kernels grid {grid}: a repeat's counters differ from the first run's"
                );
            }
            let (apps_completed, tests_completed, profile) =
                first.expect("KERNELS_REPEATS is positive");
            KernelRun {
                grid,
                cores: usize::from(grid) * usize::from(grid),
                apps_completed,
                tests_completed,
                profile,
                wall_seconds: WallSpread::of(walls),
                wall_phases: phases.map(WallSpread::of),
            }
        })
        .collect()
}

/// The deterministic stdout table: raw scan counters plus their
/// per-epoch means, which make the linear-vs-quadratic story legible at
/// a glance (cores ×4 between rows should mean per-epoch scans ×~4).
pub fn print_kernels(runs: &[KernelRun], scale: Scale) {
    println!("## kernels — control-loop scaling with mesh edge (seed {KERNELS_SEED})");
    println!(
        "# scale: {} — deterministic counters only; wall times on stderr and in BENCH_kernels.json",
        if scale == Scale::Quick { "quick" } else { "full" }
    );
    println!(
        "grid  cores  epochs  apps  tests  cand_scan  cand/ep  free_q  ctx_rb  ctx_delta  heap_pop  dirty"
    );
    for r in runs {
        let p = &r.profile;
        let per_epoch = if p.epochs == 0 {
            0.0
        } else {
            p.candidates_scanned as f64 / p.epochs as f64
        };
        println!(
            "{:>4}  {:>5}  {:>6}  {:>4}  {:>5}  {:>9}  {:>7.1}  {:>6}  {:>6}  {:>9}  {:>8}  {:>5}",
            r.grid,
            r.cores,
            p.epochs,
            r.apps_completed,
            r.tests_completed,
            p.candidates_scanned,
            per_epoch,
            p.free_set_queries,
            p.ctx_rebuilds,
            p.ctx_delta_updates,
            p.heap_pops,
            p.dirty_marks,
        );
    }
    println!();
}

/// One stderr line per grid with the non-deterministic wall times:
/// medians over the repeats, the whole run's min–max after them.
pub fn wall_kernels_table(runs: &[KernelRun]) -> String {
    let mut out = format!(
        "# kernels wall-clock (non-deterministic; medians of {KERNELS_REPEATS} runs)\n# grid  wall_s"
    );
    for phase in Phase::ALL {
        let _ = write!(out, "  {}_s", phase.as_str());
    }
    out.push_str("  wall_min_s  wall_max_s\n");
    for r in runs {
        let _ = write!(out, "# {:>4}  {:>6.3}", r.grid, r.wall_seconds.median);
        for phase in Phase::ALL {
            let _ = write!(out, "  {:>7.4}", r.wall_phases[phase.index()].median);
        }
        let _ = writeln!(
            out,
            "  {:>10.3}  {:>10.3}",
            r.wall_seconds.min, r.wall_seconds.max
        );
    }
    out
}

/// Renders `BENCH_kernels.json`: per grid, every profile counter (by its
/// [`PhaseProfile::entries`] name), the run aggregates, and the median,
/// least and greatest wall times. Hand-rolled like `BENCH_repro.json` —
/// the shims have no JSON serializer.
pub fn kernels_json(runs: &[KernelRun], scale: Scale) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {KERNELS_SEED},");
    let _ = writeln!(json, "  \"repeats\": {KERNELS_REPEATS},");
    let _ = writeln!(
        json,
        "  \"scale\": \"{}\",",
        if scale == Scale::Quick { "quick" } else { "full" }
    );
    json.push_str("  \"grids\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"grid\": {},", r.grid);
        let _ = writeln!(json, "      \"cores\": {},", r.cores);
        let _ = writeln!(json, "      \"apps_completed\": {},", r.apps_completed);
        let _ = writeln!(json, "      \"tests_completed\": {},", r.tests_completed);
        json.push_str("      \"profile\": {");
        let entries = r.profile.entries();
        for (j, (name, value)) in entries.iter().enumerate() {
            let sep = if j + 1 == entries.len() { "" } else { ", " };
            let _ = write!(json, "\"{name}\": {value}{sep}");
        }
        json.push_str("},\n");
        for (k, suffix) in WallSpread::SUFFIXES.iter().enumerate() {
            let seconds = r.wall_seconds.stats()[k];
            let _ = writeln!(json, "      \"wall_seconds{suffix}\": {seconds:.6},");
        }
        for (k, suffix) in WallSpread::SUFFIXES.iter().enumerate() {
            let _ = write!(json, "      \"wall_phases{suffix}\": {{");
            for (j, phase) in Phase::ALL.iter().enumerate() {
                let sep = if j + 1 == Phase::ALL.len() { "" } else { ", " };
                let seconds = r.wall_phases[phase.index()].stats()[k];
                let _ = write!(json, "\"{}\": {seconds:.6}{sep}", phase.as_str());
            }
            json.push_str(if k == 2 { "}\n" } else { "},\n" });
        }
        let _ = writeln!(json, "    }}{}", if i + 1 == runs.len() { "" } else { "," });
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_json_shape_is_stable() {
        let mut profile = PhaseProfile::default();
        profile.epochs = 250;
        profile.candidates_scanned = 16_000;
        let run = KernelRun {
            grid: 8,
            cores: 64,
            apps_completed: 10,
            tests_completed: 20,
            profile,
            wall_seconds: WallSpread {
                median: 0.125,
                min: 0.1,
                max: 0.25,
            },
            wall_phases: [WallSpread::default(); Phase::COUNT],
        };
        let json = kernels_json(&[run], Scale::Quick);
        assert!(json.contains("\"grid\": 8"));
        assert!(json.contains("\"cores\": 64"));
        assert!(json.contains("\"candidates_scanned\": 16000"));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"repeats\": 5"));
        assert!(json.contains("\"wall_seconds\": 0.125000"));
        assert!(json.contains("\"wall_seconds_min\": 0.100000"));
        assert!(json.contains("\"wall_seconds_max\": 0.250000"));
        for stat in ["", "_min", "_max"] {
            assert!(json.contains(&format!("\"wall_phases{stat}\": {{\"pid\": 0.000000")));
        }
        // Every profile counter is present by name.
        for (name, _) in PhaseProfile::default().entries() {
            assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
        }
    }

    #[test]
    fn kernels_builder_overrides_the_mesh_edge() {
        let builder = kernels_builder(8, Scale::Quick);
        assert_eq!(builder.config().mesh_edge_override, Some(8));
        builder.build().expect("valid config");
    }
}
