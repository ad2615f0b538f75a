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
//! `BENCH_kernels.json` only.

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
    /// Wall-clock seconds for the whole run (non-deterministic; stderr
    /// and JSON only, never stdout).
    pub wall_seconds: f64,
    /// Wall-clock seconds per control-loop phase (non-deterministic).
    pub wall_phases: [f64; Phase::COUNT],
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

/// Runs the sweep serially (one run per grid, smallest first).
pub fn run_kernels(grids: &[u16], scale: Scale) -> Vec<KernelRun> {
    grids
        .iter()
        .map(|&grid| {
            let mut system = kernels_builder(grid, scale)
                .build()
                .expect("kernels config is valid");
            let (timer, acc) = WallPhaseTimer::new();
            system.set_phase_observer(Box::new(timer));
            let start = Instant::now();
            let report = system.run();
            let wall_seconds = start.elapsed().as_secs_f64();
            let wall_phases = *acc.lock().expect("timer accumulator is never poisoned");
            KernelRun {
                grid,
                cores: usize::from(grid) * usize::from(grid),
                apps_completed: report.apps_completed,
                tests_completed: report.tests_completed,
                profile: report.profile,
                wall_seconds,
                wall_phases,
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

/// One stderr line per grid with the non-deterministic wall times.
pub fn wall_kernels_table(runs: &[KernelRun]) -> String {
    let mut out = String::from("# kernels wall-clock (non-deterministic)\n# grid  wall_s");
    for phase in Phase::ALL {
        let _ = write!(out, "  {}_s", phase.as_str());
    }
    out.push('\n');
    for r in runs {
        let _ = write!(out, "# {:>4}  {:>6.3}", r.grid, r.wall_seconds);
        for phase in Phase::ALL {
            let _ = write!(out, "  {:>7.4}", r.wall_phases[phase.index()]);
        }
        out.push('\n');
    }
    out
}

/// Renders `BENCH_kernels.json`: per grid, every profile counter (by its
/// [`PhaseProfile::entries`] name), the run aggregates, and the wall
/// times. Hand-rolled like `BENCH_repro.json` — the shims have no JSON
/// serializer.
pub fn kernels_json(runs: &[KernelRun], scale: Scale) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {KERNELS_SEED},");
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
        let _ = writeln!(json, "      \"wall_seconds\": {:.6},", r.wall_seconds);
        json.push_str("      \"wall_phases\": {");
        for (j, phase) in Phase::ALL.iter().enumerate() {
            let sep = if j + 1 == Phase::ALL.len() { "" } else { ", " };
            let _ = write!(
                json,
                "\"{}\": {:.6}{sep}",
                phase.as_str(),
                r.wall_phases[phase.index()]
            );
        }
        json.push_str("}\n");
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
            wall_seconds: 0.125,
            wall_phases: [0.0; Phase::COUNT],
        };
        let json = kernels_json(&[run], Scale::Quick);
        assert!(json.contains("\"grid\": 8"));
        assert!(json.contains("\"cores\": 64"));
        assert!(json.contains("\"candidates_scanned\": 16000"));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"wall_seconds\": 0.125000"));
        // Every profile counter is present by name.
        for (name, _) in PhaseProfile::default().entries() {
            assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
        }
    }

    #[test]
    fn kernels_builder_overrides_the_mesh_edge() {
        let system = kernels_builder(8, Scale::Quick)
            .build()
            .expect("valid config");
        assert_eq!(system.mesh().node_count(), 64);
    }
}
