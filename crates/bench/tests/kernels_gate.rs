//! Scaling properties of the control-loop kernels.
//!
//! The struct-of-arrays refactor made the per-epoch phase work linear in
//! the core count and the admission path independent of it. These tests
//! check that shape: growing the mesh 4× in cores must grow the candidate
//! scan by ~4× (not ~16×), the admission counters must not move with the
//! mesh, and the 64×64 configuration must run deterministically. The
//! exact counters of the 8×8, 16×16 and 32×32 quick runs are pinned in
//! the golden store that `repro regress` checks.

use manytest_bench::kernels::{kernels_builder, run_kernels};
use manytest_bench::Scale;

/// Quadrupling the core count must quadruple (not ×16) the per-epoch
/// candidate scan: the testable-core walk is linear in N. The bound is
/// deliberately loose (6×) — it fails the O(N²) world, not noise.
#[test]
fn candidate_scan_grows_linearly_with_core_count() {
    let runs = run_kernels(&[8, 16], Scale::Quick);
    let per_epoch: Vec<f64> = runs
        .iter()
        .map(|r| r.profile.candidates_scanned as f64 / r.profile.epochs as f64)
        .collect();
    let growth = per_epoch[1] / per_epoch[0];
    assert!(
        growth < 6.0,
        "candidate scan grew {growth:.1}x for 4x cores — superlinear scan work"
    );
    assert!(
        growth > 1.5,
        "candidate scan barely grew ({growth:.1}x) for 4x cores — \
         the sweep is not exercising scale"
    );
}

/// The admission path must not scale with the mesh: the free-core count
/// is maintained, not rescanned, so its query and rebuild counters are
/// identical across grids running the same workload.
#[test]
fn admission_counters_are_independent_of_grid_size() {
    let runs = run_kernels(&[8, 16], Scale::Quick);
    assert_eq!(
        runs[0].profile.free_set_queries, runs[1].profile.free_set_queries,
        "free-set queries changed with grid size"
    );
    assert_eq!(
        runs[0].profile.ctx_rebuilds, runs[1].profile.ctx_rebuilds,
        "map-context rebuilds changed with grid size"
    );
}

/// The 64×64 configuration runs to completion and is bit-deterministic:
/// two identical runs produce identical reports.
#[test]
fn grid64_quick_run_is_deterministic() {
    let run = || {
        kernels_builder(64, Scale::Quick)
            .build()
            .expect("valid config")
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "two identical 64x64 runs diverged");
    assert!(a.profile.epochs > 0, "run did not complete any epochs");
    assert_eq!(a.summary(), b.summary());
}
