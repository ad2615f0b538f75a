//! Property tests of the SBST scheduler and its bookkeeping. Each
//! property runs 96 cases drawn from `SimRng::seed_from(seed)`; a failure
//! names its seed.

use manytest_power::{TechNode, VfLevel};
use manytest_sbst::health::{CoreHealth, HealthBoard};
use manytest_sbst::prelude::*;
use manytest_sim::SimRng;

/// One randomized call against the [`HealthBoard`] API.
#[derive(Debug, Clone, Copy)]
enum LifecycleOp {
    MarkSuspect { level: u8, retests: u8 },
    NoteRetest,
    Clear,
    Quarantine,
    BeginProbation,
    ProbePass,
    Readmit,
    FailProbation,
}

/// Executable spec of the lifecycle contract (module docs of
/// `health.rs`): the state an op must leave a core in, given where it
/// was. Everything not listed is a no-op — in particular there is no
/// edge out of `Quarantined` except `BeginProbation`, and none into
/// `Healthy` except `Clear` (from suspicion) and `Readmit` (from
/// probation).
fn lifecycle_spec(prev: CoreHealth, op: LifecycleOp) -> CoreHealth {
    use CoreHealth::*;
    match (op, prev) {
        (LifecycleOp::MarkSuspect { level, retests }, Healthy) => Suspect {
            level: VfLevel(level),
            remaining: retests,
            used: 0,
        },
        (
            LifecycleOp::NoteRetest,
            Suspect {
                level,
                remaining,
                used,
            },
        ) => Suspect {
            level,
            remaining: remaining.saturating_sub(1),
            used: used.saturating_add(1),
        },
        (LifecycleOp::Clear, Suspect { .. }) => Healthy,
        // A confirmed detection quarantines from any state and restarts
        // the backoff ladder.
        (LifecycleOp::Quarantine, _) => Quarantined { backoff: 0 },
        (LifecycleOp::BeginProbation, Quarantined { backoff }) => Probation { streak: 0, backoff },
        (LifecycleOp::ProbePass, Probation { streak, backoff }) => Probation {
            streak: streak.saturating_add(1),
            backoff,
        },
        (LifecycleOp::Readmit, Probation { .. }) => Healthy,
        (LifecycleOp::FailProbation, Probation { backoff, .. }) => Quarantined {
            backoff: backoff.saturating_add(1),
        },
        (_, state) => state,
    }
}

fn apply(board: &mut HealthBoard, core: usize, op: LifecycleOp) {
    match op {
        LifecycleOp::MarkSuspect { level, retests } => {
            board.mark_suspect(core, VfLevel(level), retests)
        }
        LifecycleOp::NoteRetest => {
            board.note_retest_complete(core);
        }
        LifecycleOp::Clear => {
            board.clear(core);
        }
        LifecycleOp::Quarantine => {
            board.quarantine(core);
        }
        LifecycleOp::BeginProbation => {
            board.begin_probation(core);
        }
        LifecycleOp::ProbePass => {
            board.note_probe_pass(core);
        }
        LifecycleOp::Readmit => {
            board.readmit(core);
        }
        LifecycleOp::FailProbation => {
            board.fail_probation(core);
        }
    }
}

/// Decodes a generated `(opcode, level, retests)` triple into an op.
fn decode_op(opcode: u8, level: u8, retests: u8) -> LifecycleOp {
    match opcode {
        0 => LifecycleOp::MarkSuspect { level, retests },
        1 => LifecycleOp::NoteRetest,
        2 => LifecycleOp::Clear,
        3 => LifecycleOp::Quarantine,
        4 => LifecycleOp::BeginProbation,
        5 => LifecycleOp::ProbePass,
        6 => LifecycleOp::Readmit,
        _ => LifecycleOp::FailProbation,
    }
}

/// `len` criticalities drawn from `lo..hi`, one per core.
fn random_candidates(rng: &mut SimRng, len: u64, lo: f64, hi: f64) -> Vec<TestCandidate> {
    (0..len as usize)
        .map(|core| TestCandidate {
            core,
            criticality: rng.gen_f64_range(lo, hi),
        })
        .collect()
}

fn scheduler(cores: usize, threshold: f64) -> TestScheduler {
    TestScheduler::with_library(
        TestSchedulerConfig {
            criticality_threshold: threshold,
            ..TestSchedulerConfig::default()
        },
        TechNode::N16,
        RoutineLibrary::standard(),
        cores,
    )
}

#[test]
fn plan_never_exceeds_headroom() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let headroom = rng.gen_f64_range(0.0, 50.0);
        let len = 1 + rng.gen_range(63);
        let candidates = random_candidates(&mut rng, len, 0.0, 5.0);
        let launches = scheduler(candidates.len(), 0.0).plan(&candidates, headroom);
        let total: f64 = launches.iter().map(|l| l.power).sum();
        assert!(
            total <= headroom + 1e-9,
            "seed {seed}: {total} W over {headroom} W"
        );
        // No core is launched twice in one plan.
        let mut cores: Vec<usize> = launches.iter().map(|l| l.core).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), launches.len(), "seed {seed}");
    }
}

#[test]
fn plan_serves_descending_criticality() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let len = 2 + rng.gen_range(30);
        let candidates = random_candidates(&mut rng, len, 0.5, 5.0);
        let launches = scheduler(candidates.len(), 0.0).plan(&candidates, f64::INFINITY);
        let served: Vec<f64> = launches
            .iter()
            .map(|l| candidates[l.core].criticality)
            .collect();
        for w in served.windows(2) {
            assert!(
                w[0] >= w[1],
                "seed {seed}: service order must be descending: {w:?}"
            );
        }
    }
}

#[test]
fn threshold_filters_exactly() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let threshold = rng.gen_f64_range(0.0, 3.0);
        let len = 1 + rng.gen_range(39);
        let candidates = random_candidates(&mut rng, len, 0.0, 5.0);
        let mut s = scheduler(candidates.len(), threshold);
        let launches = s.plan(&candidates, f64::INFINITY);
        let eligible = candidates
            .iter()
            .filter(|c| c.criticality >= threshold)
            .count();
        let max = s.config().max_launches_per_epoch;
        assert_eq!(launches.len(), eligible.min(max), "seed {seed}");
        for l in &launches {
            assert!(
                candidates[l.core].criticality >= threshold,
                "seed {seed}: {l:?}"
            );
        }
    }
}

#[test]
fn rotation_reaches_full_coverage() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let core = rng.gen_range(16) as usize;
        let extra_rounds = rng.gen_range(3) as usize;
        let mut s = scheduler(16, 0.0);
        let rounds = s.library().len() * s.ladder().len() + extra_rounds;
        for _ in 0..rounds {
            let launches = s.plan(
                &[TestCandidate {
                    core,
                    criticality: 1.0,
                }],
                f64::INFINITY,
            );
            let l = launches[0];
            s.on_session_complete(l.core, l.routine, l.level);
        }
        assert!(
            s.ledger().core_fully_covered(core),
            "seed {seed}: core {core}"
        );
    }
}

#[test]
fn ledger_counts_are_conserved() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let records = rng.gen_range(200);
        let mut ledger = VfCoverageLedger::new(8, 5);
        for _ in 0..records {
            let core = rng.gen_range(8) as usize;
            ledger.record(core, VfLevel(rng.gen_range(5) as u8));
        }
        let per_core: u64 = (0..8).map(|c| ledger.tests_on_core(c)).sum();
        let per_level: u64 = ledger.tests_per_level().iter().sum();
        assert_eq!(per_core, records, "seed {seed}");
        assert_eq!(per_level, records, "seed {seed}");
    }
}

#[test]
fn next_level_is_always_least_tested() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut ledger = VfCoverageLedger::new(1, 4);
        for _ in 0..rng.gen_range(60) {
            ledger.record(0, VfLevel(rng.gen_range(4) as u8));
        }
        let chosen = ledger.next_level(0);
        let min = (0..4)
            .map(|l| ledger.tests_at(0, VfLevel(l)))
            .min()
            .unwrap();
        assert_eq!(
            ledger.tests_at(0, chosen),
            min,
            "seed {seed}: chose {chosen:?}"
        );
    }
}

#[test]
fn detection_latency_is_nonnegative() {
    let routine = TestRoutine::new("perfect", 1_000, 0.8, 1.0);
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let inject_at = rng.gen_f64_range(0.0, 5.0);
        let test_at = rng.gen_f64_range(0.0, 10.0);
        let mut log = FaultLog::new();
        log.inject(0, inject_at);
        log.activate_due(test_at);
        log.on_test_complete(0, &routine, VfLevel(0), test_at, &mut rng);
        if let Some(latency) = log.faults()[0].detection_latency() {
            assert!(latency >= 0.0, "seed {seed}: latency {latency}");
            assert!(
                test_at >= inject_at,
                "seed {seed}: detected ⇒ fault was active"
            );
        }
    }
}

#[test]
fn health_board_never_leaves_the_lifecycle_graph() {
    let cores = 6;
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut board = HealthBoard::new(cores);
        for _ in 0..rng.gen_range(300) {
            let core = rng.gen_range(6) as usize;
            let opcode = rng.gen_range(8) as u8;
            let level = rng.gen_range(5) as u8;
            let op = decode_op(opcode, level, 1 + rng.gen_range(3) as u8);
            let prev = board.state(core);
            apply(&mut board, core, op);
            let next = board.state(core);
            // Every call lands exactly where the lifecycle spec says —
            // no illegal transition (Quarantined→Healthy, withdrawn→
            // Suspect, …) is reachable by any call sequence.
            assert_eq!(
                next,
                lifecycle_spec(prev, op),
                "seed {seed}: op {op:?} on {prev:?}"
            );
            if board.is_withdrawn(core) {
                assert!(
                    !board.is_healthy(core) && !board.is_suspect(core),
                    "seed {seed}"
                );
            }
            // The four disjoint states partition the board, and the
            // derived counts reconcile with the per-core predicates.
            let healthy = board.healthy_count();
            let suspect = board.suspect_count();
            let quarantined = board.quarantined_count();
            let probation = board.probation_count();
            assert_eq!(
                healthy + suspect + quarantined + probation,
                cores,
                "seed {seed}"
            );
            assert_eq!(
                board.withdrawn_count(),
                quarantined + probation,
                "seed {seed}"
            );
            let withdrawn = (0..cores).filter(|&c| board.is_withdrawn(c)).count();
            assert_eq!(withdrawn, board.withdrawn_count(), "seed {seed}");
        }
    }
}

#[test]
fn session_progress_is_monotone() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut session = TestSession::new(0, RoutineId(0), VfLevel(0), 1_000_000, 1e9, 0.0);
        let mut last = 0.0;
        for _ in 0..1 + rng.gen_range(49) {
            session.advance(rng.gen_f64_range(0.0, 1e-3));
            let p = session.progress();
            assert!(
                p >= last && p <= 1.0,
                "seed {seed}: progress {p} after {last}"
            );
            last = p;
        }
    }
}
