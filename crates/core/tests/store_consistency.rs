//! Property check for the struct-of-arrays store: the incrementally
//! maintained derived views (mappable count, testing count, testable
//! and powered bitsets) must equal a from-scratch rebuild after *any*
//! mutation sequence, and the never-powered bitset must follow the mode
//! history. Sequences are driven by [`SimRng`] so failures replay
//! exactly from the printed seed.

use manytest_core::exec::CoreMode;
use manytest_core::store::CoreStore;
use manytest_power::{PowerBudget, VfLadder, VfLevel, TechNode};
use manytest_sbst::{RoutineId, TestSession};
use manytest_sim::SimRng;
use manytest_workload::{AppId, TaskId};

/// Applies one random mutation and returns the core it touched.
fn random_mutation(store: &mut CoreStore, rng: &mut SimRng, budget: &mut PowerBudget) -> usize {
    let n = store.len();
    let core = rng.gen_range(n as u64) as usize;
    let op = VfLadder::for_node(TechNode::N16, 5).point(VfLevel(4));
    match rng.gen_range(8) {
        0 => store.set_mode(core, CoreMode::Off, 0.0),
        1 => store.set_mode(core, CoreMode::Idle(op), 1.0),
        2 => store.set_mode(core, CoreMode::Busy(op), 1.0),
        3 => store.set_mode(core, CoreMode::Testing(op, 0.9), 1.0),
        4 => {
            let owner = if rng.gen_bool(0.5) {
                Some((AppId(rng.next_u64() as u32 as u64), TaskId(0)))
            } else {
                None
            };
            store.set_owner(core, owner);
        }
        5 => {
            if !store.has_session(core) {
                let session = TestSession::new(RoutineId(0), VfLevel(0), 100, 1.0e9, 0.0);
                let reservation = budget.reserve(0.001).expect("tiny reservations always fit");
                store.begin_session(core, session, reservation);
            }
        }
        6 => {
            let (_, reservation) = store.end_session(core);
            if let Some(r) = reservation {
                budget.release(r);
            }
        }
        _ => {
            if rng.gen_bool(0.2) {
                store.set_quarantined(core);
            } else {
                store.set_healthy(core, true);
            }
        }
    }
    core
}

#[test]
fn incremental_views_match_full_rebuild_under_random_mutations() {
    for trial in 0..32u64 {
        let mut rng = SimRng::seed_from(0xC0DE_0000 + trial);
        // Mix of word-aligned and ragged-tail core counts.
        let n = [16, 63, 64, 65, 100, 256][(trial % 6) as usize];
        let mut store = CoreStore::new(n);
        let mut budget = PowerBudget::new(1.0e6);
        let epochs = 1 + rng.gen_range(8);
        for _ in 0..epochs {
            let mutations = rng.gen_range(4 * n as u64);
            let marks_before = store.dirty_marks();
            let mut touched = vec![false; n];
            for _ in 0..mutations {
                touched[random_mutation(&mut store, &mut rng, &mut budget)] = true;
            }
            let rebuilt = store.rebuild_views();
            let maintained = store.current_views();
            assert_eq!(
                rebuilt, maintained,
                "trial {trial} (n = {n}): maintained views drifted from a \
                 from-scratch rebuild; replay with SimRng::seed_from({:#x})",
                0xC0DE_0000u64 + trial
            );
            assert!(store.views_consistent());
            // Every core counts at most once per epoch.
            let marks = store.dirty_marks() - marks_before;
            let distinct = touched.iter().filter(|&&t| t).count() as u64;
            assert!(marks <= distinct, "trial {trial}: {marks} marks for {distinct} cores");
            store.advance_generation();
        }
    }
}

#[test]
fn dirty_marks_count_exactly_the_distinct_cores_touched_per_epoch() {
    let mut store = CoreStore::new(32);
    let op = VfLadder::for_node(TechNode::N16, 5).point(VfLevel(4));
    // Touch three cores, one of them repeatedly: three marks.
    store.set_mode(3, CoreMode::Idle(op), 1.0);
    store.set_mode(3, CoreMode::Busy(op), 1.0);
    store.set_owner(7, Some((AppId(1), TaskId(0))));
    store.set_quarantined(19);
    assert_eq!(store.dirty_marks(), 3);
    store.advance_generation();
    // A new epoch re-counts the same core as one fresh mark.
    store.set_mode(3, CoreMode::Off, 0.0);
    store.set_owner(3, None);
    assert_eq!(store.dirty_marks(), 4);
}

#[test]
fn never_powered_bits_only_clear_and_never_overlap_powered() {
    for trial in 0..32u64 {
        let seed = 0x0FF0_0000 + trial;
        let mut rng = SimRng::seed_from(seed);
        let n = [16, 63, 64, 65, 100, 256][(trial % 6) as usize];
        let mut store = CoreStore::new(n);
        let mut budget = PowerBudget::new(1.0e6);
        // The mode history the bits must follow: a core is never-powered
        // until any mutation leaves it in a mode other than `Off`.
        let mut ever_powered = vec![false; n];
        let mut before = store.never_powered_words().to_vec();
        for step in 0..rng.gen_range(8 * n as u64) {
            let core = random_mutation(&mut store, &mut rng, &mut budget);
            ever_powered[core] |= !matches!(store.mode(core), CoreMode::Off);
            let after = store.never_powered_words();
            let what = format!("seed {seed:#x} (n = {n}), step {step}");
            for (w, (&was, &is)) in before.iter().zip(after).enumerate() {
                assert_eq!(is & !was, 0, "{what}: a bit came back in word {w}");
                assert_eq!(
                    is & store.powered_words()[w],
                    0,
                    "{what}: word {w} overlaps"
                );
            }
            let mut history = vec![0u64; n.div_ceil(64)];
            for (c, &powered) in ever_powered.iter().enumerate() {
                history[c / 64] |= u64::from(!powered) << (c % 64);
            }
            assert_eq!(after, history, "{what}");
            before = after.to_vec();
        }
    }
}
