//! Classic NoC benchmark task graphs.
//!
//! These four applications appear throughout the runtime-mapping literature
//! this paper belongs to (CoNA, SHiC, MapPro all evaluate on them). The
//! communication structures and relative volumes follow the published
//! graphs (volumes originally in MB/s; we scale one "frame" of traffic to
//! bits). Compute volumes are synthesized proportional to each task's
//! traffic, which preserves the pipeline balance that matters to mapping.

use crate::task::{Task, TaskGraph, TaskId};

/// Scales a published MB/s figure to bits for one scheduling quantum.
fn mbps_to_bits(mbps: f64) -> f64 {
    // One millisecond of the published rate: 1 MB/s → 8000 bits/ms.
    mbps * 8_000.0
}

/// Instructions synthesized for a task that handles `mbps_total` MB/s of
/// traffic: heavier communicators compute more in these video pipelines.
fn instructions_for(mbps_total: f64) -> u64 {
    (1_000_000.0 + mbps_total * 20_000.0).round() as u64
}

fn build(name: &str, volumes: &[(u32, u32, f64)], task_count: u32) -> TaskGraph {
    let mut g = TaskGraph::new(name);
    let mut totals = vec![0.0f64; task_count as usize];
    for &(from, to, mbps) in volumes {
        totals[from as usize] += mbps;
        totals[to as usize] += mbps;
    }
    for t in 0..task_count {
        g.add_task(Task {
            instructions: instructions_for(totals[t as usize]),
        });
    }
    for &(from, to, mbps) in volumes {
        g.add_edge(TaskId(from), TaskId(to), mbps_to_bits(mbps));
    }
    debug_assert!(g.validate().is_ok(), "preset {name} must validate");
    g
}

/// Video Object Plane Decoder — 12 tasks, the most cited NoC benchmark.
pub fn vopd() -> TaskGraph {
    build(
        "vopd",
        &[
            (0, 1, 70.0),   // vld -> run-length decoder
            (1, 2, 362.0),  // rld -> inverse scan
            (2, 3, 362.0),  // iscan -> ac/dc prediction
            (3, 4, 362.0),  // acdc -> iquant
            (4, 5, 357.0),  // iquant -> idct
            (5, 6, 353.0),  // idct -> up-sampling
            (6, 7, 300.0),  // upsamp -> vop reconstruction
            (7, 8, 313.0),  // vop rec -> padding
            (8, 9, 313.0),  // padding -> vop memory
            (0, 10, 49.0),  // vld -> stripe memory
            (10, 3, 27.0),  // stripe memory -> acdc
            (9, 11, 500.0), // vop memory -> display/out
            (4, 11, 16.0),  // iquant side-channel -> out
        ],
        12,
    )
}

/// MPEG-4 decoder — 12 tasks with a memory-hub structure.
pub fn mpeg4() -> TaskGraph {
    build(
        "mpeg4",
        &[
            (0, 2, 60.0),   // vu -> med cpu
            (1, 2, 40.0),   // au -> med cpu
            (2, 3, 600.0),  // med cpu -> sdram
            (3, 4, 40.0),   // sdram -> rast
            (2, 5, 250.0),  // med cpu -> idct etc.
            (5, 3, 500.0),  // idct -> sdram
            (3, 6, 173.0),  // sdram -> up samp
            (6, 7, 500.0),  // up samp -> sram2
            (7, 8, 447.0),  // sram2 -> bab
            (8, 9, 90.0),   // bab -> risc
            (9, 10, 50.0),  // risc -> adsp
            (10, 11, 120.0),// adsp -> out
        ],
        12,
    )
}

/// Multi-Window Display — 12 tasks, two merging pipelines.
pub fn mwd() -> TaskGraph {
    build(
        "mwd",
        &[
            (0, 1, 64.0),  // in -> nr (noise reduction)
            (1, 2, 64.0),  // nr -> mem1
            (2, 3, 64.0),  // mem1 -> vs (vertical scale)
            (3, 4, 64.0),  // vs -> hs
            (4, 5, 64.0),  // hs -> mem2
            (5, 6, 64.0),  // mem2 -> hvs
            (6, 7, 64.0),  // hvs -> jug1
            (0, 8, 128.0), // in -> mem3
            (8, 9, 96.0),  // mem3 -> jug2
            (9, 10, 96.0), // jug2 -> se (sharpness)
            (7, 10, 32.0), // jug1 -> se
            (10, 11, 64.0),// se -> blend/out
        ],
        12,
    )
}

/// Picture-In-Picture — 8 tasks, the small application in the mix.
pub fn pip() -> TaskGraph {
    build(
        "pip",
        &[
            (0, 1, 128.0), // inp mem a -> horizontal scale
            (1, 2, 64.0),  // hs -> vertical scale
            (2, 3, 64.0),  // vs -> jug
            (0, 4, 64.0),  // inp mem a -> mem b
            (4, 5, 64.0),  // mem b -> jug2
            (3, 6, 64.0),  // jug -> op disp
            (5, 6, 64.0),  // jug2 -> op disp
            (6, 7, 128.0), // op disp -> out
        ],
        8,
    )
}

/// All presets in a fixed order: VOPD, MPEG-4, MWD, PIP.
pub fn all() -> Vec<TaskGraph> {
    vec![vopd(), mpeg4(), mwd(), pip()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for g in all() {
            assert!(g.validate().is_ok(), "{} invalid", g.name());
        }
    }

    #[test]
    fn preset_sizes_match_literature() {
        assert_eq!(vopd().task_count(), 12);
        assert_eq!(mpeg4().task_count(), 12);
        assert_eq!(mwd().task_count(), 12);
        assert_eq!(pip().task_count(), 8);
    }

    #[test]
    fn presets_are_connected_dags() {
        for g in all() {
            let order = g.topological_order().unwrap();
            assert_eq!(order.len(), g.task_count());
            // Every non-root task is reachable (has a predecessor).
            let roots = g.roots();
            for t in 0..g.task_count() as u32 {
                let id = TaskId(t);
                if !roots.contains(&id) {
                    assert!(g.predecessors(id).next().is_some());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = all().iter().map(|g| g.name().to_owned()).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn volumes_are_positive() {
        for g in all() {
            for e in g.edges() {
                assert!(e.bits > 0.0);
            }
            for t in 0..g.task_count() as u32 {
                assert!(g.task(TaskId(t)).instructions > 0);
            }
        }
    }

    #[test]
    fn heavier_communicators_compute_more() {
        let g = mpeg4();
        // Task 3 (sdram hub) carries far more traffic than task 11 (out).
        assert!(g.task(TaskId(3)).instructions > g.task(TaskId(11)).instructions);
    }
}
