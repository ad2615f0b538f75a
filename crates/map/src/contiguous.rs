//! Contiguous nearest-neighbour task placement.
//!
//! Given a chosen region, both mappers place tasks the same way (the CoNA
//! recipe): the most communication-heavy task goes closest to the region
//! centre, then tasks are placed one at a time in order of how much they
//! talk to the already-placed set, each on the free core that minimises
//! `Σ bits × hops` to its placed partners — plus a caller-supplied per-node
//! penalty, which is where the test-aware strategy differs from the
//! baseline.

use crate::context::MapContext;
use crate::mapping::Mapping;
use manytest_noc::{Coord, Mesh2D, NodeId, Region, ScoreRange};
use manytest_workload::{TaskGraph, TaskId};

/// Floor of the per-excess-hop cost for leaving the chosen region (hops
/// beyond the region border are discouraged but not forbidden —
/// fragmentation may force it). The effective cost also scales with the
/// application's mean edge volume so that communication attraction cannot
/// drown the region preference.
const OUTSIDE_REGION_PENALTY_FLOOR: f64 = 1.0e5;

/// Mean communication volume per edge of `app` (1 for edge-less apps);
/// mappers use this to express node penalties in "hops of typical traffic".
pub fn mean_edge_bits(app: &TaskGraph) -> f64 {
    if app.edges().is_empty() {
        1.0
    } else {
        (app.total_bits() / app.edges().len() as f64).max(1.0)
    }
}

/// The value `Iterator::sum` starts an `f64` sum from, so the sums built
/// edge by edge below are bit for bit the ones a per-task `sum()` gives.
const SUM_START: f64 = -0.0;

/// Orders tasks by descending attachment to the already-placed set, seeded
/// with the most communication-heavy task (ties: lowest id).
///
/// Each step sums every task's attachment in one pass over the edges in
/// edge order, so each task's sum gets the same additions in the same
/// order as summing its own matching edges, and the comparator picks the
/// same task.
fn placement_order(app: &TaskGraph) -> Vec<TaskId> {
    let n = app.task_count();
    let mut order: Vec<TaskId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Seed: every edge counts once towards each of its ends.
    let mut sums = vec![SUM_START; n];
    for e in app.edges() {
        sums[e.from.index()] += e.bits;
        if e.to != e.from {
            sums[e.to.index()] += e.bits;
        }
    }
    let heaviest = |sums: &[f64], placed: &[bool]| {
        (0..n as u32)
            .map(TaskId)
            .filter(|t| !placed[t.index()])
            .max_by(|&a, &b| {
                sums[a.index()]
                    .partial_cmp(&sums[b.index()])
                    .expect("volumes are finite")
                    .then(b.0.cmp(&a.0))
            })
    };
    let seed = heaviest(&sums, &placed).expect("graph is non-empty");
    order.push(seed);
    placed[seed.index()] = true;
    while order.len() < n {
        // Attachment: edges between an unplaced task and the placed set.
        sums.fill(SUM_START);
        for e in app.edges() {
            let (from, to) = (e.from.index(), e.to.index());
            if placed[to] && !placed[from] {
                sums[from] += e.bits;
            } else if placed[from] && !placed[to] {
                sums[to] += e.bits;
            }
        }
        let next = heaviest(&sums, &placed).expect("some task remains");
        order.push(next);
        placed[next.index()] = true;
    }
    order
}

/// Places `app` contiguously inside (preferably) `region`.
///
/// `node_penalty` is added to each candidate core's cost; the baseline
/// passes a constant, the test-aware mapper passes utilisation/criticality
/// pressure. Returns `None` if fewer free cores exist than tasks.
///
/// Each task takes the free core of least (cost, node id), found one of
/// two ways:
///
/// * **Ring walk.** The free cores are walked ring by ring outward from
///   the region centre (a ring being a Chebyshev distance), up to the
///   farthest mesh corner. `node_penalty` is called when the walk visits
///   a free core not yet placed on, once per task that visits it. Past
///   the region border every cost term but the penalty is ≥ 0 and the
///   outside term is `outside_unit` per ring, so a core in ring `d` costs
///   at least `outside_unit * (d - radius) + least penalty` — f64 rounding
///   is monotone. Once that bound exceeds the best cost found, no core
///   further out can win or tie, and the walk stops. The bound needs
///   finite penalties and finite, non-negative edge volumes; without them
///   the walk visits every free core. This function takes the least
///   penalty and the finiteness in one pass that calls `node_penalty` on
///   every free core first; the mappers take them from the region
///   search, which has already scored every free core.
/// * **Free-set scan.** On a saturated mesh, where fewer cores are free
///   than there are mesh nodes within `radius + 2` of the centre (rings
///   the walk would visit), one pass collects the free cores with their
///   penalties, calling `node_penalty` once per free core, and each task
///   scans that list. The walk returns the strict (cost, node id) minimum
///   over every free core, and the scan evaluates the same cost
///   expression on each, so it returns the same core.
pub fn place(
    ctx: &MapContext,
    region: Region,
    app: &TaskGraph,
    node_penalty: impl Fn(Coord) -> f64,
) -> Option<Mapping> {
    place_with_bound(ctx, region, app, node_penalty, None)
}

/// What the ring walk's stopping bound needs to know of the penalties of
/// the free cores: the least of them and whether every one is finite.
/// The least penalty is only compared, so any value equal to it will do.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PenaltyBound {
    pub(crate) least: f64,
    pub(crate) finite: bool,
}

impl PenaltyBound {
    /// The bound of penalties `score * scale`, where the scores of the
    /// free cores span `range`.
    ///
    /// For a finite `scale > 0` rounding is monotone in the score, so the
    /// least scaled penalty is `min * scale` as a value, and every scaled
    /// penalty lies between `min * scale` and `max * scale`: all are
    /// finite exactly when every score and both ends are. `None` for any
    /// other scale.
    pub(crate) fn scaled(range: ScoreRange, scale: f64) -> Option<PenaltyBound> {
        if !(scale.is_finite() && scale > 0.0) {
            return None;
        }
        let (least, greatest) = (range.min * scale, range.max * scale);
        Some(PenaltyBound {
            least,
            finite: range.all_finite && least.is_finite() && greatest.is_finite(),
        })
    }

    /// The bound taken in one pass over the free cores.
    fn of_free_cores(ctx: &MapContext, node_penalty: impl Fn(Coord) -> f64) -> PenaltyBound {
        let mut bound = PenaltyBound {
            least: f64::INFINITY,
            finite: true,
        };
        let mesh = ctx.mesh();
        for y in 0..mesh.height() {
            for x in 0..mesh.width() {
                let c = Coord::new(x, y);
                if ctx.is_free(c) {
                    let penalty = node_penalty(c);
                    // NaN fails the comparison and clears the flag.
                    if penalty < bound.least {
                        bound.least = penalty;
                    }
                    bound.finite &= penalty.is_finite();
                }
            }
        }
        bound
    }
}

/// [`place`], with the ring walk's penalty bound supplied by the caller
/// (`None`: taken from the free cores, if the walk runs). A supplied
/// bound must hold for `node_penalty` over every free core.
pub(crate) fn place_with_bound(
    ctx: &MapContext,
    region: Region,
    app: &TaskGraph,
    node_penalty: impl Fn(Coord) -> f64,
    bound: Option<PenaltyBound>,
) -> Option<Mapping> {
    let mesh = ctx.mesh();
    let n = app.task_count();
    if ctx.free_count() < n {
        return None;
    }
    let order = placement_order(app);
    let terms = Cost {
        center: region.center,
        radius: u32::from(region.radius),
        outside_unit: (10.0 * mean_edge_bits(app)).max(OUTSIDE_REGION_PENALTY_FLOOR),
    };
    let scan_free = ctx.free_count() < ball_len(mesh, region.center, terms.radius + 2);
    #[cfg(test)]
    tests::note_strategy(scan_free);
    let mut slots: Vec<Option<Coord>> = vec![None; n];
    // Placed communication partners of the current task, in edge order.
    let mut partners: Vec<(f64, Coord)> = Vec::with_capacity(app.edges().len());
    if scan_free {
        // The free cores in node-id order, with their penalties.
        let mut free: Vec<(NodeId, Coord, f64)> = Vec::with_capacity(ctx.free_count());
        for c in mesh.coords() {
            if ctx.is_free(c) {
                free.push((mesh.node_id(c), c, node_penalty(c)));
            }
        }
        for (rank, &task) in order.iter().enumerate() {
            gather_partners(app, task, &slots, &mut partners);
            let mut best: Option<(f64, NodeId, usize)> = None;
            for (i, &(id, c, penalty)) in free.iter().enumerate() {
                let d = region.center.chebyshev(c);
                let cost = terms.of(c, rank, &partners, terms.outside(d), penalty);
                if beats(cost, id, best.map(|(cost, id, _)| (cost, id))) {
                    best = Some((cost, id, i));
                }
            }
            let (_, _, i) = best?;
            // The minimum is order-free, so the list may reorder.
            slots[task.index()] = Some(free.swap_remove(i).1);
        }
    } else {
        let PenaltyBound { least, finite } =
            bound.unwrap_or_else(|| PenaltyBound::of_free_cores(ctx, &node_penalty));
        let bounded = finite
            && app
                .edges()
                .iter()
                .all(|e| e.bits.is_finite() && e.bits >= 0.0);
        // The farthest ring that still holds a mesh node: the one through the
        // farthest corner, wherever the centre lies.
        let (right, top) = (mesh.width() - 1, mesh.height() - 1);
        let last_ring = [(0, 0), (right, 0), (0, top), (right, top)]
            .into_iter()
            .map(|(x, y)| region.center.chebyshev(Coord::new(x, y)))
            .fold(0, u32::max);
        // One bit per node id: set once a task is placed there.
        let mut placed = vec![0u64; mesh.node_count().div_ceil(64)];
        for (rank, &task) in order.iter().enumerate() {
            gather_partners(app, task, &slots, &mut partners);
            let mut best: Option<(f64, NodeId)> = None;
            for d in 0..=last_ring {
                let outside = terms.outside(d);
                if bounded && outside + least > best.map_or(f64::INFINITY, |(cost, _)| cost) {
                    break;
                }
                for c in ring(mesh, region.center, d) {
                    let id = mesh.node_id(c);
                    if !ctx.is_free(c) || placed[id.index() / 64] & (1 << (id.index() % 64)) != 0 {
                        continue;
                    }
                    let cost = terms.of(c, rank, &partners, outside, node_penalty(c));
                    if beats(cost, id, best) {
                        best = Some((cost, id));
                    }
                }
            }
            let (_, chosen) = best?;
            placed[chosen.index() / 64] |= 1 << (chosen.index() % 64);
            slots[task.index()] = Some(mesh.coord(chosen));
        }
    }
    let coords: Vec<Coord> = slots
        .into_iter()
        .map(|s| s.expect("every task placed"))
        .collect();
    Some(Mapping::new(coords))
}

/// Collects `task`'s placed communication partners, in edge order.
fn gather_partners(
    app: &TaskGraph,
    task: TaskId,
    slots: &[Option<Coord>],
    partners: &mut Vec<(f64, Coord)>,
) {
    partners.clear();
    partners.extend(app.edges().iter().filter_map(|e| {
        let partner = if e.from == task {
            slots[e.to.index()]
        } else if e.to == task {
            slots[e.from.index()]
        } else {
            None
        };
        partner.map(|p| (e.bits, p))
    }));
}

/// The terms of a candidate core's cost that depend on the region.
struct Cost {
    center: Coord,
    radius: u32,
    outside_unit: f64,
}

impl Cost {
    /// The outside-region term of a core in ring `d`.
    #[inline]
    fn outside(&self, d: u32) -> f64 {
        if d > self.radius {
            self.outside_unit * (d - self.radius) as f64
        } else {
            0.0
        }
    }

    /// The cost of placing the task of placement rank `rank` on `c`:
    /// attraction towards its placed `partners` (summed in edge order),
    /// then the first task's anchor at the centre, the outside term and the
    /// penalty, added in that order.
    #[inline]
    fn of(
        &self,
        c: Coord,
        rank: usize,
        partners: &[(f64, Coord)],
        outside: f64,
        penalty: f64,
    ) -> f64 {
        let partner_cost: f64 = partners
            .iter()
            .map(|&(bits, p)| bits * c.manhattan(p) as f64)
            .sum();
        let anchor_cost = if rank == 0 {
            c.manhattan(self.center) as f64
        } else {
            0.0
        };
        partner_cost + anchor_cost + outside + penalty
    }
}

/// True if (`cost`, `id`) is strictly below `best` (no best yet: true).
#[inline]
fn beats(cost: f64, id: NodeId, best: Option<(f64, NodeId)>) -> bool {
    best.is_none_or(|(best_cost, best_id)| {
        cost.partial_cmp(&best_cost)
            .expect("costs are finite")
            .then(id.cmp(&best_id))
            .is_lt()
    })
}

/// The number of mesh nodes within Chebyshev distance `d` of `center`,
/// which may lie off the mesh.
fn ball_len(mesh: Mesh2D, center: Coord, d: u32) -> usize {
    let span = |c: u16, len: u16| {
        let (c, d, len) = (i64::from(c), i64::from(d), i64::from(len));
        ((c + d).min(len - 1) - (c - d).max(0) + 1).max(0) as usize
    };
    span(center.x, mesh.width()) * span(center.y, mesh.height())
}

/// The mesh nodes at Chebyshev distance `d` from `center`, which may lie
/// off the mesh.
fn ring(mesh: Mesh2D, center: Coord, d: u32) -> impl Iterator<Item = Coord> {
    let (cx, cy, d) = (i64::from(center.x), i64::from(center.y), i64::from(d));
    let (w, h) = (i64::from(mesh.width()), i64::from(mesh.height()));
    ((cy - d).max(0)..=(cy + d).min(h - 1)).flat_map(move |y| {
        // The top and bottom rows are whole; the rows between hold only
        // the two side columns.
        let step = if (y - cy).abs() == d { 1 } else { 2 * d };
        (cx - d..=cx + d)
            .step_by(step as usize)
            .filter(move |x| (0..w).contains(x))
            .map(move |x| Coord::new(x as u16, y as u16))
    })
}

/// Placement order as first written: each comparison recomputes both
/// tasks' sums from scratch. [`placement_order`] must match it exactly.
#[cfg(test)]
fn placement_order_reference(app: &TaskGraph) -> Vec<TaskId> {
    let n = app.task_count();
    let traffic_of = |t: TaskId| -> f64 {
        app.edges()
            .iter()
            .filter(|e| e.from == t || e.to == t)
            .map(|e| e.bits)
            .sum()
    };
    let mut order: Vec<TaskId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Seed: heaviest communicator (ties: lowest id).
    let seed = (0..n as u32)
        .map(TaskId)
        .max_by(|&a, &b| {
            traffic_of(a)
                .partial_cmp(&traffic_of(b))
                .expect("volumes are finite")
                .then(b.0.cmp(&a.0))
        })
        .expect("graph is non-empty");
    order.push(seed);
    placed[seed.index()] = true;
    while order.len() < n {
        let next = (0..n as u32)
            .map(TaskId)
            .filter(|t| !placed[t.index()])
            .max_by(|&a, &b| {
                let attach = |t: TaskId| -> f64 {
                    app.edges()
                        .iter()
                        .filter(|e| {
                            (e.from == t && placed[e.to.index()])
                                || (e.to == t && placed[e.from.index()])
                        })
                        .map(|e| e.bits)
                        .sum()
                };
                attach(a)
                    .partial_cmp(&attach(b))
                    .expect("volumes are finite")
                    .then(b.0.cmp(&a.0))
            })
            .expect("some task remains");
        order.push(next);
        placed[next.index()] = true;
    }
    order
}

/// Placement as first written: every free core rescanned per task, with
/// each comparison recomputing both costs. [`place`] must match it exactly.
#[cfg(test)]
pub(crate) fn place_reference(
    ctx: &MapContext,
    region: Region,
    app: &TaskGraph,
    node_penalty: impl Fn(Coord) -> f64,
) -> Option<Mapping> {
    let mesh = ctx.mesh();
    let n = app.task_count();
    if ctx.free_count() < n {
        return None;
    }
    let order = placement_order_reference(app);
    let outside_unit = (10.0 * mean_edge_bits(app)).max(OUTSIDE_REGION_PENALTY_FLOOR);
    let mut slots: Vec<Option<Coord>> = vec![None; n];
    let mut used: Vec<Coord> = Vec::with_capacity(n);
    for (rank, &task) in order.iter().enumerate() {
        let candidate_cost = |c: Coord| -> f64 {
            // Attraction towards placed communication partners.
            let partner_cost: f64 = app
                .edges()
                .iter()
                .filter_map(|e| {
                    let partner = if e.from == task {
                        slots[e.to.index()]
                    } else if e.to == task {
                        slots[e.from.index()]
                    } else {
                        None
                    };
                    partner.map(|p| e.bits * c.manhattan(p) as f64)
                })
                .sum();
            // The first task anchors at the region centre.
            let anchor_cost = if rank == 0 {
                c.manhattan(region.center) as f64
            } else {
                0.0
            };
            let outside = if region.center.chebyshev(c) <= u32::from(region.radius) {
                0.0
            } else {
                let excess = region.center.chebyshev(c).saturating_sub(region.radius as u32);
                outside_unit * excess as f64
            };
            partner_cost + anchor_cost + outside + node_penalty(c)
        };
        let chosen = mesh
            .coords()
            .filter(|&c| ctx.is_free(c) && !used.contains(&c))
            .min_by(|&a, &b| {
                candidate_cost(a)
                    .partial_cmp(&candidate_cost(b))
                    .expect("costs are finite")
                    .then(mesh.node_id(a).cmp(&mesh.node_id(b)))
            })?;
        slots[task.index()] = Some(chosen);
        used.push(chosen);
    }
    let coords: Vec<Coord> = slots
        .into_iter()
        .map(|s| s.expect("every task placed"))
        .collect();
    Some(Mapping::new(coords))
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_noc::RegionSearch;
    use manytest_sim::SimRng;
    use manytest_workload::{presets, Task, TaskGraphGenerator};
    use std::cell::Cell;

    thread_local! {
        /// Placements this thread ran, per strategy: ring walks, then
        /// free-set scans.
        static STRATEGIES: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    pub(super) fn note_strategy(scan_free: bool) {
        STRATEGIES.with(|s| {
            let mut counts = s.get();
            counts[usize::from(scan_free)] += 1;
            s.set(counts);
        });
    }

    fn strategy_counts() -> [u64; 2] {
        STRATEGIES.with(Cell::get)
    }

    fn chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let ids: Vec<TaskId> = (0..n)
            .map(|_| g.add_task(Task { instructions: 1 }))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 100.0);
        }
        g
    }

    fn full_region(mesh: Mesh2D) -> Region {
        Region::new(
            Coord::new(mesh.width() / 2, mesh.height() / 2),
            mesh.width().max(mesh.height()),
        )
    }

    #[test]
    fn chain_maps_with_adjacent_neighbors() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = chain(4);
        let m = place(&ctx, Region::new(Coord::new(3, 3), 1), &app, |_| 0.0).unwrap();
        assert!(m.is_valid_for(mesh, &app));
        // Nearest-neighbour placement should keep chain hops minimal.
        let cost = m.weighted_hop_cost(&app);
        assert!(cost <= 1.5 * app.total_bits(), "{cost}");
    }

    #[test]
    fn placement_stays_in_region_when_possible() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::pip(); // 8 tasks fit a radius-1..2 region
        let region = Region::new(Coord::new(4, 4), 2);
        let m = place(&ctx, region, &app, |_| 0.0).unwrap();
        for &c in m.coords() {
            assert!(
                region.center.chebyshev(c) <= u32::from(region.radius),
                "{c} escaped the region"
            );
        }
    }

    #[test]
    fn placement_escapes_region_under_fragmentation() {
        let mesh = Mesh2D::new(4, 4);
        let mut ctx = MapContext::all_free(mesh);
        // Occupy everything except the four corners.
        for c in mesh.coords() {
            let corner = (c.x == 0 || c.x == 3) && (c.y == 0 || c.y == 3);
            ctx.set_free(c, corner);
        }
        let app = chain(4);
        let m = place(&ctx, Region::new(Coord::new(0, 0), 0), &app, |_| 0.0).unwrap();
        assert!(m.is_valid_for(mesh, &app));
        assert_eq!(m.coords().len(), 4);
    }

    #[test]
    fn insufficient_free_cores_returns_none() {
        let mesh = Mesh2D::new(2, 2);
        let mut ctx = MapContext::all_free(mesh);
        ctx.set_free(Coord::new(0, 0), false);
        ctx.set_free(Coord::new(1, 0), false);
        let app = chain(3);
        assert!(place(&ctx, full_region(mesh), &app, |_| 0.0).is_none());
    }

    #[test]
    fn node_penalty_steers_placement() {
        let mesh = Mesh2D::new(6, 1);
        let ctx = MapContext::all_free(mesh);
        let mut g = TaskGraph::new("solo");
        g.add_task(Task { instructions: 1 });
        // Huge penalty everywhere except x == 5.
        let m = place(&ctx, Region::new(Coord::new(0, 0), 6), &g, |c| {
            if c.x == 5 {
                0.0
            } else {
                1.0e9
            }
        })
        .unwrap();
        assert_eq!(m.coord_of(TaskId(0)), Coord::new(5, 0));
    }

    #[test]
    fn placement_order_starts_with_heaviest() {
        let g = presets::mpeg4();
        let order = placement_order(&g);
        // Task 3 (the SDRAM hub) carries the most traffic in mpeg4.
        assert_eq!(order[0], TaskId(3));
        assert_eq!(order.len(), g.task_count());
        // Order is a permutation.
        let mut sorted: Vec<u32> = order.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.task_count() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn contiguity_beats_random_scatter_on_hop_cost() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::vopd();
        let m = place(&ctx, Region::new(Coord::new(4, 4), 2), &app, |_| 0.0).unwrap();
        // Scatter: spread 12 tasks over a coarse lattice — legal but
        // dispersed.
        let scatter = Mapping::new(
            (0..app.task_count())
                .map(|i| Coord::new((i % 4 * 2) as u16, (i / 4 * 3) as u16))
                .collect(),
        );
        assert!(m.weighted_hop_cost(&app) < scatter.weighted_hop_cost(&app));
    }

    #[test]
    fn deterministic_under_same_inputs() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::mwd();
        let r = Region::new(Coord::new(4, 4), 2);
        let a = place(&ctx, r, &app, |_| 0.0).unwrap();
        let b = place(&ctx, r, &app, |_| 0.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rings_partition_the_mesh() {
        let mesh = Mesh2D::new(5, 3);
        for center in [
            Coord::new(0, 0),
            Coord::new(2, 1),
            Coord::new(4, 2),
            Coord::new(9, 7),
        ] {
            let mut seen = Vec::new();
            for d in 0..=12 {
                for c in ring(mesh, center, d) {
                    assert_eq!(center.chebyshev(c), d, "{c} in ring {d} of {center}");
                    seen.push(c);
                }
            }
            seen.sort_by_key(|c| mesh.node_id(*c));
            assert_eq!(seen, mesh.coords().collect::<Vec<_>>(), "centre {center}");
        }
    }

    /// A random graph of 1..=`max_tasks` tasks. Edge volumes are tie-heavy
    /// quantised or continuous, and in some graphs partly negative.
    fn random_graph(rng: &mut SimRng, max_tasks: u64) -> TaskGraph {
        let n = rng.gen_range_inclusive(1, max_tasks);
        let mut g = TaskGraph::new("random");
        for _ in 0..n {
            g.add_task(Task { instructions: 1 });
        }
        let quantised = rng.gen_bool(0.5);
        let negative = rng.gen_bool(0.15);
        for _ in 0..rng.gen_range(2 * n + 1) {
            let from = TaskId(rng.gen_range(n) as u32);
            let to = TaskId(rng.gen_range(n) as u32);
            let bits = if quantised {
                64.0 * rng.gen_range(4) as f64
            } else {
                rng.gen_f64_range(0.0, 5000.0)
            };
            let sign = if negative && rng.gen_bool(0.3) {
                -1.0
            } else {
                1.0
            };
            g.add_edge(from, to, sign * bits);
        }
        g
    }

    /// Occupancy in [0, 1] (sometimes exactly 0 or 1), a few quarantined
    /// holes, and tie-heavy quantised or continuous utilisation and
    /// criticality.
    fn random_context(rng: &mut SimRng, mesh: Mesh2D) -> MapContext {
        let busy = match rng.gen_range(6) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        let quantised = rng.gen_bool(0.5);
        // (free, healthy, utilization, criticality) per node, in id order.
        let mut nodes: Vec<(bool, bool, f64, f64)> = (0..mesh.node_count())
            .map(|_| {
                let free = rng.next_f64() >= busy;
                if quantised {
                    (free, true, rng.gen_range(3) as f64 / 2.0, rng.gen_range(3) as f64)
                } else {
                    (free, true, rng.next_f64(), rng.gen_f64_range(0.0, 3.0))
                }
            })
            .collect();
        for _ in 0..rng.gen_range(4) {
            nodes[rng.gen_range(mesh.node_count() as u64) as usize].1 = false;
        }
        // The snapshot rebuild the control loop runs every tick.
        let mut ctx = MapContext::all_free(mesh);
        ctx.reset(mesh);
        for (free, healthy, utilization, criticality) in nodes {
            ctx.push_node_health(free, healthy, utilization, criticality);
        }
        ctx
    }

    /// Per-node penalties: the test-aware mapper's pressure, zero (the
    /// baseline), signed noise, or pressure with a few infinite cores.
    fn random_penalties(rng: &mut SimRng, ctx: &MapContext, app: &TaskGraph) -> Vec<f64> {
        let style = rng.gen_range(4);
        let scale = mean_edge_bits(app);
        ctx.mesh()
            .coords()
            .map(|c| {
                let pressure = (2.0 * ctx.utilization(c) + 6.0 * ctx.criticality(c)) * scale;
                match style {
                    0 => pressure,
                    1 => 0.0,
                    2 => rng.gen_f64_range(-1.0e6, 1.0e6),
                    _ if rng.gen_bool(0.05) => f64::INFINITY,
                    _ => pressure,
                }
            })
            .collect()
    }

    /// The region the test-aware search picks, or an arbitrary one whose
    /// centre may lie off the mesh.
    fn random_region(
        rng: &mut SimRng,
        ctx: &MapContext,
        app: &TaskGraph,
        penalties: &[f64],
    ) -> Region {
        let mesh = ctx.mesh();
        let found = RegionSearch::new(mesh).find(
            app.task_count(),
            |c| ctx.is_free(c),
            |c| penalties[mesh.node_id(c).index()],
        );
        match found {
            Some(choice) if rng.gen_bool(0.5) => choice.region,
            _ => {
                let (w, h) = (u64::from(mesh.width()), u64::from(mesh.height()));
                Region::new(
                    Coord::new(rng.gen_range(w + 3) as u16, rng.gen_range(h + 3) as u16),
                    rng.gen_range(w.max(h) + 1) as u16,
                )
            }
        }
    }

    fn assert_matches_reference(rng: &mut SimRng, mesh: Mesh2D, max_tasks: u64) {
        let ctx = random_context(rng, mesh);
        let app = random_graph(rng, max_tasks);
        let penalties = random_penalties(rng, &ctx, &app);
        assert_place_matches_reference(rng, &ctx, &app, &penalties);
    }

    fn assert_place_matches_reference(
        rng: &mut SimRng,
        ctx: &MapContext,
        app: &TaskGraph,
        penalties: &[f64],
    ) {
        let mesh = ctx.mesh();
        let region = random_region(rng, ctx, app, penalties);
        let penalty = |c: Coord| penalties[mesh.node_id(c).index()];
        assert_eq!(
            place(ctx, region, app, penalty),
            place_reference(ctx, region, app, penalty),
            "{mesh:?}, {region:?}, {} tasks",
            app.task_count()
        );
    }

    #[test]
    fn place_matches_reference_on_every_small_shape() {
        let mut rng = SimRng::seed_from(2424);
        for w in 1..=24 {
            for h in 1..=24 {
                assert_matches_reference(&mut rng, Mesh2D::new(w, h), 8);
            }
        }
    }

    #[test]
    fn place_matches_reference_on_large_meshes() {
        let mut rng = SimRng::seed_from(6464);
        for _ in 0..6 {
            assert_matches_reference(&mut rng, Mesh2D::new(64, 64), 16);
        }
        // The region search's sensitive states, as placement sees them:
        // square and non-square meshes, a mostly free die and one with a
        // busy column every eight, under all-equal nonzero penalties
        // (every idle core before its first test), quantised ties and
        // explicit -0.0 penalties.
        for (w, h) in [(64, 64), (63, 65), (65, 63)] {
            let mesh = Mesh2D::new(w, h);
            for boundary_columns in [false, true] {
                let mut ctx = MapContext::all_free(mesh);
                for c in mesh.coords() {
                    let column_busy = boundary_columns && c.x % 8 == 0;
                    ctx.set_free(c, !column_busy && rng.next_f64() >= 0.03);
                }
                for style in 0..3 {
                    let app = random_graph(&mut rng, 16);
                    let penalties: Vec<f64> = mesh
                        .coords()
                        .map(|_| match style {
                            0 => 0.75,
                            1 => rng.gen_range(3) as f64,
                            _ if rng.gen_bool(0.5) => -0.0,
                            _ => 0.0,
                        })
                        .collect();
                    assert_place_matches_reference(&mut rng, &ctx, &app, &penalties);
                }
            }
        }
    }

    /// A star: one hub and `n - 1` spokes, every edge the same volume so
    /// the order comes down to the id tie-break.
    fn star(n: usize, hub_sends: bool) -> TaskGraph {
        let mut g = TaskGraph::new("star");
        let ids: Vec<TaskId> = (0..n)
            .map(|_| g.add_task(Task { instructions: 1 }))
            .collect();
        for &spoke in &ids[1..] {
            if hub_sends {
                g.add_edge(ids[0], spoke, 256.0);
            } else {
                g.add_edge(spoke, ids[0], 256.0);
            }
        }
        g
    }

    /// A random layered graph from the workload generator, with one of its
    /// shapes: default, width 1 (a chain), in-degree 1 (a forest) or
    /// equal volumes on every edge.
    fn generated_graph(rng: &mut SimRng) -> TaskGraph {
        let base = TaskGraphGenerator {
            max_tasks: 16,
            ..TaskGraphGenerator::default()
        };
        let gen = match rng.gen_range(4) {
            0 => base,
            1 => TaskGraphGenerator {
                max_layer_width: 1,
                ..base
            },
            2 => TaskGraphGenerator {
                max_in_degree: 1,
                ..base
            },
            _ => TaskGraphGenerator {
                min_bits: 4096.0,
                max_bits: 4096.0,
                ..base
            },
        };
        gen.generate(rng, "generated")
    }

    /// A random graph whose volumes mix 1, 2 and values near 2^53, so a
    /// task's sum rounds differently in another addition order and sums
    /// often tie.
    fn rounding_graph(rng: &mut SimRng) -> TaskGraph {
        let n = rng.gen_range_inclusive(2, 10);
        let mut g = TaskGraph::new("rounding");
        for _ in 0..n {
            g.add_task(Task { instructions: 1 });
        }
        let big = 2f64.powi(53);
        for _ in 0..rng.gen_range_inclusive(n, 4 * n) {
            let from = TaskId(rng.gen_range(n) as u32);
            let to = TaskId(rng.gen_range(n) as u32);
            let bits = [1.0, 1.0, 2.0, big, big + 2.0, big + 4.0][rng.gen_range(6) as usize];
            g.add_edge(from, to, bits);
        }
        g
    }

    #[test]
    fn placement_order_matches_reference() {
        let mut graphs: Vec<TaskGraph> = presets::all();
        graphs.extend((1..=16).map(chain));
        for n in 1..=12 {
            graphs.push(star(n, true));
            graphs.push(star(n, false));
        }
        let mut single = TaskGraph::new("single");
        single.add_task(Task { instructions: 1 });
        graphs.push(single);
        let mut rng = SimRng::seed_from(1717);
        for _ in 0..3_000 {
            graphs.push(generated_graph(&mut rng));
            graphs.push(random_graph(&mut rng, 16));
            graphs.push(rounding_graph(&mut rng));
        }
        for g in &graphs {
            assert_eq!(
                placement_order(g),
                placement_order_reference(g),
                "{} tasks, edges {:?}",
                g.task_count(),
                g.edges()
            );
        }
    }

    /// Places under penalties `score * scale` with the bound derived from
    /// the region search's score range, as the test-aware mapper does, and
    /// checks the bound against the scaled penalties and the placement
    /// against the reference. Returns the placement.
    fn assert_range_fed_matches_reference(
        ctx: &MapContext,
        app: &TaskGraph,
        scores: &[f64],
        scale: f64,
    ) -> Option<Mapping> {
        let mesh = ctx.mesh();
        let score = |c: Coord| scores[mesh.node_id(c).index()];
        let penalty = |c: Coord| score(c) * scale;
        let (choice, range) =
            RegionSearch::new(mesh).find_with_range(app.task_count(), |c| ctx.is_free(c), score)?;
        let bound = PenaltyBound::scaled(range, scale);
        match bound {
            Some(bound) => {
                let scaled: Vec<f64> = mesh
                    .coords()
                    .filter(|&c| ctx.is_free(c))
                    .map(penalty)
                    .collect();
                let least = scaled.iter().copied().fold(f64::INFINITY, f64::min);
                let finite = scaled.iter().all(|p| p.is_finite());
                assert!(
                    bound.least == least && bound.finite == finite,
                    "scale {scale}: {bound:?}, want ({least}, {finite})"
                );
            }
            None => assert!(!(scale.is_finite() && scale > 0.0), "scale {scale}"),
        }
        let placed = place_with_bound(ctx, choice.region, app, penalty, bound);
        assert_eq!(
            placed,
            place_reference(ctx, choice.region, app, penalty),
            "{mesh:?}, {:?}, scale {scale}, {} tasks",
            choice.region,
            app.task_count()
        );
        placed
    }

    #[test]
    fn range_fed_walk_matches_reference() {
        let mut rng = SimRng::seed_from(2121);
        let before = strategy_counts();
        for (w, h) in [(64, 64), (63, 65), (65, 63)] {
            let mesh = Mesh2D::new(w, h);
            for busy in [0.0, 0.03, 0.5, 0.9] {
                let mut ctx = MapContext::all_free(mesh);
                for c in mesh.coords() {
                    ctx.set_free(c, rng.next_f64() >= busy);
                }
                // Every idle core before its first test ties; later the
                // pressure spreads over a continuous range.
                for tied in [true, false] {
                    let scores: Vec<f64> = mesh
                        .coords()
                        .map(|_| {
                            if tied {
                                0.75
                            } else {
                                rng.gen_f64_range(0.0, 20.0)
                            }
                        })
                        .collect();
                    let app = random_graph(&mut rng, 12);
                    // The last scale overflows the greater scores to +∞.
                    for scale in [1.0, 1024.0, 1.0 / 3.0, f64::MAX / 4.0] {
                        assert_range_fed_matches_reference(&ctx, &app, &scores, scale);
                    }
                }
            }
        }
        let after = strategy_counts();
        assert!(
            after[0] > before[0],
            "no ring walk ran: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn range_fed_walk_falls_back_to_a_bound_pass() {
        let mut rng = SimRng::seed_from(2222);
        for (w, h) in [(64, 64), (63, 65), (65, 63)] {
            let mesh = Mesh2D::new(w, h);
            let mut ctx = MapContext::all_free(mesh);
            for c in mesh.coords() {
                ctx.set_free(c, rng.next_f64() >= 0.03);
            }
            let positive: Vec<f64> = mesh
                .coords()
                .map(|_| rng.gen_f64_range(0.5, 20.0))
                .collect();
            let app = random_graph(&mut rng, 12);
            // No bound from the range: zero and infinite scales (a NaN
            // scale makes every cost NaN, which no placement accepts).
            for scale in [0.0, f64::INFINITY] {
                assert_range_fed_matches_reference(&ctx, &app, &positive, scale);
            }
            let range = RegionSearch::new(mesh)
                .find_with_range(1, |c| ctx.is_free(c), |c| positive[mesh.node_id(c).index()])
                .map(|(_, range)| range)
                .expect("the mesh has a free core");
            assert!(PenaltyBound::scaled(range, f64::NAN).is_none());
            // A non-finite penalty: the walk visits every free core.
            let mut infinite = positive.clone();
            for _ in 0..8 {
                let i = rng.gen_range(infinite.len() as u64) as usize;
                infinite[i] = if rng.gen_bool(0.5) {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
            }
            assert_range_fed_matches_reference(&ctx, &app, &infinite, 1.0);
            // A negative edge volume: the same.
            let mut negative = chain(6);
            negative.add_edge(TaskId(5), TaskId(0), -300.0);
            assert_range_fed_matches_reference(&ctx, &negative, &positive, 1.0)
                .expect("the mesh has room");
        }
    }

    #[test]
    fn place_matches_reference_on_saturated_meshes() {
        let mut rng = SimRng::seed_from(9696);
        let before = strategy_counts();
        for side in 6..=16 {
            for _ in 0..12 {
                let mesh = Mesh2D::new(side, side + rng.gen_range(2) as u16);
                let busy = 0.6 + 0.39 * rng.next_f64();
                let mut ctx = random_context(&mut rng, mesh);
                for c in mesh.coords() {
                    ctx.set_free(c, rng.next_f64() >= busy);
                }
                let app = if rng.gen_bool(0.5) {
                    generated_graph(&mut rng)
                } else {
                    random_graph(&mut rng, 12)
                };
                let penalties = random_penalties(&mut rng, &ctx, &app);
                assert_place_matches_reference(&mut rng, &ctx, &app, &penalties);
            }
        }
        let after = strategy_counts();
        assert!(after[0] > before[0], "no ring walk ran: {before:?} -> {after:?}");
        assert!(after[1] > before[1], "no free-set scan ran: {before:?} -> {after:?}");
    }
}
