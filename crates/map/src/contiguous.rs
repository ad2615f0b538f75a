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
use manytest_noc::{Coord, Mesh2D, Region};
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

/// Orders tasks by descending attachment to the already-placed set, seeded
/// with the most communication-heavy task.
fn placement_order(app: &TaskGraph) -> Vec<TaskId> {
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

/// Places `app` contiguously inside (preferably) `region`.
///
/// `node_penalty` is added to each candidate core's cost; the baseline
/// passes a constant, the test-aware mapper passes utilisation/criticality
/// pressure. Returns `None` if fewer free cores exist than tasks.
///
/// `node_penalty` is called once per free core, in one pass that also
/// takes the penalties' minimum and finiteness. Each task walks the free
/// cores ring by ring outward from the region centre (a ring being a
/// Chebyshev distance), up to the farthest mesh corner, and evaluates each
/// candidate's cost once. Past the region border every cost term but the
/// penalty is ≥ 0 and the outside term is `outside_unit` per ring, so a
/// core in ring `d` costs at least `outside_unit * (d - radius) +
/// min_penalty` — f64 rounding is monotone. Once that bound exceeds the
/// best cost found, no core further out can win or tie, and the walk
/// stops. The bound needs finite penalties and finite, non-negative edge
/// volumes; without them the walk visits every free core.
pub fn place(
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
    let order = placement_order(app);
    let outside_unit = (10.0 * mean_edge_bits(app)).max(OUTSIDE_REGION_PENALTY_FLOOR);
    let radius = u32::from(region.radius);
    // Per node id: the penalty of a free core not yet placed on, else `None`.
    let mut penalties: Vec<Option<f64>> = Vec::with_capacity(mesh.node_count());
    let (mut min_penalty, mut finite) = (f64::INFINITY, true);
    for c in mesh.coords() {
        let penalty = ctx.is_free(c).then(|| node_penalty(c));
        if let Some(p) = penalty {
            min_penalty = min_penalty.min(p);
            finite &= p.is_finite();
        }
        penalties.push(penalty);
    }
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
    let mut slots: Vec<Option<Coord>> = vec![None; n];
    for (rank, &task) in order.iter().enumerate() {
        // Placed communication partners, in edge order.
        let partners: Vec<(f64, Coord)> = app
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
                partner.map(|p| (e.bits, p))
            })
            .collect();
        let mut best: Option<(f64, Coord)> = None;
        for d in 0..=last_ring {
            let outside = if d > radius {
                outside_unit * (d - radius) as f64
            } else {
                0.0
            };
            if bounded && outside + min_penalty > best.map_or(f64::INFINITY, |(cost, _)| cost) {
                break;
            }
            for c in ring(mesh, region.center, d) {
                let Some(penalty) = penalties[mesh.node_id(c).index()] else {
                    continue;
                };
                // Attraction towards placed communication partners.
                let partner_cost: f64 = partners
                    .iter()
                    .map(|&(bits, p)| bits * c.manhattan(p) as f64)
                    .sum();
                // The first task anchors at the region centre.
                let anchor_cost = if rank == 0 {
                    c.manhattan(region.center) as f64
                } else {
                    0.0
                };
                let cost = partner_cost + anchor_cost + outside + penalty;
                let wins = best.is_none_or(|(best_cost, b)| {
                    cost.partial_cmp(&best_cost)
                        .expect("costs are finite")
                        .then(mesh.node_id(c).cmp(&mesh.node_id(b)))
                        .is_lt()
                });
                if wins {
                    best = Some((cost, c));
                }
            }
        }
        let (_, chosen) = best?;
        penalties[mesh.node_id(chosen).index()] = None;
        slots[task.index()] = Some(chosen);
    }
    let coords: Vec<Coord> = slots
        .into_iter()
        .map(|s| s.expect("every task placed"))
        .collect();
    Some(Mapping::new(coords))
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
    let order = placement_order(app);
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
            let outside = if region.contains(mesh, c) {
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
    use manytest_workload::{presets, Task};

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
        assert!(m.mean_hop_distance(&app) <= 1.5, "{}", m.mean_hop_distance(&app));
    }

    #[test]
    fn placement_stays_in_region_when_possible() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::pip(); // 8 tasks fit a radius-1..2 region
        let region = Region::new(Coord::new(4, 4), 2);
        let m = place(&ctx, region, &app, |_| 0.0).unwrap();
        for &c in m.coords() {
            assert!(region.contains(mesh, c), "{c} escaped the region");
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
        assert_eq!(m.len(), 4);
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
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords() {
            ctx.set_free(c, rng.next_f64() >= busy);
            if quantised {
                ctx.set_utilization(c, rng.gen_range(3) as f64 / 2.0);
                ctx.set_criticality(c, rng.gen_range(3) as f64);
            } else {
                ctx.set_utilization(c, rng.next_f64());
                ctx.set_criticality(c, rng.gen_f64_range(0.0, 3.0));
            }
        }
        for _ in 0..rng.gen_range(4) {
            let id = rng.gen_range(mesh.node_count() as u64) as u32;
            ctx.set_healthy(mesh.coord(manytest_noc::NodeId(id)), false);
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
}
