//! Property tests of the NoC model. Each property runs 96 cases drawn
//! from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_noc::prelude::*;
use manytest_sim::SimRng;

/// A mesh of 1..16 × 1..16 nodes.
fn random_mesh(rng: &mut SimRng) -> Mesh2D {
    Mesh2D::new(1 + rng.gen_range(15) as u16, 1 + rng.gen_range(15) as u16)
}

/// A node id drawn from 0..256, folded onto the mesh.
fn random_node(rng: &mut SimRng, mesh: Mesh2D) -> Coord {
    mesh.coord(NodeId(rng.gen_range(256) as u32 % mesh.node_count() as u32))
}

#[test]
fn traffic_total_equals_bits_times_hops() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mesh = random_mesh(&mut rng);
        let messages = 1 + rng.gen_range(49);
        let mut tm = TrafficMatrix::new(mesh);
        // Every message's bits on every hop of its route, summed per link
        // (dense node id × direction) in charging order.
        let link = |from: Coord, dir: Direction| mesh.node_id(from).index() * 4 + dir as usize;
        let mut expected = vec![0.0; mesh.node_count() * 4];
        for _ in 0..messages {
            let src = random_node(&mut rng, mesh);
            let dst = random_node(&mut rng, mesh);
            let bits = rng.gen_f64_range(1.0, 1e6);
            tm.charge_route(src, dst, bits);
            for hop in xy_route(src, dst) {
                expected[link(hop.from, hop.dir)] += bits;
            }
        }
        for c in mesh.coords() {
            for dir in [Direction::West, Direction::East, Direction::South, Direction::North] {
                assert_eq!(tm.link_bits(c, dir), expected[link(c, dir)], "seed {seed}: {c} {dir}");
            }
        }
    }
}

#[test]
fn message_cost_is_monotone_in_bits_and_distance() {
    let model = LinkEnergyModel::nominal_16nm();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mesh = random_mesh(&mut rng);
        let src = random_node(&mut rng, mesh);
        let dst = random_node(&mut rng, mesh);
        let bits = rng.gen_f64_range(1.0, 1e9);
        let one = model.message_cost(src, dst, bits);
        let double = model.message_cost(src, dst, 2.0 * bits);
        assert!(double.energy >= one.energy, "seed {seed}");
        assert!(
            one.energy > 0.0 && one.latency >= 0.0,
            "seed {seed}: {one:?}"
        );
        assert_eq!(one.hops, src.manhattan(dst), "seed {seed}");
    }
}

#[test]
fn region_choice_minimizes_radius() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mesh = random_mesh(&mut rng);
        let required = 1 + rng.gen_range(9) as usize;
        // Fully free mesh: the chosen radius must be the smallest square
        // that can hold `required` nodes anywhere on the mesh.
        match RegionSearch::new(mesh).find(required, |_| true, |_| 0.0) {
            Some(choice) => {
                // The radius is minimal: no radius-(r-1) region anywhere on
                // the mesh could hold the request.
                if choice.region.radius > 0 {
                    let r1 = choice.region.radius - 1;
                    let some_smaller_fits = mesh.coords().any(|c| {
                        let within = |n: &Coord| c.chebyshev(*n) <= u32::from(r1);
                        mesh.coords().filter(within).count() >= required
                    });
                    assert!(!some_smaller_fits, "seed {seed}: radius not minimal");
                }
                assert!(choice.available >= required, "seed {seed}");
            }
            None => assert!(mesh.node_count() < required, "seed {seed}: no region found"),
        }
    }
}

#[test]
fn node_ids_are_dense_and_unique() {
    for seed in 0..96 {
        let mesh = random_mesh(&mut SimRng::seed_from(seed));
        let mut ids: Vec<usize> = mesh.coords().map(|c| mesh.node_id(c).index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), mesh.node_count(), "seed {seed}");
        assert_eq!(*ids.last().unwrap(), mesh.node_count() - 1, "seed {seed}");
    }
}

#[test]
fn route_hops_each_charge_exactly_one_link() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mesh = random_mesh(&mut rng);
        let src = random_node(&mut rng, mesh);
        let dst = random_node(&mut rng, mesh);
        let mut tm = TrafficMatrix::new(mesh);
        tm.charge_route(src, dst, 1.0);
        // Every hop of the route carries exactly the message's bits.
        for hop in xy_route(src, dst) {
            assert_eq!(tm.link_bits(hop.from, hop.dir), 1.0, "seed {seed}: {hop:?}");
        }
    }
}
