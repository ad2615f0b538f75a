//! The naive first-fit mapper — the lower bound every contiguous mapper
//! is measured against.

use crate::context::MapContext;
use crate::mapping::Mapping;
use crate::Mapper;
use manytest_workload::TaskGraph;
use serde::{Deserialize, Serialize};

/// Non-contiguous first-fit mapping: task *i* goes to the *i*-th free core
/// in node-id order, ignoring communication, utilisation and criticality
/// alike. Fast and fair, but it fragments applications across the die —
/// the failure mode contiguous mapping (CoNA/SHiC/MapPro) exists to avoid.
///
/// # Examples
///
/// ```
/// use manytest_map::prelude::*;
/// use manytest_noc::Mesh2D;
/// use manytest_workload::presets;
///
/// let ctx = MapContext::all_free(Mesh2D::new(8, 8));
/// let app = presets::pip();
/// let ff = FirstFitMapper::new().map(&ctx, &app).unwrap();
/// let cona = ConaMapper::new().map(&ctx, &app).unwrap();
/// // On an empty mesh both happen to pack densely; first-fit's weakness
/// // shows under fragmentation (see the unit tests).
/// assert!(ff.is_valid_for(Mesh2D::new(8, 8), &app));
/// # let _ = cona;
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirstFitMapper {
    _private: (),
}

impl FirstFitMapper {
    /// Creates the first-fit mapper.
    pub fn new() -> Self {
        FirstFitMapper::default()
    }
}

impl Mapper for FirstFitMapper {
    // lint:effect(alloc, reason = "mapping lane materializes one placement per admitted app; admission frequency is workload-, not mesh-, scaled")
    fn map(&self, ctx: &MapContext, app: &TaskGraph) -> Option<Mapping> {
        let mesh = ctx.mesh();
        let free: Vec<_> = mesh.coords().filter(|&c| ctx.is_free(c)).collect();
        if free.len() < app.task_count() {
            return None;
        }
        Some(Mapping::new(free[..app.task_count()].to_vec()))
    }

    fn name(&self) -> &str {
        "first-fit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ConaMapper;
    use manytest_noc::{Coord, Mesh2D};
    use manytest_workload::presets;

    #[test]
    fn maps_when_space_allows() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        for app in presets::all() {
            let m = FirstFitMapper::new().map(&ctx, &app).expect("fits");
            assert!(m.is_valid_for(mesh, &app));
        }
    }

    #[test]
    fn refuses_when_full() {
        let mesh = Mesh2D::new(3, 3);
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords().take(5) {
            ctx.set_free(c, false);
        }
        // 4 free cores < 8 tasks.
        assert!(FirstFitMapper::new().map(&ctx, &presets::pip()).is_none());
    }

    #[test]
    fn fragmentation_destroys_locality() {
        let mesh = Mesh2D::new(8, 8);
        let mut ctx = MapContext::all_free(mesh);
        // Only the leftmost and rightmost columns are free: first-fit
        // (row-major) alternates between them, ping-ponging every edge
        // across the die; a contiguous mapper settles into one column.
        for c in mesh.coords() {
            ctx.set_free(c, c.x == 0 || c.x == 7);
        }
        let app = presets::pip();
        let ff = FirstFitMapper::new().map(&ctx, &app).unwrap();
        let cona = ConaMapper::new().map(&ctx, &app).unwrap();
        assert!(
            cona.weighted_hop_cost(&app) < ff.weighted_hop_cost(&app) / 2.0,
            "contiguity should at least halve the hop cost: {} vs {}",
            cona.weighted_hop_cost(&app),
            ff.weighted_hop_cost(&app)
        );
    }

    #[test]
    fn first_fit_takes_lowest_ids() {
        let mesh = Mesh2D::new(4, 4);
        let ctx = MapContext::all_free(mesh);
        let mut g = manytest_workload::TaskGraph::new("pair");
        let a = g.add_task(manytest_workload::Task { instructions: 1 });
        let b = g.add_task(manytest_workload::Task { instructions: 1 });
        g.add_edge(a, b, 1.0);
        let m = FirstFitMapper::new().map(&ctx, &g).unwrap();
        assert_eq!(m.coord_of(a), Coord::new(0, 0));
        assert_eq!(m.coord_of(b), Coord::new(1, 0));
    }

    #[test]
    fn ignores_everything_but_availability() {
        let mesh = Mesh2D::new(6, 6);
        let clean = MapContext::all_free(mesh);
        let n = mesh.node_count();
        let pressured = MapContext::from_parts(mesh, vec![true; n], vec![0.9; n], vec![9.0; n]);
        let app = presets::mwd();
        let ff = FirstFitMapper::new();
        assert_eq!(ff.map(&clean, &app), ff.map(&pressured, &app));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FirstFitMapper::new().name(), "first-fit");
    }
}
