//! The baseline contiguous mapper (CoNA / SHiC style).

use crate::context::MapContext;
use crate::contiguous::{self, PenaltyBound};
use crate::mapping::Mapping;
use crate::Mapper;
use manytest_noc::RegionSearch;
use manytest_workload::TaskGraph;
use serde::{Deserialize, Serialize};

/// Utilisation- and test-agnostic contiguous runtime mapping.
///
/// First node: the centre of the smallest square region containing enough
/// free cores (ties broken by node id). Placement: nearest-neighbour
/// contiguous (see [`crate::contiguous`]). This is the state-of-the-art
/// mapper the paper compares its test-aware strategy against.
///
/// # Examples
///
/// ```
/// use manytest_map::prelude::*;
/// use manytest_noc::Mesh2D;
/// use manytest_workload::presets;
///
/// let ctx = MapContext::all_free(Mesh2D::new(8, 8));
/// let mapping = ConaMapper::new().map(&ctx, &presets::mwd()).unwrap();
/// assert_eq!(mapping.coords().len(), 12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConaMapper {
    _private: (),
}

impl ConaMapper {
    /// Creates the baseline mapper.
    pub fn new() -> Self {
        ConaMapper::default()
    }
}

impl Mapper for ConaMapper {
    // lint:effect(alloc+panic, reason = "mapping lane materializes one placement per admitted app; placement expects hold on the searched region")
    fn map(&self, ctx: &MapContext, app: &TaskGraph) -> Option<Mapping> {
        let search = RegionSearch::new(ctx.mesh());
        let choice = search.find(app.task_count(), |c| ctx.is_free(c), |_| 0.0)?;
        // The constant zero penalty is its own bound.
        let bound = PenaltyBound {
            least: 0.0,
            finite: true,
        };
        contiguous::place_with_bound(ctx, choice.region, app, |_| 0.0, Some(bound))
    }

    fn name(&self) -> &str {
        "cona-baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_noc::{Coord, Mesh2D};
    use manytest_sim::SimRng;
    use manytest_workload::presets;

    #[test]
    fn maps_all_presets_on_empty_mesh() {
        let ctx = MapContext::all_free(Mesh2D::new(8, 8));
        let mapper = ConaMapper::new();
        for app in presets::all() {
            let m = mapper.map(&ctx, &app).expect("empty mesh fits presets");
            assert!(m.is_valid_for(ctx.mesh(), &app));
        }
    }

    #[test]
    fn refuses_when_mesh_is_too_full() {
        let mesh = Mesh2D::new(4, 4);
        let mut ctx = MapContext::all_free(mesh);
        // Leave only 5 cores free; VOPD needs 12.
        for (i, c) in mesh.coords().enumerate() {
            ctx.set_free(c, i < 5);
        }
        assert!(ConaMapper::new().map(&ctx, &presets::vopd()).is_none());
    }

    #[test]
    fn only_occupies_free_cores() {
        let mesh = Mesh2D::new(6, 6);
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords().filter(|c| c.y < 2) {
            ctx.set_free(c, false);
        }
        let m = ConaMapper::new().map(&ctx, &presets::pip()).unwrap();
        for &c in m.coords() {
            assert!(c.y >= 2, "mapped onto an occupied core at {c}");
        }
    }

    #[test]
    fn ignores_utilization_and_criticality() {
        let mesh = Mesh2D::new(8, 8);
        let clean = MapContext::all_free(mesh);
        let n = mesh.node_count();
        let hot = MapContext::from_parts(mesh, vec![true; n], vec![0.9; n], vec![5.0; n]);
        let mapper = ConaMapper::new();
        let app = presets::pip();
        assert_eq!(mapper.map(&clean, &app), mapper.map(&hot, &app));
    }

    #[test]
    fn mapping_is_compact() {
        let ctx = MapContext::all_free(Mesh2D::new(10, 10));
        let m = ConaMapper::new().map(&ctx, &presets::vopd()).unwrap();
        // 12 tasks should fit in a bounding box not much larger than 4x4.
        let (lo, hi) = m.bounding_box().expect("non-empty mapping");
        let area = usize::from(hi.x - lo.x + 1) * usize::from(hi.y - lo.y + 1);
        assert!(area <= 25, "area {area}");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(ConaMapper::new().name(), "cona-baseline");
    }

    /// `map` is the region search followed by placement under a zero
    /// penalty, whose bound it supplies itself.
    #[test]
    fn map_matches_search_plus_reference_placement() {
        let mut rng = SimRng::seed_from(1919);
        let mesh = Mesh2D::new(64, 64);
        for busy in [0.0, 0.03, 0.5, 0.9] {
            let mut ctx = MapContext::all_free(mesh);
            for c in mesh.coords() {
                ctx.set_free(c, rng.next_f64() >= busy);
            }
            for app in presets::all() {
                let expected = RegionSearch::new(mesh)
                    .find(app.task_count(), |c| ctx.is_free(c), |_| 0.0)
                    .and_then(|choice| {
                        contiguous::place_reference(&ctx, choice.region, &app, |_| 0.0)
                    });
                assert!(expected.is_some(), "{} found no placement", app.name());
                let got = ConaMapper::new().map(&ctx, &app);
                assert_eq!(got, expected, "{}, busy {busy}", app.name());
            }
        }
    }

    #[test]
    fn single_free_island_is_used() {
        let mesh = Mesh2D::new(6, 6);
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords() {
            ctx.set_free(c, c.x >= 3 && c.y >= 3); // 3x3 island
        }
        let app = presets::pip(); // needs 8 of the 9 island cores
        let m = ConaMapper::new().map(&ctx, &app).unwrap();
        for &c in m.coords() {
            assert!(c.x >= 3 && c.y >= 3);
        }
        let _ = Coord::new(0, 0);
    }
}
