//! The paper's test-aware utilization-oriented mapping (TUM).

use crate::context::MapContext;
use crate::contiguous::{self, PenaltyBound};
use crate::mapping::Mapping;
use crate::Mapper;
use manytest_noc::RegionSearch;
use manytest_workload::TaskGraph;
use serde::{Deserialize, Serialize};

/// Test-aware utilization-oriented runtime mapping.
///
/// Structurally identical to the baseline (square-region first-node search
/// followed by contiguous placement), but node desirability adds two
/// pressure terms:
///
/// * `utilization_weight × utilization(c)` — avoid cores that have been
///   busy recently, spreading stress (and heat) across the die;
/// * `criticality_weight × criticality(c)` — avoid cores that are overdue
///   for a test, so the test scheduler finds them idle.
///
/// Both terms feed the region search *and* the per-node placement penalty,
/// mirroring how the paper threads test criticality through the whole
/// mapping decision.
///
/// # Examples
///
/// ```
/// use manytest_map::prelude::*;
/// use manytest_noc::{Coord, Mesh2D};
/// use manytest_workload::presets;
///
/// let mesh = Mesh2D::new(8, 8);
/// let mut ctx = MapContext::all_free(mesh);
/// // The top-left corner is overdue for testing.
/// ctx.set_criticality(Coord::new(0, 0), 10.0);
/// let mapping = TestAwareMapper::default().map(&ctx, &presets::pip()).unwrap();
/// assert!(!mapping.coords().contains(&Coord::new(0, 0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestAwareMapper {
    /// Weight of the recent-utilisation penalty.
    pub utilization_weight: f64,
    /// Weight of the test-criticality penalty.
    pub criticality_weight: f64,
}

impl TestAwareMapper {
    /// Creates a mapper with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if either weight is negative or non-finite.
    pub fn new(utilization_weight: f64, criticality_weight: f64) -> Self {
        assert!(
            utilization_weight >= 0.0 && utilization_weight.is_finite(),
            "utilization weight must be non-negative"
        );
        assert!(
            criticality_weight >= 0.0 && criticality_weight.is_finite(),
            "criticality weight must be non-negative"
        );
        TestAwareMapper {
            utilization_weight,
            criticality_weight,
        }
    }

    fn node_penalty(&self, ctx: &MapContext, c: manytest_noc::Coord) -> f64 {
        self.utilization_weight * ctx.utilization(c)
            + self.criticality_weight * ctx.criticality(c)
    }
}

impl Default for TestAwareMapper {
    /// The tuning used in the evaluation: criticality dominates (keeping
    /// overdue cores free matters more than stress spreading), utilisation
    /// breaks ties.
    fn default() -> Self {
        TestAwareMapper::new(2.0, 6.0)
    }
}

impl Mapper for TestAwareMapper {
    // lint:effect(alloc+panic, reason = "mapping lane materializes one placement per admitted app; placement expects hold on the searched region")
    fn map(&self, ctx: &MapContext, app: &TaskGraph) -> Option<Mapping> {
        let search = RegionSearch::new(ctx.mesh());
        let (choice, range) = search.find_with_range(
            app.task_count(),
            |c| ctx.is_free(c),
            |c| self.node_penalty(ctx, c),
        )?;
        // Express the pressure terms in units of "one hop of typical
        // traffic", otherwise the communication attraction (bits × hops)
        // numerically drowns them.
        let scale = contiguous::mean_edge_bits(app);
        // The search scored every free core, so placement's bound comes
        // from its range.
        contiguous::place_with_bound(
            ctx,
            choice.region,
            app,
            |c| self.node_penalty(ctx, c) * scale,
            PenaltyBound::scaled(range, scale),
        )
    }

    fn name(&self) -> &str {
        "test-aware-utilization"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_noc::{Coord, Mesh2D};
    use manytest_sim::SimRng;
    use manytest_workload::presets;

    #[test]
    fn avoids_high_criticality_cores() {
        let mesh = Mesh2D::new(8, 8);
        let mut ctx = MapContext::all_free(mesh);
        // Mark a 4x4 block as highly test-critical.
        for c in mesh.coords().filter(|c| c.x < 4 && c.y < 4) {
            ctx.set_criticality(c, 50.0);
        }
        let m = TestAwareMapper::default().map(&ctx, &presets::pip()).unwrap();
        for &c in m.coords() {
            assert!(
                !(c.x < 4 && c.y < 4),
                "mapped onto critical core {c} despite alternatives"
            );
        }
    }

    #[test]
    fn avoids_high_utilization_cores() {
        let mesh = Mesh2D::new(8, 8);
        let n = mesh.node_count();
        let hot_half = mesh.coords().map(|c| if c.y >= 4 { 1.0 } else { 0.0 }).collect();
        let ctx = MapContext::from_parts(mesh, vec![true; n], hot_half, vec![0.0; n]);
        let m = TestAwareMapper::new(5.0, 0.0).map(&ctx, &presets::pip()).unwrap();
        for &c in m.coords() {
            assert!(c.y < 4, "mapped onto hot core {c}");
        }
    }

    #[test]
    fn uses_critical_cores_when_unavoidable() {
        let mesh = Mesh2D::new(3, 3);
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords() {
            ctx.set_criticality(c, 10.0);
        }
        // PIP needs 8 of the 9 cores: no escape, must still succeed.
        let m = TestAwareMapper::default().map(&ctx, &presets::pip());
        assert!(m.is_some());
    }

    #[test]
    fn degenerates_to_baseline_on_clean_context() {
        use crate::baseline::ConaMapper;
        let ctx = MapContext::all_free(Mesh2D::new(8, 8));
        let app = presets::mwd();
        let tum = TestAwareMapper::default().map(&ctx, &app).unwrap();
        let cona = ConaMapper::new().map(&ctx, &app).unwrap();
        assert_eq!(tum, cona, "zero pressure ⇒ identical decisions");
    }

    #[test]
    fn refuses_when_insufficient_cores() {
        let mesh = Mesh2D::new(2, 2);
        let ctx = MapContext::all_free(mesh);
        assert!(TestAwareMapper::default().map(&ctx, &presets::vopd()).is_none());
    }

    #[test]
    fn weights_zero_means_agnostic() {
        let mesh = Mesh2D::new(8, 8);
        let mut ctx = MapContext::all_free(mesh);
        ctx.set_criticality(Coord::new(0, 0), 100.0);
        let agnostic = TestAwareMapper::new(0.0, 0.0);
        let clean = MapContext::all_free(mesh);
        let app = presets::pip();
        assert_eq!(agnostic.map(&ctx, &app), agnostic.map(&clean, &app));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        TestAwareMapper::new(-1.0, 0.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(TestAwareMapper::default().name(), "test-aware-utilization");
    }

    /// `map` is the region search followed by placement under the
    /// mapper's own penalty, scaled by the app's mean edge volume, with
    /// the placement's bound taken from the search's score range. The
    /// placement is checked against its reference here; the search against
    /// its own in `manytest-noc`.
    #[test]
    fn map_matches_search_plus_reference_placement() {
        let mut rng = SimRng::seed_from(1818);
        let mesh = Mesh2D::new(64, 64);
        let tum = TestAwareMapper::default();
        // Idle cores before their first test all tie on criticality;
        // later the pressure spreads over a continuous range.
        for (busy, tied) in [
            (0.03, true),
            (0.0, false),
            (0.03, false),
            (0.5, false),
            (0.9, false),
        ] {
            let n = mesh.node_count();
            let (mut free, mut utilization, mut criticality) =
                (vec![true; n], vec![0.0; n], vec![0.0; n]);
            for i in 0..n {
                free[i] = rng.next_f64() >= busy;
                if tied {
                    criticality[i] = 0.125;
                } else {
                    utilization[i] = rng.next_f64();
                    criticality[i] = rng.gen_f64_range(0.0, 3.0);
                }
            }
            let ctx = MapContext::from_parts(mesh, free, utilization, criticality);
            let penalty = |c: Coord| {
                tum.utilization_weight * ctx.utilization(c)
                    + tum.criticality_weight * ctx.criticality(c)
            };
            for app in presets::all() {
                let scale = contiguous::mean_edge_bits(&app);
                let expected = RegionSearch::new(mesh)
                    .find(app.task_count(), |c| ctx.is_free(c), penalty)
                    .and_then(|choice| {
                        contiguous::place_reference(&ctx, choice.region, &app, |c| {
                            penalty(c) * scale
                        })
                    });
                assert!(expected.is_some(), "{} found no placement", app.name());
                assert_eq!(tum.map(&ctx, &app), expected, "{}, busy {busy}", app.name());
            }
        }
    }

    #[test]
    fn mapping_remains_reasonably_compact() {
        let mesh = Mesh2D::new(10, 10);
        let n = mesh.node_count();
        // Light random-ish pressure should not destroy contiguity.
        let pressure = (0..n).map(|i| ((i * 7) % 10) as f64 / 20.0).collect();
        let ctx = MapContext::from_parts(mesh, vec![true; n], pressure, vec![0.0; n]);
        let m = TestAwareMapper::default().map(&ctx, &presets::vopd()).unwrap();
        let (lo, hi) = m.bounding_box().expect("non-empty mapping");
        let area = usize::from(hi.x - lo.x + 1) * usize::from(hi.y - lo.y + 1);
        assert!(area <= 36, "area {area}");
    }
}
