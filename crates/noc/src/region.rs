//! Square-region availability search.
//!
//! The runtime mapper of this paper family (MapPro, CoNA) picks a *first
//! node* for an incoming application by looking for a square region around a
//! candidate centre that contains enough available cores, preferring small,
//! dense regions (low dispersion → low congestion). [`Region`] is a
//! Chebyshev ball clipped to the mesh; [`RegionSearch`] scans candidate
//! centres and returns the best `(centre, radius)` under a caller-supplied
//! per-node desirability score.

use crate::coord::Coord;
use crate::topology::Mesh2D;
use serde::{Deserialize, Serialize};

/// A square region: all mesh nodes within Chebyshev distance `radius` of
/// `center`, clipped to the mesh boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// Centre of the square.
    pub center: Coord,
    /// Chebyshev radius (0 = just the centre).
    pub radius: u16,
}

impl Region {
    /// Creates a region.
    pub const fn new(center: Coord, radius: u16) -> Self {
        Region { center, radius }
    }
}

/// Result of a region search: where to map and how dispersed the region is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionChoice {
    /// Chosen region.
    pub region: Region,
    /// Number of available nodes inside the region.
    pub available: usize,
    /// Score of the winning candidate (lower is better).
    pub score: f64,
}

/// The least and the greatest of the scores a region search evaluated, and
/// whether every one of them was finite.
///
/// `min` and `max` skip NaN scores, which clear `all_finite` instead. A
/// search that evaluated no score reports `min = +∞`, `max = -∞` and
/// `all_finite = true`. Of two scores that compare equal (`-0.0` and
/// `+0.0`), either may be the one reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRange {
    /// The least score evaluated.
    pub min: f64,
    /// The greatest score evaluated.
    pub max: f64,
    /// True if no score evaluated was infinite or NaN.
    pub all_finite: bool,
}

impl ScoreRange {
    /// The range of no scores.
    const EMPTY: ScoreRange = ScoreRange {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        all_finite: true,
    };
}

/// Adjacent centres of a row whose exact score sums accumulate together,
/// one lane each. Eight `f64` lanes fill four SSE2 registers, so the add
/// over lanes vectorises into four independent chains. Sixteen lanes were
/// no faster on a sparse 64×64 mesh and slower on a half-busy one, where
/// more of each group is not a contender.
const LANES: usize = 8;

/// Square-region first-node search over a mesh.
///
/// # Examples
///
/// ```
/// use manytest_noc::prelude::*;
///
/// let mesh = Mesh2D::new(8, 8);
/// let search = RegionSearch::new(mesh);
/// // Everything free, no preference: any radius-1 square fits 4 cores.
/// let choice = search
///     .find(4, |_| true, |_| 0.0)
///     .expect("mesh has room");
/// assert!(choice.available >= 4);
/// assert!(choice.region.radius <= 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RegionSearch {
    mesh: Mesh2D,
}

impl RegionSearch {
    /// Creates a search over `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        RegionSearch { mesh }
    }

    /// Finds the best region holding at least `required` nodes for which
    /// `is_free` returns true.
    ///
    /// Candidates are ranked by `radius` first (small, dense regions win,
    /// minimising dispersion), then by the sum of `node_score` over the free
    /// nodes of the region (lower is better — callers express utilisation or
    /// test-criticality preferences here), then by centre id for
    /// determinism. Returns `None` when fewer than `required` nodes are free
    /// in the whole mesh.
    ///
    /// `is_free` is called once per node, in one row-major pass that
    /// builds an integer summed-area table of the free mask and the list
    /// of free centres, and `node_score` once per free node, after the
    /// radius is known. The minimal radius is found level by level:
    /// starting at the smallest square that can hold `required` nodes, each
    /// level marks the free centres whose square holds `required` free
    /// nodes, and the first level that marks any is the winning radius.
    /// Only the marked centres can win. Their exact score sums run eight
    /// adjacent centres of a row at a time over rows of scores padded with
    /// `+0.0` (busy and off-mesh nodes), each lane adding its own square in
    /// the region's row-major order. A running sum that starts at `+0.0`
    /// is never `-0.0` under round-to-nearest, so adding `+0.0` changes no
    /// bit and the score bits match a rescan. A sum that meets a NaN stays
    /// NaN, so the ranking holds there too, but Rust leaves the sign and
    /// payload of a NaN result unspecified, and a NaN winner's bits may
    /// differ. The contenders then fold in ascending id, so a tie keeps
    /// the lowest id.
    ///
    /// `node_score` is called only when a region is found, and neither
    /// closure for a request of no nodes. [`RegionSearch::find_with_range`]
    /// runs the same search and also reports the range of the scores.
    // lint:effect(alloc, reason = "the call graph resolves every `.find(` call to this fn by name, Iterator::find included; the summed-area table, centre list and padded score rows are per-search scratch")
    pub fn find<F, S>(&self, required: usize, is_free: F, node_score: S) -> Option<RegionChoice>
    where
        F: Fn(Coord) -> bool,
        S: Fn(Coord) -> f64,
    {
        self.find_with_range(required, is_free, node_score)
            .map(|(choice, _)| choice)
    }

    /// [`RegionSearch::find`], plus the [`ScoreRange`] of every
    /// `node_score` value the search evaluated.
    ///
    /// `node_score` runs once per free node whenever a region is found,
    /// so the range then covers every free node; a request for no nodes
    /// evaluates nothing and reports the empty range. The range is folded
    /// in the pass that stores the scores, with no extra pass. A caller
    /// that later weighs the same free nodes by a monotone function of
    /// their scores, as the test-aware mapper's placement does, can take
    /// the least weight and its finiteness from the range without
    /// evaluating another node.
    // lint:effect(alloc, reason = "the summed-area table, centre list and padded score rows are per-search scratch")
    pub fn find_with_range<F, S>(
        &self,
        required: usize,
        is_free: F,
        node_score: S,
    ) -> Option<(RegionChoice, ScoreRange)>
    where
        F: Fn(Coord) -> bool,
        S: Fn(Coord) -> f64,
    {
        if required == 0 {
            // Degenerate but well-defined: an empty application fits anywhere.
            let choice = RegionChoice {
                region: Region::new(Coord::new(0, 0), 0),
                available: 0,
                score: 0.0,
            };
            return Some((choice, ScoreRange::EMPTY));
        }
        let mesh = self.mesh;
        let (w, h) = (usize::from(mesh.width()), usize::from(mesh.height()));
        // sat[y * stride + x] counts the free nodes in rows < y, columns
        // < x (at most 65535², so a u32 holds it); free centres in id order.
        let stride = w + 1;
        let mut sat = vec![0u32; stride * (h + 1)];
        let mut centres: Vec<Coord> = Vec::with_capacity(w * h);
        for y in 0..h {
            let mut row_free = 0;
            for x in 0..w {
                let c = Coord::new(x as u16, y as u16);
                let free = is_free(c);
                if free {
                    centres.push(c);
                }
                row_free += u32::from(free);
                sat[(y + 1) * stride + x + 1] = sat[y * stride + x + 1] + row_free;
            }
        }
        if centres.len() < required {
            return None;
        }
        let free_within = |c: Coord, radius: usize| -> usize {
            let (cx, cy) = (usize::from(c.x), usize::from(c.y));
            let (x0, y0) = (cx.saturating_sub(radius), cy.saturating_sub(radius));
            let (x1, y1) = ((cx + radius + 1).min(w), (cy + radius + 1).min(h));
            // Free nodes in rows y0..y1, columns < x: no term can overflow.
            let strip = |x: usize| sat[y1 * stride + x] - sat[y0 * stride + x];
            (strip(x1) - strip(x0)) as usize
        };
        // No square smaller than this holds `required` nodes. The levels
        // end by a radius whose square covers the mesh from every centre.
        let mut radius = 0;
        while (2 * radius + 1) * (2 * radius + 1) < required {
            radius += 1;
        }
        let mut contender = vec![false; centres.len()];
        loop {
            let mut any = false;
            for (mark, &c) in contender.iter_mut().zip(&centres) {
                *mark = free_within(c, radius) >= required;
                any |= *mark;
            }
            if any {
                break;
            }
            radius += 1;
        }
        // Scores in rows padded with `radius` zeros on the left and enough
        // on the right for the last lane group's squares; +0.0 where busy.
        let side = 2 * radius + 1;
        let padded_w = w + side - 1 + LANES;
        let mut padded = vec![0.0; padded_w * h];
        let mut range = ScoreRange::EMPTY;
        for &c in &centres {
            let score = node_score(c);
            padded[usize::from(c.y) * padded_w + radius + usize::from(c.x)] = score;
            // NaN fails both comparisons and clears the flag.
            if score < range.min {
                range.min = score;
            }
            if score > range.max {
                range.max = score;
            }
            range.all_finite &= score.is_finite();
        }
        let mut best: Option<RegionChoice> = None;
        let mut i = 0;
        while i < centres.len() {
            if !contender[i] {
                i += 1;
                continue;
            }
            // The lane group holding this contender: columns x0..x0 + LANES
            // of row `cy`. Lane `l`'s square starts at padded column x0 + l.
            let (cx, cy) = (usize::from(centres[i].x), usize::from(centres[i].y));
            let x0 = cx - cx % LANES;
            let (y0, y1) = (cy.saturating_sub(radius), (cy + radius + 1).min(h));
            let mut sums = [0.0; LANES];
            for row in padded[y0 * padded_w..y1 * padded_w].chunks_exact(padded_w) {
                let row = &row[x0..x0 + side - 1 + LANES];
                for dx in 0..side {
                    let cells = &row[dx..dx + LANES];
                    for (sum, cell) in sums.iter_mut().zip(cells) {
                        *sum += cell;
                    }
                }
            }
            // Contenders in ascending id: a tie keeps the earlier one.
            while let Some(&c) = centres
                .get(i)
                .filter(|c| usize::from(c.y) == cy && usize::from(c.x) < x0 + LANES)
            {
                let score = sums[usize::from(c.x) - x0];
                if contender[i] && best.is_none_or(|b| score < b.score) {
                    best = Some(RegionChoice {
                        region: Region::new(c, radius as u16),
                        available: free_within(c, radius),
                        score,
                    });
                }
                i += 1;
            }
        }
        best.map(|choice| (choice, range))
    }
}

/// The region search as first written: every radius of every free centre
/// rescanned from scratch. [`RegionSearch::find`] must match it bit for bit.
#[cfg(test)]
fn find_reference<F, S>(
    mesh: Mesh2D,
    required: usize,
    is_free: F,
    node_score: S,
) -> Option<RegionChoice>
where
    F: Fn(Coord) -> bool,
    S: Fn(Coord) -> f64,
{
    if required == 0 {
        // Degenerate but well-defined: an empty application fits anywhere.
        return Some(RegionChoice {
            region: Region::new(Coord::new(0, 0), 0),
            available: 0,
            score: 0.0,
        });
    }
    let total_free = mesh.coords().filter(|&c| is_free(c)).count();
    if total_free < required {
        return None;
    }
    let max_radius = mesh.width().max(mesh.height());
    let mut best: Option<(u16, f64, Coord)> = None;
    let mut best_available = 0usize;
    for center in mesh.coords() {
        if !is_free(center) {
            continue;
        }
        // Smallest radius around this centre that collects `required`
        // free nodes.
        let mut found: Option<(u16, usize, f64)> = None;
        for radius in 0..=max_radius {
            // The square of Chebyshev radius `radius`, clipped to the
            // mesh, walked row-major.
            let (x0, y0) = (center.x.saturating_sub(radius), center.y.saturating_sub(radius));
            let x1 = (center.x + radius).min(mesh.width() - 1);
            let y1 = (center.y + radius).min(mesh.height() - 1);
            let mut avail = 0usize;
            let mut score = 0.0;
            for c in (y0..=y1).flat_map(|y| (x0..=x1).map(move |x| Coord::new(x, y))) {
                if is_free(c) {
                    avail += 1;
                    score += node_score(c);
                }
            }
            if avail >= required {
                found = Some((radius, avail, score));
                break;
            }
            // Region already spans the whole mesh and still lacks nodes.
            if usize::from(x1 - x0 + 1) * usize::from(y1 - y0 + 1) == mesh.node_count() {
                break;
            }
        }
        if let Some((radius, avail, score)) = found {
            let candidate = (radius, score, center);
            let better = match &best {
                None => true,
                Some((br, bs, bc)) => {
                    (radius, score) < (*br, *bs)
                        || ((radius, score) == (*br, *bs)
                            && mesh.node_id(center) < mesh.node_id(*bc))
                }
            };
            if better {
                best = Some(candidate);
                best_available = avail;
            }
        }
    }
    best.map(|(radius, score, center)| RegionChoice {
        region: Region::new(center, radius),
        available: best_available,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::SimRng;

    #[test]
    fn search_prefers_smallest_radius() {
        let mesh = Mesh2D::new(8, 8);
        let search = RegionSearch::new(mesh);
        let choice = search.find(1, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice.region.radius, 0);
        let choice9 = search.find(9, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice9.region.radius, 1);
    }

    #[test]
    fn search_respects_availability() {
        let mesh = Mesh2D::new(4, 4);
        let search = RegionSearch::new(mesh);
        // Only the top row is free.
        let is_free = |c: Coord| c.y == 3;
        let choice = search.find(3, is_free, |_| 0.0).unwrap();
        assert!(choice.available >= 3);
        let region = choice.region;
        let free_in_region = mesh
            .coords()
            .filter(|&c| region.center.chebyshev(c) <= u32::from(region.radius) && is_free(c))
            .count();
        assert!(free_in_region >= 3);
    }

    #[test]
    fn search_fails_when_not_enough_free() {
        let mesh = Mesh2D::new(3, 3);
        let search = RegionSearch::new(mesh);
        assert!(search.find(10, |_| true, |_| 0.0).is_none());
        assert!(search.find(1, |_| false, |_| 0.0).is_none());
    }

    #[test]
    fn search_uses_node_score_to_break_radius_ties() {
        let mesh = Mesh2D::new(8, 2);
        let search = RegionSearch::new(mesh);
        // Single-node request, all free: score should steer the pick to the
        // cheapest node.
        let cheap = Coord::new(5, 1);
        let choice = search
            .find(1, |_| true, |c| if c == cheap { -10.0 } else { 0.0 })
            .unwrap();
        assert_eq!(choice.region.center, cheap);
    }

    #[test]
    fn search_is_deterministic() {
        let mesh = Mesh2D::new(6, 6);
        let search = RegionSearch::new(mesh);
        let a = search.find(4, |c| c.x % 2 == 0, |_| 1.0).unwrap();
        let b = search.find(4, |c| c.x % 2 == 0, |_| 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_required_is_trivially_satisfied() {
        let mesh = Mesh2D::new(2, 2);
        let choice = RegionSearch::new(mesh).find(0, |_| false, |_| 0.0).unwrap();
        assert_eq!(choice.available, 0);
    }

    #[test]
    fn whole_mesh_request_spans_mesh() {
        let mesh = Mesh2D::new(4, 4);
        let choice = RegionSearch::new(mesh).find(16, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice.available, 16);
        let region = choice.region;
        assert!(mesh.coords().all(|c| region.center.chebyshev(c) <= u32::from(region.radius)));
    }

    /// Per-node scores in one of four styles: tie-heavy quantised or
    /// continuous utilisation/criticality pressure (as the test-aware
    /// mapper weights it), signed noise, or all zero.
    fn random_scores(rng: &mut SimRng, n: usize) -> Vec<f64> {
        let style = rng.gen_range(4);
        random_scores_of_style(rng, n, style)
    }

    fn random_scores_of_style(rng: &mut SimRng, n: usize, style: u64) -> Vec<f64> {
        (0..n)
            .map(|_| match style {
                0 => 2.0 * (rng.gen_range(5) as f64 / 4.0) + 6.0 * rng.gen_range(3) as f64,
                1 => 2.0 * rng.next_f64() + 6.0 * rng.gen_f64_range(0.0, 3.0),
                2 => rng.gen_f64_range(-5.0, 5.0),
                _ => 0.0,
            })
            .collect()
    }

    /// Random occupancy in [0, 1] (sometimes exactly 0 or 1) plus a few
    /// quarantined holes, as a free mask.
    fn random_free(rng: &mut SimRng, n: usize) -> Vec<bool> {
        let busy = match rng.gen_range(6) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        let holes = rng.gen_range(4) as usize;
        let mut free: Vec<bool> = (0..n).map(|_| rng.next_f64() >= busy).collect();
        for _ in 0..holes {
            free[rng.gen_range(n as u64) as usize] = false;
        }
        free
    }

    /// A request size: mostly application-sized, sometimes past the free
    /// count, and on meshes of up to 200 nodes anything up to the free
    /// count (the reference rescan is cubic in the radius, so larger
    /// meshes keep to small requests).
    fn random_required(rng: &mut SimRng, nodes: usize, free: usize) -> usize {
        match rng.gen_range(8) {
            0 => free + 1 + rng.gen_range(2) as usize,
            1 | 2 if nodes <= 200 => rng.gen_range_inclusive(0, free as u64) as usize,
            _ => rng.gen_range_inclusive(0, 16) as usize,
        }
    }

    fn assert_matches_reference(mesh: Mesh2D, required: usize, free: &[bool], scores: &[f64]) {
        let is_free = |c: Coord| free[mesh.node_id(c).index()];
        let node_score = |c: Coord| scores[mesh.node_id(c).index()];
        let key = |r: Option<RegionChoice>| r.map(|r| (r.region, r.available, r.score.to_bits()));
        assert_eq!(
            key(RegionSearch::new(mesh).find(required, is_free, node_score)),
            key(find_reference(mesh, required, is_free, node_score)),
            "{mesh:?}, required {required}"
        );
    }

    /// Scores for the range checks: explicit `-0.0` mixed with `+0.0`,
    /// all equal, subnormal of both signs, scattered ±∞, scattered NaN,
    /// or continuous pressure.
    fn range_scores(rng: &mut SimRng, n: usize, style: u64) -> Vec<f64> {
        let tiny = f64::MIN_POSITIVE / 4.0;
        (0..n)
            .map(|_| match style {
                0 if rng.gen_bool(0.5) => -0.0,
                0 => 0.0,
                1 => 0.75,
                2 => tiny * (rng.gen_range(5) as f64 - 2.0),
                3 => match rng.gen_range(20) {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    _ => rng.gen_f64_range(-5.0, 5.0),
                },
                4 if rng.gen_bool(0.05) => f64::NAN,
                4 => rng.gen_f64_range(-5.0, 5.0),
                _ => 2.0 * rng.next_f64() + 6.0 * rng.gen_f64_range(0.0, 3.0),
            })
            .collect()
    }

    /// `find_with_range` returns `find`'s choice, and a range equal in
    /// value to a fold over the score of every free node (nothing for a
    /// request of no nodes).
    fn assert_range_matches(mesh: Mesh2D, required: usize, free: &[bool], scores: &[f64]) {
        let is_free = |c: Coord| free[mesh.node_id(c).index()];
        let node_score = |c: Coord| scores[mesh.node_id(c).index()];
        let search = RegionSearch::new(mesh);
        let found = search.find_with_range(required, is_free, node_score);
        let key = |r: Option<RegionChoice>| r.map(|r| (r.region, r.available, r.score.to_bits()));
        assert_eq!(
            key(found.map(|(choice, _)| choice)),
            key(search.find(required, is_free, node_score)),
            "{mesh:?}, required {required}"
        );
        let n_free = free.iter().filter(|&&f| f).count();
        let Some((_, range)) = found else {
            assert!(
                n_free < required,
                "{mesh:?}: {n_free} free, required {required}"
            );
            return;
        };
        let scored = free
            .iter()
            .zip(scores)
            .filter(|&(&f, _)| f && required > 0)
            .map(|(_, &s)| s);
        let (min, max, all_finite) = scored.fold(
            (f64::INFINITY, f64::NEG_INFINITY, true),
            |(min, max, finite), s| (min.min(s), max.max(s), finite && s.is_finite()),
        );
        // Compared as values: -0.0 and +0.0 are the same least score.
        assert!(
            range.min == min && range.max == max && range.all_finite == all_finite,
            "{mesh:?}, required {required}: {range:?}, want ({min}, {max}, {all_finite})"
        );
    }

    #[test]
    fn find_range_matches_a_fold_over_every_free_node() {
        let mut rng = SimRng::seed_from(3131);
        for w in 1..=24 {
            for h in 1..=24 {
                let mesh = Mesh2D::new(w, h);
                let free = random_free(&mut rng, mesh.node_count());
                let n_free = free.iter().filter(|&&f| f).count();
                for style in 0..6 {
                    let scores = range_scores(&mut rng, mesh.node_count(), style);
                    let required = random_required(&mut rng, mesh.node_count(), n_free);
                    assert_range_matches(mesh, required, &free, &scores);
                }
                // One node too many: no region, so no range.
                let scores = range_scores(&mut rng, mesh.node_count(), 5);
                assert_range_matches(mesh, n_free + 1, &free, &scores);
            }
        }
        for (w, h) in [(64, 64), (63, 65), (65, 63)] {
            let mesh = Mesh2D::new(w, h);
            for busy in [0.0, 0.03, 0.5, 0.9] {
                let free: Vec<bool> = (0..mesh.node_count())
                    .map(|_| rng.next_f64() >= busy)
                    .collect();
                for style in 0..6 {
                    let scores = range_scores(&mut rng, mesh.node_count(), style);
                    let required = rng.gen_range_inclusive(0, 22) as usize;
                    assert_range_matches(mesh, required, &free, &scores);
                }
            }
        }
    }

    #[test]
    fn find_matches_reference_on_every_small_shape() {
        let mut rng = SimRng::seed_from(1313);
        for w in 1..=24 {
            for h in 1..=24 {
                let mesh = Mesh2D::new(w, h);
                for _ in 0..2 {
                    let free = random_free(&mut rng, mesh.node_count());
                    let scores = random_scores(&mut rng, mesh.node_count());
                    let n_free = free.iter().filter(|&&f| f).count();
                    let required = random_required(&mut rng, mesh.node_count(), n_free);
                    assert_matches_reference(mesh, required, &free, &scores);
                }
            }
        }
    }

    #[test]
    fn find_matches_reference_on_large_meshes() {
        let mut rng = SimRng::seed_from(6464);
        let mesh = Mesh2D::new(64, 64);
        for busy in [0.0, 0.03, 0.5, 0.9, 0.995] {
            let mut free: Vec<bool> = (0..mesh.node_count())
                .map(|_| rng.next_f64() >= busy)
                .collect();
            // A quarantined block in the middle of the die.
            for (x, y) in (27..=33).flat_map(|y| (27..=33).map(move |x| (x, y))) {
                free[mesh.node_id(Coord::new(x, y)).index()] = false;
            }
            let scores = random_scores(&mut rng, mesh.node_count());
            let required = rng.gen_range_inclusive(1, 16) as usize;
            assert_matches_reference(mesh, required, &free, &scores);
        }
        // The states the lane sums are sensitive to: square and non-square
        // meshes (the last lane group of a row partial), a mostly free die
        // and one with a busy column at every lane-group boundary, under
        // all-equal nonzero scores (every idle core before its first
        // test), quantised ties, explicit -0.0 scores and continuous
        // scores, whose sum bits depend on the summation order.
        for (w, h) in [(64, 64), (63, 65), (65, 63)] {
            let mesh = Mesh2D::new(w, h);
            let n = mesh.node_count();
            for boundary_columns in [false, true] {
                let free: Vec<bool> = mesh
                    .coords()
                    .map(|c| {
                        let column_busy = boundary_columns && usize::from(c.x) % LANES == 0;
                        !column_busy && rng.next_f64() >= 0.03
                    })
                    .collect();
                let tied = vec![0.75; n];
                let quantised: Vec<f64> = (0..n).map(|_| rng.gen_range(3) as f64).collect();
                let signed_zeros: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(3) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(2) as f64,
                    })
                    .collect();
                let continuous = random_scores_of_style(&mut rng, n, 1);
                for scores in [
                    &tied,
                    &quantised,
                    &signed_zeros,
                    &vec![-0.0; n],
                    &continuous,
                ] {
                    let required = rng.gen_range_inclusive(1, 22) as usize;
                    assert_matches_reference(mesh, required, &free, scores);
                }
            }
        }
    }
}
