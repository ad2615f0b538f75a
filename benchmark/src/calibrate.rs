//! Host-speed reference.
//!
//! On a shared host the same work takes a varying time: the speed of the
//! machine drifts by tens of percent over seconds to minutes. A fixed,
//! benchmark-owned kernel timed before and after each simulation run
//! measures that speed, and scaling the run by it cancels most of the
//! drift. The kernel uses no simulator code, so a change to the simulator
//! cannot move it. It mixes the kinds of work the simulator does (sorting,
//! hashing, a binary heap, a floating-point stencil and a region scan) so
//! that it slows down with the host the way the simulator does.

use crate::clock::now_ns;
use crate::stats::median;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Host nanoseconds of one kernel run on the reference host (an Intel Xeon
/// vCPU, the host the README baseline was measured on).
const NOMINAL_NS: f64 = 530_000.0;

/// Kernel runs per speed reading.
const RUNS: usize = 3;
/// Keys sorted, hashed and heaped per run.
const KEYS: usize = 8192;
/// Stencil cells, and the gap between the two stencil buffers: an offset
/// that is not a multiple of 4 KiB keeps loads from one buffer from
/// aliasing stores to the other, which would make the kernel's speed
/// depend on where the allocator put them.
const CELLS: usize = 4096;
const GAP: usize = 8;
/// Edge of the region scan's occupancy mask, and the free cells a region
/// must hold.
const EDGE: usize = 64;
const REGION: usize = 16;

/// The kernel's buffers, allocated once so that a speed reading neither
/// allocates nor page-faults.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u64>,
    heap: BinaryHeap<u64>,
    grid: Vec<f64>,
    free: Vec<bool>,
    weight: Vec<f64>,
}

/// A fixed xorshift sequence, so every process runs the same kernel.
fn xorshift() -> impl FnMut() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

impl Default for Reference {
    fn default() -> Self {
        let mut next = xorshift();
        // 3 % of the mask busy, like a mostly free mesh.
        let free = (0..EDGE * EDGE).map(|_| next() % 100 >= 3).collect();
        let weight = (0..EDGE * EDGE)
            .map(|_| (next() % 1000) as f64 / 1000.0)
            .collect();
        Reference {
            keys: Vec::with_capacity(KEYS),
            heap: BinaryHeap::with_capacity(KEYS / 4),
            grid: vec![0.0; 2 * (CELLS + GAP)],
            free,
            weight,
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its host nanoseconds.
    fn run_ns(&mut self) -> u64 {
        let start = now_ns();
        self.keys.clear();
        self.keys
            .extend(std::iter::repeat_with(xorshift()).take(KEYS));
        self.keys.sort_unstable();
        let hash = self.keys.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &k| {
            (h ^ k).wrapping_mul(0x0100_0000_01b3)
        });
        self.heap.clear();
        self.heap
            .extend(self.keys.iter().step_by(4).map(|&k| k >> 3));
        let mut popped = 0u64;
        while let Some(top) = self.heap.pop() {
            popped = popped.wrapping_add(top);
        }
        self.grid.fill(1.0);
        let (mut from, mut to) = self.grid.split_at_mut(CELLS + GAP);
        for step in 0..24 {
            for i in 1..CELLS - 1 {
                to[i] = 0.25 * from[i - 1] + 0.5 * from[i] + 0.25 * from[i + 1] + (step & 1) as f64;
            }
            std::mem::swap(&mut from, &mut to);
        }
        black_box((hash, popped, from[CELLS / 2], self.region_scan()));
        now_ns() - start
    }

    /// Around every free centre of the mask, grows a square window until it
    /// holds [`REGION`] free cells, summing their weights one by one: the
    /// shape of the mapper's region search, the simulator's hottest loop.
    /// Returns the lightest region's weight.
    fn region_scan(&self) -> f64 {
        let mut lightest = f64::MAX;
        for centre in (0..EDGE * EDGE).filter(|&c| self.free[c]) {
            let (cx, cy) = (centre % EDGE, centre / EDGE);
            for radius in 0..EDGE {
                let (mut found, mut sum) = (0, 0.0);
                for y in cy.saturating_sub(radius)..=(cy + radius).min(EDGE - 1) {
                    for x in cx.saturating_sub(radius)..=(cx + radius).min(EDGE - 1) {
                        let i = y * EDGE + x;
                        if self.free[i] {
                            found += 1;
                            sum += self.weight[i];
                        }
                    }
                }
                if found >= REGION {
                    lightest = lightest.min(sum);
                    break;
                }
            }
        }
        lightest
    }

    /// Current host speed relative to the reference host: `NOMINAL_NS`
    /// over the median of a few kernel runs (below 1 means slower).
    pub fn host_speed(&mut self) -> f64 {
        let runs: Vec<f64> = (0..RUNS).map(|_| self.run_ns() as f64).collect();
        NOMINAL_NS / median(&runs)
    }
}
