//! Runtime application mapping: baseline and test-aware strategies.
//!
//! When an application arrives, the runtime mapper must pick *which* free
//! cores execute its tasks. This crate implements the two strategies the
//! paper compares:
//!
//! * [`baseline::ConaMapper`] — the conventional contiguous mapper (CoNA /
//!   SHiC style): choose the smallest square region with enough free cores
//!   ([`manytest_noc::region`]), then place communicating tasks next to
//!   each other ([`contiguous`]). It is *oblivious* to core utilisation
//!   history and test criticality.
//! * [`firstfit::FirstFitMapper`] — the naive non-contiguous lower bound
//!   (task *i* on the *i*-th free core), showing what contiguity buys.
//! * [`tum::TestAwareMapper`] — the paper's **test-aware
//!   utilization-oriented mapping**: the same contiguous machinery, but
//!   node desirability now penalises (a) cores with high test criticality,
//!   so they remain idle and *testable*, and (b) cores with high recent
//!   utilisation, spreading stress.
//!
//! Both implement the [`Mapper`] trait and read the platform state through
//! a [`MapContext`] snapshot, so the simulator can swap them per run.
//!
//! # Examples
//!
//! ```
//! use manytest_map::prelude::*;
//! use manytest_noc::Mesh2D;
//! use manytest_workload::presets;
//!
//! let mesh = Mesh2D::new(8, 8);
//! let ctx = MapContext::all_free(mesh);
//! let app = presets::pip();
//! let mapping = ConaMapper::new().map(&ctx, &app).expect("fits");
//! assert_eq!(mapping.coords().len(), app.task_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod contiguous;
pub mod firstfit;
pub mod context;
pub mod mapping;
pub mod tum;

pub use baseline::ConaMapper;
pub use firstfit::FirstFitMapper;
pub use context::MapContext;
pub use mapping::Mapping;
pub use tum::TestAwareMapper;

use manytest_workload::TaskGraph;

/// A runtime mapping strategy.
///
/// Returns `None` when the application cannot currently be admitted (not
/// enough free cores); the caller queues it and retries later.
pub trait Mapper {
    /// Maps `app` onto free cores described by `ctx`.
    fn map(&self, ctx: &MapContext, app: &TaskGraph) -> Option<Mapping>;

    /// Re-maps a *running* application displaced by a core quarantine.
    ///
    /// The caller builds `ctx` so that the app's own surviving nodes are
    /// marked free (they are available to the new placement) while the
    /// quarantined node is unhealthy. The default is a fresh [`Mapper::map`]
    /// — a contiguous placement on the healthy pool; strategies with
    /// migration-specific logic (e.g. minimising moved state) can
    /// override.
    fn remap(&self, ctx: &MapContext, app: &TaskGraph) -> Option<Mapping> {
        self.map(ctx, app)
    }

    /// Human-readable strategy name (for reports).
    fn name(&self) -> &str;
}

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::baseline::ConaMapper;
    pub use crate::firstfit::FirstFitMapper;
    pub use crate::context::MapContext;
    pub use crate::mapping::Mapping;
    pub use crate::tum::TestAwareMapper;
    pub use crate::Mapper;
}
