//! 2-D mesh network-on-chip model for the `manytest` manycore simulator.
//!
//! The paper's platform is a NoC-based manycore with a 2-D mesh and
//! dimension-ordered (XY) wormhole routing. The original evaluation used an
//! RTL-level NoC; this crate substitutes an **analytical** model that
//! preserves everything the scheduling and mapping policies observe:
//!
//! * hop counts and Manhattan distances ([`routing`]) drive mapping cost and
//!   communication latency,
//! * per-hop router/link energy ([`energy`]) drives the NoC share of chip
//!   power,
//! * square-region availability search ([`region`]) is the first-node
//!   primitive of the runtime mapper (MapPro/CoNA style),
//! * link-utilisation accounting ([`traffic`]) exposes congestion trends,
//! * a queueing-delay contention model ([`contention`]) optionally turns
//!   link loads into latency multipliers.
//!
//! # Examples
//!
//! ```
//! use manytest_noc::prelude::*;
//!
//! let mesh = Mesh2D::new(4, 4);
//! let a = Coord::new(0, 0);
//! let b = Coord::new(3, 2);
//! assert_eq!(a.manhattan(b), 5);
//! assert_eq!(xy_route(a, b).count(), 5);
//! assert_eq!(mesh.node_count(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod coord;
pub mod energy;
pub mod region;
pub mod routing;
pub mod topology;
pub mod traffic;

pub use contention::{ContentionModel, LinkLoads};
pub use coord::{Coord, NodeId};
pub use energy::{LinkEnergyModel, NocEnergy};
pub use region::{Region, RegionSearch, ScoreRange};
pub use routing::{xy_route, Direction, Hop};
pub use topology::Mesh2D;
pub use traffic::TrafficMatrix;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::contention::{ContentionModel, LinkLoads};
    pub use crate::coord::{Coord, NodeId};
    pub use crate::energy::{LinkEnergyModel, NocEnergy};
    pub use crate::region::{Region, RegionSearch};
    pub use crate::routing::{xy_route, Direction, Hop};
    pub use crate::topology::Mesh2D;
    pub use crate::traffic::TrafficMatrix;
}
