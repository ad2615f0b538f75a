//! Device stress/aging model and the test-criticality metric.
//!
//! The journal extension of the reproduced paper states that "a test
//! criticality metric, based on a device aging model, is used to select
//! cores to be tested at a time" and that the approach "adapts to the
//! current stress level of the cores by using the utilization metric". This
//! crate provides that chain:
//!
//! * [`model`] — an Arrhenius-style [`AgingModel`]: per-core power feeds a
//!   steady-state thermal proxy (`T = T_amb + R_th · P`), temperature feeds
//!   an Arrhenius acceleration factor, and the factor scales a base wear
//!   rate. Hot, busy, high-voltage cores age faster — which is exactly the
//!   signal the test scheduler needs.
//! * [`stress`] — [`StressTracker`]: per-core accumulated damage, damage
//!   since the last completed test, exponentially averaged utilisation and
//!   time-of-last-test bookkeeping.
//! * [`thermal`] — an optional transient RC thermal grid
//!   ([`ThermalGrid`]): per-tile capacitance and lateral spreading for
//!   runs where heating dynamics matter (the steady-state proxy remains
//!   the default).
//! * [`criticality`] — [`CriticalityModel`]: combines accumulated stress
//!   since the last test with elapsed time against a target test period
//!   into one scalar priority; the scheduler tests the most critical idle
//!   core first, and the test-aware mapper *avoids* occupying it.
//!
//! # Examples
//!
//! ```
//! use manytest_aging::prelude::*;
//!
//! let aging = AgingModel::default();
//! // A hot core (2 W) wears faster than a cool one (0.2 W).
//! assert!(aging.wear_rate(2.0) > aging.wear_rate(0.2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criticality;
pub mod model;
pub mod stress;
pub mod thermal;

pub use criticality::CriticalityModel;
pub use model::{AgingModel, RecoveryParams};
pub use stress::{CoreStress, EpochWear, StressTracker};
pub use thermal::{ThermalGrid, ThermalParams};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::criticality::CriticalityModel;
    pub use crate::model::{AgingModel, RecoveryParams};
    pub use crate::stress::{CoreStress, EpochWear, StressTracker};
    pub use crate::thermal::{ThermalGrid, ThermalParams};
}
