//! The integrated manycore system simulator — ties the NoC, power, aging,
//! workload, mapping and test-scheduling substrates into the platform the
//! DATE 2015 paper evaluates.
//!
//! # Model
//!
//! A [`System`] is a 2-D mesh manycore at one technology node. Time
//! advances in fixed *control epochs* (default 1 ms). At each epoch
//! boundary the control plane runs, in order:
//!
//! 1. **Power governor** — the PID controller (or a baseline policy)
//!    observes last epoch's measured power and moves the admission cap
//!    around the TDP.
//! 2. **Runtime mapper** — pending applications are admitted FIFO: a DVFS
//!    level is chosen (the highest whose projected power fits the cap),
//!    power is reserved, and the mapper places the task graph on free
//!    cores.
//! 3. **Test scheduler** — idle and dark cores are ranked by test
//!    criticality; SBST sessions launch while the remaining headroom
//!    lasts. Sessions are *non-intrusive*: the moment a core's task
//!    becomes ready, its session aborts.
//!
//! Between boundaries, task and session completions are resolved at exact
//! (nanosecond) times through the event queue; per-core energy, stress and
//! utilisation are integrated piecewise.
//!
//! # Examples
//!
//! ```
//! use manytest_core::prelude::*;
//!
//! let report = SystemBuilder::new(TechNode::N16)
//!     .seed(42)
//!     .arrival_rate(200.0)
//!     .sim_time_ms(200)
//!     .build()
//!     .expect("valid config")
//!     .run();
//! assert!(report.apps_completed > 0);
//! assert!(report.tests_completed > 0);
//! // The cap is honoured: measured power never exceeded the TDP band.
//! assert_eq!(report.cap_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod calendar;
pub mod config;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod store;
pub mod system;

pub use audit::validate_events;
pub use config::{FaultResponsePolicy, GovernorKind, MapperKind, SystemConfig};
pub use error::BuildError;
pub use metrics::Report;
pub use system::{System, SystemBuilder};

/// Convenience re-exports for downstream crates and binaries.
pub mod prelude {
    pub use crate::audit::validate_events;
    pub use crate::config::{FaultResponsePolicy, GovernorKind, MapperKind, SystemConfig};
    pub use crate::error::BuildError;
    pub use crate::metrics::Report;
    pub use crate::system::{System, SystemBuilder};
    pub use manytest_power::TechNode;
    pub use manytest_sim::{
        jsonl_kind_counts, AbortReason, CauseKind, CauseLink, CounterRegistry, EventId, EventLog,
        EventRecord, ProvenanceGraph, SimEvent,
    };
}
