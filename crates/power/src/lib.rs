//! Technology scaling, DVFS, power modelling and dynamic power budgeting.
//!
//! Dark silicon is a power phenomenon: with every technology generation the
//! number of cores that fit on a die grows faster than the power budget
//! (TDP) that can be dissipated, so a growing fraction of the chip must stay
//! dark or dim. This crate provides everything the simulator needs to make
//! that phenomenon — and the paper's exploitation of it — concrete:
//!
//! * [`tech`] — per-node parameters ([`TechNode`]: 45/32/22/16 nm) — core
//!   count at fixed die area, nominal and near-threshold voltage, frequency,
//!   effective capacitance, leakage — with ITRS-style scaling factors.
//! * [`dvfs`] — the discrete voltage/frequency ladder ([`VfLadder`],
//!   [`OperatingPoint`]) including near-threshold points, derived from the
//!   alpha-power-law delay model.
//! * [`model`] — the per-core power model ([`PowerModel`]):
//!   `P = α·C_eff·V²·f + V·I_leak`, with power gating for dark cores.
//! * [`budget`] — the chip-level power ledger ([`PowerBudget`]): admission
//!   control reserves power before a task or test may start, so the TDP cap
//!   is honoured **by construction**.
//! * [`pid`] — the ICCD'14 PID power-budget controller ([`PidController`])
//!   and the naive on/off TDP policy it is compared against.
//! * [`meter`] — per-category energy accounting ([`PowerMeter`]).
//!
//! # Examples
//!
//! ```
//! use manytest_power::prelude::*;
//!
//! let node = TechNode::N16;
//! let model = PowerModel::for_node(node);
//! let ladder = VfLadder::for_node(node, 5);
//! let busy = model.core_power(ladder.point(VfLevel(4)), 0.5);
//! let dim = model.core_power(ladder.point(VfLevel(0)), 0.5);
//! assert!(dim < busy, "near-threshold operation must save power");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod dvfs;
pub mod meter;
pub mod model;
pub mod pid;
pub mod tech;

pub use budget::{PowerBudget, Reservation};
pub use dvfs::{OperatingPoint, VfLadder, VfLevel};
pub use meter::{PowerCategory, PowerMeter};
pub use model::PowerModel;
pub use pid::{NaiveTdpPolicy, PidController, PowerGovernor};
pub use tech::TechNode;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::budget::{PowerBudget, Reservation};
    pub use crate::dvfs::{OperatingPoint, VfLadder, VfLevel};
    pub use crate::meter::{PowerCategory, PowerMeter};
    pub use crate::model::PowerModel;
    pub use crate::pid::{NaiveTdpPolicy, PidController, PowerGovernor};
    pub use crate::tech::TechNode;
}
