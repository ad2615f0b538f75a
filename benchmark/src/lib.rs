//! Repeatable host-time benchmark of the manytest simulator.
//!
//! The benchmark drives the simulator only through public API:
//! `SystemBuilder`, `System::run`, `System::set_phase_observer`, `Report`,
//! `PhaseProfile::entries`, `validate_events`, and the layer functions the
//! [`probes`] call. It reports end-to-end host time per workload, per-phase
//! spans of traced runs, and per-layer probe timings and work counts; see
//! `README.md` for the metrics, their bounds and how to compare commits.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod clock;
pub mod fingerprint;
pub mod outcome;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
