//! Deterministic discrete-event simulation kernel for the `manytest` workspace.
//!
//! The kernel provides the pieces every other crate builds on:
//!
//! * [`time`] — strongly typed simulation time ([`SimTime`], [`Duration`]) and
//!   control epochs ([`Epoch`]). The manycore simulator advances in fixed-size
//!   control epochs (the granularity at which the power manager, the mapper
//!   and the test scheduler run), while task/test completions are resolved at
//!   sub-epoch resolution through the event queue.
//! * [`engine`] — a minimal, allocation-friendly event calendar
//!   ([`EventQueue`]) with stable FIFO ordering among simultaneous events, so
//!   that runs are bit-for-bit reproducible.
//! * [`rng`] — a splittable deterministic RNG ([`SimRng`]) so that every
//!   subsystem (workload generator, fault injector, …) draws from an
//!   independent, seed-derived stream.
//! * [`stats`] — small online statistics helpers (mean/min/max and
//!   histograms) used by the metrics layer.
//! * [`trace`] — a lightweight trace sink for time-series output (power
//!   traces, utilisation traces) consumed by the bench harness.
//! * [`obs`] — structured decision telemetry: the typed [`SimEvent`]s the
//!   control loop emits through [`emit_record`] into an optional bounded
//!   [`EventLog`], plus a [`CounterRegistry`] for summaries. Every
//!   emission carries a deterministic [`EventId`] and an optional
//!   [`CauseLink`] back to the decision that triggered it.
//! * [`provenance`] — causal-chain reconstruction over the record
//!   stream: walk any event back to its root ([`ProvenanceGraph`]).
//!
//! # Examples
//!
//! ```
//! use manytest_sim::prelude::*;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_ns(5_000), "five");
//! queue.schedule(SimTime::from_ns(1_000), "one");
//! assert_eq!(queue.pop().map(|e| e.payload), Some("one"));
//! assert_eq!(queue.pop().map(|e| e.payload), Some("five"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod obs;
pub mod provenance;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Event, EventQueue};
pub use obs::{
    emit_record, jsonl_kind_counts, AbortReason, CauseKind, CauseLink, CoreState, CounterRegistry,
    EventId, EventLog, EventRecord, HealthCode, NullPhaseObserver, Phase, PhaseObserver,
    PhaseProfile, SimEvent, StateRecorder, StateSnapshot, StateTimeline,
};
pub use provenance::ProvenanceGraph;
pub use rng::{enter_job_scope, JobScopeGuard, SimRng};
pub use stats::{Histogram, OnlineStats};
pub use time::{Duration, Epoch, SimTime};
pub use trace::{Trace, TraceSeries};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{Event, EventQueue};
    pub use crate::obs::{
        emit_record, jsonl_kind_counts, AbortReason, CauseKind, CauseLink, CoreState,
        CounterRegistry, EventId, EventLog, EventRecord, HealthCode, NullPhaseObserver, Phase,
        PhaseObserver, PhaseProfile, SimEvent, StateRecorder, StateSnapshot, StateTimeline,
    };
    pub use crate::provenance::ProvenanceGraph;
    pub use crate::rng::{enter_job_scope, JobScopeGuard, SimRng};
    pub use crate::stats::{Histogram, OnlineStats};
    pub use crate::time::{Duration, Epoch, SimTime};
    pub use crate::trace::{Trace, TraceSeries};
}
