//! Software-based self-test (SBST) routines and the power-aware online
//! test scheduler — the paper's primary contribution.
//!
//! SBST tests a core *functionally*: the core runs a carefully constructed
//! instruction sequence that toggles as much logic as possible and compares
//! signatures, with no dedicated test hardware. That makes online testing
//! non-intrusive in principle — any idle core can run a test — but also
//! power-hungry: test code has a far higher activity factor than typical
//! workload. The scheduler must therefore spend only the power *headroom*
//! the workload leaves under the TDP.
//!
//! * [`routine`] — the SBST routine library ([`TestRoutine`],
//!   [`RoutineLibrary`]): instruction volumes, activity factors and fault
//!   coverages per functional block (ALU, FPU, LSU, …).
//! * [`session`] — an in-flight test ([`TestSession`]): progress tracking
//!   and non-intrusive abort (when the mapper reclaims the core).
//! * [`scheduler`] — the power-aware policy ([`TestScheduler`]): each epoch
//!   it ranks idle cores by criticality, rotates each core through the
//!   routine library and the DVFS ladder, and launches sessions only while
//!   projected power fits the reported headroom.
//! * [`coverage`] — the per-core × per-V/f-level ledger
//!   ([`VfCoverageLedger`]), reproducing the journal's "cover all voltage
//!   and frequency levels" behaviour.
//! * [`fault`] — fault injection and detection bookkeeping ([`FaultLog`]):
//!   latent faults planted in cores are detected when a routine covering
//!   them completes, yielding detection-latency statistics.
//! * [`health`] — the per-core health state machine ([`HealthBoard`]):
//!   detections open a `Suspect` state resolved by priority confirmation
//!   retests into either `Quarantined` (withdrawn) or back to `Healthy`.
//!
//! # Examples
//!
//! ```
//! use manytest_sbst::prelude::*;
//! use manytest_power::prelude::*;
//!
//! let node = TechNode::N16;
//! let library = RoutineLibrary::standard();
//! let config = TestSchedulerConfig::default();
//! let mut scheduler = TestScheduler::with_library(config, node, library, node.core_count());
//! // Two idle cores, plenty of headroom: both get a test session.
//! let candidates = vec![
//!     TestCandidate { core: 0, criticality: 2.0 },
//!     TestCandidate { core: 1, criticality: 1.5 },
//! ];
//! let (mut launches, mut denials) = (Vec::new(), Vec::new());
//! scheduler.plan_with_retests_into(&[], &candidates, None, 10.0, &mut launches, &mut denials);
//! assert_eq!(launches.len(), 2);
//! // The most critical core is served first.
//! assert_eq!(launches[0].core, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod fault;
pub mod health;
pub mod routine;
pub mod scheduler;
pub mod session;

pub use coverage::VfCoverageLedger;
pub use fault::{Fault, FaultLog, FaultState, LevelWindowInverted};
pub use health::{CoreHealth, HealthBoard};
pub use routine::{RoutineId, RoutineLibrary, TestRoutine};
pub use scheduler::{
    CandidateClass, RetestRequest, TestCandidate, TestDenial, TestLaunch, TestScheduler,
    TestSchedulerConfig, CRITICALITY_THRESHOLD, LADDER_LEVELS, MAX_LAUNCHES_PER_EPOCH, SBST_IPC,
};
pub use session::{SessionOutcome, TestSession};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::coverage::VfCoverageLedger;
    pub use crate::fault::{Fault, FaultLog, FaultState, LevelWindowInverted};
    pub use crate::health::{CoreHealth, HealthBoard};
    pub use crate::routine::{RoutineId, RoutineLibrary, TestRoutine};
    pub use crate::scheduler::{
        CandidateClass, RetestRequest, TestCandidate, TestDenial, TestLaunch, TestScheduler,
        TestSchedulerConfig,
    };
    pub use crate::session::{SessionOutcome, TestSession};
}
