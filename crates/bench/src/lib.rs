//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (reconstructed — see `EXPERIMENTS.md` at the repo root).
//!
//! Each experiment is a pure function from a [`Scale`] (how long/heavy to
//! run) to a structured result with a `print()` method that emits the
//! series/rows the paper reports. The `repro` binary runs them all at
//! [`Scale::Full`], or at [`Scale::Quick`] with `--quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod diff;
pub mod events;
pub mod experiments;
pub mod kernels;
pub mod regress;
pub mod report;
pub mod runner;
pub mod trace;

pub use ablations::*;
pub use experiments::*;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short horizons for `repro --quick`, the golden store and the
    /// verdict tests.
    Quick,
    /// The horizons used for the reported numbers.
    Full,
}

impl Scale {
    /// Scales a full-size horizon (milliseconds) down for quick runs.
    ///
    /// Quick runs still cover at least 250 ms of simulated time: the test
    /// scheduler's default criticality threshold is crossed ~125 ms into a
    /// run, so anything shorter would measure a system that never tests.
    pub fn ms(self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 2).max(250),
            Scale::Full => full,
        }
    }

    /// Scales a seed count down for quick runs.
    pub fn seeds(self, full: usize) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => full,
        }
    }
}
