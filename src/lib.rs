//! # manytest — power-aware online testing of manycore systems in the dark
//! silicon era
//!
//! A from-scratch Rust reproduction of the system evaluated in
//! *"Power-aware online testing of manycore systems in the dark silicon
//! era"* (DATE 2015): a NoC-based manycore platform whose runtime schedules
//! software-based self-test (SBST) routines onto idle cores using only the
//! power headroom left under the chip's TDP, paired with a test-aware
//! utilization-oriented runtime mapper.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof. Depend on it for the whole system, or on the individual crates
//! ([`sim`], [`noc`], [`power`], [`aging`], [`workload`], [`map`],
//! [`sbst`], [`core`]) for a single substrate.
//!
//! # Quickstart
//!
//! ```
//! use manytest::prelude::*;
//!
//! // 16 nm node, 16×16 mesh, 80 W TDP, PID power budgeting, test-aware
//! // mapping, online testing on.
//! let report = SystemBuilder::new(TechNode::N16)
//!     .seed(2024)
//!     .arrival_rate(300.0)   // applications per second
//!     .sim_time_ms(100)
//!     .build()?
//!     .run();
//!
//! println!("{}", report.summary());
//! assert!(report.tests_completed > 0);
//! assert_eq!(report.cap_violations, 0);
//! # Ok::<(), manytest::core::BuildError>(())
//! ```
//!
//! # Reproducing the paper
//!
//! Every figure and table of the evaluation has a generator in the
//! `manytest-bench` crate: `cargo run -p manytest-bench --bin repro --release`
//! prints every series. See `EXPERIMENTS.md` at the repository root for the
//! experiment index and DESIGN.md for the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use manytest_aging as aging;
pub use manytest_core as core;
pub use manytest_map as map;
pub use manytest_noc as noc;
pub use manytest_power as power;
pub use manytest_sbst as sbst;
pub use manytest_sim as sim;
pub use manytest_workload as workload;

/// One-stop imports for typical use.
pub mod prelude {
    pub use manytest_aging::prelude::*;
    pub use manytest_core::prelude::*;
    pub use manytest_map::prelude::*;
    pub use manytest_noc::prelude::*;
    pub use manytest_power::prelude::*;
    pub use manytest_sbst::prelude::*;
    pub use manytest_sim::prelude::*;
    pub use manytest_workload::prelude::*;
}
