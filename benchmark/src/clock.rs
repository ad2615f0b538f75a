//! The benchmark's only wall-clock reads.
//!
//! The workspace lint bans `Instant` outside `crates/bench`; every host-time
//! measurement of this package goes through [`now_ns`], so the audited
//! allows below are the whole exemption.

use std::sync::OnceLock;
// lint:allow(wall-clock, reason = "benchmark harness: host time is the quantity it measures")
use std::time::Instant;

// lint:allow(wall-clock, reason = "benchmark harness: one monotonic origin per process")
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // lint:allow(wall-clock, reason = "benchmark harness: the single host-clock read")
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `start_ns`, a [`now_ns`] reading.
pub fn secs_since(start_ns: u64) -> f64 {
    ns_to_s(now_ns().saturating_sub(start_ns))
}

/// Converts a nanosecond span to seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}
