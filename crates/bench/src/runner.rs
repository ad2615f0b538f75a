//! Deterministic parallel batch runner for the evaluation suite.
//!
//! Every experiment in this crate boils down to a list of *independent*
//! `System::run()` simulations (nodes × seeds × on/off configurations)
//! whose results are then folded into a table. [`Batch`] executes such a
//! list across a pool of scoped worker threads and returns the results
//! **in submission order, keyed by index** — so the fold, and therefore
//! every printed table, is bit-identical to the old serial loop no matter
//! how many workers run or in which order they finish. Determinism falls
//! out of keying, not locking: each run seeds its own `SystemBuilder`, so
//! no cross-run state exists to race on.
//!
//! ```
//! use manytest_bench::runner::Batch;
//!
//! let mut batch = Batch::new();
//! for i in 0..8u64 {
//!     batch.push(format!("square/{i}"), move || i * i);
//! }
//! assert_eq!(batch.run(4), vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use manytest_core::{Report, SystemBuilder};
use manytest_sim::enter_job_scope;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Monotone id generator for batch jobs; feeds the per-job RNG audit
/// scope so a `SimRng` handle leaking across two jobs is caught in debug
/// builds (see `manytest_sim::enter_job_scope`).
static JOB_IDS: AtomicU64 = AtomicU64::new(1);

/// Cumulative per-job accounting across every batch this process ran.
///
/// `repro` snapshots this before/after each experiment and diffs, turning
/// process-global counters into per-experiment metrics for the bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobStats {
    /// Jobs executed.
    pub jobs: u64,
    /// Summed per-job wall-clock seconds (serial-equivalent busy time).
    pub busy_seconds: f64,
}

static JOB_STATS: Mutex<JobStats> = Mutex::new(JobStats {
    jobs: 0,
    busy_seconds: 0.0,
});

/// Snapshot of the cumulative [`JobStats`] for this process.
pub fn job_stats() -> JobStats {
    *JOB_STATS.lock().expect("job stats lock")
}

fn record_job(busy_seconds: f64) {
    let mut stats = JOB_STATS.lock().expect("job stats lock");
    stats.jobs += 1;
    stats.busy_seconds += busy_seconds;
}

/// The worker count used when a batch is run with `jobs = 0`: the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Job<'scope, R> {
    label: String,
    run: Box<dyn FnOnce() -> R + Send + 'scope>,
}

/// Builds and runs one simulation. Every experiment, probe and ablation
/// run goes through here, so an invalid experiment config fails with one
/// message.
///
/// # Panics
///
/// Panics if `builder` holds an invalid configuration.
pub fn run_system(builder: SystemBuilder) -> Report {
    builder.build().expect("experiment configs are valid").run()
}

/// Renders a panic payload the way the default hook would.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// An ordered list of labelled, independent jobs.
///
/// `push` order defines result order; [`Batch::run`] executes the jobs on
/// up to `jobs` scoped threads and returns one result per job, index `i`
/// of the output corresponding to the `i`-th `push`. A panicking job does
/// not poison the others — every job still runs, and `run` then re-raises
/// the first panic (in submission order) with each failed job's label
/// logged to stderr.
pub struct Batch<'scope, R> {
    jobs: Vec<Job<'scope, R>>,
}

impl<R> Default for Batch<'_, R> {
    fn default() -> Self {
        Batch { jobs: Vec::new() }
    }
}

impl<'scope, R: Send> Batch<'scope, R> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a job. `label` names the job in panic diagnostics.
    pub fn push(&mut self, label: impl Into<String>, run: impl FnOnce() -> R + Send + 'scope) {
        self.jobs.push(Job {
            label: label.into(),
            run: Box::new(run),
        });
    }

    /// Executes all jobs on up to `jobs` worker threads (`0` = the
    /// [`default_jobs`] parallelism) and returns the results in
    /// submission order. Each job runs under `catch_unwind`, keyed by its
    /// submission index.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by submission order) panic of any job.
    pub fn run(self, jobs: usize) -> Vec<R> {
        let n = self.jobs.len();
        let requested = if jobs == 0 { default_jobs() } else { jobs };
        let workers = requested.min(n.max(1));
        // Runs one job inside its own RNG-audit scope, charging its wall
        // time to the process-wide [`JobStats`].
        let run_one = |job: Job<'scope, R>| {
            let _scope = enter_job_scope(JOB_IDS.fetch_add(1, Ordering::Relaxed));
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(job.run)).map_err(|p| (job.label, p));
            record_job(t0.elapsed().as_secs_f64());
            outcome
        };
        let outcomes: Vec<_> = if workers <= 1 || n <= 1 {
            // Serial path: run inline on the caller's thread. This is the
            // reference behaviour the parallel path must reproduce.
            self.jobs.into_iter().map(run_one).collect()
        } else {
            // Parallel path: a shared cursor hands out job indices; each
            // result lands in its submission slot, so completion order is
            // irrelevant to the output.
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Job<'scope, R>>>> =
                self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            let results: Vec<Mutex<Option<_>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = slots[i]
                            .lock()
                            .expect("job slot lock")
                            .take()
                            .expect("each index is claimed exactly once");
                        *results[i].lock().expect("result slot lock") = Some(run_one(job));
                    });
                }
            });
            results
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot lock")
                        .expect("every job ran to completion")
                })
                .collect()
        };
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for outcome in outcomes {
            match outcome {
                Ok(r) => out.push(r),
                Err((label, payload)) => {
                    eprintln!("batch job '{label}' panicked");
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// Every job of a batch is counted in [`job_stats`]. Other tests in
    /// this binary run batches concurrently, so the growth is a floor.
    #[test]
    fn counter_tracks_jobs() {
        let before = job_stats().jobs;
        let mut batch = Batch::new();
        for i in 0..5u64 {
            batch.push(format!("j{i}"), move || i);
        }
        batch.run(2);
        assert!(job_stats().jobs >= before + 5);
    }

    /// A panicking job is charged to [`job_stats`] like any other.
    #[test]
    fn batch_stats_account_for_every_job() {
        let before = job_stats();
        let mut batch = Batch::new();
        for i in 0..6u64 {
            batch.push(format!("j{i}"), move || {
                assert!(i != 4, "job 4 exploded");
                i * i
            });
        }
        let err = catch_unwind(AssertUnwindSafe(|| batch.run(3))).expect_err("job 4 panics");
        assert_eq!(panic_message(err.as_ref()), "job 4 exploded");
        let after = job_stats();
        assert!(after.jobs >= before.jobs + 6);
        assert!(after.busy_seconds >= before.busy_seconds);
    }

    /// `run` keeps the historical contract: the first panic in submission
    /// order is re-raised even if a later job panicked first in time.
    #[test]
    fn run_reraises_the_first_panic_in_submission_order() {
        let mut batch = Batch::new();
        batch.push("ok", || 1u64);
        batch.push("boom-a", || panic!("first by submission"));
        batch.push("boom-b", || panic!("second by submission"));
        let err = catch_unwind(AssertUnwindSafe(|| batch.run(2)))
            .expect_err("batch must re-raise");
        assert_eq!(panic_message(err.as_ref()), "first by submission");
    }

    /// Every batch job gets its own audit scope: a `SimRng` handle that
    /// was first drawn inside one job must not be drawn in another.
    #[test]
    #[cfg(debug_assertions)]
    fn shared_rng_across_jobs_is_caught() {
        use manytest_sim::SimRng;
        use std::sync::Arc;

        let shared = Arc::new(Mutex::new(SimRng::seed_from(7)));
        let mut batch = Batch::new();
        for i in 0..2 {
            let rng = Arc::clone(&shared);
            batch.push(format!("leak{i}"), move || {
                rng.lock().expect("shared rng lock").next_u64()
            });
        }
        // Serial execution so both jobs run on one thread — the audit
        // must still fire, because scopes, not threads, define jobs.
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| batch.run(1)))
            .expect_err("second draw must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("crossed a batch job boundary"),
            "unexpected panic message: {msg}"
        );
    }
}
