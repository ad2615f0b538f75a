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

/// Jobs executed by all batches since process start (used by `repro` to
/// attribute serial-equivalent run counts to each experiment).
static TOTAL_JOBS: AtomicU64 = AtomicU64::new(0);

/// Monotone id generator for batch jobs; feeds the per-job RNG audit
/// scope so a `SimRng` handle leaking across two jobs is caught in debug
/// builds (see `manytest_sim::enter_job_scope`).
static JOB_IDS: AtomicU64 = AtomicU64::new(1);

/// Total number of batch jobs executed so far in this process.
pub fn jobs_executed() -> u64 {
    TOTAL_JOBS.load(Ordering::Relaxed)
}

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
    /// Summed queue depth observed as each job was claimed (jobs still
    /// waiting behind it); divide by `jobs` for the mean depth.
    pub queue_depth_sum: f64,
}

static JOB_STATS: Mutex<JobStats> = Mutex::new(JobStats {
    jobs: 0,
    busy_seconds: 0.0,
    queue_depth_sum: 0.0,
});

/// Snapshot of the cumulative [`JobStats`] for this process.
pub fn job_stats() -> JobStats {
    *JOB_STATS.lock().expect("job stats lock")
}

fn record_job(busy_seconds: f64, queue_depth: f64) {
    let mut stats = JOB_STATS.lock().expect("job stats lock");
    stats.jobs += 1;
    stats.busy_seconds += busy_seconds;
    stats.queue_depth_sum += queue_depth;
}

/// The worker count used when a batch is run with `jobs = 0`: the
/// `MANYTEST_JOBS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("MANYTEST_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Wall-clock accounting for one executed batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Number of jobs the batch contained (serial-equivalent runs).
    pub runs: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock seconds from first launch to last completion.
    pub wall_seconds: f64,
    /// Summed per-job wall-clock seconds; `busy_seconds / wall_seconds`
    /// approximates the speedup actually achieved.
    pub busy_seconds: f64,
    /// The slowest single job, seconds (the critical path floor).
    pub max_job_seconds: f64,
    /// Mean number of jobs still queued as each job started (0 for the
    /// last job; deterministic, derived from submission index).
    pub mean_queue_depth: f64,
}

struct Job<'scope, R> {
    label: String,
    run: Box<dyn FnOnce() -> R + Send + 'scope>,
}

/// The result of one batch job under panic isolation.
///
/// Returned by [`Batch::run_outcomes`]: a panicking job becomes a
/// `Failed` entry in its submission slot instead of tearing down the
/// batch, so a sweep's remaining jobs still complete (and stay
/// deterministic — the failure lands at the same index on any worker
/// count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<R> {
    /// The job returned normally.
    Ok(R),
    /// The job panicked; the rest of the batch kept going.
    Failed {
        /// The label the job was pushed with.
        label: String,
        /// The panic payload rendered to text (non-string payloads
        /// render as a placeholder).
        payload: String,
    },
}

impl<R> JobOutcome<R> {
    /// The result, if the job completed.
    pub fn ok(self) -> Option<R> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// Whether the job panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

/// Renders the `Failed` entries of an outcome slice as a fixed-width
/// failure table (empty when every job succeeded). Derived only from the
/// submission-ordered outcomes, so the text is byte-identical across
/// worker counts.
pub fn failure_table<R>(outcomes: &[JobOutcome<R>]) -> String {
    use std::fmt::Write as _;
    let failed: Vec<(&str, &str)> = outcomes
        .iter()
        .filter_map(|o| match o {
            JobOutcome::Failed { label, payload } => Some((label.as_str(), payload.as_str())),
            JobOutcome::Ok(_) => None,
        })
        .collect();
    if failed.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "## failed jobs ({} of {})", failed.len(), outcomes.len());
    let width = failed.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, payload) in failed {
        let _ = writeln!(
            out,
            "{label:<width$}  {}",
            payload.lines().next().unwrap_or("<empty panic payload>")
        );
    }
    out
}

/// Builds and runs one simulation, attaching the surrounding batch job's
/// progress counters (if any) so `--progress` heartbeats see live epoch
/// counts. Every experiment, probe and ablation run goes through here.
///
/// # Panics
///
/// Panics if `builder` holds an invalid configuration.
pub fn run_system(builder: SystemBuilder) -> Report {
    let mut system = builder.build().expect("experiment configs are valid");
    if let Some(counters) = crate::progress::with_current(|slot| slot.counters()) {
        system.set_progress(counters);
    }
    system.run()
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
/// not poison the others — every job still runs. [`Batch::run_outcomes`]
/// surfaces each panic as a [`JobOutcome::Failed`] in its slot;
/// [`Batch::run`]/[`Batch::run_timed`] instead re-raise the first panic
/// (in submission order) with the job's label logged to stderr.
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

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Executes all jobs on up to `jobs` worker threads (`0` = the
    /// [`default_jobs`] parallelism) and returns the results in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by submission order) panic of any job.
    pub fn run(self, jobs: usize) -> Vec<R> {
        self.run_timed(jobs).0
    }

    /// Like [`Batch::run`], additionally reporting wall-clock stats.
    pub fn run_timed(self, jobs: usize) -> (Vec<R>, BatchStats) {
        let (outcomes, stats) = self.execute(jobs);
        let mut out = Vec::with_capacity(outcomes.len());
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
        (out, stats)
    }

    /// Like [`Batch::run_timed`], but panics are *isolated*: each job's
    /// slot holds either its result or a [`JobOutcome::Failed`] carrying
    /// the label and stringified panic payload. Nothing is re-raised —
    /// the caller decides how to render and whether to fail the process.
    pub fn run_outcomes(self, jobs: usize) -> (Vec<JobOutcome<R>>, BatchStats) {
        let (outcomes, stats) = self.execute(jobs);
        let outcomes = outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Ok(r) => JobOutcome::Ok(r),
                Err((label, payload)) => JobOutcome::Failed {
                    label,
                    payload: panic_message(payload.as_ref()),
                },
            })
            .collect();
        (outcomes, stats)
    }

    /// Shared engine: runs every job under `catch_unwind`, keyed by
    /// submission index.
    #[allow(clippy::type_complexity)]
    fn execute(
        self,
        jobs: usize,
    ) -> (
        Vec<Result<R, (String, Box<dyn Any + Send>)>>,
        BatchStats,
    ) {
        let n = self.jobs.len();
        TOTAL_JOBS.fetch_add(n as u64, Ordering::Relaxed);
        let requested = if jobs == 0 { default_jobs() } else { jobs };
        let workers = requested.min(n.max(1));
        let start = Instant::now();
        // Per-batch accounting: (busy sum, slowest job, queue-depth sum).
        let accum = Mutex::new((0.0f64, 0.0f64, 0.0f64));
        // Runs one job inside its own RNG-audit scope with timing. The
        // queue depth is derived from the submission index (jobs still
        // waiting behind this one), so it is identical on every schedule.
        let run_one = |i: usize, job: Job<'scope, R>| {
            let depth = (n - 1 - i) as f64;
            let _scope = enter_job_scope(JOB_IDS.fetch_add(1, Ordering::Relaxed));
            // Progress registration: [`run_system`] attaches this slot's
            // counters to the simulation, and the `--progress` heartbeat
            // renderer watches them.
            let progress = crate::progress::job_started(&job.label);
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(job.run)).map_err(|p| (job.label, p));
            drop(progress);
            let secs = t0.elapsed().as_secs_f64();
            record_job(secs, depth);
            let mut a = accum.lock().expect("batch stats lock");
            a.0 += secs;
            a.1 = a.1.max(secs);
            a.2 += depth;
            drop(a);
            outcome
        };
        let outcomes = if workers <= 1 || n <= 1 {
            // Serial path: run inline on the caller's thread. This is the
            // reference behaviour the parallel path must reproduce.
            self.jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| run_one(i, job))
                .collect::<Vec<_>>()
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
                        *results[i].lock().expect("result slot lock") = Some(run_one(i, job));
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
        let (busy_seconds, max_job_seconds, depth_sum) =
            accum.into_inner().expect("batch stats lock");
        let stats = BatchStats {
            runs: n,
            workers,
            wall_seconds: start.elapsed().as_secs_f64(),
            busy_seconds,
            max_job_seconds,
            mean_queue_depth: if n == 0 { 0.0 } else { depth_sum / n as f64 },
        };
        (outcomes, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn counter_tracks_jobs() {
        let before = jobs_executed();
        let mut batch = Batch::new();
        for i in 0..5u64 {
            batch.push(format!("j{i}"), move || i);
        }
        batch.run(2);
        assert!(jobs_executed() >= before + 5);
    }

    #[test]
    fn batch_stats_account_for_every_job() {
        let before = job_stats();
        let mut batch = Batch::new();
        for i in 0..6u64 {
            batch.push(format!("j{i}"), move || i * i);
        }
        let (results, stats) = batch.run_timed(3);
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25]);
        assert_eq!(stats.runs, 6);
        assert_eq!(stats.workers, 3);
        assert!(stats.busy_seconds >= 0.0);
        assert!(stats.max_job_seconds <= stats.busy_seconds + 1e-12);
        // Depths are 5,4,3,2,1,0 regardless of schedule → mean 2.5.
        assert!((stats.mean_queue_depth - 2.5).abs() < 1e-12);
        let after = job_stats();
        assert_eq!(after.jobs, before.jobs + 6);
        assert!(after.busy_seconds >= before.busy_seconds);
        assert!((after.queue_depth_sum - before.queue_depth_sum - 15.0).abs() < 1e-9);
    }

    /// A job that panics mid-batch becomes a `Failed` slot; every other
    /// job still runs and lands at its submission index.
    #[test]
    fn panicking_job_is_isolated_and_ordering_is_preserved() {
        let mut batch = Batch::new();
        for i in 0..6u64 {
            batch.push(format!("j{i}"), move || {
                assert!(i != 2, "job 2 exploded");
                i * 10
            });
        }
        let (outcomes, stats) = batch.run_outcomes(1);
        assert_eq!(stats.runs, 6);
        assert_eq!(outcomes.len(), 6);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let JobOutcome::Failed { label, payload } = outcome else {
                    panic!("job 2 should have failed, got {outcome:?}");
                };
                assert_eq!(label, "j2");
                assert!(payload.contains("job 2 exploded"), "got: {payload}");
            } else {
                assert_eq!(*outcome, JobOutcome::Ok(i as u64 * 10));
            }
        }
    }

    /// The failure table is schedule-independent: one worker and four
    /// workers produce byte-identical outcome vectors.
    #[test]
    fn failure_outcomes_are_identical_across_worker_counts() {
        let build = || {
            let mut batch = Batch::new();
            for i in 0..8u64 {
                batch.push(format!("sweep/{i}"), move || {
                    if i % 3 == 1 {
                        panic!("deterministic failure in job {i}");
                    }
                    i + 100
                });
            }
            batch
        };
        let (serial, _) = build().run_outcomes(1);
        let (parallel, _) = build().run_outcomes(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.iter().filter(|o| o.is_failed()).count(), 3);
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
