//! Live per-job progress/heartbeat telemetry for the batch runner.
//!
//! Every batch job registers itself here for the duration of its run
//! (see `runner.rs`); the simulation publishes *deterministic* epoch and
//! event counters into shared [`ProgressCounters`], and — only when the
//! user opted in with `--progress` — a bench-side renderer thread pairs
//! those counters with its own wall clock to print heartbeat frames to
//! stderr: per-job percent, ETA, live event counts, and a *stalled*
//! warning for any job whose counters stop moving for longer than
//! `MANYTEST_STALL_SECONDS` (default 30). Wall-clock never crosses into
//! the simulation, so attaching progress cannot change any result.

use manytest_sim::{ProgressCounters, ProgressSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// Seconds of counter silence before a job is flagged as stalled
/// (`MANYTEST_STALL_SECONDS`, default 30).
pub fn stall_seconds() -> f64 {
    std::env::var("MANYTEST_STALL_SECONDS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(30.0)
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the stderr heartbeat renderer on for this process (the
/// `--progress` flag). Idempotent; spawns the renderer thread once.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
    spawn_renderer();
}

/// Whether `--progress` rendering is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Shared state of one in-flight (or recently finished) batch job.
///
/// The runner registers one per job; `runner::run_system` attaches its
/// counters through the thread-local handle, and the renderer thread
/// reads everything through the board.
pub struct JobState {
    label: String,
    counters: Arc<ProgressCounters>,
    done: AtomicBool,
    started: Instant,
}

impl JobState {
    /// The job's shared progress counters (installed into the simulation
    /// by `runner::run_system`).
    pub fn counters(&self) -> Arc<ProgressCounters> {
        Arc::clone(&self.counters)
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<JobState>>> = const { RefCell::new(Vec::new()) };
}

/// All registered jobs, for the renderer thread. Only populated while
/// rendering is enabled, so plain batch runs don't accumulate entries.
static BOARD: Mutex<Vec<Arc<JobState>>> = Mutex::new(Vec::new());

/// Registers the calling thread as running the job `label` until the
/// returned guard drops. Nested registrations (a batch inside a batch
/// job) stack; the innermost wins for [`with_current`].
pub fn job_started(label: &str) -> JobGuard {
    let state = Arc::new(JobState {
        label: label.to_owned(),
        counters: Arc::new(ProgressCounters::new()),
        done: AtomicBool::new(false),
        started: Instant::now(),
    });
    if enabled() {
        BOARD.lock().expect("progress board lock").push(Arc::clone(&state));
    }
    CURRENT.with(|c| c.borrow_mut().push(Arc::clone(&state)));
    JobGuard { state }
}

/// Scope guard returned by [`job_started`]; unregisters the job and
/// marks it done on drop.
pub struct JobGuard {
    state: Arc<JobState>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.state.done.store(true, Ordering::Relaxed);
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|s| Arc::ptr_eq(s, &self.state)) {
                stack.remove(pos);
            }
        });
    }
}

/// Runs `f` with the calling thread's innermost registered job, if any.
/// This is how `runner::run_system` finds the counters of the batch job
/// it is running inside.
pub fn with_current<T>(f: impl FnOnce(&JobState) -> T) -> Option<T> {
    CURRENT.with(|c| c.borrow().last().map(Arc::clone)).map(|s| f(&s))
}

// ---------------------------------------------------------------------------
// Heartbeat rendering.
// ---------------------------------------------------------------------------

/// One job's view for a heartbeat frame — plain data so the renderer is
/// a pure, unit-testable function of its inputs.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job label.
    pub label: String,
    /// Latest deterministic counter snapshot.
    pub snap: ProgressSnapshot,
    /// Whether the job's guard dropped (result delivered).
    pub done: bool,
    /// Wall seconds since the job started.
    pub elapsed_seconds: f64,
    /// Wall seconds since the counters last changed, when that exceeds
    /// the stall threshold (the watchdog verdict).
    pub stalled_for: Option<f64>,
}

/// Renders one heartbeat frame (multiple stderr lines, each prefixed
/// `[progress]`). Finished jobs are folded into the header count;
/// running jobs get percent/ETA, event counts and the stall verdict.
pub fn render_frame(views: &[JobView]) -> String {
    let done = views.iter().filter(|v| v.done).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[progress] {} running, {done} done",
        views.len() - done
    );
    for v in views.iter().filter(|v| !v.done) {
        let s = &v.snap;
        let _ = write!(out, "[progress]   {:<24}", v.label);
        if s.epochs_total > 0 {
            let frac = s.epochs_done as f64 / s.epochs_total as f64;
            let _ = write!(
                out,
                " {:>5.1}% ({}/{} epochs)",
                frac * 100.0,
                s.epochs_done,
                s.epochs_total
            );
            if frac > 0.0 && frac < 1.0 {
                let eta = v.elapsed_seconds * (1.0 - frac) / frac;
                let _ = write!(out, "  ETA {eta:.1}s");
            }
        } else {
            let _ = write!(out, "  starting");
        }
        let _ = write!(out, "  events {}", s.events_emitted);
        if s.events_dropped > 0 {
            let _ = write!(out, " ({} dropped)", s.events_dropped);
        }
        if let Some(quiet) = v.stalled_for {
            let _ = write!(out, "  STALLED {quiet:.1}s without progress");
        }
        out.push('\n');
    }
    out
}

/// The stall watchdog for one job at one heartbeat. Records `snap` as job
/// `key`'s latest counters in `seen` (restarting the job's quiet clock
/// when they moved) and returns how long the job has been quiet when
/// that exceeds `threshold` seconds. Done or finished jobs are never
/// flagged. The function reads no clock of its own: the caller supplies
/// `now`, so tests can drive it with synthetic instants.
pub fn stall_verdict(
    seen: &mut BTreeMap<usize, (ProgressSnapshot, Instant)>,
    key: usize,
    snap: ProgressSnapshot,
    done: bool,
    now: Instant,
    threshold: f64,
) -> Option<f64> {
    let (last, changed) = seen.entry(key).or_insert((snap, now));
    if *last != snap {
        *last = snap;
        *changed = now;
    }
    let quiet = now.duration_since(*changed).as_secs_f64();
    (!done && !snap.finished && quiet > threshold).then_some(quiet)
}

/// Spawns the heartbeat renderer daemon thread (once per process). The
/// thread snapshots the board every 200 ms and prints a frame whenever
/// at least one job is registered; it also keeps the per-job
/// last-changed timestamps that back the stall watchdog.
fn spawn_renderer() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        let threshold = stall_seconds();
        let _ = std::thread::Builder::new()
            .name("progress-heartbeat".into())
            .spawn(move || {
                // Keyed by JobState address: (last snapshot, last change).
                let mut seen = BTreeMap::new();
                loop {
                    let board: Vec<Arc<JobState>> =
                        BOARD.lock().expect("progress board lock").clone();
                    if !board.is_empty() {
                        let now = Instant::now();
                        let views: Vec<JobView> = board
                            .iter()
                            .map(|s| {
                                let key = Arc::as_ptr(s) as usize;
                                let snap = s.counters.snapshot();
                                let done = s.done.load(Ordering::Relaxed);
                                JobView {
                                    label: s.label.clone(),
                                    snap,
                                    done,
                                    elapsed_seconds: now
                                        .duration_since(s.started)
                                        .as_secs_f64(),
                                    stalled_for: stall_verdict(
                                        &mut seen, key, snap, done, now, threshold,
                                    ),
                                }
                            })
                            .collect();
                        eprint!("{}", render_frame(&views));
                        // Forget finished jobs so the board stays small
                        // over a long sweep (they rendered at least once
                        // via the header count).
                        let mut b = BOARD.lock().expect("progress board lock");
                        b.retain(|s| !s.done.load(Ordering::Relaxed));
                        seen.retain(|&k, _| {
                            b.iter().any(|s| Arc::as_ptr(s) as usize == k)
                        });
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(done: u64, total: u64, events: u64, dropped: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            epochs_total: total,
            epochs_done: done,
            events_emitted: events,
            events_dropped: dropped,
            finished: false,
        }
    }

    #[test]
    fn frame_shows_percent_and_eta() {
        let views = [JobView {
            label: "probe/e3".into(),
            snap: snap(250, 500, 1234, 0),
            done: false,
            elapsed_seconds: 2.0,
            stalled_for: None,
        }];
        let frame = render_frame(&views);
        assert!(frame.contains("1 running, 0 done"), "got: {frame}");
        assert!(frame.contains("probe/e3"), "got: {frame}");
        assert!(frame.contains("50.0% (250/500 epochs)"), "got: {frame}");
        assert!(frame.contains("ETA 2.0s"), "got: {frame}");
        assert!(frame.contains("events 1234"), "got: {frame}");
        assert!(!frame.contains("dropped"), "got: {frame}");
    }

    #[test]
    fn frame_flags_stalled_jobs_and_dropped_events() {
        let views = [JobView {
            label: "e12/seed0".into(),
            snap: snap(1, 100, 10, 7),
            done: false,
            elapsed_seconds: 5.0,
            stalled_for: Some(3.25),
        }];
        let frame = render_frame(&views);
        assert!(frame.contains("STALLED 3.2s without progress"), "got: {frame}");
        assert!(frame.contains("(7 dropped)"), "got: {frame}");
    }

    #[test]
    fn finished_jobs_fold_into_the_header() {
        let views = [
            JobView {
                label: "a".into(),
                snap: snap(100, 100, 5, 0),
                done: true,
                elapsed_seconds: 0.1,
                stalled_for: None,
            },
            JobView {
                label: "b".into(),
                snap: snap(0, 0, 0, 0),
                done: false,
                elapsed_seconds: 0.0,
                stalled_for: None,
            },
        ];
        let frame = render_frame(&views);
        assert!(frame.contains("1 running, 1 done\n"), "got: {frame}");
        assert!(!frame.lines().any(|l| l.contains("  a ")), "done jobs have no row: {frame}");
        assert!(frame.contains("starting"), "got: {frame}");
    }

    /// Instants `secs` after `t0`, for driving the watchdog without sleeping.
    fn after(t0: Instant, secs: f64) -> Instant {
        t0 + Duration::from_secs_f64(secs)
    }

    #[test]
    fn watchdog_flags_a_quiet_job_past_the_threshold() {
        let t0 = Instant::now();
        let mut seen = BTreeMap::new();
        let s = snap(10, 100, 5, 0);
        assert_eq!(stall_verdict(&mut seen, 1, s, false, t0, 10.0), None);
        assert_eq!(stall_verdict(&mut seen, 1, s, false, after(t0, 9.5), 10.0), None);
        assert_eq!(
            stall_verdict(&mut seen, 1, s, false, after(t0, 12.0), 10.0),
            Some(12.0)
        );
    }

    #[test]
    fn watchdog_clock_restarts_when_counters_move() {
        let t0 = Instant::now();
        let mut seen = BTreeMap::new();
        assert_eq!(stall_verdict(&mut seen, 1, snap(10, 100, 5, 0), false, t0, 10.0), None);
        let moved = snap(11, 100, 6, 0);
        assert_eq!(stall_verdict(&mut seen, 1, moved, false, after(t0, 11.0), 10.0), None);
        assert_eq!(stall_verdict(&mut seen, 1, moved, false, after(t0, 20.0), 10.0), None);
        assert_eq!(
            stall_verdict(&mut seen, 1, moved, false, after(t0, 22.0), 10.0),
            Some(11.0)
        );
    }

    #[test]
    fn watchdog_never_flags_done_or_finished_jobs() {
        let t0 = Instant::now();
        let mut seen = BTreeMap::new();
        let running = snap(50, 100, 5, 0);
        let finished = ProgressSnapshot {
            finished: true,
            ..snap(100, 100, 9, 0)
        };
        for at in [t0, after(t0, 60.0)] {
            assert_eq!(stall_verdict(&mut seen, 1, running, true, at, 10.0), None);
            assert_eq!(stall_verdict(&mut seen, 2, finished, false, at, 10.0), None);
        }
    }

    #[test]
    fn job_guard_registers_and_unregisters() {
        assert!(with_current(|s| s.label.clone()).is_none());
        let guard = job_started("outer/job");
        assert_eq!(
            with_current(|s| s.label.clone()).as_deref(),
            Some("outer/job")
        );
        {
            let _inner = job_started("inner/job");
            assert_eq!(
                with_current(|s| s.label.clone()).as_deref(),
                Some("inner/job")
            );
        }
        assert_eq!(
            with_current(|s| s.label.clone()).as_deref(),
            Some("outer/job")
        );
        drop(guard);
        assert!(with_current(|s| s.label.clone()).is_none());
    }

    #[test]
    fn stall_threshold_has_a_sane_default() {
        // The env var may be set by an outer test harness; only check the
        // parse fallback contract.
        let t = stall_seconds();
        assert!(t > 0.0 && t.is_finite());
    }
}
