//! One workload, measured inside its own child process.
//!
//! Order: set-up time first (in the fresh process), then warm-ups, the
//! timed samples (untraced; with tracing on, the traced samples alternate
//! with them), the peak-RSS read, and last one audit run per config. The
//! load is a closed loop with one client: each sample starts when the
//! previous one returns. Every host time is scaled to the reference host
//! speed measured around it ([`Reference`]).

use crate::calibrate::Reference;
use crate::clock::{now_ns, ns_to_s, secs_since};
use crate::fingerprint::{fingerprint, Checker};
use crate::outcome::{Kind, Outcome};
use crate::spans::{chrome_events, phase_totals, Recorder, RunId};
use crate::stats::{median, percentile, sorted};
use crate::workloads::Workload;
use manytest_core::prelude::*;
use manytest_sim::{Phase, PhaseProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Set-up samples, each the mean of [`SETUP_BUILDS`] builds of the list.
const SETUP_SAMPLES: usize = 30;
/// Back-to-back builds of the config list per set-up sample.
const SETUP_BUILDS: usize = 16;
/// Samples run and discarded before timing: the first sample of a fresh
/// process pays for its cold caches and allocator.
const WARMUPS: usize = 1;
/// Fewest timed samples, however short `--seconds` is.
const MIN_TIMED: usize = 5;
/// Traced samples per workload, with tracing on.
const TRACED_SAMPLES: usize = 5;
/// Event-log bound of the audit runs: far above what any workload emits,
/// so the audit sees every event.
const AUDIT_EVENTS: usize = 1 << 24;

/// How long and how much to measure.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Base seed the workload derives its configs from.
    pub seed: u64,
    /// Host seconds the timed loop runs for.
    pub seconds: f64,
    /// Exact sample count instead of `seconds`; also caps every other
    /// sample and repetition count (for smoke runs).
    pub samples: Option<usize>,
    /// Whether to run the traced samples.
    pub trace: bool,
}

impl Settings {
    /// `n`, capped by `--samples`.
    pub fn cap(&self, n: usize) -> usize {
        self.samples.map_or(n, |s| s.min(n).max(1))
    }
}

/// Host time and per-phase totals of one sample, summed over its configs.
/// Each run is scaled by the mean of the host-speed readings just before
/// and just after it, so drift within a long sample is followed too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Raw host seconds inside `System::run`.
    pub raw_s: f64,
    /// Seconds inside `System::run` at the reference host speed.
    pub wall_s: f64,
    /// Seconds per phase at the reference host speed (traced samples only).
    pub phase_s: [f64; Phase::COUNT],
}

impl Sample {
    /// Seconds outside every phase (probe lane, checkpoints, finalize) at
    /// the reference host speed.
    pub fn unattributed_s(&self) -> f64 {
        (self.wall_s - self.phase_s.iter().sum::<f64>()).max(0.0)
    }
}

/// Runs the samples of one workload and collects its [`Outcome`].
pub struct Runner {
    workload: &'static Workload,
    pid: usize,
    configs: Vec<SystemBuilder>,
    checker: Checker,
    profiles: Vec<Option<PhaseProfile>>,
    traced_runs: usize,
    reference: Reference,
    /// The latest host-speed reading.
    speed: f64,
    /// Everything measured so far.
    pub outcome: Outcome,
}

impl Runner {
    /// A runner for `workload` at base `seed`; `pid` is its trace process
    /// and `pinned` the fingerprints its configs must produce, if pinned.
    pub fn new(
        workload: &'static Workload,
        pid: usize,
        seed: u64,
        pinned: Option<Vec<u64>>,
    ) -> Self {
        let configs = workload.configs(seed);
        Runner {
            workload,
            pid,
            profiles: vec![None; configs.len()],
            checker: Checker::new(pinned, configs.len()),
            configs,
            traced_runs: 0,
            reference: Reference::default(),
            speed: 1.0,
            outcome: Outcome::default(),
        }
    }

    /// Reads the host speed and returns the mean of this reading and the
    /// previous one, the speed over the span between the two.
    fn span_speed(&mut self) -> f64 {
        let before = self.speed;
        self.speed = self.reference.host_speed();
        0.5 * (before + self.speed)
    }

    /// Median over samples of the mean `build()` time of the config list,
    /// each sample scaled by the host speed over it.
    fn setup_seconds(&mut self, samples: usize) -> f64 {
        self.speed = self.reference.host_speed();
        let mut per_sample = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut ns = 0;
            for _ in 0..SETUP_BUILDS {
                for b in &self.configs {
                    let b = b.clone();
                    let start = now_ns();
                    let built = b.build();
                    ns += now_ns() - start;
                    drop(built);
                }
            }
            per_sample.push(ns_to_s(ns) / SETUP_BUILDS as f64 * self.span_speed());
        }
        median(&per_sample)
    }

    /// Runs every config once, traced as sample `traced` if given.
    pub fn sample(&mut self, traced: Option<usize>) -> Sample {
        self.speed = self.reference.host_speed();
        let mut sample = Sample::default();
        for config in 0..self.configs.len() {
            let ok = self.run_one(config, traced, &mut sample);
            self.outcome.op(ok);
        }
        sample
    }

    fn run_one(&mut self, config: usize, traced: Option<usize>, sample: &mut Sample) -> bool {
        let builder = self.configs[config].clone();
        let spans_cap = builder.config().epoch_count() as usize * Phase::COUNT;
        let mut system = match builder.build() {
            Ok(system) => system,
            Err(e) => return self.fail(config, &format!("build error: {e}")),
        };
        let spans = traced.map(|_| {
            let (recorder, spans) = Recorder::new(spans_cap);
            system.set_phase_observer(Box::new(recorder));
            spans
        });
        let start_ns = now_ns();
        let result = catch_unwind(AssertUnwindSafe(move || system.run()));
        let end_ns = now_ns();
        let speed = self.span_speed();
        let Ok(report) = result else {
            return self.fail(config, "run panicked");
        };
        let raw_s = ns_to_s(end_ns - start_ns);
        sample.raw_s += raw_s;
        sample.wall_s += raw_s * speed;
        if let (Some(traced), Some(spans)) = (traced, spans) {
            let spans = spans.borrow();
            for (total, ns) in sample.phase_s.iter_mut().zip(phase_totals(&spans)) {
                *total += ns_to_s(ns) * speed;
            }
            let id = RunId {
                pid: self.pid,
                workload: self.workload.name,
                sample: traced,
                config,
                run: self.traced_runs,
            };
            self.traced_runs += 1;
            let events = chrome_events(id, start_ns, end_ns, &spans);
            self.outcome.trace_events.extend(events);
        }
        if !self.checker.check(config, fingerprint(&report)) {
            return self.fail(config, "outcome fingerprint mismatch");
        }
        let first = *self.profiles[config].get_or_insert(report.profile);
        if first != report.profile {
            return self.fail(config, "phase profile differs from the first sample");
        }
        true
    }

    /// Runs every config once with event capture and checks the events
    /// against the report with `validate_events`.
    fn audit(&mut self) {
        for config in 0..self.configs.len() {
            let builder = self.configs[config].clone().capture_events(AUDIT_EVENTS);
            let result = builder
                .build()
                .map_err(|e| format!("build error: {e}"))
                .and_then(|system| {
                    catch_unwind(AssertUnwindSafe(move || system.run()))
                        .map_err(|_| "audit run panicked".to_string())
                })
                .and_then(|report| {
                    validate_events(&report)?;
                    Ok(fingerprint(&report))
                });
            let ok = match result {
                Ok(fp) if self.checker.check(config, fp) => true,
                Ok(_) => self.fail(config, "audit run fingerprint mismatch"),
                Err(e) => self.fail(config, &e),
            };
            self.outcome.op(ok);
        }
    }

    fn fail(&self, config: usize, why: &str) -> bool {
        eprintln!("benchmark: {} config {config}: {why}", self.workload.name);
        false
    }

    /// The per-config profile of the first sample, summed over configs.
    fn profile_sums(&self) -> Vec<(&'static str, u64)> {
        let mut sums: Vec<(&'static str, u64)> =
            PhaseProfile::default().entries().into_iter().collect();
        for p in self.profiles.iter().flatten() {
            for (sum, (_, v)) in sums.iter_mut().zip(p.entries()) {
                sum.1 += v;
            }
        }
        sums
    }

    /// Runs the whole measurement and returns the outcome.
    pub fn measure(mut self, s: &Settings) -> Outcome {
        let setup_s = self.setup_seconds(s.cap(SETUP_SAMPLES));
        for _ in 0..s.cap(WARMUPS) {
            self.sample(None);
        }
        // Traced samples share the timed budget, alternating with untraced
        // ones, so both kinds see the same host state and the trace
        // overhead compares like with like.
        let want_traced = if s.trace { s.cap(TRACED_SAMPLES) } else { 0 };
        let start = now_ns();
        let (mut timed, mut traced) = (Vec::new(), Vec::new());
        loop {
            let more_timed = match s.samples {
                Some(n) => timed.len() < n,
                None => timed.len() < MIN_TIMED || secs_since(start) < s.seconds,
            };
            let more_traced = traced.len() < want_traced;
            if more_traced && (traced.len() < timed.len() || !more_timed) {
                traced.push(self.sample(Some(traced.len())));
            } else if more_timed {
                timed.push(self.sample(None));
            } else {
                break;
            }
        }
        let rss = peak_rss_mib().expect("VmHWM in /proc/self/status: the benchmark needs Linux");
        self.audit();

        let walls = sorted(&timed.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        let wall_s = percentile(&walls, 0.5);
        let raw: Vec<f64> = timed.iter().map(|t| t.raw_s).collect();
        let speeds: Vec<f64> = timed.iter().map(|t| t.wall_s / t.raw_s).collect();
        let o = &mut self.outcome;
        o.metric(Kind::EndToEnd, "wall_s", "s", wall_s);
        o.metric(Kind::EndToEnd, "setup_s", "s", setup_s);
        o.metric(Kind::EndToEnd, "peak_rss_mib", "MiB", rss);
        o.metric(Kind::Info, "wall_n", "count", walls.len() as f64);
        for (name, p) in [("wall_p25", 0.25), ("wall_p66", 0.66), ("wall_p75", 0.75)] {
            o.metric(Kind::Info, name, "s", percentile(&walls, p));
        }
        o.metric(Kind::Info, "wall_raw_s", "s", median(&raw));
        o.metric(Kind::Info, "host_speed", "ratio", median(&speeds));
        if s.trace {
            self.layer_metrics(&traced, wall_s);
        }
        self.outcome.fingerprints = self.checker.firsts().to_vec();
        self.outcome
    }

    fn layer_metrics(&mut self, traced: &[Sample], untraced_wall_s: f64) {
        let over = |f: &dyn Fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let phase_s = |p: Phase| over(&|t| t.phase_s[p.index()]);
        let traced_wall = over(&|t| t.wall_s);
        let profile = self.profile_sums();
        let count = |name: &str| {
            profile
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        // Host time per unit of the work counter that explains it.
        let per = |p: Phase, scale: f64, work: &str| match count(work) {
            0 => 0.0,
            n => phase_s(p) * scale / n as f64,
        };
        let o = &mut self.outcome;
        for p in Phase::ALL {
            o.metric(
                Kind::Layer,
                format!("phase.{}_s", p.as_str()),
                "s",
                phase_s(p),
            );
        }
        o.metric(
            Kind::Layer,
            "phase.unattributed_s",
            "s",
            over(&Sample::unattributed_s),
        );
        let derived = [
            (
                "map.us_per_admit",
                "us",
                per(Phase::Map, 1e6, "apps_admitted"),
            ),
            (
                "thermal.us_per_epoch",
                "us",
                per(Phase::Thermal, 1e6, "epochs"),
            ),
            (
                "schedule.ns_per_candidate",
                "ns",
                per(Phase::Schedule, 1e9, "candidates_scanned"),
            ),
            (
                "events.ns_per_event",
                "ns",
                per(Phase::Events, 1e9, "events_processed"),
            ),
        ];
        for (name, unit, value) in derived {
            o.metric(Kind::Layer, name, unit, value);
        }
        for (name, v) in profile {
            o.metric(Kind::Layer, format!("profile.{name}"), "count", v as f64);
        }
        o.metric(
            Kind::Layer,
            "trace_overhead",
            "ratio",
            traced_wall / untraced_wall_s - 1.0,
        );
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
