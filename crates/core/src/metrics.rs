//! Run-level metrics and the final report.

use manytest_sim::{EventLog, OnlineStats, PhaseProfile, StateTimeline, Trace, TraceSeries};
use serde::{Deserialize, Serialize};

/// Everything a finished run reports; the bench harness regenerates the
/// paper's figures from these fields plus [`Report::trace`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Applications that arrived.
    pub apps_arrived: u64,
    /// Applications admitted and completed.
    pub apps_completed: u64,
    /// Applications still pending/running at the end.
    pub apps_in_flight: u64,
    /// Applications still waiting in the pending queue at the end
    /// (a subset of [`Report::apps_in_flight`]).
    pub apps_pending: u64,
    /// Applications rejected because they can never fit the mesh.
    pub apps_rejected: u64,
    /// Total workload instructions executed.
    pub instructions_executed: u64,
    /// Workload throughput, million instructions per second.
    pub throughput_mips: f64,
    /// Mean application latency (arrival → completion), seconds.
    pub mean_app_latency: f64,
    /// Mean time an admitted app waited in the pending queue, seconds.
    pub mean_queue_wait: f64,

    /// Mean chip power over the run, watts.
    pub mean_power: f64,
    /// Hottest epoch's mean power, watts.
    pub peak_power: f64,
    /// Configured TDP, watts.
    pub tdp: f64,
    /// Epochs whose measured power exceeded the TDP (with 1 % tolerance).
    pub cap_violations: u64,
    /// Admission-cap moves by the governor (one per control epoch);
    /// reconciles with `CapAdjusted` telemetry events.
    pub cap_adjustments: u64,
    /// Fraction of consumed energy spent on SBST testing.
    pub test_energy_share: f64,
    /// Fraction of consumed energy spent on the NoC.
    pub noc_energy_share: f64,

    /// SBST sessions completed.
    pub tests_completed: u64,
    /// SBST sessions aborted by arriving work (non-intrusive preemption).
    pub tests_aborted: u64,
    /// SBST sessions still running when the horizon ended.
    pub tests_in_flight: u64,
    /// Launches denied because the power headroom was exhausted.
    pub tests_denied_power: u64,
    /// Completed full routine-library passes per core, minimum over cores.
    pub min_tests_per_core: u64,
    /// Completed routines per core, maximum over cores.
    pub max_tests_per_core: u64,
    /// Mean interval between consecutive test completions on the same
    /// core, seconds (NaN-free: 0 when no core was tested twice).
    pub mean_test_interval: f64,
    /// Largest observed same-core test interval, seconds.
    pub max_test_interval: f64,
    /// True if every core completed ≥ 1 routine at every DVFS level.
    pub full_vf_coverage: bool,
    /// Completed routines per DVFS level (lowest first).
    pub tests_per_level: Vec<u64>,
    /// Completed routines per core (dense core index order).
    pub tests_per_core: Vec<u64>,
    /// Lifetime damage per core (dense core index order).
    pub damage_per_core: Vec<f64>,

    /// Faults injected.
    pub faults_injected: u64,
    /// Faults in the `Detected` state at the end of the run.
    pub faults_detected: u64,
    /// Detection *occurrences* over the run. A cleared suspect demotes
    /// its fault back to latent, so a fault can be detected more than
    /// once; this counter — not [`Report::faults_detected`] — reconciles
    /// with `FaultDetected` telemetry events.
    pub fault_detections: u64,
    /// Fault activation *occurrences* (injected faults becoming latent
    /// on their core); reconciles with `FaultActivated` events.
    pub fault_activations: u64,
    /// Mean fault detection latency, seconds (0 when none detected).
    pub mean_detection_latency: f64,

    /// Cores that entered `Suspect` (detections that opened a
    /// confirmation round).
    pub cores_suspected: u64,
    /// Cores confirmed faulty and withdrawn.
    pub cores_quarantined: u64,
    /// Suspects cleared back to healthy after K unconfirmed retests.
    pub cores_cleared: u64,
    /// Quarantines of cores with no *solid* active fault (intermittent
    /// symptoms confirmed by chance) — the cost of believing retests.
    pub false_quarantines: u64,
    /// Confirmation retest sessions completed.
    pub confirmation_retests: u64,
    /// Probe sessions launched by the background re-admission lane;
    /// reconciles with `CoreProbeLaunched` telemetry events.
    pub probes_launched: u64,
    /// Quarantined cores re-admitted to service after a clean probation
    /// streak; reconciles with `CoreReadmitted` events.
    pub cores_readmitted: u64,
    /// Probation rounds that failed and returned the core to quarantine
    /// with a longer retry backoff; reconciles with `CoreRequarantined`.
    pub cores_requarantined: u64,
    /// Configured cap on concurrent probe sessions (the lane budget),
    /// echoed so the audit can hold `CoreProbeLaunched` events to it.
    pub probe_budget: u64,
    /// Cores still healthy when the run ended (probation counts as
    /// withdrawn: the core is not mappable until `CoreReadmitted`).
    pub healthy_cores_end: u64,
    /// Applications killed outright by a quarantine (`Abort` policy).
    pub apps_aborted: u64,
    /// Applications re-queued for a fresh placement (`RestartElsewhere`).
    pub apps_restarted: u64,
    /// Applications remapped in place (`MigrateRegion`).
    pub apps_migrated: u64,
    /// Checkpoint images written by running applications (under
    /// `MigrateRegion` with a nonzero checkpoint interval); reconciles
    /// with `AppCheckpointed` telemetry events.
    pub apps_checkpointed: u64,
    /// Corruption exposure: core-seconds of application work executed on
    /// a core while a fault was actively corrupting (from activation
    /// until the fault cools or the core is withdrawn). The quantity the
    /// paper's test-frequency tuning implicitly minimises.
    pub corruption_exposure: f64,

    /// Mean utilisation over cores at the end of the run.
    pub mean_utilization: f64,
    /// Dark-silicon fraction of the node (static, for context).
    pub dark_fraction: f64,
    /// Mean weighted hop cost per admitted application.
    pub mean_hop_cost: f64,

    /// Deterministic self-profile of the control loop: per-phase event
    /// counters and scratch-buffer high-water marks (never wall-clock).
    pub profile: PhaseProfile,
    /// Flight-recorder timeline of per-epoch state snapshots. Empty
    /// unless the run opted in via `SystemBuilder::record_state`.
    pub state: StateTimeline,
    /// Epoch-resolution time series (power, cap, tests in flight, …).
    pub trace: Trace,
    /// Structured decision telemetry captured during the run. Empty
    /// unless the run opted in via `SystemBuilder::capture_events`; the
    /// per-kind counts are exact even if the sample buffer saturated.
    pub events: EventLog,
}

impl Report {
    /// Relative throughput difference versus a baseline run:
    /// `(baseline − self) / baseline`, i.e. positive = this run is slower.
    ///
    /// # Panics
    ///
    /// Panics if the baseline throughput is zero.
    pub fn throughput_penalty_vs(&self, baseline: &Report) -> f64 {
        assert!(
            baseline.throughput_mips > 0.0,
            "baseline throughput must be positive"
        );
        (baseline.throughput_mips - self.throughput_mips) / baseline.throughput_mips
    }

    /// Renders the report as a two-column Markdown table (trace omitted),
    /// for pasting into lab notebooks and issues.
    pub fn to_markdown(&self) -> String {
        let rows: Vec<(&str, String)> = vec![
            ("simulated seconds", format!("{:.3}", self.sim_seconds)),
            ("apps arrived", self.apps_arrived.to_string()),
            ("apps completed", self.apps_completed.to_string()),
            ("apps in flight", self.apps_in_flight.to_string()),
            ("apps rejected", self.apps_rejected.to_string()),
            ("throughput (MIPS)", format!("{:.0}", self.throughput_mips)),
            ("mean app latency (ms)", format!("{:.2}", self.mean_app_latency * 1e3)),
            ("mean queue wait (ms)", format!("{:.2}", self.mean_queue_wait * 1e3)),
            ("mean power (W)", format!("{:.2}", self.mean_power)),
            ("peak power (W)", format!("{:.2}", self.peak_power)),
            ("TDP (W)", format!("{:.0}", self.tdp)),
            ("cap violations", self.cap_violations.to_string()),
            ("test energy share", format!("{:.2} %", self.test_energy_share * 100.0)),
            ("tests completed", self.tests_completed.to_string()),
            ("tests aborted", self.tests_aborted.to_string()),
            ("mean test interval (ms)", format!("{:.1}", self.mean_test_interval * 1e3)),
            ("max test interval (ms)", format!("{:.1}", self.max_test_interval * 1e3)),
            ("full V/f coverage", self.full_vf_coverage.to_string()),
            ("faults detected", format!("{}/{}", self.faults_detected, self.faults_injected)),
            ("cores quarantined", format!(
                "{} ({} false)",
                self.cores_quarantined, self.false_quarantines
            )),
            ("cores readmitted/requarantined", format!(
                "{}/{} ({} probes)",
                self.cores_readmitted, self.cores_requarantined, self.probes_launched
            )),
            ("apps aborted/restarted/migrated", format!(
                "{}/{}/{}",
                self.apps_aborted, self.apps_restarted, self.apps_migrated
            )),
            ("corruption exposure (core-ms)", format!("{:.2}", self.corruption_exposure * 1e3)),
            ("dark fraction", format!("{:.1} %", self.dark_fraction * 100.0)),
        ];
        let mut out = String::from("| metric | value |\n|---|---|\n");
        for (name, value) in rows {
            out.push_str(&format!("| {name} | {value} |\n"));
        }
        out
    }

    /// Pretty one-screen summary.
    pub fn summary(&self) -> String {
        format!(
            "sim {:.3}s | apps {}/{} done | {:.0} MIPS | power {:.1}/{:.1} W (peak {:.1}, {} cap violations) | \
             tests {} done / {} aborted ({:.2}% energy) | test interval mean {:.1} ms max {:.1} ms | \
             V/f coverage {}",
            self.sim_seconds,
            self.apps_completed,
            self.apps_arrived,
            self.throughput_mips,
            self.mean_power,
            self.tdp,
            self.peak_power,
            self.cap_violations,
            self.tests_completed,
            self.tests_aborted,
            self.test_energy_share * 100.0,
            self.mean_test_interval * 1e3,
            self.max_test_interval * 1e3,
            if self.full_vf_coverage { "full" } else { "partial" },
        )
    }
}

/// Accumulates per-run statistics the [`Report`] is assembled from.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// Application latencies (arrival → completion).
    pub app_latency: OnlineStats,
    /// Queue waits (arrival → admission).
    pub queue_wait: OnlineStats,
    /// Same-core test intervals.
    pub test_interval: OnlineStats,
    /// Weighted hop cost per admitted app.
    pub hop_cost: OnlineStats,
    /// Arrived / completed counters.
    pub apps_arrived: u64,
    /// Completed applications.
    pub apps_completed: u64,
    /// Executed instructions.
    pub instructions: u64,
    /// Completed sessions.
    pub tests_completed: u64,
    /// Aborted sessions.
    pub tests_aborted: u64,
    /// Epochs violating the cap.
    pub cap_violations: u64,
    /// Governor cap moves (one per control epoch).
    pub cap_adjustments: u64,
    /// Fault activation occurrences.
    pub fault_activations: u64,
    /// Cores that entered `Suspect`.
    pub cores_suspected: u64,
    /// Cores confirmed faulty and withdrawn.
    pub cores_quarantined: u64,
    /// Suspects cleared back to healthy.
    pub cores_cleared: u64,
    /// Quarantines with no solid active fault on the core.
    pub false_quarantines: u64,
    /// Confirmation retest sessions completed.
    pub confirmation_retests: u64,
    /// Probe sessions launched by the re-admission lane.
    pub probes_launched: u64,
    /// Quarantined cores re-admitted after a clean probation streak.
    pub cores_readmitted: u64,
    /// Failed probation rounds (core returned to quarantine).
    pub cores_requarantined: u64,
    /// Applications killed by quarantine.
    pub apps_aborted: u64,
    /// Applications re-queued by quarantine.
    pub apps_restarted: u64,
    /// Applications remapped in place by quarantine.
    pub apps_migrated: u64,
    /// Checkpoint images written by running applications.
    pub apps_checkpointed: u64,
    /// Core-seconds of app work on fault-active, not-yet-quarantined cores.
    pub corruption_exposure: f64,
}

/// The trace series the epoch close records, one sample per epoch each.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EpochSeries {
    PowerW,
    TestPowerW,
    WorkloadPowerW,
    CapW,
    TdpW,
    PendingApps,
    ActiveTests,
    HealthyCores,
    MaxTempK,
    MeanUtilization,
    PeakLinkLoad,
}

/// [`EpochSeries`] names in the report's trace, by slot.
const EPOCH_SERIES_NAMES: [&str; 11] = [
    "power_w",
    "test_power_w",
    "workload_power_w",
    "cap_w",
    "tdp_w",
    "pending_apps",
    "active_tests",
    "healthy_cores",
    "max_temp_k",
    "mean_utilization",
    "peak_link_load",
];

/// The epoch close's trace series in fixed slots, so a push indexes an
/// array instead of looking the series up by name. A slot is created on
/// its first push, as [`Trace::series_mut`] creates a missing series,
/// and [`EpochTrace::into_trace`] folds the created ones into the
/// report's trace by name.
#[derive(Debug, Default)]
pub(crate) struct EpochTrace {
    slots: [Option<TraceSeries>; EPOCH_SERIES_NAMES.len()],
    /// The same pushes through [`Trace::series_mut`]; every unit-test
    /// run checks the folded trace against it.
    #[cfg(test)]
    shadow: Trace,
}

impl EpochTrace {
    /// Appends a sample at time `t` to `series`.
    #[inline]
    pub(crate) fn push(&mut self, series: EpochSeries, t: f64, value: f64) {
        self.slots[series as usize]
            .get_or_insert_with(TraceSeries::new)
            .push(t, value);
        #[cfg(test)]
        self.shadow
            .series_mut(EPOCH_SERIES_NAMES[series as usize])
            .push(t, value);
    }

    /// The report's trace: every created series under its name.
    pub(crate) fn into_trace(self) -> Trace {
        let mut trace = Trace::new();
        for (name, slot) in EPOCH_SERIES_NAMES.into_iter().zip(self.slots) {
            if let Some(series) = slot {
                *trace.series_mut(name) = series;
            }
        }
        #[cfg(test)]
        assert_eq!(trace, self.shadow, "epoch trace slots diverged");
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_computation() {
        let mut base = Report::default();
        base.throughput_mips = 100.0;
        let mut tested = Report::default();
        tested.throughput_mips = 99.0;
        let p = tested.throughput_penalty_vs(&base);
        assert!((p - 0.01).abs() < 1e-12);
        // Faster than baseline → negative penalty.
        let mut faster = Report::default();
        faster.throughput_mips = 101.0;
        assert!(faster.throughput_penalty_vs(&base) < 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline throughput")]
    fn penalty_vs_zero_baseline_panics() {
        let base = Report::default();
        let mut r = Report::default();
        r.throughput_mips = 1.0;
        let _ = r.throughput_penalty_vs(&base);
    }

    #[test]
    fn summary_is_nonempty_and_mentions_tests() {
        let mut r = Report::default();
        r.tests_completed = 42;
        let s = r.summary();
        assert!(s.contains("42"));
        assert!(s.contains("MIPS"));
    }

    #[test]
    fn markdown_report_lists_key_metrics() {
        let mut r = Report::default();
        r.throughput_mips = 1234.0;
        r.tests_completed = 7;
        r.tdp = 80.0;
        let md = r.to_markdown();
        assert!(md.starts_with("| metric | value |"));
        assert!(md.contains("| throughput (MIPS) | 1234 |"));
        assert!(md.contains("| tests completed | 7 |"));
        assert!(md.lines().count() >= 20);
    }

    #[test]
    fn collector_defaults_to_zero() {
        let c = MetricsCollector::default();
        assert_eq!(c.apps_arrived, 0);
        assert_eq!(c.app_latency.count(), 0);
    }
}
