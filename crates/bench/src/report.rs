//! Rendered run reports: a self-contained HTML page with inline SVG
//! panels plus a Prometheus-style text file, generated from one probe's
//! flight recording (`repro report <id>`).
//!
//! The renderer consumes only the deterministic [`Report`] — the trace,
//! the flight-recorder timeline, the event log and the phase profile —
//! so the emitted bytes are identical across worker counts and reruns.
//! Wall-clock phase times exist too, but they are measured bench-side
//! through [`WallPhaseTimer`] and go to stderr only, never into a file.

use crate::events::probe_builder;
use crate::Scale;
use manytest_core::prelude::*;
use manytest_sim::{HealthCode, Phase, PhaseObserver, StateSnapshot};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Flight-recorder ring capacity used by report probes: small enough to
/// keep the heatmap panels readable, large enough that quick probes
/// (250+ epochs) exercise the stride-doubling decimation.
pub const REPORT_SNAPSHOT_CAPACITY: usize = 192;

/// Widest panel dimension, SVG user units.
const PANEL_W: f64 = 760.0;
/// Chart margin inside a panel.
const MARGIN: f64 = 34.0;

/// Every metric name `metrics.prom` emits, in emission order. The lint
/// `golden-schema` rule checks that any `manytest_*` metric the docs
/// mention is in this list, and a unit test checks the list matches what
/// [`render_prometheus`] actually writes.
pub const METRIC_KEYS: [&str; 25] = [
    "manytest_sim_seconds",
    "manytest_apps_arrived",
    "manytest_apps_completed",
    "manytest_throughput_mips",
    "manytest_mean_power_watts",
    "manytest_peak_power_watts",
    "manytest_tdp_watts",
    "manytest_cap_violations_total",
    "manytest_test_energy_share",
    "manytest_tests_completed_total",
    "manytest_tests_aborted_total",
    "manytest_tests_denied_power_total",
    "manytest_mean_test_interval_seconds",
    "manytest_faults_injected_total",
    "manytest_fault_detections_total",
    "manytest_cores_quarantined_total",
    "manytest_healthy_cores_end",
    "manytest_corruption_exposure_core_seconds",
    "manytest_event_log_dropped_total",
    "manytest_event_log_saturated",
    "manytest_state_snapshots_total",
    "manytest_profile_epochs_total",
    "manytest_profile_events_processed_total",
    "manytest_profile_sched_launches_total",
    "manytest_profile_batch_high_water",
];

/// The probe configuration for `id` with the flight recorder enabled on
/// top of the standard event capture. `None` for unknown ids.
pub fn report_builder(id: &str, scale: Scale) -> Option<SystemBuilder> {
    Some(probe_builder(id, scale)?.record_state(REPORT_SNAPSHOT_CAPACITY))
}

/// Runs the report probe for `id` to completion. `None` for unknown ids.
pub fn run_report_probe(id: &str, scale: Scale) -> Option<Report> {
    Some(crate::runner::run_system(report_builder(id, scale)?))
}

/// Wall-clock phase timer, bench-side only: implements [`PhaseObserver`]
/// so the control loop's `enter`/`exit` brackets accumulate real seconds
/// per [`Phase`]. The accumulator is shared out through an `Arc` because
/// `System::run` consumes the system (and the observer with it).
///
/// Wall times are diagnostics for stderr; they must never be written
/// into report files, which are byte-compared across worker counts.
pub struct WallPhaseTimer {
    acc: Arc<Mutex<[f64; Phase::COUNT]>>,
    started: [Option<Instant>; Phase::COUNT],
}

impl WallPhaseTimer {
    /// A fresh timer plus the shared accumulator to read afterwards.
    pub fn new() -> (Self, Arc<Mutex<[f64; Phase::COUNT]>>) {
        let acc = Arc::new(Mutex::new([0.0; Phase::COUNT]));
        let timer = WallPhaseTimer {
            acc: Arc::clone(&acc),
            started: [None; Phase::COUNT],
        };
        (timer, acc)
    }
}

impl PhaseObserver for WallPhaseTimer {
    fn enter(&mut self, phase: Phase) {
        self.started[phase.index()] = Some(Instant::now());
    }

    fn exit(&mut self, phase: Phase) {
        if let Some(t0) = self.started[phase.index()].take() {
            if let Ok(mut acc) = self.acc.lock() {
                acc[phase.index()] += t0.elapsed().as_secs_f64();
            }
        }
    }
}

/// Runs the report probe with a [`WallPhaseTimer`] installed, returning
/// the (deterministic) report plus the (non-deterministic) per-phase
/// wall seconds. `None` for unknown ids.
pub fn run_report_probe_timed(id: &str, scale: Scale) -> Option<(Report, [f64; Phase::COUNT])> {
    let mut system = report_builder(id, scale)?
        .build()
        .expect("probe config is valid");
    let (timer, acc) = WallPhaseTimer::new();
    system.set_phase_observer(Box::new(timer));
    let report = system.run();
    let wall = *acc.lock().expect("timer accumulator is never poisoned");
    Some((report, wall))
}

/// One stderr-friendly table of per-phase wall seconds.
pub fn wall_phase_table(wall: &[f64; Phase::COUNT]) -> String {
    let total: f64 = wall.iter().sum();
    let mut out = String::from("# phase      wall_s   share\n");
    for phase in Phase::ALL {
        let s = wall[phase.index()];
        let share = if total > 0.0 { s / total * 100.0 } else { 0.0 };
        let _ = writeln!(out, "# {:<9} {:>8.4}  {:>5.1}%", phase.as_str(), s, share);
    }
    let _ = writeln!(out, "# total     {total:>8.4}");
    out
}

/// Validates the probe's telemetry and writes `DIR/<id>.html`,
/// `DIR/metrics.prom` and `DIR/<id>.trace.json` (the Perfetto trace the
/// HTML links to), creating `DIR` if missing. Returns the HTML and
/// Prometheus paths.
///
/// # Errors
///
/// I/O errors, plus a synthesized [`io::ErrorKind::InvalidData`] error
/// when the probe's event counts fail to reconcile with its report.
pub fn write_report_files(dir: &Path, id: &str, report: &Report) -> io::Result<(PathBuf, PathBuf)> {
    validate_events(report)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("probe {id}: {e}")))?;
    fs::create_dir_all(dir)?;
    let html_path = dir.join(format!("{id}.html"));
    let prom_path = dir.join("metrics.prom");
    fs::write(&html_path, render_html(id, report))?;
    fs::write(&prom_path, render_prometheus(id, report))?;
    crate::trace::write_trace_file(dir, id, report)?;
    Ok((html_path, prom_path))
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

/// `(name, help, value)` rows backing `metrics.prom`, in [`METRIC_KEYS`]
/// order. Values use Rust's shortest-round-trip float formatting, the
/// workspace's standard for deterministic output.
fn metric_rows(r: &Report) -> Vec<(&'static str, &'static str, String)> {
    let f = |v: f64| format!("{v}");
    let u = |v: u64| format!("{v}");
    vec![
        ("manytest_sim_seconds", "Simulated seconds covered by the run.", f(r.sim_seconds)),
        ("manytest_apps_arrived", "Applications that arrived.", u(r.apps_arrived)),
        ("manytest_apps_completed", "Applications admitted and completed.", u(r.apps_completed)),
        ("manytest_throughput_mips", "Workload throughput, million instructions per second.", f(r.throughput_mips)),
        ("manytest_mean_power_watts", "Mean chip power over the run.", f(r.mean_power)),
        ("manytest_peak_power_watts", "Hottest epoch's mean power.", f(r.peak_power)),
        ("manytest_tdp_watts", "Configured thermal design power.", f(r.tdp)),
        ("manytest_cap_violations_total", "Epochs whose measured power exceeded the TDP.", u(r.cap_violations)),
        ("manytest_test_energy_share", "Fraction of consumed energy spent on SBST testing.", f(r.test_energy_share)),
        ("manytest_tests_completed_total", "SBST sessions completed.", u(r.tests_completed)),
        ("manytest_tests_aborted_total", "SBST sessions aborted by arriving work.", u(r.tests_aborted)),
        ("manytest_tests_denied_power_total", "Launches denied for lack of power headroom.", u(r.tests_denied_power)),
        ("manytest_mean_test_interval_seconds", "Mean same-core interval between test completions.", f(r.mean_test_interval)),
        ("manytest_faults_injected_total", "Faults injected.", u(r.faults_injected)),
        ("manytest_fault_detections_total", "Fault detection occurrences.", u(r.fault_detections)),
        ("manytest_cores_quarantined_total", "Cores confirmed faulty and withdrawn.", u(r.cores_quarantined)),
        ("manytest_healthy_cores_end", "Cores still healthy when the run ended.", u(r.healthy_cores_end)),
        ("manytest_corruption_exposure_core_seconds", "Core-seconds of app work on fault-carrying cores.", f(r.corruption_exposure)),
        ("manytest_event_log_dropped_total", "Telemetry samples dropped by the bounded event log.", u(r.events.dropped())),
        ("manytest_event_log_saturated", "1 when the bounded event log dropped at least one record.", u((r.events.dropped() > 0) as u64)),
        ("manytest_state_snapshots_total", "State snapshots offered to the flight recorder.", u(r.state.seen())),
        ("manytest_profile_epochs_total", "Control epochs executed.", u(r.profile.epochs)),
        ("manytest_profile_events_processed_total", "Queue events drained by the control loop.", u(r.profile.events_processed)),
        ("manytest_profile_sched_launches_total", "Test sessions launched by the scheduler.", u(r.profile.sched_launches)),
        ("manytest_profile_batch_high_water", "Largest single event batch drained in one epoch.", u(r.profile.batch_high_water)),
    ]
}

/// Renders the Prometheus-style text exposition (`metrics.prom`): one
/// `# HELP`/`# TYPE`/sample triple per [`METRIC_KEYS`] entry, labelled
/// with the probe id. Byte-deterministic.
pub fn render_prometheus(id: &str, report: &Report) -> String {
    let mut out = String::new();
    for (name, help, value) in metric_rows(report) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{{probe=\"{id}\"}} {value}");
    }
    out
}

// ---------------------------------------------------------------------------
// HTML / SVG rendering.
// ---------------------------------------------------------------------------

/// Renders the self-contained HTML report for one probe run: power vs.
/// TDP trace, thermal/power heatmap timeline, core-health Gantt, V/f
/// residency stacked area, phase-profile table and the metric table.
/// Byte-deterministic (no wall time, no dates, no environment).
pub fn render_html(id: &str, report: &Report) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>manytest run report — probe {id}</title>");
    out.push_str(
        "<style>\n\
         body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 820px; color: #222; }\n\
         h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }\n\
         svg { background: #fafafa; border: 1px solid #ddd; }\n\
         table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }\n\
         th { background: #f0f0f0; } td:first-child, th:first-child { text-align: left; }\n\
         .caption { color: #666; font-size: 12px; }\n\
         pre { background: #f6f6f6; padding: 8px; overflow-x: auto; }\n\
         </style>\n</head>\n<body>\n",
    );
    let _ = writeln!(out, "<h1>manytest run report — probe {id}</h1>");
    let cores = if report.state.core_count() > 0 {
        report.state.core_count()
    } else {
        report.tests_per_core.len()
    };
    let _ = writeln!(
        out,
        "<p class=\"caption\">{:.3} s simulated · {} cores · {} control epochs · \
         flight recorder kept {} of {} snapshots (stride {})</p>",
        report.sim_seconds,
        cores,
        report.profile.epochs,
        report.state.snapshots().len(),
        report.state.seen(),
        report.state.stride()
    );
    if let Some(warning) = report.events.saturation_warning() {
        let _ = writeln!(out, "<p class=\"caption\">{warning}</p>");
    }
    let _ = writeln!(
        out,
        "<p class=\"caption\">causal trace: <a href=\"{id}.trace.json\">{id}.trace.json</a> \
         (load in <a href=\"https://ui.perfetto.dev\">ui.perfetto.dev</a> — one track per core, \
         flow arrows follow the cause links)</p>"
    );
    render_power_panel(&mut out, report);
    render_heatmap_panel(&mut out, report);
    render_health_panel(&mut out, report, cores);
    render_vf_panel(&mut out, report);
    render_profile_panel(&mut out, report);
    out.push_str("<h2>run metrics</h2>\n<pre>");
    out.push_str(&report.to_markdown());
    out.push_str("</pre>\n</body>\n</html>\n");
    out
}

/// Maps `t ∈ [0, t_max]` to an x pixel inside the chart area.
fn x_px(t: f64, t_max: f64) -> f64 {
    MARGIN + (t / t_max.max(1e-12)) * (PANEL_W - 2.0 * MARGIN)
}

/// Maps `v ∈ [0, v_max]` to a y pixel (origin at the bottom).
fn y_px(v: f64, v_max: f64, panel_h: f64) -> f64 {
    panel_h - MARGIN - (v / v_max.max(1e-12)) * (panel_h - 2.0 * MARGIN)
}

fn polyline(out: &mut String, pts: &[(f64, f64)], t_max: f64, v_max: f64, h: f64, color: &str, dash: &str) {
    if pts.is_empty() {
        return;
    }
    let _ = write!(out, "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"{dash} points=\"");
    for &(t, v) in pts {
        let _ = write!(out, "{:.1},{:.1} ", x_px(t, t_max), y_px(v, v_max, h));
    }
    out.push_str("\"/>\n");
}

/// Power vs. TDP trace with the test-power share underneath.
fn render_power_panel(out: &mut String, report: &Report) {
    let h = 240.0;
    out.push_str("<h2>power vs. TDP</h2>\n");
    let series: [(&str, &str, &str); 4] = [
        ("power_w", "#1f6fb2", ""),
        ("test_power_w", "#e8871e", ""),
        ("cap_w", "#2a9d3a", " stroke-dasharray=\"5 3\""),
        ("tdp_w", "#d62828", " stroke-dasharray=\"2 3\""),
    ];
    let t_max = report.sim_seconds.max(1e-9);
    let mut v_max = report.tdp;
    for (name, _, _) in series {
        if let Some(s) = report.trace.series(name) {
            v_max = v_max.max(s.max_value().unwrap_or(0.0));
        }
    }
    v_max *= 1.06;
    let _ = writeln!(out, "<svg viewBox=\"0 0 {PANEL_W} {h}\" width=\"{PANEL_W}\" height=\"{h}\">");
    axes(out, h, t_max, v_max, "W");
    for (name, color, dash) in series {
        if let Some(s) = report.trace.series(name) {
            polyline(out, s.points(), t_max, v_max, h, color, dash);
        }
    }
    let labels = ["chip power", "test power", "PID cap", "TDP"];
    for (i, ((_, color, _), label)) in series.iter().zip(labels).enumerate() {
        let x = MARGIN + 8.0 + i as f64 * 110.0;
        let _ = writeln!(
            out,
            "<rect x=\"{x:.1}\" y=\"8\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"17\" font-size=\"11\">{label}</text>",
            x + 14.0
        );
    }
    out.push_str("</svg>\n");
    let _ = writeln!(
        out,
        "<p class=\"caption\">test power averages {:.2}% of consumed energy \
         (peak chip power {:.2} W against a {:.0} W TDP, {} cap violations).</p>",
        report.test_energy_share * 100.0,
        report.peak_power,
        report.tdp,
        report.cap_violations
    );
}

/// Simple axis frame with min/max tick labels.
fn axes(out: &mut String, h: f64, t_max: f64, v_max: f64, unit: &str) {
    let (x0, x1, y0, y1) = (MARGIN, PANEL_W - MARGIN, h - MARGIN, MARGIN);
    let _ = writeln!(
        out,
        "<line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x1}\" y2=\"{y0}\" stroke=\"#999\"/>\
         <line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x0}\" y2=\"{y1}\" stroke=\"#999\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{x0}\" y=\"{:.1}\" font-size=\"10\" fill=\"#666\">0</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">{:.0} ms</text>\
         <text x=\"{:.1}\" y=\"{y1}\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">{v_max:.0} {unit}</text>",
        y0 + 12.0,
        x1,
        y0 + 12.0,
        t_max * 1e3,
        x0 - 3.0,
    );
}

/// Blue→red colour ramp for normalised `v ∈ [0, 1]`.
fn ramp(v: f64) -> String {
    let v = v.clamp(0.0, 1.0);
    let r = (40.0 + 215.0 * v).round() as u8;
    let g = (60.0 + 40.0 * (1.0 - v)).round() as u8;
    let b = (235.0 * (1.0 - v) + 20.0).round() as u8;
    format!("rgb({r},{g},{b})")
}

/// Per-core thermal (or power, when the transient grid is off) heatmap
/// over the recorded timeline. Core rows are grouped when the mesh is
/// large so the panel stays a readable size.
fn render_heatmap_panel(out: &mut String, report: &Report) {
    let snaps = report.state.snapshots();
    if snaps.is_empty() {
        return;
    }
    let cores = report.state.core_count();
    let thermal = snaps.iter().any(|s| s.cores.iter().any(|c| c.temp_k > 0.0));
    let value = |c: &manytest_sim::CoreState| if thermal { c.temp_k } else { c.power_w };
    // Downsample columns and group core rows to bound the cell count.
    let col_stride = snaps.len().div_ceil(96);
    let cols: Vec<&StateSnapshot> = snaps.iter().step_by(col_stride).collect();
    let group = cores.div_ceil(64);
    let rows = cores.div_ceil(group);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in &cols {
        for c in &s.cores {
            lo = lo.min(value(c));
            hi = hi.max(value(c));
        }
    }
    let span = (hi - lo).max(1e-12);
    let cell_h: f64 = if rows <= 32 { 6.0 } else { 3.0 };
    let h = rows as f64 * cell_h + 2.0 * MARGIN;
    let cell_w = (PANEL_W - 2.0 * MARGIN) / cols.len() as f64;
    let _ = writeln!(
        out,
        "<h2>{} timeline</h2>\n<svg viewBox=\"0 0 {PANEL_W} {h:.1}\" width=\"{PANEL_W}\" height=\"{h:.1}\">",
        if thermal { "thermal" } else { "per-core power" }
    );
    for (ci, snap) in cols.iter().enumerate() {
        let x = MARGIN + ci as f64 * cell_w;
        for row in 0..rows {
            let start = row * group;
            let end = (start + group).min(cores);
            let mean = snap.cores[start..end].iter().map(value).sum::<f64>() / (end - start) as f64;
            let y = MARGIN + row as f64 * cell_h;
            let _ = writeln!(
                out,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.2}\" height=\"{cell_h}\" fill=\"{}\"/>",
                cell_w + 0.05,
                ramp((mean - lo) / span)
            );
        }
    }
    let unit = if thermal { "K" } else { "W" };
    let _ = writeln!(
        out,
        "<text x=\"{MARGIN}\" y=\"{:.1}\" font-size=\"10\" fill=\"#666\">t = 0</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">{:.0} ms</text>\
         <text x=\"{:.1}\" y=\"{MARGIN}\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">{lo:.2}–{hi:.2} {unit}</text>",
        h - MARGIN + 12.0,
        PANEL_W - MARGIN,
        h - MARGIN + 12.0,
        snaps.last().map_or(0.0, |s| s.t) * 1e3,
        PANEL_W - MARGIN,
    );
    out.push_str("</svg>\n");
    let _ = writeln!(
        out,
        "<p class=\"caption\">{} cores in {} rows ({} cores per row), \
         {} of {} snapshots shown, blue = {lo:.2} {unit}, red = {hi:.2} {unit}.</p>",
        cores,
        rows,
        group,
        cols.len(),
        snaps.len()
    );
}

/// Core-health Gantt from the event log's suspicion lifecycle.
fn render_health_panel(out: &mut String, report: &Report, cores: usize) {
    // Reconstruct per-core health transitions from the decision telemetry.
    let mut transitions: Vec<(u32, f64, HealthCode)> = Vec::new();
    for rec in report.events.events() {
        let (t, ev) = (rec.t, rec.ev);
        match ev {
            SimEvent::CoreSuspected { core, .. } => {
                transitions.push((core, t, HealthCode::Suspect));
            }
            SimEvent::CoreQuarantined { core, .. } => {
                transitions.push((core, t, HealthCode::Quarantined));
            }
            SimEvent::CoreCleared { core, .. } => {
                transitions.push((core, t, HealthCode::Healthy));
            }
            SimEvent::CoreProbeLaunched { core, streak, .. } if streak == 0 => {
                // Only the round's first probe opens the probation span;
                // later streak probes would just repaint the same colour.
                transitions.push((core, t, HealthCode::Probation));
            }
            SimEvent::CoreReadmitted { core, .. } => {
                transitions.push((core, t, HealthCode::Healthy));
            }
            SimEvent::CoreRequarantined { core, .. } => {
                transitions.push((core, t, HealthCode::Quarantined));
            }
            // lint:allow(event-match-exhaustiveness, reason = "subset contract: the health timeline only tracks the four core-lifecycle transitions")
            _ => {}
        }
    }
    out.push_str("<h2>core health</h2>\n");
    if transitions.is_empty() {
        let _ = writeln!(
            out,
            "<p class=\"caption\">all {cores} cores stayed healthy for the whole run.</p>"
        );
        return;
    }
    let mut touched: Vec<u32> = transitions.iter().map(|&(c, _, _)| c).collect();
    touched.sort_unstable();
    touched.dedup();
    let row_h = 14.0;
    let h = touched.len() as f64 * row_h + 2.0 * MARGIN;
    let t_max = report.sim_seconds.max(1e-9);
    let color = |hc: HealthCode| match hc {
        HealthCode::Healthy => "#2a9d3a",
        HealthCode::Suspect => "#e9c46a",
        HealthCode::Probation => "#f4845f",
        HealthCode::Quarantined => "#d62828",
    };
    let _ = writeln!(out, "<svg viewBox=\"0 0 {PANEL_W} {h:.1}\" width=\"{PANEL_W}\" height=\"{h:.1}\">");
    for (row, &core) in touched.iter().enumerate() {
        let y = MARGIN + row as f64 * row_h;
        let mut segments: Vec<(f64, HealthCode)> = vec![(0.0, HealthCode::Healthy)];
        segments.extend(
            transitions
                .iter()
                .filter(|&&(c, _, _)| c == core)
                .map(|&(_, t, hc)| (t, hc)),
        );
        for (i, &(t0, hc)) in segments.iter().enumerate() {
            let t1 = segments.get(i + 1).map_or(t_max, |&(t, _)| t);
            let (x0, x1) = (x_px(t0, t_max), x_px(t1, t_max));
            let _ = writeln!(
                out,
                "<rect x=\"{x0:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{}\"/>",
                (x1 - x0).max(0.5),
                row_h - 3.0,
                color(hc)
            );
        }
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" fill=\"#444\" text-anchor=\"end\">core {core}</text>",
            MARGIN - 4.0,
            y + row_h - 5.0
        );
    }
    out.push_str("</svg>\n");
    let _ = writeln!(
        out,
        "<p class=\"caption\">green = healthy, amber = suspect (confirmation retests open), \
         red = quarantined. {} of {cores} cores shown; the rest stayed healthy. \
         Final tally: {} healthy, {} quarantined ({} false), {} suspicions cleared.</p>",
        touched.len(),
        report.healthy_cores_end,
        report.cores_quarantined,
        report.false_quarantines,
        report.cores_cleared
    );
}

/// V/f residency stacked area: fraction of cores at each ladder level
/// (plus power-gated) per recorded snapshot.
fn render_vf_panel(out: &mut String, report: &Report) {
    let snaps = report.state.snapshots();
    if snaps.is_empty() {
        return;
    }
    let cores = report.state.core_count().max(1);
    let max_level = snaps
        .iter()
        .flat_map(|s| s.cores.iter().map(|c| c.vf_level))
        .max()
        .unwrap_or(0)
        .max(0);
    // Level bands: index 0 = gated (−1), then levels 0..=max_level.
    let bands = max_level as usize + 2;
    let palette = [
        "#4d4d4d", "#1f6fb2", "#4fa3d8", "#7fc6ae", "#b7dd8f", "#e9c46a", "#e8871e", "#d62828",
    ];
    let h = 220.0;
    let t_max = report.sim_seconds.max(1e-9);
    out.push_str("<h2>V/f residency</h2>\n");
    let _ = writeln!(out, "<svg viewBox=\"0 0 {PANEL_W} {h}\" width=\"{PANEL_W}\" height=\"{h}\">");
    // Cumulative core fraction per band, bottom (gated) to top.
    let cum = |snap: &StateSnapshot, band: usize| -> f64 {
        snap.cores
            .iter()
            .filter(|c| ((c.vf_level + 1).max(0) as usize) < band)
            .count() as f64
            / cores as f64
    };
    for band in 0..bands {
        let _ = write!(out, "<polygon fill=\"{}\" stroke=\"none\" points=\"", palette[band % palette.len()]);
        for snap in snaps {
            let _ = write!(out, "{:.1},{:.1} ", x_px(snap.t, t_max), y_px(cum(snap, band + 1), 1.0, h));
        }
        for snap in snaps.iter().rev() {
            let _ = write!(out, "{:.1},{:.1} ", x_px(snap.t, t_max), y_px(cum(snap, band), 1.0, h));
        }
        out.push_str("\"/>\n");
    }
    axes(out, h, t_max, 1.0, "of cores");
    for band in 0..bands {
        let x = MARGIN + 8.0 + band as f64 * 90.0;
        let label = if band == 0 {
            "gated".to_owned()
        } else {
            format!("level {}", band - 1)
        };
        let _ = writeln!(
            out,
            "<rect x=\"{x:.1}\" y=\"8\" width=\"10\" height=\"10\" fill=\"{}\"/>\
             <text x=\"{:.1}\" y=\"17\" font-size=\"11\">{label}</text>",
            palette[band % palette.len()],
            x + 14.0
        );
    }
    out.push_str("</svg>\n");
    let _ = writeln!(
        out,
        "<p class=\"caption\">stacked fraction of the {cores} cores resident at each \
         DVFS level per snapshot (band 0 = power-gated); the scheduler rotates test \
         sessions through the ladder to cover V/f-windowed faults.</p>"
    );
}

/// The deterministic phase-profile counter table.
fn render_profile_panel(out: &mut String, report: &Report) {
    out.push_str(
        "<h2>phase profile</h2>\n\
         <p class=\"caption\">deterministic self-profile: decisions and events counted \
         by the control loop itself (wall-clock per-phase times are printed to stderr \
         by <code>repro report</code> and deliberately kept out of this file).</p>\n\
         <table>\n<tr><th>counter</th><th>value</th></tr>\n",
    );
    for (name, value) in report.profile.entries() {
        let _ = writeln!(out, "<tr><td>{name}</td><td>{value}</td></tr>");
    }
    out.push_str("</table>\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_rows_match_metric_keys_exactly() {
        let rows = metric_rows(&Report::default());
        assert_eq!(rows.len(), METRIC_KEYS.len());
        for ((name, _, _), key) in rows.iter().zip(METRIC_KEYS) {
            assert_eq!(*name, key, "METRIC_KEYS order must match metric_rows");
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = render_prometheus("e3", &Report::default());
        for key in METRIC_KEYS {
            assert!(
                text.contains(&format!("# HELP {key} ")),
                "missing HELP for {key}"
            );
            assert!(text.contains(&format!("{key}{{probe=\"e3\"}} ")), "missing sample for {key}");
        }
        // Every emitted metric name is declared in METRIC_KEYS.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split('{').next().unwrap_or_default();
            assert!(METRIC_KEYS.contains(&name), "undeclared metric `{name}`");
        }
    }

    #[test]
    fn html_report_renders_every_panel() {
        let report = run_report_probe("e3", Scale::Quick).expect("e3 is a known probe");
        let html = render_html("e3", &report);
        for needle in [
            "power vs. TDP",
            "timeline</h2>",
            "core health",
            "V/f residency",
            "phase profile",
            "run metrics",
            "</html>",
        ] {
            assert!(html.contains(needle), "missing `{needle}` in report HTML");
        }
        assert!(html.matches("<svg").count() >= 3, "expected at least 3 SVG panels");
    }

    #[test]
    fn unknown_probe_id_yields_none() {
        assert!(run_report_probe("zz", Scale::Quick).is_none());
        assert!(run_report_probe_timed("zz", Scale::Quick).is_none());
    }

    #[test]
    fn wall_phase_table_lists_every_phase() {
        let wall = [0.5, 0.0, 0.25, 0.125, 0.0625, 0.0625];
        let table = wall_phase_table(&wall);
        for phase in Phase::ALL {
            assert!(table.contains(phase.as_str()), "missing {}", phase.as_str());
        }
        assert!(table.contains("total"));
    }
}
