//! Decision-telemetry probes for the evaluation suite.
//!
//! Each experiment gets one *probe*: a single representative run with the
//! same node/seed/load as the experiment's first job, instrumented with an
//! in-memory event log and a few injected faults so every event kind has a
//! chance to fire. Probes back two `repro` features:
//!
//! * `repro --events DIR` dumps each probe's log as `DIR/<id>.jsonl`
//!   (validated against the report's aggregates first), and
//! * `repro explain <id>` renders the log as a human-readable decision
//!   timeline plus counter/histogram summaries.
//!
//! Probes are separate runs — the experiments themselves stay untouched,
//! so their tables remain bit-identical with or without `--events`.

use crate::runner::Batch;
use crate::Scale;
use manytest_core::prelude::*;
use manytest_sim::OnlineStats;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;

/// Event-log capacity used by every probe: large enough that no probe at
/// `Scale::Full` drops samples (`write_event_logs` asserts this).
pub const PROBE_EVENT_CAPACITY: usize = 1 << 17;

/// Faults injected into every probe so the fault lifecycle shows up in
/// the timeline even for experiments that do not inject any themselves.
const PROBE_FAULTS: usize = 8;

/// Experiments that have a probe (all of them).
pub const PROBE_IDS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3",
    "a4", "a5", "a6",
];

/// The probe configuration for one experiment id, mirroring that
/// experiment's first submitted job (node, seed, horizon, load, switches),
/// plus the capture instrumentation. `None` for unknown ids.
pub fn probe_builder(id: &str, scale: Scale) -> Option<SystemBuilder> {
    let base = |node: TechNode, seed: u64, full_ms: u64, rate: f64| {
        SystemBuilder::new(node)
            .seed(seed)
            .sim_time_ms(scale.ms(full_ms))
            .arrival_rate(rate)
    };
    let builder = match id {
        "e1" => base(TechNode::N16, 10, 300, 3_000.0),
        "e2" => base(TechNode::N16, 5, 400, 2_000.0),
        "e3" => base(TechNode::N16, 21, 300, 1_000.0),
        "e4" => base(TechNode::N16, 33, 400, 1_000.0),
        "e5" => base(TechNode::N16, 40, 300, 2_500.0),
        "e6" => base(TechNode::N16, 55, 500, 2_000.0),
        "e7" => base(TechNode::N16, 60, 800, 500.0),
        "e8" => base(TechNode::N16, 70, 300, 6_000.0),
        "e9" => base(TechNode::N16, 80, 200, 8_000.0).testing(false),
        "e10" => base(TechNode::N16, 100, 800, 1_500.0),
        "e11" => base(TechNode::N16, 110, 400, 2_000.0)
            .fault_response(FaultResponsePolicy::MigrateRegion)
            .intermittent_faults(0.25)
            .test_false_positives(0.01),
        // The lifecycle probe needs room for intermittents to be caught,
        // confirmed, cooled and re-admitted, so it keeps the experiment's
        // N22 mesh and a longer horizon instead of the N16 default.
        "e12" => base(TechNode::N22, 121, 800, 500.0)
            .fault_response(FaultResponsePolicy::MigrateRegion)
            .intermittent_faults(1.0)
            .intermittent_cooldown(0.25)
            .probe_cadence_us(3_000)
            .checkpoint_interval_us(2_000),
        "a1" => base(TechNode::N16, 90, 300, 2_500.0).mapper(MapperKind::Baseline),
        "a2" => base(TechNode::N16, 91, 500, 2_000.0),
        "a3" => base(TechNode::N16, 92, 300, 2_500.0).mapper(MapperKind::Baseline),
        "a4" => base(TechNode::N16, 93, 1_200, 400.0).vf_windowed_faults(1.0),
        "a5" => base(TechNode::N16, 94, 500, 2_000.0).transient_thermal(true),
        "a6" => base(TechNode::N16, 95, 300, 3_000.0).model_contention(true),
        _ => return None,
    };
    Some(
        builder
            .capture_events(PROBE_EVENT_CAPACITY)
            .injected_faults(PROBE_FAULTS)
            .vf_windowed_faults(0.25),
    )
}

/// Runs one probe to completion. `None` for unknown ids.
pub fn run_probe(id: &str, scale: Scale) -> Option<Report> {
    Some(crate::runner::run_system(probe_builder(id, scale)?))
}

/// Runs the probes for `ids` (unknown ids are skipped) on up to `jobs`
/// workers and returns `(id, report)` pairs in `ids` order.
pub fn capture_events(ids: &[&str], scale: Scale, jobs: usize) -> Vec<(String, Report)> {
    let mut batch = Batch::new();
    let known: Vec<&str> = ids
        .iter()
        .copied()
        .filter(|id| probe_builder(id, scale).is_some())
        .collect();
    for &id in &known {
        let owned = id.to_owned();
        batch.push(format!("probe/{id}"), move || {
            run_probe(&owned, scale).expect("id was checked above")
        });
    }
    known
        .into_iter()
        .map(str::to_owned)
        .zip(batch.run(jobs))
        .collect()
}

/// Runs the probes for `ids` and writes one validated JSONL file per
/// probe into `dir` (created if missing). Returns `(id, event_count)` in
/// `ids` order.
///
/// # Errors
///
/// I/O errors from creating the directory or writing a file, and a
/// synthesized [`io::ErrorKind::InvalidData`] error if any probe's event
/// counts fail to reconcile with its report aggregates or the log
/// overflowed [`PROBE_EVENT_CAPACITY`].
pub fn write_event_logs(
    dir: &Path,
    ids: &[&str],
    scale: Scale,
    jobs: usize,
) -> io::Result<Vec<(String, usize)>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (id, report) in capture_events(ids, scale, jobs) {
        validate_events(&report).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("probe {id}: {e}"),
            )
        })?;
        if report.events.dropped() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "probe {id}: event log dropped {} samples; raise PROBE_EVENT_CAPACITY",
                    report.events.dropped()
                ),
            ));
        }
        let file = fs::File::create(dir.join(format!("{id}.jsonl")))?;
        let mut writer = io::BufWriter::new(file);
        report.events.write_jsonl(&mut writer)?;
        writer.flush()?; // surface flush errors; BufWriter's drop swallows them
        written.push((id, report.events.len()));
    }
    Ok(written)
}

/// One human-readable timeline line for an event.
pub(crate) fn describe(out: &mut String, t: f64, ev: &SimEvent) {
    let ms = t * 1e3;
    let _ = write!(out, "{ms:>10.3} ms  ");
    describe_event(out, ev);
    out.push('\n');
}

/// The description text for an event (no timestamp, no newline).
pub(crate) fn describe_event(out: &mut String, ev: &SimEvent) {
    let _ = match *ev {
        SimEvent::AppArrived { app, tasks } => {
            write!(out, "app {app} arrived ({tasks} tasks)")
        }
        SimEvent::AppRejected { app, tasks } => {
            write!(out, "app {app} REJECTED ({tasks} tasks exceed the mesh)")
        }
        SimEvent::AppMapped {
            app,
            tasks,
            first_node,
            region_w,
            region_h,
            level,
            hop_cost,
            queue_wait,
            headroom,
        } => write!(
            out,
            "app {app} mapped: {tasks} tasks in {region_w}x{region_h} region at node {first_node}, \
             V/f level {level}, hop cost {hop_cost:.2}, waited {:.3} ms, headroom {headroom:.2} W",
            queue_wait * 1e3
        ),
        SimEvent::AppCompleted { app, latency } => {
            write!(out, "app {app} completed (latency {:.3} ms)", latency * 1e3)
        }
        SimEvent::TestLaunched {
            core,
            routine,
            level,
            power,
            headroom,
        } => write!(
            out,
            "test launched on core {core}: routine {routine} at V/f level {level} \
             ({power:.3} W, headroom left {headroom:.2} W)"
        ),
        SimEvent::TestDeniedPower {
            core,
            needed,
            headroom,
        } => write!(
            out,
            "test DENIED on core {core}: needs {needed:.3} W, headroom {headroom:.3} W"
        ),
        SimEvent::TestAborted { core, reason } => {
            write!(out, "test aborted on core {core} ({})", reason.as_str())
        }
        SimEvent::TestCompleted {
            core,
            routine,
            level,
            covered_levels,
            interval,
        } => {
            let _ = write!(
                out,
                "test completed on core {core}: routine {routine} at level {level}, \
                 {covered_levels} levels covered"
            );
            if interval >= 0.0 {
                write!(out, ", {:.3} ms since last", interval * 1e3)
            } else {
                write!(out, ", first test on this core")
            }
        }
        SimEvent::CapAdjusted {
            cap,
            measured,
            headroom,
            reservations,
        } => write!(
            out,
            "cap -> {cap:.2} W (measured {measured:.2} W, headroom {headroom:.2} W, \
             {reservations} reservations)"
        ),
        SimEvent::DvfsTransition { core, from, to } => {
            write!(out, "core {core} V/f level {from} -> {to} (-1 = gated)")
        }
        SimEvent::FaultActivated { core } => {
            write!(out, "latent fault ACTIVATED on core {core}")
        }
        SimEvent::FaultDetected { core, latency } => write!(
            out,
            "fault DETECTED on core {core} ({:.3} ms after activation)",
            latency * 1e3
        ),
        SimEvent::CoreSuspected { core, level } => write!(
            out,
            "core {core} SUSPECT: confirmation retests queued at V/f level {level}"
        ),
        SimEvent::CoreQuarantined { core, retests } => write!(
            out,
            "core {core} QUARANTINED after {retests} confirmation retests (power-gated)"
        ),
        SimEvent::CoreCleared { core, retests } => write!(
            out,
            "core {core} cleared: {retests} retests failed to reproduce the fault"
        ),
        SimEvent::AppAborted { app, core } => {
            write!(out, "app {app} ABORTED (victim of core {core} quarantine)")
        }
        SimEvent::AppRestarted { app, core } => write!(
            out,
            "app {app} restarted elsewhere (victim of core {core} quarantine)"
        ),
        SimEvent::AppMigrated {
            app,
            core,
            moved_tasks,
            delay,
        } => write!(
            out,
            "app {app} migrated off core {core}: {moved_tasks} tasks moved, \
             {:.3} ms state-transfer delay",
            delay * 1e3
        ),
        SimEvent::CoreProbeLaunched {
            core,
            streak,
            inflight,
        } => write!(
            out,
            "probe launched on quarantined core {core}: {streak} clean so far \
             ({inflight} probe sessions in flight)"
        ),
        SimEvent::CoreReadmitted { core, probes } => write!(
            out,
            "core {core} RE-ADMITTED after {probes} clean probes (mappable again)"
        ),
        SimEvent::CoreRequarantined { core, backoff } => write!(
            out,
            "core {core} re-quarantined: probe reproduced the fault \
             (backoff exponent now {backoff})"
        ),
        SimEvent::AppCheckpointed { app, tasks, bytes } => write!(
            out,
            "app {app} checkpointed: {tasks} live tasks, {bytes} B image"
        ),
    };
}

/// Renders one record: the timeline line, plus — for fault-response
/// outcomes (quarantine, migration, abort, restart) — its full causal
/// chain as indented `caused-by` lines, so "why was this core withdrawn"
/// reads inline instead of requiring a manual timeline scan.
pub(crate) fn describe_record(out: &mut String, graph: &ProvenanceGraph<'_>, rec: &EventRecord) {
    describe(out, rec.t, &rec.ev);
    let traced = matches!(
        rec.ev,
        SimEvent::CoreQuarantined { .. }
            | SimEvent::CoreReadmitted { .. }
            | SimEvent::CoreRequarantined { .. }
            | SimEvent::AppMigrated { .. }
            | SimEvent::AppAborted { .. }
            | SimEvent::AppRestarted { .. }
    );
    if !traced {
        return;
    }
    let chain = graph.chain_to_root(rec.id);
    for i in 1..chain.len() {
        let Some(link) = chain[i - 1].cause else { break };
        let anc = chain[i];
        let _ = write!(
            out,
            "              caused-by [{}] {:>8.3} ms: ",
            link.kind.as_str(),
            anc.t * 1e3
        );
        describe_event(out, &anc.ev);
        out.push('\n');
    }
}

/// Timeline length before elision kicks in.
const EXPLAIN_HEAD: usize = 48;
const EXPLAIN_TAIL: usize = 24;
/// Fault-response verdicts whose causal chains `explain` renders in the
/// degradation block (independently of head/tail elision).
const EXPLAIN_CHAINS: usize = 4;

/// Runs the probe for `id` and renders its decision timeline, counter
/// summary and key histograms as one printable string. `None` for
/// unknown ids.
pub fn explain(id: &str, scale: Scale) -> Option<String> {
    let report = run_probe(id, scale)?;
    let events = report.events.events();
    let mut out = String::new();
    let _ = writeln!(out, "## decision timeline — probe {id}");
    let _ = writeln!(
        out,
        "{} events over {:.3} s simulated ({} dropped)",
        report.events.total(),
        report.sim_seconds,
        report.events.dropped()
    );
    if let Some(warning) = report.events.saturation_warning() {
        let _ = writeln!(out, "{warning}");
    }
    out.push('\n');
    let graph = ProvenanceGraph::build(events);
    if events.len() <= EXPLAIN_HEAD + EXPLAIN_TAIL {
        for rec in events {
            describe_record(&mut out, &graph, rec);
        }
    } else {
        for rec in &events[..EXPLAIN_HEAD] {
            describe_record(&mut out, &graph, rec);
        }
        let _ = writeln!(
            out,
            "           ... {} events elided (full log via --events) ...",
            events.len() - EXPLAIN_HEAD - EXPLAIN_TAIL
        );
        for rec in &events[events.len() - EXPLAIN_TAIL..] {
            describe_record(&mut out, &graph, rec);
        }
    }

    // Registry pass: per-kind counters plus the distributions the paper's
    // analysis cares about (all in milliseconds).
    let mut registry = CounterRegistry::new();
    let mut queue_wait = OnlineStats::new();
    let mut detection = OnlineStats::new();
    let mut interval = OnlineStats::new();
    let mut cap = OnlineStats::new();
    for rec in events {
        registry.on_event(rec);
        match rec.ev {
            SimEvent::AppMapped { queue_wait: w, .. } => queue_wait.push(w * 1e3),
            SimEvent::FaultDetected { latency, .. } => detection.push(latency * 1e3),
            SimEvent::TestCompleted { interval: iv, .. } if iv >= 0.0 => interval.push(iv * 1e3),
            SimEvent::CapAdjusted { cap: c, .. } => cap.push(c),
            // lint:allow(event-match-exhaustiveness, reason = "subset contract: latency histograms only sample the four latency-bearing events; other variants carry no duration")
            _ => {}
        }
    }
    for (name, stats) in [
        ("queue_wait_ms", &queue_wait),
        ("detection_latency_ms", &detection),
        ("test_interval_ms", &interval),
    ] {
        let hi = stats.max().unwrap_or(1.0).max(1e-9) * 1.001;
        registry.declare_histogram(name, 0.0, hi, 8);
        // Second pass per histogram keeps declaration and fill adjacent;
        // the event slice is already in memory, so this is cheap.
        for rec in events {
            match (rec.ev, name) {
                (SimEvent::AppMapped { queue_wait: w, .. }, "queue_wait_ms") => {
                    registry.record(name, w * 1e3)
                }
                (SimEvent::FaultDetected { latency, .. }, "detection_latency_ms") => {
                    registry.record(name, latency * 1e3)
                }
                (SimEvent::TestCompleted { interval: iv, .. }, "test_interval_ms")
                    if iv >= 0.0 =>
                {
                    registry.record(name, iv * 1e3)
                }
                // lint:allow(event-match-exhaustiveness, reason = "subset contract: each named histogram samples exactly one event kind; the dispatch above selects it")
                _ => {}
            }
        }
    }
    out.push('\n');
    if cap.count() > 0 {
        let _ = writeln!(
            out,
            "power cap: min {:.2} W  mean {:.2} W  max {:.2} W over {} adjustments",
            cap.min().unwrap_or(0.0),
            cap.mean(),
            cap.max().unwrap_or(0.0),
            cap.count()
        );
    }
    if report.cores_suspected + report.cores_quarantined + report.cores_cleared > 0 {
        let n = report.tests_per_core.len() as u64;
        let _ = writeln!(out, "\ndegradation:");
        let _ = writeln!(
            out,
            "  healthy cores: {} of {} at end of run",
            report.healthy_cores_end, n
        );
        let _ = writeln!(
            out,
            "  suspicions {}  quarantines {} ({} false)  cleared {}  \
             confirmation retests {}",
            report.cores_suspected,
            report.cores_quarantined,
            report.false_quarantines,
            report.cores_cleared,
            report.confirmation_retests
        );
        let _ = writeln!(
            out,
            "  victim apps: {} aborted, {} restarted, {} migrated",
            report.apps_aborted, report.apps_restarted, report.apps_migrated
        );
        let _ = writeln!(
            out,
            "  corruption exposure: {:.3} core-seconds of work on fault-carrying cores",
            report.corruption_exposure
        );
        // The causal chains behind the first few quarantine verdicts —
        // rendered from anywhere in the log, since the head/tail window
        // above usually elides the mid-run response activity.
        let verdicts: Vec<&EventRecord> = events
            .iter()
            .filter(|rec| {
                matches!(
                    rec.ev,
                    SimEvent::CoreQuarantined { .. } | SimEvent::AppMigrated { .. }
                )
            })
            .take(EXPLAIN_CHAINS)
            .collect();
        if !verdicts.is_empty() {
            let _ = writeln!(out, "  first response chains:");
            for rec in verdicts {
                describe_record(&mut out, &graph, rec);
            }
        }
    }
    out.push('\n');
    out.push_str(&registry.summary());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_id_has_a_builder() {
        for id in PROBE_IDS {
            assert!(probe_builder(id, Scale::Quick).is_some(), "missing probe {id}");
        }
        assert!(probe_builder("zz", Scale::Quick).is_none());
        assert!(explain("zz", Scale::Quick).is_none());
    }
}
