//! Perfetto/Chrome-trace export of a probe's decision telemetry.
//!
//! `repro trace <id> [--out DIR]` renders the probe's event stream as a
//! Chrome trace-event JSON array (the format Perfetto's UI and
//! `chrome://tracing` both load): one thread track per core, one per
//! control-loop phase, SBST sessions as duration slices, everything else
//! as instants, and a flow arrow along every cause link so the
//! detect→respond chains read as connected arrows instead of scattered
//! dots.
//!
//! The export is derived *purely* from the captured [`EventRecord`]
//! stream — no wall-clock, no worker-count-dependent state — so the file
//! is byte-identical across reruns (CI diffs two).
//!
//! Schema (this module's tests check it on the e3, e11 and e12 quick
//! probes' exports):
//! * every entry has `name`, `ph`, `ts`, `pid`, `tid`;
//! * `ph` is one of `M` (metadata), `X` (duration, with `dur`), `i`
//!   (instant, with `s`), `s`/`f` (flow start/finish, with `id`);
//! * timestamps are microseconds with fixed 3-decimal formatting;
//! * flow ids equal the *effect* record's [`EventId`], which is unique
//!   per run, so arrow count == resolvable cause-link count.

use crate::events::run_probe;
use crate::Scale;
use manytest_core::prelude::*;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The synthetic process id every track lives under.
const PID: u32 = 1;

/// Thread-track ids: control-loop phase tracks sit below 100, core
/// tracks at `CORE_TID_BASE + core`.
const TID_PHASE_PID: u32 = 1;
const TID_PHASE_MAP: u32 = 2;
const TID_PHASE_SCHEDULE: u32 = 3;
const TID_PHASE_EVENTS: u32 = 4;
/// First core track id.
pub const CORE_TID_BASE: u32 = 100;

/// The thread track a record renders on.
fn track_of(ev: &SimEvent) -> u32 {
    match *ev {
        SimEvent::CapAdjusted { .. } => TID_PHASE_PID,
        SimEvent::AppArrived { .. } | SimEvent::AppMapped { .. } | SimEvent::AppRejected { .. } => {
            TID_PHASE_MAP
        }
        SimEvent::TestDeniedPower { .. } => TID_PHASE_SCHEDULE,
        SimEvent::AppCompleted { .. } | SimEvent::AppCheckpointed { .. } => TID_PHASE_EVENTS,
        SimEvent::TestLaunched { core, .. }
        | SimEvent::TestAborted { core, .. }
        | SimEvent::TestCompleted { core, .. }
        | SimEvent::DvfsTransition { core, .. }
        | SimEvent::FaultActivated { core }
        | SimEvent::FaultDetected { core, .. }
        | SimEvent::CoreSuspected { core, .. }
        | SimEvent::CoreQuarantined { core, .. }
        | SimEvent::CoreProbeLaunched { core, .. }
        | SimEvent::CoreReadmitted { core, .. }
        | SimEvent::CoreRequarantined { core, .. }
        | SimEvent::CoreCleared { core, .. }
        | SimEvent::AppAborted { core, .. }
        | SimEvent::AppRestarted { core, .. }
        | SimEvent::AppMigrated { core, .. } => CORE_TID_BASE + core,
    }
}

/// Human label for a track id (thread_name metadata).
fn track_name(tid: u32) -> String {
    match tid {
        TID_PHASE_PID => "phase: pid".to_owned(),
        TID_PHASE_MAP => "phase: map".to_owned(),
        TID_PHASE_SCHEDULE => "phase: schedule".to_owned(),
        TID_PHASE_EVENTS => "phase: events".to_owned(),
        t => format!("core {}", t - CORE_TID_BASE),
    }
}

/// Deterministic microsecond timestamp (fixed 3-decimal formatting).
fn ts_us(t: f64) -> String {
    format!("{:.3}", t * 1e6)
}

/// Renders the captured event stream as a Chrome trace-event JSON array.
///
/// Pure function of the record slice: byte-identical for byte-identical
/// logs, regardless of worker count.
pub fn trace_json(id: &str, report: &Report) -> String {
    let records = report.events.events();
    let graph = ProvenanceGraph::build(records);
    // SBST sessions become duration slices: map each TestLaunched id to
    // the end of its session via the Session cause link on the
    // completion/abort record. Sessions on one core never overlap, so
    // the slices nest trivially.
    let mut session_end: std::collections::BTreeMap<u64, (f64, &'static str)> =
        std::collections::BTreeMap::new();
    for rec in records {
        if let Some(link) = rec.cause {
            if link.kind == CauseKind::Session {
                let outcome = match rec.ev {
                    SimEvent::TestCompleted { .. } => "completed",
                    SimEvent::TestAborted { .. } => "aborted",
                    // lint:allow(event-match-exhaustiveness, reason = "subset contract: session spans end only at the two test-terminal events; others cannot close a session")
                    _ => continue,
                };
                session_end.insert(link.id.0, (rec.t, outcome));
            }
        }
    }
    let mut out = String::new();
    out.push_str("[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(line);
    };
    // Metadata: process name plus one thread_name per used track, in
    // ascending tid order (deterministic).
    let mut tids: std::collections::BTreeSet<u32> =
        records.iter().map(|r| track_of(&r.ev)).collect();
    tids.insert(TID_PHASE_PID);
    push(
        &mut out,
        &format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
             \"args\":{{\"name\":\"manytest probe {id}\"}}}}"
        ),
    );
    for &tid in &tids {
        push(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track_name(tid)
            ),
        );
    }
    for rec in records {
        let tid = track_of(&rec.ev);
        let kind = rec.ev.kind();
        let ts = ts_us(rec.t);
        // Args: the record's own JSON fields, reused verbatim so the
        // trace stays in lockstep with the JSONL schema. The writer
        // prefixes every field with a comma; drop the leading one.
        let mut raw = String::new();
        rec.ev.write_json_fields(&mut raw);
        let args = raw.strip_prefix(',').unwrap_or(&raw);
        let mut line = String::new();
        match session_end.get(&rec.id.0) {
            // A launch with a known end: a duration slice.
            Some(&(end_t, outcome)) if matches!(rec.ev, SimEvent::TestLaunched { .. }) => {
                let dur = format!("{:.3}", (end_t - rec.t).max(0.0) * 1e6);
                let _ = write!(
                    line,
                    "{{\"name\":\"{kind}\",\"cat\":\"session\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":{PID},\"tid\":{tid},\
                     \"args\":{{{args},\"outcome\":\"{outcome}\"}}}}"
                );
            }
            // lint:allow(event-match-exhaustiveness, reason = "total fallback, not a drop: every unmatched variant still renders as a Perfetto instant event")
            _ => {
                let _ = write!(
                    line,
                    "{{\"name\":\"{kind}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts},\"pid\":{PID},\"tid\":{tid},\"args\":{{{args}}}}}"
                );
            }
        }
        push(&mut out, &line);
        // Flow arrow along the cause link (resolvable links only; a
        // dangling link has no source coordinates to anchor to). The
        // flow id is the effect's event id — unique per run.
        if let Some(link) = rec.cause {
            if let Some(parent) = graph.record(link.id) {
                let ptid = track_of(&parent.ev);
                let pts = ts_us(parent.t);
                push(
                    &mut out,
                    &format!(
                        "{{\"name\":\"{}\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":{},\
                         \"ts\":{pts},\"pid\":{PID},\"tid\":{ptid}}}",
                        link.kind.as_str(),
                        rec.id.0
                    ),
                );
                push(
                    &mut out,
                    &format!(
                        "{{\"name\":\"{}\",\"cat\":\"cause\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{},\"ts\":{ts},\"pid\":{PID},\"tid\":{tid}}}",
                        link.kind.as_str(),
                        rec.id.0
                    ),
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Runs the probe for `id` and returns its report plus the rendered
/// trace JSON. `None` for unknown ids.
pub fn run_trace(id: &str, scale: Scale) -> Option<(Report, String)> {
    let report = run_probe(id, scale)?;
    let json = trace_json(id, &report);
    Some((report, json))
}

/// Validates the probe's telemetry and writes `DIR/<id>.trace.json`
/// (creating `DIR` if missing). Returns the path and the number of flow
/// arrows written.
///
/// # Errors
///
/// I/O errors, plus a synthesized [`io::ErrorKind::InvalidData`] error
/// when the probe's events fail [`validate_events`] (which now includes
/// the provenance-DAG checks the flows are drawn from).
pub fn write_trace_file(dir: &Path, id: &str, report: &Report) -> io::Result<(PathBuf, usize)> {
    validate_events(report)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("probe {id}: {e}")))?;
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.trace.json"));
    fs::write(&path, trace_json(id, report))?;
    let flows = ProvenanceGraph::build(report.events.events()).edge_count();
    Ok((path, flows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::emit_record;

    /// Minimal Chrome trace-event schema validation, exploiting the
    /// writer's line-oriented layout (one entry per line inside `[` … `]`).
    /// Returns `(line, message)` pairs. Not a JSON parser: CI's trace
    /// smoke loads an export with Python's `json.load`.
    fn validate_perfetto(text: &str) -> Vec<(u32, String)> {
        let mut errors = Vec::new();
        let mut flow_starts: Vec<String> = Vec::new();
        let mut flow_ends: Vec<String> = Vec::new();
        let trimmed = text.trim();
        if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
            return vec![(1, "trace is not a JSON array".into())];
        }
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let entry = raw.trim().trim_end_matches(',');
            if entry.is_empty() || entry == "[" || entry == "]" {
                continue;
            }
            if !entry.starts_with('{') || !entry.ends_with('}') {
                errors.push((line_no, "trace entry is not one object per line".into()));
                continue;
            }
            let field = |name: &str| -> Option<String> {
                let pat = format!("\"{name}\":");
                let start = entry.find(&pat)? + pat.len();
                let rest = &entry[start..];
                Some(if let Some(quoted) = rest.strip_prefix('"') {
                    quoted.chars().take_while(|&c| c != '"').collect()
                } else {
                    rest.chars().take_while(|&c| c != ',' && c != '}').collect()
                })
            };
            for required in ["name", "ph", "pid", "tid"] {
                if field(required).is_none() {
                    errors.push((line_no, format!("trace entry is missing `{required}`")));
                }
            }
            let Some(ph) = field("ph") else { continue };
            match ph.as_str() {
                "M" => {}
                "X" => {
                    if field("dur").is_none() {
                        errors.push((line_no, "duration slice (`ph`:`X`) is missing `dur`".into()));
                    }
                }
                "i" => {} // instants only need the shared `ts` check below
                "s" | "f" => match field("id") {
                    Some(id) => {
                        if ph == "s" {
                            flow_starts.push(id);
                        } else {
                            if field("bp") != Some("e".into()) {
                                errors.push((
                                    line_no,
                                    "flow finish (`ph`:`f`) is missing `\"bp\":\"e\"`".into(),
                                ));
                            }
                            flow_ends.push(id);
                        }
                    }
                    None => {
                        errors.push((line_no, format!("flow event (`ph`:`{ph}`) is missing `id`")))
                    }
                },
                other => errors.push((line_no, format!("unknown trace phase letter `{other}`"))),
            }
            if ph != "M" && field("ts").is_none() {
                errors.push((line_no, format!("`ph`:`{ph}` entry is missing `ts`")));
            }
        }
        flow_starts.sort();
        flow_ends.sort();
        if flow_starts != flow_ends {
            errors.push((
                1,
                format!(
                    "flow starts and finishes do not pair up ({} starts, {} finishes)",
                    flow_starts.len(),
                    flow_ends.len()
                ),
            ));
        }
        errors
    }

    fn sample_report() -> Report {
        let mut r = Report::default();
        let mut next_id = 0;
        r.fault_activations = 1;
        r.fault_detections = 1;
        r.tests_completed = 1;
        r.cores_suspected = 1;
        let fault = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.10,
            None,
            SimEvent::FaultActivated { core: 3 },
        );
        let launch = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.15,
            None,
            SimEvent::TestLaunched {
                core: 3,
                routine: 0,
                level: 2,
                power: 0.4,
                headroom: 4.0,
            },
        );
        let detect = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.30,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core: 3, latency: 0.20 },
        );
        let completed = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.30,
            Some(CauseLink::new(CauseKind::Session, launch)),
            SimEvent::TestCompleted {
                core: 3,
                routine: 0,
                level: 2,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        let _ = (detect, completed);
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.30,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core: 3, level: 2 },
        );
        r
    }

    #[test]
    fn trace_is_valid_json_shape_with_flows() {
        let r = sample_report();
        let json = trace_json("t1", &r);
        assert!(json.starts_with("[\n"), "array open");
        assert!(json.ends_with("\n]\n"), "array close");
        // 3 resolvable links -> 3 flow starts and 3 finishes.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 3);
        // The session became one duration slice with its outcome.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"outcome\":\"completed\""));
        assert!(json.contains("\"dur\":150000.000"));
        // Track metadata names the core and phase tracks.
        assert!(json.contains("\"name\":\"core 3\""));
        assert!(json.contains("\"name\":\"phase: pid\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
        assert_eq!(validate_perfetto(&json), []);
    }

    #[test]
    fn validate_perfetto_flags_malformed_entries_and_unpaired_flows() {
        // An unmatched flow start, an X slice without dur, and a bogus
        // phase letter; the well-formed entries draw no findings.
        let text = "[\n\
            {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}},\n\
            {\"name\":\"FaultActivated\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":100.000,\"pid\":1,\"tid\":103,\"args\":{\"core\":3}},\n\
            {\"name\":\"TestLaunched\",\"cat\":\"session\",\"ph\":\"X\",\"ts\":150.000,\"pid\":1,\"tid\":103},\n\
            {\"name\":\"activation\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":2,\"ts\":100.000,\"pid\":1,\"tid\":103},\n\
            {\"name\":\"oops\",\"ph\":\"q\",\"ts\":1.000,\"pid\":1,\"tid\":1}\n\
            ]\n";
        let findings = validate_perfetto(text);
        let lines: Vec<u32> = findings.iter().map(|&(line, _)| line).collect();
        assert_eq!(lines, [4, 6, 1], "{findings:?}");
        assert!(findings[0].1.contains("missing `dur`"), "{findings:?}");
        assert!(
            findings[1].1.contains("unknown trace phase letter `q`"),
            "{findings:?}"
        );
        assert!(findings[2].1.contains("do not pair up"), "{findings:?}");
    }

    #[test]
    fn quick_probe_traces_match_the_perfetto_schema() {
        for id in ["e3", "e11", "e12"] {
            let (report, json) = run_trace(id, Scale::Quick).expect("a probe id");
            assert_eq!(validate_perfetto(&json), [], "{id}");
            let flows = json.matches("\"ph\":\"s\"").count();
            let links = ProvenanceGraph::build(report.events.events()).edge_count();
            assert!(flows > 0, "{id}: no flow arrows");
            assert_eq!(flows, links, "{id}: one arrow per resolvable cause link");
        }
    }

    #[test]
    fn trace_is_a_pure_function_of_the_log() {
        let a = trace_json("t1", &sample_report());
        let b = trace_json("t1", &sample_report());
        assert_eq!(a, b);
    }
}
