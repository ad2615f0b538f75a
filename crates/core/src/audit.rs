//! Consistency checks between captured telemetry and report aggregates.
//!
//! Every decision the control loop makes is double-entried: once as a
//! structured [`manytest_sim::SimEvent`] and once in the aggregate
//! counters the report is built from. [`validate_events`] reconciles the
//! two — if a count diverges, either an emission point is missing/doubled
//! or an aggregate is wrong, and both are bugs worth failing a CI run
//! over. The event log keeps per-kind counts exact even when its sample
//! buffer saturates, so these invariants hold at any capture capacity.

use crate::metrics::Report;
use manytest_sim::{HealthCode, ProvenanceGraph, SimEvent};
use std::fmt::Write as _;

/// Checks every event-count invariant against the report's aggregates.
///
/// Invariants (exact equalities unless noted):
///
/// * `TestLaunched == tests_completed + tests_aborted + tests_in_flight`
/// * `TestCompleted == tests_completed`, `TestAborted == tests_aborted`
/// * `TestDeniedPower == tests_denied_power`
/// * `AppArrived == apps_arrived`, `AppRejected == apps_rejected`,
///   `AppCompleted == apps_completed`
/// * `AppMapped == apps_completed + apps_in_flight − apps_pending +
///   apps_aborted + apps_restarted` (every mapping either runs to
///   completion, is still in flight, was killed by a quarantine, or was a
///   first placement of an app that later restarted and was mapped again)
/// * `CapAdjusted == cap_adjustments` (one governor move per epoch)
/// * `FaultActivated == fault_activations` (occurrences)
/// * `FaultDetected == fault_detections` (occurrences, not end-state)
/// * Response pipeline: `CoreSuspected == cores_suspected`,
///   `CoreQuarantined == cores_quarantined`, `CoreCleared ==
///   cores_cleared`, `AppAborted == apps_aborted`, `AppRestarted ==
///   apps_restarted`, `AppMigrated == apps_migrated`, and the inequality
///   `CoreSuspected >= CoreQuarantined + CoreCleared` (a suspicion may
///   still be open at the end of the run)
/// * Re-admission lane: `CoreProbeLaunched == probes_launched`,
///   `CoreReadmitted == cores_readmitted`, `CoreRequarantined ==
///   cores_requarantined`, and the inequality `CoreReadmitted <=
///   CoreQuarantined + CoreRequarantined` (every re-admission was
///   preceded by some quarantine entry)
/// * `AppCheckpointed == apps_checkpointed`
/// * Sequence invariant (checked only when no events were dropped): after
///   a core's `CoreQuarantined` event, no `TestLaunched` targets it and no
///   `AppMapped` places task 0 on it until a `CoreReadmitted` restores the
///   core — probation is not enough. A withdrawn core stays power-gated
///   except while a probe session is live on it, every probe targets a
///   core that was actually quarantined, and no probe's recorded
///   in-flight count exceeds the lane budget.
/// * Provenance DAG: event ids are strictly increasing and times
///   non-decreasing, and every cause link points strictly backwards
///   (`cause.id < id`), which proves the graph acyclic and time-ordered
///   even when the bounded log saturated. When no events were dropped,
///   additionally: every link resolves to a stored record, every link's
///   endpoint kinds match the [`manytest_sim::CauseKind`] table, every
///   kind outside [`SimEvent::ROOT_KINDS`] carries a cause, and every
///   quarantine/readmission/requarantine/migration/denial/abort/restart
///   chains back to a genuine root. Under saturation the resolution checks are downgraded
///   (dropped records would orphan links spuriously).
///
/// # Errors
///
/// Returns one line per violated invariant, joined with newlines. A
/// report with no captured events (the default) trivially passes only if
/// its aggregates are all zero-consistent — call this on runs built with
/// `SystemBuilder::capture_events`.
pub fn validate_events(report: &Report) -> Result<(), String> {
    let ev = &report.events;
    let launched = report.tests_completed + report.tests_aborted + report.tests_in_flight;
    let mapped = report.apps_completed + report.apps_in_flight - report.apps_pending
        + report.apps_aborted
        + report.apps_restarted;
    // Each row: an event kind, the report aggregate its count must equal
    // (as named in the invariant), and that aggregate's value.
    let checks: [(&str, &str, u64); 21] = [
        ("CapAdjusted", "cap_adjustments", report.cap_adjustments),
        ("FaultActivated", "fault_activations", report.fault_activations),
        ("TestLaunched", "tests_completed + tests_aborted + tests_in_flight", launched),
        ("TestCompleted", "tests_completed", report.tests_completed),
        ("TestAborted", "tests_aborted", report.tests_aborted),
        ("TestDeniedPower", "tests_denied_power", report.tests_denied_power),
        ("AppArrived", "apps_arrived", report.apps_arrived),
        ("AppRejected", "apps_rejected", report.apps_rejected),
        ("AppCompleted", "apps_completed", report.apps_completed),
        (
            "AppMapped",
            "apps_completed + apps_in_flight - apps_pending + apps_aborted + apps_restarted",
            mapped,
        ),
        ("FaultDetected", "fault_detections", report.fault_detections),
        ("CoreSuspected", "cores_suspected", report.cores_suspected),
        ("CoreQuarantined", "cores_quarantined", report.cores_quarantined),
        ("CoreCleared", "cores_cleared", report.cores_cleared),
        ("AppAborted", "apps_aborted", report.apps_aborted),
        ("AppRestarted", "apps_restarted", report.apps_restarted),
        ("AppMigrated", "apps_migrated", report.apps_migrated),
        ("CoreProbeLaunched", "probes_launched", report.probes_launched),
        ("CoreReadmitted", "cores_readmitted", report.cores_readmitted),
        ("CoreRequarantined", "cores_requarantined", report.cores_requarantined),
        ("AppCheckpointed", "apps_checkpointed", report.apps_checkpointed),
    ];
    let mut errors = String::new();
    for (kind, aggregate, from_report) in checks {
        let from_events = ev.count(kind);
        if from_events != from_report {
            let _ = writeln!(
                errors,
                "event-count invariant violated: {kind} == {aggregate} \
                 (events say {from_events}, report says {from_report})"
            );
        }
    }
    let (suspected, quarantined, cleared) = (
        ev.count("CoreSuspected"),
        ev.count("CoreQuarantined"),
        ev.count("CoreCleared"),
    );
    if suspected < quarantined + cleared {
        let _ = writeln!(
            errors,
            "event-count invariant violated: CoreSuspected >= CoreQuarantined + CoreCleared \
             ({suspected} < {quarantined} + {cleared})"
        );
    }
    // Every re-admission was preceded by some quarantine entry (first or
    // repeat), so readmissions can never outnumber quarantine entries.
    let (readmitted, requarantined) = (
        ev.count("CoreReadmitted"),
        ev.count("CoreRequarantined"),
    );
    if readmitted > quarantined + requarantined {
        let _ = writeln!(
            errors,
            "event-count invariant violated: \
             CoreReadmitted <= CoreQuarantined + CoreRequarantined \
             ({readmitted} > {quarantined} + {requarantined})"
        );
    }
    // The sequence invariant needs the complete sample stream, not just
    // counts; skip it (honestly) when the bounded log overflowed.
    if ev.dropped() == 0 {
        validate_quarantine_sequence(report, &mut errors);
    }
    validate_provenance(report, &mut errors);
    validate_profile(report, &mut errors);
    validate_state_timeline(report, &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.trim_end().to_owned())
    }
}

/// Reconciles the deterministic phase profile against the report's
/// aggregates. The profiler counts decisions at the point they are made,
/// the aggregates count them at the point they are recorded; any drift
/// means an instrumentation point is missing or doubled. Skipped when
/// the profile is empty (hand-built reports never ran the control loop).
fn validate_profile(report: &Report, errors: &mut String) {
    let p = &report.profile;
    if p.epochs == 0 {
        return;
    }
    let launched = report.tests_completed + report.tests_aborted + report.tests_in_flight;
    let mapped = report.apps_completed + report.apps_in_flight - report.apps_pending
        + report.apps_aborted
        + report.apps_restarted;
    let checks: [(&str, u64, u64); 7] = [
        (
            "profile.epochs == cap_adjustments",
            p.epochs,
            report.cap_adjustments,
        ),
        (
            "profile.pid_updates == cap_adjustments",
            p.pid_updates,
            report.cap_adjustments,
        ),
        (
            "profile.fault_sweeps == profile.epochs",
            p.fault_sweeps,
            p.epochs,
        ),
        (
            "profile.fault_activations == fault_activations",
            p.fault_activations,
            report.fault_activations,
        ),
        (
            "profile.sched_denials == tests_denied_power",
            p.sched_denials,
            report.tests_denied_power,
        ),
        (
            "profile.sched_launches == tests_completed + tests_aborted + tests_in_flight",
            p.sched_launches,
            launched,
        ),
        (
            "profile.apps_admitted == apps_completed + apps_in_flight - apps_pending \
             + apps_aborted + apps_restarted",
            p.apps_admitted,
            mapped,
        ),
    ];
    for (invariant, lhs, rhs) in checks {
        if lhs != rhs {
            let _ = writeln!(
                errors,
                "profile invariant violated: {invariant} ({lhs} != {rhs})"
            );
        }
    }
    if p.retests_planned < report.confirmation_retests {
        let _ = writeln!(
            errors,
            "profile invariant violated: retests_planned >= confirmation_retests \
             ({} < {})",
            p.retests_planned, report.confirmation_retests
        );
    }
    // Incremental-structure counters. Every launch came off the ranked
    // heap or the retest lane; the map context is built at most once per
    // admission scan plus once per migration; every admission queried the
    // maintained free-core count and patched the context in place.
    let incremental: [(&str, u64, u64); 4] = [
        (
            "sched_launches <= heap_pops + retests_planned",
            p.sched_launches,
            p.heap_pops + p.retests_planned,
        ),
        (
            "ctx_rebuilds <= admit_scans + apps_migrated",
            p.ctx_rebuilds,
            p.admit_scans + report.apps_migrated,
        ),
        (
            "apps_admitted <= free_set_queries",
            p.apps_admitted,
            p.free_set_queries,
        ),
        (
            "apps_admitted <= ctx_delta_updates",
            p.apps_admitted,
            p.ctx_delta_updates,
        ),
    ];
    for (invariant, lhs, rhs) in incremental {
        if lhs > rhs {
            let _ = writeln!(
                errors,
                "profile invariant violated: {invariant} ({lhs} > {rhs})"
            );
        }
    }
    // Per-epoch phases either never ran (feature off) or ran every epoch.
    for (name, count) in [
        ("thermal_steps", p.thermal_steps),
        ("snapshots", p.snapshots),
        ("sched_calls", p.sched_calls),
        ("admit_scans", p.admit_scans),
    ] {
        if count != 0 && count != p.epochs {
            let _ = writeln!(
                errors,
                "profile invariant violated: {name} in {{0, epochs}} \
                 ({count} != 0 and != {})",
                p.epochs
            );
        }
    }
}

/// Reconciles the flight-recorder timeline against the report: the final
/// snapshot is always retained exactly (never decimated away), so its
/// queue depths and health tallies must match the end-of-run aggregates,
/// and the recorder's offer count must match the profiler's.
fn validate_state_timeline(report: &Report, errors: &mut String) {
    let state = &report.state;
    if state.is_empty() {
        return;
    }
    if state.seen() != report.profile.snapshots {
        let _ = writeln!(
            errors,
            "state invariant violated: recorder saw {} snapshots, profiler counted {}",
            state.seen(),
            report.profile.snapshots
        );
    }
    let Some(last) = state.last() else { return };
    let healthy = last
        .cores
        .iter()
        .filter(|c| c.health == HealthCode::Healthy)
        .count() as u64;
    let checks: [(&str, u64, u64); 3] = [
        (
            "last snapshot pending_apps == apps_pending",
            u64::from(last.pending_apps),
            report.apps_pending,
        ),
        (
            "last snapshot active_tests == tests_in_flight",
            u64::from(last.active_tests),
            report.tests_in_flight,
        ),
        (
            "last snapshot healthy cores == healthy_cores_end",
            healthy,
            report.healthy_cores_end,
        ),
    ];
    for (invariant, lhs, rhs) in checks {
        if lhs != rhs {
            let _ = writeln!(
                errors,
                "state invariant violated: {invariant} ({lhs} != {rhs})"
            );
        }
    }
}

/// Scans the event stream for lifecycle violations on withdrawn cores.
///
/// Once a core's `CoreQuarantined` event is emitted, any `TestLaunched`
/// on it or `AppMapped` placing task 0 on it is a response-pipeline bug
/// until a `CoreReadmitted` restores it — probation is *not* enough; the
/// core stays unmappable until the re-admission lane signs off. Power is
/// subtler: a withdrawn core is gated except while a probe session is
/// live on it (`CoreProbeLaunched` .. verdict), when the lane clocks it
/// at the probe level. Additionally each `CoreProbeLaunched` must target
/// a core that is actually withdrawn, and its recorded in-flight count
/// must never exceed the lane budget the report echoes.
fn validate_quarantine_sequence(report: &Report, errors: &mut String) {
    let mesh_nodes = report
        .events
        .events()
        .iter()
        .map(|rec| match rec.ev {
            SimEvent::CoreQuarantined { core, .. }
            | SimEvent::CoreProbeLaunched { core, .. }
            | SimEvent::CoreReadmitted { core, .. }
            | SimEvent::CoreRequarantined { core, .. }
            | SimEvent::TestLaunched { core, .. }
            | SimEvent::DvfsTransition { core, .. } => core as usize + 1,
            // lint:allow(event-match-exhaustiveness, reason = "subset contract: mesh-size inference only reads core-bearing variants; core-free events contribute 0")
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    if mesh_nodes == 0 {
        return;
    }
    let mut quarantined = vec![false; mesh_nodes];
    let mut probing = vec![false; mesh_nodes];
    for rec in report.events.events() {
        let (t, ev) = (rec.t, rec.ev);
        match ev {
            SimEvent::CoreQuarantined { core, .. } => {
                quarantined[core as usize] = true;
                probing[core as usize] = false;
            }
            SimEvent::CoreProbeLaunched { core, inflight, .. } => {
                if !quarantined[core as usize] {
                    let _ = writeln!(
                        errors,
                        "sequence invariant violated: probe launched on \
                         never-quarantined core {core} at t={t}"
                    );
                }
                if report.probe_budget > 0 && u64::from(inflight) > report.probe_budget {
                    let _ = writeln!(
                        errors,
                        "sequence invariant violated: probe on core {core} at t={t} \
                         reports {inflight} sessions in flight, lane budget is {}",
                        report.probe_budget
                    );
                }
                probing[core as usize] = true;
            }
            SimEvent::CoreReadmitted { core, .. } => {
                if !quarantined[core as usize] {
                    let _ = writeln!(
                        errors,
                        "sequence invariant violated: CoreReadmitted for \
                         never-quarantined core {core} at t={t}"
                    );
                }
                quarantined[core as usize] = false;
                probing[core as usize] = false;
            }
            SimEvent::CoreRequarantined { core, .. } => {
                quarantined[core as usize] = true;
                probing[core as usize] = false;
            }
            SimEvent::TestLaunched { core, .. } if quarantined[core as usize] => {
                let _ = writeln!(
                    errors,
                    "sequence invariant violated: TestLaunched on quarantined core {core} at t={t}"
                );
            }
            SimEvent::AppMapped { first_node, .. }
                if (first_node as usize) < mesh_nodes && quarantined[first_node as usize] =>
            {
                let _ = writeln!(
                    errors,
                    "sequence invariant violated: AppMapped onto quarantined core {first_node} at t={t}"
                );
            }
            SimEvent::DvfsTransition { core, to, .. }
                if to >= 0 && quarantined[core as usize] && !probing[core as usize] =>
            {
                let _ = writeln!(
                    errors,
                    "sequence invariant violated: quarantined core {core} powered back on at t={t}"
                );
            }
            // lint:allow(event-match-exhaustiveness, reason = "subset contract: the sequence checker only constrains quarantine/power ordering; other events are order-free")
            _ => {}
        }
    }
}

/// Validates the event stream as a provenance DAG.
///
/// Monotonicity (strictly increasing ids, non-decreasing times, every
/// cause id strictly below its effect's id) survives saturation: the
/// bounded log drops records but never reorders them, so these hold on
/// any suffix/sample of the emission stream — and together they prove the
/// graph acyclic and time-ordered. Link *resolution* does not survive
/// saturation (a dropped record orphans its children's links), so the
/// table-conformance, required-cause and root-reachability checks run
/// only when `dropped == 0`.
fn validate_provenance(report: &Report, errors: &mut String) {
    let recs = report.events.events();
    let mut last_id: Option<u64> = None;
    let mut last_t = f64::NEG_INFINITY;
    for rec in recs {
        if let Some(prev) = last_id {
            if rec.id.0 <= prev {
                let _ = writeln!(
                    errors,
                    "provenance invariant violated: event ids must be strictly increasing \
                     (#{} follows #{prev})",
                    rec.id.0
                );
            }
        }
        if rec.t < last_t {
            let _ = writeln!(
                errors,
                "provenance invariant violated: event times must be non-decreasing \
                 (t={} after t={last_t} at #{})",
                rec.t, rec.id.0
            );
        }
        last_id = Some(rec.id.0);
        last_t = rec.t;
        if let Some(link) = rec.cause {
            if link.id.0 >= rec.id.0 {
                let _ = writeln!(
                    errors,
                    "provenance invariant violated: cause must precede effect \
                     ({} #{} links to #{})",
                    rec.ev.kind(),
                    rec.id.0,
                    link.id.0
                );
            }
        }
    }
    if report.events.dropped() > 0 {
        return;
    }
    let graph = ProvenanceGraph::build(recs);
    for rec in recs {
        let kind = rec.ev.kind();
        match rec.cause {
            Some(link) => match graph.record(link.id) {
                Some(parent) => {
                    let (sources, targets) = link.kind.expected();
                    if !sources.contains(&parent.ev.kind()) || !targets.contains(&kind) {
                        let _ = writeln!(
                            errors,
                            "provenance invariant violated: link table forbids \
                             {} -[{}]-> {} (#{} -> #{})",
                            parent.ev.kind(),
                            link.kind.as_str(),
                            kind,
                            link.id.0,
                            rec.id.0
                        );
                    }
                }
                None => {
                    let _ = writeln!(
                        errors,
                        "provenance invariant violated: {} #{} carries a dangling \
                         cause link to #{} (no drop recorded)",
                        kind, rec.id.0, link.id.0
                    );
                }
            },
            None => {
                if SimEvent::cause_required(rec.ev.kind_index()) {
                    let _ = writeln!(
                        errors,
                        "provenance invariant violated: {} #{} must carry a cause link",
                        kind, rec.id.0
                    );
                }
            }
        }
    }
    // Every response-pipeline outcome must chain back to a genuine root:
    // "why was this core withdrawn / this app killed / this test denied"
    // always has an answer.
    for rec in recs {
        let traced = matches!(
            rec.ev,
            SimEvent::CoreQuarantined { .. }
                | SimEvent::CoreReadmitted { .. }
                | SimEvent::CoreRequarantined { .. }
                | SimEvent::AppMigrated { .. }
                | SimEvent::AppAborted { .. }
                | SimEvent::AppRestarted { .. }
                | SimEvent::TestDeniedPower { .. }
        );
        if !traced {
            continue;
        }
        let chain = graph.chain_to_root(rec.id);
        let Some(&root) = chain.last() else {
            continue; // unreachable: the chain contains the record itself
        };
        if !SimEvent::ROOT_KINDS.contains(&root.ev.kind()) {
            let _ = writeln!(
                errors,
                "provenance invariant violated: {} #{} is not reachable from a root \
                 (chain stops at {} #{})",
                rec.ev.kind(),
                rec.id.0,
                root.ev.kind(),
                root.id.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::{emit_record, CauseKind, CauseLink, EventId, EventRecord, SimEvent};

    #[test]
    fn empty_report_passes() {
        validate_events(&Report::default()).expect("all-zero report reconciles");
    }

    #[test]
    fn consistent_counts_pass() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.tests_completed = 2;
        r.tests_aborted = 1;
        r.apps_arrived = 1;
        let mut launches = Vec::new();
        for _ in 0..3 {
            launches.push(emit_record(
                Some(&mut r.events),
                &mut next_id,
                0.0,
                None,
                SimEvent::TestLaunched {
                    core: 0,
                    routine: 0,
                    level: 0,
                    power: 1.0,
                    headroom: 1.0,
                },
            ));
        }
        for &launch in &launches[..2] {
            emit_record(
                Some(&mut r.events),
                &mut next_id,
                0.0,
                Some(CauseLink::new(CauseKind::Session, launch)),
                SimEvent::TestCompleted {
                    core: 0,
                    routine: 0,
                    level: 0,
                    covered_levels: 1,
                    interval: -1.0,
                },
            );
        }
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.0,
            Some(CauseLink::new(CauseKind::Session, launches[2])),
            SimEvent::TestAborted {
                core: 0,
                reason: manytest_sim::AbortReason::MappedOver,
            },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.0,
            None,
            SimEvent::AppArrived { app: 0, tasks: 1 },
        );
        validate_events(&r).expect("consistent counts");
    }

    #[test]
    fn divergent_counts_name_the_invariant() {
        let mut r = Report::default();
        let mut next_id = 0;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.0,
            None,
            SimEvent::AppArrived { app: 0, tasks: 1 },
        );
        // apps_arrived stays 0 → mismatch.
        let err = validate_events(&r).unwrap_err();
        assert!(err.contains("AppArrived == apps_arrived"), "got: {err}");
        assert!(err.contains("events say 1, report says 0"), "got: {err}");
    }

    #[test]
    fn response_pipeline_counts_reconcile() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.apps_arrived = 1;
        r.cores_suspected = 2;
        r.cores_quarantined = 1;
        r.cores_cleared = 1;
        r.apps_restarted = 1;
        r.fault_activations = 1;
        r.fault_detections = 1;
        r.tests_completed = 2;
        // The restarted app was mapped once before its restart; its
        // second placement is still pending, so AppMapped totals 1.
        let arrived = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.01,
            None,
            SimEvent::AppArrived { app: 7, tasks: 2 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.05,
            Some(CauseLink::new(CauseKind::Arrival, arrived)),
            SimEvent::AppMapped {
                app: 7,
                tasks: 2,
                first_node: 3,
                region_w: 1,
                region_h: 2,
                level: 1,
                hop_cost: 1.0,
                queue_wait: 0.0,
                headroom: 5.0,
            },
        );
        let fault = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.08,
            None,
            SimEvent::FaultActivated { core: 3 },
        );
        let launch = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.09,
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
            0.1,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core: 3, latency: 0.1 },
        );
        let completed = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            Some(CauseLink::new(CauseKind::Session, launch)),
            SimEvent::TestCompleted {
                core: 3,
                routine: 0,
                level: 2,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        let suspect = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core: 3, level: 2 },
        );
        // A false alarm on a second core, later cleared by its retests.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::FalseAlarm, completed)),
            SimEvent::CoreSuspected { core: 5, level: 0 },
        );
        // The confirmation retest the priority lane plans for the suspect.
        let retest = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.25,
            Some(CauseLink::new(CauseKind::RetestLane, suspect)),
            SimEvent::TestLaunched {
                core: 3,
                routine: 0,
                level: 2,
                power: 0.4,
                headroom: 4.0,
            },
        );
        let verdict = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.28,
            Some(CauseLink::new(CauseKind::Session, retest)),
            SimEvent::TestCompleted {
                core: 3,
                routine: 0,
                level: 2,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        let q = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.3,
            Some(CauseLink::new(CauseKind::RetestFailed, verdict)),
            SimEvent::CoreQuarantined { core: 3, retests: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.3,
            Some(CauseLink::new(CauseKind::Quarantine, q)),
            SimEvent::AppRestarted { app: 7, core: 3 },
        );
        r.apps_pending = 1;
        r.apps_in_flight = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.4,
            Some(CauseLink::new(CauseKind::RetestPassed, completed)),
            SimEvent::CoreCleared { core: 5, retests: 3 },
        );
        validate_events(&r).expect("consistent response pipeline");
    }

    #[test]
    fn suspicion_inequality_is_enforced() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.cores_quarantined = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.3,
            None,
            SimEvent::CoreQuarantined { core: 3, retests: 0 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("CoreSuspected >= CoreQuarantined + CoreCleared"),
            "got: {err}"
        );
    }

    #[test]
    fn activity_on_a_quarantined_core_is_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.cores_suspected = 1;
        r.cores_quarantined = 1;
        r.tests_completed = 0;
        r.tests_in_flight = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            None,
            SimEvent::CoreSuspected { core: 2, level: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            None,
            SimEvent::CoreQuarantined { core: 2, retests: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.3,
            None,
            SimEvent::TestLaunched {
                core: 2,
                routine: 0,
                level: 1,
                power: 0.2,
                headroom: 4.0,
            },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("TestLaunched on quarantined core 2"),
            "got: {err}"
        );

        // Powering the core back on is flagged too; gating (to = −1) is not.
        let mut r = Report::default();
        let mut next_id = 0;
        r.cores_suspected = 1;
        r.cores_quarantined = 1;
        r.fault_activations = 1;
        r.fault_detections = 1;
        r.tests_completed = 1;
        let fault = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.05,
            None,
            SimEvent::FaultActivated { core: 4 },
        );
        let detect = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.08,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core: 4, latency: 0.03 },
        );
        let suspect = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core: 4, level: 0 },
        );
        // The confirmation retest the priority lane plans for the suspect.
        let retest = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.12,
            Some(CauseLink::new(CauseKind::RetestLane, suspect)),
            SimEvent::TestLaunched {
                core: 4,
                routine: 0,
                level: 0,
                power: 0.4,
                headroom: 4.0,
            },
        );
        let verdict = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.15,
            Some(CauseLink::new(CauseKind::Session, retest)),
            SimEvent::TestCompleted {
                core: 4,
                routine: 0,
                level: 0,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::RetestFailed, verdict)),
            SimEvent::CoreQuarantined { core: 4, retests: 2 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            None,
            SimEvent::DvfsTransition { core: 4, from: 3, to: -1 },
        );
        validate_events(&r).expect("gating a quarantined core is fine");
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.5,
            None,
            SimEvent::DvfsTransition { core: 4, from: -1, to: 2 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("quarantined core 4 powered back on"),
            "got: {err}"
        );
    }

    #[test]
    fn missing_cause_on_a_required_kind_is_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.fault_detections = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            None,
            SimEvent::FaultDetected { core: 2, latency: 0.05 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("FaultDetected #0 must carry a cause link"),
            "got: {err}"
        );
    }

    #[test]
    fn link_table_violations_are_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.fault_activations = 1;
        r.cores_suspected = 1;
        let fault = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            None,
            SimEvent::FaultActivated { core: 2 },
        );
        // Activation links terminate at FaultDetected, never CoreSuspected.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::CoreSuspected { core: 2, level: 1 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("link table forbids FaultActivated -[activation]-> CoreSuspected"),
            "got: {err}"
        );
    }

    #[test]
    fn forward_and_dangling_links_are_flagged() {
        let mut r = Report::default();
        r.cap_adjustments = 1;
        r.tests_denied_power = 1;
        // A forward link (cause id >= effect id) breaks acyclicity.
        r.events.push_record(EventRecord {
            id: EventId(0),
            t: 0.1,
            cause: Some(CauseLink::new(CauseKind::CapMove, EventId(5))),
            ev: SimEvent::TestDeniedPower {
                core: 1,
                needed: 2.0,
                headroom: 1.0,
            },
        });
        r.events.push_record(EventRecord {
            id: EventId(5),
            t: 0.1,
            cause: None,
            ev: SimEvent::CapAdjusted {
                cap: 10.0,
                measured: 9.0,
                headroom: 1.0,
                reservations: 0,
            },
        });
        let err = validate_events(&r).unwrap_err();
        assert!(err.contains("cause must precede effect"), "got: {err}");

        // A dangling link (id never stored, nothing dropped) is flagged.
        let mut r = Report::default();
        let mut next_id = 0;
        r.tests_denied_power = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            Some(CauseLink::new(CauseKind::CapMove, EventId(77))),
            SimEvent::TestDeniedPower {
                core: 1,
                needed: 2.0,
                headroom: 1.0,
            },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("dangling cause link to #77"),
            "got: {err}"
        );
    }

    /// Pushes a fully-caused fault → detect → suspect → retest →
    /// quarantine chain for `core` and bumps the matching aggregates;
    /// returns the `CoreQuarantined` event id for probe-lane links.
    fn quarantined(r: &mut Report, next_id: &mut u64, core: u32, t: f64) -> EventId {
        r.fault_activations += 1;
        r.fault_detections += 1;
        r.cores_suspected += 1;
        r.cores_quarantined += 1;
        r.tests_completed += 1;
        let fault =
            emit_record(Some(&mut r.events), next_id, t, None, SimEvent::FaultActivated { core });
        let detect = emit_record(
            Some(&mut r.events),
            next_id,
            t,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core, latency: 0.01 },
        );
        let suspect = emit_record(
            Some(&mut r.events),
            next_id,
            t,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core, level: 1 },
        );
        // The confirmation retest the priority lane plans for the suspect.
        let retest = emit_record(
            Some(&mut r.events),
            next_id,
            t,
            Some(CauseLink::new(CauseKind::RetestLane, suspect)),
            SimEvent::TestLaunched {
                core,
                routine: 0,
                level: 1,
                power: 0.4,
                headroom: 4.0,
            },
        );
        let verdict = emit_record(
            Some(&mut r.events),
            next_id,
            t,
            Some(CauseLink::new(CauseKind::Session, retest)),
            SimEvent::TestCompleted {
                core,
                routine: 0,
                level: 1,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        emit_record(
            Some(&mut r.events),
            next_id,
            t,
            Some(CauseLink::new(CauseKind::RetestFailed, verdict)),
            SimEvent::CoreQuarantined { core, retests: 1 },
        )
    }

    #[test]
    fn full_probe_lifecycle_passes() {
        let mut r = Report::default();
        let mut next_id = 0;
        let q = quarantined(&mut r, &mut next_id, 6, 0.08);
        r.probes_launched = 2;
        r.cores_readmitted = 1;
        r.probe_budget = 2;
        r.tests_in_flight = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.08,
            None,
            SimEvent::DvfsTransition { core: 6, from: 2, to: -1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.12,
            Some(CauseLink::new(CauseKind::ProbeLane, q)),
            SimEvent::CoreProbeLaunched { core: 6, streak: 0, inflight: 1 },
        );
        // The lane clocks the core at the probe level: allowed while probing.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.12,
            None,
            SimEvent::DvfsTransition { core: 6, from: -1, to: 0 },
        );
        let p2 = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.13,
            Some(CauseLink::new(CauseKind::ProbeLane, q)),
            SimEvent::CoreProbeLaunched { core: 6, streak: 1, inflight: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.14,
            Some(CauseLink::new(CauseKind::ProbePassed, p2)),
            SimEvent::CoreReadmitted { core: 6, probes: 2 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.14,
            None,
            SimEvent::DvfsTransition { core: 6, from: 0, to: -1 },
        );
        // Re-admitted: the core may power up and host tests again.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.20,
            None,
            SimEvent::DvfsTransition { core: 6, from: -1, to: 3 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.21,
            None,
            SimEvent::TestLaunched {
                core: 6,
                routine: 0,
                level: 3,
                power: 0.4,
                headroom: 4.0,
            },
        );
        validate_events(&r).expect("full lifecycle audits clean");
    }

    #[test]
    fn requarantine_keeps_the_core_withdrawn() {
        let mut r = Report::default();
        let mut next_id = 0;
        let q = quarantined(&mut r, &mut next_id, 4, 0.1);
        r.probes_launched = 1;
        r.cores_requarantined = 1;
        r.probe_budget = 2;
        let p = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::ProbeLane, q)),
            SimEvent::CoreProbeLaunched { core: 4, streak: 0, inflight: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            None,
            SimEvent::DvfsTransition { core: 4, from: -1, to: 0 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.21,
            Some(CauseLink::new(CauseKind::ProbeFailed, p)),
            SimEvent::CoreRequarantined { core: 4, backoff: 1 },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.21,
            None,
            SimEvent::DvfsTransition { core: 4, from: 0, to: -1 },
        );
        validate_events(&r).expect("failed probation audits clean");
        // Powering the core up after the failed probation is a violation.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.5,
            None,
            SimEvent::DvfsTransition { core: 4, from: -1, to: 2 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("quarantined core 4 powered back on"),
            "got: {err}"
        );
    }

    #[test]
    fn readmission_without_quarantine_is_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.cores_readmitted = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            None,
            SimEvent::CoreReadmitted { core: 9, probes: 3 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("CoreReadmitted for never-quarantined core 9"),
            "got: {err}"
        );
        assert!(
            err.contains("CoreReadmitted <= CoreQuarantined + CoreRequarantined"),
            "got: {err}"
        );
    }

    #[test]
    fn activity_during_probation_is_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        let q = quarantined(&mut r, &mut next_id, 2, 0.1);
        r.probes_launched = 1;
        r.probe_budget = 1;
        r.tests_in_flight = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::ProbeLane, q)),
            SimEvent::CoreProbeLaunched { core: 2, streak: 0, inflight: 1 },
        );
        // Probation is not re-admission: the scheduler must still stay away.
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.25,
            None,
            SimEvent::TestLaunched {
                core: 2,
                routine: 0,
                level: 1,
                power: 0.2,
                headroom: 4.0,
            },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("TestLaunched on quarantined core 2"),
            "got: {err}"
        );
    }

    #[test]
    fn probe_budget_overrun_is_flagged() {
        let mut r = Report::default();
        let mut next_id = 0;
        let q = quarantined(&mut r, &mut next_id, 3, 0.1);
        r.probes_launched = 1;
        r.probe_budget = 1;
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.2,
            Some(CauseLink::new(CauseKind::ProbeLane, q)),
            SimEvent::CoreProbeLaunched { core: 3, streak: 0, inflight: 2 },
        );
        let err = validate_events(&r).unwrap_err();
        assert!(err.contains("lane budget is 1"), "got: {err}");
    }

    #[test]
    fn checkpoint_counts_reconcile() {
        let mut r = Report::default();
        let mut next_id = 0;
        r.apps_arrived = 1;
        r.apps_in_flight = 1;
        r.apps_checkpointed = 1;
        let arrived = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.01,
            None,
            SimEvent::AppArrived { app: 1, tasks: 2 },
        );
        let mapped = emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.02,
            Some(CauseLink::new(CauseKind::Arrival, arrived)),
            SimEvent::AppMapped {
                app: 1,
                tasks: 2,
                first_node: 0,
                region_w: 1,
                region_h: 2,
                level: 1,
                hop_cost: 1.0,
                queue_wait: 0.0,
                headroom: 5.0,
            },
        );
        emit_record(
            Some(&mut r.events),
            &mut next_id,
            0.1,
            Some(CauseLink::new(CauseKind::Checkpoint, mapped)),
            SimEvent::AppCheckpointed { app: 1, tasks: 2, bytes: 2048 },
        );
        validate_events(&r).expect("checkpoint counts reconcile");
        r.apps_checkpointed = 2;
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("AppCheckpointed == apps_checkpointed"),
            "got: {err}"
        );
    }

    #[test]
    fn out_of_order_ids_are_flagged() {
        let mut r = Report::default();
        r.apps_arrived = 2;
        r.events.push_record(EventRecord {
            id: EventId(3),
            t: 0.1,
            cause: None,
            ev: SimEvent::AppArrived { app: 0, tasks: 1 },
        });
        r.events.push_record(EventRecord {
            id: EventId(2),
            t: 0.2,
            cause: None,
            ev: SimEvent::AppArrived { app: 1, tasks: 1 },
        });
        let err = validate_events(&r).unwrap_err();
        assert!(
            err.contains("event ids must be strictly increasing"),
            "got: {err}"
        );
    }
}
