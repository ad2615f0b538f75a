//! Structured decision telemetry: typed events, the event log, counters.
//!
//! End-of-run aggregates tell you *what* a run produced; they cannot tell
//! you *why* — which epoch denied a test for power, what the headroom was
//! at that instant, which application displaced a session. This module is
//! the telemetry backbone: the control loop emits one [`SimEvent`] per
//! decision through [`emit_record`], which mints its [`EventId`] and, when
//! the run captures events, appends it to an [`EventLog`]. Without a log
//! emission only mints the id, so the hot path stays allocation-free.
//!
//! * [`EventLog`] — a bounded in-memory log returned on the report.
//!   Per-kind counts stay **exact** even when the sample buffer is full,
//!   so aggregate invariants can always be checked against the report.
//!   It renders itself as JSON Lines ([`EventLog::write_jsonl`]).
//! * [`CounterRegistry`] — named counters plus fixed-bucket
//!   [`Histogram`]s with deterministic iteration order, for summaries.
//!
//! Events are plain `Copy` data: emitting one never touches the heap, and
//! JSON is rendered only when a consumer asks for it.

use crate::stats::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Why an SBST session was torn down before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// The mapper claimed the core for an arriving application.
    MappedOver,
    /// A task of the core's owning application became ready mid-session.
    TaskPreempted,
}

impl AbortReason {
    /// Stable lower-snake name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::MappedOver => "mapped_over",
            AbortReason::TaskPreempted => "task_preempted",
        }
    }
}

/// One structured decision made by the epoch control loop or resolved in
/// the event plane. Stack-only (`Copy`): constructing and emitting an
/// event allocates nothing.
///
/// Times are *not* part of the payload — the [`EventRecord`] envelope
/// carries the event's timestamp beside it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// An application entered the pending queue.
    AppArrived {
        /// Application id.
        app: u64,
        /// Task count of its graph.
        tasks: u32,
    },
    /// An application can never fit the platform and was dropped.
    AppRejected {
        /// Application id.
        app: u64,
        /// Task count of its graph.
        tasks: u32,
    },
    /// An application was admitted and placed.
    AppMapped {
        /// Application id.
        app: u64,
        /// Task count of its graph.
        tasks: u32,
        /// Dense node index of task 0's core.
        first_node: u32,
        /// Bounding-box width of the mapping, in mesh columns.
        region_w: u16,
        /// Bounding-box height of the mapping, in mesh rows.
        region_h: u16,
        /// DVFS level the app was admitted at.
        level: u8,
        /// Communication-weighted hop cost of the placement.
        hop_cost: f64,
        /// Seconds the app waited in the pending queue.
        queue_wait: f64,
        /// Power headroom left *after* the app's reservation, watts.
        headroom: f64,
    },
    /// An admitted application finished its last task.
    AppCompleted {
        /// Application id.
        app: u64,
        /// Arrival-to-completion latency, seconds.
        latency: f64,
    },
    /// An SBST session started.
    TestLaunched {
        /// Core under test.
        core: u32,
        /// Routine id.
        routine: u16,
        /// DVFS level tested at.
        level: u8,
        /// Reserved session power, watts.
        power: f64,
        /// Headroom left after the reservation, watts.
        headroom: f64,
    },
    /// The scheduler wanted to test a core but the headroom was exhausted.
    TestDeniedPower {
        /// Core that was denied.
        core: u32,
        /// Watts the session would have needed.
        needed: f64,
        /// Watts that were actually left at the denial.
        headroom: f64,
    },
    /// A session was torn down before completing.
    TestAborted {
        /// Core whose session died.
        core: u32,
        /// What displaced it.
        reason: AbortReason,
    },
    /// A session ran to completion.
    TestCompleted {
        /// Core that was tested.
        core: u32,
        /// Routine that completed.
        routine: u16,
        /// DVFS level tested at.
        level: u8,
        /// DVFS levels on this core with ≥ 1 completed test afterwards.
        covered_levels: u8,
        /// Seconds since this core's previous completion (< 0 = first).
        interval: f64,
    },
    /// The governor moved the admission cap.
    CapAdjusted {
        /// New cap, watts.
        cap: f64,
        /// Last epoch's measured power, watts.
        measured: f64,
        /// Headroom under the new cap, watts.
        headroom: f64,
        /// Live power reservations at that instant.
        reservations: u32,
    },
    /// A core's operating level changed (−1 = power-gated).
    DvfsTransition {
        /// The core.
        core: u32,
        /// Previous ladder index, −1 when the core was off.
        from: i16,
        /// New ladder index, −1 when the core turns off.
        to: i16,
    },
    /// An injected fault became present (latent) on a core.
    FaultActivated {
        /// The faulty core.
        core: u32,
    },
    /// A completed test routine caught a latent fault.
    FaultDetected {
        /// The faulty core.
        core: u32,
        /// Injection-to-detection latency, seconds.
        latency: f64,
    },
    /// A detection moved a core into the `Suspect` health state; K
    /// confirmation retests were queued at the detecting V/f level.
    CoreSuspected {
        /// The suspect core.
        core: u32,
        /// DVFS ladder index the detection happened at.
        level: u8,
    },
    /// Confirmation retests upheld the detection: the core is withdrawn
    /// from mapping and power-gated for the rest of the run.
    CoreQuarantined {
        /// The quarantined core.
        core: u32,
        /// Confirmation retests that completed before the verdict.
        retests: u32,
    },
    /// Confirmation retests failed to reproduce the detection; the core
    /// returns to `Healthy`.
    CoreCleared {
        /// The cleared core.
        core: u32,
        /// Confirmation retests that completed before the verdict.
        retests: u32,
    },
    /// A quarantine killed an application outright (`Abort` policy).
    AppAborted {
        /// Application id.
        app: u64,
        /// The quarantined core that carried it.
        core: u32,
    },
    /// A quarantine sent an application back to the pending queue for a
    /// fresh placement (`RestartElsewhere` policy).
    AppRestarted {
        /// Application id.
        app: u64,
        /// The quarantined core that carried it.
        core: u32,
    },
    /// A quarantine remapped an application in place onto healthy nodes
    /// (`MigrateRegion` policy).
    AppMigrated {
        /// Application id.
        app: u64,
        /// The quarantined core it was moved off.
        core: u32,
        /// Tasks whose placement changed.
        moved_tasks: u32,
        /// State-transfer delay charged to the app, seconds.
        delay: f64,
    },
    /// The background re-admission lane launched a low-V/f probe routine
    /// on a withdrawn core (probation).
    CoreProbeLaunched {
        /// The core under probation.
        core: u32,
        /// Clean probes already banked this probation round.
        streak: u32,
        /// Probe sessions in flight after this launch (≤ lane budget).
        inflight: u32,
    },
    /// Probation succeeded: the core's refire streak cooled and it
    /// rejoins the mappable pool.
    CoreReadmitted {
        /// The re-admitted core.
        core: u32,
        /// Clean probes that earned the re-admission.
        probes: u32,
    },
    /// A probation probe reproduced the fault: the core returns to
    /// quarantine and the retry cadence backs off exponentially.
    CoreRequarantined {
        /// The re-quarantined core.
        core: u32,
        /// Failed probation rounds so far (backoff exponent).
        backoff: u32,
    },
    /// A periodic checkpoint captured an application's task state,
    /// resetting the dirty span a later migration must transfer.
    AppCheckpointed {
        /// Application id.
        app: u64,
        /// Tasks whose state was captured.
        tasks: u32,
        /// Checkpoint image size, bytes.
        bytes: u64,
    },
}

impl SimEvent {
    /// Number of event kinds (array size for exact per-kind counters).
    pub const KIND_COUNT: usize = 22;

    /// All kind names, in [`SimEvent::kind_index`] order.
    pub const KINDS: [&'static str; Self::KIND_COUNT] = [
        "AppArrived",
        "AppRejected",
        "AppMapped",
        "AppCompleted",
        "TestLaunched",
        "TestDeniedPower",
        "TestAborted",
        "TestCompleted",
        "CapAdjusted",
        "DvfsTransition",
        "FaultActivated",
        "FaultDetected",
        "CoreSuspected",
        "CoreQuarantined",
        "CoreCleared",
        "AppAborted",
        "AppRestarted",
        "AppMigrated",
        "CoreProbeLaunched",
        "CoreReadmitted",
        "CoreRequarantined",
        "AppCheckpointed",
    ];

    /// Dense index of this event's kind, for fixed-size counter arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            SimEvent::AppArrived { .. } => 0,
            SimEvent::AppRejected { .. } => 1,
            SimEvent::AppMapped { .. } => 2,
            SimEvent::AppCompleted { .. } => 3,
            SimEvent::TestLaunched { .. } => 4,
            SimEvent::TestDeniedPower { .. } => 5,
            SimEvent::TestAborted { .. } => 6,
            SimEvent::TestCompleted { .. } => 7,
            SimEvent::CapAdjusted { .. } => 8,
            SimEvent::DvfsTransition { .. } => 9,
            SimEvent::FaultActivated { .. } => 10,
            SimEvent::FaultDetected { .. } => 11,
            SimEvent::CoreSuspected { .. } => 12,
            SimEvent::CoreQuarantined { .. } => 13,
            SimEvent::CoreCleared { .. } => 14,
            SimEvent::AppAborted { .. } => 15,
            SimEvent::AppRestarted { .. } => 16,
            SimEvent::AppMigrated { .. } => 17,
            SimEvent::CoreProbeLaunched { .. } => 18,
            SimEvent::CoreReadmitted { .. } => 19,
            SimEvent::CoreRequarantined { .. } => 20,
            SimEvent::AppCheckpointed { .. } => 21,
        }
    }

    /// The event's kind name (stable, used as the JSON `kind` field).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// True when the provenance contract requires every emission of this
    /// kind to carry a cause link. The complement — kinds that may be
    /// emitted as roots — is exactly [`SimEvent::ROOT_KINDS`] plus
    /// `TestLaunched` (ranked-lane launches are roots, retest-lane
    /// launches are caused).
    pub fn cause_required(kind_index: usize) -> bool {
        !matches!(kind_index, 0 | 4 | 8 | 9 | 10)
    }

    /// Kind names that may legitimately appear as provenance-DAG roots
    /// (no cause link). Everything else must be caused — enforced by
    /// `validate_events` on every captured run.
    pub const ROOT_KINDS: [&'static str; 5] = [
        "AppArrived",
        "TestLaunched",
        "CapAdjusted",
        "DvfsTransition",
        "FaultActivated",
    ];

    /// Appends the per-variant payload fields (each preceded by a comma,
    /// no braces) to `out` — the tail of [`EventRecord::write_json`].
    pub fn write_json_fields(&self, out: &mut String) {
        match *self {
            SimEvent::AppArrived { app, tasks } | SimEvent::AppRejected { app, tasks } => {
                let _ = write!(out, ",\"app\":{app},\"tasks\":{tasks}");
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
            } => {
                let _ = write!(
                    out,
                    ",\"app\":{app},\"tasks\":{tasks},\"first_node\":{first_node},\
                     \"region_w\":{region_w},\"region_h\":{region_h},\"level\":{level},\
                     \"hop_cost\":{hop_cost},\"queue_wait\":{queue_wait},\"headroom\":{headroom}"
                );
            }
            SimEvent::AppCompleted { app, latency } => {
                let _ = write!(out, ",\"app\":{app},\"latency\":{latency}");
            }
            SimEvent::TestLaunched {
                core,
                routine,
                level,
                power,
                headroom,
            } => {
                let _ = write!(
                    out,
                    ",\"core\":{core},\"routine\":{routine},\"level\":{level},\
                     \"power\":{power},\"headroom\":{headroom}"
                );
            }
            SimEvent::TestDeniedPower {
                core,
                needed,
                headroom,
            } => {
                let _ = write!(
                    out,
                    ",\"core\":{core},\"needed\":{needed},\"headroom\":{headroom}"
                );
            }
            SimEvent::TestAborted { core, reason } => {
                let _ = write!(out, ",\"core\":{core},\"reason\":\"{}\"", reason.as_str());
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
                    ",\"core\":{core},\"routine\":{routine},\"level\":{level},\
                     \"covered_levels\":{covered_levels},\"interval\":{interval}"
                );
            }
            SimEvent::CapAdjusted {
                cap,
                measured,
                headroom,
                reservations,
            } => {
                let _ = write!(
                    out,
                    ",\"cap\":{cap},\"measured\":{measured},\"headroom\":{headroom},\
                     \"reservations\":{reservations}"
                );
            }
            SimEvent::DvfsTransition { core, from, to } => {
                let _ = write!(out, ",\"core\":{core},\"from\":{from},\"to\":{to}");
            }
            SimEvent::FaultActivated { core } => {
                let _ = write!(out, ",\"core\":{core}");
            }
            SimEvent::FaultDetected { core, latency } => {
                let _ = write!(out, ",\"core\":{core},\"latency\":{latency}");
            }
            SimEvent::CoreSuspected { core, level } => {
                let _ = write!(out, ",\"core\":{core},\"level\":{level}");
            }
            SimEvent::CoreQuarantined { core, retests }
            | SimEvent::CoreCleared { core, retests } => {
                let _ = write!(out, ",\"core\":{core},\"retests\":{retests}");
            }
            SimEvent::AppAborted { app, core } | SimEvent::AppRestarted { app, core } => {
                let _ = write!(out, ",\"app\":{app},\"core\":{core}");
            }
            SimEvent::AppMigrated {
                app,
                core,
                moved_tasks,
                delay,
            } => {
                let _ = write!(
                    out,
                    ",\"app\":{app},\"core\":{core},\"moved_tasks\":{moved_tasks},\
                     \"delay\":{delay}"
                );
            }
            SimEvent::CoreProbeLaunched {
                core,
                streak,
                inflight,
            } => {
                let _ = write!(
                    out,
                    ",\"core\":{core},\"streak\":{streak},\"inflight\":{inflight}"
                );
            }
            SimEvent::CoreReadmitted { core, probes } => {
                let _ = write!(out, ",\"core\":{core},\"probes\":{probes}");
            }
            SimEvent::CoreRequarantined { core, backoff } => {
                let _ = write!(out, ",\"core\":{core},\"backoff\":{backoff}");
            }
            SimEvent::AppCheckpointed { app, tasks, bytes } => {
                let _ = write!(out, ",\"app\":{app},\"tasks\":{tasks},\"bytes\":{bytes}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Causal provenance: event ids, cause links, records.
// ---------------------------------------------------------------------------

/// Deterministic identity of one emitted event: its position in the
/// run's emission sequence (0-based). Ids are assigned by the emitter in
/// emission order, so they are byte-identical across worker counts and
/// `id_a < id_b` implies event `a` was emitted no later than event `b` —
/// which makes acyclicity and time-ordering of the provenance DAG a
/// single comparison per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why one event caused another: the typed edge label of the provenance
/// DAG. Each kind admits a fixed `(cause kinds, effect kinds)` pair —
/// see [`CauseKind::expected`] — and `validate_events` rejects any link
/// outside that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CauseKind {
    /// `AppArrived` → `AppMapped` / `AppRejected`: the admission verdict
    /// on a fresh arrival.
    Arrival,
    /// `AppRestarted` → `AppMapped` / `AppRejected`: the re-admission
    /// verdict on a quarantine-displaced app.
    Restart,
    /// `AppMapped` → `AppCompleted`: the placement that ran to the end.
    Mapping,
    /// `CapAdjusted` → `TestDeniedPower`: the governor's cap move that
    /// left too little headroom for the session.
    CapMove,
    /// `CoreSuspected` → `TestLaunched`: a confirmation retest planned
    /// by the priority lane (ranked-lane launches are roots instead).
    RetestLane,
    /// `TestLaunched` → `TestCompleted` / `TestAborted`: the session's
    /// own lifecycle.
    Session,
    /// `FaultActivated` → `FaultDetected`: the latent fault the routine
    /// caught.
    Activation,
    /// `FaultDetected` → `CoreSuspected`: a detection opening the
    /// suspicion window.
    Detection,
    /// `TestCompleted` → `CoreSuspected`: a false-positive routine
    /// verdict opening the suspicion window with no underlying fault.
    FalseAlarm,
    /// `TestCompleted` → `CoreQuarantined`: the confirming retest that
    /// upheld the detection.
    RetestFailed,
    /// `TestCompleted` → `CoreCleared`: the last retest of a streak that
    /// failed to reproduce the detection.
    RetestPassed,
    /// `CoreQuarantined` → `AppAborted` / `AppRestarted` / `AppMigrated`:
    /// the victim-handling policy acting on the quarantine.
    Quarantine,
    /// `CoreQuarantined` / `CoreRequarantined` → `CoreProbeLaunched`:
    /// the background re-admission lane probing a withdrawn core.
    ProbeLane,
    /// `CoreProbeLaunched` → `CoreReadmitted`: the clean probe that
    /// completed the cool-down streak.
    ProbePassed,
    /// `CoreProbeLaunched` → `CoreRequarantined`: the probe that
    /// reproduced the fault and failed probation.
    ProbeFailed,
    /// `AppMapped` → `AppCheckpointed`: the placement whose task state
    /// the checkpoint captured.
    Checkpoint,
}

impl CauseKind {
    /// Number of link kinds (array size for per-kind counters).
    pub const COUNT: usize = 16;

    /// All link kinds.
    pub const ALL: [CauseKind; Self::COUNT] = [
        CauseKind::Arrival,
        CauseKind::Restart,
        CauseKind::Mapping,
        CauseKind::CapMove,
        CauseKind::RetestLane,
        CauseKind::Session,
        CauseKind::Activation,
        CauseKind::Detection,
        CauseKind::FalseAlarm,
        CauseKind::RetestFailed,
        CauseKind::RetestPassed,
        CauseKind::Quarantine,
        CauseKind::ProbeLane,
        CauseKind::ProbePassed,
        CauseKind::ProbeFailed,
        CauseKind::Checkpoint,
    ];

    /// Stable lower-snake name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            CauseKind::Arrival => "arrival",
            CauseKind::Restart => "restart",
            CauseKind::Mapping => "mapping",
            CauseKind::CapMove => "cap_move",
            CauseKind::RetestLane => "retest_lane",
            CauseKind::Session => "session",
            CauseKind::Activation => "activation",
            CauseKind::Detection => "detection",
            CauseKind::FalseAlarm => "false_alarm",
            CauseKind::RetestFailed => "retest_failed",
            CauseKind::RetestPassed => "retest_passed",
            CauseKind::Quarantine => "quarantine",
            CauseKind::ProbeLane => "probe_lane",
            CauseKind::ProbePassed => "probe_passed",
            CauseKind::ProbeFailed => "probe_failed",
            CauseKind::Checkpoint => "checkpoint",
        }
    }

    /// The allowed-link table: `(cause kinds, effect kinds)` this edge
    /// label may connect, as [`SimEvent::KINDS`] names. A link whose
    /// endpoint kinds fall outside its row is a wiring bug and fails
    /// `validate_events`.
    pub fn expected(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            CauseKind::Arrival => (&["AppArrived"], &["AppMapped", "AppRejected"]),
            CauseKind::Restart => (&["AppRestarted"], &["AppMapped", "AppRejected"]),
            CauseKind::Mapping => (&["AppMapped"], &["AppCompleted"]),
            CauseKind::CapMove => (&["CapAdjusted"], &["TestDeniedPower"]),
            CauseKind::RetestLane => (&["CoreSuspected"], &["TestLaunched"]),
            CauseKind::Session => (&["TestLaunched"], &["TestCompleted", "TestAborted"]),
            CauseKind::Activation => (&["FaultActivated"], &["FaultDetected"]),
            CauseKind::Detection => (&["FaultDetected"], &["CoreSuspected"]),
            CauseKind::FalseAlarm => (&["TestCompleted"], &["CoreSuspected"]),
            CauseKind::RetestFailed => (&["TestCompleted"], &["CoreQuarantined"]),
            CauseKind::RetestPassed => (&["TestCompleted"], &["CoreCleared"]),
            CauseKind::Quarantine => {
                (&["CoreQuarantined"], &["AppAborted", "AppRestarted", "AppMigrated"])
            }
            CauseKind::ProbeLane => {
                (&["CoreQuarantined", "CoreRequarantined"], &["CoreProbeLaunched"])
            }
            CauseKind::ProbePassed => (&["CoreProbeLaunched"], &["CoreReadmitted"]),
            CauseKind::ProbeFailed => (&["CoreProbeLaunched"], &["CoreRequarantined"]),
            CauseKind::Checkpoint => (&["AppMapped"], &["AppCheckpointed"]),
        }
    }
}

/// A typed edge of the provenance DAG: *this event happened because of
/// event `id`, via mechanism `kind`*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CauseLink {
    /// Edge label (mechanism).
    pub kind: CauseKind,
    /// The causing event.
    pub id: EventId,
}

impl CauseLink {
    /// Convenience constructor.
    pub fn new(kind: CauseKind, id: EventId) -> Self {
        CauseLink { kind, id }
    }
}

/// One emitted event with its full provenance envelope: identity,
/// timestamp, optional cause link, payload. This is what the [`EventLog`]
/// stores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Emission-order identity (unique within a run).
    pub id: EventId,
    /// Emission time, seconds.
    pub t: f64,
    /// The event that caused this one, if it is not a root.
    pub cause: Option<CauseLink>,
    /// The decision payload.
    pub ev: SimEvent,
}

impl EventRecord {
    /// Appends this record as one JSON object (no trailing newline):
    /// `{"t":…,"id":…[,"cause":…,"link":"…"],"kind":"…",fields}`.
    /// Floats use Rust's shortest-round-trip `Display`, which is
    /// deterministic, so identical runs render byte-identical JSON.
    // lint:effect(alloc, reason = "renders into the caller's String buffer — write! to String is an append, not I/O; callers reuse the buffer across epochs")
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{},\"id\":{}", self.t, self.id.0);
        if let Some(link) = self.cause {
            let _ = write!(out, ",\"cause\":{},\"link\":\"{}\"", link.id.0, link.kind.as_str());
        }
        let _ = write!(out, ",\"kind\":\"{}\"", self.ev.kind());
        self.ev.write_json_fields(out);
        out.push('}');
    }
}

/// Mints the next sequential [`EventId`] from `next_id` and, when a log
/// is attached, appends the record to it. This is the one place records
/// are minted: the control loop (and its borrow-split closures) routes
/// every emission through here so ids stay gapless and monotonic whether
/// or not the run captures events. Without a log nothing is built or
/// stored, so the emission path stays allocation-free.
#[inline]
pub fn emit_record(
    log: Option<&mut EventLog>,
    next_id: &mut u64,
    t: f64,
    cause: Option<CauseLink>,
    ev: SimEvent,
) -> EventId {
    let id = EventId(*next_id);
    *next_id += 1;
    if let Some(log) = log {
        log.push_record(EventRecord { id, t, cause, ev });
    }
    id
}

/// A bounded in-memory event log.
///
/// Stores up to `capacity` timestamped events; further events are counted
/// but not stored (`dropped`). Per-kind counts are maintained for **all**
/// events, stored or dropped, so count-based invariants (`TestLaunched ==
/// TestCompleted + TestAborted + in-flight`, …) reconcile exactly with
/// the report even when the sample buffer saturates.
///
/// # Examples
///
/// ```
/// use manytest_sim::obs::{emit_record, EventLog, SimEvent};
///
/// let mut log = EventLog::bounded(16);
/// let mut next_id = 0;
/// let ev = SimEvent::FaultActivated { core: 3 };
/// emit_record(Some(&mut log), &mut next_id, 0.5, None, ev);
/// assert_eq!(log.count("FaultActivated"), 1);
/// let mut jsonl = Vec::new();
/// log.write_jsonl(&mut jsonl).unwrap();
/// assert!(String::from_utf8(jsonl).unwrap().contains("\"kind\":\"FaultActivated\""));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<EventRecord>,
    capacity: usize,
    dropped: u64,
    kind_counts: [u64; SimEvent::KIND_COUNT],
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            events: Vec::new(),
            capacity: usize::MAX,
            dropped: 0,
            kind_counts: [0; SimEvent::KIND_COUNT],
        }
    }
}

impl EventLog {
    /// A log that stores at most `capacity` events (but counts them all).
    pub fn bounded(capacity: usize) -> Self {
        EventLog {
            capacity,
            ..Self::default()
        }
    }

    /// Records one fully-formed record (as minted by [`emit_record`]).
    pub fn push_record(&mut self, rec: EventRecord) {
        self.kind_counts[rec.ev.kind_index()] += 1;
        if self.events.len() < self.capacity {
            self.events.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// The stored records, in emission order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events observed but not stored because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-kind counts of events that were observed but *not* stored
    /// (the difference between the exact per-kind tallies and the kinds
    /// actually present in the sample buffer), in [`SimEvent::KINDS`]
    /// order. All zero unless the log saturated.
    pub fn dropped_kind_counts(&self) -> [u64; SimEvent::KIND_COUNT] {
        let mut stored = [0u64; SimEvent::KIND_COUNT];
        for rec in &self.events {
            stored[rec.ev.kind_index()] += 1;
        }
        let mut out = [0u64; SimEvent::KIND_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.kind_counts[i] - stored[i];
        }
        out
    }

    /// A one-line human-readable warning when the sample buffer hit its
    /// capacity, naming the most-dropped kinds; `None` when nothing was
    /// dropped. Deterministic (ties broken by kind order).
    pub fn saturation_warning(&self) -> Option<String> {
        if self.dropped == 0 {
            return None;
        }
        let drops = self.dropped_kind_counts();
        let mut ranked: Vec<(usize, u64)> = drops
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut detail = String::new();
        for (i, &(kind, count)) in ranked.iter().take(3).enumerate() {
            if i > 0 {
                detail.push_str(", ");
            }
            let _ = write!(detail, "{} {count}", SimEvent::KINDS[kind]);
        }
        if ranked.len() > 3 {
            detail.push_str(", ...");
        }
        Some(format!(
            "warning: event log saturated at capacity {}; {} events dropped ({detail}); \
             per-kind counts remain exact",
            self.capacity, self.dropped
        ))
    }

    /// Exact count of events of the named kind (stored *and* dropped).
    /// Unknown names count zero.
    pub fn count(&self, kind: &str) -> u64 {
        SimEvent::KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.kind_counts[i])
    }

    /// `(kind, exact count)` pairs for every kind, in stable order.
    pub fn kind_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SimEvent::KINDS.iter().zip(self.kind_counts).map(|(&k, c)| (k, c))
    }

    /// Total events observed (stored and dropped).
    pub fn total(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Streams the stored samples as JSON Lines to `w`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the writer.
    pub fn write_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::with_capacity(128);
        for rec in &self.events {
            line.clear();
            rec.write_json(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

/// Named counters plus named fixed-bucket histograms with deterministic
/// (sorted) iteration order. Consumers count events by kind with
/// [`CounterRegistry::incr`] and record derived quantities through
/// [`CounterRegistry::record`].
///
/// # Examples
///
/// ```
/// use manytest_sim::obs::CounterRegistry;
///
/// let mut reg = CounterRegistry::new();
/// reg.declare_histogram("queue_wait_ms", 0.0, 10.0, 5);
/// reg.record("queue_wait_ms", 2.5);
/// reg.incr("launches");
/// assert!(reg.summary().contains("launches = 1"));
/// assert_eq!(reg.histograms().map(|(_, h)| h.total()).sum::<u64>(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to the named counter (creating it at 0).
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the named counter (creating it at 0).
    // lint:effect(warmup, reason = "first touch of a counter name allocates its key once; every later add is an in-place increment")
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Declares (or replaces) a histogram spanning `[lo, hi)` with `bins`
    /// equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` (see [`Histogram::new`]).
    pub fn declare_histogram(&mut self, name: &str, lo: f64, hi: f64, bins: usize) {
        self.histograms
            .insert(name.to_owned(), Histogram::new(lo, hi, bins));
    }

    /// Records one sample into a declared histogram.
    ///
    /// # Panics
    ///
    /// Panics if the histogram was never declared — an undeclared record
    /// is a telemetry wiring bug, not a runtime condition.
    // lint:effect(panic, reason = "documented # Panics contract: an undeclared histogram is a telemetry wiring bug, not a runtime condition")
    pub fn record(&mut self, name: &str, x: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram '{name}' was never declared"))
            .push(x);
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Plain-text summary: one `name = value` line per counter, then one
    /// block per histogram with quantile estimates and per-bucket bars.
    /// Deterministic order.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "{name}: {} samples ({} under, {} over)",
                h.total(),
                h.underflow(),
                h.overflow()
            );
            if let (Some(p50), Some(p95), Some(p99)) = (h.p50(), h.p95(), h.p99()) {
                let _ = writeln!(out, "  p50 {p50:.3}  p95 {p95:.3}  p99 {p99:.3}");
            }
            let peak = h.bins().iter().copied().max().unwrap_or(0).max(1);
            for (center, count) in h.centers() {
                let bar = "#".repeat((count * 40 / peak) as usize);
                let _ = writeln!(out, "  {center:>10.3} | {count:>6} {bar}");
            }
        }
        out
    }
}

/// Counts `"kind"` occurrences per line of a JSON-Lines event stream
/// (the inverse of [`EventLog::write_jsonl`], good enough for validation
/// without a JSON parser — the workspace deliberately has none).
pub fn jsonl_kind_counts(text: &str) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for line in text.lines() {
        let Some(pos) = line.find("\"kind\":\"") else {
            continue;
        };
        let rest = &line[pos + 8..];
        let Some(end) = rest.find('"') else { continue };
        *counts.entry(rest[..end].to_owned()).or_insert(0) += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// Flight recorder: per-epoch state snapshots.
// ---------------------------------------------------------------------------

/// Health lifecycle state of a core, as seen by a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthCode {
    /// No open suspicion.
    Healthy,
    /// A detection is being confirmed by retests.
    Suspect,
    /// Withdrawn from mapping and power-gated; the re-admission lane may
    /// later probe it back to health.
    Quarantined,
    /// Withdrawn from mapping but under active re-admission probing.
    Probation,
}

/// The state of one core captured at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreState {
    /// Mean power drawn over the closing epoch, watts.
    pub power_w: f64,
    /// Temperature at epoch close, kelvin (0 when no transient model).
    pub temp_k: f64,
    /// V/f ladder index the core runs at; −1 = power-gated/off.
    pub vf_level: i16,
    /// Health lifecycle state.
    pub health: HealthCode,
    /// True when an application occupies the core (mapping occupancy).
    pub occupied: bool,
    /// True when an SBST session is active on the core.
    pub testing: bool,
}

/// The full system state captured at one epoch boundary: everything the
/// mapper, scheduler and governor saw when they made their decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// Epoch-close time, seconds.
    pub t: f64,
    /// PID admission cap at that instant, watts.
    pub cap_w: f64,
    /// Headroom under the effective cap after reservations, watts.
    pub headroom_w: f64,
    /// Measured chip power over the closing epoch, watts.
    pub power_w: f64,
    /// Power drawn by test sessions over the closing epoch, watts.
    pub test_power_w: f64,
    /// Live session power reservations.
    pub reservations: u32,
    /// Applications waiting in the pending queue.
    pub pending_apps: u32,
    /// Admitted applications still running.
    pub running_apps: u32,
    /// SBST sessions in flight.
    pub active_tests: u32,
    /// Per-core state, indexed by dense node id.
    pub cores: Vec<CoreState>,
}

/// Bounded flight-recorder ring for [`StateSnapshot`]s.
///
/// Decimates by stride doubling: when the ring fills it halves itself
/// (keeping every second snapshot) and doubles the sampling stride, so
/// an arbitrarily long run keeps a uniform thinning of its
/// state history in bounded memory. The thinning is a function of the
/// push count alone — never of time or memory — so recordings are
/// byte-identical across worker counts. The most recent snapshot is
/// additionally retained verbatim for end-of-run reconciliation.
#[derive(Debug, Clone, PartialEq)]
pub struct StateRecorder {
    snapshots: Vec<StateSnapshot>,
    bound: usize,
    /// Keep one snapshot out of every `stride` offered (power of two).
    stride: u64,
    /// Snapshots offered via `push` over the recorder's lifetime.
    seen: u64,
    last: Option<StateSnapshot>,
}

impl StateRecorder {
    /// A recorder that retains at most `capacity` snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` — a bounded ring must at least retain a
    /// first and a latest snapshot.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity >= 2,
            "state recorder capacity must be at least 2, got {capacity}"
        );
        StateRecorder {
            snapshots: Vec::new(),
            bound: capacity,
            stride: 0,
            seen: 0,
            last: None,
        }
    }

    /// Offers one snapshot; it may be decimated away (the latest snapshot
    /// is always retained separately, see [`StateTimeline::last`]).
    pub fn push(&mut self, snap: StateSnapshot) {
        let stride = self.stride.max(1);
        let keep = self.seen % stride == 0;
        self.seen += 1;
        if !keep {
            self.last = Some(snap);
            return;
        }
        if self.snapshots.len() >= self.bound {
            // Halve: keep even indices, then record every second snapshot.
            let mut i = 0;
            self.snapshots.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride = stride * 2;
            if (self.seen - 1) % self.stride != 0 {
                self.last = Some(snap);
                return; // falls off the coarser grid
            }
        }
        self.last = Some(snap.clone());
        self.snapshots.push(snap);
    }

    /// Finishes recording, yielding the timeline carried on the report.
    pub fn into_timeline(self) -> StateTimeline {
        StateTimeline {
            snapshots: self.snapshots,
            last: self.last,
            seen: self.seen,
            stride: self.stride.max(1),
        }
    }
}

/// A finished flight recording: the decimated snapshot ring plus the
/// exact final snapshot, as returned on a run report. An empty timeline
/// (the default) means recording was not enabled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StateTimeline {
    snapshots: Vec<StateSnapshot>,
    last: Option<StateSnapshot>,
    seen: u64,
    stride: u64,
}

impl StateTimeline {
    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> &[StateSnapshot] {
        &self.snapshots
    }

    /// The exact final snapshot (never decimated), if anything was recorded.
    pub fn last(&self) -> Option<&StateSnapshot> {
        self.last.as_ref()
    }

    /// Snapshots offered over the run (≥ retained count).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Final sampling stride (1 = nothing was decimated).
    pub fn stride(&self) -> u64 {
        self.stride.max(1)
    }

    /// True when recording was disabled or the run closed no epochs.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Cores per snapshot (0 for an empty timeline).
    pub fn core_count(&self) -> usize {
        self.snapshots.first().map_or(0, |s| s.cores.len())
    }
}

// ---------------------------------------------------------------------------
// Phase profiler: deterministic self-profiling of the control loop.
// ---------------------------------------------------------------------------

/// One instrumented phase of the epoch control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// PID governor: cap move + budget resize.
    Pid,
    /// Fault-injection activation sweep.
    Fault,
    /// Pending-queue admission and mapping.
    Map,
    /// SBST session scheduling (retest lane + opportunity scan).
    Schedule,
    /// Event-plane drain (task/test completions).
    Events,
    /// Epoch close: power accounting, tracing, thermal step, snapshot.
    Thermal,
}

impl Phase {
    /// Number of phases (array size for per-phase accumulators).
    pub const COUNT: usize = 6;

    /// All phases, in [`Phase::index`] order.
    pub const ALL: [Phase; Self::COUNT] = [
        Phase::Pid,
        Phase::Fault,
        Phase::Map,
        Phase::Schedule,
        Phase::Events,
        Phase::Thermal,
    ];

    /// Dense index of this phase.
    pub fn index(self) -> usize {
        match self {
            Phase::Pid => 0,
            Phase::Fault => 1,
            Phase::Map => 2,
            Phase::Schedule => 3,
            Phase::Events => 4,
            Phase::Thermal => 5,
        }
    }

    /// Stable lower-snake name used in report output.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Pid => "pid",
            Phase::Fault => "fault",
            Phase::Map => "map",
            Phase::Schedule => "schedule",
            Phase::Events => "events",
            Phase::Thermal => "thermal",
        }
    }
}

/// Phase-boundary hook: the control loop brackets each phase with
/// `enter`/`exit` calls. The simulator itself only ever installs the
/// no-op [`NullPhaseObserver`] — wall-clock time is lint-banned outside
/// `crates/bench`, where a real timer implements this trait to attach
/// per-phase wall time to a job.
pub trait PhaseObserver {
    /// A phase begins.
    fn enter(&mut self, phase: Phase);
    /// The matching phase ends.
    fn exit(&mut self, phase: Phase);
}

/// The default phase observer: both hooks are no-ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPhaseObserver;

impl PhaseObserver for NullPhaseObserver {
    #[inline]
    fn enter(&mut self, _phase: Phase) {}
    #[inline]
    fn exit(&mut self, _phase: Phase) {}
}

/// Deterministic self-profile of one run: per-phase work counters and
/// scratch-buffer high-water marks, maintained by the epoch control loop.
///
/// Everything here counts *events processed*, never wall-clock time —
/// the profile is part of the report and must be byte-identical across
/// worker counts (wall time stays in `crates/bench`, attached per job by
/// the batch runner through [`PhaseObserver`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Control epochs executed.
    pub epochs: u64,
    /// PID governor cap moves (one per epoch).
    pub pid_updates: u64,
    /// Fault activation sweep passes.
    pub fault_sweeps: u64,
    /// Injected faults that became active during sweeps.
    pub fault_activations: u64,
    /// Pending-queue admission scans.
    pub admit_scans: u64,
    /// Applications admitted and mapped.
    pub apps_admitted: u64,
    /// Test-scheduler planning passes.
    pub sched_calls: u64,
    /// Confirmation retests planned by the priority lane.
    pub retests_planned: u64,
    /// Sessions launched (reservation succeeded).
    pub sched_launches: u64,
    /// Sessions denied for lack of power headroom.
    pub sched_denials: u64,
    /// Non-empty event batches drained from the calendar.
    pub queue_batches: u64,
    /// Events handled in the event plane.
    pub events_processed: u64,
    /// Transient thermal-grid steps.
    pub thermal_steps: u64,
    /// Flight-recorder snapshots offered.
    pub snapshots: u64,
    /// Largest single drained batch (scratch high-water mark).
    pub batch_high_water: u64,
    /// Deepest pending-application queue.
    pub pending_high_water: u64,
    /// Largest running-application table.
    pub running_high_water: u64,
    /// Largest ranked-candidate list handed to the scheduler: the healthy
    /// testable cores at or above the criticality threshold in one call.
    pub candidates_high_water: u64,
    /// Largest per-epoch launch plan.
    pub launches_high_water: u64,
    /// O(1) maintained free-set reads by the admission loop (one per
    /// pending-application check that used to be a full-core filter).
    pub free_set_queries: u64,
    /// Full mapper-snapshot rebuilds (at most one per admission tick,
    /// plus one per migration remap).
    pub ctx_rebuilds: u64,
    /// In-place mapper-snapshot patches applied between admissions of
    /// one tick instead of full rebuilds.
    pub ctx_delta_updates: u64,
    /// Testable cores the scheduling passes visited: the cores the
    /// wake-up calendar had due, each a criticality evaluation or a
    /// retest-lane check. Cores that provably stay below the threshold
    /// are not visited.
    pub candidates_scanned: u64,
    /// Scheduler ranked-lane heap pops (lazy partial selection; the
    /// replacement for the full criticality sort).
    pub heap_pops: u64,
    /// Cores newly marked dirty across all generations (re-marks within
    /// a generation do not count).
    pub dirty_marks: u64,
}

impl PhaseProfile {
    /// Number of profile counters (see [`PhaseProfile::entries`]).
    pub const COUNT: usize = 25;

    /// `(name, value)` pairs for every counter, in a stable order — the
    /// single source of truth for rendering (prom exposition, report
    /// tables) and for audit reconciliation.
    pub fn entries(&self) -> [(&'static str, u64); Self::COUNT] {
        [
            ("epochs", self.epochs),
            ("pid_updates", self.pid_updates),
            ("fault_sweeps", self.fault_sweeps),
            ("fault_activations", self.fault_activations),
            ("admit_scans", self.admit_scans),
            ("apps_admitted", self.apps_admitted),
            ("sched_calls", self.sched_calls),
            ("retests_planned", self.retests_planned),
            ("sched_launches", self.sched_launches),
            ("sched_denials", self.sched_denials),
            ("queue_batches", self.queue_batches),
            ("events_processed", self.events_processed),
            ("thermal_steps", self.thermal_steps),
            ("snapshots", self.snapshots),
            ("batch_high_water", self.batch_high_water),
            ("pending_high_water", self.pending_high_water),
            ("running_high_water", self.running_high_water),
            ("candidates_high_water", self.candidates_high_water),
            ("launches_high_water", self.launches_high_water),
            ("free_set_queries", self.free_set_queries),
            ("ctx_rebuilds", self.ctx_rebuilds),
            ("ctx_delta_updates", self.ctx_delta_updates),
            ("candidates_scanned", self.candidates_scanned),
            ("heap_pops", self.heap_pops),
            ("dirty_marks", self.dirty_marks),
        ]
    }

    /// Raises a high-water slot to `depth` if it is deeper than the mark.
    #[inline]
    pub fn raise(slot: &mut u64, depth: usize) {
        *slot = (*slot).max(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl(log: &EventLog) -> String {
        let mut out = Vec::new();
        log.write_jsonl(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSONL is UTF-8")
    }

    fn sample_events() -> Vec<(f64, SimEvent)> {
        vec![
            (0.001, SimEvent::AppArrived { app: 0, tasks: 4 }),
            (
                0.002,
                SimEvent::AppMapped {
                    app: 0,
                    tasks: 4,
                    first_node: 17,
                    region_w: 2,
                    region_h: 2,
                    level: 4,
                    hop_cost: 6.0,
                    queue_wait: 0.001,
                    headroom: 12.5,
                },
            ),
            (
                0.003,
                SimEvent::TestLaunched {
                    core: 3,
                    routine: 1,
                    level: 0,
                    power: 0.25,
                    headroom: 3.5,
                },
            ),
            (
                0.004,
                SimEvent::TestAborted {
                    core: 3,
                    reason: AbortReason::MappedOver,
                },
            ),
            (0.005, SimEvent::FaultDetected { core: 3, latency: 0.004 }),
            (0.006, SimEvent::CoreSuspected { core: 3, level: 2 }),
            (0.007, SimEvent::CoreQuarantined { core: 3, retests: 3 }),
            (0.008, SimEvent::CoreCleared { core: 5, retests: 3 }),
            (0.009, SimEvent::AppAborted { app: 1, core: 3 }),
            (0.010, SimEvent::AppRestarted { app: 2, core: 3 }),
            (
                0.011,
                SimEvent::AppMigrated {
                    app: 3,
                    core: 3,
                    moved_tasks: 4,
                    delay: 0.0002,
                },
            ),
        ]
    }

    #[test]
    fn kind_index_matches_kind_table() {
        for (t, ev) in sample_events() {
            assert_eq!(SimEvent::KINDS[ev.kind_index()], ev.kind(), "at t={t}");
        }
    }

    #[test]
    fn json_lines_carry_kind_and_fields() {
        let mut log = EventLog::default();
        let mut next_id = 0;
        for (t, ev) in sample_events() {
            emit_record(Some(&mut log), &mut next_id, t, None, ev);
        }
        let jsonl = jsonl(&log);
        assert_eq!(jsonl.lines().count(), 11);
        assert!(jsonl.contains("\"kind\":\"AppMapped\""));
        assert!(jsonl.contains("\"region_w\":2"));
        assert!(jsonl.contains("\"reason\":\"mapped_over\""));
        assert!(jsonl.contains("\"kind\":\"CoreQuarantined\""));
        assert!(jsonl.contains("\"retests\":3"));
        assert!(jsonl.contains("\"moved_tasks\":4"));
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"t\":"));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn bounded_log_keeps_exact_counts_while_dropping_samples() {
        let mut log = EventLog::bounded(2);
        let mut next_id = 0;
        for _ in 0..10 {
            emit_record(
                Some(&mut log),
                &mut next_id,
                1.0,
                None,
                SimEvent::FaultActivated { core: 0 },
            );
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 8);
        assert_eq!(log.count("FaultActivated"), 10);
        assert_eq!(log.total(), 10);
    }

    #[test]
    fn jsonl_and_csv_round_trip_the_kind_counts() {
        let mut log = EventLog::default();
        let mut next_id = 0;
        for (t, ev) in sample_events() {
            emit_record(Some(&mut log), &mut next_id, t, None, ev);
        }
        let from_jsonl = jsonl_kind_counts(&jsonl(&log));
        for (kind, n) in log.kind_counts() {
            assert_eq!(from_jsonl.get(kind).copied().unwrap_or(0), n, "kind {kind}");
        }
    }

    #[test]
    fn registry_counts_events_and_renders_summary() {
        let mut reg = CounterRegistry::new();
        for (_, ev) in sample_events() {
            reg.incr(ev.kind());
        }
        let counter = |name| reg.counters().find(|&(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(counter("AppArrived"), Some(1));
        assert_eq!(counter("nonexistent"), None);
        reg.declare_histogram("wait_ms", 0.0, 4.0, 4);
        reg.record("wait_ms", 1.0);
        reg.record("wait_ms", 9.0); // overflow
        let s = reg.summary();
        assert!(s.contains("AppArrived = 1"));
        assert!(s.contains("wait_ms: 2 samples (0 under, 1 over)"));
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn recording_into_undeclared_histogram_panics() {
        CounterRegistry::new().record("missing", 1.0);
    }

    #[test]
    fn record_json_carries_id_and_cause_link() {
        let rec = EventRecord {
            id: EventId(7),
            t: 0.25,
            cause: Some(CauseLink::new(CauseKind::Detection, EventId(3))),
            ev: SimEvent::CoreSuspected { core: 4, level: 2 },
        };
        let mut out = String::new();
        rec.write_json(&mut out);
        assert_eq!(
            out,
            "{\"t\":0.25,\"id\":7,\"cause\":3,\"link\":\"detection\",\
             \"kind\":\"CoreSuspected\",\"core\":4,\"level\":2}"
        );
        // A root renders without cause fields and still parses for kind
        // counting.
        let root = EventRecord {
            id: EventId(0),
            t: 0.5,
            cause: None,
            ev: SimEvent::FaultActivated { core: 1 },
        };
        let mut out = String::new();
        root.write_json(&mut out);
        assert_eq!(out, "{\"t\":0.5,\"id\":0,\"kind\":\"FaultActivated\",\"core\":1}");
        let counts = jsonl_kind_counts(&out);
        assert_eq!(counts.get("FaultActivated"), Some(&1));
    }

    #[test]
    fn cause_kind_table_round_trips_and_names_real_kinds() {
        for k in CauseKind::ALL {
            let (causes, effects) = k.expected();
            assert!(!causes.is_empty() && !effects.is_empty());
            for name in causes.iter().chain(effects) {
                assert!(
                    SimEvent::KINDS.contains(name),
                    "{} names unknown kind {name}",
                    k.as_str()
                );
            }
            // Every effect kind in the table is one the audit requires a
            // cause for — except TestLaunched, whose ranked-lane
            // launches are roots.
            for name in effects.iter().filter(|&&n| n != "TestLaunched") {
                let idx = SimEvent::KINDS.iter().position(|k| k == name).unwrap();
                assert!(SimEvent::cause_required(idx), "{name} must require a cause");
            }
        }
        // Root kinds are exactly the kinds exempt from the requirement.
        for (i, name) in SimEvent::KINDS.iter().enumerate() {
            let is_root = SimEvent::ROOT_KINDS.contains(name);
            assert_eq!(!SimEvent::cause_required(i), is_root, "kind {name}");
        }
    }

    #[test]
    fn emit_record_mints_gapless_ids() {
        let mut log = EventLog::default();
        let mut next_id = 0u64;
        let a = emit_record(Some(&mut log), &mut next_id, 1.0, None, SimEvent::FaultActivated {
            core: 0,
        });
        // Without a log the id still advances, so a capturing run and a
        // plain one mint the same ids.
        let skipped = emit_record(None, &mut next_id, 1.5, None, SimEvent::FaultActivated {
            core: 1,
        });
        let b = emit_record(
            Some(&mut log),
            &mut next_id,
            2.0,
            Some(CauseLink::new(CauseKind::Activation, a)),
            SimEvent::FaultDetected { core: 0, latency: 1.0 },
        );
        assert_eq!((a, skipped, b), (EventId(0), EventId(1), EventId(2)));
        assert_eq!(next_id, 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[1].id, b);
        assert_eq!(log.events()[1].cause.unwrap().id, a);
    }

    #[test]
    fn kind_counts_survive_when_only_counts_remain() {
        // A log with capacity 0 stores nothing but still reconciles.
        let mut log = EventLog::bounded(0);
        let mut next_id = 0;
        for (t, ev) in sample_events() {
            emit_record(Some(&mut log), &mut next_id, t, None, ev);
        }
        assert!(log.is_empty());
        assert_eq!(log.total(), 11);
        assert_eq!(log.count("TestLaunched"), 1);
        assert_eq!(log.count("CoreSuspected"), 1);
    }

    #[test]
    fn saturation_warning_names_dropped_kinds() {
        let mut log = EventLog::bounded(2);
        let mut next_id = 0;
        for _ in 0..5 {
            emit_record(
                Some(&mut log),
                &mut next_id,
                1.0,
                None,
                SimEvent::FaultActivated { core: 0 },
            );
        }
        for _ in 0..2 {
            emit_record(
                Some(&mut log),
                &mut next_id,
                2.0,
                None,
                SimEvent::FaultDetected { core: 0, latency: 1.0 },
            );
        }
        let drops = log.dropped_kind_counts();
        assert_eq!(drops.iter().sum::<u64>(), log.dropped());
        assert_eq!(log.dropped(), 5);
        let warn = log.saturation_warning().expect("log saturated");
        assert!(warn.contains("capacity 2"), "{warn}");
        assert!(warn.contains("5 events dropped"), "{warn}");
        assert!(warn.contains("FaultActivated 3"), "{warn}");
        assert!(warn.contains("FaultDetected 2"), "{warn}");
        assert_eq!(warn.lines().count(), 1, "must be a one-line warning");
    }

    #[test]
    fn unsaturated_log_has_no_warning() {
        let mut log = EventLog::bounded(16);
        let mut next_id = 0;
        emit_record(Some(&mut log), &mut next_id, 1.0, None, SimEvent::FaultActivated { core: 0 });
        assert!(log.saturation_warning().is_none());
        assert_eq!(log.dropped_kind_counts(), [0; SimEvent::KIND_COUNT]);
    }

    fn snap(t: f64) -> StateSnapshot {
        StateSnapshot {
            t,
            cap_w: 50.0,
            headroom_w: 5.0,
            power_w: 45.0,
            test_power_w: 1.0,
            reservations: 2,
            pending_apps: 1,
            running_apps: 3,
            active_tests: 2,
            cores: vec![CoreState {
                power_w: 0.7,
                temp_k: 330.0,
                vf_level: 2,
                health: HealthCode::Healthy,
                occupied: true,
                testing: false,
            }],
        }
    }

    #[test]
    fn state_recorder_decimation_matches_trace_series() {
        // The recorder keeps exactly the points of the full trace series
        // that fall on its final stride: the smallest power of two that
        // fits every offer into the ring.
        for pushes in [1u64, 7, 8, 9, 16, 33, 100, 257] {
            let mut rec = StateRecorder::with_capacity(8);
            let mut series = crate::trace::TraceSeries::new();
            for i in 0..pushes {
                rec.push(snap(i as f64));
                series.push(i as f64, i as f64);
            }
            let stride = pushes.div_ceil(8).next_power_of_two() as usize;
            let tl = rec.into_timeline();
            let rec_times: Vec<f64> = tl.snapshots().iter().map(|s| s.t).collect();
            let series_times: Vec<f64> = series
                .points()
                .iter()
                .step_by(stride)
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(rec_times, series_times, "pushes = {pushes}");
            assert_eq!(tl.seen(), pushes);
            assert_eq!(tl.last().map(|s| s.t), Some((pushes - 1) as f64));
        }
    }

    #[test]
    fn state_recorder_always_keeps_exact_last_snapshot() {
        let mut rec = StateRecorder::with_capacity(4);
        for i in 0..100 {
            rec.push(snap(i as f64));
        }
        let tl = rec.into_timeline();
        assert_eq!(tl.last().map(|s| s.t), Some(99.0));
        assert!(tl.snapshots().len() <= 4);
        assert_eq!(tl.seen(), 100);
        assert!(tl.stride() > 1);
        assert_eq!(tl.core_count(), 1);
        assert!(!tl.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn state_recorder_capacity_below_two_panics() {
        let _ = StateRecorder::with_capacity(1);
    }

    #[test]
    fn empty_timeline_is_default() {
        let tl = StateTimeline::default();
        assert!(tl.is_empty());
        assert_eq!(tl.last(), None);
        assert_eq!(tl.stride(), 1);
        assert_eq!(tl.core_count(), 0);
    }

    #[test]
    fn phase_table_round_trips_indices() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names, ["pid", "fault", "map", "schedule", "events", "thermal"]);
    }

    #[test]
    fn phase_profile_entries_cover_every_counter() {
        let mut p = PhaseProfile::default();
        p.epochs = 1;
        p.launches_high_water = 7;
        let entries = p.entries();
        assert_eq!(entries.len(), PhaseProfile::COUNT);
        // Names must be unique (they become prom metric labels).
        let mut names: Vec<&str> = entries.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PhaseProfile::COUNT);
        assert!(entries.contains(&("epochs", 1)));
        assert!(entries.contains(&("launches_high_water", 7)));
        p.free_set_queries = 11;
        p.heap_pops = 3;
        let entries = p.entries();
        assert!(entries.contains(&("free_set_queries", 11)));
        assert!(entries.contains(&("heap_pops", 3)));
        assert!(entries.contains(&("dirty_marks", 0)));
        PhaseProfile::raise(&mut p.batch_high_water, 5);
        PhaseProfile::raise(&mut p.batch_high_water, 3);
        assert_eq!(p.batch_high_water, 5);
    }

    #[test]
    fn null_phase_observer_is_a_noop() {
        let mut obs = NullPhaseObserver;
        obs.enter(Phase::Pid);
        obs.exit(Phase::Pid);
    }
}
