//! Decision telemetry: the event log, the id counter and the open cause
//! links later events chain back to. Emitting borrows nothing else, so a
//! fault-log callback can emit while the fault log itself is borrowed.

use super::*;

/// The run's telemetry state; every control-loop emission funnels
/// through [`Telemetry::observe_linked`].
pub(super) struct Telemetry {
    /// The decision log, attached only by
    /// [`SystemBuilder::capture_events`].
    pub(super) events: Option<EventLog>,
    /// Next [`EventId`] to mint: a per-run emission sequence number, so
    /// ids are strictly increasing and `cause.id < id` holds by
    /// construction (which is what makes the provenance graph a DAG).
    next_event_id: u64,
    /// Per-core id of the most recent `FaultActivated` (detections on
    /// the core link back to it).
    pub(super) fault_cause: Vec<Option<EventId>>,
    /// Per-core id of the open `CoreSuspected` (retest-lane launches
    /// link back to it; cleared on quarantine or clearance).
    pub(super) suspect_cause: Vec<Option<EventId>>,
    /// Per-core id of the live session's `TestLaunched` (completion and
    /// abort link back to it).
    pub(super) session_cause: Vec<Option<EventId>>,
    /// Id of this epoch's `CapAdjusted` (power denials link back to it).
    pub(super) last_cap_event: Option<EventId>,
    /// Per-core id of the latest `CoreQuarantined`/`CoreRequarantined`
    /// (re-admission-lane probes link back to it; cleared on readmit).
    pub(super) quarantine_event: Vec<Option<EventId>>,
    /// Per-core id of the live probe's `CoreProbeLaunched` (the
    /// probation verdict links back to it).
    pub(super) probe_event: Vec<Option<EventId>>,
}

impl Telemetry {
    /// Telemetry for `n` cores, with a log of `capacity` records when
    /// the run captures one.
    pub(super) fn new(capacity: Option<usize>, n: usize) -> Self {
        Telemetry {
            events: capacity.map(EventLog::bounded),
            next_event_id: 0,
            fault_cause: vec![None; n],
            suspect_cause: vec![None; n],
            session_cause: vec![None; n],
            last_cap_event: None,
            quarantine_event: vec![None; n],
            probe_event: vec![None; n],
        }
    }

    /// Emits one *root* event (no cause link); see [`System::observe`].
    #[inline]
    pub(super) fn observe(&mut self, now: f64, ev: SimEvent) -> EventId {
        self.observe_linked(now, None, ev)
    }

    /// Emits one event with an optional provenance link. This is the
    /// single choke point every control-loop emission funnels through
    /// (the emission-coverage lint bans direct `push_record` and
    /// `push_caused` calls in the control loop), so every event gets a
    /// deterministic id.
    #[inline]
    pub(super) fn observe_linked(
        &mut self,
        now: f64,
        cause: Option<CauseLink>,
        ev: SimEvent,
    ) -> EventId {
        let log = self.events.as_mut();
        // lint:allow(event-emission-coverage, reason = "the id-minting funnel itself: this is the one audited raw emit_record every helper routes through")
        emit_record(log, &mut self.next_event_id, now, cause, ev)
    }

    /// Emits one event caused by `cause` via a `kind` link.
    #[inline]
    pub(super) fn emit_caused(
        &mut self,
        now: f64,
        kind: CauseKind,
        cause: EventId,
        ev: SimEvent,
    ) -> EventId {
        self.observe_linked(now, Some(CauseLink::new(kind, cause)), ev)
    }
}
