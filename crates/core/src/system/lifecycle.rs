//! The lifecycle lane: the fault response (quarantine, then abort,
//! restart or migrate the victim app), the re-admission lane that probes
//! quarantined cores, and the checkpoints that bound a migration.

use super::*;

/// Architectural-state transfer time charged per *checkpoint image* of
/// each task a [`FaultResponsePolicy::MigrateRegion`] remap moves. The
/// actual per-task charge scales with the dirty span since the app's
/// last checkpoint (see [`DIRTY_SPAN_REF_SECS`]).
const MIGRATION_DELAY: manytest_sim::Duration = manytest_sim::Duration::from_us(200);

/// Clean probes in a row that re-admit a quarantined core.
const PROBE_PASSES: u8 = 3;

/// Probation rounds the re-admission lane keeps in flight at once.
pub(super) const PROBE_BUDGET: u32 = 2;

/// Cap on the probation-retry backoff exponent: the probe cadence
/// multiplier saturates at `2^PROBE_BACKOFF_CAP`.
const PROBE_BACKOFF_CAP: u8 = 4;

/// Architectural-state payload a migrated task ships across the NoC,
/// per checkpoint image (the dirty span scales the actual charge).
const MIGRATION_STATE_BITS: f64 = 65_536.0;

/// Reference dirty span for the migration charge: each moved task pays
/// `MIGRATION_DELAY × (1 + dirty / REF)` in transfer delay and
/// `MIGRATION_STATE_BITS × (1 + dirty / REF)` in NoC traffic, where
/// `dirty` is the time since the owning app's last checkpoint. With
/// checkpointing disabled the dirty span runs back to admission, so the
/// charge grows with everything the app ever computed.
const DIRTY_SPAN_REF_SECS: f64 = 0.010;

/// Fraction of the migration delay a checkpoint pause costs each live
/// task (the image write is local, so it is much cheaper than a
/// cross-mesh transfer of the same state).
const CHECKPOINT_PAUSE_FRACTION: f64 = 0.25;

/// Structural coverage of the re-admission lane's probe routine: a
/// short pattern replaying the confirmed failure signature, so its
/// per-pass coverage stays high despite the reduced instruction count.
const PROBE_COVERAGE: f64 = 0.9;

/// Fraction of the baseline SBST routine's instruction count a probe
/// executes (it targets one known signature, not the whole block).
const PROBE_INSTRUCTION_FRACTION: f64 = 0.25;

/// The state only the lifecycle lane writes.
pub(super) struct LifecycleLane {
    /// Per-core earliest next probe time (quarantine time + cadence,
    /// backed off exponentially after failed probation rounds).
    pub(super) probe_next_at: Vec<f64>,
    /// Per-core probe staleness counter (mirrors the session-generation
    /// scheme; probes are never aborted today, but the guard keeps the
    /// event-queue contract uniform).
    pub(super) probe_gen: Vec<u64>,
    /// Probation rounds currently holding a lane-budget slot.
    pub(super) probes_inflight: u32,
    /// The apps due for a checkpoint this epoch (capacity reused).
    pub(super) checkpoint_due: Vec<u64>,
}

/// What a quarantine does to the application on the withdrawn core.
#[derive(Clone, Copy)]
pub(super) enum Response {
    Abort,
    Restart,
    Migrate,
}

impl Response {
    /// The response `policy` configures: none under `Ignore`, which
    /// opens no suspicion, so no retest can ever quarantine a core.
    pub(super) fn of(policy: FaultResponsePolicy) -> Option<Response> {
        match policy {
            FaultResponsePolicy::Ignore => None,
            FaultResponsePolicy::Abort => Some(Response::Abort),
            FaultResponsePolicy::RestartElsewhere => Some(Response::Restart),
            FaultResponsePolicy::MigrateRegion => Some(Response::Migrate),
        }
    }
}

impl System {
    // ----- fault response -------------------------------------------------

    /// Withdraws `core` permanently: records the quarantine (and whether
    /// it was false), relocates or kills the victim application per
    /// `response`, power-gates the core and derates the admission budget
    /// to the surviving capacity. The `CoreQuarantined` event is emitted
    /// *before* the gating `DvfsTransition`, which the audit sequence
    /// invariant relies on.
    pub(super) fn quarantine_core(
        &mut self,
        core: usize,
        retests: u32,
        now: f64,
        cause: CauseLink,
        response: Response,
    ) {
        self.health.quarantine(core);
        // Mirror the health bit into the store so the maintained
        // mappable count drops without consulting the board.
        self.store.set_quarantined(core);
        self.report.cores_quarantined += 1;
        if !self.faults.has_solid_active_fault(core, now) {
            // Nothing solid on the core: intermittent symptoms or false
            // positives were confirmed by chance. Capacity lost for less
            // than a hard fault — the price of believing retests.
            self.report.false_quarantines += 1;
        }
        self.tel.suspect_cause[core] = None;
        let qid = self.tel.observe_linked(
            now,
            Some(cause),
            SimEvent::CoreQuarantined {
                core: core as u32,
                retests,
            },
        );
        // Arm the re-admission lane (when configured): the first probe
        // fires one cadence after withdrawal, and every probe on this
        // core chains back to this quarantine.
        self.tel.quarantine_event[core] = Some(qid);
        if let Some(cadence) = self.config.probe_cadence {
            self.lane.probe_next_at[core] = now + cadence.as_secs_f64();
        }
        if let Some((victim, _)) = self.store.owner(core) {
            match response {
                Response::Abort => self.abort_app(victim.0, core, now, qid),
                Response::Restart => self.restart_app(victim.0, core, now, qid),
                Response::Migrate => self.migrate_app(victim.0, core, now, qid),
            }
        }
        if self.store.owner(core).is_none() {
            self.set_mode(core, now, CoreMode::Off);
        }
        debug_assert!(
            self.store.owner(core).is_none(),
            "quarantined core must be vacated"
        );
        self.derate_to_surviving_capacity();
    }

    /// Re-derates the admission budget to the capacity outside
    /// withdrawal (quarantine + probation); called on every lifecycle
    /// edge that changes the withdrawn set.
    fn derate_to_surviving_capacity(&mut self) {
        let n = self.store.len();
        self.budget
            .set_derating((n - self.health.withdrawn_count()) as f64 / n as f64);
    }

    // ----- re-admission lane ----------------------------------------------

    /// Scans for quarantined cores whose probe cadence is due and opens
    /// probation rounds for them, capped by the lane budget. A probation
    /// round holds its budget slot from the first probe until the
    /// readmit/requarantine verdict.
    pub(super) fn probe_lane(&mut self, now: f64) {
        if self.config.probe_cadence.is_none() {
            return;
        }
        for core in 0..self.store.len() {
            if self.lane.probes_inflight >= PROBE_BUDGET {
                break;
            }
            if !self.health.is_quarantined(core) || now < self.lane.probe_next_at[core] {
                continue;
            }
            self.health.begin_probation(core);
            self.lane.probes_inflight += 1;
            self.launch_probe(core, now);
        }
    }

    /// Launches one low-V/f probe on a probation core: emits
    /// `CoreProbeLaunched` (chained to the quarantine that opened the
    /// lane), powers the core to the ladder floor for the probe's
    /// duration and schedules the verdict. Probes bypass the session
    /// store, the test scheduler and the power-reservation system — the
    /// lane runs in the capacity slice the derating already withdrew.
    fn launch_probe(&mut self, core: usize, now: f64) {
        self.report.probes_launched += 1;
        let streak = u32::from(self.health.probe_streak(core));
        let lane = self.tel.quarantine_event[core]
            .map(|id| CauseLink::new(CauseKind::ProbeLane, id));
        debug_assert!(lane.is_some(), "probing a never-quarantined core");
        let pid = self.tel.observe_linked(
            now,
            lane,
            SimEvent::CoreProbeLaunched {
                core: core as u32,
                streak,
                inflight: self.lane.probes_inflight,
            },
        );
        self.tel.probe_event[core] = Some(pid);
        let op = self.scheduler.ladder().point(VfLevel(0));
        let (duration, activity) = {
            let routine = self.scheduler.library().routine(RoutineId(0));
            (
                routine.duration(op.frequency, 1.0) * PROBE_INSTRUCTION_FRACTION,
                routine.activity,
            )
        };
        self.set_mode(core, now, CoreMode::Testing(op, activity));
        self.lane.probe_gen[core] += 1;
        let gen = self.lane.probe_gen[core];
        let finish = now + duration;
        let ev = Ev::ProbeFinish { core, gen };
        self.queue.schedule(SimTime::from_secs_f64(finish), ev);
    }

    /// Resolves a completed probe: a manifested fault fails probation
    /// (re-quarantine, exponential cadence backoff); a clean probe banks
    /// one pass and either launches the next probe back to back or, once
    /// the streak reaches the configured passes, re-admits the core to
    /// the mappable pool.
    pub(super) fn on_probe_finish(&mut self, core: usize, gen: u64, now: f64) {
        if self.lane.probe_gen[core] != gen || !self.health.is_probation(core) {
            return; // stale event
        }
        let Some(pid) = self.tel.probe_event[core].take() else {
            debug_assert!(false, "probation core {core} has no live probe event");
            return;
        };
        let manifested =
            self.faults
                .probe(core, PROBE_COVERAGE, VfLevel(0), now, &mut self.rng_faults);
        if manifested {
            let backoff = self.health.fail_probation(core);
            self.report.cores_requarantined += 1;
            let rid = self.tel.emit_caused(
                now,
                CauseKind::ProbeFailed,
                pid,
                SimEvent::CoreRequarantined {
                    core: core as u32,
                    backoff: u32::from(backoff),
                },
            );
            self.tel.quarantine_event[core] = Some(rid);
            if let Some(cadence) = self.config.probe_cadence {
                // At most 2^4: the shift and the conversion are exact.
                let exp = backoff.min(PROBE_BACKOFF_CAP);
                self.lane.probe_next_at[core] =
                    now + cadence.as_secs_f64() * f64::from(1u8 << exp);
            }
            self.lane.probes_inflight -= 1;
            self.set_mode(core, now, CoreMode::Off);
            return;
        }
        let streak = self.health.note_probe_pass(core);
        if streak < PROBE_PASSES {
            self.launch_probe(core, now);
            return;
        }
        let probes = u32::from(self.health.readmit(core));
        self.report.cores_readmitted += 1;
        // Mirror the health bit back into the store: the maintained
        // mappable count recovers without consulting the board.
        self.store.set_healthy(core, true);
        self.tel.emit_caused(
            now,
            CauseKind::ProbePassed,
            pid,
            SimEvent::CoreReadmitted {
                core: core as u32,
                probes,
            },
        );
        self.tel.quarantine_event[core] = None;
        self.lane.probe_next_at[core] = f64::INFINITY;
        self.lane.probes_inflight -= 1;
        self.set_mode(core, now, CoreMode::Off);
        self.derate_to_surviving_capacity();
    }

    // ----- checkpointing ---------------------------------------------------

    /// Writes a checkpoint image for every running application whose
    /// dirty span reached the configured interval. Only meaningful under
    /// [`FaultResponsePolicy::MigrateRegion`] (the only policy that ever
    /// replays checkpointed state); a zero interval disables the scan.
    pub(super) fn checkpoint_apps(&mut self, now: f64) {
        if !matches!(self.config.fault_response, FaultResponsePolicy::MigrateRegion) {
            return;
        }
        let interval = self.config.checkpoint_interval.as_secs_f64();
        if interval <= 0.0 {
            return;
        }
        let mut due = std::mem::take(&mut self.lane.checkpoint_due);
        due.clear();
        // lint:allow(hot-path-purity, reason = "scratch buffer reuses its capacity across epochs; extend allocates only until the high-water mark")
        due.extend(
            self.running
                .iter()
                .filter(|(_, a)| now - a.last_checkpoint >= interval)
                .map(|(id, _)| id),
        );
        for app_id in due.drain(..) {
            self.checkpoint_app(app_id, now);
        }
        self.lane.checkpoint_due = due;
    }

    /// Captures one application's live task state: every non-done task
    /// pauses for the image write (a fraction of the migration delay,
    /// re-issued under a fresh instance counter exactly like a
    /// migration), the dirty span resets, and `AppCheckpointed` chains
    /// back to the placement it protects.
    fn checkpoint_app(&mut self, app_id: u64, now: f64) {
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "checkpoint target {app_id} is not running");
            return;
        };
        app.last_checkpoint = now;
        let live = app
            .tasks
            .iter()
            .filter(|t| !matches!(t, TaskState::Done { .. }))
            .count();
        if live == 0 {
            // Fully computed; only the completion event is in flight.
            return;
        }
        let pause = MIGRATION_DELAY.as_secs_f64() * CHECKPOINT_PAUSE_FRACTION;
        app.inc = self.next_inc;
        self.next_inc += 1;
        reissue(&mut self.queue, &self.noc, app_id, app, now, |_, _| pause);
        self.report.apps_checkpointed += 1;
        let mapped_event = app.mapped_event;
        self.tel.emit_caused(
            now,
            CauseKind::Checkpoint,
            mapped_event,
            SimEvent::AppCheckpointed {
                app: app_id,
                tasks: live as u32,
                bytes: (live as u64) * (MIGRATION_STATE_BITS as u64 / 8),
            },
        );
    }

    // ----- victim handling -------------------------------------------------

    /// Tears a running application down: frees every core it still owns,
    /// returns its power reservation, and orphans its in-flight events
    /// (their instance counter no longer matches any running app — and if
    /// the app is later re-admitted under the same id, the new instance
    /// gets a fresh counter). Returns the pieces a restart needs, or
    /// `None` when the victim is not actually running (a caller bug the
    /// fault-response paths guard with a debug assertion).
    fn teardown_app(
        &mut self,
        app_id: u64,
        now: f64,
    ) -> Option<(AppId, manytest_workload::TaskGraph, f64)> {
        let app = self.running.remove_app(app_id)?;
        for t in 0..app.tasks.len() {
            let task = TaskId(t as u32);
            let core = self.mesh.node_id(app.mapping.coord_of(task)).index();
            if self.store.owner(core) == Some((app.id, task)) {
                self.store.set_owner(core, None);
                self.set_mode(core, now, CoreMode::Off);
            }
        }
        self.budget.release(app.reservation);
        Some((app.id, app.graph, app.arrived_at))
    }

    fn abort_app(&mut self, app_id: u64, core: usize, now: f64, qid: EventId) {
        let Some((id, _graph, _arrived)) = self.teardown_app(app_id, now) else {
            debug_assert!(false, "quarantine victim {app_id} is not running");
            return;
        };
        self.report.apps_aborted += 1;
        self.tel.emit_caused(
            now,
            CauseKind::Quarantine,
            qid,
            SimEvent::AppAborted {
                app: id.0,
                core: core as u32,
            },
        );
    }

    /// Re-queues the victim at the *front* of the pending queue with its
    /// original arrival stamp: it lost its progress, not its priority.
    // lint:effect(alloc, reason = "fault-response lane: requeueing a restarted app is quarantine-proportional, not epoch-proportional")
    fn restart_app(&mut self, app_id: u64, core: usize, now: f64, qid: EventId) {
        let Some((id, graph, arrived_at)) = self.teardown_app(app_id, now) else {
            debug_assert!(false, "quarantine victim {app_id} is not running");
            return;
        };
        self.report.apps_restarted += 1;
        let restarted = self.tel.emit_caused(
            now,
            CauseKind::Quarantine,
            qid,
            SimEvent::AppRestarted {
                app: id.0,
                core: core as u32,
            },
        );
        // The eventual re-admission (AppMapped/AppRejected) chains back
        // through this restart rather than the original arrival.
        let arrival = SimTime::from_secs_f64(arrived_at);
        self.pending.push_front(PendingApp {
            app: Application { id, graph, arrival },
            cause: CauseLink::new(CauseKind::Restart, restarted),
        });
    }

    /// Remaps the victim in place: surviving tasks keep their progress,
    /// displaced live tasks move to healthy cores and pay the
    /// architectural-state transfer as a completion delay plus NoC
    /// traffic. Falls back to [`System::restart_app`] when no healthy
    /// placement exists.
    // lint:effect(alloc, reason = "fault-response lane: remapping a migrated app is quarantine-proportional, not epoch-proportional")
    fn migrate_app(&mut self, app_id: u64, bad_core: usize, now: f64, qid: EventId) {
        // Remap context: the app's own nodes are offered back as free;
        // the quarantined node (like every unhealthy node) is excluded.
        self.fill_map_context(now, Some(AppId(app_id)));
        // Work on the entry by value: the remap calls `&mut self` methods
        // (`set_mode`, `abort_session`) while it holds the app, so one
        // invariant-checked removal replaces every panicking lookup
        // below, and the entry goes back into the map before the
        // migration event fires.
        let Some(mut app) = self.running.remove_app(app_id) else {
            debug_assert!(false, "quarantine victim {app_id} is not running");
            return;
        };
        let new_mapping = match self.mapper.remap(&self.map.ctx, &app.graph) {
            Some(m) => m,
            None => {
                self.running.insert_app(app_id, app);
                self.restart_app(app_id, bad_core, now, qid);
                return;
            }
        };
        app.inc = self.next_inc;
        self.next_inc += 1;
        // Checkpoint-proportional charge: each moved task ships its last
        // checkpoint image plus everything dirtied since, so both the
        // transfer delay and the NoC payload scale with the dirty span.
        // With checkpointing disabled the span runs back to admission.
        let dirty = (now - app.last_checkpoint).max(0.0);
        let factor = 1.0 + dirty / DIRTY_SPAN_REF_SECS;
        let delay = MIGRATION_DELAY.as_secs_f64() * factor;
        let state_bits = MIGRATION_STATE_BITS * factor;
        let task_count = app.tasks.len();
        let op = app.op;
        // The transfer re-materialises every surviving task's state at
        // its destination: the app is effectively checkpointed now.
        app.last_checkpoint = now;
        let old_mapping = std::mem::replace(&mut app.mapping, new_mapping);
        let mut moved_tasks = 0u32;
        let mut total_delay = 0.0;
        // Vacate every displaced task's old core before claiming any new
        // one: a moved task may land on a sibling's old core, which is
        // only safe once the whole old footprint is released.
        for t in 0..task_count {
            let task = TaskId(t as u32);
            let old = old_mapping.coord_of(task);
            if old == app.mapping.coord_of(task) {
                continue;
            }
            let oc = self.mesh.node_id(old).index();
            if self.store.owner(oc) == Some((AppId(app_id), task)) {
                self.store.set_owner(oc, None);
                self.set_mode(oc, now, CoreMode::Off);
            }
        }
        for t in 0..task_count {
            let task = TaskId(t as u32);
            let old = old_mapping.coord_of(task);
            let new = app.mapping.coord_of(task);
            if old == new {
                continue;
            }
            let state = app.tasks[t];
            if matches!(state, TaskState::Done { .. }) {
                continue; // finished tasks have no live state to move
            }
            moved_tasks += 1;
            total_delay += delay;
            let nc = self.mesh.node_id(new).index();
            if self.store.has_session(nc) {
                self.abort_session(nc, now, AbortReason::MappedOver);
            }
            debug_assert!(self.store.owner(nc).is_none());
            self.store.set_owner(nc, Some((AppId(app_id), task)));
            let mode = if matches!(state, TaskState::Running { .. }) {
                CoreMode::Busy(op)
            } else {
                CoreMode::Idle(op)
            };
            self.set_mode(nc, now, mode);
            // The state transfer crosses the NoC like any other message.
            if self.config.model_contention {
                self.noc.traffic.charge_route(old, new, state_bits);
            }
            let cost = self.noc.model.message_cost(old, new, state_bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Moved tasks finish (or become ready) one transfer delay late.
        let penalty = |task, at| {
            if old_mapping.coord_of(task) == at {
                0.0
            } else {
                delay
            }
        };
        reissue(&mut self.queue, &self.noc, app_id, &mut app, now, penalty);
        self.running.insert_app(app_id, app);
        self.report.apps_migrated += 1;
        self.tel.emit_caused(
            now,
            CauseKind::Quarantine,
            qid,
            SimEvent::AppMigrated {
                app: app_id,
                core: bad_core as u32,
                moved_tasks,
                delay: total_delay,
            },
        );
    }
}

/// Re-issues the in-flight timing of `app` (app `app_id`) under its new
/// instance counter, in task order: a running task finishes `penalty`
/// later than it would have, and a waiting task whose inputs have all
/// arrived becomes ready `penalty` after the later of its ready time and
/// `now`. `penalty` is called with each live task and the node it now
/// runs on; a waiting task with an unfinished predecessor gets nothing,
/// since that predecessor's completion wakes it under the new counter.
fn reissue(
    queue: &mut EventQueue<Ev>,
    noc: &Noc,
    app_id: u64,
    app: &mut RunningApp,
    now: f64,
    penalty: impl Fn(TaskId, Coord) -> f64,
) {
    let inc = app.inc;
    for t in 0..app.tasks.len() {
        let task = TaskId(t as u32);
        let at = app.mapping.coord_of(task);
        match app.tasks[t] {
            TaskState::Running { finish } => {
                let finish = finish + penalty(task, at);
                app.tasks[t] = TaskState::Running { finish };
                let ev = Ev::TaskFinish { app: app_id, task, inc };
                queue.schedule(SimTime::from_secs_f64(finish), ev);
            }
            TaskState::Waiting => {
                let latency = |p: TaskId, bits| noc.latency(app.mapping.coord_of(p), at, bits);
                let Some(ready) = app.ready_time(task, latency) else { continue };
                let ready = ready.max(now) + penalty(task, at);
                let ev = Ev::TaskReady { app: app_id, task, inc };
                queue.schedule(SimTime::from_secs_f64(ready), ev);
            }
            TaskState::Done { .. } => {}
        }
    }
}
