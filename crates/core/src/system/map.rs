//! The map phase: FIFO admission of pending applications. Each admitted
//! app gets a DVFS level that fits the power headroom, a placement from
//! the runtime mapper and a power reservation.

use super::*;

/// The state only the map phase writes.
pub(super) struct MapPhase {
    /// The mapper's platform snapshot, rebuilt in place every tick so
    /// the steady-state hot path never touches the heap.
    pub(super) ctx: MapContext,
}

impl System {
    /// Rebuilds the mapper's platform snapshot for time `now` and returns
    /// it. The snapshot lives in a scratch buffer owned by the system, so
    /// after the first control tick this performs **zero heap
    /// allocations**: the `map_context_allocs` integration test in
    /// `crates/bench/tests/` holds it to that.
    pub fn map_context(&mut self, now: f64) -> &MapContext {
        self.fill_map_context(now, None);
        &self.map.ctx
    }

    /// Rebuilds the mapper's snapshot in place. The nodes of `offer_back`
    /// (an app being remapped) count as free, so the mapper may keep them.
    pub(super) fn fill_map_context(&mut self, now: f64, offer_back: Option<AppId>) {
        self.profile.ctx_rebuilds += 1;
        let ctx = &mut self.map.ctx;
        ctx.reset(self.mesh);
        for i in 0..self.mesh.node_count() {
            let s = self.stress.core(i);
            let offered =
                offer_back.is_some_and(|id| self.store.owner(i).is_some_and(|(app, _)| app == id));
            // A core with a session in flight is about to *complete* a
            // test: mapping onto it wastes the invested test energy, so it
            // is maximally undesirable to a test-aware mapper.
            let in_test = if self.store.has_session(i) { 5.0 } else { 0.0 };
            // Withdrawn = quarantined *or* on probation: no app may be
            // mapped onto a core between quarantine and `CoreReadmitted`
            // (the audit's lifecycle sequence invariant).
            ctx.push_node_health(
                self.store.is_free_for_mapping(i) || offered,
                !self.health.is_withdrawn(i),
                s.utilization.clamp(0.0, 1.0),
                self.criticality.criticality(s, now).max(0.0) + in_test,
            );
        }
        debug_assert!(ctx.is_complete());
    }

    pub(super) fn admit_pending(&mut self, now: f64) {
        self.profile.admit_scans += 1;
        PhaseProfile::raise(&mut self.profile.pending_high_water, self.pending.len());
        // The mapper snapshot is rebuilt at most once per control tick:
        // after each admission the claimed nodes are patched in place
        // (occupancy and the in-test criticality bias are the only inputs
        // that can change between admissions of the same tick), which is
        // bit-identical to a full rebuild because stress, health and `now`
        // are constant until the event phase runs.
        let mut ctx_fresh = false;
        while let Some(entry) = self.pending.pop_front() {
            let task_count = entry.app.graph.task_count();
            if task_count > self.mesh.node_count() {
                // Can never fit on this platform.
                self.report.apps_rejected += 1;
                self.tel.observe_linked(
                    now,
                    Some(entry.cause),
                    SimEvent::AppRejected {
                        app: entry.app.id.0,
                        tasks: task_count as u32,
                    },
                );
                continue;
            }
            // Everything the head app needs, or `None` when it must wait
            // at the head of the queue.
            let admission = 'fit: {
                // Maintained free set: O(1) instead of filtering every
                // core per pending application.
                self.profile.free_set_queries += 1;
                if self.store.mappable_count() < task_count {
                    break 'fit None;
                }
                // DVFS admission: the highest level whose projected power
                // fits the current headroom.
                let headroom = self.budget.headroom();
                let per_core_cap = headroom / task_count as f64;
                let Some(op) = self.scheduler.ladder().highest_under(per_core_cap, |op| {
                    self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY)
                }) else {
                    break 'fit None; // not even near-threshold fits: wait for power
                };
                if !ctx_fresh {
                    self.map_context(now);
                    ctx_fresh = true;
                }
                // Fragmentation (or an empty placement, which has no
                // region): wait for departures.
                let Some(mapping) = self.mapper.map(&self.map.ctx, &entry.app.graph) else {
                    break 'fit None;
                };
                let Some(region) = mapping.bounding_box() else { break 'fit None };
                let watts = task_count as f64
                    * self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY);
                let Ok(reservation) = self.budget.reserve(watts) else { break 'fit None };
                Some((op, mapping, region, watts, reservation))
            };
            let Some((op, mapping, (bb_min, bb_max), watts, reservation)) = admission else {
                // lint:allow(hot-path-purity, reason = "puts back the entry popped above, into the slot that pop freed")
                self.pending.push_front(entry);
                break;
            };
            let PendingApp { app, cause } = entry;
            let queue_wait = now - app.arrival.as_secs_f64();
            let hop_cost = mapping.weighted_hop_cost(&app.graph);
            self.metrics.queue_wait.push(queue_wait);
            self.metrics.hop_cost.push(hop_cost);
            let id = app.id;
            self.profile.apps_admitted += 1;
            let mapped_event = self.tel.observe_linked(
                now,
                Some(cause),
                SimEvent::AppMapped {
                    app: id.0,
                    tasks: task_count as u32,
                    first_node: self.mesh.node_id(mapping.coord_of(TaskId(0))).index() as u32,
                    region_w: (bb_max.x - bb_min.x + 1) as u16,
                    region_h: (bb_max.y - bb_min.y + 1) as u16,
                    level: op.level.0,
                    hop_cost,
                    queue_wait,
                    headroom: self.budget.headroom(),
                },
            );
            // Claim the cores (aborting any test sessions on them),
            // patching the mapper snapshot instead of rebuilding it for
            // the next admission of this tick.
            for t in 0..task_count as u32 {
                let task = TaskId(t);
                let coord = mapping.coord_of(task);
                let core = self.mesh.node_id(coord).index();
                if self.store.has_session(core) {
                    self.abort_session(core, now, AbortReason::MappedOver);
                    // The abort dropped the in-test bias; restore the
                    // node's bare criticality (same expression
                    // `map_context` evaluates, same inputs → same bits).
                    let s = self.stress.core(core);
                    self.map
                        .ctx
                        .set_criticality(coord, self.criticality.criticality(s, now).max(0.0));
                    self.profile.ctx_delta_updates += 1;
                }
                debug_assert!(self.store.owner(core).is_none());
                self.store.set_owner(core, Some((id, task)));
                self.map.ctx.set_free(coord, false);
                self.profile.ctx_delta_updates += 1;
                self.set_mode(core, now, CoreMode::Idle(op));
            }
            let graph = app.graph;
            let roots = graph.roots();
            let inc = self.next_inc;
            self.next_inc += 1;
            let running = RunningApp {
                id,
                // lint:allow(hot-path-purity, reason = "admission materializes the per-app task table once per admitted app, not per epoch")
                tasks: vec![TaskState::Waiting; task_count],
                graph,
                mapping,
                op,
                reservation,
                per_task_watts: watts / task_count as f64,
                done_count: 0,
                arrived_at: app.arrival.as_secs_f64(),
                started_at: now,
                last_checkpoint: now,
                inc,
                mapped_event,
            };
            self.running.insert_app(id.0, running);
            PhaseProfile::raise(&mut self.profile.running_high_water, self.running.len());
            for root in roots {
                let ev = Ev::TaskReady { app: id.0, task: root, inc };
                self.queue.schedule(SimTime::from_secs_f64(now), ev);
            }
        }
    }
}
