//! Execution-plane state: core modes and in-flight applications.
//!
//! Per-core runtime state (owner, session, mode, accounting watermark)
//! lives in the struct-of-arrays [`crate::store::CoreStore`]; this
//! module keeps the mode enum it stores plus the per-application state.

use manytest_power::{OperatingPoint, Reservation};
use manytest_workload::{AppId, Application, TaskGraph, TaskId};
use manytest_map::Mapping;
use std::collections::VecDeque;

/// What a core is doing right now (drives its power draw).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreMode {
    /// Power-gated: unallocated and not testing. Draws nothing.
    Off,
    /// Allocated to an application but its task is not running yet;
    /// clocked at the application's operating point.
    Idle(OperatingPoint),
    /// Executing a task at the application's operating point.
    Busy(OperatingPoint),
    /// Running an SBST routine at the session's operating point with the
    /// routine's activity factor.
    Testing(OperatingPoint, f64),
}

/// Lifecycle of one task inside a running application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskState {
    /// Waiting for predecessors (and their messages).
    Waiting,
    /// All inputs have arrived; waiting for its core (e.g. test abort) or
    /// already executing until the recorded finish time.
    Running {
        /// Exact completion time, seconds.
        finish: f64,
    },
    /// Completed at the recorded time.
    Done {
        /// Exact completion time, seconds.
        at: f64,
    },
}

/// An admitted application executing on the mesh.
#[derive(Debug)]
pub struct RunningApp {
    /// Identity of this instance.
    pub id: AppId,
    /// The task graph being executed.
    pub graph: TaskGraph,
    /// Task → core assignment.
    pub mapping: Mapping,
    /// Operating point all of the app's cores run at.
    pub op: OperatingPoint,
    /// Power reserved for the application's still-incomplete tasks.
    pub reservation: Reservation,
    /// Watts reserved per task; returned to the budget as tasks finish.
    pub per_task_watts: f64,
    /// Per-task lifecycle.
    pub tasks: Vec<TaskState>,
    /// Number of tasks in `Done`.
    pub done_count: usize,
    /// Arrival time, seconds (for latency statistics).
    pub arrived_at: f64,
    /// Admission time, seconds.
    pub started_at: f64,
    /// Time of the last checkpoint image (admission counts as one: the
    /// mapped state is clean). A later migration transfers only the
    /// state dirtied since this stamp.
    pub last_checkpoint: f64,
    /// Admission-instance counter: task events carry the value current at
    /// scheduling time, so events from before a restart or migration of
    /// the same application id are recognised as stale and dropped.
    pub inc: u64,
    /// Id of the `AppMapped` event that admitted this instance; the
    /// eventual `AppCompleted` links back to it (provenance).
    pub mapped_event: manytest_sim::EventId,
}

impl RunningApp {
    /// True once every task completed.
    pub fn is_complete(&self) -> bool {
        self.done_count == self.tasks.len()
    }

    /// The time the last input message for `task` arrives, or `None`
    /// while a predecessor is not done.
    ///
    /// One pass over `task`'s in-edges in edge order folds `f64::max`
    /// from `started_at` over each predecessor's completion time plus
    /// `edge_latency(predecessor, bits)`. A graph may repeat a pair; every
    /// copy then uses the first edge's `bits`.
    pub fn ready_time(
        &self,
        task: TaskId,
        edge_latency: impl Fn(TaskId, f64) -> f64,
    ) -> Option<f64> {
        let edges = self.graph.edges();
        let mut first_in = None;
        let mut ready = self.started_at;
        for (k, e) in edges.iter().enumerate() {
            if e.to != task {
                continue;
            }
            let TaskState::Done { at } = self.tasks[e.from.index()] else {
                return None;
            };
            let first = *first_in.get_or_insert(k);
            let bits = edges[first..k]
                .iter()
                .find(|f| f.from == e.from && f.to == task)
                .map_or(e.bits, |f| f.bits);
            ready = ready.max(at + edge_latency(e.from, bits));
        }
        Some(ready)
    }

    /// The successors whose last input `task`'s completion delivered, in
    /// out-edge order (a repeated edge repeats its successor), each with
    /// its [`RunningApp::ready_time`]; `edge_latency` is called as
    /// `(predecessor, successor, bits)`.
    pub fn woken_by<'a>(
        &'a self,
        task: TaskId,
        edge_latency: impl Fn(TaskId, TaskId, f64) -> f64 + 'a,
    ) -> impl Iterator<Item = (TaskId, f64)> + 'a {
        self.graph
            .out_edges(task)
            .filter(|e| matches!(self.tasks[e.to.index()], TaskState::Waiting))
            .filter_map(move |e| {
                self.ready_time(e.to, |p, bits| edge_latency(p, e.to, bits))
                    .map(|ready| (e.to, ready))
            })
    }
}

/// The readiness test as first written: a predecessor scan, then a second
/// scan that finds each predecessor's edge from the front of the edge
/// list. [`RunningApp::ready_time`] must match the two, bit for bit.
#[cfg(test)]
impl RunningApp {
    /// True if every predecessor of `task` is done.
    pub fn predecessors_done(&self, task: TaskId) -> bool {
        self.graph
            .predecessors(task)
            .all(|p| matches!(self.tasks[p.index()], TaskState::Done { .. }))
    }

    /// The time the last input message for `task` arrives, given each
    /// predecessor's completion time plus its edge latency. Only valid
    /// once [`Self::predecessors_done`] holds.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor is not done.
    // lint:effect(panic, reason = "documented # Panics contract: callers gate on predecessors_done, so a not-done predecessor is a scheduler bug")
    pub fn input_ready_time(&self, task: TaskId, edge_latency: impl Fn(TaskId, TaskId) -> f64) -> f64 {
        self.graph
            .predecessors(task)
            .map(|p| {
                let done_at = match self.tasks[p.index()] {
                    TaskState::Done { at } => at,
                    other => panic!("predecessor {p} not done: {other:?}"),
                };
                done_at + edge_latency(p, task)
            })
            .fold(self.started_at, f64::max)
    }

    /// [`RunningApp::ready_time`] by the two scans above, with
    /// `edge_latency` called as `(predecessor, bits)` on the first
    /// matching edge's volume.
    pub fn ready_time_reference(
        &self,
        task: TaskId,
        edge_latency: impl Fn(TaskId, f64) -> f64,
    ) -> Option<f64> {
        self.predecessors_done(task).then(|| {
            self.input_ready_time(task, |p, t| {
                let bits = self
                    .graph
                    .edges()
                    .iter()
                    .find(|e| e.from == p && e.to == t)
                    .map(|e| e.bits)
                    .unwrap_or(0.0);
                edge_latency(p, bits)
            })
        })
    }
}

/// The running applications, indexed by app id.
///
/// Ids are minted in arrival order and admission is FIFO, so the live
/// ids span a short window above the oldest live one. `window[k]` holds
/// 1 + the slab slot of app `base + k`, or 0 when that id is not
/// running; the entries live densely in `slab` with their ids. A lookup
/// is two loads, and walking the window visits the live apps in
/// ascending id, as a map keyed by id would. The window trims its dead
/// ends on removal and grows at either end on insertion (restarts and
/// migrations re-insert an id that may lie below `base`), so it spans
/// only the live ids, at four bytes per id.
///
/// Generic over the entry so the oracle test can drive it with plain
/// values; the system stores [`RunningApp`]s.
#[derive(Debug)]
pub(crate) struct AppTable<T> {
    base: u64,
    window: VecDeque<u32>,
    slab: Vec<(u64, T)>,
}

impl<T> AppTable<T> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        AppTable {
            base: 0,
            window: VecDeque::new(),
            slab: Vec::new(),
        }
    }

    /// Number of running apps.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// The window position of `id`, if the window covers it.
    #[inline]
    fn position(&self, id: u64) -> Option<usize> {
        let k = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (k < self.window.len()).then_some(k)
    }

    /// The slab slot of `id`, if it is running.
    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        (self.window[self.position(id)?] as usize).checked_sub(1)
    }

    /// The app with id `id`, if it is running.
    #[inline]
    pub(crate) fn get_app(&self, id: u64) -> Option<&T> {
        self.slot(id).map(|s| &self.slab[s].1)
    }

    /// The app with id `id`, mutably, if it is running.
    #[inline]
    pub(crate) fn get_app_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slot(id).map(|s| &mut self.slab[s].1)
    }

    /// Adds app `id`, returning the entry it replaces, if any.
    pub(crate) fn insert_app(&mut self, id: u64, app: T) -> Option<T> {
        if let Some(s) = self.slot(id) {
            return Some(std::mem::replace(&mut self.slab[s].1, app));
        }
        self.slab.push((id, app));
        // Live apps each hold a distinct core, far fewer than `u32::MAX`.
        let entry = self.slab.len() as u32;
        if self.window.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.base -= 1;
            // lint:allow(hot-path-purity, reason = "the window reuses its capacity; growth allocates only until the high-water span of live ids")
            self.window.push_front(0);
        }
        while self.position(id).is_none() {
            // lint:allow(hot-path-purity, reason = "the window reuses its capacity; growth allocates only until the high-water span of live ids")
            self.window.push_back(0);
        }
        let k = (id - self.base) as usize;
        self.window[k] = entry;
        None
    }

    /// Removes app `id` and returns it, if it is running.
    pub(crate) fn remove_app(&mut self, id: u64) -> Option<T> {
        let k = self.position(id)?;
        let s = (self.window[k] as usize).checked_sub(1)?;
        self.window[k] = 0;
        let (_, app) = self.slab.swap_remove(s);
        if let Some(&(moved, _)) = self.slab.get(s) {
            let m = (moved - self.base) as usize;
            self.window[m] = s as u32 + 1;
        }
        while self.window.front() == Some(&0) {
            self.window.pop_front();
            self.base += 1;
        }
        while self.window.back() == Some(&0) {
            self.window.pop_back();
        }
        Some(app)
    }

    /// The running apps with their ids, in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.window
            .iter()
            .filter(|&&entry| entry != 0)
            .map(|&entry| {
                let (id, app) = &self.slab[entry as usize - 1];
                (*id, app)
            })
    }
}

/// A queued application waiting for admission.
#[derive(Debug, Clone)]
pub struct PendingApp {
    /// The application (graph + identity + arrival stamp).
    pub app: Application,
    /// The event its admission or rejection links back to: its arrival,
    /// or the restart that re-queued it.
    pub cause: manytest_sim::CauseLink,
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_noc::Coord;
    use manytest_power::{TechNode, VfLadder, VfLevel};
    use manytest_workload::Task;

    fn ladder_op() -> OperatingPoint {
        VfLadder::for_node(TechNode::N16, 5).point(VfLevel(4))
    }

    fn two_task_app() -> (TaskGraph, Mapping) {
        let mut g = TaskGraph::new("pair");
        let a = g.add_task(Task { instructions: 100 });
        let b = g.add_task(Task { instructions: 100 });
        g.add_edge(a, b, 1000.0);
        let m = Mapping::new(vec![Coord::new(0, 0), Coord::new(1, 0)]);
        (g, m)
    }

    fn running(reservation: Reservation) -> RunningApp {
        let (graph, mapping) = two_task_app();
        RunningApp {
            id: AppId(1),
            tasks: vec![TaskState::Waiting; graph.task_count()],
            graph,
            mapping,
            op: ladder_op(),
            reservation,
            per_task_watts: 0.5,
            done_count: 0,
            arrived_at: 0.0,
            started_at: 0.001,
            last_checkpoint: 0.001,
            inc: 0,
            mapped_event: manytest_sim::EventId(0),
        }
    }

    fn some_reservation() -> Reservation {
        manytest_power::PowerBudget::new(10.0).reserve(1.0).unwrap()
    }

    #[test]
    fn app_completion_tracking() {
        let mut app = running(some_reservation());
        assert!(!app.is_complete());
        app.tasks[0] = TaskState::Done { at: 0.002 };
        app.done_count = 1;
        assert!(app.predecessors_done(TaskId(1)));
        app.tasks[1] = TaskState::Done { at: 0.003 };
        app.done_count = 2;
        assert!(app.is_complete());
    }

    #[test]
    fn input_ready_time_adds_edge_latency() {
        let mut app = running(some_reservation());
        app.tasks[0] = TaskState::Done { at: 0.002 };
        app.done_count = 1;
        let ready = app.input_ready_time(TaskId(1), |_, _| 0.0005);
        assert!((ready - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn roots_are_ready_at_start_time() {
        let app = running(some_reservation());
        // Task 0 has no predecessors: ready at started_at.
        assert!(app.predecessors_done(TaskId(0)));
        let ready = app.input_ready_time(TaskId(0), |_, _| 1.0);
        assert_eq!(ready, app.started_at);
    }

    /// Random DAGs (edges only from lower to higher ids, pairs repeated
    /// at times, volumes tie-heavy or continuous) in random task states:
    /// the fused readiness test must match the two scans it replaced, in
    /// outcome and ready-time bits, and so must the woken successors.
    #[test]
    fn ready_time_matches_reference() {
        use manytest_sim::SimRng;
        let mut rng = SimRng::seed_from(4242);
        for _ in 0..2_000 {
            let n = rng.gen_range_inclusive(1, 12) as u32;
            let mut graph = TaskGraph::new("random");
            for _ in 0..n {
                graph.add_task(Task { instructions: 1 });
            }
            for _ in 0..rng.gen_range(3 * u64::from(n) + 1) {
                let a = rng.gen_range(u64::from(n)) as u32;
                let b = rng.gen_range(u64::from(n)) as u32;
                if a == b {
                    continue;
                }
                let bits = if rng.gen_bool(0.5) {
                    64.0 * rng.gen_range(3) as f64
                } else {
                    rng.gen_f64_range(0.0, 1.0e6)
                };
                graph.add_edge(TaskId(a.min(b)), TaskId(a.max(b)), bits);
                if rng.gen_bool(0.2) {
                    // A repeated pair with its own volume.
                    graph.add_edge(TaskId(a.min(b)), TaskId(a.max(b)), bits + 64.0);
                }
            }
            let mut app = running(some_reservation());
            app.tasks = (0..n)
                .map(|_| match rng.gen_range(3) {
                    0 => TaskState::Waiting,
                    1 => TaskState::Running { finish: 1.0 },
                    _ => TaskState::Done {
                        at: rng.gen_f64_range(0.0, 0.01),
                    },
                })
                .collect();
            app.graph = graph;
            app.started_at = rng.gen_f64_range(0.0, 0.005);
            let latency = |p: TaskId, bits: f64| 1.0e-6 * f64::from(p.0) + bits * 1.0e-9;
            for t in 0..n {
                let task = TaskId(t);
                assert_eq!(
                    app.ready_time(task, latency).map(f64::to_bits),
                    app.ready_time_reference(task, latency).map(f64::to_bits),
                    "task {task} of {:?}",
                    app.graph.edges()
                );
                let woken: Vec<_> = app
                    .woken_by(task, |p, _, bits| latency(p, bits))
                    .map(|(to, ready)| (to, ready.to_bits()))
                    .collect();
                let reference: Vec<_> = app
                    .graph
                    .out_edges(task)
                    .filter(|e| matches!(app.tasks[e.to.index()], TaskState::Waiting))
                    .filter_map(|e| {
                        app.ready_time_reference(e.to, latency)
                            .map(|ready| (e.to, ready.to_bits()))
                    })
                    .collect();
                assert_eq!(woken, reference, "successors of {task}");
            }
        }
    }

    /// Random insert, re-insert-below-base, remove, lookup and iteration
    /// sequences against a `BTreeMap` keyed by id, the structure the
    /// table replaced: the same lookups, the same length and the same
    /// ascending-id walk after every step. Ids arrive in minting order
    /// with gaps; re-inserts bring back an id that was removed earlier,
    /// often below the window's base.
    #[test]
    fn app_table_matches_btreemap() {
        use manytest_sim::SimRng;
        use std::collections::BTreeMap;
        let mut rng = SimRng::seed_from(0xa9b7);
        for round in 0..50 {
            let mut table = AppTable::new();
            let mut model = BTreeMap::new();
            let mut next_id = rng.gen_range(1000);
            let mut removed: Vec<u64> = Vec::new();
            for step in 0..500 {
                let ctx = format!("round {round} step {step}");
                match rng.gen_range(10) {
                    0..=3 => {
                        next_id += 1 + rng.gen_range(3);
                        let value = rng.next_u64();
                        assert_eq!(
                            table.insert_app(next_id, value),
                            model.insert(next_id, value),
                            "{ctx}"
                        );
                    }
                    4 if !removed.is_empty() => {
                        let id = removed.swap_remove(rng.gen_range(removed.len() as u64) as usize);
                        let value = rng.next_u64();
                        assert_eq!(
                            table.insert_app(id, value),
                            model.insert(id, value),
                            "{ctx}"
                        );
                    }
                    5 if !model.is_empty() => {
                        // Replace a live entry in place.
                        let keys: Vec<u64> = model.keys().copied().collect();
                        let id = keys[rng.gen_range(keys.len() as u64) as usize];
                        let value = rng.next_u64();
                        assert_eq!(
                            table.insert_app(id, value),
                            model.insert(id, value),
                            "{ctx}"
                        );
                    }
                    6..=8 if !model.is_empty() => {
                        // Mostly the oldest apps, as FIFO admission makes it.
                        let keys: Vec<u64> = model.keys().copied().collect();
                        let k = rng.gen_range(keys.len().min(4) as u64) as usize;
                        let id = if rng.gen_bool(0.7) {
                            keys[k]
                        } else {
                            keys[keys.len() - 1 - k]
                        };
                        assert_eq!(table.remove_app(id), model.remove(&id), "{ctx}");
                        removed.push(id);
                    }
                    _ => {
                        let id = rng.gen_range(next_id + 3);
                        assert_eq!(table.remove_app(id), model.remove(&id), "{ctx}");
                    }
                }
                let probe = rng.gen_range(next_id + 5);
                assert_eq!(table.get_app(probe), model.get(&probe), "{ctx}");
                if let (Some(a), Some(b)) = (table.get_app_mut(probe), model.get_mut(&probe)) {
                    *a = a.wrapping_add(1);
                    *b = b.wrapping_add(1);
                }
                assert_eq!(table.len(), model.len(), "{ctx}");
                let walked: Vec<(u64, u64)> = table.iter().map(|(id, &v)| (id, v)).collect();
                let expected: Vec<(u64, u64)> = model.iter().map(|(&id, &v)| (id, v)).collect();
                assert_eq!(walked, expected, "{ctx}");
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(&lo), Some(&hi)) => hi - lo + 1,
                    _ => 0,
                };
                assert_eq!(table.window.len() as u64, span, "{ctx}: window span");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not done")]
    fn input_ready_time_requires_done_predecessors() {
        let app = running(some_reservation());
        app.input_ready_time(TaskId(1), |_, _| 0.0);
    }
}
