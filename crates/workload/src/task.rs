//! The task-graph application model.
//!
//! An application is a DAG: nodes carry compute volume (instructions),
//! directed edges carry communication volume (bits) sent from producer to
//! consumer when the producer finishes. One task maps to one core, so an
//! application needs `task_count()` cores — the same granularity the
//! paper's runtime mapper works at.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Index of a task within its graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a vector index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One task: a compute volume in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    /// Instructions this task must execute.
    pub instructions: u64,
}

/// A communication edge: `bits` flow from `from` to `to` when `from`
/// completes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer task.
    pub from: TaskId,
    /// Consumer task.
    pub to: TaskId,
    /// Message volume, bits.
    pub bits: f64,
}

/// Validation failure of a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph has no tasks.
    Empty,
    /// An edge references a task id outside the graph.
    DanglingEdge(Edge),
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The edges form a cycle (not a DAG).
    Cycle,
    /// An edge has a negative or non-finite volume.
    InvalidVolume(Edge),
    /// A task has zero instructions.
    EmptyTask(TaskId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::DanglingEdge(e) => {
                write!(f, "edge {} -> {} references a missing task", e.from, e.to)
            }
            GraphError::SelfLoop(t) => write!(f, "task {t} has a self-loop"),
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::InvalidVolume(e) => {
                write!(f, "edge {} -> {} has invalid volume {}", e.from, e.to, e.bits)
            }
            GraphError::EmptyTask(t) => write!(f, "task {t} has zero instructions"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A named, validated task-graph application.
///
/// # Examples
///
/// ```
/// use manytest_workload::task::{Task, TaskGraph, TaskId};
///
/// let mut g = TaskGraph::new("pipeline");
/// let a = g.add_task(Task { instructions: 1_000_000 });
/// let b = g.add_task(Task { instructions: 2_000_000 });
/// g.add_edge(a, b, 64_000.0);
/// assert!(g.validate().is_ok());
/// assert_eq!(g.task_count(), 2);
/// assert_eq!(g.topological_order().unwrap(), vec![a, b]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

impl TaskGraph {
    /// Creates an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves room for at least `tasks` more tasks and `edges` more
    /// edges, so that many additions do not reallocate.
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        self.tasks.reserve(tasks);
        self.edges.reserve(edges);
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Adds a directed communication edge of `bits` bits.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, bits: f64) {
        self.edges.push(Edge { from, to, bits });
    }

    /// Number of tasks (= cores the application needs).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The task with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Ids of direct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.to == id)
            .map(|e| e.from)
    }

    /// Ids of direct successors of `id`.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.from == id)
            .map(|e| e.to)
    }

    /// Outgoing edges of `id`.
    pub fn out_edges(&self, id: TaskId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Total communication volume, bits.
    pub fn total_bits(&self) -> f64 {
        self.edges.iter().map(|e| e.bits).sum()
    }

    /// Tasks with no predecessors (the entry layer).
    // lint:effect(alloc, reason = "admission lane materializes the root set once per admitted app")
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.tasks.len() as u32)
            .map(TaskId)
            .filter(|&t| self.predecessors(t).next().is_none())
            .collect()
    }

    /// Checks every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.instructions == 0 {
                return Err(GraphError::EmptyTask(TaskId(i as u32)));
            }
        }
        for e in &self.edges {
            if e.from.index() >= self.tasks.len() || e.to.index() >= self.tasks.len() {
                return Err(GraphError::DanglingEdge(*e));
            }
            if e.from == e.to {
                return Err(GraphError::SelfLoop(e.from));
            }
            if !e.bits.is_finite() || e.bits < 0.0 {
                return Err(GraphError::InvalidVolume(*e));
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Kahn topological order of the tasks.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the edges form a cycle, or
    /// [`GraphError::DanglingEdge`] if an edge points outside the graph.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.tasks.len();
        let mut in_degree = vec![0usize; n];
        for e in &self.edges {
            if e.to.index() >= n || e.from.index() >= n {
                return Err(GraphError::DanglingEdge(*e));
            }
            in_degree[e.to.index()] += 1;
        }
        let mut queue: VecDeque<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| in_degree[t.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for s in self.successors(t) {
                in_degree[s.index()] -= 1;
                if in_degree[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task(Task { instructions: 100 });
        let b = g.add_task(Task { instructions: 100 });
        let c = g.add_task(Task { instructions: 100 });
        let d = g.add_task(Task { instructions: 100 });
        g.add_edge(a, b, 10.0);
        g.add_edge(a, c, 20.0);
        g.add_edge(b, d, 30.0);
        g.add_edge(c, d, 40.0);
        g
    }

    #[test]
    fn diamond_validates() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn totals() {
        let g = diamond();
        assert_eq!(g.total_bits(), 100.0);
        assert_eq!(g.task_count(), 4);
    }

    #[test]
    fn roots_and_neighbors() {
        let g = diamond();
        assert_eq!(g.roots(), vec![TaskId(0)]);
        let succ: Vec<TaskId> = g.successors(TaskId(0)).collect();
        assert_eq!(succ, vec![TaskId(1), TaskId(2)]);
        let preds: Vec<TaskId> = g.predecessors(TaskId(3)).collect();
        assert_eq!(preds, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = TaskGraph::new("cycle");
        let a = g.add_task(Task { instructions: 1 });
        let b = g.add_task(Task { instructions: 1 });
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert_eq!(g.validate(), Err(GraphError::Cycle));
    }

    #[test]
    fn self_loop_is_detected() {
        let mut g = TaskGraph::new("loop");
        let a = g.add_task(Task { instructions: 1 });
        g.add_edge(a, a, 1.0);
        assert_eq!(g.validate(), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn dangling_edge_is_detected() {
        let mut g = TaskGraph::new("dangling");
        let a = g.add_task(Task { instructions: 1 });
        g.add_edge(a, TaskId(9), 1.0);
        assert!(matches!(g.validate(), Err(GraphError::DanglingEdge(_))));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(TaskGraph::new("empty").validate(), Err(GraphError::Empty));
    }

    #[test]
    fn zero_instruction_task_is_rejected() {
        let mut g = TaskGraph::new("zero");
        g.add_task(Task { instructions: 0 });
        assert_eq!(g.validate(), Err(GraphError::EmptyTask(TaskId(0))));
    }

    #[test]
    fn negative_volume_is_rejected() {
        let mut g = TaskGraph::new("neg");
        let a = g.add_task(Task { instructions: 1 });
        let b = g.add_task(Task { instructions: 1 });
        g.add_edge(a, b, -5.0);
        assert!(matches!(g.validate(), Err(GraphError::InvalidVolume(_))));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(GraphError::Cycle.to_string().contains("cycle"));
        assert!(GraphError::Empty.to_string().contains("no tasks"));
    }

    #[test]
    fn independent_tasks_have_trivial_critical_path() {
        let mut g = TaskGraph::new("par");
        for _ in 0..5 {
            g.add_task(Task { instructions: 10 });
        }
        assert_eq!(g.roots().len(), 5);
    }
}
