//! Causal-chain reconstruction over a run's [`EventRecord`] stream.
//!
//! The control loop stamps every emitted event with a monotonic
//! [`EventId`] and an optional [`CauseLink`](crate::obs::CauseLink) back to
//! the event that triggered it. This module turns the flat, time-ordered
//! record slice into a navigable provenance DAG:
//!
//! * [`ProvenanceGraph::chain_to_root`] — walk any event back through
//!   its cause links to the root decision that started the chain.
//! * [`ProvenanceGraph::edge_count`] — the resolvable cause links.
//!
//! The graph borrows the record slice; building it is a single pass plus
//! one adjacency allocation, so `repro` subcommands can rebuild it per
//! invocation without caching.

use crate::obs::{EventId, EventRecord};
use std::collections::BTreeMap;

/// A provenance DAG over a borrowed record slice.
///
/// Records must be in emission order (as stored by an
/// [`EventLog`](crate::obs::EventLog)); ids referenced by cause links
/// that were decimated away by log saturation simply resolve to `None`.
#[derive(Debug)]
pub struct ProvenanceGraph<'a> {
    records: &'a [EventRecord],
    /// id → slot in `records`.
    index_of: BTreeMap<u64, usize>,
    /// slot → slots of records it directly caused, in emission order.
    children: Vec<Vec<usize>>,
}

impl<'a> ProvenanceGraph<'a> {
    /// Builds the graph in one pass over `records`.
    pub fn build(records: &'a [EventRecord]) -> Self {
        let mut index_of = BTreeMap::new();
        for (slot, rec) in records.iter().enumerate() {
            index_of.insert(rec.id.0, slot);
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        for (slot, rec) in records.iter().enumerate() {
            if let Some(link) = rec.cause {
                if let Some(&parent) = index_of.get(&link.id.0) {
                    children[parent].push(slot);
                }
            }
        }
        ProvenanceGraph {
            records,
            index_of,
            children,
        }
    }

    /// Looks up a record by id (`None` when the id was never stored —
    /// e.g. decimated away by log saturation).
    pub fn record(&self, id: EventId) -> Option<&'a EventRecord> {
        self.index_of.get(&id.0).map(|&slot| &self.records[slot])
    }

    /// The causal chain from `id` back to its root, effect first. The
    /// first element is the event itself; the last is the deepest
    /// resolvable ancestor (the true root, unless saturation dropped an
    /// intermediate record). Empty when `id` is unknown.
    pub fn chain_to_root(&self, id: EventId) -> Vec<&'a EventRecord> {
        let mut chain = Vec::new();
        let mut cursor = self.record(id);
        while let Some(rec) = cursor {
            chain.push(rec);
            cursor = rec.cause.and_then(|link| self.record(link.id));
        }
        chain
    }

    /// Number of resolvable cause links (graph edges).
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{emit_record, CauseKind, CauseLink, EventLog, SimEvent};

    /// A miniature detect→respond run, linked as the control loop links
    /// it: fault → detection → suspicion → confirmation retest →
    /// quarantine → migration, plus an unrelated cap move.
    fn sample_log() -> EventLog {
        let mut log = EventLog::default();
        let mut next_id = 0;
        let fault = emit_record(
            Some(&mut log),
            &mut next_id,
            0.10,
            None,
            SimEvent::FaultActivated { core: 3 },
        );
        let _cap = emit_record(
            Some(&mut log),
            &mut next_id,
            0.15,
            None,
            SimEvent::CapAdjusted {
                cap: 50.0,
                measured: 45.0,
                headroom: 5.0,
                reservations: 0,
            },
        );
        let detect = emit_record(
            Some(&mut log),
            &mut next_id,
            0.30,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core: 3, latency: 0.20 },
        );
        let suspect = emit_record(
            Some(&mut log),
            &mut next_id,
            0.30,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core: 3, level: 2 },
        );
        let retest = emit_record(
            Some(&mut log),
            &mut next_id,
            0.31,
            Some(CauseLink::new(CauseKind::RetestLane, suspect)),
            SimEvent::TestLaunched {
                core: 3,
                routine: 0,
                level: 2,
                power: 1.5,
                headroom: 3.5,
            },
        );
        let verdict = emit_record(
            Some(&mut log),
            &mut next_id,
            0.40,
            Some(CauseLink::new(CauseKind::Session, retest)),
            SimEvent::TestCompleted {
                core: 3,
                routine: 0,
                level: 2,
                covered_levels: 1,
                interval: -1.0,
            },
        );
        let quarantine = emit_record(
            Some(&mut log),
            &mut next_id,
            0.45,
            Some(CauseLink::new(CauseKind::RetestFailed, verdict)),
            SimEvent::CoreQuarantined { core: 3, retests: 1 },
        );
        emit_record(
            Some(&mut log),
            &mut next_id,
            0.45,
            Some(CauseLink::new(CauseKind::Quarantine, quarantine)),
            SimEvent::AppMigrated {
                app: 7,
                core: 3,
                moved_tasks: 2,
                delay: 0.002,
            },
        );
        log
    }

    #[test]
    fn chain_walks_back_to_the_fault_root() {
        let log = sample_log();
        let graph = ProvenanceGraph::build(log.events());
        let migration = log.events().last().unwrap().id;
        let chain = graph.chain_to_root(migration);
        let kinds: Vec<&str> = chain.iter().map(|r| r.ev.kind()).collect();
        assert_eq!(
            kinds,
            [
                "AppMigrated",
                "CoreQuarantined",
                "TestCompleted",
                "TestLaunched",
                "CoreSuspected",
                "FaultDetected",
                "FaultActivated"
            ]
        );
    }

    #[test]
    fn roots_and_edges_are_counted() {
        let log = sample_log();
        let graph = ProvenanceGraph::build(log.events());
        assert_eq!(graph.edge_count(), 6);
        // The cap move caused nothing and is caused by nothing.
        let cap = log.events()[1].id;
        assert_eq!(graph.chain_to_root(cap).len(), 1);
    }

    #[test]
    fn dangling_cause_links_resolve_to_truncated_chains() {
        // Simulate saturation: the records survive but the fault root was
        // never stored.
        let log = sample_log();
        let tail = &log.events()[2..];
        let graph = ProvenanceGraph::build(tail);
        let migration = tail.last().unwrap().id;
        let chain = graph.chain_to_root(migration);
        let kinds: Vec<&str> = chain.iter().map(|r| r.ev.kind()).collect();
        assert_eq!(
            kinds,
            [
                "AppMigrated",
                "CoreQuarantined",
                "TestCompleted",
                "TestLaunched",
                "CoreSuspected",
                "FaultDetected"
            ]
        );
        // The detection still carries its (unresolvable) link.
        assert!(chain.last().unwrap().cause.is_some());
        assert!(graph.record(EventId(0)).is_none());
    }
}
