//! Causal-chain reconstruction over a run's [`EventRecord`] stream.
//!
//! The control loop stamps every emitted event with a monotonic
//! [`EventId`] and an optional [`CauseLink`](crate::obs::CauseLink) back to
//! the event that triggered it. This module turns the flat, time-ordered
//! record slice into a navigable provenance DAG:
//!
//! * [`ProvenanceGraph::chain_to_root`] — walk any event back through
//!   its cause links to the root decision that started the chain.
//! * [`ProvenanceGraph::consequences`] — walk forward to everything the
//!   event (transitively) caused, in emission order.
//! * [`ProvenanceGraph::summarize_chain`] — per-chain aggregates: depth,
//!   time span, per-kind counts, and the corruption-exposure seconds
//!   attributable to a fault root (sum of detection latencies reached
//!   from it).
//!
//! The graph borrows the record slice; building it is a single pass plus
//! one adjacency allocation, so `repro` subcommands can rebuild it per
//! invocation without caching.

use crate::obs::{CauseKind, EventId, EventRecord, SimEvent};
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

    /// The underlying record slice.
    pub fn records(&self) -> &'a [EventRecord] {
        self.records
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

    /// Everything `id` transitively caused (excluding itself), in
    /// emission order. Empty when `id` is unknown or caused nothing.
    pub fn consequences(&self, id: EventId) -> Vec<&'a EventRecord> {
        let Some(&start) = self.index_of.get(&id.0) else {
            return Vec::new();
        };
        let mut slots = Vec::new();
        let mut frontier = vec![start];
        while let Some(slot) = frontier.pop() {
            for &child in &self.children[slot] {
                slots.push(child);
                frontier.push(child);
            }
        }
        // Ids are monotone in emission order, so sorting slots restores it.
        slots.sort_unstable();
        slots.dedup();
        slots.iter().map(|&s| &self.records[s]).collect()
    }

    /// Records with no cause link — the DAG's roots, in emission order.
    pub fn roots(&self) -> impl Iterator<Item = &'a EventRecord> + '_ {
        self.records.iter().filter(|r| r.cause.is_none())
    }

    /// Aggregates over the full chain around `id`: its ancestry back to
    /// the root plus every consequence of that root. `None` when `id` is
    /// unknown.
    pub fn summarize_chain(&self, id: EventId) -> Option<ChainSummary> {
        let back = self.chain_to_root(id);
        let root = *back.last()?;
        let forward = self.consequences(root.id);
        let mut kind_counts = [0u64; SimEvent::KIND_COUNT];
        kind_counts[root.ev.kind_index()] += 1;
        let mut first_t = root.t;
        let mut last_t = root.t;
        let mut exposure = 0.0;
        for rec in &forward {
            kind_counts[rec.ev.kind_index()] += 1;
            first_t = first_t.min(rec.t);
            last_t = last_t.max(rec.t);
            if let SimEvent::FaultDetected { latency, .. } = rec.ev {
                exposure += latency.max(0.0);
            }
        }
        Some(ChainSummary {
            root: root.id,
            root_kind: root.ev.kind(),
            depth: back.len(),
            events: 1 + forward.len(),
            first_t,
            last_t,
            fault_exposure: exposure,
            kind_counts,
        })
    }

    /// Number of resolvable cause links (graph edges).
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// Per-link-kind counts of every cause link carried by the records
    /// (resolvable or not), in [`CauseKind::index`] order.
    pub fn link_kind_counts(&self) -> [u64; CauseKind::COUNT] {
        let mut counts = [0u64; CauseKind::COUNT];
        for rec in self.records {
            if let Some(link) = rec.cause {
                counts[link.kind.index()] += 1;
            }
        }
        counts
    }
}

/// Aggregates over one causal chain (root + all its consequences).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainSummary {
    /// The chain's root event.
    pub root: EventId,
    /// Kind name of the root.
    pub root_kind: &'static str,
    /// Links walked from the queried event back to the root (≥ 1).
    pub depth: usize,
    /// Events in the chain: the root plus every consequence.
    pub events: usize,
    /// Earliest event time in the chain, seconds.
    pub first_t: f64,
    /// Latest event time in the chain, seconds.
    pub last_t: f64,
    /// Core-seconds of corruption exposure attributable to the root:
    /// the summed injection-to-detection latencies of every
    /// `FaultDetected` reached from it (0 for non-fault chains).
    pub fault_exposure: f64,
    /// Per-kind event counts over the chain, in [`SimEvent::KINDS`]
    /// order.
    pub kind_counts: [u64; SimEvent::KIND_COUNT],
}

impl ChainSummary {
    /// The chain's wall span in simulated seconds.
    pub fn span(&self) -> f64 {
        self.last_t - self.first_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{CauseLink, EventLog};

    /// A miniature detect→respond run: fault → detection → suspicion →
    /// quarantine → migration, plus an unrelated cap move.
    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        let fault = log.push(0.10, SimEvent::FaultActivated { core: 3 });
        let _cap = log.push(
            0.15,
            SimEvent::CapAdjusted {
                cap: 50.0,
                measured: 45.0,
                headroom: 5.0,
                reservations: 0,
            },
        );
        let detect = log.push_caused(
            0.30,
            Some(CauseLink::new(CauseKind::Activation, fault)),
            SimEvent::FaultDetected { core: 3, latency: 0.20 },
        );
        let suspect = log.push_caused(
            0.30,
            Some(CauseLink::new(CauseKind::Detection, detect)),
            SimEvent::CoreSuspected { core: 3, level: 2 },
        );
        let quarantine = log.push_caused(
            0.45,
            Some(CauseLink::new(CauseKind::Suspicion, suspect)),
            SimEvent::CoreQuarantined { core: 3, retests: 0 },
        );
        log.push_caused(
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
                "CoreSuspected",
                "FaultDetected",
                "FaultActivated"
            ]
        );
    }

    #[test]
    fn consequences_cover_the_whole_chain_in_emission_order() {
        let log = sample_log();
        let graph = ProvenanceGraph::build(log.events());
        let fault = log.events()[0].id;
        let kinds: Vec<&str> = graph
            .consequences(fault)
            .iter()
            .map(|r| r.ev.kind())
            .collect();
        assert_eq!(
            kinds,
            ["FaultDetected", "CoreSuspected", "CoreQuarantined", "AppMigrated"]
        );
        // The cap move caused nothing and is caused by nothing.
        let cap = log.events()[1].id;
        assert!(graph.consequences(cap).is_empty());
        assert_eq!(graph.chain_to_root(cap).len(), 1);
    }

    #[test]
    fn summary_attributes_exposure_to_the_fault_root() {
        let log = sample_log();
        let graph = ProvenanceGraph::build(log.events());
        let migration = log.events().last().unwrap().id;
        let s = graph.summarize_chain(migration).unwrap();
        assert_eq!(s.root_kind, "FaultActivated");
        assert_eq!(s.depth, 5);
        assert_eq!(s.events, 5);
        assert!((s.fault_exposure - 0.20).abs() < 1e-12);
        assert!((s.span() - 0.35).abs() < 1e-12);
        assert_eq!(s.kind_counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn roots_and_edges_are_counted() {
        let log = sample_log();
        let graph = ProvenanceGraph::build(log.events());
        let roots: Vec<&str> = graph.roots().map(|r| r.ev.kind()).collect();
        assert_eq!(roots, ["FaultActivated", "CapAdjusted"]);
        assert_eq!(graph.edge_count(), 4);
        let links = graph.link_kind_counts();
        assert_eq!(links.iter().sum::<u64>(), 4);
        assert_eq!(links[CauseKind::Quarantine.index()], 1);
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
            ["AppMigrated", "CoreQuarantined", "CoreSuspected", "FaultDetected"]
        );
        // The detection still carries its (unresolvable) link.
        assert!(chain.last().unwrap().cause.is_some());
        assert!(graph.record(EventId(0)).is_none());
    }
}
