//! Provenance-DAG property tests across every experiment driver.
//!
//! They re-check the causal-graph invariants *outside* the audit layer
//! (which already runs them on every captured run): event ids mint
//! strictly monotonically, every cause precedes its effect, and every
//! fault-response outcome chains back to a legitimate root. The E11
//! first-divergence diff against its reseeded twin is pinned in the
//! golden store that `repro regress` checks.

use manytest_bench::diff::{run_diff, DiffTarget};
use manytest_bench::events::{run_probe, PROBE_IDS};
use manytest_bench::Scale;
use manytest_core::prelude::*;

#[test]
fn provenance_dag_is_acyclic_and_time_ordered_across_all_probes() {
    for id in PROBE_IDS {
        let report = run_probe(id, Scale::Quick).expect("known probe id");
        // The audit layer's full double-entry + DAG validation.
        validate_events(&report).unwrap_or_else(|e| panic!("probe {id}: {e}"));
        let records = report.events.events();
        let graph = ProvenanceGraph::build(records);
        let mut last_id: Option<u64> = None;
        let mut last_t = f64::NEG_INFINITY;
        for rec in records {
            // Strictly monotone ids and non-decreasing times: a cause
            // link (cause.id < id) therefore always points backwards in
            // time, which makes the graph acyclic by construction.
            assert!(
                last_id.is_none_or(|p| rec.id.0 > p),
                "probe {id}: event ids not strictly increasing at #{}",
                rec.id.0
            );
            assert!(
                rec.t >= last_t,
                "probe {id}: time went backwards at #{}",
                rec.id.0
            );
            last_id = Some(rec.id.0);
            last_t = rec.t;
            if let Some(link) = rec.cause {
                assert!(
                    link.id.0 < rec.id.0,
                    "probe {id}: #{} claims a cause that does not precede it",
                    rec.id.0
                );
            }
            // Every fault-response outcome is reachable from a root.
            let is_response = matches!(
                rec.ev,
                SimEvent::CoreQuarantined { .. }
                    | SimEvent::AppMigrated { .. }
                    | SimEvent::AppAborted { .. }
                    | SimEvent::AppRestarted { .. }
            );
            if is_response && report.events.dropped() == 0 {
                let chain = graph.chain_to_root(rec.id);
                let root = chain.last().expect("chain contains the record");
                assert!(
                    SimEvent::ROOT_KINDS.contains(&root.ev.kind()),
                    "probe {id}: #{} chain stops at non-root {}",
                    rec.id.0,
                    root.ev.kind()
                );
            }
        }
    }
}

#[test]
fn fault_response_probe_links_a_meaningful_share_of_events() {
    // E11 is the fault-response scenario: detections, quarantines and
    // migrations must all arrive as *caused* events, so its graph has to
    // carry real edge mass (a regression that silently drops cause links
    // would still pass the per-record checks above).
    let report = run_probe("e11", Scale::Quick).expect("known probe id");
    let graph = ProvenanceGraph::build(report.events.events());
    assert!(
        graph.edge_count() > 100,
        "e11 carries only {} cause links",
        graph.edge_count()
    );
}

#[test]
fn self_diff_of_every_golden_probe_reports_zero_divergence() {
    for id in ["e3", "e11"] {
        let text = run_diff(id, DiffTarget::Probe(id), Scale::Quick).expect("known probe id");
        assert!(
            text.contains("no divergence"),
            "probe {id} self-diff found drift — determinism regression:\n{text}"
        );
    }
}
