//! Outcome fingerprints: the benchmark's correctness check.
//!
//! A fingerprint is an FNV-1a-64 hash over a fixed, benchmark-owned list of
//! [`Report`] outcome fields. It deliberately leaves out `profile`, `events`,
//! `state` and `trace`, so a change that adds a profile counter or a trace
//! series still reads as correct, while any change to what the simulated
//! system did reads as a failure.

use manytest_core::Report;
use std::collections::BTreeMap;

/// The seed whose fingerprints `expected.json` pins.
pub const PINNED_SEED: u64 = 42;

/// The committed seed-42 fingerprints, one list per workload.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Hashes the outcome fields of `r`.
pub fn fingerprint(r: &Report) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for v in [
        r.apps_arrived,
        r.apps_completed,
        r.apps_in_flight,
        r.apps_pending,
        r.apps_rejected,
        r.instructions_executed,
        r.cap_violations,
        r.cap_adjustments,
        r.tests_completed,
        r.tests_aborted,
        r.tests_in_flight,
        r.tests_denied_power,
        r.min_tests_per_core,
        r.max_tests_per_core,
        u64::from(r.full_vf_coverage),
        r.faults_injected,
        r.faults_detected,
        r.fault_detections,
        r.fault_activations,
        r.cores_suspected,
        r.cores_quarantined,
        r.cores_cleared,
        r.false_quarantines,
        r.confirmation_retests,
        r.probes_launched,
        r.cores_readmitted,
        r.cores_requarantined,
        r.probe_budget,
        r.healthy_cores_end,
        r.apps_aborted,
        r.apps_restarted,
        r.apps_migrated,
        r.apps_checkpointed,
    ] {
        h.u64(v);
    }
    for v in [
        r.sim_seconds,
        r.throughput_mips,
        r.mean_app_latency,
        r.mean_queue_wait,
        r.mean_power,
        r.peak_power,
        r.tdp,
        r.test_energy_share,
        r.noc_energy_share,
        r.mean_test_interval,
        r.max_test_interval,
        r.mean_detection_latency,
        r.corruption_exposure,
        r.mean_utilization,
        r.dark_fraction,
        r.mean_hop_cost,
    ] {
        h.f64(v);
    }
    for list in [&r.tests_per_level, &r.tests_per_core] {
        h.u64(list.len() as u64);
        list.iter().for_each(|&v| h.u64(v));
    }
    h.u64(r.damage_per_core.len() as u64);
    r.damage_per_core.iter().for_each(|&v| h.f64(v));
    h.0
}

/// Judges each run's fingerprint: it must equal the pinned value for its
/// config (when pins apply) and the first fingerprint this process saw for
/// the same config.
#[derive(Debug, Clone)]
pub struct Checker {
    pinned: Option<Vec<u64>>,
    first: Vec<Option<u64>>,
}

impl Checker {
    /// A checker for `configs` configs; `pinned` is `None` when no pins
    /// apply (another seed, or pins being regenerated).
    pub fn new(pinned: Option<Vec<u64>>, configs: usize) -> Self {
        Checker {
            pinned,
            first: vec![None; configs],
        }
    }

    /// Records `fp` for `config` and returns whether it is correct.
    pub fn check(&mut self, config: usize, fp: u64) -> bool {
        let pin_ok = self
            .pinned
            .as_ref()
            .is_none_or(|p| p.get(config) == Some(&fp));
        let first = self.first[config].get_or_insert(fp);
        pin_ok && *first == fp
    }

    /// The first fingerprint seen per config.
    pub fn firsts(&self) -> &[Option<u64>] {
        &self.first
    }
}

/// Parses an `expected.json` document: every `"name": ["hex", …]` list.
///
/// # Errors
///
/// Returns a message naming the first malformed list.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, Vec<u64>>, String> {
    let mut pins = BTreeMap::new();
    let mut rest = text;
    while let Some(open) = rest.find('[') {
        let key = rest[..open]
            .rsplit('"')
            .nth(1)
            .ok_or("pin list without a name")?;
        let close = open + rest[open..].find(']').ok_or("unterminated pin list")?;
        let list = rest[open + 1..close]
            .split(',')
            .map(|s| s.trim().trim_matches('"'))
            .filter(|s| !s.is_empty())
            .map(|s| u64::from_str_radix(s, 16).map_err(|e| format!("pin `{s}` of {key}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        pins.insert(key.to_string(), list);
        rest = &rest[close + 1..];
    }
    Ok(pins)
}

/// Renders pins in the `expected.json` layout [`parse_pins`] reads.
pub fn render_pins(pins: &BTreeMap<String, Vec<u64>>) -> String {
    let lists: Vec<String> = pins
        .iter()
        .map(|(name, fps)| {
            let hex: Vec<String> = fps.iter().map(|fp| format!("\"{fp:016x}\"")).collect();
            format!("  \"{name}\": [{}]", hex.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"seed\": {PINNED_SEED},\n{}\n}}\n",
        lists.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_trip() {
        let mut pins = BTreeMap::new();
        pins.insert("a".to_string(), vec![1, u64::MAX]);
        pins.insert("b".to_string(), vec![0xdead_beef]);
        assert_eq!(parse_pins(&render_pins(&pins)).unwrap(), pins);
    }

    #[test]
    fn committed_pins_parse() {
        let pins = parse_pins(EXPECTED_JSON).unwrap();
        for w in crate::workloads::WORKLOADS {
            assert!(pins.contains_key(w.name), "{} has no pins", w.name);
        }
    }

    #[test]
    fn checker_wants_pin_and_first_sample() {
        let mut c = Checker::new(Some(vec![7, 8]), 2);
        assert!(c.check(0, 7));
        assert!(!c.check(1, 9));
        let mut free = Checker::new(None, 1);
        assert!(free.check(0, 5));
        assert!(!free.check(0, 6));
        assert_eq!(free.firsts(), &[Some(5)]);
    }
}
