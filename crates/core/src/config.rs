//! Full system configuration.

use manytest_aging::{AgingModel, CriticalityModel};
use manytest_power::TechNode;
use manytest_sbst::TestSchedulerConfig;
use manytest_sim::Duration;
use serde::{Deserialize, Serialize};

/// Which power governor drives the admission cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GovernorKind {
    /// The ICCD'14 PID controller (the paper's setting).
    Pid,
    /// The naive bang-bang TDP policy (baseline).
    Naive,
    /// A fixed cap at exactly the TDP (no feedback).
    FixedTdp,
}

/// Which runtime mapper places applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapperKind {
    /// Utilisation/test-agnostic contiguous mapping (CoNA-style baseline).
    Baseline,
    /// The paper's test-aware utilisation-oriented mapping.
    TestAware,
    /// Naive non-contiguous first-fit (lower-bound comparator).
    FirstFit,
}

/// What happens to an application whose core is quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultResponsePolicy {
    /// Detection-only: the core keeps executing (the pre-response
    /// behaviour, and the corruption-exposure worst case).
    Ignore,
    /// Kill the victim application outright; its work is lost.
    Abort,
    /// Tear the victim down and re-queue it for a fresh contiguous
    /// placement on healthy cores, restarting from its first task.
    RestartElsewhere,
    /// Remap the victim in place: surviving tasks keep their progress,
    /// displaced tasks move to healthy cores, and the state transfer is
    /// charged as a delay plus NoC traffic.
    MigrateRegion,
}

impl FaultResponsePolicy {
    /// Stable lowercase name for tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultResponsePolicy::Ignore => "ignore",
            FaultResponsePolicy::Abort => "abort",
            FaultResponsePolicy::RestartElsewhere => "restart",
            FaultResponsePolicy::MigrateRegion => "migrate",
        }
    }
}

impl std::fmt::Display for FaultResponsePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything a [`crate::System`] needs to run.
///
/// Construct through [`crate::SystemBuilder`]; the fields are public so
/// experiment harnesses can record exactly what they ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Technology node (fixes mesh size, power params, TDP).
    pub node: TechNode,
    /// Control epoch length.
    pub epoch: Duration,
    /// Total simulated time.
    pub horizon: Duration,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Mean application arrival rate, apps/second.
    pub arrival_rate: f64,
    /// Deterministic evenly-spaced arrivals instead of Poisson.
    pub periodic_arrivals: bool,
    /// Number of DVFS levels in the ladder.
    pub dvfs_levels: usize,
    /// Instructions per cycle of workload code.
    pub workload_ipc: f64,
    /// Online testing enabled at all (off = the "no test" baseline).
    pub testing_enabled: bool,
    /// Test scheduler tuning.
    pub test_scheduler: TestSchedulerConfig,
    /// Governor choice.
    pub governor: GovernorKind,
    /// Mapper choice.
    pub mapper: MapperKind,
    /// Aging model parameters.
    pub aging: AgingModel,
    /// Criticality metric parameters.
    pub criticality: CriticalityModel,
    /// Number of latent faults to inject, spread uniformly over the first
    /// half of the run (0 = none).
    pub injected_faults: usize,
    /// Time to restore architectural state when a task preempts an SBST
    /// session on its core (the cost of non-intrusive abort).
    pub abort_overhead: Duration,
    /// Fraction of injected faults that are voltage dependent (observable
    /// at exactly one DVFS level), in `[0, 1]`. Such faults are only
    /// caught because the scheduler rotates tests through the ladder.
    pub vf_windowed_fault_fraction: f64,
    /// What happens to applications on a quarantined core.
    pub fault_response: FaultResponsePolicy,
    /// Confirmation retests (K) a detection must survive before the core
    /// is quarantined; 0 disables confirmation (first detection
    /// quarantines immediately). Any retest that reproduces the symptom
    /// confirms; K retests with no reproduction clear the core.
    pub confirmation_retests: u8,
    /// Fraction of injected faults that are *intermittent* — they
    /// manifest on any given observation with reduced probability, so
    /// confirmation retests may clear them (and quarantine them late).
    pub intermittent_fault_fraction: f64,
    /// Fraction of the horizon after which an intermittent fault *cools*
    /// (stops refiring), measured from its injection time. Cooled faults
    /// no longer corrupt work or fail probes, so the re-admission lane
    /// can recover their cores. Zero (the default) means intermittents
    /// never cool — the historical behaviour.
    pub intermittent_cooldown_fraction: f64,
    /// Per-completed-test probability of reporting a fault on a healthy
    /// core (applied to every routine in the library). Exercises the
    /// suspect→cleared path.
    pub test_false_positive_rate: f64,
    /// Architectural-state transfer time charged per *checkpoint image*
    /// of each moved task under [`FaultResponsePolicy::MigrateRegion`].
    /// The actual per-task charge scales with the dirty span since the
    /// task's last checkpoint (see [`SystemConfig::checkpoint_interval`]).
    pub migration_delay: Duration,
    /// Cadence at which running applications checkpoint their task state
    /// under [`FaultResponsePolicy::MigrateRegion`]. Each checkpoint
    /// pauses the app's tasks briefly (the image write) but caps the
    /// dirty state a later migration must transfer and replay. Zero
    /// disables checkpointing: migrations then transfer the full state
    /// accumulated since mapping.
    pub checkpoint_interval: Duration,
    /// Cadence of the background re-admission lane: how often a
    /// quarantined core is probed with a cheap low-V/f routine (`None` =
    /// lane off, quarantine terminal — the historical behaviour). The
    /// effective per-core cadence is multiplied by `2^backoff` after each
    /// failed probation round.
    pub probe_cadence: Option<Duration>,
    /// Clean probes in a row required to re-admit a quarantined core.
    pub probe_passes: u8,
    /// Maximum probe sessions in flight at once (the lane budget).
    pub probe_budget: u32,
    /// Cap on the probation-retry backoff exponent (the cadence
    /// multiplier saturates at `2^cap`).
    pub probe_backoff_cap: u8,
    /// Mesh edge override (None = the node's edge at reference area).
    pub mesh_edge_override: Option<u16>,
    /// Model NoC link contention: message latencies are inflated by a
    /// queueing-delay factor based on the previous epoch's link loads.
    pub model_contention: bool,
    /// Use the transient RC thermal grid instead of the steady-state
    /// proxy to drive the aging model (slower, physically richer).
    pub transient_thermal: bool,
    /// Ablation switch: when true, a ready task **waits** for the session
    /// on its core to finish instead of aborting it. The paper's scheduler
    /// is non-intrusive (false); intrusive mode quantifies what that
    /// property is worth.
    pub intrusive_testing: bool,
    /// Cap on samples stored per trace series; once full a series halves
    /// itself and doubles its sampling stride (`None` = keep every epoch
    /// sample, the historical behaviour).
    pub trace_max_samples: Option<usize>,
    /// Capture decision telemetry: keep up to this many structured events
    /// in an in-memory log returned on the report (`None` = no capture;
    /// the control loop then keeps no log and emission only mints ids).
    pub event_capacity: Option<usize>,
    /// Flight recorder: keep up to this many per-epoch state snapshots
    /// in a bounded ring returned on the report, decimated with the same
    /// stride-doubling scheme as bounded traces (`None` = no recording).
    pub state_snapshot_max: Option<usize>,
}

impl SystemConfig {
    /// The evaluation's default configuration for `node`: 1 ms epochs,
    /// 500 ms horizon, PID governor, test-aware mapper, testing on.
    pub fn for_node(node: TechNode) -> Self {
        SystemConfig {
            node,
            epoch: Duration::from_ms(1),
            horizon: Duration::from_ms(500),
            seed: 1,
            arrival_rate: 200.0,
            periodic_arrivals: false,
            dvfs_levels: 5,
            workload_ipc: 1.0,
            testing_enabled: true,
            test_scheduler: TestSchedulerConfig::default(),
            governor: GovernorKind::Pid,
            mapper: MapperKind::TestAware,
            aging: AgingModel::default(),
            criticality: CriticalityModel::default(),
            injected_faults: 0,
            vf_windowed_fault_fraction: 0.0,
            fault_response: FaultResponsePolicy::RestartElsewhere,
            confirmation_retests: 3,
            intermittent_fault_fraction: 0.0,
            intermittent_cooldown_fraction: 0.0,
            test_false_positive_rate: 0.0,
            migration_delay: Duration::from_us(200),
            checkpoint_interval: Duration::from_ms(10),
            probe_cadence: None,
            probe_passes: 3,
            probe_budget: 2,
            probe_backoff_cap: 4,
            mesh_edge_override: None,
            model_contention: false,
            transient_thermal: false,
            abort_overhead: Duration::from_us(50),
            intrusive_testing: false,
            trace_max_samples: None,
            event_capacity: None,
            state_snapshot_max: None,
        }
    }

    /// Number of control epochs the horizon covers.
    pub fn epoch_count(&self) -> u64 {
        self.horizon.as_ns() / self.epoch.as_ns().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = SystemConfig::for_node(TechNode::N16);
        assert_eq!(c.node, TechNode::N16);
        assert!(c.testing_enabled);
        assert_eq!(c.governor, GovernorKind::Pid);
        assert_eq!(c.mapper, MapperKind::TestAware);
        assert_eq!(c.epoch_count(), 500);
    }

    #[test]
    fn epoch_count_rounds_down() {
        let mut c = SystemConfig::for_node(TechNode::N45);
        c.horizon = Duration::from_us(2_500);
        c.epoch = Duration::from_ms(1);
        assert_eq!(c.epoch_count(), 2);
    }

    #[test]
    fn kinds_are_comparable() {
        assert_ne!(GovernorKind::Pid, GovernorKind::Naive);
        assert_ne!(MapperKind::Baseline, MapperKind::TestAware);
        assert_ne!(FaultResponsePolicy::Abort, FaultResponsePolicy::MigrateRegion);
    }

    #[test]
    fn fault_response_names_are_stable() {
        for (p, s) in [
            (FaultResponsePolicy::Ignore, "ignore"),
            (FaultResponsePolicy::Abort, "abort"),
            (FaultResponsePolicy::RestartElsewhere, "restart"),
            (FaultResponsePolicy::MigrateRegion, "migrate"),
        ] {
            assert_eq!(p.as_str(), s);
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn debug_exposes_all_fields() {
        let c = SystemConfig::for_node(TechNode::N22);
        let dbg = format!("{c:?}");
        assert!(dbg.contains("N22"));
        assert!(dbg.contains("arrival_rate"));
        assert!(dbg.contains("testing_enabled"));
    }
}
