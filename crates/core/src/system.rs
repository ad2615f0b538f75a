//! The integrated system: builder, epoch loop and event handlers.

use crate::calendar::WakeCalendar;
use crate::config::{FaultResponsePolicy, GovernorKind, MapperKind, SystemConfig, EPOCH};
use crate::error::BuildError;
use crate::exec::{AppTable, CoreMode, RunningApp, TaskState};
use crate::metrics::{EpochSeries, EpochTrace, MetricsCollector, Report};
use crate::store::CoreStore;
use manytest_aging::{AgingModel, CriticalityModel, StressTracker, ThermalGrid, ThermalParams};
use manytest_map::{ConaMapper, FirstFitMapper, MapContext, Mapper, TestAwareMapper};
use manytest_noc::{ContentionModel, Coord, LinkEnergyModel, LinkLoads, Mesh2D, TrafficMatrix};
use manytest_power::{
    NaiveTdpPolicy, OperatingPoint, PidController, PowerBudget, PowerCategory, PowerGovernor,
    PowerMeter, PowerModel, VfLadder, VfLevel,
};
use manytest_sbst::{
    CandidateClass, Fault, FaultLog, HealthBoard, RetestRequest, RoutineId, TestCandidate,
    TestDenial, TestLaunch, TestScheduler, TestSession,
};
use manytest_sim::{
    emit_record, AbortReason, CauseKind, CauseLink, CoreState, Epoch, EventId, EventLog,
    EventQueue, HealthCode, NullPhaseObserver, Phase, PhaseObserver, PhaseProfile, SimEvent,
    SimRng, SimTime, StateRecorder, StateSnapshot,
};
use manytest_workload::{AppId, Application, ArrivalProcess, TaskId, WorkloadMix};
use std::collections::{BTreeMap, VecDeque};

/// Manifestation probability of an intermittent fault on any single
/// observation (solid faults re-fire with probability 1).
const INTERMITTENT_REFIRE: f64 = 0.35;

/// Instructions per cycle of workload code: a task of `n` instructions
/// runs for `n / (f · WORKLOAD_IPC)` seconds at frequency `f`.
const WORKLOAD_IPC: f64 = 1.0;

/// Confirmation retests (K) a detection must survive before the core is
/// quarantined. Any retest that reproduces the symptom confirms; K
/// retests with no reproduction clear the core.
const CONFIRMATION_RETESTS: u8 = 3;

/// Architectural-state transfer time charged per *checkpoint image* of
/// each task a [`FaultResponsePolicy::MigrateRegion`] remap moves. The
/// actual per-task charge scales with the dirty span since the app's
/// last checkpoint (see [`DIRTY_SPAN_REF_SECS`]).
const MIGRATION_DELAY: manytest_sim::Duration = manytest_sim::Duration::from_us(200);

/// Clean probes in a row that re-admit a quarantined core.
const PROBE_PASSES: u8 = 3;

/// Probation rounds the re-admission lane keeps in flight at once.
const PROBE_BUDGET: u32 = 2;

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

/// A cap that never moves: the raw TDP (used as a governor baseline).
#[derive(Debug, Clone, Copy, Default)]
struct FixedCap;

impl PowerGovernor for FixedCap {
    fn next_cap(&mut self, target: f64, _measured: f64) -> f64 {
        target
    }
    fn reset(&mut self) {}
}

/// Events resolved at exact sub-epoch times.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The arrival process fires: enqueue an application, rearm.
    Arrival,
    /// All inputs of a task have arrived; it may start. `inc` is the
    /// app's admission-instance counter at scheduling time (restarts and
    /// migrations bump it, orphaning earlier events).
    TaskReady { app: u64, task: TaskId, inc: u64 },
    /// A running task completes (same `inc` staleness rule).
    TaskFinish { app: u64, task: TaskId, inc: u64 },
    /// An SBST session completes (if `gen` still matches the core's
    /// session generation — aborted sessions leave stale events behind).
    SessionFinish { core: usize, gen: u64 },
    /// A re-admission-lane probe completes on a probation core (if `gen`
    /// still matches the core's probe generation). Probes live outside
    /// the store's session machinery: a withdrawn core has no owner and
    /// no scheduler interaction, so nothing can abort one.
    ProbeFinish { core: usize, gen: u64 },
}

/// Fluent constructor for [`System`].
///
/// # Examples
///
/// ```
/// use manytest_core::prelude::*;
///
/// let system = SystemBuilder::new(TechNode::N22)
///     .seed(7)
///     .arrival_rate(150.0)
///     .sim_time_ms(20)
///     .testing(false)
///     .build()?;
/// let report = system.run();
/// assert_eq!(report.tests_completed, 0);
/// # Ok::<(), manytest_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
    mix: WorkloadMix,
}

impl SystemBuilder {
    /// Starts from the default configuration for `node` with the standard
    /// workload mix.
    pub fn new(node: manytest_power::TechNode) -> Self {
        SystemBuilder {
            config: SystemConfig::for_node(node),
            mix: WorkloadMix::standard(),
        }
    }

    /// Starts from an explicit configuration.
    pub fn from_config(config: SystemConfig) -> Self {
        SystemBuilder {
            config,
            mix: WorkloadMix::standard(),
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the mean application arrival rate, apps/second.
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.config.arrival_rate = rate;
        self
    }

    /// Sets the simulated horizon in milliseconds.
    pub fn sim_time_ms(mut self, ms: u64) -> Self {
        self.config.horizon = manytest_sim::Duration::from_ms(ms);
        self
    }

    /// Enables or disables online testing.
    pub fn testing(mut self, enabled: bool) -> Self {
        self.config.testing_enabled = enabled;
        self
    }

    /// Selects the power governor.
    pub fn governor(mut self, kind: GovernorKind) -> Self {
        self.config.governor = kind;
        self
    }

    /// Selects the runtime mapper.
    pub fn mapper(mut self, kind: MapperKind) -> Self {
        self.config.mapper = kind;
        self
    }

    /// Injects `count` latent faults spread over the first half of the run.
    pub fn injected_faults(mut self, count: usize) -> Self {
        self.config.injected_faults = count;
        self
    }

    /// Makes `fraction` of injected faults voltage dependent (visible at
    /// exactly one DVFS level).
    pub fn vf_windowed_faults(mut self, fraction: f64) -> Self {
        self.config.vf_windowed_fault_fraction = fraction;
        self
    }

    /// Selects what happens to applications on a quarantined core.
    pub fn fault_response(mut self, policy: FaultResponsePolicy) -> Self {
        self.config.fault_response = policy;
        self
    }

    /// Makes `fraction` of injected faults intermittent: they manifest on
    /// any single observation with reduced probability, so confirmation
    /// retests may clear them.
    pub fn intermittent_faults(mut self, fraction: f64) -> Self {
        self.config.intermittent_fault_fraction = fraction;
        self
    }

    /// Per-completed-test probability of a spurious fault report on a
    /// healthy core (exercises the suspect→cleared path).
    pub fn test_false_positives(mut self, rate: f64) -> Self {
        self.config.test_false_positive_rate = rate;
        self
    }

    /// Cadence at which running applications checkpoint their task state
    /// under [`FaultResponsePolicy::MigrateRegion`], microseconds
    /// (0 disables checkpointing: migrations then transfer the full
    /// state accumulated since mapping).
    pub fn checkpoint_interval_us(mut self, us: u64) -> Self {
        self.config.checkpoint_interval = manytest_sim::Duration::from_us(us);
        self
    }

    /// Enables the background re-admission lane: quarantined cores are
    /// probed with a cheap low-V/f routine every `us` microseconds
    /// (backed off exponentially after failed probation rounds). Without
    /// this call quarantine stays terminal — the historical behaviour.
    pub fn probe_cadence_us(mut self, us: u64) -> Self {
        self.config.probe_cadence = Some(manytest_sim::Duration::from_us(us));
        self
    }

    /// Makes intermittent faults *cool* this fraction of the horizon
    /// after injection: a cooled fault stops refiring (and corrupting),
    /// so the re-admission lane can recover its core. Zero (the default)
    /// means intermittents never cool.
    pub fn intermittent_cooldown(mut self, fraction: f64) -> Self {
        self.config.intermittent_cooldown_fraction = fraction;
        self
    }

    /// Enables the NoC link-contention model: message latencies inflate
    /// with the previous epoch's link loads.
    pub fn model_contention(mut self, enabled: bool) -> Self {
        self.config.model_contention = enabled;
        self
    }

    /// Drives aging from the transient RC thermal grid instead of the
    /// steady-state proxy.
    pub fn transient_thermal(mut self, enabled: bool) -> Self {
        self.config.transient_thermal = enabled;
        self
    }

    /// Switches to intrusive testing (ablation): ready tasks wait for the
    /// session on their core instead of aborting it.
    pub fn intrusive_testing(mut self, intrusive: bool) -> Self {
        self.config.intrusive_testing = intrusive;
        self
    }

    /// Overrides the criticality metric.
    pub fn criticality(mut self, model: CriticalityModel) -> Self {
        self.config.criticality = model;
        self
    }

    /// Overrides the mesh edge length (default: the technology node's
    /// edge at the reference die area). Lets scalability studies grow the
    /// mesh while keeping one node's electrical parameters.
    pub fn mesh_edge(mut self, edge: u16) -> Self {
        self.config.mesh_edge_override = Some(edge);
        self
    }

    /// Captures structured decision telemetry: the control loop records
    /// up to `capacity` events into an in-memory log returned on
    /// [`Report::events`] (per-kind counts stay exact past the cap).
    /// Without this call the run keeps no log: emission only mints ids.
    pub fn capture_events(mut self, capacity: usize) -> Self {
        self.config.event_capacity = Some(capacity);
        self
    }

    /// Enables the flight recorder: every epoch close snapshots the full
    /// system state (per-core power, temperature, V/f level, health,
    /// mapping occupancy, budget headroom, session activity) into a
    /// bounded ring of at most `capacity` snapshots, decimated by halving
    /// the ring and doubling the sampling stride whenever it fills
    /// (values below 2 are raised to 2). The recording comes back on
    /// [`Report::state`].
    pub fn record_state(mut self, capacity: usize) -> Self {
        self.config.state_snapshot_max = Some(capacity);
        self
    }

    /// The configuration this builder would construct with, readable
    /// before [`SystemBuilder::build`] (for example, to size buffers by
    /// [`SystemConfig::epoch_count`]).
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Validates the configuration and constructs the system.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the first inconsistent setting.
    pub fn build(self) -> Result<System, BuildError> {
        System::new(self.config, self.mix)
    }
}

/// The integrated manycore platform (see crate docs for the model).
pub struct System {
    config: SystemConfig,
    mesh: Mesh2D,
    model: PowerModel,
    ladder: VfLadder,
    link_model: LinkEnergyModel,
    budget: PowerBudget,
    governor: Box<dyn PowerGovernor>,
    meter: PowerMeter,
    aging: AgingModel,
    criticality: CriticalityModel,
    stress: StressTracker,
    thermal: Option<ThermalGrid>,
    scheduler: TestScheduler,
    mapper: Box<dyn Mapper>,
    mix: WorkloadMix,
    arrivals: ArrivalProcess,
    pending: VecDeque<Application>,
    running: AppTable<RunningApp>,
    store: CoreStore,
    epoch_busy: Vec<f64>,
    epoch_energy: Vec<f64>,
    epoch_traffic: TrafficMatrix,
    link_loads: Option<LinkLoads>,
    contention: ContentionModel,
    queue: EventQueue<Ev>,
    rng_workload: SimRng,
    rng_faults: SimRng,
    faults: FaultLog,
    health: HealthBoard,
    metrics: MetricsCollector,
    epoch_trace: EpochTrace,
    next_app_id: u64,
    next_inc: u64,
    apps_rejected: u64,
    measured_last: f64,
    tdp: f64,
    /// The decision log, attached only by
    /// [`SystemBuilder::capture_events`].
    events: Option<EventLog>,
    /// Next [`EventId`] to mint: a per-run emission sequence number, so
    /// ids are strictly increasing and `cause.id < id` holds by
    /// construction (which is what makes the provenance graph a DAG).
    next_event_id: u64,
    /// Provenance state: the pending cause for each queued application
    /// (its `AppArrived` or `AppRestarted` event), consumed when the app
    /// is mapped or rejected.
    pending_cause: BTreeMap<u64, CauseLink>,
    /// Per-core id of the most recent `FaultActivated` (detections on
    /// the core link back to it).
    fault_cause: Vec<Option<EventId>>,
    /// Per-core id of the open `CoreSuspected` (retest-lane launches
    /// link back to it; cleared on quarantine or clearance).
    suspect_cause: Vec<Option<EventId>>,
    /// Per-core id of the live session's `TestLaunched` (completion and
    /// abort link back to it).
    session_cause: Vec<Option<EventId>>,
    /// Id of this epoch's `CapAdjusted` (power denials link back to it).
    last_cap_event: Option<EventId>,
    /// Per-core id of the latest `CoreQuarantined`/`CoreRequarantined`
    /// (re-admission-lane probes link back to it; cleared on readmit).
    quarantine_event: Vec<Option<EventId>>,
    /// Per-core id of the live probe's `CoreProbeLaunched` (the
    /// probation verdict links back to it).
    probe_event: Vec<Option<EventId>>,
    /// Per-core earliest next probe time (quarantine time + cadence,
    /// backed off exponentially after failed probation rounds).
    probe_next_at: Vec<f64>,
    /// Per-core probe staleness counter (mirrors the session-generation
    /// scheme; probes are never aborted today, but the guard keeps the
    /// event-queue contract uniform).
    probe_gen: Vec<u64>,
    /// Probation rounds currently holding a lane-budget slot.
    probes_inflight: u32,
    phase_obs: Box<dyn PhaseObserver>,
    profile: PhaseProfile,
    recorder: Option<StateRecorder>,
    /// When each core can next reach the test threshold; the schedule
    /// phase evaluates only the cores that are due.
    calendar: WakeCalendar,
    // Scratch buffers for the epoch control loop: rebuilt in place every
    // tick so the steady-state hot path never touches the heap.
    ctx_scratch: MapContext,
    candidates_scratch: Vec<TestCandidate>,
    retests_scratch: Vec<RetestRequest>,
    powers_scratch: Vec<f64>,
    launches_scratch: Vec<TestLaunch>,
    denials_scratch: Vec<TestDenial>,
    checkpoint_scratch: Vec<u64>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("node", &self.config.node)
            .field("mesh", &self.mesh)
            .field("pending", &self.pending.len())
            .field("running", &self.running.len())
            .finish()
    }
}

/// The NoC models a message's latency needs, borrowed apart from the
/// running-app table so a handler can wake tasks while it holds an app.
struct Links<'a> {
    model: &'a LinkEnergyModel,
    loads: Option<&'a LinkLoads>,
    contention: &'a ContentionModel,
}

impl Links<'_> {
    /// Latency of a `bits`-bit message from `src` to `dst`, inflated by
    /// the route's contention when link loads are modelled.
    fn latency(&self, src: Coord, dst: Coord, bits: f64) -> f64 {
        let base = self.model.message_cost(src, dst, bits).latency;
        match self.loads {
            Some(loads) => base * self.contention.route_factor(loads, src, dst),
            None => base,
        }
    }
}

/// The requirement `value` fails, if any: finite and positive, or finite
/// and non-negative when `positive` is false.
fn failed_requirement(value: f64, positive: bool) -> Option<&'static str> {
    let in_range = if positive { value > 0.0 } else { value >= 0.0 };
    match (value.is_finite() && in_range, positive) {
        (true, _) => None,
        (false, true) => Some("finite and positive"),
        (false, false) => Some("finite and non-negative"),
    }
}

impl System {
    fn new(config: SystemConfig, mix: WorkloadMix) -> Result<Self, BuildError> {
        for (field, value) in [
            ("vf_windowed_fault_fraction", config.vf_windowed_fault_fraction),
            ("intermittent_fault_fraction", config.intermittent_fault_fraction),
            ("intermittent_cooldown_fraction", config.intermittent_cooldown_fraction),
            ("test_false_positive_rate", config.test_false_positive_rate),
        ] {
            // `contains` is false for NaN, so NaN is rejected here too.
            if !(0.0..=1.0).contains(&value) {
                return Err(BuildError::InvalidFaultFraction { field, value });
            }
        }
        if config.injected_faults > 0 && config.horizon.is_zero() {
            return Err(BuildError::FaultsNeedHorizon);
        }
        if config.horizon < EPOCH {
            return Err(BuildError::HorizonTooShort);
        }
        if !(config.arrival_rate > 0.0 && config.arrival_rate.is_finite()) {
            return Err(BuildError::InvalidArrivalRate);
        }
        let levels = config.test_scheduler.ladder_levels;
        if levels < 2 {
            return Err(BuildError::TooFewDvfsLevels);
        }
        // The criticality metric must stay finite and non-negative: the
        // mapper asserts that, the ranking panics on NaN, and the wake-up
        // calendar's bound assumes it.
        let crit = config.criticality;
        let sched = config.test_scheduler;
        for (field, value, positive) in [
            ("criticality.stress_weight", crit.stress_weight, false),
            ("criticality.time_weight", crit.time_weight, false),
            ("criticality.target_period", crit.target_period, true),
            ("criticality.reference_wear_rate", crit.reference_wear_rate, true),
            ("test_scheduler.ipc", sched.ipc, true),
        ] {
            if let Some(requirement) = failed_requirement(value, positive) {
                return Err(BuildError::InvalidSchedulerSetting { field, value, requirement });
            }
        }
        if !sched.criticality_threshold.is_finite() {
            return Err(BuildError::InvalidSchedulerSetting {
                field: "test_scheduler.criticality_threshold",
                value: sched.criticality_threshold,
                requirement: "finite",
            });
        }
        if let Some(level) = sched.fixed_level.filter(|&l| usize::from(l) >= levels) {
            return Err(BuildError::InvalidSchedulerSetting {
                field: "test_scheduler.fixed_level",
                value: f64::from(level),
                requirement: "below test_scheduler.ladder_levels",
            });
        }
        let params = config.node.params();
        let edge = config.mesh_edge_override.unwrap_or(params.mesh_edge);
        if edge == 0 {
            return Err(BuildError::ZeroMesh);
        }
        let mesh = Mesh2D::new(edge, edge);
        let n = mesh.node_count();
        let root = SimRng::seed_from(config.seed);
        let governor: Box<dyn PowerGovernor> = match config.governor {
            GovernorKind::Pid => Box::new(PidController::default_tuning()),
            GovernorKind::Naive => Box::new(NaiveTdpPolicy::new()),
            GovernorKind::FixedTdp => Box::new(FixedCap),
        };
        let mapper: Box<dyn Mapper> = match config.mapper {
            MapperKind::Baseline => Box::new(ConaMapper::new()),
            MapperKind::TestAware => Box::new(TestAwareMapper::default()),
            MapperKind::FirstFit => Box::new(FirstFitMapper::new()),
        };
        let scheduler = TestScheduler::with_library(
            sched,
            config.node,
            manytest_sbst::RoutineLibrary::standard()
                .with_false_positive_rate(config.test_false_positive_rate),
            n,
        );
        let aging = AgingModel::default();
        let mut rng_faults = root.derive("faults");
        let mut faults = FaultLog::new();
        for _ in 0..config.injected_faults {
            let core = rng_faults.gen_range(n as u64) as usize;
            let at = rng_faults.next_f64() * config.horizon.as_secs_f64() * 0.5;
            let mut fault = if rng_faults.gen_bool(config.vf_windowed_fault_fraction) {
                // Voltage-dependent: observable at exactly one level.
                let level = manytest_power::VfLevel(rng_faults.gen_range(levels as u64) as u8);
                Fault::with_level_window(core, at, level, level)
            } else {
                Fault::new(core, at)
            };
            // Guarded draw: the default (0.0) consumes no randomness, so
            // pre-existing seeds reproduce their historical fault sets.
            if config.intermittent_fault_fraction > 0.0
                && rng_faults.gen_bool(config.intermittent_fault_fraction)
            {
                fault = fault.with_refire(INTERMITTENT_REFIRE);
                if config.intermittent_cooldown_fraction > 0.0 {
                    let span =
                        config.intermittent_cooldown_fraction * config.horizon.as_secs_f64();
                    fault = fault.with_refire_until(at + span);
                }
            }
            faults.inject_fault(fault);
        }
        Ok(System {
            mesh,
            model: PowerModel::for_node(config.node),
            ladder: VfLadder::for_node(config.node, levels),
            link_model: LinkEnergyModel::nominal_16nm()
                .scaled_energy(params.feature_nm as f64 / 16.0),
            budget: PowerBudget::new(params.tdp),
            governor,
            meter: PowerMeter::new(),
            aging,
            criticality: config.criticality,
            stress: StressTracker::new(n, 0.1),
            thermal: config.transient_thermal.then(|| {
                ThermalGrid::new(edge as usize, edge as usize, ThermalParams::default())
            }),
            scheduler,
            mapper,
            mix,
            arrivals: ArrivalProcess::poisson(config.arrival_rate),
            pending: VecDeque::new(),
            running: AppTable::new(),
            store: CoreStore::new(n),
            epoch_busy: vec![0.0; n],
            epoch_energy: vec![0.0; n],
            epoch_traffic: TrafficMatrix::new(mesh),
            link_loads: None,
            contention: ContentionModel::new(),
            queue: EventQueue::with_capacity(1024),
            rng_workload: root.derive("workload"),
            rng_faults,
            faults,
            health: HealthBoard::new(n),
            metrics: MetricsCollector::default(),
            epoch_trace: EpochTrace::default(),
            next_app_id: 0,
            next_inc: 0,
            apps_rejected: 0,
            measured_last: 0.0,
            tdp: params.tdp,
            events: config.event_capacity.map(EventLog::bounded),
            next_event_id: 0,
            pending_cause: BTreeMap::new(),
            fault_cause: vec![None; n],
            suspect_cause: vec![None; n],
            session_cause: vec![None; n],
            last_cap_event: None,
            quarantine_event: vec![None; n],
            probe_event: vec![None; n],
            probe_next_at: vec![f64::INFINITY; n],
            probe_gen: vec![0; n],
            probes_inflight: 0,
            phase_obs: Box::new(NullPhaseObserver),
            profile: PhaseProfile::default(),
            recorder: config
                .state_snapshot_max
                .map(|cap| StateRecorder::with_capacity(cap.max(2))),
            calendar: WakeCalendar::new(
                config.criticality,
                config.test_scheduler.criticality_threshold,
                EPOCH.as_secs_f64(),
                // A gated core's wear on the steady path: the wear pass
                // charges it at 0 W.
                (!config.transient_thermal).then(|| aging.damage(0.0, EPOCH.as_secs_f64())),
            ),
            ctx_scratch: MapContext::all_free(mesh),
            candidates_scratch: Vec::with_capacity(n),
            retests_scratch: Vec::with_capacity(n),
            powers_scratch: Vec::with_capacity(n),
            launches_scratch: Vec::new(),
            denials_scratch: Vec::new(),
            checkpoint_scratch: Vec::new(),
            config,
        })
    }

    /// Replaces the phase-boundary observer. The control loop brackets
    /// every phase (PID, fault sweep, mapping, test scheduling, event
    /// drain, epoch close) with `enter`/`exit` calls; the simulator
    /// itself never measures time across them — the bench batch runner
    /// installs a wall-clock timer here to attach real per-phase time to
    /// a job, which stays off the (deterministic) report.
    pub fn set_phase_observer(&mut self, observer: Box<dyn PhaseObserver>) {
        self.phase_obs = observer;
    }

    /// Emits one *root* telemetry event (no cause link), minting the
    /// run's next sequential [`EventId`] and appending the record to the
    /// event log if the run captures one. Root emissions are audited
    /// sites: the emission-coverage lint requires a `lint:allow` naming
    /// why the event has no cause. Without a log this only increments
    /// the id, and the `map_context_allocs` counting-allocator test holds
    /// it to zero heap allocations.
    #[inline]
    pub fn observe(&mut self, now: f64, ev: SimEvent) -> EventId {
        self.observe_linked(now, None, ev)
    }

    /// Emits one telemetry event with an optional provenance link. This
    /// is the single choke point every control-loop emission funnels
    /// through (the emission-coverage lint bans direct `push_record` and
    /// `push_caused` calls in this file), so every event gets a
    /// deterministic id.
    #[inline]
    pub fn observe_linked(
        &mut self,
        now: f64,
        cause: Option<CauseLink>,
        ev: SimEvent,
    ) -> EventId {
        // lint:allow(event-emission-coverage, reason = "the id-minting funnel itself: this is the one audited raw emit_record every helper routes through")
        emit_record(self.events.as_mut(), &mut self.next_event_id, now, cause, ev)
    }

    /// Emits one telemetry event caused by `cause` via a `kind` link.
    #[inline]
    fn emit_caused(&mut self, now: f64, kind: CauseKind, cause: EventId, ev: SimEvent) -> EventId {
        self.observe_linked(now, Some(CauseLink::new(kind, cause)), ev)
    }

    /// Runs the full horizon and produces the report.
    pub fn run(mut self) -> Report {
        let first_gap = self.arrivals.next_interarrival(&mut self.rng_workload);
        self.queue.schedule(SimTime::ZERO + first_gap, Ev::Arrival);
        let epochs = self.config.epoch_count();
        // Completions cluster at shared timestamps (synchronised task
        // graphs, epoch-aligned launches); draining each cluster in one
        // heap pass skips the per-event sift-down of the old
        // one-at-a-time loop. Handler-scheduled same-time events sort
        // after the batch, so the handling order is unchanged.
        let mut batch = Vec::with_capacity(64);
        for e in 0..epochs {
            let epoch = Epoch(e);
            let t0 = epoch.start(EPOCH);
            let t1 = epoch.end(EPOCH);
            self.control(t0.as_secs_f64());
            self.phase_obs.enter(Phase::Events);
            while self.queue.pop_batch_before(t1, &mut batch) > 0 {
                self.profile.queue_batches += 1;
                PhaseProfile::raise(&mut self.profile.batch_high_water, batch.len());
                for ev in batch.drain(..) {
                    self.profile.events_processed += 1;
                    self.handle(ev.payload, ev.time.as_secs_f64());
                }
            }
            self.phase_obs.exit(Phase::Events);
            self.phase_obs.enter(Phase::Thermal);
            self.close_epoch(t1.as_secs_f64());
            self.phase_obs.exit(Phase::Thermal);
        }
        self.finalize()
    }

    // ----- accounting ---------------------------------------------------

    fn mode_power(&self, mode: CoreMode) -> (PowerCategory, f64) {
        match mode {
            CoreMode::Off => (PowerCategory::Idle, 0.0),
            CoreMode::Idle(op) => (
                PowerCategory::Idle,
                self.model.core_power(op, PowerModel::IDLE_ACTIVITY),
            ),
            CoreMode::Busy(op) => (
                PowerCategory::Workload,
                self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY),
            ),
            CoreMode::Testing(op, activity) => {
                (PowerCategory::Test, self.model.core_power(op, activity))
            }
        }
    }

    /// Charges the core's current mode for `[accrued_since, now)`.
    fn charge_core(&mut self, core: usize, now: f64) {
        let since = self.store.accrued_since(core);
        let dt = now - since;
        if dt <= 0.0 {
            self.store.set_accrued_since(core, now);
            return;
        }
        let mode = self.store.mode(core);
        let (cat, watts) = self.mode_power(mode);
        self.meter.add(cat, watts, dt);
        self.epoch_energy[core] += watts * dt;
        if matches!(mode, CoreMode::Busy(_)) {
            self.epoch_busy[core] += dt;
            // Corruption exposure: app work executed on this core while a
            // fault was actively corrupting — from injection until the
            // fault cools (never, for solid faults) or the response
            // pipeline withdraws the core. A withdrawn core is never
            // Busy, so this stops accruing exactly at quarantine and can
            // only resume if a *re-admitted* core still hosts a live
            // (uncooled) fault.
            let overlap = self.faults.corrupting_overlap(core, since, now);
            if overlap > 0.0 {
                self.metrics.corruption_exposure += overlap;
            }
        }
        self.store.set_accrued_since(core, now);
    }

    /// The telemetry ladder index a mode runs at ([`VfLevel::GATED`] = off).
    fn mode_level(mode: CoreMode) -> i16 {
        match mode {
            CoreMode::Off => VfLevel::GATED,
            CoreMode::Idle(op) | CoreMode::Busy(op) => op.level.telemetry_index(),
            CoreMode::Testing(op, _) => op.level.telemetry_index(),
        }
    }

    fn set_mode(&mut self, core: usize, now: f64, mode: CoreMode) {
        self.charge_core(core, now);
        let from = Self::mode_level(self.store.mode(core));
        let to = Self::mode_level(mode);
        if from != to {
            // lint:allow(event-emission-coverage, reason = "genuine root: V/f moves happen on every mode change (admission, completion, gating); attributing one upstream decision would be arbitrary")
            self.observe(
                now,
                SimEvent::DvfsTransition {
                    core: core as u32,
                    from,
                    to,
                },
            );
            // Leaving `Off`: a gated core's own wake bound ends here.
            if from == VfLevel::GATED {
                let never_powered = self.store.is_never_powered(core);
                self.calendar.power_on(core, never_powered);
            }
        }
        self.store.set_mode(core, mode);
    }

    // ----- control plane (epoch boundaries) ------------------------------

    fn control(&mut self, now: f64) {
        self.profile.epochs += 1;
        self.phase_obs.enter(Phase::Pid);
        let cap = self.governor.next_cap(self.tdp, self.measured_last);
        self.budget.set_cap(cap);
        self.metrics.cap_adjustments += 1;
        self.profile.pid_updates += 1;
        // lint:allow(event-emission-coverage, reason = "genuine root: the PID cap move starts each epoch's causal chains")
        let cap_id = self.observe(
            now,
            SimEvent::CapAdjusted {
                cap,
                measured: self.measured_last,
                headroom: self.budget.headroom(),
                reservations: self.budget.active_reservations() as u32,
            },
        );
        self.last_cap_event = Some(cap_id);
        self.phase_obs.exit(Phase::Pid);
        self.phase_obs.enter(Phase::Fault);
        self.profile.fault_sweeps += 1;
        {
            let log = &mut self.events;
            let next_id = &mut self.next_event_id;
            let fault_cause = &mut self.fault_cause;
            let activations = &mut self.metrics.fault_activations;
            let profiled = &mut self.profile.fault_activations;
            self.faults.activate_due_with(now, |core| {
                *activations += 1;
                *profiled += 1;
                // lint:allow(event-emission-coverage, reason = "genuine root: fault injection is exogenous; raw emit_record because the fault-log callback borrow-splits the event log")
                let id = emit_record(
                    log.as_mut(),
                    next_id,
                    now,
                    None,
                    SimEvent::FaultActivated { core: core as u32 },
                );
                fault_cause[core] = Some(id);
            });
        }
        self.phase_obs.exit(Phase::Fault);
        // Lifecycle lane: probe withdrawn cores (so a core re-admitted
        // this tick is mappable below) and checkpoint running apps.
        // Neither is a profiled phase: both are no-ops unless the run
        // opted into the lane / MigrateRegion checkpointing.
        self.probe_lane(now);
        self.checkpoint_apps(now);
        self.phase_obs.enter(Phase::Map);
        self.admit_pending(now);
        self.phase_obs.exit(Phase::Map);
        if self.config.testing_enabled {
            self.phase_obs.enter(Phase::Schedule);
            self.schedule_tests(now);
            self.phase_obs.exit(Phase::Schedule);
        }
    }

    /// Rebuilds the mapper's platform snapshot for time `now` and returns
    /// it. The snapshot lives in a scratch buffer owned by the system, so
    /// after the first control tick this performs **zero heap
    /// allocations**: the `map_context_allocs` integration test in
    /// `crates/bench/tests/` holds it to that.
    pub fn map_context(&mut self, now: f64) -> &MapContext {
        self.fill_map_context(now, None);
        &self.ctx_scratch
    }

    /// Rebuilds the mapper's snapshot in place. The nodes of `offer_back`
    /// (an app being remapped) count as free, so the mapper may keep them.
    fn fill_map_context(&mut self, now: f64, offer_back: Option<AppId>) {
        self.profile.ctx_rebuilds += 1;
        let ctx = &mut self.ctx_scratch;
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

    fn admit_pending(&mut self, now: f64) {
        self.profile.admit_scans += 1;
        PhaseProfile::raise(&mut self.profile.pending_high_water, self.pending.len());
        // The mapper snapshot is rebuilt at most once per control tick:
        // after each admission the claimed nodes are patched in place
        // (occupancy and the in-test criticality bias are the only inputs
        // that can change between admissions of the same tick), which is
        // bit-identical to a full rebuild because stress, health and `now`
        // are constant until the event phase runs.
        let mut ctx_fresh = false;
        loop {
            let Some(task_count) = self.pending.front().map(|f| f.graph.task_count()) else {
                break;
            };
            if task_count > self.mesh.node_count() {
                // Can never fit on this platform.
                // lint:allow(hot-path-purity, reason = "front() returned Some three lines up and nothing touched the queue since")
                let app = self.pending.pop_front().expect("checked front");
                self.apps_rejected += 1;
                let cause = self.pending_cause.remove(&app.id.0);
                self.observe_linked(
                    now,
                    cause,
                    SimEvent::AppRejected {
                        app: app.id.0,
                        tasks: task_count as u32,
                    },
                );
                continue;
            }
            // Maintained free set: O(1) instead of filtering every core
            // per pending application.
            self.profile.free_set_queries += 1;
            if self.store.mappable_count() < task_count {
                break;
            }
            // DVFS admission: the highest level whose projected power fits
            // the current headroom.
            let headroom = self.budget.headroom();
            let per_core_cap = headroom / task_count as f64;
            let Some(op) = self.ladder.highest_under(per_core_cap, |op| {
                self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY)
            }) else {
                break; // not even near-threshold fits: wait for power
            };
            if !ctx_fresh {
                self.map_context(now);
                ctx_fresh = true;
            }
            // lint:allow(hot-path-purity, reason = "loop header breaks when the queue is empty; no admission path pops between there and here")
            let front = self.pending.front().expect("checked non-empty above");
            let Some(mapping) = self.mapper.map(&self.ctx_scratch, &front.graph) else {
                break; // fragmentation: wait for departures
            };
            let watts = task_count as f64
                * self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY);
            let Ok(reservation) = self.budget.reserve(watts) else { break };
            // lint:allow(hot-path-purity, reason = "same front() entry the mapper just placed; the queue is untouched since the loop header check")
            let app = self.pending.pop_front().expect("checked front");
            let queue_wait = now - app.arrival.as_secs_f64();
            let hop_cost = mapping.weighted_hop_cost(&app.graph);
            self.metrics.queue_wait.push(queue_wait);
            self.metrics.hop_cost.push(hop_cost);
            let id = app.id;
            self.profile.apps_admitted += 1;
            // lint:allow(hot-path-purity, reason = "the mapper only returns mappings for non-empty graphs, and task graphs are validated non-empty at construction")
            let (bb_min, bb_max) = mapping.bounding_box().expect("mapping is non-empty");
            let cause = self.pending_cause.remove(&id.0);
            let mapped_event = self.observe_linked(
                now,
                cause,
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
                    self.ctx_scratch
                        .set_criticality(coord, self.criticality.criticality(s, now).max(0.0));
                    self.profile.ctx_delta_updates += 1;
                }
                debug_assert!(self.store.owner(core).is_none());
                self.store.set_owner(core, Some((id, task)));
                self.ctx_scratch.set_free(coord, false);
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
                self.queue.schedule(
                    SimTime::from_ns((now * 1e9).round() as u64),
                    Ev::TaskReady { app: id.0, task: root, inc },
                );
            }
        }
    }

    fn schedule_tests(&mut self, now: f64) {
        // Reuse the candidate buffer across ticks (`plan` takes `&mut
        // self.scheduler`, so the buffer is moved out for the call).
        let mut candidates = std::mem::take(&mut self.candidates_scratch);
        candidates.clear();
        // Suspect cores go through the priority retest lane instead of
        // the ranked pool: pinned to the level the detection happened at,
        // exempt from the criticality threshold, served first.
        let mut retests = std::mem::take(&mut self.retests_scratch);
        retests.clear();
        // One walk over the testable cores the wake-up calendar has due,
        // in ascending core order. A healthy core below the threshold
        // can never launch or be denied, so only the cores at or above it
        // become candidates, and the ranking sees exactly the full
        // scan's list. Non-healthy cores never leave the due set, so the
        // retest lane is the full scan's too.
        let mut scanned = 0u64;
        self.calendar.ensure_len(self.store.len());
        // On the steady thermal path the cores that were never powered
        // have one stress history, bit for bit: the wear pass charges
        // each the same 0 W damage every epoch, and none was ever
        // tested. So they are one class, healthy and testable, with one
        // criticality and one wake epoch, and the walk skips them. The
        // ranked lane expands the class from the never-powered bitset.
        let steady = self.thermal.is_none();
        let never_powered = self.store.never_powered_words();
        let mut class = None;
        if steady && self.calendar.class_due() {
            if let Some(w) = never_powered.iter().position(|&word| word != 0) {
                let first = w * 64 + never_powered[w].trailing_zeros() as usize;
                scanned += 1;
                let criticality = self.criticality.criticality(self.stress.core(first), now);
                if self.calendar.offer_class(criticality) {
                    class = Some(criticality);
                }
            }
        }
        let powered = self.store.powered_words();
        for (w, &word) in self.store.testable_words().iter().enumerate() {
            let word = if steady {
                word & !never_powered[w]
            } else {
                word
            };
            let mut bits = if word == 0 {
                0
            } else {
                word & self.calendar.due_word(w)
            };
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let i = w * 64 + bit as usize;
                bits &= bits - 1;
                scanned += 1;
                if self.health.is_healthy(i) {
                    let criticality = self.criticality.criticality(self.stress.core(i), now);
                    let gated = powered[w] >> bit & 1 == 0;
                    if self.calendar.offer(i, criticality, gated) {
                        candidates.push(TestCandidate { core: i, criticality });
                    }
                } else if let Some(level) = self.health.suspect_level(i) {
                    retests.push(RetestRequest { core: i, level });
                }
            }
        }
        #[cfg(test)]
        self.assert_matches_full_scan(now, &candidates, &retests, class);
        self.profile.candidates_scanned += scanned;
        self.profile.sched_calls += 1;
        self.profile.retests_planned += retests.len() as u64;
        PhaseProfile::raise(&mut self.profile.candidates_high_water, candidates.len());
        if candidates.is_empty() && retests.is_empty() && class.is_none() {
            self.candidates_scratch = candidates;
            self.retests_scratch = retests;
            return;
        }
        let headroom = self.budget.headroom();
        let mut launches = std::mem::take(&mut self.launches_scratch);
        let mut denials = std::mem::take(&mut self.denials_scratch);
        let class = class.map(|criticality| CandidateClass {
            criticality,
            members: self.store.never_powered_words(),
        });
        self.scheduler.plan_with_retests_into(
            &retests,
            &candidates,
            class,
            headroom,
            &mut launches,
            &mut denials,
        );
        self.candidates_scratch = candidates;
        self.retests_scratch = retests;
        self.profile.heap_pops = self.scheduler.heap_pops();
        self.profile.sched_denials += denials.len() as u64;
        PhaseProfile::raise(&mut self.profile.launches_high_water, launches.len());
        // Denials are caused by the epoch's power state, which the cap
        // move freshly established at the top of this control tick.
        let cap_link = self
            .last_cap_event
            .map(|id| CauseLink::new(CauseKind::CapMove, id));
        for d in &denials {
            self.observe_linked(
                now,
                cap_link,
                SimEvent::TestDeniedPower {
                    core: d.core as u32,
                    needed: d.power,
                    headroom: d.headroom,
                },
            );
        }
        for launch in &launches {
            let Ok(reservation) = self.budget.reserve(launch.power) else {
                continue;
            };
            let core = launch.core;
            let session = TestSession::new(
                launch.routine,
                launch.level,
                launch.instructions,
                launch.rate,
                now,
            );
            let op = self.scheduler.ladder().point(launch.level);
            let activity = self.scheduler.library().routine(launch.routine).activity;
            let gen = self.store.begin_session(core, session, reservation);
            self.profile.sched_launches += 1;
            self.set_mode(core, now, CoreMode::Testing(op, activity));
            // Retest-lane launches are caused by the open suspicion;
            // ranked-pool launches are periodic policy decisions (roots).
            let lane = if self.health.is_suspect(core) {
                self.suspect_cause[core].map(|id| CauseLink::new(CauseKind::RetestLane, id))
            } else {
                None
            };
            // Ranked-lane launches are genuine roots (periodic SBST is
            // the policy's own clock); retest-lane launches chain back
            // to the suspicion via `lane`, so no allow is needed here.
            let launch_id = self.observe_linked(
                now,
                lane,
                SimEvent::TestLaunched {
                    core: core as u32,
                    routine: launch.routine.0,
                    level: launch.level.0,
                    power: launch.power,
                    headroom: self.budget.headroom(),
                },
            );
            self.session_cause[core] = Some(launch_id);
            let finish = now + launch.duration();
            self.queue.schedule(
                SimTime::from_ns((finish * 1e9).round() as u64),
                Ev::SessionFinish { core, gen },
            );
        }
        self.launches_scratch = launches;
        self.denials_scratch = denials;
    }

    fn abort_session(&mut self, core: usize, now: f64, reason: AbortReason) {
        let (session, reservation) = self.store.end_session(core);
        debug_assert!(session.is_some());
        debug_assert!(
            reservation.is_some(),
            "active session holds a reservation"
        );
        if let Some(reservation) = reservation {
            self.budget.release(reservation);
        }
        self.scheduler.on_session_aborted(core);
        self.metrics.tests_aborted += 1;
        let session_link = self.session_cause[core]
            .take()
            .map(|id| CauseLink::new(CauseKind::Session, id));
        self.observe_linked(
            now,
            session_link,
            SimEvent::TestAborted {
                core: core as u32,
                reason,
            },
        );
        let owner_op = self.owner_op(core);
        let mode = match owner_op {
            Some(op) => CoreMode::Idle(op),
            None => CoreMode::Off,
        };
        self.set_mode(core, now, mode);
    }

    fn owner_op(&self, core: usize) -> Option<OperatingPoint> {
        let (app, _) = self.store.owner(core)?;
        let op = self.running.get_app(app.0).map(|app| app.op);
        debug_assert!(op.is_some(), "owner {app} of core {core} is not running");
        op
    }

    // ----- event handlers -------------------------------------------------

    fn handle(&mut self, ev: Ev, now: f64) {
        match ev {
            Ev::Arrival => self.on_arrival(now),
            Ev::TaskReady { app, task, inc } => self.on_task_ready(app, task, inc, now),
            Ev::TaskFinish { app, task, inc } => self.on_task_finish(app, task, inc, now),
            Ev::SessionFinish { core, gen } => self.on_session_finish(core, gen, now),
            Ev::ProbeFinish { core, gen } => self.on_probe_finish(core, gen, now),
        }
    }

    // lint:effect(alloc+panic, reason = "arrival lane materializes the sampled task graph and backlog entry; generator validation panics only on malformed workload configs")
    fn on_arrival(&mut self, now: f64) {
        let graph = self.mix.sample(&mut self.rng_workload);
        let id = AppId(self.next_app_id);
        self.next_app_id += 1;
        self.metrics.apps_arrived += 1;
        // lint:allow(event-emission-coverage, reason = "genuine root: arrivals are exogenous workload-process draws")
        let arrived = self.observe(
            now,
            SimEvent::AppArrived {
                app: id.0,
                tasks: graph.task_count() as u32,
            },
        );
        self.pending_cause
            .insert(id.0, CauseLink::new(CauseKind::Arrival, arrived));
        self.pending.push_back(Application {
            id,
            graph,
            arrival: SimTime::from_ns((now * 1e9).round() as u64),
        });
        let gap = self.arrivals.next_interarrival(&mut self.rng_workload);
        let next = SimTime::from_ns((now * 1e9).round() as u64) + gap;
        self.queue.schedule(next, Ev::Arrival);
    }

    fn on_task_ready(&mut self, app_id: u64, task: TaskId, inc: u64, now: f64) {
        let (coord, op, duration) = {
            // Stale events outlive their app (abort) or its placement
            // (restart, migration): drop anything whose instance counter
            // no longer matches.
            let Some(app) = self.running.get_app(app_id) else { return };
            if app.inc != inc {
                return;
            }
            debug_assert!(matches!(app.tasks[task.index()], TaskState::Waiting));
            let coord = app.mapping.coord_of(task);
            let rate = app.op.frequency * WORKLOAD_IPC;
            let duration = app.graph.task(task).instructions as f64 / rate;
            (coord, app.op, duration)
        };
        let core = self.mesh.node_id(coord).index();
        let mut duration = duration;
        if let Some(mut session) = self.store.session(core) {
            if self.config.intrusive_testing {
                // Ablation mode: the test has priority — the task retries
                // once the session is done. Sessions are advanced lazily;
                // sync this copy to compute the true remaining time.
                session.advance(now - session.started_at());
                let retry = now + session.remaining_seconds().max(1e-9) + 1e-9;
                self.queue.schedule(
                    SimTime::from_ns((retry * 1e9).round() as u64),
                    Ev::TaskReady { app: app_id, task, inc },
                );
                return;
            }
            // Non-intrusive testing: the workload wins, but restoring the
            // core's architectural state after the SBST routine costs a
            // small fixed overhead — the source of the (sub-1 %)
            // throughput penalty the paper reports.
            self.abort_session(core, now, AbortReason::TaskPreempted);
            duration += self.config.abort_overhead.as_secs_f64();
        }
        debug_assert!(
            !matches!(self.store.mode(core), CoreMode::Busy(_)),
            "core hosts one task at a time"
        );
        self.set_mode(core, now, CoreMode::Busy(op));
        let finish = now + duration;
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "app {app_id} was checked running above");
            return;
        };
        app.tasks[task.index()] = TaskState::Running { finish };
        self.queue.schedule(
            SimTime::from_ns((finish * 1e9).round() as u64),
            Ev::TaskFinish { app: app_id, task, inc },
        );
    }

    fn on_task_finish(&mut self, app_id: u64, task: TaskId, inc: u64, now: f64) {
        let coord = match self.running.get_app(app_id) {
            Some(app) if app.inc == inc => app.mapping.coord_of(task),
            _ => return, // stale: the app was torn down or re-placed
        };
        // Release the core first.
        let core = self.mesh.node_id(coord).index();
        self.store.set_owner(core, None);
        self.set_mode(core, now, CoreMode::Off);
        let links = Links {
            model: &self.link_model,
            loads: self.link_loads.as_ref(),
            contention: &self.contention,
        };
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "app {app_id} was checked running above");
            return;
        };
        // Record completion and instructions, and hand the task's share of
        // the power reservation back so later admissions (and tests) can
        // use it.
        self.metrics.instructions += app.graph.task(task).instructions;
        app.tasks[task.index()] = TaskState::Done { at: now };
        app.done_count += 1;
        let complete = app.is_complete();
        if !complete {
            let shrunk = (app.reservation.watts() - app.per_task_watts).max(0.0);
            let resized = self.budget.resize(&mut app.reservation, shrunk);
            debug_assert!(resized.is_ok(), "shrinking a reservation cannot fail");
        }
        let app = &*app;
        // Send output messages: charge NoC traffic + energy.
        for e in app.graph.out_edges(task) {
            let dst = app.mapping.coord_of(e.to);
            if self.config.model_contention {
                self.epoch_traffic.charge_route(coord, dst, e.bits);
            }
            let cost = self.link_model.message_cost(coord, dst, e.bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Wake successors whose inputs are now complete.
        let latency = |p: TaskId, t: TaskId, bits| {
            links.latency(app.mapping.coord_of(p), app.mapping.coord_of(t), bits)
        };
        for (to, ready) in app.woken_by(task, latency) {
            let ready = ready.max(now);
            #[cfg(test)]
            tests::note_wake(to, ready);
            self.queue.schedule(
                SimTime::from_ns((ready * 1e9).round() as u64),
                Ev::TaskReady { app: app_id, task: to, inc },
            );
        }
        #[cfg(test)]
        self.assert_wakes_match_reference(app_id, task, now);
        // Application completion.
        if complete {
            let Some(app) = self.running.remove_app(app_id) else {
                debug_assert!(false, "app {app_id} was checked running above");
                return;
            };
            self.budget.release(app.reservation);
            self.metrics.apps_completed += 1;
            let latency = now - app.arrived_at;
            self.metrics.app_latency.push(latency);
            self.emit_caused(
                now,
                CauseKind::Mapping,
                app.mapped_event,
                SimEvent::AppCompleted {
                    app: app_id,
                    latency,
                },
            );
        }
    }

    fn on_session_finish(&mut self, core: usize, gen: u64, now: f64) {
        if self.store.session_gen(core) != gen {
            return; // stale event from an aborted session
        }
        // `end_session` leaves the generation untouched when no session
        // is live, so a second stale event for the same gen still drops.
        let (session, reservation) = self.store.end_session(core);
        let Some(session) = session else {
            return; // stale event from an aborted session
        };
        debug_assert!(
            reservation.is_some(),
            "active session holds a reservation"
        );
        if let Some(reservation) = reservation {
            self.budget.release(reservation);
        }
        self.scheduler
            .on_session_complete(core, session.routine(), session.level());
        // −1 until the core's first completion.
        let prev_test = self.stress.core(core).last_test_time;
        self.stress.note_test_complete(core, now);
        let routine = self.scheduler.library().routine(session.routine());
        let respond = !matches!(self.config.fault_response, FaultResponsePolicy::Ignore);
        let is_retest = respond && self.health.is_suspect(core);
        // Id of a FaultDetected emitted by this completion, if any: the
        // suspicion it triggers links back to it (otherwise the suspicion
        // is a false alarm caused by the completion itself).
        let mut detect_id: Option<EventId> = None;
        let symptom = if is_retest {
            // Confirmation retest: draw only over the faults actually
            // present on this core — a fault-free core can never confirm,
            // so false positives are structurally unable to quarantine a
            // healthy core. No false-alarm draw here either: confirmation
            // compares failure signatures, which a spurious pass/fail
            // flip cannot fake twice.
            self.faults
                .confirm(core, routine, session.level(), now, &mut self.rng_faults)
        } else {
            let detected = {
                let log = &mut self.events;
                let next_id = &mut self.next_event_id;
                let fault_cause = &self.fault_cause;
                let detect_slot = &mut detect_id;
                self.faults.on_test_complete_with(
                    core,
                    routine,
                    session.level(),
                    now,
                    &mut self.rng_faults,
                    |faulty_core, latency| {
                        let cause = fault_cause[faulty_core]
                            .map(|id| CauseLink::new(CauseKind::Activation, id));
                        // lint:allow(event-emission-coverage, reason = "cause set inline (activation link); raw emit_record because the fault-log callback borrow-splits the event log")
                        *detect_slot = Some(emit_record(
                            log.as_mut(),
                            next_id,
                            now,
                            cause,
                            SimEvent::FaultDetected {
                                core: faulty_core as u32,
                                latency,
                            },
                        ));
                    },
                )
            };
            // Guarded draw: a zero rate (the default) consumes no
            // randomness, keeping historical seeds bit-identical.
            detected
                || (routine.false_positive_rate > 0.0
                    && self.rng_faults.gen_bool(routine.false_positive_rate))
        };
        self.metrics.tests_completed += 1;
        let interval = if prev_test >= 0.0 {
            self.metrics.test_interval.push(now - prev_test);
            now - prev_test
        } else {
            -1.0 // first completion on this core
        };
        let ledger = self.scheduler.ledger();
        let covered_levels = (0..ledger.level_count())
            .filter(|&l| ledger.tests_at(core, VfLevel(l as u8)) > 0)
            .count() as u8;
        let session_link = self.session_cause[core]
            .take()
            .map(|id| CauseLink::new(CauseKind::Session, id));
        let completed = self.observe_linked(
            now,
            session_link,
            SimEvent::TestCompleted {
                core: core as u32,
                routine: session.routine().0,
                level: session.level().0,
                covered_levels,
                interval,
            },
        );
        if is_retest {
            self.metrics.confirmation_retests += 1;
            let (used, remaining) = self.health.note_retest_complete(core);
            if symptom {
                self.quarantine_core(
                    core,
                    u32::from(used),
                    now,
                    CauseLink::new(CauseKind::RetestFailed, completed),
                );
            } else if remaining == 0 {
                // K retests, no reproduction: the platform stops
                // believing the original detection.
                self.health.clear(core);
                self.faults.demote_to_latent(core);
                self.metrics.cores_cleared += 1;
                self.suspect_cause[core] = None;
                self.emit_caused(
                    now,
                    CauseKind::RetestPassed,
                    completed,
                    SimEvent::CoreCleared {
                        core: core as u32,
                        retests: u32::from(used),
                    },
                );
            }
        } else if respond && symptom && self.health.is_healthy(core) {
            self.metrics.cores_suspected += 1;
            // A detection (if the test actually caught a fault) or the
            // completion's own false-positive draw triggered this.
            let suspicion_link = match detect_id {
                Some(d) => CauseLink::new(CauseKind::Detection, d),
                None => CauseLink::new(CauseKind::FalseAlarm, completed),
            };
            let suspected = self.observe_linked(
                now,
                Some(suspicion_link),
                SimEvent::CoreSuspected {
                    core: core as u32,
                    level: session.level().0,
                },
            );
            self.suspect_cause[core] = Some(suspected);
            self.health.mark_suspect(core, session.level(), CONFIRMATION_RETESTS);
        }
        let mode = if self.health.is_withdrawn(core) {
            CoreMode::Off
        } else {
            match self.owner_op(core) {
                Some(op) => CoreMode::Idle(op),
                None => CoreMode::Off,
            }
        };
        self.set_mode(core, now, mode);
    }

    // ----- fault response -------------------------------------------------

    /// Withdraws `core` permanently: records the quarantine (and whether
    /// it was false), relocates or kills the victim application per the
    /// configured policy, power-gates the core and derates the admission
    /// budget to the surviving capacity. The `CoreQuarantined` event is
    /// emitted *before* the gating `DvfsTransition`, which the audit
    /// sequence invariant relies on.
    fn quarantine_core(&mut self, core: usize, retests: u32, now: f64, cause: CauseLink) {
        self.health.quarantine(core);
        // Mirror the health bit into the store so the maintained
        // mappable count drops without consulting the board.
        self.store.set_quarantined(core);
        self.metrics.cores_quarantined += 1;
        if !self.faults.has_solid_active_fault(core, now) {
            // Nothing solid on the core: intermittent symptoms or false
            // positives were confirmed by chance. Capacity lost for less
            // than a hard fault — the price of believing retests.
            self.metrics.false_quarantines += 1;
        }
        self.suspect_cause[core] = None;
        let qid = self.observe_linked(
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
        self.quarantine_event[core] = Some(qid);
        if let Some(cadence) = self.config.probe_cadence {
            self.probe_next_at[core] = now + cadence.as_secs_f64();
        }
        if let Some((victim, _)) = self.store.owner(core) {
            match self.config.fault_response {
                // lint:allow(hot-path-purity, reason = "structurally dead: confirmation retests (the only quarantine trigger) are disabled under Ignore")
                FaultResponsePolicy::Ignore => unreachable!("Ignore never quarantines"),
                FaultResponsePolicy::Abort => self.abort_app(victim.0, core, now, qid),
                FaultResponsePolicy::RestartElsewhere => {
                    self.restart_app(victim.0, core, now, qid)
                }
                FaultResponsePolicy::MigrateRegion => self.migrate_app(victim.0, core, now, qid),
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
    fn probe_lane(&mut self, now: f64) {
        if self.config.probe_cadence.is_none() {
            return;
        }
        for core in 0..self.store.len() {
            if self.probes_inflight >= PROBE_BUDGET {
                break;
            }
            if !self.health.is_quarantined(core) || now < self.probe_next_at[core] {
                continue;
            }
            self.health.begin_probation(core);
            self.probes_inflight += 1;
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
        self.metrics.probes_launched += 1;
        let streak = u32::from(self.health.probe_streak(core));
        let lane = self.quarantine_event[core]
            .map(|id| CauseLink::new(CauseKind::ProbeLane, id));
        debug_assert!(lane.is_some(), "probing a never-quarantined core");
        let pid = self.observe_linked(
            now,
            lane,
            SimEvent::CoreProbeLaunched {
                core: core as u32,
                streak,
                inflight: self.probes_inflight,
            },
        );
        self.probe_event[core] = Some(pid);
        let op = self.scheduler.ladder().point(VfLevel(0));
        let (duration, activity) = {
            let routine = self.scheduler.library().routine(RoutineId(0));
            (
                routine.duration(op.frequency, 1.0) * PROBE_INSTRUCTION_FRACTION,
                routine.activity,
            )
        };
        self.set_mode(core, now, CoreMode::Testing(op, activity));
        self.probe_gen[core] += 1;
        let finish = now + duration;
        self.queue.schedule(
            SimTime::from_ns((finish * 1e9).round() as u64),
            Ev::ProbeFinish { core, gen: self.probe_gen[core] },
        );
    }

    /// Resolves a completed probe: a manifested fault fails probation
    /// (re-quarantine, exponential cadence backoff); a clean probe banks
    /// one pass and either launches the next probe back to back or, once
    /// the streak reaches the configured passes, re-admits the core to
    /// the mappable pool.
    fn on_probe_finish(&mut self, core: usize, gen: u64, now: f64) {
        if self.probe_gen[core] != gen || !self.health.is_probation(core) {
            return; // stale event
        }
        let Some(pid) = self.probe_event[core].take() else {
            debug_assert!(false, "probation core {core} has no live probe event");
            return;
        };
        let manifested =
            self.faults
                .probe(core, PROBE_COVERAGE, VfLevel(0), now, &mut self.rng_faults);
        if manifested {
            let backoff = self.health.fail_probation(core);
            self.metrics.cores_requarantined += 1;
            let rid = self.emit_caused(
                now,
                CauseKind::ProbeFailed,
                pid,
                SimEvent::CoreRequarantined {
                    core: core as u32,
                    backoff: u32::from(backoff),
                },
            );
            self.quarantine_event[core] = Some(rid);
            if let Some(cadence) = self.config.probe_cadence {
                // At most 2^4: the shift and the conversion are exact.
                let exp = backoff.min(PROBE_BACKOFF_CAP);
                self.probe_next_at[core] = now + cadence.as_secs_f64() * f64::from(1u8 << exp);
            }
            self.probes_inflight -= 1;
            self.set_mode(core, now, CoreMode::Off);
            return;
        }
        let streak = self.health.note_probe_pass(core);
        if streak < PROBE_PASSES {
            self.launch_probe(core, now);
            return;
        }
        let probes = u32::from(self.health.readmit(core));
        self.metrics.cores_readmitted += 1;
        // Mirror the health bit back into the store: the maintained
        // mappable count recovers without consulting the board.
        self.store.set_healthy(core, true);
        self.emit_caused(
            now,
            CauseKind::ProbePassed,
            pid,
            SimEvent::CoreReadmitted {
                core: core as u32,
                probes,
            },
        );
        self.quarantine_event[core] = None;
        self.probe_next_at[core] = f64::INFINITY;
        self.probes_inflight -= 1;
        self.set_mode(core, now, CoreMode::Off);
        self.derate_to_surviving_capacity();
    }

    // ----- checkpointing ---------------------------------------------------

    /// Writes a checkpoint image for every running application whose
    /// dirty span reached the configured interval. Only meaningful under
    /// [`FaultResponsePolicy::MigrateRegion`] (the only policy that ever
    /// replays checkpointed state); a zero interval disables the scan.
    fn checkpoint_apps(&mut self, now: f64) {
        if !matches!(self.config.fault_response, FaultResponsePolicy::MigrateRegion) {
            return;
        }
        let interval = self.config.checkpoint_interval.as_secs_f64();
        if interval <= 0.0 {
            return;
        }
        let mut due = std::mem::take(&mut self.checkpoint_scratch);
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
        self.checkpoint_scratch = due;
    }

    /// Captures one application's live task state: every non-done task
    /// pauses for the image write (a fraction of the migration delay,
    /// re-issued under a fresh instance counter exactly like a
    /// migration), the dirty span resets, and `AppCheckpointed` chains
    /// back to the placement it protects.
    fn checkpoint_app(&mut self, app_id: u64, now: f64) {
        let links = Links {
            model: &self.link_model,
            loads: self.link_loads.as_ref(),
            contention: &self.contention,
        };
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "checkpoint target {app_id} is not running");
            return;
        };
        let live = app
            .tasks
            .iter()
            .filter(|t| !matches!(t, TaskState::Done { .. }))
            .count();
        if live == 0 {
            // Fully computed; only the completion event is in flight.
            app.last_checkpoint = now;
            return;
        }
        let pause = MIGRATION_DELAY.as_secs_f64() * CHECKPOINT_PAUSE_FRACTION;
        let inc = self.next_inc;
        self.next_inc += 1;
        app.inc = inc;
        for t in 0..app.tasks.len() {
            let task = TaskId(t as u32);
            match app.tasks[t] {
                TaskState::Running { finish } => {
                    let finish = finish + pause;
                    app.tasks[t] = TaskState::Running { finish };
                    self.queue.schedule(
                        SimTime::from_ns((finish * 1e9).round() as u64),
                        Ev::TaskFinish { app: app_id, task, inc },
                    );
                }
                TaskState::Waiting => {
                    let ready = app.ready_time(task, |p, bits| {
                        links.latency(app.mapping.coord_of(p), app.mapping.coord_of(task), bits)
                    });
                    // Still waiting on predecessors: their completion
                    // wakes it under the new counter.
                    let Some(ready) = ready else { continue };
                    let ready = ready.max(now) + pause;
                    self.queue.schedule(
                        SimTime::from_ns((ready * 1e9).round() as u64),
                        Ev::TaskReady { app: app_id, task, inc },
                    );
                }
                TaskState::Done { .. } => {}
            }
        }
        app.last_checkpoint = now;
        self.metrics.apps_checkpointed += 1;
        let mapped_event = app.mapped_event;
        self.emit_caused(
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
        self.metrics.apps_aborted += 1;
        self.emit_caused(
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
        self.metrics.apps_restarted += 1;
        let restarted = self.emit_caused(
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
        self.pending_cause
            .insert(id.0, CauseLink::new(CauseKind::Restart, restarted));
        self.pending.push_front(Application {
            id,
            graph,
            arrival: SimTime::from_ns((arrived_at * 1e9).round() as u64),
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
        let new_mapping = match self.mapper.remap(&self.ctx_scratch, &app.graph) {
            Some(m) => m,
            None => {
                self.running.insert_app(app_id, app);
                self.restart_app(app_id, bad_core, now, qid);
                return;
            }
        };
        let inc = self.next_inc;
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
        app.inc = inc;
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
                self.epoch_traffic.charge_route(old, new, state_bits);
            }
            let cost = self.link_model.message_cost(old, new, state_bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Re-issue the in-flight timing under the new instance counter;
        // moved tasks finish (or become ready) one transfer-delay late.
        let links = Links {
            model: &self.link_model,
            loads: self.link_loads.as_ref(),
            contention: &self.contention,
        };
        for t in 0..task_count {
            let task = TaskId(t as u32);
            let moved = old_mapping.coord_of(task) != app.mapping.coord_of(task);
            let penalty = if moved { delay } else { 0.0 };
            match app.tasks[t] {
                TaskState::Running { finish } => {
                    let finish = finish + penalty;
                    app.tasks[t] = TaskState::Running { finish };
                    self.queue.schedule(
                        SimTime::from_ns((finish * 1e9).round() as u64),
                        Ev::TaskFinish { app: app_id, task, inc },
                    );
                }
                TaskState::Waiting => {
                    let ready = app.ready_time(task, |p, bits| {
                        links.latency(app.mapping.coord_of(p), app.mapping.coord_of(task), bits)
                    });
                    // Still waiting on predecessors: their completion
                    // will wake it under the new counter.
                    let Some(ready) = ready else { continue };
                    let ready = ready.max(now) + penalty;
                    self.queue.schedule(
                        SimTime::from_ns((ready * 1e9).round() as u64),
                        Ev::TaskReady { app: app_id, task, inc },
                    );
                }
                TaskState::Done { .. } => {}
            }
        }
        self.running.insert_app(app_id, app);
        self.metrics.apps_migrated += 1;
        self.emit_caused(
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

    // ----- epoch close ----------------------------------------------------

    fn close_epoch(&mut self, t1: f64) {
        // Charge the powered cores only, walking the store's powered
        // bitset in ascending core order (the meter sums in the order a
        // full scan would). Power-gated cores draw exactly 0 W, so
        // charging them adds 0.0 joules everywhere — a float no-op (all
        // accumulators are non-negative, so `x + 0.0` cannot even flip a
        // `-0.0`). Skipping them leaves their accounting watermark stale,
        // which the next `set_mode` settles by charging the whole gated
        // span at 0 W: identical arithmetic, fewer meter calls.
        for w in 0..self.store.powered_words().len() {
            let mut bits = self.store.powered_words()[w];
            while bits != 0 {
                let core = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.charge_core(core, t1);
            }
        }
        let epoch_secs = EPOCH.as_secs_f64();
        let measured = self.meter.epoch_power(epoch_secs);
        let test_w = self
            .meter
            .epoch_category_power(PowerCategory::Test, epoch_secs);
        let workload_w = self
            .meter
            .epoch_category_power(PowerCategory::Workload, epoch_secs);
        if measured > self.tdp * 1.01 {
            self.metrics.cap_violations += 1;
        }
        // Flight recorder: per-core epoch powers are needed after the
        // aging loops below reset the energy accumulators, so stage them
        // in the scratch buffer now (the transient-thermal path refills
        // it with the same values).
        if self.recorder.is_some() && self.thermal.is_none() {
            self.powers_scratch.clear();
            self.powers_scratch
                // lint:allow(hot-path-purity, reason = "scratch buffer reuses its capacity across epochs; extend allocates only until the high-water mark")
                .extend(self.epoch_energy.iter().map(|&e| e / epoch_secs));
        }
        let trace = &mut self.epoch_trace;
        trace.push(EpochSeries::PowerW, t1, measured);
        trace.push(EpochSeries::TestPowerW, t1, test_w);
        trace.push(EpochSeries::WorkloadPowerW, t1, workload_w);
        trace.push(EpochSeries::CapW, t1, self.budget.cap());
        trace.push(EpochSeries::TdpW, t1, self.tdp);
        trace.push(EpochSeries::PendingApps, t1, self.pending.len() as f64);
        let testing = self.store.testing_count();
        trace.push(EpochSeries::ActiveTests, t1, testing as f64);
        // Graceful-degradation trajectory: capacity outside withdrawal
        // (quarantine + probation) — re-admission shows up as recovery.
        trace.push(
            EpochSeries::HealthyCores,
            t1,
            (self.store.len() - self.health.withdrawn_count()) as f64,
        );
        // The wear pass is the close's one pass over every core; it also
        // reports the mean utilisation and, on the transient path, the
        // hottest tile.
        let wear = if let Some(grid) = &mut self.thermal {
            // Transient thermal path: advance the RC grid with this
            // epoch's per-tile powers, then charge damage at the *actual*
            // tile temperature. The power vector lives in a scratch
            // buffer so steady-state epochs stay allocation-free.
            let powers = &mut self.powers_scratch;
            powers.clear();
            // lint:allow(hot-path-purity, reason = "scratch buffer reuses its capacity across epochs; extend allocates only until the high-water mark")
            powers.extend(self.epoch_energy.iter().map(|&e| e / epoch_secs));
            grid.step(powers, epoch_secs);
            self.profile.thermal_steps += 1;
            let wear = self.stress.record_epoch_all_at_temperature(
                &self.aging,
                grid.temperatures(),
                &mut self.epoch_energy,
                &mut self.epoch_busy,
                epoch_secs,
            );
            self.epoch_trace
                .push(EpochSeries::MaxTempK, t1, wear.max_input);
            wear
        } else {
            self.stress.record_epoch_all(
                &self.aging,
                &mut self.epoch_energy,
                &mut self.epoch_busy,
                epoch_secs,
            )
        };
        self.calendar.close_epoch(wear.max_damage);
        #[cfg(test)]
        self.assert_close_matches_scans(wear);
        self.epoch_trace
            .push(EpochSeries::MeanUtilization, t1, wear.mean_utilization);
        if self.config.model_contention {
            let loads = LinkLoads::from_traffic(
                &self.epoch_traffic,
                epoch_secs,
                self.link_model.link_bandwidth,
            );
            self.epoch_trace
                .push(EpochSeries::PeakLinkLoad, t1, loads.peak());
            self.link_loads = Some(loads);
            self.epoch_traffic.clear();
        }
        if self.recorder.is_some() {
            self.profile.snapshots += 1;
            let cores: Vec<CoreState> = (0..self.store.len())
                .map(|i| CoreState {
                    power_w: self.powers_scratch[i],
                    temp_k: self.thermal.as_ref().map_or(0.0, |g| g.temperature(i)),
                    vf_level: Self::mode_level(self.store.mode(i)),
                    health: if self.health.is_quarantined(i) {
                        HealthCode::Quarantined
                    } else if self.health.is_probation(i) {
                        HealthCode::Probation
                    } else if self.health.is_suspect(i) {
                        HealthCode::Suspect
                    } else {
                        HealthCode::Healthy
                    },
                    occupied: self.store.owner(i).is_some(),
                    testing: self.store.has_session(i),
                })
                // lint:allow(hot-path-purity, reason = "flight-recorder snapshot: gated behind an opt-in recorder and rate-limited; off in measured runs")
                .collect();
            let snapshot = StateSnapshot {
                t: t1,
                cap_w: self.budget.cap(),
                headroom_w: self.budget.headroom(),
                power_w: measured,
                test_power_w: test_w,
                reservations: self.budget.active_reservations() as u32,
                pending_apps: self.pending.len() as u32,
                running_apps: self.running.len() as u32,
                active_tests: testing as u32,
                cores,
            };
            if let Some(rec) = &mut self.recorder {
                rec.push(snapshot);
            }
        }
        self.meter.roll_epoch(epoch_secs);
        self.measured_last = measured;
        // Epoch boundary: expire the dirty set and open a new generation
        // (and fold the run-long dirty-mark count into the profile).
        self.profile.dirty_marks = self.store.dirty_marks();
        self.store.advance_generation();
    }

    // ----- report ----------------------------------------------------------

    fn finalize(mut self) -> Report {
        let events = self.events.take().unwrap_or_default();
        let sim_seconds = self.meter.total_seconds();
        let n = self.store.len();
        let ledger = self.scheduler.ledger();
        let tests_per_core: Vec<u64> = (0..n).map(|c| ledger.tests_on_core(c)).collect();
        let damage_per_core: Vec<f64> =
            self.stress.iter().map(|s| s.total_damage).collect();
        Report {
            sim_seconds,
            apps_arrived: self.metrics.apps_arrived,
            apps_completed: self.metrics.apps_completed,
            apps_in_flight: (self.pending.len() + self.running.len()) as u64,
            apps_pending: self.pending.len() as u64,
            apps_rejected: self.apps_rejected,
            instructions_executed: self.metrics.instructions,
            throughput_mips: if sim_seconds > 0.0 {
                self.metrics.instructions as f64 / sim_seconds / 1e6
            } else {
                0.0
            },
            mean_app_latency: self.metrics.app_latency.mean(),
            mean_queue_wait: self.metrics.queue_wait.mean(),
            mean_power: self.meter.mean_power(),
            peak_power: self.meter.peak_epoch_power(),
            tdp: self.tdp,
            cap_violations: self.metrics.cap_violations,
            cap_adjustments: self.metrics.cap_adjustments,
            test_energy_share: self.meter.total_share(PowerCategory::Test),
            noc_energy_share: self.meter.total_share(PowerCategory::Noc),
            tests_completed: self.metrics.tests_completed,
            tests_aborted: self.metrics.tests_aborted,
            tests_in_flight: self.store.testing_count() as u64,
            tests_denied_power: self.scheduler.denied_for_power(),
            min_tests_per_core: tests_per_core.iter().copied().min().unwrap_or(0),
            max_tests_per_core: tests_per_core.iter().copied().max().unwrap_or(0),
            mean_test_interval: self.metrics.test_interval.mean(),
            max_test_interval: self.metrics.test_interval.max().unwrap_or(0.0),
            full_vf_coverage: ledger.fully_covered(),
            tests_per_level: ledger.tests_per_level(),
            tests_per_core,
            damage_per_core,
            faults_injected: self.faults.len() as u64,
            faults_detected: self.faults.detected_count() as u64,
            fault_detections: self.faults.detections(),
            fault_activations: self.metrics.fault_activations,
            mean_detection_latency: self.faults.mean_detection_latency().unwrap_or(0.0),
            cores_suspected: self.metrics.cores_suspected,
            cores_quarantined: self.metrics.cores_quarantined,
            cores_cleared: self.metrics.cores_cleared,
            false_quarantines: self.metrics.false_quarantines,
            confirmation_retests: self.metrics.confirmation_retests,
            probes_launched: self.metrics.probes_launched,
            cores_readmitted: self.metrics.cores_readmitted,
            cores_requarantined: self.metrics.cores_requarantined,
            probe_budget: u64::from(PROBE_BUDGET),
            healthy_cores_end: (self.store.len() - self.health.withdrawn_count()) as u64,
            apps_aborted: self.metrics.apps_aborted,
            apps_restarted: self.metrics.apps_restarted,
            apps_migrated: self.metrics.apps_migrated,
            apps_checkpointed: self.metrics.apps_checkpointed,
            corruption_exposure: self.metrics.corruption_exposure,
            mean_utilization: self.stress.mean_utilization(),
            dark_fraction: self.config.node.dark_silicon_fraction(),
            mean_hop_cost: self.metrics.hop_cost.mean(),
            profile: self.profile,
            state: self
                .recorder
                .take()
                .map(StateRecorder::into_timeline)
                .unwrap_or_default(),
            trace: self.epoch_trace.into_trace(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_aging::{CoreStress, EpochWear};
    use manytest_power::TechNode;

    fn quick(node: TechNode) -> SystemBuilder {
        SystemBuilder::new(node).seed(11).sim_time_ms(160).arrival_rate(200.0)
    }

    /// `b` with its test-scheduler tuning adjusted, through the
    /// `SystemConfig` the ablations build systems from.
    fn with_scheduler(
        b: SystemBuilder,
        tune: impl FnOnce(&mut manytest_sbst::TestSchedulerConfig),
    ) -> SystemBuilder {
        let mut config = b.config().clone();
        tune(&mut config.test_scheduler);
        SystemBuilder::from_config(config)
    }

    thread_local! {
        /// The wake-ups the current task completion scheduled: each
        /// successor with its ready-time bits.
        static WAKES: std::cell::RefCell<Vec<(TaskId, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(super) fn note_wake(task: TaskId, ready: f64) {
        WAKES.with(|w| w.borrow_mut().push((task, ready.to_bits())));
    }

    impl System {
        /// The oracle for the wake-up calendar: the schedule walk as it
        /// was before it, which evaluates every testable core every
        /// epoch. In unit-test builds every schedule call checks that
        /// the calendar produced the same ranked candidates (cores,
        /// criticality bits and order), with the never-powered class's
        /// members expanded at `class`'s criticality, and the same
        /// retests. On the steady path it also checks the class: every
        /// member is gated, healthy and testable, with the first
        /// member's stress bit for bit.
        pub(super) fn assert_matches_full_scan(
            &self,
            now: f64,
            candidates: &[TestCandidate],
            retests: &[RetestRequest],
            class: Option<f64>,
        ) {
            let threshold = self.config.test_scheduler.criticality_threshold;
            let mut full = Vec::new();
            let mut full_retests = Vec::new();
            self.store.for_each_testable(|i| {
                if self.health.is_healthy(i) {
                    let criticality = self.criticality.criticality(self.stress.core(i), now);
                    if criticality >= threshold {
                        full.push((i, criticality.to_bits()));
                    }
                } else if let Some(level) = self.health.suspect_level(i) {
                    full_retests.push(RetestRequest { core: i, level });
                }
            });
            let mut walked: Vec<_> = candidates
                .iter()
                .map(|c| (c.core, c.criticality.to_bits()))
                .collect();
            if self.thermal.is_some() {
                assert_eq!(class, None, "no class on the transient path");
            }
            let bits = |s: &CoreStress| {
                [
                    s.total_damage,
                    s.damage_since_test,
                    s.utilization,
                    s.last_test_time,
                ]
                .map(f64::to_bits)
            };
            let mut first = None;
            self.store.for_each_never_powered(|i| {
                assert!(
                    matches!(self.store.mode(i), CoreMode::Off)
                        && self.store.is_test_candidate(i)
                        && self.health.is_healthy(i),
                    "never-powered core {i} at t = {now}"
                );
                if self.thermal.is_none() {
                    let stress = bits(self.stress.core(i));
                    assert_eq!(
                        stress,
                        *first.get_or_insert(stress),
                        "core {i} at t = {now}"
                    );
                }
                if let Some(criticality) = class {
                    walked.push((i, criticality.to_bits()));
                }
            });
            walked.sort_unstable_by_key(|&(core, _)| core);
            assert_eq!(walked, full, "ranked candidates at t = {now}");
            assert_eq!(retests, full_retests, "retests at t = {now}");
        }

        /// The oracle for the task lane: the wake-up computation as it
        /// was before `RunningApp::ready_time` fused it, a predecessor
        /// scan and then an input-ready fold that finds each edge from
        /// the front of the edge list. In unit-test builds every task
        /// completion checks that it scheduled the same successors, in
        /// the same order, at the same ready-time bits.
        pub(super) fn assert_wakes_match_reference(&self, app_id: u64, task: TaskId, now: f64) {
            let app = self
                .running
                .get_app(app_id)
                .expect("the completing app is running");
            let woken = WAKES.with(|w| std::mem::take(&mut *w.borrow_mut()));
            let reference: Vec<(TaskId, u64)> = app
                .graph
                .out_edges(task)
                .map(|e| e.to)
                .filter(|&to| {
                    matches!(app.tasks[to.index()], TaskState::Waiting)
                        && app.predecessors_done(to)
                })
                .map(|to| {
                    let ready = app.input_ready_time(to, |p, t| {
                        let bits = app
                            .graph
                            .edges()
                            .iter()
                            .find(|e| e.from == p && e.to == t)
                            .map(|e| e.bits)
                            .unwrap_or(0.0);
                        let src = app.mapping.coord_of(p);
                        let dst = app.mapping.coord_of(t);
                        let base = self.link_model.message_cost(src, dst, bits).latency;
                        match &self.link_loads {
                            Some(loads) => base * self.contention.route_factor(loads, src, dst),
                            None => base,
                        }
                    });
                    (to, ready.max(now).to_bits())
                })
                .collect();
            assert_eq!(woken, reference, "app {app_id} task {task} at t = {now}");
        }

        /// The oracle for the epoch close's bookkeeping: the full scans
        /// it replaced. In unit-test builds every close checks that the
        /// powered walk visits exactly the cores a `CoreMode` scan finds,
        /// in ascending order; that the withdrawn counter equals the two
        /// state scans; and that the wear pass's fused mean utilisation
        /// and hottest tile equal `mean_utilization()` and
        /// `max_temperature()`, bit for bit.
        pub(super) fn assert_close_matches_scans(&self, wear: EpochWear) {
            let mut walked = Vec::new();
            self.store.for_each_powered(|core| walked.push(core));
            let powered: Vec<usize> = (0..self.store.len())
                .filter(|&core| !matches!(self.store.mode(core), CoreMode::Off))
                .collect();
            assert_eq!(walked, powered, "powered walk");
            assert_eq!(
                self.health.withdrawn_count(),
                self.health.quarantined_count() + self.health.probation_count(),
                "withdrawn count"
            );
            assert_eq!(
                wear.mean_utilization.to_bits(),
                self.stress.mean_utilization().to_bits(),
                "fused mean utilisation"
            );
            if let Some(grid) = &self.thermal {
                assert_eq!(
                    wear.max_input.to_bits(),
                    grid.max_temperature().to_bits(),
                    "fused hottest tile"
                );
            }
        }
    }

    #[test]
    fn run_produces_activity() {
        let r = quick(TechNode::N16).build().unwrap().run();
        assert!(r.apps_arrived > 0);
        assert!(r.apps_completed > 0);
        assert!(r.instructions_executed > 0);
        assert!(r.throughput_mips > 0.0);
        assert!(r.mean_power > 0.0);
    }

    #[test]
    fn testing_runs_and_is_power_bounded() {
        let r = quick(TechNode::N16).build().unwrap().run();
        assert!(r.tests_completed > 0, "tests must run on a lightly loaded chip");
        assert_eq!(r.cap_violations, 0, "admission control must honour the TDP");
        assert!(r.peak_power <= r.tdp * 1.26, "peak {} vs tdp {}", r.peak_power, r.tdp);
    }

    #[test]
    fn disabling_tests_yields_zero_test_energy() {
        let r = quick(TechNode::N16).testing(false).build().unwrap().run();
        assert_eq!(r.tests_completed, 0);
        assert_eq!(r.tests_aborted, 0);
        assert_eq!(r.test_energy_share, 0.0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let a = quick(TechNode::N22).build().unwrap().run();
        let b = quick(TechNode::N22).build().unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(TechNode::N22).seed(1).build().unwrap().run();
        let b = quick(TechNode::N22).seed(2).build().unwrap().run();
        assert_ne!(a.apps_arrived, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn throughput_penalty_of_testing_is_small() {
        let base = quick(TechNode::N16).testing(false).build().unwrap().run();
        let tested = quick(TechNode::N16).testing(true).build().unwrap().run();
        let penalty = tested.throughput_penalty_vs(&base);
        assert!(
            penalty < 0.05,
            "testing should cost little throughput, got {:.2}%",
            penalty * 100.0
        );
    }

    #[test]
    fn builder_validation_errors() {
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        cfg.horizon = manytest_sim::Duration::from_us(999);
        assert_eq!(
            SystemBuilder::from_config(cfg.clone()).build().err(),
            Some(BuildError::HorizonTooShort)
        );
        cfg.horizon = manytest_sim::Duration::from_ms(100);
        cfg.arrival_rate = 0.0;
        assert_eq!(
            SystemBuilder::from_config(cfg.clone()).build().err(),
            Some(BuildError::InvalidArrivalRate)
        );
        cfg.arrival_rate = 10.0;
        cfg.test_scheduler.ladder_levels = 1;
        assert_eq!(
            SystemBuilder::from_config(cfg).build().err(),
            Some(BuildError::TooFewDvfsLevels)
        );
    }

    #[test]
    fn fault_config_validation_errors() {
        for (mutate, field) in [
            (
                (|c: &mut SystemConfig| c.vf_windowed_fault_fraction = 1.5)
                    as fn(&mut SystemConfig),
                "vf_windowed_fault_fraction",
            ),
            (
                |c: &mut SystemConfig| c.intermittent_fault_fraction = -0.1,
                "intermittent_fault_fraction",
            ),
            (
                |c: &mut SystemConfig| c.test_false_positive_rate = f64::NAN,
                "test_false_positive_rate",
            ),
        ] {
            let mut cfg = SystemConfig::for_node(TechNode::N16);
            mutate(&mut cfg);
            match SystemBuilder::from_config(cfg).build().err() {
                Some(BuildError::InvalidFaultFraction { field: f, .. }) => {
                    assert_eq!(f, field);
                }
                other => panic!("expected InvalidFaultFraction for {field}, got {other:?}"),
            }
        }
        // Faults with no horizon to place them in: rejected before the
        // generic horizon check so the message names the real problem.
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        cfg.injected_faults = 3;
        cfg.horizon = manytest_sim::Duration::ZERO;
        assert_eq!(
            SystemBuilder::from_config(cfg).build().err(),
            Some(BuildError::FaultsNeedHorizon)
        );
    }

    /// Builds the default config after `mutate`; the build must fail
    /// with the scheduler-setting error naming `field`.
    fn assert_rejects(mutate: impl FnOnce(&mut SystemConfig), field: &str) {
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        mutate(&mut cfg);
        match SystemBuilder::from_config(cfg).build().err() {
            Some(BuildError::InvalidSchedulerSetting { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected InvalidSchedulerSetting for {field}, got {other:?}"),
        }
    }

    #[test]
    fn negative_stress_weight_is_rejected() {
        assert_rejects(|c| c.criticality.stress_weight = -0.1, "criticality.stress_weight");
    }

    #[test]
    fn nan_time_weight_is_rejected() {
        assert_rejects(|c| c.criticality.time_weight = f64::NAN, "criticality.time_weight");
    }

    #[test]
    fn zero_target_period_is_rejected() {
        assert_rejects(|c| c.criticality.target_period = 0.0, "criticality.target_period");
    }

    #[test]
    fn infinite_reference_wear_rate_is_rejected() {
        assert_rejects(
            |c| c.criticality.reference_wear_rate = f64::INFINITY,
            "criticality.reference_wear_rate",
        );
    }

    #[test]
    fn nan_criticality_threshold_is_rejected() {
        assert_rejects(
            |c| c.test_scheduler.criticality_threshold = f64::NAN,
            "test_scheduler.criticality_threshold",
        );
    }

    #[test]
    fn zero_ipc_is_rejected() {
        assert_rejects(|c| c.test_scheduler.ipc = 0.0, "test_scheduler.ipc");
    }

    #[test]
    fn fixed_level_outside_the_ladder_is_rejected() {
        assert_rejects(|c| c.test_scheduler.fixed_level = Some(9), "test_scheduler.fixed_level");
        assert_rejects(
            |c| c.test_scheduler.fixed_level = Some(c.test_scheduler.ladder_levels as u8),
            "test_scheduler.fixed_level",
        );
    }

    #[test]
    fn boundary_scheduler_settings_stay_valid() {
        // A2's single-term weights, a zero threshold and the top level.
        for (w_stress, w_time) in [(1.0, 0.0), (0.0, 1.0)] {
            let model = CriticalityModel::new(w_stress, w_time, 0.1, 1.0);
            assert!(quick(TechNode::N16).criticality(model).build().is_ok());
        }
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        cfg.test_scheduler.criticality_threshold = 0.0;
        cfg.test_scheduler.fixed_level = Some(cfg.test_scheduler.ladder_levels as u8 - 1);
        assert!(SystemBuilder::from_config(cfg).build().is_ok());
    }

    #[test]
    fn the_scheduler_ladder_sizes_the_platform_ladder() {
        let builder = with_scheduler(quick(TechNode::N16), |s| s.ladder_levels = 3);
        let r = builder.build().unwrap().run();
        assert_eq!(r.tests_per_level.len(), 3, "one coverage column per level");
        assert!(r.tests_completed > 0);
        assert_rejects(
            |c| {
                c.test_scheduler.ladder_levels = 3;
                c.test_scheduler.fixed_level = Some(3);
            },
            "test_scheduler.fixed_level",
        );
    }

    #[test]
    fn detections_drive_quarantines_and_capacity_degrades() {
        let r = quick(TechNode::N22)
            .sim_time_ms(400)
            .injected_faults(6)
            .build()
            .unwrap()
            .run();
        let n = r.tests_per_core.len() as u64;
        assert!(r.cores_quarantined > 0, "solid faults must confirm: {r:?}");
        assert!(r.confirmation_retests > 0, "quarantine needs K retests first");
        assert!(r.cores_suspected >= r.cores_quarantined + r.cores_cleared);
        assert!(r.healthy_cores_end < n, "quarantine must cost capacity");
        assert_eq!(r.false_quarantines, 0, "solid faults are true positives");
        let healthy = r.trace.series("healthy_cores").expect("trajectory series");
        assert_eq!(healthy.max_value(), Some(n as f64));
        let end = healthy.points().last().unwrap().1;
        assert!(end < n as f64, "trajectory must end degraded: {end} vs {n}");
    }

    #[test]
    fn false_positives_never_permanently_quarantine() {
        let r = quick(TechNode::N16)
            .sim_time_ms(300)
            .test_false_positives(0.05)
            .build()
            .unwrap()
            .run();
        let n = r.tests_per_core.len() as u64;
        assert!(r.cores_suspected > 0, "5% false alarms must open suspicions");
        assert!(r.cores_cleared > 0, "clean cores must clear on retests");
        assert_eq!(r.cores_quarantined, 0, "no fault can ever confirm");
        assert_eq!(r.healthy_cores_end, n, "full capacity survives");
    }

    #[test]
    fn response_policies_reconcile_and_keep_quarantined_cores_dark() {
        use crate::config::FaultResponsePolicy as P;
        for policy in [P::Abort, P::RestartElsewhere, P::MigrateRegion] {
            let r = quick(TechNode::N22)
                .sim_time_ms(400)
                .arrival_rate(2_000.0)
                .injected_faults(8)
                .fault_response(policy)
                .capture_events(1 << 16)
                .build()
                .unwrap()
                .run();
            assert_eq!(r.events.dropped(), 0);
            crate::audit::validate_events(&r).unwrap_or_else(|e| {
                panic!("policy {policy}: {e}");
            });
            assert!(r.cores_quarantined > 0, "policy {policy} saw no quarantine");
        }
    }

    #[test]
    fn ignoring_faults_maximises_corruption_exposure() {
        let run = |policy| {
            quick(TechNode::N22)
                .sim_time_ms(400)
                .arrival_rate(2_000.0)
                .injected_faults(8)
                .fault_response(policy)
                .build()
                .unwrap()
                .run()
        };
        let ignored = run(FaultResponsePolicy::Ignore);
        let handled = run(FaultResponsePolicy::RestartElsewhere);
        assert_eq!(ignored.cores_suspected, 0, "Ignore is detection-only");
        assert_eq!(ignored.cores_quarantined, 0);
        assert!(ignored.corruption_exposure > 0.0, "faulty cores keep working");
        assert!(handled.cores_quarantined > 0);
        assert!(
            handled.corruption_exposure <= ignored.corruption_exposure,
            "withdrawing faulty cores cannot increase exposure: {} vs {}",
            handled.corruption_exposure,
            ignored.corruption_exposure
        );
    }

    #[test]
    fn intermittent_faults_are_harder_to_confirm() {
        let r = quick(TechNode::N22)
            .sim_time_ms(500)
            .injected_faults(10)
            .intermittent_faults(1.0)
            .build()
            .unwrap()
            .run();
        // Every fault is intermittent, so any quarantine is "false" in
        // the solid-fault sense, and some suspicions should fail to
        // reproduce within K retests and clear.
        assert_eq!(r.false_quarantines, r.cores_quarantined);
        assert!(
            r.cores_cleared > 0 || r.cores_quarantined > 0,
            "detections must at least open suspicions: {r:?}"
        );
    }

    #[test]
    fn response_pipeline_is_deterministic() {
        let run = || {
            quick(TechNode::N22)
                .sim_time_ms(300)
                .arrival_rate(1_000.0)
                .injected_faults(8)
                .intermittent_faults(0.5)
                .test_false_positives(0.02)
                .fault_response(crate::config::FaultResponsePolicy::MigrateRegion)
                .build()
                .unwrap()
                .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_are_detected_when_testing() {
        let r = quick(TechNode::N22)
            .sim_time_ms(400)
            .injected_faults(5)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.faults_injected, 5);
        assert!(
            r.faults_detected > 0,
            "online testing should find planted faults"
        );
        assert!(r.mean_detection_latency > 0.0);
    }

    #[test]
    fn faults_stay_latent_without_testing() {
        let r = quick(TechNode::N22)
            .sim_time_ms(120)
            .injected_faults(5)
            .testing(false)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.faults_detected, 0);
    }

    #[test]
    fn trace_contains_power_series() {
        let r = quick(TechNode::N16).build().unwrap().run();
        for name in ["power_w", "test_power_w", "cap_w", "tdp_w", "active_tests"] {
            let s = r.trace.series(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.len() as u64, 160, "series {name}");
        }
    }

    #[test]
    fn vf_levels_accumulate_coverage() {
        let r = quick(TechNode::N16).sim_time_ms(200).build().unwrap().run();
        let covered_levels = r.tests_per_level.iter().filter(|&&c| c > 0).count();
        assert!(
            covered_levels >= 2,
            "tests should reach multiple DVFS levels, got {:?}",
            r.tests_per_level
        );
    }

    #[test]
    fn aborts_happen_under_load() {
        // The baseline mapper ignores test criticality, so under heavy
        // arrivals it claims cores mid-session; the test-aware mapper
        // exists precisely to avoid this.
        let r = quick(TechNode::N16)
            .arrival_rate(4_000.0)
            .sim_time_ms(300)
            .mapper(MapperKind::Baseline)
            .build()
            .unwrap()
            .run();
        assert!(r.tests_aborted > 0, "expected non-intrusive aborts under load");
    }

    #[test]
    fn mean_power_stays_under_cap_band() {
        let r = quick(TechNode::N16)
            .arrival_rate(5_000.0)
            .sim_time_ms(60)
            .build()
            .unwrap()
            .run();
        assert!(r.mean_power <= r.tdp * 1.05, "mean {} tdp {}", r.mean_power, r.tdp);
    }

    #[test]
    fn mesh_override_scales_the_platform() {
        let small = quick(TechNode::N16)
            .mesh_edge(8)
            .sim_time_ms(100)
            .build()
            .unwrap()
            .run();
        assert_eq!(small.tests_per_core.len(), 64);
        assert!(small.apps_arrived > 0);
        assert_eq!(
            quick(TechNode::N16).mesh_edge(0).build().err(),
            Some(BuildError::ZeroMesh)
        );
    }

    #[test]
    fn contention_model_inflates_latency_under_traffic() {
        let run = |contention: bool| {
            quick(TechNode::N16)
                .arrival_rate(3_000.0)
                .sim_time_ms(200)
                .model_contention(contention)
                .build()
                .unwrap()
                .run()
        };
        let without = run(false);
        let with = run(true);
        // Contention can only delay messages, never speed them up.
        assert!(with.mean_app_latency >= without.mean_app_latency * 0.999);
        let loads = with.trace.series("peak_link_load").expect("load trace");
        assert!(loads.max_value().unwrap() > 0.0, "traffic must load links");
        assert!(loads.max_value().unwrap() <= 1.0);
    }

    #[test]
    fn transient_thermal_runs_and_heats_the_die() {
        let r = quick(TechNode::N16)
            .arrival_rate(2_000.0)
            .sim_time_ms(200)
            .transient_thermal(true)
            .build()
            .unwrap()
            .run();
        let temps = r.trace.series("max_temp_k").expect("thermal trace");
        let peak = temps.max_value().unwrap();
        assert!(peak > 318.15, "the die must warm above ambient");
        assert!(peak < 400.0, "and stay physically plausible, got {peak} K");
        assert!(r.tests_completed > 0);
        // Damage still accumulates through the alternative path.
        assert!(r.damage_per_core.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn thermal_choice_does_not_change_power_accounting() {
        // With criticality-independent policies (baseline mapper, no
        // testing) the thermal model only affects aging bookkeeping: the
        // execution and power paths must be bit-identical.
        let fixed = |transient: bool| {
            quick(TechNode::N16)
                .sim_time_ms(150)
                .mapper(MapperKind::Baseline)
                .testing(false)
                .transient_thermal(transient)
                .build()
                .unwrap()
                .run()
        };
        let proxy = fixed(false);
        let rc = fixed(true);
        assert_eq!(proxy.instructions_executed, rc.instructions_executed);
        assert!((proxy.mean_power - rc.mean_power).abs() < 1e-9);
        // ...while the damage numbers legitimately differ.
        assert_ne!(proxy.damage_per_core, rc.damage_per_core);
    }

    #[test]
    fn oversized_apps_are_rejected_without_blocking_the_queue() {
        // The standard mix draws graphs of 4 to 12 tasks; on a 3x3 mesh
        // every graph above 9 tasks can never fit.
        let r = quick(TechNode::N45).mesh_edge(3).build().unwrap().run();
        assert!(r.apps_rejected > 0, "oversized apps must be rejected");
        assert!(
            r.apps_completed > 0,
            "rejection must not head-of-line-block the feasible apps"
        );
    }

    #[test]
    fn all_nodes_run() {
        for node in TechNode::ALL {
            let r = quick(node).sim_time_ms(20).build().unwrap().run();
            assert!(r.apps_arrived > 0, "{node} run produced no arrivals");
        }
    }

    #[test]
    fn captured_events_reconcile_with_the_report() {
        let plain = quick(TechNode::N16).injected_faults(4).build().unwrap().run();
        // An empty, a saturated and an ample log.
        for capacity in [0, 64, 1 << 16] {
            let mut r = quick(TechNode::N16)
                .capture_events(capacity)
                .injected_faults(4)
                .build()
                .unwrap()
                .run();
            let total = r.events.total();
            assert!(total > 64, "the run must saturate the two small logs");
            assert_eq!(r.events.len() as u64, total.min(capacity as u64));
            assert_eq!(r.events.dropped(), total - r.events.len() as u64);
            crate::audit::validate_events(&r).expect("event counts reconcile with aggregates");
            // Spot-check the two invariants the paper's control loop lives by.
            assert_eq!(r.events.count("TestDeniedPower"), r.tests_denied_power);
            assert_eq!(
                r.events.count("TestLaunched"),
                r.tests_completed + r.tests_aborted + r.tests_in_flight
            );
            // Capture must change nothing but the log.
            r.events = EventLog::default();
            assert_eq!(r, plain, "capacity {capacity}");
        }
    }

    #[test]
    fn default_runs_capture_no_events() {
        let r = quick(TechNode::N16).build().unwrap().run();
        assert!(r.events.is_empty(), "a run without capture keeps no log");
        assert_eq!(r.events.total(), 0);
    }

    #[test]
    fn phase_profile_counts_every_epoch() {
        let r = quick(TechNode::N16).build().unwrap().run();
        let p = &r.profile;
        assert_eq!(p.epochs, 160);
        assert_eq!(p.pid_updates, p.epochs);
        assert_eq!(p.fault_sweeps, p.epochs);
        assert_eq!(p.admit_scans, p.epochs);
        assert_eq!(p.sched_calls, p.epochs, "testing on → scheduler runs every epoch");
        assert_eq!(p.thermal_steps, 0, "steady-state proxy takes no grid steps");
        assert_eq!(p.snapshots, 0, "recorder off by default");
        assert!(p.events_processed > 0, "completions must flow through the queue");
        assert!(p.queue_batches > 0);
        assert!(p.batch_high_water >= 1);
        assert!(p.sched_launches > 0, "a 160 ms run launches tests");
        assert_eq!(
            p.sched_launches,
            r.tests_completed + r.tests_aborted + r.tests_in_flight
        );
        assert_eq!(p.pid_updates, r.cap_adjustments);
        // Incremental-structure counters: every launch was popped off the
        // heap, the map context was built at most once per admit scan,
        // and every admission queried the maintained free set and
        // patched the context in place.
        assert!(p.heap_pops >= p.sched_launches);
        assert!(p.ctx_rebuilds > 0, "admissions build the context");
        assert!(p.ctx_rebuilds <= p.admit_scans);
        assert!(p.free_set_queries >= p.apps_admitted);
        assert!(p.ctx_delta_updates >= p.apps_admitted);
        assert!(p.candidates_scanned > 0, "the scheduler walks the testable set");
        assert!(p.dirty_marks > 0, "mutations mark cores dirty");
    }

    #[test]
    fn thermal_phase_steps_once_per_epoch_when_transient() {
        let r = quick(TechNode::N16)
            .sim_time_ms(40)
            .transient_thermal(true)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.profile.thermal_steps, r.profile.epochs);
    }

    #[test]
    fn flight_recorder_reconciles_with_aggregates() {
        let r = quick(TechNode::N16)
            .record_state(1 << 12)
            .capture_events(1 << 16)
            .injected_faults(4)
            .build()
            .unwrap()
            .run();
        assert!(!r.state.is_empty(), "recorder must capture snapshots");
        assert_eq!(r.state.seen(), r.profile.epochs, "one snapshot offered per epoch");
        assert_eq!(r.state.snapshots().len() as u64, 160, "capacity covers every epoch");
        let last = r.state.last().expect("non-empty timeline has a last snapshot");
        assert_eq!(last.cores.len(), r.state.core_count());
        assert!((last.t - r.sim_seconds).abs() < 1e-9, "last snapshot is the final epoch");
        // The audit layer cross-checks queue depths, health tallies and
        // the profiler's offer count against the report aggregates.
        crate::audit::validate_events(&r).expect("state timeline reconciles");
    }

    #[test]
    fn bounded_recorder_decimates_but_keeps_the_last_snapshot() {
        let r = quick(TechNode::N16).record_state(16).build().unwrap().run();
        let n = r.state.snapshots().len();
        assert!(n <= 16, "bound must cap the timeline, got {n}");
        assert!(n >= 8, "decimation halves at worst, got {n}");
        assert_eq!(r.state.seen(), 160, "every epoch was offered");
        let last = r.state.last().expect("last snapshot survives decimation");
        assert!((last.t - r.sim_seconds).abs() < 1e-9);
    }

    #[test]
    fn recording_state_does_not_perturb_the_run() {
        let recorded = quick(TechNode::N16).record_state(64).build().unwrap().run();
        let plain = quick(TechNode::N16).build().unwrap().run();
        assert_eq!(recorded.instructions_executed, plain.instructions_executed);
        assert_eq!(recorded.tests_completed, plain.tests_completed);
        assert_eq!(recorded.trace, plain.trace);
        // The snapshot counter itself reflects the recorder being on; every
        // other phase counter must be untouched by observation.
        let mut recorded_profile = recorded.profile;
        recorded_profile.snapshots = plain.profile.snapshots;
        assert_eq!(recorded_profile, plain.profile, "profiler counts decisions, not observers");
    }

    #[test]
    fn recorded_runs_are_deterministic() {
        let a = quick(TechNode::N22).record_state(32).injected_faults(2).build().unwrap().run();
        let b = quick(TechNode::N22).record_state(32).injected_faults(2).build().unwrap().run();
        assert_eq!(a, b, "Report PartialEq covers profile and state timeline");
    }

    #[test]
    fn snapshots_track_thermal_grid_when_transient() {
        let r = quick(TechNode::N16)
            .sim_time_ms(40)
            .record_state(64)
            .transient_thermal(true)
            .build()
            .unwrap()
            .run();
        let last = r.state.last().expect("snapshots captured");
        assert!(
            last.cores.iter().all(|c| c.temp_k > 250.0),
            "transient grid temperatures must be physical"
        );
        // Without the grid, temperature reads as the 0 K sentinel.
        let proxy = quick(TechNode::N16).sim_time_ms(40).record_state(64).build().unwrap().run();
        let last = proxy.state.last().expect("snapshots captured");
        assert!(last.cores.iter().all(|c| c.temp_k == 0.0));
    }

    // ----- core lifecycle (re-admission lane + checkpointing) ------------

    /// A lifecycle workload: only intermittent faults, which cool a
    /// quarter of the horizon after injection, so a probing lane can
    /// eventually re-admit every quarantined core.
    fn lifecycle(node: TechNode) -> SystemBuilder {
        quick(node)
            .sim_time_ms(400)
            .injected_faults(8)
            .intermittent_faults(1.0)
            .intermittent_cooldown(0.25)
            .fault_response(FaultResponsePolicy::MigrateRegion)
    }

    #[test]
    fn lane_off_keeps_quarantine_terminal() {
        let r = lifecycle(TechNode::N22).build().unwrap().run();
        assert_eq!(r.probes_launched, 0, "no cadence, no probes");
        assert_eq!(r.cores_readmitted, 0);
        assert_eq!(r.cores_requarantined, 0);
    }

    #[test]
    fn readmission_lane_recovers_cooled_capacity() {
        let r = lifecycle(TechNode::N22)
            .probe_cadence_us(3_000)
            .capture_events(1 << 14)
            .build()
            .unwrap()
            .run();
        assert!(r.cores_quarantined > 0, "intermittents must confirm: {r:?}");
        assert!(r.probes_launched > 0, "the lane must probe quarantined cores");
        assert!(
            r.cores_readmitted > 0,
            "cooled intermittents must pass probation: {} probes, {} requarantines",
            r.probes_launched,
            r.cores_requarantined
        );
        // Re-admission must actually restore capacity in the trajectory.
        let n = r.tests_per_core.len() as u64;
        assert!(r.healthy_cores_end > n - r.cores_quarantined);
        // Telemetry double-entry: the new kinds reconcile and the whole
        // lifecycle (sequence + provenance) passes the audit.
        crate::audit::validate_events(&r).expect("lifecycle run audits clean");
        assert_eq!(r.events.count("CoreReadmitted"), r.cores_readmitted);
        assert_eq!(r.events.count("CoreProbeLaunched"), r.probes_launched);
    }

    #[test]
    fn solid_faults_never_pass_probation() {
        let r = quick(TechNode::N22)
            .sim_time_ms(400)
            .injected_faults(4)
            .probe_cadence_us(3_000)
            .build()
            .unwrap()
            .run();
        assert!(r.cores_quarantined > 0);
        assert_eq!(
            r.cores_readmitted, 0,
            "a solid fault refires on every probe"
        );
        assert!(
            r.cores_requarantined > 0,
            "failed probation rounds must be recorded"
        );
    }

    #[test]
    fn lifecycle_runs_are_deterministic() {
        let build = || {
            lifecycle(TechNode::N22)
                .probe_cadence_us(2_000)
                .capture_events(1 << 14)
                .build()
                .unwrap()
                .run()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn checkpoints_fire_and_trade_against_migration_cost() {
        let sparse = lifecycle(TechNode::N22)
            .checkpoint_interval_us(50_000)
            .build()
            .unwrap()
            .run();
        let dense = lifecycle(TechNode::N22)
            .checkpoint_interval_us(2_000)
            .build()
            .unwrap()
            .run();
        assert!(dense.apps_checkpointed > sparse.apps_checkpointed);
        // Disabled checkpointing transfers the full dirty span instead.
        let off = lifecycle(TechNode::N22).checkpoint_interval_us(0).build().unwrap().run();
        assert_eq!(off.apps_checkpointed, 0);
    }

    #[test]
    fn checkpointing_is_inert_outside_migrate_region() {
        let r = quick(TechNode::N22)
            .sim_time_ms(200)
            .injected_faults(4)
            .fault_response(FaultResponsePolicy::RestartElsewhere)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.apps_checkpointed, 0, "only MigrateRegion replays checkpoints");
    }

    // ----- wake-up calendar ------------------------------------------------

    /// Whole runs across the configurations that move criticality in
    /// different ways. Every schedule call of every run checks the
    /// calendar against the full scan (`assert_matches_full_scan`); the
    /// totals below make sure the runs reach the lanes that matter.
    #[test]
    fn wake_calendar_matches_the_full_scan() {
        type Scenario = fn(SystemBuilder) -> SystemBuilder;
        let scenarios: [(&str, Scenario); 12] = [
            ("steady", |b| b),
            ("transient", |b| b.transient_thermal(true).arrival_rate(2_000.0)),
            ("stress-only", |b| b.criticality(CriticalityModel::new(1.0, 0.0, 0.1, 1.0))),
            ("time-only", |b| b.criticality(CriticalityModel::new(0.0, 1.0, 0.1, 1.0))),
            ("faults", |b| {
                b.injected_faults(8).intermittent_faults(0.5).test_false_positives(0.05)
            }),
            ("lifecycle", |b| {
                b.injected_faults(8)
                    .intermittent_faults(1.0)
                    .intermittent_cooldown(0.25)
                    .fault_response(FaultResponsePolicy::MigrateRegion)
                    .probe_cadence_us(3_000)
            }),
            ("fixed level", |b| with_scheduler(b, |s| s.fixed_level = Some(2))),
            ("threshold 0", |b| with_scheduler(b, |s| s.criticality_threshold = 0.0)),
            ("high threshold", |b| with_scheduler(b, |s| s.criticality_threshold = 1.5)),
            ("launch cap 1", |b| with_scheduler(b, |s| s.max_launches_per_epoch = 1)),
            ("denials", |b| b.arrival_rate(6_000.0).governor(GovernorKind::Naive)),
            // Wear alone moves criticality, and gated tiles next to busy
            // ones run hotter than a gated core's steady-path wear: the
            // gated bound would wake them too late here.
            ("transient stress-only", |b| {
                b.transient_thermal(true)
                    .criticality(CriticalityModel::new(1.0, 0.0, 0.1, 1.0))
                    .arrival_rate(4_000.0)
                    .sim_time_ms(500)
            }),
        ];
        let mut rng = SimRng::seed_from(1717);
        let (mut denials, mut retests, mut probes, mut launches) = (0, 0, 0, 0);
        for (name, scenario) in scenarios {
            for _ in 0..2 {
                let edge = [4u16, 6, 8, 12, 16][rng.gen_range(5) as usize];
                let builder = SystemBuilder::new(TechNode::N16)
                    .seed(rng.next_u64())
                    .mesh_edge(edge)
                    .sim_time_ms(160 + rng.gen_range(240))
                    .arrival_rate(rng.gen_f64_range(100.0, 3_000.0));
                let r = scenario(builder).build().expect("valid config").run();
                assert!(r.tests_completed > 0 || name == "high threshold", "{name}, edge {edge}");
                denials += r.tests_denied_power;
                retests += r.confirmation_retests;
                probes += r.probes_launched;
                launches += r.profile.sched_launches;
            }
        }
        // The largest mesh, short: steady and transient.
        for transient in [false, true] {
            let r = SystemBuilder::new(TechNode::N16)
                .seed(rng.next_u64())
                .mesh_edge(64)
                .sim_time_ms(150)
                .arrival_rate(50.0)
                .transient_thermal(transient)
                .build()
                .expect("valid config")
                .run();
            launches += r.profile.sched_launches;
        }
        assert!(denials > 0, "some run must be denied power");
        assert!(retests > 0, "some run must confirm a suspicion");
        assert!(probes > 0, "some run must probe a quarantined core");
        assert!(launches > 0);
    }
}
