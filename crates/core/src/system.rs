//! The integrated system: builder, epoch loop and event handlers.

use crate::config::{FaultResponsePolicy, GovernorKind, MapperKind, SystemConfig};
use crate::error::BuildError;
use crate::exec::{CoreMode, RunningApp, TaskState};
use crate::metrics::{MetricsCollector, Report};
use crate::store::CoreStore;
use manytest_aging::{AgingModel, CriticalityModel, StressTracker, ThermalGrid, ThermalParams};
use manytest_map::{ConaMapper, FirstFitMapper, MapContext, Mapper, TestAwareMapper};
use manytest_noc::{ContentionModel, LinkEnergyModel, LinkLoads, Mesh2D, TrafficMatrix};
use manytest_power::{
    NaiveTdpPolicy, OperatingPoint, PidController, PowerBudget, PowerCategory, PowerGovernor,
    PowerMeter, PowerModel, VfLadder, VfLevel,
};
use manytest_sbst::{
    Fault, FaultLog, HealthBoard, RetestRequest, RoutineId, TestCandidate, TestDenial,
    TestLaunch, TestScheduler, TestSession,
};
use manytest_sim::{
    emit_record, AbortReason, CauseKind, CauseLink, CoreState, Epoch, EventId, EventLog,
    EventQueue, HealthCode, NullObserver, NullPhaseObserver, Observer, Phase, PhaseObserver,
    PhaseProfile, ProgressCounters, SimEvent, SimRng, SimTime, StateRecorder, StateSnapshot,
    Trace,
};
use manytest_workload::{AppId, Application, ArrivalProcess, TaskId, WorkloadMix};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Manifestation probability of an intermittent fault on any single
/// observation (solid faults re-fire with probability 1).
const INTERMITTENT_REFIRE: f64 = 0.35;

/// Architectural-state payload a migrated task ships across the NoC,
/// per checkpoint image (the dirty span scales the actual charge).
const MIGRATION_STATE_BITS: f64 = 65_536.0;

/// Reference dirty span for the migration charge: each moved task pays
/// `migration_delay × (1 + dirty / REF)` in transfer delay and
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

    /// Replaces the workload mix.
    pub fn workload(mut self, mix: WorkloadMix) -> Self {
        self.mix = mix;
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

    /// Sets K, the confirmation retests a detection must survive before
    /// the core is quarantined (0 = quarantine on first detection).
    pub fn confirmation_retests(mut self, k: u8) -> Self {
        self.config.confirmation_retests = k;
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

    /// Per-moved-task state-transfer delay charged under
    /// [`FaultResponsePolicy::MigrateRegion`], microseconds, per
    /// checkpoint image (the dirty span since the app's last checkpoint
    /// scales the actual charge).
    pub fn migration_delay_us(mut self, us: u64) -> Self {
        self.config.migration_delay = manytest_sim::Duration::from_us(us);
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

    /// Clean probes in a row required to re-admit a quarantined core.
    pub fn probe_passes(mut self, passes: u8) -> Self {
        self.config.probe_passes = passes;
        self
    }

    /// Maximum probe sessions in flight at once (the lane budget).
    pub fn probe_budget(mut self, budget: u32) -> Self {
        self.config.probe_budget = budget;
        self
    }

    /// Caps the probation-retry backoff exponent (the cadence multiplier
    /// saturates at `2^cap`).
    pub fn probe_backoff_cap(mut self, cap: u8) -> Self {
        self.config.probe_backoff_cap = cap;
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

    /// Uses deterministic, evenly-spaced arrivals instead of Poisson
    /// (removes arrival jitter from controlled experiments).
    pub fn periodic_arrivals(mut self, periodic: bool) -> Self {
        self.config.periodic_arrivals = periodic;
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

    /// Overrides the test-scheduler tuning.
    pub fn test_scheduler(mut self, cfg: manytest_sbst::TestSchedulerConfig) -> Self {
        self.config.test_scheduler = cfg;
        self
    }

    /// Overrides the criticality metric.
    pub fn criticality(mut self, model: CriticalityModel) -> Self {
        self.config.criticality = model;
        self
    }

    /// Overrides the aging model (e.g. to enable NBTI recovery).
    pub fn aging(mut self, model: AgingModel) -> Self {
        self.config.aging = model;
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
    /// Without this call the run uses the zero-cost null observer.
    pub fn capture_events(mut self, capacity: usize) -> Self {
        self.config.event_capacity = Some(capacity);
        self
    }

    /// Bounds every trace series to at most `max_samples` stored points,
    /// decimating on insert (values below 2 are raised to 2). Default:
    /// keep every epoch sample.
    pub fn trace_bound(mut self, max_samples: usize) -> Self {
        self.config.trace_max_samples = Some(max_samples);
        self
    }

    /// Enables the flight recorder: every epoch close snapshots the full
    /// system state (per-core power, temperature, V/f level, health,
    /// mapping occupancy, budget headroom, session activity) into a
    /// bounded ring of at most `capacity` snapshots, decimated with the
    /// same stride-doubling scheme as bounded traces (values below 2 are
    /// raised to 2). The recording comes back on [`Report::state`].
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
    running: BTreeMap<u64, RunningApp>,
    store: CoreStore,
    epoch_busy: Vec<f64>,
    epoch_energy: Vec<f64>,
    traffic: TrafficMatrix,
    epoch_traffic: TrafficMatrix,
    link_loads: Option<LinkLoads>,
    contention: ContentionModel,
    queue: EventQueue<Ev>,
    rng_workload: SimRng,
    rng_faults: SimRng,
    faults: FaultLog,
    health: HealthBoard,
    metrics: MetricsCollector,
    trace: Trace,
    next_app_id: u64,
    next_inc: u64,
    apps_rejected: u64,
    measured_last: f64,
    tdp: f64,
    observer: Box<dyn Observer>,
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
    /// Live progress counters published once per control epoch (never
    /// read by the simulation — pure telemetry out).
    progress: Option<Arc<ProgressCounters>>,
    profile: PhaseProfile,
    recorder: Option<StateRecorder>,
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
        if config.epoch.is_zero() {
            return Err(BuildError::ZeroEpoch);
        }
        if config.horizon < config.epoch {
            return Err(BuildError::HorizonTooShort);
        }
        if !(config.arrival_rate > 0.0 && config.arrival_rate.is_finite()) {
            return Err(BuildError::InvalidArrivalRate);
        }
        if config.dvfs_levels < 2 {
            return Err(BuildError::TooFewDvfsLevels);
        }
        if mix.is_empty() {
            return Err(BuildError::EmptyWorkloadMix);
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
        let mut scheduler_cfg = config.test_scheduler;
        scheduler_cfg.ladder_levels = config.dvfs_levels;
        let scheduler = TestScheduler::with_library(
            scheduler_cfg,
            config.node,
            manytest_sbst::RoutineLibrary::standard()
                .with_false_positive_rate(config.test_false_positive_rate),
            n,
        );
        let mut rng_faults = root.derive("faults");
        let mut faults = FaultLog::new();
        for _ in 0..config.injected_faults {
            let core = rng_faults.gen_range(n as u64) as usize;
            let at = rng_faults.next_f64() * config.horizon.as_secs_f64() * 0.5;
            let mut fault = if rng_faults.gen_bool(config.vf_windowed_fault_fraction) {
                // Voltage-dependent: observable at exactly one level.
                let level =
                    manytest_power::VfLevel(rng_faults.gen_range(config.dvfs_levels as u64) as u8);
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
            ladder: VfLadder::for_node(config.node, config.dvfs_levels),
            link_model: LinkEnergyModel::nominal_16nm()
                .scaled_energy(params.feature_nm as f64 / 16.0),
            budget: PowerBudget::new(params.tdp),
            governor,
            meter: PowerMeter::new(),
            aging: config.aging,
            criticality: config.criticality,
            stress: StressTracker::new(n, 0.1),
            thermal: config.transient_thermal.then(|| {
                ThermalGrid::new(edge as usize, edge as usize, ThermalParams::default())
            }),
            scheduler,
            mapper,
            mix,
            arrivals: if config.periodic_arrivals {
                ArrivalProcess::periodic(config.arrival_rate)
            } else {
                ArrivalProcess::poisson(config.arrival_rate)
            },
            pending: VecDeque::new(),
            running: BTreeMap::new(),
            store: CoreStore::new(n),
            epoch_busy: vec![0.0; n],
            epoch_energy: vec![0.0; n],
            traffic: TrafficMatrix::new(mesh),
            epoch_traffic: TrafficMatrix::new(mesh),
            link_loads: None,
            contention: ContentionModel::new(),
            queue: EventQueue::with_capacity(1024),
            rng_workload: root.derive("workload"),
            rng_faults,
            faults,
            health: HealthBoard::new(n),
            metrics: MetricsCollector::default(),
            trace: match config.trace_max_samples {
                Some(max) => Trace::bounded(max.max(2)),
                None => Trace::new(),
            },
            next_app_id: 0,
            next_inc: 0,
            apps_rejected: 0,
            measured_last: 0.0,
            tdp: params.tdp,
            observer: match config.event_capacity {
                Some(cap) => Box::new(EventLog::bounded(cap)),
                None => Box::new(NullObserver),
            },
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
            progress: None,
            profile: PhaseProfile::default(),
            recorder: config
                .state_snapshot_max
                .map(|cap| StateRecorder::with_capacity(cap.max(2))),
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

    /// The configuration the system runs under.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Replaces the decision-telemetry observer (e.g. with a streaming
    /// JSONL writer). Call before [`System::run`]; the observer installed
    /// at finalize time supplies [`Report::events`] via
    /// [`Observer::take_log`].
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = observer;
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

    /// Installs shared live-progress counters. [`System::run`] publishes
    /// deterministic epoch/event counts into them once per control epoch
    /// (and a final update at finalize); the simulation never reads them
    /// back, so attaching counters cannot change any result. The bench
    /// harness pairs the counters with its own wall clock to render
    /// heartbeat frames and detect stalls.
    pub fn set_progress(&mut self, progress: Arc<ProgressCounters>) {
        self.progress = Some(progress);
    }

    /// Emits one *root* telemetry event (no cause link) through the
    /// installed observer, minting the run's next sequential [`EventId`].
    /// Root emissions are audited sites: the emission-coverage lint
    /// requires a `lint:allow` naming why the event has no cause.
    /// With the default [`NullObserver`] this is a no-op apart from the
    /// id increment, and the `map_context_allocs` counting-allocator
    /// test holds it to zero heap allocations.
    #[inline]
    pub fn observe(&mut self, now: f64, ev: SimEvent) -> EventId {
        self.observe_linked(now, None, ev)
    }

    /// Emits one telemetry event with an optional provenance link. This
    /// is the single choke point every control-loop emission funnels
    /// through (the emission-coverage lint bans direct `on_event` calls
    /// in this file), so every event gets a deterministic id.
    #[inline]
    pub fn observe_linked(
        &mut self,
        now: f64,
        cause: Option<CauseLink>,
        ev: SimEvent,
    ) -> EventId {
        // lint:allow(event-emission-coverage, reason = "the id-minting funnel itself: this is the one audited raw emit_record every helper routes through")
        emit_record(self.observer.as_mut(), &mut self.next_event_id, now, cause, ev)
    }

    /// Emits one telemetry event caused by `cause` via a `kind` link.
    #[inline]
    fn emit_caused(&mut self, now: f64, kind: CauseKind, cause: EventId, ev: SimEvent) -> EventId {
        self.observe_linked(now, Some(CauseLink::new(kind, cause)), ev)
    }

    /// The platform mesh.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Runs the full horizon and produces the report.
    pub fn run(mut self) -> Report {
        let first_gap = self.arrivals.next_interarrival(&mut self.rng_workload);
        self.queue.schedule(SimTime::ZERO + first_gap, Ev::Arrival);
        let epochs = self.config.epoch_count();
        if let Some(p) = &self.progress {
            p.begin(epochs);
        }
        // Completions cluster at shared timestamps (synchronised task
        // graphs, epoch-aligned launches); draining each cluster in one
        // heap pass skips the per-event sift-down of the old
        // one-at-a-time loop. Handler-scheduled same-time events sort
        // after the batch, so the handling order is unchanged.
        let mut batch = Vec::with_capacity(64);
        for e in 0..epochs {
            let epoch = Epoch(e);
            let t0 = epoch.start(self.config.epoch);
            let t1 = epoch.end(self.config.epoch);
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
            if let Some(p) = &self.progress {
                p.tick(e + 1, self.next_event_id, self.observer.dropped_records());
            }
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
            let obs = self.observer.as_mut();
            let next_id = &mut self.next_event_id;
            let fault_cause = &mut self.fault_cause;
            let activations = &mut self.metrics.fault_activations;
            let profiled = &mut self.profile.fault_activations;
            self.faults.activate_due_with(now, |core| {
                *activations += 1;
                *profiled += 1;
                // lint:allow(event-emission-coverage, reason = "genuine root: fault injection is exogenous; raw emit_record because the fault-log callback borrow-splits the observer")
                let id = emit_record(
                    &mut *obs,
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
    /// allocations** — `crates/bench/benches/kernels.rs` and the
    /// `map_context_allocs` integration test hold it to that.
    pub fn map_context(&mut self, now: f64) -> &MapContext {
        let n = self.mesh.node_count();
        self.profile.ctx_rebuilds += 1;
        let ctx = &mut self.ctx_scratch;
        ctx.reset(self.mesh);
        for i in 0..n {
            let s = self.stress.core(i);
            // A core with a session in flight is about to *complete* a
            // test: mapping onto it wastes the invested test energy, so it
            // is maximally undesirable to a test-aware mapper.
            let in_test = if self.store.has_session(i) { 5.0 } else { 0.0 };
            // Withdrawn = quarantined *or* on probation: no app may be
            // mapped onto a core between quarantine and `CoreReadmitted`
            // (the audit's lifecycle sequence invariant).
            ctx.push_node_health(
                self.store.is_free_for_mapping(i),
                !self.health.is_withdrawn(i),
                s.utilization.clamp(0.0, 1.0),
                self.criticality.criticality(s, now).max(0.0) + in_test,
            );
        }
        debug_assert!(ctx.is_complete());
        &self.ctx_scratch
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
            // lint:allow(hot-path-purity, reason = "admission re-keys the running map once per admitted app, not per epoch")
            self.running.insert(id.0, running);
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
        // One walk over the maintained test-candidate bitset replaces the
        // two full-array filter scans; set bits come out in ascending
        // core order, so both vectors are built in the exact order the
        // old scans produced. A core is healthy or suspect, never both,
        // so a single visit can feed both lanes. Criticality is
        // time-dependent (it grows with time-since-last-test), so the
        // *values* are recomputed for each candidate each tick — only the
        // candidate *set* is maintained incrementally.
        let mut scanned = 0u64;
        for (w, &word) in self.store.testable_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                scanned += 1;
                if self.health.is_healthy(i) {
                    candidates.push(TestCandidate {
                        core: i,
                        criticality: self.criticality.criticality(self.stress.core(i), now),
                    });
                } else if let Some(level) = self.health.suspect_level(i) {
                    retests.push(RetestRequest { core: i, level });
                }
            }
        }
        self.profile.candidates_scanned += scanned;
        self.profile.sched_calls += 1;
        self.profile.retests_planned += retests.len() as u64;
        PhaseProfile::raise(&mut self.profile.candidates_high_water, candidates.len());
        if candidates.is_empty() && retests.is_empty() {
            self.candidates_scratch = candidates;
            self.retests_scratch = retests;
            return;
        }
        let headroom = self.budget.headroom();
        let mut launches = std::mem::take(&mut self.launches_scratch);
        let mut denials = std::mem::take(&mut self.denials_scratch);
        self.scheduler
            .plan_with_retests_into(&retests, &candidates, headroom, &mut launches, &mut denials);
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
                core,
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
        self.store
            .owner(core)
            .map(|(app, _)| self.running[&app.0].op)
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
            let Some(app) = self.running.get(&app_id) else { return };
            if app.inc != inc {
                return;
            }
            debug_assert!(matches!(app.tasks[task.index()], TaskState::Waiting));
            let coord = app.mapping.coord_of(task);
            let rate = app.op.frequency * self.config.workload_ipc;
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
        let Some(app) = self.running.get_mut(&app_id) else {
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
        match self.running.get(&app_id) {
            Some(app) if app.inc == inc => {}
            _ => return, // stale: the app was torn down or re-placed
        }
        // Work on the entry by value: one invariant-checked removal up
        // front replaces every panicking lookup below; the entry goes
        // back into the map at the end unless the app completed.
        let Some(mut app) = self.running.remove(&app_id) else { return };
        // Release the core first.
        let coord = app.mapping.coord_of(task);
        let core = self.mesh.node_id(coord).index();
        self.store.set_owner(core, None);
        self.set_mode(core, now, CoreMode::Off);
        // Record completion and instructions, and hand the task's share of
        // the power reservation back so later admissions (and tests) can
        // use it.
        self.metrics.instructions += app.graph.task(task).instructions;
        app.tasks[task.index()] = TaskState::Done { at: now };
        app.done_count += 1;
        if !app.is_complete() {
            let shrunk = (app.reservation.watts() - app.per_task_watts).max(0.0);
            let resized = self.budget.resize(&mut app.reservation, shrunk);
            debug_assert!(resized.is_ok(), "shrinking a reservation cannot fail");
        }
        // Send output messages: charge NoC traffic + energy.
        let out_edges: Vec<(TaskId, f64)> = app
            .graph
            .out_edges(task)
            .map(|e| (e.to, e.bits))
            // lint:allow(hot-path-purity, reason = "borrow split: charging traffic needs &mut self while app.graph is borrowed; the buffer is degree-bounded")
            .collect();
        for (to, bits) in &out_edges {
            let dst = app.mapping.coord_of(*to);
            self.traffic.charge_route(coord, dst, *bits);
            if self.config.model_contention {
                self.epoch_traffic.charge_route(coord, dst, *bits);
            }
            let cost = self.link_model.message_cost(coord, dst, *bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Wake successors whose inputs are now complete.
        let newly_ready: Vec<(TaskId, f64)> = out_edges
            .iter()
            .map(|&(to, _)| to)
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
                        Some(loads) => {
                            base * self.contention.route_factor(loads, src, dst)
                        }
                        None => base,
                    }
                });
                (to, ready.max(now))
            })
            // lint:allow(hot-path-purity, reason = "borrow split: scheduling needs &mut self.queue while app is borrowed; the ready set is degree-bounded")
            .collect();
        for (to, ready) in newly_ready {
            self.queue.schedule(
                SimTime::from_ns((ready * 1e9).round() as u64),
                Ev::TaskReady { app: app_id, task: to, inc },
            );
        }
        // Application completion.
        if app.is_complete() {
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
        } else {
            // lint:allow(hot-path-purity, reason = "re-keys the entry removed at the top of the handler; bounded by the workload's completion rate")
            self.running.insert(app_id, app);
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
        self.stress.note_test_complete(core, now);
        let routine = self.scheduler.library().routine(session.routine()).clone();
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
                .confirm(core, &routine, session.level(), now, &mut self.rng_faults)
        } else {
            let detected = {
                let obs = self.observer.as_mut();
                let next_id = &mut self.next_event_id;
                let fault_cause = &self.fault_cause;
                let detect_slot = &mut detect_id;
                self.faults.on_test_complete_with(
                    core,
                    &routine,
                    session.level(),
                    now,
                    &mut self.rng_faults,
                    |faulty_core, latency| {
                        let cause = fault_cause[faulty_core]
                            .map(|id| CauseLink::new(CauseKind::Activation, id));
                        // lint:allow(event-emission-coverage, reason = "cause set inline (activation link); raw emit_record because the fault-log callback borrow-splits the observer")
                        *detect_slot = Some(emit_record(
                            &mut *obs,
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
        let interval = match self.store.last_test_time(core) {
            Some(prev) => {
                self.metrics.test_interval.push(now - prev);
                now - prev
            }
            None => -1.0, // first completion on this core
        };
        self.store.push_test_time(core, now);
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
            if self.config.confirmation_retests == 0 {
                self.quarantine_core(
                    core,
                    0,
                    now,
                    CauseLink::new(CauseKind::Suspicion, suspected),
                );
            } else {
                self.health
                    .mark_suspect(core, session.level(), self.config.confirmation_retests);
            }
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
        if self.config.probe_cadence.is_none() || self.config.probe_budget == 0 {
            return;
        }
        for core in 0..self.store.len() {
            if self.probes_inflight >= self.config.probe_budget {
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
                let exp = backoff.min(self.config.probe_backoff_cap);
                let mult = (1u64 << u32::from(exp)) as f64;
                self.probe_next_at[core] = now + cadence.as_secs_f64() * mult;
            }
            self.probes_inflight -= 1;
            self.set_mode(core, now, CoreMode::Off);
            return;
        }
        let streak = self.health.note_probe_pass(core);
        if streak < self.config.probe_passes {
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
                .map(|(&id, _)| id),
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
    // lint:effect(alloc, reason = "checkpoint lane: re-keying the running map is checkpoint-proportional, paid only on the migration policy's cadence")
    fn checkpoint_app(&mut self, app_id: u64, now: f64) {
        let Some(mut app) = self.running.remove(&app_id) else {
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
            self.running.insert(app_id, app);
            return;
        }
        let pause = self.config.migration_delay.as_secs_f64() * CHECKPOINT_PAUSE_FRACTION;
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
                TaskState::Waiting if app.predecessors_done(task) => {
                    let ready = app.input_ready_time(task, |p, to| {
                        let bits = app
                            .graph
                            .edges()
                            .iter()
                            .find(|e| e.from == p && e.to == to)
                            .map(|e| e.bits)
                            .unwrap_or(0.0);
                        let src = app.mapping.coord_of(p);
                        let dst = app.mapping.coord_of(to);
                        let base = self.link_model.message_cost(src, dst, bits).latency;
                        match &self.link_loads {
                            Some(loads) => {
                                base * self.contention.route_factor(loads, src, dst)
                            }
                            None => base,
                        }
                    });
                    let ready = ready.max(now) + pause;
                    self.queue.schedule(
                        SimTime::from_ns((ready * 1e9).round() as u64),
                        Ev::TaskReady { app: app_id, task, inc },
                    );
                }
                // Still waiting on predecessors (their completion wakes
                // it under the new counter), or already done.
                TaskState::Waiting | TaskState::Done { .. } => {}
            }
        }
        app.last_checkpoint = now;
        self.metrics.apps_checkpointed += 1;
        let mapped_event = app.mapped_event;
        self.running.insert(app_id, app);
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
        let app = self.running.remove(&app_id)?;
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
        {
            let n = self.mesh.node_count();
            self.profile.ctx_rebuilds += 1;
            let ctx = &mut self.ctx_scratch;
            ctx.reset(self.mesh);
            for i in 0..n {
                let mine = self
                    .store
                    .owner(i)
                    .map_or(false, |(a, _)| a.0 == app_id);
                let s = self.stress.core(i);
                let in_test = if self.store.has_session(i) { 5.0 } else { 0.0 };
                ctx.push_node_health(
                    self.store.is_free_for_mapping(i) || mine,
                    !self.health.is_withdrawn(i),
                    s.utilization.clamp(0.0, 1.0),
                    self.criticality.criticality(s, now).max(0.0) + in_test,
                );
            }
        }
        // Work on the entry by value (same pattern as task completion):
        // one invariant-checked removal replaces every panicking lookup
        // below, and the entry goes back into the map before the
        // migration event fires.
        let Some(mut app) = self.running.remove(&app_id) else {
            debug_assert!(false, "quarantine victim {app_id} is not running");
            return;
        };
        let new_mapping = match self.mapper.remap(&self.ctx_scratch, &app.graph) {
            Some(m) => m,
            None => {
                self.running.insert(app_id, app);
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
        let delay = self.config.migration_delay.as_secs_f64() * factor;
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
            self.traffic.charge_route(old, new, state_bits);
            if self.config.model_contention {
                self.epoch_traffic.charge_route(old, new, state_bits);
            }
            let cost = self.link_model.message_cost(old, new, state_bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Re-issue the in-flight timing under the new instance counter;
        // moved tasks finish (or become ready) one transfer-delay late.
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
                TaskState::Waiting if app.predecessors_done(task) => {
                    let ready = app.input_ready_time(task, |p, to| {
                        let bits = app
                            .graph
                            .edges()
                            .iter()
                            .find(|e| e.from == p && e.to == to)
                            .map(|e| e.bits)
                            .unwrap_or(0.0);
                        let src = app.mapping.coord_of(p);
                        let dst = app.mapping.coord_of(to);
                        let base = self.link_model.message_cost(src, dst, bits).latency;
                        match &self.link_loads {
                            Some(loads) => {
                                base * self.contention.route_factor(loads, src, dst)
                            }
                            None => base,
                        }
                    });
                    let ready = ready.max(now) + penalty;
                    self.queue.schedule(
                        SimTime::from_ns((ready * 1e9).round() as u64),
                        Ev::TaskReady { app: app_id, task, inc },
                    );
                }
                // Still waiting on predecessors (their completion will
                // wake it under the new counter), or already done.
                TaskState::Waiting | TaskState::Done { .. } => {}
            }
        }
        self.running.insert(app_id, app);
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
        // One cache-linear pass over the mode array. Power-gated cores
        // draw exactly 0 W, so charging them adds 0.0 joules everywhere —
        // a float no-op (all accumulators are non-negative, so `x + 0.0`
        // cannot even flip a `-0.0`). Skipping them leaves their
        // accounting watermark stale, which the next `set_mode` settles
        // by charging the whole gated span at 0 W: identical arithmetic,
        // fewer meter calls.
        for core in 0..self.store.len() {
            if matches!(self.store.mode(core), CoreMode::Off) {
                continue;
            }
            self.charge_core(core, t1);
        }
        let epoch_secs = self.config.epoch.as_secs_f64();
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
        self.trace.series_mut("power_w").push(t1, measured);
        self.trace.series_mut("test_power_w").push(t1, test_w);
        self.trace.series_mut("workload_power_w").push(t1, workload_w);
        self.trace.series_mut("cap_w").push(t1, self.budget.cap());
        self.trace.series_mut("tdp_w").push(t1, self.tdp);
        self.trace
            .series_mut("pending_apps")
            .push(t1, self.pending.len() as f64);
        let testing = self.store.testing_count();
        self.trace
            .series_mut("active_tests")
            .push(t1, testing as f64);
        // Graceful-degradation trajectory: capacity outside withdrawal
        // (quarantine + probation) — re-admission shows up as recovery.
        self.trace.series_mut("healthy_cores").push(
            t1,
            (self.store.len() - self.health.withdrawn_count()) as f64,
        );
        if let Some(grid) = &mut self.thermal {
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
            for core in 0..self.store.len() {
                let busy = (self.epoch_busy[core] / epoch_secs).clamp(0.0, 1.0);
                let temperature = grid.temperature(core);
                self.stress.record_epoch_at_temperature(
                    core,
                    &self.aging,
                    temperature,
                    busy,
                    epoch_secs,
                );
                self.epoch_busy[core] = 0.0;
                self.epoch_energy[core] = 0.0;
            }
            self.trace
                .series_mut("max_temp_k")
                .push(t1, grid.max_temperature());
        } else {
            for core in 0..self.store.len() {
                let busy = (self.epoch_busy[core] / epoch_secs).clamp(0.0, 1.0);
                let avg_power = self.epoch_energy[core] / epoch_secs;
                self.stress
                    .record_epoch(core, &self.aging, avg_power, busy, epoch_secs);
                self.epoch_busy[core] = 0.0;
                self.epoch_energy[core] = 0.0;
            }
        }
        self.trace
            .series_mut("mean_utilization")
            .push(t1, self.stress.mean_utilization());
        if self.config.model_contention {
            let loads = LinkLoads::from_traffic(
                &self.epoch_traffic,
                epoch_secs,
                self.link_model.link_bandwidth,
            );
            self.trace.series_mut("peak_link_load").push(t1, loads.peak());
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
        if let Some(p) = &self.progress {
            p.finish(self.observer.dropped_records());
        }
        let events = self.observer.take_log().unwrap_or_default();
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
            probe_budget: u64::from(self.config.probe_budget),
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
            trace: self.trace,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_power::TechNode;
    use manytest_sim::TraceSeries;

    fn quick(node: TechNode) -> SystemBuilder {
        SystemBuilder::new(node).seed(11).sim_time_ms(160).arrival_rate(200.0)
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
        cfg.epoch = manytest_sim::Duration::ZERO;
        assert_eq!(
            SystemBuilder::from_config(cfg.clone()).build().err(),
            Some(BuildError::ZeroEpoch)
        );
        cfg.epoch = manytest_sim::Duration::from_ms(2);
        cfg.horizon = manytest_sim::Duration::from_ms(1);
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
        cfg.dvfs_levels = 1;
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
    fn zero_confirmation_retests_quarantine_on_first_detection() {
        let r = quick(TechNode::N22)
            .sim_time_ms(400)
            .injected_faults(6)
            .confirmation_retests(0)
            .build()
            .unwrap()
            .run();
        assert!(r.cores_quarantined > 0);
        assert_eq!(r.confirmation_retests, 0, "K=0 skips confirmation");
        assert_eq!(r.cores_suspected, r.cores_quarantined + r.cores_cleared);
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
    fn periodic_arrivals_are_evenly_spaced() {
        let r = quick(TechNode::N16)
            .arrival_rate(1_000.0)
            .sim_time_ms(100)
            .periodic_arrivals(true)
            .build()
            .unwrap()
            .run();
        // Exactly rate × horizon arrivals, to within the first/last gap.
        assert!((99..=101).contains(&r.apps_arrived), "got {}", r.apps_arrived);
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
    fn nbti_recovery_reduces_accumulated_damage() {
        use manytest_aging::RecoveryParams;
        let plain = quick(TechNode::N16).sim_time_ms(300).build().unwrap().run();
        let healing = quick(TechNode::N16)
            .sim_time_ms(300)
            .aging(manytest_aging::AgingModel::default().with_recovery(RecoveryParams::default()))
            .build()
            .unwrap()
            .run();
        let total = |r: &Report| r.damage_per_core.iter().sum::<f64>();
        assert!(
            total(&healing) < total(&plain),
            "recovery must reduce total damage: {} vs {}",
            total(&healing),
            total(&plain)
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
        use manytest_workload::{Task, TaskGraph, TaskGraphGenerator, WorkloadMix};
        // A graph larger than the whole 6x6 (45nm) mesh.
        let mut huge = TaskGraph::new("huge");
        let ids: Vec<_> = (0..40)
            .map(|_| huge.add_task(Task { instructions: 1_000 }))
            .collect();
        for w in ids.windows(2) {
            huge.add_edge(w[0], w[1], 10.0);
        }
        let mut mix = WorkloadMix::new();
        mix.add_preset(huge, 1.0);
        mix.add_random(TaskGraphGenerator::default(), 1.0);
        let r = quick(TechNode::N45)
            .workload(mix)
            .build()
            .unwrap()
            .run();
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
        let r = quick(TechNode::N16)
            .capture_events(1 << 16)
            .injected_faults(4)
            .build()
            .unwrap()
            .run();
        assert!(!r.events.is_empty(), "capture must record events");
        assert_eq!(r.events.dropped(), 0, "capacity must suffice for this run");
        crate::audit::validate_events(&r).expect("event counts reconcile with aggregates");
        // Spot-check the two invariants the paper's control loop lives by.
        assert_eq!(r.events.count("TestDeniedPower"), r.tests_denied_power);
        assert_eq!(
            r.events.count("TestLaunched"),
            r.tests_completed + r.tests_aborted + r.tests_in_flight
        );
        // Capture must not perturb the simulation itself.
        let plain = quick(TechNode::N16).injected_faults(4).build().unwrap().run();
        assert_eq!(plain.instructions_executed, r.instructions_executed);
        assert_eq!(plain.tests_completed, r.tests_completed);
        assert_eq!(plain.trace, r.trace);
    }

    #[test]
    fn default_runs_capture_no_events() {
        let r = quick(TechNode::N16).build().unwrap().run();
        assert!(r.events.is_empty(), "null observer must keep the log empty");
        assert_eq!(r.events.total(), 0);
    }

    #[test]
    fn bounded_trace_caps_series_length() {
        let bounded = quick(TechNode::N16).trace_bound(64).build().unwrap().run();
        let full = quick(TechNode::N16).build().unwrap().run();
        let series = bounded.trace.series("power_w").expect("power series exists");
        assert!(series.len() <= 64, "bound must cap the series, got {}", series.len());
        assert!(series.len() >= 32, "decimation halves at worst, got {}", series.len());
        assert_eq!(full.trace.series("power_w").map(TraceSeries::len), Some(160));
        // Bounding the trace is observability-only: the run itself is identical.
        assert_eq!(bounded.instructions_executed, full.instructions_executed);
        assert_eq!(bounded.tests_completed, full.tests_completed);
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
}
