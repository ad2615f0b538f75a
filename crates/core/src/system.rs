//! The integrated system: builder, epoch loop (`control` runs the PID
//! and fault phases), mode accounting and the report. Each later phase
//! is one module under `system/` with the state only it writes, and
//! `telemetry` is the decision log every phase emits into.

mod close;
mod events;
mod lifecycle;
mod map;
mod schedule;
mod telemetry;

use self::close::ClosePhase;
use self::events::{ArrivalLane, Noc};
use self::lifecycle::{LifecycleLane, Response, PROBE_BUDGET};
use self::map::MapPhase;
use self::schedule::SchedulePhase;
use self::telemetry::Telemetry;
use crate::calendar::WakeCalendar;
use crate::config::{FaultResponsePolicy, GovernorKind, MapperKind, SystemConfig, EPOCH};
use crate::error::BuildError;
use crate::exec::{AppTable, CoreMode, PendingApp, RunningApp, TaskState};
use crate::metrics::{EpochSeries, EpochTrace, MetricsCollector, Report};
use crate::store::CoreStore;
use manytest_aging::{AgingModel, CriticalityModel, StressTracker, ThermalGrid, ThermalParams};
use manytest_map::{ConaMapper, FirstFitMapper, MapContext, Mapper, TestAwareMapper};
use manytest_noc::{ContentionModel, Coord, LinkEnergyModel, LinkLoads, Mesh2D, TrafficMatrix};
use manytest_power::{
    NaiveTdpPolicy, PidController, PowerBudget, PowerCategory, PowerGovernor, PowerMeter,
    PowerModel, VfLevel,
};
use manytest_sbst::{
    CandidateClass, Fault, FaultLog, HealthBoard, RetestRequest, RoutineId, TestCandidate,
    TestDenial, TestLaunch, TestScheduler, TestSession, CRITICALITY_THRESHOLD, LADDER_LEVELS,
};
use manytest_sim::{
    emit_record, AbortReason, CauseKind, CauseLink, CoreState, Epoch, EventId, EventLog,
    EventQueue, HealthCode, NullPhaseObserver, Phase, PhaseObserver, PhaseProfile, SimEvent,
    SimRng, SimTime, StateRecorder, StateSnapshot,
};
use manytest_workload::{AppId, Application, ArrivalProcess, TaskId, WorkloadMix};
use std::collections::VecDeque;

/// Manifestation probability of an intermittent fault on any single
/// observation (solid faults re-fire with probability 1).
const INTERMITTENT_REFIRE: f64 = 0.35;

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
    budget: PowerBudget,
    governor: Box<dyn PowerGovernor>,
    meter: PowerMeter,
    aging: AgingModel,
    criticality: CriticalityModel,
    stress: StressTracker,
    scheduler: TestScheduler,
    mapper: Box<dyn Mapper>,
    pending: VecDeque<PendingApp>,
    running: AppTable<RunningApp>,
    store: CoreStore,
    epoch_busy: Vec<f64>,
    epoch_energy: Vec<f64>,
    noc: Noc,
    queue: EventQueue<Ev>,
    rng_faults: SimRng,
    faults: FaultLog,
    health: HealthBoard,
    metrics: MetricsCollector,
    /// The report's counters, accumulated as the run goes; `finalize`
    /// fills in every other field.
    report: Report,
    next_inc: u64,
    tdp: f64,
    tel: Telemetry,
    phase_obs: Box<dyn PhaseObserver>,
    profile: PhaseProfile,
    /// When each core can next reach the test threshold; the schedule
    /// phase evaluates only the cores that are due.
    calendar: WakeCalendar,
    // The state only one phase writes, one field per phase.
    arrivals: ArrivalLane,
    map: MapPhase,
    sched: SchedulePhase,
    close: ClosePhase,
    lane: LifecycleLane,
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
        if config.horizon < EPOCH {
            return Err(BuildError::HorizonTooShort);
        }
        if !(config.arrival_rate > 0.0 && config.arrival_rate.is_finite()) {
            return Err(BuildError::InvalidArrivalRate);
        }
        // The criticality metric must stay finite and non-negative: the
        // mapper asserts that, the ranking panics on NaN, and the wake-up
        // calendar's bound assumes it.
        let crit = config.criticality;
        for (field, value) in [
            ("criticality.stress_weight", crit.stress_weight),
            ("criticality.time_weight", crit.time_weight),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(BuildError::InvalidSchedulerSetting {
                    field,
                    value,
                    requirement: "finite and non-negative",
                });
            }
        }
        let sched = config.test_scheduler;
        if let Some(level) = sched.fixed_level.filter(|&l| usize::from(l) >= LADDER_LEVELS) {
            return Err(BuildError::InvalidSchedulerSetting {
                field: "test_scheduler.fixed_level",
                value: f64::from(level),
                requirement: "below the number of DVFS levels",
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
            GovernorKind::Pid => Box::new(PidController::default()),
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
                let level = VfLevel(rng_faults.gen_range(LADDER_LEVELS as u64) as u8);
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
        let noc_model =
            LinkEnergyModel::nominal_16nm().scaled_energy(params.feature_nm as f64 / 16.0);
        Ok(System {
            mesh,
            model: PowerModel::for_node(config.node),
            budget: PowerBudget::new(params.tdp),
            governor,
            meter: PowerMeter::new(),
            aging,
            criticality: config.criticality,
            stress: StressTracker::new(n),
            scheduler,
            mapper,
            pending: VecDeque::new(),
            running: AppTable::new(),
            store: CoreStore::new(n),
            epoch_busy: vec![0.0; n],
            epoch_energy: vec![0.0; n],
            noc: Noc {
                model: noc_model,
                contention: ContentionModel::new(),
                loads: config.model_contention.then(|| {
                    LinkLoads::idle(mesh, EPOCH.as_secs_f64(), noc_model.link_bandwidth)
                }),
                traffic: TrafficMatrix::new(mesh),
            },
            queue: EventQueue::with_capacity(1024),
            rng_faults,
            faults,
            health: HealthBoard::new(n),
            metrics: MetricsCollector::default(),
            report: Report::default(),
            next_inc: 0,
            tdp: params.tdp,
            tel: Telemetry::new(config.event_capacity, n),
            phase_obs: Box::new(NullPhaseObserver),
            profile: PhaseProfile::default(),
            calendar: WakeCalendar::new(
                config.criticality,
                CRITICALITY_THRESHOLD,
                EPOCH.as_secs_f64(),
                // A gated core's wear on the steady path: the wear pass
                // charges it at 0 W.
                (!config.transient_thermal).then(|| aging.damage(0.0, EPOCH.as_secs_f64())),
            ),
            arrivals: ArrivalLane {
                process: ArrivalProcess::poisson(config.arrival_rate),
                rng: root.derive("workload"),
                mix,
                next_id: 0,
            },
            map: MapPhase {
                ctx: MapContext::all_free(mesh),
            },
            sched: SchedulePhase {
                candidates: Vec::with_capacity(n),
                retests: Vec::with_capacity(n),
                launches: Vec::new(),
                denials: Vec::new(),
            },
            close: ClosePhase {
                thermal: config.transient_thermal.then(|| {
                    ThermalGrid::new(edge as usize, edge as usize, ThermalParams::default())
                }),
                trace: EpochTrace::default(),
                recorder: config
                    .state_snapshot_max
                    .map(|cap| StateRecorder::with_capacity(cap.max(2))),
                powers: Vec::with_capacity(n),
                measured_last: 0.0,
            },
            lane: LifecycleLane {
                probe_next_at: vec![f64::INFINITY; n],
                probe_gen: vec![0; n],
                probes_inflight: 0,
                checkpoint_due: Vec::new(),
            },
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
        self.tel.observe_linked(now, None, ev)
    }

    /// Runs the full horizon and produces the report.
    pub fn run(mut self) -> Report {
        let first_gap = self.arrivals.gap();
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

    /// Watts a core draws in `mode`; `set_mode` stores it with the mode.
    fn mode_power(&self, mode: CoreMode) -> f64 {
        match mode {
            CoreMode::Off => 0.0,
            CoreMode::Idle(op) => self.model.core_power(op, PowerModel::IDLE_ACTIVITY),
            CoreMode::Busy(op) => self.model.core_power(op, PowerModel::WORKLOAD_ACTIVITY),
            CoreMode::Testing(op, activity) => self.model.core_power(op, activity),
        }
    }

    /// The meter category a core's power in `mode` is charged to.
    fn mode_category(mode: CoreMode) -> PowerCategory {
        match mode {
            CoreMode::Off | CoreMode::Idle(_) => PowerCategory::Idle,
            CoreMode::Busy(_) => PowerCategory::Workload,
            CoreMode::Testing(..) => PowerCategory::Test,
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
        let watts = self.store.power(core);
        self.meter.add(Self::mode_category(mode), watts, dt);
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
                self.report.corruption_exposure += overlap;
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
            self.tel.observe(
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
        self.store.set_mode(core, mode, self.mode_power(mode));
    }

    /// The mode a core rests in between tasks and sessions: idle at its
    /// owner's operating point, or gated when no app owns it.
    fn resting_mode(&self, core: usize) -> CoreMode {
        let Some((app, _)) = self.store.owner(core) else {
            return CoreMode::Off;
        };
        let op = self.running.get_app(app.0).map(|app| app.op);
        debug_assert!(op.is_some(), "owner {app} of core {core} is not running");
        op.map_or(CoreMode::Off, CoreMode::Idle)
    }

    // ----- control plane (epoch boundaries) ------------------------------

    fn control(&mut self, now: f64) {
        self.profile.epochs += 1;
        self.phase_obs.enter(Phase::Pid);
        let cap = self.governor.next_cap(self.tdp, self.close.measured_last);
        self.budget.set_cap(cap);
        self.report.cap_adjustments += 1;
        self.profile.pid_updates += 1;
        // lint:allow(event-emission-coverage, reason = "genuine root: the PID cap move starts each epoch's causal chains")
        let cap_id = self.tel.observe(
            now,
            SimEvent::CapAdjusted {
                cap,
                measured: self.close.measured_last,
                headroom: self.budget.headroom(),
                reservations: self.budget.active_reservations() as u32,
            },
        );
        self.tel.last_cap_event = Some(cap_id);
        self.phase_obs.exit(Phase::Pid);
        self.phase_obs.enter(Phase::Fault);
        self.profile.fault_sweeps += 1;
        self.faults.activate_due_with(now, |core| {
            self.report.fault_activations += 1;
            self.profile.fault_activations += 1;
            // lint:allow(event-emission-coverage, reason = "genuine root: fault injection is exogenous")
            let id = self.tel.observe(now, SimEvent::FaultActivated { core: core as u32 });
            self.tel.fault_cause[core] = Some(id);
        });
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

    // ----- report ----------------------------------------------------------

    /// Assembles the report: the counters the run accumulated in
    /// `self.report`, and every other field from the end-of-run state.
    fn finalize(mut self) -> Report {
        let events = self.tel.events.take().unwrap_or_default();
        let sim_seconds = self.meter.total_seconds();
        let instructions = self.report.instructions_executed;
        let n = self.store.len();
        let ledger = self.scheduler.ledger();
        let tests_per_core: Vec<u64> = (0..n).map(|c| ledger.tests_on_core(c)).collect();
        let damage_per_core: Vec<f64> =
            self.stress.iter().map(|s| s.total_damage).collect();
        Report {
            sim_seconds,
            apps_in_flight: (self.pending.len() + self.running.len()) as u64,
            apps_pending: self.pending.len() as u64,
            throughput_mips: if sim_seconds > 0.0 {
                instructions as f64 / sim_seconds / 1e6
            } else {
                0.0
            },
            mean_app_latency: self.metrics.app_latency.mean(),
            mean_queue_wait: self.metrics.queue_wait.mean(),
            mean_power: self.meter.mean_power(),
            peak_power: self.meter.peak_epoch_power(),
            tdp: self.tdp,
            test_energy_share: self.meter.total_share(PowerCategory::Test),
            noc_energy_share: self.meter.total_share(PowerCategory::Noc),
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
            mean_detection_latency: self.faults.mean_detection_latency().unwrap_or(0.0),
            probe_budget: u64::from(PROBE_BUDGET),
            healthy_cores_end: (self.store.len() - self.health.withdrawn_count()) as u64,
            mean_utilization: self.stress.mean_utilization(),
            dark_fraction: self.config.node.dark_silicon_fraction(),
            mean_hop_cost: self.metrics.hop_cost.mean(),
            profile: self.profile,
            state: self
                .close
                .recorder
                .take()
                .map(StateRecorder::into_timeline)
                .unwrap_or_default(),
            trace: self.close.trace.into_trace(),
            events,
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_power::TechNode;
    use manytest_sbst::MAX_LAUNCHES_PER_EPOCH;

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
        cfg.horizon = manytest_sim::Duration::from_us(999);
        assert_eq!(
            SystemBuilder::from_config(cfg.clone()).build().err(),
            Some(BuildError::HorizonTooShort)
        );
        cfg.horizon = manytest_sim::Duration::from_ms(100);
        cfg.arrival_rate = 0.0;
        assert_eq!(
            SystemBuilder::from_config(cfg).build().err(),
            Some(BuildError::InvalidArrivalRate)
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
    fn fixed_level_outside_the_ladder_is_rejected() {
        assert_rejects(|c| c.test_scheduler.fixed_level = Some(9), "test_scheduler.fixed_level");
        assert_rejects(
            |c| c.test_scheduler.fixed_level = Some(LADDER_LEVELS as u8),
            "test_scheduler.fixed_level",
        );
    }

    #[test]
    fn boundary_scheduler_settings_stay_valid() {
        // A2's single-term weights and the top level.
        for (w_stress, w_time) in [(1.0, 0.0), (0.0, 1.0)] {
            let model = CriticalityModel::new(w_stress, w_time);
            assert!(quick(TechNode::N16).criticality(model).build().is_ok());
        }
        let mut cfg = SystemConfig::for_node(TechNode::N16);
        cfg.test_scheduler.fixed_level = Some(LADDER_LEVELS as u8 - 1);
        assert!(SystemBuilder::from_config(cfg).build().is_ok());
    }

    #[test]
    fn the_scheduler_ladder_sizes_the_platform_ladder() {
        let r = quick(TechNode::N16).build().unwrap().run();
        assert_eq!(r.tests_per_level.len(), LADDER_LEVELS, "one coverage column per level");
        assert!(r.tests_completed > 0);
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
    /// totals below make sure the runs reach the lanes that matter,
    /// the launch cap among them.
    #[test]
    fn wake_calendar_matches_the_full_scan() {
        type Scenario = fn(SystemBuilder) -> SystemBuilder;
        let scenarios: [(&str, Scenario); 9] = [
            ("steady", |b| b),
            ("transient", |b| b.transient_thermal(true).arrival_rate(2_000.0)),
            ("stress-only", |b| b.criticality(CriticalityModel::new(1.0, 0.0))),
            ("time-only", |b| b.criticality(CriticalityModel::new(0.0, 1.0))),
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
            // Through the `SystemConfig`, as A4 sets it.
            ("fixed level", |b| {
                let mut config = b.config().clone();
                config.test_scheduler.fixed_level = Some(2);
                SystemBuilder::from_config(config)
            }),
            ("denials", |b| b.arrival_rate(6_000.0).governor(GovernorKind::Naive)),
            // Wear alone moves criticality, and gated tiles next to busy
            // ones run hotter than a gated core's steady-path wear: the
            // gated bound would wake them too late here.
            ("transient stress-only", |b| {
                b.transient_thermal(true)
                    .criticality(CriticalityModel::new(1.0, 0.0))
                    .arrival_rate(4_000.0)
                    .sim_time_ms(500)
            }),
        ];
        let mut rng = SimRng::seed_from(1717);
        let (mut denials, mut retests, mut probes, mut launches) = (0, 0, 0, 0);
        let mut most_launches = 0;
        for (name, scenario) in scenarios {
            for _ in 0..2 {
                let edge = [4u16, 6, 8, 12, 16][rng.gen_range(5) as usize];
                let builder = SystemBuilder::new(TechNode::N16)
                    .seed(rng.next_u64())
                    .mesh_edge(edge)
                    .sim_time_ms(160 + rng.gen_range(240))
                    .arrival_rate(rng.gen_f64_range(100.0, 3_000.0));
                let r = scenario(builder).build().expect("valid config").run();
                assert!(r.tests_completed > 0, "{name}, edge {edge}");
                denials += r.tests_denied_power;
                retests += r.confirmation_retests;
                probes += r.probes_launched;
                launches += r.profile.sched_launches;
                most_launches = most_launches.max(r.profile.launches_high_water);
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
            most_launches = most_launches.max(r.profile.launches_high_water);
        }
        assert!(denials > 0, "some run must be denied power");
        assert_eq!(most_launches, MAX_LAUNCHES_PER_EPOCH as u64, "the launch cap must bind");
        assert!(retests > 0, "some run must confirm a suspicion");
        assert!(probes > 0, "some run must probe a quarantined core");
        assert!(launches > 0);
    }
}
